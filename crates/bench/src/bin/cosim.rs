//! Composed full-platform co-simulation: DRAM + NoC + MemGuard +
//! scheduling + admission control under one clock on the shared
//! discrete-event kernel.
//!
//! Flags: `--smoke` (short horizon),
//! `--closed-loop` (compose the MPAM-monitored QoS loop on top),
//! `--sensor-faults` (with `--closed-loop`: drop every monitor
//! capture, forcing graceful degradation to safe static partitions),
//! `--export-json <path>`, `--export-csv <path>` — see
//! [`autoplat_bench::ExportOptions`]. Exports carry only the
//! deterministic co-simulation metrics, never wall-clock timings.

use autoplat_bench::format::render_table;
use autoplat_bench::ExportOptions;
use autoplat_core::platform::{CoSim, CoSimConfig, ControlCommand, QosReport};
use autoplat_sim::{FaultPlan, SimTime};

fn main() {
    let mut closed_loop = false;
    let mut sensor_faults = false;
    // The export parser rejects unknown flags, so peel ours off first.
    let rest: Vec<String> = std::env::args()
        .skip(1)
        .filter(|arg| match arg.as_str() {
            "--closed-loop" => {
                closed_loop = true;
                false
            }
            "--sensor-faults" => {
                sensor_faults = true;
                false
            }
            _ => true,
        })
        .collect();
    let opts = ExportOptions::parse(rest).unwrap_or_else(|e| {
        eprintln!("cosim: {e}");
        std::process::exit(2);
    });
    if sensor_faults && !closed_loop {
        eprintln!("cosim: --sensor-faults requires --closed-loop");
        std::process::exit(2);
    }

    let mut cfg = if closed_loop {
        CoSimConfig::small_qos()
    } else {
        CoSimConfig::small()
    };
    if opts.smoke {
        // The closed-loop smoke still needs a few 5 us epochs so the
        // watchdog (fault tolerance 2) can reach safe mode.
        cfg.horizon = SimTime::from_us(if closed_loop { 25.0 } else { 10.0 });
    }
    if closed_loop {
        if sensor_faults {
            cfg.fault_plan = FaultPlan::new().sensor_drop_probability(1.0);
        }
    } else {
        // Exercise the control plane: tighten, then restore, core 2's
        // budget. The closed-loop run owns the budgets itself, so the
        // manual commands only make sense open-loop.
        cfg.controls = vec![
            (
                SimTime::from_us(3.0),
                ControlCommand::SetBudget {
                    core: 2,
                    bytes_per_period: 2048,
                },
            ),
            (
                SimTime::from_us(7.0),
                ControlCommand::SetBudget {
                    core: 2,
                    bytes_per_period: 192,
                },
            ),
        ];
    }
    let horizon = cfg.horizon;
    println!(
        "Co-simulation: {} tasks on a 4x4 mesh over {:.0} us{}",
        cfg.tasks.len(),
        horizon.as_us(),
        if closed_loop {
            " (closed-loop QoS)"
        } else {
            ""
        }
    );

    let report = CoSim::new(cfg).run();

    let rows: Vec<Vec<String>> = report
        .tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            vec![
                i.to_string(),
                t.released.to_string(),
                t.completed.to_string(),
                t.deadline_misses.to_string(),
                t.throttle_stalls.to_string(),
                format!("{:.1}", t.response.mean()),
                format!("{:.1}", t.response.max().unwrap_or(0.0)),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "task",
                "released",
                "completed",
                "misses",
                "stalls",
                "mean resp ns",
                "max resp ns"
            ],
            &rows
        )
    );
    println!(
        "packets delivered: {} (mean NoC latency {:.1} cycles)",
        report.packets_delivered, report.mean_noc_latency_cycles
    );
    println!(
        "DRAM: busy {:.1} us, {} row hits / {} misses, {} refreshes",
        report.dram_busy.as_us(),
        report.dram_row_hits,
        report.dram_row_misses,
        report.dram_refreshes
    );
    println!(
        "regulation: {} replenishments; controls: {} applied, {} refused, {} dropped",
        report.replenishments,
        report.controls_applied,
        report.controls_refused,
        report.controls_dropped
    );
    println!(
        "finished at {:.2} us after {} kernel events",
        report.finished_at.as_us(),
        report.events_delivered
    );
    if let Some(qos) = &report.qos {
        print_qos_summary(qos);
    }

    if let Err(e) = opts.write(&report.metrics) {
        eprintln!("cosim: {e}");
        std::process::exit(1);
    }
}

/// Prints the closed-loop QoS outcome: per-partition caps vs observed
/// traffic in the final epoch, loop activity, and — if the sensor
/// watchdog gave up — the degradation reason and safe-mode epoch.
fn print_qos_summary(qos: &QosReport) {
    println!(
        "\nQoS loop: {} epochs, {} budget retunes, {} captures dropped",
        qos.epochs.len(),
        qos.loop_adjustments,
        qos.captures_dropped
    );
    println!(
        "shared cache: {} hits / {} misses",
        qos.cache_hits, qos.cache_misses
    );
    if let Some(last) = qos.epochs.last() {
        let rows: Vec<Vec<String>> = last
            .parts
            .iter()
            .map(|p| {
                vec![
                    p.partid.to_string(),
                    p.observed_bytes.to_string(),
                    p.cap_bytes.to_string(),
                    p.reading.map_or("dropped".to_string(), |r| r.to_string()),
                    p.budget_after.to_string(),
                ]
            })
            .collect();
        print!(
            "{}",
            render_table(
                &["part", "observed B", "cap B", "reading", "budget B"],
                &rows
            )
        );
    }
    match (&qos.degraded, qos.safe_mode_epoch) {
        (Some(reason), Some(epoch)) => {
            println!("degraded to safe static partitions at epoch {epoch}: {reason:?}")
        }
        (Some(reason), None) => println!("degraded: {reason:?}"),
        _ => println!("loop healthy: no degradation"),
    }
}

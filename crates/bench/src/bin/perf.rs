//! Perf-baseline exporter: measures the event-kernel and co-simulation
//! workloads in `autoplat_bench::perf` and writes the results as
//! `autoplat.metrics.v1` JSON.
//!
//! Flags:
//! * `--quick` — CI smoke scale (seconds); without it, the full scale the
//!   committed repo-root `BENCH_kernel.json` / `BENCH_cosim.json`
//!   baselines are produced at
//! * `--export-kernel PATH` — write the kernel baselines JSON
//! * `--export-cosim PATH` — write the co-sim baselines JSON
//!
//! Build `--release`: these numbers are the trajectory later PRs are
//! compared against, and debug timings would poison the record. The
//! exporter refuses to write from an unoptimized build.
//!
//! Exits 1 if one §IV-A WCD bound takes 1 ms or more on average.

use autoplat_bench::format::render_table;
use autoplat_bench::perf::{cosim_baselines, kernel_baselines, PerfScale};
use autoplat_sim::metrics::{validate_json_export, MetricsRegistry};

/// §IV-A: deriving both WCD bounds is "computationally inexpensive
/// (milliseconds at most), hence could also be done online (e.g., for
/// admission control)". A mean bound time at this budget fails the run.
const WCD_BOUND_BUDGET_MS: f64 = 1.0;

struct Args {
    quick: bool,
    export_kernel: Option<String>,
    export_cosim: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        quick: false,
        export_kernel: None,
        export_cosim: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--quick" => out.quick = true,
            "--export-kernel" => out.export_kernel = Some(value("--export-kernel")?),
            "--export-cosim" => out.export_cosim = Some(value("--export-cosim")?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(out)
}

fn write_export(path: &str, registry: &MetricsRegistry) {
    let json = registry.to_json();
    if let Err(e) = validate_json_export(&json) {
        eprintln!("perf: refusing to write invalid export {path}: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("perf: writing {path}: {e}");
        std::process::exit(1);
    }
    println!("perf baselines written to {path}");
}

fn print_gauges(registry: &MetricsRegistry, names: &[&str]) {
    let rows: Vec<Vec<String>> = names
        .iter()
        .map(|n| {
            vec![
                n.to_string(),
                format!("{:.0}", registry.gauge(n).unwrap_or(f64::NAN)),
            ]
        })
        .collect();
    print!("{}", render_table(&["metric", "per second"], &rows));
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        std::process::exit(2);
    });
    if cfg!(debug_assertions) {
        eprintln!(
            "perf: refusing to record baselines from a debug build; \
             run with `cargo run --release -p autoplat-bench --bin perf`"
        );
        std::process::exit(2);
    }
    let scale = if args.quick {
        PerfScale::quick()
    } else {
        PerfScale::full()
    };

    println!(
        "perf baselines ({} scale)",
        if args.quick { "quick" } else { "full" }
    );
    let kernel = kernel_baselines(scale);
    print_gauges(
        &kernel,
        &[
            "kernel.queue.hold_events_per_sec",
            "kernel.queue.sparse_events_per_sec",
            "kernel.queue.burst_events_per_sec",
            "kernel.queue.ties_events_per_sec",
            "kernel.engine.chain_events_per_sec",
            "kernel.engine.batch_events_per_sec",
            "kernel.wcd.bounds_per_sec",
        ],
    );
    let bound_ms = 1e3 / kernel.gauge("kernel.wcd.bounds_per_sec").unwrap_or(0.0);
    println!("mean time per WCD bound: {:.3} us", bound_ms * 1e3);

    let cosim = cosim_baselines(scale);
    print_gauges(
        &cosim,
        &[
            "cosim.kick.events_per_sec",
            "cosim.noc.event_cycles_per_sec",
            "cosim.noc.dense_cycles_per_sec",
        ],
    );
    println!(
        "event-driven NoC vs dense reference: {:.1}x",
        cosim
            .gauge("cosim.noc.event_vs_dense_speedup")
            .unwrap_or(0.0)
    );

    if let Some(path) = &args.export_kernel {
        write_export(path, &kernel);
    }
    if let Some(path) = &args.export_cosim {
        write_export(path, &cosim);
    }

    if bound_ms >= WCD_BOUND_BUDGET_MS {
        eprintln!(
            "perf: REGRESSION — one WCD bound took {bound_ms:.3} ms on average, \
             at or over the paper's {WCD_BOUND_BUDGET_MS} ms"
        );
        std::process::exit(1);
    }
}

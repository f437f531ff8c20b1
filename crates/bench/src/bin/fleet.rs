//! Fleet-scale admission bench: drives the sharded cluster/root
//! hierarchy over lossy control planes and exports
//! `autoplat.metrics.v1` JSON, including wall-clock admission
//! throughput, time-to-reconverge after a seeded crash storm and
//! per-step RM queue-depth histograms.
//!
//! Flags:
//! * `--smoke` — CI scale (10^4 clients) with a flat-RM differential:
//!   the hierarchy must reach the same final admitted set as the flat
//!   baseline on the same seeded population;
//! * default (no `--smoke`) — full scale (10^6 clients) through the
//!   hierarchy only (the flat RM's O(active) admission path is exactly
//!   what the hierarchy exists to avoid at this scale), under seeded
//!   probabilistic drop/delay/duplication faults and a 1% crash storm;
//! * `--clients N` / `--clusters N` / `--seed S` — override the scale (a
//!   degenerate one, such as `--clusters 0`, exits 2 like a bad flag);
//! * `--export-json PATH` — write the metrics export;
//! * `--deterministic` — omit wall-clock gauges so two runs of the same
//!   seed produce byte-identical exports (the CI replay gate `cmp`s
//!   them); implies the debug-build guard is skipped, since no timing
//!   is recorded.
//!
//! The committed repo-root `BENCH_fleet.json` is produced at full scale
//! from a `--release` build:
//!
//! ```text
//! cargo run --release -p autoplat-bench --bin fleet -- \
//!     --export-json BENCH_fleet.json
//! ```

use std::time::Instant;

use autoplat_admission::{FleetConfig, FleetSim, FleetTopology, RetryPolicy, WatchdogConfig};
use autoplat_bench::format::render_table;
use autoplat_sim::metrics::{validate_json_export, MetricsRegistry};
use autoplat_sim::FaultPlan;

struct Args {
    smoke: bool,
    clients: Option<u32>,
    clusters: Option<u32>,
    seed: u64,
    export_json: Option<String>,
    deterministic: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        smoke: false,
        clients: None,
        clusters: None,
        seed: 1,
        export_json: None,
        deterministic: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--smoke" => out.smoke = true,
            "--deterministic" => out.deterministic = true,
            "--clients" => {
                out.clients = Some(
                    value("--clients")?
                        .parse()
                        .map_err(|e| format!("--clients: {e}"))?,
                );
            }
            "--clusters" => {
                out.clusters = Some(
                    value("--clusters")?
                        .parse()
                        .map_err(|e| format!("--clusters: {e}"))?,
                );
            }
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--export-json" => out.export_json = Some(value("--export-json")?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(out)
}

/// The bench operating point: every client critical with equal demand
/// (so budget conservation is exactly checkable), waves sized to stress
/// the batch paths, and — beyond smoke scale — probabilistic faults
/// plus a 1% crash storm whose reclamation the run must absorb.
fn fleet_config(args: &Args) -> FleetConfig {
    let clients = args
        .clients
        .unwrap_or(if args.smoke { 10_000 } else { 1_000_000 });
    let clusters = args
        .clusters
        .unwrap_or_else(|| (clients / 15_000).clamp(8, 64));
    let fault_plan = if args.smoke {
        // Delay + duplication only: both recover without changing final
        // sets, so the flat differential below stays sound.
        FaultPlan::new()
            .delay_probability(0.02)
            .max_delay_cycles(40)
            .duplicate_probability(0.01)
    } else {
        FaultPlan::new()
            .drop_probability(0.01)
            .delay_probability(0.02)
            .max_delay_cycles(60)
            .duplicate_probability(0.005)
    };
    FleetConfig {
        clients,
        clusters,
        capacity_milli: u64::from(clients) * 100,
        demand_milli: 100,
        critical_every: 1,
        wave_size: (clients / 20).max(1),
        wave_interval: 500,
        client_latency_cycles: 20,
        bundle_latency_cycles: 50,
        heartbeat_interval_cycles: 2_500,
        watchdog: WatchdogConfig {
            timeout_cycles: 10_000,
            quarantine_threshold: 1,
            quarantine_cooldown_cycles: 100_000,
        },
        client_retry: RetryPolicy::new(192, 8),
        rm_retry: RetryPolicy::new(192, 8),
        bundle_retry: RetryPolicy::new(64, 6),
        cluster_timeout_cycles: 20_000,
        fault_plan,
        crashes: clients / 100,
        crash_at: Some(20_000),
        horizon: 60_000,
        seed: args.seed,
        topology: FleetTopology::Hierarchical,
        ..FleetConfig::default()
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("fleet: {e}");
        std::process::exit(2);
    });
    if cfg!(debug_assertions) && !args.deterministic {
        eprintln!(
            "fleet: refusing to record wall-clock throughput from a debug build; \
             run with `cargo run --release -p autoplat-bench --bin fleet` \
             (or pass --deterministic for a timing-free export)"
        );
        std::process::exit(2);
    }

    let cfg = fleet_config(&args);
    println!(
        "fleet: {} clients / {} clusters, seed {} ({} scale)",
        cfg.clients,
        cfg.clusters,
        cfg.seed,
        if args.smoke { "smoke" } else { "full" }
    );

    let started = Instant::now();
    let sim = FleetSim::try_new(cfg.clone()).unwrap_or_else(|e| {
        eprintln!("fleet: {e}");
        std::process::exit(2);
    });
    let outcome = sim.run();
    let elapsed = started.elapsed().as_secs_f64();

    let mut registry = MetricsRegistry::new();
    outcome.publish_metrics(&mut registry);
    if !args.deterministic {
        registry.gauge_set(
            "fleet.admissions_per_sec",
            outcome.admitted.len() as f64 / elapsed.max(1e-9),
        );
        registry.gauge_set("fleet.wall_seconds", elapsed);
    }

    let rows = vec![
        vec!["admitted".to_string(), outcome.admitted.len().to_string()],
        vec!["refused".to_string(), outcome.refused.len().to_string()],
        vec!["gave up".to_string(), outcome.gave_up.len().to_string()],
        vec!["crashed".to_string(), outcome.crashed.len().to_string()],
        vec![
            "quarantined".to_string(),
            outcome.quarantined.len().to_string(),
        ],
        vec![
            "root granted (milli)".to_string(),
            outcome.root_granted_milli.unwrap_or(0).to_string(),
        ],
        vec![
            "reconverge (cycles)".to_string(),
            outcome
                .reconverge_cycles
                .map_or("-".to_string(), |c| c.to_string()),
        ],
        vec![
            "control messages".to_string(),
            outcome.control_messages.to_string(),
        ],
        vec!["bundles".to_string(), outcome.bundles.to_string()],
        vec![
            "queue depth p99".to_string(),
            format!("{:.0}", outcome.queue_depth.quantile(0.99).unwrap_or(0.0)),
        ],
        vec!["kernel kicks".to_string(), outcome.kicks.to_string()],
    ];
    print!("{}", render_table(&["metric", "value"], &rows));
    if !args.deterministic {
        println!(
            "throughput: {:.0} admissions/sec over {:.2}s wall",
            outcome.admitted.len() as f64 / elapsed.max(1e-9),
            elapsed
        );
    }

    // The hierarchy must actually have carried the fleet: every client
    // accounted for, bundles on the wire, and the root's ledger exactly
    // matching the shards' active sets.
    let accounted = outcome.admitted.len()
        + outcome.refused.len()
        + outcome.gave_up.len()
        + outcome.crashed.len();
    if accounted != cfg.clients as usize {
        eprintln!(
            "fleet: FAILED — only {accounted} of {} clients reached a terminal state",
            cfg.clients
        );
        std::process::exit(1);
    }
    if outcome.bundles == 0 {
        eprintln!("fleet: FAILED — no control traffic travelled as bundles");
        std::process::exit(1);
    }
    if outcome.root_granted_milli != Some(outcome.active_guaranteed_milli) {
        eprintln!(
            "fleet: FAILED — root holds {:?} milli but shards' active criticals demand {}",
            outcome.root_granted_milli, outcome.active_guaranteed_milli
        );
        std::process::exit(1);
    }

    // Smoke scale only: the flat baseline must agree on the final sets
    // (at full scale the flat RM's O(active) admission path is the
    // bottleneck this hierarchy removes, so the differential lives in
    // the conformance `fleet` family and here at smoke scale).
    if args.smoke {
        let flat = FleetSim::new(FleetConfig {
            topology: FleetTopology::Flat,
            root_capacity_milli: None,
            ..cfg.clone()
        })
        .run();
        if flat.admitted != outcome.admitted
            || flat.refused != outcome.refused
            || flat.gave_up != outcome.gave_up
            || flat.crashed != outcome.crashed
            || flat.quarantined != outcome.quarantined
        {
            eprintln!(
                "fleet: FAILED — flat baseline diverges from the hierarchy \
                 (flat admitted/refused/gave_up/crashed/quarantined \
                 {}/{}/{}/{}/{} vs {}/{}/{}/{}/{})",
                flat.admitted.len(),
                flat.refused.len(),
                flat.gave_up.len(),
                flat.crashed.len(),
                flat.quarantined.len(),
                outcome.admitted.len(),
                outcome.refused.len(),
                outcome.gave_up.len(),
                outcome.crashed.len(),
                outcome.quarantined.len()
            );
            std::process::exit(1);
        }
        println!(
            "flat differential: {} admitted clients agree across topologies",
            flat.admitted.len()
        );
    }

    if let Some(path) = &args.export_json {
        let json = registry.to_json();
        if let Err(e) = validate_json_export(&json) {
            eprintln!("fleet: refusing to write invalid export {path}: {e}");
            std::process::exit(1);
        }
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("fleet: writing {path}: {e}");
            std::process::exit(1);
        }
        println!("fleet metrics written to {path}");
    }
}

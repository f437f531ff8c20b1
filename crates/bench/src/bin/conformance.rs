//! Differential conformance sweep: analytic bounds as oracles for every
//! simulator (see `crates/conformance` and DESIGN.md §9).
//!
//! Flags:
//! * `--cases N` — cases per family (default 50, `--smoke` forces 5)
//! * `--seed S` — master seed (default 7)
//! * `--family NAME` — restrict to one family (dram, noc, memguard,
//!   sched, determinism, closedloop, dpq, perbank, diff, fleet)
//! * `--case-seed 0xHEX` — replay a single case seed (requires
//!   `--family`); this is the reproducer line printed on failure
//! * `--shards N` — fan the sweep across N worker threads (default 1);
//!   the report is byte-identical for every N (deterministic shard merge)
//! * `--export-json PATH` / `--export-csv PATH` — metrics export
//! * `--smoke` — tiny sweep for CI gating
//!
//! Exits 1 if any invariant is violated, printing the shrunk minimal
//! scenario and a replay command line for each failure.

use autoplat_bench::format::render_table;
use autoplat_conformance::{run_case, run_sweep_parallel, Family, Oracle, SweepConfig};
use autoplat_sim::MetricsRegistry;

struct Args {
    cases: u64,
    seed: u64,
    family: Option<Family>,
    case_seed: Option<u64>,
    shards: usize,
    export_json: Option<String>,
    export_csv: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        cases: 50,
        seed: 7,
        family: None,
        case_seed: None,
        shards: 1,
        export_json: None,
        export_csv: None,
    };
    let mut args = std::env::args().skip(1);
    let mut smoke = false;
    let mut explicit_cases = false;
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--cases" => {
                out.cases = value("--cases")?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?;
                explicit_cases = true;
            }
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--family" => {
                let name = value("--family")?;
                out.family =
                    Some(Family::parse(&name).ok_or_else(|| format!("unknown family '{name}'"))?);
            }
            "--case-seed" => {
                let raw = value("--case-seed")?;
                let digits = raw.strip_prefix("0x").unwrap_or(&raw);
                out.case_seed =
                    Some(u64::from_str_radix(digits, 16).map_err(|e| format!("--case-seed: {e}"))?);
            }
            "--shards" => {
                out.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
                if out.shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--export-json" => out.export_json = Some(value("--export-json")?),
            "--export-csv" => out.export_csv = Some(value("--export-csv")?),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if smoke && !explicit_cases {
        out.cases = 5;
    }
    if out.case_seed.is_some() && out.family.is_none() {
        return Err("--case-seed requires --family".into());
    }
    Ok(out)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("conformance: {e}");
        std::process::exit(2);
    });
    let oracle = Oracle::default();

    // Single-case replay path: the reproducer printed on failure.
    if let Some(seed) = args.case_seed {
        let family = args.family.expect("validated in parse_args");
        match run_case(&oracle, family, seed) {
            Ok(result) => {
                println!("case 0x{seed:x} ({}) -> {result:?}", family.name());
            }
            Err(shrunk) => {
                eprintln!(
                    "case 0x{seed:x} ({}) FAILED: {}\nminimal scenario: {:?}",
                    family.name(),
                    shrunk.violation,
                    shrunk.scenario
                );
                std::process::exit(1);
            }
        }
        return;
    }

    let config = SweepConfig {
        seed: args.seed,
        cases: args.cases,
        family: args.family,
        oracle,
    };
    println!(
        "conformance sweep: {} cases/family, master seed {}, {} shard{}",
        config.cases,
        config.seed,
        args.shards,
        if args.shards == 1 { "" } else { "s" }
    );
    let report = run_sweep_parallel(&config, args.shards);
    let rows: Vec<Vec<String>> = report
        .stats
        .iter()
        .map(|(family, s)| {
            vec![
                family.name().to_string(),
                s.cases.to_string(),
                s.passed.to_string(),
                s.vacuous.to_string(),
                s.violations.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &["family", "cases", "passed", "vacuous", "violations"],
            &rows
        )
    );

    let mut metrics = MetricsRegistry::new();
    report.publish_metrics(&mut metrics);
    if let Some(path) = &args.export_json {
        if let Err(e) = std::fs::write(path, metrics.to_json()) {
            eprintln!("conformance: writing {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = &args.export_csv {
        if let Err(e) = std::fs::write(path, metrics.to_csv()) {
            eprintln!("conformance: writing {path}: {e}");
            std::process::exit(1);
        }
    }

    if !report.all_passed() {
        for failure in &report.failures {
            eprintln!(
                "\nFAIL {} case {} (seed 0x{:x}, size {} -> {} in {} steps)\n{}",
                failure.family.name(),
                failure.case_index,
                failure.case_seed,
                failure.original_size,
                failure.shrunk.scenario.size(),
                failure.shrunk.steps,
                failure.reproducer()
            );
        }
        std::process::exit(1);
    }
    println!("all {} cases conformant", report.total_cases());
}

//! Benchmark runner.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1
//! perfbench --workload W --print-digests N[,N...]
//! ```
//!
//! Every measurement runs in a fresh child process of this binary (one
//! thread, one op in flight), so peak RSS is the workload's own. The
//! last line of standard output is the JSON result.

use std::process::{Command, Stdio};

use autoplat_perfbench::trace::Tracer;
use autoplat_perfbench::workloads::{self, quantile, Outcome, Params, Workload, LAYER_METRICS};
use autoplat_perfbench::{expected_digest, DEV_SEED, HELD_OUT_SEED};
use autoplat_sim::JsonValue;

const USAGE: &str =
    "usage: perfbench --workload cosim_qos|campaign_grid|fleet_admission|paper_figures \
[--seed N] [--seconds S] [--trace 0|1] | --workload W --print-digests N[,N...]";

/// Quantile of the per-op rates reported as `ops_per_s`: the slow side,
/// where the host spends most of its time (see README.md).
const RATE_QUANTILE: f64 = 0.10;
/// Quantile of the set-up samples reported as `setup_s`: the same slow
/// side, for a time.
const SETUP_QUANTILE: f64 = 0.90;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Parent,
    Untraced,
    Traced,
    Setup,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    role: Role,
    print_digests: Option<Vec<u64>>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut out = Args {
        workload: Workload::CosimQos,
        seed: DEV_SEED,
        seconds: 10.0,
        trace: false,
        role: Role::Parent,
        print_digests: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--child" => {
                out.role = match value()?.as_str() {
                    "untraced" => Role::Untraced,
                    "traced" => Role::Traced,
                    "setup" => Role::Setup,
                    v => return Err(format!("unknown child role '{v}'")),
                }
            }
            "--print-digests" => {
                let seeds = value()?
                    .split(',')
                    .map(|s| s.parse().map_err(|e| format!("--print-digests: {e}")))
                    .collect::<Result<Vec<u64>, String>>()?;
                out.print_digests = Some(seeds);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    out.workload = workload.ok_or("--workload is required")?;
    Ok(out)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to time a debug build; build with --release");
        std::process::exit(2);
    }
    if let Some(seeds) = &args.print_digests {
        print_digests(args.workload, seeds);
        return;
    }
    match args.role {
        Role::Parent => parent(&args),
        Role::Untraced | Role::Traced => child(&args),
        Role::Setup => println!(
            "setup_s={}",
            workloads::setup_sample(args.workload, args.seed)
        ),
    }
}

/// Prints expected-digest table rows for `seeds` (one op per seed).
fn print_digests(w: Workload, seeds: &[u64]) {
    for &seed in seeds {
        let p = Params {
            seed,
            seconds: 1e-9,
            expected: None,
            measure_setup: false,
            traced: false,
        };
        let digest = workloads::run(w, &p, &mut Tracer::new(false))
            .digest
            .expect("one op ran");
        let key = if w == Workload::PaperFigures {
            "*".to_string()
        } else {
            seed.to_string()
        };
        println!("{} {key} {digest:#018x}", w.name());
    }
}

fn num_array(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("[{}]", parts.join(","))
}

/// A measuring process: runs the workload, then prints its outcome as
/// one JSON line (and the traced run's attribution on stderr).
fn child(args: &Args) {
    let traced = args.role == Role::Traced;
    let p = Params {
        seed: args.seed,
        seconds: args.seconds,
        expected: expected_digest(args.workload, args.seed),
        measure_setup: !traced,
        traced,
    };
    let mut tracer = Tracer::new(traced);
    let out: Outcome = workloads::run(args.workload, &p, &mut tracer);
    if traced {
        eprintln!(
            "{:<28} {:>7} {:>12} {:>12}",
            "span", "count", "total ms", "self ms"
        );
        for (name, t) in tracer.totals() {
            eprintln!(
                "{name:<28} {:>7} {:>12.3} {:>12.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        for line in &out.notes {
            eprintln!("{line}");
        }
        write_spans(args, &tracer);
    }
    let layers: Vec<String> = out
        .layers
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!(
        "{{\"attempted\":{},\"failed\":{},\"rates\":{},\"traced_rates\":{},\"setup_s\":{},\"digest\":\"{:#018x}\",\"traced_digest\":\"{:#018x}\",\"peak_rss_mb\":{},\"layers\":{{{}}}}}",
        out.attempted,
        out.failed,
        num_array(&out.rates),
        num_array(&out.traced_rates),
        num_array(&out.setup_s),
        out.digest.unwrap_or(0),
        out.traced_digest.unwrap_or(0),
        out.peak_rss_mb,
        layers.join(",")
    );
}

/// Writes the traced run's spans, once, after measuring.
fn write_spans(args: &Args, tracer: &Tracer) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/trace");
    let path = format!(
        "{dir}/{}-seed{}.spans.jsonl",
        args.workload.name(),
        args.seed
    );
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_json_lines()));
    match written {
        Ok(()) => eprintln!("spans: {} written to {path}", tracer.spans().len()),
        Err(e) => eprintln!("spans: not written to {path}: {e}"),
    }
}

/// Runs this binary as a child in `role` and parses its JSON line.
fn spawn(args: &Args, role: &str) -> JsonValue {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--child", role])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let output = cmd.output().unwrap_or_else(|e| {
        eprintln!("perfbench: cannot start {role} child: {e}");
        std::process::exit(1);
    });
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout.lines().last().map(JsonValue::parse);
    match (output.status.success(), parsed) {
        (true, Some(Ok(v))) => v,
        _ => {
            eprintln!("perfbench: {role} child failed ({})", output.status);
            std::process::exit(1);
        }
    }
}

fn floats(v: &JsonValue, key: &str) -> Vec<f64> {
    v.get(key)
        .and_then(JsonValue::as_array)
        .map(|a| a.iter().filter_map(JsonValue::as_f64).collect())
        .unwrap_or_default()
}

fn count(v: &JsonValue, key: &str) -> u64 {
    v.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).unwrap_or("")
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

/// The parent process: spawns the measuring processes, combines their
/// outcomes and prints the result.
fn parent(args: &Args) {
    let w = args.workload;
    let expected = expected_digest(w, args.seed);
    println!(
        "perfbench: {} seed {} ({}), {} s, trace {}; development seed {DEV_SEED}, held-out seed {HELD_OUT_SEED}",
        w.name(),
        args.seed,
        match expected {
            Some(d) => format!("expected digest {d:#018x}"),
            None => "no committed digest: ops must agree with the first".to_string(),
        },
        args.seconds,
        u8::from(args.trace)
    );
    let mut correct = true;
    let mut metrics = Vec::new();
    let (attempted, failed);
    if args.trace {
        let run = spawn(args, "traced");
        attempted = count(&run, "attempted");
        failed = count(&run, "failed");
        if text(&run, "digest") != text(&run, "traced_digest") {
            println!(
                "traced digest {} differs from untraced {}",
                text(&run, "traced_digest"),
                text(&run, "digest")
            );
            correct = false;
        }
        // Each traced op against the untraced op just before it.
        let pairs: Vec<f64> = floats(&run, "rates")
            .iter()
            .zip(floats(&run, "traced_rates"))
            .map(|(untraced, traced)| untraced / traced)
            .collect();
        let overhead = quantile(&pairs, 0.5);
        println!(
            "{} untraced/traced op pairs, overhead ratio median {overhead:.4}",
            pairs.len()
        );
        let layers = run.get("layers");
        println!("{:<42} {:>16}  unit", "per-layer metric", "value");
        for &(name, unit) in LAYER_METRICS {
            let value = if name == "trace.overhead_ratio" {
                overhead
            } else {
                layers
                    .and_then(|l| l.get(name))
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0)
            };
            println!("{name:<42} {value:>16.4}  {unit}");
            metrics.push(metric(name, value, unit));
        }
    } else {
        let run = spawn(args, "untraced");
        let setup = floats(&run, "setup_s");
        attempted = count(&run, "attempted");
        failed = count(&run, "failed");
        let rates = floats(&run, "rates");
        let error_rate = failed as f64 / attempted.max(1) as f64;
        let rows = [
            ("ops_per_s", quantile(&rates, RATE_QUANTILE), "1/s"),
            ("setup_s", quantile(&setup, SETUP_QUANTILE), "s"),
            (
                "peak_rss_mb",
                run.get("peak_rss_mb")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0),
                "MiB",
            ),
            ("success_ratio", 1.0 - error_rate, "ratio"),
        ];
        println!(
            "{} op samples (median {:.6} ops/s), {} set-up samples, {} ops attempted, {} failed, output digest {}",
            rates.len(),
            quantile(&rates, 0.5),
            setup.len(),
            attempted,
            failed,
            text(&run, "digest")
        );
        for (name, value, unit) in rows {
            println!("{name:<14} {value:>16.6} {unit}");
            metrics.push(metric(name, value, unit));
        }
        println!("{:<14} {error_rate:>16.6} ratio", "error_rate");
    }
    correct &= failed == 0 && attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
}

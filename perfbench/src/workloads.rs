//! The four workloads, each driven only through the crates' public entry
//! points, with tracing spans around every call into a layer.
//!
//! Every workload runs fixed-size ops (a co-sim of fixed horizon, a
//! campaign grid, a fleet of fixed size, one pass over the experiments)
//! and repeats them until the run's time is spent, so the work per op
//! never depends on run length and each op's output can be checked
//! against the digest expected for the seed.
//!
//! Ops are kept at or below about a second of host time, and set-up
//! samples are spread over the run: the host's speed switches between
//! states that last seconds, and only many short samples spread over the
//! run let a quantile settle on one state (see README.md).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use autoplat_admission::{FleetConfig, FleetSim, FleetTopology, RetryPolicy, WatchdogConfig};
use autoplat_bench as exp;
use autoplat_campaign::checkpoint::shard_to_json;
use autoplat_campaign::{
    fnv1a64, reduce, run_point, validate_shard_json, CampaignConfig, CampaignSpec, ChunkRecord,
};
use autoplat_conformance::Scenario;
use autoplat_core::cosim::{CoSim, CoSimConfig, CoSimReport};
use autoplat_regulation::{ClosedLoopConfig, MonitorCapture};
use autoplat_sim::{FaultPlan, HistogramSketch, MetricsRegistry, SimRng, SimTime};

use crate::clock::CpuInstant;
use crate::probes;
use crate::trace::Tracer;

/// Simulated horizon of one `cosim_qos` op. Events per job are flat in
/// the horizon (≈104 from 1 to 20 ms), so this only sets op length.
pub const COSIM_HORIZON_US: f64 = 1000.0;
/// Clients of one `fleet_admission` op.
pub const FLEET_CLIENTS: u32 = 10_000;

/// The `campaign_grid` input: the 32-point smoke grid. A pass over the
/// 243-point full grid takes ≈11 s on one worker, too long to sample.
fn campaign_spec(seed: u64) -> CampaignSpec {
    CampaignSpec::smoke(seed)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CosimQos,
    CampaignGrid,
    FleetAdmission,
    PaperFigures,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CosimQos,
        Workload::CampaignGrid,
        Workload::FleetAdmission,
        Workload::PaperFigures,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CosimQos => "cosim_qos",
            Workload::CampaignGrid => "campaign_grid",
            Workload::FleetAdmission => "fleet_admission",
            Workload::PaperFigures => "paper_figures",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Every per-layer metric, in report order. A workload that bypasses a
/// layer reports 0 for it.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("sim.events_per_op", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.engine_chain_ns_per_event", "ns"),
    ("sim.export_ms", "ms"),
    ("noc.ticks_per_packet", "count"),
    ("noc.host_ns_per_tick", "ns"),
    ("noc.packet_latency_p99_cycles", "cycles"),
    ("noc.hottest_link_utilization", "ratio"),
    ("dram.services", "count"),
    ("dram.row_hit_ratio", "ratio"),
    ("dram.busy_ratio", "ratio"),
    ("dram.host_ns_per_service", "ns"),
    ("dram.wcd_ms", "ms"),
    ("dram.controller_ms", "ms"),
    ("cache.accesses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.host_ns_per_access", "ns"),
    ("mpam.host_ns_per_transfer", "ns"),
    ("regulation.throttles_per_job", "count"),
    ("regulation.resume_share", "ratio"),
    ("regulation.host_ns_per_try_access", "ns"),
    ("regulation.closed_loop.epochs", "count"),
    ("regulation.closed_loop.adjustments", "count"),
    ("regulation.closed_loop.safe_mode_epoch", "count"),
    ("regulation.closed_loop.host_us_per_epoch", "us"),
    ("sched.ms", "ms"),
    ("core.cosim.new_us", "us"),
    ("core.cosim.run_s", "s"),
    ("core.cosim.sim_us_per_s", "us/s"),
    ("core.cosim.glue_share", "ratio"),
    ("core.design_space.resolve_ms", "ms"),
    ("core.platform.ms", "ms"),
    ("conformance.check_ms", "ms"),
    ("conformance.violations", "count"),
    ("campaign.point_p50_ms", "ms"),
    ("campaign.point_p95_ms", "ms"),
    ("campaign.point_max_ms", "ms"),
    ("campaign.loaded_share", "ratio"),
    ("campaign.solo_share", "ratio"),
    ("campaign.conformance_share", "ratio"),
    ("campaign.reduce_ms", "ms"),
    ("campaign.shard_roundtrip_ms", "ms"),
    ("admission.fleet.run_s", "s"),
    ("admission.messages_per_admission", "count"),
    ("admission.kicks_per_admission", "count"),
    ("admission.queue_depth_p99", "count"),
    ("admission.reconverge_cycles", "cycles"),
    ("admission.client_reclaims", "count"),
    ("admission.modes_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one measuring process is asked to do.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Time budget of the timed phase; at least two ops always run (the
    /// warm-up and one timed op), three in a traced run.
    pub seconds: f64,
    /// The output digest expected for the seed. `None`: the first op's
    /// digest becomes the expectation for the rest of the run.
    pub expected: Option<u64>,
    /// Take a set-up sample before every timed op.
    pub measure_setup: bool,
    /// Alternate untraced and traced ops (see [`traced_op`]), then
    /// compute the per-layer metrics.
    pub traced: bool,
}

/// What one measuring process observed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Ops per CPU second of each timed untraced op, in run order.
    pub rates: Vec<f64>,
    /// The same for each traced op; traced op `k` directly follows
    /// untraced op `k`.
    pub traced_rates: Vec<f64>,
    /// Set-up samples in seconds, one before every timed op.
    pub setup_s: Vec<f64>,
    /// Peak RSS of this process in MiB once the first timed op has run.
    pub peak_rss_mb: f64,
    /// The digest of the first untraced op's wall-clock-free output.
    pub digest: Option<u64>,
    /// The same for the first traced op.
    pub traced_digest: Option<u64>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable attribution lines (traced runs only).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Keeps the rate of op `op` if it is timed.
    fn push_rate(&mut self, op: u64, traced: bool, rate: f64) {
        match (timed(op), traced) {
            (false, _) => {}
            (true, false) => self.rates.push(rate),
            (true, true) => self.traced_rates.push(rate),
        }
    }
}

/// Output check: each op's digest against the expectation, plus the
/// workload's own invariants.
#[derive(Debug)]
struct Check {
    expected: Option<u64>,
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
    traced_digest: Option<u64>,
}

impl Check {
    fn new(expected: Option<u64>) -> Check {
        Check {
            expected,
            attempted: 0,
            failed: 0,
            digest: None,
            traced_digest: None,
        }
    }

    /// Records an output of `ops` ops of which `bad` broke an invariant;
    /// a digest mismatch fails every op of the output.
    fn record(&mut self, traced: bool, digest: u64, ops: u64, bad: u64) {
        let expected = *self.expected.get_or_insert(digest);
        self.attempted += ops;
        self.failed += if digest == expected {
            bad.min(ops)
        } else {
            ops
        };
        let first = if traced {
            &mut self.traced_digest
        } else {
            &mut self.digest
        };
        first.get_or_insert(digest);
    }

    fn finish(self, out: &mut Outcome) {
        out.attempted = self.attempted;
        out.failed = self.failed;
        out.digest = self.digest;
        out.traced_digest = self.traced_digest;
    }
}

pub fn run(w: Workload, p: &Params, tr: &mut Tracer) -> Outcome {
    match w {
        Workload::CosimQos => cosim_qos(p, tr),
        Workload::CampaignGrid => campaign_grid(p, tr),
        Workload::FleetAdmission => fleet_admission(p, tr),
        Workload::PaperFigures => paper_figures(p, tr),
    }
}

/// Calls `op` with 0, 1, 2, … until `p.seconds` have passed, at least
/// twice (three times in a traced run). Op 0 warms the process (heap,
/// caches, lazy set-up): its output is checked, but its timings are not
/// kept; see [`timed`]. In a traced run the tracer records only the ops
/// [`traced_op`] picks, and is left on afterwards.
///
/// Returns the process's peak RSS once the first timed op has run. Read
/// at the end instead, it grew with the number of ops the run's time
/// fitted, as the allocator's heap fragmented.
fn repeat_for(p: &Params, tr: &mut Tracer, mut op: impl FnMut(u64, &mut Tracer)) -> f64 {
    let min_ops = if p.traced { 3 } else { 2 };
    let start = Instant::now();
    let mut peak_rss = 0.0;
    let mut i = 0;
    while i < min_ops || start.elapsed().as_secs_f64() < p.seconds {
        tr.set_enabled(p.traced && traced_op(i));
        op(i, tr);
        if i == 1 {
            peak_rss = peak_rss_mb();
        }
        i += 1;
    }
    tr.set_enabled(p.traced);
    peak_rss
}

/// Peak resident set of this process in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Whether op `op`'s timings are kept (every op after the warm-up).
fn timed(op: u64) -> bool {
    op > 0
}

/// Whether a traced run traces op `op`: every even op after the warm-up,
/// so each traced op directly follows an untraced one and the pair runs
/// in the same host state (see README.md).
fn traced_op(op: u64) -> bool {
    timed(op) && op.is_multiple_of(2)
}

/// Takes a set-up sample before op `op` (never before the warm-up op),
/// in a fresh process: in this one it would run in the heap the ops
/// leave behind, which slowed the first constructions, and leave its own
/// allocations in theirs.
fn sample_setup(p: &Params, w: Workload, op: u64, samples: &mut Vec<f64>) {
    if p.measure_setup && timed(op) {
        samples.push(setup_in_fresh_process(w, p.seed));
    }
}

/// One set-up sample of `w` at `seed`, in seconds: the cold first pass
/// for `paper_figures`, which every table/figure invocation pays, and
/// the workload's construction for the others (see [`construction_s`]).
pub fn setup_sample(w: Workload, seed: u64) -> f64 {
    match w {
        Workload::CosimQos => construction_s(|| {
            black_box(CoSim::new(cosim_config(seed, COSIM_HORIZON_US)));
        }),
        Workload::CampaignGrid => construction_s(|| {
            black_box(CampaignConfig::new(campaign_spec(seed)));
        }),
        Workload::FleetAdmission => {
            let cfg = fleet_config(seed, FLEET_CLIENTS);
            construction_s(|| {
                black_box(FleetSim::new(cfg.clone()));
            })
        }
        Workload::PaperFigures => {
            let t = CpuInstant::now();
            paper_pass(&mut Tracer::new(false), 0);
            t.elapsed_s()
        }
    }
}

/// Runs [`setup_sample`] in a fresh process of this executable, which
/// answers `--child setup` with `setup_s=<seconds>`.
fn setup_in_fresh_process(w: Workload, seed: u64) -> f64 {
    let exe = std::env::current_exe().expect("own executable path");
    let out = std::process::Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--child", "setup"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("set-up process starts");
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .strip_prefix("setup_s=")
        .and_then(|v| v.parse().ok())
        .expect("set-up process reports seconds")
}

/// Batches timed per construction sample; their median is kept.
const SETUP_BATCHES: usize = 11;

/// Seconds per call of `build`: the median over [`SETUP_BATCHES`]
/// batches of about 1 ms of calls each (at least one call), after 2 ms of
/// untimed calls that also size the batches. One µs-scale construction
/// would be a single clock read, and the median leaves out a batch that a
/// stall of the host stretched (a 10 ms mean of 0.15 µs campaign
/// constructions once read 1.09 µs).
fn construction_s(mut build: impl FnMut()) -> f64 {
    let warm = CpuInstant::now();
    let mut calls = 0u64;
    while warm.elapsed_s() < 0.002 {
        build();
        calls += 1;
    }
    let batch = (calls / 2).max(1);
    let per_call: Vec<f64> = (0..SETUP_BATCHES)
        .map(|_| {
            let t = CpuInstant::now();
            for _ in 0..batch {
                build();
            }
            t.elapsed_s() / batch as f64
        })
        .collect();
    quantile(&per_call, 0.5)
}

/// The `q` quantile of `values`, interpolated linearly between ranks.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

// ---------------------------------------------------------------- co-sim

/// The `cosim_qos` input for `seed`.
fn cosim_config(seed: u64, horizon_us: f64) -> CoSimConfig {
    let mut cfg = CoSimConfig::small_qos();
    cfg.seed = seed;
    cfg.horizon = SimTime::from_us(horizon_us);
    cfg
}

/// Jobs that broke the drain invariant: every released job completes.
fn undrained_jobs(r: &CoSimReport) -> u64 {
    r.tasks
        .iter()
        .map(|t| t.released.abs_diff(t.completed))
        .sum()
}

/// NoC counts of the co-sims run on one mesh geometry.
#[derive(Debug, Default)]
struct MeshCounts {
    runs: u64,
    ticks: u64,
    packets: u64,
    cycles: u64,
}

/// Deterministic counts summed over co-simulation reports.
#[derive(Debug, Default)]
struct CosimCounts {
    runs: u64,
    events: u64,
    jobs: u64,
    ticks: u64,
    packets: u64,
    meshes: BTreeMap<(u32, u32), MeshCounts>,
    dram_services: u64,
    dram_row_hits: u64,
    dram_busy_ns: f64,
    finished_ns: f64,
    throttles: u64,
    resumes: u64,
    cache_hits: u64,
    cache_misses: u64,
    latency: Option<HistogramSketch>,
    hottest_link: f64,
}

impl CosimCounts {
    /// Adds the report of a co-sim run on `cfg`.
    fn add(&mut self, cfg: &CoSimConfig, r: &CoSimReport) {
        let m = &r.metrics;
        self.runs += 1;
        self.events += r.events_delivered;
        self.jobs += r.jobs_completed();
        let ticks = m.counter("engine.events.noc.tick");
        let packets = m.counter("noc.packets_delivered");
        self.ticks += ticks;
        self.packets += packets;
        let mesh = self.meshes.entry((cfg.noc.cols, cfg.noc.rows)).or_default();
        mesh.runs += 1;
        mesh.ticks += ticks;
        mesh.packets += packets;
        mesh.cycles += m.counter("noc.cycles");
        self.dram_services += r.dram_row_hits + r.dram_row_misses;
        self.dram_row_hits += r.dram_row_hits;
        self.dram_busy_ns += r.dram_busy.as_ns();
        self.finished_ns += r.finished_at.as_ns();
        self.throttles += m.counter("memguard.throttle_events");
        self.resumes += m.counter("engine.events.regulation.resume");
        if let Some(q) = &r.qos {
            self.cache_hits += q.cache_hits;
            self.cache_misses += q.cache_misses;
        }
        if let Some(h) = m.histogram("noc.packet_latency_cycles") {
            match &mut self.latency {
                Some(all) => all.merge(h),
                None => self.latency = Some(h.clone()),
            }
        }
        let hottest = m.gauge("noc.hottest_link_utilization").unwrap_or(0.0);
        self.hottest_link = self.hottest_link.max(hottest);
    }

    /// Memory requests: every request packet gets one response packet.
    fn requests(&self) -> u64 {
        self.packets / 2
    }

    fn per_run(&self, n: u64) -> u64 {
        n / self.runs.max(1)
    }

    /// Layer counts and ratios shared by both co-sim workloads.
    fn publish(&self, ops: u64, layers: &mut BTreeMap<&'static str, f64>) {
        let accesses = self.cache_hits + self.cache_misses;
        layers.insert("sim.events_per_op", ratio(self.events as f64, ops as f64));
        layers.insert(
            "noc.ticks_per_packet",
            ratio(self.ticks as f64, self.packets as f64),
        );
        layers.insert(
            "noc.packet_latency_p99_cycles",
            self.latency.as_ref().and_then(|h| h.p99()).unwrap_or(0.0),
        );
        layers.insert("noc.hottest_link_utilization", self.hottest_link);
        layers.insert("dram.services", self.per_run(self.dram_services) as f64);
        layers.insert(
            "dram.row_hit_ratio",
            ratio(self.dram_row_hits as f64, self.dram_services as f64),
        );
        layers.insert(
            "dram.busy_ratio",
            ratio(self.dram_busy_ns, self.finished_ns),
        );
        layers.insert("cache.accesses", self.per_run(accesses) as f64);
        layers.insert(
            "cache.hit_ratio",
            ratio(self.cache_hits as f64, accesses as f64),
        );
        layers.insert(
            "regulation.throttles_per_job",
            ratio(self.throttles as f64, self.jobs as f64),
        );
        layers.insert(
            "regulation.resume_share",
            ratio(self.resumes as f64, self.events as f64),
        );
    }
}

/// Closed-loop captures of a run, epoch by epoch, as the controller saw
/// them.
fn captures_of(r: &CoSimReport) -> Vec<Vec<MonitorCapture>> {
    r.qos.as_ref().map_or_else(Vec::new, |q| {
        q.epochs
            .iter()
            .map(|e| {
                e.parts
                    .iter()
                    .map(|p| MonitorCapture {
                        partid: p.partid,
                        bandwidth_bytes: p.reading,
                    })
                    .collect()
            })
            .collect()
    })
}

/// Standalone probes sized from `counts` (one op's co-sims) and the
/// attribution of the measured `CoSim::run` time they imply.
fn attribute(
    counts: &CosimCounts,
    run_ns: f64,
    loop_cfg: Option<(&ClosedLoopConfig, &[Vec<MonitorCapture>])>,
    seed: u64,
    layers: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
) {
    // Capped so that every probe stays in the tens of milliseconds.
    let cap = |n: u64| n.clamp(1, 1_000_000);
    let spacing = |n: u64| ratio(counts.finished_ns, n as f64);

    let engine_ns = probes::engine_ns_per_event(cap(counts.events));
    // One NoC probe per mesh geometry, injecting at that geometry's mean
    // packet gap; the reported cost is the tick-weighted mean.
    let noc_cost: f64 = counts
        .meshes
        .iter()
        .map(|(&(cols, rows), m)| {
            let cycles = (m.cycles / m.runs).max(1);
            let gap = ratio(m.cycles as f64, m.packets as f64).round().max(1.0) as u64;
            m.ticks as f64 * probes::noc_ns_per_tick(cols, rows, cycles.min(200_000), gap)
        })
        .sum();
    let noc_ns = ratio(noc_cost, counts.ticks as f64);
    let dram_ns = probes::dram_ns_per_service(
        cap(counts.dram_services),
        spacing(counts.dram_services),
        seed,
    );
    let tries = counts.requests() + counts.throttles;
    let budgets = CoSimConfig::small().budgets;
    let try_ns = probes::memguard_ns_per_try(cap(tries), spacing(tries), &budgets);
    let accesses = counts.cache_hits + counts.cache_misses;
    let (cache_ns, (transfer_ns, fill_ns)) = if accesses > 0 {
        (
            probes::cache_ns_per_access(cap(accesses), seed),
            probes::mpam_ns(cap(accesses)),
        )
    } else {
        (0.0, (0.0, 0.0))
    };
    let (epochs, epoch_us) = match loop_cfg {
        Some((cfg, captures)) => (
            captures.len() as u64 * counts.runs,
            probes::closed_loop_us_per_epoch(cfg, captures, 20_000),
        ),
        None => (0, 0.0),
    };

    layers.insert("sim.engine_chain_ns_per_event", engine_ns);
    layers.insert("noc.host_ns_per_tick", noc_ns);
    layers.insert("dram.host_ns_per_service", dram_ns);
    layers.insert("cache.host_ns_per_access", cache_ns);
    layers.insert("mpam.host_ns_per_transfer", transfer_ns);
    layers.insert("regulation.host_ns_per_try_access", try_ns);
    layers.insert("regulation.closed_loop.host_us_per_epoch", epoch_us);

    let rows: [(&str, u64, f64); 8] = [
        (
            "sim (non-tick events)",
            counts.events - counts.ticks,
            engine_ns,
        ),
        ("noc (ticks)", counts.ticks, noc_ns),
        ("dram (services)", counts.dram_services, dram_ns),
        ("cache (accesses)", accesses, cache_ns),
        ("mpam (transfers)", accesses, transfer_ns),
        ("mpam (fills)", counts.cache_misses, fill_ns),
        ("regulation (try_access)", tries, try_ns),
        ("regulation (loop epochs)", epochs, epoch_us * 1000.0),
    ];
    notes.push(format!(
        "standalone-cost attribution of CoSim::run ({:.1} ms measured):",
        run_ns / 1e6
    ));
    let mut attributed = 0.0;
    for (name, count, ns) in rows {
        let cost = count as f64 * ns;
        attributed += cost;
        notes.push(format!(
            "  {name:<26} {count:>12} x {ns:>9.2} ns = {:>10.2} ms ({:>5.1}%)",
            cost / 1e6,
            100.0 * ratio(cost, run_ns)
        ));
    }
    let glue = 1.0 - ratio(attributed, run_ns);
    notes.push(format!(
        "  glue (residual)            {:>5.1}%",
        100.0 * glue
    ));
    layers.insert("core.cosim.glue_share", glue);
}

fn cosim_qos(p: &Params, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut check = Check::new(p.expected);
    let mut first: Option<CoSimReport> = None;
    out.peak_rss_mb = repeat_for(p, tr, |op, tr| {
        sample_setup(p, Workload::CosimQos, op, &mut out.setup_s);
        let t = CpuInstant::now();
        tr.enter("op", op);
        let cfg = cosim_config(p.seed, COSIM_HORIZON_US);
        let sim = tr.span("CoSim::new", op, || CoSim::new(cfg));
        let report = tr.span("CoSim::run", op, || sim.run());
        let json = tr.span("MetricsRegistry::to_json", op, || report.metrics.to_json());
        tr.exit();
        let jobs = report.jobs_completed();
        let traced = tr.enabled();
        check.record(
            traced,
            fnv1a64(json.as_bytes()),
            jobs,
            undrained_jobs(&report),
        );
        out.push_rate(op, traced, jobs as f64 / t.elapsed_s());
        if traced && first.is_none() {
            first = Some(report);
        }
    });
    check.finish(&mut out);
    if let Some(report) = first {
        cosim_qos_layers(p, tr, &report, &mut out);
    }
    out
}

fn cosim_qos_layers(p: &Params, tr: &Tracer, report: &CoSimReport, out: &mut Outcome) {
    let mut counts = CosimCounts::default();
    counts.add(&cosim_config(p.seed, COSIM_HORIZON_US), report);
    let layers = &mut out.layers;
    counts.publish(counts.jobs, layers);
    let runs: Vec<f64> = tr
        .durations_ns("CoSim::run")
        .iter()
        .map(|&n| n as f64)
        .collect();
    let run_ns = quantile(&runs, 0.5);
    layers.insert("sim.host_ns_per_event", ratio(run_ns, counts.events as f64));
    layers.insert("sim.export_ms", tr.mean_ms("MetricsRegistry::to_json"));
    let m = &report.metrics;
    layers.insert(
        "regulation.closed_loop.epochs",
        m.counter("closed_loop.epochs") as f64,
    );
    layers.insert(
        "regulation.closed_loop.adjustments",
        m.counter("closed_loop.adjustments") as f64,
    );
    layers.insert(
        "regulation.closed_loop.safe_mode_epoch",
        report
            .qos
            .as_ref()
            .and_then(|q| q.safe_mode_epoch)
            .map_or(0.0, |e| e as f64),
    );
    let news = tr.durations_ns("CoSim::new");
    layers.insert(
        "core.cosim.new_us",
        quantile(
            &news.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>(),
            0.5,
        ),
    );
    layers.insert("core.cosim.run_s", run_ns / 1e9);
    layers.insert(
        "core.cosim.sim_us_per_s",
        ratio(report.finished_at.as_ns() / 1e3, run_ns / 1e9),
    );
    let cfg = cosim_config(p.seed, COSIM_HORIZON_US);
    let loop_cfg = &cfg.qos.as_ref().expect("small_qos has a loop").loop_cfg;
    let captures = captures_of(report);
    attribute(
        &counts,
        run_ns,
        Some((loop_cfg, &captures)),
        p.seed,
        &mut out.layers,
        &mut out.notes,
    );
}

// -------------------------------------------------------------- campaign

fn campaign_grid(p: &Params, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let cfg = CampaignConfig::new(campaign_spec(p.seed));
    let points = cfg.total_points();
    let mut check = Check::new(p.expected);
    let mut violations = 0;
    out.peak_rss_mb = repeat_for(p, tr, |op, tr| {
        sample_setup(p, Workload::CampaignGrid, op, &mut out.setup_s);
        let t = CpuInstant::now();
        let report = tr.span("autoplat_campaign::run", op, || {
            autoplat_campaign::run(&cfg)
        });
        let json = tr.span("MetricsRegistry::to_json", op, || report.metrics.to_json());
        violations = report.metrics.counter("campaign.conformance.violations");
        let traced = tr.enabled();
        check.record(traced, fnv1a64(json.as_bytes()), points, violations);
        out.push_rate(op, traced, points as f64 / t.elapsed_s());
    });
    check.finish(&mut out);
    if p.traced {
        campaign_layers(&cfg, tr, violations, &mut out);
    }
    out
}

/// The side pass, after the timed phase: every grid point through
/// `run_point` and then through its pieces one by one, the co-sim counts
/// behind them, and the shard round trip and reduce of the outcomes.
fn campaign_layers(cfg: &CampaignConfig, tr: &mut Tracer, violations: u64, out: &mut Outcome) {
    let points = cfg.total_points();
    let mut counts = CosimCounts::default();
    let mut outcomes = Vec::new();
    for i in 0..points {
        let point = cfg.spec.point(i);
        outcomes.push(tr.span("run_point", i, || run_point(&cfg.oracle, &point)));
        tr.enter("side_point", i);
        let loaded_cfg = tr.span("loaded_config", i, || point.platform.loaded_config());
        let solo_cfg = tr.span("solo_config", i, || point.platform.solo_config());
        for (phase, cosim_cfg) in [("loaded", loaded_cfg), ("solo", solo_cfg)] {
            tr.enter(phase, i);
            let sim = tr.span("CoSim::new", i, || CoSim::new(cosim_cfg.clone()));
            let report = tr.span("CoSim::run", i, || sim.run());
            tr.exit();
            counts.add(&cosim_cfg, &report);
        }
        tr.enter("conformance", i);
        let mut rng = SimRng::seed_from(point.seed);
        let scenario = tr.span("Scenario::generate", i, || {
            Scenario::generate(point.arbiter.family(), &mut rng)
        });
        let verdict = tr.span("Oracle::check_observed", i, || {
            cfg.oracle.check_observed(&scenario)
        });
        black_box(verdict.is_ok());
        tr.exit();
        tr.exit();
    }
    // The shards `autoplat_campaign::run` writes: `chunk_points` points
    // each, in grid order.
    tr.enter("shard_roundtrip", 0);
    let mut read_back = Vec::with_capacity(outcomes.len());
    for (chunk, outs) in outcomes
        .chunks(cfg.chunk_points.max(1) as usize)
        .enumerate()
    {
        let start = read_back.len() as u64;
        let record = ChunkRecord {
            chunk: chunk as u64,
            start,
            end: start + outs.len() as u64,
            hash: 0,
        };
        let shard = tr.span("shard_to_json", 0, || shard_to_json(&record, outs));
        let back = tr
            .span("validate_shard_json", 0, || {
                validate_shard_json(&shard, &record)
            })
            .expect("a shard written by shard_to_json validates");
        read_back.extend(back);
    }
    tr.exit();
    assert_eq!(read_back, outcomes, "shard round trip is exact");
    black_box(tr.span("reduce", 0, || reduce(read_back)));

    let layers = &mut out.layers;
    counts.publish(points, layers);
    let run_ns = tr.total_ns("CoSim::run") as f64;
    layers.insert("sim.host_ns_per_event", ratio(run_ns, counts.events as f64));
    layers.insert("sim.export_ms", tr.mean_ms("MetricsRegistry::to_json"));
    let news = tr.durations_ns("CoSim::new");
    layers.insert(
        "core.cosim.new_us",
        ratio(news.iter().sum::<u64>() as f64 / 1e3, news.len() as f64),
    );
    layers.insert("core.cosim.run_s", run_ns / 1e9);
    layers.insert(
        "core.cosim.sim_us_per_s",
        ratio(counts.finished_ns / 1e3, run_ns / 1e9),
    );
    layers.insert(
        "core.design_space.resolve_ms",
        ms(tr.total_ns("loaded_config") + tr.total_ns("solo_config")),
    );
    layers.insert(
        "conformance.check_ms",
        ms(tr.total_ns("Oracle::check_observed")),
    );
    layers.insert("conformance.violations", violations as f64);
    let point_ms: Vec<f64> = tr
        .durations_ns("run_point")
        .iter()
        .map(|&n| ms(n))
        .collect();
    layers.insert("campaign.point_p50_ms", quantile(&point_ms, 0.50));
    layers.insert("campaign.point_p95_ms", quantile(&point_ms, 0.95));
    layers.insert("campaign.point_max_ms", quantile(&point_ms, 1.0));
    let side = tr.total_ns("side_point") as f64;
    layers.insert(
        "campaign.loaded_share",
        ratio(tr.total_ns("loaded") as f64, side),
    );
    layers.insert(
        "campaign.solo_share",
        ratio(tr.total_ns("solo") as f64, side),
    );
    layers.insert(
        "campaign.conformance_share",
        ratio(tr.total_ns("conformance") as f64, side),
    );
    layers.insert("campaign.reduce_ms", tr.mean_ms("reduce"));
    layers.insert("campaign.shard_roundtrip_ms", tr.mean_ms("shard_roundtrip"));
    let seed = cfg.spec.seed;
    attribute(&counts, run_ns, None, seed, &mut out.layers, &mut out.notes);
}

// ----------------------------------------------------------------- fleet

/// The `fleet` bin's full-scale operating point (probabilistic
/// drop/delay/duplication faults and a 1% crash storm) at `clients`.
fn fleet_config(seed: u64, clients: u32) -> FleetConfig {
    FleetConfig {
        clients,
        clusters: (clients / 15_000).clamp(8, 64),
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
        fault_plan: FaultPlan::new()
            .drop_probability(0.01)
            .delay_probability(0.02)
            .max_delay_cycles(60)
            .duplicate_probability(0.005),
        crashes: clients / 100,
        crash_at: Some(20_000),
        horizon: 60_000,
        seed,
        topology: FleetTopology::Hierarchical,
        ..FleetConfig::default()
    }
}

/// The `fleet` bin's checks: every client in a terminal state, control
/// traffic carried as bundles, and the root ledger equal to the shards'
/// active demand. Returns whether all hold.
fn fleet_invariants_hold(cfg: &FleetConfig, o: &autoplat_admission::FleetOutcome) -> bool {
    let accounted = o.admitted.len() + o.refused.len() + o.gave_up.len() + o.crashed.len();
    accounted == cfg.clients as usize
        && o.bundles > 0
        && o.root_granted_milli == Some(o.active_guaranteed_milli)
}

/// Control-plane deliveries of a fleet run: client-plane envelopes plus
/// bundle frames. (Kernel kicks are one per cycle, whatever the fleet.)
fn fleet_deliveries(o: &autoplat_admission::FleetOutcome) -> u64 {
    o.control_messages + o.bundles
}

fn fleet_admission(p: &Params, tr: &mut Tracer) -> Outcome {
    let cfg = fleet_config(p.seed, FLEET_CLIENTS);
    let mut out = Outcome::default();
    let mut check = Check::new(p.expected);
    let mut first = None;
    out.peak_rss_mb = repeat_for(p, tr, |op, tr| {
        sample_setup(p, Workload::FleetAdmission, op, &mut out.setup_s);
        let t = CpuInstant::now();
        tr.enter("op", op);
        let sim = tr.span("FleetSim::new", op, || FleetSim::new(cfg.clone()));
        let outcome = tr.span("FleetSim::run", op, || sim.run());
        let mut registry = MetricsRegistry::new();
        tr.span("publish_metrics", op, || {
            outcome.publish_metrics(&mut registry)
        });
        let json = tr.span("MetricsRegistry::to_json", op, || registry.to_json());
        tr.exit();
        let admitted = outcome.admitted.len() as u64;
        let bad = if fleet_invariants_hold(&cfg, &outcome) {
            0
        } else {
            admitted
        };
        let traced = tr.enabled();
        check.record(traced, fnv1a64(json.as_bytes()), admitted, bad);
        out.push_rate(op, traced, admitted as f64 / t.elapsed_s());
        if traced && first.is_none() {
            first = Some(outcome);
        }
    });
    check.finish(&mut out);
    if let Some(o) = first {
        let admitted = o.admitted.len() as f64;
        let l = &mut out.layers;
        l.insert("sim.events_per_op", ratio(o.kicks as f64, admitted));
        l.insert(
            "sim.export_ms",
            tr.mean_ms("publish_metrics") + tr.mean_ms("MetricsRegistry::to_json"),
        );
        l.insert("admission.fleet.run_s", tr.mean_ms("FleetSim::run") / 1e3);
        l.insert(
            "admission.messages_per_admission",
            ratio(o.control_messages as f64, admitted),
        );
        l.insert(
            "admission.kicks_per_admission",
            ratio(o.kicks as f64, admitted),
        );
        l.insert(
            "admission.queue_depth_p99",
            o.queue_depth.quantile(0.99).unwrap_or(0.0),
        );
        l.insert(
            "admission.reconverge_cycles",
            o.reconverge_cycles.unwrap_or(0) as f64,
        );
        l.insert("admission.client_reclaims", o.client_reclaims as f64);
    }
    out
}

// ---------------------------------------------------------------- figures

/// Experiment spans grouped into the layer they exercise.
const PAPER_GROUPS: &[(&str, &[&str])] = &[
    ("dram.wcd_ms", &["table2", "ablation_controller"]),
    ("dram.controller_ms", &["fig5", "validation_wcd"]),
    (
        "core.platform.ms",
        &[
            "interference",
            "ablation_cache",
            "ablation_memguard",
            "ablation_cluster_l2",
        ],
    ),
    ("admission.modes_ms", &["fig6", "fig7"]),
    ("sched.ms", &["ablation_sched"]),
];

/// One pass over every experiment function with the arguments its
/// table/figure/ablation binary passes. Returns the digest of the rows.
fn paper_pass(tr: &mut Tracer, op: u64) -> u64 {
    let mut text = String::new();
    let mut keep = |debug: String| {
        text.push_str(&debug);
        text.push('\n');
    };
    let r = tr.span("table1", op, exp::table1);
    keep(format!("{r:?}"));
    let r = tr.span("table2", op, exp::table2);
    keep(format!("{r:?}"));
    let r = tr.span("fig2", op, exp::fig2);
    keep(format!("{r:?}"));
    let r = tr.span("fig3", op, exp::fig3);
    keep(format!("{r:?}"));
    let r = tr.span("fig5", op, || {
        exp::fig5_with_metrics(&mut MetricsRegistry::new())
    });
    keep(format!("{r:?}"));
    let r = tr.span("fig6", op, exp::fig6);
    keep(format!("{r:?}"));
    let r = tr.span("fig7", op, || exp::fig7(8));
    keep(format!("{r:?}"));
    let r = tr.span("interference", op, exp::interference);
    keep(format!("{r:?}"));
    let r = tr.span("ablation_cache", op, exp::ablation_cache);
    keep(format!("{r:?}"));
    let r = tr.span("ablation_memguard", op, exp::ablation_memguard);
    keep(format!("{r:?}"));
    let r = tr.span("validation_wcd", op, || {
        exp::validation_wcd_with_metrics(24, 4.0, &mut MetricsRegistry::new())
    });
    keep(format!("{r:?}"));
    let r = tr.span("ablation_controller", op, exp::ablation_controller);
    keep(format!("{r:?}"));
    let r = tr.span("ablation_priority", op, exp::ablation_priority);
    keep(format!("{r:?}"));
    let r = tr.span("ablation_cluster_l2", op, exp::ablation_cluster_l2);
    keep(format!("{r:?}"));
    for util in [0.5, 0.6, 0.7] {
        let r = tr.span("ablation_sched", op, || exp::ablation_sched(50, util));
        keep(format!("{r:?}"));
    }
    fnv1a64(text.as_bytes())
}

fn paper_figures(p: &Params, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut check = Check::new(p.expected);
    out.peak_rss_mb = repeat_for(p, tr, |op, tr| {
        sample_setup(p, Workload::PaperFigures, op, &mut out.setup_s);
        let t = CpuInstant::now();
        tr.enter("pass", op);
        let digest = paper_pass(tr, op);
        tr.exit();
        let traced = tr.enabled();
        check.record(traced, digest, 1, 0);
        out.push_rate(op, traced, 1.0 / t.elapsed_s());
    });
    check.finish(&mut out);
    if p.traced {
        let passes = tr.count("pass") as f64;
        for (metric, spans) in PAPER_GROUPS {
            let ns: u64 = spans.iter().map(|s| tr.total_ns(s)).sum();
            out.layers.insert(metric, ms(ns) / passes);
        }
    }
    out
}

// ------------------------------------------------------ bounded-size guard

/// Work per op at a given workload size, for the guard that size must
/// not change per-op work: kernel events per job (`cosim_qos`, size =
/// horizon in µs) and per grid point (`campaign_grid`, size = leading
/// points of the grid), and control-plane deliveries per admission
/// (`fleet_admission`, size = clients; its kernel kicks are one per
/// cycle, so per admission they fall as the fleet grows). `None` for
/// `paper_figures`: its inputs are the paper's, with no size to double,
/// and its experiments expose no kernel counts.
pub fn events_per_op(w: Workload, seed: u64, size: u64) -> Option<f64> {
    match w {
        Workload::CosimQos => {
            let r = CoSim::new(cosim_config(seed, size as f64)).run();
            Some(ratio(r.events_delivered as f64, r.jobs_completed() as f64))
        }
        Workload::CampaignGrid => {
            let spec = campaign_spec(seed);
            let mut counts = CosimCounts::default();
            for i in 0..size {
                let point = spec.point(i);
                for cfg in [point.platform.loaded_config(), point.platform.solo_config()] {
                    let report = CoSim::new(cfg.clone()).run();
                    counts.add(&cfg, &report);
                }
            }
            Some(ratio(counts.events as f64, size as f64))
        }
        Workload::FleetAdmission => {
            let o = FleetSim::new(fleet_config(seed, size as u32)).run();
            Some(ratio(fleet_deliveries(&o) as f64, o.admitted.len() as f64))
        }
        Workload::PaperFigures => None,
    }
}

/// Kernel events per job of `CoSimConfig::small` run open-loop to
/// `horizon_us`: the workload whose throttled core re-arms a `Resume`
/// per job, so its backlog (and events per job) grows with horizon.
pub fn small_open_loop_events_per_job(horizon_us: f64) -> f64 {
    let mut cfg = CoSimConfig::small();
    cfg.horizon = SimTime::from_us(horizon_us);
    let r = CoSim::new(cfg).run();
    ratio(r.events_delivered as f64, r.jobs_completed() as f64)
}

//! Cycle-approximate FR-FCFS DRAM controller simulator (Fig. 4 / Fig. 5).
//!
//! The simulator reproduces the controller behaviour the WCD analysis
//! abstracts:
//!
//! * separate **read and write queues** per Fig. 4;
//! * **first-ready** scheduling: row hits are promoted to the front of the
//!   read queue, limited to [`ControllerConfig::n_cap`] consecutive
//!   promotions to avoid starving misses;
//! * **watermark write batching** per Fig. 5: switch to write mode when
//!   the write queue reaches `W_high` (or `W_low` with an empty read
//!   queue); switch back after `N_wd` writes when reads wait (or when the
//!   write queue drains below `max(W_low − N_wd, 0)`);
//! * periodic **refresh** every `tREFI`, costing `tRFC`, issued after the
//!   in-flight request completes and closing all rows;
//! * per-bank row-buffer state with the `tRC` activate-to-activate
//!   constraint.
//!
//! Timing is approximated at request granularity (a hit occupies the data
//! bus for `tBurst`; a miss pays the precharge→activate→CAS pipeline and
//! holds its bank for `tRC`), which matches the granularity of the
//! analytic model in [`crate::wcd`].

use std::collections::{BTreeMap, VecDeque};

use autoplat_sim::engine::{Engine, EventSink, Process};
use autoplat_sim::metrics::{MetricsRegistry, Span};
use autoplat_sim::{SimDuration, SimTime, Summary, Trace};

use crate::request::MasterId;

use crate::config::ControllerConfig;
use crate::request::{Completion, Request, RequestKind};
use crate::timing::DramTiming;

/// Serving direction of the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Read,
    Write,
}

/// Events driving the controller on the shared kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramEvent {
    /// Re-evaluate the controller state machine at the fire time.
    Kick,
}

#[derive(Debug, Clone)]
struct Bank {
    open_row: Option<u64>,
    /// Earliest time the next activate to this bank may start (tRC rule).
    ready_at: SimTime,
}

/// Aggregate outcome of one controller simulation.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Every served request with its completion time.
    pub completions: Vec<Completion>,
    /// Read latency statistics (ns).
    pub read_latency: Summary,
    /// Write latency statistics (ns).
    pub write_latency: Summary,
    /// Per-master read latency statistics (ns).
    pub read_latency_by_master: BTreeMap<MasterId, Summary>,
    /// Number of requests served as row hits.
    pub row_hits: u64,
    /// Number of requests served as row misses.
    pub row_misses: u64,
    /// Refresh operations performed.
    pub refreshes: u64,
    /// Read↔write mode switches.
    pub mode_switches: u64,
    /// Time the last request completed.
    pub finished_at: SimTime,
    /// Behavioural trace (mode switches, refreshes) when enabled.
    pub trace: Trace,
}

impl SimOutcome {
    /// Row-hit rate over all served requests.
    pub fn hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// The worst observed read latency in nanoseconds, if any read was
    /// served.
    pub fn max_read_latency_ns(&self) -> Option<f64> {
        self.read_latency.max()
    }
}

/// The FR-FCFS controller simulator.
///
/// # Examples
///
/// ```
/// use autoplat_dram::{FrFcfsController, ControllerConfig, Request, RequestKind};
/// use autoplat_dram::request::MasterId;
/// use autoplat_dram::timing::presets::ddr3_1600;
/// use autoplat_sim::SimTime;
///
/// let ctrl = FrFcfsController::new(ddr3_1600(), ControllerConfig::paper(), 8);
/// let reqs = vec![
///     Request::new(0, MasterId(0), RequestKind::Read, 0, 1, SimTime::ZERO),
///     Request::new(1, MasterId(0), RequestKind::Read, 0, 1, SimTime::ZERO),
/// ];
/// let out = ctrl.simulate(reqs, false);
/// assert_eq!(out.completions.len(), 2);
/// assert_eq!(out.row_hits, 1); // second access hits the open row
/// ```
#[derive(Debug, Clone)]
pub struct FrFcfsController {
    timing: DramTiming,
    config: ControllerConfig,
    banks: u32,
}

impl FrFcfsController {
    /// Creates a controller model.
    ///
    /// # Panics
    ///
    /// Panics if the timing or configuration fails validation or `banks`
    /// is zero.
    pub fn new(timing: DramTiming, config: ControllerConfig, banks: u32) -> Self {
        timing.validate().expect("invalid DRAM timing");
        config.validate().expect("invalid controller config");
        assert!(banks > 0, "need at least one bank");
        FrFcfsController {
            timing,
            config,
            banks,
        }
    }

    /// The device timing in use.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    /// The controller configuration in use.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Number of banks modelled.
    pub fn banks(&self) -> u32 {
        self.banks
    }

    /// Runs the workload to completion and reports statistics.
    ///
    /// Requests are admitted to their queue in arrival order; when a queue
    /// is full the arrival stalls (back-pressure) until space frees up.
    ///
    /// # Panics
    ///
    /// Panics if any request addresses a bank `>= self.banks()`.
    pub fn simulate<I>(&self, workload: I, trace_enabled: bool) -> SimOutcome
    where
        I: IntoIterator<Item = Request>,
    {
        self.run(workload, trace_enabled, None)
    }

    /// Like [`simulate`](FrFcfsController::simulate) but also publishes
    /// observability data into `metrics` under the `dram.*` namespace:
    ///
    /// * counters — `dram.requests_served`, `dram.row_hits`,
    ///   `dram.row_misses`, `dram.refreshes`, `dram.mode_switches`;
    /// * histograms — `dram.read_latency_ns`, `dram.write_latency_ns`,
    ///   `dram.read_queue_depth`, `dram.write_queue_depth` (sampled at
    ///   every serve), `dram.refresh_stall_ns` (span over each refresh);
    /// * gauges — `dram.hit_rate`, `dram.finished_at_ns`.
    pub fn simulate_with_metrics<I>(
        &self,
        workload: I,
        trace_enabled: bool,
        metrics: &mut MetricsRegistry,
    ) -> SimOutcome
    where
        I: IntoIterator<Item = Request>,
    {
        self.run(workload, trace_enabled, Some(metrics))
    }

    fn run<I>(
        &self,
        workload: I,
        trace_enabled: bool,
        metrics: Option<&mut MetricsRegistry>,
    ) -> SimOutcome
    where
        I: IntoIterator<Item = Request>,
    {
        let pending: VecDeque<Request> = {
            let mut v: Vec<Request> = workload.into_iter().collect();
            for r in &v {
                assert!(
                    r.bank < self.banks,
                    "request {} targets bad bank {}",
                    r.id,
                    r.bank
                );
            }
            v.sort_by_key(|r| (r.arrival, r.id));
            v.into()
        };
        let trace = if trace_enabled {
            Trace::enabled()
        } else {
            Trace::new()
        };

        let mut state = Run {
            timing: &self.timing,
            cfg: &self.config,
            trace,
            metrics,
            pending,
            mode: Mode::Read,
            banks: (0..self.banks)
                .map(|_| Bank {
                    open_row: None,
                    ready_at: SimTime::ZERO,
                })
                .collect(),
            read_q: VecDeque::new(),
            write_q: VecDeque::new(),
            promoted_hits: 0,
            batch_served: 0,
            next_refresh: SimTime::ZERO + SimDuration::from_ns(self.timing.t_refi),
            completions: Vec::new(),
            read_latency: Summary::new(),
            write_latency: Summary::new(),
            read_latency_by_master: BTreeMap::new(),
            row_hits: 0,
            row_misses: 0,
            refreshes: 0,
            mode_switches: 0,
            finished_at: SimTime::ZERO,
        };

        // Drive the state machine on the shared kernel: every `Kick`
        // executes one decision (admit / refresh / mode switch / serve) and
        // re-arms itself at the instant the controller next makes progress.
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::ZERO, DramEvent::Kick);
        engine.run(&mut state);

        let Run {
            trace,
            metrics,
            completions,
            read_latency,
            write_latency,
            read_latency_by_master,
            row_hits,
            row_misses,
            refreshes,
            mode_switches,
            finished_at,
            ..
        } = state;

        let outcome = SimOutcome {
            completions,
            read_latency,
            write_latency,
            read_latency_by_master,
            row_hits,
            row_misses,
            refreshes,
            mode_switches,
            finished_at,
            trace,
        };
        if let Some(m) = metrics {
            m.counter_add("dram.requests_served", outcome.completions.len() as u64);
            m.counter_add("dram.row_hits", row_hits);
            m.counter_add("dram.row_misses", row_misses);
            m.counter_add("dram.refreshes", refreshes);
            m.counter_add("dram.mode_switches", mode_switches);
            m.gauge_set("dram.hit_rate", outcome.hit_rate());
            m.gauge_set("dram.finished_at_ns", outcome.finished_at.as_ns());
        }
        outcome
    }
}

/// One in-flight controller simulation as a kernel [`Process`].
///
/// Each delivered [`DramEvent::Kick`] runs one decision of the FR-FCFS
/// state machine at the fire time. Every path that advances time in the
/// classic formulation (refresh, mode-switch penalty, serve, idle wait)
/// instead schedules the follow-up `Kick` at that instant and returns, so
/// exactly one event is ever pending and the run drains when the workload
/// completes.
struct Run<'a> {
    timing: &'a DramTiming,
    cfg: &'a ControllerConfig,
    trace: Trace,
    metrics: Option<&'a mut MetricsRegistry>,
    pending: VecDeque<Request>,
    mode: Mode,
    banks: Vec<Bank>,
    read_q: VecDeque<Request>,
    write_q: VecDeque<Request>,
    promoted_hits: u32,
    batch_served: u32,
    next_refresh: SimTime,
    completions: Vec<Completion>,
    read_latency: Summary,
    write_latency: Summary,
    read_latency_by_master: BTreeMap<MasterId, Summary>,
    row_hits: u64,
    row_misses: u64,
    refreshes: u64,
    mode_switches: u64,
    finished_at: SimTime,
}

impl Process for Run<'_> {
    type Event = DramEvent;

    fn handle(&mut self, _event: DramEvent, sink: &mut dyn EventSink<DramEvent>) {
        let mut now = sink.now();
        self.finished_at = now;
        let t = self.timing;
        let cfg = self.cfg;

        // Admit arrivals up to `now`, respecting queue capacities.
        while let Some(front) = self.pending.front() {
            if front.arrival > now {
                break;
            }
            let (queue, cap) = match front.kind {
                RequestKind::Read => (&mut self.read_q, cfg.read_queue_capacity),
                RequestKind::Write => (&mut self.write_q, cfg.write_queue_capacity),
            };
            if queue.len() >= cap {
                break; // back-pressure: retry after progress
            }
            queue.push_back(self.pending.pop_front().expect("front exists"));
        }

        if self.read_q.is_empty() && self.write_q.is_empty() {
            let Some(next) = self.pending.front() else {
                return; // workload complete: let the engine drain
            };
            let next_arrival = next.arrival;
            // Idle: jump to the next arrival (serving refreshes that fall
            // inside the idle gap).
            while self.next_refresh <= next_arrival {
                let span = Span::begin("dram.refresh_stall_ns", self.next_refresh.max(now));
                now = self.next_refresh.max(now) + SimDuration::from_ns(t.t_rfc);
                for b in &mut self.banks {
                    b.open_row = None;
                }
                self.refreshes += 1;
                self.trace.record(now, "dram", "refresh", None);
                if let Some(m) = self.metrics.as_deref_mut() {
                    span.end(m, now);
                }
                self.next_refresh += SimDuration::from_ns(t.t_refi);
            }
            sink.schedule_at(now.max(next_arrival), DramEvent::Kick);
            return;
        }

        // Refresh: highest priority once the timer has expired.
        if now >= self.next_refresh {
            let span = Span::begin("dram.refresh_stall_ns", now);
            now += SimDuration::from_ns(t.t_rfc);
            for b in &mut self.banks {
                b.open_row = None;
            }
            self.refreshes += 1;
            self.trace.record(now, "dram", "refresh", None);
            if let Some(m) = self.metrics.as_deref_mut() {
                span.end(m, now);
            }
            self.next_refresh += SimDuration::from_ns(t.t_refi);
            sink.schedule_at(now, DramEvent::Kick);
            return;
        }

        // Watermark policy (Fig. 5).
        match self.mode {
            Mode::Read => {
                let go_write = self.write_q.len() >= cfg.w_high as usize
                    || (self.read_q.is_empty() && self.write_q.len() >= cfg.w_low as usize);
                if go_write && !self.write_q.is_empty() {
                    self.mode = Mode::Write;
                    self.mode_switches += 1;
                    self.batch_served = 0;
                    now += SimDuration::from_ns(t.t_rtw);
                    self.trace.record(
                        now,
                        "dram",
                        "switch-to-write",
                        Some(self.write_q.len() as i64),
                    );
                    sink.schedule_at(now, DramEvent::Kick);
                    return;
                }
            }
            Mode::Write => {
                let drained = self.write_q.len() <= cfg.w_low.saturating_sub(cfg.n_wd) as usize;
                let go_read = self.write_q.is_empty()
                    || (!self.read_q.is_empty() && self.batch_served >= cfg.n_wd)
                    || (self.read_q.is_empty() && drained && !self.read_q.is_empty());
                if go_read {
                    self.mode = Mode::Read;
                    self.mode_switches += 1;
                    self.promoted_hits = 0;
                    now += SimDuration::from_ns(t.t_wr + t.t_wtr + t.t_cl);
                    self.trace.record(
                        now,
                        "dram",
                        "switch-to-read",
                        Some(self.write_q.len() as i64),
                    );
                    sink.schedule_at(now, DramEvent::Kick);
                    return;
                }
            }
        }

        // Serve one request in the current mode.
        let (req, was_hit) = match self.mode {
            Mode::Read => {
                if self.read_q.is_empty() {
                    // Nothing to read and the watermark keeps us out of
                    // write mode: wait for the next arrival or refresh.
                    let wake = self
                        .pending
                        .front()
                        .map(|r| r.arrival)
                        .unwrap_or(SimTime::MAX)
                        .min(self.next_refresh);
                    // If only writes remain below the watermark, drain
                    // them rather than deadlock.
                    if self.pending.is_empty() && !self.write_q.is_empty() {
                        self.mode = Mode::Write;
                        self.mode_switches += 1;
                        self.batch_served = 0;
                        now += SimDuration::from_ns(t.t_rtw);
                        self.trace.record(
                            now,
                            "dram",
                            "switch-to-write",
                            Some(self.write_q.len() as i64),
                        );
                        sink.schedule_at(now, DramEvent::Kick);
                        return;
                    }
                    sink.schedule_at(wake, DramEvent::Kick);
                    return;
                }
                // First-ready: prefer the oldest row hit while under the
                // promotion cap.
                let hit_idx = self
                    .read_q
                    .iter()
                    .position(|r| self.banks[r.bank as usize].open_row == Some(r.row));
                let idx = match hit_idx {
                    Some(i) if self.promoted_hits < cfg.n_cap || i == 0 => i,
                    _ => 0,
                };
                let req = self.read_q.remove(idx).expect("index in range");
                let is_promotion = idx > 0;
                let was_hit = self.banks[req.bank as usize].open_row == Some(req.row);
                if is_promotion && was_hit {
                    self.promoted_hits += 1;
                } else if !was_hit {
                    self.promoted_hits = 0;
                }
                (req, was_hit)
            }
            Mode::Write => {
                let req = self.write_q.pop_front().expect("write mode implies writes");
                let was_hit = self.banks[req.bank as usize].open_row == Some(req.row);
                self.batch_served += 1;
                (req, was_hit)
            }
        };

        let bank = &mut self.banks[req.bank as usize];
        let finished = if was_hit {
            self.row_hits += 1;
            now + SimDuration::from_ns(t.t_burst)
        } else {
            self.row_misses += 1;
            // Activate cannot start before the bank's tRC window
            // elapses; the precharge+activate+CAS pipeline follows.
            let begin = now.max(bank.ready_at);
            let cas = match req.kind {
                RequestKind::Read => t.t_cl,
                RequestKind::Write => t.t_cl, // CWL approximated by CL
            };
            let done = begin + SimDuration::from_ns(t.t_rp + t.t_rcd + cas + t.t_burst);
            // The activate issues at `begin + tRP`; the next activate to
            // this bank must trail it by tRC, so the next miss's precharge
            // may start at `begin + tRP + tRAS` (= `begin + tRC`).
            // Back-to-back same-bank misses are therefore spaced by
            // `max(tRC, pipeline)`, which is what
            // [`DramTiming::read_miss_cost`] models.
            bank.ready_at = begin + SimDuration::from_ns(t.t_rp + t.t_ras);
            bank.open_row = Some(req.row);
            done
        };
        if let Some(m) = self.metrics.as_deref_mut() {
            // Depth *after* dequeuing: what the next arrival sees.
            m.observe("dram.read_queue_depth", self.read_q.len() as f64);
            m.observe("dram.write_queue_depth", self.write_q.len() as f64);
        }
        match req.kind {
            RequestKind::Read => {
                let lat = finished.saturating_since(req.arrival).as_ns();
                self.read_latency.record(lat);
                self.read_latency_by_master
                    .entry(req.master)
                    .or_default()
                    .record(lat);
                if let Some(m) = self.metrics.as_deref_mut() {
                    m.observe("dram.read_latency_ns", lat);
                }
            }
            RequestKind::Write => {
                let lat = finished.saturating_since(req.arrival).as_ns();
                self.write_latency.record(lat);
                if let Some(m) = self.metrics.as_deref_mut() {
                    m.observe("dram.write_latency_ns", lat);
                }
            }
        }
        self.completions.push(Completion {
            request: req,
            finished,
            row_hit: was_hit,
        });
        sink.schedule_at(finished, DramEvent::Kick);
    }
}

/// The controller instance whose worst case the WCD analysis of §IV-A
/// describes: the analysis batches writes whenever `N_wd` of them are
/// available (it has no `W_high` input), so the watermark is lowered to
/// `N_wd`, and writes are modelled at row-hit cost (`N_wd × tBurst` per
/// batch), so the write stream lives on its own bank (bank 1) where its
/// row stays open between batches.
///
/// Use this together with [`adversarial_wcd_workload`] when comparing
/// the simulator against [`crate::wcd::bounds`].
pub fn validation_controller(params: &crate::wcd::WcdParams) -> FrFcfsController {
    let cfg = params.config.with_watermarks(
        params.config.w_low.min(params.config.n_wd),
        params.config.n_wd,
    );
    FrFcfsController::new(params.timing.clone(), cfg, 2)
}

/// The adversarial workload the WCD analysis of §IV-A reasons about,
/// materialized as a request stream for [`FrFcfsController::simulate`]:
/// `N` distinct-row read misses on bank 0 at `t = 0` (the probe is the
/// `N`-th, id `N - 1`), `N_cap` hot-row hits arriving just after, and
/// writes at the token-bucket envelope until `horizon_ns`.
///
/// Both the bench validation sweep and the conformance harness drive the
/// simulator with this stream and compare the probe's completion against
/// [`crate::wcd::bounds`] — run it on [`validation_controller`], which
/// realizes the analysis's batching and row-hit write assumptions.
/// Writes target bank 1 (the analysis charges batches at row-hit cost,
/// which a write stream sharing the read bank would not satisfy) and are
/// emitted at the steady rate `1/r` starting at `t = 0`, which conforms
/// to the `(b, r)` bucket whenever `b >= 1`; the emission count is
/// capped so near-saturation parameters cannot produce unbounded
/// streams.
pub fn adversarial_wcd_workload(params: &crate::wcd::WcdParams, horizon_ns: f64) -> Vec<Request> {
    let n = params.queue_position as u64;
    let mut reqs = Vec::new();
    let mut id = 0u64;
    for i in 0..n {
        reqs.push(Request::new(
            id,
            MasterId(0),
            RequestKind::Read,
            0,
            1000 + i,
            SimTime::ZERO,
        ));
        id += 1;
    }
    for _ in 0..params.config.n_cap {
        reqs.push(Request::new(
            id,
            MasterId(0),
            RequestKind::Read,
            0,
            1000, // hot row opened by the first miss
            SimTime::from_ns(0.05),
        ));
        id += 1;
    }
    let burst = params.writes.burst();
    let rate = params.writes.rate();
    // Greedy emission along the arrival envelope: write k arrives as soon
    // as the bucket admits k+1 writes, i.e. at ((k+1) - b) / r (clamped to
    // 0 — the first floor(b) writes land at t = 0). Cumulative arrivals at
    // any t then equal floor(b + r*t), the tightest conformant stream.
    let count = ((burst + rate * horizon_ns).floor() as u64 + 64).min(200_000);
    for k in 0..count {
        let at = if (k + 1) as f64 <= burst {
            SimTime::ZERO
        } else if rate > 0.0 {
            SimTime::from_ns(((k + 1) as f64 - burst) / rate)
        } else {
            break; // empty bucket: no further writes are ever admitted
        };
        reqs.push(Request::new(id, MasterId(1), RequestKind::Write, 1, 77, at));
        id += 1;
    }
    reqs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::MasterId;
    use crate::timing::presets::ddr3_1600;

    fn read(id: u64, bank: u32, row: u64, at_ns: f64) -> Request {
        Request::new(
            id,
            MasterId(0),
            RequestKind::Read,
            bank,
            row,
            SimTime::from_ns(at_ns),
        )
    }

    fn write(id: u64, bank: u32, row: u64, at_ns: f64) -> Request {
        Request::new(
            id,
            MasterId(1),
            RequestKind::Write,
            bank,
            row,
            SimTime::from_ns(at_ns),
        )
    }

    fn ctrl() -> FrFcfsController {
        FrFcfsController::new(ddr3_1600(), ControllerConfig::paper(), 8)
    }

    #[test]
    fn single_read_miss_latency_is_pipeline() {
        let out = ctrl().simulate([read(0, 0, 5, 0.0)], false);
        let t = ddr3_1600();
        let expect = t.t_rp + t.t_rcd + t.t_cl + t.t_burst;
        assert_eq!(out.completions.len(), 1);
        assert!((out.read_latency.max().expect("one read") - expect).abs() < 1e-9);
        assert_eq!(out.row_misses, 1);
    }

    #[test]
    fn same_row_reads_hit_after_first() {
        let reqs: Vec<_> = (0..10).map(|i| read(i, 0, 7, 0.0)).collect();
        let out = ctrl().simulate(reqs, false);
        assert_eq!(out.row_misses, 1);
        assert_eq!(out.row_hits, 9);
    }

    #[test]
    fn alternating_rows_same_bank_all_miss_at_trc_rate() {
        // Distinct rows so first-ready promotion finds no hits.
        let reqs: Vec<_> = (0..10).map(|i| read(i, 0, i, 0.0)).collect();
        let out = ctrl().simulate(reqs, false);
        assert_eq!(out.row_hits, 0);
        // Steady-state spacing is tRC per miss.
        let t = ddr3_1600();
        let total = out.finished_at.as_ns();
        assert!(
            total >= 9.0 * t.t_rc(),
            "10 same-bank misses must be tRC-limited: {total}"
        );
    }

    #[test]
    fn hit_promotion_respects_cap() {
        // One old miss behind a stream of hits to an open row: at most
        // N_cap hits may jump ahead of the miss.
        let cfg = ControllerConfig::paper().with_n_cap(4);
        let ctrl = FrFcfsController::new(ddr3_1600(), cfg, 8);
        let mut reqs = vec![read(0, 0, 1, 0.0)]; // opens row 1
        reqs.push(read(1, 0, 2, 0.1)); // miss, FCFS-next
        for i in 0..20 {
            reqs.push(read(2 + i, 0, 1, 0.2)); // hits to the open row
        }
        let out = ctrl.simulate(reqs, false);
        // The miss (id 1) must complete before the 5th hit in queue order
        // would, i.e. only 4 of the row-1 hits finish before it.
        let miss_finish = out
            .completions
            .iter()
            .find(|c| c.request.id == 1)
            .expect("served")
            .finished;
        let hits_before = out
            .completions
            .iter()
            .filter(|c| c.request.id >= 2 && c.finished < miss_finish)
            .count();
        assert_eq!(hits_before, 4, "exactly N_cap hits may be promoted");
    }

    #[test]
    fn writes_deferred_until_watermark() {
        // Writes below W_low with reads flowing: writes wait.
        let mut reqs = Vec::new();
        for i in 0..5 {
            reqs.push(write(100 + i, 0, 50, 0.0));
        }
        for i in 0..20 {
            reqs.push(read(i, 0, 1, i as f64 * 10.0));
        }
        let out = ctrl().simulate(reqs, true);
        // All reads complete before any write (watermark never reached
        // until the read stream dries up).
        let last_read = out
            .completions
            .iter()
            .filter(|c| c.request.is_read())
            .map(|c| c.finished)
            .max()
            .expect("reads served");
        let first_write = out
            .completions
            .iter()
            .filter(|c| !c.request.is_read())
            .map(|c| c.finished)
            .min()
            .expect("writes served");
        assert!(last_read < first_write, "writes must be deferred");
    }

    #[test]
    fn high_watermark_triggers_write_mode() {
        let cfg = ControllerConfig::paper().with_watermarks(4, 8);
        let ctrl = FrFcfsController::new(ddr3_1600(), cfg, 8);
        let mut reqs = Vec::new();
        for i in 0..16 {
            reqs.push(write(100 + i, 0, 50, 0.0));
        }
        // A steady read stream so the read queue is never empty.
        for i in 0..50 {
            reqs.push(read(i, 0, 1, i as f64 * 6.0));
        }
        let out = ctrl.simulate(reqs, true);
        assert!(out.trace.count_tag("switch-to-write") >= 1);
        assert!(out.trace.count_tag("switch-to-read") >= 1);
        // Some writes complete before the last read: the batch interleaved.
        let last_read = out
            .completions
            .iter()
            .filter(|c| c.request.is_read())
            .map(|c| c.finished)
            .max()
            .expect("reads");
        let writes_before = out
            .completions
            .iter()
            .filter(|c| !c.request.is_read() && c.finished < last_read)
            .count();
        assert!(
            writes_before >= cfg.n_wd as usize,
            "a full batch must interleave"
        );
    }

    #[test]
    fn refresh_happens_periodically() {
        // Run well past several tREFI.
        let reqs: Vec<_> = (0..500).map(|i| read(i, 0, i, i as f64 * 60.0)).collect();
        let out = ctrl().simulate(reqs, false);
        let expected = (out.finished_at.as_ns() / ddr3_1600().t_refi) as u64;
        assert!(
            out.refreshes >= expected.saturating_sub(1) && out.refreshes <= expected + 1,
            "refreshes {} vs expected ~{expected}",
            out.refreshes
        );
    }

    #[test]
    fn refresh_closes_rows() {
        // A hit stream straddling a refresh: the access right after the
        // refresh misses again.
        let t = ddr3_1600();
        let reqs = vec![read(0, 0, 1, 0.0), read(1, 0, 1, t.t_refi + 300.0)];
        let out = ctrl().simulate(reqs, false);
        assert_eq!(out.row_misses, 2, "row must be closed by the refresh");
    }

    #[test]
    fn banks_are_independent_for_row_state() {
        let reqs = vec![read(0, 0, 1, 0.0), read(1, 1, 1, 0.0), read(2, 0, 1, 0.0)];
        let out = ctrl().simulate(reqs, false);
        assert_eq!(out.row_misses, 2); // one per bank
        assert_eq!(out.row_hits, 1);
    }

    #[test]
    fn metrics_registry_mirrors_outcome() {
        let mut m = MetricsRegistry::new();
        let reqs: Vec<_> = (0..200)
            .map(|i| read(i, 0, i % 3, i as f64 * 8.0))
            .collect();
        let out = ctrl().simulate_with_metrics(reqs, false, &mut m);
        assert_eq!(m.counter("dram.requests_served"), 200);
        assert_eq!(m.counter("dram.row_hits"), out.row_hits);
        assert_eq!(m.counter("dram.row_misses"), out.row_misses);
        assert_eq!(m.counter("dram.refreshes"), out.refreshes);
        assert_eq!(m.counter("dram.mode_switches"), out.mode_switches);
        assert_eq!(m.gauge("dram.hit_rate"), Some(out.hit_rate()));
        assert_eq!(
            m.gauge("dram.finished_at_ns"),
            Some(out.finished_at.as_ns())
        );
        let lat = m.histogram("dram.read_latency_ns").expect("reads observed");
        assert_eq!(lat.count(), 200);
        assert_eq!(lat.max(), out.max_read_latency_ns());
        assert_eq!(
            m.histogram("dram.read_queue_depth")
                .expect("sampled")
                .count(),
            200,
            "queue depth is sampled at every serve"
        );
        if out.refreshes > 0 {
            let stall = m.histogram("dram.refresh_stall_ns").expect("spans ended");
            assert_eq!(stall.count(), out.refreshes);
            let t = ddr3_1600();
            assert!((stall.mean() - t.t_rfc).abs() < 1e-9, "each stall is tRFC");
        }
    }

    #[test]
    fn metrics_do_not_change_simulation() {
        let reqs: Vec<_> = (0..100)
            .map(|i| read(i, 0, i % 5, i as f64 * 12.0))
            .collect();
        let plain = ctrl().simulate(reqs.clone(), false);
        let mut m = MetricsRegistry::new();
        let instrumented = ctrl().simulate_with_metrics(reqs, false, &mut m);
        assert_eq!(plain.finished_at, instrumented.finished_at);
        assert_eq!(plain.row_hits, instrumented.row_hits);
        assert_eq!(plain.completions.len(), instrumented.completions.len());
    }

    #[test]
    fn empty_workload_is_empty_outcome() {
        let out = ctrl().simulate(Vec::new(), false);
        assert!(out.completions.is_empty());
        assert_eq!(out.finished_at, SimTime::ZERO);
        assert_eq!(out.hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "bad bank")]
    fn rejects_out_of_range_bank() {
        let _ = ctrl().simulate([read(0, 99, 0, 0.0)], false);
    }

    #[test]
    fn simulated_wcd_within_analytic_upper_bound() {
        // Adversarial scenario mirroring the WCD analysis: N misses queued
        // ahead of the probe, hits behind an open row, heavy writes.
        use crate::wcd::{upper_bound, WcdParams};
        let n = 8u32;
        let cfg = ControllerConfig::paper();
        let ctrl = FrFcfsController::new(ddr3_1600(), cfg, 1);
        let mut reqs = Vec::new();
        // N misses to distinct rows (the probe is the Nth).
        for i in 0..n as u64 {
            reqs.push(read(i, 0, 1000 + i, 0.0));
        }
        // Hot hits that may be promoted.
        for i in 0..cfg.n_cap as u64 {
            reqs.push(read(100 + i, 0, 1000, 0.05));
        }
        // Saturating writes: 4 Gbps of 8-byte requests = 1 per 16 ns.
        for i in 0..400u64 {
            reqs.push(write(1000 + i, 0, 77, i as f64 * 16.0));
        }
        let out = ctrl.simulate(reqs, false);
        let probe_finish = out
            .completions
            .iter()
            .find(|c| c.request.id == n as u64 - 1)
            .expect("probe served")
            .finished
            .as_ns();
        let bound = upper_bound(&WcdParams {
            timing: ddr3_1600(),
            config: cfg,
            writes: autoplat_netcalc::TokenBucket::new(8.0, 1.0 / 16.0),
            queue_position: n,
        })
        .expect("stable");
        assert!(
            probe_finish <= bound.delay_ns,
            "simulated {probe_finish} ns must be within the analytic bound {} ns",
            bound.delay_ns
        );
    }
}

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
//!   queue); switch back once `N_wd` writes are served while reads wait,
//!   or when the write queue is empty;
//! * periodic **refresh** every `tREFI`, costing `tRFC`, issued after the
//!   in-flight request completes and closing all rows;
//! * per-bank row-buffer state with the `tRC` activate-to-activate
//!   constraint.
//!
//! Timing is approximated at request granularity (a hit occupies the data
//! bus for `tBurst`; a miss pays the precharge→activate→CAS pipeline and
//! holds its bank for `tRC`), which matches the granularity of the
//! analytic model in [`crate::wcd`].
//!
//! A replay returns what happened ([`SimOutcome`]): the completions in
//! serve order, the queue depths beside each, the mode switches and the
//! counts. Fig. 5, the metrics export
//! ([`SimOutcome::publish_metrics`]) and the conformance oracle all read
//! that outcome.

use std::collections::VecDeque;

use autoplat_sim::engine::{Engine, EventSink, Process};
use autoplat_sim::{MetricsRegistry, SimDuration, SimTime};

use crate::config::ControllerConfig;
use crate::request::{Completion, MasterId, Request, RequestKind};
use crate::timing::DramTiming;

/// Serving direction of the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Serving the read queue.
    Read,
    /// Serving a write batch.
    Write,
}

/// One read↔write mode switch of the watermark policy (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeSwitch {
    /// When the controller starts serving in the new mode: the decision
    /// instant plus the turnaround penalty.
    pub at: SimTime,
    /// The mode switched to.
    pub to: Mode,
    /// Write-queue depth at the switch.
    pub write_queue_depth: u32,
}

/// Queue depths right after a request was dequeued for service: what the
/// next arrival finds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueDepths {
    /// Requests left in the read queue.
    pub read: u32,
    /// Requests left in the write queue.
    pub write: u32,
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

/// What one controller replay did.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Every served request with its completion time, in serve order.
    pub completions: Vec<Completion>,
    /// `depths[i]`: the queue depths the controller left when it
    /// dequeued `completions[i]`.
    pub depths: Vec<QueueDepths>,
    /// Every read↔write mode switch, in order.
    pub switches: Vec<ModeSwitch>,
    /// Number of requests served as row hits.
    pub row_hits: u64,
    /// Number of requests served as row misses.
    pub row_misses: u64,
    /// Refresh operations performed.
    pub refreshes: u64,
    /// How long each refresh held the device (`tRFC`).
    pub refresh_duration: SimDuration,
    /// Time the last request completed.
    pub finished_at: SimTime,
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

    /// Publishes the replay into `metrics` under the `dram.*` namespace:
    ///
    /// * counters — `dram.requests_served`, `dram.row_hits`,
    ///   `dram.row_misses`, `dram.refreshes`, `dram.mode_switches`;
    /// * histograms — `dram.read_latency_ns`, `dram.write_latency_ns`,
    ///   `dram.read_queue_depth`, `dram.write_queue_depth` (one sample per
    ///   serve, in serve order), `dram.refresh_stall_ns` (one `tRFC` per
    ///   refresh);
    /// * gauges — `dram.hit_rate`, `dram.finished_at_ns`.
    ///
    /// Publishing several replays into one registry adds up their
    /// counters and histograms; the gauges keep the last replay's values.
    pub fn publish_metrics(&self, metrics: &mut MetricsRegistry) {
        metrics.counter_add("dram.requests_served", self.completions.len() as u64);
        metrics.counter_add("dram.row_hits", self.row_hits);
        metrics.counter_add("dram.row_misses", self.row_misses);
        metrics.counter_add("dram.refreshes", self.refreshes);
        metrics.counter_add("dram.mode_switches", self.switches.len() as u64);
        metrics.gauge_set("dram.hit_rate", self.hit_rate());
        metrics.gauge_set("dram.finished_at_ns", self.finished_at.as_ns());
        for (c, d) in self.completions.iter().zip(&self.depths) {
            metrics.observe("dram.read_queue_depth", f64::from(d.read));
            metrics.observe("dram.write_queue_depth", f64::from(d.write));
            let latency = match c.request.kind {
                RequestKind::Read => "dram.read_latency_ns",
                RequestKind::Write => "dram.write_latency_ns",
            };
            metrics.observe(latency, c.latency().as_ns());
        }
        for _ in 0..self.refreshes {
            metrics.observe("dram.refresh_stall_ns", self.refresh_duration.as_ns());
        }
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
/// let out = ctrl.simulate(reqs);
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

    /// Runs the workload to completion and returns what happened.
    ///
    /// Requests are admitted to their queue in arrival order; when a queue
    /// is full the arrival stalls (back-pressure) until space frees up.
    ///
    /// # Panics
    ///
    /// Panics if any request addresses a bank `>= self.banks()`.
    pub fn simulate<I>(&self, workload: I) -> SimOutcome
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

        // Every request is served exactly once.
        let served = pending.len();
        let mut state = Run {
            timing: &self.timing,
            cfg: &self.config,
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
            outcome: SimOutcome {
                completions: Vec::with_capacity(served),
                depths: Vec::with_capacity(served),
                switches: Vec::new(),
                row_hits: 0,
                row_misses: 0,
                refreshes: 0,
                refresh_duration: SimDuration::from_ns(self.timing.t_rfc),
                finished_at: SimTime::ZERO,
            },
        };

        // Drive the state machine on the shared kernel: every `Kick`
        // executes one decision (admit / refresh / mode switch / serve) and
        // re-arms itself at the instant the controller next makes progress.
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::ZERO, DramEvent::Kick);
        engine.run(&mut state);
        state.outcome
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
    pending: VecDeque<Request>,
    mode: Mode,
    banks: Vec<Bank>,
    read_q: VecDeque<Request>,
    write_q: VecDeque<Request>,
    promoted_hits: u32,
    batch_served: u32,
    next_refresh: SimTime,
    outcome: SimOutcome,
}

impl Run<'_> {
    /// Refreshes from `at`, closing every row, and returns when the
    /// device is free again.
    fn refresh(&mut self, at: SimTime) -> SimTime {
        for b in &mut self.banks {
            b.open_row = None;
        }
        self.outcome.refreshes += 1;
        self.next_refresh += SimDuration::from_ns(self.timing.t_refi);
        at + self.outcome.refresh_duration
    }

    /// Switches to `to` at `now`, pays the turnaround penalty, logs the
    /// switch and returns when the new mode starts serving.
    fn switch(&mut self, to: Mode, now: SimTime) -> SimTime {
        let t = self.timing;
        let penalty = match to {
            Mode::Write => {
                self.batch_served = 0;
                t.t_rtw
            }
            Mode::Read => {
                self.promoted_hits = 0;
                t.t_wr + t.t_wtr + t.t_cl
            }
        };
        let at = now + SimDuration::from_ns(penalty);
        self.mode = to;
        self.outcome.switches.push(ModeSwitch {
            at,
            to,
            write_queue_depth: self.write_q.len() as u32,
        });
        at
    }
}

impl Process for Run<'_> {
    type Event = DramEvent;

    fn handle(&mut self, _event: DramEvent, sink: &mut dyn EventSink<DramEvent>) {
        let mut now = sink.now();
        self.outcome.finished_at = now;
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
                now = self.refresh(self.next_refresh.max(now));
            }
            sink.schedule_at(now.max(next_arrival), DramEvent::Kick);
            return;
        }

        // Refresh: highest priority once the timer has expired.
        if now >= self.next_refresh {
            sink.schedule_at(self.refresh(now), DramEvent::Kick);
            return;
        }

        // Watermark policy (Fig. 5).
        let switch_to = match self.mode {
            Mode::Read => {
                let go_write = self.write_q.len() >= cfg.w_high as usize
                    || (self.read_q.is_empty() && self.write_q.len() >= cfg.w_low as usize);
                (go_write && !self.write_q.is_empty()).then_some(Mode::Write)
            }
            Mode::Write => {
                let go_read = self.write_q.is_empty()
                    || (!self.read_q.is_empty() && self.batch_served >= cfg.n_wd);
                go_read.then_some(Mode::Read)
            }
        };
        if let Some(to) = switch_to {
            sink.schedule_at(self.switch(to, now), DramEvent::Kick);
            return;
        }

        // Serve one request in the current mode.
        let (req, was_hit) = match self.mode {
            Mode::Read => {
                if self.read_q.is_empty() {
                    // If only writes remain below the watermark, drain
                    // them rather than deadlock.
                    if self.pending.is_empty() && !self.write_q.is_empty() {
                        sink.schedule_at(self.switch(Mode::Write, now), DramEvent::Kick);
                        return;
                    }
                    // Nothing to read and the watermark keeps us out of
                    // write mode: wait for the next arrival or refresh.
                    let wake = self
                        .pending
                        .front()
                        .map(|r| r.arrival)
                        .unwrap_or(SimTime::MAX)
                        .min(self.next_refresh);
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
            self.outcome.row_hits += 1;
            now + SimDuration::from_ns(t.t_burst)
        } else {
            self.outcome.row_misses += 1;
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
        self.outcome.depths.push(QueueDepths {
            read: self.read_q.len() as u32,
            write: self.write_q.len() as u32,
        });
        self.outcome.completions.push(Completion {
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
        let out = ctrl().simulate([read(0, 0, 5, 0.0)]);
        let t = ddr3_1600();
        let expect = t.t_rp + t.t_rcd + t.t_cl + t.t_burst;
        assert_eq!(out.completions.len(), 1);
        assert!((out.completions[0].latency().as_ns() - expect).abs() < 1e-9);
        assert_eq!(out.row_misses, 1);
    }

    #[test]
    fn same_row_reads_hit_after_first() {
        let reqs: Vec<_> = (0..10).map(|i| read(i, 0, 7, 0.0)).collect();
        let out = ctrl().simulate(reqs);
        assert_eq!(out.row_misses, 1);
        assert_eq!(out.row_hits, 9);
    }

    #[test]
    fn alternating_rows_same_bank_all_miss_at_trc_rate() {
        // Distinct rows so first-ready promotion finds no hits.
        let reqs: Vec<_> = (0..10).map(|i| read(i, 0, i, 0.0)).collect();
        let out = ctrl().simulate(reqs);
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
        let out = ctrl.simulate(reqs);
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
        let out = ctrl().simulate(reqs);
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
        let out = ctrl.simulate(reqs);
        let first = out.switches.first().expect("the watermark switches");
        assert_eq!(first.to, Mode::Write);
        assert!(first.write_queue_depth >= cfg.w_high, "W_high triggers it");
        assert!(out.switches.iter().any(|s| s.to == Mode::Read));
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
        let out = ctrl().simulate(reqs);
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
        let out = ctrl().simulate(reqs);
        assert_eq!(out.row_misses, 2, "row must be closed by the refresh");
    }

    #[test]
    fn banks_are_independent_for_row_state() {
        let reqs = vec![read(0, 0, 1, 0.0), read(1, 1, 1, 0.0), read(2, 0, 1, 0.0)];
        let out = ctrl().simulate(reqs);
        assert_eq!(out.row_misses, 2); // one per bank
        assert_eq!(out.row_hits, 1);
    }

    #[test]
    fn metrics_registry_mirrors_outcome() {
        // A queue that builds up, then one read past the first refresh.
        let late = read(200, 0, 0, 2.0 * ddr3_1600().t_refi);
        let reqs: Vec<_> = (0..200)
            .map(|i| read(i, 0, i % 3, i as f64 * 8.0))
            .chain([late])
            .collect();
        let out = ctrl().simulate(reqs);
        let mut m = MetricsRegistry::new();
        out.publish_metrics(&mut m);
        assert_eq!(m.counter("dram.requests_served"), 201);
        assert_eq!(m.counter("dram.row_hits"), out.row_hits);
        assert_eq!(m.counter("dram.row_misses"), out.row_misses);
        assert_eq!(m.counter("dram.refreshes"), out.refreshes);
        assert_eq!(m.counter("dram.mode_switches"), out.switches.len() as u64);
        assert_eq!(m.gauge("dram.hit_rate"), Some(out.hit_rate()));
        assert_eq!(
            m.gauge("dram.finished_at_ns"),
            Some(out.finished_at.as_ns())
        );
        let lat = m.histogram("dram.read_latency_ns").expect("reads observed");
        assert_eq!(lat.count(), 201);
        let max = out.completions.iter().map(|c| c.latency()).max();
        assert_eq!(lat.max(), max.map(|d| d.as_ns()));
        assert!(m.histogram("dram.write_latency_ns").is_none(), "no writes");
        let depth = m.histogram("dram.read_queue_depth").expect("sampled");
        assert_eq!(depth.count(), 201, "queue depth is sampled at every serve");
        let deepest = out.depths.iter().map(|d| d.read).max();
        assert_eq!(depth.max(), deepest.map(f64::from));
        assert!(out.refreshes > 0, "the run spans a refresh");
        let stall = m.histogram("dram.refresh_stall_ns").expect("refreshes");
        assert_eq!(stall.count(), out.refreshes);
        let t = ddr3_1600();
        assert!((stall.mean() - t.t_rfc).abs() < 1e-9, "each stall is tRFC");
    }

    #[test]
    fn empty_workload_is_empty_outcome() {
        let out = ctrl().simulate(Vec::new());
        assert!(out.completions.is_empty());
        assert_eq!(out.finished_at, SimTime::ZERO);
        assert_eq!(out.hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "bad bank")]
    fn rejects_out_of_range_bank() {
        let _ = ctrl().simulate([read(0, 99, 0, 0.0)]);
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
        let out = ctrl.simulate(reqs);
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

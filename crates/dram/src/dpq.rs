//! Dynamic Priority Queue (DPQ) SDRAM arbiter (Shah et al.).
//!
//! The DPQ arbiter targets tight WCET analysis instead of throughput: it
//! keeps one FIFO request queue **per master** and a dynamic priority
//! order over the masters. Whenever a master is granted an access it
//! drops to the lowest priority, so the least-recently-served backlogged
//! master is always served next — a round-robin-like rotation whose key
//! property is a closed-form bounded access latency (see
//! [`crate::wcd::dpq_upper_bound`]):
//!
//! * between two consecutive grants to master *i* (while *i* stays
//!   backlogged) every other master is granted at most once, because a
//!   master granted while *i* waits moves behind *i* and cannot overtake
//!   it again;
//! * therefore the *d*-th queued request of a master completes within
//!   `d·m` accesses of its arrival, plus one access already in flight and
//!   the refreshes falling into the window.
//!
//! The arbiter runs a **close-page** policy: every access pays the full
//! precharge→activate→CAS pipeline and re-arms its bank's `tRC` window.
//! That forfeits row-hit throughput but removes history-dependence from
//! the per-access cost, which is what makes the bound composable. Refresh
//! is modelled exactly like the FR-FCFS controller: every `tREFI`,
//! costing `tRFC`, issued between accesses.
//!
//! The simulator reuses the shared event kernel ([`Engine`]) with the
//! single-pending-`Kick` pattern of [`crate::controller`], so DPQ runs
//! are deterministic and comparable event-for-event with FR-FCFS runs in
//! the cross-arbiter conformance family.

use std::collections::VecDeque;

use autoplat_sim::engine::{Engine, EventSink, Process};
use autoplat_sim::{SimDuration, SimTime};

use crate::controller::DramEvent;
use crate::request::{Completion, MasterId, Request, RequestKind};
use crate::timing::DramTiming;

/// What one DPQ arbiter replay did.
#[derive(Debug, Clone)]
pub struct DpqOutcome {
    /// Every served request with its completion time, in grant order.
    pub completions: Vec<Completion>,
    /// `depths[i]`: the queue depth `completions[i]` was admitted at —
    /// the number of same-master requests it sat behind, **plus itself**.
    /// This is the `d` the per-request latency bound is parameterised on.
    pub depths: Vec<u32>,
    /// Refresh operations performed.
    pub refreshes: u64,
    /// Time the last request completed.
    pub finished_at: SimTime,
}

impl DpqOutcome {
    /// The completion record for request `id`, if it was served.
    pub fn completion_of(&self, id: u64) -> Option<&Completion> {
        self.completions.iter().find(|c| c.request.id == id)
    }
}

/// The DPQ arbiter simulator. See the [module docs](self) for the model.
#[derive(Debug, Clone)]
pub struct DpqArbiter {
    timing: DramTiming,
    masters: u32,
    banks: u32,
}

impl DpqArbiter {
    /// Creates an arbiter for `masters` request sources over `banks`
    /// banks.
    ///
    /// # Panics
    ///
    /// Panics if the timing fails validation or either count is zero.
    pub fn new(timing: DramTiming, masters: u32, banks: u32) -> Self {
        timing.validate().expect("invalid DRAM timing");
        assert!(masters > 0, "need at least one master");
        assert!(banks > 0, "need at least one bank");
        DpqArbiter {
            timing,
            masters,
            banks,
        }
    }

    /// The device timing in use.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    /// Number of masters arbitrated.
    pub fn masters(&self) -> u32 {
        self.masters
    }

    /// Runs the workload to completion and reports per-request
    /// completions, their admission depths and the refresh count.
    ///
    /// # Panics
    ///
    /// Panics if any request addresses a master `>= self.masters()` or a
    /// bank `>= banks`.
    pub fn simulate<I>(&self, workload: I) -> DpqOutcome
    where
        I: IntoIterator<Item = Request>,
    {
        let pending: VecDeque<Request> = {
            let mut v: Vec<Request> = workload.into_iter().collect();
            for r in &v {
                assert!(
                    r.master.0 < self.masters,
                    "request {} names bad master {}",
                    r.id,
                    r.master.0
                );
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
        let mut state = DpqRun {
            timing: &self.timing,
            pending,
            queues: (0..self.masters).map(|_| VecDeque::new()).collect(),
            order: (0..self.masters).collect(),
            bank_ready: vec![SimTime::ZERO; self.banks as usize],
            next_refresh: SimTime::ZERO + SimDuration::from_ns(self.timing.t_refi),
            outcome: DpqOutcome {
                completions: Vec::with_capacity(served),
                depths: Vec::with_capacity(served),
                refreshes: 0,
                finished_at: SimTime::ZERO,
            },
        };

        let mut engine = Engine::new();
        engine.schedule_at(SimTime::ZERO, DramEvent::Kick);
        engine.run(&mut state);
        state.outcome
    }
}

/// One in-flight DPQ simulation as a kernel [`Process`], mirroring the
/// single-pending-`Kick` discipline of the FR-FCFS `Run`.
struct DpqRun<'a> {
    timing: &'a DramTiming,
    pending: VecDeque<Request>,
    /// One FIFO per master; each request carries its admission depth.
    queues: Vec<VecDeque<(Request, u32)>>,
    /// Masters from highest to lowest priority; a granted master moves to
    /// the back (least-recently-served rotation).
    order: VecDeque<u32>,
    /// Earliest next-activate time per bank (tRC rule).
    bank_ready: Vec<SimTime>,
    next_refresh: SimTime,
    outcome: DpqOutcome,
}

impl DpqRun<'_> {
    /// Moves every arrived request into its master's FIFO, recording the
    /// queue depth it lands at (1-based, counting itself).
    fn admit(&mut self, now: SimTime) {
        while self.pending.front().is_some_and(|r| r.arrival <= now) {
            let req = self.pending.pop_front().expect("front checked");
            let q = &mut self.queues[req.master.0 as usize];
            let depth = q.len() as u32 + 1;
            q.push_back((req, depth));
        }
    }

    fn backlogged(&self) -> bool {
        self.queues.iter().any(|q| !q.is_empty())
    }

    /// Performs one refresh starting at `now`, returning its end time.
    fn refresh(&mut self, now: SimTime) -> SimTime {
        let end = now + SimDuration::from_ns(self.timing.t_rfc);
        self.outcome.refreshes += 1;
        self.next_refresh += SimDuration::from_ns(self.timing.t_refi);
        end
    }
}

impl Process for DpqRun<'_> {
    type Event = DramEvent;

    fn handle(&mut self, _event: DramEvent, sink: &mut dyn EventSink<DramEvent>) {
        let now = sink.now();
        self.outcome.finished_at = self.outcome.finished_at.max(now);
        self.admit(now);

        if !self.backlogged() {
            let Some(next) = self.pending.front() else {
                return; // workload drained; no event re-armed, run ends
            };
            // Idle until the next arrival, serving any refreshes whose
            // deadline passes during the gap.
            let arrival = next.arrival;
            let mut free_at = now;
            while self.next_refresh <= arrival {
                let start = free_at.max(self.next_refresh);
                free_at = self.refresh(start);
            }
            sink.schedule_at(free_at.max(arrival), DramEvent::Kick);
            return;
        }

        if now >= self.next_refresh {
            let end = self.refresh(now);
            sink.schedule_at(end, DramEvent::Kick);
            return;
        }

        // Grant the highest-priority backlogged master and rotate it to
        // the back. Masters without pending requests keep their slot (and
        // thus their priority for when they next issue).
        let pos = self
            .order
            .iter()
            .position(|&m| !self.queues[m as usize].is_empty())
            .expect("backlogged() checked");
        let master = self.order.remove(pos).expect("position valid");
        self.order.push_back(master);
        let (req, depth) = self.queues[master as usize]
            .pop_front()
            .expect("queue non-empty");

        // Close-page access: full precharge→activate→CAS pipeline, bank
        // re-armed for tRC exactly like a row miss in the FR-FCFS model.
        let t = self.timing;
        let bank = &mut self.bank_ready[req.bank as usize];
        let begin = now.max(*bank);
        let done = begin + SimDuration::from_ns(t.t_rp + t.t_rcd + t.t_cl + t.t_burst);
        *bank = begin + SimDuration::from_ns(t.t_rp + t.t_ras);

        self.outcome.completions.push(Completion {
            request: req,
            finished: done,
            row_hit: false,
        });
        self.outcome.depths.push(depth);
        sink.schedule_at(done, DramEvent::Kick);
    }
}

/// Builds the workload that saturates the DPQ bound: every one of
/// `masters` masters enqueues `depth` distinct-row reads to its own bank
/// at `t = 0`. The **probe** is the last request of the last master
/// (id `masters·depth − 1`): it is admitted at depth `depth` and — with
/// the initial priority order `0..masters` — is served by the final grant
/// of round `depth`, i.e. after exactly `depth·masters` accesses.
pub fn adversarial_dpq_workload(masters: u32, depth: u32) -> Vec<Request> {
    assert!(masters > 0 && depth > 0, "need at least one request");
    let mut reqs = Vec::with_capacity((masters * depth) as usize);
    for m in 0..masters {
        for k in 0..depth {
            let id = (m * depth + k) as u64;
            reqs.push(Request::new(
                id,
                MasterId(m),
                RequestKind::Read,
                m, // bank-per-master: bank conflicts never mask arbitration
                1_000 + k as u64,
                SimTime::ZERO,
            ));
        }
    }
    reqs
}

/// The probe request id of [`adversarial_dpq_workload`].
pub fn adversarial_dpq_probe(masters: u32, depth: u32) -> u64 {
    (masters * depth - 1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::presets::{ddr3_1600, ddr4_2400, lpddr4_3200};

    /// The granted master of every completion, in grant order.
    fn grants(out: &DpqOutcome) -> Vec<u32> {
        out.completions.iter().map(|c| c.request.master.0).collect()
    }

    #[test]
    fn single_master_single_request_costs_one_pipeline() {
        let t = ddr3_1600();
        let pipeline = t.t_rp + t.t_rcd + t.t_cl + t.t_burst;
        let arb = DpqArbiter::new(t, 1, 1);
        let out = arb.simulate(adversarial_dpq_workload(1, 1));
        assert_eq!(out.completions.len(), 1);
        assert!((out.finished_at.as_ns() - pipeline).abs() < 1e-6);
        assert_eq!(out.depths, vec![1]);
        assert_eq!(out.refreshes, 0);
    }

    #[test]
    fn grants_rotate_least_recently_served() {
        // Three masters, two requests each, all at t=0: grants must cycle
        // 0,1,2,0,1,2 — no master is served twice before the others.
        let arb = DpqArbiter::new(ddr3_1600(), 3, 3);
        let out = arb.simulate(adversarial_dpq_workload(3, 2));
        assert_eq!(grants(&out), vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn idle_master_keeps_its_priority() {
        // Master 0 issues late; masters 1 and 2 are backlogged. While 0 is
        // idle it must not rotate, so the moment its request arrives it is
        // still the highest-priority master and is granted next.
        let t = ddr3_1600();
        let pipeline = t.t_rp + t.t_rcd + t.t_cl + t.t_burst;
        let mut reqs = Vec::new();
        for m in 1..3u32 {
            for k in 0..4u32 {
                reqs.push(Request::new(
                    (m * 4 + k) as u64,
                    MasterId(m),
                    RequestKind::Read,
                    m,
                    100 + k as u64,
                    SimTime::ZERO,
                ));
            }
        }
        // Arrives mid-burst, after roughly three grants.
        reqs.push(Request::new(
            99,
            MasterId(0),
            RequestKind::Read,
            0,
            7,
            SimTime::from_ns(2.5 * pipeline),
        ));
        let arb = DpqArbiter::new(t, 3, 3);
        let out = arb.simulate(reqs);
        let grants = grants(&out);
        let first_zero = grants
            .iter()
            .position(|&g| g == 0)
            .expect("master 0 served");
        // Admitted at the kick at t = 3·pipeline (first decision after its
        // arrival) and granted immediately — ahead of the five remaining
        // backlogged requests of masters 1 and 2.
        assert_eq!(first_zero, 3, "grant order was {grants:?}");
    }

    #[test]
    fn admission_depth_counts_queue_position() {
        let arb = DpqArbiter::new(ddr4_2400(), 2, 2);
        let out = arb.simulate(adversarial_dpq_workload(2, 3));
        assert_eq!(out.depths.len(), 6);
        // Request `k` of each master (id `m·3 + k`) lands at depth k + 1.
        for (c, &depth) in out.completions.iter().zip(&out.depths) {
            assert_eq!(u64::from(depth), c.request.id % 3 + 1);
        }
    }

    #[test]
    fn refreshes_interleave_without_losing_requests() {
        // Stretch the run far past several tREFI periods.
        let t = lpddr4_3200();
        let refi = t.t_refi;
        let mut reqs = Vec::new();
        for i in 0..10u64 {
            reqs.push(Request::new(
                i,
                MasterId(0),
                RequestKind::Read,
                0,
                i,
                SimTime::from_ns(refi * i as f64),
            ));
        }
        let arb = DpqArbiter::new(t, 1, 1);
        let out = arb.simulate(reqs);
        assert_eq!(out.completions.len(), 10);
        assert!(out.refreshes >= 9, "refreshes = {}", out.refreshes);
        // Completion times strictly increase (single master, FIFO).
        for w in out.completions.windows(2) {
            assert!(w[0].finished < w[1].finished);
        }
    }

    #[test]
    fn adversarial_probe_is_the_last_completion_of_round_depth() {
        let t = ddr3_1600();
        let pipeline = t.t_rp + t.t_rcd + t.t_cl + t.t_burst;
        let (masters, depth) = (4u32, 3u32);
        let arb = DpqArbiter::new(t, masters, masters);
        let out = arb.simulate(adversarial_dpq_workload(masters, depth));
        let probe = adversarial_dpq_probe(masters, depth);
        let c = out.completion_of(probe).expect("probe served");
        // Banks are per-master, so with >= 2 masters the pipeline (not
        // tRC) paces the bus: the probe finishes after exactly
        // depth·masters back-to-back accesses (no refresh this early).
        let expect = (depth * masters) as f64 * pipeline;
        assert!(
            (c.finished.as_ns() - expect).abs() < 1e-6,
            "probe finished at {} expected {}",
            c.finished.as_ns(),
            expect
        );
    }
}

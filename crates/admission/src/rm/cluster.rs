//! The per-cluster Resource Manager of the two-level admission hierarchy.
//!
//! A [`ClusterRm`] owns a disjoint shard of the client population and
//! wraps a full [`ResourceManager`] — watchdog, quarantine, safe mode,
//! conf retransmission — for that shard. What it adds is the upward
//! protocol: critical admissions need guaranteed capacity, which only the
//! [`root::RootArbiter`](super::root::RootArbiter) can grant, so the
//! cluster *parks* the client's `actMsg`, asks the root for the budget in
//! its next coalesced bundle, and replays the parked envelope into the
//! inner RM once the grant arrives (or refuses the client on a denial).
//! Best-effort clients consume no guaranteed budget and are admitted
//! locally without a round trip.
//!
//! Control-plane traffic to the root is batched: per kernel step the
//! cluster emits at most one *reliable* [`ClusterBundle`] (budget
//! requests/releases, stop-and-wait with exponential backoff until the
//! root acks the bundle's sequence number) plus at most one
//! *fire-and-forget* bundle (acks of root decisions and the heartbeat
//! digest, safe to lose). Root decision bundles are deduplicated by
//! sequence number, so a delayed-then-retransmitted `grantMsg` cannot
//! double-apply decisions.

use std::collections::BTreeSet;

use autoplat_sim::hash::FxHashMap;

use crate::app::AppId;
use crate::client::RetryPolicy;
use crate::modes::RatePolicy;
use crate::protocol::{BundleItem, ClusterBundle, ClusterId, Envelope, GrantDecision, RootBundle};
use crate::rm::ResourceManager;

/// The reliable bundle the cluster keeps retransmitting until acked.
#[derive(Debug, Clone)]
struct PendingBundle {
    bundle: ClusterBundle,
    attempts: u32,
    next_retry_cycle: u64,
}

/// What one kernel step of a cluster RM produced.
#[derive(Debug, Default)]
pub struct ClusterStep {
    /// Envelopes towards this shard's clients (acks, stop/conf rounds,
    /// refusals, retransmissions).
    pub to_clients: Vec<Envelope>,
    /// Bundles towards the root arbiter, in emission order.
    pub to_root: Vec<ClusterBundle>,
}

/// A per-cluster RM: a sharded [`ResourceManager`] plus the bundle
/// protocol towards the root arbiter.
#[derive(Debug)]
pub struct ClusterRm<P> {
    id: ClusterId,
    inner: ResourceManager<P>,
    retry: RetryPolicy,
    /// Guaranteed milli-rate the root currently holds for each admitted
    /// critical app of this shard; feeds `Release` items on departure.
    granted: FxHashMap<AppId, u64>,
    /// Parked `actMsg`s awaiting a root decision, keyed by app.
    awaiting_grant: FxHashMap<AppId, Envelope>,
    /// The envelopes a step hands the inner RM, kept across steps so a
    /// step allocates nothing for them.
    batch: Vec<Envelope>,
    /// Budget items not yet carried by a reliable bundle.
    outbox: Vec<BundleItem>,
    /// Acks of root decision bundles to piggyback on the next bundle out.
    ack_items: Vec<BundleItem>,
    /// The one reliable bundle in flight (stop-and-wait).
    pending: Option<PendingBundle>,
    next_bundle_seq: u64,
    /// Root bundle sequence numbers already applied (the dedup guard).
    seen_root_seqs: BTreeSet<u64>,
    /// Cycle of the last bundle handed to the plane, for the heartbeat
    /// digest cadence.
    last_emit_cycle: Option<u64>,
    /// Emit a digest bundle at least this often even when idle, so the
    /// root's cluster watchdog sees a live shard.
    heartbeat_interval_cycles: u64,
    bundles_sent: u64,
    bundle_retransmissions: u64,
    duplicate_root_bundles: u64,
}

impl<P: RatePolicy> ClusterRm<P> {
    /// Wraps `inner` as the manager of cluster `id`.
    ///
    /// `retry` paces the reliable-bundle retransmission (attempts past the
    /// budget keep retrying at the maximum backoff — the root is part of
    /// the platform, not a flaky client) and
    /// `heartbeat_interval_cycles` the idle digest cadence.
    pub fn new(
        id: ClusterId,
        inner: ResourceManager<P>,
        retry: RetryPolicy,
        heartbeat_interval_cycles: u64,
    ) -> Self {
        ClusterRm {
            id,
            inner,
            retry,
            granted: FxHashMap::default(),
            awaiting_grant: FxHashMap::default(),
            batch: Vec::new(),
            outbox: Vec::new(),
            ack_items: Vec::new(),
            pending: None,
            next_bundle_seq: 0,
            seen_root_seqs: BTreeSet::new(),
            last_emit_cycle: None,
            heartbeat_interval_cycles,
            bundles_sent: 0,
            bundle_retransmissions: 0,
            duplicate_root_bundles: 0,
        }
    }

    /// This cluster's id.
    pub fn id(&self) -> ClusterId {
        self.id
    }

    /// The wrapped shard-level RM.
    pub fn inner(&self) -> &ResourceManager<P> {
        &self.inner
    }

    /// Mutable access to the wrapped RM (registration, tuning).
    pub fn inner_mut(&mut self) -> &mut ResourceManager<P> {
        &mut self.inner
    }

    /// Bundles handed to the plane (first transmissions).
    pub fn bundles_sent(&self) -> u64 {
        self.bundles_sent
    }

    /// Reliable bundles retransmitted after a missing root ack.
    pub fn bundle_retransmissions(&self) -> u64 {
        self.bundle_retransmissions
    }

    /// Retransmitted root bundles the dedup guard suppressed.
    pub fn duplicate_root_bundles(&self) -> u64 {
        self.duplicate_root_bundles
    }

    /// Clients parked awaiting a root decision.
    pub fn awaiting_grant_count(&self) -> usize {
        self.awaiting_grant.len()
    }

    /// True when nothing is parked, queued, or in flight towards the root.
    pub fn is_quiescent(&self) -> bool {
        self.awaiting_grant.is_empty()
            && self.outbox.is_empty()
            && self.ack_items.is_empty()
            && self.pending.is_none()
    }

    /// One kernel step: applies the root bundles then the client envelopes
    /// delivered this step (both in delivery order), advances the inner
    /// RM's timers, and coalesces everything the root must hear into at
    /// most one reliable and one fire-and-forget bundle.
    pub fn step(
        &mut self,
        from_root: &[RootBundle],
        from_clients: &[Envelope],
        now_cycle: u64,
    ) -> ClusterStep {
        let mut out = ClusterStep::default();
        // Envelopes ready for the inner RM this step: grant replays first
        // (their actMsgs arrived in an earlier step), then fresh inbox.
        let mut batch = std::mem::take(&mut self.batch);
        for bundle in from_root {
            self.apply_root_bundle(bundle, &mut batch, &mut out, now_cycle);
        }
        for envelope in from_clients {
            self.route_client_envelope(*envelope, &mut batch, &mut out, now_cycle);
        }
        out.to_clients
            .extend(self.inner.receive_batch(&batch, now_cycle));
        batch.clear();
        self.batch = batch;
        out.to_clients.extend(self.inner.poll(now_cycle));
        // Departures (termination or watchdog reclamation) return their
        // guaranteed budget to the root.
        for app in self.inner.take_departures() {
            if let Some(rate_milli) = self.granted.remove(&app) {
                self.outbox.push(BundleItem::Release { app, rate_milli });
            }
            // A departure unparks any stale wait (e.g. reclaimed while a
            // re-activation was still parked).
            self.awaiting_grant.remove(&app);
        }
        self.emit_bundles(&mut out, now_cycle);
        out
    }

    fn apply_root_bundle(
        &mut self,
        bundle: &RootBundle,
        batch: &mut Vec<Envelope>,
        out: &mut ClusterStep,
        now_cycle: u64,
    ) {
        // The bundle-level stale-ack guard: only the ack of the reliable
        // bundle currently in flight clears it.
        if let Some(of_seq) = bundle.ack_of {
            if self
                .pending
                .as_ref()
                .is_some_and(|p| p.bundle.seq == of_seq)
            {
                self.pending = None;
            }
        }
        // Decision dedup: a delayed-then-retransmitted grant bundle must
        // not re-apply (the regression this guards is a double admission
        // conf after a duplicated `grantMsg`).
        if !self.seen_root_seqs.insert(bundle.seq) {
            self.duplicate_root_bundles += 1;
            if bundle.needs_ack() {
                // Our ack may have been the lost half; re-ack.
                self.ack_items.push(BundleItem::Ack { of_seq: bundle.seq });
            }
            return;
        }
        if bundle.needs_ack() {
            self.ack_items.push(BundleItem::Ack { of_seq: bundle.seq });
        }
        for decision in &bundle.decisions {
            match *decision {
                GrantDecision::Granted { app, rate_milli } => {
                    // Idempotent: only a still-parked app is admitted.
                    if let Some(envelope) = self.awaiting_grant.remove(&app) {
                        self.granted.insert(app, rate_milli);
                        batch.push(envelope);
                    }
                }
                GrantDecision::Denied { app } => {
                    if self.awaiting_grant.remove(&app).is_some() {
                        out.to_clients.push(self.inner.refuse(app, now_cycle));
                    }
                }
            }
        }
    }

    fn route_client_envelope(
        &mut self,
        envelope: Envelope,
        batch: &mut Vec<Envelope>,
        out: &mut ClusterStep,
        now_cycle: u64,
    ) {
        use crate::protocol::ControlMessage;
        let app = envelope.message.app();
        if let ControlMessage::Activation { .. } = envelope.message {
            if self.awaiting_grant.contains_key(&app) {
                // Retransmitted actMsg while the decision is pending:
                // the park already covers it.
                return;
            }
            // An active critical app always holds a grant, so the granted
            // map doubles as the is-active check (no shard scan).
            let needs_grant = !self.granted.contains_key(&app)
                && self
                    .inner
                    .known_app(app)
                    .is_some_and(|a| a.importance.is_critical());
            if needs_grant {
                // Apply the local refusal gates *before* spending a root
                // round trip, so quarantine/safe-mode behave exactly like
                // the flat RM.
                if self.inner.check_admissible(app, now_cycle).is_err() {
                    out.to_clients.push(self.inner.refuse(app, now_cycle));
                    return;
                }
                let rate_milli = self
                    .inner
                    .known_app(app)
                    .map(|a| (a.importance.guaranteed_rate() * 1000.0).round() as u64)
                    .unwrap_or(0);
                self.awaiting_grant.insert(app, envelope);
                self.outbox.push(BundleItem::Request { app, rate_milli });
                return;
            }
        }
        batch.push(envelope);
    }

    fn emit_bundles(&mut self, out: &mut ClusterStep, now_cycle: u64) {
        // Reliable bundle: stop-and-wait. Retransmit the in-flight one if
        // due; otherwise promote the outbox (carrying any acks along).
        match &mut self.pending {
            Some(p) if now_cycle >= p.next_retry_cycle => {
                p.attempts += 1;
                p.next_retry_cycle =
                    now_cycle + self.retry.backoff_cycles(p.attempts.saturating_sub(1));
                p.bundle.sent_at_cycle = now_cycle;
                p.bundle.live_clients = self.inner.active().len() as u64;
                self.bundle_retransmissions += 1;
                out.to_root.push(p.bundle.clone());
                self.last_emit_cycle = Some(now_cycle);
            }
            Some(_) => {}
            None if !self.outbox.is_empty() => {
                let mut items = std::mem::take(&mut self.ack_items);
                items.append(&mut self.outbox);
                let bundle = self.fresh_bundle(items, now_cycle);
                self.pending = Some(PendingBundle {
                    bundle: bundle.clone(),
                    attempts: 1,
                    next_retry_cycle: now_cycle + self.retry.backoff_cycles(0),
                });
                self.bundles_sent += 1;
                out.to_root.push(bundle);
                self.last_emit_cycle = Some(now_cycle);
            }
            None => {}
        }
        // Fire-and-forget bundle: pending acks that found no reliable
        // carrier this step, or the idle heartbeat digest.
        let heartbeat_due = self
            .last_emit_cycle
            .is_none_or(|last| now_cycle >= last + self.heartbeat_interval_cycles);
        if !self.ack_items.is_empty() || heartbeat_due {
            let items = std::mem::take(&mut self.ack_items);
            let bundle = self.fresh_bundle(items, now_cycle);
            self.bundles_sent += 1;
            out.to_root.push(bundle);
            self.last_emit_cycle = Some(now_cycle);
        }
    }

    fn fresh_bundle(&mut self, items: Vec<BundleItem>, now_cycle: u64) -> ClusterBundle {
        let seq = self.next_bundle_seq;
        self.next_bundle_seq += 1;
        ClusterBundle {
            cluster: self.id,
            seq,
            sent_at_cycle: now_cycle,
            live_clients: self.inner.active().len() as u64,
            items,
        }
    }

    /// The next cycle at which [`step`](Self::step) has timer work even
    /// with empty inboxes: the inner RM's deadline, the reliable bundle's
    /// retransmission, or the heartbeat digest.
    pub fn next_deadline(&self) -> Option<u64> {
        let inner = self.inner.next_deadline();
        let retry = self.pending.as_ref().map(|p| p.next_retry_cycle);
        // A cluster that never emitted owes the root its first digest
        // immediately, or the root watchdog would count it as dead.
        let heartbeat = Some(
            self.last_emit_cycle
                .map_or(0, |last| last + self.heartbeat_interval_cycles),
        );
        [inner, retry, heartbeat].into_iter().flatten().min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Application;
    use crate::modes::WeightedPolicy;
    use crate::protocol::{ControlMessage, Endpoint};
    use crate::rm::WatchdogConfig;

    fn cluster() -> ClusterRm<WeightedPolicy> {
        let mut inner = ResourceManager::new(WeightedPolicy::new(1.0, 4.0, 0.0), 100.0)
            .with_watchdog(WatchdogConfig {
                timeout_cycles: 1_000,
                quarantine_threshold: 2,
                quarantine_cooldown_cycles: 5_000,
            })
            .with_retry(RetryPolicy::new(100, 3));
        inner.register(Application::critical(AppId(0), 0, 300));
        inner.register(Application::critical(AppId(1), 1, 400));
        inner.register(Application::best_effort(AppId(2), 2));
        ClusterRm::new(ClusterId(0), inner, RetryPolicy::new(50, 4), 10_000)
    }

    fn act(app: u32, seq: u64, at: u64) -> Envelope {
        Envelope {
            from: Endpoint::Client(AppId(app)),
            to: Endpoint::Rm,
            seq,
            sent_at_cycle: at,
            message: ControlMessage::Activation { app: AppId(app) },
        }
    }

    fn grant(to: &ClusterRm<WeightedPolicy>, seq: u64, app: u32, rate_milli: u64) -> RootBundle {
        RootBundle {
            to: to.id(),
            seq,
            sent_at_cycle: 0,
            ack_of: None,
            decisions: vec![GrantDecision::Granted {
                app: AppId(app),
                rate_milli,
            }],
        }
    }

    #[test]
    fn critical_admission_waits_for_grant() {
        let mut c = cluster();
        let step = c.step(&[], &[act(0, 0, 10)], 10);
        // Nothing towards the client yet; one reliable bundle up.
        assert!(step.to_clients.is_empty());
        assert_eq!(step.to_root.len(), 1);
        let bundle = &step.to_root[0];
        assert!(bundle.needs_ack());
        assert_eq!(
            bundle.items,
            vec![BundleItem::Request {
                app: AppId(0),
                rate_milli: 300
            }]
        );
        assert_eq!(c.awaiting_grant_count(), 1);
        // The grant replays the parked actMsg into the inner RM.
        let step = c.step(&[grant(&c, 0, 0, 300)], &[], 20);
        assert!(step
            .to_clients
            .iter()
            .any(|e| e.message.name() == "confMsg" && e.message.app() == AppId(0)));
        assert_eq!(c.inner().active().len(), 1);
        assert_eq!(c.awaiting_grant_count(), 0);
    }

    #[test]
    fn best_effort_is_admitted_locally() {
        let mut c = cluster();
        let step = c.step(&[], &[act(2, 0, 10)], 10);
        assert!(step
            .to_clients
            .iter()
            .any(|e| e.message.name() == "confMsg" && e.message.app() == AppId(2)));
        // Only the heartbeat digest went up — no budget request.
        assert!(step.to_root.iter().all(|b| !b.needs_ack()));
    }

    #[test]
    fn denial_refuses_the_parked_client() {
        let mut c = cluster();
        let _ = c.step(&[], &[act(0, 0, 10)], 10);
        let deny = RootBundle {
            to: c.id(),
            seq: 0,
            sent_at_cycle: 0,
            ack_of: None,
            decisions: vec![GrantDecision::Denied { app: AppId(0) }],
        };
        let step = c.step(&[deny], &[], 20);
        assert!(step
            .to_clients
            .iter()
            .any(|e| e.message.name() == "rejMsg" && e.message.app() == AppId(0)));
        assert_eq!(c.inner().rejections(), 1);
        assert_eq!(c.inner().active().len(), 0);
    }

    #[test]
    fn duplicated_grant_bundle_does_not_double_apply() {
        let mut c = cluster();
        let _ = c.step(&[], &[act(0, 0, 10)], 10);
        let g = grant(&c, 0, 0, 300);
        let step = c.step(std::slice::from_ref(&g), &[], 20);
        let confs = |s: &ClusterStep| {
            s.to_clients
                .iter()
                .filter(|e| e.message.name() == "confMsg")
                .count()
        };
        assert_eq!(confs(&step), 1);
        let changes = c.inner().mode_changes();
        // The delayed duplicate of the same grant bundle arrives later:
        // deduplicated, re-acked, and crucially no second conf round.
        let step = c.step(&[g], &[], 60);
        assert_eq!(confs(&step), 0, "duplicate grant must not re-confirm");
        assert_eq!(c.inner().mode_changes(), changes);
        assert_eq!(c.duplicate_root_bundles(), 1);
        assert!(step
            .to_root
            .iter()
            .flat_map(|b| &b.items)
            .any(|i| matches!(i, BundleItem::Ack { of_seq: 0 })));
    }

    #[test]
    fn reliable_bundle_retransmits_until_acked() {
        let mut c = cluster();
        let step = c.step(&[], &[act(0, 0, 0)], 0);
        let seq = step.to_root[0].seq;
        // Unacked: due at 0 + 50.
        let step = c.step(&[], &[], 50);
        assert_eq!(step.to_root.len(), 1);
        assert_eq!(step.to_root[0].seq, seq, "same bundle, same seq");
        assert_eq!(c.bundle_retransmissions(), 1);
        // A stale ack (wrong seq) must not clear it...
        let stale = RootBundle {
            to: c.id(),
            seq: 7,
            sent_at_cycle: 0,
            ack_of: Some(seq + 99),
            decisions: vec![],
        };
        let _ = c.step(&[stale], &[], 60);
        // ...so the bundle is retransmitted again at its next backoff.
        let step = c.step(&[], &[], 150);
        assert_eq!(step.to_root.len(), 1);
        assert_eq!(step.to_root[0].seq, seq);
        // The exact ack clears it; no further retransmissions.
        let ack = RootBundle {
            to: c.id(),
            seq: 8,
            sent_at_cycle: 0,
            ack_of: Some(seq),
            decisions: vec![],
        };
        let _ = c.step(&[ack], &[], 160);
        let step = c.step(&[], &[], 1_000);
        assert!(step.to_root.iter().all(|b| !b.needs_ack()));
    }

    #[test]
    fn departure_releases_the_granted_budget() {
        let mut c = cluster();
        let _ = c.step(&[], &[act(0, 0, 10)], 10);
        let _ = c.step(&[grant(&c, 0, 0, 300)], &[], 20);
        // Ack the request bundle so the release can travel.
        let ack = RootBundle {
            to: c.id(),
            seq: 1,
            sent_at_cycle: 0,
            ack_of: Some(0),
            decisions: vec![],
        };
        let _ = c.step(&[ack], &[], 30);
        // Client 0 goes silent; the shard watchdog reclaims it.
        let step = c.step(&[], &[], 2_000);
        assert_eq!(c.inner().reclamations(), 1);
        let releases: Vec<&BundleItem> = step
            .to_root
            .iter()
            .flat_map(|b| &b.items)
            .filter(|i| matches!(i, BundleItem::Release { .. }))
            .collect();
        assert_eq!(
            releases,
            vec![&BundleItem::Release {
                app: AppId(0),
                rate_milli: 300
            }]
        );
    }

    #[test]
    fn idle_cluster_heartbeats_its_digest() {
        let mut c = cluster();
        let step = c.step(&[], &[], 0);
        assert_eq!(step.to_root.len(), 1, "first step announces the shard");
        assert!(!step.to_root[0].needs_ack());
        // Quiet until the digest interval elapses.
        let step = c.step(&[], &[], 5_000);
        assert!(step.to_root.is_empty());
        let step = c.step(&[], &[], 10_000);
        assert_eq!(step.to_root.len(), 1);
        assert_eq!(step.to_root[0].live_clients, 0);
    }
}

//! The root arbiter of the two-level admission hierarchy.
//!
//! The root owns the platform's *global* guaranteed-capacity budget, in
//! integer milli-items/cycle so the conservation invariant
//! `granted_total == Σ granted per cluster ≤ capacity` holds exactly —
//! no float drift across a million grant/release round trips. Per
//! received [`ClusterBundle`] it applies acks, releases and requests in
//! item order, answers with one coalesced [`RootBundle`] (decisions plus
//! the ack of the cluster's bundle), and keeps a stop-and-wait
//! retransmission towards each cluster for decision bundles.
//!
//! Cluster bundles are deduplicated by `(cluster, seq)` through one
//! sequence window per cluster; a cluster numbers its bundles
//! consecutively, so its window stays O(1) however long it runs. A
//! delayed-then-retransmitted bundle is answered (its ack may have been
//! the lost half) but its budget items are **not** re-applied, so a
//! duplicate `bundleMsg` can neither double-grant nor double-release.
//!
//! Like the shard RMs watch their clients, the root watches its
//! clusters: a shard silent past the timeout is quarantined and its
//! entire granted budget reclaimed, so one dead cluster manager cannot
//! strand capacity the rest of the fleet could use.

use std::collections::{BTreeMap, BTreeSet};

use crate::app::AppId;
use crate::client::RetryPolicy;
use crate::protocol::{BundleItem, ClusterBundle, ClusterId, GrantDecision, RootBundle, SeqWindow};
use crate::rm::earliest;

/// A decision bundle awaiting the destination cluster's ack.
#[derive(Debug, Clone)]
struct PendingDown {
    bundle: RootBundle,
    attempts: u32,
    next_retry_cycle: u64,
}

/// The root arbiter: global budget owner and cluster supervisor.
#[derive(Debug)]
pub struct RootArbiter {
    capacity_milli: u64,
    granted_total: u64,
    /// Per-cluster, per-app granted guaranteed rates.
    granted: BTreeMap<ClusterId, BTreeMap<AppId, u64>>,
    /// Cluster bundle seqs already applied, per cluster (the dedup guard).
    seen: BTreeMap<ClusterId, SeqWindow>,
    /// At most one unacked decision bundle per cluster (stop-and-wait).
    pending_down: BTreeMap<ClusterId, PendingDown>,
    next_seq: u64,
    retry: RetryPolicy,
    /// Last cycle each registered cluster was heard from.
    last_heard: BTreeMap<ClusterId, u64>,
    /// Last reported live-client digest per cluster.
    live_clients: BTreeMap<ClusterId, u64>,
    /// Silence tolerated before a cluster is quarantined.
    cluster_timeout_cycles: u64,
    quarantined: BTreeSet<ClusterId>,
    grants: u64,
    denials: u64,
    releases: u64,
    duplicate_bundles: u64,
    cluster_reclaims: u64,
    retransmissions: u64,
}

impl RootArbiter {
    /// A root owning `capacity_milli` of guaranteed budget, supervising
    /// clusters with the given bundle retry pacing and silence timeout.
    pub fn new(capacity_milli: u64, retry: RetryPolicy, cluster_timeout_cycles: u64) -> Self {
        RootArbiter {
            capacity_milli,
            granted_total: 0,
            granted: BTreeMap::new(),
            seen: BTreeMap::new(),
            pending_down: BTreeMap::new(),
            next_seq: 0,
            retry,
            last_heard: BTreeMap::new(),
            live_clients: BTreeMap::new(),
            cluster_timeout_cycles,
            quarantined: BTreeSet::new(),
            grants: 0,
            denials: 0,
            releases: 0,
            duplicate_bundles: 0,
            cluster_reclaims: 0,
            retransmissions: 0,
        }
    }

    /// Registers a cluster for supervision, heard as of `now_cycle`.
    pub fn register_cluster(&mut self, cluster: ClusterId, now_cycle: u64) {
        self.last_heard.insert(cluster, now_cycle);
        self.granted.entry(cluster).or_default();
    }

    /// The global budget, in milli-items/cycle.
    pub fn capacity_milli(&self) -> u64 {
        self.capacity_milli
    }

    /// Currently granted budget across all clusters.
    pub fn granted_total_milli(&self) -> u64 {
        self.granted_total
    }

    /// Budget still available for new grants.
    pub fn remaining_milli(&self) -> u64 {
        self.capacity_milli - self.granted_total
    }

    /// Budget currently granted to `cluster`.
    pub fn granted_to_milli(&self, cluster: ClusterId) -> u64 {
        self.granted.get(&cluster).map_or(0, |g| g.values().sum())
    }

    /// Requests granted so far.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Requests denied for lack of budget (or a quarantined requester).
    pub fn denials(&self) -> u64 {
        self.denials
    }

    /// Releases applied.
    pub fn releases(&self) -> u64 {
        self.releases
    }

    /// Retransmitted cluster bundles the dedup guard suppressed.
    pub fn duplicate_bundles(&self) -> u64 {
        self.duplicate_bundles
    }

    /// Clusters reclaimed by the root watchdog.
    pub fn cluster_reclaims(&self) -> u64 {
        self.cluster_reclaims
    }

    /// Decision bundles retransmitted after a missing cluster ack.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Whether `cluster` is quarantined.
    pub fn is_quarantined(&self, cluster: ClusterId) -> bool {
        self.quarantined.contains(&cluster)
    }

    /// Last reported live-client digest per cluster, in id order.
    pub fn live_client_digests(&self) -> &BTreeMap<ClusterId, u64> {
        &self.live_clients
    }

    /// True when no decision bundle is awaiting an ack.
    pub fn is_quiescent(&self) -> bool {
        self.pending_down.is_empty()
    }

    /// Applies one received cluster bundle and returns the response
    /// bundle, if the exchange calls for one.
    pub fn receive(&mut self, bundle: &ClusterBundle, now_cycle: u64) -> Option<RootBundle> {
        let cluster = bundle.cluster;
        self.last_heard.insert(cluster, now_cycle);
        self.live_clients.insert(cluster, bundle.live_clients);
        // Bundle-level acks ride on any frame and always apply: only the
        // ack matching the pending decision bundle's seq clears it.
        for item in &bundle.items {
            if let BundleItem::Ack { of_seq } = item {
                if self
                    .pending_down
                    .get(&cluster)
                    .is_some_and(|p| p.bundle.seq == *of_seq)
                {
                    self.pending_down.remove(&cluster);
                }
            }
        }
        // The dedup guard: budget items of an already-seen bundle must
        // not re-apply (a duplicated `bundleMsg` would otherwise
        // double-grant or double-release).
        if !self.seen.entry(cluster).or_default().insert(bundle.seq) {
            self.duplicate_bundles += 1;
            // Our response may have been the lost half: re-answer with
            // the pending decision bundle, or a bare re-ack.
            if let Some(p) = self.pending_down.get(&cluster) {
                return Some(p.bundle.clone());
            }
            if bundle.needs_ack() {
                return Some(self.fresh_bundle(cluster, Some(bundle.seq), Vec::new(), now_cycle));
            }
            return None;
        }
        let mut decisions = Vec::new();
        for item in &bundle.items {
            match *item {
                BundleItem::Ack { .. } => {}
                BundleItem::Release { app, rate_milli } => {
                    self.apply_release(cluster, app, rate_milli);
                }
                BundleItem::Request { app, rate_milli } => {
                    decisions.push(self.decide(cluster, app, rate_milli));
                }
            }
        }
        if decisions.is_empty() {
            return bundle
                .needs_ack()
                .then(|| self.fresh_bundle(cluster, Some(bundle.seq), Vec::new(), now_cycle));
        }
        // Decisions still unacked from an earlier bundle travel again on
        // the superseding frame: the cluster applies each at most once
        // (its own dedup + idempotent decision handling), and nothing is
        // lost if the earlier frame was dropped.
        if let Some(prev) = self.pending_down.remove(&cluster) {
            let mut merged = prev.bundle.decisions;
            merged.extend(decisions);
            decisions = merged;
        }
        let out = self.fresh_bundle(cluster, Some(bundle.seq), decisions, now_cycle);
        self.pending_down.insert(
            cluster,
            PendingDown {
                bundle: out.clone(),
                attempts: 1,
                next_retry_cycle: now_cycle + self.retry.backoff_cycles(0),
            },
        );
        Some(out)
    }

    fn decide(&mut self, cluster: ClusterId, app: AppId, rate_milli: u64) -> GrantDecision {
        if self.quarantined.contains(&cluster) {
            self.denials += 1;
            return GrantDecision::Denied { app };
        }
        let held = self.granted.entry(cluster).or_default();
        if let Some(&already) = held.get(&app) {
            // Idempotent re-request (e.g. after a cluster restart): the
            // existing grant stands.
            return GrantDecision::Granted {
                app,
                rate_milli: already,
            };
        }
        if self.granted_total + rate_milli <= self.capacity_milli {
            held.insert(app, rate_milli);
            self.granted_total += rate_milli;
            self.grants += 1;
            GrantDecision::Granted { app, rate_milli }
        } else {
            self.denials += 1;
            GrantDecision::Denied { app }
        }
    }

    fn apply_release(&mut self, cluster: ClusterId, app: AppId, rate_milli: u64) {
        if let Some(held) = self.granted.get_mut(&cluster) {
            if let Some(was) = held.remove(&app) {
                debug_assert_eq!(was, rate_milli, "release must match the grant");
                self.granted_total -= was;
                self.releases += 1;
            }
        }
    }

    fn fresh_bundle(
        &mut self,
        to: ClusterId,
        ack_of: Option<u64>,
        decisions: Vec<GrantDecision>,
        now_cycle: u64,
    ) -> RootBundle {
        let seq = self.next_seq;
        self.next_seq += 1;
        RootBundle {
            to,
            seq,
            sent_at_cycle: now_cycle,
            ack_of,
            decisions,
        }
    }

    /// Forcibly reclaims every grant held by `cluster` and quarantines
    /// it. Idempotent; used by the watchdog and directly by operators.
    pub fn reclaim_cluster(&mut self, cluster: ClusterId) {
        if let Some(held) = self.granted.get_mut(&cluster) {
            let total: u64 = held.values().sum();
            if total > 0 || !held.is_empty() {
                held.clear();
                self.granted_total -= total;
            }
        }
        if self.quarantined.insert(cluster) {
            self.cluster_reclaims += 1;
            // A quarantined cluster's pending decisions are moot.
            self.pending_down.remove(&cluster);
        }
        self.last_heard.remove(&cluster);
    }

    /// Advances the root's timers: retransmits due decision bundles (in
    /// ascending cluster-id order) and runs the cluster watchdog.
    pub fn poll(&mut self, now_cycle: u64) -> Vec<RootBundle> {
        let mut out = Vec::new();
        for (_, p) in self.pending_down.iter_mut() {
            if now_cycle < p.next_retry_cycle {
                continue;
            }
            p.attempts += 1;
            p.next_retry_cycle =
                now_cycle + self.retry.backoff_cycles(p.attempts.saturating_sub(1));
            p.bundle.sent_at_cycle = now_cycle;
            self.retransmissions += 1;
            out.push(p.bundle.clone());
        }
        if let Some(cutoff) = now_cycle.checked_sub(self.cluster_timeout_cycles) {
            let silent: Vec<ClusterId> = self
                .last_heard
                .iter()
                .filter(|(_, &heard)| heard <= cutoff)
                .map(|(&c, _)| c)
                .collect();
            for cluster in silent {
                self.reclaim_cluster(cluster);
            }
        }
        out
    }

    /// The next cycle at which [`poll`](Self::poll) has work.
    pub fn next_deadline(&self) -> Option<u64> {
        let retry = self.pending_down.values().map(|p| p.next_retry_cycle).min();
        let watchdog = self
            .last_heard
            .values()
            .map(|&h| h + self.cluster_timeout_cycles)
            .min();
        earliest(retry, watchdog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root(capacity_milli: u64) -> RootArbiter {
        RootArbiter::new(capacity_milli, RetryPolicy::new(50, 4), 10_000)
    }

    fn request(cluster: u32, seq: u64, app: u32, rate_milli: u64) -> ClusterBundle {
        ClusterBundle {
            cluster: ClusterId(cluster),
            seq,
            sent_at_cycle: 0,
            live_clients: 1,
            items: vec![BundleItem::Request {
                app: AppId(app),
                rate_milli,
            }],
        }
    }

    #[test]
    fn grants_until_the_budget_is_spent() {
        let mut r = root(1_000);
        r.register_cluster(ClusterId(0), 0);
        r.register_cluster(ClusterId(1), 0);
        let out = r.receive(&request(0, 0, 0, 600), 10).expect("decision");
        assert_eq!(
            out.decisions,
            vec![GrantDecision::Granted {
                app: AppId(0),
                rate_milli: 600
            }]
        );
        assert_eq!(out.ack_of, Some(0));
        // A grant larger than the remaining budget is denied, even though
        // it would have fit the *initial* budget.
        let out = r.receive(&request(1, 0, 1, 500), 20).expect("decision");
        assert_eq!(out.decisions, vec![GrantDecision::Denied { app: AppId(1) }]);
        assert_eq!(r.denials(), 1);
        // An exactly-fitting grant is allowed: the check is ≤, not <.
        // The still-unacked denial rides along on the superseding frame.
        let out = r.receive(&request(1, 1, 2, 400), 30).expect("decision");
        assert_eq!(
            out.decisions,
            vec![
                GrantDecision::Denied { app: AppId(1) },
                GrantDecision::Granted {
                    app: AppId(2),
                    rate_milli: 400
                }
            ]
        );
        assert_eq!(r.remaining_milli(), 0);
        assert_eq!(r.granted_total_milli(), 1_000);
    }

    #[test]
    fn duplicate_bundle_neither_double_grants_nor_double_releases() {
        let mut r = root(1_000);
        r.register_cluster(ClusterId(0), 0);
        let b = request(0, 0, 0, 400);
        let first = r.receive(&b, 10).expect("decision");
        assert_eq!(r.granted_total_milli(), 400);
        // The duplicated bundle re-elicits the same pending decision
        // frame; the budget is untouched and no new seq is minted.
        let again = r.receive(&b, 40).expect("re-answer");
        assert_eq!(again.seq, first.seq);
        assert_eq!(again.decisions, first.decisions);
        assert_eq!(r.granted_total_milli(), 400);
        assert_eq!(r.grants(), 1);
        assert_eq!(r.duplicate_bundles(), 1);
        // Same for a duplicated release.
        let rel = ClusterBundle {
            cluster: ClusterId(0),
            seq: 1,
            sent_at_cycle: 0,
            live_clients: 0,
            items: vec![
                BundleItem::Ack { of_seq: first.seq },
                BundleItem::Release {
                    app: AppId(0),
                    rate_milli: 400,
                },
            ],
        };
        let _ = r.receive(&rel, 50);
        assert_eq!(r.granted_total_milli(), 0);
        let _ = r.receive(&rel, 80);
        assert_eq!(r.granted_total_milli(), 0, "no double release");
        assert_eq!(r.releases(), 1);
    }

    #[test]
    fn stale_ack_does_not_clear_a_newer_decision_bundle() {
        let mut r = root(1_000);
        r.register_cluster(ClusterId(0), 0);
        let first = r.receive(&request(0, 0, 0, 100), 10).expect("decision");
        // Ack it properly; then a second request round.
        let ack = ClusterBundle {
            cluster: ClusterId(0),
            seq: 1,
            sent_at_cycle: 0,
            live_clients: 1,
            items: vec![BundleItem::Ack { of_seq: first.seq }],
        };
        assert!(r.receive(&ack, 20).is_none());
        let second = r.receive(&request(0, 2, 1, 100), 30).expect("decision");
        assert_ne!(second.seq, first.seq);
        // A stale ack of the *first* bundle must not clear the second.
        let stale = ClusterBundle {
            cluster: ClusterId(0),
            seq: 3,
            sent_at_cycle: 0,
            live_clients: 1,
            items: vec![BundleItem::Ack { of_seq: first.seq }],
        };
        let _ = r.receive(&stale, 40);
        assert!(!r.is_quiescent(), "newer decision bundle still pending");
        let due = r.next_deadline().expect("retransmission armed");
        assert_eq!(r.poll(due).len(), 1, "still retransmitting");
    }

    #[test]
    fn unacked_decisions_ride_the_superseding_bundle() {
        let mut r = root(1_000);
        r.register_cluster(ClusterId(0), 0);
        let first = r.receive(&request(0, 0, 0, 100), 10).expect("decision");
        // The cluster never acks but sends a new request: the new frame
        // carries both decisions, so the (possibly dropped) first frame
        // is not load-bearing.
        let second = r.receive(&request(0, 1, 1, 100), 20).expect("decision");
        assert_eq!(second.decisions.len(), 2);
        assert_eq!(second.decisions[0], first.decisions[0]);
        assert_eq!(second.decisions[1].app(), AppId(1));
    }

    #[test]
    fn quarantined_cluster_budget_is_reclaimed_and_requests_denied() {
        let mut r = root(1_000);
        r.register_cluster(ClusterId(0), 0);
        r.register_cluster(ClusterId(1), 0);
        let _ = r.receive(&request(0, 0, 0, 700), 10);
        assert_eq!(r.granted_to_milli(ClusterId(0)), 700);
        // Cluster 0 goes silent past the 10k timeout; cluster 1 stays
        // chatty.
        let keepalive = ClusterBundle {
            cluster: ClusterId(1),
            seq: 0,
            sent_at_cycle: 9_000,
            live_clients: 3,
            items: vec![],
        };
        let _ = r.receive(&keepalive, 9_000);
        let _ = r.poll(10_050);
        assert!(r.is_quarantined(ClusterId(0)));
        assert!(!r.is_quarantined(ClusterId(1)));
        assert_eq!(r.cluster_reclaims(), 1);
        assert_eq!(r.granted_total_milli(), 0, "budget returned to the pool");
        // Reclamation is idempotent.
        r.reclaim_cluster(ClusterId(0));
        assert_eq!(r.cluster_reclaims(), 1);
        assert_eq!(r.granted_total_milli(), 0);
        // The freed budget serves the live cluster; the dead one is
        // denied on arrival.
        let out = r.receive(&request(1, 1, 5, 900), 10_100).expect("decision");
        assert!(matches!(out.decisions[0], GrantDecision::Granted { .. }));
        let out = r.receive(&request(0, 1, 9, 10), 10_200).expect("decision");
        assert_eq!(out.decisions, vec![GrantDecision::Denied { app: AppId(9) }]);
    }

    #[test]
    fn zero_and_single_cluster_hierarchies_degenerate_cleanly() {
        // Zero clusters: nothing to poll, no deadline, full budget.
        let mut r = root(500);
        assert_eq!(r.next_deadline(), None);
        assert!(r.poll(1_000_000).is_empty());
        assert_eq!(r.remaining_milli(), 500);
        // Single cluster: the root degenerates to the flat feasibility
        // check Σ granted ≤ capacity.
        r.register_cluster(ClusterId(0), 0);
        let out = r.receive(&request(0, 0, 0, 300), 10).expect("decision");
        assert!(matches!(out.decisions[0], GrantDecision::Granted { .. }));
        let out = r.receive(&request(0, 1, 1, 300), 20).expect("decision");
        assert_eq!(out.decisions.len(), 2, "unacked decision rides along");
        assert_eq!(out.decisions[1], GrantDecision::Denied { app: AppId(1) });
        assert_eq!(r.granted_total_milli(), 300);
    }

    #[test]
    fn retransmits_decision_bundles_in_cluster_order_until_acked() {
        let mut r = root(1_000);
        for c in [2u32, 0, 1] {
            r.register_cluster(ClusterId(c), 0);
        }
        let _ = r.receive(&request(2, 0, 20, 10), 10);
        let _ = r.receive(&request(0, 0, 0, 10), 11);
        let _ = r.receive(&request(1, 0, 10, 10), 12);
        let out = r.poll(100);
        let order: Vec<ClusterId> = out.iter().map(|b| b.to).collect();
        assert_eq!(order, vec![ClusterId(0), ClusterId(1), ClusterId(2)]);
        assert_eq!(r.retransmissions(), 3);
    }
}

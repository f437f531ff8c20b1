//! The Resource Manager (RM): the centralized control unit of §V.
//!
//! "The RM has a knowledge about the global state of the NoC (i.e., which
//! sender is active) and which resources are occupied." Activation and
//! termination messages are processed in arrival order; each initiates a
//! transition to a different system mode. Before changing rates, the RM
//! sends every active client a `stopMsg`, then a `confMsg` carrying the
//! new mode and rate, after which clients unblock.
//!
//! Two APIs coexist:
//!
//! * the **instantaneous** API ([`request_admission`], [`terminate`]) used
//!   when the control plane is ideal — messages are only logged, never
//!   lost, and rounds complete atomically;
//! * the **message-driven** API ([`receive`], [`poll`]) used under fault
//!   injection: every message travels in a sequence-numbered `Envelope`,
//!   `confMsg`s are retransmitted with bounded backoff until acknowledged,
//!   a heartbeat-driven [watchdog](WatchdogConfig) reclaims the bandwidth
//!   of dead or hung clients via a forced mode transition, flapping
//!   clients are quarantined, and an unreachable client mid-transition
//!   degrades the RM into **safe mode** (previous rates retained, new
//!   admissions refused) instead of deadlocking the platform.
//!
//! [`request_admission`]: ResourceManager::request_admission
//! [`terminate`]: ResourceManager::terminate
//! [`receive`]: ResourceManager::receive
//! [`poll`]: ResourceManager::poll
//!
//! At fleet scale a single RM is a wall; the [`cluster`] and [`root`]
//! submodules layer N of these managers (one per disjoint client shard)
//! under a [`root::RootArbiter`] that owns the global budget, with
//! control traffic coalesced into per-step bundles.

pub mod cluster;
pub mod root;

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use autoplat_sim::{SimDuration, SimTime};

use crate::app::{AppId, Application};
use crate::client::RetryPolicy;
use crate::error::{check_latency, AdmissionError};
use crate::hash::{FxHashMap, FxHashSet};
use crate::modes::{RatePolicy, SystemMode};
use crate::protocol::{ControlMessage, Endpoint, Envelope, MessageLog, ReceiveState};

/// Watchdog and degradation parameters for the message-driven RM.
///
/// A client whose heartbeat has not been heard for `timeout_cycles` is
/// presumed dead: its application is forcibly terminated (a mode
/// transition that redistributes its bandwidth to the survivors). A
/// client reclaimed `quarantine_threshold` times is flapping and is
/// refused re-admission for `quarantine_cooldown_cycles`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Heartbeat silence tolerated before reclamation.
    pub timeout_cycles: u64,
    /// Reclamations after which an application is quarantined.
    pub quarantine_threshold: u32,
    /// How long a quarantined application stays refused.
    pub quarantine_cooldown_cycles: u64,
}

impl WatchdogConfig {
    /// Validating constructor.
    pub fn try_new(
        timeout_cycles: u64,
        quarantine_threshold: u32,
        quarantine_cooldown_cycles: u64,
    ) -> Result<Self, AdmissionError> {
        if timeout_cycles == 0 {
            return Err(AdmissionError::InvalidInterval {
                what: "watchdog timeout",
            });
        }
        if quarantine_threshold == 0 {
            return Err(AdmissionError::InvalidInterval {
                what: "quarantine threshold",
            });
        }
        Ok(WatchdogConfig {
            timeout_cycles,
            quarantine_threshold,
            quarantine_cooldown_cycles,
        })
    }
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            timeout_cycles: 2_000,
            quarantine_threshold: 3,
            quarantine_cooldown_cycles: 10_000,
        }
    }
}

/// The earlier of two optional deadlines.
pub(crate) fn earliest(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// An unacknowledged `confMsg` the RM keeps retransmitting.
#[derive(Debug, Clone, Copy)]
struct PendingConf {
    envelope: Envelope,
    attempts: u32,
    next_retry_cycle: u64,
}

/// Result of an admission request.
#[derive(Debug, Clone)]
pub struct AdmissionOutcome {
    /// Whether the application was admitted.
    pub admitted: bool,
    /// The system mode after processing.
    pub mode: SystemMode,
    /// The rates (items/cycle) assigned to every active application after
    /// the transition, including the new one when admitted.
    pub rates: Vec<(AppId, autoplat_netcalc::TokenBucket)>,
}

/// The Resource Manager.
///
/// Per-client state that is only ever looked up by id lives in hashed
/// maps with a seedless hasher, so hashing and `Debug` output are the
/// same in every process; state whose order is observed — the active
/// member list, the quarantine, the degraded set and the conf retry
/// index — stays ordered.
///
/// # Examples
///
/// ```
/// use autoplat_admission::{ResourceManager, Application, AppId};
/// use autoplat_admission::modes::SymmetricPolicy;
/// use autoplat_sim::SimTime;
///
/// let mut rm = ResourceManager::new(SymmetricPolicy::new(1.0, 8.0), 50.0);
/// let out = rm.request_admission(Application::best_effort(AppId(0), 0), SimTime::ZERO);
/// assert!(out.admitted);
/// assert_eq!(rm.mode().0, 1);
/// ```
#[derive(Debug)]
pub struct ResourceManager<P> {
    policy: P,
    /// The active applications in admission order (the mode's member
    /// list); `active_ids` indexes it for membership tests.
    active: Vec<Application>,
    /// Index over `active` keyed by client id, so membership checks and
    /// removals need no linear scan.
    active_ids: FxHashSet<AppId>,
    log: MessageLog,
    mode_changes: u64,
    rejections: u64,
    /// One-way latency of a control message, in nanoseconds.
    message_latency_ns: f64,
    /// Accumulated reconfiguration overhead.
    overhead: SimDuration,
    // --- fault-tolerance state (message-driven API) ---
    watchdog: WatchdogConfig,
    retry: RetryPolicy,
    /// Application metadata known to the RM, keyed by id, so an `actMsg`
    /// (which carries only the id) can be resolved to demands.
    known: FxHashMap<AppId, Application>,
    /// Last cycle each monitored client was heard from.
    last_heartbeat: FxHashMap<AppId, u64>,
    /// Min-heap of `(heard_cycle, app)` over `last_heartbeat`, so the
    /// watchdog sweep and deadline query never scan every monitored
    /// client. It is cleaned lazily: an entry is *live* iff
    /// `last_heartbeat[app] == heard_cycle`, and a touch pushes only when
    /// the client's heard cycle changes, leaving the superseded entry in
    /// place as *stale*.
    ///
    /// Invariants: every monitored client has a live entry (several only
    /// after touches that went back in time to a cycle it was heard at
    /// before), and the top entry is live, because stale entries are
    /// popped off the top after every touch and untouch and `poll` pops
    /// every entry at or before its cutoff. The top therefore gives the
    /// exact watchdog deadline. Size bound: the live entries plus one
    /// stale entry per heard-cycle change at a cycle after the last
    /// poll's cutoff — with `poll` on schedule, the monitored clients
    /// plus the touches within about one watchdog timeout.
    heartbeat_index: BinaryHeap<Reverse<(u64, AppId)>>,
    /// Reclamation counts feeding the quarantine decision.
    reclaim_counts: FxHashMap<AppId, u32>,
    /// Quarantined applications and the first cycle they may return.
    quarantined: BTreeMap<AppId, u64>,
    /// Applications whose `confMsg` exhausted its retry budget; non-empty
    /// means safe mode.
    degraded: BTreeSet<AppId>,
    next_seq: u64,
    rx: ReceiveState,
    /// At most one unacknowledged `confMsg` per client (newer rounds
    /// supersede older ones), looked up by client id; the retransmission
    /// sweep finds due confs through the retry index and sorts them by id
    /// itself.
    pending_confs: FxHashMap<AppId, PendingConf>,
    /// `(next_retry_cycle, app)` index over `pending_confs`, so due
    /// retransmissions are found without scanning every pending conf.
    conf_retry_index: BTreeSet<(u64, AppId)>,
    /// The rate each active client was told in the last conf round; feeds
    /// duplicate-activation re-confirmation without recomputing the
    /// policy, and the delta-conf optimisation.
    last_rates: FxHashMap<AppId, f64>,
    /// When set, a reconfiguration round only sends `stopMsg`/`confMsg`
    /// to clients whose rate actually changed (newly admitted clients
    /// always get one). Off by default: the paper's protocol re-confirms
    /// every client on every transition.
    delta_confs: bool,
    /// When cleared, the RM stops appending to its [`MessageLog`] (the
    /// per-message trace is O(total messages) memory — prohibitive at
    /// fleet scale).
    logging: bool,
    /// When set, activations skip the policy feasibility check (and its
    /// O(active) candidate clone): an upstream arbiter — the root of the
    /// hierarchy — has already guaranteed the set is feasible. Quarantine,
    /// safe-mode and registration gates still apply.
    preapproved: bool,
    /// Clients that left the active set (termination or reclamation)
    /// since the last [`take_departures`](Self::take_departures) call.
    departures: Vec<AppId>,
    reclamations: u64,
    safe_mode_entries: u64,
    conf_retransmissions: u64,
}

impl<P: RatePolicy> ResourceManager<P> {
    /// Creates an RM with the given policy and per-message latency (ns).
    ///
    /// # Panics
    ///
    /// Panics if `message_latency_ns` is negative or not finite; use
    /// [`ResourceManager::try_new`] for a typed error.
    pub fn new(policy: P, message_latency_ns: f64) -> Self {
        ResourceManager::try_new(policy, message_latency_ns).expect("invalid message latency")
    }

    /// Creates an RM, validating the latency.
    pub fn try_new(policy: P, message_latency_ns: f64) -> Result<Self, AdmissionError> {
        let message_latency_ns = check_latency(message_latency_ns)?;
        Ok(ResourceManager {
            policy,
            active: Vec::new(),
            active_ids: FxHashSet::default(),
            log: MessageLog::new(),
            mode_changes: 0,
            rejections: 0,
            message_latency_ns,
            overhead: SimDuration::ZERO,
            watchdog: WatchdogConfig::default(),
            retry: RetryPolicy::default(),
            known: FxHashMap::default(),
            last_heartbeat: FxHashMap::default(),
            heartbeat_index: BinaryHeap::new(),
            reclaim_counts: FxHashMap::default(),
            quarantined: BTreeMap::new(),
            degraded: BTreeSet::new(),
            next_seq: 0,
            rx: ReceiveState::new(),
            pending_confs: FxHashMap::default(),
            conf_retry_index: BTreeSet::new(),
            last_rates: FxHashMap::default(),
            delta_confs: false,
            logging: true,
            preapproved: false,
            departures: Vec::new(),
            reclamations: 0,
            safe_mode_entries: 0,
            conf_retransmissions: 0,
        })
    }

    /// Replaces the watchdog parameters.
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Replaces the `confMsg` retransmission policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Restricts reconfiguration rounds to clients whose rate changed.
    pub fn with_delta_confs(mut self, on: bool) -> Self {
        self.delta_confs = on;
        self
    }

    /// Marks admissions as pre-approved by an upstream arbiter: the
    /// per-activation policy feasibility check is skipped. Only sound
    /// when every critical admission was granted against the same
    /// capacity this RM's policy would enforce.
    pub fn with_preapproved(mut self, on: bool) -> Self {
        self.preapproved = on;
        self
    }

    /// Enables or disables the per-message [`MessageLog`].
    pub fn set_logging(&mut self, on: bool) {
        self.logging = on;
    }

    /// The current system mode.
    pub fn mode(&self) -> SystemMode {
        SystemMode(self.active.len())
    }

    /// The rate policy in force.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The currently active applications.
    pub fn active(&self) -> &[Application] {
        &self.active
    }

    /// Whether `app` is in the active set (indexed lookup, no scan).
    fn is_active(&self, app: AppId) -> bool {
        self.active_ids.contains(&app)
    }

    /// Adds `app` to the active set, keeping the id index in sync.
    fn activate(&mut self, app: Application) {
        self.active_ids.insert(app.id);
        self.active.push(app);
    }

    /// Removes `app` from the active set; `true` when it was present.
    fn deactivate(&mut self, app: AppId) -> bool {
        if !self.active_ids.remove(&app) {
            return false;
        }
        self.active.retain(|a| a.id != app);
        true
    }

    /// The protocol message log.
    pub fn log(&self) -> &MessageLog {
        &self.log
    }

    /// Number of mode transitions performed.
    pub fn mode_changes(&self) -> u64 {
        self.mode_changes
    }

    /// Number of refused admissions.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Total synchronization overhead accumulated by reconfiguration
    /// rounds — the quantity the paper says must be traded off against
    /// the frequency of mode changes at design time.
    pub fn total_overhead(&self) -> SimDuration {
        self.overhead
    }

    /// Processes an `actMsg`: attempts to admit `app` at `now`.
    ///
    /// On success the system transitions to the next mode and every
    /// active client is re-configured (stop + config round). On failure
    /// (the policy cannot serve the resulting set) the system state is
    /// unchanged.
    pub fn request_admission(&mut self, app: Application, now: SimTime) -> AdmissionOutcome {
        self.log_msg(now, ControlMessage::Activation { app: app.id });
        let mut candidate = self.active.clone();
        candidate.push(app);
        match self.compute_rates(&candidate) {
            Some(rates) => {
                self.activate(app);
                self.mode_changes += 1;
                let mode = self.mode();
                self.reconfigure(now, &rates, mode);
                AdmissionOutcome {
                    admitted: true,
                    mode,
                    rates,
                }
            }
            None => {
                self.rejections += 1;
                let mode = self.mode();
                let rates = self.compute_rates(&self.active.clone()).unwrap_or_default();
                AdmissionOutcome {
                    admitted: false,
                    mode,
                    rates,
                }
            }
        }
    }

    /// Processes a `terMsg`: removes `app` and reconfigures the rest.
    ///
    /// Unknown applications are ignored (idempotent termination).
    pub fn terminate(&mut self, app: AppId, now: SimTime) {
        self.log_msg(now, ControlMessage::Termination { app });
        if self.deactivate(app) {
            self.mode_changes += 1;
            self.departures.push(app);
            let mode = self.mode();
            if let Some(rates) = self.compute_rates(&self.active.clone()) {
                self.reconfigure(now, &rates, mode);
            }
        }
    }

    fn compute_rates(
        &self,
        active: &[Application],
    ) -> Option<Vec<(AppId, autoplat_netcalc::TokenBucket)>> {
        self.policy.contracts(active)
    }

    fn log_msg(&mut self, at: SimTime, message: ControlMessage) {
        if self.logging {
            self.log.record(at, message);
        }
    }

    /// Starts (or refreshes) watchdog monitoring of `app` as heard at
    /// `now_cycle`, keeping the watchdog index in sync: a changed heard
    /// cycle pushes a fresh entry, and the one it supersedes goes stale.
    fn touch(&mut self, app: AppId, now_cycle: u64) {
        if self.last_heartbeat.insert(app, now_cycle) != Some(now_cycle) {
            self.heartbeat_index.push(Reverse((now_cycle, app)));
            self.drop_stale_heartbeats();
        }
    }

    /// Records proof of life from `app` if the watchdog monitors it (any
    /// delivered message counts); unlike [`touch`](Self::touch), it never
    /// starts monitoring a client.
    fn heard_from(&mut self, app: AppId, now_cycle: u64) {
        if let Some(heard) = self.last_heartbeat.get_mut(&app) {
            if *heard != now_cycle {
                *heard = now_cycle;
                self.heartbeat_index.push(Reverse((now_cycle, app)));
                self.drop_stale_heartbeats();
            }
        }
    }

    /// Stops monitoring `app`; its index entries go stale.
    fn untouch(&mut self, app: AppId) {
        if self.last_heartbeat.remove(&app).is_some() {
            self.drop_stale_heartbeats();
        }
    }

    /// Whether the watchdog index entry `(heard, app)` is live.
    fn is_live_heartbeat(&self, app: AppId, heard: u64) -> bool {
        self.last_heartbeat.get(&app) == Some(&heard)
    }

    /// Pops stale entries off the top of the watchdog index, so the top
    /// is live.
    fn drop_stale_heartbeats(&mut self) {
        while let Some(&Reverse((heard, app))) = self.heartbeat_index.peek() {
            if self.is_live_heartbeat(app, heard) {
                break;
            }
            self.heartbeat_index.pop();
        }
    }

    /// Installs (or supersedes) the pending conf towards `app`, keeping
    /// the retry index in sync.
    fn set_pending_conf(&mut self, app: AppId, pending: PendingConf) {
        if let Some(old) = self.pending_confs.insert(app, pending) {
            self.conf_retry_index.remove(&(old.next_retry_cycle, app));
        }
        self.conf_retry_index
            .insert((pending.next_retry_cycle, app));
    }

    /// Clears any pending conf towards `app`, keeping the retry index in
    /// sync.
    fn clear_pending_conf(&mut self, app: AppId) {
        if let Some(old) = self.pending_confs.remove(&app) {
            self.conf_retry_index.remove(&(old.next_retry_cycle, app));
        }
    }

    /// Runs a stop + configure round and accounts its overhead: each
    /// active client receives a `stopMsg` and a `confMsg`; the round's
    /// duration is two message latencies (stop fan-out, config fan-out),
    /// during which senders are blocked.
    fn reconfigure(
        &mut self,
        now: SimTime,
        rates: &[(AppId, autoplat_netcalc::TokenBucket)],
        mode: SystemMode,
    ) {
        for (app, _) in rates {
            self.log_msg(now, ControlMessage::Stop { app: *app });
        }
        let config_at = now + SimDuration::from_ns(self.message_latency_ns);
        for (app, tb) in rates {
            self.log_msg(
                config_at,
                ControlMessage::Config {
                    app: *app,
                    mode,
                    rate: tb.rate(),
                },
            );
        }
        self.overhead += SimDuration::from_ns(2.0 * self.message_latency_ns);
    }

    // ------------------------------------------------------------------
    // Message-driven, fault-tolerant operation
    // ------------------------------------------------------------------

    /// Pre-registers application metadata so an `actMsg` (which carries
    /// only the id) can be resolved to criticality and demand.
    pub fn register(&mut self, app: Application) {
        self.known.insert(app.id, app);
    }

    /// The registered metadata for `app`, if any.
    pub fn known_app(&self, app: AppId) -> Option<&Application> {
        self.known.get(&app)
    }

    /// True while a `confMsg` retry budget is exhausted and the platform
    /// is running degraded: previous rates retained, admissions refused.
    pub fn is_safe_mode(&self) -> bool {
        !self.degraded.is_empty()
    }

    /// Applications reclaimed by the watchdog so far.
    pub fn reclamations(&self) -> u64 {
        self.reclamations
    }

    /// Times the RM entered safe mode.
    pub fn safe_mode_entries(&self) -> u64 {
        self.safe_mode_entries
    }

    /// `confMsg`s retransmitted after a missing ack.
    pub fn conf_retransmissions(&self) -> u64 {
        self.conf_retransmissions
    }

    /// Duplicated deliveries the RM suppressed.
    pub fn duplicates_suppressed(&self) -> u64 {
        self.rx.duplicates_suppressed()
    }

    /// `confMsg`s still awaiting acknowledgement.
    pub fn pending_conf_count(&self) -> usize {
        self.pending_confs.len()
    }

    /// The cycle until which `app` is quarantined, if it is.
    pub fn quarantined_until(&self, app: AppId) -> Option<u64> {
        self.quarantined.get(&app).copied()
    }

    /// Whether `app` could be admitted right now, with the refusal reason
    /// when not. (The policy check still happens at admission proper; this
    /// covers the fault-tolerance gates.)
    pub fn check_admissible(&self, app: AppId, now_cycle: u64) -> Result<(), AdmissionError> {
        if let Some(&until_cycle) = self.quarantined.get(&app) {
            if now_cycle < until_cycle {
                return Err(AdmissionError::Quarantined { app, until_cycle });
            }
        }
        if self.is_safe_mode() {
            return Err(AdmissionError::SafeMode);
        }
        Ok(())
    }

    fn envelope_to(&mut self, app: AppId, now_cycle: u64, message: ControlMessage) -> Envelope {
        let seq = self.next_seq;
        self.next_seq += 1;
        Envelope {
            from: Endpoint::Rm,
            to: Endpoint::Client(app),
            seq,
            sent_at_cycle: now_cycle,
            message,
        }
    }

    /// Emits the stop + config round as envelopes and arms retransmission
    /// for every `confMsg`. Also logs the round like the instantaneous
    /// path, so overhead accounting stays comparable.
    ///
    /// Under [`with_delta_confs`](Self::with_delta_confs) the round only
    /// covers clients whose rate changed since the last round they were
    /// told about (newly admitted clients always have).
    fn reconfigure_envelopes(&mut self, now_cycle: u64) -> Vec<Envelope> {
        let rates = self
            .compute_rates(&self.active.clone())
            .expect("active set was admitted, so rates exist");
        let mode = self.mode();
        let now = SimTime::from_ns(now_cycle as f64);
        let mut round: Vec<(AppId, f64)> = Vec::with_capacity(rates.len());
        for (app, tb) in &rates {
            let rate = tb.rate();
            let unchanged = self.last_rates.get(app) == Some(&rate);
            self.last_rates.insert(*app, rate);
            if !self.delta_confs || !unchanged {
                round.push((*app, rate));
            }
        }
        let mut out = Vec::with_capacity(2 * round.len());
        for &(app, _) in &round {
            self.log_msg(now, ControlMessage::Stop { app });
            out.push(self.envelope_to(app, now_cycle, ControlMessage::Stop { app }));
        }
        let conf_at = now + SimDuration::from_ns(self.message_latency_ns);
        for &(app, rate) in &round {
            let conf = ControlMessage::Config { app, mode, rate };
            self.log_msg(conf_at, conf);
            let envelope = self.envelope_to(app, now_cycle, conf);
            // A newer round supersedes any conf still in flight to the
            // same client.
            self.set_pending_conf(
                app,
                PendingConf {
                    envelope,
                    attempts: 1,
                    next_retry_cycle: now_cycle + self.retry.backoff_cycles(0),
                },
            );
            out.push(envelope);
        }
        self.overhead += SimDuration::from_ns(2.0 * self.message_latency_ns);
        out
    }

    /// Handles a delivered envelope idempotently, returning the envelopes
    /// to send in response (acks, stop/config rounds, refusals).
    pub fn receive(&mut self, envelope: Envelope, now_cycle: u64) -> Vec<Envelope> {
        let app = envelope.message.app();
        // Any message is proof of life for the watchdog.
        self.heard_from(app, now_cycle);
        let fresh = self.rx.accept(envelope.from, envelope.seq);
        if !fresh {
            return self.respond_to_duplicate(envelope, now_cycle);
        }
        match envelope.message {
            ControlMessage::Activation { app } => self.receive_activation(app, now_cycle),
            ControlMessage::Termination { app } => {
                let ack = self.envelope_to(
                    app,
                    now_cycle,
                    ControlMessage::Ack {
                        app,
                        of_seq: envelope.seq,
                    },
                );
                let mut out = vec![ack];
                out.extend(self.receive_termination(app, now_cycle));
                out
            }
            ControlMessage::Heartbeat { .. } => Vec::new(),
            ControlMessage::Ack { app, of_seq } => {
                // Only the ack of the *current* pending conf clears it;
                // a stale ack of a superseded round keeps retransmitting.
                if self
                    .pending_confs
                    .get(&app)
                    .is_some_and(|p| p.envelope.seq == of_seq)
                {
                    self.clear_pending_conf(app);
                }
                Vec::new()
            }
            // RM-originated kinds arriving here are protocol noise.
            ControlMessage::Stop { .. }
            | ControlMessage::Config { .. }
            | ControlMessage::Refusal { .. } => Vec::new(),
        }
    }

    /// A duplicated delivery re-elicits the current decision: the previous
    /// response may itself have been lost.
    fn respond_to_duplicate(&mut self, envelope: Envelope, now_cycle: u64) -> Vec<Envelope> {
        let app = envelope.message.app();
        match envelope.message {
            ControlMessage::Activation { .. } => {
                if self.is_active(app) {
                    // Already admitted: re-send this client's current conf
                    // from the rate cache (always fresh — every membership
                    // change reconfigures and refills it).
                    let mode = self.mode();
                    let Some(&rate) = self.last_rates.get(&app) else {
                        return Vec::new();
                    };
                    let conf = ControlMessage::Config { app, mode, rate };
                    vec![self.envelope_to(app, now_cycle, conf)]
                } else {
                    vec![self.envelope_to(app, now_cycle, ControlMessage::Refusal { app })]
                }
            }
            ControlMessage::Termination { .. } => {
                vec![self.envelope_to(
                    app,
                    now_cycle,
                    ControlMessage::Ack {
                        app,
                        of_seq: envelope.seq,
                    },
                )]
            }
            _ => Vec::new(),
        }
    }

    fn receive_activation(&mut self, app: AppId, now_cycle: u64) -> Vec<Envelope> {
        let now = SimTime::from_ns(now_cycle as f64);
        self.log_msg(now, ControlMessage::Activation { app });
        if self.is_active(app) {
            // Already active (e.g. re-activation racing a reclamation):
            // just re-confirm.
            return self.respond_to_duplicate(
                Envelope {
                    from: Endpoint::Client(app),
                    to: Endpoint::Rm,
                    seq: 0,
                    sent_at_cycle: now_cycle,
                    message: ControlMessage::Activation { app },
                },
                now_cycle,
            );
        }
        let refusal = |rm: &mut Self| {
            rm.rejections += 1;
            vec![rm.envelope_to(app, now_cycle, ControlMessage::Refusal { app })]
        };
        if self.check_admissible(app, now_cycle).is_err() {
            return refusal(self);
        }
        self.quarantined.remove(&app); // cooldown served
        let Some(&application) = self.known.get(&app) else {
            return refusal(self);
        };
        if !self.preapproved {
            let mut candidate = self.active.clone();
            candidate.push(application);
            if self.compute_rates(&candidate).is_none() {
                return refusal(self);
            }
        }
        self.activate(application);
        self.mode_changes += 1;
        self.touch(app, now_cycle);
        self.reconfigure_envelopes(now_cycle)
    }

    fn receive_termination(&mut self, app: AppId, now_cycle: u64) -> Vec<Envelope> {
        let now = SimTime::from_ns(now_cycle as f64);
        self.log_msg(now, ControlMessage::Termination { app });
        if !self.deactivate(app) {
            return Vec::new();
        }
        self.mode_changes += 1;
        self.departures.push(app);
        self.release(app);
        self.reconfigure_envelopes(now_cycle)
    }

    /// Drops every per-client obligation towards `app` after it leaves
    /// (termination or reclamation).
    fn release(&mut self, app: AppId) {
        self.untouch(app);
        self.clear_pending_conf(app);
        self.last_rates.remove(&app);
        // The unreachable client is gone; degradation ends with it.
        self.degraded.remove(&app);
        // A future incarnation of the client starts its sequence numbers
        // over.
        self.rx.forget(Endpoint::Client(app));
    }

    /// The next cycle at which [`poll`](Self::poll) has work: a due
    /// `confMsg` retransmission or a watchdog expiry.
    pub fn next_deadline(&self) -> Option<u64> {
        let retry = self.conf_retry_index.iter().next().map(|&(cycle, _)| cycle);
        // The top of the watchdog index is always live, so it is the
        // earliest heard cycle of any monitored client.
        let watchdog = self
            .heartbeat_index
            .peek()
            .map(|&Reverse((heard, _))| heard + self.watchdog.timeout_cycles);
        earliest(retry, watchdog)
    }

    /// Advances the RM's timers to `now_cycle`: retransmits due `confMsg`s
    /// with exponential backoff (entering safe mode when a budget is
    /// exhausted) and runs the heartbeat watchdog, forcibly terminating
    /// clients that have been silent past the timeout. Returns the
    /// envelopes to hand to the control plane.
    pub fn poll(&mut self, now_cycle: u64) -> Vec<Envelope> {
        let mut out = Vec::new();
        // Due retransmissions via the retry index, then processed in
        // ascending client-id order (the historical pending-map order,
        // pinned by tests and golden replays).
        let mut due: Vec<AppId> = self
            .conf_retry_index
            .range(..=(now_cycle, AppId(u32::MAX)))
            .map(|&(_, app)| app)
            .collect();
        due.sort_unstable();
        let mut gave_up: Vec<AppId> = Vec::new();
        for app in due {
            let p = self.pending_confs.get(&app).expect("indexed conf exists");
            if p.attempts >= self.retry.max_attempts() {
                gave_up.push(app);
                continue;
            }
            let mut next = *p;
            next.envelope.sent_at_cycle = now_cycle;
            next.attempts += 1;
            next.next_retry_cycle = now_cycle + self.retry.backoff_cycles(next.attempts - 1);
            self.conf_retransmissions += 1;
            out.push(next.envelope);
            self.set_pending_conf(app, next);
        }
        for app in gave_up {
            self.clear_pending_conf(app);
            if self.degraded.is_empty() {
                self.safe_mode_entries += 1;
            }
            self.degraded.insert(app);
        }
        // Watchdog sweep via the heartbeat index: every client whose live
        // entry was heard at or before `cutoff` has been silent past the
        // timeout. Stale entries are popped on the way, including any
        // past the cutoff that reach the top, so the top stays live. A
        // client with two live entries is listed twice, hence the dedup.
        // (With no full timeout elapsed since cycle 0, nothing can have
        // expired.)
        if let Some(cutoff) = now_cycle.checked_sub(self.watchdog.timeout_cycles) {
            let mut expired: Vec<AppId> = Vec::new();
            while let Some(&Reverse((heard, app))) = self.heartbeat_index.peek() {
                let live = self.is_live_heartbeat(app, heard);
                if live && heard > cutoff {
                    break;
                }
                self.heartbeat_index.pop();
                if live {
                    expired.push(app);
                }
            }
            expired.sort_unstable();
            expired.dedup();
            for app in expired {
                out.extend(self.reclaim(app, now_cycle));
            }
        }
        out
    }

    /// Forcibly terminates `app` (presumed dead), redistributing its
    /// bandwidth to the survivors, and quarantines it when it flaps.
    fn reclaim(&mut self, app: AppId, now_cycle: u64) -> Vec<Envelope> {
        let was_active = self.deactivate(app);
        self.release(app);
        if !was_active {
            return Vec::new();
        }
        self.reclamations += 1;
        self.mode_changes += 1;
        self.departures.push(app);
        let flaps = self.reclaim_counts.entry(app).or_insert(0);
        *flaps += 1;
        if *flaps >= self.watchdog.quarantine_threshold {
            self.quarantined
                .insert(app, now_cycle + self.watchdog.quarantine_cooldown_cycles);
        }
        self.log_msg(
            SimTime::from_ns(now_cycle as f64),
            ControlMessage::Termination { app },
        );
        self.reconfigure_envelopes(now_cycle)
    }

    /// Handles a kernel step's worth of delivered envelopes as one batch:
    /// per-envelope effects (acks, dedup, heartbeats, membership changes)
    /// are applied in delivery order, but at most **one** mode transition
    /// and stop/conf round is emitted for the whole batch instead of one
    /// per membership change. This is what makes a cluster RM's per-step
    /// work O(batch + round) rather than O(batch × active).
    ///
    /// Semantically equivalent to calling [`receive`](Self::receive) per
    /// envelope when the batch contains at most one membership change;
    /// with several, intermediate rounds (which the coalesced bundle
    /// protocol would supersede within the same step anyway) are elided.
    pub fn receive_batch(&mut self, envelopes: &[Envelope], now_cycle: u64) -> Vec<Envelope> {
        let now = SimTime::from_ns(now_cycle as f64);
        let mut out = Vec::new();
        let mut dirty = false;
        for envelope in envelopes {
            self.heard_from(envelope.message.app(), now_cycle);
            if !self.rx.accept(envelope.from, envelope.seq) {
                out.extend(self.respond_to_duplicate(*envelope, now_cycle));
                continue;
            }
            match envelope.message {
                ControlMessage::Activation { app } => {
                    self.log_msg(now, ControlMessage::Activation { app });
                    if self.is_active(app) {
                        out.extend(self.respond_to_duplicate(*envelope, now_cycle));
                        continue;
                    }
                    if self.check_admissible(app, now_cycle).is_err() {
                        out.push(self.refuse(app, now_cycle));
                        continue;
                    }
                    self.quarantined.remove(&app);
                    let Some(&application) = self.known.get(&app) else {
                        out.push(self.refuse(app, now_cycle));
                        continue;
                    };
                    if !self.preapproved {
                        let mut candidate = self.active.clone();
                        candidate.push(application);
                        if self.compute_rates(&candidate).is_none() {
                            out.push(self.refuse(app, now_cycle));
                            continue;
                        }
                    }
                    self.activate(application);
                    self.mode_changes += 1;
                    self.touch(app, now_cycle);
                    dirty = true;
                }
                ControlMessage::Termination { app } => {
                    self.log_msg(now, ControlMessage::Termination { app });
                    out.push(self.envelope_to(
                        app,
                        now_cycle,
                        ControlMessage::Ack {
                            app,
                            of_seq: envelope.seq,
                        },
                    ));
                    if self.deactivate(app) {
                        self.mode_changes += 1;
                        self.departures.push(app);
                        self.release(app);
                        dirty = true;
                    }
                }
                ControlMessage::Heartbeat { .. } => {}
                ControlMessage::Ack { app, of_seq } => {
                    if self
                        .pending_confs
                        .get(&app)
                        .is_some_and(|p| p.envelope.seq == of_seq)
                    {
                        self.clear_pending_conf(app);
                    }
                }
                ControlMessage::Stop { .. }
                | ControlMessage::Config { .. }
                | ControlMessage::Refusal { .. } => {}
            }
        }
        if dirty {
            out.extend(self.reconfigure_envelopes(now_cycle));
        }
        out
    }

    /// Counts a rejection and builds the `rejMsg` envelope for `app`.
    pub(crate) fn refuse(&mut self, app: AppId, now_cycle: u64) -> Envelope {
        self.rejections += 1;
        self.envelope_to(app, now_cycle, ControlMessage::Refusal { app })
    }

    /// Drains the clients that left the active set (termination or
    /// reclamation) since the last call. The cluster layer turns these
    /// into budget `Release` items towards the root arbiter.
    pub fn take_departures(&mut self) -> Vec<AppId> {
        std::mem::take(&mut self.departures)
    }

    /// The currently quarantined client ids, in ascending order.
    pub fn quarantined_ids(&self) -> Vec<AppId> {
        self.quarantined.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::{SymmetricPolicy, WeightedPolicy};

    fn be(n: u32) -> Application {
        Application::best_effort(AppId(n), n)
    }

    #[test]
    fn admission_transitions_modes_and_rates() {
        let mut rm = ResourceManager::new(SymmetricPolicy::new(1.0, 8.0), 100.0);
        for n in 1..=64u32 {
            let out = rm.request_admission(be(n), SimTime::from_ns(n as f64 * 1000.0));
            assert!(out.admitted);
            assert_eq!(out.mode, SystemMode(n as usize));
            for (_, tb) in &out.rates {
                assert!((tb.rate() - 1.0 / n as f64).abs() < 1e-12);
            }
        }
        assert_eq!(rm.mode_changes(), 64);
        assert_eq!(rm.active().len(), 64);
    }

    #[test]
    fn termination_restores_rates() {
        let mut rm = ResourceManager::new(SymmetricPolicy::new(1.0, 8.0), 100.0);
        let _ = rm.request_admission(be(0), SimTime::ZERO);
        let _ = rm.request_admission(be(1), SimTime::ZERO);
        rm.terminate(AppId(1), SimTime::from_ns(5000.0));
        assert_eq!(rm.mode(), SystemMode(1));
        // Unknown termination is idempotent.
        rm.terminate(AppId(9), SimTime::from_ns(6000.0));
        assert_eq!(rm.mode(), SystemMode(1));
        assert_eq!(rm.mode_changes(), 3);
    }

    #[test]
    fn weighted_policy_rejects_over_guarantee() {
        let mut rm = ResourceManager::new(WeightedPolicy::new(1.0, 4.0, 0.0), 100.0);
        let a = rm.request_admission(Application::critical(AppId(0), 0, 700), SimTime::ZERO);
        assert!(a.admitted);
        let b = rm.request_admission(Application::critical(AppId(1), 1, 700), SimTime::ZERO);
        assert!(!b.admitted, "1.4 > capacity 1.0");
        assert_eq!(rm.mode(), SystemMode(1), "state unchanged on rejection");
        assert_eq!(rm.rejections(), 1);
    }

    #[test]
    fn protocol_trace_per_round() {
        let mut rm = ResourceManager::new(SymmetricPolicy::new(1.0, 8.0), 100.0);
        let _ = rm.request_admission(be(0), SimTime::ZERO);
        // Round 1: 1 actMsg, 1 stopMsg, 1 confMsg.
        assert_eq!(rm.log().count("actMsg"), 1);
        assert_eq!(rm.log().count("stopMsg"), 1);
        assert_eq!(rm.log().count("confMsg"), 1);
        let _ = rm.request_admission(be(1), SimTime::ZERO);
        // Round 2 adds 1 actMsg and 2 stop/conf pairs.
        assert_eq!(rm.log().count("stopMsg"), 3);
        assert_eq!(rm.log().count("confMsg"), 3);
        // Config messages are delayed by one message latency.
        let conf = rm
            .log()
            .records()
            .iter()
            .find(|r| r.message.name() == "confMsg")
            .expect("exists");
        assert_eq!(conf.at, SimTime::from_ns(100.0));
    }

    #[test]
    fn overhead_accumulates_per_mode_change() {
        let mut rm = ResourceManager::new(SymmetricPolicy::new(1.0, 8.0), 250.0);
        let _ = rm.request_admission(be(0), SimTime::ZERO);
        let _ = rm.request_admission(be(1), SimTime::ZERO);
        rm.terminate(AppId(0), SimTime::from_us(1.0));
        // 3 mode changes × 2 × 250 ns.
        assert_eq!(rm.total_overhead(), SimDuration::from_ns(1500.0));
    }

    #[test]
    fn rejection_does_not_reconfigure() {
        let mut rm = ResourceManager::new(WeightedPolicy::new(0.5, 4.0, 0.0), 100.0);
        let _ = rm.request_admission(Application::critical(AppId(0), 0, 500), SimTime::ZERO);
        let stops_before = rm.log().count("stopMsg");
        let out = rm.request_admission(Application::critical(AppId(1), 1, 500), SimTime::ZERO);
        assert!(!out.admitted);
        assert_eq!(
            rm.log().count("stopMsg"),
            stops_before,
            "no stop round on reject"
        );
    }

    // --- message-driven, fault-tolerant operation ---

    fn ft_rm() -> ResourceManager<SymmetricPolicy> {
        let mut rm = ResourceManager::new(SymmetricPolicy::new(1.0, 8.0), 100.0)
            .with_watchdog(WatchdogConfig {
                timeout_cycles: 1_000,
                quarantine_threshold: 2,
                quarantine_cooldown_cycles: 5_000,
            })
            .with_retry(RetryPolicy::new(100, 3));
        for n in 0..4u32 {
            rm.register(be(n));
        }
        rm
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

    fn client_ack(app: u32, seq: u64, of_seq: u64, at: u64) -> Envelope {
        Envelope {
            from: Endpoint::Client(AppId(app)),
            to: Endpoint::Rm,
            seq,
            sent_at_cycle: at,
            message: ControlMessage::Ack {
                app: AppId(app),
                of_seq,
            },
        }
    }

    /// Ack every conf in `out` back into the RM so nothing stays pending.
    fn settle_confs<P: RatePolicy>(rm: &mut ResourceManager<P>, out: &[Envelope], at: u64) {
        let mut ack_seq = 1_000 + at; // distinct per call site in these tests
        for e in out {
            if e.message.name() == "confMsg" {
                let app = e.message.app();
                let ack = client_ack(app.0, ack_seq, e.seq, at);
                ack_seq += 1;
                let _ = rm.receive(ack, at);
            }
        }
    }

    #[test]
    fn message_driven_admission_emits_stop_conf_round() {
        let mut rm = ft_rm();
        let out = rm.receive(act(0, 0, 10), 10);
        assert_eq!(
            out.iter().filter(|e| e.message.name() == "stopMsg").count(),
            1
        );
        assert_eq!(
            out.iter().filter(|e| e.message.name() == "confMsg").count(),
            1
        );
        assert_eq!(rm.mode(), SystemMode(1));
        // Second app: round covers both clients.
        let out = rm.receive(act(1, 0, 20), 20);
        assert_eq!(
            out.iter().filter(|e| e.message.name() == "confMsg").count(),
            2
        );
        assert_eq!(rm.mode(), SystemMode(2));
    }

    #[test]
    fn duplicate_activation_resends_conf_without_readmission() {
        let mut rm = ft_rm();
        let _ = rm.receive(act(0, 0, 10), 10);
        let changes = rm.mode_changes();
        let out = rm.receive(act(0, 0, 300), 300); // retransmitted actMsg
        assert_eq!(rm.mode_changes(), changes, "no second transition");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].message.name(), "confMsg");
        assert_eq!(rm.duplicates_suppressed(), 1);
    }

    #[test]
    fn unknown_app_is_refused() {
        let mut rm = ft_rm();
        let out = rm.receive(act(9, 0, 10), 10);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].message.name(), "rejMsg");
        assert_eq!(rm.rejections(), 1);
        assert_eq!(rm.mode(), SystemMode(0));
    }

    #[test]
    fn conf_retransmits_then_enters_safe_mode() {
        let mut rm = ft_rm();
        let out = rm.receive(act(0, 0, 0), 0);
        let conf = out.iter().find(|e| e.message.name() == "confMsg").unwrap();
        let first_deadline = rm.next_deadline().expect("conf pending");
        assert_eq!(first_deadline, 100);
        // Never ack: retries at 100, then 100+200.
        assert_eq!(rm.poll(100).len(), 1);
        assert_eq!(rm.poll(300).len(), 1);
        assert_eq!(rm.conf_retransmissions(), 2);
        assert!(!rm.is_safe_mode());
        // Budget of 3 exhausted: next due poll degrades.
        let next = rm.next_deadline().expect("still pending");
        let _ = rm.poll(next);
        assert!(rm.is_safe_mode());
        assert_eq!(rm.safe_mode_entries(), 1);
        // Safe mode refuses new admissions but keeps previous rates.
        assert_eq!(
            rm.check_admissible(AppId(1), next),
            Err(AdmissionError::SafeMode)
        );
        let out = rm.receive(act(1, 0, next + 1), next + 1);
        assert_eq!(out[0].message.name(), "rejMsg");
        assert_eq!(rm.mode(), SystemMode(1), "previous allocation retained");
        // The ack that finally clears things: watchdog reclaims the dead
        // client, ending safe mode.
        let _ = conf;
        let reclaim_at = 2_000;
        let _ = rm.poll(reclaim_at);
        assert!(!rm.is_safe_mode(), "reclaiming the degraded app recovers");
        assert_eq!(rm.reclamations(), 1);
        assert_eq!(rm.mode(), SystemMode(0));
    }

    #[test]
    fn watchdog_reclaims_silent_client_and_redistributes() {
        let mut rm = ft_rm();
        let out = rm.receive(act(0, 0, 0), 0);
        settle_confs(&mut rm, &out, 1);
        let out = rm.receive(act(1, 0, 5), 5);
        settle_confs(&mut rm, &out, 6);
        assert_eq!(rm.mode(), SystemMode(2));
        // App 0 heartbeats; app 1 goes silent.
        let hb = Envelope {
            from: Endpoint::Client(AppId(0)),
            to: Endpoint::Rm,
            seq: 50,
            sent_at_cycle: 800,
            message: ControlMessage::Heartbeat { app: AppId(0) },
        };
        let _ = rm.receive(hb, 800);
        // At cycle 1010 app 1 (last heard when acking its conf at cycle 6)
        // is past the 1000-cycle timeout; app 0 (heard at 800) is not.
        let out = rm.poll(1_010);
        assert_eq!(rm.reclamations(), 1);
        assert_eq!(rm.mode(), SystemMode(1));
        assert!(rm.active().iter().all(|a| a.id != AppId(1)));
        // Survivor gets the full capacity back via a fresh conf round.
        let conf = out.iter().find(|e| e.message.name() == "confMsg").unwrap();
        assert_eq!(conf.message.app(), AppId(0));
        match conf.message {
            ControlMessage::Config { rate, .. } => assert!((rate - 1.0).abs() < 1e-12),
            _ => unreachable!(),
        }
    }

    #[test]
    fn flapping_client_is_quarantined_then_served_after_cooldown() {
        let mut rm = ft_rm();
        // Two reclamations of app 0 trip the threshold of 2.
        for round in 0..2u64 {
            let at = round * 3_000;
            let out = rm.receive(act(0, round * 10, at), at);
            settle_confs(&mut rm, &out, at + 1);
            let _ = rm.poll(at + 1_001 + 1); // silent past the timeout
        }
        assert_eq!(rm.reclamations(), 2);
        let until = rm.quarantined_until(AppId(0)).expect("quarantined");
        // Refused while quarantined.
        let out = rm.receive(act(0, 100, until - 1), until - 1);
        assert_eq!(out[0].message.name(), "rejMsg");
        assert!(matches!(
            rm.check_admissible(AppId(0), until - 1),
            Err(AdmissionError::Quarantined { .. })
        ));
        // Served again once the cooldown expires.
        let out = rm.receive(act(0, 101, until), until);
        assert!(out.iter().any(|e| e.message.name() == "confMsg"));
        assert_eq!(rm.mode(), SystemMode(1));
    }

    #[test]
    fn acked_conf_stops_retransmitting() {
        let mut rm = ft_rm();
        let out = rm.receive(act(0, 0, 0), 0);
        let conf = out.iter().find(|e| e.message.name() == "confMsg").unwrap();
        let _ = rm.receive(client_ack(0, 1, conf.seq, 50), 50);
        // Only the watchdog deadline remains.
        assert_eq!(rm.next_deadline(), Some(50 + 1_000));
        assert!(rm.poll(500).is_empty());
        assert_eq!(rm.conf_retransmissions(), 0);
    }

    #[test]
    fn poll_retransmits_in_ascending_client_id_order() {
        let mut rm = ft_rm();
        // Admit in descending id order so insertion order differs from
        // id order; none of the confs is ever acked.
        for (i, app) in [3u32, 1, 2, 0].iter().enumerate() {
            let _ = rm.receive(act(*app, 0, i as u64), i as u64);
        }
        assert_eq!(rm.pending_conf_count(), 4);
        let out = rm.poll(500);
        let order: Vec<AppId> = out.iter().map(|e| e.message.app()).collect();
        assert_eq!(
            order,
            vec![AppId(0), AppId(1), AppId(2), AppId(3)],
            "retransmission sweep must iterate the pending map in id order"
        );
    }

    #[test]
    fn stale_ack_of_superseded_conf_keeps_current_pending() {
        let mut rm = ft_rm();
        let out = rm.receive(act(0, 0, 0), 0);
        let old_conf = out.iter().find(|e| e.message.name() == "confMsg").unwrap();
        let old_seq = old_conf.seq;
        // A second admission supersedes app 0's pending conf.
        let out = rm.receive(act(1, 0, 10), 10);
        let new_seq = out
            .iter()
            .find(|e| e.message.name() == "confMsg" && e.message.app() == AppId(0))
            .unwrap()
            .seq;
        assert_ne!(old_seq, new_seq);
        // The stale ack must not clear the superseding conf.
        let _ = rm.receive(client_ack(0, 100, old_seq, 20), 20);
        assert_eq!(rm.pending_conf_count(), 2);
        // The current ack does.
        let _ = rm.receive(client_ack(0, 101, new_seq, 30), 30);
        assert_eq!(rm.pending_conf_count(), 1);
    }

    #[test]
    fn active_index_stays_in_sync_across_lifecycle() {
        let mut rm = ft_rm();
        let out = rm.receive(act(0, 0, 0), 0);
        settle_confs(&mut rm, &out, 1);
        let out = rm.receive(act(1, 0, 5), 5);
        settle_confs(&mut rm, &out, 6);
        assert_eq!(rm.active().len(), 2);
        // Instantaneous termination and watchdog reclamation both go
        // through the indexed removal path.
        rm.terminate(AppId(0), SimTime::from_ns(100.0));
        assert!(rm.active().iter().all(|a| a.id != AppId(0)));
        let _ = rm.poll(5_000); // app 1 silent past the timeout
        assert_eq!(rm.reclamations(), 1);
        assert!(rm.active().is_empty());
        // Re-admission after removal works (the index forgot the id).
        let out = rm.receive(act(0, 10, 6_000), 6_000);
        assert!(out.iter().any(|e| e.message.name() == "confMsg"));
        assert_eq!(rm.mode(), SystemMode(1));
    }

    #[test]
    fn receive_batch_coalesces_one_conf_round() {
        let mut batched = ft_rm();
        let batch: Vec<Envelope> = (0..4u32).map(|n| act(n, 0, 10)).collect();
        let out = batched.receive_batch(&batch, 10);
        assert_eq!(batched.mode(), SystemMode(4));
        // One round covering all four clients — not 1+2+3+4 confs.
        assert_eq!(
            out.iter().filter(|e| e.message.name() == "confMsg").count(),
            4
        );
        assert_eq!(
            out.iter().filter(|e| e.message.name() == "stopMsg").count(),
            4
        );
        // The final rates match per-envelope processing.
        let mut serial = ft_rm();
        for n in 0..4u32 {
            let _ = serial.receive(act(n, 0, 10), 10);
        }
        assert_eq!(serial.mode(), batched.mode());
        assert_eq!(serial.last_rates, batched.last_rates);
    }

    #[test]
    fn receive_batch_matches_receive_for_single_messages() {
        let mut a = ft_rm();
        let mut b = ft_rm();
        for (i, app) in [2u32, 0, 3].iter().enumerate() {
            let out_a = a.receive(act(*app, 0, i as u64), i as u64);
            let out_b = b.receive_batch(&[act(*app, 0, i as u64)], i as u64);
            assert_eq!(out_a, out_b, "singleton batches are exactly receive()");
        }
        // Duplicate and refusal paths agree too.
        assert_eq!(
            a.receive(act(2, 0, 50), 50),
            b.receive_batch(&[act(2, 0, 50)], 50)
        );
        assert_eq!(
            a.receive(act(9, 0, 60), 60),
            b.receive_batch(&[act(9, 0, 60)], 60)
        );
    }

    #[test]
    fn delta_confs_skip_unchanged_rates() {
        // Weighted policy: a BE client's rate changes when another BE
        // arrives (shared floor), but a critical client's guaranteed rate
        // never does.
        let mut rm = ResourceManager::new(WeightedPolicy::new(1.0, 4.0, 0.0), 100.0)
            .with_retry(RetryPolicy::new(100, 3))
            .with_delta_confs(true);
        rm.register(Application::critical(AppId(0), 0, 200));
        rm.register(Application::critical(AppId(1), 1, 300));
        let out = rm.receive(act(0, 0, 0), 0);
        assert_eq!(
            out.iter().filter(|e| e.message.name() == "confMsg").count(),
            1
        );
        // Admitting app 1 leaves app 0's guaranteed 0.2 unchanged: only
        // the newcomer is confirmed.
        let out = rm.receive(act(1, 0, 10), 10);
        let confs: Vec<AppId> = out
            .iter()
            .filter(|e| e.message.name() == "confMsg")
            .map(|e| e.message.app())
            .collect();
        assert_eq!(confs, vec![AppId(1)], "unchanged rate, no re-conf");
        assert_eq!(
            rm.pending_conf_count(),
            2,
            "app 0's first conf still pending"
        );
    }

    #[test]
    fn departures_are_drained_once() {
        let mut rm = ft_rm();
        let out = rm.receive(act(0, 0, 0), 0);
        settle_confs(&mut rm, &out, 1);
        let out = rm.receive(act(1, 0, 5), 5);
        settle_confs(&mut rm, &out, 6);
        assert!(rm.take_departures().is_empty());
        rm.terminate(AppId(0), SimTime::from_ns(100.0));
        let _ = rm.poll(5_000); // watchdog reclaims silent app 1
        assert_eq!(rm.take_departures(), vec![AppId(0), AppId(1)]);
        assert!(rm.take_departures().is_empty(), "drained");
    }

    #[test]
    fn indices_stay_consistent_with_maps() {
        let mut rm = ft_rm();
        for n in 0..4u32 {
            let _ = rm.receive(act(n, 0, n as u64), n as u64);
        }
        let _ = rm.poll(500); // retransmit sweep reindexes retries
        rm.terminate(AppId(2), SimTime::from_ns(600.0));
        let _ = rm.poll(2_000); // watchdog reclaims the rest
        assert_eq!(rm.pending_confs.len(), rm.conf_retry_index.len());
        for (&app, p) in &rm.pending_confs {
            assert!(rm.conf_retry_index.contains(&(p.next_retry_cycle, app)));
        }
        assert_heartbeat_index_invariant(&rm);
    }

    /// Every monitored client has a live watchdog entry, and the top
    /// entry is live.
    fn assert_heartbeat_index_invariant<P>(rm: &ResourceManager<P>) {
        for (&app, &heard) in &rm.last_heartbeat {
            assert!(
                rm.heartbeat_index.iter().any(|e| e.0 == (heard, app)),
                "{app} heard at {heard} has no live entry"
            );
        }
        if let Some(&Reverse((heard, app))) = rm.heartbeat_index.peek() {
            assert_eq!(rm.last_heartbeat.get(&app), Some(&heard), "stale top");
        }
    }

    fn heartbeat(app: u32, at: u64) -> Envelope {
        Envelope {
            from: Endpoint::Client(AppId(app)),
            to: Endpoint::Rm,
            seq: u64::MAX,
            sent_at_cycle: at,
            message: ControlMessage::Heartbeat { app: AppId(app) },
        }
    }

    #[test]
    fn watchdog_heap_stays_exact_with_stale_entries() {
        let mut rm = ft_rm(); // 1000-cycle timeout
        let out = rm.receive_batch(&[act(0, 0, 0), act(1, 0, 0)], 0);
        settle_confs(&mut rm, &out, 0);
        // App 1 is heard again at 900: its cycle-0 entry goes stale, but
        // app 0's cycle-0 entry stays on top.
        let _ = rm.receive(heartbeat(1, 900), 900);
        assert_heartbeat_index_invariant(&rm);
        assert_eq!(rm.next_deadline(), Some(1_000));
        // The sweep at 1000 reclaims app 0 only and pops app 1's stale
        // entry on the way; app 1's live entry is the new top.
        let _ = rm.poll(1_000);
        assert_eq!(rm.reclamations(), 1);
        assert!(rm.is_active(AppId(1)));
        assert_heartbeat_index_invariant(&rm);
        assert_eq!(rm.heartbeat_index.len(), 1);
        assert_eq!(rm.heartbeat_index.peek(), Some(&Reverse((900, AppId(1)))));
    }

    #[test]
    fn touch_back_in_time_reclaims_once() {
        let mut rm = ft_rm();
        let out = rm.receive(act(0, 0, 500), 500);
        settle_confs(&mut rm, &out, 500);
        // Heard at 500, then at 300 (a cycle that went backwards), then at
        // 500 again: two live entries for the same heard cycle.
        let _ = rm.receive(heartbeat(0, 300), 300);
        assert_eq!(rm.next_deadline(), Some(1_300));
        let _ = rm.receive(heartbeat(0, 500), 500);
        assert_heartbeat_index_invariant(&rm);
        assert_eq!(rm.next_deadline(), Some(1_500));
        let out = rm.poll(1_500);
        assert_eq!(rm.reclamations(), 1, "one reclaim per client");
        assert!(out.is_empty(), "no survivors to reconfigure");
        assert!(rm.heartbeat_index.is_empty());
        assert_eq!(rm.next_deadline(), None);
    }

    #[test]
    fn logging_off_keeps_counters_but_not_records() {
        let mut rm = ft_rm();
        rm.set_logging(false);
        let _ = rm.receive(act(0, 0, 10), 10);
        assert_eq!(rm.log().count("actMsg"), 0, "no records when disabled");
        assert_eq!(rm.mode(), SystemMode(1), "behaviour unchanged");
        assert_eq!(rm.mode_changes(), 1);
    }

    #[test]
    fn try_new_validates_latency() {
        assert!(ResourceManager::try_new(SymmetricPolicy::new(1.0, 8.0), -1.0).is_err());
        assert!(ResourceManager::try_new(SymmetricPolicy::new(1.0, 8.0), f64::NAN).is_err());
        assert!(ResourceManager::try_new(SymmetricPolicy::new(1.0, 8.0), 0.0).is_ok());
        assert!(WatchdogConfig::try_new(0, 1, 10).is_err());
        assert!(WatchdogConfig::try_new(10, 0, 10).is_err());
        assert!(WatchdogConfig::try_new(10, 1, 0).is_ok());
    }
}

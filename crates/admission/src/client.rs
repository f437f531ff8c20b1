//! Per-node clients: the local supervisors of §V.
//!
//! "The role of clients is to prevent non-authorized accesses, adjust the
//! access rates to the NoC for each application, release the NoC
//! resources […], and prevent unbounded NoC accesses." A client traps an
//! application's first transmission, blocks it until the RM acknowledges
//! with a `confMsg`, enforces the assigned rate while active, blocks on
//! `stopMsg`, and reports termination with a `terMsg`.
//!
//! For lossy control planes the client also implements the fault-tolerance
//! half of the protocol: sequence-numbered sends with bounded exponential
//! retransmission of `actMsg`/`terMsg` until acknowledged, periodic
//! heartbeats feeding the RM watchdog, idempotent receive handling, and a
//! liveness model (alive / hung / crashed) the fault injector can drive.

use autoplat_netcalc::conformance::BucketState;
use autoplat_netcalc::TokenBucket;

use crate::app::AppId;
use crate::error::AdmissionError;
use crate::protocol::{ControlMessage, Endpoint, Envelope, SeqWindow};

/// Client state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientState {
    /// No application active; the first transmission will be trapped.
    Idle,
    /// Activation sent, awaiting the RM's `confMsg`.
    AwaitingAdmission,
    /// Admitted and transmitting under the assigned rate.
    Active,
    /// Blocked by a `stopMsg` pending reconfiguration.
    Stopped,
}

/// Whether the client process itself is functioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// Operating normally.
    Alive,
    /// Frozen until the given cycle: incoming messages queue unprocessed,
    /// no heartbeats or retransmissions are emitted.
    Hung {
        /// First cycle at which the client resumes.
        until_cycle: u64,
    },
    /// Dead, permanently: the client never sends or processes again.
    Crashed,
}

/// Bounded exponential backoff for unacknowledged sends.
///
/// Attempt `k` (0-based) is retransmitted `base_delay_cycles << k` cycles
/// after the previous one, up to `max_attempts` total transmissions.
///
/// # Examples
///
/// ```
/// use autoplat_admission::client::RetryPolicy;
///
/// let retry = RetryPolicy::new(64, 4);
/// assert_eq!(retry.backoff_cycles(0), 64);
/// assert_eq!(retry.backoff_cycles(2), 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    base_delay_cycles: u64,
    max_attempts: u32,
}

impl RetryPolicy {
    /// Validating constructor.
    pub fn try_new(base_delay_cycles: u64, max_attempts: u32) -> Result<Self, AdmissionError> {
        if base_delay_cycles == 0 {
            return Err(AdmissionError::InvalidInterval {
                what: "retry base delay",
            });
        }
        if max_attempts == 0 {
            return Err(AdmissionError::InvalidRetryBudget);
        }
        Ok(RetryPolicy {
            base_delay_cycles,
            max_attempts,
        })
    }

    /// Creates a policy.
    ///
    /// # Panics
    ///
    /// Panics if `base_delay_cycles` or `max_attempts` is zero; use
    /// [`RetryPolicy::try_new`] for a typed error.
    pub fn new(base_delay_cycles: u64, max_attempts: u32) -> Self {
        RetryPolicy::try_new(base_delay_cycles, max_attempts).expect("valid retry policy")
    }

    /// The delay before retransmission number `attempt + 1`, capped so the
    /// shift cannot overflow.
    pub fn backoff_cycles(&self, attempt: u32) -> u64 {
        self.base_delay_cycles
            .saturating_mul(1u64 << attempt.min(20))
    }

    /// Total transmissions allowed (first send + retries).
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_delay_cycles: 256,
            max_attempts: 6,
        }
    }
}

/// An unacknowledged send awaiting retransmission or an ack.
#[derive(Debug, Clone, Copy)]
struct Pending {
    envelope: Envelope,
    attempts: u32,
    next_retry_cycle: u64,
}

/// The verdict on a transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransmitDecision {
    /// Conformant: release at the given cycle.
    ReleaseAt(u64),
    /// Conformant, but not before the caller's deadline; nothing was
    /// consumed. The earliest feasible release cycle is given.
    Deferred(u64),
    /// Trapped: the client has issued an activation request and blocks
    /// the transmission until admission completes.
    TrappedForAdmission,
    /// Blocked by a pending `stopMsg`.
    Blocked,
}

/// A per-node client supervising one application.
///
/// # Examples
///
/// ```
/// use autoplat_admission::client::{Client, ClientState, TransmitDecision};
/// use autoplat_admission::app::AppId;
/// use autoplat_netcalc::TokenBucket;
///
/// let mut client = Client::new(AppId(0), 4);
/// // First transmission is trapped until the RM admits.
/// assert_eq!(client.request_transmit(0, 1.0), TransmitDecision::TrappedForAdmission);
/// client.on_config(0, TokenBucket::new(4.0, 0.5));
/// assert_eq!(client.state(), ClientState::Active);
/// assert!(matches!(client.request_transmit(1, 1.0), TransmitDecision::ReleaseAt(1)));
/// ```
#[derive(Debug, Clone)]
pub struct Client {
    app: AppId,
    node: u32,
    state: ClientState,
    bucket: Option<BucketState>,
    trapped: u64,
    blocked: u64,
    // --- fault-tolerance state ---
    liveness: Liveness,
    retry: RetryPolicy,
    heartbeat_interval_cycles: u64,
    next_heartbeat_cycle: u64,
    next_seq: u64,
    pending: Option<Pending>,
    /// The seqs accepted from the RM, the only endpoint that addresses
    /// clients.
    rx: SeqWindow,
    duplicates: u64,
    inbox: Vec<Envelope>,
    retransmissions: u64,
    heartbeats_sent: u64,
    gave_up: bool,
    conf_burst: f64,
}

impl Client {
    /// Creates an idle client for `app` at `node` with default
    /// fault-tolerance parameters ([`RetryPolicy::default`], heartbeats
    /// every 500 cycles).
    pub fn new(app: AppId, node: u32) -> Self {
        Client::try_with_fault_tolerance(app, node, RetryPolicy::default(), 500)
            .expect("defaults are valid")
    }

    /// Creates a client with explicit retransmission and heartbeat
    /// parameters, validating them.
    pub fn try_with_fault_tolerance(
        app: AppId,
        node: u32,
        retry: RetryPolicy,
        heartbeat_interval_cycles: u64,
    ) -> Result<Self, AdmissionError> {
        if heartbeat_interval_cycles == 0 {
            return Err(AdmissionError::InvalidInterval {
                what: "heartbeat interval",
            });
        }
        Ok(Client {
            app,
            node,
            state: ClientState::Idle,
            bucket: None,
            trapped: 0,
            blocked: 0,
            liveness: Liveness::Alive,
            retry,
            heartbeat_interval_cycles,
            next_heartbeat_cycle: heartbeat_interval_cycles,
            next_seq: 0,
            pending: None,
            rx: SeqWindow::default(),
            duplicates: 0,
            inbox: Vec::new(),
            retransmissions: 0,
            heartbeats_sent: 0,
            gave_up: false,
            conf_burst: DEFAULT_MESSAGE_BURST,
        })
    }

    /// The supervised application.
    pub fn app(&self) -> AppId {
        self.app
    }

    /// The node this client guards.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Current state.
    pub fn state(&self) -> ClientState {
        self.state
    }

    /// The application attempts a transmission of `items` at `now_cycle`.
    ///
    /// A hung or crashed client blocks everything: the supervisor is the
    /// gatekeeper to the NoC, so its failure fails closed, never open.
    pub fn request_transmit(&mut self, now_cycle: u64, items: f64) -> TransmitDecision {
        self.request_transmit_before(now_cycle, items, u64::MAX)
    }

    /// Like [`request_transmit`](Self::request_transmit), but a release
    /// that would land at or after `deadline_cycle` is reported as
    /// [`Deferred`](TransmitDecision::Deferred) *without* consuming
    /// tokens, so the caller can retry from the deadline onwards.
    pub fn request_transmit_before(
        &mut self,
        now_cycle: u64,
        items: f64,
        deadline_cycle: u64,
    ) -> TransmitDecision {
        if self.liveness != Liveness::Alive {
            self.blocked += 1;
            return TransmitDecision::Blocked;
        }
        match self.state {
            ClientState::Idle => {
                // Trap: "whenever an application is activated and trying
                // to conduct the first transmission its request is
                // trapped by the client".
                self.state = ClientState::AwaitingAdmission;
                self.trapped += 1;
                TransmitDecision::TrappedForAdmission
            }
            ClientState::AwaitingAdmission => {
                self.trapped += 1;
                TransmitDecision::TrappedForAdmission
            }
            ClientState::Stopped => {
                self.blocked += 1;
                TransmitDecision::Blocked
            }
            ClientState::Active => {
                let bucket = self.bucket.as_mut().expect("active implies configured");
                match bucket.earliest_send(now_cycle as f64, items) {
                    Some(at) => {
                        let cycle = at.ceil() as u64;
                        if cycle >= deadline_cycle {
                            return TransmitDecision::Deferred(cycle);
                        }
                        assert!(
                            bucket.try_consume(cycle as f64, items),
                            "tokens available at release"
                        );
                        TransmitDecision::ReleaseAt(cycle)
                    }
                    None => {
                        // Larger than the burst: unbounded NoC access,
                        // prevented outright.
                        self.blocked += 1;
                        TransmitDecision::Blocked
                    }
                }
            }
        }
    }

    /// Handles a `stopMsg`: block all accesses pending reconfiguration.
    pub fn on_stop(&mut self) {
        if self.state == ClientState::Active {
            self.state = ClientState::Stopped;
        }
    }

    /// Handles a `confMsg`: install the new contract and unblock.
    pub fn on_config(&mut self, now_cycle: u64, contract: TokenBucket) {
        let mut bucket = BucketState::new(contract);
        bucket.reset(now_cycle as f64);
        self.bucket = Some(bucket);
        self.state = ClientState::Active;
    }

    /// Detects application termination: resets to idle (the caller sends
    /// the `terMsg` to the RM).
    pub fn on_terminate(&mut self) {
        self.state = ClientState::Idle;
        self.bucket = None;
    }

    /// Transmissions trapped while awaiting admission.
    pub fn trapped(&self) -> u64 {
        self.trapped
    }

    /// Transmissions refused while stopped or oversized.
    pub fn blocked(&self) -> u64 {
        self.blocked
    }

    // ------------------------------------------------------------------
    // Fault-tolerant, message-driven operation
    // ------------------------------------------------------------------

    /// Current liveness.
    pub fn liveness(&self) -> Liveness {
        self.liveness
    }

    /// True when the client can currently send and process messages.
    pub fn is_alive(&self) -> bool {
        self.liveness == Liveness::Alive
    }

    /// Messages retransmitted after a missing ack.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Heartbeats emitted.
    pub fn heartbeats_sent(&self) -> u64 {
        self.heartbeats_sent
    }

    /// Duplicated deliveries this client suppressed.
    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates
    }

    /// True when a send exhausted its retry budget without an ack.
    pub fn gave_up(&self) -> bool {
        self.gave_up
    }

    /// True while an `actMsg`/`terMsg` awaits its ack.
    pub fn has_pending_send(&self) -> bool {
        self.pending.is_some()
    }

    /// Kills the client permanently (fault injection).
    pub fn crash(&mut self) {
        self.liveness = Liveness::Crashed;
        self.pending = None;
        self.inbox.clear();
    }

    /// Freezes the client until `until_cycle` (fault injection). Crashed
    /// clients stay crashed.
    pub fn hang(&mut self, until_cycle: u64) {
        if self.liveness != Liveness::Crashed {
            self.liveness = Liveness::Hung { until_cycle };
        }
    }

    /// Sends the sequence-numbered `actMsg` for this client's application
    /// and arms its retransmission timer.
    pub fn send_activation(&mut self, now_cycle: u64) -> Option<Envelope> {
        self.send_tracked(now_cycle, ControlMessage::Activation { app: self.app })
    }

    /// Sends the sequence-numbered `terMsg` and arms its retransmission
    /// timer; the local state resets immediately (the application is gone
    /// regardless of whether the RM has heard yet).
    pub fn send_termination(&mut self, now_cycle: u64) -> Option<Envelope> {
        self.on_terminate();
        self.send_tracked(now_cycle, ControlMessage::Termination { app: self.app })
    }

    fn send_tracked(&mut self, now_cycle: u64, message: ControlMessage) -> Option<Envelope> {
        if self.liveness != Liveness::Alive {
            return None;
        }
        let envelope = self.make_envelope(now_cycle, message);
        self.pending = Some(Pending {
            envelope,
            attempts: 1,
            next_retry_cycle: now_cycle + self.retry.backoff_cycles(0),
        });
        self.gave_up = false;
        Some(envelope)
    }

    fn make_envelope(&mut self, now_cycle: u64, message: ControlMessage) -> Envelope {
        let seq = self.next_seq;
        self.next_seq += 1;
        Envelope {
            from: Endpoint::Client(self.app),
            to: Endpoint::Rm,
            seq,
            sent_at_cycle: now_cycle,
            message,
        }
    }

    /// The next cycle at which [`poll`](Self::poll) has work to do, if any:
    /// a due retransmission, a heartbeat, or waking from a hang.
    pub fn next_timer_cycle(&self) -> Option<u64> {
        match self.liveness {
            Liveness::Crashed => None,
            Liveness::Hung { until_cycle } => Some(until_cycle),
            Liveness::Alive => {
                let retry = self.pending.map(|p| p.next_retry_cycle);
                let heartbeat = (self.state != ClientState::Idle || self.pending.is_some())
                    .then_some(self.next_heartbeat_cycle);
                match (retry, heartbeat) {
                    (Some(r), Some(h)) => Some(r.min(h)),
                    (r, h) => r.or(h),
                }
            }
        }
    }

    /// Advances the client's timers to `now_cycle`: wakes from an expired
    /// hang (processing the queued inbox), emits a due retransmission with
    /// exponential backoff (until the retry budget is exhausted), and emits
    /// a due heartbeat. Returns the envelopes to hand to the control plane.
    pub fn poll(&mut self, now_cycle: u64) -> Vec<Envelope> {
        match self.liveness {
            Liveness::Crashed => return Vec::new(),
            Liveness::Hung { until_cycle } => {
                if now_cycle < until_cycle {
                    return Vec::new();
                }
                self.liveness = Liveness::Alive;
                let queued: Vec<Envelope> = std::mem::take(&mut self.inbox);
                let mut out = Vec::new();
                for envelope in queued {
                    out.extend(self.deliver(envelope, now_cycle));
                }
                out.extend(self.poll_alive(now_cycle));
                return out;
            }
            Liveness::Alive => {}
        }
        self.poll_alive(now_cycle)
    }

    fn poll_alive(&mut self, now_cycle: u64) -> Vec<Envelope> {
        let mut out = Vec::new();
        if let Some(pending) = &mut self.pending {
            if now_cycle >= pending.next_retry_cycle {
                if pending.attempts >= self.retry.max_attempts() {
                    // Bounded: give up rather than flood a dead link.
                    self.pending = None;
                    self.gave_up = true;
                } else {
                    let mut envelope = pending.envelope;
                    envelope.sent_at_cycle = now_cycle;
                    pending.attempts += 1;
                    pending.next_retry_cycle =
                        now_cycle + self.retry.backoff_cycles(pending.attempts - 1);
                    self.retransmissions += 1;
                    out.push(envelope);
                }
            }
        }
        if (self.state != ClientState::Idle || self.pending.is_some())
            && now_cycle >= self.next_heartbeat_cycle
        {
            let heartbeat =
                self.make_envelope(now_cycle, ControlMessage::Heartbeat { app: self.app });
            self.next_heartbeat_cycle = now_cycle + self.heartbeat_interval_cycles;
            self.heartbeats_sent += 1;
            out.push(heartbeat);
        }
        out
    }

    /// Handles a delivered envelope idempotently, returning any responses
    /// (acks) to send. Crashed clients ignore everything; hung clients
    /// queue deliveries and process them on wake.
    pub fn deliver(&mut self, envelope: Envelope, now_cycle: u64) -> Vec<Envelope> {
        match self.liveness {
            Liveness::Crashed => return Vec::new(),
            Liveness::Hung { until_cycle } if now_cycle < until_cycle => {
                self.inbox.push(envelope);
                return Vec::new();
            }
            _ => {}
        }
        debug_assert_eq!(envelope.from, Endpoint::Rm, "only the RM addresses clients");
        if !self.rx.insert(envelope.seq) {
            self.duplicates += 1;
            // Duplicate: do not reprocess, but re-ack — the previous ack
            // may itself have been lost.
            if envelope.message.needs_ack() {
                let ack = self.make_envelope(
                    now_cycle,
                    ControlMessage::Ack {
                        app: self.app,
                        of_seq: envelope.seq,
                    },
                );
                return vec![ack];
            }
            return Vec::new();
        }
        let mut out = Vec::new();
        match envelope.message {
            ControlMessage::Stop { .. } => self.on_stop(),
            ControlMessage::Config { rate, .. } => {
                // The paper's confMsg carries the rate; the burst rides in
                // the envelope-level contract convention (fixed by policy).
                self.on_config(now_cycle, TokenBucket::new(self.burst_hint(), rate));
                self.pending = None; // conf acknowledges the activation
            }
            ControlMessage::Refusal { .. } => {
                self.pending = None;
                self.state = ClientState::Idle;
                self.bucket = None;
            }
            ControlMessage::Ack { of_seq, .. } => {
                if let Some(pending) = &self.pending {
                    if pending.envelope.seq == of_seq {
                        self.pending = None;
                    }
                }
            }
            // Client-originated kinds arriving here are protocol noise.
            ControlMessage::Activation { .. }
            | ControlMessage::Termination { .. }
            | ControlMessage::Heartbeat { .. } => {}
        }
        if envelope.message.needs_ack() {
            let ack = self.make_envelope(
                now_cycle,
                ControlMessage::Ack {
                    app: self.app,
                    of_seq: envelope.seq,
                },
            );
            out.push(ack);
        }
        out
    }

    /// Sets the burst installed alongside message-driven `confMsg` rates
    /// (the conf carries only the rate, as in the paper; the burst is a
    /// policy constant the scenario driver knows).
    pub fn set_conf_burst(&mut self, burst: f64) {
        self.conf_burst = burst;
    }

    /// Burst granted with message-driven configs: the installed contract's
    /// burst when one exists, else the configured policy burst.
    fn burst_hint(&self) -> f64 {
        self.bucket
            .as_ref()
            .map(|b| b.contract().burst())
            .unwrap_or(self.conf_burst)
    }
}

/// Burst installed by a message-driven `confMsg` before any contract is
/// known. Scenario drivers that know the policy's burst scale contracts
/// themselves; this constant only backs the bare message API.
const DEFAULT_MESSAGE_BURST: f64 = 8.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::SystemMode;

    fn admitted_client(rate: f64) -> Client {
        let mut c = Client::new(AppId(1), 2);
        let _ = c.request_transmit(0, 1.0);
        c.on_config(0, TokenBucket::new(4.0, rate));
        c
    }

    #[test]
    fn first_transmission_trapped() {
        let mut c = Client::new(AppId(0), 0);
        assert_eq!(c.state(), ClientState::Idle);
        assert_eq!(
            c.request_transmit(0, 1.0),
            TransmitDecision::TrappedForAdmission
        );
        assert_eq!(c.state(), ClientState::AwaitingAdmission);
        // Still trapped until confMsg.
        assert_eq!(
            c.request_transmit(5, 1.0),
            TransmitDecision::TrappedForAdmission
        );
        assert_eq!(c.trapped(), 2);
    }

    #[test]
    fn config_activates_and_rates_enforced() {
        let mut c = admitted_client(0.5);
        assert_eq!(c.state(), ClientState::Active);
        // Burst of 4 passes immediately.
        assert_eq!(c.request_transmit(10, 4.0), TransmitDecision::ReleaseAt(10));
        // Next item waits for refill: 1 token at 0.5/cycle → 2 cycles.
        assert_eq!(c.request_transmit(10, 1.0), TransmitDecision::ReleaseAt(12));
    }

    #[test]
    fn stop_blocks_until_reconfig() {
        let mut c = admitted_client(1.0);
        c.on_stop();
        assert_eq!(c.state(), ClientState::Stopped);
        assert_eq!(c.request_transmit(20, 1.0), TransmitDecision::Blocked);
        assert_eq!(c.blocked(), 1);
        c.on_config(20, TokenBucket::new(2.0, 0.25));
        assert_eq!(c.state(), ClientState::Active);
        assert!(matches!(
            c.request_transmit(21, 1.0),
            TransmitDecision::ReleaseAt(21)
        ));
    }

    #[test]
    fn stop_on_idle_is_noop() {
        let mut c = Client::new(AppId(0), 0);
        c.on_stop();
        assert_eq!(c.state(), ClientState::Idle);
    }

    #[test]
    fn oversized_transmission_prevented() {
        let mut c = admitted_client(1.0);
        assert_eq!(c.request_transmit(0, 100.0), TransmitDecision::Blocked);
    }

    #[test]
    fn termination_resets() {
        let mut c = admitted_client(1.0);
        c.on_terminate();
        assert_eq!(c.state(), ClientState::Idle);
        // The next transmission is trapped again (new activation).
        assert_eq!(
            c.request_transmit(0, 1.0),
            TransmitDecision::TrappedForAdmission
        );
    }

    #[test]
    fn accessors() {
        let c = Client::new(AppId(7), 3);
        assert_eq!(c.app(), AppId(7));
        assert_eq!(c.node(), 3);
        assert_eq!(c.blocked(), 0);
        assert!(c.is_alive());
        assert!(!c.has_pending_send());
        assert!(!c.gave_up());
    }

    fn rm_envelope(seq: u64, at: u64, message: ControlMessage) -> Envelope {
        Envelope {
            from: Endpoint::Rm,
            to: Endpoint::Client(message.app()),
            seq,
            sent_at_cycle: at,
            message,
        }
    }

    #[test]
    fn retry_policy_validation() {
        assert!(RetryPolicy::try_new(0, 3).is_err());
        assert!(RetryPolicy::try_new(16, 0).is_err());
        let p = RetryPolicy::new(16, 3);
        assert_eq!(p.backoff_cycles(0), 16);
        assert_eq!(p.backoff_cycles(1), 32);
        assert_eq!(p.max_attempts(), 3);
        // Huge attempt numbers saturate instead of overflowing.
        assert!(RetryPolicy::new(u64::MAX / 2, 6).backoff_cycles(63) > 0);
    }

    #[test]
    fn activation_retransmits_with_backoff_then_gives_up() {
        let mut c = Client::try_with_fault_tolerance(AppId(0), 0, RetryPolicy::new(10, 3), 10_000)
            .expect("valid");
        let first = c.send_activation(0).expect("alive client sends");
        assert_eq!(first.message.name(), "actMsg");
        assert_eq!(first.seq, 0);
        assert!(c.has_pending_send());
        assert_eq!(c.next_timer_cycle(), Some(10));
        // Nothing due before the backoff expires.
        assert!(c.poll(5).is_empty());
        // First retry at +10, second at +10+20.
        let r1 = c.poll(10);
        assert_eq!(r1.len(), 1);
        assert_eq!(r1[0].seq, 0, "retransmission reuses the sequence number");
        let r2 = c.poll(30);
        assert_eq!(r2.len(), 1);
        assert_eq!(c.retransmissions(), 2);
        // Budget of 3 transmissions exhausted: the next due poll gives up.
        let next = c.next_timer_cycle().expect("retry timer armed");
        assert!(c.poll(next).is_empty());
        assert!(c.gave_up());
        assert!(!c.has_pending_send());
    }

    #[test]
    fn ack_cancels_retransmission() {
        let mut c = Client::new(AppId(2), 1);
        let act = c.send_activation(0).expect("sends");
        let ack = rm_envelope(
            0,
            50,
            ControlMessage::Ack {
                app: AppId(2),
                of_seq: act.seq,
            },
        );
        assert!(
            c.deliver(ack, 50).is_empty(),
            "acks are not themselves acked"
        );
        assert!(!c.has_pending_send());
        assert!(c.poll(10_000).is_empty() || c.retransmissions() == 0);
        assert_eq!(c.retransmissions(), 0);
    }

    #[test]
    fn config_acks_and_activates_idempotently() {
        let mut c = Client::new(AppId(3), 2);
        let _ = c.request_transmit(0, 1.0);
        let _ = c.send_activation(0);
        let conf = rm_envelope(
            0,
            100,
            ControlMessage::Config {
                app: AppId(3),
                mode: SystemMode(1),
                rate: 0.5,
            },
        );
        let replies = c.deliver(conf, 100);
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].message.name(), "ackMsg");
        assert_eq!(c.state(), ClientState::Active);
        assert!(!c.has_pending_send(), "conf settles the activation");
        // Duplicated delivery: suppressed but re-acked.
        let replies = c.deliver(conf, 130);
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].message.name(), "ackMsg");
        assert_eq!(c.duplicates_suppressed(), 1);
    }

    #[test]
    fn refusal_releases_the_activation_loop() {
        let mut c = Client::new(AppId(4), 0);
        let _ = c.request_transmit(0, 1.0);
        let _ = c.send_activation(0);
        let rej = rm_envelope(0, 40, ControlMessage::Refusal { app: AppId(4) });
        assert!(
            c.deliver(rej, 40).is_empty(),
            "refusals are fire-and-forget"
        );
        assert!(!c.has_pending_send());
        assert_eq!(c.state(), ClientState::Idle);
    }

    #[test]
    fn heartbeats_flow_while_engaged() {
        let mut c = Client::try_with_fault_tolerance(AppId(5), 0, RetryPolicy::default(), 100)
            .expect("valid");
        // Idle with nothing pending: silent.
        assert!(c.poll(100).is_empty());
        let _ = c.request_transmit(0, 1.0);
        let _ = c.send_activation(0);
        let out = c.poll(100);
        assert!(out.iter().any(|e| e.message.name() == "hbMsg"));
        assert_eq!(c.heartbeats_sent(), 1);
        // Next heartbeat only after the interval.
        assert!(!c.poll(150).iter().any(|e| e.message.name() == "hbMsg"));
        assert!(c.poll(200).iter().any(|e| e.message.name() == "hbMsg"));
    }

    #[test]
    fn crashed_client_is_inert_and_fails_closed() {
        let mut c = admitted_client(1.0);
        c.crash();
        assert_eq!(c.liveness(), Liveness::Crashed);
        assert_eq!(c.request_transmit(5, 1.0), TransmitDecision::Blocked);
        assert!(c.send_activation(5).is_none());
        assert!(c.poll(10_000).is_empty());
        let conf = rm_envelope(
            7,
            10,
            ControlMessage::Config {
                app: AppId(1),
                mode: SystemMode(1),
                rate: 0.9,
            },
        );
        assert!(c.deliver(conf, 10).is_empty());
        assert_eq!(c.next_timer_cycle(), None);
        // Crash is permanent: hang cannot resurrect it.
        c.hang(99);
        assert_eq!(c.liveness(), Liveness::Crashed);
    }

    #[test]
    fn hung_client_queues_and_recovers() {
        let mut c = admitted_client(1.0);
        c.hang(500);
        assert_eq!(c.request_transmit(10, 1.0), TransmitDecision::Blocked);
        let stop = rm_envelope(3, 20, ControlMessage::Stop { app: AppId(1) });
        assert!(
            c.deliver(stop, 20).is_empty(),
            "hung: queued, not processed"
        );
        assert_eq!(c.state(), ClientState::Active, "stop not yet seen");
        assert!(c.poll(100).is_empty(), "hung clients emit nothing");
        // Waking processes the queued stopMsg.
        let _ = c.poll(500);
        assert!(c.is_alive());
        assert_eq!(c.state(), ClientState::Stopped);
    }

    #[test]
    fn termination_is_tracked_until_acked() {
        let mut c = admitted_client(1.0);
        let ter = c.send_termination(1_000).expect("sends");
        assert_eq!(ter.message.name(), "terMsg");
        assert_eq!(c.state(), ClientState::Idle, "local reset is immediate");
        assert!(c.has_pending_send());
        let ack = rm_envelope(
            9,
            1_100,
            ControlMessage::Ack {
                app: AppId(1),
                of_seq: ter.seq,
            },
        );
        let _ = c.deliver(ack, 1_100);
        assert!(!c.has_pending_send());
    }

    #[test]
    fn sequence_numbers_strictly_increase() {
        let mut c = Client::new(AppId(0), 0);
        let a = c.send_activation(0).expect("sends");
        let t = c.send_termination(10).expect("sends");
        assert!(t.seq > a.seq);
    }
}

//! The four-message control protocol of §V, plus its fault-tolerance
//! extensions.
//!
//! "The protocol consists of four control messages: activation (actMsg),
//! termination (terMsg), stop (stopMsg) and configuration (confMsg)."
//! Clients inform the RM of application activation/termination; before
//! changing rates the RM stops all active clients, then distributes the
//! new configuration, after which clients adjust their rate and unblock.
//!
//! On a lossy control plane the four paper messages alone deadlock: a
//! dropped `confMsg` leaves a client stopped forever. Three extension
//! messages make the protocol fault-tolerant:
//!
//! * `ackMsg` — explicit acknowledgement of a sequence-numbered message,
//!   enabling bounded retransmission;
//! * `hbMsg` — periodic client heartbeat driving the RM watchdog;
//! * `rejMsg` — explicit admission refusal, so a refused client stops
//!   retransmitting its `actMsg`.
//!
//! Messages travel in sequence-numbered [`Envelope`]s; receivers keep a
//! sequence window per peer (a client in its [`ReceiveState`], the RM in
//! each client's record) so duplicated deliveries (retransmission or
//! fault injection) are processed exactly once.

use autoplat_sim::hash::FxHashMap;
use autoplat_sim::SimTime;

use crate::app::AppId;
use crate::modes::SystemMode;

/// A control-layer message.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ControlMessage {
    /// `actMsg`: a client reports the activation of an application.
    Activation {
        /// The activating application.
        app: AppId,
    },
    /// `terMsg`: a client reports the termination of an application.
    Termination {
        /// The terminating application.
        app: AppId,
    },
    /// `stopMsg`: the RM blocks a client's NoC accesses before a rate
    /// change.
    Stop {
        /// The client (by its application) being blocked.
        app: AppId,
    },
    /// `confMsg`: the RM communicates the current system mode and the
    /// client's new injection rate; the client adjusts and unblocks.
    Config {
        /// The client (by its application) being configured.
        app: AppId,
        /// The system mode after the transition.
        mode: SystemMode,
        /// The new injection rate in items/cycle.
        rate: f64,
    },
    /// `ackMsg` (extension): acknowledges receipt of the sequence-numbered
    /// message `of_seq` from the peer identified by `app`.
    Ack {
        /// The application whose endpoint the ack concerns.
        app: AppId,
        /// The acknowledged sequence number.
        of_seq: u64,
    },
    /// `hbMsg` (extension): periodic client liveness beacon; feeds the RM
    /// watchdog.
    Heartbeat {
        /// The application whose client is alive.
        app: AppId,
    },
    /// `rejMsg` (extension): the RM refuses an admission, releasing the
    /// client from its activation retransmission loop.
    Refusal {
        /// The refused application.
        app: AppId,
    },
}

impl ControlMessage {
    /// The application this message concerns.
    pub fn app(&self) -> AppId {
        match self {
            ControlMessage::Activation { app }
            | ControlMessage::Termination { app }
            | ControlMessage::Stop { app }
            | ControlMessage::Config { app, .. }
            | ControlMessage::Ack { app, .. }
            | ControlMessage::Heartbeat { app }
            | ControlMessage::Refusal { app } => *app,
        }
    }

    /// Short protocol name (`actMsg`, `terMsg`, `stopMsg`, `confMsg`, and
    /// the extensions `ackMsg`, `hbMsg`, `rejMsg`).
    pub fn name(&self) -> &'static str {
        match self {
            ControlMessage::Activation { .. } => "actMsg",
            ControlMessage::Termination { .. } => "terMsg",
            ControlMessage::Stop { .. } => "stopMsg",
            ControlMessage::Config { .. } => "confMsg",
            ControlMessage::Ack { .. } => "ackMsg",
            ControlMessage::Heartbeat { .. } => "hbMsg",
            ControlMessage::Refusal { .. } => "rejMsg",
        }
    }

    /// True for messages a receiver must acknowledge (`actMsg`, `terMsg`,
    /// `confMsg`). `stopMsg` is covered by the `confMsg` that follows it,
    /// and acks/heartbeats/refusals are fire-and-forget.
    pub fn needs_ack(&self) -> bool {
        matches!(
            self,
            ControlMessage::Activation { .. }
                | ControlMessage::Termination { .. }
                | ControlMessage::Config { .. }
        )
    }
}

impl std::fmt::Display for ControlMessage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}({})", self.name(), self.app())
    }
}

/// A timestamped record of one protocol message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageRecord {
    /// When the message was sent.
    pub at: SimTime,
    /// The message.
    pub message: ControlMessage,
}

/// The RM-side protocol trace: every message sent or received, in order.
#[derive(Debug, Clone, Default)]
pub struct MessageLog {
    records: Vec<MessageRecord>,
}

impl MessageLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        MessageLog::default()
    }

    /// Appends a message.
    pub fn record(&mut self, at: SimTime, message: ControlMessage) {
        self.records.push(MessageRecord { at, message });
    }

    /// All records in order.
    pub fn records(&self) -> &[MessageRecord] {
        &self.records
    }

    /// Number of messages with the given protocol name.
    pub fn count(&self, name: &str) -> usize {
        self.records
            .iter()
            .filter(|r| r.message.name() == name)
            .count()
    }

    /// Total messages.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// A protocol endpoint: the RM or the client supervising one application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Endpoint {
    /// The central Resource Manager.
    Rm,
    /// The per-node client of the given application.
    Client(AppId),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Rm => write!(f, "rm"),
            Endpoint::Client(app) => write!(f, "client:{app}"),
        }
    }
}

/// A sequence-numbered control message in flight between two endpoints.
///
/// Sequence numbers are per *sender* endpoint and strictly increasing, so
/// a receiver's sequence window (a client's [`ReceiveState`], an RM's
/// per-client record) can discard duplicated deliveries while tolerating
/// reordering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Sender.
    pub from: Endpoint,
    /// Receiver.
    pub to: Endpoint,
    /// Per-sender sequence number.
    pub seq: u64,
    /// Cycle at which the sender handed the message to the control plane.
    pub sent_at_cycle: u64,
    /// The payload.
    pub message: ControlMessage,
}

/// Per-peer duplicate suppression for idempotent receive handling.
///
/// Tracks which sequence numbers have been accepted from each peer; a
/// duplicated delivery (fault injection or retransmission racing an ack)
/// is reported once and ignored afterwards. Reordered deliveries are
/// accepted: each peer's window remembers exactly which seqs it took (a
/// floor plus the seqs above it), not a high-water mark. Peers are only
/// ever looked up, so they are hashed. A client runs one of these for
/// the envelopes the RM sends it; the RM keeps each client's window in
/// that client's own record instead (see
/// [`ResourceManager`](crate::rm::ResourceManager)).
///
/// # Examples
///
/// ```
/// use autoplat_admission::protocol::{Endpoint, ReceiveState};
///
/// let mut rx = ReceiveState::new();
/// assert!(rx.accept(Endpoint::Rm, 0));
/// assert!(rx.accept(Endpoint::Rm, 2)); // reordered: still accepted
/// assert!(!rx.accept(Endpoint::Rm, 0)); // duplicate: suppressed
/// assert_eq!(rx.duplicates_suppressed(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReceiveState {
    seen: FxHashMap<Endpoint, SeqWindow>,
    duplicates: u64,
}

/// The seqs accepted from one peer, answering exactly like a set of
/// every seq it took: every seq below `floor`, those in `above` (sorted
/// ascending, all above the floor and below `u64::MAX`), and `u64::MAX`
/// itself when `top` is set. Accepting the floor advances it through
/// the run of seqs `above` already holds, so a peer whose seqs count up,
/// as a client's envelopes to the RM do, costs O(1) state however long
/// it runs. A sparse stream keeps one `above` entry per accepted seq: the
/// RM numbers its envelopes to every client from one counter, so a
/// client's window holds every seq it accepted above its floor. The top
/// seq, which every fleet heartbeat reuses, is a flag rather than an
/// entry: the floor never reaches past it, and a heartbeat then touches
/// no list.
#[derive(Debug, Clone, Default)]
pub(crate) struct SeqWindow {
    floor: u64,
    above: Vec<u64>,
    top: bool,
}

impl SeqWindow {
    /// Records `seq`; false when it was already accepted.
    pub(crate) fn insert(&mut self, seq: u64) -> bool {
        if seq == u64::MAX {
            return !std::mem::replace(&mut self.top, true);
        }
        if seq < self.floor {
            return false;
        }
        if seq == self.floor {
            self.floor += 1;
            let mut run = 0;
            while self.above.get(run) == Some(&self.floor) {
                self.floor += 1;
                run += 1;
            }
            self.above.drain(..run);
            return true;
        }
        match self.above.binary_search(&seq) {
            Ok(_) => false,
            Err(at) => {
                self.above.insert(at, seq);
                true
            }
        }
    }
}

impl ReceiveState {
    /// Creates an empty receive window.
    pub fn new() -> Self {
        ReceiveState::default()
    }

    /// Returns true when `(peer, seq)` is fresh and records it; false for
    /// an already-processed duplicate.
    pub fn accept(&mut self, peer: Endpoint, seq: u64) -> bool {
        let fresh = self.seen.entry(peer).or_default().insert(seq);
        if !fresh {
            self.duplicates += 1;
        }
        fresh
    }

    /// How many duplicated deliveries were suppressed.
    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates
    }

    /// Forgets everything heard from `peer` (e.g. after it crashes and a
    /// fresh client re-registers with sequence numbers starting over).
    pub fn forget(&mut self, peer: Endpoint) {
        self.seen.remove(&peer);
    }
}

// ---------------------------------------------------------------------
// Bundle frames: the hierarchical (cluster ⇄ root) control plane
// ---------------------------------------------------------------------

/// A per-cluster Resource Manager in the two-level hierarchy.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct ClusterId(pub u32);

impl std::fmt::Display for ClusterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cluster{}", self.0)
    }
}

/// One entry of a cluster → root bundle. Budget amounts are integer
/// milli-items/cycle so root-side accounting is exact (no float drift in
/// the conservation invariant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BundleItem {
    /// Acknowledges the root's decision bundle `of_seq` (bundle-level ack:
    /// one ack covers every decision the bundle carried).
    Ack {
        /// The acknowledged root bundle sequence number.
        of_seq: u64,
    },
    /// Requests `rate_milli` of guaranteed capacity so `app` can be
    /// admitted into this cluster's shard.
    Request {
        /// The application awaiting admission.
        app: AppId,
        /// Requested guaranteed rate, in milli-items/cycle.
        rate_milli: u64,
    },
    /// Returns capacity held for `app` after it terminated or was
    /// reclaimed by the cluster's watchdog.
    Release {
        /// The departed application.
        app: AppId,
        /// Released guaranteed rate, in milli-items/cycle.
        rate_milli: u64,
    },
}

/// `bundleMsg`: the one coalesced frame a cluster RM emits per kernel
/// step — acks of root decisions, a heartbeat digest, and any budget
/// requests/releases — instead of per-client control messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterBundle {
    /// The emitting cluster.
    pub cluster: ClusterId,
    /// Per-cluster bundle sequence number (the retransmission/dedup key).
    pub seq: u64,
    /// Cycle at which the cluster handed the bundle to the plane.
    pub sent_at_cycle: u64,
    /// Heartbeat digest: how many clients of the shard are live.
    pub live_clients: u64,
    /// The coalesced control items, in cluster-deterministic order.
    pub items: Vec<BundleItem>,
}

impl ClusterBundle {
    /// True when the bundle carries state the root must not lose (budget
    /// requests or releases) and therefore must be acknowledged; ack- and
    /// digest-only bundles are fire-and-forget.
    pub fn needs_ack(&self) -> bool {
        self.items
            .iter()
            .any(|i| matches!(i, BundleItem::Request { .. } | BundleItem::Release { .. }))
    }
}

/// The root arbiter's verdict on one budget request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrantDecision {
    /// The request fit the remaining global budget; the cluster may admit.
    Granted {
        /// The application whose request was granted.
        app: AppId,
        /// Granted guaranteed rate, in milli-items/cycle.
        rate_milli: u64,
    },
    /// The request exceeded the remaining global budget; the cluster must
    /// refuse the admission.
    Denied {
        /// The application whose request was denied.
        app: AppId,
    },
}

impl GrantDecision {
    /// The application the decision concerns.
    pub fn app(&self) -> AppId {
        match self {
            GrantDecision::Granted { app, .. } | GrantDecision::Denied { app } => *app,
        }
    }
}

/// `grantMsg`: the root arbiter's coalesced downstream frame — grant
/// decisions plus the ack of a received cluster bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootBundle {
    /// The destination cluster.
    pub to: ClusterId,
    /// Root-side bundle sequence number towards `to` (the
    /// retransmission/dedup key).
    pub seq: u64,
    /// Cycle at which the root handed the bundle to the plane.
    pub sent_at_cycle: u64,
    /// Acknowledges the cluster bundle with this sequence number, if any.
    pub ack_of: Option<u64>,
    /// Decisions on this cluster's outstanding budget requests.
    pub decisions: Vec<GrantDecision>,
}

impl RootBundle {
    /// True when the bundle carries decisions the cluster must not lose;
    /// pure acks are fire-and-forget.
    pub fn needs_ack(&self) -> bool {
        !self.decisions.is_empty()
    }
}

/// A frame on the hierarchical control plane: the lossy link carries both
/// directions so one fault injector (and one deterministic delivery
/// order) governs the whole cluster ⇄ root exchange.
#[derive(Debug, Clone, PartialEq)]
pub enum BundleFrame {
    /// Cluster → root.
    Up(ClusterBundle),
    /// Root → cluster.
    Down(RootBundle),
}

impl BundleFrame {
    /// The fault-injection class of the frame (`bundleMsg` upstream,
    /// `grantMsg` downstream), mirroring [`ControlMessage::name`].
    pub fn class(&self) -> &'static str {
        match self {
            BundleFrame::Up(_) => "bundleMsg",
            BundleFrame::Down(_) => "grantMsg",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_apps() {
        let msgs = [
            ControlMessage::Activation { app: AppId(1) },
            ControlMessage::Termination { app: AppId(2) },
            ControlMessage::Stop { app: AppId(3) },
            ControlMessage::Config {
                app: AppId(4),
                mode: SystemMode(2),
                rate: 0.5,
            },
        ];
        assert_eq!(msgs[0].name(), "actMsg");
        assert_eq!(msgs[1].name(), "terMsg");
        assert_eq!(msgs[2].name(), "stopMsg");
        assert_eq!(msgs[3].name(), "confMsg");
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(m.app(), AppId(i as u32 + 1));
        }
        assert_eq!(msgs[0].to_string(), "actMsg(app1)");
    }

    #[test]
    fn log_counts() {
        let mut log = MessageLog::new();
        assert!(log.is_empty());
        log.record(SimTime::ZERO, ControlMessage::Activation { app: AppId(0) });
        log.record(SimTime::ZERO, ControlMessage::Stop { app: AppId(0) });
        log.record(SimTime::ZERO, ControlMessage::Stop { app: AppId(1) });
        assert_eq!(log.count("stopMsg"), 2);
        assert_eq!(log.count("actMsg"), 1);
        assert_eq!(log.count("terMsg"), 0);
        assert_eq!(log.len(), 3);
        assert_eq!(log.records().len(), 3);
    }

    #[test]
    fn extension_names_and_ack_rules() {
        let ack = ControlMessage::Ack {
            app: AppId(1),
            of_seq: 9,
        };
        let hb = ControlMessage::Heartbeat { app: AppId(2) };
        let rej = ControlMessage::Refusal { app: AppId(3) };
        assert_eq!(ack.name(), "ackMsg");
        assert_eq!(hb.name(), "hbMsg");
        assert_eq!(rej.name(), "rejMsg");
        assert_eq!(ack.app(), AppId(1));
        assert_eq!(hb.app(), AppId(2));
        assert_eq!(rej.app(), AppId(3));
        assert!(!ack.needs_ack(), "acking an ack would never terminate");
        assert!(!hb.needs_ack());
        assert!(!rej.needs_ack());
        assert!(ControlMessage::Activation { app: AppId(0) }.needs_ack());
        assert!(ControlMessage::Termination { app: AppId(0) }.needs_ack());
        assert!(ControlMessage::Config {
            app: AppId(0),
            mode: SystemMode(1),
            rate: 0.5
        }
        .needs_ack());
        assert!(!ControlMessage::Stop { app: AppId(0) }.needs_ack());
    }

    #[test]
    fn endpoint_display() {
        assert_eq!(Endpoint::Rm.to_string(), "rm");
        assert_eq!(Endpoint::Client(AppId(4)).to_string(), "client:app4");
    }

    #[test]
    fn bundle_ack_rules_and_classes() {
        let digest = ClusterBundle {
            cluster: ClusterId(3),
            seq: 0,
            sent_at_cycle: 10,
            live_clients: 4,
            items: vec![BundleItem::Ack { of_seq: 7 }],
        };
        assert!(
            !digest.needs_ack(),
            "ack/digest-only bundles fire and forget"
        );
        let stateful = ClusterBundle {
            items: vec![
                BundleItem::Ack { of_seq: 7 },
                BundleItem::Request {
                    app: AppId(1),
                    rate_milli: 50,
                },
            ],
            ..digest.clone()
        };
        assert!(stateful.needs_ack());
        let release_only = ClusterBundle {
            items: vec![BundleItem::Release {
                app: AppId(1),
                rate_milli: 50,
            }],
            ..digest.clone()
        };
        assert!(release_only.needs_ack(), "releases carry budget state");

        let pure_ack = RootBundle {
            to: ClusterId(3),
            seq: 0,
            sent_at_cycle: 20,
            ack_of: Some(1),
            decisions: vec![],
        };
        assert!(!pure_ack.needs_ack());
        let decisions = RootBundle {
            decisions: vec![GrantDecision::Granted {
                app: AppId(1),
                rate_milli: 50,
            }],
            ..pure_ack.clone()
        };
        assert!(decisions.needs_ack());
        assert_eq!(decisions.decisions[0].app(), AppId(1));
        assert_eq!(GrantDecision::Denied { app: AppId(9) }.app(), AppId(9));

        assert_eq!(BundleFrame::Up(stateful).class(), "bundleMsg");
        assert_eq!(BundleFrame::Down(decisions).class(), "grantMsg");
        assert_eq!(ClusterId(2).to_string(), "cluster2");
    }

    #[test]
    fn receive_state_suppresses_duplicates_only() {
        let mut rx = ReceiveState::new();
        let peer = Endpoint::Client(AppId(0));
        assert!(rx.accept(peer, 0));
        assert!(rx.accept(peer, 1));
        assert!(!rx.accept(peer, 1));
        assert!(!rx.accept(peer, 0));
        // Other peers have independent windows.
        assert!(rx.accept(Endpoint::Client(AppId(1)), 0));
        assert_eq!(rx.duplicates_suppressed(), 2);
        rx.forget(peer);
        assert!(rx.accept(peer, 0), "forgotten peers start fresh");
    }

    #[test]
    fn seq_window_floor_stops_at_u64_max() {
        let mut w = SeqWindow {
            floor: u64::MAX - 2,
            ..SeqWindow::default()
        };
        assert!(w.insert(u64::MAX));
        assert!(w.insert(u64::MAX - 2));
        assert_eq!(
            (w.floor, w.above.as_slice(), w.top),
            (u64::MAX - 1, &[][..], true)
        );
        // Accepting MAX - 1 reaches the top, which stays a flag.
        assert!(w.insert(u64::MAX - 1));
        assert_eq!(
            (w.floor, w.above.as_slice(), w.top),
            (u64::MAX, &[][..], true)
        );
        assert!(!w.insert(u64::MAX));
        assert!(!w.insert(u64::MAX - 1));
        let mut top = SeqWindow {
            floor: u64::MAX,
            ..SeqWindow::default()
        };
        assert!(top.insert(u64::MAX));
        assert!(!top.insert(u64::MAX));
    }
}

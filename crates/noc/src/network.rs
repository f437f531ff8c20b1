//! The synchronous NoC simulator, driven by the shared event kernel.
//!
//! Every cycle, each router moves at most one flit per output port:
//! locked outputs continue their wormhole, free outputs run round-robin
//! arbitration among the head flits that route to them. Movements are
//! decided against a snapshot of buffer occupancy and applied atomically,
//! so the simulation is order-independent and deterministic.
//!
//! A cycle costs the flits that can move, not the mesh size:
//!
//! * Two node sets — routers holding a flit, and sources with a queued
//!   packet — change only where a flit enters or leaves a router and
//!   where a packet enters or leaves a source queue. A cycle walks only
//!   their members, in ascending node order, and nothing at all while
//!   both are empty. An empty router has no head flit, so a locked output
//!   would see a bubble and an unlocked one would have no candidate, and
//!   neither changes a lock or a round-robin pointer.
//! * Within a router, the occupied-input mask names the head flits to
//!   route (each once per cycle), and only outputs that are locked or
//!   requested are decided, in ascending port order; arbitration
//!   candidates come from a per-output request mask (see
//!   [`router`](crate::router)).
//! * Routing compares each router's stored `(x, y)` with the
//!   destination's, and a neighbour is `±1` or `±cols` away: no division
//!   on the hot path. [`Mesh::route_xy`] and [`Mesh::neighbor`] stay the
//!   reference the tests check it against.
//! * Every input buffer is a ring in one flat allocation
//!   ([`InputBuffers`]), and a source queue holds whole packets, making
//!   each flit (with [`Packet::flit`]) as it enters the local port.
//!
//! A packet costs O(1) bookkeeping whatever the backlog: the in-flight
//! table is a hash map on packet id, and a caller that takes completion
//! records with [`NocSim::drain_completed`] keeps the record store as
//! small as one cycle's ejections. The delivered count and the latency
//! statistics live beside the records, so draining changes no export.
//!
//! No per-cycle reservation of downstream buffer slots is needed: input
//! port `p` of router `d` is fed by exactly one (router, output) pair —
//! the neighbour of `d` towards `p`, through output `p.opposite()` — and
//! that pair is decided once per cycle. So the space seen in the snapshot
//! is never claimed twice.
//!
//! Time advances through [`autoplat_sim::Engine`]: [`NocSim`] implements
//! [`Process`] and activates itself with [`NocEvent::Tick`] events only
//! while flits are queued or buffered, jumping over idle gaps between
//! release times instead of stepping through them cycle by cycle — a real
//! win on sparse traffic. [`NocSim::step`] remains the tick-stepped
//! primitive (one cycle of movement) that each delivered tick executes.

use std::collections::VecDeque;

use autoplat_sim::engine::{Engine, EventSink, Process};
use autoplat_sim::hash::FxHashMap;
use autoplat_sim::metrics::{HistogramSketch, MetricsRegistry};
use autoplat_sim::{SimDuration, SimTime, Summary};

use crate::packet::{Flit, Packet};
use crate::router::{InputBuffers, Lock, Router};
use crate::topology::{Direction, Mesh, NodeId};

/// NoC configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocConfig {
    /// Mesh width.
    pub cols: u32,
    /// Mesh height.
    pub rows: u32,
    /// Input buffer depth per port, in flits.
    pub buffer_flits: usize,
    /// Wall-clock duration of one cycle (link traversal), in nanoseconds.
    pub cycle_ns: f64,
}

impl NocConfig {
    /// Creates a configuration with 4-flit buffers and 1 ns cycles.
    pub fn new(cols: u32, rows: u32) -> Self {
        NocConfig {
            cols,
            rows,
            buffer_flits: 4,
            cycle_ns: 1.0,
        }
    }

    /// Builder-style buffer depth.
    pub fn with_buffer_flits(mut self, flits: usize) -> Self {
        self.buffer_flits = flits;
        self
    }

    /// Builder-style cycle time.
    pub fn with_cycle_ns(mut self, cycle_ns: f64) -> Self {
        self.cycle_ns = cycle_ns;
        self
    }
}

/// Completion record of one packet, timestamped in [`SimTime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRecord {
    /// The packet.
    pub packet: Packet,
    /// Instant the packet was released for injection.
    pub injected_at: SimTime,
    /// Instant the tail flit was ejected at the destination.
    pub ejected_at: SimTime,
    /// Cycle duration of the network that delivered the packet, for
    /// cycle-domain views of the timestamps.
    cycle_time: SimDuration,
}

impl PacketRecord {
    /// End-to-end latency (injection to tail ejection).
    pub fn latency(&self) -> SimDuration {
        self.ejected_at.saturating_since(self.injected_at)
    }

    /// End-to-end latency in cycles (injection to tail ejection).
    pub fn latency_cycles(&self) -> u64 {
        self.latency().div_duration(self.cycle_time)
    }

    /// Cycle the packet was handed to [`NocSim::inject`].
    pub fn injected_cycle(&self) -> u64 {
        self.injected_at.as_ps() / self.cycle_time.as_ps()
    }

    /// Cycle the tail flit was ejected at the destination.
    pub fn ejected_cycle(&self) -> u64 {
        self.ejected_at.as_ps() / self.cycle_time.as_ps()
    }
}

/// Events driving [`NocSim`] on the shared kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NocEvent {
    /// Simulate one cycle of flit movement at the fire time.
    Tick,
}

/// A decided flit movement (phase A result): the head flit of input
/// `in_port` of router `from` leaves through output `out` — ejection
/// when `out` is the local port, otherwise a hop to the neighbour.
#[derive(Debug, Clone, Copy)]
struct Move {
    from: u32,
    in_port: u8,
    out: u8,
}

/// A packet waiting at its source: flits `next_seq..` have yet to enter
/// the local input port, none before `release`.
#[derive(Debug, Clone, Copy)]
struct Queued {
    packet: Packet,
    next_seq: u32,
    release: SimTime,
}

/// A set of node indices as a bitset.
#[derive(Debug, Clone)]
struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    fn new(nodes: usize) -> Self {
        NodeSet {
            words: vec![0; nodes.div_ceil(64)],
        }
    }

    fn insert(&mut self, node: usize) {
        self.words[node / 64] |= 1 << (node % 64);
    }

    fn remove(&mut self, node: usize) {
        self.words[node / 64] &= !(1 << (node % 64));
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The members of word `w`, ascending. The iterator holds a copy of
    /// the word, so the caller may change the set while walking it.
    fn word(&self, w: usize) -> Bits {
        Bits {
            word: self.words[w],
            base: w * 64,
        }
    }

    /// All members, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.words.len()).flat_map(|w| self.word(w))
    }
}

/// The set bits of one bitset word, lowest first, offset by `base`.
struct Bits {
    word: u64,
    base: usize,
}

impl Iterator for Bits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

/// The NoC simulator.
///
/// # Examples
///
/// ```
/// use autoplat_noc::{NocConfig, NocSim, Packet, NodeId};
///
/// let mut noc = NocSim::new(NocConfig::new(2, 2));
/// noc.inject(Packet::new(1, NodeId::at(0, 0, 2), NodeId::at(1, 1, 2), 2), 0);
/// assert!(noc.run_until_idle(1000));
/// let rec = &noc.completed()[0];
/// // 2 hops + serialization: the tail arrives a few cycles after t=0.
/// assert!(rec.latency_cycles() >= 3);
/// ```
#[derive(Debug)]
pub struct NocSim {
    mesh: Mesh,
    /// Per-router lock, round-robin and mask state, indexed by node.
    routers: Vec<Router>,
    /// Every router's input buffers, at port index `node * 5 + port`.
    buffers: InputBuffers,
    /// Per output port, the neighbour's node offset as a wrapping add:
    /// the neighbour of `n` through output `out` is
    /// `n.wrapping_add(neighbor_offset[out])`.
    neighbor_offset: [usize; 5],
    /// Per-node source queues: packets awaiting entry at the local port.
    sources: Vec<VecDeque<Queued>>,
    /// Routers holding at least one flit.
    active: NodeSet,
    /// Nodes whose source queue is non-empty.
    queued: NodeSet,
    /// Packet bookkeeping: id → (packet, release instant), looked up by
    /// id only.
    in_flight: FxHashMap<u64, (Packet, SimTime)>,
    /// Completion records not yet drained, in completion order.
    completed: Vec<PacketRecord>,
    /// The front of simulated time: the start of the next cycle to run.
    now: SimTime,
    cycle_time: SimDuration,
    /// Fire time of the tick currently scheduled on a driving engine, if
    /// any; stale (superseded) ticks are recognised and ignored.
    scheduled: Option<SimTime>,
    /// Latency statistics over every delivered packet, in cycles; its
    /// count is the delivered count.
    latency: Summary,
    /// The same latencies as a histogram for [`NocSim::publish_metrics`],
    /// built at the first delivery.
    latency_sketch: Option<HistogramSketch>,
    /// Phase-A decisions of the current cycle; kept to reuse its storage.
    moves: Vec<Move>,
    /// Flit traversals per directed link, indexed `router * 5 + output
    /// port`.
    link_flits: Vec<u64>,
}

impl NocSim {
    /// Creates an idle network. Its storage is a fixed number of
    /// allocations whatever the mesh size.
    ///
    /// # Panics
    ///
    /// Panics on zero mesh dimensions or zero buffer depth.
    pub fn new(config: NocConfig) -> Self {
        let mesh = Mesh::new(config.cols, config.rows);
        let nodes = mesh.nodes() as usize;
        let routers = (0..mesh.nodes())
            .map(|n| {
                let (x, y) = NodeId(n).coords(mesh.cols());
                Router::new(x, y)
            })
            .collect();
        let cols = mesh.cols() as usize;
        let cycle_time = SimDuration::from_ns(config.cycle_ns);
        assert!(
            cycle_time > SimDuration::ZERO,
            "cycle time must be non-zero"
        );
        NocSim {
            mesh,
            routers,
            buffers: InputBuffers::new(nodes, config.buffer_flits),
            neighbor_offset: [0, cols.wrapping_neg(), cols, 1, usize::MAX],
            sources: (0..nodes).map(|_| VecDeque::new()).collect(),
            active: NodeSet::new(nodes),
            queued: NodeSet::new(nodes),
            in_flight: FxHashMap::default(),
            completed: Vec::new(),
            now: SimTime::ZERO,
            cycle_time,
            scheduled: None,
            latency: Summary::new(),
            latency_sketch: None,
            moves: Vec::new(),
            link_flits: vec![0; nodes * 5],
        }
    }

    /// The mesh topology.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The current time: the start of the next cycle to simulate.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Duration of one cycle.
    pub fn cycle_time(&self) -> SimDuration {
        self.cycle_time
    }

    /// The current cycle (elapsed time divided by the cycle duration).
    pub fn cycle(&self) -> u64 {
        self.now.as_ps() / self.cycle_time.as_ps()
    }

    /// Queues `packet` for injection at its source, released no earlier
    /// than `release_cycle` (cycle-domain convenience for
    /// [`NocSim::inject_at`]).
    pub fn inject(&mut self, packet: Packet, release_cycle: u64) {
        self.inject_at(
            packet,
            SimTime::from_ps(0) + self.cycle_time * release_cycle,
        );
    }

    /// Queues `packet` for injection at its source, released no earlier
    /// than `release`.
    ///
    /// # Panics
    ///
    /// Panics if source or destination lie outside the mesh, or if the
    /// packet id is already in flight. An id may be reused once its
    /// packet is delivered.
    pub fn inject_at(&mut self, packet: Packet, release: SimTime) {
        assert!(
            self.mesh.contains(packet.src) && self.mesh.contains(packet.dest),
            "packet endpoints outside mesh"
        );
        let previous = self.in_flight.insert(packet.id, (packet, release));
        assert!(
            previous.is_none(),
            "packet id {} already in flight",
            packet.id
        );
        let src = packet.src.0 as usize;
        self.sources[src].push_back(Queued {
            packet,
            next_seq: 0,
            release,
        });
        self.queued.insert(src);
    }

    /// Advances the simulation by one cycle (the tick-stepped primitive:
    /// each [`NocEvent::Tick`] delivered by the kernel executes one step).
    pub fn step(&mut self) {
        // Source injection: one flit per node per cycle into the local
        // input port, respecting release times and buffer space.
        for w in 0..self.queued.words.len() {
            for n in self.queued.word(w) {
                self.inject_flit(n);
            }
        }

        // Phase A: decide at most one movement per (router, output port),
        // for the routers holding a flit.
        let mut moves = std::mem::take(&mut self.moves);
        for w in 0..self.active.words.len() {
            for r in self.active.word(w) {
                self.decide_router(r, &mut moves);
            }
        }

        // Phase B: apply.
        for &Move { from, in_port, out } in &moves {
            let (from, out) = (from as usize, out as usize);
            let flit = self.pop_flit(from, in_port as usize);
            if out == Direction::Local.index() {
                self.eject(flit);
            } else {
                self.link_flits[from * 5 + out] += 1;
                let to = from.wrapping_add(self.neighbor_offset[out]);
                let to_port = Direction::ALL[out].opposite().index();
                self.push_flit(to, to_port, flit);
            }
        }
        moves.clear();
        self.moves = moves;
        self.now += self.cycle_time;
    }

    /// Moves the next flit of node `n`'s front packet into its local
    /// input port, if the packet is released and the port has space.
    fn inject_flit(&mut self, n: usize) {
        let queue = &mut self.sources[n];
        let front = queue.front_mut().expect("queued source has a packet");
        let local = Direction::Local.index();
        if front.release > self.now || !self.buffers.has_space(n * 5 + local) {
            return;
        }
        let flit = front.packet.flit(front.next_seq);
        front.next_seq += 1;
        if front.next_seq == front.packet.flits {
            queue.pop_front();
            if queue.is_empty() {
                self.queued.remove(n);
            }
        }
        self.push_flit(n, local, flit);
    }

    /// Appends `flit` to input `port` of router `r`.
    fn push_flit(&mut self, r: usize, port: usize, flit: Flit) {
        self.buffers.push(r * 5 + port, flit);
        self.routers[r].set_occupied(port, true);
        self.active.insert(r);
    }

    /// Removes the head flit of input `port` of router `r`.
    fn pop_flit(&mut self, r: usize, port: usize) -> Flit {
        let flit = self.buffers.pop(r * 5 + port).expect("decided flit");
        if self.buffers.occupancy(r * 5 + port) == 0 {
            let router = &mut self.routers[r];
            router.set_occupied(port, false);
            if router.occupied() == 0 {
                self.active.remove(r);
            }
        }
        flit
    }

    /// Takes an ejected `flit` off the network; its tail completes the
    /// packet.
    fn eject(&mut self, flit: Flit) {
        if !flit.kind.is_tail() {
            return;
        }
        let (packet, injected_at) = self
            .in_flight
            .remove(&flit.packet)
            .expect("tail of a tracked packet");
        let rec = PacketRecord {
            packet,
            injected_at,
            ejected_at: self.now + self.cycle_time,
            cycle_time: self.cycle_time,
        };
        let cycles = rec.latency_cycles() as f64;
        self.latency.record(cycles);
        self.latency_sketch
            .get_or_insert_with(HistogramSketch::new)
            .record(cycles);
        self.completed.push(rec);
    }

    /// The output port at router `r` towards `dest`: X first, then Y,
    /// local on arrival (what [`Mesh::route_xy`] answers, from the
    /// routers' stored coordinates).
    fn route(&self, r: usize, dest: NodeId) -> usize {
        let (x, y) = self.routers[r].coords();
        let (dx, dy) = self.routers[dest.0 as usize].coords();
        let dir = if x < dx {
            Direction::East
        } else if x > dx {
            Direction::West
        } else if y < dy {
            Direction::South
        } else if y > dy {
            Direction::North
        } else {
            Direction::Local
        };
        dir.index()
    }

    /// Decides the movements of router `r` into `moves`, one output port
    /// at a time in ascending port order.
    fn decide_router(&mut self, r: usize, moves: &mut Vec<Move>) {
        let base = r * 5;
        // Route each waiting head flit once: `requests[o]` holds the
        // inputs whose head flit wants output `o`. Buffers do not change
        // during phase A, so this holds for every output of this cycle.
        let mut requests = [0u8; 5];
        let mut requested = 0u8;
        let mut inputs = self.routers[r].occupied();
        while inputs != 0 {
            let p = inputs.trailing_zeros() as usize;
            inputs &= inputs - 1;
            let flit = self.buffers.front(base + p).expect("occupied input");
            if flit.kind.is_head() {
                let out = self.route(r, flit.dest);
                requests[out] |= 1 << p;
                requested |= 1 << out;
            }
        }
        // An unlocked output nobody requests has nothing to decide.
        let mut outputs = requested | self.routers[r].locked();
        while outputs != 0 {
            let out = outputs.trailing_zeros() as usize;
            outputs &= outputs - 1;
            if let Some(in_port) = self.decide_output(r, out, requests[out]) {
                moves.push(Move {
                    from: r as u32,
                    in_port: in_port as u8,
                    out: out as u8,
                });
            }
        }
    }

    /// Decides which input, if any, output port `out` of router `r`
    /// serves this cycle, given the inputs whose head flits request it.
    fn decide_output(&mut self, r: usize, out: usize, requests: u8) -> Option<usize> {
        // Can the downstream accept a flit this cycle? Ejection always
        // can. XY routing never picks an edge port, so a locked or
        // requested output always has a neighbour.
        let dir = Direction::ALL[out];
        if dir != Direction::Local {
            let d = r.wrapping_add(self.neighbor_offset[out]);
            debug_assert_eq!(
                self.mesh
                    .neighbor(NodeId(r as u32), dir)
                    .map(|n| n.0 as usize),
                Some(d),
                "route leads off the mesh"
            );
            if !self.buffers.has_space(d * 5 + dir.opposite().index()) {
                return None;
            }
        }
        let base = r * 5;
        match self.routers[r].lock(out) {
            // Continuing wormhole.
            Some(Lock { in_port, packet }) => {
                let flit = match self.buffers.front(base + in_port) {
                    Some(f) if f.packet == packet => *f,
                    _ => return None, // bubble: hold the path
                };
                if flit.kind.is_tail() {
                    self.routers[r].set_lock(out, None);
                }
                Some(in_port)
            }
            // New wormhole: head flits at input ports routing to this
            // output. MPAM-style priority partitioning: the highest packet
            // priority wins arbitration; round-robin breaks ties (§III-B.4).
            None => {
                let mut candidates = 0u8;
                let mut top_priority = 0;
                let mut rest = requests;
                while rest != 0 {
                    let p = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    let priority = self.buffers.front(base + p).expect("routed").priority;
                    if candidates == 0 || priority > top_priority {
                        top_priority = priority;
                        candidates = 0;
                    }
                    if priority == top_priority {
                        candidates |= 1 << p;
                    }
                }
                let in_port = self.routers[r].arbitrate(out, candidates)?;
                let flit = *self
                    .buffers
                    .front(base + in_port)
                    .expect("candidate exists");
                if !flit.kind.is_tail() {
                    self.routers[r].set_lock(
                        out,
                        Some(Lock {
                            in_port,
                            packet: flit.packet,
                        }),
                    );
                }
                Some(in_port)
            }
        }
    }

    /// The earliest instant the network needs a cycle tick: immediately
    /// when flits are buffered in routers, at the (cycle-aligned) earliest
    /// source release when only queued traffic remains, or never when idle.
    pub fn next_activation(&self) -> Option<SimTime> {
        if !self.active.is_empty() {
            return Some(self.now);
        }
        self.queued
            .iter()
            .map(|n| self.sources[n].front().expect("queued source").release)
            .min()
            .map(|release| self.grid_ceil(release).max(self.now))
    }

    /// Rounds `t` up to the cycle grid.
    fn grid_ceil(&self, t: SimTime) -> SimTime {
        let c = self.cycle_time.as_ps();
        SimTime::from_ps(t.as_ps().div_ceil(c).saturating_mul(c))
    }

    /// Schedules the next tick on `sink` if the network needs one earlier
    /// than whatever is already scheduled. Call after injecting packets
    /// while the network is driven by an external engine.
    pub fn pump(&mut self, sink: &mut dyn EventSink<NocEvent>) {
        if let Some(at) = self.next_activation() {
            if self.scheduled.is_none_or(|s| at < s) {
                sink.schedule_at(at, NocEvent::Tick);
                self.scheduled = Some(at);
            }
        }
    }

    /// Runs on a private engine until every queue and buffer drains or
    /// `max_cycles` elapse past the current time; returns whether the
    /// network drained. Idle gaps before future releases are skipped in
    /// O(1) rather than stepped through.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> bool {
        let deadline = self.now + self.cycle_time * max_cycles;
        let mut engine = Engine::starting_at(self.now);
        self.scheduled = None;
        if let Some(at) = self.next_activation() {
            engine.schedule_at(at, NocEvent::Tick);
            self.scheduled = Some(at);
        }
        engine.run_until(self, deadline);
        self.scheduled = None;
        self.is_idle()
    }

    /// Tick-stepped reference: advances exactly `cycles` cycles,
    /// executing every one of them — idle or not — the way the
    /// pre-kernel per-cycle loop did.
    ///
    /// [`run_cycles`](NocSim::run_cycles) is behaviorally identical but
    /// skips idle gaps; this dense variant is kept as the equivalence
    /// oracle and the baseline the event-driven path is benchmarked
    /// against.
    pub fn run_cycles_dense(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Advances time by exactly `cycles` cycles, simulating only the
    /// cycles that have work and letting the clock jump over the rest.
    pub fn run_cycles(&mut self, cycles: u64) {
        let end = self.now + self.cycle_time * cycles;
        let mut engine = Engine::starting_at(self.now);
        self.scheduled = None;
        if let Some(at) = self.next_activation() {
            if at < end {
                engine.schedule_at(at, NocEvent::Tick);
                self.scheduled = Some(at);
            }
        }
        // The cycle starting at `end` is outside the window.
        engine.run_until(self, end - SimDuration::from_ps(1));
        self.scheduled = None;
        self.now = end;
    }

    /// True when no flit is queued or buffered anywhere.
    pub fn is_idle(&self) -> bool {
        self.active.is_empty() && self.queued.is_empty()
    }

    /// Completion records not yet drained, in completion order. A network
    /// that is never drained keeps every record here.
    pub fn completed(&self) -> &[PacketRecord] {
        &self.completed
    }

    /// Takes the completion records not yet drained, in completion order,
    /// and leaves the record store empty (its storage is kept). A caller
    /// that drains after every cycle holds at most one cycle's ejections;
    /// [`delivered`](NocSim::delivered), [`latency_cycles`] and
    /// [`publish_metrics`] still count every packet.
    ///
    /// [`latency_cycles`]: NocSim::latency_cycles
    /// [`publish_metrics`]: NocSim::publish_metrics
    pub fn drain_completed(&mut self) -> std::vec::Drain<'_, PacketRecord> {
        self.completed.drain(..)
    }

    /// Packets delivered since construction, drained or not.
    pub fn delivered(&self) -> usize {
        self.latency.count() as usize
    }

    /// Latency statistics over every delivered packet, in cycles.
    pub fn latency_cycles(&self) -> &Summary {
        &self.latency
    }

    /// Converts a cycle count to simulated time: `cycles` steps of the
    /// clock's [`cycle_time`](NocSim::cycle_time).
    pub fn cycles_to_time(&self, cycles: u64) -> SimDuration {
        self.cycle_time * cycles
    }

    /// Number of packets still travelling or queued.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Per-source latency statistics (cycles) over the completion records
    /// not yet drained.
    pub fn flow_latency(&self, src: NodeId) -> Summary {
        let mut s = Summary::new();
        for r in self.completed.iter().filter(|r| r.packet.src == src) {
            s.record(r.latency_cycles() as f64);
        }
        s
    }

    /// Flits sent on the directed link leaving `node` towards `dir`.
    pub fn link_flits(&self, node: NodeId, dir: Direction) -> u64 {
        self.link_flits
            .get(node.0 as usize * 5 + dir.index())
            .copied()
            .unwrap_or(0)
    }

    /// Utilization of the directed link leaving `node` towards `dir`:
    /// flits sent divided by elapsed cycles (0 when no cycle has run).
    pub fn link_utilization(&self, node: NodeId, dir: Direction) -> f64 {
        if self.cycle() == 0 {
            0.0
        } else {
            self.link_flits(node, dir) as f64 / self.cycle() as f64
        }
    }

    /// Publishes the network's observability data into `metrics` under
    /// the `noc.*` namespace:
    ///
    /// * counters — `noc.packets_delivered`, `noc.cycles`,
    ///   `noc.flits_sent`;
    /// * histogram — `noc.packet_latency_cycles` over every delivered
    ///   packet, drained or not (absent while none was delivered);
    /// * gauges — `noc.link.{node}.{dir}.utilization` for every directed
    ///   link that carried at least one flit, plus
    ///   `noc.hottest_link_utilization`.
    ///
    /// Links are walked in node/direction order, so exports are
    /// deterministic regardless of `HashMap` iteration order.
    pub fn publish_metrics(&self, metrics: &mut MetricsRegistry) {
        metrics.counter_add("noc.packets_delivered", self.latency.count());
        metrics.counter_add("noc.cycles", self.cycle());
        metrics.counter_add("noc.flits_sent", self.link_flits.iter().sum());
        if let Some(sketch) = &self.latency_sketch {
            metrics.merge_histogram("noc.packet_latency_cycles", sketch);
        }
        for node in 0..self.mesh.nodes() {
            for dir in Direction::ALL {
                let flits = self.link_flits(NodeId(node), dir);
                if flits == 0 {
                    continue;
                }
                let name = match dir {
                    Direction::Local => "local",
                    Direction::North => "north",
                    Direction::South => "south",
                    Direction::East => "east",
                    Direction::West => "west",
                };
                metrics.gauge_set(
                    format!("noc.link.{node}.{name}.utilization"),
                    self.link_utilization(NodeId(node), dir),
                );
            }
        }
        if let Some((_, _, util)) = self.hottest_link() {
            metrics.gauge_set("noc.hottest_link_utilization", util);
        }
    }

    /// The most-utilized directed link and its utilization, if any flit
    /// moved — the congestion hotspot report. Ties resolve to the highest
    /// (node, direction): `link_flits` is indexed in that order, so the
    /// answer is deterministic run to run.
    pub fn hottest_link(&self) -> Option<(NodeId, Direction, f64)> {
        self.link_flits
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .max_by_key(|&(_, &count)| count)
            .map(|(link, &count)| {
                let util = if self.cycle() == 0 {
                    0.0
                } else {
                    count as f64 / self.cycle() as f64
                };
                (NodeId((link / 5) as u32), Direction::ALL[link % 5], util)
            })
    }
}

impl Process for NocSim {
    type Event = NocEvent;

    /// One delivered tick simulates one cycle of flit movement and, while
    /// traffic remains, schedules the next activation — the immediately
    /// following cycle under load, or the next source release when the
    /// network would otherwise sit idle.
    fn handle(&mut self, _event: NocEvent, sink: &mut dyn EventSink<NocEvent>) {
        let at = sink.now();
        // A superseded (stale) tick: a later `pump` scheduled an earlier
        // activation which already ran this cycle's work.
        if self.scheduled != Some(at) {
            return;
        }
        self.scheduled = None;
        debug_assert!(at >= self.now, "tick delivered in the network's past");
        self.now = at;
        self.step();
        self.pump(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noc(cols: u32, rows: u32) -> NocSim {
        NocSim::new(NocConfig::new(cols, rows))
    }

    #[test]
    fn event_driven_matches_dense_reference_on_sparse_traffic() {
        let sparse = |n: &mut NocSim| {
            // A packet every 500 cycles: almost all cycles are idle, so
            // the event-driven path jumps most of the window.
            for i in 0..10u64 {
                n.inject(Packet::new(i, NodeId(i as u32 % 4), NodeId(15), 4), i * 500);
            }
        };
        let contended = |n: &mut NocSim| {
            // Bursts of mixed-priority packets into one corner, 1000
            // cycles apart: the event path must wake for each burst and
            // keep ticking until the backed-up 1-flit buffers drain.
            for i in 0..48u64 {
                let packet = Packet::new(i, NodeId(i as u32 % 15), NodeId(15), 3)
                    .with_priority((i % 3) as u8);
                n.inject(packet, (i / 16) * 1_000);
            }
        };
        for (traffic, config) in [
            (&sparse as &dyn Fn(&mut NocSim), NocConfig::new(4, 4)),
            (&contended, NocConfig::new(4, 4).with_buffer_flits(1)),
        ] {
            let mut dense = NocSim::new(config);
            traffic(&mut dense);
            dense.run_cycles_dense(6_000);
            let mut event = NocSim::new(config);
            traffic(&mut event);
            event.run_cycles(6_000);
            assert!(dense.is_idle() && event.is_idle(), "window drains");
            assert_eq!(dense.now(), event.now());
            assert_eq!(dense.completed().len(), event.completed().len());
            for (d, e) in dense.completed().iter().zip(event.completed()) {
                assert_eq!(d, e, "per-packet records must agree");
            }
            assert_eq!(dense.latency_cycles().mean(), event.latency_cycles().mean());
        }
    }

    #[test]
    fn single_packet_zero_load_latency() {
        let mut n = noc(4, 1);
        // 3 hops east + ejection; 1 flit.
        n.inject(
            Packet::new(0, NodeId::at(0, 0, 4), NodeId::at(3, 0, 4), 1),
            0,
        );
        assert!(n.run_until_idle(100));
        let rec = n.completed()[0];
        // Cycle 0: source → local buffer; cycles 1..: hop per cycle.
        // Lower bound: hops + ejection.
        assert!(
            rec.latency_cycles() >= 4,
            "latency {}",
            rec.latency_cycles()
        );
        assert!(
            rec.latency_cycles() <= 8,
            "latency {}",
            rec.latency_cycles()
        );
    }

    #[test]
    fn longer_packets_add_serialization_latency() {
        let mut short = noc(4, 1);
        short.inject(Packet::new(0, NodeId(0), NodeId(3), 1), 0);
        short.run_until_idle(1000);
        let mut long = noc(4, 1);
        long.inject(Packet::new(0, NodeId(0), NodeId(3), 8), 0);
        long.run_until_idle(1000);
        let s = short.completed()[0].latency_cycles();
        let l = long.completed()[0].latency_cycles();
        assert_eq!(l, s + 7, "each extra flit pipelines one cycle behind");
    }

    #[test]
    fn all_packets_delivered_under_contention() {
        let mut n = noc(4, 4);
        let mut id = 0;
        for src in 0..16u32 {
            for _ in 0..4 {
                let dest = NodeId((src + 5) % 16);
                n.inject(Packet::new(id, NodeId(src), dest, 3), 0);
                id += 1;
            }
        }
        assert!(n.run_until_idle(100_000), "network must drain");
        assert_eq!(n.completed().len(), 64);
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn wormhole_flits_do_not_interleave() {
        // Two 8-flit packets from different sources to the same dest: the
        // tail of the first to win must eject before the second's head.
        let mut n = noc(3, 3);
        let dest = NodeId::at(2, 2, 3);
        n.inject(Packet::new(1, NodeId::at(0, 2, 3), dest, 8), 0);
        n.inject(Packet::new(2, NodeId::at(2, 0, 3), dest, 8), 0);
        assert!(n.run_until_idle(10_000));
        let a = &n.completed()[0];
        let b = &n.completed()[1];
        // Ejection takes 1 flit/cycle: if they interleaved, both tails
        // would land within < 8 cycles of each other.
        assert!(
            (a.ejected_cycle() as i64 - b.ejected_cycle() as i64).unsigned_abs() >= 8,
            "tails at {} and {} imply interleaving",
            a.ejected_cycle(),
            b.ejected_cycle()
        );
    }

    #[test]
    fn tiny_buffers_still_deliver() {
        let mut n = NocSim::new(NocConfig::new(4, 4).with_buffer_flits(1));
        for i in 0..32u64 {
            let src = NodeId((i % 16) as u32);
            let dest = NodeId(((i * 7 + 3) % 16) as u32);
            if src != dest {
                n.inject(Packet::new(i, src, dest, 5), 0);
            }
        }
        assert!(n.run_until_idle(200_000), "back-pressure must not deadlock");
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn release_cycle_defers_injection() {
        let mut n = noc(2, 1);
        n.inject(Packet::new(0, NodeId(0), NodeId(1), 1), 50);
        n.run_cycles(10);
        assert_eq!(n.completed().len(), 0);
        assert!(n.run_until_idle(1000));
        assert!(n.completed()[0].ejected_cycle() > 50);
        // Latency is measured from the release cycle.
        assert!(n.completed()[0].latency_cycles() < 10);
    }

    #[test]
    fn hotspot_shares_bandwidth_round_robin() {
        // Two flows fight for the same link; round-robin should split
        // throughput roughly evenly.
        let mut n = noc(3, 3);
        let dest = NodeId::at(2, 1, 3);
        let mut id = 0;
        for k in 0..20 {
            n.inject(Packet::new(id, NodeId::at(0, 0, 3), dest, 4), k * 2);
            id += 1;
            n.inject(Packet::new(id, NodeId::at(0, 2, 3), dest, 4), k * 2);
            id += 1;
        }
        assert!(n.run_until_idle(100_000));
        let from_top: Vec<_> = n
            .completed()
            .iter()
            .filter(|r| r.packet.src == NodeId::at(0, 0, 3))
            .collect();
        let from_bottom: Vec<_> = n
            .completed()
            .iter()
            .filter(|r| r.packet.src == NodeId::at(0, 2, 3))
            .collect();
        assert_eq!(from_top.len(), 20);
        assert_eq!(from_bottom.len(), 20);
        let top_mean: f64 = from_top
            .iter()
            .map(|r| r.latency_cycles() as f64)
            .sum::<f64>()
            / 20.0;
        let bot_mean: f64 = from_bottom
            .iter()
            .map(|r| r.latency_cycles() as f64)
            .sum::<f64>()
            / 20.0;
        let ratio = top_mean.max(bot_mean) / top_mean.min(bot_mean);
        assert!(
            ratio < 1.6,
            "round robin should be roughly fair: {top_mean} vs {bot_mean}"
        );
    }

    #[test]
    #[should_panic(expected = "already in flight")]
    fn duplicate_packet_id_rejected() {
        let mut n = noc(2, 1);
        n.inject(Packet::new(0, NodeId(0), NodeId(1), 1), 0);
        n.inject(Packet::new(0, NodeId(0), NodeId(1), 1), 0);
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn foreign_endpoints_rejected() {
        let mut n = noc(2, 1);
        n.inject(Packet::new(0, NodeId(0), NodeId(9), 1), 0);
    }

    #[test]
    fn cycles_to_time_uses_cycle_ns() {
        let n = NocSim::new(NocConfig::new(2, 2).with_cycle_ns(2.5));
        assert_eq!(n.cycles_to_time(4), SimDuration::from_ns(10.0));
    }

    #[test]
    fn cycles_to_time_follows_the_clock() {
        // 1.0005 ns rounds to a 1001 ps clock cycle; a thousand cycles of
        // that clock are 1,001,000 ps, not 1000 × 1.0005 ns.
        let mut n = NocSim::new(NocConfig::new(2, 2).with_cycle_ns(1.0005));
        assert_eq!(n.cycle_time(), SimDuration::from_ps(1001));
        assert_eq!(n.cycles_to_time(1000), SimDuration::from_ps(1_001_000));
        n.run_cycles(1000);
        assert_eq!(n.now(), SimTime::ZERO + n.cycles_to_time(1000));
    }

    #[test]
    fn stored_coordinates_route_like_the_mesh() {
        // `route` and `neighbor_offset` against `Mesh::route_xy` and
        // `Mesh::neighbor`, for every pair of nodes on edge-case meshes.
        for (cols, rows) in [(1, 1), (1, 6), (6, 1), (3, 3), (5, 3), (4, 7)] {
            let n = noc(cols, rows);
            let mesh = *n.mesh();
            for a in 0..mesh.nodes() {
                for b in 0..mesh.nodes() {
                    let dir = mesh.route_xy(NodeId(a), NodeId(b));
                    assert_eq!(n.route(a as usize, NodeId(b)), dir.index());
                    if dir != Direction::Local {
                        let next = mesh.neighbor(NodeId(a), dir).expect("on the mesh");
                        let offset = n.neighbor_offset[dir.index()];
                        assert_eq!((a as usize).wrapping_add(offset), next.0 as usize);
                    }
                }
            }
        }
    }

    #[test]
    fn node_sets_and_masks_match_a_full_scan() {
        // After every cycle of contended traffic, the active set, the
        // queued set and each router's occupied mask agree with a scan
        // of every buffer and source queue.
        let mut n = NocSim::new(NocConfig::new(5, 3).with_buffer_flits(2));
        for i in 0..90u64 {
            let src = NodeId((i * 7 % 15) as u32);
            let dest = NodeId((i * 11 % 15) as u32);
            let packet = Packet::new(i, src, dest, 1 + (i % 6) as u32).with_priority((i % 3) as u8);
            n.inject(packet, i / 3);
        }
        while !n.is_idle() {
            n.step();
            for r in 0..15 {
                let mut occupied = 0u8;
                for p in 0..5 {
                    if n.buffers.occupancy(r * 5 + p) > 0 {
                        occupied |= 1 << p;
                    }
                }
                assert_eq!(n.routers[r].occupied(), occupied, "router {r} mask");
                assert_eq!(n.active.iter().any(|a| a == r), occupied != 0, "router {r}");
                assert_eq!(
                    n.queued.iter().any(|q| q == r),
                    !n.sources[r].is_empty(),
                    "source {r}"
                );
            }
            assert!(n.cycle() < 10_000, "must drain");
        }
        assert_eq!(n.completed().len(), 90);
    }

    #[test]
    fn latency_summary_populated() {
        let mut n = noc(2, 2);
        for i in 0..4u64 {
            n.inject(Packet::new(i, NodeId(0), NodeId(3), 2), 0);
        }
        n.run_until_idle(10_000);
        assert_eq!(n.latency_cycles().count(), 4);
        assert!(n.latency_cycles().mean() > 0.0);
    }

    #[test]
    fn priority_protects_critical_flow_under_congestion() {
        // Background hotspot traffic to one sink; one critical flow
        // crosses the congested region. With priority it glides through;
        // without, it queues with everyone else.
        let run = |critical_priority: u8| -> f64 {
            let mut n = noc(4, 4);
            let sink = NodeId::at(3, 1, 4);
            let mut id = 0u64;
            for k in 0..40u64 {
                for src in [
                    NodeId::at(0, 0, 4),
                    NodeId::at(0, 2, 4),
                    NodeId::at(1, 3, 4),
                ] {
                    n.inject(Packet::new(id, src, sink, 4), k * 3);
                    id += 1;
                }
            }
            // The critical flow shares links with the hotspot traffic.
            let critical_src = NodeId::at(0, 1, 4);
            let mut crit_ids = Vec::new();
            for k in 0..20u64 {
                n.inject(
                    Packet::new(id, critical_src, sink, 4).with_priority(critical_priority),
                    k * 10,
                );
                crit_ids.push(id);
                id += 1;
            }
            assert!(n.run_until_idle(1_000_000));
            let lat: f64 = n
                .completed()
                .iter()
                .filter(|r| crit_ids.contains(&r.packet.id))
                .map(|r| r.latency_cycles() as f64)
                .sum::<f64>()
                / crit_ids.len() as f64;
            lat
        };
        let low = run(0);
        let high = run(7);
        assert!(
            high < low * 0.8,
            "priority must shield the critical flow: {high:.1} vs {low:.1} cycles"
        );
    }

    #[test]
    fn equal_priorities_preserve_round_robin_fairness() {
        // Regression: priority filtering with all-equal priorities must
        // not break the fairness the hotspot test checks.
        let mut n = noc(3, 3);
        let dest = NodeId::at(2, 1, 3);
        let mut id = 0;
        for k in 0..10 {
            n.inject(
                Packet::new(id, NodeId::at(0, 0, 3), dest, 4).with_priority(3),
                k * 2,
            );
            id += 1;
            n.inject(
                Packet::new(id, NodeId::at(0, 2, 3), dest, 4).with_priority(3),
                k * 2,
            );
            id += 1;
        }
        assert!(n.run_until_idle(100_000));
        assert_eq!(n.completed().len(), 20);
    }

    #[test]
    fn link_accounting_matches_path() {
        // One 4-flit packet east across a 1-row mesh: every east link on
        // the path carries exactly 4 flits.
        let mut n = noc(4, 1);
        n.inject(Packet::new(0, NodeId(0), NodeId(3), 4), 0);
        assert!(n.run_until_idle(1000));
        for hop in 0..3u32 {
            assert_eq!(
                n.link_flits(NodeId(hop), Direction::East),
                4,
                "link {hop} east"
            );
        }
        assert_eq!(n.link_flits(NodeId(0), Direction::West), 0);
        let (node, dir, util) = n.hottest_link().expect("flits moved");
        assert_eq!(dir, Direction::East);
        assert!(util > 0.0 && util <= 1.0);
        assert!(node.0 <= 2);
    }

    #[test]
    fn flow_latency_separates_sources() {
        let mut n = noc(3, 1);
        n.inject(Packet::new(0, NodeId(0), NodeId(2), 1), 0); // 2 hops
        n.inject(Packet::new(1, NodeId(1), NodeId(2), 1), 0); // 1 hop
        assert!(n.run_until_idle(1000));
        let far = n.flow_latency(NodeId(0));
        let near = n.flow_latency(NodeId(1));
        assert_eq!(far.count(), 1);
        assert_eq!(near.count(), 1);
        assert!(far.mean() > near.mean());
        assert_eq!(n.flow_latency(NodeId(2)).count(), 0);
    }

    #[test]
    fn link_utilization_bounded_by_one() {
        let mut n = noc(3, 3);
        for i in 0..30u64 {
            n.inject(Packet::new(i, NodeId(0), NodeId(8), 4), 0);
        }
        assert!(n.run_until_idle(100_000));
        for node in 0..9u32 {
            for dir in Direction::ALL {
                let u = n.link_utilization(NodeId(node), dir);
                assert!((0.0..=1.0).contains(&u), "util {u} at {node} {dir:?}");
            }
        }
    }

    #[test]
    fn publish_metrics_exports_network_state() {
        let mut n = noc(4, 1);
        n.inject(Packet::new(0, NodeId(0), NodeId(3), 4), 0);
        n.inject(Packet::new(1, NodeId(0), NodeId(3), 4), 0);
        assert!(n.run_until_idle(1000));
        let mut m = MetricsRegistry::new();
        n.publish_metrics(&mut m);
        assert_eq!(m.counter("noc.packets_delivered"), 2);
        assert_eq!(m.counter("noc.cycles"), n.cycle());
        assert!(m.counter("noc.flits_sent") >= 8, "2 packets x 4 flits");
        let lat = m.histogram("noc.packet_latency_cycles").expect("delivered");
        assert_eq!(lat.count(), 2);
        // Every east hop carried flits, so its utilization gauge exists.
        assert_eq!(
            m.gauge("noc.link.0.east.utilization"),
            Some(n.link_utilization(NodeId(0), Direction::East))
        );
        assert!(
            m.gauge("noc.link.0.west.utilization").is_none(),
            "idle link"
        );
        assert!(m.gauge("noc.hottest_link_utilization").is_some());
        // Publishing twice accumulates counters but leaves gauges stable.
        n.publish_metrics(&mut m);
        assert_eq!(m.counter("noc.packets_delivered"), 4);
        autoplat_sim::metrics::validate_json_export(&m.to_json()).expect("schema");
    }

    #[test]
    fn self_send_completes_locally() {
        let mut n = noc(2, 2);
        n.inject(Packet::new(0, NodeId(0), NodeId(0), 3), 0);
        assert!(n.run_until_idle(100));
        assert_eq!(n.completed().len(), 1);
    }
}

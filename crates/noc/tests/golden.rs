//! Golden NoC records: seeded traffic through `NocSim`, pinned per packet
//! and per link.
//!
//! `run_cycles_dense` executes the same `step` as the event-driven path,
//! so the dense-vs-event oracles cannot see a change to `step` itself.
//! This file can: `tests/golden/noc_records.txt` holds, for every case,
//! one `case id injected_ps ejected_ps` line per completed packet (in
//! completion order), then the non-zero link counters and the hottest
//! link. It was written once and is never regenerated; a change to the
//! model's routing, arbitration, buffering or timing shows up here as a
//! first differing line.
//!
//! `tests/golden/noc_ticks.txt` pins the tick stream itself: the kernel
//! events a `NocSim` schedules and receives while an engine drives it the
//! way `CoSim` does. Co-sim exports count those ticks
//! (`engine.events.noc.tick`), so a change that schedules one tick more
//! or less shows up there even when every packet record is unchanged.
//! It, too, was written once and is never regenerated.

use autoplat_noc::{Direction, NocConfig, NocEvent, NocSim, NodeId, Packet};
use autoplat_sim::engine::{Engine, EventSink, Process};
use autoplat_sim::{SimDuration, SimTime};

/// One seeded traffic case.
struct Case {
    name: &'static str,
    cols: u32,
    rows: u32,
    buffer: usize,
    /// Packets with their release cycle.
    packets: Vec<(Packet, u64)>,
}

impl Case {
    fn sim(&self) -> NocSim {
        let mut sim =
            NocSim::new(NocConfig::new(self.cols, self.rows).with_buffer_flits(self.buffer));
        for &(packet, release) in &self.packets {
            sim.inject(packet, release);
        }
        sim
    }
}

/// splitmix64: a fixed generator, so the traffic never depends on the
/// workspace's own RNG.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// Uniform random traffic on a `(cols, rows)` mesh: endpoints anywhere
/// (self-sends included), 1–5 flits, releases in `0..max_release`,
/// priorities `0..=max_priority`.
fn random(
    name: &'static str,
    (cols, rows): (u32, u32),
    buffer: usize,
    seed: u64,
    count: u64,
    max_release: u64,
    max_priority: u8,
) -> Case {
    let mut rng = SplitMix(seed);
    let nodes = (cols * rows) as u64;
    let packets = (0..count)
        .map(|id| {
            let src = NodeId(rng.below(nodes) as u32);
            let dest = NodeId(rng.below(nodes) as u32);
            let flits = 1 + rng.below(5) as u32;
            let release = rng.below(max_release);
            let priority = rng.below(max_priority as u64 + 1) as u8;
            (
                Packet::new(id, src, dest, flits).with_priority(priority),
                release,
            )
        })
        .collect();
    Case {
        name,
        cols,
        rows,
        buffer,
        packets,
    }
}

fn cases() -> Vec<Case> {
    let mut cases = vec![
        random("c0", (1, 1), 1, 0x11, 12, 20, 2),
        random("c1", (2, 1), 2, 0x21, 30, 60, 2),
        random("c2", (2, 2), 4, 0x22, 40, 80, 0),
        random("c3", (3, 2), 1, 0x32, 40, 40, 2),
        random("c4", (4, 3), 3, 0x43, 60, 150, 2),
        random("c5", (5, 4), 1, 0x54, 80, 100, 2),
        random("c6", (3, 5), 2, 0x35, 60, 200, 1),
    ];

    // Sparse: one packet every 300 cycles, so the event path skips gaps.
    let mut sparse = random("sparse", (5, 4), 2, 0x5a, 16, 1, 2);
    for (k, (_, release)) in sparse.packets.iter_mut().enumerate() {
        *release = k as u64 * 300;
    }
    cases.push(sparse);

    // Contended all-to-all on 1-flit buffers with mixed priorities.
    let mut packets = Vec::new();
    for src in 0..16u32 {
        for k in 0..2u64 {
            let id = src as u64 * 2 + k;
            let packet = Packet::new(id, NodeId(src), NodeId((src + 5) % 16), 3)
                .with_priority((id % 3) as u8);
            packets.push((packet, k));
        }
    }
    cases.push(Case {
        name: "alltoall",
        cols: 4,
        rows: 4,
        buffer: 1,
        packets,
    });

    // Hotspot: two flows fight for the links into one sink.
    let dest = NodeId::at(2, 1, 3);
    let mut packets = Vec::new();
    for k in 0..20u64 {
        packets.push((Packet::new(2 * k, NodeId::at(0, 0, 3), dest, 4), k * 2));
        packets.push((Packet::new(2 * k + 1, NodeId::at(0, 2, 3), dest, 4), k * 2));
    }
    cases.push(Case {
        name: "hotspot",
        cols: 3,
        rows: 3,
        buffer: 4,
        packets,
    });

    // Critical flow: a priority-7 flow crosses hotspot background traffic.
    let sink = NodeId::at(3, 1, 4);
    let mut packets = Vec::new();
    let mut id = 0u64;
    for k in 0..40u64 {
        for src in [
            NodeId::at(0, 0, 4),
            NodeId::at(0, 2, 4),
            NodeId::at(1, 3, 4),
        ] {
            packets.push((Packet::new(id, src, sink, 4), k * 3));
            id += 1;
        }
    }
    for k in 0..20u64 {
        let packet = Packet::new(id, NodeId::at(0, 1, 4), sink, 4).with_priority(7);
        packets.push((packet, k * 10));
        id += 1;
    }
    cases.push(Case {
        name: "critical",
        cols: 4,
        rows: 4,
        buffer: 4,
        packets,
    });
    cases
}

/// Every directed link's flit counter, node-major.
fn link_counters(sim: &NocSim) -> Vec<(u32, Direction, u64)> {
    (0..sim.mesh().nodes())
        .flat_map(|node| Direction::ALL.map(|dir| (node, dir, sim.link_flits(NodeId(node), dir))))
        .collect()
}

fn render(case: &Case, sim: &NocSim, out: &mut String) {
    use std::fmt::Write;
    for rec in sim.completed() {
        let (id, injected, ejected) = (rec.packet.id, rec.injected_at, rec.ejected_at);
        writeln!(
            out,
            "{} {id} {} {}",
            case.name,
            injected.as_ps(),
            ejected.as_ps()
        )
        .unwrap();
    }
    for (node, dir, flits) in link_counters(sim) {
        if flits > 0 {
            writeln!(out, "{} link {node} {dir:?} {flits}", case.name).unwrap();
        }
    }
    match sim.hottest_link() {
        Some((node, dir, util)) => {
            writeln!(out, "{} hottest {} {dir:?} {util}", case.name, node.0).unwrap()
        }
        None => writeln!(out, "{} hottest none", case.name).unwrap(),
    }
}

/// Drains a case with `run_until_idle`.
fn drained(case: &Case) -> NocSim {
    let mut sim = case.sim();
    assert!(sim.run_until_idle(1_000_000), "{}: must drain", case.name);
    assert_eq!(sim.completed().len(), case.packets.len(), "{}", case.name);
    sim
}

#[test]
fn records_match_golden() {
    let path = format!(
        "{}/../../tests/golden/noc_records.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut fresh = String::new();
    for case in cases() {
        render(&case, &drained(&case), &mut fresh);
    }
    let expected: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    let actual: Vec<&str> = fresh.lines().collect();
    for (i, (e, a)) in expected.iter().zip(&actual).enumerate() {
        assert_eq!(a, e, "record {i} drifted from {path}");
    }
    assert_eq!(actual.len(), expected.len(), "record count drifted");
}

#[test]
fn dense_and_event_driven_runs_agree() {
    for case in cases() {
        let idle = drained(&case);
        // A window that covers the drain plus a few idle cycles.
        let window = idle.cycle() + 3;
        let mut dense = case.sim();
        dense.run_cycles_dense(window);
        let mut event = case.sim();
        event.run_cycles(window);
        assert!(dense.is_idle() && event.is_idle(), "{}", case.name);
        assert_eq!(dense.now(), event.now(), "{}", case.name);
        assert_eq!(dense.completed(), event.completed(), "{}", case.name);
        assert_eq!(dense.completed(), idle.completed(), "{}", case.name);
        assert_eq!(
            link_counters(&dense),
            link_counters(&event),
            "{}",
            case.name
        );
        assert_eq!(link_counters(&dense), link_counters(&idle), "{}", case.name);
        assert_eq!(dense.hottest_link(), event.hottest_link(), "{}", case.name);
    }
}

/// A NoC on its own engine, the way `CoSim` hosts one: every delivered
/// tick goes through `Process::handle`, and the state after it is folded
/// into an FNV-1a digest.
struct TickProbe {
    noc: NocSim,
    /// Ticks delivered.
    ticks: u64,
    /// Delivered ticks that left `now()` unchanged (superseded ones).
    stale: u64,
    digest: u64,
}

impl TickProbe {
    fn fold(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.digest = (self.digest ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl Process for TickProbe {
    type Event = NocEvent;

    fn handle(&mut self, event: NocEvent, sink: &mut dyn EventSink<NocEvent>) {
        let before = self.noc.now();
        self.noc.handle(event, sink);
        self.ticks += 1;
        assert!(self.ticks < 1_000_000, "the tick stream never drains");
        if self.noc.now() == before {
            self.stale += 1;
        }
        let words = [
            sink.now().as_ps(),
            self.noc.now().as_ps(),
            self.noc.completed().len() as u64,
            self.noc.in_flight() as u64,
            self.noc.next_activation().map_or(u64::MAX, SimTime::as_ps),
        ];
        for word in words {
            self.fold(word);
        }
    }
}

/// Lets `pump` schedule onto the engine between `run_until` windows.
struct EngineSink<'a>(&'a mut Engine<NocEvent>);

impl EventSink<NocEvent> for EngineSink<'_> {
    fn now(&self) -> SimTime {
        self.0.now()
    }

    fn schedule_at(&mut self, at: SimTime, event: NocEvent) {
        self.0.schedule_at(at, event);
    }
}

/// One engine-driven case: `rounds` windows of up to `window` ps each.
/// Before every window up to three packets (1–9 flits, priorities 0–3,
/// self-sends included) are injected, each followed by a `pump`; their
/// releases fall at the window's start, at an arbitrary picosecond
/// within the next few cycles, or up to a few cycles before the
/// network's `now()`.
fn tick_case(
    (cols, rows): (u32, u32),
    buffer: usize,
    cycle_ns: f64,
    seed: u64,
    rounds: u32,
    window: u64,
) -> String {
    let config = NocConfig::new(cols, rows)
        .with_buffer_flits(buffer)
        .with_cycle_ns(cycle_ns);
    let mut probe = TickProbe {
        noc: NocSim::new(config),
        ticks: 0,
        stale: 0,
        digest: 0xcbf2_9ce4_8422_2325,
    };
    let cycle = probe.noc.cycle_time().as_ps();
    let nodes = (cols * rows) as u64;
    let mut rng = SplitMix(seed);
    let mut engine = Engine::new();
    let mut cursor = SimTime::ZERO;
    let mut id = 0u64;
    for _ in 0..rounds {
        for _ in 0..rng.below(4) {
            let src = NodeId(rng.below(nodes) as u32);
            let dest = NodeId(rng.below(nodes) as u32);
            let flits = 1 + rng.below(9) as u32;
            let priority = rng.below(4) as u8;
            let release = match rng.below(3) {
                0 => cursor,
                1 => cursor + SimDuration::from_ps(rng.below(4 * cycle)),
                _ => probe.noc.now() - SimDuration::from_ps(rng.below(4 * cycle)),
            };
            let packet = Packet::new(id, src, dest, flits).with_priority(priority);
            probe.noc.inject_at(packet, release);
            probe.noc.pump(&mut EngineSink(&mut engine));
            id += 1;
        }
        cursor += SimDuration::from_ps(1 + rng.below(window));
        engine.run_until(&mut probe, cursor);
    }
    engine.run(&mut probe);
    let noc = &probe.noc;
    assert!(noc.is_idle(), "{cols}x{rows} b{buffer} seed {seed}: drains");
    assert_eq!(noc.completed().len() as u64, id, "every packet delivered");
    let mut line = format!(
        "{cols}x{rows} b{buffer} c{cycle} s{seed:x} ticks={} stale={} completed={} digest={:016x}",
        probe.ticks,
        probe.stale,
        noc.completed().len(),
        probe.digest
    );
    for (node, dir, flits) in link_counters(noc) {
        if flits > 0 {
            line.push_str(&format!(" {node}{}={flits}", &format!("{dir:?}")[..1]));
        }
    }
    line
}

fn tick_cases() -> String {
    let meshes = [(1, 1), (1, 6), (6, 1), (2, 2), (3, 3), (4, 4), (5, 3)];
    let mut out = String::new();
    for (m, &mesh) in meshes.iter().enumerate() {
        for (b, buffer) in [1, 2, 3, 4, 8].into_iter().enumerate() {
            let k = (m * 5 + b) as u64;
            // Alternate saturating and sparse windows, and three cycle
            // times: 1 ns, an odd 1.0005 ns (1001 ps) and 2.5 ns.
            let window = if k.is_multiple_of(2) { 3_000 } else { 40_000 };
            let cycle_ns = [1.0, 1.0005, 2.5][k as usize % 3];
            out.push_str(&tick_case(mesh, buffer, cycle_ns, 0x7100 + k, 200, window));
            out.push('\n');
        }
    }
    out
}

#[test]
fn tick_stream_matches_golden() {
    let path = format!(
        "{}/../../tests/golden/noc_ticks.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let fresh = tick_cases();
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let expected: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    let actual: Vec<&str> = fresh.lines().collect();
    for (i, (e, a)) in expected.iter().zip(&actual).enumerate() {
        assert_eq!(a, e, "tick case {i} drifted from {path}");
    }
    assert_eq!(actual.len(), expected.len(), "tick case count drifted");
}

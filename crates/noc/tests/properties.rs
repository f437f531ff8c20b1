//! Property-based tests for the NoC simulator.

use autoplat_noc::{Mesh, NocConfig, NocSim, NodeId, Packet};
use autoplat_sim::metrics::MetricsRegistry;
use proptest::prelude::*;

/// The `noc.*` export of `noc` as JSON.
fn export(noc: &NocSim) -> String {
    let mut metrics = MetricsRegistry::new();
    noc.publish_metrics(&mut metrics);
    metrics.to_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_packets_delivered_exactly_once(
        cols in 2u32..5,
        rows in 2u32..5,
        buffer in 1usize..5,
        specs in proptest::collection::vec((0u32..100, 0u32..100, 1u32..6, 0u64..200), 1..60),
    ) {
        let mut noc = NocSim::new(
            NocConfig::new(cols, rows).with_buffer_flits(buffer),
        );
        let nodes = cols * rows;
        let mut injected = 0u64;
        for (i, &(s, d, flits, at)) in specs.iter().enumerate() {
            let src = NodeId(s % nodes);
            let dst = NodeId(d % nodes);
            noc.inject(Packet::new(i as u64, src, dst, flits), at);
            injected += 1;
        }
        prop_assert!(noc.run_until_idle(5_000_000), "must drain (XY is deadlock-free)");
        prop_assert_eq!(noc.completed().len() as u64, injected);
        // Each packet id completes exactly once.
        let mut ids: Vec<u64> = noc.completed().iter().map(|r| r.packet.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len() as u64, injected);
        prop_assert_eq!(noc.in_flight(), 0);
    }

    #[test]
    fn buffered_flit_count_tracks_idleness(
        cols in 1u32..5,
        rows in 1u32..5,
        buffer in 1usize..4,
        specs in proptest::collection::vec(
            (0u32..100, 0u32..100, 1u32..6, 0u64..100, 0u8..3),
            1..40,
        ),
    ) {
        // `is_idle` and `next_activation` read the network's sets of
        // routers holding flits and of queued sources; a set that drifts
        // from the buffers would stall or spin the event-driven path.
        let mut noc = NocSim::new(
            NocConfig::new(cols, rows).with_buffer_flits(buffer),
        );
        let nodes = cols * rows;
        for (i, &(s, d, flits, at, priority)) in specs.iter().enumerate() {
            let packet = Packet::new(i as u64, NodeId(s % nodes), NodeId(d % nodes), flits)
                .with_priority(priority);
            noc.inject(packet, at);
        }
        let mut steps = 0u64;
        while !noc.is_idle() {
            noc.step();
            steps += 1;
            prop_assert_eq!(noc.is_idle(), noc.in_flight() == 0);
            prop_assert_eq!(noc.next_activation().is_none(), noc.is_idle());
            prop_assert!(steps < 1_000_000, "must drain");
        }
        prop_assert_eq!(noc.completed().len(), specs.len());
    }

    #[test]
    fn draining_completion_records_changes_no_export(
        cols in 1u32..5,
        rows in 1u32..5,
        buffer in 1usize..4,
        specs in proptest::collection::vec(
            (0u32..100, 0u32..100, any::<bool>(), 1u32..6, 0u64..40, 0u8..3),
            1..50,
        ),
    ) {
        // Twin networks see the same contended traffic (half of it, at
        // random, into one hotspot); one is drained after every cycle.
        let config = NocConfig::new(cols, rows).with_buffer_flits(buffer);
        let nodes = cols * rows;
        let packets: Vec<(Packet, u64)> = specs
            .iter()
            .enumerate()
            .map(|(i, &(s, d, hot, flits, at, priority))| {
                let dst = if hot { NodeId(nodes - 1) } else { NodeId(d % nodes) };
                let packet = Packet::new(i as u64, NodeId(s % nodes), dst, flits)
                    .with_priority(priority);
                (packet, at)
            })
            .collect();
        let (mut kept, mut drained) = (NocSim::new(config), NocSim::new(config));
        let mut records = Vec::new();
        // The second round reinjects packet 0 under its delivered id.
        for round in [&packets[..], &packets[..1]] {
            let start = kept.cycle();
            for &(packet, at) in round {
                kept.inject(packet, start + at);
                drained.inject(packet, start + at);
            }
            let mut steps = 0u64;
            while !kept.is_idle() {
                kept.step();
                drained.step();
                records.extend(drained.drain_completed());
                prop_assert!(drained.completed().is_empty());
                prop_assert_eq!(drained.delivered(), kept.completed().len());
                prop_assert_eq!(kept.delivered(), kept.completed().len());
                steps += 1;
                prop_assert!(steps < 1_000_000, "must drain");
            }
            prop_assert!(drained.is_idle());
        }
        prop_assert_eq!(kept.completed().len(), packets.len() + 1);
        prop_assert_eq!(&records[..], kept.completed());
        prop_assert_eq!(kept.latency_cycles(), drained.latency_cycles());
        prop_assert_eq!(export(&kept), export(&drained));

        // A run that delivers nothing exports no latency histogram.
        let mut late = NocSim::new(config);
        for &(packet, at) in &packets {
            late.inject(packet, 1_000 + at);
        }
        late.run_cycles(1_000);
        prop_assert_eq!(late.delivered(), 0);
        let json = export(&late);
        prop_assert!(!json.contains("noc.packet_latency_cycles"), "{}", json);
        prop_assert!(export(&kept).contains("noc.packet_latency_cycles"));
    }

    #[test]
    fn latency_at_least_zero_load_lower_bound(
        cols in 2u32..6,
        src in 0u32..36,
        dst in 0u32..36,
        flits in 1u32..9,
    ) {
        let mesh = Mesh::new(cols, cols);
        let src = NodeId(src % mesh.nodes());
        let dst = NodeId(dst % mesh.nodes());
        let mut noc = NocSim::new(NocConfig::new(cols, cols));
        noc.inject(Packet::new(0, src, dst, flits), 0);
        prop_assert!(noc.run_until_idle(100_000));
        let rec = noc.completed()[0];
        // Lower bound: source injection + one cycle per hop for the head
        // + one cycle per remaining flit for the tail + ejection.
        let hops = mesh.hops(src, dst) as u64;
        prop_assert!(
            rec.latency_cycles() >= hops + flits as u64,
            "latency {} below physical floor {}",
            rec.latency_cycles(),
            hops + flits as u64
        );
    }

    #[test]
    fn xy_route_always_reaches_destination(
        cols in 1u32..8,
        rows in 1u32..8,
        a in 0u32..64,
        b in 0u32..64,
    ) {
        let mesh = Mesh::new(cols, rows);
        let src = NodeId(a % mesh.nodes());
        let dst = NodeId(b % mesh.nodes());
        let mut cur = src;
        let mut steps = 0;
        while cur != dst {
            let dir = mesh.route_xy(cur, dst);
            cur = mesh.neighbor(cur, dir).expect("XY stays in mesh");
            steps += 1;
            prop_assert!(steps <= (cols + rows), "route too long");
        }
        prop_assert_eq!(steps, mesh.hops(src, dst));
    }

    #[test]
    fn flit_hop_conservation(
        specs in proptest::collection::vec((0u32..16, 0u32..16, 1u32..5, 0u64..100), 1..30),
    ) {
        use autoplat_noc::Direction;
        // Total flits crossing inter-router links equals the sum over
        // packets of flits × XY hop count (XY is minimal and
        // deterministic).
        let mesh = Mesh::new(4, 4);
        let mut noc = NocSim::new(NocConfig::new(4, 4));
        let mut expected_hops = 0u64;
        for (i, &(s, d, flits, at)) in specs.iter().enumerate() {
            let src = NodeId(s % 16);
            let dst = NodeId(d % 16);
            noc.inject(Packet::new(i as u64, src, dst, flits), at);
            expected_hops += mesh.hops(src, dst) as u64 * flits as u64;
        }
        prop_assert!(noc.run_until_idle(2_000_000));
        let mut crossed = 0u64;
        for node in 0..16u32 {
            for dir in [Direction::North, Direction::South, Direction::East, Direction::West] {
                crossed += noc.link_flits(NodeId(node), dir);
            }
        }
        prop_assert_eq!(crossed, expected_hops);
    }
}

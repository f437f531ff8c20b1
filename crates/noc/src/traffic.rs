//! Seeded traffic generators for NoC experiments.
//!
//! The admission-control layer of §V regulates *injection rates* at each
//! source node; [`RegulatedSource`] models a source whose transmissions
//! are released through a token bucket, while [`UniformRandom`]
//! generates a seeded background load.

use autoplat_netcalc::conformance::BucketState;
use autoplat_netcalc::TokenBucket;
use autoplat_sim::SimRng;

use crate::packet::Packet;
use crate::topology::{Mesh, NodeId};

/// A generated injection: packet plus release cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// The packet to inject.
    pub packet: Packet,
    /// The cycle it becomes available at its source.
    pub release_cycle: u64,
}

/// Uniform-random traffic: every node sends packets to uniformly chosen
/// destinations at a per-node Poisson-like rate.
///
/// # Examples
///
/// ```
/// use autoplat_noc::traffic::UniformRandom;
/// use autoplat_noc::Mesh;
///
/// let gen = UniformRandom::new(Mesh::new(4, 4), 0.05, 4, 42);
/// let injections = gen.generate(1000);
/// assert!(!injections.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct UniformRandom {
    mesh: Mesh,
    packets_per_node_per_cycle: f64,
    flits: u32,
    seed: u64,
}

impl UniformRandom {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not in `(0, 1]` or `flits` is zero.
    pub fn new(mesh: Mesh, packets_per_node_per_cycle: f64, flits: u32, seed: u64) -> Self {
        assert!(
            packets_per_node_per_cycle > 0.0 && packets_per_node_per_cycle <= 1.0,
            "rate must be in (0, 1] packets/node/cycle"
        );
        assert!(flits > 0, "packets need flits");
        UniformRandom {
            mesh,
            packets_per_node_per_cycle,
            flits,
            seed,
        }
    }

    /// Generates injections over `horizon_cycles` cycles.
    pub fn generate(&self, horizon_cycles: u64) -> Vec<Injection> {
        let mut rng = SimRng::seed_from(self.seed);
        let mut out = Vec::new();
        let mut id = 0u64;
        for cycle in 0..horizon_cycles {
            for src in 0..self.mesh.nodes() {
                if rng.gen_bool(self.packets_per_node_per_cycle) {
                    let mut dest = NodeId(rng.gen_range(0..self.mesh.nodes()));
                    if dest.0 == src {
                        dest = NodeId((src + 1) % self.mesh.nodes());
                    }
                    out.push(Injection {
                        packet: Packet::new(id, NodeId(src), dest, self.flits),
                        release_cycle: cycle,
                    });
                    id += 1;
                }
            }
        }
        out
    }
}

/// A token-bucket regulated source: transmissions are released only as
/// the bucket (in flits) permits — the per-node rate control of §V.
///
/// # Examples
///
/// ```
/// use autoplat_noc::traffic::RegulatedSource;
/// use autoplat_noc::NodeId;
/// use autoplat_netcalc::TokenBucket;
///
/// // 8-flit burst, 0.1 flits/cycle sustained.
/// let mut src = RegulatedSource::new(NodeId(0), TokenBucket::new(8.0, 0.1));
/// let first = src.release_cycle(0, 4);  // fits the burst: immediate
/// let second = src.release_cycle(0, 8); // must wait for refill
/// assert_eq!(first, 0);
/// assert!(second > first);
/// ```
#[derive(Debug, Clone)]
pub struct RegulatedSource {
    node: NodeId,
    bucket: BucketState,
}

impl RegulatedSource {
    /// Creates a regulated source with the given flit-rate contract
    /// (burst in flits, rate in flits/cycle).
    pub fn new(node: NodeId, contract: TokenBucket) -> Self {
        RegulatedSource {
            node,
            bucket: BucketState::new(contract),
        }
    }

    /// The source node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Computes the earliest conformant release cycle for a transmission
    /// of `flits` flits not earlier than `now_cycle`, and consumes the
    /// tokens.
    ///
    /// # Panics
    ///
    /// Panics if `flits` exceeds the contract burst (such a transmission
    /// can never be released whole — split it first).
    pub fn release_cycle(&mut self, now_cycle: u64, flits: u32) -> u64 {
        let at = self
            .bucket
            .earliest_send(now_cycle as f64, flits as f64)
            .expect("transmission exceeds the contract burst");
        let cycle = at.ceil() as u64;
        assert!(
            self.bucket.try_consume(cycle as f64, flits as f64),
            "tokens must be available at the computed release cycle"
        );
        cycle
    }

    /// Replaces the contract (what the Resource Manager does on a mode
    /// change), refilling the new bucket at `now_cycle`.
    pub fn reconfigure(&mut self, now_cycle: u64, contract: TokenBucket) {
        let mut bucket = BucketState::new(contract);
        bucket.reset(now_cycle as f64);
        self.bucket = bucket;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_random_is_deterministic() {
        let mesh = Mesh::new(4, 4);
        let a = UniformRandom::new(mesh, 0.1, 4, 7).generate(200);
        let b = UniformRandom::new(mesh, 0.1, 4, 7).generate(200);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn uniform_random_rate_approximate() {
        let mesh = Mesh::new(4, 4);
        let inj = UniformRandom::new(mesh, 0.05, 1, 3).generate(2000);
        let expected = 16.0 * 2000.0 * 0.05;
        let got = inj.len() as f64;
        assert!(
            (got - expected).abs() < expected * 0.2,
            "got {got}, expected ~{expected}"
        );
    }

    #[test]
    fn uniform_random_never_self_sends() {
        let inj = UniformRandom::new(Mesh::new(3, 3), 0.2, 1, 11).generate(500);
        assert!(inj.iter().all(|i| i.packet.src != i.packet.dest));
    }

    #[test]
    fn regulated_source_spaces_transmissions() {
        let mut s = RegulatedSource::new(NodeId(0), TokenBucket::new(4.0, 0.5));
        let t0 = s.release_cycle(0, 4); // drains the burst
        let t1 = s.release_cycle(0, 4); // needs 4 tokens at 0.5/cycle
        assert_eq!(t0, 0);
        assert_eq!(t1, 8);
        let t2 = s.release_cycle(t1, 2);
        assert_eq!(t2, t1 + 4);
    }

    #[test]
    fn reconfigure_applies_new_rate() {
        let mut s = RegulatedSource::new(NodeId(1), TokenBucket::new(2.0, 1.0));
        let _ = s.release_cycle(0, 2);
        s.reconfigure(10, TokenBucket::new(2.0, 0.1));
        let t = s.release_cycle(10, 2); // full fresh bucket
        assert_eq!(t, 10);
        let t2 = s.release_cycle(10, 2); // now pays the slow rate
        assert_eq!(t2, 30);
        assert_eq!(s.node(), NodeId(1));
    }

    #[test]
    #[should_panic(expected = "exceeds the contract burst")]
    fn oversized_transmission_panics() {
        let mut s = RegulatedSource::new(NodeId(0), TokenBucket::new(2.0, 1.0));
        let _ = s.release_cycle(0, 3);
    }

    #[test]
    fn regulated_injections_drive_noc() {
        use crate::network::{NocConfig, NocSim};
        let mut noc = NocSim::new(NocConfig::new(3, 3));
        let mut src = RegulatedSource::new(NodeId(0), TokenBucket::new(8.0, 0.05));
        let mut now = 0;
        for i in 0..10u64 {
            now = src.release_cycle(now, 4);
            noc.inject(Packet::new(i, NodeId(0), NodeId(8), 4), now);
        }
        assert!(noc.run_until_idle(100_000));
        assert_eq!(noc.completed().len(), 10);

        // Uniform-random background load drains too.
        for size in [4u32, 8] {
            let injections = UniformRandom::new(Mesh::new(size, size), 0.02, 4, 11).generate(500);
            let mut noc = NocSim::new(NocConfig::new(size, size));
            for inj in &injections {
                noc.inject(inj.packet, inj.release_cycle);
            }
            assert!(noc.run_until_idle(1_000_000), "{size}x{size} must drain");
            assert_eq!(noc.completed().len(), injections.len());
        }
    }
}

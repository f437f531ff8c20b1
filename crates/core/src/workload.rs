//! Synthetic workloads for platform experiments.
//!
//! Production automotive traces are not publicly available; these
//! generators produce the access patterns whose *interference behaviour*
//! the paper reasons about: small-working-set latency-critical readers
//! (control loops), streaming bandwidth hogs (vision/logging pipelines),
//! and mixed traffic.
//!
//! A workload's accesses come from one generator, which carries the
//! access index, the pattern's RNG and the write credit:
//! [`Platform::run`](crate::platform::Platform::run) draws from it one
//! access at a time, and [`Workload::accesses`] collects it.

use autoplat_sim::SimRng;

/// The kind of memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum AccessKind {
    /// A blocking read (on the critical path).
    Read,
    /// A posted write (deferrable).
    Write,
}

/// One memory access of a workload, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Byte address.
    pub addr: u64,
    /// Read or write.
    pub kind: AccessKind,
}

/// The address-stream pattern of a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// Cyclic sweep over a working set: `base + (i × stride) mod span`.
    WorkingSet {
        /// First byte of the region.
        base: u64,
        /// Region size in bytes.
        span: u64,
        /// Stride between accesses.
        stride: u64,
    },
    /// Uniformly random lines within a region (seeded).
    Random {
        /// First byte of the region.
        base: u64,
        /// Region size in bytes.
        span: u64,
        /// RNG seed.
        seed: u64,
    },
}

/// A workload: a core, a pattern, a read/write mix and an access count.
///
/// # Examples
///
/// ```
/// use autoplat_core::Workload;
///
/// let probe = Workload::latency_probe(0, 1_000);
/// let accesses = probe.accesses();
/// assert_eq!(accesses.len(), 1_000);
/// // The probe's working set is small and revisited.
/// let lo = accesses.iter().map(|a| a.addr).min().expect("non-empty");
/// let hi = accesses.iter().map(|a| a.addr).max().expect("non-empty");
/// assert!(hi - lo < 64 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The core the workload is pinned to.
    pub core: usize,
    /// The address pattern.
    pub pattern: Pattern,
    /// Number of accesses.
    pub count: usize,
    /// Fraction of writes in `[0, 1]` (deterministically interleaved).
    pub write_fraction: f64,
    /// Nanoseconds of computation between consecutive accesses.
    pub gap_ns: f64,
}

impl Workload {
    /// A latency-critical probe: cyclic reads over a 32 KiB working set,
    /// 200 ns of computation between accesses (a control-loop-like core).
    pub fn latency_probe(core: usize, count: usize) -> Self {
        Workload {
            core,
            pattern: Pattern::WorkingSet {
                base: 0x1000_0000 + core as u64 * 0x100_0000,
                span: 32 * 1024,
                stride: 64,
            },
            count,
            write_fraction: 0.0,
            gap_ns: 200.0,
        }
    }

    /// A streaming bandwidth hog: back-to-back accesses marching over
    /// 8 MiB with a 50% write share (a vision/logging pipeline).
    pub fn bandwidth_hog(core: usize, count: usize) -> Self {
        Workload {
            core,
            pattern: Pattern::WorkingSet {
                base: 0x8000_0000 + core as u64 * 0x1000_0000,
                span: 8 * 1024 * 1024,
                stride: 64,
            },
            count,
            write_fraction: 0.5,
            gap_ns: 0.0,
        }
    }

    /// A pointer-chasing-like random reader over `span` bytes.
    pub fn random_reader(core: usize, count: usize, span: u64, seed: u64) -> Self {
        Workload {
            core,
            pattern: Pattern::Random {
                base: 0x4000_0000 + core as u64 * 0x1000_0000,
                span,
                seed,
            },
            count,
            write_fraction: 0.0,
            gap_ns: 50.0,
        }
    }

    /// Builder-style write fraction.
    ///
    /// # Panics
    ///
    /// Panics if `f` is outside `[0, 1]`.
    pub fn with_write_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "write fraction in [0, 1]");
        self.write_fraction = f;
        self
    }

    /// Builder-style inter-access gap.
    ///
    /// # Panics
    ///
    /// Panics if `gap_ns` is negative or not finite.
    pub fn with_gap_ns(mut self, gap_ns: f64) -> Self {
        assert!(gap_ns.is_finite() && gap_ns >= 0.0, "invalid gap");
        self.gap_ns = gap_ns;
        self
    }

    /// The access stream, generated lazily in program order.
    pub(crate) fn access_stream(&self) -> AccessStream<'_> {
        AccessStream {
            workload: self,
            index: 0,
            rng: match &self.pattern {
                Pattern::Random { seed, .. } => Some(SimRng::seed_from(*seed)),
                Pattern::WorkingSet { .. } => None,
            },
            write_credit: 0.0,
        }
    }

    /// Materializes the access stream.
    pub fn accesses(&self) -> Vec<Access> {
        self.access_stream().collect()
    }
}

/// The accesses of a [`Workload`], in program order.
#[derive(Debug)]
pub(crate) struct AccessStream<'a> {
    workload: &'a Workload,
    /// Index of the next access.
    index: usize,
    /// The random pattern's generator.
    rng: Option<SimRng>,
    /// Accumulated write fraction: a write is due once it reaches 1.
    write_credit: f64,
}

impl Iterator for AccessStream<'_> {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        let w = self.workload;
        if self.index == w.count {
            return None;
        }
        let i = self.index;
        self.index += 1;
        let addr = match &w.pattern {
            Pattern::WorkingSet { base, span, stride } => {
                base + (i as u64 * stride) % (*span).max(1)
            }
            Pattern::Random { base, span, .. } => {
                let lines = (span / 64).max(1);
                let line = self
                    .rng
                    .as_mut()
                    .expect("random pattern")
                    .gen_range(0..lines);
                base + line * 64
            }
        };
        // Deterministic write interleaving by accumulated fraction.
        self.write_credit += w.write_fraction;
        let kind = if self.write_credit >= 1.0 {
            self.write_credit -= 1.0;
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        Some(Access { addr, kind })
    }

    /// Exact, so [`Workload::accesses`] allocates once.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.workload.count - self.index;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn working_set_wraps() {
        let w = Workload {
            core: 0,
            pattern: Pattern::WorkingSet {
                base: 0,
                span: 256,
                stride: 64,
            },
            count: 8,
            write_fraction: 0.0,
            gap_ns: 0.0,
        };
        let addrs: Vec<u64> = w.accesses().iter().map(|a| a.addr).collect();
        assert_eq!(addrs, vec![0, 64, 128, 192, 0, 64, 128, 192]);
    }

    #[test]
    fn write_fraction_interleaves_deterministically() {
        let w = Workload::bandwidth_hog(0, 100);
        let writes = w
            .accesses()
            .iter()
            .filter(|a| a.kind == AccessKind::Write)
            .count();
        assert_eq!(writes, 50);
        let w2 = Workload::latency_probe(0, 100).with_write_fraction(0.25);
        let writes2 = w2
            .accesses()
            .iter()
            .filter(|a| a.kind == AccessKind::Write)
            .count();
        assert_eq!(writes2, 25);
    }

    #[test]
    fn random_pattern_is_seeded_and_in_range() {
        let a = Workload::random_reader(0, 500, 1 << 20, 9).accesses();
        let b = Workload::random_reader(0, 500, 1 << 20, 9).accesses();
        assert_eq!(a, b);
        let base = 0x4000_0000u64;
        assert!(a
            .iter()
            .all(|x| x.addr >= base && x.addr < base + (1 << 20)));
        assert!(a.iter().all(|x| x.addr % 64 == 0));
    }

    #[test]
    fn probes_and_hogs_target_disjoint_regions() {
        let p = Workload::latency_probe(0, 10).accesses();
        let h = Workload::bandwidth_hog(1, 10).accesses();
        let pmax = p.iter().map(|a| a.addr).max().expect("non-empty");
        let hmin = h.iter().map(|a| a.addr).min().expect("non-empty");
        assert!(pmax < hmin);
    }

    #[test]
    #[should_panic(expected = "write fraction")]
    fn invalid_write_fraction_rejected() {
        let _ = Workload::latency_probe(0, 1).with_write_fraction(1.5);
    }
}

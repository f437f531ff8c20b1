//! Benchmark of the autoplat workspace: four workloads measured end to
//! end with tracing off, and layer by layer in a separate traced run.
//! See `perfbench/README.md`.

pub mod clock;
pub mod probes;
pub mod trace;
pub mod workloads;

use workloads::Workload;

/// The seed tuned against while the benchmark was written.
pub const DEV_SEED: u64 = 1;
/// The seed kept back for verifying later claims: parent and change must
/// produce equal digests on it.
pub const HELD_OUT_SEED: u64 = 4242;

const EXPECTED: &str = include_str!("../expected_digests.txt");

/// The committed output digest for `w` at `seed`, if the table has one.
/// `paper_figures` takes no seed; its row is keyed `*`.
pub fn expected_digest(w: Workload, seed: u64) -> Option<u64> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((f.next()?, f.next()?, f.next()?))
        })
        .find(|&(name, s, _)| name == w.name() && (s == "*" || s.parse::<u64>().ok() == Some(seed)))
        .and_then(|(_, _, d)| u64::from_str_radix(d.trim_start_matches("0x"), 16).ok())
}

//! Replays the pinned golden corpus: every case seed that ever mattered
//! (first CI cases, shrunk reproducers of past hunts) must keep passing
//! its oracle.
//!
//! The corpus only says pass or fail. `tests/golden/conformance_exports.txt`
//! also pins what the regulator families export: the seed-7, 200-case
//! `autoplat.metrics.v1` sweep of `memguard`, `perbank` (with its
//! guarantee-utilization histogram) and `diff` (with its per-bank
//! regulated throughput and tightness histograms). It was written once
//! and is never regenerated.

use autoplat_conformance::{run_case, run_sweep, Family, Oracle, SweepConfig};
use autoplat_sim::MetricsRegistry;

const CORPUS: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/conformance_corpus.txt"
));

const EXPORTS: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/conformance_exports.txt"
));

fn parse_corpus() -> Vec<(Family, u64, String)> {
    let mut entries = Vec::new();
    for (lineno, raw) in CORPUS.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let family_name = parts.next().unwrap_or_else(|| {
            panic!("corpus line {}: missing family", lineno + 1);
        });
        let family = Family::parse(family_name)
            .unwrap_or_else(|| panic!("corpus line {}: unknown family {family_name}", lineno + 1));
        let seed_text = parts
            .next()
            .unwrap_or_else(|| panic!("corpus line {}: missing seed", lineno + 1));
        let digits = seed_text.strip_prefix("0x").unwrap_or(seed_text);
        let seed = u64::from_str_radix(digits, 16)
            .unwrap_or_else(|e| panic!("corpus line {}: bad seed {seed_text}: {e}", lineno + 1));
        assert!(
            parts.next().is_none(),
            "corpus line {}: trailing tokens",
            lineno + 1
        );
        entries.push((family, seed, raw.to_string()));
    }
    entries
}

#[test]
fn corpus_is_nonempty_and_covers_every_family() {
    let entries = parse_corpus();
    assert!(entries.len() >= 10, "corpus should accumulate, not shrink");
    for family in Family::ALL {
        assert!(
            entries.iter().any(|(f, _, _)| *f == family),
            "no corpus entry for family {}",
            family.name()
        );
    }
}

#[test]
fn every_corpus_case_passes_its_oracle() {
    let oracle = Oracle::default();
    for (family, seed, line) in parse_corpus() {
        if let Err(shrunk) = run_case(&oracle, family, seed) {
            panic!(
                "golden corpus regression at `{line}`: {}\nminimal scenario: {:?}",
                shrunk.violation, shrunk.scenario
            );
        }
    }
}

#[test]
fn regulator_family_exports_match_golden() {
    let mut pinned = 0;
    for line in EXPORTS.lines().filter(|l| !l.starts_with('#')) {
        let (name, expected) = line
            .split_once(' ')
            .unwrap_or_else(|| panic!("malformed export line `{line}`"));
        let family = Family::parse(name).unwrap_or_else(|| panic!("unknown family {name}"));
        let report = run_sweep(&SweepConfig {
            family: Some(family),
            ..SweepConfig::new(7, 200)
        });
        let mut metrics = MetricsRegistry::new();
        report.publish_metrics(&mut metrics);
        assert_eq!(metrics.to_json(), expected, "{name} export drifted");
        pinned += 1;
    }
    assert_eq!(pinned, 3, "memguard, perbank and diff are pinned");
}

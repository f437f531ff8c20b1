//! Greedy scenario shrinking: walk strictly size-decreasing candidates
//! until none of them still violates the oracle.

use crate::oracle::{Oracle, Violation};
use crate::scenario::Scenario;

/// Upper bound on shrink rounds; candidates strictly decrease
/// [`Scenario::size`], so this is a belt-and-braces cap, not a tuning
/// knob.
const MAX_ROUNDS: usize = 100;

/// Result of shrinking a failing scenario.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The smallest still-failing scenario found.
    pub scenario: Scenario,
    /// The violation the minimal scenario produces (possibly a different
    /// invariant than the original failure surfaced).
    pub violation: Violation,
    /// How many shrink steps were accepted.
    pub steps: usize,
}

/// Greedily minimises `scenario`, which must currently fail `oracle`.
///
/// Each round tries the scenario's [`Scenario::shrink_candidates`] in
/// order and descends into the first candidate that still fails. Rounds
/// stop when no candidate fails (a local minimum) or after
/// `MAX_ROUNDS` rounds.
pub fn shrink(oracle: &Oracle, scenario: Scenario, violation: Violation) -> Shrunk {
    let mut current = scenario;
    let mut current_violation = violation;
    let mut steps = 0;
    for _ in 0..MAX_ROUNDS {
        let mut descended = false;
        for candidate in current.shrink_candidates() {
            if let Err(v) = oracle.check(&candidate) {
                current = candidate;
                current_violation = v;
                steps += 1;
                descended = true;
                break;
            }
        }
        if !descended {
            break;
        }
    }
    Shrunk {
        scenario: current,
        violation: current_violation,
        steps,
    }
}

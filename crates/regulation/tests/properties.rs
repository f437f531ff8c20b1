//! Property-based tests for the MemGuard bandwidth regulator.

use autoplat_regulation::memguard::{AccessDecision, MemGuard};
use autoplat_sim::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    #[test]
    fn memguard_grants_at_most_budget_per_period(
        budget_lines in 1u64..64,
        attempts in 2u64..200,
    ) {
        let period = SimDuration::from_us(10.0);
        let budget = budget_lines * 64;
        let mut mg = MemGuard::new(period, vec![budget]);
        // All attempts at t=0: exactly ceil(budget/64) grants (the last
        // may overdraw once).
        let mut grants = 0u64;
        for _ in 0..attempts {
            if mg.try_access(0, 64, SimTime::ZERO) == AccessDecision::Granted {
                grants += 1;
            }
        }
        prop_assert!(grants <= budget_lines);
        prop_assert!(grants == budget_lines.min(attempts));
    }

    #[test]
    fn memguard_throttle_always_points_to_next_boundary(
        budget in 64u64..512,
        offset_ns in 0.0f64..9999.0,
    ) {
        let period = SimDuration::from_us(10.0);
        let mut mg = MemGuard::new(period, vec![budget]);
        let now = SimTime::from_ns(offset_ns);
        // Exhaust the budget.
        loop {
            match mg.try_access(0, 64, now) {
                AccessDecision::Granted => {}
                AccessDecision::ThrottledUntil(t) => {
                    // The boundary is the next multiple of the period.
                    let idx = now.as_ps() / period.as_ps();
                    prop_assert_eq!(t.as_ps(), (idx + 1) * period.as_ps());
                    // And access at the boundary is granted again.
                    prop_assert_eq!(mg.try_access(0, 64, t), AccessDecision::Granted);
                    break;
                }
            }
        }
    }

    #[test]
    fn memguard_cores_never_interact(
        budgets in proptest::collection::vec(64u64..4096, 2..5),
        heavy_core in 0usize..2,
    ) {
        let mut mg = MemGuard::new(SimDuration::from_us(5.0), budgets.clone());
        let heavy = heavy_core % budgets.len();
        // Heavy core exhausts its budget.
        while mg.try_access(heavy, 64, SimTime::ZERO) == AccessDecision::Granted {}
        // Every other core still gets its full budget.
        for (core, &budget) in budgets.iter().enumerate() {
            if core == heavy {
                continue;
            }
            let mut granted_bytes = 0u64;
            while mg.try_access(core, 64, SimTime::ZERO) == AccessDecision::Granted {
                granted_bytes += 64;
            }
            prop_assert!(granted_bytes + 64 > budget, "core {core} shortchanged");
        }
    }
}

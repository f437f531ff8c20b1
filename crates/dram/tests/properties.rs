//! Property-based tests for the DRAM WCD analysis and controller.

use autoplat_dram::timing::presets::{ddr3_1600, ddr4_2400, lpddr4_3200};
use autoplat_dram::wcd::{lower_bound, upper_bound, WcdParams};
use autoplat_dram::ControllerConfig;
use autoplat_netcalc::TokenBucket;
use proptest::prelude::*;

fn params_strategy() -> impl Strategy<Value = WcdParams> {
    (
        0u8..3,       // timing preset
        1u32..48,     // queue position
        0.0f64..32.0, // write burst
        0.0f64..0.08, // write rate (requests/ns)
        4u32..32,     // n_wd
        1u32..32,     // n_cap
    )
        .prop_map(|(preset, n, burst, rate, n_wd, n_cap)| {
            let timing = match preset {
                0 => ddr3_1600(),
                1 => ddr4_2400(),
                _ => lpddr4_3200(),
            };
            WcdParams {
                timing,
                config: ControllerConfig::paper().with_n_wd(n_wd).with_n_cap(n_cap),
                writes: TokenBucket::new(burst, rate),
                queue_position: n,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lower_bound_never_exceeds_upper(p in params_strategy()) {
        if let Ok(u) = upper_bound(&p) {
            let l = lower_bound(&p);
            prop_assert!(
                l.delay_ns <= u.delay_ns + 1e-6,
                "lower {} > upper {} for {p:?}",
                l.delay_ns,
                u.delay_ns
            );
        }
    }

    #[test]
    fn upper_bound_monotone_in_queue_position(p in params_strategy()) {
        let mut deeper = p.clone();
        deeper.queue_position = p.queue_position + 1;
        if let (Ok(a), Ok(b)) = (upper_bound(&p), upper_bound(&deeper)) {
            prop_assert!(b.delay_ns > a.delay_ns);
        }
    }

    #[test]
    fn upper_bound_monotone_in_write_rate(p in params_strategy(), extra in 0.001f64..0.02) {
        let mut heavier = p.clone();
        heavier.writes = TokenBucket::new(p.writes.burst(), p.writes.rate() + extra);
        if let (Ok(a), Ok(b)) = (upper_bound(&p), upper_bound(&heavier)) {
            prop_assert!(b.delay_ns + 1e-9 >= a.delay_ns);
        }
    }

    #[test]
    fn upper_bound_breakdown_is_exact(p in params_strategy()) {
        if let Ok(u) = upper_bound(&p) {
            let c_batch = p.timing.write_batch_cost(p.config.n_wd);
            let total = u.miss_time_ns
                + u.hit_time_ns
                + u.write_batches as f64 * c_batch
                + u.refreshes as f64 * p.timing.t_rfc;
            prop_assert!((total - u.delay_ns).abs() < 1e-6);
            prop_assert!(u.refreshes >= 1, "initial refresh always accounted");
        }
    }

    #[test]
    fn bounds_scale_with_burst(p in params_strategy(), extra_burst in 1.0f64..64.0) {
        let mut burstier = p.clone();
        burstier.writes = TokenBucket::new(p.writes.burst() + extra_burst, p.writes.rate());
        if let (Ok(a), Ok(b)) = (upper_bound(&p), upper_bound(&burstier)) {
            prop_assert!(b.delay_ns + 1e-9 >= a.delay_ns, "more burst, more delay");
        }
    }
}

mod controller {
    use super::*;
    use autoplat_dram::request::MasterId;
    use autoplat_dram::{FrFcfsController, Request, RequestKind};
    use autoplat_sim::SimTime;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn controller_serves_every_request(
            reqs in proptest::collection::vec(
                (0u32..4, 0u64..16, any::<bool>(), 0u64..10_000),
                1..150,
            ),
        ) {
            let ctrl =
                FrFcfsController::new(ddr3_1600(), ControllerConfig::paper(), 4);
            let workload: Vec<Request> = reqs
                .iter()
                .enumerate()
                .map(|(i, &(bank, row, write, at))| {
                    Request::new(
                        i as u64,
                        MasterId(0),
                        if write { RequestKind::Write } else { RequestKind::Read },
                        bank,
                        row,
                        SimTime::from_ns(at as f64),
                    )
                })
                .collect();
            let n = workload.len();
            let out = ctrl.simulate(workload, false);
            prop_assert_eq!(out.completions.len(), n, "no request may be lost");
            prop_assert_eq!(out.row_hits + out.row_misses, n as u64);
            // Completion times never precede arrivals.
            for c in &out.completions {
                prop_assert!(c.finished >= c.request.arrival);
            }
        }

        #[test]
        fn hit_rate_in_unit_range(
            rows in proptest::collection::vec(0u64..4, 1..100),
        ) {
            let ctrl =
                FrFcfsController::new(ddr4_2400(), ControllerConfig::paper(), 2);
            let workload: Vec<Request> = rows
                .iter()
                .enumerate()
                .map(|(i, &row)| {
                    Request::new(i as u64, MasterId(0), RequestKind::Read, 0, row, SimTime::ZERO)
                })
                .collect();
            let out = ctrl.simulate(workload, false);
            let rate = out.hit_rate();
            prop_assert!((0.0..=1.0).contains(&rate));
        }
    }
}

/// Regression pinned from proptest seed `cc 7370043e…`: LPDDR4-3200
/// with a small write batch (`N_wd = 6`) and a write rate that lands
/// *just past* saturation — the short batch amortizes its turnarounds
/// badly, so `rho = r·C_batch/N_wd + tRFC/tREFI = 1.0109`. The analysis
/// must detect this and refuse a bound rather than iterate forever; at
/// 95% of the same rate a finite bound exists again and the bound
/// ordering holds. The vendored proptest reads no seed files, so this
/// named test is what replays the case.
#[test]
fn regression_lpddr4_small_batch_just_past_saturation() {
    use autoplat_dram::wcd::WcdError;

    let p = WcdParams {
        timing: lpddr4_3200(),
        config: ControllerConfig::paper().with_n_wd(6).with_n_cap(1),
        writes: TokenBucket::new(13.468763499776815, 0.07224670303216803),
        queue_position: 1,
    };
    match upper_bound(&p) {
        Err(WcdError::Saturated { utilization }) => {
            assert!(
                (1.0..1.05).contains(&utilization),
                "this case sits just past the stability boundary, got rho = {utilization}"
            );
        }
        other => panic!("expected saturation detection, got {other:?}"),
    }

    // Backing the rate off by 5% crosses back under rho = 1: both bounds
    // exist and stay ordered.
    let mut feasible = p.clone();
    feasible.writes = TokenBucket::new(p.writes.burst(), p.writes.rate() * 0.95);
    let u = upper_bound(&feasible).expect("below saturation at 95% rate");
    let l = lower_bound(&feasible);
    assert!(
        l.delay_ns <= u.delay_ns + 1e-6,
        "lower {} > upper {} for {feasible:?}",
        l.delay_ns,
        u.delay_ns
    );
    assert!(l.refreshes >= 1, "initial refresh is always in flight");
}

//! A plan's price is its fault-free run: [`RoutePlan::cost`] walks the
//! same schedule as [`RoutePlan::run_faulted`] over bit counts, so its
//! [`RunStats`] must equal the session ledger field for field, for every
//! schedule × encoding × crash set × repeats, while the run's deliveries
//! pass the routed-payload judge.

use cc_routing::{demand_sizes, CrashSet, RoutePlan};
use cc_testkit::judge_routed_delivery;
use cliquesim::{BitString, Engine, NodeId, RunStats, Session};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

type Demands = Vec<Vec<(NodeId, BitString)>>;

fn random_demands(rng: &mut ChaCha8Rng, n: usize, max_len: usize) -> Demands {
    let mut demands: Demands = vec![Vec::new(); n];
    for (v, list) in demands.iter_mut().enumerate() {
        for _ in 0..rng.gen_range(0..4) {
            let dst = (v + rng.gen_range(1..n)) % n;
            let len = rng.gen_range(0..max_len);
            let payload: BitString = (0..len).map(|_| rng.gen_bool(0.5)).collect();
            list.push((NodeId::from(dst), payload));
        }
    }
    demands
}

/// Every schedule × encoding, at `repeats`.
fn plans(repeats: usize) -> [RoutePlan; 4] {
    [
        RoutePlan::direct(),
        RoutePlan::direct().sized(),
        RoutePlan::balanced(),
        RoutePlan::balanced().sized(),
    ]
    .map(|plan| plan.repeats(repeats))
}

/// Ship `demands` under `plan` avoiding `crash` on a fault-free engine:
/// the deliveries must pass the routed-payload judge, and the plan's price
/// must be the session ledger, field for field.
fn check_price(
    plan: &RoutePlan,
    crash: &CrashSet,
    demands: &Demands,
    bandwidth: usize,
) -> Result<RunStats, proptest::test_runner::TestCaseError> {
    let n = demands.len();
    let plan = plan.clone().avoiding(crash);
    let label = format!("{plan:?} n={n} B={bandwidth}");
    let mut s = Session::new(Engine::new(n).with_bandwidth(bandwidth));
    let out = plan
        .run_faulted(&mut s, demands.clone())
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    judge_routed_delivery(&label, demands, crash, &out);
    prop_assert_eq!(&out.stats, &s.stats(), "{}: outcome vs session", label);
    let price = plan.cost(&demand_sizes(demands), bandwidth);
    prop_assert_eq!(&price, &s.stats(), "{}: price vs run", label);
    Ok(price)
}

proptest! {
    #[test]
    fn prop_cost_is_the_fault_free_run_for_every_plan(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = rng.gen_range(2..10);
        // Half the draws sit either side of the 64-bit word, where the
        // router moves a chunk as one word or as several.
        let bandwidth = if rng.gen_bool(0.5) {
            rng.gen_range(1..24)
        } else {
            [63, 64, 65, 100, 128][rng.gen_range(0..5usize)]
        };
        let demands = random_demands(&mut rng, n, 90);
        let random: CrashSet = (0..n)
            .filter(|_| rng.gen_bool(0.3))
            .map(NodeId::from)
            .collect();
        for crash in [CrashSet::new(), random] {
            for repeats in [1, 3] {
                for plan in plans(repeats) {
                    check_price(&plan, &crash, &demands, bandwidth)?;
                }
            }
        }
    }
}

#[test]
fn cost_is_the_run_at_scale() {
    // The priced walk visits only the non-empty overlaps, so it is cheap
    // enough to pin at realistic clique sizes too.
    for n in [27usize, 64] {
        let demands = random_demands(&mut ChaCha8Rng::seed_from_u64(n as u64), n, 400);
        for plan in plans(1) {
            check_price(&plan, &CrashSet::new(), &demands, BitString::width_for(n)).unwrap();
        }
    }
}

#[test]
fn cost_keeps_a_repeated_chunk_live_twice() {
    // Every framed stream fits in one 64-bit chunk, so the base schedule
    // peaks at one round's 5 · 42 bits (27 B); repeating the chunk keeps
    // two copies live at the next round boundary (53 B).
    let n = 5;
    let demands: Demands = (0..n)
        .map(|v| vec![(NodeId::from((v + 1) % n), BitString::zeros(10))])
        .collect();
    let price = check_price(
        &RoutePlan::direct().repeats(3),
        &CrashSet::new(),
        &demands,
        64,
    )
    .unwrap();
    assert_eq!(price.rounds, 3);
    assert_eq!(price.peak_live_payload_bytes, 53);
}

//! Workspace-level fault conformance: the acceptance criteria for the
//! fault-injection adversary, exercised end to end through the facade
//! crate and the resilient wrappers.
//!
//! * an **empty** [`FaultPlan`] is byte-identical to no plan at all;
//! * a seeded plan fires every crash it schedules, drops messages, and
//!   logs its faults;
//! * with `f < n/3` seeded crash faults, echo-broadcast still reaches a
//!   correct unanimous output among survivors, and the overhead is
//!   visible in [`RunStats`];
//! * the resilient wrappers degrade as documented under drop and
//!   corruption plans.

use cc_testkit::{assert_empty_plan_transparent, differential_faulted};
use congested_clique::prelude::*;
use congested_clique::resilient::{echo_broadcast, max_gossip, RepeatBroadcast};
use congested_clique::sim::FaultedOutcome;

fn exchange_programs(n: usize) -> Vec<RepeatBroadcast> {
    (0..n as u64)
        .map(|v| RepeatBroadcast::new(v * 5 + 1, 8, 3))
        .collect()
}

#[test]
fn empty_plan_is_transparent_for_a_real_protocol() {
    let n = 9;
    assert_empty_plan_transparent(
        "repeat-broadcast",
        &Engine::new(n).with_bandwidth(8),
        || exchange_programs(n),
    );
}

#[test]
fn a_seeded_fault_plan_fires_its_crashes_and_drops() {
    let n = 15;
    let plan = FaultPlan::new(2024)
        .with_random_crashes(n, 3, 2, &[])
        .drop_messages(0.15)
        .corrupt_messages(0.1)
        .truncate_messages(0.05);
    let (outputs, stats, _, faults) = differential_faulted(
        "repeat-broadcast",
        &Engine::new(n).with_bandwidth(8),
        &plan,
        || exchange_programs(n),
    );
    assert_eq!(stats.dead_nodes, 3, "all three scheduled crashes fired");
    assert_eq!(outputs.iter().filter(|o| o.is_none()).count(), 3);
    assert!(stats.dropped_messages > 0, "{plan}: nothing dropped");
    assert!(!faults.is_empty());
}

#[test]
fn echo_broadcast_survives_a_third_of_the_clique_crashing() {
    // n = 10, f = 3 < n/3: the source is spared, so every survivor must
    // end unanimous on the source's value.
    let n = 10;
    let source = NodeId(0);
    let value = 0xB7u64;

    // Fault-free baseline for the overhead comparison.
    let mut clean = Session::new(Engine::new(n).with_bandwidth(8));
    let baseline = echo_broadcast(&mut clean, source, value, 8).unwrap();
    assert_eq!(baseline.unanimous(), Some(&Some(value)));

    let plan = FaultPlan::new(77).with_random_crashes(n, 3, 2, &[source]);
    let mut session = Session::new(
        Engine::new(n)
            .with_bandwidth(8)
            .with_fault_plan(plan.clone()),
    );
    let out: FaultedOutcome<Option<u64>> = echo_broadcast(&mut session, source, value, 8).unwrap();

    assert_eq!(
        out.unanimous(),
        Some(&Some(value)),
        "{plan}: survivors disagree or lost the value"
    );
    let survivors = out.outputs.iter().filter(|o| o.is_some()).count();
    assert_eq!(survivors, n - 3, "{plan}: expected exactly 3 casualties");

    // The resilience overhead is measured, not hidden: the faulted run
    // still pays the full echo round (more than a bare one-round
    // broadcast's n-1 messages), and every crash shows up in the ledger.
    assert_eq!(out.stats.rounds, baseline.stats.rounds);
    assert!(
        out.stats.messages > (n as u64 - 1),
        "echo round was charged"
    );
    assert_eq!(out.stats.dead_nodes, 3);
    assert!(out.stats.undelivered_messages > 0, "crash losses accounted");
}

#[test]
fn gossip_aggregation_beats_crashes_and_drops() {
    let n = 12;
    let values: Vec<u64> = (0..n as u64).map(|v| (v * 37) % 100).collect();
    let expect = *values.iter().max().unwrap();
    let holder = values.iter().position(|&v| v == expect).unwrap();
    let plan = FaultPlan::new(5)
        .with_random_crashes(n, 3, 3, &[NodeId::from(holder)])
        .drop_messages(0.2);
    let mut session = Session::new(Engine::new(n).with_bandwidth(8).with_fault_plan(plan));
    let out = max_gossip(&mut session, &values, 8, 5).unwrap();
    assert_eq!(out.unanimous(), Some(&expect));
    assert_eq!(out.stats.dead_nodes, 3);
    assert!(out.stats.dropped_messages > 0);
}

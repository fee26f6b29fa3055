//! Workspace-level Byzantine conformance: the acceptance criteria for the
//! Byzantine sender tier, exercised end to end through the facade crate,
//! the testkit runners, and the resilient wrappers.
//!
//! * an **empty** [`ByzantinePlan`] is byte-identical to no plan at all
//!   (mirror of the fault suite's transparency test);
//! * a **single equivocating traitor** forges `RepeatBroadcast`'s per-link
//!   majority — two honest nodes end up with different, locally
//!   majority-backed values for the traitor (the negative result that
//!   motivates the quorum layer);
//! * Bracha-style reliable broadcast reaches **honest-node agreement** for
//!   every seeded `f < n/3` plan, with an honest source's value delivered
//!   intact;
//! * Bracha composes with a **concurrent crash** [`FaultPlan`]: crashed
//!   nodes report `None` slots while surviving honest nodes stay unanimous,
//!   and both adversaries' counters land in the same ledger.

use cc_testkit::{
    assert_empty_byzantine_transparent, differential_byzantine, equivocation_witness,
};
use congested_clique::prelude::*;
use congested_clique::resilient::{bracha_broadcast, BrachaBroadcast, RepeatBroadcast};
use congested_clique::sim::Lie;

fn exchange_programs(n: usize) -> Vec<RepeatBroadcast> {
    (0..n as u64)
        .map(|v| RepeatBroadcast::new(v * 5 + 1, 8, 3))
        .collect()
}

fn bracha_programs(n: usize, source: NodeId, value: u64, f: usize) -> Vec<BrachaBroadcast> {
    (0..n)
        .map(|_| BrachaBroadcast::new(source, value, 8, f))
        .collect()
}

#[test]
fn empty_byzantine_plan_is_transparent_for_a_real_protocol() {
    let n = 9;
    assert_empty_byzantine_transparent(
        "repeat-broadcast",
        &Engine::new(n).with_bandwidth(8),
        || exchange_programs(n),
    );
}

#[test]
fn one_equivocating_traitor_forges_repeat_broadcast() {
    // RepeatBroadcast's defence is a per-link majority over k copies — it
    // assumes every copy on a link is an attempt at the same truth. A
    // traitor garbling per recipient sends each peer a *consistent* lie
    // (well, three independent ones here, but each link still votes), so
    // honest nodes end up with majority-backed values for the traitor that
    // disagree with each other. That is the forgery this test pins down.
    let n = 9;
    let plan = ByzantinePlan::new(1009).traitor(NodeId(4)).garble(1.0);
    let (outputs, stats, _, _, byz) = differential_byzantine(
        "repeat-broadcast",
        &Engine::new(n).with_bandwidth(8),
        &plan,
        || exchange_programs(n),
    );
    assert!(stats.forged_messages > 0, "{plan}: the traitor never lied");
    assert_eq!(stats.traitor_nodes, 1);
    assert_eq!(byz.liars(), vec![NodeId(4)]);
    let (a, b, t) = equivocation_witness(&outputs, &plan)
        .unwrap_or_else(|| panic!("{plan}: no equivocation witness — per-link majority held?!"));
    assert_eq!(t, NodeId(4));
    let va = outputs[a.index()].as_ref().unwrap()[t.index()];
    let vb = outputs[b.index()].as_ref().unwrap()[t.index()];
    assert_ne!(
        va, vb,
        "{plan}: witness nodes {a:?} and {b:?} actually agree"
    );
    // Honest nodes still learn each *honest* node's value correctly: the
    // forgery is confined to the traitor's slots.
    for (v, out) in outputs.iter().enumerate() {
        if plan.is_traitor(NodeId::from(v)) {
            continue;
        }
        let view = out.as_ref().unwrap();
        for (u, slot) in view.iter().enumerate() {
            if plan.is_traitor(NodeId::from(u)) {
                continue;
            }
            assert_eq!(*slot, Some(u as u64 * 5 + 1), "honest slot damaged");
        }
    }
}

#[test]
fn bracha_agrees_for_every_traitor_count_below_a_third() {
    // n/3 = 5 gives the sweep f ∈ {0, 1, 4} = {0, 1, n/3 - 1}.
    let n = 15;
    let source = NodeId(0);
    let value = 0xC3u64;
    for f in [0usize, 1, 4] {
        let plan = ByzantinePlan::new(7000 + f as u64)
            .with_random_traitors(n, f, &[source])
            .garble(1.0)
            .replay(0.4)
            .silence(0.2);
        let (outputs, stats, _, _, byz) = differential_byzantine(
            "bracha-broadcast",
            &Engine::new(n).with_bandwidth(10),
            &plan,
            || bracha_programs(n, source, value, 4),
        );
        if f > 0 {
            assert!(!byz.is_empty(), "{plan}: traitors never lied");
            assert!(stats.forged_messages + stats.silenced_messages > 0);
        }
        // Honest-node agreement on the honest source's exact value.
        let honest: Vec<&Option<Option<u64>>> = (0..n)
            .filter(|v| !plan.is_traitor(NodeId::from(*v)))
            .map(|v| &outputs[v])
            .collect();
        for o in &honest {
            assert_eq!(
                **o,
                Some(Some(value)),
                "{plan}: an honest node missed the honest source's value"
            );
        }
        assert_eq!(stats.rounds, 2 * 4 + 6, "fixed 2f + 6 round schedule");
    }
}

#[test]
fn bracha_agrees_even_when_the_source_is_the_traitor() {
    // The hardest single-traitor case: the source itself equivocates its
    // INIT. Honest nodes must not split: all honest nodes compute the
    // same Option.
    let n = 15;
    let source = NodeId(3);
    let plan = ByzantinePlan::new(5151).traitor(source).garble(1.0);
    let (outputs, _, _, _, byz) = differential_byzantine(
        "bracha-traitor-source",
        &Engine::new(n).with_bandwidth(10),
        &plan,
        || bracha_programs(n, source, 0x2A, 4),
    );
    assert!(!byz.is_empty());
    let honest: Vec<&Option<Option<u64>>> = (0..n)
        .filter(|v| !plan.is_traitor(NodeId::from(*v)))
        .map(|v| &outputs[v])
        .collect();
    assert!(
        honest.windows(2).all(|w| w[0] == w[1]),
        "{plan}: honest nodes split on a traitor source"
    );
}

#[test]
fn forced_lie_ready_drip_cannot_split_honest_nodes() {
    // Regression: this exact forced-lie plan beat the old `f + 4` schedule
    // (n = 7, f = 1, traitor source). The traitor silences its INIT toward
    // nodes 5 and 6, silences its ECHO entirely, then drip-feeds its READY:
    // replayed (as a late ECHO) to node 1, intact to node 2 only, silent to
    // the rest. Under `f + 4` one honest node crossed `2f + 1` READY votes
    // on the final round and delivered while the rest sat at `f + 1` with
    // no rounds left to join. The `2f + 6` window gives the late READY
    // quorum time to amplify to every honest node.
    let n = 7;
    let source = NodeId(0);
    let mut plan = ByzantinePlan::new(0).traitor(source);
    plan = plan.force(0, source, NodeId(5), Lie::Silence);
    plan = plan.force(0, source, NodeId(6), Lie::Silence);
    for u in 1..n {
        plan = plan.force(1, source, NodeId(u as u32), Lie::Silence);
    }
    plan = plan.force(2, source, NodeId(1), Lie::Replay);
    for u in 3..n {
        plan = plan.force(2, source, NodeId(u as u32), Lie::Silence);
    }
    let (outputs, _, _, _, byz) = differential_byzantine(
        "bracha-forced-lie-drip",
        &Engine::new(n).with_bandwidth(10),
        &plan,
        || bracha_programs(n, source, 0x5A, 1),
    );
    assert!(!byz.is_empty(), "{plan}: the traitor never lied");
    let honest: Vec<&Option<Option<u64>>> = (1..n).map(|v| &outputs[v]).collect();
    assert!(
        honest.windows(2).all(|w| w[0] == w[1]),
        "{plan}: honest nodes split: {outputs:?}"
    );
}

#[test]
fn bracha_composes_with_a_concurrent_crash_plan() {
    // Byzantine lies and crash-stop faults at once: two nodes crash
    // mid-protocol (sparing the source and the traitor so both adversary
    // tiers stay in play), one traitor garbles everything. Surviving honest
    // nodes still deliver the source's value unanimously, and every
    // adversary counter is visible in one ledger.
    let n = 13;
    let source = NodeId(0);
    let traitor = NodeId(5);
    let value = 0x77u64;
    let f = 2; // Bracha sized for two traitors; one real traitor + slack
    let byz = ByzantinePlan::new(88).traitor(traitor).garble(1.0);
    let crashes = FaultPlan::new(99).with_random_crashes(n, 2, 3, &[source, traitor]);
    let mut session = Session::new(
        Engine::new(n)
            .with_bandwidth(10)
            .with_byzantine_plan(byz.clone())
            .with_fault_plan(crashes.clone()),
    );
    let out = bracha_broadcast(&mut session, source, value, 8, f).unwrap();

    assert_eq!(out.stats.dead_nodes, 2, "{crashes}: both crashes fired");
    assert!(
        out.stats.forged_messages > 0,
        "{byz}: the traitor never lied"
    );
    assert_eq!(out.outputs.iter().filter(|o| o.is_none()).count(), 2);
    let honest_survivors: Vec<&Option<u64>> = out
        .survivors()
        .filter(|(v, _)| !byz.is_traitor(*v))
        .map(|(_, o)| o)
        .collect();
    assert!(honest_survivors.len() >= n - 3);
    for o in &honest_survivors {
        assert_eq!(
            **o,
            Some(value),
            "{byz} + {crashes}: an honest survivor lost the value"
        );
    }
    // Session ledger carries both adversaries' counters plus the phase cost.
    let stats = session.stats();
    assert_eq!(stats.rounds, 2 * f + 6);
    assert_eq!(stats.dead_nodes, 2);
    assert!(stats.forged_messages > 0);
    assert_eq!(stats.traitor_nodes, 1);
}

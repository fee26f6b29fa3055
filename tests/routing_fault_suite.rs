//! Workspace-level routing-fault conformance: the acceptance criteria for
//! the fault-aware routing layer, exercised end to end through the facade
//! crate and the testkit's routed-payload oracles.
//!
//! * every seeded crash plan with `f < n/3` must leave the direct and the
//!   balanced [`RoutePlan`], avoiding the plan's crash set, delivering
//!   **all** payloads between surviving endpoints, with dead-endpoint
//!   demands reported as structured `Undeliverable` records — judged by
//!   [`cc_testkit::judge_routed_delivery`];
//! * an **empty** crash set must be byte-identical to a plan that avoids
//!   nobody (outputs and wire cost), for the direct and balanced
//!   schedules, framed and sized;
//! * a plan with `repeats(k)` must survive seeded per-link message drops
//!   in exactly the rounds and at exactly the message width
//!   [`RoutePlan::cost`] gives;
//! * the **broadcast-only** and **CONGEST ring** modes must reject the
//!   inherently-unicast routing layer *structurally* — a
//!   [`RouteError::Sim`] topology violation, not a wrong answer.
//!
//! Test names are prefixed `clique_` / `broadcast_only_` / `ring_` so one
//! communication mode can be selected with
//! `cargo test clique_ --test routing_fault_suite`; CI's `conformance`
//! matrix runs the whole suite in its `routing_fault` legs.

use cc_testkit::{
    assert_empty_crash_transparent, differential_route, judge_routed_delivery, ring_topology,
    RouteFaultCase,
};
use congested_clique::prelude::*;
use congested_clique::routing::{demand_sizes, RouteError, RoutePlan};
use congested_clique::sim::{FaultPlan, SimError};

/// Seeded demand set used by the transparency and resilience tests: every
/// node ships two short payloads a fixed stride away.
fn demands_for(n: usize) -> Vec<Vec<(NodeId, BitString)>> {
    (0..n)
        .map(|v| {
            [1usize, 3]
                .iter()
                .map(|&d| {
                    let dst = NodeId::from((v + d) % n);
                    let payload: BitString = (0..(5 * v + d) % 23)
                        .map(|i| (v + d + i) % 3 == 0)
                        .collect();
                    (dst, payload)
                })
                .collect()
        })
        .collect()
}

#[test]
fn clique_direct_scheduler_delivers_to_survivors_under_seeded_crashes() {
    let n = 15;
    for (f, seed) in [(1, 11), (2, 22), (4, 44)] {
        let case = RouteFaultCase::new(n, f, seed);
        let (out, _) = differential_route(
            "routing-fault-suite",
            &Engine::new(n),
            &case,
            &RoutePlan::direct(),
        );
        judge_routed_delivery(&case.to_string(), &case.demands(), &case.crash_set(), &out);
    }
}

#[test]
fn clique_balanced_scheduler_delivers_to_survivors_under_seeded_crashes() {
    let n = 15;
    for (f, seed) in [(1, 13), (2, 26), (4, 52)] {
        let case = RouteFaultCase::new(n, f, seed);
        let (out, _) = differential_route(
            "routing-fault-suite",
            &Engine::new(n),
            &case,
            &RoutePlan::balanced(),
        );
        judge_routed_delivery(&case.to_string(), &case.demands(), &case.crash_set(), &out);
    }
}

#[test]
fn clique_empty_crash_set_is_transparent() {
    let n = 9;
    assert_empty_crash_transparent("routing-fault-suite", &Engine::new(n), || demands_for(n));
}

#[test]
fn clique_resilient_routing_survives_seeded_drops() {
    let n = 8;
    let repeats = 5;
    let plan = FaultPlan::new(0xD0_05).drop_messages(0.2);

    // The deliveries are fixed by a fault-free reference run, the price by
    // the plan's dry run.
    let mut clean = Session::new(Engine::new(n));
    let expect = RoutePlan::direct()
        .run(&mut clean, demands_for(n))
        .expect("fault-free routing");
    let routing = RoutePlan::direct().repeats(repeats);
    let price = routing.cost(&demand_sizes(&demands_for(n)), clean.bandwidth());

    let mut session = Session::new(Engine::new(n).with_fault_plan(plan));
    let got = routing
        .run(&mut session, demands_for(n))
        .expect("resilient routing under drops");
    assert_eq!(got, expect, "lossy delivery diverged");
    let stats = session.stats();
    assert_eq!(stats.rounds, price.rounds, "round price");
    assert_eq!(
        stats.max_message_bits, price.max_message_bits,
        "bandwidth ceiling"
    );
    assert!(
        stats.dropped_messages > 0,
        "the plan must actually drop copies"
    );
}

#[test]
fn broadcast_only_mode_rejects_unicast_routing_structurally() {
    let n = 6;
    let mut session = Session::new(Engine::new(n).broadcast_only(true));
    let err = RoutePlan::direct()
        .run(&mut session, demands_for(n))
        .unwrap_err();
    assert!(
        matches!(err, RouteError::Sim(SimError::BroadcastViolated { .. })),
        "expected a structural broadcast violation, got: {err}"
    );
}

#[test]
fn ring_mode_rejects_chord_routing_structurally() {
    let n = 6;
    let mut session = Session::new(Engine::new(n).with_topology(ring_topology(n)));
    // demands_for ships at stride 3 — a chord on any ring with n > 4.
    let err = RoutePlan::direct()
        .run(&mut session, demands_for(n))
        .unwrap_err();
    assert!(
        matches!(err, RouteError::Sim(SimError::TopologyViolated { .. })),
        "expected a structural topology violation, got: {err}"
    );
}

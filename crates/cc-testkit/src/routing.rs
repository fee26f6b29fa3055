//! Routed-payload oracles: conformance obligations for `cc-routing`'s
//! fault-aware planning layer.
//!
//! A [`RouteFaultCase`] is a seed-addressed pair of (deterministic demand
//! set, seeded crash plan), printed as `route-fault[n=…, f=…, seed=…]` —
//! the same replayable-label discipline as `plan[…]` and `family[…]`
//! labels: every judge panic starts with the case label, and rebuilding
//! the case from `(n, f, seed)` reproduces the failure bit for bit on any
//! host.
//!
//! Two obligations are enforced, and [`differential_route`] runs a case
//! for them to judge:
//!
//! * **delivery to survivors** — [`judge_routed_delivery`] checks that a
//!   [`RoutedOutcome`] delivers *every* demand between surviving endpoints
//!   (exactly once, in per-source order), reports *every* dead-endpoint
//!   demand as a structured [`cc_routing::Undeliverable`] record with the
//!   right reason, and leaves `None` slots exactly for crashed nodes;
//! * **transparency** — [`assert_empty_crash_transparent`] proves a plan
//!   avoiding an empty crash set byte-identical to the same plan on a bare
//!   engine (outputs *and* wire cost), for the direct and the balanced
//!   schedule, framed and sized.

use std::fmt;

use cc_routing::{CrashSet, Delivered, DeliveryFailure, RoutePlan, RoutedOutcome};
use cliquesim::{BitString, Engine, FaultPlan, NodeId, RunStats, Session};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One demand list per node: the input shape of [`RoutePlan::run`].
pub type Demands = Vec<Vec<(NodeId, BitString)>>;

/// A seed-addressed crash-routing conformance case: `n` nodes, a
/// ChaCha-derived demand set, and a [`FaultPlan`] crashing `f` seeded
/// victims. Prints as `route-fault[n=…, f=…, seed=…]`.
#[derive(Clone, Copy, Debug)]
pub struct RouteFaultCase {
    /// Clique size.
    pub n: usize,
    /// Number of crash victims the plan schedules.
    pub f: usize,
    /// Seed driving both the demand generator and the crash plan.
    pub seed: u64,
}

impl RouteFaultCase {
    /// Build a case; `f` victims must leave at least two survivors.
    pub fn new(n: usize, f: usize, seed: u64) -> Self {
        assert!(n >= f + 2, "need at least two survivors (n={n}, f={f})");
        Self { n, f, seed }
    }

    /// The case's crash plan: `f` seeded victims, each dying within the
    /// first few rounds.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::new(self.seed).with_random_crashes(self.n, self.f, 3, &[])
    }

    /// The crash set the plan implies (what a fault-aware router consumes).
    pub fn crash_set(&self) -> CrashSet {
        CrashSet::from_plan(&self.plan())
    }

    /// The case's deterministic demand set: every node sends 0–3 payloads
    /// of 0–40 bits to seeded destinations (dead endpoints included — the
    /// router must *report* those, not require the caller to pre-filter).
    pub fn demands(&self) -> Demands {
        seeded_demands(self.n, self.seed ^ 0x7075_7465_u64)
    }
}

/// The demand generator behind [`RouteFaultCase::demands`] and
/// [`crate::ChurnCase::demands`]: every node sends 0–3 payloads of 0–40
/// bits to ChaCha-drawn destinations. Each case mixes its own constant
/// into `seed`, so the two streams differ.
pub(crate) fn seeded_demands(n: usize, seed: u64) -> Demands {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut demands: Demands = vec![Vec::new(); n];
    for (v, list) in demands.iter_mut().enumerate() {
        for _ in 0..rng.gen_range(0..4) {
            let dst = (v + rng.gen_range(1..n)) % n;
            let len = rng.gen_range(0..40);
            let payload: BitString = (0..len).map(|_| rng.gen_bool(0.5)).collect();
            list.push((NodeId::from(dst), payload));
        }
    }
    demands
}

impl fmt::Display for RouteFaultCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "route-fault[n={}, f={}, seed={}]",
            self.n, self.f, self.seed
        )
    }
}

/// Judge a [`RoutedOutcome`] against the demand set and crash set that
/// produced it (see module docs for the three checks). `label` prefixes
/// every panic message.
pub fn judge_routed_delivery(
    label: &str,
    demands: &Demands,
    crash: &CrashSet,
    out: &RoutedOutcome,
) {
    let n = demands.len();
    assert_eq!(out.delivered.len(), n, "{label}: wrong delivery arity");

    // Slot shape: None exactly for crashed nodes.
    for v in 0..n {
        let dead = crash.is_dead(NodeId::from(v));
        assert_eq!(
            out.delivered[v].is_none(),
            dead,
            "{label}: node {v} delivery slot disagrees with the crash set"
        );
    }

    // Expected survivor traffic, keyed (dst, src) with per-source order;
    // expected undeliverable records in demand order.
    let mut expect_delivered: Vec<Vec<(NodeId, BitString)>> = vec![Vec::new(); n];
    let mut expect_undeliverable = Vec::new();
    for (v, list) in demands.iter().enumerate() {
        let source = NodeId::from(v);
        for (dst, payload) in list {
            if crash.is_dead(source) {
                expect_undeliverable.push((source, *dst, payload, DeliveryFailure::SourceCrashed));
            } else if crash.is_dead(*dst) {
                expect_undeliverable.push((
                    source,
                    *dst,
                    payload,
                    DeliveryFailure::DestinationCrashed,
                ));
            } else {
                expect_delivered[dst.index()].push((source, payload.clone()));
            }
        }
    }

    // Survivor deliveries: compare as per-source ordered multisets (the
    // scheduler may interleave sources, but per-source order is promised).
    let key = |l: &[(NodeId, BitString)]| {
        let mut m: Vec<(usize, Vec<BitString>)> = Vec::new();
        for (src, p) in l {
            match m.iter_mut().find(|(s, _)| *s == src.index()) {
                Some((_, ps)) => ps.push(p.clone()),
                None => m.push((src.index(), vec![p.clone()])),
            }
        }
        m.sort_by_key(|(s, _)| *s);
        m
    };
    for (v, slot) in out.delivered.iter().enumerate() {
        let Some(delivered) = slot else { continue };
        assert_eq!(
            key(delivered),
            key(&expect_delivered[v]),
            "{label}: node {v} survivor traffic mismatch"
        );
    }

    // Undeliverable records: exactly the dead-endpoint demands.
    assert_eq!(
        out.undeliverable.len(),
        expect_undeliverable.len(),
        "{label}: wrong number of undeliverable records"
    );
    for u in &out.undeliverable {
        let hit = expect_undeliverable.iter().position(|(s, d, p, r)| {
            *s == u.source && *d == u.destination && **p == u.payload && *r == u.reason
        });
        assert!(
            hit.is_some(),
            "{label}: unexpected undeliverable record {:?}→{:?} ({:?})",
            u.source,
            u.destination,
            u.reason
        );
    }
}

/// What a routing run hands back: the routed outcome plus the
/// session-level [`RunStats`] (rounds, bits, fault counters).
pub type RoutedRun = (RoutedOutcome, RunStats);

/// Run `plan`, avoiding the case's crash set, on the case's demands under
/// its crash plan. Returns the run for judging; a routing error panics with
/// the protocol, fault-plan and route-plan labels.
pub fn differential_route(
    label: &str,
    base: &Engine,
    case: &RouteFaultCase,
    plan: &RoutePlan,
) -> RoutedRun {
    let fault_plan = case.plan();
    let plan = plan.clone().avoiding(&case.crash_set());
    let mut session = Session::new(base.clone().with_fault_plan(fault_plan.clone()));
    let out = plan
        .run_faulted(&mut session, case.demands())
        .unwrap_or_else(|e| {
            panic!("{label} under {fault_plan} with {plan:?}: routing failed: {e}")
        });
    (out, session.stats())
}

/// Assert the planning layer's transparency guarantee, mirroring
/// [`crate::assert_empty_plans_transparent`]: every plan — direct and
/// balanced, framed and sized — avoiding an empty crash set under an empty
/// fault plan must be byte-identical to the same plan on a bare engine —
/// same deliveries, same rounds, same bits.
pub fn assert_empty_crash_transparent<M>(label: &str, base: &Engine, mut make_demands: M)
where
    M: FnMut() -> Demands,
{
    let empty_plan = FaultPlan::new(0);
    let none = CrashSet::new();
    let plans = [
        RoutePlan::direct(),
        RoutePlan::direct().sized(),
        RoutePlan::balanced(),
        RoutePlan::balanced().sized(),
    ];
    for plan in &plans {
        let tag = format!("{label} with {plan:?}");
        let mut s1 = Session::new(base.clone());
        let plain = plan
            .run(&mut s1, make_demands())
            .unwrap_or_else(|e| panic!("{tag}: plain run failed: {e}"));
        let mut s2 = Session::new(base.clone().with_fault_plan(empty_plan.clone()));
        let faulted = plan
            .clone()
            .avoiding(&none)
            .run_faulted(&mut s2, make_demands())
            .unwrap_or_else(|e| panic!("{tag}: avoiding run failed: {e}"));
        assert!(
            faulted.undeliverable.is_empty() && faulted.report.is_empty(),
            "{tag}: empty crash set produced fault artefacts"
        );
        let unwrapped: Vec<Delivered> = faulted
            .delivered
            .into_iter()
            .map(|d| d.expect("no node is dead"))
            .collect();
        assert!(
            plain == unwrapped,
            "{tag}: empty crash set changed deliveries"
        );
        assert!(
            s1.stats() == s2.stats(),
            "{tag}: empty crash set changed wire cost: {:?} vs {:?}",
            s2.stats(),
            s1.stats()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_labels_are_replayable() {
        let case = RouteFaultCase::new(9, 2, 7);
        assert_eq!(case.to_string(), "route-fault[n=9, f=2, seed=7]");
        assert_eq!(case.demands(), RouteFaultCase::new(9, 2, 7).demands());
        assert_eq!(case.plan(), RouteFaultCase::new(9, 2, 7).plan());
        assert_eq!(case.crash_set().len(), 2);
    }

    #[test]
    fn judge_accepts_a_conforming_run() {
        let case = RouteFaultCase::new(9, 2, 3);
        let (out, _) = differential_route("routing", &Engine::new(9), &case, &RoutePlan::direct());
        judge_routed_delivery(&case.to_string(), &case.demands(), &case.crash_set(), &out);
    }

    #[test]
    fn transparency_holds_for_a_seeded_demand_set() {
        let case = RouteFaultCase::new(7, 0, 5);
        assert_empty_crash_transparent("routing", &Engine::new(7), || case.demands());
    }
}

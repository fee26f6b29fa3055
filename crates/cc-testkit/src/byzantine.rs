//! Byzantine-conformance runners: the [`ByzantinePlan`] adversary is a
//! pure function of `(seed, round, from, to)`, so a run with traitors
//! replays bit for bit just like an honest one. This module mirrors
//! [`crate::faults`] for the stronger tier: [`differential_byzantine`]
//! hands back outputs, [`RunStats`], transcripts, the [`FaultReport`]
//! *and* the [`ByzantineReport`] — and an empty plan must change nothing
//! at all.
//!
//! It also carries the tier's *negative* obligation:
//! [`equivocation_witness`] searches an all-to-all exchange's outputs for
//! two honest nodes that a single traitor told different stories — the
//! proof that per-link majorities (`RepeatBroadcast`) are forged by
//! equivocation and the quorum layer (`BrachaBroadcast`) is not optional.
//!
//! Every panic message carries the plan's label (e.g.
//! `byz[seed=7, traitors=1, garble=1]`) next to the protocol label, so a
//! failing conformance run names the exact adversary that reproduces it.

use cliquesim::{
    ByzantinePlan, ByzantineReport, Engine, FaultReport, NodeId, NodeProgram, RunStats, Transcript,
};
use std::fmt::Debug;

use crate::faults::{assert_transparent, differential_adversary};

/// Everything a Byzantine run hands back: per-node outputs (`None`
/// for crashed nodes), accumulated stats, full transcripts, the link-fault
/// event log, and the Byzantine rewrite log.
pub type ByzantineRun<T> = (
    Vec<Option<T>>,
    RunStats,
    Vec<Transcript>,
    FaultReport,
    ByzantineReport,
);

/// Run node programs under `plan` with transcripts forced on. Returns the
/// run for further auditing; an engine error panics with the protocol and
/// plan labels.
pub fn differential_byzantine<P, M>(
    label: &str,
    base: &Engine,
    plan: &ByzantinePlan,
    make_programs: M,
) -> ByzantineRun<P::Output>
where
    P: NodeProgram,
    P::Output: PartialEq + Debug,
    M: FnMut() -> Vec<P>,
{
    let out = differential_adversary(
        label,
        base,
        plan,
        |e| e.with_byzantine_plan(plan.clone()),
        make_programs,
    );
    let transcripts = out.transcripts.expect("transcripts were requested");
    (
        out.outputs,
        out.stats,
        transcripts,
        out.faults,
        out.byzantine,
    )
}

/// Assert the engine's transparency guarantee for the Byzantine tier:
/// attaching an *empty* [`ByzantinePlan`] changes nothing. Runs the
/// programs once with no plan and once with `ByzantinePlan::new(seed)` (no
/// traitors, no lies), and requires byte-identical
/// outputs, stats, and transcripts — plus an empty rewrite log and zeroed
/// Byzantine counters.
pub fn assert_empty_byzantine_transparent<P, M>(label: &str, base: &Engine, make_programs: M)
where
    P: NodeProgram,
    P::Output: PartialEq + Debug,
    M: FnMut() -> Vec<P>,
{
    let plan = ByzantinePlan::new(0);
    assert!(plan.is_empty(), "ByzantinePlan::new must start empty");
    assert_transparent(
        label,
        base,
        |e| e.with_byzantine_plan(plan.clone()),
        make_programs,
    );
}

/// Search an all-to-all exchange's outputs for an **equivocation witness**:
/// two honest nodes `a ≠ b` whose slots for some traitor `t` disagree —
/// i.e. a single traitor successfully told two honest nodes different
/// stories, each locally backed by a full per-link majority.
///
/// `outputs[v]` is node `v`'s decided view, one slot per peer (the shape
/// `RepeatBroadcast` emits); `None` outer slots (crashed nodes) are
/// skipped. Returns `(a, b, t)` for the first witness found, or `None` if
/// every pair of honest nodes agrees on every traitor.
pub fn equivocation_witness(
    outputs: &[Option<Vec<Option<u64>>>],
    plan: &ByzantinePlan,
) -> Option<(NodeId, NodeId, NodeId)> {
    let honest: Vec<usize> = (0..outputs.len())
        .filter(|v| !plan.is_traitor(NodeId::from(*v)) && outputs[*v].is_some())
        .collect();
    for t in plan.traitors() {
        for (i, &a) in honest.iter().enumerate() {
            for &b in &honest[i + 1..] {
                let (va, vb) = (&outputs[a], &outputs[b]);
                if let (Some(va), Some(vb)) = (va, vb) {
                    if va[t.index()] != vb[t.index()] {
                        return Some((NodeId::from(a), NodeId::from(b), *t));
                    }
                }
            }
        }
    }
    None
}

/// Shared `proptest` strategies over Byzantine adversary plans.
pub mod strategies {
    use super::*;
    use proptest::strategy::Strategy;
    use proptest::test_runner::TestRng;

    /// Strategy drawing a random [`ByzantinePlan`] with `f < n/3` traitors
    /// for an `n`-node clique, optionally sparing listed nodes.
    #[derive(Clone, Debug)]
    pub struct ArbTraitorPlan {
        n: usize,
        spare: Vec<NodeId>,
    }

    /// Any seed, any traitor count `f ∈ [0, ⌈n/3⌉ - 1]`, any mix of lie
    /// probabilities; nodes in `spare` are never traitors.
    pub fn arb_traitor_plan(n: usize, spare: &[NodeId]) -> ArbTraitorPlan {
        assert!(n >= 4, "need n ≥ 4 for a non-trivial traitor bound");
        ArbTraitorPlan {
            n,
            spare: spare.to_vec(),
        }
    }

    impl Strategy for ArbTraitorPlan {
        type Value = ByzantinePlan;
        fn sample(&self, rng: &mut TestRng) -> ByzantinePlan {
            let max_f = self.n.div_ceil(3) - 1;
            let f = rng.below(max_f as u64 + 1) as usize;
            // At least one lie kind is always on, so a sampled plan with
            // f > 0 traitors is never accidentally transparent.
            let garble = 1.0;
            let replay = (rng.below(100) as f64) / 100.0;
            let silence = (rng.below(50) as f64) / 100.0;
            ByzantinePlan::new(rng.next_u64() % 1_000_000)
                .with_random_traitors(self.n, f, &self.spare)
                .garble(garble)
                .replay(replay)
                .silence(silence)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesim::{BitString, Inbox, NodeCtx, Outbox, Status};

    /// Three rounds of id gossip (same shape as the fault-module fixture):
    /// order-sensitive enough to notice any nondeterminism.
    #[derive(Clone)]
    struct Gossip {
        heard: Vec<u64>,
    }

    impl NodeProgram for Gossip {
        type Output = Vec<u64>;
        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            inbox: &Inbox<'_>,
            outbox: &mut Outbox<'_>,
        ) -> Status<Vec<u64>> {
            for (u, m) in inbox.iter() {
                if let Ok(v) = m.reader().read_uint(ctx.id_width()) {
                    self.heard.push(u.0 as u64 * 1000 + v);
                }
            }
            if round < 3 {
                let mut m = BitString::new();
                m.push_uint(ctx.id.0 as u64, ctx.id_width());
                outbox.broadcast(&m);
                return Status::Continue;
            }
            Status::Halt(self.heard.clone())
        }
    }

    fn gossip(n: usize) -> Vec<Gossip> {
        (0..n).map(|_| Gossip { heard: Vec::new() }).collect()
    }

    #[test]
    fn byzantine_differential_logs_the_lies() {
        let n = 15;
        let plan = ByzantinePlan::new(42)
            .with_random_traitors(n, 4, &[])
            .garble(0.6)
            .replay(0.3)
            .silence(0.1);
        let (outputs, stats, transcripts, faults, byz) =
            differential_byzantine("gossip", &Engine::new(n), &plan, || gossip(n));
        assert!(outputs.iter().all(|o| o.is_some()), "no one crashes here");
        assert!(stats.forged_messages > 0, "{plan}: nothing forged");
        assert!(faults.is_empty(), "no link-fault plan was attached");
        assert!(!byz.is_empty());
        assert_eq!(transcripts.len(), n);
    }

    #[test]
    fn empty_byzantine_plan_is_transparent_for_gossip() {
        let n = 10;
        assert_empty_byzantine_transparent("gossip", &Engine::new(n), || gossip(n));
    }

    #[test]
    fn witness_finds_a_planted_disagreement() {
        let plan = ByzantinePlan::new(0).traitor(NodeId(2)).garble(1.0);
        // Nodes 0 and 1 are honest but disagree about traitor 2.
        let outputs = vec![
            Some(vec![Some(0), Some(1), Some(7)]),
            Some(vec![Some(0), Some(1), Some(9)]),
            Some(vec![Some(0), Some(1), Some(2)]),
        ];
        assert_eq!(
            equivocation_witness(&outputs, &plan),
            Some((NodeId(0), NodeId(1), NodeId(2)))
        );
        // Agreement about the traitor → no witness.
        let agree = vec![
            Some(vec![Some(0), Some(1), Some(7)]),
            Some(vec![Some(0), Some(1), Some(7)]),
            Some(vec![Some(0), Some(1), Some(2)]),
        ];
        assert_eq!(equivocation_witness(&agree, &plan), None);
        // Disagreement between honest nodes about an *honest* node is not
        // an equivocation witness (that would be a link fault, not a lie).
        let honest_noise = vec![
            Some(vec![Some(0), Some(5), Some(7)]),
            Some(vec![Some(0), Some(6), Some(7)]),
            Some(vec![Some(0), Some(1), Some(2)]),
        ];
        assert_eq!(equivocation_witness(&honest_noise, &plan), None);
    }

    #[test]
    fn sampled_traitor_plans_respect_the_bound() {
        use proptest::strategy::Strategy;
        use proptest::test_runner::TestRng;
        let strat = strategies::arb_traitor_plan(9, &[NodeId(0)]);
        let mut rng = TestRng::deterministic("sampled_traitor_plans_respect_the_bound");
        for _ in 0..50 {
            let plan = strat.sample(&mut rng);
            assert!(3 * plan.f() < 9 + 3, "f = {} too large", plan.f());
            assert!(plan.f() <= 2, "⌈9/3⌉ - 1 = 2 is the cap");
            assert!(!plan.is_traitor(NodeId(0)), "spared node drafted");
        }
    }
}

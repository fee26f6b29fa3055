//! Byzantine-tier conformance: the [`ByzantinePlan`] adversary is a pure
//! function of `(seed, round, from, to)`, so a run with traitors replays
//! bit for bit just like an honest one. Suites attach the plan to the
//! engine, run it with [`crate::run_recorded`] under a label that carries
//! the plan's (e.g. `byz[seed=7, traitors=1, garble=1]`), and judge the
//! outcome's [`cliquesim::ByzantineReport`]; an empty plan must change
//! nothing at all ([`crate::assert_empty_plans_transparent`]).
//!
//! This module carries the tier's *negative* obligation:
//! [`equivocation_witness`] searches an all-to-all exchange's outputs for
//! two honest nodes that a single traitor told different stories — the
//! proof that per-link majorities (`RepeatBroadcast`) are forged by
//! equivocation and the quorum layer (`BrachaBroadcast`) is not optional.

use cliquesim::{ByzantinePlan, NodeId};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential::tests::gossip;
    use crate::run_recorded;
    use cliquesim::Engine;

    #[test]
    fn byzantine_run_logs_the_lies() {
        let n = 15;
        let plan = ByzantinePlan::new(42)
            .with_random_traitors(n, 4, &[])
            .garble(0.6)
            .replay(0.3)
            .silence(0.1);
        let engine = Engine::new(n).with_byzantine_plan(plan.clone());
        let out = run_recorded(&format!("gossip under {plan}"), &engine, gossip(n));
        assert!(
            out.outputs.iter().all(|o| o.is_some()),
            "no one crashes here"
        );
        assert!(out.stats.forged_messages > 0, "{plan}: nothing forged");
        assert!(out.faults.is_empty(), "no link-fault plan was attached");
        assert!(!out.byzantine.is_empty());
        assert_eq!(out.transcripts.map(|t| t.len()), Some(n));
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
}

//! Fault-conformance runners: the [`FaultPlan`] adversary is a pure
//! function of `(seed, round, from, to)`, so a faulted run replays bit for
//! bit. [`differential_faulted`] runs a plan with transcripts on and hands
//! back everything the suites judge — outputs, [`RunStats`], transcripts
//! and the [`FaultReport`] — and [`assert_empty_plan_transparent`] holds
//! an empty plan to byte identity with no plan at all.
//!
//! Every panic message carries the plan's [`FaultPlan::label`] (e.g.
//! `plan[seed=7, crashes=1, drop=0.25]`) next to the protocol label, so a
//! failing conformance run names the exact adversary that reproduces it.

use cliquesim::{
    Engine, FaultPlan, FaultReport, FaultedOutcome, NodeProgram, RunStats, Transcript,
};
use std::fmt::{Debug, Display};

/// Everything a faulted run hands back: per-node outputs (`None` for
/// crashed nodes), accumulated stats, full transcripts, and the
/// adversary's event log.
pub type FaultedRun<T> = (Vec<Option<T>>, RunStats, Vec<Transcript>, FaultReport);

/// Run node programs under `plan` with transcripts forced on. Returns the
/// run for further auditing; an engine error panics with the protocol and
/// plan labels.
pub fn differential_faulted<P, M>(
    label: &str,
    base: &Engine,
    plan: &FaultPlan,
    make_programs: M,
) -> FaultedRun<P::Output>
where
    P: NodeProgram,
    P::Output: PartialEq + Debug,
    M: FnMut() -> Vec<P>,
{
    let out = differential_adversary(
        label,
        base,
        plan,
        |e| e.with_fault_plan(plan.clone()),
        make_programs,
    );
    let transcripts = out.transcripts.expect("transcripts were requested");
    (out.outputs, out.stats, transcripts, out.faults)
}

/// The run behind [`differential_faulted`] and
/// [`crate::differential_byzantine`]: the programs on `attach(engine)`
/// with transcripts forced on. `plan` names the adversary in the panic
/// message of an engine error.
pub(crate) fn differential_adversary<P, M>(
    label: &str,
    base: &Engine,
    plan: &dyn Display,
    attach: impl Fn(Engine) -> Engine,
    mut make_programs: M,
) -> FaultedOutcome<P::Output>
where
    P: NodeProgram,
    P::Output: PartialEq + Debug,
    M: FnMut() -> Vec<P>,
{
    attach(base.clone().with_transcripts(true))
        .run_faulted(make_programs())
        .unwrap_or_else(|e| panic!("{label} under {plan}: engine error: {e}"))
}

/// Assert the engine's transparency guarantee: attaching an *empty*
/// [`FaultPlan`] changes nothing. Runs the programs once with no plan and
/// once with `FaultPlan::new(seed)` (every probability zero, no crashes,
/// no forced faults), and requires byte-identical outputs, stats, and
/// transcripts — plus an empty fault report.
pub fn assert_empty_plan_transparent<P, M>(label: &str, base: &Engine, make_programs: M)
where
    P: NodeProgram,
    P::Output: PartialEq + Debug,
    M: FnMut() -> Vec<P>,
{
    let plan = FaultPlan::new(0);
    assert!(plan.is_empty(), "FaultPlan::new must start empty");
    assert_transparent(
        label,
        base,
        |e| e.with_fault_plan(plan.clone()),
        make_programs,
    );
}

/// The check behind [`assert_empty_plan_transparent`] and
/// [`crate::assert_empty_byzantine_transparent`]: run the programs once on
/// the bare engine and once on `attach(engine)`, which must attach an
/// empty plan, and require byte-identical outputs, stats, and transcripts
/// plus empty fault and Byzantine reports.
pub(crate) fn assert_transparent<P, M>(
    label: &str,
    base: &Engine,
    attach: impl Fn(Engine) -> Engine,
    mut make_programs: M,
) where
    P: NodeProgram,
    P::Output: PartialEq + Debug,
    M: FnMut() -> Vec<P>,
{
    let engine = base.clone().with_transcripts(true);
    let bare = engine
        .run(make_programs())
        .unwrap_or_else(|e| panic!("{label}: bare engine error: {e}"));
    let planned = attach(engine)
        .run_faulted(make_programs())
        .unwrap_or_else(|e| panic!("{label}: empty-plan engine error: {e}"));
    assert!(
        planned.faults.is_empty(),
        "{label}: empty plan produced fault events"
    );
    assert!(
        planned.byzantine.is_empty(),
        "{label}: empty plan produced rewrite events"
    );
    assert!(
        bare.outputs
            .iter()
            .map(Some)
            .eq(planned.outputs.iter().map(Option::as_ref)),
        "{label}: empty plan changed outputs"
    );
    assert!(
        bare.stats == planned.stats,
        "{label}: empty plan changed RunStats: {:?} vs {:?}",
        planned.stats,
        bare.stats
    );
    assert!(
        bare.transcripts == planned.transcripts,
        "{label}: empty plan changed transcripts"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesim::{BitString, Inbox, NodeCtx, NodeId, Outbox, Status};

    /// Three rounds of id gossip: every node tracks the multiset of ids it
    /// has heard (order-sensitive enough to notice any nondeterminism).
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
    fn faulted_differential_reports_the_plan() {
        let n = 15;
        let plan = FaultPlan::new(42)
            .crash(NodeId(3), 2)
            .drop_messages(0.2)
            .corrupt_messages(0.1)
            .truncate_messages(0.05);
        let (outputs, stats, transcripts, faults) =
            differential_faulted("gossip", &Engine::new(n), &plan, || gossip(n));
        assert!(outputs[3].is_none(), "crashed node has no output");
        assert_eq!(stats.dead_nodes, 1);
        assert!(stats.dropped_messages > 0, "seed 42 must drop something");
        assert!(!faults.is_empty());
        assert_eq!(transcripts.len(), n);
    }

    #[test]
    fn empty_plan_is_transparent_for_gossip() {
        let n = 10;
        assert_empty_plan_transparent("gossip", &Engine::new(n), || gossip(n));
    }
}

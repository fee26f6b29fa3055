//! Fault-conformance differentials: the [`FaultPlan`] adversary must be a
//! pure function of `(seed, round, from, to)`, so a faulted run is just as
//! schedule-independent as a fault-free one. This module turns that into a
//! standing obligation: the same plan, replayed under every pool shape in
//! [`POOL_SHAPES`], must yield
//! byte-identical outputs, [`RunStats`], transcripts, *and* the same
//! [`FaultReport`] event for event.
//!
//! Every panic message carries the plan's [`FaultPlan::label`] (e.g.
//! `plan[seed=7, crashes=1, drop=0.25]`) next to the protocol label, so a
//! failing conformance run names the exact adversary that reproduces it.

use cliquesim::{
    Engine, FaultPlan, FaultReport, FaultedOutcome, NodeProgram, RunStats, Transcript,
};
use std::fmt::{Debug, Display};

use crate::differential::POOL_SHAPES;

/// Everything a faulted differential compares: per-node outputs (`None`
/// for crashed nodes), accumulated stats, full transcripts, and the
/// adversary's event log.
pub type FaultedRun<T> = (Vec<Option<T>>, RunStats, Vec<Transcript>, FaultReport);

/// Run node programs under `plan` on every pool shape with transcripts
/// forced on, asserting byte-identical outputs, stats, transcripts, and
/// fault reports. Returns the sequential run for further auditing.
///
/// The factory is called once per shape and must produce identical
/// programs each time (pass a fixed seed in, like
/// [`crate::differential_programs`]).
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

/// The pool-shape loop behind [`differential_faulted`] and
/// [`crate::differential_byzantine`]: run the programs on `attach(engine)`
/// for every cell with transcripts forced on, and require byte-identical
/// outputs, stats, transcripts, fault reports, and Byzantine reports.
/// `plan` names the adversary in panic messages. Returns the first cell's
/// run.
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
    let mut reference: Option<FaultedOutcome<P::Output>> = None;
    for &threads in POOL_SHAPES.iter() {
        let tag = format!("{label} under {plan}");
        let engine = attach(
            base.clone()
                .with_transcripts(true)
                .with_threads_exact(threads),
        );
        let out = engine
            .run_faulted(make_programs())
            .unwrap_or_else(|e| panic!("{tag}: engine error at threads={threads}: {e}"));
        let Some(r) = &reference else {
            reference = Some(out);
            continue;
        };
        assert!(
            r.outputs == out.outputs,
            "{tag}: outputs diverge at threads={threads}"
        );
        assert!(
            r.stats == out.stats,
            "{tag}: RunStats diverge at threads={threads}: {:?} vs {:?}",
            out.stats,
            r.stats
        );
        assert!(
            r.byzantine == out.byzantine,
            "{tag}: Byzantine reports diverge at threads={threads}: {:?} vs {:?}",
            out.byzantine,
            r.byzantine
        );
        assert!(
            r.faults == out.faults,
            "{tag}: fault reports diverge at threads={threads}: {:?} vs {:?}",
            out.faults,
            r.faults
        );
        assert!(
            r.transcripts == out.transcripts,
            "{tag}: transcripts diverge at threads={threads}"
        );
    }
    reference.expect("POOL_SHAPES is non-empty")
}

/// Assert the engine's transparency guarantee: attaching an *empty*
/// [`FaultPlan`] changes nothing. Runs the programs once with no plan and
/// once with `FaultPlan::new(seed)` (every probability zero, no crashes,
/// no forced faults) on every pool shape, and requires byte-identical
/// outputs, stats, and transcripts — plus an empty fault report.
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

/// The pool-shape loop behind [`assert_empty_plan_transparent`] and
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
    for &threads in POOL_SHAPES.iter() {
        let engine = base
            .clone()
            .with_transcripts(true)
            .with_threads_exact(threads);
        let bare = engine
            .run(make_programs())
            .unwrap_or_else(|e| panic!("{label}: bare engine error at threads={threads}: {e}"));
        let planned = attach(engine)
            .run_faulted(make_programs())
            .unwrap_or_else(|e| {
                panic!("{label}: empty-plan engine error at threads={threads}: {e}")
            });
        assert!(
            planned.faults.is_empty(),
            "{label}: empty plan produced fault events at threads={threads}"
        );
        assert!(
            planned.byzantine.is_empty(),
            "{label}: empty plan produced rewrite events at threads={threads}"
        );
        assert!(
            bare.outputs
                .iter()
                .map(Some)
                .eq(planned.outputs.iter().map(Option::as_ref)),
            "{label}: empty plan changed outputs at threads={threads}"
        );
        assert!(
            bare.stats == planned.stats,
            "{label}: empty plan changed RunStats at threads={threads}: {:?} vs {:?}",
            planned.stats,
            bare.stats
        );
        assert!(
            bare.transcripts == planned.transcripts,
            "{label}: empty plan changed transcripts at threads={threads}"
        );
    }
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
    fn faulted_differential_is_stable_across_shapes() {
        // n = 15 ≥ 2·7, so the 7-worker pooled path really engages.
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

//! The conformance runner and the checks that compare two real paths.
//!
//! [`run_recorded`] runs node programs once on the engine the caller
//! built — topology, bandwidth, a [`FaultPlan`], a [`ByzantinePlan`], a
//! keyring, or none of them — with transcripts recorded, and hands back
//! the engine's own [`FaultedOutcome`]. Both adversaries are pure
//! functions of `(seed, round, from, to)`, so a run replays bit for bit,
//! and an engine error panics with the caller's label: name the case and
//! every attached adversary in it (e.g. `gossip under plan[seed=7, …]`)
//! and the failing cell is replayable.
//!
//! [`differential_broadcast_only`] runs a broadcast-capable protocol in the
//! unrestricted clique *and* in the broadcast-only model (paper §2) and
//! asserts the two agree; [`assert_empty_plans_transparent`] holds empty
//! adversary plans byte-identical to no plan at all.

use cliquesim::{ByzantinePlan, Engine, FaultPlan, FaultedOutcome, NodeProgram, Session};
use std::fmt::Debug;

/// Run `programs` on `engine` with transcript recording forced on. Crashed
/// nodes' outputs are `None`, and both adversaries' event logs ride along;
/// an engine error panics with `label`.
pub fn run_recorded<P: NodeProgram>(
    label: &str,
    engine: &Engine,
    programs: Vec<P>,
) -> FaultedOutcome<P::Output> {
    engine
        .clone()
        .with_transcripts(true)
        .run_faulted(programs)
        .unwrap_or_else(|e| panic!("{label}: engine error: {e}"))
}

/// Run a broadcast-capable protocol in the unrestricted clique *and* the
/// broadcast-only model (paper §2), asserting the two models agree.
/// Returns the clique-model output.
pub fn differential_broadcast_only<T, F>(label: &str, n: usize, mut protocol: F) -> T
where
    T: PartialEq + Debug,
    F: FnMut(&mut Session) -> T,
{
    let clique = protocol(&mut Session::new(Engine::new(n)));
    let bcast = protocol(&mut Session::new(Engine::new(n).broadcast_only(true)));
    assert!(
        clique == bcast,
        "{label}: broadcast-only model diverges from clique: {bcast:?} vs {clique:?}"
    );
    clique
}

/// Assert the engine's transparency guarantee: attaching an *empty*
/// [`FaultPlan`], an empty [`ByzantinePlan`], or both at once changes
/// nothing. Each planned run must match the bare engine's byte for byte —
/// outputs, stats and transcripts — and log no fault or rewrite event.
pub fn assert_empty_plans_transparent<P, M>(label: &str, base: &Engine, mut make_programs: M)
where
    P: NodeProgram,
    P::Output: PartialEq + Debug,
    M: FnMut() -> Vec<P>,
{
    let (faults, byzantine) = (FaultPlan::new(0), ByzantinePlan::new(0));
    assert!(
        faults.is_empty() && byzantine.is_empty(),
        "new plans start empty"
    );
    let with_faults = |e: Engine| e.with_fault_plan(faults.clone());
    let with_byzantine = |e: Engine| e.with_byzantine_plan(byzantine.clone());
    let bare = run_recorded(&format!("{label} bare"), base, make_programs());
    assert!(
        bare.outputs.iter().all(Option::is_some),
        "{label}: a node of the bare engine has no output"
    );
    let planned = [
        ("an empty fault plan", with_faults(base.clone())),
        ("an empty Byzantine plan", with_byzantine(base.clone())),
        (
            "both empty plans",
            with_byzantine(with_faults(base.clone())),
        ),
    ];
    for (plans, engine) in planned {
        let tag = format!("{label} under {plans}");
        let run = run_recorded(&tag, &engine, make_programs());
        assert!(run.faults.is_empty(), "{tag}: fault events logged");
        assert!(run.byzantine.is_empty(), "{tag}: rewrite events logged");
        assert!(run.outputs == bare.outputs, "{tag}: outputs changed");
        assert!(
            run.stats == bare.stats,
            "{tag}: RunStats changed: {:?} vs {:?}",
            run.stats,
            bare.stats
        );
        assert!(
            run.transcripts == bare.transcripts,
            "{tag}: transcripts changed"
        );
    }
}

/// Adjacency matrix of the n-cycle, for CONGEST-ring runs via
/// `Engine::with_topology`.
pub fn ring_topology(n: usize) -> Vec<bool> {
    let mut adj = vec![false; n * n];
    for v in 0..n {
        let w = (v + 1) % n;
        if v != w {
            adj[v * n + w] = true;
            adj[w * n + v] = true;
        }
    }
    adj
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cliquesim::{BitString, Inbox, NodeCtx, NodeId, Outbox, Status};

    /// Three rounds of id gossip: every node tracks the ids it has heard,
    /// sender-tagged (order-sensitive enough to notice any
    /// nondeterminism). Programs read the payload prefix and ignore any
    /// trailing tag, so the fixture also runs with a keyring attached.
    #[derive(Clone)]
    pub(crate) struct Gossip {
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

    pub(crate) fn gossip(n: usize) -> Vec<Gossip> {
        (0..n).map(|_| Gossip { heard: Vec::new() }).collect()
    }

    /// One broadcast round: every node learns the minimum id.
    #[derive(Clone)]
    struct MinId(u64);

    impl NodeProgram for MinId {
        type Output = u64;
        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            inbox: &Inbox<'_>,
            outbox: &mut Outbox<'_>,
        ) -> Status<u64> {
            if round == 0 {
                let mut m = BitString::new();
                m.push_uint(ctx.id.0 as u64, ctx.id_width());
                outbox.broadcast(&m);
                self.0 = ctx.id.0 as u64;
                Status::Continue
            } else {
                for (_, msg) in inbox.iter() {
                    self.0 = self.0.min(msg.reader().read_uint(ctx.id_width()).unwrap());
                }
                Status::Halt(self.0)
            }
        }
    }

    /// Ring token passing: node 0 sends a token around the cycle once;
    /// each node outputs whether it ever saw the token.
    #[derive(Clone, Default)]
    struct RingHop {
        seen: bool,
    }

    impl NodeProgram for RingHop {
        type Output = bool;
        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            inbox: &Inbox<'_>,
            outbox: &mut Outbox<'_>,
        ) -> Status<bool> {
            let (me, n) = (ctx.id.index(), ctx.n);
            if !inbox.from(NodeId::from((me + n - 1) % n)).is_empty() {
                self.seen = true;
                let next = (me + 1) % n;
                if next != 0 {
                    outbox.send(NodeId::from(next), BitString::from_bits([true]));
                }
            }
            if round == 0 && me == 0 && n > 1 {
                outbox.send(NodeId::from(1 % n), BitString::from_bits([true]));
            }
            if round >= n - 1 {
                return Status::Halt(me == 0 || self.seen);
            }
            Status::Continue
        }
    }

    #[test]
    fn run_recorded_records_a_transcript_per_node() {
        let n = 15;
        let out = run_recorded("minid", &Engine::new(n), vec![MinId(0); n]);
        assert_eq!(out.outputs, vec![Some(0); n]);
        assert_eq!(out.stats.rounds, 1);
        assert_eq!(out.transcripts.map(|t| t.len()), Some(n));
    }

    #[test]
    #[should_panic(expected = "minid[n=5] under plan[seed=3]: engine error")]
    fn run_recorded_names_the_case_on_an_engine_error() {
        // Four programs for a five-node clique: the engine rejects the
        // vector, and the panic must lead with the caller's label.
        let engine = Engine::new(5).with_fault_plan(FaultPlan::new(3));
        run_recorded("minid[n=5] under plan[seed=3]", &engine, vec![MinId(0); 4]);
    }

    #[test]
    fn faulted_run_reports_the_plan() {
        let n = 15;
        let plan = FaultPlan::new(42)
            .crash(NodeId(3), 2)
            .drop_messages(0.2)
            .corrupt_messages(0.1)
            .truncate_messages(0.05);
        let engine = Engine::new(n).with_fault_plan(plan.clone());
        let out = run_recorded(&format!("gossip under {plan}"), &engine, gossip(n));
        assert!(out.outputs[3].is_none(), "crashed node has no output");
        assert_eq!(out.stats.dead_nodes, 1);
        assert!(
            out.stats.dropped_messages > 0,
            "seed 42 must drop something"
        );
        assert!(!out.faults.is_empty());
        assert_eq!(out.transcripts.map(|t| t.len()), Some(n));
    }

    #[test]
    fn empty_plans_are_transparent_for_gossip() {
        let n = 10;
        assert_empty_plans_transparent("gossip", &Engine::new(n), || gossip(n));
    }

    #[test]
    fn ring_topology_runs_under_congest_restriction() {
        let n = 6;
        let engine = Engine::new(n).with_topology(ring_topology(n));
        let out = run_recorded("ringhop", &engine, vec![RingHop::default(); n]);
        assert!(out.outputs.iter().all(|&ok| ok == Some(true)));
    }

    #[test]
    #[should_panic(expected = "TopologyViolated")]
    fn ring_topology_rejects_chords() {
        // A broadcast from any node crosses non-ring links and must be
        // rejected by the engine, proving the helper restricts topology.
        let n = 6;
        let engine = Engine::new(n).with_topology(ring_topology(n));
        engine
            .run((0..n).map(|_| MinId(0)).collect())
            .map(|_| ())
            .unwrap();
    }
}

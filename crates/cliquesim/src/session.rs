//! Sequential composition of algorithm phases.
//!
//! Congested clique algorithms are routinely built from phases ("run matrix
//! multiplication, then redistribute, then …"). Synchronisation is free in
//! the model, so running phases as separate engine executions and summing
//! their round counts is semantically identical to one monolithic program —
//! and far easier to write. A [`Session`] wraps an [`Engine`] and accumulates
//! statistics across such phase runs.
//!
//! Distributed fidelity is a *discipline* at this layer: driver code must
//! construct each phase's per-node programs only from that node's previous
//! outputs (plus globally known parameters). Every algorithm crate in this
//! workspace follows that rule.

use crate::auth::{AuthKeyring, TAG_BITS};
use crate::bits::BitString;
use crate::delivery::DeliveryArena;
use crate::engine::{Engine, FaultedOutcome, RunOutcome, SimError};
use crate::node::{NodeId, NodeProgram};
use crate::stats::RunStats;

/// An engine plus cumulative statistics across phase runs.
///
/// The session also owns a [`DeliveryArena`]: delivery buffers checked out
/// for one phase are returned and reused by the next, so steady-state phases
/// allocate no message slots at all.
#[derive(Debug)]
pub struct Session {
    engine: Engine,
    arena: DeliveryArena,
    stats: RunStats,
    phases: usize,
}

impl Session {
    /// Start a session on the given engine.
    pub fn new(engine: Engine) -> Self {
        Self::with_arena(engine, DeliveryArena::new())
    }

    /// Start a session on the given engine, checking delivery buffers out
    /// of a caller-supplied arena instead of a fresh one. This is the
    /// service-friendly entry point: a host that runs many short sessions
    /// back to back (e.g. a `cc-service` worker) keeps one warm arena per
    /// worker and threads it through successive sessions, so only the
    /// first session of a given shape allocates message slots. Reclaim the
    /// arena afterwards with [`Session::into_arena`].
    pub fn with_arena(engine: Engine, arena: DeliveryArena) -> Self {
        Self {
            engine,
            arena,
            stats: RunStats::default(),
            phases: 0,
        }
    }

    /// Consume the session and hand back its arena (with whatever buffers
    /// the session's runs parked in it), so the next session can reuse the
    /// allocations. Statistics are unaffected by reuse — see
    /// [`crate::RunStats`]'s logical-counter contract.
    pub fn into_arena(self) -> DeliveryArena {
        self.arena
    }

    /// Number of nodes in the clique.
    pub fn n(&self) -> usize {
        self.engine.n()
    }

    /// Per-message bit budget of the underlying engine.
    pub fn bandwidth(&self) -> usize {
        self.engine.bandwidth()
    }

    /// Access the underlying engine (e.g. to run with transcripts).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Address the engine's fault plan at `offset + local round` for this
    /// and subsequent phases (see [`Engine::with_fault_offset`]). Use
    /// [`Session::align_fault_clock`] to derive the offset from the
    /// session's own ledger.
    pub fn set_fault_offset(&mut self, offset: usize) {
        self.engine = self.engine.clone().with_fault_offset(offset);
    }

    /// Point the fault clock at the session's cumulative round count, so a
    /// single absolute-round churn timeline (crashes, rejoins, link-fault
    /// coins) spans phases that each restart their local round count at 0.
    /// Call between phases; analytic rounds added via [`Session::charge`]
    /// advance the clock too, matching their free-synchronisation reading.
    pub fn align_fault_clock(&mut self) {
        let rounds = self.stats.rounds;
        self.set_fault_offset(rounds);
    }

    /// Run one phase; its rounds/bits are added to the session totals.
    /// Like [`Engine::run`], the phase fails with [`SimError::NodeCrashed`]
    /// if the fault plan crash-stops a node, and then adds nothing.
    pub fn run<P: NodeProgram>(
        &mut self,
        programs: Vec<P>,
    ) -> Result<RunOutcome<P::Output>, SimError> {
        let out = self
            .engine
            .run_faulted_in(programs, &mut self.arena)?
            .into_complete()?;
        self.stats.absorb(&out.stats);
        self.phases += 1;
        Ok(out)
    }

    /// Run one phase under the engine's fault and/or Byzantine plan,
    /// tolerating crashed nodes (their output slots are `None`) and keeping
    /// both event logs. Rounds, bits, and all adversary counters are added
    /// to the session totals, so a resilient protocol's overhead is visible
    /// in the same ledger as its fault exposure. Each phase restarts its
    /// round count at 0, so the fault plan's round-addressed schedule
    /// re-applies per phase unless the fault clock is advanced with
    /// [`Session::align_fault_clock`].
    pub fn run_faulted<P: NodeProgram>(
        &mut self,
        programs: Vec<P>,
    ) -> Result<FaultedOutcome<P::Output>, SimError> {
        let out = self.engine.run_faulted_in(programs, &mut self.arena)?;
        self.stats.absorb(&out.stats);
        self.phases += 1;
        Ok(out)
    }

    /// Cumulative statistics over all phases so far. Timing fields are
    /// concatenated across phases; see [`RunStats::absorb`].
    pub fn stats(&self) -> RunStats {
        self.stats.clone()
    }

    /// Number of phases executed.
    pub fn phases(&self) -> usize {
        self.phases
    }

    /// Total message slots currently parked in the session's delivery
    /// arena (both double-buffer halves): one broadcast slot per sender row
    /// plus the override entries its rows have held, so `2·n` after
    /// broadcast-only traffic and at most `2·n²`. It scales with the edges
    /// actually used, so it doubles as a footprint probe in tests and
    /// benchmarks.
    pub fn delivery_footprint(&self) -> usize {
        self.arena.slot_footprint()
    }

    /// Add rounds charged by an analytical sub-protocol (used when a phase's
    /// cost is accounted rather than simulated; see `cc-routing`'s oracle).
    pub fn charge(&mut self, stats: &RunStats) {
        self.stats.absorb(stats);
        self.phases += 1;
    }

    /// The engine's attached keyring, if any (see [`Engine::with_auth`]).
    pub fn keyring(&self) -> Option<&AuthKeyring> {
        self.engine.auth_keyring()
    }

    /// Sign `payload` as `from` in round-context `round` with the
    /// session's keyring, charging one signature ([`TAG_BITS`] bits) to
    /// the session ledger. `None` when no keyring is attached. This is
    /// the protocol-level signing entry point (e.g. Dolev–Strong chain
    /// entries, accusation claims); the engine's per-message envelope
    /// signs and charges automatically.
    pub fn sign(&mut self, from: NodeId, round: usize, payload: &BitString) -> Option<u64> {
        let tag = self.engine.auth_keyring()?.sign(from, round, payload);
        self.stats.signed_messages += 1;
        self.stats.auth_bits += TAG_BITS as u64;
        Some(tag)
    }

    /// Verify a claimed `(from, round, payload, tag)` quadruple against
    /// the session's keyring, charging failures to the session's
    /// `rejected_tags`. `None` when no keyring is attached.
    pub fn verify(
        &mut self,
        from: NodeId,
        round: usize,
        payload: &BitString,
        tag: u64,
    ) -> Option<bool> {
        let ok = self
            .engine
            .auth_keyring()?
            .verify(from, round, payload, tag);
        if !ok {
            self.stats.rejected_tags += 1;
        }
        Some(ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitString;
    use crate::node::{Inbox, NodeCtx, NodeId, Outbox, Status};

    struct OneRound;
    impl NodeProgram for OneRound {
        type Output = ();
        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            _: &Inbox<'_>,
            ob: &mut Outbox<'_>,
        ) -> Status<()> {
            if round == 0 {
                let mut m = BitString::new();
                m.push_uint(1, 1);
                if ctx.n > 1 {
                    ob.send(NodeId((ctx.id.0 + 1) % ctx.n as u32), m);
                }
                Status::Continue
            } else {
                Status::Halt(())
            }
        }
    }

    #[test]
    fn session_accumulates_rounds_across_phases() {
        let mut s = Session::new(Engine::new(4));
        for _ in 0..3 {
            s.run((0..4).map(|_| OneRound).collect()).unwrap();
        }
        assert_eq!(s.stats().rounds, 3);
        assert_eq!(s.phases(), 3);
        assert_eq!(s.stats().messages, 12);
    }

    #[test]
    fn run_faulted_accumulates_fault_counters() {
        use crate::fault::FaultPlan;
        let mut s =
            Session::new(Engine::new(4).with_fault_plan(FaultPlan::new(0).crash(NodeId(3), 1)));
        let out = s.run_faulted((0..4).map(|_| OneRound).collect()).unwrap();
        assert!(out.outputs[3].is_none());
        assert_eq!(s.stats().dead_nodes, 1);
        assert_eq!(s.phases(), 1);
    }

    #[test]
    fn fault_clock_alignment_spans_phases() {
        use crate::fault::FaultPlan;
        let mk = || (0..4).map(|_| OneRound).collect::<Vec<_>>();
        // The crash is scheduled at absolute round 2 — inside the *second*
        // one-round phase once the clock is aligned, unreachable otherwise.
        let plan = FaultPlan::new(0).crash(NodeId(3), 2);
        let mut s = Session::new(Engine::new(4).with_fault_plan(plan));
        let p1 = s.run_faulted(mk()).unwrap();
        assert!(p1.outputs[3].is_some(), "plan round 2 is outside phase 1");
        s.align_fault_clock();
        assert_eq!(s.engine().fault_offset(), 1);
        let p2 = s.run_faulted(mk()).unwrap();
        assert!(
            p2.outputs[3].is_none(),
            "plan round 2 = phase-2 local round 1"
        );
        assert_eq!(s.stats().dead_nodes, 1);
    }

    #[test]
    fn session_parks_delivery_buffers_between_phases() {
        // Each buffer parks one row per sender: a broadcast slot plus the
        // entries the row has held. OneRound's ring round leaves one entry
        // per row in buffer 0, and its halting round writes nothing.
        let parked = 2 * 4 + 4;
        let mut s = Session::new(Engine::new(4));
        assert_eq!(s.delivery_footprint(), 0, "nothing parked before a run");
        s.run((0..4).map(|_| OneRound).collect()).unwrap();
        assert_eq!(s.delivery_footprint(), parked);
        s.run((0..4).map(|_| OneRound).collect()).unwrap();
        assert_eq!(s.delivery_footprint(), parked, "reuse is steady-state");
    }

    #[test]
    fn arena_threads_through_successive_sessions() {
        // First session allocates the pair; the second reuses it, so the
        // footprint is identical before and after its run.
        let parked = 2 * 4 + 4;
        let mut s = Session::new(Engine::new(4));
        s.run((0..4).map(|_| OneRound).collect()).unwrap();
        let arena = s.into_arena();
        assert_eq!(arena.slot_footprint(), parked);
        let mut s = Session::with_arena(Engine::new(4), arena);
        assert_eq!(s.delivery_footprint(), parked, "warm before first run");
        let out = s.run((0..4).map(|_| OneRound).collect()).unwrap();
        assert_eq!(out.stats.rounds, 1);
        assert_eq!(s.delivery_footprint(), parked);
        assert_eq!(s.phases(), 1, "stats are per-session, not per-arena");
    }

    #[test]
    fn charge_adds_analytical_costs() {
        let mut s = Session::new(Engine::new(2));
        s.charge(&RunStats {
            rounds: 7,
            ..RunStats::default()
        });
        assert_eq!(s.stats().rounds, 7);
    }
}

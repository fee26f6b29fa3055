//! Churn-conformance families: seed-addressed Poisson crash/rejoin
//! schedules for the engine's rejoin/state-sync tier.
//!
//! A [`ChurnCase`] is the churn twin of [`crate::RouteFaultCase`]: from
//! `(n, seed)` it derives a [`FaultPlan`] via
//! [`FaultPlan::with_random_churn`] (every node outside the spared set
//! walks a seeded crash/rejoin Markov chain) plus a deterministic demand
//! set for routing waves. Cases print as `churn[n=…, seed=…]` and every
//! judge panic starts with that label, so a failing conformance run names
//! the exact churn schedule that reproduces it — bit-identical on any
//! host.
//!
//! Suites attach [`ChurnCase::plan`] to the engine and run it with
//! [`crate::run_recorded`] (rejoin state sync included), and one
//! obligation is enforced on top:
//!
//! * **ledger closure** — [`judge_churn_accounting`] cross-checks the
//!   [`FaultReport`] against the [`RunStats`] sync counters and the plan's
//!   downtime windows: every `Rejoined` event names a scheduled rejoin,
//!   the replayed window is exactly the downtime the plan implies, and the
//!   stats counters equal the event sums (nothing double- or un-counted).

use std::fmt;
use std::ops::Range;

use cc_routing::CrashSet;
use cliquesim::{FaultEvent, FaultPlan, FaultReport, NodeId, RunStats};

use crate::routing::{seeded_demands, Demands};

/// A seed-addressed churn conformance case: `n` nodes under a Poisson
/// crash/rejoin schedule derived from `seed`. Prints as `churn[n=…,
/// seed=…]`; rebuilding the case from the label reproduces the schedule
/// bit for bit.
#[derive(Clone, Copy, Debug)]
pub struct ChurnCase {
    /// Clique size.
    pub n: usize,
    /// Seed driving the churn chain and the demand generator.
    pub seed: u64,
}

impl ChurnCase {
    /// Per-round crash probability for live nodes, in per mille.
    pub const CRASH_PER_MILLE: u32 = 80;
    /// Per-round rejoin probability for down nodes, in per mille.
    pub const REJOIN_PER_MILLE: u32 = 400;
    /// Last round the churn chain is sampled at (crashes and rejoins all
    /// land in `1..=MAX_ROUND`).
    pub const MAX_ROUND: usize = 12;

    /// Build a case. Node 0 is spared so every case keeps at least one
    /// always-alive node (a broadcast source or routing anchor).
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 2, "a clique needs at least two nodes (n={n})");
        Self { n, seed }
    }

    /// The case's churn plan: a pure function of the seed, sparing node 0.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::new(self.seed).with_random_churn(
            self.n,
            Self::CRASH_PER_MILLE,
            Self::REJOIN_PER_MILLE,
            Self::MAX_ROUND,
            &[NodeId(0)],
        )
    }

    /// The conservative whole-run crash set (every node the plan ever
    /// kills, recoveries ignored) — what a single-wave router consumes.
    pub fn crash_set(&self) -> CrashSet {
        CrashSet::from_plan(&self.plan())
    }

    /// The round-aware crash set for one routing wave: nodes whose
    /// crash/rejoin pair completed strictly before the window are
    /// re-admitted (see `CrashSet::from_plan_window`).
    pub fn crash_set_for(&self, rounds: Range<usize>) -> CrashSet {
        CrashSet::from_plan_window(&self.plan(), rounds)
    }

    /// The case's deterministic demand set, in the same shape as
    /// [`crate::RouteFaultCase::demands`] but from its own seed stream.
    /// Dead endpoints are included on purpose — the router must report
    /// them, not require pre-filtering.
    pub fn demands(&self) -> Demands {
        seeded_demands(self.n, self.seed ^ 0x6368_7572_u64)
    }
}

impl fmt::Display for ChurnCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "churn[n={}, seed={}]", self.n, self.seed)
    }
}

/// The churn sweep CI and the conformance suites iterate: a small corpus
/// of cases spanning clique sizes and seeds.
pub fn churn_corpus() -> Vec<ChurnCase> {
    let mut cases = Vec::new();
    for &n in &[8usize, 12, 15] {
        for seed in 1..=3u64 {
            cases.push(ChurnCase::new(n, seed));
        }
    }
    cases
}

/// Close the churn ledger: every `Rejoined` event in `report` must name a
/// rejoin the plan schedules, replaying exactly the downtime window the
/// plan implies, and the [`RunStats`] sync counters must equal the event
/// sums. `label` prefixes every panic message.
pub fn judge_churn_accounting(
    label: &str,
    plan: &FaultPlan,
    stats: &RunStats,
    report: &FaultReport,
) {
    let mut crashed = 0u64;
    let mut rejoined = 0u64;
    let (mut rounds, mut messages, mut bits) = (0u64, 0u64, 0u64);
    for event in &report.events {
        match event {
            FaultEvent::Crashed { .. } => crashed += 1,
            FaultEvent::Rejoined {
                node,
                round,
                sync_rounds,
                sync_messages,
                sync_bits,
            } => {
                rejoined += 1;
                rounds += sync_rounds;
                messages += sync_messages;
                bits += sync_bits;
                let window = plan
                    .downtime(*node)
                    .into_iter()
                    .find(|&(_, e)| e == *round)
                    .unwrap_or_else(|| {
                        panic!("{label}: rejoin of node {node:?} at round {round} is unscheduled")
                    });
                assert_eq!(
                    *sync_rounds,
                    (window.1 - window.0) as u64,
                    "{label}: node {node:?} replayed a window of the wrong width"
                );
            }
            _ => {}
        }
    }
    assert_eq!(
        stats.dead_nodes, crashed,
        "{label}: dead_nodes ≠ Crashed events"
    );
    assert_eq!(
        stats.rejoined_nodes, rejoined,
        "{label}: rejoined_nodes ≠ Rejoined events"
    );
    assert_eq!(
        stats.sync_rounds, rounds,
        "{label}: sync_rounds ≠ event sum"
    );
    assert_eq!(
        stats.sync_messages, messages,
        "{label}: sync_messages ≠ event sum"
    );
    assert_eq!(stats.sync_bits, bits, "{label}: sync_bits ≠ event sum");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_recorded;
    use cliquesim::{
        sync_overhead, BitString, Engine, Inbox, NodeCtx, NodeProgram, Outbox, Status,
    };

    /// Broadcast-until-`horizon` chatter: every live node broadcasts a
    /// one-bit beacon each round and counts what it hears, so churn shows
    /// up in both the outputs and the sync ledger.
    #[derive(Clone)]
    struct Chatter {
        horizon: usize,
        heard: u64,
    }

    impl NodeProgram for Chatter {
        type Output = u64;
        fn step(
            &mut self,
            _ctx: &NodeCtx,
            round: usize,
            inbox: &Inbox<'_>,
            outbox: &mut Outbox<'_>,
        ) -> Status<u64> {
            self.heard += inbox.iter().count() as u64;
            if round < self.horizon {
                let mut m = BitString::new();
                m.push_uint(1, 1);
                outbox.broadcast(&m);
                return Status::Continue;
            }
            Status::Halt(self.heard)
        }
    }

    fn chatter(n: usize, horizon: usize) -> Vec<Chatter> {
        (0..n).map(|_| Chatter { horizon, heard: 0 }).collect()
    }

    #[test]
    fn case_labels_are_replayable() {
        let case = ChurnCase::new(12, 7);
        assert_eq!(case.to_string(), "churn[n=12, seed=7]");
        assert_eq!(case.plan(), ChurnCase::new(12, 7).plan());
        assert_eq!(case.demands(), ChurnCase::new(12, 7).demands());
    }

    #[test]
    fn corpus_cases_actually_churn() {
        // Every corpus case must schedule at least one completed
        // crash/rejoin cycle — otherwise the sweep tests nothing.
        for case in churn_corpus() {
            let plan = case.plan();
            assert!(
                sync_overhead(case.n, &plan, 8).rejoins > 0,
                "{case}: no rejoin fires under {plan}"
            );
        }
    }

    #[test]
    fn churn_run_is_accounted() {
        let case = ChurnCase::new(15, 2);
        let plan = case.plan();
        let engine = Engine::new(15).with_fault_plan(plan.clone());
        let out = run_recorded(&format!("{case} under {plan}"), &engine, chatter(15, 14));
        judge_churn_accounting(&case.to_string(), &plan, &out.stats, &out.faults);
        assert!(out.stats.rejoined_nodes > 0, "{case}: nothing rejoined");
        assert!(
            out.stats.sync_messages > 0,
            "{case}: state sync carried nothing"
        );
        assert!(out.outputs[0].is_some(), "spared node 0 must survive");
    }

    #[test]
    fn wave_windows_readmit_recovered_nodes() {
        // A node whose downtime completes inside wave 1 must be absent
        // from wave 2's crash set but present in the conservative one.
        let case = ChurnCase::new(12, 1);
        let plan = case.plan();
        let whole = case.crash_set();
        let late = case.crash_set_for(ChurnCase::MAX_ROUND + 1..usize::MAX);
        assert!(late.len() < whole.len(), "{case}: no node was re-admitted");
        for v in 0..case.n {
            let node = NodeId::from(v);
            assert_eq!(
                late.is_dead(node),
                !plan.alive_at(node, ChurnCase::MAX_ROUND + 1),
                "{case}: wave membership disagrees with the plan for node {v}"
            );
        }
    }
}

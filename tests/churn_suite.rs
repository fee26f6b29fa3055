//! Workspace-level churn conformance: the acceptance criteria for the
//! crash/rejoin tier, exercised end to end through the facade crate, the
//! testkit's churn families, and the routing layer's wave re-planning.
//!
//! * every corpus [`ChurnCase`] must replay **bit-identically** run after
//!   run, with the sync ledger closed against the fault report and the
//!   plan's downtime windows ([`judge_churn_accounting`]);
//! * under **continuous Poisson churn**, wave-structured balanced routing
//!   (windowed [`CrashSet`]s + the session fault clock) must deliver 100%
//!   of survivor-pair traffic and account every shortfall as a structured
//!   `Undeliverable` record — judged by [`judge_routed_delivery`];
//! * the state-sync bill must match [`sync_overhead`]'s analytic price
//!   exactly on an all-chatter workload, and the rejoiners' backfilled
//!   transcripts must pass the bandwidth auditor;
//! * a **zero-rate** churn schedule must be byte-identical to the plain
//!   plan it decorates (proptest-pinned: crash-only plans take the exact
//!   pre-churn code path).
//!
//! Every panic carries a replayable `churn[n=…, seed=…]` label.

use cc_testkit::{
    assert_transcripts_conform, churn_corpus, differential_churn, judge_churn_accounting,
    judge_routed_delivery, AuditSpec, ChurnCase,
};
use congested_clique::prelude::*;
use congested_clique::routing::RoutePlan;
use congested_clique::sim::{sync_overhead, Inbox, Outbox};
use proptest::prelude::*;

/// Broadcast-until-`horizon` chatter: every live node broadcasts a 1-bit
/// beacon each round and counts what it hears. Maximum-bandwidth workload
/// for the sync ledger, and order-sensitive enough to expose any replay
/// nondeterminism.
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
fn churn_corpus_replays_bit_identically_with_a_closed_ledger() {
    let mut any_rejoined = false;
    for case in churn_corpus() {
        let horizon = case.max_round + 2;
        let run = || differential_churn(&case, &Engine::new(case.n), || chatter(case.n, horizon));
        let first = run();
        assert!(first == run(), "{case}: a replay diverged");
        let (outputs, stats, _, report) = first;
        judge_churn_accounting(&case.to_string(), &case.plan(), &stats, &report);
        assert!(outputs[0].is_some(), "{case}: spared node 0 must finish");
        any_rejoined |= stats.rejoined_nodes > 0;
    }
    assert!(any_rejoined, "corpus never exercised a rejoin");
}

#[test]
fn routing_waves_deliver_all_survivor_traffic_under_continuous_churn() {
    // Two fixed-cadence waves over one absolute churn timeline: wave 1
    // spans the whole churn horizon (nodes crash and rejoin *while the
    // wave's megastream is in flight*), wave 2 starts after it, with every
    // recovered node re-admitted as intermediate and endpoint.
    for &(n, seed) in &[(12usize, 1u64), (15, 2)] {
        let case = ChurnCase::new(n, seed);
        let label = case.to_string();
        let cadence = case.max_round + 1;
        let wave1 = case.crash_set_for(0..cadence);
        let wave2 = case.crash_set_for(cadence..usize::MAX);
        assert!(
            wave2.len() < wave1.len(),
            "{label}: wave 2 re-admitted nobody"
        );
        let mut session = Session::new(Engine::new(n).with_fault_plan(case.plan()));
        let out1 = RoutePlan::balanced()
            .avoiding(&wave1)
            .run_faulted(&mut session, case.demands())
            .unwrap_or_else(|e| panic!("{label}: wave 1 failed: {e}"));
        judge_routed_delivery(&label, &case.demands(), &wave1, &out1);
        // Advance the fault clock to the wave boundary: the churn horizon
        // is behind us, recovered nodes carry again.
        session.set_fault_offset(cadence);
        let out2 = RoutePlan::balanced()
            .avoiding(&wave2)
            .run_faulted(&mut session, case.demands())
            .unwrap_or_else(|e| panic!("{label}: wave 2 failed: {e}"));
        judge_routed_delivery(&label, &case.demands(), &wave2, &out2);
    }
}

#[test]
fn state_sync_price_matches_the_analytic_model_and_passes_the_auditor() {
    // All-chatter is exactly the workload `sync_overhead` prices: every
    // live node fills every slot every round, so each missed slot is a
    // real re-delivery and the analytic bill must match the simulated
    // ledger bit for bit — and the backfilled transcripts must satisfy
    // the bandwidth auditor like any honest run.
    let case = ChurnCase::new(10, 3);
    let plan = case.plan();
    let predicted = sync_overhead(case.n, &plan, 1);
    assert!(predicted.rejoins > 0, "{case}: no rejoin fires");
    let horizon = case.max_round + 1;
    let out = Engine::new(case.n)
        .with_transcripts(true)
        .with_fault_plan(plan.clone())
        .run_faulted(chatter(case.n, horizon))
        .unwrap_or_else(|e| panic!("{case}: engine error: {e}"));
    assert_eq!(out.stats.rejoined_nodes, predicted.rejoins, "{case}");
    assert_eq!(out.stats.sync_rounds, predicted.sync_rounds, "{case}");
    assert_eq!(out.stats.sync_messages, predicted.sync_messages, "{case}");
    assert_eq!(out.stats.sync_bits, predicted.sync_bits, "{case}");
    let transcripts = out.transcripts.expect("transcripts were requested");
    assert_transcripts_conform(
        &case.to_string(),
        &transcripts,
        &out.stats,
        &AuditSpec::model(case.n),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn prop_zero_rate_churn_is_byte_identical_to_the_plain_plan(
        seed in any::<u64>(),
        n in 4usize..10,
        f in 0usize..3,
    ) {
        // A churn schedule sampled at rate zero adds nothing, and a plan
        // without rejoins must take the exact pre-churn code path: same
        // outputs, stats, transcripts, and fault events.
        let plain = FaultPlan::new(seed).with_random_crashes(n, f, 3, &[]);
        let churned = plain.clone().with_random_churn(n, 0, 0, 12, &[]);
        prop_assert_eq!(&plain, &churned, "zero-rate churn changed the plan");
        let a = cc_testkit::differential_faulted("plain", &Engine::new(n), &plain, || {
            chatter(n, 4)
        });
        let b = cc_testkit::differential_faulted("churned", &Engine::new(n), &churned, || {
            chatter(n, 4)
        });
        prop_assert_eq!(&a, &b, "zero-rate churn changed a crash-only run");
    }
}

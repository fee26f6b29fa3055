//! Self-healing routing under continuous Poisson churn: nodes crash *and
//! rejoin* on a seeded timeline while wave-structured balanced routing
//! keeps delivering. Each wave re-plans against a round-windowed
//! `CrashSet` — recovered nodes are re-admitted as intermediates and
//! endpoints — and the session fault clock keeps the absolute churn
//! timeline aligned across waves. Regenerates the numbers in
//! EXPERIMENTS.md §"Routing under churn"; the guarantees are documented in
//! docs/THREAT-MODEL.md. Every row is replayable from its `churn[…]`
//! label.

use cc_testkit::ChurnCase;
use congested_clique::prelude::*;
use congested_clique::routing::{RoutePlan, RoutedOutcome};
use congested_clique::sim::sync_overhead;

const SEEDS: [u64; 3] = [1, 2, 3];

fn main() {
    println!("Wave-structured balanced routing under seeded Poisson churn");
    println!("(80‰ crash / 400‰ rejoin per round over rounds 1-12, node 0 spared;");
    println!("wave 1 spans the churn horizon, wave 2 re-plans after it)\n");
    println!(
        "{:>20} {:>7} {:>8} {:>10} {:>10} {:>10} {:>10} {:>6}",
        "case", "churned", "readmit", "w1 deliv", "w1 undel", "w2 deliv", "w2 undel", "rounds"
    );
    for n in [12usize, 16] {
        for seed in SEEDS {
            let case = ChurnCase::new(n, seed);
            let plan = case.plan();
            let cadence = ChurnCase::MAX_ROUND + 1;
            let wave1 = case.crash_set_for(0..cadence);
            let wave2 = case.crash_set_for(cadence..usize::MAX);
            let demanded = case.demands().iter().map(Vec::len).sum::<usize>();

            let mut session = Session::new(Engine::new(n).with_fault_plan(plan.clone()));
            let out1 = RoutePlan::balanced()
                .avoiding(&wave1)
                .run_faulted(&mut session, case.demands())
                .unwrap_or_else(|e| panic!("{case}: wave 1 failed: {e}"));
            session.set_fault_offset(cadence);
            let out2 = RoutePlan::balanced()
                .avoiding(&wave2)
                .run_faulted(&mut session, case.demands())
                .unwrap_or_else(|e| panic!("{case}: wave 2 failed: {e}"));

            let delivered =
                |out: &RoutedOutcome| out.delivered.iter().flatten().map(Vec::len).sum::<usize>();
            let (d1, d2) = (delivered(&out1), delivered(&out2));
            // Every demand is accounted: delivered to a survivor or
            // reported undeliverable against a dead endpoint.
            assert_eq!(
                d1 + out1.undeliverable.len(),
                demanded,
                "{case}: wave 1 leak"
            );
            assert_eq!(
                d2 + out2.undeliverable.len(),
                demanded,
                "{case}: wave 2 leak"
            );
            assert!(
                wave2.len() <= wave1.len(),
                "{case}: recovery never shrinks the dead set"
            );

            let stats = session.stats();
            println!(
                "{:>20} {:>7} {:>8} {:>6}/{:<3} {:>10} {:>6}/{:<3} {:>10} {:>6}",
                case.to_string(),
                wave1.len(),
                wave1.len() - wave2.len(),
                d1,
                demanded,
                out1.undeliverable.len(),
                d2,
                demanded,
                out2.undeliverable.len(),
                stats.rounds,
            );
            // The analytic ceiling: all-chatter sync at the routing width
            // bounds whatever the megastream actually re-delivered.
            let ceiling = sync_overhead(n, &plan, session.bandwidth());
            assert!(
                stats.sync_bits <= ceiling.sync_bits,
                "{case}: sync bill exceeds the all-chatter ceiling"
            );
        }
    }
    println!(
        "\nchurned = nodes dead at some point of wave 1; readmit = nodes back\n\
         for wave 2; deliv counts survivor-pair payloads (all of them arrive);\n\
         undel are structured dead-endpoint records; rounds spans both waves.\n\
         The engine's transcript-replay state sync is priced in the churn\n\
         conformance suite (tests/churn_suite.rs) against sync_overhead."
    );
}

//! Testkit conformance: Borůvka's forest is re-judged by an independent
//! Kruskal oracle (existence, weights, acyclicity, spanning, minimality).

use cc_mst::boruvka_mst;
use cc_testkit::instances::strategies::arb_weighted_instance;
use cc_testkit::{oracle, weighted_corpus};
use cliquesim::{Engine, Session};
use proptest::prelude::*;

#[test]
fn boruvka_conforms_across_weighted_corpus() {
    for inst in weighted_corpus(&[9, 16], &[1, 6]) {
        let wg = inst.graph();
        let mut forest = boruvka_mst(&mut Session::new(Engine::new(wg.n())), &wg)
            .unwrap_or_else(|e| panic!("{inst}: {e}"));
        forest.sort_unstable();
        oracle::judge_spanning_forest(&inst.label(), &wg, &forest);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_weighted_instances_yield_minimum_forests(inst in arb_weighted_instance(4, 13)) {
        let wg = inst.graph();
        let mut forest = boruvka_mst(&mut Session::new(Engine::new(wg.n())), &wg)
            .unwrap_or_else(|e| panic!("{inst}: {e}"));
        forest.sort_unstable();
        oracle::judge_spanning_forest(&inst.label(), &wg, &forest);
    }
}

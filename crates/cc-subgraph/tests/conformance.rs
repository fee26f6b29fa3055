//! Testkit conformance: subgraph detection witnesses and counts are
//! re-judged by brute-force oracles.
//! Planted families guarantee the positive branches are exercised.

use cc_subgraph::{
    count_triangles_distributed, detect_clique, detect_independent_set, detect_triangle,
};
use cc_testkit::{corpus, oracle, Family, Instance};
use cliquesim::{Engine, Session};

#[test]
fn triangle_detection_conforms() {
    for inst in corpus(&[9, 12], &[1]) {
        let g = inst.graph();
        let got = detect_triangle(&mut Session::new(Engine::new(g.n())), &g)
            .unwrap_or_else(|e| panic!("{inst}: {e}"));
        oracle::judge_clique_witness(&inst.label(), &g, 3, &got);
    }
}

#[test]
fn triangle_counting_conforms() {
    for inst in corpus(&[9, 13], &[2]) {
        let g = inst.graph();
        let got = count_triangles_distributed(&mut Session::new(Engine::new(g.n())), &g)
            .unwrap_or_else(|e| panic!("{inst}: {e}"));
        oracle::judge_triangle_count(&inst.label(), &g, got);
    }
}

#[test]
fn clique_detection_finds_planted_cliques() {
    for seed in [1u64, 2, 3] {
        let inst = Instance::new(Family::PlantedClique, 12, seed);
        let g = inst.graph();
        let k = 4; // planted size for n = 12
        let got = detect_clique(&mut Session::new(Engine::new(g.n())), &g, k)
            .unwrap_or_else(|e| panic!("{inst}: {e}"));
        oracle::judge_clique_witness(&inst.label(), &g, k, &got);
        assert!(got.is_some(), "{}: planted 4-clique must be found", inst);
    }
}

#[test]
fn independent_set_detection_conforms() {
    for family in [
        Family::PlantedIndependentSet,
        Family::Complete,
        Family::ErDense,
    ] {
        for seed in [1u64, 5] {
            let inst = Instance::new(family, 10, seed);
            let g = inst.graph();
            let got = detect_independent_set(&mut Session::new(Engine::new(g.n())), &g, 3)
                .unwrap_or_else(|e| panic!("{inst}: {e}"));
            oracle::judge_independent_set_witness(&inst.label(), &g, 3, &got);
        }
    }
}

//! Testkit conformance: subgraph detection witnesses and counts are
//! re-judged by brute-force oracles.
//! Planted families guarantee the positive branches are exercised.

use cc_subgraph::{
    count_triangles_distributed, detect_clique, detect_independent_set, detect_triangle,
};
use cc_testkit::{corpus, differential_session, oracle, Family, Instance};

#[test]
fn triangle_detection_conforms() {
    for inst in corpus(&[9, 12], &[1]) {
        let g = inst.graph();
        let got = differential_session(&inst.label(), g.n(), |s| detect_triangle(s, &g).unwrap());
        oracle::judge_clique_witness(&inst.label(), &g, 3, &got);
    }
}

#[test]
fn triangle_counting_conforms() {
    for inst in corpus(&[9, 13], &[2]) {
        let g = inst.graph();
        let got = differential_session(&inst.label(), g.n(), |s| {
            count_triangles_distributed(s, &g).unwrap()
        });
        oracle::judge_triangle_count(&inst.label(), &g, got);
    }
}

#[test]
fn clique_detection_finds_planted_cliques() {
    for seed in [1u64, 2, 3] {
        let inst = Instance::new(Family::PlantedClique, 12, seed);
        let g = inst.graph();
        let k = 4; // planted size for n = 12
        let got = differential_session(&inst.label(), g.n(), |s| detect_clique(s, &g, k).unwrap());
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
            let got = differential_session(&inst.label(), g.n(), |s| {
                detect_independent_set(s, &g, 3).unwrap()
            });
            oracle::judge_independent_set_witness(&inst.label(), &g, 3, &got);
        }
    }
}

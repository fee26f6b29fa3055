//! Testkit conformance: every distributed product is re-judged by an
//! independent oracle. Failure messages embed the instance label (family,
//! n, seed).

use cc_matmul::{mm_naive_broadcast, mm_three_d, BoolSemiring, TropicalSemiring, TROPICAL_INF};
use cc_testkit::instances::strategies::arb_instance;
use cc_testkit::{corpus, differential_session, oracle};
use proptest::prelude::*;

fn adjacency(g: &cc_graph::Graph) -> Vec<Vec<bool>> {
    let n = g.n();
    (0..n)
        .map(|i| (0..n).map(|j| g.has_edge(i, j)).collect())
        .collect()
}

fn tropical_rows(g: &cc_graph::Graph) -> Vec<Vec<u64>> {
    let n = g.n();
    (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    if i == j {
                        0
                    } else if g.has_edge(i, j) {
                        1
                    } else {
                        TROPICAL_INF
                    }
                })
                .collect()
        })
        .collect()
}

#[test]
fn boolean_squaring_conforms_across_corpus() {
    for inst in corpus(&[9, 16], &[1]) {
        let g = inst.graph();
        let a = adjacency(&g);
        let got = differential_session(&inst.label(), g.n(), |s| {
            mm_three_d(s, &BoolSemiring, &a, &a).unwrap()
        });
        oracle::judge_matmul(
            &inst.label(),
            &a,
            &a,
            &got,
            false,
            |x, y| *x || *y,
            |x, y| *x && *y,
        );
    }
}

#[test]
fn tropical_naive_broadcast_conforms() {
    for inst in corpus(&[9, 12], &[2]) {
        let g = inst.graph();
        let sr = TropicalSemiring::for_max_value(2);
        let d = tropical_rows(&g);
        let got = differential_session(&inst.label(), g.n(), |s| {
            mm_naive_broadcast(s, &sr, &d, &d).unwrap()
        });
        oracle::judge_matmul(
            &inst.label(),
            &d,
            &d,
            &got,
            TROPICAL_INF,
            |x, y| *x.min(y),
            |x, y| x.saturating_add(*y).min(TROPICAL_INF),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_instances_square_correctly(inst in arb_instance(5, 14)) {
        let g = inst.graph();
        let a = adjacency(&g);
        let got = differential_session(&inst.label(), g.n(), |s| {
            mm_three_d(s, &BoolSemiring, &a, &a).unwrap()
        });
        oracle::judge_matmul(
            &inst.label(),
            &a,
            &a,
            &got,
            false,
            |x, y| *x || *y,
            |x, y| *x && *y,
        );
    }
}

//! Testkit conformance for the parameterized algorithms: Theorem 11's
//! k-vertex-cover (a broadcast-only protocol with a k+2 round bound) and
//! Theorem 9's k-dominating-set, judged against brute-force oracles.

use cc_param::{dominating_set, vertex_cover};
use cc_testkit::{corpus, differential_broadcast_only, oracle, Family, Instance};
use cliquesim::{Engine, Session};

#[test]
fn vertex_cover_conforms_and_respects_the_theorem_bounds() {
    let k = 4;
    for inst in corpus(&[9, 12], &[1]) {
        let g = inst.graph();
        // The kernel protocol only ever broadcasts, so it must behave
        // identically under the broadcast-only restriction.
        let got =
            differential_broadcast_only(&inst.label(), g.n(), |s| vertex_cover(s, &g, k).unwrap());
        oracle::judge_vertex_cover(&inst.label(), &g, k, &got);

        // Theorem 11: at most k + 2 rounds, within the model bandwidth.
        let mut s = Session::new(Engine::new(g.n()));
        vertex_cover(&mut s, &g, k).unwrap();
        oracle::assert_round_bound(&inst.label(), &s.stats(), k + 2);
        oracle::assert_bandwidth(&inst.label(), &s.stats(), s.bandwidth());
    }
}

#[test]
fn dominating_set_conforms() {
    let k = 2;
    for family in [
        Family::Star,       // dominated by its centre: always a yes-instance
        Family::ErDense,    // dense: small dominating sets exist
        Family::ErSparse,   // sparse: usually a no-instance for k = 2
        Family::TwoCliques, // needs one vertex per component
        Family::Empty,      // no-instance for n > k
    ] {
        for seed in [1u64, 3] {
            let inst = Instance::new(family, 9, seed);
            let g = inst.graph();
            let got = dominating_set(&mut Session::new(Engine::new(g.n())), &g, k)
                .unwrap_or_else(|e| panic!("{inst}: {e}"));
            oracle::judge_dominating_set(&inst.label(), &g, k, &got);
        }
    }
}

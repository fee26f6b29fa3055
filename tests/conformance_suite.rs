//! Workspace-level conformance: one instance corpus driven through
//! several algorithm crates in sequence, every output re-judged by the
//! testkit oracles, every session checked against the model bandwidth.
//! Per-crate depth lives in each crate's own `tests/conformance.rs`;
//! this suite pins down the cross-crate contracts.

use cc_testkit::{corpus, oracle, weighted_corpus, Family, Instance};
use congested_clique::prelude::*;
use congested_clique::{graph, mst, param, paths, subgraph};

#[test]
fn one_session_composes_judged_phases_across_crates() {
    for inst in corpus(&[12], &[9, 17]) {
        let g = inst.graph();
        let n = g.n();
        let label = inst.label();
        let mut s = Session::new(Engine::new(n));

        let dists = paths::bfs(&mut s, &g, 0).unwrap();
        oracle::judge_bfs(&label, &g, 0, &dists);

        let triangles = subgraph::count_triangles_distributed(&mut s, &g).unwrap();
        oracle::judge_triangle_count(&label, &g, triangles);

        let cover = param::vertex_cover(&mut s, &g, 3).unwrap();
        oracle::judge_vertex_cover(&label, &g, 3, &cover);

        // Every phase above ran inside the single model-bandwidth session.
        oracle::assert_bandwidth(&label, &s.stats(), s.bandwidth());
        assert!(s.phases() >= 3, "{label}: phases not accumulated");
    }
}

#[test]
fn weighted_pipeline_is_internally_consistent() {
    // APSP, SSSP and MST must tell one coherent story about the same
    // weighted instance — and each is judged independently.
    for inst in weighted_corpus(&[10], &[4]) {
        let wg = inst.graph();
        let n = wg.n();
        let label = inst.label();

        let apsp = paths::apsp_exact(&mut Session::new(Engine::new(n)), &wg)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        oracle::judge_apsp(&label, &wg, &apsp);

        let sssp = paths::bellman_ford(&mut Session::new(Engine::new(n)), &wg, 0)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        oracle::judge_sssp(&label, &wg, 0, &sssp);
        for (v, &d) in sssp.iter().enumerate() {
            assert_eq!(
                apsp.get(0, v),
                d,
                "{label}: APSP row 0 disagrees with SSSP at {v}"
            );
        }

        let mut forest = mst::boruvka_mst(&mut Session::new(Engine::new(n)), &wg)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        forest.sort_unstable();
        oracle::judge_spanning_forest(&label, &wg, &forest);
    }
}

#[test]
fn unweighted_apsp_agrees_with_bfs_from_every_source() {
    let inst = Instance::new(Family::ErMedium, 13, 21);
    let g = inst.graph();
    let label = inst.label();
    let apsp = paths::apsp_unweighted(&mut Session::new(Engine::new(g.n())), &g)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    for src in 0..g.n() {
        let bfs = graph::reference::bfs_distances(&g, src);
        for (v, &d) in bfs.iter().enumerate() {
            assert_eq!(
                apsp.get(src, v),
                d,
                "{label}: APSP disagrees with BFS at ({src},{v})"
            );
        }
    }
}

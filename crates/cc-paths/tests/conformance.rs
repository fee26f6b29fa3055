//! Testkit conformance: shortest-path outputs are re-judged against
//! Floyd–Warshall / Dijkstra / reference BFS, with every failure naming
//! the reproducing seed.

use cc_graph::WeightedGraph;
use cc_paths::{apsp_exact, apsp_unweighted, bellman_ford, bfs, transitive_closure};
use cc_testkit::{
    corpus, differential_broadcast_only, differential_session, oracle, weighted_corpus,
};

#[test]
fn apsp_exact_conforms_across_weighted_corpus() {
    for inst in weighted_corpus(&[9, 16], &[1]) {
        let wg = inst.graph();
        let got = differential_session(&inst.label(), wg.n(), |s| apsp_exact(s, &wg).unwrap());
        oracle::judge_apsp(&inst.label(), &wg, &got);
    }
}

#[test]
fn apsp_unweighted_agrees_with_unit_weights() {
    for inst in corpus(&[9, 14], &[3]) {
        let g = inst.graph();
        let got = differential_session(&inst.label(), g.n(), |s| apsp_unweighted(s, &g).unwrap());
        oracle::judge_apsp(&inst.label(), &WeightedGraph::from_graph(&g), &got);
    }
}

#[test]
fn bfs_conforms_and_is_broadcast_only() {
    // BFS flooding only broadcasts, so it must run identically in the
    // broadcast-restricted model (paper §2) and the full clique.
    for inst in corpus(&[9, 15], &[1, 4]) {
        let g = inst.graph();
        let got = differential_broadcast_only(&inst.label(), g.n(), |s| bfs(s, &g, 0).unwrap());
        oracle::judge_bfs(&inst.label(), &g, 0, &got);
    }
}

#[test]
fn bellman_ford_matches_dijkstra() {
    for inst in weighted_corpus(&[9, 12], &[2]) {
        let wg = inst.graph();
        let got = differential_session(&inst.label(), wg.n(), |s| bellman_ford(s, &wg, 0).unwrap());
        oracle::judge_sssp(&inst.label(), &wg, 0, &got);
    }
}

#[test]
fn transitive_closure_matches_component_structure() {
    for inst in corpus(&[9, 12], &[5]) {
        let g = inst.graph();
        let got =
            differential_session(&inst.label(), g.n(), |s| transitive_closure(s, &g).unwrap());
        oracle::judge_reachability(&inst.label(), &g, &got);
    }
}

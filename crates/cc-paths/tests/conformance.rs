//! Testkit conformance: shortest-path outputs are re-judged against
//! Floyd–Warshall / Dijkstra / reference BFS, with every failure naming
//! the reproducing seed.

use cc_graph::WeightedGraph;
use cc_paths::{apsp_exact, apsp_unweighted, bellman_ford, bfs, transitive_closure};
use cc_testkit::{corpus, differential_broadcast_only, oracle, weighted_corpus};
use cliquesim::{Engine, Session};

#[test]
fn apsp_exact_conforms_across_weighted_corpus() {
    for inst in weighted_corpus(&[9, 16], &[1]) {
        let wg = inst.graph();
        let got = apsp_exact(&mut Session::new(Engine::new(wg.n())), &wg)
            .unwrap_or_else(|e| panic!("{inst}: {e}"));
        oracle::judge_apsp(&inst.label(), &wg, &got);
    }
}

#[test]
fn apsp_unweighted_agrees_with_unit_weights() {
    for inst in corpus(&[9, 14], &[3]) {
        let g = inst.graph();
        let got = apsp_unweighted(&mut Session::new(Engine::new(g.n())), &g)
            .unwrap_or_else(|e| panic!("{inst}: {e}"));
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
        let got = bellman_ford(&mut Session::new(Engine::new(wg.n())), &wg, 0)
            .unwrap_or_else(|e| panic!("{inst}: {e}"));
        oracle::judge_sssp(&inst.label(), &wg, 0, &got);
    }
}

#[test]
fn transitive_closure_matches_component_structure() {
    for inst in corpus(&[9, 12], &[5]) {
        let g = inst.graph();
        let got = transitive_closure(&mut Session::new(Engine::new(g.n())), &g)
            .unwrap_or_else(|e| panic!("{inst}: {e}"));
        oracle::judge_reachability(&inst.label(), &g, &got);
    }
}

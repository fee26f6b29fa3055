//! Centralized reference oracles.
//!
//! Each `judge_*` function re-derives the correct answer from scratch —
//! independently of the algorithm crates — and panics with the instance
//! label (which embeds the reproducing seed) on any mismatch. Protocol
//! outputs are judged, never trusted: even a `None`/"no witness" answer
//! is checked against brute force where feasible.

use cc_graph::{reference, DistMatrix, Graph, WeightedGraph};
use cliquesim::RunStats;
use std::fmt::Debug;

/// Judge a matrix product `got = a · b` over an arbitrary semiring given
/// by `zero`/`add`/`mul` closures (kept independent of `cc-matmul`'s
/// `Semiring` trait on purpose — the oracle must not share code with the
/// system under test).
pub fn judge_matmul<E: Clone + PartialEq + Debug>(
    label: &str,
    a: &[Vec<E>],
    b: &[Vec<E>],
    got: &[Vec<E>],
    zero: E,
    add: impl Fn(&E, &E) -> E,
    mul: impl Fn(&E, &E) -> E,
) {
    let n = a.len();
    assert_eq!(got.len(), n, "{label}: product has wrong row count");
    for i in 0..n {
        assert_eq!(got[i].len(), n, "{label}: product row {i} has wrong length");
        for j in 0..n {
            let mut acc = zero.clone();
            for (k, aik) in a[i].iter().enumerate() {
                acc = add(&acc, &mul(aik, &b[k][j]));
            }
            assert!(
                got[i][j] == acc,
                "{label}: matmul mismatch at ({i},{j}): got {:?}, oracle {:?}",
                got[i][j],
                acc
            );
        }
    }
}

/// Judge an all-pairs shortest-path matrix against Floyd–Warshall.
pub fn judge_apsp(label: &str, g: &WeightedGraph, got: &DistMatrix) {
    let want = reference::floyd_warshall(g);
    let n = g.n();
    for u in 0..n {
        for v in 0..n {
            assert!(
                got.get(u, v) == want.get(u, v),
                "{label}: apsp mismatch at ({u},{v}): got {}, oracle {}",
                got.get(u, v),
                want.get(u, v)
            );
        }
    }
}

/// Judge single-source BFS distances.
pub fn judge_bfs(label: &str, g: &Graph, src: usize, got: &[u64]) {
    let want = reference::bfs_distances(g, src);
    assert!(
        got == want.as_slice(),
        "{label}: bfs from {src} mismatch: got {got:?}, oracle {want:?}"
    );
}

/// Judge single-source shortest paths against Dijkstra.
pub fn judge_sssp(label: &str, g: &WeightedGraph, src: usize, got: &[u64]) {
    let want = reference::dijkstra(g, src);
    assert!(
        got == want.as_slice(),
        "{label}: sssp from {src} mismatch: got {got:?}, oracle {want:?}"
    );
}

/// Judge a reachability (transitive-closure) matrix. In an undirected
/// graph, reachability is exactly component membership.
pub fn judge_reachability(label: &str, g: &Graph, got: &[Vec<bool>]) {
    let comp = reference::components(g);
    let n = g.n();
    assert_eq!(got.len(), n, "{label}: closure has wrong row count");
    for u in 0..n {
        for v in 0..n {
            let want = comp[u] == comp[v];
            assert!(
                got[u][v] == want,
                "{label}: reachability mismatch at ({u},{v}): got {}, oracle {}",
                got[u][v],
                want
            );
        }
    }
}

/// Minimum-spanning-forest weight by Kruskal (independent of `cc-mst`'s
/// Borůvka implementation).
pub fn kruskal_weight(g: &WeightedGraph) -> u64 {
    let n = g.n();
    let mut edges: Vec<(u64, usize, usize)> = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if g.has_edge(u, v) {
                edges.push((g.weight(u, v), u, v));
            }
        }
    }
    edges.sort_unstable();
    let mut dsu: Vec<usize> = (0..n).collect();
    fn find(dsu: &mut [usize], mut x: usize) -> usize {
        while dsu[x] != x {
            dsu[x] = dsu[dsu[x]];
            x = dsu[x];
        }
        x
    }
    let mut total = 0;
    for (w, u, v) in edges {
        let (ru, rv) = (find(&mut dsu, u), find(&mut dsu, v));
        if ru != rv {
            dsu[ru] = rv;
            total += w;
        }
    }
    total
}

/// Judge a claimed minimum spanning forest: every edge must exist with
/// its declared weight, the edge set must be acyclic, it must span each
/// connected component, and its total weight must match Kruskal's.
pub fn judge_spanning_forest(label: &str, g: &WeightedGraph, forest: &[(usize, usize, u64)]) {
    let n = g.n();
    let mut dsu: Vec<usize> = (0..n).collect();
    fn find(dsu: &mut [usize], mut x: usize) -> usize {
        while dsu[x] != x {
            dsu[x] = dsu[dsu[x]];
            x = dsu[x];
        }
        x
    }
    let mut total = 0u64;
    for &(u, v, w) in forest {
        assert!(
            g.has_edge(u, v),
            "{label}: forest edge ({u},{v}) not in the graph"
        );
        assert!(
            g.weight(u, v) == w,
            "{label}: forest edge ({u},{v}) claims weight {w}, graph says {}",
            g.weight(u, v)
        );
        let (ru, rv) = (find(&mut dsu, u), find(&mut dsu, v));
        assert!(ru != rv, "{label}: forest edge ({u},{v}) closes a cycle");
        dsu[ru] = rv;
        total += w;
    }
    // Spanning: u ~ v in the forest iff u ~ v in the graph.
    let comp = reference::components(&g.skeleton());
    for u in 0..n {
        for v in (u + 1)..n {
            let same_graph = comp[u] == comp[v];
            let same_forest = find(&mut dsu, u) == find(&mut dsu, v);
            assert!(
                same_graph == same_forest,
                "{label}: forest does not span: vertices {u},{v} \
                 connected in graph: {same_graph}, in forest: {same_forest}"
            );
        }
    }
    let want = kruskal_weight(g);
    assert!(
        total == want,
        "{label}: forest weight {total} ≠ minimum {want}"
    );
}

/// Judge a triangle count.
pub fn judge_triangle_count(label: &str, g: &Graph, got: u64) {
    let want = reference::count_triangles(g);
    assert!(
        got == want,
        "{label}: triangle count mismatch: got {got}, oracle {want}"
    );
}

/// Judge a k-clique detection answer. `Some(w)` must be a genuine
/// k-clique; `None` is checked against brute force.
pub fn judge_clique_witness(label: &str, g: &Graph, k: usize, got: &Option<Vec<usize>>) {
    match got {
        Some(w) => {
            assert!(
                w.len() == k && reference::is_clique(g, w),
                "{label}: claimed {k}-clique {w:?} is not one"
            );
        }
        None => assert!(
            reference::find_clique(g, k).is_none(),
            "{label}: protocol missed an existing {k}-clique"
        ),
    }
}

/// Judge a k-independent-set detection answer.
pub fn judge_independent_set_witness(label: &str, g: &Graph, k: usize, got: &Option<Vec<usize>>) {
    match got {
        Some(w) => {
            assert!(
                w.len() == k && reference::is_independent_set(g, w),
                "{label}: claimed independent set {w:?} of size {k} is not one"
            );
        }
        None => assert!(
            reference::find_independent_set(g, k).is_none(),
            "{label}: protocol missed an independent set of size {k}"
        ),
    }
}

/// Judge a parameterized vertex-cover answer (Theorem 11 kernel): a
/// `Some` cover must be valid and within budget `k`; a `None` must mean
/// the true minimum exceeds `k`.
pub fn judge_vertex_cover(label: &str, g: &Graph, k: usize, got: &Option<Vec<usize>>) {
    match got {
        Some(cover) => {
            assert!(
                cover.len() <= k,
                "{label}: cover {cover:?} exceeds budget k={k}"
            );
            assert!(
                reference::is_vertex_cover(g, cover),
                "{label}: claimed cover {cover:?} leaves an edge uncovered"
            );
        }
        None => {
            let min = reference::min_vertex_cover_size(g);
            assert!(
                min > k,
                "{label}: protocol said no cover ≤ {k}, but minimum is {min}"
            );
        }
    }
}

/// Judge a parameterized dominating-set answer (Theorem 9).
pub fn judge_dominating_set(label: &str, g: &Graph, k: usize, got: &Option<Vec<usize>>) {
    match got {
        Some(ds) => {
            assert!(ds.len() <= k, "{label}: dominating set exceeds budget {k}");
            assert!(
                reference::is_dominating_set(g, ds),
                "{label}: claimed dominating set {ds:?} does not dominate"
            );
        }
        None => assert!(
            reference::find_dominating_set(g, k).is_none(),
            "{label}: protocol missed a dominating set of size ≤ {k}"
        ),
    }
}

/// Assert a theorem-declared round bound on accumulated stats.
pub fn assert_round_bound(label: &str, stats: &RunStats, bound: usize) {
    assert!(
        stats.rounds <= bound,
        "{label}: used {} rounds, theorem bound is {bound}",
        stats.rounds
    );
}

/// Assert the recorded per-message maximum respects a bandwidth budget.
pub fn assert_bandwidth(label: &str, stats: &RunStats, budget_bits: usize) {
    assert!(
        stats.max_message_bits <= budget_bits,
        "{label}: a {}-bit message exceeds the {budget_bits}-bit budget",
        stats.max_message_bits
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::{Family, Instance, WeightedFamily, WeightedInstance};

    #[test]
    fn kruskal_matches_known_values() {
        // Weighted cycle 1..=n: MST drops the heaviest edge (weight n).
        let wg = WeightedInstance::new(WeightedFamily::WeightedCycle, 6, 0).graph();
        let all: u64 = (1..=6).sum();
        assert_eq!(kruskal_weight(&wg), all - 6);
    }

    #[test]
    #[should_panic(expected = "closes a cycle")]
    fn forest_judge_rejects_cycles() {
        let wg = WeightedInstance::new(WeightedFamily::WeightedCycle, 4, 0).graph();
        let forest: Vec<(usize, usize, u64)> = vec![(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)];
        judge_spanning_forest("cycle-test", &wg, &forest);
    }

    #[test]
    #[should_panic(expected = "does not span")]
    fn forest_judge_rejects_non_spanning() {
        let wg = WeightedInstance::new(WeightedFamily::WeightedCycle, 4, 0).graph();
        judge_spanning_forest("span-test", &wg, &[(0, 1, 1)]);
    }

    #[test]
    #[should_panic(expected = "seed=7")]
    fn failure_messages_carry_the_seed() {
        let inst = Instance::new(Family::Complete, 5, 7);
        // A complete graph on 5 vertices has 10 triangles, not 0.
        judge_triangle_count(&inst.label(), &inst.graph(), 0);
    }

    #[test]
    fn witness_judges_accept_brute_force_answers() {
        let inst = Instance::new(Family::PlantedClique, 12, 3);
        let g = inst.graph();
        judge_clique_witness(&inst.label(), &g, 3, &reference::find_clique(&g, 3));
        judge_independent_set_witness(
            &inst.label(),
            &g,
            2,
            &reference::find_independent_set(&g, 2),
        );
        judge_vertex_cover(
            &inst.label(),
            &g,
            g.n(),
            &reference::find_vertex_cover(&g, g.n()),
        );
        judge_dominating_set(&inst.label(), &g, 4, &reference::find_dominating_set(&g, 4));
    }

    #[test]
    fn matmul_judge_accepts_a_correct_boolean_product() {
        let a = vec![vec![true, false], vec![false, true]];
        let b = vec![vec![false, true], vec![true, false]];
        // Identity-ish permutation product computed by hand.
        let c = vec![vec![false, true], vec![true, false]];
        judge_matmul("hand", &a, &b, &c, false, |x, y| *x || *y, |x, y| *x && *y);
    }
}

//! The k-colouring → maximum-independent-set reduction (§7, after \[46\]).
//!
//! "Replace each vertex v with k copies v_1, …, v_k connected into a
//! clique, and connect v_i and u_i if the edge {v,u} is present in the
//! original graph. The new graph has an independent set of size n if and
//! only if the original graph is k-colourable." The blow-up is the
//! constant factor k, so δ(k-COL) ≤ δ(MaxIS) in the fine-grained map.

use cc_graph::{exact, reference, Graph};
use cc_routing::{all_to_all_broadcast, RouteError};
use cliquesim::Session;

/// Build the blow-up graph: vertex `(v, i)` has id `v·k + i`.
pub fn coloring_blowup(g: &Graph, k: usize) -> Graph {
    assert!(k >= 1);
    let n = g.n();
    let mut b = Graph::empty(n * k);
    for v in 0..n {
        // Copies of v form a clique.
        for i in 0..k {
            for j in (i + 1)..k {
                b.add_edge(v * k + i, v * k + j);
            }
        }
    }
    for (v, u) in g.edges() {
        for i in 0..k {
            b.add_edge(v * k + i, u * k + i);
        }
    }
    b
}

/// Recover a proper k-colouring from a size-`n` independent set of the
/// blow-up: vertex `v` gets the colour `i` of its selected copy.
/// Returns `None` if the set does not select exactly one copy per vertex.
pub fn extract_coloring(independent_set: &[usize], n: usize, k: usize) -> Option<Vec<usize>> {
    let mut colors = vec![usize::MAX; n];
    for &id in independent_set {
        let (v, i) = (id / k, id % k);
        if v >= n || colors[v] != usize::MAX {
            return None;
        }
        colors[v] = i;
    }
    colors.iter().all(|&c| c != usize::MAX).then_some(colors)
}

/// The naive `O(n/log n · k)`-round distributed MaxIS: gather the whole
/// graph at every node (each row broadcast once), then solve it locally.
/// Every node runs the same deterministic search
/// ([`cc_graph::exact::maximum_independent_set`]) on the same gathered
/// graph, so all nodes agree on one maximum independent set: per component,
/// the complement of the first minimum vertex cover the search tree meets
/// (not, in general, the lexicographically least optimum). The paper's
/// Figure 1 places MaxIS at exponent 1 — this is that upper bound.
pub fn max_independent_set_naive(
    session: &mut Session,
    g: &Graph,
) -> Result<Vec<usize>, RouteError> {
    let n = session.n();
    assert_eq!(g.n(), n);
    let payloads = (0..n)
        .map(|v| g.input_row(cliquesim::NodeId::from(v)))
        .collect();
    let views = all_to_all_broadcast(session, payloads)?;
    // All views are identical; reconstruct once (locally each node does it).
    let mut whole = Graph::empty(n);
    for (v, row) in views[0].iter().enumerate() {
        for u in 0..n {
            if u == v {
                continue;
            }
            let slot = if u < v { u } else { u - 1 };
            if row.get(slot) && !whole.has_edge(u, v) {
                whole.add_edge(u, v);
            }
        }
    }
    Ok(exact::maximum_independent_set(&whole))
}

/// Decide k-colourability through the blow-up + MaxIS pipeline, returning
/// a witness colouring. Runs MaxIS on a `k·n`-node clique (the constant
/// blow-up of the reduction); the caller accounts the `O(k²)` simulation
/// factor when mapping the cost back to `n` nodes.
pub fn k_coloring_via_max_is(
    g: &Graph,
    k: usize,
) -> Result<(Option<Vec<usize>>, cliquesim::RunStats), RouteError> {
    let n = g.n();
    let blowup = coloring_blowup(g, k);
    let mut session = Session::new(cliquesim::Engine::new(blowup.n()));
    let is = max_independent_set_naive(&mut session, &blowup)?;
    let coloring = (is.len() >= n)
        .then(|| extract_coloring(&is, n, k))
        .flatten()
        .filter(|c| reference::is_proper_coloring(g, c));
    Ok((coloring, session.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::gen;
    use cliquesim::Engine;

    #[test]
    fn blowup_structure() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let b = coloring_blowup(&g, 2);
        assert_eq!(b.n(), 6);
        // Copies of the same vertex: clique.
        assert!(b.has_edge(0, 1));
        // Edge {0,1} lifts colour-wise.
        assert!(b.has_edge(0, 2));
        assert!(b.has_edge(1, 3));
        assert!(!b.has_edge(0, 3));
        // Non-edge {0,2} of g does not lift.
        assert!(!b.has_edge(0, 4));
    }

    #[test]
    fn blowup_is_iff_colorable_exhaustive() {
        for g in Graph::enumerate_all(4) {
            for k in 1..=3usize {
                let b = coloring_blowup(&g, k);
                let alpha = reference::max_independent_set_size(&b);
                let colorable = reference::find_coloring(&g, k).is_some();
                assert_eq!(alpha == 4, colorable, "graph {g:?} k={k} alpha={alpha}");
                assert!(alpha <= 4, "independent sets cannot exceed n");
            }
        }
    }

    #[test]
    fn extraction_produces_proper_colorings() {
        let (g, _) = gen::k_colorable(7, 3, 0.6, 5);
        let b = coloring_blowup(&g, 3);
        let alpha = reference::max_independent_set_size(&b);
        assert_eq!(alpha, 7);
        let is = reference::find_independent_set(&b, 7).unwrap();
        let colors = extract_coloring(&is, 7, 3).expect("one copy per vertex");
        assert!(reference::is_proper_coloring(&g, &colors));
    }

    #[test]
    fn distributed_max_is_matches_reference() {
        for seed in 0..3 {
            let n = 10;
            let g = gen::gnp(n, 0.4, seed);
            let mut s = Session::new(Engine::new(n));
            let is = max_independent_set_naive(&mut s, &g).unwrap();
            assert!(reference::is_independent_set(&g, &is));
            assert_eq!(
                is.len(),
                reference::max_independent_set_size(&g),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn distributed_max_is_keeps_the_atlas_outputs() {
        // The atlas instances, pinned to the sets the reference search
        // returns (n = 36 takes seconds through the reference, so it is
        // pinned as a constant rather than recomputed).
        let pinned: [(usize, &[usize]); 4] = [
            (12, &[1, 3, 4, 5, 6, 8, 9, 10, 11]),
            (18, &[2, 3, 4, 9, 10, 11, 15, 16, 17]),
            (24, &[2, 4, 9, 10, 11, 15, 18, 20, 21, 23]),
            (36, &[7, 8, 9, 14, 16, 18, 19, 20, 21, 28, 29, 30, 34]),
        ];
        for (n, expect) in pinned {
            let g = gen::gnp(n, 0.18, n as u64);
            let mut s = Session::new(Engine::new(n));
            let is = max_independent_set_naive(&mut s, &g).unwrap();
            assert_eq!(is, expect, "n={n}");
        }
    }

    #[test]
    fn pipeline_decides_colorability() {
        let (g, _) = gen::k_colorable(6, 2, 0.7, 9);
        let (colors, stats) = k_coloring_via_max_is(&g, 2).unwrap();
        let c = colors.expect("2-colourable by construction");
        assert!(reference::is_proper_coloring(&g, &c));
        assert!(stats.rounds > 0);
        // An odd cycle is not 2-colourable.
        let (colors, _) = k_coloring_via_max_is(&gen::cycle(5), 2).unwrap();
        assert!(colors.is_none());
    }
}

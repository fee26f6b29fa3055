//! Exact local solvers for the production code paths.
//!
//! Local computation is free in the congested clique, so some algorithms
//! end in an exact exponential-time solve on data every node already holds:
//! the naive MaxIS gather and the Buss-kernel vertex cover (Theorem 11).
//! Those solves run here. Each function returns exactly what its
//! [`crate::reference`] counterpart returns, output for output, and the
//! proptests below pin the two together; the reference stays the oracle.
//!
//! The vertex-cover search walks the reference's `O(2^k)` search tree in
//! the reference's order. It is faster in two ways that cannot change which
//! cover it meets first: rows are `u64`-word bitsets instead of per-bit
//! scans, and a subtree is cut as soon as a greedy maximal matching of the
//! remaining graph has more edges than the budget, since every cover needs
//! one endpoint of each matched edge.

use crate::graph::Graph;
use crate::reference;

/// The same result as [`reference::find_vertex_cover`]: the first cover of
/// size at most `k` that the reference's search tree meets (branch on the
/// uncovered edge `(u, v)` with the lowest `u`, then the lowest `v`; try `u`
/// before `v`), in pick order, or `None` if no cover of size ≤ `k` exists.
pub fn vertex_cover(g: &Graph, k: usize) -> Option<Vec<usize>> {
    CoverSearch::new(g).first_cover(k)
}

/// The same result as [`reference::find_maximum_independent_set`]: per
/// connected component, the complement of the first minimum vertex cover
/// the search meets; sorted.
pub fn maximum_independent_set(g: &Graph) -> Vec<usize> {
    let n = g.n();
    // Component labels are their smallest member, so each list is ascending.
    let comp = reference::components(g);
    let mut verts_of = vec![Vec::new(); n];
    for v in 0..n {
        verts_of[comp[v]].push(v);
    }
    let mut is = Vec::new();
    for verts in verts_of.iter().filter(|vs| !vs.is_empty()) {
        let sub = g.induced(verts);
        let search = CoverSearch::new(&sub);
        let cover = (0..=sub.n())
            .find_map(|k| search.first_cover(k))
            .expect("V covers everything");
        let mut covered = vec![false; sub.n()];
        for c in cover {
            covered[c] = true;
        }
        is.extend(
            verts
                .iter()
                .zip(&covered)
                .filter(|(_, &c)| !c)
                .map(|(&v, _)| v),
        );
    }
    is.sort_unstable();
    debug_assert!(reference::is_independent_set(g, &is));
    is
}

/// A graph's adjacency as `u64`-word bitsets, searched for vertex covers.
struct CoverSearch {
    n: usize,
    /// Words per vertex set: `⌈n/64⌉`.
    words: usize,
    /// Row `u` is `adj[u·words .. (u+1)·words]`; bit `v` set iff `{u, v} ∈ E`.
    adj: Vec<u64>,
}

/// What one greedy matching pass over the live graph found.
enum Probe {
    /// No live edge: the picks so far cover the graph.
    Covered,
    /// More matched edges than budget: no cover fits in this subtree.
    Pruned,
    /// The edge the reference branches on.
    Branch(usize, usize),
}

impl CoverSearch {
    fn new(g: &Graph) -> Self {
        let n = g.n();
        let words = n.div_ceil(64);
        let mut adj = Vec::with_capacity(n * words);
        for u in 0..n {
            // Bit `v` of `Graph::row(u)` is set iff `{u, v} ∈ E`, so its
            // words, read in order, are this row.
            let mut row = g.row(u).reader();
            for j in 0..words {
                let width = (n - 64 * j).min(64);
                adj.push(row.read_uint(width).expect("a row holds n bits"));
            }
        }
        Self { n, words, adj }
    }

    fn first_cover(&self, k: usize) -> Option<Vec<usize>> {
        let mut live = vec![0; self.words];
        for v in 0..self.n {
            live[v / 64] |= 1 << (v % 64);
        }
        let mut free = vec![0; self.words];
        let mut picked = Vec::new();
        self.search(k, &mut live, &mut free, &mut picked)
            .then_some(picked)
    }

    /// The reference's recursion, with `live` the unpicked vertices and
    /// `free` scratch space for [`CoverSearch::probe`].
    fn search(
        &self,
        k: usize,
        live: &mut [u64],
        free: &mut [u64],
        picked: &mut Vec<usize>,
    ) -> bool {
        let (u, v) = match self.probe(live, free, k) {
            Probe::Covered => return true,
            Probe::Pruned => return false,
            Probe::Branch(u, v) => (u, v),
        };
        // `Branch` means 1 ≤ matched edges ≤ k, so k ≥ 1.
        for w in [u, v] {
            live[w / 64] &= !(1 << (w % 64));
            picked.push(w);
            if self.search(k - 1, live, free, picked) {
                return true;
            }
            picked.pop();
            live[w / 64] |= 1 << (w % 64);
        }
        false
    }

    /// Greedy maximal matching of the live graph, visiting vertices in
    /// ascending order and matching each to its lowest free neighbour.
    ///
    /// Its first matched edge is the reference's branch edge: the lowest
    /// live `u` with a live neighbour, and that neighbour's lowest `v` (a
    /// live neighbour below `u` would itself have been matched first).
    fn probe(&self, live: &[u64], free: &mut [u64], k: usize) -> Probe {
        free.copy_from_slice(live);
        let mut first = None;
        let mut matched = 0;
        for i in 0..self.words {
            while free[i] != 0 {
                let u = i * 64 + free[i].trailing_zeros() as usize;
                free[i] &= free[i] - 1;
                // Every free vertex below `u` is gone, so start at word i.
                let row = &self.adj[u * self.words..(u + 1) * self.words];
                let Some(v) = (i..self.words).find_map(|j| {
                    let m = row[j] & free[j];
                    (m != 0).then(|| j * 64 + m.trailing_zeros() as usize)
                }) else {
                    continue;
                };
                free[v / 64] &= !(1 << (v % 64));
                first.get_or_insert((u, v));
                matched += 1;
                if matched > k {
                    return Probe::Pruned;
                }
            }
        }
        match first {
            None => Probe::Covered,
            Some((u, v)) => Probe::Branch(u, v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use proptest::prelude::*;

    /// Graphs whose outputs must match the reference's at every word
    /// boundary and degenerate size, plus the atlas MaxIS instances.
    fn fixed_cases() -> Vec<(String, Graph)> {
        let mut cases = vec![
            ("empty(0)".into(), Graph::empty(0)),
            ("empty(1)".into(), Graph::empty(1)),
            ("empty(7)".into(), Graph::empty(7)),
            ("complete(6)".into(), Graph::complete(6)),
            ("cliques(120, 30)".into(), gen::cliques(120, 30)),
            ("star(65)".into(), gen::star(65)),
            ("star(130)".into(), gen::star(130)),
        ];
        for n in [12, 18, 24] {
            cases.push((format!("gnp({n}, 0.18, {n})"), gen::gnp(n, 0.18, n as u64)));
        }
        cases
    }

    #[test]
    fn fixed_cases_match_the_reference() {
        for (label, g) in fixed_cases() {
            for k in [0, 1] {
                assert_eq!(
                    vertex_cover(&g, k),
                    reference::find_vertex_cover(&g, k),
                    "{label} k={k}"
                );
            }
            assert_eq!(
                maximum_independent_set(&g),
                reference::find_maximum_independent_set(&g),
                "{label}"
            );
        }
    }

    #[test]
    fn covers_stop_at_the_first_hit_with_budget_left() {
        // One edge: the reference picks 0 and stops, even with budget 3.
        assert_eq!(vertex_cover(&gen::path(2), 3), Some(vec![0]));
        assert_eq!(vertex_cover(&gen::path(2), 0), None);
        // C5 needs 3; the matching bound (2 edges) alone cannot refute k=2.
        assert_eq!(vertex_cover(&gen::cycle(5), 2), None);
        assert_eq!(
            vertex_cover(&gen::cycle(5), 3),
            reference::find_vertex_cover(&gen::cycle(5), 3)
        );
    }

    proptest! {
        // Default config, so `PROPTEST_CASES` can deepen the sweep.
        #[test]
        fn prop_vertex_cover_matches_reference(
            n in 0usize..=140,
            p in 0usize..4,
            k in 0usize..=6,
            seed in any::<u64>(),
        ) {
            let g = gen::gnp(n, [0.02, 0.05, 0.1, 0.3][p], seed);
            prop_assert_eq!(vertex_cover(&g, k), reference::find_vertex_cover(&g, k));
        }

        // G(n, p) past n ≈ 25 almost never has τ ≤ 6; a planted cover of
        // size c keeps budgets near τ, where the search must not cut a
        // subtree whose matching merely equals its budget, at every n.
        #[test]
        fn prop_vertex_cover_matches_reference_on_planted_covers(
            n in 0usize..=140,
            c in 1usize..=6,
            k in 0usize..=6,
            seed in any::<u64>(),
        ) {
            let (g, _) = gen::planted_vertex_cover(n, c.min(n), 2, seed);
            prop_assert_eq!(vertex_cover(&g, k), reference::find_vertex_cover(&g, k));
        }

        #[test]
        fn prop_maximum_independent_set_matches_reference(
            n in 0usize..=18,
            p in 0usize..4,
            seed in any::<u64>(),
        ) {
            let g = gen::gnp(n, [0.1, 0.18, 0.3, 0.5][p], seed);
            prop_assert_eq!(
                maximum_independent_set(&g),
                reference::find_maximum_independent_set(&g)
            );
        }
    }
}

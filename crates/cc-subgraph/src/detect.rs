//! Deterministic subgraph detection (Dolev, Lenzen & Peled, DISC 2012).
//!
//! Reference \[16\] of the paper: any fixed `k`-vertex pattern can be
//! detected in `O(n^{1−2/k})` rounds. Each detector node learns the edges
//! induced by its part-union (`k` parts of size `n^{1−1/k}`, so
//! `O(k² n^{2−2/k})` edge bits per detector, balanced-routable in
//! `O(n^{1−2/k})` rounds) and searches the pattern locally; Figure 1 uses
//! this for triangle / k-IS / size-k subgraph / k-cycle.

use cc_graph::Graph;
use cc_routing::{all_to_all_broadcast, RouteError, RoutePlan};
use cliquesim::{BitString, NodeId, Session};

use crate::partition::Partition;

/// What to look for inside each union.
#[derive(Clone, Debug)]
pub enum Pattern {
    /// The fixed graph, as a (not necessarily induced) subgraph — covers
    /// triangle, k-clique, k-cycle, k-path.
    Subgraph(Graph),
    /// The fixed graph as an *induced* subgraph — k-independent-set is
    /// `Induced(Graph::empty(k))`.
    Induced(Graph),
}

impl Pattern {
    /// Number of pattern vertices.
    pub fn k(&self) -> usize {
        match self {
            Pattern::Subgraph(g) | Pattern::Induced(g) => g.n(),
        }
    }

    fn graph(&self) -> &Graph {
        match self {
            Pattern::Subgraph(g) | Pattern::Induced(g) => g,
        }
    }

    fn induced(&self) -> bool {
        matches!(self, Pattern::Induced(_))
    }

    /// Search for the pattern among `verts` of `g`; returns the image of
    /// each pattern vertex. Local computation only.
    pub fn search_in(&self, g: &Graph, verts: &[usize]) -> Option<Vec<usize>> {
        let h = self.graph();
        let k = h.n();
        if verts.len() < k {
            return None;
        }
        let induced = self.induced();
        let mut map = vec![usize::MAX; k];
        let mut used = vec![false; verts.len()];
        fn rec(
            g: &Graph,
            h: &Graph,
            verts: &[usize],
            induced: bool,
            i: usize,
            map: &mut [usize],
            used: &mut [bool],
        ) -> bool {
            let k = h.n();
            if i == k {
                return true;
            }
            for (ci, &cand) in verts.iter().enumerate() {
                if used[ci] {
                    continue;
                }
                let ok = (0..i).all(|j| {
                    let need = h.has_edge(i, j);
                    let have = g.has_edge(cand, map[j]);
                    if induced {
                        need == have
                    } else {
                        !need || have
                    }
                });
                if ok {
                    map[i] = cand;
                    used[ci] = true;
                    if rec(g, h, verts, induced, i + 1, map, used) {
                        return true;
                    }
                    used[ci] = false;
                    map[i] = usize::MAX;
                }
            }
            false
        }
        rec(g, h, verts, induced, 0, &mut map, &mut used).then_some(map)
    }
}

/// Outcome of a detection run: the witness vertices (pattern-vertex order)
/// if the pattern occurs, `None` otherwise. All nodes learn the outcome.
pub type Witness = Option<Vec<usize>>;

/// Run the Dolev et al. detector for `pattern` on `g`.
///
/// Costs `O(n^{1−2/k})` rounds for the edge redistribution plus `O(1)`
/// rounds to agree on the lowest-id witness.
pub fn detect(session: &mut Session, g: &Graph, pattern: &Pattern) -> Result<Witness, RouteError> {
    let n = session.n();
    assert_eq!(g.n(), n, "graph must match the clique size");
    let k = pattern.k();
    if k > n {
        return Ok(None);
    }
    let part = Partition::new(n, k);

    // -------- Phase 1: ship induced-union edges to each detector ---------
    // Edge {a, b} (a < b) is announced by a to every detector whose union
    // contains both endpoints. The receiver can decode positions because
    // the partition is globally known.
    //
    // Detector-side bookkeeping: the bits from sender a, in order, are the
    // edges {a, b} for b ∈ union, b > a.
    let mut unions: Vec<Option<Vec<usize>>> = (0..n).map(|v| part.union_of(v)).collect();
    // union membership bitmaps for fast lookup
    let member: Vec<Option<Vec<bool>>> = unions
        .iter()
        .map(|u| {
            u.as_ref().map(|verts| {
                let mut m = vec![false; n];
                for &x in verts {
                    m[x] = true;
                }
                m
            })
        })
        .collect();

    let mut demands: Vec<Vec<(NodeId, BitString)>> = vec![Vec::new(); n];
    for a in 0..n {
        for v in 0..n {
            let Some(m) = member[v].as_ref() else {
                continue;
            };
            if !m[a] {
                continue;
            }
            let mut bits = BitString::new();
            for b in unions[v]
                .as_ref()
                .expect("member implies union")
                .iter()
                .copied()
            {
                if b > a {
                    bits.push(g.has_edge(a, b));
                }
            }
            if bits.is_empty() {
                continue;
            }
            if v == a {
                // Local hand-off is free; modelled by skipping the wire.
                continue;
            }
            demands[a].push((NodeId::from(v), bits));
        }
    }
    let delivered = RoutePlan::balanced().run(session, demands)?;

    // -------- Phase 2: local search in each detector's union --------------
    let mut local_witness: Vec<Option<Vec<usize>>> = vec![None; n];
    for v in 0..n {
        let Some(union) = unions[v].take() else {
            continue;
        };
        // Rebuild the induced subgraph from received bits (plus own row).
        let mut induced = Graph::empty(n);
        let mut payload_of: Vec<Option<&BitString>> = vec![None; n];
        for (src, bits) in &delivered[v] {
            payload_of[src.index()] = Some(bits);
        }
        for &a in &union {
            if a == v {
                // Own row: no wire transfer happened.
                for &b in &union {
                    if b > a && g.has_edge(a, b) {
                        induced.add_edge(a, b);
                    }
                }
                continue;
            }
            let Some(bits) = payload_of[a] else { continue };
            let mut idx = 0;
            for &b in &union {
                if b > a {
                    if bits.get(idx) {
                        induced.add_edge(a, b);
                    }
                    idx += 1;
                }
            }
        }
        local_witness[v] = pattern.search_in(&induced, &union);
    }

    // -------- Phase 3: agree on the lowest-id witness ---------------------
    // Each node broadcasts found-flag + witness ids; `k·⌈log n⌉ + 1` bits.
    let idw = BitString::width_for(n);
    let payloads: Vec<BitString> = local_witness
        .iter()
        .map(|w| {
            let mut bits = BitString::new();
            match w {
                Some(ids) => {
                    bits.push(true);
                    for &u in ids {
                        bits.push_uint(u as u64, idw);
                    }
                }
                None => bits.push(false),
            }
            bits
        })
        .collect();
    let views = all_to_all_broadcast(session, payloads)?;

    // Every node decodes the same views; pick the first finder.
    let view = &views[0];
    for bits in view {
        let mut r = bits.reader();
        if r.read_bit().unwrap_or(false) {
            let mut ids = Vec::with_capacity(k);
            for _ in 0..k {
                ids.push(r.read_uint(idw).expect("well-formed witness") as usize);
            }
            return Ok(Some(ids));
        }
    }
    Ok(None)
}

/// Triangle detection (`k = 3`, exponent `1/3`).
///
/// ```
/// use cc_subgraph::detect_triangle;
/// use cliquesim::{Engine, Session};
///
/// let g = cc_graph::Graph::from_edges(8, &[(0, 1), (1, 2), (0, 2), (3, 4)]);
/// let mut session = Session::new(Engine::new(8));
/// let witness = detect_triangle(&mut session, &g).unwrap().expect("triangle exists");
/// assert_eq!(witness.len(), 3);
/// ```
pub fn detect_triangle(session: &mut Session, g: &Graph) -> Result<Witness, RouteError> {
    detect(session, g, &Pattern::Subgraph(cc_graph::gen::cycle(3)))
}

/// Independent set of size `k` (induced empty pattern, exponent `1 − 2/k`).
pub fn detect_independent_set(
    session: &mut Session,
    g: &Graph,
    k: usize,
) -> Result<Witness, RouteError> {
    detect(session, g, &Pattern::Induced(Graph::empty(k)))
}

/// Clique of size `k`.
pub fn detect_clique(session: &mut Session, g: &Graph, k: usize) -> Result<Witness, RouteError> {
    detect(session, g, &Pattern::Subgraph(Graph::complete(k)))
}

/// Cycle of length `k` (`k ≥ 3`).
pub fn detect_cycle(session: &mut Session, g: &Graph, k: usize) -> Result<Witness, RouteError> {
    detect(session, g, &Pattern::Subgraph(cc_graph::gen::cycle(k)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{gen, reference};
    use cliquesim::Engine;

    fn session(n: usize) -> Session {
        Session::new(Engine::new(n))
    }

    #[test]
    fn pattern_search_induced_vs_subgraph() {
        let g = Graph::complete(4);
        let verts: Vec<usize> = (0..4).collect();
        // K4 contains C4 as a subgraph but not induced.
        let c4 = gen::cycle(4);
        assert!(Pattern::Subgraph(c4.clone())
            .search_in(&g, &verts)
            .is_some());
        assert!(Pattern::Induced(c4).search_in(&g, &verts).is_none());
        // Empty pattern: induced requires an actual independent set.
        assert!(Pattern::Induced(Graph::empty(2))
            .search_in(&g, &verts)
            .is_none());
        assert!(Pattern::Subgraph(Graph::empty(2))
            .search_in(&g, &verts)
            .is_some());
    }

    #[test]
    fn triangle_detection_agrees_with_reference() {
        for seed in 0..6 {
            let n = 16;
            let g = gen::gnp(n, 0.2, seed);
            let expect = reference::count_triangles(&g) > 0;
            let mut s = session(n);
            let got = detect_triangle(&mut s, &g).unwrap();
            assert_eq!(got.is_some(), expect, "seed {seed}");
            if let Some(w) = got {
                assert_eq!(w.len(), 3);
                assert!(g.has_edge(w[0], w[1]) && g.has_edge(w[1], w[2]) && g.has_edge(w[0], w[2]));
            }
        }
    }

    #[test]
    fn independent_set_detection() {
        let (g, _) = gen::planted_independent_set(18, 4, 0.75, 3);
        let mut s = session(18);
        let got = detect_independent_set(&mut s, &g, 4)
            .unwrap()
            .expect("planted IS found");
        assert!(reference::is_independent_set(&g, &got));
        assert_eq!(got.len(), 4);

        // A complete graph has no 2-IS.
        let mut s = session(12);
        assert!(detect_independent_set(&mut s, &Graph::complete(12), 2)
            .unwrap()
            .is_none());
    }

    #[test]
    fn clique_detection() {
        let (g, _) = gen::planted_clique(20, 4, 0.3, 9);
        let mut s = session(20);
        let got = detect_clique(&mut s, &g, 4)
            .unwrap()
            .expect("planted clique found");
        assert!(reference::is_clique(&g, &got));
    }

    #[test]
    fn cycle_detection_matches_brute_force() {
        for seed in 0..4 {
            let n = 12;
            let g = gen::gnp(n, 0.15, 40 + seed);
            let expect = reference::contains_subgraph(&g, &gen::cycle(4));
            let mut s = session(n);
            let got = detect_cycle(&mut s, &g, 4).unwrap();
            assert_eq!(got.is_some(), expect, "seed {seed}");
        }
    }

    #[test]
    fn no_false_positives_on_triangle_free_graph() {
        // Bipartite graphs are triangle-free.
        let mut g = Graph::empty(14);
        for u in 0..7 {
            for v in 7..14 {
                if (u + v) % 3 != 0 {
                    g.add_edge(u, v);
                }
            }
        }
        let mut s = session(14);
        assert!(detect_triangle(&mut s, &g).unwrap().is_none());
    }

    #[test]
    fn pattern_larger_than_graph_is_absent() {
        let g = Graph::complete(3);
        let mut s = session(3);
        assert!(detect_clique(&mut s, &g, 5).unwrap().is_none());
    }
}

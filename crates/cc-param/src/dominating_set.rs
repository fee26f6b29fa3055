//! Theorem 9: a dominating set of size `k` in `O(n^{1−1/k})` rounds.
//!
//! The algorithm is the paper's modification of the Dolev et al. scheme:
//!
//! 1. Partition `V` into `n^{1/k}` parts of size `O(n^{1−1/k})` and give
//!    each node a label in `[n^{1/k}]^k` (all labels used).
//! 2. Node `v` with label `(j_1, …, j_k)` learns **all edges incident to**
//!    `S_v = S_{j_1} ∪ … ∪ S_{j_k}` — that is `O(k·n^{2−1/k})` edge bits,
//!    which balanced routing delivers in `O(k·n^{1−1/k})` rounds (the paper
//!    invokes Lenzen's protocol here; see DESIGN.md).
//! 3. `v` locally checks whether some size-`k` subset of `S_v` dominates
//!    the whole graph; knowing all edges incident to `S_v` suffices for
//!    this. If a dominating set `D = {v_1, …, v_k}` exists with
//!    `v_i ∈ S_{j_i}`, the node labelled `(j_1, …, j_k)` finds it.
//!
//! The local search is the expensive part of the theorem ("unlimited local
//! computation"); here it runs over closed-neighbourhood bitmasks with
//! early exit.

use cc_graph::Graph;
use cc_routing::{all_to_all_broadcast, RouteError, RoutePlan};
use cc_subgraph::Partition;
use cliquesim::{BitString, NodeId, Session};

/// Per-run result: a dominating set of size ≤ `k` known to all nodes, or
/// `None`.
pub type DsResult = Option<Vec<usize>>;

/// Closed-neighbourhood bitmask over `⌈n/64⌉` words.
fn closed_neighborhood(edges_of: &[Vec<usize>], u: usize, words: usize) -> Vec<u64> {
    let mut mask = vec![0u64; words];
    mask[u / 64] |= 1 << (u % 64);
    for &w in &edges_of[u] {
        mask[w / 64] |= 1 << (w % 64);
    }
    mask
}

/// Search for a size-`k` subset of `candidates` whose closed
/// neighbourhoods cover all `n` vertices. Local computation with early
/// exit; masks are ORed incrementally along the search tree.
fn search_dominating(
    masks: &[Vec<u64>],
    candidates: &[usize],
    k: usize,
    n: usize,
) -> Option<Vec<usize>> {
    let words = n.div_ceil(64);
    let full: Vec<u64> = (0..words)
        .map(|w| {
            let bits = if (w + 1) * 64 <= n { 64 } else { n - w * 64 };
            if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            }
        })
        .collect();
    fn covered(acc: &[u64], full: &[u64]) -> bool {
        acc.iter().zip(full).all(|(a, f)| a & f == *f)
    }
    fn rec(
        masks: &[Vec<u64>],
        candidates: &[usize],
        full: &[u64],
        start: usize,
        k: usize,
        acc: &mut Vec<u64>,
        picked: &mut Vec<usize>,
    ) -> bool {
        if covered(acc, full) {
            return true;
        }
        if k == 0 || start >= candidates.len() {
            return false;
        }
        // Prune: not enough picks left to matter is handled by the k == 0
        // check; a simple candidate loop with backtracking follows.
        for ci in start..candidates.len() {
            // Remaining candidates must suffice.
            if candidates.len() - ci < k && !covered(acc, full) {
                // keep looping; the k-1 recursion below handles budget
            }
            let u = candidates[ci];
            let before = acc.clone();
            for (a, m) in acc.iter_mut().zip(&masks[u]) {
                *a |= m;
            }
            picked.push(u);
            if rec(masks, candidates, full, ci + 1, k - 1, acc, picked) {
                return true;
            }
            picked.pop();
            *acc = before;
        }
        false
    }
    let mut acc = vec![0u64; words];
    let mut picked = Vec::new();
    rec(masks, candidates, &full, 0, k, &mut acc, &mut picked).then_some(picked)
}

/// Find a dominating set of size ≤ `k`, or decide none exists
/// (Theorem 9). All nodes learn the same answer.
pub fn dominating_set(session: &mut Session, g: &Graph, k: usize) -> Result<DsResult, RouteError> {
    let n = session.n();
    assert_eq!(g.n(), n);
    assert!(k >= 1, "k must be at least 1");
    if n == 0 {
        return Ok(Some(vec![]));
    }
    let part = Partition::new(n, k);

    // Union membership per detector.
    let unions: Vec<Option<Vec<usize>>> = (0..n).map(|v| part.union_of(v)).collect();
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

    // ---- Phase 1: each detector learns all edges incident to its union ---
    // Sender `a` owns the private bit of edge {a, b} per the balanced split
    // (§3); it forwards that bit to detector v iff a or b lies in S_v. Both
    // sides compute the same slot list from global knowledge.
    let owned: Vec<Vec<usize>> = (0..n).map(|a| Graph::owned_slots(n, a)).collect();
    let mut demands: Vec<Vec<(NodeId, BitString)>> = vec![Vec::new(); n];
    for a in 0..n {
        for v in 0..n {
            let Some(m) = member[v].as_ref() else {
                continue;
            };
            if v == a {
                continue; // local hand-off is free
            }
            let mut bits = BitString::new();
            for &b in &owned[a] {
                if m[a] || m[b] {
                    bits.push(g.has_edge(a, b));
                }
            }
            if !bits.is_empty() {
                demands[a].push((NodeId::from(v), bits));
            }
        }
    }
    let delivered = RoutePlan::balanced().run(session, demands)?;

    // ---- Phase 2: local search over size-k subsets of the union ----------
    let words = n.div_ceil(64);
    let mut local: Vec<Option<Vec<usize>>> = vec![None; n];
    for v in 0..n {
        let Some(m) = member[v].as_ref() else {
            continue;
        };
        let union = unions[v].as_ref().expect("detector has a union");
        // Reconstruct all edges incident to the union.
        let mut edges_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut add = |a: usize, b: usize, present: bool| {
            if present {
                edges_of[a].push(b);
                edges_of[b].push(a);
            }
        };
        for (src, bits) in &delivered[v] {
            let a = src.index();
            let mut idx = 0;
            for &b in &owned[a] {
                if m[a] || m[b] {
                    add(a, b, bits.get(idx));
                    idx += 1;
                }
            }
        }
        // Own bits (if v itself owns relevant edges, no wire transfer).
        for &b in &owned[v] {
            if m[v] || m[b] {
                add(v, b, g.has_edge(v, b));
            }
        }
        let masks: Vec<Vec<u64>> = (0..n)
            .map(|u| closed_neighborhood(&edges_of, u, words))
            .collect();
        local[v] = search_dominating(&masks, union, k, n);
    }

    // ---- Phase 3: agree on the lowest-id witness -------------------------
    let idw = BitString::width_for(n);
    let payloads: Vec<BitString> = local
        .iter()
        .map(|w| {
            let mut bits = BitString::new();
            match w {
                Some(ids) => {
                    bits.push(true);
                    bits.push_uint(ids.len() as u64, idw);
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
    for bits in &views[0] {
        let mut r = bits.reader();
        if r.read_bit().unwrap_or(false) {
            let len = r.read_uint(idw).expect("well-formed") as usize;
            let mut ids = Vec::with_capacity(len);
            for _ in 0..len {
                ids.push(r.read_uint(idw).expect("well-formed") as usize);
            }
            return Ok(Some(ids));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{gen, reference};
    use cliquesim::Engine;

    fn run(g: &Graph, k: usize) -> (DsResult, usize) {
        let mut s = Session::new(Engine::new(g.n()));
        let res = dominating_set(&mut s, g, k).unwrap();
        (res, s.stats().rounds)
    }

    #[test]
    fn search_dominating_basics() {
        // Star: centre dominates everything.
        let g = gen::star(6);
        let edges_of: Vec<Vec<usize>> = (0..6).map(|u| g.neighbors(u).collect()).collect();
        let masks: Vec<Vec<u64>> = (0..6)
            .map(|u| closed_neighborhood(&edges_of, u, 1))
            .collect();
        assert_eq!(
            search_dominating(&masks, &[0, 1, 2, 3, 4, 5], 1, 6),
            Some(vec![0])
        );
        assert_eq!(search_dominating(&masks, &[1, 2, 3], 1, 6), None);
    }

    #[test]
    fn finds_planted_dominating_sets() {
        for seed in 0..4 {
            let (g, _) = gen::planted_dominating_set(20, 2, 0.1, seed);
            let (res, _) = run(&g, 2);
            let ds = res.expect("planted 2-DS must be found");
            assert!(reference::is_dominating_set(&g, &ds), "seed {seed}");
            assert!(ds.len() <= 2);
        }
    }

    #[test]
    fn agrees_with_brute_force() {
        for seed in 0..6 {
            let n = 13;
            let g = gen::gnp(n, 0.25, seed);
            for k in 1..=3 {
                let expect = reference::find_dominating_set(&g, k).is_some();
                let (got, _) = run(&g, k);
                assert_eq!(got.is_some(), expect, "seed {seed} k={k}");
                if let Some(ds) = got {
                    assert!(reference::is_dominating_set(&g, &ds));
                }
            }
        }
    }

    #[test]
    fn empty_graph_needs_n_nodes() {
        let g = Graph::empty(6);
        assert!(run(&g, 1).0.is_none());
        // Complete graph: any single node dominates.
        let (res, _) = run(&Graph::complete(6), 1);
        assert!(res.is_some());
    }

    #[test]
    fn cluster_graph_needs_one_per_clique() {
        let g = gen::cliques(12, 3);
        assert!(run(&g, 2).0.is_none());
        let (res, _) = run(&g, 3);
        let ds = res.expect("3 cliques need 3 dominators");
        assert!(reference::is_dominating_set(&g, &ds));
    }

    mod prop {
        use super::super::*;
        use cc_graph::{gen, reference};
        use cliquesim::{Engine, Session};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            #[test]
            fn prop_matches_brute_force(seed in any::<u64>(), k in 1usize..=3) {
                let n = 10;
                let g = gen::gnp(n, 0.3, seed);
                let expect = reference::find_dominating_set(&g, k).is_some();
                let mut s = Session::new(Engine::new(n));
                let got = dominating_set(&mut s, &g, k).unwrap();
                prop_assert_eq!(got.is_some(), expect);
                if let Some(ds) = got {
                    prop_assert!(reference::is_dominating_set(&g, &ds));
                    prop_assert!(ds.len() <= k);
                }
            }
        }
    }

    #[test]
    fn rounds_grow_sublinearly_for_k2() {
        // Exponent check lives in the bench harness; here a smoke test that
        // k = 2 at n = 64 costs well below the naive Θ(n) of shipping whole
        // rows everywhere.
        let (g, _) = gen::planted_dominating_set(64, 2, 0.05, 7);
        let (res, rounds) = run(&g, 2);
        assert!(res.is_some());
        assert!(rounds < 64 * 4, "rounds = {rounds}");
    }
}

//! Triangle counting and enumeration.
//!
//! §2 of the paper singles out triangle *enumeration* as one of the few
//! problems with known congested clique lower bounds (Pandurangan,
//! Robinson & Scquizzato \[49\]: `Ω̃(n^{1/3})`, matching Dolev et al.'s
//! upper bound) — the lower bound exists precisely because the *output*
//! is large, which the paper's decision-problem framing deliberately
//! avoids. This module implements the output-heavy problem: every
//! triangle is reported exactly once, by its canonical detector.

use cc_graph::Graph;
use cc_routing::{RouteError, RoutePlan};
use cliquesim::{BitString, NodeId, Session};

use crate::partition::Partition;

/// Count all triangles, each counted exactly once (at the detector node
/// canonically responsible for its vertex triple). All nodes learn the
/// total. Costs `O(n^{1/3})` rounds for the edge redistribution plus a
/// constant-round sum aggregation.
pub fn count_triangles_distributed(session: &mut Session, g: &Graph) -> Result<u64, RouteError> {
    let counts = per_detector_counts(session, g)?;
    // Aggregate: each node broadcasts its local count (≤ n³, 2·32 bits),
    // everyone sums. One routing phase.
    let payloads: Vec<BitString> = counts
        .iter()
        .map(|&c| {
            let mut b = BitString::new();
            b.push_uint(c, 48);
            b
        })
        .collect();
    let views = cc_routing::all_to_all_broadcast(session, payloads)?;
    let total = views[0]
        .iter()
        .map(|bits| bits.reader().read_uint(48).expect("well-formed count"))
        .sum();
    Ok(total)
}

/// Enumerate all triangles: returns the full list (each exactly once,
/// sorted). The output has `Θ(#triangles · log n)` bits — the paper's §2
/// point is that *this* is where unconditional lower bounds come from.
pub fn enumerate_triangles_distributed(
    session: &mut Session,
    g: &Graph,
) -> Result<Vec<[usize; 3]>, RouteError> {
    let n = session.n();
    let part = Partition::new(n, 3);
    let local = per_detector_triangles(session, g, &part)?;
    // Ship every triangle to node 0 … n−1 round-robin? For the enumeration
    // semantics it suffices that the *union of outputs* is the triangle
    // list; here every detector keeps its own finds and the driver
    // concatenates (each node outputs its share — the standard
    // "enumeration" output convention of [49]).
    let mut all: Vec<[usize; 3]> = local.into_iter().flatten().collect();
    all.sort_unstable();
    all.dedup();
    Ok(all)
}

/// Shared phase: each detector learns its union's induced edges and lists
/// the triangles it is canonically responsible for.
fn per_detector_triangles(
    session: &mut Session,
    g: &Graph,
    part: &Partition,
) -> Result<Vec<Vec<[usize; 3]>>, RouteError> {
    let n = session.n();
    assert_eq!(g.n(), n);
    if n < 3 {
        return Ok(vec![Vec::new(); n]);
    }

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

    // Phase 1: induced-union edge shipping (same pattern as `detect`).
    let mut demands: Vec<Vec<(NodeId, BitString)>> = vec![Vec::new(); n];
    for a in 0..n {
        for v in 0..n {
            let Some(m) = member[v].as_ref() else {
                continue;
            };
            if !m[a] || v == a {
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
            if !bits.is_empty() {
                demands[a].push((NodeId::from(v), bits));
            }
        }
    }
    let delivered = RoutePlan::balanced().run(session, demands)?;

    // Phase 2: local canonical listing.
    let mut out: Vec<Vec<[usize; 3]>> = vec![Vec::new(); n];
    for v in 0..n {
        let Some(m) = member[v].as_ref() else {
            continue;
        };
        let union = unions[v].as_ref().expect("detector has a union");
        let mut induced = Graph::empty(n);
        let mut payload_of: Vec<Option<&BitString>> = vec![None; n];
        for (src, bits) in &delivered[v] {
            payload_of[src.index()] = Some(bits);
        }
        for &a in union {
            if a == v {
                for &b in union {
                    if b > a && g.has_edge(a, b) {
                        induced.add_edge(a, b);
                    }
                }
                continue;
            }
            let Some(bits) = payload_of[a] else { continue };
            let mut idx = 0;
            for &b in union {
                if b > a {
                    if bits.get(idx) {
                        induced.add_edge(a, b);
                    }
                    idx += 1;
                }
            }
        }
        let _ = m;
        // Canonical responsibility: v lists triangle {a,b,c} (a<b<c) iff
        // v == detector_for([a,b,c]) — every triple has exactly one owner.
        for (ai, &a) in union.iter().enumerate() {
            for (bi, &b) in union.iter().enumerate().skip(ai + 1) {
                if !induced.has_edge(a, b) {
                    continue;
                }
                for &c in union.iter().skip(bi + 1) {
                    if induced.has_edge(a, c)
                        && induced.has_edge(b, c)
                        && part.detector_for(&[a, b, c]) == v
                    {
                        out[v].push([a, b, c]);
                    }
                }
            }
        }
    }
    Ok(out)
}

fn per_detector_counts(session: &mut Session, g: &Graph) -> Result<Vec<u64>, RouteError> {
    let n = session.n();
    let part = Partition::new(n, 3);
    Ok(per_detector_triangles(session, g, &part)?
        .into_iter()
        .map(|l| l.len() as u64)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{gen, reference};
    use cliquesim::Engine;

    #[test]
    fn counts_match_reference() {
        for seed in 0..5 {
            let n = 18;
            let g = gen::gnp(n, 0.3, seed);
            let mut s = Session::new(Engine::new(n));
            let got = count_triangles_distributed(&mut s, &g).unwrap();
            assert_eq!(got, reference::count_triangles(&g), "seed {seed}");
        }
    }

    #[test]
    fn enumeration_lists_each_triangle_once() {
        let g = Graph::complete(7); // C(7,3) = 35 triangles
        let mut s = Session::new(Engine::new(7));
        let list = enumerate_triangles_distributed(&mut s, &g).unwrap();
        assert_eq!(list.len(), 35);
        // Verified and canonical.
        for [a, b, c] in &list {
            assert!(a < b && b < c);
            assert!(g.has_edge(*a, *b) && g.has_edge(*b, *c) && g.has_edge(*a, *c));
        }
    }

    #[test]
    fn triangle_free_graphs_count_zero() {
        let g = gen::cycle(12);
        let mut s = Session::new(Engine::new(12));
        assert_eq!(count_triangles_distributed(&mut s, &g).unwrap(), 0);
    }

    #[test]
    fn tiny_cliques() {
        let g = Graph::complete(2);
        let mut s = Session::new(Engine::new(2));
        assert_eq!(count_triangles_distributed(&mut s, &g).unwrap(), 0);
        let g3 = Graph::complete(3);
        let mut s3 = Session::new(Engine::new(3));
        assert_eq!(count_triangles_distributed(&mut s3, &g3).unwrap(), 1);
    }

    #[test]
    fn enumeration_agrees_with_count() {
        for seed in 0..3 {
            let n = 15;
            let g = gen::gnp(n, 0.35, 50 + seed);
            let mut s1 = Session::new(Engine::new(n));
            let count = count_triangles_distributed(&mut s1, &g).unwrap();
            let mut s2 = Session::new(Engine::new(n));
            let list = enumerate_triangles_distributed(&mut s2, &g).unwrap();
            assert_eq!(list.len() as u64, count, "seed {seed}");
        }
    }
}

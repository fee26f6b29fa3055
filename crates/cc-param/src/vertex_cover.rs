//! Theorem 11: a vertex cover of size `k` in `O(k)` rounds.
//!
//! The algorithm is the distributed Buss kernelisation of §7.3:
//!
//! 1. *Preprocessing (1 round).* Every node of degree ≥ k+1 joins the
//!    cover `C` and broadcasts one bit (Lemma 12: such nodes belong to
//!    every size-≤k cover). If more than `k` nodes joined, reject.
//! 2. *Main phase (≤ k rounds).* Every node `v ∉ C` broadcasts its
//!    incident edges not covered by `C` — at most `k` of them, since
//!    `deg(v) ≤ k` — one `⌈log₂ n⌉`-bit neighbour id per round.
//! 3. *Local phase.* Everyone now knows `G[V∖C]` entirely and locally
//!    computes a cover of it of size at most `k−|C|`, or finds there is
//!    none; a size-`k` cover of `G` exists iff a size-`(k−|C|)` cover of
//!    `G[V∖C]` does. The cover is the first one within budget that the
//!    deterministic search ([`cc_graph::exact::vertex_cover`]) meets, so
//!    every node returns the same one, but it need not be minimum.
//!
//! The round count is `≤ k + 1`, *independent of n* — the fixed-parameter
//! tractability phenomenon the paper contrasts against `k`-IS and `k`-DS.

use cc_graph::{exact, Graph};
use cliquesim::{
    BitString, Engine, Inbox, NodeCtx, NodeId, NodeProgram, Outbox, RunStats, Session, SimError,
    Status,
};

/// Per-node result: the cover found (same at every node) or `None`.
pub type CoverResult = Option<Vec<usize>>;

struct VcNode {
    k: usize,
    row: BitString,
    /// Neighbours (derived from the row in `init`).
    neighbors: Vec<usize>,
    /// Nodes that joined C in preprocessing.
    in_c: Vec<bool>,
    joined: bool,
    c_size: usize,
    /// Uncovered incident edges still to announce (neighbour ids).
    to_announce: Vec<usize>,
    /// Collected kernel edges (u, v).
    kernel_edges: Vec<(usize, usize)>,
}

impl VcNode {
    fn new(k: usize, row: BitString) -> Self {
        Self {
            k,
            row,
            neighbors: Vec::new(),
            in_c: Vec::new(),
            joined: false,
            c_size: 0,
            to_announce: Vec::new(),
            kernel_edges: Vec::new(),
        }
    }

    fn finish(&self, n: usize) -> CoverResult {
        if self.c_size > self.k {
            return None;
        }
        // Solve the kernel locally (everyone has the same view of it).
        let mut kernel = Graph::empty(n);
        for &(u, v) in &self.kernel_edges {
            if !kernel.has_edge(u, v) {
                kernel.add_edge(u, v);
            }
        }
        let budget = self.k - self.c_size;
        let extra = exact::vertex_cover(&kernel, budget)?;
        let mut cover: Vec<usize> = (0..n).filter(|&u| self.in_c[u]).chain(extra).collect();
        cover.sort_unstable();
        cover.dedup();
        Some(cover)
    }
}

impl NodeProgram for VcNode {
    type Output = CoverResult;

    fn init(&mut self, ctx: &NodeCtx) {
        let me = ctx.id.index();
        self.in_c = vec![false; ctx.n];
        self.neighbors = (0..ctx.n)
            .filter(|&u| u != me)
            .filter(|&u| {
                let slot = if u < me { u } else { u - 1 };
                self.row.get(slot)
            })
            .collect();
    }

    fn step(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        outbox: &mut Outbox<'_>,
    ) -> Status<CoverResult> {
        let me = ctx.id.index();
        let idw = ctx.id_width();
        match round {
            0 => {
                // Preprocessing: high-degree nodes announce they join C.
                if self.neighbors.len() > self.k {
                    self.joined = true;
                    let mut one = BitString::new();
                    one.push(true);
                    outbox.broadcast(&one);
                }
                Status::Continue
            }
            1 => {
                // Learn C; queue uncovered incident edges for announcement.
                for (u, msg) in inbox.iter() {
                    if msg.get(0) {
                        self.in_c[u.index()] = true;
                    }
                }
                if self.joined {
                    self.in_c[me] = true;
                }
                self.c_size = self.in_c.iter().filter(|b| **b).count();
                if self.c_size > self.k {
                    // Too many forced nodes: no size-k cover exists, and
                    // everyone sees the same count, so all reject together.
                    return Status::Halt(None);
                }
                if !self.joined {
                    self.to_announce = self
                        .neighbors
                        .iter()
                        .copied()
                        .filter(|&u| !self.in_c[u])
                        .collect();
                    debug_assert!(self.to_announce.len() <= self.k);
                }
                self.announce_next(me, idw, outbox);
                Status::Continue
            }
            r => {
                // Collect announcements from round r−1; send the next one.
                for (u, msg) in inbox.iter() {
                    let w = msg.reader().read_uint(idw).expect("well-formed edge id") as usize;
                    let (a, b) = (u.index().min(w), u.index().max(w));
                    self.kernel_edges.push((a, b));
                }
                // k announcement slots live in rounds 1..=k; the run ends
                // after the last slot's messages are delivered.
                if r > self.k {
                    return Status::Halt(self.finish(ctx.n));
                }
                self.announce_next(me, idw, outbox);
                Status::Continue
            }
        }
    }
}

impl VcNode {
    fn announce_next(&mut self, _me: usize, idw: usize, outbox: &mut Outbox<'_>) {
        if let Some(u) = self.to_announce.pop() {
            let mut msg = BitString::new();
            msg.push_uint(u as u64, idw);
            outbox.broadcast(&msg);
        }
    }
}

/// Find a vertex cover of size ≤ `k`, or decide none exists, in `O(k)`
/// rounds (Theorem 11). All nodes return the same answer.
///
/// ```
/// use cc_param::vertex_cover;
/// use cliquesim::{Engine, Session};
///
/// let g = cc_graph::gen::star(50); // centre + 49 leaves
/// let mut session = Session::new(Engine::new(50));
/// let cover = vertex_cover(&mut session, &g, 1).unwrap();
/// assert_eq!(cover, Some(vec![0]));
/// assert!(session.stats().rounds <= 3, "O(k) rounds, independent of n");
/// ```
pub fn vertex_cover(session: &mut Session, g: &Graph, k: usize) -> Result<CoverResult, SimError> {
    let n = session.n();
    assert_eq!(g.n(), n);
    let programs: Vec<VcNode> = (0..n)
        .map(|v| VcNode::new(k, g.input_row(NodeId::from(v))))
        .collect();
    let out = session.run(programs)?;
    let answer = out
        .unanimous()
        .expect("vertex cover verdict must be unanimous")
        .clone();
    Ok(answer)
}

/// Convenience wrapper measuring the round cost on a fresh engine.
pub fn vertex_cover_rounds(g: &Graph, k: usize) -> Result<(CoverResult, RunStats), SimError> {
    let mut session = Session::new(Engine::new(g.n()));
    let res = vertex_cover(&mut session, g, k)?;
    Ok((res, session.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{gen, reference};
    use proptest::prelude::*;

    #[test]
    fn finds_covers_matching_brute_force() {
        for seed in 0..6 {
            let n = 14;
            let g = gen::gnp(n, 0.25, seed);
            let tau = reference::min_vertex_cover_size(&g);
            for k in [tau.saturating_sub(1), tau, tau + 1] {
                let mut s = Session::new(Engine::new(n));
                let got = vertex_cover(&mut s, &g, k).unwrap();
                if k < tau {
                    assert!(got.is_none(), "seed {seed} k={k} tau={tau}");
                } else {
                    let cover = got.expect("cover exists");
                    assert!(reference::is_vertex_cover(&g, &cover), "seed {seed}");
                    assert!(cover.len() <= k, "seed {seed}: {} > {k}", cover.len());
                }
            }
        }
    }

    #[test]
    fn rounds_bounded_by_k_plus_one() {
        for k in [0usize, 1, 2, 4, 7] {
            for n in [16usize, 48, 96] {
                let g = gen::gnp(n, 2.0 / n as f64, (n + k) as u64);
                let (_, stats) = vertex_cover_rounds(&g, k).unwrap();
                assert!(
                    stats.rounds <= k + 2,
                    "n={n} k={k}: rounds {} exceeds k+2",
                    stats.rounds
                );
            }
        }
    }

    #[test]
    fn rounds_do_not_grow_with_n() {
        // Theorem 11's headline: round complexity depends on k only.
        let k = 4;
        let rounds: Vec<usize> = [32usize, 64, 128, 256]
            .iter()
            .map(|&n| {
                // Sparse graph so that a k-cover exists and degrees stay low.
                let g = gen::star(n); // one high-degree node: C = {0}
                let (res, stats) = vertex_cover_rounds(&g, k).unwrap();
                assert_eq!(res, Some(vec![0]));
                stats.rounds
            })
            .collect();
        assert!(
            rounds.windows(2).all(|w| w[0] == w[1]),
            "rounds varied with n: {rounds:?}"
        );
    }

    #[test]
    fn early_reject_when_too_many_forced() {
        // A graph where > k nodes have degree ≥ k+1: complete graph.
        let g = Graph::complete(10);
        let (res, stats) = vertex_cover_rounds(&g, 3).unwrap();
        assert!(res.is_none());
        assert!(
            stats.rounds <= 2,
            "early reject should be fast, took {}",
            stats.rounds
        );
    }

    #[test]
    fn k_zero_on_empty_and_nonempty() {
        let empty = Graph::empty(8);
        let (res, _) = vertex_cover_rounds(&empty, 0).unwrap();
        assert_eq!(res, Some(vec![]));
        let (res, _) = vertex_cover_rounds(&gen::path(8), 0).unwrap();
        assert!(res.is_none());
    }

    #[test]
    fn star_needs_exactly_one() {
        let g = gen::star(30);
        let (res, _) = vertex_cover_rounds(&g, 1).unwrap();
        assert_eq!(res, Some(vec![0]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_agrees_with_reference(seed in any::<u64>(), k in 0usize..6) {
            let n = 12;
            let g = gen::gnp(n, 0.3, seed);
            let expect = reference::find_vertex_cover(&g, k).is_some();
            let (got, _) = vertex_cover_rounds(&g, k).unwrap();
            prop_assert_eq!(got.is_some(), expect);
            if let Some(cover) = got {
                prop_assert!(reference::is_vertex_cover(&g, &cover));
                prop_assert!(cover.len() <= k);
            }
        }
    }
}

//! Oblivious static routing: the router programs and the collectives.
//!
//! Lenzen's routing theorem [43 in the paper] delivers any instance where
//! every node is the source and destination of at most `n` messages in
//! `O(1)` rounds. Every use of that black box in this paper (Theorem 9's
//! k-dominating-set algorithm, the Dolev et al. subgraph detector, the
//! matrix-multiplication redistributions) routes a pattern whose *per-link*
//! demand is globally predictable and balanced. For such patterns the
//! trivial direct schedule — pair `(u, w)` uses its own dedicated link for
//! `⌈bits(u,w)/B⌉` consecutive rounds, all links in parallel — already
//! matches the asymptotics, because the clique gives every ordered pair a
//! private link; the balanced schedule of [`crate::balanced`] covers the
//! per-node-balanced, per-link-skewed patterns. The sorting machinery in
//! Lenzen's protocol exists to handle *unbalanced* per-link demands without
//! global knowledge. This substitution is recorded in DESIGN.md.
//!
//! Every [`crate::RoutePlan`] pass runs one of the two programs here:
//! `RouterNode` ships each chunk once, `ResilientRouterNode` `k` times.
//! Both take the node's encoded row (its streams to every peer, back to
//! back in peer order) and ship chunk `r` of link `v → w` straight from
//! `w`'s range of it. `RouterNode` writes each arrival at its source's
//! fill cursor in one inbound row pre-sized to the schedule, so what it
//! hands back from a source is exactly the concatenation of what arrived:
//! shorter when the wire drops or truncates chunks, and longer when a
//! lying sender swaps in a longer message, which moves the later ranges
//! up instead of clipping.

use cc_resilient::majority_payload;
use cliquesim::{
    BitString, DecodeError, Inbox, NodeCtx, NodeId, NodeProgram, Outbox, Session, SimError, Status,
};

use crate::balanced::MegaLayout;
use crate::plan::{RoutePlan, Row};

/// Messages delivered to one node by a routing phase: `(source, payload)`
/// pairs, sources in increasing order, payloads per source in sending order.
pub type Delivered = Vec<(NodeId, BitString)>;

/// Errors from a routing phase.
#[derive(Debug)]
pub enum RouteError {
    /// The underlying simulation failed (bandwidth/round-limit violations).
    Sim(SimError),
    /// A received stream failed to parse (indicates a harness bug).
    Malformed(NodeId, DecodeError),
    /// The engine ran a different number of rounds than the statically
    /// computed schedule — the schedule and the engine disagree about the
    /// phase length, so delivered streams cannot be trusted.
    ScheduleMismatch {
        /// Rounds the static schedule promised.
        expected: usize,
        /// Rounds the engine actually ran.
        actual: usize,
    },
    /// A node outside the plan's crash set crashed mid-phase, so its
    /// streams may have been cut mid-chunk. This holds for every plan,
    /// including one that avoids nobody, and the session ledger keeps the
    /// pass that saw the crash. Re-plan with a crash set that covers the
    /// fault plan (see `CrashSet::from_plan`).
    UnplannedCrash(NodeId),
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::Sim(e) => write!(f, "routing simulation error: {e}"),
            RouteError::Malformed(v, e) => {
                write!(f, "node {} received a malformed stream: {e}", v.display())
            }
            RouteError::ScheduleMismatch { expected, actual } => write!(
                f,
                "engine ran {actual} rounds but the schedule promised {expected}"
            ),
            RouteError::UnplannedCrash(v) => write!(
                f,
                "node {} crashed but is not in the declared crash set",
                v.display()
            ),
        }
    }
}

impl std::error::Error for RouteError {}

impl From<SimError> for RouteError {
    fn from(e: SimError) -> Self {
        RouteError::Sim(e)
    }
}

/// The node program executing a static schedule: each round, ship the next
/// bandwidth-sized chunk of every outgoing stream; collect incoming chunks;
/// halt after the globally known schedule length.
pub(crate) struct RouterNode {
    /// This node's streams to every peer, back to back in peer order;
    /// round `r` ships bits `[a + r·B, a + (r+1)·B)` of each peer's range
    /// `[a, b)`, cut at `b` (cursor skips are O(1)).
    out: Row<BitString>,
    /// Destinations whose stream still has bits to ship, ascending: a step
    /// visits only these.
    live: Vec<usize>,
    /// What arrives, in one row pre-sized to the schedule's streams: each
    /// source's chunks go to its range, in arrival order.
    inbound: Row<BitString>,
    /// Per source, how far its range is filled.
    fill: Vec<usize>,
    /// Schedule length: number of communication rounds (globally known —
    /// in the algorithms of the paper it is a function of `n` and `k`).
    schedule: usize,
}

impl RouterNode {
    /// Node `v`'s program shipping its row `out` in `schedule` rounds and
    /// collecting, from each source, the stream `inbound` lays out for it.
    pub(crate) fn new(v: usize, out: Row<BitString>, inbound: MegaLayout, schedule: usize) -> Self {
        Self {
            live: (0..out.layout.ranges.len())
                .filter(|&w| w != v && out.layout.len(w) > 0)
                .collect(),
            out,
            fill: inbound.ranges.iter().map(|r| r.0).collect(),
            inbound: Row {
                bits: BitString::zeros(inbound.total),
                layout: inbound,
            },
            schedule,
        }
    }

    /// Make room for `len` more bits from source `u` than its range has
    /// left: what the schedule promised can differ from what arrives, as
    /// when a lying sender swaps in a longer message. The ranges after
    /// `u` move up, so every range still holds exactly what arrived.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, u: usize, len: usize) {
        let Row { bits, layout } = &mut self.inbound;
        let split = layout.ranges[u].1;
        let extra = self.fill[u] + len - split;
        let old = std::mem::replace(bits, BitString::zeros(layout.total + extra));
        bits.write_range(0, &old, 0, split)
            .expect("the ranges up to `u` are in range");
        bits.write_range(split + extra, &old, split, old.len() - split)
            .expect("the ranges after `u` are in range");
        layout.ranges[u].1 += extra;
        layout.total += extra;
        for (range, fill) in layout.ranges[u + 1..]
            .iter_mut()
            .zip(&mut self.fill[u + 1..])
        {
            *range = (range.0 + extra, range.1 + extra);
            *fill += extra;
        }
    }
}

impl NodeProgram for RouterNode {
    type Output = Row<BitString>;

    fn step(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        outbox: &mut Outbox<'_>,
    ) -> Status<Row<BitString>> {
        // Write the chunks that arrived this round at their sources' fill
        // cursors.
        if round > 0 {
            for (src, msg) in inbox.iter() {
                let u = src.index();
                let len = msg.len();
                if len > self.inbound.layout.ranges[u].1 - self.fill[u] {
                    self.grow(u, len);
                }
                self.inbound
                    .bits
                    .write_range(self.fill[u], msg, 0, len)
                    .expect("a whole message is in range");
                self.fill[u] += len;
            }
        }
        if round == self.schedule {
            // Each range ends where its source's chunks did.
            let mut inbound = std::mem::take(&mut self.inbound);
            for (range, &fill) in inbound.layout.ranges.iter_mut().zip(&self.fill) {
                range.1 = fill;
            }
            return Status::Halt(inbound);
        }
        // Ship this round's chunk of every unfinished stream, in place.
        // Every stream ships a full chunk each round until it runs out, so
        // round `r`'s chunk of every live stream starts `r·B` bits into it.
        let Row { bits, layout } = &self.out;
        self.live.retain(|&dst| {
            let (a, b) = layout.ranges[dst];
            let start = a + round * ctx.bandwidth;
            let take = ctx.bandwidth.min(b - start);
            let mut r = bits.reader();
            r.skip(start)
                .expect("live streams extend past the round's start");
            outbox
                .send_with(NodeId::from(dst), |slot| r.read_into(take, slot))
                .expect("chunk in range");
            start + take < b
        });
        Status::Continue
    }
}

/// The retransmitting router for the lossy-link tier: each stream chunk is
/// sent `repeats` times over consecutive rounds; receivers majority-vote
/// the copies of each chunk ([`cc_resilient::majority_payload`], the same
/// per-link machinery as `cc-resilient`'s `RepeatBroadcast`). A chunk
/// survives as long as intact copies outnumber corrupted ones and at least
/// one copy arrives.
pub(crate) struct ResilientRouterNode {
    /// This node's streams to every peer, back to back in peer order.
    out: Row<BitString>,
    /// `copies[src][chunk]` = the copies of chunk `chunk` received from
    /// `src` (fewer than `repeats` if the adversary dropped some).
    copies: Vec<Vec<Vec<BitString>>>,
    /// Base schedule length in chunks.
    chunks: usize,
    repeats: usize,
}

impl ResilientRouterNode {
    /// A program shipping its row `out` in `chunks` chunks, each sent
    /// `repeats` times, on an `n`-node clique.
    pub(crate) fn new(n: usize, out: Row<BitString>, chunks: usize, repeats: usize) -> Self {
        Self {
            out,
            copies: vec![vec![Vec::new(); chunks]; n],
            chunks,
            repeats,
        }
    }
}

impl NodeProgram for ResilientRouterNode {
    type Output = Row<BitString>;

    fn step(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        outbox: &mut Outbox<'_>,
    ) -> Status<Row<BitString>> {
        if round > 0 {
            let chunk = (round - 1) / self.repeats;
            for (src, msg) in inbox.iter() {
                self.copies[src.index()][chunk].push(msg.clone());
            }
        }
        if round == self.chunks * self.repeats {
            // Majority-vote each chunk and lay the winners out per source,
            // in source order.
            let mut bits = BitString::new();
            let mut ranges = Vec::with_capacity(self.copies.len());
            for chunks in &self.copies {
                let start = bits.len();
                for copies in chunks {
                    if let Some(winner) = majority_payload(copies) {
                        bits.extend_from(&winner);
                    }
                }
                ranges.push((start, bits.len()));
            }
            let total = bits.len();
            return Status::Halt(Row {
                bits,
                layout: MegaLayout { ranges, total },
            });
        }
        let chunk = round / self.repeats;
        let Row { bits, layout } = &self.out;
        for dst in 0..ctx.n {
            if dst == ctx.id.index() {
                continue;
            }
            let (a, b) = layout.ranges[dst];
            let start = a + chunk * ctx.bandwidth;
            if start >= b {
                continue;
            }
            let take = ctx.bandwidth.min(b - start);
            let mut r = bits.reader();
            r.skip(start).expect("chunk start in range");
            outbox
                .send_with(NodeId::from(dst), |slot| r.read_into(take, slot))
                .expect("chunk in range");
        }
        Status::Continue
    }
}

/// All-to-all broadcast: node `v` sends `payloads[v]` to everyone. Returns
/// for each node the full vector of payloads (including its own, copied
/// locally for free). The framed direct plan's
/// [`RoutePlan::all_to_all`].
pub fn all_to_all_broadcast(
    session: &mut Session,
    payloads: Vec<BitString>,
) -> Result<Vec<Vec<BitString>>, RouteError> {
    RoutePlan::direct().all_to_all(session, payloads)
}

/// One node broadcasts a payload of up to ~`n·B` bits to everyone in two
/// routing phases (scatter the pieces, then every holder rebroadcasts its
/// piece) — the classic congested clique doubling trick. For payloads of
/// `Θ(n log n)` bits this takes `O(1)` rounds where the naive direct
/// broadcast takes `Θ(n)`.
pub fn relay_broadcast(
    session: &mut Session,
    src: NodeId,
    payload: &BitString,
) -> Result<Vec<BitString>, RouteError> {
    let n = session.n();
    // Scatter: cut the payload into n nearly equal pieces; node i gets piece i.
    let piece_len = payload.len().div_ceil(n.max(1));
    let mut pieces: Vec<BitString> = Vec::with_capacity(n);
    {
        let mut r = payload.reader();
        for _ in 0..n {
            let take = piece_len.min(r.remaining());
            pieces.push(r.read_bits(take).expect("piece in range"));
        }
    }
    let mut demands: Vec<Vec<(NodeId, BitString)>> = vec![Vec::new(); n];
    for (i, piece) in pieces.iter().enumerate() {
        if i != src.index() {
            demands[src.index()].push((NodeId::from(i), piece.clone()));
        }
    }
    let delivered = RoutePlan::direct().run(session, demands)?;

    // Rebroadcast: node i broadcasts its piece; everyone reassembles.
    let my_piece: Vec<BitString> = (0..n)
        .map(|i| {
            if i == src.index() {
                pieces[i].clone()
            } else {
                delivered[i]
                    .first()
                    .map(|(_, p)| p.clone())
                    .unwrap_or_default()
            }
        })
        .collect();
    let views = all_to_all_broadcast(session, my_piece)?;
    Ok(views
        .into_iter()
        .map(|pieces| {
            let mut whole = BitString::with_capacity(payload.len());
            for p in &pieces {
                whole.extend_from(p);
            }
            whole
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesim::Engine;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn session(n: usize) -> Session {
        Session::new(Engine::new(n))
    }

    fn route(
        s: &mut Session,
        demands: Vec<Vec<(NodeId, BitString)>>,
    ) -> Result<Vec<Delivered>, RouteError> {
        RoutePlan::direct().run(s, demands)
    }

    #[test]
    fn single_small_message_is_one_round() {
        let mut s = session(4);
        let payload = BitString::from_bits([true, false]);
        let mut demands = vec![Vec::new(); 4];
        demands[0].push((NodeId(3), payload.clone()));
        let got = route(&mut s, demands).unwrap();
        assert_eq!(got[3], vec![(NodeId(0), payload)]);
        assert!(got[0].is_empty() && got[1].is_empty() && got[2].is_empty());
        // 2 + 32 header bits at bandwidth 2 → 17 rounds.
        assert_eq!(s.stats().rounds, 17);
    }

    #[test]
    fn wide_bandwidth_single_round() {
        let mut s = Session::new(Engine::new(4).with_bandwidth(64));
        let mut demands = vec![Vec::new(); 4];
        demands[1].push((NodeId(2), BitString::from_bits([true; 30])));
        route(&mut s, demands).unwrap();
        assert_eq!(s.stats().rounds, 1);
    }

    #[test]
    fn multiple_payloads_same_link_preserve_order() {
        let mut s = Session::new(Engine::new(3).with_bandwidth(16));
        let a = BitString::from_bits([true; 5]);
        let b = BitString::from_bits([false; 7]);
        let mut demands = vec![Vec::new(); 3];
        demands[0].push((NodeId(2), a.clone()));
        demands[0].push((NodeId(2), b.clone()));
        let got = route(&mut s, demands).unwrap();
        assert_eq!(got[2], vec![(NodeId(0), a), (NodeId(0), b)]);
    }

    #[test]
    fn rounds_match_max_link_load() {
        // One heavy link dominates the schedule.
        let n = 5;
        let mut s = Session::new(Engine::new(n).with_bandwidth(8));
        let heavy = BitString::zeros(100); // 132 bits framed → 17 rounds at B=8
        let light = BitString::zeros(4); // 36 bits framed → 5 rounds
        let mut demands = vec![Vec::new(); n];
        demands[0].push((NodeId(1), heavy));
        demands[2].push((NodeId(3), light));
        route(&mut s, demands).unwrap();
        assert_eq!(s.stats().rounds, (100 + 32usize).div_ceil(8));
    }

    #[test]
    fn all_to_all_broadcast_views_agree() {
        let n = 6;
        let mut s = session(n);
        let payloads: Vec<BitString> = (0..n)
            .map(|v| {
                let mut b = BitString::new();
                b.push_uint(v as u64, 8);
                b
            })
            .collect();
        let views = all_to_all_broadcast(&mut s, payloads.clone()).unwrap();
        for view in &views {
            assert_eq!(view, &payloads);
        }
    }

    #[test]
    fn relay_broadcast_beats_direct_for_large_payloads() {
        let n = 16;
        let payload = BitString::from_bits((0..n * 4 * 3).map(|i| i % 3 == 0));
        let mut s = session(n); // bandwidth 4
        let views = relay_broadcast(&mut s, NodeId(2), &payload).unwrap();
        for v in &views {
            assert_eq!(v, &payload);
        }
        let relay_rounds = s.stats().rounds;
        // Direct: single link ships the whole framed payload.
        let mut s2 = session(n);
        let mut demands = vec![Vec::new(); n];
        for u in 0..n {
            if u != 2 {
                demands[2].push((NodeId::from(u), payload.clone()));
            }
        }
        route(&mut s2, demands).unwrap();
        let direct_rounds = s2.stats().rounds;
        assert!(
            relay_rounds < direct_rounds,
            "relay {relay_rounds} should beat direct {direct_rounds}"
        );
    }

    #[test]
    fn zero_length_payloads_are_delivered() {
        // A zero-length payload still costs its 32-bit frame header and
        // must arrive as an explicit empty delivery, not vanish.
        let mut s = session(4);
        let mut demands = vec![Vec::new(); 4];
        demands[0].push((NodeId(2), BitString::new()));
        demands[1].push((NodeId(2), BitString::new()));
        let got = route(&mut s, demands).unwrap();
        assert_eq!(
            got[2],
            vec![(NodeId(0), BitString::new()), (NodeId(1), BitString::new())]
        );
        assert_eq!(s.stats().rounds, 32usize.div_ceil(2), "header-only frames");
    }

    #[test]
    fn two_node_clique_routes_both_directions() {
        let mut s = Session::new(Engine::new(2).with_bandwidth(8));
        let a = BitString::from_bits([true, false, true]);
        let b = BitString::from_bits([false; 6]);
        let demands = vec![vec![(NodeId(1), a.clone())], vec![(NodeId(0), b.clone())]];
        let got = route(&mut s, demands).unwrap();
        assert_eq!(got[0], vec![(NodeId(1), b)]);
        assert_eq!(got[1], vec![(NodeId(0), a)]);
    }

    #[test]
    fn all_empty_demands_cost_zero_rounds() {
        let n = 5;
        let mut s = session(n);
        let got = route(&mut s, vec![Vec::new(); n]).unwrap();
        assert!(got.iter().all(|d| d.is_empty()));
        assert_eq!(s.stats().rounds, 0, "schedule 0: no communication");
        assert_eq!(s.stats().messages, 0);
    }

    #[test]
    fn relay_broadcast_of_empty_payload() {
        let n = 4;
        let mut s = session(n);
        let views = relay_broadcast(&mut s, NodeId(1), &BitString::new()).unwrap();
        assert_eq!(views.len(), n);
        assert!(views.iter().all(|v| v.is_empty()));
    }

    #[test]
    fn relay_broadcast_on_two_nodes() {
        let mut s = Session::new(Engine::new(2).with_bandwidth(8));
        let payload = BitString::from_bits((0..20).map(|i| i % 2 == 0));
        let views = relay_broadcast(&mut s, NodeId(0), &payload).unwrap();
        assert_eq!(views, vec![payload.clone(), payload]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_route_delivers_exactly(seed in any::<u64>()) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let n = rng.gen_range(2..9);
            let mut demands: Vec<Vec<(NodeId, BitString)>> = vec![Vec::new(); n];
            let mut expected: Vec<Vec<(NodeId, BitString)>> = vec![Vec::new(); n];
            for v in 0..n {
                for _ in 0..rng.gen_range(0..4) {
                    let dst = (v + rng.gen_range(1..n)) % n;
                    let len = rng.gen_range(0..50);
                    let payload: BitString = (0..len).map(|_| rng.gen_bool(0.5)).collect();
                    demands[v].push((NodeId::from(dst), payload.clone()));
                    expected[dst].push((NodeId::from(v), payload));
                }
            }
            let mut s = session(n);
            let mut got = route(&mut s, demands).unwrap();
            for v in 0..n {
                // Compare as multisets keyed by source, preserving per-source order.
                let key = |l: &Vec<(NodeId, BitString)>| {
                    let mut m: Vec<(usize, Vec<BitString>)> = Vec::new();
                    for (src, p) in l {
                        match m.iter_mut().find(|(s, _)| *s == src.index()) {
                            Some((_, ps)) => ps.push(p.clone()),
                            None => m.push((src.index(), vec![p.clone()])),
                        }
                    }
                    m.sort_by_key(|(s, _)| *s);
                    m
                };
                prop_assert_eq!(key(&got[v]), key(&expected[v]));
                got[v].clear();
            }
        }
    }
}

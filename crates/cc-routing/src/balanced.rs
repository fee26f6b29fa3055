//! Two-phase balanced routing for globally known demand patterns.
//!
//! The direct schedule pays the *maximum per-link* load. Lenzen's
//! protocol \[43\] pays only the maximum *per-node* load (divided by the
//! node's `n−1` links) — the difference matters for patterns like the
//! matrix-multiplication redistribution, where each node talks to only
//! `n^{2/3}` of the other nodes.
//!
//! For patterns whose demand *sizes* are globally known (every pattern in
//! this workspace: they depend on `n` and `k`, not on input values), the
//! rebalancing can be done without Lenzen's sorting machinery:
//!
//! 1. every sender concatenates its outgoing streams (ordered by
//!    destination) into one megastream and scatters it in near-equal
//!    contiguous segments, one per *live* node, segment `j` going to the
//!    intermediate of live rank `(j + rank(u)) mod m` — the rotation
//!    decorrelates different senders;
//! 2. every intermediate, knowing the global layout, slices the segments it
//!    holds by final destination and forwards them; receivers reassemble by
//!    megastream position.
//!
//! Phase 1 is perfectly balanced (`⌈T_u/m⌉` bits per link). Phase 2 is
//! balanced for the regular patterns produced by the workspace's algorithms;
//! adversarially skewed patterns can degrade it, which is why the full
//! Lenzen protocol needs sorting — see DESIGN.md for the substitution
//! argument. Tests verify both delivery correctness on random patterns and
//! the round advantage on the patterns that motivated this module.
//!
//! [`crate::RoutePlan::balanced`] runs this schedule. Each phase is itself
//! a direct-schedule pass under the plan's encoding, so a framed plan
//! frames the segments and blobs too. A plan that avoids a
//! [`crate::CrashSet`] computes the same layout over the survivor list, so
//! megastream segments are remapped away from dead intermediates and phase
//! 2 still reassembles; with an empty crash set the survivor list is all of
//! `0..n` and every bit on the wire is unchanged. Priced plans walk the
//! same executor over bit counts.
//!
//! # Planning cost
//!
//! A *piece* is one non-empty overlap of a sender's megastream segment with
//! one of its per-destination ranges. Planning costs `O(n² + pieces)` per
//! call: slicing walks, for each (intermediate, sender) pair, only the
//! destination ranges that meet the segment the intermediate holds, and
//! reassembly at `w` walks, for each sender, only the segments that meet
//! the range headed to `w`. No step scans the `n³` (intermediate, receiver,
//! sender) triples.
//!
//! Reassembly depends on one invariant: the blob intermediate `p` forwards
//! to `w` is the concatenation of its pieces in ascending live-sender
//! order, with at most one piece per sender (`p` holds exactly one segment
//! of each sender's megastream). A receiver that walks the senders in
//! ascending order therefore meets every blob's pieces in the order they
//! were written, and one read cursor per intermediate suffices.

use cliquesim::NodeId;

use crate::plan::{Demands, Links, RoutePlan, Stream};
use crate::router::RouteError;

/// Bit-range bookkeeping: layout of one sender's megastream.
#[derive(Clone, Debug)]
pub(crate) struct MegaLayout {
    /// For each destination `w`, the megastream range `[start, end)` of the
    /// stream headed to `w` (empty ranges allowed).
    pub(crate) ranges: Vec<(usize, usize)>,
    /// Total megastream length.
    pub(crate) total: usize,
}

impl MegaLayout {
    pub(crate) fn new(stream_sizes: impl IntoIterator<Item = usize>) -> Self {
        let mut pos = 0;
        let ranges = stream_sizes
            .into_iter()
            .map(|s| {
                pos += s;
                (pos - s, pos)
            })
            .collect();
        MegaLayout { ranges, total: pos }
    }

    /// The non-empty overlaps of segment `j` (of `m`) with the destination
    /// ranges, as `(w, start, end)` megastream positions in ascending `w`.
    pub(crate) fn segment_pieces(
        &self,
        m: usize,
        j: usize,
    ) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let (sa, sb) = segment_range(self.total, m, j);
        // Range ends ascend, so the ranges ending at or before `sa` are a
        // prefix.
        let first = self.ranges.partition_point(|r| r.1 <= sa);
        self.ranges[first..]
            .iter()
            .take_while(move |r| r.0 < sb)
            .zip(first..)
            .filter_map(move |(&(ra, rb), w)| {
                let (ia, ib) = (sa.max(ra), sb.min(rb));
                (ia < ib).then_some((w, ia, ib))
            })
    }

    /// The non-empty overlaps of destination `w`'s range with the `m`
    /// segments, as `(j, start, end)` megastream positions in ascending `j`.
    pub(crate) fn range_pieces(
        &self,
        m: usize,
        w: usize,
    ) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let (ra, rb) = self.ranges[w];
        let seg = segment_len(self.total, m);
        let segments = if ra < rb {
            ra / seg..(rb - 1) / seg + 1
        } else {
            0..0
        };
        segments.map(move |j| {
            let (sa, sb) = segment_range(self.total, m, j);
            (j, sa.max(ra), sb.min(rb))
        })
    }
}

/// Length of all but the trailing segments when a megastream of length
/// `total` is split into `m` near-equal contiguous parts.
fn segment_len(total: usize, m: usize) -> usize {
    total.div_ceil(m).max(1)
}

/// Segment `j` of a megastream of length `total` split into `m` near-equal
/// contiguous parts: `[j*ceil(total/m), min((j+1)*ceil(total/m), total))`.
pub(crate) fn segment_range(total: usize, m: usize, j: usize) -> (usize, usize) {
    let seg = segment_len(total, m);
    ((j * seg).min(total), ((j + 1) * seg).min(total))
}

/// The two-phase plan over the live node list: one megastream layout per
/// sender, over its encoded per-destination streams. With `live == 0..n`
/// it is the original balanced schedule; with a survivor list every
/// megastream segment lands on a surviving intermediate and every layout
/// range involves only surviving endpoints.
pub(crate) struct TwoPhase<'a> {
    n: usize,
    /// Surviving node indices, ascending; a node's *rank* is its index
    /// here.
    live: &'a [usize],
    layouts: Vec<MegaLayout>,
}

impl<'a> TwoPhase<'a> {
    pub(crate) fn new<S: Stream>(live: &'a [usize], links: &Links<S>) -> Self {
        Self {
            n: links.len(),
            live,
            layouts: links
                .iter()
                .map(|row| MegaLayout::new(row.iter().map(S::bits)))
                .collect(),
        }
    }

    /// Phase-1 demands (scatter megastream segments) plus the `held[p][u]`
    /// matrix pre-seeded with the segments each sender keeps locally.
    pub(crate) fn scatter<S: Stream>(&self, megas: &[S]) -> (Demands<S>, Links<S>) {
        let m = self.live.len();
        let mut phase1: Demands<S> = vec![Vec::new(); self.n];
        let mut held: Links<S> = vec![vec![S::default(); self.n]; self.n];
        for (ui, &u) in self.live.iter().enumerate() {
            for j in 0..m {
                let (a, b) = segment_range(self.layouts[u].total, m, j);
                if a >= b {
                    continue;
                }
                let mut seg = S::default();
                seg.push_range(&megas[u], a, b - a)
                    .expect("segments lie inside the megastream");
                let p = self.live[(j + ui) % m];
                if p == u {
                    held[p][u] = seg; // kept locally, free
                } else {
                    phase1[u].push((NodeId::from(p), seg));
                }
            }
        }
        (phase1, held)
    }

    /// Phase-2 demands (slice held segments by destination and forward)
    /// plus `got[w][p]` pre-seeded with the blob each node `w` keeps for
    /// itself.
    pub(crate) fn slice<S: Stream>(
        &self,
        held: &Links<S>,
    ) -> Result<(Demands<S>, Links<S>), RouteError> {
        let m = self.live.len();
        let mut phase2: Demands<S> = vec![Vec::new(); self.n];
        let mut got: Links<S> = vec![vec![S::default(); self.n]; self.n];
        let mut blobs = vec![S::default(); self.n];
        for (pi, &p) in self.live.iter().enumerate() {
            for (ui, &u) in self.live.iter().enumerate() {
                // p holds segment j of u's megastream: the j with
                // live[(j + ui) % m] == p.
                let j = (pi + m - ui) % m;
                let sa = segment_range(self.layouts[u].total, m, j).0;
                for (w, ia, ib) in self.layouts[u].segment_pieces(m, j) {
                    blobs[w]
                        .push_range(&held[p][u], ia - sa, ib - ia)
                        .map_err(|e| RouteError::Malformed(NodeId::from(p), e))?;
                }
            }
            for (w, blob) in blobs.iter_mut().enumerate() {
                if blob.bits() == 0 {
                    continue;
                }
                let blob = std::mem::take(blob);
                if p == w {
                    got[w][p] = blob;
                } else {
                    phase2[p].push((NodeId::from(w), blob));
                }
            }
        }
        Ok((phase2, got))
    }

    /// Reassemble `collected[w][u]`, the stream each live receiver `w`
    /// gets from each live sender `u`, from the blobs `got[w][p]`, reading
    /// each blob in the ascending-sender order it was written in.
    pub(crate) fn reassemble<S: Stream>(&self, got: &Links<S>) -> Result<Links<S>, RouteError> {
        let m = self.live.len();
        let mut collected: Links<S> = vec![vec![S::default(); self.n]; self.n];
        for &w in self.live {
            let mut cursors = vec![0usize; self.n];
            for (ui, &u) in self.live.iter().enumerate() {
                let stream = &mut collected[w][u];
                for (j, ia, ib) in self.layouts[u].range_pieces(m, w) {
                    let p = self.live[(j + ui) % m];
                    stream
                        .push_range(&got[w][p], cursors[p], ib - ia)
                        .map_err(|e| RouteError::Malformed(NodeId::from(w), e))?;
                    cursors[p] += ib - ia;
                }
            }
        }
        Ok(collected)
    }
}

/// The one two-phase executor: lay out each sender's encoded streams
/// `links[u][w]` as a megastream, scatter it over the live intermediates,
/// slice what they hold by destination and forward it, and reassemble
/// what each receiver collected from each source. `ship` runs each phase
/// as one direct-schedule pass (see `RoutePlan::relay`).
pub(crate) fn two_phase<S: Stream>(
    plan: &RoutePlan,
    live: &[usize],
    links: Links<S>,
    ship: &mut impl FnMut(Links<S>) -> Result<Links<S>, RouteError>,
) -> Result<Links<S>, RouteError> {
    let schedule = TwoPhase::new(live, &links);
    let megas: Vec<S> = links.into_iter().map(concat).collect();
    let (phase1, mut held) = schedule.scatter(&megas);
    drop(megas);
    fill(&mut held, plan.relay(phase1, ship)?);
    let (phase2, mut got) = schedule.slice(&held)?;
    drop(held);
    fill(&mut got, plan.relay(phase2, ship)?);
    schedule.reassemble(&got)
}

/// One sender's megastream: its per-destination streams in destination
/// order.
fn concat<S: Stream>(row: Vec<S>) -> S {
    let mut mega = S::default();
    for s in &row {
        mega.push_range(s, 0, s.bits())
            .expect("a whole stream is in range");
    }
    mega
}

/// Copy every non-empty `from[v][u]` into `into[v][u]`.
fn fill<S: Stream>(into: &mut Links<S>, from: Links<S>) {
    for (row, got) in into.iter_mut().zip(from) {
        for (slot, s) in row.iter_mut().zip(got) {
            if s.bits() > 0 {
                *slot = s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CrashSet, Delivered};
    use cliquesim::{BitString, Engine, Session};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn session(n: usize) -> Session {
        Session::new(Engine::new(n))
    }

    fn normalise(mut d: Vec<Delivered>) -> Vec<Vec<(usize, Vec<bool>)>> {
        d.iter_mut()
            .map(|list| {
                let mut v: Vec<(usize, Vec<bool>)> = list
                    .iter()
                    .map(|(s, p)| (s.index(), p.iter().collect()))
                    .collect();
                v.sort();
                v
            })
            .collect()
    }

    fn random_demands(n: usize, seed: u64, max_len: usize) -> Demands<BitString> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut demands: Demands<BitString> = vec![Vec::new(); n];
        for v in 0..n {
            for _ in 0..rng.gen_range(0..4) {
                let dst = (v + rng.gen_range(1..n)) % n;
                let len = rng.gen_range(0..max_len);
                let payload: BitString = (0..len).map(|_| rng.gen_bool(0.5)).collect();
                demands[v].push((NodeId::from(dst), payload));
            }
        }
        demands
    }

    fn direct(s: &mut Session, demands: Demands<BitString>) -> Vec<Delivered> {
        RoutePlan::direct().run(s, demands).unwrap()
    }

    fn balanced(s: &mut Session, demands: Demands<BitString>) -> Vec<Delivered> {
        RoutePlan::balanced().run(s, demands).unwrap()
    }

    #[test]
    fn balanced_matches_direct_on_simple_pattern() {
        let n = 6;
        for seed in 0..8 {
            let mut s1 = session(n);
            let want = direct(&mut s1, random_demands(n, seed, 30));
            let mut s2 = session(n);
            let got = balanced(&mut s2, random_demands(n, seed, 30));
            assert_eq!(normalise(want), normalise(got), "seed {seed}");
        }
    }

    #[test]
    fn balanced_beats_direct_on_skewed_pattern() {
        // One node sends a large payload to a single destination: the direct
        // schedule serialises it over one link; the balanced schedule
        // spreads it over all links.
        let n = 16;
        let payload = BitString::from_bits((0..n * 4 * 8).map(|i| i % 5 == 0));
        let mk = || {
            let mut d: Demands<BitString> = vec![Vec::new(); n];
            d[0].push((NodeId(9), payload.clone()));
            d
        };
        let mut s1 = session(n);
        direct(&mut s1, mk());
        let mut s2 = session(n);
        let got = balanced(&mut s2, mk());
        assert_eq!(got[9].len(), 1);
        assert_eq!(got[9][0].1, payload);
        assert!(
            s2.stats().rounds < s1.stats().rounds,
            "balanced {} should beat direct {}",
            s2.stats().rounds,
            s1.stats().rounds
        );
    }

    #[test]
    fn balanced_zero_length_megastream_is_free() {
        // A node with no demands has a zero-length megastream; nodes with
        // demands still route, and the empty sender costs nothing.
        let n = 5;
        let mut s = session(n);
        let mut demands: Demands<BitString> = vec![Vec::new(); n];
        demands[1].push((NodeId(3), BitString::from_bits([true, false, true])));
        let got = balanced(&mut s, demands);
        assert_eq!(got[3].len(), 1);
        assert_eq!(got[3][0].0, NodeId(1));
        // All-empty demand set: schedule 0, nothing delivered.
        let mut s2 = session(n);
        let got2 = balanced(&mut s2, vec![Vec::new(); n]);
        assert!(got2.iter().all(|d| d.is_empty()));
        assert_eq!(s2.stats().rounds, 0);
    }

    #[test]
    fn rejoined_intermediate_is_readmitted_in_the_next_wave() {
        use cliquesim::FaultPlan;
        // Waves on a fixed 40-round cadence: node 2 is down for all of
        // wave 1 (plan rounds 0..40) and back from round 40 on. The
        // windowed crash sets avoid it in wave 1 and re-admit it in wave
        // 2, where it carries megastream segments and receives again.
        let n = 6;
        let plan = FaultPlan::new(0)
            .crash(NodeId(2), 0)
            .rejoin(NodeId(2), 40)
            .expect("crash precedes rejoin");
        let mut s = Session::new(Engine::new(n).with_fault_plan(plan.clone()));
        let wave1 = CrashSet::from_plan_window(&plan, 0..40);
        assert!(wave1.is_dead(NodeId(2)));
        let out1 = RoutePlan::balanced()
            .avoiding(&wave1)
            .run_faulted(&mut s, random_demands(n, 3, 30))
            .unwrap();
        assert!(out1.delivered[2].is_none(), "down for the whole wave");
        let touching_dead = random_demands(n, 3, 30)
            .iter()
            .enumerate()
            .flat_map(|(s, list)| list.iter().map(move |(d, _)| (s, d.index())))
            .filter(|(s, d)| *s == 2 || *d == 2)
            .count();
        assert_eq!(out1.undeliverable.len(), touching_dead);
        // Advance the fault clock to the wave boundary and re-plan: the
        // completed crash/rejoin pair drops out of the window.
        s.set_fault_offset(40);
        let wave2 = CrashSet::from_plan_window(&plan, 40..usize::MAX);
        assert!(wave2.is_empty(), "node 2 recovered: {wave2}");
        let out2 = RoutePlan::balanced()
            .avoiding(&wave2)
            .run_faulted(&mut s, random_demands(n, 4, 30))
            .unwrap();
        assert!(out2.delivered[2].is_some(), "re-admitted after its rejoin");
        assert!(out2.undeliverable.is_empty());
        // Wave 2 deliveries match the unfaulted balanced route exactly.
        let mut clean = session(n);
        let want = balanced(&mut clean, random_demands(n, 4, 30));
        let got: Vec<Delivered> = out2
            .delivered
            .into_iter()
            .map(|d| d.expect("all alive"))
            .collect();
        assert_eq!(normalise(want), normalise(got));
    }

    // -----------------------------------------------------------------
    // Sweep oracle: the cubic (intermediate, receiver, sender) scans the
    // overlap sweeps replaced, kept as reference implementations.
    // -----------------------------------------------------------------

    /// Reference `slice`: for every (p, w), scan every live sender u.
    fn slice_reference(
        plan: &TwoPhase,
        held: &Links<BitString>,
    ) -> (Demands<BitString>, Links<BitString>) {
        let m = plan.live.len();
        let mut phase2: Demands<BitString> = vec![Vec::new(); plan.n];
        let mut got: Links<BitString> = vec![vec![BitString::new(); plan.n]; plan.n];
        for (pi, &p) in plan.live.iter().enumerate() {
            for w in 0..plan.n {
                let mut blob = BitString::new();
                for (ui, &u) in plan.live.iter().enumerate() {
                    let j = (pi + m - ui) % m;
                    let (sa, sb) = segment_range(plan.layouts[u].total, m, j);
                    let (ra, rb) = plan.layouts[u].ranges[w];
                    let (ia, ib) = (sa.max(ra), sb.min(rb));
                    if ia >= ib {
                        continue;
                    }
                    let mut r = held[p][u].reader();
                    r.skip(ia - sa).expect("in range");
                    blob.extend_from(&r.read_bits(ib - ia).expect("in range"));
                }
                if blob.is_empty() {
                    continue;
                }
                if p == w {
                    got[w][p] = blob;
                } else {
                    phase2[p].push((NodeId::from(w), blob));
                }
            }
        }
        (phase2, got)
    }

    /// Reference `reassemble`: scan every (p, u) pair, collect explicit
    /// `(megastream position, bits)` pieces, and stitch them per sender in
    /// position order.
    fn reassemble_reference(plan: &TwoPhase, w: usize, got: &Links<BitString>) -> Vec<BitString> {
        let m = plan.live.len();
        let mut per_sender: Vec<Vec<(usize, BitString)>> = vec![Vec::new(); plan.n];
        let mut cursors = vec![0usize; plan.n];
        for (pi, &p) in plan.live.iter().enumerate() {
            for (ui, &u) in plan.live.iter().enumerate() {
                let j = (pi + m - ui) % m;
                let (sa, sb) = segment_range(plan.layouts[u].total, m, j);
                let (ra, rb) = plan.layouts[u].ranges[w];
                let (ia, ib) = (sa.max(ra), sb.min(rb));
                if ia >= ib {
                    continue;
                }
                let mut r = got[w][p].reader();
                r.skip(cursors[p]).expect("blob covers its pieces");
                per_sender[u].push((ia, r.read_bits(ib - ia).expect("in range")));
                cursors[p] += ib - ia;
            }
        }
        (0..plan.n)
            .map(|u| {
                let (ra, rb) = plan.layouts[u].ranges[w];
                let mut pieces = std::mem::take(&mut per_sender[u]);
                pieces.sort_by_key(|(pos, _)| *pos);
                let mut stream = BitString::new();
                for (pos, bits) in pieces {
                    assert_eq!(pos, ra + stream.len(), "pieces must tile the range");
                    stream.extend_from(&bits);
                }
                assert_eq!(stream.len(), rb - ra, "pieces must cover the range");
                stream
            })
            .collect()
    }

    /// Random bits of the given length.
    fn bits(rng: &mut rand_chacha::ChaCha8Rng, len: usize) -> BitString {
        (0..len).map(|_| rng.gen_bool(0.5)).collect()
    }

    /// A random live subset of `0..n` (never empty) and demands between
    /// live endpoints, in one of four shapes: short payloads (megastreams
    /// shorter than `m`, so many segments are empty), medium payloads,
    /// zero-length payloads mixed in, or a single giant stream.
    fn oracle_case(seed: u64) -> (usize, Vec<usize>, Demands<BitString>) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let n = rng.gen_range(2..40);
        let dead_frac = [0.0, 0.2, 0.5][rng.gen_range(0..3usize)];
        let mut live: Vec<usize> = (0..n).filter(|_| !rng.gen_bool(dead_frac)).collect();
        if live.is_empty() {
            live.push(rng.gen_range(0..n));
        }
        let mut demands: Demands<BitString> = vec![Vec::new(); n];
        if live.len() < 2 {
            return (n, live, demands);
        }
        let shape = rng.gen_range(0..4usize);
        if shape == 3 {
            let u = live[rng.gen_range(0..live.len())];
            let w = *live.iter().find(|&&w| w != u).expect("two live nodes");
            let len = rng.gen_range(1..4000);
            demands[u].push((NodeId::from(w), bits(&mut rng, len)));
            return (n, live, demands);
        }
        let max_len: usize = [3, 120, 40][shape];
        for &u in &live {
            for _ in 0..rng.gen_range(0..6) {
                let w = live[rng.gen_range(0..live.len())];
                if w == u {
                    continue;
                }
                let len = if shape == 2 && rng.gen_bool(0.5) {
                    0
                } else {
                    rng.gen_range(0..max_len)
                };
                demands[u].push((NodeId::from(w), bits(&mut rng, len)));
            }
        }
        (n, live, demands)
    }

    /// Run one oracle case under one encoding: both phases are delivered
    /// locally (no engine), then the sweep and the reference must agree on
    /// phase-2 demands, kept blobs and every receiver's reassembled
    /// streams, which must equal what each sender encoded.
    fn check_against_reference(
        seed: u64,
        plan: RoutePlan,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let (_, live, demands) = oracle_case(seed);
        let links = plan.encode(demands);
        let schedule = TwoPhase::new(&live, &links);
        let megas: Vec<BitString> = links.iter().cloned().map(concat).collect();
        let (phase1, mut held) = schedule.scatter(&megas);
        for (u, list) in phase1.into_iter().enumerate() {
            for (p, seg) in list {
                held[p.index()][u] = seg;
            }
        }
        let (phase2, mut got) = schedule.slice(&held).unwrap();
        let (phase2_ref, got_ref) = slice_reference(&schedule, &held);
        prop_assert_eq!(
            &phase2,
            &phase2_ref,
            "seed {}: phase-2 demands diverge",
            seed
        );
        prop_assert_eq!(&got, &got_ref, "seed {}: kept blobs diverge", seed);
        for (p, list) in phase2.into_iter().enumerate() {
            for (w, blob) in list {
                got[w.index()][p] = blob;
            }
        }
        let collected = schedule.reassemble(&got).unwrap();
        for &w in &live {
            let want = reassemble_reference(&schedule, w, &got);
            prop_assert_eq!(
                &collected[w],
                &want,
                "seed {}: streams at {} diverge",
                seed,
                w
            );
            for &u in &live {
                prop_assert_eq!(
                    &collected[w][u],
                    &links[u][w],
                    "seed {}: {} -> {}",
                    seed,
                    u,
                    w
                );
            }
        }
        Ok(())
    }

    #[test]
    fn sweeps_visit_exactly_the_nonempty_overlaps() {
        // Megastream of 10 bits split over m = 4 segments of 3: the ranges
        // [0,0) [0,4) [4,4) [4,10) meet the segments [0,3) [3,6) [6,9)
        // [9,10) in five pieces.
        let layout = MegaLayout::new([0, 4, 0, 6]);
        let by_segment: Vec<_> = (0..4).flat_map(|j| layout.segment_pieces(4, j)).collect();
        assert_eq!(
            by_segment,
            vec![(1, 0, 3), (1, 3, 4), (3, 4, 6), (3, 6, 9), (3, 9, 10)]
        );
        let by_range: Vec<_> = (0..4)
            .flat_map(|w| layout.range_pieces(4, w).map(move |(j, a, b)| (w, j, a, b)))
            .collect();
        assert_eq!(
            by_range,
            vec![
                (1, 0, 0, 3),
                (1, 1, 3, 4),
                (3, 1, 4, 6),
                (3, 2, 6, 9),
                (3, 3, 9, 10)
            ]
        );
        // Fewer bits than segments: the trailing segments are empty.
        let short = MegaLayout::new([2, 0]);
        assert_eq!(short.segment_pieces(5, 3).count(), 0);
        assert_eq!(short.range_pieces(5, 1).count(), 0);
        assert_eq!(
            short.range_pieces(5, 0).collect::<Vec<_>>(),
            [(0, 0, 1), (1, 1, 2)]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_balanced_delivers_exactly(seed in any::<u64>()) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let n = rng.gen_range(2..8);
            let demands = random_demands(n, seed.wrapping_add(1), 60);
            let mut s1 = session(n);
            let want = direct(&mut s1, demands.clone());
            let mut s2 = session(n);
            let got = balanced(&mut s2, demands);
            prop_assert_eq!(normalise(want), normalise(got));
        }

        #[test]
        fn prop_empty_crash_set_is_byte_identical(seed in any::<u64>()) {
            // Transparency, mirroring `assert_empty_plans_transparent`: the
            // balanced plan avoiding an empty crash set must reproduce the
            // plain balanced plan exactly — same deliveries, same rounds,
            // same bits on the wire.
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let n = rng.gen_range(2..8);
            let demands = random_demands(n, seed.wrapping_add(2), 60);
            let mut s1 = session(n);
            let plain = balanced(&mut s1, demands.clone());
            let mut s2 = session(n);
            let faulted = RoutePlan::balanced()
                .avoiding(&CrashSet::new())
                .run_faulted(&mut s2, demands)
                .unwrap();
            prop_assert!(faulted.undeliverable.is_empty());
            prop_assert!(faulted.report.is_empty());
            let unwrapped: Vec<Delivered> = faulted
                .delivered
                .into_iter()
                .map(|d| d.expect("no node is dead"))
                .collect();
            prop_assert_eq!(&plain, &unwrapped, "deliveries diverge");
            prop_assert_eq!(s1.stats(), s2.stats(), "wire cost diverges");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_sweep_matches_cubic_reference_framed(seed in any::<u64>()) {
            check_against_reference(seed, RoutePlan::balanced())?;
        }

        #[test]
        fn prop_sweep_matches_cubic_reference_sized(seed in any::<u64>()) {
            check_against_reference(seed, RoutePlan::balanced().sized())?;
        }
    }
}

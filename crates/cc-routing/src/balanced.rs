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
//! 1. every sender's encoded row — its outgoing streams back to back in
//!    destination order — is its megastream, which it scatters in
//!    near-equal contiguous segments, one per *live* node, segment `j`
//!    going to the intermediate of live rank `(j + rank(u)) mod m` — the
//!    rotation decorrelates different senders;
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
//! Every stage works on one row per node, never on a stream per link:
//! scatter and slice write the next pass's rows in place (headers
//! included), a segment a sender keeps for itself is read straight from
//! its megastream, what an intermediate holds is read straight from the
//! row it received, and reassembly writes each receiver's final row, its
//! sources' streams in source order, which the decoder splits.
//!
//! # Planning cost
//!
//! A *piece* is one non-empty overlap of a sender's megastream segment with
//! one of its per-destination ranges. Planning costs `O(n² + pieces)` per
//! call: slicing walks, for each (intermediate, sender) pair, only the
//! destination ranges that meet the segment the intermediate holds,
//! collecting its pieces so it can size every blob before it fills them,
//! and each sender's walk starts where its previous segment's did (the
//! segments a sender hands ascending intermediates ascend, wrapping once);
//! reassembly at `w` walks, for each sender, only the segments that meet
//! the range headed to `w`. No step scans the `n³` (intermediate,
//! receiver, sender) triples.
//!
//! Reassembly depends on one invariant: the blob intermediate `p` forwards
//! to `w` is the concatenation of its pieces in ascending live-sender
//! order, with at most one piece per sender (`p` holds exactly one segment
//! of each sender's megastream). A receiver that walks the senders in
//! ascending order therefore meets every blob's pieces in the order they
//! were written, and one read cursor per intermediate suffices.

use cliquesim::{DecodeError, NodeId};

use crate::plan::{columns, RoutePlan, Row, Stream};
use crate::router::RouteError;

/// Bit-range bookkeeping for one row: for each peer, the range of the row
/// that holds the stream to (or from) it.
#[derive(Clone, Debug, Default)]
pub(crate) struct MegaLayout {
    /// For each peer `w`, the range `[start, end)` of the stream to or
    /// from `w` (empty ranges allowed). A row that is sent lays its
    /// ranges back to back in peer order, which makes it a megastream.
    pub(crate) ranges: Vec<(usize, usize)>,
    /// Length of the row: for a row that is sent, its megastream's.
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

    /// The length of `peer`'s stream.
    pub(crate) fn len(&self, peer: usize) -> usize {
        let (a, b) = self.ranges[peer];
        b - a
    }

    /// Every peer's stream length, in peer order.
    pub(crate) fn lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.ranges.iter().map(|&(a, b)| b - a)
    }

    /// The non-empty overlaps of segment `j` (of `m`) with the destination
    /// ranges, as `(w, start, end)` megastream positions in ascending `w`.
    /// `first` is where the previous call's scan started: a caller that
    /// walks the segments in ascending order, wrapping at most once, scans
    /// each range a bounded number of times.
    pub(crate) fn segment_pieces(
        &self,
        m: usize,
        j: usize,
        first: &mut usize,
    ) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let (sa, sb) = segment_range(self.total, m, j);
        // Range ends ascend, so the ranges ending at or before `sa` are a
        // prefix. The hint is in that prefix unless the segments wrapped.
        if *first > 0 && self.ranges[*first - 1].1 > sa {
            *first = 0;
        }
        while self.ranges.get(*first).is_some_and(|r| r.1 <= sa) {
            *first += 1;
        }
        let first = *first;
        self.ranges[first..]
            .iter()
            .take_while(move |r| r.0 < sb)
            .zip(first..)
            .filter_map(move |(&(ra, rb), w)| {
                let (ia, ib) = (sa.max(ra), sb.min(rb));
                (ia < ib).then_some((w, ia, ib))
            })
    }
}

/// The non-empty overlaps of the range `ra..rb` of a megastream of length
/// `total` with its `m` segments, as `(j, start, end)` megastream positions
/// in ascending `j`.
pub(crate) fn range_pieces(
    total: usize,
    m: usize,
    (ra, rb): (usize, usize),
) -> impl Iterator<Item = (usize, usize, usize)> {
    let seg = segment_len(total, m);
    let segments = if ra < rb {
        ra / seg..(rb - 1) / seg + 1
    } else {
        0..0
    };
    segments.map(move |j| {
        let (sa, sb) = segment_range(total, m, j);
        (j, sa.max(ra), sb.min(rb))
    })
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

/// The two-phase plan over the live node list and the senders' encoded
/// rows, each of which is that sender's megastream. With `live == 0..n`
/// it is the original balanced schedule; with a survivor list every
/// megastream segment lands on a surviving intermediate and every layout
/// range involves only surviving endpoints.
pub(crate) struct TwoPhase<'a, S> {
    n: usize,
    /// Surviving node indices, ascending; a node's *rank* is its index
    /// here.
    live: &'a [usize],
    /// `rank[v]`: `v`'s rank, if it survives.
    rank: Vec<Option<usize>>,
    /// Each sender's encoded row: its megastream and that stream's layout.
    rows: Vec<Row<S>>,
    /// Frame header bits per forwarded stream (zero when sized).
    header: usize,
}

impl<'a, S: Stream> TwoPhase<'a, S> {
    pub(crate) fn new(live: &'a [usize], rows: Vec<Row<S>>, header: usize) -> Self {
        let n = rows.len();
        let mut rank = vec![None; n];
        for (i, &v) in live.iter().enumerate() {
            rank[v] = Some(i);
        }
        Self {
            n,
            live,
            rank,
            rows,
            header,
        }
    }

    /// The segment of `u`'s megastream (`u` of rank `ui`) that the node of
    /// rank `pi` holds: the `j` with `live[(j + ui) % m] == live[pi]`.
    fn segment(&self, pi: usize, ui: usize, u: usize) -> (usize, usize) {
        let m = self.live.len();
        segment_range(self.rows[u].layout.total, m, (pi + m - ui) % m)
    }

    /// Phase-1 rows: each live sender's row over intermediates, every
    /// non-empty segment it does not keep (segment 0 stays home) behind a
    /// header when framed.
    pub(crate) fn scatter(&self) -> Vec<Row<S>> {
        (0..self.n)
            .map(|u| {
                // The segment `u` ships to `p`, if any.
                let shipped = |p: usize| {
                    let (ui, pi) = (self.rank[u]?, self.rank[p]?);
                    let (a, b) = self.segment(pi, ui, u);
                    (p != u && a < b).then_some((a, b))
                };
                let sizes = (0..self.n).map(|p| shipped(p).map_or(0, |(a, b)| self.header + b - a));
                let mut row = Row::<S>::presized(sizes);
                for p in 0..self.n {
                    let Some((a, b)) = shipped(p) else { continue };
                    let at = row.layout.ranges[p].0;
                    if self.header > 0 {
                        row.bits.write_header(at, b - a);
                    }
                    row.bits
                        .write(at + self.header, &self.rows[u].bits, a, b - a);
                }
                row
            })
            .collect()
    }

    /// Phase-2 rows (slice the segments each intermediate holds by
    /// destination and forward them, each blob behind a header when
    /// framed) plus the blob each node keeps for itself. Intermediate `p`
    /// holds each sender's segment in `held[p]`, the row it received in
    /// phase 1 with every range narrowed to its payload, except its own,
    /// which it reads from its megastream.
    pub(crate) fn slice(&self, held: &[Row<S>]) -> Result<(Vec<Row<S>>, Vec<S>), RouteError> {
        let m = self.live.len();
        let mut phase2 = Vec::with_capacity(self.n);
        let mut kept = Vec::with_capacity(self.n);
        let mut blob = vec![0usize; self.n];
        let mut cursor = vec![0usize; self.n];
        // Per sender, where its last segment's scan started: as `p`
        // ascends, the segment each sender hands `p` ascends too.
        let mut first = vec![0usize; self.n];
        // `p`'s pieces in (sender, destination) order: `(w, u, position
        // in the held stream, length)`.
        let mut pieces = Vec::new();
        for p in 0..self.n {
            let Some(pi) = self.rank[p] else {
                phase2.push(Row::presized(std::iter::repeat_n(0, self.n)));
                kept.push(S::default());
                continue;
            };
            blob.fill(0);
            pieces.clear();
            for (ui, &u) in self.live.iter().enumerate() {
                let j = (pi + m - ui) % m;
                let layout = &self.rows[u].layout;
                let (sa, sb) = segment_range(layout.total, m, j);
                let (base, len) = if u == p {
                    (sa, sb - sa)
                } else {
                    let (a, b) = held[p].layout.ranges[u];
                    (a, b - a)
                };
                for (w, ia, ib) in layout.segment_pieces(m, j, &mut first[u]) {
                    let (off, want) = (ia - sa, ib - ia);
                    if off + want > len {
                        return Err(malformed(p, off, want, len));
                    }
                    blob[w] += want;
                    pieces.push((w, u, base + off, want));
                }
            }
            // Lay the row out by blob size, then fill it.
            let forwarded = |w: usize| w != p && blob[w] > 0;
            let mut row = Row::<S>::presized((0..self.n).map(|w| {
                if forwarded(w) {
                    self.header + blob[w]
                } else {
                    0
                }
            }));
            let mut mine = S::zeros(blob[p]);
            for (w, &(at, _)) in row.layout.ranges.iter().enumerate() {
                cursor[w] = at + self.header;
                if forwarded(w) && self.header > 0 {
                    row.bits.write_header(at, blob[w]);
                }
            }
            cursor[p] = 0;
            for &(w, u, at, want) in &pieces {
                let src = if u == p {
                    &self.rows[p].bits
                } else {
                    &held[p].bits
                };
                let dst = if w == p { &mut mine } else { &mut row.bits };
                dst.write(cursor[w], src, at, want);
                cursor[w] += want;
            }
            phase2.push(row);
            kept.push(mine);
        }
        Ok((phase2, kept))
    }

    /// Reassemble each live receiver `w`'s final row — the stream from
    /// every live sender, in sender order — from the blobs it got: from
    /// `p`, the range for `p` of `got[w]`, the row it received in phase 2
    /// with every range narrowed to its payload, or `kept[w]` for itself.
    /// Each blob is read in the ascending-sender order it was written in.
    pub(crate) fn reassemble(&self, got: &[Row<S>], kept: &[S]) -> Result<Vec<Row<S>>, RouteError> {
        let m = self.live.len();
        let mut cursor = vec![0usize; self.n];
        let mut received = Vec::with_capacity(self.n);
        for (w, column) in columns(&self.rows).into_iter().enumerate() {
            if self.rank[w].is_none() {
                received.push(Row::default());
                continue;
            }
            let mut row = Row::<S>::presized(column.iter().map(|&(a, b)| b - a));
            cursor.fill(0);
            for (ui, &u) in self.live.iter().enumerate() {
                let mut at = row.layout.ranges[u].0;
                for (j, ia, ib) in range_pieces(self.rows[u].layout.total, m, column[u]) {
                    let p = self.live[(j + ui) % m];
                    let (src, base, len) = if p == w {
                        (&kept[w], 0, kept[w].bits())
                    } else {
                        let (a, b) = got[w].layout.ranges[p];
                        (&got[w].bits, a, b - a)
                    };
                    let want = ib - ia;
                    if cursor[p] + want > len {
                        return Err(malformed(w, cursor[p], want, len));
                    }
                    row.bits.write(at, src, base + cursor[p], want);
                    at += want;
                    cursor[p] += want;
                }
            }
            received.push(row);
        }
        Ok(received)
    }
}

/// Node `v` found `wanted` bits missing at `at` of a `len`-bit stream it
/// received: the error a reader over a copy of that stream reports.
fn malformed(v: usize, at: usize, wanted: usize, len: usize) -> RouteError {
    RouteError::Malformed(NodeId::from(v), DecodeError { at, wanted, len })
}

/// The one two-phase executor: scatter each sender's encoded row, its
/// megastream, over the live intermediates, slice what they hold by
/// destination and forward it, and reassemble the row each receiver got
/// from every source. `ship` runs each phase as one direct-schedule pass
/// (see `RoutePlan::relay`).
pub(crate) fn two_phase<S: Stream>(
    plan: &RoutePlan,
    live: &[usize],
    rows: Vec<Row<S>>,
    ship: &mut impl FnMut(Vec<Row<S>>) -> Result<Vec<Row<S>>, RouteError>,
) -> Result<Vec<Row<S>>, RouteError> {
    let schedule = TwoPhase::new(live, rows, plan.header_bits());
    let held = plan.relay(schedule.scatter(), ship)?;
    let (phase2, kept) = schedule.slice(&held)?;
    drop(held);
    let got = plan.relay(phase2, ship)?;
    schedule.reassemble(&got, &kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::copy_range;
    use crate::plan::{transpose, Demands};
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

    /// The references' shape: `links[u][w]`, one string per link.
    type PerLink = Vec<Vec<BitString>>;

    /// Every peer's stream of `row`, as a string of its own.
    fn streams(row: &Row<BitString>) -> Vec<BitString> {
        row.layout
            .ranges
            .iter()
            .map(|&range| copy_range(&row.bits, range))
            .collect()
    }

    /// Reference `slice`: for every (p, w), scan every live sender u.
    fn slice_reference(
        plan: &TwoPhase<BitString>,
        held: &PerLink,
    ) -> (Demands<BitString>, PerLink) {
        let m = plan.live.len();
        let mut phase2: Demands<BitString> = vec![Vec::new(); plan.n];
        let mut got: PerLink = vec![vec![BitString::new(); plan.n]; plan.n];
        for (pi, &p) in plan.live.iter().enumerate() {
            for w in 0..plan.n {
                let mut blob = BitString::new();
                for (ui, &u) in plan.live.iter().enumerate() {
                    let j = (pi + m - ui) % m;
                    let layout = &plan.rows[u].layout;
                    let (sa, sb) = segment_range(layout.total, m, j);
                    let (ra, rb) = layout.ranges[w];
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
    fn reassemble_reference(plan: &TwoPhase<BitString>, w: usize, got: &PerLink) -> Vec<BitString> {
        let m = plan.live.len();
        let mut per_sender: Vec<Vec<(usize, BitString)>> = vec![Vec::new(); plan.n];
        let mut cursors = vec![0usize; plan.n];
        for (pi, &p) in plan.live.iter().enumerate() {
            for (ui, &u) in plan.live.iter().enumerate() {
                let j = (pi + m - ui) % m;
                let layout = &plan.rows[u].layout;
                let (sa, sb) = segment_range(layout.total, m, j);
                let (ra, rb) = layout.ranges[w];
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
                let (ra, rb) = plan.rows[u].layout.ranges[w];
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
    /// phase-2 streams, kept blobs and every receiver's reassembled
    /// streams, which must equal what each sender encoded. The references
    /// read the rows as one string per link.
    fn check_against_reference(
        seed: u64,
        plan: RoutePlan,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let (n, live, demands) = oracle_case(seed);
        let header = plan.header_bits();
        let rows = plan.encode(demands);
        let links: PerLink = rows.iter().map(streams).collect();
        let schedule = TwoPhase::new(&live, rows, header);
        let held = plan
            .relay(schedule.scatter(), &mut |rows| Ok(transpose(&rows)))
            .unwrap();
        // What each intermediate holds from each sender, its own segment
        // (segment 0, kept home) included.
        let held_links: PerLink = (0..n)
            .map(|p| {
                let mut streams = streams(&held[p]);
                if let Some(pi) = schedule.rank[p] {
                    let own = schedule.segment(pi, pi, p);
                    streams[p] = copy_range(&schedule.rows[p].bits, own);
                }
                streams
            })
            .collect();
        let (phase2, kept) = schedule.slice(&held).unwrap();
        let (phase2_ref, got_ref) = slice_reference(&schedule, &held_links);
        let phase2_lists: Demands<BitString> = phase2
            .iter()
            .map(|row| {
                let blobs = row.layout.ranges.iter().enumerate();
                blobs
                    .filter(|(_, r)| r.1 > r.0)
                    .map(|(w, &(a, b))| (NodeId::from(w), copy_range(&row.bits, (a + header, b))))
                    .collect()
            })
            .collect();
        prop_assert_eq!(
            &phase2_lists,
            &phase2_ref,
            "seed {}: phase-2 demands diverge",
            seed
        );
        let kept_ref: PerLink = (0..n)
            .map(|w| {
                (0..n)
                    .map(|p| {
                        if p == w {
                            kept[w].clone()
                        } else {
                            BitString::new()
                        }
                    })
                    .collect()
            })
            .collect();
        prop_assert_eq!(&kept_ref, &got_ref, "seed {}: kept blobs diverge", seed);
        let got = plan
            .relay(phase2, &mut |rows| Ok(transpose(&rows)))
            .unwrap();
        let got_links: PerLink = (0..n)
            .map(|w| {
                let mut streams = streams(&got[w]);
                streams[w] = kept[w].clone();
                streams
            })
            .collect();
        let received = schedule.reassemble(&got, &kept).unwrap();
        for &w in &live {
            let want = reassemble_reference(&schedule, w, &got_links);
            let collected = streams(&received[w]);
            prop_assert_eq!(&collected, &want, "seed {}: streams at {} diverge", seed, w);
            for &u in &live {
                prop_assert_eq!(&collected[u], &links[u][w], "seed {}: {} -> {}", seed, u, w);
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
        let by_segment = vec![(1, 0, 3), (1, 3, 4), (3, 4, 6), (3, 6, 9), (3, 9, 10)];
        let fresh: Vec<_> = (0..4)
            .flat_map(|j| layout.segment_pieces(4, j, &mut 0).collect::<Vec<_>>())
            .collect();
        assert_eq!(fresh, by_segment);
        // A hint carried across the segments in rotated order, wrapping
        // once, finds the same pieces.
        let mut first = 0;
        let rotated: Vec<_> = [2, 3, 0, 1]
            .into_iter()
            .flat_map(|j| layout.segment_pieces(4, j, &mut first).collect::<Vec<_>>())
            .collect();
        assert_eq!(rotated, [&by_segment[3..], &by_segment[..3]].concat());
        let by_range: Vec<_> = (0..4)
            .flat_map(|w| range_pieces(10, 4, layout.ranges[w]).map(move |(j, a, b)| (w, j, a, b)))
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
        assert_eq!(short.segment_pieces(5, 3, &mut 0).count(), 0);
        assert_eq!(range_pieces(2, 5, short.ranges[1]).count(), 0);
        assert_eq!(
            range_pieces(2, 5, short.ranges[0]).collect::<Vec<_>>(),
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

    // The default config, so `PROPTEST_CASES` deepens the oracle sweep.
    proptest! {
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

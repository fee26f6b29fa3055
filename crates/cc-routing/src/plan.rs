//! One routing plan: a schedule fixed by the demand sizes alone, shipped
//! over the engine or priced by a dry run of the same schedule.
//!
//! A [`RoutePlan`] is built from one of two schedules and three modifiers:
//!
//! * [`RoutePlan::direct`] — every ordered pair ships its stream over its
//!   private link, all links in parallel, so the phase costs the largest
//!   per-link load; [`RoutePlan::balanced`] — the two-phase megastream
//!   plan of [`crate::balanced`], which pays about the largest per-node
//!   load instead;
//! * [`RoutePlan::sized`] — drop the [`crate::LEN_HEADER_BITS`] length
//!   header each payload carries by default. Receivers split streams by
//!   the payload sizes instead, which is legitimate only when those sizes
//!   are global knowledge: pure functions of `n` and `k`, or agreed
//!   in-model by a gossip round, as the sparse matrix-multiplication tier
//!   does. A zero-length payload then ships nothing yet is still
//!   delivered;
//! * [`RoutePlan::avoiding`] — re-plan around a [`CrashSet`]: demands to
//!   or from its members come back as [`crate::Undeliverable`] records,
//!   and the balanced schedule ranks only the survivors as intermediates;
//! * [`RoutePlan::repeats`] — send every chunk `k` times over consecutive
//!   rounds and let receivers majority-vote the copies
//!   ([`cc_resilient::majority_payload`]), for engines whose fault plan
//!   drops or corrupts messages.
//!
//! Every combination runs one path. An encoder turns demands into
//! per-link streams, the schedule moves them, one direct shipper runs
//! each engine pass through `Session::run_faulted`, and one decoder splits
//! what arrived back into payloads. [`RoutePlan::cost`] walks the same
//! schedule over bit counts instead of bits and prices each pass with the
//! one analytic mirror of the engine's ledger, so its [`RunStats`] equal
//! the fault-free run's field for field, by construction.

use cliquesim::{BitString, DecodeError, FaultReport, NodeId, NodeProgram, RunStats, Session};

use crate::balanced::two_phase;
use crate::fault::{CrashSet, RoutedOutcome, Undeliverable};
use crate::frames::{parse_frames, rounds_for, LEN_HEADER_BITS};
use crate::router::{Delivered, ResilientRouterNode, RouteError, RouterNode};

/// Demand **sizes** in the shape of a demand matrix: per sender, the
/// `(destination, payload length in bits)` pairs in sending order. This is
/// the global knowledge [`RoutePlan::cost`] prices.
pub type DemandSizes = Vec<Vec<(usize, usize)>>;

/// Extract the size shape of a demand matrix (what every node is assumed
/// to know globally).
pub fn demand_sizes(demands: &[Vec<(NodeId, BitString)>]) -> DemandSizes {
    demands
        .iter()
        .map(|list| {
            list.iter()
                .map(|(dst, payload)| (dst.index(), payload.len()))
                .collect()
        })
        .collect()
}

/// One demand list per node, over bits or bit counts.
pub(crate) type Demands<S> = Vec<Vec<(NodeId, S)>>;

/// An `n × n` stream matrix: `links[u][w]` as sent, or `collected[w][u]`
/// as received.
pub(crate) type Links<S> = Vec<Vec<S>>;

/// What a schedule moves: bits when a plan ships, bit counts when it is
/// priced.
pub(crate) trait Stream: Clone + Default {
    /// Length in bits.
    fn bits(&self) -> usize;
    /// Append bits `start..start + len` of `src`.
    fn push_range(&mut self, src: &Self, start: usize, len: usize) -> Result<(), DecodeError>;
    /// Append a frame header announcing a `len`-bit payload.
    fn push_header(&mut self, len: usize);
    /// The payload of a stream that holds exactly one frame.
    fn unframe(&self) -> Result<Self, DecodeError>;
}

impl Stream for BitString {
    fn bits(&self) -> usize {
        self.len()
    }

    fn push_range(&mut self, src: &Self, start: usize, len: usize) -> Result<(), DecodeError> {
        self.extend_from_range(src, start, len)
    }

    fn push_header(&mut self, len: usize) {
        self.push_uint(len as u64, LEN_HEADER_BITS);
    }

    fn unframe(&self) -> Result<Self, DecodeError> {
        let mut r = self.reader();
        let len = r.read_uint(LEN_HEADER_BITS)? as usize;
        let payload = r.read_bits(len)?;
        r.expect_end()?;
        Ok(payload)
    }
}

/// A priced stream is its length: every operation moves counts, not bits.
impl Stream for usize {
    fn bits(&self) -> usize {
        *self
    }

    fn push_range(&mut self, _: &Self, _: usize, len: usize) -> Result<(), DecodeError> {
        *self += len;
        Ok(())
    }

    fn push_header(&mut self, _: usize) {
        *self += LEN_HEADER_BITS;
    }

    fn unframe(&self) -> Result<Self, DecodeError> {
        Ok(self - LEN_HEADER_BITS)
    }
}

/// Which way the streams travel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Schedule {
    /// Every stream over its own link.
    Direct,
    /// Scattered over intermediates, then forwarded.
    Balanced,
}

/// How per-link streams are encoded and split back into payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Encoding {
    /// Every payload carries a [`LEN_HEADER_BITS`] length header;
    /// receivers parse the headers.
    Framed,
    /// Raw concatenated payloads; receivers split by the globally known
    /// payload sizes.
    Sized,
}

/// A routing phase: a schedule (direct or balanced), an encoding (framed
/// or sized), a crash set to avoid and a retransmission count. See the
/// module docs for what each choice means.
///
/// ```
/// use cc_routing::RoutePlan;
/// use cliquesim::{BitString, Engine, NodeId, Session};
///
/// let mut session = Session::new(Engine::new(4));
/// let mut demands = vec![Vec::new(); 4];
/// demands[0].push((NodeId(3), BitString::from_bits([true, false])));
/// let plan = RoutePlan::balanced().sized();
/// let sizes = cc_routing::demand_sizes(&demands);
/// let delivered = plan.run(&mut session, demands).unwrap();
/// assert_eq!(delivered[3], vec![(NodeId(0), BitString::from_bits([true, false]))]);
/// assert_eq!(plan.cost(&sizes, session.bandwidth()), session.stats());
/// ```
#[derive(Clone, Debug)]
pub struct RoutePlan {
    schedule: Schedule,
    encoding: Encoding,
    crash: CrashSet,
    repeats: usize,
}

impl RoutePlan {
    /// The direct static schedule: pair `(u, w)` ships its stream over its
    /// own link for `⌈bits(u, w)/B⌉` consecutive rounds, all links in
    /// parallel.
    pub fn direct() -> Self {
        Self::new(Schedule::Direct)
    }

    /// The two-phase balanced schedule of [`crate::balanced`].
    pub fn balanced() -> Self {
        Self::new(Schedule::Balanced)
    }

    fn new(schedule: Schedule) -> Self {
        Self {
            schedule,
            encoding: Encoding::Framed,
            crash: CrashSet::new(),
            repeats: 1,
        }
    }

    /// Ship payloads without length headers; receivers split streams by
    /// the globally known payload sizes.
    pub fn sized(self) -> Self {
        Self {
            encoding: Encoding::Sized,
            ..self
        }
    }

    /// Re-plan around `crash`: its members neither send, receive nor
    /// relay. An empty crash set leaves the plan byte-identical.
    pub fn avoiding(self, crash: &CrashSet) -> Self {
        Self {
            crash: crash.clone(),
            ..self
        }
    }

    /// Send every chunk `k ≥ 1` times over consecutive rounds; receivers
    /// majority-vote the copies of each chunk.
    pub fn repeats(self, k: usize) -> Self {
        assert!(k >= 1, "at least one transmission per chunk");
        Self { repeats: k, ..self }
    }

    /// Ship `demands` (`demands[v]` lists `(destination, payload)` pairs
    /// leaving `v`; several payloads per destination arrive in order)
    /// under the engine's fault plan.
    ///
    /// Demands touching a member of the crash set are dropped before
    /// anything is sent and reported in [`RoutedOutcome::undeliverable`];
    /// members get `None` delivery slots whether or not the engine kills
    /// them. Every other node gets its `(source, payload)` pairs, sources
    /// ascending. A node outside the crash set that crashes is
    /// [`RouteError::UnplannedCrash`]; link damage that the repeats do not
    /// outvote surfaces as [`RouteError::Malformed`]. The session ledger
    /// records every engine pass, and the outcome carries their totals.
    pub fn run_faulted(
        &self,
        session: &mut Session,
        demands: Vec<Vec<(NodeId, BitString)>>,
    ) -> Result<RoutedOutcome, RouteError> {
        assert_eq!(demands.len(), session.n(), "one demand list per node");
        let mut undeliverable = Vec::new();
        let demands =
            self.crash
                .partition_demands(demands, |source, destination, payload, reason| {
                    undeliverable.push(Undeliverable {
                        source,
                        destination,
                        payload,
                        reason,
                    })
                });
        let lens = match self.encoding {
            Encoding::Framed => Vec::new(),
            Encoding::Sized => payload_lens(&demands),
        };
        let mut stats = RunStats::default();
        let mut report = FaultReport::default();
        let collected = self.walk(demands, &mut |links| {
            self.ship(session, links, &mut stats, &mut report)
        })?;
        let delivered = collected
            .into_iter()
            .enumerate()
            .map(|(w, row)| {
                if self.crash.is_dead(NodeId::from(w)) {
                    Ok(None)
                } else {
                    self.decode(w, row, &lens).map(Some)
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(RoutedOutcome {
            delivered,
            undeliverable,
            stats,
            report,
        })
    }

    /// The strict reading of [`RoutePlan::run_faulted`], as [`cliquesim::Engine::run`]
    /// is of `run_faulted`: every node's deliveries.
    ///
    /// # Panics
    /// If the plan avoids a node: its demands would be dropped, which only
    /// [`RoutePlan::run_faulted`] can report.
    pub fn run(
        &self,
        session: &mut Session,
        demands: Vec<Vec<(NodeId, BitString)>>,
    ) -> Result<Vec<Delivered>, RouteError> {
        assert!(
            self.crash.is_empty(),
            "a plan avoiding {} drops demands: use run_faulted",
            self.crash
        );
        let out = self.run_faulted(session, demands)?;
        Ok(out.delivered.into_iter().flatten().collect())
    }

    /// The exact [`RunStats`] a fault-free session records shipping
    /// demands of these sizes at `bandwidth`: the same schedule walked over
    /// bit counts, each engine pass priced without running it.
    pub fn cost(&self, sizes: &DemandSizes, bandwidth: usize) -> RunStats {
        let demands: Demands<usize> = sizes
            .iter()
            .map(|list| {
                list.iter()
                    .map(|&(dst, len)| (NodeId::from(dst), len))
                    .collect()
            })
            .collect();
        let demands = self.crash.partition_demands(demands, |_, _, _, _| {});
        let mut stats = RunStats::default();
        self.walk(demands, &mut |links: Links<usize>| {
            stats.absorb(&direct_cost_from_links(bandwidth, &links, self.repeats));
            Ok(transpose(links))
        })
        .expect("a priced walk moves counts and cannot fail");
        stats
    }

    /// All-to-all broadcast under this plan: node `v` sends `payloads[v]`
    /// to everyone. Returns each node's view of all `n` payloads indexed by
    /// source, its own copied locally for free.
    pub fn all_to_all(
        &self,
        session: &mut Session,
        payloads: Vec<BitString>,
    ) -> Result<Vec<Vec<BitString>>, RouteError> {
        let n = session.n();
        assert_eq!(payloads.len(), n, "one payload per node");
        let demands = payloads
            .iter()
            .enumerate()
            .map(|(v, p)| {
                (0..n)
                    .filter(|&w| w != v)
                    .map(|w| (NodeId::from(w), p.clone()))
                    .collect()
            })
            .collect();
        let delivered = self.run(session, demands)?;
        Ok(delivered
            .into_iter()
            .enumerate()
            .map(|(v, list)| {
                let mut view = vec![BitString::new(); n];
                view[v] = payloads[v].clone();
                for (src, payload) in list {
                    view[src.index()] = payload;
                }
                view
            })
            .collect())
    }

    /// Walk the schedule over `demands`, handing each engine pass's
    /// encoded per-link streams to `ship`, which returns what every node
    /// collected from every source. [`RoutePlan::run_faulted`] ships bits
    /// over the session and [`RoutePlan::cost`] prices bit counts, so the
    /// two share every step but the pass itself. Returns the encoded
    /// stream each node assembled from each source.
    fn walk<S: Stream>(
        &self,
        demands: Demands<S>,
        ship: &mut impl FnMut(Links<S>) -> Result<Links<S>, RouteError>,
    ) -> Result<Links<S>, RouteError> {
        let n = demands.len();
        let links = self.encode(demands);
        match self.schedule {
            Schedule::Direct => ship(links),
            Schedule::Balanced => {
                let live: Vec<usize> = self.crash.survivors(n).iter().map(|v| v.index()).collect();
                two_phase(self, &live, links, ship)
            }
        }
    }

    /// The one encoder: `links[u][w]` is everything `u` sends `w`, each
    /// payload behind a length header when framed.
    pub(crate) fn encode<S: Stream>(&self, demands: Demands<S>) -> Links<S> {
        let n = demands.len();
        let mut links = vec![vec![S::default(); n]; n];
        for (u, list) in demands.into_iter().enumerate() {
            for (dst, payload) in list {
                let w = dst.index();
                assert_ne!(w, u, "demand from node {u} to itself");
                let stream = &mut links[u][w];
                if self.encoding == Encoding::Framed {
                    stream.push_header(payload.bits());
                }
                stream
                    .push_range(&payload, 0, payload.bits())
                    .expect("a whole payload is in range");
            }
        }
        links
    }

    /// Ship one balanced phase, which sends at most one payload per link,
    /// and return the payload each node got from each source (empty where
    /// nothing was sent).
    pub(crate) fn relay<S: Stream>(
        &self,
        phase: Demands<S>,
        ship: &mut impl FnMut(Links<S>) -> Result<Links<S>, RouteError>,
    ) -> Result<Links<S>, RouteError> {
        let mut got = ship(self.encode(phase))?;
        if self.encoding == Encoding::Framed {
            for (w, row) in got.iter_mut().enumerate() {
                for stream in row.iter_mut().filter(|s| s.bits() > 0) {
                    *stream = stream
                        .unframe()
                        .map_err(|e| RouteError::Malformed(NodeId::from(w), e))?;
                }
            }
        }
        Ok(got)
    }

    /// The one decoder: split the streams node `w` collected (`collected[u]`
    /// from source `u`) back into `(source, payload)` pairs — framed streams
    /// by their headers, sized streams by the known lengths `lens[u][w]`.
    fn decode(
        &self,
        w: usize,
        collected: Vec<BitString>,
        lens: &[Vec<Vec<usize>>],
    ) -> Result<Delivered, RouteError> {
        let malformed = |e| RouteError::Malformed(NodeId::from(w), e);
        let mut delivered = Vec::new();
        for (u, stream) in collected.into_iter().enumerate() {
            let src = NodeId::from(u);
            match self.encoding {
                Encoding::Framed => {
                    for payload in parse_frames(&stream).map_err(malformed)? {
                        delivered.push((src, payload));
                    }
                }
                Encoding::Sized => {
                    let mut r = stream.reader();
                    for &len in &lens[u][w] {
                        delivered.push((src, r.read_bits(len).map_err(malformed)?));
                    }
                    r.expect_end().map_err(malformed)?;
                }
            }
        }
        Ok(delivered)
    }

    /// The one direct shipper: run per-link streams `links[u][w]` as the
    /// static direct schedule on `session`, every chunk sent `repeats`
    /// times, fold the pass into `stats` and `report`, and return what each
    /// node collected from each source (`[w][u]`).
    fn ship(
        &self,
        session: &mut Session,
        links: Links<BitString>,
        stats: &mut RunStats,
        report: &mut FaultReport,
    ) -> Result<Links<BitString>, RouteError> {
        let n = links.len();
        let bandwidth = session.bandwidth();
        let chunks = links
            .iter()
            .flatten()
            .map(|s| rounds_for(s.len(), bandwidth))
            .max()
            .unwrap_or(0);
        if self.repeats == 1 {
            let in_lens: Vec<Vec<usize>> = (0..n)
                .map(|w| links.iter().map(|row| row[w].len()).collect())
                .collect();
            let programs = links
                .into_iter()
                .enumerate()
                .map(|(v, row)| RouterNode::new(v, row, &in_lens[v], chunks))
                .collect();
            self.pass(session, programs, chunks, stats, report)
        } else {
            let programs = links
                .into_iter()
                .map(|row| ResilientRouterNode::new(n, row, chunks, self.repeats))
                .collect();
            self.pass(session, programs, chunks * self.repeats, stats, report)
        }
    }

    /// One engine pass of `ship`, promised to take `schedule` rounds.
    fn pass<P: NodeProgram<Output = Vec<BitString>>>(
        &self,
        session: &mut Session,
        programs: Vec<P>,
        schedule: usize,
        stats: &mut RunStats,
        report: &mut FaultReport,
    ) -> Result<Links<BitString>, RouteError> {
        let out = session.run_faulted(programs)?;
        // A structured error, not a `debug_assert`: release builds, where
        // the release-mode CI job runs, need the check too.
        if out.stats.rounds != schedule {
            return Err(RouteError::ScheduleMismatch {
                expected: schedule,
                actual: out.stats.rounds,
            });
        }
        stats.absorb(&out.stats);
        report.events.extend(out.faults.events);
        out.outputs
            .into_iter()
            .enumerate()
            .map(|(v, collected)| match collected {
                Some(collected) => Ok(collected),
                None if self.crash.is_dead(NodeId::from(v)) => Ok(Vec::new()),
                None => Err(RouteError::UnplannedCrash(NodeId::from(v))),
            })
            .collect()
    }
}

/// `lens[u][w]`: the payload lengths `u` sends `w`, in sending order.
fn payload_lens(demands: &Demands<BitString>) -> Vec<Vec<Vec<usize>>> {
    let n = demands.len();
    let mut lens = vec![vec![Vec::new(); n]; n];
    for (u, list) in demands.iter().enumerate() {
        for (dst, payload) in list {
            lens[u][dst.index()].push(payload.len());
        }
    }
    lens
}

/// What a fault-free pass delivers: `collected[w][u] = links[u][w]`.
fn transpose<S: Stream>(links: Links<S>) -> Links<S> {
    let n = links.len();
    let mut collected = vec![vec![S::default(); n]; n];
    for (u, row) in links.into_iter().enumerate() {
        for (w, stream) in row.into_iter().enumerate() {
            collected[w][u] = stream;
        }
    }
    collected
}

/// The engine's ledger for one pass of the direct schedule over per-link
/// stream lengths `links[u][w]` (bits), every chunk sent `repeats` times
/// over consecutive rounds: mirrors the router programs' chunking and the
/// engine's round-close accounting bit for bit. This is the only analytic
/// mirror of the engine in the crate.
fn direct_cost_from_links(bandwidth: usize, links: &[Vec<usize>], repeats: usize) -> RunStats {
    // `per_chunk[c]`: the bits every link's chunk `c` puts on the wire.
    let mut per_chunk: Vec<usize> = Vec::new();
    let mut stats = RunStats::default();
    for &len in links.iter().flatten().filter(|&&len| len > 0) {
        let chunks = rounds_for(len, bandwidth);
        if per_chunk.len() < chunks {
            per_chunk.resize(chunks, 0);
        }
        for (c, bits) in per_chunk.iter_mut().take(chunks).enumerate() {
            *bits += bandwidth.min(len - c * bandwidth);
        }
        stats.messages += (chunks * repeats) as u64;
        stats.bits += (len * repeats) as u64;
        stats.max_message_bits = stats.max_message_bits.max(bandwidth.min(len));
    }
    stats.rounds = per_chunk.len() * repeats;
    // Peak live payload: at each round boundary the engine holds the bits
    // sent the round before plus the bits sent this round. Round `r` sends
    // chunk `r / repeats`, and the final (halting) round sends nothing, so
    // repeating a chunk keeps twice its bits live.
    let mut prev = 0;
    for r in 0..=stats.rounds {
        let cur = per_chunk.get(r / repeats).copied().unwrap_or(0);
        stats.peak_live_payload_bytes = stats.peak_live_payload_bytes.max((prev + cur).div_ceil(8));
        prev = cur;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_to_all_broadcast;
    use cliquesim::{Engine, FaultPlan};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn session(n: usize) -> Session {
        Session::new(Engine::new(n))
    }

    fn normalise(d: Vec<Delivered>) -> Vec<Vec<(usize, Vec<bool>)>> {
        d.into_iter()
            .map(|list| {
                let mut v: Vec<(usize, Vec<bool>)> = list
                    .into_iter()
                    .map(|(s, p)| (s.index(), p.iter().collect()))
                    .collect();
                v.sort();
                v
            })
            .collect()
    }

    fn random_demands(rng: &mut ChaCha8Rng, n: usize, max_len: usize) -> Demands<BitString> {
        let mut demands: Demands<BitString> = vec![Vec::new(); n];
        for (v, list) in demands.iter_mut().enumerate() {
            for _ in 0..rng.gen_range(0..4) {
                let dst = (v + rng.gen_range(1..n)) % n;
                let len = rng.gen_range(0..max_len);
                let payload: BitString = (0..len).map(|_| rng.gen_bool(0.5)).collect();
                list.push((NodeId::from(dst), payload));
            }
        }
        demands
    }

    fn seeded_demands(n: usize, seed: u64, max_len: usize) -> Demands<BitString> {
        random_demands(&mut ChaCha8Rng::seed_from_u64(seed), n, max_len)
    }

    /// Every schedule × encoding, avoiding `crash`, at `repeats`.
    fn plans(crash: &CrashSet, repeats: usize) -> [RoutePlan; 4] {
        [
            RoutePlan::direct(),
            RoutePlan::direct().sized(),
            RoutePlan::balanced(),
            RoutePlan::balanced().sized(),
        ]
        .map(|plan| plan.avoiding(crash).repeats(repeats))
    }

    #[test]
    fn every_plan_reports_an_unplanned_crash() {
        let n = 6;
        for plan in plans(&CrashSet::new(), 1)
            .into_iter()
            .chain(plans(&CrashSet::new(), 3))
        {
            let crashing = FaultPlan::new(0).crash(NodeId(4), 0);
            let mut s = Session::new(Engine::new(n).with_fault_plan(crashing));
            let err = plan.run(&mut s, seeded_demands(n, 9, 40)).unwrap_err();
            assert!(
                matches!(err, RouteError::UnplannedCrash(NodeId(4))),
                "{plan:?}: {err}"
            );
        }
    }

    #[test]
    fn empty_demand_set_costs_nothing() {
        let n = 5;
        for plan in plans(&CrashSet::new(), 1) {
            let mut s = session(n);
            let got = plan.run(&mut s, vec![Vec::new(); n]).unwrap();
            assert!(got.iter().all(|d| d.is_empty()));
            assert_eq!(s.stats().rounds, 0);
            assert_eq!(plan.cost(&vec![Vec::new(); n], s.bandwidth()), s.stats());
        }
    }

    #[test]
    fn sized_matches_framed_deliveries() {
        let n = 6;
        for seed in 0..8 {
            let mut s1 = session(n);
            let framed = RoutePlan::direct()
                .run(&mut s1, seeded_demands(n, seed, 30))
                .unwrap();
            let mut s2 = session(n);
            let sized = RoutePlan::direct()
                .sized()
                .run(&mut s2, seeded_demands(n, seed, 30))
                .unwrap();
            assert_eq!(normalise(framed), normalise(sized), "seed {seed}");
            assert!(
                s2.stats().bits <= s1.stats().bits,
                "seed {seed}: sized shipped more bits than framed"
            );
        }
    }

    #[test]
    fn sized_is_strictly_cheaper_when_demands_exist() {
        // Every payload saves exactly LEN_HEADER_BITS on the wire.
        let n = 5;
        let demands = seeded_demands(n, 3, 40);
        let payloads: u64 = demands.iter().map(|l| l.len() as u64).sum();
        assert!(payloads > 0, "seed produced no demands");
        let mut s1 = session(n);
        RoutePlan::direct().run(&mut s1, demands.clone()).unwrap();
        let mut s2 = session(n);
        RoutePlan::direct().sized().run(&mut s2, demands).unwrap();
        assert_eq!(
            s2.stats().bits + payloads * LEN_HEADER_BITS as u64,
            s1.stats().bits
        );
        assert!(s2.stats().rounds <= s1.stats().rounds);
    }

    #[test]
    fn sized_empty_payloads_are_delivered_for_free() {
        let n = 4;
        let mut demands: Demands<BitString> = vec![Vec::new(); n];
        demands[1].push((NodeId::from(3), BitString::new()));
        demands[2].push((NodeId::from(0), BitString::from_bits([true, true])));
        let mut s = session(n);
        let got = RoutePlan::direct().sized().run(&mut s, demands).unwrap();
        assert_eq!(got[3], vec![(NodeId::from(1), BitString::new())]);
        assert_eq!(got[0].len(), 1);
        // The empty payload contributed no bits and no messages.
        assert_eq!(s.stats().bits, 2);
        assert_eq!(s.stats().messages, 1);
    }

    #[test]
    fn balanced_sized_matches_framed_balanced_deliveries() {
        for n in [4usize, 6, 9] {
            for seed in 0..4 {
                let mut s1 = session(n);
                let framed = RoutePlan::balanced()
                    .run(&mut s1, seeded_demands(n, seed, 50))
                    .unwrap();
                let mut s2 = session(n);
                let sized = RoutePlan::balanced()
                    .sized()
                    .run(&mut s2, seeded_demands(n, seed, 50))
                    .unwrap();
                // Framed balanced parses empty payloads out of headers too,
                // so deliveries agree exactly.
                assert_eq!(normalise(framed), normalise(sized), "n={n} seed {seed}");
                assert!(s2.stats().bits <= s1.stats().bits, "n={n} seed {seed}");
            }
        }
    }

    #[test]
    fn sized_all_to_all_matches_framed_views() {
        let n = 5;
        let payloads: Vec<BitString> = (0..n)
            .map(|v| BitString::from_bits((0..3 * v).map(|i| i % 2 == 0)))
            .collect();
        let mut s1 = session(n);
        let framed = all_to_all_broadcast(&mut s1, payloads.clone()).unwrap();
        let mut s2 = session(n);
        let plan = RoutePlan::direct().sized();
        let sized = plan.all_to_all(&mut s2, payloads.clone()).unwrap();
        assert_eq!(framed, sized);
        assert!(s2.stats().bits < s1.stats().bits);
        let sizes: DemandSizes = (0..n)
            .map(|v| {
                (0..n)
                    .filter(|&w| w != v)
                    .map(|w| (w, payloads[v].len()))
                    .collect()
            })
            .collect();
        assert_eq!(plan.cost(&sizes, s2.bandwidth()), s2.stats());
    }
}

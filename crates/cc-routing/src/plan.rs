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
//! Every combination runs one path, over one *row* per node: its streams
//! to (or from) every peer, concatenated in peer order in one string, with
//! each peer's range kept in a `MegaLayout`. An encoder writes each node's
//! demands into its row, the schedule moves rows, one direct shipper runs
//! each engine pass through `Session::run_faulted` and hands back the row
//! each node received (what arrived from every source, each source's in
//! its own range, in source order), and one decoder splits each source's
//! range back into payloads. No stage builds a stream per link, so a
//! stage allocates one string per node, not `n²`. [`RoutePlan::cost`]
//! walks the same schedule over rows of bit counts instead of bits and
//! prices each pass with the one analytic mirror of the engine's ledger,
//! so its [`RunStats`] equal the fault-free run's field for field, by
//! construction.

use cliquesim::{BitString, DecodeError, FaultReport, NodeId, NodeProgram, RunStats, Session};

use crate::balanced::{two_phase, MegaLayout};
use crate::fault::{CrashSet, RoutedOutcome, Undeliverable};
use crate::frames::{copy_range, frame_ranges, rounds_for, short, unframe, LEN_HEADER_BITS};
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

/// One node's streams to (or from) every peer: `layout.ranges[peer]` is
/// the range of `bits` that holds the stream to (from) `peer`. Rows that
/// are sent are laid out back to back in peer order; a received row keeps
/// each source's range where it arrived.
#[derive(Debug, Default)]
pub(crate) struct Row<S> {
    pub(crate) bits: S,
    pub(crate) layout: MegaLayout,
}

impl<S: Stream> Row<S> {
    /// A row of zeros whose peers' streams have `sizes` bits, back to back
    /// in peer order: filled by positioned writes, in any order.
    pub(crate) fn presized(sizes: impl IntoIterator<Item = usize>) -> Self {
        let layout = MegaLayout::new(sizes);
        Self {
            bits: S::zeros(layout.total),
            layout,
        }
    }
}

/// What a schedule moves: bits when a plan ships, bit counts when it is
/// priced.
pub(crate) trait Stream: Default {
    /// Length in bits.
    fn bits(&self) -> usize;
    /// `len` zero bits, to be overwritten in place.
    fn zeros(len: usize) -> Self;
    /// Overwrite bits `at..at + len` with bits `start..start + len` of
    /// `src`.
    fn write(&mut self, at: usize, src: &Self, start: usize, len: usize);
    /// Write a frame header announcing a `len`-bit payload at `at`.
    fn write_header(&mut self, at: usize, len: usize);
    /// The payload range of the one frame that fills bits `a..b`.
    fn unframe(&self, a: usize, b: usize) -> Result<(usize, usize), DecodeError>;
}

impl Stream for BitString {
    fn bits(&self) -> usize {
        self.len()
    }

    fn zeros(len: usize) -> Self {
        BitString::zeros(len)
    }

    fn write(&mut self, at: usize, src: &Self, start: usize, len: usize) {
        self.write_range(at, src, start, len)
            .expect("callers check the source range");
    }

    fn write_header(&mut self, at: usize, len: usize) {
        let mut header = BitString::new();
        header.push_uint(len as u64, LEN_HEADER_BITS);
        self.write(at, &header, 0, LEN_HEADER_BITS);
    }

    fn unframe(&self, a: usize, b: usize) -> Result<(usize, usize), DecodeError> {
        unframe(self, (a, b))
    }
}

/// A priced stream is its length: every operation moves counts, not bits.
impl Stream for usize {
    fn bits(&self) -> usize {
        *self
    }

    fn zeros(len: usize) -> Self {
        len
    }

    fn write(&mut self, _: usize, _: &Self, _: usize, _: usize) {}

    fn write_header(&mut self, _: usize, _: usize) {}

    fn unframe(&self, a: usize, b: usize) -> Result<(usize, usize), DecodeError> {
        Ok((a + LEN_HEADER_BITS, b))
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
        let received = self.walk(demands, &mut |rows| {
            self.ship(session, rows, &mut stats, &mut report)
        })?;
        let delivered = received
            .iter()
            .enumerate()
            .map(|(w, row)| {
                if self.crash.is_dead(NodeId::from(w)) {
                    Ok(None)
                } else {
                    let lens = lens.get(w).map_or(&[][..], Vec::as_slice);
                    self.decode(w, row, lens).map(Some)
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
        self.walk(demands, &mut |rows: Vec<Row<usize>>| {
            stats.absorb(&direct_cost(bandwidth, &rows, self.repeats));
            Ok(transpose(&rows))
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

    /// Frame header bits per stream: [`LEN_HEADER_BITS`] when framed, none
    /// when sized.
    pub(crate) fn header_bits(&self) -> usize {
        match self.encoding {
            Encoding::Framed => LEN_HEADER_BITS,
            Encoding::Sized => 0,
        }
    }

    /// Walk the schedule over `demands`, handing each engine pass's
    /// encoded rows to `ship`, which returns the row every node received.
    /// [`RoutePlan::run_faulted`] ships bits over the session and
    /// [`RoutePlan::cost`] prices bit counts, so the two share every step
    /// but the pass itself. Returns the row each node assembled: what it
    /// got from every source, in source order.
    fn walk<S: Stream>(
        &self,
        demands: Demands<S>,
        ship: &mut impl FnMut(Vec<Row<S>>) -> Result<Vec<Row<S>>, RouteError>,
    ) -> Result<Vec<Row<S>>, RouteError> {
        let n = demands.len();
        let rows = self.encode(demands);
        match self.schedule {
            Schedule::Direct => ship(rows),
            Schedule::Balanced => {
                let live: Vec<usize> = self.crash.survivors(n).iter().map(|v| v.index()).collect();
                two_phase(self, &live, rows, ship)
            }
        }
    }

    /// The one encoder: node `u`'s row holds everything `u` sends each
    /// peer `w` in `w`'s range, each payload behind a length header when
    /// framed, several payloads to one peer in sending order.
    pub(crate) fn encode<S: Stream>(&self, demands: Demands<S>) -> Vec<Row<S>> {
        let n = demands.len();
        let header = self.header_bits();
        let mut sizes = vec![0; n];
        let mut cursor = Vec::with_capacity(n);
        demands
            .into_iter()
            .enumerate()
            .map(|(u, list)| {
                sizes.fill(0);
                for (dst, payload) in &list {
                    assert_ne!(dst.index(), u, "demand from node {u} to itself");
                    sizes[dst.index()] += header + payload.bits();
                }
                let mut row = Row::<S>::presized(sizes.iter().copied());
                cursor.clear();
                cursor.extend(row.layout.ranges.iter().map(|r| r.0));
                for (dst, payload) in &list {
                    let at = &mut cursor[dst.index()];
                    if header > 0 {
                        row.bits.write_header(*at, payload.bits());
                    }
                    row.bits.write(*at + header, payload, 0, payload.bits());
                    *at += header + payload.bits();
                }
                row
            })
            .collect()
    }

    /// Ship one balanced phase, which sends at most one payload per link,
    /// and return the row each node received with each source's range
    /// narrowed to its payload: a framed stream's header is checked in
    /// place, as [`crate::parse_frames`] would check a copy.
    pub(crate) fn relay<S: Stream>(
        &self,
        phase: Vec<Row<S>>,
        ship: &mut impl FnMut(Vec<Row<S>>) -> Result<Vec<Row<S>>, RouteError>,
    ) -> Result<Vec<Row<S>>, RouteError> {
        let mut got = ship(phase)?;
        if self.encoding == Encoding::Framed {
            for (w, Row { bits, layout }) in got.iter_mut().enumerate() {
                for range in layout.ranges.iter_mut().filter(|r| r.1 > r.0) {
                    *range = bits
                        .unframe(range.0, range.1)
                        .map_err(|e| RouteError::Malformed(NodeId::from(w), e))?;
                }
            }
        }
        Ok(got)
    }

    /// The one decoder: split each source's range of the row node `w`
    /// received back into `(source, payload)` pairs — framed ranges by
    /// their headers, sized ranges by the known lengths `lens` (`(source,
    /// length)` pairs, sources ascending, each source's in sending order).
    fn decode(
        &self,
        w: usize,
        row: &Row<BitString>,
        lens: &[(usize, usize)],
    ) -> Result<Delivered, RouteError> {
        let malformed = |e| RouteError::Malformed(NodeId::from(w), e);
        let mut delivered = Vec::new();
        let mut lens = lens.iter().peekable();
        for (u, &(a, b)) in row.layout.ranges.iter().enumerate() {
            let src = NodeId::from(u);
            match self.encoding {
                Encoding::Framed => {
                    for payload in frame_ranges(&row.bits, (a, b)) {
                        delivered.push((src, copy_range(&row.bits, payload.map_err(malformed)?)));
                    }
                }
                Encoding::Sized => {
                    let mut pos = a;
                    while let Some(&(_, len)) = lens.next_if(|&&(s, _)| s == u) {
                        if b - pos < len {
                            return Err(malformed(short((a, b), pos, len)));
                        }
                        delivered.push((src, copy_range(&row.bits, (pos, pos + len))));
                        pos += len;
                    }
                    if pos != b {
                        return Err(malformed(short((a, b), pos, 0)));
                    }
                }
            }
        }
        Ok(delivered)
    }

    /// The one direct shipper: run each node's row as the static direct
    /// schedule on `session`, every chunk sent `repeats` times, fold the
    /// pass into `stats` and `report`, and return the row each node
    /// received.
    fn ship(
        &self,
        session: &mut Session,
        rows: Vec<Row<BitString>>,
        stats: &mut RunStats,
        report: &mut FaultReport,
    ) -> Result<Vec<Row<BitString>>, RouteError> {
        let n = rows.len();
        let bandwidth = session.bandwidth();
        let chunks = rows
            .iter()
            .flat_map(|row| row.layout.lens())
            .map(|len| rounds_for(len, bandwidth))
            .max()
            .unwrap_or(0);
        if self.repeats == 1 {
            let inbound: Vec<MegaLayout> = columns(&rows)
                .iter()
                .map(|column| MegaLayout::new(column.iter().map(|&(a, b)| b - a)))
                .collect();
            let programs = rows
                .into_iter()
                .zip(inbound)
                .enumerate()
                .map(|(v, (row, inbound))| RouterNode::new(v, row, inbound, chunks))
                .collect();
            self.pass(session, programs, chunks, stats, report)
        } else {
            let programs = rows
                .into_iter()
                .map(|row| ResilientRouterNode::new(n, row, chunks, self.repeats))
                .collect();
            self.pass(session, programs, chunks * self.repeats, stats, report)
        }
    }

    /// One engine pass of `ship`, promised to take `schedule` rounds.
    fn pass<P: NodeProgram<Output = Row<BitString>>>(
        &self,
        session: &mut Session,
        programs: Vec<P>,
        schedule: usize,
        stats: &mut RunStats,
        report: &mut FaultReport,
    ) -> Result<Vec<Row<BitString>>, RouteError> {
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
            .map(|(v, received)| match received {
                Some(received) => Ok(received),
                None if self.crash.is_dead(NodeId::from(v)) => Ok(Row::default()),
                None => Err(RouteError::UnplannedCrash(NodeId::from(v))),
            })
            .collect()
    }
}

/// `lens[w]`: the `(source, payload length)` pairs headed to `w`, sources
/// ascending, each source's in sending order.
fn payload_lens(demands: &Demands<BitString>) -> Vec<Vec<(usize, usize)>> {
    let mut lens = vec![Vec::new(); demands.len()];
    for (u, list) in demands.iter().enumerate() {
        for (dst, payload) in list {
            lens[dst.index()].push((u, payload.len()));
        }
    }
    lens
}

/// For every peer `v`, the range of every row that holds its stream to
/// (or from) `v`: `columns(rows)[v][u] == rows[u].layout.ranges[v]`.
pub(crate) fn columns<S>(rows: &[Row<S>]) -> Vec<Vec<(usize, usize)>> {
    (0..rows.len())
        .map(|v| rows.iter().map(|row| row.layout.ranges[v]).collect())
        .collect()
}

/// What a fault-free pass delivers: node `w` receives from every `u`
/// exactly the stream in `rows[u]`'s range for `w`.
pub(crate) fn transpose<S: Stream>(rows: &[Row<S>]) -> Vec<Row<S>> {
    columns(rows)
        .iter()
        .map(|column| {
            let mut got = Row::<S>::presized(column.iter().map(|&(a, b)| b - a));
            for (u, (row, &(a, b))) in rows.iter().zip(column).enumerate() {
                got.bits.write(got.layout.ranges[u].0, &row.bits, a, b - a);
            }
            got
        })
        .collect()
}

/// The engine's ledger for one pass of the direct schedule over rows of
/// per-link stream lengths (bits), every chunk sent `repeats` times over
/// consecutive rounds: mirrors the router programs' chunking and the
/// engine's round-close accounting bit for bit. This is the only analytic
/// mirror of the engine in the crate.
fn direct_cost(bandwidth: usize, rows: &[Row<usize>], repeats: usize) -> RunStats {
    // `per_chunk[c]`: the bits every link's chunk `c` puts on the wire.
    let mut per_chunk: Vec<usize> = Vec::new();
    let mut stats = RunStats::default();
    for len in rows
        .iter()
        .flat_map(|row| row.layout.lens())
        .filter(|&len| len > 0)
    {
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

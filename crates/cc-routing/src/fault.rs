//! Fault-aware routing: plan around crashed nodes, retransmit over lossy
//! links.
//!
//! The static schedules of [`crate::route`] and [`crate::route_balanced`]
//! assume every link delivers: one crashed node turns received streams into
//! `Malformed` parse errors. This module is the planning layer that makes
//! routing *degrade* instead of *error*:
//!
//! * a [`CrashSet`] names the nodes to treat as dead — built statically
//!   from a [`cliquesim::FaultPlan`]'s full churn schedule
//!   ([`CrashSet::from_plan`], via [`cliquesim::FaultPlan::ever_dead_in`]),
//!   from one *wave* of it ([`CrashSet::from_plan_window`], which
//!   re-admits nodes whose crash/rejoin pair completed before the window —
//!   the self-healing rung: a recovered node carries megastream segments
//!   again in the very next wave), or from a live
//!   [`cliquesim::FaultReport`] ([`CrashSet::from_report`]); members carry
//!   their downtime timelines, queryable via [`CrashSet::alive_at`];
//! * [`route_faulted`] re-plans an explicit demand set around the crash
//!   set: demands to or from dead endpoints are dropped at planning time
//!   and reported as structured [`Undeliverable`] records, while every
//!   demand between surviving endpoints rides its private link exactly as
//!   in [`crate::route`] — a crashed third party cannot touch it;
//! * [`crate::route_balanced_faulted`] does the same for the two-phase
//!   balanced schedule, remapping megastream segments away from dead
//!   intermediates so phase 2 still reassembles;
//! * [`route_resilient`] handles the *lossy-link* tier instead: every
//!   stream chunk is retransmitted `k` times and receivers take a
//!   per-chunk majority vote ([`cc_resilient::majority_payload`] — the
//!   same per-link machinery as `cc-resilient`'s `RepeatBroadcast`), with
//!   [`resilient_overhead`] pricing the `k×` cost analytically for
//!   [`cliquesim::Session::charge`].
//!
//! The planning view is conservative: a node scheduled to crash at *any*
//! round of the phase is treated as dead for the whole phase. Survivor
//! traffic therefore never touches a crashing node, and a mid-phase crash
//! can only lose payloads the plan already reported undeliverable.

use std::collections::BTreeSet;
use std::fmt;

use cc_resilient::majority_payload;
use cliquesim::{
    BitString, FaultPlan, FaultReport, Inbox, NodeCtx, NodeId, NodeProgram, Outbox, RunStats,
    Session, Status,
};

use crate::router::{
    build_streams, check_schedule, make_programs, parse_delivered, schedule_for, Delivered,
    RouteError,
};

/// The set of nodes a routing plan treats as crashed.
///
/// Planning data, conservative by construction: a node in the set is
/// avoided for the whole phase the set was built for, whenever it actually
/// dies within it (see the module docs). Sets built from a
/// [`FaultPlan`] additionally carry each member's *downtime timeline*, so
/// [`CrashSet::alive_at`] can answer round-addressed liveness and
/// [`CrashSet::from_plan_window`] can re-admit a rejoined node for a later
/// wave — the self-healing half of the churn tier. Equality compares the
/// dead set only (the planning-relevant payload), never the timelines.
#[derive(Clone, Debug, Default, Eq)]
pub struct CrashSet {
    dead: BTreeSet<u32>,
    /// Downtime intervals `(node, start, end)`, end-exclusive with
    /// `usize::MAX` meaning "never rejoins". Members inserted without a
    /// schedule (builder form, reports) get `(0, usize::MAX)`.
    downtime: Vec<(u32, usize, usize)>,
}

impl PartialEq for CrashSet {
    fn eq(&self, other: &Self) -> bool {
        // Timelines are advisory; two plans that avoid the same nodes are
        // the same plan (pinned by `crash_set_builders_agree`).
        self.dead == other.dead
    }
}

impl CrashSet {
    /// The empty crash set: planning with it is byte-identical to the
    /// unfaulted schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// The full crash set a [`FaultPlan`] implies: every node the plan
    /// crash-stops at any round ([`FaultPlan::ever_dead_in`] with an
    /// unbounded horizon — conservative even for nodes that rejoin), each
    /// carrying its downtime timeline for [`CrashSet::alive_at`].
    pub fn from_plan(plan: &FaultPlan) -> Self {
        let mut set = Self::new();
        for v in plan.ever_dead_in(0..usize::MAX) {
            set.dead.insert(v.0);
            for (s, e) in plan.downtime(v) {
                set.downtime.push((v.0, s, e));
            }
        }
        set
    }

    /// The crash set for one *wave* of a churned run: every node whose
    /// scheduled downtime intersects the half-open round range `rounds`.
    /// A node that crashed and rejoined *before* the window is absent —
    /// re-admitted as a routing endpoint and intermediate — while a node
    /// due to be down at any point inside it is avoided throughout, so a
    /// mid-wave crash can only lose traffic the plan already reported
    /// undeliverable. Timelines are carried for [`CrashSet::alive_at`].
    pub fn from_plan_window(plan: &FaultPlan, rounds: std::ops::Range<usize>) -> Self {
        let mut set = Self::new();
        for v in plan.ever_dead_in(rounds) {
            set.dead.insert(v.0);
            for (s, e) in plan.downtime(v) {
                set.downtime.push((v.0, s, e));
            }
        }
        set
    }

    /// The crash set a live [`FaultReport`] witnessed: every node the
    /// report says crash-stopped, treated as permanently down (a report is
    /// a past-tense record; use [`CrashSet::from_plan_window`] when a
    /// schedule is available to plan re-admission ahead of time).
    pub fn from_report(report: &FaultReport) -> Self {
        report.crashed_nodes().into_iter().collect()
    }

    /// Mark `node` dead (builder form; permanent downtime).
    pub fn with(mut self, node: NodeId) -> Self {
        self.insert(node);
        self
    }

    /// Mark `node` dead, with permanent downtime.
    pub fn insert(&mut self, node: NodeId) {
        if self.dead.insert(node.0) {
            self.downtime.push((node.0, 0, usize::MAX));
        }
    }

    /// True if `node` is in the crash set.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.dead.contains(&node.0)
    }

    /// Round-addressed liveness: false exactly while one of `node`'s
    /// downtime intervals covers `round`. Nodes outside the crash set are
    /// always alive; members without a schedule never are. This is the
    /// planning-side mirror of [`FaultPlan::alive_at`].
    pub fn alive_at(&self, node: NodeId, round: usize) -> bool {
        if !self.is_dead(node) {
            return true;
        }
        !self
            .downtime
            .iter()
            .any(|&(v, s, e)| v == node.0 && s <= round && (round < e || e == usize::MAX))
    }

    /// True if no node is marked dead.
    pub fn is_empty(&self) -> bool {
        self.dead.is_empty()
    }

    /// Number of dead nodes.
    pub fn len(&self) -> usize {
        self.dead.len()
    }

    /// The dead nodes, ascending.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.dead.iter().map(|&v| NodeId(v))
    }

    /// The surviving node indices among `0..n`, ascending.
    pub fn survivors(&self, n: usize) -> Vec<NodeId> {
        (0..n)
            .map(NodeId::from)
            .filter(|v| !self.is_dead(*v))
            .collect()
    }

    /// Split a demand set into the surviving part and the
    /// [`Undeliverable`] records for demands touching a dead endpoint.
    #[allow(clippy::type_complexity)]
    pub(crate) fn partition_demands(
        &self,
        demands: Vec<Vec<(NodeId, BitString)>>,
    ) -> (Vec<Vec<(NodeId, BitString)>>, Vec<Undeliverable>) {
        let mut live: Vec<Vec<(NodeId, BitString)>> = Vec::with_capacity(demands.len());
        let mut undeliverable = Vec::new();
        for (v, list) in demands.into_iter().enumerate() {
            let source = NodeId::from(v);
            let mut keep = Vec::new();
            for (destination, payload) in list {
                let reason = if self.is_dead(source) {
                    Some(DeliveryFailure::SourceCrashed)
                } else if self.is_dead(destination) {
                    Some(DeliveryFailure::DestinationCrashed)
                } else {
                    None
                };
                match reason {
                    Some(reason) => undeliverable.push(Undeliverable {
                        source,
                        destination,
                        payload,
                        reason,
                    }),
                    None => keep.push((destination, payload)),
                }
            }
            live.push(keep);
        }
        (live, undeliverable)
    }
}

impl FromIterator<NodeId> for CrashSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut set = Self::new();
        for v in iter {
            set.insert(v);
        }
        set
    }
}

impl fmt::Display for CrashSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "crash-set[")?;
        for (i, v) in self.dead.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Why a demand could not be routed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryFailure {
    /// The demand's source is in the crash set (checked first when both
    /// endpoints are dead).
    SourceCrashed,
    /// The demand's destination is in the crash set.
    DestinationCrashed,
}

/// One demand dropped at planning time: the payload never went on the wire
/// because an endpoint is dead. Reported instead of erroring, so callers
/// can re-plan or account for the loss.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Undeliverable {
    /// The demand's origin.
    pub source: NodeId,
    /// The demand's intended recipient.
    pub destination: NodeId,
    /// The payload that was not sent.
    pub payload: BitString,
    /// Which endpoint was dead.
    pub reason: DeliveryFailure,
}

/// Outcome of a crash-aware routing phase.
#[derive(Debug)]
pub struct RoutedOutcome {
    /// Per-node deliveries: `Some` with the `(source, payload)` pairs for
    /// survivors, `None` for every node in the crash set.
    pub delivered: Vec<Option<Delivered>>,
    /// Demands dropped at planning time because an endpoint is dead.
    pub undeliverable: Vec<Undeliverable>,
    /// Accounting for the phase(s), including fault counters.
    pub stats: RunStats,
    /// Every fault the engine's plan actually applied.
    pub report: FaultReport,
}

impl RoutedOutcome {
    /// Deliveries of surviving nodes, with their ids.
    pub fn survivors(&self) -> impl Iterator<Item = (NodeId, &Delivered)> + '_ {
        self.delivered
            .iter()
            .enumerate()
            .filter_map(|(v, d)| d.as_ref().map(|d| (NodeId::from(v), d)))
    }
}

/// Route an explicit demand set around a crash set, under the engine's
/// fault plan.
///
/// Demands touching a dead endpoint are dropped at planning time and
/// reported in [`RoutedOutcome::undeliverable`]; the rest run the static
/// direct schedule of [`crate::route`] via
/// [`cliquesim::Session::run_faulted`]. Because each surviving pair uses
/// its private link, a planned crash cannot damage survivor traffic: every
/// demand between surviving endpoints is delivered. Nodes in the crash set
/// get `None` delivery slots regardless of when (or whether) the engine
/// actually kills them — the planning view is authoritative.
///
/// A node *outside* the crash set that crashes mid-phase yields
/// [`RouteError::UnplannedCrash`]; probabilistic link damage can still
/// surface as [`RouteError::Malformed`] — that tier wants
/// [`route_resilient`].
pub fn route_faulted(
    session: &mut Session,
    demands: Vec<Vec<(NodeId, BitString)>>,
    crash: &CrashSet,
) -> Result<RoutedOutcome, RouteError> {
    let n = session.n();
    assert_eq!(demands.len(), n, "one demand list per node");
    let bandwidth = session.bandwidth();

    let (live_demands, undeliverable) = crash.partition_demands(demands);
    let streams = build_streams(n, live_demands);
    let schedule = schedule_for(&streams, bandwidth);
    let programs = make_programs(n, streams, schedule);

    let outcome = session.run_faulted(programs)?;
    check_schedule(schedule, outcome.stats.rounds)?;

    let mut delivered: Vec<Option<Delivered>> = Vec::with_capacity(n);
    for (v, slot) in outcome.outputs.into_iter().enumerate() {
        if crash.is_dead(NodeId::from(v)) {
            delivered.push(None);
            continue;
        }
        match slot {
            Some(collected) => delivered.push(Some(parse_delivered(v, collected)?)),
            None => return Err(RouteError::UnplannedCrash(NodeId::from(v))),
        }
    }
    Ok(RoutedOutcome {
        delivered,
        undeliverable,
        stats: outcome.stats,
        report: outcome.faults,
    })
}

/// The retransmitting router for the lossy-link tier: each stream chunk is
/// sent `repeats` times over consecutive rounds; receivers majority-vote
/// the copies of each chunk.
struct ResilientRouterNode {
    /// Framed outgoing stream per destination.
    out_streams: Vec<BitString>,
    /// `copies[src][chunk]` = the copies of chunk `chunk` received from
    /// `src` (fewer than `repeats` if the adversary dropped some).
    copies: Vec<Vec<Vec<BitString>>>,
    /// Base schedule length in chunks.
    chunks: usize,
    repeats: usize,
}

impl NodeProgram for ResilientRouterNode {
    type Output = Vec<BitString>;

    fn step(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        outbox: &mut Outbox<'_>,
    ) -> Status<Vec<BitString>> {
        if round > 0 {
            let chunk = (round - 1) / self.repeats;
            for (src, msg) in inbox.iter() {
                self.copies[src.index()][chunk].push(msg.clone());
            }
        }
        if round == self.chunks * self.repeats {
            // Majority-vote each chunk and concatenate per source.
            let collected = self
                .copies
                .iter()
                .map(|chunks| {
                    let mut stream = BitString::new();
                    for copies in chunks {
                        if let Some(winner) = majority_payload(copies) {
                            stream.extend_from(&winner);
                        }
                    }
                    stream
                })
                .collect();
            return Status::Halt(collected);
        }
        let chunk = round / self.repeats;
        for dst in 0..ctx.n {
            if dst == ctx.id.index() {
                continue;
            }
            let stream = &self.out_streams[dst];
            let start = chunk * ctx.bandwidth;
            if start >= stream.len() {
                continue;
            }
            let take = ctx.bandwidth.min(stream.len() - start);
            let mut r = stream.reader();
            r.skip(start).expect("chunk start in range");
            outbox
                .send_with(NodeId::from(dst), |slot| r.read_into(take, slot))
                .expect("chunk in range");
        }
        Status::Continue
    }
}

/// Route an explicit demand set with `repeats`-fold chunk retransmission,
/// for engines whose fault plan drops or corrupts messages.
///
/// Each bandwidth-sized chunk of every stream is sent `repeats` times over
/// consecutive rounds; the receiver takes a per-chunk majority vote over
/// the copies that arrive ([`cc_resilient::majority_payload`]). A chunk
/// survives as long as intact copies outnumber corrupted ones and at least
/// one copy arrives — the same per-link guarantee as `RepeatBroadcast`, so
/// the delivery guarantee is probabilistic in the adversary's coin
/// probabilities. A chunk that loses its vote (or vanishes entirely)
/// surfaces as [`RouteError::Malformed`] at reassembly.
///
/// Costs `repeats ×` the rounds/messages/bits of [`crate::route`] on the
/// same demands — [`resilient_overhead`] prices it analytically, and the
/// fault-free run matches that price exactly.
pub fn route_resilient(
    session: &mut Session,
    demands: Vec<Vec<(NodeId, BitString)>>,
    repeats: usize,
) -> Result<Vec<Delivered>, RouteError> {
    let n = session.n();
    assert_eq!(demands.len(), n, "one demand list per node");
    assert!(repeats >= 1, "at least one transmission per chunk");
    let bandwidth = session.bandwidth();

    let streams = build_streams(n, demands);
    let chunks = schedule_for(&streams, bandwidth);
    let programs: Vec<ResilientRouterNode> = streams
        .into_iter()
        .map(|row| ResilientRouterNode {
            out_streams: row,
            copies: vec![vec![Vec::new(); chunks]; n],
            chunks,
            repeats,
        })
        .collect();

    let outcome = session.run_faulted(programs)?;
    check_schedule(chunks * repeats, outcome.stats.rounds)?;

    let mut result = Vec::with_capacity(n);
    for (v, slot) in outcome.outputs.into_iter().enumerate() {
        match slot {
            Some(collected) => result.push(parse_delivered(v, collected)?),
            None => return Err(RouteError::UnplannedCrash(NodeId::from(v))),
        }
    }
    Ok(result)
}

/// Analytic cost of [`route_resilient`] given the fault-free cost `base`
/// of [`crate::route`] on the same demands: every round is repeated
/// `repeats` times, so rounds, messages, and bits all scale by `repeats`
/// while per-message and peak-buffer sizes are unchanged. Suitable for
/// [`cliquesim::Session::charge`]; link faults only ever *remove* messages
/// from this bound.
pub fn resilient_overhead(base: &RunStats, repeats: usize) -> RunStats {
    RunStats {
        rounds: base.rounds * repeats,
        messages: base.messages * repeats as u64,
        bits: base.bits * repeats as u64,
        max_message_bits: base.max_message_bits,
        peak_live_payload_bytes: base.peak_live_payload_bytes,
        ..RunStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route;
    use cliquesim::Engine;

    fn demands_for(n: usize) -> Vec<Vec<(NodeId, BitString)>> {
        // A deterministic all-pairs-ish pattern with varied payloads.
        let mut demands: Vec<Vec<(NodeId, BitString)>> = vec![Vec::new(); n];
        for v in 0..n {
            for d in 1..3 {
                let dst = (v + d) % n;
                let payload: BitString = (0..(7 * v + 3 * d + 1)).map(|i| i % 3 == 0).collect();
                demands[v].push((NodeId::from(dst), payload));
            }
        }
        demands
    }

    #[test]
    fn crash_set_builders_agree() {
        let plan = FaultPlan::new(3).crash(NodeId(2), 1).crash(NodeId(5), 4);
        let set = CrashSet::from_plan(&plan);
        assert!(set.is_dead(NodeId(2)) && set.is_dead(NodeId(5)));
        assert!(!set.is_dead(NodeId(0)));
        assert_eq!(set.len(), 2);
        assert_eq!(set.survivors(7).len(), 5);
        assert_eq!(set.to_string(), "crash-set[2,5]");
        assert_eq!(
            CrashSet::new().with(NodeId(2)).with(NodeId(5)),
            set,
            "builder and plan-derived sets agree (equality is the dead set \
             only, never the timelines)"
        );
    }

    #[test]
    fn crash_set_is_round_aware_under_churn() {
        let plan = FaultPlan::new(0)
            .crash(NodeId(2), 3)
            .rejoin(NodeId(2), 6)
            .expect("crash precedes rejoin")
            .crash(NodeId(5), 8);
        // from_plan is conservative: the rejoiner is still a member (it is
        // unsafe for work spanning its downtime) but its timeline answers
        // round-addressed liveness.
        let set = CrashSet::from_plan(&plan);
        assert!(set.is_dead(NodeId(2)) && set.is_dead(NodeId(5)));
        assert!(set.alive_at(NodeId(2), 2));
        assert!(!set.alive_at(NodeId(2), 3));
        assert!(!set.alive_at(NodeId(2), 5));
        assert!(set.alive_at(NodeId(2), 6), "back at the rejoin round");
        assert!(!set.alive_at(NodeId(5), usize::MAX), "permanent crash");
        assert!(set.alive_at(NodeId(0), 0), "non-members are always alive");
        // Builder members have no schedule: never alive.
        let built = CrashSet::new().with(NodeId(1));
        assert!(!built.alive_at(NodeId(1), 0));
        // Windowed sets re-admit completed crash/rejoin pairs: node 2 is
        // avoided while its downtime intersects the wave and re-admitted
        // afterwards; node 5 only joins once its crash is in sight.
        let w0 = CrashSet::from_plan_window(&plan, 0..3);
        assert!(w0.is_empty(), "nothing is down in rounds 0..3: {w0}");
        let w1 = CrashSet::from_plan_window(&plan, 3..6);
        assert!(w1.is_dead(NodeId(2)) && !w1.is_dead(NodeId(5)));
        let w2 = CrashSet::from_plan_window(&plan, 6..9);
        assert!(!w2.is_dead(NodeId(2)), "rejoined before the window");
        assert!(w2.is_dead(NodeId(5)));
        // A crash-only plan windows to exactly the classic full set.
        let plain = FaultPlan::new(1).crash(NodeId(4), 2);
        assert_eq!(
            CrashSet::from_plan_window(&plain, 2..usize::MAX),
            CrashSet::from_plan(&plain)
        );
    }

    #[test]
    fn dead_endpoints_become_undeliverable_records() {
        let n = 6;
        let plan = FaultPlan::new(0).crash(NodeId(1), 1);
        let crash = CrashSet::from_plan(&plan);
        let mut session = Session::new(Engine::new(n).with_fault_plan(plan));
        let out = route_faulted(&mut session, demands_for(n), &crash).unwrap();
        assert!(out.delivered[1].is_none(), "dead node has no delivery slot");
        for u in out.undeliverable.iter() {
            assert!(u.source == NodeId(1) || u.destination == NodeId(1));
        }
        // demands_for sends 1→2, 1→3 (source dead) and 0→1, 5→1 (dest dead).
        assert_eq!(out.undeliverable.len(), 4);
        let by_source = out
            .undeliverable
            .iter()
            .filter(|u| u.reason == DeliveryFailure::SourceCrashed)
            .count();
        assert_eq!(by_source, 2);
        // Every survivor-pair demand arrives.
        for (v, d) in out.survivors() {
            let expect = demands_for(n)
                .iter()
                .enumerate()
                .flat_map(|(s, list)| {
                    list.iter()
                        .filter(|(dst, _)| *dst == v && s != 1)
                        .map(move |(_, p)| (NodeId::from(s), p.clone()))
                        .collect::<Vec<_>>()
                })
                .count();
            assert_eq!(d.len(), expect, "node {v:?} missed survivor traffic");
        }
    }

    #[test]
    fn empty_crash_set_matches_route_exactly() {
        let n = 5;
        let mut s1 = Session::new(Engine::new(n));
        let plain = route(&mut s1, demands_for(n)).unwrap();
        let mut s2 = Session::new(Engine::new(n));
        let faulted = route_faulted(&mut s2, demands_for(n), &CrashSet::new()).unwrap();
        assert!(faulted.undeliverable.is_empty());
        let unwrapped: Vec<Delivered> = faulted.delivered.into_iter().map(|d| d.unwrap()).collect();
        assert_eq!(plain, unwrapped);
        assert_eq!(s1.stats(), s2.stats(), "byte-identical wire cost");
    }

    #[test]
    fn resilient_overhead_matches_fault_free_run() {
        let n = 5;
        let repeats = 3;
        let mut s1 = Session::new(Engine::new(n));
        route(&mut s1, demands_for(n)).unwrap();
        let base = s1.stats().clone();
        let mut s2 = Session::new(Engine::new(n));
        let got = route_resilient(&mut s2, demands_for(n), repeats).unwrap();
        let analytic = resilient_overhead(&base, repeats);
        let actual = s2.stats();
        assert_eq!(actual.rounds, analytic.rounds);
        assert_eq!(actual.messages, analytic.messages);
        assert_eq!(actual.bits, analytic.bits);
        assert_eq!(actual.max_message_bits, analytic.max_message_bits);
        assert_eq!(
            actual.peak_live_payload_bytes,
            analytic.peak_live_payload_bytes
        );
        // And it delivers what route delivers.
        let mut s3 = Session::new(Engine::new(n));
        assert_eq!(got, route(&mut s3, demands_for(n)).unwrap());
    }

    #[test]
    fn resilient_survives_dropped_copies() {
        let n = 5;
        // Drop a fifth of all messages: with 5 copies per chunk no chunk
        // loses every copy at this seed, and drops cannot outvote intact
        // copies (dropped ≠ corrupted).
        let plan = FaultPlan::new(11).drop_messages(0.2);
        let mut s = Session::new(Engine::new(n).with_fault_plan(plan));
        let got = route_resilient(&mut s, demands_for(n), 5).unwrap();
        let mut clean = Session::new(Engine::new(n));
        assert_eq!(got, route(&mut clean, demands_for(n)).unwrap());
        assert!(s.stats().dropped_messages > 0, "the adversary never fired");
    }

    #[test]
    fn resilient_survives_corrupted_copies() {
        let n = 4;
        // A low corruption rate against 5 copies per chunk: intact copies
        // win every per-chunk majority at this seed.
        let plan = FaultPlan::new(7).corrupt_messages(0.1);
        let mut s = Session::new(Engine::new(n).with_fault_plan(plan));
        let got = route_resilient(&mut s, demands_for(n), 5).unwrap();
        let mut clean = Session::new(Engine::new(n));
        assert_eq!(got, route(&mut clean, demands_for(n)).unwrap());
        assert!(
            s.stats().corrupted_messages > 0,
            "the adversary never fired"
        );
    }
}

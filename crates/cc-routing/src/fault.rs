//! Fault-aware routing: the crash set a plan avoids, and what it reports.
//!
//! A static schedule assumes every link delivers: one crashed node turns
//! received streams into `Malformed` parse errors. This module is the
//! planning layer that makes routing *degrade* instead of *error*:
//!
//! * a [`CrashSet`] names the nodes to treat as dead — built statically
//!   from a [`cliquesim::FaultPlan`]'s full churn schedule
//!   ([`CrashSet::from_plan`], via [`cliquesim::FaultPlan::ever_dead_in`]),
//!   from one *wave* of it ([`CrashSet::from_plan_window`], which
//!   re-admits nodes whose crash/rejoin pair completed before the window —
//!   the self-healing rung: a recovered node carries megastream segments
//!   again in the very next wave), or node by node ([`CrashSet::with`]);
//!   round-addressed liveness stays with the plan
//!   ([`cliquesim::FaultPlan::alive_at`]);
//! * [`crate::RoutePlan::avoiding`] re-plans a demand set around it:
//!   demands to or from dead endpoints are dropped at planning time and
//!   reported as structured [`Undeliverable`] records in a
//!   [`RoutedOutcome`], while every demand between surviving endpoints is
//!   routed as before — on the direct schedule it rides its private link,
//!   which a crashed third party cannot touch, and the balanced schedule
//!   remaps megastream segments away from dead intermediates;
//! * [`crate::RoutePlan::repeats`] handles the *lossy-link* tier instead:
//!   every stream chunk is retransmitted `k` times and receivers take a
//!   per-chunk majority vote, at the price [`crate::RoutePlan::cost`]
//!   gives for [`cliquesim::Session::charge`].
//!
//! The planning view is conservative: a node scheduled to crash at *any*
//! round of the phase is treated as dead for the whole phase. Survivor
//! traffic therefore never touches a crashing node, and a mid-phase crash
//! can only lose payloads the plan already reported undeliverable.

use std::collections::BTreeSet;
use std::fmt;

use cliquesim::{BitString, FaultPlan, FaultReport, NodeId, RunStats};

use crate::router::Delivered;

/// The set of nodes a routing plan treats as crashed.
///
/// Planning data, conservative by construction: a node in the set is
/// avoided for the whole phase the set was built for, whenever it actually
/// dies within it (see the module docs). A set is only its dead nodes;
/// re-admitting a rejoined node for a later wave is
/// [`CrashSet::from_plan_window`]'s job — the self-healing half of the
/// churn tier.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrashSet {
    dead: BTreeSet<u32>,
}

impl CrashSet {
    /// The empty crash set: planning with it is byte-identical to the
    /// unfaulted schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// The full crash set a [`FaultPlan`] implies: every node the plan
    /// crash-stops at any round ([`FaultPlan::ever_dead_in`] with an
    /// unbounded horizon — conservative even for nodes that rejoin).
    pub fn from_plan(plan: &FaultPlan) -> Self {
        Self::from_plan_window(plan, 0..usize::MAX)
    }

    /// The crash set for one *wave* of a churned run: every node whose
    /// scheduled downtime intersects the half-open round range `rounds`.
    /// A node that crashed and rejoined *before* the window is absent —
    /// re-admitted as a routing endpoint and intermediate — while a node
    /// due to be down at any point inside it is avoided throughout, so a
    /// mid-wave crash can only lose traffic the plan already reported
    /// undeliverable.
    pub fn from_plan_window(plan: &FaultPlan, rounds: std::ops::Range<usize>) -> Self {
        plan.ever_dead_in(rounds).into_iter().collect()
    }

    /// Mark `node` dead (builder form).
    pub fn with(mut self, node: NodeId) -> Self {
        self.insert(node);
        self
    }

    /// Mark `node` dead.
    pub fn insert(&mut self, node: NodeId) {
        self.dead.insert(node.0);
    }

    /// True if `node` is in the crash set.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.dead.contains(&node.0)
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

    /// Keep the demands between surviving endpoints, handing every other
    /// one to `dropped` with its reason (a dead source is named first).
    pub(crate) fn partition_demands<S>(
        &self,
        demands: Vec<Vec<(NodeId, S)>>,
        mut dropped: impl FnMut(NodeId, NodeId, S, DeliveryFailure),
    ) -> Vec<Vec<(NodeId, S)>> {
        let mut live = Vec::with_capacity(demands.len());
        for (v, list) in demands.into_iter().enumerate() {
            let source = NodeId::from(v);
            let mut keep = Vec::new();
            for (destination, payload) in list {
                if self.is_dead(source) {
                    dropped(source, destination, payload, DeliveryFailure::SourceCrashed);
                } else if self.is_dead(destination) {
                    dropped(
                        source,
                        destination,
                        payload,
                        DeliveryFailure::DestinationCrashed,
                    );
                } else {
                    keep.push((destination, payload));
                }
            }
            live.push(keep);
        }
        live
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoutePlan;
    use cliquesim::{Engine, Session};

    fn route(s: &mut Session, demands: Vec<Vec<(NodeId, BitString)>>) -> Vec<Delivered> {
        RoutePlan::direct().run(s, demands).unwrap()
    }

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
            "builder and plan-derived sets agree"
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
        // unsafe for work spanning its downtime).
        let set = CrashSet::from_plan(&plan);
        assert!(set.is_dead(NodeId(2)) && set.is_dead(NodeId(5)));
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
        let out = RoutePlan::direct()
            .avoiding(&crash)
            .run_faulted(&mut session, demands_for(n))
            .unwrap();
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
        let plain = route(&mut s1, demands_for(n));
        let mut s2 = Session::new(Engine::new(n));
        let faulted = RoutePlan::direct()
            .avoiding(&CrashSet::new())
            .run_faulted(&mut s2, demands_for(n))
            .unwrap();
        assert!(faulted.undeliverable.is_empty());
        let unwrapped: Vec<Delivered> = faulted.delivered.into_iter().map(|d| d.unwrap()).collect();
        assert_eq!(plain, unwrapped);
        assert_eq!(s1.stats(), s2.stats(), "byte-identical wire cost");
    }

    #[test]
    fn resilient_survives_dropped_copies() {
        let n = 5;
        // Drop a fifth of all messages: with 5 copies per chunk no chunk
        // loses every copy at this seed, and drops cannot outvote intact
        // copies (dropped ≠ corrupted).
        let plan = FaultPlan::new(11).drop_messages(0.2);
        let mut s = Session::new(Engine::new(n).with_fault_plan(plan));
        let got = RoutePlan::direct()
            .repeats(5)
            .run(&mut s, demands_for(n))
            .unwrap();
        let mut clean = Session::new(Engine::new(n));
        assert_eq!(got, route(&mut clean, demands_for(n)));
        assert!(s.stats().dropped_messages > 0, "the adversary never fired");
    }

    #[test]
    fn resilient_survives_corrupted_copies() {
        let n = 4;
        // A low corruption rate against 5 copies per chunk: intact copies
        // win every per-chunk majority at this seed.
        let plan = FaultPlan::new(7).corrupt_messages(0.1);
        let mut s = Session::new(Engine::new(n).with_fault_plan(plan));
        let got = RoutePlan::direct()
            .repeats(5)
            .run(&mut s, demands_for(n))
            .unwrap();
        let mut clean = Session::new(Engine::new(n));
        assert_eq!(got, route(&mut clean, demands_for(n)));
        assert!(
            s.stats().corrupted_messages > 0,
            "the adversary never fired"
        );
    }
}

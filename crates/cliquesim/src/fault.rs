//! Deterministic fault injection: seed-addressed adversary plans.
//!
//! The paper's model (§3) assumes a perfectly reliable synchronous clique.
//! A production-scale simulator must also answer the question the model
//! abstracts away: *what does this protocol do when the network misbehaves?*
//! A [`FaultPlan`] is a pure-data, ChaCha-seeded schedule of adversarial
//! events — crash-stop at a round, per-link message drop, deterministic
//! bit-flip corruption, and bandwidth truncation — that the engine applies
//! between rounds.
//!
//! # Determinism contract
//!
//! Every fault decision is a pure function of `(plan seed, round, sender,
//! receiver)` — a fresh ChaCha8 stream is keyed per message (its coins,
//! however they are computed: the link-fault pass primes a sender row's
//! streams in batches), so decisions do not depend on iteration order or
//! host. The same plan against the same programs replays the
//! same faults, bit for bit; a plan's [`FaultPlan::label`] (e.g.
//! `plan[seed=7, drop=0.25, crashes=2]`) names the adversary the way
//! testkit's `family[n, seed]` labels name instances.
//!
//! An **empty plan is transparent**: `FaultPlan::new(seed)` with no faults
//! configured produces byte-identical outputs, transcripts, and
//! [`crate::RunStats`] to a run with no plan at all.
//!
//! # Semantics
//!
//! * **Crash-stop** at round `r`: the node does not step in round `r` or any
//!   later round — unless the plan schedules a *rejoin*. Messages it sent in
//!   round `r - 1` are still delivered (they were on the wire before the
//!   crash); messages addressed *to* it that it never read are charged to
//!   the undelivered counters. A node that already halted normally is
//!   unaffected.
//! * **Rejoin** at round `r`: a previously crashed node resumes stepping at
//!   the start of round `r`. The engine first *state-syncs* it by replaying
//!   the missed transcript window (what was on the wire to it each missed
//!   round) as out-of-band `StateSync` rounds; the replay's bandwidth is
//!   priced in the dedicated sync counters of [`crate::RunStats`] and in the
//!   [`FaultEvent::Rejoined`] event, never in the live `messages`/`bits`
//!   totals (sent-based accounting stays transcript-exact). Build with
//!   [`FaultPlan::rejoin`] (validated, see [`ChurnError`]) or sample a whole
//!   Poisson-style churn schedule with [`FaultPlan::with_random_churn`].
//! * **Drop**: the message is removed from the wire after the sender is
//!   charged for it (sent-based accounting, see [`crate::stats`]).
//! * **Corrupt**: exactly one bit of the payload is flipped; the length is
//!   unchanged, so a corrupted message still satisfies the bandwidth bound.
//! * **Truncate**: the payload is cut to a strict prefix (possibly empty),
//!   modelling a link that loses the tail of a frame.
//!
//! Faults are applied between rounds, after the sender-side accounting and
//! transcript recording for the round — so a
//! node's transcript records what it *sent* pre-fault and what it
//! *received* post-fault, exactly the asymmetry a real lossy network shows.
//!
//! # Position in the adversary ladder
//!
//! This plan is the *oblivious* tier of the workspace's threat model
//! (`docs/THREAT-MODEL.md`): faults are content-blind and link-local, so a
//! broadcast is damaged independently per link but the sender itself never
//! lies. The stronger tier — a sender that equivocates per recipient and
//! adapts to what it heard — is [`crate::byzantine::ByzantinePlan`], which
//! shares this module's seed-addressed keying and composes with it (lies
//! first, then link damage).

use std::fmt;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::bits::BitString;
use crate::coins::Coins;
use crate::delivery::{BufView, BufViewMut, MsgMut};
use crate::node::NodeId;
use crate::stats::RunStats;

/// A deterministic, forced fault on one message (as opposed to the
/// probabilistic coins, which apply to every link).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Remove the message from the wire.
    Drop,
    /// Flip payload bit `bit % len` (no-op on an empty payload).
    Flip {
        /// Bit position to flip, reduced modulo the payload length.
        bit: usize,
    },
    /// Keep only the first `min(keep, len)` payload bits.
    Truncate {
        /// Number of prefix bits to keep.
        keep: usize,
    },
}

/// One scheduled forced fault: `(round, from, to, kind)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForcedFault {
    /// Round in which the message is sent.
    pub round: usize,
    /// Sender of the targeted message.
    pub from: NodeId,
    /// Recipient of the targeted message.
    pub to: NodeId,
    /// What happens to it.
    pub kind: FaultKind,
}

/// A seed-addressed adversary schedule. Pure data: construct with the
/// builder methods, attach to an engine with
/// [`crate::Engine::with_fault_plan`], replay by reconstructing from the
/// same parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    crashes: Vec<(NodeId, usize)>,
    rejoins: Vec<(NodeId, usize)>,
    drop_p: f64,
    corrupt_p: f64,
    truncate_p: f64,
    forced: Vec<ForcedFault>,
}

/// Why a rejoin entry was rejected at plan-build time. Churn schedules are
/// validated eagerly so an impossible plan is a structured error at the
/// builder, not a silent no-op (or a panic) mid-run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnError {
    /// The node has no crash entry at all, so there is nothing to rejoin
    /// from.
    RejoinWithoutCrash {
        /// The node the rejoin addressed.
        node: NodeId,
        /// The rejected rejoin round.
        round: usize,
    },
    /// At the start of the rejoin round the node would still be alive under
    /// the schedule built so far (its crash comes later, or an earlier
    /// rejoin already revived it). Add crashes before their rejoins; a
    /// rejoin round must be strictly greater than the crash it recovers
    /// from, so `rejoin(v, 0)` is always rejected.
    RejoinWhileAlive {
        /// The node the rejoin addressed.
        node: NodeId,
        /// The rejected rejoin round.
        round: usize,
    },
}

impl fmt::Display for ChurnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChurnError::RejoinWithoutCrash { node, round } => write!(
                f,
                "rejoin of node {} at round {round} rejected: the plan never crashes it",
                node.display()
            ),
            ChurnError::RejoinWhileAlive { node, round } => write!(
                f,
                "rejoin of node {} at round {round} rejected: it is still alive at that point \
                 (crashes must precede their rejoins, strictly)",
                node.display()
            ),
        }
    }
}

impl std::error::Error for ChurnError {}

impl FaultPlan {
    /// An empty plan. Attaching it to an engine is guaranteed to leave
    /// every run byte-identical to a plan-less run.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            crashes: Vec::new(),
            rejoins: Vec::new(),
            drop_p: 0.0,
            corrupt_p: 0.0,
            truncate_p: 0.0,
            forced: Vec::new(),
        }
    }

    /// The plan's seed (drives every probabilistic coin).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True if the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.rejoins.is_empty()
            && self.forced.is_empty()
            && self.drop_p == 0.0
            && self.corrupt_p == 0.0
            && self.truncate_p == 0.0
    }

    /// Crash-stop `node` at the start of `round`. Without a matching
    /// [`FaultPlan::rejoin`] it never steps again.
    pub fn crash(mut self, node: NodeId, round: usize) -> Self {
        self.crashes.push((node, round));
        self
    }

    /// Bring a crashed `node` back at the start of `round`: the engine
    /// state-syncs it over the missed window and it resumes stepping in
    /// `round`. Validated against the schedule built **so far** — add the
    /// crash first. The rejoin round must be strictly after the crash it
    /// recovers from; see [`ChurnError`] for the rejection cases.
    pub fn rejoin(mut self, node: NodeId, round: usize) -> Result<Self, ChurnError> {
        if !self.crashes.iter().any(|(v, _)| *v == node) {
            return Err(ChurnError::RejoinWithoutCrash { node, round });
        }
        let dead_before = round > 0 && !self.alive_at(node, round - 1);
        if !dead_before {
            return Err(ChurnError::RejoinWhileAlive { node, round });
        }
        self.rejoins.push((node, round));
        Ok(self)
    }

    /// Sample a whole crash/rejoin churn schedule: every node outside
    /// `spare` walks a two-state Markov chain over rounds `1..=max_round`,
    /// crashing while alive with probability `crash_per_mille / 1000` and
    /// rejoining while down with probability `rejoin_per_mille / 1000`,
    /// per round. Each coin is a fresh ChaCha8 stream keyed by
    /// `(plan seed, node, round)`, so the schedule is a pure function of the
    /// seed — bit-identical across hosts — and valid by construction
    /// (strictly alternating crash/rejoin per node, never at round 0).
    pub fn with_random_churn(
        mut self,
        n: usize,
        crash_per_mille: u32,
        rejoin_per_mille: u32,
        max_round: usize,
        spare: &[NodeId],
    ) -> Self {
        assert!(crash_per_mille <= 1000, "crash rate is per mille");
        assert!(rejoin_per_mille <= 1000, "rejoin rate is per mille");
        let seed = self.seed;
        let mut coins = Coins::default();
        for v in 0..n {
            if spare.iter().any(|s| s.index() == v) {
                continue;
            }
            let mut alive = true;
            let key = |&r: &usize| mix(seed, 0x0C48_5242, v as u64, r as u64);
            coins.for_each(1..=max_round, key, |r, rng| {
                let coin = rng.gen_range(0..1000u32);
                if alive {
                    if coin < crash_per_mille {
                        self.crashes.push((NodeId::from(v), r));
                        alive = false;
                    }
                } else if coin < rejoin_per_mille {
                    self.rejoins.push((NodeId::from(v), r));
                    alive = true;
                }
            });
        }
        self
    }

    /// Schedule `f` distinct crash victims among `n` nodes, each at a
    /// ChaCha-chosen round in `1..=max_round`, excluding the nodes in
    /// `spare` (e.g. a broadcast source). Victims and rounds are a pure
    /// function of the plan seed.
    pub fn with_random_crashes(
        mut self,
        n: usize,
        f: usize,
        max_round: usize,
        spare: &[NodeId],
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(mix(self.seed, 0xC4A5_4ED0, 0, 0));
        let mut victims: Vec<usize> = (0..n)
            .filter(|v| !spare.iter().any(|s| s.index() == *v))
            .collect();
        // Fisher–Yates prefix selection.
        for i in 0..f.min(victims.len()) {
            let j = i + rng.gen_range(0..victims.len() - i);
            victims.swap(i, j);
            let round = rng.gen_range(1..=max_round.max(1));
            self.crashes.push((NodeId::from(victims[i]), round));
        }
        self
    }

    /// Drop every message independently with probability `p`.
    pub fn drop_messages(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p={p} is not a probability");
        self.drop_p = p;
        self
    }

    /// Flip one bit of every message independently with probability `p`.
    pub fn corrupt_messages(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p={p} is not a probability");
        self.corrupt_p = p;
        self
    }

    /// Truncate every message independently with probability `p`.
    pub fn truncate_messages(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p={p} is not a probability");
        self.truncate_p = p;
        self
    }

    /// Force a specific fault on the message `from → to` sent in `round`.
    pub fn force(mut self, round: usize, from: NodeId, to: NodeId, kind: FaultKind) -> Self {
        self.forced.push(ForcedFault {
            round,
            from,
            to,
            kind,
        });
        self
    }

    /// The round at which `node` is scheduled to crash (minimum over
    /// duplicate entries), if any.
    pub fn crash_round(&self, node: NodeId) -> Option<usize> {
        self.crashes
            .iter()
            .filter(|(v, _)| *v == node)
            .map(|(_, r)| *r)
            .min()
    }

    /// The downtime intervals the schedule implies for `node`, as
    /// half-open `[crash_round, rejoin_round)` pairs in ascending order; a
    /// final crash without a rejoin yields `[crash_round, usize::MAX)`.
    /// Duplicate crashes of an already-down node (and duplicate rejoins of
    /// an already-revived one) are collapsed, matching what the engine
    /// actually applies.
    pub fn downtime(&self, node: NodeId) -> Vec<(usize, usize)> {
        let mut events: Vec<(usize, bool)> = self
            .crashes
            .iter()
            .filter(|(v, _)| *v == node)
            .map(|(_, r)| (*r, false))
            .chain(
                self.rejoins
                    .iter()
                    .filter(|(v, _)| *v == node)
                    .map(|(_, r)| (*r, true)),
            )
            .collect();
        // `false` (crash) sorts before `true` (rejoin) at equal rounds —
        // the engine processes crashes first within a round.
        events.sort_unstable();
        let mut out = Vec::new();
        let mut open: Option<usize> = None;
        for (r, is_rejoin) in events {
            match (is_rejoin, open) {
                (false, None) => open = Some(r),
                (true, Some(s)) => {
                    out.push((s, r));
                    open = None;
                }
                _ => {}
            }
        }
        if let Some(s) = open {
            out.push((s, usize::MAX));
        }
        out
    }

    /// Whether `node` is scheduled to step at the start of `round`: false
    /// exactly while a crash is in effect and no rejoin has fired yet. The
    /// churn tier's ground truth — [`FaultPlan::dead_at`] and `cc-routing`'s
    /// round-aware crash sets are derived from it.
    pub fn alive_at(&self, node: NodeId, round: usize) -> bool {
        // `e == usize::MAX` is the "never rejoins" sentinel and must cover
        // every round including `usize::MAX` itself.
        !self
            .downtime(node)
            .iter()
            .any(|&(s, e)| s <= round && (round < e || e == usize::MAX))
    }

    /// The crash set this plan implies at `round`: every node down at that
    /// round **net of rejoins** (a node crashing at round `r` misses `r` and
    /// later rounds until — if ever — its rejoin). Ascending node order,
    /// duplicates collapsed; `dead_at(usize::MAX)` is the set of nodes that
    /// never come back. For the conservative *ever-dead* population (e.g. a
    /// router refusing any intermediate with scheduled downtime) use
    /// [`FaultPlan::ever_dead_in`].
    pub fn dead_at(&self, round: usize) -> Vec<NodeId> {
        let mut dead: Vec<NodeId> = self
            .crashes
            .iter()
            .map(|(v, _)| *v)
            .filter(|v| !self.alive_at(*v, round))
            .collect();
        dead.sort_by_key(|v| v.index());
        dead.dedup();
        dead
    }

    /// Every node with scheduled downtime intersecting the half-open round
    /// range `rounds` — the conservative crash set a planner should avoid
    /// for work spanning that window. `ever_dead_in(0..usize::MAX)` is the
    /// plan's full ever-crashed population.
    pub fn ever_dead_in(&self, rounds: std::ops::Range<usize>) -> Vec<NodeId> {
        let mut dead: Vec<NodeId> = self
            .crashes
            .iter()
            .map(|(v, _)| *v)
            .filter(|v| {
                self.downtime(*v)
                    .iter()
                    .any(|&(s, e)| s < rounds.end && e > rounds.start)
            })
            .collect();
        dead.sort_by_key(|v| v.index());
        dead.dedup();
        dead
    }

    /// The first rejoin of `node` scheduled strictly after `round`, if any.
    /// The engine calls this at crash time to decide whether to keep a
    /// state-sync window for the victim.
    pub fn next_rejoin_after(&self, node: NodeId, round: usize) -> Option<usize> {
        self.rejoins
            .iter()
            .filter(|(v, r)| *v == node && *r > round)
            .map(|(_, r)| *r)
            .min()
    }

    /// True if the plan schedules any rejoin (gates the engine's state-sync
    /// machinery; crash-only plans take the exact pre-churn code path).
    pub(crate) fn has_rejoins(&self) -> bool {
        !self.rejoins.is_empty()
    }

    /// The replayable adversary label, `plan[seed=…, …]`.
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// True if any link fault (probabilistic or forced) can ever fire.
    pub(crate) fn has_link_faults(&self) -> bool {
        self.drop_p > 0.0
            || self.corrupt_p > 0.0
            || self.truncate_p > 0.0
            || !self.forced.is_empty()
    }

    /// The plan with its per-message and per-node lookups indexed, for one
    /// run.
    pub(crate) fn indexed(&self) -> IndexedFaultPlan<'_> {
        IndexedFaultPlan {
            plan: self,
            forced: AddressIndex::new(
                self.forced
                    .iter()
                    .map(|f| ((f.round, f.from.index(), f.to.index()), f.kind)),
            ),
            crashes: AddressIndex::new(self.crashes.iter().map(|&(v, r)| ((r, v.index()), ()))),
        }
    }
}

/// A [`FaultPlan`] prepared for a run: its forced faults indexed by
/// message address and its crashes by round, so the passes look each up by
/// binary search instead of scanning the plan's lists.
#[derive(Debug)]
pub(crate) struct IndexedFaultPlan<'a> {
    pub(crate) plan: &'a FaultPlan,
    forced: AddressIndex<(usize, usize, usize), FaultKind>,
    /// Keyed `(round, node)`.
    crashes: AddressIndex<(usize, usize), ()>,
}

impl IndexedFaultPlan<'_> {
    /// The forced fault scheduled for `(round, from, to)`, if any (first
    /// match in insertion order wins).
    fn forced_for(&self, round: usize, from: usize, to: usize) -> Option<FaultKind> {
        self.forced.at((round, from, to)).next()
    }

    /// Apply the crash schedule for `round`: mark scheduled victims halted,
    /// record one [`FaultEvent::Crashed`] per victim still running, and
    /// charge the messages the victim will now never read (column `v` of
    /// the matrix this round reads).
    pub(crate) fn apply_crashes(
        &self,
        round: usize,
        halted: &mut [bool],
        inbound: &BufView<'_>,
        report: &mut FaultReport,
    ) {
        // Exact-round entries, nodes ascending: with rejoins a node can
        // crash, come back, and crash again. A node already halted
        // (normally or by an earlier crash) is skipped, which also
        // collapses duplicate crash entries.
        let due = self.crashes.tail((round, 0));
        for &((_, v), ()) in due.iter().take_while(|((r, _), _)| *r == round) {
            let Some(h) = halted.get_mut(v).filter(|h| !**h) else {
                continue;
            };
            *h = true;
            let (lost_messages, lost_bits) = inbound
                .column(v)
                .fold((0u64, 0u64), |(c, b), (_, m)| (c + 1, b + m.len() as u64));
            report.events.push(FaultEvent::Crashed {
                node: NodeId::from(v),
                round,
                lost_messages,
                lost_bits,
            });
        }
    }

    /// Apply link faults to the buffer written in `round` (it will be read
    /// next round). Sweep order is sender-major and decisions are keyed per
    /// `(seed, round, from, to)`, so the result is independent of how the
    /// buffer stores the messages.
    ///
    /// Under a plan whose only rate is the drop rate, a row that only
    /// broadcasts and has no fault forced on it is decided in one batch
    /// ([`IndexedFaultPlan::drop_copies`]); every other row visits its
    /// messages one by one ([`IndexedFaultPlan::fault_one`]). Both read the
    /// same coins and apply the same faults.
    pub(crate) fn apply_link_faults(
        &self,
        round: usize,
        cur: &mut BufViewMut<'_>,
        coins: &mut Coins,
        report: &mut FaultReport,
    ) {
        let drops_only = self.plan.corrupt_p == 0.0 && self.plan.truncate_p == 0.0;
        for v in 0..cur.n() {
            if drops_only && !self.forced_from(round, v) {
                if let Some(bits) = cur.pure_broadcast(v).map(BitString::len) {
                    self.drop_copies(round, v, bits, cur, coins, report);
                    continue;
                }
            }
            let key = |u| self.link_key(round, v, u);
            coins.for_each_msg_mut(cur, v, key, |u, m, rng| {
                self.fault_one(round, v, u, m, rng, report)
            });
        }
    }

    /// The coin stream key of the message `from → to` sent in `round`.
    fn link_key(&self, round: usize, from: usize, to: usize) -> u64 {
        mix(self.plan.seed, round as u64, from as u64, to as u64)
    }

    /// Whether a fault is forced on any message `from` sends in `round`.
    fn forced_from(&self, round: usize, from: usize) -> bool {
        self.forced
            .tail((round, from, 0))
            .first()
            .is_some_and(|&((r, f, _), _)| (r, f) == (round, from))
    }

    /// Decide the `n − 1` copies of sender `v`'s pure broadcast row, each
    /// `bits` long, in one batch. With only a drop rate and nothing forced,
    /// a copy's one deciding coin is its stream's first draw, compared as
    /// `gen_bool(drop_p)` compares it; the dropped copies become empty
    /// overrides in one buffer call. The events and messages are those
    /// [`IndexedFaultPlan::fault_one`] gives on every copy.
    fn drop_copies(
        &self,
        round: usize,
        v: usize,
        bits: usize,
        cur: &mut BufViewMut<'_>,
        coins: &mut Coins,
        report: &mut FaultReport,
    ) {
        let recipients = (0..cur.n()).filter(move |&u| u != v);
        let draws = coins.first_u64s(recipients.clone().map(|u| self.link_key(round, v, u)));
        let dropped = recipients
            .zip(draws)
            .filter(|&(_, w)| unit_f64(w) < self.plan.drop_p)
            .map(|(u, _)| {
                report.events.push(FaultEvent::Dropped {
                    from: NodeId::from(v),
                    to: NodeId::from(u),
                    round,
                    bits,
                });
                u
            });
        cur.clear_copies(v, dropped);
    }

    /// Decide and apply the fault (if any) for one non-empty message,
    /// drawing from its coin stream `rng`, keyed by `(seed, round, link)`.
    /// A broadcast copy is written, and so copied, only if a fault fires.
    fn fault_one(
        &self,
        round: usize,
        from: usize,
        to: usize,
        m: &mut MsgMut<'_>,
        rng: &mut impl Rng,
        report: &mut FaultReport,
    ) {
        let plan = self.plan;
        let forced = self.forced_for(round, from, to);
        let (from_id, to_id) = (NodeId::from(from), NodeId::from(to));
        // Fixed draw order keeps partial plans deterministic: the drop coin
        // comes first, then corruption, its bit, truncation, its length.
        if rng.gen_bool(plan.drop_p) || forced == Some(FaultKind::Drop) {
            report.events.push(FaultEvent::Dropped {
                from: from_id,
                to: to_id,
                round,
                bits: m.len(),
            });
            m.to_mut().clear();
            return;
        }
        // With no corruption or truncation rate and nothing forced, the
        // rest of the stream cannot change the message: leave it undrawn.
        if plan.corrupt_p == 0.0 && plan.truncate_p == 0.0 && forced.is_none() {
            return;
        }
        let corrupt = rng.gen_bool(plan.corrupt_p);
        let corrupt_bit = rng.gen_range(0..m.len());
        let truncate = rng.gen_bool(plan.truncate_p);
        let truncate_keep = rng.gen_range(0..m.len());
        let flip = match forced {
            Some(FaultKind::Flip { bit }) => Some(bit % m.len()),
            _ if corrupt => Some(corrupt_bit),
            _ => None,
        };
        if let Some(bit) = flip {
            let m = m.to_mut();
            m.set(bit, !m.get(bit));
            report.events.push(FaultEvent::Corrupted {
                from: from_id,
                to: to_id,
                round,
                bit,
            });
        }
        let keep = match forced {
            Some(FaultKind::Truncate { keep }) => Some(keep.min(m.len())),
            _ if truncate => Some(truncate_keep),
            _ => None,
        };
        if let Some(keep) = keep {
            if keep < m.len() {
                let from_bits = m.len();
                m.to_mut().truncate(keep);
                report.events.push(FaultEvent::Truncated {
                    from: from_id,
                    to: to_id,
                    round,
                    from_bits,
                    to_bits: keep,
                });
            }
        }
    }
}

/// The fraction in `[0, 1)` that `gen_bool` compares with its
/// probability when its draw is `w`: the 53 high bits over 2⁵³.
fn unit_f64(w: u64) -> f64 {
    (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Plan entries sorted by key once, so each lookup is a binary search.
/// The sort is stable: entries under one key keep their insertion order,
/// so the first one found is the one a scan of the plan's list finds first.
#[derive(Debug)]
pub(crate) struct AddressIndex<K, T> {
    entries: Vec<(K, T)>,
}

impl<K: Ord + Copy, T: Copy> AddressIndex<K, T> {
    pub(crate) fn new(entries: impl Iterator<Item = (K, T)>) -> Self {
        let mut entries: Vec<(K, T)> = entries.collect();
        entries.sort_by_key(|&(k, _)| k);
        Self { entries }
    }

    /// The entries with keys at or above `key`, keys ascending.
    fn tail(&self, key: K) -> &[(K, T)] {
        &self.entries[self.entries.partition_point(|&(k, _)| k < key)..]
    }

    /// The values under `key`, in insertion order.
    pub(crate) fn at(&self, key: K) -> impl Iterator<Item = T> + '_ {
        self.tail(key)
            .iter()
            .take_while(move |&&(k, _)| k == key)
            .map(|&(_, t)| t)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan[seed={}", self.seed)?;
        if !self.crashes.is_empty() {
            write!(f, ", crashes={}", self.crashes.len())?;
        }
        if !self.rejoins.is_empty() {
            write!(f, ", rejoins={}", self.rejoins.len())?;
        }
        if self.drop_p > 0.0 {
            write!(f, ", drop={}", self.drop_p)?;
        }
        if self.corrupt_p > 0.0 {
            write!(f, ", corrupt={}", self.corrupt_p)?;
        }
        if self.truncate_p > 0.0 {
            write!(f, ", trunc={}", self.truncate_p)?;
        }
        if !self.forced.is_empty() {
            write!(f, ", forced={}", self.forced.len())?;
        }
        write!(f, "]")
    }
}

/// SplitMix64-style finalizer mixing the plan seed with a message address.
/// Any bijective avalanche works here; what matters is that distinct
/// `(round, from, to)` triples get statistically independent streams.
/// Shared with the Byzantine adversary so both tiers use one keying scheme.
pub(crate) fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut x = seed
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ c.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// One fault the engine actually applied during a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// A node crash-stopped.
    Crashed {
        /// The victim.
        node: NodeId,
        /// Round at whose start it stopped participating.
        round: usize,
        /// In-flight messages addressed to it that it never read.
        lost_messages: u64,
        /// Payload bits of those messages.
        lost_bits: u64,
    },
    /// A crashed node came back and was state-synced over its missed
    /// window.
    Rejoined {
        /// The recovered node.
        node: NodeId,
        /// Round at whose start it resumed stepping.
        round: usize,
        /// Missed rounds replayed to it (`rejoin round − crash round`,
        /// fewer if it halted mid-replay).
        sync_rounds: u64,
        /// In-flight messages re-delivered during the replay.
        sync_messages: u64,
        /// Payload bits of those messages.
        sync_bits: u64,
    },
    /// A message was removed from the wire.
    Dropped {
        /// Sender of the lost message.
        from: NodeId,
        /// Intended recipient.
        to: NodeId,
        /// Round the message was sent in.
        round: usize,
        /// Payload size of the lost message.
        bits: usize,
    },
    /// One bit of a message was flipped.
    Corrupted {
        /// Sender of the damaged message.
        from: NodeId,
        /// Recipient of the damaged message.
        to: NodeId,
        /// Round the message was sent in.
        round: usize,
        /// Which bit was flipped.
        bit: usize,
    },
    /// A message lost its tail.
    Truncated {
        /// Sender of the damaged message.
        from: NodeId,
        /// Recipient of the damaged message.
        to: NodeId,
        /// Round the message was sent in.
        round: usize,
        /// Payload size before truncation.
        from_bits: usize,
        /// Payload size after truncation.
        to_bits: usize,
    },
}

/// Everything the adversary did in one run, in deterministic order
/// (ascending rounds; within a round crashes by node id, then rejoins by
/// node id, then link faults sender-major).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Applied faults in order.
    pub events: Vec<FaultEvent>,
}

impl FaultReport {
    /// True if the adversary did nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Nodes that crash-stopped, in event order.
    pub fn crashed_nodes(&self) -> Vec<NodeId> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::Crashed { node, .. } => Some(*node),
                _ => None,
            })
            .collect()
    }

    /// The round `node` crashed in, if it did.
    pub fn crash_round(&self, node: NodeId) -> Option<usize> {
        self.events.iter().find_map(|e| match e {
            FaultEvent::Crashed { node: v, round, .. } if *v == node => Some(*round),
            _ => None,
        })
    }

    /// Fold the report's totals into run statistics: the fault counters,
    /// plus the in-flight payloads crash victims never read (charged to the
    /// undelivered counters, consistent with sent-based accounting).
    pub fn tally_into(&self, stats: &mut RunStats) {
        for e in &self.events {
            match e {
                FaultEvent::Crashed {
                    lost_messages,
                    lost_bits,
                    ..
                } => {
                    stats.dead_nodes += 1;
                    stats.undelivered_messages += lost_messages;
                    stats.undelivered_bits += lost_bits;
                }
                FaultEvent::Rejoined {
                    sync_rounds,
                    sync_messages,
                    sync_bits,
                    ..
                } => {
                    stats.rejoined_nodes += 1;
                    stats.sync_rounds += sync_rounds;
                    stats.sync_messages += sync_messages;
                    stats.sync_bits += sync_bits;
                }
                FaultEvent::Dropped { .. } => stats.dropped_messages += 1,
                FaultEvent::Corrupted { .. } => stats.corrupted_messages += 1,
                FaultEvent::Truncated { .. } => stats.truncated_messages += 1,
            }
        }
    }
}

/// Analytic price of state sync under an all-chatter workload, the way
/// `cc-routing`'s `RoutePlan::cost` prices a routing phase: predicted
/// totals for the sync counters of [`crate::RunStats`], asserted against
/// simulated stats in the churn conformance suite (see
/// docs/THREAT-MODEL.md).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncOverhead {
    /// Rejoins that fire (finite downtime intervals in the plan).
    pub rejoins: u64,
    /// Total missed rounds replayed across all rejoins.
    pub sync_rounds: u64,
    /// Total messages re-delivered during replays.
    pub sync_messages: u64,
    /// Total payload bits of those messages.
    pub sync_bits: u64,
}

/// Predict the state-sync bill of `plan` on an `n`-node clique whose nodes
/// all send a `width`-bit payload to every peer every round until after the
/// last rejoin (the maximum-bandwidth workload: every missed slot is a real
/// re-delivery). For each finite downtime window `[c, r)` the rejoiner
/// replays rounds `c..r`; replay round `t` re-delivers one `width`-bit
/// message from every other node that was alive at `t - 1` (round 0 has no
/// inbound traffic). Protocols that send less simply cost less — this bound
/// is exact for all-chatter and an upper bound otherwise.
pub fn sync_overhead(n: usize, plan: &FaultPlan, width: usize) -> SyncOverhead {
    let mut out = SyncOverhead::default();
    for v in plan.ever_dead_in(0..usize::MAX) {
        for (c, r) in plan.downtime(v) {
            if r == usize::MAX {
                continue;
            }
            out.rejoins += 1;
            out.sync_rounds += (r - c) as u64;
            for t in c..r {
                if t == 0 {
                    continue;
                }
                let senders = (0..n)
                    .filter(|&u| u != v.index() && plan.alive_at(NodeId::from(u), t - 1))
                    .count() as u64;
                out.sync_messages += senders;
                out.sync_bits += senders * width as u64;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitString;
    use crate::delivery::SparseBuf;
    use proptest::prelude::*;

    #[test]
    fn empty_plan_is_empty_and_labelled() {
        let p = FaultPlan::new(42);
        assert!(p.is_empty());
        assert_eq!(p.label(), "plan[seed=42]");
    }

    #[test]
    fn builder_composes_and_labels() {
        let p = FaultPlan::new(7)
            .crash(NodeId(3), 2)
            .drop_messages(0.25)
            .force(0, NodeId(0), NodeId(1), FaultKind::Drop);
        assert!(!p.is_empty());
        assert_eq!(p.crash_round(NodeId(3)), Some(2));
        assert_eq!(p.crash_round(NodeId(0)), None);
        assert_eq!(p.label(), "plan[seed=7, crashes=1, drop=0.25, forced=1]");
    }

    #[test]
    fn duplicate_crashes_take_the_earliest_round() {
        let p = FaultPlan::new(0).crash(NodeId(1), 5).crash(NodeId(1), 2);
        assert_eq!(p.crash_round(NodeId(1)), Some(2));
    }

    #[test]
    fn dead_at_exposes_the_per_round_crash_set() {
        let p = FaultPlan::new(0)
            .crash(NodeId(4), 3)
            .crash(NodeId(1), 1)
            .crash(NodeId(4), 7); // duplicate, later round: collapsed
        assert_eq!(p.dead_at(0), vec![]);
        assert_eq!(p.dead_at(1), vec![NodeId(1)]);
        assert_eq!(p.dead_at(2), vec![NodeId(1)]);
        assert_eq!(p.dead_at(3), vec![NodeId(1), NodeId(4)]);
        assert_eq!(p.dead_at(usize::MAX), vec![NodeId(1), NodeId(4)]);
        assert_eq!(FaultPlan::new(9).dead_at(usize::MAX), vec![]);
    }

    #[test]
    fn rejoin_before_crash_is_rejected_structurally() {
        // No crash at all.
        assert_eq!(
            FaultPlan::new(0).rejoin(NodeId(3), 5),
            Err(ChurnError::RejoinWithoutCrash {
                node: NodeId(3),
                round: 5
            })
        );
        // Crash exists but only later: still alive at the rejoin round.
        assert_eq!(
            FaultPlan::new(0).crash(NodeId(3), 7).rejoin(NodeId(3), 5),
            Err(ChurnError::RejoinWhileAlive {
                node: NodeId(3),
                round: 5
            })
        );
        // Same round as the crash: rejoins must be strictly later.
        assert_eq!(
            FaultPlan::new(0).crash(NodeId(3), 5).rejoin(NodeId(3), 5),
            Err(ChurnError::RejoinWhileAlive {
                node: NodeId(3),
                round: 5
            })
        );
        // Errors render a human-readable rejection.
        let e = FaultPlan::new(0).rejoin(NodeId(3), 5).unwrap_err();
        assert!(e.to_string().contains("never crashes"));
    }

    #[test]
    fn rejoin_at_round_zero_is_always_rejected() {
        // No crash can strictly precede round 0.
        assert_eq!(
            FaultPlan::new(0).crash(NodeId(1), 0).rejoin(NodeId(1), 0),
            Err(ChurnError::RejoinWhileAlive {
                node: NodeId(1),
                round: 0
            })
        );
    }

    #[test]
    fn crash_rejoin_crash_again_composes() {
        let p = FaultPlan::new(0)
            .crash(NodeId(2), 1)
            .rejoin(NodeId(2), 3)
            .expect("dead at 1..3")
            .crash(NodeId(2), 6);
        assert_eq!(p.downtime(NodeId(2)), vec![(1, 3), (6, usize::MAX)]);
        // A second rejoin after the second crash is valid again.
        let p = p.rejoin(NodeId(2), 8).expect("dead at 6..8");
        assert_eq!(p.downtime(NodeId(2)), vec![(1, 3), (6, 8)]);
        // But a rejoin in the alive gap is not.
        assert_eq!(
            p.clone().rejoin(NodeId(2), 4),
            Err(ChurnError::RejoinWhileAlive {
                node: NodeId(2),
                round: 4
            })
        );
        assert_eq!(p.next_rejoin_after(NodeId(2), 1), Some(3));
        assert_eq!(p.next_rejoin_after(NodeId(2), 6), Some(8));
        assert_eq!(p.next_rejoin_after(NodeId(2), 8), None);
        assert_eq!(p.label(), "plan[seed=0, crashes=2, rejoins=2]");
    }

    #[test]
    fn alive_at_and_dead_at_agree_around_a_rejoin() {
        let p = FaultPlan::new(0)
            .crash(NodeId(1), 2)
            .rejoin(NodeId(1), 5)
            .expect("valid rejoin")
            .crash(NodeId(4), 3);
        // Positive and negative checks round by round for node 1.
        assert!(p.alive_at(NodeId(1), 0));
        assert!(p.alive_at(NodeId(1), 1));
        assert!(!p.alive_at(NodeId(1), 2), "missed its crash round");
        assert!(!p.alive_at(NodeId(1), 4));
        assert!(p.alive_at(NodeId(1), 5), "steps again at the rejoin round");
        assert!(p.alive_at(NodeId(1), 100));
        // Node 4 never rejoins; node 0 never crashes.
        assert!(!p.alive_at(NodeId(4), 3));
        assert!(!p.alive_at(NodeId(4), usize::MAX));
        assert!(p.alive_at(NodeId(0), usize::MAX));
        // dead_at is the net-dead set per round.
        assert_eq!(p.dead_at(1), vec![]);
        assert_eq!(p.dead_at(2), vec![NodeId(1)]);
        assert_eq!(p.dead_at(3), vec![NodeId(1), NodeId(4)]);
        assert_eq!(p.dead_at(5), vec![NodeId(4)]);
        assert_eq!(p.dead_at(usize::MAX), vec![NodeId(4)]);
        // ever_dead_in is the conservative window population.
        assert_eq!(p.ever_dead_in(0..2), vec![]);
        assert_eq!(p.ever_dead_in(0..3), vec![NodeId(1)]);
        assert_eq!(p.ever_dead_in(4..6), vec![NodeId(1), NodeId(4)]);
        assert_eq!(p.ever_dead_in(5..9), vec![NodeId(4)]);
        assert_eq!(p.ever_dead_in(0..usize::MAX), vec![NodeId(1), NodeId(4)]);
    }

    #[test]
    fn random_churn_is_seed_deterministic_and_valid() {
        let mk = |seed| FaultPlan::new(seed).with_random_churn(12, 300, 400, 20, &[NodeId(0)]);
        let a = mk(5);
        assert_eq!(a, mk(5), "same seed, same schedule");
        assert_ne!(a, mk(6), "different seed, different schedule");
        assert!(!a.crashes.is_empty(), "p=0.3 over 11×20 coins fires");
        assert!(a.has_rejoins(), "p=0.4 recovery fires");
        assert!(a.alive_at(NodeId(0), usize::MAX), "spared node never down");
        // Valid by construction: per node strictly alternating, never at
        // round 0 — every interval is well-formed and re-insertable through
        // the validated builder.
        for v in 0..12 {
            let mut replay = FaultPlan::new(a.seed);
            for &(s, e) in &a.downtime(NodeId(v)) {
                assert!(s >= 1);
                replay = replay.crash(NodeId(v), s);
                if e != usize::MAX {
                    replay = replay.rejoin(NodeId(v), e).expect("interval is valid");
                }
            }
        }
    }

    #[test]
    fn rejoined_tally_fills_the_sync_counters() {
        let report = FaultReport {
            events: vec![
                FaultEvent::Rejoined {
                    node: NodeId(1),
                    round: 4,
                    sync_rounds: 3,
                    sync_messages: 6,
                    sync_bits: 18,
                },
                FaultEvent::Rejoined {
                    node: NodeId(2),
                    round: 9,
                    sync_rounds: 1,
                    sync_messages: 2,
                    sync_bits: 4,
                },
            ],
        };
        let mut stats = RunStats::default();
        report.tally_into(&mut stats);
        assert_eq!(stats.rejoined_nodes, 2);
        assert_eq!(stats.sync_rounds, 4);
        assert_eq!(stats.sync_messages, 8);
        assert_eq!(stats.sync_bits, 22);
        assert_eq!(stats.dead_nodes, 0, "rejoin events are not crash events");
    }

    #[test]
    fn sync_overhead_prices_the_missed_window() {
        // n = 4 all-chatter, node 1 down for rounds 2..4 (two missed
        // rounds). Replay round 2 re-delivers 3 senders' messages, round 3
        // likewise: 6 messages of `width` bits.
        let plan = FaultPlan::new(0)
            .crash(NodeId(1), 2)
            .rejoin(NodeId(1), 4)
            .expect("valid rejoin");
        let o = sync_overhead(4, &plan, 5);
        assert_eq!(o.rejoins, 1);
        assert_eq!(o.sync_rounds, 2);
        assert_eq!(o.sync_messages, 6);
        assert_eq!(o.sync_bits, 30);
        // A permanent crash prices nothing.
        let permanent = sync_overhead(4, &FaultPlan::new(0).crash(NodeId(1), 2), 5);
        assert_eq!(permanent, SyncOverhead::default());
        // Overlapping downtime of another node thins the sender population.
        let plan = FaultPlan::new(0)
            .crash(NodeId(1), 2)
            .rejoin(NodeId(1), 4)
            .expect("valid")
            .crash(NodeId(3), 1);
        let o = sync_overhead(4, &plan, 5);
        // Node 3 is dead at rounds 1 and 3 (the `t-1` instants of both
        // replay rounds), so each replay round has only 2 live senders.
        assert_eq!(o.sync_messages, 4);
        assert_eq!(o.sync_bits, 20);
    }

    #[test]
    fn random_crashes_are_seed_deterministic_and_spare_nodes() {
        let mk = |seed| FaultPlan::new(seed).with_random_crashes(10, 3, 4, &[NodeId(0)]);
        let a = mk(9);
        let b = mk(9);
        let c = mk(10);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        assert_eq!(a.crashes_len(), 3);
        assert_eq!(a.crash_round(NodeId(0)), None, "spared node never crashes");
    }

    impl FaultPlan {
        fn crashes_len(&self) -> usize {
            self.crashes.len()
        }
    }

    #[test]
    fn link_decisions_are_address_keyed() {
        // Same (seed, round, from, to) → same decision, independent of the
        // order messages are visited in.
        let plan = FaultPlan::new(123).drop_messages(0.5);
        let n = 6;
        let mk_matrix = || {
            let mut m = vec![BitString::new(); n * n];
            for v in 0..n {
                for u in 0..n {
                    if u != v {
                        m[v * n + u] = BitString::from_bits([true, false, true]);
                    }
                }
            }
            m
        };
        let mut a = mk_matrix();
        let mut b = mk_matrix();
        let mut ra = FaultReport::default();
        let mut rb = FaultReport::default();
        let mut buf = SparseBuf::from_matrix(&a, n);
        plan.indexed()
            .apply_link_faults(3, &mut buf.view_mut(), &mut Coins::default(), &mut ra);
        a = buf.to_matrix();
        let mut buf = SparseBuf::from_matrix(&b, n);
        plan.indexed()
            .apply_link_faults(3, &mut buf.view_mut(), &mut Coins::default(), &mut rb);
        b = buf.to_matrix();
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        // With p = 0.5 over 30 messages, both outcomes occur.
        assert!(!ra.is_empty());
        assert!(ra.events.len() < 30);
    }

    #[test]
    fn forced_faults_apply_exactly() {
        let n = 3;
        let plan = FaultPlan::new(0)
            .force(1, NodeId(0), NodeId(1), FaultKind::Flip { bit: 0 })
            .force(1, NodeId(0), NodeId(2), FaultKind::Truncate { keep: 1 })
            .force(1, NodeId(1), NodeId(0), FaultKind::Drop);
        let mut m = vec![BitString::new(); n * n];
        m[1] = BitString::from_bits([true, true, true]); // 0 → 1
        m[2] = BitString::from_bits([true, true, true]); // 0 → 2
        m[n] = BitString::from_bits([true, true, true]); // 1 → 0
        let mut report = FaultReport::default();
        let mut buf = SparseBuf::from_matrix(&m, n);
        plan.indexed().apply_link_faults(
            1,
            &mut buf.view_mut(),
            &mut Coins::default(),
            &mut report,
        );
        m = buf.to_matrix();
        assert_eq!(
            m[1],
            BitString::from_bits([false, true, true]),
            "bit 0 flipped"
        );
        assert_eq!(m[2], BitString::from_bits([true]), "truncated to 1 bit");
        assert!(m[n].is_empty(), "dropped");
        // Wrong round: nothing happens.
        let mut m2 = vec![BitString::new(); n * n];
        m2[1] = BitString::from_bits([true]);
        let mut r2 = FaultReport::default();
        let mut buf = SparseBuf::from_matrix(&m2, n);
        plan.indexed()
            .apply_link_faults(0, &mut buf.view_mut(), &mut Coins::default(), &mut r2);
        m2 = buf.to_matrix();
        assert!(r2.is_empty());
        assert_eq!(m2[1].len(), 1);
    }

    #[test]
    fn crash_sweep_marks_halted_and_charges_inflight() {
        let n = 3;
        let plan = FaultPlan::new(0).crash(NodeId(1), 4);
        let mut halted = vec![false; n];
        let mut inbound = vec![BitString::new(); n * n];
        inbound[1] = BitString::from_bits([true, true]); // 0 → 1, never read
        let mut report = FaultReport::default();
        plan.indexed().apply_crashes(
            4,
            &mut halted,
            &SparseBuf::from_matrix(&inbound, n).view(),
            &mut report,
        );
        assert!(halted[1]);
        assert_eq!(
            report.events,
            vec![FaultEvent::Crashed {
                node: NodeId(1),
                round: 4,
                lost_messages: 1,
                lost_bits: 2,
            }]
        );
        // Already-halted nodes are not crashed again.
        let mut r2 = FaultReport::default();
        plan.indexed().apply_crashes(
            4,
            &mut halted,
            &SparseBuf::from_matrix(&inbound, n).view(),
            &mut r2,
        );
        assert!(r2.is_empty());
    }

    #[test]
    fn tally_folds_counters_into_stats() {
        let report = FaultReport {
            events: vec![
                FaultEvent::Crashed {
                    node: NodeId(2),
                    round: 1,
                    lost_messages: 2,
                    lost_bits: 5,
                },
                FaultEvent::Dropped {
                    from: NodeId(0),
                    to: NodeId(1),
                    round: 0,
                    bits: 3,
                },
                FaultEvent::Corrupted {
                    from: NodeId(0),
                    to: NodeId(1),
                    round: 2,
                    bit: 1,
                },
                FaultEvent::Truncated {
                    from: NodeId(1),
                    to: NodeId(0),
                    round: 2,
                    from_bits: 4,
                    to_bits: 1,
                },
            ],
        };
        let mut stats = RunStats::default();
        report.tally_into(&mut stats);
        assert_eq!(stats.dead_nodes, 1);
        assert_eq!(stats.dropped_messages, 1);
        assert_eq!(stats.corrupted_messages, 1);
        assert_eq!(stats.truncated_messages, 1);
        assert_eq!(stats.undelivered_messages, 2);
        assert_eq!(stats.undelivered_bits, 5);
        assert_eq!(report.crashed_nodes(), vec![NodeId(2)]);
        assert_eq!(report.crash_round(NodeId(2)), Some(1));
        assert_eq!(report.crash_round(NodeId(0)), None);
    }

    #[test]
    fn corruption_preserves_length_truncation_shortens() {
        let plan = FaultPlan::new(5).corrupt_messages(1.0);
        let n = 2;
        let mut m = vec![BitString::new(); n * n];
        m[1] = BitString::from_bits([true, false, true, false]);
        let before = m[1].clone();
        let mut report = FaultReport::default();
        let mut buf = SparseBuf::from_matrix(&m, n);
        plan.indexed().apply_link_faults(
            0,
            &mut buf.view_mut(),
            &mut Coins::default(),
            &mut report,
        );
        m = buf.to_matrix();
        assert_eq!(m[1].len(), before.len());
        assert_ne!(m[1], before, "exactly one bit differs");
        let differing = before
            .iter()
            .zip(m[1].iter())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(differing, 1);

        let plan = FaultPlan::new(5).truncate_messages(1.0);
        let mut m = vec![BitString::new(); n * n];
        m[1] = BitString::from_bits([true, false, true, false]);
        let mut report = FaultReport::default();
        let mut buf = SparseBuf::from_matrix(&m, n);
        plan.indexed().apply_link_faults(
            0,
            &mut buf.view_mut(),
            &mut Coins::default(),
            &mut report,
        );
        m = buf.to_matrix();
        assert!(m[1].len() < 4, "strict prefix");
    }

    /// A sealed, indexed buffer whose row `v` takes the shape
    /// `shapes[v].0` — 0 silent, 1 a pure broadcast, 2 a broadcast with
    /// overrides (empty ones and copies of the broadcast among them), 3
    /// unicast only (empty entries among them) — with payloads and
    /// recipients drawn from `shapes[v].1`. Every row's spare payloads
    /// hold stale messages, as they do in a buffer reused across rounds.
    fn shaped_buf(n: usize, shapes: &[(u8, u64)]) -> SparseBuf {
        let mut buf = SparseBuf::from_matrix(&vec![BitString::new(); n * n], n);
        for (v, (row, &(shape, seed))) in buf.rows_mut().iter_mut().zip(shapes).enumerate() {
            let drawn = |salt: usize| {
                let bits = mix(seed, salt as u64, 1, 2);
                BitString::from_bits(
                    (0..1 + bits as usize % 90).map(|i| (bits >> (i % 64)) & 1 == 1),
                )
            };
            for u in (0..n).filter(|&u| u != v) {
                row.entry(u as u32, n).copy_from(&drawn(n + 1 + u));
            }
            row.clear();
            let bcast = drawn(n);
            if shape == 1 || shape == 2 {
                row.set_broadcast(&bcast);
            }
            if shape >= 2 {
                for u in (0..n).filter(|&u| u != v) {
                    let m = match mix(seed, u as u64, 3, 4) % 4 {
                        0 => drawn(u),
                        1 => BitString::new(),
                        2 if shape == 2 => bcast.clone(),
                        _ => continue,
                    };
                    row.entry(u as u32, n).copy_from(&m);
                }
            }
            row.seal();
        }
        buf.index_receivers();
        buf
    }

    proptest! {
        /// The drop batch is the per-copy path. Over random sealed rows
        /// (pure broadcasts, broadcasts with overrides, unicast only,
        /// silent) at n ∈ {2, 3, 9, 17, 64, 65}, drop rates 0, 0.01, 0.5, 1
        /// and random, with and without a fault forced in the round, and
        /// with and without corruption and truncation rates (either sends
        /// every row to `fault_one`), `apply_link_faults` leaves the
        /// messages, the receiver columns and the report that `fault_one`
        /// on every message leaves.
        #[test]
        fn prop_drop_batch_matches_fault_one(
            plan in (0usize..6, 0usize..5, any::<u64>(), 0u8..4, any::<u64>()),
            forced in (any::<bool>(), 0usize..65, 0usize..65, 0u8..3),
            shapes in proptest::collection::vec((0u8..4, any::<u64>()), 65),
        ) {
            let (size, rate, draw, damage, seed) = plan;
            let n = [2, 3, 9, 17, 64, 65][size];
            let drop_p = [0.0, 0.01, 0.5, 1.0, unit_f64(draw)][rate];
            let round = 4;
            let mut plan = FaultPlan::new(seed).drop_messages(drop_p);
            if damage & 1 == 1 {
                plan = plan.corrupt_messages(0.1);
            }
            if damage & 2 == 2 {
                plan = plan.truncate_messages(0.1);
            }
            let (force, from, to, kind) = forced;
            if force {
                let kinds = [
                    FaultKind::Drop,
                    FaultKind::Flip { bit: to },
                    FaultKind::Truncate { keep: from },
                ];
                let (from, to) = (NodeId::from(from % n), NodeId::from(to % n));
                plan = plan.force(round, from, to, kinds[kind as usize]);
            }
            let index = plan.indexed();
            let (mut batched, mut per_copy) = (shaped_buf(n, &shapes), shaped_buf(n, &shapes));
            let mut batched_report = FaultReport::default();
            let mut per_copy_report = FaultReport::default();
            let mut coins = Coins::default();
            let mut cur = batched.view_mut();
            index.apply_link_faults(round, &mut cur, &mut coins, &mut batched_report);
            let mut cur = per_copy.view_mut();
            for v in 0..n {
                let key = |u| index.link_key(round, v, u);
                coins.for_each_msg_mut(&mut cur, v, key, |u, m, rng| {
                    index.fault_one(round, v, u, m, rng, &mut per_copy_report)
                });
            }
            batched.index_receivers();
            per_copy.index_receivers();
            prop_assert_eq!(batched.to_matrix(), per_copy.to_matrix());
            let column = |buf: &SparseBuf, u| {
                buf.view().column(u).map(|(v, m)| (v, m.clone())).collect::<Vec<_>>()
            };
            for u in 0..n {
                prop_assert_eq!(column(&batched, u), column(&per_copy, u));
            }
            prop_assert_eq!(batched_report, per_copy_report);
        }

        /// The indexed lookups answer exactly what a scan of the plan's
        /// lists answers, first match in insertion order included, on
        /// lists with repeated addresses and mixed kinds.
        #[test]
        fn prop_indexed_lookups_equal_the_linear_scan(
            forced in proptest::collection::vec((0usize..3, 0usize..3, 0usize..3, 0u8..3, 0usize..4), 0..24),
            crashes in proptest::collection::vec((0usize..6, 0usize..6), 0..16),
        ) {
            let kind = |k: u8, x: usize| match k {
                0 => FaultKind::Drop,
                1 => FaultKind::Flip { bit: x },
                _ => FaultKind::Truncate { keep: x },
            };
            let mut plan = FaultPlan::new(0);
            for &(r, from, to, k, x) in &forced {
                plan = plan.force(r, NodeId::from(from), NodeId::from(to), kind(k, x));
            }
            for &(v, r) in &crashes {
                plan = plan.crash(NodeId::from(v), r);
            }
            let index = plan.indexed();
            for (r, from, to) in (0..4).flat_map(|r| (0..3).flat_map(move |f| (0..3).map(move |t| (r, f, t)))) {
                let scanned = plan
                    .forced
                    .iter()
                    .find(|f| f.round == r && f.from.index() == from && f.to.index() == to)
                    .map(|f| f.kind);
                prop_assert_eq!(index.forced_for(r, from, to), scanned);
            }
            // The crash sweep against a scan of every node, round by round.
            let n = 5;
            let (mut halted, mut scan_halted) = (vec![false; n], vec![false; n]);
            let inbound = SparseBuf::from_matrix(&vec![BitString::new(); n * n], n);
            for round in 0..7 {
                let mut report = FaultReport::default();
                index.apply_crashes(round, &mut halted, &inbound.view(), &mut report);
                let mut scanned = Vec::new();
                for (v, h) in scan_halted.iter_mut().enumerate() {
                    let due = plan.crashes.iter().any(|&(c, r)| c.index() == v && r == round);
                    if !*h && due {
                        *h = true;
                        scanned.push(NodeId::from(v));
                    }
                }
                prop_assert_eq!(report.crashed_nodes(), scanned);
            }
        }
    }
}

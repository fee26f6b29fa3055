//! Byzantine sender adversary: seed-addressed per-recipient equivocation.
//!
//! The [`crate::fault::FaultPlan`] adversary is *oblivious*: it damages
//! links without regard to content, and in particular it damages every
//! recipient of a broadcast identically or independently at random. The
//! next tier up the threat-model ladder (docs/THREAT-MODEL.md) is a
//! **Byzantine sender** — a traitor node whose outbound messages are
//! rewritten *per recipient*, so that it can tell different peers
//! different things (equivocation) and can base its lies on what it has
//! heard (adaptive lying). A single equivocating traitor defeats every
//! per-link majority vote, which is why `cc-resilient` pairs this plan
//! with Bracha-style reliable broadcast.
//!
//! # Determinism contract
//!
//! A [`ByzantinePlan`] follows the same replayability discipline as
//! [`crate::fault::FaultPlan`]: every lie is a pure function of
//! `(plan seed, round, traitor, recipient)` — a fresh ChaCha8 stream is
//! keyed per message (its coins, however they are computed: the passes
//! prime a traitor row's streams in batches), so decisions do not depend
//! on iteration order, pool shape, or host. The adaptive [`Lie::Replay`]
//! additionally reads the traitor's *received* matrix column for the
//! round, which the engine fixes before any rewrite is applied, so it is
//! equally schedule-free.
//! Plans print as replayable labels, e.g.
//! `byz[seed=7, traitors=1, garble=1]`.
//!
//! An **empty plan is transparent**: no traitors, or traitors with no lie
//! probabilities and no forced lies, produces byte-identical outputs,
//! transcripts, and [`crate::RunStats`] to a run with no plan at all.
//!
//! # Semantics
//!
//! Rewrites apply only to **non-empty messages sent by traitor nodes** —
//! the adversary can corrupt, replace, or suppress what a traitor sends,
//! but it cannot inject messages the traitor never sent (injection would
//! bypass the engine's bandwidth accounting). Honest nodes' messages are
//! never touched; under a pure Byzantine plan, honest-to-honest links are
//! reliable. Every rewrite preserves the bandwidth bound: garbles and
//! inversions keep the payload length, and replays reuse a payload that
//! already passed the bound.
//!
//! Rewrites are applied on the main thread between round barriers, after
//! the sender-side accounting and transcript recording — a traitor's
//! transcript records what its (honest) program *sent*, and recipients
//! see what the adversary *substituted*. Byzantine rewrites strike
//! **before** link faults when both plans are attached: the sender lies
//! first, then the wire damages what was actually transmitted.

use std::fmt;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::coins::Coins;
use crate::delivery::{BufView, BufViewMut, MsgMut};
use crate::fault::{mix, AddressIndex};
use crate::node::NodeId;
use crate::stats::RunStats;

/// One way a traitor's outbound message can be rewritten.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lie {
    /// Replace the payload with address-keyed random bits of the same
    /// length. Distinct recipients draw distinct streams, so a garbled
    /// broadcast *equivocates*: every peer sees a different payload.
    Garble,
    /// Flip every payload bit (deterministic content-dependent lie).
    Invert,
    /// Replace the payload with one the traitor *received* this round
    /// (adaptive lying: the substitute is drawn from the traitor's inbound
    /// history). Falls back to [`Lie::Garble`] when the traitor received
    /// nothing this round.
    Replay,
    /// Suppress the message towards this recipient (selective silence —
    /// distinct from a link drop because it is sender-chosen and
    /// per-recipient).
    Silence,
    /// Replace the trailing [`crate::auth::TAG_BITS`]-bit authentication
    /// tag of an already-signed frame with an address-keyed random tag,
    /// guaranteed unequal to the genuine one — the adversary trying (and
    /// provably failing) to forge a signature. Only meaningful on an
    /// engine with an attached [`crate::AuthKeyring`]: the forgery pass
    /// runs between the signing and verification sweeps, so every forged
    /// frame is rejected and counted in `RunStats.rejected_tags`. Inert
    /// (never fires) without a keyring.
    ForgeTag,
}

/// One scheduled forced lie: `(round, from, to, lie)`. Fires only if
/// `from` is marked as a traitor in the plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForcedLie {
    /// Round in which the targeted message is sent.
    pub round: usize,
    /// The traitor sending the message.
    pub from: NodeId,
    /// The recipient whose copy is rewritten.
    pub to: NodeId,
    /// How the copy is rewritten.
    pub lie: Lie,
}

/// A seed-addressed Byzantine sender schedule. Pure data: construct with
/// the builder methods, attach to an engine with
/// [`crate::Engine::with_byzantine_plan`], replay by reconstructing from
/// the same parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct ByzantinePlan {
    seed: u64,
    traitors: Vec<NodeId>,
    garble_p: f64,
    replay_p: f64,
    silence_p: f64,
    forge_p: f64,
    forced: Vec<ForcedLie>,
}

/// Domain separator for the forged-tag coin stream, so adding a forge
/// probability never perturbs the payload-stage draws of the same plan.
const FORGE_DOMAIN: u64 = 0xF026_E7A6;

impl ByzantinePlan {
    /// An empty plan (no traitors). Attaching it to an engine is
    /// guaranteed to leave every run byte-identical to a plan-less run.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            traitors: Vec::new(),
            garble_p: 0.0,
            replay_p: 0.0,
            silence_p: 0.0,
            forge_p: 0.0,
            forced: Vec::new(),
        }
    }

    /// The plan's seed (drives every probabilistic lie).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True if the plan can never rewrite anything: no traitors, or no
    /// lie probabilities and no forced lies.
    pub fn is_empty(&self) -> bool {
        self.traitors.is_empty()
            || (self.garble_p == 0.0
                && self.replay_p == 0.0
                && self.silence_p == 0.0
                && self.forge_p == 0.0
                && self.forced.is_empty())
    }

    /// Mark `node` as a traitor (its outbound messages become subject to
    /// the plan's lies). Duplicates are idempotent.
    pub fn traitor(mut self, node: NodeId) -> Self {
        if !self.traitors.contains(&node) {
            self.traitors.push(node);
        }
        self
    }

    /// Mark `f` ChaCha-chosen distinct traitors among `n` nodes, excluding
    /// the nodes in `spare` (e.g. a broadcast source that a test wants
    /// honest). The traitor set is a pure function of the plan seed.
    pub fn with_random_traitors(mut self, n: usize, f: usize, spare: &[NodeId]) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(mix(self.seed, 0x0B12_A471, 0, 0));
        let mut pool: Vec<usize> = (0..n)
            .filter(|v| !spare.iter().any(|s| s.index() == *v))
            .collect();
        // Fisher–Yates prefix selection, mirroring FaultPlan's crash picker.
        for i in 0..f.min(pool.len()) {
            let j = i + rng.gen_range(0..pool.len() - i);
            pool.swap(i, j);
            let t = NodeId::from(pool[i]);
            if !self.traitors.contains(&t) {
                self.traitors.push(t);
            }
        }
        self
    }

    /// The traitor set, in insertion order.
    pub fn traitors(&self) -> &[NodeId] {
        &self.traitors
    }

    /// Number of traitors `f` the plan marks.
    pub fn f(&self) -> usize {
        self.traitors.len()
    }

    /// True if `node` is marked as a traitor.
    pub fn is_traitor(&self, node: NodeId) -> bool {
        self.traitors.contains(&node)
    }

    /// Garble every traitor message independently with probability `p`
    /// (per recipient — a garbled broadcast equivocates).
    pub fn garble(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p={p} is not a probability");
        self.garble_p = p;
        self
    }

    /// Replace every traitor message independently with probability `p`
    /// by a payload the traitor received this round (adaptive lying).
    pub fn replay(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p={p} is not a probability");
        self.replay_p = p;
        self
    }

    /// Suppress every traitor message independently with probability `p`
    /// (selective per-recipient silence).
    pub fn silence(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p={p} is not a probability");
        self.silence_p = p;
        self
    }

    /// Forge the authentication tag of every traitor message independently
    /// with probability `p` (per recipient, on engines with an attached
    /// keyring). The coin stream is domain-separated from the payload-stage
    /// lies, so composing `forge` with `garble`/`replay`/`silence` never
    /// changes which payload lies fire.
    pub fn forge(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p={p} is not a probability");
        self.forge_p = p;
        self
    }

    /// Force a specific lie on the message `from → to` sent in `round`.
    /// The lie fires only if `from` is (also) marked as a traitor.
    pub fn force(mut self, round: usize, from: NodeId, to: NodeId, lie: Lie) -> Self {
        self.forced.push(ForcedLie {
            round,
            from,
            to,
            lie,
        });
        self
    }

    /// The replayable adversary label, `byz[seed=…, …]`.
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// True if the plan can ever forge a tag (probabilistically or via a
    /// forced entry); lets the engine skip the forgery sweep entirely for
    /// plans below the authenticated tier.
    pub(crate) fn has_tag_forgeries(&self) -> bool {
        !self.traitors.is_empty()
            && (self.forge_p > 0.0 || self.forced.iter().any(|l| l.lie == Lie::ForgeTag))
    }

    /// The plan with its traitors sorted and its forced lies indexed by
    /// message address, for one run.
    pub(crate) fn indexed(&self) -> IndexedByzantinePlan<'_> {
        let mut traitors: Vec<usize> = self.traitors.iter().map(|t| t.index()).collect();
        traitors.sort_unstable();
        IndexedByzantinePlan {
            plan: self,
            traitors,
            forced: AddressIndex::new(
                self.forced
                    .iter()
                    .map(|l| ((l.round, l.from.index(), l.to.index()), l.lie)),
            ),
        }
    }
}

/// A [`ByzantinePlan`] prepared for a run: its traitors sorted, so the
/// passes sweep only traitor rows in sender order, and its forced lies
/// indexed by message address, so they are looked up by binary search
/// instead of scanning the plan's list.
#[derive(Debug)]
pub(crate) struct IndexedByzantinePlan<'a> {
    pub(crate) plan: &'a ByzantinePlan,
    /// The traitors' node indices, ascending.
    traitors: Vec<usize>,
    forced: AddressIndex<(usize, usize, usize), Lie>,
}

impl IndexedByzantinePlan<'_> {
    /// The forced *payload-stage* lie scheduled for `(round, from, to)`,
    /// if any (first match in insertion order wins). [`Lie::ForgeTag`]
    /// entries belong to the envelope stage and are skipped here.
    fn forced_for(&self, round: usize, from: usize, to: usize) -> Option<Lie> {
        self.forced
            .at((round, from, to))
            .find(|&l| l != Lie::ForgeTag)
    }

    /// Whether a forced [`Lie::ForgeTag`] is scheduled for
    /// `(round, from, to)`.
    fn forced_forge_for(&self, round: usize, from: usize, to: usize) -> bool {
        self.forced
            .at((round, from, to))
            .any(|l| l == Lie::ForgeTag)
    }

    /// Rewrite the traitor rows of the buffer written in `round` (read
    /// next round). `cur` is the sender-major send buffer; `prev` is the
    /// buffer the nodes read this round, i.e. each traitor's received
    /// history for adaptive replays. Sweep order is sender-major and every
    /// decision is keyed per `(seed, round, from, to)`, so the result is
    /// independent of pool shape and of how the buffer stores the messages.
    pub(crate) fn apply_rewrites(
        &self,
        round: usize,
        cur: &mut BufViewMut<'_>,
        prev: &BufView<'_>,
        coins: &mut Coins,
        report: &mut ByzantineReport,
    ) {
        let (seed, n) = (self.plan.seed, cur.n());
        for &v in self.traitors.iter().take_while(|&&v| v < n) {
            let key = |u: usize| mix(seed, round as u64, v as u64, u as u64);
            coins.for_each_msg_mut(cur, v, key, |u, m, rng| {
                self.lie_one(round, v, u, m, rng, prev, report)
            });
        }
    }

    /// Envelope-stage rewrite: forge the trailing authentication tag of
    /// traitor frames. Called by the engine between its signing and
    /// verification sweeps, so `cur` holds `payload ‖ tag` frames; the
    /// forged tag is drawn from a domain-separated address-keyed stream
    /// and nudged if it ever collides with the genuine tag, so a forgery
    /// is *guaranteed* invalid — the model's unforgeability assumption
    /// made mechanical. Frames too short to carry a tag (impossible right
    /// after signing, kept as a guard) are left alone.
    pub(crate) fn apply_tag_forgeries(
        &self,
        round: usize,
        cur: &mut BufViewMut<'_>,
        coins: &mut Coins,
        report: &mut ByzantineReport,
    ) {
        use crate::auth::TAG_BITS;
        let (seed, n) = (self.plan.seed ^ FORGE_DOMAIN, cur.n());
        for &v in self.traitors.iter().take_while(|&&v| v < n) {
            let key = |u: usize| mix(seed, round as u64, v as u64, u as u64);
            coins.for_each_msg_mut(cur, v, key, |u, m, rng| {
                if m.len() <= TAG_BITS {
                    return;
                }
                let fire = rng.gen_bool(self.plan.forge_p) || self.forced_forge_for(round, v, u);
                if !fire {
                    return;
                }
                let plen = m.len() - TAG_BITS;
                let genuine = {
                    let mut r = m.reader();
                    // A signed frame always splits; treat a failure as
                    // "leave the frame alone" to honour the no-panic lint.
                    match r.skip(plen).and_then(|()| r.read_uint(TAG_BITS)) {
                        Ok(t) => t,
                        Err(_) => return,
                    }
                };
                let mut forged = rng.gen::<u64>() & ((1 << TAG_BITS) - 1);
                if forged == genuine {
                    forged ^= 1;
                }
                let m = m.to_mut();
                m.truncate(plen);
                m.push_uint(forged, TAG_BITS);
                report.events.push(ByzantineEvent::ForgedTag {
                    from: NodeId::from(v),
                    to: NodeId::from(u),
                    round,
                    bits: plen,
                });
            });
        }
    }

    /// Decide and apply the lie (if any) for one non-empty traitor
    /// message `from → to` in `round`, drawing from its coin stream `rng`,
    /// keyed by `(seed, round, link)`. A broadcast copy is written, and so
    /// copied, only if a lie fires.
    #[allow(clippy::too_many_arguments)]
    fn lie_one(
        &self,
        round: usize,
        from: usize,
        to: usize,
        m: &mut MsgMut<'_>,
        rng: &mut impl Rng,
        prev: &BufView<'_>,
        report: &mut ByzantineReport,
    ) {
        let plan = self.plan;
        let forced = self.forced_for(round, from, to);
        // Fixed draw order keeps partial plans deterministic.
        let silence = rng.gen_bool(plan.silence_p);
        let garble = rng.gen_bool(plan.garble_p);
        let replay = rng.gen_bool(plan.replay_p);
        let lie = match forced {
            Some(l) => Some(l),
            None if silence => Some(Lie::Silence),
            None if garble => Some(Lie::Garble),
            None if replay => Some(Lie::Replay),
            None => None,
        };
        let Some(mut lie) = lie else { return };
        let (from_id, to_id) = (NodeId::from(from), NodeId::from(to));
        // An adaptive replay needs inbound history; without any it
        // degrades to a garble (still a lie, still deterministic).
        let mut replay_source = None;
        if lie == Lie::Replay {
            match prev.column(from).count() {
                0 => lie = Lie::Garble,
                count => {
                    let pick = rng.gen_range(0..count);
                    replay_source = prev.column(from).nth(pick).map(|(w, _)| w);
                }
            }
        }
        match lie {
            Lie::Silence => {
                report.events.push(ByzantineEvent::Silenced {
                    from: from_id,
                    to: to_id,
                    round,
                    bits: m.len(),
                });
                m.to_mut().clear();
            }
            Lie::Invert => {
                m.to_mut().invert();
                report.events.push(ByzantineEvent::Inverted {
                    from: from_id,
                    to: to_id,
                    round,
                    bits: m.len(),
                });
            }
            Lie::Garble => {
                // Rewritten in place, a word at a time: one coin per bit,
                // first bit first.
                let m = m.to_mut();
                let len = m.len();
                m.clear();
                for start in (0..len).step_by(64) {
                    let width = (len - start).min(64);
                    let word = (0..width).fold(0, |w, j| w | u64::from(rng.gen::<bool>()) << j);
                    m.push_uint(word, width);
                }
                report.events.push(ByzantineEvent::Garbled {
                    from: from_id,
                    to: to_id,
                    round,
                    bits: m.len(),
                });
            }
            Lie::Replay => {
                // `replay_source` is always set on this path (see above);
                // guard instead of unwrap to honour the no-panic lint.
                let Some(src) = replay_source else { return };
                let substitute = prev.get(src, from);
                let from_bits = m.len();
                let to_bits = substitute.len();
                m.to_mut().copy_from(substitute);
                report.events.push(ByzantineEvent::Replayed {
                    from: from_id,
                    to: to_id,
                    round,
                    source: NodeId::from(src),
                    from_bits,
                    to_bits,
                });
            }
            // Envelope-stage lie; never reaches the payload stage
            // (`forced_for` filters it and no coin produces it).
            Lie::ForgeTag => {}
        }
    }
}

impl fmt::Display for ByzantinePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byz[seed={}", self.seed)?;
        if !self.traitors.is_empty() {
            write!(f, ", traitors={}", self.traitors.len())?;
        }
        if self.garble_p > 0.0 {
            write!(f, ", garble={}", self.garble_p)?;
        }
        if self.replay_p > 0.0 {
            write!(f, ", replay={}", self.replay_p)?;
        }
        if self.silence_p > 0.0 {
            write!(f, ", silence={}", self.silence_p)?;
        }
        if self.forge_p > 0.0 {
            write!(f, ", forge={}", self.forge_p)?;
        }
        if !self.forced.is_empty() {
            write!(f, ", forced={}", self.forced.len())?;
        }
        write!(f, "]")
    }
}

/// One rewrite the engine actually applied during a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ByzantineEvent {
    /// A traitor message was replaced with random bits of the same length.
    Garbled {
        /// The lying traitor.
        from: NodeId,
        /// The recipient whose copy was rewritten.
        to: NodeId,
        /// Round the message was sent in.
        round: usize,
        /// Payload size (unchanged by a garble).
        bits: usize,
    },
    /// A traitor message had every bit flipped.
    Inverted {
        /// The lying traitor.
        from: NodeId,
        /// The recipient whose copy was rewritten.
        to: NodeId,
        /// Round the message was sent in.
        round: usize,
        /// Payload size (unchanged by an inversion).
        bits: usize,
    },
    /// A traitor message was replaced by a payload the traitor received.
    Replayed {
        /// The lying traitor.
        from: NodeId,
        /// The recipient whose copy was rewritten.
        to: NodeId,
        /// Round the message was sent in.
        round: usize,
        /// Whose inbound payload was substituted.
        source: NodeId,
        /// Payload size before the substitution.
        from_bits: usize,
        /// Payload size after the substitution.
        to_bits: usize,
    },
    /// A traitor message was suppressed towards one recipient.
    Silenced {
        /// The lying traitor.
        from: NodeId,
        /// The recipient whose copy was suppressed.
        to: NodeId,
        /// Round the message was sent in.
        round: usize,
        /// Payload size of the suppressed message.
        bits: usize,
    },
    /// A traitor frame's authentication tag was replaced with an invalid
    /// one (the frame is rejected by the engine's verification sweep).
    ForgedTag {
        /// The lying traitor.
        from: NodeId,
        /// The recipient whose copy carries the forged tag.
        to: NodeId,
        /// Round the frame was sent in.
        round: usize,
        /// Payload size of the frame, excluding the tag.
        bits: usize,
    },
}

impl ByzantineEvent {
    /// The traitor that performed this rewrite.
    pub fn from(&self) -> NodeId {
        match self {
            ByzantineEvent::Garbled { from, .. }
            | ByzantineEvent::Inverted { from, .. }
            | ByzantineEvent::Replayed { from, .. }
            | ByzantineEvent::Silenced { from, .. }
            | ByzantineEvent::ForgedTag { from, .. } => *from,
        }
    }
}

/// Everything the Byzantine adversary did in one run, in deterministic
/// order (ascending rounds; within a round sender-major, recipients
/// ascending).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ByzantineReport {
    /// Applied rewrites in order.
    pub events: Vec<ByzantineEvent>,
}

impl ByzantineReport {
    /// True if the adversary rewrote nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Distinct traitors that actually lied, in first-lie order.
    pub fn liars(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        for e in &self.events {
            let t = e.from();
            if !out.contains(&t) {
                out.push(t);
            }
        }
        out
    }

    /// Rewrites applied to messages from `traitor` to `recipient`.
    pub fn on_link(&self, traitor: NodeId, recipient: NodeId) -> Vec<&ByzantineEvent> {
        self.events
            .iter()
            .filter(|e| match e {
                ByzantineEvent::Garbled { from, to, .. }
                | ByzantineEvent::Inverted { from, to, .. }
                | ByzantineEvent::Replayed { from, to, .. }
                | ByzantineEvent::Silenced { from, to, .. }
                | ByzantineEvent::ForgedTag { from, to, .. } => {
                    *from == traitor && *to == recipient
                }
            })
            .collect()
    }

    /// Fold the report's totals into run statistics: content rewrites go
    /// to `forged_messages`, suppressions to `silenced_messages`, and the
    /// number of distinct lying traitors to `traitor_nodes`.
    pub fn tally_into(&self, stats: &mut RunStats) {
        for e in &self.events {
            match e {
                ByzantineEvent::Garbled { .. }
                | ByzantineEvent::Inverted { .. }
                | ByzantineEvent::Replayed { .. }
                | ByzantineEvent::ForgedTag { .. } => stats.forged_messages += 1,
                ByzantineEvent::Silenced { .. } => stats.silenced_messages += 1,
            }
        }
        stats.traitor_nodes += self.liars().len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitString;
    use crate::delivery::SparseBuf;
    use proptest::prelude::*;

    fn full_matrix(n: usize, bits: usize) -> Vec<BitString> {
        let mut m = vec![BitString::new(); n * n];
        for v in 0..n {
            for u in 0..n {
                if u != v {
                    m[v * n + u] = (0..bits).map(|i| i % 2 == 0).collect();
                }
            }
        }
        m
    }

    #[test]
    fn empty_plan_is_empty_and_labelled() {
        let p = ByzantinePlan::new(42);
        assert!(p.is_empty());
        assert_eq!(p.label(), "byz[seed=42]");
        // Traitors without lies are still transparent.
        let q = ByzantinePlan::new(42).traitor(NodeId(1));
        assert!(q.is_empty());
        // Lies without traitors are transparent too.
        let r = ByzantinePlan::new(42).garble(1.0);
        assert!(r.is_empty());
    }

    #[test]
    fn builder_composes_and_labels() {
        let p = ByzantinePlan::new(7)
            .traitor(NodeId(3))
            .traitor(NodeId(3)) // idempotent
            .garble(0.5)
            .force(0, NodeId(3), NodeId(1), Lie::Silence);
        assert!(!p.is_empty());
        assert_eq!(p.f(), 1);
        assert!(p.is_traitor(NodeId(3)));
        assert!(!p.is_traitor(NodeId(0)));
        assert_eq!(p.label(), "byz[seed=7, traitors=1, garble=0.5, forced=1]");
    }

    #[test]
    fn random_traitors_are_seed_deterministic_and_spare_nodes() {
        let mk = |seed| ByzantinePlan::new(seed).with_random_traitors(10, 3, &[NodeId(0)]);
        let a = mk(9);
        let b = mk(9);
        let c = mk(10);
        assert_eq!(a, b, "same seed, same traitor set");
        assert_ne!(a, c, "different seed, different traitor set");
        assert_eq!(a.f(), 3);
        assert!(!a.is_traitor(NodeId(0)), "spared node is never a traitor");
    }

    #[test]
    fn rewrites_touch_only_traitor_rows() {
        let n = 4;
        let plan = ByzantinePlan::new(5).traitor(NodeId(1)).garble(1.0);
        let mut cur = full_matrix(n, 8);
        let prev = vec![BitString::new(); n * n];
        let before = cur.clone();
        let mut report = ByzantineReport::default();
        let mut buf = SparseBuf::from_matrix(&cur, n);
        plan.indexed().apply_rewrites(
            0,
            &mut buf.view_mut(),
            &SparseBuf::from_matrix(&prev, n).view(),
            &mut Coins::default(),
            &mut report,
        );
        cur = buf.to_matrix();
        for v in 0..n {
            for u in 0..n {
                if u == v {
                    continue;
                }
                if v == 1 {
                    assert_eq!(cur[v * n + u].len(), 8, "garble preserves length");
                } else {
                    assert_eq!(cur[v * n + u], before[v * n + u], "honest row untouched");
                }
            }
        }
        assert_eq!(report.events.len(), n - 1);
        assert_eq!(report.liars(), vec![NodeId(1)]);
    }

    #[test]
    fn garbled_broadcast_equivocates() {
        // A traitor broadcasting the same payload to everyone ends up
        // with per-recipient distinct payloads under a full garble: the
        // definition of equivocation.
        let n = 8;
        let plan = ByzantinePlan::new(3).traitor(NodeId(0)).garble(1.0);
        let mut cur = full_matrix(n, 32);
        let prev = vec![BitString::new(); n * n];
        let mut report = ByzantineReport::default();
        let mut buf = SparseBuf::from_matrix(&cur, n);
        plan.indexed().apply_rewrites(
            0,
            &mut buf.view_mut(),
            &SparseBuf::from_matrix(&prev, n).view(),
            &mut Coins::default(),
            &mut report,
        );
        cur = buf.to_matrix();
        let copies: Vec<&BitString> = (1..n).map(|u| &cur[u]).collect();
        let distinct = copies
            .iter()
            .enumerate()
            .any(|(i, a)| copies.iter().skip(i + 1).any(|b| a != b));
        assert!(distinct, "32-bit garbles must differ between recipients");
    }

    #[test]
    fn decisions_are_address_keyed() {
        let n = 6;
        let plan = ByzantinePlan::new(123)
            .traitor(NodeId(2))
            .garble(0.5)
            .silence(0.2);
        let mut a = full_matrix(n, 8);
        let mut b = full_matrix(n, 8);
        let prev = full_matrix(n, 8);
        let mut ra = ByzantineReport::default();
        let mut rb = ByzantineReport::default();
        let mut buf = SparseBuf::from_matrix(&a, n);
        plan.indexed().apply_rewrites(
            3,
            &mut buf.view_mut(),
            &SparseBuf::from_matrix(&prev, n).view(),
            &mut Coins::default(),
            &mut ra,
        );
        a = buf.to_matrix();
        let mut buf = SparseBuf::from_matrix(&b, n);
        plan.indexed().apply_rewrites(
            3,
            &mut buf.view_mut(),
            &SparseBuf::from_matrix(&prev, n).view(),
            &mut Coins::default(),
            &mut rb,
        );
        b = buf.to_matrix();
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        assert!(!ra.is_empty());
    }

    #[test]
    fn forced_lies_apply_exactly_and_only_to_traitors() {
        let n = 3;
        let plan = ByzantinePlan::new(0)
            .traitor(NodeId(0))
            .force(1, NodeId(0), NodeId(1), Lie::Invert)
            .force(1, NodeId(0), NodeId(2), Lie::Silence)
            // Node 1 is honest: this forced lie must never fire.
            .force(1, NodeId(1), NodeId(0), Lie::Silence);
        let mut cur = vec![BitString::new(); n * n];
        cur[1] = BitString::from_bits([true, true, false]); // 0 → 1
        cur[2] = BitString::from_bits([true, true, true]); // 0 → 2
        cur[n] = BitString::from_bits([true, true, true]); // 1 → 0
        let prev = vec![BitString::new(); n * n];
        let mut report = ByzantineReport::default();
        let mut buf = SparseBuf::from_matrix(&cur, n);
        plan.indexed().apply_rewrites(
            1,
            &mut buf.view_mut(),
            &SparseBuf::from_matrix(&prev, n).view(),
            &mut Coins::default(),
            &mut report,
        );
        cur = buf.to_matrix();
        assert_eq!(
            cur[1],
            BitString::from_bits([false, false, true]),
            "inverted"
        );
        assert!(cur[2].is_empty(), "silenced");
        assert_eq!(cur[n].len(), 3, "honest sender's forced lie ignored");
        // Wrong round: nothing happens.
        let mut c2 = vec![BitString::new(); n * n];
        c2[1] = BitString::from_bits([true]);
        let mut r2 = ByzantineReport::default();
        let mut buf = SparseBuf::from_matrix(&c2, n);
        plan.indexed().apply_rewrites(
            0,
            &mut buf.view_mut(),
            &SparseBuf::from_matrix(&prev, n).view(),
            &mut Coins::default(),
            &mut r2,
        );
        c2 = buf.to_matrix();
        assert!(r2.is_empty());
        assert_eq!(c2[1].len(), 1);
    }

    #[test]
    fn replay_substitutes_received_payloads_adaptively() {
        let n = 3;
        let plan =
            ByzantinePlan::new(9)
                .traitor(NodeId(0))
                .force(2, NodeId(0), NodeId(1), Lie::Replay);
        let mut cur = vec![BitString::new(); n * n];
        cur[1] = BitString::from_bits([true, true]); // 0 → 1 (truth)
        let mut prev = vec![BitString::new(); n * n];
        // The traitor received exactly one payload this round, from node 2.
        prev[2 * n] = BitString::from_bits([false, true, false, true]); // 2 → 0
        let mut report = ByzantineReport::default();
        let mut buf = SparseBuf::from_matrix(&cur, n);
        plan.indexed().apply_rewrites(
            2,
            &mut buf.view_mut(),
            &SparseBuf::from_matrix(&prev, n).view(),
            &mut Coins::default(),
            &mut report,
        );
        cur = buf.to_matrix();
        assert_eq!(
            cur[1],
            prev[2 * n],
            "the only inbound payload is the substitute"
        );
        match &report.events[..] {
            [ByzantineEvent::Replayed {
                source,
                from_bits,
                to_bits,
                ..
            }] => {
                assert_eq!(*source, NodeId(2));
                assert_eq!((*from_bits, *to_bits), (2, 4));
            }
            other => panic!("unexpected events {other:?}"),
        }
        // With an empty inbound history the replay degrades to a garble.
        let mut c2 = vec![BitString::new(); n * n];
        c2[1] = BitString::from_bits([true, true]);
        let empty = vec![BitString::new(); n * n];
        let mut r2 = ByzantineReport::default();
        let mut buf = SparseBuf::from_matrix(&c2, n);
        plan.indexed().apply_rewrites(
            2,
            &mut buf.view_mut(),
            &SparseBuf::from_matrix(&empty, n).view(),
            &mut Coins::default(),
            &mut r2,
        );
        c2 = buf.to_matrix();
        assert_eq!(c2[1].len(), 2, "garble fallback preserves length");
        assert!(matches!(r2.events[..], [ByzantineEvent::Garbled { .. }]));
    }

    #[test]
    fn tally_folds_counters_into_stats() {
        let report = ByzantineReport {
            events: vec![
                ByzantineEvent::Garbled {
                    from: NodeId(1),
                    to: NodeId(0),
                    round: 0,
                    bits: 8,
                },
                ByzantineEvent::Replayed {
                    from: NodeId(1),
                    to: NodeId(2),
                    round: 1,
                    source: NodeId(0),
                    from_bits: 8,
                    to_bits: 4,
                },
                ByzantineEvent::Silenced {
                    from: NodeId(3),
                    to: NodeId(2),
                    round: 1,
                    bits: 8,
                },
            ],
        };
        let mut stats = RunStats::default();
        report.tally_into(&mut stats);
        assert_eq!(stats.forged_messages, 2);
        assert_eq!(stats.silenced_messages, 1);
        assert_eq!(stats.traitor_nodes, 2);
        assert_eq!(report.liars(), vec![NodeId(1), NodeId(3)]);
        assert_eq!(report.on_link(NodeId(1), NodeId(2)).len(), 1);
    }

    proptest! {
        /// The indexed lookups answer exactly what a scan of the forced
        /// list answers, on lists with repeated addresses and mixed lies:
        /// [`Lie::ForgeTag`] entries beside payload lies on the same link.
        #[test]
        fn prop_indexed_lies_equal_the_linear_scan(
            forced in proptest::collection::vec((0usize..3, 0usize..3, 0usize..3, 0u8..5), 0..24),
        ) {
            let lies = [Lie::Garble, Lie::Invert, Lie::Replay, Lie::Silence, Lie::ForgeTag];
            let mut plan = ByzantinePlan::new(0);
            for &(r, from, to, l) in &forced {
                plan = plan.force(r, NodeId::from(from), NodeId::from(to), lies[l as usize]);
            }
            let index = plan.indexed();
            for (r, from, to) in (0..4).flat_map(|r| (0..3).flat_map(move |f| (0..3).map(move |t| (r, f, t)))) {
                let at = |l: &&ForcedLie| l.round == r && l.from.index() == from && l.to.index() == to;
                let payload = plan.forced.iter().filter(at).find(|l| l.lie != Lie::ForgeTag).map(|l| l.lie);
                let forge = plan.forced.iter().filter(at).any(|l| l.lie == Lie::ForgeTag);
                prop_assert_eq!(index.forced_for(r, from, to), payload);
                prop_assert_eq!(index.forced_forge_for(r, from, to), forge);
            }
        }
    }
}

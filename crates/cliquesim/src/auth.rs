//! Authenticated messages: a seeded keyring issuing HMAC-style tags.
//!
//! The Byzantine tier (docs/THREAT-MODEL.md, tier 3) caps reliable
//! broadcast at `f < n/3` because a recipient cannot *transfer* what it
//! heard: "node `t` told me `x`" is hearsay, so every claim must be
//! re-validated by quorum counting. Message authentication removes that
//! cap — a signed message is a per-link certificate any third node can
//! check, equivocation becomes a provable accusation (two signed
//! conflicting messages, see `cc-resilient`'s accusation module), and
//! Dolev–Strong-style signature chains push agreement to `f < n/2` and
//! beyond.
//!
//! # The offline substitution
//!
//! A real deployment would use MACs or digital signatures. Offline we
//! model *unforgeability* rather than implement cryptography: a tag is a
//! pure ChaCha8 function of `(per-node key, round, sender, payload)`, the
//! per-node keys are derived from one keyring seed, and the adversary is
//! code in this workspace that never calls [`AuthKeyring::sign`] with an
//! honest node's identity. A traitor *can* sign its own lies (it owns its
//! key — equivocation stays possible) and *cannot* produce a valid tag
//! for a payload it altered in transit (the forged-tag attack,
//! [`crate::byzantine::Lie::ForgeTag`], draws a fresh tag that is checked
//! unequal to the genuine one). What this proves: protocol logic above
//! the signature abstraction — acceptance rules, chain growth, agreement.
//! What it does not prove: anything about real cryptographic hardness.
//!
//! # Determinism contract
//!
//! Tags are pure functions of `(keyring seed, round, sender, payload)` —
//! no iteration-order, pool-shape, host, or buffer-layout dependence —
//! so an authenticated run replays bit-identically across pool shapes
//! {1, 4, 7}, exactly like the fault and Byzantine tiers below it. The
//! engine's sweeps prime a sender row's tag streams in batches and draw
//! the same words [`AuthKeyring::sign`] does. Keyrings print as
//! replayable labels, e.g. `auth[n=9, seed=42]`.
//!
//! # Engine integration
//!
//! Attaching a keyring with [`crate::Engine::with_auth`] turns on the
//! envelope protocol: at the end of every round (after Byzantine payload
//! rewrites, before link faults) the engine appends a [`TAG_BITS`]-bit
//! tag to every non-empty outbound message, signed with the *actual
//! sender's* key — so a traitor's equivocating payloads are validly
//! signed lies, while wire damage after signing is detectable. After the
//! link-fault pass the engine verifies every frame and clears any whose
//! tag fails, counting it in [`crate::RunStats::rejected_tags`]. Inboxes
//! therefore hold `payload ‖ tag` frames: programs strip the trailing
//! [`TAG_BITS`] bits (see [`strip_tag`]) and may keep the tagged frame as
//! transferable evidence. An engine without a keyring takes the exact
//! pre-auth path — the transparency invariant of every tier.
//!
//! # Accounting
//!
//! `RunStats.messages`/`bits`, transcripts' *sent* rounds, and the
//! undelivered scan all record pre-tag payloads (the round closes before
//! the envelope pass), preserving the honest-accounting invariant. The
//! envelope's own work lands in three dedicated counters:
//! [`crate::RunStats::signed_messages`], [`crate::RunStats::auth_bits`]
//! (both counted per delivered copy, so a broadcast charges `n − 1`
//! tags even though the delivery buffer stores one), and
//! [`crate::RunStats::rejected_tags`]. Received transcript rounds and
//! churn replay windows carry the tagged frames — a rejoiner re-enters
//! with exactly the signed evidence an always-alive node would hold, so
//! `sync_bits` includes tag bits.

use std::fmt;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::bits::BitString;
use crate::coins::Coins;
use crate::delivery::BufViewMut;
use crate::fault::mix;
use crate::node::NodeId;
use crate::stats::RunStats;

/// Width of an authentication tag in bits. Fixed so frame layouts (and
/// the analytic overhead formulas built on them) are architecture
/// constants, not run parameters.
pub const TAG_BITS: usize = 32;

/// Domain separator for per-node key derivation from the keyring seed.
const KEY_DOMAIN: u64 = 0xA07A_11CE;

/// A seeded keyring: one signing key per node, all derived from a single
/// seed, issuing [`TAG_BITS`]-bit HMAC-style tags.
///
/// **Guarantee:** `sign(from, round, payload)` is a pure function of the
/// keyring seed and its arguments; two keyrings with equal `(n, seed)`
/// are interchangeable, and tags replay bit-identically across pool
/// shapes and hosts.
///
/// **Assumptions:** the adversary models unforgeability by convention —
/// it signs only with identities it owns (see the module docs for what
/// the substitution does and does not prove).
///
/// **Overhead:** [`TAG_BITS`] extra bits per signed message copy, charged
/// to `RunStats.auth_bits`, never to `bits`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuthKeyring {
    n: usize,
    seed: u64,
    keys: Vec<u64>,
}

impl AuthKeyring {
    /// Derive an `n`-node keyring from `seed`. Key `v` is a mixed
    /// function of `(seed, v)`; knowing one key reveals nothing usable
    /// about another (within the model's ChaCha-quality mixing).
    pub fn from_seed(n: usize, seed: u64) -> Self {
        let keys = (0..n).map(|v| mix(seed, KEY_DOMAIN, v as u64, 1)).collect();
        Self { n, seed, keys }
    }

    /// Number of node identities the keyring covers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The seed every key derives from (part of the replay label).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Tag for `payload` signed by `from` in round-context `round`.
    ///
    /// The round context binds a tag to one round so a frame replayed in
    /// a later round verifies as stale, not as fresh. Protocol-level
    /// signatures that must stay valid across rounds (e.g. Dolev–Strong
    /// chain entries) pick a fixed out-of-band context instead.
    pub fn sign(&self, from: NodeId, round: usize, payload: &BitString) -> u64 {
        self.tag_for(from, round, payload, payload.len())
    }

    /// Check a claimed `(from, round, payload, tag)` quadruple.
    pub fn verify(&self, from: NodeId, round: usize, payload: &BitString, tag: u64) -> bool {
        self.sign(from, round, payload) == tag
    }

    /// The address of a tag's coin stream: the signer's key, the round,
    /// the signer, and the hash of the first `len` bits of `m`.
    fn address(&self, from: usize, round: usize, m: &BitString, len: usize) -> u64 {
        mix(
            self.keys[from],
            round as u64,
            from as u64,
            hash_prefix(m, len),
        )
    }

    /// Tag over the first `len` bits of `m`, on the scalar generator.
    fn tag_for(&self, from: NodeId, round: usize, m: &BitString, len: usize) -> u64 {
        let address = self.address(from.index(), round, m, len);
        tag_from(&mut ChaCha8Rng::seed_from_u64(address))
    }

    /// Validity of one wire frame (`payload ‖ tag`) as produced by the
    /// engine's signing pass. Frames too short to contain a non-empty
    /// payload plus a tag are invalid by construction.
    pub fn verify_frame(&self, from: NodeId, round: usize, frame: &BitString) -> bool {
        claimed_tag(frame)
            .is_some_and(|tag| self.tag_for(from, round, frame, frame.len() - TAG_BITS) == tag)
    }

    /// Engine signing sweep: append a tag to every non-empty outbound
    /// payload of round `round`. Runs payload-level so a shared broadcast
    /// payload is signed once in place (equal payloads get equal tags, so
    /// signing never splits a broadcast into copies), while the ledger
    /// still charges one tag per delivered copy.
    pub(crate) fn sign_round(
        &self,
        round: usize,
        cur: &mut BufViewMut<'_>,
        coins: &mut Coins,
        ledger: &mut AuthLedger,
    ) {
        for v in 0..cur.n() {
            let key = |m: &BitString| self.address(v, round, m, m.len());
            coins.for_each_payload_mut(cur, v, key, |copies, m, rng| {
                m.push_uint(tag_from(rng), TAG_BITS);
                ledger.signed += copies as u64;
                ledger.auth_bits += (copies * TAG_BITS) as u64;
            });
        }
    }

    /// Engine verification sweep: clear every frame whose tag fails for
    /// `(sender, round)`, counting one rejection per cleared copy. Honest
    /// traffic signed by [`AuthKeyring::sign_round`] always passes; only
    /// forged-tag rewrites and post-signing wire damage are rejected.
    pub(crate) fn verify_round(
        &self,
        round: usize,
        cur: &mut BufViewMut<'_>,
        coins: &mut Coins,
        ledger: &mut AuthLedger,
    ) {
        for v in 0..cur.n() {
            // A frame too short to carry a tag gets a stream too, and
            // fails on its claimed tag.
            let key = |m: &BitString| self.address(v, round, m, m.len().saturating_sub(TAG_BITS));
            coins.for_each_payload_mut(cur, v, key, |copies, m, rng| {
                if claimed_tag(m) != Some(tag_from(rng)) {
                    m.clear();
                    ledger.rejected += copies as u64;
                }
            });
        }
    }
}

/// A tag: the first 64-bit draw of its coin stream, cut to [`TAG_BITS`].
fn tag_from(rng: &mut impl Rng) -> u64 {
    rng.gen::<u64>() & ((1 << TAG_BITS) - 1)
}

/// The trailing tag a frame claims, or `None` if the frame is too short to
/// carry a non-empty payload and a tag.
fn claimed_tag(frame: &BitString) -> Option<u64> {
    let plen = frame.len().checked_sub(TAG_BITS).filter(|&p| p > 0)?;
    let mut r = frame.reader();
    r.skip(plen).and_then(|()| r.read_uint(TAG_BITS)).ok()
}

impl fmt::Display for AuthKeyring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "auth[n={}, seed={}]", self.n, self.seed)
    }
}

/// Split a wire frame into `(payload, tag)`, or `None` if the frame is
/// too short to be a signed message. The payload is copied out; use
/// [`AuthKeyring::verify_frame`] when only validity is needed.
pub fn split_tagged(frame: &BitString) -> Option<(BitString, u64)> {
    if frame.len() <= TAG_BITS {
        return None;
    }
    let plen = frame.len() - TAG_BITS;
    let mut r = frame.reader();
    let payload = r.read_bits(plen).ok()?;
    let tag = r.read_uint(TAG_BITS).ok()?;
    Some((payload, tag))
}

/// The payload prefix of a wire frame (the frame minus its trailing
/// [`TAG_BITS`]-bit tag), or `None` for frames too short to be signed.
/// The program-side accessor: inboxes under an authenticated engine hold
/// verified `payload ‖ tag` frames.
pub fn strip_tag(frame: &BitString) -> Option<BitString> {
    split_tagged(frame).map(|(p, _)| p)
}

/// FNV-1a-style fold of the first `len` bits of `m`, length-prefixed so
/// distinct-length payloads with a shared prefix hash apart.
fn hash_prefix(m: &BitString, len: usize) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = 0xCBF2_9CE4_8422_2325 ^ (len as u64).wrapping_mul(PRIME);
    for b in m.iter().take(len) {
        h = (h ^ (b as u64 + 1)).wrapping_mul(PRIME);
    }
    h
}

/// Per-run envelope accounting, folded into [`RunStats`] by the engine
/// once the round loop finishes (the round book holds the stats borrow
/// during the loop).
#[derive(Debug, Default)]
pub(crate) struct AuthLedger {
    /// Message copies signed by the envelope pass.
    pub(crate) signed: u64,
    /// Tag bits appended by the envelope pass.
    pub(crate) auth_bits: u64,
    /// Frames cleared because their tag failed verification.
    pub(crate) rejected: u64,
}

impl AuthLedger {
    pub(crate) fn tally_into(&self, stats: &mut RunStats) {
        stats.signed_messages += self.signed;
        stats.auth_bits += self.auth_bits;
        stats.rejected_tags += self.rejected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(bits: &[bool]) -> BitString {
        BitString::from_bits(bits.iter().copied())
    }

    #[test]
    fn tags_are_pure_functions_of_their_inputs() {
        let k1 = AuthKeyring::from_seed(8, 42);
        let k2 = AuthKeyring::from_seed(8, 42);
        let m = payload(&[true, false, true]);
        assert_eq!(k1.sign(NodeId(3), 5, &m), k2.sign(NodeId(3), 5, &m));
        assert_eq!(k1, k2);
        assert_eq!(k1.to_string(), "auth[n=8, seed=42]");
    }

    #[test]
    fn any_input_change_changes_the_tag() {
        let k = AuthKeyring::from_seed(8, 42);
        let m = payload(&[true, false, true]);
        let t = k.sign(NodeId(3), 5, &m);
        assert_ne!(t, k.sign(NodeId(4), 5, &m), "sender is bound");
        assert_ne!(t, k.sign(NodeId(3), 6, &m), "round is bound");
        assert_ne!(
            t,
            k.sign(NodeId(3), 5, &payload(&[true, false, false])),
            "payload is bound"
        );
        assert_ne!(
            t,
            AuthKeyring::from_seed(8, 43).sign(NodeId(3), 5, &m),
            "keyring seed is bound"
        );
        // Shared-prefix payloads of different lengths hash apart.
        assert_ne!(t, k.sign(NodeId(3), 5, &payload(&[true, false])));
    }

    #[test]
    fn signed_frames_verify_and_tampered_frames_do_not() {
        let k = AuthKeyring::from_seed(6, 7);
        let m = payload(&[true, true, false, true]);
        let tag = k.sign(NodeId(2), 3, &m);
        assert!(k.verify(NodeId(2), 3, &m, tag));

        let mut frame = m.clone();
        frame.push_uint(tag, TAG_BITS);
        assert!(k.verify_frame(NodeId(2), 3, &frame));
        assert!(!k.verify_frame(NodeId(1), 3, &frame), "wrong sender");
        assert!(!k.verify_frame(NodeId(2), 4, &frame), "wrong round");

        let (p, t) = split_tagged(&frame).unwrap();
        assert_eq!(p, m);
        assert_eq!(t, tag);
        assert_eq!(strip_tag(&frame).unwrap(), m);

        // Flip one payload bit inside the frame: verification must fail.
        let mut bent: BitString = frame.iter().collect();
        let first = bent.get(0);
        bent.set(0, !first);
        assert!(!k.verify_frame(NodeId(2), 3, &bent));
    }

    #[test]
    fn short_frames_are_invalid_not_panics() {
        let k = AuthKeyring::from_seed(4, 1);
        let mut short = BitString::new();
        short.push_uint(0xFFFF_FFFF, TAG_BITS); // tag-sized, no payload
        assert!(!k.verify_frame(NodeId(0), 0, &short));
        assert!(split_tagged(&short).is_none());
        assert!(!k.verify_frame(NodeId(0), 0, &BitString::new()));
    }

    #[test]
    fn engine_envelope_signs_delivers_and_charges_per_copy() {
        use crate::engine::Engine;
        use crate::node::{Inbox, NodeCtx, NodeProgram, Outbox, Status};

        /// Broadcast own id in round 0; halt with the sum of inbound frame
        /// lengths (which exposes whether tags reached the inbox).
        struct IdBlast;
        impl NodeProgram for IdBlast {
            type Output = usize;
            fn step(
                &mut self,
                ctx: &NodeCtx,
                round: usize,
                inbox: &Inbox<'_>,
                ob: &mut Outbox<'_>,
            ) -> Status<usize> {
                if round == 0 {
                    let mut m = BitString::new();
                    m.push_uint(ctx.id.0 as u64, ctx.id_width());
                    ob.broadcast(&m);
                    Status::Continue
                } else {
                    Status::Halt(inbox.iter().map(|(_, m)| m.len()).sum())
                }
            }
        }

        let n = 5;
        let keyring = AuthKeyring::from_seed(n, 11);
        let out = Engine::new(n)
            .with_auth(keyring)
            .run((0..n).map(|_| IdBlast).collect())
            .unwrap();

        let id_width = BitString::width_for(n);
        let frame = id_width + TAG_BITS;
        assert_eq!(
            out.outputs,
            vec![(n - 1) * frame; n],
            "inboxes hold payload ‖ tag frames"
        );
        let copies = (n * (n - 1)) as u64;
        assert_eq!(out.stats.signed_messages, copies);
        assert_eq!(out.stats.auth_bits, copies * TAG_BITS as u64);
        assert_eq!(out.stats.rejected_tags, 0, "honest traffic never fails");
        // Honest accounting: `bits` and `max_message_bits` stay pre-tag.
        assert_eq!(out.stats.bits, copies * id_width as u64);
        assert_eq!(out.stats.max_message_bits, id_width);
    }

    #[test]
    fn ledger_tallies_into_stats() {
        let ledger = AuthLedger {
            signed: 10,
            auth_bits: 320,
            rejected: 3,
        };
        let mut stats = RunStats::default();
        ledger.tally_into(&mut stats);
        assert_eq!(stats.signed_messages, 10);
        assert_eq!(stats.auth_bits, 320);
        assert_eq!(stats.rejected_tags, 3);
    }
}

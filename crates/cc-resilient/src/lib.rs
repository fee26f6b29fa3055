//! # cc-resilient — fault-tolerant protocol wrappers
//!
//! The paper's model is fault-free, and every algorithm crate in this
//! workspace is written against that idealisation. This crate provides the
//! complementary layer: small, composable primitives that keep working when
//! the engine's [`cliquesim::FaultPlan`] adversary crashes nodes, drops
//! messages, or damages payloads — at a measured cost in extra rounds and
//! bits that shows up honestly in [`cliquesim::RunStats`].
//!
//! The primitives form a ladder, one per adversary tier (the full map with
//! guarantees and overheads is `docs/THREAT-MODEL.md` at the workspace
//! root):
//!
//! * [`EchoBroadcast`] — one node's value reaches every *surviving* node
//!   despite `f < n/3` crash faults, via a one-round echo and majority vote.
//! * [`RepeatBroadcast`] — all-to-all exchange that survives per-link
//!   message drop and corruption by repeating each broadcast `k` times and
//!   taking a per-link majority; [`retry_overhead`] prices extra repeats
//!   analytically for [`cliquesim::Session::charge`].
//! * [`MaxGossip`] — a crash- and drop-tolerant idempotent aggregation
//!   (maximum); extra gossip rounds only improve coverage, never change a
//!   correct value.
//! * [`BrachaBroadcast`] — Bracha-style reliable broadcast: unanimous
//!   delivery among honest nodes despite `f < n/3` *Byzantine* senders
//!   ([`cliquesim::ByzantinePlan`]), at a cost of `2f + 6` rounds;
//!   [`bracha_overhead`] prices it for [`cliquesim::Session::charge`].
//! * [`byzantine_max_gossip`] — Byzantine-tolerant maximum via `n`
//!   sequential Bracha phases (`n(2f + 6)` rounds).
//! * [`DolevStrongBroadcast`] — *authenticated* reliable broadcast over
//!   cliquesim's signed-message envelope ([`cliquesim::AuthKeyring`]):
//!   signature chains buy honest agreement past Bracha's `f < n/3` ceiling
//!   in only `f + 1` rounds — [`dolev_strong_broadcast`] covers the
//!   honest-majority regime `f < n/2` the acceptance sweep pins, and
//!   [`dolev_strong_broadcast_classic`] the full classic range `f < n`;
//!   [`dolev_strong_overhead`] prices it for [`cliquesim::Session::charge`].
//! * [`equivocation_accusation`] — upgrades two conflicting signed claims
//!   into a transferable [`EquivocationProof`] that convicts an equivocator
//!   to any third party holding the keyring.
//!
//! The first three do **not** tolerate Byzantine senders: a traitor that
//! equivocates — sends different payloads to different peers — makes every
//! copy on a link agree and still lie, so per-link majorities are forged by
//! a single traitor (`cc-testkit`'s `equivocation_witness` demonstrates
//! this against [`RepeatBroadcast`]). That tier needs the quorum layer —
//! and the quorum layer in turn stops at `f < n/3`, which only the
//! authenticated tier moves past.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod accusation;
mod aggregate;
mod bracha;
mod dolev_strong;
mod echo;
mod retransmit;

pub use accusation::{equivocation_accusation, AccusationError, EquivocationProof, SignedClaim};
pub use aggregate::{max_gossip, MaxGossip};
pub use bracha::{bracha_broadcast, bracha_overhead, byzantine_max_gossip, BrachaBroadcast};
pub use dolev_strong::{
    dolev_strong_broadcast, dolev_strong_broadcast_classic, dolev_strong_overhead,
    DolevStrongBroadcast,
};
pub use echo::{echo_broadcast, EchoBroadcast};
pub use retransmit::{repeat_broadcast, retry_overhead, RepeatBroadcast};

use cliquesim::BitString;

/// Decode a `width`-bit value from a (possibly damaged) payload. Returns
/// `None` for anything that is not *exactly* `width` bits — a truncated
/// frame never smuggles a short value into the vote.
pub(crate) fn decode_exact(msg: &BitString, width: usize) -> Option<u64> {
    if msg.len() != width {
        return None;
    }
    msg.reader().read_uint(width).ok()
}

/// Encode a `width`-bit value.
pub(crate) fn encode(value: u64, width: usize) -> BitString {
    let mut m = BitString::new();
    m.push_uint(value, width);
    m
}

/// Majority vote over raw payload copies: the most frequent bit string
/// wins, ties broken towards the lexicographically smallest (with a proper
/// prefix ordered before its extensions). Returns `None` for an empty
/// slice. This is the per-chunk vote a `cc-routing` plan with `repeats(k)`
/// takes over the `k` copies of each stream chunk, and
/// it follows the same deterministic tie-break discipline as the scalar
/// `majority` vote so all correct nodes agree on the winner.
pub fn majority_payload(copies: &[BitString]) -> Option<BitString> {
    let mut counts: std::collections::BTreeMap<Vec<bool>, usize> =
        std::collections::BTreeMap::new();
    for c in copies {
        *counts.entry(c.iter().collect()).or_insert(0) += 1;
    }
    // Ascending key order + strict `>` keeps the smallest among ties.
    let mut best: Option<(Vec<bool>, usize)> = None;
    for (v, c) in counts {
        if best.as_ref().is_none_or(|(_, bc)| c > *bc) {
            best = Some((v, c));
        }
    }
    best.map(|(bits, _)| bits.into_iter().collect())
}

/// Majority vote over candidate values: the most frequent value wins, ties
/// broken towards the smallest value (a deterministic rule shared by every
/// primitive here, so all correct nodes break ties identically).
pub(crate) fn majority(copies: &[u64]) -> Option<u64> {
    let mut counts: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
    for &c in copies {
        *counts.entry(c).or_insert(0) += 1;
    }
    // BTreeMap iterates in ascending key order, so `>` keeps the smallest
    // among equally-frequent values.
    let mut best: Option<(u64, usize)> = None;
    for (v, c) in counts {
        if best.is_none_or(|(_, bc)| c > bc) {
            best = Some((v, c));
        }
    }
    best.map(|(v, _)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_prefers_frequency_then_smallness() {
        assert_eq!(majority(&[]), None);
        assert_eq!(majority(&[5]), Some(5));
        assert_eq!(majority(&[5, 3, 5]), Some(5));
        assert_eq!(majority(&[7, 3, 3, 7]), Some(3), "tie goes to the smaller");
    }

    #[test]
    fn majority_payload_prefers_frequency_then_lex_order() {
        let a = BitString::from_bits([true, false]);
        let b = BitString::from_bits([false, true]);
        assert_eq!(majority_payload(&[]), None);
        assert_eq!(majority_payload(std::slice::from_ref(&a)), Some(a.clone()));
        assert_eq!(
            majority_payload(&[a.clone(), b.clone(), a.clone()]),
            Some(a.clone())
        );
        assert_eq!(
            majority_payload(&[a.clone(), b.clone()]),
            Some(b.clone()),
            "tie goes to the lexicographically smaller string"
        );
        let short = BitString::from_bits([true]);
        assert_eq!(
            majority_payload(&[a, short.clone()]),
            Some(short),
            "a proper prefix orders before its extensions"
        );
        assert_eq!(
            majority_payload(&[BitString::new(), BitString::new()]),
            Some(BitString::new()),
            "empty copies are a legitimate (empty-chunk) winner"
        );
    }

    #[test]
    fn decode_exact_rejects_wrong_lengths() {
        let m = encode(13, 5);
        assert_eq!(decode_exact(&m, 5), Some(13));
        assert_eq!(decode_exact(&m, 4), None, "width mismatch");
        let mut t = m.clone();
        t.truncate(3);
        assert_eq!(decode_exact(&t, 5), None, "truncated frame");
        assert_eq!(decode_exact(&BitString::new(), 5), None);
    }
}

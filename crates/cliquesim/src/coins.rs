//! Per-message coin streams, primed in batches.
//!
//! Every adversary decision is drawn from a fresh ChaCha8 stream keyed by
//! the decision's address: `ChaCha8Rng::seed_from_u64(mix(seed, round,
//! from, to))` for link faults and lies, the signer's key and payload hash
//! for tags, `(node, round)` for churn. A message's coins are that
//! stream's words, however they are computed. The wire passes compute
//! them a sender row at a time: a read-only walk collects the addresses
//! of the messages the pass will visit, [`rand_chacha::ChaCha8Primer`]
//! computes their first blocks eight per block function call (AVX2 when
//! the CPU has it, else SSE2, else scalar; a lone stream runs scalar),
//! and the visit then reads each message's stream through a
//! [`PrimedChaCha8`], which continues past the first block for long draws
//! (garbled payloads).
//!
//! The priming walk and the visit are the same walk over the same sealed
//! row, so the stream handed to a message is the one primed for its
//! address by construction; a `debug_assert` checks it on every visit.
//! A caller that decides on one coin per stream (the link-fault pass's
//! drop batch) skips the visit: [`Coins::first_u64s`] hands out each
//! stream's first 64-bit draw, in the order its keys came.

use rand_chacha::{ChaCha8Primer, PrimedChaCha8};

use crate::bits::BitString;
use crate::delivery::{BufViewMut, MsgMut};

/// Reusable storage for one batch of primed coin streams.
#[derive(Debug, Default)]
pub(crate) struct Coins {
    primer: ChaCha8Primer,
}

impl Coins {
    /// Visit `items` in order, handing each the coin stream keyed by
    /// `key(item)`; every stream is primed before the first visit.
    pub(crate) fn for_each<T>(
        &mut self,
        items: impl Iterator<Item = T> + Clone,
        key: impl Fn(&T) -> u64,
        mut f: impl FnMut(T, &mut PrimedChaCha8<'_>),
    ) {
        self.primer.prime(items.clone().map(|t| key(&t)));
        for (i, t) in items.enumerate() {
            debug_assert_eq!(
                self.primer.seed(i),
                key(&t),
                "item {i} was primed for another address"
            );
            f(t, &mut self.primer.stream(i));
        }
    }

    /// Prime the streams keyed by `keys` and return the first 64-bit draw
    /// (`next_u64`) of each, in the same order.
    pub(crate) fn first_u64s(
        &mut self,
        keys: impl Iterator<Item = u64>,
    ) -> impl Iterator<Item = u64> + '_ {
        self.primer.prime(keys);
        self.primer.first_u64s()
    }

    /// Visit sender `v`'s non-empty messages as
    /// [`BufViewMut::for_each_msg_mut`] does, handing each the coin stream
    /// keyed by `key(recipient)`. A read-only walk of the same messages, in
    /// the same order, primes every stream first.
    pub(crate) fn for_each_msg_mut(
        &mut self,
        cur: &mut BufViewMut<'_>,
        v: usize,
        key: impl Fn(usize) -> u64,
        mut f: impl FnMut(usize, &mut MsgMut<'_>, &mut PrimedChaCha8<'_>),
    ) {
        let primer = &mut self.primer;
        primer.prime(cur.row(v).map(|(u, _)| key(u)));
        let mut i = 0;
        cur.for_each_msg_mut(v, |u, m| {
            debug_assert_eq!(
                primer.seed(i),
                key(u),
                "{v} → {u} was primed for another address"
            );
            f(u, m, &mut primer.stream(i));
            i += 1;
        });
    }

    /// Visit sender `v`'s distinct non-empty payloads as
    /// [`BufViewMut::for_each_payload_mut`] does, handing each the coin
    /// stream keyed by `key(payload)`. A read-only walk of the same
    /// payloads, in the same order, primes every stream first.
    pub(crate) fn for_each_payload_mut(
        &mut self,
        cur: &mut BufViewMut<'_>,
        v: usize,
        key: impl Fn(&BitString) -> u64,
        mut f: impl FnMut(usize, &mut BitString, &mut PrimedChaCha8<'_>),
    ) {
        let primer = &mut self.primer;
        primer.prime(cur.payloads(v).map(|(_, m)| key(m)));
        let mut i = 0;
        cur.for_each_payload_mut(v, |copies, m| {
            debug_assert_eq!(
                primer.seed(i),
                key(m),
                "payload {i} of {v} was primed for another address"
            );
            f(copies, m, &mut primer.stream(i));
            i += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    proptest! {
        /// Primed streams are the generator's streams, word for word, past
        /// the first block and the second eight-block continuation, for
        /// every batch length a row can end on: one seed in the last batch
        /// (scalar), two to eight (vector), one to three batches. The
        /// first draws handed out alone are the generator's first
        /// `next_u64`s.
        #[test]
        fn prop_primed_streams_equal_seeded_streams(
            seeds in proptest::collection::vec(any::<u64>(), 1..=17),
            words in 145usize..=400,
        ) {
            let mut coins = Coins::default();
            let mut seen = 0;
            coins.for_each(seeds.iter().copied(), |&s| s, |s, primed| {
                let mut rng = ChaCha8Rng::seed_from_u64(s);
                for w in 0..words {
                    assert_eq!(primed.next_u32(), rng.next_u32(), "seed {s:#x}, word {w}");
                }
                seen += 1;
            });
            prop_assert_eq!(seen, seeds.len());
            let first: Vec<u64> = coins.first_u64s(seeds.iter().copied()).collect();
            let want: Vec<u64> = seeds
                .iter()
                .map(|&s| ChaCha8Rng::seed_from_u64(s).next_u64())
                .collect();
            prop_assert_eq!(first, want);
        }
    }
}

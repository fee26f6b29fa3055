//! Testkit conformance for the routing substrate: frame codec fuzzing
//! (including empty demand patterns and max-size payloads) and the
//! all-to-all broadcast judged against its payloads.

use cc_routing::{frame, frame_all, parse_frames, rounds_for, RoutePlan, LEN_HEADER_BITS};
use cc_testkit::differential_session;
use cc_testkit::instances::strategies::arb_bitstring;
use cliquesim::{BitString, NodeId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

#[test]
fn all_to_all_broadcast_delivers_every_payload() {
    let n = 15;
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let payloads: Vec<BitString> = (0..n)
        .map(|v| (0..(v * 13) % 47).map(|_| rng.gen_bool(0.5)).collect())
        .collect();
    let views = differential_session("all-to-all[n=15, seed=42]", n, |s| {
        cc_routing::all_to_all_broadcast(s, payloads.clone()).unwrap()
    });
    // Oracle: every node sees every payload verbatim.
    for (v, view) in views.iter().enumerate() {
        assert_eq!(view.len(), n, "node {v} view size");
        for (u, p) in view.iter().enumerate() {
            assert_eq!(p, &payloads[u], "node {v} corrupted payload from {u}");
        }
    }
}

#[test]
fn empty_demand_patterns_cost_zero_rounds() {
    // An all-empty demand matrix is a legal input and must not spin.
    let n = 9;
    let mut s = cliquesim::Session::new(cliquesim::Engine::new(n));
    let demands: Vec<Vec<(NodeId, BitString)>> = vec![Vec::new(); n];
    let delivered = RoutePlan::direct().run(&mut s, demands).unwrap();
    assert_eq!(s.stats().rounds, 0);
    assert!(delivered.iter().all(|d| d.is_empty()));
}

#[test]
fn max_size_payload_roundtrips_through_the_codec() {
    // A single payload at the largest size the tests exercise end-to-end
    // (64 KiB of bits) survives framing, and the declared round cost
    // matches the framed stream length exactly.
    let bits = 1 << 16;
    let payload: BitString = (0..bits).map(|i| i % 5 == 0 || i % 3 == 1).collect();
    let framed = frame(&payload);
    assert_eq!(framed.len(), bits + LEN_HEADER_BITS);
    let back = parse_frames(&framed).unwrap();
    assert_eq!(back, vec![payload]);
    assert_eq!(rounds_for(framed.len(), 4), framed.len().div_ceil(4));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn frame_codec_roundtrips_arbitrary_payload_batches(
        count in 0usize..6,
        seed in 0u64..1_000,
    ) {
        // Payload lengths cover empty, word-straddling, and multi-word.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let payloads: Vec<BitString> = (0..count)
            .map(|_| {
                let len = [0, 1, 63, 64, 65, 127, 200][rng.gen_range(0..7usize)];
                (0..len).map(|_| rng.gen_bool(0.5)).collect()
            })
            .collect();
        let stream = frame_all(payloads.iter());
        let back = parse_frames(&stream).unwrap_or_else(|e| {
            panic!("seed={seed}: codec rejected its own framing: {e:?}")
        });
        prop_assert_eq!(back, payloads, "seed={}", seed);
    }

    #[test]
    fn frame_codec_roundtrips_strategy_bitstrings(
        seed in 0u64..1_000,
    ) {
        // The shared testkit strategy drives single-frame round-trips.
        let mut rng = proptest::test_runner::TestRng::deterministic(&format!("frames-{seed}"));
        let payload = arb_bitstring(300).sample(&mut rng);
        let framed = frame(&payload);
        let back = parse_frames(&framed).unwrap();
        prop_assert_eq!(back.len(), 1, "seed={}", seed);
        prop_assert_eq!(back.into_iter().next().unwrap(), payload, "seed={}", seed);
    }

    #[test]
    fn truncated_streams_never_panic(
        len in 0usize..120,
        cut in 0usize..120,
    ) {
        let payload: BitString = (0..len).map(|i| i % 2 == 0).collect();
        let framed = frame(&payload);
        let cut = cut.min(framed.len());
        let truncated = framed.reader().read_bits(cut).unwrap();
        // Must decode or reject — never panic.
        let _ = parse_frames(&truncated);
    }
}

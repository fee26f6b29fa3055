//! Golden single-copy outcomes under wire damage.
//!
//! `routing_golden.rs` pins what the plans deliver when every message
//! arrives. These cells pin what a single-copy plan (no retransmission)
//! makes of a damaged wire: seeded drops, seeded truncations, and one
//! traitor replaying what it heard. Most cells end in a
//! [`RouteError::Malformed`], so the digest covers the whole `Result` —
//! the deliveries with their records, events and counters, or the error
//! with its node and its `DecodeError` position, wanted and length — plus
//! the session ledger, which records every pass the plan shipped before it
//! stopped. A receiver that parsed a damaged stream at a different offset,
//! or collected a replayed message of another length differently, moves a
//! digest here.
//!
//! The cells: `direct()`, `direct().sized()`, `balanced()` and
//! `balanced().sized()` at n ∈ {9, 64}, under `drop_messages(0.05)`,
//! `truncate_messages(0.05)` and a `ByzantinePlan` whose one traitor
//! replays every message. The digest is FNV-1a over a `Debug` rendering,
//! as in `routing_golden.rs`; a failing assertion prints the new digest.

use congested_clique::prelude::*;
use congested_clique::routing::{RouteError, RoutePlan, RoutedOutcome};
use congested_clique::sim::{ByzantinePlan, FaultPlan};

/// 64-bit FNV-1a over the bytes of `s`.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The model-level counters of `stats`, without wall-clock timing.
fn counters(s: &RunStats) -> String {
    format!(
        "rounds={} messages={} bits={} max_message_bits={} undelivered={}/{} peak={} \
         dropped={} corrupted={} truncated={} dead={} forged={} silenced={} traitors={}",
        s.rounds,
        s.messages,
        s.bits,
        s.max_message_bits,
        s.undelivered_messages,
        s.undelivered_bits,
        s.peak_live_payload_bytes,
        s.dropped_messages,
        s.corrupted_messages,
        s.truncated_messages,
        s.dead_nodes,
        s.forged_messages,
        s.silenced_messages,
        s.traitor_nodes,
    )
}

/// Digest of a whole routing `Result` and the session ledger after it.
fn digest(result: &Result<RoutedOutcome, RouteError>, session: &Session) -> u64 {
    let rendered = match result {
        Ok(out) => format!(
            "ok|{:?}|{:?}|{:?}|{}",
            out.delivered,
            out.undeliverable,
            out.report.events,
            counters(&out.stats)
        ),
        Err(e) => format!("err|{e:?}"),
    };
    fnv1a(&format!("{rendered}|{}", counters(&session.stats())))
}

/// SplitMix64: a fixed, dependency-free mixer for the demand generator.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every node sends one to three payloads of 0–129 bits to pseudo-random
/// destinations (repeats allowed, so some links carry several payloads).
fn demands(n: usize, salt: u64) -> Vec<Vec<(NodeId, BitString)>> {
    (0..n)
        .map(|v| {
            let h = mix(salt ^ (v as u64) << 20);
            (0..1 + h % 3)
                .map(|i| {
                    let g = mix(h.wrapping_add(i));
                    let dst = (v + 1 + (g % (n as u64 - 1)) as usize) % n;
                    let len = ((g >> 32) % 130) as usize;
                    let payload = (0..len).map(|b| (g >> (b % 64)) & 1 == 1).collect();
                    (NodeId::from(dst), payload)
                })
                .collect()
        })
        .collect()
}

const NS: [usize; 2] = [9, 64];

/// The four single-copy plans, in the order the recorded digests list them.
fn plans() -> [RoutePlan; 4] {
    [
        RoutePlan::direct(),
        RoutePlan::direct().sized(),
        RoutePlan::balanced(),
        RoutePlan::balanced().sized(),
    ]
}

/// Route the demand set at `n` under every plan on engines `engine`
/// builds, and compare each cell's digest with `want` (plans outer, `NS`
/// inner).
fn check(adversary: &str, engine: impl Fn(usize) -> Engine, want: [u64; 8]) {
    let mut cells = Vec::new();
    for plan in plans() {
        for n in NS {
            let mut session = Session::new(engine(n));
            let result = plan.run_faulted(&mut session, demands(n, 0xDA_3A6E + n as u64));
            cells.push((
                format!("{adversary} {plan:?} n={n}"),
                digest(&result, &session),
            ));
        }
    }
    let got: Vec<String> = cells.iter().map(|(_, d)| format!("{d:#018x}")).collect();
    for ((label, got_digest), want) in cells.iter().zip(want) {
        assert_eq!(
            *got_digest,
            want,
            "{label}: digest {got_digest:#018x} differs from the recorded {want:#018x} \
             (this run: [{}])",
            got.join(", ")
        );
    }
}

#[test]
fn single_copy_plans_under_drops_replay_their_recorded_outcomes() {
    check(
        "drop 0.05",
        |n| {
            Engine::new(n).with_fault_plan(FaultPlan::new(0xD2_0905 + n as u64).drop_messages(0.05))
        },
        [
            0x3d0c_29a4_9edc_2355,
            0xfa33_74c8_5c60_84fb,
            0x4357_175c_c9d6_95e7,
            0xa6ee_be01_3c2b_bebd,
            0xa939_f334_10da_7d9c,
            0xc6d8_b4d5_7c03_67de,
            0x6c86_9715_89b9_6738,
            0x03cf_f043_afe1_bff7,
        ],
    );
}

#[test]
fn single_copy_plans_under_truncation_replay_their_recorded_outcomes() {
    check(
        "truncate 0.05",
        |n| {
            Engine::new(n)
                .with_fault_plan(FaultPlan::new(0x7A_0C47 + n as u64).truncate_messages(0.05))
        },
        [
            0x2b13_061c_da04_9498,
            0x06c9_8621_dc6b_0b2d,
            0x6fe1_58f1_43fd_a238,
            0x4019_bd55_aa3e_7c8a,
            0x3ce8_6316_20d8_eeb2,
            0x88ba_54cb_663f_2f39,
            0xf88f_3f00_78a8_7abf,
            0x69e9_469c_f48f_de54,
        ],
    );
}

#[test]
fn single_copy_plans_under_a_replaying_traitor_replay_their_recorded_outcomes() {
    check(
        "replay 1.0",
        |n| {
            let plan = ByzantinePlan::new(0x2E_9A7 + n as u64)
                .traitor(NodeId(3))
                .replay(1.0);
            Engine::new(n).with_byzantine_plan(plan)
        },
        [
            0x40c3_ed41_f764_31c2,
            0xd78e_ea71_dc9d_1687,
            0x11be_6bfe_6f27_7320,
            0xcbce_d86f_5bba_fa98,
            0x31c3_a479_5463_9c83,
            0xd633_1166_0d69_58c4,
            0x5dd0_f2d7_a082_a2d2,
            0x372e_ae34_6617_904d,
        ],
    );
}

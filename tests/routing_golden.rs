//! Golden wire behaviour for the routing plans.
//!
//! Every other routing test compares one plan with another plan of the
//! same build, or a plan's price with its own run, so a change that moved
//! every plan's bits at once would pass them all. These tests pin the
//! outcomes themselves: each cell routes a fixed demand set and compares a
//! stable digest of what came out — every delivery, every `Undeliverable`
//! record, every fault event and the model-level [`RunStats`] counters —
//! against the value recorded when the cell was written, with the
//! pre-`RoutePlan` entry points (`route`, `route_balanced`, `route_sized`,
//! `route_balanced_sized`, `route_faulted`, `route_balanced_faulted`,
//! `route_resilient`).
//!
//! The cells: the direct and the balanced schedule, framed and sized; both
//! framed schedules avoiding a crash set under its fault plan; and
//! retransmission under seeded drops — each at n ∈ {2, 9, 64}. The digest
//! is FNV-1a over a `Debug` rendering, which is stable across hosts and
//! toolchains. A failing assertion means a routed bit, a record or a
//! counter moved; the new digest is in the panic message.

use std::fmt::Debug;

use cc_testkit::RouteFaultCase;
use congested_clique::prelude::*;
use congested_clique::routing::{Delivered, RoutePlan, RoutedOutcome};
use congested_clique::sim::FaultPlan;

/// 64-bit FNV-1a over the bytes of `s`.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The model-level counters of `stats`, field by field: wall-clock timing
/// is left out, so the rendering is deterministic.
fn counters(s: &RunStats) -> String {
    format!(
        "rounds={} messages={} bits={} max_message_bits={} undelivered={}/{} peak={} \
         dropped={} corrupted={} truncated={} dead={} rejoined={} sync={}/{}/{} \
         forged={} silenced={} traitors={} signed={} auth_bits={} rejected={}",
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
        s.rejoined_nodes,
        s.sync_rounds,
        s.sync_messages,
        s.sync_bits,
        s.forged_messages,
        s.silenced_messages,
        s.traitor_nodes,
        s.signed_messages,
        s.auth_bits,
        s.rejected_tags,
    )
}

/// Digest of a strict run: deliveries plus the session ledger.
fn strict_digest(delivered: &[Delivered], session: &Session) -> u64 {
    fnv1a(&format!("{delivered:?}|{}", counters(&session.stats())))
}

/// Digest of a crash-avoiding run under `plan`: deliveries,
/// `Undeliverable` records, fault events, the outcome's and the session's
/// ledgers.
fn faulted_digest(plan: &impl Debug, out: &RoutedOutcome, session: &Session) -> u64 {
    fnv1a(&format!(
        "{plan:?}|{:?}|{:?}|{:?}|{}|{}",
        out.delivered,
        out.undeliverable,
        out.report.events,
        counters(&out.stats),
        counters(&session.stats())
    ))
}

fn assert_golden(label: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{label}: digest {got:#018x} differs from the recorded {want:#018x} — routed bits moved"
    );
}

const NS: [usize; 3] = [2, 9, 64];

/// SplitMix64: a fixed, dependency-free mixer for the demand generator.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every node sends one to three payloads of 0–89 bits to pseudo-random
/// destinations (repeats allowed, so some links carry several payloads),
/// and node 0 always sends node 1 a zero-length payload.
fn demands(n: usize, salt: u64) -> Vec<Vec<(NodeId, BitString)>> {
    (0..n)
        .map(|v| {
            let h = mix(salt ^ (v as u64) << 20);
            let mut list: Vec<(NodeId, BitString)> = (0..1 + h % 3)
                .map(|i| {
                    let g = mix(h.wrapping_add(i));
                    let dst = (v + 1 + (g % (n as u64 - 1)) as usize) % n;
                    let len = ((g >> 32) % 90) as usize;
                    let payload = (0..len).map(|b| (g >> (b % 64)) & 1 == 1).collect();
                    (NodeId::from(dst), payload)
                })
                .collect();
            if v == 0 {
                list.push((NodeId(1), BitString::new()));
            }
            list
        })
        .collect()
}

/// The demand set at `n` under `plan`, on a fault-free engine.
fn strict(n: usize, plan: RoutePlan) -> u64 {
    let mut session = Session::new(Engine::new(n));
    let got = plan
        .run(&mut session, demands(n, 0x60_1DE + n as u64))
        .unwrap();
    strict_digest(&got, &session)
}

/// A seeded crash case at `n` (f ∈ {0, 2, 5} for n ∈ {2, 9, 64}), with
/// `plan` avoiding its crash set under its fault plan.
fn avoiding(n: usize, plan: RoutePlan) -> u64 {
    let f = [0, 2, 5][NS.iter().position(|&m| m == n).unwrap()];
    let case = RouteFaultCase::new(n, f, 0xC0_FFEE + n as u64);
    let fault_plan = case.plan();
    let crash = case.crash_set();
    assert_eq!(crash.len(), f);
    let mut session = Session::new(Engine::new(n).with_fault_plan(fault_plan.clone()));
    let out = plan
        .avoiding(&crash)
        .run_faulted(&mut session, case.demands())
        .unwrap();
    faulted_digest(&fault_plan, &out, &session)
}

/// The demand set at `n`, every chunk sent five times, under drops at 0.1.
fn resilient(n: usize) -> u64 {
    let plan = FaultPlan::new(0xD0_05 + n as u64).drop_messages(0.1);
    let mut session = Session::new(Engine::new(n).with_fault_plan(plan));
    let got = RoutePlan::direct()
        .repeats(5)
        .run(&mut session, demands(n, 0xD0_05 + n as u64))
        .unwrap();
    assert!(
        n == 2 || session.stats().dropped_messages > 0,
        "n={n}: drops must fire"
    );
    strict_digest(&got, &session)
}

#[test]
fn direct_framed_replays_its_recorded_deliveries() {
    let want = [
        0xd5b9_fca2_7bf8_fe93,
        0x80e9_519a_a340_0590,
        0x5b2a_12a7_a55f_aea1,
    ];
    for (n, want) in NS.into_iter().zip(want) {
        assert_golden(
            &format!("direct n={n}"),
            strict(n, RoutePlan::direct()),
            want,
        );
    }
}

#[test]
fn direct_sized_replays_its_recorded_deliveries() {
    let want = [
        0x1fc9_5599_2c6c_4636,
        0x7b35_0e83_384b_a4d2,
        0x391f_c2cf_6930_bfce,
    ];
    for (n, want) in NS.into_iter().zip(want) {
        let got = strict(n, RoutePlan::direct().sized());
        assert_golden(&format!("direct sized n={n}"), got, want);
    }
}

#[test]
fn balanced_framed_replays_its_recorded_deliveries() {
    let want = [
        0x3bc8_1252_2dd8_db4e,
        0x719c_39e6_3177_c9a6,
        0x521b_abb3_89b7_b5a1,
    ];
    for (n, want) in NS.into_iter().zip(want) {
        assert_golden(
            &format!("balanced n={n}"),
            strict(n, RoutePlan::balanced()),
            want,
        );
    }
}

#[test]
fn balanced_sized_replays_its_recorded_deliveries() {
    // At n = 2 and B = 1 the balanced schedule moves the same bits in the
    // same rounds as the direct one, so the digests coincide.
    let want = [
        0x1fc9_5599_2c6c_4636,
        0x3fde_f4e9_e676_f435,
        0x047c_e358_b42d_d372,
    ];
    for (n, want) in NS.into_iter().zip(want) {
        let got = strict(n, RoutePlan::balanced().sized());
        assert_golden(&format!("balanced sized n={n}"), got, want);
    }
}

#[test]
fn direct_avoiding_a_crash_set_replays_its_recorded_outcome() {
    let want = [
        0x6e25_6f7c_51f9_8174,
        0xb0ca_27aa_8937_246b,
        0x1eb2_e7c5_240e_f48e,
    ];
    for (n, want) in NS.into_iter().zip(want) {
        let got = avoiding(n, RoutePlan::direct());
        assert_golden(&format!("direct avoiding n={n}"), got, want);
    }
}

#[test]
fn balanced_avoiding_a_crash_set_replays_its_recorded_outcome() {
    let want = [
        0x0c02_7f1b_2b99_c434,
        0x2277_2026_59df_dc3b,
        0xaa39_e7f0_f6ba_8a66,
    ];
    for (n, want) in NS.into_iter().zip(want) {
        let got = avoiding(n, RoutePlan::balanced());
        assert_golden(&format!("balanced avoiding n={n}"), got, want);
    }
}

#[test]
fn retransmission_under_drops_replays_its_recorded_deliveries() {
    let want = [
        0xb607_a209_1668_41d5,
        0xbf85_73d8_a1f6_1ffc,
        0x3cf8_b29d_45ad_4cf1,
    ];
    for (n, want) in NS.into_iter().zip(want) {
        assert_golden(&format!("repeats 5 n={n}"), resilient(n), want);
    }
}

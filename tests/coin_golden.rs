//! Golden coin values for the adversary tiers.
//!
//! Every fault, Byzantine and authentication test elsewhere compares one
//! run with another run of the same build, so a change that moved every
//! coin at once would pass them all. These tests pin the coins themselves:
//! each cell runs a resilient protocol under a seeded adversary and
//! compares a stable digest of what came out — outputs, the
//! [`FaultReport`] and [`ByzantineReport`] events, the model-level
//! [`RunStats`] counters (signed and rejected tags included), every
//! payload each node received (so garbled bits, flipped bits and tags are
//! pinned, not just counted) and the plan itself — against the value
//! recorded when the cell was written.
//!
//! The digest is FNV-1a over a `Debug` rendering, which is stable across
//! hosts and toolchains (unlike `DefaultHasher`). No `n` below is a
//! multiple of four, so the wire passes' four-lane coin batches end in a
//! partial batch on every row.
//!
//! A failing assertion here means a coin moved: a drop, lie, forged tag,
//! churn event or tag value now differs from the recorded run. If that is
//! intended, the new digest is in the panic message.

use std::fmt::Debug;

use congested_clique::prelude::*;
use congested_clique::resilient::{bracha_broadcast, dolev_strong_broadcast, max_gossip};
use congested_clique::sim::{ByzantineEvent, FaultKind, FaultedOutcome, Lie, TAG_BITS};

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

/// Every payload each node received, bit for bit, as
/// `node:round:sender:bits` lines.
fn received(out: &FaultedOutcome<impl Debug>) -> String {
    let mut lines = String::new();
    for (v, t) in out.transcripts.iter().flatten().enumerate() {
        for (r, round) in t.rounds.iter().enumerate() {
            for (from, m) in &round.received {
                let bits: String = m.iter().map(|b| if b { '1' } else { '0' }).collect();
                lines += &format!("{v}:{r}:{}:{bits}\n", from.index());
            }
        }
    }
    lines
}

/// Digest of one run under `plan` (rendered as part of the digest).
fn digest<T: Debug>(plan: &impl Debug, out: &FaultedOutcome<T>) -> u64 {
    assert!(out.transcripts.is_some(), "golden cells record transcripts");
    fnv1a(&format!(
        "{plan:?}|{:?}|{:?}|{:?}|{}|{}",
        out.outputs,
        out.faults.events,
        out.byzantine.events,
        counters(&out.stats),
        received(out)
    ))
}

fn assert_golden(label: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{label}: digest {got:#018x} differs from the recorded {want:#018x} — a coin moved"
    );
}

/// `max_gossip` at `n` under crash/rejoin churn, drops at 0.05,
/// corruption and truncation at `damage` each, and three forced faults.
fn gossip_digest(n: usize, damage: f64) -> u64 {
    let rounds = 24;
    let plan = FaultPlan::new(0x60_1DE2 + n as u64)
        .with_random_churn(n, 80, 300, rounds - 1, &[NodeId(0)])
        .drop_messages(0.05)
        .corrupt_messages(damage)
        .truncate_messages(damage)
        .force(1, NodeId(0), NodeId(1), FaultKind::Flip { bit: 3 })
        .force(2, NodeId(0), NodeId(2), FaultKind::Truncate { keep: 5 })
        .force(3, NodeId(0), NodeId::from(n - 1), FaultKind::Drop);
    let values: Vec<u64> = (0..n as u64).map(|v| (v * 0x9E37 + 11) & 0xFFF).collect();
    let mut session = Session::new(
        Engine::new(n)
            .with_bandwidth(12)
            .with_transcripts(true)
            .with_fault_plan(plan.clone()),
    );
    let out = max_gossip(&mut session, &values, 12, rounds).unwrap();
    assert!(
        out.stats.rejoined_nodes > 0,
        "n={n}: churn must rejoin someone"
    );
    assert!(out.stats.dropped_messages > 0, "n={n}: drops must fire");
    assert!(
        damage == 0.0 || (out.stats.corrupted_messages > 0 && out.stats.truncated_messages > 0),
        "n={n}: corruption and truncation must fire"
    );
    digest(&plan, &out)
}

#[test]
fn gossip_under_churn_and_link_faults_at_n5_replays_its_recorded_coins() {
    assert_golden("gossip n=5", gossip_digest(5, 0.05), 0xc46a_bb0e_d6f6_1653);
}

#[test]
fn gossip_under_churn_and_link_faults_at_n37_replays_its_recorded_coins() {
    assert_golden(
        "gossip n=37",
        gossip_digest(37, 0.05),
        0xd81a_f7be_6aa5_3b2e,
    );
}

#[test]
fn gossip_under_churn_and_drops_alone_replays_its_recorded_coins() {
    // Only drop coins and the forced faults can fire, so most streams end
    // after their first draw.
    assert_golden(
        "gossip n=37, drops",
        gossip_digest(37, 0.0),
        0xd3ea_5e58_b2e9_b89a,
    );
}

#[test]
fn bracha_under_garble_replay_and_silence_replays_its_recorded_coins() {
    let n: usize = 37;
    let f = (n - 1) / 3;
    let width = 8;
    let plan = ByzantinePlan::new(0xB7AC_4A37)
        .with_random_traitors(n, f, &[NodeId(0)])
        .garble(0.5)
        .replay(0.6)
        .silence(0.1);
    let mut session = Session::new(
        Engine::new(n)
            .with_bandwidth(width + 2)
            .with_transcripts(true)
            .with_byzantine_plan(plan.clone()),
    );
    let out = bracha_broadcast(&mut session, NodeId(0), 0xA5, width, f).unwrap();
    let fired = |pred: fn(&ByzantineEvent) -> bool| out.byzantine.events.iter().any(pred);
    assert!(fired(|e| matches!(e, ByzantineEvent::Replayed { .. })));
    assert!(fired(|e| matches!(e, ByzantineEvent::Garbled { .. })));
    assert!(fired(|e| matches!(e, ByzantineEvent::Silenced { .. })));
    assert_golden("bracha n=37", digest(&plan, &out), 0x2f55_3184_edce_c926);
}

#[test]
fn authenticated_dolev_strong_under_forgery_replays_its_recorded_coins() {
    let n: usize = 21;
    let f = n.div_ceil(2) - 1;
    let width = 8;
    let plan = ByzantinePlan::new(0xD5_F026)
        .with_random_traitors(n, f, &[NodeId(0)])
        .garble(0.3)
        .silence(0.2)
        .forge(0.3);
    // Forced forgeries beside payload lies on the same links.
    let traitor = plan.traitors()[0];
    let plan = plan
        .force(1, traitor, NodeId(0), Lie::Invert)
        .force(1, traitor, NodeId(0), Lie::ForgeTag)
        .force(2, traitor, NodeId::from(n - 1), Lie::ForgeTag);
    let keyring = AuthKeyring::from_seed(n, 0xA07A_5EED);
    let bandwidth = width + (f + 1) * (BitString::width_for(n) + TAG_BITS);
    let mut session = Session::new(
        Engine::new(n)
            .with_auth(keyring.clone())
            .with_bandwidth(bandwidth)
            .with_transcripts(true)
            .with_byzantine_plan(plan.clone()),
    );
    let out = dolev_strong_broadcast(&mut session, NodeId(0), 0x5A, width, f).unwrap();
    assert!(out.stats.signed_messages > 0);
    assert!(out.stats.rejected_tags > 0, "forged tags must be rejected");
    // The public single-tag calls are pinned alongside the engine's sweeps.
    let tags: Vec<u64> = (0..n)
        .map(|v| keyring.sign(NodeId::from(v), v, &BitString::from_bits([v % 2 == 0; 9])))
        .collect();
    assert_golden(
        "dolev-strong n=21",
        fnv1a(&format!("{}|{tags:?}", digest(&plan, &out))),
        0xe409_5fad_9373_29ed,
    );
}

//! Workspace-level authenticated-tier conformance: the acceptance
//! criteria for the top rung of the adversary ladder
//! (docs/THREAT-MODEL.md), exercised end to end through the facade
//! crate, the testkit runner, and the resilient wrappers.
//!
//! * the **`f = ⌈n/3⌉` boundary is pinned by a paired test**: on a
//!   byte-identical adversary plan, Bracha sized at `f = ⌈n/3⌉` strands
//!   every honest node at `None` while Dolev–Strong delivers the honest
//!   source's value — signatures, and nothing else, move the ceiling;
//! * Dolev–Strong reaches **honest agreement for every seeded `f < n/2`
//!   case** in the `auth_corpus()` sweep, and for `f < n` via the
//!   classic wrapper;
//! * **forgery accounting closes**: `rejected_tags` counts exactly the
//!   adversary's forged tags (and, composed with a link-fault plan, the
//!   wire-corrupted signed frames) and never honest traffic;
//! * an engine **without a keyring is transparently tag-free**: zero
//!   auth counters, bit-identical behaviour (property-tested);
//! * two equivocating frames from one run upgrade into a transferable
//!   [`EquivocationProof`] via `equivocation_accusation`;
//! * [`dolev_strong_overhead`]'s analytic `RunStats` equals the
//!   simulated ledger outright.

use cc_testkit::{auth_corpus, run_recorded, AuthCase};
use congested_clique::prelude::*;
use congested_clique::resilient::{
    dolev_strong_broadcast, dolev_strong_overhead, equivocation_accusation, BrachaBroadcast,
    DolevStrongBroadcast, EquivocationProof, SignedClaim,
};
use congested_clique::sim::{ByzantineEvent, Inbox, NodeProgram, Outbox, TAG_BITS};
use proptest::prelude::*;

const WIDTH: usize = 8;
const VALUE: u64 = 0x5C;

/// Bandwidth for a full `f + 1`-entry Dolev–Strong chain.
fn ds_bandwidth(n: usize, f: usize) -> usize {
    WIDTH + (f + 1) * (BitString::width_for(n) + TAG_BITS)
}

fn ds_programs(case: &AuthCase, source: NodeId) -> Vec<DolevStrongBroadcast> {
    (0..case.n)
        .map(|_| DolevStrongBroadcast::new(source, VALUE, WIDTH, case.f, case.keyring()))
        .collect()
}

/// The boundary plan both halves of the paired test run: `⌈n/3⌉`
/// seed-drawn traitors (sparing the source) that withhold every message.
/// Withholding is the *weakest* Byzantine behaviour — no forged content
/// at all — which makes the verdict about the protocols, not the lies.
fn boundary_plan(n: usize, source: NodeId) -> ByzantinePlan {
    ByzantinePlan::new(31)
        .with_random_traitors(n, n.div_ceil(3), &[source])
        .silence(1.0)
}

#[test]
fn bracha_fails_on_the_boundary_plan_at_f_equals_ceil_n_over_3() {
    // n = 9, f = ⌈9/3⌉ = 3: Bracha's echo quorum is ⌊(n+f)/2⌋ + 1 = 7,
    // but only 6 honest nodes exist — with the traitors withholding, no
    // quorum can ever assemble and every honest node is stranded at
    // `None`. Agreement survives; validity is gone. (The wrapper refuses
    // to even build this configuration — its `3f < n` assert is the
    // static half of this boundary — so the program is built directly.)
    let n = 9usize;
    let source = NodeId(0);
    let f = n.div_ceil(3);
    let plan = boundary_plan(n, source);
    let out = run_recorded(
        &format!("bracha-at-the-boundary under {plan}"),
        &Engine::new(n)
            .with_bandwidth(WIDTH + 2)
            .with_byzantine_plan(plan.clone()),
        (0..n)
            .map(|_| BrachaBroadcast::new(source, VALUE, WIDTH, f))
            .collect(),
    );
    assert!(
        !out.byzantine.is_empty(),
        "{plan}: the traitors never withheld"
    );
    for (v, got) in out.outputs.iter().enumerate() {
        if !plan.is_traitor(NodeId::from(v)) {
            assert_eq!(
                *got,
                Some(None),
                "{plan}: node {v} delivered without a quorum?!"
            );
        }
    }
}

#[test]
fn dolev_strong_succeeds_on_the_byte_identical_boundary_plan() {
    // The paired half: same n, same f, the *equal* adversary plan — only
    // the keyring is new. Signature chains replace quorums, so 6 honest
    // nodes suffice against 3 withholding traitors and everyone delivers
    // the source's value in f + 1 = 4 rounds.
    let n = 9usize;
    let source = NodeId(0);
    let case = AuthCase::new(n, n.div_ceil(3), 31);
    let plan = boundary_plan(n, source);
    assert_eq!(
        plan,
        boundary_plan(n, source),
        "the boundary plan must be reproducible for the pairing to mean anything"
    );
    let keyring = case.keyring();
    let out = run_recorded(
        &format!("dolev-strong-at-the-boundary {keyring} under {plan}"),
        &Engine::new(n)
            .with_bandwidth(ds_bandwidth(n, case.f))
            .with_auth(keyring)
            .with_byzantine_plan(plan.clone()),
        ds_programs(&case, source),
    );
    for (v, got) in out.outputs.iter().enumerate() {
        if !plan.is_traitor(NodeId::from(v)) {
            assert_eq!(
                *got,
                Some(Some(VALUE)),
                "{plan}: honest node {v} missed the signed value"
            );
        }
    }
    assert_eq!(out.stats.rounds, case.f + 1, "fixed f + 1 round schedule");
    assert_eq!(out.stats.rejected_tags, 0, "withholding forges nothing");
}

#[test]
fn dolev_strong_agrees_for_every_seeded_honest_majority_case() {
    // The acceptance sweep: every corpus case (f up to ⌈n/2⌉ − 1,
    // traitors garbling, withholding, and forging tags) must deliver the
    // honest source's value to every honest node.
    let source = NodeId(0);
    for case in auth_corpus() {
        let plan = case.plan(&[source]);
        let keyring = case.keyring();
        let out = run_recorded(
            &format!("dolev-strong-sweep {keyring} under {plan}"),
            &Engine::new(case.n)
                .with_bandwidth(ds_bandwidth(case.n, case.f))
                .with_auth(keyring)
                .with_byzantine_plan(plan.clone()),
            ds_programs(&case, source),
        );
        if case.f > 0 {
            assert!(!out.byzantine.is_empty(), "{case}: traitors never lied");
        }
        for (v, got) in out.outputs.iter().enumerate() {
            if !plan.is_traitor(NodeId::from(v)) {
                assert_eq!(
                    *got,
                    Some(Some(VALUE)),
                    "{case}: honest node {v} broke agreement"
                );
            }
        }
        assert_eq!(out.stats.rounds, case.f + 1, "{case}: schedule drifted");
    }
}

#[test]
fn the_classic_wrapper_agrees_with_a_traitor_majority() {
    // f = 4 of n = 7 — past any honest majority. Unauthenticated
    // broadcast is impossible here for *any* protocol; signature chains
    // keep both agreement and (honest-source) validity.
    let n = 7;
    let f = 4;
    let source = NodeId(2);
    let plan = ByzantinePlan::new(77)
        .with_random_traitors(n, f, &[source])
        .garble(1.0)
        .silence(0.4);
    let mut session = Session::new(
        Engine::new(n)
            .with_auth(AuthKeyring::from_seed(n, 5))
            .with_bandwidth(ds_bandwidth(n, f))
            .with_byzantine_plan(plan.clone()),
    );
    let out = congested_clique::resilient::dolev_strong_broadcast_classic(
        &mut session,
        source,
        VALUE,
        WIDTH,
        f,
    )
    .unwrap();
    assert_eq!(out.honest_unanimous(&plan), Some(&Some(VALUE)), "{plan}");
}

/// Three rounds of id gossip under the envelope: the forgery-accounting
/// fixture. Payload prefix is read, the trailing tag ignored, so the
/// same program runs with and without a keyring.
#[derive(Clone)]
struct Gossip {
    heard: Vec<u64>,
}

impl NodeProgram for Gossip {
    type Output = Vec<u64>;
    fn step(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        outbox: &mut Outbox<'_>,
    ) -> Status<Vec<u64>> {
        for (u, m) in inbox.iter() {
            if let Ok(v) = m.reader().read_uint(ctx.id_width()) {
                self.heard.push(u.0 as u64 * 1000 + v);
            }
        }
        if round < 3 {
            let mut m = BitString::new();
            m.push_uint(ctx.id.0 as u64, ctx.id_width());
            outbox.broadcast(&m);
            return Status::Continue;
        }
        Status::Halt(self.heard.clone())
    }
}

fn gossip(n: usize) -> Vec<Gossip> {
    (0..n).map(|_| Gossip { heard: Vec::new() }).collect()
}

#[test]
fn rejected_tags_counts_every_forgery_and_no_honest_traffic() {
    // One traitor forging on every link: 3 send rounds × (n − 1) peers
    // = 21 forged tags. Every one of them — and *only* them — must land
    // in `rejected_tags`, closing the counter against the adversary's
    // own event log.
    let n = 8;
    let keyring = AuthKeyring::from_seed(n, 17);
    let plan = ByzantinePlan::new(17).traitor(NodeId(2)).forge(1.0);
    let out = run_recorded(
        &format!("forge-accounting {keyring} under {plan}"),
        &Engine::new(n)
            .with_auth(keyring.clone())
            .with_byzantine_plan(plan.clone()),
        gossip(n),
    );
    let forged = out
        .byzantine
        .events
        .iter()
        .filter(|e| matches!(e, ByzantineEvent::ForgedTag { .. }))
        .count() as u64;
    assert_eq!(forged, 3 * (n as u64 - 1), "{plan}: forgery schedule");
    assert_eq!(
        out.stats.rejected_tags, forged,
        "{plan}: every forgery rejected, zero false rejections"
    );
    assert_eq!(out.stats.forged_messages, forged);
    assert_eq!(out.stats.signed_messages, 3 * (n as u64) * (n as u64 - 1));

    // The honest control: same keyring, no adversary — nothing rejected.
    let honest_stats = run_recorded(
        &format!("honest-control {keyring}"),
        &Engine::new(n).with_auth(keyring),
        gossip(n),
    )
    .stats;
    assert!(honest_stats.signed_messages > 0);
    assert_eq!(honest_stats.rejected_tags, 0, "honest traffic rejected?!");
}

#[test]
fn dolev_strong_composes_with_wire_corruption() {
    // Tier 2 (link faults) under tier 4 (signatures): wire damage lands
    // *after* signing, so every corrupted signed frame is detected and
    // cleared — `rejected_tags` closes against `corrupted_messages` —
    // and the protocol still reaches honest agreement, because a cleared
    // frame is just an omission and Dolev–Strong relays route around it.
    let n = 11;
    let f = 2;
    let source = NodeId(0);
    let byz = ByzantinePlan::new(23)
        .with_random_traitors(n, f, &[source])
        .garble(1.0);
    let wire = FaultPlan::new(29).corrupt_messages(0.05);
    let mut session = Session::new(
        Engine::new(n)
            .with_auth(AuthKeyring::from_seed(n, 23))
            .with_bandwidth(ds_bandwidth(n, f))
            .with_byzantine_plan(byz.clone())
            .with_fault_plan(wire.clone()),
    );
    let out = dolev_strong_broadcast(&mut session, source, VALUE, WIDTH, f).unwrap();
    assert_eq!(out.honest_unanimous(&byz), Some(&Some(VALUE)), "{wire}");
    assert!(
        out.stats.corrupted_messages > 0,
        "{wire}: the wire never bit"
    );
    assert_eq!(
        out.stats.rejected_tags, out.stats.corrupted_messages,
        "{wire}: every wire-corrupted signed frame must be detected"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn prop_an_engine_without_a_keyring_is_transparently_tag_free(
        n in 4usize..12,
    ) {
        // Transparency, the ladder's standing invariant, for the new
        // tier: no keyring ⇒ no auth counters, no tag bits, frames
        // exactly as long as the program sent them.
        let out = run_recorded("no-keyring", &Engine::new(n), gossip(n));
        prop_assert_eq!(out.stats.signed_messages, 0);
        prop_assert_eq!(out.stats.auth_bits, 0);
        prop_assert_eq!(out.stats.rejected_tags, 0);
        prop_assert_eq!(out.outputs.len(), n);
        prop_assert!(out.outputs.iter().all(Option::is_some), "a node has no output");
        // Every recorded frame is the bare id — no trailing tag.
        for t in &out.transcripts.expect("run_recorded records transcripts") {
            for round in &t.rounds {
                for (_, m) in round.sent.iter().filter(|(_, m)| !m.is_empty()) {
                    prop_assert_eq!(m.len(), BitString::width_for(n));
                }
            }
        }
    }
}

/// One equivocating broadcast round: every node outputs the raw frame it
/// received from the designated suspect, tag and all.
#[derive(Clone)]
struct FrameTap {
    suspect: NodeId,
    frame: BitString,
}

impl NodeProgram for FrameTap {
    type Output = BitString;
    fn step(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        outbox: &mut Outbox<'_>,
    ) -> Status<BitString> {
        if round == 0 {
            let mut m = BitString::new();
            m.push_uint(ctx.id.0 as u64, ctx.id_width());
            outbox.broadcast(&m);
            return Status::Continue;
        }
        self.frame = inbox.from(self.suspect).clone();
        Status::Halt(self.frame.clone())
    }
}

#[test]
fn an_equivocation_witness_upgrades_into_a_transferable_proof() {
    // A traitor garbles per recipient *before* the engine signs, so each
    // lie arrives validly tagged — exactly the evidence the accusation
    // needs. Two honest recipients' conflicting frames convict the
    // traitor to any third party holding the keyring; `cc-testkit`'s
    // unauthenticated `equivocation_witness` could only ever shrug.
    let n = 6;
    let suspect = NodeId(3);
    let keyring = AuthKeyring::from_seed(n, 41);
    let plan = ByzantinePlan::new(41).traitor(suspect).garble(1.0);
    let outputs = run_recorded(
        &format!("accusation {keyring} under {plan}"),
        &Engine::new(n)
            .with_auth(keyring.clone())
            .with_byzantine_plan(plan.clone()),
        (0..n)
            .map(|_| FrameTap {
                suspect,
                frame: BitString::new(),
            })
            .collect(),
    )
    .outputs;
    let claims: Vec<SignedClaim> = (0..n)
        .filter(|&v| v != suspect.index())
        .filter_map(|v| SignedClaim::from_frame(suspect, 0, outputs[v].as_ref().unwrap()))
        .collect();
    assert!(claims.len() >= 2, "{plan}: not enough testimony");
    let conflicting = claims
        .iter()
        .flat_map(|a| claims.iter().map(move |b| (a, b)))
        .find_map(|(a, b)| equivocation_accusation(&keyring, a, b).ok())
        .unwrap_or_else(|| panic!("{plan}: a garbling traitor that never equivocated?!"));
    assert!(
        conflicting.verify(&keyring),
        "{plan}: the proof must convict from its own fields"
    );
    assert_eq!(conflicting.signer, suspect);
    // Serialisable conviction: a structurally equal copy still verifies.
    let copy = EquivocationProof {
        signer: conflicting.signer,
        round: conflicting.round,
        first: conflicting.first.clone(),
        second: conflicting.second.clone(),
    };
    assert!(copy.verify(&keyring), "the proof transfers by value");
}

#[test]
fn the_analytic_overhead_is_the_simulated_ledger() {
    // Not approximately — outright. `dolev_strong_overhead` must price a
    // fault-free phase so exactly that `Session::charge` of the analytic
    // stats is indistinguishable from running the protocol.
    for (n, f) in [(16, 3), (16, 0), (32, 7)] {
        let mut session = Session::new(
            Engine::new(n)
                .with_auth(AuthKeyring::from_seed(n, 2))
                .with_bandwidth(ds_bandwidth(n, f)),
        );
        let out = dolev_strong_broadcast(&mut session, NodeId(1), VALUE, WIDTH, f).unwrap();
        assert_eq!(
            out.stats,
            dolev_strong_overhead(n, f, WIDTH),
            "n={n} f={f}: the analytic ledger drifted from the simulation"
        );
    }
}

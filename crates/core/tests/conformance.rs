//! Testkit conformance for `cc-core`: the transcript-determinism
//! regression for randomized protocols (§8's Monte Carlo → nondeterminism
//! conversion) and a full transcript audit of the verifier's execution
//! against the model bandwidth and the declared time bound.

use cc_core::randomized::{OneSidedMonteCarlo, RandomizedColoring};
use cc_graph::gen;
use cc_testkit::{assert_transcripts_conform, differential_programs, AuditSpec};
use cliquesim::{BitString, Engine, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Per-node coin strings from a fixed `rand_chacha` seed, exactly the
/// shape `MonteCarloAdapter`'s prover samples.
fn seeded_coins(n: usize, bits: usize, seed: u64) -> Vec<BitString> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..bits).map(|_| rng.gen_bool(0.5)).collect())
        .collect()
}

#[test]
fn randomized_protocol_transcripts_pass_the_auditor() {
    // The verifier under fixed coins, with its transcripts recorded.
    let n = 15;
    let algo = RandomizedColoring { k: 4 };
    let (g, _) = gen::k_colorable(n, 4, 0.4, 11);
    let coins = seeded_coins(n, algo.coin_bits(n), 0xC01_FFEE);

    let label = "randomized-coloring[n=15, seed=0xC01FFEE]";
    let (outputs, stats, transcripts) = differential_programs(label, &Engine::new(n), || {
        (0..n)
            .map(|v| algo.node(n, NodeId::from(v), &g.input_row(NodeId::from(v)), &coins[v]))
            .collect()
    });
    assert_eq!(outputs.len(), n);

    // Audit the recorded transcripts against the model's strict
    // ⌈log₂ n⌉ budget and the algorithm's declared time bound.
    let spec = AuditSpec::model(n).with_round_bound(algo.time_bound(n));
    let report = assert_transcripts_conform(label, &transcripts, &stats, &spec);
    assert_eq!(report.rounds, stats.rounds);
}

#[test]
fn verifier_accepts_exactly_proper_colorings() {
    // Under planted coins (the known coloring), every node accepts; under
    // a deliberately clashing coloring, some node rejects — both outcomes
    // judged against the central reference.
    let n = 14;
    let algo = RandomizedColoring { k: 3 };
    let (g, colors) = gen::k_colorable(n, 3, 0.5, 23);
    let w = algo.coin_bits(n);
    let encode = |c: usize| -> BitString {
        let mut b = BitString::new();
        b.push_uint(c as u64, w);
        b
    };

    let proper: Vec<BitString> = colors.iter().map(|&c| encode(c)).collect();
    let label = "coloring-verifier[n=14, seed=23]";
    let (outputs, _, _) = differential_programs(label, &Engine::new(n), || {
        (0..n)
            .map(|v| {
                algo.node(
                    n,
                    NodeId::from(v),
                    &g.input_row(NodeId::from(v)),
                    &proper[v],
                )
            })
            .collect()
    });
    assert!(
        cc_graph::reference::is_proper_coloring(&g, &colors),
        "{label}: planted coloring must be proper"
    );
    assert!(
        outputs.iter().all(|&b| b),
        "{label}: verifier rejected a proper coloring"
    );

    // Monochrome coins on an edge endpoint pair must be caught.
    let first_edge = {
        let mut edges = g.edges();
        edges.next()
    };
    if let Some((u, v)) = first_edge {
        let mut bad = proper.clone();
        bad[v] = bad[u].clone();
        let (outputs, _, _) = differential_programs(label, &Engine::new(n), || {
            (0..n)
                .map(|x| algo.node(n, NodeId::from(x), &g.input_row(NodeId::from(x)), &bad[x]))
                .collect()
        });
        assert!(
            !outputs.iter().all(|&b| b),
            "{label}: verifier accepted a clashing coloring ({u},{v})"
        );
    }
}

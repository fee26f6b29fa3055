//! Experiment **S3-RT**: the routing substrate. Ablation between the
//! direct per-link schedule and the Lenzen-style two-phase balanced
//! schedule: identical on uniform patterns, and the balanced router wins
//! exactly on node-balanced-but-link-skewed patterns (the regime the
//! paper's Theorem 9 relies on).

use cc_bench::{print_table, SEED};
use cliquesim::{BitString, Engine, NodeId, Session};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};

type Demands = Vec<Vec<(NodeId, BitString)>>;

fn uniform_pattern(n: usize, bits: usize, seed: u64) -> Demands {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|v| {
            (0..n)
                .filter(|&u| u != v)
                .map(|u| {
                    (
                        NodeId::from(u),
                        (0..bits).map(|_| rng.gen_bool(0.5)).collect(),
                    )
                })
                .collect()
        })
        .collect()
}

fn skewed_pattern(n: usize, bits: usize, seed: u64) -> Demands {
    // Every node sends its whole budget to a single partner: per-node
    // balanced, per-link maximally skewed.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|v| {
            let dst = (v + 1) % n;
            let payload: BitString = (0..bits * (n - 1)).map(|_| rng.gen_bool(0.5)).collect();
            vec![(NodeId::from(dst), payload)]
        })
        .collect()
}

fn run_stats(n: usize, d: Demands, balanced: bool) -> cliquesim::RunStats {
    let mut s = Session::new(Engine::new(n));
    let plan = if balanced {
        cc_routing::RoutePlan::balanced()
    } else {
        cc_routing::RoutePlan::direct()
    };
    plan.run(&mut s, d).unwrap();
    s.stats()
}

fn rounds(n: usize, d: Demands, balanced: bool) -> usize {
    run_stats(n, d, balanced).rounds
}

fn report() {
    let mut rows = Vec::new();
    for n in [16usize, 32, 64] {
        let bits = 8;
        for (name, mk) in [
            (
                "uniform",
                uniform_pattern as fn(usize, usize, u64) -> Demands,
            ),
            ("skewed", skewed_pattern as fn(usize, usize, u64) -> Demands),
        ] {
            let direct = run_stats(n, mk(n, bits, SEED), false);
            let balanced = run_stats(n, mk(n, bits, SEED), true);
            rows.push(vec![
                n.to_string(),
                name.into(),
                direct.rounds.to_string(),
                balanced.rounds.to_string(),
                balanced.bits.to_string(),
                balanced.peak_live_payload_bytes.to_string(),
                balanced.undelivered_messages.to_string(),
            ]);
        }
    }
    print_table(
        "Routing ablation: direct schedule vs two-phase balanced",
        &[
            "n",
            "pattern",
            "direct rounds",
            "balanced rounds",
            "wire bits (bal)",
            "peak live B (bal)",
            "undeliv (bal)",
        ],
        &rows,
    );
    println!("\nshape: on the skewed pattern the direct schedule pays Θ(n·B/log n)");
    println!("rounds on one link while the balanced schedule spreads the stream");
    println!("over all links (Lenzen's regime, DESIGN.md substitution).");
}

fn bench(c: &mut Criterion) {
    report();
    let mut group = c.benchmark_group("routing");
    group.sample_size(10);
    let n = 32;
    group.bench_function("direct_uniform_n32", |b| {
        b.iter(|| rounds(n, uniform_pattern(n, 8, SEED), false));
    });
    group.bench_function("balanced_skewed_n32", |b| {
        b.iter(|| rounds(n, skewed_pattern(n, 8, SEED), true));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

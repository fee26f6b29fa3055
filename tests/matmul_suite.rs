//! Matmul strategy conformance: the sparse tier's acceptance criteria.
//!
//! * On seeded sparse instances with `m ≤ n^{3/2}` (n ∈ {64, 125, 216}),
//!   the sparse path's measured `RunStats.rounds` strictly beats the dense
//!   3D schedule, with bit-identical outputs.
//! * Every strategy agrees bit-for-bit with the independent serial oracle
//!   on every family of the corpus.
//! * The analytic ledger `mm_sparse_overhead` equals the simulated
//!   `RunStats` field-for-field.
//! * Degenerate shapes (n = 1, all-zero, single nonzero, density pinned
//!   exactly at the `MmStrategy::Auto` crossover) behave and agree.

use cc_matmul::{mm_sparse, mm_sparse_overhead, mm_three_d, mm_with_strategy, MmStrategy, RingI64};
use cc_testkit::{differential_matmul, matmul_corpus, MmCase, MmFamily, MM_WIDTH};
use cliquesim::{Engine, Session};

fn session(n: usize) -> Session {
    Session::new(Engine::new(n))
}

fn ring() -> RingI64 {
    RingI64::with_width(MM_WIDTH)
}

/// The tentpole acceptance: strictly fewer rounds than dense 3D on the
/// paper's sparse regime, identical outputs, exact analytic ledger.
#[test]
fn sparse_beats_dense_rounds_in_le_gall_regime() {
    let sr = ring();
    for n in [64usize, 125, 216] {
        // m = n·⌊√n⌋ / 2 ≤ n^{3/2}: squarely in the sparse regime.
        let m = n * (n as f64).sqrt() as usize / 2;
        let case = MmCase::new(MmFamily::Sparse, n, m, 1);
        let (a, b) = case.pair();

        let mut s_sparse = session(n);
        let sparse = mm_sparse(&mut s_sparse, &sr, &a, &b).unwrap();
        let mut s_dense = session(n);
        let dense = mm_three_d(&mut s_dense, &sr, &a, &b).unwrap();

        assert_eq!(sparse, dense, "{case}: outputs diverge");
        let (rs, rd) = (s_sparse.stats().rounds, s_dense.stats().rounds);
        assert!(
            rs < rd,
            "{case}: sparse must strictly beat dense, got {rs} vs {rd} rounds"
        );

        let analytic = mm_sparse_overhead(n, s_sparse.bandwidth(), &sr, &a, &b);
        assert_eq!(
            analytic,
            s_sparse.stats(),
            "{case}: analytic ledger diverges from simulation"
        );
    }
}

/// Auto must pick the sparse path (and therefore inherit its round win)
/// in the sparse regime.
#[test]
fn auto_picks_the_winning_path_on_sparse_instances() {
    let sr = ring();
    let n = 64;
    let case = MmCase::new(MmFamily::Sparse, n, 256, 5);
    let (a, b) = case.pair();
    let mut s_auto = session(n);
    let run = mm_with_strategy(&mut s_auto, &sr, MmStrategy::Auto, &a, &b).unwrap();
    assert_eq!(run.resolved, MmStrategy::Sparse, "{case}");
    let mut s_dense = session(n);
    let dense = mm_three_d(&mut s_dense, &sr, &a, &b).unwrap();
    assert_eq!(run.rows, dense, "{case}");
    assert!(
        s_auto.stats().rounds < s_dense.stats().rounds,
        "{case}: auto (incl. its gossip) should still beat dense: {} vs {}",
        s_auto.stats().rounds,
        s_dense.stats().rounds
    );
}

/// Full differential grid: every family × strategy, judged against the
/// independent serial oracle.
#[test]
fn strategy_grid_is_bit_identical_across_backends_and_shapes() {
    let sr = ring();
    let strategies = [MmStrategy::Auto, MmStrategy::Dense3D, MmStrategy::Sparse];
    for case in matmul_corpus(&[16, 27], &[0, 1]) {
        let (a, b) = case.pair();
        let mut products = Vec::new();
        for strategy in strategies {
            let got = differential_matmul(&case, |s, a, b| {
                mm_with_strategy(s, &sr, strategy, a, b).unwrap().rows
            });
            products.push(got);
        }
        assert_eq!(products[0], products[1], "{case}: auto vs dense3d");
        assert_eq!(products[0], products[2], "{case}: auto vs sparse");
        let _ = (a, b);
    }
}

/// One larger grid cell, so the 3D schedule sees a nontrivial blocking
/// (t = 4) at least once per run.
#[test]
fn large_sparse_cell_survives_the_grid() {
    let sr = ring();
    let case = MmCase::new(MmFamily::Sparse, 64, 200, 3);
    differential_matmul(&case, |s, a, b| {
        mm_with_strategy(s, &sr, MmStrategy::Auto, a, b)
            .unwrap()
            .rows
    });
}

/// The analytic ledger holds across families, not just the flagship
/// sparse instances — including skewed (banded) and empty inputs.
#[test]
fn overhead_is_exact_across_families() {
    let sr = ring();
    for case in matmul_corpus(&[16, 27], &[2]) {
        let (a, b) = case.pair();
        let mut s = session(case.n);
        mm_sparse(&mut s, &sr, &a, &b).unwrap();
        let analytic = mm_sparse_overhead(case.n, s.bandwidth(), &sr, &a, &b);
        assert_eq!(analytic, s.stats(), "{case}");
    }
}

/// Degenerate shapes: n = 1, all-zero, and single-nonzero inputs run
/// through the full grid under both forced strategies.
#[test]
fn degenerate_shapes_run_the_full_grid() {
    let sr = ring();
    let cases = [
        MmCase::new(MmFamily::AllZero, 1, 0, 0),
        MmCase::new(MmFamily::SingleNonzero, 1, 1, 0),
        MmCase::new(MmFamily::AllZero, 16, 0, 0),
        MmCase::new(MmFamily::SingleNonzero, 16, 1, 4),
    ];
    for case in cases {
        let mut products = Vec::new();
        for strategy in [MmStrategy::Dense3D, MmStrategy::Sparse, MmStrategy::Auto] {
            products.push(differential_matmul(&case, |s, a, b| {
                mm_with_strategy(s, &sr, strategy, a, b).unwrap().rows
            }));
        }
        assert_eq!(products[0], products[1], "{case}");
        assert_eq!(products[0], products[2], "{case}");
    }
}

/// Density pinned exactly at the Auto crossover: `nnz = n·⌊√n⌋` resolves
/// sparse, `nnz = n·⌊√n⌋ + 1` resolves dense, and the two sides produce
/// byte-identical products.
#[test]
fn auto_crossover_is_pinned_and_both_sides_agree() {
    let sr = ring();
    let n = 16;
    let thr = MmStrategy::sparse_threshold(n);
    assert_eq!(thr, 64, "crossover moved; update the pinned cases");

    let at = MmCase::new(MmFamily::Sparse, n, thr, 9);
    let above = MmCase::new(MmFamily::Sparse, n, thr + 1, 9);
    for (case, want) in [(at, MmStrategy::Sparse), (above, MmStrategy::Dense3D)] {
        let (a, b) = case.pair();
        assert_eq!(MmCase::nnz(&a), case.m, "{case}: generator broke density");
        let mut s = session(n);
        let run = mm_with_strategy(&mut s, &sr, MmStrategy::Auto, &a, &b).unwrap();
        assert_eq!(run.resolved, want, "{case}");
        // Byte-identical to the other side's path, forced.
        let other = match want {
            MmStrategy::Sparse => MmStrategy::Dense3D,
            _ => MmStrategy::Sparse,
        };
        let mut s2 = session(n);
        let forced = mm_with_strategy(&mut s2, &sr, other, &a, &b).unwrap();
        assert_eq!(run.rows, forced.rows, "{case}: crossover sides diverge");
        // And to the serial oracle, across the whole grid.
        differential_matmul(&case, |s, a, b| {
            mm_with_strategy(s, &sr, MmStrategy::Auto, a, b)
                .unwrap()
                .rows
        });
    }
}

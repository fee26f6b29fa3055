//! Testkit conformance for the Section 7 reductions: Theorem 10's
//! k-IS → k-DS pipeline and the Dor–Halperin–Zwick Boolean-MM →
//! approximate-APSP arrow, judged by independent oracles. The reductions
//! build their own (virtual) sessions internally, so soundness is judged
//! on the final answers while the cost model is checked on the reported
//! stats.

use cc_reductions::{boolean_mm_via_approx_apsp, independent_set_via_dominating_set};
use cc_testkit::{oracle, Family, Instance};
use cliquesim::{Engine, Session};

#[test]
fn thm10_pipeline_is_sound_and_complete_across_families() {
    let k = 2;
    for family in [
        Family::ErMedium,
        Family::ErDense,
        Family::Complete, // no independent pair at all
        Family::Empty,    // every pair is independent
        Family::PlantedIndependentSet,
    ] {
        for seed in [1u64, 2] {
            let inst = Instance::new(family, 8, seed);
            let g = inst.graph();
            let out = independent_set_via_dominating_set(&g, k).unwrap();
            oracle::judge_independent_set_witness(&inst.label(), &g, k, &out.independent_set);

            // Theorem 10 cost model: host rounds = virtual rounds × factor,
            // and the per-host virtual load is O(k²) — independent of n.
            assert_eq!(
                out.host_stats.rounds,
                out.virtual_stats.rounds * out.factor,
                "{inst}: simulation factor not applied uniformly"
            );
            assert!(
                out.max_load <= k + k * (k - 1) / 2 + k,
                "{inst}: virtual load {} exceeds the O(k²) bound",
                out.max_load
            );
        }
    }
}

#[test]
fn dhz_boolean_mm_matches_the_oracle_product() {
    for (n, seed) in [(5usize, 1u64), (6, 2)] {
        let inst = Instance::new(Family::ErMedium, n, seed);
        let g = inst.graph();
        let a: Vec<Vec<bool>> = (0..n)
            .map(|i| (0..n).map(|j| g.has_edge(i, j)).collect())
            .collect();
        let (got, stats) = boolean_mm_via_approx_apsp(&a, &a, 0.5).unwrap();
        oracle::judge_matmul(
            &inst.label(),
            &a,
            &a,
            &got,
            false,
            |x, y| *x || *y,
            |x, y| *x && *y,
        );
        assert!(stats.rounds > 0, "{inst}: reduction must simulate rounds");
    }
}

#[test]
fn gadget_construction_is_deterministic() {
    // The host-side part of Theorem 10 that *does* run in a session —
    // re-derived here through the public pipeline on identical inputs —
    // must not depend on scheduling. The pipeline itself is deterministic
    // in (g, k); run it repeatedly and through a session-based detection
    // differential to pin that down.
    let inst = Instance::new(Family::ErMedium, 8, 7);
    let g = inst.graph();
    let first = independent_set_via_dominating_set(&g, 2).unwrap();
    for _ in 0..2 {
        let again = independent_set_via_dominating_set(&g, 2).unwrap();
        assert_eq!(
            first.independent_set, again.independent_set,
            "{inst}: reduction output is not deterministic"
        );
        assert_eq!(first.virtual_stats, again.virtual_stats, "{inst}");
    }
    // Cross-check against a directly session-run detector.
    let direct = cc_subgraph::detect_independent_set(&mut Session::new(Engine::new(g.n())), &g, 2)
        .unwrap_or_else(|e| panic!("{inst}: {e}"));
    assert_eq!(
        first.independent_set.is_some(),
        direct.is_some(),
        "{inst}: reduction and direct detection disagree on membership"
    );
}

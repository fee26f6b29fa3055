//! Regenerate a small-scale version of Figure 1: measure round counts of
//! the implemented algorithms across n, fit exponents, and print them next
//! to the paper's bounds. (The full sweep lives in `cargo bench --bench
//! fig1_exponents`; this example is the quick look.)
//!
//! The sweep runs as a `cc-service` fleet, the same shape as
//! `byzantine_broadcast`: each `(problem, n)` measurement cell is one job
//! (each clique size is a tenant sharing the pool), the grid is one batch,
//! and `cc_testkit::assert_fleet_matches_serial` asserts the fleet
//! outcomes byte-identical to the serial oracle (`Batch::run_serial`)
//! before any exponent is fitted. The footer reports both wall times — the
//! serial-vs-fleet row in EXPERIMENTS.md §"Session service" comes from
//! here. The table also
//! carries the sparse-multiplication rows next to their dense-3D baseline
//! (EXPERIMENTS.md §"Exponent atlas").
//!
//! Run with: `cargo run --release --example exponent_atlas`

use std::sync::Arc;

use cc_testkit::assert_fleet_matches_serial;
use congested_clique::prelude::*;
use congested_clique::service::{Batch, JobSpec, JobStatus, TenantId};
use congested_clique::{graph, matmul, param, paths, reductions, subgraph, theory};

/// The atlas problems, in table order.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Problem {
    /// Dense `(min,+)` MM, 3D schedule.
    MmDense3D,
    /// The same sparse instance under the dense 3D schedule (baseline).
    MmDenseOnSparse,
    /// The same sparse instance under the sparse (Le Gall) path.
    MmSparse,
    /// Combinatorial triangle detection.
    Triangle,
    /// Theorem 9's 2-dominating set.
    DomSet,
    /// Theorem 11's 4-vertex cover kernelisation.
    VertexCover,
    /// Weighted APSP by distance-product squaring.
    Apsp,
    /// Naive MaxIS gather.
    MaxIs,
}

impl Problem {
    const ALL: [Problem; 8] = [
        Problem::MmDense3D,
        Problem::MmDenseOnSparse,
        Problem::MmSparse,
        Problem::Triangle,
        Problem::DomSet,
        Problem::VertexCover,
        Problem::Apsp,
        Problem::MaxIs,
    ];

    fn title(self) -> &'static str {
        match self {
            Problem::MmDense3D => "(min,+) MM (3D, dense)",
            Problem::MmDenseOnSparse => "(min,+) MM 3D @ sparse inst",
            Problem::MmSparse => "(min,+) MM sparse (Le Gall)",
            Problem::Triangle => "triangle (Dolev et al.)",
            Problem::DomSet => "2-dominating set (Thm 9)",
            Problem::VertexCover => "4-vertex cover (Thm 11)",
            Problem::Apsp => "APSP weighted (squaring)",
            Problem::MaxIs => "MaxIS (gather)",
        }
    }

    fn paper_bound(self) -> &'static str {
        match self {
            Problem::MmDense3D => "1/3",
            Problem::MmDenseOnSparse => "1/3",
            Problem::MmSparse => "→0 (m≤n^1.5)",
            Problem::Triangle => "1/3*",
            Problem::DomSet => "1-1/k=1/2",
            Problem::VertexCover => "0",
            Problem::Apsp => "1/3*",
            Problem::MaxIs => "1",
        }
    }

    fn ns(self) -> &'static [usize] {
        match self {
            Problem::MmDense3D | Problem::MmDenseOnSparse | Problem::MmSparse => &[27, 64, 125],
            Problem::DomSet => &[32, 64, 128, 256],
            Problem::VertexCover => &[64, 128, 256, 512],
            Problem::MaxIs => &[12, 18, 24, 36],
            _ => &[27, 64, 125],
        }
    }

    /// The seed-addressed sparse tropical instance shared by the two
    /// sparse-vs-dense rows: a G(n, 0.08) weighted graph's matrix, whose
    /// off-edges are `INF` (the tropical zero), so `nnz ≈ 0.08·n² ≪ n^{3/2}`.
    fn sparse_rows(n: usize) -> Vec<Vec<u64>> {
        let wg = graph::gen::gnp_weighted(n, 0.08, 30, n as u64);
        (0..n).map(|v| wg.row(v).to_vec()).collect()
    }

    /// Run the measurement inside the job's session; returns rounds.
    fn run(self, session: &mut Session, n: usize) -> Result<u64, String> {
        let rounds = match self {
            Problem::MmDense3D => {
                let sr = matmul::TropicalSemiring::for_max_value(1000);
                let a = matmul::Matrix::filled(n, 3u64);
                matmul::mm_three_d(session, &sr, &a.to_rows(), &a.to_rows())
                    .map_err(|e| e.to_string())?;
                session.stats().rounds
            }
            Problem::MmDenseOnSparse | Problem::MmSparse => {
                let rows = Self::sparse_rows(n);
                let sr = matmul::TropicalSemiring::for_max_value(30 * n as u64);
                if self == Problem::MmSparse {
                    matmul::mm_sparse(session, &sr, &rows, &rows).map_err(|e| e.to_string())?;
                } else {
                    matmul::mm_three_d(session, &sr, &rows, &rows).map_err(|e| e.to_string())?;
                }
                session.stats().rounds
            }
            Problem::Triangle => {
                let g = graph::gen::gnp(n, 0.15, n as u64);
                subgraph::detect_triangle(session, &g).map_err(|e| e.to_string())?;
                session.stats().rounds
            }
            Problem::DomSet => {
                let (g, _) = graph::gen::planted_dominating_set(n, 2, 0.05, n as u64);
                param::dominating_set(session, &g, 2).map_err(|e| e.to_string())?;
                session.stats().rounds
            }
            Problem::VertexCover => {
                // Kernelisation is priced analytically; the session idles.
                let g = graph::gen::star(n);
                let (_, stats) = param::vertex_cover_rounds(&g, 4).map_err(|e| e.to_string())?;
                stats.rounds
            }
            Problem::Apsp => {
                let wg = graph::gen::gnp_weighted(n, 0.2, 30, n as u64);
                paths::apsp_exact(session, &wg).map_err(|e| e.to_string())?;
                session.stats().rounds
            }
            Problem::MaxIs => {
                // Exponential *local* time (free in the model, not on this
                // machine) — instance sizes stay small and sparse.
                let g = graph::gen::gnp(n, 0.18, n as u64);
                reductions::max_independent_set_naive(session, &g).map_err(|e| e.to_string())?;
                session.stats().rounds
            }
        };
        Ok(rounds as u64)
    }

    /// The cell as a service job. Output bytes: one little-endian u64 —
    /// the measured round count.
    fn job(self, n: usize) -> JobSpec {
        JobSpec::new(
            TenantId(n as u32),
            format!("atlas[{}, n={}]", self.title(), n),
            Engine::new(n),
            Arc::new(move |session, _deps| self.run(session, n).map(|r| r.to_le_bytes().to_vec())),
        )
    }
}

fn main() {
    // The grid, flattened in table order: one job per (problem, n) cell.
    let cells: Vec<(Problem, usize)> = Problem::ALL
        .iter()
        .flat_map(|&p| p.ns().iter().map(move |&n| (p, n)))
        .collect();
    let mut batch = Batch::new();
    for &(p, n) in &cells {
        batch.push(p.job(n));
    }

    // Serial oracle first, then the fleet — and the fleet must agree byte
    // for byte before any exponent is fitted.
    let check = assert_fleet_matches_serial(&batch, &[4]);
    let serial = &check.outcomes;

    println!("== measured exponents vs Figure 1 bounds (small-scale) ==\n");
    println!(
        "{:28} {:>8} {:>13}   rounds by n",
        "problem", "δ̂ (fit)", "paper δ ≤"
    );

    let mut idx = 0;
    for p in Problem::ALL {
        let mut samples = Vec::new();
        for &n in p.ns() {
            let outcome = &serial[idx];
            idx += 1;
            let JobStatus::Done(bytes) = &outcome.status else {
                panic!(
                    "{}: cell did not complete: {:?}",
                    outcome.label, outcome.status
                );
            };
            let rounds =
                u64::from_le_bytes(bytes[..8].try_into().expect("8-byte cell output")) as usize;
            samples.push((n, rounds));
        }
        let fit = theory::fit_exponent(&samples).expect("atlas sweeps span distinct n");
        let row = samples
            .iter()
            .map(|(n, r)| format!("{n}:{r}"))
            .collect::<Vec<_>>()
            .join("  ");
        println!(
            "{:28} {:>8.3} {:>13}   {row}",
            p.title(),
            fit.delta,
            p.paper_bound()
        );
    }

    println!("\n(*) plus log factors; the paper's 1−2/ω ring-MM bound needs fast");
    println!("    rectangular multiplication, substituted by the 3D semiring");
    println!("    algorithm — see DESIGN.md. The sparse row is the same");
    println!("    instance as its 3D baseline row: the gap is the Le Gall");
    println!("    tier's constant-factor round win in the m ≤ n^1.5 regime.\n");

    println!("{check}");

    println!(
        "\nFigure 1 arrow-closure validation: {:?}",
        reductions::Atlas::validate(4)
    );
    println!("\nGraphviz of the atlas (paste into `dot -Tsvg`):\n");
    println!("{}", reductions::Atlas::to_dot());
}

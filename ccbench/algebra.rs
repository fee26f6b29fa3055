//! `algebra-216`: exact APSP by distance-product squaring, then the same
//! sparse tropical product under the sparse (Le Gall) and dense 3D
//! multiplication paths.
//!
//! Why: the largest run users start. Most of APSP's time is driver,
//! matmul and routing work outside `EngineTiming`, the rest the engine's
//! dense unicast path — the workload where outside-engine work shows.

use std::time::Instant;

use congested_clique::graph::{reference, DistMatrix, WeightedGraph};
use congested_clique::matmul::{self, Matrix, MmStrategy, TropicalSemiring};
use congested_clique::paths;
use congested_clique::prelude::{Engine, Session};

use crate::runner::{call, digest, seed_for, Ctx, Rep, Workload};

pub struct Algebra {
    pub n: usize,
    pub seed: u64,
}

pub struct Input {
    apsp: WeightedGraph,
    rows: Vec<Vec<u64>>,
    sr: TropicalSemiring,
    sessions: [Session; 3],
}

impl Workload for Algebra {
    type Input = Input;

    fn setup(&self) -> Input {
        let n = self.n;
        let sparse =
            congested_clique::graph::gen::gnp_weighted(n, 0.08, 30, seed_for(self.seed, 2));
        Input {
            apsp: congested_clique::graph::gen::gnp_weighted(n, 0.2, 20, seed_for(self.seed, 1)),
            rows: (0..n).map(|v| sparse.row(v).to_vec()).collect(),
            sr: TropicalSemiring::for_max_value(30 * n as u64),
            sessions: [(); 3].map(|_| Session::new(Engine::new(n))),
        }
    }

    fn run(&self, input: Input, ctx: &Ctx, judge: bool) -> Rep {
        let Input {
            apsp,
            rows,
            sr,
            sessions: [s_apsp, s_sparse, s_dense],
        } = input;
        let root = ctx.trace.id();
        let start = Instant::now();
        let dist = call("cc_paths.apsp_exact", s_apsp, |s| {
            paths::apsp_exact(s, &apsp).map_err(|e| e.to_string())
        });
        let product = |name, strategy, session| {
            call(name, session, |s| {
                matmul::mm_with_strategy(s, &sr, strategy, &rows, &rows)
                    .map(|run| run.rows)
                    .map_err(|e| e.to_string())
            })
        };
        let sparse = product(
            "cc_matmul.mm_with_strategy.sparse",
            MmStrategy::Sparse,
            s_sparse,
        );
        let dense = product(
            "cc_matmul.mm_with_strategy.dense3d",
            MmStrategy::Dense3D,
            s_dense,
        );
        let end = Instant::now();
        ctx.span(root, None, "rep", (start, end), None);

        let words = |m: &Vec<Vec<u64>>| digest(m.iter().flatten().copied());
        let ops = vec![
            dist.finish(ctx, root, |d: &DistMatrix| {
                digest((0..d.n()).flat_map(|u| d.row(u).to_vec()))
            }),
            sparse.finish(ctx, root, words),
            dense.finish(ctx, root, words),
        ];
        let mut judge_failures = Vec::new();
        if judge {
            if let Ok(d) = &dist.out {
                if *d != reference::floyd_warshall(&apsp) {
                    judge_failures.push((0, "APSP differs from Floyd–Warshall".to_string()));
                }
            }
            let m = Matrix::from_rows(rows.clone());
            let expected = matmul::mm_local(&sr, &m, &m).to_rows();
            for (i, out) in [(1, &sparse.out), (2, &dense.out)] {
                if out.as_ref().is_ok_and(|rows| *rows != expected) {
                    judge_failures.push((i, "product differs from mm_local".to_string()));
                }
            }
            if let (Ok(a), Ok(b)) = (&sparse.out, &dense.out) {
                if a != b {
                    judge_failures.push((1, "sparse and dense products differ".to_string()));
                }
            }
        }
        Rep {
            wall: end - start,
            ops,
            judge_failures,
        }
    }
}

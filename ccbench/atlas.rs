//! `atlas-fleet`: the exponent-atlas cell grid (every (problem, n) cell of
//! `examples/exponent_atlas.rs`, 27 jobs) submitted as one batch, every
//! job due at t = 0, to a `cc_service::Service` of width
//! `min(host parallelism, 4)`.
//!
//! Why: the many-short-sessions path through the scheduler. Its time is
//! set by the slowest job (MaxIS at the largest n), so it separates
//! fleet overhead from the work it schedules.

use std::sync::Arc;
use std::time::{Duration, Instant};

use congested_clique::graph::{gen, reference, Graph, WeightedGraph};
use congested_clique::matmul::{self, Matrix, TropicalSemiring};
use congested_clique::prelude::Session;
use congested_clique::service::{
    Batch, EngineSpec, JobOutcome, JobSpec, JobStatus, Service, TenantId,
};
use congested_clique::{param, paths, reductions, subgraph};

use crate::runner::{digest, seed_for, Ctx, Op, Rep, Workload};
use crate::trace::Trace;

/// The atlas problems, each named by the public function its job calls.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Problem {
    MmDense3D,
    MmDenseOnSparse,
    MmSparse,
    Triangle,
    DomSet,
    VertexCover,
    Apsp,
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

    fn ns(self) -> &'static [usize] {
        match self {
            Problem::DomSet => &[32, 64, 128, 256],
            Problem::VertexCover => &[64, 128, 256, 512],
            Problem::MaxIs => &[12, 18, 24, 36],
            _ => &[27, 64, 125],
        }
    }

    fn call_name(self) -> &'static str {
        match self {
            Problem::MmDense3D => "cc_matmul.mm_three_d",
            Problem::MmDenseOnSparse => "cc_matmul.mm_three_d.sparse_instance",
            Problem::MmSparse => "cc_matmul.mm_sparse",
            Problem::Triangle => "cc_subgraph.detect_triangle",
            Problem::DomSet => "cc_param.dominating_set",
            Problem::VertexCover => "cc_param.vertex_cover",
            Problem::Apsp => "cc_paths.apsp_exact",
            Problem::MaxIs => "cc_reductions.max_independent_set_naive",
        }
    }
}

/// The grid, flattened in table order.
pub fn full_grid() -> Vec<(Problem, usize)> {
    Problem::ALL
        .iter()
        .flat_map(|&p| p.ns().iter().map(move |&n| (p, n)))
        .collect()
}

pub fn smoke_grid() -> Vec<(Problem, usize)> {
    vec![
        (Problem::MmSparse, 27),
        (Problem::Apsp, 27),
        (Problem::MaxIs, 12),
    ]
}

/// One cell's generated input.
enum Instance {
    Matrix {
        rows: Vec<Vec<u64>>,
        sr: TropicalSemiring,
    },
    Graph(Graph),
    Weighted(WeightedGraph),
}

struct Cell {
    problem: Problem,
    n: usize,
    input: Instance,
}

impl Cell {
    fn generate(problem: Problem, n: usize, seed: u64) -> Cell {
        let s = seed_for(seed, problem as u64 * 1000 + n as u64);
        let sparse_rows = || {
            let wg = gen::gnp_weighted(n, 0.08, 30, s);
            (0..n).map(|v| wg.row(v).to_vec()).collect()
        };
        let input = match problem {
            Problem::MmDense3D => Instance::Matrix {
                rows: Matrix::filled(n, 3u64).to_rows(),
                sr: TropicalSemiring::for_max_value(1000),
            },
            Problem::MmDenseOnSparse | Problem::MmSparse => Instance::Matrix {
                rows: sparse_rows(),
                sr: TropicalSemiring::for_max_value(30 * n as u64),
            },
            Problem::Triangle => Instance::Graph(gen::gnp(n, 0.15, s)),
            Problem::DomSet => Instance::Graph(gen::planted_dominating_set(n, 2, 0.05, s).0),
            Problem::VertexCover => Instance::Graph(gen::star(n)),
            Problem::Apsp => Instance::Weighted(gen::gnp_weighted(n, 0.2, 30, s)),
            // The exponent atlas's own instances (seeded by n), not
            // seed-drawn ones: the exact local solve is exponential, and
            // its time differs by 2× between random graphs of one size,
            // which would make this workload's wall time a property of
            // the seed rather than of the code.
            Problem::MaxIs => Instance::Graph(gen::gnp(n, 0.18, n as u64)),
        };
        Cell { problem, n, input }
    }

    /// Run the cell in the job's session; the output as words.
    fn solve(&self, session: &mut Session) -> Result<Vec<u64>, String> {
        let err = |e: &dyn std::fmt::Display| e.to_string();
        let set = |s: Option<Vec<usize>>| match s {
            Some(v) => std::iter::once(1)
                .chain(v.into_iter().map(|x| x as u64))
                .collect(),
            None => vec![0],
        };
        match (&self.input, self.problem) {
            (Instance::Matrix { rows, sr }, Problem::MmSparse) => {
                matmul::mm_sparse(session, sr, rows, rows)
                    .map(|m| m.concat())
                    .map_err(|e| err(&e))
            }
            (Instance::Matrix { rows, sr }, _) => matmul::mm_three_d(session, sr, rows, rows)
                .map(|m| m.concat())
                .map_err(|e| err(&e)),
            (Instance::Graph(g), Problem::Triangle) => subgraph::detect_triangle(session, g)
                .map(set)
                .map_err(|e| err(&e)),
            (Instance::Graph(g), Problem::DomSet) => param::dominating_set(session, g, 2)
                .map(set)
                .map_err(|e| err(&e)),
            (Instance::Graph(g), Problem::VertexCover) => param::vertex_cover(session, g, 4)
                .map(set)
                .map_err(|e| err(&e)),
            (Instance::Graph(g), _) => reductions::max_independent_set_naive(session, g)
                .map(|s| s.into_iter().map(|x| x as u64).collect())
                .map_err(|e| err(&e)),
            (Instance::Weighted(g), _) => paths::apsp_exact(session, g)
                .map(|d| (0..d.n()).flat_map(|u| d.row(u).to_vec()).collect())
                .map_err(|e| err(&e)),
        }
    }

    /// Check an output against `cc_graph::reference` / `mm_local`.
    fn judge(&self, words: &[u64]) -> Option<String> {
        let set = |w: &[u64]| -> Option<Vec<usize>> {
            (w.first() == Some(&1)).then(|| w[1..].iter().map(|&x| x as usize).collect())
        };
        let ok = match (&self.input, self.problem) {
            (Instance::Matrix { rows, sr }, _) => {
                let m = Matrix::from_rows(rows.clone());
                words == matmul::mm_local(sr, &m, &m).to_rows().concat()
            }
            (Instance::Graph(g), Problem::Triangle) => match set(words) {
                Some(t) => {
                    t.len() == 3
                        && reference::is_clique(g, &t)
                        && t[0] != t[1]
                        && t[1] != t[2]
                        && t[0] != t[2]
                }
                None => reference::count_triangles(g) == 0,
            },
            (Instance::Graph(g), Problem::DomSet) => match set(words) {
                Some(d) => d.len() <= 2 && reference::is_dominating_set(g, &d),
                None => reference::find_dominating_set(g, 2).is_none(),
            },
            (Instance::Graph(g), Problem::VertexCover) => match set(words) {
                Some(c) => c.len() <= 4 && reference::is_vertex_cover(g, &c),
                None => reference::find_vertex_cover(g, 4).is_none(),
            },
            (Instance::Graph(g), _) => {
                let is: Vec<usize> = words.iter().map(|&x| x as usize).collect();
                reference::is_independent_set(g, &is) && is.len() == max_independent_set_size(g)
            }
            (Instance::Weighted(g), _) => {
                let d = reference::floyd_warshall(g);
                words
                    .iter()
                    .copied()
                    .eq((0..d.n()).flat_map(|u| d.row(u).to_vec()))
            }
        };
        (!ok).then(|| {
            format!(
                "{}[n={}] output fails its oracle",
                self.problem.call_name(),
                self.n
            )
        })
    }
}

/// Maximum independent set size by branching on bitmasks — an oracle
/// independent of the vertex-cover search `max_independent_set_naive`
/// solves with. Graphs here have at most 64 vertices.
fn max_independent_set_size(g: &Graph) -> usize {
    assert!(g.n() <= 64, "bitmask oracle covers n ≤ 64");
    let adj: Vec<u64> = (0..g.n())
        .map(|v| g.neighbors(v).fold(0u64, |m, u| m | 1 << u))
        .collect();
    fn best(adj: &[u64], cand: u64) -> usize {
        if cand == 0 {
            return 0;
        }
        // Branch on the candidate with most candidate neighbours: take it
        // (dropping its neighbours) or leave it out. A vertex with at most
        // one candidate neighbour is always safe to take.
        let v = (0..adj.len())
            .filter(|&v| cand >> v & 1 == 1)
            .max_by_key(|&v| (adj[v] & cand).count_ones())
            .expect("cand is non-empty");
        let take = 1 + best(adj, cand & !(1 << v) & !adj[v]);
        if (adj[v] & cand).count_ones() <= 1 {
            return take;
        }
        take.max(best(adj, cand & !(1 << v)))
    }
    let all = if g.n() == 64 {
        u64::MAX
    } else {
        (1u64 << g.n()) - 1
    };
    best(&adj, all)
}

pub struct Atlas {
    cells: Vec<(Problem, usize)>,
    seed: u64,
    width: usize,
    /// The serial run every judged fleet rep must match, if one was made.
    oracle: Option<Vec<JobOutcome>>,
    /// Wall time of the serial oracle (`Batch::run_serial`).
    pub oracle_wall: Duration,
}

pub struct Input {
    cells: Vec<Arc<Cell>>,
    service: Service,
}

impl Atlas {
    pub fn new(cells: Vec<(Problem, usize)>, seed: u64) -> Atlas {
        Atlas {
            cells,
            seed,
            width: std::thread::available_parallelism()
                .map_or(1, |p| p.get())
                .min(4),
            oracle: None,
            oracle_wall: Duration::ZERO,
        }
    }

    /// Run the serial oracle every judged fleet rep must match byte for
    /// byte.
    pub fn with_oracle(mut self) -> Atlas {
        let untraced = Ctx {
            trace: Arc::new(Trace::new(false)),
            rep: 0,
        };
        let batch = batch(&self.generate(), &untraced, 0);
        let start = Instant::now();
        self.oracle = Some(
            batch
                .run_serial()
                .expect("the atlas batch has no dependencies"),
        );
        self.oracle_wall = start.elapsed();
        self
    }

    fn generate(&self) -> Vec<Arc<Cell>> {
        self.cells
            .iter()
            .map(|&(p, n)| Arc::new(Cell::generate(p, n, self.seed)))
            .collect()
    }
}

/// One job per cell. Each job records its own span (worker thread, cost)
/// under `parent` when the rep is traced.
fn batch(cells: &[Arc<Cell>], ctx: &Ctx, parent: u64) -> Batch {
    let mut b = Batch::new();
    for cell in cells {
        let (cell, ctx) = (Arc::clone(cell), ctx.clone());
        let label = format!("atlas[{}, n={}]", cell.problem.call_name(), cell.n);
        b.push(JobSpec::new(
            TenantId(cell.n as u32),
            label,
            EngineSpec::new(cell.n),
            Arc::new(move |session, _deps| {
                let start = Instant::now();
                let out = cell.solve(session);
                let end = Instant::now();
                ctx.span(
                    ctx.trace.id(),
                    Some(parent),
                    cell.problem.call_name(),
                    (start, end),
                    Some(session),
                );
                out.map(|w| w.iter().flat_map(|x| x.to_le_bytes()).collect())
            }),
        ));
    }
    b
}

fn words(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

impl Workload for Atlas {
    type Input = Input;

    fn width(&self) -> usize {
        self.width
    }

    fn setup(&self) -> Input {
        Input {
            cells: self.generate(),
            service: Service::new(self.width),
        }
    }

    fn run(&self, input: Input, ctx: &Ctx, judge: bool) -> Rep {
        let root = ctx.trace.id();
        let join_id = ctx.trace.id();
        let jobs = batch(&input.cells, ctx, join_id);
        let start = Instant::now();
        let handle = input.service.submit(jobs);
        let submitted = Instant::now();
        let outcomes = handle.map(|h| h.join());
        let end = Instant::now();
        drop(input.service);
        ctx.span(root, None, "rep", (start, end), None);
        let submit_id = ctx.trace.id();
        ctx.span(
            submit_id,
            Some(root),
            "cc_service.Service.submit",
            (start, submitted),
            None,
        );
        ctx.span(
            join_id,
            Some(root),
            "cc_service.BatchHandle.join",
            (submitted, end),
            None,
        );

        let outcomes = outcomes.unwrap_or_else(|e| {
            eprintln!("ccbench: atlas batch failed: {e}");
            Vec::new()
        });
        let mut judge_failures = Vec::new();
        let ops = input
            .cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let outcome = outcomes.get(i);
                let done = outcome.and_then(|o| match &o.status {
                    JobStatus::Done(bytes) => Some((words(bytes), o.stats.clone())),
                    other => {
                        eprintln!("ccbench: {}: {other:?}", o.label);
                        None
                    }
                });
                if judge {
                    if self.oracle.as_ref().is_some_and(|o| outcome != o.get(i)) {
                        judge_failures.push((i, format!("job {i} differs from the serial oracle")));
                    }
                    if let Some(why) = done.as_ref().and_then(|(w, _)| cell.judge(w)) {
                        judge_failures.push((i, why));
                    }
                }
                Op {
                    name: cell.problem.call_name().to_string(),
                    digest: done.as_ref().map_or(0, |(w, _)| digest(w.iter().copied())),
                    stats: done.map(|(_, s)| s),
                }
            })
            .collect();
        Rep {
            wall: end - start,
            ops,
            judge_failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmask_oracle_agrees_with_the_reference_on_small_graphs() {
        for seed in 0..20 {
            let g = gen::gnp(14, 0.3, seed);
            assert_eq!(
                max_independent_set_size(&g),
                reference::max_independent_set_size(&g)
            );
        }
        assert_eq!(max_independent_set_size(&gen::star(10)), 9);
        assert_eq!(max_independent_set_size(&Graph::empty(64)), 64);
    }
}

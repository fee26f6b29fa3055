//! Batches: ordered collections of jobs with dependency edges, validated
//! into a DAG, plus the **serial oracle** the fleet is differentially
//! tested against.
//!
//! The shape is lifted from the para-dflow exemplar named in ROADMAP: a
//! dependency structure is decomposed into a DAG, executed in parallel,
//! and judged against a sequential reference execution. Here the "nodes"
//! are whole simulation jobs, and the reference is
//! [`Batch::run_serial`] — same jobs, same deterministic topological
//! order, one thread, one warm arena.

use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cliquesim::RunStats;

use crate::job::{JobFailure, JobId, JobOutcome, JobSpec, JobStatus};
use crate::worker::ArenaPool;

/// A set of jobs plus dependency edges. Build with [`Batch::push`] /
/// [`JobSpec::after`] (or [`Batch::add_dependency`] for edges decided
/// late), then hand to [`crate::Service::submit`] or [`Batch::run_serial`].
/// Cloning is cheap: job functions are shared behind `Arc`.
#[derive(Clone, Default)]
pub struct Batch {
    jobs: Vec<JobSpec>,
}

/// Structural rejection of a batch. Every variant names the offending
/// jobs, so a bad submission is debuggable without re-running anything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchError {
    /// A job depends on an id the batch does not contain.
    UnknownDependency {
        /// The depending job.
        job: JobId,
        /// The dangling id it references.
        dep: JobId,
    },
    /// The dependency edges contain a cycle, so no execution order
    /// exists. `cycle` lists the job ids on one witness cycle, in edge
    /// order (each entry depends on the next, and the last depends on the
    /// first). Detected at submission — a cyclic batch is *rejected*,
    /// never deadlocked on.
    DependencyCycle {
        /// One witness cycle through the dependency graph.
        cycle: Vec<JobId>,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::UnknownDependency { job, dep } => {
                write!(f, "{job} depends on {dep}, which is not in the batch")
            }
            BatchError::DependencyCycle { cycle } => {
                write!(f, "dependency cycle: ")?;
                for id in cycle {
                    write!(f, "{id} -> ")?;
                }
                match cycle.first() {
                    Some(first) => write!(f, "{first}"),
                    None => Ok(()),
                }
            }
        }
    }
}

impl std::error::Error for BatchError {}

impl Batch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a job; its [`JobId`] is its submission index.
    pub fn push(&mut self, spec: JobSpec) -> JobId {
        self.jobs.push(spec);
        JobId(self.jobs.len() - 1)
    }

    /// Add a dependency edge after the fact: `job` will wait for `dep`.
    /// Both ids must already be in the batch (checked again, with
    /// structured errors, at validation).
    pub fn add_dependency(&mut self, job: JobId, dep: JobId) {
        if let Some(spec) = self.jobs.get_mut(job.0) {
            spec.deps.push(dep);
        }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the batch holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The jobs, indexed by [`JobId`].
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Validate edges and return a deterministic topological order:
    /// Kahn's algorithm with a min-id frontier, so the order is a pure
    /// function of the batch (the serial oracle's execution order). A
    /// dangling or cyclic edge set is rejected with a structured
    /// [`BatchError`] instead of hanging the scheduler.
    pub fn topo_order(&self) -> Result<Vec<JobId>, BatchError> {
        let n = self.jobs.len();
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (j, spec) in self.jobs.iter().enumerate() {
            for dep in &spec.deps {
                if dep.0 >= n {
                    return Err(BatchError::UnknownDependency {
                        job: JobId(j),
                        dep: *dep,
                    });
                }
                indegree[j] += 1;
                dependents[dep.0].push(j);
            }
        }
        // Min-heap on job id keeps the frontier order deterministic.
        let mut frontier: BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
            .filter(|&j| indegree[j] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(j)) = frontier.pop() {
            order.push(JobId(j));
            for &d in &dependents[j] {
                indegree[d] -= 1;
                if indegree[d] == 0 {
                    frontier.push(std::cmp::Reverse(d));
                }
            }
        }
        if order.len() == n {
            return Ok(order);
        }
        // Jobs remain with indegree > 0: walk unresolved dependencies
        // from the smallest stuck job until one repeats — that suffix is
        // a witness cycle.
        let stuck: Vec<bool> = indegree.iter().map(|&d| d > 0).collect();
        let start = stuck.iter().position(|&s| s).unwrap_or_default();
        let mut path = vec![start];
        let mut seen = vec![usize::MAX; n];
        seen[start] = 0;
        loop {
            let cur = *path.last().unwrap_or(&start);
            // Follow the smallest still-stuck dependency (deterministic).
            let next = self.jobs[cur]
                .deps
                .iter()
                .map(|d| d.0)
                .filter(|&d| stuck[d])
                .min()
                .unwrap_or(cur);
            if seen[next] != usize::MAX {
                let cycle = path[seen[next]..].iter().map(|&j| JobId(j)).collect();
                return Err(BatchError::DependencyCycle { cycle });
            }
            seen[next] = path.len();
            path.push(next);
        }
    }

    /// The serial oracle: execute the batch on the calling thread in
    /// [`Batch::topo_order`], one job at a time, reusing one warm
    /// [`ArenaPool`] exactly like a fleet worker does. Returns one
    /// [`JobOutcome`] per job, ordered by [`JobId`]. This is the
    /// reference the fleet must match byte for byte.
    pub fn run_serial(&self) -> Result<Vec<JobOutcome>, BatchError> {
        let order = self.topo_order()?;
        let mut arenas = ArenaPool::new();
        let mut statuses: Vec<Option<JobStatus>> = vec![None; self.jobs.len()];
        let mut outcomes: Vec<Option<JobOutcome>> = vec![None; self.jobs.len()];
        for id in order {
            let spec = &self.jobs[id.0];
            let outcome = match resolve_deps(spec, &statuses) {
                DepResolution::Ready(deps) => execute_job(id, spec, &deps, None, &mut arenas, None),
                DepResolution::Skip(dep) => JobOutcome {
                    job: id,
                    tenant: spec.tenant,
                    label: spec.label.clone(),
                    status: JobStatus::Skipped { dep },
                    stats: RunStats::default(),
                    wall: Duration::ZERO,
                    worker: None,
                },
            };
            statuses[id.0] = Some(outcome.status.clone());
            outcomes[id.0] = Some(outcome);
        }
        Ok(outcomes.into_iter().flatten().collect())
    }
}

/// Whether a job whose dependencies have all resolved may run.
pub(crate) enum DepResolution {
    /// All dependencies succeeded; their output bytes, in declaration
    /// order.
    Ready(Vec<Arc<Vec<u8>>>),
    /// At least one dependency did not succeed; the smallest such id.
    Skip(JobId),
}

/// Resolve a job's dependencies against the terminal statuses recorded so
/// far. Callers guarantee every dependency *has* a status (the scheduler
/// only releases a job once all its deps resolved). The skip witness is
/// the smallest unsuccessful dep id, which makes the decision independent
/// of completion order.
pub(crate) fn resolve_deps(spec: &JobSpec, statuses: &[Option<JobStatus>]) -> DepResolution {
    let mut blocked: Option<JobId> = None;
    let mut outputs = Vec::with_capacity(spec.deps.len());
    for dep in &spec.deps {
        match statuses.get(dep.0).and_then(|s| s.as_ref()) {
            Some(JobStatus::Done(bytes)) => outputs.push(Arc::clone(bytes)),
            _ => blocked = Some(blocked.map_or(*dep, |b| b.min(*dep))),
        }
    }
    match blocked {
        Some(dep) => DepResolution::Skip(dep),
        None => DepResolution::Ready(outputs),
    }
}

/// Run one job to a terminal outcome: clone the job's engine (attaching
/// the batch's cancel flag, if any), check a warm arena out of the
/// worker's pool, drive the job function under `catch_unwind`, and check
/// the arena back in — even when the job fails, so a poisoned job cannot
/// leak its delivery buffers.
pub(crate) fn execute_job(
    id: JobId,
    spec: &JobSpec,
    deps: &[Arc<Vec<u8>>],
    cancel: Option<Arc<std::sync::atomic::AtomicBool>>,
    arenas: &mut ArenaPool,
    worker: Option<usize>,
) -> JobOutcome {
    let start = Instant::now();
    let n = spec.engine.n();
    let engine = match cancel {
        Some(flag) => spec.engine.clone().with_cancel(flag),
        None => spec.engine.clone(),
    };
    let mut session = cliquesim::Session::with_arena(engine, arenas.checkout(n));
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        (spec.run)(&mut session, deps)
    }));
    let stats = session.stats();
    arenas.checkin(n, session.into_arena());
    let status = match caught {
        Ok(Ok(bytes)) => JobStatus::Done(Arc::new(bytes)),
        Ok(Err(e)) => match is_cancelled(&e) {
            true => JobStatus::Cancelled,
            false => JobStatus::Failed(JobFailure::Failed(e)),
        },
        Err(payload) => JobStatus::Failed(JobFailure::Panicked(panic_message(payload))),
    };
    JobOutcome {
        job: id,
        tenant: spec.tenant,
        label: spec.label.clone(),
        status,
        stats,
        wall: start.elapsed(),
        worker,
    }
}

/// Jobs surface engine errors as strings (see [`crate::job::JobFn`]); a
/// cooperative cancellation is recognised by the `SimError::Cancelled`
/// display prefix so the outcome reads `Cancelled`, not `Failed`.
fn is_cancelled(err: &str) -> bool {
    err.starts_with("run cancelled cooperatively")
}

/// Extract a printable message from a panic payload (same policy as the
/// engine's `NodeProgramPanicked`).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::TenantId;
    use cliquesim::Engine;

    fn noop_job(tenant: u32, label: &str) -> JobSpec {
        JobSpec::new(
            TenantId(tenant),
            label,
            Engine::new(2),
            Arc::new(|_s, _d| Ok(vec![0])),
        )
    }

    #[test]
    fn topo_order_is_deterministic_and_dependency_respecting() {
        let mut b = Batch::new();
        let a = b.push(noop_job(0, "a"));
        let c = b.push(noop_job(0, "c"));
        let d = b.push(noop_job(1, "d").after(c).after(a));
        let order = b.topo_order().unwrap();
        assert_eq!(order, vec![a, c, d]);
    }

    #[test]
    fn unknown_dependency_is_a_structured_error() {
        let mut b = Batch::new();
        let a = b.push(noop_job(0, "a"));
        b.add_dependency(a, JobId(7));
        assert_eq!(
            b.topo_order().unwrap_err(),
            BatchError::UnknownDependency {
                job: a,
                dep: JobId(7)
            }
        );
    }

    #[test]
    fn cycle_is_rejected_with_a_witness_not_a_hang() {
        let mut b = Batch::new();
        let a = b.push(noop_job(0, "a"));
        let c = b.push(noop_job(0, "c"));
        let d = b.push(noop_job(0, "d"));
        b.add_dependency(a, c);
        b.add_dependency(c, d);
        b.add_dependency(d, a);
        let err = b.topo_order().unwrap_err();
        match err {
            BatchError::DependencyCycle { cycle } => {
                assert_eq!(cycle.len(), 3, "witness visits each cycle job once");
                // Each listed job depends on the next (cyclically).
                for (i, id) in cycle.iter().enumerate() {
                    let next = cycle[(i + 1) % cycle.len()];
                    assert!(
                        b.jobs()[id.0].deps.contains(&next),
                        "{id} should depend on {next}"
                    );
                }
            }
            other => panic!("expected a cycle, got {other:?}"),
        }
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut b = Batch::new();
        let a = b.push(noop_job(0, "a"));
        b.add_dependency(a, a);
        assert_eq!(
            b.topo_order().unwrap_err(),
            BatchError::DependencyCycle { cycle: vec![a] }
        );
    }

    #[test]
    fn serial_oracle_runs_jobs_and_skips_dependents_of_failures() {
        let mut b = Batch::new();
        let ok = b.push(JobSpec::new(
            TenantId(0),
            "ok",
            Engine::new(2),
            Arc::new(|_s, _d| Ok(vec![42])),
        ));
        let bad = b.push(JobSpec::new(
            TenantId(0),
            "bad",
            Engine::new(2),
            Arc::new(|_s, _d| Err("boom".to_string())),
        ));
        let child = b.push(
            JobSpec::new(
                TenantId(1),
                "child",
                Engine::new(2),
                Arc::new(|_s, deps: &crate::job::DepOutputs| Ok(deps[0].to_vec())),
            )
            .after(ok)
            .after(bad),
        );
        let outcomes = b.run_serial().unwrap();
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[ok.0].status, JobStatus::Done(Arc::new(vec![42])));
        assert_eq!(
            outcomes[bad.0].status,
            JobStatus::Failed(JobFailure::Failed("boom".into()))
        );
        assert_eq!(outcomes[child.0].status, JobStatus::Skipped { dep: bad });
    }

    #[test]
    fn dep_outputs_arrive_in_declaration_order() {
        let mut b = Batch::new();
        let one = b.push(JobSpec::new(
            TenantId(0),
            "one",
            Engine::new(2),
            Arc::new(|_s, _d| Ok(vec![1])),
        ));
        let two = b.push(JobSpec::new(
            TenantId(0),
            "two",
            Engine::new(2),
            Arc::new(|_s, _d| Ok(vec![2])),
        ));
        // Declared two-then-one: outputs must arrive in that order, not
        // id order.
        let cat = b.push(
            JobSpec::new(
                TenantId(0),
                "cat",
                Engine::new(2),
                Arc::new(|_s, deps: &crate::job::DepOutputs| {
                    Ok(deps.iter().flat_map(|d| d.iter().copied()).collect())
                }),
            )
            .after(two)
            .after(one),
        );
        let outcomes = b.run_serial().unwrap();
        assert_eq!(
            outcomes[cat.0].status,
            JobStatus::Done(Arc::new(vec![2, 1]))
        );
    }
}

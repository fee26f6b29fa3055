//! The job model: what one unit of fleet work looks like.
//!
//! A [`JobSpec`] pairs an [`Engine`] (clique size, model restrictions,
//! adversary plans) with a *job function* — a deterministic closure that
//! drives a [`cliquesim::Session`] built on that engine and returns its
//! result as bytes. Bytes are the service's output currency on purpose:
//! the serial oracle and the fleet compare outcomes for **byte
//! identity**, so a job's result must not depend on which worker ran it,
//! when, or what else was in flight.
//!
//! # Determinism contract
//!
//! The job function must be a pure function of the spec and its
//! dependency outputs: same `(Engine, dep bytes)` → same output bytes
//! or same error string. Everything the engine does is already
//! deterministic (a run steps every node on the worker thread that runs
//! the job, and replays bit for bit); a job that reaches outside (time,
//! ambient randomness,
//! global state) forfeits the differential guarantee — exactly like the
//! "factory must produce identical programs" rule in `cc-testkit`.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use cliquesim::{Engine, RunStats, Session};

/// Index of a job within its [`crate::Batch`], assigned by
/// [`crate::Batch::push`] in submission order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub usize);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Owner of a job, for fairness accounting. Tenants are just numbers; the
/// scheduler round-robins ready jobs across them so one tenant's burst
/// cannot starve another's queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// The engine a job's session is built on: the same type as
/// [`Engine`]. The name is kept because the benchmark's atlas workload
/// (`ccbench/atlas.rs`) spells it.
pub type EngineSpec = Engine;

/// Output bytes of completed dependencies, in the order the job declared
/// them. Shared, not copied: wide fan-outs read one allocation.
pub type DepOutputs = [Arc<Vec<u8>>];

/// The job function: drive the session, return result bytes (or a
/// deterministic error string). See the module docs for the determinism
/// contract.
pub type JobFn = Arc<dyn Fn(&mut Session, &DepOutputs) -> Result<Vec<u8>, String> + Send + Sync>;

/// One schedulable unit: a tenant-owned, seed-addressed simulation run.
#[derive(Clone)]
pub struct JobSpec {
    /// Owning tenant (fairness bucket).
    pub tenant: TenantId,
    /// Replayable repro label, e.g. `er-medium[n=16, seed=3]+fault7` — the
    /// same labelling discipline as `cc-testkit` instance labels.
    pub label: String,
    /// The engine the job's session runs on. Its plans sit behind `Arc`s,
    /// so cloning a job shares them; the service attaches the batch's
    /// cancellation flag when the job starts.
    pub engine: Engine,
    /// Jobs that must complete *successfully* before this one runs. Their
    /// output bytes are handed to the job function in this order.
    pub deps: Vec<JobId>,
    /// The work itself.
    pub run: JobFn,
}

impl fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobSpec")
            .field("tenant", &self.tenant)
            .field("label", &self.label)
            .field("engine", &self.engine)
            .field("deps", &self.deps)
            .finish_non_exhaustive()
    }
}

impl JobSpec {
    /// A dependency-free job.
    pub fn new(tenant: TenantId, label: impl Into<String>, engine: Engine, run: JobFn) -> Self {
        Self {
            tenant,
            label: label.into(),
            engine,
            deps: Vec::new(),
            run,
        }
    }

    /// Declare a dependency (may reference any job id of the batch; edges
    /// are validated as a DAG at submission).
    pub fn after(mut self, dep: JobId) -> Self {
        self.deps.push(dep);
        self
    }
}

/// Why a job did not produce output bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobFailure {
    /// The job function returned an error (deterministic: part of the
    /// byte-identity comparison).
    Failed(String),
    /// The job function panicked; the worker caught it and stayed usable
    /// (the PR 3 `catch_unwind` shape, one layer up).
    Panicked(String),
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobFailure::Failed(e) => write!(f, "failed: {e}"),
            JobFailure::Panicked(m) => write!(f, "panicked: {m}"),
        }
    }
}

/// Terminal state of one job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// The job function returned bytes.
    Done(Arc<Vec<u8>>),
    /// The job function failed or panicked.
    Failed(JobFailure),
    /// A dependency did not complete successfully; the job never ran.
    /// `dep` is the *smallest* unsuccessful dependency id — smallest, not
    /// first-observed, so the status is deterministic under any
    /// completion order the fleet produces.
    Skipped {
        /// Smallest dependency that failed, was skipped, or was cancelled.
        dep: JobId,
    },
    /// The batch was cancelled before (or while) the job ran.
    Cancelled,
}

impl JobStatus {
    /// Whether dependents of this job may run.
    pub fn is_success(&self) -> bool {
        matches!(self, JobStatus::Done(_))
    }
}

/// One streamed result. Equality deliberately ignores [`JobOutcome::wall`]
/// and [`JobOutcome::worker`] — wall-clock and placement are
/// nondeterministic, while everything else is part of the fleet-vs-serial
/// byte-identity contract (the same convention as [`RunStats`]'s
/// timing-blind equality).
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Which job this is.
    pub job: JobId,
    /// Owning tenant.
    pub tenant: TenantId,
    /// The job's repro label.
    pub label: String,
    /// Terminal state (output bytes live in [`JobStatus::Done`]).
    pub status: JobStatus,
    /// Accumulated session statistics of the job's runs (zeroed for jobs
    /// that never ran). Timing fields are populated but excluded from
    /// equality, per [`RunStats`]'s own contract.
    pub stats: RunStats,
    /// Wall-clock the job spent executing (zero for skipped/cancelled
    /// jobs). Excluded from equality.
    pub wall: Duration,
    /// Index of the worker that ran it (`None` for the serial oracle and
    /// for jobs that never ran). Excluded from equality.
    pub worker: Option<usize>,
}

impl PartialEq for JobOutcome {
    fn eq(&self, other: &Self) -> bool {
        // `wall` and `worker` intentionally omitted: see type docs.
        self.job == other.job
            && self.tenant == other.tenant
            && self.label == other.label
            && self.status == other.status
            && self.stats == other.stats
    }
}

impl Eq for JobOutcome {}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> JobOutcome {
        JobOutcome {
            job: JobId(3),
            tenant: TenantId(1),
            label: "x".into(),
            status: JobStatus::Done(Arc::new(vec![1, 2, 3])),
            stats: RunStats::default(),
            wall: Duration::from_millis(5),
            worker: Some(2),
        }
    }

    #[test]
    fn outcome_equality_ignores_wall_and_worker() {
        let a = outcome();
        let mut b = outcome();
        b.wall = Duration::from_secs(9);
        b.worker = None;
        assert_eq!(a, b, "placement and wall-clock are not model state");
        let mut c = outcome();
        c.status = JobStatus::Done(Arc::new(vec![1, 2, 4]));
        assert_ne!(a, c, "output bytes are model state");
    }
}

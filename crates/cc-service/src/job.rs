//! The job model: what one unit of fleet work looks like.
//!
//! A [`JobSpec`] pairs an [`EngineSpec`] (pure data: clique size, model
//! restrictions, adversary plans) with a *job function* — a
//! deterministic closure that drives a [`cliquesim::Session`] built from
//! that spec and returns its result as bytes. Bytes are the service's
//! output currency on purpose: the serial oracle and the fleet compare
//! outcomes for **byte identity**, so a job's result must not depend on
//! which worker ran it, when, or what else was in flight.
//!
//! # Determinism contract
//!
//! The job function must be a pure function of the spec and its
//! dependency outputs: same `(EngineSpec, dep bytes)` → same output bytes
//! or same error string. Everything the engine does is already
//! deterministic (a run steps every node on the worker thread that runs
//! the job, and replays bit for bit); a job that reaches outside (time,
//! ambient randomness,
//! global state) forfeits the differential guarantee — exactly like the
//! "factory must produce identical programs" rule in `cc-testkit`.

use std::fmt;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use cliquesim::{AuthKeyring, ByzantinePlan, Engine, FaultPlan, RunStats, Session};

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

/// Pure-data engine configuration for one job — the request-format half
/// of a job. Everything here is `Clone + Send`, so a spec can be shipped
/// to any worker and materialised there with [`EngineSpec::build`].
#[derive(Clone, Debug)]
pub struct EngineSpec {
    /// Number of nodes in the clique.
    pub n: usize,
    /// Restrict to the broadcast congested clique (paper §2).
    pub broadcast_only: bool,
    /// Per-message bandwidth override in bits (`None` = `⌈log₂ n⌉`).
    pub bandwidth: Option<usize>,
    /// Round cap (`None` = engine default).
    pub max_rounds: Option<usize>,
    /// Wall-clock watchdog for the job's runs.
    pub deadline: Option<Duration>,
    /// Link-fault / crash / churn adversary for the job.
    pub fault: Option<FaultPlan>,
    /// Fault-clock offset: the plan (crash, rejoin, and link-fault
    /// schedules alike) is addressed at `offset + local round`, so one
    /// absolute churn timeline can be split across wave-structured jobs
    /// (see `Engine::with_fault_offset`).
    pub fault_offset: usize,
    /// Byzantine sender adversary for the job.
    pub byzantine: Option<ByzantinePlan>,
    /// Seed for a signed-message keyring (`AuthKeyring::from_seed(n,
    /// seed)` attached via `Engine::with_auth`); `None` = unauthenticated.
    pub auth_seed: Option<u64>,
}

impl EngineSpec {
    /// A plain clique spec: no restriction, no adversary.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            broadcast_only: false,
            bandwidth: None,
            max_rounds: None,
            deadline: None,
            fault: None,
            fault_offset: 0,
            byzantine: None,
            auth_seed: None,
        }
    }

    /// Restrict to the broadcast-only model.
    pub fn broadcast_only(mut self, on: bool) -> Self {
        self.broadcast_only = on;
        self
    }

    /// Override the per-message bit budget.
    pub fn bandwidth(mut self, bits: usize) -> Self {
        self.bandwidth = Some(bits);
        self
    }

    /// Attach a fault plan.
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Address the fault plan at `offset + local round` (churn waves).
    pub fn fault_offset(mut self, offset: usize) -> Self {
        self.fault_offset = offset;
        self
    }

    /// Attach a Byzantine plan.
    pub fn byzantine(mut self, plan: ByzantinePlan) -> Self {
        self.byzantine = Some(plan);
        self
    }

    /// Attach a seeded signed-message keyring (authenticated tier).
    pub fn auth(mut self, seed: u64) -> Self {
        self.auth_seed = Some(seed);
        self
    }

    /// Materialise the engine, wiring in the service's cancellation flag
    /// so an in-flight job aborts at its next round boundary when the
    /// batch is cancelled.
    pub fn build(&self, cancel: Option<Arc<AtomicBool>>) -> Engine {
        let mut engine = Engine::new(self.n).broadcast_only(self.broadcast_only);
        if let Some(bits) = self.bandwidth {
            engine = engine.with_bandwidth(bits);
        }
        if let Some(limit) = self.max_rounds {
            engine = engine.with_max_rounds(limit);
        }
        if let Some(limit) = self.deadline {
            engine = engine.with_deadline(limit);
        }
        if let Some(plan) = &self.fault {
            engine = engine.with_fault_plan(plan.clone());
        }
        if self.fault_offset != 0 {
            engine = engine.with_fault_offset(self.fault_offset);
        }
        if let Some(plan) = &self.byzantine {
            engine = engine.with_byzantine_plan(plan.clone());
        }
        if let Some(seed) = self.auth_seed {
            engine = engine.with_auth(AuthKeyring::from_seed(self.n, seed));
        }
        if let Some(flag) = cancel {
            engine = engine.with_cancel(flag);
        }
        engine
    }
}

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
    /// Replayable repro label, e.g. `er-medium[n=16, seed=3]@t4` — the
    /// same labelling discipline as `cc-testkit` instance labels.
    pub label: String,
    /// Engine configuration.
    pub engine: EngineSpec,
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
    pub fn new(tenant: TenantId, label: impl Into<String>, engine: EngineSpec, run: JobFn) -> Self {
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

    #[test]
    fn engine_spec_builds_the_configured_engine() {
        let spec = EngineSpec::new(9).broadcast_only(true).fault_offset(5);
        let engine = spec.build(None);
        assert_eq!(engine.n(), 9);
        assert_eq!(engine.fault_offset(), 5);
    }
}

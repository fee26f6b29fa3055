//! The scheduler state machine: which job runs next.
//!
//! All scheduling state lives behind one mutex ([`SchedState`]); workers
//! take the lock only to *pick* and to *record*, never while a simulation
//! runs. Jobs are whole simulations (milliseconds to seconds), so a single
//! lock is nowhere near contention.
//!
//! There is one ready queue, bucketed per tenant: a batch's root jobs and
//! every dependent a completed job releases join their own tenant's FIFO,
//! and a rotating cursor serves tenants in [`TenantId`] order, so one
//! tenant's 500-job burst cannot starve another tenant's two jobs (the
//! stress suite pins a bound on this). Any idle worker takes the next
//! job; none is tied to a worker.
//!
//! Determinism note: pick order decides *placement and timing* only. Job
//! outcomes are byte-identical regardless (the `service_suite`
//! differential), so the policy here is free to chase fairness without
//! touching the model's determinism contract.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::SyncSender;
use std::sync::Arc;

use crate::job::{JobId, JobOutcome, JobSpec, JobStatus, TenantId};

/// Identifies a submitted batch within its service.
pub(crate) type BatchId = u64;

/// A job address: which batch, which job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct GlobalJob {
    pub batch: BatchId,
    pub job: JobId,
}

/// Per-batch bookkeeping while the batch is in flight.
pub(crate) struct BatchState {
    pub jobs: Vec<JobSpec>,
    /// Terminal status per job, `None` while pending/running.
    pub statuses: Vec<Option<JobStatus>>,
    /// Unresolved dependency count per job.
    pub indegree: Vec<usize>,
    /// Reverse edges: `dependents[j]` wait on `j`.
    pub dependents: Vec<Vec<usize>>,
    /// Streaming side of the handle's bounded outcome channel.
    pub tx: SyncSender<JobOutcome>,
    /// Cooperative cancellation flag, shared with the handle and with
    /// every engine built for this batch.
    pub cancel: Arc<AtomicBool>,
    /// Jobs without a recorded terminal status.
    pub remaining: usize,
}

/// What a worker should do with a picked job, decided under the lock.
pub(crate) struct Dispatch {
    pub gj: GlobalJob,
    pub spec: JobSpec,
    pub cancel: Arc<AtomicBool>,
    /// Outputs of all deps if every one succeeded, else the smallest
    /// unsuccessful dep (→ `Skipped`).
    pub deps: Result<Vec<Arc<Vec<u8>>>, JobId>,
}

/// Everything workers share, guarded by one mutex in the service.
#[derive(Default)]
pub(crate) struct SchedState {
    pub batches: HashMap<BatchId, BatchState>,
    pub next_batch: BatchId,
    /// Ready jobs, bucketed per tenant. Emptied entries are removed, so
    /// the map only holds tenants with waiting work.
    pub ready: BTreeMap<TenantId, VecDeque<GlobalJob>>,
    /// Last tenant served.
    pub cursor: Option<TenantId>,
    /// Jobs registered but without a terminal status yet, across batches.
    pub live_jobs: usize,
    /// Set by the service's `Drop`; workers exit once no work remains.
    pub shutdown: bool,
}

impl SchedState {
    /// Register a validated batch: build the dependency bookkeeping and
    /// enqueue its root jobs. Returns the batch id.
    pub fn register(
        &mut self,
        jobs: Vec<JobSpec>,
        tx: SyncSender<JobOutcome>,
        cancel: Arc<AtomicBool>,
    ) -> BatchId {
        let id = self.next_batch;
        self.next_batch += 1;
        let n = jobs.len();
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (j, spec) in jobs.iter().enumerate() {
            indegree[j] = spec.deps.len();
            for dep in &spec.deps {
                dependents[dep.0].push(j);
            }
        }
        for (j, spec) in jobs.iter().enumerate() {
            if indegree[j] == 0 {
                self.ready
                    .entry(spec.tenant)
                    .or_default()
                    .push_back(GlobalJob {
                        batch: id,
                        job: JobId(j),
                    });
            }
        }
        self.live_jobs += n;
        self.batches.insert(
            id,
            BatchState {
                jobs,
                statuses: vec![None; n],
                indegree,
                dependents,
                tx,
                cancel,
                remaining: n,
            },
        );
        id
    }

    /// Pick the next job: round-robin over tenants with waiting jobs, the
    /// first tenant strictly after the cursor (wrapping), so interleaved
    /// submissions share the pool no matter how lopsided the per-tenant
    /// queue depths are. Returns a full [`Dispatch`] so the caller can
    /// drop the lock before running anything.
    pub fn pick(&mut self) -> Option<Dispatch> {
        let tenant = match self.cursor {
            Some(c) => self
                .ready
                .range((std::ops::Bound::Excluded(c), std::ops::Bound::Unbounded))
                .map(|(t, _)| *t)
                .next()
                .or_else(|| self.ready.keys().next().copied()),
            None => self.ready.keys().next().copied(),
        }?;
        let queue = self.ready.get_mut(&tenant)?;
        let gj = queue.pop_front()?;
        if queue.is_empty() {
            self.ready.remove(&tenant);
        }
        self.cursor = Some(tenant);
        let batch = self
            .batches
            .get(&gj.batch)
            .expect("picked job's batch is in flight");
        let spec = batch.jobs[gj.job.0].clone();
        let deps = match crate::batch::resolve_deps(&spec, &batch.statuses) {
            crate::batch::DepResolution::Ready(outputs) => Ok(outputs),
            crate::batch::DepResolution::Skip(dep) => Err(dep),
        };
        Some(Dispatch {
            gj,
            cancel: Arc::clone(&batch.cancel),
            spec,
            deps,
        })
    }

    /// Record a terminal status for `gj` and release newly-ready
    /// dependents into their tenants' queues. Returns the sender to stream
    /// the outcome on (outside the lock) — and drops the batch's own
    /// sender if this was its last job, closing the handle's channel once
    /// the in-flight send completes.
    pub fn complete(&mut self, gj: GlobalJob, status: JobStatus) -> SyncSender<JobOutcome> {
        let batch = self
            .batches
            .get_mut(&gj.batch)
            .expect("completed job's batch is in flight");
        debug_assert!(batch.statuses[gj.job.0].is_none(), "one outcome per job");
        batch.statuses[gj.job.0] = Some(status);
        batch.remaining -= 1;
        self.live_jobs -= 1;
        for &d in &batch.dependents[gj.job.0] {
            batch.indegree[d] -= 1;
            if batch.indegree[d] == 0 {
                self.ready
                    .entry(batch.jobs[d].tenant)
                    .or_default()
                    .push_back(GlobalJob {
                        batch: gj.batch,
                        job: JobId(d),
                    });
            }
        }
        let tx = batch.tx.clone();
        if batch.remaining == 0 {
            self.batches.remove(&gj.batch);
        }
        tx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobFailure;
    use cliquesim::Engine;
    use std::sync::mpsc::sync_channel;

    fn job(tenant: u32, deps: &[usize]) -> JobSpec {
        let mut spec = JobSpec::new(
            TenantId(tenant),
            format!("t{tenant}"),
            Engine::new(2),
            Arc::new(|_s, _d| Ok(Vec::new())),
        );
        spec.deps = deps.iter().map(|&d| JobId(d)).collect();
        spec
    }

    fn state_with(jobs: Vec<JobSpec>) -> (SchedState, std::sync::mpsc::Receiver<JobOutcome>) {
        let mut st = SchedState::default();
        let (tx, rx) = sync_channel(64);
        st.register(jobs, tx, Arc::new(AtomicBool::new(false)));
        (st, rx)
    }

    #[test]
    fn global_picks_round_robin_across_tenants() {
        // Tenant 0 floods five jobs; tenant 1 and 2 have one each. The
        // rotation serves 0,1,2,0,0,… — the minority tenants wait behind
        // at most one majority job each.
        let mut jobs: Vec<JobSpec> = (0..5).map(|_| job(0, &[])).collect();
        jobs.push(job(1, &[]));
        jobs.push(job(2, &[]));
        let (mut st, _rx) = state_with(jobs);
        let tenants: Vec<u32> = std::iter::from_fn(|| st.pick())
            .map(|d| d.spec.tenant.0)
            .collect();
        assert_eq!(tenants, vec![0, 1, 2, 0, 0, 0, 0]);
    }

    #[test]
    fn released_dependents_join_their_own_tenants_queue() {
        // job0 (tenant 0) releases job1 (tenant 1) while tenant 0's job2
        // waits. job1 joins tenant 1's queue, so the rotation serves it
        // next, then comes back to tenant 0.
        let (mut st, _rx) = state_with(vec![job(0, &[]), job(1, &[0]), job(0, &[])]);
        let d0 = st.pick().expect("job0 is ready");
        assert_eq!(d0.gj.job, JobId(0));
        st.complete(d0.gj, JobStatus::Done(Arc::new(Vec::new())));
        let d1 = st.pick().expect("job1 was released");
        assert_eq!(d1.gj.job, JobId(1));
        assert!(d1.deps.is_ok());
        let d2 = st.pick().expect("job2 still waits");
        assert_eq!(d2.gj.job, JobId(2));
        assert!(st.pick().is_none());
    }

    #[test]
    fn failed_dependency_resolves_dependents_to_the_smallest_witness() {
        // job2 depends on job0 (fails) and job1 (succeeds): the dispatch
        // carries Err(job0) however completions interleave.
        let (mut st, _rx) = state_with(vec![job(0, &[]), job(0, &[]), job(0, &[0, 1])]);
        let d0 = st.pick().expect("job0");
        let d1 = st.pick().expect("job1");
        st.complete(d1.gj, JobStatus::Done(Arc::new(Vec::new())));
        st.complete(d0.gj, JobStatus::Failed(JobFailure::Failed("x".into())));
        let d2 = st.pick().expect("job2 ready");
        assert_eq!(d2.deps, Err(JobId(0)));
    }
}

//! The multi-tenant session service: a fixed-width worker pool executing
//! submitted [`Batch`]es and streaming [`JobOutcome`]s back over bounded
//! channels.
//!
//! Lifecycle of one batch:
//!
//! 1. [`Service::submit`] validates the dependency edges (structured
//!    [`BatchError`] on a dangling edge or a cycle — a cyclic batch is
//!    rejected, never parked), registers the jobs with the scheduler, and
//!    returns a [`BatchHandle`].
//! 2. Workers pick jobs (see [`crate::scheduler`] for the policy), run
//!    each simulation with a warm per-worker arena, and stream one
//!    [`JobOutcome`] per job — including skipped and cancelled jobs — over
//!    the handle's channel.
//! 3. The channel is a `sync_channel` with a bounded window: when the
//!    consumer lags `2 × width` outcomes behind, the producing worker blocks
//!    on the send, so an unread batch cannot pile unbounded results into
//!    memory. Other workers keep running.
//!
//! Failure containment mirrors the engine's own (PR 3): a panicking job
//! function is caught on the worker, fails only itself (and skips its
//! dependents); the worker and the pool stay usable.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cliquesim::RunStats;

use crate::batch::{execute_job, Batch, BatchError};
use crate::job::{JobOutcome, JobStatus};
use crate::scheduler::{Dispatch, SchedState};
use crate::worker::ArenaPool;

/// Shared core: the scheduler state, the wakeup signal, and each worker's
/// arena pool (its own mutex, held only while that worker runs a job —
/// so [`Service::arena_footprint`] can probe pools without stopping the
/// scheduler).
struct Inner {
    state: Mutex<SchedState>,
    work: Condvar,
    pools: Vec<Mutex<ArenaPool>>,
}

/// A fixed-width, multi-tenant batch execution service.
///
/// Dropping the service is a graceful shutdown: workers finish every job
/// of every in-flight batch, then exit. Handles stay readable after the
/// service is gone — outcomes already streamed sit in their channels.
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Spawn a service with `width` workers (clamped to at least 1). Each
    /// batch's outcome window — the number of unconsumed outcomes before
    /// producers block — is `2 × width`.
    pub fn new(width: usize) -> Self {
        let width = width.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(SchedState::default()),
            work: Condvar::new(),
            pools: (0..width).map(|_| Mutex::new(ArenaPool::new())).collect(),
        });
        let workers = (0..width)
            .map(|idx| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("cc-service-{idx}"))
                    .spawn(move || worker_loop(&inner, idx))
                    .expect("spawn service worker")
            })
            .collect();
        Self { inner, workers }
    }

    /// Number of workers.
    pub fn width(&self) -> usize {
        self.workers.len()
    }

    /// Validate and enqueue a batch. Jobs start as soon as workers free
    /// up; outcomes stream through the returned handle.
    pub fn submit(&self, batch: Batch) -> Result<BatchHandle, BatchError> {
        batch.topo_order()?;
        let total = batch.len();
        let (tx, rx) = sync_channel(2 * self.width());
        let cancel = Arc::new(AtomicBool::new(false));
        {
            let mut st = self.inner.state.lock().expect("scheduler lock");
            st.register(batch.jobs().to_vec(), tx, Arc::clone(&cancel));
        }
        self.inner.work.notify_all();
        Ok(BatchHandle { rx, cancel, total })
    }

    /// Message slots parked in each worker's arena pool. In steady state
    /// this is a function of the distinct job shapes each worker has
    /// seen — never of how many jobs have run (the stress suite's leak
    /// check). Blocks briefly on workers that are mid-job.
    pub fn arena_footprint(&self) -> Vec<usize> {
        self.inner
            .pools
            .iter()
            .map(|p| p.lock().expect("arena pool lock").retained_slots())
            .collect()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().expect("scheduler lock");
            st.shutdown = true;
        }
        self.inner.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Streaming side of one submitted batch.
///
/// Iterate to receive outcomes in completion order (bounded by the
/// service's window), or [`BatchHandle::join`] to collect all of them in
/// [`crate::JobId`] order. Dropping the handle without draining cancels
/// the rest of the batch: once the channel closes, workers flag the batch
/// and resolve its remaining jobs as [`JobStatus::Cancelled`].
pub struct BatchHandle {
    rx: Receiver<JobOutcome>,
    cancel: Arc<AtomicBool>,
    total: usize,
}

impl BatchHandle {
    /// Number of jobs in the batch — exactly this many outcomes will be
    /// streamed (counting skipped and cancelled ones).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Request cooperative cancellation: jobs not yet started resolve as
    /// [`JobStatus::Cancelled`]; in-flight simulations abort at their next
    /// round boundary (`SimError::Cancelled`) and resolve the same way.
    /// Outcomes keep streaming — every job still yields exactly one.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Iterate outcomes in completion order.
    pub fn iter(&self) -> std::sync::mpsc::Iter<'_, JobOutcome> {
        self.rx.iter()
    }

    /// Drain the batch and return all outcomes sorted by job id — the
    /// same order [`Batch::run_serial`] returns, for direct comparison.
    pub fn join(self) -> Vec<JobOutcome> {
        let mut outcomes: Vec<JobOutcome> = self.rx.iter().collect();
        outcomes.sort_by_key(|o| o.job);
        outcomes
    }
}

/// One worker: pick under the lock, simulate outside it, record and
/// stream. Exits when the service shuts down and no live jobs remain.
fn worker_loop(inner: &Inner, idx: usize) {
    loop {
        let dispatch = {
            let mut st = inner.state.lock().expect("scheduler lock");
            loop {
                if let Some(d) = st.pick() {
                    break Some(d);
                }
                if st.shutdown && st.live_jobs == 0 {
                    break None;
                }
                st = inner.work.wait(st).expect("scheduler lock");
            }
        };
        let Some(Dispatch {
            gj,
            spec,
            cancel,
            deps,
        }) = dispatch
        else {
            // Wake siblings so they observe the exit condition too.
            inner.work.notify_all();
            return;
        };
        let outcome = if cancel.load(Ordering::Relaxed) {
            terminal(gj.job, &spec, JobStatus::Cancelled, idx)
        } else {
            match deps {
                Err(dep) => terminal(gj.job, &spec, JobStatus::Skipped { dep }, idx),
                Ok(outputs) => {
                    let mut pool = inner.pools[idx].lock().expect("arena pool lock");
                    execute_job(
                        gj.job,
                        &spec,
                        &outputs,
                        Some(cancel.clone()),
                        &mut pool,
                        Some(idx),
                    )
                }
            }
        };
        let tx: SyncSender<JobOutcome> = {
            let mut st = inner.state.lock().expect("scheduler lock");
            st.complete(gj, outcome.status.clone())
        };
        inner.work.notify_all();
        // Stream outside the lock: a full window blocks only this worker.
        // A dropped handle closes the channel; treat that as cancellation
        // so the rest of the batch drains cheaply.
        if tx.send(outcome).is_err() {
            cancel.store(true, Ordering::Relaxed);
        }
    }
}

/// An outcome for a job that never ran (skipped or cancelled before
/// start): zero stats, zero wall-clock, worker recorded for telemetry.
fn terminal(
    job: crate::job::JobId,
    spec: &crate::job::JobSpec,
    status: JobStatus,
    worker: usize,
) -> JobOutcome {
    JobOutcome {
        job,
        tenant: spec.tenant,
        label: spec.label.clone(),
        status,
        stats: RunStats::default(),
        wall: Duration::ZERO,
        worker: Some(worker),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{DepOutputs, JobFailure, JobSpec, TenantId};
    use cliquesim::{Engine, Inbox, NodeCtx, NodeProgram, Outbox, Status};

    /// n-node program that spins for `rounds` rounds doing nothing — used
    /// to keep a simulation cancellable mid-flight.
    struct Spin {
        rounds: usize,
    }
    impl NodeProgram for Spin {
        type Output = u64;
        fn step(
            &mut self,
            _ctx: &NodeCtx,
            round: usize,
            _inbox: &Inbox<'_>,
            _outbox: &mut Outbox<'_>,
        ) -> Status<u64> {
            if round + 1 >= self.rounds {
                Status::Halt(round as u64)
            } else {
                Status::Continue
            }
        }
    }

    fn spin_job(tenant: u32, label: &str, rounds: usize) -> JobSpec {
        JobSpec::new(
            TenantId(tenant),
            label,
            Engine::new(3),
            Arc::new(move |s: &mut cliquesim::Session, _d: &DepOutputs| {
                let out = s
                    .run((0..3).map(|_| Spin { rounds }).collect())
                    .map_err(|e| e.to_string())?;
                Ok(out.outputs.iter().flat_map(|v| v.to_le_bytes()).collect())
            }),
        )
    }

    #[test]
    fn fleet_matches_the_serial_oracle_on_a_diamond() {
        let mut batch = Batch::new();
        let a = batch.push(spin_job(0, "a", 2));
        let b = batch.push(spin_job(0, "b", 3).after(a));
        let c = batch.push(spin_job(1, "c", 4).after(a));
        let _d = batch.push(spin_job(1, "d", 2).after(b).after(c));
        let serial = batch.run_serial().unwrap();
        for width in [1, 4] {
            let service = Service::new(width);
            let fleet = service.submit(batch.clone()).unwrap().join();
            assert_eq!(fleet, serial, "width {width} diverged from serial");
        }
    }

    #[test]
    fn a_panicking_job_fails_alone_and_the_pool_survives() {
        let mut batch = Batch::new();
        let bomb = batch.push(JobSpec::new(
            TenantId(0),
            "bomb",
            Engine::new(2),
            Arc::new(|_s: &mut cliquesim::Session, _d: &DepOutputs| panic!("kaboom")),
        ));
        let child = batch.push(spin_job(0, "child", 2).after(bomb));
        let bystander = batch.push(spin_job(1, "bystander", 2));
        let service = Service::new(2);
        let outcomes = service.submit(batch).unwrap().join();
        assert_eq!(
            outcomes[bomb.0].status,
            JobStatus::Failed(JobFailure::Panicked("kaboom".into()))
        );
        assert_eq!(outcomes[child.0].status, JobStatus::Skipped { dep: bomb });
        assert!(outcomes[bystander.0].status.is_success());
        // The pool is still usable for a fresh batch.
        let mut again = Batch::new();
        again.push(spin_job(0, "after", 2));
        let outcomes = service.submit(again).unwrap().join();
        assert!(outcomes[0].status.is_success());
    }

    #[test]
    fn cancel_resolves_every_remaining_job() {
        // One long job occupies the single worker; the rest are parked.
        let mut batch = Batch::new();
        for i in 0..6 {
            batch.push(spin_job(i % 2, &format!("spin{i}"), 2_000_000));
        }
        let service = Service::new(1);
        let handle = service.submit(batch).unwrap();
        handle.cancel();
        let outcomes = handle.join();
        assert_eq!(outcomes.len(), 6, "every job yields exactly one outcome");
        assert!(
            outcomes.iter().all(|o| o.status == JobStatus::Cancelled),
            "all cancelled: {outcomes:?}"
        );
    }

    #[test]
    fn a_cyclic_batch_is_rejected_at_submit() {
        let mut batch = Batch::new();
        let a = batch.push(spin_job(0, "a", 2));
        let b = batch.push(spin_job(0, "b", 2).after(a));
        batch.add_dependency(a, b);
        let service = Service::new(2);
        match service.submit(batch) {
            Err(BatchError::DependencyCycle { cycle }) => assert_eq!(cycle.len(), 2),
            other => panic!("expected cycle rejection, got {:?}", other.err()),
        }
    }

    #[test]
    fn window_backpressure_still_drains_completely() {
        let mut batch = Batch::new();
        for i in 0..40 {
            batch.push(spin_job(i % 4, &format!("j{i}"), 2));
        }
        // Width 3 gets a window of 6, below the batch's 40 jobs: the
        // channel cannot hold every outcome, so the batch drains only
        // because the consumer keeps reading.
        let service = Service::new(3);
        let handle = service.submit(batch).unwrap();
        assert_eq!(handle.total(), 40);
        let outcomes = handle.join();
        assert_eq!(outcomes.len(), 40);
        assert!(outcomes.iter().all(|o| o.status.is_success()));
    }
}

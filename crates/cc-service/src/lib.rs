//! `cc-service`: a multi-tenant session service for congested-clique
//! simulation fleets.
//!
//! The engine makes one simulation fast, deterministic, and
//! adversary-aware. This crate makes *many* simulations a first-class
//! workload: a [`Batch`] of seed-addressed jobs — each a plain
//! [`cliquesim::Engine`] (clique size, optional fault/Byzantine plans,
//! keyring) plus a deterministic job function — is resolved into a
//! dependency DAG and executed by a fixed-width pool of workers
//! ([`Service`]) that all draw from one ready queue, with per-tenant
//! round-robin fairness, warm per-worker delivery arenas, cooperative
//! cancellation, and a bounded outcome window streaming [`JobOutcome`]s
//! back as they finish.
//!
//! # The serial oracle
//!
//! Scheduling must not be able to change results. The reference semantics
//! of a batch is [`Batch::run_serial`] — the same jobs on one thread, in
//! the deterministic topological order — and the test suite's central
//! property is that a [`Service`] of *any* width produces outcomes
//! **byte-identical** to that oracle (same output bytes, same error
//! strings, same skip witnesses, same [`cliquesim::RunStats`]).
//!
//! The fleet is the workspace's parallelism layer: a job's runs step on
//! the one worker thread that runs the job, and jobs run side by side, so
//! the engine spends no threads of its own.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use cc_service::{Batch, JobSpec, Service, TenantId};
//! use cliquesim::Engine;
//!
//! let mut batch = Batch::new();
//! let probe = batch.push(JobSpec::new(
//!     TenantId(0),
//!     "probe[n=4]",
//!     Engine::new(4),
//!     Arc::new(|session, _deps| {
//!         // Drive any cliquesim phases here; return bytes.
//!         Ok(session.n().to_le_bytes().to_vec())
//!     }),
//! ));
//! // A dependent job sees the probe's bytes, in declaration order.
//! batch.push(
//!     JobSpec::new(
//!         TenantId(1),
//!         "echo",
//!         Engine::new(4),
//!         Arc::new(|_session, deps| Ok(deps[0].to_vec())),
//!     )
//!     .after(probe),
//! );
//!
//! let service = Service::new(4);
//! let outcomes = service.submit(batch).unwrap().join();
//! assert!(outcomes.iter().all(|o| o.status.is_success()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod job;
mod scheduler;
mod service;
mod worker;

pub use batch::{Batch, BatchError};
pub use job::{
    DepOutputs, EngineSpec, JobFailure, JobFn, JobId, JobOutcome, JobSpec, JobStatus, TenantId,
};
pub use service::{BatchHandle, Service};
pub use worker::ArenaPool;

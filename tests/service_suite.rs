//! Workspace-level session-service conformance: the acceptance criteria
//! for `cc-service`, exercised end to end through the facade crate and
//! the testkit's fleet differentials.
//!
//! * any generated batch — mixed families, workloads, seed-addressed
//!   adversaries, dependency edges — must yield outcomes
//!   **byte-identical** to the serial oracle (`Batch::run_serial`) at
//!   every scheduler width in `{1, 4, 8}`; a mismatch panics with the
//!   job's `family[n=…, seed=…]` label;
//! * a cyclic batch is rejected with a structured
//!   [`BatchError::DependencyCycle`] naming a witness cycle — never
//!   accepted, never hung on;
//! * a panicking job function fails only itself; its dependents are
//!   skipped with a deterministic witness, unrelated jobs complete, the
//!   pool survives for the next batch — and the whole story is *still*
//!   byte-identical to the serial oracle;
//! * under `SERVICE_STRESS=1` (never an ignored test — the gate is the env
//!   var, so CI can flip it per leg): a 520-job, 8-tenant soak checks
//!   the per-tenant starvation bound and that per-worker arena
//!   footprints are a function of job *shapes*, never job *count*.
//!
//! Test names are prefixed `width1_` / `width4_` / `width8_` / `stress_`
//! so the CI `service-conformance` matrix can select one scheduler width
//! per leg with e.g. `cargo test width4_ --test service_suite`.

use std::sync::Arc;

use cc_testkit::fleet::strategies::arb_fleet;
use cc_testkit::fleet::{Adversary, FleetJob, Workload};
use cc_testkit::{assert_fleet_matches_serial, fleet_batch, Family, Instance};
use congested_clique::service::{
    Batch, BatchError, EngineSpec, JobFailure, JobId, JobSpec, JobStatus, Service, TenantId,
};
use proptest::prelude::*;

/// The deterministic conformance fleet: one cell per interesting regime —
/// clean/faulted/Byzantine, plus a dependency diamond whose leaf hashes
/// its parents' bytes.
fn conformance_fleet() -> Vec<FleetJob> {
    let mut jobs = Vec::new();
    for (tenant, (family, n, seed)) in [
        (Family::ErMedium, 8, 3),
        (Family::Star, 6, 0),
        (Family::PlantedClique, 9, 7),
        (Family::TwoCliques, 10, 1),
    ]
    .into_iter()
    .enumerate()
    {
        jobs.push(FleetJob::new(
            tenant as u32,
            Instance::new(family, n, seed),
            Workload::Gossip { rounds: 2 },
        ));
    }
    let mut faulted = FleetJob::new(
        0,
        Instance::new(Family::ErDense, 8, 11),
        Workload::DegreeSum,
    );
    faulted.adversary = Adversary::Faults { seed: 42 };
    jobs.push(faulted);
    let mut byz = FleetJob::new(2, Instance::new(Family::Complete, 7, 5), Workload::MinId);
    byz.adversary = Adversary::Byzantine {
        seed: 9,
        traitors: 2,
    };
    jobs.push(byz);
    // Diamond: both echoes read the first two jobs; the tip reads both
    // echoes, so dependency *values* flow through two scheduler hops.
    let mut left = FleetJob::new(1, Instance::new(Family::Path, 5, 0), Workload::EchoDeps);
    left.deps = vec![0, 1];
    let left_idx = jobs.len();
    jobs.push(left);
    let mut right = FleetJob::new(3, Instance::new(Family::Cycle, 5, 0), Workload::EchoDeps);
    right.deps = vec![0, 4];
    let right_idx = jobs.len();
    jobs.push(right);
    let mut tip = FleetJob::new(0, Instance::new(Family::Empty, 4, 0), Workload::EchoDeps);
    tip.deps = vec![left_idx, right_idx];
    jobs.push(tip);
    jobs
}

#[test]
fn width1_fleet_matches_serial_oracle() {
    let check = assert_fleet_matches_serial(&fleet_batch(&conformance_fleet()), &[1]);
    assert!(check.outcomes.iter().all(|o| o.status.is_success()));
}

#[test]
fn width4_fleet_matches_serial_oracle() {
    assert_fleet_matches_serial(&fleet_batch(&conformance_fleet()), &[4]);
}

#[test]
fn width8_fleet_matches_serial_oracle() {
    assert_fleet_matches_serial(&fleet_batch(&conformance_fleet()), &[8]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The central property: ANY generated batch is byte-identical to its
    /// serial in-order execution, at every width in the acceptance set.
    #[test]
    fn width_any_random_fleets_match_serial(jobs in arb_fleet(8, 4)) {
        assert_fleet_matches_serial(&fleet_batch(&jobs), &[1, 4, 8]);
    }
}

#[test]
fn width_any_cyclic_batches_are_rejected_structurally() {
    // A 3-cycle threaded through add_dependency (push-time `after` edges
    // alone cannot express a cycle, which is exactly why the post-push
    // API exists: to prove submission rejects what construction allows).
    let noop = |tenant: u32, label: &str| {
        JobSpec::new(
            TenantId(tenant),
            label,
            EngineSpec::new(2),
            Arc::new(|_s, _d| Ok(Vec::new())),
        )
    };
    let mut batch = Batch::new();
    let a = batch.push(noop(0, "a"));
    let b = batch.push(noop(0, "b"));
    let c = batch.push(noop(1, "c"));
    batch.add_dependency(a, b);
    batch.add_dependency(b, c);
    batch.add_dependency(c, a);
    let service = Service::new(4);
    match service.submit(batch) {
        Err(BatchError::DependencyCycle { cycle }) => {
            assert_eq!(cycle.len(), 3, "witness names each cycle member once");
        }
        Ok(_) => panic!("cyclic batch accepted"),
        Err(other) => panic!("wrong rejection: {other}"),
    }
    // Dangling edges get their own structured error.
    let mut batch = Batch::new();
    let a = batch.push(noop(0, "a"));
    batch.add_dependency(a, JobId(99));
    match service.submit(batch) {
        Err(BatchError::UnknownDependency { job, dep }) => {
            assert_eq!((job, dep), (a, JobId(99)));
        }
        other => panic!("expected UnknownDependency, got {:?}", other.err()),
    }
}

#[test]
fn width_any_panicking_job_is_contained_and_oracle_identical() {
    // bomb panics; child (depends on bomb) and grandchild (depends on
    // child) are skipped with the *bomb* as witness for child, and the
    // child for grandchild; bystanders complete. The fleet must tell the
    // exact same story as the serial oracle, bytes and all.
    let mut batch = Batch::new();
    let bomb = batch.push(JobSpec::new(
        TenantId(0),
        "bomb",
        EngineSpec::new(3),
        Arc::new(|_s, _d| panic!("deliberate test panic")),
    ));
    let ok = |tenant: u32, label: &str| {
        JobSpec::new(
            TenantId(tenant),
            label,
            EngineSpec::new(3),
            Arc::new(|s: &mut congested_clique::sim::Session, _d: &_| {
                Ok(s.n().to_le_bytes().to_vec())
            }),
        )
    };
    let child = batch.push(ok(0, "child").after(bomb));
    let grandchild = batch.push(ok(1, "grandchild").after(child));
    let bystander = batch.push(ok(1, "bystander"));
    let serial = batch.run_serial().expect("valid DAG");
    assert_eq!(
        serial[bomb.0].status,
        JobStatus::Failed(JobFailure::Panicked("deliberate test panic".into()))
    );
    assert_eq!(serial[child.0].status, JobStatus::Skipped { dep: bomb });
    assert_eq!(
        serial[grandchild.0].status,
        JobStatus::Skipped { dep: child }
    );
    assert!(serial[bystander.0].status.is_success());
    for width in [1, 4, 8] {
        let service = Service::new(width);
        let fleet = service.submit(batch.clone()).expect("valid DAG").join();
        assert_eq!(fleet, serial, "width {width} diverged after a panic");
        // The pool survives: a fresh batch on the same service runs clean.
        let mut again = Batch::new();
        again.push(ok(0, "aftermath"));
        let aftermath = service.submit(again).expect("valid DAG").join();
        assert!(aftermath[0].status.is_success(), "width {width} pool died");
    }
}

/// Stress/soak: enabled by `SERVICE_STRESS=1` (a cheap no-op otherwise,
/// deliberately not an ignored test, so the gate is visible in every run).
fn stress_enabled() -> bool {
    std::env::var("SERVICE_STRESS")
        .map(|v| v == "1")
        .unwrap_or(false)
}

#[test]
fn stress_soak_fairness_and_arena_steady_state() {
    if !stress_enabled() {
        return;
    }
    const TENANTS: u32 = 8;
    const JOBS: usize = 520;
    const WIDTH: usize = 8;
    const N: usize = 4;
    // All jobs share one shape and broadcast only, so the arena
    // invariant is exact: each worker parks either nothing or one pair of
    // n rows holding a broadcast slot each (2·n), no matter how many jobs
    // it ran.
    let tiny = |i: usize| {
        FleetJob::new(
            (i as u32) % TENANTS,
            Instance::new(Family::ErSparse, N, i as u64),
            Workload::Gossip { rounds: 1 },
        )
    };
    let service = Service::new(WIDTH);
    let jobs: Vec<FleetJob> = (0..JOBS).map(tiny).collect();
    let handle = service.submit(fleet_batch(&jobs)).expect("valid batch");
    // Drain in completion order, recording each outcome's tenant.
    let mut completion: Vec<u32> = Vec::with_capacity(JOBS);
    let mut seen = 0usize;
    for outcome in handle.iter() {
        assert!(
            outcome.status.is_success(),
            "{}: stress job failed: {:?}",
            outcome.label,
            outcome.status
        );
        completion.push(outcome.tenant.0);
        seen += 1;
    }
    assert_eq!(seen, JOBS, "every job streams exactly one outcome");

    // Starvation bound: while a tenant still has jobs outstanding, the
    // round-robin cursor must serve it at least once every
    // `TENANTS · (WIDTH + window)` completions (window = 2·WIDTH is the
    // service default); double it for channel-order slack. With fair
    // rotation the observed gap is ≈ TENANTS.
    let bound = (TENANTS as usize) * (WIDTH + 2 * WIDTH) * 2;
    for tenant in 0..TENANTS {
        let positions: Vec<usize> = completion
            .iter()
            .enumerate()
            .filter_map(|(i, &t)| (t == tenant).then_some(i))
            .collect();
        assert!(!positions.is_empty(), "tenant{tenant} starved outright");
        assert!(
            positions[0] < bound,
            "tenant{tenant}: first service at {} ≥ bound {bound}",
            positions[0]
        );
        for gap in positions.windows(2) {
            assert!(
                gap[1] - gap[0] < bound,
                "tenant{tenant}: starved for {} completions (bound {bound})",
                gap[1] - gap[0]
            );
        }
    }

    // Arena steady state: each worker retains at most one pair for the
    // single shape it saw — 520 jobs, zero slot growth beyond it.
    let per_shape = 2 * N;
    let footprints = service.arena_footprint();
    assert_eq!(footprints.len(), WIDTH);
    for (worker, slots) in footprints.iter().enumerate() {
        assert!(
            *slots == 0 || *slots == per_shape,
            "worker {worker} retains {slots} slots; leak past the {per_shape}-slot pair"
        );
    }
    let total_after_first = footprints.iter().sum::<usize>();

    // Soak a second, same-shape wave: the total footprint may only move
    // toward full warm-up (idle workers touching the shape for the first
    // time), never past one pair per worker.
    let jobs: Vec<FleetJob> = (0..JOBS).map(tiny).collect();
    let outcomes = service
        .submit(fleet_batch(&jobs))
        .expect("valid batch")
        .join();
    assert_eq!(outcomes.len(), JOBS);
    let total_after_second = service.arena_footprint().iter().sum::<usize>();
    assert!(
        total_after_second <= WIDTH * per_shape,
        "retained {total_after_second} slots > one pair per worker"
    );
    assert!(
        total_after_second >= total_after_first,
        "warm arenas were dropped between waves"
    );
}

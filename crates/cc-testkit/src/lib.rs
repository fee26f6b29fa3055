//! # cc-testkit — differential & conformance testing backbone
//!
//! The paper's claims (Korhonen & Suomela, SPAA 2018) are *exact*
//! statements: round counts, per-message bandwidth bounds, and output
//! correctness for Theorems 3, 7 and 9–11. This crate turns those into
//! machine-checked conformance obligations shared by every algorithm
//! crate in the workspace:
//!
//! * [`instances`] — deterministic, seed-addressed instance families
//!   (Erdős–Rényi, bounded-degeneracy, planted subgraphs, weighted
//!   metrics, adversarial worst cases) plus shared `proptest` strategies.
//!   Every [`instances::Instance`] prints as `family[n=…, seed=…]`, and
//!   every judge threads that label into its panic message, so a failing
//!   conformance test always names the seed that reproduces it.
//! * [`oracle`] — centralized reference implementations (matmul, APSP,
//!   BFS/SSSP, MST, subgraph counting, covers/dominating sets) that
//!   re-judge protocol outputs independently of the algorithm crates.
//! * [`differential`] — runs one protocol under every engine pool shape
//!   (sequential and pooled) and across communication modes (clique /
//!   broadcast-only / CONGEST ring where defined), asserting identical
//!   outputs, [`cliquesim::RunStats`], and transcripts.
//! * [`audit`] — a transcript replay + bandwidth auditor that re-walks
//!   recorded [`cliquesim::Transcript`]s and rejects any message over the
//!   `⌈log₂ n⌉`-bit budget, any send/receive asymmetry, and any run
//!   exceeding a theorem-declared round bound.
//! * [`faults`] — fault-conformance runners: the same
//!   [`cliquesim::FaultPlan`] replayed under every pool shape must yield
//!   identical outputs, stats, transcripts, and fault reports, and an
//!   empty plan must change nothing at all.
//! * [`churn`] — churn-conformance families for the rejoin/state-sync
//!   tier: seed-addressed [`churn::ChurnCase`]s (Poisson crash/rejoin
//!   schedules) with replayable `churn[n=…, seed=…]` labels, pool-shape
//!   differentials, and a ledger judge that closes the
//!   sync counters against the fault report and the plan's downtime.
//! * [`auth`] — authenticated-tier conformance: seed-addressed
//!   [`auth::AuthCase`]s (`auth[n=…, f=…, seed=…]`) pairing a
//!   [`cliquesim::AuthKeyring`] with an honest-majority `f < n/2` traitor
//!   plan, and [`differential_authenticated`] replaying each pair over
//!   every pool shape with byte-identical results.
//! * [`byzantine`] — the same obligations for the
//!   [`cliquesim::ByzantinePlan`] traitor tier, plus the
//!   [`byzantine::equivocation_witness`] checker that exhibits a single
//!   traitor forging per-link majorities, and `proptest` strategies for
//!   `f < n/3` traitor sets.
//! * [`fleet`] — fleet differentials for `cc-service`: pure-data
//!   [`fleet::FleetJob`] descriptors (instance × workload × engine shape ×
//!   seed-addressed adversary × DAG edges), a serial-oracle comparison
//!   runner ([`assert_fleet_matches_serial`]) requiring byte-identical
//!   outcomes at every scheduler width, and `proptest` strategies over
//!   whole fleets.
//! * [`routing`] — routed-payload oracles for `cc-routing`'s fault-aware
//!   planning layer: seed-addressed [`routing::RouteFaultCase`]s with
//!   replayable `route-fault[…]` labels, a survivor-delivery judge, and
//!   pool-shape differentials plus empty-crash-set transparency checks.
//! * [`certificates`] — a certificate-corruption harness that bit-flips
//!   honest NCLIQUE certificates and asserts every verifier rejects the
//!   mutants (modulo confirmed alternate witnesses), printing replayable
//!   `cert-corrupt[…]` labels on failure.
//!
//! ## Reproducing a failure
//!
//! Every judge panic starts with the instance label, e.g.
//! `er-medium[n=16, seed=3]: apsp mismatch …`. Rebuild that exact
//! instance with [`instances::Instance::new`] (the family name maps back
//! via [`instances::Family::ALL`]) — generators are pure functions of
//! `(family, n, seed)`, so the instance is bit-identical on every host.

#![warn(missing_docs)]

pub mod audit;
pub mod auth;
pub mod byzantine;
pub mod certificates;
pub mod churn;
pub mod differential;
pub mod faults;
pub mod fleet;
pub mod instances;
pub mod matmul;
pub mod oracle;
pub mod routing;

pub use audit::{
    assert_transcripts_conform, audit_transcripts, AuditReport, AuditSpec, AuditViolation,
};
pub use auth::{auth_corpus, differential_authenticated, AuthCase};
pub use byzantine::{
    assert_empty_byzantine_transparent, differential_byzantine, equivocation_witness, ByzantineRun,
};
pub use certificates::{assert_corrupted_certificates_rejected, corrupt_labelling};
pub use churn::{churn_corpus, differential_churn, judge_churn_accounting, ChurnCase};
pub use differential::{
    differential_broadcast_only, differential_engines, differential_programs, differential_session,
    ring_topology, POOL_SHAPES,
};
pub use faults::{assert_empty_plan_transparent, differential_faulted, FaultedRun};
pub use fleet::{assert_fleet_matches_serial, fleet_batch, Adversary, FleetJob, Workload};
pub use instances::{corpus, weighted_corpus, Family, Instance, WeightedFamily, WeightedInstance};
pub use matmul::{differential_matmul, matmul_corpus, wrap_mm, MmCase, MmFamily, MM_WIDTH};
pub use routing::{
    assert_empty_crash_transparent, differential_route, judge_routed_delivery, RouteFaultCase,
    RoutedRun,
};

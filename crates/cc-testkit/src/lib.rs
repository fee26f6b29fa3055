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
//! * [`differential`] — the one conformance runner, [`run_recorded`]: it
//!   runs node programs on the engine the caller built (bandwidth,
//!   topology, any adversary), records transcripts for the auditor, and
//!   hands back the engine's own [`cliquesim::FaultedOutcome`]; an engine
//!   error panics with the caller's label. Beside it sit the checks that
//!   compare two real paths: the clique vs the broadcast-only model, and
//!   empty adversary plans vs no plan at all.
//! * [`audit`] — a transcript replay + bandwidth auditor that re-walks
//!   recorded [`cliquesim::Transcript`]s and rejects any message over the
//!   `⌈log₂ n⌉`-bit budget, any send/receive asymmetry, and any run
//!   exceeding a theorem-declared round bound.
//! * [`churn`] — churn-conformance families for the rejoin/state-sync
//!   tier: seed-addressed [`churn::ChurnCase`]s (Poisson crash/rejoin
//!   schedules) with replayable `churn[n=…, seed=…]` labels, and a
//!   ledger judge that closes the sync counters against the fault report
//!   and the plan's downtime.
//! * [`auth`] — authenticated-tier conformance: seed-addressed
//!   [`auth::AuthCase`]s (`auth[n=…, f=…, seed=…]`) pairing a
//!   [`cliquesim::AuthKeyring`] with an honest-majority `f < n/2` traitor
//!   plan.
//! * [`byzantine`] — the [`cliquesim::ByzantinePlan`] traitor tier's
//!   [`byzantine::equivocation_witness`] checker, which exhibits a single
//!   traitor forging per-link majorities.
//! * [`fleet`] — fleet differentials for `cc-service`: pure-data
//!   [`fleet::FleetJob`] descriptors (instance × workload × seed-addressed
//!   adversary × DAG edges), a serial-oracle comparison
//!   ([`assert_fleet_matches_serial`]) requiring byte-identical outcomes
//!   at every scheduler width and timing each run, and `proptest`
//!   strategies over whole fleets.
//! * [`routing`] — routed-payload oracles for `cc-routing`'s fault-aware
//!   planning layer: seed-addressed [`routing::RouteFaultCase`]s with
//!   replayable `route-fault[…]` labels, a survivor-delivery judge, and
//!   empty-crash-set transparency checks.
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod auth;
pub mod byzantine;
pub mod certificates;
pub mod churn;
pub mod differential;
pub mod fleet;
pub mod instances;
pub mod matmul;
pub mod oracle;
pub mod routing;

pub use audit::{
    assert_transcripts_conform, audit_transcripts, AuditReport, AuditSpec, AuditViolation,
};
pub use auth::{auth_corpus, AuthCase};
pub use byzantine::equivocation_witness;
pub use certificates::{assert_corrupted_certificates_rejected, corrupt_labelling};
pub use churn::{churn_corpus, judge_churn_accounting, ChurnCase};
pub use differential::{
    assert_empty_plans_transparent, differential_broadcast_only, ring_topology, run_recorded,
};
pub use fleet::{
    assert_fleet_matches_serial, fleet_batch, Adversary, FleetCheck, FleetJob, Workload,
};
pub use instances::{corpus, weighted_corpus, Family, Instance, WeightedFamily, WeightedInstance};
pub use matmul::{differential_matmul, matmul_corpus, wrap_mm, MmCase, MmFamily, MM_WIDTH};
pub use routing::{
    assert_empty_crash_transparent, differential_route, judge_routed_delivery, RouteFaultCase,
    RoutedRun,
};

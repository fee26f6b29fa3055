//! # congested-clique
//!
//! A complexity-theory workbench for the **congested clique** model of
//! distributed computing, reproducing Korhonen & Suomela, *"Towards a
//! complexity theory for the congested clique"* (SPAA 2018,
//! arXiv:1705.03284).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`sim`] — the bandwidth-exact simulator (`cliquesim`);
//! * [`graph`] — graph substrate, generators, reference solvers;
//! * [`routing`] — direct static and two-phase balanced routing schedules;
//! * [`matmul`] — distributed semiring matrix multiplication;
//! * [`paths`] — APSP / SSSP / BFS / transitive closure;
//! * [`subgraph`] — Dolev et al. subgraph detection, colour-coding k-path;
//! * [`param`] — Theorem 9 (k-dominating set) and Theorem 11 (k-vertex cover);
//! * [`mst`] — distributed Borůvka MST (the §2/§8 flagship problem);
//! * [`reductions`] — Theorem 10's gadget, the Figure 1 atlas;
//! * [`theory`] — NCLIQUE, the normal form (Thm 3), decision hierarchies
//!   (Thms 7/8), counting arguments (Lemma 1, Thms 2/4), exponents (§7);
//! * [`resilient`] — fault-tolerant wrappers (echo-broadcast,
//!   k-retransmission, crash-tolerant aggregation, Bracha-style reliable
//!   broadcast, and Dolev–Strong authenticated broadcast over
//!   [`sim::AuthKeyring`] signed messages) for runs under the simulator's
//!   deterministic [`sim::FaultPlan`] and [`sim::ByzantinePlan`]
//!   adversaries; see `docs/THREAT-MODEL.md` for the tier-by-tier
//!   guarantees;
//! * [`service`] — the multi-tenant session service: DAG-scheduled
//!   simulation fleets over a shared work-stealing worker pool, with a
//!   serial oracle (`Batch::run_serial`) the fleet is differentially
//!   tested against.
//!
//! See `examples/quickstart.rs` for a guided tour.

pub use cc_core as theory;
pub use cc_graph as graph;
pub use cc_matmul as matmul;
pub use cc_mst as mst;
pub use cc_param as param;
pub use cc_paths as paths;
pub use cc_reductions as reductions;
pub use cc_resilient as resilient;
pub use cc_routing as routing;
pub use cc_service as service;
pub use cc_subgraph as subgraph;
pub use cliquesim as sim;

/// Commonly used items, for `use congested_clique::prelude::*`.
pub mod prelude {
    pub use cc_graph::{Graph, WeightedGraph};
    pub use cliquesim::{
        AuthKeyring, BitString, ByzantinePlan, Engine, FaultPlan, NodeCtx, NodeId, NodeProgram,
        RunStats, Session, Status,
    };
}

//! # cc-reductions — the fine-grained reductions of §7
//!
//! The machinery behind Figure 1 and Theorem 10 of Korhonen & Suomela
//! (SPAA 2018):
//!
//! * [`is_to_ds`] — the Figure 2 gadget reducing k-independent-set to
//!   k-dominating-set;
//! * [`simulate`] — running a larger (virtual) clique on the clique at
//!   hand, both packet-level and as cost accounting;
//! * [`thm10`] — the end-to-end k-IS-via-k-DS pipeline with measured
//!   overheads;
//! * [`coloring`] — the k-colouring → MaxIS clique blow-up \[46\];
//! * [`dhz`] — Boolean MM through (2−ε)-approximate APSP \[17\];
//! * [`atlas`] — Figure 1 itself as validated, renderable data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index-driven loops over multiple parallel per-node arrays are the
// dominant shape in this codebase; the iterator rewrites clippy suggests
// obscure the node-id arithmetic.
#![allow(clippy::needless_range_loop)]

pub mod atlas;
pub mod coloring;
pub mod dhz;
pub mod is_to_ds;
pub mod simulate;
pub mod thm10;

pub use atlas::{Arrow, Atlas, Bound, ProblemId, OMEGA};
pub use coloring::{
    coloring_blowup, extract_coloring, k_coloring_via_max_is, max_independent_set_naive,
};
pub use dhz::{boolean_mm_via_approx_apsp, mm_to_apsp_graph};
pub use is_to_ds::{GadgetVertex, IsToDsGadget};
pub use simulate::{run_virtual, Assignment, SimulationCost};
pub use thm10::{independent_set_via_dominating_set, paper_assignment, Thm10Outcome};

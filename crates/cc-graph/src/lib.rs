//! # cc-graph — graph substrate for the congested clique workbench
//!
//! Graphs, weighted graphs, deterministic workload generators, the
//! centralised reference solvers that every distributed algorithm in the
//! workspace is validated against, and the exact local solvers that
//! production code calls.
//!
//! [`reference`](mod@reference) is the test oracle: textbook code, kept
//! simple rather than fast. When a distributed algorithm ends in a local
//! exact solve (free in the model), it calls [`exact`] instead, whose
//! functions return the reference's outputs output for output, pinned to it
//! by proptest.
//!
//! The paper (Korhonen & Suomela, SPAA 2018, §3) studies decision problems
//! on undirected, unweighted graphs whose vertices coincide with the clique
//! nodes; [`Graph::input_row`] and [`Graph::private_input`] implement the
//! paper's two input encodings exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index-driven loops over multiple parallel per-node arrays are the
// dominant shape in this codebase; the iterator rewrites clippy suggests
// obscure the node-id arithmetic.
#![allow(clippy::needless_range_loop)]

pub mod exact;
pub mod gen;
pub mod graph;
/// The test oracle. Tests, the `cc-testkit` oracles and the benchmark's
/// judges call these functions, and so do the problem definitions in
/// `cc-core`. Production local solves (the MaxIS gather, the Buss-kernel
/// vertex cover) go through [`exact`], which proptests pin to this module.
///
pub mod reference;
pub mod weighted;

pub use graph::Graph;
pub use weighted::{dist_add, DistMatrix, WeightedGraph, INF};

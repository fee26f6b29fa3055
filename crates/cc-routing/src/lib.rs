//! # cc-routing — routing substrate for the congested clique
//!
//! Stand-in for Lenzen's `O(1)`-round deterministic routing and sorting
//! protocol (reference \[43\] of Korhonen & Suomela, SPAA 2018), which the
//! paper's Theorem 9 invokes as a black box.
//!
//! Every routing phase is one [`RoutePlan`]: a schedule fixed by the demand
//! sizes alone, built as [`RoutePlan::direct`] (every ordered pair ships
//! its stream over its private link; the phase costs the largest per-link
//! load) or [`RoutePlan::balanced`] (the two-phase megastream plan of
//! [`balanced`]; it costs about the largest per-node load), then refined
//! with [`RoutePlan::sized`] (no frame headers, for payload sizes that are
//! global knowledge), [`RoutePlan::avoiding`] (re-plan around a
//! [`CrashSet`], reporting dropped demands as [`Undeliverable`] records)
//! and [`RoutePlan::repeats`] (retransmit every chunk and majority-vote
//! the copies, for lossy links).
//!
//! [`RoutePlan::run_faulted`] ships the plan and returns a
//! [`RoutedOutcome`]; [`RoutePlan::run`] is its strict reading.
//! [`RoutePlan::cost`] walks the same schedule over the [`DemandSizes`]
//! without shipping it and returns the exact [`cliquesim::RunStats`] the
//! fault-free run records. [`relay_broadcast`] and
//! [`all_to_all_broadcast`] are collectives built on plans. The
//! substitution rationale is documented in DESIGN.md.

#![warn(missing_docs)]
// Index-driven loops over multiple parallel per-node arrays are the
// dominant shape in this codebase; the iterator rewrites clippy suggests
// obscure the node-id arithmetic.
#![allow(clippy::needless_range_loop)]

pub mod balanced;
pub mod fault;
pub mod frames;
pub mod plan;
pub mod router;

pub use fault::{CrashSet, DeliveryFailure, RoutedOutcome, Undeliverable};
pub use frames::{frame, frame_all, parse_frames, rounds_for, LEN_HEADER_BITS};
pub use plan::{demand_sizes, DemandSizes, RoutePlan};
pub use router::{all_to_all_broadcast, relay_broadcast, Delivered, RouteError};

//! # cc-matmul — distributed semiring matrix multiplication
//!
//! Matrix multiplication is the workhorse of the polynomial-complexity
//! region of Figure 1 in Korhonen & Suomela (SPAA 2018): Boolean MM drives
//! triangle detection and transitive closure, `(min,+)` ("tropical") MM
//! drives APSP, and semiring MM in general has exponent `δ ≤ 1/3` by the 3D
//! algorithm of Censor-Hillel et al. \[10\].
//!
//! * [`semiring`] defines the carrier semirings and their bit-exact wire
//!   encodings;
//! * [`distributed`] implements the `O(n^{1/3})`-round 3D algorithm
//!   ([`mm_three_d`]) and the `O(n)`-round broadcast baseline
//!   ([`mm_naive_broadcast`]);
//! * [`sparse`] implements the density-aware tier (Le Gall,
//!   arXiv:1608.02674): nonzero-count gossip, header-free sparse triple
//!   redistribution ([`mm_sparse`]), the [`MmStrategy`] selector, and the
//!   exact analytic ledger [`mm_sparse_overhead`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index-driven loops over multiple parallel per-node arrays are the
// dominant shape in this codebase; the iterator rewrites clippy suggests
// obscure the node-id arithmetic.
#![allow(clippy::needless_range_loop)]

pub mod distributed;
pub mod semiring;
pub mod sparse;

pub use distributed::{mm_naive_broadcast, mm_three_d, Blocking, MatmulError};
pub use semiring::{
    mm_local, BoolSemiring, Matrix, RingI64, Semiring, TropicalSemiring, TROPICAL_INF,
};
pub use sparse::{mm_sparse, mm_sparse_overhead, mm_with_strategy, MmRun, MmStrategy};

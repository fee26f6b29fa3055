//! # cc-param — parameterised algorithms on the congested clique
//!
//! The paper's two new upper bounds (§7.1, §7.3):
//!
//! * [`vertex_cover()`](fn@vertex_cover) — Theorem 11: a vertex cover of
//!   size `k` in `O(k)` rounds via distributed Buss kernelisation; the
//!   round count is independent of `n`.
//! * [`dominating_set()`](fn@dominating_set) — Theorem 9: a dominating
//!   set of size `k` in `O(n^{1−1/k})` rounds via the Dolev et al.
//!   partition plus balanced routing.
//!
//! Together with `cc-subgraph`'s `O(n^{1−2/k})` independent-set detector,
//! these populate the fixed-parameter corner of Figure 1: VC is genuinely
//! FPT-like (`O(k)` rounds), while k-IS and k-DS pay polynomial `n`-factors
//! whose exponents depend on `k` — mirroring the centralised
//! FPT vs W\[1\]/W\[2\] divide the paper discusses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index-driven loops over multiple parallel per-node arrays are the
// dominant shape in this codebase; the iterator rewrites clippy suggests
// obscure the node-id arithmetic.
#![allow(clippy::needless_range_loop)]

pub mod dominating_set;
pub mod vertex_cover;

pub use dominating_set::{dominating_set, DsResult};
pub use vertex_cover::{vertex_cover, vertex_cover_rounds, CoverResult};

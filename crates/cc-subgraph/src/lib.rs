//! # cc-subgraph — subgraph detection on the congested clique
//!
//! The detection problems of Figure 1 in Korhonen & Suomela (SPAA 2018):
//! triangle / 3-IS, size-k subgraph, k-cycle, k-independent-set.
//!
//! * [`detect`](detect::detect) — the deterministic Dolev–Lenzen–Peled
//!   partition algorithm (\[16\]): `O(n^{1−2/k})` rounds for any fixed
//!   `k`-vertex pattern, induced or not.
//! * [`triangle_via_mm`] — triangle detection through Boolean matrix
//!   multiplication (\[10\]), the ablation partner of the combinatorial
//!   detector.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detect;
pub mod enumerate;
pub mod kpath;
pub mod mm_triangle;
pub mod partition;

pub use detect::{
    detect, detect_clique, detect_cycle, detect_independent_set, detect_triangle, Pattern, Witness,
};
pub use enumerate::{count_triangles_distributed, enumerate_triangles_distributed};
pub use kpath::{detect_path_color_coding, trial_success_probability};
pub use mm_triangle::{
    count_triangles_via_mm_with, triangle_via_mm, triangle_via_mm_with, MmDetectError,
};
pub use partition::Partition;

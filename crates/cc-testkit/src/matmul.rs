//! Seed-addressed matrix-multiplication instances.
//!
//! The matmul analogue of [`crate::instances`]: an [`MmCase`] is a pure
//! function of `(family, n, m, seed)` — the same tuple always yields the
//! same matrix pair on every host, so a failing conformance cell that
//! prints its [`MmCase::label`] (`mm-sparse[n=64, m=512, seed=1]@auto`)
//! is reproducible from that line alone. Families cover the density
//! regimes the strategy selector arbitrates: genuinely sparse
//! (`m ≈ n^{3/2}/2`), dense, banded (sparse but adversarially clustered,
//! so per-band nonzero counts are maximally skewed), and the degenerate
//! boundary shapes (all-zero, a single nonzero).
//!
//! Entries live in the width-[`MM_WIDTH`] two's-complement ring — the
//! carrier every differential matmul cell runs over — and
//! [`differential_matmul`] judges each protocol against
//! [`crate::oracle::judge_matmul`] with independently written wrapping
//! closures, preserving the testkit rule that oracles share no code with
//! the system under test.

use crate::differential::differential_session;
use crate::oracle::judge_matmul;
use cliquesim::Session;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// Ring width every matmul case is generated for: wide enough that sparse
/// instances never wrap, narrow enough that dense `n = 216` instances do —
/// which makes the wrapping semantics themselves part of the differential
/// surface.
pub const MM_WIDTH: usize = 16;

/// Reduce into the signed width-[`MM_WIDTH`] window `[-2^15, 2^15)`.
/// Written independently of any `Semiring` implementation on purpose.
pub fn wrap_mm(v: i64) -> i64 {
    let m = 1i64 << MM_WIDTH;
    let r = ((v % m) + m) % m;
    if r >= m / 2 {
        r - m
    } else {
        r
    }
}

/// Matmul instance families.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MmFamily {
    /// Exactly `m` nonzeros at uniform random positions.
    Sparse,
    /// Every entry nonzero (the `m` field is ignored).
    Dense,
    /// Exactly `m` nonzeros, all within a `⌈√n⌉`-wide diagonal band —
    /// sparse globally but dense inside few blocks, the worst case for
    /// per-band load skew.
    Banded,
    /// The zero matrix (`m` ignored).
    AllZero,
    /// A single nonzero at a seed-derived position (`m` ignored).
    SingleNonzero,
}

impl MmFamily {
    /// Every family, in a fixed order.
    pub const ALL: [MmFamily; 5] = [
        MmFamily::Sparse,
        MmFamily::Dense,
        MmFamily::Banded,
        MmFamily::AllZero,
        MmFamily::SingleNonzero,
    ];

    /// Stable name used in case labels.
    pub fn name(self) -> &'static str {
        match self {
            MmFamily::Sparse => "mm-sparse",
            MmFamily::Dense => "mm-dense",
            MmFamily::Banded => "mm-banded",
            MmFamily::AllZero => "mm-zero",
            MmFamily::SingleNonzero => "mm-single",
        }
    }
}

/// One reproducible matmul instance: a pair of `n × n` matrices over the
/// width-[`MM_WIDTH`] ring, each generated from `(family, n, m, seed)`
/// (the `A` factor) and `(family, n, m, seed ⊕ mix)` (the `B` factor).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MmCase {
    /// Which generator to use.
    pub family: MmFamily,
    /// Matrix dimension.
    pub n: usize,
    /// Nonzero budget per factor (families that ignore it keep it for the
    /// label so grid cells stay distinguishable).
    pub m: usize,
    /// Generator seed.
    pub seed: u64,
}

impl MmCase {
    /// Build a case descriptor.
    pub fn new(family: MmFamily, n: usize, m: usize, seed: u64) -> Self {
        Self { family, n, m, seed }
    }

    /// Reproduction label: `mm-sparse[n=64, m=512, seed=1]`.
    pub fn label(&self) -> String {
        format!(
            "{}[n={}, m={}, seed={}]",
            self.family.name(),
            self.n,
            self.m,
            self.seed
        )
    }

    /// Materialise the factor pair. Pure: same case → same matrices.
    pub fn pair(&self) -> (Vec<Vec<i64>>, Vec<Vec<i64>>) {
        (
            gen_matrix(self.family, self.n, self.m, self.seed),
            gen_matrix(self.family, self.n, self.m, self.seed ^ 0x9e37_79b9),
        )
    }

    /// Count the nonzeros of one generated factor.
    pub fn nnz(rows: &[Vec<i64>]) -> usize {
        rows.iter().flatten().filter(|&&v| v != 0).count()
    }
}

impl fmt::Display for MmCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A nonzero value small enough that sparse products stay far from the
/// wrap boundary (so wrapping differences can never mask a real bug in
/// sparse cells).
fn small_nonzero(rng: &mut ChaCha8Rng) -> i64 {
    let v = rng.gen_range(-30i64..30);
    if v == 0 {
        7
    } else {
        v
    }
}

fn gen_matrix(family: MmFamily, n: usize, m: usize, seed: u64) -> Vec<Vec<i64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut rows = vec![vec![0i64; n]; n];
    match family {
        MmFamily::Sparse => {
            let mut placed = 0;
            let target = m.min(n * n);
            while placed < target {
                let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if rows[i][j] == 0 {
                    rows[i][j] = small_nonzero(&mut rng);
                    placed += 1;
                }
            }
        }
        MmFamily::Dense => {
            for row in rows.iter_mut() {
                for v in row.iter_mut() {
                    *v = small_nonzero(&mut rng);
                }
            }
        }
        MmFamily::Banded => {
            let half = isqrt_ceil(n).max(1);
            let mut placed = 0;
            let band_cells: usize = (0..n)
                .map(|i| {
                    let lo = i.saturating_sub(half);
                    let hi = (i + half + 1).min(n);
                    hi - lo
                })
                .sum();
            let target = m.min(band_cells);
            while placed < target {
                let i = rng.gen_range(0..n);
                let lo = i.saturating_sub(half);
                let hi = (i + half + 1).min(n);
                let j = rng.gen_range(lo..hi);
                if rows[i][j] == 0 {
                    rows[i][j] = small_nonzero(&mut rng);
                    placed += 1;
                }
            }
        }
        MmFamily::AllZero => {}
        MmFamily::SingleNonzero => {
            let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
            rows[i][j] = small_nonzero(&mut rng);
        }
    }
    rows
}

/// `⌈√n⌉`.
fn isqrt_ceil(n: usize) -> usize {
    let mut r = (n as f64).sqrt() as usize;
    while r * r < n {
        r += 1;
    }
    while r > 0 && (r - 1) * (r - 1) >= n {
        r -= 1;
    }
    r
}

/// The standard matmul corpus: for each `n` and `seed`, one case per
/// family with the family's natural nonzero budget (`n·⌊√n⌋/2` for
/// sparse and banded — safely inside the sparse regime).
pub fn matmul_corpus(ns: &[usize], seeds: &[u64]) -> Vec<MmCase> {
    let mut out = Vec::new();
    for &n in ns {
        let budget = (n * isqrt_floor(n) / 2).max(1);
        for &seed in seeds {
            for family in MmFamily::ALL {
                out.push(MmCase::new(family, n, budget, seed));
            }
        }
    }
    out
}

fn isqrt_floor(n: usize) -> usize {
    let mut r = (n as f64).sqrt() as usize;
    while r * r > n {
        r -= 1;
    }
    while (r + 1) * (r + 1) <= n {
        r += 1;
    }
    r
}

/// Run one matmul protocol for `case`, then judge the product against the
/// independent serial oracle ([`judge_matmul`] with locally written
/// width-[`MM_WIDTH`] wrapping arithmetic). Returns the product.
///
/// The protocol closure receives the session and both factors; pass a
/// closure that calls the multiplication entry point under test.
pub fn differential_matmul<F>(case: &MmCase, mut protocol: F) -> Vec<Vec<i64>>
where
    F: FnMut(&mut Session, &[Vec<i64>], &[Vec<i64>]) -> Vec<Vec<i64>>,
{
    let (a, b) = case.pair();
    let label = case.label();
    let got = differential_session(&label, case.n, |s| protocol(s, &a, &b));
    judge_matmul(
        &label,
        &a,
        &b,
        &got,
        0i64,
        |x, y| wrap_mm(x + y),
        |x, y| wrap_mm(x * y),
    );
    got
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_pure_functions_of_their_tuple() {
        for case in matmul_corpus(&[9, 16], &[0, 7]) {
            assert_eq!(case.pair(), case.pair(), "{case}");
        }
    }

    #[test]
    fn families_hit_their_density_contracts() {
        let n = 25;
        let m = 40;
        let (a, _) = MmCase::new(MmFamily::Sparse, n, m, 3).pair();
        assert_eq!(MmCase::nnz(&a), m);
        let (a, _) = MmCase::new(MmFamily::Dense, n, m, 3).pair();
        assert_eq!(MmCase::nnz(&a), n * n);
        let (a, _) = MmCase::new(MmFamily::Banded, n, m, 3).pair();
        assert_eq!(MmCase::nnz(&a), m);
        let half = isqrt_ceil(n);
        for (i, row) in a.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0 {
                    assert!(j + half >= i && j <= i + half, "({i},{j}) outside band");
                }
            }
        }
        let (a, _) = MmCase::new(MmFamily::AllZero, n, m, 3).pair();
        assert_eq!(MmCase::nnz(&a), 0);
        let (a, _) = MmCase::new(MmFamily::SingleNonzero, n, m, 3).pair();
        assert_eq!(MmCase::nnz(&a), 1);
    }

    #[test]
    fn labels_embed_the_reproducing_tuple() {
        let case = MmCase::new(MmFamily::Sparse, 64, 512, 1);
        assert_eq!(case.label(), "mm-sparse[n=64, m=512, seed=1]");
    }

    #[test]
    fn wrap_mm_matches_twos_complement() {
        assert_eq!(wrap_mm(32767), 32767);
        assert_eq!(wrap_mm(32768), -32768);
        assert_eq!(wrap_mm(-32769), 32767);
        assert_eq!(wrap_mm(65536), 0);
        assert_eq!(wrap_mm(-5), -5);
    }

    #[test]
    fn differential_matmul_accepts_a_correct_protocol() {
        // A deliberately naive in-session protocol: node v computes row v
        // locally from full knowledge (no communication) — correct output,
        // trivially identical across the grid.
        let case = MmCase::new(MmFamily::Sparse, 8, 10, 2);
        differential_matmul(&case, |_s, a, b| {
            let n = a.len();
            (0..n)
                .map(|i| {
                    (0..n)
                        .map(|j| {
                            (0..n).fold(0i64, |acc, k| wrap_mm(acc + wrap_mm(a[i][k] * b[k][j])))
                        })
                        .collect()
                })
                .collect()
        });
    }
}

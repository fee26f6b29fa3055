//! Distributed matrix multiplication on the congested clique.
//!
//! Implements the semiring algorithm of Censor-Hillel, Kaski, Korhonen,
//! Lenzen, Paz & Suomela (PODC 2015) — reference \[10\] of the paper — which
//! Figure 1 uses as the upper bound `δ(semiring MM) ≤ 1/3`:
//!
//! * [`mm_three_d`] — the "3D" algorithm: the `t³ = n` block products of a
//!   `t × t` blocking (`t = n^{1/3}`) are assigned one per node; inputs are
//!   redistributed with balanced routing (`O(n^{1/3})` rounds), block
//!   products are computed locally, and partial results are summed at the
//!   row owners.
//! * [`mm_naive_broadcast`] — the folklore `O(n)`-round baseline: everyone
//!   broadcasts their rows, everyone multiplies locally.
//!
//! Input/output convention (distributed fidelity): node `v` holds row `v`
//! of each input matrix and ends with row `v` of the product.
//!
//! The paper's stronger bound for *ring* MM (`1 − 2/ω`) relies on fast
//! rectangular multiplication tensors; that algebraic machinery is out of
//! scope (see DESIGN.md substitutions) — `RingI64` runs on the same 3D
//! schedule at exponent 1/3.

use cliquesim::{BitString, NodeId, Session};

use cc_routing::{RouteError, RoutePlan};

use crate::semiring::Semiring;

/// Errors from the distributed multipliers.
#[derive(Debug)]
pub enum MatmulError {
    /// Routing/simulation failure.
    Route(RouteError),
    /// Inputs are not square / consistent.
    Shape(String),
    /// A payload failed to decode (harness bug).
    Decode(cliquesim::DecodeError),
}

impl std::fmt::Display for MatmulError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatmulError::Route(e) => write!(f, "matmul routing error: {e}"),
            MatmulError::Shape(s) => write!(f, "matmul shape error: {s}"),
            MatmulError::Decode(e) => write!(f, "matmul decode error: {e}"),
        }
    }
}

impl std::error::Error for MatmulError {}

impl From<RouteError> for MatmulError {
    fn from(e: RouteError) -> Self {
        MatmulError::Route(e)
    }
}

impl From<cliquesim::DecodeError> for MatmulError {
    fn from(e: cliquesim::DecodeError) -> Self {
        MatmulError::Decode(e)
    }
}

pub(crate) fn check_shapes<T>(n: usize, a: &[Vec<T>], b: &[Vec<T>]) -> Result<(), MatmulError> {
    if a.len() != n || b.len() != n {
        return Err(MatmulError::Shape(format!(
            "expected {n} rows, got A:{} B:{}",
            a.len(),
            b.len()
        )));
    }
    for (i, r) in a.iter().chain(b.iter()).enumerate() {
        if r.len() != n {
            return Err(MatmulError::Shape(format!(
                "row {i} has length {} (want {n})",
                r.len()
            )));
        }
    }
    Ok(())
}

pub(crate) fn encode_entries<S: Semiring>(
    sr: &S,
    entries: impl IntoIterator<Item = S::Elem>,
) -> BitString {
    let mut out = BitString::new();
    for e in entries {
        sr.encode(e, &mut out);
    }
    out
}

pub(crate) fn decode_entries<S: Semiring>(
    sr: &S,
    bits: &BitString,
    count: usize,
) -> Result<Vec<S::Elem>, MatmulError> {
    let mut r = bits.reader();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(sr.decode(&mut r)?);
    }
    r.expect_end().map_err(MatmulError::Decode)?;
    Ok(out)
}

/// The blocking used by the 3D algorithm.
#[derive(Clone, Copy, Debug)]
pub struct Blocking {
    /// Number of bands per axis, `t = ⌊n^{1/3}⌋`.
    pub t: usize,
    /// Vertices per band (last band may be smaller).
    pub band_size: usize,
    n: usize,
}

impl Blocking {
    /// Blocking for an `n`-node clique.
    pub fn for_n(n: usize) -> Self {
        let mut t = 1;
        while (t + 1) * (t + 1) * (t + 1) <= n {
            t += 1;
        }
        Self {
            t,
            band_size: n.div_ceil(t),
            n,
        }
    }

    /// Band of vertex `v`.
    pub fn band(&self, v: usize) -> usize {
        (v / self.band_size).min(self.t - 1)
    }

    /// The vertices of band `i`, in increasing order.
    pub fn members(&self, i: usize) -> std::ops::Range<usize> {
        let start = i * self.band_size;
        let end = if i + 1 == self.t {
            self.n
        } else {
            ((i + 1) * self.band_size).min(self.n)
        };
        start..end
    }

    /// The worker node for block triple `(i, j, k)`.
    pub fn worker(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.t + j) * self.t + k
    }

    /// Inverse of [`Blocking::worker`]: `Some((i, j, k))` if node `w` is a
    /// worker.
    pub fn triple(&self, w: usize) -> Option<(usize, usize, usize)> {
        let t = self.t;
        if w >= t * t * t {
            return None;
        }
        Some((w / (t * t), (w / t) % t, w % t))
    }
}

/// The Censor-Hillel et al. 3D semiring multiplication.
///
/// `a_rows[v]` / `b_rows[v]` are node `v`'s rows of the inputs; returns node
/// `v`'s row of `A·B`. Costs `O(n^{1/3} · w/B)` rounds for entry width `w`
/// and bandwidth `B` (so `O(n^{1/3})` at the model's `w = B = ⌈log₂ n⌉`).
pub fn mm_three_d<S: Semiring>(
    session: &mut Session,
    sr: &S,
    a_rows: &[Vec<S::Elem>],
    b_rows: &[Vec<S::Elem>],
) -> Result<Vec<Vec<S::Elem>>, MatmulError> {
    let n = session.n();
    check_shapes(n, a_rows, b_rows)?;
    let bl = Blocking::for_n(n);
    let t = bl.t;

    // ---------------- Phase 1: distribute blocks to workers --------------
    // Node u contributes row u of A to blocks (band(u), ·) and row u of B to
    // blocks (band(u), ·) on the B side. For every worker (i, j, k):
    //   - needs A[band i rows, band k cols]: row-holders u ∈ band i send
    //     A[u, band k];
    //   - needs B[band k rows, band j cols]: row-holders u ∈ band k send
    //     B[u, band j].
    // Payload order (A first, then B) disambiguates the i == k case.
    let mut demands: Vec<Vec<(NodeId, BitString)>> = vec![Vec::new(); n];
    for u in 0..n {
        let bu = bl.band(u);
        for j in 0..t {
            for k in 0..t {
                // A-chunk to worker (bu, j, k).
                let w = bl.worker(bu, j, k);
                let payload = encode_entries(sr, bl.members(k).map(|c| a_rows[u][c]));
                if w == u {
                    // Local hand-off handled below by reading own rows.
                } else {
                    demands[u].push((NodeId::from(w), payload));
                }
            }
        }
        for i in 0..t {
            for j in 0..t {
                // B-chunk to worker (i, j, bu).
                let w = bl.worker(i, j, bu);
                let payload = encode_entries(sr, bl.members(j).map(|c| b_rows[u][c]));
                if w == u {
                    // Local hand-off.
                } else {
                    demands[u].push((NodeId::from(w), payload));
                }
            }
        }
    }
    let delivered = RoutePlan::balanced().run(session, demands)?;

    // Each worker assembles its two blocks, flat: A row-major (rows by
    // sender id), B transposed, so each product entry walks two contiguous
    // slices. Its product block is row-major too.
    let mut products: Vec<Option<Vec<S::Elem>>> = vec![None; n];
    let mut row_ranges: Vec<(usize, usize, usize)> = Vec::new(); // (worker, i, j)
    for w in 0..n {
        let Some((i, j, k)) = bl.triple(w) else {
            continue;
        };
        let rows_i: Vec<usize> = bl.members(i).collect();
        let rows_k: Vec<usize> = bl.members(k).collect();
        let cols_k = rows_k.len();
        let cols_j = bl.members(j).len();

        // Collect payloads per sender in arrival order.
        let mut from: Vec<Vec<&BitString>> = vec![Vec::new(); n];
        for (src, payload) in &delivered[w] {
            from[src.index()].push(payload);
        }

        // A block: one payload from each u ∈ band i (A sent before B, so
        // it is the first payload when both were sent).
        let mut a_block: Vec<S::Elem> = Vec::with_capacity(rows_i.len() * cols_k);
        for &u in &rows_i {
            if u == w {
                a_block.extend(bl.members(k).map(|c| a_rows[u][c]));
            } else {
                let payload = from[u]
                    .first()
                    .ok_or_else(|| MatmulError::Shape(format!("worker {w} missing A row {u}")))?;
                a_block.extend(decode_entries(sr, payload, cols_k)?);
            }
        }
        // B block: one payload from each u ∈ band k (the last payload),
        // stored as column `l` of the transposed block.
        let mut b_cols: Vec<S::Elem> = vec![sr.zero(); cols_j * cols_k];
        for (l, &u) in rows_k.iter().enumerate() {
            let row = if u == w {
                bl.members(j).map(|c| b_rows[u][c]).collect()
            } else {
                let payload = from[u]
                    .last()
                    .ok_or_else(|| MatmulError::Shape(format!("worker {w} missing B row {u}")))?;
                decode_entries(sr, payload, cols_j)?
            };
            for (cj, e) in row.into_iter().enumerate() {
                b_cols[cj * cols_k + l] = e;
            }
        }

        // Local block product P = A_ik · B_kj, each entry folding its terms
        // in ascending `l`, the order `mm_local` uses.
        let mut p = Vec::with_capacity(rows_i.len() * cols_j);
        for a_row in a_block.chunks_exact(cols_k) {
            for b_col in b_cols.chunks_exact(cols_k) {
                let terms = a_row.iter().zip(b_col);
                p.push(terms.fold(sr.zero(), |acc, (&x, &y)| sr.add(acc, sr.mul(x, y))));
            }
        }
        products[w] = Some(p);
        row_ranges.push((w, i, j));
    }

    // -------------- Phase 2: ship partial rows to row owners -------------
    let mut demands2: Vec<Vec<(NodeId, BitString)>> = vec![Vec::new(); n];
    let mut local_partials: Vec<Vec<(usize, BitString)>> = vec![Vec::new(); n]; // (worker, bits)
    for &(w, i, j) in &row_ranges {
        let p = products[w].as_ref().expect("worker has product");
        let cols_j = bl.members(j).len();
        for (row, r) in p.chunks_exact(cols_j).zip(bl.members(i)) {
            let payload = encode_entries(sr, row.iter().copied());
            if r == w {
                local_partials[r].push((w, payload));
            } else {
                demands2[w].push((NodeId::from(r), payload));
            }
        }
    }
    let delivered2 = RoutePlan::balanced().run(session, demands2)?;

    // Row owners sum partials.
    let mut c_rows: Vec<Vec<S::Elem>> = Vec::with_capacity(n);
    for r in 0..n {
        let mut row = vec![sr.zero(); n];
        let mut apply = |worker: usize, payload: &BitString| -> Result<(), MatmulError> {
            let (_, j, _) = bl
                .triple(worker)
                .ok_or_else(|| MatmulError::Shape(format!("non-worker {worker} sent a partial")))?;
            let cols: Vec<usize> = bl.members(j).collect();
            let vals = decode_entries(sr, payload, cols.len())?;
            for (c, v) in cols.into_iter().zip(vals) {
                row[c] = sr.add(row[c], v);
            }
            Ok(())
        };
        for (src, payload) in &delivered2[r] {
            apply(src.index(), payload)?;
        }
        for (w, payload) in &local_partials[r] {
            apply(*w, payload)?;
        }
        c_rows.push(row);
    }
    Ok(c_rows)
}

/// The naive `O(n)`-round baseline: all-to-all broadcast of full rows, then
/// local multiplication.
pub fn mm_naive_broadcast<S: Semiring>(
    session: &mut Session,
    sr: &S,
    a_rows: &[Vec<S::Elem>],
    b_rows: &[Vec<S::Elem>],
) -> Result<Vec<Vec<S::Elem>>, MatmulError> {
    let n = session.n();
    check_shapes(n, a_rows, b_rows)?;
    let payloads: Vec<BitString> = (0..n)
        .map(|v| {
            let mut bits = encode_entries(sr, a_rows[v].iter().copied());
            bits.extend_from(&encode_entries(sr, b_rows[v].iter().copied()));
            bits
        })
        .collect();
    let views = cc_routing::all_to_all_broadcast(session, payloads)?;

    // Every node now holds both matrices; compute its own row.
    let mut c_rows = Vec::with_capacity(n);
    for v in 0..n {
        let mut a = Vec::with_capacity(n);
        let mut b = Vec::with_capacity(n);
        for bits in &views[v] {
            let all = decode_entries(sr, bits, 2 * n)?;
            a.push(all[..n].to_vec());
            b.push(all[n..].to_vec());
        }
        let mut row = vec![sr.zero(); n];
        #[allow(clippy::needless_range_loop)]
        for j in 0..n {
            let mut acc = sr.zero();
            for k in 0..n {
                acc = sr.add(acc, sr.mul(a[v][k], b[k][j]));
            }
            row[j] = acc;
        }
        c_rows.push(row);
    }
    Ok(c_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{
        mm_local, BoolSemiring, Matrix, RingI64, TropicalSemiring, TROPICAL_INF,
    };
    use cliquesim::Engine;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn session(n: usize) -> Session {
        Session::new(Engine::new(n))
    }

    /// `band`/`members`/`worker`/`triple` mutual consistency at one `n`:
    /// every vertex lies in exactly one band, `members` partitions `0..n`
    /// in order, `band` agrees with `members`, and `triple ∘ worker = id`
    /// on the worker cube (with `triple` rejecting everything past it).
    fn assert_blocking_consistent(n: usize) {
        let bl = Blocking::for_n(n);
        let t = bl.t;
        assert!(t >= 1, "n={n}");
        assert!(
            t * t * t <= n.max(1),
            "n={n}: worker cube exceeds node count"
        );
        assert!((t + 1).pow(3) > n, "n={n}: t is not maximal");
        assert_eq!(bl.band_size, n.div_ceil(t), "n={n}");

        // Bands partition 0..n in order, with no empty or clipped band.
        let mut covered = 0usize;
        for i in 0..t {
            let members = bl.members(i);
            assert_eq!(members.start, covered, "n={n} band {i} leaves a gap");
            assert!(!members.is_empty(), "n={n} band {i} is empty");
            for v in members.clone() {
                assert!(v < n, "n={n} band {i} member {v} out of range");
                assert_eq!(bl.band(v), i, "n={n} v={v}");
            }
            covered = members.end;
        }
        assert_eq!(covered, n, "n={n}: bands do not cover 0..n");

        // Worker indexing is a bijection between band triples and 0..t³.
        for i in 0..t {
            for j in 0..t {
                for k in 0..t {
                    let w = bl.worker(i, j, k);
                    assert!(w < n, "n={n} worker ({i},{j},{k}) = {w} is not a node");
                    assert_eq!(bl.triple(w), Some((i, j, k)), "n={n} w={w}");
                }
            }
        }
        for w in t * t * t..n {
            assert_eq!(bl.triple(w), None, "n={n} w={w} is not a worker");
        }
    }

    #[test]
    fn blocking_consistent_for_every_n_to_200() {
        // Exhaustive leg of the satellite acceptance: the proptest below
        // samples the same range, this pins every single n.
        for n in 1..=200 {
            assert_blocking_consistent(n);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_blocking_consistent(n in 1usize..=200) {
            assert_blocking_consistent(n);
        }
    }

    #[test]
    fn blocking_covers_all_vertices() {
        for n in [1, 2, 7, 8, 9, 26, 27, 28, 63, 64, 100] {
            let bl = Blocking::for_n(n);
            assert!(bl.t * bl.t * bl.t <= n.max(1));
            let mut seen = vec![false; n];
            for i in 0..bl.t {
                for v in bl.members(i) {
                    assert_eq!(bl.band(v), i, "n={n} v={v}");
                    assert!(!seen[v]);
                    seen[v] = true;
                }
            }
            assert!(seen.into_iter().all(|s| s), "n={n}");
            for w in 0..bl.t.pow(3) {
                let (i, j, k) = bl.triple(w).unwrap();
                assert_eq!(bl.worker(i, j, k), w);
            }
            assert_eq!(bl.triple(bl.t.pow(3)), None);
        }
    }

    fn random_bool(n: usize, seed: u64) -> Matrix<bool> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        Matrix::from_fn(n, |_, _| rng.gen_bool(0.4))
    }

    #[test]
    fn three_d_bool_matches_local() {
        for n in [4, 8, 9, 16, 27] {
            let a = random_bool(n, 100 + n as u64);
            let b = random_bool(n, 200 + n as u64);
            let expect = mm_local(&BoolSemiring, &a, &b);
            let mut s = session(n);
            let got = mm_three_d(&mut s, &BoolSemiring, &a.to_rows(), &b.to_rows()).unwrap();
            assert_eq!(Matrix::from_rows(got), expect, "n={n}");
            assert!(s.stats().rounds > 0);
        }
    }

    #[test]
    fn three_d_tropical_matches_local() {
        let n = 16;
        let sr = TropicalSemiring::with_width(12);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let gen = |rng: &mut rand_chacha::ChaCha8Rng| {
            Matrix::from_fn(n, |_, _| {
                if rng.gen_bool(0.3) {
                    TROPICAL_INF
                } else {
                    rng.gen_range(0..500)
                }
            })
        };
        let a = gen(&mut rng);
        let b = gen(&mut rng);
        let expect = mm_local(&sr, &a, &b);
        let mut s = session(n);
        let got = mm_three_d(&mut s, &sr, &a.to_rows(), &b.to_rows()).unwrap();
        assert_eq!(Matrix::from_rows(got), expect);
    }

    #[test]
    fn three_d_ring_matches_local() {
        let n = 8;
        let sr = RingI64::with_width(32);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let a = Matrix::from_fn(n, |_, _| rng.gen_range(-50..50));
        let b = Matrix::from_fn(n, |_, _| rng.gen_range(-50..50));
        let expect = mm_local(&sr, &a, &b);
        let mut s = session(n);
        let got = mm_three_d(&mut s, &sr, &a.to_rows(), &b.to_rows()).unwrap();
        assert_eq!(Matrix::from_rows(got), expect);
    }

    #[test]
    fn naive_matches_local() {
        let n = 10;
        let a = random_bool(n, 5);
        let b = random_bool(n, 6);
        let expect = mm_local(&BoolSemiring, &a, &b);
        let mut s = session(n);
        let got = mm_naive_broadcast(&mut s, &BoolSemiring, &a.to_rows(), &b.to_rows()).unwrap();
        assert_eq!(Matrix::from_rows(got), expect);
    }

    #[test]
    fn three_d_beats_naive_at_scale() {
        // The crossover for log n-width entries sits between n = 27 and
        // n = 64 (the 3D algorithm pays constant-factor framing overheads).
        let n = 64;
        let sr = TropicalSemiring::for_max_value(1000);
        let a = Matrix::filled(n, 3u64);
        let b = Matrix::filled(n, 4u64);
        let mut s1 = session(n);
        mm_three_d(&mut s1, &sr, &a.to_rows(), &b.to_rows()).unwrap();
        let mut s2 = session(n);
        mm_naive_broadcast(&mut s2, &sr, &a.to_rows(), &b.to_rows()).unwrap();
        assert!(
            s1.stats().rounds < s2.stats().rounds,
            "3D {} rounds vs naive {} rounds",
            s1.stats().rounds,
            s2.stats().rounds
        );
    }

    #[test]
    fn non_cube_sizes_are_handled() {
        // The blocking pads gracefully for every n, not just perfect cubes.
        for n in [2usize, 3, 5, 7, 11, 13, 20, 26, 28, 35] {
            let a = random_bool(n, 500 + n as u64);
            let b = random_bool(n, 600 + n as u64);
            let expect = mm_local(&BoolSemiring, &a, &b);
            let mut s = session(n);
            let got = mm_three_d(&mut s, &BoolSemiring, &a.to_rows(), &b.to_rows()).unwrap();
            assert_eq!(Matrix::from_rows(got), expect, "n={n}");
        }
    }

    #[test]
    fn identity_and_zero_matrices() {
        let n = 12;
        let sr = RingI64::with_width(16);
        let id = Matrix::from_fn(n, |i, j| i64::from(i == j));
        let zero = Matrix::filled(n, 0i64);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        let a = Matrix::from_fn(n, |_, _| rng.gen_range(-20..20));
        let mut s = session(n);
        let got = mm_three_d(&mut s, &sr, &a.to_rows(), &id.to_rows()).unwrap();
        assert_eq!(Matrix::from_rows(got), a);
        let mut s = session(n);
        let got = mm_three_d(&mut s, &sr, &zero.to_rows(), &a.to_rows()).unwrap();
        assert_eq!(Matrix::from_rows(got), zero);
    }

    #[test]
    fn shape_errors_are_reported() {
        let mut s = session(4);
        let bad = vec![vec![false; 3]; 4];
        let good = vec![vec![false; 4]; 4];
        assert!(matches!(
            mm_three_d(&mut s, &BoolSemiring, &bad, &good),
            Err(MatmulError::Shape(_))
        ));
    }
}

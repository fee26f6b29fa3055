//! Sparse matrix multiplication on the congested clique (Le Gall tier).
//!
//! Le Gall (arXiv:1608.02674) shows that multiplying matrices with `m`
//! nonzeros needs only `O((m/n)^{2/3}/n^{1/3} + 1)` rounds — far below the
//! dense-3D `O(n^{1/3})` when `m ≪ n²`. This module lands the practically
//! dominant part of that result for the workspace's semirings:
//!
//! 1. **Nonzero-count agreement via gossip**: every node broadcasts its
//!    per-band nonzero counts for its rows of `A` and `B` (one sized
//!    all-to-all collective, [`cc_routing::RoutePlan::all_to_all`]). After
//!    the gossip every
//!    payload size below is *global knowledge*, which is exactly the
//!    legitimacy requirement of the header-free sized routing tier.
//! 2. **Load-balanced redistribution of nonzero triples**: each row holder
//!    ships, per 3D block, only its nonzero `(column, value)` pairs —
//!    `⌈log₂ band⌉ + w` bits per triple instead of `band · w` bits per
//!    block row — over the balanced megastream
//!    ([`cc_routing::RoutePlan::balanced`], [`cc_routing::RoutePlan::sized`]).
//! 3. **Band-local combine**: workers multiply their sparse blocks locally,
//!    combining all same-`(row, column)` contributions inside the block,
//!    then ship dense partial rows (their sizes are functions of `n` alone,
//!    so no second gossip is needed) to the row owners, which sum.
//!
//! Outputs are **bit-identical** to [`crate::mm_three_d`] and the serial
//! oracle: every workspace semiring has commutative, associative addition
//! with a true additive identity, so skipping zero terms and reordering
//! sums cannot change any output value.
//!
//! [`mm_sparse_overhead`] is the exact analytic ledger — the full
//! [`RunStats`] of a sparse run computed from the inputs without
//! simulating, asserted field-for-field the way `dolev_strong_overhead`
//! is. [`MmStrategy`] is the density-aware selector, with the crossover
//! pinned at
//! `max(nnz A, nnz B) ≤ n·⌊√n⌋` (the `m ≤ n^{3/2}` regime of the paper).

use cliquesim::{BitString, NodeId, RunStats, Session};

use cc_routing::{DemandSizes, RoutePlan};

use crate::distributed::{
    check_shapes, decode_entries, encode_entries, mm_naive_broadcast, mm_three_d, Blocking,
    MatmulError,
};
use crate::semiring::Semiring;

/// Which distributed multiplication path to run: decided by density, or
/// forced either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MmStrategy {
    /// Decide by density: run the nonzero-count gossip (which the sparse
    /// path needs anyway), then pick [`MmStrategy::Sparse`] iff
    /// `max(nnz A, nnz B) ≤ n·⌊√n⌋`, else [`MmStrategy::Dense3D`].
    Auto,
    /// Always the dense 3D schedule ([`crate::mm_three_d`]).
    Dense3D,
    /// Always the sparse path ([`mm_sparse`]).
    Sparse,
    /// The folklore `O(n)`-round baseline ([`crate::mm_naive_broadcast`]).
    NaiveBroadcast,
}

impl MmStrategy {
    /// Short tag for repro labels (`mm[...]@sparse`).
    pub fn tag(&self) -> &'static str {
        match self {
            MmStrategy::Auto => "auto",
            MmStrategy::Dense3D => "dense3d",
            MmStrategy::Sparse => "sparse",
            MmStrategy::NaiveBroadcast => "naive",
        }
    }

    /// The Auto crossover: sparse wins while `nnz ≤ n·⌊√n⌋` (the paper's
    /// `m ≤ n^{3/2}` regime, integer-exact so tests can pin both sides).
    pub fn sparse_threshold(n: usize) -> usize {
        n * isqrt(n)
    }

    /// Resolve `Auto` against agreed nonzero totals; concrete strategies
    /// return themselves.
    pub fn resolve(self, n: usize, nnz_a: usize, nnz_b: usize) -> MmStrategy {
        match self {
            MmStrategy::Auto => {
                if nnz_a.max(nnz_b) <= Self::sparse_threshold(n) {
                    MmStrategy::Sparse
                } else {
                    MmStrategy::Dense3D
                }
            }
            other => other,
        }
    }
}

/// Integer square root: the largest `r` with `r·r ≤ n`.
fn isqrt(n: usize) -> usize {
    if n < 2 {
        return n;
    }
    let mut r = (n as f64).sqrt() as usize;
    while r * r > n {
        r -= 1;
    }
    while (r + 1) * (r + 1) <= n {
        r += 1;
    }
    r
}

/// Outcome of a strategy-dispatched multiplication.
#[derive(Clone, Debug)]
pub struct MmRun<E> {
    /// Node `v`'s row of the product.
    pub rows: Vec<Vec<E>>,
    /// The concrete path that ran (never [`MmStrategy::Auto`]).
    pub resolved: MmStrategy,
}

/// Per-row, per-band nonzero counts of both inputs, as agreed by the
/// gossip round: `a[u][k]` counts nonzeros of `A[u, band k]`.
struct NnzCounts {
    a: Vec<Vec<usize>>,
    b: Vec<Vec<usize>>,
}

impl NnzCounts {
    fn total_a(&self) -> usize {
        self.a.iter().map(|r| r.iter().sum::<usize>()).sum()
    }

    fn total_b(&self) -> usize {
        self.b.iter().map(|r| r.iter().sum::<usize>()).sum()
    }
}

/// Count the nonzeros of `rows[u]` within each band.
fn band_counts<S: Semiring>(sr: &S, bl: &Blocking, rows: &[Vec<S::Elem>]) -> Vec<Vec<usize>> {
    let zero = sr.zero();
    rows.iter()
        .map(|row| {
            (0..bl.t)
                .map(|k| bl.members(k).filter(|&c| row[c] != zero).count())
                .collect()
        })
        .collect()
}

/// Width of one gossiped count: band occupancy is in `0..=band_size`.
fn count_width(bl: &Blocking) -> usize {
    BitString::width_for(bl.band_size + 1)
}

/// Phase 0: every node broadcasts its `2t` per-band counts; all nodes end
/// with the same global count table (the agreement that legitimises sized
/// routing for the input-dependent phases below).
fn gossip_counts<S: Semiring>(
    session: &mut Session,
    sr: &S,
    bl: &Blocking,
    a_rows: &[Vec<S::Elem>],
    b_rows: &[Vec<S::Elem>],
) -> Result<NnzCounts, MatmulError> {
    let n = session.n();
    let t = bl.t;
    let cw = count_width(bl);
    let cnt_a = band_counts(sr, bl, a_rows);
    let cnt_b = band_counts(sr, bl, b_rows);
    let payloads: Vec<BitString> = (0..n)
        .map(|u| {
            let mut bits = BitString::with_capacity(2 * t * cw);
            for k in 0..t {
                bits.push_uint(cnt_a[u][k] as u64, cw);
            }
            for j in 0..t {
                bits.push_uint(cnt_b[u][j] as u64, cw);
            }
            bits
        })
        .collect();
    let views = RoutePlan::direct().sized().all_to_all(session, payloads)?;

    // Decode the agreed table from node 0's view (all views are equal:
    // delivery is reliable) and cross-check it against the local counts.
    let mut a = Vec::with_capacity(n);
    let mut b = Vec::with_capacity(n);
    for u in 0..n {
        let mut r = views[0][u].reader();
        let mut ra = Vec::with_capacity(t);
        let mut rb = Vec::with_capacity(t);
        for _ in 0..t {
            ra.push(r.read_uint(cw).map_err(MatmulError::Decode)? as usize);
        }
        for _ in 0..t {
            rb.push(r.read_uint(cw).map_err(MatmulError::Decode)? as usize);
        }
        r.expect_end().map_err(MatmulError::Decode)?;
        a.push(ra);
        b.push(rb);
    }
    debug_assert_eq!(a, cnt_a, "gossiped A counts diverge from local counts");
    debug_assert_eq!(b, cnt_b, "gossiped B counts diverge from local counts");
    Ok(NnzCounts { a, b })
}

/// Encode the nonzeros of `row` restricted to band `band` as
/// `(band-local column index, value)` pairs — the "nonzero triples" of the
/// redistribution (the row index is implicit in the sender).
fn encode_sparse_chunk<S: Semiring>(
    sr: &S,
    lw: usize,
    band: std::ops::Range<usize>,
    row: &[S::Elem],
) -> BitString {
    let zero = sr.zero();
    let start = band.start;
    let mut out = BitString::new();
    for c in band {
        if row[c] != zero {
            out.push_uint((c - start) as u64, lw);
            sr.encode(row[c], &mut out);
        }
    }
    out
}

/// Decode a sparse chunk of `count` `(local column, value)` pairs.
fn decode_sparse_chunk<S: Semiring>(
    sr: &S,
    lw: usize,
    count: usize,
    bits: &BitString,
) -> Result<Vec<(usize, S::Elem)>, MatmulError> {
    let mut r = bits.reader();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let c = r.read_uint(lw).map_err(MatmulError::Decode)? as usize;
        let v = sr.decode(&mut r)?;
        out.push((c, v));
    }
    r.expect_end().map_err(MatmulError::Decode)?;
    Ok(out)
}

/// Sparse semiring multiplication: gossip, sparse redistribution,
/// band-local combine. Same input/output convention as
/// [`crate::mm_three_d`]; outputs are bit-identical to it. Strictly
/// cheaper in rounds on sparse instances (`m ≲ n^{3/2}`); on dense inputs
/// the dense path wins — that trade is what [`MmStrategy::Auto`] arbitrates.
pub fn mm_sparse<S: Semiring>(
    session: &mut Session,
    sr: &S,
    a_rows: &[Vec<S::Elem>],
    b_rows: &[Vec<S::Elem>],
) -> Result<Vec<Vec<S::Elem>>, MatmulError> {
    let n = session.n();
    check_shapes(n, a_rows, b_rows)?;
    let bl = Blocking::for_n(n);
    let counts = gossip_counts(session, sr, &bl, a_rows, b_rows)?;
    mm_sparse_with_counts(session, sr, &bl, &counts, a_rows, b_rows)
}

/// The sparse path after the gossip (shared by [`mm_sparse`] and the
/// `Auto` dispatcher, which has already paid for the count agreement).
fn mm_sparse_with_counts<S: Semiring>(
    session: &mut Session,
    sr: &S,
    bl: &Blocking,
    counts: &NnzCounts,
    a_rows: &[Vec<S::Elem>],
    b_rows: &[Vec<S::Elem>],
) -> Result<Vec<Vec<S::Elem>>, MatmulError> {
    let n = session.n();
    let t = bl.t;
    let lw = BitString::width_for(bl.band_size);

    // ---- Phase 1: redistribute nonzero triples (sized balanced) ----------
    // Same worker schedule as the dense path, but payloads carry only
    // nonzero (local column, value) pairs; sizes are fixed by the gossiped
    // counts, so every node can split the header-free streams. Payload
    // order per (sender, worker) pair is A first, then B, as in the dense
    // path (the i == k case is the only one where both reach one worker).
    let mut demands: Vec<Vec<(NodeId, BitString)>> = vec![Vec::new(); n];
    for u in 0..n {
        let bu = bl.band(u);
        for j in 0..t {
            for k in 0..t {
                let w = bl.worker(bu, j, k);
                if w == u {
                    continue; // local hand-off: worker reads its own rows
                }
                demands[u].push((
                    NodeId::from(w),
                    encode_sparse_chunk(sr, lw, bl.members(k), &a_rows[u]),
                ));
            }
        }
        for i in 0..t {
            for j in 0..t {
                let w = bl.worker(i, j, bu);
                if w == u {
                    continue;
                }
                demands[u].push((
                    NodeId::from(w),
                    encode_sparse_chunk(sr, lw, bl.members(j), &b_rows[u]),
                ));
            }
        }
    }
    let delivered = RoutePlan::balanced().sized().run(session, demands)?;

    // ---- Local band-local combine ----------------------------------------
    // Worker (i, j, k) multiplies sparse A_ik against sparse B_kj into a
    // dense (band i × band j) block, combining every same-cell
    // contribution locally before anything is shipped.
    let mut products: Vec<Option<Vec<Vec<S::Elem>>>> = vec![None; n];
    for w in 0..n {
        let Some((i, j, k)) = bl.triple(w) else {
            continue;
        };
        let rows_i: Vec<usize> = bl.members(i).collect();
        let rows_k: Vec<usize> = bl.members(k).collect();
        let cols_j = bl.members(j).len();

        let mut from: Vec<Vec<&BitString>> = vec![Vec::new(); n];
        for (src, payload) in &delivered[w] {
            from[src.index()].push(payload);
        }

        // Sparse A rows, indexed by position within band i.
        let mut a_sparse: Vec<Vec<(usize, S::Elem)>> = Vec::with_capacity(rows_i.len());
        for &u in &rows_i {
            let entries = if u == w {
                let start = bl.members(k).start;
                let zero = sr.zero();
                bl.members(k)
                    .filter(|&c| a_rows[u][c] != zero)
                    .map(|c| (c - start, a_rows[u][c]))
                    .collect()
            } else {
                let payload = from[u]
                    .first()
                    .ok_or_else(|| MatmulError::Shape(format!("worker {w} missing A chunk {u}")))?;
                decode_sparse_chunk(sr, lw, counts.a[u][k], payload)?
            };
            a_sparse.push(entries);
        }
        // Sparse B rows, indexed by position within band k (the payload is
        // the last of the ≤ 2 this sender shipped here; A came first).
        let mut b_sparse: Vec<Vec<(usize, S::Elem)>> = Vec::with_capacity(rows_k.len());
        for &u in &rows_k {
            let entries = if u == w {
                let start = bl.members(j).start;
                let zero = sr.zero();
                bl.members(j)
                    .filter(|&c| b_rows[u][c] != zero)
                    .map(|c| (c - start, b_rows[u][c]))
                    .collect()
            } else {
                let payload = from[u]
                    .last()
                    .ok_or_else(|| MatmulError::Shape(format!("worker {w} missing B chunk {u}")))?;
                decode_sparse_chunk(sr, lw, counts.b[u][j], payload)?
            };
            b_sparse.push(entries);
        }

        let mut p: Vec<Vec<S::Elem>> = vec![vec![sr.zero(); cols_j]; rows_i.len()];
        for (ri, a_row) in a_sparse.iter().enumerate() {
            for &(l, va) in a_row {
                for &(c, vb) in &b_sparse[l] {
                    p[ri][c] = sr.add(p[ri][c], sr.mul(va, vb));
                }
            }
        }
        products[w] = Some(p);
    }

    // ---- Phase 2: ship dense partial rows to row owners (sized) ----------
    // Partial sizes are pure functions of n (cols_j · entry bits), so the
    // sized schedule stays legitimate without gossiping product structure.
    let mut demands2: Vec<Vec<(NodeId, BitString)>> = vec![Vec::new(); n];
    let mut local_partials: Vec<Vec<(usize, BitString)>> = vec![Vec::new(); n];
    for w in 0..n {
        let Some((i, j, _)) = bl.triple(w) else {
            continue;
        };
        let p = products[w].as_ref().expect("worker has product");
        let cols_j = bl.members(j).len();
        for (ri, r) in bl.members(i).enumerate() {
            let payload = encode_entries(sr, (0..cols_j).map(|c| p[ri][c]));
            if r == w {
                local_partials[r].push((w, payload));
            } else {
                demands2[w].push((NodeId::from(r), payload));
            }
        }
    }
    let delivered2 = RoutePlan::balanced().sized().run(session, demands2)?;

    // Row owners sum partials (identical to the dense path).
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

/// Strategy-dispatched multiplication: the single entry point consumers
/// (triangle detection, distance products) call.
///
/// `Auto` runs the count gossip first (in-model agreement on the nonzero
/// totals), then branches; its cost is the gossip plus the chosen path.
pub fn mm_with_strategy<S: Semiring>(
    session: &mut Session,
    sr: &S,
    strategy: MmStrategy,
    a_rows: &[Vec<S::Elem>],
    b_rows: &[Vec<S::Elem>],
) -> Result<MmRun<S::Elem>, MatmulError> {
    let n = session.n();
    match strategy {
        MmStrategy::Dense3D => Ok(MmRun {
            rows: mm_three_d(session, sr, a_rows, b_rows)?,
            resolved: MmStrategy::Dense3D,
        }),
        MmStrategy::NaiveBroadcast => Ok(MmRun {
            rows: mm_naive_broadcast(session, sr, a_rows, b_rows)?,
            resolved: MmStrategy::NaiveBroadcast,
        }),
        MmStrategy::Sparse => Ok(MmRun {
            rows: mm_sparse(session, sr, a_rows, b_rows)?,
            resolved: MmStrategy::Sparse,
        }),
        MmStrategy::Auto => {
            check_shapes(n, a_rows, b_rows)?;
            let bl = Blocking::for_n(n);
            let counts = gossip_counts(session, sr, &bl, a_rows, b_rows)?;
            let resolved = strategy.resolve(n, counts.total_a(), counts.total_b());
            let rows = match resolved {
                MmStrategy::Sparse => {
                    mm_sparse_with_counts(session, sr, &bl, &counts, a_rows, b_rows)?
                }
                _ => mm_three_d(session, sr, a_rows, b_rows)?,
            };
            Ok(MmRun { rows, resolved })
        }
    }
}

/// The exact analytic ledger of [`mm_sparse`]: the [`RunStats`] a session
/// accumulates running the sparse path on these inputs, computed without
/// simulating.
///
/// Recomputes every phase's demand-size shape independently (per-band
/// nonzero counting, the same worker schedule) and prices it with
/// [`RoutePlan::cost`] for the plan that phase runs; the session
/// combination (rounds add, max fields max) matches `RunStats::absorb`. Asserted field-for-field against
/// simulation in the conformance suite, the way `dolev_strong_overhead`
/// is.
pub fn mm_sparse_overhead<S: Semiring>(
    n: usize,
    bandwidth: usize,
    sr: &S,
    a_rows: &[Vec<S::Elem>],
    b_rows: &[Vec<S::Elem>],
) -> RunStats {
    let bl = Blocking::for_n(n);
    let t = bl.t;
    let eb = sr.entry_bits();
    let cw = count_width(&bl);
    let lw = BitString::width_for(bl.band_size);
    let cnt_a = band_counts(sr, &bl, a_rows);
    let cnt_b = band_counts(sr, &bl, b_rows);

    // Phase 0: gossip of 2t counts per node to every other node.
    let gossip: DemandSizes = (0..n)
        .map(|u| {
            (0..n)
                .filter(|&w| w != u)
                .map(|w| (w, 2 * t * cw))
                .collect()
        })
        .collect();
    let mut stats = RoutePlan::direct().sized().cost(&gossip, bandwidth);

    // Phase 1: sparse triple redistribution, sizes from the count table.
    let mut sizes1: DemandSizes = vec![Vec::new(); n];
    for u in 0..n {
        let bu = bl.band(u);
        for j in 0..t {
            for k in 0..t {
                let w = bl.worker(bu, j, k);
                if w != u {
                    sizes1[u].push((w, cnt_a[u][k] * (lw + eb)));
                }
            }
        }
        for i in 0..t {
            for j in 0..t {
                let w = bl.worker(i, j, bu);
                if w != u {
                    sizes1[u].push((w, cnt_b[u][j] * (lw + eb)));
                }
            }
        }
    }
    stats.absorb(&RoutePlan::balanced().sized().cost(&sizes1, bandwidth));

    // Phase 2: dense partial rows from every worker to its row owners.
    let mut sizes2: DemandSizes = vec![Vec::new(); n];
    for w in 0..n {
        let Some((i, j, _)) = bl.triple(w) else {
            continue;
        };
        let cols_j = bl.members(j).len();
        for r in bl.members(i) {
            if r != w {
                sizes2[w].push((r, cols_j * eb));
            }
        }
    }
    stats.absorb(&RoutePlan::balanced().sized().cost(&sizes2, bandwidth));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{
        mm_local, BoolSemiring, Matrix, RingI64, TropicalSemiring, TROPICAL_INF,
    };
    use cliquesim::Engine;
    use rand::{Rng, SeedableRng};

    fn session(n: usize) -> Session {
        Session::new(Engine::new(n))
    }

    /// A random matrix with exactly `m` nonzeros (if `m ≤ n²`).
    fn sparse_ring(n: usize, m: usize, seed: u64) -> Matrix<i64> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut mat = Matrix::filled(n, 0i64);
        let mut placed = 0;
        while placed < m {
            let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if mat.get(i, j) == 0 {
                let mut v = rng.gen_range(-30i64..30);
                if v == 0 {
                    v = 7;
                }
                mat.set(i, j, v);
                placed += 1;
            }
        }
        mat
    }

    #[test]
    fn sparse_matches_local_and_dense_bitwise() {
        let sr = RingI64::with_width(16);
        for n in [4usize, 9, 16, 27] {
            let m = n * 2;
            let a = sparse_ring(n, m, 10 + n as u64);
            let b = sparse_ring(n, m, 20 + n as u64);
            let expect = mm_local(&sr, &a, &b);
            let mut s1 = session(n);
            let sparse = mm_sparse(&mut s1, &sr, &a.to_rows(), &b.to_rows()).unwrap();
            let mut s2 = session(n);
            let dense = mm_three_d(&mut s2, &sr, &a.to_rows(), &b.to_rows()).unwrap();
            assert_eq!(sparse, dense, "n={n}: sparse and dense outputs diverge");
            assert_eq!(Matrix::from_rows(sparse), expect, "n={n}");
        }
    }

    #[test]
    fn sparse_handles_tropical_and_bool() {
        let n = 16;
        let trop = TropicalSemiring::with_width(12);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let gen = |rng: &mut rand_chacha::ChaCha8Rng| {
            Matrix::from_fn(n, |_, _| {
                if rng.gen_bool(0.8) {
                    TROPICAL_INF
                } else {
                    rng.gen_range(0..400)
                }
            })
        };
        let a = gen(&mut rng);
        let b = gen(&mut rng);
        let mut s = session(n);
        let got = mm_sparse(&mut s, &trop, &a.to_rows(), &b.to_rows()).unwrap();
        assert_eq!(Matrix::from_rows(got), mm_local(&trop, &a, &b));

        let boolean = Matrix::from_fn(n, |i, j| (i * 5 + j) % 11 == 0);
        let mut s = session(n);
        let got = mm_sparse(
            &mut s,
            &BoolSemiring,
            &boolean.to_rows(),
            &boolean.to_rows(),
        )
        .unwrap();
        assert_eq!(
            Matrix::from_rows(got),
            mm_local(&BoolSemiring, &boolean, &boolean)
        );
    }

    #[test]
    fn sparse_beats_dense_rounds_on_sparse_instances() {
        // The tentpole acceptance at the small end (the full n ∈ {64, 125,
        // 216} sweep lives in tests/matmul_suite.rs).
        let sr = RingI64::with_width(16);
        let n = 27;
        let m = 27 * 5; // ≤ n^{3/2} = 140 is violated; use m = n·√n ≈ 140
        let m = m.min(MmStrategy::sparse_threshold(n));
        let a = sparse_ring(n, m, 1);
        let b = sparse_ring(n, m, 2);
        let mut s1 = session(n);
        mm_sparse(&mut s1, &sr, &a.to_rows(), &b.to_rows()).unwrap();
        let mut s2 = session(n);
        mm_three_d(&mut s2, &sr, &a.to_rows(), &b.to_rows()).unwrap();
        assert!(
            s1.stats().rounds < s2.stats().rounds,
            "sparse {} rounds vs dense {}",
            s1.stats().rounds,
            s2.stats().rounds
        );
    }

    #[test]
    fn overhead_matches_simulation_field_for_field() {
        let sr = RingI64::with_width(16);
        for n in [4usize, 9, 16, 27] {
            let a = sparse_ring(n, n * 2, 30 + n as u64);
            let b = sparse_ring(n, n, 40 + n as u64);
            let mut s = session(n);
            mm_sparse(&mut s, &sr, &a.to_rows(), &b.to_rows()).unwrap();
            let analytic = mm_sparse_overhead(n, s.bandwidth(), &sr, &a.to_rows(), &b.to_rows());
            assert_eq!(analytic, s.stats(), "n={n}");
        }
    }

    #[test]
    fn auto_resolves_on_the_pinned_threshold() {
        let n = 16;
        let thr = MmStrategy::sparse_threshold(n);
        assert_eq!(thr, 64);
        assert_eq!(MmStrategy::Auto.resolve(n, thr, thr), MmStrategy::Sparse);
        assert_eq!(MmStrategy::Auto.resolve(n, thr + 1, 0), MmStrategy::Dense3D);
        assert_eq!(MmStrategy::Auto.resolve(n, 0, thr + 1), MmStrategy::Dense3D);
        assert_eq!(
            MmStrategy::Sparse.resolve(n, usize::MAX, 0),
            MmStrategy::Sparse
        );
    }

    #[test]
    fn strategy_dispatch_is_output_identical() {
        let sr = RingI64::with_width(16);
        let n = 9;
        let a = sparse_ring(n, 12, 7);
        let b = sparse_ring(n, 12, 8);
        let expect = mm_local(&sr, &a, &b);
        for strategy in [
            MmStrategy::Auto,
            MmStrategy::Dense3D,
            MmStrategy::Sparse,
            MmStrategy::NaiveBroadcast,
        ] {
            let mut s = session(n);
            let run = mm_with_strategy(&mut s, &sr, strategy, &a.to_rows(), &b.to_rows()).unwrap();
            assert_eq!(Matrix::from_rows(run.rows), expect, "{strategy:?}");
            assert_ne!(run.resolved, MmStrategy::Auto, "{strategy:?} must resolve");
        }
    }

    #[test]
    fn degenerate_shapes() {
        let sr = RingI64::with_width(16);
        // n = 1: no links, zero rounds, correct product.
        let a = Matrix::filled(1, 3i64);
        let b = Matrix::filled(1, 5i64);
        let mut s = session(1);
        let got = mm_sparse(&mut s, &sr, &a.to_rows(), &b.to_rows()).unwrap();
        assert_eq!(got, vec![vec![15i64]]);
        assert_eq!(s.stats().rounds, 0);
        let analytic = mm_sparse_overhead(1, s.bandwidth(), &sr, &a.to_rows(), &b.to_rows());
        assert_eq!(analytic, s.stats());

        // All-zero inputs.
        let n = 8;
        let zero = Matrix::filled(n, 0i64);
        let mut s = session(n);
        let got = mm_sparse(&mut s, &sr, &zero.to_rows(), &zero.to_rows()).unwrap();
        assert_eq!(Matrix::from_rows(got), zero);

        // A single nonzero.
        let mut single = Matrix::filled(n, 0i64);
        single.set(3, 5, 9);
        let mut id = Matrix::filled(n, 0i64);
        for i in 0..n {
            id.set(i, i, 1);
        }
        let mut s = session(n);
        let got = mm_sparse(&mut s, &sr, &single.to_rows(), &id.to_rows()).unwrap();
        assert_eq!(Matrix::from_rows(got), single);
    }

    #[test]
    fn isqrt_is_exact() {
        for n in 0..2000usize {
            let r = isqrt(n);
            assert!(r * r <= n && (r + 1) * (r + 1) > n, "n={n} r={r}");
        }
    }
}

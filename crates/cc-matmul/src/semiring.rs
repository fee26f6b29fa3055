//! Semirings and dense matrices.
//!
//! Figure 1 of the paper distinguishes Boolean, ring, and `(min,+)`
//! ("tropical") matrix multiplication; all three share the same
//! communication structure and differ only in the carrier semiring and its
//! wire encoding. The paper assumes matrix entries "encodable in O(log n)
//! bits"; the encodings here make the entry width explicit so the engine
//! can enforce it.

use cliquesim::{BitReader, BitString, DecodeError};

/// A semiring with a fixed-width wire encoding for its elements.
pub trait Semiring: Clone + Send + Sync + 'static {
    /// Carrier type.
    type Elem: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static;

    /// Additive identity (also the "no contribution" value).
    fn zero(&self) -> Self::Elem;

    /// Semiring addition (`∨`, `min`, or `+`).
    fn add(&self, a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// Semiring multiplication (`∧`, `+`, or `×`).
    fn mul(&self, a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// Exact number of bits one element occupies on the wire.
    fn entry_bits(&self) -> usize;

    /// Append one element to a bit string (exactly [`Self::entry_bits`] bits).
    fn encode(&self, e: Self::Elem, out: &mut BitString);

    /// Read one element back.
    fn decode(&self, r: &mut BitReader<'_>) -> Result<Self::Elem, DecodeError>;
}

/// The Boolean semiring `({0,1}, ∨, ∧)`: Boolean matrix multiplication,
/// adjacency-matrix powers, transitive closure.
#[derive(Clone, Copy, Debug, Default)]
pub struct BoolSemiring;

impl Semiring for BoolSemiring {
    type Elem = bool;

    #[inline]
    fn zero(&self) -> bool {
        false
    }

    #[inline]
    fn add(&self, a: bool, b: bool) -> bool {
        a || b
    }

    #[inline]
    fn mul(&self, a: bool, b: bool) -> bool {
        a && b
    }

    fn entry_bits(&self) -> usize {
        1
    }

    #[inline]
    fn encode(&self, e: bool, out: &mut BitString) {
        out.push(e);
    }

    #[inline]
    fn decode(&self, r: &mut BitReader<'_>) -> Result<bool, DecodeError> {
        r.read_bit()
    }
}

/// The tropical (min, +) semiring over `u64` with an explicit infinity,
/// used for distance-product / APSP computations.
///
/// Elements are encoded in `width` bits; the all-ones pattern is the
/// infinity sentinel, so finite values must be `< 2^width − 1`.
#[derive(Clone, Copy, Debug)]
pub struct TropicalSemiring {
    width: usize,
}

/// Infinity for [`TropicalSemiring`] values (matches `cc-graph`'s `INF`).
pub const TROPICAL_INF: u64 = u64::MAX / 4;

impl TropicalSemiring {
    /// A tropical semiring whose finite values fit in `width` bits
    /// (`2 ≤ width ≤ 62`).
    pub fn with_width(width: usize) -> Self {
        assert!((2..=62).contains(&width), "tropical width out of range");
        Self { width }
    }

    /// Width needed so that every value `≤ max_finite` (plus the sentinel)
    /// is encodable.
    pub fn for_max_value(max_finite: u64) -> Self {
        let width = (64 - (max_finite + 1).leading_zeros() as usize).clamp(2, 62);
        Self::with_width(width)
    }

    fn sentinel(&self) -> u64 {
        (1u64 << self.width) - 1
    }
}

impl Semiring for TropicalSemiring {
    type Elem = u64;

    #[inline]
    fn zero(&self) -> u64 {
        TROPICAL_INF
    }

    #[inline]
    fn add(&self, a: u64, b: u64) -> u64 {
        a.min(b)
    }

    #[inline]
    fn mul(&self, a: u64, b: u64) -> u64 {
        // Branch-free: each operand is capped at INF < 2⁶² before the add,
        // so the sum cannot overflow, and a capped operand alone makes it
        // at least INF.
        (a.min(TROPICAL_INF) + b.min(TROPICAL_INF)).min(TROPICAL_INF)
    }

    fn entry_bits(&self) -> usize {
        self.width
    }

    #[inline]
    fn encode(&self, e: u64, out: &mut BitString) {
        let v = if e >= TROPICAL_INF {
            self.sentinel()
        } else {
            assert!(
                e < self.sentinel(),
                "tropical value {e} too wide for {} bits",
                self.width
            );
            e
        };
        out.push_uint(v, self.width);
    }

    #[inline]
    fn decode(&self, r: &mut BitReader<'_>) -> Result<u64, DecodeError> {
        let v = r.read_uint(self.width)?;
        Ok(if v == self.sentinel() {
            TROPICAL_INF
        } else {
            v
        })
    }
}

/// The ring `(ℤ, +, ×)` over `i64` with wrapping arithmetic, encoded in
/// two's complement. Entries wrap mod `2^width`; choose the width so that
/// intermediate sums stay in range (e.g. counting walks in small graphs).
#[derive(Clone, Copy, Debug)]
pub struct RingI64 {
    width: usize,
}

impl RingI64 {
    /// A ring whose elements are encoded in `width` bits (`2..=64`).
    pub fn with_width(width: usize) -> Self {
        assert!((2..=64).contains(&width));
        Self { width }
    }

    fn wrap(&self, v: i64) -> i64 {
        if self.width == 64 {
            return v;
        }
        // Reduce into [-2^(w-1), 2^(w-1)).
        let m = 1i128 << self.width;
        let mut r = (v as i128).rem_euclid(m);
        if r >= m / 2 {
            r -= m;
        }
        r as i64
    }
}

impl Semiring for RingI64 {
    type Elem = i64;

    #[inline]
    fn zero(&self) -> i64 {
        0
    }

    #[inline]
    fn add(&self, a: i64, b: i64) -> i64 {
        self.wrap(a.wrapping_add(b))
    }

    #[inline]
    fn mul(&self, a: i64, b: i64) -> i64 {
        self.wrap(a.wrapping_mul(b))
    }

    fn entry_bits(&self) -> usize {
        self.width
    }

    #[inline]
    fn encode(&self, e: i64, out: &mut BitString) {
        let mask = if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        };
        out.push_uint((e as u64) & mask, self.width);
    }

    #[inline]
    fn decode(&self, r: &mut BitReader<'_>) -> Result<i64, DecodeError> {
        let raw = r.read_uint(self.width)?;
        // Sign-extend.
        if self.width < 64 && raw & (1u64 << (self.width - 1)) != 0 {
            Ok((raw | !((1u64 << self.width) - 1)) as i64)
        } else {
            Ok(raw as i64)
        }
    }
}

/// A dense row-major `n × n` matrix over a semiring carrier.
#[derive(Clone, PartialEq, Debug)]
pub struct Matrix<T> {
    n: usize,
    data: Vec<T>,
}

impl<T: Copy> Matrix<T> {
    /// Constant matrix.
    pub fn filled(n: usize, v: T) -> Self {
        Self {
            n,
            data: vec![v; n * n],
        }
    }

    /// Build entry-wise.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                data.push(f(i, j));
            }
        }
        Self { n, data }
    }

    /// Assemble from per-node rows (the distributed output format).
    pub fn from_rows(rows: Vec<Vec<T>>) -> Self {
        let n = rows.len();
        let mut data = Vec::with_capacity(n * n);
        for r in rows {
            assert_eq!(r.len(), n, "rows must be square");
            data.extend_from_slice(&r);
        }
        Self { n, data }
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Entry `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> T {
        self.data[i * self.n + j]
    }

    /// Set entry `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        self.data[i * self.n + j] = v;
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Rows as owned vectors (the distributed input format).
    pub fn to_rows(&self) -> Vec<Vec<T>> {
        (0..self.n).map(|i| self.row(i).to_vec()).collect()
    }
}

/// Reference (local) semiring product, the ground truth for the distributed
/// algorithms.
pub fn mm_local<S: Semiring>(sr: &S, a: &Matrix<S::Elem>, b: &Matrix<S::Elem>) -> Matrix<S::Elem> {
    let n = a.n();
    assert_eq!(n, b.n());
    Matrix::from_fn(n, |i, j| {
        let mut acc = sr.zero();
        for k in 0..n {
            acc = sr.add(acc, sr.mul(a.get(i, k), b.get(k, j)));
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bool_semiring_is_or_and() {
        let s = BoolSemiring;
        assert!(!s.zero());
        assert!(s.add(true, false));
        assert!(!s.mul(true, false));
        let mut bits = BitString::new();
        s.encode(true, &mut bits);
        s.encode(false, &mut bits);
        let mut r = bits.reader();
        assert!(s.decode(&mut r).unwrap());
        assert!(!s.decode(&mut r).unwrap());
    }

    #[test]
    fn tropical_roundtrip_and_inf() {
        let s = TropicalSemiring::with_width(8);
        let mut bits = BitString::new();
        s.encode(5, &mut bits);
        s.encode(TROPICAL_INF, &mut bits);
        s.encode(254, &mut bits);
        let mut r = bits.reader();
        assert_eq!(s.decode(&mut r).unwrap(), 5);
        assert_eq!(s.decode(&mut r).unwrap(), TROPICAL_INF);
        assert_eq!(s.decode(&mut r).unwrap(), 254);
        assert_eq!(s.add(3, TROPICAL_INF), 3);
        assert_eq!(s.mul(3, TROPICAL_INF), TROPICAL_INF);
        assert_eq!(s.mul(3, 4), 7);
        assert_eq!(s.zero(), TROPICAL_INF);
    }

    #[test]
    fn tropical_mul_equals_the_branching_definition() {
        // The definition `mul` had before it went branch-free.
        fn branching(a: u64, b: u64) -> u64 {
            if a >= TROPICAL_INF || b >= TROPICAL_INF {
                TROPICAL_INF
            } else {
                (a + b).min(TROPICAL_INF)
            }
        }
        let s = TropicalSemiring::with_width(8);
        let inf = TROPICAL_INF;
        let grid = [0, 1, inf - 2, inf - 1, inf, inf + 1, u64::MAX];
        for a in grid {
            for b in grid {
                assert_eq!(s.mul(a, b), branching(a, b), "mul({a}, {b})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "too wide")]
    fn tropical_rejects_overflow_values() {
        let s = TropicalSemiring::with_width(4);
        let mut bits = BitString::new();
        s.encode(15, &mut bits); // 15 == sentinel for width 4
    }

    #[test]
    fn tropical_width_selection() {
        assert_eq!(TropicalSemiring::for_max_value(0).entry_bits(), 2);
        assert_eq!(TropicalSemiring::for_max_value(2).entry_bits(), 2);
        assert_eq!(TropicalSemiring::for_max_value(3).entry_bits(), 3);
        assert_eq!(TropicalSemiring::for_max_value(1000).entry_bits(), 10);
    }

    #[test]
    fn ring_wraps_and_sign_extends() {
        let s = RingI64::with_width(8);
        assert_eq!(s.add(120, 10), -126); // wraps mod 256 into [-128, 128)
        assert_eq!(s.mul(16, 16), 0);
        let mut bits = BitString::new();
        s.encode(-3, &mut bits);
        s.encode(100, &mut bits);
        let mut r = bits.reader();
        assert_eq!(s.decode(&mut r).unwrap(), -3);
        assert_eq!(s.decode(&mut r).unwrap(), 100);
    }

    #[test]
    fn matrix_basics() {
        let m = Matrix::from_fn(3, |i, j| (i * 3 + j) as i64);
        assert_eq!(m.get(1, 2), 5);
        assert_eq!(m.row(2), &[6, 7, 8]);
        let rows = m.to_rows();
        assert_eq!(Matrix::from_rows(rows), m);
    }

    #[test]
    fn local_mm_identity() {
        let s = RingI64::with_width(32);
        let id = Matrix::from_fn(4, |i, j| i64::from(i == j));
        let a = Matrix::from_fn(4, |i, j| (i + 2 * j) as i64);
        assert_eq!(mm_local(&s, &a, &id), a);
        assert_eq!(mm_local(&s, &id, &a), a);
    }

    proptest! {
        #[test]
        fn prop_bool_mm_matches_reachability(seed in any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let n = 6;
            let a = Matrix::from_fn(n, |_, _| rng.gen_bool(0.4));
            let b = Matrix::from_fn(n, |_, _| rng.gen_bool(0.4));
            let c = mm_local(&BoolSemiring, &a, &b);
            for i in 0..n {
                for j in 0..n {
                    let expect = (0..n).any(|k| a.get(i, k) && b.get(k, j));
                    prop_assert_eq!(c.get(i, j), expect);
                }
            }
        }

        #[test]
        fn prop_ring_encode_roundtrip(v in any::<i64>(), width in 2usize..=64) {
            let s = RingI64::with_width(width);
            let w = s.wrap(v);
            let mut bits = BitString::new();
            s.encode(w, &mut bits);
            let mut r = bits.reader();
            prop_assert_eq!(s.decode(&mut r).unwrap(), w);
        }

        #[test]
        fn prop_tropical_mm_is_min_plus(seed in any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let s = TropicalSemiring::with_width(16);
            let n = 5;
            let gen = |rng: &mut rand_chacha::ChaCha8Rng| {
                Matrix::from_fn(n, |_, _| if rng.gen_bool(0.3) { TROPICAL_INF } else { rng.gen_range(0..100) })
            };
            let a = gen(&mut rng);
            let b = gen(&mut rng);
            let c = mm_local(&s, &a, &b);
            for i in 0..n {
                for j in 0..n {
                    let expect = (0..n)
                        .map(|k| s.mul(a.get(i, k), b.get(k, j)))
                        .min()
                        .unwrap();
                    prop_assert_eq!(c.get(i, j), expect);
                }
            }
        }
    }
}

//! Dense real matrix with partial-pivot LU: the fallback and the test
//! reference of the engine's sparse LU.
//!
//! Every Newton solve factors through [`crate::SparseLu`], whose pivot
//! order is fixed by one symbolic analysis per netlist. When a static
//! pivot fails its threshold test (or the pattern has no transversal),
//! that one factorisation runs here instead: [`LuFactors::refactor`]
//! chooses the largest pivot of each column and applies the
//! scale-relative singularity test, so every singular verdict the
//! engine reports is this module's. The sparse path counts each such
//! fallback in `SimStats::factor_refactor_fallbacks`.
//!
//! Factorisation and solution are split: [`LuFactors`] holds the packed
//! `L`/`U` triangles plus the pivot permutation, so one factorisation can
//! back a run of solves (the exact factor cache and chord iterations
//! replay it). [`DenseMatrix::solve_in_place`] is the fused one-shot path
//! for small systems and an independent reference in tests; the split
//! solve reassociates its triangular-sweep dot products four ways for
//! pipeline throughput, so the two paths agree to round-off (asserted by
//! the `factor_solve_matches_fused*` tests), not bit for bit. The
//! `dense_lu` and `sparse_lu` cases of the `engine` bench time both
//! factorisations on the comparator's matrix.

/// The scale-relative singularity ratio: a pivot no larger than this
/// fraction of its factored column's largest magnitude is refused.
pub(crate) const SINGULAR_RATIO: f64 = 1e-14;

/// Why a factorisation was refused: the best pivot available in `col` had
/// magnitude `pivot_mag`, vanishingly small relative to the largest
/// magnitude in that factored column.
///
/// Carried by every solve/factor failure so callers can report *why* a
/// matrix was deemed singular instead of collapsing the cause into a bare
/// `bool`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingularInfo {
    /// Elimination column at which no acceptable pivot existed.
    pub col: usize,
    /// Magnitude of the best pivot found in that column (0.0 for an
    /// all-zero column; NaN pivots report as NaN).
    pub pivot_mag: f64,
}

/// A dense, row-major `n × n` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero matrix of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        DenseMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Matrix dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Resets all entries to zero without reallocating.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Reads entry `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.n + col]
    }

    /// Writes entry `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        self.data[row * self.n + col] = value;
    }

    /// Adds `value` to entry `(row, col)` — the fundamental MNA stamp.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        self.data[row * self.n + col] += value;
    }

    /// Computes `self · x`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        self.data
            .chunks_exact(self.n)
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Factors the matrix in place (LU with partial pivoting) and solves
    /// `A·x = b`, overwriting `b` with `x`.
    ///
    /// Returns `Err(SingularInfo)` if the matrix is numerically singular:
    /// the best pivot available in a column is vanishingly small *relative
    /// to the largest magnitude in that factored column* (ratio below
    /// `1e-14`), so uniformly rescaling the system never changes the
    /// verdict — a well-conditioned matrix that happens to live near
    /// `1e-300` still solves, while exact cancellation is still caught at
    /// any scale. The contents of `self` and `b` are unspecified in that
    /// case.
    ///
    /// # Errors
    /// [`SingularInfo`] naming the offending column and its best pivot.
    ///
    /// # Panics
    /// Panics if `b.len() != self.dim()`.
    pub fn solve_in_place(&mut self, b: &mut [f64]) -> Result<(), SingularInfo> {
        assert_eq!(b.len(), self.n);
        let n = self.n;
        let a = &mut self.data;
        for k in 0..n {
            // Partial pivot: find the largest |a[i][k]| for i >= k.
            let mut piv = k;
            let mut max = a[k * n + k].abs();
            for i in (k + 1)..n {
                let v = a[i * n + k].abs();
                if v > max {
                    max = v;
                    piv = i;
                }
            }
            // Scale-relative singularity test: compare the pivot against
            // the largest magnitude anywhere in the factored column,
            // including the already-eliminated U part above the diagonal.
            // An all-zero column (col_max == 0) and a NaN pivot both land
            // in the singular branch.
            let mut col_max = max;
            for i in 0..k {
                col_max = col_max.max(a[i * n + k].abs());
            }
            if max.is_nan() || max <= col_max * SINGULAR_RATIO {
                return Err(SingularInfo {
                    col: k,
                    pivot_mag: max,
                });
            }
            if piv != k {
                for j in 0..n {
                    a.swap(k * n + j, piv * n + j);
                }
                b.swap(k, piv);
            }
            let pivot = a[k * n + k];
            for i in (k + 1)..n {
                let factor = a[i * n + k] / pivot;
                if factor == 0.0 {
                    continue;
                }
                a[i * n + k] = 0.0;
                for j in (k + 1)..n {
                    a[i * n + j] -= factor * a[k * n + j];
                }
                b[i] -= factor * b[k];
            }
        }
        // Back substitution.
        for k in (0..n).rev() {
            let mut acc = b[k];
            for j in (k + 1)..n {
                acc -= a[k * n + j] * b[j];
            }
            b[k] = acc / a[k * n + k];
        }
        Ok(())
    }
}

/// A completed LU factorisation with partial pivoting: `U` on and above
/// the diagonal, the elimination multipliers of `L` (unit diagonal
/// implied) below it, and the row-interchange sequence.
///
/// Factor once with [`LuFactors::refactor`], then run any number of
/// [`LuFactors::solve`] calls. The factorisation arithmetic (pivot
/// choices, multipliers, singularity test) is identical — operation for
/// operation — to [`DenseMatrix::solve_in_place`]. Replaying the same
/// factors against the same right-hand side is bit-deterministic, which
/// is what the engine's exact factor cache relies on when the dense
/// fallback produced the held factors.
///
/// Buffers are retained across `refactor` calls, so a long-lived
/// `LuFactors` allocates only when the dimension grows.
#[derive(Debug, Clone, Default)]
pub struct LuFactors {
    n: usize,
    /// Packed factors, row-major: `U` on/above the diagonal, `L`
    /// multipliers strictly below.
    lu: Vec<f64>,
    /// `piv[k]` is the row swapped with `k` at elimination step `k`
    /// (`piv[k] == k` when no interchange happened).
    piv: Vec<usize>,
}

impl LuFactors {
    /// An empty factorisation (dimension 0); fill via
    /// [`LuFactors::refactor`].
    pub fn new() -> Self {
        LuFactors::default()
    }

    /// Factored dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Factors `a` into `self`, reusing the existing buffers. `a` itself
    /// is untouched (the engine keeps the assembled matrix for delta
    /// scans and residual checks).
    ///
    /// The singularity test is the same scale-relative pivot test as
    /// [`DenseMatrix::solve_in_place`]; on failure the factor contents
    /// are unspecified and the previous factorisation is lost.
    ///
    /// # Errors
    /// [`SingularInfo`] naming the offending column and its best pivot.
    pub fn refactor(&mut self, a: &DenseMatrix) -> Result<(), SingularInfo> {
        let n = a.n;
        self.n = n;
        self.lu.clear();
        self.lu.extend_from_slice(&a.data);
        self.piv.clear();
        self.piv.resize(n, 0);
        let lu = &mut self.lu;
        for k in 0..n {
            let mut piv = k;
            let mut max = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
                if v > max {
                    max = v;
                    piv = i;
                }
            }
            let mut col_max = max;
            for i in 0..k {
                col_max = col_max.max(lu[i * n + k].abs());
            }
            if max.is_nan() || max <= col_max * SINGULAR_RATIO {
                return Err(SingularInfo {
                    col: k,
                    pivot_mag: max,
                });
            }
            self.piv[k] = piv;
            if piv != k {
                for j in 0..n {
                    lu.swap(k * n + j, piv * n + j);
                }
            }
            let pivot = lu[k * n + k];
            for i in (k + 1)..n {
                let factor = lu[i * n + k] / pivot;
                // `factor == 0.0` rows are skipped exactly as in the fused
                // path (an underflowed multiplier must not turn a later
                // `inf · 0` into NaN); the zero multiplier stored here
                // makes `solve` skip the same rows.
                lu[i * n + k] = factor;
                if factor == 0.0 {
                    continue;
                }
                for j in (k + 1)..n {
                    lu[i * n + j] -= factor * lu[k * n + j];
                }
            }
        }
        Ok(())
    }

    /// Solves `A·x = b` using the stored factors, overwriting `b` with
    /// `x`.
    ///
    /// Every dense-fallback solve goes through this routine, so its
    /// arithmetic only has to be deterministic, not bit-matched to the fused
    /// [`DenseMatrix::solve_in_place`] (which survives for one-shot
    /// small systems and as an independent reference in tests). That
    /// freedom is spent on speed: both triangular sweeps run their dot
    /// products with a fixed four-way association, which breaks the
    /// fused-multiply-add latency chain a sequential accumulation is
    /// pinned to and roughly triples solve throughput at circuit sizes.
    ///
    /// # Panics
    /// Panics if `b.len() != self.dim()` or nothing has been factored.
    pub fn solve(&self, b: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n);
        let lu = &self.lu;
        // The stored multipliers are the *final* packed `L`: every row
        // interchange of the factorisation — including ones later than
        // the multiplier's own elimination step — has been applied to
        // them. So `b` must be fully permuted *first*, then eliminated;
        // interleaving the swaps with the elimination would pair
        // multipliers with pre-swap `b` entries.
        for k in 0..n {
            let piv = self.piv[k];
            if piv != k {
                b.swap(k, piv);
            }
        }
        // Forward elimination, traversed row by row so the packed `L` is
        // read in storage order (the column-by-column formulation strides
        // by `n` and thrashes the cache): b[i] -= L[i,·]·b[..i].
        for i in 1..n {
            let row = &lu[i * n..i * n + i];
            b[i] -= dot4(row, &b[..i]);
        }
        // Back substitution: b[k] = (b[k] − U[k,k+1..]·b[k+1..]) / U[k,k].
        for k in (0..n).rev() {
            let row = &lu[k * n..(k + 1) * n];
            let acc = b[k] - dot4(&row[k + 1..], &b[k + 1..]);
            b[k] = acc / row[k];
        }
    }
}

/// Dot product with a fixed four-way association:
/// `(Σ₀ + Σ₁) + (Σ₂ + Σ₃)` over the interleaved quarters, then the
/// remainder folded in sequentially. Deterministic for a given input,
/// and four independent accumulators keep the multiply-add pipeline full
/// instead of serialising on one. Quads of `a` that are entirely zero
/// are skipped — factored circuit matrices stay sparse even after
/// fill-in, so most quads of a packed `L`/`U` row contribute nothing.
#[inline]
fn dot4(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    for (qa, qb) in a.chunks_exact(4).zip(b.chunks_exact(4)) {
        if qa[0] == 0.0 && qa[1] == 0.0 && qa[2] == 0.0 && qa[3] == 0.0 {
            continue;
        }
        acc[0] += qa[0] * qb[0];
        acc[1] += qa[1] * qb[1];
        acc[2] += qa[2] * qb[2];
        acc[3] += qa[3] * qb[3];
    }
    let mut dot = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    let n4 = a.len() & !3;
    for (&xa, &xb) in a[n4..].iter().zip(&b[n4..]) {
        dot += xa * xb;
    }
    dot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let mut m = DenseMatrix::zeros(3);
        for i in 0..3 {
            m.set(i, i, 1.0);
        }
        let mut b = vec![1.0, 2.0, 3.0];
        assert!(m.solve_in_place(&mut b).is_ok());
        assert_eq!(b, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_general_system() {
        // [2 1; 1 3] x = [3; 5] -> x = [0.8, 1.4]
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 0, 2.0);
        m.set(0, 1, 1.0);
        m.set(1, 0, 1.0);
        m.set(1, 1, 3.0);
        let mut b = vec![3.0, 5.0];
        assert!(m.solve_in_place(&mut b).is_ok());
        assert!((b[0] - 0.8).abs() < 1e-12);
        assert!((b[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [0 1; 1 0] x = [2; 3] -> x = [3, 2]
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 1, 1.0);
        m.set(1, 0, 1.0);
        let mut b = vec![2.0, 3.0];
        assert!(m.solve_in_place(&mut b).is_ok());
        assert!((b[0] - 3.0).abs() < 1e-12);
        assert!((b[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singular_with_location() {
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 0, 1.0);
        m.set(0, 1, 2.0);
        m.set(1, 0, 2.0);
        m.set(1, 1, 4.0);
        let mut b = vec![1.0, 2.0];
        let info = m.solve_in_place(&mut b).expect_err("rank-1 is singular");
        // Column 0 eliminates fine; the cancellation shows at column 1.
        assert_eq!(info.col, 1);
        assert!(info.pivot_mag.abs() < 4.0 * 1e-14 * 1.001);
    }

    #[test]
    fn solves_badly_scaled_but_well_conditioned() {
        // The same well-conditioned system as `solves_general_system`,
        // scaled down to ~1e-302. The old absolute pivot floor (1e-300)
        // called this singular even though the solution is unchanged by
        // uniform scaling.
        let s = 1e-302;
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 0, 2.0 * s);
        m.set(0, 1, 1.0 * s);
        m.set(1, 0, 1.0 * s);
        m.set(1, 1, 3.0 * s);
        let mut b = vec![3.0 * s, 5.0 * s];
        assert!(m.solve_in_place(&mut b).is_ok(), "scaled system must solve");
        assert!((b[0] - 0.8).abs() < 1e-12);
        assert!((b[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn scaled_singular_still_detected() {
        // Exact cancellation is singular at any scale — the relative test
        // may not weaken detection for small matrices.
        for s in [1e-250, 1.0, 1e250] {
            let mut m = DenseMatrix::zeros(2);
            m.set(0, 0, 1.0 * s);
            m.set(0, 1, 2.0 * s);
            m.set(1, 0, 2.0 * s);
            m.set(1, 1, 4.0 * s);
            let mut b = vec![s, 2.0 * s];
            assert!(
                m.solve_in_place(&mut b).is_err(),
                "scale {s:e} must stay singular"
            );
        }
    }

    #[test]
    fn wide_dynamic_range_diagonal_solves() {
        // Rows at wildly different scales are fine as long as each column
        // has a healthy pivot relative to its own magnitude.
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 0, 1e300);
        m.set(1, 1, 1e-300);
        let mut b = vec![2e300, 3e-300];
        assert!(m.solve_in_place(&mut b).is_ok());
        assert!((b[0] - 2.0).abs() < 1e-12);
        assert!((b[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_matrix_is_singular() {
        let mut m = DenseMatrix::zeros(3);
        let mut b = vec![1.0, 1.0, 1.0];
        let info = m.solve_in_place(&mut b).expect_err("zero is singular");
        assert_eq!(info.col, 0);
        assert_eq!(info.pivot_mag, 0.0);
    }

    #[test]
    fn mul_vec_matches_solution() {
        let mut m = DenseMatrix::zeros(3);
        let entries = [
            (0, 0, 4.0),
            (0, 1, -1.0),
            (1, 0, -1.0),
            (1, 1, 4.0),
            (1, 2, -1.0),
            (2, 1, -1.0),
            (2, 2, 4.0),
        ];
        for (r, c, v) in entries {
            m.set(r, c, v);
        }
        let a = m.clone();
        let mut b = vec![1.0, 2.0, 3.0];
        let b0 = b.clone();
        assert!(m.solve_in_place(&mut b).is_ok());
        let back = a.mul_vec(&b);
        for (x, y) in back.iter().zip(&b0) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    /// Deterministic pseudo-random diagonally dominant system.
    fn random_system(n: usize, seed0: u64) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(n);
        let mut seed = seed0;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) - 0.5
        };
        for r in 0..n {
            let mut rowsum = 0.0;
            for c in 0..n {
                if r != c {
                    let v = next();
                    m.set(r, c, v);
                    rowsum += v.abs();
                }
            }
            m.set(r, r, rowsum + 1.0);
        }
        m
    }

    #[test]
    fn larger_random_like_system_roundtrips() {
        let n = 40;
        let m = random_system(n, 0x9e3779b97f4a7c15u64);
        let a = m.clone();
        let xtrue: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25 - 3.0).collect();
        let mut b = a.mul_vec(&xtrue);
        let mut fused = m.clone();
        assert!(fused.solve_in_place(&mut b).is_ok());
        for (x, y) in b.iter().zip(&xtrue) {
            assert!((x - y).abs() < 1e-8);
        }
    }

    /// Asserts the split solve agrees with the fused reference to
    /// round-off. The two paths intentionally associate their dot
    /// products differently (the split path runs four accumulators for
    /// pipeline throughput), so agreement is to a tight relative
    /// tolerance, not bit-for-bit; a permutation-handling bug produces
    /// errors many orders of magnitude beyond this bound.
    fn assert_close(reference: &[f64], split: &[f64], ctx: &str) {
        for (a, b) in reference.iter().zip(split) {
            let tol = 1e-11 * a.abs().max(1.0);
            assert!((a - b).abs() <= tol, "{ctx}: {a} vs {b}");
        }
    }

    #[test]
    fn factor_solve_matches_fused() {
        for (i, seed) in [0x9e3779b97f4a7c15u64, 1995, 0xD07, 42, u64::MAX / 7]
            .into_iter()
            .enumerate()
        {
            let n = 3 + i * 17;
            let m = random_system(n, seed);
            let rhs: Vec<f64> = (0..n).map(|k| ((k * 7 % 13) as f64) - 6.0).collect();

            let mut fused = m.clone();
            let mut b_fused = rhs.clone();
            fused
                .solve_in_place(&mut b_fused)
                .expect("well-conditioned");

            let mut lu = LuFactors::new();
            lu.refactor(&m).expect("well-conditioned");
            let mut b_split = rhs.clone();
            lu.solve(&mut b_split);

            assert_close(&b_fused, &b_split, &format!("seed {seed} n {n}"));
        }
    }

    #[test]
    fn factor_solve_matches_fused_under_heavy_pivoting() {
        // Cyclically rotating the rows of a diagonally dominant system
        // moves every dominant entry off the diagonal, so elimination
        // must interchange rows at (nearly) every step — the regime the
        // interleaved-swap replay bug lived in. MNA matrices sit here:
        // voltage-source branch rows have structurally zero diagonals.
        for (i, seed) in [3u64, 0x5eed, 77, 0x9e3779b97f4a7c15]
            .into_iter()
            .enumerate()
        {
            let n = 4 + i * 13;
            let base = random_system(n, seed);
            let mut m = DenseMatrix::zeros(n);
            for r in 0..n {
                for c in 0..n {
                    m.set((r + 1) % n, c, base.get(r, c));
                }
            }
            let rhs: Vec<f64> = (0..n).map(|k| ((k * 11 % 17) as f64) - 8.0).collect();

            let mut fused = m.clone();
            let mut b_fused = rhs.clone();
            fused
                .solve_in_place(&mut b_fused)
                .expect("well-conditioned");

            let mut lu = LuFactors::new();
            lu.refactor(&m).expect("well-conditioned");
            let mut b_split = rhs.clone();
            lu.solve(&mut b_split);

            assert_close(&b_fused, &b_split, &format!("seed {seed} n {n}"));
        }
    }

    #[test]
    fn repeated_solves_are_bit_deterministic() {
        // What the factor caches actually rely on: replaying the same
        // factors against the same right-hand side is bit-deterministic.
        let n = 29;
        let m = random_system(n, 0xCAFE);
        let mut lu = LuFactors::new();
        lu.refactor(&m).expect("factors");
        let rhs: Vec<f64> = (0..n).map(|k| ((k * 5 % 11) as f64) - 5.0).collect();
        let mut first = rhs.clone();
        lu.solve(&mut first);
        for _ in 0..3 {
            let mut again = rhs.clone();
            lu.solve(&mut again);
            for (a, b) in first.iter().zip(&again) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn refactor_reuses_buffers_and_repeats_solves() {
        let n = 12;
        let m1 = random_system(n, 7);
        let m2 = random_system(n, 8);
        let mut lu = LuFactors::new();
        lu.refactor(&m1).expect("m1 factors");
        // Many solves off one factorisation agree with fresh fused solves.
        for s in 0..4 {
            let rhs: Vec<f64> = (0..n).map(|k| (k as f64) * 0.5 - s as f64).collect();
            let mut b = rhs.clone();
            lu.solve(&mut b);
            let mut fresh = m1.clone();
            let mut bf = rhs.clone();
            fresh.solve_in_place(&mut bf).expect("m1 solves");
            assert_close(&bf, &b, "m1");
        }
        // Refactoring with a different matrix switches cleanly.
        lu.refactor(&m2).expect("m2 factors");
        let rhs: Vec<f64> = (0..n).map(|k| 1.0 - (k as f64)).collect();
        let mut b = rhs.clone();
        lu.solve(&mut b);
        let mut fresh = m2.clone();
        let mut bf = rhs.clone();
        fresh.solve_in_place(&mut bf).expect("m2 solves");
        assert_close(&bf, &b, "m2");
    }

    #[test]
    fn refactor_reports_singular_column() {
        let mut m = DenseMatrix::zeros(3);
        m.set(0, 0, 1.0);
        m.set(0, 1, 2.0);
        m.set(1, 0, 2.0);
        m.set(1, 1, 4.0);
        m.set(2, 2, 1.0);
        let mut lu = LuFactors::new();
        let info = lu.refactor(&m).expect_err("rank-deficient");
        assert_eq!(info.col, 1);
    }
}

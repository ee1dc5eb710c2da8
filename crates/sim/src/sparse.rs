//! Sparse LU for the MNA system: one symbolic analysis per netlist
//! topology, a numeric-only refactor per factorisation, and the dense
//! partial-pivot LU as the fallback.
//!
//! A [`Simulator`](crate::Simulator) never changes its netlist, so the
//! set of matrix cells any assembly can touch is fixed when the stamp
//! plan is compiled. [`SparseMatrix`] holds that pattern in compressed
//! rows, and assembly adds into its compact value array through slot
//! indices computed once. [`SparseLu::analyse`] then fixes everything
//! about the factorisation that does not depend on values:
//!
//! 1. a *transversal*, a row permutation that puts a structural nonzero
//!    on every diagonal (MNA voltage-source branch rows have none);
//! 2. a *minimum-degree* order on the symmetrised pattern of the
//!    permuted matrix, chosen to keep fill small;
//! 3. the fill pattern of `L` and `U` under that static order, and the
//!    target index of every elimination update.
//!
//! [`SparseLu::refactor`] is then a straight run over precomputed indices.
//! Its pivots are static, so each is tested before use: it must be
//! finite, at least [`PIVOT_TOL`] times the largest active entry of its
//! column, and pass the dense path's scale-relative singularity test
//! against the whole factored column. A pivot that fails any of these
//! swaps its row with the row of its column's largest active entry; the
//! fill is redone for that row order (same column order, cached by the
//! swaps that led to it) and the factorisation starts over. After
//! [`MAX_REPAIRS`] swaps, or when no row is larger, that one
//! factorisation is the dense [`LuFactors`] with partial pivoting, which
//! also makes every singular verdict. Every refactor starts from the
//! primary order again, so its factors depend on its matrix alone.

use crate::matrix::{DenseMatrix, LuFactors, SingularInfo, SINGULAR_RATIO};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Threshold of the static-pivot test: a pivot is accepted when its
/// magnitude is at least this fraction of the largest magnitude among the
/// active (not yet eliminated) entries of its column. The value is the
/// usual choice of threshold-pivoting circuit solvers (KLU's default).
const PIVOT_TOL: f64 = 1e-3;

/// A square sparse matrix with a fixed pattern: compressed rows, columns
/// ascending within a row, one value per pattern entry ("slot").
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    n: usize,
    row_ptr: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl SparseMatrix {
    /// A zero matrix of dimension `n` whose pattern is the given
    /// `(row, col)` cells; repeated cells merge.
    ///
    /// # Panics
    /// Panics if a cell lies outside `n × n`.
    pub(crate) fn from_pattern(n: usize, cells: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (r, c) in cells {
            assert!(r < n && c < n, "cell ({r}, {c}) outside a {n}x{n} pattern");
            rows[r].push(c as u32);
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        row_ptr.push(0);
        for mut row in rows {
            row.sort_unstable();
            row.dedup();
            cols.extend_from_slice(&row);
            row_ptr.push(cols.len() as u32);
        }
        let vals = vec![0.0; cols.len()];
        SparseMatrix {
            n,
            row_ptr,
            cols,
            vals,
        }
    }

    /// The pattern and values of the nonzero cells of a dense matrix.
    pub fn from_dense(m: &DenseMatrix) -> Self {
        let n = m.dim();
        let cells = (0..n).flat_map(|r| (0..n).map(move |c| (r, c)));
        let mut s = SparseMatrix::from_pattern(n, cells.filter(|&(r, c)| m.get(r, c) != 0.0));
        for r in 0..n {
            for k in s.row(r) {
                s.vals[k] = m.get(r, s.cols[k] as usize);
            }
        }
        s
    }

    /// Matrix dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of pattern entries.
    #[inline]
    pub(crate) fn nnz(&self) -> usize {
        self.cols.len()
    }

    #[inline]
    fn row(&self, r: usize) -> std::ops::Range<usize> {
        self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize
    }

    /// The slot of cell `(r, c)`, or `None` outside the pattern.
    pub(crate) fn slot(&self, r: usize, c: usize) -> Option<usize> {
        let range = self.row(r);
        let start = range.start;
        self.cols[range]
            .binary_search(&(c as u32))
            .ok()
            .map(|k| start + k)
    }

    /// Zeroes every value, keeping the pattern.
    pub(crate) fn clear(&mut self) {
        self.vals.fill(0.0);
    }

    /// Overwrites every value with `other`'s, which must share this
    /// matrix's pattern.
    #[inline]
    pub(crate) fn copy_values_from(&mut self, other: &SparseMatrix) {
        debug_assert!(self.row_ptr == other.row_ptr && self.cols == other.cols);
        self.vals.copy_from_slice(&other.vals);
    }

    /// Adds `v` to the value in `slot`.
    #[inline]
    pub(crate) fn add_at(&mut self, slot: usize, v: f64) {
        self.vals[slot] += v;
    }

    /// The compact values, in slot order. The engine compares them
    /// bit for bit as its exact factor-cache key.
    #[inline]
    pub(crate) fn values(&self) -> &[f64] {
        &self.vals
    }

    /// The matrix as a dense one.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(self.n);
        self.scatter_into(&mut m);
        m
    }

    fn scatter_into(&self, m: &mut DenseMatrix) {
        m.clear();
        for r in 0..self.n {
            for k in self.row(r) {
                m.set(r, self.cols[k] as usize, self.vals[k]);
            }
        }
    }

    /// Subtracts `self · x` from `r` in place: with `z` on entry, `r`
    /// leaves holding the residual `z − self·x`.
    pub(crate) fn sub_mul_vec(&self, x: &[f64], r: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(r.len(), self.n);
        for (i, ri) in r.iter_mut().enumerate() {
            let range = self.row(i);
            let mut acc = 0.0;
            for (&c, &v) in self.cols[range.clone()].iter().zip(&self.vals[range]) {
                acc += v * x[c as usize];
            }
            *ri -= acc;
        }
    }
}

/// The value-independent part of a sparse factorisation.
#[derive(Debug, Clone)]
struct Symbolic {
    /// Pivot `k` sits at original row `prow[k]` and column `pcol[k]`.
    prow: Vec<u32>,
    pcol: Vec<u32>,
    /// The factor index each matrix slot is copied to.
    a_to_lu: Vec<u32>,
    /// Block `k` of the factor array is `blk[k]..blk[k + 1]`: the pivot
    /// at `blk[k]`, then the entries of `L`'s column `k` (rows below the
    /// pivot) up to `lend[k]`, then the entries of `U`'s row `k`
    /// (columns right of the pivot).
    blk: Vec<u32>,
    lend: Vec<u32>,
    /// Per factor entry: its permuted row (in `L`) or column (in `U`).
    idx: Vec<u32>,
    /// `U`'s column `k` (rows above the pivot) as factor indices, for the
    /// scale-relative test: `ucol[ucol_ptr[k]..ucol_ptr[k + 1]]`.
    ucol_ptr: Vec<u32>,
    ucol: Vec<u32>,
    /// Target index of every elimination update, in the order
    /// `refactor` performs them: step `k`, `L` entry, `U` entry.
    upd: Vec<u32>,
}

/// Row swaps a factorisation may make to repair failed static pivots
/// before it takes the dense fallback.
const MAX_REPAIRS: usize = 4;

/// Repaired analyses a [`SparseLu`] keeps; a further one replaces the
/// newest.
const MAX_REPAIRED: usize = 8;

/// Sparse LU factors of a [`SparseMatrix`] pattern, with the dense
/// partial-pivot factorisation as the fallback.
///
/// [`SparseLu::analyse`] fixes the pivot order once per pattern: a
/// transversal that puts a structural nonzero on every diagonal, then a
/// minimum-degree order of the symmetrised pattern, then the fill.
/// [`SparseLu::refactor`] is numeric only. Each static pivot must be
/// finite, at least `1e-3` of the largest active entry of its column,
/// and pass the dense path's scale-relative singularity test. A pivot
/// that fails is *repaired*: its row swaps with the row of its column's
/// largest active entry, the fill is redone in the same column order, and
/// the factorisation starts over. After four swaps, or when no row is
/// larger, that one factorisation is [`LuFactors`]' partial pivoting,
/// which also makes every singular verdict.
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// The primary analysis, keyed by no swap, then every repaired one
    /// keyed by the swaps `(step, row position)` that led to it from the
    /// primary order. Empty when the pattern has no transversal
    /// (structurally singular): every factorisation then takes the dense
    /// path.
    analyses: Vec<(Vec<(u32, u32)>, Symbolic)>,
    /// Factor values, laid out by the held analysis' `Symbolic::blk`.
    lu: Vec<f64>,
    /// Permuted right-hand side scratch of `solve`.
    work: Vec<f64>,
    /// The dense fallback's matrix and factors, allocated on first use.
    dense: Option<Box<(DenseMatrix, LuFactors)>>,
    /// The analysis the held factors were computed in, `None` when they
    /// came from the dense fallback.
    held: Option<usize>,
}

impl SparseLu {
    /// The symbolic analysis of `a`'s pattern (its values are ignored).
    pub fn analyse(a: &SparseMatrix) -> Self {
        let n = a.n;
        let analyses: Vec<_> = transversal(a)
            .map(|rmatch| {
                let (prow, pcol) = order(a, &rmatch);
                (Vec::new(), symbolic_in_order(a, prow, pcol))
            })
            .into_iter()
            .collect();
        let nnz = analyses.first().map_or(0, |(_, s)| s.idx.len());
        SparseLu {
            n,
            analyses,
            lu: vec![0.0; nnz],
            work: vec![0.0; n],
            dense: None,
            held: Some(0),
        }
    }

    /// Factored dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Entries of `L` and `U` under the primary static order (pivots
    /// included), or `None` for a structurally singular pattern.
    pub fn factor_nnz(&self) -> Option<usize> {
        self.analyses.first().map(|(_, s)| s.idx.len())
    }

    /// `true` when the held factors came from the dense fallback.
    #[inline]
    pub fn is_dense(&self) -> bool {
        self.held.is_none()
    }

    /// `true` when the held factors are sparse in a repaired order.
    #[inline]
    pub fn is_repaired(&self) -> bool {
        self.held.is_some_and(|k| k > 0)
    }

    /// Factors `a`, which must have the analysed pattern: in the primary
    /// static order when every pivot passes its test, else in the order
    /// that up to four row swaps repair, otherwise (and for a
    /// structurally singular pattern) with the dense partial-pivot LU.
    /// The primary order is always tried first, so the factors depend on
    /// `a` alone, not on earlier factorisations.
    /// [`SparseLu::is_dense`] and [`SparseLu::is_repaired`] tell which
    /// path ran.
    ///
    /// # Errors
    /// [`SingularInfo`] from the dense path; the sparse path never calls
    /// a matrix singular.
    pub fn refactor(&mut self, a: &SparseMatrix) -> Result<(), SingularInfo> {
        assert_eq!(a.n, self.n, "matrix and analysis differ in dimension");
        if self.analyses.is_empty() {
            return self.dense_refactor(a);
        }
        let mut at = 0;
        let mut swaps: Vec<(u32, u32)> = Vec::new();
        loop {
            let sym = &self.analyses[at].1;
            let Err(repair) = numeric(sym, a, &mut self.lu) else {
                self.held = Some(at);
                return Ok(());
            };
            let Some((k, i)) = repair.filter(|_| swaps.len() < MAX_REPAIRS) else {
                return self.dense_refactor(a);
            };
            swaps.push((k as u32, i as u32));
            at = match self.analyses.iter().position(|(key, _)| *key == swaps) {
                Some(j) => j,
                None => {
                    let mut prow = sym.prow.clone();
                    prow.swap(k, i);
                    let repaired = symbolic_in_order(a, prow, sym.pcol.clone());
                    if self.analyses.len() > MAX_REPAIRED {
                        self.analyses.pop();
                    }
                    self.analyses.push((swaps.clone(), repaired));
                    self.analyses.len() - 1
                }
            };
        }
    }

    fn dense_refactor(&mut self, a: &SparseMatrix) -> Result<(), SingularInfo> {
        let n = self.n;
        let fallback = self
            .dense
            .get_or_insert_with(|| Box::new((DenseMatrix::zeros(n), LuFactors::new())));
        a.scatter_into(&mut fallback.0);
        self.held = None;
        fallback.1.refactor(&fallback.0)
    }

    /// Solves `A·x = b` with the held factors, overwriting `b` with `x`.
    ///
    /// # Panics
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&mut self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n);
        let Some(at) = self.held else {
            let fallback = self.dense.as_ref().expect("dense factors held");
            fallback.1.solve(b);
            return;
        };
        let sym = &self.analyses.get(at).expect("sparse factors held").1;
        let (lu, y) = (&self.lu, &mut self.work);
        for (yk, &r) in y.iter_mut().zip(&sym.prow) {
            *yk = b[r as usize];
        }
        // Forward: unit-diagonal `L`, by columns.
        for k in 0..self.n {
            let yk = y[k];
            let (d, le) = (sym.blk[k] as usize, sym.lend[k] as usize);
            for (&v, &i) in lu[d + 1..le].iter().zip(&sym.idx[d + 1..le]) {
                y[i as usize] -= v * yk;
            }
        }
        // Backward: `U`, by rows.
        for k in (0..self.n).rev() {
            let (d, le, end) = (
                sym.blk[k] as usize,
                sym.lend[k] as usize,
                sym.blk[k + 1] as usize,
            );
            let mut acc = y[k];
            for (&v, &j) in lu[le..end].iter().zip(&sym.idx[le..end]) {
                acc -= v * y[j as usize];
            }
            y[k] = acc / lu[d];
        }
        for (&yk, &c) in y.iter().zip(&sym.pcol) {
            b[c as usize] = yk;
        }
    }
}

/// Factors `a` in `sym`'s static order into `lu`. A pivot that fails its
/// test stops it with the repair to try: `Some((k, i))` swaps pivot `k`'s
/// row with row position `i`, which holds the largest active entry of
/// its column, and `None` means no row is larger (or a value is not
/// finite), so only the dense path can help.
fn numeric(
    sym: &Symbolic,
    a: &SparseMatrix,
    lu: &mut Vec<f64>,
) -> Result<(), Option<(usize, usize)>> {
    debug_assert_eq!(a.nnz(), sym.a_to_lu.len());
    lu.clear();
    lu.resize(sym.idx.len(), 0.0);
    for (&t, &v) in sym.a_to_lu.iter().zip(&a.vals) {
        lu[t as usize] = v;
    }
    let mut next = 0;
    for k in 0..sym.prow.len() {
        let d = sym.blk[k] as usize;
        let le = sym.lend[k] as usize;
        let end = sym.blk[k + 1] as usize;
        let piv = lu[d];
        let mut active = piv.abs();
        let mut largest = None;
        for (l, v) in (d + 1..le).zip(&lu[d + 1..le]) {
            if v.abs() > active {
                active = v.abs();
                largest = Some(l);
            }
        }
        let mut col = active;
        for &u in &sym.ucol[sym.ucol_ptr[k] as usize..sym.ucol_ptr[k + 1] as usize] {
            col = col.max(lu[u as usize].abs());
        }
        let mag = piv.abs();
        if !(mag.is_finite() && mag >= PIVOT_TOL * active && mag > SINGULAR_RATIO * col) {
            let finite = lu[d..le].iter().all(|v| v.is_finite());
            return Err(largest.filter(|_| finite).map(|l| (k, sym.idx[l] as usize)));
        }
        let width = end - le;
        for l in d + 1..le {
            let m = lu[l] / piv;
            lu[l] = m;
            let targets = &sym.upd[next..next + width];
            next += width;
            // An underflowed multiplier skips its row, as in the
            // dense path (a later `inf · 0` must not become NaN).
            if m == 0.0 {
                continue;
            }
            for (u, &t) in (le..end).zip(targets) {
                lu[t as usize] -= m * lu[u];
            }
        }
    }
    Ok(())
}

/// A maximum transversal: `rmatch[c]` is the row matched to column `c`,
/// every match a structural nonzero. Diagonal cells are matched first,
/// so rows keep their own diagonal where they have one; augmenting paths
/// then route the rest. `None` if the pattern is structurally singular.
fn transversal(a: &SparseMatrix) -> Option<Vec<u32>> {
    const NONE: u32 = u32::MAX;
    let n = a.n;
    // Rows of each column.
    let mut col_rows: Vec<Vec<u32>> = vec![Vec::new(); n];
    for r in 0..n {
        for k in a.row(r) {
            col_rows[a.cols[k] as usize].push(r as u32);
        }
    }
    let mut rmatch = vec![NONE; n];
    let mut cmatch = vec![NONE; n]; // column matched to each row
    for c in 0..n {
        if a.slot(c, c).is_some() {
            rmatch[c] = c as u32;
            cmatch[c] = c as u32;
        }
    }
    let mut seen = vec![usize::MAX; n]; // rows visited, stamped by search
    for c0 in 0..n {
        if rmatch[c0] != NONE {
            continue;
        }
        // Depth-first search for an augmenting path from column `c0`:
        // `stack` holds (column, next candidate position). Each column
        // first looks ahead for a free row (MC21), so a branch column
        // swaps with an adjacent node row rather than pulling a chain of
        // node rows off their diagonals.
        let mut stack: Vec<(usize, usize)> = vec![(c0, 0)];
        let mut free = None;
        while let Some(top) = stack.last_mut() {
            let rows = &col_rows[top.0];
            if top.1 == 0 {
                free = rows
                    .iter()
                    .map(|&r| r as usize)
                    .find(|&r| cmatch[r] == NONE);
                if free.is_some() {
                    break;
                }
            }
            let mut next = None;
            while top.1 < rows.len() {
                let r = rows[top.1] as usize;
                top.1 += 1;
                if seen[r] != c0 {
                    seen[r] = c0;
                    next = Some(r);
                    break;
                }
            }
            match next {
                Some(r) => stack.push((cmatch[r] as usize, 0)),
                None => {
                    stack.pop();
                }
            }
        }
        // Augment along the stack: each column takes the row its search
        // step came through, the deepest one takes the free row.
        let mut row = free?;
        while let Some((c, _)) = stack.pop() {
            let prev = rmatch[c];
            rmatch[c] = row as u32;
            cmatch[row] = c as u32;
            row = prev as usize;
        }
    }
    Some(rmatch)
}

/// Fixed-width bit sets over `0..n`, one per vertex or row.
struct BitRows {
    words: usize,
    bits: Vec<u64>,
}

impl BitRows {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        BitRows {
            words,
            bits: vec![0; n * words],
        }
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    fn set(&mut self, i: usize, j: usize) {
        self.bits[i * self.words + j / 64] |= 1 << (j % 64);
    }

    fn clear(&mut self, i: usize, j: usize) {
        self.bits[i * self.words + j / 64] &= !(1 << (j % 64));
    }

    /// `row[dst] |= row[src]`, restricted to the members above `k`
    /// (all of them for `k = None`).
    fn or_into(&mut self, dst: usize, src: usize, k: Option<usize>) {
        let w = self.words;
        let from = k.map_or(0, |k| k + 1);
        for q in from / 64..w {
            let mut v = self.bits[src * w + q];
            if q == from / 64 {
                v &= u64::MAX << (from % 64);
            }
            self.bits[dst * w + q] |= v;
        }
    }

    /// The least member of row `i` in `from..to`.
    fn next_in(&self, i: usize, from: usize, to: usize) -> Option<usize> {
        if from >= to {
            return None;
        }
        let row = self.row(i);
        let mut q = from / 64;
        let mut bits = row[q] & (u64::MAX << (from % 64));
        while bits == 0 {
            q += 1;
            if q * 64 >= to {
                return None;
            }
            bits = row[q];
        }
        let j = q * 64 + bits.trailing_zeros() as usize;
        (j < to).then_some(j)
    }

    fn count(&self, i: usize) -> u32 {
        self.row(i).iter().map(|w| w.count_ones()).sum()
    }

    /// The set members of `row`, ascending.
    fn members(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
        row.iter().enumerate().flat_map(|(k, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(k * 64 + b)
            })
        })
    }
}

/// Minimum-degree order of the graph whose adjacency sets are `adj`
/// (no self loops), by explicit elimination: the vertex of least degree
/// (lowest index on ties) goes next, and its neighbours become a clique.
fn minimum_degree(n: usize, mut adj: BitRows) -> Vec<u32> {
    let mut deg: Vec<u32> = (0..n).map(|v| adj.count(v)).collect();
    let mut alive = vec![true; n];
    // Every live vertex has an entry (its degree, itself); entries whose
    // vertex is gone or whose degree moved since are skipped on the way.
    let mut heap: BinaryHeap<Reverse<(u32, u32)>> =
        (0..n).map(|v| Reverse((deg[v], v as u32))).collect();
    let mut order = Vec::with_capacity(n);
    let mut nbrs = vec![0u64; adj.words];
    while let Some(Reverse((d, v))) = heap.pop() {
        let v = v as usize;
        if !alive[v] || deg[v] != d {
            continue;
        }
        alive[v] = false;
        order.push(v as u32);
        nbrs.copy_from_slice(adj.row(v));
        for u in BitRows::members(&nbrs) {
            adj.or_into(u, v, None);
            adj.clear(u, u);
            adj.clear(u, v);
            deg[u] = adj.count(u);
            heap.push(Reverse((deg[u], u as u32)));
        }
    }
    order
}

/// The primary pivot order of `a` with row `rmatch[c]` on column `c`'s
/// diagonal: the minimum-degree order of the symmetrised pattern, as
/// `(prow, pcol)`, pivot `k` at row `prow[k]` and column `pcol[k]`.
fn order(a: &SparseMatrix, rmatch: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let n = a.n;
    // Symmetrised pattern of the row-permuted matrix B (B row c = A row
    // rmatch[c]).
    let mut adj = BitRows::new(n);
    for (i, &r) in rmatch.iter().enumerate() {
        for k in a.row(r as usize) {
            let j = a.cols[k] as usize;
            if i != j {
                adj.set(i, j);
                adj.set(j, i);
            }
        }
    }
    let pcol = minimum_degree(n, adj);
    let prow = pcol.iter().map(|&c| rmatch[c as usize]).collect();
    (prow, pcol)
}

/// The symbolic factorisation of `a` with pivot `k` at row `prow[k]` and
/// column `pcol[k]`.
fn symbolic_in_order(a: &SparseMatrix, prow: Vec<u32>, pcol: Vec<u32>) -> Symbolic {
    let n = a.n;
    // The pivot position of each original row and column.
    let (mut rpos, mut cpos) = (vec![0u32; n], vec![0u32; n]);
    for k in 0..n {
        rpos[prow[k] as usize] = k as u32;
        cpos[pcol[k] as usize] = k as u32;
    }

    // Fill, row by row: row `i` of the permuted matrix gains row `k`'s
    // columns right of `k` for every `k < i` in its own growing pattern
    // (rows above `i` are final by then).
    let mut rows = BitRows::new(n);
    for (r, &i) in rpos.iter().enumerate() {
        for k in a.row(r) {
            rows.set(i as usize, cpos[a.cols[k] as usize] as usize);
        }
    }
    let mut lcols: Vec<Vec<u32>> = vec![Vec::new(); n];
    for i in 0..n {
        let mut from = 0;
        while let Some(k) = rows.next_in(i, from, i) {
            rows.or_into(i, k, Some(k));
            lcols[k].push(i as u32);
            from = k + 1;
        }
    }

    // Layout: block k = pivot, L column k, U row k.
    let mut blk = Vec::with_capacity(n + 1);
    let mut lend = Vec::with_capacity(n);
    let mut idx: Vec<u32> = Vec::new();
    for (k, lcol) in lcols.iter().enumerate() {
        blk.push(idx.len() as u32);
        idx.push(k as u32);
        idx.extend_from_slice(lcol);
        lend.push(idx.len() as u32);
        idx.extend(
            BitRows::members(rows.row(k))
                .filter(|&j| j > k)
                .map(|j| j as u32),
        );
    }
    blk.push(idx.len() as u32);
    let find = |i: usize, j: usize| -> u32 {
        let (lo, hi, key) = match i.cmp(&j) {
            std::cmp::Ordering::Equal => return blk[i],
            std::cmp::Ordering::Greater => (blk[j] + 1, lend[j], i),
            std::cmp::Ordering::Less => (lend[i], blk[i + 1], j),
        };
        let span = &idx[lo as usize..hi as usize];
        lo + span
            .binary_search(&(key as u32))
            .expect("cell inside the symbolic fill") as u32
    };

    let mut a_to_lu = Vec::with_capacity(a.nnz());
    for (r, &i) in rpos.iter().enumerate() {
        for k in a.row(r) {
            a_to_lu.push(find(i as usize, cpos[a.cols[k] as usize] as usize));
        }
    }
    let mut upd = Vec::new();
    let mut ucol_lists: Vec<Vec<u32>> = vec![Vec::new(); n];
    for k in 0..n {
        let (d, le, end) = (blk[k] as usize, lend[k] as usize, blk[k + 1] as usize);
        for &i in &idx[d + 1..le] {
            for &j in &idx[le..end] {
                upd.push(find(i as usize, j as usize));
            }
        }
        for (u, &j) in (le..end).zip(&idx[le..end]) {
            ucol_lists[j as usize].push(u as u32);
        }
    }
    let mut ucol_ptr = Vec::with_capacity(n + 1);
    let mut ucol = Vec::new();
    ucol_ptr.push(0);
    for list in ucol_lists {
        ucol.extend(list);
        ucol_ptr.push(ucol.len() as u32);
    }
    Symbolic {
        prow,
        pcol,
        a_to_lu,
        blk,
        lend,
        idx,
        ucol_ptr,
        ucol,
        upd,
    }
}

//! Row-major `f32` matrix with the arithmetic needed by the PermDNN layers and baselines.

use crate::ShapeError;

/// A dense, row-major matrix of `f32` values.
///
/// `Matrix` is deliberately simple: a flat `Vec<f32>` plus a shape. All operations are
/// shape-checked (panicking variants document their panics; fallible variants return
/// [`ShapeError`]). It is the reference implementation against which the structured
/// (permuted-diagonal, circulant, pruned) formats in the rest of the workspace are tested.
///
/// # Example
///
/// ```
/// use pd_tensor::Matrix;
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
/// assert_eq!(m[(1, 2)], 5.0);
/// assert_eq!(m.transpose()[(2, 1)], 5.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::Mismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::Mismatch {
                op: "Matrix::from_vec",
                lhs: vec![rows, cols],
                rhs: vec![data.len()],
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as a `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the entries.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the entries.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the flat row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reshapes in place to `rows × cols`, reusing the existing allocation
    /// whenever its capacity suffices. Every entry is reset to zero; prior
    /// contents are discarded. This is the output-reuse hook of the serving
    /// hot path (`ParallelExecutor::matmul_into`): a per-batch output matrix
    /// can live across iterations instead of being reallocated.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Returns the entry at `(row, col)`, or `None` when out of bounds.
    pub fn get(&self, row: usize, col: usize) -> Option<f32> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Borrow of a single row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable borrow of a single row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Copies a single column into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `col >= self.cols()`.
    pub fn col(&self, col: usize) -> Vec<f32> {
        assert!(col < self.cols, "col {col} out of bounds ({})", self.cols);
        (0..self.rows).map(|r| self[(r, col)]).collect()
    }

    /// Iterator over `(row, col, value)` triples in row-major order.
    pub fn iter_entries(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        let cols = self.cols;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i / cols, i % cols, v))
    }

    /// Matrix-vector product `y = self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(
            x.len(),
            self.cols,
            "matvec: vector length {} != cols {}",
            x.len(),
            self.cols
        );
        let mut y = vec![0.0f32; self.rows];
        for (row, out) in self.data.chunks_exact(self.cols.max(1)).zip(y.iter_mut()) {
            let mut acc = 0.0f32;
            for (w, xv) in row.iter().zip(x.iter()) {
                acc += w * xv;
            }
            *out = acc;
        }
        y
    }

    /// Transposed matrix-vector product `y = selfᵀ * x` (used by backpropagation).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_transposed(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(
            x.len(),
            self.rows,
            "matvec_transposed: vector length {} != rows {}",
            x.len(),
            self.rows
        );
        let mut y = vec![0.0f32; self.cols];
        for (row, &xv) in self.data.chunks_exact(self.cols.max(1)).zip(x.iter()) {
            if xv == 0.0 {
                continue;
            }
            for (out, w) in y.iter_mut().zip(row.iter()) {
                *out += w * xv;
            }
        }
        y
    }

    /// Matrix-matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::Mismatch`] if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols != other.rows {
            return Err(ShapeError::Mismatch {
                op: "Matrix::matmul",
                lhs: vec![self.rows, self.cols],
                rhs: vec![other.rows, other.cols],
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(orow.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::Mismatch`] if the shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        self.zip_with(other, "Matrix::add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::Mismatch`] if the shapes differ.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        self.zip_with(other, "Matrix::sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::Mismatch`] if the shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        self.zip_with(other, "Matrix::hadamard", |a, b| a * b)
    }

    fn zip_with(
        &self,
        other: &Matrix,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Matrix, ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::Mismatch {
                op,
                lhs: vec![self.rows, self.cols],
                rhs: vec![other.rows, other.cols],
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Multiplies every entry by `s`, in place.
    pub fn scale_in_place(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns a copy with every entry multiplied by `s`.
    pub fn scaled(&self, s: f32) -> Matrix {
        let mut out = self.clone();
        out.scale_in_place(s);
        out
    }

    /// Applies `f` to every entry, in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a copy with `f` applied to every entry.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let mut out = self.clone();
        out.map_in_place(f);
        out
    }

    /// `self += alpha * other`, the AXPY update used by the optimizers.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::Mismatch`] if the shapes differ.
    pub fn axpy_in_place(&mut self, alpha: f32, other: &Matrix) -> Result<(), ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::Mismatch {
                op: "Matrix::axpy_in_place",
                lhs: vec![self.rows, self.cols],
                rhs: vec![other.rows, other.cols],
            });
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Rank-1 update `self += alpha * col * rowᵀ` (outer product), used by FC gradients.
    ///
    /// # Panics
    ///
    /// Panics if `col.len() != self.rows()` or `row.len() != self.cols()`.
    pub fn rank1_update(&mut self, alpha: f32, col: &[f32], row: &[f32]) {
        assert_eq!(col.len(), self.rows, "rank1_update: col length mismatch");
        assert_eq!(row.len(), self.cols, "rank1_update: row length mismatch");
        for (out_row, &cv) in self.data.chunks_exact_mut(self.cols.max(1)).zip(col.iter()) {
            let a = alpha * cv;
            if a == 0.0 {
                continue;
            }
            for (o, &x) in out_row.iter_mut().zip(row.iter()) {
                *o += a * x;
            }
        }
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all entries (0.0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Largest absolute entry value (0.0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Number of entries equal to zero.
    pub fn count_zeros(&self) -> usize {
        self.data.iter().filter(|&&v| v == 0.0).count()
    }

    /// Number of non-zero entries.
    pub fn count_nonzeros(&self) -> usize {
        self.len() - self.count_zeros()
    }

    /// Fraction of non-zero entries (density). Returns 0.0 for an empty matrix.
    pub fn density(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.count_nonzeros() as f64 / self.len() as f64
        }
    }

    /// Returns `true` if every entry of `self` is within `tol` of the corresponding entry
    /// of `other`; `false` if shapes differ.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Extracts the `p × p` block whose top-left corner is at `(block_row * p, block_col * p)`.
    ///
    /// Entries that fall outside the matrix (when the dimensions are not multiples of `p`)
    /// are zero-padded, matching the paper's footnote 3.
    pub fn block(&self, block_row: usize, block_col: usize, p: usize) -> Matrix {
        let mut out = Matrix::zeros(p, p);
        for r in 0..p {
            for c in 0..p {
                let gr = block_row * p + r;
                let gc = block_col * p + c;
                out[(r, c)] = self.get(gr, gc).unwrap_or(0.0);
            }
        }
        out
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(12) {
                write!(f, "{:8.4} ", self[(r, c)])?;
            }
            if self.cols > 12 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert_eq!(m.sum(), 0.0);
        assert!(!m.is_empty());
    }

    #[test]
    fn identity_matvec_is_identity() {
        let m = Matrix::identity(5);
        let x: Vec<f32> = (0..5).map(|i| i as f32).collect();
        assert_eq!(m.matvec(&x), x);
    }

    #[test]
    fn from_rows_and_index() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).is_ok());
    }

    #[test]
    fn matvec_matches_manual() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let y = m.matvec(&[1.0, -1.0]);
        assert_eq!(y, vec![-1.0, -1.0, -1.0]);
    }

    #[test]
    fn matvec_transposed_matches_transpose() {
        let m = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let via_method = m.matvec_transposed(&x);
        let via_transpose = m.transpose().matvec(&x);
        assert_eq!(via_method, via_transpose);
    }

    #[test]
    fn matmul_identity() {
        let m = Matrix::from_fn(3, 3, |r, c| (r + c) as f32);
        let id = Matrix::identity(3);
        assert_eq!(m.matmul(&id).unwrap(), m);
        assert_eq!(id.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 7 + c) as f32);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn add_sub_hadamard() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        assert_eq!(
            a.add(&b).unwrap(),
            Matrix::from_rows(&[&[6.0, 8.0], &[10.0, 12.0]])
        );
        assert_eq!(
            b.sub(&a).unwrap(),
            Matrix::from_rows(&[&[4.0, 4.0], &[4.0, 4.0]])
        );
        assert_eq!(
            a.hadamard(&b).unwrap(),
            Matrix::from_rows(&[&[5.0, 12.0], &[21.0, 32.0]])
        );
    }

    #[test]
    fn rank1_update_matches_outer_product() {
        let mut m = Matrix::zeros(2, 3);
        m.rank1_update(2.0, &[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(
            m,
            Matrix::from_rows(&[&[6.0, 8.0, 10.0], &[12.0, 16.0, 20.0]])
        );
    }

    #[test]
    fn axpy_in_place_adds_scaled() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.axpy_in_place(0.5, &b).unwrap();
        assert_eq!(a, Matrix::filled(2, 2, 2.0));
    }

    #[test]
    fn sparsity_counts() {
        let m = Matrix::from_rows(&[&[0.0, 1.0], &[2.0, 0.0]]);
        assert_eq!(m.count_zeros(), 2);
        assert_eq!(m.count_nonzeros(), 2);
        assert!((m.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn block_extraction_pads_with_zeros() {
        let m = Matrix::from_fn(3, 3, |r, c| (r * 3 + c + 1) as f32);
        let b = m.block(1, 1, 2);
        // Bottom-right 2x2 block of a 3x3 matrix: only (2,2) exists.
        assert_eq!(b[(0, 0)], 9.0);
        assert_eq!(b[(0, 1)], 0.0);
        assert_eq!(b[(1, 0)], 0.0);
        assert_eq!(b[(1, 1)], 0.0);
    }

    #[test]
    fn frobenius_and_max_abs() {
        let m = Matrix::from_rows(&[&[3.0, -4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 1.0 + 1e-7);
        assert!(a.approx_eq(&b, 1e-6));
        assert!(!a.approx_eq(&b, 1e-9));
    }

    #[test]
    #[should_panic]
    fn index_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }
}

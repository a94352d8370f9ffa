//! Dense row-major `f32` matrices.
//!
//! [`Matrix`] is the only tensor type the reproduction needs: a mini-batch
//! is a matrix with one example per row, and every layer maps matrices to
//! matrices. Operations are deliberately simple and allocation-transparent —
//! the networks involved are small (tens of thousands of parameters), so
//! clarity wins over BLAS-grade tuning.

use crate::{kernels, TensorError};

/// A dense row-major matrix of `f32` values.
///
/// # Examples
///
/// ```
/// use shoggoth_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// # Ok::<(), shoggoth_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch {
                context: "Matrix::from_vec",
                expected: (rows, cols),
                actual: (data.len(), 1),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the rows have differing
    /// lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self, TensorError> {
        let ncols = rows.first().map_or(0, |r| r.len());
        if rows.is_empty() || ncols == 0 {
            return Err(TensorError::ShapeMismatch {
                context: "Matrix::from_rows",
                expected: (1, 1),
                actual: (rows.len(), ncols),
            });
        }
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for row in rows {
            if row.len() != ncols {
                return Err(TensorError::ShapeMismatch {
                    context: "Matrix::from_rows",
                    expected: (rows.len(), ncols),
                    actual: (rows.len(), row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols: ncols,
            data,
        })
    }

    /// Assembles a matrix from pre-validated parts — the allocation-free
    /// construction used by [`crate::Workspace`]. Callers guarantee
    /// `data.len() == rows * cols`.
    pub(crate) fn from_parts(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        Self { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// The `row`-th row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "row out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable access to the `row`-th row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(row < self.rows, "row out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// The underlying row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Matrix product `self · other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols == other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, TensorError> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                context: "Matrix::matmul",
                expected: (self.cols, other.rows),
                actual: (other.rows, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // The register-tiled kernel reads rows of `other` contiguously and
        // stores each output tile once. It is branch-free: dense
        // multiplies pay no per-element zero-skip test (a sparse-aware
        // entry point can bring it back if sparsity ever matters).
        kernels::matmul(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
        );
        #[cfg(feature = "finite-check")]
        out.ensure_finite("Matrix::matmul")?;
        Ok(out)
    }

    /// Matrix product `self · other`, written into `out` (resized and
    /// overwritten; its storage is reused).
    ///
    /// Bit-identical to [`Matrix::matmul`] — same kernel, no allocation.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols == other.rows`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), TensorError> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                context: "Matrix::matmul_into",
                expected: (self.cols, other.rows),
                actual: (other.rows, other.cols),
            });
        }
        out.resize_for_overwrite(self.rows, other.cols);
        kernels::matmul(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
        );
        #[cfg(feature = "finite-check")]
        out.ensure_finite("Matrix::matmul_into")?;
        Ok(())
    }

    /// Transposed-A product `selfᵀ · other`, written into `out`: the
    /// gradient-of-weights kernel (`grad_W = inputᵀ · grad_output`) that
    /// never materializes the transpose. Bit-identical to
    /// `self.transpose().matmul(other)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.rows == other.rows`.
    pub fn matmul_transa_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), TensorError> {
        if self.rows != other.rows {
            return Err(TensorError::ShapeMismatch {
                context: "Matrix::matmul_transa_into",
                expected: (self.rows, self.cols),
                actual: (other.rows, other.cols),
            });
        }
        out.resize_for_overwrite(self.cols, other.cols);
        kernels::matmul_transa(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
        );
        #[cfg(feature = "finite-check")]
        out.ensure_finite("Matrix::matmul_transa_into")?;
        Ok(())
    }

    /// Bias-fused affine map `out = self · weights + bias` (bias is
    /// `1 × n`, broadcast over rows) — the dense-layer forward kernel.
    /// Bit-identical to `matmul` followed by `add_row_broadcast`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols == weights.rows` and `bias` is `1 × weights.cols`.
    pub fn addmm_into(
        &self,
        weights: &Matrix,
        bias: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), TensorError> {
        if self.cols != weights.rows {
            return Err(TensorError::ShapeMismatch {
                context: "Matrix::addmm_into",
                expected: (self.cols, weights.rows),
                actual: (weights.rows, weights.cols),
            });
        }
        if bias.rows != 1 || bias.cols != weights.cols {
            return Err(TensorError::ShapeMismatch {
                context: "Matrix::addmm_into",
                expected: (1, weights.cols),
                actual: (bias.rows, bias.cols),
            });
        }
        out.resize_for_overwrite(self.rows, weights.cols);
        kernels::matmul(
            &self.data,
            &weights.data,
            &mut out.data,
            self.rows,
            self.cols,
            weights.cols,
        );
        kernels::add_bias_rows(&mut out.data, &bias.data, self.rows, weights.cols);
        #[cfg(feature = "finite-check")]
        out.ensure_finite("Matrix::addmm_into")?;
        Ok(())
    }

    /// Reshapes in place to `rows × cols` with every element zero, reusing
    /// the existing storage (no allocation when capacity suffices). Prior
    /// contents are discarded.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Reshapes in place to `rows × cols` for a kernel that overwrites
    /// every element, reusing the existing storage without clearing it.
    /// Element values in between are leftovers (or zero where the storage
    /// grew) and must not be read.
    fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Becomes a copy of `src` (shape and contents), reusing the existing
    /// storage — the allocation-free replacement for `clone_from` in
    /// cache-recording paths.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.data.clear();
        self.data.extend_from_slice(&src.data);
        self.rows = src.rows;
        self.cols = src.cols;
    }

    /// The transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// Writes the transpose of the matrix into `out` (resized, storage
    /// reused) — how [`crate::Dense`] keeps its persistent `Wᵀ` scratch
    /// current without allocating.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.resize_zeroed(self.cols, self.rows);
        for (r, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// Element-wise sum `self + other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix, TensorError> {
        self.zip_with(other, "Matrix::add", |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix, TensorError> {
        self.zip_with(other, "Matrix::sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix, TensorError> {
        self.zip_with(other, "Matrix::hadamard", |a, b| a * b)
    }

    fn zip_with(
        &self,
        other: &Matrix,
        context: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Matrix, TensorError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(TensorError::ShapeMismatch {
                context,
                expected: (self.rows, self.cols),
                actual: (other.rows, other.cols),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns a copy scaled by `factor`.
    pub fn scaled(&self, factor: f32) -> Matrix {
        self.map(|v| v * factor)
    }

    /// Returns a copy with `f` applied element-wise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Adds a row vector (`1 × cols`) to every row.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `bias` is `1 × cols`.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Result<Matrix, TensorError> {
        if bias.rows != 1 || bias.cols != self.cols {
            return Err(TensorError::ShapeMismatch {
                context: "Matrix::add_row_broadcast",
                expected: (1, self.cols),
                actual: (bias.rows, bias.cols),
            });
        }
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(&bias.data) {
                *o += b;
            }
        }
        Ok(out)
    }

    /// Column-wise mean as a `1 × cols` matrix.
    pub fn col_mean(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        if self.rows == 0 {
            return out;
        }
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        let inv = 1.0 / self.rows as f32;
        for o in &mut out.data {
            *o *= inv;
        }
        out
    }

    /// Column-wise sum as a `1 × cols` matrix.
    pub fn col_sum(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        self.col_sum_into(&mut out);
        out
    }

    /// Column-wise sum written into `out` (resized to `1 × cols`, storage
    /// reused).
    pub fn col_sum_into(&self, out: &mut Matrix) {
        out.resize_zeroed(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Vertically stacks matrices with identical column counts.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the column counts differ or
    /// `parts` is empty.
    pub fn vstack(parts: &[&Matrix]) -> Result<Matrix, TensorError> {
        let first = parts.first().ok_or(TensorError::ShapeMismatch {
            context: "Matrix::vstack",
            expected: (1, 1),
            actual: (0, 0),
        })?;
        let cols = first.cols;
        let mut data = Vec::new();
        let mut rows = 0;
        for part in parts {
            if part.cols != cols {
                return Err(TensorError::ShapeMismatch {
                    context: "Matrix::vstack",
                    expected: (part.rows, cols),
                    actual: (part.rows, part.cols),
                });
            }
            data.extend_from_slice(&part.data);
            rows += part.rows;
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Copies rows `range` into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the row count.
    pub fn rows_range(&self, range: std::ops::Range<usize>) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.rows_range_into(range, &mut out);
        out
    }

    /// Copies rows `range` into `out` (resized, storage reused).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the row count.
    pub fn rows_range_into(&self, range: std::ops::Range<usize>, out: &mut Matrix) {
        assert!(range.end <= self.rows, "row range out of bounds");
        out.data.clear();
        out.data
            .extend_from_slice(&self.data[range.start * self.cols..range.end * self.cols]);
        out.rows = range.len();
        out.cols = self.cols;
    }

    /// Selects the given rows into a new matrix (rows may repeat).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.select_rows_into(indices, &mut out);
        out
    }

    /// Selects the given rows into `out` (resized, storage reused; rows
    /// may repeat).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.data.clear();
        out.data.reserve(indices.len() * self.cols);
        for &i in indices {
            out.data.extend_from_slice(self.row(i));
        }
        out.rows = indices.len();
        out.cols = self.cols;
    }

    /// The Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Validates that every element is finite (no NaN, no ±Inf).
    ///
    /// `op` names the operation that produced this matrix; it is embedded
    /// in the error so a poisoned tensor is traceable to its source. This
    /// is the manual entry point of the `finite-check` sanitizer — with
    /// that feature enabled the training engine calls it automatically
    /// after every layer pass, loss, and SGD step.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NonFinite`] locating the first offending
    /// element.
    pub fn ensure_finite(&self, op: &'static str) -> Result<(), TensorError> {
        match self.data.iter().position(|v| !v.is_finite()) {
            None => Ok(()),
            Some(i) => {
                // A zero-column matrix holds no data, so `i` implies
                // `cols > 0` and the checked ops cannot fail.
                let row = i.checked_div(self.cols).unwrap_or(0);
                let col = i.checked_rem(self.cols).unwrap_or(0);
                Err(TensorError::NonFinite {
                    op,
                    row,
                    col,
                    value: self.data[i],
                })
            }
        }
    }

    /// Index of the maximum value in each row. `NaN` ranks highest under
    /// the `total_cmp` order, so poisoned rows resolve deterministically.
    ///
    /// # Panics
    ///
    /// Panics on a matrix with rows but zero columns — an argmax over an
    /// empty row is a shape bug at the call site.
    pub fn row_argmax(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .expect("rows are non-empty")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: &[&[f32]]) -> Matrix {
        Matrix::from_rows(rows).expect("valid test matrix")
    }

    #[test]
    fn matmul_hand_checked() {
        let a = m(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = m(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).expect("shapes match");
        assert_eq!(c, m(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_rectangular() {
        let a = m(&[&[1.0, 0.0, 2.0]]);
        let b = m(&[&[1.0], &[1.0], &[1.0]]);
        let c = a.matmul(&b).expect("shapes match");
        assert_eq!(c.rows(), 1);
        assert_eq!(c.cols(), 1);
        assert_eq!(c.get(0, 0), 3.0);
    }

    #[test]
    fn matmul_shape_mismatch_is_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn identity_is_neutral() {
        let a = m(&[&[1.5, -2.0], &[0.0, 9.0]]);
        assert_eq!(a.matmul(&Matrix::identity(2)).expect("shapes"), a);
    }

    #[test]
    fn transpose_round_trips() {
        let a = m(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = m(&[&[1.0, 2.0]]);
        let b = m(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b).expect("shapes"), m(&[&[4.0, 6.0]]));
        assert_eq!(b.sub(&a).expect("shapes"), m(&[&[2.0, 2.0]]));
        assert_eq!(a.hadamard(&b).expect("shapes"), m(&[&[3.0, 8.0]]));
        assert_eq!(a.scaled(2.0), m(&[&[2.0, 4.0]]));
    }

    #[test]
    fn broadcast_bias() {
        let a = m(&[&[0.0, 0.0], &[1.0, 1.0]]);
        let bias = m(&[&[10.0, 20.0]]);
        let out = a.add_row_broadcast(&bias).expect("shapes");
        assert_eq!(out, m(&[&[10.0, 20.0], &[11.0, 21.0]]));
    }

    #[test]
    fn col_mean_and_sum() {
        let a = m(&[&[1.0, 2.0], &[3.0, 6.0]]);
        assert_eq!(a.col_mean(), m(&[&[2.0, 4.0]]));
        assert_eq!(a.col_sum(), m(&[&[4.0, 8.0]]));
    }

    #[test]
    fn vstack_and_rows_range_invert() {
        let a = m(&[&[1.0, 2.0]]);
        let b = m(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let stacked = Matrix::vstack(&[&a, &b]).expect("same cols");
        assert_eq!(stacked.rows(), 3);
        assert_eq!(stacked.rows_range(0..1), a);
        assert_eq!(stacked.rows_range(1..3), b);
    }

    #[test]
    fn vstack_rejects_mismatched_cols() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(1, 3);
        assert!(Matrix::vstack(&[&a, &b]).is_err());
    }

    #[test]
    fn select_rows_allows_repeats() {
        let a = m(&[&[1.0], &[2.0], &[3.0]]);
        let sel = a.select_rows(&[2, 0, 2]);
        assert_eq!(sel, m(&[&[3.0], &[1.0], &[3.0]]));
    }

    #[test]
    fn argmax_per_row() {
        let a = m(&[&[0.1, 0.9], &[5.0, -1.0]]);
        assert_eq!(a.row_argmax(), vec![1, 0]);
    }

    #[test]
    fn frobenius_norm_hand_checked() {
        let a = m(&[&[3.0, 4.0]]);
        assert_eq!(a.frobenius_norm(), 5.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }
}

//! The format-agnostic compressed linear-operator API.
//!
//! PermDNN is at heart a *comparison of weight-matrix formats* — permuted
//! diagonal versus dense, block-circulant (CIRCNN) and unstructured sparse
//! (EIE). Historically each format exposed its own ad-hoc kernel entry point;
//! this module defines the one polymorphic surface the rest of the workspace
//! programs against:
//!
//! * [`CompressedLinear`] — any compressed (or dense) weight matrix acting as a
//!   linear operator `y = W·x`, with storage, arithmetic-cost and dense-expansion
//!   accounting.
//! * [`FormatError`] — the shared error type; per-format errors
//!   ([`PdError`], `permdnn_circulant::CirculantError`) convert into it.
//! * [`BatchView`] — a borrowed batch of input vectors for the batched
//!   [`CompressedLinear::matmul`] entry point.
//!
//! Implementations provided across the workspace:
//!
//! | format                      | type                                      | crate               |
//! |-----------------------------|-------------------------------------------|---------------------|
//! | dense                       | `pd_tensor::Matrix`                       | `permdnn-core` (here) |
//! | permuted diagonal           | [`BlockPermDiagMatrix`]                   | `permdnn-core` (here) |
//! | block circulant (FFT)       | `permdnn_circulant::BlockCirculantMatrix` | `permdnn-circulant` |
//! | unstructured sparse (CSC)   | `permdnn_prune::CscMatrix`                | `permdnn-prune`     |
//! | EIE tag + index encoding    | `permdnn_prune::eie_format::EieEncodedMatrix` | `permdnn-prune` |
//! | PD + shared-weight codebook | `permdnn_quant::SharedWeightPdMatrix`     | `permdnn-quant`     |
//!
//! Adding a new format means implementing this trait for its matrix type; all
//! call sites (`nn` layers, the `sim` workload bridge, the `bench` sweeps, the
//! integration tests) pick it up without modification.
//!
//! # Example
//!
//! ```
//! use permdnn_core::format::CompressedLinear;
//! use permdnn_core::BlockPermDiagMatrix;
//! use pd_tensor::init::seeded_rng;
//!
//! let w = BlockPermDiagMatrix::random(16, 32, 4, &mut seeded_rng(0));
//! let op: &dyn CompressedLinear = &w;
//! let y = op.matvec(&vec![1.0; 32]).unwrap();
//! assert_eq!(y.len(), op.out_dim());
//! assert_eq!(op.stored_weights(), 16 * 32 / 4);
//! assert!(op.label().contains("permuted-diagonal"));
//! ```

use pd_tensor::Matrix;

use crate::{BlockPermDiagMatrix, PdError, Scratch};

/// Error type shared by every [`CompressedLinear`] implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// An input or output slice had the wrong length for the operator.
    DimensionMismatch {
        /// The operation that failed (e.g. `"matvec_into"`).
        op: &'static str,
        /// Expected slice length.
        expected: usize,
        /// Supplied slice length.
        got: usize,
    },
    /// A batch's flat length `batch · dim` does not fit a `usize`.
    LengthOverflow {
        /// The operation that failed (e.g. `"BatchView::new"`).
        op: &'static str,
        /// Number of vectors in the batch.
        batch: usize,
        /// Length of each vector.
        dim: usize,
    },
    /// A format-specific invariant was violated during construction or execution.
    Format {
        /// The format's label.
        format: &'static str,
        /// Human-readable description of the violation.
        reason: String,
    },
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::DimensionMismatch { op, expected, got } => {
                write!(
                    f,
                    "dimension mismatch in {op}: expected length {expected}, got {got}"
                )
            }
            FormatError::LengthOverflow { op, batch, dim } => {
                write!(
                    f,
                    "length overflow in {op}: {batch} vectors of length {dim}"
                )
            }
            FormatError::Format { format, reason } => {
                write!(f, "{format} format error: {reason}")
            }
        }
    }
}

impl std::error::Error for FormatError {}

impl From<PdError> for FormatError {
    fn from(e: PdError) -> Self {
        match e {
            PdError::DimensionMismatch { op, expected, got } => {
                FormatError::DimensionMismatch { op, expected, got }
            }
            other => FormatError::Format {
                format: "permuted-diagonal",
                reason: other.to_string(),
            },
        }
    }
}

/// Checks an input/output slice length, mapping mismatches to
/// [`FormatError::DimensionMismatch`].
pub fn check_dim(op: &'static str, expected: usize, got: usize) -> Result<(), FormatError> {
    if expected == got {
        Ok(())
    } else {
        Err(FormatError::DimensionMismatch { op, expected, got })
    }
}

/// The flat length `batch · dim` of a row-major batch, or
/// [`FormatError::LengthOverflow`] when the product does not fit a `usize`.
pub fn batch_len(op: &'static str, batch: usize, dim: usize) -> Result<usize, FormatError> {
    batch
        .checked_mul(dim)
        .ok_or(FormatError::LengthOverflow { op, batch, dim })
}

/// A borrowed batch of `batch` input vectors of length `dim`, stored
/// contiguously row-major (one vector per row).
#[derive(Debug, Clone, Copy)]
pub struct BatchView<'a> {
    data: &'a [f32],
    batch: usize,
    dim: usize,
}

impl<'a> BatchView<'a> {
    /// Wraps a contiguous row-major buffer as a batch of `batch` vectors of
    /// length `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] if `data.len() != batch * dim`,
    /// or [`FormatError::LengthOverflow`] if that product overflows.
    pub fn new(data: &'a [f32], batch: usize, dim: usize) -> Result<Self, FormatError> {
        let len = batch_len("BatchView::new", batch, dim)?;
        check_dim("BatchView::new", len, data.len())?;
        Ok(BatchView { data, batch, dim })
    }

    /// Views a matrix as a batch: each matrix row is one input vector.
    pub fn from_matrix(m: &'a Matrix) -> Self {
        BatchView {
            data: m.as_slice(),
            batch: m.rows(),
            dim: m.cols(),
        }
    }

    /// Number of vectors in the batch.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Length of each vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `i`-th input vector.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.batch()`.
    pub fn row(&self, i: usize) -> &'a [f32] {
        assert!(
            i < self.batch,
            "batch row {i} out of bounds ({})",
            self.batch
        );
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

/// Partitions the row indices `0..n_rows` into at most `n_shards` contiguous,
/// non-empty, near-equal ranges (the first `n_rows % n_shards` ranges are one
/// row longer). The ranges concatenate back to `0..n_rows` in order, which is
/// what makes sharded execution bit-for-bit identical to sequential execution:
/// each row is processed exactly once, by exactly the same kernel.
///
/// Used by `permdnn_runtime::ParallelExecutor` to split batched matmuls across
/// workers and by the multi-host engine model to split output rows across
/// hosts.
///
/// # Example
///
/// ```
/// use permdnn_core::format::par_row_ranges;
/// assert_eq!(par_row_ranges(10, 4), vec![0..3, 3..6, 6..8, 8..10]);
/// assert_eq!(par_row_ranges(2, 8).len(), 2); // never more shards than rows
/// assert!(par_row_ranges(0, 4).is_empty());
/// ```
pub fn par_row_ranges(n_rows: usize, n_shards: usize) -> Vec<std::ops::Range<usize>> {
    if n_rows == 0 {
        return Vec::new();
    }
    let shards = n_shards.max(1).min(n_rows);
    let base = n_rows / shards;
    let extra = n_rows % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Partitions `0..n_rows` into at most `n_shards` contiguous row ranges whose
/// boundaries fall only on multiples of the block size `p` (the final range
/// absorbs any ragged trailing rows). This is the *block-granular* variant of
/// [`par_row_ranges`]: a shard owning a fractional `p × p` block would break
/// the one-nonzero-per-column-per-block invariant of the permuted-diagonal
/// format — the phantom-row MAC-overcount bug class — so every consumer that
/// splits PD rows (the multi-host engine model, the snapshot row-sharder)
/// must split here instead.
///
/// Never more shards than block rows; `p = 0` is treated as 1 (row granular).
///
/// # Example
///
/// ```
/// use permdnn_core::format::block_row_ranges;
/// // 10 rows in blocks of 4 → 3 block rows; the last block is ragged.
/// assert_eq!(block_row_ranges(10, 4, 2), vec![0..8, 8..10]);
/// assert_eq!(block_row_ranges(10, 4, 8).len(), 3); // clamped to block rows
/// assert_eq!(block_row_ranges(10, 1, 2), vec![0..5, 5..10]); // = par_row_ranges
/// assert!(block_row_ranges(0, 4, 2).is_empty());
/// ```
pub fn block_row_ranges(n_rows: usize, p: usize, n_shards: usize) -> Vec<std::ops::Range<usize>> {
    let p = p.max(1);
    let block_rows = n_rows.div_ceil(p);
    par_row_ranges(block_rows, n_shards)
        .into_iter()
        .map(|r| (r.start * p)..((r.end * p).min(n_rows)))
        .collect()
}

/// A compressed (or dense) weight matrix acting as the linear operator
/// `y = W·x`.
///
/// The trait is object safe: call sites hold `Box<dyn CompressedLinear>` (see
/// `permdnn_nn::layers::WeightFormat::build`) and new formats drop in without
/// touching them. Concrete types keep their richer inherent APIs (training
/// updates, structure accessors); inherent methods shadow same-named trait
/// methods at method-call syntax, so implementing this trait is non-breaking.
///
/// `Send + Sync` are supertraits: an operator is immutable weight data at
/// inference time, and the parallel runtime (`permdnn_runtime`) shares one
/// operator across worker threads. Every format in the workspace is plain
/// owned data (`Vec`-backed), so the bounds cost implementations nothing.
pub trait CompressedLinear: Send + Sync {
    /// Output dimension `m` (rows of the logical matrix).
    fn out_dim(&self) -> usize;

    /// Input dimension `n` (columns of the logical matrix).
    fn in_dim(&self) -> usize;

    /// Human-readable format label used in reports and error messages,
    /// e.g. `"permuted-diagonal (p=8)"`.
    fn label(&self) -> String;

    /// Number of weight values actually stored by the representation.
    fn stored_weights(&self) -> usize;

    /// Real multiplications one matvec costs on a fully dense input — the
    /// arithmetic-cost axis of the paper's format comparison (Table VI).
    /// Formats that skip zero *inputs* (PD, CSC) cost proportionally less on
    /// sparse activations; this counter reports the dense-input worst case.
    fn mul_count(&self) -> u64;

    /// Whether the format's hardware dataflow can skip zero *input* activations.
    ///
    /// This is the dynamic-sparsity axis of the paper's comparison: the
    /// time-domain formats (permuted diagonal, CSC/EIE) process only non-zero
    /// activations on their PEs, while the frequency-domain circulant format
    /// transforms the whole input (its time-domain zeros are lost, Section
    /// II-C) and a dense mat-vec reads every column regardless. The cycle
    /// model charges this dataflow to decide whether activation sparsity buys
    /// latency. It says nothing about whether a format's f32 CPU kernel
    /// branches on zeros: the permuted-diagonal kernel, for one, does not.
    fn exploits_input_sparsity(&self) -> bool {
        false
    }

    /// Computes `y = W·x` into a caller-provided output slice.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] unless `x.len() == in_dim()`
    /// and `y.len() == out_dim()`.
    fn matvec_into(&self, x: &[f32], y: &mut [f32]) -> Result<(), FormatError>;

    /// Expands the operator into a dense matrix — the correctness reference
    /// every implementation is property-tested against.
    fn to_dense(&self) -> Matrix;

    /// Computes `y = W·x` into a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] if `x.len() != in_dim()`.
    fn matvec(&self, x: &[f32]) -> Result<Vec<f32>, FormatError> {
        let mut y = vec![0.0f32; self.out_dim()];
        self.matvec_into(x, &mut y)?;
        Ok(y)
    }

    /// Computes `y = W·x` using caller-owned [`Scratch`] buffers for the
    /// kernel's temporaries.
    ///
    /// Bit-identical to [`matvec_into`](Self::matvec_into) — the scratch only
    /// changes *where* temporaries live, never what is computed. The default
    /// ignores the scratch; formats whose kernels need temporaries (circulant
    /// FFT buffers, quantized accumulators) override this and make
    /// `matvec_into` delegate here with a throwaway arena.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] unless `x.len() == in_dim()`
    /// and `y.len() == out_dim()`.
    fn matvec_scratch(
        &self,
        x: &[f32],
        y: &mut [f32],
        scratch: &mut Scratch,
    ) -> Result<(), FormatError> {
        let _ = scratch;
        self.matvec_into(x, y)
    }

    /// Batched product into a caller-provided `(batch × out_dim)` row-major
    /// buffer, with temporaries drawn from `scratch`.
    ///
    /// This is the allocation-free hot path `permdnn_runtime::ParallelExecutor`
    /// drives per worker shard. The default applies
    /// [`matvec_scratch`](Self::matvec_scratch) row by row; formats with a
    /// batched kernel of their own (dense, CSC, permuted diagonal and
    /// shared-PD) override it.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] unless `xs.dim() == in_dim()`
    /// and `out.len() == xs.batch() * out_dim()`, and
    /// [`FormatError::LengthOverflow`] if that product overflows.
    fn matmul_into(
        &self,
        xs: &BatchView<'_>,
        out: &mut [f32],
        scratch: &mut Scratch,
    ) -> Result<(), FormatError> {
        check_dim("matmul_into", self.in_dim(), xs.dim())?;
        let m = self.out_dim();
        check_dim(
            "matmul_into",
            batch_len("matmul_into", xs.batch(), m)?,
            out.len(),
        )?;
        for i in 0..xs.batch() {
            self.matvec_scratch(xs.row(i), &mut out[i * m..(i + 1) * m], scratch)?;
        }
        Ok(())
    }

    /// Batched product: applies the operator to every vector of `xs`, returning
    /// a `(batch × out_dim)` matrix with one output per row.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] if `xs.dim() != in_dim()`,
    /// or [`FormatError::LengthOverflow`] if `xs.batch() * out_dim()` overflows.
    fn matmul(&self, xs: &BatchView<'_>) -> Result<Matrix, FormatError> {
        batch_len("matmul", xs.batch(), self.out_dim())?;
        let mut out = Matrix::zeros(xs.batch(), self.out_dim());
        self.matmul_into(xs, out.as_mut_slice(), &mut Scratch::new())?;
        Ok(out)
    }

    /// Largest absolute stored weight — the dynamic range the fixed-point
    /// backend calibrates its weight Q-format against. The default expands to
    /// dense; formats with direct value access should override.
    fn max_weight_abs(&self) -> f32 {
        self.to_dense().max_abs()
    }

    /// Builds this format's 16-bit integer kernel at the given weight
    /// Q-format, or `None` if the format has no integer kernel (it will then
    /// execute through the generic dequantize fallback of
    /// [`QuantizedLinear`](crate::qlinear::QuantizedLinear)).
    ///
    /// Implementing this for a new format is all it takes to make it execute
    /// natively in fixed point: express the weight layout as one of the
    /// [`QuantKernel`](crate::qlinear::QuantKernel) traversals (row-major
    /// dense, or column-compressed sparse for anything processed column-wise
    /// with input zero-skipping).
    fn quantize_kernel(&self, weight_frac: u32) -> Option<crate::qlinear::QuantKernel> {
        let _ = weight_frac;
        None
    }

    /// Writes this operator's *compressed* on-disk representation into the
    /// snapshot payload writer and returns its tensor-format code, or `None`
    /// if the format has no snapshot codec (it then cannot be saved —
    /// [`crate::snapshot::encode_tensor`] reports a typed error).
    ///
    /// Contract: an implementation either writes its complete payload and
    /// returns `Some(code)`, or writes nothing and returns `None`. Payloads
    /// must encode the stored representation (values + structure parameters),
    /// never a dense expansion; decoding goes through
    /// [`crate::snapshot::SnapshotCodec`].
    fn write_snapshot(&self, out: &mut crate::snapshot::ByteWriter) -> Option<u16> {
        let _ = out;
        None
    }

    /// Compression ratio versus the dense `m × n` matrix.
    fn compression_ratio(&self) -> f64 {
        let stored = self.stored_weights();
        if stored == 0 {
            0.0
        } else {
            (self.out_dim() * self.in_dim()) as f64 / stored as f64
        }
    }
}

impl CompressedLinear for BlockPermDiagMatrix {
    fn out_dim(&self) -> usize {
        self.rows()
    }

    fn in_dim(&self) -> usize {
        self.cols()
    }

    fn label(&self) -> String {
        format!("permuted-diagonal (p={})", self.p())
    }

    fn stored_weights(&self) -> usize {
        self.stored_weights()
    }

    fn mul_count(&self) -> u64 {
        // One multiplication per structural non-zero: the column-wise kernel
        // touches each stored (unpadded) weight exactly once on a dense input.
        self.structural_nonzeros() as u64
    }

    fn exploits_input_sparsity(&self) -> bool {
        true
    }

    fn matvec_into(&self, x: &[f32], y: &mut [f32]) -> Result<(), FormatError> {
        self.matvec_scratch(x, y, &mut Scratch::new())
    }

    /// The index-free rotated-window kernel (see
    /// `BlockPermDiagMatrix::matmul_windows`) on a batch of one row, which
    /// runs two block rows at a time. Bit-identical to
    /// [`matvec_reference`](BlockPermDiagMatrix::matvec_reference) for finite
    /// weights.
    fn matvec_scratch(
        &self,
        x: &[f32],
        y: &mut [f32],
        scratch: &mut Scratch,
    ) -> Result<(), FormatError> {
        check_dim("matvec_into", self.cols(), x.len())?;
        check_dim("matvec_into", self.rows(), y.len())?;
        self.matmul_windows(&BatchView::new(x, 1, self.cols())?, y, scratch);
        Ok(())
    }

    /// Across-batch rotated-window kernel (see
    /// `BlockPermDiagMatrix::matmul_windows`): for `p ∈ {2, 4, 8, 16}` the
    /// batch runs in chunks of `32 / p` rows (halved while fewer are left),
    /// and each block's `q` and `k_l` are loaded once per chunk instead of
    /// once per row. Every column is computed from `(c + k_l) mod p`, and the
    /// input windows live in a `scratch` slot. Matvec is this kernel at
    /// batch 1, and each row is bit-identical to
    /// [`matvec_reference`](BlockPermDiagMatrix::matvec_reference) for finite
    /// weights.
    fn matmul_into(
        &self,
        xs: &BatchView<'_>,
        out: &mut [f32],
        scratch: &mut Scratch,
    ) -> Result<(), FormatError> {
        check_dim("matmul_into", self.cols(), xs.dim())?;
        check_dim(
            "matmul_into",
            batch_len("matmul_into", xs.batch(), self.rows())?,
            out.len(),
        )?;
        self.matmul_windows(xs, out, scratch);
        Ok(())
    }

    fn to_dense(&self) -> Matrix {
        self.to_dense()
    }

    fn max_weight_abs(&self) -> f32 {
        self.values().iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// The PD integer kernel is the column-compressed zero-skipping traversal:
    /// each column stores exactly one weight per block row, reached through
    /// [`BlockPermDiagMatrix::column_nonzeros`].
    fn quantize_kernel(&self, weight_frac: u32) -> Option<crate::qlinear::QuantKernel> {
        let columns: Vec<Vec<(usize, f32)>> = (0..self.cols())
            .map(|j| {
                self.column_nonzeros(j)
                    .map(|(i, value_idx)| (i, self.values()[value_idx]))
                    .collect()
            })
            .collect();
        Some(crate::qlinear::QuantKernel::column_sparse(
            self.rows(),
            self.cols(),
            weight_frac,
            &columns,
        ))
    }

    fn write_snapshot(&self, out: &mut crate::snapshot::ByteWriter) -> Option<u16> {
        crate::snapshot::write_pd_matrix(self, out);
        Some(crate::snapshot::FORMAT_PERMUTED_DIAGONAL)
    }
}

impl CompressedLinear for Matrix {
    fn out_dim(&self) -> usize {
        self.rows()
    }

    fn in_dim(&self) -> usize {
        self.cols()
    }

    fn label(&self) -> String {
        "dense".to_string()
    }

    fn stored_weights(&self) -> usize {
        self.len()
    }

    fn mul_count(&self) -> u64 {
        (self.rows() * self.cols()) as u64
    }

    /// The register-tiled kernel of `matmul_into` (below) at batch 1: eight
    /// weight rows at a time against the input row in place, with no scratch
    /// and no allocation.
    fn matvec_into(&self, x: &[f32], y: &mut [f32]) -> Result<(), FormatError> {
        check_dim("matvec_into", self.cols(), x.len())?;
        check_dim("matvec_into", self.rows(), y.len())?;
        dense_chunk::<1, 8>(self, x.as_chunks::<1>().0, y);
        Ok(())
    }

    /// Register-tiled kernel: the batch runs in chunks of 16, 8, 4, 2 or 1
    /// rows (a chunk's size follows from the rows left), multiplied by tiles
    /// of 1, 2, 4, 8 and 8 weight rows respectively, so a tile holds 16
    /// accumulators (8 for a lone row). A chunk of two or more rows is
    /// transposed once into a `scratch` slot, giving every `k` its inputs
    /// side by side; a lone row is read in place. Each output still sums
    /// `w[r][k] · x[k]` left to right over `k`, weight first, exactly as
    /// `pd_tensor::Matrix::matvec` does, so every output is bit-identical to
    /// that loop: the tile only runs independent sums side by side.
    fn matmul_into(
        &self,
        xs: &BatchView<'_>,
        out: &mut [f32],
        scratch: &mut Scratch,
    ) -> Result<(), FormatError> {
        check_dim("matmul_into", self.cols(), xs.dim())?;
        let m = self.rows();
        check_dim(
            "matmul_into",
            batch_len("matmul_into", xs.batch(), m)?,
            out.len(),
        )?;
        if m == 0 {
            return Ok(());
        }
        let mut b0 = 0;
        while b0 < xs.batch() {
            let nb = match xs.batch() - b0 {
                16.. => 16,
                8..=15 => 8,
                4..=7 => 4,
                2 | 3 => 2,
                _ => 1,
            };
            let chunk = &mut out[b0 * m..(b0 + nb) * m];
            if nb == 1 {
                dense_chunk::<1, 8>(self, xs.row(b0).as_chunks::<1>().0, chunk);
            } else {
                let xt = &mut scratch.slot::<DenseScratch>().xt;
                match nb {
                    16 => dense_chunk::<16, 1>(self, transpose(xs, b0, xt), chunk),
                    8 => dense_chunk::<8, 2>(self, transpose(xs, b0, xt), chunk),
                    4 => dense_chunk::<4, 4>(self, transpose(xs, b0, xt), chunk),
                    _ => dense_chunk::<2, 8>(self, transpose(xs, b0, xt), chunk),
                }
            }
            b0 += nb;
        }
        Ok(())
    }

    fn to_dense(&self) -> Matrix {
        self.clone()
    }

    fn max_weight_abs(&self) -> f32 {
        self.max_abs()
    }

    fn quantize_kernel(&self, weight_frac: u32) -> Option<crate::qlinear::QuantKernel> {
        Some(crate::qlinear::QuantKernel::dense(self, weight_frac))
    }

    fn write_snapshot(&self, out: &mut crate::snapshot::ByteWriter) -> Option<u16> {
        crate::snapshot::write_dense(self, out);
        Some(crate::snapshot::FORMAT_DENSE)
    }
}

/// Dense's across-batch buffer: one batch chunk transposed to `cols × NB`.
#[derive(Debug, Default)]
struct DenseScratch {
    xt: Vec<f32>,
}

/// Rows `b0..b0 + NB` of `xs`, transposed into `xt`: entry `k` holds column
/// `k` of every row.
fn transpose<'a, const NB: usize>(
    xs: &BatchView<'_>,
    b0: usize,
    xt: &'a mut Vec<f32>,
) -> &'a [[f32; NB]] {
    xt.clear();
    xt.resize(xs.dim() * NB, 0.0);
    let cols = xt.as_chunks_mut::<NB>().0;
    for b in 0..NB {
        for (col, &v) in cols.iter_mut().zip(xs.row(b0 + b)) {
            col[b] = v;
        }
    }
    xt.as_chunks().0
}

/// `NB` batch rows (`x[k]` holds column `k` of each) through `w`, into the
/// `NB × rows` block `out`: tiles of `NR` weight rows, then narrower tiles
/// for the rows left.
fn dense_chunk<const NB: usize, const NR: usize>(w: &Matrix, x: &[[f32; NB]], out: &mut [f32]) {
    let m = w.rows();
    let mut r0 = 0;
    while m - r0 >= NR {
        dense_tile::<NB, NR>(w, x, r0, out);
        r0 += NR;
    }
    if NR > 4 && m - r0 >= 4 {
        dense_tile::<NB, 4>(w, x, r0, out);
        r0 += 4;
    }
    if NR > 2 && m - r0 >= 2 {
        dense_tile::<NB, 2>(w, x, r0, out);
        r0 += 2;
    }
    if NR > 1 && m - r0 >= 1 {
        dense_tile::<NB, 1>(w, x, r0, out);
    }
}

/// Weights each tile step reads from every one of its rows.
const DENSE_STEP: usize = 4;

/// Weight rows `r0..r0 + NR` against `NB` batch rows: `NR × NB` independent
/// sums, each `acc + w[r][k] · x[b][k]` left to right over `k`, reading
/// [`DENSE_STEP`] consecutive weights of each row per step.
#[inline(always)]
fn dense_tile<const NB: usize, const NR: usize>(
    w: &Matrix,
    x: &[[f32; NB]],
    r0: usize,
    out: &mut [f32],
) {
    let (m, steps) = (w.rows(), w.cols() / DENSE_STEP);
    let rows: [&[f32]; NR] = std::array::from_fn(|i| w.row(r0 + i));
    let ws: [&[[f32; DENSE_STEP]]; NR] =
        std::array::from_fn(|i| &rows[i].as_chunks::<DENSE_STEP>().0[..steps]);
    let mut acc = [[0.0f32; NB]; NR];
    for (s, xs) in x.chunks_exact(DENSE_STEP).enumerate() {
        for r in 0..NR {
            for (&wk, xk) in ws[r][s].iter().zip(xs) {
                for b in 0..NB {
                    acc[r][b] += wk * xk[b];
                }
            }
        }
    }
    for k in steps * DENSE_STEP..w.cols() {
        for r in 0..NR {
            let wk = rows[r][k];
            for b in 0..NB {
                acc[r][b] += wk * x[k][b];
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        for (b, &a) in acc.iter().enumerate() {
            out[b * m + r0 + r] = a;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_tensor::init::{seeded_rng, sparse_activation_vector, xavier_uniform};

    #[test]
    fn pd_trait_matvec_matches_dense_expansion() {
        let w = BlockPermDiagMatrix::random(24, 36, 4, &mut seeded_rng(1));
        let x = sparse_activation_vector(&mut seeded_rng(2), 36, 0.4);
        let op: &dyn CompressedLinear = &w;
        let got = op.matvec(&x).unwrap();
        let expected = op.to_dense().matvec(&x);
        for (g, e) in got.iter().zip(expected.iter()) {
            assert!((g - e).abs() < 1e-4);
        }
    }

    #[test]
    fn dense_trait_matvec_matches_inherent() {
        let m = xavier_uniform(&mut seeded_rng(3), 8, 12);
        let x: Vec<f32> = (0..12).map(|i| (i as f32 * 0.3).sin()).collect();
        let via_trait = CompressedLinear::matvec(&m, &x).unwrap();
        assert_eq!(via_trait, m.matvec(&x));
    }

    #[test]
    fn dimension_mismatches_are_reported() {
        let w = BlockPermDiagMatrix::random(8, 8, 4, &mut seeded_rng(4));
        let op: &dyn CompressedLinear = &w;
        assert!(matches!(
            op.matvec(&[0.0; 7]),
            Err(FormatError::DimensionMismatch {
                expected: 8,
                got: 7,
                ..
            })
        ));
        let mut y_short = [0.0; 7];
        assert!(matches!(
            op.matvec_into(&[0.0; 8], &mut y_short),
            Err(FormatError::DimensionMismatch {
                expected: 8,
                got: 7,
                ..
            })
        ));
    }

    #[test]
    fn matmul_applies_operator_per_row() {
        let w = BlockPermDiagMatrix::random(6, 9, 3, &mut seeded_rng(5));
        let xs_mat = xavier_uniform(&mut seeded_rng(6), 4, 9);
        let xs = BatchView::from_matrix(&xs_mat);
        let out = CompressedLinear::matmul(&w, &xs).unwrap();
        assert_eq!(out.shape(), (4, 6));
        for i in 0..4 {
            let single = CompressedLinear::matvec(&w, xs.row(i)).unwrap();
            assert_eq!(out.row(i), &single[..]);
        }
    }

    #[test]
    fn blocked_matmul_matches_per_row_matvec_across_chunk_boundaries() {
        // Batch 37 exercises full 16-row chunks plus a ragged 5-row tail of
        // dense's across-batch kernel, and PD's row-by-row run-time width
        // (p = 3).
        let dense = xavier_uniform(&mut seeded_rng(20), 11, 9);
        let pd = BlockPermDiagMatrix::random(6, 9, 3, &mut seeded_rng(21));
        let xs_mat = xavier_uniform(&mut seeded_rng(22), 37, 9);
        let xs = BatchView::from_matrix(&xs_mat);
        for op in [&dense as &dyn CompressedLinear, &pd] {
            let out = op.matmul(&xs).unwrap();
            for i in 0..37 {
                assert_eq!(out.row(i), &op.matvec(xs.row(i)).unwrap()[..]);
            }
        }
    }

    #[test]
    fn pd_index_free_kernel_matches_reference_matvec() {
        let w = BlockPermDiagMatrix::random(24, 36, 4, &mut seeded_rng(23));
        let x = sparse_activation_vector(&mut seeded_rng(24), 36, 0.4);
        let mut reference = vec![0.0f32; 24];
        w.matvec_reference(&x, &mut reference);
        assert_eq!(CompressedLinear::matvec(&w, &x).unwrap(), reference);
    }

    #[test]
    fn batch_view_validates_shape() {
        let data = vec![0.0f32; 10];
        assert!(BatchView::new(&data, 2, 5).is_ok());
        assert!(matches!(
            BatchView::new(&data, 3, 5),
            Err(FormatError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn mul_count_reflects_compression() {
        let dense = xavier_uniform(&mut seeded_rng(7), 32, 32);
        let pd = BlockPermDiagMatrix::random(32, 32, 4, &mut seeded_rng(8));
        assert_eq!(CompressedLinear::mul_count(&dense), 32 * 32);
        assert_eq!(CompressedLinear::mul_count(&pd), 32 * 32 / 4);
        assert!((CompressedLinear::compression_ratio(&pd) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn pd_error_converts_into_format_error() {
        let pd_err = PdError::DimensionMismatch {
            op: "matvec",
            expected: 4,
            got: 3,
        };
        assert_eq!(
            FormatError::from(pd_err),
            FormatError::DimensionMismatch {
                op: "matvec",
                expected: 4,
                got: 3
            }
        );
        let other = FormatError::from(PdError::ZeroBlockSize);
        assert!(matches!(
            other,
            FormatError::Format {
                format: "permuted-diagonal",
                ..
            }
        ));
    }

    #[test]
    fn par_row_ranges_partition_exactly() {
        for n_rows in [0usize, 1, 2, 7, 16, 37, 100] {
            for n_shards in [1usize, 2, 3, 7, 8, 64] {
                let ranges = par_row_ranges(n_rows, n_shards);
                assert!(ranges.len() <= n_shards);
                assert_eq!(ranges.len(), n_shards.min(n_rows));
                let mut next = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, next, "ranges must be contiguous in order");
                    assert!(!r.is_empty(), "no empty shards");
                    next = r.end;
                }
                assert_eq!(next, n_rows, "ranges must cover all rows");
                if let (Some(first), Some(last)) = (ranges.first(), ranges.last()) {
                    assert!(first.len() - last.len() <= 1, "near-equal split");
                }
            }
        }
    }

    #[test]
    fn par_row_ranges_zero_shards_is_one_shard() {
        assert_eq!(par_row_ranges(5, 0), vec![0..5]);
    }

    #[test]
    fn block_row_ranges_partition_on_block_boundaries() {
        for (n_rows, p) in [(16usize, 4usize), (100, 8), (37, 5), (40, 10), (7, 7)] {
            for n_shards in [1usize, 2, 3, 7, 64] {
                let ranges = block_row_ranges(n_rows, p, n_shards);
                assert_eq!(ranges.len(), n_shards.min(n_rows.div_ceil(p)));
                let mut next = 0usize;
                for (i, r) in ranges.iter().enumerate() {
                    assert_eq!(r.start, next, "contiguous in order");
                    assert!(!r.is_empty(), "no empty shards");
                    assert_eq!(r.start % p, 0, "every boundary on a block multiple");
                    if i + 1 < ranges.len() {
                        assert_eq!(r.end % p, 0, "interior boundaries on block multiples");
                    }
                    next = r.end;
                }
                assert_eq!(next, n_rows, "ranges cover all rows");
            }
        }
    }

    #[test]
    fn block_row_ranges_degenerate_inputs() {
        assert!(block_row_ranges(0, 4, 3).is_empty());
        // p = 0 behaves as row-granular, matching par_row_ranges.
        assert_eq!(block_row_ranges(10, 0, 4), par_row_ranges(10, 4));
        assert_eq!(block_row_ranges(10, 1, 4), par_row_ranges(10, 4));
    }

    #[test]
    fn compressed_linear_objects_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn CompressedLinear>();
        assert_send_sync::<Box<dyn CompressedLinear>>();
        assert_send_sync::<std::sync::Arc<dyn CompressedLinear>>();
    }

    #[test]
    fn labels_identify_formats() {
        let pd = BlockPermDiagMatrix::random(8, 8, 2, &mut seeded_rng(9));
        assert_eq!(CompressedLinear::label(&pd), "permuted-diagonal (p=2)");
        assert_eq!(CompressedLinear::label(&Matrix::zeros(2, 2)), "dense");
    }
}

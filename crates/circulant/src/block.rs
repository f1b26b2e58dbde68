//! Block-circulant matrices and their FFT-based matrix-vector product.

use std::sync::Arc;

use pd_tensor::Matrix;
use rand::Rng;

use crate::complex::Complex;
use crate::fft::{fft_in_place, fft_real, ifft_in_place};
use crate::plan::FftPlan;

/// Errors produced by block-circulant construction and kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CirculantError {
    /// The block size was zero.
    ZeroBlockSize,
    /// The block size is not a power of two, so the FFT-based kernel (and the CIRCNN
    /// hardware) cannot be used.
    NonPowerOfTwo {
        /// The offending block size.
        k: usize,
    },
    /// Vector length did not match the matrix dimension.
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Supplied length.
        got: usize,
    },
    /// The supplied first rows did not hold `k` values for every block.
    BlockCountMismatch {
        /// First-row values supplied.
        got: usize,
        /// First-row values expected (`k` per block).
        expected: usize,
    },
}

impl std::fmt::Display for CirculantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CirculantError::ZeroBlockSize => write!(f, "block size must be non-zero"),
            CirculantError::NonPowerOfTwo { k } => {
                write!(
                    f,
                    "block size {k} is not a power of two (required by the FFT kernel)"
                )
            }
            CirculantError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            CirculantError::BlockCountMismatch { got, expected } => {
                write!(
                    f,
                    "expected {expected} circulant first-row values (k per block), got {got}"
                )
            }
        }
    }
}

impl std::error::Error for CirculantError {}

/// Direct product of one `k × k` circulant block (first row `first_row`:
/// entry `(i, j)` is `first_row[(j - i) mod k]`) against a *ragged-edge* tile,
/// accumulating into `y`: `x` and `y` may be shorter than `k` (the logical
/// matrix's last block column/row). Equivalent to zero-padding `x` to length
/// `k` and discarding outputs past `y.len()`, without materialising either —
/// padded columns contribute only `±0.0` products at the tail of each row's
/// accumulation, which never change a running sum that started at `+0.0`, so
/// results are bit-identical to the pad-and-truncate formulation.
fn accumulate_partial(first_row: &[f32], x: &[f32], y: &mut [f32]) {
    let k = first_row.len();
    debug_assert!(x.len() <= k && y.len() <= k);
    for (i, out) in y.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for (j, xj) in x.iter().enumerate() {
            acc += first_row[(j + k - i) % k] * xj;
        }
        *out += acc;
    }
}

/// Reusable buffers for [`BlockCirculantMatrix::matvec_fft_into`]: the input
/// block-column spectra and the per-block-row frequency-domain accumulator.
/// Registered in a `permdnn_core::Scratch` arena by the trait adapter so the
/// serving hot path performs no per-call allocation.
#[derive(Debug, Default)]
pub struct CirculantScratch {
    /// `block_cols · k` input spectrum slots.
    x_spectra: Vec<Complex>,
    /// Length-`k` frequency-domain accumulator.
    acc: Vec<Complex>,
}

/// An `m × n` block-circulant matrix: a tiling of `k × k` circulant blocks, each stored as
/// its first row (`k` values instead of `k²` — the same compression ratio `k` as PermDNN's
/// block size `p`).
#[derive(Debug, Clone)]
pub struct BlockCirculantMatrix {
    rows: usize,
    cols: usize,
    k: usize,
    block_rows: usize,
    block_cols: usize,
    /// Every block's first row, `k` values per block, block-row-major: block
    /// `l = block_row * block_cols + block_col` is `first_rows[l·k..(l+1)·k]`.
    first_rows: Vec<f32>,
    /// Shared FFT plan for block size `k`; `None` when `k` is not a power of
    /// two (direct kernel only). Derived from `k`, rebuilt on construction
    /// and snapshot decode — never persisted.
    plan: Option<Arc<FftPlan>>,
    /// Precomputed *non-conjugated* weight spectra `FFT(first_row)`, `k`
    /// entries per block in block order; empty when `k` is not a power of
    /// two. The weights are frozen at inference time, so these are computed
    /// once here instead of per matvec. Derived data, like `plan`.
    spectra: Vec<Complex>,
}

/// Equality is defined on the logical matrix (dimensions, block size and
/// stored first rows); the FFT plan and cached weight spectra are derived
/// from those fields deterministically and excluded from the comparison.
impl PartialEq for BlockCirculantMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.k == other.k
            && self.first_rows == other.first_rows
    }
}

impl BlockCirculantMatrix {
    /// Creates a block-circulant matrix from its blocks' first rows: `k`
    /// values per block, block-row-major.
    ///
    /// The FFT kernel requires `k` to be a power of two, mirroring the hardware
    /// restriction the paper criticises; use [`Self::new_any_size`] to build non-2ᵗ blocks
    /// for the flexibility ablation (they can only use the direct kernel).
    ///
    /// # Errors
    ///
    /// Returns [`CirculantError`] on a zero/non-power-of-two block size or a block-count
    /// mismatch.
    pub fn new(
        rows: usize,
        cols: usize,
        k: usize,
        first_rows: Vec<f32>,
    ) -> Result<Self, CirculantError> {
        if k == 0 {
            return Err(CirculantError::ZeroBlockSize);
        }
        if !k.is_power_of_two() {
            return Err(CirculantError::NonPowerOfTwo { k });
        }
        Self::new_any_size(rows, cols, k, first_rows)
    }

    /// Creates a block-circulant matrix without the power-of-two restriction (software
    /// reference only — no FFT hardware could execute it, which is the flexibility
    /// drawback of Section II-C).
    ///
    /// # Errors
    ///
    /// Returns [`CirculantError`] on a zero block size or block-count mismatch.
    pub fn new_any_size(
        rows: usize,
        cols: usize,
        k: usize,
        first_rows: Vec<f32>,
    ) -> Result<Self, CirculantError> {
        if k == 0 {
            return Err(CirculantError::ZeroBlockSize);
        }
        let block_rows = rows.div_ceil(k);
        let block_cols = cols.div_ceil(k);
        let expected = block_rows
            .checked_mul(block_cols)
            .and_then(|blocks| blocks.checked_mul(k));
        if expected != Some(first_rows.len()) {
            return Err(CirculantError::BlockCountMismatch {
                got: first_rows.len(),
                expected: expected.unwrap_or(usize::MAX),
            });
        }
        // Weights are frozen at inference time: build the FFT plan and the
        // per-block weight spectra once, here, instead of recomputing
        // FFT(first_row) inside every matvec. Snapshot decoding funnels
        // through this constructor, so loaded models get the cache rebuilt
        // without any change to the on-disk format.
        let (plan, spectra) = if k.is_power_of_two() {
            let plan = Arc::new(FftPlan::new(k));
            let mut spectra = vec![Complex::ZERO; first_rows.len()];
            for (row, out) in first_rows.chunks_exact(k).zip(spectra.chunks_exact_mut(k)) {
                plan.forward_real_padded(row, out);
            }
            (Some(plan), spectra)
        } else {
            (None, Vec::new())
        };
        Ok(BlockCirculantMatrix {
            rows,
            cols,
            k,
            block_rows,
            block_cols,
            first_rows,
            plan,
            spectra,
        })
    }

    /// Creates a randomly initialised block-circulant matrix (power-of-two `k`).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or not a power of two.
    pub fn random(rows: usize, cols: usize, k: usize, rng: &mut impl Rng) -> Self {
        assert!(
            k.is_power_of_two() && k > 0,
            "block size must be a power of two"
        );
        Self::random_any_size(rows, cols, k, rng)
    }

    /// Creates a randomly initialised block-circulant matrix without the
    /// power-of-two restriction (the flexibility ablation of Section II-C;
    /// non-2ᵗ blocks can only use the direct kernel).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn random_any_size(rows: usize, cols: usize, k: usize, rng: &mut impl Rng) -> Self {
        assert!(k > 0, "block size must be non-zero");
        let block_rows = rows.div_ceil(k);
        let block_cols = cols.div_ceil(k);
        let bound = (6.0f32 / (rows + cols) as f32).sqrt() * (k as f32).sqrt();
        let first_rows = (0..block_rows * block_cols * k)
            .map(|_| rng.gen_range(-bound..=bound))
            .collect();
        Self::new_any_size(rows, cols, k, first_rows).expect("dimensions are consistent")
    }

    /// Logical number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Block size `k` (the compression ratio).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of stored weights (`num_blocks · k`).
    pub fn stored_weights(&self) -> usize {
        self.first_rows.len()
    }

    /// Compression ratio versus the dense matrix.
    pub fn compression_ratio(&self) -> f64 {
        (self.rows * self.cols) as f64 / self.stored_weights() as f64
    }

    /// The first row `w` of the block at `(block_row, block_col)`: the
    /// block's entry `(i, j)` is `w[(j - i) mod k]`.
    ///
    /// # Panics
    ///
    /// Panics if the block coordinates are out of range.
    pub fn block(&self, block_row: usize, block_col: usize) -> &[f32] {
        assert!(block_row < self.block_rows && block_col < self.block_cols);
        let l = block_row * self.block_cols + block_col;
        &self.first_rows[l * self.k..(l + 1) * self.k]
    }

    /// Every block's first row, `k` values per block, block-row-major — the
    /// stored representation.
    pub(crate) fn first_rows(&self) -> &[f32] {
        &self.first_rows
    }

    /// Entry `(i, j)` of the dense matrix.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn entry(&self, i: usize, j: usize) -> f32 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        let k = self.k;
        self.block(i / k, j / k)[(j % k + k - i % k) % k]
    }

    /// Expands into a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| self.entry(i, j))
    }

    /// Direct (time-domain) mat-vec, the correctness reference.
    ///
    /// # Errors
    ///
    /// Returns [`CirculantError::DimensionMismatch`] if `x.len() != cols`.
    pub fn matvec_direct(&self, x: &[f32]) -> Result<Vec<f32>, CirculantError> {
        if x.len() != self.cols {
            return Err(CirculantError::DimensionMismatch {
                expected: self.cols,
                got: x.len(),
            });
        }
        // Exact-size output and borrowed ragged-edge tiles: no pad-to-block
        // input copy and no allocate-then-truncate on the output
        // (accumulate_partial handles the last block row/column).
        let k = self.k;
        let mut y = vec![0.0f32; self.rows];
        for br in 0..self.block_rows {
            let y_tile = &mut y[br * k..self.rows.min((br + 1) * k)];
            for bc in 0..self.block_cols {
                let x_tile = &x[bc * k..self.cols.min((bc + 1) * k)];
                accumulate_partial(self.block(br, bc), x_tile, y_tile);
            }
        }
        Ok(y)
    }

    /// FFT-based mat-vec `IFFT(FFT(w) ∘ FFT(x))` — the CIRCNN inference kernel.
    ///
    /// Input FFTs are computed once per block column and output accumulation happens in
    /// the frequency domain, with a single IFFT per block row (the standard CIRCNN
    /// dataflow). Note that the input vector is used *in the frequency domain*: its
    /// time-domain sparsity cannot be exploited, which is PermDNN's third advantage.
    ///
    /// The weight spectra and FFT twiddles are precomputed at construction;
    /// see [`Self::matvec_fft_into`] for the allocation-free entry point this
    /// delegates to.
    ///
    /// # Errors
    ///
    /// Returns [`CirculantError::DimensionMismatch`] if `x.len() != cols` and
    /// [`CirculantError::NonPowerOfTwo`] if the block size cannot be FFT-ed.
    pub fn matvec_fft(&self, x: &[f32]) -> Result<Vec<f32>, CirculantError> {
        let mut y = vec![0.0f32; self.rows];
        self.matvec_fft_into(x, &mut y, &mut CirculantScratch::default())?;
        Ok(y)
    }

    /// The CIRCNN kernel with caller-owned output and scratch buffers — the
    /// serving hot path. Uses the [`FftPlan`] and weight spectra cached at
    /// construction: per call this runs one forward transform per block
    /// *column* and one inverse per block *row*, and zero weight FFTs.
    ///
    /// Bit-identical to [`Self::matvec_fft_percall`]: the plan replays the
    /// reference FFT's exact arithmetic, the cached spectra are the same
    /// `FFT(first_row)` values, and the fused `conj(w)·x` accumulation
    /// preserves the original operation order.
    ///
    /// # Errors
    ///
    /// Returns [`CirculantError::DimensionMismatch`] unless `x.len() == cols`
    /// and `y.len() == rows`, and [`CirculantError::NonPowerOfTwo`] if the
    /// block size cannot be FFT-ed.
    pub fn matvec_fft_into(
        &self,
        x: &[f32],
        y: &mut [f32],
        scratch: &mut CirculantScratch,
    ) -> Result<(), CirculantError> {
        if x.len() != self.cols {
            return Err(CirculantError::DimensionMismatch {
                expected: self.cols,
                got: x.len(),
            });
        }
        if y.len() != self.rows {
            return Err(CirculantError::DimensionMismatch {
                expected: self.rows,
                got: y.len(),
            });
        }
        let Some(plan) = self.plan.as_deref() else {
            return Err(CirculantError::NonPowerOfTwo { k: self.k });
        };
        let k = self.k;

        // FFT of every input block column (shared across all block rows),
        // zero-padded in place by the plan — no padded input copy.
        scratch.x_spectra.resize(self.block_cols * k, Complex::ZERO);
        for bc in 0..self.block_cols {
            let x_tile = &x[bc * k..self.cols.min((bc + 1) * k)];
            plan.forward_real_padded(x_tile, &mut scratch.x_spectra[bc * k..(bc + 1) * k]);
        }

        scratch.acc.resize(k, Complex::ZERO);
        let acc = &mut scratch.acc[..];
        for br in 0..self.block_rows {
            acc.fill(Complex::ZERO);
            for bc in 0..self.block_cols {
                let w_spec = &self.spectra[(br * self.block_cols + bc) * k..][..k];
                let x_spectrum = &scratch.x_spectra[bc * k..(bc + 1) * k];
                // The circulant matvec is a circular correlation of the first row with x:
                // y = IFFT(conj(FFT(w)) ∘ FFT(x)) for our row-definition w[(j-i) mod k].
                for ((a, ws), xs) in acc.iter_mut().zip(w_spec.iter()).zip(x_spectrum.iter()) {
                    *a += ws.conj() * *xs;
                }
            }
            plan.inverse_in_place(acc);
            for (out, c) in y[br * k..self.rows.min((br + 1) * k)]
                .iter_mut()
                .zip(acc.iter())
            {
                *out = c.re as f32;
            }
        }
        Ok(())
    }

    /// The pre-cache CIRCNN kernel: recomputes `FFT(first_row)` for every
    /// block and the FFT twiddle factors on every call. Retained verbatim as
    /// the wall-clock baseline that `wall_sweep` measures the planned kernel
    /// against and that `tests/wall.rs` pins bit-identity to; production call
    /// sites use [`Self::matvec_fft`].
    ///
    /// # Errors
    ///
    /// Returns [`CirculantError::DimensionMismatch`] if `x.len() != cols` and
    /// [`CirculantError::NonPowerOfTwo`] if the block size cannot be FFT-ed.
    pub fn matvec_fft_percall(&self, x: &[f32]) -> Result<Vec<f32>, CirculantError> {
        if x.len() != self.cols {
            return Err(CirculantError::DimensionMismatch {
                expected: self.cols,
                got: x.len(),
            });
        }
        if !self.k.is_power_of_two() {
            return Err(CirculantError::NonPowerOfTwo { k: self.k });
        }
        let k = self.k;
        let mut x_padded = x.to_vec();
        x_padded.resize(self.block_cols * k, 0.0);

        // FFT of every input block column (shared across all block rows).
        let x_spectra: Vec<Vec<Complex>> = (0..self.block_cols)
            .map(|bc| fft_real(&x_padded[bc * k..(bc + 1) * k]))
            .collect();

        let mut y = Vec::with_capacity(self.block_rows * k);
        for br in 0..self.block_rows {
            let mut acc = vec![Complex::ZERO; k];
            for (bc, x_spectrum) in x_spectra.iter().enumerate() {
                // The circulant matvec is a circular correlation of the first row with x:
                // y = IFFT(conj(FFT(w)) ∘ FFT(x)) for our row-definition w[(j-i) mod k].
                let mut w_spec = fft_real(self.block(br, bc));
                for (ws, xs) in w_spec.iter_mut().zip(x_spectrum.iter()) {
                    *ws = ws.conj() * *xs;
                }
                for (a, v) in acc.iter_mut().zip(w_spec.iter()) {
                    *a += *v;
                }
            }
            ifft_in_place(&mut acc);
            y.extend(acc.iter().map(|c| c.re as f32));
        }
        y.truncate(self.rows);
        Ok(y)
    }
}

/// Applies an in-place FFT to a complex buffer — re-exported helper so benches can time
/// transform cost in isolation.
pub fn fft_buffer(data: &mut [Complex]) {
    fft_in_place(data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_tensor::init::seeded_rng;
    use rand::Rng;

    #[test]
    fn circulant_block_structure() {
        let b = BlockCirculantMatrix::new(4, 4, 4, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let d = b.to_dense();
        // Row 0 is the first row; each later row is a right rotation.
        assert_eq!(d.row(0), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.row(1), &[4.0, 1.0, 2.0, 3.0]);
        assert_eq!(d.row(3), &[2.0, 3.0, 4.0, 1.0]);
        // Constant diagonals.
        for i in 0..4 {
            assert_eq!(d[(i, i)], 1.0);
        }
    }

    #[test]
    fn block_count_and_power_of_two_validation() {
        let first_rows = vec![0.0; 4 * 3];
        assert!(matches!(
            BlockCirculantMatrix::new(6, 6, 3, first_rows.clone()),
            Err(CirculantError::NonPowerOfTwo { k: 3 })
        ));
        assert!(BlockCirculantMatrix::new_any_size(6, 6, 3, first_rows).is_ok());
        let too_few = vec![0.0; 3 * 4];
        assert!(matches!(
            BlockCirculantMatrix::new(8, 8, 4, too_few),
            Err(CirculantError::BlockCountMismatch {
                got: 12,
                expected: 16
            })
        ));
        // A length that is no whole number of blocks is rejected the same way.
        assert!(matches!(
            BlockCirculantMatrix::new(8, 8, 4, vec![0.0; 17]),
            Err(CirculantError::BlockCountMismatch {
                got: 17,
                expected: 16
            })
        ));
    }

    #[test]
    fn direct_matvec_matches_dense() {
        let m = BlockCirculantMatrix::random(16, 24, 8, &mut seeded_rng(1));
        let mut rng = seeded_rng(2);
        let x: Vec<f32> = (0..24).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let expected = m.to_dense().matvec(&x);
        let got = m.matvec_direct(&x).unwrap();
        for (a, b) in got.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn fft_matvec_matches_direct() {
        for &(rows, cols, k) in &[(16usize, 16usize, 4usize), (32, 64, 8), (20, 36, 4)] {
            let m = BlockCirculantMatrix::random(rows, cols, k, &mut seeded_rng(3));
            let mut rng = seeded_rng(4);
            let x: Vec<f32> = (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let direct = m.matvec_direct(&x).unwrap();
            let fft = m.matvec_fft(&x).unwrap();
            for (a, b) in fft.iter().zip(direct.iter()) {
                assert!((a - b).abs() < 1e-3, "{rows}x{cols} k={k}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn compression_ratio_is_k() {
        let m = BlockCirculantMatrix::random(64, 64, 8, &mut seeded_rng(5));
        assert!((m.compression_ratio() - 8.0).abs() < 1e-12);
        assert_eq!(m.stored_weights(), 64 * 64 / 8);
    }

    #[test]
    fn dimension_mismatch_reported() {
        let m = BlockCirculantMatrix::random(8, 8, 4, &mut seeded_rng(6));
        assert!(m.matvec_direct(&[0.0; 7]).is_err());
        assert!(m.matvec_fft(&[0.0; 9]).is_err());
    }

    #[test]
    fn frequency_domain_loses_input_sparsity() {
        // Even an all-zero-but-one input produces dense FFT spectra: there is no
        // frequency-domain analogue of the time-domain zero-skipping PermDNN exploits.
        let mut x = vec![0.0f32; 8];
        x[3] = 1.0;
        let spectrum = fft_real(&x);
        let nonzero_bins = spectrum.iter().filter(|c| c.abs() > 1e-12).count();
        assert_eq!(nonzero_bins, 8, "a sparse time signal has a dense spectrum");
    }
}

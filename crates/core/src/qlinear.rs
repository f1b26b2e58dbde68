//! The 16-bit fixed-point inference backend: [`QuantizedLinear`] executes any
//! [`CompressedLinear`] weight operator in integer arithmetic.
//!
//! The PermDNN hardware computes entirely in 16-bit fixed point with 24-bit
//! accumulators (Table VIII); this module is the software twin of that
//! datapath. A [`QuantizedLinear`] stores:
//!
//! * a per-layer [`QScheme`] — the Q-formats of the input activations, the
//!   stored weights and the output activations (fractional widths chosen by
//!   calibration, see [`pd_tensor::fixed::choose_frac_bits`]);
//! * raw `i16` weights inside a [`QuantKernel`] — a hand-written integer
//!   kernel for the hot formats (row-major dense, and the column-wise
//!   zero-skipping kernel shared by permuted-diagonal / CSC / EIE layouts);
//! * or, for formats with no integer kernel (the frequency-domain circulant
//!   format), a generic *dequantize fallback* that runs the f32 kernel on
//!   dequantized activations and requantizes the outputs.
//!
//! Arithmetic contract (the thing the property tests pin down):
//!
//! 1. products are formed exactly in `i32` (`x_raw · w_raw`), then rounded
//!    back to the input's Q-format (`+half; >> weight_frac`) — the same
//!    rounding as [`Q16::mul`](pd_tensor::fixed::Q16::mul);
//! 2. rounded products accumulate in a saturating 24-bit
//!    [`Accumulator24`] — 8 bits of headroom over the 16-bit activation
//!    range, exactly the PE accumulator width;
//! 3. the (optional) bias is quantized at the input Q-format and seeded
//!    into the accumulator before any product arrives, so requantization —
//!    a round-to-nearest shift to the layer's output Q-format, saturating
//!    at the `i16` range — always sees the complete affine sum.
//!
//! Every step is integer and deterministic, so quantized inference — single
//! vectors, batches, or batches sharded across the runtime's worker pool — is
//! bit-for-bit reproducible. [`QuantizedLinear`] also implements
//! [`CompressedLinear`] itself (quantize input → integer kernel → dequantize
//! output), which is what lets quantized models flow through the `nn` layers,
//! the `runtime` serving loop, the `sim` cost models and the benches without
//! any of those call sites learning a second API.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use permdnn_core::format::CompressedLinear;
//! use permdnn_core::qlinear::{QScheme, QuantizedLinear};
//! use permdnn_core::BlockPermDiagMatrix;
//! use pd_tensor::init::seeded_rng;
//!
//! let w = BlockPermDiagMatrix::random(16, 32, 4, &mut seeded_rng(0));
//! let op: Arc<dyn CompressedLinear> = Arc::new(w);
//! let q = QuantizedLinear::from_op(Arc::clone(&op), QScheme::calibrate(1.0, op.max_weight_abs(), 4.0));
//! assert!(q.has_integer_kernel());
//! let x = vec![0.25f32; 32];
//! let y = q.matvec(&x).unwrap();          // f32 surface: quantize -> integer kernel -> dequantize
//! assert_eq!(y.len(), 16);
//! ```

use std::sync::Arc;

use pd_tensor::fixed::{choose_frac_bits, dequantize_raw, quantize_to_raw, Accumulator24};
use pd_tensor::Matrix;

use crate::format::{batch_len, check_dim, CompressedLinear, FormatError};

/// The per-layer Q-formats of a quantized layer: fractional widths (1..=14) of
/// the input activations, the stored weights and the output activations.
///
/// `Q(15-frac).frac` format throughout: e.g. `frac = 12` is Q3.12.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QScheme {
    /// Fractional bits of the incoming activation vector.
    pub input_frac: u32,
    /// Fractional bits of the stored weights.
    pub weight_frac: u32,
    /// Fractional bits of the produced output vector.
    pub output_frac: u32,
}

impl QScheme {
    /// Builds a scheme from explicit fractional widths.
    ///
    /// # Panics
    ///
    /// Panics unless every width is in `1..=14` (the range
    /// [`choose_frac_bits`] produces; width 0 would break product rounding,
    /// width 15 leaves no integer bit).
    pub fn new(input_frac: u32, weight_frac: u32, output_frac: u32) -> Self {
        for (name, frac) in [
            ("input_frac", input_frac),
            ("weight_frac", weight_frac),
            ("output_frac", output_frac),
        ] {
            assert!(
                (1..=14).contains(&frac),
                "{name} = {frac} outside the supported 1..=14 range"
            );
        }
        QScheme {
            input_frac,
            weight_frac,
            output_frac,
        }
    }

    /// Chooses each width from the observed dynamic range of the
    /// corresponding tensor (largest width whose integer range still covers
    /// the maximum absolute value) — the per-layer calibration rule.
    pub fn calibrate(input_max_abs: f32, weight_max_abs: f32, output_max_abs: f32) -> Self {
        QScheme::new(
            choose_frac_bits(input_max_abs),
            choose_frac_bits(weight_max_abs),
            choose_frac_bits(output_max_abs),
        )
    }

    /// The default Q3.12 everywhere — adequate for post-batch-norm
    /// activations and weights in `(-8, 8)`.
    pub fn q3_12() -> Self {
        QScheme::new(12, 12, 12)
    }

    /// Smallest representable increment of the output format.
    pub fn output_epsilon(&self) -> f32 {
        1.0 / (1u32 << self.output_frac) as f32
    }

    /// Smallest representable increment of the accumulator, which holds
    /// values in the *input* Q-format (products are rounded back to it).
    pub fn accumulator_epsilon(&self) -> f32 {
        1.0 / (1u32 << self.input_frac) as f32
    }
}

/// A hand-written 16-bit integer kernel: the raw `i16` weights plus the
/// layout-specific traversal. Formats advertise theirs through
/// [`CompressedLinear::quantize_kernel`]; formats that return `None` execute
/// through the generic dequantize fallback instead.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantKernel {
    /// Row-major dense weights; one 24-bit accumulator per output row,
    /// sequential dot products.
    Dense {
        /// `rows × cols` raw weights, row-major.
        weights: Vec<i16>,
    },
    /// Column-compressed sparse weights — the one integer kernel behind the
    /// permuted-diagonal, CSC and EIE layouts, all of which process columns of
    /// non-zero weights against broadcast activations and skip zero inputs
    /// entirely (the PERMDNN / EIE PE dataflow).
    ColumnSparse {
        /// `col_ptr[c]..col_ptr[c+1]` indexes the entries of column `c`.
        col_ptr: Vec<usize>,
        /// Output row of each stored entry.
        row_idx: Vec<u32>,
        /// Raw weight of each stored entry.
        weights: Vec<i16>,
    },
}

impl QuantKernel {
    /// Quantizes a dense matrix into the row-major integer kernel.
    pub fn dense(m: &Matrix, weight_frac: u32) -> QuantKernel {
        QuantKernel::Dense {
            weights: m
                .as_slice()
                .iter()
                .map(|&v| quantize_to_raw(v, weight_frac))
                .collect(),
        }
    }

    /// Builds the column-sparse kernel from per-column `(row, value)` entries.
    ///
    /// # Panics
    ///
    /// Panics if `columns.len() != cols` or any row index is `>= rows`.
    pub fn column_sparse(
        rows: usize,
        cols: usize,
        weight_frac: u32,
        columns: &[Vec<(usize, f32)>],
    ) -> QuantKernel {
        assert_eq!(columns.len(), cols, "one entry list per column");
        let nnz = columns.iter().map(|c| c.len()).sum();
        let mut col_ptr = Vec::with_capacity(cols + 1);
        let mut row_idx = Vec::with_capacity(nnz);
        let mut weights = Vec::with_capacity(nnz);
        col_ptr.push(0);
        for column in columns {
            for &(r, v) in column {
                assert!(r < rows, "row {r} out of bounds ({rows})");
                row_idx.push(r as u32);
                weights.push(quantize_to_raw(v, weight_frac));
            }
            col_ptr.push(row_idx.len());
        }
        QuantKernel::ColumnSparse {
            col_ptr,
            row_idx,
            weights,
        }
    }

    /// Number of raw weights the kernel stores.
    pub fn stored_weights(&self) -> usize {
        match self {
            QuantKernel::Dense { weights } | QuantKernel::ColumnSparse { weights, .. } => {
                weights.len()
            }
        }
    }
}

/// Counters from one integer kernel invocation: how much arithmetic ran and
/// how often the fixed-point datapath clipped. The simulator turns these into
/// datapath cost and overflow reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QKernelStats {
    /// Integer products formed (16×16 → 32-bit multiplies).
    pub products: u64,
    /// Times the 24-bit accumulator clamped at a saturation bound.
    pub accumulator_saturations: u64,
    /// Times requantization to the output format (or the quantized bias add)
    /// clamped at the 16-bit range.
    pub requantize_saturations: u64,
}

impl QKernelStats {
    /// Adds another invocation's counters into this one.
    pub fn merge(&mut self, other: &QKernelStats) {
        self.products += other.products;
        self.accumulator_saturations += other.accumulator_saturations;
        self.requantize_saturations += other.requantize_saturations;
    }

    /// Whether any clamp fired anywhere in the datapath.
    pub fn saturated(&self) -> bool {
        self.accumulator_saturations > 0 || self.requantize_saturations > 0
    }
}

/// How a [`QuantizedLinear`] executes: natively in integer arithmetic, or
/// through the f32 kernel of a format without an integer kernel.
#[derive(Clone)]
enum QExec {
    Integer(QuantKernel),
    /// Dequantize the input, run the wrapped f32 kernel, requantize the
    /// output. The weights stay in the wrapped format's own storage.
    Fallback(Arc<dyn CompressedLinear>),
}

/// A compressed linear operator executing in 16-bit fixed point — the
/// deployment form of any [`CompressedLinear`] weight matrix.
///
/// Build one with [`QuantizedLinear::from_op`]; add a bias with
/// [`QuantizedLinear::with_bias`]. The integer surface is
/// [`matvec_q_into`](QuantizedLinear::matvec_q_into) /
/// [`matmul_q`](QuantizedLinear::matmul_q) (raw `i16` in, raw `i16` out, with
/// [`QKernelStats`]); the [`CompressedLinear`] impl provides the f32 surface
/// the rest of the workspace programs against.
#[derive(Clone)]
pub struct QuantizedLinear {
    rows: usize,
    cols: usize,
    scheme: QScheme,
    exec: QExec,
    /// Quantized bias at the *input* Q-format (the accumulator's grid),
    /// seeded into the 24-bit accumulator before the products accumulate.
    bias_raw: Option<Vec<i32>>,
    label: String,
    stored_weights: usize,
    mul_count: u64,
    exploits_input_sparsity: bool,
}

impl std::fmt::Debug for QuantizedLinear {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantizedLinear")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("scheme", &self.scheme)
            .field("label", &self.label)
            .field("integer_kernel", &self.has_integer_kernel())
            .finish()
    }
}

/// Rounds a full-precision `i32` product back to the input Q-format — the
/// per-product rounding step of the datapath (`+half; >> weight_frac`).
#[inline]
fn product_to_acc(x_raw: i16, w_raw: i16, weight_frac: u32) -> i32 {
    let wide = x_raw as i32 * w_raw as i32;
    (wide + (1 << (weight_frac - 1))) >> weight_frac
}

/// Requantizes a 24-bit accumulator value from the input Q-format to the
/// output Q-format (round-to-nearest shift, saturating at the `i16` range).
/// Returns the raw output and whether the clamp fired.
#[inline]
fn requantize_acc(value: i32, input_frac: u32, output_frac: u32) -> (i16, bool) {
    let shifted: i64 = if output_frac >= input_frac {
        (value as i64) << (output_frac - input_frac)
    } else {
        let shift = input_frac - output_frac;
        ((value as i64) + (1i64 << (shift - 1))) >> shift
    };
    let clamped = shifted.clamp(i16::MIN as i64, i16::MAX as i64);
    (clamped as i16, clamped != shifted)
}

/// Reusable buffers for the quantized hot path: the raw activation staging
/// vectors of the f32 trait surface, the flat accumulator array of the
/// column-sparse kernel, and the f32 staging vectors of the dequantize
/// fallback. One lives in each `Scratch` arena slot the runtime owns per
/// worker, so steady-state quantized serving performs no per-call allocation.
#[derive(Debug, Default)]
pub struct QScratch {
    /// Quantized input staging for the f32 `CompressedLinear` surface.
    x_raw: Vec<i16>,
    /// Raw output staging for the f32 `CompressedLinear` surface.
    y_raw: Vec<i16>,
    /// One 24-bit (i32-backed) accumulator per output row for the
    /// column-sparse kernel.
    accs: Vec<i32>,
    /// Dequantized input staging for the fallback exec path.
    x_f32: Vec<f32>,
    /// f32 output staging for the fallback exec path.
    y_f32: Vec<f32>,
}

/// One column-sparse accumulation step on a flat `i32` accumulator array,
/// replicating [`Accumulator24::accumulate_checked`] exactly: saturating add,
/// clamp to the 24-bit bounds, report whether the clamp fired. Kept free so
/// the unrolled inner loop below stays a straight-line instruction sequence.
#[inline(always)]
fn acc_step(accs: &mut [i32], row: u32, x_raw: i16, w_raw: i16, weight_frac: u32) -> u64 {
    let product = product_to_acc(x_raw, w_raw, weight_frac);
    let a = &mut accs[row as usize];
    let unclamped = a.saturating_add(product);
    let clamped = unclamped.clamp(Accumulator24::MIN, Accumulator24::MAX);
    *a = clamped;
    u64::from(clamped != unclamped)
}

impl QuantizedLinear {
    /// Quantizes any weight operator: formats advertising an integer kernel
    /// ([`CompressedLinear::quantize_kernel`]) execute natively in `i16`/`i32`
    /// arithmetic; the rest get the generic dequantize fallback.
    pub fn from_op(op: Arc<dyn CompressedLinear>, scheme: QScheme) -> QuantizedLinear {
        let (exec, label, stored_weights) = match op.quantize_kernel(scheme.weight_frac) {
            Some(kernel) => {
                let stored = kernel.stored_weights();
                (
                    QExec::Integer(kernel),
                    format!("q16 {}", op.label()),
                    stored,
                )
            }
            None => (
                QExec::Fallback(Arc::clone(&op)),
                format!("q16-fallback {}", op.label()),
                op.stored_weights(),
            ),
        };
        QuantizedLinear {
            rows: op.out_dim(),
            cols: op.in_dim(),
            scheme,
            exec,
            bias_raw: None,
            label,
            stored_weights,
            mul_count: op.mul_count(),
            exploits_input_sparsity: op.exploits_input_sparsity(),
        }
    }

    /// Attaches a bias. It is quantized at the *input* Q-format and seeded
    /// into the 24-bit accumulator before the products accumulate — the
    /// requantizer therefore sees the complete affine sum, so a layer whose
    /// final output fits the calibrated output range is exact even when the
    /// pre-bias product sum alone would not fit (the hardware initialises
    /// its accumulators the same way).
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != out_dim()`.
    pub fn with_bias(mut self, bias: &[f32]) -> QuantizedLinear {
        assert_eq!(bias.len(), self.rows, "bias length mismatch");
        let scale = (1u32 << self.scheme.input_frac) as f32;
        self.bias_raw = Some(bias.iter().map(|&b| (b * scale).round() as i32).collect());
        self
    }

    /// The layer's Q-formats.
    pub fn scheme(&self) -> QScheme {
        self.scheme
    }

    /// Whether the operator executes through a native integer kernel (`true`)
    /// or the dequantize fallback (`false`).
    pub fn has_integer_kernel(&self) -> bool {
        matches!(self.exec, QExec::Integer(_))
    }

    /// Weight storage in bits: 16 per stored weight — half the f32 formats'
    /// footprint, the "16-bit fixed with PD" row of Tables II–V.
    pub fn weight_storage_bits(&self) -> u64 {
        self.stored_weights as u64 * 16
    }

    /// Quantizes an f32 activation vector to the layer's input Q-format.
    pub fn quantize_input(&self, x: &[f32]) -> Vec<i16> {
        x.iter()
            .map(|&v| quantize_to_raw(v, self.scheme.input_frac))
            .collect()
    }

    /// Dequantizes a raw output vector from the layer's output Q-format.
    pub fn dequantize_output(&self, y_raw: &[i16]) -> Vec<f32> {
        y_raw
            .iter()
            .map(|&r| dequantize_raw(r, self.scheme.output_frac))
            .collect()
    }

    /// The integer matvec: raw input at `input_frac` in, raw output at
    /// `output_frac` out, datapath counters returned.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] unless
    /// `x_raw.len() == in_dim()` and `y_raw.len() == out_dim()`.
    pub fn matvec_q_into(
        &self,
        x_raw: &[i16],
        y_raw: &mut [i16],
    ) -> Result<QKernelStats, FormatError> {
        self.matvec_q_scratch(x_raw, y_raw, &mut QScratch::default())
    }

    /// The integer matvec with caller-owned scratch buffers — the serving hot
    /// path. Bit-identical outputs and counters to
    /// [`matvec_q_reference`](Self::matvec_q_reference): the column-sparse
    /// kernel runs on a flat reusable `i32` accumulator array (replicating
    /// [`Accumulator24`] arithmetic exactly, in the same per-accumulator
    /// order) with its inner loop unrolled four-wide over each column's
    /// entry slices, and the fallback path stages through reusable f32
    /// buffers.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] unless
    /// `x_raw.len() == in_dim()` and `y_raw.len() == out_dim()`.
    pub fn matvec_q_scratch(
        &self,
        x_raw: &[i16],
        y_raw: &mut [i16],
        scratch: &mut QScratch,
    ) -> Result<QKernelStats, FormatError> {
        check_dim("matvec_q_into", self.cols, x_raw.len())?;
        check_dim("matvec_q_into", self.rows, y_raw.len())?;
        let mut stats = QKernelStats::default();
        match &self.exec {
            QExec::Integer(QuantKernel::Dense { weights }) => {
                let wf = self.scheme.weight_frac;
                for (r, out) in y_raw.iter_mut().enumerate() {
                    let mut acc = self.seeded_acc(r, &mut stats);
                    let row = &weights[r * self.cols..(r + 1) * self.cols];
                    for (&w, &x) in row.iter().zip(x_raw.iter()) {
                        stats.products += 1;
                        stats.accumulator_saturations +=
                            u64::from(acc.accumulate_checked(product_to_acc(x, w, wf)));
                    }
                    *out = self.finish_output(acc.value(), &mut stats);
                }
            }
            QExec::Integer(QuantKernel::ColumnSparse {
                col_ptr,
                row_idx,
                weights,
            }) => {
                // The column-wise dataflow: one running accumulator per output
                // row, zero input activations skipped entirely. Accumulators
                // are flat i32s (acc_step replays Accumulator24 exactly) and
                // each column's entries stream four-wide; entries are applied
                // in stored order, so every accumulator sees the same
                // saturating-add sequence as the reference kernel.
                let wf = self.scheme.weight_frac;
                let accs = &mut scratch.accs;
                accs.clear();
                match &self.bias_raw {
                    Some(bias) => {
                        accs.extend(
                            bias.iter()
                                .map(|&b| b.clamp(Accumulator24::MIN, Accumulator24::MAX)),
                        );
                        stats.accumulator_saturations += bias
                            .iter()
                            .filter(|&&b| !(Accumulator24::MIN..=Accumulator24::MAX).contains(&b))
                            .count()
                            as u64;
                    }
                    None => accs.resize(self.rows, 0),
                }
                for (c, &x) in x_raw.iter().enumerate() {
                    if x == 0 {
                        continue;
                    }
                    let (s, e) = (col_ptr[c], col_ptr[c + 1]);
                    let mut sat = 0u64;
                    let mut idx = row_idx[s..e].chunks_exact(4);
                    let mut ws = weights[s..e].chunks_exact(4);
                    for (ri, wi) in (&mut idx).zip(&mut ws) {
                        sat += acc_step(accs, ri[0], x, wi[0], wf);
                        sat += acc_step(accs, ri[1], x, wi[1], wf);
                        sat += acc_step(accs, ri[2], x, wi[2], wf);
                        sat += acc_step(accs, ri[3], x, wi[3], wf);
                    }
                    for (&r, &w) in idx.remainder().iter().zip(ws.remainder()) {
                        sat += acc_step(accs, r, x, w, wf);
                    }
                    stats.products += (e - s) as u64;
                    stats.accumulator_saturations += sat;
                }
                for (out, &acc) in y_raw.iter_mut().zip(accs.iter()) {
                    *out = self.finish_output(acc, &mut stats);
                }
            }
            QExec::Fallback(op) => {
                let QScratch { x_f32, y_f32, .. } = scratch;
                x_f32.clear();
                x_f32.extend(
                    x_raw
                        .iter()
                        .map(|&r| dequantize_raw(r, self.scheme.input_frac)),
                );
                y_f32.clear();
                y_f32.resize(self.rows, 0.0);
                op.matvec_into(x_f32, y_f32)?;
                stats.products += op.mul_count();
                let bias_scale = (1u32 << self.scheme.input_frac) as f32;
                let out_scale = (1u32 << self.scheme.output_frac) as f32;
                for (r, (out, &v)) in y_raw.iter_mut().zip(y_f32.iter()).enumerate() {
                    let biased = match &self.bias_raw {
                        Some(bias) => v + bias[r] as f32 / bias_scale,
                        None => v,
                    };
                    // Same clamp detection as `requantize_acc`: compare the
                    // pre-clamp scaled value, so a value landing exactly on
                    // the rail does not count as a saturation.
                    let scaled = (biased * out_scale).round();
                    let clamped = scaled.clamp(i16::MIN as f32, i16::MAX as f32);
                    stats.requantize_saturations += u64::from(scaled != clamped);
                    *out = clamped as i16;
                }
            }
        }
        Ok(stats)
    }

    /// The pre-optimization integer matvec, retained verbatim as the
    /// wall-clock and bit-identity baseline for `wall_sweep` and
    /// `tests/wall.rs`: the column-sparse path allocates a fresh
    /// [`Accumulator24`] vector per call and applies entries one at a time.
    /// Production call sites use [`matvec_q_into`](Self::matvec_q_into) /
    /// [`matvec_q_scratch`](Self::matvec_q_scratch).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] unless
    /// `x_raw.len() == in_dim()` and `y_raw.len() == out_dim()`.
    pub fn matvec_q_reference(
        &self,
        x_raw: &[i16],
        y_raw: &mut [i16],
    ) -> Result<QKernelStats, FormatError> {
        check_dim("matvec_q_into", self.cols, x_raw.len())?;
        check_dim("matvec_q_into", self.rows, y_raw.len())?;
        let mut stats = QKernelStats::default();
        match &self.exec {
            QExec::Integer(QuantKernel::Dense { weights }) => {
                let wf = self.scheme.weight_frac;
                for (r, out) in y_raw.iter_mut().enumerate() {
                    let mut acc = self.seeded_acc(r, &mut stats);
                    let row = &weights[r * self.cols..(r + 1) * self.cols];
                    for (&w, &x) in row.iter().zip(x_raw.iter()) {
                        stats.products += 1;
                        stats.accumulator_saturations +=
                            u64::from(acc.accumulate_checked(product_to_acc(x, w, wf)));
                    }
                    *out = self.finish_output(acc.value(), &mut stats);
                }
            }
            QExec::Integer(QuantKernel::ColumnSparse {
                col_ptr,
                row_idx,
                weights,
            }) => {
                // The column-wise dataflow: one running accumulator per output
                // row, zero input activations skipped entirely.
                let wf = self.scheme.weight_frac;
                let mut accs: Vec<Accumulator24> = (0..self.rows)
                    .map(|r| self.seeded_acc(r, &mut stats))
                    .collect();
                for (c, &x) in x_raw.iter().enumerate() {
                    if x == 0 {
                        continue;
                    }
                    for i in col_ptr[c]..col_ptr[c + 1] {
                        stats.products += 1;
                        stats.accumulator_saturations += u64::from(
                            accs[row_idx[i] as usize]
                                .accumulate_checked(product_to_acc(x, weights[i], wf)),
                        );
                    }
                }
                for (out, acc) in y_raw.iter_mut().zip(accs.iter()) {
                    *out = self.finish_output(acc.value(), &mut stats);
                }
            }
            QExec::Fallback(_) => return self.matvec_q_into(x_raw, y_raw),
        }
        Ok(stats)
    }

    /// A fresh accumulator, pre-loaded with the row's quantized bias (if
    /// any); a bias outside the 24-bit range clamps and is counted.
    #[inline]
    fn seeded_acc(&self, row: usize, stats: &mut QKernelStats) -> Accumulator24 {
        let mut acc = Accumulator24::new();
        if let Some(bias) = &self.bias_raw {
            stats.accumulator_saturations += u64::from(acc.accumulate_checked(bias[row]));
        }
        acc
    }

    /// Requantizes one finished accumulator to the output Q-format.
    #[inline]
    fn finish_output(&self, acc_value: i32, stats: &mut QKernelStats) -> i16 {
        let (raw, clipped) =
            requantize_acc(acc_value, self.scheme.input_frac, self.scheme.output_frac);
        stats.requantize_saturations += u64::from(clipped);
        raw
    }

    /// Writes the snapshot payload for [`FORMAT_QUANTIZED`]
    /// (`crate::snapshot::FORMAT_QUANTIZED`): shape, Q-scheme, label and cost
    /// metadata, then the raw integer kernel (or the nested tensor record of
    /// the fallback operator), then the quantized bias. Returns `None`
    /// without writing anything if a fallback-wrapped operator has no codec.
    pub(crate) fn snapshot_write(&self, out: &mut crate::snapshot::ByteWriter) -> Option<u16> {
        use crate::snapshot::ByteWriter;
        // Build the whole payload first so an unsupported inner operator
        // leaves `out` untouched.
        let mut w = ByteWriter::new();
        w.dim(self.rows);
        w.dim(self.cols);
        w.u8(self.scheme.input_frac as u8);
        w.u8(self.scheme.weight_frac as u8);
        w.u8(self.scheme.output_frac as u8);
        w.str(&self.label);
        w.u64(self.mul_count);
        w.u8(u8::from(self.exploits_input_sparsity));
        match &self.exec {
            QExec::Integer(QuantKernel::Dense { weights }) => {
                w.u8(0);
                for &v in weights {
                    w.i16(v);
                }
            }
            QExec::Integer(QuantKernel::ColumnSparse {
                col_ptr,
                row_idx,
                weights,
            }) => {
                w.u8(1);
                w.u64(weights.len() as u64);
                // Row indices take 2 bytes whenever they fit (they always do
                // below 64Ki rows) — at u32 the indices would outweigh the
                // i16 weights 2:1, wrecking the compression the formats buy.
                let idx_width: u8 = if self.rows <= (u16::MAX as usize) + 1 {
                    2
                } else {
                    4
                };
                w.u8(idx_width);
                for &p in col_ptr {
                    w.u32(p as u32);
                }
                for &r in row_idx {
                    if idx_width == 2 {
                        w.u16(r as u16);
                    } else {
                        w.u32(r);
                    }
                }
                for &v in weights {
                    w.i16(v);
                }
            }
            QExec::Fallback(op) => {
                let inner = crate::snapshot::encode_tensor(op.as_ref()).ok()?;
                w.u8(2);
                w.u64(inner.len() as u64);
                w.bytes(&inner);
            }
        }
        match &self.bias_raw {
            Some(bias) => {
                w.u8(1);
                for &b in bias {
                    w.i32(b);
                }
            }
            None => w.u8(0),
        }
        out.bytes(w.as_slice());
        Some(crate::snapshot::FORMAT_QUANTIZED)
    }

    /// Decodes a [`FORMAT_QUANTIZED`](crate::snapshot::FORMAT_QUANTIZED)
    /// payload written by [`QuantizedLinear::snapshot_write`]. Every field is
    /// validated; corrupted payloads produce a typed
    /// [`SnapshotError`](crate::snapshot::SnapshotError), never a panic.
    pub(crate) fn snapshot_read(
        r: &mut crate::snapshot::ByteReader<'_>,
        codec: &crate::snapshot::SnapshotCodec,
    ) -> Result<QuantizedLinear, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let rows = r.dim("quantized rows")?;
        let cols = r.dim("quantized cols")?;
        let mut frac = [0u32; 3];
        for (name, slot) in ["input_frac", "weight_frac", "output_frac"]
            .iter()
            .zip(frac.iter_mut())
        {
            let v = u32::from(r.u8("quantized scheme")?);
            if !(1..=14).contains(&v) {
                return Err(SnapshotError::Malformed {
                    context: "quantized scheme",
                    reason: format!("{name} = {v} outside 1..=14"),
                });
            }
            *slot = v;
        }
        let scheme = QScheme::new(frac[0], frac[1], frac[2]);
        let label = r.str("quantized label")?;
        let mul_count = r.u64("quantized mul count")?;
        let exploits_input_sparsity = r.u8("quantized sparsity flag")? != 0;
        let exec_kind = r.u8("quantized exec kind")?;
        let (exec, stored_weights) = match exec_kind {
            0 => {
                let weights = r.i16_vec(rows * cols, "quantized dense weights")?;
                let stored = weights.len();
                (QExec::Integer(QuantKernel::Dense { weights }), stored)
            }
            1 => {
                let nnz = r.u64("quantized nnz")? as usize;
                let idx_width = r.u8("quantized index width")?;
                if idx_width != 2 && idx_width != 4 {
                    return Err(SnapshotError::Malformed {
                        context: "quantized index width",
                        reason: format!("width {idx_width} is not 2 or 4"),
                    });
                }
                // Guard before the three allocations below: the declared nnz
                // must fit in the bytes present (index + 2 per entry).
                let per_entry = u64::from(idx_width) + 2;
                if (nnz as u64).saturating_mul(per_entry) > r.remaining() as u64 {
                    return Err(SnapshotError::Truncated {
                        context: "quantized column-sparse kernel",
                        needed: (nnz as u64).saturating_mul(per_entry),
                        got: r.remaining() as u64,
                    });
                }
                let col_ptr = r.u32_vec(cols + 1, "quantized col_ptr")?;
                if col_ptr.first() != Some(&0)
                    || col_ptr.last() != Some(&nnz)
                    || col_ptr.windows(2).any(|w| w[0] > w[1])
                {
                    return Err(SnapshotError::Malformed {
                        context: "quantized col_ptr",
                        reason: "column pointers are not a monotone 0..=nnz walk".to_string(),
                    });
                }
                let row_idx_usize = if idx_width == 2 {
                    r.u16_vec(nnz, "quantized row_idx")?
                } else {
                    r.u32_vec(nnz, "quantized row_idx")?
                };
                if row_idx_usize.iter().any(|&ri| ri >= rows) {
                    return Err(SnapshotError::Malformed {
                        context: "quantized row_idx",
                        reason: format!("row index out of bounds for {rows} rows"),
                    });
                }
                let row_idx: Vec<u32> = row_idx_usize.into_iter().map(|v| v as u32).collect();
                let weights = r.i16_vec(nnz, "quantized sparse weights")?;
                (
                    QExec::Integer(QuantKernel::ColumnSparse {
                        col_ptr,
                        row_idx,
                        weights,
                    }),
                    nnz,
                )
            }
            2 => {
                let len = r.u64("quantized fallback length")? as usize;
                let mut inner = r.sub_reader(len, "quantized fallback record")?;
                let op = codec.decode_tensor(&mut inner)?;
                inner.expect_end("quantized fallback record")?;
                if op.out_dim() != rows || op.in_dim() != cols {
                    return Err(SnapshotError::Malformed {
                        context: "quantized fallback",
                        reason: format!(
                            "inner operator is {}x{}, wrapper declares {}x{}",
                            op.out_dim(),
                            op.in_dim(),
                            rows,
                            cols
                        ),
                    });
                }
                let stored = op.stored_weights();
                (QExec::Fallback(op), stored)
            }
            other => {
                return Err(SnapshotError::Malformed {
                    context: "quantized exec kind",
                    reason: format!("unknown kind {other}"),
                })
            }
        };
        let bias_raw = match r.u8("quantized bias flag")? {
            0 => None,
            1 => {
                let mut bias = Vec::with_capacity(rows.min(r.remaining() / 4));
                for _ in 0..rows {
                    bias.push(r.i32("quantized bias")?);
                }
                Some(bias)
            }
            other => {
                return Err(SnapshotError::Malformed {
                    context: "quantized bias flag",
                    reason: format!("flag {other} is not 0 or 1"),
                })
            }
        };
        Ok(QuantizedLinear {
            rows,
            cols,
            scheme,
            exec,
            bias_raw,
            label,
            stored_weights,
            mul_count,
            exploits_input_sparsity,
        })
    }

    /// The integer matvec into a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] if `x_raw.len() != in_dim()`.
    pub fn matvec_q(&self, x_raw: &[i16]) -> Result<(Vec<i16>, QKernelStats), FormatError> {
        let mut y = vec![0i16; self.rows];
        let stats = self.matvec_q_into(x_raw, &mut y)?;
        Ok((y, stats))
    }

    /// Batched integer product: `batch` row-major raw input vectors in,
    /// `batch × out_dim` raw outputs plus merged counters out. Row `i` of the
    /// output is exactly `matvec_q` of row `i` of the input.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] if
    /// `xs_raw.len() != batch * in_dim()`, and [`FormatError::LengthOverflow`]
    /// if `batch * in_dim()` or `batch * out_dim()` overflows.
    pub fn matmul_q(
        &self,
        xs_raw: &[i16],
        batch: usize,
    ) -> Result<(Vec<i16>, QKernelStats), FormatError> {
        let mut out = vec![0i16; batch_len("matmul_q", batch, self.rows)?];
        let stats = self.matmul_q_into(xs_raw, batch, &mut out, &mut QScratch::default())?;
        Ok((out, stats))
    }

    /// Batched integer product into a caller-provided output buffer with
    /// caller-owned scratch. Row `i` of the output is exactly
    /// [`matvec_q`](Self::matvec_q) of input row `i`. The runtime's workers
    /// drive the f32 [`CompressedLinear`] surface instead, which runs the
    /// same integer datapath per row.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] unless
    /// `xs_raw.len() == batch * in_dim()` and
    /// `out.len() == batch * out_dim()`, and [`FormatError::LengthOverflow`]
    /// if either product overflows.
    pub fn matmul_q_into(
        &self,
        xs_raw: &[i16],
        batch: usize,
        out: &mut [i16],
        scratch: &mut QScratch,
    ) -> Result<QKernelStats, FormatError> {
        check_dim(
            "matmul_q",
            batch_len("matmul_q", batch, self.cols)?,
            xs_raw.len(),
        )?;
        check_dim(
            "matmul_q",
            batch_len("matmul_q", batch, self.rows)?,
            out.len(),
        )?;
        let mut stats = QKernelStats::default();
        for i in 0..batch {
            let row_stats = self.matvec_q_scratch(
                &xs_raw[i * self.cols..(i + 1) * self.cols],
                &mut out[i * self.rows..(i + 1) * self.rows],
                scratch,
            )?;
            stats.merge(&row_stats);
        }
        Ok(stats)
    }
}

impl CompressedLinear for QuantizedLinear {
    fn out_dim(&self) -> usize {
        self.rows
    }

    fn in_dim(&self) -> usize {
        self.cols
    }

    fn label(&self) -> String {
        self.label.clone()
    }

    fn stored_weights(&self) -> usize {
        self.stored_weights
    }

    fn mul_count(&self) -> u64 {
        self.mul_count
    }

    fn exploits_input_sparsity(&self) -> bool {
        self.exploits_input_sparsity
    }

    fn write_snapshot(&self, out: &mut crate::snapshot::ByteWriter) -> Option<u16> {
        self.snapshot_write(out)
    }

    /// The f32 surface: quantize the input, run the integer kernel,
    /// dequantize the output. Deterministic element-wise, so every batched /
    /// parallel path built on it inherits bit-for-bit reproducibility.
    fn matvec_into(&self, x: &[f32], y: &mut [f32]) -> Result<(), FormatError> {
        self.matvec_scratch(x, y, &mut crate::Scratch::new())
    }

    /// Same quantize → integer kernel → dequantize path, staging the raw
    /// activation vectors and the kernel's accumulators in the arena's
    /// [`QScratch`] slot. The raw staging buffers are temporarily moved out
    /// of the slot so the kernel can borrow the remaining scratch fields.
    fn matvec_scratch(
        &self,
        x: &[f32],
        y: &mut [f32],
        scratch: &mut crate::Scratch,
    ) -> Result<(), FormatError> {
        check_dim("matvec_into", self.cols, x.len())?;
        check_dim("matvec_into", self.rows, y.len())?;
        let qs = scratch.slot::<QScratch>();
        let mut x_raw = std::mem::take(&mut qs.x_raw);
        let mut y_raw = std::mem::take(&mut qs.y_raw);
        x_raw.clear();
        x_raw.extend(
            x.iter()
                .map(|&v| quantize_to_raw(v, self.scheme.input_frac)),
        );
        y_raw.clear();
        y_raw.resize(self.rows, 0);
        let result = self.matvec_q_scratch(&x_raw, &mut y_raw, qs);
        if result.is_ok() {
            for (out, &raw) in y.iter_mut().zip(y_raw.iter()) {
                *out = dequantize_raw(raw, self.scheme.output_frac);
            }
        }
        qs.x_raw = x_raw;
        qs.y_raw = y_raw;
        result.map(|_| ())
    }

    /// Dequantized weights (plus the dequantized bias folded out — the dense
    /// expansion is of the *linear* operator only, bias excluded, like every
    /// other format).
    fn to_dense(&self) -> Matrix {
        match &self.exec {
            QExec::Integer(QuantKernel::Dense { weights }) => {
                let mut m = Matrix::zeros(self.rows, self.cols);
                for (out, &w) in m.as_mut_slice().iter_mut().zip(weights.iter()) {
                    *out = dequantize_raw(w, self.scheme.weight_frac);
                }
                m
            }
            QExec::Integer(QuantKernel::ColumnSparse {
                col_ptr,
                row_idx,
                weights,
            }) => {
                let mut m = Matrix::zeros(self.rows, self.cols);
                for c in 0..self.cols {
                    for i in col_ptr[c]..col_ptr[c + 1] {
                        m[(row_idx[i] as usize, c)] =
                            dequantize_raw(weights[i], self.scheme.weight_frac);
                    }
                }
                m
            }
            QExec::Fallback(op) => op.to_dense(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockPermDiagMatrix;
    use pd_tensor::init::{seeded_rng, sparse_activation_vector, xavier_uniform};

    fn pd_quantized(rows: usize, cols: usize, p: usize, seed: u64) -> QuantizedLinear {
        let op: Arc<dyn CompressedLinear> = Arc::new(BlockPermDiagMatrix::random(
            rows,
            cols,
            p,
            &mut seeded_rng(seed),
        ));
        QuantizedLinear::from_op(
            Arc::clone(&op),
            QScheme::calibrate(1.0, op.max_weight_abs(), 8.0),
        )
    }

    #[test]
    fn dense_kernel_matches_f32_reference_within_rounding() {
        let m = xavier_uniform(&mut seeded_rng(1), 12, 20);
        let op: Arc<dyn CompressedLinear> = Arc::new(m);
        let scheme = QScheme::calibrate(1.0, op.max_weight_abs(), 4.0);
        let q = QuantizedLinear::from_op(Arc::clone(&op), scheme);
        assert!(q.has_integer_kernel());
        let x: Vec<f32> = (0..20).map(|i| (i as f32 * 0.31).sin()).collect();
        let y = q.matvec(&x).unwrap();
        // Reference: dequantized weights × round-tripped input in f32.
        let x_rt: Vec<f32> = x
            .iter()
            .map(|&v| pd_tensor::fixed::roundtrip_f32(v, scheme.input_frac))
            .collect();
        let reference = q.to_dense().matvec(&x_rt);
        let tol = scheme.accumulator_epsilon() * 20.0 + scheme.output_epsilon();
        for (a, b) in y.iter().zip(reference.iter()) {
            assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
        }
    }

    #[test]
    fn column_sparse_kernel_skips_zero_inputs() {
        let q = pd_quantized(16, 24, 4, 2);
        let x = sparse_activation_vector(&mut seeded_rng(3), 24, 0.5);
        let x_raw = q.quantize_input(&x);
        let zero_inputs = x_raw.iter().filter(|&&r| r == 0).count();
        let (_, stats) = q.matvec_q(&x_raw).unwrap();
        // 4 stored weights per column; only non-zero columns issue products.
        assert_eq!(stats.products, ((24 - zero_inputs) * 4) as u64);
    }

    #[test]
    fn bias_is_added_in_the_quantized_domain() {
        let m = Matrix::identity(4);
        let op: Arc<dyn CompressedLinear> = Arc::new(m);
        let scheme = QScheme::new(12, 12, 12);
        let bias = [0.5f32, -0.25, 0.0, 1.0];
        let q = QuantizedLinear::from_op(op, scheme).with_bias(&bias);
        let y = q.matvec(&[1.0, 1.0, 1.0, 1.0]).unwrap();
        for (i, &b) in bias.iter().enumerate() {
            assert!((y[i] - (1.0 + b)).abs() < 1e-3, "row {i}: {}", y[i]);
        }
    }

    #[test]
    fn bias_is_seeded_before_requantization() {
        // The pre-bias product sum (4.0) overflows the calibrated Q1.14
        // output range (±2), but the biased result (0.5) fits. Because the
        // bias seeds the 24-bit accumulator before requantization, the layer
        // is exact — requantizing first would clamp the sum to ~2.0, clip
        // the bias to −2.0, and return ~0.0.
        let m = Matrix::filled(1, 4, 1.0);
        let op: Arc<dyn CompressedLinear> = Arc::new(m);
        let q = QuantizedLinear::from_op(op, QScheme::calibrate(1.0, 1.0, 0.5)).with_bias(&[-3.5]);
        let (y_raw, stats) = q
            .matvec_q(&q.quantize_input(&[1.0, 1.0, 1.0, 1.0]))
            .unwrap();
        let y = q.dequantize_output(&y_raw);
        assert!((y[0] - 0.5).abs() < 1e-3, "expected 0.5, got {}", y[0]);
        assert!(!stats.saturated(), "the affine sum fits the formats");
    }

    #[test]
    fn fallback_rail_value_is_not_a_phantom_saturation() {
        // An output landing exactly on the i16 rail without clamping must
        // not count as a requantizer saturation (true-clamp detection, as in
        // the integer path). i16::MAX / 2^12 = 7.999755859375 is exactly
        // representable, and a 1×1 identity has no integer kernel path here:
        // force the fallback by wrapping a circulant-like f32-only operator.
        struct F32Only(Matrix);
        impl CompressedLinear for F32Only {
            fn out_dim(&self) -> usize {
                self.0.rows()
            }
            fn in_dim(&self) -> usize {
                self.0.cols()
            }
            fn label(&self) -> String {
                "f32-only".into()
            }
            fn stored_weights(&self) -> usize {
                self.0.len()
            }
            fn mul_count(&self) -> u64 {
                self.0.len() as u64
            }
            fn matvec_into(&self, x: &[f32], y: &mut [f32]) -> Result<(), FormatError> {
                self.0.matvec_into(x, y)
            }
            fn to_dense(&self) -> Matrix {
                self.0.clone()
            }
        }
        let rail = i16::MAX as f32 / 4096.0;
        let op: Arc<dyn CompressedLinear> = Arc::new(F32Only(Matrix::filled(1, 1, rail)));
        let q = QuantizedLinear::from_op(op, QScheme::new(12, 12, 12));
        assert!(!q.has_integer_kernel());
        let (y_raw, stats) = q.matvec_q(&q.quantize_input(&[1.0])).unwrap();
        assert_eq!(y_raw[0], i16::MAX, "exactly on the rail");
        assert_eq!(stats.requantize_saturations, 0, "no clamp actually fired");
        // One ulp beyond the rail does clamp — and is counted.
        let (y2, stats2) = q.matvec_q(&[4097]).unwrap();
        assert_eq!(y2[0], i16::MAX);
        assert!(stats2.requantize_saturations > 0);
    }

    #[test]
    fn saturations_are_counted_not_silent() {
        // Q1.14 output cannot represent 4·(1·1) = 4: requantization clamps.
        let m = Matrix::filled(1, 4, 1.0);
        let op: Arc<dyn CompressedLinear> = Arc::new(m);
        let q = QuantizedLinear::from_op(op, QScheme::new(14, 14, 14));
        let x_raw = q.quantize_input(&[1.0, 1.0, 1.0, 1.0]);
        let (y, stats) = q.matvec_q(&x_raw).unwrap();
        assert!(stats.saturated());
        assert!(stats.requantize_saturations >= 1);
        assert_eq!(y[0], i16::MAX, "output pinned at the positive rail");
    }

    #[test]
    fn accumulator_saturation_is_observable() {
        // 512 weights of ~1.9 against inputs of 1.9 at frac 14: each rounded
        // product is ≈ 1.9² · 2^14 ≈ 59k; the 24-bit bound 2^23 ≈ 8.4M is hit
        // after ~142 products, so the accumulator must clamp (and count it).
        let m = Matrix::filled(1, 512, 1.9);
        let op: Arc<dyn CompressedLinear> = Arc::new(m);
        let q = QuantizedLinear::from_op(op, QScheme::new(14, 14, 1));
        let x_raw = q.quantize_input(&vec![1.9f32; 512]);
        let (_, stats) = q.matvec_q(&x_raw).unwrap();
        assert!(stats.accumulator_saturations > 0);
    }

    #[test]
    fn matmul_q_rows_equal_individual_matvecs() {
        let q = pd_quantized(8, 12, 4, 5);
        let xs_mat = xavier_uniform(&mut seeded_rng(6), 5, 12);
        let mut xs_raw = Vec::new();
        for i in 0..5 {
            xs_raw.extend(q.quantize_input(xs_mat.row(i)));
        }
        let (out, stats) = q.matmul_q(&xs_raw, 5).unwrap();
        let mut merged = QKernelStats::default();
        for i in 0..5 {
            let (row, row_stats) = q.matvec_q(&xs_raw[i * 12..(i + 1) * 12]).unwrap();
            assert_eq!(&out[i * 8..(i + 1) * 8], &row[..], "row {i}");
            merged.merge(&row_stats);
        }
        assert_eq!(stats, merged);
    }

    #[test]
    fn trait_surface_round_trips_through_the_integer_kernel() {
        let q = pd_quantized(16, 16, 4, 7);
        let x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.7).cos()).collect();
        let via_trait = CompressedLinear::matvec(&q, &x).unwrap();
        let (raw, _) = q.matvec_q(&q.quantize_input(&x)).unwrap();
        assert_eq!(via_trait, q.dequantize_output(&raw), "one arithmetic path");
        assert!(q.label().starts_with("q16 "));
        assert_eq!(q.weight_storage_bits(), q.stored_weights() as u64 * 16);
    }

    #[test]
    fn dimension_mismatches_are_typed_errors() {
        let q = pd_quantized(8, 8, 4, 9);
        assert!(matches!(
            q.matvec_q(&[0i16; 7]),
            Err(FormatError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            q.matmul_q(&[0i16; 15], 2),
            Err(FormatError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            CompressedLinear::matvec(&q, &[0.0; 9]),
            Err(FormatError::DimensionMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "outside the supported")]
    fn scheme_rejects_zero_frac() {
        let _ = QScheme::new(0, 12, 12);
    }
}

//! LSTM sequence-to-sequence model with dense or permuted-diagonal gate matrices.
//!
//! The paper's Table III compresses the Stanford NMT model — a stack of LSTMs whose
//! component weight matrices ("one FC in LSTM means one component weight matrix") are
//! made block-permuted-diagonal with p = 8 — and reports unchanged BLEU. This module
//! provides the ingredients of that experiment at laptop scale: an [`LstmCell`] whose
//! eight gate matrices (`W_x*` and `W_h*` for the input, forget, cell and output gates)
//! can each be dense or permuted-diagonal, a [`Seq2Seq`] encoder–decoder built from two
//! such cells with a dense vocabulary head, full back-propagation through time, and BLEU
//! evaluation on the synthetic translation task of [`crate::data::TranslationPairs`].
//!
//! Deployment goes through [`Seq2Seq::freeze`]: every gate matrix becomes a frozen
//! [`CompressedLinear`] operator *of the requested [`WeightFormat`]* — the formats the
//! trainer can only proxy (circulant, unstructured-sparse, shared-weight PD) are built
//! here from the trained weights, exactly the post-training step of their respective
//! pipelines — and the [`FrozenSeq2Seq`] serves per-timestep batched gate matmuls
//! through the runtime's `ParallelExecutor`, bit-for-bit identical to sequential
//! decoding for any worker count.

use std::sync::Arc;

use pd_tensor::init::{seeded_rng, xavier_uniform};
use pd_tensor::Matrix;
use permdnn_circulant::approx::circulant_approximate;
use permdnn_core::format::{BatchView, CompressedLinear, FormatError};
use permdnn_core::qlinear::{QScheme, QuantizedLinear};
use permdnn_core::{grad as pd_grad, BlockPermDiagMatrix};
use permdnn_prune::eie_format::{uniform_codebook, EieEncodedMatrix};
use permdnn_prune::{magnitude_prune, CscMatrix};
use permdnn_quant::SharedWeightPdMatrix;
use permdnn_runtime::ParallelExecutor;
use rand_chacha::ChaCha20Rng;

use crate::activations::{sigmoid, sigmoid_grad_from_output, tanh, tanh_grad_from_output};
use crate::data::{one_hot, TranslationPairs};
use crate::layers::WeightFormat;
use crate::loss::softmax_cross_entropy;
use crate::metrics::{argmax, bleu};
use crate::quantize::{max_abs, LayerQuantization, QuantizationReport};

/// The training-time stand-in for a format without a faithful LSTM training
/// rule, or `None` for the formats ([`WeightFormat::Dense`],
/// [`WeightFormat::PermutedDiagonal`]) the trainer represents exactly.
/// Pruning, circulant projection and codebook clustering are post-training
/// steps in their respective pipelines; [`Seq2Seq::freeze`] builds the real
/// operator from the trained proxy weights.
fn proxy_representation(format: WeightFormat) -> Option<&'static str> {
    match format {
        WeightFormat::Circulant { .. }
        | WeightFormat::UnstructuredSparse { .. }
        | WeightFormat::EieEncoded { .. } => Some("dense"),
        WeightFormat::SharedPermutedDiagonal { .. } => Some("unquantized permuted-diagonal"),
        WeightFormat::Dense | WeightFormat::PermutedDiagonal { .. } => None,
    }
}

/// One-hot decoder input: the previous target token, or the start-of-sequence
/// marker in slot `vocab` when there is none. Shared by the training
/// ([`Seq2Seq`]) and frozen ([`FrozenSeq2Seq`]) decoders — the SOS-slot
/// convention is load-bearing for their equivalence, so there is one copy.
fn decoder_input(vocab: usize, prev_token: Option<u32>) -> Vec<f32> {
    let mut v = vec![0.0f32; vocab + 1];
    match prev_token {
        Some(t) if (t as usize) < vocab => v[t as usize] = 1.0,
        _ => v[vocab] = 1.0,
    }
    v
}

thread_local! {
    /// When set, proxy-training warnings on this thread are appended here
    /// instead of written to stderr — the test-observability hook behind
    /// [`capture_proxy_warnings`].
    static PROXY_WARNING_CAPTURE: std::cell::RefCell<Option<Vec<String>>> =
        const { std::cell::RefCell::new(None) };
}

/// Runs `f` with this thread's proxy-training warnings captured instead of
/// written to stderr, returning `f`'s result and the messages emitted. The
/// capture is strictly thread-local, so concurrent tests (or worker threads)
/// never observe each other's warnings, and it is restored on unwind.
pub fn capture_proxy_warnings<T>(f: impl FnOnce() -> T) -> (T, Vec<String>) {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            PROXY_WARNING_CAPTURE.with(|c| *c.borrow_mut() = None);
        }
    }
    PROXY_WARNING_CAPTURE.with(|c| *c.borrow_mut() = Some(Vec::new()));
    let guard = Guard;
    let out = f();
    let msgs = PROXY_WARNING_CAPTURE
        .with(|c| c.borrow_mut().take())
        .unwrap_or_default();
    drop(guard);
    (out, msgs)
}

/// One visible warning per model when training uses a proxy representation —
/// never a silent substitution. Goes to the thread's capture sink when one
/// is installed ([`capture_proxy_warnings`]), to stderr otherwise.
fn warn_proxy_training(context: &str, format: WeightFormat, proxy: &str) {
    let msg = format!(
        "warning: {context}: {} has no LSTM training rule; training {proxy} gates \
         as a proxy (freeze() builds the real {} operators from the trained weights)",
        format.label(),
        format.label()
    );
    let captured = PROXY_WARNING_CAPTURE.with(|c| match c.borrow_mut().as_mut() {
        Some(sink) => {
            sink.push(msg.clone());
            true
        }
        None => false,
    });
    if !captured {
        eprintln!("{msg}");
    }
}

/// Rejects LSTM formats [`Seq2Seq::freeze`] could not honor, up front at
/// construction rather than mid-deployment: the circulant projection
/// ([`circulant_approximate`]) only exists for power-of-two block sizes, and
/// magnitude pruning needs a non-zero inverse density. (The PD-backed formats
/// fail fast on their own: `BlockPermDiagMatrix::random` rejects `p = 0` when
/// the proxy gates are built.)
fn validate_freezable(format: WeightFormat) {
    match format {
        WeightFormat::Circulant { k } => assert!(
            k > 0 && k.is_power_of_two(),
            "LSTM circulant gates need a power-of-two block size (got k = {k}): \
             freeze() builds the operators via the circulant projection, which \
             is only defined for 2^t blocks"
        ),
        WeightFormat::UnstructuredSparse { p } | WeightFormat::EieEncoded { p } => assert!(
            p > 0,
            "LSTM pruned gates need a non-zero inverse density: \
             freeze() magnitude-prunes the trained gates to keep 1/p of the weights"
        ),
        _ => {}
    }
}

/// One recurrent weight matrix, dense or permuted-diagonal, with its gradient buffer.
#[derive(Debug, Clone)]
enum GateWeight {
    Dense {
        w: Matrix,
        grad: Matrix,
    },
    Pd {
        w: BlockPermDiagMatrix,
        grad: Vec<f32>,
    },
}

impl GateWeight {
    fn new(rows: usize, cols: usize, format: WeightFormat, rng: &mut ChaCha20Rng) -> Self {
        match format {
            WeightFormat::Dense
            | WeightFormat::Circulant { .. }
            | WeightFormat::UnstructuredSparse { .. }
            | WeightFormat::EieEncoded { .. } => GateWeight::Dense {
                w: xavier_uniform(rng, rows, cols),
                grad: Matrix::zeros(rows, cols),
            },
            WeightFormat::PermutedDiagonal { p }
            | WeightFormat::SharedPermutedDiagonal { p, .. } => {
                let w = BlockPermDiagMatrix::random(rows, cols, p, rng);
                let n = w.values().len();
                GateWeight::Pd {
                    w,
                    grad: vec![0.0; n],
                }
            }
        }
    }

    fn matvec(&self, x: &[f32]) -> Vec<f32> {
        match self {
            GateWeight::Dense { w, .. } => w.matvec(x),
            GateWeight::Pd { w, .. } => w.matvec(x),
        }
    }

    fn matvec_transposed(&self, g: &[f32]) -> Vec<f32> {
        match self {
            GateWeight::Dense { w, .. } => w.matvec_transposed(g),
            GateWeight::Pd { w, .. } => w.matvec_transposed(g),
        }
    }

    fn accumulate_grad(&mut self, x: &[f32], grad_out: &[f32]) {
        match self {
            GateWeight::Dense { grad, .. } => grad.rank1_update(1.0, grad_out, x),
            GateWeight::Pd { w, grad } => {
                pd_grad::accumulate_weight_gradient(w, x, grad_out, grad)
                    .expect("gradient buffer sized at construction");
            }
        }
    }

    fn apply(&mut self, lr: f32) {
        match self {
            GateWeight::Dense { w, grad } => {
                w.axpy_in_place(-lr, grad).expect("same shape");
                *grad = Matrix::zeros(w.rows(), w.cols());
            }
            GateWeight::Pd { w, grad } => {
                for (v, g) in w.values_mut().iter_mut().zip(grad.iter()) {
                    *v -= lr * g;
                }
                grad.iter_mut().for_each(|g| *g = 0.0);
            }
        }
    }

    fn stored_weights(&self) -> usize {
        match self {
            GateWeight::Dense { w, .. } => w.len(),
            GateWeight::Pd { w, .. } => w.values().len(),
        }
    }

    /// Builds the deployment operator of the requested format from the trained
    /// weights — the post-training step the proxy formats defer to freeze time
    /// (magnitude pruning for the EIE baseline, circulant projection for the
    /// CIRCNN baseline, codebook clustering for the shared-weight PD format).
    fn frozen_op(&self, format: WeightFormat, rng: &mut ChaCha20Rng) -> Arc<dyn CompressedLinear> {
        match (self, format) {
            (GateWeight::Dense { w, .. }, WeightFormat::Dense) => Arc::new(w.clone()),
            (GateWeight::Dense { w, .. }, WeightFormat::Circulant { k }) => Arc::new(
                circulant_approximate(w, k)
                    .expect("block size validated at construction")
                    .matrix,
            ),
            (GateWeight::Dense { w, .. }, WeightFormat::UnstructuredSparse { p }) => {
                let pruned = magnitude_prune(w, 1.0 / p as f64).pruned;
                Arc::new(CscMatrix::from_dense(&pruned))
            }
            (GateWeight::Dense { w, .. }, WeightFormat::EieEncoded { p }) => {
                let pruned = magnitude_prune(w, 1.0 / p as f64).pruned;
                let codebook = uniform_codebook(4, pruned.max_abs());
                Arc::new(EieEncodedMatrix::encode(&pruned, &codebook, 4, 4))
            }
            (GateWeight::Pd { w, .. }, WeightFormat::PermutedDiagonal { .. }) => {
                Arc::new(w.clone())
            }
            (GateWeight::Pd { w, .. }, WeightFormat::SharedPermutedDiagonal { tag_bits, .. }) => {
                Arc::new(SharedWeightPdMatrix::quantize(w, tag_bits, 25, rng))
            }
            _ => unreachable!("gate representation always matches the model format"),
        }
    }
}

/// Cached per-timestep state needed by back-propagation through time.
#[derive(Debug, Clone)]
struct StepCache {
    x: Vec<f32>,
    h_prev: Vec<f32>,
    c_prev: Vec<f32>,
    i: Vec<f32>,
    f: Vec<f32>,
    g: Vec<f32>,
    o: Vec<f32>,
    tanh_c: Vec<f32>,
}

/// An LSTM cell whose eight component weight matrices can be dense or permuted-diagonal.
#[derive(Debug, Clone)]
pub struct LstmCell {
    wx: [GateWeight; 4], // input, forget, cell, output — applied to x
    wh: [GateWeight; 4], // applied to h_prev
    bias: [Vec<f32>; 4],
    grad_bias: [Vec<f32>; 4],
    input_dim: usize,
    hidden_dim: usize,
    format: WeightFormat,
}

impl LstmCell {
    /// Creates an LSTM cell with the given input and hidden sizes; all eight weight
    /// matrices use `format`.
    ///
    /// Only [`WeightFormat::Dense`] and [`WeightFormat::PermutedDiagonal`] have
    /// faithful LSTM training rules. The remaining formats train through their
    /// proxies — [`WeightFormat::Circulant`] and
    /// [`WeightFormat::UnstructuredSparse`] train dense gates (pruning and
    /// circulant projection are post-training steps in their pipelines), and
    /// [`WeightFormat::SharedPermutedDiagonal`] trains unquantized PD gates
    /// (weight sharing is applied after training, footnote 11) — with a
    /// visible warning emitted once per cell. [`LstmCell::freeze`] builds the
    /// real requested operator from the trained weights; reported
    /// stored-weight counts before freezing reflect the proxy actually
    /// trained.
    ///
    /// # Panics
    ///
    /// Panics if a [`WeightFormat::Circulant`] block size is not a power of
    /// two — the circulant projection `freeze` relies on is only defined for
    /// `2^t` blocks, so the configuration is rejected up front rather than at
    /// deployment.
    pub fn new(
        input_dim: usize,
        hidden_dim: usize,
        format: WeightFormat,
        rng: &mut ChaCha20Rng,
    ) -> Self {
        if let Some(proxy) = proxy_representation(format) {
            warn_proxy_training("LstmCell", format, proxy);
        }
        Self::new_silent(input_dim, hidden_dim, format, rng)
    }

    /// [`LstmCell::new`] without the proxy-format warning — [`Seq2Seq::new`]
    /// warns once for the whole model instead of once per cell.
    pub(crate) fn new_silent(
        input_dim: usize,
        hidden_dim: usize,
        format: WeightFormat,
        rng: &mut ChaCha20Rng,
    ) -> Self {
        validate_freezable(format);
        let wx = std::array::from_fn(|_| GateWeight::new(hidden_dim, input_dim, format, rng));
        let wh = std::array::from_fn(|_| GateWeight::new(hidden_dim, hidden_dim, format, rng));
        let bias = std::array::from_fn(|gate| {
            // Initialise the forget-gate bias to 1.0, the usual trick for trainability.
            if gate == 1 {
                vec![1.0; hidden_dim]
            } else {
                vec![0.0; hidden_dim]
            }
        });
        let grad_bias = std::array::from_fn(|_| vec![0.0; hidden_dim]);
        LstmCell {
            wx,
            wh,
            bias,
            grad_bias,
            input_dim,
            hidden_dim,
            format,
        }
    }

    /// Hidden-state dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// The requested weight format (what [`LstmCell::freeze`] will build).
    pub fn format(&self) -> WeightFormat {
        self.format
    }

    /// Freezes the cell into its inference-only serving form: all eight gate
    /// matrices become [`CompressedLinear`] operators of the cell's requested
    /// [`WeightFormat`], built from the trained weights (the proxy-trained
    /// formats get their real post-training representation here — never a
    /// silent substitute). `rng` seeds the codebook clustering of the
    /// shared-weight format; other formats ignore it.
    pub fn freeze(&self, rng: &mut ChaCha20Rng) -> FrozenLstmCell {
        FrozenLstmCell {
            wx: std::array::from_fn(|g| self.wx[g].frozen_op(self.format, rng)),
            wh: std::array::from_fn(|g| self.wh[g].frozen_op(self.format, rng)),
            bias: self.bias.clone(),
            input_dim: self.input_dim,
            hidden_dim: self.hidden_dim,
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Total stored weights across the eight component matrices (the quantity Table III
    /// compresses).
    pub fn stored_weights(&self) -> usize {
        self.wx.iter().map(|w| w.stored_weights()).sum::<usize>()
            + self.wh.iter().map(|w| w.stored_weights()).sum::<usize>()
    }

    /// One forward step; returns `(h, c, cache)`.
    fn step(&self, x: &[f32], h_prev: &[f32], c_prev: &[f32]) -> (Vec<f32>, Vec<f32>, StepCache) {
        let mut gates = [vec![], vec![], vec![], vec![]];
        #[allow(clippy::needless_range_loop)] // `gate` indexes four parallel weight arrays
        for gate in 0..4 {
            let mut z = self.wx[gate].matvec(x);
            let zh = self.wh[gate].matvec(h_prev);
            for ((zi, &zhi), &b) in z.iter_mut().zip(zh.iter()).zip(self.bias[gate].iter()) {
                *zi += zhi + b;
            }
            gates[gate] = z;
        }
        let i: Vec<f32> = gates[0].iter().map(|&v| sigmoid(v)).collect();
        let f: Vec<f32> = gates[1].iter().map(|&v| sigmoid(v)).collect();
        let g: Vec<f32> = gates[2].iter().map(|&v| tanh(v)).collect();
        let o: Vec<f32> = gates[3].iter().map(|&v| sigmoid(v)).collect();
        let c: Vec<f32> = (0..self.hidden_dim)
            .map(|k| f[k] * c_prev[k] + i[k] * g[k])
            .collect();
        let tanh_c: Vec<f32> = c.iter().map(|&v| tanh(v)).collect();
        let h: Vec<f32> = (0..self.hidden_dim).map(|k| o[k] * tanh_c[k]).collect();
        let cache = StepCache {
            x: x.to_vec(),
            h_prev: h_prev.to_vec(),
            c_prev: c_prev.to_vec(),
            i,
            f,
            g,
            o,
            tanh_c,
        };
        (h, c, cache)
    }

    /// One BPTT step: given gradients w.r.t. this step's `h` and `c`, accumulates weight
    /// gradients and returns `(grad_x, grad_h_prev, grad_c_prev)`.
    fn step_backward(
        &mut self,
        cache: &StepCache,
        grad_h: &[f32],
        grad_c_in: &[f32],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let n = self.hidden_dim;
        let mut grad_c = vec![0.0f32; n];
        for k in 0..n {
            grad_c[k] =
                grad_c_in[k] + grad_h[k] * cache.o[k] * tanh_grad_from_output(cache.tanh_c[k]);
        }
        // Gate pre-activation gradients.
        let mut dz = [
            vec![0.0f32; n],
            vec![0.0f32; n],
            vec![0.0f32; n],
            vec![0.0f32; n],
        ];
        for k in 0..n {
            let di = grad_c[k] * cache.g[k];
            let df = grad_c[k] * cache.c_prev[k];
            let dg = grad_c[k] * cache.i[k];
            let do_ = grad_h[k] * cache.tanh_c[k];
            dz[0][k] = di * sigmoid_grad_from_output(cache.i[k]);
            dz[1][k] = df * sigmoid_grad_from_output(cache.f[k]);
            dz[2][k] = dg * tanh_grad_from_output(cache.g[k]);
            dz[3][k] = do_ * sigmoid_grad_from_output(cache.o[k]);
        }
        let mut grad_x = vec![0.0f32; self.input_dim];
        let mut grad_h_prev = vec![0.0f32; n];
        #[allow(clippy::needless_range_loop)] // `gate` indexes four parallel weight arrays
        for gate in 0..4 {
            self.wx[gate].accumulate_grad(&cache.x, &dz[gate]);
            self.wh[gate].accumulate_grad(&cache.h_prev, &dz[gate]);
            for (gb, &d) in self.grad_bias[gate].iter_mut().zip(dz[gate].iter()) {
                *gb += d;
            }
            for (gx, &v) in grad_x
                .iter_mut()
                .zip(self.wx[gate].matvec_transposed(&dz[gate]).iter())
            {
                *gx += v;
            }
            for (gh, &v) in grad_h_prev
                .iter_mut()
                .zip(self.wh[gate].matvec_transposed(&dz[gate]).iter())
            {
                *gh += v;
            }
        }
        let grad_c_prev: Vec<f32> = (0..n).map(|k| grad_c[k] * cache.f[k]).collect();
        (grad_x, grad_h_prev, grad_c_prev)
    }

    /// Applies and clears accumulated gradients.
    fn apply_gradients(&mut self, lr: f32) {
        for gate in 0..4 {
            self.wx[gate].apply(lr);
            self.wh[gate].apply(lr);
            for (b, g) in self.bias[gate].iter_mut().zip(self.grad_bias[gate].iter()) {
                *b -= lr * g;
            }
            self.grad_bias[gate].iter_mut().for_each(|g| *g = 0.0);
        }
    }
}

/// An inference-only LSTM cell: all eight gate matrices are frozen
/// [`CompressedLinear`] operators (shared behind [`Arc`] with whatever else
/// serves them), stepped either one sequence at a time or as per-timestep
/// batched gate matmuls on a [`ParallelExecutor`].
pub struct FrozenLstmCell {
    wx: [Arc<dyn CompressedLinear>; 4],
    wh: [Arc<dyn CompressedLinear>; 4],
    bias: [Vec<f32>; 4],
    input_dim: usize,
    hidden_dim: usize,
}

impl FrozenLstmCell {
    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-state dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// The eight gate operators (`W_x` then `W_h`, gate order i/f/g/o).
    pub fn gate_ops(&self) -> Vec<&dyn CompressedLinear> {
        self.wx
            .iter()
            .chain(self.wh.iter())
            .map(|op| op.as_ref())
            .collect()
    }

    /// Stored weights across the eight frozen gate operators (the deployment
    /// representation, not the training proxy).
    pub fn stored_weights(&self) -> usize {
        self.gate_ops().iter().map(|op| op.stored_weights()).sum()
    }

    /// Real multiplications one timestep costs on dense activations.
    pub fn mul_count_per_step(&self) -> u64 {
        self.gate_ops().iter().map(|op| op.mul_count()).sum()
    }

    /// One forward step; returns `(h, c)`.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] if any slice length differs
    /// from the cell configuration.
    pub fn step(
        &self,
        x: &[f32],
        h_prev: &[f32],
        c_prev: &[f32],
    ) -> Result<(Vec<f32>, Vec<f32>), FormatError> {
        self.step_with(x, h_prev, c_prev, |_, _, _| {})
    }

    /// [`FrozenLstmCell::step`] with an observer called per gate on the raw
    /// `W_x·x` and `W_h·h` products (pre-bias). The quantization calibration
    /// pass hooks in here, so the ranges it observes come from the *same*
    /// gate loop inference executes — there is exactly one copy of that
    /// arithmetic.
    fn step_with(
        &self,
        x: &[f32],
        h_prev: &[f32],
        c_prev: &[f32],
        mut observe: impl FnMut(usize, &[f32], &[f32]),
    ) -> Result<(Vec<f32>, Vec<f32>), FormatError> {
        permdnn_core::format::check_dim("frozen step (c)", self.hidden_dim, c_prev.len())?;
        let mut gates = [vec![], vec![], vec![], vec![]];
        #[allow(clippy::needless_range_loop)] // `gate` indexes four parallel operator arrays
        for gate in 0..4 {
            let mut z = self.wx[gate].matvec(x)?;
            let zh = self.wh[gate].matvec(h_prev)?;
            observe(gate, &z, &zh);
            for ((zi, &zhi), &b) in z.iter_mut().zip(zh.iter()).zip(self.bias[gate].iter()) {
                *zi += zhi + b;
            }
            gates[gate] = z;
        }
        let [g0, g1, g2, g3] = &gates;
        Ok(self.combine_gates([g0, g1, g2, g3], c_prev))
    }

    /// The element-wise LSTM recurrence shared by the sequential and batched
    /// paths — identical arithmetic order, so the two are bit-for-bit equal.
    fn combine_gates(&self, gates: [&[f32]; 4], c_prev: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let n = self.hidden_dim;
        let i: Vec<f32> = gates[0].iter().map(|&v| sigmoid(v)).collect();
        let f: Vec<f32> = gates[1].iter().map(|&v| sigmoid(v)).collect();
        let g: Vec<f32> = gates[2].iter().map(|&v| tanh(v)).collect();
        let o: Vec<f32> = gates[3].iter().map(|&v| sigmoid(v)).collect();
        let c: Vec<f32> = (0..n).map(|k| f[k] * c_prev[k] + i[k] * g[k]).collect();
        let h: Vec<f32> = (0..n).map(|k| o[k] * tanh(c[k])).collect();
        (h, c)
    }

    /// One forward step for a whole batch of independent sequences: each gate
    /// runs as ONE batched matmul over the stacked inputs (`xs`, `hs`: one row
    /// per sequence), sharded across the executor's workers. Row-granular
    /// sharding re-orders no floating-point operation, so row `r` of the
    /// result is bit-for-bit identical to a sequential
    /// [`FrozenLstmCell::step`] on row `r` — for any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] on any shape inconsistency.
    pub fn step_batch(
        &self,
        xs: &Matrix,
        hs: &Matrix,
        cs: &Matrix,
        exec: &ParallelExecutor,
    ) -> Result<(Matrix, Matrix), FormatError> {
        let batch = xs.rows();
        permdnn_core::format::check_dim("frozen step_batch (h rows)", batch, hs.rows())?;
        permdnn_core::format::check_dim("frozen step_batch (c rows)", batch, cs.rows())?;
        permdnn_core::format::check_dim("frozen step_batch (c cols)", self.hidden_dim, cs.cols())?;
        let mut zs: Vec<Matrix> = Vec::with_capacity(4);
        #[allow(clippy::needless_range_loop)] // `gate` indexes four parallel operator arrays
        for gate in 0..4 {
            let mut z = exec.matmul(&self.wx[gate], &BatchView::from_matrix(xs))?;
            let zh = exec.matmul(&self.wh[gate], &BatchView::from_matrix(hs))?;
            for r in 0..batch {
                let zr = z.row_mut(r);
                for ((zi, &zhi), &b) in zr
                    .iter_mut()
                    .zip(zh.row(r).iter())
                    .zip(self.bias[gate].iter())
                {
                    *zi += zhi + b;
                }
            }
            zs.push(z);
        }
        let mut new_h = Matrix::zeros(batch, self.hidden_dim);
        let mut new_c = Matrix::zeros(batch, self.hidden_dim);
        for r in 0..batch {
            let (h, c) = self.combine_gates(
                [zs[0].row(r), zs[1].row(r), zs[2].row(r), zs[3].row(r)],
                cs.row(r),
            );
            new_h.row_mut(r).copy_from_slice(&h);
            new_c.row_mut(r).copy_from_slice(&c);
        }
        Ok((new_h, new_c))
    }
}

/// Encoder–decoder sequence model: an encoder LSTM reads the one-hot source tokens, a
/// decoder LSTM (initialised with the encoder's final state) generates the target tokens
/// with teacher forcing during training and greedy decoding at inference, through a dense
/// vocabulary head.
#[derive(Debug, Clone)]
pub struct Seq2Seq {
    encoder: LstmCell,
    decoder: LstmCell,
    head: Matrix,
    head_bias: Vec<f32>,
    head_grad: Matrix,
    head_bias_grad: Vec<f32>,
    vocab: usize,
    hidden: usize,
    format: WeightFormat,
}

impl Seq2Seq {
    /// Builds a seq2seq model over a `vocab`-token vocabulary with `hidden` LSTM units.
    ///
    /// Formats without a faithful LSTM training rule train through proxies
    /// (see [`LstmCell::new`]) with one visible warning per model;
    /// [`Seq2Seq::freeze`] builds the real requested operators.
    ///
    /// # Panics
    ///
    /// Panics if a [`WeightFormat::Circulant`] block size is not a power of
    /// two (see [`LstmCell::new`]).
    pub fn new(vocab: usize, hidden: usize, format: WeightFormat, rng: &mut ChaCha20Rng) -> Self {
        if let Some(proxy) = proxy_representation(format) {
            warn_proxy_training("Seq2Seq", format, proxy);
        }
        // +1 input slot for the start-of-sequence token fed to the decoder.
        let encoder = LstmCell::new_silent(vocab, hidden, format, rng);
        let decoder = LstmCell::new_silent(vocab + 1, hidden, format, rng);
        Seq2Seq {
            encoder,
            decoder,
            head: xavier_uniform(rng, vocab, hidden),
            head_bias: vec![0.0; vocab],
            head_grad: Matrix::zeros(vocab, hidden),
            head_bias_grad: vec![0.0; vocab],
            vocab,
            hidden,
            format,
        }
    }

    /// The weight format of the LSTM gate matrices.
    pub fn format(&self) -> WeightFormat {
        self.format
    }

    /// Total stored LSTM weights (encoder + decoder component matrices).
    pub fn lstm_stored_weights(&self) -> usize {
        self.encoder.stored_weights() + self.decoder.stored_weights()
    }

    /// Freezes the trained model into its inference-only serving form: all
    /// sixteen gate matrices become frozen [`CompressedLinear`] operators of
    /// the model's requested [`WeightFormat`] (the proxy-trained formats get
    /// their real post-training representation here), flowing through the
    /// same runtime/quant/sim surfaces as every other model. The vocabulary
    /// head stays dense, exactly as it trains — Table III compresses only
    /// the LSTM component matrices.
    pub fn freeze(&self) -> FrozenSeq2Seq {
        // Deterministic codebook clustering for the shared-weight format.
        let mut rng = seeded_rng(0x51ee7);
        FrozenSeq2Seq {
            encoder: self.encoder.freeze(&mut rng),
            decoder: self.decoder.freeze(&mut rng),
            head: Arc::new(self.head.clone()),
            head_bias: self.head_bias.clone(),
            vocab: self.vocab,
            hidden: self.hidden,
            format: self.format,
        }
    }

    /// Teacher-forced decode logits (one vector per target position) — the
    /// training-path reference the frozen model is property-tested against.
    pub fn teacher_forced_logits(&self, source: &[u32], target: &[u32]) -> Vec<Vec<f32>> {
        let mut h = vec![0.0f32; self.hidden];
        let mut c = vec![0.0f32; self.hidden];
        for &tok in source {
            let x = one_hot(tok, self.vocab);
            let (nh, nc, _) = self.encoder.step(&x, &h, &c);
            h = nh;
            c = nc;
        }
        let mut prev: Option<u32> = None;
        let mut all = Vec::with_capacity(target.len());
        for &tok in target {
            let x = self.decoder_input(prev);
            let (nh, nc, _) = self.decoder.step(&x, &h, &c);
            h = nh;
            c = nc;
            let mut logits = self.head.matvec(&h);
            for (l, b) in logits.iter_mut().zip(self.head_bias.iter()) {
                *l += b;
            }
            all.push(logits);
            prev = Some(tok);
        }
        all
    }

    fn decoder_input(&self, prev_token: Option<u32>) -> Vec<f32> {
        decoder_input(self.vocab, prev_token)
    }

    /// Greedy translation of a source sequence into `target_len` tokens.
    pub fn translate(&self, source: &[u32], target_len: usize) -> Vec<u32> {
        let mut h = vec![0.0f32; self.hidden];
        let mut c = vec![0.0f32; self.hidden];
        for &tok in source {
            let x = one_hot(tok, self.vocab);
            let (nh, nc, _) = self.encoder.step(&x, &h, &c);
            h = nh;
            c = nc;
        }
        let mut output = Vec::with_capacity(target_len);
        let mut prev: Option<u32> = None;
        for _ in 0..target_len {
            let x = self.decoder_input(prev);
            let (nh, nc, _) = self.decoder.step(&x, &h, &c);
            h = nh;
            c = nc;
            let mut logits = self.head.matvec(&h);
            for (l, b) in logits.iter_mut().zip(self.head_bias.iter()) {
                *l += b;
            }
            let tok = argmax(&logits) as u32;
            output.push(tok);
            prev = Some(tok);
        }
        output
    }

    /// Trains on one (source, target) pair with teacher forcing and full BPTT; returns the
    /// mean per-token cross-entropy loss.
    pub fn train_pair(&mut self, source: &[u32], target: &[u32], lr: f32) -> f32 {
        let hidden = self.hidden;
        // ---- Forward ----
        let mut h = vec![0.0f32; hidden];
        let mut c = vec![0.0f32; hidden];
        let mut enc_caches = Vec::with_capacity(source.len());
        for &tok in source {
            let x = one_hot(tok, self.vocab);
            let (nh, nc, cache) = self.encoder.step(&x, &h, &c);
            enc_caches.push(cache);
            h = nh;
            c = nc;
        }
        let mut dec_caches = Vec::with_capacity(target.len());
        let mut dec_hs = Vec::with_capacity(target.len());
        let mut prev: Option<u32> = None;
        let mut total_loss = 0.0f32;
        let mut logit_grads = Vec::with_capacity(target.len());
        for &tok in target {
            let x = self.decoder_input(prev);
            let (nh, nc, cache) = self.decoder.step(&x, &h, &c);
            dec_caches.push(cache);
            h = nh.clone();
            c = nc;
            let mut logits = self.head.matvec(&h);
            for (l, b) in logits.iter_mut().zip(self.head_bias.iter()) {
                *l += b;
            }
            let (loss, grad) = softmax_cross_entropy(&logits, tok as usize);
            total_loss += loss;
            logit_grads.push(grad);
            dec_hs.push(nh);
            prev = Some(tok); // teacher forcing
        }

        // ---- Backward ----
        let mut grad_h = vec![0.0f32; hidden];
        let mut grad_c = vec![0.0f32; hidden];
        for t in (0..target.len()).rev() {
            // Head gradient at step t.
            self.head_grad
                .rank1_update(1.0, &logit_grads[t], &dec_hs[t]);
            for (gb, g) in self.head_bias_grad.iter_mut().zip(logit_grads[t].iter()) {
                *gb += g;
            }
            let head_back = self.head.matvec_transposed(&logit_grads[t]);
            for (gh, &hb) in grad_h.iter_mut().zip(head_back.iter()) {
                *gh += hb;
            }
            let (_, gh_prev, gc_prev) =
                self.decoder.step_backward(&dec_caches[t], &grad_h, &grad_c);
            grad_h = gh_prev;
            grad_c = gc_prev;
        }
        for cache in enc_caches.iter().rev() {
            let (_, gh_prev, gc_prev) = self.encoder.step_backward(cache, &grad_h, &grad_c);
            grad_h = gh_prev;
            grad_c = gc_prev;
        }

        // ---- Update ----
        let steps = target.len().max(1) as f32;
        let scaled_lr = lr / steps;
        self.encoder.apply_gradients(scaled_lr);
        self.decoder.apply_gradients(scaled_lr);
        self.head
            .axpy_in_place(-scaled_lr, &self.head_grad)
            .expect("same shape");
        for (b, g) in self.head_bias.iter_mut().zip(self.head_bias_grad.iter()) {
            *b -= scaled_lr * g;
        }
        self.head_grad = Matrix::zeros(self.vocab, hidden);
        self.head_bias_grad = vec![0.0; self.vocab];

        total_loss / steps
    }

    /// Trains for `epochs` passes over a translation dataset; returns the mean loss of the
    /// final epoch.
    pub fn fit(&mut self, data: &TranslationPairs, epochs: usize, lr: f32) -> f32 {
        let mut last = 0.0f32;
        for _ in 0..epochs {
            let mut total = 0.0f32;
            for (src, tgt) in data.sources.iter().zip(data.targets.iter()) {
                total += self.train_pair(src, tgt, lr);
            }
            last = total / data.len().max(1) as f32;
        }
        last
    }

    /// Corpus BLEU (4-gram, in `[0, 1]`) of greedy translations against the references.
    pub fn evaluate_bleu(&self, data: &TranslationPairs) -> f64 {
        let candidates: Vec<Vec<u32>> = data
            .sources
            .iter()
            .zip(data.targets.iter())
            .map(|(src, tgt)| self.translate(src, tgt.len()))
            .collect();
        bleu(&data.targets, &candidates, 4)
    }

    /// Per-token accuracy of greedy translations (a more forgiving metric used in tests).
    pub fn token_accuracy(&self, data: &TranslationPairs) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for (src, tgt) in data.sources.iter().zip(data.targets.iter()) {
            let out = self.translate(src, tgt.len());
            for (a, b) in out.iter().zip(tgt.iter()) {
                total += 1;
                if a == b {
                    correct += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }
}

/// Per-cell activation ranges observed while calibrating a frozen model for
/// the fixed-point backend.
#[derive(Debug, Clone, Copy, Default)]
struct CellCalibration {
    x_in: f32,
    h_in: f32,
    wx_out: [f32; 4],
    wh_out: [f32; 4],
}

/// The inference-only serving form of a [`Seq2Seq`]: encoder, decoder and
/// vocabulary head are all frozen [`CompressedLinear`] operators.
///
/// Decoding runs either sequentially ([`FrozenSeq2Seq::translate`]) or as
/// per-timestep batched gate matmuls over a batch of sequences on a
/// [`ParallelExecutor`] ([`FrozenSeq2Seq::translate_batch`]) — bit-for-bit
/// identical for any worker count. [`FrozenSeq2Seq::quantize`] drops every
/// operator onto the 16-bit fixed-point backend.
pub struct FrozenSeq2Seq {
    encoder: FrozenLstmCell,
    decoder: FrozenLstmCell,
    head: Arc<dyn CompressedLinear>,
    head_bias: Vec<f32>,
    vocab: usize,
    hidden: usize,
    format: WeightFormat,
}

impl FrozenSeq2Seq {
    /// The weight format of the frozen gate operators.
    pub fn format(&self) -> WeightFormat {
        self.format
    }

    /// The frozen encoder cell.
    pub fn encoder(&self) -> &FrozenLstmCell {
        &self.encoder
    }

    /// The frozen decoder cell.
    pub fn decoder(&self) -> &FrozenLstmCell {
        &self.decoder
    }

    /// Total stored LSTM weights of the deployment representation (for
    /// proxy-trained formats this is the *compressed* count, unlike the
    /// trainer's proxy count).
    pub fn lstm_stored_weights(&self) -> usize {
        self.encoder.stored_weights() + self.decoder.stored_weights()
    }

    /// Real multiplications one translation costs on dense activations.
    pub fn mul_count_per_translation(&self, source_len: usize, target_len: usize) -> u64 {
        self.encoder.mul_count_per_step() * source_len as u64
            + (self.decoder.mul_count_per_step() + self.head.mul_count()) * target_len as u64
    }

    fn decoder_input(&self, prev_token: Option<u32>) -> Vec<f32> {
        decoder_input(self.vocab, prev_token)
    }

    fn head_logits(&self, h: &[f32]) -> Result<Vec<f32>, FormatError> {
        let mut logits = self.head.matvec(h)?;
        for (l, b) in logits.iter_mut().zip(self.head_bias.iter()) {
            *l += b;
        }
        Ok(logits)
    }

    /// Greedy translation of a source sequence into `target_len` tokens
    /// through the sequential frozen path.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] on any internal shape
    /// inconsistency (cannot occur for models built via [`Seq2Seq::freeze`]).
    pub fn translate(&self, source: &[u32], target_len: usize) -> Result<Vec<u32>, FormatError> {
        let mut h = vec![0.0f32; self.hidden];
        let mut c = vec![0.0f32; self.hidden];
        for &tok in source {
            let x = one_hot(tok, self.vocab);
            let (nh, nc) = self.encoder.step(&x, &h, &c)?;
            h = nh;
            c = nc;
        }
        let mut output = Vec::with_capacity(target_len);
        let mut prev: Option<u32> = None;
        for _ in 0..target_len {
            let x = self.decoder_input(prev);
            let (nh, nc) = self.decoder.step(&x, &h, &c)?;
            h = nh;
            c = nc;
            let tok = argmax(&self.head_logits(&h)?) as u32;
            output.push(tok);
            prev = Some(tok);
        }
        Ok(output)
    }

    /// Teacher-forced decode logits — the frozen counterpart of
    /// [`Seq2Seq::teacher_forced_logits`], used by the equivalence property
    /// tests.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] on any internal shape
    /// inconsistency.
    pub fn teacher_forced_logits(
        &self,
        source: &[u32],
        target: &[u32],
    ) -> Result<Vec<Vec<f32>>, FormatError> {
        let mut h = vec![0.0f32; self.hidden];
        let mut c = vec![0.0f32; self.hidden];
        for &tok in source {
            let x = one_hot(tok, self.vocab);
            let (nh, nc) = self.encoder.step(&x, &h, &c)?;
            h = nh;
            c = nc;
        }
        let mut prev: Option<u32> = None;
        let mut all = Vec::with_capacity(target.len());
        for &tok in target {
            let x = self.decoder_input(prev);
            let (nh, nc) = self.decoder.step(&x, &h, &c)?;
            h = nh;
            c = nc;
            all.push(self.head_logits(&h)?);
            prev = Some(tok);
        }
        Ok(all)
    }

    /// Greedy translation of a whole batch of equal-length sources, decoded
    /// in lock-step: every timestep runs each gate as ONE batched matmul over
    /// the stacked sequences, sharded across the executor's workers. Output
    /// `r` is bit-for-bit identical to `translate(&sources[r], target_len)`
    /// for any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] if the sources do not all
    /// have the same length.
    pub fn translate_batch(
        &self,
        sources: &[Vec<u32>],
        target_len: usize,
        exec: &ParallelExecutor,
    ) -> Result<Vec<Vec<u32>>, FormatError> {
        let Some(first) = sources.first() else {
            return Ok(Vec::new());
        };
        let src_len = first.len();
        for s in sources {
            permdnn_core::format::check_dim("translate_batch (source length)", src_len, s.len())?;
        }
        let batch = sources.len();
        let mut hs = Matrix::zeros(batch, self.hidden);
        let mut cs = Matrix::zeros(batch, self.hidden);
        for t in 0..src_len {
            let mut xs = Matrix::zeros(batch, self.vocab);
            for (r, s) in sources.iter().enumerate() {
                xs.row_mut(r).copy_from_slice(&one_hot(s[t], self.vocab));
            }
            let (nh, nc) = self.encoder.step_batch(&xs, &hs, &cs, exec)?;
            hs = nh;
            cs = nc;
        }
        let mut prev: Vec<Option<u32>> = vec![None; batch];
        let mut outputs: Vec<Vec<u32>> = vec![Vec::with_capacity(target_len); batch];
        for _ in 0..target_len {
            let mut xs = Matrix::zeros(batch, self.vocab + 1);
            for (r, p) in prev.iter().enumerate() {
                xs.row_mut(r).copy_from_slice(&self.decoder_input(*p));
            }
            let (nh, nc) = self.decoder.step_batch(&xs, &hs, &cs, exec)?;
            hs = nh;
            cs = nc;
            let logits = exec.matmul(&self.head, &BatchView::from_matrix(&hs))?;
            for (r, out) in outputs.iter_mut().enumerate() {
                let mut row = logits.row(r).to_vec();
                for (l, b) in row.iter_mut().zip(self.head_bias.iter()) {
                    *l += b;
                }
                let tok = argmax(&row) as u32;
                out.push(tok);
                prev[r] = Some(tok);
            }
        }
        Ok(outputs)
    }

    /// Corpus BLEU of greedy frozen translations against the references.
    pub fn evaluate_bleu(&self, data: &TranslationPairs) -> f64 {
        let candidates: Vec<Vec<u32>> = data
            .sources
            .iter()
            .zip(data.targets.iter())
            .map(|(src, tgt)| {
                self.translate(src, tgt.len())
                    .expect("dataset tokens match the model vocabulary")
            })
            .collect();
        bleu(&data.targets, &candidates, 4)
    }

    /// Per-token accuracy of greedy frozen translations.
    pub fn token_accuracy(&self, data: &TranslationPairs) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for (src, tgt) in data.sources.iter().zip(data.targets.iter()) {
            let out = self
                .translate(src, tgt.len())
                .expect("dataset tokens match the model vocabulary");
            for (a, b) in out.iter().zip(tgt.iter()) {
                total += 1;
                if a == b {
                    correct += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// One recording step of the calibration pass: the inference gate loop
    /// ([`FrozenLstmCell::step_with`]) plus range observation — calibration
    /// measures exactly the computation the quantized model will execute.
    fn step_recording(
        cell: &FrozenLstmCell,
        stats: &mut CellCalibration,
        x: &[f32],
        h_prev: &[f32],
        c_prev: &[f32],
    ) -> (Vec<f32>, Vec<f32>) {
        stats.x_in = stats.x_in.max(max_abs(x));
        stats.h_in = stats.h_in.max(max_abs(h_prev));
        cell.step_with(x, h_prev, c_prev, |gate, z, zh| {
            stats.wx_out[gate] = stats.wx_out[gate].max(max_abs(z));
            stats.wh_out[gate] = stats.wh_out[gate].max(max_abs(zh));
        })
        .expect("calibration shapes match the cell")
    }

    /// Quantizes the frozen model to the 16-bit fixed-point backend: every
    /// gate operator and the head are wrapped in [`QuantizedLinear`] with
    /// per-operator Q-formats calibrated on teacher-forced runs over
    /// `calibration` (the PR 3 machinery). The recurrence nonlinearities stay
    /// in f32, exactly as the layer boundaries of the quantized MLP do.
    ///
    /// # Panics
    ///
    /// Panics if `calibration` is empty.
    pub fn quantize(&self, calibration: &TranslationPairs) -> (FrozenSeq2Seq, QuantizationReport) {
        assert!(
            !calibration.is_empty(),
            "calibration needs at least one pair to observe activation ranges"
        );
        // Pass 1: observe activation ranges per cell and at the head.
        let mut enc_stats = CellCalibration::default();
        let mut dec_stats = CellCalibration::default();
        let mut head_in = 0.0f32;
        let mut head_out = 0.0f32;
        for (src, tgt) in calibration.sources.iter().zip(calibration.targets.iter()) {
            let mut h = vec![0.0f32; self.hidden];
            let mut c = vec![0.0f32; self.hidden];
            for &tok in src {
                let x = one_hot(tok, self.vocab);
                let (nh, nc) = Self::step_recording(&self.encoder, &mut enc_stats, &x, &h, &c);
                h = nh;
                c = nc;
            }
            let mut prev: Option<u32> = None;
            for &tok in tgt {
                let x = self.decoder_input(prev);
                let (nh, nc) = Self::step_recording(&self.decoder, &mut dec_stats, &x, &h, &c);
                h = nh;
                c = nc;
                head_in = head_in.max(max_abs(&h));
                head_out = head_out.max(max_abs(
                    &self.head_logits(&h).expect("calibration shapes match"),
                ));
                prev = Some(tok);
            }
        }

        // Pass 2: rebuild every operator in fixed point.
        let mut report = QuantizationReport::default();
        let mut layer = 0usize;
        let mut quantize_cell = |cell: &FrozenLstmCell, stats: &CellCalibration| {
            let mut wrap = |op: &Arc<dyn CompressedLinear>, in_max: f32, out_max: f32| {
                let scheme = QScheme::calibrate(in_max, op.max_weight_abs(), out_max);
                let q = QuantizedLinear::from_op(Arc::clone(op), scheme);
                report.layers.push(LayerQuantization {
                    layer,
                    label: q.label(),
                    scheme,
                    integer_kernel: q.has_integer_kernel(),
                });
                layer += 1;
                Arc::new(q) as Arc<dyn CompressedLinear>
            };
            FrozenLstmCell {
                wx: std::array::from_fn(|g| wrap(&cell.wx[g], stats.x_in, stats.wx_out[g])),
                wh: std::array::from_fn(|g| wrap(&cell.wh[g], stats.h_in, stats.wh_out[g])),
                bias: cell.bias.clone(),
                input_dim: cell.input_dim,
                hidden_dim: cell.hidden_dim,
            }
        };
        let encoder = quantize_cell(&self.encoder, &enc_stats);
        let decoder = quantize_cell(&self.decoder, &dec_stats);
        let head_scheme = QScheme::calibrate(head_in, self.head.max_weight_abs(), head_out);
        let head_q = QuantizedLinear::from_op(Arc::clone(&self.head), head_scheme)
            .with_bias(&self.head_bias);
        report.layers.push(LayerQuantization {
            layer,
            label: head_q.label(),
            scheme: head_scheme,
            integer_kernel: head_q.has_integer_kernel(),
        });

        let model = FrozenSeq2Seq {
            encoder,
            decoder,
            head: Arc::new(head_q),
            // The bias now lives inside the quantized head's integer datapath.
            head_bias: vec![0.0; self.vocab],
            vocab: self.vocab,
            hidden: self.hidden,
            format: self.format,
        };
        (model, report)
    }

    /// Serialises the frozen model into a model snapshot: a `"graph"` section
    /// (vocabulary, hidden width, gate format), all sixteen gate operators as
    /// compressed tensor records (`"encoder.wx0"` ... `"decoder.wh3"`, gate
    /// order i/f/g/o), the eight gate biases, and the vocabulary head.
    /// Quantized models save each gate's QScheme inside its tensor record.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`](permdnn_core::snapshot::SnapshotError) if an
    /// operator has no snapshot codec.
    pub fn save(&self) -> Result<Vec<u8>, permdnn_core::snapshot::SnapshotError> {
        use permdnn_core::snapshot::{encode_tensor, ByteWriter, SnapshotBuilder};
        let mut graph = ByteWriter::new();
        graph.dim(self.vocab);
        graph.dim(self.hidden);
        crate::snapshot::write_weight_format(self.format, &mut graph);
        let mut b = SnapshotBuilder::new(permdnn_core::snapshot::KIND_SEQ2SEQ);
        b.section("graph", graph.into_vec());
        for (prefix, cell) in [("encoder", &self.encoder), ("decoder", &self.decoder)] {
            for g in 0..4 {
                b.section(
                    &format!("{prefix}.wx{g}"),
                    encode_tensor(cell.wx[g].as_ref())?,
                );
                b.section(
                    &format!("{prefix}.wh{g}"),
                    encode_tensor(cell.wh[g].as_ref())?,
                );
                b.section(
                    &format!("{prefix}.bias{g}"),
                    crate::snapshot::write_bias(&cell.bias[g]),
                );
            }
        }
        b.section("head.weights", encode_tensor(self.head.as_ref())?);
        b.section("head.bias", crate::snapshot::write_bias(&self.head_bias));
        Ok(b.finish())
    }

    /// Loads a frozen seq2seq snapshot written by [`FrozenSeq2Seq::save`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`SnapshotError`](permdnn_core::snapshot::SnapshotError)
    /// for any corruption or gate geometry that does not match the declared
    /// vocabulary/hidden widths — never panics on hostile bytes.
    pub fn load(bytes: &[u8]) -> Result<FrozenSeq2Seq, permdnn_core::snapshot::SnapshotError> {
        use permdnn_core::snapshot::{ByteReader, SnapshotError};
        let snap = permdnn_core::snapshot::Snapshot::parse(bytes)?;
        if snap.kind() != permdnn_core::snapshot::KIND_SEQ2SEQ {
            return Err(SnapshotError::Malformed {
                context: "seq2seq snapshot",
                reason: format!("kind {} is not a seq2seq model", snap.kind()),
            });
        }
        let codec = crate::snapshot::codec();
        let mut g = ByteReader::new(snap.section("graph")?);
        let vocab = g.dim("seq2seq vocab")?;
        let hidden = g.dim("seq2seq hidden")?;
        let format = crate::snapshot::read_weight_format(&mut g)?;
        g.expect_end("seq2seq graph")?;

        let load_cell = |prefix: &str, input_dim: usize| -> Result<FrozenLstmCell, SnapshotError> {
            let mut wx: Vec<Arc<dyn CompressedLinear>> = Vec::with_capacity(4);
            let mut wh: Vec<Arc<dyn CompressedLinear>> = Vec::with_capacity(4);
            let mut bias: Vec<Vec<f32>> = Vec::with_capacity(4);
            for gate in 0..4 {
                let x_op = permdnn_core::snapshot::decode_record(
                    snap.section(&format!("{prefix}.wx{gate}"))?,
                    &codec,
                )?;
                let h_op = permdnn_core::snapshot::decode_record(
                    snap.section(&format!("{prefix}.wh{gate}"))?,
                    &codec,
                )?;
                for (name, op, in_dim) in [("wx", &x_op, input_dim), ("wh", &h_op, hidden)] {
                    if op.out_dim() != hidden || op.in_dim() != in_dim {
                        return Err(SnapshotError::Malformed {
                            context: "seq2seq gate shape",
                            reason: format!(
                                "{prefix}.{name}{gate} is {}x{}, expected {hidden}x{in_dim}",
                                op.out_dim(),
                                op.in_dim()
                            ),
                        });
                    }
                }
                bias.push(crate::snapshot::read_bias(
                    snap.section(&format!("{prefix}.bias{gate}"))?,
                    hidden,
                )?);
                wx.push(x_op);
                wh.push(h_op);
            }
            let mut wx_it = wx.into_iter();
            let mut wh_it = wh.into_iter();
            let mut bias_it = bias.into_iter();
            Ok(FrozenLstmCell {
                wx: std::array::from_fn(|_| wx_it.next().expect("four gates")),
                wh: std::array::from_fn(|_| wh_it.next().expect("four gates")),
                bias: std::array::from_fn(|_| bias_it.next().expect("four gates")),
                input_dim,
                hidden_dim: hidden,
            })
        };
        let encoder = load_cell("encoder", vocab)?;
        let decoder = load_cell("decoder", vocab + 1)?;
        let head = permdnn_core::snapshot::decode_record(snap.section("head.weights")?, &codec)?;
        if head.out_dim() != vocab || head.in_dim() != hidden {
            return Err(SnapshotError::Malformed {
                context: "seq2seq head shape",
                reason: format!(
                    "head is {}x{}, expected {vocab}x{hidden}",
                    head.out_dim(),
                    head.in_dim()
                ),
            });
        }
        let head_bias = crate::snapshot::read_bias(snap.section("head.bias")?, vocab)?;
        Ok(FrozenSeq2Seq {
            encoder,
            decoder,
            head,
            head_bias,
            vocab,
            hidden,
            format,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_tensor::init::seeded_rng;

    fn toy_translation(seed: u64, samples: usize) -> (TranslationPairs, TranslationPairs) {
        TranslationPairs::generate(&mut seeded_rng(seed), samples, 8, 4).split(0.85)
    }

    #[test]
    fn lstm_cell_shapes_and_param_counts() {
        let dense = LstmCell::new(16, 32, WeightFormat::Dense, &mut seeded_rng(1));
        assert_eq!(dense.hidden_dim(), 32);
        assert_eq!(dense.input_dim(), 16);
        assert_eq!(dense.stored_weights(), 4 * (32 * 16) + 4 * (32 * 32));
        let pd = LstmCell::new(
            16,
            32,
            WeightFormat::PermutedDiagonal { p: 8 },
            &mut seeded_rng(1),
        );
        assert_eq!(pd.stored_weights(), dense.stored_weights() / 8);
    }

    #[test]
    fn proxy_training_warning_fires_exactly_once_and_is_capturable() {
        // A proxy-trained model warns exactly once — for the whole model, not
        // once per cell — and the capture hook observes it instead of stderr.
        let (_, msgs) = capture_proxy_warnings(|| {
            Seq2Seq::new(
                6,
                8,
                WeightFormat::UnstructuredSparse { p: 2 },
                &mut seeded_rng(70),
            )
        });
        assert_eq!(msgs.len(), 1, "one warning per model: {msgs:?}");
        assert!(
            msgs[0].contains("proxy") && msgs[0].contains("unstructured-sparse"),
            "{msgs:?}"
        );

        // Formats the trainer represents exactly warn nothing.
        let (_, msgs) = capture_proxy_warnings(|| {
            Seq2Seq::new(
                6,
                8,
                WeightFormat::PermutedDiagonal { p: 4 },
                &mut seeded_rng(71),
            )
        });
        assert!(msgs.is_empty(), "exact formats are silent: {msgs:?}");

        // A bare cell constructed directly also warns exactly once.
        let (_, msgs) = capture_proxy_warnings(|| {
            LstmCell::new(
                4,
                8,
                WeightFormat::SharedPermutedDiagonal { p: 4, tag_bits: 4 },
                &mut seeded_rng(72),
            )
        });
        assert_eq!(msgs.len(), 1, "a bare cell warns once: {msgs:?}");
    }

    #[test]
    fn lstm_step_outputs_bounded() {
        let cell = LstmCell::new(4, 8, WeightFormat::Dense, &mut seeded_rng(2));
        let (h, c, _) = cell.step(&[1.0, 0.0, 0.0, 0.0], &[0.0; 8], &[0.0; 8]);
        assert_eq!(h.len(), 8);
        assert_eq!(c.len(), 8);
        assert!(
            h.iter().all(|v| v.abs() <= 1.0),
            "h = o * tanh(c) is bounded"
        );
    }

    #[test]
    fn untrained_model_has_low_bleu() {
        let (_, test) = toy_translation(3, 60);
        let model = Seq2Seq::new(8, 24, WeightFormat::Dense, &mut seeded_rng(4));
        assert!(model.evaluate_bleu(&test) < 0.3);
    }

    #[test]
    fn dense_seq2seq_learns_the_cipher() {
        let (train, test) = toy_translation(5, 240);
        let mut model = Seq2Seq::new(8, 24, WeightFormat::Dense, &mut seeded_rng(6));
        let first = model.fit(&train, 1, 0.25);
        let last = model.fit(&train, 14, 0.25);
        assert!(last < first, "training loss should fall: {first} -> {last}");
        let acc = model.token_accuracy(&test);
        assert!(acc > 0.6, "token accuracy after training: {acc}");
    }

    #[test]
    fn pd_seq2seq_learns_comparably_with_8x_fewer_weights() {
        let (train, test) = toy_translation(7, 240);
        let mut dense = Seq2Seq::new(8, 24, WeightFormat::Dense, &mut seeded_rng(8));
        let mut pd = Seq2Seq::new(
            8,
            24,
            WeightFormat::PermutedDiagonal { p: 4 },
            &mut seeded_rng(8),
        );
        assert!(pd.lstm_stored_weights() * 3 < dense.lstm_stored_weights());
        dense.fit(&train, 14, 0.25);
        pd.fit(&train, 14, 0.25);
        let dense_acc = dense.token_accuracy(&test);
        let pd_acc = pd.token_accuracy(&test);
        assert!(pd_acc > 0.45, "PD token accuracy too low: {pd_acc}");
        assert!(
            dense_acc - pd_acc < 0.3,
            "PD should not collapse relative to dense ({dense_acc} vs {pd_acc})"
        );
    }

    #[test]
    fn translate_output_length_matches_request() {
        let model = Seq2Seq::new(8, 16, WeightFormat::Dense, &mut seeded_rng(9));
        let out = model.translate(&[1, 2, 3], 5);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|&t| (t as usize) < 8));
    }

    #[test]
    fn frozen_seq2seq_matches_training_logits_for_faithful_formats() {
        let (train, test) = toy_translation(11, 120);
        for format in [WeightFormat::Dense, WeightFormat::PermutedDiagonal { p: 4 }] {
            let mut model = Seq2Seq::new(8, 24, format, &mut seeded_rng(12));
            model.fit(&train, 2, 0.25);
            let frozen = model.freeze();
            assert_eq!(frozen.lstm_stored_weights(), model.lstm_stored_weights());
            for (src, tgt) in test.sources.iter().zip(test.targets.iter()).take(8) {
                let trained = model.teacher_forced_logits(src, tgt);
                let served = frozen.teacher_forced_logits(src, tgt).unwrap();
                for (a, b) in trained.iter().flatten().zip(served.iter().flatten()) {
                    assert!((a - b).abs() < 1e-4, "{}: {a} vs {b}", format.label());
                }
            }
        }
    }

    #[test]
    fn freeze_honors_the_requested_deployment_format() {
        // Proxy-trained formats must come out of freeze() in their REAL
        // representation: compressed storage, correct operator label.
        let mut pruned = Seq2Seq::new(
            8,
            24,
            WeightFormat::UnstructuredSparse { p: 4 },
            &mut seeded_rng(13),
        );
        let trained_proxy = pruned.lstm_stored_weights();
        pruned.fit(&toy_translation(14, 40).0, 1, 0.25);
        let frozen = pruned.freeze();
        assert!(
            frozen.lstm_stored_weights() * 3 < trained_proxy,
            "pruning to 1/4 must shrink storage: {} vs proxy {trained_proxy}",
            frozen.lstm_stored_weights()
        );
        for op in frozen.encoder().gate_ops() {
            assert!(op.label().contains("unstructured-sparse"), "{}", op.label());
        }

        let circulant = Seq2Seq::new(8, 24, WeightFormat::Circulant { k: 4 }, &mut seeded_rng(15));
        let frozen_c = circulant.freeze();
        assert!(frozen_c.lstm_stored_weights() * 3 < circulant.lstm_stored_weights());
        for op in frozen_c.decoder().gate_ops() {
            assert!(op.label().contains("circulant"), "{}", op.label());
        }

        let shared = Seq2Seq::new(
            8,
            24,
            WeightFormat::SharedPermutedDiagonal { p: 4, tag_bits: 4 },
            &mut seeded_rng(16),
        );
        let frozen_s = shared.freeze();
        for op in frozen_s.encoder().gate_ops() {
            assert!(op.label().contains("shared"), "{}", op.label());
        }
    }

    #[test]
    fn batched_translation_is_bit_identical_per_worker_count() {
        let (train, test) = toy_translation(17, 100);
        let mut model = Seq2Seq::new(
            8,
            24,
            WeightFormat::PermutedDiagonal { p: 4 },
            &mut seeded_rng(18),
        );
        model.fit(&train, 2, 0.25);
        let frozen = model.freeze();
        let sources: Vec<Vec<u32>> = test.sources.iter().take(9).cloned().collect();
        let sequential: Vec<Vec<u32>> = sources
            .iter()
            .map(|s| frozen.translate(s, 4).unwrap())
            .collect();
        for workers in [1, 2, 3, 7] {
            let exec = ParallelExecutor::new(workers);
            let batched = frozen.translate_batch(&sources, 4, &exec).unwrap();
            assert_eq!(batched, sequential, "workers = {workers}");
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two block size")]
    fn non_power_of_two_circulant_is_rejected_at_construction() {
        // freeze() builds circulant gates via the circulant projection, which
        // only exists for 2^t blocks — the configuration must fail up front,
        // not mid-deployment.
        let _ = Seq2Seq::new(8, 24, WeightFormat::Circulant { k: 3 }, &mut seeded_rng(30));
    }

    #[test]
    fn ragged_batch_is_a_typed_error() {
        let model = Seq2Seq::new(8, 16, WeightFormat::Dense, &mut seeded_rng(19));
        let frozen = model.freeze();
        let exec = ParallelExecutor::sequential();
        let err = frozen
            .translate_batch(&[vec![1, 2, 3], vec![1, 2]], 2, &exec)
            .unwrap_err();
        assert!(matches!(err, FormatError::DimensionMismatch { .. }));
        assert!(frozen.translate_batch(&[], 2, &exec).unwrap().is_empty());
    }

    #[test]
    fn quantized_frozen_seq2seq_tracks_f32_accuracy() {
        let (train, test) = toy_translation(21, 200);
        let mut model = Seq2Seq::new(
            8,
            24,
            WeightFormat::PermutedDiagonal { p: 4 },
            &mut seeded_rng(22),
        );
        model.fit(&train, 10, 0.25);
        let frozen = model.freeze();
        let (quantized, report) = frozen.quantize(&train);
        assert_eq!(report.layers.len(), 17, "16 gate operators + head");
        assert!(
            report.fully_integer(),
            "PD gates and dense head have kernels"
        );
        let f32_acc = frozen.token_accuracy(&test);
        let q_acc = quantized.token_accuracy(&test);
        assert!(
            (f32_acc - q_acc).abs() <= 0.1,
            "quantized accuracy drifted: f32 {f32_acc} vs q16 {q_acc}"
        );
        // The quantized model serves batched too, bit-identically per worker count.
        let sources: Vec<Vec<u32>> = test.sources.iter().take(5).cloned().collect();
        let sequential: Vec<Vec<u32>> = sources
            .iter()
            .map(|s| quantized.translate(s, 4).unwrap())
            .collect();
        for workers in [2, 7] {
            let exec = ParallelExecutor::new(workers);
            assert_eq!(
                quantized.translate_batch(&sources, 4, &exec).unwrap(),
                sequential,
                "workers = {workers}"
            );
        }
    }
}

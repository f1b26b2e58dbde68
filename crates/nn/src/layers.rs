//! Vector-to-vector layers behind a common [`Layer`] trait, plus the
//! [`WeightFormat`] registry over the
//! [`CompressedLinear`] operator API.
//!
//! Every fully-connected layer consumes its weights through
//! [`CompressedLinear`] (one `affine_forward` path serves all formats); what
//! differs per format is only training:
//!
//! * [`Dense`] — the uncompressed baseline of Tables II–V, ordinary SGD.
//! * [`PdDense`] — the permuted-diagonal layer (the paper's contribution),
//!   trained with the structure-preserving updates of [`permdnn_core::grad`].
//! * [`CirculantDense`] — the CIRCNN baseline, trained through its dense
//!   expansion and re-projected after every update.
//! * [`CompressedFc`] — any registry format with frozen weights (the
//!   post-training deployment formats: CSC-pruned, weight-shared PD), training
//!   only its bias.
//!
//! Activation layers ([`Relu`], [`Tanh`]) complete the zoo used by the MLP and
//! LSTM models.

use std::sync::Arc;

use pd_tensor::init::xavier_uniform;
use pd_tensor::Matrix;
use permdnn_circulant::approx::circulant_approximate;
use permdnn_circulant::BlockCirculantMatrix;
use permdnn_core::approx::{pd_approximate, ApproxStrategy};
use permdnn_core::format::{BatchView, CompressedLinear, FormatError};
use permdnn_core::{grad as pd_grad, BlockPermDiagMatrix};
use permdnn_prune::eie_format::{uniform_codebook, EieEncodedMatrix};
use permdnn_prune::{magnitude_prune, CscMatrix};
use permdnn_quant::SharedWeightPdMatrix;
use permdnn_runtime::{run_stages, ParallelExecutor, RowLayer, Stage};
use rand::Rng;

use crate::activations::{relu, relu_grad, tanh, tanh_grad_from_output};

/// The weight-format registry: every compressed-matrix representation the
/// workspace knows how to construct, behind one constructor
/// ([`WeightFormat::build`]) returning a boxed
/// [`CompressedLinear`] operator.
///
/// The first three variants also have trainable [`Layer`] counterparts (see
/// [`make_fc_layer`]); the last two are the paper's *post-training* deployment
/// formats (magnitude pruning and weight sharing are applied to trained
/// weights), so their layers freeze the weight matrix and train only the bias.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightFormat {
    /// Ordinary dense weights (the uncompressed baseline of Tables II–V).
    Dense,
    /// Block-permuted-diagonal weights with block size `p` (compression ratio `p`).
    PermutedDiagonal {
        /// Block size / compression ratio.
        p: usize,
    },
    /// Block-circulant weights with block size `k` (the CIRCNN baseline).
    Circulant {
        /// Block size / compression ratio (power of two).
        k: usize,
    },
    /// Unstructured magnitude-pruned weights in CSC form (the EIE baseline),
    /// keeping one weight in `p`.
    UnstructuredSparse {
        /// Inverse density: the pruned matrix keeps a `1/p` fraction of weights.
        p: usize,
    },
    /// Permuted-diagonal weights with a shared `2^tag_bits`-entry codebook
    /// (the PE weight-LUT representation, Fig. 7).
    SharedPermutedDiagonal {
        /// Block size / compression ratio of the PD structure.
        p: usize,
        /// Codebook tag width in bits (4 in the paper).
        tag_bits: u32,
    },
    /// Magnitude-pruned weights in the EIE relative-index + 4-bit-codebook
    /// encoding (the full EIE baseline storage format), keeping one weight
    /// in `p`.
    EieEncoded {
        /// Inverse density: the pruned matrix keeps a `1/p` fraction of weights.
        p: usize,
    },
}

impl WeightFormat {
    /// Human-readable name used in experiment reports.
    pub fn label(&self) -> String {
        match self {
            WeightFormat::Dense => "dense".to_string(),
            WeightFormat::PermutedDiagonal { p } => format!("permuted-diagonal (p={p})"),
            WeightFormat::Circulant { k } => format!("block-circulant (k={k})"),
            WeightFormat::UnstructuredSparse { p } => {
                format!("unstructured-sparse (1/{p} kept)")
            }
            WeightFormat::SharedPermutedDiagonal { p, tag_bits } => {
                format!("permuted-diagonal (p={p}) + {tag_bits}-bit shared")
            }
            WeightFormat::EieEncoded { p } => format!("eie-encoded (1/{p} kept)"),
        }
    }

    /// Constructs a randomly initialised `rows × cols` weight matrix of this
    /// format as a boxed [`CompressedLinear`] operator — the single entry point
    /// `nn`, `sim` and `bench` use, so new formats drop in here without
    /// touching any call site.
    pub fn build(self, rows: usize, cols: usize, rng: &mut impl Rng) -> Box<dyn CompressedLinear> {
        match self {
            WeightFormat::Dense => Box::new(xavier_uniform(rng, rows, cols)),
            WeightFormat::PermutedDiagonal { p } => {
                Box::new(BlockPermDiagMatrix::random(rows, cols, p, rng))
            }
            WeightFormat::Circulant { k } if k.is_power_of_two() => {
                Box::new(BlockCirculantMatrix::random(rows, cols, k, rng))
            }
            WeightFormat::Circulant { k } => {
                // Non-power-of-two blocks: the flexibility ablation of
                // Section II-C; only the direct kernel can execute them.
                Box::new(BlockCirculantMatrix::random_any_size(rows, cols, k, rng))
            }
            WeightFormat::UnstructuredSparse { p } => {
                assert!(p > 0, "inverse density must be non-zero");
                let dense = xavier_uniform(rng, rows, cols);
                let pruned = magnitude_prune(&dense, 1.0 / p as f64).pruned;
                Box::new(CscMatrix::from_dense(&pruned))
            }
            WeightFormat::SharedPermutedDiagonal { p, tag_bits } => {
                let w = BlockPermDiagMatrix::random(rows, cols, p, rng);
                Box::new(SharedWeightPdMatrix::quantize(&w, tag_bits, 25, rng))
            }
            WeightFormat::EieEncoded { p } => {
                assert!(p > 0, "inverse density must be non-zero");
                let dense = xavier_uniform(rng, rows, cols);
                let pruned = magnitude_prune(&dense, 1.0 / p as f64).pruned;
                let codebook = uniform_codebook(4, pruned.max_abs());
                Box::new(EieEncodedMatrix::encode(&pruned, &codebook, 4, 4))
            }
        }
    }
}

/// Applies `y = W·x + b` through the [`CompressedLinear`] surface — the one
/// forward path every fully-connected layer shares, regardless of format.
fn affine_forward(weights: &dyn CompressedLinear, bias: &[f32], x: &[f32]) -> Vec<f32> {
    let mut y = vec![0.0f32; weights.out_dim()];
    weights
        .matvec_into(x, &mut y)
        .expect("input length matches the layer width");
    for (yi, b) in y.iter_mut().zip(bias.iter()) {
        *yi += b;
    }
    y
}

/// A trainable vector-to-vector layer.
///
/// The training protocol is single-example: `forward_train` caches whatever the layer
/// needs, `backward` consumes the cached state, accumulates parameter gradients and
/// returns the gradient with respect to the layer input, and `apply_gradients` performs
/// one SGD step with the accumulated gradients (divided by the number of accumulated
/// examples) and clears them.
///
/// `Send + Sync` are supertraits so whole networks (`Vec<Box<dyn Layer>>`) can be
/// shared across the inference worker threads of `permdnn_runtime`; every layer in
/// the workspace is plain owned data. (Mutating entry points still take `&mut self`,
/// so training stays exclusive as before.)
pub trait Layer: Send + Sync {
    /// Length of the input vector this layer accepts.
    fn input_dim(&self) -> usize;
    /// Length of the output vector this layer produces.
    fn output_dim(&self) -> usize;
    /// Inference-time forward pass (no state is cached).
    fn forward(&self, x: &[f32]) -> Vec<f32>;
    /// Training-time forward pass; caches activations needed by `backward`.
    fn forward_train(&mut self, x: &[f32]) -> Vec<f32>;
    /// Back-propagates `grad_output`, accumulating parameter gradients, and returns the
    /// gradient with respect to the input.
    fn backward(&mut self, grad_output: &[f32]) -> Vec<f32>;
    /// Applies the accumulated gradients with learning rate `lr` and clears them.
    fn apply_gradients(&mut self, lr: f32);
    /// Number of trainable parameters actually stored by the layer.
    fn num_params(&self) -> usize;
    /// Real multiplications one forward pass costs on a dense input (0 for
    /// parameter-free activation layers) — the per-example cost the serving
    /// runtime's `ServiceModel` converts into ticks.
    fn mul_count(&self) -> u64 {
        0
    }
    /// Upcast to `Any` for downcasting to a concrete layer type (e.g. to quantize the
    /// permuted-diagonal layers of a trained model).
    fn as_any(&self) -> &dyn std::any::Any;
    /// Mutable upcast to `Any`.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// How the stage loop runs a layer it has no batched form for (one of a
/// trainable network): row by row through [`Layer::forward`].
impl RowLayer for Box<dyn Layer> {
    fn row_width(&self) -> usize {
        self.output_dim()
    }

    fn forward_row(&self, x: &[f32]) -> Vec<f32> {
        self.forward(x)
    }
}

/// How the stage loop runs `layers[s]`: a [`CompressedFc`] as a linear
/// stage, [`Relu`] and [`Tanh`] as in-place activations, and any other
/// layer row by row.
pub(crate) fn stage(layers: &[Box<dyn Layer>], s: usize) -> Stage<'_> {
    let any = layers[s].as_any();
    if let Some(fc) = any.downcast_ref::<CompressedFc>() {
        fc.stage()
    } else if any.is::<Relu>() {
        Stage::Activation(crate::activations::relu_in_place)
    } else if any.is::<Tanh>() {
        Stage::Activation(crate::activations::tanh_in_place)
    } else {
        Stage::Rows(&layers[s])
    }
}

/// Fully-connected layer with dense weights and a bias vector.
#[derive(Debug, Clone)]
pub struct Dense {
    weights: Matrix,
    bias: Vec<f32>,
    grad_w: Matrix,
    grad_b: Vec<f32>,
    examples: usize,
    cached_input: Vec<f32>,
}

impl Dense {
    /// Creates a Xavier-initialised dense layer.
    pub fn new(input_dim: usize, output_dim: usize, rng: &mut impl Rng) -> Self {
        Dense {
            weights: xavier_uniform(rng, output_dim, input_dim),
            bias: vec![0.0; output_dim],
            grad_w: Matrix::zeros(output_dim, input_dim),
            grad_b: vec![0.0; output_dim],
            examples: 0,
            cached_input: Vec::new(),
        }
    }

    /// Creates a dense layer from explicit weights (bias zero).
    pub fn from_weights(weights: Matrix) -> Self {
        let (rows, cols) = weights.shape();
        Dense {
            weights,
            bias: vec![0.0; rows],
            grad_w: Matrix::zeros(rows, cols),
            grad_b: vec![0.0; rows],
            examples: 0,
            cached_input: Vec::new(),
        }
    }

    /// Borrow of the weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Borrow of the bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }
}

impl Layer for Dense {
    fn input_dim(&self) -> usize {
        self.weights.cols()
    }

    fn output_dim(&self) -> usize {
        self.weights.rows()
    }

    fn forward(&self, x: &[f32]) -> Vec<f32> {
        affine_forward(&self.weights, &self.bias, x)
    }

    fn forward_train(&mut self, x: &[f32]) -> Vec<f32> {
        self.cached_input = x.to_vec();
        self.forward(x)
    }

    fn backward(&mut self, grad_output: &[f32]) -> Vec<f32> {
        assert_eq!(grad_output.len(), self.output_dim());
        self.grad_w
            .rank1_update(1.0, grad_output, &self.cached_input);
        for (gb, g) in self.grad_b.iter_mut().zip(grad_output.iter()) {
            *gb += g;
        }
        self.examples += 1;
        self.weights.matvec_transposed(grad_output)
    }

    fn apply_gradients(&mut self, lr: f32) {
        if self.examples == 0 {
            return;
        }
        let scale = -lr / self.examples as f32;
        self.weights
            .axpy_in_place(scale, &self.grad_w)
            .expect("gradient shape matches weights");
        for (b, g) in self.bias.iter_mut().zip(self.grad_b.iter()) {
            *b += scale * g;
        }
        self.grad_w = Matrix::zeros(self.weights.rows(), self.weights.cols());
        self.grad_b = vec![0.0; self.bias.len()];
        self.examples = 0;
    }

    fn num_params(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn mul_count(&self) -> u64 {
        CompressedLinear::mul_count(&self.weights)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Fully-connected layer with block-permuted-diagonal weights — the PermDNN FC layer.
///
/// Only the stored weights `q` and the bias are trainable; the permutation parameters are
/// fixed at construction, so every update stays on the PD manifold (Eqns. 2–3).
#[derive(Debug, Clone)]
pub struct PdDense {
    weights: BlockPermDiagMatrix,
    bias: Vec<f32>,
    grad_q: Vec<f32>,
    grad_b: Vec<f32>,
    examples: usize,
    cached_input: Vec<f32>,
}

impl PdDense {
    /// Creates a randomly-initialised permuted-diagonal layer with natural indexing.
    pub fn new(input_dim: usize, output_dim: usize, p: usize, rng: &mut impl Rng) -> Self {
        let weights = BlockPermDiagMatrix::random(output_dim, input_dim, p, rng);
        Self::from_matrix(weights)
    }

    /// Wraps an existing block-permuted-diagonal matrix (bias zero).
    pub fn from_matrix(weights: BlockPermDiagMatrix) -> Self {
        let out = weights.rows();
        let nq = weights.values().len();
        PdDense {
            weights,
            bias: vec![0.0; out],
            grad_q: vec![0.0; nq],
            grad_b: vec![0.0; out],
            examples: 0,
            cached_input: Vec::new(),
        }
    }

    /// Converts a pre-trained dense layer into a permuted-diagonal layer via the
    /// l2-optimal projection of Section III-F (to be fine-tuned afterwards).
    pub fn from_dense_approximation(dense: &Dense, p: usize) -> Self {
        let approx = pd_approximate(dense.weights(), p, ApproxStrategy::BestPerBlock)
            .expect("p > 0 is enforced by callers");
        let mut layer = Self::from_matrix(approx.matrix);
        layer.bias = dense.bias().to_vec();
        layer
    }

    /// Borrow of the permuted-diagonal weight matrix.
    pub fn weights(&self) -> &BlockPermDiagMatrix {
        &self.weights
    }

    /// Borrow of the bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable borrow of the permuted-diagonal weight matrix (used by quantization).
    pub fn weights_mut(&mut self) -> &mut BlockPermDiagMatrix {
        &mut self.weights
    }
}

impl Layer for PdDense {
    fn input_dim(&self) -> usize {
        self.weights.cols()
    }

    fn output_dim(&self) -> usize {
        self.weights.rows()
    }

    fn forward(&self, x: &[f32]) -> Vec<f32> {
        affine_forward(&self.weights, &self.bias, x)
    }

    fn forward_train(&mut self, x: &[f32]) -> Vec<f32> {
        self.cached_input = x.to_vec();
        self.forward(x)
    }

    fn backward(&mut self, grad_output: &[f32]) -> Vec<f32> {
        pd_grad::accumulate_weight_gradient(
            &self.weights,
            &self.cached_input,
            grad_output,
            &mut self.grad_q,
        )
        .expect("cached input and gradient lengths match the layer");
        for (gb, g) in self.grad_b.iter_mut().zip(grad_output.iter()) {
            *gb += g;
        }
        self.examples += 1;
        self.weights.matvec_transposed(grad_output)
    }

    fn apply_gradients(&mut self, lr: f32) {
        if self.examples == 0 {
            return;
        }
        let scale = lr / self.examples as f32;
        for (v, g) in self.weights.values_mut().iter_mut().zip(self.grad_q.iter()) {
            *v -= scale * g;
        }
        for (b, g) in self.bias.iter_mut().zip(self.grad_b.iter()) {
            *b -= scale * g;
        }
        self.grad_q.iter_mut().for_each(|g| *g = 0.0);
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
        self.examples = 0;
    }

    fn num_params(&self) -> usize {
        self.weights.values().len() + self.bias.len()
    }

    fn mul_count(&self) -> u64 {
        CompressedLinear::mul_count(&self.weights)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Fully-connected layer with block-circulant weights — the CIRCNN baseline layer.
///
/// Training is implemented by the straightforward (and standard) projected-gradient
/// approach: gradients are computed on the dense expansion and the weights are
/// re-projected onto the circulant manifold after every update. Inference uses the
/// circulant structure directly.
#[derive(Debug, Clone)]
pub struct CirculantDense {
    weights: BlockCirculantMatrix,
    dense_cache: Matrix,
    bias: Vec<f32>,
    grad_w: Matrix,
    grad_b: Vec<f32>,
    examples: usize,
    cached_input: Vec<f32>,
    k: usize,
}

impl CirculantDense {
    /// Creates a randomly-initialised block-circulant layer (power-of-two `k`).
    pub fn new(input_dim: usize, output_dim: usize, k: usize, rng: &mut impl Rng) -> Self {
        let weights = BlockCirculantMatrix::random(output_dim, input_dim, k, rng);
        let dense_cache = weights.to_dense();
        CirculantDense {
            weights,
            dense_cache,
            bias: vec![0.0; output_dim],
            grad_w: Matrix::zeros(output_dim, input_dim),
            grad_b: vec![0.0; output_dim],
            examples: 0,
            cached_input: Vec::new(),
            k,
        }
    }

    /// Borrow of the circulant weight matrix.
    pub fn weights(&self) -> &BlockCirculantMatrix {
        &self.weights
    }

    /// Borrow of the bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Compression ratio of the stored representation.
    pub fn compression_ratio(&self) -> f64 {
        self.weights.compression_ratio()
    }
}

impl Layer for CirculantDense {
    fn input_dim(&self) -> usize {
        self.weights.cols()
    }

    fn output_dim(&self) -> usize {
        self.weights.rows()
    }

    fn forward(&self, x: &[f32]) -> Vec<f32> {
        affine_forward(&self.weights, &self.bias, x)
    }

    fn forward_train(&mut self, x: &[f32]) -> Vec<f32> {
        self.cached_input = x.to_vec();
        self.forward(x)
    }

    fn backward(&mut self, grad_output: &[f32]) -> Vec<f32> {
        assert_eq!(grad_output.len(), self.output_dim());
        self.grad_w
            .rank1_update(1.0, grad_output, &self.cached_input);
        for (gb, g) in self.grad_b.iter_mut().zip(grad_output.iter()) {
            *gb += g;
        }
        self.examples += 1;
        self.dense_cache.matvec_transposed(grad_output)
    }

    fn apply_gradients(&mut self, lr: f32) {
        if self.examples == 0 {
            return;
        }
        let scale = -lr / self.examples as f32;
        self.dense_cache
            .axpy_in_place(scale, &self.grad_w)
            .expect("gradient shape matches weights");
        // Project back onto the block-circulant manifold.
        let approx =
            circulant_approximate(&self.dense_cache, self.k).expect("k validated at construction");
        self.weights = approx.matrix;
        self.dense_cache = self.weights.to_dense();
        for (b, g) in self.bias.iter_mut().zip(self.grad_b.iter()) {
            *b += scale * g;
        }
        self.grad_w = Matrix::zeros(self.dense_cache.rows(), self.dense_cache.cols());
        self.grad_b = vec![0.0; self.bias.len()];
        self.examples = 0;
    }

    fn num_params(&self) -> usize {
        self.weights.stored_weights() + self.bias.len()
    }

    fn mul_count(&self) -> u64 {
        CompressedLinear::mul_count(&self.weights)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Element-wise ReLU layer.
#[derive(Debug, Clone)]
pub struct Relu {
    dim: usize,
    cached_input: Vec<f32>,
}

impl Relu {
    /// Creates a ReLU layer operating on vectors of length `dim`.
    pub fn new(dim: usize) -> Self {
        Relu {
            dim,
            cached_input: Vec::new(),
        }
    }
}

impl Layer for Relu {
    fn input_dim(&self) -> usize {
        self.dim
    }

    fn output_dim(&self) -> usize {
        self.dim
    }

    fn forward(&self, x: &[f32]) -> Vec<f32> {
        x.iter().map(|&v| relu(v)).collect()
    }

    fn forward_train(&mut self, x: &[f32]) -> Vec<f32> {
        self.cached_input = x.to_vec();
        self.forward(x)
    }

    fn backward(&mut self, grad_output: &[f32]) -> Vec<f32> {
        grad_output
            .iter()
            .zip(self.cached_input.iter())
            .map(|(&g, &x)| g * relu_grad(x))
            .collect()
    }

    fn apply_gradients(&mut self, _lr: f32) {}

    fn num_params(&self) -> usize {
        0
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Element-wise tanh layer.
#[derive(Debug, Clone)]
pub struct Tanh {
    dim: usize,
    cached_output: Vec<f32>,
}

impl Tanh {
    /// Creates a tanh layer operating on vectors of length `dim`.
    pub fn new(dim: usize) -> Self {
        Tanh {
            dim,
            cached_output: Vec::new(),
        }
    }
}

impl Layer for Tanh {
    fn input_dim(&self) -> usize {
        self.dim
    }

    fn output_dim(&self) -> usize {
        self.dim
    }

    fn forward(&self, x: &[f32]) -> Vec<f32> {
        x.iter().map(|&v| tanh(v)).collect()
    }

    fn forward_train(&mut self, x: &[f32]) -> Vec<f32> {
        let y = self.forward(x);
        self.cached_output = y.clone();
        y
    }

    fn backward(&mut self, grad_output: &[f32]) -> Vec<f32> {
        grad_output
            .iter()
            .zip(self.cached_output.iter())
            .map(|(&g, &y)| g * tanh_grad_from_output(y))
            .collect()
    }

    fn apply_gradients(&mut self, _lr: f32) {}

    fn num_params(&self) -> usize {
        0
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Fully-connected layer over *any* [`CompressedLinear`] weight operator.
///
/// This is the generic deployment-format layer: the weight matrix is frozen
/// (pruned / weight-shared representations have no structure-preserving update
/// rule) and only the bias trains. Input gradients flow through the cached
/// dense expansion so the layer still composes inside a trained network.
///
/// Weights are held behind an [`Arc`], so several layers (or a layer and the
/// serving runtime) can share one operator without duplicating it — see
/// [`CompressedFc::from_shared`].
pub struct CompressedFc {
    weights: Arc<dyn CompressedLinear>,
    /// Dense expansion for the input-gradient path, materialised on the first
    /// `backward` call only — inference-only use keeps the compressed memory
    /// footprint the formats exist to provide. Private to each layer: priming
    /// one layer's cache never affects another layer sharing the operator.
    dense_cache: Option<Matrix>,
    bias: Vec<f32>,
    grad_b: Vec<f32>,
    examples: usize,
}

impl CompressedFc {
    /// Wraps a compressed operator as a frozen-weight FC layer (bias zero).
    pub fn new(weights: Box<dyn CompressedLinear>) -> Self {
        Self::from_shared(Arc::from(weights))
    }

    /// Wraps an operator already shared behind an [`Arc`] — several layers
    /// can serve the same weights concurrently (each keeps its own bias and
    /// its own lazy dense cache).
    pub fn from_shared(weights: Arc<dyn CompressedLinear>) -> Self {
        let out = weights.out_dim();
        CompressedFc {
            weights,
            dense_cache: None,
            bias: vec![0.0; out],
            grad_b: vec![0.0; out],
            examples: 0,
        }
    }

    /// Builds a randomly initialised frozen layer of the requested format.
    pub fn build(
        input_dim: usize,
        output_dim: usize,
        format: WeightFormat,
        rng: &mut impl Rng,
    ) -> Self {
        Self::new(format.build(output_dim, input_dim, rng))
    }

    /// Sets the bias vector (builder style) — used when freezing a trained
    /// layer whose bias must carry over into the serving operator.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len()` differs from the layer's output width.
    pub fn with_bias(mut self, bias: &[f32]) -> Self {
        assert_eq!(
            bias.len(),
            self.weights.out_dim(),
            "bias length must match the output dimension"
        );
        self.bias = bias.to_vec();
        self
    }

    /// The underlying compressed operator.
    pub fn weights(&self) -> &dyn CompressedLinear {
        self.weights.as_ref()
    }

    /// A shared handle to the operator (the form the parallel executor and
    /// other layers consume).
    pub fn shared_weights(&self) -> Arc<dyn CompressedLinear> {
        Arc::clone(&self.weights)
    }

    /// Borrow of the bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Whether the input-gradient dense expansion has been materialised.
    pub fn dense_cache_primed(&self) -> bool {
        self.dense_cache.is_some()
    }

    /// Batched forward `Y = X·Wᵀ + b`, one input per row of `xs`, sharded
    /// across the executor's worker pool: the stage loop
    /// ([`run_stages`]) on this one layer. Bit-for-bit identical to calling
    /// [`Layer::forward`] row by row, for any worker count (row-granular
    /// sharding re-orders no floating-point operation).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] if `xs.dim()` differs from
    /// the layer input width.
    pub fn forward_batch_parallel(
        &self,
        xs: &BatchView<'_>,
        exec: &ParallelExecutor,
    ) -> Result<Matrix, FormatError> {
        let mut out = Matrix::default();
        run_stages(xs, exec, &mut out, 1, |_| {
            Ok::<_, FormatError>(self.stage())
        })?;
        Ok(out)
    }

    /// This layer as a linear stage of the stage loop.
    fn stage(&self) -> Stage<'_> {
        Stage::Linear {
            op: self.shared_weights(),
            bias: &self.bias,
        }
    }
}

impl Layer for CompressedFc {
    fn input_dim(&self) -> usize {
        self.weights.in_dim()
    }

    fn output_dim(&self) -> usize {
        self.weights.out_dim()
    }

    fn forward(&self, x: &[f32]) -> Vec<f32> {
        affine_forward(self.weights.as_ref(), &self.bias, x)
    }

    fn forward_train(&mut self, x: &[f32]) -> Vec<f32> {
        self.forward(x)
    }

    fn backward(&mut self, grad_output: &[f32]) -> Vec<f32> {
        assert_eq!(grad_output.len(), self.output_dim());
        for (gb, g) in self.grad_b.iter_mut().zip(grad_output.iter()) {
            *gb += g;
        }
        self.examples += 1;
        let dense = self
            .dense_cache
            .get_or_insert_with(|| self.weights.to_dense());
        dense.matvec_transposed(grad_output)
    }

    fn apply_gradients(&mut self, lr: f32) {
        if self.examples == 0 {
            return;
        }
        let scale = -lr / self.examples as f32;
        for (b, g) in self.bias.iter_mut().zip(self.grad_b.iter()) {
            *b += scale * g;
        }
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
        self.examples = 0;
    }

    fn num_params(&self) -> usize {
        self.weights.stored_weights() + self.bias.len()
    }

    fn mul_count(&self) -> u64 {
        self.weights.mul_count()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Builds a fully-connected layer of the requested [`WeightFormat`].
///
/// The three trainable formats get their format-specific training layers; the
/// post-training deployment formats ([`WeightFormat::UnstructuredSparse`],
/// [`WeightFormat::SharedPermutedDiagonal`]) get a frozen [`CompressedFc`].
pub fn make_fc_layer(
    input_dim: usize,
    output_dim: usize,
    format: WeightFormat,
    rng: &mut impl Rng,
) -> Box<dyn Layer> {
    match format {
        WeightFormat::Dense => Box::new(Dense::new(input_dim, output_dim, rng)),
        WeightFormat::PermutedDiagonal { p } => {
            Box::new(PdDense::new(input_dim, output_dim, p, rng))
        }
        WeightFormat::Circulant { k } => {
            Box::new(CirculantDense::new(input_dim, output_dim, k, rng))
        }
        WeightFormat::UnstructuredSparse { .. }
        | WeightFormat::SharedPermutedDiagonal { .. }
        | WeightFormat::EieEncoded { .. } => {
            Box::new(CompressedFc::build(input_dim, output_dim, format, rng))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_tensor::init::seeded_rng;

    fn finite_diff_check(layer: &mut dyn Layer, dim_in: usize) {
        // Check dL/dx via finite differences for L = 0.5||y||².
        let mut rng = seeded_rng(99);
        let x: Vec<f32> = (0..dim_in).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let y = layer.forward_train(&x);
        let grad_out: Vec<f32> = y.clone();
        let grad_in = layer.backward(&grad_out);
        let loss = |l: &dyn Layer, x: &[f32]| -> f64 {
            l.forward(x).iter().map(|&v| 0.5 * (v as f64).powi(2)).sum()
        };
        let eps = 1e-3f32;
        for i in 0..dim_in {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let numeric = (loss(layer, &xp) - loss(layer, &xm)) / (2.0 * eps as f64);
            assert!(
                (numeric - grad_in[i] as f64).abs() < 2e-2,
                "input {i}: numeric {numeric} vs analytic {}",
                grad_in[i]
            );
        }
    }

    #[test]
    fn dense_input_gradient_is_correct() {
        let mut layer = Dense::new(6, 4, &mut seeded_rng(1));
        finite_diff_check(&mut layer, 6);
    }

    #[test]
    fn pd_dense_input_gradient_is_correct() {
        let mut layer = PdDense::new(8, 8, 4, &mut seeded_rng(2));
        finite_diff_check(&mut layer, 8);
    }

    #[test]
    fn circulant_input_gradient_is_correct() {
        let mut layer = CirculantDense::new(8, 8, 4, &mut seeded_rng(3));
        finite_diff_check(&mut layer, 8);
    }

    #[test]
    fn dense_layer_learns_identity_map() {
        let mut layer = Dense::new(4, 4, &mut seeded_rng(4));
        let mut rng = seeded_rng(5);
        for _ in 0..400 {
            let x: Vec<f32> = (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let y = layer.forward_train(&x);
            let grad: Vec<f32> = y.iter().zip(x.iter()).map(|(yi, xi)| yi - xi).collect();
            layer.backward(&grad);
            layer.apply_gradients(0.1);
        }
        let x = vec![0.3, -0.2, 0.5, 0.1];
        let y = layer.forward(&x);
        for (a, b) in y.iter().zip(x.iter()) {
            assert!(
                (a - b).abs() < 0.1,
                "dense layer should learn identity: {y:?}"
            );
        }
    }

    #[test]
    fn pd_dense_parameter_count_matches_compression() {
        let layer = PdDense::new(64, 32, 4, &mut seeded_rng(6));
        assert_eq!(layer.num_params(), 64 * 32 / 4 + 32);
        let dense = Dense::new(64, 32, &mut seeded_rng(6));
        assert_eq!(dense.num_params(), 64 * 32 + 32);
    }

    #[test]
    fn pd_dense_training_preserves_structure() {
        let mut layer = PdDense::new(16, 16, 4, &mut seeded_rng(7));
        let perms = layer.weights().perms().to_vec();
        let mut rng = seeded_rng(8);
        for _ in 0..20 {
            let x: Vec<f32> = (0..16).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let y = layer.forward_train(&x);
            layer.backward(&y);
            layer.apply_gradients(0.05);
        }
        assert_eq!(layer.weights().perms(), &perms[..]);
        // Structural zeros stay zero.
        let dense = layer.weights().to_dense();
        for i in 0..16 {
            for j in 0..16 {
                let on_diag = (i % 4 + layer.weights().perm_at(i, j)) % 4 == j % 4;
                if !on_diag {
                    assert_eq!(dense[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn circulant_layer_stays_circulant_after_update() {
        let mut layer = CirculantDense::new(8, 8, 4, &mut seeded_rng(9));
        let mut rng = seeded_rng(10);
        for _ in 0..5 {
            let x: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let y = layer.forward_train(&x);
            layer.backward(&y);
            layer.apply_gradients(0.05);
        }
        // Every block has constant wrapped diagonals.
        let dense = layer.weights().to_dense();
        for bi in 0..2 {
            for bj in 0..2 {
                for d in 0..4usize {
                    let base = dense[(bi * 4, bj * 4 + d)];
                    for r in 1..4usize {
                        let c = (r + d) % 4;
                        assert!((dense[(bi * 4 + r, bj * 4 + c)] - base).abs() < 1e-5);
                    }
                }
            }
        }
    }

    #[test]
    fn activation_layers_have_no_params() {
        assert_eq!(Relu::new(8).num_params(), 0);
        assert_eq!(Tanh::new(8).num_params(), 0);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut r = Relu::new(3);
        let _ = r.forward_train(&[-1.0, 0.5, 2.0]);
        let g = r.backward(&[1.0, 1.0, 1.0]);
        assert_eq!(g, vec![0.0, 1.0, 1.0]);
    }

    #[test]
    fn tanh_backward_uses_output() {
        let mut t = Tanh::new(1);
        let y = t.forward_train(&[0.7]);
        let g = t.backward(&[1.0]);
        assert!((g[0] - (1.0 - y[0] * y[0])).abs() < 1e-6);
    }

    #[test]
    fn make_fc_layer_dispatches_formats() {
        let mut rng = seeded_rng(11);
        let d = make_fc_layer(8, 8, WeightFormat::Dense, &mut rng);
        let p = make_fc_layer(8, 8, WeightFormat::PermutedDiagonal { p: 4 }, &mut rng);
        let c = make_fc_layer(8, 8, WeightFormat::Circulant { k: 4 }, &mut rng);
        assert!(d.num_params() > p.num_params());
        assert_eq!(p.num_params(), c.num_params());
        assert_eq!(
            WeightFormat::PermutedDiagonal { p: 4 }.label(),
            "permuted-diagonal (p=4)"
        );
    }

    #[test]
    fn registry_builds_every_format_through_the_trait() {
        let mut rng = seeded_rng(20);
        let formats = [
            WeightFormat::Dense,
            WeightFormat::PermutedDiagonal { p: 4 },
            WeightFormat::Circulant { k: 4 },
            WeightFormat::Circulant { k: 3 }, // non-2ᵗ: direct-kernel fallback
            WeightFormat::UnstructuredSparse { p: 4 },
            WeightFormat::SharedPermutedDiagonal { p: 4, tag_bits: 4 },
        ];
        let x: Vec<f32> = (0..24).map(|i| (i as f32 * 0.29).sin()).collect();
        for format in formats {
            let w = format.build(16, 24, &mut rng);
            assert_eq!((w.out_dim(), w.in_dim()), (16, 24), "{}", format.label());
            let y = w.matvec(&x).unwrap();
            let reference = w.to_dense().matvec(&x);
            for (a, b) in y.iter().zip(reference.iter()) {
                assert!((a - b).abs() < 1e-3, "{}: {a} vs {b}", format.label());
            }
            // Compressed formats store fewer weights than dense (ragged blocks
            // pad, so the bound is the dense count, not rows·cols/p).
            if format != WeightFormat::Dense {
                assert!(w.stored_weights() < 16 * 24, "{}", format.label());
            }
        }
    }

    #[test]
    fn compressed_fc_freezes_weights_and_trains_bias() {
        let mut rng = seeded_rng(21);
        let mut layer =
            CompressedFc::build(8, 8, WeightFormat::UnstructuredSparse { p: 2 }, &mut rng);
        let frozen_before = layer.weights().to_dense();
        let mut data_rng = seeded_rng(22);
        for _ in 0..30 {
            let x: Vec<f32> = (0..8).map(|_| data_rng.gen_range(-1.0f32..1.0)).collect();
            let y = layer.forward_train(&x);
            layer.backward(&y);
            layer.apply_gradients(0.1);
        }
        assert!(frozen_before.approx_eq(&layer.weights().to_dense(), 0.0));
        assert!(
            layer.bias.iter().any(|&b| b != 0.0),
            "bias should have trained"
        );
    }

    #[test]
    fn compressed_fc_input_gradient_is_correct() {
        let mut layer = CompressedFc::build(
            8,
            8,
            WeightFormat::SharedPermutedDiagonal { p: 4, tag_bits: 4 },
            &mut seeded_rng(23),
        );
        finite_diff_check(&mut layer, 8);
    }

    #[test]
    fn compressed_fc_batch_paths_match_rowwise_forward() {
        let mut rng = seeded_rng(30);
        let mut layer =
            CompressedFc::build(12, 8, WeightFormat::UnstructuredSparse { p: 2 }, &mut rng);
        // A non-zero bias so the batch paths must add it exactly like forward.
        layer.bias = (0..8).map(|i| 0.1 * i as f32 - 0.3).collect();
        let xs_mat = xavier_uniform(&mut seeded_rng(31), 5, 12);
        let xs = BatchView::from_matrix(&xs_mat);
        let batch = layer
            .forward_batch_parallel(&xs, &ParallelExecutor::sequential())
            .unwrap();
        let exec = ParallelExecutor::new(3);
        let parallel = layer.forward_batch_parallel(&xs, &exec).unwrap();
        assert_eq!(batch, parallel, "sharded result must be bit-for-bit equal");
        for i in 0..5 {
            assert_eq!(batch.row(i), &layer.forward(xs.row(i))[..], "row {i}");
        }
    }

    #[test]
    fn shared_operator_layers_gradients_match_and_caches_are_private() {
        // Two call sites sharing one operator: the first backward through each
        // primes that layer's own dense cache, and both see identical
        // gradients — the lazy cache is an invisible optimisation.
        let mut rng = seeded_rng(32);
        let op: Arc<dyn CompressedLinear> = Arc::from(
            WeightFormat::SharedPermutedDiagonal { p: 4, tag_bits: 4 }.build(8, 8, &mut rng),
        );
        let dense_before = op.to_dense();
        let mut a = CompressedFc::from_shared(Arc::clone(&op));
        let mut b = CompressedFc::from_shared(Arc::clone(&op));
        let x: Vec<f32> = (0..8).map(|i| (i as f32 * 0.37).sin()).collect();
        let g: Vec<f32> = (0..8).map(|i| (i as f32 * 0.53).cos()).collect();
        let _ = a.forward_train(&x);
        let _ = b.forward_train(&x);
        assert!(!a.dense_cache_primed() && !b.dense_cache_primed());
        let grad_a = a.backward(&g);
        assert!(
            a.dense_cache_primed() && !b.dense_cache_primed(),
            "each layer's cache is private"
        );
        let grad_b = b.backward(&g);
        assert_eq!(grad_a, grad_b, "first use from either call site agrees");
        // to_dense round-trips identically after the cache is primed.
        assert!(dense_before.approx_eq(&a.weights().to_dense(), 0.0));
        assert!(dense_before.approx_eq(&op.to_dense(), 0.0));
    }

    #[test]
    fn layer_mul_counts_reflect_format_cost() {
        let mut rng = seeded_rng(33);
        let dense = Dense::new(16, 8, &mut rng);
        assert_eq!(dense.mul_count(), 16 * 8);
        let pd = PdDense::new(16, 8, 4, &mut rng);
        assert_eq!(pd.mul_count(), 16 * 8 / 4);
        assert_eq!(Relu::new(8).mul_count(), 0);
        let fc = CompressedFc::build(16, 8, WeightFormat::PermutedDiagonal { p: 4 }, &mut rng);
        assert_eq!(fc.mul_count(), 16 * 8 / 4);
    }

    #[test]
    fn new_format_labels() {
        assert_eq!(
            WeightFormat::UnstructuredSparse { p: 8 }.label(),
            "unstructured-sparse (1/8 kept)"
        );
        assert_eq!(
            WeightFormat::SharedPermutedDiagonal { p: 8, tag_bits: 4 }.label(),
            "permuted-diagonal (p=8) + 4-bit shared"
        );
    }

    #[test]
    fn pd_from_dense_approximation_keeps_bias_and_improves_with_finetune() {
        let mut rng = seeded_rng(12);
        let dense = Dense::new(12, 8, &mut rng);
        let pd = PdDense::from_dense_approximation(&dense, 4);
        assert_eq!(pd.bias, dense.bias());
        assert_eq!(pd.weights().p(), 4);
    }
}

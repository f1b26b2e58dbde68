//! Multi-layer-perceptron classifier and trainer.
//!
//! The MLP is the workhorse of the FC-layer accuracy experiments: the same architecture is
//! instantiated with dense, permuted-diagonal or block-circulant hidden layers
//! ([`WeightFormat`]) and trained on identical data with identical seeds, so any accuracy
//! difference is attributable to the weight structure alone — the comparison Tables II–V
//! make.

use pd_tensor::Matrix;
use permdnn_core::format::{BatchView, FormatError};
use permdnn_runtime::{run_stages, BatchModel, ParallelExecutor};
use rand_chacha::ChaCha20Rng;

use crate::data::GaussianClusters;
use crate::layers::{make_fc_layer, CompressedFc, Dense, Layer, PdDense, Relu, Tanh, WeightFormat};
use crate::loss::softmax_cross_entropy;
use crate::metrics::{argmax, Accuracy};

/// A feed-forward classifier: `input -> [hidden -> ReLU]* -> logits`.
pub struct MlpClassifier {
    layers: Vec<Box<dyn Layer>>,
    input_dim: usize,
    num_classes: usize,
    hidden_format: WeightFormat,
}

impl std::fmt::Debug for MlpClassifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MlpClassifier")
            .field("input_dim", &self.input_dim)
            .field("num_classes", &self.num_classes)
            .field("hidden_format", &self.hidden_format.label())
            .field("num_params", &self.num_params())
            .finish()
    }
}

impl MlpClassifier {
    /// Builds an MLP with the given hidden-layer sizes. Hidden layers use
    /// `hidden_format`; the small output head is always dense (as in the paper, where the
    /// final classifier layer of AlexNet uses a smaller `p`, compression is applied to the
    /// large hidden FC layers).
    pub fn new(
        input_dim: usize,
        hidden_dims: &[usize],
        num_classes: usize,
        hidden_format: WeightFormat,
        rng: &mut ChaCha20Rng,
    ) -> Self {
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        let mut current = input_dim;
        for &h in hidden_dims {
            layers.push(make_fc_layer(current, h, hidden_format, rng));
            layers.push(Box::new(Relu::new(h)));
            current = h;
        }
        layers.push(Box::new(Dense::new(current, num_classes, rng)));
        Self::from_layers(layers, input_dim, num_classes, hidden_format)
    }

    /// Builds a frozen serving MLP: every layer (hidden *and* head) is a
    /// [`CompressedFc`] over the requested format (the head is always dense —
    /// it is small), so the whole network is immutable weight data ready to be
    /// shared across the serving runtime's worker threads.
    pub fn new_frozen(
        input_dim: usize,
        hidden_dims: &[usize],
        num_classes: usize,
        hidden_format: WeightFormat,
        rng: &mut ChaCha20Rng,
    ) -> Self {
        let hidden: Vec<_> = hidden_dims.iter().map(|&h| (h, hidden_format)).collect();
        MlpClassifier {
            hidden_format,
            ..Self::new_frozen_mixed(input_dim, &hidden, num_classes, rng)
        }
    }

    /// Builds a frozen *mixed-format* serving MLP: each hidden layer gets its
    /// own `(width, format)` pair, the head stays dense — the shape the
    /// per-layer format autotuner ([`crate::spec::ModelSpec`]) deploys, and
    /// the snapshot container already handles (every tensor record carries
    /// its own format id).
    pub fn new_frozen_mixed(
        input_dim: usize,
        hidden: &[(usize, WeightFormat)],
        num_classes: usize,
        rng: &mut ChaCha20Rng,
    ) -> Self {
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        let mut current = input_dim;
        for &(h, format) in hidden {
            layers.push(Box::new(CompressedFc::build(current, h, format, rng)));
            layers.push(Box::new(Relu::new(h)));
            current = h;
        }
        layers.push(Box::new(CompressedFc::build(
            current,
            num_classes,
            WeightFormat::Dense,
            rng,
        )));
        let hidden_format = hidden.first().map_or(WeightFormat::Dense, |&(_, f)| f);
        Self::from_layers(layers, input_dim, num_classes, hidden_format)
    }

    /// Assembles a classifier from an explicit layer stack (used by the
    /// quantization path, which rebuilds each layer in fixed point).
    pub(crate) fn from_layers(
        layers: Vec<Box<dyn Layer>>,
        input_dim: usize,
        num_classes: usize,
        hidden_format: WeightFormat,
    ) -> Self {
        MlpClassifier {
            layers,
            input_dim,
            num_classes,
            hidden_format,
        }
    }

    /// The layer stack, in forward order.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Quantizes the whole network to the 16-bit fixed-point backend, with
    /// per-layer Q-formats calibrated on `calibration` inputs — see
    /// [`crate::quantize::quantize_mlp`].
    pub fn quantize(
        &self,
        calibration: &[Vec<f32>],
    ) -> (MlpClassifier, crate::quantize::QuantizationReport) {
        crate::quantize::quantize_mlp(self, calibration)
    }

    /// The weight format used by the hidden layers.
    pub fn hidden_format(&self) -> WeightFormat {
        self.hidden_format
    }

    /// Number of classes predicted.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Total stored parameters across all layers.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.num_params()).sum()
    }

    /// Inference: returns the class logits for one example.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim()`.
    pub fn logits(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.input_dim, "input dimensionality mismatch");
        let mut current = x.to_vec();
        for layer in &self.layers {
            current = layer.forward(&current);
        }
        current
    }

    /// Predicted class for one example.
    pub fn predict(&self, x: &[f32]) -> usize {
        argmax(&self.logits(x))
    }

    /// Batched inference sharded across the executor's worker pool: the
    /// stage loop of [`BatchModel::forward_batch_into`] into a new matrix.
    /// Outputs are bit-for-bit identical to sequential
    /// [`MlpClassifier::logits`] for any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] if `xs.dim()` differs from
    /// the input dimensionality.
    pub fn forward_batch_parallel(
        &self,
        xs: &BatchView<'_>,
        exec: &ParallelExecutor,
    ) -> Result<Matrix, FormatError> {
        let mut out = Matrix::default();
        self.forward_batch_into(xs, exec, &mut out)?;
        Ok(out)
    }

    /// Real multiplications one example costs through every layer on a dense
    /// input (the serving runtime's per-example service cost).
    pub fn mul_count_per_example(&self) -> u64 {
        self.layers.iter().map(|l| l.mul_count()).sum()
    }

    /// One training step on a single example; returns the loss.
    pub fn train_example(&mut self, x: &[f32], label: usize, lr: f32) -> f32 {
        let (loss, grad) = self.forward_backward(x, label);
        for layer in &mut self.layers {
            layer.apply_gradients(lr);
        }
        let _ = grad;
        loss
    }

    /// Forward + backward for one example without applying gradients (used for
    /// mini-batch accumulation). Returns the loss and the gradient w.r.t. the input.
    pub fn forward_backward(&mut self, x: &[f32], label: usize) -> (f32, Vec<f32>) {
        let mut current = x.to_vec();
        for layer in &mut self.layers {
            current = layer.forward_train(&current);
        }
        let (loss, mut grad) = softmax_cross_entropy(&current, label);
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        (loss, grad)
    }

    /// Applies accumulated gradients across all layers.
    pub fn apply_gradients(&mut self, lr: f32) {
        for layer in &mut self.layers {
            layer.apply_gradients(lr);
        }
    }

    /// Trains for `epochs` passes over the dataset with the given mini-batch size and
    /// learning rate; returns the mean loss of the final epoch.
    pub fn fit(
        &mut self,
        data: &GaussianClusters,
        epochs: usize,
        batch_size: usize,
        lr: f32,
    ) -> f32 {
        assert!(batch_size >= 1);
        let mut last_epoch_loss = 0.0f32;
        for _ in 0..epochs {
            let mut epoch_loss = 0.0f32;
            let mut in_batch = 0usize;
            for (x, &label) in data.features.iter().zip(data.labels.iter()) {
                let (loss, _) = self.forward_backward(x, label);
                epoch_loss += loss;
                in_batch += 1;
                if in_batch == batch_size {
                    self.apply_gradients(lr);
                    in_batch = 0;
                }
            }
            if in_batch > 0 {
                self.apply_gradients(lr);
            }
            last_epoch_loss = epoch_loss / data.len().max(1) as f32;
        }
        last_epoch_loss
    }

    /// Top-1 accuracy on a dataset.
    pub fn evaluate(&self, data: &GaussianClusters) -> f64 {
        let mut acc = Accuracy::new();
        for (x, &label) in data.features.iter().zip(data.labels.iter()) {
            acc.record(self.predict(x) == label);
        }
        acc.value()
    }

    /// Accesses the permuted-diagonal hidden layers (for quantization experiments).
    /// Returns mutable references to every [`PdDense`] layer in the network.
    pub fn pd_layers_mut(&mut self) -> Vec<&mut PdDense> {
        self.layers
            .iter_mut()
            .filter_map(|l| l.as_any_mut().downcast_mut::<PdDense>())
            .collect()
    }

    /// Serialises a *frozen* classifier (every layer a [`CompressedFc`],
    /// [`Relu`] or `Tanh`) into a model snapshot: a `"graph"` section holding
    /// the layer chain, plus per-FC-layer `"layerN.weights"` (compressed
    /// tensor record) and `"layerN.bias"` sections. Quantized networks save
    /// their per-layer QSchemes and raw `i16` weights through the same path.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`](permdnn_core::snapshot::SnapshotError) if
    /// any layer is still trainable (freeze or quantize first) or a weight
    /// operator has no snapshot codec.
    pub fn save(&self) -> Result<Vec<u8>, permdnn_core::snapshot::SnapshotError> {
        use permdnn_core::snapshot::{encode_tensor, ByteWriter, SnapshotBuilder, SnapshotError};
        let mut graph = ByteWriter::new();
        graph.dim(self.input_dim);
        graph.dim(self.num_classes);
        crate::snapshot::write_weight_format(self.hidden_format, &mut graph);
        graph.dim(self.layers.len());
        let mut sections: Vec<(String, Vec<u8>)> = Vec::new();
        for (i, layer) in self.layers.iter().enumerate() {
            let any = layer.as_any();
            if let Some(fc) = any.downcast_ref::<CompressedFc>() {
                graph.u8(0);
                sections.push((format!("layer{i}.weights"), encode_tensor(fc.weights())?));
                sections.push((
                    format!("layer{i}.bias"),
                    crate::snapshot::write_bias(fc.bias()),
                ));
            } else if any.downcast_ref::<Relu>().is_some() {
                graph.u8(1);
                graph.dim(layer.input_dim());
            } else if any.downcast_ref::<Tanh>().is_some() {
                graph.u8(2);
                graph.dim(layer.input_dim());
            } else {
                return Err(SnapshotError::Malformed {
                    context: "mlp save",
                    reason: format!(
                        "layer {i} is trainable; snapshots hold frozen networks only \
                         (build with new_frozen or quantize first)"
                    ),
                });
            }
        }
        let mut b = SnapshotBuilder::new(permdnn_core::snapshot::KIND_MLP);
        b.section("graph", graph.into_vec());
        for (name, payload) in sections {
            b.section(&name, payload);
        }
        Ok(b.finish())
    }

    /// Loads a classifier snapshot written by [`MlpClassifier::save`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`SnapshotError`](permdnn_core::snapshot::SnapshotError)
    /// for any corruption — bad magic/version, checksum mismatches, truncated
    /// or oversized sections, unknown formats, inconsistent layer chains —
    /// and never panics on hostile bytes.
    pub fn load(bytes: &[u8]) -> Result<MlpClassifier, permdnn_core::snapshot::SnapshotError> {
        let snap = permdnn_core::snapshot::Snapshot::parse(bytes)?;
        if snap.kind() != permdnn_core::snapshot::KIND_MLP {
            return Err(permdnn_core::snapshot::SnapshotError::Malformed {
                context: "mlp snapshot",
                reason: format!("kind {} is not an MLP", snap.kind()),
            });
        }
        Self::load_snapshot(&snap)
    }

    /// [`MlpClassifier::load`] over an already-parsed container (shared with
    /// the batch-model dispatcher).
    pub(crate) fn load_snapshot(
        snap: &permdnn_core::snapshot::Snapshot,
    ) -> Result<MlpClassifier, permdnn_core::snapshot::SnapshotError> {
        use crate::snapshot::{read_mlp_graph, GraphLayer};
        let codec = crate::snapshot::codec();
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        let (input_dim, num_classes, hidden_format) = read_mlp_graph(
            snap.section("graph")?,
            |i| {
                let section = snap.section(&format!("layer{i}.weights"))?;
                Ok(((), crate::snapshot::read_tensor_section(section, &codec)?))
            },
            |i| Ok(snap.section(&format!("layer{i}.bias"))?.to_vec()),
            |layer| {
                layers.push(match layer {
                    GraphLayer::Fc((), op, bias) => {
                        Box::new(CompressedFc::from_shared(op).with_bias(&bias))
                    }
                    GraphLayer::Relu(dim) => Box::new(Relu::new(dim)),
                    GraphLayer::Tanh(dim) => Box::new(Tanh::new(dim)),
                })
            },
        )?;
        Ok(Self::from_layers(
            layers,
            input_dim,
            num_classes,
            hidden_format,
        ))
    }
}

/// Any MLP is servable by the batching runtime: the model is shared across
/// worker threads (every [`Layer`] is `Send + Sync`) and batches run through
/// the stage loop ([`run_stages`]).
impl BatchModel for MlpClassifier {
    fn in_dim(&self) -> usize {
        self.input_dim
    }

    fn out_dim(&self) -> usize {
        self.num_classes
    }

    fn mul_count_per_example(&self) -> u64 {
        self.mul_count_per_example()
    }

    fn forward_batch(
        &self,
        xs: &BatchView<'_>,
        exec: &ParallelExecutor,
    ) -> Result<Matrix, FormatError> {
        self.forward_batch_parallel(xs, exec)
    }

    /// The stage loop ([`run_stages`]) over the layer stack; a warm frozen
    /// MLP allocates nothing here when the executor runs the batch inline.
    fn forward_batch_into(
        &self,
        xs: &BatchView<'_>,
        exec: &ParallelExecutor,
        out: &mut Matrix,
    ) -> Result<(), FormatError> {
        permdnn_core::format::check_dim("mlp forward", self.input_dim, xs.dim())?;
        run_stages(xs, exec, out, self.layers.len(), |s| {
            Ok::<_, FormatError>(crate::layers::stage(&self.layers, s))
        })
    }
}

/// Converts a trained dense MLP into a permuted-diagonal MLP by projecting every hidden
/// dense layer onto the PD manifold (Section III-F, step 1), ready for fine-tuning
/// (step 2). The output head stays dense.
pub fn dense_mlp_to_pd(dense: &MlpClassifier, p: usize, rng: &mut ChaCha20Rng) -> MlpClassifier {
    let _ = rng;
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let total = dense.layers.len();
    for (i, layer) in dense.layers.iter().enumerate() {
        let any = layer.as_any();
        if let Some(d) = any.downcast_ref::<Dense>() {
            if i + 1 == total {
                // Output head stays dense.
                layers.push(Box::new(d.clone()));
            } else {
                layers.push(Box::new(PdDense::from_dense_approximation(d, p)));
            }
        } else if let Some(r) = any.downcast_ref::<Relu>() {
            layers.push(Box::new(r.clone()));
        } else {
            panic!("dense_mlp_to_pd expects a dense MLP (Dense + Relu layers only)");
        }
    }
    let pd = WeightFormat::PermutedDiagonal { p };
    MlpClassifier::from_layers(layers, dense.input_dim, dense.num_classes, pd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_tensor::init::seeded_rng;

    fn toy_data(seed: u64) -> (GaussianClusters, GaussianClusters) {
        GaussianClusters::generate(&mut seeded_rng(seed), 400, 4, 24, 0.45).split(0.8)
    }

    #[test]
    fn dense_mlp_learns_clusters() {
        let (train, test) = toy_data(1);
        let mut model = MlpClassifier::new(24, &[32], 4, WeightFormat::Dense, &mut seeded_rng(2));
        let before = model.evaluate(&test);
        model.fit(&train, 10, 8, 0.1);
        let after = model.evaluate(&test);
        assert!(
            after > 0.85,
            "dense MLP should learn the task: {before} -> {after}"
        );
    }

    #[test]
    fn pd_mlp_learns_clusters_comparably() {
        let (train, test) = toy_data(3);
        let mut dense = MlpClassifier::new(24, &[32], 4, WeightFormat::Dense, &mut seeded_rng(4));
        let mut pd = MlpClassifier::new(
            24,
            &[32],
            4,
            WeightFormat::PermutedDiagonal { p: 4 },
            &mut seeded_rng(4),
        );
        dense.fit(&train, 12, 8, 0.1);
        pd.fit(&train, 12, 8, 0.1);
        let dense_acc = dense.evaluate(&test);
        let pd_acc = pd.evaluate(&test);
        assert!(pd_acc > 0.8, "PD MLP accuracy too low: {pd_acc}");
        assert!(
            dense_acc - pd_acc < 0.1,
            "PD should be within 10 points of dense ({dense_acc} vs {pd_acc})"
        );
        assert!(pd.num_params() < dense.num_params());
    }

    #[test]
    fn training_loss_decreases() {
        let (train, _) = toy_data(5);
        let mut model = MlpClassifier::new(
            24,
            &[16],
            4,
            WeightFormat::PermutedDiagonal { p: 4 },
            &mut seeded_rng(6),
        );
        let first = model.fit(&train, 1, 8, 0.05);
        let later = model.fit(&train, 5, 8, 0.05);
        assert!(later < first, "loss should decrease: {first} -> {later}");
    }

    #[test]
    fn logits_length_and_predict_range() {
        let model = MlpClassifier::new(10, &[8], 3, WeightFormat::Dense, &mut seeded_rng(7));
        let x = vec![0.1; 10];
        assert_eq!(model.logits(&x).len(), 3);
        assert!(model.predict(&x) < 3);
        assert_eq!(model.num_classes(), 3);
        assert_eq!(model.input_dim(), 10);
    }

    #[test]
    fn parameter_counts_reflect_compression() {
        let dense = MlpClassifier::new(64, &[64, 64], 4, WeightFormat::Dense, &mut seeded_rng(8));
        let pd = MlpClassifier::new(
            64,
            &[64, 64],
            4,
            WeightFormat::PermutedDiagonal { p: 8 },
            &mut seeded_rng(8),
        );
        // Hidden layers dominate: PD should store far fewer parameters.
        assert!(pd.num_params() * 4 < dense.num_params());
    }

    #[test]
    fn batch_paths_match_sequential_logits_bitwise() {
        let model = MlpClassifier::new_frozen(
            16,
            &[24, 12],
            5,
            WeightFormat::PermutedDiagonal { p: 4 },
            &mut seeded_rng(20),
        );
        let xs_mat = pd_tensor::init::xavier_uniform(&mut seeded_rng(21), 9, 16);
        let xs = BatchView::from_matrix(&xs_mat);
        let sequential = model
            .forward_batch_parallel(&xs, &ParallelExecutor::sequential())
            .unwrap();
        for i in 0..9 {
            assert_eq!(sequential.row(i), &model.logits(xs.row(i))[..], "row {i}");
        }
        for workers in [1, 2, 3, 7] {
            let exec = ParallelExecutor::new(workers);
            let parallel = model.forward_batch_parallel(&xs, &exec).unwrap();
            assert_eq!(parallel, sequential, "workers = {workers}");
        }

        // Every batch size through one reused output, on nets whose tanh
        // follows a biased linear layer (the fused pass: bias first, then
        // the activation), whose first stage is an activation, and whose
        // trainable layer runs row by row.
        let rng = &mut seeded_rng(26);
        let bias = |n: usize| -> Vec<f32> { (0..n).map(|j| 0.3 - 0.05 * j as f32).collect() };
        let mixed = MlpClassifier::from_layers(
            vec![
                Box::new(Tanh::new(16)),
                Box::new(
                    CompressedFc::build(16, 24, WeightFormat::Dense, rng).with_bias(&bias(24)),
                ),
                Box::new(Tanh::new(24)),
                Box::new(Dense::new(24, 12, rng)),
                Box::new(Relu::new(12)),
                Box::new(
                    CompressedFc::build(12, 5, WeightFormat::PermutedDiagonal { p: 4 }, rng)
                        .with_bias(&bias(5)),
                ),
            ],
            16,
            5,
            WeightFormat::Dense,
        );
        let trainable = MlpClassifier::new(16, &[8], 5, WeightFormat::Dense, rng);
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        let xs_mat = pd_tensor::init::xavier_uniform(&mut seeded_rng(27), 40, 16);
        for net in [&model, &mixed, &trainable] {
            let logits: Vec<Vec<u32>> = (0..40).map(|i| bits(&net.logits(xs_mat.row(i)))).collect();
            for workers in [1, 2, 3, 7] {
                let exec = ParallelExecutor::new(workers);
                let mut out = Matrix::zeros(0, 0);
                for batch in 0..=40 {
                    let xs = BatchView::new(&xs_mat.as_slice()[..batch * 16], batch, 16).unwrap();
                    net.forward_batch_into(&xs, &exec, &mut out).unwrap();
                    assert_eq!(out.shape(), (batch, 5));
                    for (i, row) in logits.iter().enumerate().take(batch) {
                        assert_eq!(
                            &bits(out.row(i)),
                            row,
                            "workers {workers} batch {batch} row {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn trainable_mlp_also_supports_batch_inference() {
        // Non-CompressedFc layers take the row-by-row fallback; equivalence
        // must still hold exactly.
        let model = MlpClassifier::new(10, &[8], 3, WeightFormat::Dense, &mut seeded_rng(22));
        let xs_mat = pd_tensor::init::xavier_uniform(&mut seeded_rng(23), 4, 10);
        let xs = BatchView::from_matrix(&xs_mat);
        let exec = ParallelExecutor::new(2);
        let batch = model.forward_batch_parallel(&xs, &exec).unwrap();
        for i in 0..4 {
            assert_eq!(batch.row(i), &model.logits(xs.row(i))[..]);
        }
    }

    #[test]
    fn frozen_mlp_counts_multiplications_per_example() {
        let model = MlpClassifier::new_frozen(
            16,
            &[8],
            4,
            WeightFormat::PermutedDiagonal { p: 4 },
            &mut seeded_rng(24),
        );
        // Hidden PD layer: 16·8/4 muls; dense head: 8·4.
        assert_eq!(model.mul_count_per_example(), 16 * 8 / 4 + 8 * 4);
    }

    #[test]
    fn batch_dim_mismatch_is_a_typed_error() {
        let model = MlpClassifier::new_frozen(8, &[8], 2, WeightFormat::Dense, &mut seeded_rng(25));
        let data = vec![0.0f32; 6];
        let xs = BatchView::new(&data, 1, 6).unwrap();
        assert!(matches!(
            model.forward_batch_parallel(&xs, &ParallelExecutor::sequential()),
            Err(FormatError::DimensionMismatch {
                expected: 8,
                got: 6,
                ..
            })
        ));
    }

    #[test]
    fn dense_to_pd_conversion_and_finetune_recovers_accuracy() {
        let (train, test) = toy_data(9);
        let mut dense = MlpClassifier::new(24, &[32], 4, WeightFormat::Dense, &mut seeded_rng(10));
        dense.fit(&train, 12, 8, 0.1);
        let dense_acc = dense.evaluate(&test);
        let mut pd = dense_mlp_to_pd(&dense, 4, &mut seeded_rng(11));
        let projected_acc = pd.evaluate(&test);
        pd.fit(&train, 8, 8, 0.05);
        let finetuned_acc = pd.evaluate(&test);
        assert!(
            finetuned_acc >= projected_acc,
            "fine-tuning should not hurt: {projected_acc} -> {finetuned_acc}"
        );
        assert!(
            dense_acc - finetuned_acc < 0.12,
            "fine-tuned PD should approach dense accuracy ({dense_acc} vs {finetuned_acc})"
        );
    }
}

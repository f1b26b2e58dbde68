//! A LeNet-style convolutional classifier whose convolution layers can be dense or
//! permuted-diagonal, plus its frozen serving form on the `CompressedLinear` stack.
//!
//! This model is the stand-in for the paper's CONV-layer experiments (ResNet-20 and Wide
//! ResNet-48 on CIFAR-10, Tables IV–V, and the LeNet-5 conversion of Section III-F): two
//! convolution layers with ReLU and 2×2 average pooling, followed by a fully-connected
//! classifier head. The convolution weight tensors use
//! [`permdnn_core::BlockPermDiagTensor4`] when the permuted-diagonal format is selected,
//! trained with the structure-preserving updates of Eqns. (5)–(6).
//!
//! Conv layers accept the same [`WeightFormat`] registry as FC and LSTM layers;
//! formats without a faithful convolution training rule are rejected with a typed
//! [`FormatError`] at construction. Deployment goes through
//! [`ConvClassifier::freeze`]: every convolution is lowered onto the
//! [`CompressedLinear`] surface via im2col
//! ([`permdnn_core::lowering`]), so the frozen model serves — and quantizes —
//! through exactly the runtime/quant/sim datapath as the FC models.

use std::sync::Arc;

use pd_tensor::tensor4::conv_out_dim;
use pd_tensor::Tensor4;
use permdnn_core::approx::{pd_approximate_tensor, ApproxStrategy};
use permdnn_core::conv::dense_conv2d;
use permdnn_core::format::{BatchView, CompressedLinear, FormatError};
use permdnn_core::lowering::{lower_dense_conv, ConvGeometry, PdConvMatrix};
use permdnn_core::qlinear::{QScheme, QuantizedLinear};
use permdnn_core::{BlockPermDiagTensor4, PermutationIndexing};
use permdnn_runtime::{BatchModel, ParallelExecutor};
use rand::Rng;
use rand_chacha::ChaCha20Rng;

use crate::activations::{relu, relu_grad};
use crate::data::GlyphImages;
use crate::layers::{CompressedFc, Dense, Layer, WeightFormat};
use crate::loss::softmax_cross_entropy;
use crate::metrics::{argmax, Accuracy};
use crate::quantize::{max_abs, LayerQuantization, QuantizationReport};

/// One convolution layer (stride 1, padding 1) in either weight format.
enum ConvWeights {
    Dense(Tensor4),
    Pd(BlockPermDiagTensor4),
}

impl ConvWeights {
    fn forward(&self, input: &Tensor4) -> Tensor4 {
        match self {
            ConvWeights::Dense(w) => dense_conv2d(w, input, 1, 1),
            ConvWeights::Pd(w) => w
                .forward(input, 1, 1)
                .expect("shapes validated at build time"),
        }
    }

    fn stored_weights(&self) -> usize {
        match self {
            ConvWeights::Dense(w) => w.len(),
            ConvWeights::Pd(w) => w.stored_weights(),
        }
    }

    /// Lowers the weights onto the [`CompressedLinear`] surface (im2col
    /// macro-row operator for PD, flattened matrix for dense).
    fn lower(&self) -> Arc<dyn CompressedLinear> {
        match self {
            ConvWeights::Dense(w) => Arc::new(lower_dense_conv(w)),
            ConvWeights::Pd(w) => Arc::new(PdConvMatrix::new(w.clone())),
        }
    }
}

/// A small CNN classifier: conv → ReLU → pool → conv → ReLU → pool → dense head.
pub struct ConvClassifier {
    conv1: ConvWeights,
    conv2: ConvWeights,
    head: Dense,
    channels: [usize; 3],
    image_size: usize,
    num_classes: usize,
    format: WeightFormat,
    lr_scale_conv: f32,
}

impl std::fmt::Debug for ConvClassifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConvClassifier")
            .field("channels", &self.channels)
            .field("image_size", &self.image_size)
            .field("num_classes", &self.num_classes)
            .field("format", &self.format)
            .field("conv_params", &self.conv_params())
            .finish()
    }
}

impl ConvClassifier {
    /// Builds the classifier for `image_size × image_size` inputs with `in_channels`
    /// channels. `channels` selects the two convolution widths.
    ///
    /// Accepts the shared [`WeightFormat`] registry; only [`WeightFormat::Dense`]
    /// and [`WeightFormat::PermutedDiagonal`] have faithful convolution training
    /// rules (Eqns. 5–6).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::Format`] for any other registry format — conv
    /// layers never silently substitute a proxy.
    pub fn new(
        image_size: usize,
        in_channels: usize,
        channels: [usize; 2],
        num_classes: usize,
        format: WeightFormat,
        rng: &mut ChaCha20Rng,
    ) -> Result<Self, FormatError> {
        let conv1 = Self::make_conv(channels[0], in_channels, format, rng)?;
        let conv2 = Self::make_conv(channels[1], channels[0], format, rng)?;
        // Two 2x2 poolings shrink the spatial size by 4 (conv keeps it, padding 1, k=3).
        let pooled = image_size / 4;
        let head_inputs = channels[1] * pooled * pooled;
        let head = Dense::new(head_inputs, num_classes, rng);
        Ok(ConvClassifier {
            conv1,
            conv2,
            head,
            channels: [in_channels, channels[0], channels[1]],
            image_size,
            num_classes,
            format,
            lr_scale_conv: 1.0,
        })
    }

    fn make_conv(
        c_out: usize,
        c_in: usize,
        format: WeightFormat,
        rng: &mut ChaCha20Rng,
    ) -> Result<ConvWeights, FormatError> {
        match format {
            WeightFormat::Dense => {
                let fan = (c_in * 9 + c_out * 9) as f32;
                let a = (6.0 / fan).sqrt();
                Ok(ConvWeights::Dense(Tensor4::from_fn(
                    [c_out, c_in, 3, 3],
                    |_| rng.gen_range(-a..=a),
                )))
            }
            WeightFormat::PermutedDiagonal { p } => {
                Ok(ConvWeights::Pd(BlockPermDiagTensor4::random(
                    c_out,
                    c_in,
                    3,
                    3,
                    p,
                    PermutationIndexing::Natural,
                    rng,
                )))
            }
            other => Err(FormatError::Format {
                format: "conv",
                reason: format!(
                    "{} has no convolution training rule; train dense or \
                     permuted-diagonal and freeze into a deployment format",
                    other.label()
                ),
            }),
        }
    }

    /// Converts the convolution layers of a trained dense model to permuted-diagonal form
    /// via the l2-optimal projection (Section III-F step 1); the head is kept.
    ///
    /// # Panics
    ///
    /// Panics if this model's convolutions are not dense.
    pub fn to_permuted_diagonal(&self, p: usize) -> ConvClassifier {
        let project = |w: &ConvWeights| -> ConvWeights {
            match w {
                ConvWeights::Dense(t) => ConvWeights::Pd(
                    pd_approximate_tensor(t, p, ApproxStrategy::BestPerBlock)
                        .expect("p > 0")
                        .tensor,
                ),
                ConvWeights::Pd(_) => panic!("model is already permuted-diagonal"),
            }
        };
        ConvClassifier {
            conv1: project(&self.conv1),
            conv2: project(&self.conv2),
            head: self.head.clone(),
            channels: self.channels,
            image_size: self.image_size,
            num_classes: self.num_classes,
            format: WeightFormat::PermutedDiagonal { p },
            lr_scale_conv: self.lr_scale_conv,
        }
    }

    /// Number of stored convolution weights (the quantity compressed in Tables IV–V).
    pub fn conv_params(&self) -> usize {
        self.conv1.stored_weights() + self.conv2.stored_weights()
    }

    /// The convolution weight format.
    pub fn format(&self) -> WeightFormat {
        self.format
    }

    /// Freezes the trained model into its inference-only serving form: both
    /// convolutions are lowered onto the [`CompressedLinear`] surface (im2col,
    /// see [`permdnn_core::lowering`]) and the head becomes a frozen
    /// [`CompressedFc`], so the whole network runs on the one audited matmul
    /// datapath — batched, parallel and quantizable.
    pub fn freeze(&self) -> FrozenConvNet {
        FrozenConvNet {
            convs: [self.conv1.lower(), self.conv2.lower()],
            geometry: ConvGeometry::new(3, 3, 1, 1),
            head: CompressedFc::new(Box::new(self.head.weights().clone()))
                .with_bias(self.head.bias()),
            channels: self.channels,
            image_size: self.image_size,
            num_classes: self.num_classes,
            format: self.format,
        }
    }

    /// Class logits for one image.
    ///
    /// # Panics
    ///
    /// Panics if the image shape does not match the model configuration.
    pub fn logits(&self, image: &Tensor4) -> Vec<f32> {
        let (_, _, _, flat) = self.forward_pass(image);
        self.head.forward(&flat)
    }

    /// Predicted class for one image.
    pub fn predict(&self, image: &Tensor4) -> usize {
        argmax(&self.logits(image))
    }

    /// Forward pass returning the intermediate activations needed for backprop:
    /// `(pre-activation 1, pooled 1, pre-activation 2, flattened pooled 2)`.
    fn forward_pass(&self, image: &Tensor4) -> (Tensor4, Tensor4, Tensor4, Vec<f32>) {
        let z1 = self.conv1.forward(image);
        let a1 = map_tensor(&z1, relu);
        let p1 = avg_pool2(&a1);
        let z2 = self.conv2.forward(&p1);
        let a2 = map_tensor(&z2, relu);
        let p2 = avg_pool2(&a2);
        let flat = p2.as_slice().to_vec();
        (z1, p1, z2, flat)
    }

    /// Trains on one labelled image with plain SGD; returns the loss.
    pub fn train_example(&mut self, image: &Tensor4, label: usize, lr: f32) -> f32 {
        // Forward with caches.
        let z1 = self.conv1.forward(image);
        let a1 = map_tensor(&z1, relu);
        let p1 = avg_pool2(&a1);
        let z2 = self.conv2.forward(&p1);
        let a2 = map_tensor(&z2, relu);
        let p2 = avg_pool2(&a2);
        let flat = p2.as_slice().to_vec();

        let logits = self.head.forward(&flat);
        let (loss, grad_logits) = softmax_cross_entropy(&logits, label);

        // Head backward (manual, so we can also get grad wrt flat input).
        let grad_flat = {
            let mut head = self.head.clone();
            let _ = head.forward_train(&flat);
            let g = head.backward(&grad_logits);
            head.apply_gradients(lr);
            self.head = head;
            g
        };

        // Un-flatten and un-pool gradient back to conv2 output.
        let grad_p2 = Tensor4::from_vec(p2.shape(), grad_flat).expect("same length");
        let grad_a2 = avg_pool2_backward(&grad_p2, a2.shape());
        let grad_z2 = backprop_relu(&grad_a2, &z2);

        // conv2 backward: weight update + input gradient.
        let grad_p1 = self.conv_backward(false, &p1, &grad_z2, lr);

        let grad_a1 = avg_pool2_backward(&grad_p1, a1.shape());
        let grad_z1 = backprop_relu(&grad_a1, &z1);
        let _ = self.conv_backward(true, image, &grad_z1, lr);

        loss
    }

    /// Backward through one of the two convolution layers (`first` selects conv1),
    /// updating its weights and returning the gradient with respect to its input.
    fn conv_backward(
        &mut self,
        first: bool,
        input: &Tensor4,
        grad_output: &Tensor4,
        lr: f32,
    ) -> Tensor4 {
        let lr = lr * self.lr_scale_conv;
        let conv = if first {
            &mut self.conv1
        } else {
            &mut self.conv2
        };
        match conv {
            ConvWeights::Pd(w) => {
                let grad_input = w
                    .input_gradient(grad_output, input.shape(), 1, 1)
                    .expect("shapes are consistent");
                w.sgd_step(input, grad_output, 1, 1, lr)
                    .expect("shapes are consistent");
                grad_input
            }
            ConvWeights::Dense(w) => {
                let grad_input = dense_conv_input_gradient(w, grad_output, input.shape());
                dense_conv_sgd(w, input, grad_output, lr);
                grad_input
            }
        }
    }

    /// Trains for `epochs` passes over a glyph dataset; returns the mean loss of the final
    /// epoch.
    pub fn fit(&mut self, data: &GlyphImages, epochs: usize, lr: f32) -> f32 {
        let mut last = 0.0f32;
        for _ in 0..epochs {
            let mut total = 0.0f32;
            for (img, &label) in data.images.iter().zip(data.labels.iter()) {
                total += self.train_example(img, label, lr);
            }
            last = total / data.len().max(1) as f32;
        }
        last
    }

    /// Top-1 accuracy on a glyph dataset.
    pub fn evaluate(&self, data: &GlyphImages) -> f64 {
        let mut acc = Accuracy::new();
        for (img, &label) in data.images.iter().zip(data.labels.iter()) {
            acc.record(self.predict(img) == label);
        }
        acc.value()
    }
}

/// The inference-only serving form of a [`ConvClassifier`]: every layer is a
/// frozen [`CompressedLinear`] operator.
///
/// Each convolution runs as a batched product of im2col patch rows (one per
/// output position) with the lowered weight operator — the identical
/// `CompressedLinear::matmul` surface FC layers use, so the `ParallelExecutor`
/// shards conv work by output positions with the same bit-for-bit worker-count
/// invariance, and [`FrozenConvNet::quantize`] drops the convolutions onto the
/// 16-bit integer kernels.
pub struct FrozenConvNet {
    /// The two lowered convolution operators, in forward order.
    convs: [Arc<dyn CompressedLinear>; 2],
    geometry: ConvGeometry,
    head: CompressedFc,
    channels: [usize; 3],
    image_size: usize,
    num_classes: usize,
    format: WeightFormat,
}

impl std::fmt::Debug for FrozenConvNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenConvNet")
            .field("channels", &self.channels)
            .field("image_size", &self.image_size)
            .field("num_classes", &self.num_classes)
            .field(
                "conv_labels",
                &[self.convs[0].label(), self.convs[1].label()],
            )
            .finish()
    }
}

impl FrozenConvNet {
    /// The lowered convolution operators, in forward order.
    pub fn conv_ops(&self) -> [&dyn CompressedLinear; 2] {
        [self.convs[0].as_ref(), self.convs[1].as_ref()]
    }

    /// The weight format the model was trained with.
    pub fn format(&self) -> WeightFormat {
        self.format
    }

    /// Number of stored convolution weights.
    pub fn conv_params(&self) -> usize {
        self.convs.iter().map(|c| c.stored_weights()).sum()
    }

    /// Flattened input length ([`BatchModel`] view of an image).
    pub fn input_len(&self) -> usize {
        self.channels[0] * self.image_size * self.image_size
    }

    /// Spatial side length of the input to conv layer `index` (pooling halves
    /// it per stage).
    fn stage_size(&self, index: usize) -> usize {
        self.image_size >> index
    }

    /// One lowered convolution: im2col patches → (optionally sharded) batched
    /// product → activation tensor. Sharding by patch rows re-orders no
    /// floating-point operation, so outputs are bit-for-bit identical for any
    /// worker count.
    fn conv_forward(
        &self,
        index: usize,
        input: &Tensor4,
        exec: Option<&ParallelExecutor>,
    ) -> Result<Tensor4, FormatError> {
        let [_, _, h, w] = input.shape();
        let patches = self.geometry.patches(input);
        let view = BatchView::from_matrix(&patches);
        let product = match exec {
            Some(exec) => exec.matmul(&self.convs[index], &view)?,
            None => self.convs[index].matmul(&view)?,
        };
        self.geometry.assemble(&product, h, w)
    }

    fn forward_to_flat(
        &self,
        image: &Tensor4,
        exec: Option<&ParallelExecutor>,
    ) -> Result<Vec<f32>, FormatError> {
        let z1 = self.conv_forward(0, image, exec)?;
        let p1 = avg_pool2(&map_tensor(&z1, relu));
        let z2 = self.conv_forward(1, &p1, exec)?;
        let p2 = avg_pool2(&map_tensor(&z2, relu));
        Ok(p2.as_slice().to_vec())
    }

    /// Class logits for one image through the sequential lowered path.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] if the image shape does not
    /// match the model configuration.
    pub fn logits(&self, image: &Tensor4) -> Result<Vec<f32>, FormatError> {
        let flat = self.forward_to_flat(image, None)?;
        Ok(self.head.forward(&flat))
    }

    /// Class logits with the conv patch batches sharded across the executor's
    /// worker pool — bit-for-bit identical to [`FrozenConvNet::logits`] for
    /// any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] if the image shape does not
    /// match the model configuration.
    pub fn logits_parallel(
        &self,
        image: &Tensor4,
        exec: &ParallelExecutor,
    ) -> Result<Vec<f32>, FormatError> {
        let flat = self.forward_to_flat(image, Some(exec))?;
        Ok(self.head.forward(&flat))
    }

    /// Predicted class for one image.
    ///
    /// # Panics
    ///
    /// Panics if the image shape does not match the model configuration.
    pub fn predict(&self, image: &Tensor4) -> usize {
        argmax(&self.logits(image).expect("image shape matches the model"))
    }

    /// Top-1 accuracy on a glyph dataset.
    pub fn evaluate(&self, data: &GlyphImages) -> f64 {
        let mut acc = Accuracy::new();
        for (img, &label) in data.images.iter().zip(data.labels.iter()) {
            acc.record(self.predict(img) == label);
        }
        acc.value()
    }

    /// Real multiplications one image costs: each conv charges its operator's
    /// per-patch `mul_count` once per output position, plus the head.
    pub fn mul_count_per_example(&self) -> u64 {
        let mut total = 0u64;
        for (i, conv) in self.convs.iter().enumerate() {
            let side = self.stage_size(i);
            total += conv.mul_count() * self.geometry.positions(side, side) as u64;
        }
        total + self.head.mul_count()
    }

    /// Quantizes the frozen model to the 16-bit fixed-point backend with
    /// per-layer Q-formats calibrated on `calibration` images (the PR 3
    /// machinery: activation ranges observed per layer boundary, weights
    /// wrapped in [`QuantizedLinear`]; the lowered PD conv operator executes
    /// on the column-sparse integer kernel).
    ///
    /// # Panics
    ///
    /// Panics if `calibration` is empty or an image shape does not match the
    /// model configuration.
    pub fn quantize(&self, calibration: &[Tensor4]) -> (FrozenConvNet, QuantizationReport) {
        assert!(
            !calibration.is_empty(),
            "calibration needs at least one image to observe activation ranges"
        );
        // Pass 1: observe the dynamic range entering and leaving each layer.
        let mut input_max = [0.0f32; 3];
        let mut output_max = [0.0f32; 3];
        for image in calibration {
            let mut current = image.clone();
            for i in 0..2 {
                // One im2col per layer: the patch matrix both feeds the range
                // observation and runs the layer forward.
                let [_, _, h, w] = current.shape();
                let patches = self.geometry.patches(&current);
                input_max[i] = input_max[i].max(max_abs(patches.as_slice()));
                let product = self.convs[i]
                    .matmul(&BatchView::from_matrix(&patches))
                    .expect("calibration image shape matches the model");
                let z = self
                    .geometry
                    .assemble(&product, h, w)
                    .expect("product rows equal the output positions");
                output_max[i] = output_max[i].max(max_abs(z.as_slice()));
                current = avg_pool2(&map_tensor(&z, relu));
            }
            let flat = current.as_slice().to_vec();
            input_max[2] = input_max[2].max(max_abs(&flat));
            let logits = self.head.forward(&flat);
            output_max[2] = output_max[2].max(max_abs(&logits));
        }

        // Pass 2: rebuild every operator in fixed point.
        let mut report = QuantizationReport::default();
        let quantize_op = |layer: usize,
                           op: Arc<dyn CompressedLinear>,
                           report: &mut QuantizationReport|
         -> QuantizedLinear {
            let scheme =
                QScheme::calibrate(input_max[layer], op.max_weight_abs(), output_max[layer]);
            let q = QuantizedLinear::from_op(op, scheme);
            report.layers.push(LayerQuantization {
                layer,
                label: q.label(),
                scheme,
                integer_kernel: q.has_integer_kernel(),
            });
            q
        };
        let conv1 = quantize_op(0, Arc::clone(&self.convs[0]), &mut report);
        let conv2 = quantize_op(1, Arc::clone(&self.convs[1]), &mut report);
        let head_q =
            quantize_op(2, self.head.shared_weights(), &mut report).with_bias(self.head.bias());

        let model = FrozenConvNet {
            convs: [Arc::new(conv1), Arc::new(conv2)],
            geometry: self.geometry,
            head: CompressedFc::new(Box::new(head_q)),
            channels: self.channels,
            image_size: self.image_size,
            num_classes: self.num_classes,
            format: self.format,
        };
        (model, report)
    }

    /// Serialises the frozen conv net into a model snapshot: a `"graph"`
    /// section (channel plan, image size, class count, training format and
    /// the head bias length implied by its tensor), the two lowered conv
    /// operators as compressed tensor records, and the head weights + bias.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`](permdnn_core::snapshot::SnapshotError) if an
    /// operator has no snapshot codec.
    pub fn save(&self) -> Result<Vec<u8>, permdnn_core::snapshot::SnapshotError> {
        use permdnn_core::snapshot::{encode_tensor, ByteWriter, SnapshotBuilder};
        let mut graph = ByteWriter::new();
        for &c in &self.channels {
            graph.dim(c);
        }
        graph.dim(self.image_size);
        graph.dim(self.num_classes);
        crate::snapshot::write_weight_format(self.format, &mut graph);
        let mut b = SnapshotBuilder::new(permdnn_core::snapshot::KIND_CONV);
        b.section("graph", graph.into_vec());
        b.section("conv0", encode_tensor(self.convs[0].as_ref())?);
        b.section("conv1", encode_tensor(self.convs[1].as_ref())?);
        b.section("head.weights", encode_tensor(self.head.weights())?);
        b.section("head.bias", crate::snapshot::write_bias(self.head.bias()));
        Ok(b.finish())
    }

    /// Loads a frozen conv net snapshot written by [`FrozenConvNet::save`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`SnapshotError`](permdnn_core::snapshot::SnapshotError)
    /// for any corruption or a geometry that does not chain (conv widths,
    /// pooling arithmetic, head input) — never panics on hostile bytes.
    pub fn load(bytes: &[u8]) -> Result<FrozenConvNet, permdnn_core::snapshot::SnapshotError> {
        let snap = permdnn_core::snapshot::Snapshot::parse(bytes)?;
        if snap.kind() != permdnn_core::snapshot::KIND_CONV {
            return Err(permdnn_core::snapshot::SnapshotError::Malformed {
                context: "conv snapshot",
                reason: format!("kind {} is not a conv net", snap.kind()),
            });
        }
        Self::load_snapshot(&snap)
    }

    /// [`FrozenConvNet::load`] over an already-parsed container (shared with
    /// the batch-model dispatcher).
    pub(crate) fn load_snapshot(
        snap: &permdnn_core::snapshot::Snapshot,
    ) -> Result<FrozenConvNet, permdnn_core::snapshot::SnapshotError> {
        use permdnn_core::snapshot::{ByteReader, SnapshotError};
        let codec = crate::snapshot::codec();
        let mut g = ByteReader::new(snap.section("graph")?);
        let channels = [
            g.dim("conv channels")?,
            g.dim("conv channels")?,
            g.dim("conv channels")?,
        ];
        let image_size = g.dim("conv image size")?;
        let num_classes = g.dim("conv class count")?;
        let format = crate::snapshot::read_weight_format(&mut g)?;
        g.expect_end("conv graph")?;

        let geometry = ConvGeometry::new(3, 3, 1, 1);
        let conv0 = permdnn_core::snapshot::decode_record(snap.section("conv0")?, &codec)?;
        let conv1 = permdnn_core::snapshot::decode_record(snap.section("conv1")?, &codec)?;
        for (i, conv) in [&conv0, &conv1].into_iter().enumerate() {
            let (c_in, c_out) = (channels[i], channels[i + 1]);
            if conv.in_dim() != geometry.patch_len(c_in) || conv.out_dim() != c_out {
                return Err(SnapshotError::Malformed {
                    context: "conv operator shape",
                    reason: format!(
                        "conv{i} is {}x{}, expected {}x{}",
                        conv.out_dim(),
                        conv.in_dim(),
                        c_out,
                        geometry.patch_len(c_in)
                    ),
                });
            }
        }
        // Two stride-1 convs each followed by 2x2 pooling: the head consumes
        // channels[2] * (image_size/4)^2 values. All three factors come from
        // the (attacker-controlled) graph section, so multiply checked.
        let pooled = image_size / 2 / 2;
        let head_in = channels[2]
            .checked_mul(pooled)
            .and_then(|n| n.checked_mul(pooled))
            .ok_or(SnapshotError::Malformed {
                context: "conv head shape",
                reason: "head input size overflows".to_string(),
            })?;
        let head_w = permdnn_core::snapshot::decode_record(snap.section("head.weights")?, &codec)?;
        if head_w.in_dim() != head_in || head_w.out_dim() != num_classes {
            return Err(SnapshotError::Malformed {
                context: "conv head shape",
                reason: format!(
                    "head is {}x{}, expected {}x{}",
                    head_w.out_dim(),
                    head_w.in_dim(),
                    num_classes,
                    head_in
                ),
            });
        }
        let head_bias = crate::snapshot::read_bias(snap.section("head.bias")?, num_classes)?;
        Ok(FrozenConvNet {
            convs: [conv0, conv1],
            geometry,
            head: CompressedFc::from_shared(head_w).with_bias(&head_bias),
            channels,
            image_size,
            num_classes,
            format,
        })
    }
}

/// A frozen conv net is servable by the batching runtime: requests carry
/// flattened `[c_in, h, w]` images (row-major, the `Tensor4` layout), and each
/// image's conv patch batches run on the executor's worker pool.
impl BatchModel for FrozenConvNet {
    fn in_dim(&self) -> usize {
        self.input_len()
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
    ) -> Result<pd_tensor::Matrix, FormatError> {
        permdnn_core::format::check_dim("conv forward_batch", self.input_len(), xs.dim())?;
        let mut out = pd_tensor::Matrix::zeros(xs.batch(), self.num_classes);
        let shape = [1, self.channels[0], self.image_size, self.image_size];
        for i in 0..xs.batch() {
            let image = Tensor4::from_vec(shape, xs.row(i).to_vec())
                .expect("length checked against the model input");
            out.row_mut(i)
                .copy_from_slice(&self.logits_parallel(&image, exec)?);
        }
        Ok(out)
    }
}

fn map_tensor(t: &Tensor4, f: impl Fn(f32) -> f32) -> Tensor4 {
    Tensor4::from_vec(t.shape(), t.as_slice().iter().map(|&v| f(v)).collect()).expect("same length")
}

fn backprop_relu(grad: &Tensor4, pre_activation: &Tensor4) -> Tensor4 {
    Tensor4::from_vec(
        grad.shape(),
        grad.as_slice()
            .iter()
            .zip(pre_activation.as_slice().iter())
            .map(|(&g, &z)| g * relu_grad(z))
            .collect(),
    )
    .expect("same length")
}

/// 2×2 average pooling with stride 2 (truncating odd edges).
pub fn avg_pool2(input: &Tensor4) -> Tensor4 {
    let [b, c, h, w] = input.shape();
    let oh = h / 2;
    let ow = w / 2;
    Tensor4::from_fn([b, c, oh, ow], |(bi, ci, y, x)| {
        let mut sum = 0.0;
        for dy in 0..2 {
            for dx in 0..2 {
                sum += input[[bi, ci, y * 2 + dy, x * 2 + dx]];
            }
        }
        sum / 4.0
    })
}

/// Backward of 2×2 average pooling: spreads each output gradient equally over its window.
pub fn avg_pool2_backward(grad_output: &Tensor4, input_shape: [usize; 4]) -> Tensor4 {
    let [_, _, oh, ow] = grad_output.shape();
    let mut grad = Tensor4::zeros(input_shape);
    for b in 0..input_shape[0] {
        for c in 0..input_shape[1] {
            for y in 0..oh {
                for x in 0..ow {
                    let g = grad_output[[b, c, y, x]] / 4.0;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            grad[[b, c, y * 2 + dy, x * 2 + dx]] += g;
                        }
                    }
                }
            }
        }
    }
    grad
}

fn dense_conv_input_gradient(
    weights: &Tensor4,
    grad_output: &Tensor4,
    input_shape: [usize; 4],
) -> Tensor4 {
    let [c_out, c_in, kh, kw] = weights.shape();
    let [_, _, h, w] = input_shape;
    let [_, _, out_h, out_w] = grad_output.shape();
    let mut grad = Tensor4::zeros(input_shape);
    for o in 0..c_out {
        for i in 0..c_in {
            for oy in 0..out_h {
                for ox in 0..out_w {
                    let g = grad_output[[0, o, oy, ox]];
                    if g == 0.0 {
                        continue;
                    }
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let iy = (oy + ky) as isize - 1;
                            let ix = (ox + kx) as isize - 1;
                            if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                grad[[0, i, iy as usize, ix as usize]] +=
                                    weights[[o, i, ky, kx]] * g;
                            }
                        }
                    }
                }
            }
        }
    }
    grad
}

fn dense_conv_sgd(weights: &mut Tensor4, input: &Tensor4, grad_output: &Tensor4, lr: f32) {
    let [c_out, c_in, kh, kw] = weights.shape();
    let [_, _, h, w] = input.shape();
    let [_, _, out_h, out_w] = grad_output.shape();
    debug_assert_eq!(out_h, conv_out_dim(h, kh, 1, 1));
    debug_assert_eq!(out_w, conv_out_dim(w, kw, 1, 1));
    for o in 0..c_out {
        for i in 0..c_in {
            for ky in 0..kh {
                for kx in 0..kw {
                    let mut acc = 0.0f32;
                    for oy in 0..out_h {
                        for ox in 0..out_w {
                            let iy = (oy + ky) as isize - 1;
                            let ix = (ox + kx) as isize - 1;
                            if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                acc += input[[0, i, iy as usize, ix as usize]]
                                    * grad_output[[0, o, oy, ox]];
                            }
                        }
                    }
                    weights[[o, i, ky, kx]] -= lr * acc;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_tensor::init::seeded_rng;

    fn small_glyphs(seed: u64, samples: usize) -> (GlyphImages, GlyphImages) {
        GlyphImages::generate(&mut seeded_rng(seed), samples, 4, 12, 1, 0.1).split(0.8)
    }

    #[test]
    fn avg_pool_and_backward_shapes() {
        let t = Tensor4::from_fn([1, 2, 4, 4], |(_, c, y, x)| (c * 16 + y * 4 + x) as f32);
        let p = avg_pool2(&t);
        assert_eq!(p.shape(), [1, 2, 2, 2]);
        // First window of channel 0: (0+1+4+5)/4 = 2.5
        assert!((p[[0, 0, 0, 0]] - 2.5).abs() < 1e-6);
        let g = avg_pool2_backward(&p, [1, 2, 4, 4]);
        assert_eq!(g.shape(), [1, 2, 4, 4]);
        assert!((g[[0, 0, 0, 0]] - 2.5 / 4.0).abs() < 1e-6);
    }

    #[test]
    fn untrained_model_is_near_chance() {
        let (_, test) = small_glyphs(1, 80);
        let model =
            ConvClassifier::new(12, 1, [4, 8], 4, WeightFormat::Dense, &mut seeded_rng(2)).unwrap();
        let acc = model.evaluate(&test);
        assert!(
            acc < 0.7,
            "untrained accuracy should be near chance, got {acc}"
        );
    }

    #[test]
    fn dense_cnn_learns_glyphs() {
        let (train, test) = small_glyphs(3, 160);
        let mut model =
            ConvClassifier::new(12, 1, [4, 8], 4, WeightFormat::Dense, &mut seeded_rng(4)).unwrap();
        model.fit(&train, 6, 0.05);
        let acc = model.evaluate(&test);
        assert!(
            acc > 0.7,
            "dense CNN should learn the glyph task, got {acc}"
        );
    }

    #[test]
    fn pd_cnn_learns_glyphs_with_fewer_weights() {
        let (train, test) = small_glyphs(5, 160);
        let mut dense =
            ConvClassifier::new(12, 1, [4, 8], 4, WeightFormat::Dense, &mut seeded_rng(6)).unwrap();
        let mut pd = ConvClassifier::new(
            12,
            1,
            [4, 8],
            4,
            WeightFormat::PermutedDiagonal { p: 2 },
            &mut seeded_rng(6),
        )
        .unwrap();
        assert!(pd.conv_params() < dense.conv_params());
        dense.fit(&train, 6, 0.05);
        pd.fit(&train, 6, 0.05);
        let dense_acc = dense.evaluate(&test);
        let pd_acc = pd.evaluate(&test);
        assert!(pd_acc > 0.65, "PD CNN accuracy too low: {pd_acc}");
        assert!(
            dense_acc - pd_acc < 0.2,
            "PD CNN should be close to dense ({dense_acc} vs {pd_acc})"
        );
    }

    #[test]
    fn dense_to_pd_projection_then_finetune() {
        let (train, test) = small_glyphs(7, 120);
        let mut dense =
            ConvClassifier::new(12, 1, [4, 4], 4, WeightFormat::Dense, &mut seeded_rng(8)).unwrap();
        dense.fit(&train, 5, 0.05);
        let dense_acc = dense.evaluate(&test);
        let mut pd = dense.to_permuted_diagonal(2);
        pd.fit(&train, 3, 0.02);
        let pd_acc = pd.evaluate(&test);
        assert!(
            dense_acc - pd_acc < 0.3,
            "projected + fine-tuned PD CNN should retain most accuracy ({dense_acc} vs {pd_acc})"
        );
        assert!(matches!(
            pd.format(),
            WeightFormat::PermutedDiagonal { p: 2 }
        ));
    }

    #[test]
    #[should_panic]
    fn double_projection_rejected() {
        let model = ConvClassifier::new(
            12,
            1,
            [4, 4],
            4,
            WeightFormat::PermutedDiagonal { p: 2 },
            &mut seeded_rng(9),
        )
        .unwrap();
        let _ = model.to_permuted_diagonal(2);
    }

    #[test]
    fn unsupported_conv_formats_are_typed_errors() {
        for format in [
            WeightFormat::Circulant { k: 4 },
            WeightFormat::UnstructuredSparse { p: 4 },
            WeightFormat::SharedPermutedDiagonal { p: 4, tag_bits: 4 },
        ] {
            let err = ConvClassifier::new(12, 1, [4, 4], 4, format, &mut seeded_rng(10))
                .expect_err("format without a conv training rule must be rejected");
            assert!(
                matches!(err, FormatError::Format { format: "conv", .. }),
                "{}: {err}",
                format.label()
            );
        }
    }

    #[test]
    fn frozen_conv_net_matches_training_forward() {
        let (train, test) = small_glyphs(11, 120);
        for format in [WeightFormat::Dense, WeightFormat::PermutedDiagonal { p: 2 }] {
            let mut model =
                ConvClassifier::new(12, 1, [4, 8], 4, format, &mut seeded_rng(12)).unwrap();
            model.fit(&train, 2, 0.05);
            let frozen = model.freeze();
            assert_eq!(frozen.conv_params(), model.conv_params());
            for img in test.images.iter().take(12) {
                let trained = model.logits(img);
                let served = frozen.logits(img).unwrap();
                for (a, b) in trained.iter().zip(served.iter()) {
                    assert!((a - b).abs() < 1e-4, "{}: {a} vs {b}", format.label());
                }
            }
        }
    }

    #[test]
    fn frozen_conv_parallel_is_bit_identical_per_worker_count() {
        let (_, test) = small_glyphs(13, 40);
        let model = ConvClassifier::new(
            12,
            1,
            [4, 8],
            4,
            WeightFormat::PermutedDiagonal { p: 2 },
            &mut seeded_rng(14),
        )
        .unwrap();
        let frozen = model.freeze();
        let img = &test.images[0];
        let sequential = frozen.logits(img).unwrap();
        for workers in [1, 2, 3, 7] {
            let exec = ParallelExecutor::new(workers);
            let parallel = frozen.logits_parallel(img, &exec).unwrap();
            assert_eq!(parallel, sequential, "workers = {workers}");
        }
    }

    #[test]
    fn quantized_frozen_conv_tracks_f32_accuracy() {
        let (train, test) = small_glyphs(15, 160);
        let mut model = ConvClassifier::new(
            12,
            1,
            [4, 8],
            4,
            WeightFormat::PermutedDiagonal { p: 2 },
            &mut seeded_rng(16),
        )
        .unwrap();
        model.fit(&train, 4, 0.05);
        let frozen = model.freeze();
        let (quantized, report) = frozen.quantize(&train.images);
        assert_eq!(report.layers.len(), 3, "two convs + head");
        assert!(
            report.fully_integer(),
            "PD conv and dense head have kernels"
        );
        let f32_acc = frozen.evaluate(&test);
        let q_acc = quantized.evaluate(&test);
        assert!(
            (f32_acc - q_acc).abs() <= 0.05,
            "accuracy drifted: f32 {f32_acc} vs q16 {q_acc}"
        );
    }

    #[test]
    fn frozen_conv_serves_as_a_batch_model() {
        let (_, test) = small_glyphs(17, 40);
        let model = ConvClassifier::new(12, 1, [4, 8], 4, WeightFormat::Dense, &mut seeded_rng(18))
            .unwrap();
        let frozen = model.freeze();
        assert_eq!(BatchModel::in_dim(&frozen), 144);
        assert!(frozen.mul_count_per_example() > 0);
        let mut flat = Vec::new();
        for img in test.images.iter().take(3) {
            flat.extend_from_slice(img.as_slice());
        }
        let xs = BatchView::new(&flat, 3, 144).unwrap();
        let exec = ParallelExecutor::new(2);
        let out = frozen.forward_batch(&xs, &exec).unwrap();
        for (i, img) in test.images.iter().take(3).enumerate() {
            assert_eq!(out.row(i), &frozen.logits(img).unwrap()[..], "row {i}");
        }
    }
}

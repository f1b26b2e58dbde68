//! Model snapshots: durable on-disk artifacts for every frozen model in the
//! workspace, built on the container and tensor codec of
//! [`permdnn_core::snapshot`].
//!
//! This module owns the *workspace-wide* codec ([`codec`]): `permdnn-core`
//! registers the formats it implements (dense, permuted-diagonal, quantized,
//! lowered PD conv), and this crate — which depends on every format crate —
//! adds circulant, CSC, EIE and shared-codebook PD. Model `save`/`load`
//! methods live next to their types ([`crate::MlpClassifier::save`],
//! [`crate::FrozenConvNet::save`], [`crate::FrozenSeq2Seq::save`]); the
//! helpers here encode the shared vocabulary (weight-format tags, bias
//! vectors, layer chains) and [`load_batch_model`] turns snapshot bytes back
//! into something the serving runtime can route requests to.
//!
//! Only *frozen* networks snapshot: a deployment artifact is immutable weight
//! data, so trainable layers (`Dense`, `PdDense`, `CirculantDense`) must be
//! frozen/quantized first. Every tensor is stored in its compressed
//! representation — a permuted-diagonal layer costs `stored_weights × 4`
//! bytes plus its permutation table on disk, never `rows × cols × 4`.

use std::sync::Arc;

use permdnn_core::format::CompressedLinear;
use permdnn_core::snapshot::{
    ByteReader, ByteWriter, SnapshotCodec, SnapshotError, FORMAT_CIRCULANT, FORMAT_CSC, FORMAT_EIE,
    FORMAT_SHARED_PD,
};
use permdnn_runtime::{
    BatchModel, ModelLoader, PagedConfig, PagedModel, PagedModelLoader, PagedStage,
};

use crate::activations::{relu_in_place, tanh_in_place};
use crate::layers::WeightFormat;
use crate::{FrozenConvNet, MlpClassifier};

/// The full workspace tensor codec: core's formats plus circulant, CSC, EIE
/// and shared-codebook PD. Every model loader in this crate decodes through
/// it, so a snapshot written by any frozen model round-trips regardless of
/// which formats it mixes.
pub fn codec() -> SnapshotCodec {
    let mut codec = SnapshotCodec::new();
    codec.register(FORMAT_CIRCULANT, permdnn_circulant::format::decode_snapshot);
    codec.register(FORMAT_CSC, permdnn_prune::format::decode_csc_snapshot);
    codec.register(FORMAT_EIE, permdnn_prune::format::decode_eie_snapshot);
    codec.register(FORMAT_SHARED_PD, permdnn_quant::shared_pd::decode_snapshot);
    codec
}

/// Writes a [`WeightFormat`] tag (`u8` variant + two `u32` parameters).
pub(crate) fn write_weight_format(format: WeightFormat, w: &mut ByteWriter) {
    let (tag, a, b) = match format {
        WeightFormat::Dense => (0u8, 0u32, 0u32),
        WeightFormat::PermutedDiagonal { p } => (1, p as u32, 0),
        WeightFormat::Circulant { k } => (2, k as u32, 0),
        WeightFormat::UnstructuredSparse { p } => (3, p as u32, 0),
        WeightFormat::SharedPermutedDiagonal { p, tag_bits } => (4, p as u32, tag_bits),
        WeightFormat::EieEncoded { p } => (5, p as u32, 0),
    };
    w.u8(tag);
    w.u32(a);
    w.u32(b);
}

/// Reads a [`WeightFormat`] tag written by [`write_weight_format`].
pub(crate) fn read_weight_format(r: &mut ByteReader<'_>) -> Result<WeightFormat, SnapshotError> {
    let tag = r.u8("weight format tag")?;
    let a = r.u32("weight format parameter")? as usize;
    let b = r.u32("weight format parameter")?;
    match tag {
        0 => Ok(WeightFormat::Dense),
        1 => Ok(WeightFormat::PermutedDiagonal { p: a }),
        2 => Ok(WeightFormat::Circulant { k: a }),
        3 => Ok(WeightFormat::UnstructuredSparse { p: a }),
        4 => Ok(WeightFormat::SharedPermutedDiagonal { p: a, tag_bits: b }),
        5 => Ok(WeightFormat::EieEncoded { p: a }),
        other => Err(SnapshotError::Malformed {
            context: "weight format tag",
            reason: format!("unknown variant {other}"),
        }),
    }
}

/// Encodes a bias vector section: `u32` length + `f32` values.
pub(crate) fn write_bias(bias: &[f32]) -> Vec<u8> {
    let mut out = ByteWriter::new();
    out.dim(bias.len());
    out.f32_slice(bias);
    out.into_vec()
}

/// Decodes a bias section written by [`write_bias`], checking the declared
/// length against `expected` (the owning operator's output width).
pub(crate) fn read_bias(payload: &[u8], expected: usize) -> Result<Vec<f32>, SnapshotError> {
    let mut r = ByteReader::new(payload);
    let len = r.dim("bias length")?;
    if len != expected {
        return Err(SnapshotError::Malformed {
            context: "bias length",
            reason: format!("{len} entries for an output width of {expected}"),
        });
    }
    let bias = r.f32_vec(len, "bias values")?;
    r.expect_end("bias section")?;
    Ok(bias)
}

/// Decodes one tensor section into an operator, requiring the section to be
/// exactly one record.
pub(crate) fn read_tensor_section(
    payload: &[u8],
    codec: &SnapshotCodec,
) -> Result<Arc<dyn CompressedLinear>, SnapshotError> {
    let mut r = ByteReader::new(payload);
    let op = codec.decode_tensor(&mut r)?;
    r.expect_end("tensor section")?;
    Ok(op)
}

/// One layer of a frozen MLP's `"graph"` section: a linear layer (the
/// loader's key `K` for its weights, the decoded operator, and its bias), or
/// a ReLU or tanh of some width.
pub(crate) enum GraphLayer<K> {
    Fc(K, Arc<dyn CompressedLinear>, Vec<f32>),
    Relu(usize),
    Tanh(usize),
}

/// Reads a frozen MLP's `"graph"` section, the one reader behind whole and
/// paged loads, and checks its chain: each layer against the width before
/// it, each bias against its layer's output width, the last width against
/// the class count. `weights(i)` decodes layer `i`'s weights under the
/// loader's key and `bias(i)` returns its bias section; each layer goes to
/// `layer` as soon as it is read, so a paged load never holds two decoded
/// blocks. Returns the input width, class count and hidden format.
pub(crate) fn read_mlp_graph<K>(
    graph: &[u8],
    mut weights: impl FnMut(usize) -> Result<(K, Arc<dyn CompressedLinear>), SnapshotError>,
    mut bias: impl FnMut(usize) -> Result<Vec<u8>, SnapshotError>,
    mut layer: impl FnMut(GraphLayer<K>),
) -> Result<(usize, usize, WeightFormat), SnapshotError> {
    let chain = |reason| SnapshotError::Malformed {
        context: "mlp layer chain",
        reason,
    };
    let mut g = ByteReader::new(graph);
    let input_dim = g.dim("mlp input dim")?;
    let num_classes = g.dim("mlp class count")?;
    let hidden_format = read_weight_format(&mut g)?;
    let n_layers = g.dim("mlp layer count")?;
    let mut current = input_dim;
    for i in 0..n_layers {
        layer(match g.u8("mlp layer kind")? {
            0 => {
                let (key, op) = weights(i)?;
                if op.in_dim() != current {
                    return Err(chain(format!(
                        "layer {i} consumes {} values but receives {current}",
                        op.in_dim()
                    )));
                }
                current = op.out_dim();
                GraphLayer::Fc(key, op, read_bias(&bias(i)?, current)?)
            }
            kind @ (1 | 2) => {
                let dim = g.dim("mlp activation dim")?;
                if dim != current {
                    return Err(chain(format!(
                        "activation {i} has width {dim}, expected {current}"
                    )));
                }
                if kind == 1 {
                    GraphLayer::Relu(dim)
                } else {
                    GraphLayer::Tanh(dim)
                }
            }
            other => {
                return Err(SnapshotError::Malformed {
                    context: "mlp layer kind",
                    reason: format!("unknown kind {other}"),
                })
            }
        });
    }
    g.expect_end("mlp graph")?;
    if current != num_classes {
        return Err(chain(format!(
            "network emits {current} values for {num_classes} classes"
        )));
    }
    Ok((input_dim, num_classes, hidden_format))
}

/// Loads any servable model snapshot — a frozen MLP ([`KIND_MLP`]) or frozen
/// conv net ([`KIND_CONV`]) — as a boxed [`BatchModel`] ready for the serving
/// runtime. This is the loader `permdnn_runtime::ModelRegistry` routes
/// through.
///
/// [`KIND_MLP`]: permdnn_core::snapshot::KIND_MLP
/// [`KIND_CONV`]: permdnn_core::snapshot::KIND_CONV
///
/// # Errors
///
/// Returns a typed [`SnapshotError`] for corrupted bytes or a model kind with
/// no batch-serving surface (seq2seq models translate token sequences — load
/// them with [`crate::FrozenSeq2Seq::load`] instead).
pub fn load_batch_model(bytes: &[u8]) -> Result<Arc<dyn BatchModel>, SnapshotError> {
    let snap = permdnn_core::snapshot::Snapshot::parse(bytes)?;
    match snap.kind() {
        permdnn_core::snapshot::KIND_MLP => {
            Ok(Arc::new(MlpClassifier::load_snapshot(&snap)?) as Arc<dyn BatchModel>)
        }
        permdnn_core::snapshot::KIND_CONV => {
            Ok(Arc::new(FrozenConvNet::load_snapshot(&snap)?) as Arc<dyn BatchModel>)
        }
        other => Err(SnapshotError::Malformed {
            context: "batch model snapshot",
            reason: format!("kind {other} is not batch-servable"),
        }),
    }
}

/// A [`ModelLoader`] wrapping [`load_batch_model`] — plug it straight into
/// `permdnn_runtime::ModelRegistry::new`.
pub fn batch_model_loader() -> ModelLoader {
    Box::new(load_batch_model)
}

/// Builds a [`PagedModel`] skeleton from a block-streamed
/// ([`KIND_BLOCKED`](permdnn_core::snapshot::KIND_BLOCKED)) snapshot: the
/// metadata sections (layer graph, biases) load eagerly, and each weight
/// block becomes a vacant slot the serving registry faults in on demand.
/// Supports the blocked forms of [`KIND_MLP`] (layer chain, per-layer
/// `"layerN.weights"` blocks with biases) and [`KIND_TENSOR`] (one
/// `"tensor"` block served bare — no bias step, matching
/// `SingleLayerModel`'s arithmetic exactly).
///
/// Every weight block *is* decoded once here — checked against its stored
/// CRC and decoded in place, via
/// [`load_block`](permdnn_core::snapshot::load_block) — to validate its
/// shape and record its per-example cost, then dropped; only the skeleton
/// stays resident.
///
/// [`KIND_MLP`]: permdnn_core::snapshot::KIND_MLP
/// [`KIND_TENSOR`]: permdnn_core::snapshot::KIND_TENSOR
///
/// # Errors
///
/// Returns a typed [`SnapshotError`] for corrupted bytes, a broken layer
/// chain, or an inner kind with no paged-serving surface.
pub fn load_paged_model(bytes: &[u8]) -> Result<PagedModel, SnapshotError> {
    use permdnn_core::snapshot::{
        load_block, read_block_index, read_blocked_section, KIND_MLP, KIND_TENSOR,
    };
    let index = read_block_index(bytes)?;
    let codec = codec();
    // Locates a weight block and decodes it once, to validate it.
    let block = |name: String| match index.position(&name) {
        Some(k) => Ok((k, load_block(bytes, k, &codec)?)),
        None => Err(SnapshotError::MissingSection { name }),
    };
    let linear = |k: usize, op: Arc<dyn CompressedLinear>, bias| {
        let (n, m, muls) = (op.in_dim(), op.out_dim(), op.mul_count());
        PagedStage::linear(k, index.blocks[k].len, n, m, muls, bias)
    };
    match index.inner_kind {
        KIND_TENSOR => {
            let (k, op) = block("tensor".to_string())?;
            PagedModel::new(vec![linear(k, op, Vec::new())])
        }
        KIND_MLP => {
            let mut stages = Vec::new();
            read_mlp_graph(
                &read_blocked_section(bytes, "graph")?,
                |i| block(format!("layer{i}.weights")),
                |i| read_blocked_section(bytes, &format!("layer{i}.bias")),
                |layer| {
                    stages.push(match layer {
                        GraphLayer::Fc(k, op, bias) => linear(k, op, bias),
                        GraphLayer::Relu(dim) => PagedStage::activation(dim, relu_in_place),
                        GraphLayer::Tanh(dim) => PagedStage::activation(dim, tanh_in_place),
                    })
                },
            )?;
            PagedModel::new(stages)
        }
        other => Err(SnapshotError::Malformed {
            context: "paged model snapshot",
            reason: format!("inner kind {other} has no paged-serving surface"),
        }),
    }
}

/// A [`PagedModelLoader`] wrapping [`load_paged_model`].
pub fn paged_model_loader() -> PagedModelLoader {
    Box::new(load_paged_model)
}

/// The workspace-standard [`PagedConfig`]: [`paged_model_loader`] for
/// skeletons, the full workspace [`codec`] for block decodes, and the
/// default [`PagingModel`](permdnn_runtime::PagingModel) tick costs — plug
/// it straight into `permdnn_runtime::ModelRegistry::new_paged`.
pub fn paged_config() -> PagedConfig {
    PagedConfig {
        loader: paged_model_loader(),
        codec: codec(),
        paging: permdnn_runtime::PagingModel::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_format_tags_round_trip() {
        for format in [
            WeightFormat::Dense,
            WeightFormat::PermutedDiagonal { p: 8 },
            WeightFormat::Circulant { k: 4 },
            WeightFormat::UnstructuredSparse { p: 2 },
            WeightFormat::SharedPermutedDiagonal { p: 4, tag_bits: 4 },
            WeightFormat::EieEncoded { p: 4 },
        ] {
            let mut w = ByteWriter::new();
            write_weight_format(format, &mut w);
            let bytes = w.into_vec();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(read_weight_format(&mut r).unwrap(), format);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn codec_registers_every_workspace_format() {
        use permdnn_core::snapshot::*;
        assert_eq!(
            codec().formats(),
            vec![
                FORMAT_DENSE,
                FORMAT_PERMUTED_DIAGONAL,
                FORMAT_CIRCULANT,
                FORMAT_CSC,
                FORMAT_EIE,
                FORMAT_SHARED_PD,
                FORMAT_QUANTIZED,
                FORMAT_PD_CONV,
            ]
        );

        // One operator of every registered format, paged as a blocked bare
        // tensor: the fault path (`load_block`, decoded in place) rebuilds
        // exactly the operator that re-framing the block and loading it does.
        use permdnn_core::qlinear::{QScheme, QuantizedLinear};
        use permdnn_core::{BlockPermDiagMatrix, BlockPermDiagTensor4, PermutationIndexing};
        use permdnn_prune::eie_format::{uniform_codebook, EieEncodedMatrix};
        let rng = &mut pd_tensor::init::seeded_rng(0xB10C);
        let dense = pd_tensor::init::xavier_uniform(rng, 16, 16);
        let pd = BlockPermDiagMatrix::random(16, 16, 4, rng);
        let pruned = permdnn_prune::magnitude_prune(&dense, 0.25).pruned;
        let codebook = uniform_codebook(4, pruned.max_abs().max(1e-6));
        let conv = BlockPermDiagTensor4::random(8, 4, 3, 3, 2, PermutationIndexing::Natural, rng);
        let ops: Vec<Arc<dyn CompressedLinear>> = vec![
            Arc::new(dense),
            Arc::new(pd.clone()),
            Arc::new(permdnn_circulant::BlockCirculantMatrix::random(
                16, 16, 4, rng,
            )),
            Arc::new(permdnn_prune::CscMatrix::from_dense(&pruned)),
            Arc::new(EieEncodedMatrix::encode(&pruned, &codebook, 4, 4)),
            Arc::new(permdnn_quant::SharedWeightPdMatrix::quantize_4bit(&pd, rng)),
            Arc::new(QuantizedLinear::from_op(
                Arc::new(pd.clone()),
                QScheme::new(12, 12, 11),
            )),
            Arc::new(permdnn_core::PdConvMatrix::new(conv)),
        ];
        let bits = |m: pd_tensor::Matrix| -> Vec<u32> {
            m.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        let mut paged_formats = Vec::new();
        for op in ops {
            let blocked = block_stream_snapshot(&save_tensor(op.as_ref()).unwrap()).unwrap();
            paged_formats.push(read_block_index(&blocked).unwrap().blocks[0].kind);
            let faulted = load_block(&blocked, 0, &codec()).unwrap();
            let reframed = load_tensor(&extract_block(&blocked, 0).unwrap(), &codec()).unwrap();
            assert_eq!(
                bits(faulted.to_dense()),
                bits(reframed.to_dense()),
                "{}",
                op.label()
            );
            assert_eq!(faulted.label(), reframed.label());
        }
        paged_formats.sort_unstable();
        assert_eq!(paged_formats, codec().formats(), "every format is covered");
    }

    #[test]
    fn bias_length_mismatch_is_a_typed_error() {
        let payload = write_bias(&[1.0, 2.0]);
        assert_eq!(read_bias(&payload, 2).unwrap(), vec![1.0, 2.0]);
        assert!(matches!(
            read_bias(&payload, 3),
            Err(SnapshotError::Malformed { .. })
        ));
    }
}

//! The stage loop and layer-granular model paging.
//!
//! [`run_stages`] is the one batched forward of a frozen MLP, whole-loaded
//! (`permdnn_nn::MlpClassifier`) or paged ([`PagedModel`]).
//!
//! A [`PagedModel`] is a *skeleton*: the full layer chain (dimensions, bias
//! vectors, activation functions) loaded eagerly from a
//! [`KIND_BLOCKED`](permdnn_core::snapshot::KIND_BLOCKED) container's
//! metadata sections, with one vacant weight **slot** per linear stage. The
//! registry faults blocks into slots (decoding exactly one block's bytes per
//! fault, via [`load_block`](permdnn_core::snapshot::load_block)) and
//! evicts cold slots to stay under its byte budget.
//! [`PagedModel::forward_into`] runs the same stage loop with a hook that
//! faults each stage just before it runs, so paged outputs are bit-identical
//! to whole-loaded outputs — only the modeled ticks change, charged by the
//! [`PagingModel`] the way pipeline hops charge `link_ticks`.

use std::sync::{Arc, RwLock};

use pd_tensor::Matrix;
use permdnn_core::format::{BatchView, CompressedLinear, FormatError};
use permdnn_core::snapshot::{SnapshotCodec, SnapshotError};

use crate::executor::{lock, ParallelExecutor};

/// Rebuilds a [`PagedModel`] skeleton from block-streamed snapshot bytes
/// (metadata sections only — no block payload is decoded for keeps, though a
/// loader may decode blocks transiently to validate shapes). Injected into
/// [`ModelRegistry::new_paged`](crate::registry::ModelRegistry::new_paged);
/// `permdnn_nn::snapshot::paged_model_loader` is the workspace's standard
/// implementation.
pub type PagedModelLoader = Box<dyn Fn(&[u8]) -> Result<PagedModel, SnapshotError> + Send + Sync>;

/// Everything a registry needs to page: the skeleton loader, the tensor
/// codec blocks decode through on fault, and the tick cost model.
pub struct PagedConfig {
    /// Builds skeletons from blocked snapshots.
    pub loader: PagedModelLoader,
    /// Decodes one faulted block into its operator.
    pub codec: SnapshotCodec,
    /// Converts faulted bytes into engine ticks.
    pub paging: PagingModel,
}

impl std::fmt::Debug for PagedConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedConfig")
            .field("codec", &self.codec)
            .field("paging", &self.paging)
            .finish()
    }
}

/// The modeled cost of paging a block in from backing store, in the same
/// deterministic tick currency as [`ServiceModel`](crate::serve::ServiceModel)
/// execution and cluster `link_ticks`: a fixed per-fault overhead plus a
/// bandwidth term. Demand faults stall the engine before a batch executes;
/// prefetched faults overlap the gap until the next batch's start and only
/// charge what the gap cannot hide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagingModel {
    /// Fixed ticks per fault (request setup, index seek).
    pub fault_overhead_ticks: u64,
    /// Bytes the backing store streams per tick (NVMe-class by default).
    pub bytes_per_tick: u64,
}

impl Default for PagingModel {
    fn default() -> Self {
        PagingModel {
            fault_overhead_ticks: 5,
            bytes_per_tick: 4096,
        }
    }
}

impl PagingModel {
    /// Ticks one fault of `bytes` costs.
    pub fn fault_ticks(&self, bytes: u64) -> u64 {
        self.fault_overhead_ticks
            .saturating_add(bytes.div_ceil(self.bytes_per_tick.max(1)))
    }
}

/// An element-wise activation, applied in place to one row.
pub type Activation = fn(&mut [f32]);

/// A layer with no batched form (one of a trainable network), which
/// [`run_stages`] runs row by row.
pub trait RowLayer {
    /// Output row length.
    fn row_width(&self) -> usize;
    /// The output row for input row `x`.
    fn forward_row(&self, x: &[f32]) -> Vec<f32>;
}

/// One stage of a forward chain, as [`run_stages`] runs it.
pub enum Stage<'a> {
    /// `y = x·Wᵀ`, then `y + b` per row. An empty bias adds nothing, which is
    /// *not* the same as adding zeros (`-0.0 + 0.0` changes sign bits).
    Linear {
        /// The weight operator.
        op: Arc<dyn CompressedLinear>,
        /// The bias, `op.out_dim()` long, or empty.
        bias: &'a [f32],
    },
    /// An element-wise activation.
    Activation(Activation),
    /// A layer run row by row.
    Rows(&'a dyn RowLayer),
}

/// Runs a chain of `len` stages on a batch into `out`. `stage(s)` is called
/// once per stage, in order, after stage `s - 1`'s matmul and before stage
/// `s` runs, so a caller can fault stage `s`'s weights in there.
///
/// Stages write two ping-pong buffers, `out` and one the executor recycles,
/// so a warm chain of linear and activation stages allocates nothing of its
/// own. An activation after a linear stage runs in its bias pass, as the
/// paper's PE sends each accumulated output straight through its activation
/// unit (Fig. 7): each element gets `y + b`, then the activation, the order
/// `Layer::forward` applies them in, so every row is bit-identical to
/// running the layers one row at a time. An empty chain copies the input.
///
/// # Errors
///
/// Returns the first error of `stage` or of a matmul
/// ([`FormatError::DimensionMismatch`] for a mis-sized batch).
pub fn run_stages<'a, E: From<FormatError>>(
    xs: &BatchView<'_>,
    exec: &ParallelExecutor,
    out: &mut Matrix,
    len: usize,
    mut stage: impl FnMut(usize) -> Result<Stage<'a>, E>,
) -> Result<(), E> {
    // Each stage reads `bufs[1]` (`xs` for the first) and writes `bufs[0]`,
    // and then the two swap.
    let spare = lock(&exec.stage_pool).pop().unwrap_or_default();
    let mut bufs = [spare, std::mem::take(out)];
    if len == 0 {
        map_rows(xs, &mut bufs[1], |_| {});
    }
    let (mut s, mut pending) = (0, None);
    while s < len {
        let this = pending.take().map_or_else(|| stage(s), Ok)?;
        let [dst, cur] = &mut bufs;
        let src = if s == 0 {
            *xs
        } else {
            BatchView::from_matrix(cur)
        };
        s += 1;
        match this {
            Stage::Linear { op, bias } => {
                exec.matmul_into(&op, &src, dst)?;
                // Fuse a following activation into the bias pass.
                let activation: Activation = match (s < len).then(|| stage(s)).transpose()? {
                    Some(Stage::Activation(f)) => {
                        s += 1;
                        f
                    }
                    next => {
                        pending = next;
                        |_| {}
                    }
                };
                for i in 0..dst.rows() {
                    let row = dst.row_mut(i);
                    row.iter_mut().zip(bias).for_each(|(y, b)| *y += b);
                    activation(row);
                }
            }
            Stage::Activation(f) => map_rows(&src, dst, f),
            Stage::Rows(layer) => {
                dst.resize(src.batch(), layer.row_width());
                for i in 0..src.batch() {
                    dst.row_mut(i)
                        .copy_from_slice(&layer.forward_row(src.row(i)));
                }
            }
        }
        bufs.swap(0, 1);
    }
    let [spare, result] = bufs;
    *out = result;
    lock(&exec.stage_pool).push(spare);
    Ok(())
}

/// Copies `src` into `out` and applies `f` to each row.
fn map_rows(src: &BatchView<'_>, out: &mut Matrix, f: Activation) {
    out.resize(src.batch(), src.dim());
    for i in 0..src.batch() {
        let row = out.row_mut(i);
        row.copy_from_slice(src.row(i));
        f(row);
    }
}

enum StageKind {
    /// A weight stage backed by block `block` of the container, with the
    /// operator paged in and out of `slot`. Runs as [`Stage::Linear`].
    Linear {
        block: usize,
        bytes: u64,
        in_dim: usize,
        out_dim: usize,
        mul_count: u64,
        bias: Vec<f32>,
        slot: RwLock<Option<Arc<dyn CompressedLinear>>>,
    },
    /// A resident (never paged) element-wise activation.
    Activation { dim: usize, apply: Activation },
}

/// One stage of a [`PagedModel`]'s layer chain.
pub struct PagedStage {
    kind: StageKind,
}

impl PagedStage {
    /// A weight stage backed by container block `block` (`bytes` long on
    /// disk), mapping `in_dim` to `out_dim` at `mul_count` multiplies per
    /// example. An empty `bias` skips the bias step entirely; a non-empty
    /// bias must be `out_dim` long.
    pub fn linear(
        block: usize,
        bytes: u64,
        in_dim: usize,
        out_dim: usize,
        mul_count: u64,
        bias: Vec<f32>,
    ) -> Self {
        PagedStage {
            kind: StageKind::Linear {
                block,
                bytes,
                in_dim,
                out_dim,
                mul_count,
                bias,
                slot: RwLock::new(None),
            },
        }
    }

    /// A resident element-wise activation of width `dim`.
    pub fn activation(dim: usize, apply: Activation) -> Self {
        PagedStage {
            kind: StageKind::Activation { dim, apply },
        }
    }

    fn dims(&self) -> (usize, usize) {
        match &self.kind {
            StageKind::Linear {
                in_dim, out_dim, ..
            } => (*in_dim, *out_dim),
            StageKind::Activation { dim, .. } => (*dim, *dim),
        }
    }

    /// The `(block, bytes)` this stage pages, or `None` for activations.
    fn block(&self) -> Option<(usize, u64)> {
        match &self.kind {
            StageKind::Linear { block, bytes, .. } => Some((*block, *bytes)),
            StageKind::Activation { .. } => None,
        }
    }
}

impl std::fmt::Debug for PagedStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedStage")
            .field("block", &self.block())
            .field("dims", &self.dims())
            .finish()
    }
}

/// A model skeleton whose weight stages page at block granularity. Always
/// resident itself (the skeleton is metadata-sized); the registry owns all
/// fault/evict *policy* and byte accounting, this type owns the slots and the
/// bit-exact forward arithmetic.
#[derive(Debug)]
pub struct PagedModel {
    in_dim: usize,
    out_dim: usize,
    mul_count: u64,
    stages: Vec<PagedStage>,
}

impl PagedModel {
    /// Builds a skeleton from a validated stage chain.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Malformed`] for an empty chain, a stage whose
    /// input width differs from its predecessor's output, a non-empty bias of
    /// the wrong length, or two stages claiming the same block.
    pub fn new(stages: Vec<PagedStage>) -> Result<Self, SnapshotError> {
        let (Some(first), Some(last)) = (stages.first(), stages.last()) else {
            return Err(SnapshotError::Malformed {
                context: "paged model",
                reason: "stage chain is empty".to_string(),
            });
        };
        let (in_dim, out_dim) = (first.dims().0, last.dims().1);
        let mut current = in_dim;
        let mut mul_count = 0u64;
        let mut blocks_seen = std::collections::BTreeSet::new();
        for (s, stage) in stages.iter().enumerate() {
            let (stage_in, stage_out) = stage.dims();
            if stage_in != current {
                return Err(SnapshotError::Malformed {
                    context: "paged model",
                    reason: format!("stage {s} consumes {stage_in} values but receives {current}"),
                });
            }
            current = stage_out;
            if let StageKind::Linear {
                block,
                mul_count: muls,
                bias,
                out_dim,
                ..
            } = &stage.kind
            {
                if !bias.is_empty() && bias.len() != *out_dim {
                    return Err(SnapshotError::Malformed {
                        context: "paged model",
                        reason: format!(
                            "stage {s} bias has {} entries for an output width of {out_dim}",
                            bias.len()
                        ),
                    });
                }
                if !blocks_seen.insert(*block) {
                    return Err(SnapshotError::Malformed {
                        context: "paged model",
                        reason: format!("stage {s} re-uses block {block}"),
                    });
                }
                mul_count = mul_count.saturating_add(*muls);
            }
        }
        Ok(PagedModel {
            in_dim,
            out_dim,
            mul_count,
            stages,
        })
    }

    /// Input vector length.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output vector length.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Multiplies one example costs through every stage — the sum of the
    /// linear stages' counts (activations are mul-free), which equals the
    /// whole-loaded model's `mul_count_per_example`, so admission and batch
    /// ordering decisions are identical in both residency modes. Saturates
    /// at `u64::MAX`.
    pub fn mul_count_per_example(&self) -> u64 {
        self.mul_count
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.stages.len()
    }

    /// The `(block, bytes)` stage `s` pages, or `None` for resident stages.
    pub fn stage_block(&self, s: usize) -> Option<(usize, u64)> {
        self.stages[s].block()
    }

    /// Whether stage `s`'s weights are currently installed. Activation
    /// stages always are.
    pub fn is_stage_resident(&self, s: usize) -> bool {
        match &self.stages[s].kind {
            StageKind::Linear { slot, .. } => slot.read().expect("slot lock").is_some(),
            StageKind::Activation { .. } => true,
        }
    }

    /// The weight stages whose operators are installed, in stage order.
    pub fn resident_stages(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.stages.len())
            .filter(|&s| self.stage_block(s).is_some() && self.is_stage_resident(s))
    }

    /// Whether any weight slot is installed.
    pub fn any_resident(&self) -> bool {
        self.resident_stages().next().is_some()
    }

    /// Installs a decoded operator into stage `s`'s slot.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Malformed`] if `s` is a resident stage or the
    /// operator's shape differs from what the skeleton (and therefore every
    /// already-planned request stream) expects.
    pub fn install(&self, s: usize, op: Arc<dyn CompressedLinear>) -> Result<(), SnapshotError> {
        match &self.stages[s].kind {
            StageKind::Linear {
                in_dim,
                out_dim,
                slot,
                ..
            } => {
                if (op.in_dim(), op.out_dim()) != (*in_dim, *out_dim) {
                    return Err(SnapshotError::Malformed {
                        context: "paged install",
                        reason: format!(
                            "block decodes to {}x{}, stage {s} expects {out_dim}x{in_dim}",
                            op.out_dim(),
                            op.in_dim()
                        ),
                    });
                }
                *slot.write().expect("slot lock") = Some(op);
                Ok(())
            }
            StageKind::Activation { .. } => Err(SnapshotError::Malformed {
                context: "paged install",
                reason: format!("stage {s} is a resident activation, not a weight slot"),
            }),
        }
    }

    /// Drops stage `s`'s installed operator, returning whether it was
    /// resident. Activation stages are never evictable.
    pub fn evict_stage(&self, s: usize) -> bool {
        match &self.stages[s].kind {
            StageKind::Linear { slot, .. } => slot.write().expect("slot lock").take().is_some(),
            StageKind::Activation { .. } => false,
        }
    }

    /// Drops every installed operator, returning the block bytes freed.
    pub fn evict_all(&self) -> u64 {
        (0..self.stages.len())
            .filter(|&s| self.evict_stage(s))
            .filter_map(|s| self.stage_block(s))
            .map(|(_, bytes)| bytes)
            .sum()
    }

    /// Runs a batch through the stage loop ([`run_stages`]), calling
    /// `fault(s)` just before stage `s` runs so the caller can install its
    /// weights. Outputs are the whole-loaded model's, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] for a mis-sized batch,
    /// `fault`'s error, or [`FormatError::Format`] if a linear stage runs
    /// while its weights are not installed (a registry sequencing bug, not a
    /// data error).
    pub fn forward_into<E: From<FormatError>>(
        &self,
        xs: &BatchView<'_>,
        exec: &ParallelExecutor,
        out: &mut Matrix,
        mut fault: impl FnMut(usize) -> Result<(), E>,
    ) -> Result<(), E> {
        permdnn_core::format::check_dim("paged forward", self.in_dim, xs.dim())?;
        run_stages(xs, exec, out, self.stages.len(), |s| {
            fault(s)?;
            Ok(match &self.stages[s].kind {
                StageKind::Linear { bias, slot, .. } => Stage::Linear {
                    op: slot.read().expect("slot lock").clone().ok_or_else(|| {
                        FormatError::Format {
                            format: "paged",
                            reason: format!("stage {s} executed while its block is not resident"),
                        }
                    })?,
                    bias,
                },
                StageKind::Activation { apply, .. } => Stage::Activation(*apply),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permdnn_core::snapshot::{load_tensor, save_tensor};
    use permdnn_core::BlockPermDiagMatrix;

    fn pd_op(out: usize, inp: usize, seed: u64) -> Arc<dyn CompressedLinear> {
        let m = BlockPermDiagMatrix::random(out, inp, 4, &mut pd_tensor::init::seeded_rng(seed));
        load_tensor(
            &save_tensor(&m).unwrap(),
            &permdnn_core::snapshot::SnapshotCodec::new(),
        )
        .unwrap()
    }

    #[test]
    fn skeleton_validates_chain_bias_and_block_uniqueness() {
        assert!(PagedModel::new(vec![]).is_err());
        // Chain break: 8-wide output into a 12-wide stage.
        assert!(PagedModel::new(vec![
            PagedStage::linear(0, 10, 8, 8, 64, vec![]),
            PagedStage::linear(1, 10, 12, 4, 48, vec![]),
        ])
        .is_err());
        // Bad bias length.
        assert!(PagedModel::new(vec![PagedStage::linear(0, 10, 8, 8, 64, vec![0.0; 3])]).is_err());
        // Duplicate block.
        assert!(PagedModel::new(vec![
            PagedStage::linear(0, 10, 8, 8, 64, vec![]),
            PagedStage::linear(0, 10, 8, 8, 64, vec![]),
        ])
        .is_err());
        let ok = PagedModel::new(vec![
            PagedStage::linear(0, 10, 8, 16, 128, vec![0.5; 16]),
            PagedStage::activation(16, |_| {}),
            PagedStage::linear(1, 10, 16, 4, 64, vec![]),
        ])
        .unwrap();
        assert_eq!((ok.in_dim(), ok.out_dim()), (8, 4));
        assert_eq!(ok.mul_count_per_example(), 192);
        assert_eq!(ok.stage_block(1), None);
        assert_eq!(ok.stage_block(2), Some((1, 10)));
        // The multiply sum saturates instead of wrapping to a free model.
        let huge = PagedModel::new(vec![
            PagedStage::linear(0, 10, 8, 8, u64::MAX, vec![]),
            PagedStage::linear(1, 10, 8, 8, 1, vec![]),
        ])
        .unwrap();
        assert_eq!(huge.mul_count_per_example(), u64::MAX);
    }

    #[test]
    fn install_run_evict_round_trip_is_bit_exact() {
        let op = pd_op(8, 8, 7);
        let model = PagedModel::new(vec![PagedStage::linear(
            0,
            99,
            8,
            8,
            op.mul_count(),
            vec![],
        )])
        .unwrap();
        assert!(!model.is_stage_resident(0));
        let exec = ParallelExecutor::sequential();
        let x: Vec<f32> = (0..8).map(|i| (i as f32 * 0.7).sin()).collect();
        let xs = BatchView::new(&x, 1, 8).unwrap();
        let mut out = Matrix::zeros(0, 0);
        let resident = |_| Ok::<(), FormatError>(());
        // Vacant slot is a typed error, never a panic.
        assert!(model.forward_into(&xs, &exec, &mut out, resident).is_err());
        model.install(0, Arc::clone(&op)).unwrap();
        assert!(model.is_stage_resident(0) && model.any_resident());
        model.forward_into(&xs, &exec, &mut out, resident).unwrap();
        assert_eq!(out.row(0), &op.matvec(&x).unwrap()[..]);
        assert_eq!(model.evict_all(), 99);
        assert!(!model.any_resident());
        // Shape-mismatched installs are rejected.
        assert!(model.install(0, pd_op(12, 12, 8)).is_err());
    }

    #[test]
    fn fault_ticks_charge_overhead_plus_bandwidth() {
        let paging = PagingModel {
            fault_overhead_ticks: 5,
            bytes_per_tick: 100,
        };
        assert_eq!(paging.fault_ticks(0), 5);
        assert_eq!(paging.fault_ticks(1), 6);
        assert_eq!(paging.fault_ticks(100), 6);
        assert_eq!(paging.fault_ticks(101), 7);
        assert_eq!(PagingModel::default().fault_ticks(4096), 6);
    }
}

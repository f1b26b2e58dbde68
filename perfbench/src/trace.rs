//! Spans recorded by the benchmark's own code around calls into each
//! layer's public functions. The program itself is not instrumented: the
//! `model` span comes from a loader that wraps each loaded model, and the
//! `executor`, `kernel` and `paging` spans come from replaying a call's
//! batches, and the paged tenants' blocks, after the call returns.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use pd_tensor::Matrix;
use permdnn_core::format::{BatchView, FormatError};
use permdnn_core::snapshot::{extract_block, load_tensor, read_block_index};
use permdnn_core::Scratch;
use permdnn_nn::layers::CompressedFc;
use permdnn_nn::snapshot::codec;
use permdnn_nn::MlpClassifier;
use permdnn_runtime::{plan_batches, BatchModel, ModelLoader, ParallelExecutor, TaggedRequest};

use crate::workload::Setup;

/// A closed interval of nanoseconds since the run's epoch.
pub type Span = (u64, u64);

/// Nanoseconds from `epoch` to `t`.
pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.duration_since(epoch).as_nanos() as u64
}

/// A span's self time: its length minus the part of it that its children
/// cover. Children are clipped to the parent and overlaps count once.
pub fn self_time(parent: Span, children: &[Span]) -> u64 {
    let mut clipped: Vec<Span> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.0;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (parent.1 - parent.0) - covered
}

/// What a [`loader`]'s models share with the benchmark: every model loaded,
/// in load order, and the forward spans traced models record.
#[derive(Default)]
pub struct Tracer {
    forwards: Mutex<Vec<(Instant, Instant)>>,
    loaded: Mutex<Vec<Arc<MlpClassifier>>>,
}

impl Tracer {
    /// The forward spans recorded since the last take.
    pub fn take_forwards(&self) -> Vec<(Instant, Instant)> {
        std::mem::take(&mut *self.forwards.lock().expect("span log lock"))
    }

    /// The models loaded so far, in load order.
    pub fn loaded(&self) -> Vec<Arc<MlpClassifier>> {
        self.loaded.lock().expect("model list lock").clone()
    }

    /// Forgets the models loaded so far, so a dropped registry's models
    /// are freed.
    pub fn clear_loaded(&self) {
        self.loaded.lock().expect("model list lock").clear();
    }
}

/// A loaded model that records a span around each batched forward.
struct TracedModel {
    inner: Arc<MlpClassifier>,
    tracer: Arc<Tracer>,
}

impl BatchModel for TracedModel {
    fn in_dim(&self) -> usize {
        self.inner.input_dim()
    }

    fn out_dim(&self) -> usize {
        self.inner.num_classes()
    }

    fn mul_count_per_example(&self) -> u64 {
        self.inner.mul_count_per_example()
    }

    fn forward_batch(
        &self,
        xs: &BatchView<'_>,
        exec: &ParallelExecutor,
    ) -> Result<Matrix, FormatError> {
        let start = Instant::now();
        let out = self.inner.forward_batch_parallel(xs, exec);
        let end = Instant::now();
        self.tracer
            .forwards
            .lock()
            .expect("span log lock")
            .push((start, end));
        out
    }
}

/// A [`ModelLoader`] for MLP snapshots that lists each model it loads in
/// `tracer`, so checks and replays run on the very weights the registry
/// serves. Untraced, the registry gets the `MlpClassifier` itself, as from
/// `batch_model_loader`; traced, a wrapper that records each forward span.
pub fn loader(tracer: Arc<Tracer>, traced: bool) -> ModelLoader {
    Box::new(move |bytes| {
        let inner = Arc::new(MlpClassifier::load(bytes)?);
        tracer
            .loaded
            .lock()
            .expect("model list lock")
            .push(Arc::clone(&inner));
        Ok(if traced {
            Arc::new(TracedModel {
                inner,
                tracer: Arc::clone(&tracer),
            }) as Arc<dyn BatchModel>
        } else {
            inner as Arc<dyn BatchModel>
        })
    })
}

/// One single-thread kernel run on one batch.
pub struct KernelSpan {
    pub label: Option<&'static str>,
    pub ns: u64,
    pub macs: u64,
}

/// Timings from replaying one call's batches.
#[derive(Default)]
pub struct Replay {
    /// `CompressedFc::forward_batch_parallel` on the benchmark's executor.
    pub fc_ns: u64,
    /// Activation layers, row by row, as the model applies them.
    pub glue_ns: u64,
    /// `matmul_into` of each FC layer's weights on one thread.
    pub kernels: Vec<KernelSpan>,
}

/// Replays a call's batches through `models` (one per tenant, in tenant
/// order). The batches are rebuilt with `plan_batches`, the planner the
/// registry uses, so they are the batches the call served. Each batch runs
/// the model's forward layer by layer first, as the registry runs it, then
/// each FC layer's kernel on one thread on the same layer inputs.
///
/// # Errors
///
/// Propagates a kernel's [`FormatError`]; the replayed shapes come from the
/// served models, so none is expected.
pub fn replay_call(
    setup: &Setup,
    models: &[Arc<MlpClassifier>],
    requests: &[TaggedRequest],
    exec: &ParallelExecutor,
    scratch: &mut Scratch,
) -> Result<Replay, FormatError> {
    let mut replay = Replay::default();
    let mut kernel_out = Vec::new();
    for (tenant, model) in setup.tenants.iter().zip(models) {
        let stream = Setup::stream_of(requests, &tenant.id);
        for batch in plan_batches(stream, setup.traffic.serve.batching) {
            let rows = batch.requests.len();
            let input: Vec<f32> = batch
                .requests
                .iter()
                .flat_map(|r| r.input.iter().copied())
                .collect();
            // Layer inputs: `inputs[i]` feeds layer `i`.
            let mut inputs = vec![Matrix::from_vec(rows, model.input_dim(), input)
                .expect("requests match the tenant's input width")];
            for layer in model.layers() {
                let view = BatchView::from_matrix(inputs.last().expect("input present"));
                let start = Instant::now();
                let next = if let Some(fc) = layer.as_any().downcast_ref::<CompressedFc>() {
                    let next = fc.forward_batch_parallel(&view, exec)?;
                    replay.fc_ns += start.elapsed().as_nanos() as u64;
                    next
                } else {
                    let mut out = Matrix::zeros(rows, layer.output_dim());
                    for i in 0..rows {
                        out.row_mut(i).copy_from_slice(&layer.forward(view.row(i)));
                    }
                    replay.glue_ns += start.elapsed().as_nanos() as u64;
                    out
                };
                inputs.push(next);
            }
            let fcs = model
                .layers()
                .iter()
                .zip(&inputs)
                .filter_map(|(l, x)| Some((l.as_any().downcast_ref::<CompressedFc>()?, x)));
            for ((fc, x), &label) in fcs.zip(&tenant.labels) {
                let weights = fc.weights();
                kernel_out.clear();
                kernel_out.resize(rows * weights.out_dim(), 0.0);
                let start = Instant::now();
                weights.matmul_into(&BatchView::from_matrix(x), &mut kernel_out, scratch)?;
                replay.kernels.push(KernelSpan {
                    label,
                    ns: start.elapsed().as_nanos() as u64,
                    macs: weights.mul_count() * rows as u64,
                });
            }
        }
    }
    Ok(replay)
}

/// One block of a paged tenant: the tenant's index, the block's kernel
/// label, and the median time to extract it (CRC check included) and
/// decode it.
pub struct BlockDecode {
    pub tenant: usize,
    pub label: Option<&'static str>,
    pub ns: u64,
}

/// Times `extract_block` + `load_tensor` on every block of every paged
/// tenant, `reps` times each.
pub fn decode_blocks(setup: &Setup, reps: usize) -> Vec<BlockDecode> {
    let codec = codec();
    let mut out = Vec::new();
    for (t, tenant) in setup.tenants.iter().enumerate() {
        let blocked = tenant.served();
        let index = read_block_index(blocked).expect("paged tenants are block-streamed");
        for k in 0..index.len() {
            let times = (0..reps).map(|_| {
                let start = Instant::now();
                let record = extract_block(blocked, k).expect("valid block");
                let op = load_tensor(&record, &codec).expect("valid record");
                std::hint::black_box(op);
                start.elapsed().as_nanos() as f64
            });
            out.push(BlockDecode {
                tenant: t,
                // Blocks are the FC layers' weights, in layer order.
                label: tenant.labels.get(k).copied().flatten(),
                ns: crate::metrics::median(times) as u64,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 30)]), 80);
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(60, 70), (10, 30)]), 70);
        // Overlapping and nested children count their union once.
        assert_eq!(self_time((0, 100), &[(10, 30), (20, 40), (25, 26)]), 70);
        // Children outside the parent are clipped to it.
        assert_eq!(self_time((50, 100), &[(0, 60), (90, 200)]), 30);
        assert_eq!(self_time((50, 100), &[(0, 40), (120, 130)]), 50);
        // A child covering the parent leaves no self time.
        assert_eq!(self_time((50, 100), &[(0, 200)]), 0);
    }
}

//! Sharded execution of batched [`CompressedLinear`] products on a
//! [`WorkerPool`].
//!
//! The executor splits a batch of input vectors into contiguous row ranges
//! (one per worker, via [`par_row_ranges`]) and runs each range through the
//! operator's own `matmul` on a worker thread. Because the split is by whole
//! rows and every row goes through exactly the same kernel exactly once, the
//! gathered result is **bit-for-bit identical** to the sequential
//! [`CompressedLinear::matmul`] — the property the concurrency test suite
//! (`tests/concurrency.rs`) locks in for every format.

use std::ops::Range;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex, PoisonError};

use pd_tensor::Matrix;
use permdnn_core::format::{
    batch_len, check_dim, par_row_ranges, BatchView, CompressedLinear, FormatError,
};
use permdnn_core::Scratch;

use crate::pool::WorkerPool;

/// One worker slot's reusable buffers: the kernel scratch arena plus the
/// shard output staging vector. Shards borrow their slot under a mutex for
/// the duration of one range, so concurrent `matmul` calls on the same
/// executor never share buffers.
#[derive(Default)]
struct ShardArena {
    scratch: Scratch,
    out: Vec<f32>,
}

pub(crate) fn lock<T>(buffers: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A poisoned lock means some other call panicked; every lock here guards
    // reusable buffers that their users fully re-initialise, so they stay
    // usable.
    buffers.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs batched compressed-matrix products sharded across a worker pool.
///
/// Operators are shared with workers as `Arc<dyn CompressedLinear>` — the
/// trait's `Send + Sync` supertraits make that sound, and every format is
/// immutable weight data at inference time.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use permdnn_runtime::ParallelExecutor;
/// use permdnn_core::format::{BatchView, CompressedLinear};
/// use permdnn_core::BlockPermDiagMatrix;
/// use pd_tensor::init::{seeded_rng, xavier_uniform};
///
/// let op: Arc<dyn CompressedLinear> =
///     Arc::new(BlockPermDiagMatrix::random(16, 32, 4, &mut seeded_rng(0)));
/// let xs_mat = xavier_uniform(&mut seeded_rng(1), 6, 32);
/// let xs = BatchView::from_matrix(&xs_mat);
///
/// let exec = ParallelExecutor::new(3);
/// let parallel = exec.matmul(&op, &xs).unwrap();
/// let sequential = op.matmul(&xs).unwrap();
/// assert_eq!(parallel, sequential); // bit-for-bit
/// ```
pub struct ParallelExecutor {
    pool: WorkerPool,
    /// One scratch arena per worker slot, indexed by shard position.
    arenas: Arc<Vec<Mutex<ShardArena>>>,
    /// Recycled input-copy buffers for the sharded path.
    input_pool: Mutex<Vec<Vec<f32>>>,
    /// Recycled activation buffers for the stage loop
    /// ([`run_stages`](crate::paging::run_stages)).
    pub(crate) stage_pool: Mutex<Vec<Matrix>>,
}

impl ParallelExecutor {
    /// Creates an executor backed by a fresh pool of `n_workers` threads
    /// (clamped to at least one).
    pub fn new(n_workers: usize) -> Self {
        let pool = WorkerPool::new(n_workers);
        let arenas = Arc::new((0..pool.workers()).map(|_| Mutex::default()).collect());
        ParallelExecutor {
            pool,
            arenas,
            input_pool: Mutex::default(),
            stage_pool: Mutex::default(),
        }
    }

    /// An executor with a single worker — sequential execution through the
    /// same code path, useful as a baseline.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Runs `shard(k, range)` for each of the given ranges on the pool, `k`
    /// being the range's position in `ranges`, and returns the results in
    /// range order.
    ///
    /// This is the generic fan-out/gather primitive the matmul path and the
    /// multi-host engine model are built on. The shard function is shared
    /// across workers via `Arc`, so captured context must be `Send + Sync`.
    /// Each job releases its handle on the function before it reports, so
    /// once this returns no worker still holds anything the function
    /// captured, however the workers' exits interleave with the gather.
    ///
    /// # Panics
    ///
    /// Panics if a shard job panics on its worker (the result channel closes
    /// before all results arrive).
    pub fn map_shards<T, F>(&self, ranges: Vec<Range<usize>>, shard: Arc<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(usize, Range<usize>) -> T + Send + Sync + 'static,
    {
        let n = ranges.len();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            // One shard: run inline, no dispatch overhead.
            let range = ranges.into_iter().next().expect("n == 1");
            return vec![shard(0, range)];
        }
        let (tx, rx) = channel::<(usize, T)>();
        for (idx, range) in ranges.into_iter().enumerate() {
            let tx = tx.clone();
            let shard = Arc::clone(&shard);
            self.pool.execute(move || {
                let value = shard(idx, range);
                drop(shard);
                // A send failure means the gatherer already gave up; nothing
                // useful to do with the result then.
                let _ = tx.send((idx, value));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            match rx.recv() {
                Ok((idx, value)) => slots[idx] = Some(value),
                Err(_) => panic!("a worker shard panicked before reporting its result"),
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every shard index reports exactly once"))
            .collect()
    }

    /// Batched product `Y = X·Wᵀ` sharded across the pool: the batch rows are
    /// split into one contiguous range per worker, each range runs through the
    /// operator's own [`CompressedLinear::matmul`] on a sub-view, and the
    /// shard outputs are gathered in order.
    ///
    /// The result is bit-for-bit identical to `op.matmul(xs)` for any worker
    /// count: row-granular sharding re-orders no floating-point operation.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] if `xs.dim() != op.in_dim()`;
    /// any shard error propagates unchanged.
    pub fn matmul(
        &self,
        op: &Arc<dyn CompressedLinear>,
        xs: &BatchView<'_>,
    ) -> Result<Matrix, FormatError> {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(op, xs, &mut out)?;
        Ok(out)
    }

    /// [`matmul`](Self::matmul) into a caller-owned output matrix — the
    /// steady-state serving entry point. The output is resized in place
    /// (reusing its allocation), shard outputs land in per-worker arena
    /// buffers, kernel temporaries come from each arena's [`Scratch`], and
    /// the one-off input copy cycles through an internal buffer pool; all of
    /// these are reused across calls. A call that runs inline (one worker, or
    /// one batch row) allocates nothing once its buffers are warm; a sharded
    /// call still allocates its dispatch: the result channel, the boxed jobs,
    /// the shared `Arc`s and the range list.
    ///
    /// Bit-for-bit identical to the sequential
    /// [`CompressedLinear::matmul`] for any worker count, like `matmul`.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] if `xs.dim() != op.in_dim()`,
    /// and [`FormatError::LengthOverflow`] if `xs.batch() * op.out_dim()`
    /// overflows; any shard error propagates unchanged.
    pub fn matmul_into(
        &self,
        op: &Arc<dyn CompressedLinear>,
        xs: &BatchView<'_>,
        out: &mut Matrix,
    ) -> Result<(), FormatError> {
        check_dim("matmul", op.in_dim(), xs.dim())?;
        let batch = xs.batch();
        let out_dim = op.out_dim();
        batch_len("matmul", batch, out_dim)?;
        out.resize(batch, out_dim);
        if batch == 0 {
            return Ok(());
        }
        // One shard: run inline, before building a range list.
        if self.workers().min(batch) == 1 {
            let mut arena = lock(&self.arenas[0]);
            return op.matmul_into(xs, out.as_mut_slice(), &mut arena.scratch);
        }
        let ranges = par_row_ranges(batch, self.workers());

        // Jobs on the pool are `'static`, so the borrowed batch is copied into
        // a shared buffer once — O(batch·dim), dwarfed by the O(batch·m·n/p)
        // product it enables. The buffer itself is recycled across calls.
        let dim = xs.dim();
        let mut input = lock(&self.input_pool).pop().unwrap_or_default();
        input.clear();
        input.reserve(batch * dim);
        for i in 0..batch {
            input.extend_from_slice(xs.row(i));
        }
        let input = Arc::new(input);

        let shard_op = Arc::clone(op);
        let shard_input = Arc::clone(&input);
        let shard_arenas = Arc::clone(&self.arenas);
        let shards = self.map_shards(
            ranges.clone(),
            Arc::new(
                move |idx: usize, range: Range<usize>| -> Result<Vec<f32>, FormatError> {
                    let mut arena = lock(&shard_arenas[idx]);
                    let arena = &mut *arena;
                    let mut buf = std::mem::take(&mut arena.out);
                    buf.clear();
                    buf.resize(range.len() * out_dim, 0.0);
                    let sub = BatchView::new(
                        &shard_input[range.start * dim..range.end * dim],
                        range.len(),
                        dim,
                    )?;
                    shard_op.matmul_into(&sub, &mut buf, &mut arena.scratch)?;
                    Ok(buf)
                },
            ),
        );

        let mut result = Ok(());
        for ((idx, range), shard) in ranges.into_iter().enumerate().zip(shards) {
            match shard {
                Ok(buf) => {
                    if result.is_ok() {
                        out.as_mut_slice()[range.start * out_dim..range.end * out_dim]
                            .copy_from_slice(&buf);
                    }
                    lock(&self.arenas[idx]).out = buf;
                }
                Err(e) => {
                    if result.is_ok() {
                        result = Err(e);
                    }
                }
            }
        }
        // Every job dropped its handle on the input before reporting (see
        // `map_shards`), so the copy goes back to the pool on every call;
        // `try_unwrap` keeps the pool out of the correctness argument.
        if let Ok(input) = Arc::try_unwrap(input) {
            lock(&self.input_pool).push(input);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_tensor::init::{seeded_rng, xavier_uniform};
    use permdnn_core::qlinear::{QScheme, QuantizedLinear};
    use permdnn_core::BlockPermDiagMatrix;

    fn pd_op(rows: usize, cols: usize, p: usize, seed: u64) -> Arc<dyn CompressedLinear> {
        Arc::new(BlockPermDiagMatrix::random(
            rows,
            cols,
            p,
            &mut seeded_rng(seed),
        ))
    }

    #[test]
    fn sharded_matmul_matches_sequential_bitwise() {
        let op = pd_op(24, 36, 4, 1);
        let xs_mat = xavier_uniform(&mut seeded_rng(2), 11, 36);
        let xs = BatchView::from_matrix(&xs_mat);
        let sequential = op.matmul(&xs).unwrap();
        for workers in [1, 2, 3, 7, 16] {
            let exec = ParallelExecutor::new(workers);
            let parallel = exec.matmul(&op, &xs).unwrap();
            assert_eq!(parallel, sequential, "workers = {workers}");
        }
    }

    #[test]
    fn matmul_rejects_wrong_input_dim() {
        let op = pd_op(8, 8, 4, 3);
        let data = vec![0.0f32; 2 * 7];
        let xs = BatchView::new(&data, 2, 7).unwrap();
        let exec = ParallelExecutor::new(2);
        assert!(matches!(
            exec.matmul(&op, &xs),
            Err(FormatError::DimensionMismatch {
                expected: 8,
                got: 7,
                ..
            })
        ));
    }

    #[test]
    fn empty_batch_yields_empty_output() {
        let op = pd_op(8, 8, 4, 4);
        let xs = BatchView::new(&[], 0, 8).unwrap();
        let exec = ParallelExecutor::new(4);
        let out = exec.matmul(&op, &xs).unwrap();
        assert_eq!(out.shape(), (0, 8));
    }

    #[test]
    fn map_shards_preserves_range_order() {
        let exec = ParallelExecutor::new(3);
        let ranges = par_row_ranges(20, 6);
        let results = exec.map_shards(ranges.clone(), Arc::new(|_, r: Range<usize>| r.start));
        let expected: Vec<usize> = ranges.iter().map(|r| r.start).collect();
        assert_eq!(results, expected);
    }

    fn quantized(op: &Arc<dyn CompressedLinear>, scheme: QScheme) -> Arc<QuantizedLinear> {
        Arc::new(QuantizedLinear::from_op(Arc::clone(op), scheme))
    }

    #[test]
    fn integer_matmul_is_bit_identical_for_any_worker_count() {
        let op = pd_op(24, 36, 4, 7);
        let q = quantized(&op, QScheme::calibrate(1.0, op.max_weight_abs(), 8.0));
        let xs_mat = xavier_uniform(&mut seeded_rng(8), 11, 36);
        let xs = BatchView::from_matrix(&xs_mat);
        // The f32 surface is the integer kernel, dequantized row by row.
        let mut xs_raw = Vec::new();
        for i in 0..11 {
            xs_raw.extend(q.quantize_input(xs_mat.row(i)));
        }
        let (raw, _) = q.matmul_q(&xs_raw, 11).unwrap();
        let sequential = q.matmul(&xs).unwrap();
        assert_eq!(sequential.as_slice(), q.dequantize_output(&raw));
        let q: Arc<dyn CompressedLinear> = q;
        for workers in [1, 2, 3, 7, 16] {
            let exec = ParallelExecutor::new(workers);
            let parallel = exec.matmul(&q, &xs).unwrap();
            assert_eq!(parallel, sequential, "workers = {workers}");
        }
    }

    #[test]
    fn integer_matmul_validates_input_length() {
        let op = pd_op(8, 8, 4, 9);
        let q: Arc<dyn CompressedLinear> = quantized(&op, QScheme::q3_12());
        let exec = ParallelExecutor::new(2);
        let data = [0.0f32; 14];
        assert!(matches!(
            exec.matmul(&q, &BatchView::new(&data, 2, 7).unwrap()),
            Err(FormatError::DimensionMismatch { .. })
        ));
        let out = exec
            .matmul(&q, &BatchView::new(&[], 0, 8).unwrap())
            .unwrap();
        assert_eq!(out.shape(), (0, 8));
    }

    #[test]
    fn sharded_calls_recycle_their_input_copy() {
        // A worker that reported its shard but still held the input copy
        // would make the call drop the copy and the next call allocate a
        // fresh one, depending on thread timing.
        let op = pd_op(16, 16, 4, 10);
        let xs_mat = xavier_uniform(&mut seeded_rng(11), 4, 16);
        let xs = BatchView::from_matrix(&xs_mat);
        let exec = ParallelExecutor::new(2);
        let mut out = Matrix::zeros(0, 0);
        for call in 0..2000 {
            exec.matmul_into(&op, &xs, &mut out).unwrap();
            assert_eq!(exec.input_pool.lock().unwrap().len(), 1, "call {call}");
        }
    }

    #[test]
    fn more_workers_than_batch_rows_is_fine() {
        let op = pd_op(12, 12, 4, 5);
        let xs_mat = xavier_uniform(&mut seeded_rng(6), 2, 12);
        let xs = BatchView::from_matrix(&xs_mat);
        let exec = ParallelExecutor::new(8);
        assert_eq!(exec.matmul(&op, &xs).unwrap(), op.matmul(&xs).unwrap());
    }
}

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
use permdnn_core::qlinear::{QKernelStats, QScratch, QuantizedLinear};
use permdnn_core::Scratch;

use crate::pool::WorkerPool;

/// One worker slot's reusable buffers: the kernel scratch arena plus the
/// shard output staging vectors. Shards borrow their slot under a mutex for
/// the duration of one range, so concurrent `matmul` calls on the same
/// executor never share buffers; steady-state serving reuses every
/// allocation.
#[derive(Default)]
struct ShardArena {
    scratch: Scratch,
    out_f32: Vec<f32>,
    out_i16: Vec<i16>,
}

fn lock_arena(arena: &Mutex<ShardArena>) -> std::sync::MutexGuard<'_, ShardArena> {
    // A poisoned lock means some other shard panicked; its buffers are
    // caches that every kernel fully re-initialises, so they stay usable.
    arena.lock().unwrap_or_else(PoisonError::into_inner)
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
    /// Recycled input-copy buffers for the sharded f32 path.
    input_pool_f32: Mutex<Vec<Vec<f32>>>,
    /// Recycled input-copy buffers for the sharded integer path.
    input_pool_i16: Mutex<Vec<Vec<i16>>>,
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
            input_pool_f32: Mutex::new(Vec::new()),
            input_pool_i16: Mutex::new(Vec::new()),
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

    /// Runs `shard(range)` for each of the given ranges on the pool and
    /// returns the results in range order.
    ///
    /// This is the generic fan-out/gather primitive the matmul path and the
    /// multi-host engine model are built on. The shard function is shared
    /// across workers via `Arc`, so captured context must be `Send + Sync`.
    ///
    /// # Panics
    ///
    /// Panics if a shard job panics on its worker (the result channel closes
    /// before all results arrive).
    pub fn map_shards<T, F>(&self, ranges: Vec<Range<usize>>, shard: Arc<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(Range<usize>) -> T + Send + Sync + 'static,
    {
        let n = ranges.len();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            // One shard: run inline, no dispatch overhead.
            let range = ranges.into_iter().next().expect("n == 1");
            return vec![shard(range)];
        }
        let (tx, rx) = channel::<(usize, T)>();
        for (idx, range) in ranges.into_iter().enumerate() {
            let tx = tx.clone();
            let shard = Arc::clone(&shard);
            self.pool.execute(move || {
                // A send failure means the gatherer already gave up; nothing
                // useful to do with the result then.
                let _ = tx.send((idx, shard(range)));
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
    /// the one-off input copy cycles through an internal buffer pool: after
    /// warm-up, a serve loop calling this repeatedly allocates nothing.
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
        let ranges = par_row_ranges(batch, self.workers());
        if ranges.len() == 1 {
            let mut arena = lock_arena(&self.arenas[0]);
            return op.matmul_into(xs, out.as_mut_slice(), &mut arena.scratch);
        }

        // Jobs on the pool are `'static`, so the borrowed batch is copied into
        // a shared buffer once — O(batch·dim), dwarfed by the O(batch·m·n/p)
        // product it enables. The buffer itself is recycled across calls.
        let dim = xs.dim();
        let mut input = self
            .input_pool_f32
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default();
        input.clear();
        input.reserve(batch * dim);
        for i in 0..batch {
            input.extend_from_slice(xs.row(i));
        }
        let input = Arc::new(input);

        let shard_op = Arc::clone(op);
        let shard_input = Arc::clone(&input);
        let shard_arenas = Arc::clone(&self.arenas);
        let shard_ranges: Arc<Vec<Range<usize>>> = Arc::new(ranges.clone());
        let shards = self.map_shards(
            ranges.clone(),
            Arc::new(
                move |range: Range<usize>| -> Result<Vec<f32>, FormatError> {
                    // Recover this shard's slot index: range starts are unique
                    // and strictly increasing, so the position lookup is exact.
                    let idx = shard_ranges
                        .iter()
                        .position(|r| r.start == range.start)
                        .expect("range comes from this dispatch");
                    let mut arena = lock_arena(&shard_arenas[idx]);
                    let arena = &mut *arena;
                    let mut buf = std::mem::take(&mut arena.out_f32);
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
                    lock_arena(&self.arenas[idx]).out_f32 = buf;
                }
                Err(e) => {
                    if result.is_ok() {
                        result = Err(e);
                    }
                }
            }
        }
        // Recycle the input copy unless a straggler shard still holds a
        // reference (then the buffer is simply dropped — correctness never
        // depends on the pool).
        if let Ok(input) = Arc::try_unwrap(input) {
            self.input_pool_f32
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(input);
        }
        result
    }

    /// Batched *integer* product on the 16-bit fixed-point backend: `batch`
    /// row-major raw input vectors (at the operator's input Q-format) are
    /// sharded into one contiguous row range per worker, each range runs
    /// through [`QuantizedLinear::matmul_q`], and the raw outputs plus the
    /// merged datapath counters are gathered in range order.
    ///
    /// Bit-for-bit identical to `op.matmul_q(xs_raw, batch)` for any worker
    /// count — integer row-granular sharding re-orders nothing, and the
    /// [`QKernelStats`] counters are pure sums, gathered deterministically.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] if
    /// `xs_raw.len() != batch * op.in_dim()`, and
    /// [`FormatError::LengthOverflow`] if that product or
    /// `batch * op.out_dim()` overflows.
    pub fn matmul_q(
        &self,
        op: &Arc<QuantizedLinear>,
        xs_raw: &[i16],
        batch: usize,
    ) -> Result<(Vec<i16>, QKernelStats), FormatError> {
        let in_dim = op.in_dim();
        let out_dim = op.out_dim();
        check_dim(
            "matmul_q",
            batch_len("matmul_q", batch, in_dim)?,
            xs_raw.len(),
        )?;
        let out_len = batch_len("matmul_q", batch, out_dim)?;
        if batch == 0 {
            return Ok((Vec::new(), QKernelStats::default()));
        }
        let ranges = par_row_ranges(batch, self.workers());
        let mut out = vec![0i16; out_len];
        if ranges.len() == 1 {
            let mut arena = lock_arena(&self.arenas[0]);
            let stats =
                op.matmul_q_into(xs_raw, batch, &mut out, arena.scratch.slot::<QScratch>())?;
            return Ok((out, stats));
        }

        // Same input-copy discipline as the f32 path: one pooled buffer,
        // shared read-only across shards, recycled after the gather.
        let mut input = self
            .input_pool_i16
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default();
        input.clear();
        input.extend_from_slice(xs_raw);
        let input = Arc::new(input);

        let shard_op = Arc::clone(op);
        let shard_input = Arc::clone(&input);
        let shard_arenas = Arc::clone(&self.arenas);
        let shard_ranges: Arc<Vec<Range<usize>>> = Arc::new(ranges.clone());
        let shards = self.map_shards(
            ranges.clone(),
            Arc::new(
                move |range: Range<usize>| -> Result<(Vec<i16>, QKernelStats), FormatError> {
                    let idx = shard_ranges
                        .iter()
                        .position(|r| r.start == range.start)
                        .expect("range comes from this dispatch");
                    let mut arena = lock_arena(&shard_arenas[idx]);
                    let arena = &mut *arena;
                    let mut buf = std::mem::take(&mut arena.out_i16);
                    buf.clear();
                    buf.resize(range.len() * out_dim, 0);
                    let stats = shard_op.matmul_q_into(
                        &shard_input[range.start * in_dim..range.end * in_dim],
                        range.len(),
                        &mut buf,
                        arena.scratch.slot::<QScratch>(),
                    )?;
                    Ok((buf, stats))
                },
            ),
        );

        let mut stats = QKernelStats::default();
        let mut result = Ok(());
        for ((idx, range), shard) in ranges.into_iter().enumerate().zip(shards) {
            match shard {
                Ok((buf, shard_stats)) => {
                    if result.is_ok() {
                        out[range.start * out_dim..range.end * out_dim].copy_from_slice(&buf);
                        stats.merge(&shard_stats);
                    }
                    lock_arena(&self.arenas[idx]).out_i16 = buf;
                }
                Err(e) => {
                    if result.is_ok() {
                        result = Err(e);
                    }
                }
            }
        }
        if let Ok(input) = Arc::try_unwrap(input) {
            self.input_pool_i16
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(input);
        }
        result.map(|_| (out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_tensor::init::{seeded_rng, xavier_uniform};
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
        let results = exec.map_shards(ranges.clone(), Arc::new(|r: Range<usize>| r.start));
        let expected: Vec<usize> = ranges.iter().map(|r| r.start).collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn integer_matmul_is_bit_identical_for_any_worker_count() {
        use permdnn_core::qlinear::{QScheme, QuantizedLinear};
        let op = pd_op(24, 36, 4, 7);
        let q = Arc::new(QuantizedLinear::from_op(
            Arc::clone(&op),
            QScheme::calibrate(1.0, op.max_weight_abs(), 8.0),
        ));
        let xs_mat = xavier_uniform(&mut seeded_rng(8), 11, 36);
        let mut xs_raw = Vec::new();
        for i in 0..11 {
            xs_raw.extend(q.quantize_input(xs_mat.row(i)));
        }
        let sequential = q.matmul_q(&xs_raw, 11).unwrap();
        for workers in [1, 2, 3, 7, 16] {
            let exec = ParallelExecutor::new(workers);
            let parallel = exec.matmul_q(&q, &xs_raw, 11).unwrap();
            assert_eq!(parallel, sequential, "workers = {workers}");
        }
    }

    #[test]
    fn integer_matmul_validates_input_length() {
        use permdnn_core::qlinear::{QScheme, QuantizedLinear};
        let op = pd_op(8, 8, 4, 9);
        let q = Arc::new(QuantizedLinear::from_op(Arc::clone(&op), QScheme::q3_12()));
        let exec = ParallelExecutor::new(2);
        assert!(matches!(
            exec.matmul_q(&q, &[0i16; 15], 2),
            Err(FormatError::DimensionMismatch { .. })
        ));
        let (out, stats) = exec.matmul_q(&q, &[], 0).unwrap();
        assert!(out.is_empty());
        assert_eq!(stats, permdnn_core::qlinear::QKernelStats::default());
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

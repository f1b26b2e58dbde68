//! The batched-inference serving scenario: individual requests are coalesced
//! into batches and run through a model on the [`ParallelExecutor`].
//!
//! Time is counted in deterministic *ticks* (the same style as the `sim`
//! crate's cycle models), which keeps every run reproducible on any machine
//! and any worker count:
//!
//! 1. [`BatchingQueue`] coalesces pending requests until `max_batch` are
//!    waiting or the oldest has waited `max_wait_ticks`.
//! 2. [`plan_batches`] replays an arrival stream through the queue. Batch
//!    formation depends **only** on the arrival stream and the
//!    [`BatchConfig`] — never on execution speed — so the batching decisions
//!    are identical across runs and across worker counts (the determinism
//!    property locked in by `tests/concurrency.rs`). The same replay, with an
//!    admission gate, is how the [`slo`](crate::slo) schedule sheds requests.
//! 3. [`serve`] executes the planned batches in order on a [`BatchModel`]:
//!    outputs are computed for real on the worker pool, while service time is
//!    charged by the [`ServiceModel`] — `ceil(total muls / (per-worker
//!    throughput × workers))` ticks per batch, the idealised linear-scaling
//!    cost the `serve_throughput` bench sweeps. [`modeled_completion_ticks`]
//!    folds the same single-engine timeline without the arithmetic.

use std::collections::VecDeque;
use std::sync::Arc;

use pd_tensor::Matrix;
use permdnn_core::format::{BatchView, CompressedLinear, FormatError};

use crate::executor::ParallelExecutor;

/// Batch-coalescing policy for the serving queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Largest batch a single flush may contain (≥ 1).
    pub max_batch: usize,
    /// Longest a request may wait before a partial batch is flushed anyway.
    pub max_wait_ticks: u64,
}

impl BatchConfig {
    /// A policy flushing at `max_batch` requests or after `max_wait_ticks`.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0`.
    pub fn new(max_batch: usize, max_wait_ticks: u64) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        BatchConfig {
            max_batch,
            max_wait_ticks,
        }
    }
}

/// One inference request: an input vector that arrived at a given tick.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Caller-assigned identifier, echoed back on completion.
    pub id: u64,
    /// Tick at which the request entered the system.
    pub arrival_tick: u64,
    /// The input vector (length = the served model's `in_dim`).
    pub input: Vec<f32>,
}

/// A served request: its output vector plus the latency bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedRequest {
    /// The request's identifier.
    pub id: u64,
    /// Tick the request arrived.
    pub arrival_tick: u64,
    /// Tick its batch finished executing.
    pub completion_tick: u64,
    /// Size of the batch it was served in.
    pub batch_size: usize,
    /// The model output for this request.
    pub output: Vec<f32>,
}

impl CompletedRequest {
    /// End-to-end latency in ticks (queueing wait + batch execution).
    pub fn latency_ticks(&self) -> u64 {
        self.completion_tick - self.arrival_tick
    }
}

/// FIFO request queue that coalesces arrivals into batches.
///
/// # Example
///
/// ```
/// use permdnn_runtime::{BatchConfig, BatchingQueue, Request};
///
/// let mut q = BatchingQueue::new(BatchConfig::new(2, 10));
/// q.push(Request { id: 0, arrival_tick: 0, input: vec![0.0] });
/// assert!(q.poll(0).is_none()); // one pending, deadline not reached
/// q.push(Request { id: 1, arrival_tick: 3, input: vec![0.0] });
/// let batch = q.poll(3).unwrap(); // max_batch reached
/// assert_eq!(batch.len(), 2);
/// ```
#[derive(Debug)]
pub struct BatchingQueue {
    cfg: BatchConfig,
    pending: VecDeque<Request>,
}

impl BatchingQueue {
    /// An empty queue with the given coalescing policy.
    pub fn new(cfg: BatchConfig) -> Self {
        BatchingQueue {
            cfg,
            pending: VecDeque::new(),
        }
    }

    /// Enqueues a request (FIFO order).
    pub fn push(&mut self, request: Request) {
        self.pending.push_back(request);
    }

    /// Number of requests waiting.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Arrival tick of the oldest waiting request, if any.
    pub fn oldest_arrival(&self) -> Option<u64> {
        self.pending.front().map(|r| r.arrival_tick)
    }

    /// Tick at which the oldest waiting request has waited `max_wait_ticks`.
    /// It saturates: a wait that would pass `u64::MAX` ends there, where the
    /// clock stops, so every queued request still flushes.
    fn deadline(&self) -> Option<u64> {
        self.oldest_arrival()
            .map(|t| t.saturating_add(self.cfg.max_wait_ticks))
    }

    /// Flushes a batch if the policy says so at tick `now`: either
    /// `max_batch` requests are waiting, or the oldest has waited
    /// `max_wait_ticks`. Returns up to `max_batch` requests in arrival order.
    /// Call repeatedly — a backlog can release several batches at one tick.
    pub fn poll(&mut self, now: u64) -> Option<Vec<Request>> {
        let deadline = self.deadline()?;
        // The config fields are public, so a hand-built `max_batch: 0` can
        // bypass `BatchConfig::new`'s assert; clamp here so a flush always
        // drains at least one request (an empty flush would loop forever).
        let cap = self.cfg.max_batch.max(1);
        let full = self.pending.len() >= cap;
        if full || now >= deadline {
            let n = self.pending.len().min(cap);
            Some(self.pending.drain(..n).collect())
        } else {
            None
        }
    }
}

/// A batch closed by the planner: its members and the tick it became ready
/// for execution.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedBatch {
    /// Tick the queue flushed this batch.
    pub close_tick: u64,
    /// The member requests, in arrival order.
    pub requests: Vec<Request>,
}

/// Replays an arrival stream (sorted by `arrival_tick`) through a
/// [`BatchingQueue`] and returns the resulting batch plan.
///
/// The plan is a pure function of the stream and the policy: execution speed
/// (and therefore worker count) cannot influence which requests share a
/// batch. The simulation is event-driven — it jumps between arrival ticks and
/// queue deadlines — so sparse streams with large tick gaps cost nothing.
///
/// # Flush order
///
/// At each simulated tick, every arrival at or before the tick is enqueued
/// *first*, then the queue is polled repeatedly until it stops flushing. Two
/// consequences worth spelling out:
///
/// * A burst larger than `max_batch` landing on one tick splits into
///   consecutive batches of `max_batch` (in arrival order) that all close on
///   the arrival tick itself; a remainder smaller than `max_batch` stays
///   queued until it fills or its deadline expires. An empty stream yields an
///   empty plan.
/// * With `max_wait_ticks == 0` the oldest request is always already expired,
///   so every arrival tick flushes its whole backlog immediately: requests
///   sharing an arrival tick still coalesce (in `max_batch`-sized chunks),
///   but nothing ever waits for later arrivals.
///
/// # Panics
///
/// Panics if the stream is not sorted by arrival tick.
pub fn plan_batches(requests: Vec<Request>, cfg: BatchConfig) -> Vec<PlannedBatch> {
    replay(requests, cfg, |_, _| true)
}

/// [`plan_batches`] behind an admission gate: `admit(request, backlog)` sees
/// each arrival with the number of requests queued ahead of it, and a
/// request it refuses never enters the queue. Shedding and batching come
/// from this one replay, so the backlog a gate sees is exactly the queue the
/// flushes drain.
///
/// # Panics
///
/// Panics if the stream is not sorted by arrival tick.
pub(crate) fn replay(
    requests: Vec<Request>,
    cfg: BatchConfig,
    mut admit: impl FnMut(&Request, usize) -> bool,
) -> Vec<PlannedBatch> {
    assert!(
        requests
            .windows(2)
            .all(|w| w[0].arrival_tick <= w[1].arrival_tick),
        "request stream must be sorted by arrival_tick"
    );
    let mut queue = BatchingQueue::new(cfg);
    let mut plans = Vec::new();
    let mut iter = requests.into_iter().peekable();
    let Some(mut now) = iter.peek().map(|r| r.arrival_tick) else {
        return plans;
    };
    loop {
        while let Some(request) = iter.next_if(|r| r.arrival_tick <= now) {
            if admit(&request, queue.pending()) {
                queue.push(request);
            }
        }
        while let Some(batch) = queue.poll(now) {
            plans.push(PlannedBatch {
                close_tick: now,
                requests: batch,
            });
        }
        // The next event: an arrival or the oldest request's deadline. Both
        // lie past `now`, and a deadline at `u64::MAX` flushes everything.
        let next_arrival = iter.peek().map(|r| r.arrival_tick);
        match next_arrival.into_iter().chain(queue.deadline()).min() {
            Some(next) => now = next,
            None => break,
        }
    }
    plans
}

/// The idealised execution-cost model charged per flushed batch.
///
/// A batch of `b` examples through a model costing `M` multiplications per
/// example takes `overhead + ceil(b·M / (muls_per_worker_tick · workers))`
/// ticks: linear scaling in worker count, plus a fixed dispatch/gather
/// overhead that keeps tiny batches from being free. Deterministic by
/// construction — the bench's requests/sec figures are reproducible on any
/// host, unlike wall-clock timings on a loaded or single-core machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceModel {
    /// Multiplications one worker retires per tick.
    pub muls_per_worker_tick: u64,
    /// Fixed per-batch dispatch/gather cost in ticks.
    pub batch_overhead_ticks: u64,
}

impl Default for ServiceModel {
    fn default() -> Self {
        ServiceModel {
            muls_per_worker_tick: 1024,
            batch_overhead_ticks: 2,
        }
    }
}

impl ServiceModel {
    /// The cost model for models on the 16-bit fixed-point backend
    /// (`permdnn_core::qlinear`): a 16-bit integer MAC datapath retires ~4×
    /// the multiplies per cycle of an f32 one at matched area/power (narrower
    /// multipliers, halved operand bandwidth — the reason the paper's
    /// hardware is fixed-point in the first place), so a worker tick retires
    /// 4× the default's multiplications.
    pub fn fixed_point() -> Self {
        ServiceModel {
            muls_per_worker_tick: 4096,
            batch_overhead_ticks: 2,
        }
    }

    /// Ticks to execute a batch costing `total_muls` on `workers` workers
    /// (saturating at `u64::MAX`).
    pub fn batch_ticks(&self, total_muls: u64, workers: usize) -> u64 {
        let throughput = self
            .muls_per_worker_tick
            .max(1)
            .saturating_mul(workers.max(1) as u64);
        self.batch_overhead_ticks
            .saturating_add(total_muls.div_ceil(throughput).max(1))
    }
}

/// A model the serving loop can run: batched forward through the executor,
/// plus the per-example arithmetic cost the [`ServiceModel`] charges.
///
/// Implemented by `permdnn_nn::MlpClassifier` (any multi-layer network of
/// `CompressedFc` / activation layers) and by [`SingleLayerModel`] for
/// serving one bare [`CompressedLinear`] operator.
pub trait BatchModel: Send + Sync {
    /// Input vector length.
    fn in_dim(&self) -> usize;
    /// Output vector length.
    fn out_dim(&self) -> usize;
    /// Real multiplications one example costs through the whole model on a
    /// dense input (the cost the [`ServiceModel`] converts into ticks).
    fn mul_count_per_example(&self) -> u64;
    /// Batched forward pass on the executor's worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] if `xs.dim() != in_dim()`.
    fn forward_batch(
        &self,
        xs: &BatchView<'_>,
        exec: &ParallelExecutor,
    ) -> Result<Matrix, FormatError>;

    /// Batched forward pass into a caller-owned output matrix, letting serve
    /// loops reuse one allocation across batches. The default delegates to
    /// [`forward_batch`](Self::forward_batch) and moves the result into
    /// `out`; implementations that can write into `out` directly override
    /// it: [`SingleLayerModel`], and `permdnn_nn::MlpClassifier`, whose
    /// override is the stage loop ([`run_stages`](crate::paging::run_stages)).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] if `xs.dim() != in_dim()`.
    fn forward_batch_into(
        &self,
        xs: &BatchView<'_>,
        exec: &ParallelExecutor,
        out: &mut Matrix,
    ) -> Result<(), FormatError> {
        *out = self.forward_batch(xs, exec)?;
        Ok(())
    }
}

/// The trivial [`BatchModel`]: one [`CompressedLinear`] operator, no bias, no
/// activation.
pub struct SingleLayerModel {
    op: Arc<dyn CompressedLinear>,
}

impl SingleLayerModel {
    /// Wraps an operator as a servable model.
    pub fn new(op: Arc<dyn CompressedLinear>) -> Self {
        SingleLayerModel { op }
    }
}

impl BatchModel for SingleLayerModel {
    fn in_dim(&self) -> usize {
        self.op.in_dim()
    }

    fn out_dim(&self) -> usize {
        self.op.out_dim()
    }

    fn mul_count_per_example(&self) -> u64 {
        self.op.mul_count()
    }

    fn forward_batch(
        &self,
        xs: &BatchView<'_>,
        exec: &ParallelExecutor,
    ) -> Result<Matrix, FormatError> {
        exec.matmul(&self.op, xs)
    }

    fn forward_batch_into(
        &self,
        xs: &BatchView<'_>,
        exec: &ParallelExecutor,
        out: &mut Matrix,
    ) -> Result<(), FormatError> {
        exec.matmul_into(&self.op, xs, out)
    }
}

/// Everything the serving loop needs besides the model and the executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Batch-coalescing policy.
    pub batching: BatchConfig,
    /// Execution-cost model.
    pub service: ServiceModel,
}

/// The outcome of serving one request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Every request, with its output and latency bookkeeping, in completion
    /// order.
    pub completed: Vec<CompletedRequest>,
    /// Sizes of the executed batches, in execution order.
    pub batch_sizes: Vec<usize>,
    /// Tick the last batch finished (the makespan end).
    pub final_tick: u64,
    /// Tick the first request arrived (the makespan start).
    pub first_arrival_tick: u64,
    /// Worker count the stream was served with.
    pub workers: usize,
}

impl ServeReport {
    /// Total simulated serving time in ticks.
    pub fn makespan_ticks(&self) -> u64 {
        makespan(self.first_arrival_tick, self.final_tick)
    }

    /// Requests served per second at a nominal tick rate of `tick_hz`.
    pub fn requests_per_sec(&self, tick_hz: f64) -> f64 {
        per_second(self.completed.len(), self.makespan_ticks(), tick_hz)
    }

    /// Latency percentile in ticks (`q` in `[0, 1]`; nearest-rank on the
    /// sorted latencies). Returns 0 for an empty report.
    pub fn latency_percentile_ticks(&self, q: f64) -> u64 {
        self.latency_percentiles_ticks(&[q])[0]
    }

    /// Several latency percentiles from one sort of the completion list — the
    /// p50/p95/p99 triple every bench sweep reads. Each value is bit-identical
    /// to the corresponding [`Self::latency_percentile_ticks`] call.
    pub fn latency_percentiles_ticks(&self, qs: &[f64]) -> Vec<u64> {
        latency_percentiles(self.completed.iter().map(|c| c.latency_ticks()), qs)
    }

    /// Mean executed batch size.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batch_sizes.is_empty() {
            return 0.0;
        }
        self.batch_sizes.iter().sum::<usize>() as f64 / self.batch_sizes.len() as f64
    }
}

/// Ticks from the first arrival to the final completion; 0 when nothing
/// finished after the first arrival. Every report's makespan.
pub(crate) fn makespan(first_arrival_tick: u64, final_tick: u64) -> u64 {
    final_tick.saturating_sub(first_arrival_tick)
}

/// `served` requests over `ticks` at a nominal `tick_hz`; 0 for an empty
/// makespan. Every report's requests per second.
pub(crate) fn per_second(served: usize, ticks: u64, tick_hz: f64) -> f64 {
    if ticks == 0 {
        return 0.0;
    }
    served as f64 / (ticks as f64 / tick_hz)
}

/// Nearest-rank percentiles of `latencies`, from one sort. Every report's
/// latency percentiles.
pub(crate) fn latency_percentiles(latencies: impl Iterator<Item = u64>, qs: &[f64]) -> Vec<u64> {
    let mut sorted: Vec<u64> = latencies.collect();
    sorted.sort_unstable();
    qs.iter()
        .map(|&q| percentile_of_sorted(&sorted, q))
        .collect()
}

/// Nearest-rank percentile over an already-sorted latency list; 0 when empty.
/// The one percentile definition every report type shares.
pub(crate) fn percentile_of_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// The single-engine timeline of a stream served by one model: the first
/// arrival (the makespan start) and each planned batch with its completion
/// tick. A batch starts once it has closed and the previous batch has
/// completed, and holds the engine for its [`ServiceModel`] ticks.
fn timeline(
    requests: Vec<Request>,
    cfg: &ServeConfig,
    mul_count_per_example: u64,
    workers: usize,
) -> (u64, Vec<(PlannedBatch, u64)>) {
    let first_arrival_tick = requests.first().map_or(0, |r| r.arrival_tick);
    let mut engine_free = first_arrival_tick;
    let batches = plan_batches(requests, cfg.batching)
        .into_iter()
        .map(|plan| {
            let size = plan.requests.len() as u64;
            let ticks = cfg
                .service
                .batch_ticks(mul_count_per_example.saturating_mul(size), workers);
            engine_free = plan.close_tick.max(engine_free).saturating_add(ticks);
            (plan, engine_free)
        })
        .collect();
    (first_arrival_tick, batches)
}

/// Serves a request stream: plans batches with [`plan_batches`], then executes
/// them in order on the model — real outputs from the worker pool, service
/// time charged by the [`ServiceModel`]. A batch starts at
/// `max(close_tick, previous batch's completion)`.
///
/// # Errors
///
/// Returns [`FormatError::DimensionMismatch`] if any request's input length
/// differs from `model.in_dim()`.
pub fn serve(
    model: &dyn BatchModel,
    exec: &ParallelExecutor,
    cfg: &ServeConfig,
    requests: Vec<Request>,
) -> Result<ServeReport, FormatError> {
    let in_dim = model.in_dim();
    let (first_arrival_tick, batches) =
        timeline(requests, cfg, model.mul_count_per_example(), exec.workers());
    let final_tick = batches.last().map_or(first_arrival_tick, |&(_, end)| end);

    let mut completed = Vec::new();
    let mut batch_sizes = Vec::with_capacity(batches.len());
    let mut input = Vec::new();
    let mut outputs = Matrix::zeros(0, 0);
    for (plan, completion_tick) in batches {
        let batch = plan.requests.len();
        input.clear();
        for request in &plan.requests {
            permdnn_core::format::check_dim("serve", in_dim, request.input.len())?;
            input.extend_from_slice(&request.input);
        }
        let xs = BatchView::new(&input, batch, in_dim)?;
        model.forward_batch_into(&xs, exec, &mut outputs)?;

        for (i, request) in plan.requests.into_iter().enumerate() {
            completed.push(CompletedRequest {
                id: request.id,
                arrival_tick: request.arrival_tick,
                completion_tick,
                batch_size: batch,
                output: outputs.row(i).to_vec(),
            });
        }
        batch_sizes.push(batch);
    }

    Ok(ServeReport {
        completed,
        batch_sizes,
        final_tick,
        first_arrival_tick,
        workers: exec.workers(),
    })
}

/// Predicts the final completion tick [`serve`] will report for a stream,
/// without executing any arithmetic: it folds the same single-engine timeline
/// over a model described only by its per-example multiplication count. This
/// is the modeled-throughput side of the autotuner's score — `pareto_sweep`
/// asserts a served run's `final_tick` equals this prediction exactly,
/// confirming the `mul_count` objective the search optimised is the same
/// quantity the serving runtime charges.
pub fn modeled_completion_ticks(
    requests: &[Request],
    cfg: &ServeConfig,
    mul_count_per_example: u64,
    workers: usize,
) -> u64 {
    let (first_arrival_tick, batches) =
        timeline(requests.to_vec(), cfg, mul_count_per_example, workers);
    batches.last().map_or(first_arrival_tick, |&(_, end)| end)
}

/// Generates a ChaCha-seeded request stream: exponential inter-arrival gaps
/// with the given mean (0 ⇒ every request arrives at tick 0, the saturated
/// closed-loop mode the throughput bench uses) and uniform inputs in
/// `[-1, 1)`. Deterministic per seed.
///
/// This is the [`UniformProcess`](crate::traffic::UniformProcess) arrival
/// generator (of which it is now a thin wrapper), kept for source
/// compatibility and because every committed serving baseline
/// (`BENCH_serve.json`, `BENCH_models.json`) was generated through it — the
/// `traffic` module's regression test pins the two paths bit-for-bit.
///
/// # Panics
///
/// Panics if `mean_interarrival_ticks` is negative or not finite (historical
/// behavior was a garbage stream; the typed-error path is
/// [`UniformProcess::new`](crate::traffic::UniformProcess::new)).
pub fn seeded_request_stream(
    seed: u64,
    n_requests: usize,
    in_dim: usize,
    mean_interarrival_ticks: f64,
) -> Vec<Request> {
    crate::traffic::UniformProcess::new(in_dim, mean_interarrival_ticks)
        .expect("mean_interarrival_ticks must be finite and >= 0")
        .stream(seed, n_requests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_tensor::init::seeded_rng;
    use permdnn_core::BlockPermDiagMatrix;

    fn req(id: u64, tick: u64) -> Request {
        Request {
            id,
            arrival_tick: tick,
            input: vec![0.0],
        }
    }

    #[test]
    fn queue_flushes_on_full_batch() {
        let mut q = BatchingQueue::new(BatchConfig::new(3, 100));
        q.push(req(0, 0));
        q.push(req(1, 1));
        assert!(q.poll(1).is_none());
        q.push(req(2, 2));
        let batch = q.poll(2).unwrap();
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn queue_flushes_partial_batch_on_deadline() {
        let mut q = BatchingQueue::new(BatchConfig::new(8, 5));
        q.push(req(0, 10));
        assert!(q.poll(14).is_none());
        let batch = q.poll(15).unwrap();
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn queue_caps_each_flush_at_max_batch() {
        let mut q = BatchingQueue::new(BatchConfig::new(2, 100));
        for i in 0..5 {
            q.push(req(i, 0));
        }
        assert_eq!(q.poll(0).unwrap().len(), 2);
        assert_eq!(q.poll(0).unwrap().len(), 2);
        // The trailing request arrived at 0 too: wait already expired? No —
        // only 0 ticks elapsed, so it waits for the deadline or more arrivals.
        assert!(q.poll(0).is_none());
        assert_eq!(q.poll(100).unwrap().len(), 1);
    }

    #[test]
    fn hand_built_zero_max_batch_behaves_as_one() {
        // `BatchConfig`'s fields are public; a zero cap built around the
        // constructor's assert must not produce empty flushes (which would
        // spin plan_batches forever).
        let cfg = BatchConfig {
            max_batch: 0,
            max_wait_ticks: 3,
        };
        let mut q = BatchingQueue::new(cfg);
        q.push(req(0, 0));
        q.push(req(1, 0));
        assert_eq!(q.poll(0).unwrap().len(), 1);
        assert_eq!(q.poll(0).unwrap().len(), 1);
        assert!(q.poll(0).is_none());
        let plans = plan_batches(vec![req(0, 0), req(1, 1)], cfg);
        assert_eq!(plans.len(), 2, "plan terminates and serves every request");
    }

    #[test]
    fn plan_is_independent_of_everything_but_the_stream() {
        let stream: Vec<Request> = (0..20).map(|i| req(i, i * 3)).collect();
        let cfg = BatchConfig::new(4, 7);
        let a = plan_batches(stream.clone(), cfg);
        let b = plan_batches(stream, cfg);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let total: usize = a.iter().map(|p| p.requests.len()).sum();
        assert_eq!(total, 20, "every request lands in exactly one batch");
    }

    #[test]
    fn plan_of_empty_stream_is_empty() {
        assert!(plan_batches(Vec::new(), BatchConfig::new(4, 10)).is_empty());
        assert!(plan_batches(Vec::new(), BatchConfig::new(1, 0)).is_empty());
    }

    #[test]
    fn plan_with_zero_max_wait_flushes_each_arrival_tick() {
        // max_wait 0: nothing waits for later arrivals, but same-tick
        // arrivals still coalesce.
        let stream = vec![req(0, 0), req(1, 0), req(2, 5), req(3, 9)];
        let plans = plan_batches(stream, BatchConfig::new(8, 0));
        let shape: Vec<(u64, Vec<u64>)> = plans
            .iter()
            .map(|p| {
                (
                    p.close_tick,
                    p.requests.iter().map(|r| r.id).collect::<Vec<_>>(),
                )
            })
            .collect();
        assert_eq!(
            shape,
            vec![(0, vec![0, 1]), (5, vec![2]), (9, vec![3])],
            "each arrival tick flushes immediately, co-arrivals coalesce"
        );
    }

    #[test]
    fn plan_splits_single_tick_burst_into_max_batch_chunks() {
        // 10 requests on one tick, max_batch 4: two full batches close on the
        // arrival tick itself; the remainder of 2 waits for its deadline.
        let stream: Vec<Request> = (0..10).map(|i| req(i, 7)).collect();
        let plans = plan_batches(stream, BatchConfig::new(4, 6));
        let shape: Vec<(u64, Vec<u64>)> = plans
            .iter()
            .map(|p| {
                (
                    p.close_tick,
                    p.requests.iter().map(|r| r.id).collect::<Vec<_>>(),
                )
            })
            .collect();
        assert_eq!(
            shape,
            vec![
                (7, vec![0, 1, 2, 3]),
                (7, vec![4, 5, 6, 7]),
                (13, vec![8, 9]),
            ],
            "burst splits in arrival order; remainder flushes at its deadline"
        );
    }

    #[test]
    fn plan_respects_deadline_for_stragglers() {
        // One early request, then a long gap: the deadline must flush it.
        let stream = vec![req(0, 0), req(1, 1000)];
        let plans = plan_batches(stream, BatchConfig::new(8, 10));
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].close_tick, 10);
        assert_eq!(plans[1].close_tick, 1010);
    }

    #[test]
    fn service_model_scales_linearly_with_workers() {
        let m = ServiceModel {
            muls_per_worker_tick: 100,
            batch_overhead_ticks: 0,
        };
        assert_eq!(m.batch_ticks(10_000, 1), 100);
        assert_eq!(m.batch_ticks(10_000, 4), 25);
        assert_eq!(m.batch_ticks(1, 4), 1, "at least one tick per batch");
    }

    #[test]
    fn serve_returns_correct_outputs_and_latencies() {
        let op: Arc<dyn CompressedLinear> =
            Arc::new(BlockPermDiagMatrix::random(8, 8, 4, &mut seeded_rng(1)));
        let model = SingleLayerModel::new(Arc::clone(&op));
        let exec = ParallelExecutor::new(2);
        let cfg = ServeConfig {
            batching: BatchConfig::new(4, 50),
            service: ServiceModel::default(),
        };
        let stream = seeded_request_stream(7, 10, 8, 3.0);
        let report = serve(&model, &exec, &cfg, stream.clone()).unwrap();
        assert_eq!(report.completed.len(), 10);
        for done in &report.completed {
            let reference = op.matvec(&stream[done.id as usize].input).unwrap();
            assert_eq!(done.output, reference, "request {}", done.id);
            assert!(done.completion_tick > done.arrival_tick);
        }
        assert_eq!(
            report.batch_sizes.iter().sum::<usize>(),
            10,
            "each request served once"
        );
    }

    #[test]
    fn serve_rejects_wrong_input_length() {
        let op: Arc<dyn CompressedLinear> =
            Arc::new(BlockPermDiagMatrix::random(8, 8, 4, &mut seeded_rng(2)));
        let model = SingleLayerModel::new(op);
        let exec = ParallelExecutor::sequential();
        let cfg = ServeConfig {
            batching: BatchConfig::new(2, 0),
            service: ServiceModel::default(),
        };
        let bad = vec![Request {
            id: 0,
            arrival_tick: 0,
            input: vec![0.0; 5],
        }];
        assert!(matches!(
            serve(&model, &exec, &cfg, bad),
            Err(FormatError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn saturated_stream_throughput_scales_with_workers() {
        let op: Arc<dyn CompressedLinear> =
            Arc::new(BlockPermDiagMatrix::random(64, 64, 4, &mut seeded_rng(3)));
        let model = SingleLayerModel::new(op);
        let cfg = ServeConfig {
            batching: BatchConfig::new(32, 0),
            service: ServiceModel {
                muls_per_worker_tick: 64,
                batch_overhead_ticks: 1,
            },
        };
        let stream = seeded_request_stream(9, 128, 64, 0.0);
        let one = serve(&model, &ParallelExecutor::new(1), &cfg, stream.clone()).unwrap();
        let four = serve(&model, &ParallelExecutor::new(4), &cfg, stream).unwrap();
        let speedup = four.requests_per_sec(1_000_000.0) / one.requests_per_sec(1_000_000.0);
        assert!(speedup > 1.5, "4 workers vs 1: {speedup:.2}x");
        // Identical outputs regardless of worker count.
        for (a, b) in one.completed.iter().zip(four.completed.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.output, b.output);
        }
    }

    #[test]
    fn modeled_ticks_match_the_serve_loop_exactly() {
        let op: Arc<dyn CompressedLinear> =
            Arc::new(BlockPermDiagMatrix::random(16, 16, 4, &mut seeded_rng(5)));
        let model = SingleLayerModel::new(op);
        let cfg = ServeConfig {
            batching: BatchConfig::new(4, 6),
            service: ServiceModel::default(),
        };
        for (mean, workers) in [(0.0, 1), (0.0, 3), (2.5, 2), (7.0, 7)] {
            let stream = seeded_request_stream(11, 30, 16, mean);
            let report = serve(
                &model,
                &ParallelExecutor::new(workers),
                &cfg,
                stream.clone(),
            )
            .unwrap();
            assert_eq!(
                modeled_completion_ticks(&stream, &cfg, model.mul_count_per_example(), workers),
                report.final_tick,
                "mean {mean}, {workers} workers"
            );
        }
    }

    #[test]
    fn request_stream_is_deterministic_per_seed() {
        let a = seeded_request_stream(42, 16, 4, 2.5);
        let b = seeded_request_stream(42, 16, 4, 2.5);
        let c = seeded_request_stream(43, 16, 4, 2.5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0].arrival_tick <= w[1].arrival_tick));
    }
}

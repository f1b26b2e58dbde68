//! Multi-model serving: a [`ModelRegistry`] holds model snapshots by id,
//! materialises them on demand through a pluggable loader, serves
//! heterogeneous request streams routed per model through the existing
//! batching/parallel-execution path, and keeps resident weights under a byte
//! budget with LRU eviction.
//!
//! The registry deliberately stores *snapshot bytes*, not live models: bytes
//! are the durable artifact (they survive restarts and travel between
//! processes), and a model evicted from the weight cache is transparently
//! rebuilt from its bytes the next time a request routes to it — the
//! load-compressed-then-execute split the PermDNN/EIE deployment model
//! assumes. The loader is injected ([`ModelLoader`]) so this crate stays
//! independent of the model zoo; `permdnn_nn::snapshot::batch_model_loader`
//! provides the workspace's standard one.
//!
//! Serving ([`ModelRegistry::serve_multi`]) keeps the determinism contract of
//! [`serve`](crate::serve): per-model batch formation is a pure function of
//! each model's arrival stream and the [`BatchConfig`](crate::BatchConfig);
//! the merged execution order is a pure function of the batch plans (close
//! tick, then model id); and outputs are bit-for-bit identical for any worker
//! count. Hot swaps ([`ModelRegistry::schedule_swap`]) apply *between*
//! batches at a declared tick, so a swap can never tear a batch.
//!
//! [`ModelRegistry::serve_traffic`] layers SLO-aware serving on the same
//! datapath: models carry a [`SloTarget`] (attached at
//! [`ModelRegistry::insert_with_slo`]), over-budget arrivals are shed with a
//! typed [`Rejection`] inside batch formation, and the merged batch plans
//! execute under an [`AdmissionPolicy`] (`Fifo` / `Priority` /
//! `EarliestDeadline`) decided on a reference timeline — so admission and
//! ordering stay bit-identical across worker counts too. Both calls run the
//! one [`schedule`](crate::slo) pass and only execute its result;
//! `serve_multi` is its `Fifo`, no-shedding case.
//!
//! A registry built with [`ModelRegistry::new_paged`] runs in
//! [`ResidencyMode::Paged`] — "Memory-Efficient mode": block-streamed
//! snapshots ([`KIND_BLOCKED`]) load as metadata-sized *skeletons*
//! ([`PagedModel`]) and the LRU byte budget is enforced at weight-*block*
//! granularity. Before a batch executes, the registry faults in exactly the
//! blocks that batch's model needs (each checked against its stored CRC and
//! decoded in place via [`load_block`], never touching the rest of the
//! container), a deterministic prefetch hook pages the *next* scheduled
//! batch's model in the idle gap, and eviction drops cold blocks, not whole
//! models. Faults are charged ticks by a [`PagingModel`], so a model whose
//! weights exceed `budget_bytes` serves correctly — just slower — with
//! outputs bit-identical to an unlimited-budget whole-load run.

use std::collections::BTreeMap;
use std::sync::Arc;

use pd_tensor::Matrix;
use permdnn_core::format::{BatchView, FormatError};
use permdnn_core::snapshot::{load_block, peek_kind, SnapshotError, KIND_BLOCKED};

use crate::executor::ParallelExecutor;
use crate::paging::{PagedConfig, PagedModel, PagingModel};
use crate::serve::{
    latency_percentiles, makespan, per_second, BatchModel, CompletedRequest, Request, ServeConfig,
};
use crate::slo::{
    schedule, AdmissionPolicy, ModelCost, Rejection, Schedule, ScheduledBatch, SloTally, SloTarget,
    TrafficConfig,
};

/// Rebuilds a servable model from snapshot bytes. Injected into
/// [`ModelRegistry::new`]; `permdnn_nn::snapshot::batch_model_loader` is the
/// workspace's standard implementation.
pub type ModelLoader =
    Box<dyn Fn(&[u8]) -> Result<Arc<dyn BatchModel>, SnapshotError> + Send + Sync>;

/// Errors from registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No model is registered under the requested id.
    UnknownModel {
        /// The id that failed to resolve.
        id: String,
    },
    /// The snapshot bytes failed to parse or load.
    Snapshot(SnapshotError),
    /// A hot-swap replacement's input/output widths differ from the model it
    /// replaces — installing it would break every in-flight request stream.
    ShapeMismatch {
        /// The id being swapped.
        id: String,
        /// `(in_dim, out_dim)` of the currently registered model.
        current: (usize, usize),
        /// `(in_dim, out_dim)` of the rejected replacement.
        replacement: (usize, usize),
    },
    /// A request's input did not match its model.
    Format(FormatError),
    /// In [`ResidencyMode::Paged`], a non-blocked snapshot larger than the
    /// byte budget was inserted: it can neither be admitted whole nor paged.
    /// (Whole-load mode instead admits it under the never-evict-the-routed-
    /// model carve-out — see [`ModelRegistry::new`].)
    OverBudget {
        /// The id that was being inserted.
        id: String,
        /// Size of the rejected snapshot.
        bytes: u64,
        /// The registry's resident-byte budget.
        budget_bytes: u64,
    },
    /// The id resolves to a block-paged model, which has no whole
    /// materialisation to hand out. Serve it through
    /// [`ModelRegistry::serve_multi`] / [`ModelRegistry::serve_traffic`],
    /// which fault its blocks per batch.
    PagedResidency {
        /// The paged model's id.
        id: String,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownModel { id } => write!(f, "no model registered as {id:?}"),
            RegistryError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            RegistryError::ShapeMismatch {
                id,
                current,
                replacement,
            } => write!(
                f,
                "swap of {id:?} rejected: replacement is {}x{}, current model is {}x{}",
                replacement.1, replacement.0, current.1, current.0
            ),
            RegistryError::Format(e) => write!(f, "format error: {e}"),
            RegistryError::OverBudget {
                id,
                bytes,
                budget_bytes,
            } => write!(
                f,
                "insert of {id:?} rejected: {bytes} snapshot bytes exceed the {budget_bytes}-byte \
                 budget and the snapshot is not block-streamed (block_stream_snapshot it first)"
            ),
            RegistryError::PagedResidency { id } => write!(
                f,
                "{id:?} is a block-paged model with no whole materialisation; serve it through \
                 serve_multi/serve_traffic"
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<SnapshotError> for RegistryError {
    fn from(e: SnapshotError) -> Self {
        RegistryError::Snapshot(e)
    }
}

impl From<FormatError> for RegistryError {
    fn from(e: FormatError) -> Self {
        RegistryError::Format(e)
    }
}

/// How a registry keeps model weights resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResidencyMode {
    /// Models load whole and evict whole (the default,
    /// [`ModelRegistry::new`]).
    Whole,
    /// Block-streamed models page weight blocks at layer granularity under
    /// the byte budget ([`ModelRegistry::new_paged`]).
    Paged,
}

/// How one entry's weights are held.
enum Residency {
    /// The whole-snapshot cache: `Some` while resident, rebuilt from bytes
    /// on demand after eviction.
    Whole(Option<Arc<dyn BatchModel>>),
    /// A block-paged skeleton: always resident itself (metadata-sized), its
    /// weight slots fault in and out. `stamps[s]` is stage `s`'s LRU stamp
    /// (shares the registry clock with whole entries; 0 = never resident).
    Paged {
        model: Arc<PagedModel>,
        stamps: Vec<u64>,
    },
}

/// What a snapshot materialised into at insert/swap validation time.
enum Loaded {
    Whole(Arc<dyn BatchModel>),
    Paged(Arc<PagedModel>),
}

impl Loaded {
    fn dims(&self) -> (usize, usize) {
        match self {
            Loaded::Whole(m) => (m.in_dim(), m.out_dim()),
            Loaded::Paged(m) => (m.in_dim(), m.out_dim()),
        }
    }
}

/// One registered model: its durable snapshot plus the (evictable) loaded
/// instance and LRU bookkeeping. The input/output widths are recorded at
/// insert time so hot swaps can be shape-checked even while the model
/// itself is evicted.
struct ModelEntry {
    snapshot: Arc<Vec<u8>>,
    residency: Residency,
    last_used: u64,
    in_dim: usize,
    out_dim: usize,
    /// Per-example multiplication cost, recorded at insert time so admission
    /// control can estimate service ticks without materialising the model.
    mul_count: u64,
    /// The model's service-level objective, if one is attached. Swaps and
    /// re-inserts preserve it.
    slo: Option<SloTarget>,
}

/// Counters the registry accumulates across its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegistryStats {
    /// Models materialised from bytes (first loads and reloads alike; paged
    /// models count once per skeleton load, not per block).
    pub loads: u64,
    /// Reloads of a previously evicted model (cache misses after warm-up).
    pub reloads: u64,
    /// Evictions performed to respect the byte budget: whole models in
    /// [`ResidencyMode::Whole`], and individual weight blocks too in
    /// [`ResidencyMode::Paged`].
    pub evictions: u64,
    /// Hot swaps applied.
    pub swaps: u64,
    /// Weight blocks faulted into paged models' slots (demand faults and
    /// prefetches alike).
    pub blocks_faulted: u64,
    /// Snapshot bytes streamed by those block faults.
    pub bytes_faulted: u64,
    /// High-water mark of resident bytes: lifetime in
    /// [`ModelRegistry::stats`], this-run-only in the per-run delta a
    /// [`MultiServeReport`] carries.
    pub peak_resident_bytes: u64,
}

/// A request routed to a named model.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedRequest {
    /// The registry id of the model this request targets.
    pub model_id: String,
    /// The underlying request.
    pub request: Request,
}

/// One served request of a multi-model run: which model produced it plus the
/// usual completion record.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedCompletion {
    /// The model that served the request.
    pub model_id: String,
    /// Output and latency bookkeeping.
    pub completed: CompletedRequest,
}

/// Per-model tallies of one [`ModelRegistry::serve_multi`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModelServeStats {
    /// Requests served.
    pub served: usize,
    /// Batches executed.
    pub batches: usize,
    /// Ticks this model's batches occupied the engine.
    pub busy_ticks: u64,
}

/// The outcome of serving one heterogeneous request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiServeReport {
    /// Every request with its model id, in execution order.
    pub completed: Vec<TaggedCompletion>,
    /// Per-model tallies, keyed by model id.
    pub per_model: BTreeMap<String, ModelServeStats>,
    /// Tick the last batch finished.
    pub final_tick: u64,
    /// Tick the first request arrived.
    pub first_arrival_tick: u64,
    /// Worker count the stream was served with.
    pub workers: usize,
    /// Registry counter deltas accumulated during this run (reloads of
    /// evicted models, evictions, swaps applied, blocks faulted).
    /// `peak_resident_bytes` alone is not a delta: it is the high-water mark
    /// of resident bytes observed *during this run*.
    pub stats: RegistryStats,
}

impl MultiServeReport {
    /// Total simulated serving time in ticks.
    pub fn makespan_ticks(&self) -> u64 {
        makespan(self.first_arrival_tick, self.final_tick)
    }

    /// Requests served per second at a nominal tick rate of `tick_hz`.
    pub fn requests_per_sec(&self, tick_hz: f64) -> f64 {
        per_second(self.completed.len(), self.makespan_ticks(), tick_hz)
    }

    /// Latency percentile in ticks across every served request (`q` in
    /// `[0, 1]`; nearest-rank on the sorted latencies). Returns 0 for an
    /// empty report.
    pub fn latency_percentile_ticks(&self, q: f64) -> u64 {
        self.latency_percentiles_ticks(&[q])[0]
    }

    /// Several latency percentiles from one sort of the completion list — the
    /// p50/p95/p99 triple every bench sweep reads. Each value is bit-identical
    /// to the corresponding [`Self::latency_percentile_ticks`] call.
    pub fn latency_percentiles_ticks(&self, qs: &[f64]) -> Vec<u64> {
        let latencies = self.completed.iter().map(|tc| tc.completed.latency_ticks());
        latency_percentiles(latencies, qs)
    }
}

/// The outcome of one [`ModelRegistry::serve_traffic`] run: the usual serving
/// report plus everything admission control decided.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficReport {
    /// The serving outcome over the *admitted* requests.
    pub serve: MultiServeReport,
    /// Every shed request, sorted by `(tick, model, request id)`.
    pub rejections: Vec<Rejection>,
    /// Per-model SLO bookkeeping (offered / met / missed / shed), keyed by
    /// model id. Models without an SLO count every completion as met.
    pub per_model_slo: BTreeMap<String, SloTally>,
}

impl TrafficReport {
    /// Aggregate SLO tallies across every model.
    pub fn totals(&self) -> SloTally {
        self.per_model_slo.values().sum()
    }

    /// Requests offered across every model (admitted + shed).
    pub fn offered(&self) -> usize {
        self.totals().offered
    }

    /// Aggregate SLO attainment: the fraction of offered requests served
    /// within their model's deadline (shed requests count as unmet; models
    /// without an SLO count completions as met). 1.0 with no traffic.
    pub fn attainment(&self) -> f64 {
        self.totals().attainment()
    }

    /// Aggregate fraction of offered requests shed by admission control.
    pub fn shed_rate(&self) -> f64 {
        self.totals().shed_rate()
    }
}

/// Merges per-model request streams into one tagged arrival stream, sorted by
/// arrival tick (model id breaking ties) — the deterministic way tests and
/// benches build heterogeneous traffic.
pub fn interleave_streams(streams: Vec<(String, Vec<Request>)>) -> Vec<TaggedRequest> {
    let mut merged: Vec<TaggedRequest> = streams
        .into_iter()
        .flat_map(|(model_id, requests)| {
            requests.into_iter().map(move |request| TaggedRequest {
                model_id: model_id.clone(),
                request,
            })
        })
        .collect();
    merged.sort_by(|a, b| {
        (a.request.arrival_tick, &a.model_id, a.request.id).cmp(&(
            b.request.arrival_tick,
            &b.model_id,
            b.request.id,
        ))
    });
    merged
}

/// A snapshot-backed multi-model registry with a byte-budgeted LRU weight
/// cache and atomic between-batch hot swaps.
pub struct ModelRegistry {
    loader: ModelLoader,
    /// `Some` puts the registry in [`ResidencyMode::Paged`].
    paged: Option<PagedConfig>,
    budget_bytes: u64,
    entries: BTreeMap<String, ModelEntry>,
    loaded_bytes: u64,
    clock: u64,
    stats: RegistryStats,
    /// Resident-byte high-water mark of the current serving run, re-seeded
    /// by [`ModelRegistry::begin_run`]; the lifetime mark is in `stats`.
    run_peak: u64,
    pending_swaps: Vec<(u64, String, Vec<u8>)>,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("models", &self.entries.keys().collect::<Vec<_>>())
            .field("budget_bytes", &self.budget_bytes)
            .field("loaded_bytes", &self.loaded_bytes)
            .field("stats", &self.stats)
            .finish()
    }
}

impl ModelRegistry {
    /// An empty registry in whole-load mode. `budget_bytes` caps the total
    /// snapshot bytes of *resident* (loaded) models; `u64::MAX` disables
    /// eviction.
    ///
    /// Whole-load carve-out: the model most recently routed to is never
    /// evicted, so a single model larger than the budget still serves — the
    /// budget then admits nothing else, and every other model thrashes.
    /// [`ModelRegistry::new_paged`] replaces that carve-out with block
    /// paging: over-budget *blocked* models serve within budget, and an
    /// over-budget non-blocked insert becomes a typed
    /// [`RegistryError::OverBudget`].
    pub fn new(loader: ModelLoader, budget_bytes: u64) -> Self {
        ModelRegistry {
            loader,
            paged: None,
            budget_bytes,
            entries: BTreeMap::new(),
            loaded_bytes: 0,
            clock: 0,
            stats: RegistryStats::default(),
            run_peak: 0,
            pending_swaps: Vec::new(),
        }
    }

    /// An empty registry in [`ResidencyMode::Paged`] — "Memory-Efficient
    /// mode". Blocked snapshots ([`KIND_BLOCKED`]) load as skeletons through
    /// `paged.loader` and page weight blocks under `budget_bytes` at layer
    /// granularity, each fault charged ticks by `paged.paging`; non-blocked
    /// snapshots still load whole, but only if they fit the budget
    /// (otherwise [`RegistryError::OverBudget`]).
    pub fn new_paged(loader: ModelLoader, paged: PagedConfig, budget_bytes: u64) -> Self {
        let mut reg = ModelRegistry::new(loader, budget_bytes);
        reg.paged = Some(paged);
        reg
    }

    /// Which residency mode this registry runs in.
    pub fn residency_mode(&self) -> ResidencyMode {
        if self.paged.is_some() {
            ResidencyMode::Paged
        } else {
            ResidencyMode::Whole
        }
    }

    /// The tick cost model paged faults are charged with (`None` in
    /// whole-load mode).
    pub fn paging_model(&self) -> Option<PagingModel> {
        self.paged.as_ref().map(|p| p.paging)
    }

    /// Registers (or replaces) a model under `id`. The snapshot is validated
    /// by loading it once; on failure the registry is unchanged (for an
    /// existing id, the old snapshot keeps serving — this is also the
    /// immediate form of hot swap). An existing id keeps its attached
    /// [`SloTarget`], if any.
    ///
    /// # Errors
    ///
    /// Returns the loader's [`SnapshotError`] for invalid bytes.
    pub fn insert(&mut self, id: &str, snapshot: Vec<u8>) -> Result<(), RegistryError> {
        let slo = self.entries.get(id).and_then(|e| e.slo);
        self.insert_inner(id, snapshot, slo)
    }

    /// [`ModelRegistry::insert`] with a service-level objective attached: the
    /// target drives admission control and batch ordering in
    /// [`ModelRegistry::serve_traffic`]. Replaces any previous target on the
    /// id.
    ///
    /// # Errors
    ///
    /// Returns the loader's [`SnapshotError`] for invalid bytes.
    pub fn insert_with_slo(
        &mut self,
        id: &str,
        snapshot: Vec<u8>,
        slo: SloTarget,
    ) -> Result<(), RegistryError> {
        self.insert_inner(id, snapshot, Some(slo))
    }

    fn insert_inner(
        &mut self,
        id: &str,
        snapshot: Vec<u8>,
        slo: Option<SloTarget>,
    ) -> Result<(), RegistryError> {
        let loaded = self.load_for_insert(id, &snapshot)?;
        self.install_entry(id, snapshot, slo, loaded);
        Ok(())
    }

    /// Materialises snapshot bytes the way this registry's mode dictates:
    /// blocked bytes in paged mode become a skeleton, everything else loads
    /// whole — unless paged mode's budget makes whole-loading impossible,
    /// which is a typed error rather than whole-load mode's silent
    /// carve-out.
    fn load_for_insert(&self, id: &str, snapshot: &[u8]) -> Result<Loaded, RegistryError> {
        if let Some(paged) = &self.paged {
            if peek_kind(snapshot) == Some(KIND_BLOCKED) {
                return Ok(Loaded::Paged(Arc::new((paged.loader)(snapshot)?)));
            }
            let bytes = snapshot.len() as u64;
            if bytes > self.budget_bytes {
                return Err(RegistryError::OverBudget {
                    id: id.to_string(),
                    bytes,
                    budget_bytes: self.budget_bytes,
                });
            }
        }
        Ok(Loaded::Whole((self.loader)(snapshot)?))
    }

    /// Replaces (or creates) `id`'s entry with an already-validated load:
    /// the shared tail of insert and swap. Whole loads count their snapshot
    /// bytes resident immediately; paged skeletons start cold (every slot
    /// vacant, zero resident bytes).
    fn install_entry(
        &mut self,
        id: &str,
        snapshot: Vec<u8>,
        slo: Option<SloTarget>,
        loaded: Loaded,
    ) {
        self.evict_entry_model(id);
        let size = snapshot.len() as u64;
        self.clock += 1;
        let (in_dim, out_dim, mul_count, residency, resident_bytes) = match loaded {
            Loaded::Whole(m) => (
                m.in_dim(),
                m.out_dim(),
                m.mul_count_per_example(),
                Residency::Whole(Some(m)),
                size,
            ),
            Loaded::Paged(m) => (
                m.in_dim(),
                m.out_dim(),
                m.mul_count_per_example(),
                Residency::Paged {
                    stamps: vec![0; m.stages()],
                    model: m,
                },
                0,
            ),
        };
        self.entries.insert(
            id.to_string(),
            ModelEntry {
                snapshot: Arc::new(snapshot),
                in_dim,
                out_dim,
                mul_count,
                residency,
                last_used: self.clock,
                slo,
            },
        );
        self.stats.loads += 1;
        self.loaded_bytes += resident_bytes;
        self.note_peak();
        self.enforce_budget(Some(id));
    }

    /// Records a new resident-byte high-water mark, lifetime and run, if one
    /// was just set.
    fn note_peak(&mut self) {
        self.stats.peak_resident_bytes = self.stats.peak_resident_bytes.max(self.loaded_bytes);
        self.run_peak = self.run_peak.max(self.loaded_bytes);
    }

    /// Starts a serving run: re-seeds the run's resident-byte high-water mark
    /// at the bytes resident now and returns the lifetime counters
    /// [`Self::run_stats`] subtracts. The lifetime counters are only read.
    pub(crate) fn begin_run(&mut self) -> RegistryStats {
        self.run_peak = self.loaded_bytes;
        self.stats
    }

    /// The counters accumulated since [`Self::begin_run`] returned `before`,
    /// with the run's own resident-byte high-water mark.
    pub(crate) fn run_stats(&self, before: RegistryStats) -> RegistryStats {
        let now = self.stats;
        RegistryStats {
            loads: now.loads - before.loads,
            reloads: now.reloads - before.reloads,
            evictions: now.evictions - before.evictions,
            swaps: now.swaps - before.swaps,
            blocks_faulted: now.blocks_faulted - before.blocks_faulted,
            bytes_faulted: now.bytes_faulted - before.bytes_faulted,
            peak_resident_bytes: self.run_peak,
        }
    }

    /// Attaches (or, with `None`, detaches) a service-level objective on a
    /// registered model.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownModel`] if `id` is not registered.
    pub fn set_slo(&mut self, id: &str, slo: Option<SloTarget>) -> Result<(), RegistryError> {
        match self.entries.get_mut(id) {
            Some(entry) => {
                entry.slo = slo;
                Ok(())
            }
            None => Err(RegistryError::UnknownModel { id: id.to_string() }),
        }
    }

    /// The service-level objective attached to `id`, if the model is
    /// registered and has one.
    pub fn slo(&self, id: &str) -> Option<SloTarget> {
        self.entries.get(id).and_then(|e| e.slo)
    }

    /// `(in_dim, out_dim)` of a registered model, without materialising it.
    pub fn dims(&self, id: &str) -> Option<(usize, usize)> {
        self.entries.get(id).map(|e| (e.in_dim, e.out_dim))
    }

    /// Modeled multiplies per example of a registered model, without
    /// materialising it — the cost number every admission and scheduling
    /// decision keys on.
    pub fn mul_count(&self, id: &str) -> Option<u64> {
        self.entries.get(id).map(|e| e.mul_count)
    }

    /// Atomically swaps `id` to a new snapshot: the replacement is validated
    /// by loading it first — and its input/output widths must match the
    /// model it replaces, so a swap can never break the request streams
    /// already routed at `id` — and only then installed. An invalid or
    /// mis-shaped snapshot leaves the current model serving untouched. (To
    /// *re-shape* an id deliberately, use [`ModelRegistry::insert`], which
    /// replaces unconditionally.)
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownModel`] if `id` is not registered,
    /// [`RegistryError::ShapeMismatch`] for a differently-shaped
    /// replacement, or the loader's error for invalid bytes.
    pub fn swap(&mut self, id: &str, snapshot: Vec<u8>) -> Result<(), RegistryError> {
        let Some(entry) = self.entries.get(id) else {
            return Err(RegistryError::UnknownModel { id: id.to_string() });
        };
        let current = (entry.in_dim, entry.out_dim);
        let slo = entry.slo;
        let loaded = self.load_for_insert(id, &snapshot)?;
        let replacement = loaded.dims();
        if replacement != current {
            return Err(RegistryError::ShapeMismatch {
                id: id.to_string(),
                current,
                replacement,
            });
        }
        self.install_entry(id, snapshot, slo, loaded);
        self.stats.swaps += 1;
        Ok(())
    }

    /// Schedules a hot swap to apply during [`ModelRegistry::serve_multi`] at
    /// the first batch boundary at or after `at_tick` — batches that start
    /// earlier serve the old weights, later ones the new, and no batch ever
    /// sees both.
    pub fn schedule_swap(&mut self, id: &str, snapshot: Vec<u8>, at_tick: u64) {
        self.pending_swaps.push((at_tick, id.to_string(), snapshot));
        self.pending_swaps
            .sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    }

    /// Removes a model entirely, returning whether it existed. Pending hot
    /// swaps scheduled for `id` are dropped with it: a model re-inserted
    /// later under the same id is a *new* model, and must not inherit a swap
    /// (or, via [`ModelRegistry::insert`]'s SLO carry-over, an SLO target)
    /// aimed at the one that was removed.
    pub fn remove(&mut self, id: &str) -> bool {
        self.evict_entry_model(id);
        self.pending_swaps.retain(|(_, swap_id, _)| swap_id != id);
        self.entries.remove(id).is_some()
    }

    /// Registered model ids, ascending.
    pub fn ids(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no models are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `id` is registered.
    pub fn contains(&self, id: &str) -> bool {
        self.entries.contains_key(id)
    }

    /// Whether any of `id`'s weights are currently materialised in the
    /// weight cache: the whole model in [`ResidencyMode::Whole`], at least
    /// one weight block for a paged model.
    pub fn is_resident(&self, id: &str) -> bool {
        self.entries.get(id).is_some_and(|e| match &e.residency {
            Residency::Whole(m) => m.is_some(),
            Residency::Paged { model, .. } => model.any_resident(),
        })
    }

    /// Resident weight blocks of a paged model. `None` for unknown or
    /// whole-loaded ids.
    pub fn resident_blocks(&self, id: &str) -> Option<usize> {
        match &self.entries.get(id)?.residency {
            Residency::Paged { model, .. } => Some(model.resident_stages().count()),
            Residency::Whole(_) => None,
        }
    }

    /// Bytes currently resident: whole models count their snapshot size,
    /// paged models count exactly their resident blocks.
    pub fn loaded_bytes(&self) -> u64 {
        self.loaded_bytes
    }

    /// The registry's lifetime counters.
    pub fn stats(&self) -> RegistryStats {
        self.stats
    }

    /// The stored snapshot bytes of `id` (the durable artifact).
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownModel`] if `id` is not registered.
    pub fn snapshot(&self, id: &str) -> Result<Arc<Vec<u8>>, RegistryError> {
        self.entries
            .get(id)
            .map(|e| Arc::clone(&e.snapshot))
            .ok_or_else(|| RegistryError::UnknownModel { id: id.to_string() })
    }

    /// Resolves `id` to a servable model: touches the LRU clock, rebuilds the
    /// model from its snapshot if it was evicted, and evicts least-recently-
    /// used *other* models while the resident total exceeds the budget.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownModel`] for unregistered ids, or
    /// [`RegistryError::PagedResidency`] for a block-paged model (which has
    /// no whole materialisation); reload errors cannot occur for snapshots
    /// that validated at insert time but are still propagated rather than
    /// unwrapped.
    pub fn model(&mut self, id: &str) -> Result<Arc<dyn BatchModel>, RegistryError> {
        if !self.entries.contains_key(id) {
            return Err(RegistryError::UnknownModel { id: id.to_string() });
        }
        self.clock += 1;
        let clock = self.clock;
        let entry = self.entries.get_mut(id).expect("checked above");
        entry.last_used = clock;
        let snapshot = Arc::clone(&entry.snapshot);
        let model = match &mut entry.residency {
            Residency::Paged { .. } => {
                return Err(RegistryError::PagedResidency { id: id.to_string() })
            }
            Residency::Whole(Some(m)) => Arc::clone(m),
            Residency::Whole(slot @ None) => {
                let m = (self.loader)(&snapshot)?;
                *slot = Some(Arc::clone(&m));
                self.stats.loads += 1;
                self.stats.reloads += 1;
                self.loaded_bytes += snapshot.len() as u64;
                self.note_peak();
                m
            }
        };
        self.enforce_budget(Some(id));
        Ok(model)
    }

    /// Drops `id`'s loaded weights (keeping its snapshot and, for paged
    /// entries, the skeleton), adjusting the resident-byte total.
    fn evict_entry_model(&mut self, id: &str) {
        if let Some(entry) = self.entries.get_mut(id) {
            match &mut entry.residency {
                Residency::Whole(slot) => {
                    if slot.take().is_some() {
                        self.loaded_bytes -= entry.snapshot.len() as u64;
                    }
                }
                Residency::Paged { model, stamps } => {
                    self.loaded_bytes -= model.evict_all();
                    stamps.fill(0);
                }
            }
        }
    }

    /// Evicts the globally least-recently-used resident *unit* — a whole
    /// model or one paged weight block — skipping `keep` (whole entries
    /// only; block faults pin nothing, the incoming block is not resident
    /// yet). Returns whether anything was evicted. LRU stamps are unique
    /// (the clock strictly increments and both kinds share it), so the
    /// victim is deterministic.
    fn evict_lru_unit(&mut self, keep: Option<&str>) -> bool {
        let victim = self
            .entries
            .iter()
            .flat_map(|(id, e)| match &e.residency {
                Residency::Whole(Some(_)) if Some(id.as_str()) != keep => {
                    vec![(e.last_used, id.clone(), None)]
                }
                Residency::Paged { model, stamps } => model
                    .resident_stages()
                    .map(|s| (stamps[s], id.clone(), Some(s)))
                    .collect(),
                _ => Vec::new(),
            })
            .min_by_key(|(stamp, _, _)| *stamp);
        match victim {
            Some((_, id, None)) => {
                self.evict_entry_model(&id);
                self.stats.evictions += 1;
                true
            }
            Some((_, id, Some(s))) => {
                let entry = self.entries.get(&id).expect("victim ids are registered");
                let Residency::Paged { model, .. } = &entry.residency else {
                    unreachable!("block victims come from paged entries");
                };
                let (_, bytes) = model.stage_block(s).expect("victims are weight stages");
                if model.evict_stage(s) {
                    self.loaded_bytes -= bytes;
                }
                self.stats.evictions += 1;
                true
            }
            None => false,
        }
    }

    /// Evicts least-recently-used resident units (never `keep`) until the
    /// byte budget is respected or nothing evictable remains.
    fn enforce_budget(&mut self, keep: Option<&str>) {
        while self.loaded_bytes > self.budget_bytes {
            if !self.evict_lru_unit(keep) {
                break;
            }
        }
    }

    /// Evicts until `incoming` more bytes would fit the budget (or nothing
    /// evictable remains) — the admission step before a block fault. The
    /// incoming block is not resident, so nothing needs pinning; resident
    /// bytes therefore never exceed `max(budget, largest block)`.
    fn make_room_for(&mut self, incoming: u64) {
        while self.loaded_bytes.saturating_add(incoming) > self.budget_bytes {
            if !self.evict_lru_unit(None) {
                break;
            }
        }
    }

    /// Ensures stage `s` of paged model `id` is resident, returning the
    /// modeled ticks the fault cost (0 if it was already resident or is a
    /// never-paged stage). Decodes exactly that stage's block in place after
    /// one check against its stored CRC — the rest of the container
    /// untouched.
    fn fault_stage(&mut self, id: &str, s: usize) -> Result<u64, RegistryError> {
        let (model, snapshot) = {
            let entry = self.entries.get(id).expect("fault callers check the id");
            let Residency::Paged { model, .. } = &entry.residency else {
                unreachable!("fault_stage is only called on paged entries");
            };
            (Arc::clone(model), Arc::clone(&entry.snapshot))
        };
        let Some((block, bytes)) = model.stage_block(s) else {
            return Ok(0);
        };
        self.clock += 1;
        let mut ticks = 0;
        if !model.is_stage_resident(s) {
            self.make_room_for(bytes);
            let paged = self.paged.as_ref().expect("paged entries imply paged mode");
            model.install(s, load_block(&snapshot, block, &paged.codec)?)?;
            ticks = paged.paging.fault_ticks(bytes);
            self.loaded_bytes += bytes;
            self.note_peak();
            self.stats.blocks_faulted += 1;
            self.stats.bytes_faulted += bytes;
        }
        if let Some(Residency::Paged { stamps, .. }) =
            self.entries.get_mut(id).map(|e| &mut e.residency)
        {
            stamps[s] = self.clock;
        }
        Ok(ticks)
    }

    /// The deterministic prefetch hook: pages `id`'s weight blocks in stage
    /// order, stopping before the blocks fetched so far would overflow the
    /// budget — so an over-budget model keeps its *early* stages resident
    /// between batches instead of thrashing the whole chain — and returns
    /// the modeled ticks spent. Whole-loaded ids cost nothing here.
    fn prefetch_model(&mut self, id: &str) -> Result<u64, RegistryError> {
        let model = match self.entries.get(id).map(|e| &e.residency) {
            Some(Residency::Paged { model, .. }) => Arc::clone(model),
            _ => return Ok(0),
        };
        let mut cumulative = 0u64;
        let mut ticks = 0u64;
        for s in 0..model.stages() {
            let Some((_, bytes)) = model.stage_block(s) else {
                continue;
            };
            cumulative += bytes;
            if cumulative > self.budget_bytes {
                break;
            }
            ticks = ticks.saturating_add(self.fault_stage(id, s)?);
        }
        Ok(ticks)
    }

    /// Runs one batch through a paged model, demand-faulting each stage just
    /// before it executes, and writes the batch outputs into `outputs`.
    /// Returns the total demand-fault ticks. The stage loop is the
    /// whole-loaded model's ([`crate::paging::run_stages`]), so outputs are
    /// independent of residency history.
    fn paged_forward(
        &mut self,
        id: &str,
        input: &[f32],
        batch: usize,
        exec: &ParallelExecutor,
        outputs: &mut Matrix,
    ) -> Result<u64, RegistryError> {
        self.clock += 1;
        let clock = self.clock;
        let model = {
            let entry = self
                .entries
                .get_mut(id)
                .expect("serve routes registered ids");
            entry.last_used = clock;
            let Residency::Paged { model, .. } = &entry.residency else {
                unreachable!("paged_forward is only called on paged entries");
            };
            Arc::clone(model)
        };
        let xs = BatchView::new(input, batch, model.in_dim())?;
        let mut fault_ticks = 0u64;
        model.forward_into(&xs, exec, outputs, |s| {
            fault_ticks = fault_ticks.saturating_add(self.fault_stage(id, s)?);
            Ok::<(), RegistryError>(())
        })?;
        Ok(fault_ticks)
    }

    /// Applies every pending swap scheduled at or before `tick`. Invalid
    /// replacement snapshots are dropped (the old model keeps serving) —
    /// a mid-stream swap must never poison a running service.
    fn apply_swaps_due(&mut self, tick: u64) -> usize {
        let mut applied = 0;
        while self
            .pending_swaps
            .first()
            .is_some_and(|(at, _, _)| *at <= tick)
        {
            let (_, id, snapshot) = self.pending_swaps.remove(0);
            if self.entries.contains_key(&id) && self.swap(&id, snapshot).is_ok() {
                applied += 1;
            }
        }
        applied
    }

    /// Serves a heterogeneous request stream: requests are routed to their
    /// model's own [`BatchingQueue`](crate::serve::BatchingQueue) policy (per-
    /// model batch plans — batches never mix models), the resulting batches
    /// execute in deterministic order (close tick, then model id) on one
    /// shared engine timeline, and each batch's service time is charged by
    /// the [`ServeConfig`]'s cost model at that model's per-example cost.
    /// Scheduled hot swaps apply at batch boundaries.
    ///
    /// Outputs are bit-for-bit identical for any worker count, and the batch
    /// plans are a pure function of the arrival streams and the batching
    /// policy — the same determinism contract as single-model
    /// [`serve`](crate::serve::serve).
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownModel`] if a request routes to an
    /// unregistered id, or [`RegistryError::Format`] if an input length does
    /// not match its model.
    pub fn serve_multi(
        &mut self,
        exec: &ParallelExecutor,
        cfg: &ServeConfig,
        requests: Vec<TaggedRequest>,
    ) -> Result<MultiServeReport, RegistryError> {
        self.serve_admitted(exec, cfg, AdmissionPolicy::Fifo, requests)
    }

    /// Serves a heterogeneous request stream under admission control and a
    /// scheduling policy: per-model arrival streams pass through admission
    /// (requests exceeding their model's [`SloTarget`] queue-depth bound or
    /// already deadline-infeasible on arrival are shed with a typed
    /// [`Rejection`]), the admitted sub-streams form per-model batch plans
    /// exactly as [`ModelRegistry::serve_multi`] does, and the merged plans
    /// execute in the order [`TrafficConfig::policy`] dictates.
    ///
    /// Every admission and ordering decision is computed from the arrival
    /// streams and the *reference* cost model (one worker) — never from the
    /// executing worker count — so decisions, batch membership and outputs
    /// are bit-identical across worker counts; only completion ticks change.
    /// Models without an SLO are never shed and schedule with priority 0 and
    /// an infinite deadline.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownModel`] if a request routes to an
    /// unregistered id, or [`RegistryError::Format`] if an input length does
    /// not match its model.
    pub fn serve_traffic(
        &mut self,
        exec: &ParallelExecutor,
        cfg: &TrafficConfig,
        requests: Vec<TaggedRequest>,
    ) -> Result<TrafficReport, RegistryError> {
        let mut schedule = self.schedule(requests, &cfg.serve, cfg.policy, true)?;
        let batches = std::mem::take(&mut schedule.batches);
        let serve = self.execute(exec, &cfg.serve, schedule.first_arrival_tick, batches)?;
        let per_model_slo = schedule.slo_tallies(&serve.completed, |id| self.slo(id));
        Ok(TrafficReport {
            serve,
            rejections: schedule.rejections,
            per_model_slo,
        })
    }

    /// Schedules `requests` without shedding and executes the schedule: the
    /// loop behind [`ModelRegistry::serve_multi`] (under `Fifo`) and behind a
    /// replicated cluster host, whose substream was admitted globally.
    pub(crate) fn serve_admitted(
        &mut self,
        exec: &ParallelExecutor,
        cfg: &ServeConfig,
        policy: AdmissionPolicy,
        requests: Vec<TaggedRequest>,
    ) -> Result<MultiServeReport, RegistryError> {
        let schedule = self.schedule(requests, cfg, policy, false)?;
        self.execute(exec, cfg, schedule.first_arrival_tick, schedule.batches)
    }

    /// The one scheduling pass over this registry's models. SLO parameters
    /// and per-example costs are read at scheduling time, so a mid-run
    /// scheduled swap cannot retroactively change decisions.
    fn schedule(
        &self,
        requests: Vec<TaggedRequest>,
        cfg: &ServeConfig,
        policy: AdmissionPolicy,
        shed: bool,
    ) -> Result<Schedule, RegistryError> {
        let model = |id: &str| {
            let entry = self.entries.get(id)?;
            Some(ModelCost {
                mul_count: entry.mul_count,
                slo: entry.slo,
            })
        };
        schedule(requests, model, cfg, policy, shed)
            .map_err(|id| RegistryError::UnknownModel { id })
    }

    /// Executes a schedule's batches in order on one engine timeline: a batch
    /// starts at `max(close tick, engine ready)`, due hot swaps apply first,
    /// paged models fault their blocks in (the fault ticks stall the engine),
    /// and the next batch's model is prefetched after each completion.
    fn execute(
        &mut self,
        exec: &ParallelExecutor,
        cfg: &ServeConfig,
        first_arrival_tick: u64,
        batches: Vec<ScheduledBatch>,
    ) -> Result<MultiServeReport, RegistryError> {
        let before = self.begin_run();
        let mut completed = Vec::new();
        let mut per_model: BTreeMap<String, ModelServeStats> = BTreeMap::new();
        // When the engine can next *start* a batch: the last completion tick
        // plus any prefetch issued after it. A prefetch is free whenever the
        // gap to the next batch's close tick absorbs it.
        let mut engine_ready = first_arrival_tick;
        let mut final_tick = first_arrival_tick;
        let mut input = Vec::new();
        let mut outputs = Matrix::zeros(0, 0);
        let mut batches = batches.into_iter().peekable();
        while let Some(batch) = batches.next() {
            let id = batch.model_id;
            let start = batch.close_tick.max(engine_ready);
            self.apply_swaps_due(start);
            let entry = self.entries.get(&id).expect("routed ids stay registered");
            let in_dim = entry.in_dim;
            let mul_count = entry.mul_count;
            let paged_entry = matches!(entry.residency, Residency::Paged { .. });

            let size = batch.requests.len();
            input.clear();
            for request in &batch.requests {
                permdnn_core::format::check_dim("serve_multi", in_dim, request.input.len())?;
                input.extend_from_slice(&request.input);
            }
            // Demand faults stall the engine before execution; whole-loaded
            // models load outside the modeled timeline.
            let fault_ticks = if paged_entry {
                self.paged_forward(&id, &input, size, exec, &mut outputs)?
            } else {
                let model = self.model(&id)?;
                let xs = BatchView::new(&input, size, in_dim)?;
                model.forward_batch_into(&xs, exec, &mut outputs)?;
                0
            };

            let ticks = fault_ticks.saturating_add(
                cfg.service
                    .batch_ticks(mul_count.saturating_mul(size as u64), exec.workers()),
            );
            let completion_tick = start.saturating_add(ticks);
            final_tick = completion_tick;
            // Deterministic prefetch hook: page the next scheduled batch's
            // model right after this batch completes. Depends only on the
            // reference-decided order and fault history, so it is identical
            // for every worker count.
            let prefetch_ticks = match batches.peek() {
                Some(next) => self.prefetch_model(&next.model_id)?,
                None => 0,
            };
            engine_ready = completion_tick.saturating_add(prefetch_ticks);

            let tally = per_model.entry(id.clone()).or_default();
            tally.served += size;
            tally.batches += 1;
            tally.busy_ticks = tally.busy_ticks.saturating_add(ticks);
            for (i, request) in batch.requests.into_iter().enumerate() {
                completed.push(TaggedCompletion {
                    model_id: id.clone(),
                    completed: CompletedRequest {
                        id: request.id,
                        arrival_tick: request.arrival_tick,
                        completion_tick,
                        batch_size: size,
                        output: outputs.row(i).to_vec(),
                    },
                });
            }
        }
        // Swaps scheduled past the last batch apply at stream end.
        self.apply_swaps_due(u64::MAX);

        Ok(MultiServeReport {
            completed,
            per_model,
            final_tick,
            first_arrival_tick,
            workers: exec.workers(),
            stats: self.run_stats(before),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{BatchConfig, ServiceModel, SingleLayerModel};
    use permdnn_core::snapshot::{load_tensor, save_tensor, SnapshotCodec};
    use permdnn_core::BlockPermDiagMatrix;

    /// A loader over bare tensor snapshots: each model is one operator served
    /// through [`SingleLayerModel`] — enough to exercise the registry without
    /// depending on the `nn` model zoo.
    fn tensor_loader() -> ModelLoader {
        Box::new(|bytes| {
            let op = load_tensor(bytes, &SnapshotCodec::new())?;
            Ok(Arc::new(SingleLayerModel::new(op)) as Arc<dyn BatchModel>)
        })
    }

    fn pd_snapshot(dim: usize, seed: u64) -> Vec<u8> {
        let w = BlockPermDiagMatrix::random(dim, dim, 4, &mut pd_tensor::init::seeded_rng(seed));
        save_tensor(&w).unwrap()
    }

    fn cfg() -> ServeConfig {
        ServeConfig {
            batching: BatchConfig::new(4, 8),
            service: ServiceModel::default(),
        }
    }

    #[test]
    fn insert_validates_and_rejects_garbage() {
        let mut reg = ModelRegistry::new(tensor_loader(), u64::MAX);
        assert!(matches!(
            reg.insert("bad", vec![1, 2, 3]),
            Err(RegistryError::Snapshot(_))
        ));
        assert!(reg.is_empty());
        reg.insert("a", pd_snapshot(8, 1)).unwrap();
        assert!(reg.contains("a") && reg.is_resident("a"));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn lru_eviction_respects_budget_and_reloads_on_demand() {
        let snap_a = pd_snapshot(8, 1);
        let budget = (snap_a.len() as u64) * 2 + 8; // room for two models
        let mut reg = ModelRegistry::new(tensor_loader(), budget);
        reg.insert("a", snap_a).unwrap();
        reg.insert("b", pd_snapshot(8, 2)).unwrap();
        assert!(reg.is_resident("a") && reg.is_resident("b"));
        // A third model forces out the least recently used ("a").
        reg.insert("c", pd_snapshot(8, 3)).unwrap();
        assert!(!reg.is_resident("a"), "LRU model evicted");
        assert!(reg.is_resident("b") && reg.is_resident("c"));
        assert_eq!(reg.stats().evictions, 1);
        // Touching "a" reloads it and evicts the now-LRU "b".
        let _ = reg.model("a").unwrap();
        assert!(reg.is_resident("a") && !reg.is_resident("b"));
        assert_eq!(reg.stats().reloads, 1);
        assert!(reg.loaded_bytes() <= budget);
    }

    #[test]
    fn evicted_model_serves_identically_after_reload() {
        let snap = pd_snapshot(8, 5);
        let mut reg = ModelRegistry::new(tensor_loader(), u64::MAX);
        reg.insert("m", snap.clone()).unwrap();
        let x: Vec<f32> = (0..8).map(|i| (i as f32 * 0.4).sin()).collect();
        let before = {
            let m = reg.model("m").unwrap();
            let xs = BatchView::new(&x, 1, 8).unwrap();
            m.forward_batch(&xs, &ParallelExecutor::sequential())
                .unwrap()
        };
        reg.evict_entry_model("m");
        assert!(!reg.is_resident("m"));
        let after = {
            let m = reg.model("m").unwrap();
            let xs = BatchView::new(&x, 1, 8).unwrap();
            m.forward_batch(&xs, &ParallelExecutor::sequential())
                .unwrap()
        };
        assert_eq!(before, after, "reload is bit-exact");
    }

    #[test]
    fn swap_requires_existing_id_and_survives_bad_bytes() {
        let mut reg = ModelRegistry::new(tensor_loader(), u64::MAX);
        assert!(matches!(
            reg.swap("ghost", pd_snapshot(8, 1)),
            Err(RegistryError::UnknownModel { .. })
        ));
        reg.insert("m", pd_snapshot(8, 1)).unwrap();
        let before = reg.snapshot("m").unwrap();
        assert!(reg.swap("m", b"garbage".to_vec()).is_err());
        assert_eq!(*reg.snapshot("m").unwrap(), *before, "old model kept");
        reg.swap("m", pd_snapshot(8, 2)).unwrap();
        assert_ne!(*reg.snapshot("m").unwrap(), *before, "swap installed");
        assert_eq!(reg.stats().swaps, 1);
    }

    #[test]
    fn swap_rejects_differently_shaped_replacements() {
        let mut reg = ModelRegistry::new(tensor_loader(), u64::MAX);
        reg.insert("m", pd_snapshot(8, 1)).unwrap();
        let before = reg.snapshot("m").unwrap();
        // A 12x12 model cannot replace an 8x8 one mid-stream...
        match reg.swap("m", pd_snapshot(12, 2)) {
            Err(RegistryError::ShapeMismatch {
                current,
                replacement,
                ..
            }) => {
                assert_eq!(current, (8, 8));
                assert_eq!(replacement, (12, 12));
            }
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
        assert_eq!(*reg.snapshot("m").unwrap(), *before, "old model kept");
        assert_eq!(reg.stats().swaps, 0);
        // ...but an explicit insert may re-shape the id deliberately.
        reg.insert("m", pd_snapshot(12, 2)).unwrap();
        assert_ne!(*reg.snapshot("m").unwrap(), *before);
    }

    #[test]
    fn serve_multi_routes_per_model_and_matches_single_model_outputs() {
        let mut reg = ModelRegistry::new(tensor_loader(), u64::MAX);
        let snap_a = pd_snapshot(8, 11);
        let snap_b = pd_snapshot(12, 12);
        reg.insert("a", snap_a.clone()).unwrap();
        reg.insert("b", snap_b.clone()).unwrap();
        let stream_a = crate::serve::seeded_request_stream(1, 9, 8, 2.0);
        let stream_b = crate::serve::seeded_request_stream(2, 7, 12, 3.0);
        let tagged = interleave_streams(vec![
            ("a".to_string(), stream_a.clone()),
            ("b".to_string(), stream_b.clone()),
        ]);
        let exec = ParallelExecutor::new(2);
        let report = reg.serve_multi(&exec, &cfg(), tagged).unwrap();
        assert_eq!(report.completed.len(), 16);
        assert_eq!(report.per_model["a"].served, 9);
        assert_eq!(report.per_model["b"].served, 7);

        // Reference: each model's op applied directly.
        let op_a = load_tensor(&snap_a, &SnapshotCodec::new()).unwrap();
        let op_b = load_tensor(&snap_b, &SnapshotCodec::new()).unwrap();
        for tc in &report.completed {
            let (op, stream) = match tc.model_id.as_str() {
                "a" => (&op_a, &stream_a),
                _ => (&op_b, &stream_b),
            };
            let expected = op.matvec(&stream[tc.completed.id as usize].input).unwrap();
            assert_eq!(tc.completed.output, expected, "model {}", tc.model_id);
        }
    }

    #[test]
    fn serve_multi_is_deterministic_across_worker_counts() {
        let build = || {
            let mut reg = ModelRegistry::new(tensor_loader(), u64::MAX);
            reg.insert("a", pd_snapshot(8, 21)).unwrap();
            reg.insert("b", pd_snapshot(8, 22)).unwrap();
            reg
        };
        let tagged = interleave_streams(vec![
            (
                "a".to_string(),
                crate::serve::seeded_request_stream(3, 20, 8, 1.5),
            ),
            (
                "b".to_string(),
                crate::serve::seeded_request_stream(4, 20, 8, 1.5),
            ),
        ]);
        // Completion ticks legitimately shrink as workers are added; the
        // invariant is the execution order, batch membership and every
        // output bit.
        fn decisions(report: &MultiServeReport) -> Vec<(String, u64, usize, Vec<f32>)> {
            report
                .completed
                .iter()
                .map(|tc| {
                    (
                        tc.model_id.clone(),
                        tc.completed.id,
                        tc.completed.batch_size,
                        tc.completed.output.clone(),
                    )
                })
                .collect()
        }
        let baseline = build()
            .serve_multi(&ParallelExecutor::new(1), &cfg(), tagged.clone())
            .unwrap();
        for workers in [2usize, 3, 7] {
            let report = build()
                .serve_multi(&ParallelExecutor::new(workers), &cfg(), tagged.clone())
                .unwrap();
            assert_eq!(
                decisions(&report),
                decisions(&baseline),
                "{workers} workers: identical outputs and batching"
            );
        }
    }

    #[test]
    fn scheduled_swap_applies_between_batches() {
        let mut reg = ModelRegistry::new(tensor_loader(), u64::MAX);
        let old = pd_snapshot(8, 31);
        let new = pd_snapshot(8, 32);
        reg.insert("m", old.clone()).unwrap();
        // Two waves of traffic far apart; swap scheduled between them.
        let mut stream = crate::serve::seeded_request_stream(5, 4, 8, 0.0);
        for (i, r) in crate::serve::seeded_request_stream(6, 4, 8, 0.0)
            .into_iter()
            .enumerate()
        {
            stream.push(Request {
                id: 100 + i as u64,
                arrival_tick: 10_000,
                ..r
            });
        }
        reg.schedule_swap("m", new.clone(), 5_000);
        let tagged: Vec<TaggedRequest> = stream
            .iter()
            .cloned()
            .map(|request| TaggedRequest {
                model_id: "m".to_string(),
                request,
            })
            .collect();
        let report = reg
            .serve_multi(&ParallelExecutor::sequential(), &cfg(), tagged)
            .unwrap();
        assert_eq!(report.stats.swaps, 1);
        let codec = SnapshotCodec::new();
        let op_old = load_tensor(&old, &codec).unwrap();
        let op_new = load_tensor(&new, &codec).unwrap();
        for tc in &report.completed {
            let input = &stream
                .iter()
                .find(|r| r.id == tc.completed.id)
                .unwrap()
                .input;
            let expected = if tc.completed.arrival_tick < 10_000 {
                op_old.matvec(input).unwrap()
            } else {
                op_new.matvec(input).unwrap()
            };
            assert_eq!(tc.completed.output, expected, "request {}", tc.completed.id);
        }
    }

    #[test]
    fn slo_targets_attach_detach_and_survive_swaps() {
        let mut reg = ModelRegistry::new(tensor_loader(), u64::MAX);
        let slo = SloTarget::new(500, 3, 16).unwrap();
        reg.insert_with_slo("m", pd_snapshot(8, 1), slo).unwrap();
        assert_eq!(reg.slo("m"), Some(slo));
        // Swaps and plain re-inserts keep the target.
        reg.swap("m", pd_snapshot(8, 2)).unwrap();
        assert_eq!(reg.slo("m"), Some(slo));
        reg.insert("m", pd_snapshot(8, 3)).unwrap();
        assert_eq!(reg.slo("m"), Some(slo));
        // set_slo replaces or detaches; unknown ids are typed errors.
        let tighter = SloTarget::new(100, 7, 4).unwrap();
        reg.set_slo("m", Some(tighter)).unwrap();
        assert_eq!(reg.slo("m"), Some(tighter));
        reg.set_slo("m", None).unwrap();
        assert_eq!(reg.slo("m"), None);
        assert!(matches!(
            reg.set_slo("ghost", Some(slo)),
            Err(RegistryError::UnknownModel { .. })
        ));
    }

    #[test]
    fn remove_drops_pending_swaps_and_slo_for_reinserted_ids() {
        let mut reg = ModelRegistry::new(tensor_loader(), u64::MAX);
        let slo = SloTarget::new(500, 3, 16).unwrap();
        reg.insert_with_slo("m", pd_snapshot(8, 1), slo).unwrap();
        reg.insert("keep", pd_snapshot(8, 9)).unwrap();
        // Swaps are scheduled for both ids, then "m" is removed and a *new*
        // model registered under the same id: neither the stale swap nor the
        // old SLO may attach to it — but "keep"'s swap must still apply.
        reg.schedule_swap("m", pd_snapshot(8, 2), 0);
        reg.schedule_swap("keep", pd_snapshot(8, 10), 0);
        assert!(reg.remove("m"));
        let fresh = pd_snapshot(8, 3);
        reg.insert("m", fresh.clone()).unwrap();
        assert_eq!(reg.slo("m"), None, "SLO died with the removed model");

        let stream = crate::serve::seeded_request_stream(7, 4, 8, 0.0);
        let tagged: Vec<TaggedRequest> = stream
            .iter()
            .cloned()
            .map(|request| TaggedRequest {
                model_id: "m".to_string(),
                request,
            })
            .collect();
        let report = reg
            .serve_multi(&ParallelExecutor::sequential(), &cfg(), tagged)
            .unwrap();
        assert_eq!(
            report.stats.swaps, 1,
            "only the surviving model's swap applies"
        );
        let op = load_tensor(&fresh, &SnapshotCodec::new()).unwrap();
        for tc in &report.completed {
            let input = &stream
                .iter()
                .find(|r| r.id == tc.completed.id)
                .unwrap()
                .input;
            assert_eq!(
                tc.completed.output,
                op.matvec(input).unwrap(),
                "re-inserted model serves its own weights, not the stale swap"
            );
        }
    }

    #[test]
    fn serve_traffic_fifo_without_slos_matches_serve_multi() {
        let build = || {
            let mut reg = ModelRegistry::new(tensor_loader(), u64::MAX);
            reg.insert("a", pd_snapshot(8, 51)).unwrap();
            reg.insert("b", pd_snapshot(8, 52)).unwrap();
            reg
        };
        let tagged = interleave_streams(vec![
            (
                "a".to_string(),
                crate::serve::seeded_request_stream(61, 15, 8, 2.0),
            ),
            (
                "b".to_string(),
                crate::serve::seeded_request_stream(62, 15, 8, 2.0),
            ),
        ]);
        let exec = ParallelExecutor::new(2);
        let multi = build().serve_multi(&exec, &cfg(), tagged.clone()).unwrap();
        let traffic = build()
            .serve_traffic(
                &exec,
                &TrafficConfig::new(cfg(), AdmissionPolicy::Fifo),
                tagged,
            )
            .unwrap();
        assert_eq!(traffic.serve, multi, "Fifo traffic path is serve_multi");
        assert!(traffic.rejections.is_empty());
        assert_eq!(traffic.attainment(), 1.0, "no SLOs: everything counts met");
        assert_eq!(traffic.shed_rate(), 0.0);
    }

    #[test]
    fn serve_traffic_sheds_over_depth_and_reports_tallies() {
        let mut reg = ModelRegistry::new(tensor_loader(), u64::MAX);
        let slo = SloTarget::new(1_000_000, 0, 2).unwrap();
        reg.insert_with_slo("m", pd_snapshot(8, 71), slo).unwrap();
        // Five same-tick arrivals against queue depth 2 (max_batch 8 never
        // fills, max_wait 50 holds the backlog).
        let stream: Vec<Request> = crate::serve::seeded_request_stream(72, 5, 8, 0.0);
        let tagged: Vec<TaggedRequest> = stream
            .into_iter()
            .map(|request| TaggedRequest {
                model_id: "m".to_string(),
                request,
            })
            .collect();
        let cfg = TrafficConfig::new(
            ServeConfig {
                batching: BatchConfig::new(8, 50),
                service: ServiceModel::default(),
            },
            AdmissionPolicy::Fifo,
        );
        let report = reg
            .serve_traffic(&ParallelExecutor::sequential(), &cfg, tagged)
            .unwrap();
        assert_eq!(report.offered(), 5);
        assert_eq!(report.serve.completed.len(), 2);
        assert_eq!(report.rejections.len(), 3);
        assert!(report
            .rejections
            .iter()
            .all(|r| r.reason == crate::slo::RejectReason::QueueFull));
        let tally = report.per_model_slo["m"];
        assert_eq!((tally.offered, tally.met, tally.shed), (5, 2, 3));
        assert!((report.shed_rate() - 0.6).abs() < 1e-12);
    }

    use crate::paging::{PagedModelLoader, PagedStage};
    use permdnn_core::snapshot::{block_stream_snapshot, read_block_index};

    /// A paged loader over blocked bare-tensor snapshots: one weight slot,
    /// no bias step — mirroring `tensor_loader`'s `SingleLayerModel`
    /// arithmetic exactly.
    fn paged_tensor_loader() -> PagedModelLoader {
        Box::new(|bytes| {
            let index = read_block_index(bytes)?;
            let k = index
                .position("tensor")
                .ok_or_else(|| SnapshotError::MissingSection {
                    name: "tensor".to_string(),
                })?;
            let op = load_block(bytes, k, &SnapshotCodec::new())?;
            PagedModel::new(vec![PagedStage::linear(
                k,
                index.blocks[k].len,
                op.in_dim(),
                op.out_dim(),
                op.mul_count(),
                Vec::new(),
            )])
        })
    }

    fn paged_cfg() -> PagedConfig {
        PagedConfig {
            loader: paged_tensor_loader(),
            codec: SnapshotCodec::new(),
            paging: PagingModel::default(),
        }
    }

    #[test]
    fn paged_registry_pages_blocks_and_serves_bit_identically() {
        let snaps: Vec<Vec<u8>> = (0..3).map(|i| pd_snapshot(8, 80 + i)).collect();
        let blocked: Vec<Vec<u8>> = snaps
            .iter()
            .map(|s| block_stream_snapshot(s).unwrap())
            .collect();
        let max_block = blocked
            .iter()
            .map(|b| read_block_index(b).unwrap().max_block_bytes())
            .max()
            .unwrap();
        // Budget fits roughly one model's block at a time.
        let budget = max_block + 16;

        let tagged = interleave_streams(
            (0..3)
                .map(|i| {
                    (
                        format!("m{i}"),
                        crate::serve::seeded_request_stream(90 + i as u64, 12, 8, 1.5),
                    )
                })
                .collect(),
        );

        let mut whole = ModelRegistry::new(tensor_loader(), u64::MAX);
        let mut paged = ModelRegistry::new_paged(tensor_loader(), paged_cfg(), budget);
        assert_eq!(paged.residency_mode(), ResidencyMode::Paged);
        for (i, (snap, blk)) in snaps.iter().zip(&blocked).enumerate() {
            whole.insert(&format!("m{i}"), snap.clone()).unwrap();
            paged.insert(&format!("m{i}"), blk.clone()).unwrap();
            // Skeletons start cold: registered, dims known, nothing resident.
            assert!(!paged.is_resident(&format!("m{i}")));
            assert_eq!(paged.resident_blocks(&format!("m{i}")), Some(0));
            assert_eq!(paged.dims(&format!("m{i}")), Some((8, 8)));
            assert_eq!(
                paged.mul_count(&format!("m{i}")),
                whole.mul_count(&format!("m{i}"))
            );
        }
        assert_eq!(paged.loaded_bytes(), 0);

        let exec = ParallelExecutor::sequential();
        let w = whole.serve_multi(&exec, &cfg(), tagged.clone()).unwrap();
        let p = paged.serve_multi(&exec, &cfg(), tagged).unwrap();

        // Outputs, batch membership and order are bit-identical; only the
        // modeled ticks differ (faults are charged).
        let strip = |r: &MultiServeReport| {
            r.completed
                .iter()
                .map(|tc| {
                    (
                        tc.model_id.clone(),
                        tc.completed.id,
                        tc.completed.batch_size,
                        tc.completed.output.clone(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&p), strip(&w));
        assert!(p.final_tick > w.final_tick, "faults cost modeled ticks");

        // Three models round-robin through a one-block budget: faults,
        // block evictions, and a pinned residency bound.
        assert!(p.stats.blocks_faulted >= 3);
        assert!(p.stats.bytes_faulted >= 3 * (max_block - 16));
        assert!(p.stats.evictions > 0, "cold blocks evict under pressure");
        assert!(
            p.stats.peak_resident_bytes <= budget + max_block,
            "peak {} exceeds budget {budget} + max block {max_block}",
            p.stats.peak_resident_bytes
        );
        assert!(paged.loaded_bytes() <= budget + max_block);
    }

    #[test]
    fn paged_mode_rejects_oversize_whole_loads_with_a_typed_error() {
        let snap = pd_snapshot(16, 5);
        let budget = snap.len() as u64 - 1;
        // Whole-load mode silently admits it under the carve-out...
        let mut whole = ModelRegistry::new(tensor_loader(), budget);
        whole.insert("big", snap.clone()).unwrap();
        assert!(whole.is_resident("big"));
        // ...paged mode makes it a hard typed error,
        let mut paged = ModelRegistry::new_paged(tensor_loader(), paged_cfg(), budget);
        match paged.insert("big", snap.clone()) {
            Err(RegistryError::OverBudget {
                id,
                bytes,
                budget_bytes,
            }) => {
                assert_eq!(id, "big");
                assert_eq!(bytes, snap.len() as u64);
                assert_eq!(budget_bytes, budget);
            }
            other => panic!("expected OverBudget, got {other:?}"),
        }
        assert!(paged.is_empty());
        // ...while the blocked form of the same model is admitted and the
        // non-blocked form still whole-loads when it fits.
        paged
            .insert("big", block_stream_snapshot(&snap).unwrap())
            .unwrap();
        assert_eq!(paged.resident_blocks("big"), Some(0));
        let small = pd_snapshot(8, 6);
        paged.insert("small", small.clone()).unwrap();
        assert_eq!(paged.resident_blocks("small"), None, "whole-loaded");
        assert!(paged.model("small").is_ok());
        // A paged model has no whole materialisation to hand out.
        assert!(matches!(
            paged.model("big"),
            Err(RegistryError::PagedResidency { .. })
        ));
    }

    #[test]
    fn failed_serve_calls_leave_the_lifetime_peak_alone() {
        // Regression: a run re-seeded the lifetime high-water mark to the
        // bytes resident at its start and only restored it on success, so a
        // failed call lowered it.
        let mut reg = ModelRegistry::new(tensor_loader(), u64::MAX);
        reg.insert("a", pd_snapshot(8, 1)).unwrap();
        reg.insert("b", pd_snapshot(8, 2)).unwrap();
        let peak = reg.stats().peak_resident_bytes;
        assert_eq!(peak, reg.loaded_bytes());
        reg.remove("a");
        assert!(reg.loaded_bytes() < peak);
        let one = |model_id: &str, width: usize| {
            vec![TaggedRequest {
                model_id: model_id.to_string(),
                request: Request {
                    id: 0,
                    arrival_tick: 0,
                    input: vec![0.5; width],
                },
            }]
        };
        let exec = ParallelExecutor::sequential();
        let traffic = TrafficConfig::new(cfg(), AdmissionPolicy::Fifo);
        assert!(reg.serve_multi(&exec, &cfg(), one("ghost", 8)).is_err());
        assert_eq!(reg.stats().peak_resident_bytes, peak, "unknown id");
        assert!(reg.serve_multi(&exec, &cfg(), one("b", 5)).is_err());
        assert_eq!(reg.stats().peak_resident_bytes, peak, "wrong-length input");
        assert!(reg.serve_traffic(&exec, &traffic, one("b", 5)).is_err());
        assert_eq!(reg.stats().peak_resident_bytes, peak, "serve_traffic");
        // A run that succeeds reports its own peak and keeps the lifetime one.
        let report = reg.serve_multi(&exec, &cfg(), one("b", 8)).unwrap();
        assert_eq!(report.stats.peak_resident_bytes, reg.loaded_bytes());
        assert_eq!(reg.stats().peak_resident_bytes, peak);
    }

    #[test]
    fn deadlines_past_u64_max_saturate_and_every_request_is_served_or_shed_once() {
        // Regression: the planner's next event `arrival + max_wait_ticks`
        // overflowed — a debug-build panic and a release build that never
        // returned. The deadline now saturates and the batch still flushes.
        let near_max = [u64::MAX - 4, u64::MAX - 1, u64::MAX, u64::MAX];
        let stream: Vec<Request> = crate::serve::seeded_request_stream(17, 6, 8, 0.0)
            .into_iter()
            .zip([5, 6].into_iter().chain(near_max))
            .map(|(r, arrival_tick)| Request { arrival_tick, ..r })
            .collect();
        let arrival = |id: u64| stream[id as usize].arrival_tick;
        let ids = |mut ids: Vec<u64>| {
            ids.sort_unstable();
            ids
        };
        let all: Vec<u64> = (0..stream.len() as u64).collect();
        let op = load_tensor(&pd_snapshot(8, 3), &SnapshotCodec::new()).unwrap();
        let model = SingleLayerModel::new(op);
        let exec = ParallelExecutor::new(2);
        for max_wait_ticks in [u64::MAX, 10] {
            let batching = BatchConfig::new(8, max_wait_ticks);
            let plans = crate::serve::plan_batches(stream.clone(), batching);
            let planned = plans.iter().flat_map(|p| p.requests.iter().map(|r| r.id));
            assert_eq!(ids(planned.collect()), all, "plan_batches");
            assert!(plans
                .iter()
                .all(|p| p.requests.iter().all(|r| p.close_tick >= r.arrival_tick)));

            let serve_cfg = ServeConfig {
                batching,
                service: ServiceModel::default(),
            };
            let report = crate::serve::serve(&model, &exec, &serve_cfg, stream.clone()).unwrap();
            assert_eq!(
                ids(report.completed.iter().map(|c| c.id).collect()),
                all,
                "serve"
            );
            for c in &report.completed {
                assert!(c.completion_tick >= c.arrival_tick);
            }

            // Queue depth 4: the backlog waiting at the saturated deadline
            // sheds the fifth and later arrivals.
            let mut reg = ModelRegistry::new(tensor_loader(), u64::MAX);
            let slo = SloTarget::new(1_000, 0, 4).unwrap();
            reg.insert_with_slo("m", pd_snapshot(8, 3), slo).unwrap();
            let tagged = stream
                .iter()
                .cloned()
                .map(|request| TaggedRequest {
                    model_id: "m".to_string(),
                    request,
                })
                .collect();
            let traffic = TrafficConfig::new(serve_cfg, AdmissionPolicy::EarliestDeadline);
            let report = reg.serve_traffic(&exec, &traffic, tagged).unwrap();
            let served = report.serve.completed.iter().map(|tc| tc.completed.id);
            let shed = report.rejections.iter().map(|r| r.request_id);
            assert_eq!(ids(served.chain(shed).collect()), all, "serve_traffic");
            for tc in &report.serve.completed {
                assert!(tc.completed.completion_tick >= arrival(tc.completed.id));
            }
            assert_eq!(report.offered(), stream.len());
        }
    }

    #[test]
    fn busy_ticks_saturate_instead_of_wrapping() {
        // Regression: every batch costs `u64::MAX` ticks, so the per-model
        // busy-tick tally overflowed on the second batch — a debug-build
        // panic, and a wrapped count in release builds.
        let mut reg = ModelRegistry::new(tensor_loader(), u64::MAX);
        reg.insert("m", pd_snapshot(8, 42)).unwrap();
        let cfg = ServeConfig {
            batching: BatchConfig::new(1, 0),
            service: ServiceModel {
                muls_per_worker_tick: 1024,
                batch_overhead_ticks: u64::MAX,
            },
        };
        let tagged = crate::serve::seeded_request_stream(43, 3, 8, 0.0)
            .into_iter()
            .map(|request| TaggedRequest {
                model_id: "m".to_string(),
                request,
            })
            .collect();
        let report = reg
            .serve_multi(&ParallelExecutor::sequential(), &cfg, tagged)
            .unwrap();
        assert_eq!(report.per_model["m"].batches, 3);
        assert_eq!(report.per_model["m"].busy_ticks, u64::MAX);
    }

    #[test]
    fn unknown_model_and_bad_input_are_typed_errors() {
        let mut reg = ModelRegistry::new(tensor_loader(), u64::MAX);
        reg.insert("m", pd_snapshot(8, 41)).unwrap();
        assert!(matches!(
            reg.model("ghost"),
            Err(RegistryError::UnknownModel { .. })
        ));
        let bad = vec![TaggedRequest {
            model_id: "m".to_string(),
            request: Request {
                id: 0,
                arrival_tick: 0,
                input: vec![0.0; 5],
            },
        }];
        assert!(matches!(
            reg.serve_multi(&ParallelExecutor::sequential(), &cfg(), bad),
            Err(RegistryError::Format(_))
        ));
    }
}

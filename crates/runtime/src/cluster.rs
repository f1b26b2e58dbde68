//! Cluster front-end: deterministic scale-out serving across simulated hosts.
//!
//! The single-registry serving stack ([`ModelRegistry::serve_traffic`])
//! already multiplies throughput with worker count; this module multiplies it
//! with *host* count, in three shapes ([`ClusterTopology`]):
//!
//! * **Replicated** (data parallelism) — every host is a full
//!   [`ModelRegistry`] replica and each request routes to exactly one host by
//!   a deterministic hash of `(model id, request id)`
//!   ([`RoutingPolicy::HashModulo`] or rendezvous hashing,
//!   [`RoutingPolicy::Rendezvous`], which keeps most assignments stable when
//!   the replica count changes).
//! * **RowSharded** (tensor parallelism) — one model's weight rows partition
//!   across hosts at `p`-row block granularity
//!   ([`permdnn_core::snapshot::split_tensor_rows`]): host `k` loads *only
//!   its slice's bytes*, a standalone tensor snapshot of its own, every host
//!   runs every batch on the shared input, and the per-request output is the
//!   row-wise concatenation of the host outputs.
//! * **Pipeline** (layer parallelism) — host `k` runs stage `k` of a model
//!   split into a chain of snapshots; activations forward between hosts as
//!   ticked messages with a modeled per-hop link cost, so consecutive
//!   batches overlap across stages exactly like a hardware pipeline.
//!
//! **The invariant that makes this a serving layer and not a toy:** served
//! outputs are bit-identical to the single-host run for any (replicas,
//! shards, pipeline depth, worker count). Admission and batch ordering are
//! decided *globally*, before any topology-specific dispatch, by the one
//! [`schedule`](crate::slo) pass `serve_traffic` uses, on the whole-model
//! cost at the reference worker count — so the shed set and the execution
//! order are pure functions of the offered streams and the policy, never of
//! the topology or the executing worker count. Every topology executes that
//! one global schedule through its hosts' registry loop, the one
//! `serve_traffic` runs: row-sharded and pipeline hosts run its batches in
//! its order, and replicated hosts re-schedule their routed substream with
//! shedding off. Per-request outputs are batch-composition-independent (each
//! example's forward pass reads only its own row of the batch), which is why
//! per-host batching cannot perturb them. Only completion *ticks* change with
//! the topology — that is the speedup being bought.
//!
//! [`ClusterReport`] aggregates the per-host serving reports into
//! cluster-level SLO attainment with the same [`SloTally`] accounting the
//! single-host [`TrafficReport`](crate::TrafficReport) uses.

use std::collections::BTreeMap;
use std::sync::Arc;

use pd_tensor::Matrix;
use permdnn_core::format::{BatchView, FormatError};
use permdnn_core::snapshot::split_tensor_rows;

use crate::executor::ParallelExecutor;
use crate::registry::{
    ModelLoader, ModelRegistry, MultiServeReport, RegistryError, RegistryStats, TaggedCompletion,
    TaggedRequest,
};
use crate::serve::{latency_percentiles, makespan, per_second, BatchModel, ServeConfig};
use crate::slo::{
    schedule, ModelCost, Rejection, ScheduledBatch, SloTally, SloTarget, TrafficConfig,
};

/// Errors from cluster operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A cluster needs at least one host.
    NoHosts,
    /// A host registry operation failed (snapshot decode, unknown id, input
    /// shape mismatch, ...).
    Registry(RegistryError),
    /// `insert_stages` received a different number of stage snapshots than
    /// the cluster has pipeline hosts.
    StageCountMismatch {
        /// Pipeline depth (host count).
        expected: usize,
        /// Stage snapshots supplied.
        got: usize,
    },
    /// Adjacent pipeline stages do not chain: stage `k`'s input width must
    /// equal stage `k-1`'s output width.
    StageChainMismatch {
        /// The model being inserted.
        id: String,
        /// The stage whose input width mismatched.
        stage: usize,
        /// The upstream stage's output width.
        expected: usize,
        /// The mismatched stage's input width.
        got: usize,
    },
    /// The operation does not apply to this cluster's topology (e.g.
    /// [`Cluster::insert`] on a pipeline cluster, which needs
    /// [`Cluster::insert_stages`]).
    WrongTopology {
        /// The rejected operation.
        op: &'static str,
    },
    /// A request routed to a model id the cluster does not serve.
    UnknownModel {
        /// The id that failed to resolve.
        id: String,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoHosts => write!(f, "a cluster needs at least one host"),
            ClusterError::Registry(e) => write!(f, "host registry error: {e}"),
            ClusterError::StageCountMismatch { expected, got } => write!(
                f,
                "pipeline has {expected} hosts but {got} stage snapshots were supplied"
            ),
            ClusterError::StageChainMismatch {
                id,
                stage,
                expected,
                got,
            } => write!(
                f,
                "model {id:?} stage {stage} expects {got}-wide input, upstream stage emits {expected}"
            ),
            ClusterError::WrongTopology { op } => {
                write!(f, "operation {op:?} does not apply to this topology")
            }
            ClusterError::UnknownModel { id } => write!(f, "no model registered as {id:?}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<RegistryError> for ClusterError {
    fn from(e: RegistryError) -> Self {
        ClusterError::Registry(e)
    }
}

impl From<permdnn_core::snapshot::SnapshotError> for ClusterError {
    fn from(e: permdnn_core::snapshot::SnapshotError) -> Self {
        ClusterError::Registry(RegistryError::Snapshot(e))
    }
}

impl From<FormatError> for ClusterError {
    fn from(e: FormatError) -> Self {
        ClusterError::Registry(RegistryError::Format(e))
    }
}

/// How a replicated cluster assigns a request to a host. Both policies hash
/// `(model id, request id)` with FNV-1a 64 — a fixed, seedless hash, so
/// routing is reproducible across processes and releases (`std`'s hashers
/// are neither).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// `hash(model, id) mod hosts` — perfectly balanced in expectation, but
    /// changing the host count remaps nearly every key.
    HashModulo,
    /// Highest-random-weight (rendezvous) hashing: the host maximising
    /// `hash(model, id, host)` wins. Adding or removing a host only remaps
    /// the keys that host owned — the property replica autoscaling wants.
    Rendezvous,
}

/// The parallelism shape of a [`Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterTopology {
    /// Every host is a full registry replica; requests split across hosts.
    Replicated {
        /// Number of replicas.
        replicas: usize,
        /// Request-to-host assignment policy.
        routing: RoutingPolicy,
    },
    /// Every model's weight rows partition across hosts; every host runs
    /// every batch on its slice.
    RowSharded {
        /// Number of row shards (= hosts).
        shards: usize,
    },
    /// Host `k` runs stage `k` of every model; activations forward host-to-
    /// host with a modeled link latency.
    Pipeline {
        /// Pipeline depth (= hosts).
        stages: usize,
        /// Ticks charged per inter-stage activation hop.
        link_ticks: u64,
    },
}

/// Cluster-wide bookkeeping for one model: the whole-model cost (what
/// admission and ordering key on) plus each host's share of it.
#[derive(Debug, Clone)]
struct ClusterModelMeta {
    /// Whole-model multiplies per example — the admission/ordering cost, the
    /// same number a single host would use.
    mul_count: u64,
    slo: Option<SloTarget>,
    /// Multiplies per example each host spends.
    part_muls: Vec<u64>,
}

/// Per-host serving tallies of one [`Cluster::serve_traffic`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostStats {
    /// Requests this host computed (row-sharded and pipeline hosts touch
    /// every request).
    pub served: usize,
    /// Batches this host executed.
    pub batches: usize,
    /// Ticks this host's engine was busy.
    pub busy_ticks: u64,
    /// This host's registry weight-cache activity during the run: reloads,
    /// evictions, block faults and the resident-byte high-water mark (see
    /// [`RegistryStats`]; counter fields are run deltas).
    pub registry: RegistryStats,
}

impl HostStats {
    /// A host's tallies from its registry's report of the run, for every
    /// topology.
    fn of(report: &MultiServeReport) -> Self {
        let mut stats = HostStats {
            registry: report.stats,
            ..HostStats::default()
        };
        for tally in report.per_model.values() {
            stats.served += tally.served;
            stats.batches += tally.batches;
            stats.busy_ticks = stats.busy_ticks.saturating_add(tally.busy_ticks);
        }
        stats
    }
}

/// What each topology's dispatch returns: the served requests, the per-host
/// tallies and the final tick.
type Dispatch = (Vec<TaggedCompletion>, Vec<HostStats>, u64);

/// The outcome of one [`Cluster::serve_traffic`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Every served request with its model id, sorted by `(model id,
    /// request id)` — an order independent of topology and worker count, so
    /// reports compare with `==` modulo completion ticks.
    pub completed: Vec<TaggedCompletion>,
    /// Every shed request, sorted by `(tick, model, request id)`. Identical
    /// to the single-host shed set by construction (admission runs globally
    /// on the whole-model cost).
    pub rejections: Vec<Rejection>,
    /// Per-host tallies, in host order.
    pub per_host: Vec<HostStats>,
    /// Per-model SLO bookkeeping, keyed by model id.
    pub per_model_slo: BTreeMap<String, SloTally>,
    /// Tick the last batch (or pipeline tail) finished.
    pub final_tick: u64,
    /// Tick the first request arrived.
    pub first_arrival_tick: u64,
    /// Worker count each host served with.
    pub workers: usize,
}

impl ClusterReport {
    /// Aggregate SLO tallies across every model.
    pub fn totals(&self) -> SloTally {
        self.per_model_slo.values().sum()
    }

    /// Requests offered across every model (admitted + shed).
    pub fn offered(&self) -> usize {
        self.totals().offered
    }

    /// Aggregate SLO attainment (see [`SloTally::attainment`]).
    pub fn attainment(&self) -> f64 {
        self.totals().attainment()
    }

    /// Aggregate fraction of offered requests shed by admission control.
    pub fn shed_rate(&self) -> f64 {
        self.totals().shed_rate()
    }

    /// Total simulated serving time in ticks (0 when nothing was served
    /// after the first arrival).
    pub fn makespan_ticks(&self) -> u64 {
        makespan(self.first_arrival_tick, self.final_tick)
    }

    /// Requests served per second at a nominal tick rate of `tick_hz`.
    pub fn requests_per_sec(&self, tick_hz: f64) -> f64 {
        per_second(self.completed.len(), self.makespan_ticks(), tick_hz)
    }

    /// Latency percentile in ticks across every served request (`q` in
    /// `[0, 1]`; nearest-rank). Returns 0 for an empty report.
    pub fn latency_percentile_ticks(&self, q: f64) -> u64 {
        self.latency_percentiles_ticks(&[q])[0]
    }

    /// Several latency percentiles from one sort of the completion list.
    pub fn latency_percentiles_ticks(&self, qs: &[f64]) -> Vec<u64> {
        let latencies = self.completed.iter().map(|tc| tc.completed.latency_ticks());
        latency_percentiles(latencies, qs)
    }
}

/// A chain of [`BatchModel`] stages served as one model — the single-host
/// reference a [`ClusterTopology::Pipeline`] run must match bit-for-bit. Each
/// stage's output feeds the next; the modeled cost is the sum of the stage
/// costs (one engine runs the stages back-to-back).
pub struct PipelineModel {
    stages: Vec<Arc<dyn BatchModel>>,
}

impl PipelineModel {
    /// Builds the chain, validating that adjacent stages' widths match.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NoHosts`] for an empty chain and
    /// [`ClusterError::StageChainMismatch`] for mis-chained stages.
    pub fn new(stages: Vec<Arc<dyn BatchModel>>) -> Result<Self, ClusterError> {
        if stages.is_empty() {
            return Err(ClusterError::NoHosts);
        }
        for (k, pair) in stages.windows(2).enumerate() {
            if pair[1].in_dim() != pair[0].out_dim() {
                return Err(ClusterError::StageChainMismatch {
                    id: String::new(),
                    stage: k + 1,
                    expected: pair[0].out_dim(),
                    got: pair[1].in_dim(),
                });
            }
        }
        Ok(PipelineModel { stages })
    }
}

impl BatchModel for PipelineModel {
    fn in_dim(&self) -> usize {
        self.stages[0].in_dim()
    }

    fn out_dim(&self) -> usize {
        self.stages[self.stages.len() - 1].out_dim()
    }

    fn mul_count_per_example(&self) -> u64 {
        saturating_sum(self.stages.iter().map(|s| s.mul_count_per_example()))
    }

    fn forward_batch(
        &self,
        xs: &BatchView<'_>,
        exec: &ParallelExecutor,
    ) -> Result<Matrix, FormatError> {
        let batch = xs.batch();
        let mut cur = self.stages[0].forward_batch(xs, exec)?;
        for stage in &self.stages[1..] {
            let view = BatchView::new(cur.as_slice(), batch, stage.in_dim())?;
            let next = stage.forward_batch(&view, exec)?;
            cur = next;
        }
        Ok(cur)
    }
}

/// A sum of multiply counts, saturating at `u64::MAX` like every tick sum.
fn saturating_sum(muls: impl IntoIterator<Item = u64>) -> u64 {
    muls.into_iter().fold(0, u64::saturating_add)
}

/// FNV-1a 64 over a byte stream — the fixed routing hash.
fn fnv1a(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in *chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Length-prefix-free chunk separator: a byte that cannot appear
        // inside the UTF-8 model id keeps ("ab", 1) distinct from ("a", ...).
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The deterministic cluster front-end. See the module docs for the three
/// topologies and the bit-exactness contract.
pub struct Cluster {
    topology: ClusterTopology,
    hosts: Vec<ModelRegistry>,
    models: BTreeMap<String, ClusterModelMeta>,
}

impl Cluster {
    /// A data-parallel cluster: one full [`ModelRegistry`] replica per
    /// loader, each with `budget_bytes` of weight-cache budget, requests
    /// routed by `routing`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NoHosts`] when `loaders` is empty.
    pub fn replicated(
        loaders: Vec<ModelLoader>,
        routing: RoutingPolicy,
        budget_bytes: u64,
    ) -> Result<Self, ClusterError> {
        let hosts = Self::build_hosts(loaders, budget_bytes)?;
        Ok(Cluster {
            topology: ClusterTopology::Replicated {
                replicas: hosts.len(),
                routing,
            },
            hosts,
            models: BTreeMap::new(),
        })
    }

    /// A tensor-parallel cluster: every model's rows split across one host
    /// per loader (block-row granular), each host holding only its slice's
    /// snapshot bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NoHosts`] when `loaders` is empty.
    pub fn row_sharded(loaders: Vec<ModelLoader>, budget_bytes: u64) -> Result<Self, ClusterError> {
        let hosts = Self::build_hosts(loaders, budget_bytes)?;
        Ok(Cluster {
            topology: ClusterTopology::RowSharded {
                shards: hosts.len(),
            },
            hosts,
            models: BTreeMap::new(),
        })
    }

    /// A layer-pipeline cluster: host `k` serves stage `k` of every model,
    /// with `link_ticks` charged per inter-stage activation hop.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NoHosts`] when `loaders` is empty.
    pub fn pipeline(
        loaders: Vec<ModelLoader>,
        link_ticks: u64,
        budget_bytes: u64,
    ) -> Result<Self, ClusterError> {
        let hosts = Self::build_hosts(loaders, budget_bytes)?;
        Ok(Cluster {
            topology: ClusterTopology::Pipeline {
                stages: hosts.len(),
                link_ticks,
            },
            hosts,
            models: BTreeMap::new(),
        })
    }

    fn build_hosts(
        loaders: Vec<ModelLoader>,
        budget_bytes: u64,
    ) -> Result<Vec<ModelRegistry>, ClusterError> {
        if loaders.is_empty() {
            return Err(ClusterError::NoHosts);
        }
        Ok(loaders
            .into_iter()
            .map(|loader| ModelRegistry::new(loader, budget_bytes))
            .collect())
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.hosts.len()
    }

    /// The cluster's parallelism shape.
    pub fn topology(&self) -> ClusterTopology {
        self.topology
    }

    /// Registered model ids, ascending.
    pub fn ids(&self) -> Vec<String> {
        self.models.keys().cloned().collect()
    }

    /// Snapshot bytes currently resident on each host, in host order — the
    /// number the row-sharded memory-scaling claim is measured on.
    pub fn host_loaded_bytes(&self) -> Vec<u64> {
        self.hosts.iter().map(|h| h.loaded_bytes()).collect()
    }

    /// Registers a model on a replicated or row-sharded cluster.
    ///
    /// Replicated: every host receives the full snapshot. Row-sharded: the
    /// snapshot splits via [`split_tensor_rows`] and host `k` receives *only*
    /// slice `k`'s tensor snapshot. On any failure the id is rolled back from
    /// every host.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::WrongTopology`] on a pipeline cluster (use
    /// [`Cluster::insert_stages`]), or the snapshot/registry error that made
    /// a host reject the model.
    pub fn insert(
        &mut self,
        id: &str,
        snapshot: Vec<u8>,
        slo: Option<SloTarget>,
    ) -> Result<(), ClusterError> {
        let parts = match self.topology {
            ClusterTopology::Replicated { replicas, .. } => vec![snapshot; replicas],
            ClusterTopology::RowSharded { shards } => split_tensor_rows(&snapshot, shards)?,
            ClusterTopology::Pipeline { .. } => {
                return Err(ClusterError::WrongTopology { op: "insert" })
            }
        };
        self.insert_parts(id, parts, slo)
    }

    /// Registers a model on a pipeline cluster: one stage snapshot per host,
    /// stage `k` loading on host `k`. Adjacent stages must chain (stage
    /// `k`'s input width equals stage `k-1`'s output width). On any failure
    /// the id is rolled back from every host.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::WrongTopology`] on non-pipeline clusters,
    /// [`ClusterError::StageCountMismatch`] for the wrong snapshot count,
    /// [`ClusterError::StageChainMismatch`] for mis-chained widths, or the
    /// registry error that made a host reject its stage.
    pub fn insert_stages(
        &mut self,
        id: &str,
        stage_snapshots: Vec<Vec<u8>>,
        slo: Option<SloTarget>,
    ) -> Result<(), ClusterError> {
        let ClusterTopology::Pipeline { stages, .. } = self.topology else {
            return Err(ClusterError::WrongTopology {
                op: "insert_stages",
            });
        };
        if stage_snapshots.len() != stages {
            return Err(ClusterError::StageCountMismatch {
                expected: stages,
                got: stage_snapshots.len(),
            });
        }
        self.insert_parts(id, stage_snapshots, slo)
    }

    /// Inserts part `k` on host `k` (a pipeline stage must chain to the one
    /// before it), then records the model's meta. Every host keeps the SLO:
    /// a replica orders its own substream by it. On any failure the id is
    /// rolled back from every host.
    fn insert_parts(
        &mut self,
        id: &str,
        parts: Vec<Vec<u8>>,
        slo: Option<SloTarget>,
    ) -> Result<(), ClusterError> {
        for (k, part) in parts.into_iter().enumerate() {
            let inserted = self.hosts[k].insert(id, part).map_err(ClusterError::from);
            if let Err(e) = inserted.and_then(|()| self.check_chain(id, k)) {
                self.rollback(id);
                return Err(e);
            }
            self.hosts[k].set_slo(id, slo).expect("just inserted");
        }
        let part_muls: Vec<u64> = self
            .hosts
            .iter()
            .map(|host| host.mul_count(id).expect("every host holds a part"))
            .collect();
        let mul_count = match self.topology {
            // Every replica holds the whole model.
            ClusterTopology::Replicated { .. } => part_muls[0],
            // Row slices partition the stored weights exactly, and pipeline
            // stages run one after another.
            _ => saturating_sum(part_muls.iter().copied()),
        };
        let meta = ClusterModelMeta {
            mul_count,
            slo,
            part_muls,
        };
        self.models.insert(id.to_string(), meta);
        Ok(())
    }

    /// On a pipeline cluster, stage `k` of `id` must take the width stage
    /// `k - 1` emits; other topologies chain nothing.
    fn check_chain(&self, id: &str, k: usize) -> Result<(), ClusterError> {
        let (ClusterTopology::Pipeline { .. }, Some(upstream)) = (self.topology, k.checked_sub(1))
        else {
            return Ok(());
        };
        let (got, _) = self.hosts[k].dims(id).expect("just inserted");
        let (_, expected) = self.hosts[upstream].dims(id).expect("inserted earlier");
        if got == expected {
            return Ok(());
        }
        Err(ClusterError::StageChainMismatch {
            id: id.to_string(),
            stage: k,
            expected,
            got,
        })
    }

    fn rollback(&mut self, id: &str) {
        for host in &mut self.hosts {
            host.remove(id);
        }
        self.models.remove(id);
    }

    /// Removes a model from every host, returning whether it was registered.
    pub fn remove(&mut self, id: &str) -> bool {
        let known = self.models.remove(id).is_some();
        for host in &mut self.hosts {
            host.remove(id);
        }
        known
    }

    /// The host a replicated cluster routes `(model_id, request_id)` to.
    ///
    /// Exposed so tests and benches can reason about placement; sharded and
    /// pipeline clusters involve every host in every request and route
    /// nothing.
    pub fn route(&self, model_id: &str, request_id: u64) -> usize {
        let hosts = self.hosts.len();
        let routing = match self.topology {
            ClusterTopology::Replicated { routing, .. } => routing,
            _ => return 0,
        };
        match routing {
            RoutingPolicy::HashModulo => {
                (fnv1a(&[model_id.as_bytes(), &request_id.to_le_bytes()]) % hosts as u64) as usize
            }
            RoutingPolicy::Rendezvous => (0..hosts)
                .max_by_key(|&k| {
                    (
                        fnv1a(&[
                            model_id.as_bytes(),
                            &request_id.to_le_bytes(),
                            &(k as u64).to_le_bytes(),
                        ]),
                        // Ties (astronomically unlikely) break toward the
                        // *larger* host index deterministically; max_by_key
                        // returns the last maximum, so make the key total.
                        k,
                    )
                })
                .expect("at least one host"),
        }
    }

    /// Serves a heterogeneous request stream across the cluster under
    /// admission control and a scheduling policy.
    ///
    /// Admission, batch formation and batch ordering run **globally** with
    /// the whole-model cost at the reference worker count — the one schedule
    /// [`ModelRegistry::serve_traffic`] computes — so the shed set and
    /// execution order match the single-host run exactly, for every
    /// topology. Every topology then executes that one global schedule
    /// through its hosts' registry loop: replicated hosts serve disjoint
    /// routed substreams on independent timelines; row-sharded hosts run
    /// every batch in lockstep (a batch completes when the slowest slice
    /// does); pipeline host `k` runs each batch once host `k - 1`'s
    /// activations arrive, `link_ticks` after it finished, so consecutive
    /// batches overlap across stages.
    ///
    /// `requests` must be sorted by arrival tick
    /// ([`interleave_streams`](crate::interleave_streams) produces this
    /// order).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownModel`] if a request routes to an
    /// unregistered id, or a host error (shape mismatch, decode failure)
    /// surfaced as [`ClusterError::Registry`].
    pub fn serve_traffic(
        &mut self,
        exec: &ParallelExecutor,
        cfg: &TrafficConfig,
        requests: Vec<TaggedRequest>,
    ) -> Result<ClusterReport, ClusterError> {
        let model = |id: &str| {
            let meta = self.models.get(id)?;
            Some(ModelCost {
                mul_count: meta.mul_count,
                slo: meta.slo,
            })
        };
        let mut schedule = schedule(requests, model, &cfg.serve, cfg.policy, true)
            .map_err(|id| ClusterError::UnknownModel { id })?;
        let first_arrival_tick = schedule.first_arrival_tick;
        let batches = std::mem::take(&mut schedule.batches);
        let (mut completed, per_host, final_tick) = match self.topology {
            ClusterTopology::Replicated { .. } => {
                self.run_replicated(exec, cfg, first_arrival_tick, batches)?
            }
            ClusterTopology::RowSharded { .. } => {
                self.run_row_sharded(exec, &cfg.serve, first_arrival_tick, batches)?
            }
            ClusterTopology::Pipeline { link_ticks, .. } => {
                self.run_pipeline(exec, &cfg.serve, first_arrival_tick, batches, link_ticks)?
            }
        };

        completed.sort_by(|a, b| (&a.model_id, a.completed.id).cmp(&(&b.model_id, b.completed.id)));
        let per_model_slo = schedule.slo_tallies(&completed, |id| self.models[id].slo);
        Ok(ClusterReport {
            completed,
            rejections: schedule.rejections,
            per_host,
            per_model_slo,
            final_tick,
            first_arrival_tick,
            workers: exec.workers(),
        })
    }

    /// Replicated dispatch: rebuild each model's admitted stream from its
    /// batches in plan order, split it by routing hash, and let each host
    /// re-schedule and serve its substream (admission already done, so no
    /// shedding). The final tick is seeded at the stream start, so a run
    /// where admission shed everything has a zero makespan.
    fn run_replicated(
        &mut self,
        exec: &ParallelExecutor,
        cfg: &TrafficConfig,
        first_arrival_tick: u64,
        mut batches: Vec<ScheduledBatch>,
    ) -> Result<Dispatch, ClusterError> {
        batches.sort_by(|a, b| (&a.model_id, a.seq).cmp(&(&b.model_id, b.seq)));
        let mut per_host_requests: Vec<Vec<TaggedRequest>> = vec![Vec::new(); self.hosts.len()];
        for batch in batches {
            for request in batch.requests {
                let host = self.route(&batch.model_id, request.id);
                per_host_requests[host].push(TaggedRequest {
                    model_id: batch.model_id.clone(),
                    request,
                });
            }
        }

        let mut completed = Vec::new();
        let mut per_host = Vec::with_capacity(self.hosts.len());
        let mut final_tick = first_arrival_tick;
        for (host, substream) in self.hosts.iter_mut().zip(per_host_requests) {
            let empty = substream.is_empty();
            let report = host.serve_admitted(exec, &cfg.serve, cfg.policy, substream)?;
            per_host.push(HostStats::of(&report));
            if !empty {
                final_tick = final_tick.max(report.final_tick);
            }
            completed.extend(report.completed);
        }
        Ok((completed, per_host, final_tick))
    }

    /// Row-sharded dispatch: every host executes the schedule's batches on
    /// its own row slice, and each request's output joins the slices in host
    /// order. The shards run in lockstep, so a batch lasts as long as its
    /// slowest slice: the single-engine rule at the largest slice's
    /// multiplies, since `ServiceModel::batch_ticks` never falls as the
    /// multiplies grow. One fold of that rule stamps the completion ticks.
    fn run_row_sharded(
        &mut self,
        exec: &ParallelExecutor,
        cfg: &ServeConfig,
        first_arrival_tick: u64,
        batches: Vec<ScheduledBatch>,
    ) -> Result<Dispatch, ClusterError> {
        let mut per_host = Vec::with_capacity(self.hosts.len());
        let mut completed: Vec<TaggedCompletion> = Vec::new();
        for (k, host) in self.hosts.iter_mut().enumerate() {
            let report = host.execute(exec, cfg, first_arrival_tick, batches.clone())?;
            per_host.push(HostStats::of(&report));
            if k == 0 {
                completed = report.completed;
                continue;
            }
            for (whole, slice) in completed.iter_mut().zip(report.completed) {
                whole.completed.output.extend(slice.completed.output);
            }
        }

        let mut engine_free = first_arrival_tick;
        let mut members = completed.iter_mut();
        for batch in &batches {
            let slowest = self.models[&batch.model_id].part_muls.iter().max();
            let muls = slowest.map_or(0, |m| m.saturating_mul(batch.requests.len() as u64));
            let ticks = cfg.service.batch_ticks(muls, exec.workers());
            engine_free = batch.close_tick.max(engine_free).saturating_add(ticks);
            for done in members.by_ref().take(batch.requests.len()) {
                done.completed.completion_tick = engine_free;
            }
        }
        Ok((completed, per_host, engine_free))
    }

    /// Pipeline dispatch: host `k` executes the schedule's batches on stage
    /// `k`, each member's input replaced by host `k - 1`'s output and each
    /// batch closing when those activations arrive, `link_ticks` after host
    /// `k - 1` completed it. That is the hardware pipeline's recurrence
    /// evaluated stage by stage; the last stage's completions are the
    /// requests'.
    fn run_pipeline(
        &mut self,
        exec: &ParallelExecutor,
        cfg: &ServeConfig,
        first_arrival_tick: u64,
        mut batches: Vec<ScheduledBatch>,
        link_ticks: u64,
    ) -> Result<Dispatch, ClusterError> {
        let mut per_host = Vec::with_capacity(self.hosts.len());
        let mut upstream: Option<MultiServeReport> = None;
        for host in &mut self.hosts {
            if let Some(report) = upstream.take() {
                let mut arrived = report.completed.into_iter();
                for batch in &mut batches {
                    for request in &mut batch.requests {
                        let done = arrived.next().expect("each member completed upstream");
                        request.input = done.completed.output;
                        batch.close_tick =
                            done.completed.completion_tick.saturating_add(link_ticks);
                    }
                }
            }
            let report = host.execute(exec, cfg, first_arrival_tick, batches.clone())?;
            per_host.push(HostStats::of(&report));
            upstream = Some(report);
        }
        let last = upstream.expect("a cluster has at least one host");
        Ok((last.completed, per_host, last.final_tick))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{BatchConfig, Request, ServiceModel, SingleLayerModel};
    use crate::slo::AdmissionPolicy;
    use permdnn_core::snapshot::{load_tensor, save_tensor, SnapshotCodec};
    use permdnn_core::BlockPermDiagMatrix;

    fn tensor_loader() -> ModelLoader {
        Box::new(|bytes| {
            let op = load_tensor(bytes, &SnapshotCodec::new())?;
            Ok(Arc::new(SingleLayerModel::new(op)) as Arc<dyn BatchModel>)
        })
    }

    fn loaders(n: usize) -> Vec<ModelLoader> {
        (0..n).map(|_| tensor_loader()).collect()
    }

    fn pd_snapshot(dim: usize, seed: u64) -> Vec<u8> {
        let w = BlockPermDiagMatrix::random(dim, dim, 4, &mut pd_tensor::init::seeded_rng(seed));
        save_tensor(&w).unwrap()
    }

    #[test]
    fn empty_host_lists_are_rejected() {
        assert!(matches!(
            Cluster::replicated(vec![], RoutingPolicy::HashModulo, u64::MAX),
            Err(ClusterError::NoHosts)
        ));
        assert!(matches!(
            Cluster::row_sharded(vec![], u64::MAX),
            Err(ClusterError::NoHosts)
        ));
        assert!(matches!(
            Cluster::pipeline(vec![], 10, u64::MAX),
            Err(ClusterError::NoHosts)
        ));
    }

    #[test]
    fn routing_is_deterministic_and_spreads_load() {
        for routing in [RoutingPolicy::HashModulo, RoutingPolicy::Rendezvous] {
            let cluster = Cluster::replicated(loaders(4), routing, u64::MAX).unwrap();
            let mut counts = [0usize; 4];
            for id in 0..4000u64 {
                let host = cluster.route("m", id);
                assert_eq!(host, cluster.route("m", id), "routing is a pure function");
                counts[host] += 1;
            }
            for &c in &counts {
                assert!(
                    (500..=1500).contains(&c),
                    "{routing:?} spread {counts:?} is too skewed"
                );
            }
        }
    }

    #[test]
    fn rendezvous_remaps_few_keys_when_a_host_joins() {
        let four = Cluster::replicated(loaders(4), RoutingPolicy::Rendezvous, u64::MAX).unwrap();
        let five = Cluster::replicated(loaders(5), RoutingPolicy::Rendezvous, u64::MAX).unwrap();
        let moved = (0..4000u64)
            .filter(|&id| {
                let old = four.route("m", id);
                let new = five.route("m", id);
                new != old
            })
            .count();
        // Rendezvous moves ~1/5 of keys (those the new host wins); modulo
        // would move ~4/5. Allow generous slack around the expectation.
        assert!(
            moved < 4000 * 2 / 5,
            "rendezvous moved {moved}/4000 keys on scale-up"
        );
    }

    #[test]
    fn wrong_topology_operations_are_typed_errors() {
        let mut pipe = Cluster::pipeline(loaders(2), 5, u64::MAX).unwrap();
        assert!(matches!(
            pipe.insert("m", pd_snapshot(8, 1), None),
            Err(ClusterError::WrongTopology { op: "insert" })
        ));
        let mut repl =
            Cluster::replicated(loaders(2), RoutingPolicy::HashModulo, u64::MAX).unwrap();
        assert!(matches!(
            repl.insert_stages("m", vec![pd_snapshot(8, 1), pd_snapshot(8, 2)], None),
            Err(ClusterError::WrongTopology { .. })
        ));
    }

    #[test]
    fn pipeline_insert_validates_stage_count_and_chain() {
        let mut pipe = Cluster::pipeline(loaders(2), 5, u64::MAX).unwrap();
        assert!(matches!(
            pipe.insert_stages("m", vec![pd_snapshot(8, 1)], None),
            Err(ClusterError::StageCountMismatch {
                expected: 2,
                got: 1
            })
        ));
        // 8x8 then 12x12 cannot chain.
        assert!(matches!(
            pipe.insert_stages("m", vec![pd_snapshot(8, 1), pd_snapshot(12, 2)], None),
            Err(ClusterError::StageChainMismatch { stage: 1, .. })
        ));
        // A failed insert leaves nothing behind on any host.
        assert!(pipe.ids().is_empty());
        assert_eq!(pipe.host_loaded_bytes(), vec![0, 0]);
        pipe.insert_stages("m", vec![pd_snapshot(8, 1), pd_snapshot(8, 2)], None)
            .unwrap();
        assert_eq!(pipe.ids(), vec!["m".to_string()]);
    }

    #[test]
    fn every_topology_reports_each_hosts_peak_of_this_run() {
        // Regression: row-sharded and pipeline hosts reported their lifetime
        // peak, which still counted a model removed before the run.
        let cfg = TrafficConfig::new(
            ServeConfig {
                batching: BatchConfig::new(4, 2),
                service: ServiceModel::default(),
            },
            AdmissionPolicy::Fifo,
        );
        let stream: Vec<TaggedRequest> = (0..6)
            .map(|i| TaggedRequest {
                model_id: "b".to_string(),
                request: Request {
                    id: i,
                    arrival_tick: i,
                    input: vec![0.5; 8],
                },
            })
            .collect();
        let clusters = [
            Cluster::replicated(loaders(2), RoutingPolicy::HashModulo, u64::MAX).unwrap(),
            Cluster::row_sharded(loaders(2), u64::MAX).unwrap(),
            Cluster::pipeline(loaders(2), 3, u64::MAX).unwrap(),
        ];
        for mut cluster in clusters {
            for (id, seed) in [("a", 1), ("b", 3)] {
                match cluster.topology() {
                    ClusterTopology::Pipeline { .. } => cluster.insert_stages(
                        id,
                        vec![pd_snapshot(8, seed), pd_snapshot(8, seed + 1)],
                        None,
                    ),
                    _ => cluster.insert(id, pd_snapshot(8, seed), None),
                }
                .unwrap();
            }
            cluster.remove("a");
            let report = cluster
                .serve_traffic(&ParallelExecutor::sequential(), &cfg, stream.clone())
                .unwrap();
            assert_eq!(report.completed.len(), stream.len());
            let peaks: Vec<u64> = report
                .per_host
                .iter()
                .map(|h| h.registry.peak_resident_bytes)
                .collect();
            assert_eq!(
                peaks,
                cluster.host_loaded_bytes(),
                "{:?}: only `b` is resident during the run",
                cluster.topology()
            );
        }
    }

    /// A serving config where every batch costs `u64::MAX` ticks, so any
    /// tally of two batches' ticks overflows unless it saturates.
    fn max_tick_cfg() -> TrafficConfig {
        TrafficConfig::new(
            ServeConfig {
                batching: BatchConfig::new(1, 0),
                service: ServiceModel {
                    muls_per_worker_tick: 1024,
                    batch_overhead_ticks: u64::MAX,
                },
            },
            AdmissionPolicy::Fifo,
        )
    }

    fn stream(id: &str, n: u64) -> Vec<TaggedRequest> {
        (0..n)
            .map(|i| TaggedRequest {
                model_id: id.to_string(),
                request: Request {
                    id: i,
                    arrival_tick: 0,
                    input: vec![0.5; 8],
                },
            })
            .collect()
    }

    #[test]
    fn lockstep_busy_ticks_saturate_instead_of_wrapping() {
        // Regression: row-sharded and pipeline hosts added each batch's
        // ticks plainly, overflowing on the second `u64::MAX`-tick batch.
        let mut sharded = Cluster::row_sharded(loaders(2), u64::MAX).unwrap();
        sharded.insert("m", pd_snapshot(8, 5), None).unwrap();
        let mut pipe = Cluster::pipeline(loaders(2), 3, u64::MAX).unwrap();
        pipe.insert_stages("m", vec![pd_snapshot(8, 5), pd_snapshot(8, 6)], None)
            .unwrap();
        for mut cluster in [sharded, pipe] {
            let report = cluster
                .serve_traffic(
                    &ParallelExecutor::sequential(),
                    &max_tick_cfg(),
                    stream("m", 3),
                )
                .unwrap();
            for host in &report.per_host {
                assert_eq!(host.batches, 3, "{:?}", cluster.topology());
                assert_eq!(host.busy_ticks, u64::MAX, "{:?}", cluster.topology());
            }
        }
    }

    #[test]
    fn replicated_busy_ticks_saturate_instead_of_wrapping() {
        // Regression: both the per-model registry tally and the per-host sum
        // over models overflowed.
        let mut cluster =
            Cluster::replicated(loaders(2), RoutingPolicy::HashModulo, u64::MAX).unwrap();
        cluster.insert("a", pd_snapshot(8, 7), None).unwrap();
        cluster.insert("b", pd_snapshot(8, 8), None).unwrap();
        // Each host serves both models, so its sum over models is tested too.
        for host in 0..2 {
            for id in ["a", "b"] {
                assert!((0..8).any(|i| cluster.route(id, i) == host));
            }
        }
        let mut requests = stream("a", 8);
        requests.extend(stream("b", 8));
        let report = cluster
            .serve_traffic(&ParallelExecutor::sequential(), &max_tick_cfg(), requests)
            .unwrap();
        for host in &report.per_host {
            assert!(host.batches >= 2, "every host serves several batches");
            assert_eq!(host.busy_ticks, u64::MAX);
        }
    }

    /// A stage that reports `u64::MAX` multiplies per example.
    struct MaxMuls(SingleLayerModel);

    impl BatchModel for MaxMuls {
        fn in_dim(&self) -> usize {
            self.0.in_dim()
        }

        fn out_dim(&self) -> usize {
            self.0.out_dim()
        }

        fn mul_count_per_example(&self) -> u64 {
            u64::MAX
        }

        fn forward_batch(
            &self,
            xs: &BatchView<'_>,
            exec: &ParallelExecutor,
        ) -> Result<Matrix, FormatError> {
            self.0.forward_batch(xs, exec)
        }
    }

    #[test]
    fn multiply_counts_saturate_instead_of_wrapping() {
        // Regression: the fused chain's and the cluster's whole-model costs
        // summed per-stage and per-slice multiply counts plainly.
        let max_loader = || -> ModelLoader {
            Box::new(|bytes| {
                let op = load_tensor(bytes, &SnapshotCodec::new())?;
                Ok(Arc::new(MaxMuls(SingleLayerModel::new(op))) as Arc<dyn BatchModel>)
            })
        };
        let stage = |seed| -> Arc<dyn BatchModel> {
            let op = load_tensor(&pd_snapshot(8, seed), &SnapshotCodec::new()).unwrap();
            Arc::new(MaxMuls(SingleLayerModel::new(op)))
        };
        let chain = PipelineModel::new(vec![stage(9), stage(10)]).unwrap();
        assert_eq!(chain.mul_count_per_example(), u64::MAX);

        let mut pipe = Cluster::pipeline(vec![max_loader(), max_loader()], 3, u64::MAX).unwrap();
        pipe.insert_stages("m", vec![pd_snapshot(8, 9), pd_snapshot(8, 10)], None)
            .unwrap();
        let mut sharded = Cluster::row_sharded(vec![max_loader(), max_loader()], u64::MAX).unwrap();
        sharded.insert("m", pd_snapshot(8, 9), None).unwrap();
        for mut cluster in [pipe, sharded] {
            let cfg = TrafficConfig::new(
                ServeConfig {
                    batching: BatchConfig::new(2, 0),
                    service: ServiceModel::default(),
                },
                AdmissionPolicy::Fifo,
            );
            let report = cluster
                .serve_traffic(&ParallelExecutor::sequential(), &cfg, stream("m", 2))
                .unwrap();
            assert_eq!(report.completed.len(), 2, "{:?}", cluster.topology());
        }
    }

    #[test]
    fn row_sharded_hosts_hold_only_their_slice() {
        let mut cluster = Cluster::row_sharded(loaders(4), u64::MAX).unwrap();
        let whole = pd_snapshot(64, 3);
        cluster.insert("m", whole.clone(), None).unwrap();
        let per_host = cluster.host_loaded_bytes();
        assert_eq!(per_host.len(), 4);
        let whole_len = whole.len() as u64;
        for &bytes in &per_host {
            assert!(
                bytes <= whole_len.div_ceil(4) + 256,
                "host holds {bytes} bytes, whole model is {whole_len}"
            );
        }
    }
}

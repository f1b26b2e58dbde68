//! Parallel batched-inference runtime for the PermDNN reproduction.
//!
//! The paper argues permuted-diagonal compression makes DNN inference cheap
//! enough to serve at scale; this crate supplies the serving machinery the
//! rest of the workspace plugs into:
//!
//! * [`WorkerPool`] — a hand-rolled `std::thread` pool (single shared job
//!   queue, no external dependencies — the workspace builds offline).
//! * [`ParallelExecutor`] — shards batched
//!   [`CompressedLinear`](permdnn_core::format::CompressedLinear) products
//!   across the pool by batch-row range ([`permdnn_core::format::par_row_ranges`])
//!   and gathers the shards; results are bit-for-bit identical to sequential
//!   execution for any worker count.
//! * [`BatchingQueue`] / [`serve`] — the serving scenario: requests arrive
//!   individually, coalesce into batches (up to `max_batch`, at most
//!   `max_wait_ticks` of queueing), and run through a [`BatchModel`]
//!   (`permdnn_nn::MlpClassifier` implements it) with deterministic
//!   tick-accounted latency.
//! * [`ModelRegistry`] — multi-model serving over durable snapshots: models
//!   load by id through a pluggable [`ModelLoader`], heterogeneous request
//!   streams route per model through the same batching path
//!   ([`ModelRegistry::serve_multi`]), a byte-budgeted weight cache evicts
//!   the unit the running call needs farthest ahead, else the least
//!   recently used (reloaded from bytes on demand), and hot swaps apply
//!   atomically between batches.
//! * [`traffic`] / [`slo`] — the deterministic traffic engine: seeded arrival
//!   generators ([`UniformProcess`], [`PoissonBurst`], [`OnOffFlashCrowd`],
//!   [`ZipfMix`]), per-model [`SloTarget`]s, and admission control + policy-
//!   driven batch ordering ([`ModelRegistry::serve_traffic`]) whose decisions
//!   are bit-identical for any worker count. Routing, admission, batch
//!   planning and ordering are one pure scheduling pass in [`slo`], and the
//!   registry's one batch loop executes its schedule.
//! * [`cluster`] — scale-out across simulated hosts: replicated registries
//!   behind deterministic hash/rendezvous routing, row-sharded tensors
//!   (each host loads only its slice's snapshot bytes), and layer pipelines
//!   with modeled link latency — all serving bit-identically to one host.
//!   Every topology executes the one global schedule through its hosts'
//!   registry loop, one of the crate's two batch loops (with [`serve`]).
//! * [`run_stages`] — the one batched forward of a frozen MLP, whole-loaded
//!   or paged: each linear stage is one `matmul_into` between two recycled
//!   activation buffers, then one pass per row adds the bias and applies the
//!   following activation in place.
//!
//! Consumers: `permdnn_nn` runs every MLP batch forward (`forward_batch_into`
//! and `forward_batch_parallel`) through [`run_stages`], `permdnn_sim`
//! reuses the executor for the multi-host engine model, and the
//! `serve_throughput` bench sweeps thread count × batch size × format into
//! `BENCH_serve.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
mod executor;
mod paging;
mod pool;
mod registry;
mod serve;
pub mod slo;
pub mod traffic;

pub use cluster::{
    Cluster, ClusterError, ClusterReport, ClusterTopology, HostStats, PipelineModel, RoutingPolicy,
};
pub use executor::ParallelExecutor;
pub use paging::{
    run_stages, Activation, PagedConfig, PagedModel, PagedModelLoader, PagedStage, PagingModel,
    RowLayer, Stage,
};
pub use pool::WorkerPool;
pub use registry::{
    interleave_streams, ModelLoader, ModelRegistry, ModelServeStats, MultiServeReport,
    RegistryError, RegistryStats, TaggedCompletion, TaggedRequest, TrafficReport,
};
pub use serve::{
    modeled_completion_ticks, plan_batches, seeded_request_stream, serve, BatchConfig, BatchModel,
    BatchingQueue, CompletedRequest, PlannedBatch, Request, ServeConfig, ServeReport, ServiceModel,
    SingleLayerModel,
};
pub use slo::{
    AdmissionPolicy, RejectReason, Rejection, SloError, SloTally, SloTarget, TrafficConfig,
};
pub use traffic::{OnOffFlashCrowd, PoissonBurst, TrafficError, UniformProcess, ZipfMix};

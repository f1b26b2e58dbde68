//! Cluster serving suite: the scale-out layer must be invisible in the bits.
//!
//! Locked-in properties:
//!
//! 1. **Replicated bit-exactness** — for ZipfMix traffic under every
//!    admission policy, the shed set and every served output are identical
//!    to the single-host run across replicas × workers ∈ {1, 2, 3, 7}², for
//!    both routing policies. With one replica the *entire report* (ticks
//!    included) reproduces the single host exactly.
//! 2. **Topology bit-exactness** — every traffic generator × every policy
//!    serves identically on replicated, row-sharded and single-host
//!    deployments; row-sharded runs also match across shard counts, and a
//!    one-shard cluster reproduces single-host ticks exactly.
//! 3. **Pipeline bit-exactness** — a staged chain across hosts serves the
//!    same bits as the fused [`PipelineModel`] on one host, for every worker
//!    count; the modeled link cost moves completion ticks, never outputs.
//! 4. **Row-split round-trip** — proptest: decoding a whole tensor equals
//!    concatenating the decoded per-host snapshots `split_tensor_rows`
//!    returns (dense and PD), and corrupting the tensor snapshot it splits
//!    (bit flips, truncation) yields typed errors, never panics.
//! 5. **Residency under pressure** — row-sharded and pipeline hosts whose
//!    budget cannot hold both of their parts evict and reload, yet serve
//!    every output and completion tick of the unlimited-budget run.

use std::sync::Arc;

use permdnn::core::snapshot::{load_tensor, save_tensor, split_tensor_rows, SnapshotCodec};
use permdnn::core::BlockPermDiagMatrix;
use permdnn::runtime::{
    interleave_streams, AdmissionPolicy, BatchConfig, BatchModel, Cluster, ClusterReport,
    ModelLoader, ModelRegistry, OnOffFlashCrowd, ParallelExecutor, PipelineModel, PoissonBurst,
    RoutingPolicy, ServeConfig, ServiceModel, SingleLayerModel, SloTarget, TaggedRequest,
    TrafficConfig, TrafficReport, UniformProcess, ZipfMix,
};
use permdnn::tensor::init::{seeded_rng, xavier_uniform};
use proptest::prelude::*;

const GRID: [usize; 4] = [1, 2, 3, 7];
const POLICIES: [AdmissionPolicy; 3] = [
    AdmissionPolicy::Fifo,
    AdmissionPolicy::Priority,
    AdmissionPolicy::EarliestDeadline,
];

fn tensor_loader() -> ModelLoader {
    Box::new(|bytes| {
        let op = load_tensor(bytes, &SnapshotCodec::new())?;
        Ok(Arc::new(SingleLayerModel::new(op)) as Arc<dyn BatchModel>)
    })
}

fn loaders(n: usize) -> Vec<ModelLoader> {
    (0..n).map(|_| tensor_loader()).collect()
}

fn pd_snapshot(rows: usize, cols: usize, seed: u64) -> Vec<u8> {
    let w = BlockPermDiagMatrix::random(rows, cols, 4, &mut seeded_rng(seed));
    save_tensor(&w).unwrap()
}

/// The three models every test serves: shapes big enough to split into 7
/// block-row shards (dim ≥ 28 at p = 4), with distinct costs and SLOs.
fn model_specs() -> Vec<(&'static str, usize, u64, SloTarget)> {
    vec![
        ("fast", 32, 0xF1, SloTarget::new(400, 7, 16).unwrap()),
        ("mid", 64, 0xF2, SloTarget::new(1_500, 3, 32).unwrap()),
        ("bulk", 256, 0xF3, SloTarget::new(60_000, 1, 128).unwrap()),
    ]
}

fn build_registry() -> ModelRegistry {
    let mut reg = ModelRegistry::new(tensor_loader(), u64::MAX);
    for (id, dim, seed, slo) in model_specs() {
        reg.insert_with_slo(id, pd_snapshot(dim, dim, seed), slo)
            .unwrap();
    }
    reg
}

/// Registers the same three models (same bytes, same SLOs) on a cluster.
fn populate(cluster: &mut Cluster) {
    for (id, dim, seed, slo) in model_specs() {
        cluster
            .insert(id, pd_snapshot(dim, dim, seed), Some(slo))
            .unwrap();
    }
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        batching: BatchConfig::new(4, 12),
        service: ServiceModel::default(),
    }
}

/// One stream per arrival generator, shaped like the SLO suite's but on the
/// cluster-sized models.
fn generator_streams() -> Vec<(&'static str, Vec<TaggedRequest>)> {
    let uniform = interleave_streams(vec![
        (
            "fast".to_string(),
            UniformProcess::new(32, 1.5).unwrap().stream(0xA1, 48),
        ),
        (
            "bulk".to_string(),
            UniformProcess::new(256, 4.0).unwrap().stream(0xA2, 24),
        ),
    ]);
    let poisson = interleave_streams(vec![
        (
            "fast".to_string(),
            PoissonBurst::new(32, 2.0, 0.35, 24)
                .unwrap()
                .stream(0xB1, 60),
        ),
        (
            "mid".to_string(),
            PoissonBurst::new(64, 3.0, 0.2, 8).unwrap().stream(0xB2, 30),
        ),
    ]);
    let crowd = interleave_streams(vec![
        (
            "fast".to_string(),
            OnOffFlashCrowd::new(32, 20, 150, 0.4)
                .unwrap()
                .stream(0xC1, 60),
        ),
        (
            "bulk".to_string(),
            UniformProcess::new(256, 0.0).unwrap().stream(0xC2, 16),
        ),
    ]);
    let zipf = zipf_stream();
    vec![
        ("uniform", uniform),
        ("poisson_burst", poisson),
        ("flash_crowd", crowd),
        ("zipf_mix", zipf),
    ]
}

fn zipf_stream() -> Vec<TaggedRequest> {
    ZipfMix::new(
        vec![
            ("fast".to_string(), 32),
            ("mid".to_string(), 64),
            ("bulk".to_string(), 256),
        ],
        1.3,
        1.0,
    )
    .unwrap()
    .stream(0xD1, 90)
}

/// Everything that must be invariant across topology, replica/shard count
/// and worker count: the shed set and every served output, keyed by
/// `(model, request id)`. Completion ticks and batch sizes are deliberately
/// excluded — per-host batching may differ; the bits may not.
type Decisions = (Vec<String>, Vec<(String, u64, Vec<f32>)>);

fn shed_strings(rejections: &[permdnn::runtime::Rejection]) -> Vec<String> {
    rejections
        .iter()
        .map(|r| format!("{}/{}/{}/{:?}", r.model, r.request_id, r.tick, r.reason))
        .collect()
}

fn cluster_decisions(report: &ClusterReport) -> Decisions {
    let served = report
        .completed
        .iter()
        .map(|tc| {
            (
                tc.model_id.clone(),
                tc.completed.id,
                tc.completed.output.clone(),
            )
        })
        .collect();
    (shed_strings(&report.rejections), served)
}

fn single_host_decisions(report: &TrafficReport) -> Decisions {
    let mut served: Vec<(String, u64, Vec<f32>)> = report
        .serve
        .completed
        .iter()
        .map(|tc| {
            (
                tc.model_id.clone(),
                tc.completed.id,
                tc.completed.output.clone(),
            )
        })
        .collect();
    served.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    (shed_strings(&report.rejections), served)
}

fn single_host_run(policy: AdmissionPolicy, stream: &[TaggedRequest]) -> TrafficReport {
    build_registry()
        .serve_traffic(
            &ParallelExecutor::new(1),
            &TrafficConfig::new(serve_cfg(), policy),
            stream.to_vec(),
        )
        .unwrap()
}

// ---------------------------------------------------------------------------
// 1. Replicated bit-exactness across replicas × workers.
// ---------------------------------------------------------------------------

#[test]
fn zipf_replicated_bit_identical_across_replicas_and_workers() {
    let stream = zipf_stream();
    for policy in POLICIES {
        let baseline = single_host_decisions(&single_host_run(policy, &stream));
        for routing in [RoutingPolicy::HashModulo, RoutingPolicy::Rendezvous] {
            for replicas in GRID {
                for workers in GRID {
                    let mut cluster =
                        Cluster::replicated(loaders(replicas), routing, u64::MAX).unwrap();
                    populate(&mut cluster);
                    let report = cluster
                        .serve_traffic(
                            &ParallelExecutor::new(workers),
                            &TrafficConfig::new(serve_cfg(), policy),
                            stream.clone(),
                        )
                        .unwrap();
                    assert_eq!(
                        cluster_decisions(&report),
                        baseline,
                        "{policy:?}/{routing:?}: {replicas} replicas x {workers} workers \
                         changed the served bits"
                    );
                    assert_eq!(
                        report.per_host.iter().map(|h| h.served).sum::<usize>(),
                        report.completed.len(),
                        "host tallies cover every served request"
                    );
                }
            }
        }
    }
}

#[test]
fn one_replica_reproduces_the_single_host_report_exactly() {
    let stream = zipf_stream();
    for policy in POLICIES {
        let single = single_host_run(policy, &stream);
        let mut expected = single.serve.completed.clone();
        expected.sort_by(|a, b| (&a.model_id, a.completed.id).cmp(&(&b.model_id, b.completed.id)));

        let mut cluster =
            Cluster::replicated(loaders(1), RoutingPolicy::HashModulo, u64::MAX).unwrap();
        populate(&mut cluster);
        let report = cluster
            .serve_traffic(
                &ParallelExecutor::new(1),
                &TrafficConfig::new(serve_cfg(), policy),
                stream.clone(),
            )
            .unwrap();
        // Ticks included: one replica IS the single host.
        assert_eq!(report.completed, expected, "{policy:?}: completions differ");
        assert_eq!(report.rejections, single.rejections);
        assert_eq!(report.final_tick, single.serve.final_tick);
        assert_eq!(report.per_model_slo, single.per_model_slo);
    }
}

#[test]
fn replicated_run_that_sheds_everything_has_zero_makespan() {
    // Regression: a replicated run with nothing admitted seeded its final
    // tick at 0, so a stream starting after tick 0 computed
    // `final_tick - first_arrival_tick` below zero — a debug-build panic and
    // a wrapped makespan in release.
    let stream: Vec<TaggedRequest> = UniformProcess::new(256, 4.0)
        .unwrap()
        .stream(0xE1, 12)
        .into_iter()
        .map(|mut request| {
            request.arrival_tick += 1_000;
            TaggedRequest {
                model_id: "bulk".to_string(),
                request,
            }
        })
        .collect();
    let mut cluster = Cluster::replicated(loaders(3), RoutingPolicy::HashModulo, u64::MAX).unwrap();
    // A 1-tick deadline no 256-wide PD batch can meet: admission sheds all.
    let slo = SloTarget::new(1, 0, 16).unwrap();
    cluster
        .insert("bulk", pd_snapshot(256, 256, 0xF3), Some(slo))
        .unwrap();
    let report = cluster
        .serve_traffic(
            &ParallelExecutor::new(2),
            &TrafficConfig::new(serve_cfg(), AdmissionPolicy::Fifo),
            stream,
        )
        .unwrap();
    assert!(report.completed.is_empty());
    assert_eq!(report.rejections.len(), 12);
    assert!(report.first_arrival_tick >= 1_000);
    assert_eq!(report.makespan_ticks(), 0);
    assert_eq!(report.requests_per_sec(1e6), 0.0);
}

// ---------------------------------------------------------------------------
// 2. Every generator × policy × topology.
// ---------------------------------------------------------------------------

#[test]
fn every_generator_and_policy_serves_identically_on_every_topology() {
    for (generator, stream) in generator_streams() {
        for policy in POLICIES {
            let baseline = single_host_decisions(&single_host_run(policy, &stream));
            let cfg = TrafficConfig::new(serve_cfg(), policy);

            let mut replicated =
                Cluster::replicated(loaders(3), RoutingPolicy::Rendezvous, u64::MAX).unwrap();
            populate(&mut replicated);
            let report = replicated
                .serve_traffic(&ParallelExecutor::new(2), &cfg, stream.clone())
                .unwrap();
            assert_eq!(
                cluster_decisions(&report),
                baseline,
                "{generator}/{policy:?}: replicated differs from single host"
            );

            for shards in [2, 7] {
                let mut sharded = Cluster::row_sharded(loaders(shards), u64::MAX).unwrap();
                populate(&mut sharded);
                let report = sharded
                    .serve_traffic(&ParallelExecutor::new(2), &cfg, stream.clone())
                    .unwrap();
                assert_eq!(
                    cluster_decisions(&report),
                    baseline,
                    "{generator}/{policy:?}: {shards} row shards changed the served bits"
                );
            }
        }
    }
}

#[test]
fn one_shard_reproduces_single_host_ticks_exactly() {
    let stream = zipf_stream();
    for policy in POLICIES {
        let single = single_host_run(policy, &stream);
        let mut expected = single.serve.completed.clone();
        expected.sort_by(|a, b| (&a.model_id, a.completed.id).cmp(&(&b.model_id, b.completed.id)));

        let mut cluster = Cluster::row_sharded(loaders(1), u64::MAX).unwrap();
        populate(&mut cluster);
        let report = cluster
            .serve_traffic(
                &ParallelExecutor::new(1),
                &TrafficConfig::new(serve_cfg(), policy),
                stream.clone(),
            )
            .unwrap();
        assert_eq!(report.completed, expected, "{policy:?}: completions differ");
        assert_eq!(report.final_tick, single.serve.final_tick);
    }
}

#[test]
fn row_sharding_scales_memory_down_per_host() {
    let whole_bytes: u64 = model_specs()
        .iter()
        .map(|&(_, dim, seed, _)| pd_snapshot(dim, dim, seed).len() as u64)
        .sum();
    let mut cluster = Cluster::row_sharded(loaders(4), u64::MAX).unwrap();
    populate(&mut cluster);
    for &host_bytes in &cluster.host_loaded_bytes() {
        // Three models on each host: each holds ~1/4 of each model's payload
        // plus per-shard container framing.
        assert!(
            host_bytes <= whole_bytes.div_ceil(4) + 3 * 256,
            "host holds {host_bytes} of {whole_bytes} whole-model bytes"
        );
    }
}

// ---------------------------------------------------------------------------
// 3. Pipeline bit-exactness.
// ---------------------------------------------------------------------------

/// A 32 → 48 → 32 → 32 chain: stage k's rows are stage k+1's cols.
fn stage_snapshots() -> Vec<Vec<u8>> {
    vec![
        pd_snapshot(48, 32, 0x51),
        pd_snapshot(32, 48, 0x52),
        pd_snapshot(32, 32, 0x53),
    ]
}

/// A single-host registry serving the fused chain through [`PipelineModel`]
/// — the reference a pipeline cluster must match.
fn fused_registry(slo: SloTarget) -> ModelRegistry {
    let stages = stage_snapshots();
    let loader: ModelLoader = Box::new(move |_| {
        let codec = SnapshotCodec::new();
        let chain: Vec<Arc<dyn BatchModel>> = stages
            .iter()
            .map(|bytes| {
                Ok(Arc::new(SingleLayerModel::new(load_tensor(bytes, &codec)?))
                    as Arc<dyn BatchModel>)
            })
            .collect::<Result<_, permdnn::core::snapshot::SnapshotError>>()?;
        Ok(Arc::new(PipelineModel::new(chain).expect("stages chain")) as Arc<dyn BatchModel>)
    });
    let mut reg = ModelRegistry::new(loader, u64::MAX);
    reg.insert_with_slo("chain", vec![0xC4], slo).unwrap();
    reg
}

#[test]
fn pipeline_cluster_matches_the_fused_single_host_chain() {
    let slo = SloTarget::new(2_000, 5, 24).unwrap();
    let stream: Vec<TaggedRequest> = ZipfMix::new(vec![("chain".to_string(), 32)], 1.1, 1.2)
        .unwrap()
        .stream(0x77, 70);
    for policy in POLICIES {
        let cfg = TrafficConfig::new(serve_cfg(), policy);
        let baseline = single_host_decisions(
            &fused_registry(slo)
                .serve_traffic(&ParallelExecutor::new(1), &cfg, stream.clone())
                .unwrap(),
        );
        for workers in GRID {
            for link_ticks in [0, 250] {
                let mut cluster = Cluster::pipeline(loaders(3), link_ticks, u64::MAX).unwrap();
                cluster
                    .insert_stages("chain", stage_snapshots(), Some(slo))
                    .unwrap();
                let report = cluster
                    .serve_traffic(&ParallelExecutor::new(workers), &cfg, stream.clone())
                    .unwrap();
                assert_eq!(
                    cluster_decisions(&report),
                    baseline,
                    "{policy:?}: pipeline at {workers} workers / link {link_ticks} \
                     changed the served bits"
                );
            }
        }
    }
}

#[test]
fn link_cost_moves_ticks_but_never_outputs() {
    let stream: Vec<TaggedRequest> = ZipfMix::new(vec![("chain".to_string(), 32)], 1.1, 0.8)
        .unwrap()
        .stream(0x78, 40);
    let cfg = TrafficConfig::new(serve_cfg(), AdmissionPolicy::Fifo);
    let run = |link: u64| {
        let mut cluster = Cluster::pipeline(loaders(3), link, u64::MAX).unwrap();
        cluster
            .insert_stages("chain", stage_snapshots(), None)
            .unwrap();
        cluster
            .serve_traffic(&ParallelExecutor::new(2), &cfg, stream.clone())
            .unwrap()
    };
    let free = run(0);
    let slow = run(500);
    assert_eq!(cluster_decisions(&free), cluster_decisions(&slow));
    assert!(
        slow.final_tick > free.final_tick,
        "2 hops x 500 ticks must lengthen the makespan ({} vs {})",
        slow.final_tick,
        free.final_tick
    );
}

#[test]
fn pipeline_model_is_the_stage_composition() {
    let codec = SnapshotCodec::new();
    let ops: Vec<_> = stage_snapshots()
        .iter()
        .map(|b| load_tensor(b, &codec).unwrap())
        .collect();
    let chain = PipelineModel::new(
        ops.iter()
            .map(|op| Arc::new(SingleLayerModel::new(op.clone())) as Arc<dyn BatchModel>)
            .collect(),
    )
    .unwrap();
    assert_eq!((chain.in_dim(), chain.out_dim()), (32, 32));
    assert_eq!(
        chain.mul_count_per_example(),
        ops.iter().map(|op| op.mul_count()).sum::<u64>()
    );
    let x: Vec<f32> = (0..32).map(|i| (i as f32 * 0.23).sin()).collect();
    let expected = ops
        .iter()
        .fold(x.clone(), |acc, op| op.matvec(&acc).unwrap());
    let xs = permdnn::core::format::BatchView::new(&x, 1, 32).unwrap();
    let out = chain
        .forward_batch(&xs, &ParallelExecutor::sequential())
        .unwrap();
    assert_eq!(out.row(0), &expected[..], "fused chain = composed matvecs");
}

// ---------------------------------------------------------------------------
// 5. Residency under pressure.
// ---------------------------------------------------------------------------

/// Serves `stream` on a cluster `build` makes at `budget` bytes per host and
/// at an unlimited budget, with the budget set below the smallest sum of one
/// host's parts. Both runs must agree on every completion record, outputs
/// and ticks alike, and some host must evict.
fn serve_under_pressure(build: impl Fn(u64) -> Cluster, stream: &[TaggedRequest]) {
    let cfg = TrafficConfig::new(serve_cfg(), AdmissionPolicy::Fifo);
    let exec = ParallelExecutor::new(2);
    let mut unlimited = build(u64::MAX);
    let budget = unlimited.host_loaded_bytes().into_iter().min().unwrap() - 1;
    let expected = unlimited
        .serve_traffic(&exec, &cfg, stream.to_vec())
        .unwrap();
    let mut tight = build(budget);
    let report = tight.serve_traffic(&exec, &cfg, stream.to_vec()).unwrap();
    let topology = tight.topology();
    assert_eq!(report.completed, expected.completed, "{topology:?}");
    assert_eq!(report.final_tick, expected.final_tick, "{topology:?}");
    for (k, host) in report.per_host.iter().enumerate() {
        let r = host.registry;
        eprintln!(
            "{topology:?} host {k}: {} evictions, {} reloads",
            r.evictions, r.reloads
        );
    }
    assert!(
        report.per_host.iter().any(|h| h.registry.evictions > 0),
        "{topology:?}: a budget below two parts must evict"
    );
}

#[test]
fn hosts_under_memory_pressure_serve_the_unlimited_runs_outputs_and_ticks() {
    let two_models = |in_dim| {
        interleave_streams(
            ["a", "b"]
                .iter()
                .zip([0xA7, 0xA8])
                .map(|(id, seed)| {
                    let stream = UniformProcess::new(in_dim, 3.0).unwrap().stream(seed, 24);
                    (id.to_string(), stream)
                })
                .collect(),
        )
    };
    serve_under_pressure(
        |budget| {
            let mut cluster = Cluster::row_sharded(loaders(2), budget).unwrap();
            cluster
                .insert("a", pd_snapshot(64, 64, 0x61), None)
                .unwrap();
            cluster
                .insert("b", pd_snapshot(32, 64, 0x62), None)
                .unwrap();
            cluster
        },
        &two_models(64),
    );
    serve_under_pressure(
        |budget| {
            let mut cluster = Cluster::pipeline(loaders(3), 40, budget).unwrap();
            cluster.insert_stages("a", stage_snapshots(), None).unwrap();
            let chain_b = vec![
                pd_snapshot(32, 32, 0x63),
                pd_snapshot(64, 32, 0x64),
                pd_snapshot(32, 64, 0x65),
            ];
            cluster.insert_stages("b", chain_b, None).unwrap();
            cluster
        },
        &two_models(32),
    );
}

// ---------------------------------------------------------------------------
// 4. Row-split round-trip + corruption.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn whole_decode_equals_concatenated_shard_decodes(
        (blocks, shards, seed) in (2usize..12, 1usize..8, 0u64..500)
    ) {
        let shards = shards.min(blocks);
        let dim = blocks * 4;
        let codec = SnapshotCodec::new();
        // PD tensor.
        let pd = BlockPermDiagMatrix::random(dim, dim, 4, &mut seeded_rng(seed));
        let pieces = split_tensor_rows(&save_tensor(&pd).unwrap(), shards).unwrap();
        prop_assert_eq!(pieces.len(), shards);
        let mut rows: Vec<f32> = Vec::new();
        for piece in &pieces {
            let op = load_tensor(piece, &codec).unwrap();
            rows.extend_from_slice(op.to_dense().as_slice());
        }
        prop_assert_eq!(rows, pd.to_dense().into_vec());
        // Dense tensor, same split.
        let dense = xavier_uniform(&mut seeded_rng(seed + 1), dim, 8);
        let pieces = split_tensor_rows(&save_tensor(&dense).unwrap(), shards).unwrap();
        prop_assert_eq!(pieces.len(), shards);
        let mut rows: Vec<f32> = Vec::new();
        for piece in &pieces {
            let op = load_tensor(piece, &codec).unwrap();
            rows.extend_from_slice(op.to_dense().as_slice());
        }
        prop_assert_eq!(rows, dense.into_vec());
    }

    #[test]
    fn sharded_container_bit_flips_are_typed_errors((byte, bit) in (0usize..10_000, 0u8..8)) {
        let mut bytes = pd_snapshot(32, 32, 0x99);
        let byte = byte % bytes.len();
        bytes[byte] ^= 1 << bit;
        // Every flip lands in the header or framing (validation fails), the
        // section name (the "tensor" lookup fails) or the checksummed
        // payload (CRC fails): always a clean Err, never a panic, never a
        // silent split.
        prop_assert!(split_tensor_rows(&bytes, 3).is_err());
    }

    #[test]
    fn sharded_container_truncation_is_a_typed_error(cut in 0usize..10_000) {
        let bytes = pd_snapshot(32, 32, 0x99);
        let cut = cut % bytes.len();
        prop_assert!(split_tensor_rows(&bytes[..cut], 3).is_err());
    }
}

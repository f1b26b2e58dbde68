//! Determinism and SLO contracts of the traffic engine
//! (`permdnn_runtime::traffic` + `permdnn_runtime::slo`):
//!
//! 1. For **every arrival generator × admission policy**, the admission
//!    decisions (which requests are shed, and why) and the served outputs
//!    (execution order, batch membership, every output bit) are identical
//!    across {1, 2, 3, 7} workers and across repeated runs with the same
//!    seed. Only completion ticks may change with the worker count.
//! 2. `seeded_request_stream` is the `UniformProcess` generator bit-for-bit,
//!    so every committed serving baseline stays comparable.
//! 3. `EarliestDeadline` attains at least `Fifo`'s SLO attainment on the
//!    flash-crowd scenario at the equal shed rate admission guarantees.
//! 4. The `ModelRegistry`'s weight cache under Zipf-skewed interleaved
//!    traffic keeps the hot model resident, evicts and reloads the cold one,
//!    and never changes a served bit.
//! 5. No generator's ticks wrap: at gaps whose sum passes `u64::MAX`, every
//!    stream stays sorted and ends at `u64::MAX`, and `plan_batches` serves
//!    each of its requests once.

use std::sync::Arc;

use permdnn::core::snapshot::{load_tensor, save_tensor, SnapshotCodec};
use permdnn::core::BlockPermDiagMatrix;
use permdnn::runtime::{
    interleave_streams, plan_batches, AdmissionPolicy, BatchConfig, BatchModel, ModelLoader,
    ModelRegistry, OnOffFlashCrowd, ParallelExecutor, PoissonBurst, Request, ServeConfig,
    ServiceModel, SingleLayerModel, SloTarget, TaggedRequest, TrafficConfig, TrafficReport,
    UniformProcess, ZipfMix,
};
use permdnn::tensor::init::seeded_rng;

const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 7];

fn tensor_loader() -> ModelLoader {
    Box::new(|bytes| {
        let op = load_tensor(bytes, &SnapshotCodec::new())?;
        Ok(Arc::new(SingleLayerModel::new(op)) as Arc<dyn BatchModel>)
    })
}

fn pd_snapshot(dim: usize, seed: u64) -> Vec<u8> {
    let w = BlockPermDiagMatrix::random(dim, dim, 4, &mut seeded_rng(seed));
    save_tensor(&w).unwrap()
}

/// A three-model registry with distinct shapes, costs and SLOs: a tight-
/// deadline high-priority "fast" model, a mid-tier "mid", and a loose but
/// expensive "bulk".
fn build_registry(budget: u64) -> ModelRegistry {
    let mut reg = ModelRegistry::new(tensor_loader(), budget);
    reg.insert_with_slo(
        "fast",
        pd_snapshot(16, 0xF1),
        SloTarget::new(300, 7, 16).unwrap(),
    )
    .unwrap();
    reg.insert_with_slo(
        "mid",
        pd_snapshot(32, 0xF2),
        SloTarget::new(1_200, 3, 32).unwrap(),
    )
    .unwrap();
    reg.insert_with_slo(
        "bulk",
        pd_snapshot(256, 0xF3),
        SloTarget::new(60_000, 1, 128).unwrap(),
    )
    .unwrap();
    reg
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        batching: BatchConfig::new(4, 12),
        service: ServiceModel::default(),
    }
}

/// Everything that must be invariant across worker counts: shed requests
/// (model, id, tick, reason) plus served decisions (execution order, batch
/// membership, output bits). Completion ticks are deliberately excluded.
#[allow(clippy::type_complexity)]
fn decisions(report: &TrafficReport) -> (Vec<String>, Vec<(String, u64, usize, Vec<f32>)>) {
    let sheds = report
        .rejections
        .iter()
        .map(|r| format!("{}/{}/{}/{:?}", r.model, r.request_id, r.tick, r.reason))
        .collect();
    let served = report
        .serve
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
        .collect();
    (sheds, served)
}

/// One dense stream per generator, routed across the registry's models. Each
/// stream is heavy enough to exercise batching, contention and (for the
/// bounded-depth models) shedding.
fn generator_streams() -> Vec<(&'static str, Vec<TaggedRequest>)> {
    let uniform = interleave_streams(vec![
        (
            "fast".to_string(),
            UniformProcess::new(16, 1.5).unwrap().stream(0xA1, 48),
        ),
        (
            "bulk".to_string(),
            UniformProcess::new(256, 4.0).unwrap().stream(0xA2, 24),
        ),
    ]);
    let poisson = interleave_streams(vec![
        (
            "fast".to_string(),
            PoissonBurst::new(16, 2.0, 0.35, 24)
                .unwrap()
                .stream(0xB1, 60),
        ),
        (
            "mid".to_string(),
            PoissonBurst::new(32, 3.0, 0.2, 8).unwrap().stream(0xB2, 30),
        ),
    ]);
    let crowd = interleave_streams(vec![
        (
            "fast".to_string(),
            OnOffFlashCrowd::new(16, 20, 150, 0.4)
                .unwrap()
                .stream(0xC1, 60),
        ),
        (
            "bulk".to_string(),
            UniformProcess::new(256, 0.0).unwrap().stream(0xC2, 16),
        ),
    ]);
    let zipf = ZipfMix::new(
        vec![
            ("fast".to_string(), 16),
            ("mid".to_string(), 32),
            ("bulk".to_string(), 256),
        ],
        1.3,
        1.0,
    )
    .unwrap()
    .stream(0xD1, 90);
    vec![
        ("uniform", uniform),
        ("poisson_burst", poisson),
        ("flash_crowd", crowd),
        ("zipf_mix", zipf),
    ]
}

#[test]
fn decisions_and_outputs_identical_across_workers_for_every_generator_and_policy() {
    let policies = [
        AdmissionPolicy::Fifo,
        AdmissionPolicy::Priority,
        AdmissionPolicy::EarliestDeadline,
    ];
    for (generator, stream) in generator_streams() {
        for policy in policies {
            let cfg = TrafficConfig::new(serve_cfg(), policy);
            let run = |workers: usize| {
                build_registry(u64::MAX)
                    .serve_traffic(&ParallelExecutor::new(workers), &cfg, stream.clone())
                    .unwrap()
            };
            let baseline = run(1);
            assert_eq!(
                baseline.offered(),
                stream.len(),
                "{generator}: every request is accounted for"
            );
            assert_eq!(
                baseline.serve.completed.len() + baseline.rejections.len(),
                stream.len(),
                "{generator}/{policy:?}: served + shed covers the stream"
            );
            // Same seed, same run: bit-identical, including ticks.
            let repeat = run(1);
            assert_eq!(baseline, repeat, "{generator}/{policy:?}: replay differs");
            for workers in &WORKER_COUNTS[1..] {
                let report = run(*workers);
                assert_eq!(
                    decisions(&report),
                    decisions(&baseline),
                    "{generator}/{policy:?}: {workers} workers changed decisions"
                );
            }
        }
    }
}

#[test]
fn seeded_request_stream_is_the_uniform_process_bit_for_bit() {
    for (seed, n, in_dim, mean) in [(7u64, 64usize, 16usize, 3.0f64), (42, 20, 8, 2.5)] {
        assert_eq!(
            permdnn::runtime::seeded_request_stream(seed, n, in_dim, mean),
            UniformProcess::new(in_dim, mean).unwrap().stream(seed, n),
            "legacy stream and UniformProcess must agree"
        );
    }
    // Saturated closed-loop mode included.
    assert_eq!(
        permdnn::runtime::seeded_request_stream(3, 12, 4, 0.0),
        UniformProcess::new(4, 0.0).unwrap().stream(3, 12),
    );
}

#[test]
fn earliest_deadline_attains_at_least_fifo_on_flash_crowd_at_equal_shed_rate() {
    // The crowd lands on "fast" while a saturated tick-0 "bulk" wave already
    // occupies the engine; Fifo serves the earlier-closed bulk backlog first,
    // EarliestDeadline lets the crowd jump it.
    let stream = interleave_streams(vec![
        (
            "fast".to_string(),
            OnOffFlashCrowd::new(16, 25, 200, 0.3)
                .unwrap()
                .stream(0xE1, 80),
        ),
        (
            "bulk".to_string(),
            UniformProcess::new(256, 0.0).unwrap().stream(0xE2, 48),
        ),
    ]);
    let run = |policy: AdmissionPolicy| {
        build_registry(u64::MAX)
            .serve_traffic(
                &ParallelExecutor::new(2),
                &TrafficConfig::new(serve_cfg(), policy),
                stream.clone(),
            )
            .unwrap()
    };
    let fifo = run(AdmissionPolicy::Fifo);
    let edf = run(AdmissionPolicy::EarliestDeadline);
    // Admission is policy-independent, so the shed sets are equal — the
    // attainment comparison is at exactly equal shed rate.
    assert_eq!(fifo.rejections, edf.rejections, "equal shed sets");
    assert_eq!(fifo.shed_rate(), edf.shed_rate());
    assert!(
        edf.attainment() >= fifo.attainment(),
        "EDF attainment {:.4} must be at least Fifo's {:.4}",
        edf.attainment(),
        fifo.attainment()
    );
    // On this contended scenario the improvement is strict: Fifo leaves
    // crowd requests stuck behind the bulk wave past their deadline.
    assert!(
        edf.attainment() > fifo.attainment(),
        "EDF {:.4} vs Fifo {:.4}: expected a strict rescue",
        edf.attainment(),
        fifo.attainment()
    );
}

#[test]
fn lru_cache_under_zipf_traffic_keeps_hot_resident_and_serves_identically() {
    let zipf = ZipfMix::new(
        vec![
            ("fast".to_string(), 16),
            ("mid".to_string(), 32),
            ("bulk".to_string(), 256),
        ],
        1.5,
        2.0,
    )
    .unwrap();
    let stream = zipf.stream(0xF5, 120);
    let cfg = TrafficConfig::new(serve_cfg(), AdmissionPolicy::EarliestDeadline);
    let run = |budget: u64| {
        let mut reg = build_registry(budget);
        let report = reg
            .serve_traffic(&ParallelExecutor::new(2), &cfg, stream.clone())
            .unwrap();
        (report, reg)
    };
    let (unlimited, _) = run(u64::MAX);

    // Budget sized to roughly one resident model: the Zipf-hot "fast" model
    // should stay cached while the cold tail thrashes.
    let bulk_bytes = pd_snapshot(256, 0xF3).len() as u64;
    let (tight, mut reg) = run(bulk_bytes + 8);
    assert!(
        tight.serve.stats.evictions > 0 && tight.serve.stats.reloads > 0,
        "tight budget must thrash the cold models: {:?}",
        tight.serve.stats
    );
    // A follow-up burst of hot-only traffic: the cache keeps the hot model
    // resident afterwards while the expensive cold model has been evicted.
    reg.serve_traffic(
        &ParallelExecutor::new(2),
        &cfg,
        interleave_streams(vec![(
            "fast".to_string(),
            UniformProcess::new(16, 1.0).unwrap().stream(0xF6, 8),
        )]),
    )
    .unwrap();
    assert!(reg.is_resident("fast"), "Zipf-hot model stays resident");
    assert!(
        !reg.is_resident("mid") || !reg.is_resident("bulk"),
        "some cold model must have been evicted"
    );
    // The weight cache changes *when* bytes are materialised — never what is
    // served or shed.
    assert_eq!(decisions(&tight), decisions(&unlimited));
    assert_eq!(tight.rejections, unlimited.rejections);
    assert_eq!(
        tight.serve.completed, unlimited.serve.completed,
        "ticks equal too: caching is off the service-time books"
    );
}

/// Checks a stream whose tick sums pass `u64::MAX`: it stays sorted, ends at
/// `u64::MAX`, and its batch plan serves each request once.
fn assert_saturated(stream: Vec<Request>) {
    assert!(stream
        .windows(2)
        .all(|w| w[0].arrival_tick <= w[1].arrival_tick));
    assert_eq!(stream.last().map(|r| r.arrival_tick), Some(u64::MAX));
    let n = stream.len() as u64;
    let plans = plan_batches(stream, BatchConfig::new(4, 10));
    let mut served: Vec<u64> = plans
        .iter()
        .flat_map(|b| b.requests.iter().map(|r| r.id))
        .collect();
    served.sort_unstable();
    assert_eq!(served, (0..n).collect::<Vec<_>>());
}

#[test]
fn uniform_ticks_saturate_instead_of_wrapping() {
    assert_saturated(UniformProcess::new(1, 1e300).unwrap().stream(1, 16));
}

#[test]
fn poisson_burst_ticks_saturate_instead_of_wrapping() {
    assert_saturated(PoissonBurst::new(1, 1e300, 0.5, 3).unwrap().stream(2, 16));
}

#[test]
fn flash_crowd_ticks_saturate_instead_of_wrapping() {
    let crowd = OnOffFlashCrowd::new(1, 1 << 63, 1 << 63, 1e19).unwrap();
    assert_saturated(crowd.stream(3, 16));
}

#[test]
fn zipf_mix_ticks_saturate_instead_of_wrapping() {
    let models = vec![("a".to_string(), 1), ("b".to_string(), 1)];
    let stream = ZipfMix::new(models, 1.0, 1e300).unwrap().stream(4, 16);
    assert_saturated(stream.into_iter().map(|t| t.request).collect());
}

//! Concurrency and determinism suite for the parallel batched-inference
//! runtime.
//!
//! Locks in the two properties serving correctness rests on:
//!
//! 1. **Equivalence** — `ParallelExecutor::matmul` is bit-for-bit identical to
//!    the sequential `CompressedLinear::matmul` for every weight format and
//!    any worker count (row-granular sharding re-orders no floating-point
//!    operation), including batch sizes not divisible by the worker count.
//! 2. **Determinism** — the same ChaCha-seeded request stream produces
//!    identical batching decisions and identical outputs across runs *and*
//!    across worker counts: batch formation is a pure function of the arrival
//!    stream and the policy, never of execution speed.

use std::sync::Arc;

use permdnn::core::format::{BatchView, CompressedLinear};
use permdnn::core::BlockPermDiagMatrix;
use permdnn::nn::layers::WeightFormat;
use permdnn::nn::MlpClassifier;
use permdnn::runtime::{
    plan_batches, seeded_request_stream, serve, BatchConfig, ParallelExecutor, ServeConfig,
    ServiceModel, SingleLayerModel,
};
use permdnn::tensor::init::{seeded_rng, xavier_uniform};
use proptest::prelude::*;

/// Every registry format at the given shape (dimensions padded to multiples
/// of 4 so the structured formats get whole blocks).
fn registry_formats() -> [WeightFormat; 6] {
    [
        WeightFormat::Dense,
        WeightFormat::PermutedDiagonal { p: 4 },
        WeightFormat::Circulant { k: 4 },
        WeightFormat::Circulant { k: 3 }, // non-2ᵗ: direct-kernel fallback
        WeightFormat::UnstructuredSparse { p: 4 },
        WeightFormat::SharedPermutedDiagonal { p: 4, tag_bits: 4 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_matmul_is_bit_identical_for_every_format_and_worker_count(
        (rows4, cols4, batch, seed) in (1usize..=10, 1usize..=10, 1usize..=17, 0u64..300)
    ) {
        let (rows, cols) = (rows4 * 4, cols4 * 4);
        let mut rng = seeded_rng(seed);
        let xs_mat = xavier_uniform(&mut seeded_rng(seed ^ 0xface), batch, cols);
        let xs = BatchView::from_matrix(&xs_mat);
        for format in registry_formats() {
            let op: Arc<dyn CompressedLinear> = Arc::from(format.build(rows, cols, &mut rng));
            let sequential = op.matmul(&xs).unwrap();
            // 1, 2, 3 and 7 workers: batch sizes up to 17 are routinely not
            // divisible by the worker count.
            for workers in [1usize, 2, 3, 7] {
                let exec = ParallelExecutor::new(workers);
                let parallel = exec.matmul(&op, &xs).unwrap();
                prop_assert_eq!(
                    &parallel,
                    &sequential,
                    "{} with {} workers on a {}-row batch",
                    format.label(),
                    workers,
                    batch
                );
            }
        }
    }
}

#[test]
fn batching_decisions_are_identical_across_runs() {
    let cfg = BatchConfig::new(8, 12);
    let a = plan_batches(seeded_request_stream(99, 64, 4, 5.0), cfg);
    let b = plan_batches(seeded_request_stream(99, 64, 4, 5.0), cfg);
    assert_eq!(a, b, "same seed, same plan");
    assert!(a.len() > 1, "the stream should produce several batches");
    let served: usize = a.iter().map(|p| p.requests.len()).sum();
    assert_eq!(served, 64);

    let c = plan_batches(seeded_request_stream(100, 64, 4, 5.0), cfg);
    assert_ne!(a, c, "a different seed should batch differently");
}

#[test]
fn serving_is_deterministic_across_runs_and_worker_counts() {
    let op: Arc<dyn CompressedLinear> =
        Arc::new(BlockPermDiagMatrix::random(32, 32, 4, &mut seeded_rng(5)));
    let model = SingleLayerModel::new(op);
    let cfg = ServeConfig {
        batching: BatchConfig::new(8, 12),
        service: ServiceModel::default(),
    };
    let stream = seeded_request_stream(41, 48, 32, 4.0);

    let baseline = serve(&model, &ParallelExecutor::new(1), &cfg, stream.clone()).unwrap();
    let rerun = serve(&model, &ParallelExecutor::new(1), &cfg, stream.clone()).unwrap();
    assert_eq!(
        baseline, rerun,
        "same stream, same worker count: same report"
    );

    for workers in [2usize, 3, 7] {
        let exec = ParallelExecutor::new(workers);
        let report = serve(&model, &exec, &cfg, stream.clone()).unwrap();
        // Batching decisions are a function of the arrival stream only.
        assert_eq!(
            report.batch_sizes, baseline.batch_sizes,
            "{workers} workers changed the batching decisions"
        );
        // Outputs are bit-for-bit identical; only latency accounting may
        // change with worker count.
        assert_eq!(report.completed.len(), baseline.completed.len());
        for (got, want) in report.completed.iter().zip(baseline.completed.iter()) {
            assert_eq!(got.id, want.id, "{workers} workers reordered completions");
            assert_eq!(got.output, want.output, "request {} diverged", got.id);
        }
    }
}

#[test]
fn served_mlp_outputs_match_sequential_logits_for_every_format() {
    for format in registry_formats() {
        let model = MlpClassifier::new_frozen(16, &[24], 4, format, &mut seeded_rng(11));
        let cfg = ServeConfig {
            batching: BatchConfig::new(4, 6),
            service: ServiceModel::default(),
        };
        let stream = seeded_request_stream(17, 20, 16, 2.0);
        let exec = ParallelExecutor::new(3);
        let report = serve(&model, &exec, &cfg, stream.clone()).unwrap();
        assert_eq!(report.completed.len(), 20, "{}", format.label());
        for done in &report.completed {
            let expected = model.logits(&stream[done.id as usize].input);
            assert_eq!(
                done.output,
                expected,
                "{}: request {} diverged from sequential inference",
                format.label(),
                done.id
            );
        }
    }
}

#[test]
fn quantized_serving_is_bit_exact_across_worker_counts() {
    // The fixed-point backend through the full serving stack: a frozen MLP
    // quantized to 16 bits must produce bit-identical outputs for any worker
    // count, exactly like the f32 path — integer kernels shard by batch rows
    // and re-order nothing.
    for format in [
        WeightFormat::Dense,
        WeightFormat::PermutedDiagonal { p: 4 },
        WeightFormat::Circulant { k: 4 }, // dequantize-fallback path
        WeightFormat::UnstructuredSparse { p: 4 },
    ] {
        let model = MlpClassifier::new_frozen(16, &[24], 4, format, &mut seeded_rng(31));
        let stream = seeded_request_stream(37, 24, 16, 2.0);
        let calibration: Vec<Vec<f32>> = stream.iter().map(|r| r.input.clone()).collect();
        let (q_model, _) = model.quantize(&calibration);
        let cfg = ServeConfig {
            batching: BatchConfig::new(4, 6),
            service: ServiceModel::fixed_point(),
        };
        let baseline = serve(&q_model, &ParallelExecutor::new(1), &cfg, stream.clone()).unwrap();
        for workers in [2usize, 3, 7] {
            let exec = ParallelExecutor::new(workers);
            let report = serve(&q_model, &exec, &cfg, stream.clone()).unwrap();
            assert_eq!(
                report.batch_sizes,
                baseline.batch_sizes,
                "{}: {workers} workers changed the batching decisions",
                format.label()
            );
            for (got, want) in report.completed.iter().zip(baseline.completed.iter()) {
                assert_eq!(got.id, want.id);
                assert_eq!(
                    got.output,
                    want.output,
                    "{}: quantized request {} diverged at {workers} workers",
                    format.label(),
                    got.id
                );
            }
        }
        // And the served outputs are the quantized model's own logits.
        for done in &baseline.completed {
            assert_eq!(
                done.output,
                q_model.logits(&stream[done.id as usize].input),
                "{}: request {}",
                format.label(),
                done.id
            );
        }
    }
}

#[test]
fn mixed_format_serving_is_bit_exact_across_worker_counts() {
    // The autotuner's output shape: different weight formats on different
    // layers of the same model. Worker-count invariance must hold exactly as
    // it does for uniform-format models — each layer's kernel shards by
    // batch rows independently of its neighbours' formats.
    let model = MlpClassifier::new_frozen_mixed(
        16,
        &[
            (24, WeightFormat::PermutedDiagonal { p: 4 }),
            (16, WeightFormat::EieEncoded { p: 4 }),
            (
                12,
                WeightFormat::SharedPermutedDiagonal { p: 4, tag_bits: 4 },
            ),
        ],
        4,
        &mut seeded_rng(51),
    );
    let cfg = ServeConfig {
        batching: BatchConfig::new(4, 6),
        service: ServiceModel::default(),
    };
    let stream = seeded_request_stream(53, 24, 16, 2.0);
    let baseline = serve(&model, &ParallelExecutor::new(1), &cfg, stream.clone()).unwrap();
    for workers in [2usize, 3, 7] {
        let exec = ParallelExecutor::new(workers);
        let report = serve(&model, &exec, &cfg, stream.clone()).unwrap();
        assert_eq!(
            report.batch_sizes, baseline.batch_sizes,
            "{workers} workers changed the batching decisions"
        );
        for (got, want) in report.completed.iter().zip(baseline.completed.iter()) {
            assert_eq!(got.id, want.id);
            assert_eq!(
                got.output, want.output,
                "mixed-format request {} diverged at {workers} workers",
                got.id
            );
        }
    }
    for done in &baseline.completed {
        assert_eq!(
            done.output,
            model.logits(&stream[done.id as usize].input),
            "request {} diverged from sequential inference",
            done.id
        );
    }
}

#[test]
fn quantized_integer_matmul_is_bit_identical_for_every_format_and_worker_count() {
    use permdnn::core::qlinear::{QScheme, QuantizedLinear};
    let xs_mat = xavier_uniform(&mut seeded_rng(53), 9, 32);
    let xs = BatchView::from_matrix(&xs_mat);
    for format in registry_formats() {
        let op: Arc<dyn CompressedLinear> = Arc::from(format.build(20, 32, &mut seeded_rng(51)));
        // Quantized models serve through the executor's one f32 path; the
        // dequantized outputs are exact images of the raw `i16` ones.
        let q: Arc<dyn CompressedLinear> = Arc::new(QuantizedLinear::from_op(
            Arc::clone(&op),
            QScheme::calibrate(1.0, op.max_weight_abs(), 16.0),
        ));
        let sequential = q.matmul(&xs).unwrap();
        for workers in [1usize, 2, 3, 7] {
            let exec = ParallelExecutor::new(workers);
            let parallel = exec.matmul(&q, &xs).unwrap();
            assert_eq!(
                parallel,
                sequential,
                "{} with {workers} workers",
                format.label()
            );
        }
    }
}

#[test]
fn modeled_throughput_scales_with_workers_for_a_saturated_stream() {
    let model = MlpClassifier::new_frozen(
        64,
        &[64],
        8,
        WeightFormat::PermutedDiagonal { p: 4 },
        &mut seeded_rng(23),
    );
    let cfg = ServeConfig {
        batching: BatchConfig::new(32, 0),
        service: ServiceModel::default(),
    };
    let stream = seeded_request_stream(29, 256, 64, 0.0);
    let one = serve(&model, &ParallelExecutor::new(1), &cfg, stream.clone()).unwrap();
    let four = serve(&model, &ParallelExecutor::new(4), &cfg, stream).unwrap();
    let speedup = one.makespan_ticks() as f64 / four.makespan_ticks() as f64;
    assert!(
        speedup > 1.5,
        "4 workers vs 1 on batch-32 serving: {speedup:.2}x"
    );
}

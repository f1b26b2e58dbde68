//! Property suite for the 16-bit fixed-point inference backend.
//!
//! Pins down the numeric contract of `permdnn_core::qlinear`:
//!
//! 1. **Rounding bound** — for every registry format, the quantized kernel's
//!    output matches the f32-roundtrip reference (dequantized weights ×
//!    round-tripped input, computed in f32) within `Q16::EPSILON · in_dim`
//!    per element: per-product rounding is at most half an ulp of the
//!    accumulator format and requantization at most half an ulp of the
//!    output format.
//! 2. **End-to-end accuracy** — a trained MLP quantized to 16 bits serves
//!    through `runtime::serve` with classification accuracy within 1 point
//!    of the f32 model on the synthetic eval set.
//! 3. **Saturation semantics** — overflow clamps (and is counted), never
//!    wraps.

use std::sync::Arc;

use permdnn::core::format::{BatchView, CompressedLinear};
use permdnn::core::qlinear::{QScheme, QuantizedLinear};
use permdnn::nn::data::GaussianClusters;
use permdnn::nn::layers::WeightFormat;
use permdnn::nn::MlpClassifier;
use permdnn::runtime::{serve, BatchConfig, ParallelExecutor, ServeConfig, ServiceModel};
use permdnn::tensor::fixed::roundtrip_f32;
use permdnn::tensor::init::{seeded_rng, sparse_activation_vector};
use proptest::prelude::*;

/// Every registry format (dimensions padded to multiples of 4 for the
/// structured formats).
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

/// Calibrated quantization of a freshly built operator against an input: the
/// output Q-format is chosen from the actual f32 output range, so the
/// rounding-bound property is not polluted by saturation.
fn calibrated(op: Arc<dyn CompressedLinear>, x: &[f32]) -> (QuantizedLinear, QScheme) {
    let input_max = x.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let y = op.matvec(x).expect("matching dims");
    let output_max = y.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let scheme = QScheme::calibrate(
        input_max.max(1e-3),
        op.max_weight_abs(),
        output_max.max(1e-3),
    );
    (QuantizedLinear::from_op(op, scheme), scheme)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn quantized_kernels_match_f32_roundtrip_reference(
        (rows4, cols4, seed, density) in (1usize..=8, 1usize..=8, 0u64..300, 1usize..=10)
    ) {
        let (rows, cols) = (rows4 * 4, cols4 * 4);
        let mut rng = seeded_rng(seed);
        let x = sparse_activation_vector(&mut seeded_rng(seed ^ 0xbeef), cols, density as f64 / 10.0);
        for format in registry_formats() {
            let op: Arc<dyn CompressedLinear> = Arc::from(format.build(rows, cols, &mut rng));
            let (q, scheme) = calibrated(Arc::clone(&op), &x);
            let got = q.matvec(&x).unwrap();

            // The f32-roundtrip reference: the quantized operator's own dense
            // expansion (dequantized weights for integer kernels, the f32
            // weights for the fallback) times the round-tripped input.
            let x_rt: Vec<f32> = x.iter().map(|&v| roundtrip_f32(v, scheme.input_frac)).collect();
            let reference = q.to_dense().matvec(&x_rt);

            // Per element: ≤ in_dim half-ulps of the accumulator grid plus one
            // ulp of the output grid (requantization + the reference's own f32
            // rounding slack).
            let tol = scheme.accumulator_epsilon() * cols as f32
                + 2.0 * scheme.output_epsilon();
            for (i, (a, b)) in got.iter().zip(reference.iter()).enumerate() {
                prop_assert!(
                    (a - b).abs() <= tol,
                    "{} row {i}: q16 {a} vs reference {b} (tol {tol})",
                    format.label()
                );
            }
        }
    }

    #[test]
    fn quantized_matmul_is_bit_identical_across_worker_counts(
        (seed, batch) in (0u64..200, 1usize..=13)
    ) {
        let mut rng = seeded_rng(seed);
        let op: Arc<dyn CompressedLinear> =
            Arc::from(WeightFormat::PermutedDiagonal { p: 4 }.build(24, 32, &mut rng));
        let q: Arc<dyn CompressedLinear> = Arc::new(QuantizedLinear::from_op(
            Arc::clone(&op),
            QScheme::calibrate(1.0, op.max_weight_abs(), 16.0),
        ));
        let xs_flat: Vec<f32> = (0..batch * 32)
            .map(|n| ((seed as f32 + n as f32) * 0.37).sin())
            .collect();
        let xs = BatchView::new(&xs_flat, batch, 32).unwrap();
        let sequential = q.matmul(&xs).unwrap();
        for workers in [1usize, 2, 3, 7] {
            let exec = ParallelExecutor::new(workers);
            let parallel = exec.matmul(&q, &xs).unwrap();
            prop_assert_eq!(&parallel, &sequential, "workers = {}", workers);
        }
    }
}

#[test]
fn every_format_quantizes_with_the_expected_execution_path() {
    let mut rng = seeded_rng(9);
    for format in registry_formats() {
        let op: Arc<dyn CompressedLinear> = Arc::from(format.build(16, 16, &mut rng));
        let q = QuantizedLinear::from_op(Arc::clone(&op), QScheme::q3_12());
        let expect_integer = !matches!(format, WeightFormat::Circulant { .. });
        assert_eq!(
            q.has_integer_kernel(),
            expect_integer,
            "{}: integer kernels for dense/PD/CSC/EIE-style formats, fallback for circulant",
            format.label()
        );
        assert_eq!(q.out_dim(), 16);
        assert_eq!(q.in_dim(), 16);
        assert!(q.stored_weights() > 0, "{}", format.label());
        // Cost accounting carries over from the source format.
        assert_eq!(q.mul_count(), op.mul_count(), "{}", format.label());
        assert_eq!(
            q.exploits_input_sparsity(),
            op.exploits_input_sparsity(),
            "{}",
            format.label()
        );
    }
}

#[test]
fn quantized_mlp_serves_within_one_point_of_f32_accuracy() {
    // The acceptance bar: a trained, frozen MLP quantized to 16 bits runs
    // end-to-end through runtime::serve with accuracy within 1 point of f32.
    let (train, eval) =
        GaussianClusters::generate(&mut seeded_rng(41), 1200, 4, 24, 1.0).split(0.5);
    let mut model = MlpClassifier::new(
        24,
        &[32],
        4,
        WeightFormat::PermutedDiagonal { p: 4 },
        &mut seeded_rng(42),
    );
    model.fit(&train, 8, 8, 0.1);
    let f32_acc = model.evaluate(&eval);
    assert!(f32_acc > 0.8, "f32 model should learn the task: {f32_acc}");

    let (q_model, report) = model.quantize(&train.features);
    assert!(report.fully_integer(), "PD + dense head both have kernels");
    let q_acc = q_model.evaluate(&eval);
    assert!(
        (f32_acc - q_acc).abs() <= 0.01,
        "q16 accuracy {q_acc} drifted more than 1 point from f32 {f32_acc}"
    );

    // Serve the eval set through the runtime and grade the served outputs.
    let requests: Vec<permdnn::runtime::Request> = eval
        .features
        .iter()
        .enumerate()
        .map(|(i, x)| permdnn::runtime::Request {
            id: i as u64,
            arrival_tick: i as u64,
            input: x.clone(),
        })
        .collect();
    let cfg = ServeConfig {
        batching: BatchConfig::new(16, 4),
        service: ServiceModel::fixed_point(),
    };
    let exec = ParallelExecutor::new(3);
    let report = serve(&q_model, &exec, &cfg, requests).unwrap();
    let mut correct = 0usize;
    for done in &report.completed {
        let predicted = done
            .output
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        correct += usize::from(predicted == eval.labels[done.id as usize]);
    }
    let served_acc = correct as f64 / eval.len() as f64;
    assert!(
        (served_acc - q_acc).abs() < 1e-12,
        "served accuracy {served_acc} must equal sequential quantized accuracy {q_acc}"
    );
}

#[test]
fn saturation_clamps_and_is_counted_never_wraps() {
    // Weights and inputs chosen so the true sum (64 · 1.9 · 1.9 ≈ 231)
    // overflows every 16-bit output format: the output must pin at the
    // positive rail and the counters must say so.
    let m = permdnn::tensor::Matrix::filled(2, 64, 1.9);
    let op: Arc<dyn CompressedLinear> = Arc::new(m);
    let q = QuantizedLinear::from_op(op, QScheme::new(14, 14, 14));
    let x_raw = q.quantize_input(&vec![1.9f32; 64]);
    let (y, stats) = q.matvec_q(&x_raw).unwrap();
    for &raw in &y {
        assert_eq!(raw, i16::MAX, "pinned at the rail, not wrapped negative");
    }
    assert!(stats.saturated());
    assert!(stats.accumulator_saturations > 0 || stats.requantize_saturations > 0);

    // The mirrored input pins at the negative rail.
    let x_neg = q.quantize_input(&vec![-1.9f32; 64]);
    let (y_neg, _) = q.matvec_q(&x_neg).unwrap();
    for &raw in &y_neg {
        assert_eq!(raw, i16::MIN);
    }
}

//! f32-vs-q16 sweep across weight formats: accuracy delta and serving
//! throughput of the 16-bit fixed-point backend.
//!
//! For every registry format the sweep trains the same small classifier on
//! the synthetic Gaussian-clusters task, quantizes it to the fixed-point
//! backend with per-layer calibration, and then:
//!
//! * compares classification accuracy of the f32 and q16 models on the held
//!   out eval set (the acceptance bar: within 1 percentage point);
//! * serves the same saturated request stream through `runtime::serve` with
//!   both models — the f32 one under the default `ServiceModel`, the q16 one
//!   under `ServiceModel::fixed_point()` (the 16-bit datapath retires 4× the
//!   multiplies per worker tick) — and reports modeled requests/sec.
//!
//! Results land in `BENCH_quant.json` (override with `--out PATH`).
//!
//! Run: `cargo run --release -p permdnn-bench --bin quant_sweep [-- --full]`

use std::fmt::Write as _;
use std::sync::Arc;

use pd_tensor::init::seeded_rng;
use permdnn_bench::{full_run_requested, out_path, print_header, ratio, write_artifact};
use permdnn_nn::data::GaussianClusters;
use permdnn_nn::layers::WeightFormat;
use permdnn_nn::MlpClassifier;
use permdnn_runtime::{
    seeded_request_stream, serve, BatchConfig, ParallelExecutor, ServeConfig, ServiceModel,
};

/// Nominal tick rate: 1 tick = 1 µs.
const TICK_HZ: f64 = 1e6;

struct SweepPoint {
    format: String,
    f32_accuracy: f64,
    q16_accuracy: f64,
    accuracy_delta: f64,
    fully_integer: bool,
    f32_rps: f64,
    q16_rps: f64,
    throughput_ratio: f64,
}

fn main() {
    let full = full_run_requested();
    let out_path = out_path("BENCH_quant.json");

    let (input_dim, hidden, classes) = (32usize, [48usize], 4usize);
    let (n_samples, epochs, n_requests) = if full {
        (4000usize, 10usize, 1024usize)
    } else {
        (2000, 6, 256)
    };
    let formats = [
        WeightFormat::Dense,
        WeightFormat::PermutedDiagonal { p: 4 },
        WeightFormat::Circulant { k: 4 },
        WeightFormat::UnstructuredSparse { p: 4 },
        WeightFormat::SharedPermutedDiagonal { p: 4, tag_bits: 4 },
    ];

    let (train, eval) =
        GaussianClusters::generate(&mut seeded_rng(77), n_samples, classes, input_dim, 1.1)
            .split(0.5);
    let calibration: Vec<Vec<f32>> = train.features.iter().take(256).cloned().collect();
    let stream = seeded_request_stream(7, n_requests, input_dim, 0.0);
    let exec = ParallelExecutor::new(4);
    let batching = BatchConfig::new(32, 0);

    print_header("Fixed-point backend: f32 vs q16 per format");
    println!(
        "model {input_dim}-{hidden:?}-{classes}, {} train / {} eval examples, \
         {n_requests}-request saturated stream, 4 workers\n",
        train.len(),
        eval.len()
    );
    println!(
        "{:<34} {:>8} {:>8} {:>8} {:>11} {:>11} {:>7}",
        "format", "f32 acc", "q16 acc", "delta", "f32 req/s", "q16 req/s", "ratio"
    );

    let mut points: Vec<SweepPoint> = Vec::new();
    for format in formats {
        let mut model =
            MlpClassifier::new(input_dim, &hidden, classes, format, &mut seeded_rng(2024));
        model.fit(&train, epochs, 8, 0.1);
        let f32_accuracy = model.evaluate(&eval);
        let (q_model, report) = model.quantize(&calibration);
        let q16_accuracy = q_model.evaluate(&eval);
        let accuracy_delta = f32_accuracy - q16_accuracy;

        let f32_report = serve(
            &model,
            &exec,
            &ServeConfig {
                batching,
                service: ServiceModel::default(),
            },
            stream.clone(),
        )
        .expect("stream inputs match the model width");
        let q_model = Arc::new(q_model);
        let q16_report = serve(
            q_model.as_ref(),
            &exec,
            &ServeConfig {
                batching,
                service: ServiceModel::fixed_point(),
            },
            stream.clone(),
        )
        .expect("stream inputs match the model width");
        // The served quantized outputs are the quantized model's own logits.
        for done in q16_report.completed.iter().take(8) {
            assert_eq!(
                done.output,
                q_model.logits(&stream[done.id as usize].input),
                "{}: served output diverged from sequential quantized inference",
                format.label()
            );
        }

        let point = SweepPoint {
            format: format.label(),
            f32_accuracy,
            q16_accuracy,
            accuracy_delta,
            fully_integer: report.fully_integer(),
            f32_rps: f32_report.requests_per_sec(TICK_HZ),
            q16_rps: q16_report.requests_per_sec(TICK_HZ),
            throughput_ratio: q16_report.requests_per_sec(TICK_HZ)
                / f32_report.requests_per_sec(TICK_HZ),
        };
        println!(
            "{:<34} {:>8.4} {:>8.4} {:>8.4} {:>11.0} {:>11.0} {:>7}",
            point.format,
            point.f32_accuracy,
            point.q16_accuracy,
            point.accuracy_delta,
            point.f32_rps,
            point.q16_rps,
            ratio(point.throughput_ratio)
        );
        assert!(
            point.accuracy_delta.abs() <= 0.01,
            "{}: q16 accuracy drifted by {:.4} (> 1 point) from f32",
            point.format,
            point.accuracy_delta
        );
        assert!(
            point.throughput_ratio > 1.5,
            "{}: fixed-point serving should out-run f32 ({:.2}x)",
            point.format,
            point.throughput_ratio
        );
        points.push(point);
    }

    let json = render_json(input_dim, &hidden, classes, n_requests, &points);
    write_artifact(&out_path, &json);
}

fn render_json(
    input_dim: usize,
    hidden: &[usize],
    classes: usize,
    n_requests: usize,
    points: &[SweepPoint],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"quant_sweep\",");
    let _ = writeln!(s, "  \"tick_hz\": {TICK_HZ},");
    let hidden_list = hidden
        .iter()
        .map(|h| h.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(
        s,
        "  \"model\": {{\"input_dim\": {input_dim}, \"hidden\": [{hidden_list}], \"classes\": {classes}}},"
    );
    let _ = writeln!(s, "  \"requests\": {n_requests},");
    let _ = writeln!(
        s,
        "  \"service_models\": {{\"f32_muls_per_worker_tick\": {}, \"q16_muls_per_worker_tick\": {}}},",
        ServiceModel::default().muls_per_worker_tick,
        ServiceModel::fixed_point().muls_per_worker_tick
    );
    s.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"format\": \"{}\", \"f32_accuracy\": {:.4}, \"q16_accuracy\": {:.4}, \
             \"accuracy_delta\": {:.4}, \"fully_integer\": {}, \"f32_requests_per_sec\": {:.2}, \
             \"q16_requests_per_sec\": {:.2}, \"throughput_ratio\": {:.3}}}",
            p.format,
            p.f32_accuracy,
            p.q16_accuracy,
            p.accuracy_delta,
            p.fully_integer,
            p.f32_rps,
            p.q16_rps,
            p.throughput_ratio
        );
        s.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

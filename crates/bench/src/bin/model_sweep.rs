//! Unified model sweep: every architecture (MLP, conv net, seq2seq LSTM)
//! served through the one `CompressedLinear` stack, format × model × workers.
//!
//! For each model family the sweep trains a small f32 model, freezes it onto
//! the serving stack (`MlpClassifier::new_frozen`, `ConvClassifier::freeze`,
//! `Seq2Seq::freeze`), verifies the frozen + quantized forward is bit-for-bit
//! identical across worker counts (the PR 2 invariant, now covering conv and
//! LSTM), and reports the modeled serving throughput of the deterministic
//! `ServiceModel` (`ceil(muls / (throughput·workers))` ticks per batch,
//! 1 tick = 1 µs) at 1, 2 and 4 workers.
//!
//! The acceptance bar asserted here: permuted-diagonal conv and LSTM serving
//! at p = 4 must model ≥ 1.5× the dense throughput.
//!
//! Results land in `BENCH_models.json` (override with `--out PATH`).
//!
//! Run: `cargo run --release -p permdnn-bench --bin model_sweep [-- --full]`

use std::fmt::Write as _;

use pd_tensor::init::seeded_rng;
use permdnn_bench::{full_run_requested, out_path, print_header, ratio, write_artifact};
use permdnn_nn::conv_net::ConvClassifier;
use permdnn_nn::data::{GlyphImages, TranslationPairs};
use permdnn_nn::layers::WeightFormat;
use permdnn_nn::lstm::Seq2Seq;
use permdnn_runtime::{ParallelExecutor, ServiceModel};

/// Nominal tick rate: 1 tick = 1 µs.
const TICK_HZ: f64 = 1e6;
/// Batch size the throughput model charges.
const BATCH: u64 = 32;
/// Worker counts reported in the sweep.
const WORKERS: [usize; 3] = [1, 2, 4];
/// Worker counts the bit-exactness checks cover (incl. non-divisors).
const EXACTNESS_WORKERS: [usize; 4] = [1, 2, 3, 7];

struct SweepPoint {
    model: &'static str,
    format: String,
    muls_per_example: u64,
    rps: Vec<f64>, // one per WORKERS entry
}

fn modeled_rps(muls_per_example: u64, workers: usize, service: &ServiceModel) -> f64 {
    let ticks = service.batch_ticks(muls_per_example * BATCH, workers);
    BATCH as f64 / ticks as f64 * TICK_HZ
}

fn sweep_point(model: &'static str, format: String, muls_per_example: u64) -> SweepPoint {
    let service = ServiceModel::default();
    SweepPoint {
        model,
        format,
        muls_per_example,
        rps: WORKERS
            .iter()
            .map(|&w| modeled_rps(muls_per_example, w, &service))
            .collect(),
    }
}

fn main() {
    let full = full_run_requested();
    let out_path = out_path("BENCH_models.json");
    let (samples, epochs) = if full { (400usize, 6usize) } else { (128, 2) };
    let formats = [WeightFormat::Dense, WeightFormat::PermutedDiagonal { p: 4 }];

    print_header("Unified model sweep: format x model x workers");
    println!(
        "{:<10} {:<28} {:>14} {:>11} {:>11} {:>11}",
        "model", "format", "muls/example", "rps@1w", "rps@2w", "rps@4w"
    );

    let mut points: Vec<SweepPoint> = Vec::new();

    // ---- Conv net ----
    let glyphs = GlyphImages::generate(&mut seeded_rng(31), samples, 4, 12, 1, 0.15);
    for format in formats {
        let mut model = ConvClassifier::new(12, 1, [8, 16], 4, format, &mut seeded_rng(32))
            .expect("dense and PD convolutions are trainable");
        model.fit(&glyphs, epochs, 0.05);
        let frozen = model.freeze();
        let (quantized, report) = frozen.quantize(&glyphs.images[..16.min(glyphs.len())]);
        assert!(
            report.fully_integer(),
            "conv {} should run on integer kernels",
            format.label()
        );

        // Worker-count bit-exactness, f32 and quantized (the PR 2 invariant).
        let image = &glyphs.images[0];
        let sequential = frozen.logits(image).unwrap();
        let q_sequential = quantized.logits(image).unwrap();
        for workers in EXACTNESS_WORKERS {
            let exec = ParallelExecutor::new(workers);
            assert_eq!(
                frozen.logits_parallel(image, &exec).unwrap(),
                sequential,
                "conv {} diverged at {workers} workers",
                format.label()
            );
            assert_eq!(
                quantized.logits_parallel(image, &exec).unwrap(),
                q_sequential,
                "quantized conv {} diverged at {workers} workers",
                format.label()
            );
        }
        points.push(sweep_point(
            "conv",
            format.label(),
            frozen.mul_count_per_example(),
        ));
    }

    // ---- Seq2seq LSTM ----
    let pairs = TranslationPairs::generate(&mut seeded_rng(41), samples, 8, 4);
    for format in formats {
        let mut model = Seq2Seq::new(8, 32, format, &mut seeded_rng(42));
        model.fit(&pairs, epochs, 0.25);
        let frozen = model.freeze();
        let (quantized, report) = frozen.quantize(&pairs);
        assert!(
            report.fully_integer(),
            "lstm {} should run on integer kernels",
            format.label()
        );

        let sources: Vec<Vec<u32>> = pairs.sources.iter().take(7).cloned().collect();
        let sequential: Vec<Vec<u32>> = sources
            .iter()
            .map(|s| frozen.translate(s, 4).unwrap())
            .collect();
        let q_sequential: Vec<Vec<u32>> = sources
            .iter()
            .map(|s| quantized.translate(s, 4).unwrap())
            .collect();
        for workers in EXACTNESS_WORKERS {
            let exec = ParallelExecutor::new(workers);
            assert_eq!(
                frozen.translate_batch(&sources, 4, &exec).unwrap(),
                sequential,
                "lstm {} diverged at {workers} workers",
                format.label()
            );
            assert_eq!(
                quantized.translate_batch(&sources, 4, &exec).unwrap(),
                q_sequential,
                "quantized lstm {} diverged at {workers} workers",
                format.label()
            );
        }
        points.push(sweep_point(
            "lstm",
            format.label(),
            frozen.mul_count_per_translation(4, 4),
        ));
    }

    // ---- MLP (context row: the stack PRs 1-3 already served) ----
    for format in formats {
        let model =
            permdnn_nn::MlpClassifier::new_frozen(32, &[48], 4, format, &mut seeded_rng(52));
        points.push(sweep_point(
            "mlp",
            format.label(),
            model.mul_count_per_example(),
        ));
    }

    for p in &points {
        println!(
            "{:<10} {:<28} {:>14} {:>11.0} {:>11.0} {:>11.0}",
            p.model, p.format, p.muls_per_example, p.rps[0], p.rps[1], p.rps[2]
        );
    }

    // Acceptance: PD conv/LSTM modeled throughput >= 1.5x dense at p = 4.
    let mut speedups = Vec::new();
    for model in ["conv", "lstm"] {
        let dense = points
            .iter()
            .find(|p| p.model == model && p.format == "dense")
            .expect("dense row present");
        let pd = points
            .iter()
            .find(|p| p.model == model && p.format.contains("permuted-diagonal"))
            .expect("pd row present");
        let speedup = pd.rps[2] / dense.rps[2];
        println!(
            "{model}: PD vs dense modeled throughput at 4 workers: {}",
            ratio(speedup)
        );
        assert!(
            speedup >= 1.5,
            "{model}: PD serving should model >= 1.5x dense throughput, got {speedup:.2}x"
        );
        speedups.push((model, speedup));
    }

    let json = render_json(&points, &speedups);
    write_artifact(&out_path, &json);
}

fn render_json(points: &[SweepPoint], speedups: &[(&str, f64)]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"model_sweep\",");
    let _ = writeln!(s, "  \"tick_hz\": {TICK_HZ},");
    let _ = writeln!(s, "  \"batch\": {BATCH},");
    let _ = writeln!(
        s,
        "  \"service_model\": {{\"muls_per_worker_tick\": {}, \"batch_overhead_ticks\": {}}},",
        ServiceModel::default().muls_per_worker_tick,
        ServiceModel::default().batch_overhead_ticks
    );
    s.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"model\": \"{}\", \"format\": \"{}\", \"muls_per_example\": {}, \
             \"requests_per_sec\": {{\"1\": {:.2}, \"2\": {:.2}, \"4\": {:.2}}}}}",
            p.model, p.format, p.muls_per_example, p.rps[0], p.rps[1], p.rps[2]
        );
        s.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"pd_vs_dense_throughput_at_4_workers\": {");
    for (i, (model, speedup)) in speedups.iter().enumerate() {
        let _ = write!(s, "\"{model}\": {speedup:.3}");
        if i + 1 < speedups.len() {
            s.push_str(", ");
        }
    }
    s.push_str("}\n}\n");
    s
}

//! Serving-throughput sweep: thread count × batch size × weight format.
//!
//! For every format the sweep serves the same ChaCha-seeded saturated request
//! stream through a frozen multi-layer `CompressedFc` MLP on the batching
//! runtime, and reports requests/sec plus p50/p99 latency. Time is counted in
//! the runtime's deterministic ticks (1 tick = 1 µs at the nominal rate
//! below), so the numbers — including the ≥1.5× scaling of 4 workers over 1 —
//! reproduce bit-for-bit on any machine; wall-clock per sweep point is
//! reported alongside for the curious. Results land in `BENCH_serve.json`
//! (override with `--out PATH`), the first point of the repo's serving-perf
//! trajectory.
//!
//! Run: `cargo run --release -p permdnn-bench --bin serve_throughput [-- --full]`

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use pd_tensor::init::seeded_rng;
use permdnn_bench::{full_run_requested, out_path, print_header, ratio, write_artifact};
use permdnn_nn::layers::WeightFormat;
use permdnn_nn::MlpClassifier;
use permdnn_runtime::{
    seeded_request_stream, serve, BatchConfig, ParallelExecutor, ServeConfig, ServiceModel,
};

/// Nominal tick rate: 1 tick = 1 µs.
const TICK_HZ: f64 = 1e6;

struct SweepPoint {
    format: String,
    workers: usize,
    max_batch: usize,
    mean_batch: f64,
    requests_per_sec: f64,
    p50_latency_ticks: u64,
    p99_latency_ticks: u64,
    makespan_ticks: u64,
    wall_ms: f64,
}

fn main() {
    let full = full_run_requested();
    let out_path = out_path("BENCH_serve.json");

    let (input_dim, hidden, n_requests) = if full {
        (512usize, vec![1024usize, 1024], 2048usize)
    } else {
        (256, vec![256, 256], 512)
    };
    let classes = 10;
    let workers_sweep = [1usize, 2, 4];
    let batch_sweep = [8usize, 32, 128];
    let formats = [
        WeightFormat::Dense,
        WeightFormat::PermutedDiagonal { p: 8 },
        WeightFormat::Circulant { k: 8 },
        WeightFormat::UnstructuredSparse { p: 8 },
        WeightFormat::SharedPermutedDiagonal { p: 8, tag_bits: 4 },
    ];
    let service = ServiceModel::default();

    print_header("Serving throughput: workers x batch x format");
    println!(
        "model {input_dim}-{hidden:?}-{classes}, {n_requests} requests (saturated stream), \
         1 tick = 1us\n"
    );
    println!(
        "{:<34} {:>7} {:>6} {:>12} {:>9} {:>9} {:>9}",
        "format", "workers", "batch", "req/s", "p50(t)", "p99(t)", "wall ms"
    );

    let mut points: Vec<SweepPoint> = Vec::new();
    for format in formats {
        // Same model seed per format family: the sweep compares serving
        // configurations, not weight draws.
        let model =
            MlpClassifier::new_frozen(input_dim, &hidden, classes, format, &mut seeded_rng(2024));
        let model = Arc::new(model);
        let stream = seeded_request_stream(7, n_requests, input_dim, 0.0);
        for &workers in &workers_sweep {
            let exec = ParallelExecutor::new(workers);
            for &max_batch in &batch_sweep {
                let cfg = ServeConfig {
                    batching: BatchConfig::new(max_batch, 0),
                    service,
                };
                let started = Instant::now();
                let report = serve(model.as_ref(), &exec, &cfg, stream.clone())
                    .expect("stream inputs match the model width");
                let wall_ms = started.elapsed().as_secs_f64() * 1e3;
                assert_eq!(report.completed.len(), n_requests);
                let point = SweepPoint {
                    format: format.label(),
                    workers,
                    max_batch,
                    mean_batch: report.mean_batch_size(),
                    requests_per_sec: report.requests_per_sec(TICK_HZ),
                    p50_latency_ticks: report.latency_percentile_ticks(0.50),
                    p99_latency_ticks: report.latency_percentile_ticks(0.99),
                    makespan_ticks: report.makespan_ticks(),
                    wall_ms,
                };
                println!(
                    "{:<34} {:>7} {:>6} {:>12.0} {:>9} {:>9} {:>9.1}",
                    point.format,
                    point.workers,
                    point.max_batch,
                    point.requests_per_sec,
                    point.p50_latency_ticks,
                    point.p99_latency_ticks,
                    point.wall_ms
                );
                points.push(point);
            }
        }
    }

    println!("\nScaling at batch 32, 4 workers vs 1 (modeled req/s):");
    for format in formats {
        let label = format.label();
        let rps = |w: usize| {
            points
                .iter()
                .find(|p| p.format == label && p.workers == w && p.max_batch == 32)
                .map(|p| p.requests_per_sec)
                .unwrap_or(0.0)
        };
        let speedup = rps(4) / rps(1);
        println!("  {:<34} {}", label, ratio(speedup));
        assert!(
            speedup > 1.5,
            "{label}: 4-worker speedup {speedup:.2} <= 1.5"
        );
    }

    let json = render_json(input_dim, &hidden, classes, n_requests, &service, &points);
    write_artifact(&out_path, &json);
}

fn render_json(
    input_dim: usize,
    hidden: &[usize],
    classes: usize,
    n_requests: usize,
    service: &ServiceModel,
    points: &[SweepPoint],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"serve_throughput\",");
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
        "  \"service_model\": {{\"muls_per_worker_tick\": {}, \"batch_overhead_ticks\": {}}},",
        service.muls_per_worker_tick, service.batch_overhead_ticks
    );
    s.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"format\": \"{}\", \"workers\": {}, \"max_batch\": {}, \"mean_batch\": {:.2}, \
             \"requests_per_sec\": {:.2}, \"p50_latency_ticks\": {}, \"p99_latency_ticks\": {}, \
             \"makespan_ticks\": {}, \"wall_ms\": {:.2}}}",
            p.format,
            p.workers,
            p.max_batch,
            p.mean_batch,
            p.requests_per_sec,
            p.p50_latency_ticks,
            p.p99_latency_ticks,
            p.makespan_ticks,
            p.wall_ms
        );
        s.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

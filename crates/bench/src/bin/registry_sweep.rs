//! Snapshot + multi-model registry sweep.
//!
//! Two questions, one JSON answer (`BENCH_registry.json`):
//!
//! 1. **How small are the snapshots?** For every weight format (plus a
//!    quantized variant), save a frozen MLP and record the on-disk bytes
//!    against the dense-f32 footprint of the same logical weights — the
//!    deployment-artifact version of the paper's Fig. 4 storage comparison.
//! 2. **What does multi-model serving cost?** Load every snapshot into a
//!    `ModelRegistry` and serve one interleaved heterogeneous stream at 1, 2
//!    and 4 workers (modeled ticks, 1 tick = 1 µs), then repeat with a weight
//!    cache squeezed to ~2 resident models to count evictions/reloads (each
//!    call evicts the model its schedule needs farthest ahead) —
//!    verifying the cache changes *when* bytes are materialised, never what
//!    is served.
//!
//! Asserted acceptance bars: every snapshot loads and serves bit-identically
//! to its source model; the permuted-diagonal snapshot is ≥ 3× smaller than
//! dense f32 (and ≥ 6× quantized); tight-budget outputs equal unlimited-
//! budget outputs.
//!
//! Run: `cargo run --release -p permdnn-bench --bin registry_sweep [-- --out PATH]`

use std::fmt::Write as _;

use pd_tensor::init::seeded_rng;
use permdnn_bench::{assert_floor, out_path, print_header, write_artifact};
use permdnn_nn::layers::WeightFormat;
use permdnn_nn::snapshot::batch_model_loader;
use permdnn_nn::MlpClassifier;
use permdnn_runtime::{
    interleave_streams, seeded_request_stream, BatchConfig, ModelRegistry, MultiServeReport,
    ParallelExecutor, ServeConfig, ServiceModel,
};
use rand::Rng;

/// Nominal tick rate: 1 tick = 1 µs.
const TICK_HZ: f64 = 1e6;
/// Architecture of every benchmarked model (hidden-layer dominated, as in
/// the paper's FC workloads).
const IN_DIM: usize = 64;
const HIDDEN: [usize; 2] = [128, 128];
const CLASSES: usize = 10;
/// Requests per model in the serving scenario.
const REQUESTS_PER_MODEL: usize = 48;
/// Worker counts swept.
const WORKERS: [usize; 3] = [1, 2, 4];

struct SizePoint {
    name: String,
    format: String,
    snapshot_bytes: usize,
    dense_f32_bytes: usize,
    ratio: f64,
}

/// Dense-f32 footprint of the architecture: every logical weight plus biases
/// at 4 bytes.
fn dense_f32_bytes() -> usize {
    let mut dims = vec![IN_DIM];
    dims.extend(HIDDEN);
    dims.push(CLASSES);
    dims.windows(2).map(|w| (w[0] * w[1] + w[1]) * 4).sum()
}

fn main() {
    let out_path = out_path("BENCH_registry.json");
    print_header("Model snapshots + multi-model registry sweep");

    // ---- 1. Snapshot sizes per format. ----
    let formats: Vec<(&str, WeightFormat)> = vec![
        ("mlp-dense", WeightFormat::Dense),
        ("mlp-pd4", WeightFormat::PermutedDiagonal { p: 4 }),
        ("mlp-circ4", WeightFormat::Circulant { k: 4 }),
        ("mlp-csc4", WeightFormat::UnstructuredSparse { p: 4 }),
        (
            "mlp-shared-pd4",
            WeightFormat::SharedPermutedDiagonal { p: 4, tag_bits: 4 },
        ),
    ];
    let dense_bytes = dense_f32_bytes();
    let mut sizes: Vec<SizePoint> = Vec::new();
    let mut snapshots: Vec<(String, Vec<u8>)> = Vec::new();
    println!(
        "{:<16} {:<34} {:>10} {:>12} {:>8}",
        "model", "format", "snap B", "dense-f32 B", "ratio"
    );
    for (i, (name, format)) in formats.iter().enumerate() {
        let model = MlpClassifier::new_frozen(
            IN_DIM,
            &HIDDEN,
            CLASSES,
            *format,
            &mut seeded_rng(0x6000 + i as u64),
        );
        let bytes = model.save().expect("frozen models snapshot");
        // The snapshot must load and serve identically before it counts.
        let reloaded = MlpClassifier::load(&bytes).expect("snapshot loads");
        let probe: Vec<f32> = (0..IN_DIM).map(|i| (i as f32 * 0.17).sin()).collect();
        assert_eq!(
            model.logits(&probe),
            reloaded.logits(&probe),
            "{name}: reload must be bit-exact"
        );
        push_size(&mut sizes, name, &format.label(), bytes.len(), dense_bytes);
        snapshots.push((name.to_string(), bytes));
    }

    // Quantized PD: f32 values drop to raw i16 inside the QuantizedLinear
    // records.
    {
        let model = MlpClassifier::new_frozen(
            IN_DIM,
            &HIDDEN,
            CLASSES,
            WeightFormat::PermutedDiagonal { p: 4 },
            &mut seeded_rng(0x6100),
        );
        let calibration: Vec<Vec<f32>> = (0..8)
            .map(|i| {
                let mut rng = seeded_rng(0x6101 + i);
                (0..IN_DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
            })
            .collect();
        let (q_model, _) = model.quantize(&calibration);
        let bytes = q_model.save().expect("quantized models snapshot");
        let reloaded = MlpClassifier::load(&bytes).expect("snapshot loads");
        let probe: Vec<f32> = (0..IN_DIM).map(|i| (i as f32 * 0.17).sin()).collect();
        assert_eq!(q_model.logits(&probe), reloaded.logits(&probe));
        push_size(
            &mut sizes,
            "mlp-pd4-q16",
            "q16 permuted-diagonal (p=4)",
            bytes.len(),
            dense_bytes,
        );
        snapshots.push(("mlp-pd4-q16".to_string(), bytes));
    }

    // Acceptance bars: PD at p = 4 must beat 3x against dense f32 even with
    // its dense head and bias vectors on board, and the 16-bit quantized
    // variant must compress strictly further than the f32 PD snapshot.
    let pd_ratio = sizes.iter().find(|s| s.name == "mlp-pd4").unwrap().ratio;
    let q_ratio = sizes
        .iter()
        .find(|s| s.name == "mlp-pd4-q16")
        .unwrap()
        .ratio;
    assert_floor("PD snapshot compression ratio", pd_ratio, 3.0);
    assert!(
        q_ratio > pd_ratio && q_ratio >= 3.3,
        "q16 PD snapshot ratio {q_ratio:.2} should beat f32 PD ({pd_ratio:.2})"
    );

    // ---- 2. Multi-model serving through the registry. ----
    let cfg = ServeConfig {
        batching: BatchConfig::new(8, 16),
        service: ServiceModel::default(),
    };
    let tagged = interleave_streams(
        snapshots
            .iter()
            .enumerate()
            .map(|(i, (id, _))| {
                (
                    id.clone(),
                    seeded_request_stream(0x7000 + i as u64, REQUESTS_PER_MODEL, IN_DIM, 3.0),
                )
            })
            .collect(),
    );
    let run = |workers: usize, budget: u64| -> (MultiServeReport, u64) {
        let mut reg = ModelRegistry::new(batch_model_loader(), budget);
        for (id, bytes) in &snapshots {
            reg.insert(id, bytes.clone()).expect("validated above");
        }
        let report = reg
            .serve_multi(&ParallelExecutor::new(workers), &cfg, tagged.clone())
            .expect("all ids registered");
        (report, reg.loaded_bytes())
    };

    println!(
        "\nmulti-model serving ({} models, {} requests):",
        snapshots.len(),
        tagged.len()
    );
    let mut throughput: Vec<(usize, f64)> = Vec::new();
    for workers in WORKERS {
        let (report, _) = run(workers, u64::MAX);
        let rps = report.requests_per_sec(TICK_HZ);
        println!(
            "  {workers} workers: {rps:>10.0} req/s modeled, makespan {} ticks",
            report.makespan_ticks()
        );
        throughput.push((workers, rps));
    }

    // Tight weight cache: room for ~2 of the 6 models.
    let tight_budget: u64 = snapshots.iter().map(|(_, b)| b.len() as u64).sum::<u64>() / 3;
    let (tight, tight_resident) = run(2, tight_budget);
    let (unlimited, _) = run(2, u64::MAX);
    assert_eq!(
        tight.completed, unlimited.completed,
        "the weight cache must never change served outputs"
    );
    assert!(tight.stats.reloads > 0, "tight budget should force reloads");
    assert!(tight_resident <= tight_budget);
    println!(
        "  tight cache ({tight_budget} B): {} evictions, {} reloads, outputs identical",
        tight.stats.evictions, tight.stats.reloads
    );

    let json = render_json(&sizes, &throughput, &tight, tight_budget);
    write_artifact(&out_path, &json);
}

fn push_size(
    sizes: &mut Vec<SizePoint>,
    name: &str,
    format: &str,
    snapshot_bytes: usize,
    dense_f32: usize,
) {
    let ratio = dense_f32 as f64 / snapshot_bytes as f64;
    println!("{name:<16} {format:<34} {snapshot_bytes:>10} {dense_f32:>12} {ratio:>7.2}x");
    sizes.push(SizePoint {
        name: name.to_string(),
        format: format.to_string(),
        snapshot_bytes,
        dense_f32_bytes: dense_f32,
        ratio,
    });
}

fn render_json(
    sizes: &[SizePoint],
    throughput: &[(usize, f64)],
    tight: &MultiServeReport,
    tight_budget: u64,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"registry_sweep\",");
    let _ = writeln!(s, "  \"tick_hz\": {TICK_HZ},");
    let _ = writeln!(
        s,
        "  \"architecture\": {{\"in\": {IN_DIM}, \"hidden\": [{}, {}], \"classes\": {CLASSES}}},",
        HIDDEN[0], HIDDEN[1]
    );
    s.push_str("  \"snapshot_sizes\": [\n");
    for (i, p) in sizes.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"model\": \"{}\", \"format\": \"{}\", \"snapshot_bytes\": {}, \
             \"dense_f32_bytes\": {}, \"compression_ratio\": {:.3}}}",
            p.name, p.format, p.snapshot_bytes, p.dense_f32_bytes, p.ratio
        );
        s.push_str(if i + 1 < sizes.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"multi_model_requests_per_sec\": {");
    for (i, (workers, rps)) in throughput.iter().enumerate() {
        let _ = write!(s, "\"{workers}\": {rps:.2}");
        if i + 1 < throughput.len() {
            s.push_str(", ");
        }
    }
    s.push_str("},\n");
    let _ = writeln!(
        s,
        "  \"tight_cache\": {{\"budget_bytes\": {tight_budget}, \"evictions\": {}, \
         \"reloads\": {}, \"outputs_identical_to_unlimited\": true}}",
        tight.stats.evictions, tight.stats.reloads
    );
    s.push_str("}\n");
    s
}

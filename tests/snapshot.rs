//! Snapshot-format and multi-model-registry suite.
//!
//! Three properties are locked in here:
//!
//! 1. **Golden fixtures** — the committed files under `tests/fixtures/` are
//!    byte-identical to what today's code writes, still load, and reproduce
//!    their committed logits bit-for-bit: the on-disk format cannot drift
//!    silently.
//! 2. **Corruption safety** — proptest over truncations, bit flips, bad
//!    magic, wrong versions and oversized length fields: `load` returns a
//!    typed `SnapshotError`, never panics, never over-allocates.
//! 3. **Round-trip serving equivalence** — for every weight format (and its
//!    quantized variant) at 1, 2, 3 and 7 workers, `load(save(model))`
//!    produces bit-for-bit identical logits to the in-memory model through
//!    the `serve` loop, and the `ModelRegistry` serves heterogeneous streams
//!    with the same guarantee across eviction and reload.

use std::sync::Arc;

use permdnn::bench::fixtures;
use permdnn::core::format::BatchView;
use permdnn::core::snapshot::{Snapshot, SnapshotError};
use permdnn::nn::layers::WeightFormat;
use permdnn::nn::snapshot::{batch_model_loader, codec, load_batch_model};
use permdnn::nn::{FrozenSeq2Seq, MlpClassifier, Seq2Seq};
use permdnn::runtime::{
    interleave_streams, seeded_request_stream, serve, BatchConfig, BatchModel, ModelRegistry,
    ParallelExecutor, Request, ServeConfig, ServiceModel, SingleLayerModel, TaggedRequest,
};
use permdnn::tensor::init::seeded_rng;
use proptest::prelude::*;

const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 7];

fn fixture_path(name: &str, ext: &str) -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{name}.{ext}"))
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        batching: BatchConfig::new(4, 6),
        service: ServiceModel::default(),
    }
}

// ---------------------------------------------------------------------------
// 1. Golden fixtures.
// ---------------------------------------------------------------------------

#[test]
fn golden_fixtures_are_byte_identical_to_todays_encoder() {
    for fixture in fixtures::all() {
        let committed = std::fs::read(fixture_path(fixture.name, "snap")).unwrap_or_else(|e| {
            panic!("{}: missing fixture ({e}); run gen_fixtures", fixture.name)
        });
        assert_eq!(
            committed, fixture.bytes,
            "{}: committed snapshot differs from today's encoder — \
             the on-disk format drifted without a version bump",
            fixture.name
        );
        let committed_logits =
            std::fs::read(fixture_path(fixture.name, "logits")).expect("logits sidecar");
        assert_eq!(
            fixtures::logits_from_bytes(&committed_logits),
            fixture.logits,
            "{}: committed logits differ from today's arithmetic",
            fixture.name
        );
    }
}

#[test]
fn golden_fixtures_load_and_reproduce_their_logits() {
    for fixture in fixtures::all() {
        let bytes = std::fs::read(fixture_path(fixture.name, "snap")).expect("fixture file");
        assert!(
            bytes.len() <= 8 * 1024,
            "{}: {} bytes exceeds the 8 KiB fixture cap",
            fixture.name,
            bytes.len()
        );
        let expected = fixtures::logits_from_bytes(
            &std::fs::read(fixture_path(fixture.name, "logits")).expect("logits sidecar"),
        );
        let snap = Snapshot::parse(&bytes).expect("fixture parses");
        if snap.kind() == permdnn::core::snapshot::KIND_TENSOR {
            let op = permdnn::core::snapshot::load_tensor(&bytes, &codec()).expect("tensor loads");
            let got = op.matvec(&fixtures::probe_input(op.in_dim())).unwrap();
            assert_eq!(got, expected, "{}: loaded tensor output", fixture.name);
        } else {
            let model = MlpClassifier::load(&bytes).expect("model loads");
            let got = model.logits(&fixtures::probe_input(model.input_dim()));
            assert_eq!(got, expected, "{}: loaded model logits", fixture.name);
            // The loader the registry uses agrees with the typed loader.
            let as_batch = load_batch_model(&bytes).expect("batch-servable");
            let xs_data = fixtures::probe_input(model.input_dim());
            let xs = BatchView::new(&xs_data, 1, model.input_dim()).unwrap();
            let out = as_batch
                .forward_batch(&xs, &ParallelExecutor::sequential())
                .unwrap();
            assert_eq!(out.row(0), &expected[..], "{}", fixture.name);
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Corruption / fuzz.
// ---------------------------------------------------------------------------

/// A valid snapshot to corrupt: the PD fixture model (mixes container,
/// graph, tensor records and bias sections).
fn victim_bytes() -> Vec<u8> {
    MlpClassifier::new_frozen(
        8,
        &[8],
        3,
        WeightFormat::PermutedDiagonal { p: 4 },
        &mut seeded_rng(0xC0),
    )
    .save()
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn truncation_at_any_point_is_a_typed_error(cut in 0usize..1000) {
        let bytes = victim_bytes();
        let cut = cut % bytes.len();
        // Must not panic and must not load.
        prop_assert!(MlpClassifier::load(&bytes[..cut]).is_err());
    }

    #[test]
    fn single_bit_flips_never_panic_and_never_load_silently(
        (byte, bit) in (0usize..1000, 0u8..8)
    ) {
        let mut bytes = victim_bytes();
        let byte = byte % bytes.len();
        bytes[byte] ^= 1 << bit;
        // Any outcome must be a clean Result; a flip inside a checksummed
        // payload must be *detected*. (Flips in the header/framing fail
        // their own validation; flips the CRC itself covers are caught by
        // the mismatch.)
        let _ = MlpClassifier::load(&bytes);
    }

    #[test]
    fn payload_bit_flips_are_detected_by_the_checksum(
        (offset, bit) in (0usize..10_000, 0u8..8)
    ) {
        let bytes = victim_bytes();
        let snap = Snapshot::parse(&bytes).unwrap();
        // Flip a bit inside a section payload, re-frame with the ORIGINAL
        // checksum by patching the raw file bytes: find the payload of the
        // largest section in the file and flip inside it.
        let (_, payload) = snap
            .sections()
            .iter()
            .max_by_key(|(_, p)| p.len())
            .unwrap();
        let start = find_subslice(&bytes, payload).expect("payload is embedded verbatim");
        let mut corrupted = bytes.clone();
        let offset = offset % payload.len();
        corrupted[start + offset] ^= 1 << bit;
        prop_assert!(
            matches!(
                Snapshot::parse(&corrupted),
                Err(SnapshotError::ChecksumMismatch { .. })
            ),
            "payload corruption must fail the CRC"
        );
    }

    #[test]
    fn oversized_section_lengths_do_not_allocate(len in proptest::strategy::Strategy::prop_map(0u64..u64::MAX, |v| v | (1 << 40))) {
        let bytes = victim_bytes();
        // Overwrite the first section's payload-length field (header is 16
        // bytes, then u16 name len + name).
        let name_len = u16::from_le_bytes([bytes[16], bytes[17]]) as usize;
        let len_off = 16 + 2 + name_len;
        let mut corrupted = bytes.clone();
        corrupted[len_off..len_off + 8].copy_from_slice(&len.to_le_bytes());
        // Declared lengths in the tebibyte range must be rejected from the
        // byte count actually present — allocating would OOM the test.
        prop_assert!(matches!(
            Snapshot::parse(&corrupted),
            Err(SnapshotError::Truncated { .. })
        ));
    }
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() {
        return None;
    }
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[test]
fn bad_magic_and_wrong_version_are_rejected() {
    let bytes = victim_bytes();
    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xff;
    assert!(matches!(
        MlpClassifier::load(&bad_magic),
        Err(SnapshotError::BadMagic { .. })
    ));
    let mut bad_version = bytes.clone();
    bad_version[8..10].copy_from_slice(&999u16.to_le_bytes());
    assert!(matches!(
        MlpClassifier::load(&bad_version),
        Err(SnapshotError::UnsupportedVersion { got: 999, .. })
    ));
    // Wrong model kind for the typed loader.
    let mut wrong_kind = bytes;
    wrong_kind[10..12].copy_from_slice(&permdnn::core::snapshot::KIND_CONV.to_le_bytes());
    assert!(MlpClassifier::load(&wrong_kind).is_err());
}

#[test]
fn unknown_tensor_format_codes_are_typed_errors() {
    // Craft a KIND_TENSOR snapshot whose record carries an unassigned code.
    let mut w = permdnn::core::snapshot::ByteWriter::new();
    w.u16(0x6006);
    let mut b = permdnn::core::snapshot::SnapshotBuilder::new(permdnn::core::snapshot::KIND_TENSOR);
    b.section("tensor", w.into_vec());
    let bytes = b.finish();
    assert!(matches!(
        permdnn::core::snapshot::load_tensor(&bytes, &codec()),
        Err(SnapshotError::UnknownFormat { code: 0x6006 })
    ));
}

// ---------------------------------------------------------------------------
// 3. Round-trip serving equivalence.
// ---------------------------------------------------------------------------

/// Every registry format at MLP shape, plus the non-2^t circulant ablation.
fn registry_formats() -> [WeightFormat; 6] {
    [
        WeightFormat::Dense,
        WeightFormat::PermutedDiagonal { p: 4 },
        WeightFormat::Circulant { k: 4 },
        WeightFormat::Circulant { k: 3 },
        WeightFormat::UnstructuredSparse { p: 4 },
        WeightFormat::SharedPermutedDiagonal { p: 4, tag_bits: 4 },
    ]
}

/// Serves the same stream through two models and asserts bit-identical
/// outputs at every tested worker count.
fn assert_serving_equivalence(
    label: &str,
    original: &dyn BatchModel,
    reloaded: &dyn BatchModel,
    stream_seed: u64,
) {
    let stream = seeded_request_stream(stream_seed, 24, original.in_dim(), 2.0);
    for workers in WORKER_COUNTS {
        let exec = ParallelExecutor::new(workers);
        let a = serve(original, &exec, &serve_cfg(), stream.clone()).unwrap();
        let b = serve(reloaded, &exec, &serve_cfg(), stream.clone()).unwrap();
        assert_eq!(
            a, b,
            "{label} at {workers} workers: reloaded model must serve identically"
        );
    }
}

#[test]
fn reloaded_mlps_serve_bit_identically_for_every_format_and_worker_count() {
    for (i, format) in registry_formats().into_iter().enumerate() {
        let model = MlpClassifier::new_frozen(12, &[16, 8], 5, format, &mut seeded_rng(i as u64));
        let reloaded = MlpClassifier::load(&model.save().unwrap()).unwrap();
        // Direct logits equivalence first (sharper failure messages)...
        let x = fixtures::probe_input(12);
        assert_eq!(model.logits(&x), reloaded.logits(&x), "{}", format.label());
        // ...then through the full batching serve loop.
        assert_serving_equivalence(&format.label(), &model, &reloaded, 7 + i as u64);
    }
}

#[test]
fn reloaded_quantized_mlps_serve_bit_identically() {
    let calibration: Vec<Vec<f32>> = (0..6)
        .map(|i| {
            let mut rng = seeded_rng(0xCAFE + i);
            (0..12)
                .map(|_| rand::Rng::gen_range(&mut rng, -1.0f32..1.0))
                .collect()
        })
        .collect();
    for (i, format) in registry_formats().into_iter().enumerate() {
        let model =
            MlpClassifier::new_frozen(12, &[16, 8], 5, format, &mut seeded_rng(100 + i as u64));
        let (q_model, report) = model.quantize(&calibration);
        let reloaded = MlpClassifier::load(&q_model.save().unwrap()).unwrap();
        let x = fixtures::probe_input(12);
        assert_eq!(
            q_model.logits(&x),
            reloaded.logits(&x),
            "{} quantized ({} layers)",
            format.label(),
            report.layers.len()
        );
        assert_serving_equivalence(
            &format!("{} quantized", format.label()),
            &q_model,
            &reloaded,
            60 + i as u64,
        );
    }
}

#[test]
fn reloaded_eie_tensor_serves_bit_identically() {
    // EIE is a storage format without a training-registry entry: serve it as
    // a bare operator model.
    let dense = permdnn::tensor::init::xavier_uniform(&mut seeded_rng(0xE1E), 16, 12);
    let pruned = permdnn::prune::magnitude_prune(&dense, 0.25).pruned;
    let cb = permdnn::prune::eie_format::uniform_codebook(4, pruned.max_abs());
    let enc = permdnn::prune::eie_format::EieEncodedMatrix::encode(&pruned, &cb, 4, 4);
    let bytes = permdnn::core::snapshot::save_tensor(&enc).unwrap();
    let reloaded = permdnn::core::snapshot::load_tensor(&bytes, &codec()).unwrap();
    let original = SingleLayerModel::new(Arc::new(enc));
    let loaded_model = SingleLayerModel::new(reloaded);
    assert_serving_equivalence("eie tensor", &original, &loaded_model, 0xE1E);
}

#[test]
fn reloaded_conv_net_serves_bit_identically() {
    use permdnn::nn::conv_net::ConvClassifier;
    use permdnn::nn::data::GlyphImages;
    let data = GlyphImages::generate(&mut seeded_rng(0xC04), 12, 3, 8, 1, 0.15);
    let mut model = ConvClassifier::new(
        8,
        1,
        [4, 4],
        3,
        WeightFormat::PermutedDiagonal { p: 2 },
        &mut seeded_rng(0xC05),
    )
    .unwrap();
    model.fit(&data, 1, 0.05);
    let frozen = model.freeze();
    let reloaded = permdnn::nn::FrozenConvNet::load(&frozen.save().unwrap()).unwrap();
    assert_serving_equivalence("pd conv net", &frozen, &reloaded, 0xC06);

    // And the quantized conv net.
    let (q, _) = frozen.quantize(&data.images);
    let q_reloaded = permdnn::nn::FrozenConvNet::load(&q.save().unwrap()).unwrap();
    assert_serving_equivalence("pd conv net q16", &q, &q_reloaded, 0xC07);
}

#[test]
fn reloaded_seq2seq_reproduces_teacher_forced_logits_bitwise() {
    for format in [
        WeightFormat::Dense,
        WeightFormat::PermutedDiagonal { p: 4 },
        WeightFormat::UnstructuredSparse { p: 2 },
    ] {
        let (model, _) = permdnn::nn::capture_proxy_warnings(|| {
            Seq2Seq::new(6, 8, format, &mut seeded_rng(0x5E9))
        });
        let frozen = model.freeze();
        let reloaded = FrozenSeq2Seq::load(&frozen.save().unwrap()).unwrap();
        let source = [1u32, 4, 2, 5];
        let target = [2u32, 3, 0];
        assert_eq!(
            frozen.teacher_forced_logits(&source, &target).unwrap(),
            reloaded.teacher_forced_logits(&source, &target).unwrap(),
            "{}",
            format.label()
        );
        assert_eq!(
            frozen.translate(&source, 5).unwrap(),
            reloaded.translate(&source, 5).unwrap()
        );
        // Batched decoding stays bit-identical across worker counts too.
        let sources = vec![source.to_vec(), vec![0, 2, 4, 1]];
        for workers in WORKER_COUNTS {
            let exec = ParallelExecutor::new(workers);
            assert_eq!(
                frozen.translate_batch(&sources, 5, &exec).unwrap(),
                reloaded.translate_batch(&sources, 5, &exec).unwrap(),
                "{} at {workers} workers",
                format.label()
            );
        }
    }
}

#[test]
fn quantized_seq2seq_round_trips_per_gate_qschemes() {
    use permdnn::nn::data::TranslationPairs;
    let pairs = TranslationPairs::generate(&mut seeded_rng(0x5EA), 10, 6, 4);
    let (model, _) = permdnn::nn::capture_proxy_warnings(|| {
        Seq2Seq::new(
            6,
            8,
            WeightFormat::PermutedDiagonal { p: 4 },
            &mut seeded_rng(0x5EB),
        )
    });
    let (q, report) = model.freeze().quantize(&pairs);
    assert_eq!(report.layers.len(), 17, "16 gates + head");
    let reloaded = FrozenSeq2Seq::load(&q.save().unwrap()).unwrap();
    let source = [1u32, 3, 5];
    let target = [0u32, 2];
    assert_eq!(
        q.teacher_forced_logits(&source, &target).unwrap(),
        reloaded.teacher_forced_logits(&source, &target).unwrap(),
        "quantized seq2seq round trip"
    );
}

// ---------------------------------------------------------------------------
// Registry: multi-model serving over snapshots.
// ---------------------------------------------------------------------------

fn mlp_snapshot(format: WeightFormat, seed: u64) -> Vec<u8> {
    MlpClassifier::new_frozen(10, &[12], 4, format, &mut seeded_rng(seed))
        .save()
        .unwrap()
}

#[test]
fn registry_serves_heterogeneous_streams_identically_across_worker_counts() {
    let snapshots: Vec<(String, Vec<u8>)> = registry_formats()
        .into_iter()
        .enumerate()
        .map(|(i, f)| (format!("model-{i}"), mlp_snapshot(f, 0x900 + i as u64)))
        .collect();
    let tagged = interleave_streams(
        snapshots
            .iter()
            .enumerate()
            .map(|(i, (id, _))| {
                (
                    id.clone(),
                    seeded_request_stream(0xA00 + i as u64, 12, 10, 2.0),
                )
            })
            .collect(),
    );
    let run = |workers: usize| {
        let mut reg = ModelRegistry::new(batch_model_loader(), u64::MAX);
        for (id, bytes) in &snapshots {
            reg.insert(id, bytes.clone()).unwrap();
        }
        reg.serve_multi(
            &ParallelExecutor::new(workers),
            &serve_cfg(),
            tagged.clone(),
        )
        .unwrap()
    };
    // Ticks legitimately shrink with more workers; what must be invariant is
    // the execution order, the batching decisions and every output bit.
    let decisions = |report: &permdnn::runtime::MultiServeReport| -> Vec<_> {
        report
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
            .collect()
    };
    let baseline = run(1);
    assert_eq!(baseline.completed.len(), snapshots.len() * 12);
    for workers in [2usize, 3, 7] {
        let report = run(workers);
        assert_eq!(
            decisions(&report),
            decisions(&baseline),
            "{workers} workers: multi-model batching and outputs must be bit-deterministic"
        );
    }
    // Every model's outputs match its own direct forward.
    for (i, (id, bytes)) in snapshots.iter().enumerate() {
        let model = MlpClassifier::load(bytes).unwrap();
        let stream = seeded_request_stream(0xA00 + i as u64, 12, 10, 2.0);
        for tc in baseline.completed.iter().filter(|tc| &tc.model_id == id) {
            let expected = model.logits(&stream[tc.completed.id as usize].input);
            assert_eq!(tc.completed.output, expected, "{id}");
        }
    }
}

#[test]
fn registry_eviction_and_reload_do_not_change_served_outputs() {
    let snapshots: Vec<(String, Vec<u8>)> = (0..4)
        .map(|i| {
            (
                format!("m{i}"),
                mlp_snapshot(WeightFormat::PermutedDiagonal { p: 2 }, 0xB00 + i),
            )
        })
        .collect();
    // Budget fits ~1.5 models: serving 4 round-robin forces constant
    // eviction + reload.
    let budget = snapshots[0].1.len() as u64 * 3 / 2;
    let tagged = interleave_streams(
        snapshots
            .iter()
            .enumerate()
            .map(|(i, (id, _))| {
                (
                    id.clone(),
                    seeded_request_stream(0xC00 + i as u64, 8, 10, 4.0),
                )
            })
            .collect(),
    );
    let serve_with_budget = |budget: u64| {
        let mut reg = ModelRegistry::new(batch_model_loader(), budget);
        for (id, bytes) in &snapshots {
            reg.insert(id, bytes.clone()).unwrap();
        }
        let report = reg
            .serve_multi(&ParallelExecutor::new(2), &serve_cfg(), tagged.clone())
            .unwrap();
        (report, reg)
    };
    let (tight, tight_reg) = serve_with_budget(budget);
    let (unlimited, unlimited_reg) = serve_with_budget(u64::MAX);
    assert!(
        tight.stats.reloads > 0,
        "a tight budget must force reloads (evictions: {})",
        tight.stats.evictions
    );
    assert_eq!(unlimited.stats.reloads, 0, "no pressure, no reloads");
    assert!(tight_reg.loaded_bytes() <= budget);
    assert!(unlimited_reg.loaded_bytes() > budget);
    // Weight-cache behaviour is invisible in the outputs.
    assert_eq!(tight.completed, unlimited.completed);
}

#[test]
fn registry_hot_swap_switches_models_between_batches() {
    let old = mlp_snapshot(WeightFormat::PermutedDiagonal { p: 2 }, 0xD00);
    let new = mlp_snapshot(WeightFormat::Dense, 0xD01);
    let mut reg = ModelRegistry::new(batch_model_loader(), u64::MAX);
    reg.insert("m", old.clone()).unwrap();
    // Early wave at tick 0, late wave at tick 50_000; swap at 10_000.
    let mut requests: Vec<TaggedRequest> = Vec::new();
    for (i, r) in seeded_request_stream(0xD02, 6, 10, 0.0)
        .into_iter()
        .enumerate()
    {
        requests.push(TaggedRequest {
            model_id: "m".into(),
            request: Request { id: i as u64, ..r },
        });
    }
    for (i, r) in seeded_request_stream(0xD03, 6, 10, 0.0)
        .into_iter()
        .enumerate()
    {
        requests.push(TaggedRequest {
            model_id: "m".into(),
            request: Request {
                id: 100 + i as u64,
                arrival_tick: 50_000,
                ..r
            },
        });
    }
    reg.schedule_swap("m", new.clone(), 10_000);
    let report = reg
        .serve_multi(&ParallelExecutor::new(2), &serve_cfg(), requests.clone())
        .unwrap();
    assert_eq!(report.stats.swaps, 1);
    let old_model = MlpClassifier::load(&old).unwrap();
    let new_model = MlpClassifier::load(&new).unwrap();
    for tc in &report.completed {
        let input = &requests
            .iter()
            .find(|r| r.request.id == tc.completed.id)
            .unwrap()
            .request
            .input;
        let expected = if tc.completed.id < 100 {
            old_model.logits(input)
        } else {
            new_model.logits(input)
        };
        assert_eq!(tc.completed.output, expected, "request {}", tc.completed.id);
    }
}

// ---------------------------------------------------------------------------
// 4. Mixed-format models (the autotuner's output shape).
// ---------------------------------------------------------------------------

/// A frozen MLP mixing four weight formats across its layers: PD, CSC and
/// circulant hidden layers plus the dense head — one snapshot, four distinct
/// tensor record formats.
fn mixed_model(seed: u64) -> MlpClassifier {
    MlpClassifier::new_frozen_mixed(
        12,
        &[
            (16, WeightFormat::PermutedDiagonal { p: 4 }),
            (12, WeightFormat::UnstructuredSparse { p: 4 }),
            (8, WeightFormat::Circulant { k: 4 }),
        ],
        5,
        &mut seeded_rng(seed),
    )
}

#[test]
fn mixed_format_models_round_trip_and_serve_bit_identically() {
    let model = mixed_model(0x313);
    let reloaded = MlpClassifier::load(&model.save().unwrap()).unwrap();
    let x = fixtures::probe_input(12);
    assert_eq!(model.logits(&x), reloaded.logits(&x), "mixed-format reload");
    assert_serving_equivalence("mixed-format mlp", &model, &reloaded, 0x31);
}

#[test]
fn quantized_mixed_format_models_round_trip_and_serve_bit_identically() {
    let calibration: Vec<Vec<f32>> = (0..6)
        .map(|i| {
            let mut rng = seeded_rng(0xD1CE + i);
            (0..12)
                .map(|_| rand::Rng::gen_range(&mut rng, -1.0f32..1.0))
                .collect()
        })
        .collect();
    let (q_model, report) = mixed_model(0x31A).quantize(&calibration);
    assert_eq!(report.layers.len(), 4, "three hidden + head all quantize");
    let reloaded = MlpClassifier::load(&q_model.save().unwrap()).unwrap();
    let x = fixtures::probe_input(12);
    assert_eq!(q_model.logits(&x), reloaded.logits(&x));
    assert_serving_equivalence("mixed-format mlp q16", &q_model, &reloaded, 0x32);
}

/// A mixed-format snapshot to corrupt: four record formats in one container.
fn mixed_victim_bytes() -> Vec<u8> {
    mixed_model(0xC1).save().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mixed_snapshot_truncation_at_any_point_is_a_typed_error(cut in 0usize..4000) {
        let bytes = mixed_victim_bytes();
        let cut = cut % bytes.len();
        prop_assert!(MlpClassifier::load(&bytes[..cut]).is_err());
    }

    #[test]
    fn mixed_snapshot_bit_flips_never_panic_and_never_load_silently(
        (byte, bit) in (0usize..4000, 0u8..8)
    ) {
        let mut bytes = mixed_victim_bytes();
        let byte = byte % bytes.len();
        bytes[byte] ^= 1 << bit;
        // Every record format's decoder must fail cleanly, whatever the flip
        // hit — framing, a PD record, a CSC record, a circulant record or
        // the dense head.
        let _ = MlpClassifier::load(&bytes);
    }

    #[test]
    fn mixed_snapshot_payload_flips_are_detected_by_the_checksum(
        (offset, bit) in (0usize..10_000, 0u8..8)
    ) {
        let bytes = mixed_victim_bytes();
        let snap = Snapshot::parse(&bytes).unwrap();
        let (_, payload) = snap
            .sections()
            .iter()
            .max_by_key(|(_, p)| p.len())
            .unwrap();
        let start = find_subslice(&bytes, payload).expect("payload is embedded verbatim");
        let mut corrupted = bytes.clone();
        let offset = offset % payload.len();
        corrupted[start + offset] ^= 1 << bit;
        prop_assert!(matches!(
            Snapshot::parse(&corrupted),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }
}

#[test]
fn mixed_fixture_serves_identically_whole_loaded_and_paged() {
    use permdnn::core::snapshot::{block_stream_snapshot, read_block_index};
    use permdnn::nn::snapshot::{load_paged_model, paged_config};

    let bytes = std::fs::read(fixture_path("mlp_mixed", "snap")).expect("committed fixture");
    let model = MlpClassifier::load(&bytes).expect("fixture loads");
    let stream = seeded_request_stream(0x33, 16, model.input_dim(), 2.0);
    let tagged: Vec<TaggedRequest> = stream
        .iter()
        .map(|r| TaggedRequest {
            model_id: "mixed".into(),
            request: r.clone(),
        })
        .collect();
    let decisions = |report: &permdnn::runtime::MultiServeReport| -> Vec<_> {
        report
            .completed
            .iter()
            .map(|tc| {
                (
                    tc.completed.id,
                    tc.completed.batch_size,
                    tc.completed.output.clone(),
                )
            })
            .collect()
    };

    for workers in WORKER_COUNTS {
        let exec = ParallelExecutor::new(workers);
        // Whole-load path.
        let mut whole = ModelRegistry::new(batch_model_loader(), u64::MAX);
        whole.insert("mixed", bytes.clone()).unwrap();
        let whole_report = whole
            .serve_multi(&exec, &serve_cfg(), tagged.clone())
            .unwrap();
        // Paged path over the block-streamed re-encoding of the same fixture.
        let blocked = block_stream_snapshot(&bytes).unwrap();
        let mut paged = ModelRegistry::new_paged(batch_model_loader(), paged_config(), u64::MAX);
        paged.insert("mixed", blocked.clone()).unwrap();
        let paged_report = paged
            .serve_multi(&exec, &serve_cfg(), tagged.clone())
            .unwrap();

        assert_eq!(
            decisions(&whole_report),
            decisions(&paged_report),
            "{workers} workers: paged serving must match whole-load bit for bit"
        );
        // The same under a budget of the fixture's largest block, which
        // evicts inside every batch: the fixture's biases are non-zero, so a
        // paged stage loop that applied them out of order would show here.
        // A block faulted twice was evicted in between, so more faults than
        // the model has stages prove the budget evicts.
        let budget = read_block_index(&blocked).unwrap().max_block_bytes();
        let stages = load_paged_model(&blocked).unwrap().stages() as u64;
        let mut tight = ModelRegistry::new_paged(batch_model_loader(), paged_config(), budget);
        tight.insert("mixed", blocked.clone()).unwrap();
        let tight_report = tight
            .serve_multi(&exec, &serve_cfg(), tagged.clone())
            .unwrap();
        assert_eq!(
            decisions(&whole_report),
            decisions(&tight_report),
            "{workers} workers, {budget}-byte budget: paged serving must match whole-load"
        );
        assert!(
            tight_report.stats.blocks_faulted > stages,
            "{workers} workers: {} blocks faulted for {stages} stages at a {budget}-byte budget",
            tight_report.stats.blocks_faulted
        );
        // And both match direct evaluation of the committed fixture.
        for tc in &whole_report.completed {
            let expected = model.logits(&stream[tc.completed.id as usize].input);
            assert_eq!(tc.completed.output, expected, "request {}", tc.completed.id);
        }
    }
}

//! Contracts of the block-streamed snapshot path (`permdnn_core::snapshot`
//! `KIND_BLOCKED` + `permdnn_runtime` paged residency):
//!
//! 1. **Corruption safety.** Truncating a blocked container at any byte, or
//!    flipping any single bit, makes the paged loader return a typed
//!    [`SnapshotError`] — never a panic, never a silently different model.
//!    Faulting single blocks in with `load_block` is held to the same
//!    contract, and a flip inside one block fails only that block's CRC.
//!    A container of the retired kind 5 is a typed error at every reader,
//!    and the block-stream writer refuses a source of a retired or unknown
//!    kind.
//! 2. **Paged ≡ whole.** For every arrival generator × admission policy ×
//!    worker count in {1, 2, 3, 7}, a registry paging blocks through a tight
//!    budget serves outputs, batch membership and order bit-identical to an
//!    unlimited-budget whole-load registry. Only modeled ticks differ (demand
//!    faults are charged).
//! 3. **Over-budget serving.** A model whose weight blocks exceed the entire
//!    cache budget still completes a Zipf-mix run bit-identically, with peak
//!    resident weight bytes pinned to `budget + max_block`.
//! 4. **Mixed formats.** The autotuner's mixed-format fixture pages like any
//!    other model.
//! 5. **Biases.** An MLP whose biases were trained off zero serves, whole
//!    and paged, exactly the layer-by-layer logits of the model that was
//!    saved, so adding the bias after the activation would fail.

use permdnn::core::snapshot::{
    block_stream_snapshot, extract_block, is_weight_block_section, load_block, read_block_index,
    read_blocked_section, ByteWriter, Snapshot, SnapshotBuilder, SnapshotError, INNER_KIND_SECTION,
};
use permdnn::nn::data::GaussianClusters;
use permdnn::nn::layers::{CompressedFc, WeightFormat};
use permdnn::nn::snapshot::{
    batch_model_loader, codec, load_batch_model, load_paged_model, paged_config,
};
use permdnn::nn::MlpClassifier;
use permdnn::runtime::{
    interleave_streams, AdmissionPolicy, BatchConfig, ModelRegistry, OnOffFlashCrowd,
    ParallelExecutor, PoissonBurst, RegistryError, ServeConfig, ServiceModel, TaggedRequest,
    TrafficConfig, TrafficReport, UniformProcess, ZipfMix,
};
use permdnn::tensor::init::seeded_rng;
use proptest::prelude::*;

const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 7];
const IN_DIM: usize = 24;
const HIDDEN: [usize; 1] = [32];
const CLASSES: usize = 8;

/// A frozen permuted-diagonal MLP snapshot (the shape the paging layer was
/// built for: FC weight blocks chained through bias and activation stages).
fn mlp_snapshot(seed: u64) -> Vec<u8> {
    MlpClassifier::new_frozen(
        IN_DIM,
        &HIDDEN,
        CLASSES,
        WeightFormat::PermutedDiagonal { p: 4 },
        &mut seeded_rng(seed),
    )
    .save()
    .expect("frozen models snapshot")
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        batching: BatchConfig::new(4, 8),
        service: ServiceModel::default(),
    }
}

/// The worker- and budget-invariant fingerprint of a run: everything except
/// completion ticks.
fn strip(r: &TrafficReport) -> Vec<(String, u64, usize, Vec<f32>)> {
    r.serve
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
}

// ---------------------------------------------------------------------------
// 1. Corruption safety.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Truncation at every prefix length is a typed error; only the full
    // container loads, and no block of a truncated one faults in.
    #[test]
    fn truncated_blocked_containers_are_typed_errors(cut_frac in 0.0f64..1.0, seed in 0u64..50) {
        let blocked = block_stream_snapshot(&mlp_snapshot(seed % 3)).unwrap();
        let blocks = read_block_index(&blocked).unwrap().len();
        // Clamp instead of assuming: every cut strictly inside the container.
        let cut = ((cut_frac * blocked.len() as f64) as usize).min(blocked.len() - 1);
        // The Err type is SnapshotError by signature: typed, never a panic.
        let err: Result<_, SnapshotError> = load_paged_model(&blocked[..cut]);
        prop_assert!(err.is_err(), "cut at {cut}/{} must not load", blocked.len());
        for k in 0..=blocks {
            prop_assert!(
                load_block(&blocked[..cut], k, &codec()).is_err(),
                "cut at {cut}/{}: block {k} must not fault in", blocked.len()
            );
        }
    }

    // Any single flipped bit is caught by the header checks, the framing
    // checks, the per-section CRCs (the inner-kind section's included), or
    // the graph validation — typed error, no panic.
    // Faulting blocks one at a time: a flip inside block k's payload is
    // block k's checksum mismatch and leaves every other block loadable.
    #[test]
    fn bit_flips_in_blocked_containers_are_typed_errors(pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut blocked = block_stream_snapshot(&mlp_snapshot(0)).unwrap();
        let index = read_block_index(&blocked).unwrap();
        let pos = ((pos_frac * blocked.len() as f64) as usize).min(blocked.len() - 1);
        blocked[pos] ^= 1 << bit;
        let loaded = load_paged_model(&blocked);
        prop_assert!(
            loaded.is_err(),
            "flip of bit {bit} at byte {pos} must be detected"
        );
        let hit = index
            .blocks
            .iter()
            .position(|e| (e.offset..e.offset + e.len).contains(&(pos as u64)));
        for k in 0..=index.len() {
            // Elsewhere (header, framing, inner kind, metadata) a fault is Ok
            // or a typed error; only a flip inside a block pins down which.
            let fault = load_block(&blocked, k, &codec());
            match hit {
                Some(h) if k == h => prop_assert!(
                    matches!(
                        &fault,
                        Err(SnapshotError::ChecksumMismatch { section, .. })
                            if *section == index.blocks[h].name
                    ),
                    "flip at byte {pos} in block {h}: got {:?}",
                    fault.as_ref().err()
                ),
                Some(_) if k == index.len() => prop_assert!(
                    matches!(fault, Err(SnapshotError::MissingSection { .. })),
                    "block {k} is past the index's {} blocks", index.len()
                ),
                Some(h) => prop_assert!(
                    fault.is_ok(),
                    "flip in block {h} must not affect block {k}: {:?}",
                    fault.as_ref().err()
                ),
                None => {}
            }
        }
    }

    // Block reads stay in bounds whatever the header and the inner-kind
    // section say: reading the index back or faulting any block in is Ok or
    // a typed error, never a panic or an out-of-bounds slice.
    #[test]
    fn corrupt_index_entries_never_escape_bounds(pos_frac in 0.0f64..1.0, byte in 0u8..=255u8) {
        let mut blocked = block_stream_snapshot(&mlp_snapshot(1)).unwrap();
        let blocks = read_block_index(&blocked).unwrap().len();
        // Overwrite a byte of the header (magic, version, kind, section
        // count) or of the inner-kind section's frame (name length, name,
        // payload length, payload, CRC).
        let index_span = 16 + 2 + INNER_KIND_SECTION.len() + 8 + 2 + 4;
        let pos = ((pos_frac * index_span as f64) as usize).min(blocked.len() - 1);
        blocked[pos] = byte;
        let _ = read_block_index(&blocked).map(|ix| ix.blocks.len());
        let _ = load_paged_model(&blocked);
        for k in 0..=blocks {
            let _ = load_block(&blocked, k, &codec());
        }
    }
}

/// `model` as the retired kind-5 container laid it out: a leading
/// `"block_index"` section (the wrapped kind, the block count, then each
/// weight section's name, format code, offset and length), then the model's
/// sections unchanged.
fn kind_5_container(model: &[u8]) -> Vec<u8> {
    let snap = Snapshot::parse(model).unwrap();
    let sections = snap.sections();
    let weights = || {
        sections
            .iter()
            .filter(|(name, _)| is_weight_block_section(name))
    };
    let index_len = 6 + weights().map(|(n, _)| 2 + n.len() + 18).sum::<usize>();
    let mut offset = 16 + 2 + "block_index".len() + 8 + index_len + 4;
    let mut index = ByteWriter::new();
    index.u16(snap.kind());
    index.u32(weights().count() as u32);
    for (name, payload) in sections {
        offset += 2 + name.len() + 8;
        if is_weight_block_section(name) {
            index.str(name);
            index.bytes(&payload[..2]);
            index.u64(offset as u64);
            index.u64(payload.len() as u64);
        }
        offset += payload.len() + 4;
    }
    let mut b = SnapshotBuilder::new(5);
    b.section("block_index", index.into_vec());
    for (name, payload) in sections {
        b.section(name, payload.to_vec());
    }
    b.finish()
}

#[test]
fn a_retired_kind_5_container_is_a_typed_error_everywhere() {
    let legacy = kind_5_container(&mlp_snapshot(5));
    // Sound framing and checksums: only the kind is refused.
    assert_eq!(Snapshot::parse(&legacy).unwrap().kind(), 5);
    let refused = |r: Result<(), SnapshotError>| matches!(r, Err(SnapshotError::Malformed { .. }));
    assert!(refused(read_block_index(&legacy).map(drop)));
    assert!(refused(load_block(&legacy, 0, &codec()).map(drop)));
    assert!(refused(extract_block(&legacy, 0).map(drop)));
    assert!(refused(read_blocked_section(&legacy, "graph").map(drop)));
    assert!(refused(load_paged_model(&legacy).map(drop)));
    assert!(refused(load_batch_model(&legacy).map(drop)));
    let mut paged = ModelRegistry::new_paged(batch_model_loader(), paged_config(), u64::MAX);
    assert!(matches!(
        paged.insert("legacy", legacy),
        Err(RegistryError::Snapshot(SnapshotError::Malformed { .. }))
    ));
    assert!(paged.is_empty());
}

/// The block-stream writer refuses a source no reader serves: the retired
/// kinds 4 and 5 and the unknown kind 7, each a sound container holding a
/// model's sections, and a container laid out as kind 5 was.
#[test]
fn block_streaming_a_retired_or_unknown_kind_is_a_typed_error() {
    let model = mlp_snapshot(6);
    let mut sources: Vec<Vec<u8>> = [4, 5, 7]
        .into_iter()
        .map(|kind| {
            let mut b = SnapshotBuilder::new(kind);
            for (name, payload) in Snapshot::parse(&model).unwrap().sections() {
                b.section(name, payload.to_vec());
            }
            b.finish()
        })
        .collect();
    sources.push(kind_5_container(&model));
    for source in sources {
        let kind = Snapshot::parse(&source).unwrap().kind();
        assert!(
            matches!(
                block_stream_snapshot(&source),
                Err(SnapshotError::Malformed { .. })
            ),
            "kind {kind}"
        );
    }
}

/// `crc32` checks a payload in four lanes, one per quarter of its whole
/// 8-byte words, plus a single-lane tail of under 32 bytes. A flipped bit
/// in any lane's quarter, or in the tail, of a real 512² PD p=4 block is
/// that block's checksum mismatch, and the model's other blocks still fault
/// in.
#[test]
fn a_flip_in_any_crc_lane_of_a_real_block_fails_only_that_block() {
    let model = MlpClassifier::new_frozen(
        512,
        &[512, 512],
        10,
        WeightFormat::PermutedDiagonal { p: 4 },
        &mut seeded_rng(0x1a4e),
    );
    let blocked = block_stream_snapshot(&model.save().unwrap()).unwrap();
    let index = read_block_index(&blocked).unwrap();
    let (k, block) = index
        .blocks
        .iter()
        .enumerate()
        .find(|(_, e)| e.len == 294_926)
        .expect("a 512x512 PD p=4 weight block");
    let len = block.len as usize;
    let quarter = len / 32 * 8;
    let tail = len - 4 * quarter;
    assert!(tail > 0, "the block has a tail after its four quarters");
    let codec = codec();
    let flips = (0..4)
        .map(|lane| lane * quarter + quarter / 2)
        .chain([4 * quarter + tail / 2]);
    for (i, at) in flips.enumerate() {
        let mut corrupt = blocked.clone();
        corrupt[block.offset as usize + at] ^= 1 << (i % 8);
        let fault = load_block(&corrupt, k, &codec);
        assert!(
            matches!(
                &fault,
                Err(SnapshotError::ChecksumMismatch { section, .. }) if *section == block.name
            ),
            "flip at payload byte {at} of {len}: got {:?}",
            fault.as_ref().err()
        );
        for other in (0..index.len()).filter(|&o| o != k) {
            assert!(
                load_block(&corrupt, other, &codec).is_ok(),
                "flip in block {k} must not affect block {other}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Paged ≡ whole across generators × policies × workers.
// ---------------------------------------------------------------------------

/// Three MLP tenants on a shared input width, as plain and blocked snapshots.
fn tenant_snapshots() -> Vec<(String, Vec<u8>, Vec<u8>)> {
    (0..3)
        .map(|i| {
            let snap = mlp_snapshot(0x5717 + i);
            let blocked = block_stream_snapshot(&snap).unwrap();
            (format!("m{i}"), snap, blocked)
        })
        .collect()
}

/// A budget tight enough that the three tenants' blocks cannot all stay
/// resident, plus the largest single block (the residency-bound unit).
fn tight_budget(tenants: &[(String, Vec<u8>, Vec<u8>)]) -> (u64, u64) {
    let indexes: Vec<_> = tenants
        .iter()
        .map(|(_, _, b)| read_block_index(b).unwrap())
        .collect();
    let total: u64 = indexes.iter().map(|ix| ix.total_block_bytes()).sum();
    let max_block = indexes.iter().map(|ix| ix.max_block_bytes()).max().unwrap();
    ((total / 3).max(max_block), max_block)
}

fn generator_streams() -> Vec<(&'static str, Vec<TaggedRequest>)> {
    let uniform = |seed: u64| UniformProcess::new(IN_DIM, 6.0).unwrap().stream(seed, 14);
    let poisson = |seed: u64| {
        PoissonBurst::new(IN_DIM, 7.0, 0.3, 4)
            .unwrap()
            .stream(seed, 14)
    };
    let crowd = |seed: u64| {
        OnOffFlashCrowd::new(IN_DIM, 30, 90, 2.0)
            .unwrap()
            .stream(seed, 14)
    };
    let three = |streams: [Vec<_>; 3]| {
        let mut tagged = Vec::new();
        for (i, s) in streams.into_iter().enumerate() {
            tagged.push((format!("m{i}"), s));
        }
        interleave_streams(tagged)
    };
    vec![
        (
            "uniform",
            three([uniform(0xA0), uniform(0xA1), uniform(0xA2)]),
        ),
        (
            "poisson_burst",
            three([poisson(0xB0), poisson(0xB1), poisson(0xB2)]),
        ),
        (
            "flash_crowd",
            three([crowd(0xC0), crowd(0xC1), crowd(0xC2)]),
        ),
        (
            "zipf_mix",
            ZipfMix::new(
                (0..3).map(|i| (format!("m{i}"), IN_DIM)).collect(),
                1.2,
                5.0,
            )
            .unwrap()
            .stream(0xD0, 42),
        ),
    ]
}

#[test]
fn paged_serving_is_bit_identical_to_whole_load_everywhere() {
    let tenants = tenant_snapshots();
    let (budget, max_block) = tight_budget(&tenants);
    let policies = [
        AdmissionPolicy::Fifo,
        AdmissionPolicy::Priority,
        AdmissionPolicy::EarliestDeadline,
    ];

    for (gen_name, stream) in generator_streams() {
        for policy in policies {
            let cfg = TrafficConfig::new(serve_cfg(), policy);

            // Whole-load reference at one worker.
            let mut whole = ModelRegistry::new(batch_model_loader(), u64::MAX);
            for (id, snap, _) in &tenants {
                whole.insert(id, snap.clone()).unwrap();
            }
            let reference = whole
                .serve_traffic(&ParallelExecutor::new(1), &cfg, stream.clone())
                .unwrap();
            assert!(
                reference.rejections.is_empty(),
                "{gen_name}/{policy:?}: no SLOs registered, nothing sheds"
            );
            let expected = strip(&reference);

            for workers in WORKER_COUNTS {
                let mut paged =
                    ModelRegistry::new_paged(batch_model_loader(), paged_config(), budget);
                for (id, _, blocked) in &tenants {
                    paged.insert(id, blocked.clone()).unwrap();
                }
                let report = paged
                    .serve_traffic(&ParallelExecutor::new(workers), &cfg, stream.clone())
                    .unwrap();
                assert_eq!(
                    strip(&report),
                    expected,
                    "{gen_name}/{policy:?}/{workers} workers: paged run diverged"
                );
                assert!(report.rejections.is_empty());
                assert!(
                    report.serve.stats.peak_resident_bytes <= budget + max_block,
                    "{gen_name}/{policy:?}/{workers} workers: peak {} > {budget} + {max_block}",
                    report.serve.stats.peak_resident_bytes
                );
                assert!(
                    report.serve.stats.blocks_faulted > 0,
                    "{gen_name}/{policy:?}: a cold paged registry must fault"
                );
            }
        }
    }
}

#[test]
fn paged_runs_are_deterministic_across_repeats() {
    let tenants = tenant_snapshots();
    let (budget, _) = tight_budget(&tenants);
    let cfg = TrafficConfig::new(serve_cfg(), AdmissionPolicy::EarliestDeadline);
    let stream = generator_streams().remove(3).1;

    let run = || {
        let mut paged = ModelRegistry::new_paged(batch_model_loader(), paged_config(), budget);
        for (id, _, blocked) in &tenants {
            paged.insert(id, blocked.clone()).unwrap();
        }
        let report = paged
            .serve_traffic(&ParallelExecutor::new(3), &cfg, stream.clone())
            .unwrap();
        (
            strip(&report),
            report.serve.final_tick,
            report.serve.stats.blocks_faulted,
            report.serve.stats.bytes_faulted,
        )
    };
    assert_eq!(run(), run(), "same seed, same budget: same everything");
}

// ---------------------------------------------------------------------------
// 3. Serving a model bigger than the entire budget.
// ---------------------------------------------------------------------------

#[test]
fn model_larger_than_the_whole_budget_still_serves_bit_identically() {
    let snap = mlp_snapshot(0xB16);
    let blocked = block_stream_snapshot(&snap).unwrap();
    let index = read_block_index(&blocked).unwrap();
    let max_block = index.max_block_bytes();
    // The budget holds one block with headroom, but not the model.
    let budget = max_block + 32;
    assert!(
        budget < index.total_block_bytes(),
        "the scenario requires model > budget"
    );

    let stream = ZipfMix::new(vec![("big".to_string(), IN_DIM)], 1.1, 3.0)
        .unwrap()
        .stream(0xE0, 36);
    let cfg = TrafficConfig::new(serve_cfg(), AdmissionPolicy::Fifo);

    let mut whole = ModelRegistry::new(batch_model_loader(), u64::MAX);
    whole.insert("big", snap).unwrap();
    let reference = whole
        .serve_traffic(&ParallelExecutor::new(2), &cfg, stream.clone())
        .unwrap();

    let mut paged = ModelRegistry::new_paged(batch_model_loader(), paged_config(), budget);
    paged.insert("big", blocked).unwrap();
    let report = paged
        .serve_traffic(&ParallelExecutor::new(2), &cfg, stream)
        .unwrap();

    assert_eq!(strip(&report), strip(&reference));
    assert_eq!(
        report.serve.completed.len(),
        reference.serve.completed.len()
    );
    let stats = report.serve.stats;
    assert!(
        stats.peak_resident_bytes <= budget + max_block,
        "peak {} exceeds budget {budget} + max block {max_block}",
        stats.peak_resident_bytes
    );
    assert!(
        stats.blocks_faulted as usize > index.blocks.len(),
        "an over-budget model must re-fault evicted blocks"
    );
    assert!(stats.evictions > 0);
    assert!(paged.loaded_bytes() <= budget + max_block);
    // Paging costs modeled time; the contract is it never costs bits.
    assert!(report.serve.final_tick > reference.serve.final_tick);
}

// ---------------------------------------------------------------------------
// 4. Mixed-format snapshots page like any other: the layer-granular block
// index is format-agnostic, so the autotuner's golden fixture (EIE +
// shared-PD hidden layers, dense head) streams block by block and serves
// bit-identically to whole loading.
// ---------------------------------------------------------------------------

#[test]
fn mixed_format_fixture_pages_bit_identically_to_whole_load() {
    let snap = std::fs::read(
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mlp_mixed.snap"),
    )
    .expect("committed mlp_mixed fixture");
    let in_dim = MlpClassifier::load(&snap)
        .expect("fixture loads")
        .input_dim();
    let blocked = block_stream_snapshot(&snap).unwrap();
    let index = read_block_index(&blocked).unwrap();
    assert!(
        index.blocks.len() >= 3,
        "a three-layer mixed model should block per weight section"
    );
    // Budget below the model's total block bytes: serving must fault blocks
    // in and out rather than hold the whole model.
    let budget = index.max_block_bytes() + 32;
    assert!(budget < index.total_block_bytes());

    let stream = ZipfMix::new(vec![("mixed".to_string(), in_dim)], 1.1, 3.0)
        .unwrap()
        .stream(0x313, 28);
    let cfg = TrafficConfig::new(serve_cfg(), AdmissionPolicy::Fifo);

    let mut whole = ModelRegistry::new(batch_model_loader(), u64::MAX);
    whole.insert("mixed", snap).unwrap();
    let reference = whole
        .serve_traffic(&ParallelExecutor::new(2), &cfg, stream.clone())
        .unwrap();

    let mut paged = ModelRegistry::new_paged(batch_model_loader(), paged_config(), budget);
    paged.insert("mixed", blocked).unwrap();
    let report = paged
        .serve_traffic(&ParallelExecutor::new(2), &cfg, stream)
        .unwrap();

    assert_eq!(
        strip(&report),
        strip(&reference),
        "paging a mixed-format snapshot must not change a single output bit"
    );
    assert!(report.serve.stats.blocks_faulted > 0);
}

// ---------------------------------------------------------------------------
// 5. The stage loop's bias-then-activation order, on a model that shows it:
// frozen layers train their biases, so a few `fit` steps move every bias
// off zero, and `relu(W·x + b)` then differs from `relu(W·x) + b` wherever
// a pre-activation is negative. Whole-loaded and paged serving, both the
// stage loop, must equal the layer-by-layer `logits` of the model that was
// saved.
// ---------------------------------------------------------------------------

#[test]
fn trained_biases_serve_bit_identically_whole_loaded_and_paged() {
    let mut model = MlpClassifier::new_frozen(
        IN_DIM,
        &[32, 16],
        CLASSES,
        WeightFormat::PermutedDiagonal { p: 4 },
        &mut seeded_rng(0xB1A5),
    );
    let data = GaussianClusters::generate(&mut seeded_rng(0xB1A6), 48, CLASSES, IN_DIM, 0.5);
    model.fit(&data, 2, 8, 0.5);
    let snap = model.save().expect("frozen models snapshot");
    let blocked = block_stream_snapshot(&snap).unwrap();
    let budget = read_block_index(&blocked).unwrap().max_block_bytes() + 32;

    let stream = ZipfMix::new(vec![("biased".to_string(), IN_DIM)], 1.1, 3.0)
        .unwrap()
        .stream(0xB1A7, 24);
    // The premise: on some served input, a first-layer unit with a non-zero
    // bias has a negative pre-activation.
    let first = model.layers()[0]
        .as_any()
        .downcast_ref::<CompressedFc>()
        .expect("a frozen MLP's first layer is a CompressedFc");
    assert!(stream.iter().any(|r| {
        let wx = first.weights().matvec(&r.request.input).unwrap();
        wx.iter()
            .zip(first.bias())
            .any(|(&y, &b)| b != 0.0 && y + b < 0.0)
    }));

    let cfg = TrafficConfig::new(serve_cfg(), AdmissionPolicy::Fifo);
    for workers in [1, 2] {
        let exec = ParallelExecutor::new(workers);
        let mut whole = ModelRegistry::new(batch_model_loader(), u64::MAX);
        whole.insert("biased", snap.clone()).unwrap();
        let reference = whole.serve_traffic(&exec, &cfg, stream.clone()).unwrap();
        let mut paged = ModelRegistry::new_paged(batch_model_loader(), paged_config(), budget);
        paged.insert("biased", blocked.clone()).unwrap();
        let report = paged.serve_traffic(&exec, &cfg, stream.clone()).unwrap();

        assert_eq!(strip(&report), strip(&reference), "{workers} workers");
        assert!(report.serve.stats.blocks_faulted > 0);
        assert_eq!(reference.serve.completed.len(), stream.len());
        for tc in &reference.serve.completed {
            let input = &stream
                .iter()
                .find(|r| r.request.id == tc.completed.id)
                .expect("every completion answers a request")
                .request
                .input;
            assert_eq!(
                tc.completed.output,
                model.logits(input),
                "request {} on {workers} workers",
                tc.completed.id
            );
        }
    }
}

//! Bit-identity suite for the wall-clock kernel pass.
//!
//! The optimisation passes (precomputed FFT plans + cached weight spectra,
//! scratch arenas through the matvec/matmul hot path, the index-free
//! rotated-window PD kernel, dense's register-tiled kernel, the unrolled i16
//! column-sparse inner loop) change where values live and in what order
//! memory is read — never the order in which any output sums its terms. This
//! suite pins that down:
//!
//! 1. `FftPlan` transforms are bitwise identical to the freestanding
//!    `fft_in_place` / `ifft_in_place` / `fft_real` they replace.
//! 2. The cached-spectra circulant matvec equals the retained per-call FFT
//!    path exactly, including ragged (non-multiple-of-`k`) shapes, across
//!    repeated calls on one reused scratch.
//! 3. The index-free PD kernel equals the reference traversal
//!    (`matvec_reference`, the test oracle) exactly: every block-size path,
//!    ragged shapes, random permutations, zero and `-0.0` inputs, through
//!    `matvec_into`, a reused scratch, the across-batch path at every chunk
//!    width and tail, and the executor. Shared-PD and dense batches equal
//!    their own per-row matvecs, and dense's tile equals
//!    `pd_tensor::Matrix::matvec`, the loop it replaced, bit for bit at
//!    every tile shape and tail on values that catch a reordered sum.
//! 4. The unrolled flat-accumulator i16 kernel equals the boxed-accumulator
//!    reference exactly — outputs *and* datapath counters.
//! 5. The arena-backed executor stays bit-identical to sequential execution
//!    for every registry format, worker count, and across repeated calls
//!    (arena reuse must not leak state between calls).
//! 6. The serving loops (`serve`, `ModelRegistry::serve_traffic`), which now
//!    reuse one output matrix across batches and models, still produce the
//!    exact per-request outputs of the sequential operator.
//! 7. Every batched shape check rejects a `batch · dim` that overflows
//!    `usize` with a typed error.

use std::sync::Arc;

use permdnn::circulant::fft::{fft_in_place, fft_real, ifft_in_place};
use permdnn::circulant::{BlockCirculantMatrix, CirculantScratch, Complex, FftPlan};
use permdnn::core::format::{BatchView, CompressedLinear, FormatError};
use permdnn::core::qlinear::{QKernelStats, QScheme, QScratch, QuantizedLinear};
use permdnn::core::snapshot::{load_tensor, save_tensor, SnapshotCodec};
use permdnn::core::{BlockPermDiagMatrix, PermutationIndexing, Scratch};
use permdnn::nn::layers::WeightFormat;
use permdnn::prune::CscMatrix;
use permdnn::quant::SharedWeightPdMatrix;
use permdnn::runtime::{
    seeded_request_stream, serve, AdmissionPolicy, BatchConfig, BatchModel, ModelLoader,
    ModelRegistry, ParallelExecutor, ServeConfig, ServiceModel, SingleLayerModel, SloTarget,
    TrafficConfig, UniformProcess,
};
use permdnn::tensor::init::{seeded_rng, xavier_uniform};
use permdnn::tensor::Matrix;
use proptest::prelude::*;

const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 7];

fn complex_signal(n: usize, seed: u64) -> Vec<Complex> {
    let m = xavier_uniform(&mut seeded_rng(seed), 2, n.max(1));
    (0..n)
        .map(|i| Complex::new(m[(0, i)] as f64, m[(1, i)] as f64))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // 1. FftPlan vs the freestanding transforms, bitwise.
    #[test]
    fn prop_fft_plan_matches_freestanding_transforms(exp in 0u32..=10, seed in 0u64..500) {
        let n = 1usize << exp;
        let plan = FftPlan::new(n);
        let signal = complex_signal(n, seed);

        let mut planned = signal.clone();
        plan.forward_in_place(&mut planned);
        let mut free = signal.clone();
        fft_in_place(&mut free);
        prop_assert_eq!(&planned, &free, "forward transform differs at n = {}", n);

        plan.inverse_in_place(&mut planned);
        ifft_in_place(&mut free);
        prop_assert_eq!(&planned, &free, "inverse transform differs at n = {}", n);

        // Real-input path: forward_real_padded vs fft_real on the zero-padded
        // signal, writing into a deliberately dirty output buffer.
        let real_len = (seed as usize % n.max(1)).max(1).min(n);
        let reals: Vec<f32> = (0..real_len).map(|i| signal[i].re as f32).collect();
        let mut padded: Vec<Complex> = reals.iter().map(|&r| Complex::from_real(f64::from(r))).collect();
        padded.resize(n, Complex::default());
        let expected = fft_real(&padded.iter().map(|c| c.re as f32).collect::<Vec<_>>());
        let mut out = vec![Complex::new(7.5, -3.25); n];
        plan.forward_real_padded(&reals, &mut out);
        prop_assert_eq!(&out, &expected, "real-padded transform differs at n = {}", n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // 2. Cached-spectra circulant matvec vs the per-call FFT path, with one
    // scratch reused across every call (state must not leak between inputs).
    #[test]
    fn prop_circulant_cached_fft_matches_percall(
        (rows, cols, kexp, seed) in (1usize..=40, 1usize..=40, 1u32..=3, 0u64..300)
    ) {
        let k = 1usize << kexp;
        let w = BlockCirculantMatrix::random_any_size(rows, cols, k, &mut seeded_rng(seed));
        let mut scratch = CirculantScratch::default();
        let mut y = vec![0.0f32; rows];
        for trial in 0..3u64 {
            let x_mat = xavier_uniform(&mut seeded_rng(seed ^ (trial + 1)), 1, cols);
            let x = x_mat.row(0);
            w.matvec_fft_into(x, &mut y, &mut scratch).unwrap();
            let y_percall = w.matvec_fft_percall(x).unwrap();
            prop_assert_eq!(&y, &y_percall, "{}x{} k={} trial {}", rows, cols, k, trial);
            // The direct kernel agrees to rounding (different op order), so
            // only sanity-check it here; exactness is FFT-vs-FFT.
            let y_direct = w.matvec_direct(x).unwrap();
            for (a, b) in y.iter().zip(y_direct.iter()) {
                prop_assert!((a - b).abs() <= 1e-3 * (1.0 + b.abs()));
            }
        }
    }

    // 3. Streamed PD column kernel + blocked batched kernel vs the reference
    // traversal, bitwise.
    #[test]
    fn prop_pd_kernels_match_reference(
        (rb, cb, p, batch, seed) in (1usize..=8, 1usize..=8, 2usize..=5, 1usize..=9, 0u64..300)
    ) {
        let (rows, cols) = (rb * p, cb * p);
        let w = BlockPermDiagMatrix::random(rows, cols, p, &mut seeded_rng(seed));
        let xs_mat = xavier_uniform(&mut seeded_rng(seed ^ 0xabc), batch, cols);
        let xs = BatchView::from_matrix(&xs_mat);

        let mut y_ref = vec![0.0f32; rows];
        let mut y = vec![0.0f32; rows];
        for i in 0..batch {
            w.matvec_reference(xs.row(i), &mut y_ref);
            w.matvec_into(xs.row(i), &mut y).unwrap();
            prop_assert_eq!(&y, &y_ref, "matvec row {}", i);
        }

        let mut out = vec![f32::NAN; batch * rows];
        w.matmul_into(&xs, &mut out, &mut Scratch::new()).unwrap();
        for (i, out_row) in out.chunks(rows).enumerate() {
            w.matvec_reference(xs.row(i), &mut y_ref);
            prop_assert_eq!(out_row, &y_ref[..], "blocked matmul row {}", i);
        }
    }

    // 3b. The index-free PD kernel on every path it has: fixed widths
    // p = 2, 4, 8, 16 (a lone row, or a tile of up to 32 / p batch rows) and
    // the run-time width (p = 1, 3, 5, row by row), ragged shapes, random
    // permutations, inputs holding exact zeros and -0.0, and batches drawn
    // across PD's and dense's chunk widths (3c runs every batch size). One
    // arena is reused for every call.
    #[test]
    fn prop_index_free_kernels_match_reference_on_every_path(
        (rows, cols, batch, seed) in (1usize..=40, 1usize..=40, 1usize..=40, 0u64..500)
    ) {
        let xs_mat = signed_zero_inputs(batch, cols, seed);
        let xs = BatchView::from_matrix(&xs_mat);
        let mut arena = Scratch::new();
        let mut y = vec![0.0f32; rows];
        let mut y_ref = vec![0.0f32; rows];
        let mut out = vec![f32::NAN; batch * rows];
        for p in [1usize, 2, 3, 4, 5, 8, 16] {
            let w = BlockPermDiagMatrix::random_with_indexing(
                rows,
                cols,
                p,
                PermutationIndexing::Random,
                &mut seeded_rng(seed ^ p as u64),
            );
            let reference: Vec<Vec<f32>> = (0..batch)
                .map(|i| {
                    w.matvec_reference(xs.row(i), &mut y_ref);
                    y_ref.clone()
                })
                .collect();
            for (i, want) in reference.iter().enumerate() {
                w.matvec_into(xs.row(i), &mut y).unwrap();
                prop_assert_eq!(&y, want, "p={} matvec_into row {}", p, i);
                y.fill(f32::NAN);
                w.matvec_scratch(xs.row(i), &mut y, &mut arena).unwrap();
                prop_assert_eq!(&y, want, "p={} matvec_scratch row {}", p, i);
            }
            out.fill(f32::NAN);
            w.matmul_into(&xs, &mut out, &mut arena).unwrap();
            for (i, got) in out.chunks(rows).enumerate() {
                prop_assert_eq!(got, &reference[i][..], "p={} matmul_into row {}", p, i);
            }
            let op: Arc<dyn CompressedLinear> = Arc::new(w.clone());
            for workers in [1usize, 2, 3] {
                let mut got = Matrix::zeros(0, 0);
                ParallelExecutor::new(workers).matmul_into(&op, &xs, &mut got).unwrap();
                for (i, want) in reference.iter().enumerate() {
                    prop_assert_eq!(got.row(i), &want[..], "p={} workers={} row {}", p, workers, i);
                }
            }
            let shared = SharedWeightPdMatrix::quantize_4bit(&w, &mut seeded_rng(seed));
            out.fill(f32::NAN);
            shared.matmul_into(&xs, &mut out, &mut arena).unwrap();
            for (i, got) in out.chunks(rows).enumerate() {
                shared.matvec_into(xs.row(i), &mut y).unwrap();
                prop_assert_eq!(got, &y[..], "p={} shared-PD row {}", p, i);
            }
        }
        let dense = xavier_uniform(&mut seeded_rng(seed ^ 0xd), rows, cols);
        out.fill(f32::NAN);
        dense.matmul_into(&xs, &mut out, &mut arena).unwrap();
        for (i, got) in out.chunks(rows).enumerate() {
            CompressedLinear::matvec_into(&dense, xs.row(i), &mut y).unwrap();
            prop_assert_eq!(got, &y[..], "dense row {}", i);
        }
    }

    // 4. Unrolled i16 column-sparse kernel vs the boxed-accumulator
    // reference: outputs and datapath counters, with one QScratch reused.
    #[test]
    fn prop_q16_scratch_matches_reference_with_stats(
        (rb, cb, p, batch, seed) in (1usize..=6, 1usize..=6, 2usize..=5, 1usize..=7, 0u64..300)
    ) {
        let (rows, cols) = (rb * p, cb * p);
        let op: Arc<dyn CompressedLinear> =
            Arc::new(BlockPermDiagMatrix::random(rows, cols, p, &mut seeded_rng(seed)));
        let q = QuantizedLinear::from_op(
            Arc::clone(&op),
            QScheme::calibrate(1.0, op.max_weight_abs(), 8.0),
        );
        prop_assert!(q.has_integer_kernel());

        let xs_mat = xavier_uniform(&mut seeded_rng(seed ^ 0x51), batch, cols);
        let mut scratch = QScratch::default();
        let mut y = vec![0i16; rows];
        let mut y_ref = vec![0i16; rows];
        for i in 0..batch {
            let x_raw = q.quantize_input(xs_mat.row(i));
            let stats = q.matvec_q_scratch(&x_raw, &mut y, &mut scratch).unwrap();
            let stats_ref = q.matvec_q_reference(&x_raw, &mut y_ref).unwrap();
            prop_assert_eq!(&y, &y_ref, "outputs row {}", i);
            prop_assert_eq!(stats, stats_ref, "counters row {}", i);
        }
    }
}

/// A `batch × dim` input whose entries include exact `0.0` and `-0.0`, the
/// values a kernel that skips (or no longer skips) zero inputs must not
/// treat differently.
fn signed_zero_inputs(batch: usize, dim: usize, seed: u64) -> Matrix {
    let mut m = xavier_uniform(&mut seeded_rng(seed ^ 0x5e70), batch, dim);
    for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
        match (i as u64 + seed) % 5 {
            0 => *v = 0.0,
            1 => *v = -0.0,
            _ => {}
        }
    }
    m
}

// 3c. The across-batch kernels against their per-row paths at every batch
// size from 0 through 40, so every chunk width and every tail runs: dense's
// 16/8/4/2-row chunks against its lone-row tile (3d pins both to
// `Matrix::matvec`), PD's tiles of 32 / p rows
// (p = 2, 4, 8, 16; p = 3 runs row by row) against `matvec_reference`, and
// shared-PD against its own `matvec_into`. One arena serves every format,
// and the second shape has fewer rows than most block sizes.
#[test]
fn batched_kernels_match_rows_at_every_batch_size() {
    let mut arena = Scratch::new();
    for (rows, cols) in [(13, 29), (3, 21)] {
        let dense = xavier_uniform(&mut seeded_rng(0xde), rows, cols);
        let pds: Vec<(BlockPermDiagMatrix, SharedWeightPdMatrix)> = [2usize, 3, 4, 8, 16]
            .into_iter()
            .map(|p| {
                let w = BlockPermDiagMatrix::random_with_indexing(
                    rows,
                    cols,
                    p,
                    PermutationIndexing::Random,
                    &mut seeded_rng(0xdf ^ p as u64),
                );
                let shared = SharedWeightPdMatrix::quantize_4bit(&w, &mut seeded_rng(p as u64));
                (w, shared)
            })
            .collect();
        let mut y = vec![0.0f32; rows];
        for batch in 0..=40 {
            let xs_mat = signed_zero_inputs(batch, cols, batch as u64);
            let xs = BatchView::from_matrix(&xs_mat);
            let mut out = vec![f32::NAN; batch * rows];
            dense.matmul_into(&xs, &mut out, &mut arena).unwrap();
            for (i, got) in out.chunks(rows).enumerate() {
                CompressedLinear::matvec_into(&dense, xs.row(i), &mut y).unwrap();
                assert_eq!(got, &y[..], "dense {rows}x{cols} batch {batch} row {i}");
            }
            for (w, shared) in &pds {
                let p = w.p();
                out.fill(f32::NAN);
                w.matmul_into(&xs, &mut out, &mut arena).unwrap();
                for (i, got) in out.chunks(rows).enumerate() {
                    w.matvec_reference(xs.row(i), &mut y);
                    assert_eq!(got, &y[..], "PD p={p} {rows}x{cols} batch {batch} row {i}");
                }
                out.fill(f32::NAN);
                shared.matmul_into(&xs, &mut out, &mut arena).unwrap();
                for (i, got) in out.chunks(rows).enumerate() {
                    shared.matvec_into(xs.row(i), &mut y).unwrap();
                    assert_eq!(
                        got,
                        &y[..],
                        "shared-PD p={p} {rows}x{cols} batch {batch} row {i}"
                    );
                }
            }
        }
    }
}

/// A `rows × cols` matrix laced with the values that tell a reordered sum
/// or a skipped term apart: `-0.0`, subnormals, and magnitudes near 2^59
/// whose products (about 2^118) swamp and then cancel each other, so a
/// reassociated sum rounds differently. Every third row (from `special_row`)
/// also holds `±∞` and NaN, so `∞ · 0`, `∞ − ∞` and NaN terms reach the
/// sums; the other rows stay finite and keep the cancellations visible.
///
/// The NaN is the one the hardware makes for `∞ · 0`, so every NaN in a
/// computation has the same bits. Where both operands of a multiply or an add
/// are NaN, x86 keeps the first operand's payload, and LLVM may commute
/// either operand of `fmul` and `fadd` in either loop: with two payloads the
/// survivor would follow the compiler's register choice, not the source.
fn adversarial_values(rows: usize, cols: usize, special_row: usize, seed: u64) -> Matrix {
    let nan = std::hint::black_box(f32::INFINITY) * std::hint::black_box(0.0f32);
    let mut m = xavier_uniform(&mut seeded_rng(seed), rows, cols);
    for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
        let h = (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59;
        let sign = (h as u32 & 1) << 31;
        let special = (i / cols) % 3 == special_row;
        *v = match h {
            0 => -0.0,
            1..=3 => f32::from_bits(sign | (1 + (i as u32 * 7919) % 0x007f_ffff)),
            4..=11 => f32::from_bits(sign | ((59 + 127) << 23)) * (1.0 + v.abs()),
            12 | 13 if special => f32::from_bits(sign | f32::INFINITY.to_bits()),
            14 | 15 if special => nan,
            _ => *v,
        };
    }
    m
}

// 3d. Dense's register tile against the loop it replaced,
// `pd_tensor::Matrix::matvec`, bit for bit (`to_bits`, so signed zeros and
// NaN bits count): every tile shape (8×1 at batch 1, then 8×2, 4×4, 2×8
// and 1×16) with every ragged weight-row and column tail, at every batch
// 0–40, on values that catch a reordered sum, a skipped term or a sum
// started at `-0.0`, through `matmul_into` on one reused arena,
// `matvec_into` row by row, and the executor at every worker count.
#[test]
fn dense_tile_matches_matrix_matvec_bit_for_bit() {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let executors = WORKER_COUNTS.map(ParallelExecutor::new);
    let mut arena = Scratch::new();
    for rows in [1usize, 3, 7, 9, 17, 33] {
        for cols in [1usize, 3, 5, 64, 67] {
            let w = adversarial_values(rows, cols, 0, (rows * 100 + cols) as u64);
            let op: Arc<dyn CompressedLinear> = Arc::new(w.clone());
            let mut y = vec![0.0f32; rows];
            let mut got = Matrix::zeros(0, 0);
            for batch in 0..=40 {
                let xs_mat = adversarial_values(batch, cols, 1, batch as u64);
                let xs = BatchView::from_matrix(&xs_mat);
                let want: Vec<u32> = (0..batch)
                    .flat_map(|i| bits(&w.matvec(xs.row(i))))
                    .collect();
                let at = format!("{rows}x{cols} batch {batch}");
                let mut out = vec![f32::NAN; batch * rows];
                w.matmul_into(&xs, &mut out, &mut arena).unwrap();
                assert_eq!(bits(&out), want, "matmul_into {at}");
                for i in 0..batch {
                    y.fill(f32::NAN);
                    CompressedLinear::matvec_into(&w, xs.row(i), &mut y).unwrap();
                    assert_eq!(
                        bits(&y),
                        want[i * rows..(i + 1) * rows],
                        "matvec_into {at} row {i}"
                    );
                }
                for exec in &executors {
                    exec.matmul_into(&op, &xs, &mut got).unwrap();
                    let workers = exec.workers();
                    assert_eq!(bits(got.as_slice()), want, "{at} workers={workers}");
                }
            }
        }
    }
}

/// Every registry format at the given shape (dimensions multiples of 4 so the
/// structured formats get whole blocks).
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
    #![proptest_config(ProptestConfig::with_cases(8))]

    // 5. Arena-backed executor vs sequential, every format x worker count,
    // repeated calls on one executor and one reused output matrix.
    #[test]
    fn prop_executor_arenas_stay_bit_identical_across_repeated_calls(
        (rows4, cols4, batch, seed) in (1usize..=8, 1usize..=8, 1usize..=13, 0u64..300)
    ) {
        let (rows, cols) = (rows4 * 4, cols4 * 4);
        let mut rng = seeded_rng(seed);
        for format in registry_formats() {
            let op: Arc<dyn CompressedLinear> = Arc::from(format.build(rows, cols, &mut rng));
            for workers in WORKER_COUNTS {
                let exec = ParallelExecutor::new(workers);
                let mut out = permdnn::tensor::Matrix::zeros(0, 0);
                for trial in 0..3u64 {
                    // A different batch each call: a stale arena buffer from
                    // the previous (larger or smaller) call must not show.
                    let b = 1 + ((batch + trial as usize) % 13);
                    let xs_mat = xavier_uniform(&mut seeded_rng(seed ^ (trial + 9)), b, cols);
                    let xs = BatchView::from_matrix(&xs_mat);
                    let sequential = op.matmul(&xs).unwrap();
                    exec.matmul_into(&op, &xs, &mut out).unwrap();
                    prop_assert_eq!(
                        &out,
                        &sequential,
                        "{} workers={} trial {}",
                        format.label(),
                        workers,
                        trial
                    );
                }
            }
        }
    }

    // 5b. Integer path: the quantized operator through the executor's
    // arena-backed `matmul_into` vs its sequential matmul, repeated.
    #[test]
    fn prop_executor_integer_path_matches_sequential(
        (rb, cb, batch, seed) in (1usize..=6, 1usize..=6, 1usize..=9, 0u64..300)
    ) {
        let (rows, cols) = (rb * 4, cb * 4);
        let op: Arc<dyn CompressedLinear> =
            Arc::new(BlockPermDiagMatrix::random(rows, cols, 4, &mut seeded_rng(seed)));
        let q: Arc<dyn CompressedLinear> = Arc::new(QuantizedLinear::from_op(
            Arc::clone(&op),
            QScheme::calibrate(1.0, op.max_weight_abs(), 8.0),
        ));
        for workers in WORKER_COUNTS {
            let exec = ParallelExecutor::new(workers);
            let mut out = permdnn::tensor::Matrix::zeros(0, 0);
            for trial in 0..3u64 {
                let b = 1 + ((batch + trial as usize) % 9);
                let xs_mat = xavier_uniform(&mut seeded_rng(seed ^ (trial + 3)), b, cols);
                let xs = BatchView::from_matrix(&xs_mat);
                let sequential = q.matmul(&xs).unwrap();
                exec.matmul_into(&q, &xs, &mut out).unwrap();
                prop_assert_eq!(&out, &sequential, "workers={} trial {}", workers, trial);
            }
        }
    }
}

// 6a. The serve loop's reused output matrix: every completed request's output
// equals the sequential operator applied to that request's input.
#[test]
fn serve_loop_outputs_equal_sequential_operator() {
    let dim = 24;
    let op: Arc<dyn CompressedLinear> = Arc::new(BlockPermDiagMatrix::random(
        dim,
        dim,
        4,
        &mut seeded_rng(0xE0),
    ));
    let model = SingleLayerModel::new(Arc::clone(&op));
    let cfg = ServeConfig {
        batching: BatchConfig::new(5, 3),
        service: ServiceModel::default(),
    };
    let requests = seeded_request_stream(41, 64, dim, 2.0);
    let by_id: std::collections::BTreeMap<u64, Vec<f32>> =
        requests.iter().map(|r| (r.id, r.input.clone())).collect();

    for workers in WORKER_COUNTS {
        let exec = ParallelExecutor::new(workers);
        let report = serve(&model, &exec, &cfg, requests.clone()).unwrap();
        assert_eq!(report.completed.len(), 64);
        for c in &report.completed {
            let expected = op.matvec(&by_id[&c.id]).unwrap();
            assert_eq!(c.output, expected, "request {} workers {}", c.id, workers);
        }
    }
}

// 6a'. Mixed-format model (the autotuner's output shape): one executor's
// arenas and one reused output matrix carry state across layers whose
// formats differ — PD scratch, EIE run-decoding, shared-PD tag lookups and
// the dense head must not leak into each other across repeated calls.
#[test]
fn mixed_format_model_stays_bit_identical_under_arena_reuse() {
    let model = permdnn::nn::MlpClassifier::new_frozen_mixed(
        16,
        &[
            (24, WeightFormat::PermutedDiagonal { p: 4 }),
            (16, WeightFormat::Circulant { k: 4 }),
            (12, WeightFormat::UnstructuredSparse { p: 4 }),
        ],
        4,
        &mut seeded_rng(0xA11),
    );
    // Repeated varying-size batches through ONE executor per worker count.
    for workers in WORKER_COUNTS {
        let exec = ParallelExecutor::new(workers);
        for trial in 0..4u64 {
            let b = 1 + ((3 * trial as usize) % 7);
            let xs_mat = xavier_uniform(&mut seeded_rng(0xA12 + trial), b, 16);
            let xs = BatchView::from_matrix(&xs_mat);
            let got = model.forward_batch(&xs, &exec).unwrap();
            let want = model
                .forward_batch(&xs, &ParallelExecutor::sequential())
                .unwrap();
            assert_eq!(got, want, "workers {workers} trial {trial}");
        }
    }
    // And through the serve loop's reused output matrix.
    let cfg = ServeConfig {
        batching: BatchConfig::new(5, 3),
        service: ServiceModel::default(),
    };
    let requests = seeded_request_stream(0xA13, 32, 16, 2.0);
    for workers in WORKER_COUNTS {
        let report = serve(
            &model,
            &ParallelExecutor::new(workers),
            &cfg,
            requests.clone(),
        )
        .unwrap();
        assert_eq!(report.completed.len(), 32);
        for c in &report.completed {
            let expected = model.logits(&requests[c.id as usize].input);
            assert_eq!(c.output, expected, "request {} workers {}", c.id, workers);
        }
    }
}

// 6b. serve_traffic through the registry, two models with *different* output
// widths sharing the reused matrix: outputs must be bit-identical across
// worker counts and across repeated runs.
#[test]
fn serve_traffic_outputs_identical_across_workers_with_reused_buffers() {
    fn loader() -> ModelLoader {
        Box::new(|bytes| {
            let op = load_tensor(bytes, &SnapshotCodec::new())?;
            Ok(Arc::new(SingleLayerModel::new(op)) as Arc<dyn BatchModel>)
        })
    }
    fn build() -> ModelRegistry {
        let mut reg = ModelRegistry::new(loader(), u64::MAX);
        let small = BlockPermDiagMatrix::random(16, 16, 4, &mut seeded_rng(0xA1));
        let large = BlockPermDiagMatrix::random(48, 48, 4, &mut seeded_rng(0xA2));
        reg.insert_with_slo(
            "small",
            save_tensor(&small).unwrap(),
            SloTarget::new(500, 5, 16).unwrap(),
        )
        .unwrap();
        reg.insert_with_slo(
            "large",
            save_tensor(&large).unwrap(),
            SloTarget::new(2_000, 2, 32).unwrap(),
        )
        .unwrap();
        reg
    }
    let stream = permdnn::runtime::interleave_streams(vec![
        (
            "small".to_string(),
            UniformProcess::new(16, 3.0).unwrap().stream(0xD2, 40),
        ),
        (
            "large".to_string(),
            UniformProcess::new(48, 5.0).unwrap().stream(0xD3, 24),
        ),
    ]);
    let cfg = TrafficConfig::new(
        ServeConfig {
            batching: BatchConfig::new(8, 4),
            service: ServiceModel::default(),
        },
        AdmissionPolicy::Fifo,
    );

    let run = |workers: usize| {
        build()
            .serve_traffic(&ParallelExecutor::new(workers), &cfg, stream.clone())
            .unwrap()
    };
    let baseline = run(1);
    assert_eq!(baseline, run(1), "same seed must replay bit-identically");
    let outputs = |r: &permdnn::runtime::TrafficReport| -> Vec<(String, u64, Vec<f32>)> {
        r.serve
            .completed
            .iter()
            .map(|c| {
                (
                    c.model_id.clone(),
                    c.completed.id,
                    c.completed.output.clone(),
                )
            })
            .collect()
    };
    for workers in &WORKER_COUNTS[1..] {
        assert_eq!(
            outputs(&run(*workers)),
            outputs(&baseline),
            "{workers} workers changed a served bit"
        );
    }
    // And every single output equals the sequential operator.
    let small = BlockPermDiagMatrix::random(16, 16, 4, &mut seeded_rng(0xA1));
    let large = BlockPermDiagMatrix::random(48, 48, 4, &mut seeded_rng(0xA2));
    let by_id: std::collections::BTreeMap<(String, u64), Vec<f32>> = stream
        .iter()
        .map(|r| ((r.model_id.clone(), r.request.id), r.request.input.clone()))
        .collect();
    for c in &baseline.serve.completed {
        let input = &by_id[&(c.model_id.clone(), c.completed.id)];
        let expected = match c.model_id.as_str() {
            "small" => small.matvec(input),
            _ => large.matvec(input),
        };
        assert_eq!(
            c.completed.output, expected,
            "{}/{}",
            c.model_id, c.completed.id
        );
    }
}

// The degenerate single-row batch on many workers, where most shards are
// empty: the executor's output is the integer kernel's, dequantized, and the
// kernel's batched counters are the per-row ones.
#[test]
fn executor_integer_stats_are_exact_on_tiny_batches() {
    let op: Arc<dyn CompressedLinear> =
        Arc::new(BlockPermDiagMatrix::random(12, 12, 4, &mut seeded_rng(77)));
    let q = Arc::new(QuantizedLinear::from_op(
        Arc::clone(&op),
        QScheme::calibrate(1.0, op.max_weight_abs(), 8.0),
    ));
    let x = [0.5f32; 12];
    let x_raw = q.quantize_input(&x);
    let (y_raw, stats_seq) = q.matmul_q(&x_raw, 1).unwrap();
    assert_eq!(stats_seq, q.matvec_q(&x_raw).unwrap().1);
    let exec = ParallelExecutor::new(8);
    let q_op: Arc<dyn CompressedLinear> = q.clone();
    let y_par = exec
        .matmul(&q_op, &BatchView::new(&x, 1, 12).unwrap())
        .unwrap();
    assert_eq!(y_par.row(0), q.dequantize_output(&y_raw));
    assert_ne!(
        stats_seq,
        QKernelStats::default(),
        "the kernel did real work"
    );
}

// 7. A batch whose flat length `batch · dim` does not fit a `usize` is a
// typed error at every batched entry point — not an overflow panic (debug
// builds) or a wrapped length that passes the check (release builds).
#[test]
fn batched_shape_checks_reject_length_overflow() {
    let huge = 1usize << 63;
    assert_eq!(
        BatchView::new(&[], huge, 2).unwrap_err(),
        FormatError::LengthOverflow {
            op: "BatchView::new",
            batch: huge,
            dim: 2
        }
    );
    let overflow =
        |r: Result<(), FormatError>| matches!(r, Err(FormatError::LengthOverflow { .. }));

    // A zero-width batch is valid at any size; `batch · out_dim` is not.
    let xs = BatchView::new(&[], huge, 0).unwrap();
    let ops: [Arc<dyn CompressedLinear>; 3] = [
        Arc::new(Matrix::zeros(4, 0)),
        Arc::new(BlockPermDiagMatrix::zeros(4, 0, 2, PermutationIndexing::Natural).unwrap()),
        Arc::new(CscMatrix::from_dense(&Matrix::zeros(4, 0))),
    ];
    for op in &ops {
        let label = op.label();
        assert!(
            overflow(op.matmul_into(&xs, &mut [], &mut Scratch::new())),
            "{label} matmul_into"
        );
        assert!(overflow(op.matmul(&xs).map(|_| ())), "{label} matmul");
        for workers in [1, 2] {
            let exec = ParallelExecutor::new(workers);
            let mut out = Matrix::zeros(0, 0);
            assert!(
                overflow(exec.matmul_into(op, &xs, &mut out)),
                "{label} on {workers} workers"
            );
        }
    }

    let q = Arc::new(QuantizedLinear::from_op(
        Arc::new(Matrix::zeros(4, 2)),
        QScheme::q3_12(),
    ));
    assert!(overflow(q.matmul_q(&[], huge).map(|_| ())), "matmul_q");
    assert!(
        overflow(
            q.matmul_q_into(&[], huge, &mut [], &mut QScratch::default())
                .map(|_| ())
        ),
        "matmul_q_into"
    );
}

//! Wall-clock kernel sweep: the optimised serving kernels against their
//! retained per-call baselines, and the permuted-diagonal kernel against
//! dense at the same shape, on real hardware time.
//!
//! Four points time a kernel family against its own retained baseline:
//!
//! * **circulant** — [`BlockCirculantMatrix::matvec_fft_into`] (precomputed
//!   `FftPlan` + cached weight spectra + reusable scratch) vs
//!   [`BlockCirculantMatrix::matvec_fft_percall`] (the old body: per-call
//!   twiddle recomputation and weight-row FFTs, fresh allocations).
//! * **pd_f32** — the index-free rotated-window PD kernel, batched through
//!   [`CompressedLinear::matmul_into`] on an arena, vs a per-row loop over
//!   [`BlockPermDiagMatrix::matvec_reference`] (the iterator-based column
//!   traversal with a fresh output per call).
//! * **q16_column_sparse** — the unrolled flat-accumulator
//!   [`QuantizedLinear::matmul_q_into`] vs a per-row loop over
//!   [`QuantizedLinear::matvec_q_reference`] (boxed `Accumulator24`s
//!   allocated per call).
//! * **dense_f32** — dense's register-tiled [`CompressedLinear::matmul_into`]
//!   at batch 1 (32 single-row calls, eight weight rows summed side by side)
//!   vs a per-row loop over `pd_tensor::Matrix::matvec`, the single
//!   dependent sum per output that the tile replaced.
//!
//! Five more quote PD against the strongest baselines at its shape, the same
//! operator stored dense or as CSC at PD's density, both sides through their
//! production `matmul_into` (dense runs its across-batch kernel, CSC its
//! cache-blocked one): PD over dense at p=8 and p=4 at the sweep's batch and
//! at p=4 at batch 1, and PD over CSC at p=4 at the sweep's batch and at
//! batch 1 (one single-row call per input).
//!
//! A tenth point times the checksum every block fault runs: the four-lane
//! [`crc32`] vs [`crc32_single_lane`], on a PD p=4 layer's weight record
//! (294,926 bytes at 512²) read in place inside a block-streamed container.
//!
//! Every pair is asserted **bit-identical** before timing, and the binary
//! then asserts each point's speedup floor: circulant ≥ 4x, pd_f32 and q16 ≥
//! 1.2x, dense_f32 ≥ 2x, PD over dense ≥ 4x (p=8) and ≥ 2x (p=4) at batch 32
//! and ≥ 3x (p=4) at batch 1, PD over CSC ≥ 4x at batch 32 and ≥ 2x at
//! batch 1, and the
//! four-lane CRC ≥ 0.6x (it reads 2.4–3.1x on a quiet 2-vCPU host but fell
//! to 1.0x while the other vCPU was busy: the lanes need load throughput
//! the other vCPU shares, the single lane waits on latency). Both
//! sides of a point are timed in alternation and the speedup is the median
//! of the per-pair ratios, so a shift in machine speed lands on both sides
//! alike. Unlike the tick-modeled sweeps, these numbers are
//! machine-dependent; the floors are set below what a 2-core release build
//! measures, with or without overflow checks. Results land in
//! `BENCH_wall.json` (override with `--out PATH`).
//!
//! Run: `cargo run --release -p permdnn-bench --bin wall_sweep [-- --full]`

use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use pd_tensor::init::seeded_rng;
use pd_tensor::Matrix;
use permdnn_bench::{
    assert_floor, full_run_requested, out_path, print_header, ratio, write_artifact,
};
use permdnn_circulant::{BlockCirculantMatrix, CirculantScratch};
use permdnn_core::format::{BatchView, CompressedLinear};
use permdnn_core::qlinear::{QScheme, QScratch, QuantizedLinear};
use permdnn_core::snapshot::{block_stream_snapshot, crc32, crc32_single_lane, read_block_index};
use permdnn_core::{BlockPermDiagMatrix, Scratch};
use permdnn_nn::layers::WeightFormat;
use permdnn_nn::MlpClassifier;
use permdnn_prune::CscMatrix;

struct WallPoint {
    workload: &'static str,
    /// What the reference side runs.
    baseline: &'static str,
    rows: usize,
    cols: usize,
    batch: usize,
    reps: usize,
    optimized_us: f64,
    reference_us: f64,
    speedup: f64,
    floor: f64,
}

/// Times `optimized` and `reference` in alternation over `reps` pairs (the
/// order flips every pair), after one untimed warm-up call of each that
/// populates scratch arenas and the cache. Returns the median wall time of
/// each side in microseconds and the median of the per-pair ratios
/// `reference / optimized`: both runs of a pair see the same machine state,
/// so a change of speed between pairs moves both sides alike.
fn paired_us(
    reps: usize,
    mut optimized: impl FnMut(),
    mut reference: impl FnMut(),
) -> (f64, f64, f64) {
    fn time_us(f: &mut impl FnMut()) -> f64 {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e6
    }
    fn median(mut samples: Vec<f64>) -> f64 {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    }
    optimized();
    reference();
    let (mut opt, mut refs, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..reps {
        let (o, r) = if i % 2 == 0 {
            let o = time_us(&mut optimized);
            (o, time_us(&mut reference))
        } else {
            let r = time_us(&mut reference);
            (time_us(&mut optimized), r)
        };
        opt.push(o);
        refs.push(r);
        ratios.push(r / o);
    }
    (median(opt), median(refs), median(ratios))
}

fn main() {
    let full = full_run_requested();
    let out_path = out_path("BENCH_wall.json");
    let (n, batch, reps) = if full {
        (1024usize, 64usize, 31usize)
    } else {
        (512, 32, 15)
    };

    print_header("Wall-clock kernel sweep: optimised vs baselines");
    println!("{n}x{n} operators, batch {batch}, median of {reps} timed pairs\n");
    println!(
        "{:<22} {:>6} {:>12} {:>12} {:>9}",
        "workload", "batch", "opt us", "ref us", "speedup"
    );

    let points = vec![
        circulant_point(n, batch, reps),
        pd_f32_point(n, batch, reps),
        q16_point(n, batch, reps),
        dense_f32_point(n, reps),
        pd_vs_point("pd_p8_vs_dense", Baseline::Dense, n, 8, batch, reps, 4.0),
        pd_vs_point("pd_p4_vs_dense", Baseline::Dense, n, 4, batch, reps, 2.0),
        pd_vs_point("pd_p4_vs_dense_b1", Baseline::Dense, n, 4, 1, reps, 3.0),
        pd_vs_point("pd_p4_vs_csc", Baseline::Csc, n, 4, batch, reps, 4.0),
        pd_vs_point("pd_p4_vs_csc_b1", Baseline::Csc, n, 4, 1, reps, 2.0),
        crc32_point(n, reps),
    ];

    for p in &points {
        println!(
            "{:<22} {:>6} {:>12.1} {:>12.1} {:>9}",
            p.workload,
            p.batch,
            p.optimized_us,
            p.reference_us,
            ratio(p.speedup)
        );
    }

    println!();
    for p in &points {
        assert_floor(&format!("{} speedup", p.workload), p.speedup, p.floor);
        println!(
            "  {} >= {:.1}x floor over {}: ok (outputs bit-identical)",
            p.workload, p.floor, p.baseline
        );
    }

    let json = render_json(&points);
    write_artifact(&out_path, &json);
}

/// Cached-spectra FFT path vs the per-call FFT path, one matvec per batch row.
fn circulant_point(n: usize, batch: usize, reps: usize) -> WallPoint {
    let k = 64;
    let w = BlockCirculantMatrix::random(n, n, k, &mut seeded_rng(11));
    let xs = inputs(n, batch, 12);

    // Bit-identity on every swept input before any timing.
    let mut scratch = CirculantScratch::default();
    let mut y = vec![0.0f32; n];
    for x in &xs {
        w.matvec_fft_into(x, &mut y, &mut scratch)
            .expect("power-of-two block size");
        let y_ref = w.matvec_fft_percall(x).expect("power-of-two block size");
        assert_eq!(y, y_ref, "circulant outputs must be bit-identical");
    }

    let (optimized_us, reference_us, speedup) = paired_us(
        reps,
        || {
            for x in &xs {
                w.matvec_fft_into(black_box(x), &mut y, &mut scratch)
                    .expect("checked above");
            }
            black_box(&y);
        },
        || {
            for x in &xs {
                black_box(w.matvec_fft_percall(black_box(x)).expect("checked above"));
            }
        },
    );

    WallPoint {
        workload: "circulant_fft",
        baseline: "per-call FFT matvec",
        rows: n,
        cols: n,
        batch,
        reps,
        optimized_us,
        reference_us,
        speedup,
        floor: 4.0,
    }
}

/// The batched index-free PD kernel vs a per-row reference-matvec loop.
fn pd_f32_point(n: usize, batch: usize, reps: usize) -> WallPoint {
    let p = 8;
    let w = BlockPermDiagMatrix::random(n, n, p, &mut seeded_rng(21));
    let xs_mat = batch_matrix(n, batch, 22);
    let xs = BatchView::from_matrix(&xs_mat);

    let mut scratch = Scratch::new();
    let mut out = vec![0.0f32; batch * n];
    w.matmul_into(&xs, &mut out, &mut scratch)
        .expect("dimensions match");
    let mut y_ref = vec![0.0f32; n];
    for (i, out_row) in out.chunks(n).enumerate() {
        w.matvec_reference(xs.row(i), &mut y_ref);
        assert_eq!(out_row, &y_ref[..], "PD f32 outputs must be bit-identical");
    }

    let (optimized_us, reference_us, speedup) = paired_us(
        reps,
        || {
            w.matmul_into(black_box(&xs), &mut out, &mut scratch)
                .expect("checked above");
            black_box(&out);
        },
        || {
            for i in 0..batch {
                let mut y = vec![0.0f32; n];
                w.matvec_reference(black_box(xs.row(i)), &mut y);
                black_box(&y);
            }
        },
    );

    WallPoint {
        workload: "pd_f32",
        baseline: "per-row matvec_reference",
        rows: n,
        cols: n,
        batch,
        reps,
        optimized_us,
        reference_us,
        speedup,
        floor: 1.2,
    }
}

/// Unrolled flat-accumulator i16 ColumnSparse kernel vs the boxed-accumulator
/// reference, including the datapath counters.
fn q16_point(n: usize, batch: usize, reps: usize) -> WallPoint {
    let p = 8;
    let op: Arc<dyn CompressedLinear> =
        Arc::new(BlockPermDiagMatrix::random(n, n, p, &mut seeded_rng(31)));
    let q = QuantizedLinear::from_op(
        Arc::clone(&op),
        QScheme::calibrate(1.0, op.max_weight_abs(), 8.0),
    );
    assert!(q.has_integer_kernel(), "PD quantizes to ColumnSparse");

    let xs_mat = batch_matrix(n, batch, 32);
    let mut xs_raw = Vec::with_capacity(batch * n);
    for i in 0..batch {
        xs_raw.extend(q.quantize_input(xs_mat.row(i)));
    }

    let mut scratch = QScratch::default();
    let mut out = vec![0i16; batch * n];
    let stats = q
        .matmul_q_into(&xs_raw, batch, &mut out, &mut scratch)
        .expect("dimensions match");
    let mut y_ref = vec![0i16; n];
    let mut stats_ref = permdnn_core::qlinear::QKernelStats::default();
    for (i, out_row) in out.chunks(n).enumerate() {
        let s = q
            .matvec_q_reference(&xs_raw[i * n..(i + 1) * n], &mut y_ref)
            .expect("dimensions match");
        stats_ref.merge(&s);
        assert_eq!(out_row, &y_ref[..], "i16 outputs must be bit-identical");
    }
    assert_eq!(stats, stats_ref, "datapath counters must match exactly");

    let (optimized_us, reference_us, speedup) = paired_us(
        reps,
        || {
            black_box(
                q.matmul_q_into(black_box(&xs_raw), batch, &mut out, &mut scratch)
                    .expect("checked above"),
            );
        },
        || {
            for i in 0..batch {
                let mut y = vec![0i16; n];
                black_box(
                    q.matvec_q_reference(black_box(&xs_raw[i * n..(i + 1) * n]), &mut y)
                        .expect("checked above"),
                );
            }
        },
    );

    WallPoint {
        workload: "q16_column_sparse",
        baseline: "per-row matvec_q_reference",
        rows: n,
        cols: n,
        batch,
        reps,
        optimized_us,
        reference_us,
        speedup,
        floor: 1.2,
    }
}

/// Dense's register tile at batch 1, through `matmul_into` on an arena (32
/// single-row calls, one per input, as a batch-1 server makes them), vs a
/// per-row loop over `pd_tensor::Matrix::matvec`, which sums each output in
/// one dependent chain and allocates a fresh output per call.
fn dense_f32_point(n: usize, reps: usize) -> WallPoint {
    let calls = 32;
    let w = batch_matrix(n, n, 61);
    let xs_mat = batch_matrix(n, calls, 62);
    let views: Vec<BatchView<'_>> = (0..calls)
        .map(|i| BatchView::new(xs_mat.row(i), 1, n).expect("one row of n inputs"))
        .collect();

    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let mut scratch = Scratch::new();
    let mut out = vec![0.0f32; n];
    for (i, xs) in views.iter().enumerate() {
        w.matmul_into(xs, &mut out, &mut scratch)
            .expect("dimensions match");
        assert_eq!(
            bits(&out),
            bits(&w.matvec(xs_mat.row(i))),
            "dense tile outputs must be bit-identical"
        );
    }

    let (optimized_us, reference_us, speedup) = paired_us(
        reps,
        || {
            for xs in &views {
                w.matmul_into(black_box(xs), &mut out, &mut scratch)
                    .expect("checked above");
            }
            black_box(&out);
        },
        || {
            for i in 0..calls {
                black_box(w.matvec(black_box(xs_mat.row(i))));
            }
        },
    );

    WallPoint {
        workload: "dense_f32",
        baseline: "per-row Matrix::matvec",
        rows: n,
        cols: n,
        batch: 1,
        reps,
        optimized_us,
        reference_us,
        speedup,
        floor: 2.0,
    }
}

/// The baselines PD is quoted against: the same operator stored dense, or
/// stored as CSC, which keeps exactly PD's non-zero weights and so has PD's
/// density.
#[derive(Clone, Copy)]
enum Baseline {
    Dense,
    Csc,
}

impl Baseline {
    fn label(self) -> &'static str {
        match self {
            Baseline::Dense => "dense matmul_into",
            Baseline::Csc => "CSC matmul_into",
        }
    }

    fn build(self, w: &BlockPermDiagMatrix) -> Box<dyn CompressedLinear> {
        match self {
            Baseline::Dense => Box::new(w.to_dense()),
            Baseline::Csc => Box::new(CscMatrix::from_dense(&w.to_dense())),
        }
    }
}

/// PD at block size `p` vs the same operator in `baseline`'s format, both
/// through their production `matmul_into` on an arena of their own. At
/// batch 1 each timed pass makes 32 single-row calls, one per input, as a
/// batch-1 server would.
fn pd_vs_point(
    workload: &'static str,
    baseline: Baseline,
    n: usize,
    p: usize,
    batch: usize,
    reps: usize,
    floor: f64,
) -> WallPoint {
    let w = BlockPermDiagMatrix::random(n, n, p, &mut seeded_rng(41));
    let base = baseline.build(&w);
    let calls = if batch == 1 { 32 } else { 1 };
    let xs_mat = batch_matrix(n, batch * calls, 42);
    let views: Vec<BatchView<'_>> = xs_mat
        .as_slice()
        .chunks(batch * n)
        .map(|rows| BatchView::new(rows, batch, n).expect("rows of n inputs"))
        .collect();

    // Dense adds the structural zeros too, but `w · x + (±0)` leaves every
    // running sum as it is; CSC skips zero inputs, where PD adds `q · (±0)`
    // to a sum that started at `+0.0`. Every output sums its terms in
    // ascending column order on all three, so they agree bit for bit.
    let (mut pd_scratch, mut base_scratch) = (Scratch::new(), Scratch::new());
    let mut out = vec![0.0f32; batch * n];
    let mut out_base = vec![0.0f32; batch * n];
    for xs in &views {
        w.matmul_into(xs, &mut out, &mut pd_scratch)
            .expect("dimensions match");
        base.matmul_into(xs, &mut out_base, &mut base_scratch)
            .expect("dimensions match");
        assert_eq!(
            out,
            out_base,
            "PD and {} outputs must be bit-identical",
            baseline.label()
        );
    }

    let (optimized_us, reference_us, speedup) = paired_us(
        reps,
        || {
            for xs in &views {
                w.matmul_into(black_box(xs), &mut out, &mut pd_scratch)
                    .expect("checked above");
            }
            black_box(&out);
        },
        || {
            for xs in &views {
                base.matmul_into(black_box(xs), &mut out_base, &mut base_scratch)
                    .expect("checked above");
            }
            black_box(&out_base);
        },
    );

    WallPoint {
        workload,
        baseline: baseline.label(),
        rows: n,
        cols: n,
        batch,
        reps,
        optimized_us,
        reference_us,
        speedup,
        floor,
    }
}

/// The four-lane `crc32` vs its single-lane loop on the payload a PD p=4
/// block fault checks: the first `n`x`n` layer's weight record of a frozen
/// MLP (294,926 bytes at 512²), read in place at its real, unaligned offset
/// inside the block-streamed container. One checksum per timed call.
fn crc32_point(n: usize, reps: usize) -> WallPoint {
    let model = MlpClassifier::new_frozen(
        n,
        &[n, n],
        10,
        WeightFormat::PermutedDiagonal { p: 4 },
        &mut seeded_rng(51),
    );
    let blocked = block_stream_snapshot(&model.save().expect("frozen MLPs snapshot"))
        .expect("MLP snapshots block-stream");
    let block = &read_block_index(&blocked)
        .expect("a valid block index")
        .blocks[0];
    let payload = &blocked[block.offset as usize..(block.offset + block.len) as usize];
    assert_eq!(
        crc32(payload),
        crc32_single_lane(payload),
        "four-lane and single-lane CRCs must be equal"
    );

    let (optimized_us, reference_us, speedup) = paired_us(
        reps,
        || {
            black_box(crc32(black_box(payload)));
        },
        || {
            black_box(crc32_single_lane(black_box(payload)));
        },
    );

    WallPoint {
        workload: "crc32_pd_p4_block",
        baseline: "single-lane crc32",
        rows: n,
        cols: n,
        batch: 1,
        reps,
        optimized_us,
        reference_us,
        speedup,
        floor: 0.6,
    }
}

fn inputs(dim: usize, batch: usize, seed: u64) -> Vec<Vec<f32>> {
    let m = batch_matrix(dim, batch, seed);
    (0..batch).map(|i| m.row(i).to_vec()).collect()
}

fn batch_matrix(dim: usize, batch: usize, seed: u64) -> Matrix {
    pd_tensor::init::xavier_uniform(&mut seeded_rng(seed), batch, dim)
}

fn render_json(points: &[WallPoint]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"wall_sweep\",");
    let _ = writeln!(
        s,
        "  \"note\": \"wall-clock medians over alternating optimized/reference pairs, machine-dependent; speedup is the median per-pair ratio; outputs asserted bit-identical and speedups asserted >= floor before this file is written\","
    );
    s.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"workload\": \"{}\", \"baseline\": \"{}\", \"rows\": {}, \"cols\": {}, \
             \"batch\": {}, \"reps\": {}, \"optimized_us\": {:.1}, \"reference_us\": {:.1}, \
             \"speedup\": {:.2}, \"floor\": {:.1}, \"bit_identical\": true}}",
            p.workload,
            p.baseline,
            p.rows,
            p.cols,
            p.batch,
            p.reps,
            p.optimized_us,
            p.reference_us,
            p.speedup,
            p.floor
        );
        s.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

//! Allocation pins for the batched forward hot path.
//!
//! A counting global allocator counts what the calling thread allocates, so
//! the harness's other threads cannot change a count. After warm-up, each
//! forward below must allocate nothing:
//!
//! 1. a frozen MLP of every format the wall-clock benchmark serves, through
//!    `BatchModel::forward_batch_into` (the stage loop), at batch 1 and 32 on
//!    a one-worker executor and at batch 1 on a two-worker one (which runs
//!    the batch inline);
//! 2. the same MLPs block-streamed, with every block resident, through
//!    `PagedModel::forward_into` (the entry the registry's paged forward
//!    uses);
//! 3. `SingleLayerModel`.
//!
//! What still allocates is out of scope here: a sharded call's dispatch
//! (batch > 1 on more than one worker) and the per-request output vectors
//! the serving loops hand back.
//!
//! This file holds the workspace's only `unsafe` code: the `GlobalAlloc`
//! impl, which forwards every call to `System`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use permdnn::core::format::{BatchView, FormatError};
use permdnn::core::snapshot::{block_stream_snapshot, load_block};
use permdnn::nn::layers::WeightFormat;
use permdnn::nn::snapshot::{codec, load_paged_model};
use permdnn::nn::MlpClassifier;
use permdnn::runtime::{BatchModel, ParallelExecutor, SingleLayerModel};
use permdnn::tensor::init::{seeded_rng, xavier_uniform};
use permdnn::tensor::Matrix;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialised thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes per call of `f`, over three calls
/// after two warm-up calls.
fn allocations_per_call(mut f: impl FnMut()) -> u64 {
    f();
    f();
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..3 {
        f();
    }
    (ALLOCATIONS.with(Cell::get) - before) / 3
}

#[test]
fn the_counter_sees_this_threads_allocations() {
    let n = allocations_per_call(|| {
        std::hint::black_box(vec![0u8; 16]);
    });
    assert_eq!(n, 1);
}

const IN_DIM: usize = 64;
const CLASSES: usize = 10;

/// One frozen MLP per format the wall-clock benchmark serves, at a small
/// shape.
fn models() -> Vec<(&'static str, MlpClassifier)> {
    let rng = &mut seeded_rng(0xA110C);
    let mut mlp = |format| MlpClassifier::new_frozen(IN_DIM, &[64, 64], CLASSES, format, rng);
    let calibration: Vec<Vec<f32>> = (0..16)
        .map(|i| {
            (0..IN_DIM)
                .map(|j| ((i * IN_DIM + j) as f32 * 0.37).sin())
                .collect()
        })
        .collect();
    vec![
        ("pd_p8", mlp(WeightFormat::PermutedDiagonal { p: 8 })),
        ("pd_p4", mlp(WeightFormat::PermutedDiagonal { p: 4 })),
        ("csc_p4", mlp(WeightFormat::UnstructuredSparse { p: 4 })),
        ("dense", mlp(WeightFormat::Dense)),
        ("circulant_k8", mlp(WeightFormat::Circulant { k: 8 })),
        (
            "shared_pd_p4",
            mlp(WeightFormat::SharedPermutedDiagonal { p: 4, tag_bits: 4 }),
        ),
        (
            "q16_pd_p8",
            mlp(WeightFormat::PermutedDiagonal { p: 8 })
                .quantize(&calibration)
                .0,
        ),
    ]
}

/// The executor configurations every model is pinned on: (workers, batch).
const RUNS: [(usize, usize); 3] = [(1, 1), (1, 32), (2, 1)];

fn inputs() -> Matrix {
    xavier_uniform(&mut seeded_rng(0xB0B), 32, IN_DIM)
}

#[test]
fn whole_loaded_mlps_allocate_nothing_per_batch() {
    let xs_mat = inputs();
    for (label, model) in models() {
        for (workers, batch) in RUNS {
            let exec = ParallelExecutor::new(workers);
            let xs = BatchView::new(&xs_mat.as_slice()[..batch * IN_DIM], batch, IN_DIM).unwrap();
            let mut out = Matrix::zeros(0, 0);
            let n =
                allocations_per_call(|| model.forward_batch_into(&xs, &exec, &mut out).unwrap());
            assert_eq!(
                n, 0,
                "{label}: {n} allocations per batch at {workers} workers, batch {batch}"
            );
            assert_eq!(out.shape(), (batch, CLASSES));
        }
    }
}

#[test]
fn resident_paged_mlps_allocate_nothing_per_batch() {
    let xs_mat = inputs();
    let codec = codec();
    for (label, model) in models() {
        let blocked = block_stream_snapshot(&model.save().unwrap()).unwrap();
        let paged = load_paged_model(&blocked).unwrap();
        for s in 0..paged.stages() {
            if let Some((block, _)) = paged.stage_block(s) {
                paged
                    .install(s, load_block(&blocked, block, &codec).unwrap())
                    .unwrap();
            }
        }
        for (workers, batch) in RUNS {
            let exec = ParallelExecutor::new(workers);
            let xs = BatchView::new(&xs_mat.as_slice()[..batch * IN_DIM], batch, IN_DIM).unwrap();
            let mut out = Matrix::zeros(0, 0);
            let resident = |_| Ok::<(), FormatError>(());
            let n = allocations_per_call(|| {
                paged.forward_into(&xs, &exec, &mut out, resident).unwrap()
            });
            assert_eq!(
                n, 0,
                "paged {label}: {n} allocations per batch at {workers} workers, batch {batch}"
            );
            let whole = model.forward_batch_parallel(&xs, &exec).unwrap();
            let bits =
                |m: &Matrix| -> Vec<u32> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
            assert_eq!(bits(&out), bits(&whole), "paged {label} matches whole");
        }
    }
}

#[test]
fn single_layer_model_allocates_nothing_per_batch() {
    let xs_mat = inputs();
    let rng = &mut seeded_rng(0x51);
    for format in [
        WeightFormat::PermutedDiagonal { p: 8 },
        WeightFormat::UnstructuredSparse { p: 4 },
        WeightFormat::Dense,
    ] {
        let model = SingleLayerModel::new(Arc::from(format.build(32, IN_DIM, rng)));
        for (workers, batch) in RUNS {
            let exec = ParallelExecutor::new(workers);
            let xs = BatchView::new(&xs_mat.as_slice()[..batch * IN_DIM], batch, IN_DIM).unwrap();
            let mut out = Matrix::zeros(0, 0);
            let n =
                allocations_per_call(|| model.forward_batch_into(&xs, &exec, &mut out).unwrap());
            assert_eq!(
                n,
                0,
                "{}: {n} allocations per batch at {workers} workers, batch {batch}",
                format.label()
            );
        }
    }
}

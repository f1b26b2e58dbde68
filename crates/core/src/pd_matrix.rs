//! Block-permuted-diagonal weight matrices (Section III-A of the paper).

use pd_tensor::init::xavier_uniform;
use pd_tensor::Matrix;
use rand::Rng;

use crate::{BatchView, PdError, PermutedDiagonalBlock, Scratch};

/// How the per-block permutation parameters `k_l` are chosen (Section III-D).
///
/// The paper reports no task-performance difference between the two policies; the
/// `perm_indexing` experiment binary reproduces that ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PermutationIndexing {
    /// `k_l = l mod p` — the paper's default ("for a 4-by-16 block-permuted diagonal
    /// weight matrix with p = 4, k0..k3 are set as 0..3").
    #[default]
    Natural,
    /// `k_l` drawn uniformly at random from `0..p`.
    Random,
}

/// An `m × n` block-permuted-diagonal matrix with `p × p` permuted-diagonal blocks.
///
/// The matrix is tiled by `ceil(m/p) × ceil(n/p)` blocks (zero-padding the ragged edge,
/// footnote 3 of the paper). Block `l` (`l = block_row · n_block_cols + block_col`) has a
/// permutation parameter `k_l`, and its only non-zeros are at `(c, (c + k_l) mod p)`
/// within the block. Following Eqn. (1), entry `(i, j)` is
///
/// ```text
/// w_ij = q[l·p + c]   if (c + k_l) mod p == d,   else 0
/// ```
///
/// with `c = i mod p`, `d = j mod p`. Only the `q` vector (one value per block row-slot)
/// and the small `k_l` vector are stored: the compression ratio over a dense matrix is
/// exactly `p`, with no per-entry index storage at all. The kernel
/// (`CompressedLinear::matmul_into`, which `matvec_scratch` runs at batch 1) computes
/// every column from `(c + k_l) mod p` as the paper's PE does, so the decoded operator
/// holds nothing beyond `q` and `k_l`.
///
/// # Example
///
/// ```
/// use permdnn_core::{BlockPermDiagMatrix, PermutationIndexing};
///
/// let w = BlockPermDiagMatrix::zeros(8, 8, 4, PermutationIndexing::Natural).unwrap();
/// assert_eq!(w.compression_ratio(), 4.0);
/// assert_eq!(w.stored_weights(), 16);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPermDiagMatrix {
    rows: usize,
    cols: usize,
    p: usize,
    block_rows: usize,
    block_cols: usize,
    /// Permutation parameter `k_l` per block, indexed `l = block_row * block_cols + block_col`,
    /// at the snapshot's own `u16` width ([`MAX_BLOCK_SIZE`](Self::MAX_BLOCK_SIZE) bounds `p`).
    perms: Vec<u16>,
    /// Stored non-zero values `q`, indexed `l * p + c` where `c` is the row within block `l`.
    values: Vec<f32>,
}

/// The rotated-window kernel's input buffer, held in a [`Scratch`] slot, for
/// one chunk of `nb` batch rows laid out `[bc][b][2p]`: batch row `b`'s `p`
/// inputs of block column `bc` (zero-padded past `cols`) written twice in a
/// row, so its rotation `k` is the window `[(bc·nb + b)·2p + k ..][..p]` and
/// the chunk's `nb` windows of one block column are contiguous.
#[derive(Debug, Default)]
struct PdWindows(Vec<f32>);

impl BlockPermDiagMatrix {
    /// Largest supported block size: every `k_l < p` then fits the `u16` the
    /// matrix and its snapshot record hold it in.
    pub const MAX_BLOCK_SIZE: usize = u16::MAX as usize + 1;

    /// Creates a matrix from explicit permutation parameters and stored values.
    ///
    /// `perms.len()` must equal the number of blocks and `values.len()` must equal
    /// `num_blocks * p`.
    ///
    /// # Errors
    ///
    /// Returns [`PdError`] if `p == 0`, `p > MAX_BLOCK_SIZE`, any `k_l >= p`, or the
    /// slices have wrong lengths.
    pub fn new(
        rows: usize,
        cols: usize,
        p: usize,
        perms: Vec<usize>,
        values: Vec<f32>,
    ) -> Result<Self, PdError> {
        if p == 0 {
            return Err(PdError::ZeroBlockSize);
        }
        if p > Self::MAX_BLOCK_SIZE {
            return Err(PdError::BlockSizeTooLarge {
                p,
                max: Self::MAX_BLOCK_SIZE,
            });
        }
        let block_rows = rows.div_ceil(p);
        let block_cols = cols.div_ceil(p);
        let nblocks = block_rows * block_cols;
        if perms.len() != nblocks {
            return Err(PdError::PermutationCountMismatch {
                got: perms.len(),
                expected: nblocks,
            });
        }
        if let Some(&k) = perms.iter().find(|&&k| k >= p) {
            return Err(PdError::InvalidPermutation { k, p });
        }
        if values.len() != nblocks * p {
            return Err(PdError::ValueCountMismatch {
                got: values.len(),
                expected: nblocks * p,
            });
        }
        // Lossless: every k < p <= MAX_BLOCK_SIZE.
        let perms = perms.into_iter().map(|k| k as u16).collect();
        Ok(BlockPermDiagMatrix {
            rows,
            cols,
            p,
            block_rows,
            block_cols,
            perms,
            values,
        })
    }

    /// Creates an all-zero matrix with permutation parameters chosen by `indexing`.
    ///
    /// # Errors
    ///
    /// Returns [`PdError::ZeroBlockSize`] if `p == 0`.
    pub fn zeros(
        rows: usize,
        cols: usize,
        p: usize,
        indexing: PermutationIndexing,
    ) -> Result<Self, PdError> {
        if p == 0 {
            return Err(PdError::ZeroBlockSize);
        }
        let block_rows = rows.div_ceil(p);
        let block_cols = cols.div_ceil(p);
        let nblocks = block_rows * block_cols;
        let perms = match indexing {
            PermutationIndexing::Natural => (0..nblocks).map(|l| l % p).collect(),
            PermutationIndexing::Random => vec![0; nblocks],
        };
        Self::new(rows, cols, p, perms, vec![0.0; nblocks * p])
    }

    /// Creates a randomly initialised matrix (Xavier-uniform values over the *stored*
    /// weights, natural permutation indexing).
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` or `p > MAX_BLOCK_SIZE`.
    pub fn random(rows: usize, cols: usize, p: usize, rng: &mut impl Rng) -> Self {
        Self::random_with_indexing(rows, cols, p, PermutationIndexing::Natural, rng)
    }

    /// Creates a randomly initialised matrix with the requested permutation indexing.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` or `p > MAX_BLOCK_SIZE`.
    pub fn random_with_indexing(
        rows: usize,
        cols: usize,
        p: usize,
        indexing: PermutationIndexing,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(p > 0, "block size p must be non-zero");
        assert!(
            p <= Self::MAX_BLOCK_SIZE,
            "block size {p} exceeds {}",
            Self::MAX_BLOCK_SIZE
        );
        let block_rows = rows.div_ceil(p);
        let block_cols = cols.div_ceil(p);
        let nblocks = block_rows * block_cols;
        let perms: Vec<usize> = match indexing {
            PermutationIndexing::Natural => (0..nblocks).map(|l| l % p).collect(),
            PermutationIndexing::Random => (0..nblocks).map(|_| rng.gen_range(0..p)).collect(),
        };
        // Initialise with the variance the *equivalent dense layer* would use so that
        // activations keep a comparable scale despite the sparsity (the effective fan-in
        // per output is cols / p).
        let init = xavier_uniform(rng, 1, nblocks * p);
        let scale = (p as f32).sqrt();
        let values = init.as_slice().iter().map(|v| v * scale).collect();
        Self::new(rows, cols, p, perms, values).expect("constructed dimensions are consistent")
    }

    /// Logical number of rows `m`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical number of columns `n`.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Block size `p` (equal to the compression ratio).
    pub fn p(&self) -> usize {
        self.p
    }

    /// Number of block rows (`ceil(m / p)`).
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Number of block columns (`ceil(n / p)`).
    pub fn block_cols(&self) -> usize {
        self.block_cols
    }

    /// Number of `p × p` blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_rows * self.block_cols
    }

    /// The per-block permutation parameters `k_l`.
    pub fn perms(&self) -> &[u16] {
        &self.perms
    }

    /// The stored non-zero values `q` (including padded slots for ragged edges).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Mutable access to the stored non-zero values.
    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.values
    }

    /// Number of stored weights (`num_blocks * p`, i.e. `⌈m/p⌉·⌈n/p⌉·p`).
    pub fn stored_weights(&self) -> usize {
        self.values.len()
    }

    /// Compression ratio versus the dense `m × n` matrix, counting stored weights.
    ///
    /// For dimensions divisible by `p` this is exactly `p`.
    pub fn compression_ratio(&self) -> f64 {
        (self.rows * self.cols) as f64 / self.stored_weights() as f64
    }

    /// The permutation parameter of the block containing global entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is out of bounds.
    pub fn perm_at(&self, i: usize, j: usize) -> usize {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        let l = (i / self.p) * self.block_cols + (j / self.p);
        self.perm(l)
    }

    /// The permutation parameter `k_l` of block `l`, widened for index arithmetic.
    fn perm(&self, l: usize) -> usize {
        usize::from(self.perms[l])
    }

    /// Entry `(i, j)` following Eqn. (1).
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is out of bounds.
    pub fn entry(&self, i: usize, j: usize) -> f32 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        let c = i % self.p;
        let d = j % self.p;
        let l = (i / self.p) * self.block_cols + (j / self.p);
        if (c + self.perm(l)) % self.p == d {
            self.values[l * self.p + c]
        } else {
            0.0
        }
    }

    /// The stored value slot for block `(block_row, block_col)` and row-within-block `c`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn value_at(&self, block_row: usize, block_col: usize, c: usize) -> f32 {
        self.values[self.value_index(block_row, block_col, c)]
    }

    /// Mutable reference to the stored value slot (see [`value_at`](Self::value_at)).
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn value_at_mut(&mut self, block_row: usize, block_col: usize, c: usize) -> &mut f32 {
        let idx = self.value_index(block_row, block_col, c);
        &mut self.values[idx]
    }

    /// Flat index into [`values`](Self::values) for `(block_row, block_col, c)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn value_index(&self, block_row: usize, block_col: usize, c: usize) -> usize {
        assert!(
            block_row < self.block_rows && block_col < self.block_cols && c < self.p,
            "block coordinate ({block_row},{block_col},{c}) out of range"
        );
        (block_row * self.block_cols + block_col) * self.p + c
    }

    /// Extracts block `(block_row, block_col)` as a [`PermutedDiagonalBlock`].
    ///
    /// # Panics
    ///
    /// Panics if the block coordinates are out of range.
    pub fn block(&self, block_row: usize, block_col: usize) -> PermutedDiagonalBlock {
        assert!(
            block_row < self.block_rows && block_col < self.block_cols,
            "block ({block_row},{block_col}) out of range"
        );
        let l = block_row * self.block_cols + block_col;
        let values = self.values[l * self.p..(l + 1) * self.p].to_vec();
        PermutedDiagonalBlock::new(values, self.perm(l))
            .expect("block invariants hold by construction")
    }

    /// Expands into a dense [`Matrix`] (zero everywhere off the permuted diagonals).
    pub fn to_dense(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| self.entry(i, j))
    }

    /// Builds a block-permuted-diagonal matrix from a dense matrix that already has the
    /// structure (every non-zero sits on the permuted diagonal implied by `perms`).
    ///
    /// Use [`crate::approx::pd_approximate`] instead when the dense matrix is arbitrary
    /// and you want the l2-optimal projection.
    ///
    /// # Errors
    ///
    /// Returns [`PdError::NotPermutedDiagonal`] if a non-zero lies off the permuted
    /// diagonal, plus the usual construction errors.
    pub fn from_dense_exact(dense: &Matrix, p: usize, perms: Vec<usize>) -> Result<Self, PdError> {
        let (rows, cols) = dense.shape();
        let mut out = Self::new(
            rows,
            cols,
            p,
            perms,
            vec![0.0; rows.div_ceil(p) * cols.div_ceil(p) * p],
        )?;
        for i in 0..rows {
            for j in 0..cols {
                let v = dense[(i, j)];
                if v == 0.0 {
                    continue;
                }
                let c = i % p;
                let d = j % p;
                let l = (i / p) * out.block_cols + (j / p);
                if (c + out.perm(l)) % p == d {
                    out.values[l * p + c] = v;
                } else {
                    return Err(PdError::NotPermutedDiagonal { row: i, col: j });
                }
            }
        }
        Ok(out)
    }

    /// Number of structurally non-zero entries within the logical `m × n` bounds.
    pub fn structural_nonzeros(&self) -> usize {
        let mut count = 0;
        for br in 0..self.block_rows {
            for bc in 0..self.block_cols {
                let l = br * self.block_cols + bc;
                for c in 0..self.p {
                    let i = br * self.p + c;
                    let j = bc * self.p + (c + self.perm(l)) % self.p;
                    if i < self.rows && j < self.cols {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    /// Number of structural non-zeros in each row — constant (`block_cols`) for interior
    /// rows, which is the even-distribution property that eliminates load imbalance
    /// (Section V-D).
    pub fn row_nonzero_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.rows];
        for br in 0..self.block_rows {
            for bc in 0..self.block_cols {
                let l = br * self.block_cols + bc;
                for c in 0..self.p {
                    let i = br * self.p + c;
                    let j = bc * self.p + (c + self.perm(l)) % self.p;
                    if i < self.rows && j < self.cols {
                        counts[i] += 1;
                    }
                }
            }
        }
        counts
    }

    /// Number of structural non-zeros in each column (constant for interior columns).
    pub fn col_nonzero_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.cols];
        for br in 0..self.block_rows {
            for bc in 0..self.block_cols {
                let l = br * self.block_cols + bc;
                for c in 0..self.p {
                    let i = br * self.p + c;
                    let j = bc * self.p + (c + self.perm(l)) % self.p;
                    if i < self.rows && j < self.cols {
                        counts[j] += 1;
                    }
                }
            }
        }
        counts
    }

    /// Applies `f` to every stored weight (used for quantization and weight sharing).
    pub fn map_values_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.values {
            *v = f(*v);
        }
    }

    /// For column `j`, iterates over the `(row, stored-value-index)` pairs of the
    /// structural non-zeros in that column, in increasing row order.
    ///
    /// This is exactly the set of `(row index, weight)` pairs the PERMDNN hardware fetches
    /// from one weight-SRAM row during column-wise processing (Fig. 8): one non-zero per
    /// block row, whose row index is recovered by the accumulation selector's modulo
    /// circuit rather than stored.
    pub fn column_nonzeros(&self, j: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        assert!(j < self.cols, "column {j} out of bounds ({})", self.cols);
        let d = j % self.p;
        let bc = j / self.p;
        let rows = self.rows;
        let p = self.p;
        let block_cols = self.block_cols;
        (0..self.block_rows).filter_map(move |br| {
            let l = br * block_cols + bc;
            let c = (d + p - self.perm(l)) % p;
            let i = br * p + c;
            if i < rows {
                Some((i, l * p + c))
            } else {
                None
            }
        })
    }

    /// The column-wise matvec, one structural non-zero at a time: for every
    /// non-zero input `x_j`, in ascending `j`, it walks
    /// [`column_nonzeros`](Self::column_nonzeros) and adds `q · x_j` to each
    /// output it reaches — the PE dataflow of Fig. 5, zero inputs skipped.
    ///
    /// This is the test oracle the production kernel
    /// (`CompressedLinear::matmul_into` and `matvec_scratch`) is bit-compared
    /// against (`tests/wall.rs`, `wall_sweep`): every output sums its block
    /// columns in the same ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn matvec_reference(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "input length mismatch");
        assert_eq!(y.len(), self.rows, "output length mismatch");
        y.fill(0.0);
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            for (i, value_idx) in self.column_nonzeros(j) {
                y[i] += self.values[value_idx] * xj;
            }
        }
    }

    /// The index-free "rotated-window" kernel: `out = W·x` for every row `x`
    /// of `xs`, from `perms` and `values` alone, with its input buffer drawn
    /// from `scratch`. `out` is `xs.batch() × rows`, row-major.
    ///
    /// Block `(br, bc)` contributes `q[l·p + c] · x[bc·p + (c + k_l) mod p]` to
    /// row `c` of block row `br`. The batch runs in chunks of batch rows; the
    /// `p` rotations of each row's block-column inputs are laid out once per
    /// chunk as length-`p` windows of the doubled block `[x_bc, x_bc]`
    /// ([`PdWindows`]), so each block is one contiguous length-`p` multiply-add
    /// per row and no `(c + k_l) mod p` is computed at all.
    ///
    /// For `p ∈ {2, 4, 8, 16}` the width is a const parameter and the
    /// accumulators stay in registers. A chunk is `32 / p` batch rows (halved
    /// while fewer rows are left), and each block's `q` and `k_l` are loaded
    /// once and multiply-added into all of the chunk's windows, the way the
    /// paper's PE applies one fetched weight-SRAM row to the broadcast input.
    /// A lone row runs two block rows at a time instead. Other block sizes run
    /// row by row at run-time width.
    ///
    /// Each output starts at `+0.0` and adds its block columns in ascending
    /// order, exactly as [`matvec_reference`](Self::matvec_reference) does, so
    /// the two are bit-identical for finite weights, whatever the chunk. Zero
    /// inputs are not skipped, which changes no bit: an accumulator that starts
    /// at `+0.0` is never `-0.0`, and adding `q · (±0)` leaves it as it is.
    /// Columns past `cols` read zero padding; rows past `rows` are not written.
    ///
    /// The caller checks `xs.dim() == cols` and `out.len() == xs.batch() · rows`.
    pub(crate) fn matmul_windows(
        &self,
        xs: &BatchView<'_>,
        out: &mut [f32],
        scratch: &mut Scratch,
    ) {
        let (m, p) = (self.rows, self.p);
        if m == 0 || self.block_cols == 0 {
            out.fill(0.0);
            return;
        }
        let nb_max = match p {
            2 | 4 | 8 | 16 => 32 / p,
            _ => 1,
        };
        let PdWindows(windows) = scratch.slot::<PdWindows>();
        let mut b0 = 0;
        while b0 < xs.batch() {
            let mut nb = nb_max;
            while nb > xs.batch() - b0 {
                nb /= 2;
            }
            windows.clear();
            windows.resize(self.block_cols * nb * 2 * p, 0.0);
            for b in 0..nb {
                let row_windows = windows.chunks_exact_mut(2 * p).skip(b).step_by(nb);
                for (w, xb) in row_windows.zip(xs.row(b0 + b).chunks(p)) {
                    w[..xb.len()].copy_from_slice(xb);
                    w[p..p + xb.len()].copy_from_slice(xb);
                }
            }
            let chunk = &mut out[b0 * m..(b0 + nb) * m];
            match p {
                2 => self.fixed_width::<2>(nb, windows, chunk),
                4 => self.fixed_width::<4>(nb, windows, chunk),
                8 => self.fixed_width::<8>(nb, windows, chunk),
                16 => self.fixed_width::<16>(nb, windows, chunk),
                _ => self.any_width(windows, chunk),
            }
            b0 += nb;
        }
    }

    /// The `[f32; P]`-accumulator path for one chunk of `nb` batch rows.
    fn fixed_width<const P: usize>(&self, nb: usize, windows: &[f32], out: &mut [f32]) {
        match nb {
            16 => self.window_tiles::<P, 16>(windows, out),
            8 => self.window_tiles::<P, 8>(windows, out),
            4 => self.window_tiles::<P, 4>(windows, out),
            2 => self.window_tiles::<P, 2>(windows, out),
            _ => self.window_row_pairs::<P>(windows, out),
        }
    }

    /// `NB` batch rows, one block row at a time through [`window_tile`].
    fn window_tiles<const P: usize, const NB: usize>(&self, windows: &[f32], out: &mut [f32]) {
        let m = self.rows;
        let q_rows = self.values.chunks_exact(self.block_cols * P);
        let k_rows = self.perms.chunks_exact(self.block_cols);
        for (r0, (q_row, k_row)) in (0..m).step_by(P).zip(q_rows.zip(k_rows)) {
            let tile = window_tile::<P, NB>(q_row, k_row, windows);
            let len = P.min(m - r0);
            for (y, acc) in out.chunks_exact_mut(m).zip(&tile) {
                y[r0..r0 + len].copy_from_slice(&acc[..len]);
            }
        }
    }

    /// A lone batch row. Block rows run two at a time, which gives the adder
    /// two independent accumulator chains; each output's own sum order is
    /// untouched.
    fn window_row_pairs<const P: usize>(&self, windows: &[f32], y: &mut [f32]) {
        let q_rows = self.values.chunks_exact(self.block_cols * P);
        let k_rows = self.perms.chunks_exact(self.block_cols);
        let mut rows = q_rows.zip(k_rows).zip(y.chunks_mut(P));
        while let Some(((qa, ka), ya)) = rows.next() {
            let Some(((qb, kb), yb)) = rows.next() else {
                let [acc] = window_tile::<P, 1>(qa, ka, windows);
                ya.copy_from_slice(&acc[..ya.len()]);
                break;
            };
            let (acc_a, acc_b) = window_row_pair::<P>([qa, qb], [ka, kb], windows);
            ya.copy_from_slice(&acc_a);
            yb.copy_from_slice(&acc_b[..yb.len()]);
        }
    }

    /// Any other block size, one batch row: the same loop at run-time width,
    /// accumulating straight into the (at most `p`) output rows of each block
    /// row.
    fn any_width(&self, windows: &[f32], y: &mut [f32]) {
        y.fill(0.0);
        let p = self.p;
        let q_rows = self.values.chunks_exact(self.block_cols * p);
        let k_rows = self.perms.chunks_exact(self.block_cols);
        for ((q_row, k_row), y_rows) in q_rows.zip(k_rows).zip(y.chunks_mut(p)) {
            for ((q, &k), w) in q_row
                .chunks_exact(p)
                .zip(k_row)
                .zip(windows.chunks_exact(2 * p))
            {
                let k = usize::from(k);
                for (acc, (&v, &xv)) in y_rows.iter_mut().zip(q.iter().zip(&w[k..k + p])) {
                    *acc += v * xv;
                }
            }
        }
    }
}

/// One block row of the fixed-width path for `NB` batch rows: `q_row` and
/// `k_row` are its stored values and permutation parameters, `windows` the
/// chunk's doubled input blocks laid out `[bc][b][2P]`. Each block's `q` and
/// `k_l` are loaded once and multiply-added into all `NB` rows' windows.
#[inline(always)]
fn window_tile<const P: usize, const NB: usize>(
    q_row: &[f32],
    k_row: &[u16],
    windows: &[f32],
) -> [[f32; P]; NB] {
    let mut tile = [[0.0f32; P]; NB];
    for ((q, &k), w) in q_row
        .chunks_exact(P)
        .zip(k_row)
        .zip(windows.chunks_exact(NB * 2 * P))
    {
        for (acc, w) in tile.iter_mut().zip(w.chunks_exact(2 * P)) {
            window_mac(acc, q, k, w);
        }
    }
    tile
}

/// Two block rows of the fixed-width path for a lone batch row, interleaved
/// block by block.
#[inline(always)]
fn window_row_pair<const P: usize>(
    q_rows: [&[f32]; 2],
    k_rows: [&[u16]; 2],
    windows: &[f32],
) -> ([f32; P], [f32; P]) {
    let (mut acc_a, mut acc_b) = ([0.0f32; P], [0.0f32; P]);
    let a = q_rows[0].chunks_exact(P).zip(k_rows[0]);
    let b = q_rows[1].chunks_exact(P).zip(k_rows[1]);
    for (((qa, &ka), (qb, &kb)), w) in a.zip(b).zip(windows.chunks_exact(2 * P)) {
        window_mac(&mut acc_a, qa, ka, w);
        window_mac(&mut acc_b, qb, kb, w);
    }
    (acc_a, acc_b)
}

/// `acc[c] += q[c] · w[k + c]` for `c in 0..P`: one block's contribution,
/// read from its block column's doubled inputs `w` (length `2P`).
#[inline(always)]
fn window_mac<const P: usize>(acc: &mut [f32; P], q: &[f32], k: u16, w: &[f32]) {
    let q: &[f32; P] = q.try_into().expect("P values per block");
    // k < P already; masking with P - 1 (P is a power of two) lets the
    // compiler see that the window is in bounds.
    let k = usize::from(k) & (P - 1);
    let win: &[f32; P] = w[k..k + P]
        .try_into()
        .expect("window inside the doubled block");
    for c in 0..P {
        acc[c] += q[c] * win[c];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_tensor::init::seeded_rng;

    fn sample(rows: usize, cols: usize, p: usize) -> BlockPermDiagMatrix {
        BlockPermDiagMatrix::random(rows, cols, p, &mut seeded_rng(17))
    }

    #[test]
    fn construction_validation() {
        assert!(matches!(
            BlockPermDiagMatrix::new(4, 4, 0, vec![], vec![]),
            Err(PdError::ZeroBlockSize)
        ));
        assert!(matches!(
            BlockPermDiagMatrix::new(4, 4, 2, vec![0, 1, 2, 0], vec![0.0; 8]),
            Err(PdError::InvalidPermutation { .. })
        ));
        assert!(matches!(
            BlockPermDiagMatrix::new(4, 4, 2, vec![0, 1, 0], vec![0.0; 8]),
            Err(PdError::PermutationCountMismatch { .. })
        ));
        assert!(matches!(
            BlockPermDiagMatrix::new(4, 4, 2, vec![0, 1, 0, 1], vec![0.0; 7]),
            Err(PdError::ValueCountMismatch { .. })
        ));
        assert!(BlockPermDiagMatrix::new(4, 4, 2, vec![0, 1, 0, 1], vec![0.0; 8]).is_ok());
    }

    #[test]
    fn block_size_is_bounded_by_the_u16_permutation_width() {
        let max = BlockPermDiagMatrix::MAX_BLOCK_SIZE;
        assert_eq!(max, 65536);
        assert_eq!(
            BlockPermDiagMatrix::new(1, 1, max + 1, vec![0], vec![0.0; max + 1]),
            Err(PdError::BlockSizeTooLarge { p: max + 1, max })
        );
        let w = BlockPermDiagMatrix::new(1, 1, max, vec![max - 1], vec![0.0; max]).unwrap();
        assert_eq!(w.perms(), &[u16::MAX]);
    }

    #[test]
    fn decoded_operator_is_about_its_snapshot_record() {
        // Nothing beyond q and k_l is held: at 512² the decoded values and
        // perms stay within 1.15x the snapshot record's bytes.
        for p in [2, 4, 8] {
            let w = sample(512, 512, p);
            let decoded = std::mem::size_of_val(w.values()) + std::mem::size_of_val(w.perms());
            let record = crate::snapshot::save_tensor(&w).unwrap().len();
            assert!(
                decoded as f64 <= 1.15 * record as f64,
                "p={p}: {decoded} B decoded for a {record} B record"
            );
        }
    }

    #[test]
    fn natural_indexing_assigns_l_mod_p() {
        let w = BlockPermDiagMatrix::zeros(8, 16, 4, PermutationIndexing::Natural).unwrap();
        // 2 block rows x 4 block cols = 8 blocks; k_l = l mod 4.
        assert_eq!(w.perms(), &[0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn entry_matches_eqn1_structure() {
        let w = sample(8, 8, 4);
        for i in 0..8 {
            for j in 0..8 {
                let c = i % 4;
                let d = j % 4;
                let k = w.perm_at(i, j);
                let v = w.entry(i, j);
                if (c + k) % 4 == d {
                    // On the permuted diagonal: the stored value (may be any float).
                    assert_eq!(v, w.value_at(i / 4, j / 4, c));
                } else {
                    assert_eq!(v, 0.0, "off-diagonal entry ({i},{j}) must be zero");
                }
            }
        }
    }

    #[test]
    fn dense_roundtrip_exact() {
        let w = sample(12, 20, 4);
        let dense = w.to_dense();
        let perms = w.perms().iter().map(|&k| usize::from(k)).collect();
        let back = BlockPermDiagMatrix::from_dense_exact(&dense, 4, perms).unwrap();
        assert_eq!(back.to_dense(), dense);
    }

    #[test]
    fn from_dense_exact_rejects_off_diagonal() {
        let mut dense = sample(8, 8, 4).to_dense();
        let perms = sample(8, 8, 4)
            .perms()
            .iter()
            .map(|&k| usize::from(k))
            .collect();
        // Find a structurally-zero position and poke a value there.
        let w = sample(8, 8, 4);
        'outer: for i in 0..8 {
            for j in 0..8 {
                if w.entry(i, j) == 0.0 {
                    dense[(i, j)] = 1.0;
                    break 'outer;
                }
            }
        }
        assert!(matches!(
            BlockPermDiagMatrix::from_dense_exact(&dense, 4, perms),
            Err(PdError::NotPermutedDiagonal { .. })
        ));
    }

    #[test]
    fn compression_ratio_is_p_for_divisible_dims() {
        let w = sample(20, 40, 5);
        assert_eq!(w.stored_weights(), 20 * 40 / 5);
        assert!((w.compression_ratio() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn compression_accounts_for_padding() {
        // 10x10 with p=4 pads to 12x12: 3x3 blocks x 4 = 36 stored weights.
        let w = BlockPermDiagMatrix::zeros(10, 10, 4, PermutationIndexing::Natural).unwrap();
        assert_eq!(w.stored_weights(), 36);
        assert!(w.compression_ratio() < 4.0);
    }

    #[test]
    fn row_and_col_nonzeros_are_balanced() {
        let w = sample(16, 32, 4);
        let rows = w.row_nonzero_counts();
        let cols = w.col_nonzero_counts();
        assert!(rows.iter().all(|&c| c == 32 / 4));
        assert!(cols.iter().all(|&c| c == 16 / 4));
        assert_eq!(w.structural_nonzeros(), 16 * 32 / 4);
    }

    #[test]
    fn column_nonzeros_match_dense_column() {
        let w = sample(12, 8, 4);
        let dense = w.to_dense();
        for j in 0..8 {
            let from_iter: Vec<usize> = w.column_nonzeros(j).map(|(i, _)| i).collect();
            let from_dense: Vec<usize> = (0..12).filter(|&i| dense[(i, j)] != 0.0).collect();
            // Structural non-zeros include slots whose stored value may be 0.0; the dense
            // non-zeros must be a subset, and with random init they almost surely match.
            for i in &from_dense {
                assert!(from_iter.contains(i), "col {j} row {i} missing");
            }
            assert_eq!(from_iter.len(), 3, "one non-zero per block row");
            // Values fetched through the stored-value index must match the dense entries.
            for (i, vi) in w.column_nonzeros(j) {
                assert_eq!(w.values()[vi], dense[(i, j)]);
            }
        }
    }

    #[test]
    fn random_indexing_uses_varied_perms() {
        let w = BlockPermDiagMatrix::random_with_indexing(
            64,
            64,
            8,
            PermutationIndexing::Random,
            &mut seeded_rng(3),
        );
        let distinct: std::collections::HashSet<_> = w.perms().iter().copied().collect();
        assert!(distinct.len() > 1, "random indexing should vary k_l");
        assert!(w.perms().iter().all(|&k| k < 8));
    }

    #[test]
    fn map_values_in_place_applies_everywhere() {
        let mut w = sample(8, 8, 2);
        w.map_values_in_place(|_| 1.5);
        assert!(w.values().iter().all(|&v| v == 1.5));
        assert_eq!(w.entry(0, w.perm_at(0, 0)), 1.5);
    }

    #[test]
    fn block_extraction_matches_dense_block() {
        let w = sample(8, 12, 4);
        let dense = w.to_dense();
        for br in 0..2 {
            for bc in 0..3 {
                let blk = w.block(br, bc);
                let dense_blk = dense.block(br, bc, 4);
                assert!(blk.to_dense().approx_eq(&dense_blk, 0.0));
            }
        }
    }
}

//! Forward-propagation kernels for block-permuted-diagonal matrices (Section III-B).
//!
//! Two functionally identical kernels are provided:
//!
//! * [`matvec`] / [`BlockPermDiagMatrix::matvec`] — the mathematically direct row-oriented
//!   evaluation of `a_i = Σ_g w_ij x_j` with `j = ((i + k_l) mod p) + g·p`.
//! * [`matvec_column_wise`] — the column-wise, input-zero-skipping order the PERMDNN
//!   hardware uses (Fig. 5): for every *non-zero* `x_j`, broadcast it to all PEs and
//!   accumulate `w_j · x_j` into the output registers. Columns whose activation is zero
//!   are skipped entirely, which is where the architecture's dynamic-sparsity savings
//!   come from.
//!
//! Both kernels perform `m · n / p` multiplications in the worst (fully dense input) case,
//! versus `m · n` for the dense layer — the `p ×` computation reduction of the paper.

use crate::{BlockPermDiagMatrix, PdError};

/// Row-oriented forward propagation `a = W·x` (Eqn. in Section III-B).
///
/// # Errors
///
/// Returns [`PdError::DimensionMismatch`] if `x.len() != w.cols()`.
pub fn matvec(w: &BlockPermDiagMatrix, x: &[f32]) -> Result<Vec<f32>, PdError> {
    if x.len() != w.cols() {
        return Err(PdError::DimensionMismatch {
            op: "matvec",
            expected: w.cols(),
            got: x.len(),
        });
    }
    let p = w.p();
    let block_cols = w.block_cols();
    let mut a = vec![0.0f32; w.rows()];
    #[allow(clippy::needless_range_loop)] // direct rendering of the Section III-B index math
    for i in 0..w.rows() {
        let c = i % p;
        let br = i / p;
        let mut acc = 0.0f32;
        for g in 0..block_cols {
            let l = br * block_cols + g;
            let k = usize::from(w.perms()[l]);
            let j = g * p + (c + k) % p;
            if j < w.cols() {
                acc += w.values()[l * p + c] * x[j];
            }
        }
        a[i] = acc;
    }
    Ok(a)
}

/// Column-wise forward propagation with input zero-skipping (the hardware dataflow of
/// Fig. 5).
///
/// Returns the output vector together with the number of columns actually processed
/// (i.e. the number of non-zero input activations) — the quantity that determines the
/// PERMDNN engine's cycle count.
///
/// # Errors
///
/// Returns [`PdError::DimensionMismatch`] if `x.len() != w.cols()`.
pub fn matvec_column_wise(
    w: &BlockPermDiagMatrix,
    x: &[f32],
) -> Result<(Vec<f32>, usize), PdError> {
    if x.len() != w.cols() {
        return Err(PdError::DimensionMismatch {
            op: "matvec_column_wise",
            expected: w.cols(),
            got: x.len(),
        });
    }
    let mut a = vec![0.0f32; w.rows()];
    let mut processed_columns = 0usize;
    for (j, &xj) in x.iter().enumerate() {
        if xj == 0.0 {
            continue; // zero-detector drops this activation before it reaches the PEs
        }
        processed_columns += 1;
        for (i, value_idx) in w.column_nonzeros(j) {
            a[i] += w.values()[value_idx] * xj;
        }
    }
    Ok((a, processed_columns))
}

/// Transposed product `y = Wᵀ·x`, the error back-propagation direction of Eqn. (3):
/// `∂J/∂x_j = Σ_g w_ij · ∂J/∂a_i` with `i = ((j + p − k_l) mod p) + g·p`.
///
/// # Errors
///
/// Returns [`PdError::DimensionMismatch`] if `x.len() != w.rows()`.
pub fn matvec_transposed(w: &BlockPermDiagMatrix, x: &[f32]) -> Result<Vec<f32>, PdError> {
    if x.len() != w.rows() {
        return Err(PdError::DimensionMismatch {
            op: "matvec_transposed",
            expected: w.rows(),
            got: x.len(),
        });
    }
    let p = w.p();
    let block_cols = w.block_cols();
    let block_rows = w.block_rows();
    let mut y = vec![0.0f32; w.cols()];
    #[allow(clippy::needless_range_loop)] // direct rendering of the Eqn. (3) index math
    for j in 0..w.cols() {
        let d = j % p;
        let bc = j / p;
        let mut acc = 0.0f32;
        for g in 0..block_rows {
            let l = g * block_cols + bc;
            let k = usize::from(w.perms()[l]);
            let c = (d + p - k) % p;
            let i = g * p + c;
            if i < w.rows() {
                acc += w.values()[l * p + c] * x[i];
            }
        }
        y[j] = acc;
    }
    Ok(y)
}

impl BlockPermDiagMatrix {
    /// Forward propagation `a = W·x` using the permuted-diagonal kernel.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`. Use [`matvec`] for the fallible variant.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        matvec(self, x).expect("input length must equal the number of columns")
    }

    /// Transposed product `Wᵀ·x` (back-propagation direction).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`. Use [`matvec_transposed`] for the fallible
    /// variant.
    pub fn matvec_transposed(&self, x: &[f32]) -> Vec<f32> {
        matvec_transposed(self, x).expect("input length must equal the number of rows")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PermutationIndexing;
    use pd_tensor::init::{seeded_rng, sparse_activation_vector};
    use rand::Rng;

    fn random_pd(rows: usize, cols: usize, p: usize, seed: u64) -> BlockPermDiagMatrix {
        BlockPermDiagMatrix::random(rows, cols, p, &mut seeded_rng(seed))
    }

    #[test]
    fn matvec_matches_dense_reference() {
        for &(rows, cols, p) in &[
            (8usize, 8usize, 4usize),
            (16, 32, 4),
            (12, 20, 5),
            (6, 9, 3),
        ] {
            let w = random_pd(rows, cols, p, 1);
            let mut rng = seeded_rng(2);
            let x: Vec<f32> = (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let expected = w.to_dense().matvec(&x);
            let got = w.matvec(&x);
            for (g, e) in got.iter().zip(expected.iter()) {
                assert!((g - e).abs() < 1e-4, "{rows}x{cols} p={p}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn matvec_rejects_wrong_length() {
        let w = random_pd(8, 8, 4, 1);
        assert!(matches!(
            matvec(&w, &[0.0; 7]),
            Err(PdError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn column_wise_matches_row_wise() {
        let w = random_pd(24, 36, 4, 3);
        let mut rng = seeded_rng(4);
        let x = sparse_activation_vector(&mut rng, 36, 0.5);
        let row_wise = w.matvec(&x);
        let (col_wise, processed) = matvec_column_wise(&w, &x).unwrap();
        for (a, b) in row_wise.iter().zip(col_wise.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
        let nonzeros = x.iter().filter(|&&v| v != 0.0).count();
        assert_eq!(processed, nonzeros);
    }

    #[test]
    fn column_wise_skips_all_zero_input() {
        let w = random_pd(8, 8, 2, 5);
        let (y, processed) = matvec_column_wise(&w, &[0.0; 8]).unwrap();
        assert_eq!(processed, 0);
        assert!(y.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn transposed_matches_dense_transpose() {
        for &(rows, cols, p) in &[(8usize, 8usize, 4usize), (16, 32, 8), (10, 15, 5)] {
            let w = random_pd(rows, cols, p, 7);
            let mut rng = seeded_rng(8);
            let x: Vec<f32> = (0..rows).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let expected = w.to_dense().transpose().matvec(&x);
            let got = w.matvec_transposed(&x);
            for (g, e) in got.iter().zip(expected.iter()) {
                assert!((g - e).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn transposed_rejects_wrong_length() {
        let w = random_pd(8, 12, 4, 1);
        assert!(matvec_transposed(&w, &[0.0; 12]).is_err());
        assert!(matvec_transposed(&w, &[0.0; 8]).is_ok());
    }

    #[test]
    fn ragged_dimensions_are_handled() {
        // 10x13 with p=4: padded blocks must not contribute out-of-range reads.
        let w = BlockPermDiagMatrix::random(10, 13, 4, &mut seeded_rng(11));
        let x: Vec<f32> = (0..13).map(|i| (i as f32 * 0.37).sin()).collect();
        let expected = w.to_dense().matvec(&x);
        let got = w.matvec(&x);
        for (g, e) in got.iter().zip(expected.iter()) {
            assert!((g - e).abs() < 1e-4);
        }
        let xt: Vec<f32> = (0..10).map(|i| (i as f32 * 0.21).cos()).collect();
        let expected_t = w.to_dense().transpose().matvec(&xt);
        let got_t = w.matvec_transposed(&xt);
        for (g, e) in got_t.iter().zip(expected_t.iter()) {
            assert!((g - e).abs() < 1e-4);
        }
    }

    #[test]
    fn linearity_of_kernel() {
        let w = random_pd(16, 16, 4, 13);
        let mut rng = seeded_rng(14);
        let x1: Vec<f32> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let x2: Vec<f32> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let sum: Vec<f32> = x1.iter().zip(x2.iter()).map(|(a, b)| a + b).collect();
        let y1 = w.matvec(&x1);
        let y2 = w.matvec(&x2);
        let ysum = w.matvec(&sum);
        for i in 0..16 {
            assert!((ysum[i] - (y1[i] + y2[i])).abs() < 1e-4);
        }
    }

    #[test]
    fn identity_permutation_with_unit_values_acts_as_block_sum() {
        // p == cols: a single block column; with k=0 and all values 1, y_i = x_{i mod p}.
        let w = BlockPermDiagMatrix::new(4, 4, 4, vec![0], vec![1.0; 4]).unwrap();
        let y = w.matvec(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(y, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn random_permutation_indexing_still_correct() {
        let w = BlockPermDiagMatrix::random_with_indexing(
            32,
            24,
            4,
            PermutationIndexing::Random,
            &mut seeded_rng(21),
        );
        let mut rng = seeded_rng(22);
        let x: Vec<f32> = (0..24).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let expected = w.to_dense().matvec(&x);
        let got = w.matvec(&x);
        for (g, e) in got.iter().zip(expected.iter()) {
            assert!((g - e).abs() < 1e-4);
        }
    }
}

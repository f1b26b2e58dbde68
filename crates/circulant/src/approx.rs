//! l2-optimal block-circulant approximation of a dense matrix.
//!
//! For a fixed block size `k`, the circulant matrix closest (in Frobenius norm) to a dense
//! `k × k` block averages the block's entries along each wrapped diagonal — the circulant
//! projection used when converting a pre-trained dense model to the CIRCNN format. This is
//! the circulant counterpart of `permdnn_core::approx::pd_approximate` and is used by the
//! comparison experiments to put both compression schemes on an equal footing.

use pd_tensor::Matrix;

use crate::block::{BlockCirculantMatrix, CirculantError};

/// Result of a block-circulant approximation.
#[derive(Debug, Clone, PartialEq)]
pub struct CirculantApproximation {
    /// The projected block-circulant matrix.
    pub matrix: BlockCirculantMatrix,
    /// Relative Frobenius-norm error of the projection.
    pub relative_error: f64,
}

/// Projects a dense matrix onto the block-circulant manifold with block size `k`
/// (power of two, matching the CIRCNN hardware constraint).
///
/// # Errors
///
/// Returns [`CirculantError`] if `k` is zero or not a power of two.
pub fn circulant_approximate(
    dense: &Matrix,
    k: usize,
) -> Result<CirculantApproximation, CirculantError> {
    if k == 0 {
        return Err(CirculantError::ZeroBlockSize);
    }
    if !k.is_power_of_two() {
        return Err(CirculantError::NonPowerOfTwo { k });
    }
    let (rows, cols) = dense.shape();
    let block_rows = rows.div_ceil(k);
    let block_cols = cols.div_ceil(k);
    let mut first_rows = vec![0.0f32; block_rows * block_cols * k];
    for (l, first_row) in first_rows.chunks_exact_mut(k).enumerate() {
        project_block(dense, l / block_cols, l % block_cols, first_row);
    }
    let matrix = BlockCirculantMatrix::new(rows, cols, k, first_rows)?;
    let approx = matrix.to_dense();
    let diff = dense.sub(&approx).expect("shapes match");
    let denom = dense.frobenius_norm() as f64;
    let relative_error = if denom == 0.0 {
        0.0
    } else {
        diff.frobenius_norm() as f64 / denom
    };
    Ok(CirculantApproximation {
        matrix,
        relative_error,
    })
}

/// Projects one `k × k` block into its first row (`k = first_row.len()`): entry `d` is the
/// mean of the dense entries on the wrapped diagonal `(i, (i + d) mod k)` that fall inside
/// the matrix.
fn project_block(dense: &Matrix, br: usize, bc: usize, first_row: &mut [f32]) {
    let k = first_row.len();
    for (d, slot) in first_row.iter_mut().enumerate() {
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for i in 0..k {
            let gi = br * k + i;
            let gj = bc * k + (i + d) % k;
            if let Some(v) = dense.get(gi, gj) {
                sum += v as f64;
                count += 1;
            }
        }
        *slot = if count == 0 {
            0.0
        } else {
            (sum / count as f64) as f32
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_tensor::init::seeded_rng;
    use rand::Rng;

    #[test]
    fn approximation_of_circulant_matrix_is_exact() {
        let original = BlockCirculantMatrix::random(16, 16, 4, &mut seeded_rng(1));
        let approx = circulant_approximate(&original.to_dense(), 4).unwrap();
        assert!(approx.relative_error < 1e-6);
    }

    #[test]
    fn diagonal_averaging_is_optimal_for_single_block() {
        // For a fixed diagonal the best constant (in l2) is the mean; verify the error of
        // our projection never exceeds the error of a perturbed projection.
        let mut rng = seeded_rng(2);
        let dense = Matrix::from_fn(4, 4, |_, _| rng.gen_range(-1.0..1.0));
        let approx = circulant_approximate(&dense, 4).unwrap();
        let base_err = approx.relative_error;
        for d in 0..4 {
            let mut perturbed_rows = approx.matrix.block(0, 0).to_vec();
            perturbed_rows[d] += 0.05;
            let perturbed = BlockCirculantMatrix::new(4, 4, 4, perturbed_rows).unwrap();
            let diff = dense.sub(&perturbed.to_dense()).unwrap();
            let err = diff.frobenius_norm() as f64 / dense.frobenius_norm() as f64;
            assert!(err >= base_err - 1e-9, "projection should be l2-optimal");
        }
    }

    #[test]
    fn rejects_bad_block_sizes() {
        let dense = Matrix::zeros(8, 8);
        assert!(circulant_approximate(&dense, 0).is_err());
        assert!(circulant_approximate(&dense, 3).is_err());
    }

    #[test]
    fn generic_matrix_error_in_open_interval() {
        let mut rng = seeded_rng(3);
        let dense = Matrix::from_fn(32, 32, |_, _| rng.gen_range(-1.0..1.0));
        let approx = circulant_approximate(&dense, 8).unwrap();
        assert!(approx.relative_error > 0.0 && approx.relative_error < 1.0);
    }

    #[test]
    fn ragged_dimensions_are_projected() {
        let mut rng = seeded_rng(4);
        let dense = Matrix::from_fn(10, 14, |_, _| rng.gen_range(-1.0..1.0));
        let approx = circulant_approximate(&dense, 4).unwrap();
        assert_eq!(approx.matrix.rows(), 10);
        assert_eq!(approx.matrix.cols(), 14);
    }
}

//! Structure-preserving gradients and weight updates for FC layers (Eqns. 2–3).
//!
//! The key property of PermDNN training is that the permuted-diagonal structure is fixed
//! at initialisation and *preserved by every update*: only the stored values `q` are ever
//! modified, so the trained network never needs pruning or re-structuring. This module
//! provides:
//!
//! * [`weight_gradient`] — `∂J/∂q` for one (input, output-gradient) pair, laid out exactly
//!   like [`BlockPermDiagMatrix::values`], so an optimizer can update the stored weights
//!   directly.
//! * [`input_gradient`] — `∂J/∂x` (Eqn. 3), the value back-propagated to the previous
//!   layer.
//! * [`sgd_step`] — the in-place update of Eqn. (2): `w_ij ← w_ij − ε · x_j · ∂J/∂a_i`
//!   applied only to the structural non-zeros.

use crate::{BlockPermDiagMatrix, PdError};

/// Gradient of the loss with respect to the stored weights `q`, for a single example.
///
/// `x` is the layer input (length `n`) and `grad_output` is `∂J/∂a` (length `m`). The
/// result has the same length and layout as [`BlockPermDiagMatrix::values`]:
/// `∂J/∂q[l·p + c] = x_j · ∂J/∂a_i` with `i = block_row·p + c` and
/// `j = block_col·p + (c + k_l) mod p`.
///
/// # Errors
///
/// Returns [`PdError::DimensionMismatch`] if the vector lengths do not match the matrix.
pub fn weight_gradient(
    w: &BlockPermDiagMatrix,
    x: &[f32],
    grad_output: &[f32],
) -> Result<Vec<f32>, PdError> {
    if x.len() != w.cols() {
        return Err(PdError::DimensionMismatch {
            op: "weight_gradient (input)",
            expected: w.cols(),
            got: x.len(),
        });
    }
    if grad_output.len() != w.rows() {
        return Err(PdError::DimensionMismatch {
            op: "weight_gradient (grad_output)",
            expected: w.rows(),
            got: grad_output.len(),
        });
    }
    let p = w.p();
    let block_cols = w.block_cols();
    let mut grad = vec![0.0f32; w.values().len()];
    for br in 0..w.block_rows() {
        for bc in 0..block_cols {
            let l = br * block_cols + bc;
            let k = usize::from(w.perms()[l]);
            for c in 0..p {
                let i = br * p + c;
                let j = bc * p + (c + k) % p;
                if i < w.rows() && j < w.cols() {
                    grad[l * p + c] = x[j] * grad_output[i];
                }
            }
        }
    }
    Ok(grad)
}

/// Accumulates the weight gradient for one example on top of an existing buffer, which is
/// how mini-batch gradients are formed without allocating per example.
///
/// # Errors
///
/// Returns [`PdError::DimensionMismatch`] if any length is inconsistent.
pub fn accumulate_weight_gradient(
    w: &BlockPermDiagMatrix,
    x: &[f32],
    grad_output: &[f32],
    grad_accum: &mut [f32],
) -> Result<(), PdError> {
    if grad_accum.len() != w.values().len() {
        return Err(PdError::DimensionMismatch {
            op: "accumulate_weight_gradient (accumulator)",
            expected: w.values().len(),
            got: grad_accum.len(),
        });
    }
    let g = weight_gradient(w, x, grad_output)?;
    for (a, gi) in grad_accum.iter_mut().zip(g.iter()) {
        *a += gi;
    }
    Ok(())
}

/// Gradient of the loss with respect to the layer input, `∂J/∂x = Wᵀ · ∂J/∂a` (Eqn. 3).
///
/// # Errors
///
/// Returns [`PdError::DimensionMismatch`] if `grad_output.len() != w.rows()`.
pub fn input_gradient(w: &BlockPermDiagMatrix, grad_output: &[f32]) -> Result<Vec<f32>, PdError> {
    crate::matvec::matvec_transposed(w, grad_output)
}

/// Applies the structure-preserving SGD update of Eqn. (2) in place:
/// `q[l·p + c] ← q[l·p + c] − lr · x_j · ∂J/∂a_i` for every structural non-zero.
///
/// # Errors
///
/// Returns [`PdError::DimensionMismatch`] if the vector lengths do not match the matrix.
pub fn sgd_step(
    w: &mut BlockPermDiagMatrix,
    x: &[f32],
    grad_output: &[f32],
    lr: f32,
) -> Result<(), PdError> {
    let grad = weight_gradient(w, x, grad_output)?;
    for (v, g) in w.values_mut().iter_mut().zip(grad.iter()) {
        *v -= lr * g;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_tensor::init::seeded_rng;
    use pd_tensor::Matrix;
    use rand::Rng;

    fn setup(rows: usize, cols: usize, p: usize) -> (BlockPermDiagMatrix, Vec<f32>, Vec<f32>) {
        let w = BlockPermDiagMatrix::random(rows, cols, p, &mut seeded_rng(5));
        let mut rng = seeded_rng(6);
        let x: Vec<f32> = (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let g: Vec<f32> = (0..rows).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (w, x, g)
    }

    /// Dense reference: the gradient of a dense layer is the outer product g·xᵀ; the PD
    /// gradient must equal that outer product sampled at the structural non-zero positions.
    #[test]
    fn weight_gradient_matches_dense_outer_product() {
        for &(rows, cols, p) in &[(8usize, 8usize, 4usize), (12, 20, 4), (9, 15, 3)] {
            let (w, x, g) = setup(rows, cols, p);
            let grad = weight_gradient(&w, &x, &g).unwrap();
            let mut dense_grad = Matrix::zeros(rows, cols);
            dense_grad.rank1_update(1.0, &g, &x);
            for br in 0..w.block_rows() {
                for bc in 0..w.block_cols() {
                    let l = br * w.block_cols() + bc;
                    let k = usize::from(w.perms()[l]);
                    for c in 0..p {
                        let i = br * p + c;
                        let j = bc * p + (c + k) % p;
                        if i < rows && j < cols {
                            assert!(
                                (grad[l * p + c] - dense_grad[(i, j)]).abs() < 1e-5,
                                "block ({br},{bc}) slot {c}"
                            );
                        } else {
                            assert_eq!(grad[l * p + c], 0.0, "padded slot must stay zero");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn input_gradient_matches_dense_transpose() {
        let (w, _x, g) = setup(16, 24, 4);
        let got = input_gradient(&w, &g).unwrap();
        let expected = w.to_dense().transpose().matvec(&g);
        for (a, b) in got.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn sgd_step_preserves_structure() {
        let (mut w, x, g) = setup(16, 16, 4);
        let perms_before = w.perms().to_vec();
        let dense_before = w.to_dense();
        sgd_step(&mut w, &x, &g, 0.1).unwrap();
        // Permutation parameters unchanged; zero pattern unchanged.
        assert_eq!(w.perms(), &perms_before[..]);
        let dense_after = w.to_dense();
        for i in 0..16 {
            for j in 0..16 {
                if dense_before[(i, j)] == 0.0 && w.entry(i, j) != 0.0 {
                    // A previously-zero structural slot may only change if it is on the
                    // permuted diagonal (structural), never off it.
                    let c = i % 4;
                    let d = j % 4;
                    let k = w.perm_at(i, j);
                    assert_eq!((c + k) % 4, d, "update leaked off the permuted diagonal");
                }
                if (i % 4 + w.perm_at(i, j)) % 4 != j % 4 {
                    assert_eq!(dense_after[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn sgd_step_reduces_quadratic_loss() {
        // J = 0.5 * ||W x - t||^2  =>  dJ/da = Wx - t. A small step must reduce J.
        let (mut w, x, _) = setup(12, 12, 4);
        let target: Vec<f32> = (0..12).map(|i| (i as f32 * 0.3).sin()).collect();
        let loss = |w: &BlockPermDiagMatrix| -> f32 {
            let a = w.matvec(&x);
            a.iter()
                .zip(target.iter())
                .map(|(ai, ti)| 0.5 * (ai - ti) * (ai - ti))
                .sum()
        };
        let before = loss(&w);
        for _ in 0..20 {
            let a = w.matvec(&x);
            let grad_out: Vec<f32> = a
                .iter()
                .zip(target.iter())
                .map(|(ai, ti)| ai - ti)
                .collect();
            sgd_step(&mut w, &x, &grad_out, 0.05).unwrap();
        }
        let after = loss(&w);
        assert!(
            after < before * 0.5,
            "training on the PD manifold should reduce the loss: {before} -> {after}"
        );
    }

    #[test]
    fn numerical_gradient_check() {
        // Finite-difference check of ∂J/∂q for J = 0.5 ||Wx - t||².
        let (w, x, _) = setup(8, 8, 4);
        let target: Vec<f32> = (0..8).map(|i| 0.1 * i as f32).collect();
        let loss = |w: &BlockPermDiagMatrix| -> f64 {
            w.matvec(&x)
                .iter()
                .zip(target.iter())
                .map(|(a, t)| 0.5 * ((a - t) as f64).powi(2))
                .sum()
        };
        let a = w.matvec(&x);
        let grad_out: Vec<f32> = a
            .iter()
            .zip(target.iter())
            .map(|(ai, ti)| ai - ti)
            .collect();
        let analytic = weight_gradient(&w, &x, &grad_out).unwrap();
        let eps = 1e-3f32;
        #[allow(clippy::needless_range_loop)] // idx perturbs two clones and labels failures
        for idx in 0..w.values().len() {
            let mut wp = w.clone();
            wp.values_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.values_mut()[idx] -= eps;
            let numeric = (loss(&wp) - loss(&wm)) / (2.0 * eps as f64);
            assert!(
                (numeric - analytic[idx] as f64).abs() < 1e-2,
                "slot {idx}: numeric {numeric} vs analytic {}",
                analytic[idx]
            );
        }
    }

    #[test]
    fn accumulate_matches_sum_of_examples() {
        let (w, x, g) = setup(8, 12, 4);
        let mut rng = seeded_rng(9);
        let x2: Vec<f32> = (0..12).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let g2: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut acc = vec![0.0f32; w.values().len()];
        accumulate_weight_gradient(&w, &x, &g, &mut acc).unwrap();
        accumulate_weight_gradient(&w, &x2, &g2, &mut acc).unwrap();
        let g1 = weight_gradient(&w, &x, &g).unwrap();
        let gg2 = weight_gradient(&w, &x2, &g2).unwrap();
        for i in 0..acc.len() {
            assert!((acc[i] - (g1[i] + gg2[i])).abs() < 1e-5);
        }
    }

    #[test]
    fn dimension_errors() {
        let (w, x, g) = setup(8, 12, 4);
        assert!(weight_gradient(&w, &g, &g).is_err());
        assert!(weight_gradient(&w, &x, &x).is_err());
        let mut short = vec![0.0; 3];
        assert!(accumulate_weight_gradient(&w, &x, &g, &mut short).is_err());
    }
}

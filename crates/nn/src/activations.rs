//! Element-wise activation functions and their derivatives.
//!
//! The PERMDNN activation units (Fig. 7) are reconfigurable between ReLU and tanh; the
//! training framework additionally needs softmax for the classifier heads and sigmoid for
//! the LSTM gates.

/// Rectified linear unit.
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Derivative of ReLU with respect to its input (sub-gradient 0 at 0).
pub fn relu_grad(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Hyperbolic tangent.
pub fn tanh(x: f32) -> f32 {
    x.tanh()
}

/// Derivative of tanh expressed in terms of the *output* `y = tanh(x)`.
pub fn tanh_grad_from_output(y: f32) -> f32 {
    1.0 - y * y
}

/// Logistic sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Derivative of sigmoid expressed in terms of the output `y = sigmoid(x)`.
pub fn sigmoid_grad_from_output(y: f32) -> f32 {
    y * (1.0 - y)
}

/// Numerically stable softmax over a slice.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.iter().map(|&e| e / sum).collect()
}

/// Applies ReLU element-wise in place.
pub fn relu_in_place(x: &mut [f32]) {
    x.iter_mut().for_each(|v| *v = relu(*v));
}

/// Applies tanh element-wise in place.
pub fn tanh_in_place(x: &mut [f32]) {
    x.iter_mut().for_each(|v| *v = tanh(*v));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_and_grad() {
        assert_eq!(relu(3.0), 3.0);
        assert_eq!(relu(-3.0), 0.0);
        assert_eq!(relu_grad(2.0), 1.0);
        assert_eq!(relu_grad(-2.0), 0.0);
    }

    #[test]
    fn tanh_range_and_grad() {
        assert!(tanh(100.0) <= 1.0);
        assert!(tanh(-100.0) >= -1.0);
        let y = tanh(0.5);
        assert!((tanh_grad_from_output(y) - (1.0 - y * y)).abs() < 1e-7);
    }

    #[test]
    fn sigmoid_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-6);
        let y = sigmoid(1.3);
        assert!((sigmoid_grad_from_output(y) - y * (1.0 - y)).abs() < 1e-7);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // Large logits must not overflow.
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-6);
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn vector_helpers() {
        let (mut r, mut t) = (vec![-1.0, 2.0], vec![0.0]);
        relu_in_place(&mut r);
        tanh_in_place(&mut t);
        assert_eq!(r, vec![0.0, 2.0]);
        assert_eq!(t, vec![0.0]);
    }

    #[test]
    fn relu_grad_matches_finite_difference() {
        for &x in &[-2.0f32, -0.1, 0.1, 2.0] {
            let eps = 1e-3;
            let numeric = (relu(x + eps) - relu(x - eps)) / (2.0 * eps);
            assert!((numeric - relu_grad(x)).abs() < 1e-3);
        }
    }
}

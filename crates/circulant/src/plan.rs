//! Precomputed FFT execution plans.
//!
//! [`crate::fft`] recomputes its twiddle factors (one `cos`/`sin` pair per
//! stage plus an incremental complex multiply per butterfly) on every
//! transform. That is fine for one-shot use, but the serving hot path runs
//! two forward transforms and one inverse per circulant block row *per
//! request*, always at the same length `k`. [`FftPlan`] hoists everything
//! that depends only on the transform length — the bit-reversal permutation
//! and the per-stage twiddle chains, forward and inverse — into tables built
//! once at matrix construction.
//!
//! Bit-compatibility is the design constraint: the tables are filled by
//! replaying the exact incremental `w = w * wlen` recurrence of
//! [`crate::fft::fft_in_place`], and the butterfly loop consumes them in the
//! same order, so a planned transform produces bit-identical output to the
//! unplanned one (`tests/wall.rs` pins this property for both directions).

use crate::Complex;

/// A reusable radix-2 FFT plan for one power-of-two transform length.
///
/// Holds the bit-reversal permutation and the forward and inverse twiddle
/// tables. Plans are immutable after construction and cheap to share
/// (`BlockCirculantMatrix` stores one behind an `Arc` for all its blocks).
#[derive(Debug, Clone, PartialEq)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversed index of each position; `bitrev[i] > i` entries drive swaps.
    bitrev: Vec<u32>,
    /// Forward twiddles, all stages concatenated: stage `len` occupies
    /// `len/2 - 1 .. len - 1` and holds `w_0..w_{len/2-1}` of the incremental
    /// recurrence (total `n - 1` entries).
    fwd: Vec<Complex>,
    /// Inverse twiddles, same layout with the opposite angle sign.
    inv: Vec<Complex>,
}

impl FftPlan {
    /// Builds the plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two (including zero) — the same
    /// restriction as [`crate::fft::fft_in_place`].
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n > 0,
            "FFT length must be a power of two, got {n}"
        );
        let bits = n.trailing_zeros();
        let bitrev = (0..n).map(|i| reverse_bits(i, bits) as u32).collect();

        let build_table = |sign: f64| -> Vec<Complex> {
            let mut table = Vec::with_capacity(n.saturating_sub(1));
            let mut len = 2;
            while len <= n {
                let angle = sign * 2.0 * std::f64::consts::PI / len as f64;
                let wlen = Complex::from_polar_unit(angle);
                // Replay fft.rs's incremental recurrence exactly so each
                // table entry is bit-identical to the w the unplanned
                // butterfly loop would have computed.
                let mut w = Complex::ONE;
                for _ in 0..len / 2 {
                    table.push(w);
                    w = w * wlen;
                }
                len <<= 1;
            }
            table
        };

        FftPlan {
            n,
            bitrev,
            fwd: build_table(-1.0),
            inv: build_table(1.0),
        }
    }

    /// The transform length this plan was built for.
    pub fn transform_len(&self) -> usize {
        self.n
    }

    /// In-place forward FFT; bit-identical to [`crate::fft::fft_in_place`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.transform_len()`.
    pub fn forward_in_place(&self, data: &mut [Complex]) {
        self.transform(data, false);
    }

    /// In-place inverse FFT including the `1/n` normalisation; bit-identical
    /// to [`crate::fft::ifft_in_place`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.transform_len()`.
    pub fn inverse_in_place(&self, data: &mut [Complex]) {
        self.transform(data, true);
        let scale = 1.0 / self.n as f64;
        for v in data.iter_mut() {
            *v = v.scale(scale);
        }
    }

    /// Forward FFT of a real signal zero-padded to the plan length, written
    /// into `out`. Replaces the `fft_real(&padded)` pattern without the
    /// per-call padded-input and spectrum allocations; bit-identical to
    /// [`crate::fft::fft_real`] on the padded signal.
    ///
    /// # Panics
    ///
    /// Panics if `real.len() > self.transform_len()` or
    /// `out.len() != self.transform_len()`.
    pub fn forward_real_padded(&self, real: &[f32], out: &mut [Complex]) {
        assert!(
            real.len() <= self.n,
            "signal length {} exceeds plan length {}",
            real.len(),
            self.n
        );
        assert_eq!(out.len(), self.n, "output length must match plan length");
        for (o, &v) in out.iter_mut().zip(real.iter()) {
            *o = Complex::from_real(v as f64);
        }
        out[real.len()..].fill(Complex::ZERO);
        self.transform(out, false);
    }

    fn transform(&self, data: &mut [Complex], inverse: bool) {
        let n = self.n;
        assert_eq!(data.len(), n, "data length must match plan length");
        if n == 1 {
            return;
        }

        for (i, &j) in self.bitrev.iter().enumerate() {
            let j = j as usize;
            if j > i {
                data.swap(i, j);
            }
        }

        let table = if inverse { &self.inv } else { &self.fwd };
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            // Stage `len`'s half-table: offset 1+2+..+len/4 == len/2 - 1.
            let twiddles = &table[half - 1..len - 1];
            // Each butterfly group splits into its low and high halves, zipped
            // with the stage's twiddles: the reference loop's operations in
            // its order, without an index computation or bounds check per
            // element.
            for group in data.chunks_exact_mut(len) {
                let (lo, hi) = group.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(twiddles) {
                    let u = *a;
                    let v = *b * w;
                    *a = u + v;
                    *b = u - v;
                }
            }
            len <<= 1;
        }
    }
}

fn reverse_bits(value: usize, bits: u32) -> usize {
    let mut v = value;
    let mut result = 0usize;
    for _ in 0..bits {
        result = (result << 1) | (v & 1);
        v >>= 1;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{fft_in_place, fft_real, ifft_in_place};

    fn signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.21).cos()))
            .collect()
    }

    /// Every power-of-two length from 1 to 1024.
    fn lengths() -> impl Iterator<Item = usize> {
        (0..=10).map(|exp| 1usize << exp)
    }

    #[test]
    fn forward_is_bit_identical_to_unplanned_fft() {
        for n in lengths() {
            let plan = FftPlan::new(n);
            let mut planned = signal(n);
            let mut reference = planned.clone();
            plan.forward_in_place(&mut planned);
            fft_in_place(&mut reference);
            assert_eq!(planned, reference, "forward mismatch at n={n}");
        }
    }

    #[test]
    fn inverse_is_bit_identical_to_unplanned_ifft() {
        for n in lengths() {
            let plan = FftPlan::new(n);
            let mut planned = signal(n);
            let mut reference = planned.clone();
            plan.inverse_in_place(&mut planned);
            ifft_in_place(&mut reference);
            assert_eq!(planned, reference, "inverse mismatch at n={n}");
        }
    }

    #[test]
    fn real_padded_matches_fft_real_on_padded_signal() {
        for n in lengths() {
            let plan = FftPlan::new(n);
            // Every signal length up to n = 64; past that, the edges and the
            // middle.
            let sig_lens: Vec<usize> = if n <= 64 {
                (0..=n).collect()
            } else {
                vec![0, 1, n / 2 + 1, n - 1, n]
            };
            for sig_len in sig_lens {
                let real: Vec<f32> = (0..sig_len).map(|i| (i as f32 * 0.9).cos()).collect();
                let mut padded = real.clone();
                padded.resize(n, 0.0);
                let mut out = vec![Complex::ZERO; n];
                plan.forward_real_padded(&real, &mut out);
                assert_eq!(
                    out,
                    fft_real(&padded),
                    "mismatch at n={n}, signal length {sig_len}"
                );
            }
        }
    }

    #[test]
    fn twiddle_table_has_n_minus_one_entries() {
        for n in [2usize, 8, 64] {
            let plan = FftPlan::new(n);
            assert_eq!(plan.fwd.len(), n - 1);
            assert_eq!(plan.inv.len(), n - 1);
        }
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_panics() {
        FftPlan::new(12);
    }

    #[test]
    #[should_panic]
    fn wrong_data_length_panics() {
        let plan = FftPlan::new(8);
        let mut data = vec![Complex::ZERO; 4];
        plan.forward_in_place(&mut data);
    }
}

//! [`CompressedLinear`] implementation for block-circulant matrices.
//!
//! The trait's matvec uses the FFT kernel (`IFFT(FFT(w) ∘ FFT(x))`, the CIRCNN
//! inference path) whenever the block size is a power of two, and falls back to
//! the direct time-domain kernel otherwise — non-2ᵗ blocks exist only as the
//! flexibility ablation of Section II-C, which no FFT hardware could execute.

use permdnn_core::cost::circnn_matvec_ops;
use permdnn_core::format::{check_dim, CompressedLinear, FormatError};
use permdnn_core::Scratch;

use crate::block::{BlockCirculantMatrix, CirculantError, CirculantScratch};

impl From<CirculantError> for FormatError {
    fn from(e: CirculantError) -> Self {
        match e {
            CirculantError::DimensionMismatch { expected, got } => FormatError::DimensionMismatch {
                op: "matvec",
                expected,
                got,
            },
            other => FormatError::Format {
                format: "block-circulant",
                reason: other.to_string(),
            },
        }
    }
}

impl CompressedLinear for BlockCirculantMatrix {
    fn out_dim(&self) -> usize {
        self.rows()
    }

    fn in_dim(&self) -> usize {
        self.cols()
    }

    fn label(&self) -> String {
        if self.k().is_power_of_two() {
            format!("block-circulant (k={}, FFT)", self.k())
        } else {
            format!("block-circulant (k={}, direct)", self.k())
        }
    }

    fn stored_weights(&self) -> usize {
        self.stored_weights()
    }

    fn mul_count(&self) -> u64 {
        if self.k().is_power_of_two() {
            // The CIRCNN dataflow: shared input FFTs, element-wise complex
            // products, one IFFT per block row (Section III-H accounting).
            circnn_matvec_ops(self.rows(), self.cols(), self.k(), true).real_muls
        } else {
            // Direct kernel: every block is a full k × k time-domain product.
            let blocks = (self.rows().div_ceil(self.k()) * self.cols().div_ceil(self.k())) as u64;
            blocks * (self.k() * self.k()) as u64
        }
    }

    fn matvec_into(&self, x: &[f32], y: &mut [f32]) -> Result<(), FormatError> {
        self.matvec_scratch(x, y, &mut Scratch::new())
    }

    /// The FFT path draws its input-spectrum and accumulator buffers from the
    /// scratch arena, making repeated calls allocation-free; the direct
    /// fallback for non-2ᵗ block sizes has no reusable temporaries.
    fn matvec_scratch(
        &self,
        x: &[f32],
        y: &mut [f32],
        scratch: &mut Scratch,
    ) -> Result<(), FormatError> {
        check_dim("matvec_into", self.cols(), x.len())?;
        check_dim("matvec_into", self.rows(), y.len())?;
        if self.k().is_power_of_two() {
            self.matvec_fft_into(x, y, scratch.slot::<CirculantScratch>())?;
        } else {
            y.copy_from_slice(&self.matvec_direct(x)?);
        }
        Ok(())
    }

    fn to_dense(&self) -> pd_tensor::Matrix {
        self.to_dense()
    }

    fn max_weight_abs(&self) -> f32 {
        self.first_rows().iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Snapshot payload: rows, cols, block size, then every block's first
    /// row in block-row-major order — the stored representation (`k` values
    /// per block), never the dense expansion.
    fn write_snapshot(&self, out: &mut permdnn_core::snapshot::ByteWriter) -> Option<u16> {
        out.dim(self.rows());
        out.dim(self.cols());
        out.dim(self.k());
        out.f32_slice(self.first_rows());
        Some(permdnn_core::snapshot::FORMAT_CIRCULANT)
    }

    // `quantize_kernel` deliberately keeps the default `None`: the CIRCNN
    // inference path runs in the frequency domain (complex FFT butterflies),
    // which has no 16-bit time-domain weight layout to hand to the integer
    // kernels. Quantized circulant layers therefore execute through the
    // generic dequantize fallback of `permdnn_core::qlinear::QuantizedLinear`
    // — activations are still exchanged in 16-bit fixed point at the layer
    // boundaries, only the internal kernel stays f32.
}

/// Decodes a [`FORMAT_CIRCULANT`](permdnn_core::snapshot::FORMAT_CIRCULANT)
/// payload — the [`permdnn_core::snapshot::DecodeFn`] registered by
/// `permdnn_nn::snapshot::codec`.
///
/// # Errors
///
/// Returns a typed [`permdnn_core::snapshot::SnapshotError`] for truncated or
/// structurally invalid payloads; never panics.
pub fn decode_snapshot(
    r: &mut permdnn_core::snapshot::ByteReader<'_>,
    _codec: &permdnn_core::snapshot::SnapshotCodec,
) -> Result<std::sync::Arc<dyn CompressedLinear>, permdnn_core::snapshot::SnapshotError> {
    use permdnn_core::snapshot::SnapshotError;
    let rows = r.dim("circulant rows")?;
    let cols = r.dim("circulant cols")?;
    let k = r.dim("circulant block size")?;
    if k == 0 {
        return Err(SnapshotError::Malformed {
            context: "circulant block size",
            reason: "k must be non-zero".to_string(),
        });
    }
    // Every first row in one read: `f32_vec` checks the count against the
    // bytes left before it allocates, so a corrupt header claiming a huge
    // block count fails without a huge allocation.
    let values = rows
        .div_ceil(k)
        .checked_mul(cols.div_ceil(k))
        .and_then(|blocks| blocks.checked_mul(k))
        .ok_or(SnapshotError::Malformed {
            context: "circulant block rows",
            reason: "block count overflows".to_string(),
        })?;
    let first_rows = r.f32_vec(values, "circulant block rows")?;
    let m = BlockCirculantMatrix::new_any_size(rows, cols, k, first_rows).map_err(|e| {
        SnapshotError::Malformed {
            context: "circulant tensor",
            reason: e.to_string(),
        }
    })?;
    Ok(std::sync::Arc::new(m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_tensor::init::seeded_rng;
    use rand::Rng;

    #[test]
    fn trait_matvec_matches_dense_expansion_fft_path() {
        let m = BlockCirculantMatrix::random(16, 24, 8, &mut seeded_rng(1));
        let mut rng = seeded_rng(2);
        let x: Vec<f32> = (0..24).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let op: &dyn CompressedLinear = &m;
        let got = op.matvec(&x).unwrap();
        let expected = op.to_dense().matvec(&x);
        for (a, b) in got.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-3);
        }
        assert!(op.label().contains("FFT"));
    }

    #[test]
    fn trait_matvec_falls_back_to_direct_for_non_power_of_two() {
        let first_rows: Vec<f32> = (0..4).flat_map(|i| [i as f32 * 0.5 + 0.25; 3]).collect();
        let m = BlockCirculantMatrix::new_any_size(6, 6, 3, first_rows).unwrap();
        let x = vec![1.0f32; 6];
        let op: &dyn CompressedLinear = &m;
        let got = op.matvec(&x).unwrap();
        let expected = op.to_dense().matvec(&x);
        for (a, b) in got.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
        assert!(op.label().contains("direct"));
    }

    #[test]
    fn trait_rejects_mis_sized_slices() {
        let m = BlockCirculantMatrix::random(8, 8, 4, &mut seeded_rng(3));
        let op: &dyn CompressedLinear = &m;
        assert!(matches!(
            op.matvec(&[0.0; 5]),
            Err(FormatError::DimensionMismatch {
                expected: 8,
                got: 5,
                ..
            })
        ));
        let mut y = [0.0; 6];
        assert!(op.matvec_into(&[0.0; 8], &mut y).is_err());
    }

    #[test]
    fn circulant_error_converts_into_format_error() {
        let e = CirculantError::DimensionMismatch {
            expected: 4,
            got: 2,
        };
        assert!(matches!(
            FormatError::from(e),
            FormatError::DimensionMismatch {
                expected: 4,
                got: 2,
                ..
            }
        ));
        let e = CirculantError::NonPowerOfTwo { k: 6 };
        match FormatError::from(e) {
            FormatError::Format { format, reason } => {
                assert_eq!(format, "block-circulant");
                assert!(reason.contains('6'));
            }
            other => panic!("unexpected conversion: {other:?}"),
        }
    }

    #[test]
    fn snapshot_round_trips_bit_exactly_for_both_kernels() {
        let mut codec = permdnn_core::snapshot::SnapshotCodec::new();
        codec.register(permdnn_core::snapshot::FORMAT_CIRCULANT, decode_snapshot);
        for k in [4usize, 3] {
            let m = BlockCirculantMatrix::random_any_size(10, 14, k, &mut seeded_rng(7 + k as u64));
            let bytes = permdnn_core::snapshot::save_tensor(&m).unwrap();
            let back = permdnn_core::snapshot::load_tensor(&bytes, &codec).unwrap();
            let x: Vec<f32> = (0..14).map(|i| (i as f32 * 0.3).sin()).collect();
            assert_eq!(
                back.matvec(&x).unwrap(),
                CompressedLinear::matvec(&m, &x).unwrap(),
                "k = {k}"
            );
            assert_eq!(back.label(), CompressedLinear::label(&m));
            assert_eq!(
                permdnn_core::snapshot::save_tensor(back.as_ref()).unwrap(),
                bytes,
                "canonical re-encode"
            );
        }
    }

    #[test]
    fn stored_weights_and_mul_count_reflect_fft_arithmetic() {
        let m = BlockCirculantMatrix::random(64, 64, 8, &mut seeded_rng(4));
        let op: &dyn CompressedLinear = &m;
        assert_eq!(op.stored_weights(), 64 * 64 / 8);
        // CIRCNN's complex arithmetic costs more real multiplications than the
        // permuted-diagonal format at equal compression (Section V-C).
        assert!(op.mul_count() >= 4 * (64 * 64 / 8) as u64);
    }
}

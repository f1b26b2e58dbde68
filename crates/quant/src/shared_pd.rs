//! The weight-shared permuted-diagonal format: a [`BlockPermDiagMatrix`] whose
//! stored values live in a small shared codebook ("weight LUT"), exactly the
//! representation the PERMDNN PE's weight SRAM holds (4-bit tags decoded
//! through a 16-entry LUT, Fig. 7).
//!
//! [`SharedWeightPdMatrix`] implements
//! [`permdnn_core::format::CompressedLinear`], so quantized layers flow through
//! the same polymorphic surface as every other weight format.

use permdnn_core::format::{BatchView, CompressedLinear, FormatError};
use permdnn_core::{BlockPermDiagMatrix, Scratch};
use rand::Rng;

use crate::weight_sharing::{kmeans_codebook, SharedWeightTable};

/// A permuted-diagonal matrix whose stored weights have been clustered into a
/// `2^tag_bits`-entry shared codebook.
///
/// The dequantized matrix (every stored weight replaced by its centroid) is
/// kept materialised so the PD kernel runs at full speed; the
/// [`SharedWeightTable`] records the tags and codebook for storage accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedWeightPdMatrix {
    matrix: BlockPermDiagMatrix,
    table: SharedWeightTable,
    rms_error: f32,
}

impl SharedWeightPdMatrix {
    /// Quantizes `w` with a k-means codebook of `2^tag_bits` entries
    /// (`iterations` Lloyd steps).
    ///
    /// # Panics
    ///
    /// Panics if `w` stores no weights or `tag_bits` is outside `1..=8`
    /// (the preconditions of [`kmeans_codebook`]).
    pub fn quantize(
        w: &BlockPermDiagMatrix,
        tag_bits: u32,
        iterations: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let table = kmeans_codebook(w.values(), tag_bits, iterations, rng);
        let mut matrix = w.clone();
        let rms_error = table.apply(&mut matrix);
        SharedWeightPdMatrix {
            matrix,
            table,
            rms_error,
        }
    }

    /// The paper's configuration: 4-bit weight sharing (footnote 11).
    pub fn quantize_4bit(w: &BlockPermDiagMatrix, rng: &mut impl Rng) -> Self {
        Self::quantize(w, 4, 25, rng)
    }

    /// Rebuilds a shared-weight matrix from a permuted-diagonal structure and
    /// its weight table (the snapshot-decode path): the matrix's stored
    /// values are *derived* by decoding every tag through the codebook, so
    /// the pair is consistent by construction. `rms_error` is the clustering
    /// error recorded when the codebook was originally built.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant: tag count differing
    /// from the matrix's stored-weight count, a tag outside the codebook, or
    /// a codebook wider than `2^tag_bits`.
    pub fn from_table(
        mut matrix: BlockPermDiagMatrix,
        table: SharedWeightTable,
        rms_error: f32,
    ) -> Result<Self, String> {
        if table.tags.len() != matrix.values().len() {
            return Err(format!(
                "{} tags for {} stored weights",
                table.tags.len(),
                matrix.values().len()
            ));
        }
        if !(1..=8).contains(&table.tag_bits) {
            return Err(format!("tag width {} outside 1..=8", table.tag_bits));
        }
        if table.codebook.len() > (1usize << table.tag_bits) {
            return Err(format!(
                "codebook of {} entries does not fit {} bits",
                table.codebook.len(),
                table.tag_bits
            ));
        }
        if table
            .tags
            .iter()
            .any(|&t| usize::from(t) >= table.codebook.len())
        {
            return Err("tag outside the codebook range".to_string());
        }
        for (v, &t) in matrix.values_mut().iter_mut().zip(table.tags.iter()) {
            *v = table.codebook[usize::from(t)];
        }
        Ok(SharedWeightPdMatrix {
            matrix,
            table,
            rms_error,
        })
    }

    /// The dequantized permuted-diagonal matrix (centroid-valued weights).
    pub fn matrix(&self) -> &BlockPermDiagMatrix {
        &self.matrix
    }

    /// The shared codebook and per-weight tags.
    pub fn table(&self) -> &SharedWeightTable {
        &self.table
    }

    /// RMS error the sharing introduced over the stored weights.
    pub fn rms_error(&self) -> f32 {
        self.rms_error
    }

    /// Weight-SRAM storage in bits: per-weight tags plus the 16-bit codebook.
    pub fn storage_bits(&self) -> u64 {
        self.table.tag_storage_bits() + self.table.codebook.len() as u64 * 16
    }
}

impl CompressedLinear for SharedWeightPdMatrix {
    fn out_dim(&self) -> usize {
        self.matrix.rows()
    }

    fn in_dim(&self) -> usize {
        self.matrix.cols()
    }

    fn label(&self) -> String {
        format!(
            "permuted-diagonal (p={}) + {}-bit shared weights",
            self.matrix.p(),
            self.table.tag_bits
        )
    }

    fn stored_weights(&self) -> usize {
        // One tag per stored weight slot; the codebook is shared per layer.
        self.table.tags.len()
    }

    fn mul_count(&self) -> u64 {
        CompressedLinear::mul_count(&self.matrix)
    }

    fn exploits_input_sparsity(&self) -> bool {
        CompressedLinear::exploits_input_sparsity(&self.matrix)
    }

    fn matvec_into(&self, x: &[f32], y: &mut [f32]) -> Result<(), FormatError> {
        self.matvec_scratch(x, y, &mut Scratch::new())
    }

    /// Same rotated-window kernel as the unquantized PD format on a batch of
    /// one row, on the caller's scratch: the LUT decode is free in the
    /// software model (values are pre-dequantized).
    fn matvec_scratch(
        &self,
        x: &[f32],
        y: &mut [f32],
        scratch: &mut Scratch,
    ) -> Result<(), FormatError> {
        self.matrix.matvec_scratch(x, y, scratch)
    }

    /// Same across-batch rotated-window kernel as the unquantized PD format,
    /// which loads each block's values and `k_l` once per chunk of batch rows.
    fn matmul_into(
        &self,
        xs: &BatchView<'_>,
        out: &mut [f32],
        scratch: &mut Scratch,
    ) -> Result<(), FormatError> {
        self.matrix.matmul_into(xs, out, scratch)
    }

    fn max_weight_abs(&self) -> f32 {
        CompressedLinear::max_weight_abs(&self.matrix)
    }

    /// Same integer kernel as the plain PD format: the codebook is already
    /// applied to the stored values, so quantization sees centroid weights.
    fn quantize_kernel(&self, weight_frac: u32) -> Option<permdnn_core::qlinear::QuantKernel> {
        CompressedLinear::quantize_kernel(&self.matrix, weight_frac)
    }

    fn to_dense(&self) -> pd_tensor::Matrix {
        self.matrix.to_dense()
    }

    /// Snapshot payload: the PD structure (shape, block size, permutations)
    /// plus the codebook and the per-weight tags — the weight-SRAM
    /// representation itself. The centroid-valued matrix is *derived* on
    /// load, so only `tag_bits` per weight travel, never the f32 values.
    fn write_snapshot(&self, out: &mut permdnn_core::snapshot::ByteWriter) -> Option<u16> {
        out.dim(self.matrix.rows());
        out.dim(self.matrix.cols());
        out.dim(self.matrix.p());
        for &k in self.matrix.perms() {
            out.u16(k);
        }
        out.u8(self.table.tag_bits as u8);
        out.u16(self.table.codebook.len() as u16);
        out.f32_slice(&self.table.codebook);
        out.bytes(&self.table.tags);
        out.f32(self.rms_error);
        Some(permdnn_core::snapshot::FORMAT_SHARED_PD)
    }
}

/// Decodes a [`FORMAT_SHARED_PD`](permdnn_core::snapshot::FORMAT_SHARED_PD)
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
    let rows = r.dim("shared-pd rows")?;
    let cols = r.dim("shared-pd cols")?;
    let p = r.dim("shared-pd block size")?;
    if p == 0 {
        return Err(SnapshotError::Malformed {
            context: "shared-pd block size",
            reason: "p must be non-zero".to_string(),
        });
    }
    let nblocks = rows.div_ceil(p) * cols.div_ceil(p);
    let perms = r.u16_vec(nblocks, "shared-pd permutations")?;
    let tag_bits = u32::from(r.u8("shared-pd tag bits")?);
    let cb_len = r.u16("shared-pd codebook length")? as usize;
    let codebook = r.f32_vec(cb_len, "shared-pd codebook")?;
    let tags = r.take(nblocks * p, "shared-pd tags")?.to_vec();
    let rms_error = r.f32("shared-pd rms error")?;
    let matrix =
        BlockPermDiagMatrix::new(rows, cols, p, perms, vec![0.0; nblocks * p]).map_err(|e| {
            SnapshotError::Malformed {
                context: "shared-pd structure",
                reason: e.to_string(),
            }
        })?;
    let table = SharedWeightTable {
        codebook,
        tags,
        tag_bits,
    };
    let m = SharedWeightPdMatrix::from_table(matrix, table, rms_error).map_err(|reason| {
        SnapshotError::Malformed {
            context: "shared-pd tensor",
            reason,
        }
    })?;
    Ok(std::sync::Arc::new(m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_tensor::init::{seeded_rng, sparse_activation_vector};

    #[test]
    fn trait_matvec_matches_dense_expansion() {
        let w = BlockPermDiagMatrix::random(32, 48, 4, &mut seeded_rng(1));
        let q = SharedWeightPdMatrix::quantize_4bit(&w, &mut seeded_rng(2));
        let x = sparse_activation_vector(&mut seeded_rng(3), 48, 0.5);
        let op: &dyn CompressedLinear = &q;
        let got = op.matvec(&x).unwrap();
        let expected = op.to_dense().matvec(&x);
        for (a, b) in got.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn quantization_error_is_small_and_reported() {
        let w = BlockPermDiagMatrix::random(64, 64, 8, &mut seeded_rng(4));
        let q = SharedWeightPdMatrix::quantize_4bit(&w, &mut seeded_rng(5));
        assert!(
            q.rms_error() >= 0.0 && q.rms_error() < 0.2,
            "rms {}",
            q.rms_error()
        );
        // Every stored value is one of at most 16 codewords.
        for &v in q.matrix().values() {
            assert!(q.table().codebook.iter().any(|&c| (c - v).abs() < 1e-6));
        }
    }

    #[test]
    fn storage_counts_tags_not_full_weights() {
        let w = BlockPermDiagMatrix::random(64, 64, 8, &mut seeded_rng(6));
        let q = SharedWeightPdMatrix::quantize_4bit(&w, &mut seeded_rng(7));
        let op: &dyn CompressedLinear = &q;
        assert_eq!(op.stored_weights(), 64 * 64 / 8);
        // 4 bits per tag + 16 codewords × 16 bits.
        assert_eq!(q.storage_bits(), (64 * 64 / 8) as u64 * 4 + 16 * 16);
        assert_eq!(op.mul_count(), (64 * 64 / 8) as u64);
    }

    #[test]
    fn trait_rejects_mis_sized_slices() {
        let w = BlockPermDiagMatrix::random(8, 8, 4, &mut seeded_rng(8));
        let q = SharedWeightPdMatrix::quantize_4bit(&w, &mut seeded_rng(9));
        let op: &dyn CompressedLinear = &q;
        assert!(matches!(
            op.matvec(&[0.0; 6]),
            Err(FormatError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn snapshot_round_trips_tags_not_values() {
        let w = BlockPermDiagMatrix::random(16, 24, 4, &mut seeded_rng(12));
        let q = SharedWeightPdMatrix::quantize_4bit(&w, &mut seeded_rng(13));
        let bytes = permdnn_core::snapshot::save_tensor(&q).unwrap();
        // ~4 bits/weight + the 16-entry codebook: far below the f32 PD payload.
        let f32_pd_payload = q.stored_weights() * 4;
        assert!(
            bytes.len() < f32_pd_payload / 2 + 256,
            "{} bytes vs {} for f32 values",
            bytes.len(),
            f32_pd_payload
        );
        let mut codec = permdnn_core::snapshot::SnapshotCodec::new();
        codec.register(permdnn_core::snapshot::FORMAT_SHARED_PD, decode_snapshot);
        let back = permdnn_core::snapshot::load_tensor(&bytes, &codec).unwrap();
        let x = sparse_activation_vector(&mut seeded_rng(14), 24, 0.5);
        let op: &dyn CompressedLinear = &q;
        assert_eq!(back.matvec(&x).unwrap(), op.matvec(&x).unwrap());
        assert_eq!(back.label(), op.label());
        assert_eq!(back.stored_weights(), op.stored_weights());
        assert_eq!(
            permdnn_core::snapshot::save_tensor(back.as_ref()).unwrap(),
            bytes
        );
    }

    #[test]
    fn label_names_both_mechanisms() {
        let w = BlockPermDiagMatrix::random(8, 8, 2, &mut seeded_rng(10));
        let q = SharedWeightPdMatrix::quantize(&w, 3, 10, &mut seeded_rng(11));
        let label = CompressedLinear::label(&q);
        assert!(label.contains("p=2") && label.contains("3-bit"), "{label}");
    }
}

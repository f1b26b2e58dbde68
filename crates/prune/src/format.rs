//! [`CompressedLinear`] implementations for the unstructured-sparse formats:
//! plain [`CscMatrix`] storage and the fully encoded
//! [`EieEncodedMatrix`] (4-bit tag + 4-bit relative index with padding).
//!
//! Both use the column-wise, input-zero-skipping dataflow of the EIE PE; the
//! encoded form additionally pays for padding entries, exactly as the hardware
//! does (Section II-B of the PermDNN paper).

use permdnn_core::format::{batch_len, check_dim, CompressedLinear, FormatError};
use permdnn_core::qlinear::QuantKernel;

use crate::csc::CscMatrix;
use crate::eie_format::EieEncodedMatrix;

impl CompressedLinear for CscMatrix {
    fn out_dim(&self) -> usize {
        self.rows()
    }

    fn in_dim(&self) -> usize {
        self.cols()
    }

    fn label(&self) -> String {
        format!("unstructured-sparse CSC (density={:.3})", self.density())
    }

    fn stored_weights(&self) -> usize {
        self.nnz()
    }

    fn mul_count(&self) -> u64 {
        // One multiplication per stored non-zero on a dense input.
        self.nnz() as u64
    }

    fn exploits_input_sparsity(&self) -> bool {
        true
    }

    fn matvec_into(&self, x: &[f32], y: &mut [f32]) -> Result<(), FormatError> {
        check_dim("matvec_into", self.cols(), x.len())?;
        check_dim("matvec_into", self.rows(), y.len())?;
        y.fill(0.0);
        for (c, &xc) in x.iter().enumerate() {
            if xc == 0.0 {
                continue;
            }
            for (r, v) in self.column(c) {
                y[r] += v * xc;
            }
        }
        Ok(())
    }

    /// Cache-blocked batched kernel: for each chunk of batch rows the outer
    /// loop walks the CSC columns once, scattering each column's entries
    /// across all chunk rows while its `row_idx`/`values` slices are hot in
    /// cache. Per output row the columns still arrive in ascending order with
    /// the same entry order per column, so every row is bit-identical to
    /// `matvec_into` on that row.
    fn matmul_into(
        &self,
        xs: &permdnn_core::format::BatchView<'_>,
        out: &mut [f32],
        scratch: &mut permdnn_core::Scratch,
    ) -> Result<(), FormatError> {
        let _ = scratch;
        check_dim("matmul_into", self.cols(), xs.dim())?;
        let m = self.rows();
        check_dim(
            "matmul_into",
            batch_len("matmul_into", xs.batch(), m)?,
            out.len(),
        )?;
        if m == 0 || xs.batch() == 0 {
            return Ok(());
        }
        let (col_ptr, row_idx, values) = self.raw_parts();
        const CHUNK: usize = 16;
        for (chunk_idx, out_chunk) in out.chunks_mut(CHUNK * m).enumerate() {
            let b0 = chunk_idx * CHUNK;
            let chunk_rows = out_chunk.len() / m;
            out_chunk.fill(0.0);
            for c in 0..self.cols() {
                let (s, e) = (col_ptr[c], col_ptr[c + 1]);
                if s == e {
                    continue;
                }
                for (bi, y) in out_chunk.chunks_mut(m).enumerate().take(chunk_rows) {
                    let xc = xs.row(b0 + bi)[c];
                    if xc == 0.0 {
                        continue;
                    }
                    for (&r, &v) in row_idx[s..e].iter().zip(&values[s..e]) {
                        y[r] += v * xc;
                    }
                }
            }
        }
        Ok(())
    }

    fn to_dense(&self) -> pd_tensor::Matrix {
        self.to_dense()
    }

    fn max_weight_abs(&self) -> f32 {
        (0..self.cols())
            .flat_map(|c| self.column(c))
            .fold(0.0f32, |m, (_, v)| m.max(v.abs()))
    }

    /// CSC is already the column-compressed layout the integer kernel runs —
    /// the conversion just quantizes the stored values.
    fn quantize_kernel(&self, weight_frac: u32) -> Option<QuantKernel> {
        let columns: Vec<Vec<(usize, f32)>> =
            (0..self.cols()).map(|c| self.column(c).collect()).collect();
        Some(QuantKernel::column_sparse(
            self.rows(),
            self.cols(),
            weight_frac,
            &columns,
        ))
    }

    /// Snapshot payload: rows, cols, nnz, column pointers, row indices and
    /// stored values — the CSC arrays verbatim, never a dense expansion.
    fn write_snapshot(&self, out: &mut permdnn_core::snapshot::ByteWriter) -> Option<u16> {
        out.dim(self.rows());
        out.dim(self.cols());
        out.u64(self.nnz() as u64);
        let mut total = 0usize;
        out.u32(0);
        for c in 0..self.cols() {
            total += self.column_nnz(c);
            out.u32(total as u32);
        }
        for c in 0..self.cols() {
            for (r, _) in self.column(c) {
                out.u32(r as u32);
            }
        }
        for c in 0..self.cols() {
            for (_, v) in self.column(c) {
                out.f32(v);
            }
        }
        Some(permdnn_core::snapshot::FORMAT_CSC)
    }
}

/// Decodes a [`FORMAT_CSC`](permdnn_core::snapshot::FORMAT_CSC) payload —
/// the [`permdnn_core::snapshot::DecodeFn`] registered by
/// `permdnn_nn::snapshot::codec`.
///
/// # Errors
///
/// Returns a typed [`permdnn_core::snapshot::SnapshotError`] for truncated or
/// structurally invalid payloads; never panics.
pub fn decode_csc_snapshot(
    r: &mut permdnn_core::snapshot::ByteReader<'_>,
    _codec: &permdnn_core::snapshot::SnapshotCodec,
) -> Result<std::sync::Arc<dyn CompressedLinear>, permdnn_core::snapshot::SnapshotError> {
    use permdnn_core::snapshot::SnapshotError;
    let rows = r.dim("csc rows")?;
    let cols = r.dim("csc cols")?;
    let nnz = r.u64("csc nnz")? as usize;
    // Guard before any allocation: col_ptr + row_idx + values bytes must all
    // be present for the declared nnz.
    if (nnz as u64).saturating_mul(8) > r.remaining() as u64 {
        return Err(SnapshotError::Truncated {
            context: "csc arrays",
            needed: (nnz as u64).saturating_mul(8),
            got: r.remaining() as u64,
        });
    }
    let col_ptr = r.u32_vec(cols + 1, "csc col_ptr")?;
    let row_idx = r.u32_vec(nnz, "csc row_idx")?;
    let values = r.f32_vec(nnz, "csc values")?;
    let m = CscMatrix::from_parts(rows, cols, col_ptr, row_idx, values).map_err(|reason| {
        SnapshotError::Malformed {
            context: "csc tensor",
            reason,
        }
    })?;
    Ok(std::sync::Arc::new(m))
}

impl CompressedLinear for EieEncodedMatrix {
    fn out_dim(&self) -> usize {
        self.rows()
    }

    fn in_dim(&self) -> usize {
        self.cols()
    }

    fn label(&self) -> String {
        "EIE encoded (4-bit tag + relative index)".to_string()
    }

    fn stored_weights(&self) -> usize {
        // Padding entries occupy weight SRAM like real ones — that overhead is
        // the point of the Fig. 4 comparison.
        self.stored_entries()
    }

    fn mul_count(&self) -> u64 {
        // Every stored entry (padding included) issues one multiply.
        self.stored_entries() as u64
    }

    fn exploits_input_sparsity(&self) -> bool {
        true
    }

    /// Runs the EIE decode loop directly into `y` — the same traversal as the
    /// inherent [`EieEncodedMatrix::matvec`], without its per-call output
    /// allocation and multiply-counter bookkeeping.
    fn matvec_into(&self, x: &[f32], y: &mut [f32]) -> Result<(), FormatError> {
        check_dim("matvec_into", self.cols(), x.len())?;
        check_dim("matvec_into", self.rows(), y.len())?;
        y.fill(0.0);
        let codebook = self.codebook();
        for (c, &xc) in x.iter().enumerate() {
            if xc == 0.0 {
                continue;
            }
            let mut r = 0usize;
            for e in self.column(c) {
                r += e.relative_index as usize;
                if e.is_padding {
                    r += 1;
                    continue; // multiply by zero codeword contributes nothing
                }
                y[r] += codebook[e.weight_tag as usize] * xc;
                r += 1;
            }
        }
        Ok(())
    }

    fn to_dense(&self) -> pd_tensor::Matrix {
        self.to_dense()
    }

    fn max_weight_abs(&self) -> f32 {
        self.codebook().iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Decodes tags through the codebook into the column-compressed integer
    /// kernel (via [`EieEncodedMatrix::decoded_column`], the same decode
    /// `to_dense` uses). Padding entries multiply by the zero codeword, so
    /// they contribute nothing numerically and are dropped from the kernel
    /// (their storage and multiply overhead stay accounted in
    /// `stored_weights` / `mul_count`, which this operator copies from the
    /// encoding).
    fn quantize_kernel(&self, weight_frac: u32) -> Option<QuantKernel> {
        let columns: Vec<Vec<(usize, f32)>> = (0..self.cols())
            .map(|c| self.decoded_column(c).collect())
            .collect();
        Some(QuantKernel::column_sparse(
            self.rows(),
            self.cols(),
            weight_frac,
            &columns,
        ))
    }

    /// Snapshot payload: the encoded form verbatim — field widths, codebook
    /// and per-column (tag, relative index, padding) entries. Padding entries
    /// are preserved so storage and multiply accounting survive the round
    /// trip exactly.
    fn write_snapshot(&self, out: &mut permdnn_core::snapshot::ByteWriter) -> Option<u16> {
        out.dim(self.rows());
        out.dim(self.cols());
        out.u8(self.weight_bits() as u8);
        out.u8(self.index_bits() as u8);
        out.u16(self.codebook().len() as u16);
        out.f32_slice(self.codebook());
        for c in 0..self.cols() {
            let column = self.column(c);
            out.u32(column.len() as u32);
            for e in column {
                out.u8(e.weight_tag);
                out.u8(e.relative_index);
                out.u8(u8::from(e.is_padding));
            }
        }
        Some(permdnn_core::snapshot::FORMAT_EIE)
    }
}

/// Decodes a [`FORMAT_EIE`](permdnn_core::snapshot::FORMAT_EIE) payload —
/// the [`permdnn_core::snapshot::DecodeFn`] registered by
/// `permdnn_nn::snapshot::codec`.
///
/// # Errors
///
/// Returns a typed [`permdnn_core::snapshot::SnapshotError`] for truncated or
/// structurally invalid payloads; never panics.
pub fn decode_eie_snapshot(
    r: &mut permdnn_core::snapshot::ByteReader<'_>,
    _codec: &permdnn_core::snapshot::SnapshotCodec,
) -> Result<std::sync::Arc<dyn CompressedLinear>, permdnn_core::snapshot::SnapshotError> {
    use crate::eie_format::EieEntry;
    use permdnn_core::snapshot::SnapshotError;
    let rows = r.dim("eie rows")?;
    let cols = r.dim("eie cols")?;
    let weight_bits = u32::from(r.u8("eie weight bits")?);
    let index_bits = u32::from(r.u8("eie index bits")?);
    let cb_len = r.u16("eie codebook length")? as usize;
    let codebook = r.f32_vec(cb_len, "eie codebook")?;
    let mut columns = Vec::with_capacity(cols.min(r.remaining() / 4 + 1));
    for _ in 0..cols {
        let count = r.u32("eie column count")? as usize;
        // Three bytes per entry must be present before allocating.
        if (count as u64).saturating_mul(3) > r.remaining() as u64 {
            return Err(SnapshotError::Truncated {
                context: "eie column entries",
                needed: (count as u64).saturating_mul(3),
                got: r.remaining() as u64,
            });
        }
        let mut column = Vec::with_capacity(count);
        for _ in 0..count {
            let weight_tag = r.u8("eie entry tag")?;
            let relative_index = r.u8("eie entry index")?;
            let is_padding = match r.u8("eie entry padding flag")? {
                0 => false,
                1 => true,
                other => {
                    return Err(SnapshotError::Malformed {
                        context: "eie entry padding flag",
                        reason: format!("flag {other} is not 0 or 1"),
                    })
                }
            };
            column.push(EieEntry {
                weight_tag,
                relative_index,
                is_padding,
            });
        }
        columns.push(column);
    }
    let m = EieEncodedMatrix::from_parts(rows, cols, weight_bits, index_bits, codebook, columns)
        .map_err(|reason| SnapshotError::Malformed {
            context: "eie tensor",
            reason,
        })?;
    Ok(std::sync::Arc::new(m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eie_format::uniform_codebook;
    use crate::prune::magnitude_prune;
    use pd_tensor::init::{seeded_rng, sparse_activation_vector, xavier_uniform};

    fn sparse_matrix(rows: usize, cols: usize, density: f64, seed: u64) -> pd_tensor::Matrix {
        magnitude_prune(&xavier_uniform(&mut seeded_rng(seed), rows, cols), density).pruned
    }

    #[test]
    fn csc_trait_matvec_matches_dense_expansion() {
        let m = sparse_matrix(24, 32, 0.2, 1);
        let csc = CscMatrix::from_dense(&m);
        let x = sparse_activation_vector(&mut seeded_rng(2), 32, 0.5);
        let op: &dyn CompressedLinear = &csc;
        let got = op.matvec(&x).unwrap();
        let expected = op.to_dense().matvec(&x);
        for (a, b) in got.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
        assert_eq!(op.stored_weights(), m.count_nonzeros());
    }

    #[test]
    fn eie_trait_matvec_matches_its_own_dense_decode() {
        let m = sparse_matrix(48, 48, 0.15, 3);
        let cb = uniform_codebook(4, m.max_abs());
        let enc = EieEncodedMatrix::encode(&m, &cb, 4, 4);
        let x = sparse_activation_vector(&mut seeded_rng(4), 48, 0.4);
        let op: &dyn CompressedLinear = &enc;
        let got = op.matvec(&x).unwrap();
        // The encoded form quantizes weights through the codebook, so the
        // reference is its *own* dense decode, not the original matrix.
        let expected = op.to_dense().matvec(&x);
        for (a, b) in got.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn trait_rejects_mis_sized_slices() {
        let csc = CscMatrix::from_dense(&sparse_matrix(8, 8, 0.5, 5));
        let op: &dyn CompressedLinear = &csc;
        assert!(matches!(
            op.matvec(&[0.0; 9]),
            Err(FormatError::DimensionMismatch {
                expected: 8,
                got: 9,
                ..
            })
        ));
        let mut y = [0.0; 3];
        assert!(op.matvec_into(&[0.0; 8], &mut y).is_err());
    }

    #[test]
    fn csc_and_eie_snapshots_round_trip_bit_exactly() {
        let mut codec = permdnn_core::snapshot::SnapshotCodec::new();
        codec.register(permdnn_core::snapshot::FORMAT_CSC, decode_csc_snapshot);
        codec.register(permdnn_core::snapshot::FORMAT_EIE, decode_eie_snapshot);
        let m = sparse_matrix(48, 24, 0.12, 9);
        let x = sparse_activation_vector(&mut seeded_rng(10), 24, 0.5);

        let csc = CscMatrix::from_dense(&m);
        let bytes = permdnn_core::snapshot::save_tensor(&csc).unwrap();
        let back = permdnn_core::snapshot::load_tensor(&bytes, &codec).unwrap();
        assert_eq!(
            back.matvec(&x).unwrap(),
            CompressedLinear::matvec(&csc, &x).unwrap()
        );
        assert_eq!(back.stored_weights(), csc.nnz());
        assert_eq!(
            permdnn_core::snapshot::save_tensor(back.as_ref()).unwrap(),
            bytes
        );

        let cb = uniform_codebook(4, m.max_abs());
        let enc = EieEncodedMatrix::encode(&m, &cb, 4, 4);
        let bytes = permdnn_core::snapshot::save_tensor(&enc).unwrap();
        let back = permdnn_core::snapshot::load_tensor(&bytes, &codec).unwrap();
        assert_eq!(
            back.matvec(&x).unwrap(),
            CompressedLinear::matvec(&enc, &x).unwrap()
        );
        // Padding entries survive, so the storage accounting is identical.
        assert_eq!(back.stored_weights(), enc.stored_entries());
        assert_eq!(
            permdnn_core::snapshot::save_tensor(back.as_ref()).unwrap(),
            bytes
        );
    }

    #[test]
    fn eie_stored_weights_include_padding_overhead() {
        let m = sparse_matrix(256, 64, 0.05, 6);
        let cb = uniform_codebook(4, m.max_abs());
        let enc = EieEncodedMatrix::encode(&m, &cb, 4, 4);
        let op: &dyn CompressedLinear = &enc;
        assert!(op.stored_weights() >= m.count_nonzeros());
        assert_eq!(op.stored_weights(), enc.stored_entries());
    }
}

//! Error type for permuted-diagonal construction and kernels.

/// Errors returned by fallible permuted-diagonal operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PdError {
    /// The block size `p` was zero.
    ZeroBlockSize,
    /// The block size exceeds the largest one whose permutation parameters
    /// fit a `u16`.
    BlockSizeTooLarge {
        /// The requested block size.
        p: usize,
        /// The largest supported block size.
        max: usize,
    },
    /// A permutation parameter was outside `0..p`.
    InvalidPermutation {
        /// The offending permutation value.
        k: usize,
        /// The block size.
        p: usize,
    },
    /// The number of supplied permutation parameters does not match the number of blocks.
    PermutationCountMismatch {
        /// Number of parameters supplied.
        got: usize,
        /// Number of blocks expected.
        expected: usize,
    },
    /// The number of supplied non-zero values does not match `block_rows * n` (one value
    /// per (block, row-within-block) pair).
    ValueCountMismatch {
        /// Number of values supplied.
        got: usize,
        /// Number expected.
        expected: usize,
    },
    /// An input vector had the wrong length for the operation.
    DimensionMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Expected length.
        expected: usize,
        /// Supplied length.
        got: usize,
    },
    /// A dense matrix being converted does not actually have permuted-diagonal structure.
    NotPermutedDiagonal {
        /// Row of the first offending non-zero entry.
        row: usize,
        /// Column of the first offending non-zero entry.
        col: usize,
    },
}

impl std::fmt::Display for PdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PdError::ZeroBlockSize => write!(f, "block size p must be non-zero"),
            PdError::BlockSizeTooLarge { p, max } => {
                write!(f, "block size {p} exceeds the largest supported ({max})")
            }
            PdError::InvalidPermutation { k, p } => {
                write!(f, "permutation parameter {k} is not in 0..{p}")
            }
            PdError::PermutationCountMismatch { got, expected } => {
                write!(f, "expected {expected} permutation parameters, got {got}")
            }
            PdError::ValueCountMismatch { got, expected } => {
                write!(f, "expected {expected} stored values, got {got}")
            }
            PdError::DimensionMismatch { op, expected, got } => {
                write!(
                    f,
                    "dimension mismatch in {op}: expected {expected}, got {got}"
                )
            }
            PdError::NotPermutedDiagonal { row, col } => write!(
                f,
                "dense matrix has a non-zero at ({row}, {col}) outside the permuted diagonal"
            ),
        }
    }
}

impl std::error::Error for PdError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = PdError::InvalidPermutation { k: 5, p: 4 };
        assert!(e.to_string().contains('5'));
        assert!(e.to_string().contains('4'));
        let e = PdError::DimensionMismatch {
            op: "matvec",
            expected: 8,
            got: 7,
        };
        assert!(e.to_string().contains("matvec"));
    }
}

//! Block-circulant matrix compression — the CIRCNN baseline PermDNN compares against.
//!
//! CIRCNN (Ding et al., MICRO 2017) compresses DNN weight matrices by tiling them with
//! `k × k` circulant blocks; each block is defined by its first row, and the block
//! mat-vec is computed as `IFFT(FFT(w) ∘ FFT(x))`. The PermDNN paper's comparison
//! (Sections II-C, III-H and V-C) rests on three properties of this scheme, all of which
//! are reproduced by this crate:
//!
//! 1. **Complex arithmetic** — the FFT path works on complex numbers, so each multiply is
//!    4 real multiplies + 2 real adds ([`Complex`], [`fft`]).
//! 2. **Power-of-two block sizes** — practical FFT hardware is 2ᵗ-point, restricting the
//!    achievable compression ratios ([`BlockCirculantMatrix::new`] enforces this for the
//!    FFT path and [`CirculantError::NonPowerOfTwo`] reports it).
//! 3. **No input-sparsity utilisation** — the input vector is transformed to the
//!    frequency domain, where its time-domain zeros are lost
//!    ([`BlockCirculantMatrix::matvec_fft`] necessarily touches every input).
//!
//! The crate also provides the l2-optimal circulant approximation of a dense matrix
//! (averaging along wrapped diagonals), mirroring `permdnn_core::approx` for the PD case.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod block;
pub mod complex;
pub mod cost;
pub mod fft;
pub mod format;
pub mod plan;

pub use block::{BlockCirculantMatrix, CirculantError, CirculantScratch};
pub use complex::Complex;
pub use plan::FftPlan;

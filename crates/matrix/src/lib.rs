//! # hmmm-matrix
//!
//! Matrix substrate for the Hierarchical Markov Model Mediator (HMMM)
//! video-database suite.
//!
//! The HMMM model (Zhao, Chen & Shyu, ICDE 2006) is built almost entirely out
//! of a small family of matrix shapes:
//!
//! * **Affinity / transition matrices** `A_n` — square, row-stochastic,
//!   optionally *temporal* (upper-triangular support, since a shot can only
//!   transition to a later shot within a video).
//! * **Feature matrices** `B_n` — rectangular, states × features.
//! * **Initial-state distributions** `Π_n` — stochastic row vectors.
//! * **Cross-level matrices** `P_{n,n+1}` (feature importance, row-stochastic)
//!   and `L_{n,n+1}` (0/1 link conditions).
//!
//! This crate provides exactly those building blocks: a row-major dense
//! [`Matrix`], a validated [`StochasticMatrix`] newtype whose rows are
//! guaranteed to sum to one, a [`ForwardCsr`] holding the sparse temporal
//! `A_1` (its stored entries only, with the Eq.-(2) normalization), and a
//! [`ProbVector`] for the `Π` distributions.
//!
//! Everything is `f64` and allocation-conscious: hot paths
//! (row normalization, row maxima) never allocate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod error;
pub mod order;
pub mod prob;
pub mod sparse;
pub mod stochastic;

pub use dense::Matrix;
pub use error::MatrixError;
pub use order::{cmp_f64, cmp_f64_desc};
pub use prob::ProbVector;
pub use sparse::ForwardCsr;
pub use stochastic::StochasticMatrix;

/// Tolerance used when validating stochastic invariants (row sums, probability
/// mass). Chosen so that accumulated floating-point error over tens of
/// thousands of columns still validates.
pub const STOCHASTIC_TOLERANCE: f64 = 1e-8;

//! Johnson–Lindenstrauss transforms (paper §5, Theorem 3).
//!
//! * [`dense`] — the classical dense Gaussian JL transform (baseline;
//!   `O(ndk)` work and `O(nd log n)` total space in MPC, which is what
//!   Theorem 3 improves on);
//! * [`fjlt`] — the sequential Fast Johnson–Lindenstrauss Transform of
//!   Ailon–Chazelle: `φ(x) = k^{-1/2}·P·H·D·x` with a sparse Gaussian
//!   `P`, the Walsh–Hadamard `H`, and a random-sign diagonal `D`;
//! * [`mpc`] — the paper's constant-round, sublinear-memory MPC
//!   implementation (Algorithm 3): `D` applied pointwise, `H` via a
//!   butterfly-grouped distributed WHT (`O(1/ε)` super-rounds), `P` via
//!   a sender-side combiner and distributed aggregation;
//! * [`audit`] — distortion reports comparing embedded to original
//!   pairwise distances.
//!
//! Both implementations derive `D` and `P` from the same seed with the
//! same counter streams, so the MPC transform computes the *same map*
//! as the sequential one (bit for bit when the WHT takes one
//! super-round, up to float summation order otherwise) — tested.

pub mod audit;
pub mod dense;
pub mod fjlt;
pub mod mpc;

pub use fjlt::{Fjlt, FjltParams};

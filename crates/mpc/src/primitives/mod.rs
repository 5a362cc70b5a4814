//! Classic O(1)-round MPC building blocks, built on
//! [`Runtime::round`](crate::cluster::Runtime::round).
//!
//! Every primitive uses `O(log_s M) = O(1/ε)` rounds, labels its internal
//! rounds (`"broadcast:…"`, `"join:route"`, …) so pipelines can attribute
//! their round budgets, and respects capacity enforcement.

pub mod aggregate;
pub mod broadcast;
pub mod join;
pub mod shuffle;

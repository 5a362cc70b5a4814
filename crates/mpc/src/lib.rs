//! A simulated **Massively Parallel Computation (MPC)** runtime.
//!
//! The paper targets the MPC model of Karloff–Suri–Vassilvitskii /
//! Beame–Koutris–Suciu in its most restrictive, *fully scalable* form:
//! the input occupies `N = n·d` machine words, each machine holds
//! `s = O(N^ε)` words of local memory for an arbitrary constant
//! `ε ∈ (0,1)`, computation proceeds in synchronous rounds, and in each
//! round a machine may send and receive at most `s` words. Algorithm
//! quality is measured by (rounds, local space, total space).
//!
//! No public MPC dataflow engine exists for Rust, so this crate *is* the
//! substrate (see DESIGN.md): it simulates a cluster faithfully enough
//! that the paper's complexity claims become checkable assertions:
//!
//! * **capacity enforcement** — every round checks each machine's input,
//!   kept, sent, and received word counts against `s` and fails the
//!   computation (it does not silently spill) on overflow;
//! * **round metering** — every communication round increments a counter
//!   and records per-round load statistics ([`metrics::Metrics`]);
//! * **parallel execution** — machines within a round run concurrently on
//!   a persistent chunked-cursor worker pool ([`exec`]), with
//!   deterministic message delivery order (by source machine id).
//!
//! On top of the raw [`cluster::Runtime::round`] primitive, the
//! [`primitives`] module provides the classic O(1)-round building blocks
//! the paper's algorithms assume: broadcast trees, aggregation trees,
//! hash shuffles, hash joins, and distributed deduplication.
//!
//! ```
//! use treeemb_mpc::cluster::Runtime;
//!
//! let mut rt = Runtime::builder()
//!     .input_words(1 << 16)
//!     .capacity_words(4096)
//!     .machines(16)
//!     .threads(2)
//!     .build();
//! let data: Vec<u64> = (0..1000).map(|i| i % 100).collect();
//! let dist = rt.distribute(data).unwrap();
//! let distinct = treeemb_mpc::primitives::shuffle::dedup_by_key(&mut rt, dist, |x| *x).unwrap();
//! assert_eq!(rt.metrics().rounds(), 1);
//! let mut keys = rt.gather(distinct);
//! keys.sort_unstable();
//! assert_eq!(keys, (0..100).collect::<Vec<u64>>());
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod config;
pub mod error;
pub mod exec;
pub mod fault;
pub mod metrics;
pub mod primitives;
pub(crate) mod sync;
pub mod words;

pub use cluster::{Dist, Emitter, MachineId, Runtime};
pub use config::{from_env, CheckpointPolicy, EnvOverrides, MpcConfig, RuntimeBuilder};
pub use error::{MpcError, MpcResult};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultRates, FaultSpec};
pub use words::Words;

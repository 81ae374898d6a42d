//! Minimal data-parallel primitives for the `fedsched` workspace.
//!
//! The workspace deliberately avoids heavyweight parallelism dependencies and
//! instead builds the few primitives it needs on top of [`crossbeam`]'s scoped
//! threads, following the patterns of *Rust Atomics and Locks*:
//!
//! * [`parallel_map`] / [`parallel_map_stealing`] — scoped fork-join maps
//!   with *deterministic* results: each result lands in its own index slot,
//!   whether the range is split statically or claimed through an atomic
//!   index. The federated-training loops and the NN crate's convolutions use
//!   the first; the population engine maps its cohorts with the second.
//! * [`parallel_for_slices`] — runs a closure over disjoint `&mut` chunks of
//!   one output buffer, the NN crate's batch-parallel kernels.
//! * [`chunk_ranges`] / [`fixed_chunks`] — balanced chunking of `0..n` into
//!   at most `k` ranges, and fixed-size chunking (the cohort sharding rule).
//!
//! All primitives guarantee data-race freedom through scoped borrows; no
//! `unsafe` is used anywhere in this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chunks;
mod scope_par;

pub use chunks::{chunk_ranges, fixed_chunks, ChunkRanges, FixedChunks};
pub use scope_par::{
    parallel_for_slices, parallel_map, parallel_map_stealing, recommended_threads,
};

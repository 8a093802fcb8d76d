//! The product-path benchmark of the TEE-Perf reproduction: four named
//! workloads, six end-to-end metrics every workload reports, and a
//! per-layer budget under them. See `README.md` beside this package.
//!
//! The layers are measured from outside, by timing calls into their public
//! functions; nothing under `crates/` knows this package exists.

#![forbid(unsafe_code)]

pub mod batch;
pub mod catalog;
pub mod daemon;
pub mod fleet;
pub mod gen;
pub mod json;
pub mod procfs;
pub mod report;
pub mod stats;
pub mod trace;

/// Any displayable failure as an `io::Error`: the harness has one error
/// type, and a failed run is reported, never recovered from.
pub(crate) fn other(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

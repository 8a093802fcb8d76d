//! # bench — the experiment harness
//!
//! One module per paper artifact, each with a `run_*` function the
//! figure-regenerating binaries (`src/bin/*.rs`) call at full scale and the
//! tests call at reduced scale:
//!
//! | module | regenerates | binary |
//! |---|---|---|
//! | [`fig4`] | Figure 4 — TEE-Perf overhead vs `perf` on Phoenix | `fig4_phoenix_overhead` |
//! | [`fig5`] | Figure 5 — RocksDB `db_bench` flame graph | `fig5_rocksdb_flamegraph` |
//! | [`fig6`] | Figure 6 + §IV-C IOPS table — SPDK case study | `fig6_spdk_casestudy` |
//! | [`ablations`] | sampling bias, counter sources, selective profiling, EPC paging | `ablation_*` |
//! | [`plog`] | the atomic-free partitioned log the reservation ablation compares against | `ablation_reservation` |
//! | [`regime`] | overhead-budgeted fidelity regimes under an overload ramp | `regime_bench` |
//!
//! Everything is deterministic; "10 runs" vary the workload seed, exactly
//! like re-running a benchmark binary on fresh inputs.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod plog;
pub mod regime;
pub mod util;

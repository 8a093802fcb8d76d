//! # teeperf-core — the TEE-Perf runtime (stages 1½ and 2 of the paper)
//!
//! This crate is the reproduction of TEE-Perf's primary contribution: an
//! architecture- and platform-independent method-level profiler runtime for
//! trusted execution environments (Bailleu et al., DSN 2019).
//!
//! It contains, mapped 1:1 onto the paper's §II-B:
//!
//! * [`layout`] — the bit-packed **log format** of Figure 2: a header with
//!   atomically mutable flags (active bit, call/return event mask,
//!   multithread bit, version), process id, maximum size, an atomically
//!   incremented tail index, the shared-memory mapping address and a
//!   profiler anchor address for relocation; plus 24-byte log entries
//!   packing a call/return bit with the counter value, the call/return
//!   target address, and the thread id.
//! * [`log`] — the **lock-free shared log**: writers reserve entries with a
//!   single fetch-and-add on the tail, so no critical section ever
//!   serializes the profiled threads (§II-C "Multithreading support").
//! * [`batch`] — **the append**: a per-thread [`BatchWriter`] is the one
//!   routine that reserves and publishes slots on the log. It claims a run
//!   of slots (one, as in the paper, or more) with one tail fetch-and-add
//!   and publishes them one-by-one; longer runs amortize the shared RMW
//!   that serializes writers at high thread counts, and unpublished
//!   remainders are reclaimed by rotation as counted holes.
//! * [`counter`] — the **software counter**: a host thread incrementing a
//!   word in shared memory in a tight loop ([`counter::SpinCounter`],
//!   sacrificing a core, as in the paper), a deterministic simulated variant
//!   driven by the virtual clock ([`counter::SimCounter`]) and a
//!   TSC-style hardware counter ([`counter::TscCounter`]) for the
//!   counter-source ablation.
//! * [`fidelity`] — **fidelity regimes**: the shared regime word
//!   (`Full` / `Sampled(1-in-N)` / `Quiescent`) published by the live
//!   drainer and the writer-side [`fidelity::FidelityGate`] that admits
//!   pair-coherent 1-in-N samples, so an overloaded session degrades
//!   disclosedly instead of dropping entries silently.
//! * [`hooks`] — the **injected code**: the
//!   `__cyg_profile_func_enter`/`_exit` analogue that runs at every call
//!   and return inside the enclave, reads the counter, reserves a log slot
//!   and writes the entry — charging the simulated machine for every shared
//!   memory access it performs, which is exactly the overhead Figure 4
//!   measures.
//! * [`recorder`] — the **recorder wrapper**: sets up the shared memory
//!   region, initializes the log to a known state, runs the counter, and
//!   drains the log to a persistent [`file::LogFile`] when measurement ends.
//! * [`shm_file`] — the **cross-process transport**: the same log layout
//!   in a file under `/dev/shm`, one writer per file, published by
//!   advancing the tail, so genuinely separate OS processes feed one
//!   consumer without `unsafe` ([`shm_file::FileShmWriter`] /
//!   [`shm_file::FileShmSource`]).
//! * [`api`] — a native-Rust profiling API used by the workload substrates
//!   (LSM store, SPDK port) that are written in Rust rather than Mini-C;
//!   it plays the role of linking `profiler.h` into a C++ code base.

#![forbid(unsafe_code)]

pub mod api;
pub mod batch;
pub mod counter;
pub mod faults;
pub mod fidelity;
pub mod file;
pub mod hooks;
pub mod layout;
pub mod log;
pub mod recorder;
pub mod shm_file;
pub mod source;

pub use api::{FunctionId, Probe, Profiler};
pub use batch::{BatchOutcome, BatchWriter};
pub use counter::{CounterSource, SimCounter, SpinCounter, TscCounter};
pub use faults::{
    ArmedFault, FaultKind, FaultPlan, FaultRng, FaultyWriter, SalvageReason, SalvageReport,
    WriteOutcome,
};
pub use fidelity::{decode_or_full, decode_regime, encode_regime, FidelityGate, Regime};
pub use file::LogFile;
pub use hooks::TeePerfHooks;
pub use layout::{
    EntryValidity, EventKind, HeaderFault, LogEntry, LogHeader, ENTRY_BYTES, HEADER_BYTES,
};
pub use log::{LogCursor, RotationOutcome, RotationStall, SharedLog};
pub use recorder::{Recorder, RecorderConfig};
pub use shm_file::{FileShmSource, FileShmWriter, ShmFileError};
pub use source::{EventSource, LiveLogSource, SourceBatch, SourceResilience};

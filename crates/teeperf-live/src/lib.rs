//! # teeperf-live — continuous profiling on top of the TEE-Perf pipeline
//!
//! The paper's pipeline is batch: record the whole run into one shared log,
//! stop, then analyze. That caps a session at the log's capacity — once the
//! tail passes `size`, every further event is dropped. This crate turns the
//! pipeline into a *streaming* one, so a session can run indefinitely over
//! a fixed-size log:
//!
//! * The drain itself lives in `teeperf_core`: a
//!   [`teeperf_core::EventSource`] — for a live log the
//!   [`teeperf_core::LiveLogSource`], which owns the persistent read cursor
//!   and runs the epoch-rotation protocol of `teeperf_core::log` (every
//!   append announces itself on the control word; the source quiesces
//!   writers only for the bounded rotation window) — is consumed directly
//!   by a session. Overflow is accounted explicitly, never a silent stop.
//! * [`rolling`] — an incremental analyzer: per-thread
//!   [`teeperf_analyzer::stacks::ResumableStacks`] carry open frames across
//!   epochs and intern their stacks in the session's one
//!   [`teeperf_analyzer::PathTable`]; completed calls land in rows indexed
//!   by stack id, whose memory grows with the distinct stacks, not with the
//!   stream.
//! * [`snapshot`] — serializable freezes of the rolling profile; two
//!   freezes diff through the batch comparator.
//! * [`session`] — the [`LiveSession`]: one event source drained into one
//!   rolling profile, frozen or rendered only on demand, and the
//!   [`DrainPolicy`] saying when it rotates a live log.
//! * [`driver`] — [`live_profile_processes`]: run an instrumented Mini-C
//!   program once per simulated process (one process is one pid) under
//!   the recorder's ordinary hooks while an instruction-cadence observer
//!   pumps one [`SessionRegistry`] (the deterministic, in-process
//!   equivalent of a host drainer thread) and draws the running process's
//!   frame history on a refresh cadence. Backs the `teeperf live` CLI
//!   subcommand.
//! * [`registry`] — the multi-process layer: a [`SessionRegistry`] keys
//!   one session per [`teeperf_core::EventSource`] by the pid in its log
//!   header, and folds every call a session's pump completes — onto the
//!   stacks of its [`teeperf_analyzer::NameSpace`], where each session
//!   remembers its own sit — into one running
//!   [`teeperf_analyzer::ProfileMerge`], the cross-process view whose
//!   totals are exactly the per-pid sums. Sessions attach and detach hot,
//!   and a source that declares itself dead (corrupt or cut log, producer
//!   gone) is quarantined. A detached or quarantined session is finished
//!   in place and stays in every view, its retained windows included.
//! * [`window`] — windowed retention: a [`RetentionRing`] of per-interval
//!   aggregates over the virtual clock with time-decayed coarsening, one
//!   ring per session (so one noisy pid cannot age out another's
//!   history), queried through the `teeperf_analyzer::query::windowed`
//!   spec — the time-travel layer behind `/windows`, `/query` and
//!   `teeperf query`.
//!
//! Sessions may also carry an [`OverheadBudget`]: a per-session fidelity
//! controller reads the drain's backpressure signals and walks the regime
//! ladder `Full → Sampled(1/N) → Quiescent` (publishing each shift through
//! the log's regime word so writer-side gates throttle at the source),
//! bias-correcting sampled windows so profiles report *estimated* totals
//! with a stated confidence instead of silently undercounting.

#![forbid(unsafe_code)]

pub mod driver;
pub mod registry;
pub mod rolling;
pub mod session;
pub mod snapshot;
pub mod window;

pub use driver::{live_profile_processes, LiveRun, LiveRunConfig, LiveRunError, ProcessRun};
pub use registry::{AttachError, RegistryRun, SessionRegistry, WatchdogConfig};
pub use rolling::RollingProfile;
pub use session::{DrainPolicy, LiveConfig, LiveSession, OverheadBudget};
pub use snapshot::{RegimeInfo, SessionEvent, Snapshot};
pub use window::{
    windows_from_text, windows_to_text, PidWindows, RetentionRing, RingConfig, RingEvent,
    WindowMeta, WindowSel,
};

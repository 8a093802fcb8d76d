//! `teeperf-check`: a concurrency-correctness toolchain for the lock-free
//! shared-memory log ([`teeperf_core::log`]).
//!
//! Two halves, both offline and dependency-free:
//!
//! * **Model checking** ([`sched`], [`harness`], [`explore`]): the real
//!   `BatchWriter::append` / `poll` / `rotate` protocol code runs against a
//!   virtual scheduler (via the [`tee_sim::MemModel`] seam) that owns every
//!   interleaving decision. Small configs are enumerated exhaustively
//!   under a preemption bound; larger ones are swept with seeded
//!   PCT-style random schedules. Machine-checked invariants: every
//!   published entry is drained exactly once or counted dropped exactly
//!   once, `dropped_total` never over-counts across rotation, reused
//!   slots never resurrect stale payloads, and the rotation handshake
//!   terminates. A mutation mode re-introduces the historical bug classes
//!   (behind `teeperf-core`'s test-only `mutation-testing` feature) and
//!   the checker finds each within a bounded schedule budget, emitting a
//!   deterministically replayable trace.
//!
//! * **Protocol linting** ([`lint`]): a token-level pass over the
//!   workspace's `.rs` sources enforcing the conventions the model
//!   checker's soundness rests on — no raw atomics outside the seam,
//!   every atomic `Ordering` choice justified by an `// ord:` comment, no
//!   wall-clock or OS randomness in protocol modules, and no `unsafe`
//!   anywhere.
//!
//! Binaries: `teeperf-check` (the checker CLI) and `teeperf-lint` (the
//! lint pass; exits non-zero on violations). See `DESIGN.md` §11.

#![forbid(unsafe_code)]

pub mod explore;
pub mod harness;
pub mod lint;
pub mod sched;

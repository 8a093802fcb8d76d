//! The lock-free shared-memory log.
//!
//! One [`SharedLog`] wraps an untrusted [`SharedMem`] region laid out per
//! [`crate::layout`]. Writers (the injected code inside the enclave) reserve
//! slots with a single fetch-and-add on the tail word and then fill the
//! three entry words — the one append routine is
//! [`crate::batch::BatchWriter::append`]; this module holds the log itself
//! and the drain side. There is no lock anywhere on the hot path, so — as
//! the paper argues — profiling never introduces a critical section that
//! could distort the measured application's concurrency behaviour.
//!
//! All methods here perform the *data* movement; the *cycle cost* of the
//! enclave-side accesses is charged by [`crate::hooks`], which knows it is
//! running inside the simulated machine.

use std::sync::Arc;

use tee_sim::SharedMem;

use std::error::Error;
use std::fmt;

use crate::fidelity::{self, Regime};
pub use crate::layout::make_header;
use crate::layout::{
    EventKind, HeaderFault, HeaderRule, LogEntry, LogHeader, ENTRY_BYTES, FLAG_ACTIVE,
    FLAG_ROTATING, FLAG_TRACE_CALLS, FLAG_TRACE_RETURNS, HEADER_BYTES, OFF_ABANDONED,
    OFF_ABANDONED_EPOCH, OFF_CONTROL, OFF_COUNTER, OFF_DROPPED, OFF_EPOCH, OFF_REGIME, OFF_SIZE,
    OFF_TAIL, WRITERS_MASK, WRITER_ONE,
};

/// A handle onto the shared log. Cheap to clone; clones alias the same
/// underlying region (like two mappings of the same shared memory).
#[derive(Debug, Clone)]
pub struct SharedLog {
    shm: Arc<SharedMem>,
    size: u64,
    /// Armed protocol mutation (verification builds only; see [`mutation`]).
    #[cfg(feature = "mutation-testing")]
    mutation: mutation::Mutation,
}

/// Re-introducible historical bug classes, used by the `teeperf-check`
/// model checker to prove it has teeth (ISSUE 6 "mutation mode").
///
/// Each variant is a concurrency bug this protocol actually shipped with
/// and later fixed by hand-review; the checker must find every one within
/// a bounded schedule budget. The whole module only exists under the
/// `mutation-testing` feature, and even then every mutation is off unless
/// armed per-handle with [`SharedLog::with_mutation`].
#[cfg(feature = "mutation-testing")]
pub mod mutation {
    /// Which (if any) historical bug to re-introduce into the rotation.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
    pub enum Mutation {
        /// The protocol as shipped today: no bug.
        #[default]
        None,
        /// PR-1 bug class (stale-slot resurrection): rotation does not
        /// zero the drained slots' publication words, so `poll` in the
        /// next epoch can mistake a leftover word 0 for a freshly
        /// published entry on a slot that is reserved but not yet
        /// written.
        SkipSlotClear,
        /// PR-1-review / PR-5 bug class (drop double-counting): rotation
        /// accumulates the closing epoch's overflow into the cumulative
        /// dropped word *before* resetting the tail, so a concurrent
        /// `dropped_total` reader can observe the same drops in both
        /// words at once.
        CountDropsBeforeTailReset,
        /// Batched-reservation bug class (abandoned-as-dropped): rotation
        /// counts the closing epoch's over-capacity batch hand-backs as
        /// overflow *drops* while also accounting them as abandoned, so
        /// every hand-back is charged twice and the drop total no longer
        /// equals attempts minus written.
        CountAbandonedAsDropped,
        /// Fidelity-regime bug class (torn regime read): the reader loads
        /// the regime word twice and recombines the first load's low half
        /// (regime epoch) with the second load's high half (tag + N),
        /// then decodes *without* the check-byte validation — fabricating
        /// an `(N, regime epoch)` pairing that was never published when a
        /// regime change lands between the two loads.
        TornRegimeRead,
    }
}

/// Bytes of shared memory needed for a log of `max_entries`.
pub fn region_bytes(max_entries: u64) -> u64 {
    HEADER_BYTES + max_entries * ENTRY_BYTES
}

impl SharedLog {
    /// Initialize a fresh log in `shm` (host side, before the application
    /// starts — the paper's "initialize the shared memory to a known
    /// state"). `shm_addr` is the address at which the region is mapped
    /// inside the enclave and `anchor` the profiler anchor function address.
    ///
    /// # Panics
    /// Panics if `shm` is too small for even one entry.
    pub fn init(shm: Arc<SharedMem>, header: &LogHeader) -> SharedLog {
        assert!(
            shm.size() >= region_bytes(1),
            "shared region too small for a log"
        );
        let max_entries = (shm.size() - HEADER_BYTES) / ENTRY_BYTES;
        let size = header.size.min(max_entries);
        // One store per header word, in offset order (the all-zero regime
        // word is the valid encoding of Full @ regime epoch 0).
        let fresh = LogHeader {
            size,
            tail: 0,
            ..*header
        };
        fresh.encode(|off, word| shm.write_u64(off, word).expect("header in range"));
        SharedLog {
            shm,
            size,
            #[cfg(feature = "mutation-testing")]
            mutation: mutation::Mutation::None,
        }
    }

    /// Attach to an already initialized log (e.g. the enclave side mapping
    /// the region the recorder prepared).
    pub fn attach(shm: Arc<SharedMem>) -> SharedLog {
        let size = shm.read_u64(OFF_SIZE).expect("header in range");
        SharedLog {
            shm,
            size,
            #[cfg(feature = "mutation-testing")]
            mutation: mutation::Mutation::None,
        }
    }

    /// Arm a protocol [`mutation::Mutation`] on this handle (verification
    /// builds only). Mutations act where the handle performs the mutated
    /// step — both rotation mutations take effect on the drainer's handle.
    #[cfg(feature = "mutation-testing")]
    #[must_use]
    pub fn with_mutation(mut self, mutation: mutation::Mutation) -> SharedLog {
        self.mutation = mutation;
        self
    }

    /// The underlying shared region.
    pub fn shm(&self) -> &Arc<SharedMem> {
        &self.shm
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> u64 {
        self.size
    }

    /// One header word, in one shared-memory access.
    fn word(&self, off: u64) -> u64 {
        self.shm.read_u64(off).expect("header in range")
    }

    /// Read and decode the current header.
    pub fn header(&self) -> LogHeader {
        LogHeader::decode(|off| self.word(off))
    }

    /// Atomically read the control word (the hot-path "is tracing on" check).
    pub fn control_word(&self) -> u64 {
        self.word(OFF_CONTROL)
    }

    /// Whether an event of `kind` should currently be recorded.
    pub fn should_record(&self, kind: EventKind) -> bool {
        let c = self.control_word();
        c & FLAG_ACTIVE != 0
            && match kind {
                EventKind::Call => c & FLAG_TRACE_CALLS != 0,
                EventKind::Return => c & FLAG_TRACE_RETURNS != 0,
            }
    }

    /// Atomically flip the active bit (dynamic de-/activation, §II-B).
    pub fn set_active(&self, active: bool) {
        if active {
            self.shm
                .fetch_or_u64(OFF_CONTROL, FLAG_ACTIVE)
                .expect("header in range");
        } else {
            self.shm
                .fetch_and_u64(OFF_CONTROL, !FLAG_ACTIVE)
                .expect("header in range");
        }
    }

    /// Current value of the software-counter word.
    pub fn counter_value(&self) -> u64 {
        self.shm.read_u64(OFF_COUNTER).expect("header in range")
    }

    /// Host-side: store a new counter value (what the spin thread does).
    pub fn store_counter(&self, v: u64) {
        self.shm.write_u64(OFF_COUNTER, v).expect("header in range");
    }

    /// Read back the entry at `index` (host side / tests).
    ///
    /// # Panics
    /// Panics if `index >= capacity()`.
    pub fn read_entry(&self, index: u64) -> LogEntry {
        assert!(index < self.size, "entry index out of range");
        let off = LogEntry::offset_of(index);
        let words = self.shm.read_words(off, 3).expect("entry in range");
        LogEntry::unpack([words[0], words[1], words[2]])
    }

    /// Snapshot all stored entries (host side, after measurement).
    pub fn drain_entries(&self) -> Vec<LogEntry> {
        let stored = self.header().stored_entries();
        (0..stored).map(|i| self.read_entry(i)).collect()
    }

    // ---- continuous-profiling (live) API --------------------------------
    //
    // A batch recording never calls anything below: the recorder stops the
    // writers, then drains. A live drainer instead consumes the log while
    // writers keep appending, and "rotates" the log (reset tail, bump
    // epoch) whenever it has caught up or the log is near capacity. Every
    // append announces on the control word, so either may happen to any log.

    /// Number of completed drain rotations.
    pub fn epoch(&self) -> u64 {
        self.shm.read_u64(OFF_EPOCH).expect("header in range")
    }

    /// Writers currently inside an append ([`crate::batch::BatchWriter::append`]).
    pub fn writers_in_flight(&self) -> u64 {
        (self.control_word() & WRITERS_MASK) >> WRITER_ONE.trailing_zeros()
    }

    /// Entries dropped on overflow, summed over all completed epochs plus
    /// the overflow of the current epoch.
    ///
    /// Exact from the drainer thread (between its [`SharedLog::rotate`]
    /// calls). From any other thread, a rotation in progress may
    /// transiently *under*-report while the closing epoch's drops move
    /// from the header tail into the cumulative word — rotate orders the
    /// two stores so the sum never counts the same drop twice.
    ///
    /// The sum spans three header words, so the reads are bracketed
    /// seqlock-style: part of the current epoch's tail overflow may be
    /// batch hand-backs (slots a reservation claimed past the end and
    /// immediately gave back — abandoned, not dropped), and subtracting a
    /// hand-back word read *before* a concurrent hand-back landed against
    /// a tail read *after* it would over-count. Retrying until the
    /// hand-back and epoch words are stable across the snapshot keeps the
    /// only residual tear the cumulative-word one, which orders as an
    /// under-count (the cumulative word is read before the tail, and
    /// rotation resets the tail before folding into it).
    pub fn dropped_total(&self) -> u64 {
        loop {
            let epoch = self.epoch();
            let handed_back = self
                .shm
                .read_u64(OFF_ABANDONED_EPOCH)
                .expect("header in range");
            let completed = self.shm.read_u64(OFF_DROPPED).expect("header in range");
            let overflow = self.header().dropped_entries();
            let handed_back_after = self
                .shm
                .read_u64(OFF_ABANDONED_EPOCH)
                .expect("header in range");
            if handed_back_after == handed_back && self.epoch() == epoch {
                return completed + overflow.saturating_sub(handed_back);
            }
        }
    }

    /// Batch-reserved slots that were never published, summed over all
    /// completed epochs plus the current epoch's over-capacity hand-backs.
    /// In-capacity holes of the *current* epoch (a batch run a writer has
    /// reserved but not yet published, or left behind at exit) are only
    /// counted when the next rotation drains past them.
    ///
    /// Exact from the drainer thread; from any other thread a rotation in
    /// progress may transiently under-report while the epoch word folds
    /// into the cumulative word (same once-only discipline as
    /// [`SharedLog::dropped_total`]).
    pub fn abandoned_total(&self) -> u64 {
        let completed = self.shm.read_u64(OFF_ABANDONED).expect("header in range");
        let epoch = self
            .shm
            .read_u64(OFF_ABANDONED_EPOCH)
            .expect("header in range");
        completed + epoch
    }

    /// Read all entries published since the cursor's position without
    /// stopping the writers. Advances the cursor. Stops early at the first
    /// slot whose kind+counter word is still zero (either not yet published
    /// or a return at counter zero — both are picked up by the next
    /// [`SharedLog::rotate`], which reads after writers have quiesced).
    ///
    /// # Panics
    /// Panics if the cursor belongs to a previous epoch; only the single
    /// drainer that owns the cursor may rotate the log.
    pub fn poll(&self, cursor: &mut LogCursor) -> Vec<LogEntry> {
        assert_eq!(
            cursor.epoch,
            self.epoch(),
            "stale cursor: the log rotated without this cursor"
        );
        let stored = self.header().stored_entries();
        let mut out = Vec::new();
        while cursor.index < stored {
            let off = LogEntry::offset_of(cursor.index);
            let words = self.shm.read_words(off, 3).expect("entry in range");
            if words[0] == 0 {
                break;
            }
            out.push(LogEntry::unpack([words[0], words[1], words[2]]));
            cursor.index += 1;
        }
        out
    }

    /// Verify the header's integrity words: the magic written at init, the
    /// structure version, and the size word against the capacity this
    /// handle attached with. A writer that scribbled over the header (or a
    /// region that was never initialized) fails here, and the caller knows
    /// not to trust the tail, epoch or dropped words either.
    ///
    /// # Errors
    /// The first [`HeaderFault`] found, most fundamental first (a bad magic
    /// masks everything else).
    pub fn verify_header(&self) -> Result<(), HeaderFault> {
        LogHeader::check(|off| self.word(off), HeaderRule::Attached(self.size))
    }

    /// Rotate the log: block new writers, wait for in-flight writers to
    /// finish, drain every entry the cursor has not seen, account overflow
    /// drops, reset the tail, and open the next epoch. Writers that arrive
    /// during the rotation spin in their append (bounded by the drain,
    /// which is O(capacity)) — the workload is never stopped.
    ///
    /// Waits for in-flight writers forever; a writer that died inside an
    /// append hangs this call. Crash-resilient drainers use
    /// [`SharedLog::try_rotate`] instead.
    pub fn rotate(&self, cursor: &mut LogCursor) -> RotationOutcome {
        self.try_rotate(cursor, u64::MAX)
            .expect("unbounded quiesce cannot stall")
    }

    /// [`SharedLog::rotate`] with a bounded quiesce: give in-flight writers
    /// `spin_limit` spin iterations to publish and leave. If any writer is
    /// still announced after that, the rotation is abandoned — the rotating
    /// flag is cleared so live writers are never blocked on a drainer that
    /// gave up — and the stall is reported instead of hanging the drainer
    /// (the crashed-enclave case: a writer that died between announcing and
    /// withdrawing never leaves).
    ///
    /// # Errors
    /// [`RotationStall`] with the number of writers still announced.
    ///
    /// # Panics
    /// Panics if the cursor belongs to a previous epoch; only the single
    /// drainer that owns the cursor may rotate the log.
    pub fn try_rotate(
        &self,
        cursor: &mut LogCursor,
        spin_limit: u64,
    ) -> Result<RotationOutcome, RotationStall> {
        assert_eq!(
            cursor.epoch,
            self.epoch(),
            "stale cursor: the log rotated without this cursor"
        );
        // Close the epoch to new writers. A single fetch-OR (rather than a
        // compare-exchange loop) cannot starve against the writers'
        // fetch-adds on the same word.
        self.shm
            .fetch_or_u64(OFF_CONTROL, FLAG_ROTATING)
            .expect("header in range");
        // Wait for announced writers to publish and leave. Reading the same
        // word the writers RMW gives a total order: any writer that slipped
        // in before the flag was set is visible here.
        let mut spins = 0u64;
        while self.control_word() & WRITERS_MASK != 0 {
            if spins >= spin_limit {
                // Reopen the log before giving up: surviving writers must
                // not spin against an abandoned rotation.
                self.shm
                    .fetch_and_u64(OFF_CONTROL, !FLAG_ROTATING)
                    .expect("header in range");
                return Err(RotationStall {
                    writers: self.writers_in_flight(),
                });
            }
            spins += 1;
            // Through the seam, not std::hint::spin_loop(), so a model
            // checker can park this thread until a writer withdraws.
            self.shm.spin_hint();
        }
        let tail = self.shm.read_u64(OFF_TAIL).expect("header in range");
        let stored = tail.min(self.size);
        let raw_over = tail.saturating_sub(self.size);
        // Writers are quiesced, so the epoch hand-back word is stable: it
        // counts the over-capacity slots batch reservations claimed past
        // the end of the log and gave straight back. Those inflate the tail
        // overflow but are abandoned slots, not dropped events.
        let handed_back = self
            .shm
            .read_u64(OFF_ABANDONED_EPOCH)
            .expect("header in range");
        #[cfg(feature = "mutation-testing")]
        let abandoned_as_dropped = self.mutation == mutation::Mutation::CountAbandonedAsDropped;
        #[cfg(not(feature = "mutation-testing"))]
        let abandoned_as_dropped = false;
        let dropped = if abandoned_as_dropped {
            // Mutated accounting (batched-reservation bug): charge the
            // hand-backs as drops too, double-counting every one of them.
            raw_over
        } else {
            raw_over.saturating_sub(handed_back)
        };
        // Drain, skipping unpublished holes: a batch writer that rotated
        // away mid-run (or exited) leaves word-0-zero slots inside the
        // stored range. They carry no event, so they are counted as
        // abandoned rather than delivered as all-zero records. Torn
        // records (word 0 published, address zero) are still delivered for
        // downstream salvage accounting.
        let mut holes = 0u64;
        let mut entries: Vec<LogEntry> = Vec::with_capacity((stored - cursor.index) as usize);
        for i in cursor.index..stored {
            let e = self.read_entry(i);
            if e.validity() == crate::layout::EntryValidity::Unpublished {
                holes += 1;
            } else {
                entries.push(e);
            }
        }
        let abandoned = holes + handed_back;
        #[cfg(feature = "mutation-testing")]
        let count_drops_first = self.mutation == mutation::Mutation::CountDropsBeforeTailReset;
        #[cfg(not(feature = "mutation-testing"))]
        let count_drops_first = false;
        if count_drops_first && dropped > 0 {
            // Mutated order (historical bug): cumulative word first, tail
            // still carrying the same drops until the reset below.
            self.shm
                .fetch_add_u64(OFF_DROPPED, dropped)
                .expect("header in range");
        }
        // Reset the tail *before* accounting its overflow in the cumulative
        // word: the two contributions to `dropped_total` then never include
        // the same drops at the same time (see its docs). The epoch
        // hand-back word follows the same discipline against
        // `abandoned_total`: reset first, accumulate after.
        self.shm.write_u64(OFF_TAIL, 0).expect("header in range");
        self.shm
            .write_u64(OFF_ABANDONED_EPOCH, 0)
            .expect("header in range");
        if !count_drops_first && dropped > 0 {
            self.shm
                .fetch_add_u64(OFF_DROPPED, dropped)
                .expect("header in range");
        }
        if abandoned > 0 {
            self.shm
                .fetch_add_u64(OFF_ABANDONED, abandoned)
                .expect("header in range");
        }
        #[cfg(feature = "mutation-testing")]
        let skip_slot_clear = self.mutation == mutation::Mutation::SkipSlotClear;
        #[cfg(not(feature = "mutation-testing"))]
        let skip_slot_clear = false;
        // Zero the published word of every drained slot so the next epoch
        // starts from the state the append's publication order assumes:
        // `poll` must never mistake a leftover word 0 for a freshly
        // published entry on a reused slot.
        if !skip_slot_clear {
            for i in 0..stored {
                self.shm
                    .write_u64(LogEntry::offset_of(i), 0)
                    .expect("entry in range");
            }
        }
        let new_epoch = self
            .shm
            .fetch_add_u64(OFF_EPOCH, 1)
            .expect("header in range")
            + 1;
        // Reopen the log for writers (wait-free for the same reason as the
        // close above).
        self.shm
            .fetch_and_u64(OFF_CONTROL, !FLAG_ROTATING)
            .expect("header in range");
        cursor.epoch = new_epoch;
        cursor.index = 0;
        Ok(RotationOutcome {
            entries,
            dropped,
            abandoned,
            new_epoch,
        })
    }

    /// Forcibly clear the writers-in-flight count: declare every announced
    /// writer dead and reclaim the log for rotation.
    ///
    /// This is the salvage path of last resort, for when a watchdog has
    /// decided the producing process is gone (repeated [`RotationStall`]s,
    /// a dead pid): a writer that crashed inside an append
    /// leaves its announcement on the control word forever, and nothing
    /// else can ever rotate the log again. Calling this while a writer is
    /// actually alive corrupts the writers count when that writer later
    /// withdraws — callers own the "is it really dead" judgement.
    ///
    /// Returns the number of writers that were declared dead.
    pub fn force_reclaim_writers(&self) -> u64 {
        let prev = self
            .shm
            .fetch_and_u64(OFF_CONTROL, !WRITERS_MASK)
            .expect("header in range");
        (prev & WRITERS_MASK) >> WRITER_ONE.trailing_zeros()
    }

    // ---- fidelity-regime word -------------------------------------------

    /// Raw value of the fidelity regime word (single atomic load).
    pub fn regime_word(&self) -> u64 {
        self.shm.read_u64(OFF_REGIME).expect("header in range")
    }

    /// Read and decode the fidelity regime word. Returns the regime, the
    /// regime epoch of the publication, and whether the decoder fell back
    /// to `Full` because the word failed validation (corruption — the
    /// drainer's own stores are always whole-word and valid).
    ///
    /// Under the `TornRegimeRead` mutation this performs the historical
    /// buggy read: two loads recombined lo/hi with no validation.
    pub fn regime_observed(&self) -> (Regime, u32, bool) {
        #[cfg(feature = "mutation-testing")]
        if self.mutation == mutation::Mutation::TornRegimeRead {
            let lo = self.shm.read_u64(OFF_REGIME).expect("header in range");
            let hi = self.shm.read_u64(OFF_REGIME).expect("header in range");
            let torn = (lo & 0xffff_ffff) | (hi & !0xffff_ffff);
            let (regime, epoch) = fidelity::decode_unchecked(torn);
            return (regime, epoch, false);
        }
        fidelity::decode_or_full(self.regime_word())
    }

    /// Drain side: publish a regime at `regime_epoch`. One whole-word
    /// store under the existing publication discipline — the drainer is
    /// the regime word's only writer, so readers can never see a torn
    /// value through the protocol itself.
    pub fn set_regime(&self, regime: Regime, regime_epoch: u32) {
        self.shm
            .write_u64(OFF_REGIME, fidelity::encode_regime(regime, regime_epoch))
            .expect("header in range");
    }
}

/// A bounded rotation gave up: writers were still announced after the spin
/// limit (see [`SharedLog::try_rotate`]). The log was reopened; nothing was
/// drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotationStall {
    /// Writers still in flight when the rotation was abandoned.
    pub writers: u64,
}

impl fmt::Display for RotationStall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rotation stalled: {} writer(s) still announced after the quiesce deadline",
            self.writers
        )
    }
}

impl Error for RotationStall {}

/// Position of a live drainer within the shared log: which epoch it is
/// reading and how many of that epoch's entries it has consumed. Create
/// one per drainer with `LogCursor::default()` and pass it to
/// [`SharedLog::poll`] / [`SharedLog::rotate`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogCursor {
    /// Epoch this cursor is positioned in.
    pub epoch: u64,
    /// Index of the next unread entry within the epoch.
    pub index: u64,
}

/// What a [`SharedLog::rotate`] call recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RotationOutcome {
    /// Entries drained between the cursor position and the end of the
    /// closed epoch (in log order).
    pub entries: Vec<LogEntry>,
    /// Entries the closed epoch dropped on overflow (now accounted in the
    /// header's cumulative-dropped word).
    pub dropped: u64,
    /// Batch-reserved slots the closed epoch abandoned without publishing:
    /// unpublished in-capacity holes skipped by the drain plus
    /// over-capacity hand-backs (now accounted in the header's
    /// cumulative-abandoned word).
    pub abandoned: u64,
    /// Epoch number now open for writers.
    pub new_epoch: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{LOG_MAGIC, LOG_VERSION, OFF_MAGIC};
    use proptest::prelude::*;

    fn fresh(max_entries: u64) -> SharedLog {
        let shm = Arc::new(SharedMem::new(region_bytes(max_entries)));
        SharedLog::init(
            shm,
            &make_header(77, max_entries, true, 0x40_0000, tee_sim::SHM_BASE),
        )
    }

    /// Claim the next slot without publishing it: the state a writer is in
    /// mid-append, seen from another thread.
    fn reserve_hole(log: &SharedLog) -> u64 {
        log.shm().fetch_add_u64(OFF_TAIL, 1).unwrap()
    }

    #[test]
    fn init_writes_known_state() {
        let log = fresh(16);
        let h = log.header();
        assert!(h.active && h.trace_calls && h.trace_returns && h.multithread);
        assert_eq!(h.version, LOG_VERSION);
        assert_eq!(h.pid, 77);
        assert_eq!(h.size, 16);
        assert_eq!(h.tail, 0);
        assert_eq!(h.anchor, 0x40_0000);
        assert_eq!(h.shm_addr, tee_sim::SHM_BASE);
        assert_eq!(log.counter_value(), 0);
    }

    #[test]
    fn attach_sees_initialized_log() {
        let shm = Arc::new(SharedMem::new(region_bytes(8)));
        let host = SharedLog::init(Arc::clone(&shm), &make_header(1, 8, false, 0, 0));
        let enclave = SharedLog::attach(shm);
        assert_eq!(enclave.capacity(), 8);
        host.store_counter(99);
        assert_eq!(enclave.counter_value(), 99);
    }

    #[test]
    fn reserve_and_write_round_trip() {
        let log = fresh(4);
        let e = LogEntry {
            kind: EventKind::Call,
            counter: 1000,
            addr: 0x40_0040,
            tid: 2,
        };
        assert_eq!(log.write_live(&e), Some(0));
        assert_eq!(log.read_entry(0), e);
        assert_eq!(log.header().tail, 1);
    }

    #[test]
    fn full_log_drops_but_counts() {
        let log = fresh(2);
        let e = LogEntry {
            kind: EventKind::Return,
            counter: 5,
            addr: 1,
            tid: 0,
        };
        for _ in 0..5 {
            log.write_live(&e);
        }
        let h = log.header();
        assert_eq!(h.tail, 5);
        assert_eq!(h.stored_entries(), 2);
        assert_eq!(h.dropped_entries(), 3);
        assert_eq!(log.drain_entries().len(), 2);
    }

    #[test]
    fn set_active_toggles_only_active_bit() {
        let log = fresh(2);
        assert!(log.should_record(EventKind::Call));
        log.set_active(false);
        assert!(!log.should_record(EventKind::Call));
        assert!(!log.should_record(EventKind::Return));
        let h = log.header();
        assert!(h.trace_calls && h.trace_returns, "event mask must survive");
        assert_eq!(h.version, LOG_VERSION, "version must survive");
        log.set_active(true);
        assert!(log.should_record(EventKind::Return));
    }

    #[test]
    fn event_mask_respected() {
        let shm = Arc::new(SharedMem::new(region_bytes(2)));
        let mut h = make_header(1, 2, false, 0, 0);
        h.trace_returns = false;
        let log = SharedLog::init(shm, &h);
        assert!(log.should_record(EventKind::Call));
        assert!(!log.should_record(EventKind::Return));
    }

    #[test]
    fn concurrent_reservation_is_duplicate_free() {
        let log = fresh(4_000);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let log = log.clone();
            handles.push(std::thread::spawn(move || {
                let mut w = log.batch_writer(1);
                for k in 0..1_000u64 {
                    w.append(&LogEntry {
                        kind: EventKind::Call,
                        counter: k,
                        addr: t * 10_000 + k,
                        tid: t,
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let entries = log.drain_entries();
        assert_eq!(entries.len(), 4_000);
        // Every (tid, addr) pair must appear exactly once: no slot was
        // written twice and none lost.
        let mut seen: Vec<u64> = entries.iter().map(|e| e.addr).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4_000);
    }

    #[test]
    fn live_write_poll_rotate_round_trip() {
        let log = fresh(4);
        let mut cursor = LogCursor::default();
        for k in 1..=3u64 {
            assert_eq!(
                log.write_live(&LogEntry {
                    kind: EventKind::Call,
                    counter: k,
                    addr: 0x100 + k,
                    tid: 0,
                }),
                Some(k - 1)
            );
        }
        let polled = log.poll(&mut cursor);
        assert_eq!(polled.len(), 3);
        assert_eq!(polled[0].counter, 1);
        assert_eq!(cursor, LogCursor { epoch: 0, index: 3 });
        // Nothing new: poll is idempotent at the cursor.
        assert!(log.poll(&mut cursor).is_empty());
        // One more entry, then rotate: only the unseen entry comes back.
        assert_eq!(
            log.write_live(&LogEntry {
                kind: EventKind::Return,
                counter: 9,
                addr: 0x103,
                tid: 0,
            }),
            Some(3)
        );
        let out = log.rotate(&mut cursor);
        assert_eq!(out.entries.len(), 1);
        assert_eq!(out.entries[0].counter, 9);
        assert_eq!(out.dropped, 0);
        assert_eq!(out.new_epoch, 1);
        assert_eq!(log.epoch(), 1);
        assert_eq!(cursor, LogCursor { epoch: 1, index: 0 });
        assert_eq!(log.header().tail, 0, "tail reset for the new epoch");
        assert_eq!(log.writers_in_flight(), 0);
    }

    #[test]
    fn rotation_accounts_overflow_drops() {
        let log = fresh(2);
        let mut cursor = LogCursor::default();
        let e = LogEntry {
            kind: EventKind::Call,
            counter: 7,
            addr: 1,
            tid: 0,
        };
        assert!(log.write_live(&e).is_some());
        assert!(log.write_live(&e).is_some());
        assert!(
            log.write_live(&e).is_none(),
            "third write must drop: log full"
        );
        assert_eq!(log.dropped_total(), 1);
        let out = log.rotate(&mut cursor);
        assert_eq!(out.entries.len(), 2);
        assert_eq!(out.dropped, 1);
        // After the rotation the epoch is empty again and the drop stays
        // accounted in the cumulative word.
        assert_eq!(log.dropped_total(), 1);
        assert_eq!(log.write_live(&e), Some(0), "rotation reopened slot 0");
        assert_eq!(log.poll(&mut cursor).len(), 1);
    }

    #[test]
    fn rotation_clears_slots_for_reuse() {
        let log = fresh(4);
        let mut cursor = LogCursor::default();
        let e = LogEntry {
            kind: EventKind::Call,
            counter: 11,
            addr: 0x200,
            tid: 1,
        };
        for _ in 0..4 {
            assert!(log.write_live(&e).is_some());
        }
        assert_eq!(log.rotate(&mut cursor).entries.len(), 4);
        // Every reused slot must read as unpublished: a writer that has
        // reserved slot 0 of the new epoch but not yet published (possible
        // mid-append from another thread) must not expose epoch-0
        // leftovers to the drainer.
        reserve_hole(&log);
        assert!(
            log.poll(&mut cursor).is_empty(),
            "stale previous-epoch words must not look published"
        );
    }

    #[test]
    fn poll_stops_at_unpublished_slot() {
        let log = fresh(4);
        let mut cursor = LogCursor::default();
        // Simulate a writer that reserved slot 0 but has not published yet
        // (only possible mid-append from another thread): slot 0 is all
        // zeroes while slot 1 is complete.
        reserve_hole(&log);
        log.write_live(&LogEntry {
            kind: EventKind::Call,
            counter: 5,
            addr: 2,
            tid: 0,
        });
        assert!(log.poll(&mut cursor).is_empty(), "must not skip slot 0");
        // Rotation reads after quiesce: the unpublished slot 0 is a hole —
        // counted as abandoned, never delivered as an all-zero record —
        // while the published slot 1 drains normally.
        let out = log.rotate(&mut cursor);
        assert_eq!(out.entries.len(), 1);
        assert_eq!(out.entries[0].counter, 5);
        assert_eq!(out.abandoned, 1);
        assert_eq!(log.abandoned_total(), 1);
        assert_eq!(out.dropped, 0);
    }

    #[test]
    fn verify_header_accepts_fresh_log_and_detects_corruption() {
        let log = fresh(8);
        assert_eq!(log.verify_header(), Ok(()));
        // Smash the magic word: everything else is now untrustworthy.
        log.shm().write_u64(OFF_MAGIC, 0xdead_beef).unwrap();
        assert_eq!(
            log.verify_header(),
            Err(HeaderFault::BadMagic { found: 0xdead_beef })
        );
        log.shm().write_u64(OFF_MAGIC, LOG_MAGIC).unwrap();
        // Smash the version bits of the control word.
        let good_control = log.control_word();
        log.shm()
            .write_u64(OFF_CONTROL, good_control ^ (0x7u64 << 17))
            .unwrap();
        assert!(matches!(
            log.verify_header(),
            Err(HeaderFault::BadVersion { .. })
        ));
        log.shm().write_u64(OFF_CONTROL, good_control).unwrap();
        // Smash the size word.
        log.shm().write_u64(OFF_SIZE, 999).unwrap();
        assert_eq!(
            log.verify_header(),
            Err(HeaderFault::SizeMismatch {
                found: 999,
                expected: 8
            })
        );
    }

    #[test]
    fn try_rotate_stalls_on_a_dead_writer_and_reopens_the_log() {
        let log = fresh(4);
        let mut cursor = LogCursor::default();
        log.write_live(&LogEntry {
            kind: EventKind::Call,
            counter: 3,
            addr: 0x100,
            tid: 0,
        });
        // Simulate a writer that announced itself and then died before
        // publishing or withdrawing.
        log.shm().fetch_add_u64(OFF_CONTROL, WRITER_ONE).unwrap();
        let stall = log.try_rotate(&mut cursor, 64).unwrap_err();
        assert_eq!(stall.writers, 1);
        assert!(stall.to_string().contains("1 writer(s)"));
        // The abandoned rotation must have reopened the log: live writers
        // keep appending, and nothing was drained or reset.
        assert_eq!(log.control_word() & FLAG_ROTATING, 0);
        assert_eq!(log.epoch(), 0);
        assert!(log
            .write_live(&LogEntry {
                kind: EventKind::Return,
                counter: 9,
                addr: 0x100,
                tid: 0,
            })
            .is_some());
        // The watchdog declares the writer dead; rotation then succeeds.
        assert_eq!(log.force_reclaim_writers(), 1);
        assert_eq!(log.writers_in_flight(), 0);
        let out = log.try_rotate(&mut cursor, 64).unwrap();
        assert_eq!(out.entries.len(), 2);
        assert_eq!(out.new_epoch, 1);
    }

    #[test]
    fn handed_back_slots_count_as_abandoned_not_dropped() {
        // Mirrors the PR-1 double-count fixture for the batched path: a
        // batch reservation that runs past the end of the log hands the
        // over-capacity slots back via the epoch word; those must surface
        // exactly once as `abandoned` and never inflate `dropped_total`,
        // neither before nor after the rotation folds them over.
        let log = fresh(2);
        let mut cursor = LogCursor::default();
        let e = LogEntry {
            kind: EventKind::Call,
            counter: 7,
            addr: 1,
            tid: 0,
        };
        assert!(log.write_live(&e).is_some());
        assert!(log.write_live(&e).is_some());
        // Simulate a batch writer claiming a run of 4 starting at the full
        // tail: the append itself drops (one overflow ticket) and the 3
        // unused over-capacity slots are handed back.
        log.shm().fetch_add_u64(OFF_TAIL, 4).unwrap();
        log.shm().fetch_add_u64(OFF_ABANDONED_EPOCH, 3).unwrap();
        assert_eq!(log.dropped_total(), 1, "hand-backs are not drops");
        assert_eq!(log.abandoned_total(), 3);
        let out = log.rotate(&mut cursor);
        assert_eq!(out.entries.len(), 2);
        assert_eq!(out.dropped, 1);
        assert_eq!(out.abandoned, 3);
        // Accounted exactly once across the rotation, in both words.
        assert_eq!(log.dropped_total(), 1);
        assert_eq!(log.abandoned_total(), 3);
        // A second, empty rotation must not re-count anything.
        let out = log.rotate(&mut cursor);
        assert_eq!((out.dropped, out.abandoned), (0, 0));
        assert_eq!(log.dropped_total(), 1);
        assert_eq!(log.abandoned_total(), 3);
    }

    #[test]
    fn abandoned_holes_accumulate_across_rotations() {
        let log = fresh(4);
        let mut cursor = LogCursor::default();
        let e = LogEntry {
            kind: EventKind::Call,
            counter: 3,
            addr: 0x500,
            tid: 0,
        };
        // Epoch 0: one published entry, then an in-capacity hole (a batch
        // run reserved but never published).
        assert!(log.write_live(&e).is_some());
        reserve_hole(&log);
        let out = log.rotate(&mut cursor);
        assert_eq!((out.entries.len(), out.abandoned), (1, 1));
        // Epoch 1: two holes this time.
        reserve_hole(&log);
        reserve_hole(&log);
        let out = log.rotate(&mut cursor);
        assert_eq!((out.entries.len(), out.abandoned), (0, 2));
        assert_eq!(log.abandoned_total(), 3);
        assert_eq!(log.dropped_total(), 0);
    }

    #[test]
    fn regime_word_round_trips_and_salvages_corruption() {
        let log = fresh(4);
        // Fresh log: Full at regime epoch 0, no fallback.
        assert_eq!(log.regime_observed(), (Regime::Full, 0, false));
        log.set_regime(Regime::Sampled(8), 1);
        assert_eq!(log.regime_observed(), (Regime::Sampled(8), 1, false));
        log.set_regime(Regime::Quiescent, 2);
        assert_eq!(log.regime_observed(), (Regime::Quiescent, 2, false));
        // A hostile producer scribbles on the word: readers fall back to
        // Full and report it, never panic.
        log.shm()
            .write_u64(OFF_REGIME, 0xdead_beef_dead_beef)
            .unwrap();
        assert_eq!(log.regime_observed(), (Regime::Full, 0, true));
        // The drainer repairs it with a fresh publication.
        log.set_regime(Regime::Full, 3);
        assert_eq!(log.regime_observed(), (Regime::Full, 3, false));
    }

    #[test]
    #[should_panic(expected = "stale cursor")]
    fn stale_cursor_is_rejected() {
        let log = fresh(2);
        let mut cursor = LogCursor::default();
        log.rotate(&mut cursor);
        let mut stale = LogCursor::default();
        log.poll(&mut stale);
    }

    #[test]
    fn concurrent_live_writers_and_drainer_lose_nothing() {
        let log = fresh(64);
        let total_per_thread = 2_000u64;
        let mut handles = Vec::new();
        for t in 0..3u64 {
            let log = log.clone();
            handles.push(std::thread::spawn(move || {
                let mut written = 0u64;
                for k in 0..total_per_thread {
                    if log
                        .write_live(&LogEntry {
                            kind: EventKind::Call,
                            counter: k + 1,
                            addr: t * 1_000_000 + k + 1,
                            tid: t,
                        })
                        .is_some()
                    {
                        written += 1;
                    }
                }
                written
            }));
        }
        let drainer = {
            let log = log.clone();
            std::thread::spawn(move || {
                let mut cursor = LogCursor::default();
                let mut drained = Vec::new();
                loop {
                    drained.extend(log.poll(&mut cursor));
                    let out = log.rotate(&mut cursor);
                    drained.extend(out.entries);
                    if log.writers_in_flight() == 0
                        && drained.len() as u64 + log.dropped_total() >= 3 * total_per_thread
                    {
                        break;
                    }
                    std::thread::yield_now();
                }
                drained
            })
        };
        let written: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let drained = drainer.join().unwrap();
        // Every successfully written entry is drained exactly once.
        assert_eq!(drained.len() as u64, written);
        assert_eq!(written + log.dropped_total(), 3 * total_per_thread);
        let mut addrs: Vec<u64> = drained.iter().map(|e| e.addr).collect();
        addrs.sort_unstable();
        let before = addrs.len();
        addrs.dedup();
        assert_eq!(addrs.len(), before, "no entry may be drained twice");
    }

    proptest! {
        #[test]
        fn prop_entries_survive_storage(entries in proptest::collection::vec(
            (any::<bool>(), 0u64..(1<<62), any::<u64>(), 0u64..64), 1..50)
        ) {
            let log = fresh(64);
            for (i, (call, counter, addr, tid)) in entries.iter().enumerate() {
                let e = LogEntry {
                    kind: if *call { EventKind::Call } else { EventKind::Return },
                    counter: *counter,
                    addr: *addr,
                    tid: *tid,
                };
                prop_assert_eq!(log.write_live(&e), Some(i as u64));
            }
            let drained = log.drain_entries();
            prop_assert_eq!(drained.len(), entries.len());
            for (d, (call, counter, addr, tid)) in drained.iter().zip(&entries) {
                prop_assert_eq!(d.kind.is_call(), *call);
                prop_assert_eq!(d.counter, *counter);
                prop_assert_eq!(d.addr, *addr);
                prop_assert_eq!(d.tid, *tid);
            }
        }
    }
}

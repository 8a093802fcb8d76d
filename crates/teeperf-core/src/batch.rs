//! The append side of the shared log: the one routine that reserves and
//! publishes slots.
//!
//! Every writer thread holds a [`BatchWriter`] and every event goes through
//! [`BatchWriter::append`]: announce on the control word, claim a *run* of
//! `batch` slots with a single `fetch_add` on the tail word, publish into
//! the run one slot per event (address and tid first, the kind+counter
//! word last), withdraw. `batch = 1` is the paper's design — one shared
//! tail RMW per event; a larger run pays that RMW, which serializes every
//! writer thread on one cache line at high thread counts, once per `batch`
//! events. Because every append announces, a drainer may rotate any log at
//! any time: there is no unannounced write for the handshake to miss.
//!
//! ## Abandonment rules
//!
//! A claimed slot that is never published is *abandoned*, never dropped:
//!
//! * **Epoch rotation.** Every append announces on the control word and
//!   backs off while the rotating flag is set. A writer holding an
//!   unfinished run when the epoch rotates simply discards the remainder:
//!   the rotation that bumped the epoch already drained past those
//!   in-capacity slots, skipped them as word-0-zero holes, and counted
//!   them as abandoned.
//! * **Thread exit.** Dropping a [`BatchWriter`] needs no shared writes:
//!   the in-capacity remainder stays unpublished and the *next* rotation
//!   counts the holes.
//! * **Over-capacity hand-backs.** A reservation that lands partly or
//!   wholly past the end of the log gives the unusable slots straight
//!   back by adding to the epoch hand-back word
//!   ([`crate::layout::OFF_ABANDONED_EPOCH`]) — except that a fully
//!   out-of-range reservation keeps exactly one slot of tail overflow as
//!   the drop ticket for the event that failed to append. The hand-back
//!   happens while the writer is still announced, so rotation (which
//!   quiesces writers first) always reads a stable epoch word.
//!
//! Exactly-once drain holds because a slot is either published (word 0
//! non-zero, drained once) or abandoned (word 0 zero, skipped and counted
//! once by the rotation that passes it). The `teeperf-check` model checker explores these
//! reserve-run/publish/abandon interleavings with a dedicated
//! abandon-accounting invariant.

use crate::layout::{
    EventKind, LogEntry, FLAG_ROTATING, OFF_ABANDONED_EPOCH, OFF_CONTROL, OFF_TAIL, WRITER_ONE,
};
use crate::log::SharedLog;

/// Per-thread writer over a [`SharedLog`]. Create one per writer
/// thread with [`SharedLog::batch_writer`]; it is deliberately `!Sync`-ish
/// in spirit (all methods take `&mut self`) — two threads sharing one
/// `BatchWriter` would interleave publications into the same run.
#[derive(Debug)]
pub struct BatchWriter {
    log: SharedLog,
    batch: u64,
    /// Next unpublished slot of the current run.
    run_start: u64,
    /// One past the last slot of the current run (== `run_start` when no
    /// run is held). Always `<= capacity`: over-capacity slots are handed
    /// back at reservation time and never enter the run.
    run_end: u64,
    /// Epoch the current run (and the `full` latch) belongs to; only
    /// meaningful while one of them is held.
    epoch: u64,
    /// The current epoch's log is full: reservations degrade to single
    /// slots so each failing append leaves exactly one drop ticket.
    full: bool,
    handed_back: u64,
    discarded: u64,
    reservations: u64,
}

/// What one [`BatchWriter::append`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Slot the entry was published into, or `None` if it was dropped
    /// because the current epoch's log is full.
    pub slot: Option<u64>,
    /// Whether this append performed a shared tail reservation (the cost
    /// the batching amortizes — at most one per `batch` appends while the
    /// log has room).
    pub reserved: bool,
}

impl SharedLog {
    /// A per-thread [`BatchWriter`] claiming `batch` slots per tail
    /// reservation. `batch <= 1` is the paper's one slot per event.
    pub fn batch_writer(&self, batch: u64) -> BatchWriter {
        BatchWriter {
            log: self.clone(),
            batch: batch.max(1),
            run_start: 0,
            run_end: 0,
            epoch: 0,
            full: false,
            handed_back: 0,
            discarded: 0,
            reservations: 0,
        }
    }

    /// Append one entry through a throwaway single-slot [`BatchWriter`]:
    /// the slot it landed in, or `None` if it was dropped because the
    /// current epoch's log is full. For fault injection and tests; a
    /// recording thread keeps its writer.
    pub fn write_live(&self, entry: &LogEntry) -> Option<u64> {
        self.batch_writer(1).append(entry).slot
    }
}

impl BatchWriter {
    /// Slots claimed per tail reservation.
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// Slots of the current run still reserved but unpublished. These
    /// become counted holes if the writer exits (or the epoch rotates)
    /// before publishing them.
    pub fn pending(&self) -> u64 {
        self.run_end - self.run_start
    }

    /// Over-capacity slots handed straight back at reservation time.
    pub fn handed_back(&self) -> u64 {
        self.handed_back
    }

    /// In-capacity run slots discarded because the epoch rotated under
    /// them (already counted as holes by the rotation that did it).
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    /// Shared tail reservations performed so far.
    pub fn reservations(&self) -> u64 {
        self.reservations
    }

    /// The append. Returns where the entry landed and whether a shared tail
    /// reservation was needed; `slot` is `None` when the entry was dropped
    /// because the current epoch's log is full (the drop is accounted
    /// against the header at the next rotation).
    pub fn append(&mut self, entry: &LogEntry) -> BatchOutcome {
        let shm = self.log.shm();
        // Announce on the control word, backing off while a rotation is in
        // progress. Once announced, the epoch is frozen — rotation quiesces
        // writers before touching anything.
        loop {
            let prev = shm
                .fetch_add_u64(OFF_CONTROL, WRITER_ONE)
                .expect("header in range");
            if prev & FLAG_ROTATING == 0 {
                break;
            }
            // Withdraw the announcement and wait for the drainer to finish,
            // then try again.
            shm.fetch_add_u64(OFF_CONTROL, WRITER_ONE.wrapping_neg())
                .expect("header in range");
            while shm.read_u64(OFF_CONTROL).expect("header in range") & FLAG_ROTATING != 0 {
                // Through the seam, not std::hint::spin_loop(), so a model
                // checker can park this thread until the drainer writes.
                shm.spin_hint();
            }
        }
        // A run or a full latch held from an earlier append belongs to one
        // epoch. If the log rotated since, the rotation already counted the
        // leftover run slots as holes — just forget them. A writer holding
        // neither has nothing an epoch change could invalidate.
        if (self.run_start != self.run_end || self.full) && self.log.epoch() != self.epoch {
            self.discarded += self.run_end - self.run_start;
            self.run_start = 0;
            self.run_end = 0;
            self.full = false;
        }
        let mut reserved = false;
        if self.run_start == self.run_end {
            reserved = true;
            self.reservations += 1;
            let size = self.log.capacity();
            // Once the epoch is known full, claim single slots: each
            // failing append then leaves exactly one slot of tail overflow
            // as its drop ticket.
            let want = if self.full { 1 } else { self.batch };
            let start = shm.fetch_add_u64(OFF_TAIL, want).expect("header in range");
            if want > 1 {
                // A multi-slot claim always leaves something behind for the
                // next append (the rest of the run, or the full latch), so
                // note which epoch it belongs to.
                self.epoch = self.log.epoch();
            }
            if start >= size {
                // Whole run out of range: this event drops. Keep one slot
                // of overflow as the drop ticket, hand the rest back. The
                // hand-back is safe here because we are still announced,
                // so the rotation that will read the epoch word has not
                // started its drain yet.
                if want > 1 {
                    self.full = true;
                    shm.fetch_add_u64(OFF_ABANDONED_EPOCH, want - 1)
                        .expect("header in range");
                    self.handed_back += want - 1;
                }
                shm.fetch_add_u64(OFF_CONTROL, WRITER_ONE.wrapping_neg())
                    .expect("header in range");
                return BatchOutcome {
                    slot: None,
                    reserved,
                };
            }
            if start + want > size {
                // Straddling run: keep the in-capacity prefix, hand back
                // the rest (no event attempted those slots, so no drop
                // ticket is owed for them).
                self.full = true;
                let over = start + want - size;
                shm.fetch_add_u64(OFF_ABANDONED_EPOCH, over)
                    .expect("header in range");
                self.handed_back += over;
                self.run_start = start;
                self.run_end = size;
            } else {
                self.run_start = start;
                self.run_end = start + want;
            }
        }
        // Publish into the next run slot: address and tid first, the
        // kind+counter word last, so a concurrent poll that sees a non-zero
        // word 0 sees a complete entry.
        let slot = self.run_start;
        self.run_start += 1;
        let off = LogEntry::offset_of(slot);
        let words = entry.pack();
        shm.write_u64(off + 8, words[1]).expect("entry in range");
        shm.write_u64(off + 16, words[2]).expect("entry in range");
        shm.write_u64(off, words[0]).expect("entry in range");
        shm.fetch_add_u64(OFF_CONTROL, WRITER_ONE.wrapping_neg())
            .expect("header in range");
        BatchOutcome {
            slot: Some(slot),
            reserved,
        }
    }

    /// Whether an event of `kind` should currently be recorded (forwards
    /// to the underlying log's control word).
    pub fn should_record(&self, kind: EventKind) -> bool {
        self.log.should_record(kind)
    }

    /// The underlying log handle.
    pub fn log(&self) -> &SharedLog {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{make_header, region_bytes, LogCursor};
    use proptest::prelude::*;
    use std::sync::Arc;
    use tee_sim::SharedMem;

    fn fresh(max_entries: u64) -> SharedLog {
        let shm = Arc::new(SharedMem::new(region_bytes(max_entries)));
        SharedLog::init(
            shm,
            &make_header(77, max_entries, true, 0x40_0000, tee_sim::SHM_BASE),
        )
    }

    fn entry(counter: u64, addr: u64, tid: u64) -> LogEntry {
        LogEntry {
            kind: EventKind::Call,
            counter,
            addr,
            tid,
        }
    }

    #[test]
    fn one_reservation_covers_a_whole_run() {
        let log = fresh(16);
        let mut w = log.batch_writer(4);
        for k in 0..8u64 {
            let out = w.append(&entry(k + 1, 0x100 + k, 0));
            assert_eq!(out.slot, Some(k));
            assert_eq!(out.reserved, k % 4 == 0, "reserve once per 4 appends");
        }
        assert_eq!(w.reservations(), 2);
        assert_eq!(w.pending(), 0);
        assert_eq!(log.header().tail, 8);
        let mut cursor = LogCursor::default();
        let out = log.rotate(&mut cursor);
        assert_eq!(out.entries.len(), 8);
        assert_eq!((out.dropped, out.abandoned), (0, 0));
    }

    #[test]
    fn batch_of_one_is_one_slot_and_one_reservation_per_event() {
        let log = fresh(2);
        let mut w = log.batch_writer(1);
        for k in 0..2u64 {
            let out = w.append(&entry(k + 1, 0x100 + k, 0));
            assert_eq!(out.slot, Some(k), "slots in tail order");
            assert!(out.reserved, "every append reserves at batch 1");
            assert_eq!(w.pending(), 0, "a one-slot run is used up at once");
        }
        let out = w.append(&entry(3, 0x102, 0));
        assert_eq!(out.slot, None, "a full log drops the event");
        assert!(out.reserved);
        assert_eq!(w.reservations(), 3);
        assert_eq!(log.header().tail, 3, "one tail ticket per append");
        assert_eq!(log.dropped_total(), 1);
        assert_eq!(log.abandoned_total(), 0, "no hand-backs at batch 1");
        assert_eq!(log.writers_in_flight(), 0, "every append withdrew");
        // The same writer carries on in the next epoch from slot 0.
        let mut cursor = LogCursor::default();
        let rotated = log.rotate(&mut cursor);
        assert_eq!((rotated.entries.len(), rotated.dropped), (2, 1));
        assert_eq!(w.append(&entry(4, 0x103, 0)).slot, Some(0));
        assert_eq!(w.discarded(), 0);
    }

    #[test]
    fn exit_remainder_becomes_counted_holes() {
        let log = fresh(16);
        {
            let mut w = log.batch_writer(8);
            // Publish 3 of the 8 reserved slots, then "exit" (drop).
            for k in 0..3u64 {
                w.append(&entry(k + 1, 0x100 + k, 0));
            }
            assert_eq!(w.pending(), 5);
        }
        let mut cursor = LogCursor::default();
        let out = log.rotate(&mut cursor);
        assert_eq!(out.entries.len(), 3);
        assert_eq!(out.abandoned, 5, "exact remainder reported as holes");
        assert_eq!(out.dropped, 0);
        assert_eq!(log.abandoned_total(), 5);
        assert_eq!(log.dropped_total(), 0);
    }

    #[test]
    fn straddling_run_hands_back_over_capacity_slots() {
        let log = fresh(6);
        let mut w = log.batch_writer(4);
        for k in 0..4u64 {
            assert!(w.append(&entry(k + 1, 0x100 + k, 0)).slot.is_some());
        }
        // Next reservation claims [4, 8) against capacity 6: slots 6 and 7
        // are handed back, the run is [4, 6).
        assert_eq!(w.append(&entry(5, 0x104, 0)).slot, Some(4));
        assert_eq!(w.handed_back(), 2);
        assert_eq!(log.abandoned_total(), 2);
        assert_eq!(w.append(&entry(6, 0x105, 0)).slot, Some(5));
        // Epoch now known full: appends degrade to single-slot drop
        // tickets, one per failing event.
        let out = w.append(&entry(7, 0x106, 0));
        assert_eq!(out.slot, None);
        assert!(out.reserved);
        assert_eq!(w.handed_back(), 2, "full-epoch retries hand nothing back");
        assert_eq!(log.dropped_total(), 1);
        let mut cursor = LogCursor::default();
        let out = log.rotate(&mut cursor);
        assert_eq!(out.entries.len(), 6);
        assert_eq!((out.dropped, out.abandoned), (1, 2));
        assert_eq!(log.dropped_total(), 1);
        assert_eq!(log.abandoned_total(), 2);
    }

    #[test]
    fn fully_out_of_range_run_keeps_one_drop_ticket() {
        let log = fresh(4);
        let mut w = log.batch_writer(4);
        for k in 0..4u64 {
            assert!(w.append(&entry(k + 1, 0x100 + k, 0)).slot.is_some());
        }
        // Reservation [4, 8) is entirely out of range: this event drops
        // (ticket = 1 overflow slot) and 3 slots are handed back.
        assert_eq!(w.append(&entry(5, 0x104, 0)).slot, None);
        assert_eq!(w.handed_back(), 3);
        assert_eq!(log.dropped_total(), 1);
        assert_eq!(log.abandoned_total(), 3);
        // Two more drops at one ticket each.
        assert_eq!(w.append(&entry(6, 0x105, 0)).slot, None);
        assert_eq!(w.append(&entry(7, 0x106, 0)).slot, None);
        assert_eq!(log.dropped_total(), 3);
        assert_eq!(log.abandoned_total(), 3);
    }

    #[test]
    fn rotation_discards_the_stale_run_and_resets_the_full_latch() {
        let log = fresh(4);
        let mut w = log.batch_writer(4);
        // Fill the epoch and latch `full`.
        for k in 0..4u64 {
            w.append(&entry(k + 1, 0x100 + k, 0));
        }
        assert_eq!(w.append(&entry(5, 0x104, 0)).slot, None);
        let mut cursor = LogCursor::default();
        let out = log.rotate(&mut cursor);
        assert_eq!(out.entries.len(), 4);
        assert_eq!((out.dropped, out.abandoned), (1, 3));
        // The next append sees the new epoch: fresh run from slot 0, full
        // latch cleared, batch-sized reservation again.
        let out = w.append(&entry(9, 0x200, 0));
        assert_eq!(out.slot, Some(0));
        assert!(out.reserved);
        assert_eq!(log.header().tail, 4, "batch-sized claim in the new epoch");
    }

    #[test]
    fn concurrent_batch_writers_drain_exactly_once() {
        let log = fresh(256);
        let per_thread = 2_000u64;
        let mut handles = Vec::new();
        for t in 0..3u64 {
            let log = log.clone();
            handles.push(std::thread::spawn(move || {
                let mut w = log.batch_writer(8);
                let mut written = 0u64;
                for k in 0..per_thread {
                    if w.append(&entry(k + 1, t * 1_000_000 + k + 1, t))
                        .slot
                        .is_some()
                    {
                        written += 1;
                    }
                }
                (written, w.pending())
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
                        && drained.len() as u64 + log.dropped_total() >= 3 * per_thread
                    {
                        break;
                    }
                    std::thread::yield_now();
                }
                drained
            })
        };
        let mut written = 0u64;
        let mut exit_pending = 0u64;
        for h in handles {
            let (w, p) = h.join().unwrap();
            written += w;
            exit_pending += p;
        }
        let drained = drainer.join().unwrap();
        assert_eq!(drained.len() as u64, written);
        assert_eq!(written + log.dropped_total(), 3 * per_thread);
        let mut addrs: Vec<u64> = drained.iter().map(|e| e.addr).collect();
        addrs.sort_unstable();
        let before = addrs.len();
        addrs.dedup();
        assert_eq!(addrs.len(), before, "no entry may be drained twice");
        // One final rotation picks up the exit remainders as holes.
        let mut cursor = LogCursor {
            epoch: log.epoch(),
            index: 0,
        };
        log.rotate(&mut cursor);
        assert!(log.abandoned_total() >= exit_pending);
    }

    proptest! {
        /// Batched recording (any batch size) drains to the byte-identical
        /// entry sequence an unbatched run produces on the same workload —
        /// including across mid-workload rotations — with zero drops and
        /// exact abandonment accounting for the exit remainder.
        #[test]
        fn prop_batched_equals_unbatched(
            batch in 1u64..=16,
            events in 1usize..60,
            rotate_at in proptest::collection::vec(0usize..60, 0..3),
        ) {
            let capacity = 128;
            let workload: Vec<LogEntry> =
                (0..events).map(|k| entry(k as u64 + 1, 0x1000 + k as u64, 0)).collect();

            let run = |batched: bool| -> Result<(Vec<LogEntry>, u64, u64), TestCaseError> {
                let log = fresh(capacity);
                let mut cursor = LogCursor::default();
                let mut drained = Vec::new();
                let mut w = log.batch_writer(if batched { batch } else { 1 });
                for (k, e) in workload.iter().enumerate() {
                    prop_assert!(w.append(e).slot.is_some(), "capacity covers the workload");
                    if rotate_at.contains(&k) {
                        drained.extend(log.rotate(&mut cursor).entries);
                    }
                }
                drop(w);
                drained.extend(log.rotate(&mut cursor).entries);
                Ok((drained, log.dropped_total(), log.abandoned_total()))
            };

            let (batched, b_dropped, b_abandoned) = run(true)?;
            let (unbatched, u_dropped, u_abandoned) = run(false)?;
            prop_assert_eq!(&batched, &unbatched, "drained sequences must be identical");
            prop_assert_eq!(batched.len(), events);
            prop_assert_eq!((b_dropped, u_dropped), (0, 0));
            prop_assert_eq!(u_abandoned, 0, "batch 1 never abandons");
            // Byte-identical packing, not just struct equality.
            let b_bytes: Vec<[u64; 3]> = batched.iter().map(LogEntry::pack).collect();
            let u_bytes: Vec<[u64; 3]> = unbatched.iter().map(LogEntry::pack).collect();
            prop_assert_eq!(b_bytes, u_bytes);
            // Every abandoned slot is a counted remainder: reservations
            // claimed `batch` slots at a time, events consumed `events` of
            // them, rotations plus exit abandoned the rest.
            prop_assert!(b_abandoned < rotate_at.len() as u64 * batch + batch);
        }
    }
}

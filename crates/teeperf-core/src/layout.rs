//! The shared-memory log format of TEE-Perf (paper Figure 2), extended
//! with the continuous-profiling words used by `teeperf-live`.
//!
//! ## Header (104 bytes, thirteen 64-bit words)
//!
//! | word | offset | contents |
//! |------|--------|----------|
//! | 0 | 0  | control: bits 0–15 flags (bit 0 = active, bit 1 = trace calls, bit 2 = trace returns, bit 3 = epoch rotation in progress), bit 16 = multithread, bits 17–31 = version, bits 32–55 = writers in flight |
//! | 1 | 8  | process id |
//! | 2 | 16 | log size (maximum number of entries) |
//! | 3 | 24 | tail: index of the next entry to write (fetch-and-add) |
//! | 4 | 32 | address of the profiler anchor function (relocation offset) |
//! | 5 | 40 | shared-memory mapping address inside the enclave |
//! | 6 | 48 | the software counter word (incremented by the host thread) |
//! | 7 | 56 | epoch: number of completed drain rotations |
//! | 8 | 64 | entries dropped in completed epochs (cumulative) |
//! | 9 | 72 | integrity magic ([`LOG_MAGIC`], written once at init) |
//! | 10 | 80 | batch-abandoned slots in completed epochs (cumulative) |
//! | 11 | 88 | current-epoch over-capacity batch hand-backs (reset each rotation) |
//! | 12 | 96 | fidelity regime word (see [`crate::fidelity`]): lo32 = regime epoch, hi32 = tag + log2(N) + check byte; written only by the drainer, read by writers |
//!
//! The control word is the only mutable-while-running word besides the
//! tail, the counter, and the two live words; it is read and written
//! atomically so tracing can be toggled mid-run without a critical section
//! (§II-B). The version is written once and never changes. Words 7–8 stay
//! zero in batch mode; a live drainer uses them to rotate the log under
//! concurrent writers. The rotation handshake (flag bit 3 + the
//! writers-in-flight count) lives entirely in the control word on purpose:
//! read-modify-writes on a single atomic word have one total modification
//! order, so a writer that announced itself before the drainer set the
//! rotating bit is always observed by the drainer's quiesce loop — a
//! two-word handshake would allow the classic store-buffering reordering
//! where each side misses the other's update. Word 8 accumulates overflow
//! drops across rotations so nothing is lost silently.
//!
//! ## Entry (24 bytes, three words)
//!
//! | word | contents |
//! |------|----------|
//! | 0 | bit 63 = call(1)/return(0), bits 0–62 = counter value |
//! | 1 | call/return target instruction address |
//! | 2 | thread id |

/// Current version of the log structure. Version 2 grew the header from 64
/// to 96 bytes (epoch, writers-in-flight, and cumulative-dropped words);
/// version 3 grew it to 104 bytes (the fidelity regime word).
pub const LOG_VERSION: u16 = 3;

/// Header size in bytes.
pub const HEADER_BYTES: u64 = 104;
/// Entry size in bytes.
pub const ENTRY_BYTES: u64 = 24;

/// Byte offset of the control word.
pub const OFF_CONTROL: u64 = 0;
/// Byte offset of the process-id word.
pub const OFF_PID: u64 = 8;
/// Byte offset of the log-size word.
pub const OFF_SIZE: u64 = 16;
/// Byte offset of the tail-index word.
pub const OFF_TAIL: u64 = 24;
/// Byte offset of the profiler-anchor word.
pub const OFF_ANCHOR: u64 = 32;
/// Byte offset of the shared-memory address word.
pub const OFF_SHM_ADDR: u64 = 40;
/// Byte offset of the software-counter word.
pub const OFF_COUNTER: u64 = 48;
/// Byte offset of the epoch word (completed drain rotations).
pub const OFF_EPOCH: u64 = 56;
/// Byte offset of the cumulative-dropped word (overflow across epochs).
pub const OFF_DROPPED: u64 = 64;
/// Byte offset of the integrity-magic word.
pub const OFF_MAGIC: u64 = 72;
/// Byte offset of the cumulative-abandoned word: batch-reserved slots that
/// were never published (in-capacity holes skipped by the drain, plus
/// over-capacity hand-backs), accumulated across completed epochs. These
/// are *not* drops — the events were never attempted into those slots.
pub const OFF_ABANDONED: u64 = 80;
/// Byte offset of the current-epoch hand-back word: over-capacity slots a
/// batch reservation claimed past the end of the log and immediately gave
/// back (only one drop ticket per failing append is kept in the tail
/// overflow). Rotation folds this into [`OFF_ABANDONED`] and resets it.
pub const OFF_ABANDONED_EPOCH: u64 = 88;
/// Byte offset of the fidelity regime word. The drainer is the sole writer
/// (one new value per publication, always a single atomic store); writers
/// read it to learn the current admission regime. The all-zero word is the
/// valid encoding of `Full` at regime epoch 0, so freshly zeroed regions
/// and version-2 logs decode as full fidelity. See [`crate::fidelity`].
pub const OFF_REGIME: u64 = 96;

/// The header integrity word: `"TPERFLOG"` as a little-endian u64. Written
/// once at init and never changed; a reader that finds anything else knows
/// the header was corrupted (or the region was never initialized) and must
/// not trust any other header word.
pub const LOG_MAGIC: u64 = u64::from_le_bytes(*b"TPERFLOG");

/// Control-word bit: measurement is active.
pub const FLAG_ACTIVE: u64 = 1 << 0;
/// Control-word bit: record call events.
pub const FLAG_TRACE_CALLS: u64 = 1 << 1;
/// Control-word bit: record return events.
pub const FLAG_TRACE_RETURNS: u64 = 1 << 2;
/// Control-word bit: an epoch rotation is in progress; writers must back
/// off until the drainer clears it (never set in batch mode).
pub const FLAG_ROTATING: u64 = 1 << 3;
/// Control word: one writer in flight (added/subtracted to announce).
pub const WRITER_ONE: u64 = 1 << 32;
/// Control word: mask of the writers-in-flight count (bits 32–55).
pub const WRITERS_MASK: u64 = 0xff_ffff << 32;
/// Control-word bit: log contains entries from multiple threads.
pub const FLAG_MULTITHREAD: u64 = 1 << 16;
const VERSION_SHIFT: u32 = 17;
const VERSION_MASK: u64 = 0x7fff;

/// The reserved "no process" pid. A correctly initialized log always
/// stamps the recording process's real id into the pid word; a session
/// registry keys its sources by that word and rejects `PID_UNSET` (a zero
/// pid means the header was never initialized, and two such logs would
/// collide on the registry key).
pub const PID_UNSET: u64 = 0;

/// Entry word 0: the call/return discriminator bit.
pub const ENTRY_KIND_BIT: u64 = 1 << 63;
/// Entry word 0: mask of the counter-value bits.
pub const ENTRY_COUNTER_MASK: u64 = ENTRY_KIND_BIT - 1;

/// Whether a log entry records a call (function entry) or a return.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A function was entered.
    Call,
    /// A function returned.
    Return,
}

impl EventKind {
    /// `true` for [`EventKind::Call`].
    pub fn is_call(self) -> bool {
        self == EventKind::Call
    }
}

/// A decoded log header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogHeader {
    /// Measurement active bit.
    pub active: bool,
    /// Record call events.
    pub trace_calls: bool,
    /// Record return events.
    pub trace_returns: bool,
    /// Multithreaded-log bit.
    pub multithread: bool,
    /// Log structure version.
    pub version: u16,
    /// Process id of the profiled application.
    pub pid: u64,
    /// Maximum number of entries.
    pub size: u64,
    /// Next-write index (may exceed `size` if entries were dropped).
    pub tail: u64,
    /// Address of the profiler anchor function.
    pub anchor: u64,
    /// Shared-memory mapping address inside the enclave.
    pub shm_addr: u64,
}

impl LogHeader {
    /// Pack the control fields into the control word.
    pub fn pack_control(&self) -> u64 {
        let mut w = 0u64;
        if self.active {
            w |= FLAG_ACTIVE;
        }
        if self.trace_calls {
            w |= FLAG_TRACE_CALLS;
        }
        if self.trace_returns {
            w |= FLAG_TRACE_RETURNS;
        }
        if self.multithread {
            w |= FLAG_MULTITHREAD;
        }
        w |= (u64::from(self.version) & VERSION_MASK) << VERSION_SHIFT;
        w
    }

    /// Decode the control word into flag fields (pid/size/tail/anchor/
    /// shm_addr are separate words and must be filled by the caller).
    pub fn unpack_control(word: u64) -> (bool, bool, bool, bool, u16) {
        (
            word & FLAG_ACTIVE != 0,
            word & FLAG_TRACE_CALLS != 0,
            word & FLAG_TRACE_RETURNS != 0,
            word & FLAG_MULTITHREAD != 0,
            ((word >> VERSION_SHIFT) & VERSION_MASK) as u16,
        )
    }

    /// Number of entries actually present given the size bound.
    pub fn stored_entries(&self) -> u64 {
        self.tail.min(self.size)
    }

    /// Entries lost because the log filled up.
    pub fn dropped_entries(&self) -> u64 {
        self.tail.saturating_sub(self.size)
    }

    /// Whether the pid word carries a real process id (see [`PID_UNSET`]).
    pub fn has_valid_pid(&self) -> bool {
        self.pid != PID_UNSET
    }
}

/// A decoded log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LogEntry {
    /// Call or return.
    pub kind: EventKind,
    /// Software-counter value at the event (63 bits).
    pub counter: u64,
    /// Call/return target instruction address.
    pub addr: u64,
    /// Id of the thread that executed the call/return.
    pub tid: u64,
}

/// What a per-entry validity check concluded about a stored record.
///
/// The live write protocol publishes word 0 (kind+counter) last, so a
/// crash-free log only ever contains `Valid` entries and `Unpublished`
/// holes (a slot reserved by a writer that died or was preempted before
/// publishing word 0 — the other words may hold the hole's own half-write
/// *or* stale data from a previous epoch, since rotation clears only the
/// publication word). A `Torn` record — word 0 published but the address
/// word still zero — can only come from a writer that violated the
/// publication order or from memory corruption; no real function lives at
/// address zero, so such records are detectable and salvageable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryValidity {
    /// A complete, plausible record.
    Valid,
    /// Word 0 zero: reserved but never published.
    Unpublished,
    /// Partially written: published-looking but with an impossible zero
    /// target address.
    Torn,
}

impl LogEntry {
    /// Classify this stored record (see [`EntryValidity`]). Consumers that
    /// salvage hostile or crashed logs skip everything non-[`EntryValidity::Valid`]
    /// and account for it instead of aborting the analysis.
    pub fn validity(&self) -> EntryValidity {
        // Word 0 packs the kind bit and the counter; the writer publishes
        // it last, so word 0 == 0 means "never published" no matter what
        // the other words hold — a slot reused after rotation keeps its
        // stale addr/tid, and trusting them would resurrect a dead record.
        if self.counter == 0 && self.kind == EventKind::Return {
            EntryValidity::Unpublished
        } else if self.addr == 0 {
            EntryValidity::Torn
        } else {
            EntryValidity::Valid
        }
    }

    /// Pack into the three words of the on-log representation.
    pub fn pack(&self) -> [u64; 3] {
        let mut w0 = self.counter & ENTRY_COUNTER_MASK;
        if self.kind == EventKind::Call {
            w0 |= ENTRY_KIND_BIT;
        }
        [w0, self.addr, self.tid]
    }

    /// Decode from the three on-log words.
    pub fn unpack(words: [u64; 3]) -> LogEntry {
        LogEntry {
            kind: if words[0] & ENTRY_KIND_BIT != 0 {
                EventKind::Call
            } else {
                EventKind::Return
            },
            counter: words[0] & ENTRY_COUNTER_MASK,
            addr: words[1],
            tid: words[2],
        }
    }

    /// The slot as it is stored in a file: the three packed words,
    /// little-endian. The one byte codec behind both the persistent log
    /// file and the file transport.
    pub fn to_bytes(&self) -> [u8; ENTRY_BYTES as usize] {
        let mut out = [0u8; ENTRY_BYTES as usize];
        for (chunk, word) in out.chunks_exact_mut(8).zip(self.pack()) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Decode every complete slot in `bytes`, in order (a trailing
    /// partial slot is not an entry and is left out).
    pub fn decode_slots(bytes: &[u8]) -> impl Iterator<Item = LogEntry> + '_ {
        bytes.chunks_exact(ENTRY_BYTES as usize).map(|slot| {
            let word = |i: usize| {
                let le = slot[i * 8..(i + 1) * 8].try_into();
                u64::from_le_bytes(le.expect("8-byte word of a 24-byte slot"))
            };
            LogEntry::unpack([word(0), word(1), word(2)])
        })
    }

    /// Byte offset of entry `index` within the shared region.
    pub fn offset_of(index: u64) -> u64 {
        HEADER_BYTES + index * ENTRY_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn entry_pack_unpack_basic() {
        let e = LogEntry {
            kind: EventKind::Call,
            counter: 123_456,
            addr: 0x40_0040,
            tid: 3,
        };
        assert_eq!(LogEntry::unpack(e.pack()), e);
        let r = LogEntry {
            kind: EventKind::Return,
            ..e
        };
        assert_eq!(LogEntry::unpack(r.pack()), r);
        assert_ne!(e.pack()[0], r.pack()[0]);
    }

    #[test]
    fn counter_top_bit_does_not_leak_into_kind() {
        let e = LogEntry {
            kind: EventKind::Return,
            counter: u64::MAX, // will be masked to 63 bits
            addr: 1,
            tid: 0,
        };
        let d = LogEntry::unpack(e.pack());
        assert_eq!(d.kind, EventKind::Return);
        assert_eq!(d.counter, ENTRY_COUNTER_MASK);
    }

    #[test]
    fn header_control_round_trip() {
        let h = LogHeader {
            active: true,
            trace_calls: true,
            trace_returns: false,
            multithread: true,
            version: 7,
            pid: 0,
            size: 0,
            tail: 0,
            anchor: 0,
            shm_addr: 0,
        };
        let (a, c, r, m, v) = LogHeader::unpack_control(h.pack_control());
        assert!(a && c && !r && m);
        assert_eq!(v, 7);
    }

    #[test]
    fn stored_and_dropped_entries() {
        let mut h = LogHeader {
            active: false,
            trace_calls: true,
            trace_returns: true,
            multithread: false,
            version: LOG_VERSION,
            pid: 1,
            size: 100,
            tail: 42,
            anchor: 0,
            shm_addr: 0,
        };
        assert_eq!(h.stored_entries(), 42);
        assert_eq!(h.dropped_entries(), 0);
        h.tail = 130;
        assert_eq!(h.stored_entries(), 100);
        assert_eq!(h.dropped_entries(), 30);
    }

    #[test]
    fn validity_classifies_torn_and_unpublished_records() {
        let valid = LogEntry {
            kind: EventKind::Call,
            counter: 5,
            addr: 0x40_0000,
            tid: 0,
        };
        assert_eq!(valid.validity(), EntryValidity::Valid);
        let unpublished = LogEntry::unpack([0, 0, 0]);
        assert_eq!(unpublished.validity(), EntryValidity::Unpublished);
        // Published-looking (nonzero word 0) but address zero: torn.
        let torn = LogEntry {
            kind: EventKind::Call,
            counter: 9,
            addr: 0,
            tid: 3,
        };
        assert_eq!(torn.validity(), EntryValidity::Torn);
        // Even a Return with a counter is torn if the address is zero.
        let torn2 = LogEntry {
            kind: EventKind::Return,
            counter: 1,
            addr: 0,
            tid: 0,
        };
        assert_eq!(torn2.validity(), EntryValidity::Torn);
        // A hole in a slot reused after rotation: word 0 zero but stale
        // addr/tid from the previous epoch. Still never published.
        let stale_hole = LogEntry {
            kind: EventKind::Return,
            counter: 0,
            addr: 0x40_1234,
            tid: 7,
        };
        assert_eq!(stale_hole.validity(), EntryValidity::Unpublished);
    }

    #[test]
    fn magic_word_is_stable() {
        assert_eq!(LOG_MAGIC.to_le_bytes(), *b"TPERFLOG");
        assert_eq!(OFF_MAGIC % 8, 0);
        const { assert!(OFF_MAGIC < HEADER_BYTES) };
    }

    #[test]
    fn offsets_are_disjoint_words() {
        let offs = [
            OFF_CONTROL,
            OFF_PID,
            OFF_SIZE,
            OFF_TAIL,
            OFF_ANCHOR,
            OFF_SHM_ADDR,
            OFF_COUNTER,
            OFF_EPOCH,
            OFF_DROPPED,
            OFF_MAGIC,
            OFF_ABANDONED,
            OFF_ABANDONED_EPOCH,
            OFF_REGIME,
        ];
        for (i, a) in offs.iter().enumerate() {
            assert_eq!(a % 8, 0);
            assert!(*a < HEADER_BYTES);
            for b in &offs[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(LogEntry::offset_of(0), HEADER_BYTES);
        assert_eq!(LogEntry::offset_of(2), HEADER_BYTES + 2 * ENTRY_BYTES);
    }

    proptest! {
        #[test]
        fn prop_entry_round_trips(counter in 0u64..=ENTRY_COUNTER_MASK, addr: u64, tid: u64, call: bool) {
            let e = LogEntry {
                kind: if call { EventKind::Call } else { EventKind::Return },
                counter,
                addr,
                tid,
            };
            prop_assert_eq!(LogEntry::unpack(e.pack()), e);
            // The byte codec is the word codec, little-endian; a cut
            // trailing slot decodes to nothing.
            let mut bytes = e.to_bytes().to_vec();
            bytes.extend_from_slice(&e.to_bytes()[..23]);
            prop_assert_eq!(LogEntry::decode_slots(&bytes).collect::<Vec<_>>(), vec![e]);
        }

        #[test]
        fn prop_control_round_trips(active: bool, calls: bool, rets: bool, multi: bool, version in 0u16..0x7fff) {
            let h = LogHeader {
                active, trace_calls: calls, trace_returns: rets, multithread: multi, version,
                pid: 0, size: 0, tail: 0, anchor: 0, shm_addr: 0,
            };
            let (a, c, r, m, v) = LogHeader::unpack_control(h.pack_control());
            prop_assert_eq!((a, c, r, m, v), (active, calls, rets, multi, version));
        }
    }
}

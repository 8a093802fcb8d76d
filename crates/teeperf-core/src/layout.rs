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
//!
//! ## One image, one codec
//!
//! The header followed by the slots is the log's *image*, and it is the
//! same bytes in every medium: the [`crate::log::SharedLog`] region, a
//! deployed session's `<pid>.tplog` ([`crate::shm_file`]) and the file
//! `teeperf record` saves ([`crate::file`]) — words little-endian where
//! the medium is bytes. This module is the only place that knows how a
//! [`LogHeader`] becomes those thirteen words and back, and which header
//! may be trusted: [`LogHeader::encode`] is the table of what a fresh
//! image holds at each `OFF_*` (a new header word is one row there),
//! [`LogHeader::decode`] reads one back, [`LogHeader::check`] returns the
//! one [`HeaderFault`], and [`LogHeader::available`] is the one statement
//! of how many slots a reader may take. Each works through a word
//! accessor, so the shared-memory log keeps one access per word (the
//! model checker schedules every one of them) and the byte media pass
//! [`image_word`] over a [`HeaderImage`].

use std::error::Error;
use std::fmt;

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

    /// The version bits of a control word.
    fn control_version(control: u64) -> u16 {
        ((control >> VERSION_SHIFT) & VERSION_MASK) as u16
    }

    /// Number of entries actually present given the size bound.
    pub fn stored_entries(&self) -> u64 {
        self.tail.min(self.size)
    }

    /// Entries lost because the log filled up.
    pub fn dropped_entries(&self) -> u64 {
        self.tail.saturating_sub(self.size)
    }

    /// Encode a fresh image of this header: every header word handed to
    /// `put(offset, word)`, in ascending offset order. The words this
    /// struct does not carry start at zero (the all-zero regime word is
    /// `Full` at regime epoch 0) and the magic is [`LOG_MAGIC`].
    pub fn encode(&self, mut put: impl FnMut(u64, u64)) {
        for (off, word) in [
            (OFF_CONTROL, self.pack_control()),
            (OFF_PID, self.pid),
            (OFF_SIZE, self.size),
            (OFF_TAIL, self.tail),
            (OFF_ANCHOR, self.anchor),
            (OFF_SHM_ADDR, self.shm_addr),
            (OFF_COUNTER, 0),
            (OFF_EPOCH, 0),
            (OFF_DROPPED, 0),
            (OFF_MAGIC, LOG_MAGIC),
            (OFF_ABANDONED, 0),
            (OFF_ABANDONED_EPOCH, 0),
            (OFF_REGIME, 0),
        ] {
            put(off, word);
        }
    }

    /// [`LogHeader::encode`] into the bytes a file holds.
    pub fn to_image(&self) -> HeaderImage {
        let mut image = [0u8; HEADER_BYTES as usize];
        self.encode(|off, word| {
            image[off as usize..off as usize + 8].copy_from_slice(&word.to_le_bytes());
        });
        image
    }

    /// Decode the header behind `word`, one call per word this struct
    /// carries, in ascending offset order. Says nothing about whether the
    /// words may be trusted — that is [`LogHeader::check`].
    pub fn decode(mut word: impl FnMut(u64) -> u64) -> LogHeader {
        let control = word(OFF_CONTROL);
        LogHeader {
            active: control & FLAG_ACTIVE != 0,
            trace_calls: control & FLAG_TRACE_CALLS != 0,
            trace_returns: control & FLAG_TRACE_RETURNS != 0,
            multithread: control & FLAG_MULTITHREAD != 0,
            version: LogHeader::control_version(control),
            pid: word(OFF_PID),
            size: word(OFF_SIZE),
            tail: word(OFF_TAIL),
            anchor: word(OFF_ANCHOR),
            shm_addr: word(OFF_SHM_ADDR),
        }
    }

    /// Decide whether the header behind `word` may be trusted: the magic
    /// first (is this a log at all? nothing else means anything if not),
    /// then the version, then `rule`'s size / pid words. A word is read
    /// only after every check before it has passed.
    ///
    /// # Errors
    /// The first [`HeaderFault`] found, most fundamental first.
    pub fn check(mut word: impl FnMut(u64) -> u64, rule: HeaderRule) -> Result<(), HeaderFault> {
        let magic = word(OFF_MAGIC);
        if magic != LOG_MAGIC {
            return Err(HeaderFault::BadMagic { found: magic });
        }
        let version = LogHeader::control_version(word(OFF_CONTROL));
        if version != LOG_VERSION {
            return Err(HeaderFault::BadVersion { found: version });
        }
        match rule {
            HeaderRule::Foreign => {
                if word(OFF_PID) == PID_UNSET {
                    return Err(HeaderFault::NoPid);
                }
                if word(OFF_SIZE) == 0 {
                    return Err(HeaderFault::ZeroCapacity);
                }
            }
            HeaderRule::Attached(expected) => {
                let found = word(OFF_SIZE);
                if found != expected {
                    return Err(HeaderFault::SizeMismatch { found, expected });
                }
            }
        }
        Ok(())
    }

    /// [`LogHeader::check`], then [`LogHeader::decode`], over a file's
    /// header bytes.
    ///
    /// # Errors
    /// The check's [`HeaderFault`].
    pub fn from_image(image: &HeaderImage, rule: HeaderRule) -> Result<LogHeader, HeaderFault> {
        LogHeader::check(|off| image_word(image, off), rule)?;
        Ok(LogHeader::decode(|off| image_word(image, off)))
    }

    /// The availability rule, for every reader of an image held as bytes:
    /// of the slots this header promises (`min(tail, size)`), how many a
    /// medium holding `body_bytes` after the header can serve, and how
    /// many it is short. Bytes past the promise (a `.tplog`'s
    /// preallocated remainder) are nobody's; a partial trailing slot is
    /// not a slot. Returns `(available, shortfall)`.
    pub fn available(&self, body_bytes: u64) -> (u64, u64) {
        let promised = self.stored_entries();
        let available = promised.min(body_bytes / ENTRY_BYTES);
        (available, promised - available)
    }
}

/// A header as a file holds it: [`HEADER_BYTES`] bytes, each word
/// little-endian at its `OFF_*`.
pub type HeaderImage = [u8; HEADER_BYTES as usize];

/// The word at byte offset `off` (one of the `OFF_*`) of a header image.
pub fn image_word(image: &HeaderImage, off: u64) -> u64 {
    let word = image[off as usize..off as usize + 8].try_into();
    u64::from_le_bytes(word.expect("8-byte word inside the header"))
}

/// What [`LogHeader::check`] holds the size and pid words against once
/// the magic and version have passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderRule {
    /// An image someone else wrote, met for the first time (a file being
    /// registered, opened or loaded): it must name its writer and have
    /// room for at least one entry.
    Foreign,
    /// An image this handle attached to earlier, at this capacity: the
    /// size word must still say so.
    Attached(u64),
}

/// Why a header may not be trusted (see [`LogHeader::check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderFault {
    /// The integrity word does not contain [`LOG_MAGIC`]: not a log
    /// image, a destroyed one, or a region that was never initialized.
    BadMagic {
        /// The word found where the magic should be.
        found: u64,
    },
    /// The version bits of the control word are not [`LOG_VERSION`];
    /// entries of a foreign version would be decoded as garbage.
    BadVersion {
        /// The version found in the control word.
        found: u16,
    },
    /// The pid word is [`PID_UNSET`]: the log does not say who wrote it.
    NoPid,
    /// The size word is zero: a log that can hold nothing.
    ZeroCapacity,
    /// The size word no longer matches the capacity the handle attached
    /// with.
    SizeMismatch {
        /// The size word as currently stored.
        found: u64,
        /// The capacity recorded when the handle attached.
        expected: u64,
    },
}

impl fmt::Display for HeaderFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeaderFault::BadMagic { found } => write!(
                f,
                "not a log image: magic {found:#018x} != {LOG_MAGIC:#018x}"
            ),
            HeaderFault::BadVersion { found } => {
                write!(f, "log version {found} (this build speaks {LOG_VERSION})")
            }
            HeaderFault::NoPid => write!(f, "log header has no pid"),
            HeaderFault::ZeroCapacity => write!(f, "log declares zero capacity"),
            HeaderFault::SizeMismatch { found, expected } => write!(
                f,
                "header size word {found} != attached capacity {expected}"
            ),
        }
    }
}

impl Error for HeaderFault {}

/// Build a standard header for a session about to start: active, both
/// event kinds traced, this build's version, nothing written yet.
pub fn make_header(
    pid: u64,
    max_entries: u64,
    multithread: bool,
    anchor: u64,
    shm_addr: u64,
) -> LogHeader {
    LogHeader {
        active: true,
        trace_calls: true,
        trace_returns: true,
        multithread,
        version: LOG_VERSION,
        pid,
        size: max_entries,
        tail: 0,
        anchor,
        shm_addr,
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
        assert_eq!(LogHeader::decode(|off| image_word(&h.to_image(), off)), h);
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

    /// Run `f` over a word accessor into `image` and return the offsets
    /// it asked for, in order.
    fn reads<T>(image: &HeaderImage, f: impl FnOnce(&mut dyn FnMut(u64) -> u64) -> T) -> Vec<u64> {
        let mut seen = Vec::new();
        f(&mut |off| {
            seen.push(off);
            image_word(image, off)
        });
        seen
    }

    #[test]
    fn the_codec_touches_each_word_once_in_the_order_the_model_checker_counts() {
        let h = make_header(7, 16, true, 0x40_0000, 0x7000);
        let mut put = Vec::new();
        h.encode(|off, _| put.push(off));
        assert_eq!(put, (0..HEADER_BYTES).step_by(8).collect::<Vec<_>>());
        let image = h.to_image();
        let decode = [
            OFF_CONTROL,
            OFF_PID,
            OFF_SIZE,
            OFF_TAIL,
            OFF_ANCHOR,
            OFF_SHM_ADDR,
        ];
        assert_eq!(reads(&image, |w| LogHeader::decode(w)), decode);
        let attached = |image| reads(image, |w| LogHeader::check(w, HeaderRule::Attached(16)));
        assert_eq!(attached(&image), [OFF_MAGIC, OFF_CONTROL, OFF_SIZE]);
        let foreign = reads(&image, |w| LogHeader::check(w, HeaderRule::Foreign));
        assert_eq!(foreign, [OFF_MAGIC, OFF_CONTROL, OFF_PID, OFF_SIZE]);
        // A failed check reads nothing past the word that failed it.
        let mut smashed = image;
        smashed[OFF_MAGIC as usize] ^= 1;
        assert_eq!(attached(&smashed), [OFF_MAGIC]);
        let mut foreign_version = image;
        foreign_version[OFF_CONTROL as usize + 3] ^= 0x7f;
        assert_eq!(attached(&foreign_version), [OFF_MAGIC, OFF_CONTROL]);
    }

    #[test]
    fn check_names_the_most_fundamental_fault() {
        let good = make_header(7, 16, true, 0, 0);
        let check = |h: &LogHeader, rule| LogHeader::from_image(&h.to_image(), rule);
        assert_eq!(check(&good, HeaderRule::Foreign), Ok(good));
        assert_eq!(check(&good, HeaderRule::Attached(16)), Ok(good));
        let bad = LogHeader {
            version: 9,
            pid: PID_UNSET,
            size: 0,
            ..good
        };
        let fault = HeaderFault::BadVersion { found: 9 };
        assert_eq!(check(&bad, HeaderRule::Foreign), Err(fault));
        let bad = LogHeader {
            pid: PID_UNSET,
            size: 0,
            ..good
        };
        assert_eq!(check(&bad, HeaderRule::Foreign), Err(HeaderFault::NoPid));
        let bad = LogHeader { size: 0, ..good };
        assert_eq!(
            check(&bad, HeaderRule::Foreign),
            Err(HeaderFault::ZeroCapacity)
        );
        let fault = HeaderFault::SizeMismatch {
            found: 0,
            expected: 16,
        };
        assert_eq!(check(&bad, HeaderRule::Attached(16)), Err(fault));
        // The magic masks everything else.
        let mut image = bad.to_image();
        image[OFF_MAGIC as usize..][..8].copy_from_slice(&7u64.to_le_bytes());
        assert_eq!(
            LogHeader::from_image(&image, HeaderRule::Foreign),
            Err(HeaderFault::BadMagic { found: 7 })
        );
    }

    #[test]
    fn available_is_the_promise_clamped_to_what_the_medium_holds() {
        let mut h = make_header(7, 4, true, 0, 0);
        h.tail = 3;
        assert_eq!(
            h.available(4 * ENTRY_BYTES),
            (3, 0),
            "spare bytes are nobody's"
        );
        assert_eq!(h.available(3 * ENTRY_BYTES), (3, 0));
        assert_eq!(
            h.available(3 * ENTRY_BYTES - 1),
            (2, 1),
            "a cut slot is no slot"
        );
        assert_eq!(h.available(0), (0, 3));
        h.tail = u64::MAX;
        assert_eq!(
            h.available(u64::MAX),
            (4, 0),
            "drop tickets promise no slot"
        );
        h.size = u64::MAX;
        assert_eq!(h.available(2 * ENTRY_BYTES + 5), (2, u64::MAX - 2));
    }

    proptest! {
        #[test]
        fn prop_header_image_round_trips(
            active: bool, calls: bool, rets: bool, multi: bool,
            pid in 1u64..=u64::MAX, size in 1u64..=u64::MAX, tail: u64, anchor: u64, shm_addr: u64,
        ) {
            let h = LogHeader {
                active, trace_calls: calls, trace_returns: rets, multithread: multi,
                version: LOG_VERSION, pid, size, tail, anchor, shm_addr,
            };
            prop_assert_eq!(LogHeader::from_image(&h.to_image(), HeaderRule::Foreign), Ok(h));
        }

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
            prop_assert_eq!(LogHeader::decode(|off| image_word(&h.to_image(), off)), h);
        }
    }
}

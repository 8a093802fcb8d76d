//! File-backed shared-log transport: the cross-process form of the shared
//! log, written through ordinary file I/O.
//!
//! The in-process [`crate::log::SharedLog`] lives in a [`tee_sim::SharedMem`]
//! region that only threads of one process can share. To profile genuinely
//! separate OS processes without `unsafe` (no `mmap`), each writer process
//! materializes the same log image — the 104-byte header of
//! [`crate::layout`] followed by 24-byte slots, encoded and checked by
//! that module's one codec — in a regular file under `/dev/shm` (tmpfs, so
//! "file I/O" is still memory traffic) or any other registration
//! directory, and a [`FileShmSource`] in the daemon process polls it
//! through the standard [`EventSource`] contract. The file is also what a
//! post-mortem reads: [`crate::LogFile::load`] takes a `<pid>.tplog` as it
//! lies, finished or killed, and a [`FileShmSource`] drained to its end is
//! the one salvaging reader of any file holding a log image.
//!
//! # Publication protocol
//!
//! There is exactly **one writer per file** (each process registers its
//! own log, keyed by pid), so the file needs none of the in-memory log's
//! multi-writer reservation. An append is one positioned write, and the
//! publication that follows it is the writer's own publisher's:
//!
//! 1. **slot** — [`FileShmWriter::write`] stores the 24 bytes of slot
//!    `tail` in one write and notes `tail + 1` with its
//!    [`TailPublisher`](crate::publisher::TailPublisher), setting the wake
//!    flag (a Release RMW after the slot write completed);
//! 2. **tail** — the publisher thread, woken by the first unpublished
//!    write, clears the flag and reads the newest noted tail (an Acquire
//!    RMW), then stores it in the header's tail word, at most
//!    [`PUBLISH_WITHIN`](crate::publisher::PUBLISH_WITHIN) after it woke.
//!
//! Slot write, wake flag, tail store: each happens before the next, so
//! the tail store *is* the publication, and every slot below the tail a
//! reader observes is complete. One tail store publishes every write of
//! its window, so a write costs one system call. [`FileShmWriter::flush`]
//! stores the tail at once from the calling thread;
//! [`FileShmWriter::finish`] stops the publisher, stores the tail, and
//! only then clears ACTIVE, so a reader that sees ACTIVE cleared sees the
//! final tail. Dropping a writer stops its publisher and stores the tail
//! too. Stores are serialized and never move the tail back.
//!
//! Past capacity there is no slot to write and the noted tail alone is
//! the drop ticket (overflow is accounted via the tail, exactly like a
//! batch log). **Crash bound:** a writer that is killed loses at most the
//! entries it wrote in its last `PUBLISH_WITHIN`: their slots lie above
//! the last stored tail, and no reader — the live drain, salvage or
//! [`crate::LogFile::load`] — reads above the tail: nothing visible, no
//! hole. A killed writer also leaves ACTIVE set (see below).
//!
//! A pump is one read of the header — checked as the image the source
//! attached to ([`HeaderRule::Attached`]: magic, version, the size word
//! still the capacity it opened with) — then bulk reads of `[cursor,
//! available)` in chunks of [`READ_CHUNK_ENTRIES`], `available` being
//! [`LogHeader::available`]'s `min(tail, size, slots on disk)`, the rule
//! [`crate::LogFile::load`] reads by. [`EventSource::drain`] hands each
//! chunk to its walk before it reads the next, so however far the tail
//! moved, a batch whose walk consumes its stretches holds one chunk. The
//! final drain of a session reads the same way: a file has no epoch to
//! force closed. Every slot is still classified with
//! the same [`EntryValidity`](crate::layout::EntryValidity) rules as the
//! live drain, and the salvage accounting ([`SalvageReport`]) carries over: a
//! torn or never-written slot below the tail can only come from a broken
//! or hostile writer and is skipped and counted in the pump that meets
//! it, truncated files are clamped and accounted, corrupt headers kill
//! the source instead of the daemon.
//!
//! The protocol rests on one cross-process assumption: a positioned write
//! that happened before a later positioned write of the same process (on
//! the same thread, or ordered by the publisher's RMW) is visible to any
//! process that observes the later one, and an aligned 8-byte positioned
//! write to tmpfs is never observed torn. The
//! two-process stress test in `teeperf-daemon` is its hammer, the validity
//! classification its backstop.
//!
//! Not carried over this transport: **epoch rotation** (the file is sized
//! for the session) and the **fidelity regime word** (the consumer opens
//! the file read-only, so [`FileShmSource`] keeps the [`EventSource`]
//! regime defaults and a file-backed session is always pinned to `Full`;
//! zero-filled regions decode as `Full` at regime epoch 0 by
//! construction).
//!
//! # Registration protocol
//!
//! Writers never expose a half-initialized header: the log is created
//! under a dot-prefixed temporary name, fully initialized, then renamed to
//! `<pid>.tplog` — the rename is the registration. An optional `<pid>.sym`
//! sidecar (mcvm `DebugInfo` text) published the same way gives the
//! daemon symbol names; without it, addresses render as raw hex. A writer
//! that finishes cleanly clears the header's ACTIVE flag; one that is
//! killed leaves it set, so its source is never exhausted: the daemon's
//! `LivenessProbe` quarantines it once the writer's `/proc/<pid>` is gone.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::faults::{SalvageReason, SalvageReport};
/// Why a log file could not be created or opened: the error of every file
/// that holds a log image.
pub use crate::file::LogFileError as ShmFileError;
use crate::layout::{
    image_word, HeaderImage, HeaderRule, LogEntry, LogHeader, ENTRY_BYTES, FLAG_ACTIVE,
    HEADER_BYTES, OFF_CONTROL, OFF_MAGIC, OFF_TAIL,
};
use crate::publisher::TailPublisher;
use crate::source::{EventSource, SourceBatch, SourceState};

/// File extension of a registered log (`<pid>.tplog`).
pub const LOG_EXT: &str = "tplog";
/// File extension of the optional debug-info sidecar (`<pid>.sym`).
pub const SYM_EXT: &str = "sym";

/// The preferred registration directory: tmpfs when the platform has it
/// mounted (so the "file" I/O is shared-memory traffic), else the system
/// temp dir.
pub fn default_shm_dir() -> PathBuf {
    let shm = PathBuf::from("/dev/shm");
    if shm.is_dir() {
        shm
    } else {
        std::env::temp_dir()
    }
}

/// Path of pid's registered log inside `dir`.
pub fn log_path(dir: &Path, pid: u64) -> PathBuf {
    dir.join(format!("{pid}.{LOG_EXT}"))
}

/// Path of pid's debug-info sidecar inside `dir`.
pub fn sym_path(dir: &Path, pid: u64) -> PathBuf {
    dir.join(format!("{pid}.{SYM_EXT}"))
}

/// Publish `contents` at `dir/<pid>.<ext>` atomically (temp name + rename),
/// so a scanner never observes a half-written file.
pub fn publish_sidecar(dir: &Path, pid: u64, ext: &str, contents: &str) -> io::Result<PathBuf> {
    let tmp = dir.join(format!(".{pid}.{ext}.tmp"));
    std::fs::write(&tmp, contents)?;
    let dest = dir.join(format!("{pid}.{ext}"));
    std::fs::rename(&tmp, &dest)?;
    Ok(dest)
}

/// The whole header in one positioned read.
fn read_header(file: &File) -> io::Result<HeaderImage> {
    let mut header = [0u8; HEADER_BYTES as usize];
    file.read_exact_at(&mut header, 0)?;
    Ok(header)
}

/// The file's length and its header, trusted under `rule`. The length is
/// one `lseek` to the end, cheaper than the `statx` of `metadata()`; every
/// read of the file is positioned, so its offset is nobody's.
pub(crate) fn read_checked(
    mut file: &File,
    rule: HeaderRule,
) -> Result<(u64, LogHeader), ShmFileError> {
    let len = file.seek(SeekFrom::End(0))?;
    if len < HEADER_BYTES {
        return Err(ShmFileError::TooSmall(len));
    }
    Ok((len, LogHeader::from_image(&read_header(file)?, rule)?))
}

fn write_word(file: &File, off: u64, word: u64) -> io::Result<()> {
    file.write_all_at(&word.to_le_bytes(), off)
}

/// The tail store: publishes every slot below `tail`, and past capacity
/// the drop tickets.
fn store_tail(file: &File, tail: u64) -> io::Result<()> {
    write_word(file, OFF_TAIL, tail)
}

/// The producer half: one process's log file, whose slots it writes and
/// whose tail its own publisher stores (see the module docs).
#[derive(Debug)]
pub struct FileShmWriter {
    file: Arc<File>,
    path: PathBuf,
    size: u64,
    tail: u64,
    publisher: TailPublisher,
}

impl FileShmWriter {
    /// Create and register a log for `header.pid` inside `dir`: the file
    /// is fully initialized under a temporary name and only then renamed
    /// to `<pid>.tplog`, so a directory scanner never attaches to a
    /// half-built header. Starts the log's tail publisher.
    ///
    /// # Errors
    /// Propagates file-system failures and a failure to start the
    /// publisher; rejects a header without a pid or without capacity (such
    /// a log could never be registered or drained).
    pub fn create(dir: &Path, header: &LogHeader) -> Result<FileShmWriter, ShmFileError> {
        // A session about to start: ACTIVE, nothing published.
        let image = LogHeader {
            active: true,
            tail: 0,
            ..*header
        }
        .to_image();
        LogHeader::from_image(&image, HeaderRule::Foreign)?;
        let tmp = dir.join(format!(".{}.{LOG_EXT}.tmp", header.pid));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.set_len(HEADER_BYTES + header.size * ENTRY_BYTES)?;
        file.write_all_at(&image, 0)?;
        file.sync_all()?;
        let path = log_path(dir, header.pid);
        std::fs::rename(&tmp, &path)?;
        let file = Arc::new(file);
        let publishing = Arc::clone(&file);
        let publisher = TailPublisher::start(Box::new(move |tail| store_tail(&publishing, tail)))?;
        Ok(FileShmWriter {
            file,
            path,
            size: header.size,
            tail: 0,
            publisher,
        })
    }

    /// Where the registered log lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> u64 {
        self.size
    }

    /// Next-write index (beyond `capacity` once entries have been dropped).
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Entries dropped on overflow so far.
    pub fn dropped(&self) -> u64 {
        self.tail.saturating_sub(self.size)
    }

    /// Advance the tail, leaving its store to the publisher.
    fn advance(&mut self) {
        self.tail += 1;
        self.publisher.note(self.tail);
    }

    /// Append one entry: the slot in one write, the tail left to the
    /// publisher, which stores it within
    /// [`PUBLISH_WITHIN`](crate::publisher::PUBLISH_WITHIN). Returns the
    /// slot index, or `None` if the log is full: then nothing is written,
    /// but the tail still advances, so the drop is visible to the consumer.
    ///
    /// # Errors
    /// Propagates file-system failures of the slot write (disk full, file
    /// deleted under us).
    pub fn write(&mut self, entry: &LogEntry) -> io::Result<Option<u64>> {
        let index = (self.tail < self.size).then_some(self.tail);
        if let Some(index) = index {
            self.file
                .write_all_at(&entry.to_bytes(), LogEntry::offset_of(index))?;
        }
        self.advance();
        Ok(index)
    }

    /// Store the tail now, publishing every entry written so far without
    /// waiting for the publisher.
    ///
    /// # Errors
    /// Propagates file-system failures of the tail store.
    pub fn flush(&self) -> io::Result<()> {
        self.publisher.publish()
    }

    /// Advance the tail over a slot that was never written — what only a
    /// broken writer leaves behind — and publish it at once.
    /// Fault-injection entry point for the matrix tests; a correct writer
    /// never calls this.
    ///
    /// # Errors
    /// Propagates file-system failures.
    pub fn skip_slot_unwritten(&mut self) -> io::Result<()> {
        self.advance();
        self.flush()
    }

    /// Publish a slot holding word 0 only, its address word left zero —
    /// a torn record — at once. Fault-injection entry point for the matrix
    /// tests.
    ///
    /// # Errors
    /// Propagates file-system failures.
    pub fn write_torn(&mut self, entry: &LogEntry) -> io::Result<()> {
        if self.tail < self.size {
            let off = LogEntry::offset_of(self.tail);
            write_word(&self.file, off, entry.pack()[0].max(1))?;
        }
        self.advance();
        self.flush()
    }

    /// Overwrite the magic word — the state of a log destroyed by a buggy
    /// or hostile writer. Fault-injection entry point for the matrix tests.
    ///
    /// # Errors
    /// Propagates file-system failures.
    pub fn corrupt_header(&mut self) -> io::Result<()> {
        write_word(&self.file, OFF_MAGIC, 0xbad0_bad0_bad0_bad0)
    }

    /// Finish the session cleanly: stop the publisher, store the final
    /// tail, and only then clear the header's ACTIVE flag, so the consumer
    /// knows no further entry will ever be published and can report the
    /// source exhausted. A write after this is published by
    /// [`FileShmWriter::flush`] or the drop.
    ///
    /// # Errors
    /// Propagates file-system failures.
    pub fn finish(&mut self) -> io::Result<()> {
        self.publisher.finish()?;
        let control = image_word(&read_header(&self.file)?, OFF_CONTROL);
        write_word(&self.file, OFF_CONTROL, control & !FLAG_ACTIVE)?;
        self.file.sync_all()
    }
}

/// Entries per bulk slot read (96 KiB): bounds what one read — and the
/// read buffer a source keeps — can be asked for, whatever the header
/// claims.
pub const READ_CHUNK_ENTRIES: u64 = 4096;

/// The consumer half: an [`EventSource`] polling one registered log file.
/// At most one source should drain a given file (the cursor is local).
#[derive(Debug)]
pub struct FileShmSource {
    file: File,
    path: PathBuf,
    /// The header as opened: who wrote the log, its capacity and anchor.
    /// Its tail and ACTIVE flag are the opening's; the session's progress
    /// is `tail` and `writer_done`, as of the last pump.
    header: LogHeader,
    cursor: u64,
    /// The tail as of the last pump (beyond the capacity once entries
    /// dropped).
    tail: u64,
    writer_done: bool,
    dead: bool,
    /// The bytes of one bulk read, kept across pumps (at most
    /// [`READ_CHUNK_ENTRIES`] slots).
    buf: Vec<u8>,
}

impl FileShmSource {
    /// Attach to a registered log file — or any file holding a log image,
    /// a [`crate::LogFile::save`]d recording included — once its header
    /// passes [`LogHeader::check`] as a foreign image.
    ///
    /// # Errors
    /// Returns the first failed check; an unreadable or alien file must be
    /// rejected at attach time, not quarantined later.
    pub fn open(path: &Path) -> Result<FileShmSource, ShmFileError> {
        let file = OpenOptions::new().read(true).open(path)?;
        let (_, header) = read_checked(&file, HeaderRule::Foreign)?;
        Ok(FileShmSource {
            file,
            path: path.to_path_buf(),
            header,
            cursor: 0,
            tail: 0,
            writer_done: false,
            dead: false,
            buf: Vec::new(),
        })
    }

    /// The file this source drains.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The header as it was decoded when the file was opened (the anchor
    /// a symbolizer relocates by; the tail and ACTIVE flag are that
    /// moment's, not the session's current ones).
    pub fn header(&self) -> &LogHeader {
        &self.header
    }

    /// Declared capacity in entries.
    pub fn capacity(&self) -> u64 {
        self.header.size
    }

    /// Whether the writer has cleared the header's ACTIVE flag (observed
    /// as of the last pump). A liveness prober uses this to distinguish
    /// "finished cleanly" from "stopped publishing".
    pub fn writer_finished(&self) -> bool {
        self.writer_done
    }

    fn dropped_total(&self) -> u64 {
        self.tail.saturating_sub(self.header.size)
    }

    /// One look at the header, checked as the image this source attached
    /// to: records the tail and the writer's ACTIVE flag, and returns how
    /// many slots the file can serve and how many promised ones it is
    /// short ([`LogHeader::available`]) — or `None` after marking the
    /// source dead (corrupt or vanished header) and accounting why.
    fn observe(&mut self, salvage: &mut SalvageReport) -> Option<(u64, u64)> {
        let reread = || read_checked(&self.file, HeaderRule::Attached(self.header.size));
        let mut seen = reread();
        if matches!(seen, Ok((_, header)) if !self.writer_done && !header.active) {
            // First sight of a finished writer. Exhaustion pairs this flag
            // with the tail, so the tail must come from a read that
            // started after the flag was seen cleared: one more header
            // read, once per session, whatever order a single read copies
            // its words in.
            seen = reread();
        }
        match seen {
            Ok((len, header)) => {
                self.writer_done = !header.active;
                self.tail = header.tail;
                Some(header.available(len - HEADER_BYTES))
            }
            Err(why) => {
                salvage.incident(match why {
                    ShmFileError::TooSmall(_) => SalvageReason::TruncatedFile,
                    _ => SalvageReason::CorruptHeader,
                });
                self.dead = true;
                None
            }
        }
    }

    /// The slots from the cursor up to what one header read shows, `walk`
    /// handed `batch.entries` after each bulk read.
    fn read_into(&mut self, batch: &mut SourceBatch, walk: &mut dyn FnMut(&mut Vec<LogEntry>)) {
        let salvage = &mut batch.salvaged;
        let Some((available, shortfall)) = self.observe(salvage) else {
            return;
        };
        if shortfall > 0 {
            // A file cut below what its tail promises lost records.
            // Account the ones not already drained, salvage what is left
            // below the cut, and never look again: the file is no longer
            // a faithful log.
            let promised = available + shortfall;
            let lost = promised.saturating_sub(available.max(self.cursor));
            if lost == 0 {
                // The cut took only drained slots, but the source still
                // dies of it: keep the cause on record.
                salvage.incident(SalvageReason::TruncatedFile);
            }
            salvage.drop_n(SalvageReason::TruncatedFile, lost);
            self.dead = true;
        }
        while self.cursor < available {
            let n = (available - self.cursor).min(READ_CHUNK_ENTRIES);
            let bytes = (n * ENTRY_BYTES) as usize;
            // The buffer only grows (to one chunk at most): a shorter read
            // fills a prefix, and nothing is zeroed twice.
            if self.buf.len() < bytes {
                self.buf.resize(bytes, 0);
            }
            let chunk = &mut self.buf[..bytes];
            let off = LogEntry::offset_of(self.cursor);
            if self.file.read_exact_at(chunk, off).is_err() {
                // Bytes vanished mid-drain; the header re-read accounted
                // the loss (or will on the next pump) — stop here.
                break;
            }
            let decoded = LogEntry::decode_slots(chunk);
            batch.salvaged.filter_into(decoded, &mut batch.entries);
            self.cursor += n;
            walk(&mut batch.entries);
        }
    }
}

impl EventSource for FileShmSource {
    fn pid(&self) -> u64 {
        self.header.pid
    }

    /// One look at the header, then the slots from the cursor up to the
    /// tail it showed, in bulk reads, `walk` handed `batch.entries` after
    /// each. The validity rules apply per slot: below the tail nothing is
    /// waited for, so an invalid slot is skipped and accounted on the
    /// spot. A final drain reads the same way.
    fn drain(
        &mut self,
        batch: &mut SourceBatch,
        _to_end: bool,
        walk: &mut dyn FnMut(&mut Vec<LogEntry>),
    ) {
        batch.reset();
        let already_dropped = self.dropped_total();
        if !self.dead {
            self.read_into(batch, walk);
        }
        // Overflow accounting: each newly-observed drop exactly once, on
        // the batch where it became visible.
        batch.dropped = self.dropped_total().saturating_sub(already_dropped);
        batch.state = SourceState {
            epoch: 0,
            dropped_total: self.dropped_total(),
            // Exhausted only when the writer declared itself done AND the
            // cursor has consumed everything it promised. A dead source is
            // not exhausted — the registry quarantines it instead.
            exhausted: !self.dead
                && self.writer_done
                && self.cursor >= self.header.size.min(self.tail),
            dead: self.dead,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{
        make_header, EntryValidity, EventKind, HeaderFault, LOG_MAGIC, OFF_SIZE, PID_UNSET,
    };
    use crate::log::{region_bytes, SharedLog};
    use crate::publisher::PUBLISH_WITHIN;
    use crate::source::tests::Tally;
    use crate::LogFile;
    use proptest::prelude::*;

    /// A unique scratch registration dir per test (removed on drop).
    struct ScratchDir(PathBuf);

    fn scratch(label: &str) -> ScratchDir {
        let dir =
            std::env::temp_dir().join(format!("teeperf-shmfile-{}-{label}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn entry(counter: u64) -> LogEntry {
        LogEntry {
            kind: EventKind::Call,
            counter,
            addr: 0x40_0000 + counter,
            tid: 0,
        }
    }

    fn header(pid: u64, size: u64) -> LogHeader {
        make_header(pid, size, true, 0, 0)
    }

    /// A source over `path`, its drains tallied.
    fn open(path: &Path) -> Tally<FileShmSource> {
        Tally::new(FileShmSource::open(path).unwrap())
    }

    #[test]
    fn round_trips_entries_through_a_file() {
        let dir = scratch("roundtrip");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 16)).unwrap();
        for k in 1..=5 {
            assert!(w.write(&entry(k)).unwrap().is_some());
        }
        w.flush().unwrap();
        let mut src = open(&log_path(&dir.0, 7));
        assert_eq!(src.pid(), 7);
        let b = src.pump();
        assert_eq!(b.entries.len(), 5);
        assert_eq!(b.entries[0], entry(1));
        assert_eq!(b.dropped, 0);
        assert!(src.pump().entries.is_empty(), "no re-reads");
        assert!(!src.state.exhausted, "writer still active");
        assert!(src.salvage.is_clean());
    }

    #[test]
    fn finish_makes_the_source_exhausted() {
        let dir = scratch("finish");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 8)).unwrap();
        w.write(&entry(1)).unwrap();
        w.finish().unwrap();
        let mut src = open(&log_path(&dir.0, 7));
        let b = src.pump();
        assert_eq!(b.entries.len(), 1);
        assert!(src.state.exhausted);
        assert!(!src.state.dead);
    }

    #[test]
    fn overflow_is_accounted_exactly_once() {
        let dir = scratch("overflow");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 4)).unwrap();
        for k in 1..=7 {
            w.write(&entry(k)).unwrap();
        }
        w.flush().unwrap();
        assert_eq!(w.dropped(), 3);
        let mut src = open(&log_path(&dir.0, 7));
        let b = src.pump();
        assert_eq!(b.entries.len(), 4);
        assert_eq!(b.dropped, 3);
        assert_eq!(src.pump().dropped, 0, "drops reported once");
        assert_eq!(src.state.dropped_total, 3);
        // Drops that arrive after the last entry was drained still come
        // out, on a batch with no entries, and then the source is done.
        for k in 8..=9 {
            w.write(&entry(k)).unwrap();
        }
        w.finish().unwrap();
        let b = src.pump();
        assert_eq!((b.entries.len(), b.dropped), (0, 2));
        assert!(src.state.exhausted);
        assert_eq!(src.state.dropped_total, 5);
    }

    /// The raw positioned writes of the protocol, issued from the test so
    /// the two stores can be observed one at a time.
    fn raw_file(dir: &ScratchDir, pid: u64) -> File {
        OpenOptions::new()
            .write(true)
            .open(log_path(&dir.0, pid))
            .unwrap()
    }

    #[test]
    fn a_slot_is_invisible_until_the_tail_store_publishes_it() {
        let dir = scratch("tailpublishes");
        let _w = FileShmWriter::create(&dir.0, &header(7, 8)).unwrap();
        let raw = raw_file(&dir, 7);
        let mut src = open(&log_path(&dir.0, 7));
        // Slot bytes on disk, tail not yet stored: nothing to see.
        raw.write_all_at(&entry(1).to_bytes(), LogEntry::offset_of(0))
            .unwrap();
        assert!(src.pump().entries.is_empty(), "above the tail is unread");
        assert!(src.salvage.is_clean());
        write_word(&raw, OFF_TAIL, 1).unwrap();
        assert_eq!(src.pump().entries, vec![entry(1)]);
        // The broken order — tail first — exposes the empty slot, which is
        // skipped and counted at once; its late bytes are never delivered.
        write_word(&raw, OFF_TAIL, 2).unwrap();
        assert!(src.pump().entries.is_empty());
        assert_eq!(src.salvage.count(SalvageReason::UnpublishedSlot), 1);
        raw.write_all_at(&entry(2).to_bytes(), LogEntry::offset_of(1))
            .unwrap();
        assert!(src.pump().entries.is_empty(), "the cursor moved on");
        assert_eq!(src.salvage.kept, 1);
    }

    #[test]
    fn invalid_slots_below_the_tail_are_skipped_and_counted_in_the_same_pump() {
        let dir = scratch("samepump");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 8)).unwrap();
        w.write(&entry(1)).unwrap();
        w.skip_slot_unwritten().unwrap();
        w.write(&entry(3)).unwrap();
        w.write_torn(&entry(4)).unwrap();
        w.write(&entry(5)).unwrap();
        w.flush().unwrap();
        let mut src = open(&log_path(&dir.0, 7));
        let b = src.pump();
        assert_eq!(b.entries, vec![entry(1), entry(3), entry(5)]);
        let report = &src.salvage;
        assert_eq!(report.count(SalvageReason::UnpublishedSlot), 1);
        assert_eq!(report.count(SalvageReason::TornEntry), 1);
        assert_eq!(report.kept, 3);
        assert!(!src.state.exhausted, "writer still active");
        w.finish().unwrap();
        assert!(src.pump().entries.is_empty());
        assert!(src.state.exhausted);
    }

    #[test]
    fn a_log_larger_than_the_read_chunk_drains_in_order() {
        let dir = scratch("chunks");
        let n = 2 * READ_CHUNK_ENTRIES + 17;
        let mut w = FileShmWriter::create(&dir.0, &header(7, n + 8)).unwrap();
        let mut src = open(&log_path(&dir.0, 7));
        // Start mid-chunk, so chunk boundaries fall at unaligned indices.
        for k in 1..=5 {
            w.write(&entry(k)).unwrap();
        }
        w.flush().unwrap();
        assert_eq!(src.pump().entries.len(), 5);
        for k in 6..=n {
            w.write(&entry(k)).unwrap();
        }
        w.finish().unwrap();
        let b = src.pump();
        assert_eq!(b.entries.len() as u64, n - 5);
        assert!(b.entries.iter().map(|e| e.counter).eq(6..=n));
        assert!(src.state.exhausted);
        assert!(src.salvage.is_clean());
        // Handed over a bulk read at a time to a walk that consumes them,
        // the same entries come in three stretches, the batch never
        // holding more than one.
        let mut src = open(&log_path(&dir.0, 7));
        let (mut batch, mut stretches) = (SourceBatch::default(), Vec::new());
        src.drain(&mut batch, false, &mut |e| {
            stretches.push(e.clone());
            e.clear();
        });
        let lens: Vec<u64> = stretches.iter().map(|s| s.len() as u64).collect();
        assert_eq!(lens, [READ_CHUNK_ENTRIES, READ_CHUNK_ENTRIES, 17]);
        assert!(stretches.concat().iter().map(|e| e.counter).eq(1..=n));
        assert!(batch.entries.capacity() as u64 <= READ_CHUNK_ENTRIES);
    }

    #[test]
    fn a_kept_batch_and_read_buffer_are_refilled_in_place() {
        let dir = scratch("kept");
        let n = READ_CHUNK_ENTRIES + 5;
        let mut w = FileShmWriter::create(&dir.0, &header(7, 2 * n)).unwrap();
        let mut src = open(&log_path(&dir.0, 7));
        let mut batch = SourceBatch::default();
        for k in 1..=n {
            w.write(&entry(k)).unwrap();
        }
        w.flush().unwrap();
        let keep = &mut |_: &mut Vec<LogEntry>| {};
        src.drain(&mut batch, false, keep);
        assert_eq!(batch.entries.len() as u64, n, "two bulk reads");
        let held = |src: &FileShmSource, batch: &SourceBatch| {
            let entries = (batch.entries.as_ptr(), batch.entries.capacity());
            (entries, (src.buf.as_ptr(), src.buf.capacity()))
        };
        let steady = held(&src, &batch);
        assert!(src.buf.capacity() as u64 <= READ_CHUNK_ENTRIES * ENTRY_BYTES);
        // The steady state: fewer entries than the high-water mark, and an
        // idle pump, both land in the memory the first pump grew.
        for k in n + 1..=n + 100 {
            w.write(&entry(k)).unwrap();
        }
        w.flush().unwrap();
        src.drain(&mut batch, false, keep);
        assert!(batch.entries.iter().map(|e| e.counter).eq(n + 1..=n + 100));
        assert_eq!(held(&src, &batch), steady);
        src.drain(&mut batch, false, keep);
        assert!(batch.entries.is_empty());
        assert_eq!(held(&src, &batch), steady);
    }

    #[test]
    fn a_header_claiming_more_than_the_file_holds_reads_only_what_is_on_disk() {
        let dir = scratch("overclaim");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 4)).unwrap();
        for k in 1..=3 {
            w.write(&entry(k)).unwrap();
        }
        // A hostile header: capacity and tail far beyond the 4 slots the
        // file has bytes for.
        let raw = raw_file(&dir, 7);
        write_word(&raw, OFF_SIZE, 1 << 40).unwrap();
        write_word(&raw, OFF_TAIL, 1 << 40).unwrap();
        let mut src = open(&log_path(&dir.0, 7));
        let b = src.pump();
        assert_eq!(b.entries, vec![entry(1), entry(2), entry(3)]);
        assert!(b.entries.capacity() as u64 <= READ_CHUNK_ENTRIES);
        assert_eq!(b.dropped, 0);
        assert!(src.state.dead, "a file shorter than its tail is truncated");
        let report = &src.salvage;
        assert_eq!(report.count(SalvageReason::TruncatedFile), (1 << 40) - 4);
        assert_eq!(report.count(SalvageReason::UnpublishedSlot), 1);
        assert_eq!(report.kept, 3);
    }

    #[test]
    fn torn_entry_is_dropped_and_counted() {
        let dir = scratch("torn");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 8)).unwrap();
        w.write(&entry(1)).unwrap();
        w.write_torn(&entry(2)).unwrap();
        w.write(&entry(3)).unwrap();
        w.flush().unwrap();
        let mut src = open(&log_path(&dir.0, 7));
        let b = src.pump();
        assert_eq!(b.entries, vec![entry(1), entry(3)]);
        let s = &src.salvage;
        assert_eq!(s.count(SalvageReason::TornEntry), 1);
        assert_eq!(s.kept, 2);
    }

    #[test]
    fn corrupt_header_kills_the_source_not_the_process() {
        let dir = scratch("corrupt");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 8)).unwrap();
        w.write(&entry(1)).unwrap();
        w.flush().unwrap();
        let mut src = open(&log_path(&dir.0, 7));
        assert_eq!(src.pump().entries.len(), 1);
        w.corrupt_header().unwrap();
        let b = src.pump();
        assert!(b.entries.is_empty());
        assert!(src.state.dead);
        assert!(!src.state.exhausted);
        assert_eq!(src.salvage.count(SalvageReason::CorruptHeader), 1);
        // Dead means dead: pumps stay empty, no panic, no hang.
        assert!(src.pump().entries.is_empty());
    }

    #[test]
    fn truncation_mid_drain_is_clamped_and_accounted() {
        let dir = scratch("truncate");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 16)).unwrap();
        for k in 1..=10 {
            w.write(&entry(k)).unwrap();
        }
        w.flush().unwrap();
        let mut src = open(&log_path(&dir.0, 7));
        let mut drained = open(&log_path(&dir.0, 7));
        assert_eq!(drained.pump().entries.len(), 10);
        // Cut the file to 4 entries' worth between pumps.
        let keep = HEADER_BYTES + 4 * ENTRY_BYTES;
        OpenOptions::new()
            .write(true)
            .open(log_path(&dir.0, 7))
            .unwrap()
            .set_len(keep)
            .unwrap();
        let b = src.pump();
        assert_eq!(b.entries.len(), 4, "salvages the readable prefix");
        assert!(src.state.dead, "a cut file is no longer a faithful log");
        assert_eq!(src.salvage.count(SalvageReason::TruncatedFile), 6);
        // A source the cut took nothing undrained from still dies of it,
        // with the cause on record.
        assert!(drained.pump().entries.is_empty());
        assert!(drained.state.dead);
        assert_eq!(drained.salvage.dropped, 0);
        assert_eq!(drained.salvage.count(SalvageReason::TruncatedFile), 1);
    }

    #[test]
    fn truncation_below_header_goes_dead() {
        let dir = scratch("beheaded");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 8)).unwrap();
        w.write(&entry(1)).unwrap();
        let mut src = open(&log_path(&dir.0, 7));
        OpenOptions::new()
            .write(true)
            .open(log_path(&dir.0, 7))
            .unwrap()
            .set_len(10)
            .unwrap();
        let b = src.pump();
        assert!(b.entries.is_empty());
        assert!(src.state.dead);
        assert_eq!(src.salvage.count(SalvageReason::TruncatedFile), 1);
    }

    #[test]
    fn open_rejects_alien_and_broken_files() {
        let dir = scratch("reject");
        std::fs::write(dir.0.join("9.tplog"), b"not a log").unwrap();
        assert!(matches!(
            FileShmSource::open(&dir.0.join("9.tplog")),
            Err(ShmFileError::TooSmall(_))
        ));
        std::fs::write(dir.0.join("10.tplog"), vec![0u8; 200]).unwrap();
        assert!(matches!(
            FileShmSource::open(&dir.0.join("10.tplog")),
            Err(ShmFileError::Header(HeaderFault::BadMagic { found: 0 }))
        ));
        assert!(matches!(
            FileShmSource::open(&dir.0.join("missing.tplog")),
            Err(ShmFileError::Io(_))
        ));
        // A sound image the analyzer could not trust either: refused with
        // the strict parse's own fault.
        let refused = |h: LogHeader| {
            let path = dir.0.join("11.tplog");
            LogFile::new(h, vec![entry(1)]).save(&path).unwrap();
            let strict = LogFile::from_bytes(&std::fs::read(&path).unwrap()).unwrap_err();
            let opened = FileShmSource::open(&path).unwrap_err();
            assert_eq!(opened.to_string(), strict.to_string());
            opened
        };
        let mut foreign = header(11, 8);
        foreign.version += 1;
        assert!(matches!(
            refused(foreign),
            ShmFileError::Header(HeaderFault::BadVersion { .. })
        ));
        assert!(matches!(
            refused(header(11, 0)),
            ShmFileError::Header(HeaderFault::ZeroCapacity)
        ));
        assert!(matches!(
            refused(header(PID_UNSET, 8)),
            ShmFileError::Header(HeaderFault::NoPid)
        ));
    }

    #[test]
    fn create_rejects_unkeyed_or_empty_logs() {
        let dir = scratch("badcreate");
        assert!(matches!(
            FileShmWriter::create(&dir.0, &header(PID_UNSET, 8)),
            Err(ShmFileError::Header(HeaderFault::NoPid))
        ));
        assert!(matches!(
            FileShmWriter::create(&dir.0, &header(7, 0)),
            Err(ShmFileError::Header(HeaderFault::ZeroCapacity))
        ));
    }

    #[test]
    fn registration_is_atomic_no_temp_name_visible() {
        let dir = scratch("atomic");
        let _w = FileShmWriter::create(&dir.0, &header(7, 8)).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir.0)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["7.tplog".to_string()]);
    }

    #[test]
    fn sidecar_publish_is_atomic() {
        let dir = scratch("sidecar");
        let p = publish_sidecar(&dir.0, 7, SYM_EXT, "fn main 4 1\n").unwrap();
        assert_eq!(p, sym_path(&dir.0, 7));
        assert_eq!(std::fs::read_to_string(p).unwrap(), "fn main 4 1\n");
    }

    #[test]
    fn live_writes_are_visible_between_pumps() {
        let dir = scratch("live");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 64)).unwrap();
        let mut src = open(&log_path(&dir.0, 7));
        assert!(src.pump().entries.is_empty());
        w.write(&entry(1)).unwrap();
        w.flush().unwrap();
        assert_eq!(src.pump().entries.len(), 1);
        w.write(&entry(2)).unwrap();
        w.write(&entry(3)).unwrap();
        w.flush().unwrap();
        let b = src.drain_to_end();
        assert_eq!(b.entries.len(), 2);
    }

    /// Write system calls made so far by the calling thread (`syscw`).
    fn thread_write_syscalls() -> u64 {
        let io = std::fs::read_to_string("/proc/thread-self/io").expect("per-thread io counters");
        let line = io.lines().find_map(|l| l.strip_prefix("syscw:"));
        line.expect("a syscw line").trim().parse().unwrap()
    }

    #[test]
    fn a_write_is_one_system_call_and_a_drop_ticket_none() {
        let dir = scratch("syscalls");
        let n = 64;
        let mut w = FileShmWriter::create(&dir.0, &header(7, n)).unwrap();
        let before = thread_write_syscalls();
        for k in 1..=n {
            w.write(&entry(k)).unwrap();
        }
        let written = thread_write_syscalls();
        assert_eq!(
            written - before,
            n,
            "one slot write per entry, no tail store"
        );
        for k in n + 1..=2 * n {
            assert_eq!(w.write(&entry(k)).unwrap(), None);
        }
        assert_eq!(
            thread_write_syscalls(),
            written,
            "past capacity nothing is written"
        );
        w.finish().unwrap();
        let (entries, src) = drained(&log_path(&dir.0, 7));
        assert!(entries.iter().map(|e| e.counter).eq(1..=n));
        assert_eq!(src.state.dropped_total, n);
    }

    #[test]
    fn the_publisher_publishes_every_entry_unflushed() {
        let dir = scratch("unflushed");
        let n = 1_000;
        let mut w = FileShmWriter::create(&dir.0, &header(7, n)).unwrap();
        let mut src = open(&log_path(&dir.0, 7));
        let mut got = Vec::new();
        for k in 1..=n {
            w.write(&entry(k)).unwrap();
            if k % 100 == 0 {
                got.extend(src.pump().entries);
            }
        }
        // A generous deadline, counted in publication windows slept: at
        // least 30 s.
        for _ in 0..30_000 {
            if got.len() as u64 == n {
                break;
            }
            std::thread::sleep(PUBLISH_WITHIN);
            got.extend(src.pump().entries);
        }
        assert_eq!(got.len() as u64, n, "every entry published unasked");
        // Nothing is delivered twice, however long the source keeps pumping.
        for _ in 0..20 {
            std::thread::sleep(PUBLISH_WITHIN);
            got.extend(src.pump().entries);
        }
        assert!(
            got.iter().map(|e| e.counter).eq(1..=n),
            "exactly once, in order"
        );
        assert!(src.salvage.is_clean());
        assert!(!src.state.exhausted, "writer still active");
    }

    #[test]
    fn flush_publishes_every_entry_at_once() {
        let dir = scratch("flush");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 64)).unwrap();
        let mut src = open(&log_path(&dir.0, 7));
        for round in 0..3 {
            for k in 1..=10 {
                w.write(&entry(round * 10 + k)).unwrap();
            }
            w.flush().unwrap();
            let b = src.pump();
            assert!(b
                .entries
                .iter()
                .map(|e| e.counter)
                .eq(round * 10 + 1..=round * 10 + 10));
        }
    }

    #[test]
    fn a_writer_dropped_unfinished_has_published_everything() {
        let dir = scratch("dropped");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 8)).unwrap();
        for k in 1..=10 {
            w.write(&entry(k)).unwrap();
        }
        drop(w);
        let (entries, src) = drained(&log_path(&dir.0, 7));
        assert!(entries.iter().map(|e| e.counter).eq(1..=8));
        assert_eq!(src.state.dropped_total, 2, "the drop tickets too");
        assert!(src.header().active && !src.state.exhausted, "not finished");
    }

    #[test]
    fn a_source_that_sees_active_cleared_sees_the_final_tail() {
        let dir = scratch("finaltail");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 64)).unwrap();
        let mut src = open(&log_path(&dir.0, 7));
        for k in 1..=20 {
            w.write(&entry(k)).unwrap();
        }
        let mut got = src.pump().entries;
        for k in 21..=40 {
            w.write(&entry(k)).unwrap();
        }
        w.finish().unwrap();
        let b = src.pump();
        assert!(src.src.writer_finished());
        got.extend(b.entries);
        assert!(got.iter().map(|e| e.counter).eq(1..=40));
        assert!(src.state.exhausted);
    }

    #[test]
    fn a_resized_header_kills_the_source() {
        let dir = scratch("resized");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 8)).unwrap();
        w.write(&entry(1)).unwrap();
        w.flush().unwrap();
        let mut src = open(&log_path(&dir.0, 7));
        assert_eq!(src.pump().entries.len(), 1);
        // The attached-image rule of `SharedLog::verify_header`: the size
        // word must stay what the source attached with.
        write_word(&raw_file(&dir, 7), OFF_SIZE, 4).unwrap();
        w.write(&entry(2)).unwrap();
        assert!(src.pump().entries.is_empty());
        assert!(src.state.dead);
        assert_eq!(src.salvage.count(SalvageReason::CorruptHeader), 1);
    }

    #[test]
    fn every_medium_starts_with_the_same_header_image() {
        let dir = scratch("oneimage");
        let h = make_header(7, 16, true, 0x40_0000, tee_sim::SHM_BASE);
        let _w = FileShmWriter::create(&dir.0, &h).unwrap();
        let on_file = std::fs::read(log_path(&dir.0, 7)).unwrap();
        assert_eq!(on_file.len() as u64, region_bytes(16));
        let saved = LogFile::new(h, Vec::new()).to_bytes();
        let shm = std::sync::Arc::new(tee_sim::SharedMem::new(region_bytes(16)));
        let log = SharedLog::init(std::sync::Arc::clone(&shm), &h);
        let mut in_memory = Vec::new();
        for off in (0..HEADER_BYTES).step_by(8) {
            in_memory.extend_from_slice(&shm.read_u64(off).unwrap().to_le_bytes());
        }
        assert_eq!(on_file[..HEADER_BYTES as usize], saved[..]);
        assert_eq!(in_memory, saved);
        assert_eq!(in_memory, h.to_image());
        // ...and each decodes back to the header it was made from.
        assert_eq!(log.header(), h);
        assert_eq!(LogFile::from_bytes(&saved).unwrap().header, h);
        let opened = FileShmSource::open(&log_path(&dir.0, 7)).unwrap();
        assert_eq!(*opened.header(), h);
    }

    /// What a source drains from `path` in one session, and how it ended.
    fn drained(path: &Path) -> (Vec<LogEntry>, Tally<FileShmSource>) {
        let mut src = open(path);
        let mut entries = src.pump().entries;
        entries.extend(src.drain_to_end().entries);
        (entries, src)
    }

    #[test]
    fn a_session_file_loads_as_what_a_source_drains_from_it() {
        let dir = scratch("loadequalsdrain");
        // pid → (capacity, writes, finished, bytes cut off the file's end)
        let sessions = [
            (1, 8, 5, true, None),       // finished
            (2, 8, 5, false, None),      // killed: ACTIVE still set
            (3, 4, 7, true, None),       // overflowed: 3 drop tickets
            (4, 8, 6, false, Some(2.5)), // truncated mid-slot, below the tail
        ];
        for (pid, cap, writes, finished, keep_slots) in sessions {
            let mut w = FileShmWriter::create(&dir.0, &header(pid, cap)).unwrap();
            for k in 1..=writes {
                w.write(&entry(k)).unwrap();
            }
            // One invalid slot below the tail, so the reports are not
            // trivially empty.
            w.write_torn(&entry(99)).unwrap();
            if finished {
                w.finish().unwrap();
            }
            let path = log_path(&dir.0, pid);
            if let Some(slots) = keep_slots {
                let keep = HEADER_BYTES + (slots * ENTRY_BYTES as f64) as u64;
                raw_file(&dir, pid).set_len(keep).unwrap();
            }
            let (entries, src) = drained(&path);
            let report = &src.salvage;
            assert_eq!(entries.len() as u64, report.kept, "pid {pid}");
            assert_eq!(src.header().active, !finished, "pid {pid}");
            assert_eq!(src.state.exhausted, finished && keep_slots.is_none());
            // The strict load refuses exactly the cut file, and otherwise
            // holds the same header and slots, the invalid one included.
            match LogFile::load(&path) {
                Ok(strict) => {
                    assert!(keep_slots.is_none(), "pid {pid}");
                    assert_eq!(strict.header, *src.header());
                    assert_eq!(strict.header.dropped_entries(), src.state.dropped_total);
                    assert_eq!(strict.entries.len() as u64, report.kept + report.dropped);
                    let valid = strict
                        .entries
                        .iter()
                        .filter(|e| e.validity() == EntryValidity::Valid);
                    assert!(valid.eq(&entries), "pid {pid}");
                }
                Err(e) => {
                    assert!(keep_slots.is_some(), "pid {pid}: {e}");
                    assert_eq!(report.count(SalvageReason::TruncatedFile), 5, "{e}");
                }
            }
        }
    }

    #[test]
    fn a_source_drains_a_saved_recording_and_is_exhausted() {
        let dir = scratch("savedrecording");
        let mut h = header(7, 4);
        h.active = false; // the recorder stops measurement before it saves
        h.tail = 6; // two drop tickets
        let file = LogFile::new(h, (1..=4).map(entry).collect());
        let path = dir.0.join("run.tplog");
        file.save(&path).unwrap();
        let mut src = open(&path);
        let b = src.pump();
        assert_eq!(b.entries, file.entries);
        assert_eq!(b.dropped, 2, "drops reported with the exhausting batch");
        assert!(src.state.exhausted);
        assert!(src.salvage.is_clean());
        let b = src.pump();
        assert!(b.entries.is_empty() && b.dropped == 0);
        // A read-only file carries no regime, and no bounded buffer to
        // fill: the session stays `Full`.
        assert!(!src.src.set_regime(crate::Regime::Quiescent));
        assert!(!b.regime_fault);
        assert_eq!(b.occupancy_pct, None);
    }

    /// A small finished recording: pid 42, capacity 100, two entries.
    fn recording() -> LogFile {
        let mut h = header(42, 100);
        h.active = false;
        h.tail = 2;
        LogFile::new(h, vec![entry(1), entry(2)])
    }

    /// Drain `bytes`, written to a file, to the end, or say why the file
    /// could not be opened.
    fn salvaged(
        dir: &ScratchDir,
        bytes: &[u8],
    ) -> Result<(Vec<LogEntry>, Tally<FileShmSource>), ShmFileError> {
        let path = dir.0.join("salvage.tplog");
        std::fs::write(&path, bytes).unwrap();
        let mut src = Tally::new(FileShmSource::open(&path)?);
        let entries = src.drain_to_end().entries;
        Ok((entries, src))
    }

    #[test]
    fn salvage_keeps_complete_entries_of_a_truncated_file() {
        let dir = scratch("salvagecut");
        let f = recording();
        let b = f.to_bytes();
        // Cut mid-way through the second entry.
        let cut = &b[..b.len() - 10];
        let (entries, src) = salvaged(&dir, cut).unwrap();
        assert_eq!(entries, f.entries[..1]);
        let report = &src.salvage;
        assert_eq!(report.kept, 1);
        assert_eq!(report.count(SalvageReason::TruncatedFile), 1);
        // Strict parsing still rejects the same bytes.
        assert!(LogFile::from_bytes(cut).is_err());
        // A cut inside the header is beyond salvage.
        assert!(matches!(
            salvaged(&dir, &b[..40]),
            Err(ShmFileError::TooSmall(40))
        ));
        // Bytes past the promise — a `.tplog`'s preallocated remainder —
        // are never looked at, whole slots or stray bytes.
        let mut long = b.clone();
        long.extend_from_slice(&[0xff; 24 + 7]);
        let (entries, src) = salvaged(&dir, &long).unwrap();
        assert_eq!(entries, f.entries);
        assert!(src.salvage.is_clean());
    }

    #[test]
    fn salvage_skips_torn_and_unpublished_records() {
        let dir = scratch("salvagetorn");
        let mut f = recording();
        f.header.size = 4;
        f.header.tail = 4;
        f.entries.push(LogEntry {
            kind: EventKind::Call,
            counter: 9,
            addr: 0,
            tid: 0,
        }); // torn
        f.entries.push(LogEntry::unpack([0, 0, 0])); // unpublished hole
        let (entries, src) = salvaged(&dir, &f.to_bytes()).unwrap();
        assert_eq!(entries, f.entries[..2]);
        let report = &src.salvage;
        assert_eq!(report.kept, 2);
        assert_eq!(report.count(SalvageReason::TornEntry), 1);
        assert_eq!(report.count(SalvageReason::UnpublishedSlot), 1);
        // The strict load keeps all four slots as they are.
        assert_eq!(LogFile::from_bytes(&f.to_bytes()).unwrap(), f);
    }

    proptest! {
        /// Arbitrary header words over a short body: whatever the header
        /// claims, no reader panics, none takes more than the file holds,
        /// and the ones that succeed balance their books.
        #[test]
        fn prop_hostile_headers_never_panic_or_over_read(
            words in proptest::collection::vec(any::<u64>(), 13),
            plausible in 0u8..16,
            slots in proptest::collection::vec((1u64..(1 << 62), 0u64..3, any::<u64>()), 0..=3),
            stray in 0usize..24,
        ) {
            let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            // Most arbitrary headers die at the magic; let each later
            // check be reached too.
            let mut set = |off: u64, word: u64| {
                bytes[off as usize..off as usize + 8].copy_from_slice(&word.to_le_bytes());
            };
            if plausible & 1 != 0 {
                set(OFF_MAGIC, LOG_MAGIC);
            }
            if plausible & 2 != 0 {
                set(OFF_CONTROL, make_header(1, 1, true, 0, 0).pack_control() | words[0] & 1);
            }
            if plausible & 4 != 0 {
                set(OFF_SIZE, words[2] % 6);
            }
            if plausible & 8 != 0 {
                set(OFF_TAIL, words[3] % 6);
            }
            for (counter, addr, tid) in &slots {
                let e = LogEntry { kind: EventKind::Call, counter: *counter, addr: *addr, tid: *tid };
                bytes.extend_from_slice(&e.to_bytes());
            }
            bytes.extend(std::iter::repeat_n(0xa5, stray));
            let held = slots.len();

            if let Ok(strict) = LogFile::from_bytes(&bytes) {
                prop_assert!(strict.entries.capacity() <= held);
                prop_assert_eq!(strict.entries.len() as u64, strict.header.stored_entries());
            }
            let dir = scratch("hostile");
            let path = dir.0.join("1.tplog");
            std::fs::write(&path, &bytes).unwrap();
            if let Ok(src) = FileShmSource::open(&path) {
                let mut src = Tally::new(src);
                // A twin pumps into a lent batch left dirty by an earlier
                // pump, and must come out exactly as the fresh one.
                let mut twin = open(&path);
                let dirty = || SourceBatch {
                    entries: vec![LogEntry::unpack([7, 7, 7]); 5],
                    rotated: true,
                    dropped: 9,
                    salvaged: SalvageReport { kept: 4, ..SalvageReport::default() },
                    occupancy_pct: Some(7),
                    regime_fault: true,
                    state: SourceState { epoch: 3, dropped_total: 9, exhausted: true, dead: true },
                };
                // A third hands its entries to a walk that consumes them
                // stretch by stretch, the second time as a final drain, and
                // must hand over what the fresh pump holds.
                let mut walked = open(&path);
                let mut entries = Vec::new();
                for round in 0..2 {
                    let fresh = src.pump();
                    let mut lent = dirty();
                    twin.drain(&mut lent, false, &mut |_| {});
                    prop_assert_eq!(&lent, &fresh);
                    let (mut lent, mut stretches) = (dirty(), Vec::new());
                    walked.drain(&mut lent, round == 1, &mut |e| stretches.append(e));
                    prop_assert!(lent.entries.is_empty());
                    lent.entries = stretches;
                    prop_assert_eq!(&lent, &fresh);
                    entries.extend(fresh.entries);
                }
                prop_assert_eq!(&twin.salvage, &src.salvage);
                prop_assert_eq!(&walked.salvage, &src.salvage);
                prop_assert!(entries.capacity() as u64 <= held as u64 + READ_CHUNK_ENTRIES);
                let report = &src.salvage;
                prop_assert_eq!(entries.len() as u64, report.kept);
                prop_assert_eq!(report.kept + report.dropped, src.header().stored_entries());
            } else {
                prop_assert!(LogFile::from_bytes(&bytes).is_err());
            }
        }

        /// A recording with bytes flipped and its end cut anywhere: the
        /// salvaging reader never panics, and when the file opens, every
        /// slot its header promises is either kept or accounted.
        #[test]
        fn prop_a_mutilated_recording_never_panics_and_accounts_everything(
            cut in 0usize..512,
            flips in proptest::collection::vec((0usize..512, any::<u8>()), 0..4),
        ) {
            let mut b = recording().to_bytes();
            for (pos, val) in flips {
                if pos < b.len() { b[pos] = val; }
            }
            let cut = cut.min(b.len());
            b.truncate(cut);
            let dir = scratch("mutilated");
            if let Ok((entries, src)) = salvaged(&dir, &b) {
                let report = &src.salvage;
                prop_assert_eq!(entries.len() as u64, report.kept);
                prop_assert_eq!(report.kept + report.dropped, src.header().stored_entries());
            }
        }
    }
}

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
//! multi-writer reservation. An append is one positioned write of the
//! slot, and the slot publishes itself: its check
//! ([`LogEntry::complete_prefix`]) matches only once all 24 bytes have
//! landed, so a reader that copies it while the write is in flight —
//! some bytes written, the rest still the zeros of a fresh file — refuses
//! it.
//!
//! The header's tail word is a lower bound on the slots written, stored
//! by [`FileShmWriter::flush`], by [`FileShmWriter::finish`] before it
//! clears ACTIVE (so a reader that sees ACTIVE cleared sees the final
//! tail), and by every write past capacity, which stores the tail instead
//! of a slot: the tail alone is the drop ticket (overflow is accounted via
//! the tail, exactly like a batch log), visible within one pump. A write
//! is one system call either way. A writer dropped unfinished stores
//! nothing more: its log stays ACTIVE, so every reader reads past the tail
//! and takes every slot it completed.
//!
//! A pump is one read of the header — checked as the image the source
//! attached to ([`HeaderRule::Attached`]: magic, version, the size word
//! still the capacity it opened with) — then bulk reads of `[cursor,
//! available)` in chunks of [`READ_CHUNK_ENTRIES`], `available` being
//! [`LogHeader::available`]'s `min(tail, size, slots on disk)`. Below the
//! tail every slot is classified by the
//! [`EntryValidity`](crate::layout::EntryValidity) rules as the live
//! drain classifies it: a torn or never-written slot there can only come
//! from a broken or hostile writer and is skipped and counted in the pump
//! that meets it. While ACTIVE is set the pump reads on past the tail and
//! takes the longest prefix of slots that prove themselves complete; the
//! first that does not is "not yet", neither counted nor consumed. The
//! first read past the tail asks for as many slots as the last pump took
//! there, at least a page's worth and at most [`READ_CHUNK_ENTRIES`], so
//! an idle session costs its header read and one page. [`EventSource::drain`]
//! hands each chunk to its walk before it reads the next, so a batch whose
//! walk consumes its stretches holds one chunk.
//!
//! [`crate::LogFile::load`] reads by the same rule and stops at that
//! first slot too, whatever it holds: a load cannot tell a write in
//! flight from a dead writer's last one. A final drain
//! ([`EventSource::drain_to_end`], what a quarantined session gets, and
//! salvage) is told the writer is gone, so there a frontier slot holding
//! any byte is a slot its writer was killed inside: it is counted as one
//! [`SalvageReason::TornEntry`]. One helper, `read_past_tail`, holds the
//! rule for all of them. **Crash bound:** a writer that is killed loses
//! at most the slot it was writing. It also leaves ACTIVE set (see
//! below). The salvage accounting ([`SalvageReport`]) carries over:
//! truncated files are clamped and accounted, corrupt headers kill the
//! source instead of the daemon.
//!
//! The protocol rests on one cross-process assumption: a positioned write
//! that happened before a later positioned write of the same process is
//! visible to any process that observes the later one, and an aligned
//! 8-byte positioned write to tmpfs is never observed torn. A slot's own
//! write may be observed torn at any byte; its check is what refuses
//! that. The two-process stress test in `teeperf-daemon` is its hammer,
//! the validity classification its backstop.
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

use crate::faults::{SalvageReason, SalvageReport};
/// Why a log file could not be created or opened: the error of every file
/// that holds a log image.
pub use crate::file::LogFileError as ShmFileError;
use crate::layout::{
    image_word, HeaderImage, HeaderRule, LogEntry, LogHeader, ENTRY_BYTES, FLAG_ACTIVE,
    HEADER_BYTES, OFF_CONTROL, OFF_MAGIC, OFF_TAIL,
};
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

/// The producer half: one process's log file, whose slots it writes and
/// whose tail it stores now and then (see the module docs).
#[derive(Debug)]
pub struct FileShmWriter {
    file: File,
    path: PathBuf,
    size: u64,
    tail: u64,
}

impl FileShmWriter {
    /// Create and register a log for `header.pid` inside `dir`: the file
    /// is fully initialized under a temporary name and only then renamed
    /// to `<pid>.tplog`, so a directory scanner never attaches to a
    /// half-built header.
    ///
    /// # Errors
    /// Propagates file-system failures; rejects a header without a pid or
    /// without capacity (such a log could never be registered or drained).
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
        Ok(FileShmWriter {
            file,
            path,
            size: header.size,
            tail: 0,
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

    /// Append one entry: the slot in one write, which publishes it. Returns
    /// the slot index, or `None` if the log is full: then the tail is
    /// stored instead, so the drop is visible to the consumer.
    ///
    /// # Errors
    /// Propagates file-system failures of the write (disk full, file
    /// deleted under us).
    pub fn write(&mut self, entry: &LogEntry) -> io::Result<Option<u64>> {
        let index = (self.tail < self.size).then_some(self.tail);
        match index {
            Some(index) => self
                .file
                .write_all_at(&entry.to_bytes(), LogEntry::offset_of(index))?,
            None => write_word(&self.file, OFF_TAIL, self.tail + 1)?,
        }
        self.tail += 1;
        Ok(index)
    }

    /// Store the tail in the header.
    ///
    /// # Errors
    /// Propagates file-system failures of the tail store.
    pub fn flush(&self) -> io::Result<()> {
        write_word(&self.file, OFF_TAIL, self.tail)
    }

    /// Advance the tail over a slot that was never written — what only a
    /// broken writer leaves behind — and store it at once.
    /// Fault-injection entry point for the matrix tests; a correct writer
    /// never calls this.
    ///
    /// # Errors
    /// Propagates file-system failures.
    pub fn skip_slot_unwritten(&mut self) -> io::Result<()> {
        self.tail += 1;
        self.flush()
    }

    /// Write a slot holding word 0 only — a torn record — and store the
    /// tail past it at once. Fault-injection entry point for the matrix
    /// tests.
    ///
    /// # Errors
    /// Propagates file-system failures.
    pub fn write_torn(&mut self, entry: &LogEntry) -> io::Result<()> {
        if self.tail < self.size {
            let off = LogEntry::offset_of(self.tail);
            write_word(&self.file, off, entry.pack()[0].max(1))?;
        }
        self.skip_slot_unwritten()
    }

    /// Overwrite the magic word — the state of a log destroyed by a buggy
    /// or hostile writer. Fault-injection entry point for the matrix tests.
    ///
    /// # Errors
    /// Propagates file-system failures.
    pub fn corrupt_header(&mut self) -> io::Result<()> {
        write_word(&self.file, OFF_MAGIC, 0xbad0_bad0_bad0_bad0)
    }

    /// Finish the session cleanly: store the final tail, and only then
    /// clear the header's ACTIVE flag, so the consumer knows no further
    /// entry will ever be published and can report the source exhausted.
    /// A write after this is published by [`FileShmWriter::flush`].
    ///
    /// # Errors
    /// Propagates file-system failures.
    pub fn finish(&mut self) -> io::Result<()> {
        self.flush()?;
        let control = image_word(&read_header(&self.file)?, OFF_CONTROL);
        write_word(&self.file, OFF_CONTROL, control & !FLAG_ACTIVE)?;
        self.file.sync_all()
    }
}

/// Entries per bulk slot read (96 KiB): bounds what one read — and the
/// read buffer a source keeps — can be asked for, whatever the header
/// claims.
pub const READ_CHUNK_ENTRIES: u64 = 4096;

/// The fewest slots a pump asks for past the stored tail: a 4 KiB page's
/// worth.
const PROBE_ENTRIES: u64 = 4096_u64.div_ceil(ENTRY_BYTES);

/// `n` slots' worth of `buf`, grown to one chunk at most: a shorter read
/// fills a prefix, and nothing is zeroed twice.
fn chunk_of(buf: &mut Vec<u8>, n: u64) -> &mut [u8] {
    let bytes = (n * ENTRY_BYTES) as usize;
    if buf.len() < bytes {
        buf.resize(bytes, 0);
    }
    &mut buf[..bytes]
}

/// `n` slots from slot `first` of `file`, read into `buf`. `None` when
/// the bytes are gone.
fn read_slots<'b>(file: &File, buf: &'b mut Vec<u8>, first: u64, n: u64) -> Option<&'b [u8]> {
    let chunk = chunk_of(buf, n);
    file.read_exact_at(chunk, LogEntry::offset_of(first)).ok()?;
    Some(chunk)
}

/// The one rule for slots past a stored tail, which every reader of an
/// active log follows: from `*slot` up to slot `end`, read by `read(first,
/// buf)` into `buf` — `want` slots first, then [`READ_CHUNK_ENTRIES`] at a
/// time — each chunk's longest prefix of slots that prove themselves
/// complete handed to `take` and stepped over. Stops at the first slot
/// that does not, and says whether it holds a byte: a write still in
/// flight, or, once the writer is known dead, the slot it was killed
/// inside.
///
/// # Errors
/// `read`'s; `*slot` is then past what was taken.
pub(crate) fn read_past_tail(
    slot: &mut u64,
    end: u64,
    mut want: u64,
    buf: &mut Vec<u8>,
    mut read: impl FnMut(u64, &mut [u8]) -> io::Result<()>,
    mut take: impl FnMut(&[u8]),
) -> io::Result<bool> {
    while *slot < end {
        let n = (end - *slot).min(want);
        let chunk = chunk_of(buf, n);
        read(*slot, chunk)?;
        let took = LogEntry::complete_prefix(chunk) as u64;
        let (complete, rest) = chunk.split_at((took * ENTRY_BYTES) as usize);
        take(complete);
        *slot += took;
        if took < n {
            let frontier = &rest[..ENTRY_BYTES as usize];
            return Ok(frontier.iter().any(|&b| b != 0));
        }
        want = READ_CHUNK_ENTRIES;
    }
    Ok(false)
}

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
    /// Slots the first read past the tail asks for: what the last pump
    /// took there, clamped to `PROBE_ENTRIES..=READ_CHUNK_ENTRIES`.
    probe: u64,
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
            probe: PROBE_ENTRIES,
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
    /// many slots below the tail the file can serve, how many promised
    /// ones it is short ([`LogHeader::available`]) and how many slots it
    /// holds in all — or `None` after marking the source dead (corrupt or
    /// vanished header) and accounting why.
    fn observe(&mut self, salvage: &mut SalvageReport) -> Option<(u64, u64, u64)> {
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
                let body = len - HEADER_BYTES;
                let (available, shortfall) = header.available(body);
                Some((available, shortfall, header.size.min(body / ENTRY_BYTES)))
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

    /// The slots from the cursor up to what one header read shows — and,
    /// while the writer is active, on past the tail as far as the slots
    /// prove themselves — `walk` handed `batch.entries` after each bulk
    /// read.
    fn read_into(
        &mut self,
        batch: &mut SourceBatch,
        to_end: bool,
        walk: &mut dyn FnMut(&mut Vec<LogEntry>),
    ) {
        let salvage = &mut batch.salvaged;
        let Some((available, shortfall, on_disk)) = self.observe(salvage) else {
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
            let Some(chunk) = read_slots(&self.file, &mut self.buf, self.cursor, n) else {
                // Bytes vanished mid-drain; the header re-read accounted
                // the loss (or will on the next pump) — stop here.
                break;
            };
            let decoded = LogEntry::decode_slots(chunk);
            batch.salvaged.filter_into(decoded, &mut batch.entries);
            self.cursor += n;
            walk(&mut batch.entries);
        }
        if self.dead || self.writer_done {
            return;
        }
        // Past the tail: the longest prefix of slots that prove themselves.
        let start = self.cursor;
        let file = &self.file;
        let frontier_written = read_past_tail(
            &mut self.cursor,
            on_disk,
            self.probe,
            &mut self.buf,
            |first, chunk| file.read_exact_at(chunk, LogEntry::offset_of(first)),
            |complete| {
                let decoded = LogEntry::decode_slots(complete);
                batch.salvaged.filter_into(decoded, &mut batch.entries);
                walk(&mut batch.entries);
            },
        );
        if to_end && matches!(frontier_written, Ok(true)) {
            // A final drain: nothing will complete this slot.
            batch.salvaged.drop_n(SalvageReason::TornEntry, 1);
            self.cursor += 1;
        }
        self.probe = (self.cursor - start).clamp(PROBE_ENTRIES, READ_CHUNK_ENTRIES);
    }
}

impl EventSource for FileShmSource {
    fn pid(&self) -> u64 {
        self.header.pid
    }

    /// One look at the header, then the slots from the cursor up to the
    /// tail it showed and, while the writer is active, past it, in bulk
    /// reads, `walk` handed `batch.entries` after each. Below the tail
    /// nothing is waited for, so an invalid slot is skipped and accounted
    /// on the spot; past it the first slot that does not prove itself
    /// complete is waited for, unless this is the final drain.
    fn drain(
        &mut self,
        batch: &mut SourceBatch,
        to_end: bool,
        walk: &mut dyn FnMut(&mut Vec<LogEntry>),
    ) {
        batch.reset();
        let already_dropped = self.dropped_total();
        if !self.dead {
            self.read_into(batch, to_end, walk);
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
    use crate::faults::{FaultKind, FaultPlan};
    use crate::layout::{
        make_header, EntryValidity, EventKind, HeaderFault, ENTRY_TID_MASK, LOG_MAGIC, OFF_SIZE,
        PID_UNSET,
    };
    use crate::log::{region_bytes, SharedLog};
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
    fn a_slot_past_the_tail_is_taken_once_it_proves_itself_complete() {
        let dir = scratch("selfproving");
        let _w = FileShmWriter::create(&dir.0, &header(7, 8)).unwrap();
        let raw = raw_file(&dir, 7);
        let mut src = open(&log_path(&dir.0, 7));
        // Every prefix of the slot's bytes, as a write in flight leaves
        // it, and the slot without its word 0: not yet, neither taken
        // nor counted.
        let bytes = entry(1).to_bytes();
        for cut in 1..bytes.len() {
            raw.write_all_at(&bytes[..cut], LogEntry::offset_of(0))
                .unwrap();
            assert!(src.pump().entries.is_empty(), "{cut} bytes");
        }
        write_word(&raw, LogEntry::offset_of(0), 0).unwrap();
        assert!(src.pump().entries.is_empty(), "word 0 missing");
        assert!(src.salvage.is_clean());
        raw.write_all_at(&bytes, LogEntry::offset_of(0)).unwrap();
        assert_eq!(src.pump().entries, vec![entry(1)]);
        // A tail stored over a slot never written exposes it: below the
        // tail it is skipped and counted at once; its late bytes are never
        // delivered.
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
        // The cut below is a fault below the tail: store it.
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
        assert_eq!(src.pump().entries.len(), 1);
        w.write(&entry(2)).unwrap();
        w.write(&entry(3)).unwrap();
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
    fn a_write_is_one_system_call_and_so_is_a_drop_ticket() {
        let dir = scratch("syscalls");
        let n = 64;
        let mut w = FileShmWriter::create(&dir.0, &header(7, n)).unwrap();
        let mut src = open(&log_path(&dir.0, 7));
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
            thread_write_syscalls() - written,
            n,
            "past capacity, one tail store per write"
        );
        let b = src.pump();
        assert!(b.entries.iter().map(|e| e.counter).eq(1..=n));
        assert_eq!(b.dropped, n, "every drop visible at the next pump");
        w.finish().unwrap();
    }

    /// The tail word as stored in pid's log.
    fn stored_tail(dir: &ScratchDir, pid: u64) -> u64 {
        let file = File::open(log_path(&dir.0, pid)).unwrap();
        image_word(&read_header(&file).unwrap(), OFF_TAIL)
    }

    #[test]
    fn every_write_is_visible_at_the_next_pump_unflushed() {
        let dir = scratch("unflushed");
        let n = 1_000;
        let mut w = FileShmWriter::create(&dir.0, &header(7, n)).unwrap();
        let mut src = open(&log_path(&dir.0, 7));
        for k in 1..=n {
            w.write(&entry(k)).unwrap();
            assert_eq!(src.pump().entries, vec![entry(k)]);
        }
        assert!(src.pump().entries.is_empty(), "nothing delivered twice");
        assert!(src.salvage.is_clean());
        assert!(!src.state.exhausted, "writer still active");
        assert_eq!(stored_tail(&dir, 7), 0, "no tail was stored");
    }

    #[test]
    fn the_tail_is_stored_by_flush_and_finish() {
        let dir = scratch("tailstores");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 64)).unwrap();
        for k in 1..=10 {
            w.write(&entry(k)).unwrap();
        }
        assert_eq!(stored_tail(&dir, 7), 0, "a write stores no tail");
        w.flush().unwrap();
        assert_eq!(stored_tail(&dir, 7), 10);
        w.write(&entry(11)).unwrap();
        w.finish().unwrap();
        assert_eq!(stored_tail(&dir, 7), 11);
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

    #[test]
    fn a_killed_writer_loses_no_entry_it_wrote() {
        let dir = scratch("crashbound");
        for n in 1..=64u64 {
            let mut w = FileShmWriter::create(&dir.0, &header(n, 64)).unwrap();
            for k in 1..=n {
                w.write(&entry(k)).unwrap();
            }
            // The in-process stand-in for SIGKILL: no tail store, ACTIVE
            // left set.
            std::mem::forget(w);
            let path = log_path(&dir.0, n);
            let written: Vec<LogEntry> = (1..=n).map(entry).collect();
            let loaded = LogFile::load(&path).unwrap();
            assert_eq!(loaded.entries, written, "load, n = {n}");
            assert_eq!(loaded.header.tail, n, "the tail the slots prove");
            // The replay matrix's path: the image as the killed writer left
            // it (`mutilate` leaves writer-level faults to the writer),
            // drained to its end.
            let mut bytes = std::fs::read(&path).unwrap();
            let plan = FaultPlan::new().with(FaultKind::WriterCrash, n);
            plan.mutilate(&mut bytes, n);
            let (entries, src) = salvaged(&dir, &bytes).unwrap();
            assert_eq!(entries, written, "salvage, n = {n}");
            assert!(src.salvage.is_clean());
            let (entries, src) = drained(&path);
            assert_eq!(entries, written, "final drain, n = {n}");
            assert!(src.salvage.is_clean() && !src.state.exhausted);
        }
    }

    #[test]
    fn a_slot_a_killed_writer_died_inside_is_one_torn_entry() {
        let dir = scratch("frontier");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 8)).unwrap();
        for k in 1..=3 {
            w.write(&entry(k)).unwrap();
        }
        std::mem::forget(w);
        let raw = raw_file(&dir, 7);
        raw.write_all_at(&entry(4).to_bytes()[..13], LogEntry::offset_of(3))
            .unwrap();
        let path = log_path(&dir.0, 7);
        // A pump waits for it; the final drain counts it, once.
        let mut src = open(&path);
        assert_eq!(src.pump().entries.len(), 3);
        assert!(src.salvage.is_clean(), "not yet is not torn");
        assert!(src.drain_to_end().entries.is_empty());
        assert!(src.drain_to_end().entries.is_empty());
        assert_eq!(src.salvage.count(SalvageReason::TornEntry), 1);
        assert_eq!((src.salvage.kept, src.salvage.dropped), (3, 1));
        // The strict load cannot tell it from a write in flight: it stops
        // there, and leaves it out.
        let loaded = LogFile::load(&path).unwrap();
        assert_eq!(loaded.entries, [entry(1), entry(2), entry(3)]);
        assert_eq!(loaded.header.tail, 3);
        // A finished session's tail is final: nothing past it is read.
        let mut h = header(9, 8);
        h.active = false;
        h.tail = 1;
        let mut bytes = LogFile::new(h, vec![entry(1)]).to_bytes();
        bytes.extend_from_slice(&entry(2).to_bytes());
        assert_eq!(LogFile::from_bytes(&bytes).unwrap().entries, [entry(1)]);
    }

    /// A slot whose every byte differs from its neighbours', with no zero
    /// word: a torn copy of it is wrong somewhere.
    fn racer(k: u64) -> LogEntry {
        LogEntry {
            kind: if k.is_multiple_of(2) {
                EventKind::Call
            } else {
                EventKind::Return
            },
            counter: k,
            addr: k.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
            tid: k.wrapping_mul(0x2545_f491) & ENTRY_TID_MASK | 1,
        }
    }

    /// One thread writes `slots` entries to a log on tmpfs, one system
    /// call each, while this one pumps it in a tight loop, nearly every
    /// pump reading the slot in flight; `rounds` times, a fresh log each.
    /// No pump may take a slot other than the one written there, nor count
    /// one. Returns the pumps that overlapped the writer.
    fn race(label: &str, rounds: u64, slots: u64) -> u64 {
        let dir = ScratchDir(
            default_shm_dir().join(format!("teeperf-shmfile-{}-{label}", std::process::id())),
        );
        std::fs::create_dir_all(&dir.0).unwrap();
        let mut racing = 0;
        for round in 0..rounds {
            let pid = round + 1;
            let mut w = FileShmWriter::create(&dir.0, &header(pid, slots)).unwrap();
            let mut src = open(&log_path(&dir.0, pid));
            let writer = std::thread::spawn(move || {
                for k in 1..=slots {
                    w.write(&racer(k)).unwrap();
                }
                w.finish().unwrap();
            });
            let mut next = 1;
            while !src.state.exhausted {
                let b = src.pump();
                racing += u64::from(!src.state.exhausted && !b.entries.is_empty());
                for e in &b.entries {
                    assert_eq!(*e, racer(next), "round {round}, slot {next}");
                    next += 1;
                }
            }
            writer.join().unwrap();
            assert_eq!(next, slots + 1);
            assert!(src.salvage.is_clean(), "{:?}", src.salvage);
        }
        racing
    }

    #[test]
    fn a_reader_racing_the_writer_past_the_tail_takes_no_partial_slot() {
        assert!(
            race("race", 2, 200_000) > 1,
            "the reader never raced the writer"
        );
    }

    /// [`a_reader_racing_the_writer_past_the_tail_takes_no_partial_slot`]
    /// at 10 M slots: run by `scripts/ci.sh` in a release build.
    #[test]
    #[ignore = "10 M slots; run in release by scripts/ci.sh"]
    fn ten_million_slots_raced_past_the_tail() {
        assert!(race("race10m", 10, 1_000_000) > 1);
    }

    /// The slots a final drain of the image `bytes` (its header as
    /// opened: `header`) keeps or accounts: those the header promises
    /// when the strict load refuses a cut image; else those the strict
    /// load took, plus the slot it stopped at past the tail of an active
    /// log when that slot holds a byte, which the drain counts as torn.
    fn accountable(
        bytes: &[u8],
        strict: &Result<LogFile, ShmFileError>,
        header: &LogHeader,
    ) -> u64 {
        let Ok(strict) = strict else {
            return header.stored_entries();
        };
        let took = strict.entries.len() as u64;
        let at = LogEntry::offset_of(took) as usize;
        let frontier = bytes.get(at..at + ENTRY_BYTES as usize);
        let torn = header.active
            && took < header.size
            && frontier.is_some_and(|slot| slot.iter().any(|&b| b != 0));
        took + u64::from(torn)
    }

    proptest! {
        /// Arbitrary header words over a short body: whatever the header
        /// claims, no reader panics, none takes more than the file holds,
        /// and the ones that succeed balance their books.
        #[test]
        fn prop_hostile_headers_never_panic_or_over_read(
            words in proptest::collection::vec(any::<u64>(), 13),
            plausible in 0u8..16,
            slots in proptest::collection::vec((1u64..(1 << 62), 0u64..3, 0u64..1 << 32), 0..=3),
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

            let strict = LogFile::from_bytes(&bytes);
            if let Ok(strict) = &strict {
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
                prop_assert_eq!(report.kept + report.dropped, accountable(&bytes, &strict, src.header()));
            } else {
                prop_assert!(strict.is_err());
            }
        }

        /// A killed writer's image, its tail anywhere and its slots of
        /// every shape — whole, zero, or a prefix of a slot's bytes, the
        /// rest still zero — drains to its end as it loads: the same valid
        /// entries, and past the tail the one slot the load stops at
        /// counted as torn exactly when it holds a byte.
        #[test]
        fn prop_a_killed_writers_image_drains_as_it_loads(
            size in 1u64..8,
            tail in 0u64..8,
            shapes in proptest::collection::vec((1u64..1 << 40, 0u8..4, 1usize..24), 0..8),
        ) {
            let mut h = header(1, size);
            h.tail = tail;
            let mut bytes = LogFile::new(h, Vec::new()).to_bytes();
            for (counter, shape, cut) in &shapes {
                let mut slot = entry(*counter).to_bytes();
                match shape {
                    2 => slot.fill(0),
                    3 => slot[*cut..].fill(0),
                    _ => {}
                }
                bytes.extend_from_slice(&slot);
            }
            let strict = LogFile::from_bytes(&bytes);
            let dir = scratch("killedimage");
            let (entries, src) = salvaged(&dir, &bytes).unwrap();
            let report = &src.salvage;
            prop_assert_eq!(entries.len() as u64, report.kept);
            prop_assert_eq!(report.kept + report.dropped, accountable(&bytes, &strict, src.header()));
            if let Ok(strict) = &strict {
                let valid = strict.entries.iter().filter(|e| e.validity() == EntryValidity::Valid);
                prop_assert!(valid.eq(&entries));
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
                let strict = LogFile::from_bytes(&b);
                prop_assert_eq!(report.kept + report.dropped, accountable(&b, &strict, src.header()));
            }
        }
    }
}

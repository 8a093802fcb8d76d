//! The persistent log file the recorder writes after measurement and the
//! analyzer reads offline.
//!
//! On disk a log is the image of [`crate::layout`] itself: the 104-byte
//! header, then the `min(tail, size)` stored 24-byte slots — the bytes a
//! [`crate::log::SharedLog`] region starts with and a deployed session's
//! `<pid>.tplog` ([`crate::shm_file`]) holds. There is no framing of its
//! own and no count word: how many entries a file has is what its header
//! promises and its length backs ([`LogHeader::available`]), so
//! [`LogFile::load`] reads a `.tplog` straight out of a registration
//! directory — finished or killed, never its preallocated remainder — and
//! a [`crate::shm_file::FileShmSource`] drains a file [`LogFile::save`]
//! wrote. Files in the older private framing (magic `TPERFLG1`) are
//! refused as not a log image.
//!
//! [`LogFile::load`] reads the way a source pumps: the header in one
//! positioned read, checked as a foreign image, then the promised slots
//! in chunks of [`crate::shm_file::READ_CHUNK_ENTRIES`] through one
//! buffer, decoded straight into the entries. The file's bytes are never
//! held whole, and every refusal is the one [`LogFile::from_bytes`] gives
//! over the same bytes.

use std::error::Error;
use std::fmt;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::layout::{HeaderFault, HeaderRule, LogEntry, LogHeader, ENTRY_BYTES, HEADER_BYTES};
use crate::shm_file::{read_checked, READ_CHUNK_ENTRIES};

/// Errors reading or writing a file that holds a log image: a recording,
/// or a session's `<pid>.tplog` ([`crate::shm_file`] knows it as
/// `ShmFileError`).
#[derive(Debug)]
pub enum LogFileError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// Fewer bytes than a header: not a log image.
    TooSmall(u64),
    /// The header may not be trusted; decoding the body would be
    /// interpreting garbage.
    Header(HeaderFault),
    /// The file ends before the slots its header promises (a strict load
    /// refuses it; a [`crate::shm_file::FileShmSource`] keeps what is
    /// there).
    Truncated {
        /// Complete slots below the tail that the file holds.
        found: u64,
        /// Slots the header promises (`min(tail, size)`).
        promised: u64,
    },
}

impl fmt::Display for LogFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogFileError::Io(e) => write!(f, "log file i/o error: {e}"),
            LogFileError::TooSmall(n) => write!(
                f,
                "not a log image: {n} bytes, shorter than a {HEADER_BYTES}-byte header"
            ),
            LogFileError::Header(fault) => fault.fmt(f),
            LogFileError::Truncated { found, promised } => write!(
                f,
                "truncated log file: {found} of the {promised} entries its header promises"
            ),
        }
    }
}

impl Error for LogFileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LogFileError::Io(e) => Some(e),
            LogFileError::Header(fault) => Some(fault),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LogFileError {
    fn from(e: std::io::Error) -> Self {
        LogFileError::Io(e)
    }
}

impl From<HeaderFault> for LogFileError {
    fn from(fault: HeaderFault) -> Self {
        LogFileError::Header(fault)
    }
}

/// A drained, persistent profiling log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogFile {
    /// The header as of drain time.
    pub header: LogHeader,
    /// The recorded entries in reservation order.
    pub entries: Vec<LogEntry>,
}

impl LogFile {
    /// Bundle a header and entries into a log file.
    pub fn new(header: LogHeader, entries: Vec<LogEntry>) -> LogFile {
        LogFile { header, entries }
    }

    /// Serialize to the on-disk image: the header, then the entries. The
    /// bytes read back as this log when the entries are the
    /// `min(tail, size)` the header promises, which is what every
    /// recorder produces.
    pub fn to_bytes(&self) -> Vec<u8> {
        let slots = self.entries.len() * ENTRY_BYTES as usize;
        let mut out = Vec::with_capacity(HEADER_BYTES as usize + slots);
        out.extend_from_slice(&self.header.to_image());
        for e in &self.entries {
            out.extend_from_slice(&e.to_bytes());
        }
        out
    }

    /// Parse the on-disk image, strictly. Bytes past the promised slots
    /// are not looked at.
    ///
    /// # Errors
    /// [`LogFileError::TooSmall`] or [`LogFileError::Header`] when the
    /// bytes do not start with a trustworthy header;
    /// [`LogFileError::Truncated`] when they end before the promised
    /// slots do.
    pub fn from_bytes(bytes: &[u8]) -> Result<LogFile, LogFileError> {
        let Some((image, body)) = bytes.split_first_chunk() else {
            return Err(LogFileError::TooSmall(bytes.len() as u64));
        };
        let header = LogHeader::from_image(image, HeaderRule::Foreign)?;
        let slots = &body[..(promised_slots(&header, body.len() as u64)? * ENTRY_BYTES) as usize];
        Ok(LogFile {
            header,
            entries: LogEntry::decode_slots(slots).collect(),
        })
    }

    /// Write the log to a file.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), LogFileError> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(&self.to_bytes())?;
        Ok(())
    }

    /// Read a log from a file: a recording, or a deployed session's
    /// `<pid>.tplog`. The header is one positioned read, checked as
    /// [`LogFile::from_bytes`] checks it; the promised slots are then
    /// decoded [`READ_CHUNK_ENTRIES`] at a time through one buffer into
    /// an exactly sized `entries`, so the file's bytes are never held
    /// whole.
    ///
    /// # Errors
    /// Propagates I/O failures, and the errors [`LogFile::from_bytes`]
    /// gives over the same bytes.
    pub fn load(path: impl AsRef<Path>) -> Result<LogFile, LogFileError> {
        let file = std::fs::File::open(path)?;
        let (len, header) = read_checked(&file, HeaderRule::Foreign)?;
        let promised = promised_slots(&header, len - HEADER_BYTES)?;
        let mut entries = Vec::with_capacity(promised as usize);
        let mut buf = Vec::new();
        let mut slot = 0;
        while slot < promised {
            let n = (promised - slot).min(READ_CHUNK_ENTRIES);
            buf.resize((n * ENTRY_BYTES) as usize, 0);
            file.read_exact_at(&mut buf, LogEntry::offset_of(slot))?;
            entries.extend(LogEntry::decode_slots(&buf));
            slot += n;
        }
        Ok(LogFile { header, entries })
    }
}

/// How many slots `header` promises (`min(tail, size)`), when a body of
/// `body_bytes` holds them all.
///
/// # Errors
/// [`LogFileError::Truncated`] when the body ends before they do.
fn promised_slots(header: &LogHeader, body_bytes: u64) -> Result<u64, LogFileError> {
    let (available, shortfall) = header.available(body_bytes);
    if shortfall > 0 {
        let promised = header.stored_entries();
        return Err(LogFileError::Truncated {
            found: promised - shortfall,
            promised,
        });
    }
    Ok(available)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{EventKind, LOG_VERSION, OFF_MAGIC, OFF_SIZE, OFF_TAIL};
    use proptest::prelude::*;

    fn sample() -> LogFile {
        LogFile::new(
            LogHeader {
                active: false,
                trace_calls: true,
                trace_returns: true,
                multithread: true,
                version: LOG_VERSION,
                pid: 42,
                size: 100,
                tail: 2,
                anchor: 0x40_0000,
                shm_addr: tee_sim::SHM_BASE,
            },
            vec![
                LogEntry {
                    kind: EventKind::Call,
                    counter: 10,
                    addr: 0x40_0000,
                    tid: 0,
                },
                LogEntry {
                    kind: EventKind::Return,
                    counter: 20,
                    addr: 0x40_0000,
                    tid: 0,
                },
            ],
        )
    }

    /// Overwrite the header word at `off` of a serialized image.
    fn set_word(bytes: &mut [u8], off: u64, word: u64) {
        bytes[off as usize..off as usize + 8].copy_from_slice(&word.to_le_bytes());
    }

    #[test]
    fn byte_round_trip() {
        let f = sample();
        assert_eq!(LogFile::from_bytes(&f.to_bytes()).unwrap(), f);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("teeperf-file-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.bin");
        let f = sample();
        f.save(&path).unwrap();
        assert_eq!(LogFile::load(&path).unwrap(), f);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let f = sample();
        let mut b = f.to_bytes();
        b[OFF_MAGIC as usize] = b'X';
        assert!(matches!(
            LogFile::from_bytes(&b),
            Err(LogFileError::Header(HeaderFault::BadMagic { .. }))
        ));
        let b = f.to_bytes();
        assert!(matches!(
            LogFile::from_bytes(&b[..b.len() - 1]),
            Err(LogFileError::Truncated {
                found: 1,
                promised: 2
            })
        ));
        assert!(matches!(
            LogFile::from_bytes(&b[..20]),
            Err(LogFileError::TooSmall(20))
        ));
        assert!(LogFile::from_bytes(b"").is_err());
    }

    #[test]
    fn the_tail_not_the_file_length_says_how_many_entries_there_are() {
        let f = sample();
        let mut b = f.to_bytes();
        // A tail promising a third entry nobody wrote: a shortfall.
        set_word(&mut b, OFF_TAIL, 3);
        assert!(matches!(
            LogFile::from_bytes(&b),
            Err(LogFileError::Truncated {
                found: 2,
                promised: 3
            })
        ));
        // Bytes past the promise — a `.tplog`'s preallocated remainder —
        // are never looked at, whole slots or stray bytes.
        let mut b = f.to_bytes();
        b.extend_from_slice(&[0xff; 24 + 7]);
        assert_eq!(LogFile::from_bytes(&b).unwrap(), f);
        // A capacity below the tail caps the promise the same way.
        set_word(&mut b, OFF_SIZE, 1);
        assert_eq!(LogFile::from_bytes(&b).unwrap().entries, f.entries[..1]);
    }

    #[test]
    fn an_old_format_file_is_refused_with_a_typed_error() {
        // The framing this crate wrote before the image: magic, six header
        // words, a count, the entries. This count is the one that used to
        // overflow the strict loader's `count * 24` and make salvage
        // report 768614336404564643 dropped records.
        let f = sample();
        let mut old = b"TPERFLG1".to_vec();
        let h = &f.header;
        let count = 0x0AAA_AAAA_AAAA_AAAB_u64;
        for w in [h.pack_control(), h.pid, h.size, h.tail, h.anchor, 0, count] {
            old.extend_from_slice(&w.to_le_bytes());
        }
        for e in &f.entries {
            old.extend_from_slice(&e.to_bytes());
        }
        for bytes in [&old[..], &old[..64]] {
            let e = LogFile::from_bytes(bytes).unwrap_err();
            assert!(e.to_string().starts_with("not a log image"), "{e}");
        }
    }

    #[test]
    fn rejects_foreign_version_with_typed_error() {
        let mut f = sample();
        f.header.version = LOG_VERSION + 1;
        let b = f.to_bytes();
        let fault = HeaderFault::BadVersion {
            found: LOG_VERSION + 1,
        };
        assert!(matches!(
            LogFile::from_bytes(&b),
            Err(LogFileError::Header(found)) if found == fault
        ));
    }

    #[test]
    fn rejects_an_image_that_names_no_writer_or_has_no_capacity() {
        let mut f = sample();
        f.header.pid = 0;
        assert!(matches!(
            LogFile::from_bytes(&f.to_bytes()),
            Err(LogFileError::Header(HeaderFault::NoPid))
        ));
        let mut f = sample();
        f.header.size = 0;
        assert!(matches!(
            LogFile::from_bytes(&f.to_bytes()),
            Err(LogFileError::Header(HeaderFault::ZeroCapacity))
        ));
    }

    /// `bytes` written to a file of its own, loaded, the file removed.
    fn load_bytes(label: &str, bytes: &[u8]) -> Result<LogFile, LogFileError> {
        let path =
            std::env::temp_dir().join(format!("teeperf-file-{}-{label}.tplog", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let loaded = LogFile::load(&path);
        std::fs::remove_file(&path).unwrap();
        loaded
    }

    /// A log of `n` distinct entries under `sample`'s header.
    fn sized(n: u64) -> LogFile {
        let mut f = sample();
        f.header.size = n.max(1);
        f.header.tail = n;
        f.entries = (0..n)
            .map(|i| LogEntry {
                kind: if i % 2 == 0 {
                    EventKind::Call
                } else {
                    EventKind::Return
                },
                counter: i + 1,
                addr: 0x40_0000 + i,
                tid: i % 3,
            })
            .collect();
        f
    }

    #[test]
    fn a_chunked_load_equals_the_whole_image_parse_at_every_chunk_boundary() {
        let chunk = READ_CHUNK_ENTRIES;
        for n in [0, 1, chunk - 1, chunk, 2 * chunk + 17] {
            let f = sized(n);
            let mut bytes = f.to_bytes();
            // A preallocated remainder past the promise is not read.
            bytes.extend_from_slice(&[0xff; 24 * 3 + 5]);
            let loaded = load_bytes(&format!("chunks-{n}"), &bytes).unwrap();
            assert_eq!(loaded, LogFile::from_bytes(&bytes).unwrap(), "{n} slots");
            assert_eq!(loaded, f, "{n} slots");
            assert_eq!(loaded.entries.capacity() as u64, n, "{n} slots");
        }
    }

    #[test]
    fn a_load_refuses_what_the_whole_image_parse_refuses_in_its_words() {
        let whole = sized(READ_CHUNK_ENTRIES + 3).to_bytes();
        let mut bad_magic = whole.clone();
        bad_magic[OFF_MAGIC as usize] = b'X';
        let cases: [(&str, &[u8]); 5] = [
            ("empty", &[]),
            ("short", &whole[..20]),
            ("magic", &bad_magic),
            ("cut-body", &whole[..whole.len() - 1]),
            ("cut-chunk", &whole[..whole.len() - 24 * 5]),
        ];
        for (label, bytes) in cases {
            let loaded = load_bytes(label, bytes).unwrap_err().to_string();
            let parsed = LogFile::from_bytes(bytes).unwrap_err().to_string();
            assert_eq!(loaded, parsed, "{label}");
        }
    }

    proptest! {
        #[test]
        fn prop_round_trip(
            pid in 1u64..=u64::MAX, spare in 0u64..3, dropped: u64, anchor: u64,
            raw_entries in proptest::collection::vec((any::<bool>(), 0u64..(1<<62), any::<u64>(), any::<u64>()), 0..64),
        ) {
            let entries: Vec<LogEntry> = raw_entries.iter().map(|(c, counter, addr, tid)| LogEntry {
                kind: if *c { EventKind::Call } else { EventKind::Return },
                counter: *counter, addr: *addr, tid: *tid,
            }).collect();
            // Spare capacity or, on a full log, drop tickets above it:
            // either way the smaller word is the count.
            let n = entries.len() as u64;
            let size = n.saturating_add(spare).max(1);
            let tail = if n == size { n.saturating_add(dropped) } else { n };
            let f = LogFile::new(LogHeader {
                active: true, trace_calls: false, trace_returns: true, multithread: false,
                version: LOG_VERSION, pid, size, tail, anchor, shm_addr: 0,
            }, entries);
            prop_assert_eq!(LogFile::from_bytes(&f.to_bytes()).unwrap(), f);
        }

        /// The strict parse never panics on a mutilated image; the
        /// salvaging reader's half is `shm_file`'s
        /// `prop_a_mutilated_recording_never_panics_and_accounts_everything`.
        #[test]
        fn prop_a_mutilated_image_never_panics_the_strict_parse(
            cut in 0usize..512,
            flips in proptest::collection::vec((0usize..512, any::<u8>()), 0..4),
        ) {
            let f = sample();
            let mut b = f.to_bytes();
            for (pos, val) in flips {
                if pos < b.len() { b[pos] = val; }
            }
            let cut = cut.min(b.len());
            b.truncate(cut);
            if let Ok(strict) = LogFile::from_bytes(&b) {
                prop_assert_eq!(strict.entries.len() as u64, strict.header.stored_entries());
            }
        }
    }
}

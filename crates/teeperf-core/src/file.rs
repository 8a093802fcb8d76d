//! The persistent log file the recorder writes after measurement and the
//! analyzer reads offline.
//!
//! A simple, versioned little-endian binary format:
//!
//! ```text
//! magic   8 bytes  "TPERFLG1"
//! header  6 words  control, pid, size, tail, anchor, shm_addr
//! count   1 word   number of entries that follow
//! entries count × 3 words
//! ```

use std::error::Error;
use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

use crate::faults::{SalvageReason, SalvageReport};
use crate::layout::{LogEntry, LogHeader, LOG_VERSION};

const MAGIC: &[u8; 8] = b"TPERFLG1";

/// Errors reading or writing a log file.
#[derive(Debug)]
pub enum LogFileError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The bytes are not a valid log file.
    Malformed(String),
    /// The header carries a log-format version this build does not speak;
    /// parsing the body would be interpreting garbage.
    VersionMismatch {
        /// Version found in the header control word.
        found: u16,
        /// The version this build writes ([`LOG_VERSION`]).
        expected: u16,
    },
    /// A header field contradicts the file's own length (e.g. more entries
    /// than `max_size` slots, or more entries than the tail ever reserved).
    Inconsistent {
        /// Which header field is being contradicted.
        what: &'static str,
        /// Value implied by the file contents.
        found: u64,
        /// Bound claimed by the header.
        limit: u64,
    },
}

impl fmt::Display for LogFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogFileError::Io(e) => write!(f, "log file i/o error: {e}"),
            LogFileError::Malformed(msg) => write!(f, "malformed log file: {msg}"),
            LogFileError::VersionMismatch { found, expected } => write!(
                f,
                "log version mismatch: file is v{found}, this build reads v{expected}"
            ),
            LogFileError::Inconsistent { what, found, limit } => write!(
                f,
                "inconsistent log header: {found} entries on disk but {what} is {limit}"
            ),
        }
    }
}

impl Error for LogFileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LogFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LogFileError {
    fn from(e: std::io::Error) -> Self {
        LogFileError::Io(e)
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

    /// Serialize to the on-disk byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 7 * 8 + self.entries.len() * 24);
        out.extend_from_slice(MAGIC);
        let h = &self.header;
        for w in [
            h.pack_control(),
            h.pid,
            h.size,
            h.tail,
            h.anchor,
            h.shm_addr,
            self.entries.len() as u64,
        ] {
            out.extend_from_slice(&w.to_le_bytes());
        }
        for e in &self.entries {
            out.extend_from_slice(&e.to_bytes());
        }
        out
    }

    /// Parse the magic, header words and declared count; the shared prefix
    /// of strict and salvage parsing.
    fn parse_header(bytes: &[u8]) -> Result<(LogHeader, u64), LogFileError> {
        let word = |i: usize| -> Result<u64, LogFileError> {
            let start = 8 + i * 8;
            let chunk: [u8; 8] = bytes
                .get(start..start + 8)
                .ok_or_else(|| LogFileError::Malformed("truncated header".into()))?
                .try_into()
                .expect("slice of length 8");
            Ok(u64::from_le_bytes(chunk))
        };
        if bytes.len() < 8 || &bytes[..8] != MAGIC {
            return Err(LogFileError::Malformed("bad magic".into()));
        }
        let control = word(0)?;
        let (active, trace_calls, trace_returns, multithread, version) =
            LogHeader::unpack_control(control);
        if version != LOG_VERSION {
            return Err(LogFileError::VersionMismatch {
                found: version,
                expected: LOG_VERSION,
            });
        }
        let header = LogHeader {
            active,
            trace_calls,
            trace_returns,
            multithread,
            version,
            pid: word(1)?,
            size: word(2)?,
            tail: word(3)?,
            anchor: word(4)?,
            shm_addr: word(5)?,
        };
        let count = word(6)?;
        Ok((header, count))
    }

    /// Parse the on-disk byte format, strictly.
    ///
    /// # Errors
    /// Returns [`LogFileError::Malformed`] on a bad magic, truncation, or an
    /// implausible entry count; [`LogFileError::VersionMismatch`] when the
    /// header version is not [`LOG_VERSION`]; [`LogFileError::Inconsistent`]
    /// when the entry count contradicts the header's `max_size` or tail.
    pub fn from_bytes(bytes: &[u8]) -> Result<LogFile, LogFileError> {
        let (header, count) = LogFile::parse_header(bytes)?;
        let body = &bytes[8 + 7 * 8..];
        if body.len() as u64 != count * 24 {
            return Err(LogFileError::Malformed(format!(
                "expected {count} entries ({} bytes), found {} bytes",
                count * 24,
                body.len()
            )));
        }
        if count > header.size {
            return Err(LogFileError::Inconsistent {
                what: "max_size",
                found: count,
                limit: header.size,
            });
        }
        if count > header.tail {
            return Err(LogFileError::Inconsistent {
                what: "tail",
                found: count,
                limit: header.tail,
            });
        }
        Ok(LogFile {
            header,
            entries: LogEntry::decode_slots(body).collect(),
        })
    }

    /// Parse the on-disk byte format, salvaging what a strict parse would
    /// reject: a truncated entry region keeps every complete 24-byte entry
    /// (dropping the cut one), torn or never-published records are skipped,
    /// and a count/size/tail inconsistency is clamped rather than fatal.
    /// The report accounts for every record given up on.
    ///
    /// # Errors
    /// Still fails on damage with nothing behind it to salvage: a bad
    /// magic, a truncated header, or a [`LogFileError::VersionMismatch`]
    /// (entries of a foreign version would be decoded as garbage).
    pub fn from_bytes_salvage(bytes: &[u8]) -> Result<(LogFile, SalvageReport), LogFileError> {
        let (header, count) = LogFile::parse_header(bytes)?;
        let mut report = SalvageReport::default();
        let body = &bytes[8 + 7 * 8..];
        let complete = (body.len() / 24) as u64;
        let expected = count.max(complete);
        if expected > complete {
            // Entries the header promised (or a partial trailing record)
            // that the file no longer holds.
            report.drop_n(SalvageReason::TruncatedFile, expected - complete);
        } else if !body.len().is_multiple_of(24) {
            report.drop_n(SalvageReason::TruncatedFile, 1);
        }
        let entries = report.filter_entries(LogEntry::decode_slots(body));
        Ok((LogFile { header, entries }, report))
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

    /// Read a log from a file.
    ///
    /// # Errors
    /// Propagates I/O failures and format errors.
    pub fn load(path: impl AsRef<Path>) -> Result<LogFile, LogFileError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        LogFile::from_bytes(&bytes)
    }

    /// Read a log from a file via [`LogFile::from_bytes_salvage`].
    ///
    /// # Errors
    /// Propagates I/O failures and unsalvageable format errors.
    pub fn load_salvage(path: impl AsRef<Path>) -> Result<(LogFile, SalvageReport), LogFileError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        LogFile::from_bytes_salvage(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{EventKind, LOG_VERSION};
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

    #[test]
    fn byte_round_trip() {
        let f = sample();
        assert_eq!(LogFile::from_bytes(&f.to_bytes()).unwrap(), f);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("teeperf-file-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.bin");
        let f = sample();
        f.save(&path).unwrap();
        assert_eq!(LogFile::load(&path).unwrap(), f);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let f = sample();
        let mut b = f.to_bytes();
        b[0] = b'X';
        assert!(matches!(
            LogFile::from_bytes(&b),
            Err(LogFileError::Malformed(_))
        ));
        let b = f.to_bytes();
        assert!(LogFile::from_bytes(&b[..b.len() - 1]).is_err());
        assert!(LogFile::from_bytes(&b[..20]).is_err());
        assert!(LogFile::from_bytes(b"").is_err());
    }

    #[test]
    fn count_mismatch_detected() {
        let f = sample();
        let mut b = f.to_bytes();
        // Claim three entries while only two follow.
        let off = 8 + 6 * 8;
        b[off..off + 8].copy_from_slice(&3u64.to_le_bytes());
        assert!(LogFile::from_bytes(&b).is_err());
    }

    #[test]
    fn rejects_foreign_version_with_typed_error() {
        let mut f = sample();
        f.header.version = LOG_VERSION + 1;
        let b = f.to_bytes();
        match LogFile::from_bytes(&b) {
            Err(LogFileError::VersionMismatch { found, expected }) => {
                assert_eq!(found, LOG_VERSION + 1);
                assert_eq!(expected, LOG_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        // Salvage refuses too: a foreign version's entries are garbage.
        assert!(matches!(
            LogFile::from_bytes_salvage(&b),
            Err(LogFileError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_header_inconsistent_with_file_length() {
        // More entries than max_size slots could ever hold.
        let mut f = sample();
        f.header.size = 1;
        match LogFile::from_bytes(&f.to_bytes()) {
            Err(LogFileError::Inconsistent { what, found, limit }) => {
                assert_eq!(what, "max_size");
                assert_eq!((found, limit), (2, 1));
            }
            other => panic!("expected Inconsistent, got {other:?}"),
        }
        // More entries than the tail ever reserved.
        let mut f = sample();
        f.header.tail = 1;
        assert!(matches!(
            LogFile::from_bytes(&f.to_bytes()),
            Err(LogFileError::Inconsistent { what: "tail", .. })
        ));
        // Salvage clamps instead of erroring.
        let (salvaged, report) = LogFile::from_bytes_salvage(&f.to_bytes()).unwrap();
        assert_eq!(salvaged.entries.len(), 2);
        assert!(report.is_clean());
    }

    #[test]
    fn salvage_keeps_complete_entries_of_a_truncated_file() {
        let f = sample();
        let b = f.to_bytes();
        // Cut mid-way through the second entry.
        let cut = b.len() - 10;
        let (salvaged, report) = LogFile::from_bytes_salvage(&b[..cut]).unwrap();
        assert_eq!(salvaged.entries, f.entries[..1]);
        assert_eq!(report.kept, 1);
        assert_eq!(report.count(super::SalvageReason::TruncatedFile), 1);
        // Strict parsing still rejects the same bytes.
        assert!(LogFile::from_bytes(&b[..cut]).is_err());
        // A cut inside the header is beyond salvage.
        assert!(LogFile::from_bytes_salvage(&b[..40]).is_err());
    }

    #[test]
    fn salvage_skips_torn_and_unpublished_records() {
        let mut f = sample();
        f.header.size = 4;
        f.header.tail = 4;
        f.entries.push(LogEntry {
            kind: EventKind::Call,
            counter: 9,
            addr: 0,
            tid: 0,
        }); // torn
        f.entries.push(LogEntry::unpack([0, 0, 0])); // unpublished hole
        let (salvaged, report) = LogFile::from_bytes_salvage(&f.to_bytes()).unwrap();
        assert_eq!(salvaged.entries.len(), 2);
        assert_eq!(report.kept, 2);
        assert_eq!(report.count(super::SalvageReason::TornEntry), 1);
        assert_eq!(report.count(super::SalvageReason::UnpublishedSlot), 1);
    }

    proptest! {
        #[test]
        fn prop_round_trip(
            pid: u64, size: u64, tail: u64, anchor: u64,
            raw_entries in proptest::collection::vec((any::<bool>(), 0u64..(1<<62), any::<u64>(), any::<u64>()), 0..64),
        ) {
            let entries: Vec<LogEntry> = raw_entries.iter().map(|(c, counter, addr, tid)| LogEntry {
                kind: if *c { EventKind::Call } else { EventKind::Return },
                counter: *counter, addr: *addr, tid: *tid,
            }).collect();
            let n = entries.len() as u64;
            let f = LogFile::new(LogHeader {
                active: true, trace_calls: false, trace_returns: true, multithread: false,
                version: LOG_VERSION, pid, size: size.max(n), tail: tail.max(n), anchor, shm_addr: 0,
            }, entries);
            prop_assert_eq!(LogFile::from_bytes(&f.to_bytes()).unwrap(), f);
        }

        #[test]
        fn prop_salvage_never_panics_and_accounts_everything(
            cut in 0usize..512,
            flips in proptest::collection::vec((64usize..512, any::<u8>()), 0..4),
        ) {
            let f = sample();
            let mut b = f.to_bytes();
            for (pos, val) in flips {
                if pos < b.len() { b[pos] = val; }
            }
            let cut = cut.min(b.len());
            b.truncate(cut);
            // Must never panic; when it parses, the books must balance.
            if let Ok((salvaged, report)) = LogFile::from_bytes_salvage(&b) {
                prop_assert_eq!(salvaged.entries.len() as u64, report.kept);
            }
        }
    }
}

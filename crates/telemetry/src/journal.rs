//! Write-ahead run journal and atomic artifact writes — the durability
//! layer behind `suite --resume`.
//!
//! Two independent guarantees live here:
//!
//! - **No committed work is lost.** A [`Journal`] is an append-only,
//!   CRC-framed record log with fsync discipline: every
//!   [`Journal::append`] writes one `[len][crc32][payload]` frame and
//!   fsyncs before returning, so a record the caller saw succeed
//!   survives a crash at any later instant. On open, the tail is
//!   scanned; a torn final frame (the crash landed mid-`write`) is
//!   detected by length or CRC and truncated away, leaving the clean
//!   prefix. The typed layer on top, [`RunJournal`], records one
//!   completed task per frame as `(label, seed, content-digest, result
//!   bytes)` plus a leading meta frame that pins the run configuration,
//!   so a resumed run can prove it is continuing the *same* run.
//! - **No torn artifacts.** [`write_atomic`] writes through a temp file
//!   in the destination directory, fsyncs it, `rename`s it over the
//!   target, and fsyncs the parent directory — a reader (or a crash)
//!   observes either the old bytes or the new bytes, never a prefix.
//!
//! Crash points are testable: setting `CSD_CRASH_AT=<n>` makes the
//! *n*-th journal append in this process write a deliberately torn
//! half-frame and abort, which is exactly the state a power cut
//! mid-append leaves behind. `scripts/crash_smoke.sh` loops
//! crash→resume over seeded kill points and byte-compares the final
//! artifact against an uninterrupted run.

use crate::json::Json;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Magic bytes opening every journal file (version-tagged).
pub const JOURNAL_MAGIC: &[u8; 8] = b"CSDJRNL1";

/// Largest frame [`Journal::open`] will believe. A length word beyond
/// this is treated as tail corruption, not an allocation request.
const MAX_FRAME: u32 = 64 << 20;

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the per-frame checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// FNV-1a 64-bit content hash — the digest stored with each task record
/// (integrity is the CRC's job; the digest names the *content* so a
/// resumed run can assert it replays the bytes it thinks it does).
pub fn content_digest(bytes: &[u8]) -> u64 {
    crate::fnv1a64(bytes)
}

// ---------------------------------------------------------------------
// Typed artifact I/O errors
// ---------------------------------------------------------------------

/// A filesystem failure with the path it happened on — what every
/// artifact writer and the journal report instead of a bare
/// `io::Error`, so `ENOSPC` at 2 a.m. names the file and the disk
/// problem rather than panicking.
#[derive(Debug)]
pub struct ArtifactError {
    /// What was being attempted, e.g. `writing` or `fsync`.
    pub op: &'static str,
    /// The path involved.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: io::Error,
}

impl ArtifactError {
    fn new(op: &'static str, path: &Path, source: io::Error) -> ArtifactError {
        ArtifactError {
            op,
            path: path.to_path_buf(),
            source,
        }
    }

    /// Whether the failure is the disk filling up (`ENOSPC` / `EDQUOT`)
    /// — the case operators hit in practice and the one the error
    /// message calls out explicitly.
    pub fn is_out_of_space(&self) -> bool {
        matches!(self.source.raw_os_error(), Some(28 | 122))
    }
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}: {}", self.op, self.path.display(), self.source)?;
        if self.is_out_of_space() {
            write!(
                f,
                " (disk full — free space and retry; no torn file was left behind)"
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Writes `bytes` to `path` atomically: temp file in the destination
/// directory, fsync, `rename` over the target, fsync of the parent
/// directory. A crash at any instant leaves either the old file or the
/// new one — never a prefix, never a torn tail.
///
/// # Errors
///
/// Any filesystem failure, with the path attached; the temp file is
/// removed on error.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), ArtifactError> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let stem = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    let tmp = dir.join(format!(".{stem}.tmp.{}", std::process::id()));
    let write_all = || -> Result<(), ArtifactError> {
        let mut f = File::create(&tmp).map_err(|e| ArtifactError::new("creating", &tmp, e))?;
        f.write_all(bytes)
            .map_err(|e| ArtifactError::new("writing", &tmp, e))?;
        f.sync_all()
            .map_err(|e| ArtifactError::new("fsync", &tmp, e))?;
        std::fs::rename(&tmp, path).map_err(|e| ArtifactError::new("renaming into", path, e))?;
        // Persist the rename itself: fsync the directory entry.
        if let Ok(d) = File::open(&dir) {
            let _ = d.sync_all();
        }
        Ok(())
    };
    let out = write_all();
    if out.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    out
}

// ---------------------------------------------------------------------
// Crash injection
// ---------------------------------------------------------------------

/// Global append counter behind the `CSD_CRASH_AT=<n>` kill point: when
/// the *n*-th append (1-based, process-wide) is reached, the journal
/// writes a deliberately torn half-frame and aborts the process —
/// exactly what a power cut mid-append leaves on disk.
static APPENDS: AtomicU64 = AtomicU64::new(0);

fn crash_at() -> Option<u64> {
    static CRASH_AT: OnceLock<Option<u64>> = OnceLock::new();
    *CRASH_AT.get_or_init(|| {
        std::env::var("CSD_CRASH_AT")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|n| *n > 0)
    })
}

// ---------------------------------------------------------------------
// Frame-level journal
// ---------------------------------------------------------------------

/// What [`Journal::open`] recovered from an existing file.
pub struct Recovered {
    /// The journal, positioned for appending after the clean prefix.
    pub journal: Journal,
    /// Every intact frame payload, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of torn/corrupt tail that were truncated away (0 for a
    /// clean file).
    pub truncated: u64,
}

/// An append-only, CRC-framed record log with fsync discipline.
///
/// Frame layout: `[len: u32 LE] [crc32(payload): u32 LE] [payload]`,
/// preceded once by [`JOURNAL_MAGIC`]. Appends are durable when
/// [`Journal::append`] returns; a crash mid-append leaves a torn final
/// frame that the next [`Journal::open`] truncates away.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Creates a new journal (truncating any existing file), writes the
    /// magic header, and fsyncs file and parent directory so the
    /// journal's existence itself survives a crash.
    ///
    /// # Errors
    ///
    /// Any filesystem failure, with the path attached.
    pub fn create(path: &Path) -> Result<Journal, ArtifactError> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| ArtifactError::new("creating", dir, e))?;
        }
        let mut file = File::create(path).map_err(|e| ArtifactError::new("creating", path, e))?;
        file.write_all(JOURNAL_MAGIC)
            .map_err(|e| ArtifactError::new("writing", path, e))?;
        file.sync_all()
            .map_err(|e| ArtifactError::new("fsync", path, e))?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(Journal {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Opens an existing journal, scanning every frame: intact payloads
    /// are returned in order, and a torn or CRC-corrupt tail — a partial
    /// length word, a length running past EOF, an implausible length, or
    /// a checksum mismatch — is truncated away so the file ends on a
    /// record boundary again. Truncation also drops any frames *after*
    /// the first bad one: bytes beyond a corrupt frame cannot be framed
    /// reliably, and the grid re-runs those tasks anyway.
    ///
    /// # Errors
    ///
    /// Filesystem failures, a missing file, or a file that does not
    /// start with [`JOURNAL_MAGIC`].
    pub fn open(path: &Path) -> Result<Recovered, ArtifactError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| ArtifactError::new("opening", path, e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| ArtifactError::new("reading", path, e))?;
        if bytes.len() < JOURNAL_MAGIC.len() || &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
            return Err(ArtifactError::new(
                "opening",
                path,
                io::Error::new(io::ErrorKind::InvalidData, "not a csd journal (bad magic)"),
            ));
        }
        let mut records = Vec::new();
        let mut clean_end = JOURNAL_MAGIC.len();
        let mut pos = clean_end;
        loop {
            if pos + 8 > bytes.len() {
                break; // torn or absent header
            }
            let len =
                u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
            let crc = u32::from_le_bytes([
                bytes[pos + 4],
                bytes[pos + 5],
                bytes[pos + 6],
                bytes[pos + 7],
            ]);
            if len > MAX_FRAME {
                break; // implausible length word — corruption
            }
            let start = pos + 8;
            let end = start + len as usize;
            if end > bytes.len() {
                break; // torn payload
            }
            let payload = &bytes[start..end];
            if crc32(payload) != crc {
                break; // corrupt payload
            }
            records.push(payload.to_vec());
            pos = end;
            clean_end = end;
        }
        let truncated = (bytes.len() - clean_end) as u64;
        if truncated > 0 {
            file.set_len(clean_end as u64)
                .map_err(|e| ArtifactError::new("truncating", path, e))?;
            file.sync_all()
                .map_err(|e| ArtifactError::new("fsync", path, e))?;
        }
        file.seek(SeekFrom::Start(clean_end as u64))
            .map_err(|e| ArtifactError::new("seeking", path, e))?;
        Ok(Recovered {
            journal: Journal {
                file,
                path: path.to_path_buf(),
            },
            records,
            truncated,
        })
    }

    /// Appends one framed record and fsyncs — when this returns `Ok`,
    /// the record survives any subsequent crash.
    ///
    /// Honors the `CSD_CRASH_AT=<n>` kill point: the *n*-th append in
    /// this process writes only half its frame and aborts, simulating a
    /// crash mid-`write`.
    ///
    /// # Errors
    ///
    /// Any filesystem failure (`ENOSPC` included), with the path
    /// attached.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), ArtifactError> {
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        if let Some(n) = crash_at() {
            if APPENDS.fetch_add(1, Ordering::SeqCst) + 1 == n {
                // Simulate a crash mid-write: half the frame lands on
                // disk, then the process dies without unwinding.
                let torn = &frame[..frame.len() / 2];
                let _ = self.file.write_all(torn);
                let _ = self.file.sync_all();
                eprintln!(
                    "journal: CSD_CRASH_AT={n} reached on {} — aborting with a torn frame",
                    self.path.display()
                );
                std::process::abort();
            }
        }
        self.file
            .write_all(&frame)
            .map_err(|e| ArtifactError::new("appending to", &self.path, e))?;
        self.file
            .sync_all()
            .map_err(|e| ArtifactError::new("fsync", &self.path, e))?;
        Ok(())
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// ---------------------------------------------------------------------
// Typed run journal
// ---------------------------------------------------------------------

/// Frame tags of the typed layer.
const TAG_META: u8 = b'M';
const TAG_TASK: u8 = b'T';

/// One replayed task record: a completed task's identity and result
/// bytes, exactly as journaled by the run that crashed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskRecord {
    /// The task's grid label.
    pub label: String,
    /// The label-derived seed the task ran with.
    pub seed: u64,
    /// [`content_digest`] of `bytes`, re-verified on replay.
    pub digest: u64,
    /// The task's result bytes (deterministic JSON text).
    pub bytes: Vec<u8>,
}

/// A run-level journal: a meta frame pinning the run configuration,
/// then one task frame per completed task. Opening an existing journal
/// whose meta frame differs from the expected one is an error — a
/// `--resume` under a different profile, seed, or filter would
/// otherwise silently merge incompatible results.
#[derive(Debug)]
pub struct RunJournal {
    journal: Journal,
    replayed: Vec<TaskRecord>,
    truncated: u64,
}

impl RunJournal {
    /// Opens `path` for this run: creates a fresh journal (writing the
    /// meta frame) if the file does not exist, otherwise recovers the
    /// clean prefix, verifies the meta frame equals `meta`, and replays
    /// every intact task record.
    ///
    /// # Errors
    ///
    /// Filesystem failures; an existing journal whose meta frame is
    /// missing or differs from `meta`; a task frame whose digest does
    /// not match its bytes (CRC passed but content lies — refuse to
    /// trust the file).
    pub fn open(path: &Path, meta: &Json) -> Result<RunJournal, ArtifactError> {
        let meta_bytes = Self::meta_frame(meta);
        if !path.exists() {
            let mut journal = Journal::create(path)?;
            journal.append(&meta_bytes)?;
            return Ok(RunJournal {
                journal,
                replayed: Vec::new(),
                truncated: 0,
            });
        }
        let recovered = Journal::open(path)?;
        let bad = |msg: String| {
            ArtifactError::new(
                "resuming",
                path,
                io::Error::new(io::ErrorKind::InvalidData, msg),
            )
        };
        let Some(first) = recovered.records.first() else {
            // The meta frame itself was torn away: nothing was ever
            // durably recorded, so restart the journal from scratch.
            let mut journal = Journal::create(path)?;
            journal.append(&meta_bytes)?;
            return Ok(RunJournal {
                journal,
                replayed: Vec::new(),
                truncated: recovered.truncated,
            });
        };
        if first.as_slice() != meta_bytes.as_slice() {
            let found = first
                .strip_prefix(&[TAG_META])
                .and_then(|b| std::str::from_utf8(b).ok())
                .unwrap_or("<not a meta frame>");
            return Err(bad(format!(
                "journal belongs to a different run: recorded meta {found} != expected {}",
                meta.dump()
            )));
        }
        let mut replayed = Vec::new();
        for (i, rec) in recovered.records.iter().enumerate().skip(1) {
            let task = Self::parse_task(rec)
                .ok_or_else(|| bad(format!("record {i} is not a task frame")))?;
            if content_digest(&task.bytes) != task.digest {
                return Err(bad(format!(
                    "record {i} ({}): content digest mismatch — journal is corrupt",
                    task.label
                )));
            }
            replayed.push(task);
        }
        Ok(RunJournal {
            journal: recovered.journal,
            replayed,
            truncated: recovered.truncated,
        })
    }

    fn meta_frame(meta: &Json) -> Vec<u8> {
        let mut bytes = vec![TAG_META];
        bytes.extend_from_slice(meta.dump().as_bytes());
        bytes
    }

    /// Task frame layout after the tag byte:
    /// `[seed u64 LE] [digest u64 LE] [label_len u32 LE] [label] [bytes]`.
    fn task_frame(label: &str, seed: u64, bytes: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + 8 + 8 + 4 + label.len() + bytes.len());
        out.push(TAG_TASK);
        out.extend_from_slice(&seed.to_le_bytes());
        out.extend_from_slice(&content_digest(bytes).to_le_bytes());
        out.extend_from_slice(&(label.len() as u32).to_le_bytes());
        out.extend_from_slice(label.as_bytes());
        out.extend_from_slice(bytes);
        out
    }

    fn parse_task(rec: &[u8]) -> Option<TaskRecord> {
        let rest = rec.strip_prefix(&[TAG_TASK])?;
        if rest.len() < 20 {
            return None;
        }
        let seed = u64::from_le_bytes(rest[0..8].try_into().ok()?);
        let digest = u64::from_le_bytes(rest[8..16].try_into().ok()?);
        let label_len = u32::from_le_bytes(rest[16..20].try_into().ok()?) as usize;
        let rest = &rest[20..];
        if rest.len() < label_len {
            return None;
        }
        let label = std::str::from_utf8(&rest[..label_len]).ok()?.to_string();
        Some(TaskRecord {
            label,
            seed,
            digest,
            bytes: rest[label_len..].to_vec(),
        })
    }

    /// Durably records one completed task.
    ///
    /// # Errors
    ///
    /// Any filesystem failure — the caller must treat this as fatal
    /// (the durability contract is broken, not just this one record).
    pub fn record(&mut self, label: &str, seed: u64, bytes: &[u8]) -> Result<(), ArtifactError> {
        self.journal.append(&Self::task_frame(label, seed, bytes))
    }

    /// The task records replayed from the clean prefix, in append order.
    pub fn replayed(&self) -> &[TaskRecord] {
        &self.replayed
    }

    /// Bytes of torn tail truncated during recovery (0 for a clean or
    /// fresh journal).
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        self.journal.path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("csd-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn content_digest_known_answer() {
        // Pinned: journals already on disk store this digest per record.
        assert_eq!(content_digest(b"{\"x\": 1}"), 0x0721_4756_4ddd_78ae);
    }

    #[test]
    fn journal_roundtrips_records() {
        let path = tmp("roundtrip.journal");
        let mut j = Journal::create(&path).unwrap();
        j.append(b"alpha").unwrap();
        j.append(b"").unwrap();
        j.append(&[0u8, 255, 1, 254]).unwrap();
        drop(j);
        let r = Journal::open(&path).unwrap();
        assert_eq!(
            r.records,
            vec![b"alpha".to_vec(), Vec::new(), vec![0, 255, 1, 254]]
        );
        assert_eq!(r.truncated, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_after_recovery_continues_the_log() {
        let path = tmp("continue.journal");
        let mut j = Journal::create(&path).unwrap();
        j.append(b"one").unwrap();
        drop(j);
        let mut r = Journal::open(&path).unwrap();
        r.journal.append(b"two").unwrap();
        let r2 = Journal::open(&path).unwrap();
        assert_eq!(r2.records, vec![b"one".to_vec(), b"two".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_at_every_byte_boundary_recovers_clean_prefix() {
        // Build a journal of three records, then for every possible
        // truncation point reopen and assert: no panic, the intact
        // prefix of records survives, and the file is truncated back to
        // a record boundary that supports further appends.
        let path = tmp("torn.journal");
        let mut j = Journal::create(&path).unwrap();
        let payloads: [&[u8]; 3] = [b"first-record", b"x", b"the-third-record"];
        let mut boundaries = vec![JOURNAL_MAGIC.len()];
        for p in payloads {
            j.append(p).unwrap();
            boundaries.push(boundaries.last().unwrap() + 8 + p.len());
        }
        drop(j);
        let full = std::fs::read(&path).unwrap();
        assert_eq!(full.len(), *boundaries.last().unwrap());
        for cut in JOURNAL_MAGIC.len()..=full.len() {
            let case = tmp("torn-case.journal");
            std::fs::write(&case, &full[..cut]).unwrap();
            let r = Journal::open(&case).unwrap();
            let intact = boundaries.iter().filter(|b| **b <= cut).count() - 1;
            assert_eq!(
                r.records.len(),
                intact,
                "cut at byte {cut}: expected the longest clean prefix"
            );
            for (rec, want) in r.records.iter().zip(payloads) {
                assert_eq!(rec.as_slice(), want);
            }
            assert_eq!(r.truncated, (cut - boundaries[intact]) as u64);
            // The recovered journal must accept appends again.
            let mut j = r.journal;
            j.append(b"appended-after-recovery").unwrap();
            drop(j);
            let r2 = Journal::open(&case).unwrap();
            assert_eq!(r2.records.len(), intact + 1);
            assert_eq!(r2.records[intact].as_slice(), b"appended-after-recovery");
            std::fs::remove_file(&case).unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crc_corruption_rejects_the_frame_and_its_suffix() {
        let path = tmp("corrupt.journal");
        let mut j = Journal::create(&path).unwrap();
        j.append(b"good-one").unwrap();
        j.append(b"to-be-corrupted").unwrap();
        j.append(b"unreachable-after-corruption").unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte inside the second record.
        let off = JOURNAL_MAGIC.len() + (8 + 8) + 8 + 3;
        bytes[off] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let r = Journal::open(&path).unwrap();
        assert_eq!(r.records, vec![b"good-one".to_vec()]);
        assert!(
            r.truncated > 0,
            "the corrupt frame and its suffix are dropped"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn implausible_length_word_is_corruption_not_allocation() {
        let path = tmp("hugelen.journal");
        let mut j = Journal::create(&path).unwrap();
        j.append(b"fine").unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 4]);
        std::fs::write(&path, &bytes).unwrap();
        let r = Journal::open(&path).unwrap();
        assert_eq!(r.records, vec![b"fine".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_journal_file_is_rejected() {
        let path = tmp("notajournal.bin");
        std::fs::write(&path, b"definitely not a journal").unwrap();
        assert!(Journal::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn run_journal_replays_and_pins_meta() {
        let path = tmp("run.journal");
        let _ = std::fs::remove_file(&path);
        let meta = Json::obj([("profile", Json::from("quick")), ("seed", Json::from(7u64))]);
        let mut rj = RunJournal::open(&path, &meta).unwrap();
        assert!(rj.replayed().is_empty());
        rj.record("sec/opt/aes-enc", 42, b"{\"x\": 1}").unwrap();
        rj.record("table1", 9, b"{}").unwrap();
        drop(rj);
        let rj = RunJournal::open(&path, &meta).unwrap();
        assert_eq!(rj.replayed().len(), 2);
        assert_eq!(rj.replayed()[0].label, "sec/opt/aes-enc");
        assert_eq!(rj.replayed()[0].seed, 42);
        assert_eq!(rj.replayed()[0].bytes, b"{\"x\": 1}");
        assert_eq!(
            rj.replayed()[0].digest,
            content_digest(b"{\"x\": 1}"),
            "digest is recomputed and verified on replay"
        );
        // A different run config must be refused, not merged.
        let other = Json::obj([("profile", Json::from("full")), ("seed", Json::from(7u64))]);
        let err = RunJournal::open(&path, &other).unwrap_err();
        assert!(err.to_string().contains("different run"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn run_journal_with_torn_task_tail_resumes() {
        let path = tmp("run-torn.journal");
        let _ = std::fs::remove_file(&path);
        let meta = Json::obj([("t", Json::from("x"))]);
        let mut rj = RunJournal::open(&path, &meta).unwrap();
        rj.record("a", 1, b"aaa").unwrap();
        rj.record("b", 2, b"bbb").unwrap();
        drop(rj);
        // Tear the final record in half.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 10).unwrap();
        drop(f);
        let rj = RunJournal::open(&path, &meta).unwrap();
        assert_eq!(rj.replayed().len(), 1);
        assert_eq!(rj.replayed()[0].label, "a");
        assert!(rj.truncated() > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn run_journal_restarts_when_even_meta_was_torn() {
        let path = tmp("run-meta-torn.journal");
        let _ = std::fs::remove_file(&path);
        let meta = Json::obj([("t", Json::from("y"))]);
        drop(RunJournal::open(&path, &meta).unwrap());
        // Truncate into the middle of the meta frame.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(JOURNAL_MAGIC.len() as u64 + 3).unwrap();
        drop(f);
        let mut rj = RunJournal::open(&path, &meta).unwrap();
        assert!(rj.replayed().is_empty());
        rj.record("a", 1, b"ok").unwrap();
        drop(rj);
        assert_eq!(RunJournal::open(&path, &meta).unwrap().replayed().len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_atomic_replaces_without_tearing() {
        let path = tmp("artifact.json");
        write_atomic(&path, b"{\"v\": 1}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"v\": 1}");
        write_atomic(&path, b"{\"v\": 2, \"longer\": true}").unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"{\"v\": 2, \"longer\": true}"
        );
        // No temp files left behind.
        let dir = path.parent().unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files must not survive: {leftovers:?}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_atomic_to_missing_dir_is_a_typed_error() {
        let err = write_atomic(Path::new("/nonexistent-csd/deep/artifact.json"), b"x").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("/nonexistent-csd/deep"), "{msg}");
        assert!(!err.is_out_of_space());
    }

    #[test]
    fn enospc_errors_carry_the_disk_full_hint() {
        // ENOSPC (os error 28) is the failure operators actually hit;
        // the typed error must name the path and call out the disk.
        let err = ArtifactError::new(
            "writing",
            Path::new("/runs/x.journal"),
            io::Error::from_raw_os_error(28),
        );
        assert!(err.is_out_of_space());
        let msg = err.to_string();
        assert!(msg.contains("/runs/x.journal"), "{msg}");
        assert!(msg.contains("disk full"), "{msg}");
    }
}

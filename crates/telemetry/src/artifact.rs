//! Atomic artifact writes.
//!
//! [`write_atomic`] writes through a temp file in the destination
//! directory, fsyncs it, `rename`s it over the target, and fsyncs the
//! parent directory, so a reader (or a crash) sees either the old bytes
//! or the new bytes, never a prefix. Failures come back as a typed
//! [`ArtifactError`] naming the path. Every report, summary and corpus
//! file the workspace writes goes through it.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// A filesystem failure with the path it happened on — what every
/// artifact writer reports instead of a bare `io::Error`, so `ENOSPC`
/// at 2 a.m. names the file and the disk problem rather than panicking.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("csd-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
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
            Path::new("/runs/report.json"),
            io::Error::from_raw_os_error(28),
        );
        assert!(err.is_out_of_space());
        let msg = err.to_string();
        assert!(msg.contains("/runs/report.json"), "{msg}");
        assert!(msg.contains("disk full"), "{msg}");
    }
}

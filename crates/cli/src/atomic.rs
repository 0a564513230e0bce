//! Crash-safe file writes.
//!
//! Every file the CLI produces — campaign exports, match sets, analysis
//! reports, checkpoints — goes through [`write_atomic`]: the bytes land in
//! a temporary file in the *same directory* as the destination, are
//! fsynced, and only then renamed over the target. A crash (or a failing
//! writer closure) at any point leaves either the complete old file or the
//! complete new file on disk, never a torn mix, and never clobbers the
//! previous output with a partial one.

//!
//! All of the durable steps go through a [`crate::vfs::IoBackend`], so a
//! chaos drill ([`crate::vfs::ChaosBackend`]) can inject ENOSPC, EIO,
//! torn writes, fsync failures, and rename failures at exactly these
//! points.
//! [`write_atomic`] uses the real filesystem; [`write_atomic_via`] takes
//! an explicit backend.

use crate::vfs::IoBackend;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes temp files of concurrent writers in the same directory.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

fn tmp_path_for(path: &Path) -> PathBuf {
    let stem = path.file_name().and_then(|n| n.to_str()).unwrap_or("out");
    let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    path.with_file_name(format!(".{stem}.tmp-{}-{n}", std::process::id()))
}

/// Atomically replace `path` with `bytes`.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_atomic_with(path, |f| f.write_all(bytes))
}

/// [`write_atomic`] with every durable step (write, fsync, rename,
/// parent-directory fsync) routed through `io`. The temp file is created
/// and cleaned up on the real filesystem — creation faults are not part
/// of the chaos surface; what happens to the *bytes* is.
///
/// Fault behaviour: a failed write/fsync/rename removes the temp file
/// and leaves the previous contents of `path` untouched. A *torn* write
/// (which reports success — the lying-disk fault) is published like any
/// other: that is precisely the damage checksummed frames and
/// `dmsa verify` exist to catch downstream.
pub fn write_atomic_via(io: &dyn IoBackend, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path_for(path);
    let result = (|| {
        let mut f = OpenOptions::new().write(true).create_new(true).open(&tmp)?;
        io.write_all(&mut f, path, bytes)?;
        io.sync(&f, path)?;
        drop(f);
        io.rename(&tmp, path)?;
        // Best-effort: directory fsync failure cannot un-publish the
        // rename, so it degrades to "durable at the next sync" instead
        // of failing a write that already happened.
        if let Some(dir) = parent_dir(path) {
            let _ = io.sync_dir(dir);
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// The directory to fsync after publishing into it (`.` for bare names).
fn parent_dir(path: &Path) -> Option<&Path> {
    let dir = path.parent()?;
    Some(if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    })
}

/// Atomically replace `path` with whatever `fill` writes. If `fill` (or
/// any later step) fails, the temp file is removed and the previous
/// contents of `path` are left untouched.
pub fn write_atomic_with(
    path: &Path,
    fill: impl FnOnce(&mut File) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = tmp_path_for(path);
    let result = (|| {
        let mut f = OpenOptions::new().write(true).create_new(true).open(&tmp)?;
        fill(&mut f)?;
        // Data must be durable before the rename publishes it: rename is
        // atomic in the namespace, not on the file's blocks.
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)?;
        // Make the rename itself durable. Directory fsync is best-effort:
        // not every filesystem lets you open a directory for sync.
        if let Some(dir) = path.parent() {
            let dir = if dir.as_os_str().is_empty() {
                Path::new(".")
            } else {
                dir
            };
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{ChaosBackend, ChaosProfile};

    #[test]
    fn chaos_enospc_leaves_previous_file_and_no_litter() {
        let dir = std::env::temp_dir().join(format!("dmsa-atomic-chaos-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        write_atomic(&path, b"{\"good\":true}").unwrap();

        let io = ChaosBackend::new(ChaosProfile {
            seed: 1,
            p_enospc: 1.0,
            ..ChaosProfile::default()
        });
        let err = write_atomic_via(&io, &path, b"{\"new\":true}").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // Old contents intact, torn temp removed.
        assert_eq!(fs::read(&path).unwrap(), b"{\"good\":true}");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "temp litter");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_torn_write_publishes_a_detectably_short_file() {
        let dir = std::env::temp_dir().join(format!("dmsa-atomic-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.bin");
        let io = ChaosBackend::new(ChaosProfile {
            seed: 2,
            p_torn: 1.0,
            ..ChaosProfile::default()
        });
        let payload = vec![7u8; 4096];
        // The lying disk reports success...
        write_atomic_via(&io, &path, &payload).unwrap();
        // ...and the published file is short — torn damage that only a
        // checksum (checkpoint frames, `dmsa verify`) catches later.
        let on_disk = fs::read(&path).unwrap();
        assert!(on_disk.len() < payload.len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_then_overwrite() {
        let dir = std::env::temp_dir().join(format!("dmsa-atomic-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.txt");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second, longer").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second, longer");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_write_leaves_previous_file_intact() {
        let dir = std::env::temp_dir().join(format!("dmsa-atomic-fail-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        write_atomic(&path, b"{\"good\":true}").unwrap();

        // Simulate dying mid-write: the writer emits half the payload and
        // then fails, as a process crash or full disk would.
        let err = write_atomic_with(&path, |f| {
            f.write_all(b"{\"partial\":")?;
            Err(io::Error::other("simulated crash mid-write"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "simulated crash mid-write");

        // The previous file is byte-identical, and no temp litter remains.
        assert_eq!(fs::read(&path).unwrap(), b"{\"good\":true}");
        let leftovers: Vec<_> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap()).collect();
        assert_eq!(leftovers.len(), 1, "temp file leaked: {leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }
}

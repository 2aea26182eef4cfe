//! Unique, self-deleting temporary paths.
//!
//! Tests, benches and experiments that write store files or trace
//! directories need a scratch path no other writer touches. Keying the
//! name on the process id alone is not enough: the default test runner
//! runs the tests of one binary on several threads of *one* process, so
//! two tests asking for `"<tag>_<pid>"` get the same file and one deletes
//! it while the other reads it. [`TempPath`] adds a process-wide atomic
//! counter to the pid, so every value names a fresh path, and removes
//! whatever was created there when it is dropped.
//!
//! ```
//! use chaff_core::temp::TempPath;
//!
//! let a = TempPath::new("demo");
//! let b = TempPath::new("demo");
//! assert_ne!(a.path(), b.path());
//! std::fs::write(&a, b"scratch").unwrap();
//! let kept = a.path().to_path_buf();
//! drop(a);
//! assert!(!kept.exists());
//! ```

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-process sequence number appended to every [`TempPath`].
static NEXT: AtomicU64 = AtomicU64::new(0);

/// A unique path under [`std::env::temp_dir`]:
/// `chaff_<tag>_<pid>_<sequence>`. Nothing is created up front; callers
/// write a file there or create a directory. On drop the file, or the
/// directory with everything in it, is removed; a path that was never
/// created is fine.
#[derive(Debug)]
pub struct TempPath {
    path: PathBuf,
}

impl TempPath {
    /// Reserves a fresh path whose name starts with `chaff_<tag>_`. No
    /// two values made in one process share a path, and the pid keeps
    /// concurrent processes apart.
    pub fn new(tag: &str) -> Self {
        // Relaxed: the counter only has to hand out distinct values; it
        // publishes no other data.
        let sequence = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("chaff_{tag}_{}_{sequence}", std::process::id());
        TempPath {
            path: std::env::temp_dir().join(name),
        }
    }

    /// The reserved path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Deref for TempPath {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        // Best effort: the path may never have been created, or the
        // owner may already have removed it.
        if self.path.is_dir() {
            let _ = std::fs::remove_dir_all(&self.path);
        } else {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_are_unique_across_threads() {
        let paths: Vec<PathBuf> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| TempPath::new("unique").path().to_path_buf()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut sorted = paths.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), paths.len());
    }

    #[test]
    fn drop_removes_files_and_directories() {
        let file = TempPath::new("file");
        std::fs::write(&file, b"x").unwrap();
        let file_path = file.path().to_path_buf();
        drop(file);
        assert!(!file_path.exists());

        let dir = TempPath::new("dir");
        std::fs::create_dir_all(dir.join("nested")).unwrap();
        std::fs::write(dir.join("nested/a.txt"), b"x").unwrap();
        let dir_path = dir.path().to_path_buf();
        drop(dir);
        assert!(!dir_path.exists());

        // Never created: dropping is a no-op, not a panic.
        drop(TempPath::new("unused"));
    }
}

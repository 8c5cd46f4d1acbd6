//! Where the journal's bytes live: an object-safe segment-storage trait
//! with a directory-of-files implementation for deployment and a shared
//! in-memory implementation for tests and benchmarks.
//!
//! A backend is a growable sequence of append-only byte blobs
//! ("segments"), indexed densely from 0. All policy — record framing,
//! rotation thresholds, checkpoint cadence — lives above, in
//! [`CommitLog`](crate::CommitLog); a backend only appends and reads
//! bytes. Backends are `Send + Sync` and take `&self` everywhere so one
//! writer (the engine's commit path) and concurrent readers (a background
//! view build replaying the tail) can share a single instance behind an
//! `Arc`. An append is a single atomic call; a reader racing it sees
//! either the whole appended record or a clean prefix (a torn tail the
//! scanner tolerates), never interleaved garbage.

use crate::error::LogError;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Object-safe segment storage. See the [module docs](self) for the
/// contract.
///
/// Segment indices are *historical*: they keep growing monotonically even
/// after compaction removes old segments, so a follower's notion of
/// "segment 3" never silently changes meaning. The retained window is
/// `first_segment()..segments()`.
pub trait LogBackend: Send + Sync + std::fmt::Debug {
    /// One past the newest segment; valid indices are
    /// `first_segment()..segments()`.
    fn segments(&self) -> Result<u32, LogError>;

    /// The full current contents of segment `segment`.
    fn read(&self, segment: u32) -> Result<Vec<u8>, LogError>;

    /// Append `bytes` to segment `segment` in one atomic write. The index
    /// must be an existing segment or the next fresh one (which this call
    /// creates).
    fn append(&self, segment: u32, bytes: &[u8]) -> Result<(), LogError>;

    /// Current size of segment `segment`, in bytes.
    fn len(&self, segment: u32) -> Result<u64, LogError>;

    /// Index of the oldest *retained* segment (0 until something is
    /// removed by [`LogBackend::remove_below`]). The default suits
    /// backends that never compact.
    fn first_segment(&self) -> Result<u32, LogError> {
        Ok(0)
    }

    /// Drop every segment with index `< segment` — the storage half of
    /// [`CommitLog::compact`](crate::CommitLog::compact). Indices of the
    /// surviving segments do not shift. Removing already-removed (or
    /// never-existing) prefixes is a no-op. The default refuses, so a
    /// custom backend opts in explicitly rather than silently leaking.
    fn remove_below(&self, segment: u32) -> Result<(), LogError> {
        Err(LogError::Io {
            operation: "remove segments",
            segment,
            cause: "this backend does not support compaction".to_owned(),
        })
    }

    /// Flush segment `segment` to durable storage — the barrier half of
    /// group commit ([`CommitLog::set_durability`](crate::CommitLog::set_durability)).
    /// After it returns, every byte previously appended to that segment
    /// must survive power loss. Backends with no durability boundary
    /// beyond the append itself ([`MemBackend`]) keep the default no-op.
    fn sync(&self, segment: u32) -> Result<(), LogError> {
        let _ = segment;
        Ok(())
    }
}

/// What a [`MemBackend`] actually stores: the retained segments and the
/// historical index of the oldest one. Fault injection does not live here
/// — wrap any backend in a [`ChaosBackend`](crate::ChaosBackend) instead.
#[derive(Debug, Default)]
struct MemInner {
    /// Historical index of `segments[0]`; bumps on [`remove_below`]
    /// (`LogBackend::remove_below`) so retained indices never shift.
    base: u32,
    segments: Vec<Vec<u8>>,
}

/// In-memory backend for tests and benchmarks. Cloning shares the
/// underlying storage (it is the moral equivalent of reopening the same
/// directory), which is what crash tests want: keep a clone, drop the
/// engine, recover from the clone.
#[derive(Debug, Clone, Default)]
pub struct MemBackend {
    inner: Arc<Mutex<MemInner>>,
}

impl MemBackend {
    /// A fresh, empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemInner> {
        match self.inner.lock() {
            Ok(g) => g,
            // A panic while holding the lock can only leave fully-written
            // segments behind (appends are single extend calls), so the
            // data is still coherent.
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

fn mem_missing(operation: &'static str, segment: u32) -> LogError {
    LogError::Io {
        operation,
        segment,
        cause: "no such segment (never written, or compacted away)".to_owned(),
    }
}

impl LogBackend for MemBackend {
    fn segments(&self) -> Result<u32, LogError> {
        let s = self.lock();
        Ok(s.base + s.segments.len() as u32)
    }

    fn first_segment(&self) -> Result<u32, LogError> {
        Ok(self.lock().base)
    }

    fn read(&self, segment: u32) -> Result<Vec<u8>, LogError> {
        let s = self.lock();
        segment
            .checked_sub(s.base)
            .and_then(|i| s.segments.get(i as usize))
            .cloned()
            .ok_or_else(|| mem_missing("read segment", segment))
    }

    fn append(&self, segment: u32, bytes: &[u8]) -> Result<(), LogError> {
        let mut s = self.lock();
        let next = s.base + s.segments.len() as u32;
        if segment < s.base || segment > next {
            return Err(LogError::Io {
                operation: "append",
                segment,
                cause: format!(
                    "segment index outside the appendable range ({}..={next})",
                    s.base
                ),
            });
        }
        if segment == next {
            s.segments.push(bytes.to_vec());
        } else {
            let i = (segment - s.base) as usize;
            s.segments[i].extend_from_slice(bytes);
        }
        Ok(())
    }

    fn len(&self, segment: u32) -> Result<u64, LogError> {
        let s = self.lock();
        segment
            .checked_sub(s.base)
            .and_then(|i| s.segments.get(i as usize))
            .map(|seg| seg.len() as u64)
            .ok_or_else(|| mem_missing("len", segment))
    }

    fn remove_below(&self, segment: u32) -> Result<(), LogError> {
        let mut s = self.lock();
        let end = s.base + s.segments.len() as u32;
        let drop_n = segment.min(end).saturating_sub(s.base);
        s.segments.drain(..drop_n as usize);
        s.base += drop_n;
        Ok(())
    }
}

/// Directory-of-files backend: segment `i` lives in
/// `<dir>/segment-<i:05>.igclog`. Appends go through a single
/// `O_APPEND` write per record and ride the OS page cache — they survive
/// a process crash, not power loss. Durability is policy on the log:
/// [`CommitLog::set_durability`](crate::CommitLog::set_durability) drives
/// the [`LogBackend::sync`] barrier per append, per group-commit window,
/// or never.
#[derive(Debug, Clone)]
pub struct FileBackend {
    dir: PathBuf,
    /// Shared hint for [`FileBackend::segments`]: the last count this (or
    /// a cloned) handle observed. Always re-verified at the boundary, so
    /// a stale hint — another handle rotated meanwhile — self-corrects;
    /// it just turns the naive directory listing into an O(1) steady-state
    /// check instead of one `read_dir` per call (the append path asks for
    /// the count on every logged commit).
    segments_hint: Arc<std::sync::atomic::AtomicU32>,
    /// Shared hint for [`FileBackend::first_segment`], verified the same
    /// way at the other end of the retained window (compaction moves it).
    first_hint: Arc<std::sync::atomic::AtomicU32>,
}

impl FileBackend {
    /// Open (creating if needed) `dir` as a segment directory.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, LogError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| LogError::Io {
            operation: "create log directory",
            segment: 0,
            cause: format!("{}: {e}", dir.display()),
        })?;
        Ok(FileBackend {
            dir,
            segments_hint: Arc::new(std::sync::atomic::AtomicU32::new(0)),
            first_hint: Arc::new(std::sync::atomic::AtomicU32::new(0)),
        })
    }

    /// The directory this backend stores segments in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, segment: u32) -> PathBuf {
        self.dir.join(format!("segment-{segment:05}.igclog"))
    }

    fn io(operation: &'static str, segment: u32, e: std::io::Error) -> LogError {
        LogError::Io {
            operation,
            segment,
            cause: e.to_string(),
        }
    }

    /// List the retained window `(first, end)` by reading the directory —
    /// the ground truth both hints are verified against. `(0, 0)` for an
    /// empty directory.
    fn list(&self) -> Result<(u32, u32), LogError> {
        let entries = std::fs::read_dir(&self.dir).map_err(|e| LogError::Io {
            operation: "list segments",
            segment: 0,
            cause: format!("{}: {e}", self.dir.display()),
        })?;
        let mut first = u32::MAX;
        let mut end = 0u32;
        for entry in entries {
            let entry = entry.map_err(|e| Self::io("list segments", 0, e))?;
            let name = entry.file_name();
            let Some(idx) = name
                .to_str()
                .and_then(|n| n.strip_prefix("segment-"))
                .and_then(|n| n.strip_suffix(".igclog"))
                .and_then(|n| n.parse::<u32>().ok())
            else {
                continue; // unrelated file in the directory
            };
            first = first.min(idx);
            end = end.max(idx + 1);
        }
        if first == u32::MAX {
            Ok((0, 0))
        } else {
            Ok((first, end))
        }
    }
}

impl LogBackend for FileBackend {
    fn segments(&self) -> Result<u32, LogError> {
        use std::sync::atomic::Ordering;
        // Segment files are created densely (compaction only removes a
        // prefix), so the end index `n` is characterized by
        // `exists(n-1) && !exists(n)`. Start from the shared hint and
        // verify that boundary — O(1) in the steady state, falling back
        // to a full directory listing only when the hint is invalid
        // (fresh handle, or segments vanished underneath us).
        let mut n = self.segments_hint.load(Ordering::Relaxed);
        if n > 0 && self.path(n - 1).exists() {
            while self.path(n).exists() {
                n += 1;
            }
        } else {
            n = self.list()?.1;
        }
        self.segments_hint.store(n, Ordering::Relaxed);
        Ok(n)
    }

    fn first_segment(&self) -> Result<u32, LogError> {
        use std::sync::atomic::Ordering;
        let hint = self.first_hint.load(Ordering::Relaxed);
        if self.path(hint).exists() && (hint == 0 || !self.path(hint - 1).exists()) {
            return Ok(hint);
        }
        let (first, _) = self.list()?;
        self.first_hint.store(first, Ordering::Relaxed);
        Ok(first)
    }

    fn read(&self, segment: u32) -> Result<Vec<u8>, LogError> {
        std::fs::read(self.path(segment)).map_err(|e| Self::io("read segment", segment, e))
    }

    fn append(&self, segment: u32, bytes: &[u8]) -> Result<(), LogError> {
        let next = self.segments()?;
        if segment > next {
            return Err(LogError::Io {
                operation: "append",
                segment,
                cause: format!("segment index past the next fresh one ({next})"),
            });
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(segment))
            .map_err(|e| Self::io("open segment", segment, e))?;
        f.write_all(bytes)
            .map_err(|e| Self::io("append", segment, e))
    }

    fn len(&self, segment: u32) -> Result<u64, LogError> {
        std::fs::metadata(self.path(segment))
            .map(|m| m.len())
            .map_err(|e| Self::io("len", segment, e))
    }

    fn remove_below(&self, segment: u32) -> Result<(), LogError> {
        use std::sync::atomic::Ordering;
        let first = self.first_segment()?;
        let end = self.segments()?;
        let target = segment.min(end);
        for seg in first..target {
            match std::fs::remove_file(self.path(seg)) {
                Ok(()) => {}
                // Already gone (a concurrent or earlier removal): the goal
                // state is reached either way.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(Self::io("remove segment", seg, e)),
            }
        }
        self.first_hint.store(target.max(first), Ordering::Relaxed);
        Ok(())
    }

    fn sync(&self, segment: u32) -> Result<(), LogError> {
        // One open + sync_data per *barrier*, not per append — the whole
        // point of group commit. A missing file means the segment was
        // compacted away between the append and the barrier (only possible
        // for non-tail segments whose bytes a checkpoint already
        // superseded), so there is nothing left to make durable.
        match std::fs::OpenOptions::new()
            .read(true)
            .open(self.path(segment))
        {
            Ok(f) => f.sync_data().map_err(|e| Self::io("sync", segment, e)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(Self::io("sync", segment, e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(backend: &dyn LogBackend) {
        assert_eq!(backend.segments().unwrap(), 0);
        assert_eq!(backend.first_segment().unwrap(), 0);
        backend.append(0, b"hello ").unwrap();
        backend.append(0, b"world").unwrap();
        assert_eq!(backend.segments().unwrap(), 1);
        assert_eq!(backend.read(0).unwrap(), b"hello world");
        assert_eq!(backend.len(0).unwrap(), 11);
        backend.append(1, b"next").unwrap();
        assert_eq!(backend.segments().unwrap(), 2);
        assert_eq!(backend.read(1).unwrap(), b"next");
        // Appending past the next fresh index is an error, not a panic.
        assert!(backend.append(5, b"gap").is_err());
        assert!(backend.read(9).is_err());
    }

    /// The compaction half of the contract: indices are historical (they
    /// never shift), the retained window is `first_segment()..segments()`,
    /// and removed prefixes are unreadable.
    fn exercise_compaction(backend: &dyn LogBackend) {
        for i in 0..4u32 {
            backend
                .append(i, format!("segment {i}").as_bytes())
                .unwrap();
        }
        backend.remove_below(2).unwrap();
        assert_eq!(backend.first_segment().unwrap(), 2);
        assert_eq!(backend.segments().unwrap(), 4);
        assert!(backend.read(0).is_err());
        assert!(backend.read(1).is_err());
        assert_eq!(backend.read(2).unwrap(), b"segment 2");
        assert_eq!(backend.read(3).unwrap(), b"segment 3");
        // Surviving segments keep appending under their historical index,
        // and new segments keep the dense numbering going.
        backend.append(3, b"!").unwrap();
        assert_eq!(backend.read(3).unwrap(), b"segment 3!");
        backend.append(4, b"segment 4").unwrap();
        assert_eq!(backend.segments().unwrap(), 5);
        // Re-removing an already-removed prefix is a no-op.
        backend.remove_below(2).unwrap();
        assert_eq!(backend.first_segment().unwrap(), 2);
    }

    #[test]
    fn mem_backend_contract() {
        let b = MemBackend::new();
        exercise(&b);
        // Clones share storage.
        let clone = b.clone();
        assert_eq!(clone.read(0).unwrap(), b"hello world");
        clone.append(1, b"!").unwrap();
        assert_eq!(b.read(1).unwrap(), b"next!");
    }

    #[test]
    fn mem_backend_compaction_contract() {
        exercise_compaction(&MemBackend::new());
    }

    // A quiet ChaosBackend is a backend like any other: it must satisfy
    // the same contract it forwards, compaction included.
    #[test]
    fn chaos_backend_contract() {
        use crate::chaos::ChaosBackend;
        exercise(&ChaosBackend::new(Arc::new(MemBackend::new())));
    }

    #[test]
    fn chaos_backend_compaction_contract() {
        use crate::chaos::ChaosBackend;
        exercise_compaction(&ChaosBackend::new(Arc::new(MemBackend::new())));
    }

    #[test]
    fn file_backend_contract() {
        let dir = std::env::temp_dir().join(format!(
            "igc_log_backend_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let b = FileBackend::new(&dir).unwrap();
        exercise(&b);
        // Reopening the same directory sees the same bytes.
        let reopened = FileBackend::new(&dir).unwrap();
        assert_eq!(reopened.segments().unwrap(), 2);
        assert_eq!(reopened.read(0).unwrap(), b"hello world");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_backend_compaction_contract() {
        let dir = std::env::temp_dir().join(format!(
            "igc_log_backend_compact_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let b = FileBackend::new(&dir).unwrap();
        exercise_compaction(&b);
        // A *fresh* handle (hints at zero) sees the compacted window too —
        // the cross-process attach path of a late-joining replica.
        let reopened = FileBackend::new(&dir).unwrap();
        assert_eq!(reopened.first_segment().unwrap(), 2);
        assert_eq!(reopened.segments().unwrap(), 5);
        assert_eq!(reopened.read(2).unwrap(), b"segment 2");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_below_default_refuses() {
        /// A minimal backend that keeps the trait defaults.
        #[derive(Debug)]
        struct Plain;
        impl LogBackend for Plain {
            fn segments(&self) -> Result<u32, LogError> {
                Ok(0)
            }
            fn read(&self, segment: u32) -> Result<Vec<u8>, LogError> {
                Err(mem_missing("read segment", segment))
            }
            fn append(&self, _segment: u32, _bytes: &[u8]) -> Result<(), LogError> {
                Ok(())
            }
            fn len(&self, _segment: u32) -> Result<u64, LogError> {
                Ok(0)
            }
        }
        assert_eq!(Plain.first_segment().unwrap(), 0);
        assert!(matches!(
            Plain.remove_below(3).unwrap_err(),
            LogError::Io {
                operation: "remove segments",
                segment: 3,
                ..
            }
        ));
    }
}

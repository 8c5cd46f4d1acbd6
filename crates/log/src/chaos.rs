//! Fault injection for the journal: [`ChaosBackend`] wraps any
//! [`LogBackend`] and fires one-shot faults armed at runtime — a torn
//! append ([`ChaosBackend::fail_next_append`]), a failed read
//! ([`ChaosBackend::fail_next_read`]) or a failed sync
//! ([`ChaosBackend::fail_next_sync`]) — plus read-side overlays
//! ([`ChaosBackend::corrupt_byte`], [`ChaosBackend::truncate_segment`]).
//!
//! One-shots are the one fault mechanism, and the wrapper keeps no
//! schedule: whoever arms a fault decides when it fires. The seeded
//! simulation in `tests/engine_consistency.rs` is the one scheduler — its
//! seed decides which faults are armed before which call, so a fault
//! history reproduces from its seed.
//!
//! Fault semantics mirror what real storage does:
//!
//! * **Torn append** — the first `keep` bytes land, then the call reports
//!   failure: the shape a mid-write `ENOSPC` or power cut leaves behind
//!   (`keep == 0` stores nothing). The write was never acknowledged; a
//!   correct writer rotates past the garbage (see `CommitLog`'s forced
//!   rotation).
//! * **Failed read or sync** — the call reports an I/O error: a transient
//!   failure that surfaces the first time it happens; the next call goes
//!   through.
//! * **Corrupt byte** — every later read sees a stored byte XORed with a
//!   mask: silent corruption of an acknowledged record, which the
//!   CRC-sealed record format must detect at read time (detection, not
//!   survival, is the contract).
//!
//! ```
//! use igc_log::{ChaosBackend, CommitLog, MemBackend};
//! use igc_graph::graph::graph_from;
//! use std::sync::Arc;
//!
//! let chaos = ChaosBackend::new(Arc::new(MemBackend::new()));
//! let mut log = CommitLog::create(Arc::new(chaos.clone())).unwrap();
//! let g = graph_from(&[0, 0], &[]);
//! log.append_checkpoint(&g).unwrap(); // clean
//! // Tear the next two appends before their first byte, then heal.
//! chaos.fail_next_append(0);
//! chaos.fail_next_append(0);
//! assert!(log.append_checkpoint(&g).is_err());
//! assert!(log.append_checkpoint(&g).is_err());
//! log.append_checkpoint(&g).unwrap(); // the one-shots are spent
//! assert_eq!(chaos.stats().append_faults, 2);
//! ```

use crate::backend::LogBackend;
use crate::error::LogError;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// What a [`ChaosBackend`] observed and injected so far — the raw series
/// behind chaos-drill reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Total append calls (faulted included).
    pub appends: u64,
    /// Total read calls (faulted included).
    pub reads: u64,
    /// Total sync calls (faulted included).
    pub syncs: u64,
    /// Appends torn by an injected fault.
    pub append_faults: u64,
    /// Reads that suffered an injected failure.
    pub read_faults: u64,
    /// Syncs that suffered an injected failure.
    pub sync_faults: u64,
}

/// A read-side mutation of stored bytes, emulating what the old
/// `MemBackend` hooks did by mutating storage directly — but over *any*
/// inner backend.
#[derive(Debug, Clone, Copy)]
enum Overlay {
    /// XOR `mask` into the byte at `offset` of `segment` on every read.
    Corrupt { segment: u32, offset: u64, mask: u8 },
    /// Splice `removed` bytes out at `from` — the tail chop a crash
    /// leaves. Bytes appended later still show up after the cut.
    Truncate {
        segment: u32,
        from: u64,
        removed: u64,
    },
}

#[derive(Debug, Default)]
struct ChaosState {
    /// Armed one-shots, each fired by the next call of its kind: the
    /// `keep` of each torn append (oldest first), and the count of failed
    /// reads and of failed syncs.
    torn: VecDeque<usize>,
    failed_reads: u64,
    failed_syncs: u64,
    overlays: Vec<Overlay>,
    stats: ChaosStats,
}

impl ChaosState {
    /// Count one read (or, with `sync`, sync) call: fire, and count, an
    /// armed one-shot.
    fn fire(&mut self, sync: bool) -> bool {
        let s = &mut self.stats;
        let (calls, armed, faults) = match sync {
            false => (&mut s.reads, &mut self.failed_reads, &mut s.read_faults),
            true => (&mut s.syncs, &mut self.failed_syncs, &mut s.sync_faults),
        };
        *calls += 1;
        let fired = *armed > 0;
        if fired {
            *armed -= 1;
            *faults += 1;
        }
        fired
    }
}

/// A [`LogBackend`] wrapper that fires its armed one-shot faults and
/// overlays and passes everything else through to the wrapped backend.
/// Cloning shares the armed faults and counters — exactly like reopening
/// the same flaky device.
#[derive(Debug, Clone)]
pub struct ChaosBackend {
    inner: Arc<dyn LogBackend>,
    state: Arc<Mutex<ChaosState>>,
}

impl ChaosBackend {
    /// Wrap `inner`; every call passes through until a fault is armed.
    pub fn new(inner: Arc<dyn LogBackend>) -> Self {
        ChaosBackend {
            inner,
            state: Arc::default(),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> Arc<dyn LogBackend> {
        self.inner.clone()
    }

    /// Counters so far (calls, injected faults).
    pub fn stats(&self) -> ChaosStats {
        self.lock().stats
    }

    /// Arm a one-shot torn append: the next append stores only its first
    /// `keep` bytes and then reports failure. One-shots stack (FIFO).
    pub fn fail_next_append(&self, keep: usize) {
        self.lock().torn.push_back(keep);
    }

    /// Arm a one-shot read failure (they stack).
    pub fn fail_next_read(&self) {
        self.lock().failed_reads += 1;
    }

    /// Arm a one-shot sync failure (they stack).
    pub fn fail_next_sync(&self) {
        self.lock().failed_syncs += 1;
    }

    /// Flip one stored bit as seen by every later read — the corruption
    /// injector tests use to assert detection ([`LogError::Corrupt`]).
    pub fn corrupt_byte(&self, segment: u32, offset: u64, mask: u8) {
        self.lock().overlays.push(Overlay::Corrupt {
            segment,
            offset,
            mask,
        });
    }

    /// Chop `segment` down to `keep` bytes as seen by every later read —
    /// the tail a crash mid-append leaves behind. Bytes appended *after*
    /// the chop still read back (after the cut), matching a real
    /// truncate-then-append history.
    pub fn truncate_segment(&self, segment: u32, keep: u64) {
        let len = self.inner.len(segment).unwrap_or(0);
        let visible = self.visible_len(segment, len);
        let removed = visible.saturating_sub(keep);
        if removed == 0 {
            return;
        }
        self.lock().overlays.push(Overlay::Truncate {
            segment,
            from: keep,
            removed,
        });
    }

    /// Apply this backend's overlays to raw bytes of `segment`.
    fn overlay_bytes(&self, segment: u32, mut bytes: Vec<u8>) -> Vec<u8> {
        for o in self.lock().overlays.iter() {
            match *o {
                Overlay::Corrupt {
                    segment: s,
                    offset,
                    mask,
                } if s == segment => {
                    if let Some(b) = bytes.get_mut(offset as usize) {
                        *b ^= mask;
                    }
                }
                Overlay::Truncate {
                    segment: s,
                    from,
                    removed,
                } if s == segment => {
                    let from = (from as usize).min(bytes.len());
                    let end = (from + removed as usize).min(bytes.len());
                    bytes.drain(from..end);
                }
                _ => {}
            }
        }
        bytes
    }

    /// The post-overlay length of `segment`, given its raw length.
    fn visible_len(&self, segment: u32, raw: u64) -> u64 {
        let mut len = raw;
        for o in self.lock().overlays.iter() {
            if let Overlay::Truncate {
                segment: s,
                from,
                removed,
            } = *o
            {
                if s == segment {
                    let end = (from + removed).min(len);
                    len -= end.saturating_sub(from);
                }
            }
        }
        len
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ChaosState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn injected(op: &'static str, segment: u32) -> LogError {
        LogError::Io {
            operation: op,
            segment,
            cause: "chaos: injected failure".to_owned(),
        }
    }
}

impl LogBackend for ChaosBackend {
    fn segments(&self) -> Result<u32, LogError> {
        self.inner.segments()
    }

    fn first_segment(&self) -> Result<u32, LogError> {
        self.inner.first_segment()
    }

    fn read(&self, segment: u32) -> Result<Vec<u8>, LogError> {
        if self.lock().fire(false) {
            return Err(Self::injected("read segment", segment));
        }
        Ok(self.overlay_bytes(segment, self.inner.read(segment)?))
    }

    fn append(&self, segment: u32, bytes: &[u8]) -> Result<(), LogError> {
        let torn = {
            let mut s = self.lock();
            s.stats.appends += 1;
            let keep = s.torn.pop_front();
            s.stats.append_faults += u64::from(keep.is_some());
            keep
        };
        let Some(keep) = torn else {
            return self.inner.append(segment, bytes);
        };
        // The partial bytes land (as on a real device), but the write is
        // never acknowledged.
        self.inner
            .append(segment, &bytes[..keep.min(bytes.len())])?;
        Err(LogError::Io {
            operation: "append",
            segment,
            cause: "chaos: injected mid-write failure".to_owned(),
        })
    }

    fn len(&self, segment: u32) -> Result<u64, LogError> {
        Ok(self.visible_len(segment, self.inner.len(segment)?))
    }

    fn remove_below(&self, segment: u32) -> Result<(), LogError> {
        self.inner.remove_below(segment)
    }

    fn sync(&self, segment: u32) -> Result<(), LogError> {
        if self.lock().fire(true) {
            return Err(Self::injected("sync", segment));
        }
        self.inner.sync(segment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn chaos() -> (MemBackend, ChaosBackend) {
        let mem = MemBackend::new();
        (mem.clone(), ChaosBackend::new(Arc::new(mem)))
    }

    #[test]
    fn clean_plan_is_a_transparent_wrapper() {
        let (_, b) = chaos();
        b.append(0, b"hello ").unwrap();
        b.append(0, b"world").unwrap();
        assert_eq!(b.read(0).unwrap(), b"hello world");
        assert_eq!(b.len(0).unwrap(), 11);
        b.sync(0).unwrap();
        let s = b.stats();
        assert_eq!((s.appends, s.reads, s.syncs), (2, 1, 1));
        assert_eq!((s.append_faults, s.read_faults, s.sync_faults), (0, 0, 0));
    }

    #[test]
    fn torn_append_stores_a_prefix_and_reports_failure() {
        let (mem, b) = chaos();
        b.append(0, b"committed").unwrap();
        b.fail_next_append(3);
        let err = b.append(0, b"DOOMED").unwrap_err();
        assert!(matches!(
            err,
            LogError::Io {
                operation: "append",
                ..
            }
        ));
        // The partial bytes are there (as on a real device), but the
        // write was never acknowledged.
        assert_eq!(mem.read(0).unwrap(), b"committedDOO");
        // The one-shot is spent: the retry goes through.
        b.append(1, b"retried").unwrap();
        assert_eq!(b.read(1).unwrap(), b"retried");
        assert_eq!(b.stats().append_faults, 1);
    }

    #[test]
    fn read_overlays_replace_the_old_mem_backend_hooks() {
        let (mem, b) = chaos();
        b.append(0, b"0123456789").unwrap();
        // Corrupt: reads see the flip; the store is untouched.
        b.corrupt_byte(0, 4, 0xFF);
        assert_eq!(b.read(0).unwrap()[4], b'4' ^ 0xFF);
        assert_eq!(mem.read(0).unwrap()[4], b'4');
        // Truncate: reads and len see the chop; later appends land after it.
        b.truncate_segment(0, 8);
        assert_eq!(b.len(0).unwrap(), 8);
        b.append(0, b"XY").unwrap();
        let back = b.read(0).unwrap();
        assert_eq!(back.len(), 10);
        assert_eq!(&back[8..], b"XY");
    }

    #[test]
    fn one_shot_read_and_sync_failures() {
        let (_, b) = chaos();
        b.append(0, b"x").unwrap();
        b.fail_next_read();
        assert!(b.read(0).is_err());
        assert_eq!(b.read(0).unwrap(), b"x");
        b.fail_next_sync();
        assert!(b.sync(0).is_err());
        b.sync(0).unwrap();
    }

    #[test]
    fn clones_share_the_schedule() {
        let (_, b) = chaos();
        let clone = b.clone();
        b.append(0, b"a").unwrap();
        clone.fail_next_append(0); // armed through the clone…
        assert!(b.append(0, b"b").is_err(), "…fires on the original");
        assert_eq!(clone.stats().append_faults, 1);
    }
}

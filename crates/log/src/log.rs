//! The append path: [`CommitLog`] frames records, rotates segments, and
//! enforces the epoch chain (`checkpoint e₀, delta e₀+1, delta e₀+2, …`)
//! so that anything it accepts is replayable by construction.

use crate::backend::LogBackend;
use crate::error::LogError;
use crate::record::{
    check_segment_header, read_frame, segment_header, RawFrame, RawFramed, Record,
    SEGMENT_HEADER_BYTES,
};
use igc_graph::{DynamicGraph, UpdateBatch};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Default segment-rotation threshold: a new segment starts once the tail
/// segment reaches this size.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 << 20;

/// When appended records are flushed to durable storage
/// ([`CommitLog::set_durability`]). The policy drives
/// [`LogBackend::sync`] barriers; on backends with no durability boundary
/// ([`MemBackend`](crate::MemBackend)) every mode degenerates to `None`.
///
/// | mode | fsyncs | survives power loss | typical use |
/// |------|--------|--------------------:|-------------|
/// | `None` | never | no (page cache) | tests, replay targets |
/// | `GroupCommit` | one per window | after the window's barrier | high-throughput ingest |
/// | `EveryAppend` | one per record | every acknowledged record | strict durability |
///
/// `GroupCommit { max_batch, max_delay }` issues one barrier covering
/// every record appended since the previous barrier, as soon as either
/// `max_batch` unsynced appends accumulate or the oldest unsynced append
/// is `max_delay` old — the classic group-commit window. Call
/// [`CommitLog::sync`] to force an early barrier (e.g. before handing a
/// durability guarantee to a client, or at shutdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// Never issue barriers: appended records ride the OS page cache
    /// (they survive a process crash, not power loss). The default, and
    /// byte-for-byte the pre-[`DurabilityMode`] behavior.
    #[default]
    None,
    /// Batch barriers: one [`LogBackend::sync`] per window covering every
    /// record appended since the last one.
    GroupCommit {
        /// Barrier after this many unsynced appends (clamped to ≥ 1).
        max_batch: u64,
        /// …or once the oldest unsynced append is this old, whichever
        /// comes first (checked at append time; quiet periods flush via
        /// [`CommitLog::sync`]).
        max_delay: Duration,
    },
    /// Barrier after every append — maximal durability, one fsync per
    /// record.
    EveryAppend,
}

/// Everything one full scan of a backend learns. Records come back as
/// CRC-verified but **undecoded** [`RawFrame`]s — callers decode only
/// what they need (the chosen replay base, the tail deltas past a
/// consumer's epoch), so a scan over a long history with many bulky
/// checkpoint snapshots stays cheap. Shared by [`CommitLog::open`] and
/// the [`Replayer`](crate::Replayer).
#[derive(Debug)]
pub(crate) struct Scan {
    /// Every complete frame, in log order.
    pub records: Vec<RawFrame>,
    /// Torn (incomplete) tails skipped — at most one per segment that was
    /// once the tail when a crash (or a failed append) hit mid-record.
    /// Never an error: a torn record was never acknowledged, so no
    /// committed data lives in it.
    pub torn_tails: u32,
    /// Total bytes scanned.
    pub bytes: u64,
    /// Retained segments scanned (`segments() - first_segment()`).
    pub segments: u32,
}

/// Scan and validate every segment of a backend.
///
/// Structural failures (bad header, checksum mismatch) are
/// [`LogError::Corrupt`]; chain violations (a delta whose epoch is not
/// predecessor + 1, a checkpoint stamped off-chain, a delta before any
/// checkpoint) are [`LogError::EpochGap`] / [`LogError::Corrupt`].
/// Incomplete bytes at the *end* of a segment are a torn tail and are
/// skipped — the shape a crash mid-append leaves behind. Record
/// *payloads* are not decoded here; a CRC-valid but structurally bad
/// payload surfaces as `Corrupt` at its deferred decode in replay.
pub(crate) fn scan(backend: &dyn LogBackend) -> Result<Scan, LogError> {
    let first = backend.first_segment()?;
    let segments = backend.segments()?;
    let mut records: Vec<RawFrame> = Vec::new();
    let mut torn_tails = 0u32;
    let mut bytes = 0u64;
    let mut last_epoch: Option<u64> = None;
    for seg in first..segments {
        let buf = backend.read(seg)?;
        bytes += buf.len() as u64;
        if buf.len() < SEGMENT_HEADER_BYTES {
            // A crash between creating the segment and completing its
            // header write: nothing committed lives here.
            torn_tails += 1;
            continue;
        }
        let mut pos = check_segment_header(&buf).map_err(|reason| LogError::Corrupt {
            segment: seg,
            offset: 0,
            reason,
        })?;
        while pos < buf.len() {
            match read_frame(&buf, pos, seg).map_err(|reason| LogError::Corrupt {
                segment: seg,
                offset: pos as u64,
                reason,
            })? {
                RawFramed::Torn => {
                    torn_tails += 1;
                    break; // skip the rest of this segment
                }
                RawFramed::Complete(frame, end) => {
                    match (frame.is_checkpoint, last_epoch) {
                        (false, None) => {
                            return Err(LogError::Corrupt {
                                segment: seg,
                                offset: pos as u64,
                                reason: format!(
                                    "delta record (epoch {}) before any checkpoint",
                                    frame.epoch
                                ),
                            });
                        }
                        (false, Some(last)) => {
                            if frame.epoch != last + 1 {
                                return Err(LogError::EpochGap {
                                    expected: last + 1,
                                    found: frame.epoch,
                                });
                            }
                            last_epoch = Some(frame.epoch);
                        }
                        (true, Some(last)) if frame.epoch != last => {
                            return Err(LogError::Corrupt {
                                segment: seg,
                                offset: pos as u64,
                                reason: format!(
                                    "checkpoint stamped epoch {} off the chain \
                                     (current epoch {last})",
                                    frame.epoch
                                ),
                            });
                        }
                        (true, _) => {
                            last_epoch = Some(frame.epoch);
                        }
                    }
                    records.push(frame);
                    pos = end;
                }
            }
        }
    }
    Ok(Scan {
        records,
        torn_tails,
        bytes,
        segments: segments - first,
    })
}

/// A follower's claim on log history: as long as the pin is alive,
/// [`CommitLog::compact`] never drops the segments a consumer at
/// `frontier()` still needs to catch up. Obtained from
/// [`CommitLog::register_pin`]; advanced (lock-free, from any thread)
/// after each successful catch-up round; *dropping* every clone of the
/// pin releases the claim automatically — an abandoned follower cannot
/// hold the journal hostage.
#[derive(Debug, Clone)]
pub struct RetentionPin {
    frontier: Arc<AtomicU64>,
}

impl RetentionPin {
    /// The pinned frontier: the highest epoch this follower has fully
    /// consumed. Compaction retains every delta past it.
    pub fn frontier(&self) -> u64 {
        self.frontier.load(Ordering::Acquire)
    }

    /// Raise the pinned frontier to `epoch` (monotonic — a lower value is
    /// ignored, so racing advancers cannot move the pin backwards).
    pub fn advance(&self, epoch: u64) {
        self.frontier.fetch_max(epoch, Ordering::AcqRel);
    }
}

/// What one [`CommitLog::compact`] call did — the observability record
/// behind journal-size reporting and the compaction drill in CI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Compaction {
    /// Whole segments dropped (0 = nothing was safely droppable).
    pub dropped_segments: u32,
    /// Bytes those segments held.
    pub dropped_bytes: u64,
    /// Segments still retained after the call.
    pub retained_segments: u32,
    /// Epoch of the checkpoint the retained log now starts with — the
    /// seed base of any replica attaching after this compaction.
    pub base_epoch: u64,
    /// The slowest live pin's frontier at decision time (`None` = no live
    /// pins; compaction was bounded only by the newest checkpoint).
    pub pinned_frontier: Option<u64>,
}

/// Append-side view of a journal: validates the epoch chain, frames
/// records, rotates segments, and tracks what a later replay will find.
///
/// The write protocol is strict by construction:
/// * the first record must be a checkpoint (the replay base) —
///   [`CommitLog::append_delta`] before one is [`LogError::NoCheckpoint`];
/// * every delta must carry exactly `last epoch + 1`
///   ([`LogError::EpochGap`] otherwise);
/// * every checkpoint must be stamped with the current chain epoch.
///
/// Reads happen through a [`Replayer`](crate::Replayer) sharing the same
/// backend (see [`CommitLog::replayer`]) — safe concurrently with appends,
/// because each append is one atomic backend call.
#[derive(Debug)]
pub struct CommitLog {
    backend: Arc<dyn LogBackend>,
    segment_bytes: u64,
    /// Set when the scanned tail segment ended in torn bytes: the next
    /// write then starts a fresh segment instead of appending after
    /// garbage (backends have no truncate).
    force_fresh_segment: bool,
    last_epoch: Option<u64>,
    last_checkpoint: Option<u64>,
    deltas: u64,
    checkpoints: u64,
    /// Live retention pins ([`CommitLog::register_pin`]): `Weak`, so a
    /// dropped follower releases its claim without telling anyone.
    pins: Vec<Weak<AtomicU64>>,
    /// When appends reach durable storage (default
    /// [`DurabilityMode::None`]).
    durability: DurabilityMode,
    /// Segments appended to since the last barrier, in append order
    /// (usually one; two straddling a rotation).
    dirty: Vec<u32>,
    /// Records appended since the last barrier.
    unsynced: u64,
    /// When the oldest unsynced record was appended — the group-commit
    /// `max_delay` clock.
    first_unsynced: Option<Instant>,
    /// Barriers issued so far (for observability: fsyncs ÷ appends is the
    /// measured group-commit batching factor).
    syncs: u64,
    /// The error a failed *policy-driven* barrier left behind, while the
    /// debt is outstanding (see [`CommitLog::sync_debt`]).
    sync_debt: Option<LogError>,
}

impl CommitLog {
    /// A log positioned before any record, every policy at its default.
    fn blank(backend: Arc<dyn LogBackend>) -> Self {
        CommitLog {
            backend,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            force_fresh_segment: false,
            last_epoch: None,
            last_checkpoint: None,
            deltas: 0,
            checkpoints: 0,
            pins: Vec::new(),
            durability: DurabilityMode::None,
            dirty: Vec::new(),
            unsynced: 0,
            first_unsynced: None,
            syncs: 0,
            sync_debt: None,
        }
    }

    /// Start a brand-new log on an **empty** backend
    /// ([`LogError::NotEmpty`] otherwise — a journal never silently
    /// appends onto unrelated history).
    pub fn create(backend: Arc<dyn LogBackend>) -> Result<Self, LogError> {
        let segments = backend.segments()?;
        if segments != 0 {
            return Err(LogError::NotEmpty { segments });
        }
        Ok(Self::blank(backend))
    }

    /// Open an existing log: scan every segment, validate checksums and
    /// the epoch chain, and position the append cursor after the last
    /// complete record. A torn tail (crash mid-append) is tolerated — the
    /// next write starts a fresh segment past it. [`LogError::Empty`]
    /// when there is nothing to open.
    pub fn open(backend: Arc<dyn LogBackend>) -> Result<Self, LogError> {
        let scanned = scan(&*backend)?;
        if scanned.records.is_empty() {
            return Err(LogError::Empty);
        }
        let mut log = Self::blank(backend);
        log.force_fresh_segment = scanned.torn_tails > 0;
        for r in &scanned.records {
            if r.is_checkpoint {
                log.last_checkpoint = Some(r.epoch);
                log.checkpoints += 1;
            } else {
                log.deltas += 1;
            }
            log.last_epoch = Some(r.epoch);
        }
        Ok(log)
    }

    /// Set the segment-rotation threshold (default
    /// [`DEFAULT_SEGMENT_BYTES`]); clamped to at least 1 KiB. Tests only:
    /// rotation is otherwise exercised by checkpoints, which always rotate.
    #[cfg(test)]
    pub(crate) fn set_segment_bytes(&mut self, bytes: u64) {
        self.segment_bytes = bytes.max(1024);
    }

    /// Append a checkpoint of `g`. The first checkpoint establishes the
    /// replay base; later ones must be stamped with the current chain
    /// epoch ([`LogError::EpochGap`] otherwise).
    ///
    /// Every checkpoint **starts a fresh segment**, so each checkpoint is
    /// the first record of its segment. That alignment is what makes
    /// [`CommitLog::compact`] clean: a whole-segment prefix can be
    /// dropped and the retained log still begins with a checkpoint — the
    /// scan invariant replay relies on.
    pub fn append_checkpoint(&mut self, g: &DynamicGraph) -> Result<(), LogError> {
        if let Some(last) = self.last_epoch {
            if g.epoch() != last {
                return Err(LogError::EpochGap {
                    expected: last,
                    found: g.epoch(),
                });
            }
        }
        self.force_fresh_segment = true;
        self.write(&Record::checkpoint_of(g))?;
        self.last_epoch = Some(g.epoch());
        self.last_checkpoint = Some(g.epoch());
        self.checkpoints += 1;
        Ok(())
    }

    /// Append one committed normalized batch, stamped with its
    /// *post*-commit epoch. Must be exactly `last epoch + 1`
    /// ([`LogError::EpochGap`]), and a checkpoint must already exist
    /// ([`LogError::NoCheckpoint`]).
    pub fn append_delta(&mut self, epoch: u64, batch: &UpdateBatch) -> Result<(), LogError> {
        let Some(last) = self.last_epoch else {
            return Err(LogError::NoCheckpoint { epoch });
        };
        if epoch != last + 1 {
            return Err(LogError::EpochGap {
                expected: last + 1,
                found: epoch,
            });
        }
        self.write(&Record::Delta {
            epoch,
            batch: batch.clone(),
        })?;
        self.last_epoch = Some(epoch);
        self.deltas += 1;
        Ok(())
    }

    fn write(&mut self, record: &Record) -> Result<(), LogError> {
        let target = self.append_framed(&record.encode_framed())?;
        self.apply_durability(target)
    }

    /// Append a framed record to the tail segment (or a fresh one);
    /// returns the segment it landed in.
    fn append_framed(&mut self, framed: &[u8]) -> Result<u32, LogError> {
        let segments = self.backend.segments()?;
        let tail = match segments {
            0 => None,
            _ if self.force_fresh_segment => None,
            n => Some(self.backend.len(n - 1)?).filter(|&len| len < self.segment_bytes),
        };
        let (target, before) = tail.map_or((segments, 0), |len| (segments - 1, len));
        let result = if tail.is_none() {
            // Header and record go down in one atomic append, so a
            // concurrent reader (or a crash) never sees a headered-but-
            // empty segment with committed data pending.
            let mut bytes = segment_header().to_vec();
            bytes.extend_from_slice(framed);
            self.backend.append(target, &bytes)
        } else {
            self.backend.append(target, framed)
        };
        // A failed append that still stored every byte stored the record:
        // every scan reads it back. Count it as appended, or the next
        // record at the same epoch would chain it twice.
        let stored = before + (framed.len() + tail.map_or(SEGMENT_HEADER_BYTES, |_| 0)) as u64;
        let result = result.or_else(|e| match self.backend.len(target) {
            Ok(len) if len == stored => Ok(()),
            _ => Err(e),
        });
        // The failed append may have left *partial* bytes in the target
        // segment (write_all can die mid-way). Appending another record
        // after them would bury committed data behind garbage mid-segment
        // — unrecoverable corruption. Rotating turns the partial bytes
        // into an ordinary torn tail every scan skips, so the next append
        // lands in a fresh segment past the garbage.
        self.force_fresh_segment = result.is_err();
        result.map(|()| target)
    }

    /// Post-append durability bookkeeping: mark `segment` dirty, then
    /// barrier now ([`DurabilityMode::EveryAppend`]), barrier when the
    /// group-commit window closes, or do nothing
    /// ([`DurabilityMode::None`]).
    fn apply_durability(&mut self, segment: u32) -> Result<(), LogError> {
        if self.dirty.last() != Some(&segment) {
            self.dirty.push(segment);
        }
        self.unsynced += 1;
        if self.first_unsynced.is_none() {
            self.first_unsynced = Some(Instant::now());
        }
        let due = match self.durability {
            DurabilityMode::None => false,
            DurabilityMode::EveryAppend => true,
            DurabilityMode::GroupCommit {
                max_batch,
                max_delay,
            } => {
                self.unsynced >= max_batch.max(1)
                    || self
                        .first_unsynced
                        .is_some_and(|t| t.elapsed() >= max_delay)
            }
        };
        if due {
            // A failed policy-driven barrier must not fail the append: the
            // record is already stored and the caller will advance the
            // epoch chain, so an error here would make a correct caller
            // retry an append that *succeeded* — appending the same epoch
            // twice and corrupting the chain. The un-flushed segments stay
            // dirty (a later barrier syncs them); the failure is
            // surfaced as sync debt for the caller to observe and settle
            // ([`CommitLog::sync_debt`]).
            if let Err(e) = self.sync() {
                self.sync_debt = Some(e);
            }
        }
        Ok(())
    }

    /// The current durability policy (default [`DurabilityMode::None`]).
    pub fn durability(&self) -> DurabilityMode {
        self.durability
    }

    /// Set when appended records are flushed to durable storage. Takes
    /// effect from the next append; switching to a *stricter* mode does
    /// not retroactively flush — call [`CommitLog::sync`] after the
    /// switch if the pending window must land first.
    pub fn set_durability(&mut self, mode: DurabilityMode) {
        self.durability = mode;
    }

    /// Force a durability barrier right now: [`LogBackend::sync`] every
    /// segment appended to since the last barrier, oldest first. A no-op
    /// (and no `syncs()` increment) when nothing is pending. On failure
    /// the un-flushed segments stay pending, so a later barrier syncs
    /// them. Success settles any outstanding sync debt.
    pub fn sync(&mut self) -> Result<(), LogError> {
        if !self.dirty.is_empty() {
            self.sync_dirty()?;
            self.syncs += 1;
        }
        self.unsynced = 0;
        self.first_unsynced = None;
        self.sync_debt = None;
        Ok(())
    }

    /// One pass over the dirty segments; on failure the remainder stays
    /// pending (already-flushed segments are not re-synced by a later
    /// barrier).
    fn sync_dirty(&mut self) -> Result<(), LogError> {
        while let Some(&seg) = self.dirty.first() {
            self.backend.sync(seg)?;
            self.dirty.remove(0);
        }
        Ok(())
    }

    /// The error the last failed *policy-driven* barrier left behind,
    /// while the debt is outstanding. The appended records are stored and
    /// the epoch chain advanced — only durability lags; the dirty
    /// segments stay pending and the next successful [`CommitLog::sync`]
    /// (explicit or policy-driven) settles the debt. This is how append
    /// acknowledgement is kept separate from barrier failure: failing the
    /// append after its bytes landed would push callers into appending
    /// the same epoch twice.
    pub fn sync_debt(&self) -> Option<&LogError> {
        self.sync_debt.as_ref()
    }

    /// Durability barriers issued so far ([`CommitLog::sync`] calls that
    /// flushed something, explicit or policy-driven). `syncs() ÷
    /// appended records` is the measured group-commit batching factor.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Records appended since the last barrier (0 under
    /// [`DurabilityMode::EveryAppend`] once the append returns).
    pub fn unsynced_appends(&self) -> u64 {
        self.unsynced
    }

    /// Epoch of the last appended record, if any.
    pub fn last_epoch(&self) -> Option<u64> {
        self.last_epoch
    }

    /// Epoch of the most recent checkpoint, if any.
    pub fn last_checkpoint(&self) -> Option<u64> {
        self.last_checkpoint
    }

    /// Delta records in the log (appended plus pre-existing at open).
    pub fn deltas(&self) -> u64 {
        self.deltas
    }

    /// Checkpoint records in the log (appended plus pre-existing at open).
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Total bytes currently stored across all retained segments.
    pub fn bytes(&self) -> Result<u64, LogError> {
        let mut total = 0;
        for seg in self.backend.first_segment()?..self.backend.segments()? {
            total += self.backend.len(seg)?;
        }
        Ok(total)
    }

    /// Register a follower's retention pin at `frontier` (the highest
    /// epoch that follower has already consumed; a brand-new follower
    /// pins the checkpoint it will seed from). While any clone of the
    /// returned pin is alive, [`CommitLog::compact`] keeps every segment
    /// a consumer at the pinned frontier still needs; dropping the pin
    /// releases the claim. Dead pins are pruned opportunistically, so the
    /// registry stays bounded by the number of *live* followers.
    pub fn register_pin(&mut self, frontier: u64) -> RetentionPin {
        let pin = Arc::new(AtomicU64::new(frontier));
        self.pins.retain(|w| w.strong_count() > 0);
        self.pins.push(Arc::downgrade(&pin));
        RetentionPin { frontier: pin }
    }

    /// The slowest live pin's frontier, if any follower is registered —
    /// the epoch compaction must keep reachable.
    pub fn pinned_frontier(&self) -> Option<u64> {
        self.pins
            .iter()
            .filter_map(|w| w.upgrade())
            .map(|p| p.load(Ordering::Acquire))
            .min()
    }

    /// Drop every whole segment the log no longer needs: segments wholly
    /// behind the newest *segment-leading* checkpoint whose epoch is at
    /// or below the slowest live [`RetentionPin`] (no pins → behind the
    /// newest checkpoint outright). The retained log still starts with a
    /// checkpoint, so replay, recovery and fresh replica seeding work
    /// unchanged; every delta past the pinned frontier survives, so no
    /// live follower's catch-up is ever cut off.
    ///
    /// Returns what was dropped and what was retained; a call that finds
    /// nothing safely droppable is a successful no-op with
    /// `dropped_segments == 0`. [`LogError::Empty`] on a log with no
    /// records.
    pub fn compact(&mut self) -> Result<Compaction, LogError> {
        let scanned = scan(&*self.backend)?;
        if scanned.records.is_empty() {
            return Err(LogError::Empty);
        }
        let pinned = self.pinned_frontier();
        self.pins.retain(|w| w.strong_count() > 0);
        let horizon = pinned.unwrap_or(u64::MAX);
        // The newest checkpoint that (a) leads its segment — checkpoints
        // written since forced rotation all do; legacy mid-segment ones
        // are simply not eligible boundaries — and (b) a follower at the
        // pinned frontier could still seed/catch up from.
        let mut boundary: Option<&RawFrame> = None;
        for r in &scanned.records {
            if r.is_checkpoint && r.offset == SEGMENT_HEADER_BYTES as u64 && r.epoch <= horizon {
                boundary = Some(r);
            }
        }
        let first = self.backend.first_segment()?;
        let (boundary_seg, base_epoch) = match boundary {
            Some(r) => (r.segment, r.epoch),
            None => (first, scanned.records[0].epoch),
        };
        let mut dropped_bytes = 0;
        for seg in first..boundary_seg {
            dropped_bytes += self.backend.len(seg)?;
        }
        if boundary_seg > first {
            self.backend.remove_below(boundary_seg)?;
            // Counters now describe only the retained records.
            self.deltas = 0;
            self.checkpoints = 0;
            for r in &scanned.records {
                if r.segment < boundary_seg {
                    continue;
                }
                if r.is_checkpoint {
                    self.checkpoints += 1;
                } else {
                    self.deltas += 1;
                }
            }
        }
        Ok(Compaction {
            dropped_segments: boundary_seg - first,
            dropped_bytes,
            retained_segments: self.backend.segments()? - boundary_seg,
            base_epoch,
            pinned_frontier: pinned,
        })
    }

    /// A [`Replayer`](crate::Replayer) over the same backend — safe to
    /// hand to another thread while this log keeps appending.
    pub fn replayer(&self) -> crate::Replayer {
        crate::Replayer::new(self.backend.clone())
    }

    /// The shared backend handle.
    pub fn backend(&self) -> Arc<dyn LogBackend> {
        self.backend.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::chaos::ChaosBackend;
    use igc_graph::graph::graph_from;
    use igc_graph::{NodeId, Update};

    fn delta(updates: Vec<Update>) -> UpdateBatch {
        UpdateBatch::from_updates(updates)
    }

    fn backend() -> (MemBackend, Arc<dyn LogBackend>) {
        let b = MemBackend::new();
        let arc: Arc<dyn LogBackend> = Arc::new(b.clone());
        (b, arc)
    }

    /// A quiet chaos wrapper over a fresh `MemBackend` — the shared
    /// injector for every fault-shaped test below.
    fn chaos_backend() -> (ChaosBackend, Arc<dyn LogBackend>) {
        let c = ChaosBackend::new(Arc::new(MemBackend::new()));
        let arc: Arc<dyn LogBackend> = Arc::new(c.clone());
        (c, arc)
    }

    #[test]
    fn create_requires_empty_backend() {
        let (mem, arc) = backend();
        mem.append(0, b"junk").unwrap();
        assert_eq!(
            CommitLog::create(arc).unwrap_err(),
            LogError::NotEmpty { segments: 1 }
        );
    }

    #[test]
    fn append_chain_is_enforced() {
        let (_, arc) = backend();
        let mut log = CommitLog::create(arc).unwrap();
        let b = delta(vec![Update::insert(NodeId(0), NodeId(1))]);
        // No checkpoint yet: deltas are refused.
        assert_eq!(
            log.append_delta(1, &b).unwrap_err(),
            LogError::NoCheckpoint { epoch: 1 }
        );
        let g = graph_from(&[0, 0], &[]);
        log.append_checkpoint(&g).unwrap();
        assert_eq!(log.last_epoch(), Some(0));
        // Epoch must advance by exactly one.
        assert_eq!(
            log.append_delta(5, &b).unwrap_err(),
            LogError::EpochGap {
                expected: 1,
                found: 5
            }
        );
        log.append_delta(1, &b).unwrap();
        log.append_delta(2, &b).unwrap();
        assert_eq!(log.last_epoch(), Some(2));
        assert_eq!(log.deltas(), 2);
        // A checkpoint must be stamped with the current chain epoch.
        let stale = graph_from(&[0, 0], &[]);
        assert_eq!(
            log.append_checkpoint(&stale).unwrap_err(),
            LogError::EpochGap {
                expected: 2,
                found: 0
            }
        );
    }

    #[test]
    fn open_roundtrips_counters() {
        let (_, arc) = backend();
        let mut log = CommitLog::create(arc.clone()).unwrap();
        let mut g = graph_from(&[0, 0, 0], &[]);
        log.append_checkpoint(&g).unwrap();
        for i in 0..3u32 {
            let b = delta(vec![Update::insert(NodeId(i % 3), NodeId((i + 1) % 3))]);
            g.apply_batch(&b);
            log.append_delta(g.epoch(), &b).unwrap();
        }
        log.append_checkpoint(&g).unwrap();
        drop(log);

        let reopened = CommitLog::open(arc).unwrap();
        assert_eq!(reopened.last_epoch(), Some(3));
        assert_eq!(reopened.last_checkpoint(), Some(3));
        assert_eq!(reopened.deltas(), 3);
        assert_eq!(reopened.checkpoints(), 2);
    }

    #[test]
    fn open_empty_is_an_error() {
        let (_, arc) = backend();
        assert_eq!(CommitLog::open(arc).unwrap_err(), LogError::Empty);
    }

    #[test]
    fn rotation_starts_fresh_segments() {
        let (mem, arc) = backend();
        let mut log = CommitLog::create(arc).unwrap();
        log.set_segment_bytes(1024); // minimum
        let mut g = graph_from(&[0, 0, 0, 0], &[]);
        log.append_checkpoint(&g).unwrap();
        // Enough records to push well past 1 KiB of framed bytes.
        for i in 0..40u32 {
            let (a, b) = (NodeId(i % 4), NodeId((i + 1) % 4));
            let batch = if g.contains_edge(a, b) {
                delta(vec![Update::delete(a, b)])
            } else {
                delta(vec![Update::insert(a, b)])
            };
            g.apply_batch(&batch);
            log.append_delta(g.epoch(), &batch).unwrap();
        }
        assert!(
            mem.segments().unwrap() > 1,
            "rotation must have produced more than one segment"
        );
        // The whole multi-segment chain scans clean.
        let scanned = scan(&*log.backend()).unwrap();
        assert_eq!(scanned.records.len(), 41);
        assert_eq!(scanned.torn_tails, 0);
    }

    #[test]
    fn torn_tail_is_skipped_and_writes_rotate_past_it() {
        let (chaos, arc) = chaos_backend();
        let mut log = CommitLog::create(arc.clone()).unwrap();
        let mut g = graph_from(&[0, 0], &[]);
        log.append_checkpoint(&g).unwrap();
        let b = delta(vec![Update::insert(NodeId(0), NodeId(1))]);
        g.apply_batch(&b);
        log.append_delta(1, &b).unwrap();
        // Simulate a crash mid-append: chop the last record in half.
        let full = chaos.len(0).unwrap();
        chaos.truncate_segment(0, full - 5);

        let mut reopened = CommitLog::open(arc.clone()).unwrap();
        assert_eq!(reopened.last_epoch(), Some(0), "torn delta never committed");
        // The re-appended delta lands in a fresh segment, past the garbage.
        reopened.append_delta(1, &b).unwrap();
        assert_eq!(chaos.segments().unwrap(), 2);
        let scanned = scan(&*arc).unwrap();
        assert_eq!(scanned.records.len(), 2);
        assert_eq!(scanned.torn_tails, 1);
    }

    #[test]
    fn partial_append_failure_rotates_instead_of_corrupting() {
        let (chaos, arc) = chaos_backend();
        let mut log = CommitLog::create(arc.clone()).unwrap();
        let mut g = graph_from(&[0, 0, 0], &[]);
        log.append_checkpoint(&g).unwrap();
        let b1 = delta(vec![Update::insert(NodeId(0), NodeId(1))]);
        g.apply_batch(&b1);
        log.append_delta(1, &b1).unwrap();

        // A mid-write failure leaves part of a record in the tail segment.
        chaos.fail_next_append(11);
        let b2 = delta(vec![Update::insert(NodeId(1), NodeId(2))]);
        assert!(log.append_delta(2, &b2).is_err());
        assert_eq!(log.last_epoch(), Some(1), "failed append never committed");

        // The re-append must NOT land behind the garbage in the same
        // segment — it rotates, turning the partial bytes into a skippable
        // torn tail, and the whole chain stays scannable.
        g.apply_batch(&b2);
        log.append_delta(2, &b2).unwrap();
        assert_eq!(chaos.segments().unwrap(), 2, "the re-append rotated");
        let scanned = scan(&*arc).unwrap();
        assert_eq!(scanned.records.len(), 3);
        assert_eq!(scanned.torn_tails, 1);
        // Reopen + replay sees the full committed history.
        let reopened = CommitLog::open(arc).unwrap();
        assert_eq!(reopened.last_epoch(), Some(2));
        let replayed = reopened.replayer().latest().unwrap();
        assert_eq!(replayed.graph.epoch(), 2);
        assert_eq!(replayed.graph.sorted_edges(), g.sorted_edges());
    }

    #[test]
    fn failed_policy_barrier_becomes_sync_debt_not_an_append_error() {
        let (chaos, arc) = chaos_backend();
        let mut log = CommitLog::create(arc).unwrap();
        log.set_durability(DurabilityMode::EveryAppend);
        let mut g = graph_from(&[0, 0], &[]);
        log.append_checkpoint(&g).unwrap();
        assert!(log.sync_debt().is_none());

        // The append lands, then its policy-driven barrier dies. Failing
        // the append here would push a correct caller into re-appending
        // epoch 1 — an on-disk chain violation — so the append must
        // succeed and the failure must park as debt.
        chaos.fail_next_sync();
        let b = delta(vec![Update::insert(NodeId(0), NodeId(1))]);
        g.apply_batch(&b);
        log.append_delta(1, &b).unwrap();
        assert_eq!(log.last_epoch(), Some(1), "the record is committed");
        assert!(log.sync_debt().is_some(), "the barrier failure is visible");
        assert!(log.unsynced_appends() > 0, "the window is still open");

        // An explicit barrier settles the debt (the dirty segment was
        // still pending).
        log.sync().unwrap();
        assert!(log.sync_debt().is_none());
        assert_eq!(log.unsynced_appends(), 0);
        assert_eq!(chaos.stats().sync_faults, 1);
    }

    /// A scripted history with periodic checkpoints: checkpoint at 0,
    /// then `rounds` rounds of (3 deltas, checkpoint). Returns the shared
    /// backend, the log and the final graph.
    fn checkpointed_history(rounds: usize) -> (MemBackend, CommitLog, DynamicGraph) {
        let (mem, arc) = backend();
        let mut log = CommitLog::create(arc).unwrap();
        let mut g = graph_from(&[0, 1, 2, 0], &[]);
        log.append_checkpoint(&g).unwrap();
        for round in 0..rounds {
            for i in 0..3u32 {
                let (a, b) = (NodeId((round as u32 + i) % 4), NodeId((i + 1) % 4));
                let batch = if g.contains_edge(a, b) {
                    delta(vec![Update::delete(a, b)])
                } else {
                    delta(vec![Update::insert(a, b)])
                };
                g.apply_batch(&batch);
                log.append_delta(g.epoch(), &batch).unwrap();
            }
            log.append_checkpoint(&g).unwrap();
        }
        (mem, log, g)
    }

    #[test]
    fn every_checkpoint_starts_a_fresh_segment() {
        let (mem, log, _) = checkpointed_history(3);
        // 4 checkpoints (epoch 0 + one per round) → 4 segments, each led
        // by its checkpoint.
        assert_eq!(mem.segments().unwrap(), 4);
        let scanned = scan(&*log.backend()).unwrap();
        for r in &scanned.records {
            if r.is_checkpoint {
                assert_eq!(
                    r.offset, SEGMENT_HEADER_BYTES as u64,
                    "checkpoint at epoch {} must lead its segment",
                    r.epoch
                );
            }
        }
    }

    #[test]
    fn compact_unpinned_keeps_only_the_newest_checkpoint_segment() {
        let (mem, mut log, g) = checkpointed_history(3);
        let before = log.bytes().unwrap();
        let c = log.compact().unwrap();
        assert_eq!(c.dropped_segments, 3);
        assert_eq!(c.retained_segments, 1);
        assert_eq!(c.base_epoch, 9);
        assert_eq!(c.pinned_frontier, None);
        assert!(c.dropped_bytes > 0);
        assert_eq!(log.bytes().unwrap(), before - c.dropped_bytes);
        assert_eq!(mem.segments().unwrap(), 4, "indices are historical");
        assert_eq!(log.deltas(), 0, "all deltas were behind the checkpoint");
        assert_eq!(log.checkpoints(), 1);
        // The compacted log reopens and replays cleanly…
        let reopened = CommitLog::open(log.backend()).unwrap();
        assert_eq!(reopened.last_epoch(), Some(9));
        let replayed = reopened.replayer().latest().unwrap();
        assert_eq!(replayed.graph.epoch(), 9);
        assert_eq!(replayed.graph.sorted_edges(), g.sorted_edges());
        // …and keeps accepting appends on the same chain.
        let mut log = reopened;
        let mut g = g;
        let b = delta(vec![Update::insert(NodeId(0), NodeId(2))]);
        g.apply_batch(&b);
        log.append_delta(g.epoch(), &b).unwrap();
        // History behind the new base is genuinely gone.
        assert!(matches!(
            log.replayer().replay_at(3).unwrap_err(),
            LogError::NoCheckpoint { epoch: 3 }
        ));
        // Compacting again finds nothing to drop.
        let again = log.compact().unwrap();
        assert_eq!(again.dropped_segments, 0);
        assert_eq!(again.base_epoch, 9);
    }

    #[test]
    fn retention_pin_blocks_compaction_until_it_advances_or_drops() {
        let (_, mut log, _) = checkpointed_history(3);
        // A slow follower still at epoch 2: only history up to the
        // checkpoint at or below 2 (the genesis checkpoint, segment 0)
        // may go — i.e. nothing.
        let pin = log.register_pin(2);
        assert_eq!(log.pinned_frontier(), Some(2));
        let c = log.compact().unwrap();
        assert_eq!(c.dropped_segments, 0);
        assert_eq!(c.pinned_frontier, Some(2));
        assert_eq!(c.base_epoch, 0);

        // The follower consumes through epoch 7: the checkpoints at 3 and
        // 6 both satisfy it, so segments 0 and 1 can go.
        pin.advance(7);
        pin.advance(4); // monotonic: lower values are ignored
        assert_eq!(pin.frontier(), 7);
        let c = log.compact().unwrap();
        assert_eq!(c.dropped_segments, 2);
        assert_eq!(c.base_epoch, 6);
        assert_eq!(c.pinned_frontier, Some(7));

        // Dropping the pin releases the claim entirely.
        drop(pin);
        assert_eq!(log.pinned_frontier(), None);
        let c = log.compact().unwrap();
        assert_eq!(c.dropped_segments, 1);
        assert_eq!(c.base_epoch, 9);
        assert_eq!(c.retained_segments, 1);
    }

    #[test]
    fn slowest_of_several_pins_wins() {
        let (_, mut log, _) = checkpointed_history(2);
        let slow = log.register_pin(1);
        let fast = log.register_pin(6);
        assert_eq!(log.pinned_frontier(), Some(1));
        assert_eq!(log.compact().unwrap().dropped_segments, 0);
        slow.advance(6);
        let c = log.compact().unwrap();
        assert_eq!(c.dropped_segments, 2);
        assert_eq!(c.base_epoch, 6);
        drop(fast);
        assert_eq!(log.pinned_frontier(), Some(6));
    }

    /// A scripted run of `n` deltas against a sync-counting (quiet chaos)
    /// backend under the given durability mode; returns backend-observed
    /// sync calls and the log's own barrier count.
    fn durability_run(mode: DurabilityMode, n: u32) -> (ChaosBackend, CommitLog) {
        let (counting, arc) = chaos_backend();
        let mut log = CommitLog::create(arc).unwrap();
        log.set_durability(mode);
        let mut g = graph_from(&[0, 0, 0], &[]);
        log.append_checkpoint(&g).unwrap();
        for i in 0..n {
            let (a, b) = (NodeId(i % 3), NodeId((i + 1) % 3));
            let batch = if g.contains_edge(a, b) {
                delta(vec![Update::delete(a, b)])
            } else {
                delta(vec![Update::insert(a, b)])
            };
            g.apply_batch(&batch);
            log.append_delta(g.epoch(), &batch).unwrap();
        }
        (counting, log)
    }

    #[test]
    fn every_append_mode_barriers_each_record() {
        let (backend, log) = durability_run(DurabilityMode::EveryAppend, 6);
        // 1 checkpoint + 6 deltas, one barrier each.
        assert_eq!(log.syncs(), 7);
        assert_eq!(backend.stats().syncs, 7, "one backend sync per record");
        assert_eq!(log.unsynced_appends(), 0);
    }

    #[test]
    fn group_commit_batches_barriers_by_max_batch() {
        let mode = DurabilityMode::GroupCommit {
            max_batch: 4,
            max_delay: Duration::from_secs(3600), // never by time in-test
        };
        let (backend, mut log) = durability_run(mode, 6);
        // 7 appends with a barrier every 4th: barriers after appends 4 and
        // 8 → only one fired, 3 records still pending.
        assert_eq!(log.syncs(), 1);
        assert_eq!(backend.stats().syncs, 1);
        assert_eq!(log.unsynced_appends(), 3);
        // An explicit barrier flushes the pending window…
        log.sync().unwrap();
        assert_eq!(log.syncs(), 2);
        assert_eq!(log.unsynced_appends(), 0);
        // …and a barrier with nothing pending is a counted no-op.
        log.sync().unwrap();
        assert_eq!(log.syncs(), 2);
    }

    #[test]
    fn group_commit_max_delay_closes_a_stale_window() {
        let (_, arc) = chaos_backend();
        let mut log = CommitLog::create(arc).unwrap();
        log.set_durability(DurabilityMode::GroupCommit {
            max_batch: 1_000_000,
            max_delay: Duration::ZERO, // every window is instantly stale
        });
        let mut g = graph_from(&[0, 0], &[]);
        log.append_checkpoint(&g).unwrap();
        let b = delta(vec![Update::insert(NodeId(0), NodeId(1))]);
        g.apply_batch(&b);
        log.append_delta(1, &b).unwrap();
        // max_batch is unreachable, but the zero max_delay forces a
        // barrier at each append.
        assert_eq!(log.syncs(), 2);
        assert_eq!(log.unsynced_appends(), 0);
    }

    #[test]
    fn durability_none_never_barriers_but_explicit_sync_flushes() {
        let (backend, mut log) = durability_run(DurabilityMode::None, 5);
        assert_eq!(log.syncs(), 0);
        assert_eq!(backend.stats().syncs, 0);
        assert_eq!(log.unsynced_appends(), 6);
        log.sync().unwrap();
        assert_eq!(log.syncs(), 1);
        assert!(backend.stats().syncs >= 1);
        assert_eq!(log.unsynced_appends(), 0);
    }

    #[test]
    fn barriers_cover_rotated_segments_too() {
        let (counting, arc) = chaos_backend();
        let mut log = CommitLog::create(arc.clone()).unwrap();
        log.set_segment_bytes(1024);
        log.set_durability(DurabilityMode::GroupCommit {
            max_batch: 1_000_000,
            max_delay: Duration::from_secs(3600),
        });
        let mut g = graph_from(&[0, 0, 0, 0], &[]);
        log.append_checkpoint(&g).unwrap();
        for i in 0..40u32 {
            let (a, b) = (NodeId(i % 4), NodeId((i + 1) % 4));
            let batch = if g.contains_edge(a, b) {
                delta(vec![Update::delete(a, b)])
            } else {
                delta(vec![Update::insert(a, b)])
            };
            g.apply_batch(&batch);
            log.append_delta(g.epoch(), &batch).unwrap();
        }
        assert!(arc.segments().unwrap() > 1, "the run must have rotated");
        // One explicit barrier covers every dirty segment of the window.
        log.sync().unwrap();
        assert_eq!(log.syncs(), 1);
        let backend_syncs = counting.stats().syncs as u32;
        assert_eq!(
            backend_syncs,
            arc.segments().unwrap(),
            "each appended segment got exactly one backend sync"
        );
        assert_eq!(log.unsynced_appends(), 0);
    }

    #[test]
    fn corruption_is_detected_not_skipped() {
        let (chaos, arc) = chaos_backend();
        let mut log = CommitLog::create(arc.clone()).unwrap();
        let mut g = graph_from(&[0, 0], &[]);
        log.append_checkpoint(&g).unwrap();
        let b = delta(vec![Update::insert(NodeId(0), NodeId(1))]);
        g.apply_batch(&b);
        log.append_delta(1, &b).unwrap();
        // Flip one payload bit in the middle of the segment.
        let len = chaos.len(0).unwrap();
        chaos.corrupt_byte(0, len / 2, 0x10);
        match CommitLog::open(arc).unwrap_err() {
            LogError::Corrupt { segment: 0, .. } => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn silent_bit_flip_on_an_acknowledged_append_is_detected_at_open() {
        let (chaos, arc) = chaos_backend();
        let mut log = CommitLog::create(arc.clone()).unwrap();
        let mut g = graph_from(&[0, 0], &[]);
        log.append_checkpoint(&g).unwrap();
        let frame = chaos.len(0).unwrap();
        let b = delta(vec![Update::insert(NodeId(0), NodeId(1))]);
        g.apply_batch(&b);
        // A bit of the acknowledged delta flips on the device: the fault
        // class the log detects (CRC) but by design cannot survive. Offset
        // 10 sits inside the record *body* (the frame is `len u32 |
        // crc32(len) u32 | body | crc32(body) u32`), so the flip is a body
        // checksum mismatch.
        log.append_delta(1, &b).unwrap();
        assert_eq!(chaos.segments().unwrap(), 1, "the delta shares segment 0");
        chaos.corrupt_byte(0, frame + 10, 0x04);
        match CommitLog::open(arc).unwrap_err() {
            LogError::Corrupt { .. } => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// A flipped bit in an acknowledged frame's *length prefix* is
    /// corruption at open, not a torn tail: unsealed, the longer length
    /// ran past the segment, the scan skipped the rest of it, and the log
    /// opened one epoch short with two acknowledged deltas gone.
    #[test]
    fn a_flipped_length_bit_is_corruption_not_a_torn_tail() {
        let (chaos, arc) = chaos_backend();
        let mut log = CommitLog::create(arc.clone()).unwrap();
        log.set_durability(DurabilityMode::EveryAppend);
        let mut g = graph_from(&[0, 0, 0], &[]);
        log.append_checkpoint(&g).unwrap();
        for (epoch, (u, v)) in [(0, 1), (1, 2), (2, 0)].into_iter().enumerate() {
            let b = delta(vec![Update::insert(NodeId(u), NodeId(v))]);
            g.apply_batch(&b);
            log.append_delta(epoch as u64 + 1, &b).unwrap();
        }
        assert_eq!(log.unsynced_appends(), 0, "every delta synced");
        let records = scan(&*arc).unwrap().records;
        assert_eq!(records.len(), 4, "a checkpoint and three deltas");
        let delta_2 = &records[2];
        assert_eq!((delta_2.segment, delta_2.epoch), (0, 2));
        chaos.corrupt_byte(0, delta_2.offset + 1, 0x01);
        match CommitLog::open(arc) {
            Err(LogError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}

//! The read side: reconstruct the graph at any logged epoch from the
//! latest checkpoint at or below it plus tail replay, and catch a
//! lagging consumer up to the head of the log.

use crate::backend::LogBackend;
use crate::error::LogError;
use crate::log::{scan, Scan};
use crate::record::{RawFrame, Record};
use igc_graph::{DynamicGraph, UpdateBatch};
use std::sync::Arc;

/// What one full scan of the log holds, without decoding costs beyond the
/// scan itself — the observability face of the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogSummary {
    /// Complete records of any kind.
    pub records: u64,
    /// Delta (committed-batch) records.
    pub deltas: u64,
    /// Checkpoint records.
    pub checkpoints: u64,
    /// Epoch of the first record (the original replay base).
    pub first_epoch: u64,
    /// Epoch of the last record — the newest state the log can rebuild.
    pub last_epoch: u64,
    /// Epoch of the most recent checkpoint.
    pub last_checkpoint: u64,
    /// Total unit updates across all delta records.
    pub units: u64,
    /// Bytes scanned across all segments.
    pub bytes: u64,
    /// Torn (never-acknowledged, skipped) record tails encountered.
    pub torn_tails: u32,
    /// Retained segments (compaction removes whole segments, so after a
    /// [`CommitLog::compact`](crate::CommitLog::compact) this drops while
    /// total historical indices keep growing).
    pub segments: u32,
}

/// A reconstructed graph plus what the reconstruction cost — the numbers
/// behind replay-throughput reporting.
#[derive(Debug)]
pub struct Replayed {
    /// The graph, consistent as of the requested epoch.
    pub graph: DynamicGraph,
    /// Epoch of the checkpoint replay started from.
    pub base_epoch: u64,
    /// Delta records applied on top of the checkpoint.
    pub deltas_applied: u64,
    /// Unit updates inside those deltas.
    pub units_applied: u64,
}

/// Read-only replayer over a log backend. Cheap to construct (it holds
/// only the shared backend handle) and safe to use from another thread
/// while a [`CommitLog`](crate::CommitLog) keeps appending — every scan
/// reads whole segments, and a record mid-append shows up as a torn tail
/// this scan ignores and the next one sees completed.
#[derive(Debug, Clone)]
pub struct Replayer {
    backend: Arc<dyn LogBackend>,
}

impl Replayer {
    /// A replayer over `backend`.
    pub fn new(backend: Arc<dyn LogBackend>) -> Self {
        Replayer { backend }
    }

    /// Scan the whole log and summarize it ([`LogError::Empty`] when
    /// there are no records). Nothing is decoded: frame headers carry the
    /// epochs and unit counts.
    pub fn summary(&self) -> Result<LogSummary, LogError> {
        let scanned = scan(&*self.backend)?;
        let (first, last) = match (scanned.records.first(), scanned.records.last()) {
            (Some(f), Some(l)) => (f.epoch, l.epoch),
            _ => return Err(LogError::Empty),
        };
        let mut summary = LogSummary {
            records: scanned.records.len() as u64,
            deltas: 0,
            checkpoints: 0,
            first_epoch: first,
            last_epoch: last,
            last_checkpoint: 0,
            units: 0,
            bytes: scanned.bytes,
            torn_tails: scanned.torn_tails,
            segments: scanned.segments,
        };
        for r in &scanned.records {
            if r.is_checkpoint {
                summary.checkpoints += 1;
                summary.last_checkpoint = r.epoch;
            } else {
                summary.deltas += 1;
                summary.units += r.delta_units();
            }
        }
        Ok(summary)
    }

    /// Decode one frame, mapping a structural payload failure (CRC-valid
    /// bytes that do not parse) to a located [`LogError::Corrupt`].
    fn decode(frame: &RawFrame) -> Result<Record, LogError> {
        frame.decode().map_err(|reason| LogError::Corrupt {
            segment: frame.segment,
            offset: frame.offset,
            reason,
        })
    }

    /// Replay from an existing scan: restore the latest checkpoint at or
    /// below `epoch`, apply the delta tail. Only the chosen checkpoint
    /// and the tail deltas get decoded.
    fn replay_scanned(scanned: &Scan, epoch: u64) -> Result<Replayed, LogError> {
        if scanned.records.is_empty() {
            return Err(LogError::Empty);
        }
        // Latest checkpoint ≤ epoch, and where its tail starts.
        let mut base: Option<(usize, &RawFrame)> = None;
        for (i, r) in scanned.records.iter().enumerate() {
            if r.is_checkpoint && r.epoch <= epoch {
                base = Some((i, r));
            }
        }
        let Some((start, frame)) = base else {
            return Err(LogError::NoCheckpoint { epoch });
        };
        let mut graph =
            Self::decode(frame)?
                .restore_graph()
                .map_err(|reason| LogError::Corrupt {
                    segment: frame.segment,
                    offset: frame.offset,
                    reason,
                })?;
        let base_epoch = graph.epoch();
        let mut deltas_applied = 0;
        let mut units_applied = 0;
        for r in &scanned.records[start + 1..] {
            if graph.epoch() == epoch {
                break;
            }
            if r.is_checkpoint {
                continue; // interleaved checkpoints re-state known state
            }
            // The scanner already validated chain continuity; this guard
            // keeps replay self-contained against future scanner changes.
            if r.epoch != graph.epoch() + 1 {
                return Err(LogError::EpochGap {
                    expected: graph.epoch() + 1,
                    found: r.epoch,
                });
            }
            let Record::Delta { batch, .. } = Self::decode(r)? else {
                unreachable!("frame header said delta");
            };
            graph.apply_batch(&batch);
            deltas_applied += 1;
            units_applied += batch.len() as u64;
        }
        if graph.epoch() != epoch {
            return Err(LogError::EpochUnavailable {
                requested: epoch,
                latest: graph.epoch(),
            });
        }
        Ok(Replayed {
            graph,
            base_epoch,
            deltas_applied,
            units_applied,
        })
    }

    /// Reconstruct the graph exactly as of `epoch`: restore the latest
    /// checkpoint at or below it, then apply the delta tail up to `epoch`.
    /// [`LogError::NoCheckpoint`] when no checkpoint covers the request,
    /// [`LogError::EpochUnavailable`] when the log stops short of it.
    pub fn replay_at(&self, epoch: u64) -> Result<Replayed, LogError> {
        Self::replay_scanned(&scan(&*self.backend)?, epoch)
    }

    /// Reconstruct the newest state the log covers (one scan total).
    pub fn latest(&self) -> Result<Replayed, LogError> {
        let scanned = scan(&*self.backend)?;
        let Some(last) = scanned.records.last() else {
            return Err(LogError::Empty);
        };
        let epoch = last.epoch;
        Self::replay_scanned(&scanned, epoch)
    }

    /// [`Replayer::replay_at`], graph only.
    pub fn graph_at(&self, epoch: u64) -> Result<DynamicGraph, LogError> {
        self.replay_at(epoch).map(|r| r.graph)
    }

    /// Catch a consumer at `epoch` up to the head of the log: hand `f`, in
    /// order, every delta record with an epoch past `epoch`, decoded and
    /// not applied — the consumer applies it, and stands at that record's
    /// epoch afterwards. Returns the number of deltas handed over. Only
    /// those deltas are decoded — checkpoints and already-consumed
    /// history are skipped at the frame level, so the repeated catch-up
    /// rounds of a follower stay cheap on long histories.
    ///
    /// The first delta handed over must be exactly `epoch + 1`
    /// ([`LogError::EpochGap`] otherwise — the consumer's state predates
    /// the oldest retained tail). A *checkpoint* past the consumer is the
    /// same gap: in append order a checkpoint always follows its epoch's
    /// delta, so reaching one the consumer hasn't caught up to means the
    /// deltas leading to it were compacted away — reported as
    /// [`LogError::EpochGap`] even when no delta follows the checkpoint
    /// yet. A consumer already at or past the head is handed nothing.
    /// Safe to call repeatedly while a writer keeps appending; each call
    /// drains whatever is complete at scan time.
    pub fn catch_up(&self, epoch: u64, mut f: impl FnMut(UpdateBatch)) -> Result<u64, LogError> {
        let scanned = scan(&*self.backend)?;
        let (mut at, mut applied) = (epoch, 0);
        for r in &scanned.records {
            if r.epoch <= at {
                continue;
            }
            if r.is_checkpoint || r.epoch != at + 1 {
                return Err(LogError::EpochGap {
                    expected: at + 1,
                    found: r.epoch,
                });
            }
            let Record::Delta { batch, .. } = Self::decode(r)? else {
                unreachable!("frame header said delta");
            };
            f(batch);
            at = r.epoch;
            applied += 1;
        }
        Ok(applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::log::CommitLog;
    use igc_graph::graph::graph_from;
    use igc_graph::{NodeId, Update};

    /// A little scripted history: checkpoint at 0, six deltas, a mid-way
    /// checkpoint at 3. Returns the backend and the final graph.
    fn scripted() -> (Arc<dyn LogBackend>, DynamicGraph) {
        let arc: Arc<dyn LogBackend> = Arc::new(MemBackend::new());
        let mut log = CommitLog::create(arc.clone()).unwrap();
        let mut g = graph_from(&[0, 1, 2, 0], &[(0, 1)]);
        log.append_checkpoint(&g).unwrap();
        let script = [
            vec![Update::insert(NodeId(1), NodeId(2))],
            vec![
                Update::insert(NodeId(2), NodeId(3)),
                Update::delete(NodeId(0), NodeId(1)),
            ],
            vec![Update::insert(NodeId(3), NodeId(0))],
            vec![Update::insert_labeled(
                NodeId(0),
                NodeId(5),
                None,
                Some(igc_graph::Label(7)),
            )],
            vec![Update::delete(NodeId(2), NodeId(3))],
            vec![Update::insert(NodeId(5), NodeId(1))],
        ];
        for (i, updates) in script.into_iter().enumerate() {
            let batch = UpdateBatch::from_updates(updates);
            g.apply_batch(&batch);
            log.append_delta(g.epoch(), &batch).unwrap();
            if i == 2 {
                log.append_checkpoint(&g).unwrap();
            }
        }
        (arc, g)
    }

    fn assert_same_graph(a: &DynamicGraph, b: &DynamicGraph) {
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.sorted_edges(), b.sorted_edges());
        for v in a.nodes() {
            assert_eq!(a.label(v), b.label(v));
        }
    }

    #[test]
    fn summary_counts_everything() {
        let (arc, _) = scripted();
        let s = Replayer::new(arc).summary().unwrap();
        assert_eq!(s.records, 8);
        assert_eq!(s.deltas, 6);
        assert_eq!(s.checkpoints, 2);
        assert_eq!(s.first_epoch, 0);
        assert_eq!(s.last_epoch, 6);
        assert_eq!(s.last_checkpoint, 3);
        assert_eq!(s.units, 7);
        assert_eq!(s.torn_tails, 0);
        assert!(s.bytes > 0);
        // The mid-way checkpoint rotated: genesis-led segment + one led
        // by the epoch-3 checkpoint.
        assert_eq!(s.segments, 2);
    }

    #[test]
    fn latest_rebuilds_the_final_graph_from_the_nearest_checkpoint() {
        let (arc, g) = scripted();
        let replayed = Replayer::new(arc).latest().unwrap();
        assert_same_graph(&replayed.graph, &g);
        // Tail replay starts from the epoch-3 checkpoint, not epoch 0.
        assert_eq!(replayed.base_epoch, 3);
        assert_eq!(replayed.deltas_applied, 3);
    }

    #[test]
    fn graph_at_every_logged_epoch_is_reachable() {
        let (arc, _) = scripted();
        let replayer = Replayer::new(arc);
        // Rebuild each epoch independently and cross-check by replaying
        // forward from the previous one.
        let mut prev = replayer.graph_at(0).unwrap();
        for epoch in 1..=6u64 {
            let direct = replayer.graph_at(epoch).unwrap();
            let mut stepped = prev.clone();
            let applied = replayer
                .catch_up(stepped.epoch(), |b| stepped.apply_batch(&b))
                .unwrap();
            assert!(applied >= 1);
            // catch_up runs to the head; compare at the head only once.
            if epoch == 6 {
                assert_same_graph(&stepped, &replayer.graph_at(6).unwrap());
            }
            assert_eq!(direct.epoch(), epoch);
            prev = direct;
        }
    }

    #[test]
    fn replay_errors_are_precise() {
        let (arc, _) = scripted();
        let replayer = Replayer::new(arc);
        assert_eq!(
            replayer.replay_at(99).unwrap_err(),
            LogError::EpochUnavailable {
                requested: 99,
                latest: 6
            }
        );
        // The empty backend has no checkpoint at all.
        let empty: Arc<dyn LogBackend> = Arc::new(MemBackend::new());
        assert_eq!(
            Replayer::new(empty).replay_at(0).unwrap_err(),
            LogError::Empty
        );
    }

    #[test]
    fn catch_up_applies_only_the_missing_tail_and_feeds_the_consumer() {
        let (arc, g_final) = scripted();
        let replayer = Replayer::new(arc);
        let mut g = replayer.graph_at(2).unwrap();
        let mut seen: Vec<(u64, usize)> = Vec::new();
        let applied = replayer
            .catch_up(g.epoch(), |batch| {
                g.apply_batch(&batch);
                seen.push((g.epoch(), batch.len()))
            })
            .unwrap();
        assert_eq!(applied, 4);
        assert_eq!(
            seen.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![3, 4, 5, 6]
        );
        assert_same_graph(&g, &g_final);
        // Already caught up: nothing more to do.
        assert_eq!(replayer.catch_up(g.epoch(), |_| {}).unwrap(), 0);
    }

    #[test]
    fn catch_up_rejects_a_consumer_older_than_the_retained_tail() {
        // A log whose first checkpoint is at epoch 10 cannot catch up a
        // consumer at epoch 2.
        let arc: Arc<dyn LogBackend> = Arc::new(MemBackend::new());
        let mut log = CommitLog::create(arc.clone()).unwrap();
        let mut g = graph_from(&[0, 0], &[]);
        for _ in 0..5 {
            g.apply(&Update::insert(NodeId(0), NodeId(1)));
            g.apply(&Update::delete(NodeId(0), NodeId(1)));
        }
        // g.epoch() is now 10; pretend history started here.
        log.append_checkpoint(&g).unwrap();
        let batch = UpdateBatch::from_updates(vec![Update::insert(NodeId(0), NodeId(1))]);
        g.apply_batch(&batch);
        log.append_delta(g.epoch(), &batch).unwrap();

        // The gap is reported at the base checkpoint itself (epoch 10),
        // not the first delta past it — so the error fires even on a
        // freshly-compacted log whose only retained record is the
        // checkpoint.
        assert_eq!(
            Replayer::new(arc).catch_up(2, |_| {}).unwrap_err(),
            LogError::EpochGap {
                expected: 3,
                found: 10
            }
        );
    }
}

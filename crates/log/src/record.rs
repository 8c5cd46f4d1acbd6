//! The journal's record types and their wire format.
//!
//! A segment is a flat byte stream:
//!
//! ```text
//! ┌──────────────────────── segment header (8 bytes) ───────────────────────┐
//! │ magic "IGCL" (4)  │ version u16 LE │ reserved u16                       │
//! ├──────────────────────────── record, repeated ───────────────────────────┤
//! │ body_len u32 LE │ crc32(body_len) u32 LE │ body: kind u8 + payload │    │
//! │ crc32(body) u32 LE                                                      │
//! └─────────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Both the length prefix and the body carry their own checksum, so a
//! flipped bit anywhere in a stored frame is corruption: a damaged length
//! can never pass for a frame that runs past the end of its segment.
//!
//! Two record kinds exist:
//!
//! * **delta** (`kind = 2`) — one committed, *normalized*
//!   [`UpdateBatch`], stamped with the post-commit epoch:
//!   `epoch u64, count u32, count × (tag u8, from u32, to u32
//!   [, from_label u32][, to_label u32])`. The tag's bit 0 selects
//!   delete (1) vs insert (0); bits 1/2 flag the optional fresh-endpoint
//!   labels of [`Update::Insert`].
//! * **checkpoint** (`kind = 1`) — a full [`DynamicGraph`] snapshot at its
//!   epoch: `epoch u64, node_count u32, node_count × label u32,
//!   edge_count u32, edge_count × (from u32, to u32)`. Edges are written
//!   sorted, so encoding a given graph state is deterministic
//!   byte-for-byte.
//!
//! Decoding distinguishes a **torn tail** (a record that stops mid-way —
//! the expected shape after a crash mid-append, silently ignored at the
//! very end of a segment) from **corruption** (checksum or structural
//! failure anywhere, a hard error).

use crate::codec::{crc32, ByteReader, ByteWriter};
use igc_graph::{DynamicGraph, Label, NodeId, Update, UpdateBatch};

/// Magic bytes opening every segment.
pub const SEGMENT_MAGIC: [u8; 4] = *b"IGCL";
/// Wire-format version (bumped on any incompatible layout change; 2 seals
/// the length prefix with its own checksum).
pub const FORMAT_VERSION: u16 = 2;
/// Size of the per-segment header.
pub const SEGMENT_HEADER_BYTES: usize = 8;
/// Upper bound on a single record body — anything larger is corruption,
/// not data (a full checkpoint of a 100M-edge graph stays well below it).
pub const MAX_RECORD_BYTES: u32 = 1 << 30;

/// The frame's header: `body_len u32`, then `crc32(body_len) u32`.
const FRAME_HEADER_BYTES: usize = 8;

const KIND_CHECKPOINT: u8 = 1;
const KIND_DELTA: u8 = 2;

const TAG_DELETE: u8 = 1;
const TAG_FROM_LABEL: u8 = 1 << 1;
const TAG_TO_LABEL: u8 = 1 << 2;

/// One journal record, decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A full graph snapshot at `epoch` — a replay base.
    Checkpoint {
        /// The graph epoch the snapshot captures.
        epoch: u64,
        /// Node labels in id order (`labels.len()` = node count).
        labels: Vec<Label>,
        /// All edges, sorted.
        edges: Vec<(NodeId, NodeId)>,
    },
    /// One committed normalized batch; `epoch` is the *post*-commit epoch
    /// (applying this batch to a graph at `epoch - 1` yields `epoch`).
    Delta {
        /// Post-commit graph epoch.
        epoch: u64,
        /// The normalized batch, exactly as the engine fanned it out.
        batch: UpdateBatch,
    },
}

impl Record {
    /// The epoch this record is stamped with.
    pub fn epoch(&self) -> u64 {
        match self {
            Record::Checkpoint { epoch, .. } | Record::Delta { epoch, .. } => *epoch,
        }
    }

    /// True for checkpoint records.
    pub fn is_checkpoint(&self) -> bool {
        matches!(self, Record::Checkpoint { .. })
    }

    /// Snapshot a graph into a checkpoint record (edges sorted, so equal
    /// graph states encode to equal bytes).
    pub fn checkpoint_of(g: &DynamicGraph) -> Record {
        Record::Checkpoint {
            epoch: g.epoch(),
            labels: g.nodes().map(|v| g.label(v)).collect(),
            edges: g.sorted_edges(),
        }
    }

    /// Reconstruct the checkpointed graph. `Err` for a delta record or a
    /// snapshot whose edges reference nodes past its own node count.
    pub fn restore_graph(&self) -> Result<DynamicGraph, String> {
        let Record::Checkpoint {
            epoch,
            labels,
            edges,
        } = self
        else {
            return Err("not a checkpoint record".to_owned());
        };
        let mut g = DynamicGraph::from_edges(labels.clone(), edges).map_err(|(u, v)| {
            format!(
                "checkpoint edge ({u:?}, {v:?}) references a node past |V| = {}",
                labels.len()
            )
        })?;
        g.restore_epoch(*epoch);
        Ok(g)
    }

    /// Encode as one framed record: `len` prefix and its CRC-32, body,
    /// the body's CRC-32 — all written into one buffer, the header patched
    /// once the body's length is known.
    pub fn encode_framed(&self) -> Vec<u8> {
        let body_hint = match self {
            Record::Checkpoint { labels, edges, .. } => 13 + labels.len() * 4 + 4 + edges.len() * 8,
            Record::Delta { batch, .. } => 13 + batch.len() * 9,
        };
        let mut w = ByteWriter::with_capacity(FRAME_HEADER_BYTES + body_hint + 4);
        w.put_u64(0);
        self.encode_body(&mut w);
        let mut bytes = w.into_bytes();
        let body_len = ((bytes.len() - FRAME_HEADER_BYTES) as u32).to_le_bytes();
        bytes[..4].copy_from_slice(&body_len);
        bytes[4..8].copy_from_slice(&crc32(&body_len).to_le_bytes());
        let crc = crc32(&bytes[FRAME_HEADER_BYTES..]);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    fn encode_body(&self, w: &mut ByteWriter) {
        match self {
            Record::Checkpoint {
                epoch,
                labels,
                edges,
            } => {
                w.put_u8(KIND_CHECKPOINT);
                w.put_u64(*epoch);
                w.put_u32(labels.len() as u32);
                for l in labels {
                    w.put_u32(l.0);
                }
                w.put_u32(edges.len() as u32);
                // `from u32, to u32` little-endian is the one word
                // `from | to << 32`.
                for (u, v) in edges {
                    w.put_u64(u64::from(u.0) | u64::from(v.0) << 32);
                }
            }
            Record::Delta { epoch, batch } => {
                w.put_u8(KIND_DELTA);
                w.put_u64(*epoch);
                w.put_u32(batch.len() as u32);
                for u in batch.iter() {
                    match *u {
                        Update::Insert {
                            from,
                            to,
                            from_label,
                            to_label,
                        } => {
                            let mut tag = 0u8;
                            if from_label.is_some() {
                                tag |= TAG_FROM_LABEL;
                            }
                            if to_label.is_some() {
                                tag |= TAG_TO_LABEL;
                            }
                            w.put_u8(tag);
                            w.put_u32(from.0);
                            w.put_u32(to.0);
                            if let Some(l) = from_label {
                                w.put_u32(l.0);
                            }
                            if let Some(l) = to_label {
                                w.put_u32(l.0);
                            }
                        }
                        Update::Delete { from, to } => {
                            w.put_u8(TAG_DELETE);
                            w.put_u32(from.0);
                            w.put_u32(to.0);
                        }
                    }
                }
            }
        }
    }

    pub(crate) fn decode_body(body: &[u8]) -> Result<Record, String> {
        let mut r = ByteReader::new(body);
        let kind = r.get_u8()?;
        let record = match kind {
            KIND_CHECKPOINT => {
                let epoch = r.get_u64()?;
                let node_count = r.get_u32()? as usize;
                let mut labels = Vec::with_capacity(node_count.min(1 << 24));
                for _ in 0..node_count {
                    labels.push(Label(r.get_u32()?));
                }
                let edge_count = r.get_u32()? as usize;
                let mut edges = Vec::with_capacity(edge_count.min(1 << 24));
                for _ in 0..edge_count {
                    let u = NodeId(r.get_u32()?);
                    let v = NodeId(r.get_u32()?);
                    edges.push((u, v));
                }
                Record::Checkpoint {
                    epoch,
                    labels,
                    edges,
                }
            }
            KIND_DELTA => {
                let epoch = r.get_u64()?;
                let count = r.get_u32()? as usize;
                let mut updates = Vec::with_capacity(count.min(1 << 24));
                for _ in 0..count {
                    let tag = r.get_u8()?;
                    let from = NodeId(r.get_u32()?);
                    let to = NodeId(r.get_u32()?);
                    if tag & TAG_DELETE != 0 {
                        if tag != TAG_DELETE {
                            return Err(format!("delete update with label flags (tag {tag:#x})"));
                        }
                        updates.push(Update::delete(from, to));
                    } else {
                        let from_label = if tag & TAG_FROM_LABEL != 0 {
                            Some(Label(r.get_u32()?))
                        } else {
                            None
                        };
                        let to_label = if tag & TAG_TO_LABEL != 0 {
                            Some(Label(r.get_u32()?))
                        } else {
                            None
                        };
                        if tag & !(TAG_FROM_LABEL | TAG_TO_LABEL) != 0 {
                            return Err(format!("unknown update tag bits (tag {tag:#x})"));
                        }
                        updates.push(Update::insert_labeled(from, to, from_label, to_label));
                    }
                }
                Record::Delta {
                    epoch,
                    batch: UpdateBatch::from_updates(updates),
                }
            }
            other => return Err(format!("unknown record kind {other}")),
        };
        if r.remaining() != 0 {
            return Err(format!(
                "record body has {} trailing byte(s) past its payload",
                r.remaining()
            ));
        }
        Ok(record)
    }
}

/// A checksum-verified frame whose body bytes are still **undecoded** —
/// the scan currency. Scans walk the whole journal but only the records
/// a caller actually needs get decoded ([`RawFrame::decode`]); in
/// particular checkpoint snapshots (the bulky records) are never parsed
/// unless they are the chosen replay base, and a `catch_up` over a long
/// history decodes only its tail deltas.
#[derive(Debug, Clone)]
pub(crate) struct RawFrame {
    /// Epoch parsed from the body header (cheap: one `u64` read).
    pub epoch: u64,
    /// Record kind, likewise header-parsed.
    pub is_checkpoint: bool,
    /// Where the frame lives — for precise corruption reports when a
    /// deferred decode fails.
    pub segment: u32,
    /// Byte offset of the frame within its segment.
    pub offset: u64,
    /// The full body bytes (kind byte included), CRC-verified.
    pub body: Vec<u8>,
}

impl RawFrame {
    /// Fully decode the body into a [`Record`].
    pub(crate) fn decode(&self) -> Result<Record, String> {
        Record::decode_body(&self.body)
    }

    /// Unit-update count of a delta frame, read straight from the header
    /// without decoding the updates (0 for checkpoints).
    pub(crate) fn delta_units(&self) -> u64 {
        if self.is_checkpoint || self.body.len() < 13 {
            return 0;
        }
        u32::from_le_bytes([self.body[9], self.body[10], self.body[11], self.body[12]]) as u64
    }
}

/// Outcome of reading one framed record at a segment offset.
#[derive(Debug)]
pub(crate) enum RawFramed {
    /// A complete, checksum-verified frame, plus the offset just past it.
    Complete(RawFrame, usize),
    /// The bytes stop mid-record — a torn tail. Recovery ignores it when
    /// it sits at the end of a segment; the writer rotates past it.
    Torn,
}

/// Read (but do not decode) the framed record starting at `pos`: length
/// check, CRC verification, and a light header parse (kind + epoch).
/// `Err(reason)` means the bytes are structurally invalid — corruption,
/// not a torn tail. `segment` only labels the frame for error reports.
///
/// The order of the checks is the contract: fewer than the 8 header bytes
/// left is torn; a length whose checksum fails, or an implausible one, is
/// corruption; a sealed length that runs past the buffer is torn; a bad
/// body checksum or header is corruption.
pub(crate) fn read_frame(buf: &[u8], pos: usize, segment: u32) -> Result<RawFramed, String> {
    let word = |at: usize| u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]);
    if buf.len() - pos < FRAME_HEADER_BYTES {
        return Ok(RawFramed::Torn);
    }
    let (len, stored) = (word(pos), word(pos + 4));
    let actual = crc32(&buf[pos..pos + 4]);
    if stored != actual {
        return Err(format!(
            "length checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
        ));
    }
    if len == 0 || len > MAX_RECORD_BYTES {
        return Err(format!("implausible record length {len}"));
    }
    let body_start = pos + FRAME_HEADER_BYTES;
    let body_end = body_start + len as usize;
    let frame_end = body_end + 4;
    if frame_end > buf.len() {
        return Ok(RawFramed::Torn);
    }
    let body = &buf[body_start..body_end];
    let (stored, actual) = (word(body_end), crc32(body));
    if stored != actual {
        return Err(format!(
            "checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
        ));
    }
    if body.len() < 9 {
        return Err(format!(
            "record body too short for its header ({} bytes)",
            body.len()
        ));
    }
    let is_checkpoint = match body[0] {
        KIND_CHECKPOINT => true,
        KIND_DELTA => false,
        other => return Err(format!("unknown record kind {other}")),
    };
    let epoch = u64::from_le_bytes([
        body[1], body[2], body[3], body[4], body[5], body[6], body[7], body[8],
    ]);
    Ok(RawFramed::Complete(
        RawFrame {
            epoch,
            is_checkpoint,
            segment,
            offset: pos as u64,
            body: body.to_vec(),
        },
        frame_end,
    ))
}

/// Outcome of decoding one framed record at a segment offset (the
/// full-decode convenience over the crate-internal `read_frame`, used by
/// tests and one-shot callers).
#[derive(Debug)]
pub enum Framed {
    /// A complete, checksum-verified record, plus the offset just past it.
    Complete(Record, usize),
    /// The bytes stop mid-record.
    Torn,
}

/// Decode the framed record starting at `pos`. `Err(reason)` means the
/// bytes are structurally invalid (a length or body checksum mismatch, an
/// implausible length, a payload that does not parse) — corruption, not a
/// torn tail.
pub fn decode_framed(buf: &[u8], pos: usize) -> Result<Framed, String> {
    match read_frame(buf, pos, 0)? {
        RawFramed::Torn => Ok(Framed::Torn),
        RawFramed::Complete(frame, end) => Ok(Framed::Complete(frame.decode()?, end)),
    }
}

/// The 8-byte header every fresh segment starts with.
pub fn segment_header() -> [u8; SEGMENT_HEADER_BYTES] {
    let mut h = [0u8; SEGMENT_HEADER_BYTES];
    h[..4].copy_from_slice(&SEGMENT_MAGIC);
    h[4..6].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h
}

/// Validate a segment's header, returning the offset of its first record.
pub fn check_segment_header(buf: &[u8]) -> Result<usize, String> {
    if buf.len() < SEGMENT_HEADER_BYTES {
        return Err(format!(
            "segment shorter than its {SEGMENT_HEADER_BYTES}-byte header ({} bytes)",
            buf.len()
        ));
    }
    if buf[..4] != SEGMENT_MAGIC {
        return Err(format!(
            "bad segment magic {:02x?} (expected {SEGMENT_MAGIC:02x?})",
            &buf[..4]
        ));
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != FORMAT_VERSION {
        return Err(format!(
            "unsupported format version {version} (this build reads {FORMAT_VERSION})"
        ));
    }
    Ok(SEGMENT_HEADER_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use igc_graph::graph::graph_from;

    fn sample_batch() -> UpdateBatch {
        UpdateBatch::from_updates(vec![
            Update::insert(NodeId(0), NodeId(1)),
            Update::insert_labeled(NodeId(1), NodeId(7), None, Some(Label(3))),
            Update::insert_labeled(NodeId(8), NodeId(9), Some(Label(1)), Some(Label(2))),
            Update::delete(NodeId(2), NodeId(0)),
        ])
    }

    #[test]
    fn delta_roundtrips_bit_for_bit() {
        let rec = Record::Delta {
            epoch: 42,
            batch: sample_batch(),
        };
        let framed = rec.encode_framed();
        match decode_framed(&framed, 0).unwrap() {
            Framed::Complete(got, end) => {
                assert_eq!(got, rec);
                assert_eq!(end, framed.len());
            }
            Framed::Torn => panic!("complete record decoded as torn"),
        }
    }

    #[test]
    fn checkpoint_roundtrips_through_graph() {
        let mut g = graph_from(&[0, 1, 2, 1], &[(0, 1), (1, 2), (3, 0), (2, 2)]);
        g.apply(&Update::insert(NodeId(1), NodeId(3)));
        let rec = Record::checkpoint_of(&g);
        assert_eq!(rec.epoch(), 1);
        let framed = rec.encode_framed();
        let Framed::Complete(got, _) = decode_framed(&framed, 0).unwrap() else {
            panic!("torn");
        };
        let restored = got.restore_graph().unwrap();
        assert_eq!(restored.epoch(), g.epoch());
        assert_eq!(restored.node_count(), g.node_count());
        assert_eq!(restored.sorted_edges(), g.sorted_edges());
        for v in g.nodes() {
            assert_eq!(restored.label(v), g.label(v));
        }
        // Deterministic encoding: same state, same bytes.
        assert_eq!(Record::checkpoint_of(&restored).encode_framed(), framed);
    }

    /// The bytes as lowercase hex.
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `framed` is the version-1 frame `v1` with the length prefix's
    /// checksum inserted after the prefix: version 2 changed only the
    /// frame header.
    fn is_v1_with_a_sealed_length(framed: &[u8], v1: &str) {
        let seal = hex(&crc32(&framed[..4]).to_le_bytes());
        assert_eq!(hex(framed), format!("{}{seal}{}", &v1[..8], &v1[8..]));
    }

    /// One delta frame as the byte-at-a-time CRC and the two-buffer encoder
    /// wrote it (version 1), and with its length sealed (version 2):
    /// journals written now must keep encoding — and so decoding —
    /// byte-for-byte.
    #[test]
    fn delta_frame_is_frozen() {
        const V1: &str = "3d000000022a0000000000000004000000000000000001000000040100000007\
                          0000000300000006080000000900000001000000020000000102000000000000\
                          0097d10448";
        const FROZEN: &str = "3d00000060ff0523022a00000000000000040000000000000000010000000401\
                              0000000700000003000000060800000009000000010000000200000001020000\
                              000000000097d10448";
        let rec = Record::Delta {
            epoch: 42,
            batch: sample_batch(),
        };
        let framed = rec.encode_framed();
        assert_eq!(hex(&framed), FROZEN);
        is_v1_with_a_sealed_length(&framed, V1);
        match decode_framed(&framed, 0).unwrap() {
            Framed::Complete(got, end) => assert_eq!((got, end), (rec, framed.len())),
            Framed::Torn => panic!("complete record decoded as torn"),
        }
    }

    /// One checkpoint frame of a graph whose adjacency lists are out of
    /// order: the hub's out-list was filled in reverse and lost an entry
    /// to a swap-remove, its in-list likewise; a self-loop, and a fresh
    /// labelled node with edges both ways. Equal graph states must keep
    /// encoding to these bytes (version 1, and version 2 with its length
    /// sealed).
    #[test]
    fn checkpoint_frame_is_frozen() {
        const V1: &str = "8100000001010000000000000006000000040000000100000002000000010000\
                          0000000000090000000b00000000000000010000000000000003000000010000\
                          0000000000020000000000000002000000020000000300000001000000030000\
                          0005000000040000000000000004000000020000000500000000000000050000\
                          0001000000b0162a6e";
        const FROZEN: &str = "81000000420ea174010100000000000000060000000400000001000000020000\
                              000100000000000000090000000b000000000000000100000000000000030000\
                              0001000000000000000200000000000000020000000200000003000000010000\
                              0003000000050000000400000000000000040000000200000005000000000000\
                              000500000001000000b0162a6e";
        let mut g = DynamicGraph::new();
        for l in [4, 1, 2, 1, 0] {
            g.add_node(Label(l));
        }
        let hub = NodeId(0);
        for w in (1..5).rev() {
            g.insert_edge(hub, NodeId(w));
            g.insert_edge(NodeId(w), hub);
        }
        g.insert_edge(NodeId(3), NodeId(1));
        g.insert_edge(NodeId(4), NodeId(2));
        g.insert_edge(NodeId(2), NodeId(2));
        g.delete_edge(hub, NodeId(4));
        g.delete_edge(NodeId(3), hub);
        g.apply_batch(&UpdateBatch::from_updates(vec![
            Update::insert_labeled(NodeId(3), NodeId(5), None, Some(Label(9))),
            Update::insert(NodeId(5), NodeId(1)),
            Update::insert(NodeId(5), hub),
            Update::delete(hub, NodeId(2)),
        ]));
        assert_ne!(
            g.edges().collect::<Vec<_>>(),
            g.sorted_edges(),
            "the lists must be out of order"
        );
        let framed = Record::checkpoint_of(&g).encode_framed();
        assert_eq!(hex(&framed), FROZEN);
        is_v1_with_a_sealed_length(&framed, V1);
        let Framed::Complete(got, end) = decode_framed(&framed, 0).unwrap() else {
            panic!("complete record decoded as torn");
        };
        assert_eq!(end, framed.len());
        assert_eq!(
            got.restore_graph().unwrap().sorted_edges(),
            g.sorted_edges()
        );
    }

    #[test]
    fn torn_tail_is_not_corruption() {
        let rec = Record::Delta {
            epoch: 7,
            batch: sample_batch(),
        };
        let framed = rec.encode_framed();
        for cut in 0..framed.len() {
            match decode_framed(&framed[..cut], 0) {
                Ok(Framed::Torn) => {}
                other => panic!("prefix of {cut} bytes should be torn, got {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flip_is_corruption() {
        let rec = Record::Delta {
            epoch: 7,
            batch: sample_batch(),
        };
        let mut framed = rec.encode_framed();
        // Flip a payload byte: checksum must catch it.
        let mid = framed.len() / 2;
        framed[mid] ^= 0x40;
        assert!(decode_framed(&framed, 0).is_err());
    }

    /// One delta frame (deletes and labelled inserts) and one checkpoint
    /// frame, as the mutation tests below damage them.
    fn sample_frames() -> [Vec<u8>; 2] {
        let delta = Record::Delta {
            epoch: 7,
            batch: sample_batch(),
        };
        let g = graph_from(&[0, 1, 2, 1], &[(0, 1), (1, 2), (3, 0), (2, 2)]);
        let checkpoint = Record::checkpoint_of(&g);
        [delta.encode_framed(), checkpoint.encode_framed()]
    }

    /// Every truncation of a frame reads as a torn tail, and every
    /// single-bit flip at every offset as corruption: never as a torn tail
    /// (the length prefix is sealed), never as a complete record, and
    /// never as a panic.
    #[test]
    fn every_flip_and_cut_of_a_frame_is_torn_or_corrupt() {
        for framed in sample_frames() {
            for cut in 0..framed.len() {
                let got = decode_framed(&framed[..cut], 0);
                assert!(matches!(got, Ok(Framed::Torn)), "cut {cut}: {got:?}");
            }
            for offset in 0..framed.len() {
                for bit in 0..8 {
                    let mut flipped = framed.clone();
                    flipped[offset] ^= 1 << bit;
                    let got = decode_framed(&flipped, 0);
                    assert!(got.is_err(), "offset {offset} bit {bit}: {got:?}");
                }
            }
        }
    }

    /// With the checksum bypassed, every single-bit flip of a bare body
    /// decodes to `Ok` or `Err` without a panic, and every checkpoint it
    /// decodes to restores (or refuses to) without one.
    #[test]
    fn a_flipped_body_decodes_or_errs_without_a_panic() {
        for framed in sample_frames() {
            let body = &framed[FRAME_HEADER_BYTES..framed.len() - 4];
            for offset in 0..body.len() {
                for bit in 0..8 {
                    let mut flipped = body.to_vec();
                    flipped[offset] ^= 1 << bit;
                    if let Ok(rec @ Record::Checkpoint { .. }) = Record::decode_body(&flipped) {
                        let _ = rec.restore_graph();
                    }
                }
            }
        }
    }

    #[test]
    fn restore_graph_rejects_out_of_range_edges() {
        let rec = Record::Checkpoint {
            epoch: 0,
            labels: vec![Label(0), Label(1)],
            edges: vec![(NodeId(0), NodeId(5))],
        };
        let err = rec.restore_graph().unwrap_err();
        assert!(err.contains("past |V|"), "{err}");
    }

    #[test]
    fn segment_header_roundtrip() {
        let h = segment_header();
        assert_eq!(check_segment_header(&h).unwrap(), SEGMENT_HEADER_BYTES);
        let mut bad = h;
        bad[0] = b'X';
        assert!(check_segment_header(&bad).is_err());
        let mut wrong_version = h;
        wrong_version[4] = 99;
        assert!(check_segment_header(&wrong_version).is_err());
        // A version-1 journal (unsealed length prefixes) no longer opens.
        let mut v1 = h;
        v1[4] = 1;
        let err = check_segment_header(&v1).unwrap_err();
        assert!(err.contains("unsupported format version 1"), "{err}");
        assert!(check_segment_header(&h[..4]).is_err());
    }
}

//! Append-only write-ahead log for the durable `GraphService`.
//!
//! GraphD (Yan et al.) restarts a small-cluster out-of-core engine cheaply
//! because everything that matters is already on disk and the volatile
//! rest is covered by lightweight logging. The service layer follows the
//! same recipe: graph payloads, checkpoints and spill files already live
//! on the VFS, so durability only needs a single append-only log of the
//! *control-plane* state — graph registrations, admissions, and per-job
//! master snapshots cut at superstep barriers.
//!
//! This module owns the framing; the service crate owns record semantics.
//! A log is a header followed by records:
//!
//! ```text
//! magic u32 | version u32 | codec u8           (header, written once)
//! kind u8 | body_len u64 | body | total u64    (each record)
//! ```
//!
//! The trailing `total` word (the full record length including itself) is
//! the commit marker: a record is durable iff its trailer is present and
//! consistent, exactly like [`crate::checkpoint`] files. Replay walks the
//! file front to back and stops at the first record whose framing does not
//! check out — a torn tail from a crash mid-append — then truncates the
//! file back to the clean prefix, so the next append continues from a
//! consistent state. Appends happen in commit order and each record is one
//! classified sequential write; on a real-directory VFS the append is a
//! positional `write_all_at`, so the modeled fsync order *is* the append
//! order.
//!
//! With a non-`None` codec the body is wrapped in one self-describing
//! blob frame and accounted physical-vs-logical like every other coded
//! write in this crate.

use crate::stats::AccessClass;
use crate::vfs::{Vfs, VfsFile};
use hybridgraph_codec::{decode_blob_frame, encode_blob_frame, CodecChoice};
use hybridgraph_graph::{Edge, Graph, VertexId};
use std::io;

/// File magic: `HGSL` little-endian.
pub const SERVICE_LOG_MAGIC: u32 = 0x4c53_4748;
/// Format version.
pub const SERVICE_LOG_VERSION: u32 = 1;
/// The log's VFS file name.
pub const SERVICE_LOG_FILE: &str = "service_log";

const HEADER_BYTES: u64 = 4 + 4 + 1;

fn corrupt(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt service log: {what}"),
    )
}

/// Stable single-byte tag for a codec choice (log header and catalog
/// payloads both persist it).
pub fn codec_tag(codec: CodecChoice) -> u8 {
    match codec {
        CodecChoice::None => 0,
        CodecChoice::Gaps => 1,
        // 2 and 3 were the retired `block` and `auto` choices; they stay
        // unassigned so old bytes fail typed instead of changing meaning.
        CodecChoice::Bv => 4,
    }
}

/// Inverse of [`codec_tag`]; rejects unknown bytes.
pub fn codec_from_tag(tag: u8) -> io::Result<CodecChoice> {
    Ok(match tag {
        0 => CodecChoice::None,
        1 => CodecChoice::Gaps,
        4 => CodecChoice::Bv,
        _ => return Err(corrupt("unknown codec tag")),
    })
}

/// One replayed record: the service-defined kind byte plus its decoded
/// body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecord {
    /// Service-defined record type.
    pub kind: u8,
    /// Decoded (post-codec) body bytes.
    pub body: Vec<u8>,
}

/// An open, append-positioned write-ahead log.
pub struct ServiceLog {
    file: VfsFile,
    codec: CodecChoice,
}

impl ServiceLog {
    /// Creates a fresh (truncated) log on `vfs` and writes the header.
    pub fn create(vfs: &dyn Vfs, codec: CodecChoice) -> io::Result<ServiceLog> {
        let file = vfs.create(SERVICE_LOG_FILE)?;
        let mut hdr = Vec::with_capacity(HEADER_BYTES as usize);
        hdr.extend_from_slice(&SERVICE_LOG_MAGIC.to_le_bytes());
        hdr.extend_from_slice(&SERVICE_LOG_VERSION.to_le_bytes());
        hdr.push(codec_tag(codec));
        file.append(AccessClass::SeqWrite, &hdr)?;
        Ok(ServiceLog { file, codec })
    }

    /// True if a log exists on `vfs`.
    pub fn exists(vfs: &dyn Vfs) -> bool {
        vfs.exists(SERVICE_LOG_FILE)
    }

    /// Opens an existing log, replays every committed record, truncates
    /// any torn tail left by a crash mid-append, and returns the log
    /// positioned for further appends plus the replayed records in commit
    /// order.
    pub fn open(vfs: &dyn Vfs) -> io::Result<(ServiceLog, Vec<LogRecord>)> {
        let file = vfs.open(SERVICE_LOG_FILE)?;
        let data = file.read_all(AccessClass::SeqRead)?;
        if (data.len() as u64) < HEADER_BYTES {
            return Err(corrupt("file shorter than header"));
        }
        let magic = u32::from_le_bytes(data[0..4].try_into().unwrap());
        if magic != SERVICE_LOG_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = u32::from_le_bytes(data[4..8].try_into().unwrap());
        if version != SERVICE_LOG_VERSION {
            return Err(corrupt("unsupported version"));
        }
        let codec = codec_from_tag(data[8])?;

        let mut records = Vec::new();
        let mut pos = HEADER_BYTES as usize;
        let mut decoded_extra = 0u64;
        // Walk committed records; the first framing violation marks the
        // torn tail and everything from there on is discarded.
        loop {
            let start = pos;
            if data.len() - pos < 1 + 8 {
                break;
            }
            let kind = data[pos];
            let body_len = u64::from_le_bytes(data[pos + 1..pos + 9].try_into().unwrap()) as usize;
            let rest = data.len() - (pos + 9);
            if body_len > rest || rest - body_len < 8 {
                break;
            }
            let body_start = pos + 9;
            let total = u64::from_le_bytes(
                data[body_start + body_len..body_start + body_len + 8]
                    .try_into()
                    .unwrap(),
            );
            if total != (1 + 8 + body_len + 8) as u64 {
                break;
            }
            let stored = &data[body_start..body_start + body_len];
            let body = if codec.is_none() {
                stored.to_vec()
            } else {
                let mut fpos = 0usize;
                let raw = match decode_blob_frame(stored, &mut fpos) {
                    Ok(raw) if fpos == stored.len() => raw,
                    // A framing-consistent record whose blob frame does
                    // not decode is corruption, not a torn tail.
                    _ => return Err(corrupt("blob frame mismatch")),
                };
                decoded_extra += (raw.len() as u64).saturating_sub(stored.len() as u64);
                raw
            };
            records.push(LogRecord { kind, body });
            pos = start + total as usize;
        }
        if pos < data.len() {
            file.truncate_to(pos as u64)?;
        }
        // The whole-file read charged logical == physical; top up to the
        // decoded logical size (coded logs only).
        vfs.stats()
            .record_logical(AccessClass::SeqRead, decoded_extra);
        Ok((ServiceLog { file, codec }, records))
    }

    /// The codec every record body is wrapped with.
    pub fn codec(&self) -> CodecChoice {
        self.codec
    }

    /// Appends one record as a single classified sequential write and
    /// returns the physical bytes written. The record is committed by its
    /// trailing length word — a crash before the append completes leaves
    /// a torn tail that [`ServiceLog::open`] discards.
    pub fn append(&self, kind: u8, body: &[u8]) -> io::Result<u64> {
        let stored: Vec<u8>;
        let (payload, logical_body): (&[u8], u64) = if self.codec.is_none() {
            (body, body.len() as u64)
        } else {
            stored = encode_blob_frame(self.codec, body);
            (&stored, body.len() as u64)
        };
        let mut rec = Vec::with_capacity(1 + 8 + payload.len() + 8);
        rec.push(kind);
        rec.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        rec.extend_from_slice(payload);
        let total = (rec.len() + 8) as u64;
        rec.extend_from_slice(&total.to_le_bytes());
        if self.codec.is_none() {
            self.file.append(AccessClass::SeqWrite, &rec)?;
        } else {
            let logical = 1 + 8 + logical_body + 8;
            self.file
                .append_coded(AccessClass::SeqWrite, &rec, logical)?;
        }
        Ok(total)
    }

    /// Current log length in bytes (header included).
    pub fn len_bytes(&self) -> u64 {
        self.file.len()
    }
}

// ------------------------------------------------------- payload codecs

/// Accumulates a record body field by field (little-endian, f64 by bit
/// pattern — the same conventions as [`crate::checkpoint`]).
#[derive(Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// An empty payload.
    pub fn new() -> PayloadWriter {
        PayloadWriter::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends an `f64` by bit pattern (bit-exact restore).
    pub fn put_f64(&mut self, x: f64) {
        self.put_u64(x.to_bits());
    }

    /// Appends a length-prefixed byte run.
    pub fn put_bytes(&mut self, data: &[u8]) {
        self.put_u64(data.len() as u64);
        self.buf.extend_from_slice(data);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// The finished body.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes accumulated so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Walks a record body field by field, mirroring [`PayloadWriter`].
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// A reader over `buf` starting at its first field.
    pub fn new(buf: &'a [u8]) -> PayloadReader<'a> {
        PayloadReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        // `n` comes from on-disk data: compare without `pos + n`, which a
        // corrupt length near `usize::MAX` would overflow.
        if n > self.buf.len() - self.pos {
            return Err(corrupt("field past end"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` by bit pattern.
    pub fn get_f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed byte run.
    pub fn get_bytes(&mut self) -> io::Result<Vec<u8>> {
        let n = self.get_u64()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> io::Result<String> {
        String::from_utf8(self.get_bytes()?).map_err(|_| corrupt("invalid utf-8"))
    }

    /// True once every field has been consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ------------------------------------------------------- graph payloads

/// Serializes a graph into the body of a registration record:
/// `n u64 | m u64 | out-degree u32 per vertex | (dst u32, weight f32) per
/// edge`, all little-endian — the workspace's standard binary graph
/// layout, so a restore rebuilds the CSR without re-parsing any source.
pub fn encode_graph(g: &Graph) -> Vec<u8> {
    let n = g.num_vertices();
    let m = g.num_edges();
    let mut out = Vec::with_capacity(16 + 4 * n + 8 * m);
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(m as u64).to_le_bytes());
    for v in g.vertices() {
        out.extend_from_slice(&(g.out_degree(v) as u32).to_le_bytes());
    }
    for v in g.vertices() {
        for e in g.out_edges(v) {
            out.extend_from_slice(&e.dst.0.to_le_bytes());
            out.extend_from_slice(&e.weight.to_le_bytes());
        }
    }
    out
}

/// Rebuilds a graph from [`encode_graph`] bytes.
pub fn decode_graph(buf: &[u8]) -> io::Result<Graph> {
    let mut r = PayloadReader::new(buf);
    let (n, m) = (r.get_u64()?, r.get_u64()?);
    // Both counts are untrusted: they must describe exactly this buffer
    // before either sizes an allocation.
    let want = n
        .checked_mul(4)
        .zip(m.checked_mul(8))
        .and_then(|(degrees, edges)| degrees.checked_add(edges)?.checked_add(16));
    if want != Some(buf.len() as u64) {
        return Err(corrupt("graph payload length does not match its header"));
    }
    let (n, m) = (n as usize, m as usize);
    let mut offsets = Vec::with_capacity(n + 1);
    let mut off = 0u64;
    offsets.push(0);
    for _ in 0..n {
        off += r.get_u32()? as u64;
        offsets.push(off);
    }
    if off != m as u64 {
        return Err(corrupt("degree sum does not match edge count"));
    }
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let dst = r.get_u32()?;
        let weight = f32::from_bits(r.get_u32()?);
        edges.push(Edge::weighted(VertexId(dst), weight));
    }
    Ok(Graph::from_parts(offsets, edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    #[test]
    fn roundtrip_records_in_commit_order() {
        let vfs = MemVfs::new();
        let log = ServiceLog::create(&vfs, CodecChoice::None).unwrap();
        log.append(1, b"first").unwrap();
        log.append(2, b"").unwrap();
        log.append(1, b"third").unwrap();

        let (log, recs) = ServiceLog::open(&vfs).unwrap();
        assert_eq!(
            recs,
            vec![
                LogRecord {
                    kind: 1,
                    body: b"first".to_vec()
                },
                LogRecord {
                    kind: 2,
                    body: Vec::new()
                },
                LogRecord {
                    kind: 1,
                    body: b"third".to_vec()
                },
            ]
        );
        // The reopened log keeps appending after the clean tail.
        log.append(3, b"fourth").unwrap();
        let (_, recs) = ServiceLog::open(&vfs).unwrap();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[3].kind, 3);
    }

    #[test]
    fn torn_tail_is_discarded_and_healed() {
        let vfs = MemVfs::new();
        let log = ServiceLog::create(&vfs, CodecChoice::None).unwrap();
        log.append(1, b"committed").unwrap();
        let clean_len = log.len_bytes();
        log.append(2, b"torn-record-body").unwrap();
        // Simulate a crash mid-append: chop into the last record.
        let file = vfs.open(SERVICE_LOG_FILE).unwrap();
        file.truncate_to(log.len_bytes() - 9).unwrap();

        let (log, recs) = ServiceLog::open(&vfs).unwrap();
        assert_eq!(recs.len(), 1, "only the committed record survives");
        assert_eq!(recs[0].body, b"committed");
        assert_eq!(log.len_bytes(), clean_len, "tail truncated to clean prefix");
        // Appending after the heal produces a fully consistent log.
        log.append(3, b"after-heal").unwrap();
        let (_, recs) = ServiceLog::open(&vfs).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].body, b"after-heal");
    }

    #[test]
    fn torn_trailer_is_discarded() {
        let vfs = MemVfs::new();
        let log = ServiceLog::create(&vfs, CodecChoice::None).unwrap();
        log.append(1, b"ok").unwrap();
        log.append(2, b"no-trailer").unwrap();
        let file = vfs.open(SERVICE_LOG_FILE).unwrap();
        // Chop exactly the commit trailer off the final record.
        file.truncate_to(log.len_bytes() - 8).unwrap();
        let (_, recs) = ServiceLog::open(&vfs).unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn coded_log_roundtrips_and_accounts_both_sides() {
        let vfs = MemVfs::new();
        let log = ServiceLog::create(&vfs, CodecChoice::Bv).unwrap();
        let body = vec![7u8; 4096]; // highly compressible
        let physical = log.append(4, &body).unwrap();
        assert!(
            physical < body.len() as u64,
            "coded record must shrink this body"
        );
        let snap = vfs.stats().snapshot();
        assert!(snap.seq_write_logical_bytes > snap.seq_write_bytes);

        let (log, recs) = ServiceLog::open(&vfs).unwrap();
        assert_eq!(log.codec(), CodecChoice::Bv);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].kind, 4);
        assert_eq!(recs[0].body, body);
        let snap = vfs.stats().snapshot();
        assert!(snap.seq_read_logical_bytes > snap.seq_read_bytes);
    }

    #[test]
    fn bad_magic_rejected() {
        let vfs = MemVfs::new();
        vfs.create(SERVICE_LOG_FILE)
            .unwrap()
            .append(AccessClass::SeqWrite, b"not a log at all")
            .unwrap();
        assert!(ServiceLog::open(&vfs).is_err());
    }

    #[test]
    fn payload_writer_reader_roundtrip() {
        let mut w = PayloadWriter::new();
        w.put_u8(9);
        w.put_u32(77);
        w.put_u64(u64::MAX - 3);
        w.put_f64(-0.25);
        w.put_bytes(&[1, 2, 3]);
        w.put_str("pagerank-a");
        let body = w.into_bytes();

        let mut r = PayloadReader::new(&body);
        assert_eq!(r.get_u8().unwrap(), 9);
        assert_eq!(r.get_u32().unwrap(), 77);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f64().unwrap(), -0.25);
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_str().unwrap(), "pagerank-a");
        assert!(r.done());
        assert!(r.get_u8().is_err());
    }

    #[test]
    fn graph_blob_roundtrip() {
        let offsets = vec![0u64, 2, 2, 5];
        let edges = vec![
            Edge::weighted(VertexId(1), 1.0),
            Edge::weighted(VertexId(2), 0.5),
            Edge::weighted(VertexId(0), 2.0),
            Edge::weighted(VertexId(1), -1.5),
            Edge::weighted(VertexId(2), 0.0),
        ];
        let g = Graph::from_parts(offsets, edges);
        let blob = encode_graph(&g);
        let h = decode_graph(&blob).unwrap();
        assert_eq!(h.num_vertices(), g.num_vertices());
        assert_eq!(h.num_edges(), g.num_edges());
        for v in g.vertices() {
            assert_eq!(h.out_edges(v), g.out_edges(v));
        }
        assert!(decode_graph(&blob[..blob.len() - 1]).is_err());
        let mut trailing = blob.clone();
        trailing.push(0);
        assert!(decode_graph(&trailing).is_err());
        // Counts that would overflow or ask for terabytes fail before any
        // allocation.
        for (n, m) in [(1u64 << 40, 0u64), (0, 1 << 60), (u64::MAX, u64::MAX)] {
            let mut bad = n.to_le_bytes().to_vec();
            bad.extend_from_slice(&m.to_le_bytes());
            bad.extend_from_slice(&[0; 14]);
            let err = decode_graph(&bad).map(|_| ()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "n={n} m={m}");
        }
    }
}

//! Sender-side outgoing-message logs for confined recovery.
//!
//! Pregel's confined recovery ("Pregel: a system for large-scale graph
//! processing", §4.2) avoids rolling the whole cluster back to a
//! checkpoint by having every worker *log its outgoing messages* at the
//! end of each superstep. When a worker dies, only that worker reloads
//! its checkpoint; the survivors keep their state and merely re-serve
//! the logged messages while the respawned worker recomputes its own
//! partition. For an out-of-core engine this is exactly the right
//! trade: the log costs one **classified sequential write** per
//! superstep (cheap, append-only, I/O-accounted like everything else),
//! and recovery avoids re-doing every survivor's compute and disk I/O.
//!
//! A log *segment* is one file per `(worker, superstep)` holding the
//! packets that worker sent to **remote** peers during that superstep,
//! in send order. This crate stores them opaquely as
//! `(destination, byte-blob)` entries — the wire format of the blobs
//! belongs to the network layer, which sits above storage. The framing
//! mirrors [`crate::checkpoint`]:
//!
//! ```text
//! magic u32 | version u32 | superstep u64 | count u64
//! | (dest u32, len u64, bytes...)*  | total-length trailer u64
//! ```
//!
//! The trailer lets recovery distinguish a *committed-but-empty*
//! segment (the superstep genuinely produced no remote traffic —
//! possible, e.g. push supersteps with no active vertices) from a
//! *truncated or missing* one, in which case confined recovery is
//! impossible and the engine falls back to a global rollback.
//!
//! Segments at or below a checkpointed superstep can never be replayed
//! (recovery always restarts *after* a checkpoint) and are pruned when
//! the checkpoint commits.

use crate::stats::AccessClass;
use crate::vfs::Vfs;
use hybridgraph_codec::{decode_blob_frame, encode_blob_frame, CodecChoice};
use std::io;

/// File magic: `HGML` little-endian.
pub const MSG_LOG_MAGIC: u32 = 0x4c4d_4748;
/// Format version for plain (uncompressed) segments.
pub const MSG_LOG_VERSION: u32 = 1;
/// Format version when the entry body is wrapped in one codec blob frame.
pub const MSG_LOG_VERSION_CODED: u32 = 2;

const HEADER_BYTES: usize = 4 + 4 + 8 + 8;

/// The VFS file name of the log segment for `superstep`.
pub fn msg_log_file_name(superstep: u64) -> String {
    format!("msglog_{superstep:012}")
}

/// True if a committed log segment for `superstep` exists in `vfs`.
pub fn has_log_segment(vfs: &dyn Vfs, superstep: u64) -> bool {
    vfs.exists(&msg_log_file_name(superstep))
}

/// Removes the log segment for `superstep`, if present (pruned once a
/// checkpoint at or after it commits).
pub fn remove_log_segment(vfs: &dyn Vfs, superstep: u64) -> io::Result<()> {
    vfs.remove(&msg_log_file_name(superstep))
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt message log: {what}"),
    )
}

/// Accumulates one superstep's outgoing remote packets and commits them
/// as a single classified sequential write.
pub struct MsgLogWriter {
    superstep: u64,
    count: u64,
    buf: Vec<u8>,
}

impl MsgLogWriter {
    /// A writer for the log segment of `superstep`.
    pub fn new(superstep: u64) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MSG_LOG_MAGIC.to_le_bytes());
        buf.extend_from_slice(&MSG_LOG_VERSION.to_le_bytes());
        buf.extend_from_slice(&superstep.to_le_bytes());
        // Entry count: patched at commit.
        buf.extend_from_slice(&0u64.to_le_bytes());
        MsgLogWriter {
            superstep,
            count: 0,
            buf,
        }
    }

    /// Appends one logged packet: its destination worker and its
    /// network-layer encoding.
    pub fn push(&mut self, dest: u32, blob: &[u8]) {
        self.count += 1;
        self.buf.extend_from_slice(&dest.to_le_bytes());
        self.buf
            .extend_from_slice(&(blob.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(blob);
    }

    /// Entries appended so far.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True if nothing has been appended. An empty segment is still
    /// worth committing: its presence proves the superstep produced no
    /// remote traffic.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Writes the segment to `vfs` as one sequential write and returns
    /// the total bytes written. Any prior segment for the same
    /// superstep is truncated (re-execution after a rollback regenerates
    /// bit-identical traffic, so overwriting is safe).
    pub fn commit(self, vfs: &dyn Vfs) -> io::Result<u64> {
        self.commit_with(vfs, CodecChoice::None)
    }

    /// Like [`MsgLogWriter::commit`], but with a codec the entry body is
    /// wrapped in one blob frame (format version 2) and the write is
    /// accounted physical-vs-logical. Returns the physical bytes written.
    pub fn commit_with(mut self, vfs: &dyn Vfs, codec: CodecChoice) -> io::Result<u64> {
        self.buf[16..24].copy_from_slice(&self.count.to_le_bytes());
        let file = vfs.create(&msg_log_file_name(self.superstep))?;
        if codec.is_none() {
            let total = self.buf.len() as u64 + 8;
            self.buf.extend_from_slice(&total.to_le_bytes());
            file.append(AccessClass::SeqWrite, &self.buf)?;
            return Ok(total);
        }
        let logical = self.buf.len() as u64 + 8; // what version 1 would write
        let body = &self.buf[HEADER_BYTES..];
        let mut out = Vec::with_capacity(HEADER_BYTES + body.len() / 2 + 16);
        out.extend_from_slice(&MSG_LOG_MAGIC.to_le_bytes());
        out.extend_from_slice(&MSG_LOG_VERSION_CODED.to_le_bytes());
        out.extend_from_slice(&self.superstep.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&encode_blob_frame(codec, body));
        let total = out.len() as u64 + 8;
        out.extend_from_slice(&total.to_le_bytes());
        file.append_coded(AccessClass::SeqWrite, &out, logical)?;
        Ok(total)
    }
}

/// Reads back a committed log segment, verifying framing as it goes.
/// Accepts both plain (v1) and coded (v2) segments — the file itself
/// says which, so replay needs no codec configuration.
pub struct MsgLogReader {
    body: Vec<u8>,
    pos: usize,
    remaining: u64,
    superstep: u64,
}

impl MsgLogReader {
    /// Opens and validates the log segment for `superstep` (one
    /// sequential read of the whole file). Fails on any framing damage,
    /// which recovery treats as "confined recovery unavailable".
    pub fn open(vfs: &dyn Vfs, superstep: u64) -> io::Result<Self> {
        let file = vfs.open(&msg_log_file_name(superstep))?;
        let data = file.read_all(AccessClass::SeqRead)?;
        if data.len() < HEADER_BYTES + 8 {
            return Err(corrupt("file shorter than header"));
        }
        let magic = u32::from_le_bytes(data[0..4].try_into().unwrap());
        if magic != MSG_LOG_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = u32::from_le_bytes(data[4..8].try_into().unwrap());
        if version != MSG_LOG_VERSION && version != MSG_LOG_VERSION_CODED {
            return Err(corrupt("unsupported version"));
        }
        let ss = u64::from_le_bytes(data[8..16].try_into().unwrap());
        if ss != superstep {
            return Err(corrupt("superstep mismatch"));
        }
        let count = u64::from_le_bytes(data[16..24].try_into().unwrap());
        let trailer = u64::from_le_bytes(data[data.len() - 8..].try_into().unwrap());
        if trailer != data.len() as u64 {
            return Err(corrupt("length trailer mismatch (truncated write?)"));
        }
        let body = if version == MSG_LOG_VERSION {
            data[HEADER_BYTES..data.len() - 8].to_vec()
        } else {
            let mut pos = HEADER_BYTES;
            let raw = decode_blob_frame(&data[..data.len() - 8], &mut pos)
                .map_err(|e| corrupt(&e.to_string()))?;
            if pos != data.len() - 8 {
                return Err(corrupt("coded body length mismatch"));
            }
            // The whole-file read above charged logical == physical; top
            // up to the decoded (v1-equivalent) logical size.
            let logical = (HEADER_BYTES + raw.len() + 8) as u64;
            vfs.stats().record_logical(
                AccessClass::SeqRead,
                logical.saturating_sub(data.len() as u64),
            );
            raw
        };
        Ok(MsgLogReader {
            body,
            pos: 0,
            remaining: count,
            superstep,
        })
    }

    /// The superstep this segment logged.
    pub fn superstep(&self) -> u64 {
        self.superstep
    }

    /// Entries not yet read.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Reads the next `(destination, blob)` entry, or `None` after the
    /// last one. Errors on framing damage mid-file.
    #[allow(clippy::type_complexity)]
    pub fn next_entry(&mut self) -> io::Result<Option<(u32, Vec<u8>)>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let end = self.body.len();
        if self.pos + 12 > end {
            return Err(corrupt("entry header past end"));
        }
        let dest = u32::from_le_bytes(self.body[self.pos..self.pos + 4].try_into().unwrap());
        let len =
            u64::from_le_bytes(self.body[self.pos + 4..self.pos + 12].try_into().unwrap()) as usize;
        self.pos += 12;
        // `len` comes from on-disk data: compare without `pos + len`,
        // which a corrupt length near `usize::MAX` would overflow.
        if len > end - self.pos {
            return Err(corrupt("entry body past end"));
        }
        let blob = self.body[self.pos..self.pos + len].to_vec();
        self.pos += len;
        self.remaining -= 1;
        Ok(Some((dest, blob)))
    }

    /// Reads every remaining entry.
    #[allow(clippy::type_complexity)]
    pub fn read_all_entries(&mut self) -> io::Result<Vec<(u32, Vec<u8>)>> {
        let mut out = Vec::with_capacity(self.remaining as usize);
        while let Some(e) = self.next_entry()? {
            out.push(e);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    #[test]
    fn roundtrip_in_order() {
        let vfs = MemVfs::new();
        let mut w = MsgLogWriter::new(5);
        assert!(w.is_empty());
        w.push(2, b"alpha");
        w.push(0, b"");
        w.push(2, b"beta");
        assert_eq!(w.len(), 3);
        let bytes = w.commit(&vfs).unwrap();
        assert!(has_log_segment(&vfs, 5));
        assert!(!has_log_segment(&vfs, 6));

        let mut r = MsgLogReader::open(&vfs, 5).unwrap();
        assert_eq!(r.superstep(), 5);
        assert_eq!(r.remaining(), 3);
        let all = r.read_all_entries().unwrap();
        assert_eq!(
            all,
            vec![
                (2, b"alpha".to_vec()),
                (0, Vec::new()),
                (2, b"beta".to_vec())
            ]
        );
        assert!(r.next_entry().unwrap().is_none());
        // One classified sequential write, mirrored by one read.
        let snap = vfs.stats().snapshot();
        assert_eq!(snap.seq_write_bytes, bytes);
        assert_eq!(snap.seq_write_ops, 1);
        assert_eq!(snap.seq_read_bytes, bytes);
    }

    #[test]
    fn empty_segment_is_committed_and_distinct_from_missing() {
        let vfs = MemVfs::new();
        MsgLogWriter::new(9).commit(&vfs).unwrap();
        assert!(has_log_segment(&vfs, 9));
        let mut r = MsgLogReader::open(&vfs, 9).unwrap();
        assert_eq!(r.remaining(), 0);
        assert!(r.next_entry().unwrap().is_none());
        // A missing segment is an error, not an empty iterator.
        assert!(MsgLogReader::open(&vfs, 10).is_err());
    }

    #[test]
    fn truncated_segment_rejected() {
        let vfs = MemVfs::new();
        let mut w = MsgLogWriter::new(2);
        w.push(1, &[7u8; 100]);
        w.commit(&vfs).unwrap();
        let full = vfs
            .open(&msg_log_file_name(2))
            .unwrap()
            .read_all(AccessClass::SeqRead)
            .unwrap();
        let f = vfs.create(&msg_log_file_name(2)).unwrap();
        f.append(AccessClass::SeqWrite, &full[..full.len() - 9])
            .unwrap();
        assert!(MsgLogReader::open(&vfs, 2).is_err());
    }

    #[test]
    fn superstep_mismatch_rejected() {
        let vfs = MemVfs::new();
        MsgLogWriter::new(4).commit(&vfs).unwrap();
        let data = vfs
            .open(&msg_log_file_name(4))
            .unwrap()
            .read_all(AccessClass::SeqRead)
            .unwrap();
        vfs.create(&msg_log_file_name(6))
            .unwrap()
            .append(AccessClass::SeqWrite, &data)
            .unwrap();
        assert!(MsgLogReader::open(&vfs, 6).is_err());
    }

    #[test]
    fn coded_segment_roundtrips_and_accounts_both_sides() {
        for codec in [CodecChoice::Gaps, CodecChoice::Bv] {
            let vfs = MemVfs::new();
            let mut w = MsgLogWriter::new(7);
            for i in 0..40u32 {
                w.push(i % 3, &[b'x'; 200]);
            }
            let physical = w.commit_with(&vfs, codec).unwrap();
            let wsnap = vfs.stats().snapshot();
            // Gaps is structure-aware only: its blob frames stay raw.
            if !matches!(codec, CodecChoice::Gaps) {
                assert!(physical < wsnap.seq_write_logical_bytes, "{codec:?}");
            }
            assert_eq!(wsnap.seq_write_bytes, physical);

            let mut r = MsgLogReader::open(&vfs, 7).unwrap();
            assert_eq!(r.remaining(), 40);
            let all = r.read_all_entries().unwrap();
            assert_eq!(all.len(), 40);
            for (i, (dest, blob)) in all.iter().enumerate() {
                assert_eq!(*dest, i as u32 % 3);
                assert_eq!(blob, &vec![b'x'; 200]);
            }
            let rsnap = vfs.stats().snapshot();
            assert_eq!(rsnap.seq_read_bytes, physical);
            // Read logical is max(physical, v1 size): the whole-file read
            // charges logical == physical up front, then tops up.
            assert_eq!(
                rsnap.seq_read_logical_bytes,
                wsnap.seq_write_logical_bytes.max(physical)
            );
        }
    }

    #[test]
    fn coded_empty_segment_still_committed() {
        let vfs = MemVfs::new();
        MsgLogWriter::new(9)
            .commit_with(&vfs, CodecChoice::Bv)
            .unwrap();
        let mut r = MsgLogReader::open(&vfs, 9).unwrap();
        assert_eq!(r.remaining(), 0);
        assert!(r.next_entry().unwrap().is_none());
    }

    #[test]
    fn prune_is_idempotent() {
        let vfs = MemVfs::new();
        MsgLogWriter::new(1).commit(&vfs).unwrap();
        remove_log_segment(&vfs, 1).unwrap();
        assert!(!has_log_segment(&vfs, 1));
        remove_log_segment(&vfs, 1).unwrap();
    }

    #[test]
    fn overwrite_replaces_previous_segment() {
        let vfs = MemVfs::new();
        let mut w = MsgLogWriter::new(3);
        w.push(0, b"old");
        w.commit(&vfs).unwrap();
        let mut w = MsgLogWriter::new(3);
        w.push(1, b"new");
        w.commit(&vfs).unwrap();
        let all = MsgLogReader::open(&vfs, 3)
            .unwrap()
            .read_all_entries()
            .unwrap();
        assert_eq!(all, vec![(1, b"new".to_vec())]);
    }
}

//! Superstep-boundary checkpoint serialization.
//!
//! Pregel-lineage BSP engines recover from worker failures by replaying
//! from the last *consistent cut*, and in a BSP engine the per-superstep
//! barrier is exactly such a cut (GraphHP's hybrid-BSP analysis makes the
//! same observation). Because HybridGraph's graph and message state are
//! already disk-resident and byte-accounted through the [`Vfs`], a
//! checkpoint is just one more classified sequential write: the engine
//! serializes each worker's recoverable state into a single buffer and
//! appends it to the worker's VFS in one [`AccessClass::SeqWrite`], so
//! checkpoint I/O shows up in `IoStats` — and therefore in modeled time —
//! like every other byte the system moves.
//!
//! The format is a small versioned binary framing (the workspace carries
//! no serde *format* crate, and the engine's records are fixed-width
//! anyway, in the spirit of [`crate::record`]):
//!
//! ```text
//! magic u32 | version u32 | superstep u64 | fields...
//! ```
//!
//! Field encoding is caller-driven via the typed `put_*`/`get_*` pairs of
//! [`CheckpointWriter`] and [`CheckpointReader`]; both sides must agree on
//! the field sequence (the engine's `Worker::write_checkpoint` /
//! `Worker::restore_checkpoint` are the two sides). A trailing length
//! word lets the reader detect truncated files.

use crate::stats::AccessClass;
use crate::vfs::Vfs;
use hybridgraph_codec::{decode_blob_frame, encode_blob_frame, CodecChoice};
use std::io;

/// File magic: `HGCK` little-endian.
pub const CHECKPOINT_MAGIC: u32 = 0x4b43_4748;
/// Format version for plain (uncompressed) checkpoints.
pub const CHECKPOINT_VERSION: u32 = 1;
/// Format version when the field body is wrapped in one codec blob frame.
pub const CHECKPOINT_VERSION_CODED: u32 = 2;

const HEADER_BYTES: usize = 4 + 4 + 8;

/// The VFS file name of the checkpoint taken after `superstep`.
pub fn checkpoint_file_name(superstep: u64) -> String {
    format!("ckpt_{superstep:012}")
}

/// True if a checkpoint for `superstep` exists in `vfs`.
pub fn has_checkpoint(vfs: &dyn Vfs, superstep: u64) -> bool {
    vfs.exists(&checkpoint_file_name(superstep))
}

/// Removes the checkpoint for `superstep`, if present (retention pruning).
pub fn remove_checkpoint(vfs: &dyn Vfs, superstep: u64) -> io::Result<()> {
    vfs.remove(&checkpoint_file_name(superstep))
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt checkpoint: {what}"),
    )
}

/// Accumulates one worker's recoverable state and commits it as a single
/// classified sequential write.
pub struct CheckpointWriter {
    superstep: u64,
    buf: Vec<u8>,
}

impl CheckpointWriter {
    /// A writer for the checkpoint taken after `superstep`.
    pub fn new(superstep: u64) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&CHECKPOINT_MAGIC.to_le_bytes());
        buf.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        buf.extend_from_slice(&superstep.to_le_bytes());
        CheckpointWriter { superstep, buf }
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

    /// Appends a length-prefixed `u64` word run (bitset contents).
    pub fn put_words(&mut self, words: &[u64]) {
        self.put_u64(words.len() as u64);
        for &w in words {
            self.put_u64(w);
        }
    }

    /// Bytes accumulated so far (header included).
    pub fn payload_bytes(&self) -> u64 {
        self.buf.len() as u64
    }

    /// Writes the checkpoint to `vfs` as one sequential write and returns
    /// the total bytes written. Any prior checkpoint for the same
    /// superstep is truncated.
    pub fn commit(self, vfs: &dyn Vfs) -> io::Result<u64> {
        self.commit_with(vfs, CodecChoice::None)
    }

    /// Like [`CheckpointWriter::commit`], but with a codec the field body
    /// is wrapped in one blob frame (format version 2) and the write is
    /// accounted physical-vs-logical. Returns the physical bytes written.
    pub fn commit_with(mut self, vfs: &dyn Vfs, codec: CodecChoice) -> io::Result<u64> {
        let file = vfs.create(&checkpoint_file_name(self.superstep))?;
        if codec.is_none() {
            // Trailing length word: lets the reader detect truncation.
            let total = self.buf.len() as u64 + 8;
            self.buf.extend_from_slice(&total.to_le_bytes());
            file.append(AccessClass::SeqWrite, &self.buf)?;
            return Ok(total);
        }
        let logical = self.buf.len() as u64 + 8; // what version 1 would write
        let body = &self.buf[HEADER_BYTES..];
        let mut out = Vec::with_capacity(HEADER_BYTES + body.len() / 2 + 16);
        out.extend_from_slice(&CHECKPOINT_MAGIC.to_le_bytes());
        out.extend_from_slice(&CHECKPOINT_VERSION_CODED.to_le_bytes());
        out.extend_from_slice(&self.superstep.to_le_bytes());
        out.extend_from_slice(&encode_blob_frame(codec, body));
        let total = out.len() as u64 + 8;
        out.extend_from_slice(&total.to_le_bytes());
        file.append_coded(AccessClass::SeqWrite, &out, logical)?;
        Ok(total)
    }
}

/// Reads back a committed checkpoint, verifying framing as it goes.
/// Accepts both plain (v1) and coded (v2) files — the file itself says
/// which, so no codec configuration is needed to restore.
pub struct CheckpointReader {
    body: Vec<u8>,
    pos: usize,
    superstep: u64,
}

impl CheckpointReader {
    /// Opens and validates the checkpoint for `superstep` (one sequential
    /// read of the whole file).
    pub fn open(vfs: &dyn Vfs, superstep: u64) -> io::Result<Self> {
        let file = vfs.open(&checkpoint_file_name(superstep))?;
        let data = file.read_all(AccessClass::SeqRead)?;
        if data.len() < HEADER_BYTES + 8 {
            return Err(corrupt("file shorter than header"));
        }
        let magic = u32::from_le_bytes(data[0..4].try_into().unwrap());
        if magic != CHECKPOINT_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = u32::from_le_bytes(data[4..8].try_into().unwrap());
        if version != CHECKPOINT_VERSION && version != CHECKPOINT_VERSION_CODED {
            return Err(corrupt("unsupported version"));
        }
        let ss = u64::from_le_bytes(data[8..16].try_into().unwrap());
        if ss != superstep {
            return Err(corrupt("superstep mismatch"));
        }
        let trailer = u64::from_le_bytes(data[data.len() - 8..].try_into().unwrap());
        if trailer != data.len() as u64 {
            return Err(corrupt("length trailer mismatch (truncated write?)"));
        }
        let body = if version == CHECKPOINT_VERSION {
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
        Ok(CheckpointReader {
            body,
            pos: 0,
            superstep,
        })
    }

    /// The superstep this checkpoint was taken after.
    pub fn superstep(&self) -> u64 {
        self.superstep
    }

    fn take(&mut self, n: usize) -> io::Result<&[u8]> {
        // `n` comes from on-disk data: compare without `pos + n`, which a
        // corrupt length near `usize::MAX` would overflow.
        if n > self.body.len() - self.pos {
            return Err(corrupt("field past end"));
        }
        let s = &self.body[self.pos..self.pos + n];
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

    /// Reads a length-prefixed `u64` word run.
    pub fn get_words(&mut self) -> io::Result<Vec<u64>> {
        let n = self.get_u64()? as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_u64()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    #[test]
    fn roundtrip_all_field_kinds() {
        let vfs = MemVfs::new();
        let mut w = CheckpointWriter::new(7);
        w.put_u8(3);
        w.put_u32(1234);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.1);
        w.put_bytes(b"hello");
        w.put_words(&[1, 2, 3]);
        let bytes = w.commit(&vfs).unwrap();
        assert!(has_checkpoint(&vfs, 7));
        assert!(!has_checkpoint(&vfs, 8));

        let mut r = CheckpointReader::open(&vfs, 7).unwrap();
        assert_eq!(r.superstep(), 7);
        assert_eq!(r.get_u8().unwrap(), 3);
        assert_eq!(r.get_u32().unwrap(), 1234);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap(), -0.1);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_words().unwrap(), vec![1, 2, 3]);
        // Trailer guards against over-reads.
        assert!(r.get_u64().is_err());
        // Everything went through one accounted sequential write.
        assert_eq!(vfs.stats().snapshot().seq_write_bytes, bytes);
        assert_eq!(vfs.stats().snapshot().seq_write_ops, 1);
    }

    #[test]
    fn checkpoint_io_is_classified_sequential() {
        let vfs = MemVfs::new();
        let mut w = CheckpointWriter::new(1);
        w.put_bytes(&[0u8; 1000]);
        let total = w.commit(&vfs).unwrap();
        let snap = vfs.stats().snapshot();
        assert_eq!(snap.seq_write_bytes, total);
        assert_eq!(snap.rand_write_bytes, 0);
        CheckpointReader::open(&vfs, 1).unwrap();
        assert_eq!(vfs.stats().snapshot().seq_read_bytes, total);
    }

    #[test]
    fn superstep_mismatch_rejected() {
        let vfs = MemVfs::new();
        CheckpointWriter::new(4).commit(&vfs).unwrap();
        assert!(CheckpointReader::open(&vfs, 4).is_ok());
        // Renaming by rewriting under a different name: header disagrees.
        let data = vfs
            .open(&checkpoint_file_name(4))
            .unwrap()
            .read_all(AccessClass::SeqRead)
            .unwrap();
        vfs.create(&checkpoint_file_name(5))
            .unwrap()
            .append(AccessClass::SeqWrite, &data)
            .unwrap();
        assert!(CheckpointReader::open(&vfs, 5).is_err());
    }

    #[test]
    fn truncated_file_rejected() {
        let vfs = MemVfs::new();
        let mut w = CheckpointWriter::new(2);
        w.put_bytes(&[7u8; 64]);
        w.commit(&vfs).unwrap();
        let full = vfs
            .open(&checkpoint_file_name(2))
            .unwrap()
            .read_all(AccessClass::SeqRead)
            .unwrap();
        let f = vfs.create(&checkpoint_file_name(2)).unwrap();
        f.append(AccessClass::SeqWrite, &full[..full.len() - 10])
            .unwrap();
        assert!(CheckpointReader::open(&vfs, 2).is_err());
    }

    #[test]
    fn coded_commit_roundtrips_and_accounts_both_sides() {
        for codec in [CodecChoice::Gaps, CodecChoice::Bv] {
            let vfs = MemVfs::new();
            let mut w = CheckpointWriter::new(11);
            w.put_u8(9);
            w.put_f64(2.5);
            w.put_bytes(&[42u8; 4096]); // highly compressible body
            w.put_words(&[5; 100]);
            let logical = w.payload_bytes() + 8;
            let physical = w.commit_with(&vfs, codec).unwrap();
            // Gaps is structure-aware only: its blob frames stay raw.
            if !matches!(codec, CodecChoice::Gaps) {
                assert!(physical < logical, "{codec:?} must shrink this body");
            }
            let wsnap = vfs.stats().snapshot();
            assert_eq!(wsnap.seq_write_bytes, physical);
            assert_eq!(wsnap.seq_write_logical_bytes, logical);

            let mut r = CheckpointReader::open(&vfs, 11).unwrap();
            assert_eq!(r.get_u8().unwrap(), 9);
            assert_eq!(r.get_f64().unwrap(), 2.5);
            assert_eq!(r.get_bytes().unwrap(), vec![42u8; 4096]);
            assert_eq!(r.get_words().unwrap(), vec![5; 100]);
            assert!(r.get_u8().is_err(), "no fields past the body");
            let rsnap = vfs.stats().snapshot();
            assert_eq!(rsnap.seq_read_bytes, physical);
            // The whole-file read charges logical == physical up front,
            // then tops up — so read logical is max(physical, v1 size).
            assert_eq!(rsnap.seq_read_logical_bytes, logical.max(physical));
        }
    }

    #[test]
    fn coded_truncated_file_rejected() {
        let vfs = MemVfs::new();
        let mut w = CheckpointWriter::new(8);
        w.put_bytes(&[1u8; 500]);
        w.commit_with(&vfs, CodecChoice::Bv).unwrap();
        let full = vfs
            .open(&checkpoint_file_name(8))
            .unwrap()
            .read_all(AccessClass::SeqRead)
            .unwrap();
        let f = vfs.create(&checkpoint_file_name(8)).unwrap();
        f.append(AccessClass::SeqWrite, &full[..full.len() - 12])
            .unwrap();
        assert!(CheckpointReader::open(&vfs, 8).is_err());
    }

    #[test]
    fn missing_checkpoint_is_not_found() {
        let vfs = MemVfs::new();
        assert!(CheckpointReader::open(&vfs, 3).is_err());
        remove_checkpoint(&vfs, 3).unwrap(); // idempotent
    }

    #[test]
    fn remove_prunes_retention() {
        let vfs = MemVfs::new();
        CheckpointWriter::new(3).commit(&vfs).unwrap();
        CheckpointWriter::new(6).commit(&vfs).unwrap();
        remove_checkpoint(&vfs, 3).unwrap();
        assert!(!has_checkpoint(&vfs, 3));
        assert!(has_checkpoint(&vfs, 6));
    }
}

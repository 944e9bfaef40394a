//! Push receiver-side message store with bounded buffer and spill.
//!
//! In push-based systems, messages received in superstep `t` are consumed
//! in superstep `t+1`, so they must be carried across the barrier. Giraph
//! keeps up to `B_i` of them in memory and spills the rest to local disk.
//! Because messages arrive for scattered destination vertices, spill
//! writes have no locality — the paper accounts them as random writes
//! (`IO(M_disk)/s_rw` in Eq. 11) and the read-back as a sequential scan
//! (the `IO(M_disk)/s_sr` term), which is exactly how [`SpillBuffer`]
//! classifies its traffic.

use crate::record::Record;
use crate::stats::AccessClass;
use crate::vfs::{Vfs, VfsFile};
use hybridgraph_codec::{decode_blob_frame, encode_blob_frame, CodecChoice};
use hybridgraph_graph::VertexId;
use std::io;
use std::marker::PhantomData;

/// Messages per compressed spill chunk when a codec is active. Each full
/// chunk is framed and appended as one coded random write; the chunk
/// being assembled stays in memory until it fills (or the buffer drains).
const SPILL_CHUNK_MSGS: u64 = 256;

/// A bounded in-memory message buffer that spills overflow to disk.
pub struct SpillBuffer<M: Record> {
    mem: Vec<(VertexId, M)>,
    capacity: usize,
    spill: VfsFile,
    spilled: u64,
    total: u64,
    codec: CodecChoice,
    /// Raw encoding of spill-bound messages not yet flushed as a chunk
    /// (always empty without a codec).
    chunk: Vec<u8>,
    /// Physical bytes currently in the spill file (coded path only).
    file_bytes: u64,
    /// Logical bytes behind `file_bytes`.
    file_logical: u64,
    _marker: PhantomData<M>,
}

impl<M: Record> SpillBuffer<M> {
    /// Creates a buffer holding at most `capacity` messages in memory;
    /// overflow goes to the spill file `name` in `vfs`, uncompressed.
    pub fn new(vfs: &dyn Vfs, name: &str, capacity: usize) -> io::Result<SpillBuffer<M>> {
        SpillBuffer::with_codec(vfs, name, capacity, CodecChoice::None)
    }

    /// Like [`SpillBuffer::new`], but spilled messages are framed into
    /// coded chunks of [`SPILL_CHUNK_MSGS`] when `codec` is active.
    pub fn with_codec(
        vfs: &dyn Vfs,
        name: &str,
        capacity: usize,
        codec: CodecChoice,
    ) -> io::Result<SpillBuffer<M>> {
        Ok(SpillBuffer {
            mem: Vec::new(),
            capacity,
            spill: vfs.create(name)?,
            spilled: 0,
            total: 0,
            codec,
            chunk: Vec::new(),
            file_bytes: 0,
            file_logical: 0,
            _marker: PhantomData,
        })
    }

    /// Bytes of one spilled message on disk: destination id + payload
    /// (the paper's `S_m`).
    pub fn message_bytes() -> u64 {
        4 + M::BYTES as u64
    }

    /// Flushes the pending chunk as one coded frame (coded path only).
    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.chunk.is_empty() {
            return Ok(());
        }
        let frame = encode_blob_frame(self.codec, &self.chunk);
        self.spill
            .append_coded(AccessClass::RandWrite, &frame, self.chunk.len() as u64)?;
        self.file_bytes += frame.len() as u64;
        self.file_logical += self.chunk.len() as u64;
        self.chunk.clear();
        Ok(())
    }

    /// Decodes every message currently in the spill file (coded path),
    /// reading the file as one sequential scan, then the pending chunk.
    fn decode_spilled_coded(&self, into: &mut Vec<(VertexId, M)>) -> io::Result<()> {
        let width = Self::message_bytes() as usize;
        let mut decode_raw = |raw: &[u8]| {
            for chunk in raw.chunks_exact(width) {
                let dst = VertexId::read_from(&chunk[..4]);
                let msg = M::read_from(&chunk[4..]);
                into.push((dst, msg));
            }
        };
        if self.file_bytes > 0 {
            let bytes = self.spill.read_vec_coded(
                AccessClass::SeqRead,
                0,
                self.file_bytes as usize,
                self.file_logical,
            )?;
            let mut pos = 0usize;
            while pos < bytes.len() {
                let raw = decode_blob_frame(&bytes, &mut pos)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                decode_raw(&raw);
            }
        }
        decode_raw(&self.chunk);
        Ok(())
    }

    /// Accepts one message for `dst`.
    pub fn push(&mut self, dst: VertexId, msg: M) -> io::Result<()> {
        self.total += 1;
        if self.mem.len() < self.capacity {
            self.mem.push((dst, msg));
        } else if self.codec.is_none() {
            let mut buf = Vec::with_capacity(Self::message_bytes() as usize);
            dst.append_to(&mut buf);
            msg.append_to(&mut buf);
            self.spill.append(AccessClass::RandWrite, &buf)?;
            self.spilled += 1;
        } else {
            dst.append_to(&mut self.chunk);
            msg.append_to(&mut self.chunk);
            self.spilled += 1;
            if self.chunk.len() as u64 >= SPILL_CHUNK_MSGS * Self::message_bytes() {
                self.flush_chunk()?;
            }
        }
        Ok(())
    }

    /// Total messages received since the last [`Self::drain`].
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Messages currently on disk.
    pub fn spilled(&self) -> u64 {
        self.spilled
    }

    /// Spill bytes the overflow currently occupies: physical file bytes
    /// plus the raw pending chunk. Without a codec this is exactly
    /// `spilled · message_bytes`.
    pub fn spilled_bytes(&self) -> u64 {
        if self.codec.is_none() {
            self.spilled * Self::message_bytes()
        } else {
            self.file_bytes + self.chunk.len() as u64
        }
    }

    /// Messages currently buffered in memory.
    pub fn in_memory(&self) -> usize {
        self.mem.len()
    }

    /// In-memory footprint in bytes (for the memory-usage curves),
    /// including any spill chunk still being assembled.
    pub fn memory_bytes(&self) -> u64 {
        self.mem.len() as u64 * Self::message_bytes() + self.chunk.len() as u64
    }

    /// Ends the receive phase: reads back any spilled messages (sequential
    /// scan), merges with the in-memory buffer, sorts by destination (the
    /// sort-merge Giraph performs before the next superstep) and resets the
    /// buffer for the next receive phase.
    pub fn drain(&mut self) -> io::Result<DeliveredMessages<M>> {
        let mut all = std::mem::take(&mut self.mem);
        if self.spilled > 0 {
            if self.codec.is_none() {
                let bytes = self.spill.read_all(AccessClass::SeqRead)?;
                let width = Self::message_bytes() as usize;
                for chunk in bytes.chunks_exact(width) {
                    let dst = VertexId::read_from(&chunk[..4]);
                    let msg = M::read_from(&chunk[4..]);
                    all.push((dst, msg));
                }
            } else {
                self.decode_spilled_coded(&mut all)?;
            }
            self.spill.truncate()?;
        }
        self.spilled = 0;
        self.total = 0;
        self.chunk.clear();
        self.file_bytes = 0;
        self.file_logical = 0;
        all.sort_by_key(|(dst, _)| *dst);
        Ok(DeliveredMessages { sorted: all })
    }

    /// Non-destructively snapshots every pending message (the in-memory
    /// buffer plus a sequential read-back of the spill file) for
    /// checkpointing. The buffer is left exactly as it was.
    pub fn snapshot_pending(&self) -> io::Result<Vec<(VertexId, M)>> {
        let mut all = self.mem.clone();
        if self.spilled > 0 {
            if self.codec.is_none() {
                let bytes = self.spill.read_all(AccessClass::SeqRead)?;
                let width = Self::message_bytes() as usize;
                for chunk in bytes.chunks_exact(width) {
                    let dst = VertexId::read_from(&chunk[..4]);
                    let msg = M::read_from(&chunk[4..]);
                    all.push((dst, msg));
                }
            } else {
                self.decode_spilled_coded(&mut all)?;
            }
        }
        Ok(all)
    }

    /// Captures the buffer's current extent so a later
    /// [`Self::rewind`] can discard everything pushed after it. Valid
    /// only while no [`Self::drain`] happens in between (draining
    /// consumes the marked region).
    pub fn mark(&self) -> SpillMark {
        SpillMark {
            mem: self.mem.len(),
            spilled: self.spilled,
            total: self.total,
            file_bytes: self.file_bytes,
            file_logical: self.file_logical,
            chunk: self.chunk.clone(),
        }
    }

    /// Discards every message pushed since `mark` (superstep undo for
    /// confined recovery): the in-memory tail is dropped and the spill
    /// file shrinks back to its marked length. Discarding moves no
    /// data, so nothing is accounted — the pushes that created the tail
    /// already were, during the (kept) measurement window of the
    /// abandoned superstep.
    pub fn rewind(&mut self, mark: &SpillMark) -> io::Result<()> {
        assert!(
            mark.mem <= self.mem.len() && mark.spilled <= self.spilled,
            "rewind past a drain"
        );
        self.mem.truncate(mark.mem);
        if self.codec.is_none() {
            self.spill
                .truncate_to(mark.spilled * Self::message_bytes())?;
        } else {
            self.spill.truncate_to(mark.file_bytes)?;
            self.file_bytes = mark.file_bytes;
            self.file_logical = mark.file_logical;
            self.chunk.clear();
            self.chunk.extend_from_slice(&mark.chunk);
        }
        self.spilled = mark.spilled;
        self.total = mark.total;
        Ok(())
    }

    /// Replaces the buffer's entire contents with `pairs` (recovery
    /// restore): the first `capacity` stay in memory, the rest spill,
    /// with the usual accounting.
    pub fn restore_pending(&mut self, pairs: Vec<(VertexId, M)>) -> io::Result<()> {
        self.mem.clear();
        self.spill.truncate()?;
        self.spilled = 0;
        self.total = 0;
        self.chunk.clear();
        self.file_bytes = 0;
        self.file_logical = 0;
        for (dst, msg) in pairs {
            self.push(dst, msg)?;
        }
        Ok(())
    }
}

/// A point-in-time extent of a [`SpillBuffer`], for [`SpillBuffer::rewind`].
/// With a codec the mark also carries a copy of the pending spill chunk
/// (bounded by [`SPILL_CHUNK_MSGS`] messages), since later pushes may have
/// flushed it into the file.
#[derive(Clone, Debug)]
pub struct SpillMark {
    mem: usize,
    spilled: u64,
    total: u64,
    file_bytes: u64,
    file_logical: u64,
    chunk: Vec<u8>,
}

/// Messages of one superstep, grouped by destination vertex.
pub struct DeliveredMessages<M> {
    sorted: Vec<(VertexId, M)>,
}

impl<M> DeliveredMessages<M> {
    /// An empty delivery.
    pub fn empty() -> Self {
        DeliveredMessages { sorted: Vec::new() }
    }

    /// Total number of messages.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if no messages were delivered.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The messages addressed to `v`.
    pub fn for_vertex(&self, v: VertexId) -> &[(VertexId, M)] {
        let start = self.sorted.partition_point(|(d, _)| *d < v);
        let end = self.sorted.partition_point(|(d, _)| *d <= v);
        &self.sorted[start..end]
    }

    /// Iterates over `(dst, msg)` pairs in destination order.
    pub fn iter(&self) -> impl Iterator<Item = &(VertexId, M)> {
        self.sorted.iter()
    }

    /// Consumes the delivery, returning the destination-sorted pairs.
    pub fn into_sorted(self) -> Vec<(VertexId, M)> {
        self.sorted
    }

    /// Builds a delivery from arbitrary `(dst, msg)` pairs.
    pub fn from_pairs(mut pairs: Vec<(VertexId, M)>) -> Self
    where
        M: Clone,
    {
        pairs.sort_by_key(|(d, _)| *d);
        DeliveredMessages { sorted: pairs }
    }

    /// The distinct destinations, in order.
    pub fn destinations(&self) -> impl Iterator<Item = VertexId> + '_ {
        let mut last: Option<VertexId> = None;
        self.sorted.iter().filter_map(move |(d, _)| {
            if last == Some(*d) {
                None
            } else {
                last = Some(*d);
                Some(*d)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    #[test]
    fn within_capacity_no_spill() {
        let vfs = MemVfs::new();
        let mut b: SpillBuffer<f64> = SpillBuffer::new(&vfs, "spill", 10).unwrap();
        for i in 0..5 {
            b.push(VertexId(i), i as f64).unwrap();
        }
        assert_eq!(b.spilled(), 0);
        assert_eq!(b.in_memory(), 5);
        assert_eq!(vfs.stats().snapshot().rand_write_bytes, 0);
        let d = b.drain().unwrap();
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn overflow_spills_random_writes() {
        let vfs = MemVfs::new();
        let mut b: SpillBuffer<f64> = SpillBuffer::new(&vfs, "spill", 3).unwrap();
        for i in 0..10 {
            b.push(VertexId(i % 4), i as f64).unwrap();
        }
        assert_eq!(b.spilled(), 7);
        assert_eq!(b.total(), 10);
        let msg_bytes = SpillBuffer::<f64>::message_bytes();
        assert_eq!(vfs.stats().snapshot().rand_write_bytes, 7 * msg_bytes);
        assert_eq!(b.spilled_bytes(), 7 * msg_bytes);

        let before = vfs.stats().snapshot();
        let d = b.drain().unwrap();
        assert_eq!(d.len(), 10);
        // Read-back is sequential.
        let delta = vfs.stats().snapshot().delta(&before);
        assert_eq!(delta.seq_read_bytes, 7 * msg_bytes);
    }

    #[test]
    fn drain_groups_by_destination() {
        let vfs = MemVfs::new();
        let mut b: SpillBuffer<u32> = SpillBuffer::new(&vfs, "spill", 2).unwrap();
        b.push(VertexId(5), 50).unwrap();
        b.push(VertexId(1), 10).unwrap();
        b.push(VertexId(5), 51).unwrap();
        b.push(VertexId(3), 30).unwrap();
        let d = b.drain().unwrap();
        let five: Vec<u32> = d.for_vertex(VertexId(5)).iter().map(|(_, m)| *m).collect();
        assert_eq!(five, vec![50, 51]);
        assert_eq!(d.for_vertex(VertexId(1)).len(), 1);
        assert_eq!(d.for_vertex(VertexId(2)).len(), 0);
        let dsts: Vec<u32> = d.destinations().map(|v| v.0).collect();
        assert_eq!(dsts, vec![1, 3, 5]);
    }

    #[test]
    fn drain_resets_for_next_superstep() {
        let vfs = MemVfs::new();
        let mut b: SpillBuffer<u32> = SpillBuffer::new(&vfs, "spill", 1).unwrap();
        b.push(VertexId(0), 1).unwrap();
        b.push(VertexId(1), 2).unwrap();
        b.drain().unwrap();
        assert_eq!(b.total(), 0);
        assert_eq!(b.spilled(), 0);
        assert_eq!(b.in_memory(), 0);
        b.push(VertexId(2), 3).unwrap();
        let d = b.drain().unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.for_vertex(VertexId(2))[0].1, 3);
    }

    #[test]
    fn zero_capacity_spills_everything() {
        let vfs = MemVfs::new();
        let mut b: SpillBuffer<u32> = SpillBuffer::new(&vfs, "spill", 0).unwrap();
        for i in 0..4 {
            b.push(VertexId(i), i).unwrap();
        }
        assert_eq!(b.spilled(), 4);
        assert_eq!(b.drain().unwrap().len(), 4);
    }

    #[test]
    fn memory_bytes_tracks_buffer() {
        let vfs = MemVfs::new();
        let mut b: SpillBuffer<f64> = SpillBuffer::new(&vfs, "spill", 8).unwrap();
        b.push(VertexId(0), 0.0).unwrap();
        b.push(VertexId(1), 1.0).unwrap();
        assert_eq!(b.memory_bytes(), 2 * 12);
    }

    #[test]
    fn snapshot_is_nondestructive_and_restore_rebuilds() {
        let vfs = MemVfs::new();
        let mut b: SpillBuffer<u32> = SpillBuffer::new(&vfs, "spill", 2).unwrap();
        for i in 0..5 {
            b.push(VertexId(i), i * 10).unwrap();
        }
        let snap = b.snapshot_pending().unwrap();
        assert_eq!(snap.len(), 5);
        // Buffer untouched by the snapshot.
        assert_eq!(b.total(), 5);
        assert_eq!(b.spilled(), 3);
        assert_eq!(b.in_memory(), 2);

        // Restore into a fresh buffer reproduces counts and contents.
        let vfs2 = MemVfs::new();
        let mut c: SpillBuffer<u32> = SpillBuffer::new(&vfs2, "spill", 2).unwrap();
        c.restore_pending(snap).unwrap();
        assert_eq!(c.total(), 5);
        assert_eq!(c.spilled(), 3);
        let d = c.drain().unwrap();
        let got: Vec<(u32, u32)> = d.iter().map(|(v, m)| (v.0, *m)).collect();
        assert_eq!(got, vec![(0, 0), (1, 10), (2, 20), (3, 30), (4, 40)]);
        // Restore over a dirty buffer discards its old contents.
        c.push(VertexId(9), 99).unwrap();
        c.restore_pending(vec![(VertexId(1), 7)]).unwrap();
        assert_eq!(c.total(), 1);
        assert_eq!(c.drain().unwrap().len(), 1);
    }

    #[test]
    fn mark_and_rewind_discard_the_tail_unaccounted() {
        let vfs = MemVfs::new();
        let mut b: SpillBuffer<u32> = SpillBuffer::new(&vfs, "spill", 2).unwrap();
        b.push(VertexId(0), 1).unwrap();
        b.push(VertexId(1), 2).unwrap();
        b.push(VertexId(2), 3).unwrap(); // spilled
        let mark = b.mark();
        b.push(VertexId(3), 4).unwrap(); // spilled tail
        b.push(VertexId(4), 5).unwrap(); // spilled tail
        let before = vfs.stats().snapshot();
        b.rewind(&mark).unwrap();
        assert_eq!(vfs.stats().snapshot(), before, "rewind must be free");
        assert_eq!(b.total(), 3);
        assert_eq!(b.spilled(), 1);
        assert_eq!(b.in_memory(), 2);
        let d = b.drain().unwrap();
        let got: Vec<(u32, u32)> = d.iter().map(|(v, m)| (v.0, *m)).collect();
        assert_eq!(got, vec![(0, 1), (1, 2), (2, 3)]);
        // A rewind to a no-op mark is fine.
        let m2 = b.mark();
        b.rewind(&m2).unwrap();
        assert_eq!(b.total(), 0);
    }

    #[test]
    fn coded_spill_roundtrips_and_shrinks() {
        for codec in [CodecChoice::Gaps, CodecChoice::Bv] {
            let vfs = MemVfs::new();
            let mut b: SpillBuffer<f64> = SpillBuffer::with_codec(&vfs, "spill", 4, codec).unwrap();
            // Enough overflow to flush several chunks plus a partial one.
            let n = 3 * SPILL_CHUNK_MSGS + 77;
            for i in 0..n {
                b.push(VertexId((i % 13) as u32), i as f64).unwrap();
            }
            assert_eq!(b.total(), n);
            assert_eq!(b.spilled(), n - 4);
            let snap = vfs.stats().snapshot();
            if codec == CodecChoice::Bv {
                // Bv block-compresses the highly regular spill stream.
                assert!(
                    snap.rand_write_bytes < snap.rand_write_logical_bytes,
                    "{codec:?} should shrink spills"
                );
            }
            assert!(b.spilled_bytes() > 0);
            let mut got: Vec<(u32, u64)> = b
                .drain()
                .unwrap()
                .iter()
                .map(|(v, m)| (v.0, m.to_bits()))
                .collect();
            got.sort();
            let mut want: Vec<(u32, u64)> = (0..n)
                .map(|i| ((i % 13) as u32, (i as f64).to_bits()))
                .collect();
            want.sort();
            assert_eq!(got, want, "{codec:?}");
            assert_eq!(b.spilled_bytes(), 0);
        }
    }

    #[test]
    fn coded_snapshot_and_restore() {
        let vfs = MemVfs::new();
        let mut b: SpillBuffer<u32> =
            SpillBuffer::with_codec(&vfs, "spill", 1, CodecChoice::Bv).unwrap();
        let n = SPILL_CHUNK_MSGS + 9;
        for i in 0..n {
            b.push(VertexId(i as u32), i as u32 * 3).unwrap();
        }
        let snap = b.snapshot_pending().unwrap();
        assert_eq!(snap.len() as u64, n);
        assert_eq!(b.total(), n, "snapshot must not disturb the buffer");

        let vfs2 = MemVfs::new();
        let mut c: SpillBuffer<u32> =
            SpillBuffer::with_codec(&vfs2, "spill", 1, CodecChoice::Bv).unwrap();
        c.restore_pending(snap).unwrap();
        assert_eq!(c.total(), n);
        assert_eq!(c.drain().unwrap().len() as u64, n);
    }

    #[test]
    fn coded_mark_and_rewind_survive_chunk_flushes() {
        let vfs = MemVfs::new();
        let mut b: SpillBuffer<u32> =
            SpillBuffer::with_codec(&vfs, "spill", 0, CodecChoice::Bv).unwrap();
        // Leave a partial chunk pending, mark, then push past a flush.
        for i in 0..10u32 {
            b.push(VertexId(i), i).unwrap();
        }
        let mark = b.mark();
        for i in 10..(SPILL_CHUNK_MSGS as u32 + 40) {
            b.push(VertexId(i), i).unwrap();
        }
        let before = vfs.stats().snapshot();
        b.rewind(&mark).unwrap();
        assert_eq!(vfs.stats().snapshot(), before, "rewind must be free");
        assert_eq!(b.total(), 10);
        assert_eq!(b.spilled(), 10);
        let got: Vec<u32> = b.drain().unwrap().iter().map(|(_, m)| *m).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_delivery() {
        let d: DeliveredMessages<u32> = DeliveredMessages::empty();
        assert!(d.is_empty());
        assert_eq!(d.for_vertex(VertexId(0)).len(), 0);
    }
}

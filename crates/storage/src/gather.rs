//! Destination-grouped edge store for the per-vertex pull baseline.
//!
//! The disk-extended GraphLab PowerGraph analogue gathers along in-edges:
//! when a destination vertex `v` is pulled, the worker hosting edges
//! `(u → v)` reads `v`'s local in-edge fragment and then each source
//! vertex `u`'s value. Fragments are keyed by destination and accessed in
//! whatever order requests arrive — point lookups, i.e. random reads. This
//! access pattern (together with per-source random value reads through the
//! LRU cache) is what makes the `pull` baseline I/O-hostile on disk, the
//! effect Table 5 and Fig. 10 quantify.

use crate::record::Record;
use crate::stats::AccessClass;
use crate::vfs::{Vfs, VfsFile};
use hybridgraph_codec::{decode_extent, encode_extent, CodecChoice, ExtentKind};
use hybridgraph_graph::{Edge, Graph, VertexId};
use std::collections::HashMap;
use std::io;
use std::ops::Range;

/// Byte cost of one fragment's auxiliary data: destination id + edge count.
const AUX_BYTES: u64 = 8;

/// One worker's out-edges regrouped by destination vertex.
pub struct GatherStore {
    file: VfsFile,
    /// Destination vertex → `(offset, edge count, stored bytes)` of its
    /// fragment. Without a codec, stored bytes equal the logical fragment
    /// size `AUX_BYTES + count · 8`. Arc-shared so cross-job views are
    /// cheap.
    index: std::sync::Arc<HashMap<u32, (u64, u32, u32)>>,
    codec: CodecChoice,
    /// Offset of the last fragment read. Requests that sweep the file in
    /// ascending order (a dense gather, e.g. PageRank's every-vertex
    /// superstep) amount to one sequential pass — the paper's ext-edge
    /// observation that "edges are read only once per superstep" — while
    /// backward jumps are genuine seeks. Atomic only so the store is
    /// `Sync` for cross-job sharing; each job's view has its own cursor
    /// and each view is read by one worker thread at a time.
    cursor: std::sync::atomic::AtomicU64,
}

/// An in-edge as seen from the destination: the source and the weight.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct InEdge {
    /// The source vertex (always local to the store's worker).
    pub src: VertexId,
    /// The edge weight.
    pub weight: f32,
}

impl GatherStore {
    /// Builds the store without compression; see
    /// [`GatherStore::build_with`].
    pub fn build(
        vfs: &dyn Vfs,
        name: &str,
        graph: &Graph,
        local: Range<u32>,
    ) -> io::Result<GatherStore> {
        GatherStore::build_with(vfs, name, graph, local, CodecChoice::None)
    }

    /// Builds the store from the out-edges of the vertices in `local`,
    /// regrouped by destination and written sequentially. With a codec,
    /// each fragment is one coded extent (sources within a fragment are
    /// ascending, so delta-gap coding applies).
    pub fn build_with(
        vfs: &dyn Vfs,
        name: &str,
        graph: &Graph,
        local: Range<u32>,
        codec: CodecChoice,
    ) -> io::Result<GatherStore> {
        // Collect (dst, src, weight) triples for local sources.
        let mut triples: Vec<(u32, u32, f32)> = Vec::new();
        for u in local.clone() {
            for e in graph.out_edges(VertexId(u)) {
                triples.push((e.dst.0, u, e.weight));
            }
        }
        triples.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).unwrap());

        let file = vfs.create(name)?;
        let mut index = HashMap::new();
        let mut buf = Vec::new();
        let mut i = 0usize;
        let mut offset = 0u64;
        while i < triples.len() {
            let dst = triples[i].0;
            let mut end = i + 1;
            while end < triples.len() && triples[end].0 == dst {
                end += 1;
            }
            buf.clear();
            buf.extend_from_slice(&dst.to_le_bytes());
            buf.extend_from_slice(&((end - i) as u32).to_le_bytes());
            for &(_, src, w) in &triples[i..end] {
                buf.extend_from_slice(&src.to_le_bytes());
                buf.extend_from_slice(&w.to_le_bytes());
            }
            let stored = if codec.is_none() {
                file.append(AccessClass::SeqWrite, &buf)?;
                buf.len() as u64
            } else {
                let coded = encode_extent(codec, ExtentKind::Fragments, &buf);
                file.append_coded(AccessClass::SeqWrite, &coded, buf.len() as u64)?;
                coded.len() as u64
            };
            index.insert(dst, (offset, (end - i) as u32, stored as u32));
            offset += stored;
            i = end;
        }
        Ok(GatherStore {
            file,
            index: std::sync::Arc::new(index),
            codec,
            cursor: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// A read-only view over the same on-disk bytes whose I/O is recorded
    /// into `stats` instead of the builder's sink. The fragment index is
    /// Arc-shared; the sweep cursor is per-view (each job tracks its own
    /// sequential/seek classification).
    pub fn share_view(&self, stats: std::sync::Arc<crate::stats::IoStats>) -> GatherStore {
        GatherStore {
            file: self.file.with_stats(stats),
            index: std::sync::Arc::clone(&self.index),
            codec: self.codec,
            cursor: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Number of destinations with at least one local in-edge.
    pub fn num_destinations(&self) -> usize {
        self.index.len()
    }

    /// True if this worker hosts in-edges of `dst` (no I/O).
    pub fn has_in_edges(&self, dst: VertexId) -> bool {
        self.index.contains_key(&dst.0)
    }

    /// In-memory footprint of the fragment index.
    pub fn index_memory_bytes(&self) -> u64 {
        self.index.len() as u64 * 20
    }

    /// Randomly reads the in-edge fragment of `dst`; empty if none.
    pub fn in_edges_of(&self, dst: VertexId) -> io::Result<Vec<InEdge>> {
        let Some(&(offset, count, stored)) = self.index.get(&dst.0) else {
            return Ok(Vec::new());
        };
        let len = AUX_BYTES as usize + count as usize * Edge::BYTES;
        // Forward reads continue a sweep (sequential); backward jumps are
        // scattered seeks charged at sector granularity (on the physical
        // bytes the device actually moves).
        let forward = offset >= self.cursor.load(std::sync::atomic::Ordering::Relaxed);
        let class = if forward {
            AccessClass::SeqRead
        } else {
            AccessClass::RandRead
        };
        let bytes = if self.codec.is_none() {
            self.file.read_vec(class, offset, len)?
        } else {
            let coded = self
                .file
                .read_vec_coded(class, offset, stored as usize, len as u64)?;
            decode_extent(ExtentKind::Fragments, &coded, len)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        };
        if !forward {
            self.file.charge(
                AccessClass::RandRead,
                crate::stats::seek_pad(u64::from(stored)),
            );
        }
        self.cursor.store(
            offset + u64::from(stored),
            std::sync::atomic::Ordering::Relaxed,
        );
        let mut out = Vec::with_capacity(count as usize);
        let mut at = AUX_BYTES as usize;
        for _ in 0..count {
            let src = VertexId(u32::read_from(&bytes[at..at + 4]));
            let weight = f32::read_from(&bytes[at + 4..at + 8]);
            out.push(InEdge { src, weight });
            at += 8;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;
    use hybridgraph_graph::gen;

    #[test]
    fn fragments_match_reverse_graph() {
        let g = gen::uniform(30, 200, 8);
        let rev = g.reverse();
        let vfs = MemVfs::new();
        let s = GatherStore::build(&vfs, "gather", &g, 0..30).unwrap();
        for v in g.vertices() {
            let mut got: Vec<u32> = s
                .in_edges_of(v)
                .unwrap()
                .iter()
                .map(|ie| ie.src.0)
                .collect();
            got.sort();
            let mut want: Vec<u32> = rev.out_edges(v).iter().map(|e| e.dst.0).collect();
            want.sort();
            assert_eq!(got, want, "in-edges of {v}");
        }
    }

    #[test]
    fn partial_range_only_local_sources() {
        let g = gen::uniform(20, 100, 3);
        let vfs = MemVfs::new();
        let s = GatherStore::build(&vfs, "gather", &g, 0..10).unwrap();
        for v in g.vertices() {
            for ie in s.in_edges_of(v).unwrap() {
                assert!(ie.src.0 < 10, "source must be local");
            }
        }
    }

    #[test]
    fn ascending_reads_are_sequential_backward_jumps_seek() {
        let g = gen::uniform(40, 300, 4);
        let vfs = MemVfs::new();
        let s = GatherStore::build(&vfs, "gather", &g, 0..40).unwrap();
        // An ascending sweep over all destinations: only sequential reads.
        let before = vfs.stats().snapshot();
        for v in 0..40u32 {
            s.in_edges_of(VertexId(v)).unwrap();
        }
        let d = vfs.stats().snapshot().delta(&before);
        assert_eq!(d.rand_read_bytes, 0, "ascending sweep must be sequential");
        assert!(d.seq_read_bytes > 0);
        // A backward jump is a seek, padded to a sector.
        let lo = (0..40u32).find(|&v| s.has_in_edges(VertexId(v))).unwrap();
        let before = vfs.stats().snapshot();
        let edges = s.in_edges_of(VertexId(lo)).unwrap();
        let d = vfs.stats().snapshot().delta(&before);
        let payload = 8 + edges.len() as u64 * 8;
        assert_eq!(d.rand_read_bytes, payload.max(crate::stats::SECTOR_BYTES));
    }

    #[test]
    fn missing_destination_is_free() {
        let g = gen::chain(5); // edges i -> i+1 only
        let vfs = MemVfs::new();
        let s = GatherStore::build(&vfs, "gather", &g, 0..5).unwrap();
        assert!(!s.has_in_edges(VertexId(0)));
        assert!(s.has_in_edges(VertexId(1)));
        let before = vfs.stats().snapshot();
        assert!(s.in_edges_of(VertexId(0)).unwrap().is_empty());
        assert_eq!(vfs.stats().snapshot(), before);
    }

    #[test]
    fn coded_store_reads_back_identically() {
        let g = gen::uniform(50, 700, 6);
        let vfs = MemVfs::new();
        let plain = GatherStore::build(&vfs, "gather", &g, 0..50).unwrap();
        for codec in [CodecChoice::Gaps, CodecChoice::Bv] {
            let cvfs = MemVfs::new();
            let s = GatherStore::build_with(&cvfs, "gather", &g, 0..50, codec).unwrap();
            assert_eq!(s.num_destinations(), plain.num_destinations());
            for v in g.vertices() {
                assert_eq!(
                    s.in_edges_of(v).unwrap(),
                    plain.in_edges_of(v).unwrap(),
                    "{codec:?} dst {v}"
                );
            }
        }
        // Gaps shrinks the file; logical accounting still sees raw bytes.
        let cvfs = MemVfs::new();
        GatherStore::build_with(&cvfs, "gather", &g, 0..50, CodecChoice::Gaps).unwrap();
        let snap = cvfs.stats().snapshot();
        assert!(snap.seq_write_bytes < snap.seq_write_logical_bytes);
    }

    #[test]
    fn weights_preserved() {
        let g = gen::randomize_weights(&gen::cycle(6), 2.0, 3.0, 1);
        let vfs = MemVfs::new();
        let s = GatherStore::build(&vfs, "gather", &g, 0..6).unwrap();
        let ie = s.in_edges_of(VertexId(1)).unwrap();
        assert_eq!(ie.len(), 1);
        assert_eq!(ie[0].src, VertexId(0));
        assert!((2.0..3.0).contains(&ie[0].weight));
    }
}

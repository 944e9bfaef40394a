//! Push-side on-disk adjacency layout.
//!
//! Giraph-style systems keep the graph as an adjacency list on disk and
//! read each vertex's out-edges when it computes (paper §3, §5.2 — edges
//! are "organized in an adjacency list, like Giraph, and used in push").
//! Per-vertex edge offsets are kept in memory (as Hama does), so a
//! superstep that computes only a subset of vertices reads only those
//! vertices' edge bytes — this is the paper's `IO(Ē^t)` term, which shrinks
//! with the active set for traversal algorithms.

use crate::record::Record;
use crate::stats::AccessClass;
use crate::vfs::{Vfs, VfsFile};
use hybridgraph_codec::{decode_extent, encode_extent, CodecChoice, ExtentKind};
use hybridgraph_graph::{Edge, Graph, VertexId};
use std::io;
use std::ops::Range;
use std::sync::Arc;

impl Record for Edge {
    const BYTES: usize = 8;

    #[inline]
    fn write_to(&self, out: &mut [u8]) {
        out[..4].copy_from_slice(&self.dst.0.to_le_bytes());
        out[4..].copy_from_slice(&self.weight.to_le_bytes());
    }

    #[inline]
    fn read_from(inp: &[u8]) -> Self {
        Edge {
            dst: VertexId(u32::from_le_bytes(inp[..4].try_into().unwrap())),
            weight: f32::from_le_bytes(inp[4..8].try_into().unwrap()),
        }
    }
}

/// On-disk adjacency lists for one worker's contiguous vertex range.
pub struct AdjacencyStore {
    file: VfsFile,
    base: u32,
    /// `offsets[i]..offsets[i + 1]` is the *physical* byte extent of
    /// vertex `base + i`'s edge run in the file; length `count + 1`.
    /// Without a codec, physical extents equal logical edge bytes.
    /// Arc-shared so cross-job views are cheap.
    offsets: Arc<Vec<u64>>,
    /// Per-vertex out-degrees, kept only when a codec is active (the
    /// physical extents no longer encode the edge counts then).
    degrees: Option<Arc<Vec<u32>>>,
    /// Total logical edge bytes (`Σ out_degree · 8`).
    total_logical: u64,
    codec: CodecChoice,
}

impl AdjacencyStore {
    /// Builds the store without compression; see
    /// [`AdjacencyStore::build_with`].
    pub fn build(
        vfs: &dyn Vfs,
        name: &str,
        graph: &Graph,
        range: Range<u32>,
    ) -> io::Result<AdjacencyStore> {
        AdjacencyStore::build_with(vfs, name, graph, range, CodecChoice::None)
    }

    /// Builds the store for the vertices in `range`, writing their edge
    /// runs sequentially (this is the `adj` loading path of Fig. 16).
    /// With a codec, each run is one coded extent — CSR rows are
    /// dst-sorted, so delta-gap coding applies.
    pub fn build_with(
        vfs: &dyn Vfs,
        name: &str,
        graph: &Graph,
        range: Range<u32>,
        codec: CodecChoice,
    ) -> io::Result<AdjacencyStore> {
        let file = vfs.create(name)?;
        let mut offsets = Vec::with_capacity(range.len() + 1);
        offsets.push(0u64);
        let mut degrees = (!codec.is_none()).then(|| Vec::with_capacity(range.len()));
        let mut total_logical = 0u64;
        let mut buf = Vec::new();
        for v in range.clone() {
            let edges = graph.out_edges(VertexId(v));
            buf.clear();
            for e in edges {
                e.append_to(&mut buf);
            }
            total_logical += buf.len() as u64;
            if let Some(degrees) = degrees.as_mut() {
                degrees.push(edges.len() as u32);
            }
            let stored = if buf.is_empty() {
                0
            } else if codec.is_none() {
                file.append(AccessClass::SeqWrite, &buf)?;
                buf.len() as u64
            } else {
                let coded = encode_extent(codec, ExtentKind::Edges, &buf);
                file.append_coded(AccessClass::SeqWrite, &coded, buf.len() as u64)?;
                coded.len() as u64
            };
            offsets.push(offsets.last().unwrap() + stored);
        }
        Ok(AdjacencyStore {
            file,
            base: range.start,
            offsets: Arc::new(offsets),
            degrees: degrees.map(Arc::new),
            total_logical,
            codec,
        })
    }

    /// A read-only view over the same on-disk bytes whose I/O is recorded
    /// into `stats` instead of the builder's sink. The extent index is
    /// Arc-shared, so views are cheap; the underlying file is immutable
    /// after [`AdjacencyStore::build_with`], so concurrent views from
    /// different jobs are safe.
    pub fn share_view(&self, stats: Arc<crate::stats::IoStats>) -> AdjacencyStore {
        AdjacencyStore {
            file: self.file.with_stats(stats),
            base: self.base,
            offsets: Arc::clone(&self.offsets),
            degrees: self.degrees.as_ref().map(Arc::clone),
            total_logical: self.total_logical,
            codec: self.codec,
        }
    }

    /// First vertex id owned.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if the store holds no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn local(&self, v: VertexId) -> usize {
        debug_assert!(
            v.0 >= self.base && ((v.0 - self.base) as usize) < self.len(),
            "vertex {v} outside store range"
        );
        (v.0 - self.base) as usize
    }

    /// Out-degree of `v` (from the in-memory index; no I/O).
    pub fn out_degree(&self, v: VertexId) -> usize {
        let i = self.local(v);
        match &self.degrees {
            Some(d) => d[i] as usize,
            Option::None => ((self.offsets[i + 1] - self.offsets[i]) / Edge::BYTES as u64) as usize,
        }
    }

    /// Logical edge bytes of `v` (`out_degree · 8`; no I/O).
    pub fn edge_bytes_of(&self, v: VertexId) -> u64 {
        self.out_degree(v) as u64 * Edge::BYTES as u64
    }

    /// Physical bytes `v`'s edge run occupies on disk (no I/O). Equal to
    /// [`AdjacencyStore::edge_bytes_of`] without a codec.
    pub fn stored_bytes_of(&self, v: VertexId) -> u64 {
        let i = self.local(v);
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Total logical edge bytes in the store.
    pub fn total_edge_bytes(&self) -> u64 {
        self.total_logical
    }

    /// Total physical bytes the store's file occupies.
    pub fn total_stored_bytes(&self) -> u64 {
        *self.offsets.last().unwrap()
    }

    /// The codec the store was built with.
    pub fn codec(&self) -> CodecChoice {
        self.codec
    }

    /// Reads the out-edges of `v`.
    ///
    /// `class` is chosen by the caller: `SeqRead` when visiting vertices in
    /// id order (the push scan), `RandRead` for out-of-order access.
    pub fn edges_of(&self, v: VertexId, class: AccessClass) -> io::Result<Vec<Edge>> {
        let i = self.local(v);
        let (start, end) = (self.offsets[i], self.offsets[i + 1]);
        if start == end {
            return Ok(Vec::new());
        }
        let bytes = if self.codec.is_none() {
            self.file.read_vec(class, start, (end - start) as usize)?
        } else {
            let logical = self.edge_bytes_of(v);
            let coded = self
                .file
                .read_vec_coded(class, start, (end - start) as usize, logical)?;
            decode_extent(ExtentKind::Edges, &coded, logical as usize)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        };
        Ok(crate::record::decode_slice(&bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;
    use hybridgraph_graph::gen;

    #[test]
    fn edge_record_roundtrip() {
        let mut buf = [0u8; 8];
        let e = Edge::weighted(VertexId(9), 2.5);
        e.write_to(&mut buf);
        assert_eq!(Edge::read_from(&buf), e);
    }

    #[test]
    fn build_and_read_back() {
        let g = gen::uniform(40, 200, 3);
        let vfs = MemVfs::new();
        let s = AdjacencyStore::build(&vfs, "adj", &g, 10..30).unwrap();
        assert_eq!(s.len(), 20);
        assert_eq!(s.base(), 10);
        for v in 10..30u32 {
            let v = VertexId(v);
            assert_eq!(s.out_degree(v), g.out_degree(v));
            assert_eq!(s.edges_of(v, AccessClass::SeqRead).unwrap(), g.out_edges(v));
        }
    }

    #[test]
    fn total_bytes_matches_degrees() {
        let g = gen::uniform(20, 100, 1);
        let vfs = MemVfs::new();
        let s = AdjacencyStore::build(&vfs, "adj", &g, 0..20).unwrap();
        let expect: u64 = (0..20u32)
            .map(|v| g.out_degree(VertexId(v)) as u64 * 8)
            .sum();
        assert_eq!(s.total_edge_bytes(), expect);
        assert_eq!(vfs.stats().snapshot().seq_write_bytes, expect);
    }

    #[test]
    fn selective_read_accounts_only_touched_bytes() {
        let g = gen::uniform(20, 100, 2);
        let vfs = MemVfs::new();
        let s = AdjacencyStore::build(&vfs, "adj", &g, 0..20).unwrap();
        let before = vfs.stats().snapshot();
        s.edges_of(VertexId(5), AccessClass::SeqRead).unwrap();
        let d = vfs.stats().snapshot().delta(&before);
        assert_eq!(d.seq_read_bytes, s.edge_bytes_of(VertexId(5)));
    }

    #[test]
    fn coded_store_reads_back_identically() {
        let g = gen::uniform(80, 1200, 5);
        let vfs = MemVfs::new();
        let plain = AdjacencyStore::build(&vfs, "adj", &g, 0..80).unwrap();
        for codec in [CodecChoice::Gaps, CodecChoice::Bv] {
            let cvfs = MemVfs::new();
            let s = AdjacencyStore::build_with(&cvfs, "adj", &g, 0..80, codec).unwrap();
            assert_eq!(s.total_edge_bytes(), plain.total_edge_bytes());
            for v in 0..80u32 {
                let v = VertexId(v);
                assert_eq!(s.out_degree(v), g.out_degree(v), "{codec:?}");
                assert_eq!(s.edge_bytes_of(v), plain.edge_bytes_of(v));
                assert_eq!(s.edges_of(v, AccessClass::SeqRead).unwrap(), g.out_edges(v));
            }
            let view = s.share_view(Arc::new(crate::stats::IoStats::default()));
            for v in (0..80u32).step_by(7) {
                let v = VertexId(v);
                assert_eq!(
                    view.edges_of(v, AccessClass::RandRead).unwrap(),
                    g.out_edges(v)
                );
            }
        }
        // Gaps shrinks the file and the coded read accounts both sides.
        let cvfs = MemVfs::new();
        let s = AdjacencyStore::build_with(&cvfs, "adj", &g, 0..80, CodecChoice::Gaps).unwrap();
        assert!(s.total_stored_bytes() * 2 < s.total_edge_bytes());
        let wsnap = cvfs.stats().snapshot();
        assert_eq!(wsnap.seq_write_bytes, s.total_stored_bytes());
        assert_eq!(wsnap.seq_write_logical_bytes, s.total_edge_bytes());
        let v = VertexId(7);
        let before = cvfs.stats().snapshot();
        s.edges_of(v, AccessClass::RandRead).unwrap();
        let d = cvfs.stats().snapshot().delta(&before);
        assert_eq!(d.rand_read_bytes, s.stored_bytes_of(v));
        assert_eq!(d.rand_read_logical_bytes, s.edge_bytes_of(v));
    }

    #[test]
    fn zero_degree_vertices_are_free() {
        let g = gen::star(10); // only vertex 0 has out-edges
        let vfs = MemVfs::new();
        let s = AdjacencyStore::build(&vfs, "adj", &g, 0..10).unwrap();
        let before = vfs.stats().snapshot();
        assert!(s
            .edges_of(VertexId(5), AccessClass::SeqRead)
            .unwrap()
            .is_empty());
        assert_eq!(vfs.stats().snapshot(), before);
        assert_eq!(s.out_degree(VertexId(0)), 9);
    }
}

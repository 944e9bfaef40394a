//! The VE-BLOCK on-disk graph layout (paper §4.1).
//!
//! VE-BLOCK separates a worker's graph into:
//!
//! * **Vblocks** — fixed-size ranges of vertices (values live in the
//!   [`ValueStore`](crate::value_store::ValueStore), block-aligned),
//! * **Eblocks** `g_{j,i}` — for each local source block `b_j` and each
//!   *global* destination block `b_i`, the edges from `b_j` into `b_i`,
//!   clustered per source vertex into **fragments**
//!   `(svertex id, edge count, edges…)`,
//! * **metadata `X_j`** — per source block a bitmap over destination
//!   blocks (bit `i` set iff `g_{j,i}` is non-empty); the dynamic
//!   responding indicator `res` is maintained by the engine.
//!
//! A worker's Eblocks live in one file, row by row (`j_local · V + i`),
//! and are located through an Elias-Fano directory of three cumulative
//! sequences over that grid: physical offset, logical bytes and
//! fragments. Empty Eblocks cost no bytes on disk and no I/O.
//!
//! The store is written a source block at a time by [`VeBlockWriter`]:
//! only one block's Eblocks are ever buffered, so a caller that generates
//! adjacency on the fly (the `billion` experiment) never holds its edge
//! list. [`VeBlockStore::build_with`] is the same writer fed from a
//! [`Graph`].
//!
//! Answering a pull request for block `b_i` reads each non-empty `g_{j,i}`
//! sequentially (edge bytes + per-fragment auxiliary bytes — the paper's
//! `IO(E^t)` and `IO(F^t)`) plus one random svertex-value read per
//! responding fragment (`IO(V^t_rr)`).

use crate::record::Record;
use crate::stats::AccessClass;
use crate::vfs::{Vfs, VfsFile};
use hybridgraph_codec::ef::EliasFano;
use hybridgraph_codec::{decode_fragments, encode_extent, CodecChoice, ExtentKind, Frags};
use hybridgraph_graph::{BlockId, BlockLayout, Edge, Graph, VertexId, WorkerId};
use std::io;
use std::sync::Arc;

/// Byte cost of one fragment's auxiliary data: svertex id + edge count.
pub const FRAGMENT_AUX_BYTES: u64 = 8;

/// Static per-Vblock metadata (the paper's `X_j`, minus the dynamic `res`
/// flag, which the engine owns because it changes every superstep).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockMeta {
    /// Bit `i` set iff there are edges from this block to global block `i`.
    bitmap: Vec<u64>,
}

impl BlockMeta {
    fn new(num_blocks: usize) -> Self {
        BlockMeta {
            bitmap: vec![0; num_blocks.div_ceil(64)],
        }
    }

    fn set_bit(&mut self, i: usize) {
        self.bitmap[i / 64] |= 1 << (i % 64);
    }

    /// True if the block has at least one edge into global block `i`.
    pub fn has_edges_to(&self, i: BlockId) -> bool {
        (self.bitmap[i.index() / 64] >> (i.index() % 64)) & 1 == 1
    }

    /// In-memory footprint of the paper's `X_j` in bytes (counted toward
    /// the memory-usage curves of Fig. 14(d) and Fig. 23): vertex count,
    /// in- and out-degree totals, bitmap and `res` flag.
    pub fn memory_bytes(&self) -> u64 {
        4 + 8 + 8 + self.bitmap.len() as u64 * 8 + 1
    }
}

/// Extent of one Eblock `g_{j,i}`, rebuilt from the store's directory.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EblockInfo {
    /// Byte offset of the Eblock inside the worker's Eblock file.
    pub offset: u64,
    /// Total *logical* Eblock bytes (edges + fragment auxiliary data,
    /// uncompressed).
    pub bytes: u64,
    /// Logical auxiliary bytes: `fragments * FRAGMENT_AUX_BYTES`.
    pub aux_bytes: u64,
    /// Logical edge payload bytes.
    pub edge_bytes: u64,
    /// *Physical* bytes the Eblock occupies on disk. Equal to `bytes`
    /// when the store was built without a codec.
    pub stored_bytes: u64,
    /// Number of fragments.
    pub fragments: u32,
}

impl EblockInfo {
    /// Splits the physical extent into (edge, aux) shares proportional to
    /// the logical split, for cost-model terms that want the two
    /// separately (`IO(E^t)` vs `IO(F^t)`). The shares always sum to
    /// `stored_bytes`.
    pub fn stored_split(&self) -> (u64, u64) {
        if self.bytes == 0 {
            return (0, 0);
        }
        let aux = self.stored_bytes * self.aux_bytes / self.bytes;
        (self.stored_bytes - aux, aux)
    }
}

/// One decoded fragment: a source vertex and its clustered edges into the
/// requested destination block.
#[derive(Clone, Debug, PartialEq)]
pub struct Fragment {
    /// The source vertex.
    pub src: VertexId,
    /// Its edges into the destination block.
    pub edges: Vec<Edge>,
}

/// The in-memory side of a store; immutable once written, so views share
/// it.
struct Index {
    /// Global blocks per grid row (the paper's `V`).
    num_blocks: usize,
    /// Global id of local block 0 (a worker's blocks are contiguous).
    first_block: u32,
    /// First vertex id covered by the local blocks.
    base_vertex: u32,
    /// `meta[j_local]` — `X_j`.
    meta: Vec<BlockMeta>,
    /// Cumulative physical bytes, logical bytes and fragments before each
    /// grid cell: `cells + 1` entries each.
    phys: EliasFano,
    logi: EliasFano,
    frags: EliasFano,
    /// `row_stored[j_local]` — Σ over the row of each Eblock's
    /// [`EblockInfo::stored_split`].
    row_stored: Vec<(u64, u64)>,
    /// `fragment_counts[v - base_vertex]` — how many fragments vertex `v`
    /// appears in (its out-edges span that many Eblocks). Used to estimate
    /// `IO(V^t_rr)` for the hybrid predictor without running b-pull.
    fragment_counts: Vec<u32>,
}

/// The VE-BLOCK store for one worker's local blocks.
pub struct VeBlockStore {
    /// All local Eblocks, row-major.
    file: VfsFile,
    index: Arc<Index>,
    /// The codec every Eblock extent was written (and is read) with.
    codec: CodecChoice,
}

/// Writes one worker's VE-BLOCK store a source block at a time.
///
/// Feed the out-edges of every local vertex in id order with
/// [`VeBlockWriter::push`]; each completed source block's row of Eblocks
/// is appended to the file and only the directory stays behind.
pub struct VeBlockWriter<'a> {
    layout: &'a BlockLayout,
    file: VfsFile,
    codec: CodecChoice,
    /// Global id of the source block being filled, and one past the last
    /// local block.
    row: u32,
    end_row: u32,
    next_vertex: u32,
    /// Fragment streams and counts of the current row, per destination.
    cells: Vec<Vec<u8>>,
    cell_frags: Vec<u32>,
    first_block: u32,
    base_vertex: u32,
    meta: Vec<BlockMeta>,
    phys: Vec<u64>,
    logi: Vec<u64>,
    frags: Vec<u64>,
    row_stored: Vec<(u64, u64)>,
    fragment_counts: Vec<u32>,
    peak_row_bytes: u64,
}

impl<'a> VeBlockWriter<'a> {
    /// Starts `worker`'s store under `layout`, in the file `eblk_<worker>`.
    pub fn create(
        vfs: &dyn Vfs,
        layout: &'a BlockLayout,
        worker: WorkerId,
        codec: CodecChoice,
    ) -> io::Result<VeBlockWriter<'a>> {
        let first = layout.blocks_of_worker(worker).next();
        let first_block = first.map_or(0, |b| b.0);
        let base_vertex = first.map_or(0, |b| layout.block_range(b).start);
        let end_row = first_block + layout.worker_block_count(worker) as u32;
        let num_blocks = layout.num_blocks();
        Ok(VeBlockWriter {
            layout,
            file: vfs.create(&format!("eblk_{}", worker.index()))?,
            codec,
            row: first_block,
            end_row,
            next_vertex: base_vertex,
            cells: vec![Vec::new(); num_blocks],
            cell_frags: vec![0; num_blocks],
            first_block,
            base_vertex,
            meta: Vec::new(),
            phys: vec![0],
            logi: vec![0],
            frags: vec![0],
            row_stored: Vec::new(),
            fragment_counts: Vec::new(),
            peak_row_bytes: 0,
        })
    }

    /// Adds the out-edges of the next local vertex, sorted by destination.
    pub fn push(&mut self, edges: &[Edge]) -> io::Result<()> {
        self.flush_complete_rows()?;
        if self.row == self.end_row {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "vertex past the worker's last block",
            ));
        }
        let v = self.next_vertex;
        let mut fragments = 0;
        // Sorted destinations fall into ascending per-block runs: one pass
        // emits each fragment, with one block lookup per run.
        let mut k = 0;
        while k < edges.len() {
            let bi = self.layout.block_of(edges[k].dst);
            let block_end = self.layout.block_range(bi).end;
            let mut end = k + 1;
            while end < edges.len() && edges[end].dst.0 < block_end {
                end += 1;
            }
            let buf = &mut self.cells[bi.index()];
            v.append_to(buf);
            ((end - k) as u32).append_to(buf);
            for e in &edges[k..end] {
                e.append_to(buf);
            }
            self.cell_frags[bi.index()] += 1;
            fragments += 1;
            k = end;
        }
        self.fragment_counts.push(fragments);
        self.next_vertex += 1;
        Ok(())
    }

    /// Largest buffered row so far: the bytes reserved for one source
    /// block's Eblocks, the writer's whole edge working set.
    pub fn peak_row_bytes(&self) -> u64 {
        self.peak_row_bytes
    }

    /// Flushes every row whose vertices have all been pushed.
    fn flush_complete_rows(&mut self) -> io::Result<()> {
        while self.row < self.end_row
            && self.next_vertex == self.layout.block_range(BlockId(self.row)).end
        {
            self.flush_row()?;
        }
        Ok(())
    }

    /// Appends the current row's Eblocks in destination order and records
    /// them in the directory.
    fn flush_row(&mut self) -> io::Result<()> {
        let row_bytes = self.cells.iter().map(|c| c.capacity() as u64).sum();
        self.peak_row_bytes = self.peak_row_bytes.max(row_bytes);
        let mut meta = BlockMeta::new(self.cells.len());
        let (mut row_edge, mut row_aux) = (0, 0);
        for (i, buf) in self.cells.iter_mut().enumerate() {
            let stored_bytes = if buf.is_empty() {
                0
            } else if self.codec.is_none() {
                self.file.append(AccessClass::SeqWrite, buf)?;
                buf.len() as u64
            } else {
                let coded = encode_extent(self.codec, ExtentKind::Fragments, buf);
                self.file
                    .append_coded(AccessClass::SeqWrite, &coded, buf.len() as u64)?;
                coded.len() as u64
            };
            let fragments = std::mem::take(&mut self.cell_frags[i]);
            let (e, a) = EblockInfo {
                bytes: buf.len() as u64,
                aux_bytes: u64::from(fragments) * FRAGMENT_AUX_BYTES,
                stored_bytes,
                ..EblockInfo::default()
            }
            .stored_split();
            row_edge += e;
            row_aux += a;
            if fragments > 0 {
                meta.set_bit(i);
            }
            self.phys.push(self.phys.last().unwrap() + stored_bytes);
            self.logi.push(self.logi.last().unwrap() + buf.len() as u64);
            self.frags
                .push(self.frags.last().unwrap() + u64::from(fragments));
            buf.clear();
        }
        self.meta.push(meta);
        self.row_stored.push((row_edge, row_aux));
        self.row += 1;
        Ok(())
    }

    /// Writes the remaining rows and freezes the directory. Every local
    /// vertex must have been pushed.
    pub fn finish(mut self) -> io::Result<VeBlockStore> {
        self.flush_complete_rows()?;
        if self.row < self.end_row {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("vertex {} was never pushed", self.next_vertex),
            ));
        }
        let ef = |values: &[u64]| EliasFano::build(values).expect("running sums never decrease");
        let index = Index {
            num_blocks: self.cells.len(),
            first_block: self.first_block,
            base_vertex: self.base_vertex,
            meta: self.meta,
            phys: ef(&self.phys),
            logi: ef(&self.logi),
            frags: ef(&self.frags),
            row_stored: self.row_stored,
            fragment_counts: self.fragment_counts,
        };
        Ok(VeBlockStore {
            file: self.file,
            index: Arc::new(index),
            codec: self.codec,
        })
    }
}

impl VeBlockStore {
    /// Builds the VE-BLOCK layout for `worker`'s blocks of `layout` over
    /// `graph` without compression; see [`VeBlockStore::build_with`].
    pub fn build(
        vfs: &dyn Vfs,
        graph: &Graph,
        layout: &BlockLayout,
        worker: WorkerId,
    ) -> io::Result<VeBlockStore> {
        VeBlockStore::build_with(vfs, graph, layout, worker, CodecChoice::None)
    }

    /// Builds the VE-BLOCK layout for `worker`'s blocks of `layout` over
    /// `graph`. Edge and auxiliary bytes are written sequentially (this is
    /// the `VE-BLOCK` loading path measured in Fig. 16). With a codec,
    /// each Eblock is stored as one coded extent (fragment svertex ids and
    /// per-fragment neighbour ids are ascending, so delta-gap coding
    /// applies); logical byte accounting still sees the uncompressed
    /// sizes.
    pub fn build_with(
        vfs: &dyn Vfs,
        graph: &Graph,
        layout: &BlockLayout,
        worker: WorkerId,
        codec: CodecChoice,
    ) -> io::Result<VeBlockStore> {
        let mut w = VeBlockWriter::create(vfs, layout, worker, codec)?;
        for b in layout.blocks_of_worker(worker) {
            for v in layout.block_range(b) {
                w.push(graph.out_edges(VertexId(v)))?;
            }
        }
        w.finish()
    }

    /// A read-only view over the same Eblock file whose I/O is recorded
    /// into `stats` instead of the builder's sink. The directory,
    /// metadata and fragment counts are Arc-shared; the file is immutable
    /// after the build (vertex *values* live in the per-job
    /// [`ValueStore`](crate::value_store::ValueStore), never here), so
    /// concurrent views from different jobs are safe.
    pub fn share_view(&self, stats: Arc<crate::stats::IoStats>) -> VeBlockStore {
        VeBlockStore {
            file: self.file.with_stats(stats),
            index: Arc::clone(&self.index),
            codec: self.codec,
        }
    }

    /// How many fragments local vertex `v` appears in (no I/O).
    pub fn fragments_of(&self, v: VertexId) -> u32 {
        let i = (v.0 - self.index.base_vertex) as usize;
        debug_assert!(i < self.index.fragment_counts.len(), "vertex {v} not local");
        self.index.fragment_counts[i]
    }

    /// Total *physical* Eblock bytes a pull request touching local block
    /// `j` scans: `(edge bytes, auxiliary bytes)` summed over all
    /// destinations — what the device actually moves, and therefore what
    /// the `Q_t` predictor should charge for a b-pull scan of block `j`.
    pub fn block_scan_stored_bytes(&self, j: BlockId) -> (u64, u64) {
        self.index.row_stored[self.local_of(j)]
    }

    /// Number of local blocks.
    pub fn local_blocks(&self) -> usize {
        self.index.meta.len()
    }

    /// Global id of the first local block.
    pub fn first_block(&self) -> BlockId {
        BlockId(self.index.first_block)
    }

    #[inline]
    fn local_of(&self, b: BlockId) -> usize {
        let j = (b.0 - self.index.first_block) as usize;
        debug_assert!(j < self.local_blocks(), "block {b} is not local");
        j
    }

    /// Metadata `X_j` of local block `b`.
    pub fn meta(&self, b: BlockId) -> &BlockMeta {
        &self.index.meta[self.local_of(b)]
    }

    /// Extent info of Eblock `g_{j,i}`: six directory reads, no I/O.
    pub fn eblock_info(&self, j: BlockId, i: BlockId) -> EblockInfo {
        let ix = &*self.index;
        let c = (self.local_of(j) * ix.num_blocks + i.index()) as u64;
        let offset = ix.phys.get(c);
        let bytes = ix.logi.get(c + 1) - ix.logi.get(c);
        let fragments = ix.frags.get(c + 1) - ix.frags.get(c);
        let aux_bytes = fragments * FRAGMENT_AUX_BYTES;
        EblockInfo {
            offset,
            bytes,
            aux_bytes,
            edge_bytes: bytes - aux_bytes,
            stored_bytes: ix.phys.get(c + 1) - offset,
            fragments: fragments as u32,
        }
    }

    /// Total fragments across the store (the paper's `f`, used by
    /// Theorem 2's bound `B⊥ = |E|/2 − f`).
    pub fn total_fragments(&self) -> u64 {
        last(&self.index.frags)
    }

    /// Total logical Eblock bytes (edges + fragment auxiliary data).
    pub fn total_logical_bytes(&self) -> u64 {
        last(&self.index.logi)
    }

    /// Total logical edge payload bytes in the store.
    pub fn total_edge_bytes(&self) -> u64 {
        self.total_logical_bytes() - self.total_fragments() * FRAGMENT_AUX_BYTES
    }

    /// Total physical bytes the store's Eblock file occupies.
    pub fn total_stored_bytes(&self) -> u64 {
        last(&self.index.phys)
    }

    /// The codec the store was built with.
    pub fn codec(&self) -> CodecChoice {
        self.codec
    }

    /// In-memory footprint of the `X_j` metadata (what the paper's memory
    /// curves count: `#`, `ind`, `outd`, bitmap, `res` — Fig. 23's
    /// "metadata in VE-BLOCK").
    pub fn metadata_memory_bytes(&self) -> u64 {
        self.index.meta.iter().map(|m| m.memory_bytes()).sum()
    }

    /// In-memory footprint of the Elias-Fano Eblock directory (an
    /// implementation detail of this store, reported separately).
    pub fn index_memory_bytes(&self) -> u64 {
        let ix = &*self.index;
        ix.phys.memory_bytes() + ix.logi.memory_bytes() + ix.frags.memory_bytes()
    }

    /// Sequentially reads and decodes Eblock `g_{j,i}`.
    ///
    /// Returns the fragments in svertex order. Accounts the whole Eblock
    /// extent (edges + auxiliary data) as a sequential read — physical
    /// stored bytes on the device, logical uncompressed bytes beside them;
    /// the caller is responsible for the random svertex value reads.
    /// Stored bytes that do not decode to exactly the indexed fragments
    /// are an [`io::ErrorKind::InvalidData`] error.
    pub fn scan_eblock(&self, j: BlockId, i: BlockId) -> io::Result<Vec<Fragment>> {
        let mut cols = Frags::default();
        self.scan_eblock_into(j, i, &mut cols)?;
        Ok(fragments_from_columns(&cols))
    }

    /// [`VeBlockStore::scan_eblock`] into columns: the same read, the
    /// same accounting and the same checks, but the fragments land in
    /// `cols` (replacing its contents) instead of one vector per
    /// fragment, so a caller that reuses `cols` allocates nothing per
    /// fragment. Returns the Eblock's extent info.
    pub fn scan_eblock_into(
        &self,
        j: BlockId,
        i: BlockId,
        cols: &mut Frags,
    ) -> io::Result<EblockInfo> {
        let info = self.eblock_info(j, i);
        if info.bytes == 0 {
            cols.clear();
            return Ok(info);
        }
        if self.codec.is_none() {
            let raw = self
                .file
                .read_vec(AccessClass::SeqRead, info.offset, info.bytes as usize)?;
            cols.parse_raw(&raw)
        } else {
            let coded = self.file.read_vec_coded(
                AccessClass::SeqRead,
                info.offset,
                info.stored_bytes as usize,
                info.bytes,
            )?;
            decode_fragments(&coded, info.bytes as usize, cols)
        }
        .map_err(|e| eblock_invalid(j, i, e.to_string()))?;
        if cols.len() != info.fragments as usize {
            return Err(eblock_invalid(
                j,
                i,
                format!(
                    "decoded {} fragments, index says {}",
                    cols.len(),
                    info.fragments
                ),
            ));
        }
        Ok(info)
    }
}

/// The final (total) entry of a cumulative directory sequence.
fn last(ef: &EliasFano) -> u64 {
    ef.get(ef.len() - 1)
}

/// The error for stored Eblock bytes that do not decode as indexed.
fn eblock_invalid(j: BlockId, i: BlockId, why: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("eblock g_{{{j},{i}}}: {why}"),
    )
}

/// Splits decoded fragment columns into one [`Fragment`] per source.
fn fragments_from_columns(cols: &Frags) -> Vec<Fragment> {
    cols.iter()
        .map(|(src, ids, weights)| Fragment {
            src: VertexId(src),
            edges: ids
                .iter()
                .zip(weights)
                .map(|(&dst, &w)| Edge::weighted(VertexId(dst), f32::from_bits(w)))
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;
    use hybridgraph_graph::{gen, Partition};

    fn layout(n: usize, workers: usize, per_worker: usize) -> (Partition, BlockLayout) {
        let p = Partition::range(n, workers);
        let l = BlockLayout::uniform(&p, per_worker);
        (p, l)
    }

    #[test]
    fn fragments_cover_all_edges() {
        let g = gen::uniform(60, 400, 7);
        let (_, l) = layout(60, 3, 2);
        let vfs = MemVfs::new();
        let mut total_edges = 0usize;
        for w in 0..3 {
            let s = VeBlockStore::build(&vfs, &g, &l, WorkerId(w)).unwrap();
            for j in l.blocks_of_worker(WorkerId(w)) {
                for i in l.block_ids() {
                    for frag in s.scan_eblock(j, i).unwrap() {
                        // Fragment src belongs to block j, dsts to block i.
                        assert_eq!(l.block_of(frag.src), j);
                        for e in &frag.edges {
                            assert_eq!(l.block_of(e.dst), i);
                        }
                        total_edges += frag.edges.len();
                    }
                }
            }
        }
        assert_eq!(total_edges, g.num_edges());
    }

    #[test]
    fn bitmap_matches_eblock_contents() {
        let g = gen::uniform(50, 300, 9);
        let (_, l) = layout(50, 2, 3);
        let vfs = MemVfs::new();
        let s = VeBlockStore::build(&vfs, &g, &l, WorkerId(1)).unwrap();
        for j in l.blocks_of_worker(WorkerId(1)) {
            for i in l.block_ids() {
                let has = s.eblock_info(j, i).fragments > 0;
                assert_eq!(s.meta(j).has_edges_to(i), has, "g_{{{j},{i}}}");
            }
        }
    }

    #[test]
    fn fragment_clustering_groups_per_source() {
        // star: all edges come from vertex 0 -> exactly one fragment per
        // non-empty destination block.
        let g = gen::star(32);
        let (_, l) = layout(32, 1, 4);
        let vfs = MemVfs::new();
        let s = VeBlockStore::build(&vfs, &g, &l, WorkerId(0)).unwrap();
        let b0 = BlockId(0);
        for i in l.block_ids() {
            let info = s.eblock_info(b0, i);
            if info.fragments > 0 {
                assert_eq!(info.fragments, 1, "one fragment per dst block");
            }
        }
        assert_eq!(s.total_fragments(), 4); // vertex 0 reaches all 4 blocks
    }

    #[test]
    fn aux_and_edge_bytes_split() {
        let g = gen::uniform(30, 120, 4);
        let (_, l) = layout(30, 1, 3);
        let vfs = MemVfs::new();
        let s = VeBlockStore::build(&vfs, &g, &l, WorkerId(0)).unwrap();
        let mut edge_bytes = 0;
        let mut aux_bytes = 0;
        for j in l.block_ids() {
            for i in l.block_ids() {
                let info = s.eblock_info(j, i);
                assert_eq!(info.bytes, info.edge_bytes + info.aux_bytes);
                assert_eq!(info.aux_bytes, info.fragments as u64 * FRAGMENT_AUX_BYTES);
                edge_bytes += info.edge_bytes;
                aux_bytes += info.aux_bytes;
            }
        }
        assert_eq!(edge_bytes, g.num_edges() as u64 * 8);
        assert_eq!(aux_bytes, s.total_fragments() * FRAGMENT_AUX_BYTES);
        assert_eq!(s.total_edge_bytes(), edge_bytes);
    }

    #[test]
    fn scan_accounts_sequential_read() {
        let g = gen::uniform(30, 120, 4);
        let (_, l) = layout(30, 1, 2);
        let vfs = MemVfs::new();
        let s = VeBlockStore::build(&vfs, &g, &l, WorkerId(0)).unwrap();
        let before = vfs.stats().snapshot();
        let info = s.eblock_info(BlockId(0), BlockId(1));
        s.scan_eblock(BlockId(0), BlockId(1)).unwrap();
        let d = vfs.stats().snapshot().delta(&before);
        assert_eq!(d.seq_read_bytes, info.bytes);
        assert_eq!(d.rand_read_bytes, 0);
    }

    #[test]
    fn theorem1_fragments_grow_with_block_count() {
        // Theorem 1: E[#fragments] is proportional to (monotone in) V.
        let g = gen::rmat(256, 4096, gen::RmatParams::default(), 5);
        let mut prev = 0u64;
        for per_worker in [1usize, 2, 4, 8, 16] {
            let (_, l) = layout(256, 2, per_worker);
            let vfs = MemVfs::new();
            let mut frags = 0;
            for w in 0..2 {
                frags += VeBlockStore::build(&vfs, &g, &l, WorkerId(w))
                    .unwrap()
                    .total_fragments();
            }
            assert!(
                frags >= prev,
                "fragments must grow with V: {frags} < {prev}"
            );
            prev = frags;
        }
        // And it is bounded by |E|.
        assert!(prev <= g.num_edges() as u64);
    }

    #[test]
    fn per_vertex_fragment_counts() {
        let g = gen::uniform(40, 200, 6);
        let (_, l) = layout(40, 2, 2);
        let vfs = MemVfs::new();
        let s = VeBlockStore::build(&vfs, &g, &l, WorkerId(0)).unwrap();
        // Sum of per-vertex counts equals total fragments.
        let sum: u64 = (0..20u32).map(|v| s.fragments_of(VertexId(v)) as u64).sum();
        assert_eq!(sum, s.total_fragments());
        // A vertex's fragment count is bounded by min(out-degree, V).
        for v in 0..20u32 {
            let fc = s.fragments_of(VertexId(v)) as usize;
            assert!(fc <= g.out_degree(VertexId(v)).min(l.num_blocks()));
        }
    }

    #[test]
    fn block_scan_totals() {
        let g = gen::uniform(30, 150, 2);
        let (_, l) = layout(30, 1, 3);
        for codec in [CodecChoice::None, CodecChoice::Bv] {
            let s = VeBlockStore::build_with(&MemVfs::new(), &g, &l, WorkerId(0), codec).unwrap();
            for j in l.block_ids() {
                let (mut edge, mut aux) = (0, 0);
                for i in l.block_ids() {
                    let (e, a) = s.eblock_info(j, i).stored_split();
                    edge += e;
                    aux += a;
                }
                assert_eq!(s.block_scan_stored_bytes(j), (edge, aux), "{codec:?}");
            }
        }
    }

    #[test]
    fn coded_store_decodes_identically_and_shrinks() {
        let g = gen::uniform(120, 2000, 11);
        let (_, l) = layout(120, 2, 3);
        let base_vfs = MemVfs::new();
        let base = VeBlockStore::build(&base_vfs, &g, &l, WorkerId(0)).unwrap();
        for codec in [CodecChoice::Gaps, CodecChoice::Bv] {
            let vfs = MemVfs::new();
            let s = VeBlockStore::build_with(&vfs, &g, &l, WorkerId(0), codec).unwrap();
            assert_eq!(s.total_edge_bytes(), base.total_edge_bytes());
            assert_eq!(s.total_logical_bytes(), base.total_logical_bytes());
            assert_eq!(s.total_fragments(), base.total_fragments());
            for j in l.blocks_of_worker(WorkerId(0)) {
                for i in l.block_ids() {
                    let (info, want) = (s.eblock_info(j, i), base.eblock_info(j, i));
                    assert_eq!((info.bytes, info.fragments), (want.bytes, want.fragments));
                    assert_eq!(
                        s.scan_eblock(j, i).unwrap(),
                        base.scan_eblock(j, i).unwrap(),
                        "{codec:?} g_{{{j},{i}}}"
                    );
                }
            }
        }
        // Gaps must clearly beat raw on sorted uniform-graph eblocks.
        let vfs = MemVfs::new();
        let s = VeBlockStore::build_with(&vfs, &g, &l, WorkerId(0), CodecChoice::Gaps).unwrap();
        let logical = s.total_logical_bytes();
        assert!(
            s.total_stored_bytes() * 2 < logical,
            "gaps should at least halve eblock bytes: {} vs {logical}",
            s.total_stored_bytes()
        );
        // And the BV tier must beat gaps on the same eblocks — its
        // bit-granular codes are the whole point of format v3.
        let bvfs = MemVfs::new();
        let b = VeBlockStore::build_with(&bvfs, &g, &l, WorkerId(0), CodecChoice::Bv).unwrap();
        assert!(
            b.total_stored_bytes() < s.total_stored_bytes(),
            "bv {} not under gaps {}",
            b.total_stored_bytes(),
            s.total_stored_bytes()
        );
    }

    #[test]
    fn coded_scan_accounts_physical_and_logical() {
        let g = gen::uniform(60, 600, 3);
        let (_, l) = layout(60, 1, 2);
        let vfs = MemVfs::new();
        let s = VeBlockStore::build_with(&vfs, &g, &l, WorkerId(0), CodecChoice::Gaps).unwrap();
        let info = s.eblock_info(BlockId(0), BlockId(1));
        assert!(info.stored_bytes < info.bytes);
        let (se, sa) = info.stored_split();
        assert_eq!(se + sa, info.stored_bytes);
        let before = vfs.stats().snapshot();
        s.scan_eblock(BlockId(0), BlockId(1)).unwrap();
        let d = vfs.stats().snapshot().delta(&before);
        assert_eq!(d.seq_read_bytes, info.stored_bytes);
        assert_eq!(d.seq_read_logical_bytes, info.bytes);
    }

    /// The first eblock of local block 0 holding at least two fragments.
    fn eblock_with_two_fragments(s: &VeBlockStore, l: &BlockLayout) -> (BlockId, EblockInfo) {
        l.block_ids()
            .map(|i| (i, s.eblock_info(BlockId(0), i)))
            .find(|(_, info)| info.fragments >= 2)
            .expect("an eblock with two fragments")
    }

    #[test]
    fn corrupt_eblock_is_invalid_data_not_a_panic() {
        let g = gen::uniform(60, 900, 5);
        let (_, l) = layout(60, 1, 2);
        let read_u32 = |f: &VfsFile, off: u64| {
            let mut b = [0u8; 4];
            f.read_at(AccessClass::SeqRead, off, &mut b).unwrap();
            u32::from_le_bytes(b)
        };
        let expect_invalid = |s: &VeBlockStore, i: BlockId, what: &str| {
            let err = s.scan_eblock(BlockId(0), i).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            let err = s
                .scan_eblock_into(BlockId(0), i, &mut Frags::default())
                .expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        };

        // Raw store: a count that runs past the extent, then a count that
        // swallows the next fragment so the stream parses but holds one
        // fragment fewer than the index says.
        for grow in [u32::MAX, 0] {
            let vfs = MemVfs::new();
            let s = VeBlockStore::build(&vfs, &g, &l, WorkerId(0)).unwrap();
            let (i, info) = eblock_with_two_fragments(&s, &l);
            let f = vfs.open("eblk_0").unwrap();
            let c0 = read_u32(&f, info.offset + 4);
            let c1 = read_u32(&f, info.offset + 8 + 8 * u64::from(c0) + 4);
            let count = if grow == 0 { c0 + 1 + c1 } else { grow };
            f.write_at(AccessClass::SeqWrite, info.offset + 4, &count.to_le_bytes())
                .unwrap();
            expect_invalid(&s, i, &format!("raw count {count}"));
        }

        // BV store: an unknown tag, a raw tag over a coded body, and a
        // body overwritten with noise.
        for (what, patch) in [
            ("unknown tag", vec![0x7fu8]),
            ("raw tag", vec![0u8]),
            ("noise", vec![0xff; 6]),
        ] {
            let vfs = MemVfs::new();
            let s = VeBlockStore::build_with(&vfs, &g, &l, WorkerId(0), CodecChoice::Bv).unwrap();
            let (i, info) = eblock_with_two_fragments(&s, &l);
            assert!(info.stored_bytes > patch.len() as u64, "{what}");
            let f = vfs.open("eblk_0").unwrap();
            f.write_at(AccessClass::SeqWrite, info.offset, &patch)
                .unwrap();
            expect_invalid(&s, i, what);
        }
    }

    /// A sparse 64×64 grid of 4-vertex blocks: source block `b`'s first
    /// vertex points at two vertices of block `7b + 1 mod 64`, nothing
    /// else has edges.
    fn sparse_grid(vfs: &MemVfs, layout: &BlockLayout) -> VeBlockStore {
        let mut w = VeBlockWriter::create(vfs, layout, WorkerId(0), CodecChoice::Bv).unwrap();
        for v in 0..256u32 {
            let d = (v / 4 * 7 + 1) % 64 * 4;
            let edges = [Edge::to(VertexId(d)), Edge::to(VertexId(d + 1))];
            w.push(if v % 4 == 0 { &edges } else { &[] }).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn ef_directory_beats_flat_index() {
        let l = BlockLayout::fixed(256, 4);
        let vfs = MemVfs::new();
        let s = sparse_grid(&vfs, &l);
        // Three u64 columns per cell is what a flat directory would hold.
        let flat = 24 * 64 * 64;
        assert!(
            s.index_memory_bytes() * 4 < flat,
            "ef {} vs flat {flat}",
            s.index_memory_bytes()
        );
        assert_eq!(s.total_fragments(), 64);
        let hit = s.scan_eblock(BlockId(0), BlockId(1)).unwrap();
        assert_eq!(hit.len(), 1);
        assert_eq!(
            hit[0].edges,
            vec![Edge::to(VertexId(4)), Edge::to(VertexId(5))]
        );
    }

    #[test]
    fn empty_cells_cost_no_io() {
        let l = BlockLayout::fixed(256, 4);
        let vfs = MemVfs::new();
        let s = sparse_grid(&vfs, &l);
        let before = vfs.stats().snapshot();
        assert!(s.scan_eblock(BlockId(0), BlockId(2)).unwrap().is_empty());
        assert_eq!(
            s.eblock_info(BlockId(0), BlockId(2)),
            EblockInfo {
                offset: s.eblock_info(BlockId(0), BlockId(1)).offset
                    + s.eblock_info(BlockId(0), BlockId(1)).stored_bytes,
                ..EblockInfo::default()
            }
        );
        assert_eq!(vfs.stats().snapshot(), before);
    }

    #[test]
    fn writer_rejects_missing_and_extra_vertices() {
        let l = BlockLayout::fixed(10, 4);
        let vfs = MemVfs::new();
        let mut w = VeBlockWriter::create(&vfs, &l, WorkerId(0), CodecChoice::None).unwrap();
        w.push(&[]).unwrap();
        let err = w.finish().map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let mut w = VeBlockWriter::create(&vfs, &l, WorkerId(0), CodecChoice::None).unwrap();
        for _ in 0..10 {
            w.push(&[]).unwrap();
        }
        assert_eq!(w.push(&[]).unwrap_err().kind(), io::ErrorKind::InvalidInput);
        assert_eq!(w.finish().unwrap().local_blocks(), 3);
    }

    #[test]
    fn empty_worker_store() {
        let g = gen::uniform(16, 32, 2);
        let p = Partition::range(16, 20); // workers 16..19 own nothing
        let l = BlockLayout::uniform(&p, 1);
        let vfs = MemVfs::new();
        let s = VeBlockStore::build(&vfs, &g, &l, WorkerId(17)).unwrap();
        assert_eq!(s.local_blocks(), 0);
        assert_eq!(s.total_fragments(), 0);
    }
}

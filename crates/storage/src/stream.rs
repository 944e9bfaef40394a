//! Streaming VE-BLOCK construction with an Elias-Fano extent directory.
//!
//! [`VeBlockStore`](crate::veblock::VeBlockStore) materializes the whole
//! `Graph` in memory and keeps a flat 44-byte index entry per Eblock —
//! fine at LiveJ scale, hopeless for a billion-edge catalog entry where
//! the grid has tens of millions of Eblocks and the edge list alone
//! would dwarf RAM. This module is the scale path:
//!
//! * a [`StreamEblockWriter`] accepts raw Eblock bytes *one at a time*
//!   (block-at-a-time generation never holds more than one source
//!   block's edges), appends them as coded extents, and records only two
//!   cumulative counters per Eblock;
//! * [`StreamEblockStore`] then freezes those counters into two
//!   Elias-Fano sequences — physical offsets and logical offsets — so
//!   the whole directory costs ~2 bytes per Eblock and any `g_{j,i}` is
//!   randomly accessible in O(1)-ish time without decoding neighbours.
//!
//! Eblocks are appended in source-major order (`src block · nblocks +
//! dst block`), matching a generator that walks source blocks; a b-pull
//! sweep over destination block `j` reads index `i·nblocks + j` for
//! each source block `i` — random access served by the EF directory,
//! never a whole-directory or whole-extent decode.

use crate::stats::AccessClass;
use crate::veblock::{fragments_from_columns, Fragment};
use crate::vfs::{Vfs, VfsFile};
use hybridgraph_codec::ef::EliasFano;
use hybridgraph_codec::{decode_extent, encode_extent, CodecChoice, ExtentKind, Frags};
use std::io;

/// Accepts Eblock extents in index order and accumulates the directory.
pub struct StreamEblockWriter {
    file: VfsFile,
    codec: CodecChoice,
    nblocks: u32,
    /// Cumulative physical bytes after each appended Eblock (`[0]` = 0).
    phys: Vec<u64>,
    /// Cumulative logical bytes after each appended Eblock.
    logi: Vec<u64>,
    total_fragments: u64,
}

impl StreamEblockWriter {
    /// Creates a writer for an `nblocks × nblocks` Eblock grid.
    pub fn create(
        vfs: &dyn Vfs,
        name: &str,
        nblocks: u32,
        codec: CodecChoice,
    ) -> io::Result<StreamEblockWriter> {
        let file = vfs.create(name)?;
        let cells = nblocks as usize * nblocks as usize;
        let mut phys = Vec::with_capacity(cells + 1);
        phys.push(0);
        let mut logi = Vec::with_capacity(cells + 1);
        logi.push(0);
        Ok(StreamEblockWriter {
            file,
            codec,
            nblocks,
            phys,
            logi,
            total_fragments: 0,
        })
    }

    /// Number of Eblocks appended so far.
    pub fn appended(&self) -> usize {
        self.phys.len() - 1
    }

    /// Appends the next Eblock in index order. `raw` is the fragment
    /// stream (`svertex u32 | count u32 | count × (id u32, w f32)`
    /// repeated); `fragments` is its fragment count. Empty extents cost
    /// zero bytes — only the directory remembers them.
    pub fn append_eblock(&mut self, raw: &[u8], fragments: u32) -> io::Result<()> {
        debug_assert!(
            self.appended() < self.nblocks as usize * self.nblocks as usize,
            "eblock grid overflow"
        );
        let stored = if raw.is_empty() {
            0
        } else if self.codec.is_none() {
            self.file.append(AccessClass::SeqWrite, raw)?;
            raw.len() as u64
        } else {
            let coded = encode_extent(self.codec, ExtentKind::Fragments, raw);
            self.file
                .append_coded(AccessClass::SeqWrite, &coded, raw.len() as u64)?;
            coded.len() as u64
        };
        self.phys.push(self.phys.last().unwrap() + stored);
        self.logi.push(self.logi.last().unwrap() + raw.len() as u64);
        self.total_fragments += u64::from(fragments);
        Ok(())
    }

    /// Freezes the directory into Elias-Fano form. Must have been fed
    /// exactly `nblocks²` Eblocks.
    pub fn finish(self) -> io::Result<StreamEblockStore> {
        let cells = self.nblocks as usize * self.nblocks as usize;
        if self.appended() != cells {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("wrote {} of {cells} eblocks", self.appended()),
            ));
        }
        let err = |e: hybridgraph_codec::CodecError| {
            io::Error::new(io::ErrorKind::InvalidData, e.to_string())
        };
        Ok(StreamEblockStore {
            file: self.file,
            codec: self.codec,
            nblocks: self.nblocks,
            phys: EliasFano::build(&self.phys).map_err(err)?,
            logi: EliasFano::build(&self.logi).map_err(err)?,
            total_fragments: self.total_fragments,
        })
    }
}

/// The frozen store: coded Eblock extents plus the dual EF directory.
pub struct StreamEblockStore {
    file: VfsFile,
    codec: CodecChoice,
    nblocks: u32,
    phys: EliasFano,
    logi: EliasFano,
    total_fragments: u64,
}

impl StreamEblockStore {
    /// Grid dimension (blocks per side).
    pub fn nblocks(&self) -> u32 {
        self.nblocks
    }

    #[inline]
    fn cell(&self, src_block: u32, dst_block: u32) -> u64 {
        debug_assert!(src_block < self.nblocks && dst_block < self.nblocks);
        u64::from(src_block) * u64::from(self.nblocks) + u64::from(dst_block)
    }

    /// Physical stored bytes of `g_{src,dst}` (no I/O).
    pub fn stored_bytes(&self, src_block: u32, dst_block: u32) -> u64 {
        let c = self.cell(src_block, dst_block);
        self.phys.get(c + 1) - self.phys.get(c)
    }

    /// Logical (uncompressed) bytes of `g_{src,dst}` (no I/O).
    pub fn logical_bytes(&self, src_block: u32, dst_block: u32) -> u64 {
        let c = self.cell(src_block, dst_block);
        self.logi.get(c + 1) - self.logi.get(c)
    }

    /// Reads and decodes one Eblock's raw fragment-stream bytes.
    ///
    /// This is the per-block random access the EF directory exists for:
    /// two `get` calls locate the extent, and only that extent is read
    /// and decoded — never the neighbours, never the directory itself.
    pub fn read_eblock_raw(
        &self,
        src_block: u32,
        dst_block: u32,
        class: AccessClass,
    ) -> io::Result<Vec<u8>> {
        let c = self.cell(src_block, dst_block);
        let (start, end) = (self.phys.get(c), self.phys.get(c + 1));
        if start == end {
            return Ok(Vec::new());
        }
        if self.codec.is_none() {
            return self.file.read_vec(class, start, (end - start) as usize);
        }
        let logical = self.logi.get(c + 1) - self.logi.get(c);
        let coded = self
            .file
            .read_vec_coded(class, start, (end - start) as usize, logical)?;
        decode_extent(ExtentKind::Fragments, &coded, logical as usize)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Reads one Eblock as parsed fragments (test/convenience path; the
    /// billion-edge sweep parses [`read_eblock_raw`] in place instead).
    pub fn scan_eblock(&self, src_block: u32, dst_block: u32) -> io::Result<Vec<Fragment>> {
        let bytes = self.read_eblock_raw(src_block, dst_block, AccessClass::SeqRead)?;
        let mut cols = Frags::default();
        cols.parse_raw(&bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(fragments_from_columns(&cols))
    }

    /// Total physical bytes of all extents.
    pub fn total_stored_bytes(&self) -> u64 {
        self.phys.get(self.phys.len() - 1)
    }

    /// Total logical bytes of all extents.
    pub fn total_logical_bytes(&self) -> u64 {
        self.logi.get(self.logi.len() - 1)
    }

    /// Total fragments across the store.
    pub fn total_fragments(&self) -> u64 {
        self.total_fragments
    }

    /// Resident bytes of the dual EF directory — the number to compare
    /// against a flat directory's `16 · nblocks²` (two u64 per cell).
    pub fn index_memory_bytes(&self) -> u64 {
        self.phys.memory_bytes() + self.logi.memory_bytes()
    }

    /// The codec extents were written with.
    pub fn codec(&self) -> CodecChoice {
        self.codec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    /// Builds the raw fragment-stream bytes for one Eblock.
    fn raw_eblock(frags: &[(u32, Vec<(u32, f32)>)]) -> Vec<u8> {
        let mut raw = Vec::new();
        for (sv, edges) in frags {
            raw.extend_from_slice(&sv.to_le_bytes());
            raw.extend_from_slice(&(edges.len() as u32).to_le_bytes());
            for (d, w) in edges {
                raw.extend_from_slice(&d.to_le_bytes());
                raw.extend_from_slice(&w.to_le_bytes());
            }
        }
        raw
    }

    /// One grid cell: the fragments of a (src block, dst block) Eblock.
    type Cell = Vec<(u32, Vec<(u32, f32)>)>;

    /// A deterministic little grid: block size 4, vertex v = 4·b + k,
    /// each src vertex points at (v·7 mod 16) and its successor.
    fn grid_cells(nblocks: u32) -> Vec<Cell> {
        let n = nblocks * 4;
        let mut cells = vec![Vec::new(); (nblocks * nblocks) as usize];
        for sb in 0..nblocks {
            for k in 0..4u32 {
                let v = sb * 4 + k;
                let mut dsts = [(v * 7) % n, ((v * 7) % n + 1) % n];
                dsts.sort_unstable();
                // Group into per-destination-block fragments.
                for db in 0..nblocks {
                    let in_block: Vec<(u32, f32)> = dsts
                        .iter()
                        .filter(|&&d| d / 4 == db)
                        .map(|&d| (d, 1.5 + v as f32))
                        .collect();
                    if !in_block.is_empty() {
                        cells[(sb * nblocks + db) as usize].push((v, in_block));
                    }
                }
            }
        }
        cells
    }

    #[test]
    fn roundtrips_across_codecs_and_matches_input() {
        let nblocks = 4u32;
        let cells = grid_cells(nblocks);
        for codec in CodecChoice::ALL {
            let vfs = MemVfs::new();
            let mut w = StreamEblockWriter::create(&vfs, "stream", nblocks, codec).unwrap();
            for cell in &cells {
                let raw = raw_eblock(cell);
                w.append_eblock(&raw, cell.len() as u32).unwrap();
            }
            let s = w.finish().unwrap();
            for sb in 0..nblocks {
                for db in 0..nblocks {
                    let got = s.scan_eblock(sb, db).unwrap();
                    let want = &cells[(sb * nblocks + db) as usize];
                    assert_eq!(got.len(), want.len(), "{codec:?} g_{{{sb},{db}}}");
                    for (g, (sv, edges)) in got.iter().zip(want) {
                        assert_eq!(g.src.0, *sv);
                        let we: Vec<(u32, f32)> =
                            g.edges.iter().map(|e| (e.dst.0, e.weight)).collect();
                        assert_eq!(&we, edges);
                    }
                }
            }
            assert_eq!(
                s.total_logical_bytes(),
                cells
                    .iter()
                    .map(|c| raw_eblock(c).len() as u64)
                    .sum::<u64>()
            );
        }
    }

    #[test]
    fn wrong_cell_count_is_rejected() {
        let vfs = MemVfs::new();
        let w = StreamEblockWriter::create(&vfs, "s", 3, CodecChoice::None).unwrap();
        assert!(w.finish().is_err());
    }

    #[test]
    fn bv_store_shrinks_physical_and_accounts_both() {
        let nblocks = 4u32;
        let cells = grid_cells(nblocks);
        let build = |codec| {
            let vfs = MemVfs::new();
            let mut w = StreamEblockWriter::create(&vfs, "s", nblocks, codec).unwrap();
            for cell in &cells {
                w.append_eblock(&raw_eblock(cell), cell.len() as u32)
                    .unwrap();
            }
            (w.finish().unwrap(), vfs)
        };
        let (bv, vfs) = build(CodecChoice::Bv);
        assert!(bv.total_stored_bytes() < bv.total_logical_bytes());
        let snap = vfs.stats().snapshot();
        assert_eq!(snap.seq_write_bytes, bv.total_stored_bytes());
        assert_eq!(snap.seq_write_logical_bytes, bv.total_logical_bytes());
        // Random per-block read accounts only that extent, both sides.
        let before = vfs.stats().snapshot();
        bv.read_eblock_raw(2, 1, AccessClass::RandRead).unwrap();
        let d = vfs.stats().snapshot().delta(&before);
        assert_eq!(d.rand_read_bytes, bv.stored_bytes(2, 1));
        assert_eq!(d.rand_read_logical_bytes, bv.logical_bytes(2, 1));
    }

    #[test]
    fn ef_directory_beats_flat_index() {
        // A sparse 64x64 grid (most cells empty) — EF's home turf.
        let nblocks = 64u32;
        let vfs = MemVfs::new();
        let mut w = StreamEblockWriter::create(&vfs, "s", nblocks, CodecChoice::Bv).unwrap();
        for sb in 0..nblocks {
            for db in 0..nblocks {
                if db == (sb * 7 + 1) % nblocks {
                    let raw = raw_eblock(&[(sb * 4, vec![(db * 4, 1.0), (db * 4 + 1, 1.0)])]);
                    w.append_eblock(&raw, 1).unwrap();
                } else {
                    w.append_eblock(&[], 0).unwrap();
                }
            }
        }
        let s = w.finish().unwrap();
        let flat = 16 * u64::from(nblocks) * u64::from(nblocks);
        assert!(
            s.index_memory_bytes() * 4 < flat,
            "ef {} vs flat {flat}",
            s.index_memory_bytes()
        );
        // Empty cells read as empty without I/O.
        let before = vfs.stats().snapshot();
        assert!(s.scan_eblock(0, 2).unwrap().is_empty());
        assert_eq!(vfs.stats().snapshot(), before);
    }
}

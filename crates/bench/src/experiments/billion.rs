//! `billion` — the streaming billion-edge catalog entry, end to end.
//!
//! Builds the `twi-stream` entry ([`StreamSpec::twitter`]) a source block
//! at a time through the storage crate's [`VeBlockWriter`] under the BV
//! codec — the same writer every job's VE-BLOCK store goes through — then
//! runs a b-pull PageRank superstep sweep where every `g_{j,i}` read is
//! located by the store's Elias-Fano directory: per-Eblock sequential
//! reads, never a whole-file or whole-directory decode.
//!
//! At the default `--scale 2000` this is a fast smoke of the same code
//! path (~17 K vertices, ~0.5 M edges, in-memory VFS). The acceptance
//! run is `repro --scale 1 billion`: ≥1 B edges generated streaming,
//! spilled through a directory-backed VFS, with the resident set bounded
//! by one source block plus the directory and the per-vertex rank,
//! degree and fragment-count columns — the edge list itself never exists
//! in memory.

use crate::table::{bytes, ratio, Table};
use crate::Scale;
use hybridgraph_graph::{BlockId, BlockLayout, Edge, StreamSpec, VertexId, WorkerId};
use hybridgraph_storage::veblock::{VeBlockStore, VeBlockWriter};
use hybridgraph_storage::{CodecChoice, DirVfs, Frags, MemVfs, Vfs};
use std::sync::Arc;

/// A built store plus the sweep-side per-vertex state.
struct Built {
    store: VeBlockStore,
    deg: Vec<u32>,
    edges: u64,
    /// Largest per-source-block working set during the build (bytes).
    peak_block_bytes: u64,
}

/// Streams the entry into `vfs`, one worker owning every block of
/// [`StreamSpec::block_size`] vertices: each vertex's adjacency is
/// generated, handed to the writer and dropped, so at most one source
/// block's edges are ever resident.
fn build(spec: &StreamSpec, vfs: &dyn Vfs, codec: CodecChoice) -> Built {
    let layout = BlockLayout::fixed(spec.vertices as u32, spec.block_size());
    let mut w = VeBlockWriter::create(vfs, &layout, WorkerId(0), codec).expect("create store");
    let mut deg = Vec::with_capacity(spec.vertices as usize);
    let (mut dsts, mut out) = (Vec::new(), Vec::new());
    for v in 0..spec.vertices {
        spec.out_dsts(v, &mut dsts);
        out.clear();
        out.extend(dsts.iter().map(|&d| Edge::to(VertexId(d))));
        deg.push(dsts.len() as u32);
        w.push(&out).expect("append vertex");
    }
    let peak_block_bytes = w.peak_row_bytes();
    Built {
        store: w.finish().expect("finish store"),
        edges: deg.iter().map(|&d| u64::from(d)).sum(),
        deg,
        peak_block_bytes,
    }
}

/// One b-pull PageRank superstep sweep: destination blocks pull their
/// Eblock column into reused columns. Returns the final rank sum (a
/// deterministic checksum of the whole computation).
fn sweep(b: &Built, n: usize, supersteps: u32) -> f64 {
    let nblocks = b.store.local_blocks() as u32;
    let mut rank = vec![1.0 / n as f64; n];
    let mut cols = Frags::default();
    for _ in 0..supersteps {
        let mut next = vec![0.15 / n as f64; n];
        for db in 0..nblocks {
            for sb in 0..nblocks {
                b.store
                    .scan_eblock_into(BlockId(sb), BlockId(db), &mut cols)
                    .expect("read eblock");
                for (src, ids, _) in cols.iter() {
                    let src = src as usize;
                    let contr = 0.85 * rank[src] / f64::from(b.deg[src]);
                    for &dst in ids {
                        next[dst as usize] += contr;
                    }
                }
            }
        }
        rank = next;
    }
    rank.iter().sum()
}

/// Everything one `billion` run measures: the build, its directory and
/// a `supersteps`-long sweep over it.
struct Summary {
    edges: u64,
    logical: u64,
    physical: u64,
    dir_bytes: u64,
    peak_block_bytes: u64,
    /// Bytes the sweep read (physical, then logical), all classes.
    read_physical: u64,
    read_logical: u64,
    rank_sum: f64,
}

/// Builds `spec` into `vfs` under BV and sweeps it `supersteps` times.
fn measure(spec: &StreamSpec, vfs: &dyn Vfs, supersteps: u32) -> Summary {
    let b = build(spec, vfs, CodecChoice::Bv);
    let (logical, physical) = (b.store.total_logical_bytes(), b.store.total_stored_bytes());
    let before = vfs.stats().snapshot();
    let rank_sum = sweep(&b, spec.vertices as usize, supersteps);
    let io = vfs.stats().snapshot().delta(&before);
    // The sweep must have read every extent per superstep — sequential
    // Eblock reads, whole extents only, no directory I/O.
    assert_eq!(
        io.seq_read_logical_bytes,
        u64::from(supersteps) * logical,
        "sweep logical bytes must be supersteps × catalog logical bytes"
    );
    Summary {
        edges: b.edges,
        logical,
        physical,
        dir_bytes: b.store.index_memory_bytes(),
        peak_block_bytes: b.peak_block_bytes,
        read_physical: io.seq_read_bytes + io.rand_read_bytes,
        read_logical: io.seq_read_logical_bytes + io.rand_read_logical_bytes,
        rank_sum,
    }
}

/// Runs the entry at `1/scale` of billion scale (`--scale 1` = the real
/// thing; anything past ~100 M edges spills through a directory VFS).
pub fn run(scale: Scale) {
    let spec = StreamSpec::twitter().scaled(scale.0);
    println!(
        "## billion: streaming {} build + b-pull sweep ({} vertices, {} blocks)",
        spec.name,
        spec.vertices,
        spec.nblocks()
    );
    let big = spec.expected_edges() > 100_000_000;
    let tmp = std::env::temp_dir().join("hybridgraph-billion");
    let vfs: Arc<dyn Vfs> = if big {
        std::fs::create_dir_all(&tmp).expect("create spill dir");
        Arc::new(DirVfs::new(&tmp).expect("open spill dir"))
    } else {
        Arc::new(MemVfs::new())
    };
    let supersteps = 3u32;
    let s = measure(&spec, vfs.as_ref(), supersteps);
    if spec.vertices >= StreamSpec::twitter().vertices {
        assert!(s.edges >= 1_000_000_000, "full entry must be ≥1B edges");
    }
    // Three u64 columns per grid cell, the directory without Elias-Fano.
    let flat_index = 24 * u64::from(spec.nblocks()) * u64::from(spec.nblocks());

    let mut t = Table::new(
        "streaming build + EF-served b-pull sweep (codec bv)",
        &["metric", "value"],
    );
    t.row(vec!["edges".into(), s.edges.to_string()]);
    t.row(vec!["logical bytes".into(), bytes(s.logical)]);
    t.row(vec!["physical bytes".into(), bytes(s.physical)]);
    t.row(vec![
        "p/l ratio".into(),
        ratio(s.physical as f64 / s.logical.max(1) as f64),
    ]);
    t.row(vec!["ef directory".into(), bytes(s.dir_bytes)]);
    t.row(vec!["flat directory would be".into(), bytes(flat_index)]);
    t.row(vec![
        "peak build block set".into(),
        bytes(s.peak_block_bytes),
    ]);
    t.row(vec![
        "sweep reads (physical)".into(),
        bytes(s.read_physical),
    ]);
    t.row(vec!["sweep reads (logical)".into(), bytes(s.read_logical)]);
    t.row(vec!["supersteps".into(), supersteps.to_string()]);
    t.row(vec!["rank sum".into(), format!("{:.12}", s.rank_sum)]);
    t.print();
    if big {
        let _ = std::fs::remove_dir_all(&tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins every figure `run` prints except the directory size, at the
    /// tiny and the CI scale: a change to the build or the sweep path must
    /// keep the edges, the bytes and the rank-sum bits.
    #[test]
    fn pinned_build_and_sweep() {
        for (scale, edges, logical, physical, peak, read_phys, read_logi, sum_bits) in [
            (
                8192,
                128066,
                1177352,
                159422,
                62464,
                478266,
                3532056,
                0x3fef242864d4080eu64,
            ),
            (
                2000,
                532152,
                4513120,
                484600,
                245792,
                1453800,
                13539360,
                0x3fef07be31b0a32f,
            ),
        ] {
            let spec = StreamSpec::twitter().scaled(scale);
            let s = measure(&spec, &MemVfs::new(), 3);
            assert_eq!(s.edges, edges, "scale {scale}: edges");
            assert_eq!(s.logical, logical, "scale {scale}: logical bytes");
            assert_eq!(s.physical, physical, "scale {scale}: physical bytes");
            assert_eq!(s.peak_block_bytes, peak, "scale {scale}: peak block bytes");
            assert_eq!(s.read_physical, read_phys, "scale {scale}: sweep physical");
            assert_eq!(s.read_logical, read_logi, "scale {scale}: sweep logical");
            assert_eq!(s.rank_sum.to_bits(), sum_bits, "scale {scale}: rank sum");
        }
    }

    #[test]
    fn sweep_is_deterministic_across_codecs() {
        let spec = StreamSpec::twitter().scaled(8192);
        let run_with = |codec| {
            let vfs = MemVfs::new();
            let b = build(&spec, &vfs, codec);
            sweep(&b, spec.vertices as usize, 2).to_bits()
        };
        let none = run_with(CodecChoice::None);
        for codec in [CodecChoice::Gaps, CodecChoice::Bv] {
            assert_eq!(run_with(codec), none, "{codec:?} changed the values");
        }
    }
}

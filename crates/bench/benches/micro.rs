//! Microbenchmarks of the storage and wire substrates: the build cost of
//! the two on-disk layouts (Fig. 16's subject), the Pull-Respond scan
//! path and the eblock codecs under it, batch encodings (sorted and
//! dense combining), and the receive-side stores.
//!
//! Plain `main()` harness (`harness = false`): the workspace builds
//! offline with no external crates, so instead of criterion each case is
//! timed with `std::time::Instant` over a fixed warmup + measurement loop
//! and reported as ns/iter plus derived throughput.

use hybridgraph_graph::{gen, BlockLayout, Graph, Partition, VertexId, WorkerId};
use hybridgraph_net::combine::SumCombiner;
use hybridgraph_net::wire::{encode_batch, BatchKind, DenseCombined};
use hybridgraph_storage::adjacency::AdjacencyStore;
use hybridgraph_storage::lru::LruCache;
use hybridgraph_storage::msg_store::SpillBuffer;
use hybridgraph_storage::veblock::VeBlockStore;
use hybridgraph_storage::vfs::MemVfs;
use hybridgraph_storage::{decode_fragments, encode_extent, CodecChoice, ExtentKind, Frags};
use std::hint::black_box;
use std::time::Instant;

/// What one iteration processes, for the derived-throughput column.
#[derive(Copy, Clone)]
enum Per {
    Nothing,
    Elements(u64),
    Bytes(u64),
}

/// Times `f` (warmup 2 iters, then enough iters to pass ~0.5 s) and prints
/// a criterion-like line. Returns ns/iter.
fn bench<R>(group: &str, name: &str, per: Per, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..2 {
        black_box(f());
    }
    let mut iters = 0u64;
    let start = Instant::now();
    while start.elapsed().as_millis() < 500 || iters < 5 {
        black_box(f());
        iters += 1;
    }
    let ns = start.elapsed().as_nanos() as f64 / iters as f64;
    match per {
        Per::Elements(e) => {
            let meps = e as f64 / ns * 1000.0;
            println!("{group}/{name}: {ns:>12.0} ns/iter   {meps:>8.2} Melem/s");
        }
        Per::Bytes(b) => {
            let mbps = b as f64 / ns * 1000.0;
            println!("{group}/{name}: {ns:>12.0} ns/iter   {mbps:>8.2} MB/s");
        }
        Per::Nothing => println!("{group}/{name}: {ns:>12.0} ns/iter"),
    }
    ns
}

fn bench_store_builds() {
    let g = gen::rmat(20_000, 280_000, gen::RmatParams::default(), 7);
    let p = Partition::range(g.num_vertices(), 5);
    let layout = BlockLayout::uniform(&p, 14);
    let m = g.num_edges() as u64;
    bench("store_build", "adjacency", Per::Elements(m), || {
        let vfs = MemVfs::new();
        for w in p.workers() {
            AdjacencyStore::build(&vfs, "adj", &g, p.worker_range(w)).unwrap();
        }
    });
    bench("store_build", "veblock", Per::Elements(m), || {
        let vfs = MemVfs::new();
        for w in 0..5 {
            VeBlockStore::build(&vfs, &g, &layout, WorkerId::from(w)).unwrap();
        }
    });
}

/// The graph and layout behind the Pull-Respond scan and codec cases.
fn respond_graph() -> (Graph, BlockLayout) {
    let g = gen::rmat(20_000, 280_000, gen::RmatParams::default(), 7);
    let p = Partition::range(g.num_vertices(), 5);
    let layout = BlockLayout::uniform(&p, 14);
    (g, layout)
}

fn bench_respond_scan() {
    let (g, layout) = respond_graph();
    let blocks: Vec<_> = layout.blocks_of_worker(WorkerId(0)).collect();
    for (name, codec) in [
        ("scan_all_eblocks", CodecChoice::None),
        ("scan_all_eblocks_bv", CodecChoice::Bv),
    ] {
        let vfs = MemVfs::new();
        let store = VeBlockStore::build_with(&vfs, &g, &layout, WorkerId(0), codec).unwrap();
        bench("respond_scan", name, Per::Nothing, || {
            let mut frags = 0usize;
            for &j in &blocks {
                for i in layout.block_ids() {
                    frags += store.scan_eblock(j, i).unwrap().len();
                }
            }
            frags
        });
    }
}

/// Encoding and column-decoding the `respond_scan` store's eblocks, in
/// logical (raw fragment stream) MB/s.
fn bench_eblock_codecs() {
    let (g, layout) = respond_graph();
    let store = VeBlockStore::build(&MemVfs::new(), &g, &layout, WorkerId(0)).unwrap();
    let mut cols = Frags::default();
    let mut raws: Vec<Vec<u8>> = Vec::new();
    for j in layout.blocks_of_worker(WorkerId(0)) {
        for i in layout.block_ids() {
            store.scan_eblock_into(j, i, &mut cols).unwrap();
            if !cols.is_empty() {
                raws.push(cols.to_raw());
            }
        }
    }
    let logical: u64 = raws.iter().map(|r| r.len() as u64).sum();
    let encode = |codec| -> Vec<Vec<u8>> {
        raws.iter()
            .map(|r| encode_extent(codec, ExtentKind::Fragments, r))
            .collect()
    };
    bench("codec", "bv_encode", Per::Bytes(logical), || {
        encode(CodecChoice::Bv)
    });
    for (name, codec) in [
        ("bv_decode", CodecChoice::Bv),
        ("gaps_decode", CodecChoice::Gaps),
    ] {
        let coded = encode(codec);
        bench("codec", name, Per::Bytes(logical), || {
            let mut edges = 0usize;
            for (c, r) in coded.iter().zip(&raws) {
                decode_fragments(c, r.len(), &mut cols).unwrap();
                edges += cols.edge_count();
            }
            edges
        });
    }
}

fn bench_wire_encodings() {
    let msgs: Vec<(VertexId, f64)> = (0..100_000u32)
        .map(|i| (VertexId(i % 5_000), i as f64))
        .collect();
    let n = msgs.len() as u64;
    for (name, kind) in [
        ("plain", BatchKind::Plain),
        ("concatenated", BatchKind::Concatenated),
        ("combined", BatchKind::Combined),
    ] {
        bench("wire", name, Per::Elements(n), || {
            let mut batch = msgs.clone();
            let combiner = (kind == BatchKind::Combined).then_some(&SumCombiner as _);
            encode_batch(kind, &mut batch, combiner)
        });
    }
    // The same combined payload, folded per block instead of sorted (the
    // clone stays in so the two cases time the same input handling).
    let mut dense = DenseCombined::default();
    bench("wire", "combined_dense", Per::Elements(n), || {
        dense.reset(0..5_000);
        for (dst, m) in msgs.clone() {
            dense.fold(dst, m, &SumCombiner);
        }
        dense.finish()
    });
}

fn bench_spill_buffer() {
    for (name, capacity) in [("in_memory", usize::MAX), ("all_spilled", 0)] {
        bench("spill_buffer", name, Per::Elements(100_000), || {
            let vfs = MemVfs::new();
            let mut buf: SpillBuffer<f64> = SpillBuffer::new(&vfs, "s", capacity).unwrap();
            for i in 0..100_000u32 {
                buf.push(VertexId(i % 10_000), i as f64).unwrap();
            }
            buf.drain().unwrap().len()
        });
    }
}

fn bench_lru() {
    bench("lru", "churn_90pct_hit", Per::Elements(100_000), || {
        let mut lru: LruCache<u32, f64> = LruCache::new(1_000);
        let mut evictions = 0usize;
        for i in 0..100_000u32 {
            // 90% of accesses in a hot window, 10% cold.
            let key = if i % 10 == 0 { i % 50_000 } else { i % 900 };
            if lru.get(&key).is_none() && lru.insert(key, key as f64, false).is_some() {
                evictions += 1;
            }
        }
        evictions
    });
}

fn main() {
    bench_store_builds();
    bench_respond_scan();
    bench_eblock_codecs();
    bench_wire_encodings();
    bench_spill_buffer();
    bench_lru();
}

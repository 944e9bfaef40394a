//! Codec subsystem end-to-end checks:
//!
//! * seeded random round-trip stress over extent and blob-frame coding
//!   (the seed is printed so any failure reproduces from the log alone);
//! * bit-identical engine results across every `CodecChoice` for
//!   push, b-pull and hybrid on PageRank (f64) and SSSP (f32) — the
//!   codec may change what's on disk, never what's computed;
//! * deterministic `Q_t` audits run-to-run under a codec.

use hybridgraph::prelude::*;
use hybridgraph_codec::{
    decode_blob_frame, decode_extent, encode_blob_frame, encode_extent, CodecChoice, ExtentKind,
};
use hybridgraph_graph::gen;
use hybridgraph_graph::rng::SplitMix64;
use std::sync::Arc;

const SEEDS: [u64; 3] = [3, 1776, 0xfeed_f00d];

/// Random edge-extent bytes: sorted u32 destinations (the layout gaps
/// coding exploits) each followed by an f32 weight.
fn random_edges_raw(r: &mut SplitMix64, n: usize) -> Vec<u8> {
    let mut dsts: Vec<u32> = (0..n).map(|_| r.next_u64() as u32 >> 8).collect();
    dsts.sort_unstable();
    let mut raw = Vec::with_capacity(n * 8);
    for d in dsts {
        raw.extend_from_slice(&d.to_le_bytes());
        raw.extend_from_slice(&(r.next_f64() as f32).to_le_bytes());
    }
    raw
}

#[test]
fn extent_roundtrip_stress_printed_seeds() {
    for seed in SEEDS {
        println!("extent stress seed {seed}");
        let mut r = SplitMix64::new(seed);
        for codec in CodecChoice::ALL.into_iter().filter(|c| !c.is_none()) {
            for _ in 0..40 {
                let raw = if r.next_bool() {
                    let n = r.range_usize(0, 500);
                    random_edges_raw(&mut r, n)
                } else {
                    // Structureless noise: must still round-trip via the
                    // raw/block fallback.
                    (0..r.range_usize(0, 4000))
                        .map(|_| r.next_u64() as u8)
                        .collect()
                };
                for kind in [ExtentKind::Edges, ExtentKind::Fragments] {
                    let coded = encode_extent(codec, kind, &raw);
                    let back = decode_extent(kind, &coded, raw.len())
                        .unwrap_or_else(|e| panic!("seed {seed} {codec:?} {kind:?}: {e:?}"));
                    assert_eq!(back, raw, "seed {seed} {codec:?} {kind:?}");
                    assert!(
                        coded.len() <= raw.len() + 1,
                        "seed {seed} {codec:?} {kind:?}: smallest-wins violated"
                    );
                }
            }
        }
    }
}

#[test]
fn blob_frame_roundtrip_stress_printed_seeds() {
    for seed in SEEDS {
        println!("blob stress seed {seed}");
        let mut r = SplitMix64::new(seed);
        for codec in CodecChoice::ALL.into_iter().filter(|c| !c.is_none()) {
            let mut buf = Vec::new();
            let blobs: Vec<Vec<u8>> = (0..30)
                .map(|_| {
                    (0..r.range_usize(0, 1000))
                        .map(|_| {
                            if r.next_bool() {
                                0u8
                            } else {
                                r.next_u64() as u8
                            }
                        })
                        .collect()
                })
                .collect();
            for b in &blobs {
                buf.extend_from_slice(&encode_blob_frame(codec, b));
            }
            // Frames are self-describing: decode the concatenation back.
            let mut pos = 0;
            for (i, want) in blobs.iter().enumerate() {
                let got = decode_blob_frame(&buf, &mut pos)
                    .unwrap_or_else(|e| panic!("seed {seed} {codec:?} frame {i}: {e:?}"));
                assert_eq!(&got, want, "seed {seed} {codec:?} frame {i}");
            }
            assert_eq!(pos, buf.len(), "seed {seed} {codec:?}");
        }
    }
}

fn modes() -> [Mode; 3] {
    [Mode::Push, Mode::BPull, Mode::Hybrid]
}

/// Limited-memory configs so spills, adjacency/VE-BLOCK scans and (for
/// hybrid) switch supersteps all exercise the coded paths.
fn cfg(mode: Mode, codec: CodecChoice) -> JobConfig {
    JobConfig::new(mode, 3).with_buffer(64).with_codec(codec)
}

#[test]
fn pagerank_values_bit_identical_across_codecs() {
    let g = gen::rmat(256, 2048, gen::RmatParams::default(), 11);
    for mode in modes() {
        let baseline: Vec<u64> =
            run_job(Arc::new(PageRank::new(5)), &g, cfg(mode, CodecChoice::None))
                .unwrap()
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect();
        for codec in CodecChoice::ALL.into_iter().filter(|c| !c.is_none()) {
            let got: Vec<u64> = run_job(Arc::new(PageRank::new(5)), &g, cfg(mode, codec))
                .unwrap()
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, baseline, "{mode:?} under {codec:?} diverged from None");
        }
    }
}

#[test]
fn sssp_values_bit_identical_across_codecs() {
    let g = gen::rmat(200, 1600, gen::RmatParams::default(), 23);
    let src = VertexId(0);
    for mode in modes() {
        let baseline: Vec<u32> =
            run_job(Arc::new(Sssp::new(src)), &g, cfg(mode, CodecChoice::None))
                .unwrap()
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect();
        for codec in CodecChoice::ALL.into_iter().filter(|c| !c.is_none()) {
            let got: Vec<u32> = run_job(Arc::new(Sssp::new(src)), &g, cfg(mode, codec))
                .unwrap()
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, baseline, "{mode:?} under {codec:?} diverged from None");
        }
    }
}

/// The per-superstep `Q_t` audit must be deterministic run-to-run with a
/// codec configured — compression feeds physical bytes into Eq. 11, and
/// those are as reproducible as the uncompressed counters.
#[test]
fn qt_audit_deterministic_run_to_run_under_codec() {
    let g = gen::rmat(256, 2048, gen::RmatParams::default(), 11);
    let run = || {
        run_job(
            Arc::new(PageRank::new(5)),
            &g,
            cfg(Mode::Hybrid, CodecChoice::Gaps),
        )
        .unwrap()
        .metrics
    };
    let (a, b) = (run(), run());
    assert!(!a.qt_audit.is_empty(), "hybrid run must audit Q_t");
    assert_eq!(a.qt_audit, b.qt_audit);
    assert_eq!(a.total_io_bytes(), b.total_io_bytes());
    assert_eq!(a.total_io_logical_bytes(), b.total_io_logical_bytes());
}

// ---- Pinned codec bytes ---------------------------------------------------
//
// FNV-1a fingerprints of every coded extent, every decoded extent and
// every `scan_eblock` result over two seeded graphs. The constants were
// captured before the fragment decoder, the BV planner and the eblock
// scan were rewritten for speed; any such rewrite must keep every byte.

use hybridgraph_graph::BlockLayout;
use hybridgraph_storage::veblock::VeBlockStore;

/// FNV-1a 64, continued from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The graphs the pins cover: a seeded RMAT and the LiveJ stand-in at
/// 1/2000, each split over 2 workers × 6 blocks.
fn pinned_graphs() -> Vec<(&'static str, Graph, BlockLayout)> {
    [
        (
            "rmat",
            gen::rmat(3000, 40_000, gen::RmatParams::default(), 41),
        ),
        ("livej", Dataset::LiveJ.build_scaled(2000)),
    ]
    .into_iter()
    .map(|(name, g)| {
        let p = Partition::range(g.num_vertices(), 2);
        let l = BlockLayout::uniform(&p, 6);
        (name, g, l)
    })
    .collect()
}

/// Hashes every `scan_eblock(j, i)` of both workers' stores under
/// `codec`, in `(worker, j, i)` order; also returns the raw fragment
/// stream of every non-empty eblock.
fn scan_all(g: &Graph, l: &BlockLayout, codec: CodecChoice) -> (u64, Vec<Vec<u8>>) {
    let mut h = FNV_SEED;
    let mut raws = Vec::new();
    for w in 0..2 {
        let s = VeBlockStore::build_with(&MemVfs::new(), g, l, WorkerId(w), codec).unwrap();
        for j in l.blocks_of_worker(WorkerId(w)) {
            for i in l.block_ids() {
                let mut raw = Vec::new();
                for f in s.scan_eblock(j, i).unwrap() {
                    raw.extend_from_slice(&f.src.0.to_le_bytes());
                    raw.extend_from_slice(&(f.edges.len() as u32).to_le_bytes());
                    for e in &f.edges {
                        raw.extend_from_slice(&e.dst.0.to_le_bytes());
                        raw.extend_from_slice(&e.weight.to_bits().to_le_bytes());
                    }
                }
                h = fnv1a(fnv1a(h, &(raw.len() as u64).to_le_bytes()), &raw);
                if !raw.is_empty() {
                    raws.push(raw);
                }
            }
        }
    }
    (h, raws)
}

/// `[scan None, scan Gaps, scan Bv, encode Gaps, encode Bv, decode]`.
fn codec_fingerprints(g: &Graph, l: &BlockLayout) -> [u64; 6] {
    let (scan_none, fragments) = scan_all(g, l, CodecChoice::None);
    let (scan_gaps, _) = scan_all(g, l, CodecChoice::Gaps);
    let (scan_bv, _) = scan_all(g, l, CodecChoice::Bv);
    let mut extents: Vec<(ExtentKind, Vec<u8>)> = fragments
        .into_iter()
        .map(|raw| (ExtentKind::Fragments, raw))
        .collect();
    for v in g.vertices() {
        let row = g.out_edges(v);
        if !row.is_empty() {
            let mut raw = Vec::with_capacity(row.len() * 8);
            for e in row {
                raw.extend_from_slice(&e.dst.0.to_le_bytes());
                raw.extend_from_slice(&e.weight.to_bits().to_le_bytes());
            }
            extents.push((ExtentKind::Edges, raw));
        }
    }
    let mut enc = [FNV_SEED; 2];
    let mut dec = FNV_SEED;
    for (kind, raw) in &extents {
        for (slot, codec) in [CodecChoice::Gaps, CodecChoice::Bv].into_iter().enumerate() {
            let coded = encode_extent(codec, *kind, raw);
            enc[slot] = fnv1a(
                fnv1a(enc[slot], &(coded.len() as u64).to_le_bytes()),
                &coded,
            );
            let back = decode_extent(*kind, &coded, raw.len()).unwrap();
            assert_eq!(&back, raw, "{codec:?} {kind:?} round trip");
            dec = fnv1a(dec, &back);
        }
    }
    [scan_none, scan_gaps, scan_bv, enc[0], enc[1], dec]
}

#[test]
fn codec_paths_match_pinned_bytes() {
    let pinned: [(&str, [u64; 6]); 2] = [
        (
            "rmat",
            [
                0x33c3_7a66_f660_8968,
                0x33c3_7a66_f660_8968,
                0x33c3_7a66_f660_8968,
                0x2b3d_c2b1_5622_a83e,
                0xc578_6c30_de09_7c74,
                0x9033_151e_6329_dae1,
            ],
        ),
        (
            "livej",
            [
                0x8d4c_339b_bdbe_afc5,
                0x8d4c_339b_bdbe_afc5,
                0x8d4c_339b_bdbe_afc5,
                0x985e_c512_a4f7_a165,
                0x992e_5c67_c7f1_8c36,
                0xdf91_2288_d7e8_33a5,
            ],
        ),
    ];
    for ((name, g, l), (pname, want)) in pinned_graphs().into_iter().zip(pinned) {
        assert_eq!(name, pname);
        let got = codec_fingerprints(&g, &l);
        println!("{name}: {got:#018x?}");
        assert_eq!(got, want, "{name}: codec bytes drifted");
    }
}

//! Layer probes: public codec, storage, net, service-log and
//! gateway-value functions, timed from outside on a workload's own
//! inputs (its graph's extents, its message batch size, its WAL bodies,
//! its value blobs). They run in the traced run only, after the measured
//! phase, so they cannot touch the end-to-end numbers.

use crate::report::{mb_per_s, median, Report};
use crate::spans::Tracer;
use hybridgraph_codec::ef::EliasFano;
use hybridgraph_codec::{decode_extent, encode_extent, CodecChoice, ExtentKind};
use hybridgraph_gateway::proto::decode_values;
use hybridgraph_gateway::ValueKind;
use hybridgraph_graph::rng::SplitMix64;
use hybridgraph_graph::{BlockId, BlockLayout, Graph, VertexId, WorkerId};
use hybridgraph_net::{decode_batch, encode_batch, BatchKind, Combiner, Fabric, Packet};
use hybridgraph_storage::{
    adjacency::AdjacencyStore, veblock::VeBlockStore, AccessClass, DirVfs, MemVfs, Record,
    ServiceLog,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimum wall time a repeated probe accumulates.
const PROBE_SECS: f64 = 0.2;
/// Elias-Fano lookups per `codec.ef_get_ns` figure.
const EF_GETS: usize = 1 << 20;

/// What the probes run on.
pub struct ProbeInputs<'a> {
    pub graph: &'a Graph,
    /// Workers per job.
    pub workers: usize,
    /// The VE-BLOCK layout the workload's jobs use.
    pub layout: BlockLayout,
    /// The workload's codec.
    pub codec: CodecChoice,
    /// Vertices per adjacency read set (the workload's mean frontier).
    pub frontier: usize,
    /// `(kind, body)` records for the service-log probe.
    pub wal_bodies: Vec<(u8, Vec<u8>)>,
    /// Value blobs as the gateway ships them.
    pub values: Vec<(ValueKind, Vec<u8>)>,
    pub seed: u64,
}

/// The workload's message shape for the net probes.
pub struct MsgProbe<'a, M> {
    /// Messages per batch: what one worker sends in a superstep.
    pub batch: usize,
    pub combiner: &'a dyn Combiner<M>,
    /// The `i`-th message value.
    pub message: &'a dyn Fn(u64) -> M,
}

/// Runs every probe and records its metric.
pub fn run_all<M: Record + Copy>(
    tr: &Tracer,
    inp: &ProbeInputs,
    msg: &MsgProbe<M>,
    rep: &mut Report,
) {
    let workers: Vec<WorkerId> = (0..inp.workers).map(WorkerId::from).collect();
    storage_veblock(tr, inp, &workers, rep);
    codec_extents(tr, inp, &workers, rep);
    storage_adjacency(tr, inp, rep);
    storage_wal(tr, inp, rep);
    net_batches(tr, inp, msg, rep);
    gateway_values(tr, inp, rep);
}

/// `VeBlockStore::build_with` under the workload codec, then
/// `scan_eblock` over every `(j, i)`.
fn storage_veblock(tr: &Tracer, inp: &ProbeInputs, workers: &[WorkerId], rep: &mut Report) {
    let t0 = Instant::now();
    let stores: Vec<VeBlockStore> = tr.span("storage.veblock_build", 0, || {
        workers
            .iter()
            .map(|&w| {
                VeBlockStore::build_with(&MemVfs::new(), inp.graph, &inp.layout, w, inp.codec)
                    .expect("in-memory VE-BLOCK build")
            })
            .collect()
    });
    rep.note(
        "storage.veblock_build_s",
        t0.elapsed().as_secs_f64(),
        "s",
        format!("codec {}", inp.codec.label()),
    );

    let nb = inp.layout.num_blocks() as u32;
    let (mut bytes, mut secs) = (0u64, 0.0);
    tr.span("storage.eblock_scan", 0, || {
        while secs < PROBE_SECS {
            let t0 = Instant::now();
            for s in &stores {
                for j in local_blocks(s) {
                    for i in 0..nb {
                        let f = s.scan_eblock(BlockId(j), BlockId(i)).expect("scan");
                        black_box(f);
                        bytes += s.eblock_info(BlockId(j), BlockId(i)).bytes;
                    }
                }
            }
            secs += t0.elapsed().as_secs_f64();
        }
    });
    rep.set("storage.eblock_scan_mb_s", mb_per_s(bytes, secs), "MB/s");
}

/// Global ids of a store's blocks.
fn local_blocks(s: &VeBlockStore) -> std::ops::Range<u32> {
    s.first_block().0..s.first_block().0 + s.local_blocks() as u32
}

/// The workload graph's raw extents: VE-BLOCK fragment streams (one per
/// nonempty Eblock) and per-vertex edge runs.
fn raw_extents(inp: &ProbeInputs, workers: &[WorkerId]) -> Vec<(ExtentKind, Vec<u8>)> {
    let nb = inp.layout.num_blocks() as u32;
    let mut out = Vec::new();
    for &w in workers {
        let s =
            VeBlockStore::build_with(&MemVfs::new(), inp.graph, &inp.layout, w, CodecChoice::None)
                .expect("in-memory VE-BLOCK build");
        for j in local_blocks(&s) {
            for i in 0..nb {
                let frags = s.scan_eblock(BlockId(j), BlockId(i)).expect("scan");
                if frags.is_empty() {
                    continue;
                }
                let mut raw = Vec::new();
                for f in frags {
                    f.src.0.append_to(&mut raw);
                    (f.edges.len() as u32).append_to(&mut raw);
                    for e in &f.edges {
                        e.append_to(&mut raw);
                    }
                }
                out.push((ExtentKind::Fragments, raw));
            }
        }
    }
    for v in inp.graph.vertices() {
        let row = inp.graph.out_edges(v);
        if !row.is_empty() {
            let mut raw = Vec::with_capacity(row.len() * 8);
            for e in row {
                e.append_to(&mut raw);
            }
            out.push((ExtentKind::Edges, raw));
        }
    }
    out
}

/// `encode_extent`/`decode_extent` under BV, and decode under gaps.
fn codec_extents(tr: &Tracer, inp: &ProbeInputs, workers: &[WorkerId], rep: &mut Report) {
    let raw = raw_extents(inp, workers);
    let logical: u64 = raw.iter().map(|(_, r)| r.len() as u64).sum();
    let t0 = Instant::now();
    let bv: Vec<Vec<u8>> = tr.span("codec.bv_encode", 0, || {
        raw.iter()
            .map(|(k, r)| encode_extent(CodecChoice::Bv, *k, r))
            .collect()
    });
    let enc_secs = t0.elapsed().as_secs_f64();
    rep.note(
        "codec.bv_encode_mb_s",
        mb_per_s(logical, enc_secs),
        "MB/s",
        format!("{} extents, {logical} logical bytes", raw.len()),
    );
    let decode = |name: &str, coded: &[Vec<u8>]| {
        tr.span(name, 0, || {
            let t0 = Instant::now();
            for ((k, r), c) in raw.iter().zip(coded) {
                let out = decode_extent(*k, c, r.len()).expect("decode");
                debug_assert_eq!(&out, r);
                black_box(out);
            }
            t0.elapsed().as_secs_f64()
        })
    };
    let dec_secs = decode("codec.bv_decode", &bv);
    rep.set("codec.bv_decode_mb_s", mb_per_s(logical, dec_secs), "MB/s");
    let gaps: Vec<Vec<u8>> = raw
        .iter()
        .map(|(k, r)| encode_extent(CodecChoice::Gaps, *k, r))
        .collect();
    let dec_secs = decode("codec.gaps_decode", &gaps);
    rep.set(
        "codec.gaps_decode_mb_s",
        mb_per_s(logical, dec_secs),
        "MB/s",
    );
}

/// `AdjacencyStore::edges_of` (random-read class) over seeded
/// frontier-sized vertex sets of worker 0, in id order; then
/// `EliasFano::get` over that store's extent offsets.
fn storage_adjacency(tr: &Tracer, inp: &ProbeInputs, rep: &mut Report) {
    let range = 0..(inp.graph.num_vertices() as u32).div_ceil(inp.workers as u32);
    let store =
        AdjacencyStore::build_with(&MemVfs::new(), "adj", inp.graph, range.clone(), inp.codec)
            .expect("in-memory adjacency build");
    let mut rng = SplitMix64::new(inp.seed ^ 0xad1);
    let k = inp.frontier.clamp(1, range.len());
    let (mut bytes, mut secs, mut sets) = (0u64, 0.0, 0u64);
    tr.span("storage.adj_read", 0, || {
        while secs < PROBE_SECS {
            let mut set: Vec<u32> = (0..k)
                .map(|_| range.start + rng.below_u64(range.len() as u64) as u32)
                .collect();
            set.sort_unstable();
            let t0 = Instant::now();
            for &v in &set {
                let edges = store
                    .edges_of(VertexId(v), AccessClass::RandRead)
                    .expect("read");
                bytes += edges.len() as u64 * 8;
                black_box(edges);
            }
            secs += t0.elapsed().as_secs_f64();
            sets += 1;
        }
    });
    rep.note(
        "storage.adj_read_mb_s",
        mb_per_s(bytes, secs),
        "MB/s",
        format!("{sets} sets of {k} vertices, codec {}", inp.codec.label()),
    );

    // An Elias-Fano directory over the same store's per-vertex extent
    // offsets, probed at seeded positions.
    let mut offsets = Vec::with_capacity(range.len());
    let mut at = 0u64;
    for v in range.clone() {
        offsets.push(at);
        at += store.stored_bytes_of(VertexId(v));
    }
    let ef = EliasFano::build(&offsets).expect("offsets ascend");
    let idx: Vec<u64> = (0..4096).map(|_| rng.below_u64(ef.len())).collect();
    let secs = tr.span("codec.ef_get", 0, || {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for k in 0..EF_GETS {
            acc = acc.wrapping_add(ef.get(idx[k % idx.len()]));
        }
        black_box(acc);
        t0.elapsed().as_secs_f64()
    });
    rep.note(
        "codec.ef_get_ns",
        secs * 1e9 / EF_GETS as f64,
        "ns",
        format!("{} offsets", offsets.len()),
    );
}

/// `ServiceLog::append` on a `DirVfs` in a fresh directory.
fn storage_wal(tr: &Tracer, inp: &ProbeInputs, rep: &mut Report) {
    let dir = crate::scratch_dir("wal-probe");
    let vfs = DirVfs::new(&dir).expect("open WAL probe directory");
    let log = ServiceLog::create(&vfs, CodecChoice::None).expect("create WAL");
    let times: Vec<f64> = tr.span("storage.wal_append", 0, || {
        inp.wal_bodies
            .iter()
            .map(|(kind, body)| {
                let t0 = Instant::now();
                log.append(*kind, body).expect("WAL append");
                t0.elapsed().as_secs_f64()
            })
            .collect()
    });
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
    let mean_body = inp.wal_bodies.iter().map(|(_, b)| b.len()).sum::<usize>() as f64
        / inp.wal_bodies.len().max(1) as f64;
    rep.note(
        "storage.wal_append_us",
        median(&times) * 1e6,
        "us",
        format!("{} appends, mean body {mean_body:.0} B", times.len()),
    );
}

/// `wire::encode_batch`/`decode_batch` on workload-sized combined
/// batches, and one `Packet::Messages` send → recv on a 2-endpoint mesh.
fn net_batches<M: Record + Copy>(
    tr: &Tracer,
    inp: &ProbeInputs,
    msg: &MsgProbe<M>,
    rep: &mut Report,
) {
    let n = inp.graph.num_vertices() as u64;
    let mut rng = SplitMix64::new(inp.seed ^ 0xba7c);
    let batch: Vec<(VertexId, M)> = (0..msg.batch as u64)
        .map(|i| (VertexId(rng.below_u64(n) as u32), (msg.message)(i)))
        .collect();
    let logical = (batch.len() * (4 + M::BYTES)) as u64;
    let (mut enc_secs, mut dec_secs, mut rounds) = (0.0, 0.0, 0u64);
    let mut encoded = (Vec::new(), Default::default());
    tr.span("net.batch_codec", 0, || {
        while enc_secs < PROBE_SECS || rounds < 3 {
            let mut m = batch.clone();
            let t0 = Instant::now();
            encoded = encode_batch(BatchKind::Combined, &mut m, Some(msg.combiner));
            let t1 = Instant::now();
            black_box(decode_batch::<M>(BatchKind::Combined, &encoded.0));
            dec_secs += t1.elapsed().as_secs_f64();
            enc_secs += (t1 - t0).as_secs_f64();
            rounds += 1;
        }
    });
    rep.note(
        "net.batch_encode_mb_s",
        mb_per_s(logical * rounds, enc_secs),
        "MB/s",
        format!("{} messages, {logical} raw bytes per batch", batch.len()),
    );
    rep.note(
        "net.batch_decode_mb_s",
        mb_per_s(encoded.0.len() as u64 * rounds, dec_secs),
        "MB/s",
        format!("{} wire bytes per batch", encoded.0.len()),
    );

    let (eps, _) = Fabric::mesh(2);
    let payload: Arc<[u8]> = Arc::from(encoded.0);
    let packet = Packet::Messages {
        kind: BatchKind::Combined,
        payload,
        stats: encoded.1,
        for_block: None,
    };
    let mut times = Vec::new();
    tr.span("net.send_recv", 0, || {
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs_f64(PROBE_SECS) || times.len() < 100 {
            let t0 = Instant::now();
            eps[0].send(WorkerId(1), packet.clone());
            black_box(eps[1].recv());
            times.push(t0.elapsed().as_secs_f64());
            eps[0].service();
        }
    });
    rep.note(
        "net.send_recv_us",
        median(&times) * 1e6,
        "us",
        format!("{} round trips", times.len()),
    );
}

/// `proto::decode_values` over the workload's value blobs.
fn gateway_values(tr: &Tracer, inp: &ProbeInputs, rep: &mut Report) {
    let (mut bytes, mut secs) = (0u64, 0.0);
    tr.span("gateway.values_decode", 0, || {
        while secs < PROBE_SECS / 2.0 {
            let t0 = Instant::now();
            for (kind, blob) in &inp.values {
                let ok = match kind {
                    ValueKind::F64 => black_box(decode_values::<f64>(blob)).is_ok(),
                    ValueKind::F32 => black_box(decode_values::<f32>(blob)).is_ok(),
                    _ => black_box(decode_values::<u32>(blob)).is_ok(),
                };
                assert!(ok, "value blob does not decode");
                bytes += blob.len() as u64;
            }
            secs += t0.elapsed().as_secs_f64();
        }
    });
    rep.set("gateway.values_decode_mb_s", mb_per_s(bytes, secs), "MB/s");
}

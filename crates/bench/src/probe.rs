//! `repro probe`: the CI determinism probes.
//!
//! ```text
//! repro probe async   <seed> <out.bin>
//! repro probe service <seed> <out.json>
//! repro probe gateway <seed> <out.bin>
//! ```
//!
//! Each probe runs one fixed, seeded workload and writes the bytes that
//! must not depend on thread interleaving. The `graphhp-determinism`,
//! `service-determinism` and `gateway-determinism` CI jobs run a probe
//! twice per seed and require the outputs to compare byte-identical with
//! `cmp`.
//!
//! - `async`: one tolerance-terminated async PageRank job on an
//!   id-localized RMAT graph derived from the seed. Writes the
//!   modeled-time Chrome trace, then the `Q_t` audit bytes (async
//!   extension included), then the final value bits.
//! - `service`: a fixed two-tenant `GraphService` batch (hybrid PageRank
//!   on two different graphs, batch-submitted under a scheduling pause so
//!   the first grant is seed-decided). Writes the combined per-job Chrome
//!   trace.
//! - `gateway`: three traced hybrid PageRank jobs through the full
//!   client → wire → server → `EnginePool` stack over the loopback
//!   transport, on a 2-wide pool. Two tenants are placed on engine 0
//!   (their interleaving there is seed-decided, and they contend through
//!   its small shared cache) and one on engine 1; all are batch-submitted
//!   under the all-engine pause. Writes each job's value bytes, `Q_t`
//!   audit bytes and Chrome trace, each length-prefixed.

use hybridgraph_algos::PageRank;
use hybridgraph_core::{encode_qt_audits, run_job, JobConfig, Mode};
use hybridgraph_gateway::{
    GatewayClient, GatewayConfig, GatewayServer, JobOptions, LoopbackTransport, ProgramSpec,
    SubmitReq,
};
use hybridgraph_graph::gen;
use hybridgraph_obs::{export_chrome_trace, export_chrome_trace_jobs, TraceSink};
use hybridgraph_service::{EnginePool, GraphService, GraphSpec, JobRequest, ServiceConfig};
use hybridgraph_storage::CodecChoice;
use std::sync::Arc;

const USAGE: &str = "usage: repro probe {async|service|gateway} <seed> <out>";

/// `repro probe <kind> <seed> <out>`: runs the probe, writes its bytes to
/// `out` and prints a one-line summary.
pub fn run(args: &[String]) -> Result<(), String> {
    let [kind, seed, out] = args else {
        return Err(USAGE.into());
    };
    let seed: u64 = seed
        .parse()
        .map_err(|_| format!("bad seed '{seed}'\n{USAGE}"))?;
    let (blob, summary) = match kind.as_str() {
        "async" => async_probe(seed),
        "service" => service_probe(seed),
        "gateway" => gateway_probe(seed),
        other => return Err(format!("unknown probe '{other}'\n{USAGE}")),
    };
    std::fs::write(out, &blob).map_err(|e| format!("writing {out}: {e}"))?;
    println!("seed {seed}: {summary}, {} bytes -> {out}", blob.len());
    Ok(())
}

fn async_probe(seed: u64) -> (Vec<u8>, String) {
    // Locality gives the pseudo-rounds interior vertices to chew on; the
    // rewiring seed is decorrelated from the RMAT seed so the two sweeps
    // don't share SplitMix64 streams.
    let g = gen::localize(
        &gen::rmat(512, 4096, gen::RmatParams::default(), seed),
        0.9,
        48,
        seed ^ 0x9e37_79b9,
    );
    let sink = Arc::new(TraceSink::new(3));
    let cfg = JobConfig::new(Mode::Async, 3)
        .with_buffer(512)
        .with_trace(Arc::clone(&sink));
    let r = run_job(Arc::new(PageRank::until(1e-8, 120)), &g, cfg).unwrap();

    let mut blob = export_chrome_trace(&sink).into_bytes();
    blob.extend_from_slice(&encode_qt_audits(&r.metrics.qt_audit));
    for v in &r.values {
        blob.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    let summary = format!(
        "{} barriers (+{} saved)",
        r.metrics.supersteps(),
        r.metrics.barriers_saved()
    );
    (blob, summary)
}

fn service_probe(seed: u64) -> (Vec<u8>, String) {
    let svc = GraphService::new(ServiceConfig {
        max_resident_jobs: 2,
        max_queued_jobs: 0,
        // Small enough that the tenants contend through evictions: the
        // trace then witnesses the shared-cache paths, not just the
        // scheduler interleaving.
        cache_bytes: 32 * 1024,
        cache_slots: 8,
        seed,
        max_job_logical_io: None,
        max_job_memory: None,
        recovery_shed_threshold: 8,
    });
    svc.register_graph(
        "a",
        gen::rmat(256, 2048, gen::RmatParams::default(), 11),
        GraphSpec::new(3).with_vblocks(2),
    )
    .unwrap();
    svc.register_graph("b", gen::uniform(200, 1600, 5), GraphSpec::new(3))
        .unwrap();

    let cfg = |sink: &Arc<TraceSink>| {
        let mut cfg = JobConfig::new(Mode::Hybrid, 3).with_buffer(2048);
        cfg.initial_mode_override = Some(Mode::Push);
        cfg.with_trace(Arc::clone(sink))
    };
    let sinks = [Arc::new(TraceSink::new(3)), Arc::new(TraceSink::new(3))];
    let pause = svc.pause_scheduling();
    let tickets: Vec<_> = ["a", "b"]
        .iter()
        .zip(&sinks)
        .map(|(graph, sink)| {
            let req = JobRequest::new(*graph, cfg(sink));
            svc.submit(Arc::new(PageRank::new(4)), req).unwrap()
        })
        .collect();
    drop(pause);
    let supersteps: Vec<String> = tickets
        .into_iter()
        .map(|t| t.wait().unwrap().metrics.supersteps().to_string())
        .collect();

    let trace = export_chrome_trace_jobs(&[("job-a", &sinks[0]), ("job-b", &sinks[1])]);
    (
        trace.into_bytes(),
        format!("{} supersteps", supersteps.join(" + ")),
    )
}

fn gateway_probe(seed: u64) -> (Vec<u8>, String) {
    let cfg = ServiceConfig {
        seed,
        cache_bytes: 32 * 1024,
        cache_slots: 8,
        ..ServiceConfig::default()
    };
    let pool = EnginePool::new(cfg, 2);
    // Three tenants over two engines: two sharing engine 0 (seed-decided
    // interleaving plus cache contention) and one alone on engine 1
    // (genuine cross-engine dispatch).
    let mut names: Vec<String> = Vec::new();
    for engine in [0usize, 0, 1] {
        let name = (0..)
            .map(|i| format!("t{i}"))
            .find(|n| pool.placement(n) == engine && !names.contains(n))
            .unwrap();
        names.push(name);
    }

    let server = GatewayServer::new(pool, GatewayConfig::default());
    let transport = LoopbackTransport::new();
    let handle = server.serve(transport.clone());
    let mut client = GatewayClient::connect_loopback(&transport).expect("connect");

    let graphs = [
        gen::rmat(256, 2048, gen::RmatParams::default(), 11),
        gen::uniform(200, 1600, 5),
        gen::rmat(224, 1792, gen::RmatParams::default(), 23),
    ];
    for (i, (name, g)) in names.iter().zip(&graphs).enumerate() {
        let vblocks = if i == 0 { 2 } else { 1 };
        client
            .register_graph(name, g, 3, vblocks, CodecChoice::None)
            .expect("register");
    }

    let options = JobOptions {
        mode: Mode::Hybrid,
        buffer_messages: 2048,
        trace: true,
        max_supersteps: 0,
    };
    let jobs = client
        .submit_batch(
            names
                .iter()
                .map(|name| SubmitReq {
                    graph: name.clone(),
                    program: ProgramSpec::PageRank { supersteps: 4 },
                    options,
                })
                .collect(),
        )
        .expect("batch");

    let mut blob = Vec::new();
    let mut supersteps = Vec::new();
    for &id in &jobs {
        let o = client.fetch(id).expect("fetch");
        for part in [
            &o.values[..],
            &o.audits[..],
            o.trace.as_deref().unwrap().as_bytes(),
        ] {
            blob.extend_from_slice(&(part.len() as u64).to_le_bytes());
            blob.extend_from_slice(part);
        }
        supersteps.push(o.supersteps.to_string());
    }
    client.shutdown().expect("shutdown");
    drop(client);
    handle.join();

    let engines: Vec<usize> = names.iter().map(|n| server.pool().placement(n)).collect();
    let summary = format!(
        "jobs {jobs:?} on engines {engines:?}, {} supersteps",
        supersteps.join("+")
    );
    (blob, summary)
}

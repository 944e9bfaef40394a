//! The `gateway-mix` workload: a closed loop of TCP clients on 127.0.0.1
//! against a `GatewayServer` over a durable one-engine `EnginePool`
//! whose write-ahead log lives on a `DirVfs`.

use crate::check::{all_match, Checked};
use crate::probes::{self, MsgProbe, ProbeInputs};
use crate::report::{mean, median, ratio, Report};
use crate::runjob::{build_graph, pick_sources, WORKERS};
use crate::spans::Tracer;
use crate::{Outcome, Run};
use hybridgraph_algos::reference::reference_run;
use hybridgraph_algos::{PageRank, Sssp, Wcc};
use hybridgraph_core::{Mode, VertexProgram};
use hybridgraph_gateway::proto::decode_values;
use hybridgraph_gateway::{
    ClientError, GatewayClient, GatewayConfig, GatewayServer, JobOptions, JobOutcome, ProgramSpec,
    ProgressEvent, ServerHandle, TcpTransport, ValueKind,
};
use hybridgraph_graph::partition::{BlockLayout, Partition};
use hybridgraph_graph::rng::SplitMix64;
use hybridgraph_graph::{Dataset, Graph};
use hybridgraph_obs::validate_json;
use hybridgraph_service::{EnginePool, ServiceConfig};
use hybridgraph_storage::{CodecChoice, DirVfs, PrefixVfs, ServiceLog, Vfs};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// LiveJ stand-in at 1/400.
const SCALE: usize = 400;
/// Closed-loop clients (one connection each).
const CLIENTS: usize = 2;
/// Distinct SSSP sources in the mix.
const SSSP_SOURCES: usize = 4;
/// Supersteps of the mix's PageRank jobs.
const PAGERANK_STEPS: u64 = 5;
/// Name the graph is registered under.
const GRAPH: &str = "livej";

/// One job of the mix.
#[derive(Copy, Clone, Debug)]
enum MixJob {
    PageRank,
    Sssp(u32),
    Wcc,
}

impl MixJob {
    fn spec(self) -> ProgramSpec {
        match self {
            MixJob::PageRank => ProgramSpec::PageRank {
                supersteps: PAGERANK_STEPS,
            },
            MixJob::Sssp(source) => ProgramSpec::Sssp { source },
            MixJob::Wcc => ProgramSpec::Wcc,
        }
    }
}

/// Reference values of every distinct job in the mix.
struct References {
    pagerank: Vec<f64>,
    sssp: Vec<(u32, Vec<f32>)>,
    wcc: Vec<u32>,
}

impl References {
    /// Whether `o` carries the right value kind and values for `job`.
    fn check(&self, job: MixJob, o: &JobOutcome) -> bool {
        fn ok<V: Checked + hybridgraph_storage::Record>(blob: &[u8], want: &[V]) -> bool {
            decode_values::<V>(blob).is_ok_and(|got| all_match(&got, want))
        }
        match job {
            MixJob::PageRank => o.value_kind == ValueKind::F64 && ok(&o.values, &self.pagerank),
            MixJob::Sssp(s) => {
                let want = &self
                    .sssp
                    .iter()
                    .find(|(src, _)| *src == s)
                    .expect("reference")
                    .1;
                o.value_kind == ValueKind::F32 && ok(&o.values, want)
            }
            MixJob::Wcc => o.value_kind == ValueKind::U32 && ok(&o.values, &self.wcc),
        }
    }
}

/// A running gateway stack.
struct Stack {
    dir: PathBuf,
    server: GatewayServer,
    handle: ServerHandle,
    clients: Vec<GatewayClient>,
}

impl Stack {
    /// Starts the durable pool and the gateway on a fresh directory,
    /// connects the clients and registers `g`. Returns the stack and the
    /// `register_graph` call's wall time.
    fn start(g: &Graph, seed: u64) -> (Stack, f64) {
        let dir = crate::scratch_dir("gateway-wal");
        let vfs: Arc<dyn Vfs> = Arc::new(DirVfs::new(&dir).expect("open WAL directory"));
        let cfg = ServiceConfig {
            max_resident_jobs: 2,
            seed,
            ..ServiceConfig::default()
        };
        let pool = EnginePool::new_durable(cfg, 1, vfs, CodecChoice::None).expect("durable pool");
        let server = GatewayServer::new(pool, GatewayConfig::default());
        let transport = Arc::new(TcpTransport::bind("127.0.0.1:0").expect("bind 127.0.0.1"));
        let addr = transport.local_addr();
        let handle = server.serve(transport);
        let mut clients: Vec<GatewayClient> = (0..CLIENTS)
            .map(|_| GatewayClient::connect_tcp(addr).expect("connect"))
            .collect();
        let t0 = Instant::now();
        clients[0]
            .register_graph(GRAPH, g, WORKERS, 1, CodecChoice::Gaps)
            .expect("register_graph");
        let register_s = t0.elapsed().as_secs_f64();
        (
            Stack {
                dir,
                server,
                handle,
                clients,
            },
            register_s,
        )
    }

    /// Shuts the server down, joins every thread it started and returns
    /// the WAL directory (still on disk).
    fn stop(mut self) -> (GatewayServer, PathBuf) {
        let mut first = self.clients.remove(0);
        self.clients.clear();
        first.shutdown().expect("shutdown");
        drop(first);
        self.handle.join();
        (self.server, self.dir)
    }
}

/// Server-side counters, snapshotted around the measured phase.
#[derive(Copy, Clone, Default)]
struct Counters {
    wire_bytes: u64,
    frames: u64,
    wal_bytes: u64,
    hits: u64,
    misses: u64,
}

fn counters(s: &GatewayServer) -> Counters {
    let m = s.metrics();
    let e = s.pool().engine(0);
    let c = e.cache_stats();
    Counters {
        wire_bytes: m.bytes_in() + m.bytes_out(),
        frames: m.frames_in() + m.frames_out(),
        wal_bytes: e.service_log_bytes(),
        hits: c.hits,
        misses: c.misses,
    }
}

/// One job as a client saw it.
struct Sample {
    job: MixJob,
    wall_s: f64,
    failed: bool,
    outcome: Option<JobOutcome>,
    submit_s: f64,
    fetch_s: f64,
    first_event_s: Option<f64>,
    modes: Vec<Mode>,
}

/// One client's closed loop until `secs` have passed: it deals the mix
/// cycle in a fresh seeded order each time round, one job at a time.
fn client_loop(
    client: &mut GatewayClient,
    index: u64,
    mix: &[MixJob],
    refs: &References,
    secs: f64,
    seed: u64,
    tracer: Option<&Tracer>,
) -> Vec<Sample> {
    let mut rng = SplitMix64::new(seed ^ (index + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut deck: Vec<MixJob> = Vec::new();
    let start = Instant::now();
    let mut out = Vec::new();
    Tracer::set_thread(index + 1);
    while out.is_empty() || start.elapsed().as_secs_f64() < secs {
        if deck.is_empty() {
            deck = mix.to_vec();
            for i in (1..deck.len()).rev() {
                deck.swap(i, rng.below_u64(i as u64 + 1) as usize);
            }
        }
        let job = deck.pop().expect("deck refilled");
        let id = (index + 1) * 1_000_000 + out.len() as u64;
        let sample = match tracer {
            None => one_job(client, job, refs, None, id),
            Some(tr) => tr.span("bench.job", id, || one_job(client, job, refs, Some(tr), id)),
        };
        out.push(sample);
    }
    out
}

fn one_job(
    client: &mut GatewayClient,
    job: MixJob,
    refs: &References,
    tracer: Option<&Tracer>,
    id: u64,
) -> Sample {
    let options = JobOptions {
        mode: Mode::Hybrid,
        trace: tracer.is_some(),
        ..JobOptions::default()
    };
    let mut sample = Sample {
        job,
        wall_s: 0.0,
        failed: true,
        outcome: None,
        submit_s: 0.0,
        fetch_s: 0.0,
        first_event_s: None,
        modes: Vec::new(),
    };
    let timed = |name: &str, f: &mut dyn FnMut() -> Result<(), ClientError>| {
        let t0 = Instant::now();
        let r = match tracer {
            None => f(),
            Some(tr) => tr.span(name, id, f),
        };
        (t0.elapsed().as_secs_f64(), r)
    };
    let t0 = Instant::now();
    let mut job_id = 0;
    let (submit_s, r) = timed("gateway.submit", &mut || {
        job_id = client.submit(GRAPH, job.spec(), options)?;
        Ok(())
    });
    sample.submit_s = submit_s;
    if let Err(e) = r {
        eprintln!("submit: {e}");
        return sample;
    }
    if let Some(tr) = tracer {
        let submitted = Instant::now();
        let mut first = None;
        let mut modes = Vec::new();
        let r = tr.span("gateway.subscribe", id, || {
            client.subscribe(job_id, |ev| {
                if first.is_none() {
                    first = Some(Instant::now());
                }
                if let ProgressEvent::Superstep { mode, .. } = ev {
                    modes.push(*mode);
                }
            })
        });
        if let Some(f) = first {
            tr.record(
                "service.first_event",
                id,
                Tracer::current(),
                tr.at(submitted),
                tr.at(f),
            );
            sample.first_event_s = Some((f - submitted).as_secs_f64());
        }
        sample.modes = modes;
        if let Err(e) = r {
            eprintln!("subscribe: {e}");
            return sample;
        }
    }
    let mut outcome = None;
    let (fetch_s, r) = timed("gateway.fetch", &mut || {
        outcome = Some(client.fetch(job_id)?);
        Ok(())
    });
    sample.wall_s = t0.elapsed().as_secs_f64();
    sample.fetch_s = fetch_s;
    if let Err(e) = r {
        eprintln!("fetch: {e}");
        return sample;
    }
    let o = outcome.expect("fetched");
    let ok = match tracer {
        None => refs.check(job, &o),
        Some(tr) => tr.span("bench.check", id, || refs.check(job, &o)),
    };
    if let (Some(tr), Some(trace)) = (tracer, &o.trace) {
        let valid = tr.span("obs.validate_json", id, || validate_json(trace).is_ok());
        assert!(valid, "engine trace of job {id} is not valid JSON");
    }
    if !ok {
        eprintln!("job {job:?}: values differ from the reference");
    }
    sample.failed = !ok;
    sample.outcome = Some(o);
    sample
}

/// Runs every client concurrently for `secs`.
fn measure(
    stack: &mut Stack,
    mix: &[MixJob],
    refs: &References,
    secs: f64,
    seed: u64,
    tracer: Option<&Tracer>,
) -> (Vec<Sample>, f64, Counters, Counters) {
    let before = counters(&stack.server);
    let start = Instant::now();
    let samples = std::thread::scope(|s| {
        let handles: Vec<_> = stack
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, c)| s.spawn(move || client_loop(c, i as u64, mix, refs, secs, seed, tracer)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let secs = start.elapsed().as_secs_f64();
    (samples, secs, before, counters(&stack.server))
}

pub fn run(run: &Run, tracer: Option<&Tracer>) -> (Report, Outcome) {
    let mut rep = Report::default();

    // Set-up: generate the graph, start the durable pool and the gateway,
    // register the graph. Repeated; every stack but the last is torn
    // down again.
    let (mut setups, mut builds, mut registers) = (Vec::new(), Vec::new(), Vec::new());
    let mut ready = None;
    for i in 0..crate::SETUP_REPEATS {
        if let Some((stack, _)) = ready.take() {
            let (_, dir) = Stack::stop(stack);
            let _ = std::fs::remove_dir_all(dir);
        }
        let t0 = Instant::now();
        let g = match tracer {
            None => build_graph(Dataset::LiveJ, SCALE, run.seed),
            Some(tr) => tr.span("graph.build", i, || {
                build_graph(Dataset::LiveJ, SCALE, run.seed)
            }),
        };
        builds.push(t0.elapsed().as_secs_f64());
        let (stack, register_s) = match tracer {
            None => Stack::start(&g, run.seed),
            Some(tr) => tr.span("service.start_and_register", i, || {
                Stack::start(&g, run.seed)
            }),
        };
        registers.push(register_s);
        setups.push(t0.elapsed().as_secs_f64());
        ready = Some((stack, g));
    }
    let (mut stack, g) = ready.expect("set-up ran");
    rep.note(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {} set-ups", setups.len()),
    );
    rep.set("graph.build_s", median(&builds), "s");
    rep.set("service.register_s", median(&registers), "s");

    // The seeded mix and its references, outside every timed region. The
    // cycle holds the three programs in equal shares, so every run carries
    // the same composition; shuffling each round keeps the two clients
    // from settling into a fixed pairing of concurrent jobs.
    let sources = pick_sources(&g, run.seed, SSSP_SOURCES);
    let mix: Vec<MixJob> = sources
        .iter()
        .flat_map(|s| [MixJob::PageRank, MixJob::Wcc, MixJob::Sssp(s.0)])
        .collect();
    let mut ref_secs = Vec::new();
    let mut reference = |name: u64, f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        match tracer {
            None => f(),
            Some(tr) => tr.span("algos.reference", name, f),
        }
        ref_secs.push(t0.elapsed().as_secs_f64());
    };
    let mut refs = References {
        pagerank: Vec::new(),
        sssp: Vec::new(),
        wcc: Vec::new(),
    };
    reference(0, &mut || {
        refs.pagerank = reference_run(&PageRank::new(PAGERANK_STEPS), &g)
    });
    reference(1, &mut || refs.wcc = reference_run(&Wcc::new(), &g));
    for (i, s) in sources.iter().enumerate() {
        reference(2 + i as u64, &mut || {
            refs.sssp.push((s.0, reference_run(&Sssp::new(*s), &g)))
        });
    }
    println!(
        "graph: {} vertices, {} edges; mix cycle of {} jobs over {CLIENTS} clients",
        g.num_vertices(),
        g.num_edges(),
        mix.len()
    );

    let (plain, plain_secs, c0, c1, traced) = match tracer {
        None => {
            let (s, secs, c0, c1) = measure(&mut stack, &mix, &refs, run.seconds, run.seed, None);
            (s, secs, c0, c1, Vec::new())
        }
        Some(tr) => {
            let half = run.seconds / 2.0;
            let (s, secs, c0, c1) = measure(&mut stack, &mix, &refs, half, run.seed, None);
            let (t, ..) = measure(&mut stack, &mix, &refs, half, run.seed ^ 1, Some(tr));
            (s, secs, c0, c1, t)
        }
    };
    let (server, dir) = stack.stop();
    let all: Vec<&Sample> = plain.iter().chain(&traced).collect();
    let outcome = Outcome {
        attempted: all.len() as u64,
        failed: all.iter().filter(|s| s.failed).count() as u64,
    };
    let jobs = plain.len() as f64;
    let walls: Vec<f64> = plain.iter().map(|s| s.wall_s).collect();
    let outs: Vec<&JobOutcome> = all.iter().filter_map(|s| s.outcome.as_ref()).collect();
    let per_job =
        |f: &dyn Fn(&JobOutcome) -> f64| mean(&outs.iter().map(|o| f(o)).collect::<Vec<_>>());

    let by_program = |f: fn(MixJob) -> bool| {
        median(
            &plain
                .iter()
                .filter(|s| f(s.job))
                .map(|s| s.wall_s)
                .collect::<Vec<_>>(),
        )
    };
    let p50_note = format!(
        "by program: pagerank {:.4}, sssp {:.4}, wcc {:.4}",
        by_program(|j| matches!(j, MixJob::PageRank)),
        by_program(|j| matches!(j, MixJob::Sssp(_))),
        by_program(|j| matches!(j, MixJob::Wcc)),
    );
    crate::report_jobs(
        &mut rep,
        crate::NOMINAL_JOBS_GATEWAY,
        &walls,
        plain_secs,
        &outcome,
        p50_note,
    );
    rep.set("modeled_s", per_job(&|o| o.modeled_secs), "s");
    rep.set(
        "io_physical_bytes",
        per_job(&|o| o.physical_bytes as f64),
        "B",
    );
    rep.note(
        "net_bytes",
        ratio((c1.wire_bytes - c0.wire_bytes) as f64, jobs),
        "B",
        "gateway wire bytes in + out".into(),
    );

    // Counts the service returns.
    rep.set(
        "storage.wal_bytes_per_job",
        ratio((c1.wal_bytes - c0.wal_bytes) as f64, jobs),
        "B",
    );
    let (hits, misses) = (c1.hits - c0.hits, c1.misses - c0.misses);
    rep.note(
        "service.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "1",
        format!("{hits} hits, {misses} misses"),
    );
    rep.set(
        "gateway.frames_per_job",
        ratio((c1.frames - c0.frames) as f64, jobs),
        "count",
    );
    rep.set(
        "core.supersteps",
        per_job(&|o| o.supersteps as f64),
        "count",
    );
    rep.set(
        "core.switches",
        per_job(&|o| o.switches.len() as f64),
        "count",
    );
    rep.set(
        "codec.p_over_l",
        per_job(&|o| ratio(o.physical_bytes as f64, o.logical_bytes as f64)),
        "1",
    );

    let Some(tr) = tracer else {
        let _ = std::fs::remove_dir_all(dir);
        return (rep, outcome);
    };

    let modes: Vec<Mode> = traced
        .iter()
        .flat_map(|s| s.modes.iter().copied())
        .collect();
    rep.note(
        "core.bpull_step_share",
        ratio(
            modes.iter().filter(|m| **m == Mode::BPull).count() as f64,
            modes.len() as f64,
        ),
        "1",
        format!("{} streamed superstep events", modes.len()),
    );
    let firsts: Vec<f64> = traced.iter().filter_map(|s| s.first_event_s).collect();
    rep.set("service.first_event_s", median(&firsts), "s");
    rep.set(
        "gateway.submit_s",
        median(&all.iter().map(|s| s.submit_s).collect::<Vec<_>>()),
        "s",
    );
    rep.set(
        "gateway.fetch_s",
        median(&plain.iter().map(|s| s.fetch_s).collect::<Vec<_>>()),
        "s",
    );
    let traced_walls: Vec<f64> = traced.iter().map(|s| s.wall_s).collect();
    crate::report_traced(&mut rep, &walls, &traced_walls, &ref_secs);
    for (name, unit) in [
        ("core.load_s", "s"),
        ("core.collect_s", "s"),
        ("core.superstep_s_p50.bpull", "s"),
        ("core.superstep_s_p99.bpull", "s"),
        ("core.superstep_s_p50.push", "s"),
        ("core.superstep_s_p99.push", "s"),
        ("core.blocking_s", "s"),
        ("core.mem_peak_bytes", "B"),
        ("storage.io_seq_read_bytes", "B"),
        ("storage.io_seq_write_bytes", "B"),
        ("storage.io_rand_read_bytes", "B"),
        ("storage.io_rand_write_bytes", "B"),
        ("net.raw_messages", "count"),
        ("net.saved_messages", "count"),
        ("net.requests", "count"),
    ] {
        rep.note(name, 0.0, unit, "not returned through the gateway".into());
    }

    // The WAL probe appends this run's own records to a fresh log.
    let view = PrefixVfs::new(
        Arc::new(DirVfs::new(&dir).expect("reopen WAL directory")) as Arc<dyn Vfs>,
        EnginePool::engine_prefix(0),
    );
    let (_, records) = ServiceLog::open(&view).expect("reopen the service log");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);

    let pr = PageRank::new(PAGERANK_STEPS);
    let combiner = pr.combiner().expect("PageRank combines");
    let message = |i: u64| (i % 1000) as f64 * 1e-3;
    let values = outs
        .iter()
        .take(16)
        .map(|o| (o.value_kind, o.values.clone()))
        .collect();
    let partition = Partition::range(g.num_vertices(), WORKERS);
    let inputs = ProbeInputs {
        graph: &g,
        layout: BlockLayout::uniform(&partition, 1),
        workers: WORKERS,
        codec: CodecChoice::Gaps,
        frontier: g.num_vertices().div_ceil(WORKERS),
        wal_bodies: records.into_iter().map(|r| (r.kind, r.body)).collect(),
        values,
        seed: run.seed,
    };
    let msgs = MsgProbe {
        batch: g.num_edges() / WORKERS, // one PageRank superstep per worker
        combiner,
        message: &message,
    };
    probes::run_all(tr, &inputs, &msgs, &mut rep);
    (rep, outcome)
}

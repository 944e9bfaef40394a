//! The two `run_job` workloads: one job at a time, straight into the
//! engine, no service in between.

use crate::check::{all_match, Checked};
use crate::probes::{self, MsgProbe, ProbeInputs};
use crate::report::{mean, median, quantile, ratio, Report};
use crate::spans::Tracer;
use crate::{Outcome, Run};
use hybridgraph_algos::reference::reference_run;
use hybridgraph_core::{
    run_job, JobConfig, JobMetrics, MasterState, Mode, MtbfEstimator, ProgressSink,
    RecoveryMetrics, Switcher, VertexProgram,
};
use hybridgraph_gateway::proto::{encode_values, ValueKind};
use hybridgraph_graph::partition::{vblock_counts, BlockLayout, Partition};
use hybridgraph_graph::rng::SplitMix64;
use hybridgraph_graph::{gen, Dataset, Graph, VertexId};
use hybridgraph_obs::{export_chrome_trace, validate_json, TraceSink};
use hybridgraph_storage::{CodecChoice, IoSnapshot};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Workers per job (the benchmark host has two cores).
pub const WORKERS: usize = 2;
/// Per-worker message buffer: the paper's 0.5 M scaled to 1/100.
pub const BUFFER: usize = 5000;
/// Distinct SSSP sources per run (each checked against its own reference).
const SSSP_SOURCES: usize = 4;
/// Sources are drawn from this many highest-out-degree vertices.
pub const SOURCE_POOL: usize = 32;
/// Master snapshots re-encoded for the WAL probe.
const WAL_SAMPLES: usize = 48;

/// Which `run_job` workload.
#[derive(Copy, Clone, Debug)]
pub enum Kind {
    /// `PageRank::new(10)`, LiveJ at 1/100 with unit weights, BV codec.
    PageRank,
    /// `Sssp` to convergence, Wiki at 1/100, no codec.
    Sssp,
}

impl Kind {
    fn codec(self) -> CodecChoice {
        match self {
            Kind::PageRank => CodecChoice::Bv,
            Kind::Sssp => CodecChoice::None,
        }
    }
}

/// `DatasetSpec::build` with the dataset's seed mixed with the workload
/// seed, so each benchmark seed gets its own graph of the same shape.
pub fn build_graph(dataset: Dataset, scale: usize, seed: u64) -> Graph {
    let mut spec = dataset.spec();
    spec.seed = SplitMix64::new(spec.seed ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64();
    spec.build(scale)
}

/// `count` seeded picks from the `SOURCE_POOL` highest-out-degree
/// vertices (ties broken by id).
pub fn pick_sources(g: &Graph, seed: u64, count: usize) -> Vec<VertexId> {
    let mut by_degree: Vec<VertexId> = g.vertices().collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v.0));
    by_degree.truncate(SOURCE_POOL);
    let mut rng = SplitMix64::new(seed ^ 0x5eed_50ce);
    (0..count)
        .map(|_| by_degree[rng.below_u64(by_degree.len() as u64) as usize])
        .collect()
}

fn job_config(codec: CodecChoice) -> JobConfig {
    JobConfig::new(Mode::Hybrid, WORKERS)
        .with_buffer(BUFFER)
        .with_codec(codec)
}

/// Wall-clock instants of the engine's progress callbacks.
#[derive(Debug, Default)]
struct StepClock {
    events: Mutex<Vec<(Instant, Option<Mode>)>>,
}

impl ProgressSink for StepClock {
    fn loaded(&self, _modeled_secs: f64) {
        let mut e = self.events.lock().expect("clock lock poisoned");
        e.push((Instant::now(), None));
    }

    fn superstep(&self, _superstep: u64, mode: Mode, _modeled_secs: f64) {
        let mut e = self.events.lock().expect("clock lock poisoned");
        e.push((Instant::now(), Some(mode)));
    }
}

/// Everything kept from one job.
struct JobRecord {
    /// Index of the job's program among the workload's distinct ones.
    program: usize,
    wall_s: f64,
    failed: bool,
    metrics: Option<JobMetrics>,
    /// Traced jobs only: load, per-mode superstep gaps, collect.
    load_s: Option<f64>,
    gaps: Vec<(Mode, f64)>,
    collect_s: Option<f64>,
}

struct Job<P: VertexProgram> {
    program: Arc<P>,
    want: Vec<P::Value>,
}

fn run_one<P>(
    job: &Job<P>,
    g: &Graph,
    codec: CodecChoice,
    tracer: Option<&Tracer>,
    id: u64,
) -> JobRecord
where
    P: VertexProgram,
    P::Value: Checked,
{
    let mut cfg = job_config(codec);
    let clock = Arc::new(StepClock::default());
    let sink = tracer.map(|_| Arc::new(TraceSink::new(WORKERS)));
    if let Some(s) = &sink {
        cfg = cfg
            .with_trace(Arc::clone(s))
            .with_progress(Arc::clone(&clock) as Arc<dyn ProgressSink>);
    }
    let call = |cfg: JobConfig| {
        let t0 = Instant::now();
        let res = run_job(Arc::clone(&job.program), g, cfg);
        (t0, Instant::now(), res)
    };
    let mut rec = JobRecord {
        program: 0,
        wall_s: 0.0,
        failed: true,
        metrics: None,
        load_s: None,
        gaps: Vec::new(),
        collect_s: None,
    };
    let (t0, t1, res) = match tracer {
        None => call(cfg),
        Some(tr) => tr.span_id("core.run_job", id, |span| {
            let out = call(cfg);
            record_progress(tr, id, span, out.0, out.1, &clock, &mut rec);
            out
        }),
    };
    rec.wall_s = (t1 - t0).as_secs_f64();
    let res = match res {
        Ok(r) => r,
        Err(e) => {
            eprintln!("job {id}: {e}");
            return rec;
        }
    };
    let ok = match tracer {
        None => all_match(&res.values, &job.want),
        Some(tr) => tr.span("bench.check", id, || all_match(&res.values, &job.want)),
    };
    if let (Some(tr), Some(s)) = (tracer, &sink) {
        let valid = tr.span("obs.export_chrome_trace", id, || {
            validate_json(&export_chrome_trace(s)).is_ok()
        });
        assert!(valid, "engine trace of job {id} is not valid JSON");
    }
    if !ok {
        eprintln!("job {id}: values differ from the reference");
    }
    rec.failed = !ok;
    rec.metrics = Some(res.metrics);
    rec
}

/// Turns the progress callbacks of one traced job into child spans of
/// its `core.run_job` span.
fn record_progress(
    tr: &Tracer,
    id: u64,
    parent: u64,
    t0: Instant,
    t1: Instant,
    clock: &StepClock,
    rec: &mut JobRecord,
) {
    let events = clock.events.lock().expect("clock lock poisoned");
    let mut prev = t0;
    for &(at, mode) in events.iter() {
        let dur = (at - prev).as_secs_f64();
        match mode {
            None => {
                tr.record("core.load", id, Some(parent), tr.at(prev), tr.at(at));
                rec.load_s = Some(dur);
            }
            Some(m) => {
                let name = format!("core.superstep.{}", m.label());
                tr.record(&name, id, Some(parent), tr.at(prev), tr.at(at));
                rec.gaps.push((m, dur));
            }
        }
        prev = at;
    }
    tr.record("core.collect", id, Some(parent), tr.at(prev), tr.at(t1));
    rec.collect_s = Some((t1 - prev).as_secs_f64());
}

/// Runs jobs round-robin over `jobs` until `secs` have passed; returns
/// the records and the phase's wall time.
fn measure<P>(
    jobs: &[Job<P>],
    g: &Graph,
    codec: CodecChoice,
    secs: f64,
    tracer: Option<&Tracer>,
    first_id: u64,
) -> (Vec<JobRecord>, f64)
where
    P: VertexProgram,
    P::Value: Checked,
{
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed().as_secs_f64() < secs {
        let id = first_id + out.len() as u64;
        let program = out.len() % jobs.len();
        let job = &jobs[program];
        let mut rec = match tracer {
            None => run_one(job, g, codec, None, id),
            Some(tr) => tr.span("bench.job", id, || run_one(job, g, codec, Some(tr), id)),
        };
        rec.program = program;
        out.push(rec);
    }
    (out, start.elapsed().as_secs_f64())
}

/// Sets up, measures and (traced) probes one `run_job` workload.
pub fn run(kind: Kind, run: &Run, tracer: Option<&Tracer>) -> (Report, Outcome) {
    match kind {
        Kind::PageRank => workload(
            kind,
            run,
            tracer,
            |seed| {
                // PageRank never reads weights; unit weights let the codec
                // see adjacency structure only (as `io_compress` does).
                gen::randomize_weights(&build_graph(Dataset::LiveJ, 100, seed), 1.0, 1.0, 0)
            },
            |_, _| vec![hybridgraph_algos::PageRank::new(10)],
            |i| (i % 1000) as f64 * 1e-3,
            ValueKind::F64,
        ),
        Kind::Sssp => workload(
            kind,
            run,
            tracer,
            |seed| build_graph(Dataset::Wiki, 100, seed),
            |g, seed| {
                pick_sources(g, seed, SSSP_SOURCES)
                    .into_iter()
                    .map(hybridgraph_algos::Sssp::new)
                    .collect()
            },
            |i| (i % 97) as f32 * 0.5,
            ValueKind::F32,
        ),
    }
}

#[allow(clippy::too_many_arguments)]
fn workload<P>(
    kind: Kind,
    run: &Run,
    tracer: Option<&Tracer>,
    build: impl Fn(u64) -> Graph,
    programs: impl Fn(&Graph, u64) -> Vec<P>,
    message: impl Fn(u64) -> P::Message,
    value_kind: ValueKind,
) -> (Report, Outcome)
where
    P: VertexProgram,
    P::Value: Checked,
    P::Message: Copy,
{
    let codec = kind.codec();
    let mut rep = Report::default();

    // Set-up: generate the seeded graph and the programs; repeated so the
    // reported figure is a median.
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut ready = None;
    for rep_i in 0..crate::SETUP_REPEATS {
        drop(ready.take());
        let t0 = Instant::now();
        let g = match tracer {
            None => build(run.seed),
            Some(tr) => tr.span("graph.build", rep_i, || build(run.seed)),
        };
        builds.push(t0.elapsed().as_secs_f64());
        let ps = programs(&g, run.seed);
        setups.push(t0.elapsed().as_secs_f64());
        ready = Some((g, ps));
    }
    let (g, ps) = ready.expect("set-up ran");
    rep.note(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {} set-ups", setups.len()),
    );
    rep.set("graph.build_s", median(&builds), "s");
    println!(
        "graph: {} vertices, {} edges; {} distinct job(s)",
        g.num_vertices(),
        g.num_edges(),
        ps.len()
    );

    // References: once per distinct program, outside every timed region.
    let mut ref_secs = Vec::new();
    let jobs: Vec<Job<P>> = ps
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let t0 = Instant::now();
            let want = match tracer {
                None => reference_run(&p, &g),
                Some(tr) => tr.span("algos.reference", i as u64, || reference_run(&p, &g)),
            };
            ref_secs.push(t0.elapsed().as_secs_f64());
            Job {
                program: Arc::new(p),
                want,
            }
        })
        .collect();

    // Measured phase. A traced run spends its first half untraced, so the
    // tracing overhead is measured on the same input in the same process.
    let (plain, plain_secs, traced) = match tracer {
        None => {
            let (r, s) = measure(&jobs, &g, codec, run.seconds, None, 0);
            (r, s, Vec::new())
        }
        Some(tr) => {
            let (r, s) = measure(&jobs, &g, codec, run.seconds / 2.0, None, 0);
            let (t, _) = measure(
                &jobs,
                &g,
                codec,
                run.seconds / 2.0,
                Some(tr),
                r.len() as u64,
            );
            (r, s, t)
        }
    };
    let all: Vec<&JobRecord> = plain.iter().chain(&traced).collect();
    let outcome = Outcome {
        attempted: all.len() as u64,
        failed: all.iter().filter(|r| r.failed).count() as u64,
    };
    let walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    // Mean per job with every distinct program weighted equally, so the
    // program's own counts repeat exactly whatever number of jobs of each
    // program fit into the run.
    let per_job = |f: &dyn Fn(&JobMetrics) -> f64| {
        let per_program: Vec<f64> = (0..jobs.len())
            .filter_map(|p| {
                let v: Vec<f64> = all
                    .iter()
                    .filter(|r| r.program == p)
                    .filter_map(|r| r.metrics.as_ref().map(f))
                    .collect();
                (!v.is_empty()).then(|| mean(&v))
            })
            .collect();
        mean(&per_program)
    };

    crate::report_jobs(
        &mut rep,
        kind_tail(kind),
        &walls,
        plain_secs,
        &outcome,
        String::new(),
    );
    rep.set("modeled_s", per_job(&|m| m.modeled_total_secs()), "s");
    rep.set(
        "io_physical_bytes",
        per_job(&|m| m.total_io_bytes() as f64),
        "B",
    );
    rep.set("net_bytes", per_job(&|m| m.total_net_bytes() as f64), "B");

    // Counts the program returns.
    let io = |f: fn(&IoSnapshot) -> u64| {
        per_job(&|m: &JobMetrics| m.steps.iter().map(|s| f(&s.io)).sum::<u64>() as f64)
    };
    rep.set("storage.io_seq_read_bytes", io(|s| s.seq_read_bytes), "B");
    rep.set("storage.io_seq_write_bytes", io(|s| s.seq_write_bytes), "B");
    rep.set("storage.io_rand_read_bytes", io(|s| s.rand_read_bytes), "B");
    rep.set(
        "storage.io_rand_write_bytes",
        io(|s| s.rand_write_bytes),
        "B",
    );
    rep.set("storage.wal_bytes_per_job", 0.0, "B");
    let steps_sum = |f: fn(&hybridgraph_core::SuperstepMetrics) -> f64| {
        per_job(&|m: &JobMetrics| m.steps.iter().map(f).sum::<f64>())
    };
    rep.set(
        "net.raw_messages",
        steps_sum(|s| s.net_raw_messages as f64),
        "count",
    );
    rep.set(
        "net.saved_messages",
        steps_sum(|s| s.net_saved_messages as f64),
        "count",
    );
    rep.set(
        "net.requests",
        steps_sum(|s| s.net_requests as f64),
        "count",
    );
    rep.set(
        "core.supersteps",
        per_job(&|m| m.supersteps() as f64),
        "count",
    );
    rep.set(
        "core.switches",
        per_job(&|m| m.switches.len() as f64),
        "count",
    );
    let bpull = |m: &JobMetrics| {
        let b = m
            .steps
            .iter()
            .filter(|s| s.kind.mode() == Mode::BPull)
            .count();
        ratio(b as f64, m.steps.len() as f64)
    };
    rep.set("core.bpull_step_share", per_job(&bpull), "1");
    rep.note(
        "core.blocking_s",
        steps_sum(|s| s.blocking_secs),
        "s",
        "program-reported".into(),
    );
    rep.set(
        "core.mem_peak_bytes",
        per_job(&|m| m.peak_memory_bytes() as f64),
        "B",
    );
    rep.set(
        "codec.p_over_l",
        per_job(&|m| m.io_compression_ratio()),
        "1",
    );

    let Some(tr) = tracer else {
        return (rep, outcome);
    };

    // Per-layer timings from the traced half.
    let load: Vec<f64> = traced.iter().filter_map(|r| r.load_s).collect();
    let collect: Vec<f64> = traced.iter().filter_map(|r| r.collect_s).collect();
    rep.set("core.load_s", median(&load), "s");
    rep.set("core.collect_s", median(&collect), "s");
    for (mode, tag) in [(Mode::BPull, "bpull"), (Mode::Push, "push")] {
        let gaps: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.gaps.iter().filter(|(m, _)| *m == mode).map(|(_, d)| *d))
            .collect();
        rep.note(
            &format!("core.superstep_s_p50.{tag}"),
            median(&gaps),
            "s",
            format!("n={}", gaps.len()),
        );
        rep.set(
            &format!("core.superstep_s_p99.{tag}"),
            quantile(&gaps, 0.99),
            "s",
        );
    }
    let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall_s).collect();
    crate::report_traced(&mut rep, &walls, &traced_walls, &ref_secs);
    for (name, unit) in [
        ("service.register_s", "s"),
        ("service.first_event_s", "s"),
        ("service.cache_hit_ratio", "1"),
        ("gateway.submit_s", "s"),
        ("gateway.fetch_s", "s"),
        ("gateway.frames_per_job", "count"),
    ] {
        rep.note(name, 0.0, unit, "not exercised: no service".into());
    }

    // Layer probes on this workload's own inputs.
    let done: Vec<&JobMetrics> = all.iter().filter_map(|r| r.metrics.as_ref()).collect();
    let last = done.last().copied();
    let steps = done.iter().map(|m| m.supersteps()).sum::<u64>().max(1);
    let raw_msgs = done
        .iter()
        .flat_map(|m| m.steps.iter())
        .map(|s| s.net_raw_messages)
        .sum::<u64>();
    let updated = done
        .iter()
        .flat_map(|m| m.steps.iter())
        .map(|s| s.updated)
        .sum::<u64>();
    let program = &jobs[0].program;
    let combiner = program.combiner().expect("both programs combine");
    let partition = Partition::range(g.num_vertices(), WORKERS);
    let counts = vblock_counts(&g, &partition, BUFFER, true);
    let inputs = ProbeInputs {
        graph: &g,
        workers: WORKERS,
        layout: BlockLayout::new(&partition, &counts),
        codec,
        frontier: (updated / steps).max(1) as usize,
        wal_bodies: last.map(master_snapshots).unwrap_or_default(),
        values: vec![(value_kind, encode_values(&jobs[0].want))],
        seed: run.seed,
    };
    let msgs = MsgProbe {
        batch: (raw_msgs / steps / WORKERS as u64).max(1) as usize,
        combiner,
        message: &message,
    };
    probes::run_all(tr, &inputs, &msgs, &mut rep);
    (rep, outcome)
}

fn kind_tail(kind: Kind) -> usize {
    match kind {
        Kind::PageRank => crate::NOMINAL_JOBS_PAGERANK,
        Kind::Sssp => crate::NOMINAL_JOBS_SSSP,
    }
}

/// The master snapshots a durable master would commit for this job at
/// `WAL_SAMPLES` evenly spaced barriers, re-encoded from its metrics.
fn master_snapshots(m: &JobMetrics) -> Vec<(u8, Vec<u8>)> {
    let n = m.steps.len();
    let samples = WAL_SAMPLES.min(n);
    (1..=samples)
        .map(|s| {
            let k = s * n / samples;
            let state = MasterState {
                superstep: k as u64,
                prev_checkpoint: k.checked_sub(1).map(|p| p as u64),
                last_ckpt_worker_bytes: 0,
                epoch: 0,
                workers: WORKERS as u32,
                cur: m.steps[k - 1].kind.mode(),
                pending_kind: None,
                recoveries_used: 0,
                cum_logical: 0,
                accum_step_secs: 0.0,
                pending_release_secs: 0.0,
                audit_seen: 0,
                switcher: Switcher::new(Mode::BPull, 2, 0.0),
                steps: m.steps[..k].to_vec(),
                switches: m
                    .switches
                    .iter()
                    .filter(|(at, _, _)| *at <= k as u64)
                    .copied()
                    .collect(),
                recovery: RecoveryMetrics::default(),
                mtbf: MtbfEstimator::new(),
                trace: None,
            };
            (2u8, state.encode())
        })
        .collect()
}

//! The master: job orchestration (paper Fig. 1 and Algorithm 3) plus the
//! checkpoint/recovery protocol.
//!
//! [`run_job`] spawns one OS thread per computational node and walks a
//! private `Master` through its phases: `load` (every worker builds its
//! stores), `resume_or_baseline`, then `step` until termination, and
//! finally `collect`. A step broadcasts the command, every worker
//! executes it against the shared network fabric, and the master's
//! collection of one reply per worker is the BSP barrier. The `barrier`
//! phase then aggregates metrics, checks termination (no responders and
//! no pending messages, the program's tolerance, or the superstep
//! budget), evaluates the hybrid switching condition (`evaluate(...)` in
//! Algorithm 3), exports the `Q_t` audit, and checkpoints and commits
//! when the policy says so.
//!
//! # Fault tolerance
//!
//! When [`JobConfig::checkpoint`] is not [`CheckpointPolicy::Never`], the
//! master takes a baseline checkpoint right after loading and further
//! checkpoints at superstep barriers per the policy. Each checkpoint is
//! one classified sequential write per worker (see
//! `hybridgraph_storage::checkpoint`); the master snapshots its own
//! superstep cursor in memory alongside it and, in durable mode (a
//! [`BarrierSink`](crate::config::BarrierSink) is installed), commits a
//! [`MasterState`] write-ahead.
//!
//! A worker failure (injected via [`FaultPlan`](crate::fault::FaultPlan)
//! or genuine) surfaces as a `WorkerMsg::Failed` carrying the dead
//! worker's network [`Endpoint`] back to the master. Mid-superstep the
//! master broadcasts [`Packet::Abort`] over the control plane so
//! surviving workers blocked mid-exchange unwind (they answer `Aborted`
//! and stay alive). Every recovery path is then built from three shared
//! steps:
//!
//! - `respawn` starts a replacement thread on the dead worker's *same*
//!   VFS and endpoint. Load-phase retry, confined recovery and global
//!   rollback all use it.
//! - `await_acks` collects exactly one reply from each addressed worker.
//!   It asserts the reply's variant and that no worker answers twice or
//!   out of turn; a death ends the wait as [`JobError::WorkerFailed`].
//! - `rollback_to(cut, workers)` resets the addressed endpoints to the
//!   current fabric epoch and restores the checkpoint taken at `cut`.
//!   Global rollback, durable resume and the respawned worker's side of
//!   confined recovery all use it.
//!
//! The master's own state is split in two, and each path rewinds a
//! different part on purpose. The *cursor* is the switcher, current
//! mode, pending transition step, completed superstep metrics and
//! switches, the adaptive-checkpoint accumulator and the count of audit
//! records already traced. The *ledger* is the recovery metrics, the
//! recoveries used, the MTBF evidence, the fabric epoch and the
//! cumulative logical bytes.
//!
//! - Global rollback rewinds the cursor to the snapshot taken at the cut
//!   and keeps the ledger.
//! - Durable resume restores both from the committed [`MasterState`].
//! - Confined recovery keeps the cursor and re-runs the failed superstep
//!   under the same step kind.
//!
//! Without a usable checkpoint (policy `Never`, a lost endpoint, or an
//! exhausted [`JobConfig::max_recoveries`] budget) the job returns
//! [`JobError::WorkerFailed`] instead of panicking.
//!
//! A panic in user code (a vertex program's `init` or `update`) is
//! caught on the worker's thread and reported as a failure without an
//! endpoint, so it is never recoverable: the job returns
//! [`JobError::WorkerFailed`] with the error `panic: <message>` instead
//! of leaving the master waiting on a dead thread.
//!
//! # Confined recovery
//!
//! With [`JobConfig::message_logging`] on, every worker additionally
//! writes its superstep's outgoing remote packets as one log segment
//! (one classified sequential write), and a single failure at superstep
//! `t` recovers Pregel-style *confined*: only the dead worker rolls back
//! to the checkpoint `ck` and re-executes `ck+1..t-1` with its inputs
//! re-served from the survivors' logs, while the survivors merely revert
//! superstep `t` in memory (pre-images captured when the step started)
//! — they never reload a checkpoint. Each recovery bumps a fabric
//! *epoch*; endpoints reset to it so in-flight ARQ frames from before
//! the failure can never leak into the re-execution. When the
//! preconditions fail — logging off, several simultaneous deaths,
//! missing/truncated log segments, or a mode whose receive state is not
//! undoable (`pull`'s LRU cache, `pushM`'s order-sensitive online
//! combining) — the master falls back to the global rollback above.

use crate::blockexec::BlockClassification;
use crate::config::{CheckpointPolicy, JobConfig, Mode};
use crate::fault::{FaultPhase, MasterKillPoint};
use crate::metrics::{
    FailureEvent, JobMetrics, LoadReport, NetOverhead, RecoveryMetrics, StepKind, StepReport,
    SuperstepMetrics,
};
use crate::modes::bpull::run_bpull_step;
use crate::modes::hybrid_async::run_async_step;
use crate::modes::pull::run_pull_step;
use crate::modes::push::run_push_step;
use crate::program::VertexProgram;
use crate::snapshot::{adaptive_spacing_secs, MasterState, MtbfEstimator};
use crate::switch::{self, b_lower_bound, q_metric, AsyncCostInputs, CostInputs, Switcher};
use crate::worker::{Worker, WorkerLoadReport, WorkerSeed};
use hybridgraph_graph::{partition::vblock_counts, BlockLayout, Graph, Partition, WorkerId};
use hybridgraph_net::fabric::{ControlPlane, Endpoint, Fabric, NetSnapshot, NetStats};
use hybridgraph_net::packet::Packet;
use hybridgraph_obs::{secs_to_us, ArgValue, QtTiers};
use hybridgraph_storage::checkpoint::{has_checkpoint, remove_checkpoint};
use hybridgraph_storage::msg_log::{self, MsgLogReader};
use hybridgraph_storage::vfs::{DirVfs, MemVfs, Vfs};
use hybridgraph_storage::{IoSnapshot, Record};
use std::fmt;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::Scope;
use std::time::{Duration, Instant};

/// The outcome of a job: final vertex values plus everything measured.
pub struct JobResult<P: VertexProgram> {
    /// Final value per vertex, indexed by vertex id.
    pub values: Vec<P::Value>,
    /// Per-superstep and loading metrics.
    pub metrics: JobMetrics,
}

impl<P: VertexProgram> fmt::Debug for JobResult<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobResult")
            .field("vertices", &self.values.len())
            .field("supersteps", &self.metrics.supersteps())
            .finish()
    }
}

/// Why a job did not produce a result.
#[derive(Debug)]
pub enum JobError {
    /// A worker failed and the job could not recover: the checkpoint
    /// policy is [`CheckpointPolicy::Never`], no checkpoint exists yet,
    /// the recovery budget is exhausted, or the worker died in a way
    /// that lost its network endpoint.
    WorkerFailed {
        /// Which worker failed.
        worker: usize,
        /// The superstep it failed in (0 = loading).
        superstep: u64,
        /// The underlying error message.
        error: String,
    },
    /// The job exceeded one of its configured budgets
    /// ([`JobConfig::logical_io_budget`] /
    /// [`JobConfig::memory_budget`]) and was terminated at a superstep
    /// barrier. Budget checks read only this job's own metrics, so a
    /// multi-tenant service can enforce per-job limits without any
    /// cross-job accounting.
    BudgetExceeded {
        /// The barrier at which the breach was detected (0 = loading).
        superstep: u64,
        /// Which budget: `"logical_io"` or `"memory"`.
        resource: &'static str,
        /// Observed usage (cumulative logical bytes, or the superstep's
        /// summed memory high-water mark).
        used: u64,
        /// The configured limit.
        budget: u64,
    },
    /// The master was killed by an injected master-kill fault — a
    /// simulated crash of the whole service process at a seeded point
    /// (see [`MasterKillPoint`]). Worker threads shut down cleanly; a
    /// durable service can later resume the job from its last committed
    /// cut via `GraphService::restore`.
    Halted {
        /// The kill point that fired.
        point: MasterKillPoint,
    },
    /// An I/O error outside any worker (e.g. creating the disk roots).
    Io(io::Error),
}

impl JobError {
    /// Stable numeric code for wire protocols: clients match on the code
    /// instead of parsing the display string. Codes are append-only —
    /// never renumber.
    ///
    /// | code | variant          |
    /// |------|------------------|
    /// | 1    | `WorkerFailed`   |
    /// | 2    | `BudgetExceeded` |
    /// | 3    | `Halted`         |
    /// | 4    | `Io`             |
    pub fn code(&self) -> u16 {
        match self {
            JobError::WorkerFailed { .. } => 1,
            JobError::BudgetExceeded { .. } => 2,
            JobError::Halted { .. } => 3,
            JobError::Io(_) => 4,
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::WorkerFailed {
                worker,
                superstep,
                error,
            } => write!(
                f,
                "worker {worker} failed in superstep {superstep} and the job \
                 could not recover: {error}"
            ),
            JobError::BudgetExceeded {
                superstep,
                resource,
                used,
                budget,
            } => write!(
                f,
                "job exceeded its {resource} budget at superstep {superstep}: \
                 used {used} of {budget}"
            ),
            JobError::Halted { point } => {
                write!(f, "master halted by injected kill at {point:?}")
            }
            JobError::Io(e) => write!(f, "job I/O error: {e}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Io(e) => Some(e),
            JobError::WorkerFailed { .. }
            | JobError::BudgetExceeded { .. }
            | JobError::Halted { .. } => None,
        }
    }
}

impl From<io::Error> for JobError {
    fn from(e: io::Error) -> Self {
        JobError::Io(e)
    }
}

#[derive(Clone, Copy)]
enum Cmd {
    Step {
        kind: StepKind,
        superstep: u64,
        /// Master's modeled clock (µs) when the step was issued; workers
        /// lay their phase spans from this base so every track shares one
        /// deterministic timeline.
        base_us: u64,
    },
    /// Write the checkpoint for `superstep`; optionally prune the one at
    /// `prune` afterwards (retention 1). With message logging on, log
    /// segments at or before `superstep` are pruned too — a future
    /// failure replays from this cut, so they can never be needed again.
    Checkpoint {
        superstep: u64,
        prune: Option<u64>,
    },
    /// Reset the endpoint to the fabric `epoch` and restore the
    /// checkpoint taken after `superstep`.
    Rollback {
        superstep: u64,
        epoch: u64,
    },
    /// Confined recovery, survivor side: reset the endpoint to `epoch`
    /// and revert exactly the last captured superstep in memory.
    UndoStep {
        epoch: u64,
    },
    /// Confined recovery, survivor side: re-serve the log segment of
    /// `superstep`, forwarding the entries addressed to worker `target`.
    ReplayServe {
        superstep: u64,
        target: usize,
    },
    /// Confined recovery, respawned-worker side: re-execute `superstep`
    /// with remote sends suppressed (peers already processed the
    /// originals) and inputs arriving from the survivors' logs.
    ReplayStep {
        kind: StepKind,
        superstep: u64,
    },
    Collect,
    Exit,
}

enum WorkerMsg<V> {
    Loaded(usize, Box<WorkerLoadReport>),
    Step(usize, Box<StepReport>),
    /// The worker unwound from an aborted superstep and is awaiting
    /// commands.
    Aborted(usize),
    /// Checkpoint written; payload is the bytes it occupies on disk.
    Checkpointed(usize, u64),
    RolledBack(usize),
    /// Survivor reverted its last captured superstep (confined recovery).
    Undone(usize),
    /// Survivor finished re-serving one log segment.
    Served(usize),
    /// Respawned worker finished re-executing one replayed superstep.
    Replayed(usize),
    Values(usize, u32, Vec<V>),
    /// The worker died. It hands its fabric endpoint back when it can so
    /// the master can respawn a replacement onto the same slot.
    Failed {
        index: usize,
        error: String,
        endpoint: Option<Box<Endpoint>>,
    },
}

/// A worker death as the master receives it: the worker, its error, and
/// the endpoint it handed back, if any.
type Failure = (usize, String, Option<Box<Endpoint>>);

/// The cursor half of the master, captured alongside each checkpoint so
/// a global rollback also rewinds the superstep cursor and the hybrid
/// switching engine.
struct MasterSnapshot {
    switcher: Switcher,
    cur: Mode,
    pending_kind: Option<StepKind>,
    steps_len: usize,
    switches_len: usize,
}

/// A job's fixed inputs: everything a (re)spawned worker is built from.
struct Job<'g, P: VertexProgram> {
    program: Arc<P>,
    graph: &'g Graph,
    reverse: Option<Graph>,
    partition: Arc<Partition>,
    layout: Arc<BlockLayout>,
    classification: Option<Arc<BlockClassification>>,
    /// Each worker's disk. A respawned worker thread reattaches to the
    /// same (simulated or real) disk — that is what makes its checkpoints
    /// reachable after the thread died. A durable service passes its own
    /// disks in (`worker_disks`), which is what makes them reachable
    /// after the *master process* died.
    vfss: Vec<Arc<dyn Vfs>>,
    cfg: JobConfig,
}

impl<'g, P: VertexProgram> Job<'g, P> {
    fn new(program: Arc<P>, graph: &'g Graph, cfg: JobConfig) -> Result<Self, JobError> {
        let t = cfg.workers;
        let combinable = program.combiner().is_some() && cfg.combining;
        let partition = Arc::new(Partition::range(graph.num_vertices(), t));
        let counts = match cfg.vblocks_per_worker {
            Some(k) => vec![k.max(1); t],
            None if cfg.memory_limited() => {
                vblock_counts(graph, &partition, cfg.buffer_messages, combinable)
            }
            None => vec![1; t],
        };
        let layout = Arc::new(BlockLayout::new(&partition, &counts));
        let reverse = matches!(cfg.mode, Mode::Pull).then(|| graph.reverse());
        // Async jobs classify every vertex boundary/interior against the
        // VE-BLOCK layout once, master-side; workers share the read-only
        // view (a respawned worker reattaches to the same classification).
        let classification = matches!(cfg.mode, Mode::Async)
            .then(|| Arc::new(BlockClassification::classify(graph, &layout)));
        let vfss = match &cfg.worker_disks {
            Some(d) => {
                assert_eq!(d.0.len(), t, "worker_disks count must match workers");
                d.0.clone()
            }
            None => (0..t)
                .map(|i| -> io::Result<Arc<dyn Vfs>> {
                    Ok(match &cfg.disk_root {
                        Some(root) => Arc::new(DirVfs::new(root.join(format!("w{i}")))?),
                        None => Arc::new(MemVfs::new()),
                    })
                })
                .collect::<io::Result<_>>()?,
        };
        Ok(Job {
            program,
            graph,
            reverse,
            partition,
            layout,
            classification,
            vfss,
            cfg,
        })
    }
}

/// A reply filter for [`Crew::await_acks`] that takes the
/// `WorkerMsg::$variant` acknowledgement and hands any other reply back.
macro_rules! ack {
    ($variant:ident) => {
        |msg| match msg {
            WorkerMsg::$variant(i, ..) => Ok(i),
            other => Err(other),
        }
    };
}

/// The master's end of the worker threads: one command channel per
/// worker and the reply channel they all share.
struct Crew<'scope, 'env, P: VertexProgram> {
    scope: &'scope Scope<'scope, 'env>,
    job: &'env Job<'env, P>,
    cmd_txs: Vec<Sender<Cmd>>,
    /// Kept for the whole job so late respawns can still clone it.
    rep_tx: Sender<WorkerMsg<P::Value>>,
    rep_rx: Receiver<WorkerMsg<P::Value>>,
}

impl<'scope, 'env, P: VertexProgram> Crew<'scope, 'env, P> {
    fn start(
        scope: &'scope Scope<'scope, 'env>,
        job: &'env Job<'env, P>,
        eps: Vec<Endpoint>,
    ) -> Self {
        let (rep_tx, rep_rx) = channel();
        let mut crew = Crew {
            scope,
            job,
            cmd_txs: Vec::new(),
            rep_tx,
            rep_rx,
        };
        crew.cmd_txs = eps
            .into_iter()
            .enumerate()
            .map(|(i, ep)| crew.spawn(i, ep))
            .collect();
        crew
    }

    /// Starts worker `i` on `ep` and returns its command sender. A panic
    /// in user code is caught on the thread and reported as a death
    /// without an endpoint, which no recovery path can use: the job fails
    /// with [`JobError::WorkerFailed`] instead of waiting on a dead thread.
    fn spawn(&self, i: usize, ep: Endpoint) -> Sender<Cmd> {
        let job = self.job;
        let seed = WorkerSeed {
            id: WorkerId::from(i),
            program: Arc::clone(&job.program),
            graph: job.graph,
            reverse: job.reverse.as_ref(),
            partition: Arc::clone(&job.partition),
            layout: Arc::clone(&job.layout),
            cfg: job.cfg.clone(),
            ep,
            vfs: Arc::clone(&job.vfss[i]),
            classification: job.classification.clone(),
        };
        let (cmd_tx, cmd_rx) = channel();
        let rep_tx = self.rep_tx.clone();
        self.scope.spawn(move || {
            let run = AssertUnwindSafe(|| worker_main(seed, cmd_rx, &rep_tx));
            if let Err(payload) = panic::catch_unwind(run) {
                let msg = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or(payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("non-string payload");
                let error = format!("panic: {msg}");
                let failed = WorkerMsg::Failed {
                    index: i,
                    error,
                    endpoint: None,
                };
                rep_tx.send(failed).ok();
            }
        });
        cmd_tx
    }

    /// Sends `cmd` to every worker `to` selects, then awaits their
    /// replies. A worker that already died has its `Failed` reply queued,
    /// so a send it cannot receive is not an error.
    fn round(
        &self,
        to: impl Fn(usize) -> bool,
        cmd: Cmd,
        superstep: u64,
        phase: &str,
        take: impl FnMut(WorkerMsg<P::Value>) -> Result<usize, WorkerMsg<P::Value>>,
    ) -> Result<(), JobError> {
        for (i, tx) in self.cmd_txs.iter().enumerate() {
            if to(i) {
                tx.send(cmd).ok();
            }
        }
        self.await_acks(to, superstep, phase, take)
    }

    /// Awaits exactly one reply from every worker `from` selects. `take`
    /// consumes an expected reply and returns the worker it came from;
    /// any other reply it hands back ends the wait — a death as
    /// [`JobError::WorkerFailed`] at `superstep`, anything else as a
    /// protocol violation.
    fn await_acks(
        &self,
        from: impl Fn(usize) -> bool,
        superstep: u64,
        phase: &str,
        mut take: impl FnMut(WorkerMsg<P::Value>) -> Result<usize, WorkerMsg<P::Value>>,
    ) -> Result<(), JobError> {
        let mut waiting: Vec<bool> = (0..self.cmd_txs.len()).map(from).collect();
        for _ in 0..waiting.iter().filter(|w| **w).count() {
            match take(self.rep_rx.recv().expect("the crew holds a reply sender")) {
                Ok(i) => {
                    assert!(
                        waiting[i],
                        "duplicate or unexpected {phase} reply from worker {i}"
                    );
                    waiting[i] = false;
                }
                Err(WorkerMsg::Failed { index, error, .. }) => {
                    return Err(JobError::WorkerFailed {
                        worker: index,
                        superstep,
                        error,
                    })
                }
                Err(_) => unreachable!("unexpected message during {phase}"),
            }
        }
        Ok(())
    }
}

/// The master of one job. Its state splits into the superstep *cursor*,
/// which a global rollback rewinds to the last cut, and the recovery
/// *ledger*, which only a durable resume restores (see the module docs).
struct Master<'scope, 'env, P: VertexProgram> {
    job: &'env Job<'env, P>,
    crew: Crew<'scope, 'env, P>,
    control: ControlPlane,
    net_stats: Arc<NetStats>,
    /// Cluster-wide message-buffer capacity (the paper's `B`).
    b_total: u64,
    max_steps: u64,
    // The cursor.
    superstep: u64,
    cur: Mode,
    switcher: Switcher,
    pending_kind: Option<StepKind>,
    steps: Vec<SuperstepMetrics>,
    switches: Vec<(u64, Mode, Mode)>,
    accum_step_secs: f64,
    audit_seen: usize,
    // The ledger.
    recovery: RecoveryMetrics,
    recoveries_used: u64,
    mtbf: MtbfEstimator,
    /// Fabric epoch: bumped on every recovery so ARQ frames still in
    /// flight from before a failure are recognizably stale.
    epoch: u64,
    cum_logical: u64,
    // The last cut: in durable mode the previous cut is kept until the
    // *next* cut's commit lands (retention 2), so the log never points
    // at pruned worker files no matter where a crash falls.
    last_checkpoint: Option<u64>,
    prev_checkpoint: Option<u64>,
    last_ckpt_worker_bytes: u64,
    snapshot: Option<MasterSnapshot>,
    // Bases of the per-barrier network and fault-counter deltas.
    net_base: NetSnapshot,
    faults_base: (u64, u64, u64),
}

impl<'scope, 'env, P: VertexProgram> Master<'scope, 'env, P> {
    fn new(job: &'env Job<'env, P>, scope: &'scope Scope<'scope, 'env>) -> Self {
        let cfg = &job.cfg;
        let t = cfg.workers;
        let (endpoints, net_stats, control) = Fabric::mesh_with_control(t);
        // A seeded network-fault schedule attached to the fault plan makes
        // every endpoint's wire unreliable; the ARQ layer absorbs it.
        if let Some(np) = cfg.fault_plan.as_ref().and_then(|p| p.net_plan()) {
            for ep in &endpoints {
                ep.install_faults(Arc::clone(np));
            }
        }
        // Cooperative pacing: under a multi-job scheduler the master holds
        // a grant for each unit of work (load, one superstep, collect) so
        // the cross-job interleaving replays deterministically. Unpaced
        // jobs skip every hook. This grant covers the load phase: workers
        // load as soon as they are spawned.
        if let Some(p) = &cfg.pacer {
            p.acquire();
        }
        let crew = Crew::start(scope, job, endpoints);
        Master {
            job,
            crew,
            control,
            net_base: net_stats.snapshot(),
            net_stats,
            b_total: if cfg.memory_limited() {
                (cfg.buffer_messages as u64).saturating_mul(t as u64)
            } else {
                u64::MAX / 2
            },
            max_steps: job
                .program
                .max_supersteps()
                .unwrap_or(u64::MAX)
                .min(cfg.max_supersteps),
            superstep: 0,
            // The load phase picks the initial mode.
            cur: cfg.mode,
            switcher: Switcher::new(Mode::Push, cfg.switch_interval, cfg.switch_threshold),
            pending_kind: None,
            steps: Vec::new(),
            switches: Vec::new(),
            accum_step_secs: 0.0,
            audit_seen: 0,
            recovery: RecoveryMetrics::default(),
            recoveries_used: 0,
            mtbf: MtbfEstimator::new(),
            epoch: 0,
            cum_logical: 0,
            last_checkpoint: None,
            prev_checkpoint: None,
            last_ckpt_worker_bytes: 0,
            snapshot: None,
            faults_base: (0, 0, 0),
        }
    }

    /// The job's configuration, borrowed for the job's lifetime rather
    /// than the master's.
    fn cfg(&self) -> &'env JobConfig {
        &self.job.cfg
    }

    fn acquire(&self) {
        if let Some(p) = &self.cfg().pacer {
            p.acquire();
        }
    }

    fn release(&self, secs: f64) {
        if let Some(p) = &self.cfg().pacer {
            p.release(secs);
        }
    }

    /// Seeded master-kill hook: each point fires at most once (also
    /// across checks), simulating the service process dying there.
    fn killed(&self, point: MasterKillPoint) -> Result<(), JobError> {
        match &self.cfg().fault_plan {
            Some(p) if p.master_kill_at(point) => Err(JobError::Halted { point }),
            _ => Ok(()),
        }
    }

    /// Enters one worker death into the ledger.
    fn note_failure(&mut self, worker: usize, error: &str) {
        self.recovery.failures.push(FailureEvent {
            superstep: self.superstep,
            worker,
            error: error.to_owned(),
        });
        self.mtbf.observe();
    }

    /// Replaces a dead worker with a fresh thread on its own endpoint and
    /// VFS. The failure is fatal instead when the job cannot recover: no
    /// checkpointing, an exhausted recovery budget, or an endpoint that
    /// went down with the worker.
    fn respawn(&mut self, (i, error, endpoint): Failure) -> Result<(), JobError> {
        let cfg = self.cfg();
        match endpoint {
            Some(ep)
                if cfg.checkpoint != CheckpointPolicy::Never
                    && self.recoveries_used < cfg.max_recoveries =>
            {
                self.recoveries_used += 1;
                self.crew.cmd_txs[i] = self.crew.spawn(i, *ep);
                Ok(())
            }
            _ => Err(JobError::WorkerFailed {
                worker: i,
                superstep: self.superstep,
                error,
            }),
        }
    }

    /// Respawns every dead worker and waits until each has reloaded.
    fn respawn_all(&mut self, failures: Vec<Failure>) -> Result<(), JobError> {
        let dead: Vec<usize> = failures.iter().map(|f| f.0).collect();
        for f in failures {
            self.respawn(f)?;
        }
        let from = |i| dead.contains(&i);
        self.crew
            .await_acks(from, self.superstep, "respawn", ack!(Loaded))
    }

    /// Rolls the workers `to` selects back to the checkpoint taken at
    /// `cut`, resetting their endpoints to the current fabric epoch. The
    /// master's own rewind stays with the caller: the cursor only (global
    /// rollback), cursor and ledger (durable resume), or nothing
    /// (confined recovery).
    fn rollback_to(&mut self, cut: u64, to: impl Fn(usize) -> bool) -> Result<(), JobError> {
        let cmd = Cmd::Rollback {
            superstep: cut,
            epoch: self.epoch,
        };
        self.crew
            .round(to, cmd, self.superstep, "rollback", ack!(RolledBack))
    }

    /// Load phase: waits until every worker has built its stores, then
    /// picks the initial mode. Workers do not exchange packets while
    /// loading, so a load-phase failure needs no abort or rollback:
    /// respawn and reload.
    fn load(&mut self) -> Result<(LoadReport, f64), JobError> {
        let (cfg, graph) = (self.cfg(), self.job.graph);
        let mut reports = vec![WorkerLoadReport::default(); cfg.workers];
        let mut pending: Vec<usize> = (0..cfg.workers).collect();
        while !pending.is_empty() {
            let mut failed: Vec<Failure> = Vec::new();
            let from = |i| pending.contains(&i);
            self.crew.await_acks(from, 0, "load", |msg| match msg {
                WorkerMsg::Loaded(i, r) => {
                    reports[i] = *r;
                    Ok(i)
                }
                WorkerMsg::Failed {
                    index,
                    error,
                    endpoint,
                } => {
                    failed.push((index, error, endpoint));
                    Ok(index)
                }
                other => Err(other),
            })?;
            pending = failed.iter().map(|f| f.0).collect();
            for f in failed {
                self.note_failure(f.0, &f.1);
                self.respawn(f)?;
            }
        }
        // Simulated master crash while loading: the job dies before any
        // durable cut exists, so a restore re-runs it from scratch.
        self.killed(MasterKillPoint::Load)?;
        if let Some(s) = &cfg.trace {
            assert_eq!(
                s.num_workers(),
                cfg.workers,
                "TraceSink was built for a different worker count"
            );
        }
        self.faults_base = faults_fired(cfg).unwrap_or_default();

        let fragments: u64 = reports.iter().map(|r| r.fragments).sum();
        // Theorem 2 decides hybrid's initial mode from the message-buffer
        // capacity. With sufficient memory no message ever spills and the
        // sign of Q_t is dominated by b-pull's communication gain (§6.1:
        // "hybrid thereby runs b-pull"), so b-pull starts.
        let theorem2_mode = if cfg.memory_limited() {
            switch::initial_mode(self.b_total, graph.num_edges() as u64, fragments)
        } else {
            Mode::BPull
        };
        let initial = match cfg.mode {
            Mode::Hybrid => cfg.initial_mode_override.unwrap_or(theorem2_mode),
            m => m,
        };
        self.cur = initial;
        self.switcher = Switcher::new(
            if matches!(initial, Mode::Push | Mode::BPull | Mode::Async) {
                initial
            } else {
                Mode::Push
            },
            cfg.switch_interval,
            cfg.switch_threshold,
        );
        let classification = self.job.classification.as_ref();
        let load = LoadReport {
            wall_secs: reports.iter().map(|r| r.wall_secs).fold(0.0, f64::max),
            io: reports
                .iter()
                .fold(IoSnapshot::default(), |acc, r| acc.plus(&r.io)),
            fragments,
            b_lower_bound: b_lower_bound(graph.num_edges() as u64, fragments),
            num_vblocks: self.job.layout.num_blocks(),
            initial_mode: initial,
            num_vertices: graph.num_vertices() as u64,
            boundary_vertices: classification.map_or(0, |c| c.boundary_total),
            interior_vertices: classification.map_or(0, |c| c.interior_total),
        };
        self.cum_logical = load.io.total_logical_bytes();
        // Modeled load time: the slowest worker's classified I/O.
        let modeled_secs = reports
            .iter()
            .map(|r| r.io.modeled_secs(&cfg.profile))
            .fold(0.0, f64::max);
        Ok((load, modeled_secs))
    }

    /// Resumes a durable job from its committed cut, or starts a fresh
    /// one: load span, baseline checkpoint, load grant released.
    fn resume_or_baseline(&mut self, load: &LoadReport, load_secs: f64) -> Result<(), JobError> {
        let cfg = self.cfg();
        match &cfg.resume {
            Some(state) => self.resume(&state.0)?,
            None => {
                if let Some(s) = &cfg.trace {
                    s.master().span(
                        "load",
                        secs_to_us(load_secs),
                        vec![
                            ("fragments", load.fragments.into()),
                            ("vblocks", (load.num_vblocks as u64).into()),
                            ("b_lower_bound", load.b_lower_bound.into()),
                            ("initial_mode", load.initial_mode.label().into()),
                        ],
                    );
                }
                // Baseline checkpoint: any policy but `Never` takes one
                // right after loading so even a superstep-1 failure has a
                // cut to roll back to. The load grant is still held at
                // this cut; a resumed incarnation owes its release.
                if cfg.checkpoint != CheckpointPolicy::Never {
                    self.cut(load_secs)?;
                }
                self.release(load_secs);
                if let Some(ps) = &cfg.progress {
                    ps.loaded(load_secs);
                }
                self.check_budgets(0)?;
            }
        }
        self.net_base = self.net_stats.snapshot();
        Ok(())
    }

    /// Durable restart. The state is the `MasterState` a previous
    /// incarnation of this job committed through its barrier sink before
    /// the master process died. The workers reloaded from scratch —
    /// byte-identically to the original load (fresh per-job stats, same
    /// shared stores) — and are rolled onto the committed checkpoint
    /// while the master restores cursor *and* ledger to the same cut. No
    /// load span is emitted and no recovery metric moves: this is a
    /// process restart, not an in-job failure.
    fn resume(&mut self, state: &[u8]) -> Result<(), JobError> {
        let (workers, audit_seen, pending_release_secs, trace);
        MasterState {
            superstep: self.superstep,
            prev_checkpoint: self.prev_checkpoint,
            last_ckpt_worker_bytes: self.last_ckpt_worker_bytes,
            epoch: self.epoch,
            workers,
            cur: self.cur,
            pending_kind: self.pending_kind,
            recoveries_used: self.recoveries_used,
            cum_logical: self.cum_logical,
            accum_step_secs: self.accum_step_secs,
            pending_release_secs,
            audit_seen,
            switcher: self.switcher,
            steps: self.steps,
            switches: self.switches,
            recovery: self.recovery,
            mtbf: self.mtbf,
            trace,
        } = MasterState::decode(state)?;
        assert_eq!(
            workers as usize,
            self.cfg().workers,
            "resume state was captured for a different worker count"
        );
        self.audit_seen = audit_seen as usize;
        self.last_checkpoint = Some(self.superstep);
        // Replace the trace rings wholesale with the committed contents:
        // erases the re-load's duplicate events and restores every
        // track's clock to the cut.
        if let Some(s) = &self.cfg().trace {
            s.restore_states(
                trace
                    .as_ref()
                    .expect("traced job resumed from an untraced state"),
            );
        }
        // The master kill that necessitated this resume is one observed
        // failure for the fault-aware spacing.
        self.mtbf.observe();
        self.snapshot = Some(self.snapshot_cursor());
        self.rollback_to(self.superstep, |_| true)?;
        self.release(pending_release_secs);
        Ok(())
    }

    fn snapshot_cursor(&self) -> MasterSnapshot {
        MasterSnapshot {
            switcher: self.switcher.clone(),
            cur: self.cur,
            pending_kind: self.pending_kind,
            steps_len: self.steps.len(),
            switches_len: self.switches.len(),
        }
    }

    /// Runs the next superstep. Returns `Ok(false)` once the superstep
    /// budget is spent or the job has converged.
    fn step(&mut self) -> Result<bool, JobError> {
        if self.superstep >= self.max_steps {
            return Ok(false);
        }
        let cfg = self.cfg();
        self.superstep += 1;
        let superstep = self.superstep;
        self.acquire();
        let kind = match cfg.mode {
            Mode::Push => StepKind::Push,
            Mode::PushM => StepKind::PushM,
            Mode::Pull => StepKind::Pull,
            Mode::BPull => StepKind::BPull,
            Mode::Hybrid | Mode::Async => self.pending_kind.take().unwrap_or(match self.cur {
                Mode::Push => StepKind::Push,
                Mode::BPull => StepKind::BPull,
                Mode::Async => StepKind::Async,
                _ => unreachable!("hybrid and async alternate push, b-pull and async"),
            }),
        };
        let t_step = Instant::now();
        let base_us = cfg.trace.as_ref().map_or(0, |s| s.master().clock_us());
        let cmd = Cmd::Step {
            kind,
            superstep,
            base_us,
        };
        // Exactly one terminal reply per worker. On the first failure,
        // broadcast an abort so peers blocked on the dead worker's
        // packets unwind instead of deadlocking.
        let mut reports = vec![StepReport::default(); cfg.workers];
        let mut failures: Vec<Failure> = Vec::new();
        let control = &self.control;
        let take = |msg| match msg {
            WorkerMsg::Step(i, r) => {
                reports[i] = *r;
                Ok(i)
            }
            WorkerMsg::Aborted(i) => Ok(i),
            WorkerMsg::Failed {
                index,
                error,
                endpoint,
            } => {
                if failures.is_empty() {
                    control.broadcast(Packet::Abort);
                }
                failures.push((index, error, endpoint));
                Ok(index)
            }
            other => Err(other),
        };
        self.crew
            .round(|_| true, cmd, superstep, "superstep", take)?;
        if failures.is_empty() {
            self.barrier(kind, &reports, t_step.elapsed().as_secs_f64())
        } else {
            self.recover(kind, failures)?;
            Ok(true)
        }
    }

    /// Recovers from the workers that died in the current superstep:
    /// confined when a single death allows it, a global rollback
    /// otherwise.
    fn recover(&mut self, kind: StepKind, failures: Vec<Failure>) -> Result<(), JobError> {
        let cfg = self.cfg();
        let superstep = self.superstep;
        for (i, error, _) in &failures {
            self.note_failure(*i, error);
        }
        let ck = match self.last_checkpoint {
            Some(ck) if cfg.checkpoint != CheckpointPolicy::Never => ck,
            _ => {
                let (worker, error, _) = failures.into_iter().next().unwrap();
                return Err(JobError::WorkerFailed {
                    worker,
                    superstep,
                    error,
                });
            }
        };
        self.epoch += 1;
        // Confined recovery (Pregel-style): a *single* death with message
        // logging on, a known step kind for every replayed superstep, a
        // mode whose receive-side state is undoable, and a readable log
        // segment at every survivor for every superstep the dead worker
        // replays (a missing or truncated one fails validation). Anything
        // else falls back to global rollback.
        let (dead, _, endpoint) = &failures[0];
        let replayed = || (ck + 1)..superstep;
        let confined = cfg.message_logging
            && failures.len() == 1
            && !matches!(cfg.mode, Mode::Pull | Mode::PushM | Mode::Async)
            && endpoint.is_some()
            && self.recoveries_used < cfg.max_recoveries
            && replayed().all(|s| self.steps.iter().any(|m| m.superstep == s))
            && self.job.vfss.iter().enumerate().all(|(i, vfs)| {
                i == *dead || replayed().all(|s| MsgLogReader::open(vfs.as_ref(), s).is_ok())
            });
        if confined {
            self.recover_confined(kind, ck, failures)
        } else {
            self.rollback_global(ck, failures)
        }
    }

    /// Confined recovery: only the dead worker rolls back to `ck` and
    /// replays `ck+1..t-1` from the survivors' logs, the survivors revert
    /// superstep `t` in memory, and the master keeps its cursor.
    fn recover_confined(
        &mut self,
        kind: StepKind,
        ck: u64,
        failures: Vec<Failure>,
    ) -> Result<(), JobError> {
        let (superstep, epoch) = (self.superstep, self.epoch);
        let dead = failures[0].0;
        let survivor = |i: usize| i != dead;
        self.respawn_all(failures)?;
        // Only the respawned worker reloads the checkpoint.
        self.rollback_to(ck, |i| i == dead)?;
        // Survivors revert exactly the failed superstep from their
        // in-memory pre-images — no checkpoint I/O.
        let undo = Cmd::UndoStep { epoch };
        self.crew
            .round(survivor, undo, superstep, "undo", ack!(Undone))?;
        // Replay ck+1..t-1 on the respawned worker: survivors re-serve
        // their logged packets (never re-executing), the dead worker
        // re-computes with sends suppressed.
        for s in (ck + 1)..superstep {
            let kind = self
                .steps
                .iter()
                .find(|m| m.superstep == s)
                .expect("validated before recovering")
                .kind;
            let serve = Cmd::ReplayServe {
                superstep: s,
                target: dead,
            };
            self.crew
                .round(survivor, serve, superstep, "replay", ack!(Served))?;
            let replay = Cmd::ReplayStep { kind, superstep: s };
            let respawned = |i| i == dead;
            self.crew
                .round(respawned, replay, superstep, "replay", ack!(Replayed))?;
        }
        // The master keeps its cursor: completed supersteps stay
        // aggregated, the switcher is untouched, and the failed superstep
        // re-runs under the same kind.
        if self.cfg().mode == Mode::Hybrid {
            self.pending_kind = Some(kind);
        }
        let replayed = (superstep - 1).saturating_sub(ck);
        let rec = &mut self.recovery;
        rec.confined_recoveries += 1;
        rec.checkpoint_restores += 1;
        rec.replayed_supersteps += replayed;
        rec.recomputed_supersteps += 1;
        self.recovered(
            "recovery.confined",
            vec![
                ("failed_superstep", superstep.into()),
                ("worker", (dead as u64).into()),
                ("checkpoint", ck.into()),
                ("replayed", replayed.into()),
            ],
        );
        self.superstep -= 1;
        Ok(())
    }

    /// Global rollback: respawns every dead worker, rolls all workers back
    /// to `ck`, and rewinds the master's cursor — never its ledger — to
    /// the snapshot taken there.
    fn rollback_global(&mut self, ck: u64, failures: Vec<Failure>) -> Result<(), JobError> {
        let superstep = self.superstep;
        let t = self.cfg().workers as u64;
        self.respawn_all(failures)?;
        // Roll every worker (survivors and respawns alike) back to the
        // cut. The rollback handler resets the endpoint to the new epoch —
        // clearing stale packets (including the abort we broadcast) *and*
        // un-acked ARQ frames that would otherwise retransmit into the
        // re-execution.
        self.rollback_to(ck, |_| true)?;
        let snap = self
            .snapshot
            .as_ref()
            .expect("a checkpoint always has a master snapshot");
        self.switcher = snap.switcher.clone();
        self.cur = snap.cur;
        self.pending_kind = snap.pending_kind;
        self.steps.truncate(snap.steps_len);
        self.switches.truncate(snap.switches_len);
        self.accum_step_secs = 0.0;
        // Audit records past the cut will be regenerated (and re-emitted)
        // as the supersteps re-execute.
        self.audit_seen = self.audit_seen.min(self.switcher.audit().len());
        self.recovery.rollbacks += 1;
        self.recovery.checkpoint_restores += t;
        self.recovery.recomputed_supersteps += superstep - ck;
        self.recovered(
            "recovery.rollback",
            vec![
                ("failed_superstep", superstep.into()),
                ("checkpoint", ck.into()),
                ("restores", t.into()),
            ],
        );
        self.superstep = ck;
        Ok(())
    }

    /// The common tail of an in-job recovery: re-bases the barrier deltas
    /// on the post-recovery counters, marks the recovery on the master
    /// track, and hands back the superstep's grant.
    fn recovered(&mut self, name: &'static str, args: Vec<(&'static str, ArgValue)>) {
        self.net_base = self.net_stats.snapshot();
        self.faults_base = faults_fired(self.cfg()).unwrap_or(self.faults_base);
        if let Some(s) = &self.cfg().trace {
            s.master().instant(name, args);
        }
        self.release(0.0);
    }

    /// The barrier after a clean superstep (the master's side of
    /// Algorithm 3): aggregate the reports, enforce the budgets, check
    /// termination, evaluate the switch, trace the audit, checkpoint.
    /// Returns `Ok(false)` once the job has converged.
    fn barrier(
        &mut self,
        kind: StepKind,
        reports: &[StepReport],
        wall: f64,
    ) -> Result<bool, JobError> {
        let (job, cfg, superstep) = (self.job, self.cfg(), self.superstep);
        let net_now = self.net_stats.snapshot();
        let net_delta = net_now.delta(&self.net_base);
        self.net_base = net_now;
        self.recovery.msg_log_bytes += reports.iter().map(|r| r.msg_log_bytes).sum::<u64>();
        let ctx = AggCtx {
            cfg,
            b_total: self.b_total,
            msg_bytes: 4 + P::Message::BYTES as u64,
            combinable: job.program.combiner().is_some() && cfg.combining,
        };
        let (metrics, q_inputs) = aggregate(
            superstep,
            kind,
            reports,
            &net_delta,
            &ctx,
            &mut self.switcher,
            wall,
        );
        // The async extension term's inputs: the duplicated-compute side
        // is exactly what the pseudo-rounds did beyond the first sweep,
        // the savings side is what a strict replacement superstep would
        // have streamed.
        let asy_inputs = AsyncCostInputs {
            extra_rounds: metrics.asy.pseudo_rounds.saturating_sub(1),
            value_io_bytes: metrics.sem.value_update_bytes,
            interior_msg_bytes: metrics.asy.interior_msg_bytes,
            dup_updates: metrics.asy.interior_updates,
            dup_messages: metrics.asy.interior_messages,
            cpu_us_per_vertex: cfg.cpu_us_per_vertex,
            cpu_us_per_message: cfg.cpu_us_per_message,
        };
        // Physical/logical ratio of this superstep's classified I/O,
        // recorded alongside every Q_t audit entry (1.0 with no codec).
        let io_ratio = ratio(metrics.io.total_bytes(), metrics.io.total_logical_bytes());
        self.trace_step(kind, &metrics);
        let step_secs = metrics.modeled_secs;
        let (step_logical, step_memory) = (metrics.io.total_logical_bytes(), metrics.memory_bytes);
        // Tolerance-based termination: once the largest per-vertex
        // residual of a superstep falls to `eps`, further supersteps
        // cannot move the result past the program's own tolerance.
        // Guarded past superstep 1 so an initially-quiet frontier does not
        // end the job before any message flowed.
        let done = (metrics.pending_messages == 0 && metrics.responders == 0)
            || job
                .program
                .tolerance()
                .is_some_and(|eps| superstep >= 2 && metrics.max_residual <= eps);
        self.steps.push(metrics);
        self.mtbf.advance(step_secs);
        self.release(step_secs);
        if let Some(ps) = &cfg.progress {
            ps.superstep(superstep, kind.mode(), step_secs);
        }
        self.cum_logical += step_logical;
        self.check_budgets(step_memory)?;
        if done {
            return Ok(false);
        }
        if matches!(cfg.mode, Mode::Hybrid | Mode::Async) && superstep + 1 < self.max_steps {
            self.switch(&q_inputs, &asy_inputs, step_secs, io_ratio);
        }
        self.trace_audits();
        self.maybe_cut(step_secs)?;
        Ok(true)
    }

    /// Per-job budget enforcement: cumulative logical bytes (the
    /// device-independent measure, so codecs don't mask overuse) and the
    /// superstep's summed memory high-water mark.
    fn check_budgets(&self, step_memory: u64) -> Result<(), JobError> {
        let over = |resource, used, budget: Option<u64>| match budget {
            Some(budget) if used > budget => Err(JobError::BudgetExceeded {
                superstep: self.superstep,
                resource,
                used,
                budget,
            }),
            _ => Ok(()),
        };
        over("logical_io", self.cum_logical, self.cfg().logical_io_budget)?;
        over("memory", step_memory, self.cfg().memory_budget)
    }

    /// Marks the superstep on the trace. The sink is purely additive: it
    /// reads counters the cost model maintains anyway, so tracing on/off
    /// changes no byte count and no Q_t decision. Timestamps are *modeled*
    /// time (DeviceProfile seconds → µs), which makes two same-seed runs
    /// emit byte-identical traces regardless of wall-clock jitter.
    fn trace_step(&mut self, kind: StepKind, metrics: &SuperstepMetrics) {
        let superstep = self.superstep;
        let faults = faults_fired(self.cfg()).map(|now| {
            let base = std::mem::replace(&mut self.faults_base, now);
            (now.0 - base.0, now.1 - base.1, now.2 - base.2)
        });
        let Some(s) = &self.cfg().trace else {
            return;
        };
        let m = s.master();
        let dur = secs_to_us(metrics.modeled_secs);
        let end_us = m.clock_us() + dur;
        m.span(
            kind.label(),
            dur,
            vec![
                ("superstep", superstep.into()),
                ("q_metric", metrics.q_metric.into()),
                ("updated", metrics.updated.into()),
                ("messages", metrics.messages_produced.into()),
                ("io_bytes", metrics.io.total_bytes().into()),
            ],
        );
        m.instant("barrier", vec![("superstep", superstep.into())]);
        let nsh = s.net();
        nsh.counter_at(
            end_us,
            "net.bytes",
            vec![
                ("remote", metrics.net_out_bytes.into()),
                ("local", metrics.net_local_bytes.into()),
            ],
        );
        if let Some((drops, duplicates, delays)) = faults.filter(|d| d.0 + d.1 + d.2 > 0) {
            nsh.instant_at(
                end_us,
                "arq.faults",
                vec![
                    ("superstep", superstep.into()),
                    ("drops", drops.into()),
                    ("duplicates", duplicates.into()),
                    ("delays", delays.into()),
                ],
            );
        }
    }

    /// Evaluates the switching condition (`evaluate(...)` in Algorithm 3)
    /// and, on a switch, schedules the transition step.
    fn switch(&mut self, q: &CostInputs, asy: &AsyncCostInputs, step_secs: f64, io_ratio: f64) {
        let (cfg, superstep) = (self.cfg(), self.superstep);
        let decision = if cfg.mode == Mode::Async {
            self.switcher
                .decide_async(superstep, &cfg.profile, q, asy, step_secs, io_ratio)
        } else {
            self.switcher
                .decide(superstep, &cfg.profile, q, step_secs, io_ratio)
        };
        // Break the I/O ratio out by access class for jobs running with a
        // codec: the audit then shows *which* I/O tier the codec
        // compressed (adjacency extents are sequential reads; value point
        // reads stay 1.0).
        if !cfg.codec.is_none() {
            let io = &self.steps.last().expect("step just pushed").io;
            self.switcher.annotate_tiers(QtTiers {
                seq_read: ratio(io.seq_read_bytes, io.seq_read_logical_bytes),
                seq_write: ratio(io.seq_write_bytes, io.seq_write_logical_bytes),
                rand_read: ratio(io.rand_read_bytes, io.rand_read_logical_bytes),
                rand_write: ratio(io.rand_write_bytes, io.rand_write_logical_bytes),
            });
        }
        let Some(to) = decision else {
            return;
        };
        let from = self.cur;
        // The transition step that reconciles the two legs' message state.
        // push→async needs none: push already delivered to every
        // destination, async's next sweep just drains the inbox.
        self.pending_kind = match (from, to) {
            (Mode::BPull, Mode::Push | Mode::Async) => Some(StepKind::BPullThenPush),
            (Mode::Push | Mode::Async, Mode::BPull) => Some(StepKind::PushNoSend),
            (Mode::Async, Mode::Push) => Some(StepKind::AsyncThenPush),
            (Mode::Push, Mode::Async) => None,
            _ => unreachable!("switcher only moves between push, b-pull and async"),
        };
        self.cur = to;
        self.switches.push((superstep + 1, from, to));
        if let Some(s) = &cfg.trace {
            s.control().instant_at(
                s.master().clock_us(),
                "switch",
                vec![
                    ("at_superstep", (superstep + 1).into()),
                    ("from", from.label().into()),
                    ("to", to.label().into()),
                ],
            );
        }
    }

    /// Every Switcher evaluation (including holds and too-early refusals)
    /// lands on the control track as one audit instant.
    fn trace_audits(&mut self) {
        let Some(s) = &self.cfg().trace else {
            return;
        };
        let audits = self.switcher.audit();
        if self.audit_seen < audits.len() {
            let ts = s.master().clock_us();
            let c = s.control();
            for a in &audits[self.audit_seen..] {
                c.instant_at(
                    ts,
                    "qt",
                    vec![
                        ("superstep", a.superstep.into()),
                        ("q", a.q.into()),
                        ("verdict", a.verdict.label().into()),
                        ("mode_before", a.mode_before.into()),
                        ("mode_after", a.mode_after.into()),
                    ],
                );
            }
            self.audit_seen = audits.len();
        }
    }

    /// Checkpoint decision at the barrier. `EveryK` is the classic fixed
    /// interval; `Adaptive` is a Young-style rule driven by the
    /// deterministic cost model: checkpoint once the modeled compute time
    /// since the last cut outweighs `factor` times the modeled cost of
    /// writing one.
    fn maybe_cut(&mut self, step_secs: f64) -> Result<(), JobError> {
        let cfg = self.cfg();
        let take = match cfg.checkpoint {
            CheckpointPolicy::Never => false,
            CheckpointPolicy::EveryK(k) => self.superstep.is_multiple_of(k.max(1)),
            CheckpointPolicy::Adaptive => {
                self.accum_step_secs += step_secs;
                let write_secs = cfg
                    .profile
                    .seq_write_secs(self.last_ckpt_worker_bytes.max(1));
                // Fault-aware (opt-in): observed kill rates tighten the
                // spacing via Young's approximation; without evidence or
                // with the flag off this is exactly the plain
                // `factor × write_secs` rule.
                self.accum_step_secs
                    >= adaptive_spacing_secs(
                        cfg.adaptive_checkpoint_factor,
                        write_secs,
                        self.mtbf.mtbf(),
                        cfg.fault_aware_checkpoint,
                    )
            }
        };
        if take {
            return self.cut(0.0);
        }
        // Barriers without a checkpoint can still be kill points: the
        // restarted job then resumes from the last committed cut further
        // back.
        self.killed(MasterKillPoint::MidBarrier(self.superstep))?;
        self.killed(MasterKillPoint::BetweenGrants(self.superstep))
    }

    /// Checkpoints the current superstep: every worker writes its file,
    /// the master snapshots its cursor, and a durable master commits its
    /// state. `pending_release_secs` is the pacer time the master still
    /// owes at this cut (the load grant at the baseline, 0 after a step).
    fn cut(&mut self, pending_release_secs: f64) -> Result<(), JobError> {
        let (job, cfg, superstep) = (self.job, self.cfg(), self.superstep);
        // Durable mode prunes with retention 2: the cut *before* the
        // previous one goes, because the previous cut must stay on disk
        // until this cut's WAL record commits — a crash between the
        // worker files and the commit resumes from the previous cut.
        let prune = match cfg.barrier_sink {
            Some(_) => self.prev_checkpoint,
            None => self.last_checkpoint,
        };
        let before: Vec<IoSnapshot> = job.vfss.iter().map(|v| v.stats().snapshot()).collect();
        let mut max_bytes = 0u64;
        let recovery = &mut self.recovery;
        let cmd = Cmd::Checkpoint { superstep, prune };
        let take = |msg| match msg {
            WorkerMsg::Checkpointed(i, bytes) => {
                recovery.checkpoint_bytes += bytes;
                max_bytes = max_bytes.max(bytes);
                Ok(i)
            }
            other => Err(other),
        };
        self.crew
            .round(|_| true, cmd, superstep, "checkpoint", take)?;
        for (vfs, base) in job.vfss.iter().zip(&before) {
            let delta = vfs.stats().snapshot().delta(base);
            recovery.checkpoint_io = recovery.checkpoint_io.plus(&delta);
        }
        recovery.checkpoints_taken += 1;
        self.last_ckpt_worker_bytes = max_bytes;
        if let Some(s) = &cfg.trace {
            s.master().span(
                "checkpoint",
                secs_to_us(cfg.profile.seq_write_secs(max_bytes)),
                vec![
                    ("superstep", superstep.into()),
                    ("max_worker_bytes", max_bytes.into()),
                ],
            );
        }
        self.prev_checkpoint = self.last_checkpoint;
        self.last_checkpoint = Some(superstep);
        self.snapshot = Some(self.snapshot_cursor());
        self.accum_step_secs = 0.0;
        let Some(sink) = &cfg.barrier_sink else {
            return Ok(());
        };
        // Write-ahead ordering: worker checkpoint files are durable
        // *before* the master's commit record. The seeded kills bracket
        // the commit — `MidBarrier` models dying with the files written
        // but the record missing, `BetweenGrants` right after the record.
        let state = MasterState {
            superstep,
            prev_checkpoint: self.prev_checkpoint,
            last_ckpt_worker_bytes: max_bytes,
            epoch: self.epoch,
            workers: cfg.workers as u32,
            cur: self.cur,
            pending_kind: self.pending_kind,
            recoveries_used: self.recoveries_used,
            cum_logical: self.cum_logical,
            accum_step_secs: self.accum_step_secs,
            pending_release_secs,
            audit_seen: self.audit_seen as u64,
            switcher: self.switcher.clone(),
            steps: self.steps.clone(),
            switches: self.switches.clone(),
            recovery: self.recovery.clone(),
            mtbf: self.mtbf,
            trace: cfg.trace.as_ref().map(|s| s.export_states()),
        }
        .encode();
        self.killed(MasterKillPoint::MidBarrier(superstep))?;
        sink.commit(superstep, &state)?;
        self.killed(MasterKillPoint::BetweenGrants(superstep))
    }

    /// Collect phase: gathers every worker's values in vertex order and
    /// assembles the job's metrics.
    fn collect(mut self, load: LoadReport) -> Result<JobResult<P>, JobError> {
        let cfg = self.cfg();
        self.acquire();
        let mut parts: Vec<(u32, Vec<P::Value>)> = Vec::with_capacity(cfg.workers);
        let take = |msg| match msg {
            WorkerMsg::Values(i, base, vals) => {
                parts.push((base, vals));
                Ok(i)
            }
            other => Err(other),
        };
        self.crew
            .round(|_| true, Cmd::Collect, self.superstep, "collect", take)?;
        for tx in &self.crew.cmd_txs {
            tx.send(Cmd::Exit).ok();
        }
        self.release(0.0);
        parts.sort_by_key(|(base, _)| *base);
        let mut values = Vec::with_capacity(self.job.graph.num_vertices());
        for (_, vals) in parts {
            values.extend(vals);
        }
        debug_assert_eq!(values.len(), self.job.graph.num_vertices());

        self.recovery.mtbf_secs = self.mtbf.mtbf().unwrap_or(0.0);
        let ns = self.net_stats.snapshot();
        Ok(JobResult {
            values,
            metrics: JobMetrics {
                load,
                qt_audit: self.switcher.audit().to_vec(),
                steps: self.steps,
                switches: self.switches,
                profile: cfg.profile,
                recovery: self.recovery,
                net_overhead: NetOverhead {
                    retransmitted_bytes: ns.retransmitted_bytes,
                    duplicate_drops: ns.duplicate_drops,
                    dropped_frames: ns.dropped_frames,
                    delayed_frames: ns.delayed_frames,
                    acks_sent: ns.acks_sent,
                    replayed_bytes: ns.replayed_bytes,
                },
            },
        })
    }
}

/// The network fault plan's fired counters, if the job has one. They are
/// deterministic at superstep barriers (each selected frame fires its
/// drops before the receiver can complete the step; duplicates/delays
/// fire on the first attempt only), so their deltas may go into the
/// trace.
fn faults_fired(cfg: &JobConfig) -> Option<(u64, u64, u64)> {
    let p = cfg.fault_plan.as_ref()?.net_plan()?;
    Some((p.drops_fired(), p.duplicates_fired(), p.delays_fired()))
}

/// Physical over logical bytes; 1.0 when nothing was read or written.
fn ratio(physical: u64, logical: u64) -> f64 {
    if logical == 0 {
        1.0
    } else {
        physical as f64 / logical as f64
    }
}

/// Runs `program` over `graph` under `cfg` and returns the final values
/// and metrics, or a [`JobError`] if a worker failure could not be
/// recovered.
///
/// # Panics
/// Panics if the configuration is inconsistent (e.g. `PushM` without a
/// combiner).
pub fn run_job<P: VertexProgram>(
    program: Arc<P>,
    graph: &Graph,
    cfg: JobConfig,
) -> Result<JobResult<P>, JobError> {
    assert!(cfg.workers >= 1, "need at least one worker");
    assert!(
        cfg.mode != Mode::PushM || program.combiner().is_some(),
        "pushM (message online computing) requires a combiner"
    );
    assert!(graph.num_vertices() > 0, "graph must have vertices");
    let job = Job::new(program, graph, cfg)?;
    std::thread::scope(|scope| {
        let mut master = Master::new(&job, scope);
        let (load, load_secs) = master.load()?;
        master.resume_or_baseline(&load, load_secs)?;
        while master.step()? {}
        master.collect(load)
    })
}

/// Dispatches one superstep execution by kind.
fn run_step_kind<P: VertexProgram>(
    worker: &mut Worker<P>,
    kind: StepKind,
    superstep: u64,
) -> io::Result<StepReport> {
    match kind {
        StepKind::Push => run_push_step(worker, superstep, true, false),
        StepKind::PushNoSend => run_push_step(worker, superstep, false, false),
        StepKind::PushM => run_push_step(worker, superstep, true, true),
        StepKind::Pull => run_pull_step(worker, superstep),
        StepKind::BPull => run_bpull_step(worker, superstep, false),
        StepKind::BPullThenPush => run_bpull_step(worker, superstep, true),
        StepKind::Async => run_async_step(worker, superstep, false),
        StepKind::AsyncThenPush => run_async_step(worker, superstep, true),
    }
}

fn worker_main<P: VertexProgram>(
    seed: WorkerSeed<'_, P>,
    cmd_rx: Receiver<Cmd>,
    rep_tx: &Sender<WorkerMsg<P::Value>>,
) {
    let index = seed.id.index();
    let plan = seed.cfg.fault_plan.clone();
    let injected = |superstep: u64, phase: FaultPhase| -> bool {
        plan.as_ref()
            .is_some_and(|p| p.should_fail(index, superstep, phase))
    };
    // A death hands the endpoint back when the worker still holds it, so
    // the master can respawn a replacement onto the same slot.
    let died = |error: String, endpoint: Option<Endpoint>| {
        let endpoint = endpoint.map(Box::new);
        rep_tx
            .send(WorkerMsg::Failed {
                index,
                error,
                endpoint,
            })
            .ok();
    };
    // The load-phase hook fires before `Worker::load` consumes the
    // endpoint, so an injected load fault is recoverable; a genuine load
    // error is not (the endpoint went down with the half-built worker).
    if injected(0, FaultPhase::Load) {
        return died("injected fault: killed while loading".into(), Some(seed.ep));
    }
    let (mut worker, load) = match Worker::load(seed) {
        Ok(x) => x,
        Err(e) => return died(e.to_string(), None),
    };
    let mut reply: io::Result<_> = Ok(WorkerMsg::Loaded(index, Box::new(load)));
    loop {
        // Exactly one reply per command; an error is this worker's death.
        match reply {
            Ok(msg) => {
                if rep_tx.send(msg).is_err() {
                    return;
                }
            }
            Err(e) => return died(e.to_string(), Some(worker.ep)),
        }
        // Idle workers must keep servicing the endpoint: the ARQ layer
        // retransmits from the *sender*, so a worker parked between
        // supersteps would otherwise never re-send a dropped frame a
        // peer is still blocked on.
        let cmd = loop {
            match cmd_rx.recv_timeout(Duration::from_millis(2)) {
                Ok(cmd) => break cmd,
                Err(RecvTimeoutError::Timeout) => worker.ep.service(),
                Err(RecvTimeoutError::Disconnected) => return,
            }
        };
        reply = match cmd {
            Cmd::Step {
                kind,
                superstep,
                base_us,
            } => {
                worker.step_base_us = base_us;
                run_superstep(&mut worker, kind, superstep, injected)
            }
            Cmd::Checkpoint { superstep, prune } => {
                checkpoint_and_prune(&mut worker, superstep, prune)
                    .map(|bytes| WorkerMsg::Checkpointed(index, bytes))
            }
            Cmd::Rollback { superstep, epoch } => {
                // Stale packets from the aborted superstep (message
                // batches, end-of-step markers, the abort itself) and
                // un-acked ARQ frames must not leak into the
                // re-execution: the epoch reset invalidates them all.
                worker.ep.reset(epoch);
                worker.undo = None;
                worker.replay = false;
                worker
                    .restore_checkpoint(superstep)
                    .map(|()| WorkerMsg::RolledBack(index))
            }
            Cmd::UndoStep { epoch } => {
                worker.ep.reset(epoch);
                match worker.apply_undo() {
                    Ok(true) => Ok(WorkerMsg::Undone(index)),
                    Ok(false) => Err(io::Error::other(
                        "confined undo ordered but no capture exists",
                    )),
                    Err(e) => Err(e),
                }
            }
            Cmd::ReplayServe { superstep, target } => {
                serve_log(&mut worker, superstep, target).map(|()| WorkerMsg::Served(index))
            }
            Cmd::ReplayStep { kind, superstep } => {
                // Re-execute with remote sends suppressed: every peer
                // already processed the originals, and this worker's own
                // loopback traffic still flows so it re-serves itself.
                worker.replay = true;
                worker.ep.set_replay(true);
                let res = run_step_kind(&mut worker, kind, superstep);
                worker.ep.set_replay(false);
                worker.replay = false;
                res.map(|_| WorkerMsg::Replayed(index))
            }
            Cmd::Collect => worker
                .collect_values()
                .map(|vals| WorkerMsg::Values(index, worker.range.start, vals)),
            Cmd::Exit => return,
        };
    }
}

/// Executes one superstep on `worker` and returns its reply: the step
/// report, or `Aborted` when a peer failed and the master's abort unwound
/// the step.
fn run_superstep<P: VertexProgram>(
    worker: &mut Worker<P>,
    kind: StepKind,
    superstep: u64,
    injected: impl Fn(u64, FaultPhase) -> bool,
) -> io::Result<WorkerMsg<P::Value>> {
    let index = worker.id.index();
    if injected(superstep, FaultPhase::Compute) {
        return Err(io::Error::other(format!(
            "injected fault: killed before compute of superstep {superstep}"
        )));
    }
    let logging = worker.cfg.message_logging;
    if logging {
        worker.ep.start_capture();
        worker.begin_undo_capture()?;
    }
    match run_step_kind(worker, kind, superstep) {
        Ok(mut rep) => {
            if logging {
                let captured = worker.ep.take_capture();
                rep.msg_log_bytes = worker.commit_msg_log(superstep, &captured)?;
            }
            if injected(superstep, FaultPhase::Barrier) {
                return Err(io::Error::other(format!(
                    "injected fault: killed at barrier of superstep {superstep}"
                )));
            }
            Ok(WorkerMsg::Step(index, Box::new(rep)))
        }
        Err(e) if crate::modes::is_abort(&e) => {
            // A peer failed; the master broadcast an abort. Unwind this
            // superstep (keeping the undo capture for a possible confined
            // recovery) and await the master's next order.
            if logging {
                let _ = worker.ep.take_capture();
            }
            Ok(WorkerMsg::Aborted(index))
        }
        Err(e) => Err(e),
    }
}

/// Writes the checkpoint for `superstep`, then prunes the cut at `prune`
/// and, with message logging on, every log segment up to `superstep`:
/// replays start from this cut, so they can never be needed again.
/// Pruning is idempotent: a restarted incarnation may re-prune a cut its
/// predecessor already removed.
fn checkpoint_and_prune<P: VertexProgram>(
    worker: &mut Worker<P>,
    superstep: u64,
    prune: Option<u64>,
) -> io::Result<u64> {
    let bytes = worker.write_checkpoint(superstep)?;
    let vfs = worker.vfs.as_ref();
    if let Some(p) = prune {
        if has_checkpoint(vfs, p) {
            remove_checkpoint(vfs, p)?;
        }
    }
    if worker.cfg.message_logging {
        for s in (prune.unwrap_or(0) + 1)..=superstep {
            if msg_log::has_log_segment(vfs, s) {
                msg_log::remove_log_segment(vfs, s)?;
            }
        }
    }
    Ok(bytes)
}

/// Confined recovery, survivor side: re-sends the entries of this
/// worker's log segment for `superstep` that are addressed to `target`.
fn serve_log<P: VertexProgram>(
    worker: &mut Worker<P>,
    superstep: u64,
    target: usize,
) -> io::Result<()> {
    let mut r = MsgLogReader::open(worker.vfs.as_ref(), superstep)?;
    let to = WorkerId::from(target);
    while let Some((dest, blob)) = r.next_entry()? {
        if dest as usize != target {
            continue;
        }
        let (packet, _) = Packet::decode(&blob).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("corrupt message-log entry in superstep {superstep}"),
            )
        })?;
        worker.ep.send_replay(to, packet);
    }
    Ok(())
}

/// Job-constant inputs the per-superstep aggregation needs.
struct AggCtx<'a> {
    /// The job configuration.
    cfg: &'a JobConfig,
    /// Cluster-wide message-buffer capacity (the paper's `B`).
    b_total: u64,
    /// Encoded bytes per message (id + payload).
    msg_bytes: u64,
    /// True if messages combine under this configuration.
    combinable: bool,
}

/// Builds the master-side superstep metrics from worker reports.
fn aggregate(
    superstep: u64,
    kind: StepKind,
    reports: &[StepReport],
    net: &NetSnapshot,
    ctx: &AggCtx<'_>,
    switcher: &mut Switcher,
    wall: f64,
) -> (SuperstepMetrics, CostInputs) {
    let AggCtx {
        cfg,
        b_total,
        msg_bytes,
        combinable,
    } = *ctx;
    let sem = reports
        .iter()
        .fold(crate::metrics::SemanticBytes::default(), |acc, r| {
            acc.plus(&r.sem)
        });
    let io = reports
        .iter()
        .fold(IoSnapshot::default(), |acc, r| acc.plus(&r.io));
    let sum = |f: fn(&StepReport) -> u64| reports.iter().map(f).sum::<u64>();
    let produced = sum(|r| r.messages_produced);
    let delivered_raw = sum(|r| r.delivered_raw);
    let delivered_distinct = sum(|r| r.delivered_distinct);

    // Modeled time: max over workers of io + net + cpu.
    let mut modeled = 0.0f64;
    let mut modeled_io = 0.0f64;
    let mut modeled_net = 0.0f64;
    for (i, r) in reports.iter().enumerate() {
        let io_secs = r.io.modeled_secs(&cfg.profile);
        let net_secs = cfg.profile.net_secs(net.out_bytes[i] + net.in_bytes[i]);
        let cpu_secs = (cfg.cpu_us_per_message
            * (r.messages_produced + r.messages_consumed) as f64
            + cfg.cpu_us_per_vertex * r.updated as f64)
            * 1e-6;
        modeled = modeled.max(io_secs + net_secs + cpu_secs);
        modeled_io = modeled_io.max(io_secs);
        modeled_net = modeled_net.max(net_secs);
    }

    // Push-side quantities: actual when push ran, estimated otherwise.
    // Async supersteps are push-flavoured — the boundary exchange is a
    // real push whose spill and edge traffic were measured.
    let push_ran = matches!(
        kind,
        StepKind::Push | StepKind::PushM | StepKind::Async | StepKind::AsyncThenPush
    );
    let pull_ran = matches!(kind, StepKind::BPull | StepKind::BPullThenPush);
    let mdisk_est = msg_bytes * produced.saturating_sub(b_total);
    let (io_e_push, io_mdisk) = if push_ran {
        (sem.push_edge_bytes, sem.msg_spill_bytes)
    } else {
        (sum(|r| r.next_push_edge_bytes), mdisk_est)
    };
    let (io_e_bpull, io_f, io_vrr) = if pull_ran {
        (
            sem.bpull_edge_bytes,
            sem.fragment_aux_bytes,
            sem.svertex_rand_bytes,
        )
    } else {
        (
            sum(|r| r.next_bpull_edge_bytes),
            sum(|r| r.next_bpull_aux_bytes),
            sum(|r| r.next_bpull_vrr_bytes),
        )
    };

    // M_co: observed in (b-)pull supersteps, estimated in push ones.
    let mco = if pull_ran {
        let saved = net.total_saved_messages();
        switcher.observe_rco(saved, net.total_raw_messages());
        saved
    } else {
        let distinct_est = if delivered_raw > 0 {
            ((delivered_distinct as f64 / delivered_raw as f64) * produced as f64) as u64
        } else {
            produced // unknown: assume no sharing -> M_co estimate 0
        };
        switcher.estimate_mco(produced, distinct_est.min(produced))
    };

    let cio_push_bytes = sem.value_update_bytes + io_e_push + 2 * io_mdisk;
    let cio_bpull_bytes = sem.value_update_bytes + io_e_bpull + io_f + io_vrr;
    let inputs = CostInputs {
        mco,
        bytes_per_saved: if combinable { msg_bytes } else { 4 },
        io_mdisk,
        io_vrr,
        io_e_push,
        io_e_bpull,
        io_f,
    };
    let q = q_metric(&cfg.profile, &inputs);

    // Pseudo-round stats: rounds are a max (workers iterate in lockstep
    // between two barriers), the work counts are sums.
    let asy = reports
        .iter()
        .fold(crate::metrics::AsyncStepStats::default(), |mut acc, r| {
            acc.merge(&r.asy);
            acc
        });

    let metrics = SuperstepMetrics {
        superstep,
        kind,
        io,
        sem,
        net_out_bytes: net.total_remote_bytes(),
        net_local_bytes: net.local_bytes.iter().sum(),
        net_raw_messages: net.total_raw_messages(),
        net_wire_values: net.wire_values_out.iter().sum(),
        net_saved_messages: net.total_saved_messages(),
        net_requests: net.total_requests(),
        updated: sum(|r| r.updated),
        responders: sum(|r| r.responders),
        messages_produced: produced,
        pending_messages: sum(|r| r.pending_messages),
        cio_push_bytes,
        cio_bpull_bytes,
        mco,
        q_metric: q,
        memory_bytes: sum(|r| r.memory_bytes),
        cache_hits: sum(|r| r.cache_hits),
        cache_misses: sum(|r| r.cache_misses),
        cache_evictions: sum(|r| r.cache_evictions),
        modeled_secs: modeled,
        modeled_io_secs: modeled_io,
        modeled_net_secs: modeled_net,
        wall_secs: wall,
        blocking_secs: reports.iter().map(|r| r.blocking_secs).fold(0.0, f64::max),
        asy,
        max_residual: reports.iter().map(|r| r.max_residual).fold(0.0, f64::max),
    };
    (metrics, inputs)
}

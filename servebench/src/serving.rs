//! The system under test behind the scheduler: one `Engine` serving one
//! `StreamSession` per stream, with every outcome logged for the
//! correctness gate.

use crate::sched::{process_cpu_s, Job, JobResult, Server};
use crate::workload::{Traffic, Workload, NET_SEED};
use eva2_cnn::network::Network;
use eva2_cnn::zoo;
use eva2_core::serve::{Engine, FrameOutcome, StreamSession};
use eva2_core::AmcError;
use eva2_tensor::Tensor3;
use std::sync::Arc;

/// How a served frame was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Policy-chosen key frame (or a first frame / rehydration).
    Key,
    /// Key frame forced by the residual bound.
    ForcedKey,
    /// Warped from stored key state.
    Predicted,
}

/// One served frame as the engine returned it.
#[derive(Debug, Clone)]
pub struct ServedFrame {
    /// Server tick that served it (0-based, one per `process_batch`).
    pub tick: u32,
    /// Stream index.
    pub stream: u32,
    /// Frame index within the stream's traffic.
    pub frame: u32,
    /// Frame kind.
    pub kind: Kind,
    /// The engine ran RFBME for it (its session held key state).
    pub has_motion: bool,
    /// RFBME operations the engine reported.
    pub rfbme_ops: u64,
    /// The served output.
    pub output: Tensor3,
}

/// The outcome of one submitted job, without its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// Served as `Kind`.
    Served(Kind),
    /// Shed; resubmitted later.
    Shed,
    /// Rejected.
    Failed,
}

/// One `process_batch` call: what was submitted and what came back.
#[derive(Debug, Clone, Default)]
pub struct TickLog {
    /// Jobs in submission order.
    pub jobs: Vec<Job>,
    /// One tag per job.
    pub tags: Vec<Tag>,
}

/// Counters the engine's outcomes and sessions give.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Key frames chosen by the policy (first frames and rehydrations
    /// included).
    pub keys: u64,
    /// Key frames forced by the residual bound.
    pub forced: u64,
    /// Key frames of sessions whose key state had been evicted.
    pub rehydrations: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Self) {
        self.keys += o.keys;
        self.forced += o.forced;
        self.rehydrations += o.rehydrations;
    }
}

/// Builds the served network.
pub fn network() -> Arc<Network> {
    Arc::new(zoo::tiny_fasterm(NET_SEED).network)
}

/// Builds an engine for `streams` streams and opens one session each.
pub fn open(
    w: &Workload,
    net: Arc<Network>,
    streams: usize,
    workers: usize,
) -> Result<(Engine, Vec<StreamSession>), AmcError> {
    let mut engine = Engine::with_limits(net, w.config(), w.limits(streams, workers))?;
    let sessions = (0..streams)
        .map(|s| engine.open_session_with(w.stream_config(s)))
        .collect::<Result<_, _>>()?;
    Ok((engine, sessions))
}

/// An engine serving the first `streams` streams of a [`Traffic`].
pub struct EngineServer<'t> {
    w: &'t Workload,
    traffic: &'t Traffic,
    engine: Engine,
    sessions: Vec<StreamSession>,
    reopened: Vec<bool>,
    session_frames: Vec<u64>,
    /// Every served frame, in tick then submission order.
    pub served: Vec<ServedFrame>,
    /// Every tick.
    pub ticks: Vec<TickLog>,
    /// Outcome counters.
    pub counts: Counts,
    /// Mean audited session footprint after each tick, KiB.
    pub footprint_kib: Vec<f64>,
}

impl<'t> EngineServer<'t> {
    /// Opens the engine and its sessions.
    pub fn new(
        w: &'t Workload,
        traffic: &'t Traffic,
        net: Arc<Network>,
        streams: usize,
        workers: usize,
    ) -> Result<Self, AmcError> {
        let (engine, sessions) = open(w, net, streams, workers)?;
        Ok(Self {
            w,
            traffic,
            engine,
            sessions,
            reopened: vec![false; streams],
            session_frames: vec![0; streams],
            served: Vec::new(),
            ticks: Vec::new(),
            counts: Counts::default(),
            footprint_kib: Vec::new(),
        })
    }

    /// Sessions evicted by `Engine::maintain` so far.
    pub fn evictions(&self) -> u64 {
        self.engine.health().evicted_sessions
    }

    /// `Engine::prefix_macs`.
    pub fn prefix_macs(&self) -> u64 {
        self.engine.prefix_macs()
    }

    /// `Engine::total_macs`.
    pub fn total_macs(&self) -> u64 {
        self.engine.total_macs()
    }
}

impl Server for EngineServer<'_> {
    fn tick(&mut self, jobs: &[Job], results: &mut Vec<JobResult>) {
        let tick = self.ticks.len() as u32;
        for job in jobs {
            let s = job.stream as usize;
            if self.traffic.reopen_at[s] == Some(job.frame) && !self.reopened[s] {
                // A camera replaced mid-run: close its session, open anew.
                self.reopened[s] = true;
                self.sessions[s] = self
                    .engine
                    .open_session_with(self.w.stream_config(s))
                    .expect("an engine without a session cap reopens");
                self.session_frames[s] = 0;
            }
        }
        // Borrow the submitted sessions (distinct, in ascending order).
        let mut batch = Vec::with_capacity(jobs.len());
        let mut rest = self.sessions.as_mut_slice();
        let mut base = 0;
        for job in jobs {
            let s = job.stream as usize;
            let tail = std::mem::take(&mut rest);
            let (session, tail) = tail
                .split_at_mut(s - base)
                .1
                .split_first_mut()
                .expect("jobs name distinct streams in ascending order");
            batch.push((session, &self.traffic.frames[s][job.frame as usize]));
            rest = tail;
            base = s + 1;
        }
        let outcomes = self.engine.process_batch(batch);
        if self.w.fleet.is_some() {
            self.engine.maintain(self.sessions.iter_mut());
        }
        let mut log = TickLog {
            jobs: jobs.to_vec(),
            tags: Vec::with_capacity(jobs.len()),
        };
        for (job, outcome) in jobs.iter().zip(outcomes) {
            let s = job.stream as usize;
            let (kind, frame) = match outcome {
                FrameOutcome::Key { frame, .. } => (Kind::Key, frame),
                FrameOutcome::ForcedKey { frame, .. } => (Kind::ForcedKey, frame),
                FrameOutcome::Predicted { frame, .. } => (Kind::Predicted, frame),
                FrameOutcome::Shed(_) => {
                    log.tags.push(Tag::Shed);
                    results.push(JobResult::Shed);
                    continue;
                }
                FrameOutcome::Rejected(_) => {
                    log.tags.push(Tag::Failed);
                    results.push(JobResult::Failed);
                    continue;
                }
            };
            let has_motion = frame.metrics.is_some();
            match kind {
                Kind::Key => self.counts.keys += 1,
                Kind::ForcedKey => self.counts.forced += 1,
                Kind::Predicted => {}
            }
            if kind != Kind::Predicted && !has_motion && self.session_frames[s] > 0 {
                self.counts.rehydrations += 1;
            }
            self.session_frames[s] += 1;
            self.served.push(ServedFrame {
                tick,
                stream: job.stream,
                frame: job.frame,
                kind,
                has_motion,
                rfbme_ops: frame.rfbme_ops,
                output: frame.output,
            });
            log.tags.push(Tag::Served(kind));
            results.push(JobResult::Served);
        }
        self.ticks.push(log);
        let total: usize = self.sessions.iter().map(|s| s.memory_footprint()).sum();
        self.footprint_kib
            .push(total as f64 / self.sessions.len().max(1) as f64 / 1024.0);
    }
}

/// Drives a fresh engine with `workers` workers through the exact calls
/// logged in `ticks`, returning it and the CPU time of its ticks.
pub fn redrive<'t>(
    w: &'t Workload,
    traffic: &'t Traffic,
    net: Arc<Network>,
    streams: usize,
    workers: usize,
    ticks: &[TickLog],
) -> Result<(EngineServer<'t>, f64), AmcError> {
    let mut server = EngineServer::new(w, traffic, net, streams, workers)?;
    let mut results = Vec::new();
    let mut busy = 0.0;
    for t in ticks {
        let start = process_cpu_s();
        server.tick(&t.jobs, &mut results);
        busy += process_cpu_s() - start;
    }
    Ok((server, busy))
}

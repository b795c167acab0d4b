//! The open-loop tick scheduler: unsynchronised 30 fps cameras feeding a
//! server that works in ticks.
//!
//! Every stream is a camera whose frame `i` falls due at a fixed time,
//! whether or not the server kept up. Ticks start on a fixed schedule
//! (one every [`TICK_PERIOD_S`]); each tick submits every stream's oldest
//! due frame, and a frame is timed from when it was *due* to when the
//! tick that served it completed. A stall therefore counts against every
//! frame queued behind it, not just the one batch it hit (no coordinated
//! omission). A tick that overruns its successor's slot delays that
//! successor, and the delay is recorded as tick lateness.
//!
//! The scheduler knows nothing about the engine: it drives any [`Server`]
//! against any [`Clock`], which is how the tests check it with a fake
//! service-time model on virtual time.

use crate::stats;
use std::time::Instant;

/// One camera frame interval (30 fps).
pub const FRAME_INTERVAL_S: f64 = 1.0 / 30.0;
/// The per-frame latency objective: one frame interval.
pub const SLO_S: f64 = FRAME_INTERVAL_S;
/// The fixed tick period: five ticks per frame interval.
pub const TICK_PERIOD_S: f64 = SLO_S / 5.0;

/// One submission: frame `frame` of stream `stream`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Stream index.
    pub stream: u32,
    /// Frame index within the stream.
    pub frame: u32,
}

/// What the server did with one job of a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobResult {
    /// Served; the stream moves on to its next frame.
    Served,
    /// Shed by backpressure; resubmitted next tick.
    Shed,
    /// Refused for good; counted as failed.
    Failed,
}

/// A server that processes one tick's jobs at a time.
pub trait Server {
    /// Processes `jobs` (at most one per stream, in stream order) and
    /// pushes one result per job onto `results`.
    fn tick(&mut self, jobs: &[Job], results: &mut Vec<JobResult>);
}

/// Time source of a run, in seconds from an arbitrary origin.
pub trait Clock {
    /// Current time.
    fn now(&self) -> f64;
    /// Blocks until `t` (returns at once when `t` has passed).
    fn sleep_until(&mut self, t: f64);
}

/// CPU time this process has consumed, in seconds.
///
/// The benchmark's time base. Process CPU time counts every thread of the
/// engine (a worker pool included) and leaves out time the host took the
/// CPU away: on a shared virtual machine, wall time also measures the
/// neighbours — stolen time reached 40% of wall time with two busy
/// threads on the 2-vCPU host the benchmark was tuned on.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is the kernel's constant
    // for the calling process's CPU-time clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall time since the first call, where no process CPU clock is wired.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_s() -> f64 {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Process CPU time with the idle gaps between ticks skipped: time passes
/// while the engine works, and jumps to the next slot instead of sleeping
/// until it.
///
/// The schedule, and so the queueing, stays exactly open loop; what the
/// clock leaves out is the host — stolen time and the wake-up latency of
/// an idle vCPU, both of which otherwise land on the latency tail. With a
/// worker pool, CPU time adds up across workers, so latencies are those of
/// the same work on one core: pool overhead shows, parallel speed-up does
/// not.
#[derive(Debug)]
pub struct CpuClock {
    at_mark: f64,
    mark: f64,
}

impl CpuClock {
    /// A clock reading zero now.
    pub fn new() -> Self {
        Self {
            at_mark: 0.0,
            mark: process_cpu_s(),
        }
    }
}

impl Clock for CpuClock {
    fn now(&self) -> f64 {
        self.at_mark + (process_cpu_s() - self.mark)
    }

    fn sleep_until(&mut self, t: f64) {
        if t > self.now() {
            self.at_mark = t;
            self.mark = process_cpu_s();
        }
    }
}

/// When each stream's frames fall due, in seconds after the run starts.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Per stream, ascending due times; frame `i` is due at `due[s][i]`.
    pub due: Vec<Vec<f64>>,
}

/// A camera that stops for `seconds` before frame `at_frame`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pause {
    /// First frame after the pause.
    pub at_frame: u32,
    /// Pause length.
    pub seconds: f64,
}

impl Schedule {
    /// 30 fps cameras: stream `s` starts at `phases[s]` and emits `frames`
    /// frames, shifted by its pause, if any.
    pub fn cameras(frames: usize, phases: &[f64], pauses: &[Option<Pause>]) -> Self {
        let due = phases
            .iter()
            .zip(pauses)
            .map(|(&phase, pause)| {
                (0..frames)
                    .map(|i| {
                        let shift = match pause {
                            Some(p) if i >= p.at_frame as usize => p.seconds,
                            _ => 0.0,
                        };
                        phase + i as f64 * FRAME_INTERVAL_S + shift
                    })
                    .collect()
            })
            .collect();
        Self { due }
    }

    /// Closed loop: every frame is due at once, so each tick submits every
    /// stream's next frame back to back.
    pub fn closed_loop(streams: usize, frames: usize) -> Self {
        Self {
            due: vec![vec![0.0; frames]; streams],
        }
    }

    /// Total frames across streams.
    pub fn frames(&self) -> usize {
        self.due.iter().map(Vec::len).sum()
    }

    fn last_due(&self) -> f64 {
        self.due
            .iter()
            .filter_map(|d| d.last().copied())
            .fold(0.0, f64::max)
    }
}

/// Tick-loop settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopConfig {
    /// Tick period; 0 runs ticks back to back.
    pub period_s: f64,
    /// Stop early, as overloaded, once the due-but-unsubmitted backlog
    /// exceeds this many frames per stream.
    pub abort_backlog_per_stream: Option<f64>,
    /// How long after the last frame falls due the run may keep draining.
    /// Frames still unserved then count as failed.
    pub drain_s: f64,
}

impl LoopConfig {
    /// The open-loop settings: the fixed tick period, no early abort.
    pub fn open_loop() -> Self {
        Self {
            period_s: TICK_PERIOD_S,
            abort_backlog_per_stream: None,
            drain_s: 2.0,
        }
    }

    /// Open loop that gives up once the backlog shows the rate cannot be
    /// sustained — the capacity probes.
    pub fn probe() -> Self {
        Self {
            abort_backlog_per_stream: Some(6.0),
            drain_s: 0.5,
            ..Self::open_loop()
        }
    }

    /// Back-to-back ticks over a [`Schedule::closed_loop`].
    pub fn closed_loop() -> Self {
        Self {
            period_s: 0.0,
            abort_backlog_per_stream: None,
            drain_s: f64::INFINITY,
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Clone, Default)]
pub struct RunRecord {
    /// Due-to-completion latency of every served frame, seconds.
    pub latency_s: Vec<f64>,
    /// The job behind each entry of `latency_s`.
    pub served_jobs: Vec<Job>,
    /// Due-to-tick-start wait of every served frame, seconds.
    pub queue_wait_s: Vec<f64>,
    /// Time of every non-empty tick, seconds.
    pub tick_s: Vec<f64>,
    /// How late every non-empty tick started against its slot, seconds.
    pub tick_late_s: Vec<f64>,
    /// Jobs submitted in every non-empty tick.
    pub batch_frames: Vec<u32>,
    /// `(seconds, frames due but unsubmitted)` at each tick start while
    /// frames were still arriving.
    pub backlog: Vec<(f64, u64)>,
    /// Frames that fell due before the run ended.
    pub attempted: u64,
    /// Frames refused for good or never served.
    pub failed: u64,
    /// Shed submissions (each shed frame is resubmitted).
    pub shed: u64,
    /// Submissions, resubmissions included.
    pub submissions: u64,
    /// The run stopped early on backlog.
    pub aborted: bool,
    /// The backlog grew over the run: the rate exceeds capacity.
    pub overloaded: bool,
    /// Sum of tick times, seconds.
    pub busy_s: f64,
    /// Sum of tick wall-clock times, seconds (for the wall/CPU ratio).
    pub wall_busy_s: f64,
    /// Run time, idle gaps skipped, seconds.
    pub elapsed_s: f64,
}

impl RunRecord {
    /// Appends another run's samples and counts (a run split into rounds).
    pub fn absorb(&mut self, other: RunRecord) {
        self.latency_s.extend(other.latency_s);
        self.served_jobs.extend(other.served_jobs);
        self.queue_wait_s.extend(other.queue_wait_s);
        self.tick_s.extend(other.tick_s);
        self.tick_late_s.extend(other.tick_late_s);
        self.batch_frames.extend(other.batch_frames);
        self.backlog.extend(other.backlog);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.shed += other.shed;
        self.submissions += other.submissions;
        self.aborted |= other.aborted;
        self.overloaded |= other.overloaded;
        self.busy_s += other.busy_s;
        self.wall_busy_s += other.wall_busy_s;
        self.elapsed_s += other.elapsed_s;
    }

    /// Frames served.
    pub fn served(&self) -> u64 {
        self.latency_s.len() as u64
    }

    /// The `q`-quantile of latency with every failed frame counted as
    /// infinitely late (`None` without ten samples beyond it).
    pub fn latency_quantile_with_failures(&self, q: f64) -> Option<f64> {
        let mut v = stats::sorted(&self.latency_s);
        v.extend(std::iter::repeat_n(f64::INFINITY, self.failed as usize));
        stats::percentile(&v, q)
    }

    /// Share of attempted frames served later than `slo` after they were
    /// due, or not served at all.
    pub fn slo_miss_frac(&self, slo: f64) -> f64 {
        let late = self.latency_s.iter().filter(|&&l| l > slo).count() as u64;
        (late + self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// The rate is sustainable at the objective: no growing backlog and a
    /// p99 (failures counted as misses) within `slo`.
    pub fn meets_slo(&self, slo: f64) -> bool {
        !self.overloaded
            && self
                .latency_quantile_with_failures(0.99)
                .is_some_and(|p99| p99 <= slo)
    }
}

/// Frames a capacity probe serves at least, so that its p99 has ten
/// samples beyond it (with a margin).
pub const PROBE_MIN_FRAMES: usize = 1100;

/// Frames per stream for a capacity probe of `streams` streams: `base`, or
/// more when `streams` × `base` frames could not support a p99.
pub fn probe_frames(streams: usize, base: usize) -> usize {
    base.max(PROBE_MIN_FRAMES.div_ceil(streams.max(1)))
}

/// Whether the backlog samples trend upward by more than half a frame per
/// stream over the arrival window (least-squares slope × window).
pub fn backlog_grows(samples: &[(f64, u64)], streams: usize) -> bool {
    if samples.len() < 3 {
        return false;
    }
    let n = samples.len() as f64;
    let mt = samples.iter().map(|s| s.0).sum::<f64>() / n;
    let mb = samples.iter().map(|s| s.1 as f64).sum::<f64>() / n;
    let (mut cov, mut var) = (0.0, 0.0);
    for &(t, b) in samples {
        cov += (t - mt) * (b as f64 - mb);
        var += (t - mt) * (t - mt);
    }
    if var <= 0.0 {
        return false;
    }
    let window = samples[samples.len() - 1].0 - samples[0].0;
    cov / var * window > 0.5 * streams.max(1) as f64
}

/// Runs `schedule` against `server` on `clock`.
pub fn run<C: Clock, S: Server>(
    clock: &mut C,
    server: &mut S,
    schedule: &Schedule,
    cfg: &LoopConfig,
) -> RunRecord {
    let streams = schedule.due.len();
    let total = schedule.frames();
    let last_due = schedule.last_due();
    let mut rec = RunRecord {
        latency_s: Vec::with_capacity(total),
        served_jobs: Vec::with_capacity(total),
        queue_wait_s: Vec::with_capacity(total),
        ..RunRecord::default()
    };
    let mut cursor = vec![0usize; streams];
    let mut jobs: Vec<Job> = Vec::with_capacity(streams);
    let mut results: Vec<JobResult> = Vec::with_capacity(streams);
    let origin = clock.now();
    let mut slot: u64 = 0;
    let mut end_rel;
    loop {
        let scheduled = slot as f64 * cfg.period_s;
        clock.sleep_until(origin + scheduled);
        let start = clock.now();
        let t = start - origin;
        jobs.clear();
        let mut backlog = 0u64;
        for (s, due) in schedule.due.iter().enumerate() {
            let c = cursor[s];
            if c < due.len() && due[c] <= t {
                jobs.push(Job {
                    stream: s as u32,
                    frame: c as u32,
                });
                backlog += due[c..].partition_point(|&d| d <= t) as u64;
            }
        }
        if t <= last_due {
            rec.backlog.push((t, backlog));
        }
        if jobs.is_empty() && cursor.iter().zip(&schedule.due).all(|(&c, d)| c >= d.len()) {
            end_rel = t;
            break;
        }
        if !jobs.is_empty() {
            rec.tick_late_s.push(t - scheduled);
            results.clear();
            let wall = Instant::now();
            server.tick(&jobs, &mut results);
            rec.wall_busy_s += wall.elapsed().as_secs_f64();
            assert_eq!(results.len(), jobs.len(), "one result per job");
            let end = clock.now() - origin;
            rec.tick_s.push(end - t);
            rec.busy_s += end - t;
            rec.batch_frames.push(jobs.len() as u32);
            rec.submissions += jobs.len() as u64;
            for (job, result) in jobs.iter().zip(&results) {
                let s = job.stream as usize;
                let due = schedule.due[s][job.frame as usize];
                match result {
                    JobResult::Served => {
                        rec.latency_s.push(end - due);
                        rec.queue_wait_s.push(t - due);
                        rec.served_jobs.push(*job);
                        cursor[s] += 1;
                    }
                    JobResult::Shed => rec.shed += 1,
                    JobResult::Failed => {
                        rec.failed += 1;
                        cursor[s] += 1;
                    }
                }
            }
        }
        let now = clock.now() - origin;
        end_rel = now;
        if cfg
            .abort_backlog_per_stream
            .is_some_and(|limit| backlog as f64 > limit * streams as f64)
        {
            rec.aborted = true;
            break;
        }
        if now > last_due + cfg.drain_s {
            break;
        }
        // The next tick takes the first slot after the one this tick started
        // in. If that slot passed while this tick ran, the next tick starts
        // at once, late by at most this tick's length, and the tick after
        // it skips the slots in between.
        if cfg.period_s > 0.0 {
            slot = (slot + 1).max((t / cfg.period_s).floor() as u64 + 1);
        }
    }
    // Frames that fell due but were never served count as failed.
    let due_by_end: u64 = schedule
        .due
        .iter()
        .map(|d| d.partition_point(|&x| x <= end_rel) as u64)
        .sum();
    rec.attempted = due_by_end.max(rec.served() + rec.failed);
    rec.failed = rec.attempted - rec.served();
    rec.overloaded = rec.aborted || backlog_grows(&rec.backlog, streams);
    rec.elapsed_s = end_rel;
    rec
}

/// Search for the largest stream count that meets the objective,
/// assuming meeting it is monotone in the count: geometric bisection until
/// the bracket is within `tol` (`hi ≤ lo·(1+tol)`).
///
/// A state machine rather than a loop, so the caller can spread probes
/// over a run: [`Bisection::next`] names the count to probe and
/// [`Bisection::record`] takes the verdict. `[lo, hi]` starts as a guess:
/// when no probe inside it passes, `lo` itself is probed and the bracket
/// moves down; when none fails, `hi` is probed and the bracket moves up,
/// never past `max`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bisection {
    lo: usize,
    hi: usize,
    max: usize,
    tol: f64,
    lo_ok: bool,
    hi_bad: bool,
}

impl Bisection {
    /// A search bracketed by the guess `[lo, hi]`, capped at `max`.
    pub fn new(lo: usize, hi: usize, max: usize, tol: f64) -> Self {
        let max = max.max(1);
        let lo = lo.clamp(1, max);
        Self {
            lo,
            hi: hi.clamp(lo, max),
            max,
            tol,
            lo_ok: false,
            hi_bad: false,
        }
    }

    fn wide(&self) -> bool {
        self.lo >= 1 && self.hi as f64 > self.lo as f64 * (1.0 + self.tol) && self.hi - self.lo > 1
    }

    /// The next count to probe, or `None` once the search is done.
    pub fn next(&self) -> Option<usize> {
        if self.wide() {
            let mid = (self.lo as f64 * self.hi as f64).sqrt().round() as usize;
            Some(mid.clamp(self.lo + 1, self.hi - 1))
        } else if !self.lo_ok {
            Some(self.lo)
        } else if !self.hi_bad && self.lo < self.hi {
            Some(self.hi)
        } else {
            None
        }
    }

    /// Records whether `n` (the count [`Bisection::next`] named) met the
    /// objective.
    pub fn record(&mut self, n: usize, meets: bool) {
        if self.wide() {
            if meets {
                self.lo = n;
                self.lo_ok = true;
            } else {
                self.hi = n;
                self.hi_bad = true;
            }
        } else if !self.lo_ok {
            if meets {
                self.lo_ok = true;
            } else {
                self.hi = self.lo;
                self.hi_bad = true;
                // Below one stream there is nothing left to probe.
                self.lo_ok = self.lo == 1;
                self.lo = if self.lo == 1 { 0 } else { self.lo / 2 };
            }
        } else if meets {
            self.lo = self.hi;
            self.hi = (self.hi * 2).min(self.max);
        } else {
            self.hi_bad = true;
        }
    }

    /// The largest count known to meet the objective.
    pub fn result(&self) -> usize {
        self.lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// Virtual time shared by the fake clock and the fake server.
    #[derive(Clone, Default)]
    struct FakeClock(Rc<Cell<f64>>);

    impl Clock for FakeClock {
        fn now(&self) -> f64 {
            self.0.get()
        }
        fn sleep_until(&mut self, t: f64) {
            self.0.set(self.0.get().max(t));
        }
    }

    /// Fake service-time model: each frame costs `per_frame_s`, and call
    /// number `stall_at` additionally stalls for `stall_s`.
    struct FakeServer {
        clock: FakeClock,
        per_frame_s: f64,
        stall_at: Option<usize>,
        stall_s: f64,
        calls: usize,
    }

    impl FakeServer {
        fn new(clock: &FakeClock, per_frame_s: f64) -> Self {
            Self {
                clock: clock.clone(),
                per_frame_s,
                stall_at: None,
                stall_s: 0.0,
                calls: 0,
            }
        }
    }

    impl Server for FakeServer {
        fn tick(&mut self, jobs: &[Job], results: &mut Vec<JobResult>) {
            let mut cost = self.per_frame_s * jobs.len() as f64;
            if self.stall_at == Some(self.calls) {
                cost += self.stall_s;
            }
            self.calls += 1;
            self.clock.0.set(self.clock.0.get() + cost);
            results.extend(jobs.iter().map(|_| JobResult::Served));
        }
    }

    fn bisect(lo: usize, hi: usize, max: usize, mut meets: impl FnMut(usize) -> bool) -> usize {
        let mut b = Bisection::new(lo, hi, max, 0.05);
        while let Some(n) = b.next() {
            b.record(n, meets(n));
        }
        b.result()
    }

    fn cameras(streams: usize, frames: usize) -> Schedule {
        let phases: Vec<f64> = (0..streams)
            .map(|s| FRAME_INTERVAL_S * s as f64 / streams as f64)
            .collect();
        Schedule::cameras(frames, &phases, &vec![None; streams])
    }

    #[test]
    fn stall_delays_every_frame_queued_behind_it() {
        let schedule = cameras(10, 60);
        let mut clock = FakeClock::default();
        let mut server = FakeServer::new(&clock, 1e-4);
        server.stall_at = Some(30);
        server.stall_s = 0.2;
        let rec = run(&mut clock, &mut server, &schedule, &LoopConfig::open_loop());
        assert_eq!(rec.served(), 600);
        assert!(!rec.overloaded);
        // The stalled tick starts near slot 30 and ends 200 ms later.
        let stall_start = 30.0 * TICK_PERIOD_S;
        let stall_end = stall_start + 0.2;
        let mut queued = 0;
        for (job, &lat) in rec.served_jobs.iter().zip(&rec.latency_s) {
            let due = schedule.due[job.stream as usize][job.frame as usize];
            if due > stall_start && due < stall_end {
                queued += 1;
                assert!(
                    lat >= stall_end - due,
                    "frame due at {due:.3}s served only {lat:.3}s later"
                );
            }
        }
        // Every stream had frames due during the stall, so far more than
        // the one stalled batch records the stall.
        assert!(queued >= 50, "only {queued} frames queued behind the stall");
        let late = rec.latency_s.iter().filter(|&&l| l > SLO_S).count();
        assert!(late >= 40, "only {late} frames missed the objective");
    }

    #[test]
    fn backlog_detector_flags_rate_above_capacity() {
        let streams = 20;
        let schedule = cameras(streams, 90);
        let capacity_rate = streams as f64 / FRAME_INTERVAL_S;
        for (load, over) in [(0.5, false), (0.9, false), (1.3, true), (2.0, true)] {
            let mut clock = FakeClock::default();
            let mut server = FakeServer::new(&clock, load / capacity_rate);
            let rec = run(&mut clock, &mut server, &schedule, &LoopConfig::open_loop());
            assert_eq!(rec.overloaded, over, "load {load}");
            if load < 1.5 {
                assert_eq!(rec.failed, 0, "load {load}: drained in time");
            }
        }
        // The probe variant aborts a runaway rate instead of draining it.
        let mut clock = FakeClock::default();
        let mut server = FakeServer::new(&clock, 3.0 / capacity_rate);
        let rec = run(&mut clock, &mut server, &schedule, &LoopConfig::probe());
        assert!(rec.aborted && rec.overloaded && !rec.meets_slo(SLO_S));
        assert!(rec.failed > 0);
    }

    #[test]
    fn bisection_lands_within_five_percent() {
        for capacity in [7usize, 37, 100, 263, 1000] {
            for (lo, hi) in [
                (capacity / 4, capacity * 13 / 10),
                (capacity / 20, capacity / 2),
                (capacity * 2, capacity * 3),
            ] {
                let mut probes = 0;
                let found = bisect(lo, hi, 10_000, |n| {
                    probes += 1;
                    n <= capacity
                });
                assert!(found <= capacity, "{found} above capacity {capacity}");
                assert!(
                    found as f64 >= capacity as f64 / 1.05,
                    "{found} not within 5% of {capacity} from [{lo}, {hi}]"
                );
                assert!(probes <= 20, "{probes} probes");
            }
        }
        assert_eq!(bisect(10, 20, 50, |_| true), 50);
        assert_eq!(bisect(10, 20, 50, |_| false), 0);
    }

    #[test]
    fn bisection_over_fake_runs_stays_below_capacity() {
        // 0.5 ms per frame: 66 streams saturate one server exactly.
        let per_frame = 5e-4;
        let saturation = (FRAME_INTERVAL_S / per_frame) as usize;
        let found = bisect(10, 80, 200, |n| {
            let mut clock = FakeClock::default();
            let mut server = FakeServer::new(&clock, per_frame);
            run(
                &mut clock,
                &mut server,
                &cameras(n, 90),
                &LoopConfig::probe(),
            )
            .meets_slo(SLO_S)
        });
        assert!(found <= saturation && found > saturation / 2, "{found}");
    }

    #[test]
    fn bisection_finds_a_capacity_near_ten_streams() {
        // 3.3 ms per frame: 10 streams saturate one server. Every probe,
        // however few its streams, lasts long enough for a p99.
        let per_frame = FRAME_INTERVAL_S / 10.0;
        let found = bisect(24, 80, 200, |n| {
            let mut clock = FakeClock::default();
            let mut server = FakeServer::new(&clock, per_frame);
            let rec = run(
                &mut clock,
                &mut server,
                &cameras(n, probe_frames(n, 60)),
                &LoopConfig::probe(),
            );
            assert!(
                rec.overloaded || rec.latency_quantile_with_failures(0.99).is_some(),
                "{n} streams: no p99"
            );
            rec.meets_slo(SLO_S)
        });
        assert!((5..=10).contains(&found), "{found}");
        assert_eq!(probe_frames(40, 60), 60);
        assert_eq!(probe_frames(10, 60), 110);
    }

    #[test]
    fn closed_loop_runs_ticks_back_to_back() {
        let mut clock = FakeClock::default();
        let mut server = FakeServer::new(&clock, 1e-3);
        let rec = run(
            &mut clock,
            &mut server,
            &Schedule::closed_loop(4, 25),
            &LoopConfig::closed_loop(),
        );
        assert_eq!(rec.served(), 100);
        assert_eq!(rec.tick_s.len(), 25);
        assert!((rec.busy_s - 0.1).abs() < 1e-9 && (rec.elapsed_s - 0.1).abs() < 1e-9);
    }
}

//! The `BENCH_serve.json` measurement suite: closed-loop serving load
//! against the worker-pool engine, shared by the `bench_serve` trajectory
//! writer and the `bench_gate` CI regression gate.
//!
//! Where [`crate::trajectory`] times microkernels and single frames, this
//! suite drives the `eva2_core::serve::Engine` with the
//! [`eva2_video::load::LoadGenerator`] traffic model — hundreds of
//! decorrelated streams with staggered, heavy-tailed scene cuts — and
//! reports serving-level figures:
//!
//! - **streams-per-core at the SLO**: the largest stream count whose p99
//!   per-frame latency stays under the 33.3 ms real-time budget (30 fps)
//!   with one worker. A frame's latency is its tick's wall duration: the
//!   engine admits and completes a whole tick batch together, so every
//!   frame in the batch waits for the batch.
//! - **p50/p99 per-frame latency** at that operating point.
//! - **per-session memory** (audited footprint, steady state under load).
//! - **single-worker overhead**: serial `AmcExecutor` oracles over the
//!   one-worker engine on identical traffic. The engine's admission,
//!   budgeting, and outcome bookkeeping must be nearly free — the gate
//!   holds this ratio *strictly* above [`STRICT_OVERHEAD_FLOOR`]
//!   (≤ ~10% overhead), on any host, because one thread vs one thread
//!   divides the machine out.
//! - **threaded scaling** (`serve_threaded_over_serial`): the same traffic
//!   against an engine with one worker per available CPU
//!   (`std::thread::available_parallelism`), so the pool never
//!   oversubscribes the host. Advisory (see `TrackedRatio`) — its value is a
//!   property of the measuring host's core count (on a 1-CPU host the
//!   "threaded" engine has one worker and the ratio sits near 1.0).

use crate::trajectory::{Entry, Mode};
use eva2_cnn::zoo;
use eva2_core::executor::{AmcConfig, AmcExecutor};
use eva2_core::serve::{Engine, EngineLimits};
use eva2_tensor::GrayImage;
use eva2_video::load::{LoadConfig, LoadGenerator};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Strict floor for `serial_over_single_worker_engine`: the one-worker
/// engine may cost at most ~10% over the serial oracles (ratio ≥ 1/1.1).
pub const STRICT_OVERHEAD_FLOOR: f64 = 0.90;

/// The per-frame latency SLO: one 30 fps frame interval.
pub const SLO_MS: f64 = 100.0 / 3.0;

/// Sampling plan for the serving suite. [`Mode::Full`] is the committed
/// trajectory; [`Mode::Quick`] is CI; the unit tests use a micro plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServePlan {
    /// Paired passes for the ratio figures; the median per-pass ratio is
    /// reported.
    pub passes: usize,
    /// Serving ticks per pass (one frame per stream per tick).
    pub ticks: usize,
    /// First stream count tried in the SLO ramp.
    pub ramp_start: usize,
    /// Stream-count ceiling for the SLO ramp (doubling from `ramp_start`).
    pub ramp_cap: usize,
    /// Stream count used for the overhead/scaling ratio measurements.
    pub ratio_streams: usize,
    /// Worker count for the threaded-scaling ratio: the host's available
    /// parallelism in [`ServePlan::for_mode`].
    pub threaded_workers: usize,
}

impl ServePlan {
    /// The plan for a mode: Full = committed trajectory, Quick = CI gate.
    pub fn for_mode(mode: Mode) -> Self {
        let threaded_workers = std::thread::available_parallelism().map_or(1, usize::from);
        match mode {
            Mode::Full => Self {
                passes: 7,
                ticks: 30,
                ramp_start: 16,
                ramp_cap: 1024,
                ratio_streams: 8,
                threaded_workers,
            },
            Mode::Quick => Self {
                passes: 5,
                ticks: 8,
                ramp_start: 16,
                ramp_cap: 256,
                ratio_streams: 4,
                threaded_workers,
            },
        }
    }
}

/// The full measurement set backing `BENCH_serve.json`.
#[derive(Debug, Clone)]
pub struct ServeMeasurements {
    /// Per-level and per-figure raw entries, in measurement order.
    pub entries: Vec<Entry>,
    /// Largest ramp level whose p99 frame latency met the SLO (one worker).
    pub streams_per_core_at_slo: f64,
    /// Median per-frame latency at that operating point, microseconds.
    pub p50_frame_latency_us: f64,
    /// p99 per-frame latency at that operating point, microseconds.
    pub p99_frame_latency_us: f64,
    /// Mean audited per-session footprint under load, bytes.
    pub per_session_bytes: f64,
    /// Serial oracles over the one-worker engine on identical traffic
    /// (strict: engine bookkeeping must be nearly free, ~1.0).
    pub serial_over_single_worker_engine: f64,
    /// Serial oracles over the multi-worker engine (advisory: host
    /// topology decides this — below 1.0 on a single-CPU container).
    pub serve_threaded_over_serial: f64,
    /// Worker count the threaded ratio used.
    pub threaded_workers: usize,
}

/// One speedup ratio the CI gate compares, same shape as
/// [`crate::trajectory::TrackedRatio`] (re-exported for the gate loop).
pub use crate::trajectory::TrackedRatio;

/// Renders `ticks` frames of `streams`-wide traffic up front so generator
/// cost never pollutes serving timings.
fn render_traffic(streams: usize, ticks: usize) -> Vec<Vec<GrayImage>> {
    let mut gen = LoadGenerator::new(LoadConfig::new(streams, 48, 48));
    (0..ticks)
        .map(|_| gen.tick().into_iter().map(|f| f.image).collect())
        .collect()
}

/// One engine pass over pre-rendered traffic. Returns per-tick wall times
/// (nanoseconds) and the mean per-session footprint after the last tick.
fn engine_pass(
    net: &Arc<eva2_cnn::network::Network>,
    config: AmcConfig,
    workers: usize,
    traffic: &[Vec<GrayImage>],
) -> (Vec<u64>, f64) {
    let streams = traffic.first().map_or(0, Vec::len);
    let limits = EngineLimits::builder()
        .worker_threads(workers)
        .build()
        .expect("valid worker count");
    let mut engine =
        Engine::with_limits(Arc::clone(net), config, limits).expect("valid serving config");
    let mut sessions: Vec<_> = (0..streams)
        .map(|_| {
            engine
                .open_session()
                .expect("unlimited engine has capacity")
        })
        .collect();
    let mut tick_ns = Vec::with_capacity(traffic.len());
    for tick in traffic {
        let start = Instant::now();
        let outcomes = engine.process_batch(sessions.iter_mut().zip(tick.iter()));
        tick_ns.push(start.elapsed().as_nanos() as u64);
        debug_assert!(outcomes.iter().all(|o| o.is_served()));
        std::hint::black_box(&outcomes);
    }
    let bytes =
        sessions.iter().map(|s| s.memory_footprint()).sum::<usize>() as f64 / streams.max(1) as f64;
    (tick_ns, bytes)
}

/// One serial-oracle pass: an independent `AmcExecutor` per stream, frames
/// processed back to back. Returns total wall nanoseconds.
fn serial_pass(
    net: &Arc<eva2_cnn::network::Network>,
    config: AmcConfig,
    traffic: &[Vec<GrayImage>],
) -> u64 {
    let streams = traffic.first().map_or(0, Vec::len);
    let mut oracles: Vec<_> = (0..streams)
        .map(|_| AmcExecutor::try_new(net, config).expect("valid AMC config"))
        .collect();
    let start = Instant::now();
    for tick in traffic {
        for (oracle, image) in oracles.iter_mut().zip(tick.iter()) {
            std::hint::black_box(oracle.process(image));
        }
    }
    start.elapsed().as_nanos() as u64
}

fn median(mut xs: Vec<u64>) -> f64 {
    xs.sort_unstable();
    xs[xs.len() / 2] as f64
}

fn median_f64(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn percentile(sorted_ns: &[u64], p: f64) -> f64 {
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx] as f64
}

/// Runs the serving suite under `plan`, printing one line per figure.
pub fn measure_plan(plan: ServePlan) -> ServeMeasurements {
    let mut entries: Vec<Entry> = Vec::new();
    let mut record = |name: &str, ns: f64| {
        println!("{name:<44} {ns:>14.1} ns");
        entries.push(Entry {
            name: name.to_string(),
            median_ns: ns,
        });
    };

    let net = Arc::new(zoo::tiny_fasterm(0).network);
    let config = AmcConfig::default();
    let slo_ns = SLO_MS * 1e6;

    // ------------------------------------------------------------------
    // SLO ramp: double the stream count until one worker misses the p99
    // latency budget. One closed-loop pass per level (the figure is an
    // operating point, not a microbenchmark).
    // ------------------------------------------------------------------
    let mut streams_at_slo = 0usize;
    let mut p50_ns = 0.0;
    let mut p99_ns = 0.0;
    let mut level = plan.ramp_start.max(1);
    loop {
        let traffic = render_traffic(level, plan.ticks);
        let (mut tick_ns, _) = engine_pass(&net, config, 1, &traffic);
        tick_ns.sort_unstable();
        let (p50, p99) = (percentile(&tick_ns, 0.50), percentile(&tick_ns, 0.99));
        record(&format!("serve/tick_p99/{level}_streams"), p99);
        let met = p99 <= slo_ns;
        println!(
            "  {level} streams: p50 {:.2} ms, p99 {:.2} ms — {}",
            p50 / 1e6,
            p99 / 1e6,
            if met { "within SLO" } else { "MISSED SLO" }
        );
        if met {
            streams_at_slo = level;
            p50_ns = p50;
            p99_ns = p99;
        } else if streams_at_slo > 0 {
            break;
        } else {
            // Even the smallest fleet misses: report its latencies so the
            // trajectory still carries the observed operating point.
            p50_ns = p50;
            p99_ns = p99;
            break;
        }
        if level >= plan.ramp_cap {
            break;
        }
        level *= 2;
    }
    println!(
        "streams per core at {SLO_MS:.1} ms SLO: {streams_at_slo} (p50 {:.2} ms, p99 {:.2} ms)",
        p50_ns / 1e6,
        p99_ns / 1e6
    );

    // ------------------------------------------------------------------
    // Overhead + scaling ratios on a fixed fleet, replaying identical
    // pre-rendered traffic. Passes are *paired*: each pass runs the serial
    // oracles, the one-worker engine, and the threaded engine back to
    // back and records the per-pass ratios; the median ratio is reported.
    // Pairing matters on a noisy shared container — run-to-run wall-time
    // drift of ±15% is routine, but adjacent runs see the same weather,
    // so the per-pass ratio divides it out.
    // ------------------------------------------------------------------
    let traffic = render_traffic(plan.ratio_streams, plan.ticks);
    // Warmup: touch every path once so first-pass cold caches and lazy
    // page faults do not land inside a single side of a pair.
    serial_pass(&net, config, &traffic);
    engine_pass(&net, config, 1, &traffic);
    engine_pass(&net, config, plan.threaded_workers, &traffic);

    let mut serial_runs = Vec::with_capacity(plan.passes);
    let mut engine1_runs = Vec::with_capacity(plan.passes);
    let mut threaded_runs = Vec::with_capacity(plan.passes);
    let mut overhead_ratios = Vec::with_capacity(plan.passes);
    let mut scaling_ratios = Vec::with_capacity(plan.passes);
    let mut session_bytes = 0.0;
    for _ in 0..plan.passes {
        let serial_ns = serial_pass(&net, config, &traffic);
        let (tick_ns, bytes) = engine_pass(&net, config, 1, &traffic);
        let engine1_ns: u64 = tick_ns.iter().sum();
        session_bytes = bytes;
        let (tick_ns, _) = engine_pass(&net, config, plan.threaded_workers, &traffic);
        let threaded_ns: u64 = tick_ns.iter().sum();
        serial_runs.push(serial_ns);
        engine1_runs.push(engine1_ns);
        threaded_runs.push(threaded_ns);
        overhead_ratios.push(serial_ns as f64 / engine1_ns as f64);
        scaling_ratios.push(serial_ns as f64 / threaded_ns as f64);
    }
    record("serve/ratio_fleet/serial_oracles", median(serial_runs));
    record("serve/ratio_fleet/engine_1worker", median(engine1_runs));
    record(
        &format!("serve/ratio_fleet/engine_{}workers", plan.threaded_workers),
        median(threaded_runs),
    );

    let serial_over_single_worker_engine = median_f64(overhead_ratios);
    let serve_threaded_over_serial = median_f64(scaling_ratios);
    println!(
        "single-worker engine overhead: serial/engine = {serial_over_single_worker_engine:.3}x \
         (strict floor {STRICT_OVERHEAD_FLOOR})"
    );
    println!(
        "threaded scaling ({} workers): serial/threaded = {serve_threaded_over_serial:.3}x \
         (advisory: host-topology-dependent)",
        plan.threaded_workers
    );
    println!("per-session footprint under load: {session_bytes:.0} bytes");

    ServeMeasurements {
        entries,
        streams_per_core_at_slo: streams_at_slo as f64,
        p50_frame_latency_us: p50_ns / 1e3,
        p99_frame_latency_us: p99_ns / 1e3,
        per_session_bytes: session_bytes,
        serial_over_single_worker_engine,
        serve_threaded_over_serial,
        threaded_workers: plan.threaded_workers,
    }
}

/// Runs the serving suite for a mode (see [`ServePlan::for_mode`]).
pub fn measure(mode: Mode) -> ServeMeasurements {
    measure_plan(ServePlan::for_mode(mode))
}

impl ServeMeasurements {
    /// Renders the `BENCH_serve.json` document.
    pub fn to_json(&self) -> String {
        let mut body = format!(
            "{{\n  \"bench\": \"serve_engine\",\n  {},\n  \"entries\": [\n",
            crate::trajectory::host_json()
        );
        for (i, e) in self.entries.iter().enumerate() {
            let _ = write!(
                body,
                "    {{\"name\": \"{}\", \"median_ns\": {:.1}}}",
                e.name, e.median_ns
            );
            body.push_str(if i + 1 < self.entries.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        let _ = write!(
            body,
            "  ],\n  \"slo_ms\": {SLO_MS:.1},\n  \"streams_per_core_at_slo\": {:.0},\n  \"p50_frame_latency_us\": {:.1},\n  \"p99_frame_latency_us\": {:.1},\n  \"per_session_bytes\": {:.0},\n  \"serial_over_single_worker_engine\": {:.3},\n  \"serve_threaded_over_serial\": {:.3},\n  \"threaded_workers\": {}\n}}\n",
            self.streams_per_core_at_slo,
            self.p50_frame_latency_us,
            self.p99_frame_latency_us,
            self.per_session_bytes,
            self.serial_over_single_worker_engine,
            self.serve_threaded_over_serial,
            self.threaded_workers
        );
        body
    }

    /// The serving ratios the CI gate tracks against `BENCH_serve.json`.
    ///
    /// Only `serial_over_single_worker_engine` is strict: one thread vs
    /// one thread on identical traffic divides the host out, and the gate
    /// additionally enforces the absolute [`STRICT_OVERHEAD_FLOOR`] on it.
    /// Everything else is an operating point of the measuring host
    /// (stream capacity, core topology, allocator) — advisory per the
    /// PR-3 rule.
    pub fn tracked_ratios(&self) -> Vec<TrackedRatio> {
        vec![
            TrackedRatio {
                key: "serial_over_single_worker_engine".to_string(),
                value: self.serial_over_single_worker_engine,
                advisory: false,
            },
            TrackedRatio {
                key: "serve_threaded_over_serial".to_string(),
                value: self.serve_threaded_over_serial,
                advisory: true,
            },
            TrackedRatio {
                key: "streams_per_core_at_slo".to_string(),
                value: self.streams_per_core_at_slo,
                advisory: true,
            },
            TrackedRatio {
                key: "per_session_bytes".to_string(),
                value: self.per_session_bytes,
                advisory: true,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::extract_number;

    /// A plan small enough for unit tests: two ramp levels, two streams.
    fn micro() -> ServePlan {
        ServePlan {
            passes: 1,
            ticks: 2,
            ramp_start: 2,
            ramp_cap: 4,
            ratio_streams: 2,
            threaded_workers: 2,
        }
    }

    #[test]
    fn micro_plan_produces_finite_figures_and_roundtripping_json() {
        let m = measure_plan(micro());
        assert!(m.serial_over_single_worker_engine.is_finite());
        assert!(m.serial_over_single_worker_engine > 0.0);
        assert!(m.serve_threaded_over_serial > 0.0);
        assert!(m.p99_frame_latency_us >= m.p50_frame_latency_us);
        assert!(m.per_session_bytes > 0.0);
        let json = m.to_json();
        for ratio in m.tracked_ratios() {
            let read = extract_number(&json, &ratio.key)
                .unwrap_or_else(|| panic!("{} missing from JSON", ratio.key));
            let tol = ratio.value.abs().max(1.0) * 0.01;
            assert!(
                (read - ratio.value).abs() <= tol,
                "{}: wrote {} read {read}",
                ratio.key,
                ratio.value
            );
        }
        assert_eq!(extract_number(&json, "slo_ms"), Some(33.3));
    }

    #[test]
    fn only_single_worker_overhead_is_strict() {
        let m = measure_plan(micro());
        let strict: Vec<String> = m
            .tracked_ratios()
            .into_iter()
            .filter(|r| !r.advisory)
            .map(|r| r.key)
            .collect();
        assert_eq!(strict, vec!["serial_over_single_worker_engine"]);
    }
}

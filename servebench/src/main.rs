//! `servebench`: the open-loop serving benchmark of the EVA² engine.
//!
//! ```text
//! servebench --workload <steady_cams|cut_storm|fleet_churn> --seed <n>
//!            --seconds <s> --trace <0|1>
//! ```
//!
//! One run serves one workload through `eva2_core::serve::Engine`: set-up
//! (timed several times), then [`ROUNDS`] rounds, each of closed-loop
//! throughput passes, a share of the open-loop run at the workload's
//! committed stream count (latency, SLO attainment, memory) and a capacity
//! probe of the bisection for `streams_at_slo`. Every frame served in the
//! throughput passes and the committed-count run is replayed through the
//! layers' public functions and must match bit for bit. The replay of the
//! committed-count run also checks each key frame's prefix activation
//! against the direct convolution loops, which share no kernel with the
//! engine. On `fleet_churn` the committed-count run is also re-driven
//! through a one-worker engine and must match too. Any mismatch exits
//! non-zero naming the workload, stream and tick. (Probe frames run the
//! same engine code at other stream counts; replaying them too would
//! double the run.)
//!
//! Times are process CPU time, which adds up across a worker pool: on
//! `fleet_churn` the end-to-end figures are those of the same work on one
//! core, so they show the pool's overhead but not its parallel speed-up.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of the traced replay (`--trace 1`). The line before
//! it carries the host facts and sample counts (`provenance {...}`).

mod provenance;
mod replay;
mod sched;
mod serving;
mod stats;
mod workload;

use eva2_cnn::network::Network;
use replay::{bit_identical, Counters, Mode, Reference, SpanKind, Spans};
use sched::{
    process_cpu_s, CpuClock, LoopConfig, RunRecord, Schedule, FRAME_INTERVAL_S, SLO_S,
    TICK_PERIOD_S,
};
use serving::{EngineServer, Kind, ServedFrame, Tag};
use stats::{mean, median, percentile, sorted};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workload::{Traffic, Workload, WORKLOADS};

const USAGE: &str = "usage: servebench --workload <steady_cams|cut_storm|fleet_churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Rounds the run is split into; each round runs throughput passes, a
/// share of the committed-count run and some capacity probes.
const ROUNDS: usize = 5;
/// Share of `--seconds` the committed-count run lasts over all rounds (at
/// least [`FIXED_MIN_S`], so its ticks support a p99).
const FIXED_SHARE: f64 = 0.3;
const FIXED_MIN_S: f64 = 7.0;
/// Share of `--seconds` each capacity probe lasts.
const PROBE_SHARE: f64 = 0.08;
const PROBE_MIN_S: f64 = 1.5;
/// Capacity probes per round before the last, which finishes the search.
const PROBES_PER_ROUND: usize = 1;
/// Tries of a stream count: it meets the SLO only if every try does, so
/// that capacity is measured at the host's base speed (see
/// `throughput_fps`) and not at a passing boost.
const PROBE_TRIES: usize = 3;
/// Closed-loop throughput passes per round, all over the same first
/// frames of the round's traffic, this share of `--seconds` worth per
/// stream. `throughput_fps` is the slowest pass of the run: on a shared
/// host, passes run at a steady base speed or, while the host lets the CPU
/// boost, faster by a varying amount, so the slowest pass is the steady one.
const PASSES_PER_ROUND: usize = 3;
const THROUGHPUT_SHARE: f64 = 0.02;
/// Set-up repetitions per round behind `setup_s`; spread over the rounds
/// so that its median, too, samples the whole run.
const SETUP_REPS_PER_ROUND: usize = 5;
const SETUP_REPS: usize = ROUNDS * SETUP_REPS_PER_ROUND;
/// Bisection resolution: the reported count is within 5% of capacity.
const BISECT_TOL: f64 = 0.05;
/// Salt separating the committed-count traffic from the probe traffic.
const FIXED_SALT: u64 = 0xF1EE_D000_0000_0001;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Collects metrics in report order.
#[derive(Default)]
struct Report(Vec<Metric>);

impl Report {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push('}');
        s
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `q`-quantile, or an error naming what lacks samples.
fn quantile(xs: &[f64], q: f64, what: &str) -> Result<f64, String> {
    percentile(&sorted(xs), q).ok_or_else(|| {
        format!(
            "{what}: {} samples cannot support a {q} quantile (needs ten beyond it)",
            xs.len()
        )
    })
}

fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn frames_for(seconds: f64) -> usize {
    (seconds / FRAME_INTERVAL_S).round().max(1.0) as usize
}

/// Replays `served` and fails with the workload, phase, round, stream and
/// tick of the first frame the replay does not reproduce.
fn check(
    net: &Network,
    w: &Workload,
    traffic: &Traffic,
    served: &[ServedFrame],
    mode: Mode<'_>,
    phase: &str,
    round: usize,
) -> Result<(Spans, Counters), String> {
    replay::replay(net, w, traffic, served, mode)
        .map_err(|m| format!("MISMATCH workload {} ({phase}, round {round}): {m}", w.name))
}

/// On `fleet_churn`: the same calls through a one-worker engine must give
/// the same outcomes and bits. Returns the one-worker engine's tick time.
fn check_one_worker(
    w: &Workload,
    traffic: &Traffic,
    net: &Arc<Network>,
    streams: usize,
    many: &EngineServer<'_>,
    round: usize,
) -> Result<f64, String> {
    let (one, busy) = serving::redrive(w, traffic, Arc::clone(net), streams, 1, &many.ticks)
        .map_err(|e| format!("one-worker engine: {e}"))?;
    let mismatch = |tick: usize, stream: u32, what: &str| {
        format!(
            "MISMATCH workload {} (workers {} vs 1, round {round}): stream {stream} tick {tick}: {what}",
            w.name,
            w.workers()
        )
    };
    for (t, (a, b)) in many.ticks.iter().zip(&one.ticks).enumerate() {
        if let Some(i) = (0..a.tags.len()).find(|&i| a.tags[i] != b.tags[i]) {
            let what = format!("outcome {:?} vs {:?}", a.tags[i], b.tags[i]);
            return Err(mismatch(t, a.jobs[i].stream, &what));
        }
    }
    for (a, b) in many.served.iter().zip(&one.served) {
        if a.kind != b.kind || !bit_identical(&a.output, &b.output) {
            return Err(mismatch(a.tick as usize, a.stream, "output bits differ"));
        }
    }
    Ok(busy)
}

/// Relative L2 error of each served output against the dense forward
/// pass on the same frame.
fn output_rel_err(net: &Network, traffic: &Traffic, served: &[ServedFrame]) -> Vec<f64> {
    served
        .iter()
        .map(|f| {
            let image = &traffic.frames[f.stream as usize][f.frame as usize];
            let dense = net.forward(&image.to_tensor());
            let (mut diff, mut norm) = (0.0f64, 0.0f64);
            for (&a, &b) in f.output.as_slice().iter().zip(dense.as_slice()) {
                diff += (f64::from(a) - f64::from(b)).powi(2);
                norm += f64::from(b).powi(2);
            }
            diff.sqrt() / norm.sqrt().max(1e-12)
        })
        .collect()
}

/// Set-up timed `SETUP_REPS_PER_ROUND` times: building the network, the
/// engine (analysis gate included) and every session of the committed
/// count. Appends the seconds of each to `totals` and the per-session open
/// time, µs, to `opens`.
fn measure_setup(
    w: &Workload,
    workers: usize,
    totals: &mut Vec<f64>,
    opens: &mut Vec<f64>,
) -> Result<(), String> {
    let n = w.fixed_streams;
    for _ in 0..SETUP_REPS_PER_ROUND {
        let t0 = process_cpu_s();
        let net = serving::network();
        let mut engine =
            eva2_core::serve::Engine::with_limits(net, w.config(), w.limits(n, workers))
                .map_err(|e| format!("engine: {e}"))?;
        let t1 = process_cpu_s();
        let sessions = (0..n)
            .map(|s| engine.open_session_with(w.stream_config(s)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("session: {e}"))?;
        let t2 = process_cpu_s();
        std::hint::black_box(&sessions);
        totals.push(t2 - t0);
        opens.push((t2 - t1) * 1e6 / n as f64);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The committed-count runs of all rounds, merged.
#[derive(Default)]
struct Fixed {
    rec: RunRecord,
    counts: serving::Counts,
    evictions: u64,
    footprint_kib: Vec<f64>,
    keys_per_tick: Vec<f64>,
    rel_err: Vec<f64>,
    counters: Counters,
    spans: Option<Spans>,
    /// Engine CPU time on one worker (the re-drive on `fleet_churn`).
    engine_busy_s: f64,
    replay_off_s: f64,
    replay_on_s: f64,
    prefix_macs: u64,
    total_macs: u64,
}

fn run(args: &Args) -> Result<(), String> {
    let w = workload::by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}\n{USAGE}", args.workload))?;
    let host = provenance::Host::probe();
    let started = Instant::now();
    let workers = w.workers();
    let n_fixed = w.fixed_streams;
    println!(
        "servebench {} seed {} seconds {} trace {} workers {workers}",
        w.name, args.seed, args.seconds, args.trace as u8
    );

    // The analysis gate on its own; set-up is timed in every round.
    let net = serving::network();
    let verify_ms = median(
        &(0..SETUP_REPS)
            .map(|_| {
                let t = process_cpu_s();
                std::hint::black_box(w.config().analyze(&net).map_err(|e| e.to_string()))
                    .map(|_| (process_cpu_s() - t) * 1e3)
            })
            .collect::<Result<Vec<_>, _>>()?,
    );

    let reference = Reference::new(&net, w);

    // Inputs: everything rendered up front from the seed.
    let s = args.seconds;
    let round_frames = frames_for((FIXED_SHARE * s).max(FIXED_MIN_S) / ROUNDS as f64);
    let probe_frames = frames_for((PROBE_SHARE * s).max(PROBE_MIN_S));
    let tp_frames = frames_for(THROUGHPUT_SHARE * s).min(round_frames);
    let round_traffic: Vec<Traffic> = (0..ROUNDS as u64)
        .map(|r| {
            Traffic::render(
                w,
                n_fixed,
                round_frames,
                args.seed ^ FIXED_SALT.wrapping_mul(r + 1),
            )
        })
        .collect();
    let probe_traffic = Traffic::render(w, w.max_streams, probe_frames, args.seed);
    let new_server = |traffic, streams| {
        EngineServer::new(w, traffic, Arc::clone(&net), streams, workers)
            .map_err(|e| format!("engine: {e}"))
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut fps = Vec::new();
    let (mut setups, mut opens) = (Vec::new(), Vec::new());
    let mut fixed = Fixed::default();
    let mut bisection: Option<sched::Bisection> = None;
    let mut probes = Vec::new();

    // Rounds of set-ups, throughput passes, a committed-count run and
    // capacity probes, so every metric samples the host over the whole run.
    for (round, traffic) in round_traffic.iter().enumerate() {
        measure_setup(w, workers, &mut setups, &mut opens)?;

        // Closed-loop saturated throughput, identical passes.
        for _ in 0..PASSES_PER_ROUND {
            let mut server = new_server(traffic, n_fixed)?;
            let rec = sched::run(
                &mut CpuClock::new(),
                &mut server,
                &Schedule::closed_loop(n_fixed, tp_frames),
                &LoopConfig::closed_loop(),
            );
            check(
                &net,
                w,
                traffic,
                &server.served,
                Mode::Plain,
                "throughput",
                round,
            )?;
            attempted += rec.attempted;
            failed += rec.failed;
            fps.push(rec.served() as f64 / rec.elapsed_s);
        }
        println!(
            "round {round} throughput: {}",
            fps[round * PASSES_PER_ROUND..]
                .iter()
                .map(|f| format!("{f:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        );

        // The committed stream count, open loop.
        let mut server = new_server(traffic, n_fixed)?;
        let rec = sched::run(
            &mut CpuClock::new(),
            &mut server,
            &traffic.schedule(n_fixed),
            &LoopConfig::open_loop(),
        );
        attempted += rec.attempted;
        failed += rec.failed;
        let (_, counters) = check(
            &net,
            w,
            traffic,
            &server.served,
            Mode::Reference(&reference),
            "fixed",
            round,
        )?;
        if args.trace {
            // The spans' cost: the same replay without and with them.
            let t = process_cpu_s();
            check(
                &net,
                w,
                traffic,
                &server.served,
                Mode::Plain,
                "untraced",
                round,
            )?;
            fixed.replay_off_s += process_cpu_s() - t;
            let t = process_cpu_s();
            let (spans, _) = check(
                &net,
                w,
                traffic,
                &server.served,
                Mode::Traced,
                "traced",
                round,
            )?;
            fixed.replay_on_s += process_cpu_s() - t;
            let tick_offset = fixed.keys_per_tick.len() as u32;
            match fixed.spans.as_mut() {
                Some(all) => all.absorb(spans, tick_offset),
                None => fixed.spans = Some(spans),
            }
        }
        fixed.engine_busy_s += match w.fleet {
            Some(_) => check_one_worker(w, traffic, &net, n_fixed, &server, round)?,
            None => rec.busy_s,
        };
        fixed
            .rel_err
            .extend(output_rel_err(&net, traffic, &server.served));
        fixed.counters += counters;
        fixed.counts += server.counts;
        fixed.evictions += server.evictions();
        fixed.footprint_kib.extend(&server.footprint_kib);
        fixed.keys_per_tick.extend(server.ticks.iter().map(|t| {
            t.tags
                .iter()
                .filter(|g| matches!(g, Tag::Served(Kind::Key | Kind::ForcedKey)))
                .count() as f64
        }));
        fixed.prefix_macs = server.prefix_macs();
        fixed.total_macs = server.total_macs();
        println!(
            "round {round} fixed {n_fixed} streams: {} of {} frames served, p50 {:.3} ms, \
             tick median {:.3} ms",
            rec.served(),
            rec.attempted,
            quantile(&rec.latency_s, 0.5, "frame latency")? * 1e3,
            median(&rec.tick_s) * 1e3
        );
        fixed.rec.absorb(rec);

        // Capacity at the SLO: bisection over open-loop probes, bracketed
        // by the saturated rate; the last round finishes the search.
        let b = bisection.get_or_insert_with(|| {
            let saturation = min(&fps) * FRAME_INTERVAL_S;
            sched::Bisection::new(
                (0.5 * saturation) as usize,
                (1.1 * saturation).ceil() as usize,
                w.max_streams,
                BISECT_TOL,
            )
        });
        let quota = if round + 1 == ROUNDS {
            usize::MAX
        } else {
            PROBES_PER_ROUND
        };
        for _ in 0..quota {
            let Some(n) = b.next() else { break };
            // Few streams need more frames each for a p99.
            let frames = sched::probe_frames(n, probe_frames);
            let long_traffic;
            let traffic = if frames > probe_frames {
                long_traffic = Traffic::render(w, n, frames, args.seed);
                &long_traffic
            } else {
                &probe_traffic
            };
            let mut meets = true;
            for _ in 0..PROBE_TRIES {
                let mut server = EngineServer::new(w, traffic, Arc::clone(&net), n, workers)
                    .map_err(|e| format!("engine: {e}"))?;
                let rec = sched::run(
                    &mut CpuClock::new(),
                    &mut server,
                    &traffic.schedule(n),
                    &LoopConfig::probe(),
                );
                meets = rec.meets_slo(SLO_S);
                println!(
                    "probe {n} streams: p99 {} over {} frames, backlog {} -> {}",
                    rec.latency_quantile_with_failures(0.99)
                        .map_or("n/a".into(), |p| format!("{:.2} ms", p * 1e3)),
                    rec.attempted,
                    if rec.overloaded { "grows" } else { "steady" },
                    if meets { "meets SLO" } else { "misses SLO" }
                );
                probes.push((n, rec.attempted));
                if !meets {
                    break;
                }
            }
            b.record(n, meets);
        }
    }
    let streams_at_slo = bisection.map_or(0, |b| b.result());
    let (setup_s, open_us) = (median(&setups), median(&opens));
    let throughput_fps = min(&fps);

    let rec = &fixed.rec;
    let served = rec.served();
    let frame_p50_ms = quantile(&rec.latency_s, 0.5, "frame latency")? * 1e3;
    let frame_p99_ms = quantile(&rec.latency_s, 0.99, "frame latency")? * 1e3;
    println!(
        "fixed {n_fixed} streams: {served} frames served of {} attempted, p50 {frame_p50_ms:.3} ms, \
         p99 {frame_p99_ms:.3} ms (n={served}), slo_miss_frac {:.5}, failed_frac {:.5}",
        rec.attempted,
        rec.slo_miss_frac(SLO_S),
        rec.failed as f64 / rec.attempted.max(1) as f64
    );
    println!("wall time: {:.2} s", started.elapsed().as_secs_f64());

    let mut report = Report::default();
    if args.trace {
        let spans = fixed.spans.as_ref().expect("traced rounds recorded spans");
        let path = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("trace-{}.tsv", w.name));
        replay::write_spans(&path, &net, &spans.buf)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("{} spans written to {}", spans.buf.len(), path.display());
        per_layer(&mut report, &net, &fixed, spans)?;
        report.add("analysis.verify_ms", verify_ms, "ms");
        report.add("serve.open_session_us", open_us, "us");
    } else {
        report.add("streams_at_slo", streams_at_slo as f64, "streams");
        report.add("frame_p50_ms", frame_p50_ms, "ms");
        report.add("frame_p99_ms", frame_p99_ms, "ms");
        report.add("slo_met_frac", 1.0 - rec.slo_miss_frac(SLO_S), "frac");
        report.add("throughput_fps", throughput_fps, "frames/s");
        report.add(
            "served_frac",
            served as f64 / rec.attempted.max(1) as f64,
            "frac",
        );
        report.add("output_rel_err", mean(&fixed.rel_err), "frac");
        report.add("setup_s", setup_s, "s");
        report.add("session_kib", median(&fixed.footprint_kib), "KiB");
    }
    for m in &report.0 {
        println!("metric {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(m) = report.0.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a number: {}", m.name, m.value));
    }

    let fixed_counts: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("\"{}\": {}", w.name, w.fixed_streams))
        .collect();
    let probe_list: Vec<String> = probes
        .iter()
        .map(|(n, frames)| format!("[{n}, {frames}]"))
        .collect();
    println!(
        "provenance {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"available_parallelism\": {}, \"cpu_model\": {}, \"rustc\": {}, \
         \"git_commit\": {}, \"workers\": {workers}, \"clock\": \"process_cpu\", \
         \"tick_period_ms\": {}, \"slo_ms\": {}, \"fixed_streams\": {{{}}}, \
         \"samples\": {{\"frame_latency\": {served}, \"ticks\": {}, \"rfbme_calls\": {}, \
         \"setup_reps\": {SETUP_REPS}, \"throughput_passes\": {}, \
         \"probes_streams_frames\": [{}]}}}}",
        json_string(w.name),
        args.seed,
        args.seconds,
        args.trace,
        json_string(&host.nproc),
        host.available_parallelism,
        json_string(&host.cpu_model),
        json_string(&host.rustc),
        json_string(&provenance::git_commit()),
        TICK_PERIOD_S * 1e3,
        SLO_S * 1e3,
        fixed_counts.join(", "),
        rec.tick_s.len(),
        fixed.counters.rfbme_calls,
        fps.len(),
        probe_list.join(", ")
    );
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        report.json()
    );
    Ok(())
}

/// The traced run's per-layer metrics.
fn per_layer(report: &mut Report, net: &Network, f: &Fixed, spans: &Spans) -> Result<(), String> {
    let ns_of = |pred: &dyn Fn(SpanKind) -> bool| -> f64 {
        spans
            .buf
            .iter()
            .filter(|s| pred(s.kind))
            .map(|s| spans.ns(s) as f64)
            .sum()
    };
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    let gflops = |macs_per: u64, n: u64, ns: f64| {
        if ns > 0.0 {
            2.0 * macs_per as f64 * n as f64 / ns
        } else {
            0.0
        }
    };
    let c = &f.counters;
    let rfbme_us: Vec<f64> = spans
        .buf
        .iter()
        .filter(|s| s.kind == SpanKind::Rfbme)
        .map(|s| spans.ns(s) as f64 / 1e3)
        .collect();
    report.add(
        "motion.rfbme_us_p50",
        quantile(&rfbme_us, 0.5, "rfbme")?,
        "us",
    );
    report.add(
        "motion.rfbme_us_p99",
        quantile(&rfbme_us, 0.99, "rfbme")?,
        "us",
    );
    report.add(
        "motion.ops_per_frame",
        per(c.rfbme_ops as f64, c.rfbme_calls),
        "ops",
    );
    report.add(
        "motion.refined_frac",
        1.0 - per(c.rejects as f64, c.candidates),
        "frac",
    );

    let prefix_ns = ns_of(&|k| matches!(k, SpanKind::Layer(_)));
    report.add("cnn.prefix_us_per_key", per(prefix_ns, c.keys) / 1e3, "us");
    report.add(
        "cnn.prefix_gflops",
        gflops(f.prefix_macs, c.keys, prefix_ns),
        "GFLOP/s",
    );
    for name in ["conv1", "conv2", "conv3"] {
        let i = net
            .layers()
            .iter()
            .position(|l| l.name() == name)
            .ok_or_else(|| format!("network has no {name}"))?;
        let ns = ns_of(&|k| k == SpanKind::Layer(i as u16));
        let macs = net.layers()[i].macs(net.shape_before(i));
        report.add(format!("cnn.{name}.us"), per(ns, c.keys) / 1e3, "us");
        report.add(
            format!("cnn.{name}.gflops"),
            gflops(macs, c.keys, ns),
            "GFLOP/s",
        );
    }
    let encode_ns = ns_of(&|k| k == SpanKind::Encode);
    report.add("sparse.encode_us", per(encode_ns, c.keys) / 1e3, "us");
    report.add("sparse.density", per(c.nnz as f64, c.entries), "frac");
    let warp_ns = ns_of(&|k| k == SpanKind::Warp);
    report.add("warp.us", per(warp_ns, c.predicted) / 1e3, "us");
    report.add(
        "warp.interpolations_per_frame",
        per(c.interpolations as f64, c.predicted),
        "count",
    );
    let suffix_ns = ns_of(&|k| k == SpanKind::Suffix);
    report.add("cnn.suffix_us", per(suffix_ns, c.frames) / 1e3, "us");
    report.add(
        "cnn.suffix_gflops",
        gflops(f.total_macs - f.prefix_macs, c.frames, suffix_ns),
        "GFLOP/s",
    );

    let rec = &f.rec;
    let served = rec.served();
    report.add(
        "policy.key_frac",
        per((f.counts.keys + f.counts.forced) as f64, served),
        "frac",
    );
    report.add(
        "policy.forced_key_frac",
        per(f.counts.forced as f64, served),
        "frac",
    );

    let ms = |xs: &[f64]| xs.iter().map(|t| t * 1e3).collect::<Vec<_>>();
    let tick_ms = ms(&rec.tick_s);
    report.add("serve.tick_ms_p50", quantile(&tick_ms, 0.5, "ticks")?, "ms");
    report.add(
        "serve.tick_ms_p99",
        quantile(&tick_ms, 0.99, "ticks")?,
        "ms",
    );
    report.add(
        "serve.queue_wait_ms_p99",
        quantile(&ms(&rec.queue_wait_s), 0.99, "queue wait")?,
        "ms",
    );
    let batch: Vec<f64> = rec.batch_frames.iter().map(|&b| f64::from(b)).collect();
    report.add("serve.batch_frames", mean(&batch), "frames");
    report.add("serve.batch_keys", mean(&f.keys_per_tick), "frames");
    report.add(
        "serve.shed_frac",
        per(rec.shed as f64, rec.submissions),
        "frac",
    );
    report.add(
        "serve.evictions",
        per(f.evictions as f64 * 1e3, served),
        "per_1k_frames",
    );
    report.add(
        "serve.rehydrations",
        per(f.counts.rehydrations as f64 * 1e3, served),
        "per_1k_frames",
    );
    let layer_ns = ns_of(&|k| k != SpanKind::Tick);
    report.add(
        "serve.self_us_per_frame",
        (f.engine_busy_s * 1e9 - layer_ns) / served.max(1) as f64 / 1e3,
        "us",
    );
    report.add(
        "harness.tick_late_ms_p99",
        quantile(&ms(&rec.tick_late_s), 0.99, "tick lateness")?,
        "ms",
    );
    report.add(
        "harness.wall_over_cpu",
        rec.wall_busy_s / rec.busy_s,
        "ratio",
    );
    report.add(
        "trace.overhead_frac",
        f.replay_on_s / f.replay_off_s - 1.0,
        "frac",
    );
    Ok(())
}

//! The three traffic mixes, their committed operating points, and the
//! seeded traffic each run is built from.

use crate::sched::{Pause, Schedule, FRAME_INTERVAL_S};
use eva2_core::executor::AmcConfig;
use eva2_core::policy::PolicyConfig;
use eva2_core::serve::EngineLimits;
use eva2_tensor::GrayImage;
use eva2_video::load::{LoadConfig, LoadGenerator};

/// Frame side in pixels (`tiny_fasterm` input).
pub const FRAME_SIDE: usize = 48;
/// Weight seed of the served network. Fixed: only the traffic follows the
/// run's seed.
pub const NET_SEED: u64 = 7;

/// Finite limits and stream behaviour of the fleet workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fleet {
    /// `EngineLimits::max_key_frames_per_tick`.
    pub max_key_frames_per_tick: usize,
    /// `EngineLimits::max_total_bytes`, per stream of the run.
    pub total_bytes_per_stream: usize,
    /// `EngineLimits::idle_evict_ticks`.
    pub idle_evict_ticks: u64,
    /// Share of streams that pause once and resume.
    pub pause_share: f64,
    /// How long a paused camera stays off.
    pub pause_s: f64,
    /// Share of streams whose session is closed and a new one opened
    /// mid-run.
    pub churn_share: f64,
}

/// One named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// `LoadConfig::min_cut_gap`: frames between scene cuts, at least.
    pub min_cut_gap: usize,
    /// `PolicyConfig::BlockError` threshold.
    pub key_threshold: f32,
    /// `AmcConfig::max_residual_error`.
    pub max_residual_error: f32,
    /// The committed stream count for the latency metrics.
    pub fixed_streams: usize,
    /// Streams rendered for the capacity probes (the bisection ceiling).
    pub max_streams: usize,
    /// Finite limits, Q8.8 sessions, pauses and churn; `None` serves with
    /// one worker and unlimited limits.
    pub fleet: Option<Fleet>,
}

/// `steady_cams`, `cut_storm` and `fleet_churn`. Thresholds and limits are
/// set so each loads the layers it is meant to (measured key fractions
/// 0.25, 0.95 and 0.42); committed counts sit at 45–60% of the measured
/// `streams_at_slo`. `servebench/README.md` says why each workload exists.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "steady_cams",
        min_cut_gap: 64,
        key_threshold: 6.5,
        max_residual_error: f32::INFINITY,
        fixed_streams: 36,
        max_streams: 160,
        fleet: None,
    },
    Workload {
        name: "cut_storm",
        min_cut_gap: 2,
        key_threshold: 3.0,
        max_residual_error: 2.5,
        fixed_streams: 26,
        max_streams: 120,
        fleet: None,
    },
    Workload {
        name: "fleet_churn",
        min_cut_gap: 8,
        key_threshold: 5.0,
        max_residual_error: f32::INFINITY,
        fixed_streams: 20,
        max_streams: 160,
        fleet: Some(Fleet {
            max_key_frames_per_tick: 6,
            total_bytes_per_stream: 94 * 1024,
            idle_evict_ticks: 30,
            pause_share: 0.1,
            pause_s: 0.5,
            churn_share: 0.1,
        }),
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The engine's base configuration.
    pub fn config(&self) -> AmcConfig {
        AmcConfig::builder()
            .policy(PolicyConfig::BlockError {
                threshold: self.key_threshold,
                max_gap: 16,
            })
            .max_residual_error(self.max_residual_error)
            .build()
            .expect("workload configurations are valid")
    }

    /// Stream `s`'s configuration: on the fleet, every odd stream warps
    /// with the Q8.8 datapath.
    pub fn stream_config(&self, s: usize) -> AmcConfig {
        AmcConfig {
            fixed_point: self.fleet.is_some() && s % 2 == 1,
            ..self.config()
        }
    }

    /// Worker threads: the host's parallelism on the fleet, else one.
    pub fn workers(&self) -> usize {
        match self.fleet {
            Some(_) => std::thread::available_parallelism().map_or(1, usize::from),
            None => 1,
        }
    }

    /// Limits for a run of `streams` streams with `workers` workers.
    pub fn limits(&self, streams: usize, workers: usize) -> EngineLimits {
        let mut b = EngineLimits::builder().worker_threads(workers);
        if let Some(f) = self.fleet {
            b = b
                .max_key_frames_per_tick(f.max_key_frames_per_tick)
                .max_total_bytes(f.total_bytes_per_stream * streams)
                .idle_evict_ticks(f.idle_evict_ticks);
        }
        b.build().expect("workload limits are valid")
    }
}

/// Pre-rendered frames plus when they fall due and which sessions churn.
#[derive(Debug, Clone)]
pub struct Traffic {
    /// `frames[s][i]`: frame `i` of stream `s`.
    pub frames: Vec<Vec<GrayImage>>,
    /// Per-stream camera phase within a frame interval.
    pub phases: Vec<f64>,
    /// Per-stream pause, if the stream pauses.
    pub pauses: Vec<Option<Pause>>,
    /// Per-stream frame before which the session is replaced, if it churns.
    pub reopen_at: Vec<Option<u32>>,
}

/// SplitMix64: the benchmark's own seeded stream of schedule choices.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Traffic {
    /// Renders `streams` × `frames` of this workload's traffic from `seed`.
    /// The same arguments always give the same frames and schedule.
    pub fn render(w: &Workload, streams: usize, frames: usize, seed: u64) -> Self {
        let mut load = LoadConfig::new(streams, FRAME_SIDE, FRAME_SIDE).with_seed(seed);
        load.min_cut_gap = w.min_cut_gap;
        let mut gen = LoadGenerator::new(load);
        let mut per_stream: Vec<Vec<GrayImage>> =
            (0..streams).map(|_| Vec::with_capacity(frames)).collect();
        for _ in 0..frames {
            for f in gen.tick() {
                per_stream[f.stream].push(f.image);
            }
        }
        let mut rng = SplitMix::new(seed ^ 0x00C0_FFEE_D15C_0000);
        let phases = (0..streams)
            .map(|_| rng.unit() * FRAME_INTERVAL_S)
            .collect();
        // Pauses and churn land in the middle half of a stream's frames.
        let mut pick = |share: f64| {
            let hit = rng.unit() < share;
            let at = frames as f64 * (0.25 + 0.5 * rng.unit());
            hit.then_some(at as u32)
        };
        let (mut pauses, mut reopen_at) = (Vec::new(), Vec::new());
        for _ in 0..streams {
            let fleet = w.fleet;
            pauses.push(fleet.and_then(|f| {
                pick(f.pause_share).map(|at_frame| Pause {
                    at_frame,
                    seconds: f.pause_s,
                })
            }));
            reopen_at.push(fleet.and_then(|f| pick(f.churn_share)));
        }
        Self {
            frames: per_stream,
            phases,
            pauses,
            reopen_at,
        }
    }

    /// The open-loop schedule of the first `streams` streams.
    pub fn schedule(&self, streams: usize) -> Schedule {
        let frames = self.frames.first().map_or(0, Vec::len);
        Schedule::cameras(frames, &self.phases[..streams], &self.pauses[..streams])
    }
}

//! The traced replay: the served traffic again, through each layer's
//! public function, in the engine's order, checked bit for bit against
//! what the engine served.
//!
//! Per tick the engine estimates motion for every stream, runs the
//! prefix of all key frames as one batch, then completes each frame (key:
//! sparse encode + suffix; predicted: warp + suffix). The replay does the
//! same calls in the same order, following the frame kind the engine
//! reported, and keeps its own copy of each stream's key state. With
//! tracing on, every call is one [`Span`] in a buffer sized before the
//! replay starts.
//!
//! The engine and the replay call the same kernels, so bit identity alone
//! cannot see a defect inside one. Given a [`Reference`], the replay
//! therefore also checks every key frame's prefix activation against the
//! prefix computed without the GEMM, im2col or batched paths.

use crate::sched::process_cpu_s;
use crate::serving::{Kind, ServedFrame};
use crate::workload::{Traffic, Workload};
use eva2_cnn::describe::LayerKind;
use eva2_cnn::network::Network;
use eva2_cnn::{Conv2d, Layer};
use eva2_core::sparse::RleActivation;
use eva2_core::warp::{warp_activation_fixed_sparse, warp_activation_sparse};
use eva2_motion::rfbme::{Rfbme, RfbmeResult, RfbmeScratch};
use eva2_tensor::interp::Interpolation;
use eva2_tensor::{GemmScratch, GrayImage, Tensor3};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::io::Write as _;

/// What a span timed. Prefix layers are `Layer(index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One tick of the replay; the parent of every span sharing its tick.
    Tick,
    /// `Rfbme::estimate_with` for one frame.
    Rfbme,
    /// One prefix layer's `Layer::forward_batch` over a tick's key frames.
    Layer(u16),
    /// `RleActivation::encode` + `to_sparse` + `to_dense` for one key frame.
    Encode,
    /// `warp_activation_sparse` or `_fixed_sparse` for one predicted frame.
    Warp,
    /// `Network::forward_suffix_sparse` for one frame.
    Suffix,
}

/// One timed call. Batch-level spans carry `u32::MAX` as stream and frame.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed.
    pub kind: SpanKind,
    /// Tick id.
    pub tick: u32,
    /// Stream id.
    pub stream: u32,
    /// Frame id.
    pub frame: u32,
    /// Start, process CPU nanoseconds from the replay's origin.
    pub start_ns: u64,
    /// End, process CPU nanoseconds from the replay's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Preallocated span buffer on the process CPU clock; disabled, it
/// records nothing and reads no clock.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: f64,
    /// What an empty span measures (the clock reads themselves), in
    /// nanoseconds; subtracted from every span by [`Spans::ns`].
    pub bias_ns: u64,
    /// Recorded spans, in the order their calls completed.
    pub buf: Vec<Span>,
}

impl Spans {
    fn new(enabled: bool, capacity: usize) -> Self {
        let mut spans = Self {
            enabled,
            origin: process_cpu_s(),
            bias_ns: 0,
            buf: Vec::with_capacity(if enabled { capacity } else { 0 }),
        };
        if enabled {
            let mut empty: Vec<u64> = (0..101)
                .map(|_| {
                    let start = spans.now_ns();
                    spans.now_ns() - start
                })
                .collect();
            empty.sort_unstable();
            spans.bias_ns = empty[empty.len() / 2];
        }
        spans
    }

    /// Appends another replay's spans, shifting their tick ids by
    /// `tick_offset` so ids stay unique across rounds.
    pub fn absorb(&mut self, other: Spans, tick_offset: u32) {
        self.buf.extend(other.buf.into_iter().map(|s| Span {
            tick: s.tick + tick_offset,
            ..s
        }));
    }

    /// A span's duration net of the clock-read bias, nanoseconds.
    pub fn ns(&self, span: &Span) -> u64 {
        span.ns().saturating_sub(self.bias_ns)
    }

    fn now_ns(&self) -> u64 {
        ((process_cpu_s() - self.origin) * 1e9) as u64
    }

    fn record<T>(&mut self, kind: SpanKind, ids: (u32, u32, u32), f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.buf.push(Span {
            kind,
            tick: ids.0,
            stream: ids.1,
            frame: ids.2,
            start_ns,
            end_ns,
        });
        out
    }
}

/// Counts taken at the layer calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Frames replayed.
    pub frames: u64,
    /// Key frames replayed (forced included).
    pub keys: u64,
    /// Predicted frames replayed.
    pub predicted: u64,
    /// `Rfbme::estimate_with` calls.
    pub rfbme_calls: u64,
    /// RFBME arithmetic operations.
    pub rfbme_ops: u64,
    /// RFBME candidates examined.
    pub candidates: u64,
    /// Candidates rejected by the level-0 or level-1 bound.
    pub rejects: u64,
    /// Warp interpolations.
    pub interpolations: u64,
    /// Non-zero entries across stored key activations.
    pub nnz: u64,
    /// Entries across stored key activations.
    pub entries: u64,
}

impl std::ops::AddAssign for Counters {
    fn add_assign(&mut self, o: Self) {
        self.frames += o.frames;
        self.keys += o.keys;
        self.predicted += o.predicted;
        self.rfbme_calls += o.rfbme_calls;
        self.rfbme_ops += o.rfbme_ops;
        self.candidates += o.candidates;
        self.rejects += o.rejects;
        self.interpolations += o.interpolations;
        self.nnz += o.nnz;
        self.entries += o.entries;
    }
}

/// A served frame the replay does not reproduce.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Stream id.
    pub stream: u32,
    /// Tick id.
    pub tick: u32,
    /// Frame id.
    pub frame: u32,
    /// What differed.
    pub what: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stream {} tick {} frame {}: {}",
            self.stream, self.tick, self.frame, self.what
        )
    }
}

struct KeyState {
    image: GrayImage,
    decoded: Tensor3,
}

/// Largest difference between a key frame's prefix activation and the
/// reference, relative to the reference's largest magnitude (at least 1),
/// that still passes. Summation order differs between the GEMM and the
/// direct loops, which moves float results by a few ulps, far below this.
pub const REFERENCE_TOL: f32 = 1e-4;

/// The prefix computed by the reference loops: [`Conv2d::forward_naive`]
/// (the direct six-loop convolution) for every convolution, rebuilt from
/// the layer's description and parameters, and [`Layer::forward`] for the
/// parameter-free layers.
pub struct Reference {
    layers: Vec<RefLayer>,
}

enum RefLayer {
    Naive(Box<Conv2d>),
    Plain(Box<dyn Layer>),
}

impl Reference {
    /// The reference for the prefix workload `w` runs on `net`.
    pub fn new(net: &Network, w: &Workload) -> Self {
        let (target, _) = w
            .config()
            .target
            .geometry(net)
            .expect("the workload's target resolves");
        let layers = net.layers()[..=target]
            .iter()
            .map(|layer| {
                let LayerKind::Conv {
                    in_channels,
                    out_channels,
                } = layer.describe().kind
                else {
                    return RefLayer::Plain(layer.clone_box());
                };
                let g = layer.geometry().expect("a convolution has geometry");
                // The generator only fills weights that load_params replaces.
                let mut conv = Conv2d::new(
                    layer.name(),
                    in_channels,
                    out_channels,
                    g.kernel,
                    g.stride,
                    g.padding,
                    &mut ChaCha8Rng::seed_from_u64(0),
                );
                conv.load_params(&layer.params());
                RefLayer::Naive(Box::new(conv))
            })
            .collect();
        Self { layers }
    }

    /// The reference prefix activation of `input`.
    pub fn forward(&self, input: Tensor3) -> Tensor3 {
        self.layers.iter().fold(input, |x, layer| match layer {
            RefLayer::Naive(conv) => conv.forward_naive(&x),
            RefLayer::Plain(layer) => layer.forward(&x),
        })
    }

    /// `None` when `act` matches the reference within [`REFERENCE_TOL`],
    /// otherwise what differed.
    pub fn compare(act: &Tensor3, reference: &Tensor3) -> Option<String> {
        if act.shape() != reference.shape() {
            return Some(format!(
                "prefix activation shape {:?} vs reference {:?}",
                act.shape(),
                reference.shape()
            ));
        }
        let scale = reference
            .as_slice()
            .iter()
            .fold(1.0f32, |m, x| m.max(x.abs()));
        let diff = act
            .as_slice()
            .iter()
            .zip(reference.as_slice())
            .fold(0.0f32, |m, (a, b)| {
                // A NaN difference sticks, and fails below.
                let d = (a - b).abs();
                if d > m || d.is_nan() {
                    d
                } else {
                    m
                }
            });
        (diff.is_nan() || diff > REFERENCE_TOL * scale).then(|| {
            format!(
                "prefix activation differs from the reference (no GEMM) by {:.3e} of {scale:.3e}",
                diff
            )
        })
    }
}

/// What a replay does besides reproducing every served frame.
#[derive(Clone, Copy)]
pub enum Mode<'a> {
    /// Nothing more.
    Plain,
    /// Records a span per layer call.
    Traced,
    /// Checks every key frame's prefix activation against the reference.
    Reference(&'a Reference),
}

/// Whether two tensors hold the same shape and bits.
pub fn bit_identical(a: &Tensor3, b: &Tensor3) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Replays `served` (in tick order) for workload `w` over `traffic`.
/// Returns the spans (empty unless traced) and the counters, or the first
/// frame whose output or kind the replay does not reproduce.
pub fn replay(
    net: &Network,
    w: &Workload,
    traffic: &Traffic,
    served: &[ServedFrame],
    mode: Mode<'_>,
) -> Result<(Spans, Counters), Mismatch> {
    let trace = matches!(mode, Mode::Traced);
    let config = w.config();
    let (target, rf) = config
        .target
        .geometry(net)
        .expect("the workload's target resolves");
    let rfbme = Rfbme::new(rf, config.search);
    let prefix = &net.layers()[..=target];
    let ticks = served.last().map_or(0, |f| f.tick as usize + 1);
    let mut spans = Spans::new(trace, ticks * (prefix.len() + 1) + served.len() * 3);
    let mut counters = Counters::default();
    let mut scratch = GemmScratch::new();
    let mut rfbme_scratch = RfbmeScratch::new();
    let mut keys: Vec<Option<KeyState>> = (0..traffic.frames.len()).map(|_| None).collect();
    let mut motions: Vec<Option<RfbmeResult>> = Vec::new();
    let mut start = 0;
    while start < served.len() {
        let tick = served[start].tick;
        let end = start + served[start..].partition_point(|f| f.tick == tick);
        let group = &served[start..end];
        start = end;
        let image = |f: &ServedFrame| &traffic.frames[f.stream as usize][f.frame as usize];
        let fail = |f: &ServedFrame, what: String| Mismatch {
            stream: f.stream,
            tick: f.tick,
            frame: f.frame,
            what,
        };
        let tick_start = spans.enabled.then(|| spans.now_ns());

        // Motion for every frame whose session held key state.
        motions.clear();
        for f in group {
            let ids = (tick, f.stream, f.frame);
            if !f.has_motion {
                if f.kind == Kind::Predicted {
                    return Err(fail(f, "predicted frame without motion".into()));
                }
                motions.push(None);
                continue;
            }
            let Some(state) = keys[f.stream as usize].as_ref() else {
                return Err(fail(f, "engine held key state the replay lacks".into()));
            };
            let m = spans.record(SpanKind::Rfbme, ids, || {
                rfbme.estimate_with(&state.image, image(f), &mut rfbme_scratch)
            });
            if m.ops() != f.rfbme_ops {
                return Err(fail(
                    f,
                    format!("RFBME ops {} vs engine {}", m.ops(), f.rfbme_ops),
                ));
            }
            counters.rfbme_calls += 1;
            counters.rfbme_ops += m.ops();
            counters.candidates += m.search.candidates;
            counters.rejects += m.search.rejected_level0 + m.search.rejected_level1;
            motions.push(Some(m));
        }

        // One batched prefix over the tick's key frames, layer by layer.
        let mut batch: Vec<Tensor3> = group
            .iter()
            .filter(|f| f.kind != Kind::Predicted)
            .map(|f| image(f).to_tensor())
            .collect();
        if !batch.is_empty() {
            for (i, layer) in prefix.iter().enumerate() {
                batch = spans.record(
                    SpanKind::Layer(i as u16),
                    (tick, u32::MAX, u32::MAX),
                    || layer.forward_batch(batch, &mut scratch),
                );
            }
        }

        // Completion, in submission order.
        let mut acts = batch.into_iter();
        for (f, motion) in group.iter().zip(&motions) {
            let ids = (tick, f.stream, f.frame);
            let s = f.stream as usize;
            let output = if f.kind == Kind::Predicted {
                let (Some(state), Some(m)) = (keys[s].as_ref(), motion.as_ref()) else {
                    return Err(fail(f, "predicted frame without key state".into()));
                };
                let (sparse, ws) = spans.record(SpanKind::Warp, ids, || {
                    if w.stream_config(s).fixed_point {
                        warp_activation_fixed_sparse(&state.decoded, &m.field, rf.stride)
                    } else {
                        warp_activation_sparse(
                            &state.decoded,
                            &m.field,
                            rf.stride,
                            Interpolation::Bilinear,
                        )
                    }
                });
                counters.interpolations += ws.interpolations;
                counters.predicted += 1;
                spans.record(SpanKind::Suffix, ids, || {
                    net.forward_suffix_sparse(&sparse, target, &mut scratch)
                })
            } else {
                let act = acts.next().expect("one prefix output per key frame");
                if let Mode::Reference(reference) = mode {
                    let expected = reference.forward(image(f).to_tensor());
                    if let Some(what) = Reference::compare(&act, &expected) {
                        return Err(fail(f, what));
                    }
                }
                let (sparse, decoded) = spans.record(SpanKind::Encode, ids, || {
                    let sparse = RleActivation::encode(&act, config.sparsity_threshold).to_sparse();
                    let decoded = sparse.to_dense();
                    (sparse, decoded)
                });
                counters.nnz += sparse.nnz() as u64;
                counters.entries += decoded.as_slice().len() as u64;
                counters.keys += 1;
                let output = spans.record(SpanKind::Suffix, ids, || {
                    net.forward_suffix_sparse(&sparse, target, &mut scratch)
                });
                keys[s] = Some(KeyState {
                    image: image(f).clone(),
                    decoded,
                });
                output
            };
            counters.frames += 1;
            if !bit_identical(&output, &f.output) {
                return Err(fail(
                    f,
                    format!("{:?} output differs from the replay", f.kind),
                ));
            }
        }
        if let Some(tick_start) = tick_start {
            let end_ns = spans.now_ns();
            spans.buf.push(Span {
                kind: SpanKind::Tick,
                tick,
                stream: u32::MAX,
                frame: u32::MAX,
                start_ns: tick_start,
                end_ns,
            });
        }
    }
    Ok((spans, counters))
}

/// A span's name: `tick`, `motion.rfbme`, `cnn.<layer>`, `sparse.encode`,
/// `warp` or `cnn.suffix`.
pub fn span_name(net: &Network, kind: SpanKind) -> String {
    match kind {
        SpanKind::Tick => "tick".into(),
        SpanKind::Rfbme => "motion.rfbme".into(),
        SpanKind::Layer(i) => format!("cnn.{}", net.layers()[i as usize].name()),
        SpanKind::Encode => "sparse.encode".into(),
        SpanKind::Warp => "warp".into(),
        SpanKind::Suffix => "cnn.suffix".into(),
    }
}

/// Writes spans as tab-separated `tick stream frame name start_ns end_ns`
/// lines (`-` for batch-level ids).
pub fn write_spans(path: &std::path::Path, net: &Network, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "tick\tstream\tframe\tname\tstart_ns\tend_ns")?;
    let id = |x: u32| {
        if x == u32::MAX {
            "-".to_string()
        } else {
            x.to_string()
        }
    };
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.tick,
            id(s.stream),
            id(s.frame),
            span_name(net, s.kind),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

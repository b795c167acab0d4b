//! Receptive field block motion estimation (RFBME).
//!
//! RFBME (§III-A of the paper) estimates one motion vector per *receptive
//! field* of the AMC target layer — exactly the granularity activation
//! warping can use. It exploits two properties of receptive fields:
//!
//! 1. Their size is typically much larger than their stride, so adjacent
//!    fields overlap heavily and **tile-level differences can be reused**.
//! 2. Padding makes edge receptive fields extend out of bounds, where
//!    comparisons are unnecessary.
//!
//! The implementation mirrors the hardware microarchitecture:
//! [`DiffTileProducer`] performs a subsampled exhaustive search per
//! `stride × stride` tile (Fig 6's "diff tile producer"), and
//! [`DiffTileConsumer`] coalesces tile differences into receptive-field
//! differences with rolling column add/subtract reuse and a min-check
//! register per field (Fig 8). Both stages count their arithmetic
//! operations, which backs the §IV-A first-order comparison against the CNN
//! prefix cost.
//!
//! # The fast path: one bound, best-first, row sweeps for the survivors
//!
//! [`Rfbme::estimate`] computes the *same result* as the two-stage hardware
//! model ([`Rfbme::estimate_reference`]) through a best-first
//! branch-and-bound search over one admissible SAD lower bound, evaluated
//! from an [`IntegralImage`] box filter of the key frame built once per
//! estimate:
//!
//! * **Level 0** is the whole-tile bound `|Σ new − Σ key| ≤ SAD` (triangle
//!   inequality). A pre-pass aggregates it per receptive field for *every*
//!   candidate offset (rolling column reuse, exactly the hardware
//!   consumer's walk) and scores each offset by its total aggregated bound.
//! * **Best-first order**: offsets are then visited in ascending score
//!   order, so the offset most likely to hold the true minimum is refined
//!   first and the per-field running minima are tight almost immediately —
//!   after which level 0 alone rejects most remaining (offset, field)
//!   pairs without touching any pixel. Offset- and row-band-level quick
//!   rejects skip whole aggregations the same way.
//! * **Row sweep**: when a field at an offset survives level 0,
//!   [`sad_tile_sweep`](crate::sad::sad_tile_sweep) computes the exact SAD
//!   of every valid tile in the tile rows the field covers, in one pass
//!   over contiguous pixel rows, and the field sums its own tiles. Later
//!   survivors at the same offset reuse those tiles; fields are visited
//!   band by band down the frame, so each tile row is swept at most once
//!   per offset. A per-tile bound finer than level 0 costs about as much
//!   as the 8×8 SAD it would avoid, so refining whole tile rows at once is
//!   cheaper than re-bounding survivors tile by tile.
//!
//! Because the bound is a true lower bound, skipping is exact; and the
//! min-check keeps the lexicographic minimum of `(error, |offset|²,
//! row-major offset index)`, which reproduces the reference's tie-breaking
//! under *any* visit order (the reference visits row-major and updates on
//! strictly-smaller `(error, |offset|²)`, i.e. it also keeps exactly that
//! lexicographic minimum). Results are therefore bit-identical to the
//! reference; only the operation counts — and the [`SearchStats`] pruning
//! counters — differ. The PR-2 single-level, ascending-magnitude search
//! survives as [`Rfbme::estimate_onelevel`], the measured baseline for the
//! `rfbme_twolevel_over_onelevel` trajectory ratio (the key keeps its
//! name; its fast side is level 0 plus the row sweeps).

// lint: hot-path

use crate::field::{MotionVector, VectorField};
use crate::sad::{sad_tile_sweep, sad_window, IntegralImage};
use crate::{MotionEstimator, MotionResult};
use eva2_tensor::GrayImage;
use serde::{Deserialize, Serialize};

/// Receptive-field geometry as seen from the input image.
///
/// Mirrors `eva2_cnn::ReceptiveField` (duplicated here so the motion crate
/// depends only on the tensor substrate; `eva2-core` converts between the
/// two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RfGeometry {
    /// Receptive-field side length in pixels.
    pub size: usize,
    /// Pixel distance between adjacent receptive fields.
    pub stride: usize,
    /// Offset of the first receptive field's origin above/left of the image
    /// origin.
    pub padding: usize,
}

impl RfGeometry {
    /// Number of receptive fields along an image dimension of `n` pixels
    /// (the spatial extent of the target activation).
    pub fn grid_len(&self, n: usize) -> usize {
        let padded = n + 2 * self.padding;
        if padded < self.size {
            0
        } else {
            (padded - self.size) / self.stride + 1
        }
    }
}

/// Block-matching search window parameters.
///
/// The producer "considers all locations in the key frame that are aligned
/// with the search stride and are within the search radius" (§III-A1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SearchParams {
    /// Maximum displacement searched in each direction, in pixels.
    pub radius: usize,
    /// Search stride: only offsets that are multiples of `step` are
    /// examined. 1 = full search.
    pub step: usize,
}

impl SearchParams {
    /// The search offsets along one axis: `-radius..=radius` step `step`.
    pub fn offsets(&self) -> Vec<isize> {
        let step = self.step.max(1) as isize;
        let r = self.radius as isize;
        let mut v = Vec::new();
        let mut o = -r;
        while o <= r {
            v.push(o);
            o += step;
        }
        v
    }

    /// Number of candidate offsets in the 2-D search window.
    pub fn window_len(&self) -> usize {
        let n = self.offsets().len();
        n * n
    }
}

/// Marker for a tile difference that could not be computed because the
/// candidate window leaves the key frame.
const INVALID: u32 = u32::MAX;

/// Tile-level absolute differences for every search offset.
///
/// `diffs[o][ty * tiles_x + tx]` is the sum of absolute differences between
/// the new frame's tile `(ty, tx)` and the key frame at that tile's origin
/// displaced by `offsets[o]`, or [`INVALID`] when that window is out of
/// bounds.
#[derive(Debug, Clone)]
pub struct TileDiffs {
    /// Tile grid height.
    pub tiles_y: usize,
    /// Tile grid width.
    pub tiles_x: usize,
    /// The (dy, dx) search offsets, row-major over the search window.
    pub offsets: Vec<(isize, isize)>,
    /// Per-offset tile difference planes.
    pub diffs: Vec<Vec<u32>>,
    /// Adds performed while producing the differences.
    pub ops: u64,
}

/// The diff tile producer: subsampled exhaustive search per tile (§III-A1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffTileProducer {
    /// Tile side length — equal to the receptive-field stride.
    pub tile: usize,
    /// Search window parameters.
    pub params: SearchParams,
}

impl DiffTileProducer {
    /// Computes tile differences between `new` (current frame tiles) and
    /// `key` (search windows).
    ///
    /// # Panics
    ///
    /// Panics when the two frames differ in size.
    pub fn produce(&self, key: &GrayImage, new: &GrayImage) -> TileDiffs {
        assert_eq!(
            (key.height(), key.width()),
            (new.height(), new.width()),
            "frame size mismatch"
        );
        let s = self.tile.max(1);
        let tiles_y = new.height() / s;
        let tiles_x = new.width() / s;
        let axis = self.params.offsets();
        let mut offsets = Vec::with_capacity(axis.len() * axis.len());
        for &dy in &axis {
            for &dx in &axis {
                offsets.push((dy, dx));
            }
        }
        let mut diffs = vec![vec![INVALID; tiles_y * tiles_x]; offsets.len()];
        let mut ops: u64 = 0;
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                let oy = (ty * s) as isize;
                let ox = (tx * s) as isize;
                for (oi, &(dy, dx)) in offsets.iter().enumerate() {
                    let ky = oy + dy;
                    let kx = ox + dx;
                    // Only fully in-bounds key windows are valid candidates.
                    if ky < 0
                        || kx < 0
                        || ky + s as isize > key.height() as isize
                        || kx + s as isize > key.width() as isize
                    {
                        continue;
                    }
                    let mut sad: u32 = 0;
                    for py in 0..s {
                        for px in 0..s {
                            let a = new.get(oy as usize + py, ox as usize + px) as i32;
                            let b = key.get((ky as usize) + py, (kx as usize) + px) as i32;
                            sad += (a - b).unsigned_abs();
                        }
                    }
                    ops += (s * s) as u64;
                    diffs[oi][ty * tiles_x + tx] = sad;
                }
            }
        }
        TileDiffs {
            tiles_y,
            tiles_x,
            offsets,
            diffs,
            ops,
        }
    }
}

/// Per-receptive-field output of the consumer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RfMatch {
    /// Best-match displacement (pixels, gather convention).
    pub vector: MotionVector,
    /// Minimum receptive-field difference (the block error fed to the
    /// key-frame choice module).
    pub error: u32,
    /// Number of pixels that contributed to `error` (for normalisation).
    pub pixels: u32,
}

/// The diff tile consumer: aggregates tile differences into receptive-field
/// differences with rolling reuse, and finds each field's best offset
/// (§III-A2, Fig 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffTileConsumer {
    /// Receptive-field geometry.
    pub rf: RfGeometry,
}

impl DiffTileConsumer {
    /// Tile index range `[t0, t1)` covered by the receptive field starting
    /// at activation coordinate `a` along one axis, restricted to whole
    /// tiles inside the frame ("RFBME ignores partial tiles", §III-A).
    fn tile_range(&self, a: usize, tiles: usize) -> (usize, usize) {
        let s = self.rf.stride as isize;
        let origin = a as isize * s - self.rf.padding as isize;
        let end = origin + self.rf.size as isize;
        // First whole tile at or after origin; last whole tile ending at or
        // before end.
        let t0 = origin.div_euclid(s) + if origin.rem_euclid(s) != 0 { 1 } else { 0 };
        let t1 = end.div_euclid(s);
        let t0 = t0.max(0) as usize;
        let t1 = t1.max(0) as usize;
        (t0.min(tiles), t1.min(tiles))
    }

    /// Consumes tile differences, producing one [`RfMatch`] per receptive
    /// field plus the consumer's operation count.
    pub fn consume(&self, tiles: &TileDiffs, grid_h: usize, grid_w: usize) -> (Vec<RfMatch>, u64) {
        let s2 = (self.rf.stride * self.rf.stride) as u32;
        let mut best: Vec<RfMatch> = vec![
            RfMatch {
                vector: MotionVector::ZERO,
                error: u32::MAX,
                pixels: 0,
            };
            grid_h * grid_w
        ];
        let mut ops: u64 = 0;
        let mut colsum = vec![0u64; tiles.tiles_x];
        let mut colvalid = vec![true; tiles.tiles_x];
        for (oi, plane) in tiles.diffs.iter().enumerate() {
            let (ody, odx) = tiles.offsets[oi];
            for ay in 0..grid_h {
                let (ty0, ty1) = self.tile_range(ay, tiles.tiles_y);
                if ty0 >= ty1 {
                    continue;
                }
                // Column sums over the tile rows of this receptive-field row
                // (the "previous block sum memory" granularity in hardware).
                for tx in 0..tiles.tiles_x {
                    let mut sum = 0u64;
                    let mut valid = true;
                    for ty in ty0..ty1 {
                        let d = plane[ty * tiles.tiles_x + tx];
                        if d == INVALID {
                            valid = false;
                            break;
                        }
                        sum += d as u64;
                    }
                    ops += (ty1 - ty0) as u64;
                    colsum[tx] = sum;
                    colvalid[tx] = valid;
                }
                // Slide the window across activation columns with rolling
                // add/subtract.
                let mut window: Option<(u64, usize, usize)> = None; // (sum, tx0, tx1)
                for ax in 0..grid_w {
                    let (tx0, tx1) = self.tile_range(ax, tiles.tiles_x);
                    if tx0 >= tx1 {
                        window = None;
                        continue;
                    }
                    let sum = match window {
                        // Rolling update only valid when the window width is
                        // unchanged and slid by exactly the reuse pattern.
                        Some((prev, p0, p1)) if tx1 - tx0 == p1 - p0 && tx0 >= p0 && tx0 <= p1 => {
                            let mut sum = prev;
                            for &col in &colsum[p0..tx0] {
                                sum -= col;
                                ops += 1;
                            }
                            for &col in &colsum[p1..tx1] {
                                sum += col;
                                ops += 1;
                            }
                            sum
                        }
                        _ => {
                            let mut sum = 0u64;
                            for &col in &colsum[tx0..tx1] {
                                sum += col;
                                ops += 1;
                            }
                            sum
                        }
                    };
                    window = Some((sum, tx0, tx1));
                    // Any invalid column invalidates this offset for the RF.
                    if colvalid[tx0..tx1].iter().any(|&v| !v) {
                        continue;
                    }
                    let n_tiles = ((ty1 - ty0) * (tx1 - tx0)) as u32;
                    let err = sum.min(u32::MAX as u64 - 1) as u32;
                    let b = &mut best[ay * grid_w + ax];
                    // Min-check register: strictly-smaller error wins; ties
                    // prefer the smaller displacement (stability).
                    let cand_mag = (ody * ody + odx * odx) as f32;
                    let best_mag = b.vector.dy * b.vector.dy + b.vector.dx * b.vector.dx;
                    if err < b.error || (err == b.error && cand_mag < best_mag) {
                        *b = RfMatch {
                            vector: MotionVector::new(ody as f32, odx as f32),
                            error: err,
                            pixels: n_tiles * s2,
                        };
                    }
                }
            }
        }
        // Receptive fields that never saw a valid offset keep the
        // `u32::MAX` sentinel; `Rfbme::result_from_matches` maps them to
        // zero motion / zero error (no evidence either way).
        (best, ops)
    }
}

/// Pruning counters of one fast-path estimate (zero for the reference
/// model, which prunes nothing).
///
/// A *candidate* is one valid (offset, receptive field) pair — an offset
/// whose search windows stay in bounds for every tile the field covers.
/// Every candidate is accounted for exactly once:
/// `candidates == rejected_level0 + rejected_level1 + refined`.
/// The search has one bound tier, so `rejected_level1` is always 0; it is
/// kept so the partition and readers of the field stay unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SearchStats {
    /// Valid (offset, receptive field) pairs examined.
    pub candidates: u64,
    /// Candidates rejected by the aggregated whole-tile (level-0) bound.
    pub rejected_level0: u64,
    /// Always 0: the search has no second bound tier (see the type docs).
    pub rejected_level1: u64,
    /// Candidates fully refined with exact SAD aggregation.
    pub refined: u64,
}

/// Full RFBME result.
#[derive(Debug, Clone)]
pub struct RfbmeResult {
    /// Motion vector per receptive field (pixel units, cell = RF stride).
    pub field: VectorField,
    /// Per-field minimum block error.
    pub errors: Vec<u32>,
    /// Sum of per-field minimum errors — the pixel-compensation-error
    /// signal for adaptive key-frame selection.
    pub total_error: u64,
    /// Total pixels compared across all fields' best matches (receptive
    /// fields overlap, so this exceeds the frame size). Normalising
    /// `total_error` by this gives a resolution-independent per-pixel
    /// error.
    pub total_pixels: u64,
    /// Producer adds.
    pub producer_ops: u64,
    /// Consumer adds/subtracts.
    pub consumer_ops: u64,
    /// Pruning counters (all zero for [`Rfbme::estimate_reference`]).
    pub search: SearchStats,
}

impl RfbmeResult {
    /// Total arithmetic operations.
    pub fn ops(&self) -> u64 {
        self.producer_ops + self.consumer_ops
    }
}

/// One candidate offset of the best-first search.
#[derive(Debug, Clone, Copy, Default)]
struct Cand {
    dy: isize,
    dx: isize,
    /// Row-major index in the reference's visit order — the final
    /// tie-break component.
    rm: u32,
    /// Squared displacement magnitude — the second tie-break component.
    mag: u64,
    /// Best-first priority: total aggregated level-0 bound over all
    /// receptive fields (invalid fields contribute a large constant).
    score: u64,
    /// Minimum level-0 tile bound over this offset's valid tiles
    /// (`u64::MAX` when none are valid) — powers the offset-level quick
    /// reject before any per-tile work in the main loop.
    min_lb: u64,
}

/// Per-receptive-field min-check register of the best-first search: the
/// lexicographic minimum of `(err, mag, rm)` seen so far, plus the data
/// needed to finalise the match.
#[derive(Debug, Clone, Copy)]
struct BestCell {
    err: u32,
    mag: u64,
    rm: u32,
    dy: isize,
    dx: isize,
    pixels: u32,
}

impl BestCell {
    const EMPTY: BestCell = BestCell {
        err: u32::MAX,
        mag: u64::MAX,
        rm: u32::MAX,
        dy: 0,
        dx: 0,
        pixels: 0,
    };

    /// Whether a candidate with lower bound `bound` could still replace
    /// this register, i.e. whether `(err ≥ bound, mag, rm)` could be
    /// lexicographically smaller than `(self.err, self.mag, self.rm)`.
    /// Bounds saturate exactly like errors so the comparison stays exact
    /// even at the `u32` ceiling.
    #[inline]
    fn improvable_by(&self, bound: u64, mag: u64, rm: u32) -> bool {
        let lb = bound.min(u32::MAX as u64 - 1) as u32;
        lb < self.err || (lb == self.err && (mag, rm) < (self.mag, self.rm))
    }
}

/// Contiguous range `[lo, hi)` of tile indices along one axis whose search
/// windows stay inside the key frame at offset `d`: `t·s + d ≥ 0` and
/// `t·s + d + s ≤ n`. Validity is separable per axis (a tile is valid iff
/// its row *and* column are), which is what makes per-offset validity O(1)
/// instead of per-tile.
#[inline]
fn valid_tile_range(tiles: usize, s: usize, d: isize, n: usize) -> (usize, usize) {
    let s_i = s as isize;
    let lo = (-d).div_euclid(s_i) + if (-d).rem_euclid(s_i) != 0 { 1 } else { 0 };
    let lo = lo.max(0) as usize;
    let hi_num = n as isize - s_i - d;
    if hi_num < 0 {
        return (tiles, tiles); // empty
    }
    let hi = ((hi_num.div_euclid(s_i) + 1) as usize).min(tiles);
    (lo.min(hi), hi)
}

/// Reusable buffers for [`Rfbme::estimate_with`] (and the retained
/// single-level baseline [`Rfbme::estimate_onelevel_with`]).
///
/// One estimate needs two integral images plus a dozen per-tile /
/// per-receptive-field work vectors; a frame-loop caller (each serving
/// session's state, which the engine's worker pool borrows on its scoped
/// threads) holds one scratch so steady-state estimation allocates nothing
/// but the returned [`RfbmeResult`]. Buffer contents never influence
/// results — every value is rewritten (or reset here) before use — so
/// sharing a scratch across streams, or none at all, is purely a
/// performance choice.
#[derive(Debug, Clone, Default)]
pub struct RfbmeScratch {
    key_sat: IntegralImage,
    new_sat: IntegralImage,
    offsets: Vec<(isize, isize)>,
    row_range: Vec<(usize, usize)>,
    col_range: Vec<(usize, usize)>,
    new_sums: Vec<u64>,
    best: Vec<RfMatch>,
    lb: Vec<u64>,
    tile_valid: Vec<bool>,
    exact: Vec<u32>,
    needed: Vec<bool>,
    improvable: Vec<usize>,
    colsum: Vec<u64>,
    colvalid: Vec<bool>,
    // Best-first search state (estimate_with only).
    cand: Vec<Cand>,
    order: Vec<u32>,
    key_box: Vec<u64>,
    best_bf: Vec<BestCell>,
}

impl RfbmeScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of heap memory this scratch holds (allocated capacities) —
    /// the serving engine's per-session memory audit. Buffers grow to
    /// their steady-state size on the first estimate, so a session's
    /// footprint is stable after its first predicted frame.
    pub fn heap_bytes(&self) -> usize {
        fn vec_bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        self.key_sat.heap_bytes()
            + self.new_sat.heap_bytes()
            + vec_bytes(&self.offsets)
            + vec_bytes(&self.row_range)
            + vec_bytes(&self.col_range)
            + vec_bytes(&self.new_sums)
            + vec_bytes(&self.best)
            + vec_bytes(&self.lb)
            + vec_bytes(&self.tile_valid)
            + vec_bytes(&self.exact)
            + vec_bytes(&self.needed)
            + vec_bytes(&self.improvable)
            + vec_bytes(&self.colsum)
            + vec_bytes(&self.colvalid)
            + vec_bytes(&self.cand)
            + vec_bytes(&self.order)
            + vec_bytes(&self.key_box)
            + vec_bytes(&self.best_bf)
    }
}

/// Shared search geometry derived once per estimate, used by both the
/// best-first fast path and the retained single-level baseline.
#[derive(Debug, Clone, Copy)]
struct SearchGeometry {
    s: usize,
    h: usize,
    w: usize,
    tiles_y: usize,
    tiles_x: usize,
    n_tiles: usize,
    grid_h: usize,
    grid_w: usize,
    n_rf: usize,
}

/// The setup prologue both fast paths share: derives the geometry, fills
/// the per-axis receptive-field tile ranges, rebuilds both integral images
/// (returning their op count as the initial `producer_ops`), and computes
/// every new-frame tile sum. Keeping it in one place means a geometry or
/// ops-accounting change cannot silently diverge between the best-first
/// search and the single-level oracle that validates it — only the search
/// logic itself stays independent.
#[allow(clippy::too_many_arguments)] // one slot per reused scratch buffer
fn prepare_search(
    rf: RfGeometry,
    key: &GrayImage,
    new: &GrayImage,
    key_sat: &mut IntegralImage,
    new_sat: &mut IntegralImage,
    row_range: &mut Vec<(usize, usize)>,
    col_range: &mut Vec<(usize, usize)>,
    new_sums: &mut Vec<u64>,
) -> (SearchGeometry, u64) {
    let s = rf.stride.max(1);
    let (h, w) = (new.height(), new.width());
    let g = SearchGeometry {
        s,
        h,
        w,
        tiles_y: h / s,
        tiles_x: w / s,
        n_tiles: (h / s) * (w / s),
        grid_h: rf.grid_len(h),
        grid_w: rf.grid_len(w),
        n_rf: rf.grid_len(h) * rf.grid_len(w),
    };
    let consumer = DiffTileConsumer { rf };
    row_range.clear();
    row_range.extend((0..g.grid_h).map(|a| consumer.tile_range(a, g.tiles_y)));
    col_range.clear();
    col_range.extend((0..g.grid_w).map(|a| consumer.tile_range(a, g.tiles_x)));
    // O(1) window sums over both frames; one pass over the pixels each.
    key_sat.recompute(key);
    new_sat.recompute(new);
    let producer_ops = 2 * (h * w) as u64;
    new_sums.resize(g.n_tiles, 0);
    for ty in 0..g.tiles_y {
        for tx in 0..g.tiles_x {
            new_sums[ty * g.tiles_x + tx] = new_sat.window_sum(ty * s, tx * s, s, s);
        }
    }
    (g, producer_ops)
}

/// The complete RFBME estimator: producer + consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rfbme {
    rf: RfGeometry,
    params: SearchParams,
}

impl Rfbme {
    /// Creates an estimator for the given receptive-field geometry and
    /// search window.
    pub fn new(rf: RfGeometry, params: SearchParams) -> Self {
        Self { rf, params }
    }

    /// The receptive-field geometry being matched.
    pub fn rf(&self) -> RfGeometry {
        self.rf
    }

    /// Runs RFBME from `key` to `new` through the two-stage hardware
    /// reference model ([`DiffTileProducer`] + [`DiffTileConsumer`]), with
    /// no early exit: every in-bounds `(tile, offset)` SAD is computed.
    ///
    /// This is the bit-faithful model of Fig 6/Fig 8 and the golden
    /// reference the fast path ([`Rfbme::estimate`]) is tested against.
    pub fn estimate_reference(&self, key: &GrayImage, new: &GrayImage) -> RfbmeResult {
        let producer = DiffTileProducer {
            tile: self.rf.stride,
            params: self.params,
        };
        let tiles = producer.produce(key, new);
        let grid_h = self.rf.grid_len(new.height());
        let grid_w = self.rf.grid_len(new.width());
        let consumer = DiffTileConsumer { rf: self.rf };
        let (matches, consumer_ops) = consumer.consume(&tiles, grid_h, grid_w);
        Self::result_from_matches(
            self.rf,
            &matches,
            grid_h,
            grid_w,
            tiles.ops,
            consumer_ops,
            SearchStats::default(),
        )
    }

    /// Runs RFBME from `key` to `new` on the fast path: best-first
    /// branch-and-bound over an admissible SAD lower bound (see the
    /// [module docs](self)).
    ///
    /// A pre-pass aggregates the whole-tile level-0 bound
    /// (`|Σ new_tile − Σ key_window|`, two O(1) [`IntegralImage`] window
    /// sums) per receptive field for every candidate offset, with the same
    /// rolling column reuse as the hardware consumer, and scores each
    /// offset by its total bound. Offsets are then visited best-first
    /// (ascending score): the first offsets refined are the ones most
    /// likely to hold each field's true minimum, so the running minima
    /// tighten almost immediately and level 0 alone rejects most of the
    /// remaining (offset, field) pairs from the stored aggregates — no
    /// pixel or tile work at all. A surviving field is refined by row
    /// sweeps ([`sad_tile_sweep`]) over the valid tiles of the tile rows it
    /// covers — each tile row at most once per offset — and sums its own
    /// tiles.
    ///
    /// Because the bound is a true lower bound, skipping is *exact*: the
    /// returned per-field minimum error equals the exhaustive search's
    /// (and therefore so do `errors`, `total_error`, and `total_pixels`).
    /// The min-check register keeps the lexicographic minimum of
    /// `(error, |offset|², row-major offset index)` — exactly the candidate
    /// the reference's row-major visit order with its
    /// smaller-displacement-on-ties rule retains — so the vectors match
    /// [`Rfbme::estimate_reference`] bit for bit under the best-first
    /// order too. Only the operation counts and [`SearchStats`] differ —
    /// they *are* the pruning savings.
    ///
    /// # Panics
    ///
    /// Panics when the two frames differ in size.
    pub fn estimate(&self, key: &GrayImage, new: &GrayImage) -> RfbmeResult {
        self.estimate_with(key, new, &mut RfbmeScratch::new())
    }

    /// [`Rfbme::estimate`] reusing caller-owned scratch buffers, so a
    /// frame-loop caller performs no per-estimate allocation. Results are
    /// identical to [`Rfbme::estimate`] — the scratch only carries
    /// capacity, never values, between calls.
    ///
    /// # Panics
    ///
    /// Panics when the two frames differ in size.
    pub fn estimate_with(
        &self,
        key: &GrayImage,
        new: &GrayImage,
        scratch: &mut RfbmeScratch,
    ) -> RfbmeResult {
        assert_eq!(
            (key.height(), key.width()),
            (new.height(), new.width()),
            "frame size mismatch"
        );
        let RfbmeScratch {
            key_sat,
            new_sat,
            row_range,
            col_range,
            new_sums,
            best,
            lb,
            exact,
            colsum,
            cand,
            order,
            key_box,
            best_bf,
            ..
        } = scratch;
        let (g, mut producer_ops) = prepare_search(
            self.rf, key, new, key_sat, new_sat, row_range, col_range, new_sums,
        );
        let SearchGeometry {
            s,
            h,
            w,
            tiles_y,
            tiles_x,
            n_tiles,
            grid_h,
            grid_w,
            n_rf,
        } = g;

        // Candidate offsets in the reference's row-major order, annotated
        // with the two tie-break components. Iterated arithmetically (not
        // via `SearchParams::offsets`) so a warmed scratch makes this whole
        // estimate allocate nothing but the returned result — the property
        // the serving engine's alloc audit pins.
        let step = self.params.step.max(1) as isize;
        let radius = self.params.radius as isize;
        cand.clear();
        let mut dy = -radius;
        while dy <= radius {
            let mut dx = -radius;
            while dx <= radius {
                cand.push(Cand {
                    dy,
                    dx,
                    rm: cand.len() as u32,
                    mag: (dy * dy + dx * dx) as u64,
                    score: 0,
                    min_lb: u64::MAX,
                });
                dx += step;
            }
            dy += step;
        }

        let mut consumer_ops: u64 = 0;
        let mut search = SearchStats::default();

        let s2 = (s * s) as u32;
        best_bf.clear();
        best_bf.resize(n_rf, BestCell::EMPTY);
        lb.resize(n_tiles, 0);
        exact.resize(n_tiles, 0);
        colsum.resize(tiles_x, 0);

        // Box-filter the key frame once: every s×s key window sum any
        // offset can probe, so the per-(tile, offset) level-0 bound below
        // is ONE load instead of four summed-area lookups. (The search
        // probes each box position ~window_len/step² times.)
        let (box_h, box_w) = if h >= s && w >= s {
            (h - s + 1, w - s + 1)
        } else {
            (0, 0)
        };
        key_box.resize(box_h * box_w, 0);
        for y in 0..box_h {
            for x in 0..box_w {
                key_box[y * box_w + x] = key_sat.window_sum(y, x, s, s);
            }
        }
        consumer_ops += (box_h * box_w) as u64;

        // Pass 1: score every offset by its total level-0 tile bound over
        // the valid tile rectangle (out-of-bounds tiles are penalised so
        // fully in-bounds offsets sort first). Scores only steer the visit
        // order — correctness never depends on them.
        const OOB_PENALTY: u64 = u32::MAX as u64;
        for c in cand.iter_mut() {
            let (ty_lo, ty_hi) = valid_tile_range(tiles_y, s, c.dy, h);
            let (tx_lo, tx_hi) = valid_tile_range(tiles_x, s, c.dx, w);
            let n_valid = (ty_hi - ty_lo) * (tx_hi - tx_lo);
            let mut score = (n_tiles - n_valid) as u64 * OOB_PENALTY;
            let mut min_lb = u64::MAX;
            for ty in ty_lo..ty_hi {
                let row = (((ty * s) as isize + c.dy) as usize) * box_w;
                for tx in tx_lo..tx_hi {
                    let kx = ((tx * s) as isize + c.dx) as usize;
                    let v = new_sums[ty * tiles_x + tx].abs_diff(key_box[row + kx]);
                    score += v;
                    min_lb = min_lb.min(v);
                }
            }
            consumer_ops += n_valid as u64;
            c.score = score;
            c.min_lb = min_lb;
        }

        // Best-first visit order: ascending total bound; rm makes the sort
        // key unique, so the order is fully deterministic.
        order.clear();
        order.extend(0..cand.len() as u32);
        order.sort_unstable_by_key(|&i| (cand[i as usize].score, cand[i as usize].rm));

        // Pass 2, best-first: per offset, rebuild the level-0 tile bounds
        // (one box load each), reject whole offsets whose *minimum* tile
        // bound already exceeds every field's running minimum, aggregate
        // the rest per receptive field (rolling column reuse), and refine
        // the survivors exactly from row sweeps of the valid tiles, each
        // tile row swept at most once per offset.
        // The smallest tile footprint of any (nonempty) receptive field —
        // every field's level-0 bound sums at least this many tile bounds,
        // which strengthens the offset-level quick reject below.
        let min_band_h = row_range
            .iter()
            .filter(|&&(t0, t1)| t0 < t1)
            .map(|&(t0, t1)| t1 - t0)
            .min()
            .unwrap_or(1) as u64;
        let min_band_w = col_range
            .iter()
            .filter(|&&(t0, t1)| t0 < t1)
            .map(|&(t0, t1)| t1 - t0)
            .min()
            .unwrap_or(1) as u64;
        let min_rf_tiles = min_band_h * min_band_w;
        let mut max_best = u64::MAX; // max running minimum over live fields
        for &oi in order.iter() {
            let c = cand[oi as usize];
            let (ty_lo, ty_hi) = valid_tile_range(tiles_y, s, c.dy, h);
            let (tx_lo, tx_hi) = valid_tile_range(tiles_x, s, c.dx, w);
            if ty_lo >= ty_hi || tx_lo >= tx_hi {
                continue; // no valid tiles ⇒ no candidates at this offset
            }
            let n_ax_valid = col_range
                .iter()
                .filter(|&&(t0, t1)| t0 < t1 && t0 >= tx_lo && t1 <= tx_hi)
                .count() as u64;
            if n_ax_valid == 0 {
                continue;
            }
            // Offset-level quick reject, BEFORE any per-tile work: a
            // field's bound sums ≥ min_rf_tiles tile bounds, each ≥ the
            // offset's minimum tile bound (recorded by pass 1), so if that
            // product already strictly exceeds every live field's running
            // minimum, no field can improve here — skip the offset without
            // rebuilding a single tile bound.
            if c.min_lb.saturating_mul(min_rf_tiles) > max_best {
                let n_ay = row_range
                    .iter()
                    .filter(|&&(t0, t1)| t0 < t1 && t0 >= ty_lo && t1 <= ty_hi)
                    .count() as u64;
                search.candidates += n_ay * n_ax_valid;
                search.rejected_level0 += n_ay * n_ax_valid;
                continue;
            }
            // Level-0 tile bounds over the valid rectangle.
            for ty in ty_lo..ty_hi {
                let row = (((ty * s) as isize + c.dy) as usize) * box_w;
                for tx in tx_lo..tx_hi {
                    let t = ty * tiles_x + tx;
                    let kx = ((tx * s) as isize + c.dx) as usize;
                    lb[t] = new_sums[t].abs_diff(key_box[row + kx]);
                }
            }
            consumer_ops += ((ty_hi - ty_lo) * (tx_hi - tx_lo)) as u64;
            // Tile rows `..swept_end` needed so far have been swept.
            let mut swept_end = ty_lo;
            let mut updated = false;
            for (ay, &(ty0, ty1)) in row_range.iter().enumerate() {
                if ty0 >= ty1 || ty0 < ty_lo || ty1 > ty_hi {
                    continue;
                }
                let mut band_min = u64::MAX;
                for tx in tx_lo..tx_hi {
                    let mut sum = 0u64;
                    for ty in ty0..ty1 {
                        sum += lb[ty * tiles_x + tx];
                    }
                    colsum[tx] = sum;
                    band_min = band_min.min(sum);
                }
                consumer_ops += ((ty1 - ty0) * (tx_hi - tx_lo)) as u64;
                // Row-band quick reject: every field in this activation row
                // covers ≥ min_band_w of these column sums, each ≥
                // band_min — same argument as above, one band down.
                if band_min.saturating_mul(min_band_w) > max_best {
                    search.candidates += n_ax_valid;
                    search.rejected_level0 += n_ax_valid;
                    continue;
                }
                for (ax, &(tx0, tx1)) in col_range.iter().enumerate() {
                    if tx0 >= tx1 || tx0 < tx_lo || tx1 > tx_hi {
                        continue;
                    }
                    let mut lb_sum = 0u64;
                    for &cs in &colsum[tx0..tx1] {
                        lb_sum += cs;
                    }
                    consumer_ops += (tx1 - tx0) as u64;
                    let idx = ay * grid_w + ax;
                    search.candidates += 1;
                    let b = best_bf[idx];
                    if !b.improvable_by(lb_sum, c.mag, c.rm) {
                        search.rejected_level0 += 1;
                        continue;
                    }
                    // Exact refinement: a row sweep computes the SAD of every
                    // valid tile in the tile rows this field covers, shared
                    // by all survivors at this offset. Bands move down
                    // monotonically, so each tile row is swept at most once.
                    if swept_end < ty1 {
                        let first = swept_end.max(ty0);
                        let rect = (first..ty1, tx_lo..tx_hi);
                        sad_tile_sweep(new, key, s, rect, (c.dy, c.dx), exact);
                        producer_ops += ((ty1 - first) * (tx_hi - tx_lo) * s * s) as u64;
                        swept_end = ty1;
                    }
                    let mut sum = 0u64;
                    for ty in ty0..ty1 {
                        for &e in &exact[ty * tiles_x + tx0..ty * tiles_x + tx1] {
                            sum += e as u64;
                        }
                    }
                    let n = ((ty1 - ty0) * (tx1 - tx0)) as u64;
                    consumer_ops += n;
                    search.refined += 1;
                    let err = sum.min(u32::MAX as u64 - 1) as u32;
                    if (err, c.mag, c.rm) < (b.err, b.mag, b.rm) {
                        best_bf[idx] = BestCell {
                            err,
                            mag: c.mag,
                            rm: c.rm,
                            dy: c.dy,
                            dx: c.dx,
                            pixels: n as u32 * s2,
                        };
                        updated = true;
                    }
                }
            }
            if updated {
                // Refresh the quick-reject threshold: the max running
                // minimum over fields that exist (nonempty tile ranges).
                // Fields still at the u32::MAX sentinel keep it disabled.
                max_best = 0;
                for (idx, b) in best_bf.iter().enumerate() {
                    let (ty0, ty1) = row_range[idx / grid_w];
                    let (tx0, tx1) = col_range[idx % grid_w];
                    if ty0 < ty1 && tx0 < tx1 {
                        max_best = max_best.max(b.err as u64);
                    }
                }
            }
        }

        best.clear();
        best.extend(best_bf.iter().map(|b| RfMatch {
            vector: MotionVector::new(b.dy as f32, b.dx as f32),
            error: b.err,
            pixels: b.pixels,
        }));
        Self::result_from_matches(
            self.rf,
            best,
            grid_h,
            grid_w,
            producer_ops,
            consumer_ops,
            search,
        )
    }

    /// Sound static upper bound on [`RfbmeResult::ops`] for one
    /// [`Rfbme::estimate`]/[`Rfbme::estimate_with`] call over `h`×`w`
    /// frames — the motion-estimation term of `eva2-analysis`'s
    /// predicted-frame cost model.
    ///
    /// The bound charges every pruning opportunity as if it never fired,
    /// so it holds for *any* frame contents:
    ///
    /// * producer: two summed-area rebuilds (`2·h·w`) plus, per offset,
    ///   row sweeps that visit each valid tile at most once
    ///   (`≤ n_tiles·s²` pixels);
    /// * consumer: the `(h−s+1)·(w−s+1) ≤ h·w` key box filter, then per
    ///   offset: pass-1 scoring and the level-0 rebuild (`≤ n_tiles`
    ///   each), per-row-band column sums (`≤ grid_h·band·tiles_x`), and
    ///   per-field aggregation (`≤ n_rf·band` column adds plus
    ///   `≤ n_rf·band²` exact-tile adds), where `band = ⌊size/stride⌋` is
    ///   the most whole tiles one receptive field can cover per axis.
    ///
    /// Saturating arithmetic keeps degenerate geometries from wrapping.
    pub fn ops_bound(&self, h: usize, w: usize) -> u64 {
        let s = self.rf.stride.max(1) as u64;
        let (h64, w64) = (h as u64, w as u64);
        let (tiles_y, tiles_x) = (h64 / s, w64 / s);
        let n_tiles = tiles_y * tiles_x;
        let grid_h = self.rf.grid_len(h) as u64;
        let grid_w = self.rf.grid_len(w) as u64;
        let n_rf = grid_h * grid_w;
        let band = ((self.rf.size as u64) / s).max(1);
        let window = self.params.window_len() as u64;
        let fixed = 3u64.saturating_mul(h64.saturating_mul(w64));
        let per_offset = n_tiles
            .saturating_mul(s * s)
            .saturating_add(2 * n_tiles)
            .saturating_add(grid_h.saturating_mul(band).saturating_mul(tiles_x))
            .saturating_add(n_rf.saturating_mul(band))
            .saturating_add(n_rf.saturating_mul(band * band));
        fixed.saturating_add(window.saturating_mul(per_offset))
    }

    /// Static upper bound on [`RfbmeScratch::heap_bytes`] after any number
    /// of [`Rfbme::estimate_with`] calls over `h`×`w` frames — the
    /// motion-scratch term of the serving engine's per-session memory
    /// bound.
    ///
    /// Every buffer the best-first search touches is sized exactly by the
    /// geometry (`resize`/`extend` from a known length allocates precisely
    /// that), except `cand`, which is push-grown and therefore rounds up
    /// to the next power of two. Buffers only the retained single-level
    /// baseline uses stay empty on this path and are not charged.
    pub fn scratch_bytes_bound(&self, h: usize, w: usize) -> usize {
        use std::mem::size_of;
        fn npot(n: usize) -> usize {
            n.next_power_of_two().max(4)
        }
        let s = self.rf.stride.max(1);
        let (tiles_y, tiles_x) = (h / s, w / s);
        let n_tiles = tiles_y * tiles_x;
        let grid_h = self.rf.grid_len(h);
        let grid_w = self.rf.grid_len(w);
        let n_rf = grid_h * grid_w;
        let window = self.params.window_len();
        let sat = (h + 1) * (w + 1) * size_of::<u64>();
        let box_len = if h >= s && w >= s {
            (h - s + 1) * (w - s + 1)
        } else {
            0
        };
        2 * sat // key_sat + new_sat
            + (grid_h + grid_w) * size_of::<(usize, usize)>() // row/col_range
            + n_tiles * size_of::<u64>() // new_sums
            + n_rf * size_of::<RfMatch>() // best
            + n_tiles * size_of::<u64>() // lb
            + n_tiles * size_of::<u32>() // exact
            + tiles_x * size_of::<u64>() // colsum
            + npot(window) * size_of::<Cand>() // cand (push-grown)
            + window * size_of::<u32>() // order
            + box_len * size_of::<u64>() // key_box
            + n_rf * size_of::<BestCell>() // best_bf
    }

    /// The retained PR-2 single-level fast path: fused producer/consumer
    /// with the whole-tile (level-0) bound only, visiting offsets in
    /// ascending-magnitude order. Results are identical to
    /// [`Rfbme::estimate`] and [`Rfbme::estimate_reference`]; kept as the
    /// measured baseline for the `rfbme_twolevel_over_onelevel` trajectory
    /// ratio and as an independent implementation for equivalence tests.
    ///
    /// # Panics
    ///
    /// Panics when the two frames differ in size.
    pub fn estimate_onelevel(&self, key: &GrayImage, new: &GrayImage) -> RfbmeResult {
        self.estimate_onelevel_with(key, new, &mut RfbmeScratch::new())
    }

    /// [`Rfbme::estimate_onelevel`] reusing caller-owned scratch buffers.
    ///
    /// # Panics
    ///
    /// Panics when the two frames differ in size.
    pub fn estimate_onelevel_with(
        &self,
        key: &GrayImage,
        new: &GrayImage,
        scratch: &mut RfbmeScratch,
    ) -> RfbmeResult {
        assert_eq!(
            (key.height(), key.width()),
            (new.height(), new.width()),
            "frame size mismatch"
        );
        let RfbmeScratch {
            key_sat,
            new_sat,
            offsets,
            row_range,
            col_range,
            new_sums,
            best,
            lb,
            tile_valid,
            exact,
            needed,
            improvable,
            colsum,
            colvalid,
            ..
        } = scratch;
        let (g, mut producer_ops) = prepare_search(
            self.rf, key, new, key_sat, new_sat, row_range, col_range, new_sums,
        );
        let SearchGeometry {
            s,
            h,
            w,
            tiles_y,
            tiles_x,
            n_tiles,
            grid_h,
            grid_w,
            n_rf,
        } = g;

        // Ascending-magnitude visit order, stable within equal magnitude
        // (preserves row-major order there, matching the reference
        // tie-break as described above).
        let axis = self.params.offsets();
        offsets.clear();
        for &dy in &axis {
            for &dx in &axis {
                offsets.push((dy, dx));
            }
        }
        offsets.sort_by_key(|&(dy, dx)| dy * dy + dx * dx);

        let mut consumer_ops: u64 = 0;
        let mut search = SearchStats::default();

        let s2 = (s * s) as u32;
        best.clear();
        best.resize(
            n_rf,
            RfMatch {
                vector: MotionVector::ZERO,
                error: u32::MAX,
                pixels: 0,
            },
        );
        // `lb`/`tile_valid`/`exact` are (re)written before every read at
        // each offset; `needed` must start all-false.
        lb.resize(n_tiles, 0);
        tile_valid.resize(n_tiles, false);
        exact.resize(n_tiles, 0);
        needed.clear();
        needed.resize(n_tiles, false);
        colsum.resize(tiles_x, 0);
        colvalid.resize(tiles_x, true);

        for &(dy, dx) in offsets.iter() {
            // Stage 1: per-tile validity + SAD lower bound (O(1) per tile).
            for ty in 0..tiles_y {
                let ky = (ty * s) as isize + dy;
                let row_ok = ky >= 0 && ky + s as isize <= h as isize;
                for tx in 0..tiles_x {
                    let t = ty * tiles_x + tx;
                    let kx = (tx * s) as isize + dx;
                    if !row_ok || kx < 0 || kx + s as isize > w as isize {
                        tile_valid[t] = false;
                        continue;
                    }
                    tile_valid[t] = true;
                    let key_sum = key_sat.window_sum(ky as usize, kx as usize, s, s);
                    lb[t] = new_sums[t].abs_diff(key_sum);
                }
            }
            consumer_ops += n_tiles as u64;

            // Stage 2: aggregate bounds per receptive field (rolling column
            // reuse, as in the hardware consumer) and collect the fields
            // this offset could still improve.
            improvable.clear();
            let mut any_needed = false;
            for (ay, &(ty0, ty1)) in row_range.iter().enumerate() {
                if ty0 >= ty1 {
                    continue;
                }
                for tx in 0..tiles_x {
                    let mut sum = 0u64;
                    let mut valid = true;
                    for ty in ty0..ty1 {
                        let t = ty * tiles_x + tx;
                        if !tile_valid[t] {
                            valid = false;
                            break;
                        }
                        sum += lb[t];
                    }
                    consumer_ops += (ty1 - ty0) as u64;
                    colsum[tx] = sum;
                    colvalid[tx] = valid;
                }
                for (ax, &(tx0, tx1)) in col_range.iter().enumerate() {
                    if tx0 >= tx1 || colvalid[tx0..tx1].iter().any(|&v| !v) {
                        continue;
                    }
                    let mut lb_sum = 0u64;
                    for &c in &colsum[tx0..tx1] {
                        lb_sum += c;
                    }
                    consumer_ops += (tx1 - tx0) as u64;
                    let idx = ay * grid_w + ax;
                    search.candidates += 1;
                    if lb_sum < best[idx].error as u64 {
                        improvable.push(idx);
                        for ty in ty0..ty1 {
                            for tx in tx0..tx1 {
                                needed[ty * tiles_x + tx] = true;
                            }
                        }
                        any_needed = true;
                    } else {
                        search.rejected_level0 += 1;
                    }
                }
            }
            if !any_needed {
                continue; // diff-tile early exit: no field can improve here
            }

            // Stage 3: SAD refinement, only for tiles a still-improvable
            // field covers.
            for ty in 0..tiles_y {
                for tx in 0..tiles_x {
                    let t = ty * tiles_x + tx;
                    if !needed[t] {
                        continue;
                    }
                    needed[t] = false;
                    let ky = ((ty * s) as isize + dy) as usize;
                    let kx = ((tx * s) as isize + dx) as usize;
                    exact[t] = sad_window(new, key, (ty * s, tx * s), (ky, kx), s, s);
                    producer_ops += s2 as u64;
                }
            }

            // Stage 4: exact aggregation + min-check update (strictly
            // smaller wins; visit order provides the tie-break).
            for &idx in improvable.iter() {
                let (ty0, ty1) = row_range[idx / grid_w.max(1)];
                let (tx0, tx1) = col_range[idx % grid_w.max(1)];
                let mut sum = 0u64;
                for ty in ty0..ty1 {
                    for tx in tx0..tx1 {
                        sum += exact[ty * tiles_x + tx] as u64;
                    }
                }
                let n = ((ty1 - ty0) * (tx1 - tx0)) as u64;
                consumer_ops += n;
                search.refined += 1;
                let err = sum.min(u32::MAX as u64 - 1) as u32;
                let b = &mut best[idx];
                if err < b.error {
                    *b = RfMatch {
                        vector: MotionVector::new(dy as f32, dx as f32),
                        error: err,
                        pixels: n as u32 * s2,
                    };
                }
            }
        }

        Self::result_from_matches(
            self.rf,
            best,
            grid_h,
            grid_w,
            producer_ops,
            consumer_ops,
            search,
        )
    }

    /// Finalises per-field matches into an [`RfbmeResult`], mapping fields
    /// that never saw a valid offset to zero motion / zero error.
    fn result_from_matches(
        rf: RfGeometry,
        matches: &[RfMatch],
        grid_h: usize,
        grid_w: usize,
        producer_ops: u64,
        consumer_ops: u64,
        search: SearchStats,
    ) -> RfbmeResult {
        let mut field = VectorField::zeros(grid_h, grid_w, rf.stride);
        let mut errors = Vec::with_capacity(matches.len());
        let mut total: u64 = 0;
        let mut total_pixels: u64 = 0;
        for (i, m) in matches.iter().enumerate() {
            let m = if m.error == u32::MAX {
                RfMatch {
                    vector: MotionVector::ZERO,
                    error: 0,
                    pixels: 0,
                }
            } else {
                *m
            };
            field.set(i / grid_w.max(1), i % grid_w.max(1), m.vector);
            errors.push(m.error);
            total += m.error as u64;
            total_pixels += m.pixels as u64;
        }
        RfbmeResult {
            field,
            errors,
            total_error: total,
            total_pixels,
            producer_ops,
            consumer_ops,
            search,
        }
    }
}

impl MotionEstimator for Rfbme {
    fn name(&self) -> &str {
        "RFBME"
    }

    fn estimate(&self, key: &GrayImage, new: &GrayImage) -> MotionResult {
        let r = Rfbme::estimate(self, key, new);
        MotionResult {
            ops: r.ops(),
            total_error: Some(r.total_error),
            field: r.field,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(h: usize, w: usize) -> GrayImage {
        GrayImage::from_fn(h, w, |y, x| (((y * 31 + x * 17) ^ (y * x / 3)) % 251) as u8)
    }

    fn rf_844() -> RfGeometry {
        RfGeometry {
            size: 8,
            stride: 4,
            padding: 0,
        }
    }

    #[test]
    fn search_offsets_respect_step() {
        let p = SearchParams { radius: 4, step: 2 };
        assert_eq!(p.offsets(), vec![-4, -2, 0, 2, 4]);
        assert_eq!(p.window_len(), 25);
    }

    #[test]
    fn ops_bound_dominates_measured_ops() {
        // The static bound must hold for any frame contents: frames where
        // pruning is perfect (identical), typical (translation), and poor
        // (uncorrelated noise) — across geometries with and without padding.
        let geoms = [
            (rf_844(), SearchParams { radius: 4, step: 1 }),
            (
                RfGeometry {
                    size: 6,
                    stride: 3,
                    padding: 2,
                },
                SearchParams { radius: 3, step: 2 },
            ),
        ];
        let key = textured(40, 40);
        let shifted = key.translate(2, 3, 0);
        let noise = GrayImage::from_fn(40, 40, |y, x| ((y * 97 + x * 41 + 13) % 256) as u8);
        for (rf, params) in geoms {
            let rfbme = Rfbme::new(rf, params);
            let bound = rfbme.ops_bound(40, 40);
            for new in [&key, &shifted, &noise] {
                let r = rfbme.estimate(&key, new);
                assert!(
                    r.ops() <= bound,
                    "measured {} > bound {bound} for rf {rf:?} params {params:?}",
                    r.ops()
                );
            }
        }
    }

    #[test]
    fn scratch_bytes_bound_dominates_warmed_heap_bytes() {
        let rfbme = Rfbme::new(rf_844(), SearchParams { radius: 4, step: 1 });
        let key = textured(48, 48);
        let new = key.translate(2, 1, 0);
        let mut scratch = RfbmeScratch::new();
        for _ in 0..3 {
            let _ = rfbme.estimate_with(&key, &new, &mut scratch);
        }
        let used = scratch.heap_bytes();
        let bound = rfbme.scratch_bytes_bound(48, 48);
        assert!(used <= bound, "warmed scratch {used} B > bound {bound} B");
        // Tightness: almost every buffer is sized exactly by the geometry,
        // so the bound should be close — a big gap means the model and the
        // implementation have drifted apart.
        assert!(
            bound <= used * 2,
            "bound {bound} B is >2x warmed scratch {used} B"
        );
    }

    #[test]
    fn warmed_estimate_reuses_scratch_without_growth() {
        // The serving engine's alloc audit relies on this: once warmed for
        // a frame size, further estimates leave the scratch heap unchanged.
        let rfbme = Rfbme::new(rf_844(), SearchParams { radius: 4, step: 1 });
        let key = textured(48, 48);
        let mut scratch = RfbmeScratch::new();
        let _ = rfbme.estimate_with(&key, &key.translate(1, 0, 0), &mut scratch);
        let warmed = scratch.heap_bytes();
        for dx in 0..4 {
            let _ = rfbme.estimate_with(&key, &key.translate(0, dx, 0), &mut scratch);
            assert_eq!(scratch.heap_bytes(), warmed, "scratch grew at dx={dx}");
        }
    }

    #[test]
    fn identical_frames_give_zero_vectors_and_zero_error() {
        let img = textured(32, 32);
        let rfbme = Rfbme::new(rf_844(), SearchParams { radius: 4, step: 1 });
        let r = rfbme.estimate(&img, &img);
        assert_eq!(r.total_error, 0);
        assert!(r.field.iter().all(|v| *v == MotionVector::ZERO));
    }

    #[test]
    fn global_translation_is_recovered() {
        let key = textured(40, 40);
        // New frame: content moved right by 3 pixels → best match for a new
        // block at p is at p + v with v = (0, -3).
        let new = key.translate(0, 3, 0);
        let rfbme = Rfbme::new(rf_844(), SearchParams { radius: 4, step: 1 });
        let r = rfbme.estimate(&key, &new);
        let mut hits = 0;
        let mut total = 0;
        for gy in 0..r.field.grid_h() {
            for gx in 2..r.field.grid_w() {
                // skip leftmost columns polluted by the translation fill
                total += 1;
                if r.field.get(gy, gx) == MotionVector::new(0.0, -3.0) {
                    hits += 1;
                }
            }
        }
        assert!(hits * 10 >= total * 8, "only {hits}/{total} fields correct");
    }

    #[test]
    fn vertical_translation_sign() {
        let key = textured(40, 40);
        let new = key.translate(2, 0, 0); // content moved down
        let rfbme = Rfbme::new(rf_844(), SearchParams { radius: 4, step: 1 });
        let r = rfbme.estimate(&key, &new);
        let center = r.field.get(r.field.grid_h() / 2, r.field.grid_w() / 2);
        assert_eq!(center, MotionVector::new(-2.0, 0.0));
    }

    #[test]
    fn consumer_matches_brute_force_sums() {
        // The rolling-window consumer must agree with a brute-force
        // recomputation of every receptive-field difference.
        let key = textured(32, 32);
        let new = key.translate(1, 2, 7);
        let rf = rf_844();
        let params = SearchParams { radius: 2, step: 1 };
        let producer = DiffTileProducer {
            tile: rf.stride,
            params,
        };
        let tiles = producer.produce(&key, &new);
        let grid = rf.grid_len(32);
        let consumer = DiffTileConsumer { rf };
        let (matches, _) = consumer.consume(&tiles, grid, grid);
        // Brute force.
        for ay in 0..grid {
            for ax in 0..grid {
                let (ty0, ty1) = consumer.tile_range(ay, tiles.tiles_y);
                let (tx0, tx1) = consumer.tile_range(ax, tiles.tiles_x);
                let mut best_err = u32::MAX;
                for (oi, _) in tiles.offsets.iter().enumerate() {
                    let mut sum: u64 = 0;
                    let mut valid = true;
                    for ty in ty0..ty1 {
                        for tx in tx0..tx1 {
                            let d = tiles.diffs[oi][ty * tiles.tiles_x + tx];
                            if d == INVALID {
                                valid = false;
                            } else {
                                sum += d as u64;
                            }
                        }
                    }
                    if valid {
                        best_err = best_err.min(sum as u32);
                    }
                }
                // Never-valid fields keep the sentinel here; the result
                // finaliser maps them to zero.
                let got = matches[ay * grid + ax].error;
                assert_eq!(got, best_err, "rf ({ay},{ax})");
            }
        }
    }

    #[test]
    fn padding_shrinks_valid_tile_range_at_edges() {
        let rf = RfGeometry {
            size: 6,
            stride: 2,
            padding: 2,
        };
        let consumer = DiffTileConsumer { rf };
        // Fig 7a: the first receptive field starts at -2; only tiles 0 and 1
        // (pixels 0..4) are fully inside it.
        assert_eq!(consumer.tile_range(0, 10), (0, 2));
        // Fig 7b: second receptive field covers pixels 0..6 → tiles 0..3.
        assert_eq!(consumer.tile_range(1, 10), (0, 3));
    }

    #[test]
    fn producer_skips_out_of_bounds_windows() {
        let img = textured(16, 16);
        let producer = DiffTileProducer {
            tile: 4,
            params: SearchParams { radius: 8, step: 4 },
        };
        let tiles = producer.produce(&img, &img);
        // Corner tile (0,0) cannot match at offset (-8,-8).
        let oi = tiles
            .offsets
            .iter()
            .position(|&o| o == (-8, -8))
            .expect("offset present");
        assert_eq!(tiles.diffs[oi][0], INVALID);
        // But it can match at (0, 0).
        let oi0 = tiles.offsets.iter().position(|&o| o == (0, 0)).unwrap();
        assert_eq!(tiles.diffs[oi0][0], 0);
    }

    #[test]
    fn ops_are_far_below_unoptimized_for_large_strides() {
        // §IV-A: reuse gains scale with stride². With rf 16/8, the optimized
        // op count must be well under the unoptimized rf_size² per offset.
        let key = textured(64, 64);
        let new = key.translate(1, 1, 0);
        let rf = RfGeometry {
            size: 16,
            stride: 8,
            padding: 0,
        };
        let rfbme = Rfbme::new(rf, SearchParams { radius: 8, step: 2 });
        let r = rfbme.estimate(&key, &new);
        let grid = rf.grid_len(64);
        let window = SearchParams { radius: 8, step: 2 }.window_len() as u64;
        let unoptimized = (grid * grid) as u64 * window * (rf.size * rf.size) as u64;
        assert!(
            r.ops() * 2 < unoptimized,
            "ops {} not far below unoptimized {unoptimized}",
            r.ops()
        );
    }

    #[test]
    fn occlusion_raises_block_error() {
        let key = textured(32, 32);
        let mut new = key.clone();
        // Paint a block of "new pixels" (de-occlusion).
        for y in 8..20 {
            for x in 8..20 {
                new.set(y, x, 255);
            }
        }
        let rfbme = Rfbme::new(rf_844(), SearchParams { radius: 4, step: 1 });
        let clean = rfbme.estimate(&key, &key).total_error;
        let occluded = rfbme.estimate(&key, &new).total_error;
        assert!(occluded > clean + 1000, "occluded {occluded} clean {clean}");
    }

    #[test]
    fn grid_len_matches_conv_arithmetic() {
        let rf = RfGeometry {
            size: 8,
            stride: 4,
            padding: 2,
        };
        // (32 + 4 - 8)/4 + 1 = 8
        assert_eq!(rf.grid_len(32), 8);
        assert_eq!(rf_844().grid_len(32), 7);
    }

    fn assert_same_result(fast: &RfbmeResult, reference: &RfbmeResult, label: &str) {
        assert_eq!(fast.errors, reference.errors, "{label}: errors differ");
        assert_eq!(
            fast.total_error, reference.total_error,
            "{label}: total_error differs"
        );
        assert_eq!(
            fast.total_pixels, reference.total_pixels,
            "{label}: total_pixels differs"
        );
        assert_eq!(fast.field, reference.field, "{label}: vector fields differ");
    }

    #[test]
    fn fast_path_matches_reference_on_translations() {
        let key = textured(48, 48);
        let rfs = [
            rf_844(),
            RfGeometry {
                size: 16,
                stride: 8,
                padding: 0,
            },
            RfGeometry {
                size: 27,
                stride: 8,
                padding: 10,
            },
        ];
        for rf in rfs {
            let rfbme = Rfbme::new(rf, SearchParams { radius: 6, step: 1 });
            for (dy, dx) in [(0isize, 0isize), (0, 1), (2, -3), (-5, 4), (8, 8)] {
                let new = key.translate(dy, dx, 31);
                let fast = rfbme.estimate(&key, &new);
                let reference = rfbme.estimate_reference(&key, &new);
                assert_same_result(&fast, &reference, &format!("rf {rf:?} shift ({dy},{dx})"));
            }
        }
    }

    #[test]
    fn fast_path_matches_reference_on_occlusion_and_noise() {
        let key = textured(40, 40);
        let mut new = key.translate(1, 1, 0);
        for y in 10..22 {
            for x in 14..26 {
                new.set(y, x, 240);
            }
        }
        for step in [1usize, 2, 3] {
            let rfbme = Rfbme::new(rf_844(), SearchParams { radius: 5, step });
            let fast = rfbme.estimate(&key, &new);
            let reference = rfbme.estimate_reference(&key, &new);
            assert_same_result(&fast, &reference, &format!("step {step}"));
        }
    }

    #[test]
    fn scratch_reuse_across_sizes_and_geometries_is_identical() {
        // One scratch driven across shrinking/growing frames and changing
        // geometries must reproduce fresh-scratch results exactly — the
        // worker thread and every session reuse one scratch for life.
        let mut scratch = RfbmeScratch::new();
        let cases = [
            (48usize, rf_844(), 4usize, (2isize, -3isize)),
            (
                32,
                RfGeometry {
                    size: 16,
                    stride: 8,
                    padding: 0,
                },
                6,
                (0, 1),
            ),
            (48, rf_844(), 3, (-5, 4)),
            (
                64,
                RfGeometry {
                    size: 27,
                    stride: 8,
                    padding: 10,
                },
                5,
                (8, 8),
            ),
        ];
        for (dim, rf, radius, (dy, dx)) in cases {
            let key = textured(dim, dim);
            let new = key.translate(dy, dx, 17);
            let rfbme = Rfbme::new(rf, SearchParams { radius, step: 1 });
            let reused = rfbme.estimate_with(&key, &new, &mut scratch);
            let fresh = rfbme.estimate(&key, &new);
            assert_same_result(&reused, &fresh, &format!("dim {dim} rf {rf:?}"));
            assert_eq!(reused.producer_ops, fresh.producer_ops, "producer ops");
            assert_eq!(reused.consumer_ops, fresh.consumer_ops, "consumer ops");
        }
    }

    #[test]
    fn fast_path_early_exit_skips_refinement_on_static_scenes() {
        // An identical frame pair: the zero offset matches exactly, so every
        // other candidate's SAD refinement must be pruned and the producer
        // op count collapses toward a single pass (plus the O(pixels)
        // window-sum precomputation).
        let img = textured(64, 64);
        let rf = RfGeometry {
            size: 16,
            stride: 8,
            padding: 0,
        };
        let rfbme = Rfbme::new(rf, SearchParams { radius: 8, step: 1 });
        let fast = rfbme.estimate(&img, &img);
        let reference = rfbme.estimate_reference(&img, &img);
        assert_same_result(&fast, &reference, "static scene");
        assert!(
            fast.producer_ops * 4 < reference.producer_ops,
            "early exit should skip most SAD work: fast {} vs reference {}",
            fast.producer_ops,
            reference.producer_ops
        );
    }

    #[test]
    fn onelevel_and_twolevel_agree_with_reference() {
        // Three independent implementations of the same search must agree
        // exactly — vectors included (the tie-break contract).
        let key = textured(48, 48);
        for (dy, dx) in [(0isize, 0isize), (1, 1), (3, -2), (-6, 5), (8, 8)] {
            let new = key.translate(dy, dx, 19);
            for rf in [
                rf_844(),
                RfGeometry {
                    size: 27,
                    stride: 8,
                    padding: 10,
                },
            ] {
                let rfbme = Rfbme::new(rf, SearchParams { radius: 6, step: 1 });
                let fast = rfbme.estimate(&key, &new);
                let one = rfbme.estimate_onelevel(&key, &new);
                let reference = rfbme.estimate_reference(&key, &new);
                assert_same_result(&fast, &reference, &format!("best-first ({dy},{dx})"));
                assert_same_result(&one, &reference, &format!("one-level ({dy},{dx})"));
            }
        }
    }

    #[test]
    fn search_stats_account_for_every_candidate() {
        let key = textured(48, 48);
        let new = key.translate(2, -3, 41);
        let rfbme = Rfbme::new(rf_844(), SearchParams { radius: 5, step: 1 });
        let r = rfbme.estimate(&key, &new);
        let s = r.search;
        assert!(s.candidates > 0);
        assert_eq!(
            s.candidates,
            s.rejected_level0 + s.rejected_level1 + s.refined,
            "counters must partition the candidates: {s:?}"
        );
        // Neither search has a second bound tier. The one-level baseline
        // refines at least as much: its ascending-magnitude order tightens
        // the running minima later than the best-first order does.
        assert_eq!(s.rejected_level1, 0);
        let one = rfbme.estimate_onelevel(&key, &new).search;
        assert_eq!(one.rejected_level1, 0);
        assert_eq!(one.candidates, s.candidates, "same valid pairs");
        assert!(
            s.refined <= one.refined,
            "best-first refined {} > one-level {}",
            s.refined,
            one.refined
        );
        // The reference prunes nothing and reports nothing.
        let reference = rfbme.estimate_reference(&key, &new).search;
        assert_eq!(reference, SearchStats::default());
    }

    #[test]
    fn two_level_pruning_rejects_most_candidates_on_small_motion() {
        // The steady-state serving case: small inter-frame motion. After
        // the best-first order lands on the true offset, the level-0 bound
        // must reject most of the remaining candidates before any SAD.
        let key = textured(48, 48);
        let new = key.translate(1, 1, 7);
        let rfbme = Rfbme::new(
            RfGeometry {
                size: 16,
                stride: 8,
                padding: 0,
            },
            SearchParams { radius: 8, step: 1 },
        );
        let s = rfbme.estimate(&key, &new).search;
        // Exact counts, pinned when the level-1 tier (per-row and
        // per-column-strip bounds) was removed: level 0 and the visit order
        // did not change, so neither may its reject count; every candidate
        // that used to reach level 1 (941 rejected there, 638 refined) is
        // now refined.
        assert_eq!(s.candidates, 4761, "{s:?}");
        assert_eq!(s.rejected_level0, 3182, "{s:?}");
        assert_eq!(s.refined, 941 + 638, "{s:?}");
        assert_eq!(s.rejected_level1, 0, "{s:?}");
    }

    #[test]
    fn estimator_trait_reports_error() {
        let img = textured(24, 24);
        let rfbme = Rfbme::new(rf_844(), SearchParams { radius: 2, step: 1 });
        let res = MotionEstimator::estimate(&rfbme, &img, &img);
        assert_eq!(res.total_error, Some(0));
        assert_eq!(MotionEstimator::name(&rfbme), "RFBME");
        assert!(res.ops > 0);
    }
}

//! Chunked sum-of-absolute-difference kernels and window-sum precomputation.
//!
//! The RFBME diff tile producer's inner loop is a `u8` SAD over a
//! `stride × stride` window — the canonical block-matching kernel. The
//! original implementation read pixels one at a time through bounds-checked
//! accessors; the kernels here operate on row slices in fixed-width chunks so
//! the compiler can keep the accumulation in vector registers (with
//! `target-cpu=native` this lowers to `psadbw`-class code on x86-64).
//!
//! [`IntegralImage`] provides O(1) window sums, from which the fast RFBME
//! path ([`crate::rfbme::Rfbme::estimate`]) derives its one lower bound on
//! tile SADs, [`sad_lower_bound`]: `|Σ new − Σ key| ≤ SAD(new, key)` by the
//! triangle inequality, one subtraction from two O(1) window sums. A
//! candidate offset whose aggregated bound already exceeds a receptive
//! field's running-minimum error cannot win, so its SAD refinement is
//! skipped entirely — the diff-tile early exit.
//!
//! Candidates the bound cannot reject are refined exactly by
//! [`sad_tile_sweep`], which computes the SADs of a whole rectangle of
//! tiles at one offset in a single pass over contiguous pixel rows.
//! Refining whole tile rows at once costs about what a finer (per-row or
//! per-column band) bound per tile would, so no intermediate bound tier
//! sits between the two.

use eva2_tensor::GrayImage;
use std::ops::Range;

/// Sum of absolute differences between two equal-length byte rows.
///
/// Accumulates in 8-wide chunks (tiles are `stride` pixels wide — 8 on the
/// paper's geometries, 4 in the small test geometries) with a scalar tail.
#[inline]
pub fn sad_row(a: &[u8], b: &[u8]) -> u32 {
    debug_assert_eq!(a.len(), b.len(), "sad_row length mismatch");
    let mut acc = 0u32;
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (ka, kb) in (&mut ca).zip(&mut cb) {
        let mut s = 0u32;
        for i in 0..8 {
            s += (ka[i] as i32 - kb[i] as i32).unsigned_abs();
        }
        acc += s;
    }
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        acc += (x as i32 - y as i32).unsigned_abs();
    }
    acc
}

/// SAD between an `h × w` window of `new` anchored at `(ny, nx)` and an
/// equally-sized window of `key` anchored at `(ky, kx)`.
///
/// Both windows must lie fully inside their frames (the caller performs the
/// bounds check once per candidate, not per pixel).
#[inline]
pub fn sad_window(
    new: &GrayImage,
    key: &GrayImage,
    (ny, nx): (usize, usize),
    (ky, kx): (usize, usize),
    h: usize,
    w: usize,
) -> u32 {
    debug_assert!(ny + h <= new.height() && nx + w <= new.width());
    debug_assert!(ky + h <= key.height() && kx + w <= key.width());
    let nw = new.width();
    let kw = key.width();
    let nd = new.as_slice();
    let kd = key.as_slice();
    let mut acc = 0u32;
    for row in 0..h {
        let no = (ny + row) * nw + nx;
        let ko = (ky + row) * kw + kx;
        acc += sad_row(&nd[no..no + w], &kd[ko..ko + w]);
    }
    acc
}

/// A summed-area table over a [`GrayImage`], giving O(1) window sums.
///
/// `sat[(y, x)]` holds the sum of all pixels above and left of `(y, x)`
/// exclusive, so a window sum is four lookups. Sums are `u64` so arbitrarily
/// large frames cannot overflow.
#[derive(Debug, Clone, Default)]
pub struct IntegralImage {
    width: usize,
    sat: Vec<u64>,
}

impl IntegralImage {
    /// Builds the table in one pass over the image.
    pub fn new(img: &GrayImage) -> Self {
        let mut sat = Self::default();
        sat.recompute(img);
        sat
    }

    /// Bytes of heap memory this table holds (allocated capacity) — the
    /// serving engine's per-session memory audit.
    pub fn heap_bytes(&self) -> usize {
        self.sat.capacity() * std::mem::size_of::<u64>()
    }

    /// Rebuilds the table for `img`, reusing this table's allocation — the
    /// frame-loop entry point (an RFBME estimate needs two tables per
    /// frame, and the worker thread runs one estimate per frame).
    pub fn recompute(&mut self, img: &GrayImage) {
        let (h, w) = (img.height(), img.width());
        let stride = w + 1;
        self.width = w;
        // Interior cells are all overwritten below; only the zero border
        // (row 0 and column 0) needs initialising.
        self.sat.resize((h + 1) * stride, 0);
        self.sat[..stride].fill(0);
        let data = img.as_slice();
        for y in 0..h {
            let mut row_sum = 0u64;
            let src = &data[y * w..(y + 1) * w];
            let (prev, cur) = self.sat.split_at_mut((y + 1) * stride);
            let prev = &prev[y * stride..];
            cur[0] = 0;
            for x in 0..w {
                row_sum += src[x] as u64;
                cur[x + 1] = prev[x + 1] + row_sum;
            }
        }
    }

    /// Sum of the `h × w` window anchored at `(y, x)` (must be in bounds).
    #[inline]
    pub fn window_sum(&self, y: usize, x: usize, h: usize, w: usize) -> u64 {
        let s = self.width + 1;
        let (y1, x1) = (y + h, x + w);
        self.sat[y1 * s + x1] + self.sat[y * s + x] - self.sat[y * s + x1] - self.sat[y1 * s + x]
    }
}

/// Level-0 SAD lower bound: `|Σ new − Σ key|` over the two windows.
///
/// Admissible by the triangle inequality (`|Σ(a−b)| ≤ Σ|a−b|`); O(1).
#[inline]
pub fn sad_lower_bound(
    new_sat: &IntegralImage,
    key_sat: &IntegralImage,
    (ny, nx): (usize, usize),
    (ky, kx): (usize, usize),
    h: usize,
    w: usize,
) -> u64 {
    new_sat
        .window_sum(ny, nx, h, w)
        .abs_diff(key_sat.window_sum(ky, kx, h, w))
}

/// Widest run of columns [`sad_tile_sweep`] accumulates at once.
const SWEEP_BLOCK: usize = 64;

/// Exact SADs of every `s × s` tile in the tile rectangle `rows × cols` of
/// `new` against the key-frame window displaced by `(dy, dx)`, written to
/// `out[ty * tiles_x + tx]` with `tiles_x = new.width() / s`.
///
/// One pass over contiguous pixel rows per tile row: the absolute
/// differences of the new-frame span `cols.start·s .. cols.end·s` and the
/// equally long displaced key-frame span are summed per column over the
/// tile row's `s` pixel rows, in blocks of whole tiles at most
/// `SWEEP_BLOCK` columns wide, and each `s`-wide chunk of column sums is
/// one tile's SAD. Those are the pixels [`sad_window`] sums, so the results
/// are equal; tiles wider than a block take [`sad_window`] itself.
///
/// Every displaced window must lie inside the key frame (the RFBME search
/// clips the rectangle to the offset's valid tile range), and `key` must be
/// as wide as `new`.
pub fn sad_tile_sweep(
    new: &GrayImage,
    key: &GrayImage,
    s: usize,
    (rows, cols): (Range<usize>, Range<usize>),
    (dy, dx): (isize, isize),
    out: &mut [u32],
) {
    debug_assert_eq!(new.width(), key.width(), "sad_tile_sweep width mismatch");
    if s == 0 || cols.is_empty() {
        return;
    }
    let w = new.width();
    let tiles_x = w / s;
    if s > SWEEP_BLOCK {
        for ty in rows {
            for tx in cols.clone() {
                let k = (
                    ((ty * s) as isize + dy) as usize,
                    ((tx * s) as isize + dx) as usize,
                );
                out[ty * tiles_x + tx] = sad_window(new, key, (ty * s, tx * s), k, s, s);
            }
        }
        return;
    }
    let (nd, kd) = (new.as_slice(), key.as_slice());
    // A column sums at most s ≤ SWEEP_BLOCK differences of at most 255,
    // so u16 cannot overflow.
    let block = SWEEP_BLOCK / s * s;
    let mut col_sums = [0u16; SWEEP_BLOCK];
    for ty in rows {
        for bx in (cols.start * s..cols.end * s).step_by(block) {
            let width = block.min(cols.end * s - bx);
            let acc = &mut col_sums[..width];
            acc.fill(0);
            for ny in ty * s..(ty + 1) * s {
                let no = ny * w + bx;
                let ko = (ny as isize + dy) as usize * w + (bx as isize + dx) as usize;
                let pixels = nd[no..no + width].iter().zip(&kd[ko..ko + width]);
                for (c, (&a, &b)) in acc.iter_mut().zip(pixels) {
                    *c += u16::from(a.abs_diff(b));
                }
            }
            let t0 = ty * tiles_x + bx / s;
            for (t, chunk) in out[t0..t0 + width / s].iter_mut().zip(acc.chunks_exact(s)) {
                *t = chunk.iter().map(|&v| u32::from(v)).sum();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(h: usize, w: usize) -> GrayImage {
        GrayImage::from_fn(h, w, |y, x| (((y * 31 + x * 17) ^ (y + x * 3)) % 253) as u8)
    }

    fn sad_window_naive(
        new: &GrayImage,
        key: &GrayImage,
        (ny, nx): (usize, usize),
        (ky, kx): (usize, usize),
        h: usize,
        w: usize,
    ) -> u32 {
        let mut acc = 0u32;
        for y in 0..h {
            for x in 0..w {
                let a = new.get(ny + y, nx + x) as i32;
                let b = key.get(ky + y, kx + x) as i32;
                acc += (a - b).unsigned_abs();
            }
        }
        acc
    }

    #[test]
    fn sad_row_matches_scalar() {
        for len in [0usize, 1, 7, 8, 9, 16, 23] {
            let a: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
            let b: Vec<u8> = (0..len).map(|i| (i * 91 % 251) as u8).collect();
            let expect: u32 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| (x as i32 - y as i32).unsigned_abs())
                .sum();
            assert_eq!(sad_row(&a, &b), expect, "len {len}");
        }
    }

    #[test]
    fn sad_window_matches_naive() {
        let new = textured(24, 20);
        let key = textured(24, 20).translate(1, 2, 9);
        for (anchor_n, anchor_k, h, w) in [
            ((0, 0), (0, 0), 8, 8),
            ((3, 5), (1, 2), 8, 8),
            ((10, 7), (12, 9), 4, 4),
            ((0, 0), (16, 12), 8, 7),
            ((5, 5), (5, 5), 1, 1),
        ] {
            assert_eq!(
                sad_window(&new, &key, anchor_n, anchor_k, h, w),
                sad_window_naive(&new, &key, anchor_n, anchor_k, h, w),
            );
        }
    }

    #[test]
    fn integral_image_window_sums() {
        let img = textured(13, 17);
        let sat = IntegralImage::new(&img);
        for (y, x, h, w) in [(0, 0, 13, 17), (0, 0, 1, 1), (5, 3, 4, 8), (12, 16, 1, 1)] {
            let mut expect = 0u64;
            for yy in y..y + h {
                for xx in x..x + w {
                    expect += img.get(yy, xx) as u64;
                }
            }
            assert_eq!(sat.window_sum(y, x, h, w), expect, "({y},{x},{h},{w})");
        }
    }

    #[test]
    fn lower_bound_property_holds() {
        // |Σa − Σb| ≤ SAD(a, b): the pruning invariant of the fast path.
        let new = textured(16, 16);
        let key = textured(16, 16).translate(2, 1, 100);
        let sat_new = IntegralImage::new(&new);
        let sat_key = IntegralImage::new(&key);
        for y in 0..8 {
            for x in 0..8 {
                let a = sat_new.window_sum(y, x, 8, 8);
                let b = sat_key.window_sum(y + 1, x + 1, 8, 8);
                let lb = a.abs_diff(b);
                let sad = sad_window(&new, &key, (y, x), (y + 1, x + 1), 8, 8) as u64;
                assert!(lb <= sad, "lb {lb} > sad {sad} at ({y},{x})");
                assert_eq!(
                    lb,
                    sad_lower_bound(&sat_new, &sat_key, (y, x), (y + 1, x + 1), 8, 8)
                );
            }
        }
    }

    #[test]
    fn tile_sweep_handles_multi_block_rows_and_wide_tiles() {
        // Rows wider than one accumulation block (s = 3 over 130 columns)
        // and tiles wider than a block (s = 72) must still equal
        // sad_window tile by tile.
        let new = textured(150, 160);
        let key = textured(150, 160).translate(-2, 3, 80);
        for (s, (dy, dx)) in [(3usize, (2isize, -3isize)), (72, (1, -2))] {
            let tiles_x = 160 / s;
            let (rows, cols) = (1..150 / s - 1, 1..tiles_x - 1);
            let mut out = vec![0u32; (150 / s) * tiles_x];
            sad_tile_sweep(
                &new,
                &key,
                s,
                (rows.clone(), cols.clone()),
                (dy, dx),
                &mut out,
            );
            for ty in rows {
                for tx in cols.clone() {
                    let k = (
                        ((ty * s) as isize + dy) as usize,
                        ((tx * s) as isize + dx) as usize,
                    );
                    let want = sad_window(&new, &key, (ty * s, tx * s), k, s, s);
                    assert_eq!(out[ty * tiles_x + tx], want, "s {s} tile ({ty},{tx})");
                }
            }
        }
    }
}

//! SWAR x-drop extension kernel: four DP cells per `u64`.
//!
//! This is the vectorised twin of the scalar oracle in [`crate::xdrop`].  DP
//! scores are packed as four lane-packed `i16`s in one `u64` word — lane `t`
//! of word `w` holds column `4·w + t` — and each DP row advances the whole
//! adaptive band a word at a time with branch-free lane-parallel max/add:
//!
//! ```text
//!          u64 word w                     word w+1
//!  ┌──────┬──────┬──────┬──────┐ ┌──────┬──────┬──────┬──────┐
//!  │ j=4w │ 4w+1 │ 4w+2 │ 4w+3 │ │ 4w+4 │ 4w+5 │ 4w+6 │ 4w+7 │   i16 lanes
//!  └──────┴──────┴──────┴──────┘ └──────┴──────┴──────┴──────┘
//!   bits 0..16   ...      48..64
//! ```
//!
//! Lane arithmetic uses the classic carry-masked SWAR add/sub (Hacker's
//! Delight §2-18): the value-range guards of [`swar_eligible`] keep every
//! intermediate inside `i16`, so wrapping lane adds are *exact* — no
//! saturation, hence bit-identical scores.  Dead cells hold the sentinel
//! [`NEG16`]; a dead lane plus any bounded addend stays far below every
//! threshold, so dead lanes may freely participate in the maxes.
//!
//! The within-row left-gap dependency `run[j] = max(tmp[j], run[j-1] + gap)`
//! is a max-plus prefix scan, computed with two in-word log-steps (shift by
//! one lane adding `gap`, shift by two lanes adding `2·gap`) plus a
//! sequential cross-word carry through a `gap`-ramp broadcast.
//!
//! Scores are kept *relative* to a running `i32` base: when the in-band best
//! exceeds `REBASE_AT` (4096), the base absorbs it and every live lane is shifted
//! down (dead lanes are re-pinned at [`NEG16`]).  That gives unbounded total
//! scores (long perfect matches) with `i16` lanes.
//!
//! The kernel implements exactly the two-phase thresholding of
//! [`crate::xdrop::xdrop_extend`] and is proptested to produce bit-identical
//! [`ExtendResult`]s; [`swar_eligible`] names the scoring ranges where the
//! exactness argument holds — outside them the batched engine falls back to
//! the scalar oracle.
//!
//! On x86-64 the batched engine prefers the hardware twin of this kernel —
//! eight `i16` lanes per `__m128i` with true SIMD instructions
//! ([`crate::sse2`], same structure, same exactness argument) — and this
//! portable kernel serves as the fallback for every other target.

use crate::scoring::ScoringScheme;
use crate::xdrop::{ExtendCounters, ExtendResult};

/// Dead-cell sentinel per lane.  `-16384` leaves headroom on both sides:
/// `NEG16 + 3·gap` cannot wrap below `i16::MIN`, and live scores stay below
/// `REBASE_AT + match` which cannot collide with it from above.
pub const NEG16: i16 = -16384;

/// Rebase the relative scores into the `i32` base once the in-band best
/// exceeds this, keeping all lane values well inside `i16`.
const REBASE_AT: i32 = 4096;

const LANES: usize = 4;
const LANE_BITS: u32 = 16;
/// Per-lane sign bits, the carry fence of the SWAR add/sub.
const SIGN: u64 = 0x8000_8000_8000_8000;
const LOW: u64 = 0x0001_0001_0001_0001;
/// All four lanes dead.
const NEG_PAT: u64 = splat(NEG16);

/// Broadcast an `i16` into all four lanes.
const fn splat(x: i16) -> u64 {
    (x as u16 as u64).wrapping_mul(LOW)
}

/// Lane-wise wrapping add without cross-lane carries.
#[inline(always)]
fn add16(x: u64, y: u64) -> u64 {
    ((x & !SIGN).wrapping_add(y & !SIGN)) ^ ((x ^ y) & SIGN)
}

/// Lane-wise wrapping subtract without cross-lane borrows.
#[inline(always)]
fn sub16(x: u64, y: u64) -> u64 {
    ((x | SIGN).wrapping_sub(y & !SIGN)) ^ ((x ^ !y) & SIGN)
}

/// Lane mask: `0xFFFF` where `x < y` (signed), `0` elsewhere.  Exact while
/// each lane difference fits in `i16`, which the eligibility ranges plus
/// rebasing guarantee.
#[inline(always)]
fn lt16_mask(x: u64, y: u64) -> u64 {
    let d = sub16(x, y);
    ((d & SIGN) >> 15).wrapping_mul(0xFFFF)
}

/// Lane-wise signed max.
#[inline(always)]
fn max16(x: u64, y: u64) -> u64 {
    let m = lt16_mask(x, y);
    (x & !m) | (y & m)
}

/// Extract lane `t` as an `i32`.
#[inline(always)]
fn lane(w: u64, t: usize) -> i32 {
    ((w >> (LANE_BITS as usize * t)) as u16 as i16) as i32
}

/// Can the SWAR kernel run this scoring scheme bit-exactly?
///
/// The bounds box every intermediate inside `i16` under wrapping lane adds
/// (see the module docs): per-step addends within ±63, relative scores within
/// `[-xdrop, REBASE_AT + 63]` with `xdrop ≤ 3000`, dead sentinel at `-16384`.
/// The default and `for_error_rate` schemes (`match 1, mismatch -1, gap -1`,
/// `xdrop ≤ ~100`) are comfortably inside; exotic schemes (zero/positive gap,
/// huge penalties, huge xdrop) take the scalar oracle instead.
pub fn swar_eligible(scoring: ScoringScheme, xdrop: i32) -> bool {
    (1..=63).contains(&scoring.match_score)
        && (-63..=0).contains(&scoring.mismatch)
        && (-63..=-1).contains(&scoring.gap)
        && (0..=3000).contains(&xdrop)
}

/// Reusable word buffers for the SWAR kernel: the two row buffers plus the
/// lazily built per-base equality tables of `b`.
///
/// Lane `t` of word `w` always refers to absolute column `4·w + t`; the row
/// buffers are indexed by absolute word, so no per-row repacking happens —
/// the live window just slides over them.
#[derive(Debug, Default)]
pub struct SwarScratch {
    prev: Vec<u64>,
    cur: Vec<u64>,
    /// `eq[c * stride + w]`: lane mask word, `0xFFFF` in lane `t` iff
    /// `b[4w + t - 1] == c`.  Built lazily as the band reaches new words, so
    /// early-terminating extensions never pay for the full length of `b`.
    eq: Vec<u64>,
    eq_stride: usize,
    eq_built: usize,
}

impl SwarScratch {
    /// A fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make sure equality-table words `0..words` are built for this call.
    #[inline]
    fn build_eq_to(&mut self, b: &[u8], words: usize) {
        while self.eq_built < words {
            let w = self.eq_built;
            let mut packed = [0u64; 4];
            for t in 0..LANES {
                let j = w * LANES + t;
                // Column j consumes b[j - 1]; j == 0 and j > b.len() lanes
                // stay zero in all four tables (scored as mismatch, and those
                // cells are dead/outside the window anyway).
                if j >= 1 && j <= b.len() {
                    packed[b[j - 1] as usize] |= 0xFFFFu64 << (LANE_BITS as usize * t);
                }
            }
            for (c, &pk) in packed.iter().enumerate() {
                self.eq[c * self.eq_stride + w] = pk;
            }
            self.eq_built += 1;
        }
    }
}

/// SWAR twin of [`crate::xdrop::xdrop_extend_with`]: same two-phase x-drop
/// semantics, bit-identical [`ExtendResult`], four cells per `u64`.
///
/// The caller must check [`swar_eligible`] first; the batched engine
/// ([`crate::batch`]) does this and falls back to the scalar oracle.
pub fn xdrop_extend_swar(
    a: &[u8],
    b: &[u8],
    scoring: ScoringScheme,
    xdrop: i32,
    scratch: &mut SwarScratch,
    counters: &mut ExtendCounters,
) -> ExtendResult {
    debug_assert!(swar_eligible(scoring, xdrop));
    counters.calls += 1;
    let m = b.len();
    // Words covering columns 0..=m, plus one guard word at the right so the
    // row after a window ending at column m can still read a NEG word.
    let nw = m / LANES + 2;
    if scratch.prev.len() < nw {
        scratch.prev.resize(nw, NEG_PAT);
        scratch.cur.resize(nw, NEG_PAT);
    }
    if scratch.eq_stride < nw {
        scratch.eq_stride = nw;
        scratch.eq.clear();
        scratch.eq.resize(4 * nw, 0);
    }
    scratch.eq_built = 0;

    let gap1 = splat(scoring.gap as i16);
    let gap2 = splat((2 * scoring.gap) as i16);
    // Cross-word scan carry ramp: lane t adds (t + 1) · gap to the carried
    // run value from the previous word.
    let ramp = {
        let g = scoring.gap;
        let mut w = 0u64;
        for t in 0..LANES {
            w |= ((((t as i32 + 1) * g) as i16) as u16 as u64) << (LANE_BITS as usize * t);
        }
        w
    };
    let match16 = splat(scoring.match_score as i16);
    let mism16 = splat(scoring.mismatch as i16);
    // sub = (match & eq) | (mism & !eq) rewritten as two ops per word.
    let subdiff = match16 ^ mism16;

    // Best score = base + best_rel; lanes store scores relative to `base`.
    let mut base = 0i64;
    let mut best_rel = 0i32;
    let (mut best_i, mut best_j) = (0usize, 0usize);

    // Row 0: leading gaps in `a`; fills columns 0..=r0_hi (j·gap ≥ -xdrop).
    // gap ≤ -1 so the row-0 width is at most xdrop + 1 ≪ i16 range.
    let r0_width = ((xdrop / -scoring.gap) as usize + 1).min(m + 1);
    let row0_we = (r0_width - 1) / LANES;
    for w in 0..=row0_we {
        let mut word = NEG_PAT;
        for t in 0..LANES {
            let j = w * LANES + t;
            if j < r0_width {
                word &= !(0xFFFFu64 << (LANE_BITS as usize * t));
                word |= (((j as i32 * scoring.gap) as i16) as u16 as u64)
                    << (LANE_BITS as usize * t);
            }
        }
        scratch.prev[w] = word;
    }
    scratch.prev[row0_we + 1] = NEG_PAT;
    counters.cells += r0_width as u64;
    counters.band_peak = counters.band_peak.max(r0_width as u64);

    // Live window [lo, hi] (absolute columns) of the previous row.
    let mut lo = 0usize;
    let mut hi = r0_width - 1;

    for i in 1..=a.len() {
        let wlo = lo;
        let whi = (hi + 1).min(m);
        let ws = wlo / LANES;
        let we = whi / LANES;
        // best_rel ≤ REBASE_AT and xdrop ≤ 3000, so this fits an i16 lane.
        let thr = splat((best_rel - xdrop) as i16);
        let ai = a[i - 1] as usize;
        scratch.build_eq_to(b, we + 1);
        let eq_row = &scratch.eq[ai * scratch.eq_stride..(ai + 1) * scratch.eq_stride];

        // Keep masks for the boundary words: lanes outside [wlo, whi] must
        // stay dead (a left-gap run can spill past the window's right edge).
        let keep_lo = !0u64 << (LANE_BITS as usize * (wlo - ws * LANES));
        let off_hi = whi - we * LANES;
        let keep_hi = if off_hi < LANES - 1 {
            !0u64 >> (LANE_BITS as usize * (LANES - 1 - off_hi))
        } else {
            !0u64
        };

        // One fused pass: diag/up candidates, the left-gap prefix scan,
        // thresholding and boundary masks — with the row maximum and the
        // live word extent folded in, so the finished row never needs to be
        // re-read.  `carry` holds the pre-threshold run value of the last
        // lane of the previous word (the scan is sequential across words,
        // SWAR within).
        let mut carry: i16 = NEG16;
        let mut rowmax = NEG_PAT;
        let mut first_w = usize::MAX;
        let mut last_w = ws;
        let mut pm1 = if ws == 0 { NEG_PAT } else { scratch.prev[ws - 1] };
        // The fused pass walks prev/cur/eq_row in lockstep and needs `w` for
        // the boundary compares; an iterator zip would obscure, not help.
        #[allow(clippy::needless_range_loop)]
        for w in ws..=we {
            let p = scratch.prev[w];
            // Column 4w+t's diagonal neighbour is column 4w+t-1 of the
            // previous row: shift the band left by one lane across words.
            let diag_src = (p << LANE_BITS) | (pm1 >> (64 - LANE_BITS));
            pm1 = p;
            let sub = mism16 ^ (subdiff & eq_row[w]);
            let diag = add16(diag_src, sub);
            let up = add16(p, gap1);
            let tmp = max16(diag, up);

            // Max-plus prefix scan for run[j] = max(tmp[j], run[j-1] + gap):
            // two in-word log-steps, then the cross-word carry via the ramp.
            let mut v = tmp;
            let s1 = (v << LANE_BITS) | (NEG16 as u16 as u64);
            v = max16(v, add16(s1, gap1));
            let s2 = (v << (2 * LANE_BITS)) | (NEG_PAT >> (2 * LANE_BITS));
            v = max16(v, add16(s2, gap2));
            v = max16(v, add16(splat(carry), ramp));
            carry = (v >> (64 - LANE_BITS)) as u16 as i16;

            // Two-phase x-drop test against the previous rows' best.
            let dead = lt16_mask(v, thr);
            let mut word = (v & !dead) | (NEG_PAT & dead);
            if w == ws {
                word = (word & keep_lo) | (NEG_PAT & !keep_lo);
            }
            if w == we {
                word = (word & keep_hi) | (NEG_PAT & !keep_hi);
            }
            scratch.cur[w] = word;
            rowmax = max16(rowmax, word);
            // Dead lanes hold the exact sentinel, so a word with any live
            // lane differs from NEG_PAT as a whole u64.
            if word != NEG_PAT {
                if first_w == usize::MAX {
                    first_w = w;
                }
                last_w = w;
            }
        }
        // NEG fence words the next row's reads rely on.
        scratch.cur[we + 1] = NEG_PAT;
        if ws > 0 {
            scratch.cur[ws - 1] = NEG_PAT;
        }
        counters.cells += (whi - wlo + 1) as u64;
        counters.band_peak = counters.band_peak.max((whi - wlo + 1) as u64);

        if first_w == usize::MAX {
            counters.terminations += 1;
            return ExtendResult {
                score: (base + i64::from(best_rel)) as i32,
                ext_a: best_i,
                ext_b: best_j,
            };
        }

        // Fold the finished row into the best (first attainment in column
        // order), only when some lane strictly improves on it.  best_rel ≥ 0
        // always, so an improving row maximum is positive and the zero lanes
        // shifted into the horizontal fold cannot win.
        if lt16_mask(splat(best_rel as i16), rowmax) != 0 {
            let fold = max16(rowmax, rowmax >> (2 * LANE_BITS));
            let fold = max16(fold, fold >> LANE_BITS);
            let row_best = lane(fold, 0);
            'scan: for w in first_w..=last_w {
                let word = scratch.cur[w];
                if word == NEG_PAT {
                    continue;
                }
                for t in 0..LANES {
                    if lane(word, t) == row_best {
                        best_rel = row_best;
                        best_i = i;
                        best_j = w * LANES + t;
                        break 'scan;
                    }
                }
            }
        }

        // Trim: first/last live columns (value > NEG16 ⇔ not the sentinel —
        // live lanes are ≥ thr ≥ -xdrop > NEG16), confined to the tracked
        // boundary words.  No explicit re-pinning of the trimmed range is
        // needed: every dead cell inside [wlo, whi] already holds the exact
        // sentinel (the threshold select writes NEG_PAT lanes), and the
        // boundary masks covered the lanes outside it.
        let fword = scratch.cur[first_w];
        let mut first = first_w * LANES;
        for t in 0..LANES {
            if lane(fword, t) > i32::from(NEG16) {
                first = first_w * LANES + t;
                break;
            }
        }
        let lword = scratch.cur[last_w];
        let mut last = last_w * LANES;
        for t in (0..LANES).rev() {
            if lane(lword, t) > i32::from(NEG16) {
                last = last_w * LANES + t;
                break;
            }
        }
        lo = first;
        hi = last;
        std::mem::swap(&mut scratch.prev, &mut scratch.cur);

        // Rebase before the relative scores can outgrow i16.
        if best_rel > REBASE_AT {
            let delta = best_rel;
            let d16 = splat(delta as i16);
            let wl = lo / LANES;
            let wh = hi / LANES;
            for w in wl..=wh {
                let v = scratch.prev[w];
                let shifted = sub16(v, d16);
                // Dead lanes must stay exactly at the sentinel.
                let is_dead = !(lt16_mask(v, NEG_PAT) | lt16_mask(NEG_PAT, v));
                scratch.prev[w] = (shifted & !is_dead) | (NEG_PAT & is_dead);
            }
            base += i64::from(delta);
            best_rel = 0;
        }
    }
    ExtendResult {
        score: (base + i64::from(best_rel)) as i32,
        ext_a: best_i,
        ext_b: best_j,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xdrop::{xdrop_extend_with, XdropScratch};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn swar(a: &[u8], b: &[u8], scoring: ScoringScheme, xdrop: i32) -> (ExtendResult, ExtendCounters) {
        let mut scratch = SwarScratch::new();
        let mut c = ExtendCounters::default();
        let r = xdrop_extend_swar(a, b, scoring, xdrop, &mut scratch, &mut c);
        (r, c)
    }

    fn scalar(a: &[u8], b: &[u8], scoring: ScoringScheme, xdrop: i32) -> (ExtendResult, ExtendCounters) {
        let mut scratch = XdropScratch::new();
        let mut c = ExtendCounters::default();
        let r = xdrop_extend_with(a, b, scoring, xdrop, &mut scratch, &mut c);
        (r, c)
    }

    #[test]
    fn lane_arithmetic_is_exact() {
        let x = splat(-1234);
        let y = splat(700);
        assert_eq!(lane(add16(x, y), 2), -534);
        assert_eq!(lane(sub16(x, y), 0), -1934);
        assert_eq!(max16(x, y), splat(700));
        // Mixed lanes: pack (-3, 5, -16384, 4096) and add 3 everywhere.
        let mixed = (-3i16 as u16 as u64)
            | ((5u16 as u64) << 16)
            | ((NEG16 as u16 as u64) << 32)
            | ((4096u16 as u64) << 48);
        let r = add16(mixed, splat(3));
        assert_eq!(lane(r, 0), 0);
        assert_eq!(lane(r, 1), 8);
        assert_eq!(lane(r, 2), -16381);
        assert_eq!(lane(r, 3), 4099);
    }

    #[test]
    fn identical_sequences_match_scalar() {
        let a: Vec<u8> = (0..100).map(|i| (i % 4) as u8).collect();
        let sc = ScoringScheme::default();
        assert_eq!(swar(&a, &a, sc, 10).0, scalar(&a, &a, sc, 10).0);
        assert_eq!(swar(&a, &a, sc, 10).0.score, 100);
    }

    #[test]
    fn counters_match_scalar() {
        let mut rng = SmallRng::seed_from_u64(11);
        let a: Vec<u8> = (0..300).map(|_| rng.gen_range(0..4u8)).collect();
        let mut b = a.clone();
        for idx in (0..b.len()).step_by(17) {
            b[idx] = (b[idx] + 1) % 4;
        }
        let sc = ScoringScheme::default();
        let (rs, cs) = swar(&a, &b, sc, 30);
        let (rr, cr) = scalar(&a, &b, sc, 30);
        assert_eq!(rs, rr);
        assert_eq!(cs, cr, "both engines walk the same adaptive band");
    }

    #[test]
    fn long_perfect_match_crosses_the_i16_rebase_boundary() {
        // Score grows to 20k ≫ i16::MAX/2: exercises repeated rebasing.
        let a: Vec<u8> = (0..20_000).map(|i| ((i * 7 + 3) % 4) as u8).collect();
        let sc = ScoringScheme { match_score: 3, mismatch: -2, gap: -2 };
        let r = swar(&a, &a, sc, 40).0;
        assert_eq!(r, scalar(&a, &a, sc, 40).0);
        assert_eq!(r.score, 60_000);
        assert_eq!(r.ext_a, 20_000);
    }

    #[test]
    fn near_saturation_with_noise_matches_scalar() {
        let mut rng = SmallRng::seed_from_u64(5);
        let a: Vec<u8> = (0..8000).map(|_| rng.gen_range(0..4u8)).collect();
        let mut b = a.clone();
        for idx in (0..b.len()).step_by(40) {
            b[idx] = (b[idx] + rng.gen_range(1..4u8)) % 4;
        }
        // Occasional indels.
        b.remove(1000);
        b.insert(3000, 2);
        let sc = ScoringScheme { match_score: 5, mismatch: -4, gap: -3 };
        assert_eq!(swar(&a, &b, sc, 200).0, scalar(&a, &b, sc, 200).0);
    }

    #[test]
    fn eligibility_bounds() {
        let d = ScoringScheme::default();
        assert!(swar_eligible(d, 49));
        assert!(swar_eligible(d, 0));
        assert!(!swar_eligible(d, -1));
        assert!(!swar_eligible(d, 3001));
        assert!(!swar_eligible(ScoringScheme { match_score: 0, ..d }, 49));
        assert!(!swar_eligible(ScoringScheme { match_score: 64, ..d }, 49));
        assert!(!swar_eligible(ScoringScheme { mismatch: 1, ..d }, 49));
        assert!(!swar_eligible(ScoringScheme { gap: 0, ..d }, 49));
        assert!(!swar_eligible(ScoringScheme { gap: -64, ..d }, 49));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // The tentpole invariant: SWAR and the scalar oracle are
        // bit-identical over random sequences, scoring schemes and xdrops.
        #[test]
        fn swar_matches_scalar_oracle(
            seed in 0u64..1_000_000,
            len_a in 0usize..400,
            len_b in 0usize..400,
            error_pct in 0u32..50,
            match_score in 1i32..8,
            mismatch in -8i32..=0,
            gap in -8i32..=-1,
            xdrop in 0i32..120,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let a: Vec<u8> = (0..len_a).map(|_| rng.gen_range(0..4u8)).collect();
            // b: a mutated copy of a (prefix-correlated) so extensions go deep.
            let mut b: Vec<u8> = a.iter().take(len_b).copied().collect();
            while b.len() < len_b {
                b.push(rng.gen_range(0..4u8));
            }
            for v in b.iter_mut() {
                if rng.gen_range(0..100u32) < error_pct {
                    *v = rng.gen_range(0..4u8);
                }
            }
            let sc = ScoringScheme { match_score, mismatch, gap };
            prop_assert!(swar_eligible(sc, xdrop));
            let (rs, cs) = swar(&a, &b, sc, xdrop);
            let (rr, cr) = scalar(&a, &b, sc, xdrop);
            prop_assert_eq!(rs, rr);
            prop_assert_eq!(cs, cr);
        }

        // Scratch reuse across calls of wildly different shapes never leaks
        // state between extensions.
        #[test]
        fn scratch_reuse_is_stateless(seed in 0u64..100_000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut scratch = SwarScratch::new();
            let sc = ScoringScheme::default();
            for _ in 0..8 {
                let la = rng.gen_range(0..200);
                let lb = rng.gen_range(0..200);
                let a: Vec<u8> = (0..la).map(|_| rng.gen_range(0..4u8)).collect();
                let mut b: Vec<u8> = a.iter().take(lb).copied().collect();
                while b.len() < lb { b.push(rng.gen_range(0..4u8)); }
                let xdrop = rng.gen_range(0..60);
                let mut c = ExtendCounters::default();
                let reused = xdrop_extend_swar(&a, &b, sc, xdrop, &mut scratch, &mut c);
                let fresh = swar(&a, &b, sc, xdrop).0;
                prop_assert_eq!(reused, fresh);
            }
        }
    }
}

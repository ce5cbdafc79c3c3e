//! Lane-generic x-drop extension kernel: one body, three lane widths.
//!
//! This is the vectorised twin of the scalar oracle in [`crate::xdrop`].  DP
//! scores are packed as `i16` lanes — lane `t` of vector `w` holds column
//! `N·w + t` — and each DP row advances the whole adaptive band a vector at a
//! time with branch-free lane-parallel max/add.  One kernel body is generic
//! over a small private lane trait with three impls:
//!
//! ```text
//!  AVX2 (x86-64, detected): __m256i = | s0 | s1 | s2 | ... | s14 | s15 |   16 lanes
//!  SSE2 (x86-64 baseline):  __m128i = | s0 | s1 | s2 | ... | s7 |          8 lanes
//!  SWAR (portable):             u64 = |  s0  |  s1  |  s2  |  s3  |        4 lanes
//! ```
//!
//! The batched engine ([`crate::batch`]) picks the widest impl the CPU runs
//! once per worker scratch: AVX2 when `is_x86_feature_detected!("avx2")`
//! holds, else SSE2 on x86-64, else SWAR.  The AVX2 body is the same generic
//! body, instantiated inside a `#[target_feature(enable = "avx2")]` function
//! so that every lane operation inlines to AVX2 instructions.
//!
//! Lane adds wrap, and the value-range box of [`swar_eligible`] keeps every
//! intermediate inside `i16`, so wrapping adds are *exact* — no saturation,
//! hence bit-identical scores.  Dead cells hold the sentinel [`NEG16`]; a
//! dead lane plus any bounded addend stays far below every threshold, so dead
//! lanes may freely participate in the maxes.
//!
//! The within-row left-gap dependency `run[j] = max(tmp[j], run[j-1] + gap)`
//! is a max-plus prefix scan: log-step lane shifts inside a vector (shift by
//! `k` lanes adding `k·gap`), then the carry from the previous vector through
//! a `(t+1)·gap` ramp.  The carry never leaves the vector registers: it is
//! the previous vector's last lane broadcast to all lanes, and its next value
//! `max(last(scan), carry + N·gap)` is one add and one max away from the
//! current one, so the serial chain across a row is two instructions per
//! vector.
//!
//! Scores are kept *relative* to a running `i64` base: when the in-band best
//! exceeds `REBASE_AT` (4096), the base absorbs it and every live lane is
//! shifted down (dead lanes are re-pinned at [`NEG16`]).  That gives
//! unbounded total scores (long perfect matches) with `i16` lanes.
//!
//! The kernel implements exactly the two-phase thresholding of
//! [`crate::xdrop::xdrop_extend`] and is proptested at every width to
//! produce bit-identical [`ExtendResult`]s and [`ExtendCounters`];
//! [`swar_eligible`] names the scoring ranges where the exactness argument
//! holds — outside them the batched engine falls back to the scalar oracle.

use crate::scoring::ScoringScheme;
use crate::xdrop::{ExtendCounters, ExtendResult};

/// Dead-cell sentinel per lane.  `-16384` leaves headroom on both sides:
/// a dead lane minus the largest scan or carry penalty (`16·63`) cannot wrap
/// below `i16::MIN`, and live scores stay below `REBASE_AT + match` which
/// cannot collide with it from above.
pub const NEG16: i16 = -16384;

/// Rebase the relative scores into the `i64` base once the in-band best
/// exceeds this, keeping all lane values well inside `i16`.
const REBASE_AT: i32 = 4096;

/// A threshold above every live score (at most `REBASE_AT + 2·63`), yet close
/// enough to [`NEG16`] that lane differences stay inside `i16`, as the SWAR
/// compare needs.
const ABOVE_SCORES: i16 = 2 * REBASE_AT as i16;

/// Can the vector kernel run this scoring scheme bit-exactly?
///
/// The bounds box every intermediate inside `i16` under wrapping lane adds
/// (see the module docs): per-step addends within ±63 (at most `16·63` per
/// scan or carry step), relative scores within `[-xdrop, REBASE_AT + 63]`
/// with `xdrop ≤ 3000`, dead sentinel at `-16384`.  The default and
/// `for_error_rate` schemes (`match 1, mismatch -1, gap -1`, `xdrop ≤ ~100`)
/// are comfortably inside; exotic schemes (zero/positive gap, huge
/// penalties, huge xdrop) take the scalar oracle instead.
pub fn swar_eligible(scoring: ScoringScheme, xdrop: i32) -> bool {
    (1..=63).contains(&scoring.match_score)
        && (-63..=0).contains(&scoring.mismatch)
        && (-63..=-1).contains(&scoring.gap)
        && (0..=3000).contains(&xdrop)
}

/// A vector of `N` wrapping `i16` lanes: the operations the kernel body needs.
pub(crate) trait Lanes: Copy {
    /// Lanes per vector (at most 16).
    const N: usize;
    /// `x` in every lane.
    fn splat(x: i16) -> Self;
    /// Lane `t` = `l[t]` for `t < N`.
    fn load(l: &[i16; 16]) -> Self;
    /// Lane-wise wrapping add.
    fn add(self, y: Self) -> Self;
    /// Lane-wise wrapping subtract.
    fn sub(self, y: Self) -> Self;
    /// Lane-wise signed max.
    fn max(self, y: Self) -> Self;
    /// All-ones lanes where `self < y` (signed), zero elsewhere.
    fn lt(self, y: Self) -> Self;
    /// Lanes of `y` where `mask` is all-ones, of `x` elsewhere.
    fn select(mask: Self, x: Self, y: Self) -> Self;
    /// Shift up one lane across vectors: lane 0 takes the last lane of
    /// `prev`, lane `t` takes lane `t - 1` of `self`.
    fn shift_in(self, prev: Self) -> Self;
    /// In-vector max-plus prefix scan, `v[t] = max over s ≤ t of
    /// v[s] + (t - s)·gap`, by log steps: `steps[k]` is `2^k·gap` in every
    /// lane, and `neg` fills the lanes a shift vacates.
    fn scan(self, steps: &[Self; 4], neg: Self) -> Self;
    /// The last lane in every lane.
    fn last(self) -> Self;
    /// Bit `t` set iff lane `t` of `mask` is all-ones.
    fn bits(mask: Self) -> u32;
    /// The largest lane.
    fn hmax(self) -> i16;

    /// Bit `t` set iff lane `t` is live: live lanes hold at least the
    /// threshold (≥ -xdrop), dead ones exactly [`NEG16`].
    #[inline(always)]
    fn live(self) -> u32 {
        Self::bits(Self::splat(NEG16).lt(self))
    }
}

/// A vector whose lane `t` is `f(t)` (truncated to `i16`).
#[inline(always)]
fn from_fn<L: Lanes>(f: impl Fn(usize) -> i32) -> L {
    let mut l = [0i16; 16];
    for (t, v) in l.iter_mut().enumerate().take(L::N) {
        *v = f(t) as i16;
    }
    L::load(&l)
}

/// Reusable buffers of the kernel at one lane width: the two row buffers
/// plus the lazily built substitution-score tables of `b`.
///
/// Lane `t` of vector `w` always refers to absolute column `N·w + t`; the
/// row buffers are indexed by absolute vector, so no per-row repacking
/// happens — the live window just slides over them.
#[derive(Debug)]
pub(crate) struct LaneScratch<L> {
    prev: Vec<L>,
    cur: Vec<L>,
    /// `score[c * stride + w]`: lane `t` holds the match score iff
    /// `b[N·w + t - 1] == c`, the mismatch score otherwise (column 0 and
    /// columns past `b` score as mismatches; those cells are dead or outside
    /// the window anyway).  Built lazily as the band reaches new vectors, so
    /// early-terminating extensions never pay for the full length of `b`.
    score: Vec<L>,
    stride: usize,
    built: usize,
}

impl<L> Default for LaneScratch<L> {
    fn default() -> Self {
        Self { prev: Vec::new(), cur: Vec::new(), score: Vec::new(), stride: 0, built: 0 }
    }
}

impl<L: Lanes> LaneScratch<L> {
    /// Make sure score-table vectors `0..vectors` are built for this call.
    #[inline(always)]
    fn build_to(&mut self, b: &[u8], vectors: usize, scoring: ScoringScheme) {
        while self.built < vectors {
            let w = self.built;
            let mut tables = [[scoring.mismatch as i16; 16]; 4];
            // Column `first + t` is lane t and consumes b[first + t - 1].
            let first = w * L::N;
            for col in first.max(1)..(first + L::N).min(b.len() + 1) {
                tables[b[col - 1] as usize][col - first] = scoring.match_score as i16;
            }
            for (c, lanes) in tables.iter().enumerate() {
                self.score[c * self.stride + w] = L::load(lanes);
            }
            self.built += 1;
        }
    }
}

/// Vector twin of [`crate::xdrop::xdrop_extend_with`]: same two-phase x-drop
/// semantics, bit-identical [`ExtendResult`] and [`ExtendCounters`], `N`
/// cells per vector.
///
/// The caller must check [`swar_eligible`] first; the batched engine does
/// this and falls back to the scalar oracle.  Always inlined, so the AVX2
/// instance compiles inside its `#[target_feature]` entry point.
#[inline(always)]
pub(crate) fn extend<L: Lanes>(
    a: &[u8],
    b: &[u8],
    scoring: ScoringScheme,
    xdrop: i32,
    s: &mut LaneScratch<L>,
    counters: &mut ExtendCounters,
) -> ExtendResult {
    debug_assert!(swar_eligible(scoring, xdrop));
    counters.calls += 1;
    let n = L::N;
    let m = b.len();
    // Vectors covering columns 0..=m, plus one guard vector at the right so
    // the row after a window ending at column m can still read a NEG vector.
    let nv = m / n + 2;
    let neg = L::splat(NEG16);
    if s.prev.len() < nv {
        s.prev.resize(nv, neg);
        s.cur.resize(nv, neg);
    }
    if s.stride < nv {
        s.stride = nv;
        s.score.clear();
        s.score.resize(4 * nv, neg);
    }
    s.built = 0;

    let gap = scoring.gap;
    let gap1 = L::splat(gap as i16);
    let steps =
        [gap1, L::splat((2 * gap) as i16), L::splat((4 * gap) as i16), L::splat((8 * gap) as i16)];
    // Cross-vector carry: lane t adds (t + 1)·gap to the previous vector's
    // last lane, and the next carry is N·gap below the current one.
    let ramp: L = from_fn(|t| (t as i32 + 1) * gap);
    let gap_n = L::splat((n as i32 * gap) as i16);
    let lane_index: L = from_fn(|t| t as i32);

    // Best score = base + best_rel; lanes store scores relative to `base`.
    let mut base = 0i64;
    let mut best_rel = 0i32;
    let (mut best_i, mut best_j) = (0usize, 0usize);

    // Row 0: leading gaps in `a`; fills columns 0..r0_width (j·gap ≥ -xdrop).
    let r0_width = ((xdrop / -gap) as usize + 1).min(m + 1);
    let row0_we = (r0_width - 1) / n;
    for (w, v) in s.prev[..=row0_we].iter_mut().enumerate() {
        *v = from_fn(|t| {
            let j = w * n + t;
            if j < r0_width {
                j as i32 * gap
            } else {
                i32::from(NEG16)
            }
        });
    }
    s.prev[row0_we + 1] = neg;
    counters.cells += r0_width as u64;
    counters.band_peak = counters.band_peak.max(r0_width as u64);

    // Live window [lo, hi] (absolute columns) of the previous row.
    let mut lo = 0usize;
    let mut hi = r0_width - 1;

    for i in 1..=a.len() {
        let wlo = lo;
        let whi = (hi + 1).min(m);
        let (ws, we) = (wlo / n, whi / n);
        // best_rel ≤ REBASE_AT and xdrop ≤ 3000, so this fits an i16 lane.
        let thr = L::splat((best_rel - xdrop) as i16);
        // Lanes past `whi` in the last vector must stay dead (a left-gap run
        // can spill past the window's right edge): a threshold above every
        // score kills them.  Lanes before `wlo` die on their own — their
        // sources in the previous row are dead.
        let past_whi = L::splat((whi - we * n) as i16).lt(lane_index);
        let thr_last = L::select(past_whi, thr, L::splat(ABOVE_SCORES));
        s.build_to(b, we + 1, scoring);
        let row = a[i - 1] as usize * s.stride;
        let score_row = &s.score[row + ws..=row + we];

        // One fused pass: diag/up candidates, the left-gap prefix scan, the
        // x-drop threshold and the row maximum.  `carry` is the pre-threshold
        // run value of the previous vector's last lane, in every lane.
        let mut pm1 = if ws == 0 { neg } else { s.prev[ws - 1] };
        let mut carry = neg;
        let mut rowmax = neg;
        let (prev, cur) = (&s.prev[ws..=we], &mut s.cur[ws..=we]);
        for (k, ((c, &p), &sub)) in cur.iter_mut().zip(prev).zip(score_row).enumerate() {
            // Column N·w+t's diagonal neighbour is column N·w+t-1 of the
            // previous row: shift the band up one lane across vectors.
            let diag = p.shift_in(pm1).add(sub);
            pm1 = p;
            let run = diag.max(p.add(gap1)).scan(&steps, neg);
            let v = run.max(carry.add(ramp));
            carry = run.last().max(carry.add(gap_n));
            let t = if ws + k == we { thr_last } else { thr };
            *c = L::select(v.lt(t), v, neg);
            rowmax = rowmax.max(*c);
        }
        // NEG fence vectors the next row's reads rely on.
        s.cur[we + 1] = neg;
        if ws > 0 {
            s.cur[ws - 1] = neg;
        }
        counters.cells += (whi - wlo + 1) as u64;
        counters.band_peak = counters.band_peak.max((whi - wlo + 1) as u64);

        let mut first_w = ws;
        while first_w <= we && s.cur[first_w].live() == 0 {
            first_w += 1;
        }
        if first_w > we {
            counters.terminations += 1;
            return ExtendResult {
                score: (base + i64::from(best_rel)) as i32,
                ext_a: best_i,
                ext_b: best_j,
            };
        }
        let mut last_w = we;
        while s.cur[last_w].live() == 0 {
            last_w -= 1;
        }

        // Fold the finished row into the best (first attainment in column
        // order), only when some lane strictly improves on it.
        let row_best = i32::from(rowmax.hmax());
        if row_best > best_rel {
            // Lanes above row_best - 1 are exactly the row maximum.
            let below = L::splat((row_best - 1) as i16);
            for w in first_w..=last_w {
                let hits = L::bits(below.lt(s.cur[w]));
                if hits != 0 {
                    best_rel = row_best;
                    best_i = i;
                    best_j = w * n + hits.trailing_zeros() as usize;
                    break;
                }
            }
        }

        // Trim to the first/last live columns, which lie in the boundary
        // vectors.  Every dead cell inside [wlo, whi] already holds the exact
        // sentinel, so no re-pinning is needed.
        lo = first_w * n + s.cur[first_w].live().trailing_zeros() as usize;
        hi = last_w * n + (31 - s.cur[last_w].live().leading_zeros()) as usize;
        std::mem::swap(&mut s.prev, &mut s.cur);

        // Rebase before the relative scores can outgrow i16.
        if best_rel > REBASE_AT {
            let delta = L::splat(best_rel as i16);
            let alive = L::splat(NEG16 + 1);
            for v in &mut s.prev[lo / n..=hi / n] {
                // Dead lanes must stay exactly at the sentinel.
                *v = L::select(v.lt(alive), v.sub(delta), neg);
            }
            base += i64::from(best_rel);
            best_rel = 0;
        }
    }
    ExtendResult { score: (base + i64::from(best_rel)) as i32, ext_a: best_i, ext_b: best_j }
}

/// Four `i16` lanes in one `u64` (lane `t` in bits `16t..16t+16`), with the
/// classic carry-masked SWAR add/sub (Hacker's Delight §2-18): the portable
/// impl for targets without a vector unit the kernel knows.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Swar(u64);

/// Per-lane sign bits, the carry fence of the SWAR add/sub.
const SIGN: u64 = 0x8000_8000_8000_8000;
const LOW: u64 = 0x0001_0001_0001_0001;

impl Lanes for Swar {
    const N: usize = 4;

    #[inline(always)]
    fn splat(x: i16) -> Self {
        Swar((x as u16 as u64).wrapping_mul(LOW))
    }

    #[inline(always)]
    fn load(l: &[i16; 16]) -> Self {
        Swar(l[..4].iter().rev().fold(0, |w, &x| (w << 16) | x as u16 as u64))
    }

    #[inline(always)]
    fn add(self, y: Self) -> Self {
        Swar(((self.0 & !SIGN).wrapping_add(y.0 & !SIGN)) ^ ((self.0 ^ y.0) & SIGN))
    }

    #[inline(always)]
    fn sub(self, y: Self) -> Self {
        Swar(((self.0 | SIGN).wrapping_sub(y.0 & !SIGN)) ^ ((self.0 ^ !y.0) & SIGN))
    }

    #[inline(always)]
    fn max(self, y: Self) -> Self {
        Self::select(self.lt(y), self, y)
    }

    /// Exact while each lane difference fits in `i16`, which the eligibility
    /// ranges plus rebasing guarantee.
    #[inline(always)]
    fn lt(self, y: Self) -> Self {
        Swar(((self.sub(y).0 & SIGN) >> 15).wrapping_mul(0xFFFF))
    }

    #[inline(always)]
    fn select(mask: Self, x: Self, y: Self) -> Self {
        Swar((x.0 & !mask.0) | (y.0 & mask.0))
    }

    #[inline(always)]
    fn shift_in(self, prev: Self) -> Self {
        Swar((self.0 << 16) | (prev.0 >> 48))
    }

    #[inline(always)]
    fn scan(self, steps: &[Self; 4], neg: Self) -> Self {
        let v = self.max(Swar((self.0 << 16) | (neg.0 >> 48)).add(steps[0]));
        v.max(Swar((v.0 << 32) | (neg.0 >> 32)).add(steps[1]))
    }

    #[inline(always)]
    fn last(self) -> Self {
        Swar((self.0 >> 48).wrapping_mul(LOW))
    }

    #[inline(always)]
    fn bits(mask: Self) -> u32 {
        let s = (mask.0 >> 15) & LOW;
        ((s | s >> 15 | s >> 30 | s >> 45) & 0xF) as u32
    }

    #[inline(always)]
    fn hmax(self) -> i16 {
        let v = self.max(Swar(self.0.rotate_right(32)));
        v.max(Swar(v.0.rotate_right(16))).0 as u16 as i16
    }
}

/// Lane buffers of the widest kernel width this CPU runs, chosen once when
/// the scratch is built.
#[derive(Debug)]
pub(crate) struct VectorScratch(Width);

/// The kernel widths.  Private, so that only [`VectorScratch::with_lanes`]
/// — which checks the CPU first — can build the AVX2 variant.
#[derive(Debug)]
enum Width {
    Swar(LaneScratch<Swar>),
    #[cfg(target_arch = "x86_64")]
    Sse2(LaneScratch<crate::x86::Sse2>),
    #[cfg(target_arch = "x86_64")]
    Avx2(crate::x86::Avx2Scratch),
}

impl Default for VectorScratch {
    /// The widest kernel this CPU runs.
    fn default() -> Self {
        [16, 8]
            .into_iter()
            .find_map(Self::with_lanes)
            .unwrap_or(VectorScratch(Width::Swar(LaneScratch::default())))
    }
}

impl VectorScratch {
    /// The kernel with `lanes` lanes per vector, if this CPU runs it.
    pub(crate) fn with_lanes(lanes: usize) -> Option<Self> {
        let width = match lanes {
            4 => Width::Swar(LaneScratch::default()),
            #[cfg(target_arch = "x86_64")]
            8 => Width::Sse2(LaneScratch::default()),
            #[cfg(target_arch = "x86_64")]
            16 if is_x86_feature_detected!("avx2") => Width::Avx2(Default::default()),
            _ => return None,
        };
        Some(VectorScratch(width))
    }

    /// Name of the kernel width: `"avx2"`, `"sse2"` or `"swar"`.
    pub(crate) fn name(&self) -> &'static str {
        match self.0 {
            Width::Swar(_) => "swar",
            #[cfg(target_arch = "x86_64")]
            Width::Sse2(_) => "sse2",
            #[cfg(target_arch = "x86_64")]
            Width::Avx2(_) => "avx2",
        }
    }

    /// One eligible extension (see [`extend`]) through this width.
    pub(crate) fn extend(
        &mut self,
        a: &[u8],
        b: &[u8],
        scoring: ScoringScheme,
        xdrop: i32,
        counters: &mut ExtendCounters,
    ) -> ExtendResult {
        match &mut self.0 {
            Width::Swar(s) => extend(a, b, scoring, xdrop, s, counters),
            #[cfg(target_arch = "x86_64")]
            Width::Sse2(s) => extend(a, b, scoring, xdrop, s, counters),
            // SAFETY: `with_lanes` builds the AVX2 variant only after
            // `is_x86_feature_detected!("avx2")` returned true, and nothing
            // else can build it (`Width` is private to this module).
            #[cfg(target_arch = "x86_64")]
            Width::Avx2(s) => unsafe { crate::x86::extend_avx2(a, b, scoring, xdrop, s, counters) },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xdrop::{xdrop_extend_with, XdropScratch};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Lanes per vector of every kernel width: SWAR, SSE2, AVX2.
    const WIDTHS: [usize; 3] = [4, 8, 16];

    /// The kernel at `lanes` lanes, or `None` — saying why — when this host
    /// cannot run it (no AVX2, or not x86-64).
    fn kernel(lanes: usize) -> Option<VectorScratch> {
        let k = VectorScratch::with_lanes(lanes);
        if k.is_none() {
            eprintln!("skipping the {lanes}-lane kernel: this CPU or target does not run it");
        }
        k
    }

    fn vector(
        k: &mut VectorScratch,
        a: &[u8],
        b: &[u8],
        sc: ScoringScheme,
        xdrop: i32,
    ) -> (ExtendResult, ExtendCounters) {
        let mut c = ExtendCounters::default();
        let r = k.extend(a, b, sc, xdrop, &mut c);
        (r, c)
    }

    fn scalar(a: &[u8], b: &[u8], sc: ScoringScheme, xdrop: i32) -> (ExtendResult, ExtendCounters) {
        let mut c = ExtendCounters::default();
        let r = xdrop_extend_with(a, b, sc, xdrop, &mut XdropScratch::new(), &mut c);
        (r, c)
    }

    /// A random `a` and a `b` copied from its prefix (so extensions go deep),
    /// padded with random bases and then mutated at `error_pct` percent.
    fn related_pair(
        rng: &mut SmallRng,
        len_a: usize,
        len_b: usize,
        error_pct: u32,
    ) -> (Vec<u8>, Vec<u8>) {
        let a: Vec<u8> = (0..len_a).map(|_| rng.gen_range(0..4u8)).collect();
        let mut b: Vec<u8> = a.iter().take(len_b).copied().collect();
        while b.len() < len_b {
            b.push(rng.gen_range(0..4u8));
        }
        for v in b.iter_mut() {
            if rng.gen_range(0..100u32) < error_pct {
                *v = rng.gen_range(0..4u8);
            }
        }
        (a, b)
    }

    /// The tentpole invariant at one width: the kernel and the scalar oracle
    /// are bit-identical over random sequences, scoring schemes and xdrops —
    /// results AND counters.
    fn agrees_with_oracle(
        lanes: usize,
        seed: u64,
        (len_a, len_b): (usize, usize),
        error_pct: u32,
        sc: ScoringScheme,
        xdrop: i32,
    ) -> Result<(), TestCaseError> {
        let Some(mut k) = kernel(lanes) else { return Ok(()) };
        let (a, b) = related_pair(&mut SmallRng::seed_from_u64(seed), len_a, len_b, error_pct);
        prop_assert!(swar_eligible(sc, xdrop));
        prop_assert_eq!(vector(&mut k, &a, &b, sc, xdrop), scalar(&a, &b, sc, xdrop));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // Lengths up to 600 and xdrops up to 300 make bands span many
        // vectors at every width (≥ 4 AVX2 vectors at gap -1, xdrop ≥ 32).
        #[test]
        fn swar_matches_scalar_oracle(
            seed in 0u64..1_000_000,
            lens in (0usize..600, 0usize..600),
            error_pct in 0u32..50,
            scores in (1i32..8, -8i32..=0, -8i32..=-1),
            xdrop in 0i32..300,
        ) {
            let sc = ScoringScheme { match_score: scores.0, mismatch: scores.1, gap: scores.2 };
            agrees_with_oracle(4, seed, lens, error_pct, sc, xdrop)?;
        }

        #[test]
        fn sse2_matches_scalar_oracle(
            seed in 0u64..1_000_000,
            lens in (0usize..600, 0usize..600),
            error_pct in 0u32..50,
            scores in (1i32..8, -8i32..=0, -8i32..=-1),
            xdrop in 0i32..300,
        ) {
            let sc = ScoringScheme { match_score: scores.0, mismatch: scores.1, gap: scores.2 };
            agrees_with_oracle(8, seed, lens, error_pct, sc, xdrop)?;
        }

        #[test]
        fn avx2_matches_scalar_oracle(
            seed in 0u64..1_000_000,
            lens in (0usize..600, 0usize..600),
            error_pct in 0u32..50,
            scores in (1i32..8, -8i32..=0, -8i32..=-1),
            xdrop in 0i32..300,
        ) {
            let sc = ScoringScheme { match_score: scores.0, mismatch: scores.1, gap: scores.2 };
            agrees_with_oracle(16, seed, lens, error_pct, sc, xdrop)?;
        }

        // Every width agrees with every other, and a scratch reused across
        // calls of wildly different shapes never leaks state between
        // extensions.
        #[test]
        fn widths_agree_with_reused_scratch(seed in 0u64..100_000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut kernels: Vec<VectorScratch> = WIDTHS.into_iter().filter_map(kernel).collect();
            let sc = ScoringScheme::default();
            for _ in 0..6 {
                let (la, lb) = (rng.gen_range(0..300), rng.gen_range(0..300));
                let (a, b) = related_pair(&mut rng, la, lb, 10);
                let xdrop = rng.gen_range(0..100);
                let expected = scalar(&a, &b, sc, xdrop);
                for k in &mut kernels {
                    prop_assert_eq!(vector(k, &a, &b, sc, xdrop), expected, "{} lanes", k.name());
                }
            }
        }
    }

    #[test]
    fn long_perfect_match_crosses_the_i16_rebase_boundary() {
        // Score grows to 60k ≫ i16::MAX: exercises repeated rebasing.
        let a: Vec<u8> = (0..20_000).map(|i| ((i * 7 + 3) % 4) as u8).collect();
        let sc = ScoringScheme { match_score: 3, mismatch: -2, gap: -2 };
        let expected = scalar(&a, &a, sc, 40);
        assert_eq!(expected.0, ExtendResult { score: 60_000, ext_a: 20_000, ext_b: 20_000 });
        for mut k in WIDTHS.into_iter().filter_map(kernel) {
            assert_eq!(vector(&mut k, &a, &a, sc, 40), expected, "{} lanes", k.name());
        }
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
        let expected = scalar(&a, &b, sc, 200);
        for mut k in WIDTHS.into_iter().filter_map(kernel) {
            assert_eq!(vector(&mut k, &a, &b, sc, 200), expected, "{} lanes", k.name());
        }
    }

    #[test]
    fn swar_lane_arithmetic_is_exact() {
        let lane = |w: Swar, t: usize| (w.0 >> (16 * t)) as u16 as i16;
        let (x, y) = (Swar::splat(-1234), Swar::splat(700));
        assert_eq!(lane(x.add(y), 2), -534);
        assert_eq!(lane(x.sub(y), 0), -1934);
        assert_eq!(x.max(y).0, y.0);
        let mut l = [0i16; 16];
        l[..4].copy_from_slice(&[-3, 5, NEG16, 4096]);
        let r = Swar::load(&l).add(Swar::splat(3));
        assert_eq!([0, 1, 2, 3].map(|t| lane(r, t)), [0, 8, -16381, 4099]);
        assert_eq!(Swar::load(&l).hmax(), 4096);
        assert_eq!(Swar::load(&l).live(), 0b1011);
        assert_eq!(lane(Swar::load(&l).last(), 1), 4096);
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
}

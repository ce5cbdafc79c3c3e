//! x86-64 lane impls of the x-drop kernel in [`crate::simd`]: eight `i16`
//! lanes per SSE2 `__m128i` and sixteen per AVX2 `__m256i`, where every
//! lane-parallel add/max/compare is one instruction.
//!
//! SSE2 is part of the x86-64 baseline, so [`Sse2`] runs everywhere this
//! module compiles.  AVX2 is not: [`Avx2`] values exist only inside
//! [`extend_avx2`], a `#[target_feature(enable = "avx2")]` entry point whose
//! caller has detected AVX2 at run time.  The generic kernel body inlines
//! into that entry point, so the intrinsics below compile to AVX2
//! instructions there.

use std::arch::x86_64::*;

use crate::scoring::ScoringScheme;
use crate::simd::{extend, LaneScratch, Lanes};
use crate::xdrop::{ExtendCounters, ExtendResult};

/// Eight `i16` lanes in one `__m128i`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sse2(__m128i);

impl Lanes for Sse2 {
    const N: usize = 8;

    #[inline(always)]
    fn splat(x: i16) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        Sse2(unsafe { _mm_set1_epi16(x) })
    }

    #[inline(always)]
    fn load(l: &[i16; 16]) -> Self {
        // SAFETY: SSE2 is baseline, and `l` holds 32 readable bytes, of which
        // the unaligned load reads the first 16.
        Sse2(unsafe { _mm_loadu_si128(l.as_ptr().cast()) })
    }

    #[inline(always)]
    fn add(self, y: Self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        Sse2(unsafe { _mm_add_epi16(self.0, y.0) })
    }

    #[inline(always)]
    fn sub(self, y: Self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        Sse2(unsafe { _mm_sub_epi16(self.0, y.0) })
    }

    #[inline(always)]
    fn max(self, y: Self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        Sse2(unsafe { _mm_max_epi16(self.0, y.0) })
    }

    #[inline(always)]
    fn lt(self, y: Self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        Sse2(unsafe { _mm_cmplt_epi16(self.0, y.0) })
    }

    #[inline(always)]
    fn select(mask: Self, x: Self, y: Self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        Sse2(unsafe { _mm_or_si128(_mm_andnot_si128(mask.0, x.0), _mm_and_si128(mask.0, y.0)) })
    }

    #[inline(always)]
    fn shift_in(self, prev: Self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        Sse2(unsafe { _mm_or_si128(_mm_slli_si128::<2>(self.0), _mm_srli_si128::<14>(prev.0)) })
    }

    #[inline(always)]
    fn scan(self, steps: &[Self; 4], neg: Self) -> Self {
        let v = self.max(self.shift_in(neg).add(steps[0]));
        // SAFETY: SSE2 is part of the x86-64 baseline.
        let v2 =
            Sse2(unsafe { _mm_or_si128(_mm_slli_si128::<4>(v.0), _mm_srli_si128::<12>(neg.0)) });
        let v = v.max(v2.add(steps[1]));
        // SAFETY: SSE2 is part of the x86-64 baseline.
        let v4 =
            Sse2(unsafe { _mm_or_si128(_mm_slli_si128::<8>(v.0), _mm_srli_si128::<8>(neg.0)) });
        v.max(v4.add(steps[2]))
    }

    #[inline(always)]
    fn last(self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        Sse2(unsafe { _mm_shuffle_epi32::<0xFF>(_mm_shufflehi_epi16::<0xFF>(self.0)) })
    }

    #[inline(always)]
    fn bits(mask: Self) -> u32 {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe { _mm_movemask_epi8(_mm_packs_epi16(mask.0, _mm_setzero_si128())) as u32 }
    }

    #[inline(always)]
    fn hmax(self) -> i16 {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe {
            let v = _mm_max_epi16(self.0, _mm_shuffle_epi32::<0x4E>(self.0));
            let v = _mm_max_epi16(v, _mm_shuffle_epi32::<0xB1>(v));
            let v = _mm_max_epi16(v, _mm_shufflelo_epi16::<0xB1>(v));
            _mm_cvtsi128_si32(v) as i16
        }
    }
}

/// Sixteen `i16` lanes in one `__m256i`.
///
/// Private to this module: values are built only by the kernel instance
/// inside [`extend_avx2`], so every AVX2 intrinsic below runs on a CPU whose
/// AVX2 support the caller of [`extend_avx2`] has detected.
#[derive(Debug, Clone, Copy)]
struct Avx2(__m256i);

impl Avx2 {
    /// `[neg low half, self low half]`: the source of in-vector lane shifts
    /// across the 128-bit halves.
    #[inline(always)]
    fn low_up(self, neg: Self) -> __m256i {
        // SAFETY: AVX2 was detected (see `Avx2`).
        unsafe { _mm256_permute2x128_si256::<0x02>(self.0, neg.0) }
    }
}

impl Lanes for Avx2 {
    const N: usize = 16;

    #[inline(always)]
    fn splat(x: i16) -> Self {
        // SAFETY: AVX2 was detected (see `Avx2`).
        Avx2(unsafe { _mm256_set1_epi16(x) })
    }

    #[inline(always)]
    fn load(l: &[i16; 16]) -> Self {
        // SAFETY: AVX2 was detected (see `Avx2`), and the unaligned load
        // reads exactly the 32 bytes of `l`.
        Avx2(unsafe { _mm256_loadu_si256(l.as_ptr().cast()) })
    }

    #[inline(always)]
    fn add(self, y: Self) -> Self {
        // SAFETY: AVX2 was detected (see `Avx2`).
        Avx2(unsafe { _mm256_add_epi16(self.0, y.0) })
    }

    #[inline(always)]
    fn sub(self, y: Self) -> Self {
        // SAFETY: AVX2 was detected (see `Avx2`).
        Avx2(unsafe { _mm256_sub_epi16(self.0, y.0) })
    }

    #[inline(always)]
    fn max(self, y: Self) -> Self {
        // SAFETY: AVX2 was detected (see `Avx2`).
        Avx2(unsafe { _mm256_max_epi16(self.0, y.0) })
    }

    #[inline(always)]
    fn lt(self, y: Self) -> Self {
        // SAFETY: AVX2 was detected (see `Avx2`).
        Avx2(unsafe { _mm256_cmpgt_epi16(y.0, self.0) })
    }

    #[inline(always)]
    fn select(mask: Self, x: Self, y: Self) -> Self {
        // SAFETY: AVX2 was detected (see `Avx2`).
        Avx2(unsafe { _mm256_blendv_epi8(x.0, y.0, mask.0) })
    }

    #[inline(always)]
    fn shift_in(self, prev: Self) -> Self {
        // SAFETY: AVX2 was detected (see `Avx2`).
        Avx2(unsafe {
            let carry = _mm256_permute2x128_si256::<0x03>(self.0, prev.0);
            _mm256_alignr_epi8::<14>(self.0, carry)
        })
    }

    #[inline(always)]
    fn scan(self, steps: &[Self; 4], neg: Self) -> Self {
        let v = self.max(self.shift_in(neg).add(steps[0]));
        // SAFETY: AVX2 was detected (see `Avx2`).
        let v2 = Avx2(unsafe { _mm256_alignr_epi8::<12>(v.0, v.low_up(neg)) });
        let v = v.max(v2.add(steps[1]));
        // SAFETY: AVX2 was detected (see `Avx2`).
        let v4 = Avx2(unsafe { _mm256_alignr_epi8::<8>(v.0, v.low_up(neg)) });
        let v = v.max(v4.add(steps[2]));
        v.max(Avx2(v.low_up(neg)).add(steps[3]))
    }

    #[inline(always)]
    fn last(self) -> Self {
        // SAFETY: AVX2 was detected (see `Avx2`).
        Avx2(unsafe { _mm256_permute4x64_epi64::<0xFF>(_mm256_shufflehi_epi16::<0xFF>(self.0)) })
    }

    #[inline(always)]
    fn bits(mask: Self) -> u32 {
        // Packing puts lanes 0..8 in bytes 0..8 and lanes 8..16 in bytes
        // 16..24.
        // SAFETY: AVX2 was detected (see `Avx2`).
        let m = unsafe { _mm256_movemask_epi8(_mm256_packs_epi16(mask.0, _mm256_setzero_si256())) };
        let m = m as u32;
        (m & 0xFF) | ((m >> 8) & 0xFF00)
    }

    #[inline(always)]
    fn hmax(self) -> i16 {
        // SAFETY: AVX2 was detected (see `Avx2`).
        let halves = unsafe {
            _mm_max_epi16(_mm256_castsi256_si128(self.0), _mm256_extracti128_si256::<1>(self.0))
        };
        Sse2(halves).hmax()
    }
}

/// Buffers of the AVX2 kernel instance; opaque outside this module.
#[derive(Debug, Default)]
pub(crate) struct Avx2Scratch(LaneScratch<Avx2>);

/// The kernel at sixteen lanes per vector (see [`crate::simd`]).
///
/// # Safety
///
/// The CPU must support AVX2: call this only after
/// `is_x86_feature_detected!("avx2")` has returned true.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn extend_avx2(
    a: &[u8],
    b: &[u8],
    scoring: ScoringScheme,
    xdrop: i32,
    scratch: &mut Avx2Scratch,
    counters: &mut ExtendCounters,
) -> ExtendResult {
    extend(a, b, scoring, xdrop, &mut scratch.0, counters)
}

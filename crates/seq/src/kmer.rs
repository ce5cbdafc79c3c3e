//! Fixed-length k-mers packed into 64-bit integers.
//!
//! diBELLA 2D indexes reads by their constituent k-mers (default `k = 17`) and
//! always works with the **canonical** form — the lexicographically smaller of
//! a k-mer and its reverse complement — because sequencing may read either
//! strand (Section II).  A [`CanonicalKmer`] also remembers whether the
//! canonical form equals the original orientation, which the overlap semiring
//! needs to reason about relative read orientations.

use crate::dna::DnaSeq;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum supported k (2 bits per base in a `u64`, one value reserved).
pub const MAX_K: usize = 31;

/// A k-mer packed 2 bits per base into a `u64` (most significant pair first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Kmer {
    packed: u64,
    k: u8,
}

impl Kmer {
    /// Build from a slice of 2-bit codes.
    ///
    /// # Panics
    /// Panics if `codes.len()` is 0 or exceeds [`MAX_K`], or a code is not 2-bit.
    pub fn from_codes(codes: &[u8]) -> Self {
        assert!(!codes.is_empty() && codes.len() <= MAX_K, "k must be in 1..={MAX_K}");
        let mut packed = 0u64;
        for &c in codes {
            assert!(c < 4, "invalid 2-bit code {c}");
            packed = (packed << 2) | c as u64;
        }
        Self { packed, k: codes.len() as u8 }
    }

    /// Parse from ASCII (e.g. `"ACGTT"`).
    pub fn from_ascii(s: &[u8]) -> Result<Self, String> {
        let seq = DnaSeq::from_ascii(s)?;
        if seq.is_empty() || seq.len() > MAX_K {
            return Err(format!("k must be in 1..={MAX_K}, got {}", seq.len()));
        }
        Ok(Self::from_codes(seq.codes()))
    }

    /// k (the k-mer length).
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// The packed 2-bit representation.
    pub fn packed(&self) -> u64 {
        self.packed
    }

    /// The 2-bit code at position `i` (0 = leftmost base).
    pub fn code_at(&self, i: usize) -> u8 {
        assert!(i < self.k());
        ((self.packed >> (2 * (self.k() - 1 - i))) & 3) as u8
    }

    /// The reverse complement k-mer.
    pub fn reverse_complement(&self) -> Kmer {
        let mut packed = 0u64;
        for i in 0..self.k() {
            let c = (self.packed >> (2 * i)) & 3;
            packed = (packed << 2) | (3 - c);
        }
        Kmer { packed, k: self.k }
    }

    /// The canonical form: the lexicographically smaller of `self` and its
    /// reverse complement, along with a flag saying whether `self` was already
    /// canonical.
    pub fn canonical(&self) -> CanonicalKmer {
        let rc = self.reverse_complement();
        if self.packed <= rc.packed {
            CanonicalKmer { kmer: *self, was_forward: true }
        } else {
            CanonicalKmer { kmer: rc, was_forward: false }
        }
    }

    /// Render as ASCII.
    pub fn to_ascii(&self) -> String {
        (0..self.k()).map(|i| crate::dna::code_to_base(self.code_at(i)) as char).collect()
    }

    /// A well-mixed 64-bit hash of the packed value (splitmix64), used to
    /// assign k-mers to owner ranks uniformly as the paper assumes.
    pub fn hash64(&self) -> u64 {
        splitmix64(self.packed)
    }

    /// A k-mer from an already packed value; the caller guarantees `packed`
    /// fits in `2·k` bits.
    pub(crate) fn from_packed(packed: u64, k: usize) -> Self {
        debug_assert!((1..=MAX_K).contains(&k) && packed >> (2 * k) == 0);
        Self { packed, k: k as u8 }
    }
}

/// The splitmix64 finaliser: [`Kmer::hash64`] of a packed k-mer, and the
/// Bloom filter's probe hash.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl fmt::Display for Kmer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_ascii())
    }
}

/// A canonical k-mer together with the orientation of the source k-mer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CanonicalKmer {
    /// The canonical (lexicographically smaller) k-mer.
    pub kmer: Kmer,
    /// `true` if the original k-mer was already canonical (forward strand).
    pub was_forward: bool,
}

/// Iterator over all k-mers of a sequence with their start positions.
pub struct KmerIter<'a> {
    seq: &'a DnaSeq,
    k: usize,
    pos: usize,
}

impl<'a> KmerIter<'a> {
    /// Iterate over the k-mers of `seq`.
    ///
    /// # Panics
    /// Panics if `k` is 0 or exceeds [`MAX_K`].
    pub fn new(seq: &'a DnaSeq, k: usize) -> Self {
        assert!((1..=MAX_K).contains(&k), "k must be in 1..={MAX_K}");
        Self { seq, k, pos: 0 }
    }
}

impl Iterator for KmerIter<'_> {
    /// `(start position, k-mer)`
    type Item = (usize, Kmer);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos + self.k > self.seq.len() {
            return None;
        }
        let codes = &self.seq.codes()[self.pos..self.pos + self.k];
        let kmer = Kmer::from_codes(codes);
        let pos = self.pos;
        self.pos += 1;
        Some((pos, kmer))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.seq.len() + 1).saturating_sub(self.pos + self.k);
        (remaining, Some(remaining))
    }
}

/// Rolling iterator over the canonical k-mers of a sequence with their start
/// positions: the same items as [`KmerIter`] followed by
/// [`Kmer::canonical`], at O(1) work per window.
///
/// It keeps the forward and the reverse-complement packed words and updates
/// both by one base per step, where `KmerIter` packs every window from
/// scratch and `canonical` reverses it again.  The k-mer counter, the `A`
/// builder and the sketch hashes all scan reads through it.
pub struct CanonicalKmers<'a> {
    codes: &'a [u8],
    k: usize,
    /// Index of the next base to shift in.
    end: usize,
    fwd: u64,
    rev: u64,
    mask: u64,
}

impl<'a> CanonicalKmers<'a> {
    /// Iterate over the canonical k-mers of `seq`.
    ///
    /// # Panics
    /// Panics if `k` is 0 or exceeds [`MAX_K`].
    pub fn new(seq: &'a DnaSeq, k: usize) -> Self {
        assert!((1..=MAX_K).contains(&k), "k must be in 1..={MAX_K}");
        let mut it =
            Self { codes: seq.codes(), k, end: 0, fwd: 0, rev: 0, mask: (1u64 << (2 * k)) - 1 };
        // Prime the first k-1 bases; each `next` then completes one window.
        while it.end + 1 < k && it.end < it.codes.len() {
            it.shift_in(it.codes[it.end]);
            it.end += 1;
        }
        it
    }

    #[inline]
    fn shift_in(&mut self, code: u8) {
        debug_assert!(code < 4, "invalid 2-bit code {code}");
        let c = u64::from(code & 3);
        self.fwd = ((self.fwd << 2) | c) & self.mask;
        self.rev = (self.rev >> 2) | ((3 - c) << (2 * (self.k - 1)));
    }
}

impl Iterator for CanonicalKmers<'_> {
    /// `(start position, canonical k-mer)`
    type Item = (usize, CanonicalKmer);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let &code = self.codes.get(self.end)?;
        self.shift_in(code);
        self.end += 1;
        // Ties (palindromes) count as forward, as in `Kmer::canonical`.
        let (packed, was_forward) =
            if self.fwd <= self.rev { (self.fwd, true) } else { (self.rev, false) };
        let kmer = Kmer { packed, k: self.k as u8 };
        Some((self.end - self.k, CanonicalKmer { kmer, was_forward }))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.codes.len() - self.end;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for CanonicalKmers<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn packing_and_ascii_roundtrip() {
        let k = Kmer::from_ascii(b"ACGTT").unwrap();
        assert_eq!(k.k(), 5);
        assert_eq!(k.to_ascii(), "ACGTT");
        assert_eq!(k.code_at(0), 0);
        assert_eq!(k.code_at(4), 3);
    }

    #[test]
    fn reverse_complement_small_case() {
        let k = Kmer::from_ascii(b"AACG").unwrap();
        assert_eq!(k.reverse_complement().to_ascii(), "CGTT");
    }

    #[test]
    fn canonical_picks_lexicographically_smaller() {
        // ATTCG vs CGAAT: ATTCG is smaller.
        let k = Kmer::from_ascii(b"ATTCG").unwrap();
        let canon = k.canonical();
        assert_eq!(canon.kmer.to_ascii(), "ATTCG");
        assert!(canon.was_forward);

        let k2 = Kmer::from_ascii(b"CGAAT").unwrap();
        let canon2 = k2.canonical();
        assert_eq!(canon2.kmer.to_ascii(), "ATTCG");
        assert!(!canon2.was_forward);
    }

    #[test]
    fn palindromic_kmer_is_its_own_canonical() {
        // ACGT is its own reverse complement.
        let k = Kmer::from_ascii(b"ACGT").unwrap();
        assert_eq!(k.reverse_complement(), k);
        assert!(k.canonical().was_forward);
    }

    #[test]
    fn kmer_iter_covers_all_positions() {
        let seq: DnaSeq = "ACGTAC".parse().unwrap();
        let kmers: Vec<_> = KmerIter::new(&seq, 3).collect();
        assert_eq!(kmers.len(), 4);
        assert_eq!(kmers[0].0, 0);
        assert_eq!(kmers[0].1.to_ascii(), "ACG");
        assert_eq!(kmers[3].0, 3);
        assert_eq!(kmers[3].1.to_ascii(), "TAC");
    }

    #[test]
    fn kmer_iter_on_short_sequence_is_empty() {
        let seq: DnaSeq = "AC".parse().unwrap();
        assert_eq!(KmerIter::new(&seq, 5).count(), 0);
    }

    #[test]
    fn kmer_count_matches_l_minus_k_plus_1() {
        // The communication analysis uses (l - k + 1) k-mers per read.
        let seq = DnaSeq::from_codes((0..100).map(|i| (i % 4) as u8).collect());
        for k in [1usize, 5, 17, 31] {
            assert_eq!(KmerIter::new(&seq, k).count(), 100 - k + 1);
        }
    }

    #[test]
    fn hash_is_deterministic_and_spreads() {
        let a = Kmer::from_ascii(b"ACGTACGTACGTACGTA").unwrap();
        let b = Kmer::from_ascii(b"ACGTACGTACGTACGTC").unwrap();
        assert_eq!(a.hash64(), a.hash64());
        assert_ne!(a.hash64(), b.hash64());
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn oversized_k_panics() {
        let codes = vec![0u8; 40];
        let _ = Kmer::from_codes(&codes);
    }

    fn arb_kmer() -> impl Strategy<Value = Kmer> {
        proptest::collection::vec(0u8..4, 1..=MAX_K).prop_map(|codes| Kmer::from_codes(&codes))
    }

    proptest! {
        #[test]
        fn prop_revcomp_involution(k in arb_kmer()) {
            prop_assert_eq!(k.reverse_complement().reverse_complement(), k);
        }

        #[test]
        fn prop_canonical_is_idempotent_and_minimal(k in arb_kmer()) {
            let canon = k.canonical();
            // Canonical of canonical is itself (forward).
            let again = canon.kmer.canonical();
            prop_assert_eq!(again.kmer, canon.kmer);
            prop_assert!(again.was_forward);
            // It is really the minimum of the two packed values.
            prop_assert!(canon.kmer.packed() <= k.packed());
            prop_assert!(canon.kmer.packed() <= k.reverse_complement().packed());
        }

        #[test]
        fn prop_kmer_and_its_rc_share_canonical(k in arb_kmer()) {
            prop_assert_eq!(k.canonical().kmer, k.reverse_complement().canonical().kmer);
        }

        #[test]
        fn prop_ascii_roundtrip(k in arb_kmer()) {
            let back = Kmer::from_ascii(k.to_ascii().as_bytes()).unwrap();
            prop_assert_eq!(back, k);
        }

        #[test]
        fn prop_rolling_canonical_matches_kmer_iter(
            codes in proptest::collection::vec(0u8..4, 0..96),
        ) {
            // Every k, on prefixes one base shorter than k, exactly k long
            // and the whole sequence.
            for k in 1..=MAX_K {
                for len in [k - 1, k, codes.len()].into_iter().filter(|&len| len <= codes.len()) {
                    let seq = DnaSeq::from_codes(codes[..len].to_vec());
                    let rolling: Vec<_> = CanonicalKmers::new(&seq, k).collect();
                    let oracle: Vec<_> = KmerIter::new(&seq, k)
                        .map(|(pos, kmer)| (pos, kmer.canonical()))
                        .collect();
                    prop_assert_eq!(CanonicalKmers::new(&seq, k).len(), oracle.len());
                    prop_assert_eq!(rolling, oracle, "k = {}, length {}", k, len);
                }
            }
        }
    }
}

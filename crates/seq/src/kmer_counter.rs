//! Two-pass distributed k-mer counting (Section IV-C of the paper).
//!
//! The counter mirrors the HipMer-style design diBELLA 2D uses:
//!
//! 1. every rank extracts the canonical k-mers of its block of reads with the
//!    rolling [`CanonicalKmers`] iterator and sends each one, packed in a
//!    `u64`, to an owner rank chosen by hashing (`MPI_Alltoallv`);
//! 2. **pass 1**: owners insert incoming k-mers into a Bloom filter; a k-mer
//!    that hits the filter (seen at least twice) graduates into the owner's
//!    sorted, deduplicated candidate list — singletons never occupy it;
//! 3. **pass 2**: the same exchange is repeated; owners sort the incoming
//!    k-mers and count each run of equal k-mers by a merge-join against
//!    their candidates;
//! 4. k-mers whose count falls outside the reliable range
//!    `[min_count, max_count]` are discarded (the BELLA-style upper bound `d`
//!    removes repeat-induced high-frequency k-mers);
//! 5. surviving k-mers receive consecutive column indices in increasing
//!    k-mer order — they become the columns of the `|reads| x |k-mers|`
//!    matrix `A`.
//!
//! Apart from the owners' sorts, every k-mer costs O(1) work: one rolling
//! update, one owner hash, 8 bytes in the exchange and one Bloom insert.
//! This is sort-based counting of packed k-mers, as in KMC 3 (Kokot,
//! Długosz & Deorowicz, Bioinformatics 2017).  Owners work in parallel.  The
//! monolithic counter exchanges the whole input once per pass; the streaming
//! counter exchanges one bounded batch per superstep; both run the same
//! extraction and the same owner state.
//!
//! The k-mer exchange traffic is recorded under
//! [`CommPhase::KmerCounting`] with the paper's `k/4`-bytes-per-k-mer wire
//! format (2-bit packed), so the measured words can be compared against the
//! model `W = n·l·k/(4·P)` of Table I.

use crate::bloom::{BloomFilter, ScalableBloom};
use crate::dna::DnaSeq;
use crate::fasta::ReadSet;
use crate::kmer::{splitmix64, CanonicalKmers, Kmer, KmerIter};
use crate::stream::{IngestBudget, ReadBatch};
use dibella_dist::extras::{
    INGEST_BATCH_BYTES_PEAK_KEY, INGEST_RESIDENT_BYTES_PEAK_KEY, INGEST_SUPERSTEPS_KEY,
};
use dibella_dist::{
    alltoallv_counted, par_ranks, par_ranks_into, par_ranks_mut, BlockDist, CommPhase, CommStats,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Reliable k-mer selection parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KmerSelection {
    /// k-mer length (the paper uses `k = 17`).
    pub k: usize,
    /// Minimum count for a reliable k-mer (2 discards singletons).
    pub min_count: u32,
    /// Maximum count for a reliable k-mer (discards repeat-induced k-mers).
    pub max_count: u32,
}

impl Default for KmerSelection {
    fn default() -> Self {
        Self { k: 17, min_count: 2, max_count: 8 }
    }
}

impl KmerSelection {
    /// The experimental setting of the paper: `k = 17`, maximum k-mer
    /// frequency 4 (Section VI).
    pub fn paper_default() -> Self {
        Self { k: 17, min_count: 2, max_count: 4 }
    }

    /// A BELLA-style upper frequency bound derived from dataset statistics:
    /// the expected number of error-free occurrences of a true genomic k-mer
    /// is `d·(1-e)^k`; k-mers far above that are almost surely repeats.
    pub fn with_bella_bound(k: usize, depth: f64, error_rate: f64) -> Self {
        let expected = depth * (1.0 - error_rate).powi(k as i32);
        let bound = (expected + 2.0 * expected.sqrt()).ceil().max(4.0) as u32;
        Self { k, min_count: 2, max_count: bound }
    }

    fn is_reliable(&self, count: u32) -> bool {
        (self.min_count..=self.max_count).contains(&count)
    }
}

/// Hashes a packed k-mer with [`Kmer::hash64`]'s splitmix64 rather than
/// SipHash.  It is unkeyed: reads crafted to collide in its low bits would
/// slow lookups, as they would already unbalance the owner ranks, which
/// are assigned by the same hash.
#[derive(Default)]
struct PackedKmerHasher(u64);

impl Hasher for PackedKmerHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, packed: u64) {
        self.0 = packed;
    }

    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }
}

/// The reliable k-mer table: canonical k-mers, their counts, and their column
/// indices in the `|reads| x |k-mers|` matrix `A`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KmerTable {
    k: usize,
    /// Packed canonical k-mers in increasing order; the position is the
    /// column index.
    kmers: Vec<u64>,
    counts: Vec<u32>,
    #[serde(skip)]
    index: HashMap<u64, u32, BuildHasherDefault<PackedKmerHasher>>,
}

impl KmerTable {
    /// A table over `(packed k-mer, count)` pairs in increasing k-mer order.
    fn from_sorted(k: usize, reliable: Vec<(u64, u32)>) -> Self {
        let (kmers, counts): (Vec<u64>, Vec<u32>) = reliable.into_iter().unzip();
        let mut index = HashMap::with_capacity_and_hasher(kmers.len(), Default::default());
        index.extend(kmers.iter().enumerate().map(|(col, &kmer)| (kmer, col as u32)));
        Self { k, kmers, counts, index }
    }

    /// Number of reliable k-mers (`m` in the paper's notation).
    pub fn len(&self) -> usize {
        self.kmers.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.kmers.is_empty()
    }

    /// Column index of a canonical k-mer, if reliable.
    pub fn column_of(&self, canonical: &Kmer) -> Option<u32> {
        if canonical.k() != self.k {
            return None;
        }
        self.index.get(&canonical.packed()).copied()
    }

    /// The canonical k-mer at a column index.
    pub fn kmer_at(&self, column: u32) -> Kmer {
        Kmer::from_packed(self.kmers[column as usize], self.k)
    }

    /// The count of the k-mer at a column index.
    pub fn count_at(&self, column: u32) -> u32 {
        self.counts[column as usize]
    }

    /// Iterate over `(column, kmer, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Kmer, u32)> + '_ {
        self.kmers
            .iter()
            .zip(self.counts.iter())
            .enumerate()
            .map(|(i, (&kmer, &c))| (i as u32, Kmer::from_packed(kmer, self.k), c))
    }

    /// Average number of reads containing a reliable k-mer (`a` in Table II:
    /// the density of `A`).
    pub fn mean_count(&self) -> f64 {
        if self.counts.is_empty() {
            0.0
        } else {
            self.counts.iter().map(|&c| c as f64).sum::<f64>() / self.counts.len() as f64
        }
    }
}

/// Serial reference k-mer counter: the oracle of the distributed and
/// streaming counters (it packs every window with [`KmerIter`] and
/// canonicalises it with [`Kmer::canonical`]), and the minimizer baseline's
/// counter.
pub fn count_kmers_serial(reads: &ReadSet, selection: &KmerSelection) -> KmerTable {
    let mut counts: BTreeMap<Kmer, u32> = BTreeMap::new();
    for (_, rec) in reads.iter() {
        if rec.seq.len() < selection.k {
            continue;
        }
        for (_, kmer) in KmerIter::new(&rec.seq, selection.k) {
            *counts.entry(kmer.canonical().kmer).or_insert(0) += 1;
        }
    }
    let reliable = counts
        .into_iter()
        .filter(|&(_, c)| selection.is_reliable(c))
        .map(|(kmer, c)| (kmer.packed(), c))
        .collect();
    KmerTable::from_sorted(selection.k, reliable)
}

/// Distributed two-pass k-mer counter over `nprocs` virtual ranks.
///
/// Reads are block-partitioned over ranks; canonical k-mers are exchanged to
/// hash-assigned owner ranks twice (Bloom pass, then counting pass), exactly
/// as the paper's k-mer counter does.  Returns the same table as
/// [`count_kmers_serial`] for any `nprocs` when `min_count >= 2`.
pub fn count_kmers_distributed(
    reads: &ReadSet,
    selection: &KmerSelection,
    nprocs: usize,
    stats: &CommStats,
) -> KmerTable {
    assert!(nprocs > 0);
    let k = selection.k;
    let extract = || extract_kmers(reads.len(), |i| reads.seq(i), k, nprocs);
    let mut owners: Vec<OwnerCounts> = (0..nprocs).map(|_| OwnerCounts::default()).collect();

    // Pass 1: Bloom filter pass, each filter sized by its owner's incoming
    // k-mers.  Owners learn which of their k-mers occur at least twice.
    for_each_owner(&mut owners, exchange(extract(), k, stats), |owner, kmers| {
        let mut bloom = BloomFilter::with_rate(kmers.len().max(64), 0.01);
        owner.graduate(kmers, |kmer| bloom.insert(kmer));
        owner.seal();
    });

    // Pass 2: counting pass over the same exchange.  A Bloom false positive
    // on a k-mer's *first* occurrence leaves a candidate with count 1; the
    // reliable-range filter removes it, matching the serial counter.
    for_each_owner(&mut owners, exchange(extract(), k, stats), OwnerCounts::count);
    build_table(&owners, selection)
}

/// Streaming superstep variant of [`count_kmers_distributed`]: consumes the
/// input as bounded [`ReadBatch`]es instead of a resident [`ReadSet`].
///
/// Each batch is one BSP **superstep**: every rank extracts the canonical
/// k-mers of its share of the batch, exchanges them to hash-assigned owners
/// via one `alltoallv`, and the owners fold the incoming k-mers into their
/// per-rank state before the next batch is touched — at no point is more
/// than one batch (plus its in-flight exchange buffers) resident.  The
/// two-pass structure is preserved across supersteps:
///
/// * **pass 1** feeds a [`ScalableBloom`] per owner (sized for an unknown
///   stream, unlike the monolithic counter's count-sized [`BloomFilter`]);
///   k-mers seen at least twice anywhere in the stream graduate to the
///   owner's candidate list;
/// * **pass 2** re-streams the same input (`batches` is called once per
///   pass) and counts occurrences of the graduated candidates.
///
/// For `selection.min_count >= 2` (the paper's setting) the returned table is
/// **bit-identical** to [`count_kmers_distributed`] and [`count_kmers_serial`]
/// at every batch size and thread count: Bloom false positives only graduate
/// extra *singletons*, whose full pass-2 count of 1 is then discarded by the
/// reliable-range filter, and true `count >= 2` k-mers always graduate (no
/// false negatives).
///
/// Resource accounting under `budget`:
///
/// * the estimated resident bytes of every superstep (current batch +
///   exchange buffers on both sides + per-owner filter/candidate/count
///   state) are checked against `budget.max_resident_bytes`; exceeding it is
///   an `Err`, never silent growth;
/// * [`CommStats`] gains three extras: `ingest_supersteps` (batches per
///   pass), `ingest_batch_bytes_peak` (largest batch) and
///   `ingest_resident_bytes_peak` (peak of the resident estimate).
///
/// Both passes must observe the same stream: if the second call to `batches`
/// yields a different superstep or read count, the ingest fails.
pub fn count_kmers_streaming<I, F>(
    mut batches: F,
    selection: &KmerSelection,
    nprocs: usize,
    budget: &IngestBudget,
    stats: &CommStats,
) -> Result<KmerTable, String>
where
    I: Iterator<Item = Result<ReadBatch, String>>,
    F: FnMut() -> Result<I, String>,
{
    assert!(nprocs > 0);
    let k = selection.k;
    let extract =
        |batch: &ReadBatch| extract_kmers(batch.len(), |i| &batch.records[i].seq, k, nprocs);
    let mut peaks = IngestPeaks::default();

    // Pass 1: Bloom pass, one superstep per batch.  Owner state (filter +
    // candidate list) persists across supersteps so k-mers whose occurrences
    // land in different batches still graduate.
    let mut owners: Vec<(OwnerCounts, ScalableBloom)> = (0..nprocs)
        .map(|_| (OwnerCounts::default(), ScalableBloom::with_rate(1 << 12, 0.01)))
        .collect();
    let mut pass1_steps = 0u64;
    let mut pass1_reads = 0usize;
    for batch in batches()? {
        let batch = batch?;
        if batch.is_empty() {
            continue;
        }
        pass1_steps += 1;
        pass1_reads += batch.len();
        let send = extract(&batch);
        let owner_state = owners
            .iter()
            .map(|(owner, bloom)| owner.resident_bytes() + bloom.resident_bytes() as u64)
            .sum();
        peaks.observe(&batch, &send, owner_state, budget)?;
        for_each_owner(&mut owners, exchange(send, k, stats), |(owner, bloom), kmers| {
            owner.graduate(kmers, |kmer| bloom.insert(kmer))
        });
    }
    // The filters have done their job; only the candidate lists survive into
    // pass 2, so the resident estimate drops accordingly.
    let mut owners: Vec<OwnerCounts> = owners.into_iter().map(|(owner, _)| owner).collect();
    par_ranks_mut(&mut owners, |_, owner| owner.seal());

    // Pass 2: counting pass over a fresh stream of the same input.
    let mut pass2_steps = 0u64;
    let mut pass2_reads = 0usize;
    for batch in batches()? {
        let batch = batch?;
        if batch.is_empty() {
            continue;
        }
        pass2_steps += 1;
        pass2_reads += batch.len();
        let send = extract(&batch);
        let owner_state = owners.iter().map(OwnerCounts::resident_bytes).sum();
        peaks.observe(&batch, &send, owner_state, budget)?;
        for_each_owner(&mut owners, exchange(send, k, stats), OwnerCounts::count);
    }
    if pass2_steps != pass1_steps || pass2_reads != pass1_reads {
        return Err(format!(
            "streaming input changed between passes: pass 1 saw {pass1_reads} reads in \
             {pass1_steps} supersteps, pass 2 saw {pass2_reads} reads in {pass2_steps}"
        ));
    }

    stats.max_extra(INGEST_SUPERSTEPS_KEY, pass1_steps);
    stats.max_extra(INGEST_BATCH_BYTES_PEAK_KEY, peaks.batch_bytes);
    stats.max_extra(INGEST_RESIDENT_BYTES_PEAK_KEY, peaks.resident_bytes);
    Ok(build_table(&owners, selection))
}

/// Every rank's canonical k-mers, packed and bucketed by owner rank:
/// `out[rank][owner]`.  The `n` reads (`seq(i)` is read `i`) are
/// block-partitioned over the ranks.  The returned buffers are moved into
/// the exchange (consumed, not cloned), so the send side is resident
/// exactly once.
fn extract_kmers<'a>(
    n: usize,
    seq: impl Fn(usize) -> &'a DnaSeq + Sync,
    k: usize,
    nprocs: usize,
) -> Vec<Vec<Vec<u64>>> {
    let dist = BlockDist::new(n, nprocs);
    par_ranks(nprocs, |rank| {
        let reads = dist.range(rank).map(&seq).filter(|s| s.len() >= k);
        // The owner hash spreads k-mers evenly, so each bucket is reserved
        // for its expected share plus four standard deviations instead of
        // growing by doubling.
        let windows: usize = reads.clone().map(|s| s.len() + 1 - k).sum();
        let share = windows / nprocs;
        let reserve = share + 4 * (share as f64).sqrt().ceil() as usize;
        let mut bufs: Vec<Vec<u64>> = (0..nprocs).map(|_| Vec::with_capacity(reserve)).collect();
        for s in reads {
            for (_, canon) in CanonicalKmers::new(s, k) {
                let packed = canon.kmer.packed();
                bufs[(splitmix64(packed) % nprocs as u64) as usize].push(packed);
            }
        }
        bufs
    })
}

/// One k-mer exchange, accounted under [`CommPhase::KmerCounting`].  The
/// wire format is 2-bit packed, i.e. k/4 bytes per k-mer: that is
/// `ceil(k/32)` 8-byte words.
fn exchange(send: Vec<Vec<Vec<u64>>>, k: usize, stats: &CommStats) -> Vec<Vec<u64>> {
    alltoallv_counted(send, stats, CommPhase::KmerCounting, (k as u64).div_ceil(32))
}

/// Hand every owner its incoming k-mers, owners in parallel.
fn for_each_owner<S: Send>(
    owners: &mut [S],
    incoming: Vec<Vec<u64>>,
    f: impl Fn(&mut S, Vec<u64>) + Sync,
) {
    par_ranks_into(owners.iter_mut().zip(incoming).collect(), |_, (owner, kmers)| f(owner, kmers));
}

/// Pending graduates below this many are never merged early.
const MIN_PENDING: usize = 1 << 12;

/// One owner rank's counting state: pass 1's graduates as a sorted,
/// deduplicated candidate list, then the candidates' pass-2 counts.
#[derive(Default)]
struct OwnerCounts {
    candidates: Vec<u64>,
    /// Graduates not yet merged into `candidates`; may hold duplicates.
    pending: Vec<u64>,
    /// Pass-2 count of `candidates[i]`; sized by [`Self::seal`].
    counts: Vec<u32>,
}

impl OwnerCounts {
    /// Pass 1: keep the k-mers that `seen` reports as seen before (they
    /// occur at least twice, or are Bloom false positives).  `seen` is
    /// called once per k-mer, in order.
    fn graduate(&mut self, mut kmers: Vec<u64>, mut seen: impl FnMut(u64) -> bool) {
        kmers.retain(|&kmer| seen(kmer));
        if self.pending.is_empty() {
            self.pending = kmers;
        } else {
            self.pending.append(&mut kmers);
        }
        // A k-mer graduates again on every later sighting, so merge once the
        // pending list outgrows the candidates: the state stays within about
        // twice the candidate list at amortised O(log n) work per graduate.
        if self.pending.len() > self.candidates.len().max(MIN_PENDING) {
            self.merge_pending();
        }
    }

    fn merge_pending(&mut self) {
        let mut fresh = std::mem::take(&mut self.pending);
        fresh.sort_unstable();
        fresh.dedup();
        if self.candidates.is_empty() {
            self.candidates = fresh;
        } else if !fresh.is_empty() {
            self.candidates = merge_sorted(&self.candidates, &fresh);
        }
        self.candidates.shrink_to_fit();
    }

    /// End of pass 1: merge the last graduates and zero the counts.
    fn seal(&mut self) {
        self.merge_pending();
        self.counts = vec![0; self.candidates.len()];
    }

    /// Pass 2: sort `kmers` and add each run of equal k-mers to its
    /// candidate's count, by a merge-join that gallops over the candidates
    /// (one superstep's k-mers may touch few of them).
    fn count(&mut self, mut kmers: Vec<u64>) {
        kmers.sort_unstable();
        let mut at = 0;
        for run in kmers.chunk_by(|a, b| a == b) {
            at += gallop(&self.candidates[at..], run[0]);
            if self.candidates.get(at) == Some(&run[0]) {
                self.counts[at] += run.len() as u32;
            }
        }
    }

    /// The reliable candidates as `(packed k-mer, count)`, in k-mer order.
    fn reliable<'a>(
        &'a self,
        selection: &'a KmerSelection,
    ) -> impl Iterator<Item = (u64, u32)> + 'a {
        self.candidates
            .iter()
            .zip(&self.counts)
            .filter(|&(_, &c)| selection.is_reliable(c))
            .map(|(&kmer, &c)| (kmer, c))
    }

    /// Heap bytes the state can reach in a superstep, from capacities: a
    /// merge briefly holds the old list, the sorted pending list and the
    /// merged list, so the lists are charged twice.
    fn resident_bytes(&self) -> u64 {
        let words = self.candidates.capacity() + self.pending.capacity();
        (2 * words * std::mem::size_of::<u64>() + self.counts.capacity() * 4) as u64
    }
}

/// The union of two sorted, deduplicated lists.
fn merge_sorted(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Index of the first element of sorted `xs` that is not below `key`,
/// searched forward from the front in doubling steps, so a near answer is
/// cheap.
fn gallop(xs: &[u64], key: u64) -> usize {
    let mut hi = 1;
    while hi < xs.len() && xs[hi - 1] < key {
        hi *= 2;
    }
    let hi = hi.min(xs.len());
    let lo = hi / 2;
    lo + xs[lo..hi].partition_point(|&x| x < key)
}

/// The final table: owners partition the k-mer space by hash, so their
/// reliable k-mers are disjoint and one sort orders the columns.
fn build_table(owners: &[OwnerCounts], selection: &KmerSelection) -> KmerTable {
    let mut reliable: Vec<(u64, u32)> =
        owners.iter().flat_map(|owner| owner.reliable(selection)).collect();
    reliable.sort_unstable_by_key(|&(kmer, _)| kmer);
    KmerTable::from_sorted(selection.k, reliable)
}

/// Running peaks of the streaming ingest's resident-byte estimate.
#[derive(Default)]
struct IngestPeaks {
    batch_bytes: u64,
    resident_bytes: u64,
}

impl IngestPeaks {
    /// Fold one superstep into the peaks and enforce the resident budget.
    ///
    /// The estimate charges the batch itself, the exchange buffers twice
    /// (an upper bound: the all-to-all holds the send side and the receive
    /// buffers filled so far; each k-mer is one 8-byte word on both) and the
    /// persistent owner state.
    fn observe(
        &mut self,
        batch: &ReadBatch,
        send: &[Vec<Vec<u64>>],
        owner_state: u64,
        budget: &IngestBudget,
    ) -> Result<(), String> {
        let batch_bytes = batch.bytes() as u64;
        let exchange_bytes: u64 = send
            .iter()
            .flatten()
            .map(|buf| (buf.capacity() * std::mem::size_of::<u64>()) as u64)
            .sum();
        let resident = batch_bytes + 2 * exchange_bytes + owner_state;
        self.batch_bytes = self.batch_bytes.max(batch_bytes);
        self.resident_bytes = self.resident_bytes.max(resident);
        if resident > budget.max_resident_bytes as u64 {
            return Err(format!(
                "streaming ingest over budget: estimated {resident} resident bytes \
                 (batch {batch_bytes} + exchange 2x{exchange_bytes} + owner state \
                 {owner_state}) exceeds max_resident_bytes = {}; lower \
                 max_batch_reads/max_batch_bytes or raise the budget",
                budget.max_resident_bytes
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fasta::{parse_fasta, ReadRecord};
    use crate::simulate::DatasetSpec;
    use proptest::prelude::*;

    fn reads_from(seqs: &[&str]) -> ReadSet {
        let mut rs = ReadSet::new();
        for (i, s) in seqs.iter().enumerate() {
            rs.push(ReadRecord { name: format!("r{i}"), seq: s.parse().unwrap() });
        }
        rs
    }

    #[test]
    fn serial_counts_simple_case() {
        // "ACGTA" with k=3 has k-mers ACG, CGT, GTA.  Canonically CGT collapses
        // onto ACG (its reverse complement), so per read: ACG x2, GTA x1.
        // With two identical reads: ACG -> 4, GTA -> 2.
        let reads = reads_from(&["ACGTA", "ACGTA"]);
        let sel = KmerSelection { k: 3, min_count: 2, max_count: 100 };
        let table = count_kmers_serial(&reads, &sel);
        assert_eq!(table.len(), 2);
        let acg = Kmer::from_ascii(b"ACG").unwrap().canonical().kmer;
        let gta = Kmer::from_ascii(b"GTA").unwrap().canonical().kmer;
        assert_eq!(table.count_at(table.column_of(&acg).unwrap()), 4);
        assert_eq!(table.count_at(table.column_of(&gta).unwrap()), 2);
    }

    #[test]
    fn singletons_are_discarded() {
        let reads = reads_from(&["AAAAAAAA", "CCCCCCCC"]);
        let sel = KmerSelection { k: 4, min_count: 2, max_count: 100 };
        let table = count_kmers_serial(&reads, &sel);
        // AAAA appears 5 times in read 0; CCCC appears 5 times in read 1
        // (canonical of GGGG too).  Both are >= 2 so both survive.
        assert_eq!(table.len(), 2);

        let reads2 = reads_from(&["ACGTACGA"]);
        let sel2 = KmerSelection { k: 8, min_count: 2, max_count: 100 };
        let table2 = count_kmers_serial(&reads2, &sel2);
        assert!(table2.is_empty(), "a k-mer occurring once must be discarded");
    }

    #[test]
    fn high_frequency_kmers_are_discarded() {
        let reads = reads_from(&["AAAAAAAAAAAAAAAA"]);
        let sel = KmerSelection { k: 4, min_count: 2, max_count: 5 };
        let table = count_kmers_serial(&reads, &sel);
        assert!(table.is_empty(), "a 13-copy k-mer must exceed max_count=5");
    }

    #[test]
    fn canonical_forms_merge_forward_and_reverse_occurrences() {
        // Read 2 is the reverse complement of read 1: every canonical k-mer
        // should be counted twice.
        let fwd = "ACGGTTACGGAC";
        let rc: String = crate::dna::DnaSeq::from_ascii(fwd.as_bytes())
            .unwrap()
            .reverse_complement()
            .to_ascii();
        let reads = reads_from(&[fwd, &rc]);
        let sel = KmerSelection { k: 5, min_count: 2, max_count: 100 };
        let table = count_kmers_serial(&reads, &sel);
        assert!(!table.is_empty());
        for (_, _, c) in table.iter() {
            assert!(c >= 2, "forward and reverse occurrences must merge");
        }
    }

    #[test]
    fn column_lookup_is_consistent() {
        let reads = reads_from(&["ACGTACGTACG", "ACGTACGTACG"]);
        let sel = KmerSelection { k: 4, min_count: 2, max_count: 100 };
        let table = count_kmers_serial(&reads, &sel);
        for (col, kmer, _) in table.iter() {
            assert_eq!(table.column_of(&kmer), Some(col));
            assert_eq!(table.kmer_at(col), kmer);
        }
        let absent = Kmer::from_ascii(b"TTTT").unwrap().canonical().kmer;
        if table.column_of(&absent).is_some() {
            // Only possible if TTTT/AAAA actually occurs in the reads; it does not.
            panic!("absent k-mer must not have a column");
        }
    }

    #[test]
    fn distributed_matches_serial_on_simulated_data() {
        let ds = DatasetSpec::Tiny.generate(7);
        let sel = KmerSelection { k: 11, min_count: 2, max_count: 30 };
        let serial = count_kmers_serial(&ds.reads, &sel);
        for nprocs in [1usize, 2, 4, 9] {
            let stats = CommStats::new();
            let dist = count_kmers_distributed(&ds.reads, &sel, nprocs, &stats);
            assert_eq!(dist.len(), serial.len(), "table size mismatch at P={nprocs}");
            for (col, kmer, count) in serial.iter() {
                let dcol = dist.column_of(&kmer).expect("k-mer missing in distributed table");
                assert_eq!(dist.count_at(dcol), count, "count mismatch for column {col}");
            }
        }
    }

    #[test]
    fn distributed_communication_is_recorded_and_scales_with_ranks() {
        let ds = DatasetSpec::Tiny.generate(8);
        let sel = KmerSelection { k: 11, min_count: 2, max_count: 30 };
        let stats1 = CommStats::new();
        let _ = count_kmers_distributed(&ds.reads, &sel, 1, &stats1);
        assert_eq!(stats1.words(CommPhase::KmerCounting), 0, "single rank exchanges nothing");
        let stats4 = CommStats::new();
        let _ = count_kmers_distributed(&ds.reads, &sel, 4, &stats4);
        assert!(stats4.words(CommPhase::KmerCounting) > 0);
        assert!(stats4.messages(CommPhase::KmerCounting) > 0);
    }

    #[test]
    fn bella_bound_tracks_depth_and_error() {
        let low_depth = KmerSelection::with_bella_bound(17, 10.0, 0.15);
        let high_depth = KmerSelection::with_bella_bound(17, 40.0, 0.13);
        assert!(high_depth.max_count > low_depth.max_count);
        assert!(low_depth.max_count >= 4);
        assert_eq!(KmerSelection::paper_default().max_count, 4);
        assert_eq!(KmerSelection::paper_default().k, 17);
    }

    #[test]
    fn reads_shorter_than_k_are_skipped() {
        let reads = parse_fasta(">a\nACG\n>b\nACGTACGTAC\n>c\nACGTACGTAC\n").unwrap();
        let sel = KmerSelection { k: 5, min_count: 2, max_count: 100 };
        let table = count_kmers_serial(&reads, &sel);
        assert!(!table.is_empty());
        // No panic and the 3-base read contributed nothing.
    }

    /// Assert two tables are bit-identical: same columns, same k-mers, same
    /// counts, same order.
    fn assert_tables_identical(a: &KmerTable, b: &KmerTable, ctx: &str) {
        assert_eq!(a.len(), b.len(), "table size mismatch ({ctx})");
        for ((ca, ka, na), (cb, kb, nb)) in a.iter().zip(b.iter()) {
            assert_eq!(ca, cb, "column order mismatch ({ctx})");
            assert_eq!(ka, kb, "k-mer mismatch at column {ca} ({ctx})");
            assert_eq!(na, nb, "count mismatch at column {ca} ({ctx})");
        }
    }

    #[test]
    fn streaming_matches_monolithic_at_fixed_batch_sizes_and_threads() {
        use crate::stream::{read_set_batches, IngestBudget};
        let ds = DatasetSpec::Tiny.generate(11);
        let sel = KmerSelection { k: 11, min_count: 2, max_count: 30 };
        for nprocs in [1usize, 3] {
            let mono_stats = CommStats::new();
            let mono = count_kmers_distributed(&ds.reads, &sel, nprocs, &mono_stats);
            for max_batch_reads in [1usize, 7, 64, usize::MAX] {
                for threads in [1usize, 2, 4] {
                    let budget = IngestBudget::with_batch_reads(max_batch_reads);
                    let stats = CommStats::new();
                    let streamed = dibella_dist::with_threads(threads, || {
                        count_kmers_streaming(
                            || Ok(read_set_batches(&ds.reads, budget)),
                            &sel,
                            nprocs,
                            &budget,
                            &stats,
                        )
                    })
                    .unwrap();
                    let ctx = format!("P={nprocs} b={max_batch_reads} t={threads}");
                    assert_tables_identical(&streamed, &mono, &ctx);
                    assert_eq!(
                        stats.extra("ingest_supersteps") as usize,
                        ds.reads.len().div_ceil(max_batch_reads.min(ds.reads.len())),
                        "superstep count ({ctx})"
                    );
                    assert!(stats.extra("ingest_batch_bytes_peak") > 0);
                    assert!(
                        stats.extra("ingest_resident_bytes_peak")
                            >= stats.extra("ingest_batch_bytes_peak")
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_batch_bytes_peak_is_exactly_the_largest_batch() {
        // The exchange consumes its send buffers, so the recorded peak must
        // equal the largest batch exactly — any residual cloning/doubling of
        // batch state would inflate it.
        use crate::stream::{read_set_batches, IngestBudget};
        let ds = DatasetSpec::Tiny.generate(12);
        let budget = IngestBudget::with_batch_reads(5);
        let expected_peak = read_set_batches(&ds.reads, budget)
            .map(|b| b.unwrap().bytes() as u64)
            .max()
            .unwrap();
        let sel = KmerSelection { k: 9, min_count: 2, max_count: 40 };
        let stats = CommStats::new();
        count_kmers_streaming(
            || Ok(read_set_batches(&ds.reads, budget)),
            &sel,
            4,
            &budget,
            &stats,
        )
        .unwrap();
        assert_eq!(stats.extra("ingest_batch_bytes_peak"), expected_peak);
    }

    #[test]
    fn streaming_enforces_the_resident_budget() {
        use crate::stream::{read_set_batches, IngestBudget};
        let ds = DatasetSpec::Tiny.generate(13);
        let sel = KmerSelection { k: 11, min_count: 2, max_count: 30 };
        // A 1-byte resident budget must fail loudly, not grow silently.
        let mut budget = IngestBudget::with_batch_reads(4);
        budget.max_resident_bytes = 1;
        let stats = CommStats::new();
        let err = count_kmers_streaming(
            || Ok(read_set_batches(&ds.reads, budget)),
            &sel,
            2,
            &budget,
            &stats,
        )
        .unwrap_err();
        assert!(err.contains("over budget"), "unexpected error: {err}");
        assert!(err.contains("max_resident_bytes = 1"), "unexpected error: {err}");
    }

    #[test]
    fn streaming_rejects_input_that_changes_between_passes() {
        use crate::stream::{read_set_batches, IngestBudget};
        let ds_a = DatasetSpec::Tiny.generate(14);
        let ds_b = DatasetSpec::Tiny.generate(15);
        let sel = KmerSelection { k: 11, min_count: 2, max_count: 30 };
        let budget = IngestBudget::with_batch_reads(8);
        let stats = CommStats::new();
        let mut pass = 0;
        let err = count_kmers_streaming(
            || {
                pass += 1;
                Ok(read_set_batches(if pass == 1 { &ds_a.reads } else { &ds_b.reads }, budget))
            },
            &sel,
            2,
            &budget,
            &stats,
        )
        .unwrap_err();
        assert!(err.contains("changed between passes"), "unexpected error: {err}");
    }

    #[test]
    fn streaming_propagates_batch_errors() {
        use crate::stream::IngestBudget;
        let sel = KmerSelection { k: 5, min_count: 2, max_count: 30 };
        let budget = IngestBudget::unbounded();
        let stats = CommStats::new();
        let err = count_kmers_streaming(
            || Ok(std::iter::once(Err("bad record".to_string()))),
            &sel,
            2,
            &budget,
            &stats,
        )
        .unwrap_err();
        assert_eq!(err, "bad record");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_streaming_equals_monolithic_at_random_batch_sizes(
            seed in 0u64..200,
            max_batch_reads in 1usize..=64,
            nprocs in 1usize..6,
            threads_idx in 0usize..3,
        ) {
            use crate::stream::{read_set_batches, IngestBudget};
            let threads = [1usize, 2, 4][threads_idx];
            let ds = DatasetSpec::Tiny.generate_with_length(2_000, seed);
            let sel = KmerSelection { k: 9, min_count: 2, max_count: 50 };
            let mono_stats = CommStats::new();
            let mono = count_kmers_distributed(&ds.reads, &sel, nprocs, &mono_stats);
            let budget = IngestBudget::with_batch_reads(max_batch_reads);
            let stats = CommStats::new();
            let streamed = dibella_dist::with_threads(threads, || {
                count_kmers_streaming(
                    || Ok(read_set_batches(&ds.reads, budget)),
                    &sel,
                    nprocs,
                    &budget,
                    &stats,
                )
            });
            let streamed = streamed.unwrap();
            prop_assert_eq!(streamed.len(), mono.len());
            for ((ca, ka, na), (cb, kb, nb)) in streamed.iter().zip(mono.iter()) {
                prop_assert_eq!(ca, cb);
                prop_assert_eq!(ka, kb);
                prop_assert_eq!(na, nb);
            }
            prop_assert_eq!(
                stats.extra("ingest_supersteps") as usize,
                ds.reads.len().div_ceil(max_batch_reads)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_distributed_equals_serial(
            seed in 0u64..200,
            nprocs in 1usize..6,
            k in 4usize..10,
        ) {
            let ds = DatasetSpec::Tiny.generate_with_length(2_000, seed);
            let sel = KmerSelection { k, min_count: 2, max_count: 50 };
            let serial = count_kmers_serial(&ds.reads, &sel);
            let stats = CommStats::new();
            let dist = count_kmers_distributed(&ds.reads, &sel, nprocs, &stats);
            prop_assert_eq!(serial.len(), dist.len());
            for (_, kmer, count) in serial.iter() {
                let col = dist.column_of(&kmer);
                prop_assert!(col.is_some());
                prop_assert_eq!(dist.count_at(col.unwrap()), count);
            }
        }
    }
}

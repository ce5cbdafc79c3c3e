//! diBELLA 2D overlap detection: `C = A·Aᵀ`, pairwise alignment, pruning.
//!
//! This module covers lines 4–8 of Algorithm 1: the candidate overlap matrix
//! is produced by Sparse SUMMA with the shared-k-mer semiring, candidate
//! pairs are aligned with the x-drop aligner seeded at a stored shared k-mer,
//! and pairs whose alignment is too weak — or which turn out to be contained
//! or purely internal matches — are pruned.  The surviving entries form the
//! overlap matrix `R`, annotated with the overhang length and bidirected
//! direction that transitive reduction needs.
//!
//! Alignment runs containment-first (see [`align_candidates_exec`]): the
//! pairs whose seeds predict a containment are aligned first, and a pair
//! whose two reads both turn out contained is then never aligned — every
//! edge of a contained read is dropped anyway.  The output equals that of
//! aligning every candidate pair.

use crate::amatrix::build_a_matrix;
use crate::semiring::OverlapSemiring;
use crate::types::{CommonKmers, KmerOccurrence, OverlapEdge, SharedSeed};
use dibella_align::{
    align_seed_pair_with, classify_alignment, AlignScratch, AlignmentConfig, BidirectedDir,
    ExtendEngine, OrientCache, OverlapClass, PairAlignment,
};
use dibella_dist::{words_of, BlockDist, CommPhase, CommStats, ProcessGrid};
use dibella_seq::{KmerTable, ReadSet, Strand};
use dibella_sparse::{summa_aat_sym_with_words, summa_abt_with_words, DistMat2D, Triples};
use rayon::pool;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration of the overlap-detection stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverlapConfig {
    /// k-mer (seed) length; the paper uses 17.
    pub k: usize,
    /// Minimum number of shared reliable k-mers for a pair to be aligned.
    pub min_shared_kmers: u32,
    /// Compute `C = A·Aᵀ` with the symmetric SUMMA (`summa_aat_sym`): only
    /// the grid blocks on or above the diagonal are multiplied and the rest
    /// are mirrored across it — half the useful flops, at the cost of a
    /// `(P − √P)/2`-message cross-diagonal block exchange.  The output is
    /// bit-identical either way; `false` falls back to the general
    /// transpose-free `summa_abt` path.
    pub use_symmetric_summa: bool,
    /// Alignment settings.
    pub alignment: AlignmentConfig,
}

impl Default for OverlapConfig {
    fn default() -> Self {
        Self {
            k: 17,
            min_shared_kmers: 1,
            use_symmetric_summa: true,
            alignment: AlignmentConfig::default(),
        }
    }
}

impl OverlapConfig {
    /// Settings scaled down for the short synthetic reads used in tests.
    pub fn for_tests(k: usize) -> Self {
        Self { k, alignment: AlignmentConfig::for_tests(), ..Self::default() }
    }
}

/// Counters describing one overlap-detection run.
///
/// The per-class counters (`dovetail`, `contained`, `internal`,
/// `below_threshold`) count aligned pairs only: a pair the containment-first
/// schedule never aligns is counted in `skipped_pairs` and nowhere else.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OverlapStats {
    /// Candidate pairs (upper triangle of `C`) examined.
    pub candidate_pairs: usize,
    /// Pairs actually aligned (shared-k-mer filter applied, pairs of two
    /// already-contained reads skipped).
    pub aligned_pairs: usize,
    /// Pairs passing the shared-k-mer filter that were never aligned because
    /// both reads were already known to be contained.
    pub skipped_pairs: usize,
    /// Aligned pairs that produced a usable dovetail overlap.
    pub dovetail: usize,
    /// Aligned pairs discarded because one read contains the other.
    pub contained: usize,
    /// Reads found to be contained in some other read; all their edges are
    /// dropped from `R` (they can be reintroduced after layout, Section II).
    pub contained_reads: usize,
    /// Aligned pairs discarded as internal (repeat-induced) matches.
    pub internal: usize,
    /// Aligned pairs discarded for a low alignment score or a short overlap
    /// (including a pair none of whose stored seeds lies inside both reads).
    pub below_threshold: usize,
    /// `c` — average nonzeros per row of `C` (both triangles, Table III).
    pub c_density: f64,
    /// `r` — average nonzeros per row of `R` (Table III).
    pub r_density: f64,
}

/// The matrices produced by an overlap-detection run.
#[derive(Debug, Clone)]
pub struct OverlapOutput {
    /// The occurrence matrix `A` (reads × k-mers).
    pub a: DistMat2D<KmerOccurrence>,
    /// The candidate overlap matrix `C` (diagonal removed).
    pub candidates: DistMat2D<CommonKmers>,
    /// The overlap matrix `R` after alignment and pruning.
    pub overlaps: DistMat2D<OverlapEdge>,
    /// Counters for this run.
    pub stats: OverlapStats,
}

/// Word cost of shipping one read of `len` bases (2-bit packed plus a header
/// word), used consistently by the read-exchange accounting and by the
/// analytic model it is compared against.
pub fn read_exchange_words(len: usize) -> u64 {
    (len as u64).div_ceil(32) + 1
}

/// Compute the candidate overlap matrix `C = A·Aᵀ` with the symmetric Sparse
/// SUMMA and remove the diagonal (a read trivially shares all its k-mers
/// with itself).
///
/// Equivalent to [`detect_candidates_2d_with`] with the symmetric path on —
/// the [`OverlapConfig::use_symmetric_summa`] default.
pub fn detect_candidates_2d(
    a: &DistMat2D<KmerOccurrence>,
    stats: &CommStats,
) -> DistMat2D<CommonKmers> {
    detect_candidates_2d_with(a, stats, true)
}

/// [`detect_candidates_2d`] with an explicit kernel choice.
///
/// With `use_symmetric_summa` (the default), `summa_aat_sym` multiplies only
/// the grid blocks on or above the diagonal and mirrors the rest, recording
/// the cross-diagonal block exchange as point-to-point traffic; otherwise the
/// general transpose-free `summa_abt` computes both triangles.  Either way no
/// distributed transpose of `A` is ever materialised, and the two kernels
/// produce bit-identical candidate matrices.
pub fn detect_candidates_2d_with(
    a: &DistMat2D<KmerOccurrence>,
    stats: &CommStats,
    use_symmetric_summa: bool,
) -> DistMat2D<CommonKmers> {
    // A k-mer occurrence travels as (column index, position+orientation): 2
    // words; an exchanged C entry as (column index, count + seed list).
    let c = if use_symmetric_summa {
        summa_aat_sym_with_words::<OverlapSemiring>(
            a,
            stats,
            CommPhase::OverlapDetection,
            2,
            words_of::<CommonKmers>() + 1,
        )
    } else {
        summa_abt_with_words::<OverlapSemiring>(a, a, stats, CommPhase::OverlapDetection, 2, 2)
    };
    c.filter(|r, col, _| r != col)
}

/// Account for the sequence exchange of the 2D algorithm (Section V-C).
///
/// Reads start in a 1D block distribution (parallel FASTA I/O); every grid
/// rank then needs the full range of reads of its block row and block column,
/// i.e. about `2n/√P` reads costing `~2nl/√P` words, fetched from at most
/// `√P`-ish source ranks.
pub fn account_read_exchange_2d(reads: &ReadSet, grid: ProcessGrid, stats: &CommStats) {
    let p = grid.nprocs();
    let init = BlockDist::new(reads.len(), p);
    let row_dist = BlockDist::new(reads.len(), grid.rows());
    let col_dist = BlockDist::new(reads.len(), grid.cols());
    for rank in grid.ranks() {
        let (bi, bj) = grid.coords(rank);
        let mut needed: BTreeSet<usize> = row_dist.range(bi).collect();
        needed.extend(col_dist.range(bj));
        let own = init.range(rank);
        let mut words = 0u64;
        let mut sources: BTreeSet<usize> = BTreeSet::new();
        for idx in needed {
            if own.contains(&idx) {
                continue;
            }
            words += read_exchange_words(reads.seq(idx).len());
            sources.insert(init.owner(idx));
        }
        stats.record(CommPhase::ReadExchange, words, sources.len() as u64);
        stats.record_rank_max(CommPhase::ReadExchange, words);
    }
}

/// The classification outcome of one aligned candidate pair.
enum PairOutcome {
    BelowThreshold,
    Internal,
    /// `contained` is spanned entirely by the other read.
    Contained { contained: usize },
    Dovetail { i: usize, j: usize, edge_ij: OverlapEdge, edge_ji: OverlapEdge },
}

pub use dibella_dist::extras::{ALIGNED_CELLS_KEY, BAND_WIDTH_PEAK_KEY, XDROP_TERMINATIONS_KEY};

/// Execution counters of one batched alignment run.
///
/// All fields except [`rc_orientations`](Self::rc_orientations) are
/// deterministic — independent of worker count and engine choice (both
/// kernels walk the same adaptive band); `rc_orientations` counts
/// per-worker cache misses and therefore varies with work stealing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlignExecStats {
    /// DP cells evaluated (live-band widths summed over every extension row).
    pub aligned_cells: u64,
    /// Widest adaptive band of any single extension row.
    pub band_width_peak: u64,
    /// Extensions stopped early by the x-drop test.
    pub xdrop_terminations: u64,
    /// x-drop extension calls (two per evaluated seed: left + right).
    pub extend_calls: u64,
    /// Extensions dispatched to the lane-packed vector kernel (SSE2 on
    /// x86-64, SWAR elsewhere).
    pub simd_calls: u64,
    /// Extensions dispatched to the scalar oracle.
    pub scalar_calls: u64,
    /// Reverse complements materialised by the per-worker oriented-read
    /// caches (cache misses; thread-count dependent, never fed into comm
    /// accounting).
    pub rc_orientations: u64,
}

/// Shared accumulator the per-worker scratches flush into on drop.
#[derive(Default)]
struct SharedAlignCounters {
    cells: AtomicU64,
    band_peak: AtomicU64,
    terminations: AtomicU64,
    calls: AtomicU64,
    simd: AtomicU64,
    scalar: AtomicU64,
    rc: AtomicU64,
}

impl AlignExecStats {
    /// Fold the counters of another run (one schedule phase) into `self`.
    fn absorb(&mut self, other: Self) {
        self.aligned_cells += other.aligned_cells;
        self.band_width_peak = self.band_width_peak.max(other.band_width_peak);
        self.xdrop_terminations += other.xdrop_terminations;
        self.extend_calls += other.extend_calls;
        self.simd_calls += other.simd_calls;
        self.scalar_calls += other.scalar_calls;
        self.rc_orientations += other.rc_orientations;
    }
}

impl SharedAlignCounters {
    fn into_stats(self) -> AlignExecStats {
        AlignExecStats {
            aligned_cells: self.cells.into_inner(),
            band_width_peak: self.band_peak.into_inner(),
            xdrop_terminations: self.terminations.into_inner(),
            extend_calls: self.calls.into_inner(),
            simd_calls: self.simd.into_inner(),
            scalar_calls: self.scalar.into_inner(),
            rc_orientations: self.rc.into_inner(),
        }
    }
}

/// One worker's state for the flat (pair, seed) queue: alignment scratch plus
/// the oriented-read cache.  The accumulated counters flush into the shared
/// totals exactly once, when the pool drops the worker state.
struct AlignWorker<'a> {
    scratch: AlignScratch,
    orient: OrientCache,
    shared: &'a SharedAlignCounters,
}

impl<'a> AlignWorker<'a> {
    fn new(shared: &'a SharedAlignCounters) -> Self {
        Self { scratch: AlignScratch::new(), orient: OrientCache::new(), shared }
    }
}

impl Drop for AlignWorker<'_> {
    fn drop(&mut self) {
        let c = self.scratch.counters();
        self.shared.cells.fetch_add(c.cells, Ordering::Relaxed);
        self.shared.band_peak.fetch_max(c.band_peak, Ordering::Relaxed);
        self.shared.terminations.fetch_add(c.terminations, Ordering::Relaxed);
        self.shared.calls.fetch_add(c.calls, Ordering::Relaxed);
        self.shared.simd.fetch_add(self.scratch.simd_calls(), Ordering::Relaxed);
        self.shared.scalar.fetch_add(self.scratch.scalar_calls(), Ordering::Relaxed);
        self.shared.rc.fetch_add(self.orient.rc_computed, Ordering::Relaxed);
    }
}

/// One unit of the flat alignment work queue: one stored seed of one
/// candidate pair.  A pair's seeds stay adjacent in the queue, so a worker
/// processing them back-to-back hits its oriented-read cache.
#[derive(Clone, Copy)]
struct SeedJob {
    pair: u32,
    seed: SharedSeed,
}

/// Align the candidate pairs, classify the alignments, and assemble the
/// pruned overlap matrix `R`.
///
/// Both `(i, j)` and `(j, i)` entries are produced for every surviving
/// overlap, with mirrored directions and overhangs, so that `R` can be used
/// directly as the (pattern-symmetric) overlap graph of Algorithm 2.  Reads
/// found to be contained in another read are removed from the graph entirely
/// (all their edges are dropped), matching the paper's treatment: "Contained
/// overlaps ... are discarded during transitive reduction regardless of their
/// alignment scores.  They may be reintroduced at later stages."
///
/// Pairs are aligned containment-first (see [`align_candidates_exec`]): a
/// pair whose two reads are both already known to be contained is never
/// aligned, because nothing it could yield survives the pruning.  `R` and
/// the contained-read set are exactly those of aligning every pair.
pub fn align_candidates(
    reads: &ReadSet,
    candidates: &DistMat2D<CommonKmers>,
    config: &OverlapConfig,
) -> (DistMat2D<OverlapEdge>, OverlapStats) {
    align_candidates_with(reads, candidates, config, None)
}

/// [`align_candidates`] that also folds the alignment-stage counters into
/// `comm` extras (`aligned_cells`, `band_width_peak`, `xdrop_terminations`) —
/// the form the pipelines call.  Only thread-count-deterministic counters are
/// recorded, so comm snapshots stay bit-identical at any worker count.
pub fn align_candidates_with(
    reads: &ReadSet,
    candidates: &DistMat2D<CommonKmers>,
    config: &OverlapConfig,
    comm: Option<&CommStats>,
) -> (DistMat2D<OverlapEdge>, OverlapStats) {
    let (overlaps, stats, exec) =
        align_candidates_exec(reads, candidates, config, ExtendEngine::Auto);
    if let Some(comm) = comm {
        comm.bump_extra(ALIGNED_CELLS_KEY, exec.aligned_cells);
        comm.max_extra(BAND_WIDTH_PEAK_KEY, exec.band_width_peak);
        comm.bump_extra(XDROP_TERMINATIONS_KEY, exec.xdrop_terminations);
    }
    (overlaps, stats)
}

/// The full-control form of [`align_candidates`]: explicit engine choice and
/// the execution counters returned to the caller (benches and tests).
///
/// The eligible pairs (upper triangle, at least `min_shared_kmers` shared
/// k-mers) are aligned in a deterministic two-phase schedule, each phase one
/// [`align_pairs_exec`] call:
///
/// 1. **Containment-first.**  Pairs whose seed geometry predicts a
///    containment are aligned first.  A seed places the oriented `h` at
///    diagonal `d = pos_v − pos_h` of `v`; it predicts "`h` in `v`" when
///    `d ≥ −fuzz` and `d + |h| ≤ |v| + fuzz`, and "`v` in `h`" symmetrically
///    (`fuzz` is [`AlignmentConfig::classification_fuzz`]).  Their
///    `Contained` outcomes mark the contained set `C₁`.
/// 2. **The rest**, except pairs whose two reads are both in `C₁`.  Skipping
///    such a pair is exact: a dovetail from it would be dropped anyway (an
///    endpoint is contained), a containment would mark a read already
///    marked, and an internal or below-threshold result changes nothing.
///
/// A wrong prediction only costs time, never output: `R`, the final
/// contained set and every edge value equal those of aligning every pair,
/// and are bit-identical for every engine and worker count.
pub fn align_candidates_exec(
    reads: &ReadSet,
    candidates: &DistMat2D<CommonKmers>,
    config: &OverlapConfig,
    engine: ExtendEngine,
) -> (DistMat2D<OverlapEdge>, OverlapStats, AlignExecStats) {
    let (overlaps, stats, exec, _) = align_and_prune(reads, candidates, config, engine);
    (overlaps, stats, exec)
}

/// [`align_candidates_exec`] that also returns the contained-read set.
fn align_and_prune(
    reads: &ReadSet,
    candidates: &DistMat2D<CommonKmers>,
    config: &OverlapConfig,
    engine: ExtendEngine,
) -> (DistMat2D<OverlapEdge>, OverlapStats, AlignExecStats, Vec<bool>) {
    let mut stats = OverlapStats::default();
    let n = reads.len();

    // Work on the upper triangle only; every pair is aligned at most once.
    let mut eligible: Vec<(usize, usize, CommonKmers)> = Vec::new();
    for (i, j, common) in candidates.to_triples().into_entries() {
        if i < j {
            stats.candidate_pairs += 1;
            if common.count >= config.min_shared_kmers {
                eligible.push((i, j, common));
            }
        }
    }
    stats.c_density = if n > 0 { candidates.nnz() as f64 / n as f64 } else { 0.0 };

    let align_phase = |phase: &[(usize, usize, CommonKmers)]| {
        let (best, exec) = align_pairs_exec(reads, phase, config, engine);
        let outcomes: Vec<PairOutcome> = phase
            .iter()
            .zip(best)
            .map(|(&(i, j, _), aln)| classify_pair(reads, i, j, aln, &config.alignment))
            .collect();
        (outcomes, exec)
    };

    // Phase 1: pairs whose seeds predict a containment; their outcomes mark
    // the contained set C₁.
    let (phase1, rest): (Vec<_>, Vec<_>) = eligible.into_iter().partition(|&(i, j, common)| {
        seeds_predict_containment(reads.seq(i).len(), reads.seq(j).len(), &common, config)
    });
    let (mut outcomes, mut exec) = align_phase(&phase1);
    let mut contained_reads = vec![false; n];
    for outcome in &outcomes {
        if let PairOutcome::Contained { contained } = *outcome {
            contained_reads[contained] = true;
        }
    }

    // Phase 2: everything else except pairs of two reads already in C₁.
    let rest_pairs = rest.len();
    let phase2: Vec<_> =
        rest.into_iter().filter(|&(i, j, _)| !(contained_reads[i] && contained_reads[j])).collect();
    stats.skipped_pairs = rest_pairs - phase2.len();
    let (outcomes2, exec2) = align_phase(&phase2);
    outcomes.extend(outcomes2);
    exec.absorb(exec2);

    // Gather counters and complete the set of contained reads.
    stats.aligned_pairs = outcomes.len();
    for outcome in &outcomes {
        match *outcome {
            PairOutcome::BelowThreshold => stats.below_threshold += 1,
            PairOutcome::Internal => stats.internal += 1,
            PairOutcome::Contained { contained } => {
                stats.contained += 1;
                contained_reads[contained] = true;
            }
            PairOutcome::Dovetail { .. } => stats.dovetail += 1,
        }
    }
    stats.contained_reads = contained_reads.iter().filter(|&&b| b).count();

    // Emit edges whose endpoints both survive (`R` is built sorted, so the
    // phase order does not show in it).
    let mut edges: Vec<(usize, usize, OverlapEdge)> = Vec::new();
    for outcome in outcomes {
        if let PairOutcome::Dovetail { i, j, edge_ij, edge_ji } = outcome {
            if contained_reads[i] || contained_reads[j] {
                continue;
            }
            edges.push((i, j, edge_ij));
            edges.push((j, i, edge_ji));
        }
    }

    let triples = Triples::from_entries(n, n, edges);
    let overlaps = DistMat2D::from_triples(candidates.grid(), &triples);
    stats.r_density = if n > 0 { overlaps.nnz() as f64 / n as f64 } else { 0.0 };
    (overlaps, stats, exec, contained_reads)
}

/// Whether some stored seed of a pair predicts that one read contains the
/// other: placed on the seed's diagonal `d = pos_v − pos_h` (`pos_h` on the
/// oriented `h`, as the aligner takes it), one read lies inside the other up
/// to the classification fuzz.
fn seeds_predict_containment(
    len_v: usize,
    len_h: usize,
    common: &CommonKmers,
    config: &OverlapConfig,
) -> bool {
    let fuzz = config.alignment.classification_fuzz as i64;
    let (len_v, len_h) = (len_v as i64, len_h as i64);
    common.seeds.iter().any(|seed| {
        let pos_h = if seed.same_strand {
            seed.pos_h as i64
        } else {
            len_h - config.k as i64 - seed.pos_h as i64
        };
        let d = seed.pos_v as i64 - pos_h;
        let h_in_v = d >= -fuzz && d + len_h <= len_v + fuzz;
        let v_in_h = d <= fuzz && len_v - d <= len_h + fuzz;
        h_in_v || v_in_h
    })
}

/// Classify the best alignment of pair `(i, j)`: score and length threshold
/// first, then the overlap class of Section II.
fn classify_pair(
    reads: &ReadSet,
    i: usize,
    j: usize,
    best: Option<PairAlignment>,
    config: &AlignmentConfig,
) -> PairOutcome {
    let Some(aln) = best else { return PairOutcome::BelowThreshold };
    let aligned_len = aln.aligned_len();
    if aligned_len < config.min_overlap || aln.score < config.score_threshold(aligned_len) {
        return PairOutcome::BelowThreshold;
    }
    match classify_alignment(&aln, reads.seq(i).len(), reads.seq(j).len(), config) {
        OverlapClass::Dovetail { dir_vh, dir_hv, suffix_vh, suffix_hv } => {
            let edge = |dir: BidirectedDir, suffix: usize| OverlapEdge {
                dir: dir.bits(),
                suffix: suffix as u32,
                score: aln.score,
                overlap_len: aligned_len as u32,
            };
            PairOutcome::Dovetail {
                i,
                j,
                edge_ij: edge(dir_vh, suffix_vh),
                edge_ji: edge(dir_hv, suffix_hv),
            }
        }
        OverlapClass::Contains => PairOutcome::Contained { contained: j },
        OverlapClass::ContainedBy => PairOutcome::Contained { contained: i },
        OverlapClass::Internal => PairOutcome::Internal,
    }
}

/// Align a batch of candidate pairs `(i, j, shared k-mers)` — one phase of
/// the [`align_candidates_exec`] schedule — and return each pair's best
/// alignment (`None` when no stored seed lies inside both reads) with the
/// batch's execution counters.
///
/// The (pair, seed) work items are flattened into one queue on the
/// work-stealing pool; each worker reuses one [`AlignScratch`] +
/// [`OrientCache`] across every item it steals, and the per-pair best seed is
/// reduced deterministically afterwards (first-best in stored seed order).
/// The result is bit-identical for every engine and worker count.  The
/// shared-k-mer filter is the caller's: every given pair is aligned.
pub fn align_pairs_exec(
    reads: &ReadSet,
    pairs: &[(usize, usize, CommonKmers)],
    config: &OverlapConfig,
    engine: ExtendEngine,
) -> (Vec<Option<PairAlignment>>, AlignExecStats) {
    let jobs: Vec<SeedJob> = pairs
        .iter()
        .enumerate()
        .flat_map(|(idx, (_, _, common))| {
            common.seeds.iter().map(move |&seed| SeedJob { pair: idx as u32, seed })
        })
        .collect();

    let shared = SharedAlignCounters::default();
    let results: Vec<Option<PairAlignment>> = pool::map_indexed_with(
        jobs.len(),
        || AlignWorker::new(&shared),
        |worker, idx| {
            let job = jobs[idx];
            let (i, j, _) = pairs[job.pair as usize];
            let v = reads.seq(i);
            let h = reads.seq(j);
            let seed = job.seed;
            let (strand, seed_h) = if seed.same_strand {
                (Strand::Forward, seed.pos_h as usize)
            } else {
                (Strand::Reverse, h.len() - config.k - seed.pos_h as usize)
            };
            if seed.pos_v as usize + config.k > v.len() || seed_h + config.k > h.len() {
                return None;
            }
            // Orient h once per (pair, strand): forward pairs borrow the
            // stored codes, reverse pairs hit the per-worker cache.
            let h_codes: &[u8] = if seed.same_strand {
                h.codes()
            } else {
                worker.orient.reverse_complement(j, h.codes())
            };
            Some(align_seed_pair_with(
                v.codes(),
                h_codes,
                seed.pos_v as usize,
                seed_h,
                config.k,
                strand,
                &config.alignment,
                engine,
                &mut worker.scratch,
            ))
        },
    );

    // Deterministic per-pair reduction: first-best in stored seed order
    // (strictly-greater keeps the earliest seed on ties).
    let mut best: Vec<Option<PairAlignment>> = vec![None; pairs.len()];
    for (job, res) in jobs.iter().zip(results) {
        if let Some(aln) = res {
            let slot = &mut best[job.pair as usize];
            if slot.is_none_or(|b| aln.score > b.score) {
                *slot = Some(aln);
            }
        }
    }
    (best, shared.into_stats())
}

/// Run the full 2D overlap-detection stage: build `A`, account for the read
/// exchange, compute `C = A·Aᵀ`, align and prune.
pub fn run_overlap_2d(
    reads: &ReadSet,
    table: &KmerTable,
    config: &OverlapConfig,
    grid: ProcessGrid,
    comm: &CommStats,
) -> OverlapOutput {
    let a = build_a_matrix(reads, table, config.k, grid, grid.nprocs());
    account_read_exchange_2d(reads, grid, comm);
    let candidates = detect_candidates_2d_with(&a, comm, config.use_symmetric_summa);
    let (overlaps, stats) = align_candidates_with(reads, &candidates, config, Some(comm));
    OverlapOutput { a, candidates, overlaps, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_seq::simulate::{build_scenario, ScenarioKind, ScenarioParams};
    use dibella_seq::{count_kmers_serial, DatasetSpec, KmerSelection, SimulatedDataset};
    use dibella_sparse::CsrMatrix;

    fn setup(seed: u64) -> (SimulatedDataset, KmerTable, OverlapConfig) {
        let ds = DatasetSpec::Tiny.generate(seed);
        let k = 13;
        let sel = KmerSelection { k, min_count: 2, max_count: 60 };
        let table = count_kmers_serial(&ds.reads, &sel);
        (ds, table, OverlapConfig::for_tests(k))
    }

    #[test]
    fn candidate_matrix_is_reads_by_reads_without_diagonal() {
        let (ds, table, cfg) = setup(1);
        let grid = ProcessGrid::square(4);
        let comm = CommStats::new();
        let a = build_a_matrix(&ds.reads, &table, cfg.k, grid, 4);
        let c = detect_candidates_2d(&a, &comm);
        assert_eq!(c.nrows(), ds.reads.len());
        assert_eq!(c.ncols(), ds.reads.len());
        assert!(c.nnz() > 0, "a 12x-depth dataset must have candidate overlaps");
        for (i, j, _) in c.to_triples().iter() {
            assert_ne!(i, j, "diagonal must be removed");
        }
        assert!(comm.words(CommPhase::OverlapDetection) > 0);
    }

    #[test]
    fn candidate_matrix_pattern_is_symmetric() {
        let (ds, table, cfg) = setup(2);
        let grid = ProcessGrid::square(1);
        let comm = CommStats::new();
        let a = build_a_matrix(&ds.reads, &table, cfg.k, grid, 2);
        let c = detect_candidates_2d(&a, &comm);
        let local = c.to_local_csr();
        for (i, j, _) in local.iter() {
            assert!(local.get(j, i).is_some(), "C({j},{i}) missing for C({i},{j})");
        }
    }

    #[test]
    fn overlap_matrix_entries_mirror_each_other() {
        let (ds, table, cfg) = setup(3);
        let grid = ProcessGrid::square(4);
        let comm = CommStats::new();
        let out = run_overlap_2d(&ds.reads, &table, &cfg, grid, &comm);
        assert!(out.overlaps.nnz() > 0, "expected some accepted overlaps");
        let local = out.overlaps.to_local_csr();
        for (i, j, edge) in local.iter() {
            let mirror = local.get(j, i).expect("mirrored entry must exist");
            assert_eq!(
                BidirectedDir(edge.dir).reversed(),
                BidirectedDir(mirror.dir),
                "directions of ({i},{j}) and ({j},{i}) must be reversals"
            );
            assert_eq!(edge.score, mirror.score);
            assert_eq!(edge.overlap_len, mirror.overlap_len);
        }
    }

    #[test]
    fn accepted_overlaps_correspond_to_true_genome_overlaps() {
        let (ds, table, cfg) = setup(4);
        let grid = ProcessGrid::square(1);
        let comm = CommStats::new();
        let out = run_overlap_2d(&ds.reads, &table, &cfg, grid, &comm);
        let local = out.overlaps.to_local_csr();
        let mut true_pos = 0usize;
        let mut false_pos = 0usize;
        for (i, j, _) in local.iter() {
            if i < j {
                if ds.true_overlap(i, j) >= cfg.alignment.min_overlap / 2 {
                    true_pos += 1;
                } else {
                    false_pos += 1;
                }
            }
        }
        assert!(true_pos > 0, "should recover genuine overlaps");
        assert!(
            false_pos <= true_pos / 5 + 2,
            "too many spurious overlaps: {false_pos} false vs {true_pos} true"
        );
    }

    #[test]
    fn grid_size_does_not_change_the_overlap_set() {
        let (ds, table, cfg) = setup(5);
        let comm1 = CommStats::new();
        let out1 = run_overlap_2d(&ds.reads, &table, &cfg, ProcessGrid::square(1), &comm1);
        let comm4 = CommStats::new();
        let out4 = run_overlap_2d(&ds.reads, &table, &cfg, ProcessGrid::square(4), &comm4);
        let comm9 = CommStats::new();
        let out9 = run_overlap_2d(&ds.reads, &table, &cfg, ProcessGrid::square(9), &comm9);
        assert_eq!(out1.overlaps.to_local_csr(), out4.overlaps.to_local_csr());
        assert_eq!(out1.overlaps.to_local_csr(), out9.overlaps.to_local_csr());
        assert_eq!(out1.stats, out4.stats);
        // Larger grids communicate, a single rank does not.
        assert_eq!(comm1.words(CommPhase::OverlapDetection), 0);
        assert!(comm4.words(CommPhase::OverlapDetection) > 0);
        assert_eq!(comm1.words(CommPhase::ReadExchange), 0);
        assert!(comm4.words(CommPhase::ReadExchange) > 0);
    }

    #[test]
    fn stats_are_internally_consistent() {
        let (ds, table, cfg) = setup(6);
        let comm = CommStats::new();
        let out = run_overlap_2d(&ds.reads, &table, &cfg, ProcessGrid::square(4), &comm);
        let s = out.stats;
        assert_eq!(
            s.aligned_pairs,
            s.dovetail + s.contained + s.internal + s.below_threshold,
            "every aligned pair must be classified exactly once"
        );
        let eligible = out
            .candidates
            .to_triples()
            .iter()
            .filter(|&(i, j, c)| i < j && c.count >= cfg.min_shared_kmers)
            .count();
        assert_eq!(
            s.aligned_pairs + s.skipped_pairs,
            eligible,
            "every pair passing the shared-k-mer filter is aligned or skipped"
        );
        assert!(s.candidate_pairs >= eligible);
        assert!((s.r_density - out.overlaps.nnz() as f64 / ds.reads.len() as f64).abs() < 1e-9);
        // Every surviving overlap contributes two directed entries; dovetails
        // touching contained reads are dropped, so this is an upper bound.
        assert!(out.overlaps.nnz() <= 2 * s.dovetail);
        assert_eq!(out.overlaps.nnz() % 2, 0);
        // No edge may touch a contained read.
        if s.contained_reads > 0 {
            assert!(out.overlaps.nnz() < 2 * s.dovetail || s.dovetail == 0);
        }
    }

    #[test]
    fn symmetric_and_general_summa_are_bit_identical_on_real_occurrences() {
        let (ds, table, cfg) = setup(8);
        for p in [1usize, 4, 9, 16] {
            let grid = ProcessGrid::square(p);
            let a = build_a_matrix(&ds.reads, &table, cfg.k, grid, p);
            let comm_sym = CommStats::new();
            let sym = detect_candidates_2d_with(&a, &comm_sym, true);
            let comm_gen = CommStats::new();
            let general = detect_candidates_2d_with(&a, &comm_gen, false);
            assert_eq!(sym, general, "P={p}: candidate matrices must be bit-identical");
            // The symmetric path does about half the multiply work.
            let key = dibella_sparse::summa::flops_key(CommPhase::OverlapDetection);
            let (sf, gf) = (comm_sym.extra(&key), comm_gen.extra(&key));
            assert!(sf > 0 && sf < gf, "P={p}: sym flops {sf} vs general {gf}");
            assert!(2 * sf >= gf, "P={p}: upper triangle covers every product");
        }
    }

    #[test]
    fn symmetric_summa_records_the_cross_diagonal_exchange() {
        let (ds, table, cfg) = setup(9);
        let grid = ProcessGrid::square(9);
        let a = build_a_matrix(&ds.reads, &table, cfg.k, grid, 9);
        let comm = CommStats::new();
        let _ = detect_candidates_2d_with(&a, &comm, true);
        let msgs = comm
            .extra(&dibella_dist::collectives::p2p_messages_key(CommPhase::OverlapDetection));
        assert!(msgs > 0, "cross-diagonal exchange must be accounted");
        assert!(msgs <= (9 - 3) / 2, "at most (P − √P)/2 block sends");
        // The general path records no point-to-point traffic at all.
        let comm_gen = CommStats::new();
        let _ = detect_candidates_2d_with(&a, &comm_gen, false);
        assert_eq!(
            comm_gen
                .extra(&dibella_dist::collectives::p2p_messages_key(CommPhase::OverlapDetection)),
            0
        );
    }

    #[test]
    fn overlap_pipeline_output_is_independent_of_the_summa_kernel() {
        let (ds, table, cfg) = setup(10);
        let general_cfg = OverlapConfig { use_symmetric_summa: false, ..cfg };
        let comm_sym = CommStats::new();
        let sym = run_overlap_2d(&ds.reads, &table, &cfg, ProcessGrid::square(4), &comm_sym);
        let comm_gen = CommStats::new();
        let gen =
            run_overlap_2d(&ds.reads, &table, &general_cfg, ProcessGrid::square(4), &comm_gen);
        assert_eq!(sym.overlaps.to_local_csr(), gen.overlaps.to_local_csr());
        assert_eq!(sym.stats, gen.stats);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]
        #[test]
        fn prop_symmetric_summa_matches_general_over_the_overlap_semiring(
            coords in proptest::collection::btree_set((0usize..24, 0usize..20), 1..120),
            grid_side in 1usize..5,
        ) {
            use dibella_sparse::Triples;
            // Random occurrence matrix: position and strand vary per entry.
            let entries: Vec<(usize, usize, KmerOccurrence)> = coords
                .into_iter()
                .enumerate()
                .map(|(i, (r, c))| {
                    (r, c, KmerOccurrence { pos: (i * 13 % 251) as u32, forward: i % 3 != 0 })
                })
                .collect();
            let t = Triples::from_entries(24, 20, entries);
            let grid = ProcessGrid::square(grid_side * grid_side);
            let a = DistMat2D::from_triples(grid, &t);
            let sym = detect_candidates_2d_with(&a, &CommStats::new(), true);
            let general = detect_candidates_2d_with(&a, &CommStats::new(), false);
            proptest::prop_assert_eq!(sym, general);
        }
    }

    #[test]
    fn alignment_is_bit_identical_across_thread_counts_and_engines() {
        let (ds, table, cfg) = setup(11);
        let grid = ProcessGrid::square(4);
        let a = build_a_matrix(&ds.reads, &table, cfg.k, grid, 4);
        let candidates = detect_candidates_2d(&a, &CommStats::new());

        let reference = rayon::pool::with_thread_limit(1, || {
            align_candidates_exec(&ds.reads, &candidates, &cfg, ExtendEngine::Scalar)
        });
        assert!(reference.2.aligned_cells > 0);
        assert!(reference.2.extend_calls > 0);
        for threads in [1usize, 2, 4] {
            for engine in [ExtendEngine::Auto, ExtendEngine::Scalar] {
                let (overlaps, stats, exec) = rayon::pool::with_thread_limit(threads, || {
                    align_candidates_exec(&ds.reads, &candidates, &cfg, engine)
                });
                assert_eq!(
                    overlaps.to_local_csr(),
                    reference.0.to_local_csr(),
                    "threads={threads} engine={engine:?}: overlap matrix must be bit-identical"
                );
                assert_eq!(stats, reference.1, "threads={threads} engine={engine:?}");
                // Cell/band/termination accounting is engine- and
                // thread-count-deterministic (rc_orientations is not).
                assert_eq!(exec.aligned_cells, reference.2.aligned_cells);
                assert_eq!(exec.band_width_peak, reference.2.band_width_peak);
                assert_eq!(exec.xdrop_terminations, reference.2.xdrop_terminations);
                assert_eq!(exec.extend_calls, reference.2.extend_calls);
                match engine {
                    ExtendEngine::Auto => {
                        assert_eq!(exec.simd_calls, reference.2.extend_calls);
                        assert_eq!(exec.scalar_calls, 0);
                    }
                    ExtendEngine::Scalar => {
                        assert_eq!(exec.simd_calls, 0);
                        assert_eq!(exec.scalar_calls, reference.2.extend_calls);
                    }
                }
            }
        }
    }

    #[test]
    fn reverse_orientation_cost_is_per_pair_not_per_seed() {
        // One reverse-strand pair carrying MAX_SEEDS seeds: the oriented-read
        // cache must materialise exactly one reverse complement however many
        // seeds the pair stores (the pre-batching path recomputed it per seed).
        use crate::types::SeedList;
        use dibella_seq::DnaSeq;
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u8 % 4
        };
        let genome: Vec<u8> = (0..400).map(|_| next()).collect();
        let v = DnaSeq::from_codes(genome[..300].to_vec());
        let h = DnaSeq::from_codes(genome[100..400].to_vec()).reverse_complement();
        let reads = ReadSet::from_records(vec![
            dibella_seq::ReadRecord { name: "v".into(), seq: v.clone() },
            dibella_seq::ReadRecord { name: "h".into(), seq: h.clone() },
        ]);
        let k = 13;
        let cfg = OverlapConfig::for_tests(k);

        // Two distinct seeds of the same reverse-strand pair.  pos_h is on
        // h's stored strand: h_oriented[seed_h..] with
        // seed_h = h.len() - k - pos_h must equal v[pos_v..pos_v+k], and
        // h_oriented = rc(h) = genome[100..400].
        let seed_at = |pos_v: u32| SharedSeed {
            pos_v,
            pos_h: (h.len() - k) as u32 - (pos_v - 100),
            same_strand: false,
        };
        let mut seeds = SeedList::default();
        seeds.push(seed_at(150));
        seeds.push(seed_at(220));
        assert_eq!(seeds.len(), crate::types::MAX_SEEDS);
        let common = CommonKmers { count: 2, seeds };
        let t = Triples::from_entries(2, 2, vec![(0usize, 1usize, common)]);
        let candidates = DistMat2D::from_triples(ProcessGrid::square(1), &t);

        let (_, stats, exec) = rayon::pool::with_thread_limit(1, || {
            align_candidates_exec(&reads, &candidates, &cfg, ExtendEngine::Auto)
        });
        assert_eq!(stats.aligned_pairs, 1);
        assert_eq!(exec.extend_calls, 4, "two seeds, each with left+right extension");
        assert_eq!(
            exec.rc_orientations, 1,
            "one reverse pair: exactly one reverse complement regardless of seed count"
        );
    }

    #[test]
    fn comm_extras_carry_alignment_counters() {
        let (ds, table, cfg) = setup(12);
        let comm = CommStats::new();
        let out = run_overlap_2d(&ds.reads, &table, &cfg, ProcessGrid::square(4), &comm);
        assert!(out.stats.aligned_pairs > 0);
        assert!(comm.extra(ALIGNED_CELLS_KEY) > 0);
        assert!(comm.extra(BAND_WIDTH_PEAK_KEY) > 0);
        // The counters agree with a direct exec run on the same candidates.
        let (_, _, exec) = align_candidates_exec(&ds.reads, &out.candidates, &cfg, ExtendEngine::Auto);
        assert_eq!(comm.extra(ALIGNED_CELLS_KEY), exec.aligned_cells);
        assert_eq!(comm.extra(BAND_WIDTH_PEAK_KEY), exec.band_width_peak);
        assert_eq!(comm.extra(XDROP_TERMINATIONS_KEY), exec.xdrop_terminations);
    }

    /// All-pairs oracle: every eligible pair aligned seed by seed with
    /// `align_seed_pair_with` (first-best seed), classified and pruned the
    /// way the stage did before the containment-first schedule.  Returns `R`
    /// and the contained-read set.
    fn all_pairs_oracle(
        reads: &ReadSet,
        candidates: &DistMat2D<CommonKmers>,
        config: &OverlapConfig,
    ) -> (CsrMatrix<OverlapEdge>, Vec<bool>) {
        let n = reads.len();
        let mut scratch = AlignScratch::new();
        let mut contained = vec![false; n];
        let mut dovetails = Vec::new();
        for (i, j, common) in candidates.to_triples().iter() {
            if i >= j || common.count < config.min_shared_kmers {
                continue;
            }
            let (v, h) = (reads.seq(i), reads.seq(j));
            let mut best: Option<PairAlignment> = None;
            for seed in common.seeds.iter() {
                let (h_oriented, strand, seed_h) = if seed.same_strand {
                    (h.clone(), Strand::Forward, seed.pos_h as usize)
                } else {
                    let seed_h = h.len() - config.k - seed.pos_h as usize;
                    (h.reverse_complement(), Strand::Reverse, seed_h)
                };
                let aln = align_seed_pair_with(
                    v.codes(),
                    h_oriented.codes(),
                    seed.pos_v as usize,
                    seed_h,
                    config.k,
                    strand,
                    &config.alignment,
                    ExtendEngine::Scalar,
                    &mut scratch,
                );
                if best.is_none_or(|b| aln.score > b.score) {
                    best = Some(aln);
                }
            }
            let aln = best.expect("candidate seeds lie inside both reads");
            let len = aln.aligned_len();
            if len < config.alignment.min_overlap
                || aln.score < config.alignment.score_threshold(len)
            {
                continue;
            }
            match classify_alignment(&aln, v.len(), h.len(), &config.alignment) {
                OverlapClass::Dovetail { dir_vh, dir_hv, suffix_vh, suffix_hv } => {
                    let edge = |dir: BidirectedDir, suffix: usize| OverlapEdge {
                        dir: dir.bits(),
                        suffix: suffix as u32,
                        score: aln.score,
                        overlap_len: len as u32,
                    };
                    dovetails.push((i, j, edge(dir_vh, suffix_vh)));
                    dovetails.push((j, i, edge(dir_hv, suffix_hv)));
                }
                OverlapClass::Contains => contained[j] = true,
                OverlapClass::ContainedBy => contained[i] = true,
                OverlapClass::Internal => {}
            }
        }
        dovetails.retain(|&(i, j, _)| !contained[i] && !contained[j]);
        (CsrMatrix::from_triples(&Triples::from_entries(n, n, dovetails)), contained)
    }

    /// Candidates of `reads` on a `ranks`-rank grid, with the k-mer table and
    /// configuration `setup` uses.
    fn candidates_of(reads: &ReadSet, ranks: usize) -> (DistMat2D<CommonKmers>, OverlapConfig) {
        let cfg = OverlapConfig::for_tests(13);
        let sel = KmerSelection { k: cfg.k, min_count: 2, max_count: 60 };
        let table = count_kmers_serial(reads, &sel);
        let a = build_a_matrix(reads, &table, cfg.k, ProcessGrid::square(ranks), ranks);
        (detect_candidates_2d(&a, &CommStats::new()), cfg)
    }

    /// Assert that the schedule reproduces the oracle's `R` and contained
    /// set; returns the schedule's stats.
    fn assert_schedule_matches_oracle(
        reads: &ReadSet,
        candidates: &DistMat2D<CommonKmers>,
        cfg: &OverlapConfig,
        what: &str,
    ) -> OverlapStats {
        let (want_r, want_contained) = all_pairs_oracle(reads, candidates, cfg);
        let (r, stats, _, contained) = align_and_prune(reads, candidates, cfg, ExtendEngine::Auto);
        assert_eq!(r.to_local_csr(), want_r, "{what}: R differs from the all-pairs oracle");
        assert_eq!(contained, want_contained, "{what}: contained set differs from the oracle");
        assert_eq!(stats.contained_reads, want_contained.iter().filter(|&&c| c).count());
        stats
    }

    #[test]
    fn schedule_matches_the_all_pairs_oracle_on_tiny() {
        for seed in [1u64, 2, 3, 13] {
            let ds = DatasetSpec::Tiny.generate(seed);
            let (candidates, cfg) = candidates_of(&ds.reads, 4);
            let what = format!("seed {seed}");
            let stats = assert_schedule_matches_oracle(&ds.reads, &candidates, &cfg, &what);
            assert!(stats.skipped_pairs > 0, "seed {seed}: the schedule must skip some pairs");
        }
    }

    #[test]
    fn schedule_matches_the_all_pairs_oracle_on_every_scenario() {
        for kind in ScenarioKind::ALL {
            let params = ScenarioParams {
                genome_length: 4_000,
                depth: 8.0,
                mean_read_length: 400,
                ..ScenarioParams::default()
            };
            let ds = build_scenario(kind, &params);
            let (candidates, cfg) = candidates_of(&ds.reads, 4);
            assert_schedule_matches_oracle(&ds.reads, &candidates, &cfg, kind.label());
        }
    }

    #[test]
    fn schedule_matches_the_all_pairs_oracle_across_ranks_and_threads() {
        let ds = DatasetSpec::Tiny.generate(21);
        for ranks in [1usize, 4, 16] {
            let (candidates, cfg) = candidates_of(&ds.reads, ranks);
            for threads in [1usize, 2, 4] {
                rayon::pool::with_thread_limit(threads, || {
                    let what = format!("ranks={ranks} threads={threads}");
                    assert_schedule_matches_oracle(&ds.reads, &candidates, &cfg, &what)
                });
            }
        }
    }

    #[test]
    fn read_exchange_words_grow_with_grid_and_stay_zero_on_one_rank() {
        let (ds, _, _) = setup(7);
        let one = CommStats::new();
        account_read_exchange_2d(&ds.reads, ProcessGrid::square(1), &one);
        assert_eq!(one.words(CommPhase::ReadExchange), 0);
        let four = CommStats::new();
        account_read_exchange_2d(&ds.reads, ProcessGrid::square(4), &four);
        let nine = CommStats::new();
        account_read_exchange_2d(&ds.reads, ProcessGrid::square(9), &nine);
        assert!(four.words(CommPhase::ReadExchange) > 0);
        // Aggregate exchanged volume grows with the grid (per-rank volume shrinks).
        assert!(nine.words(CommPhase::ReadExchange) > four.words(CommPhase::ReadExchange));
        assert!(
            nine.snapshot().phase(CommPhase::ReadExchange).max_words_per_rank
                < four.snapshot().phase(CommPhase::ReadExchange).max_words_per_rank
        );
    }
}

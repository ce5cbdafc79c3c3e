//! Criterion micro-benchmarks for the x-drop seed-and-extend aligner, plus
//! the engine-regression comparison that writes `BENCH_align.json`.
//!
//! The JSON artifact pits the batched alignment path (`align_pairs_exec`,
//! the phase runner of `align_candidates_exec`: flat (pair, seed) work
//! queue, per-worker scratch, lane-packed vector kernel at the widest width
//! the CPU runs — AVX2, SSE2 or u64 SWAR — under `ExtendEngine::Auto`,
//! recorded as `vector_kernel`) against a faithful
//! reconstruction of the **pre-batching** stage — a per-pair loop that
//! clones / reverse complements `h` for *every* seed and extends with the
//! preserved `xdrop_extend_baseline` (per-row `Vec` churn) — on the
//! `DatasetSpec::Small` overlap workload.  To keep the bench inside a CI
//! budget the candidate set is subsampled (every `PAIR_STRIDE`-th
//! upper-triangle pair, recorded honestly in the JSON); every path aligns
//! the **same** subsampled pairs — the containment-first schedule of the
//! full stage, which skips pairs, is left out — so the speedups compare
//! kernels and queues, not scheduling.  It records wall-clock,
//! aligned-cells/sec for each path and the batched/baseline speedup.  CI
//! runs this bench at every push to maintain the perf trajectory
//! (`DIBELLA_BENCH_OUT` overrides the path).

// The bench crate is the sanctioned home of wall-clock reads (see
// clippy.toml); opt back in to Instant::now here.
#![allow(clippy::disallowed_methods)]

use criterion::{criterion_group, BenchmarkId, Criterion};
use dibella_align::{
    align_seed_pair, xdrop_extend, xdrop_extend_auto, xdrop_extend_baseline, AlignScratch,
    AlignmentConfig, ExtendEngine, PairAlignment, ScoringScheme,
};
use dibella_dist::{CommStats, ProcessGrid};
use dibella_overlap::{
    align_pairs_exec, build_a_matrix, detect_candidates_2d, CommonKmers, OverlapConfig,
};
use dibella_seq::simulate::apply_errors;
use dibella_seq::{count_kmers_serial, DatasetSpec, DnaSeq, KmerSelection, ReadSet, Strand};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::time::{Duration, Instant};

fn overlapping_pair(len: usize, overlap: usize, error: f64, seed: u64) -> (DnaSeq, DnaSeq) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let genome =
        DnaSeq::from_codes((0..2 * len - overlap).map(|_| rng.gen_range(0..4u8)).collect());
    let v = apply_errors(&genome.slice(0, len), error, &mut rng);
    let h = apply_errors(&genome.slice(len - overlap, 2 * len - overlap), error, &mut rng);
    (v, h)
}

fn bench_alignment(c: &mut Criterion) {
    let mut group = c.benchmark_group("alignment");
    group.sample_size(20);

    for &(len, error) in &[(2_000usize, 0.0f64), (2_000, 0.15), (8_000, 0.15)] {
        let (v, h) = overlapping_pair(len, len / 2, error, 11);
        let cfg = AlignmentConfig::for_error_rate(error.max(0.01));
        // Locate an exact shared 17-mer once, outside the measured loop.
        let h_ascii = h.to_ascii();
        let mut seed = None;
        for start in (len - len / 4..len - 20).step_by(3) {
            let window = v.slice(start, start + 17).to_ascii();
            if let Some(pos) = h_ascii.find(&window) {
                seed = Some((start, pos));
                break;
            }
        }
        let Some((sv, sh)) = seed else { continue };
        let id = format!("len{len}_err{error}");
        group.bench_with_input(BenchmarkId::new("align_seed_pair", id), &len, |bencher, _| {
            bencher.iter(|| align_seed_pair(&v, &h, sv, sh, 17, Strand::Forward, &cfg));
        });
    }

    // Raw extension throughput on identical sequences (upper bound), for the
    // scalar oracle, the preserved pre-refactor baseline and the vector
    // kernel (the widest width the CPU runs).
    let mut rng = SmallRng::seed_from_u64(5);
    let s = DnaSeq::from_codes((0..10_000).map(|_| rng.gen_range(0..4u8)).collect());
    group.bench_function("xdrop_extend_identical_10k", |bencher| {
        bencher.iter(|| xdrop_extend(s.codes(), s.codes(), ScoringScheme::default(), 49))
    });
    group.bench_function("xdrop_extend_baseline_identical_10k", |bencher| {
        bencher.iter(|| xdrop_extend_baseline(s.codes(), s.codes(), ScoringScheme::default(), 49))
    });
    let mut scratch = AlignScratch::new();
    group.bench_function("xdrop_extend_simd_identical_10k", |bencher| {
        bencher.iter(|| {
            xdrop_extend_auto(
                s.codes(),
                s.codes(),
                ScoringScheme::default(),
                49,
                ExtendEngine::Auto,
                &mut scratch,
            )
        })
    });
    group.finish();
}

/// Mean wall-clock seconds of `f`: one warm-up call, then samples until the
/// time budget and at least `min_samples` calls are spent.
fn measure<T>(budget: Duration, min_samples: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let mut samples = Vec::new();
    let started = Instant::now();
    while started.elapsed() < budget || samples.len() < min_samples {
        let t0 = Instant::now();
        std::hint::black_box(f());
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// A faithful reconstruction of the **pre-batching** seed-pair alignment
/// (what `align_seed_pair` executed before the scratch refactor): fresh
/// reversed-prefix `Vec`s per call and the preserved mid-row-update
/// `xdrop_extend_baseline` with its per-row `Vec` churn.
fn baseline_align_seed_pair(
    v: &DnaSeq,
    h_oriented: &DnaSeq,
    seed_v: usize,
    seed_h: usize,
    k: usize,
    strand: Strand,
    config: &AlignmentConfig,
) -> PairAlignment {
    let scoring = config.scoring;
    let right = xdrop_extend_baseline(
        &v.codes()[seed_v + k..],
        &h_oriented.codes()[seed_h + k..],
        scoring,
        config.xdrop,
    );
    let v_prefix: Vec<u8> = v.codes()[..seed_v].iter().rev().copied().collect();
    let h_prefix: Vec<u8> = h_oriented.codes()[..seed_h].iter().rev().copied().collect();
    let left = xdrop_extend_baseline(&v_prefix, &h_prefix, scoring, config.xdrop);
    let score = left.score + right.score + (k as i32) * scoring.match_score;
    PairAlignment {
        score,
        beg_v: seed_v - left.ext_a,
        end_v: seed_v + k + right.ext_a,
        beg_h: seed_h - left.ext_b,
        end_h: seed_h + k + right.ext_b,
        strand,
    }
}

/// A faithful reconstruction of the **pre-batching** alignment stage (what
/// `align_candidates` executed before the flat work queue): one parallel task
/// per candidate pair, `h` cloned or reverse-complemented anew for *every*
/// seed, best-scoring alignment kept per pair.
fn baseline_align_candidates(
    reads: &ReadSet,
    pairs: &[(usize, usize, CommonKmers)],
    config: &OverlapConfig,
) -> Vec<Option<PairAlignment>> {
    pairs
        .par_iter()
        .map(|&(i, j, common)| {
            let v = reads.seq(i);
            let h = reads.seq(j);
            let mut best: Option<PairAlignment> = None;
            for seed in &common.seeds {
                let (h_oriented, strand, seed_h) = if seed.same_strand {
                    (h.clone(), Strand::Forward, seed.pos_h as usize)
                } else {
                    (
                        h.reverse_complement(),
                        Strand::Reverse,
                        h.len() - config.k - seed.pos_h as usize,
                    )
                };
                if seed.pos_v as usize + config.k > v.len()
                    || seed_h + config.k > h_oriented.len()
                {
                    continue;
                }
                let aln = baseline_align_seed_pair(
                    v,
                    &h_oriented,
                    seed.pos_v as usize,
                    seed_h,
                    config.k,
                    strand,
                    &config.alignment,
                );
                if best.as_ref().is_none_or(|b| aln.score > b.score) {
                    best = Some(aln);
                }
            }
            best
        })
        .collect()
}

/// Every `PAIR_STRIDE`-th upper-triangle candidate pair enters the timed
/// subsample.  Stride 1 would time the full Small workload (~10 Gcells):
/// fine interactively, far past a CI budget.
const PAIR_STRIDE: usize = 32;

/// The engine-regression comparison recorded as `BENCH_align.json`.
fn baseline_comparison() {
    let budget = Duration::from_millis(600);
    // The lane width `ExtendEngine::Auto` selects on this CPU.
    let kernel = AlignScratch::new().vector_kernel();

    // The real workload: the candidate pairs of the Small benchmark dataset
    // (the same candidates the pipeline's alignment stage receives),
    // subsampled by PAIR_STRIDE to fit the CI budget.
    let ds = dibella_bench::benchmark_dataset(DatasetSpec::Small, 77);
    let k = 17;
    let sel = KmerSelection { k, min_count: 2, max_count: 120 };
    let table = count_kmers_serial(&ds.reads, &sel);
    let a = build_a_matrix(&ds.reads, &table, k, ProcessGrid::square(1), 1);
    let stats = CommStats::new();
    let all_candidates = detect_candidates_2d(&a, &stats);
    let config = OverlapConfig {
        k,
        alignment: AlignmentConfig::for_error_rate(ds.config.error_rate),
        ..OverlapConfig::default()
    };
    let upper: Vec<(usize, usize, CommonKmers)> =
        all_candidates.to_triples().into_entries().into_iter().filter(|(i, j, _)| i < j).collect();
    let total_pairs = upper.len();
    let sampled: Vec<(usize, usize, CommonKmers)> =
        upper.into_iter().step_by(PAIR_STRIDE).collect();
    let sampled_pairs = sampled.len();
    // The pairs the alignment stage is eligible to align (shared-k-mer
    // filter applied); every path below aligns exactly these.
    let pairs: Vec<(usize, usize, CommonKmers)> =
        sampled.into_iter().filter(|(_, _, c)| c.count >= config.min_shared_kmers).collect();

    // Pre-batching path: per-pair tasks, per-seed clone / reverse complement,
    // per-row-allocating baseline kernel.
    let baseline_secs =
        measure(budget, 3, || baseline_align_candidates(&ds.reads, &pairs, &config));
    // Batched path, scalar oracle: flat (pair, seed) queue + per-worker
    // scratch, but the same scalar DP inner loop.
    let scalar_secs =
        measure(budget, 3, || align_pairs_exec(&ds.reads, &pairs, &config, ExtendEngine::Scalar));
    // Batched path, vector kernel.
    let batched_secs =
        measure(budget, 3, || align_pairs_exec(&ds.reads, &pairs, &config, ExtendEngine::Auto));

    // One counted run for the cell tallies (engine- and thread-deterministic;
    // all engines walk identical bands, so one cell count rates all paths).
    let (alignments, exec) = align_pairs_exec(&ds.reads, &pairs, &config, ExtendEngine::Auto);
    let aligned_pairs = alignments.iter().filter(|a| a.is_some()).count();
    let cells = exec.aligned_cells;
    let rate = |secs: f64| if secs > 0.0 { cells as f64 / secs / 1e6 } else { 0.0 };
    let baseline_rate = rate(baseline_secs);
    let scalar_rate = rate(scalar_secs);
    let batched_rate = rate(batched_secs);
    let speedup = baseline_secs / batched_secs;
    let scalar_speedup = baseline_secs / scalar_secs;

    println!(
        "\nalignment engine regression (DatasetSpec::Small, every {PAIR_STRIDE}th of \
         {total_pairs} candidate pairs)"
    );
    println!(
        "  reads={} sampled_pairs={} aligned_pairs={} extensions={} ({} {kernel} / {} scalar)",
        ds.reads.len(),
        sampled_pairs,
        aligned_pairs,
        exec.extend_calls,
        exec.simd_calls,
        exec.scalar_calls
    );
    println!(
        "  DP cells: {cells}; peak band width {}; x-drop early stops {}",
        exec.band_width_peak, exec.xdrop_terminations
    );
    println!(
        "  pre-batching baseline:   {:>10.3} ms  ({baseline_rate:.1} Mcells/s)  (per-seed clone/rc + per-row Vec churn)",
        baseline_secs * 1e3
    );
    println!(
        "  batched, scalar oracle:  {:>10.3} ms  ({scalar_rate:.1} Mcells/s, {scalar_speedup:.2}x)",
        scalar_secs * 1e3
    );
    println!(
        "  batched, {kernel} (Auto):     {:>10.3} ms  ({batched_rate:.1} Mcells/s, {speedup:.2}x)",
        batched_secs * 1e3
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"alignment\",\n",
            "  \"dataset\": \"{dataset}\",\n",
            "  \"threads\": {threads},\n",
            "  \"vector_kernel\": \"{kernel}\",\n",
            "  \"reads\": {reads},\n",
            "  \"total_candidate_pairs\": {total},\n",
            "  \"pair_stride\": {stride},\n",
            "  \"sampled_pairs\": {pairs},\n",
            "  \"aligned_pairs\": {aligned},\n",
            "  \"extend_calls\": {calls},\n",
            "  \"simd_calls\": {simd},\n",
            "  \"scalar_calls\": {scalar},\n",
            "  \"aligned_cells\": {cells},\n",
            "  \"band_width_peak\": {band},\n",
            "  \"xdrop_terminations\": {stops},\n",
            "  \"baseline_secs\": {base:.6},\n",
            "  \"batched_scalar_secs\": {scal:.6},\n",
            "  \"batched_simd_secs\": {simdsecs:.6},\n",
            "  \"baseline_mcells_per_sec\": {baserate:.2},\n",
            "  \"batched_scalar_mcells_per_sec\": {scalrate:.2},\n",
            "  \"batched_simd_mcells_per_sec\": {simdrate:.2},\n",
            "  \"batched_scalar_speedup\": {scalspeed:.3},\n",
            "  \"batched_simd_speedup\": {speedup:.3}\n",
            "}}\n"
        ),
        dataset = DatasetSpec::Small.label(),
        threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        kernel = kernel,
        reads = ds.reads.len(),
        total = total_pairs,
        stride = PAIR_STRIDE,
        pairs = sampled_pairs,
        aligned = aligned_pairs,
        calls = exec.extend_calls,
        simd = exec.simd_calls,
        scalar = exec.scalar_calls,
        cells = cells,
        band = exec.band_width_peak,
        stops = exec.xdrop_terminations,
        base = baseline_secs,
        scal = scalar_secs,
        simdsecs = batched_secs,
        baserate = baseline_rate,
        scalrate = scalar_rate,
        simdrate = batched_rate,
        scalspeed = scalar_speedup,
        speedup = speedup,
    );
    // Default to the workspace root (cargo bench runs with the package dir
    // as cwd); DIBELLA_BENCH_OUT overrides.
    let out_path = std::env::var("DIBELLA_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_align.json").to_string()
    });
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("  wrote {out_path}"),
        Err(e) => eprintln!("  could not write {out_path}: {e}"),
    }
}

criterion_group!(benches, bench_alignment);

fn main() {
    benches();
    baseline_comparison();
}

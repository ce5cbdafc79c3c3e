//! The traced run: the pipeline's layers called one by one, each inside a
//! span, in the order `run_dibella_2d` calls them.
//!
//! The calls and their arguments mirror the pipeline's own stage sequence,
//! so the traced run produces the same `S` and consensus as the untraced
//! one; the benchmark checks that through the output digest.  Counts come
//! from the `CommStats` snapshot and the layers' returned outputs.

use crate::trace::{Trace, Tracer};
use crate::{output_digest, Metric, Quality};
use dibella_dist::extras::{flops_key, ALIGNED_CELLS_KEY};
use dibella_dist::{par_ranks, with_threads, CommPhase, CommSnapshot, CommStats, ProcessGrid};
use dibella_overlap::{
    account_read_exchange_2d, align_candidates_with, build_a_matrix, detect_candidates_2d_with,
    OverlapStats,
};
use dibella_pipeline::{CandidateSource, PipelineConfig};
use dibella_seq::{count_kmers_distributed, parse_fasta};
use dibella_sketch::build_sketch_matrix;
use dibella_strgraph::{consensus_contig, extract_contigs, transitive_reduction};
use dibella_testutil::PeakAlloc;

/// The consensus stage span (its children are one span per contig).
pub const CONSENSUS: &str = "consensus";

/// Every per-layer metric the traced run reports: name, unit and the
/// direction that counts as better.  `BENCHMARK.json` lists the same set.
pub const LAYER_METRICS: [(&str, &str, &str); 44] = [
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unaccounted_frac", "ratio", "lower"),
    ("seq.parse_s", "s", "lower"),
    ("seq.parse_mb_per_s", "MB/s", "higher"),
    ("index.s", "s", "lower"),
    ("index.mitems_per_s", "M/s", "higher"),
    ("index.columns", "count", "lower"),
    ("index.comm_mwords", "Mwords", "lower"),
    ("overlap.a_nnz", "count", "lower"),
    ("overlap.spgemm_s", "s", "lower"),
    ("overlap.spgemm_flops", "count", "lower"),
    ("overlap.spgemm_mflop_per_s", "Mflop/s", "higher"),
    ("overlap.candidate_pairs", "count", "lower"),
    ("overlap.spgemm_comm_mwords", "Mwords", "lower"),
    ("align.s", "s", "lower"),
    ("align.cells", "count", "lower"),
    ("align.gcells_per_s", "Gcells/s", "higher"),
    ("align.pairs_aligned", "count", "lower"),
    ("align.useful_frac", "ratio", "higher"),
    ("align.contained_frac", "ratio", "lower"),
    ("tr.s", "s", "lower"),
    ("tr.iterations", "count", "lower"),
    ("tr.removed_edges", "count", "lower"),
    ("tr.comm_mwords", "Mwords", "lower"),
    ("layout.s", "s", "lower"),
    ("layout.contigs", "count", "lower"),
    ("consensus.s", "s", "lower"),
    ("consensus.poa_nodes", "count", "lower"),
    ("consensus.aligned_bases", "count", "lower"),
    ("consensus.mbases_per_s", "Mbases/s", "higher"),
    ("consensus.busy_s", "s", "lower"),
    ("consensus.max_contig_s", "s", "lower"),
    ("consensus.idle_frac", "ratio", "lower"),
    ("quality.misjoins", "count", "lower"),
    ("seq.parse.peak_heap_mib", "MiB", "lower"),
    ("index.peak_heap_mib", "MiB", "lower"),
    ("overlap.exchange.peak_heap_mib", "MiB", "lower"),
    ("overlap.spgemm.peak_heap_mib", "MiB", "lower"),
    ("align.peak_heap_mib", "MiB", "lower"),
    ("tr.peak_heap_mib", "MiB", "lower"),
    ("layout.peak_heap_mib", "MiB", "lower"),
    ("consensus.peak_heap_mib", "MiB", "lower"),
    ("assembly.peak_heap_mib", "MiB", "lower"),
    ("assembly.threads", "count", "higher"),
];

/// Everything the traced run measured.
pub struct TracedRun {
    /// The spans.
    pub trace: Trace,
    /// [`output_digest`] of the run's `S` and consensus.
    pub digest: u64,
    /// The communication counters at the end of the run.
    pub comm: CommSnapshot,
    /// Alignment-stage counters.
    pub overlap_stats: OverlapStats,
    /// Worker threads the run used.
    pub threads: usize,
    /// FASTA bytes parsed.
    pub fasta_bytes: usize,
    /// Items the index stage scanned: k-mer instances on the exact path,
    /// sketch-space k-mer windows on the k-min-mer path.
    pub index_items: u64,
    /// Columns of `A`.
    pub a_columns: usize,
    /// Nonzeros of `A`.
    pub a_nnz: usize,
    /// Reduction rounds of the transitive reduction.
    pub tr_iterations: usize,
    /// Edges the transitive reduction removed.
    pub tr_removed_edges: usize,
    /// Contig layouts extracted from `S`.
    pub contigs: Vec<dibella_strgraph::Contig>,
    /// One consensus per contig.
    pub consensus: Vec<dibella_strgraph::ContigConsensus>,
}

/// Assemble `fasta` under `config` on `threads` workers, with every layer
/// call in its own span.
pub fn assemble_traced(
    fasta: &str,
    config: &PipelineConfig,
    threads: usize,
    run_id: u64,
    alloc: &PeakAlloc,
) -> Result<TracedRun, String> {
    with_threads(threads, || {
        traced_chain(fasta, config, threads, run_id, alloc)
    })
}

fn traced_chain(
    fasta: &str,
    config: &PipelineConfig,
    threads: usize,
    run_id: u64,
    alloc: &PeakAlloc,
) -> Result<TracedRun, String> {
    let comm = CommStats::new();
    let grid = ProcessGrid::square_at_most(config.nprocs);
    let mut t = Tracer::new(run_id, alloc);
    let root = t.begin("assembly");

    let reads = t.span("seq.parse", || parse_fasta(fasta))?;

    // `index` picks the columns of `A` and builds it: k-mer counting then
    // `build_a_matrix` on the exact path, `build_sketch_matrix` on the
    // k-min-mer path.
    let index = t.begin("index");
    let (a, index_items) = match config.candidate_source {
        CandidateSource::ExactKmer => {
            let table = t.span("seq.count_kmers", || {
                count_kmers_distributed(&reads, &config.kmer, grid.nprocs(), &comm)
            });
            let a = t.span("overlap.build_a", || {
                build_a_matrix(&reads, &table, config.overlap.k, grid, grid.nprocs())
            });
            let k = config.kmer.k;
            let instances = reads
                .lengths()
                .iter()
                .map(|&l| l.saturating_sub(k - 1) as u64)
                .sum();
            (a, instances)
        }
        CandidateSource::KMinMer => {
            let (a, stats) = t.span("sketch.build", || {
                build_sketch_matrix(&reads, &config.sketch, grid, grid.nprocs(), &comm)
            });
            (a, stats.total_kmers)
        }
    };
    t.end(index);

    t.span("overlap.exchange", || {
        account_read_exchange_2d(&reads, grid, &comm)
    });
    let candidates = t.span("overlap.spgemm", || {
        detect_candidates_2d_with(&a, &comm, config.overlap.use_symmetric_summa)
    });
    let (overlap_matrix, overlap_stats) = t.span("align", || {
        align_candidates_with(&reads, &candidates, &config.overlap, Some(&comm))
    });
    let tr = t.span("tr", || {
        transitive_reduction(&overlap_matrix, &config.transitive, &comm)
    });
    let (s_local, contigs) = t.span("layout", || {
        let s_local = tr.string_matrix.to_local_csr();
        let contigs = extract_contigs(&s_local, &reads.lengths());
        (s_local, contigs)
    });

    // One span per contig, timed inside the pool's closure: their sum is the
    // stage's busy time and the longest is its critical path.
    let consensus_span = t.begin(CONSENSUS);
    let origin = t.origin();
    let timed = par_ranks(contigs.len(), |i| {
        let start = origin.elapsed().as_secs_f64();
        let c = consensus_contig(&contigs[i], &s_local, &reads, &config.consensus);
        (c, start, origin.elapsed().as_secs_f64())
    });
    t.end(consensus_span);
    let mut consensus = Vec::with_capacity(timed.len());
    for (i, (c, start, end)) in timed.into_iter().enumerate() {
        t.record(&format!("consensus.contig{i}"), consensus_span, start, end);
        consensus.push(c);
    }
    t.end(root);

    Ok(TracedRun {
        digest: output_digest(&tr.string_matrix, &consensus),
        trace: t.finish(),
        comm: comm.snapshot(),
        overlap_stats,
        threads,
        fasta_bytes: fasta.len(),
        index_items,
        a_columns: a.ncols(),
        a_nnz: a.nnz(),
        tr_iterations: tr.iterations,
        tr_removed_edges: tr.removed_edges,
        contigs,
        consensus,
    })
}

/// The per-layer metrics of `run`, in [`LAYER_METRICS`] order.
/// `untraced_assembly_s` is the untraced median the tracing overhead is
/// measured against; `quality` scores the traced run's assembly.
pub fn layer_metrics(run: &TracedRun, untraced_assembly_s: f64, quality: &Quality) -> Vec<Metric> {
    let trace = &run.trace;
    let secs = |name: &str| trace.find(name).map_or(0.0, |s| s.duration());
    let mib = |name: &str| {
        let bytes = trace
            .find(name)
            .and_then(|s| s.peak_heap_bytes)
            .unwrap_or(0);
        bytes as f64 / (1u64 << 20) as f64
    };
    let mwords = |phase: CommPhase| run.comm.phase(phase).words as f64 / 1e6;
    let extra = |key: &str| run.comm.extras.get(key).copied().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let root = trace
        .find("assembly")
        .expect("the traced run has a root span");
    let consensus = trace
        .find(CONSENSUS)
        .expect("the traced run has a consensus span");
    let contig_secs: Vec<f64> = trace.children(consensus.id).map(|s| s.duration()).collect();
    let busy = contig_secs.iter().sum::<f64>();
    let stats = &run.overlap_stats;
    let spgemm_flops = extra(&flops_key(CommPhase::OverlapDetection));
    let cells = extra(ALIGNED_CELLS_KEY);
    let aligned_bases: u64 = run.consensus.iter().map(|c| c.aligned_bases as u64).sum();

    let values = [
        ratio(root.duration(), untraced_assembly_s) - 1.0,
        ratio(trace.self_time(root.id), root.duration()),
        secs("seq.parse"),
        ratio(run.fasta_bytes as f64 / 1e6, secs("seq.parse")),
        secs("index"),
        ratio(run.index_items as f64 / 1e6, secs("index")),
        run.a_columns as f64,
        mwords(CommPhase::KmerCounting) + mwords(CommPhase::SketchIndex),
        run.a_nnz as f64,
        secs("overlap.spgemm"),
        spgemm_flops,
        ratio(spgemm_flops / 1e6, secs("overlap.spgemm")),
        stats.candidate_pairs as f64,
        mwords(CommPhase::OverlapDetection),
        secs("align"),
        cells,
        ratio(cells / 1e9, secs("align")),
        stats.aligned_pairs as f64,
        ratio(stats.dovetail as f64, stats.aligned_pairs as f64),
        ratio(stats.contained as f64, stats.aligned_pairs as f64),
        secs("tr"),
        run.tr_iterations as f64,
        run.tr_removed_edges as f64,
        mwords(CommPhase::TransitiveReduction),
        secs("layout"),
        run.contigs.len() as f64,
        consensus.duration(),
        run.consensus.iter().map(|c| c.poa_nodes as f64).sum(),
        aligned_bases as f64,
        ratio(aligned_bases as f64 / 1e6, consensus.duration()),
        busy,
        contig_secs.iter().copied().fold(0.0, f64::max),
        1.0 - ratio(busy, run.threads as f64 * consensus.duration()),
        quality.misjoins as f64,
        mib("seq.parse"),
        mib("index"),
        mib("overlap.exchange"),
        mib("overlap.spgemm"),
        mib("align"),
        mib("tr"),
        mib("layout"),
        mib(CONSENSUS),
        mib("assembly"),
        run.threads as f64,
    ];
    LAYER_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| Metric::new(name, value, unit))
        .collect()
}

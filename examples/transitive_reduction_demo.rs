//! Transitive reduction close-up: run Algorithm 2 against Myers' sequential
//! algorithm and the SORA-style vertex-centric baseline on synthetic overlap
//! graphs of growing size, checking that they agree and comparing runtimes.
//!
//! ```bash
//! cargo run --release --example transitive_reduction_demo
//! ```

use dibella2d::prelude::*;
use dibella2d::strgraph::fixtures::{tiling_overlap_graph, to_dist};
use dibella2d::pipeline::timings::timed;

fn main() {
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>12} {:>10} {:>8}",
        "reads", "edges", "parallel(s)", "myers(s)", "sora(s)", "reduced", "agree"
    );
    for &n in &[200usize, 1_000, 4_000, 10_000] {
        let span = 8;
        let triples = tiling_overlap_graph(n, span, true);
        let local = CsrMatrix::from_triples(&triples);
        let grid = ProcessGrid::square(16);
        let dist = to_dist(&triples, grid);
        let cfg = TransitiveReductionConfig { fuzz: 60, max_iterations: 16 };

        let comm = CommStats::new();
        let (parallel, t_parallel) = timed(|| transitive_reduction(&dist, &cfg, &comm));
        let ((myers, _), t_myers) = timed(|| myers_transitive_reduction(&local, cfg.fuzz));
        let ((sora, sora_stats), t_sora) = timed(|| sora_transitive_reduction(&local, cfg.fuzz));

        let parallel_local = parallel.string_matrix.to_local_csr();
        let agree = parallel_local.pattern() == myers.pattern()
            && parallel_local.pattern() == sora.pattern();

        println!(
            "{n:>8} {:>10} {t_parallel:>12.3} {t_myers:>12.3} {t_sora:>12.3} {:>10} {:>8}",
            local.nnz(),
            local.nnz() - parallel_local.nnz(),
            if agree { "yes" } else { "NO" }
        );
        if !agree {
            eprintln!("  !! the three implementations disagree at n = {n}");
        }
        if n == 10_000 {
            println!(
                "\nat n = {n}: parallel TR ran {:.1}x faster than the SORA-style baseline \
                 ({} supersteps, {} adjacency records shuffled)",
                t_sora / t_parallel,
                sora_stats.supersteps,
                sora_stats.messages
            );
            println!(
                "communication recorded for the parallel run: {} words over {} messages",
                comm.words(CommPhase::TransitiveReduction),
                comm.messages(CommPhase::TransitiveReduction)
            );
        }
    }
}

//! Whole-assembly benchmark of the diBELLA 2D pipeline.
//!
//! Each [`Workload`] simulates a read set from a seed, serialises it to FASTA
//! text, and assembles it with [`dibella_pipeline::run_dibella_2d`] (FASTA
//! text in memory to consensus contigs).  The `dibella-perfbench` binary times
//! repeated untraced runs for the end-to-end metrics, then makes one traced
//! run ([`traced::assemble_traced`]) that times every layer from outside and
//! yields the per-layer metrics.  Every run's output is reduced to one
//! [`output_digest`]; all runs of a workload, traced or not, must agree.

// A benchmark times with the wall clock by design, as the bench crate's
// harnesses do.
#![allow(clippy::disallowed_methods)]

pub mod trace;
pub mod traced;

use dibella_overlap::OverlapEdge;
use dibella_pipeline::{CandidateSource, PipelineConfig};
use dibella_seq::simulate::{generate_genome, simulate_reads_with, GenomeConfig};
use dibella_seq::{write_fasta, DatasetSpec, ReadSimConfig, SimulatedDataset, Topology};
use dibella_sparse::DistMat2D;
use dibella_strgraph::{evaluate_assembly, Contig, ContigConsensus};

/// Virtual MPI ranks of every workload (a 4 × 4 process grid).
pub const VIRTUAL_RANKS: usize = 16;

/// Simulated genome length of every workload, in bases (the size
/// `dibella_bench::benchmark_dataset` gives `Small` and `EColiLike`, fixed
/// here so no environment variable can change the input).
pub const GENOME_LENGTH: usize = 60_000;

/// Seed of every workload's reference genome.  The reference is fixed, as
/// a real organism's would be; `--seed` draws the reads.  A genome drawn
/// per seed would make assembly time and NG50 swing with its repeat layout
/// more than a run can average out.
pub const REFERENCE_SEED: u64 = 1;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ~1 kb reads at 10% error on the exact k-mer path: alignment-bound.
    ShortExact,
    /// ~9 kb reads at 13% error on the exact k-mer path: consensus-bound.
    LongExact,
    /// The `ShortExact` reads on the k-min-mer sketch path: no k-mer counting.
    ShortKminmer,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ShortExact,
        Workload::LongExact,
        Workload::ShortKminmer,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ShortExact => "short-exact",
            Workload::LongExact => "long-exact",
            Workload::ShortKminmer => "short-kminmer",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulated dataset preset.
    pub fn dataset(self) -> DatasetSpec {
        match self {
            Workload::ShortExact | Workload::ShortKminmer => DatasetSpec::Small,
            Workload::LongExact => DatasetSpec::EColiLike,
        }
    }

    /// The constructor of [`Workload::config`], as recorded in reports.
    pub fn config_name(self) -> &'static str {
        match self {
            Workload::ShortExact => "for_small_reads(15, 16)",
            Workload::LongExact => "for_benchmark(17, 0.13, 16)",
            Workload::ShortKminmer => "for_small_reads(15, 16) + KMinMer",
        }
    }

    /// The pipeline configuration.  The short-read workloads use the
    /// small-read thresholds: `for_benchmark`'s 400 bp classification fuzz
    /// marks most pairs of 1 kb reads as contained and collapses the
    /// assembly.
    pub fn config(self) -> PipelineConfig {
        match self {
            Workload::ShortExact => PipelineConfig::for_small_reads(15, VIRTUAL_RANKS),
            Workload::LongExact => PipelineConfig::for_benchmark(17, 0.13, VIRTUAL_RANKS),
            Workload::ShortKminmer => PipelineConfig {
                candidate_source: CandidateSource::KMinMer,
                ..PipelineConfig::for_small_reads(15, VIRTUAL_RANKS)
            },
        }
    }

    /// Inputs one benchmark run assembles: enough that the run's averages
    /// vary little from seed to seed, since assembly time, peak heap and
    /// NG50 depend on the sampled reads.
    pub fn inputs_per_run(self) -> usize {
        match self {
            Workload::ShortExact | Workload::ShortKminmer => 10,
            Workload::LongExact => 5,
        }
    }

    /// The smallest NG50 a correct assembly of one input reaches: about a
    /// quarter of what the current pipeline reaches on its worst seeds.
    pub fn min_ng50_bp(self) -> usize {
        match self {
            Workload::ShortExact => 1_000,
            Workload::LongExact => 15_000,
            Workload::ShortKminmer => 600,
        }
    }

    /// Simulate input `index` of the run seeded with `seed`: reads drawn
    /// afresh from the workload's fixed reference genome.
    pub fn input(self, seed: u64, index: usize) -> Input {
        let read_seed = seed.wrapping_mul(1_000_003).wrapping_add(index as u64);
        Input::simulate(self.dataset(), GENOME_LENGTH, REFERENCE_SEED, read_seed)
    }

    /// Why `quality` is not that of a correct assembly, if it is not.
    pub fn check(self, quality: &Quality) -> Result<(), String> {
        if quality.ng50_bp < self.min_ng50_bp() {
            return Err(format!(
                "NG50 {} below {}",
                quality.ng50_bp,
                self.min_ng50_bp()
            ));
        }
        if quality.identity < MIN_IDENTITY {
            return Err(format!(
                "identity {:.4} below {MIN_IDENTITY}",
                quality.identity
            ));
        }
        Ok(())
    }
}

/// The lowest mean identity of a correct assembly (the pipeline reaches
/// 0.92 to 0.97 on every workload).
pub const MIN_IDENTITY: f64 = 0.85;

/// Every end-to-end metric: name, unit and the direction that counts as
/// better.  `BENCHMARK.json` lists the same set.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("assembly_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_heap_mib", "MiB", "lower"),
    ("comm_mwords", "Mwords", "lower"),
    ("ng50_bp", "bp", "higher"),
    ("identity", "fraction", "higher"),
];

/// A simulated read set with its ground truth and its FASTA serialisation.
pub struct Input {
    /// Reads, reference genome and read origins.
    pub dataset: SimulatedDataset,
    /// The reads as FASTA text, the pipeline's input.
    pub fasta: String,
}

impl Input {
    /// Simulate reads of preset `spec` from a `genome_length` reference
    /// (the preset's genome and read model, as
    /// `DatasetSpec::generate_with_length` builds them, with separate genome
    /// and read seeds) and serialise them.
    pub fn simulate(
        spec: DatasetSpec,
        genome_length: usize,
        reference_seed: u64,
        read_seed: u64,
    ) -> Self {
        let mean_len = spec.mean_read_length().min(genome_length / 4).max(200);
        let genome = generate_genome(&GenomeConfig {
            length: genome_length,
            repeat_fraction: 0.05,
            repeat_length: (mean_len / 4).max(100),
            seed: reference_seed,
        });
        let config = ReadSimConfig {
            depth: spec.depth(),
            mean_read_length: mean_len,
            min_read_length: (mean_len / 4).max(100),
            read_length_sd: mean_len / 4,
            error_rate: spec.error_rate(),
            seed: read_seed,
            ..ReadSimConfig::default()
        };
        let (reads, origins, chimeric) = simulate_reads_with(&genome, &config, Topology::Linear);
        let fasta = write_fasta(&reads);
        let dataset = SimulatedDataset {
            label: spec.label().to_string(),
            genome,
            reads,
            origins,
            chimeric,
            topology: Topology::Linear,
            config,
        };
        Self { dataset, fasta }
    }

    /// Score an assembly of this input against the simulated reference.
    ///
    /// `evaluate_assembly` scores only multi-read contigs when there are
    /// any, and a single-read contig has no adjacency to misjoin, so the
    /// single-read contigs (most of them on short reads) are left out of
    /// the call: same scores, a fraction of the alignment work.
    pub fn quality(
        &self,
        contigs: &[Contig],
        consensus: &[ContigConsensus],
        config: &PipelineConfig,
    ) -> Quality {
        let (mut kept, mut kept_consensus) = (Vec::new(), Vec::new());
        for (contig, cons) in contigs.iter().zip(consensus) {
            if contig.len() > 1 {
                kept.push(contig.clone());
                kept_consensus.push(cons.clone());
            }
        }
        let (contigs, consensus) = if kept.is_empty() {
            (contigs, consensus)
        } else {
            (&kept[..], &kept_consensus[..])
        };
        let m = evaluate_assembly(
            contigs,
            consensus,
            &self.dataset.origins,
            &self.dataset.genome,
            &config.consensus,
        );
        Quality {
            ng50_bp: m.ng50,
            identity: m.mean_identity,
            misjoins: m.misjoins,
        }
    }
}

/// Assembly quality against the simulated reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// NG50 of the multi-read contigs, in bases.
    pub ng50_bp: usize,
    /// Length-weighted mean identity of the multi-read contigs.
    pub identity: f64,
    /// Adjacent layout reads whose genomic intervals do not overlap.
    pub misjoins: usize,
}

/// FNV-1a over the string matrix `S` (every triple) and the consensus
/// sequences, in order: equal digests mean the same assembly.
pub fn output_digest(s: &DistMat2D<OverlapEdge>, consensus: &[ContigConsensus]) -> u64 {
    let mut h = Fnv::default();
    let local = s.to_local_csr();
    h.word(local.nnz() as u64);
    for (row, col, e) in local.iter() {
        h.word(row as u64);
        h.word(col as u64);
        h.word(u64::from(e.dir));
        h.word(u64::from(e.suffix));
        h.word(e.score as u64);
        h.word(u64::from(e.overlap_len));
    }
    h.word(consensus.len() as u64);
    for c in consensus {
        h.word(c.consensus.len() as u64);
        h.bytes(c.consensus.codes());
    }
    h.0
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric called `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}

//! Criterion micro-benchmarks for the exact-path index stage: the two-pass
//! distributed k-mer counter and the construction of `A` from its table —
//! together, the `index` row of the repository benchmark (perfbench).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dibella_dist::{CommStats, ProcessGrid};
use dibella_overlap::build_a_matrix;
use dibella_seq::{count_kmers_distributed, count_kmers_serial, DatasetSpec, KmerSelection};

fn bench_kmer_counting(c: &mut Criterion) {
    let ds = DatasetSpec::EColiLike.generate_with_length(20_000, 3);
    let selection = KmerSelection::with_bella_bound(17, ds.achieved_depth(), ds.config.error_rate);

    let mut group = c.benchmark_group("kmer_counting");
    group.sample_size(10);

    group.bench_function("serial", |bencher| {
        bencher.iter(|| count_kmers_serial(&ds.reads, &selection))
    });
    for p in [1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::new("distributed", p), &p, |bencher, &p| {
            bencher.iter(|| {
                let stats = CommStats::new();
                count_kmers_distributed(&ds.reads, &selection, p, &stats)
            })
        });
    }
    // `A` over a 4 x 4 grid with 16 construction ranks, as the pipeline
    // builds it.
    let table = count_kmers_distributed(&ds.reads, &selection, 16, &CommStats::new());
    let grid = ProcessGrid::square(16);
    group.bench_function("build_a_matrix/16", |bencher| {
        bencher.iter(|| build_a_matrix(&ds.reads, &table, selection.k, grid, 16))
    });
    group.finish();
}

criterion_group!(benches, bench_kmer_counting);
criterion_main!(benches);

//! Construction of the `|reads| x |k-mers|` occurrence matrix `A`.
//!
//! Section IV-D: "The local k-mer hash table and the local sequences are used
//! to create a distributed |sequences|-by-|k-mers| matrix A.  A nonzero `A_ij`
//! stores the position of the j-th k-mer in the i-th sequence."
//!
//! The reads are cut into segments at every construction-rank boundary and
//! every grid-row boundary, so each segment lies inside one grid row.  One
//! task per segment scans its reads once with the rolling
//! [`CanonicalKmers`] iterator.  For each read it sorts the reliable hits by
//! `(column, position)`, keeps the first per column, and appends them
//! straight to the CSR arrays of that grid row's blocks.  A grid row's
//! segments are then concatenated into its blocks, each segment freed as it
//! is copied, and the blocks become the distributed matrix as they are
//! ([`DistMat2D::from_blocks`]).  No global triple list is built, so `A` is
//! held once, plus one block while its segments are copied.

use crate::types::KmerOccurrence;
use dibella_dist::{par_ranks, BlockDist, ProcessGrid};
use dibella_seq::{CanonicalKmers, KmerTable, ReadSet};
use dibella_sparse::{CsrMatrix, DistMat2D};
use std::ops::Range;

/// Build the occurrence matrix `A` (reads × reliable k-mers), distributed over
/// `grid`.  `construction_ranks` virtual ranks scan block-partitioned reads;
/// the matrix does not depend on it.
///
/// If a reliable k-mer occurs more than once in a read, the first occurrence
/// is kept (one position per nonzero, as in BELLA's `A` matrix).
pub fn build_a_matrix(
    reads: &ReadSet,
    table: &KmerTable,
    k: usize,
    grid: ProcessGrid,
    construction_ranks: usize,
) -> DistMat2D<KmerOccurrence> {
    assert!(construction_ranks > 0);
    let nreads = reads.len();
    let row_dist = BlockDist::new(nreads, grid.rows());
    let col_dist = BlockDist::new(table.len(), grid.cols());
    let scan_dist = BlockDist::new(nreads, construction_ranks);
    let mut cuts: Vec<usize> = (0..construction_ranks)
        .map(|rank| scan_dist.start(rank))
        .chain((0..grid.rows()).map(|bi| row_dist.start(bi)))
        .chain([nreads])
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let segments: Vec<Range<usize>> = cuts.windows(2).map(|w| w[0]..w[1]).collect();
    let scanned =
        par_ranks(segments.len(), |s| scan_segment(reads, table, k, col_dist, segments[s].clone()));

    // Blocks in rank order (row-major): each grid row's segments, one block
    // column at a time.
    let mut blocks = Vec::with_capacity(grid.nprocs());
    let mut scanned = segments.iter().zip(scanned).peekable();
    for bi in 0..grid.rows() {
        let band_end = row_dist.range(bi).end;
        let mut runs: Vec<Vec<BlockRows>> = Vec::new();
        while let Some((_, run)) = scanned.next_if(|(seg, _)| seg.end <= band_end) {
            runs.push(run);
        }
        for bj in 0..grid.cols() {
            let block_runs = runs.iter_mut().map(|run| std::mem::take(&mut run[bj])).collect();
            blocks.push(BlockRows::concat(block_runs, row_dist.size(bi), col_dist.size(bj)));
        }
    }
    DistMat2D::from_blocks(grid, nreads, table.len(), blocks)
}

/// Scan the reads of one segment: one [`BlockRows`] per grid column.
fn scan_segment(
    reads: &ReadSet,
    table: &KmerTable,
    k: usize,
    col_dist: BlockDist,
    segment: Range<usize>,
) -> Vec<BlockRows> {
    let mut blocks: Vec<BlockRows> = (0..col_dist.nparts()).map(|_| BlockRows::default()).collect();
    // `(column, position, forward)` of every reliable k-mer in one read.
    let mut hits: Vec<(u32, u32, bool)> = Vec::new();
    for read_idx in segment {
        let seq = reads.seq(read_idx);
        hits.clear();
        if seq.len() >= k {
            hits.extend(CanonicalKmers::new(seq, k).filter_map(|(pos, canon)| {
                let col = table.column_of(&canon.kmer)?;
                Some((col, pos as u32, canon.was_forward))
            }));
        }
        // First occurrence per column: order by (column, position), keep the
        // first hit of each column.
        hits.sort_unstable_by_key(|&(col, pos, _)| (col, pos));
        hits.dedup_by_key(|&mut (col, _, _)| col);
        for &(col, pos, forward) in &hits {
            let bj = col_dist.owner(col as usize);
            let block = &mut blocks[bj];
            block.colidx.push(col as usize - col_dist.start(bj));
            block.vals.push(KmerOccurrence { pos, forward });
        }
        for block in &mut blocks {
            block.row_ends.push(block.colidx.len());
        }
    }
    for block in &mut blocks {
        block.colidx.shrink_to_fit();
        block.vals.shrink_to_fit();
    }
    blocks
}

/// One grid column's share of a run of consecutive reads in CSR form:
/// `row_ends[r]` is the end of row `r` in `colidx`/`vals` (the leading 0 of a
/// row pointer is implied), so runs concatenate by appending.
#[derive(Default)]
struct BlockRows {
    row_ends: Vec<usize>,
    colidx: Vec<usize>,
    vals: Vec<KmerOccurrence>,
}

impl BlockRows {
    /// The `nrows x ncols` CSR block made of consecutive runs of its rows;
    /// each run is freed as soon as it is copied.
    fn concat(runs: Vec<BlockRows>, nrows: usize, ncols: usize) -> CsrMatrix<KmerOccurrence> {
        let nnz = runs.iter().map(|run| run.colidx.len()).sum();
        let mut rowptr = Vec::with_capacity(nrows + 1);
        rowptr.push(0);
        let mut colidx = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        for run in runs {
            let offset = colidx.len();
            rowptr.extend(run.row_ends.iter().map(|end| end + offset));
            colidx.extend(run.colidx);
            vals.extend(run.vals);
        }
        CsrMatrix::from_raw(nrows, ncols, rowptr, colidx, vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_seq::{
        count_kmers_serial, parse_fasta, DatasetSpec, Kmer, KmerIter, KmerSelection, ReadRecord,
    };
    use dibella_sparse::Triples;
    use std::collections::HashSet;

    /// The triples construction the direct-CSR builder replaced, kept as its
    /// oracle: every window through `KmerIter` + `canonical`, the first
    /// occurrence per column picked by a set, one global triple list routed
    /// by `DistMat2D::from_triples`.
    fn triples_oracle(
        reads: &ReadSet,
        table: &KmerTable,
        k: usize,
        grid: ProcessGrid,
    ) -> DistMat2D<KmerOccurrence> {
        let mut triples = Triples::new(reads.len(), table.len());
        for read_idx in 0..reads.len() {
            let seq = reads.seq(read_idx);
            if seq.len() < k {
                continue;
            }
            let mut seen: HashSet<u32> = HashSet::new();
            for (pos, kmer) in KmerIter::new(seq, k) {
                let canon = kmer.canonical();
                if let Some(col) = table.column_of(&canon.kmer) {
                    if seen.insert(col) {
                        let occ = KmerOccurrence { pos: pos as u32, forward: canon.was_forward };
                        triples.push(read_idx, col as usize, occ);
                    }
                }
            }
        }
        DistMat2D::from_triples(grid, &triples)
    }

    fn first_reads(reads: &ReadSet, n: usize) -> ReadSet {
        let mut out = ReadSet::new();
        for read_idx in 0..n {
            out.push(ReadRecord { name: format!("r{read_idx}"), seq: reads.seq(read_idx).clone() });
        }
        out
    }

    #[test]
    fn direct_csr_matches_the_triples_oracle() {
        let ds = DatasetSpec::Tiny.generate(23);
        let k = 11;
        let sel = KmerSelection { k, min_count: 2, max_count: 50 };
        let grids =
            [1, 4, 9, 16].map(ProcessGrid::square).into_iter().chain([ProcessGrid::new(2, 3)]);
        let grids: Vec<ProcessGrid> = grids.collect();
        // Read counts that no grid divides, one smaller than some grids' row
        // count, and no reads at all.
        for nreads in [ds.reads.len(), 37, 3, 0] {
            let reads = first_reads(&ds.reads, nreads);
            let table = count_kmers_serial(&reads, &sel);
            for &grid in &grids {
                let oracle = triples_oracle(&reads, &table, k, grid);
                for construction_ranks in [1, 3, grid.nprocs(), 2 * grid.nprocs() + 1] {
                    let a = build_a_matrix(&reads, &table, k, grid, construction_ranks);
                    assert_eq!(
                        a, oracle,
                        "reads {nreads}, grid {grid:?}, construction ranks {construction_ranks}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_table_gives_an_empty_matrix() {
        let ds = DatasetSpec::Tiny.generate(24);
        let sel = KmerSelection { k: 11, min_count: 1_000_000, max_count: 2_000_000 };
        let table = count_kmers_serial(&ds.reads, &sel);
        assert!(table.is_empty());
        for grid in [ProcessGrid::square(1), ProcessGrid::square(9)] {
            for empty in [&table, &KmerTable::default()] {
                let a = build_a_matrix(&ds.reads, empty, 11, grid, 4);
                assert_eq!((a.nrows(), a.ncols(), a.nnz()), (ds.reads.len(), 0, 0));
                assert_eq!(a, triples_oracle(&ds.reads, empty, 11, grid));
            }
        }
    }

    fn tiny_setup(k: usize) -> (ReadSet, KmerTable) {
        let ds = DatasetSpec::Tiny.generate(19);
        let sel = KmerSelection { k, min_count: 2, max_count: 50 };
        let table = count_kmers_serial(&ds.reads, &sel);
        (ds.reads, table)
    }

    #[test]
    fn a_matrix_dimensions_match_reads_by_kmers() {
        let (reads, table) = tiny_setup(11);
        let grid = ProcessGrid::square(4);
        let a = build_a_matrix(&reads, &table, 11, grid, 4);
        assert_eq!(a.nrows(), reads.len());
        assert_eq!(a.ncols(), table.len());
        assert!(a.nnz() > 0);
    }

    #[test]
    fn entries_point_at_real_occurrences() {
        let (reads, table) = tiny_setup(11);
        let grid = ProcessGrid::square(1);
        let a = build_a_matrix(&reads, &table, 11, grid, 3);
        let local = a.to_local_csr();
        let mut checked = 0;
        for (read_idx, col, occ) in local.iter() {
            let expected_canon = table.kmer_at(col as u32);
            let seq = reads.seq(read_idx);
            let window = seq.slice(occ.pos as usize, occ.pos as usize + 11);
            let found = Kmer::from_codes(window.codes());
            let canon = found.canonical();
            assert_eq!(canon.kmer, expected_canon, "stored position must contain the k-mer");
            assert_eq!(canon.was_forward, occ.forward, "orientation flag must match");
            checked += 1;
            if checked > 200 {
                break;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn construction_rank_count_does_not_change_the_matrix() {
        let (reads, table) = tiny_setup(9);
        let grid = ProcessGrid::square(4);
        let a1 = build_a_matrix(&reads, &table, 9, grid, 1);
        let a4 = build_a_matrix(&reads, &table, 9, grid, 4);
        let a7 = build_a_matrix(&reads, &table, 9, grid, 7);
        assert_eq!(a1.to_local_csr(), a4.to_local_csr());
        assert_eq!(a1.to_local_csr(), a7.to_local_csr());
    }

    #[test]
    fn duplicate_kmers_within_a_read_store_one_position() {
        // A read with the same 4-mer repeated: AAAA appears many times but the
        // matrix keeps a single entry (the first).
        let reads = parse_fasta(">r0\nAAAAAAAACGCG\n>r1\nAAAAAAAACGCG\n").unwrap();
        let sel = KmerSelection { k: 4, min_count: 2, max_count: 100 };
        let table = count_kmers_serial(&reads, &sel);
        let grid = ProcessGrid::square(1);
        let a = build_a_matrix(&reads, &table, 4, grid, 2);
        let local = a.to_local_csr();
        let aaaa = Kmer::from_ascii(b"AAAA").unwrap().canonical().kmer;
        let col = table.column_of(&aaaa).unwrap() as usize;
        let occ = local.get(0, col).expect("AAAA entry for read 0");
        assert_eq!(occ.pos, 0, "first occurrence wins");
        // One entry per (read, kmer) pair even though AAAA occurs 5 times.
        assert_eq!(local.row(0).filter(|(c, _)| *c == col).count(), 1);
    }

    #[test]
    fn reads_shorter_than_k_produce_no_entries() {
        let reads = parse_fasta(">a\nACG\n>b\nACGTACGTACGT\n>c\nACGTACGTACGT\n").unwrap();
        let sel = KmerSelection { k: 6, min_count: 2, max_count: 100 };
        let table = count_kmers_serial(&reads, &sel);
        let a = build_a_matrix(&reads, &table, 6, ProcessGrid::square(1), 2);
        let local = a.to_local_csr();
        assert_eq!(local.row_nnz(0), 0);
        assert!(local.row_nnz(1) > 0);
    }
}

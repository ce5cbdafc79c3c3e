//! Banded partial-order-alignment (POA) consensus over contig layouts.
//!
//! The paper's pipeline stops at the string graph — "overlap" and "layout" of
//! OLC — and leaves consensus to downstream tools.  This module closes the
//! loop: every [`Contig`] layout produced by
//! [`extract_contigs`](crate::contigs::extract_contigs) is turned into one
//! consensus [`DnaSeq`].
//!
//! The algorithm is the POA scheme long-read assemblers use per window:
//!
//! 1. the layout's first read seeds a **backbone** — a chain of POA nodes;
//! 2. every subsequent read is placed on the backbone with the overlap
//!    coordinates already stored in its [`OverlapEdge`] (`overlap_len` gives
//!    the expected placement, `suffix` the expected extension), oriented by
//!    the edge's bidirected direction;
//! 3. the read is aligned to its backbone window with a **banded**
//!    dynamic program (the same linear-gap [`ScoringScheme`] the x-drop
//!    aligner uses; the band absorbs the indel drift of noisy reads, and an
//!    X-drop test prunes each row to its live span inside the band) and the
//!    resulting operations are threaded into the graph: matches bump node
//!    weights, substitutions branch into *alternative* nodes, insertions
//!    create (or re-weight) *insert* nodes between columns, deletions simply
//!    skip columns — the edge weights record every traversal;
//! 4. the consensus is the **heaviest path** through the resulting DAG,
//!    found by one dynamic-programming sweep over a topological order.
//!
//! Because reads are threaded in layout order and each read overlaps its
//! predecessor, the graph stays connected and the alignment stays near its
//! expected diagonal: a read costs `O(read_len · live)` cells, where `live`
//! is the width of the X-drop live span (a few hundred columns on 13%-error
//! long reads), and never more than the fixed band's `O(read_len · band)`.

use crate::contigs::Contig;
use dibella_align::ScoringScheme;
use dibella_overlap::OverlapEdge;
use dibella_seq::{DnaSeq, ReadSet};
use dibella_sparse::CsrMatrix;
use serde::{Deserialize, Serialize};

/// Tuning knobs of the consensus stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConsensusConfig {
    /// Minimum half-width of the alignment band, in bases.
    pub min_band: usize,
    /// The band half-width grows to this fraction of the read length (noisy
    /// long reads accumulate indel drift proportional to their length).
    pub band_fraction: f64,
    /// Base-level scoring used by the banded aligner (the x-drop scheme).
    pub scoring: ScoringScheme,
}

impl Default for ConsensusConfig {
    fn default() -> Self {
        Self { min_band: 32, band_fraction: 0.2, scoring: ScoringScheme::default() }
    }
}

impl ConsensusConfig {
    fn band_for(&self, read_len: usize) -> usize {
        self.min_band.max((read_len as f64 * self.band_fraction) as usize)
    }
}

/// The consensus of one contig, with the counters the pipeline reports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContigConsensus {
    /// The consensus sequence (the heaviest path through the POA graph).
    pub consensus: DnaSeq,
    /// Number of reads threaded into the POA graph.
    pub reads: usize,
    /// Number of nodes in the final POA graph.
    pub poa_nodes: usize,
    /// Total read bases aligned into the graph (backbone included).
    pub aligned_bases: usize,
    /// DP cells the banded fits filled, summed over the contig's reads (the
    /// stage's work counter).
    pub dp_cells: usize,
}

// ---------------------------------------------------------------------------
// The POA graph
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct PoaNode {
    base: u8,
    weight: u32,
    /// Outgoing edges `(target node, traversal count)`.
    edges: Vec<(usize, u32)>,
    /// Whether this node is an insertion node (no backbone column of its own).
    is_insert: bool,
}

/// A partial-order alignment graph: a DAG of 2-bit bases whose heaviest path
/// is the consensus.  Nodes are created by threading reads; the **backbone**
/// is the anchor path reads are banded-aligned against.
#[derive(Debug, Clone, Default)]
pub struct PoaGraph {
    nodes: Vec<PoaNode>,
    /// Anchor column node ids, in contig order.
    backbone: Vec<usize>,
    /// Per backbone column: alternative (substitution) nodes.
    alts: Vec<Vec<usize>>,
}

/// One traceback operation of the banded aligner, in window coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AlnOp {
    /// Read base equals window column `col`.
    Match(usize),
    /// Read base substitutes window column `col`.
    Sub(usize, u8),
    /// Read base inserted between window columns.
    Ins(u8),
    /// Window column `col` deleted from the read.
    Del(usize),
}

impl PoaGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Current backbone length in columns.
    pub fn backbone_len(&self) -> usize {
        self.backbone.len()
    }

    fn add_node(&mut self, base: u8, is_insert: bool) -> usize {
        self.nodes.push(PoaNode { base, weight: 0, edges: Vec::new(), is_insert });
        self.nodes.len() - 1
    }

    fn push_backbone(&mut self, base: u8) -> usize {
        let id = self.add_node(base, false);
        self.backbone.push(id);
        self.alts.push(Vec::new());
        id
    }

    fn bump_edge(&mut self, from: usize, to: usize) {
        let edges = &mut self.nodes[from].edges;
        match edges.iter_mut().find(|(t, _)| *t == to) {
            Some((_, w)) => *w += 1,
            None => edges.push((to, 1)),
        }
    }

    /// Visit `node` while threading: bump its weight and the edge from the
    /// previously visited node.
    fn visit(&mut self, prev: &mut Option<usize>, node: usize) {
        self.nodes[node].weight += 1;
        if let Some(p) = *prev {
            self.bump_edge(p, node);
        }
        *prev = Some(node);
    }

    /// Seed the graph with the backbone read (the layout's first read).
    fn thread_backbone(&mut self, codes: &[u8]) {
        debug_assert!(self.backbone.is_empty(), "backbone must be threaded first");
        let mut prev = None;
        for &b in codes {
            let id = self.push_backbone(b);
            self.visit(&mut prev, id);
        }
    }

    /// Thread one aligned read into the graph.  `ops` are window-relative;
    /// `wstart` maps window column 0 to a backbone column.  `tail` holds read
    /// bases that extend past the current backbone end and become new
    /// backbone columns.
    fn thread_ops(&mut self, wstart: usize, ops: &[AlnOp], tail: &[u8]) {
        let mut prev: Option<usize> = None;
        for op in ops {
            match *op {
                AlnOp::Match(col) => {
                    let node = self.backbone[wstart + col];
                    self.visit(&mut prev, node);
                }
                AlnOp::Sub(col, base) => {
                    let column = wstart + col;
                    let node = match self.alts[column].iter().find(|&&n| self.nodes[n].base == base)
                    {
                        Some(&n) => n,
                        None => {
                            let n = self.add_node(base, false);
                            self.alts[column].push(n);
                            n
                        }
                    };
                    self.visit(&mut prev, node);
                }
                AlnOp::Ins(base) => {
                    // Re-use an existing insert node reachable from `prev`
                    // with the same base, so identical insertions accumulate
                    // weight; otherwise create a fresh one.
                    let existing = prev.and_then(|p| {
                        self.nodes[p]
                            .edges
                            .iter()
                            .map(|&(t, _)| t)
                            .find(|&t| self.nodes[t].is_insert && self.nodes[t].base == base)
                    });
                    let node = existing.unwrap_or_else(|| self.add_node(base, true));
                    self.visit(&mut prev, node);
                }
                AlnOp::Del(_) => {
                    // The deleted column is simply not visited; the edge from
                    // `prev` to the next visited node records the skip.
                }
            }
        }
        for &b in tail {
            let id = self.push_backbone(b);
            self.visit(&mut prev, id);
        }
    }

    /// The heaviest path through the DAG: one DP sweep over a topological
    /// order maximising coverage-adjusted traversal weights (see the scoring
    /// note inside), then a traceback.
    pub fn heaviest_path(&self) -> DnaSeq {
        let n = self.nodes.len();
        if n == 0 {
            return DnaSeq::new();
        }
        // Kahn topological order (node ids are NOT topological: substitution
        // branches link forward to older backbone nodes).
        let mut indeg = vec![0usize; n];
        for node in &self.nodes {
            for &(t, _) in &node.edges {
                indeg[t] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            order.push(v);
            for &(t, _) in &self.nodes[v].edges {
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    queue.push(t);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "POA graph must be acyclic");

        // score[v] = best path score ending at v (0 = the path starts at v).
        // An edge u→v contributes `2·w(u,v) − outw(u)`: its traversal count
        // against half the local coverage leaving `u`.  A raw heaviest path
        // (summing traversals alone) keeps any sufficiently long minority
        // detour; the coverage penalty makes a detour win only when roughly
        // half the reads took it — a majority vote expressed as a path DP.
        let outw: Vec<i64> = self
            .nodes
            .iter()
            .map(|node| node.edges.iter().map(|&(_, w)| w as i64).sum())
            .collect();
        let mut score = vec![0i64; n];
        let mut pred = vec![usize::MAX; n];
        for &v in &order {
            for &(t, w) in &self.nodes[v].edges {
                let cand = score[v] + 2 * w as i64 - outw[v];
                if cand > score[t] {
                    score[t] = cand;
                    pred[t] = v;
                }
            }
        }
        let mut best = 0;
        for v in 1..n {
            if score[v] > score[best] {
                best = v;
            }
        }
        let mut path = Vec::new();
        let mut v = best;
        loop {
            path.push(self.nodes[v].base);
            if pred[v] == usize::MAX {
                break;
            }
            v = pred[v];
        }
        path.reverse();
        DnaSeq::from_codes(path)
    }
}

// ---------------------------------------------------------------------------
// The banded aligner
// ---------------------------------------------------------------------------

const NEG: i32 = i32::MIN / 4;

/// X-drop threshold of the pruned fit: a cell scoring more than this far
/// below the best cell seen so far is dead and extends no further.
const X_DROP: i32 = 100;

/// Rows within which the pruned fit's best score must rise by [`X_DROP`].
/// Under linear `+1/−1/−1` scoring a gapped alignment of *unrelated*
/// sequence still gains about 0.1 per row, so the live span never empties
/// inside junk (a chimeric segment, say) and the true path — which crosses
/// the junk as one long gap — would be pruned away.  A homologous fit gains
/// far more: no 400-row stretch of a 12 kb fit between two reads at 15%
/// error each gains under 0.45 per row, against the 0.25 this allows.  A
/// stalled best score therefore means the fit has lost its diagonal, and
/// the read is filled again unpruned.
const STALL_ROWS: usize = 4 * X_DROP as usize;

// Traceback directions, one byte per filled cell.
const STOP: u8 = 0;
const DIAG: u8 = 1;
const UP: u8 = 2;
const LEFT: u8 = 3;

/// Result of a banded fit alignment of a read against a backbone window.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BandedFit {
    /// Operations in read order covering read bases `0..read_consumed`.
    ops: Vec<AlnOp>,
    /// Read bases consumed by `ops` (the rest extend past the window).
    read_consumed: usize,
    /// Window columns spanned by `ops` (leading/trailing window columns the
    /// alignment never reached are *not* included).
    window_consumed: usize,
    /// Matches and total aligned columns, for identity computations.
    matches: usize,
    columns: usize,
}

impl BandedFit {
    fn empty() -> Self {
        Self { ops: Vec::new(), read_consumed: 0, window_consumed: 0, matches: 0, columns: 0 }
    }
}

/// Buffers of the fit kernel, reused by every fit of a contig so that no DP
/// row allocates.
#[derive(Debug, Default)]
struct FitScratch {
    /// Traceback direction of every filled cell, row after row.
    dirs: Vec<u8>,
    /// Per DP row: offset of its first cell in `dirs` and its filled window
    /// columns `lo..=hi`.
    rows: Vec<(usize, usize, usize)>,
    /// Scores of the previous and current row, indexed by window column + 1
    /// (slot 0 stands for column −1).
    prev: Vec<i32>,
    cur: Vec<i32>,
    /// Cells filled by every fit since the scratch was created.
    cells: usize,
}

/// Banded "fit" alignment of `read` against `window`: the read may start at
/// any window column near the expected `offset` (free leading window gap) and
/// may either end inside the window or consume the window entirely (the
/// remaining read bases are returned as the unconsumed tail).
///
/// Row `i` never leaves the fixed band `offset + i ± band`.  With `prune` it
/// is further cut to the X-drop live span ([`fill`]); should pruning end the
/// DP before any free end was reached, or the best score stall, the read is
/// filled again unpruned.
fn banded_fit(
    read: &[u8],
    window: &[u8],
    offset: usize,
    band: usize,
    scoring: ScoringScheme,
    prune: bool,
    scratch: &mut FitScratch,
) -> BandedFit {
    if read.is_empty() || window.is_empty() {
        return BandedFit::empty();
    }
    let mut fill_with = |xdrop| {
        let end = fill(read, window, offset, band, scoring, xdrop, scratch);
        scratch.cells += scratch.dirs.len();
        end
    };
    let pruned = if prune { fill_with(Some(X_DROP)) } else { None };
    match pruned.or_else(|| fill_with(None)) {
        Some((i, j)) => traceback(read, window, i, j, scratch),
        None => BandedFit::empty(),
    }
}

/// Fill the DP into `scratch` and return the best free end `(row, column)`:
/// either the window is consumed (column `wn`, the rest of the read becomes
/// the tail the caller appends to the backbone) or the read is (last row, the
/// read ends inside the window).
///
/// Without `xdrop` every band cell is filled.  With it, row `i` covers only
/// the live span of row `i − 1` — its cells scoring at least
/// `best_seen − xdrop` — plus one diagonal step, and extends further right
/// only while its Left-move chain stays at or above that threshold.  The DP
/// stops when the live span empties; that is an end only if a free end was
/// already reached, and `None` otherwise.  It also returns `None` once
/// `best_seen` has not risen by `xdrop` for [`STALL_ROWS`] rows.  Unpruned,
/// an emptied band is `None` too: the placement is pathological and the
/// caller treats the read as unplaced.
fn fill(
    read: &[u8],
    window: &[u8],
    offset: usize,
    band: usize,
    scoring: ScoringScheme,
    xdrop: Option<i32>,
    scratch: &mut FitScratch,
) -> Option<(usize, usize)> {
    let (rn, wn) = (read.len(), window.len());
    let lo_of = |i: usize| (offset + i).saturating_sub(band).min(wn);
    let hi_of = |i: usize| (offset + i + band).min(wn);
    let (m, mm, gap) = (scoring.match_score, scoring.mismatch, scoring.gap);
    let FitScratch { dirs, rows, prev, cur, .. } = scratch;
    dirs.clear();
    rows.clear();
    if xdrop.is_none() {
        // The unpruned DP fills the whole band; reserve it in one go.
        dirs.reserve_exact((0..=rn).map(|i| hi_of(i) + 1 - lo_of(i)).sum());
    }
    prev.resize(wn + 3, NEG);
    cur.resize(wn + 3, NEG);

    // Row 0: free start anywhere in the band.
    let (mut plo, mut phi) = (lo_of(0), hi_of(0));
    prev[plo + 1..=phi + 1].fill(0);
    dirs.resize(phi + 1 - plo, STOP);
    rows.push((0, plo, phi));
    let (mut best_i, mut best_j, mut best) = (0usize, 0usize, NEG);
    if wn <= phi {
        // Degenerate: the window can be skipped entirely (score 0); only wins
        // when no real alignment scores positive.
        best = 0;
        best_j = wn;
    }
    let mut best_seen = 0;
    // The last row at which `best_seen` rose by `xdrop`, and its value then.
    let (mut rise_row, mut rise_score) = (0usize, 0i32);
    let mut end_reached = false;

    for i in 1..=rn {
        let (lo, hi) = (lo_of(i), hi_of(i));
        // `plo..=phi` is the previous row's live span: outside it the
        // previous row is dead, which the two sentinels make explicit.
        let first = lo.max(plo);
        let main_end = hi.min(phi + 1);
        prev[plo] = NEG;
        prev[phi + 2] = NEG;
        let start = dirs.len();
        let rb = read[i - 1];
        let mut j = first;
        let mut left = NEG;
        if j == 0 {
            // Column 0 has no diagonal (or left) predecessor.
            left = prev[1] + gap;
            cur[1] = left;
            dirs.push(UP);
            j = 1;
        }
        let mut row_best = left;
        if j <= main_end {
            let n = main_end + 1 - j;
            dirs.resize(dirs.len() + n, STOP);
            let cells_iter = cur[j + 1..=main_end + 1]
                .iter_mut()
                .zip(&mut dirs[start + (j - first)..])
                .zip(&prev[j..=main_end])
                .zip(&prev[j + 1..=main_end + 1])
                .zip(&window[j - 1..main_end]);
            // Ties prefer Diag, then Up, then Left.
            for ((((score, dir), &d), &u), &w) in cells_iter {
                let (mut v, mut dv) = (d + if w == rb { m } else { mm }, DIAG);
                if u + gap > v {
                    v = u + gap;
                    dv = UP;
                }
                if left + gap > v {
                    v = left + gap;
                    dv = LEFT;
                }
                *score = v;
                *dir = dv;
                left = v;
                row_best = row_best.max(v);
            }
        }
        best_seen = best_seen.max(row_best);
        let threshold = match xdrop {
            Some(x) => {
                if best_seen >= rise_score + x {
                    (rise_row, rise_score) = (i, best_seen);
                } else if i - rise_row > STALL_ROWS {
                    return None;
                }
                best_seen - x
            }
            None => NEG / 2,
        };
        // Past the previous row's span only Left moves remain.
        let mut last = main_end;
        while last < hi && left + gap >= threshold {
            left += gap;
            last += 1;
            cur[last + 1] = left;
            dirs.push(LEFT);
        }
        rows.push((start, first, last));

        if (first..=last).contains(&wn) {
            end_reached = true;
            let v = cur[wn + 1];
            if v > best {
                best = v;
                best_i = i;
                best_j = wn;
            }
        }
        if i == rn {
            end_reached = true;
            for j in first..=last {
                let v = cur[j + 1];
                if v > best {
                    best = v;
                    best_i = rn;
                    best_j = j;
                }
            }
        }

        let row = &cur[first + 1..=last + 1];
        let Some(live_lo) = row.iter().position(|&v| v >= threshold) else {
            return (xdrop.is_some() && end_reached).then_some((best_i, best_j));
        };
        let live_hi = row.iter().rposition(|&v| v >= threshold).unwrap_or(live_lo);
        plo = first + live_lo;
        phi = first + live_hi;
        std::mem::swap(prev, cur);
    }
    Some((best_i, best_j))
}

/// Trace the filled DP back from the free end `(best_i, best_j)`; read bases
/// past `best_i` are the unconsumed tail (an extension of the backbone, when
/// the window was consumed to its end).
fn traceback(
    read: &[u8],
    window: &[u8],
    best_i: usize,
    best_j: usize,
    scratch: &FitScratch,
) -> BandedFit {
    let mut ops_rev: Vec<AlnOp> = Vec::new();
    let (mut i, mut j) = (best_i, best_j);
    let mut matches = 0usize;
    let mut columns = 0usize;
    loop {
        let (start, lo, hi) = scratch.rows[i];
        debug_assert!((lo..=hi).contains(&j), "traceback left the filled cells");
        match scratch.dirs[start + j - lo] {
            DIAG => {
                columns += 1;
                if read[i - 1] == window[j - 1] {
                    matches += 1;
                    ops_rev.push(AlnOp::Match(j - 1));
                } else {
                    ops_rev.push(AlnOp::Sub(j - 1, read[i - 1]));
                }
                i -= 1;
                j -= 1;
            }
            UP => {
                columns += 1;
                ops_rev.push(AlnOp::Ins(read[i - 1]));
                i -= 1;
            }
            LEFT => {
                columns += 1;
                ops_rev.push(AlnOp::Del(j - 1));
                j -= 1;
            }
            _ => break,
        }
    }
    ops_rev.reverse();
    // `j` now sits at the traceback's start column, so the alignment spanned
    // window columns `j..best_j`.
    BandedFit { ops: ops_rev, read_consumed: best_i, window_consumed: best_j - j, matches, columns }
}

/// Percent identity (matches / aligned columns) of a banded global-ish
/// alignment of `a` against `b`.  Used by the assembly-quality metrics to
/// compare a consensus sequence against the reference it should reproduce.
pub fn banded_identity(a: &DnaSeq, b: &DnaSeq, config: &ConsensusConfig) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    // Unlike read threading there is no placement uncertainty here — the two
    // sequences start together — so the band only needs the length difference
    // plus a small allowance for indel drift (2% of the longer sequence),
    // keeping whole-contig identity linear-ish in the contig length.
    let len = a.len().max(b.len());
    let band = config.min_band.max(a.len().abs_diff(b.len()) + len / 50);
    // Pruning stays off: a contig can drift far from the diagonal of the
    // reference it is measured against, and the metric must not depend on it.
    let mut scratch = FitScratch::default();
    let fit = banded_fit(a.codes(), b.codes(), 0, band, config.scoring, false, &mut scratch);
    if fit.columns == 0 {
        return 0.0;
    }
    // Bases on either side that the alignment never covered — `a` bases past
    // its end, `b` bases before its start or after its end — count as
    // unaligned columns, so a truncated or prefix-only alignment cannot
    // report 100%.
    let overhang_a = a.len() - fit.read_consumed;
    let overhang_b = b.len() - fit.window_consumed;
    fit.matches as f64 / (fit.columns + overhang_a + overhang_b) as f64
}

// ---------------------------------------------------------------------------
// Layout-driven consensus
// ---------------------------------------------------------------------------

/// Walk orientation of every read in a contig layout, reconstructed from the
/// bidirected directions stored on the layout's edges (`true` = the walk
/// traverses the read in its stored orientation).
fn walk_orientations(contig: &Contig, s: &CsrMatrix<OverlapEdge>) -> Vec<bool> {
    let reads = &contig.reads;
    let mut orientations = Vec::with_capacity(reads.len());
    if reads.len() == 1 {
        orientations.push(true);
        return orientations;
    }
    for pair in reads.windows(2) {
        let edge = s
            .get(pair[0], pair[1])
            // lint: allow(unwrap) — extract_contigs only emits edges present in S
            .expect("contig layouts walk existing string-graph edges");
        let dir = edge.direction();
        if orientations.is_empty() {
            orientations.push(dir.source_forward());
        }
        orientations.push(dir.dest_forward());
    }
    orientations
}

/// Build the consensus of one contig layout.
///
/// `s` is the string matrix the layout was extracted from (its edges provide
/// the placement coordinates), `reads` the read set the layout indexes into.
pub fn consensus_contig(
    contig: &Contig,
    s: &CsrMatrix<OverlapEdge>,
    reads: &ReadSet,
    config: &ConsensusConfig,
) -> ContigConsensus {
    thread_layout(contig, s, reads, config, true)
}

/// [`consensus_contig`], with the X-drop pruning of every read's fit
/// switched by `prune`.
fn thread_layout(
    contig: &Contig,
    s: &CsrMatrix<OverlapEdge>,
    reads: &ReadSet,
    config: &ConsensusConfig,
    prune: bool,
) -> ContigConsensus {
    assert!(!contig.is_empty(), "cannot build a consensus of an empty layout");
    let orientations = walk_orientations(contig, s);
    let mut graph = PoaGraph::new();
    let mut aligned_bases = 0usize;

    let oriented = |idx: usize, forward: bool| -> DnaSeq {
        let seq = reads.seq(contig.reads[idx]);
        if forward {
            seq.clone()
        } else {
            seq.reverse_complement()
        }
    };

    // Backbone: the first read of the layout.
    let first = oriented(0, orientations[0]);
    aligned_bases += first.len();
    graph.thread_backbone(first.codes());

    let mut scratch = FitScratch::default();
    let mut window = Vec::new();
    for (step, &orientation) in orientations.iter().enumerate().skip(1) {
        let edge = s
            .get(contig.reads[step - 1], contig.reads[step])
            // lint: allow(unwrap) — extract_contigs only emits edges present in S
            .expect("contig layouts walk existing string-graph edges");
        let seq = oriented(step, orientation);
        aligned_bases += seq.len();
        let band = config.band_for(seq.len());

        // Expected placement: the read overlaps the current backbone end by
        // `overlap_len` bases, padded by the band to absorb indel drift.
        let backbone_len = graph.backbone_len();
        let expected_start = backbone_len.saturating_sub(edge.overlap_len as usize);
        let wstart = expected_start.saturating_sub(band);
        let offset = expected_start - wstart;
        window.clear();
        window.extend(graph.backbone[wstart..].iter().map(|&id| graph.nodes[id].base));

        let fit =
            banded_fit(seq.codes(), &window, offset, band, config.scoring, prune, &mut scratch);
        let tail = &seq.codes()[fit.read_consumed..];
        graph.thread_ops(wstart, &fit.ops, tail);
    }

    ContigConsensus {
        consensus: graph.heaviest_path(),
        reads: contig.reads.len(),
        poa_nodes: graph.num_nodes(),
        aligned_bases,
        dp_cells: scratch.cells,
    }
}

/// Build the consensus of every contig layout, in layout order.
///
/// This is the serial kernel; the pipeline parallelises the loop per contig
/// on the work-stealing pool (see `dibella_pipeline::run2d`).
pub fn consensus_contigs(
    contigs: &[Contig],
    s: &CsrMatrix<OverlapEdge>,
    reads: &ReadSet,
    config: &ConsensusConfig,
) -> Vec<ContigConsensus> {
    contigs.iter().map(|c| consensus_contig(c, s, reads, config)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_seq::simulate::apply_errors;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_seq(len: usize, seed: u64) -> DnaSeq {
        let mut rng = SmallRng::seed_from_u64(seed);
        DnaSeq::from_codes((0..len).map(|_| rng.gen_range(0..4u8)).collect())
    }

    /// Build a synthetic layout of `n` reads tiling `genome` at `step` with
    /// `span` bases of overlap, returning the contig, the matrix and reads.
    fn tiling_layout(
        genome: &DnaSeq,
        read_len: usize,
        step: usize,
        error: f64,
        seed: u64,
    ) -> (Contig, CsrMatrix<OverlapEdge>, ReadSet) {
        use dibella_seq::fasta::ReadRecord;
        let n = (genome.len() - read_len) / step + 1;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut reads = ReadSet::new();
        for i in 0..n {
            let template = genome.slice(i * step, i * step + read_len);
            let seq = apply_errors(&template, error, &mut rng);
            reads.push(ReadRecord { name: format!("r{i}"), seq });
        }
        let mut triples = dibella_sparse::Triples::new(n, n);
        for i in 0..n - 1 {
            let overlap = (read_len - step) as u32;
            let edge = OverlapEdge {
                dir: 0b11,
                suffix: step as u32,
                score: overlap as i32,
                overlap_len: overlap,
            };
            let back = OverlapEdge { dir: 0b00, ..edge };
            triples.push(i, i + 1, edge);
            triples.push(i + 1, i, back);
        }
        let contig = Contig {
            reads: (0..n).collect(),
            estimated_length: read_len + (n - 1) * step,
            circular: false,
        };
        (contig, CsrMatrix::from_triples(&triples), reads)
    }

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Dir {
        Stop,
        Diag,
        Up,
        Left,
    }

    /// The kernel's oracle: the unpruned fixed-band fit with a per-row
    /// direction matrix, exactly as the consensus stage computed it before the
    /// X-drop kernel replaced it.
    fn oracle_fit(
        read: &[u8],
        window: &[u8],
        offset: usize,
        band: usize,
        scoring: ScoringScheme,
    ) -> BandedFit {
        let rn = read.len();
        let wn = window.len();
        if rn == 0 || wn == 0 {
            return BandedFit::empty();
        }

        // Row i spans window columns [lo[i], hi[i]] around the expected diagonal.
        let lo_of = |i: usize| (offset + i).saturating_sub(band).min(wn);
        let hi_of = |i: usize| (offset + i + band).min(wn);
        let width = |i: usize| hi_of(i) + 1 - lo_of(i);

        // Scores of the current and previous row; direction of every banded cell.
        let mut dirs: Vec<Vec<Dir>> = Vec::with_capacity(rn + 1);
        let mut prev_row: Vec<i32> = (0..width(0)).map(|_| 0).collect(); // free start
        dirs.push(vec![Dir::Stop; width(0)]);

        // Best "free end" cell: either the window is consumed (column `wn`, the
        // rest of the read becomes the tail the caller appends to the backbone)
        // or the read is (last row, the read ends inside the window).
        let (mut best_i, mut best_j, mut best) = (0usize, 0usize, NEG);
        if wn <= hi_of(0) {
            // Degenerate: the window can be skipped entirely (score 0); only wins
            // when no real alignment scores positive.
            best = 0;
            best_j = wn;
        }

        for i in 1..=rn {
            let lo = lo_of(i);
            let hi = hi_of(i);
            let plo = lo_of(i - 1);
            let phi = hi_of(i - 1);
            let mut row = vec![NEG; hi + 1 - lo];
            let mut dir_row = vec![Dir::Stop; hi + 1 - lo];
            for j in lo..=hi {
                let mut best = NEG;
                let mut dir = Dir::Stop;
                // Diagonal: consume one read and one window base.
                if j >= 1 && (plo..=phi).contains(&(j - 1)) {
                    let d = prev_row[j - 1 - plo];
                    if d > NEG {
                        let sub = if read[i - 1] == window[j - 1] {
                            scoring.match_score
                        } else {
                            scoring.mismatch
                        };
                        if d + sub > best {
                            best = d + sub;
                            dir = Dir::Diag;
                        }
                    }
                }
                // Up: consume a read base only (insertion into the window).
                if (plo..=phi).contains(&j) {
                    let u = prev_row[j - plo];
                    if u > NEG && u + scoring.gap > best {
                        best = u + scoring.gap;
                        dir = Dir::Up;
                    }
                }
                // Left: consume a window base only (deletion from the read).
                if j > lo {
                    let l = row[j - 1 - lo];
                    if l > NEG && l + scoring.gap > best {
                        best = l + scoring.gap;
                        dir = Dir::Left;
                    }
                }
                row[j - lo] = best;
                dir_row[j - lo] = dir;
            }
            if (lo..=hi).contains(&wn) {
                let v = row[wn - lo];
                if v > best {
                    best = v;
                    best_i = i;
                    best_j = wn;
                }
            }
            if i == rn {
                for j in lo..=hi {
                    let v = row[j - lo];
                    if v > best {
                        best = v;
                        best_i = rn;
                        best_j = j;
                    }
                }
            }
            prev_row = row;
            dirs.push(dir_row);
            if prev_row.iter().all(|&v| v <= NEG) {
                // The whole band died (pathological placement); fall back to an
                // empty alignment so the caller treats the read as unplaced.
                return BandedFit::empty();
            }
        }

        // Traceback from the best boundary cell; read bases past `best_i` are
        // the unconsumed tail (an extension of the backbone, when the window was
        // consumed to its end).
        let mut ops_rev: Vec<AlnOp> = Vec::new();
        let (mut i, mut j) = (best_i, best_j);
        let mut matches = 0usize;
        let mut columns = 0usize;
        loop {
            let lo = lo_of(i);
            let d = dirs[i][j - lo];
            match d {
                Dir::Stop => break,
                Dir::Diag => {
                    columns += 1;
                    if read[i - 1] == window[j - 1] {
                        matches += 1;
                        ops_rev.push(AlnOp::Match(j - 1));
                    } else {
                        ops_rev.push(AlnOp::Sub(j - 1, read[i - 1]));
                    }
                    i -= 1;
                    j -= 1;
                }
                Dir::Up => {
                    columns += 1;
                    ops_rev.push(AlnOp::Ins(read[i - 1]));
                    i -= 1;
                }
                Dir::Left => {
                    columns += 1;
                    ops_rev.push(AlnOp::Del(j - 1));
                    j -= 1;
                }
            }
        }
        ops_rev.reverse();
        // `j` now sits at the traceback's start column, so the alignment spanned
        // window columns `j..best_j`.
        BandedFit { ops: ops_rev, read_consumed: best_i, window_consumed: best_j - j, matches, columns }
    }

    /// The kernel on one input, pruned or not, with the cells it filled.
    fn kernel(
        read: &[u8],
        window: &[u8],
        offset: usize,
        band: usize,
        prune: bool,
    ) -> (BandedFit, usize) {
        let mut scratch = FitScratch::default();
        let scoring = ScoringScheme::default();
        let fit = banded_fit(read, window, offset, band, scoring, prune, &mut scratch);
        (fit, scratch.cells)
    }

    /// One consensus placement: the backbone is a noisy read of `len` bases,
    /// the next read (drawn from either strand, then oriented) overlaps its
    /// end by `overlap` bases, and the window, offset and band are derived as
    /// `thread_layout` derives them.
    fn placement(
        len: usize,
        overlap: usize,
        error: f64,
        reverse: bool,
        seed: u64,
    ) -> (Vec<u8>, Vec<u8>, usize, usize) {
        let genome = random_seq(2 * len, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37);
        let backbone = apply_errors(&genome.slice(0, len), error, &mut rng);
        let template = genome.slice(len - overlap, 2 * len - overlap);
        let read = if reverse {
            apply_errors(&template.reverse_complement(), error, &mut rng).reverse_complement()
        } else {
            apply_errors(&template, error, &mut rng)
        };
        let band = ConsensusConfig::default().band_for(read.len());
        let expected_start = backbone.len().saturating_sub(overlap);
        let wstart = expected_start.saturating_sub(band);
        let window = backbone.codes()[wstart..].to_vec();
        (read.codes().to_vec(), window, expected_start - wstart, band)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]

        // The X-drop kernel reproduces the fixed-band oracle on realistic
        // placements: 0-15% error, both strands, 200 bp to 12 kb reads.
        #[test]
        fn pruned_kernel_matches_the_oracle(
            seed in 0u64..1_000_000,
            len in 200usize..12_000,
            overlap_pct in 10usize..96,
            error_pct in 0usize..16,
            reverse in proptest::arbitrary::any::<bool>(),
        ) {
            let overlap = len * overlap_pct / 100;
            let (read, window, offset, band) =
                placement(len, overlap, error_pct as f64 / 100.0, reverse, seed);
            let oracle = oracle_fit(&read, &window, offset, band, ScoringScheme::default());
            let (pruned, _) = kernel(&read, &window, offset, band, true);
            proptest::prop_assert_eq!(pruned, oracle);
        }

        // Unpruned, the kernel is the oracle itself on the identity metric's
        // inputs: a noisy, possibly truncated copy against its reference.
        #[test]
        fn unpruned_kernel_matches_the_oracle_on_identity_inputs(
            seed in 0u64..1_000_000,
            len in 50usize..4_000,
            error_pct in 0usize..16,
            trim_pct in 0usize..40,
            swap in proptest::arbitrary::any::<bool>(),
        ) {
            let reference = random_seq(len, seed);
            let mut rng = SmallRng::seed_from_u64(seed + 1);
            let copy = apply_errors(&reference, error_pct as f64 / 100.0, &mut rng);
            let copy = copy.slice(0, copy.len() - copy.len() * trim_pct / 100);
            let (a, b) = if swap { (&reference, &copy) } else { (&copy, &reference) };
            let cfg = ConsensusConfig::default();
            let band = cfg.min_band.max(a.len().abs_diff(b.len()) + a.len().max(b.len()) / 50);
            let oracle = oracle_fit(a.codes(), b.codes(), 0, band, cfg.scoring);
            let (unpruned, cells) = kernel(a.codes(), b.codes(), 0, band, false);
            proptest::prop_assert!(cells > 0 || a.is_empty() || b.is_empty());
            proptest::prop_assert_eq!(unpruned, oracle);
        }
    }

    #[test]
    fn junk_segment_reaches_the_xdrop_end_and_the_fallback() {
        // A 12 kb read: 5 kb of genome, 2 kb of junk, 5 kb of genome.
        let genome = random_seq(20_000, 20);
        let junk = random_seq(2_000, 21);
        let mut codes = genome.codes()[5_000..10_000].to_vec();
        codes.extend_from_slice(junk.codes());
        codes.extend_from_slice(&genome.codes()[10_000..15_000]);
        let band = ConsensusConfig::default().band_for(codes.len());
        let scoring = ScoringScheme::default();

        // The window ends 4 kb into the read: the fit consumes it before the
        // junk, and the live span then empties (the X-drop end).
        let window = &genome.codes()[3_000..9_000];
        let oracle = oracle_fit(&codes, window, 2_000, band, scoring);
        let mut scratch = FitScratch::default();
        let fit = banded_fit(&codes, window, 2_000, band, scoring, true, &mut scratch);
        assert_eq!(fit, oracle);
        assert_eq!(fit.window_consumed, 4_000);
        assert!(scratch.rows.len() < codes.len(), "the X-drop test must end the DP early");

        // The window covers the whole read: inside the junk the best score
        // stalls before any free end, so the kernel refills unpruned and
        // recovers the oracle's path across the junk.
        let window = &genome.codes()[3_000..19_000];
        let oracle = oracle_fit(&codes, window, 2_000, band, scoring);
        let (unpruned, unpruned_cells) = kernel(&codes, window, 2_000, band, false);
        let (fit, cells) = kernel(&codes, window, 2_000, band, true);
        assert_eq!(fit, oracle);
        assert_eq!(unpruned, oracle);
        assert!(cells > unpruned_cells, "the fallback refills the read unpruned");
    }

    #[test]
    fn degenerate_fits_match_the_oracle() {
        let scoring = ScoringScheme::default();
        let read = random_seq(500, 22);
        // Empty window, empty read: a valid empty fit.
        let (fit, cells) = kernel(read.codes(), &[], 0, 32, true);
        assert_eq!((fit, cells), (BandedFit::empty(), 0));
        assert_eq!(kernel(&[], read.codes(), 0, 32, true).0, BandedFit::empty());
        assert_eq!(oracle_fit(read.codes(), &[], 0, 32, scoring), BandedFit::empty());
        // A read shorter than the band, at several placements.
        let short = read.slice(100, 120);
        for offset in [0, 10, 100, 200, 480, 500] {
            let oracle = oracle_fit(short.codes(), read.codes(), offset, 32, scoring);
            let (fit, _) = kernel(short.codes(), read.codes(), offset, 32, true);
            assert_eq!(fit, oracle, "offset {offset}");
        }
        // Identical read and window: an all-match fit.
        let oracle = oracle_fit(read.codes(), read.codes(), 0, 100, scoring);
        let (fit, _) = kernel(read.codes(), read.codes(), 0, 100, true);
        assert_eq!(fit, oracle);
        assert_eq!((fit.matches, fit.columns, fit.read_consumed), (500, 500, 500));
    }

    #[test]
    fn pruning_cuts_long_read_cells_eightfold_without_changing_the_consensus() {
        // 20 reads of 12 kb at 13% error, each overlapping the next by 9 kb.
        let genome = random_seq(12_000 + 19 * 3_000, 23);
        let (contig, s, reads) = tiling_layout(&genome, 12_000, 3_000, 0.13, 24);
        assert_eq!(contig.reads.len(), 20);
        let cfg = ConsensusConfig::default();
        let pruned = thread_layout(&contig, &s, &reads, &cfg, true);
        let unpruned = thread_layout(&contig, &s, &reads, &cfg, false);
        assert_eq!(pruned.consensus, unpruned.consensus);
        assert_eq!(pruned.poa_nodes, unpruned.poa_nodes);
        assert!(
            8 * pruned.dp_cells <= unpruned.dp_cells,
            "pruned {} vs unpruned {} cells",
            pruned.dp_cells,
            unpruned.dp_cells
        );
        assert!(pruned.dp_cells >= pruned.aligned_bases, "every aligned base fills a cell");
    }

    #[test]
    fn single_read_contig_consensus_is_the_read() {
        use dibella_seq::fasta::ReadRecord;
        let seq = random_seq(300, 1);
        let mut reads = ReadSet::new();
        reads.push(ReadRecord { name: "only".into(), seq: seq.clone() });
        let s = CsrMatrix::zero(1, 1);
        let contig = Contig { reads: vec![0], estimated_length: 300, circular: false };
        let out = consensus_contig(&contig, &s, &reads, &ConsensusConfig::default());
        assert_eq!(out.consensus, seq);
        assert_eq!(out.reads, 1);
        assert_eq!(out.poa_nodes, 300);
        assert_eq!(out.aligned_bases, 300);
    }

    #[test]
    fn error_free_tiling_reconstructs_the_genome_exactly() {
        let genome = random_seq(2_000, 2);
        let (contig, s, reads) = tiling_layout(&genome, 500, 250, 0.0, 3);
        let out = consensus_contig(&contig, &s, &reads, &ConsensusConfig::default());
        assert_eq!(out.consensus, genome, "error-free layout must reproduce the genome");
        assert_eq!(out.reads, contig.reads.len());
        assert!(out.poa_nodes >= genome.len());
    }

    #[test]
    fn noisy_tiling_consensus_beats_every_single_read() {
        let genome = random_seq(3_000, 4);
        let (contig, s, reads) = tiling_layout(&genome, 600, 60, 0.05, 5);
        let cfg = ConsensusConfig::default();
        let out = consensus_contig(&contig, &s, &reads, &cfg);
        let identity = banded_identity(&out.consensus, &genome, &cfg);
        assert!(
            identity > 0.99,
            "deep noisy pileup should polish to >99% identity, got {identity:.4}"
        );
        // Any single read has ~6% error; the consensus must be far better.
        let read_identity = banded_identity(
            reads.seq(0),
            &genome.slice(0, reads.seq(0).len() + 60),
            &cfg,
        );
        assert!(identity > read_identity, "{identity} vs raw read {read_identity}");
        let len_ratio = out.consensus.len() as f64 / genome.len() as f64;
        assert!((0.97..1.03).contains(&len_ratio), "length ratio {len_ratio}");
    }

    #[test]
    fn reverse_strand_reads_are_oriented_by_the_edge_direction() {
        use dibella_seq::fasta::ReadRecord;
        let genome = random_seq(900, 6);
        // Read 0 forward [0, 600), read 1 stored reverse-complemented [300, 900).
        let r0 = genome.slice(0, 600);
        let r1 = genome.slice(300, 900).reverse_complement();
        let mut reads = ReadSet::new();
        reads.push(ReadRecord { name: "f".into(), seq: r0 });
        reads.push(ReadRecord { name: "r".into(), seq: r1 });
        let mut t = dibella_sparse::Triples::new(2, 2);
        // Walking 0 -> 1 leaves 0 forward and traverses 1 reversed.
        t.push(0, 1, OverlapEdge { dir: 0b10, suffix: 300, score: 300, overlap_len: 300 });
        t.push(1, 0, OverlapEdge { dir: 0b10, suffix: 300, score: 300, overlap_len: 300 });
        let s = CsrMatrix::from_triples(&t);
        let contig = Contig { reads: vec![0, 1], estimated_length: 900, circular: false };
        let out = consensus_contig(&contig, &s, &reads, &ConsensusConfig::default());
        assert_eq!(out.consensus, genome, "reverse-strand read must be flipped before threading");
    }

    #[test]
    fn consensus_contigs_covers_every_layout() {
        let genome = random_seq(1_200, 7);
        let (contig, s, reads) = tiling_layout(&genome, 400, 200, 0.0, 8);
        let outs = consensus_contigs(&[contig.clone(), contig], &s, &reads, &ConsensusConfig::default());
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0], outs[1], "same layout must give the same consensus");
    }

    #[test]
    fn banded_identity_of_identical_and_disjoint_sequences() {
        let cfg = ConsensusConfig::default();
        let a = random_seq(500, 9);
        assert!((banded_identity(&a, &a, &cfg) - 1.0).abs() < 1e-12);
        let all_a = DnaSeq::from_codes(vec![0; 500]);
        let all_t = DnaSeq::from_codes(vec![3; 500]);
        assert!(banded_identity(&all_a, &all_t, &cfg) < 0.5);
        assert_eq!(banded_identity(&DnaSeq::new(), &a, &cfg), 0.0);
    }

    #[test]
    fn banded_identity_penalises_truncation() {
        let cfg = ConsensusConfig::default();
        let a = random_seq(800, 10);
        let half = a.slice(0, 400);
        let id = banded_identity(&a, &half, &cfg);
        assert!(id < 0.6, "aligning a sequence to its half cannot be near-identical: {id}");
        // The reverse direction too: a consensus that reproduces only a
        // prefix of the reference region must be penalised for the reference
        // bases it never reached, not scored on the prefix alone.
        let id_rev = banded_identity(&half, &a, &cfg);
        assert!(
            (0.4..0.6).contains(&id_rev),
            "a perfect half-prefix covers half the reference: {id_rev}"
        );
    }

    #[test]
    fn heaviest_path_prefers_the_majority_base() {
        // Three reads vote A at one position, one votes C: consensus takes A.
        use dibella_seq::fasta::ReadRecord;
        let base = random_seq(400, 11);
        let mut dissent_codes = base.codes().to_vec();
        dissent_codes[200] = (dissent_codes[200] + 1) % 4;
        let mut reads = ReadSet::new();
        for i in 0..3 {
            reads.push(ReadRecord { name: format!("m{i}"), seq: base.clone() });
        }
        reads.push(ReadRecord { name: "d".into(), seq: DnaSeq::from_codes(dissent_codes) });
        let mut t = dibella_sparse::Triples::new(4, 4);
        for i in 0..3usize {
            // Full-length overlaps: suffix 0 keeps the layout aligned.
            let e = OverlapEdge { dir: 0b11, suffix: 0, score: 400, overlap_len: 400 };
            t.push(i, i + 1, e);
            t.push(i + 1, i, OverlapEdge { dir: 0b00, ..e });
        }
        let s = CsrMatrix::from_triples(&t);
        let contig = Contig { reads: vec![0, 1, 2, 3], estimated_length: 400, circular: false };
        let out = consensus_contig(&contig, &s, &reads, &ConsensusConfig::default());
        assert_eq!(out.consensus, base, "majority vote must win the branch");
    }
}

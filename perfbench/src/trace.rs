//! In-memory span recording for the traced run.
//!
//! A [`Tracer`] records one [`Span`] per call into a pipeline layer: name,
//! start, end and parent, all sharing one run id.  Spans stay in memory
//! until the run ends; [`Trace::to_json`] writes them out afterwards.
//!
//! The tracer also owns the per-stage heap accounting: at every span
//! boundary it folds the allocator's high-water mark into every open span
//! and resets it, so each span's `peak_heap_bytes` is the highest resident
//! heap seen while that span was open (above the run's starting heap).

use dibella_testutil::PeakAlloc;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the span within its [`Trace`].
    pub id: usize,
    /// The span that was open when this one began (`None` for the root).
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `overlap.spgemm`.
    pub name: String,
    /// Start, in seconds since the tracer was created.
    pub start_s: f64,
    /// End, in seconds since the tracer was created.
    pub end_s: f64,
    /// Highest resident heap above the run's starting heap while the span
    /// was open; `None` for spans recorded from worker threads, whose
    /// intervals overlap and cannot be told apart by a global allocator.
    pub peak_heap_bytes: Option<u64>,
}

impl Span {
    /// Wall-clock length of the span in seconds.
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records nested spans on the calling thread.
pub struct Tracer<'a> {
    run_id: u64,
    origin: Instant,
    alloc: &'a PeakAlloc,
    heap_base: u64,
    spans: Vec<Span>,
    /// Open spans, innermost last, each with its running heap peak.
    open: Vec<(usize, u64)>,
}

impl<'a> Tracer<'a> {
    /// Start a trace; the heap resident now is the baseline every span's
    /// peak is measured above.
    pub fn new(run_id: u64, alloc: &'a PeakAlloc) -> Self {
        alloc.reset_peak();
        Self {
            run_id,
            origin: Instant::now(),
            alloc,
            heap_base: alloc.current(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant span offsets are measured from (for worker threads that
    /// time their own work and hand the interval to [`Tracer::record`]).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &str) -> usize {
        self.fold_heap_peak();
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().map(|&(open_id, _)| open_id),
            name: name.to_string(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            peak_heap_bytes: None,
        });
        self.open.push((id, 0));
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        self.fold_heap_peak();
        let (open_id, peak) = self.open.pop().expect("end() without a matching begin()");
        assert_eq!(open_id, id, "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end_s = self.origin.elapsed().as_secs_f64();
        span.peak_heap_bytes = Some(peak.saturating_sub(self.heap_base));
    }

    /// Run `body` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, body: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = body();
        self.end(id);
        out
    }

    /// Add an already-timed child span of `parent` (offsets from
    /// [`Tracer::origin`]), without heap accounting.
    pub fn record(&mut self, name: &str, parent: usize, start_s: f64, end_s: f64) {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name: name.to_string(),
            start_s,
            end_s,
            peak_heap_bytes: None,
        });
    }

    /// Close the trace; every span must have ended.
    pub fn finish(self) -> Trace {
        assert!(self.open.is_empty(), "trace finished with open spans");
        Trace {
            run_id: self.run_id,
            spans: self.spans,
        }
    }

    fn fold_heap_peak(&mut self) {
        let peak = self.alloc.peak_resident();
        for (_, running) in &mut self.open {
            *running = (*running).max(peak);
        }
        self.alloc.reset_peak();
    }
}

/// The spans of one traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Identifier shared by every span of the run.
    pub run_id: u64,
    /// Spans in the order they began.
    pub spans: Vec<Span>,
}

impl Trace {
    /// The first span called `name`.
    pub fn find(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The direct children of span `id`.
    pub fn children(&self, id: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Span `id`'s duration minus the part of its interval that its child
    /// spans cover (children running in parallel are counted once).
    pub fn self_time(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let mut intervals: Vec<(f64, f64)> = self
            .children(id)
            .map(|c| (c.start_s.max(span.start_s), c.end_s.min(span.end_s)))
            .filter(|(start, end)| end > start)
            .collect();
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = span.start_s;
        for (start, end) in intervals {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        span.duration() - covered
    }

    /// The spans as one JSON document, with each span's self time.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"run_id\": {}, \"spans\": [", self.run_id);
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let peak = s
                .peak_heap_bytes
                .map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_s\": {}, \
                 \"end_s\": {}, \"self_s\": {}, \"peak_heap_bytes\": {peak}}}",
                s.id,
                s.name,
                s.start_s,
                s.end_s,
                self.self_time(s.id),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_s,
            end_s,
            peak_heap_bytes: None,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let trace = Trace {
            run_id: 1,
            spans: vec![
                span(0, None, 0.0, 10.0),
                span(1, Some(0), 1.0, 4.0),
                span(2, Some(0), 3.0, 6.0),
                span(3, Some(0), 8.0, 9.0),
                span(4, Some(1), 1.0, 2.0),
            ],
        };
        assert!((trace.self_time(0) - 4.0).abs() < 1e-12);
        assert!((trace.self_time(1) - 2.0).abs() < 1e-12);
        assert!((trace.self_time(3) - 1.0).abs() < 1e-12);
    }
}

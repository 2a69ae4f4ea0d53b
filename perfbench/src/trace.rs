//! The traced pass's instruments, all owned by the benchmark: in-memory
//! spans opened around each call into a layer's public API, a telemetry
//! sink that sums the counters the program already emits, and a call
//! counter for acquisition closures.

use mfbo_telemetry::{Kind, Level, Record, Sink, Value};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span: a named interval on the benchmark's main thread.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    /// Run the span belongs to (set with [`Tracer::set_run`]).
    pub run: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory; they are written out once, at the end.
/// Single-threaded: the benchmark opens spans only on its main thread.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<SpanRec>>,
    open: RefCell<Vec<usize>>,
    run: Cell<u32>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    idx: usize,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        self.tracer.spans.borrow_mut()[self.idx].end_ns = end;
        let popped = self.tracer.open.borrow_mut().pop();
        debug_assert_eq!(popped, Some(self.idx), "spans close in LIFO order");
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            run: Cell::new(0),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags every span opened from now on with `run`.
    pub fn set_run(&self, run: u32) {
        self.run.set(run);
    }

    /// Opens a span, child of the innermost open one.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        let parent = self.open.borrow().last().copied();
        let start = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans.push(SpanRec {
            name,
            run: self.run.get(),
            parent,
            start_ns: start,
            end_ns: start,
        });
        let idx = spans.len() - 1;
        self.open.borrow_mut().push(idx);
        Guard { tracer: self, idx }
    }

    /// Every span recorded so far (closed ones carry their end time).
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.borrow().clone()
    }

    /// Writes all spans as JSON lines, with their self times.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.borrow();
        let selfs = self_times(&spans);
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in spans.iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"run\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.run, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Opens a span when tracing, nothing otherwise.
pub fn span<'a>(tracer: Option<&'a Tracer>, name: &'static str) -> Option<Guard<'a>> {
    tracer.map(|t| t.span(name))
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once; any part
/// of a child outside the parent is ignored).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals over the spans `keep` selects: `(calls, total ns,
/// self ns)`.
pub fn totals_by_name(
    spans: &[SpanRec],
    keep: impl Fn(&SpanRec) -> bool,
) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs).filter(|(s, _)| keep(s)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += self_ns;
    }
    out
}

/// A telemetry sink that keeps only sums: how many records arrived and
/// the total of every counter by name. Installed globally for a traced
/// pass, so counters emitted on pool threads are caught too.
#[derive(Default)]
pub struct CountingSink {
    records: AtomicU64,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl Sink for CountingSink {
    fn max_level(&self) -> Level {
        // Counters are emitted at Debug.
        Level::Debug
    }

    fn record(&self, rec: &Record) {
        self.records.fetch_add(1, Ordering::Relaxed);
        if rec.kind != Kind::Counter {
            return;
        }
        let v = match rec.field("value") {
            Some(Value::U64(v)) => *v,
            Some(Value::I64(v)) => (*v).max(0) as u64,
            Some(Value::F64(v)) if *v > 0.0 => *v as u64,
            _ => 0,
        };
        *self
            .counters
            .lock()
            .expect("counting sink lock poisoned by a panicking emitter")
            .entry(rec.name)
            .or_default() += v;
    }
}

impl CountingSink {
    /// Records received so far.
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Sum of counter `name` so far (0 if never emitted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("counting sink lock poisoned by a panicking emitter")
            .get(name)
            .copied()
            .unwrap_or(0)
    }
}

/// Wraps an objective closure and counts its calls, from any thread.
pub struct Counted<F> {
    f: F,
    calls: AtomicU64,
}

impl<F: Fn(&[f64]) -> f64> Counted<F> {
    pub fn new(f: F) -> Self {
        Counted {
            f,
            calls: AtomicU64::new(0),
        }
    }

    pub fn call(&self, x: &[f64]) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        (self.f)(x)
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfbo_telemetry::{counter, event};
    use std::sync::Arc;

    fn rec(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            name,
            run: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec("run", None, 0, 100),
            rec("a", Some(0), 10, 30),
            // Overlaps "a": the union [10, 50] counts once.
            rec("b", Some(0), 20, 50),
            // Runs past its parent: only [90, 100] is covered.
            rec("c", Some(0), 90, 120),
            rec("leaf", Some(1), 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6]);
        let totals = totals_by_name(&spans, |_| true);
        assert_eq!(totals["run"], (1, 100, 50));
        assert_eq!(totals["leaf"], (1, 6, 6));
        // Filtering keeps self times computed against every child.
        let only_run = totals_by_name(&spans, |s| s.name == "run");
        assert_eq!(only_run.len(), 1);
        assert_eq!(only_run["run"], (1, 100, 50));
    }

    #[test]
    fn tracer_nests_spans_and_tags_runs() {
        let t = Tracer::default();
        t.set_run(7);
        {
            let _outer = t.span("outer");
            let _inner = span(Some(&t), "inner");
        }
        let _next = t.span("next");
        drop(_next);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.run == 7 && s.end_ns >= s.start_ns));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(span(None, "off").is_none());
    }

    #[test]
    fn counted_closure_counts_every_call_across_threads() {
        let c = Counted::new(|x: &[f64]| x[0] * 2.0);
        assert_eq!(c.call(&[1.5]), 3.0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..250 {
                        c.call(&[0.0]);
                    }
                });
            }
        });
        assert_eq!(c.calls(), 1001);
    }

    #[test]
    fn sink_sums_counters_by_name_and_counts_records() {
        let sink = Arc::new(CountingSink::default());
        {
            let _g = mfbo_telemetry::scoped_sink(sink.clone());
            counter!("nlml_evals", 12);
            counter!("nlml_evals", 30u64);
            counter!("predict_batch_points", 5usize);
            event!("not_a_counter", value = 99u64);
        }
        assert_eq!(sink.counter("nlml_evals"), 42);
        assert_eq!(sink.counter("predict_batch_points"), 5);
        assert_eq!(sink.counter("not_a_counter"), 0);
        assert_eq!(sink.counter("never_emitted"), 0);
        assert_eq!(sink.records(), 4);
    }
}

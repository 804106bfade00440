//! The benchmark's own span recording: a span around each call into a
//! layer's public function, kept in memory, written out as Chrome
//! `trace_event` JSON when the run ends. Spans live in the benchmark's
//! code only — the program under test is not instrumented — so a
//! layer's cost is what its callers see from outside.
//!
//! A span is named `<layer>.<function>`; the layer is everything up to
//! the last dot. A span opened while none is open is the root of an
//! *op* and takes the next op id; spans opened inside it share the id
//! and name it as their parent. Self time is a span's duration minus
//! its direct children's.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<u32>,
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span log. Recording off costs one branch per call.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    ops: u32,
}

impl Recorder {
    /// `origin` is shared by every recorder of a run so their
    /// timestamps line up in one trace.
    pub fn new(origin: Instant, enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggle recording between ops only");
        self.enabled = enabled;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let parent = self.open.last().copied();
        if parent.is_none() {
            self.ops += 1;
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            op: self.ops,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over one or more recorders.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span of one recorder: duration minus the summed
/// durations of its direct children (children of one thread never
/// overlap, so the sum never exceeds the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// What the spans of a run add up to.
#[derive(Debug, Default)]
pub struct Attribution {
    pub by_name: BTreeMap<&'static str, NameTotals>,
    /// Summed duration of op roots, and the part no child span covers.
    pub root_ns: u64,
    pub root_self_ns: u64,
    pub spans: u64,
}

impl Attribution {
    pub fn of(recorders: &[&Recorder]) -> Attribution {
        let mut a = Attribution::default();
        for rec in recorders {
            let own = self_times(rec.spans());
            for (span, self_ns) in rec.spans().iter().zip(own) {
                let t = a.by_name.entry(span.name).or_default();
                t.count += 1;
                t.total_ns += span.dur_ns();
                t.self_ns += self_ns;
                if span.parent.is_none() {
                    a.root_ns += span.dur_ns();
                    a.root_self_ns += self_ns;
                }
                a.spans += 1;
            }
        }
        a
    }

    /// Share of op wall time that no span below the root covers.
    pub fn unattributed_ratio(&self) -> f64 {
        crate::stats::ratio(self.root_self_ns as f64, self.root_ns as f64)
    }

    /// Mean duration of the spans named `name`, in microseconds.
    pub fn mean_us(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |t| {
            crate::stats::ratio(t.total_ns as f64 / 1e3, t.count as f64)
        })
    }
}

/// The layer of a span name: everything before the last dot.
pub fn layer(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Spans written per trace file; a service run records a hundred
/// thousand, and the first ones show all there is to see.
const MAX_WRITTEN: usize = 40_000;

/// Renders the recorders (one Chrome thread each) as `trace_event`
/// JSON: complete (`X`) events in microseconds, the op id and parent
/// span in `args`. Loads in Perfetto and `chrome://tracing`. Each
/// recorder writes its first spans, [`MAX_WRITTEN`] between them.
pub fn chrome_json(workload: &str, recorders: &[&Recorder]) -> String {
    let each = MAX_WRITTEN / recorders.len().max(1);
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{{\"name\":\"benchmark {workload}\"}}}}"
    ));
    for (tid, rec) in recorders.iter().enumerate() {
        for (index, s) in rec.spans().iter().take(each).enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{tid},\"args\":{{\"op\":{},\"span\":{index},\"parent\":{parent}}}}}",
                s.name,
                layer(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op,
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested() -> Recorder {
        let mut rec = Recorder::new(Instant::now(), true);
        for _ in 0..3 {
            rec.span("bench.op", |rec| {
                rec.span("sim.Sim::run", |rec| {
                    rec.span("core.ExecBackend::new", |_| std::hint::black_box(1 + 1));
                });
                rec.span("trace.MetricsReport::from_trace", |_| ());
            });
        }
        rec
    }

    #[test]
    fn self_time_never_exceeds_the_span_or_its_parent() {
        let rec = nested();
        let own = self_times(rec.spans());
        for (span, &self_ns) in rec.spans().iter().zip(&own) {
            assert!(self_ns <= span.dur_ns());
            if let Some(p) = span.parent {
                let parent = &rec.spans()[p as usize];
                assert!(span.start_ns >= parent.start_ns && span.end_ns <= parent.end_ns);
                assert!(span.dur_ns() <= parent.dur_ns());
                assert_eq!(span.op, parent.op);
            }
        }
        let a = Attribution::of(&[&rec]);
        assert_eq!(a.by_name["bench.op"].count, 3);
        assert_eq!(a.spans, 12);
        let covered: u64 = a.by_name.values().map(|t| t.self_ns).sum();
        assert_eq!(covered, a.root_ns, "self times partition the op time");
        assert!((0.0..=1.0).contains(&a.unattributed_ratio()));
    }

    #[test]
    fn ops_are_numbered_and_disabled_recording_keeps_nothing() {
        let rec = nested();
        let ops: Vec<u32> = rec
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.op)
            .collect();
        assert_eq!(ops, [1, 2, 3]);
        let mut off = Recorder::new(Instant::now(), false);
        assert_eq!(off.span("bench.op", |_| 7), 7);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let rec = nested();
        let text = chrome_json("unit", &[&rec]);
        let doc = tpal_trace::json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 1 + rec.spans().len());
        assert_eq!(layer("serve.http.read_request"), "serve.http");
    }
}

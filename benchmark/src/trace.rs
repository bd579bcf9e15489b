//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each crate. A span has an id, the id of the span that caused it
//! (0 for none), the session it served (0 for none), a name, and start
//! and end in ns since the tracer started. Shadow spans time a codec or
//! container stage run beside the real call, outside its interval; their
//! parent is the real call, so a name's self time (its busy time minus
//! its children's) estimates the share of the call the stages do not
//! explain.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Spans kept for the trace file; later spans still count in the
/// per-name totals.
const MAX_KEPT_SPANS: usize = 50_000;

struct Span {
    id: u64,
    parent: u64,
    session: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Calls and busy time of one span name.
#[derive(Clone, Copy, Default)]
pub struct Totals {
    /// Spans recorded.
    pub calls: u64,
    /// Summed duration, in ns.
    pub busy_ns: u64,
    /// Summed duration of the spans' children, in ns.
    pub child_ns: u64,
}

impl Totals {
    /// Summed duration, in seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }

    /// Busy time not covered by children, in seconds (negative when a
    /// shadow stage ran slower than inside the real call).
    pub fn self_s(&self) -> f64 {
        (self.busy_ns as f64 - self.child_ns as f64) * 1e-9
    }
}

/// A recorded span, for naming it as the parent of later spans.
#[derive(Clone, Copy)]
pub struct SpanRef {
    id: u64,
    name: &'static str,
    dur_ns: u64,
}

impl SpanRef {
    /// How long the span ran.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.dur_ns)
    }
}

/// The span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    recorded: u64,
    totals: BTreeMap<&'static str, Totals>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            recorded: 0,
            totals: BTreeMap::new(),
        }
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanRef>,
        session: u64,
        start: Instant,
        end: Instant,
    ) -> SpanRef {
        self.recorded += 1;
        let id = self.recorded;
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        let dur = end_ns - start_ns;
        let t = self.totals.entry(name).or_default();
        t.calls += 1;
        t.busy_ns += dur;
        if let Some(p) = parent {
            self.totals.entry(p.name).or_default().child_ns += dur;
        }
        if self.spans.len() < MAX_KEPT_SPANS {
            self.spans.push(Span {
                id,
                parent: parent.map_or(0, |p| p.id),
                session,
                name,
                start_ns,
                end_ns,
            });
        }
        SpanRef {
            id,
            name,
            dur_ns: dur,
        }
    }

    /// Runs `f` as a span and returns its result with the span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanRef>,
        session: u64,
        f: impl FnOnce() -> R,
    ) -> (R, SpanRef) {
        let start = Instant::now();
        let r = f();
        let span = self.record(name, parent, session, start, Instant::now());
        (r, span)
    }

    /// Totals of one span name (zero if never recorded).
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Spans recorded, kept or not.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Prints the per-name table: calls, busy and self seconds.
    pub fn print_table(&self) {
        println!("# span name calls busy_s self_s");
        for (name, t) in &self.totals {
            println!(
                "# span {name} {} {:.6} {:.6}",
                t.calls,
                t.busy_s(),
                t.self_s()
            );
        }
    }

    /// The trace as JSON: the kept spans and the count of those dropped.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = String::with_capacity(self.spans.len() * 96 + 128);
        let _ = write!(
            s,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"dropped\": {}, \"spans\": [",
            self.recorded - self.spans.len() as u64
        );
        for (i, sp) in self.spans.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n{{\"id\": {}, \"parent\": {}, \"session\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { "," },
                sp.id,
                sp.parent,
                sp.session,
                sp.name,
                sp.start_ns,
                sp.end_ns
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

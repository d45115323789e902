//! Outside-in span tracing: the benchmark wraps every call it makes into
//! a layer's public functions in a named span. Spans nest on a stack, so
//! each span's *self* time is its duration minus the time its child
//! spans cover, and the self times of all spans plus the benchmark's own
//! untraced code add up exactly to the wall time of the traced region.
//!
//! A disabled tracer calls the wrapped function directly; the untraced
//! end-to-end runs pay one branch per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Per-span-name totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    /// Calls made.
    pub calls: u64,
    /// Wall time including child spans, ns.
    pub total_ns: u64,
    /// Wall time minus child spans, ns.
    pub self_ns: u64,
}

struct Frame {
    start: u64,
    child_ns: u64,
}

#[derive(Default)]
struct State {
    stack: Vec<Frame>,
    spans: BTreeMap<&'static str, SpanTotals>,
    /// Durations of top-level spans, summed: equal to the sum of all
    /// self times by construction.
    top_ns: u64,
    /// Per-call durations, by span name.
    samples: BTreeMap<&'static str, Vec<u64>>,
}

struct Inner {
    origin: Instant,
    enabled: bool,
    state: RefCell<State>,
}

/// A span recorder; clones share one record. See the
/// [module docs](self).
#[derive(Clone)]
pub struct Tracer(Rc<Inner>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer(Rc::new(Inner {
            origin: Instant::now(),
            enabled,
            state: RefCell::new(State::default()),
        }))
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.0.enabled
    }

    /// Nanoseconds since the tracer was made: the one clock every span
    /// and wall-time window reads, so sums stay exact.
    pub fn now(&self) -> u64 {
        self.0.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.0.enabled {
            return f();
        }
        let start = self.now();
        self.0
            .state
            .borrow_mut()
            .stack
            .push(Frame { start, child_ns: 0 });
        let out = f();
        let end = self.now();
        let mut st = self.0.state.borrow_mut();
        let frame = st.stack.pop().expect("span stack is balanced");
        let dur = end - frame.start;
        match st.stack.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None => st.top_ns += dur,
        }
        let t = st.spans.entry(name).or_default();
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur - frame.child_ns;
        st.samples.entry(name).or_default().push(dur);
        out
    }

    /// Totals for `name` (zeros if it never ran).
    pub fn totals(&self, name: &str) -> SpanTotals {
        self.0
            .state
            .borrow()
            .spans
            .get(name)
            .copied()
            .unwrap_or_default()
    }

    /// Every span's totals, by name.
    pub fn all(&self) -> Vec<(&'static str, SpanTotals)> {
        self.0
            .state
            .borrow()
            .spans
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect()
    }

    /// Sum of top-level span durations (= sum of all self times).
    pub fn top_ns(&self) -> u64 {
        self.0.state.borrow().top_ns
    }

    /// The per-call durations of `name`.
    pub fn samples(&self, name: &str) -> Vec<u64> {
        self.0
            .state
            .borrow()
            .samples
            .get(name)
            .cloned()
            .unwrap_or_default()
    }
}

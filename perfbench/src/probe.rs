//! The benchmark's tracer: spans around every call into a layer, plus the
//! process-wide predicate and simulator counters sampled at the same
//! boundaries.
//!
//! A [`Probe`] with tracing off only runs the closures it is handed; with
//! tracing on it records one root span per op (or per set-up) and one child
//! span per layer call, all kept in memory until the run ends.

use psp_predicate::stats::{self as pred_stats, PredOpStats};
use psp_sim::stats::{self as sim_stats, SimStats};
use std::fmt::Write as _;
use std::time::Instant;

/// Op id of the root span of a set-up.
pub const SETUP_OP: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`core.pipeline`, `sim.equiv`, ...) or `op`/`setup`.
    pub name: &'static str,
    /// Op id ([`SETUP_OP`] inside a set-up).
    pub op: u32,
    /// Index of the parent span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the probe was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the probe was created.
    pub end_ns: u64,
    /// Predicate-algebra work done inside the span.
    pub pred: PredOpStats,
    /// Simulator work done inside the span.
    pub sim: SimStats,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Span recorder.
#[derive(Debug)]
pub struct Probe {
    tracing: bool,
    epoch: Instant,
    spans: Vec<Span>,
    root: Option<usize>,
}

impl Probe {
    /// A probe that records spans only when `tracing` is set.
    pub fn new(tracing: bool) -> Self {
        Probe {
            tracing,
            epoch: Instant::now(),
            spans: Vec::new(),
            root: None,
        }
    }

    /// Switch recording on or off between roots.
    pub fn set_tracing(&mut self, on: bool) {
        assert!(self.root.is_none(), "tracing toggled inside a root span");
        self.tracing = on;
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn open(&mut self, name: &'static str, op: u32, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            pred: pred_stats::snapshot(),
            sim: sim_stats::snapshot(),
        });
        self.spans.len() - 1
    }

    fn close(&mut self, idx: usize) {
        let end = self.epoch.elapsed().as_nanos() as u64;
        let pred = pred_stats::snapshot();
        let sim = sim_stats::snapshot();
        let s = &mut self.spans[idx];
        s.end_ns = end;
        s.pred = pred.delta(&s.pred);
        s.sim = sim.delta(&s.sim);
    }

    /// Run `f` as the root span of op `op` (or of a set-up, with
    /// [`SETUP_OP`]). Returns `f`'s result and its wall time in seconds.
    pub fn root<R>(
        &mut self,
        name: &'static str,
        op: u32,
        f: impl FnOnce(&mut Probe) -> R,
    ) -> (R, f64) {
        let idx = if self.tracing {
            Some(self.open(name, op, None))
        } else {
            None
        };
        self.root = idx;
        let t0 = Instant::now();
        let r = f(self);
        let secs = t0.elapsed().as_secs_f64();
        if let Some(i) = idx {
            self.close(i);
        }
        self.root = None;
        (r, secs)
    }

    /// Run one call into a layer as a child of the current root.
    pub fn layer<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.tracing {
            return f();
        }
        let parent = self.root;
        let op = parent.map_or(SETUP_OP, |p| self.spans[p].op);
        let idx = self.open(name, op, parent);
        let r = f();
        self.close(idx);
        r
    }

    /// Self time of every span: its duration minus the part covered by its
    /// children (children never overlap: layer calls are sequential).
    pub fn self_us(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.us();
            }
        }
        out
    }

    /// The spans as JSON lines (one object per span).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let op = if s.op == SETUP_OP {
                "\"setup\"".to_string()
            } else {
                s.op.to_string()
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{op},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"pred\":{},\"sim\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.pred.to_json(),
                s.sim.to_json()
            );
        }
        out
    }
}

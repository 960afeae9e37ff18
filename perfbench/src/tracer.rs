//! In-memory spans recorded around calls into each layer's public
//! functions, aggregated into per-layer self times and written out when the
//! run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::report::Outcome;
use crate::stats::median;
use crate::{LayerMetrics, Run};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The operation (job, search or request) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder; threads each own one, sharing an epoch.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named after the layer it calls into.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, op, parent, start_ns, end_ns: start_ns });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Default)]
pub struct Layers {
    /// Span duration minus the part its child spans cover, per name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Spans per name.
    pub count: BTreeMap<&'static str, u64>,
    /// Summed duration of top-level spans (they never overlap on a thread).
    pub root_ns: u64,
}

impl Layers {
    pub fn add(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            match s.parent {
                Some(p) => child_ns[p] += s.ns(),
                None => self.root_ns += s.ns(),
            }
        }
        for (s, child) in spans.iter().zip(child_ns) {
            *self.self_ns.entry(s.name).or_default() += s.ns().saturating_sub(child);
            *self.count.entry(s.name).or_default() += 1;
        }
    }

    /// Self time of `name` in milliseconds per `per` operations.
    pub fn ms_per(&self, name: &str, per: usize) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / per.max(1) as f64
    }

    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (name, ns) in &self.self_ns {
            let _ = write!(out, "{name}={:.1}ms/{} ", *ns as f64 / 1e6, self.count[name]);
        }
        out
    }
}

/// Ends a full traced run: the share of traced wall time its top-level
/// spans account for (`accounted_ns` over `lanes` client threads), the
/// traced passes' overhead against the untraced `reference` passes of the
/// same invocation, and every span written out.
#[allow(clippy::too_many_arguments)]
pub fn finish(
    run: &Run,
    walls: &[Duration],
    reference: &[Duration],
    accounted_ns: u64,
    lanes: usize,
    spans: &[&[Span]],
    layers: &mut LayerMetrics,
    out: &mut Outcome,
) {
    let secs = |w: &[Duration]| w.iter().map(Duration::as_secs_f64).collect::<Vec<_>>();
    let wall: f64 = secs(walls).iter().sum();
    layers.set(
        "trace.accounted_share",
        accounted_ns as f64 / 1e9 / (lanes as f64 * wall),
        "1",
    );
    layers.set(
        "trace.overhead_share",
        median(&secs(walls)) / median(&secs(reference)) - 1.0,
        "1",
    );
    match write_spans(&format!("spans-{}-seed{}.tsv", run.workload, run.seed), spans) {
        Ok(path) => out.note(format!("spans written to {path}")),
        Err(e) => out.note(format!("spans not written: {e}")),
    }
}

/// Writes every span as one tab-separated line under `.bench_out/`, named
/// after the workload and seed; returns the path written.
fn write_spans(file: &str, threads: &[&[Span]]) -> std::io::Result<String> {
    let mut text = String::from("thread\top\tname\tparent\tstart_ns\tend_ns\n");
    for (t, spans) in threads.iter().enumerate() {
        for s in *spans {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            let _ = writeln!(
                text,
                "{t}\t{}\t{}\t{parent}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
    }
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(".bench_out/{file}");
    std::fs::write(&path, text)?;
    Ok(path)
}

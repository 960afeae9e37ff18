//! What one run measured, and the result line the run ends with.

use std::fmt::Write as _;
use std::time::Duration;

use crate::stats::{median, quantile, tail_level};

/// One named metric value.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one invocation reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong output.
    pub failed: u64,
    /// Whether every output check passed.
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Human-readable report lines, printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Prints the report lines, then the JSON result as the last line.
    pub fn print(&self) {
        for line in &self.notes {
            println!("# {line}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A non-finite figure is not valid JSON; it can only come from
            // an empty sample, which `correct` already reports.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Where a workload's tail percentile is taken. Either way the percentile
/// stays the same from commit to commit, so a faster program that fits more
/// samples into a run does not move its tail to a higher percentile.
#[derive(Clone, Copy, PartialEq)]
pub enum TailWindow {
    /// Over every sample of the run, at this fixed level: the highest
    /// percentile with ten samples beyond it at the recorded sample count
    /// (a lower one only if a run falls short of that).
    Run(f64),
    /// Within each pass of this many samples, at the highest percentile with
    /// ten of them beyond it; median and tail are medians over passes.
    Pass(usize),
}

/// Median and tail latency of one pass's samples, the tail at the level
/// [`TailWindow::Pass`] uses for that many samples.
pub fn pass_quantiles(samples: &[f64]) -> (f64, f64) {
    (median(samples), quantile(samples, tail_level(samples.len()).0))
}

/// The raw timings of one untraced run.
#[derive(Default)]
pub struct Timed {
    /// Each repetition of the workload's set-up.
    pub setups: Vec<Duration>,
    /// Wall time of each whole pass over the workload's fixed mix.
    pub pass_walls: Vec<Duration>,
    /// Every latency sample of the run in ms ([`TailWindow::Run`]).
    pub latencies: Vec<f64>,
    /// Each pass's [`pass_quantiles`] in ms ([`TailWindow::Pass`]).
    pub pass_quantiles: Vec<(f64, f64)>,
    /// Units of work one pass completes (faults, evaluations, replies).
    pub work_per_pass: f64,
    pub peak_heap_mib: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Turns a run's timings into the six end-to-end metrics.
pub fn end_to_end(timed: &Timed, window: TailWindow, out: &mut Outcome) {
    let secs: Vec<f64> = timed.setups.iter().map(Duration::as_secs_f64).collect();
    out.push("setup_s", median(&secs), "s");
    let rates: Vec<f64> =
        timed.pass_walls.iter().map(|w| timed.work_per_pass / w.as_secs_f64()).collect();
    out.push("throughput", median(&rates), "1/s");
    let (p50, tail, level, beyond, scope) = match window {
        TailWindow::Run(level) => {
            let all = &timed.latencies;
            let fixed = (level, all.len() - (level * all.len() as f64).ceil() as usize);
            let (q, beyond) = if fixed.1 >= 10 { fixed } else { tail_level(all.len()) };
            let scope = format!("over all {} samples of the run", all.len());
            (median(all), quantile(all, q), q, beyond, scope)
        }
        TailWindow::Pass(n) => {
            let (q, beyond) = tail_level(n);
            let p50s: Vec<f64> = timed.pass_quantiles.iter().map(|p| p.0).collect();
            let tails: Vec<f64> = timed.pass_quantiles.iter().map(|p| p.1).collect();
            let scope = format!(
                "within each pass of {n} samples, median over {} passes",
                tails.len()
            );
            (median(&p50s), median(&tails), q, beyond, scope)
        }
    };
    out.push("latency_p50_ms", p50, "ms");
    out.push("latency_tail_ms", tail, "ms");
    out.push("peak_heap_mb", timed.peak_heap_mib, "MiB");
    let attempted = timed.attempted.max(1) as f64;
    out.push("success_rate", 1.0 - timed.failed as f64 / attempted, "1");
    out.note(format!(
        "latency_tail_ms is p{} {scope} ({beyond} samples beyond it per window)",
        level * 100.0
    ));
    out.note(format!(
        "runs: {} set-ups, {} passes, {} operations ({} failed), {:.3} s measured",
        timed.setups.len(),
        timed.pass_walls.len(),
        timed.attempted,
        timed.failed,
        timed.pass_walls.iter().map(Duration::as_secs_f64).sum::<f64>()
    ));
    let setups: Vec<String> = secs.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    out.note(format!("set-up ms: {}", setups.join(" ")));
    let pass_rates: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    out.note(format!("throughput per pass: {}", pass_rates.join(" ")));
    out.attempted = timed.attempted;
    out.failed = timed.failed;
}

/// Git revision (when the tree is a git checkout), a digest of the program
/// sources, host cores and build profile.
pub fn provenance() -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "provenance: rev {} sources {:016x} nproc {cores} profile {profile}",
        git_rev().unwrap_or_else(|| "none".into()),
        source_digest()
    )
}

fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => std::fs::read_to_string(format!(".git/{name}"))
            .ok()
            .map(|r| r.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed.lines().find(|l| l.ends_with(name)).map(|l| l[..40].to_string())
            }),
    }
}

/// FNV-1a over every file under `crates/`, in path order: identifies the
/// program version even in a checkout without git metadata.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

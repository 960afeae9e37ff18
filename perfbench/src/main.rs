//! `perfbench` — the end-to-end and per-layer benchmark of the mbist
//! workspace. One invocation runs one named workload from a seed:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload coverage_campaign --seed 1 --seconds 12 --trace 0
//! ```
//!
//! `--trace 0` measures with tracing off and prints every end-to-end
//! metric; `--trace 1` runs the traced variant and prints every per-layer
//! metric. Every line but the last is the human-readable report
//! (provenance, tail percentile, sample counts); the last line is the JSON
//! result. `--record coverage|search` regenerates the recorded
//! expectations under `perfbench/expect/`. Run it from the repository root.

mod alloc;
mod coverage;
mod report;
mod search;
mod serve;
mod stats;
mod tracer;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use report::Outcome;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 4] =
    ["coverage_campaign", "search_synth", "serve_direct", "serve_router"];

/// Every per-layer metric a traced run reports, with its unit.
const PER_LAYER: [(&str, &str); 36] = [
    ("mem.universe.ms_per_job", "ms"),
    ("mem.universe.faults", "count"),
    ("march.expand.ms_per_job", "ms"),
    ("march.trace.ms_per_job", "ms"),
    ("march.trace.kib", "KiB"),
    ("march.fanout.ms_per_job", "ms"),
    ("march.fanout.faults_per_s", "1/s"),
    ("march.fanout.packed_share", "1"),
    ("march.fanout.sliced_share", "1"),
    ("march.fanout.full_share", "1"),
    ("march.fanout.speedup_auto_vs_1", "1"),
    ("cli.ms_per_job", "ms"),
    ("search.fitness.setup_ms", "ms"),
    ("search.fitness.exact_ms", "ms"),
    ("march.score.compile_ms", "ms"),
    ("march.score.simulate_ms", "ms"),
    ("search.strategy.ms", "ms"),
    ("search.fitness.evaluations", "count"),
    ("search.fitness.memo_hits", "count"),
    ("service.protocol.parse_us", "us"),
    ("service.json.encode_us", "us"),
    ("service.server.wire_us", "us"),
    ("service.server.exec_us.coverage", "us"),
    ("service.server.exec_us.detects", "us"),
    ("service.server.queue_wait_us", "us"),
    ("service.cache.trace_hit_ratio", "1"),
    ("service.cache.result_hit_ratio", "1"),
    ("service.cache.kib", "KiB"),
    ("service.server.busy", "count"),
    ("service.server.timeouts", "count"),
    ("service.router.forwarded", "count"),
    ("service.router.shed", "count"),
    ("service.router.place_us", "us"),
    ("service.router.hop_us", "us"),
    ("trace.accounted_share", "1"),
    ("trace.overhead_share", "1"),
];

/// One invocation's inputs.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
}

impl Run {
    /// How long the measured phase runs (whole passes, so slightly longer).
    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// Per-layer figures of a traced run. The first writer of a name wins, so
/// the requested workload's own figures take precedence over the probes
/// that fill the layers it never calls into.
#[derive(Default)]
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &str) {
        debug_assert!(PER_LAYER.contains(&(name, unit)), "undeclared layer metric {name}");
        self.0.entry(name).or_insert(value);
    }

    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

fn parse_args() -> Result<(Run, bool, Option<String>), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    if let Some(what) = value("--record") {
        let run = Run { workload: String::new(), seed: 0, seconds: 0 };
        return Ok((run, false, Some(what.to_string())));
    }
    let workload = value("--workload").ok_or("missing --workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` ({})", WORKLOADS.join("|")));
    }
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        value(flag)
            .map_or(Ok(default), |v| v.parse().map_err(|_| format!("invalid {flag} `{v}`")))
    };
    let run = Run {
        workload,
        seed: number("--seed", 1)?,
        seconds: number("--seconds", 12)?.max(1),
    };
    let trace = match number("--trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok((run, trace, None))
}

fn traced(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = LayerMetrics::default();
    match run.workload.as_str() {
        "coverage_campaign" => coverage::traced(run, true, &mut layers, &mut out),
        "search_synth" => search::traced(run, true, &mut layers, &mut out),
        "serve_direct" => {
            serve::traced(run, serve::Mode::Direct, true, &mut layers, &mut out)
        }
        _ => serve::traced(run, serve::Mode::Router, true, &mut layers, &mut out),
    }
    // Layers the workload never calls into are measured by one traced pass
    // of the workload that does, so every figure is a measurement.
    if !layers.has("cli.ms_per_job") {
        coverage::traced(run, false, &mut layers, &mut out);
    }
    if !layers.has("search.strategy.ms") {
        search::traced(run, false, &mut layers, &mut out);
    }
    if !layers.has("service.server.wire_us") {
        serve::traced(run, serve::Mode::Direct, false, &mut layers, &mut out);
    }
    if !layers.has("service.router.hop_us") {
        serve::traced(run, serve::Mode::Router, false, &mut layers, &mut out);
    }
    for (name, unit) in PER_LAYER {
        let value = layers.0.get(name).copied().unwrap_or(f64::NAN);
        out.push(name, value, unit);
    }
    out.correct = out.failed == 0 && out.metrics.iter().all(|m| m.value.is_finite());
    out.attempted = out.attempted.max(1);
    out
}

fn main() -> ExitCode {
    let (run, trace, record) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if let Some(what) = record {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/expect");
        let done = match what.as_str() {
            "coverage" => coverage::record(&format!("{dir}/coverage.tsv")),
            "search" => search::record(&format!("{dir}/search.tsv")),
            other => Err(std::io::Error::other(format!("unknown record target `{other}`"))),
        };
        return match done {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut out = if trace {
        traced(&run)
    } else {
        match run.workload.as_str() {
            "coverage_campaign" => coverage::timed(&run),
            "search_synth" => search::timed(&run),
            "serve_direct" => serve::timed(&run, serve::Mode::Direct),
            _ => serve::timed(&run, serve::Mode::Router),
        }
    };
    out.notes.insert(0, report::provenance());
    out.notes.insert(
        1,
        format!(
            "workload {} seed {} seconds {} trace {}",
            run.workload,
            run.seed,
            run.seconds,
            u8::from(trace)
        ),
    );
    out.print();
    ExitCode::SUCCESS
}

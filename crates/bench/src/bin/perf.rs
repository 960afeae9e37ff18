//! Std-only coverage-engine performance harness.
//!
//! Measures fault simulation in two modes on the same sampled fault
//! universes:
//!
//! - `detect_jobs1`: the full-replay oracle, early exit at the first
//!   miscompare, forced serial (`jobs = 1`);
//! - `packed`: the lane-packed bit-parallel engine (256 congruent faults
//!   per `[u64; 4]` lane-block batch, per-fault sliced replay for the
//!   decoder class), which always runs on the calling thread.
//!
//! Every mode must agree on the detection count; each `(test, geometry)`
//! pair prints an `agreement OK` line that CI greps for. Each geometry also
//! gets a `{class → packed|sliced|full}` routing breakdown with a
//! batchable-faults ratio and a `routing OK` sanity line (per-class counts
//! summing to the sampled total) that CI greps for.
//!
//! Emits `BENCH_coverage.json` (test × geometry × wall-ns × faults/sec,
//! min and median over the sample count) and prints a human summary with
//! the speedups vs `detect_jobs1` and vs the pinned seed-simulator figure.
//! `--quick` shrinks the workload for smoke runs; `--out PATH` overrides
//! the JSON path.
//!
//! No external crates: timing via `std::time::Instant`, JSON by hand.

use std::fmt::Write as _;
use std::time::Instant;
use std::{env, fs, thread};

use mbist_march::{
    evaluate_coverage, library, routing_breakdown, CoverageOptions, MarchTest, SimEngine,
};
use mbist_mem::{class_universe_sampled, FaultClass, MemGeometry, UniverseSpec};

const MAX_FAULTS_PER_CLASS: usize = 512;

/// The workspace seed's fault simulator (per-bit cell stores, per-write
/// snapshots, linear fault scans, full-stream replay collecting every
/// miscompare) on March C 1024×1 over the same sampled universe: best of
/// six samples on a 2-core x86-64 container, measured before the
/// simulator was retired from this harness. The denominator of the
/// `*_vs_seed` ratios, which are reported for that configuration only.
const SEED_FAULTS_PER_SEC: f64 = 1288.0;
const SEED_WORDS: u64 = 1024;

/// Mode name, worker count and engine, in run order (slowest first).
const MODES: [(&str, Option<usize>, SimEngine); 2] =
    [("detect_jobs1", Some(1), SimEngine::Full), ("packed", Some(1), SimEngine::Packed)];

struct Entry {
    test: String,
    geometry: MemGeometry,
    mode: &'static str,
    faults: usize,
    /// Best wall time over the sample count — the headline number.
    wall_ns: u128,
    /// Median wall time over the sample count — the stability check.
    median_ns: u128,
}

impl Entry {
    fn faults_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            f64::INFINITY
        } else {
            self.faults as f64 * 1e9 / self.wall_ns as f64
        }
    }
}

/// Size of the acceptance universe: every fault class, stride-capped per
/// class the same way `evaluate_coverage` caps it.
fn sampled_universe_len(geometry: &MemGeometry) -> usize {
    let spec = UniverseSpec::default();
    FaultClass::ALL
        .iter()
        .map(|&class| {
            class_universe_sampled(geometry, class, &spec, MAX_FAULTS_PER_CLASS).len()
        })
        .sum()
}

fn options(jobs: Option<usize>, engine: SimEngine) -> CoverageOptions {
    CoverageOptions {
        max_faults_per_class: Some(MAX_FAULTS_PER_CLASS),
        jobs,
        engine,
        ..CoverageOptions::default()
    }
}

fn run_engine(
    test: &MarchTest,
    geometry: &MemGeometry,
    jobs: Option<usize>,
    engine: SimEngine,
) -> usize {
    let report = evaluate_coverage(test, geometry, &options(jobs, engine));
    report.rows.iter().map(|r| r.detected).sum()
}

/// Min and median wall time of `f` over `samples` runs, with the result of
/// the first run returned for cross-mode agreement checks.
fn time_stats<F: FnMut() -> usize>(samples: usize, mut f: F) -> (u128, u128, usize) {
    let mut times = Vec::with_capacity(samples.max(1));
    let mut result = 0;
    for i in 0..samples.max(1) {
        let start = Instant::now();
        let r = f();
        times.push(start.elapsed().as_nanos());
        if i == 0 {
            result = r;
        }
    }
    times.sort_unstable();
    let min = times[0];
    let median = times[times.len() / 2];
    (min, median, result)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Wall-time ratio of `baseline` over `candidate`.
fn ratio(baseline: &Entry, candidate: &Entry) -> f64 {
    baseline.wall_ns as f64 / candidate.wall_ns.max(1) as f64
}

fn format_ratio(name: &str, r: Option<f64>) -> String {
    match r {
        Some(r) => format!("{name} {r:.1}x"),
        None => format!("{name} skipped (no baseline for this geometry)"),
    }
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_coverage.json".to_string());

    let geometries: Vec<MemGeometry> = if quick {
        vec![MemGeometry::bit_oriented(64)]
    } else {
        vec![MemGeometry::bit_oriented(256), MemGeometry::bit_oriented(SEED_WORDS)]
    };
    let tests = [library::mats_plus(), library::march_c()];
    let samples = if quick { 1 } else { 3 };
    let host = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    println!("coverage engine perf — host parallelism {host}, samples {samples}");
    println!(
        "{:<10} {:<10} {:<15} {:>8} {:>14} {:>14} {:>12}",
        "test", "geometry", "mode", "faults", "wall(min)", "wall(median)", "faults/s"
    );

    let mut entries: Vec<Entry> = Vec::new();
    for g in &geometries {
        let faults = sampled_universe_len(g);
        // Per-class engine routing for this geometry's sampled universe;
        // the breakdown must account for every sampled fault exactly once.
        let routing = routing_breakdown(g, &options(None, SimEngine::Packed));
        assert_eq!(
            routing.total(),
            faults,
            "{g}: routing rows must cover the sampled universe"
        );
        print!("{routing}");
        match routing.batchable_ratio() {
            Some(r) => println!(
                "{g} batchable faults: {}/{} ({:.1}%)",
                routing.batchable(),
                routing.total(),
                r * 100.0
            ),
            None => println!("{g} batchable faults: none sampled"),
        }
        println!("{g}: routing OK ({} routed = {faults} sampled)", routing.total());
        for t in &tests {
            let mut detected: Option<usize> = None;
            for (mode, jobs, engine) in MODES {
                let (wall_ns, median_ns, result) =
                    time_stats(samples, || run_engine(t, g, jobs, engine));
                match detected {
                    None => detected = Some(result),
                    Some(d) => assert_eq!(
                        d,
                        result,
                        "{} {g} {mode}: modes disagree on detections",
                        t.name()
                    ),
                }
                let e = Entry {
                    test: t.name().to_string(),
                    geometry: *g,
                    mode,
                    faults,
                    wall_ns,
                    median_ns,
                };
                println!(
                    "{:<10} {:<10} {:<15} {:>8} {:>11.3} ms {:>11.3} ms {:>12.0}",
                    e.test,
                    e.geometry.to_string(),
                    e.mode,
                    e.faults,
                    e.wall_ns as f64 / 1e6,
                    e.median_ns as f64 / 1e6,
                    e.faults_per_sec()
                );
                entries.push(e);
            }
            if let Some(d) = detected {
                println!(
                    "{} {g}: agreement OK ({} modes, {d} detected)",
                    t.name(),
                    MODES.len()
                );
            }
        }
    }

    // Speedups on the largest march-c run (the acceptance configuration);
    // the seed ratios only exist where the seed figure was measured.
    let pick = |mode: &str| {
        entries
            .iter()
            .filter(|e| e.test == "march-c" && e.mode == mode)
            .max_by_key(|e| e.geometry.words())
            .expect("every mode runs march-c")
    };
    let detect = pick("detect_jobs1");
    let packed = pick("packed");
    let vs_seed = |e: &Entry| {
        (e.geometry.words() == SEED_WORDS).then(|| e.faults_per_sec() / SEED_FAULTS_PER_SEC)
    };
    let ratios = [
        ("detect_vs_seed", vs_seed(detect)),
        ("packed_vs_seed", vs_seed(packed)),
        ("packed_vs_detect", Some(ratio(detect, packed))),
    ];
    println!();
    println!(
        "march-c on {}: {} (host parallelism {host})",
        detect.geometry,
        ratios
            .iter()
            .map(|&(name, r)| format_ratio(name, r))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"host_parallelism\": {host},");
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(json, "  \"max_faults_per_class\": {MAX_FAULTS_PER_CLASS},");
    let _ = writeln!(json, "  \"seed_faults_per_sec\": {SEED_FAULTS_PER_SEC:.1},");
    let speedups: Vec<String> = ratios
        .iter()
        .filter_map(|(name, r)| r.map(|r| format!("\"{name}\": {r:.3}")))
        .collect();
    let _ = writeln!(json, "  \"speedup\": {{ {} }},", speedups.join(", "));
    {
        let g = *geometries.iter().max_by_key(|g| g.words()).expect("geometries");
        let routing = routing_breakdown(&g, &options(None, SimEngine::Packed));
        let classes: Vec<String> = routing
            .rows
            .iter()
            .map(|r| {
                format!(
                    "\"{}\": {{ \"packed\": {}, \"sliced\": {}, \"full\": {} }}",
                    r.class.label(),
                    r.packed,
                    r.sliced,
                    r.full
                )
            })
            .collect();
        let ratio_field = match routing.batchable_ratio() {
            Some(r) => format!("{r:.4}"),
            None => "null".to_string(),
        };
        let _ = writeln!(
            json,
            "  \"routing\": {{ \"geometry\": \"{g}\", \"engine\": \"{}\", \
             \"batchable\": {}, \"total\": {}, \"batchable_ratio\": {ratio_field}, \
             \"classes\": {{ {} }} }},",
            routing.engine,
            routing.batchable(),
            routing.total(),
            classes.join(", ")
        );
    }
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{ \"test\": \"{}\", \"geometry\": \"{}\", \"mode\": \"{}\", \
             \"faults\": {}, \"wall_ns\": {}, \"median_ns\": {}, \
             \"faults_per_sec\": {:.1} }}{comma}",
            json_escape(&e.test),
            e.geometry,
            e.mode,
            e.faults,
            e.wall_ns,
            e.median_ns,
            e.faults_per_sec()
        );
    }
    json.push_str("  ]\n}\n");
    fs::write(&out_path, json).expect("write benchmark JSON");
    println!("wrote {out_path}");
}

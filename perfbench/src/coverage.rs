//! `coverage_campaign`: the DFT engineer's sweep. Every library march test
//! on the paper's Table 1–2 geometries (1K×1, 1K×8, 1K×8 two-port) plus one
//! larger bit-oriented array, each job one `mbist_cli::run(["coverage", …])`
//! call with CLI defaults except `--jobs 1`. Two callers share each pass,
//! each taking the next job when its last one ends, as a sweep over two
//! cores runs two CLI processes side by side.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mbist_march::{
    expand_with, library, routing_breakdown, ClassCoverage, CompiledTrace, CoverageOptions,
    CoverageReport, ExpandOptions, SimEngine,
};
use mbist_mem::{class_universe_sampled, FaultClass, MemGeometry, UniverseSpec};

use crate::report::{end_to_end, pass_quantiles, Outcome, TailWindow, Timed};
use crate::stats::Rng;
use crate::tracer::{self, Layers, Tracer};
use crate::{LayerMetrics, Run};

/// `(words, width, ports)`: Table 1's 1K×1, Table 2's 1K×8 single- and
/// two-port, and an 8K×1 array.
const GEOMETRIES: [(u64, u8, u8); 4] =
    [(1024, 1, 1), (1024, 8, 1), (1024, 8, 2), (8192, 1, 1)];

/// Set-up repetitions: one set-up is only about 60 ms of work.
const SETUPS: usize = 9;

/// Callers sharing each timed pass, one per core of the 2-core host. One
/// caller leaves the other core idle and its figures follow one core's
/// load from neighbouring tenants; two average both cores (quartile spread
/// of throughput 0.28 with one, 0.17 with two, alternating 8 s runs).
const STREAMS: usize = 2;

/// The CLI's `--max-faults` default, which the rebuilt path must match.
const CLI_MAX_FAULTS: usize = 256;

const EXPECTED: &str = include_str!("../expect/coverage.tsv");

struct Job {
    test: String,
    geometry: MemGeometry,
    args: Vec<String>,
}

impl Job {
    fn new(test: &str, (words, width, ports): (u64, u8, u8)) -> Job {
        let mut args = vec!["coverage".to_string(), test.to_string()];
        args.extend(["--words".to_string(), words.to_string()]);
        if width != 1 {
            args.extend(["--width".to_string(), width.to_string()]);
        }
        if ports != 1 {
            args.extend(["--ports".to_string(), ports.to_string()]);
        }
        args.extend(["--jobs".to_string(), "1".to_string()]);
        Job {
            test: test.to_string(),
            geometry: MemGeometry::new(words, width, ports),
            args,
        }
    }

    fn key(&self) -> String {
        let g = self.geometry;
        format!("{}\t{}\t{}\t{}", self.test, g.words(), g.width(), g.ports())
    }
}

/// Every job of one pass, in the seed's order.
fn campaign(seed: u64) -> Vec<Job> {
    let mut jobs: Vec<Job> = library::all()
        .iter()
        .flat_map(|t| GEOMETRIES.iter().map(|&g| Job::new(t.name(), g)))
        .collect();
    Rng::new(seed, "coverage_campaign").shuffle(&mut jobs);
    jobs
}

/// The per-class `LABEL=detected/total` rows of a coverage report text.
fn rows_of(text: &str) -> String {
    text.lines()
        .skip(1)
        .filter_map(|line| {
            let mut it = line.split_whitespace();
            Some(format!("{}={}", it.next()?, it.next()?))
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Recorded rows per job key, plus the faults each job simulates.
struct Expected(HashMap<String, (String, usize)>);

impl Expected {
    fn load() -> Expected {
        let mut map = HashMap::new();
        for line in EXPECTED.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let (key, rows) = line.rsplit_once('\t').expect("key and rows");
            let faults = rows
                .split(' ')
                .filter_map(|r| {
                    r.split_once('/').and_then(|(_, t)| t.parse::<usize>().ok())
                })
                .sum();
            map.insert(key.to_string(), (rows.to_string(), faults));
        }
        Expected(map)
    }

    fn faults(&self, job: &Job) -> usize {
        self.0.get(&job.key()).map_or(0, |e| e.1)
    }

    fn matches(&self, job: &Job, text: &str) -> bool {
        self.0.get(&job.key()).is_some_and(|e| e.0 == rows_of(text))
    }
}

fn run_cli(job: &Job) -> Option<String> {
    mbist_cli::run(&job.args).ok()
}

/// Rewrites `expect/coverage.tsv` from the full-replay engine, the oracle
/// every engine is tested against.
pub fn record(path: &str) -> std::io::Result<()> {
    let mut text = String::from(
        "# coverage_campaign expectations: per-class detected/total rows of every job,\n\
         # recorded with `--engine full` (regenerate: perfbench --record coverage)\n",
    );
    let mut jobs = campaign(0);
    jobs.sort_by_key(Job::key);
    for job in &jobs {
        let mut args = job.args.clone();
        args.truncate(args.len() - 2); // full replay fans out at the host default
        args.extend(["--engine".to_string(), "full".to_string()]);
        let out =
            mbist_cli::run(&args).map_err(|e| std::io::Error::other(e.to_string()))?;
        text.push_str(&format!("{}\t{}\n", job.key(), rows_of(&out)));
        eprintln!("recorded {}", job.key());
    }
    std::fs::write(path, text)
}

/// One untimed coverage call per geometry (March C, seed-independent).
fn warm_up(expected: &Expected) -> bool {
    GEOMETRIES.iter().all(|&g| {
        let job = Job::new("march-c", g);
        run_cli(&job).is_some_and(|t| expected.matches(&job, &t))
    })
}

/// What one CLI call returned: job index, latency in ms, report text, and
/// the most its own allocations raised the heap, in bytes.
type Call = (usize, f64, Option<String>, usize);

/// Runs jobs off the shared `next` index until none is left.
fn drain(jobs: &[Job], next: &AtomicUsize) -> Vec<Call> {
    let mut done = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(job) = jobs.get(i) else { return done };
        let mark = crate::alloc::thread_mark();
        let t0 = Instant::now();
        let out = run_cli(job);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        done.push((i, ms, out, crate::alloc::thread_peak_since(mark)));
    }
}

/// Whole passes of `jobs` through the CLI until `budget` has elapsed, each
/// pass shared by `streams` callers that take the next job as they finish.
/// Returns each job's report text and the largest heap rise of one call.
fn cli_passes(
    jobs: &[Job],
    expected: &Expected,
    budget: Duration,
    streams: usize,
    timed: &mut Timed,
) -> (Vec<String>, usize) {
    let mut texts = vec![String::new(); jobs.len()];
    let mut call_peak = 0;
    let start = Instant::now();
    while timed.pass_walls.is_empty() || start.elapsed() < budget {
        let pass = Instant::now();
        let next = AtomicUsize::new(0);
        let done: Vec<_> = std::thread::scope(|s| {
            let others: Vec<_> =
                (1..streams).map(|_| s.spawn(|| drain(jobs, &next))).collect();
            let mut done = drain(jobs, &next);
            for other in others {
                done.extend(other.join().expect("coverage caller"));
            }
            done
        });
        timed.pass_walls.push(pass.elapsed());
        let latencies: Vec<f64> = done.iter().map(|d| d.1).collect();
        timed.pass_quantiles.push(pass_quantiles(&latencies));
        for (i, _, out, peak) in done {
            call_peak = call_peak.max(peak);
            timed.attempted += 1;
            match out {
                Some(text) if expected.matches(&jobs[i], &text) => texts[i] = text,
                _ => timed.failed += 1,
            }
        }
    }
    (texts, call_peak)
}

pub fn timed(run: &Run) -> Outcome {
    let mut timed = Timed::default();
    let mut ok = true;
    let mut jobs = Vec::new();
    let mut expected = Expected(HashMap::new());
    for _ in 0..SETUPS {
        let t = Instant::now();
        jobs = campaign(run.seed);
        expected = Expected::load();
        ok &= warm_up(&expected);
        timed.setups.push(t.elapsed());
    }
    timed.work_per_pass = jobs.iter().map(|j| expected.faults(j)).sum::<usize>() as f64;
    // The heap one caller needs: what is live before the timed phase plus
    // the largest rise of a single call, counted on the calling thread, so
    // the figure does not depend on which calls the two callers overlap.
    let base = crate::alloc::live_bytes();
    let (_, call_peak) = cli_passes(&jobs, &expected, run.budget(), STREAMS, &mut timed);
    timed.peak_heap_mib = (base + call_peak) as f64 / f64::from(1u32 << 20);
    let mut out = Outcome::default();
    // Job costs differ by test and geometry; within a pass the tail's rank
    // falls on the same job every pass, so it never straddles two jobs.
    end_to_end(&timed, TailWindow::Pass(jobs.len()), &mut out);
    out.correct = ok && timed.failed == 0;
    out.note(format!(
        "throughput unit: simulated faults per second ({} per pass)",
        timed.work_per_pass
    ));
    out
}

/// `mbist_cli::run coverage` rebuilt from its public pieces, one span per
/// layer call; returns the report text and the job's simulated faults.
fn traced_job(
    tr: &mut Tracer,
    op: u64,
    job: &Job,
    trace_bytes: &mut usize,
) -> (String, usize) {
    tr.span("cli", op, |tr| {
        let test = library::by_name(&job.test).expect("library test");
        let g = job.geometry;
        let expand = ExpandOptions::for_geometry(&g);
        let steps = tr.span("march.expand", op, |_| expand_with(&test, &g, &expand));
        let trace =
            tr.span("march.trace", op, |_| CompiledTrace::from_steps_owned(g, steps));
        *trace_bytes += trace.approx_bytes();
        let spec = UniverseSpec::default();
        let mut faults = 0;
        let rows = FaultClass::ALL
            .iter()
            .map(|&class| {
                let universe = tr.span("mem.universe", op, |_| {
                    class_universe_sampled(&g, class, &spec, CLI_MAX_FAULTS)
                });
                let flags = tr.span("march.fanout", op, |_| {
                    trace.detect_universe(&universe, Some(1), SimEngine::default())
                });
                faults += universe.len();
                let detected = flags.iter().filter(|&&d| d).count();
                ClassCoverage { class, detected, total: universe.len() }
            })
            .collect();
        let report = CoverageReport { test: test.name().to_string(), geometry: g, rows };
        (report.to_string(), faults)
    })
}

/// Engine routing shares under the default engine, and the fan-out speed-up
/// of the host default worker count over one worker (total time of March C
/// on each geometry, alternating, three rounds).
fn probes(jobs: &[Job], layers: &mut LayerMetrics) {
    let (mut packed, mut sliced, mut full) = (0usize, 0usize, 0usize);
    for job in jobs {
        let options = CoverageOptions {
            max_faults_per_class: Some(CLI_MAX_FAULTS),
            jobs: Some(1),
            ..CoverageOptions::default()
        };
        for row in routing_breakdown(&job.geometry, &options).rows {
            packed += row.packed;
            sliced += row.sliced;
            full += row.full;
        }
    }
    let total = (packed + sliced + full).max(1) as f64;
    layers.set("march.fanout.packed_share", packed as f64 / total, "1");
    layers.set("march.fanout.sliced_share", sliced as f64 / total, "1");
    layers.set("march.fanout.full_share", full as f64 / total, "1");

    let (mut one, mut auto) = (0.0, 0.0);
    for &g in &GEOMETRIES {
        let geometry = MemGeometry::new(g.0, g.1, g.2);
        let trace = CompiledTrace::compile(
            &library::march_c(),
            &geometry,
            &ExpandOptions::for_geometry(&geometry),
        );
        let universe: Vec<_> = FaultClass::ALL
            .iter()
            .flat_map(|&c| {
                class_universe_sampled(
                    &geometry,
                    c,
                    &UniverseSpec::default(),
                    CLI_MAX_FAULTS,
                )
            })
            .collect();
        for _ in 0..3 {
            for (jobs, times) in [(Some(1), &mut one), (None, &mut auto)] {
                let t = Instant::now();
                std::hint::black_box(trace.detect_universe(
                    &universe,
                    jobs,
                    SimEngine::default(),
                ));
                *times += t.elapsed().as_secs_f64();
            }
        }
    }
    layers.set("march.fanout.speedup_auto_vs_1", one / auto, "1");
}

/// The traced run. With `full`, an untraced reference phase and a traced
/// phase each get half the time budget, and every traced report must equal
/// the untraced CLI text; otherwise one traced pass fills the layer figures
/// for another workload's traced run.
pub fn traced(run: &Run, full: bool, layers: &mut LayerMetrics, out: &mut Outcome) {
    let jobs = campaign(run.seed);
    let expected = Expected::load();
    let budget = run.budget() / 2;
    let mut reference = Timed::default();
    let texts = if full {
        cli_passes(&jobs, &expected, budget, 1, &mut reference).0
    } else {
        Vec::new()
    };
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch);
    let (mut walls, mut trace_bytes, mut faults, mut done) =
        (Vec::new(), 0usize, 0usize, 0usize);
    let start = Instant::now();
    while walls.is_empty() || (full && start.elapsed() < budget) {
        let pass = Instant::now();
        for (i, job) in jobs.iter().enumerate() {
            let (text, n) = traced_job(&mut tr, done as u64, job, &mut trace_bytes);
            faults += n;
            done += 1;
            out.attempted += 1;
            let same = if full { text == texts[i] } else { expected.matches(job, &text) };
            if !same {
                out.failed += 1;
            }
        }
        walls.push(pass.elapsed());
    }
    let mut l = Layers::default();
    l.add(tr.spans());
    layers.set("mem.universe.ms_per_job", l.ms_per("mem.universe", done), "ms");
    layers.set("mem.universe.faults", faults as f64 / done as f64, "count");
    layers.set("march.expand.ms_per_job", l.ms_per("march.expand", done), "ms");
    layers.set("march.trace.ms_per_job", l.ms_per("march.trace", done), "ms");
    layers.set("march.trace.kib", trace_bytes as f64 / 1024.0 / done as f64, "KiB");
    layers.set("march.fanout.ms_per_job", l.ms_per("march.fanout", done), "ms");
    let fanout_s = l.self_ns.get("march.fanout").copied().unwrap_or(1) as f64 / 1e9;
    layers.set("march.fanout.faults_per_s", faults as f64 / fanout_s, "1/s");
    layers.set("cli.ms_per_job", l.ms_per("cli", done), "ms");
    probes(&jobs, layers);
    out.note(format!("coverage_campaign layers over {done} jobs: {}", l.summary()));
    if full {
        let spans = [tr.spans()];
        tracer::finish(
            run,
            &walls,
            &reference.pass_walls,
            l.root_ns,
            1,
            &spans,
            layers,
            out,
        );
        out.attempted += reference.attempted;
        out.failed += reference.failed;
    }
}

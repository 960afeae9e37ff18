//! `search_synth`: the test-synthesis user's job. Seeded `search_march`
//! runs of both strategies, fan-out at the library default, on universes
//! and budgets chosen so every search costs about the same.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use mbist_mem::{FaultClass, MemGeometry};
use mbist_search::{
    candidate_test, search_march, Composition, Evolutionary, FitnessOracle, SearchOptions,
    SearchOutcome, SearchStrategy, Strategy,
};

use crate::report::{end_to_end, Outcome, TailWindow, Timed};
use crate::stats::Rng;
use crate::tracer::{self, Layers, Tracer};
use crate::{LayerMetrics, Run};

/// The universe: every fault class except the two neighbourhood-pattern
/// ones, which no short test covers and which would dominate the cost.
const CLASSES: usize = 9;
const MAX_ELEMENTS: usize = 8;
/// Evolutionary searches never reach full coverage of this universe, so
/// each spends its whole budget: cost follows the budget, not the seed.
const EVOLVE_WORDS: u64 = 256;
const EVOLVE_BUDGET: usize = 300;
/// Search seeds with recorded outcomes; a workload seed picks from these.
const EVOLVE_POOL: u64 = 64;
const EVOLVE_PER_PASS: usize = 4;
/// Composition ignores the seed; these array sizes make it cost about what
/// one evolutionary search does.
const COMPOSE_WORDS: [u64; 4] = [96, 112, 128, 144];
/// A 36 s run completes 150 or more searches: p90 keeps fifteen or more
/// beyond it.
const TAIL_LEVEL: f64 = 0.90;
const SETUPS: usize = 5;

const EXPECTED: &str = include_str!("../expect/search.tsv");

#[derive(Clone, Copy)]
struct Job {
    strategy: Strategy,
    words: u64,
    seed: u64,
}

impl Job {
    fn options(self) -> SearchOptions {
        SearchOptions {
            geometry: MemGeometry::bit_oriented(self.words),
            classes: FaultClass::ALL[..CLASSES].to_vec(),
            budget: EVOLVE_BUDGET,
            seed: self.seed,
            max_elements: MAX_ELEMENTS,
            strategy: self.strategy,
            ..SearchOptions::default()
        }
    }

    fn key(self) -> String {
        format!("{}\t{}\t{}", self.strategy.label(), self.words, self.seed)
    }
}

fn evolve(seed: u64) -> Job {
    Job { strategy: Strategy::Evolutionary, words: EVOLVE_WORDS, seed }
}

fn compose(words: u64) -> Job {
    Job { strategy: Strategy::Composition, words, seed: 1 }
}

/// One pass: `EVOLVE_PER_PASS` pool seeds picked by the workload seed plus
/// every composition size, in the seed's order.
fn searches(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed, "search_synth");
    let mut pool: Vec<u64> = (1..=EVOLVE_POOL).collect();
    rng.shuffle(&mut pool);
    let mut jobs: Vec<Job> = pool[..EVOLVE_PER_PASS].iter().map(|&s| evolve(s)).collect();
    jobs.extend(COMPOSE_WORDS.iter().map(|&w| compose(w)));
    rng.shuffle(&mut jobs);
    jobs
}

/// What a search reported: test, coverage and oracle counts, as recorded.
fn summary(found: &SearchOutcome) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}",
        found.test,
        found.detected,
        found.total,
        found.evaluations,
        found.memo_hits,
        found.generations
    )
}

struct Expected(HashMap<String, String>);

impl Expected {
    fn load() -> Expected {
        let map = EXPECTED
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .filter_map(|l| {
                let mut cut = l.splitn(4, '\t');
                let key = format!("{}\t{}\t{}", cut.next()?, cut.next()?, cut.next()?);
                Some((key, cut.next()?.to_string()))
            })
            .collect();
        Expected(map)
    }

    fn matches(&self, job: Job, found: &SearchOutcome) -> bool {
        self.0.get(&job.key()).is_some_and(|e| *e == summary(found))
    }

    /// Candidate evaluations the recorded search performed.
    fn evaluations(&self, job: Job) -> usize {
        self.0
            .get(&job.key())
            .and_then(|e| e.split('\t').nth(3))
            .and_then(|n| n.parse().ok())
            .unwrap_or(0)
    }
}

/// Rewrites `expect/search.tsv`: the outcome of every pool search.
pub fn record(path: &str) -> std::io::Result<()> {
    let mut text = String::from(
        "# search_synth expectations: strategy, words, seed, then the found test, detected,\n\
         # total, evaluations, memo hits and generations (regenerate: perfbench --record search)\n",
    );
    let jobs =
        (1..=EVOLVE_POOL).map(evolve).chain(COMPOSE_WORDS.iter().map(|&w| compose(w)));
    for job in jobs {
        let t = Instant::now();
        let found = search_march("found", &job.options());
        text.push_str(&format!("{}\t{}\n", job.key(), summary(&found)));
        eprintln!("recorded {} in {:.0} ms", job.key(), t.elapsed().as_secs_f64() * 1e3);
    }
    std::fs::write(path, text)
}

/// Whole passes of `jobs` until `budget` has elapsed; returns each job's
/// last outcome summary.
fn search_passes(
    jobs: &[Job],
    expected: &Expected,
    budget: Duration,
    timed: &mut Timed,
) -> Vec<String> {
    let mut outcomes = vec![String::new(); jobs.len()];
    let start = Instant::now();
    while timed.pass_walls.is_empty() || start.elapsed() < budget {
        let pass = Instant::now();
        for (i, &job) in jobs.iter().enumerate() {
            let options = job.options();
            let t0 = Instant::now();
            let found = search_march("found", &options);
            timed.latencies.push(t0.elapsed().as_secs_f64() * 1e3);
            timed.attempted += 1;
            if !expected.matches(job, &found) {
                timed.failed += 1;
            }
            outcomes[i] = summary(&found);
        }
        timed.pass_walls.push(pass.elapsed());
    }
    outcomes
}

pub fn timed(run: &Run) -> Outcome {
    let mut timed = Timed::default();
    let mut ok = true;
    let mut jobs = Vec::new();
    let mut expected = Expected(HashMap::new());
    for _ in 0..SETUPS {
        let t = Instant::now();
        jobs = searches(run.seed);
        expected = Expected::load();
        // One untimed search of each strategy, the same for every seed.
        for job in [evolve(1), compose(COMPOSE_WORDS[0])] {
            ok &= expected.matches(job, &search_march("found", &job.options()));
        }
        timed.setups.push(t.elapsed());
    }
    timed.work_per_pass =
        jobs.iter().map(|&j| expected.evaluations(j)).sum::<usize>() as f64;
    crate::alloc::reset_peak();
    search_passes(&jobs, &expected, run.budget(), &mut timed);
    timed.peak_heap_mib = crate::alloc::peak_mib();
    let mut out = Outcome::default();
    end_to_end(&timed, TailWindow::Run(TAIL_LEVEL), &mut out);
    out.correct = ok && timed.failed == 0;
    out.note(format!(
        "throughput unit: candidate evaluations per second ({} per pass of {} searches)",
        timed.work_per_pass,
        jobs.len()
    ));
    out
}

/// `search_march` rebuilt from its public pieces, one span per layer call;
/// returns the outcome and the oracle's compile/simulate nanoseconds.
fn traced_search(tr: &mut Tracer, op: u64, job: Job) -> SearchOutcome {
    let options = job.options();
    tr.span("search", op, |tr| {
        let mut oracle =
            tr.span("search.fitness.setup", op, |_| FitnessOracle::new(&options));
        let run = tr.span("search.strategy", op, |_| match options.strategy {
            Strategy::Evolutionary => Evolutionary.search(&mut oracle, &options),
            Strategy::Composition => Composition.search(&mut oracle, &options),
        });
        let fit =
            tr.span("search.fitness.exact", op, |_| oracle.evaluate_exact(&run.elements));
        let (compile_ns, simulate_ns) = oracle.timing();
        SearchOutcome {
            test: candidate_test("found", &run.elements),
            detected: fit.detected,
            total: oracle.total(),
            target_detected: oracle.target_detected(),
            evaluations: oracle.evaluations(),
            generations: run.generations,
            converged: fit.detected >= oracle.target_detected(),
            strategy: options.strategy,
            compile_ns,
            simulate_ns,
            memo_hits: oracle.memo_hits(),
        }
    })
}

/// The traced run; `full` as in [`crate::coverage::traced`]. A probe runs
/// one search of each strategy.
pub fn traced(run: &Run, full: bool, layers: &mut LayerMetrics, out: &mut Outcome) {
    let expected = Expected::load();
    let jobs =
        if full { searches(run.seed) } else { vec![evolve(1), compose(COMPOSE_WORDS[0])] };
    let budget = run.budget() / 2;
    let mut reference = Timed::default();
    let untraced = if full {
        search_passes(&jobs, &expected, budget, &mut reference)
    } else {
        Vec::new()
    };
    let mut tr = Tracer::new(Instant::now());
    let (mut walls, mut done) = (Vec::new(), 0usize);
    let (mut compile_ns, mut simulate_ns, mut evaluations, mut memo_hits) =
        (0u64, 0u64, 0usize, 0usize);
    let start = Instant::now();
    while walls.is_empty() || (full && start.elapsed() < budget) {
        let pass = Instant::now();
        for (i, &job) in jobs.iter().enumerate() {
            let found = traced_search(&mut tr, done as u64, job);
            done += 1;
            out.attempted += 1;
            let same = if full {
                summary(&found) == untraced[i]
            } else {
                expected.matches(job, &found)
            };
            if !same {
                out.failed += 1;
            }
            compile_ns += found.compile_ns;
            simulate_ns += found.simulate_ns;
            evaluations += found.evaluations;
            memo_hits += found.memo_hits;
        }
        walls.push(pass.elapsed());
    }
    let mut l = Layers::default();
    l.add(tr.spans());
    let per = done as f64;
    layers.set("search.fitness.setup_ms", l.ms_per("search.fitness.setup", done), "ms");
    layers.set("search.fitness.exact_ms", l.ms_per("search.fitness.exact", done), "ms");
    layers.set("search.strategy.ms", l.ms_per("search.strategy", done), "ms");
    layers.set("march.score.compile_ms", compile_ns as f64 / 1e6 / per, "ms");
    layers.set("march.score.simulate_ms", simulate_ns as f64 / 1e6 / per, "ms");
    layers.set("search.fitness.evaluations", evaluations as f64 / per, "count");
    layers.set("search.fitness.memo_hits", memo_hits as f64 / per, "count");
    out.note(format!("search_synth layers over {done} searches: {}", l.summary()));
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

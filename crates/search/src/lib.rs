//! # mbist-search — search-based march-test synthesis
//!
//! Finds short march tests hitting a target coverage of a user-specified
//! fault universe, with the lane-packed fault-simulation engine
//! ([`SimEngine::Packed`]) as the fitness oracle. Two cooperating
//! strategies live behind one [`SearchStrategy`] trait:
//!
//! - [`Evolutionary`]: a seeded evolutionary loop — tournament selection,
//!   element-level one-point crossover, op/order/background mutation —
//!   whose population starts from the composed primitive sequence, the
//!   greedy [`synthesize_march`](mbist_march::synthesize_march) result and
//!   the classical [`library`](mbist_march::library) tests,
//! - [`Composition`]: per-fault-class test primitives concatenated and
//!   greedily shrunk.
//!
//! Both optimize the same lexicographic fitness
//! `(min(detected, target), −ops_per_cell)`: reach the coverage target
//! first, then shed length. Every run is deterministic in
//! ([`SearchOptions::seed`], options): candidate scoring goes through
//! [`CandidateBatchScorer`](mbist_march::CandidateBatchScorer), which fans
//! *candidates* across workers but joins results in candidate order —
//! never first-finished-wins — and whose per-candidate counts are
//! bit-identical across worker counts and engines, so neither `--jobs`
//! nor `--engine` can perturb the search trajectory.
//!
//! # Examples
//!
//! ```
//! use mbist_search::{search_march, SearchOptions, Strategy};
//! use mbist_mem::{FaultClass, MemGeometry};
//!
//! let options = SearchOptions {
//!     geometry: MemGeometry::bit_oriented(32),
//!     classes: vec![FaultClass::StuckAt, FaultClass::Transition],
//!     max_faults_per_class: 64,
//!     strategy: Strategy::Composition,
//!     ..SearchOptions::default()
//! };
//! let found = search_march("found", &options);
//! assert!(found.converged);
//! assert!(found.test.ops_per_cell() <= 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compose;
mod evolve;
mod fitness;

use mbist_march::{CancelToken, MarchElement, MarchOp, MarchTest, SimEngine};
use mbist_mem::{FaultClass, MemGeometry, UniverseSpec};

pub use compose::{primitive_sequence, primitives_for, Composition};
pub use evolve::Evolutionary;
pub use fitness::{candidate_test, canonical_key, shrink_elements, Fitness, FitnessOracle};

/// Which search strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Seeded evolutionary loop (tournament selection, crossover,
    /// mutation).
    #[default]
    Evolutionary,
    /// Per-fault-class primitive composition plus greedy shrinking.
    Composition,
}

impl Strategy {
    /// Parses a CLI/service strategy name (`evolve` or `compose`).
    #[must_use]
    pub fn parse_name(name: &str) -> Option<Strategy> {
        match name {
            "evolve" => Some(Strategy::Evolutionary),
            "compose" => Some(Strategy::Composition),
            _ => None,
        }
    }

    /// The canonical strategy name (`evolve` / `compose`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Evolutionary => "evolve",
            Strategy::Composition => "compose",
        }
    }
}

/// Options for a synthesis search.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Geometry the oracle simulates on.
    pub geometry: MemGeometry,
    /// The target fault universe: which classes the found test must cover.
    pub classes: Vec<FaultClass>,
    /// Universe-generation parameters (coupling window, retention time…).
    pub spec: UniverseSpec,
    /// Per-class stride-sampling cap (`0` = uncapped).
    pub max_faults_per_class: usize,
    /// Required detected fraction of the sampled universe, in `[0, 1]`.
    pub target_coverage: f64,
    /// Candidate-evaluation budget (memoized re-evaluations are free).
    pub budget: usize,
    /// Seed for every stochastic choice. Same seed ⇒ same output.
    pub seed: u64,
    /// Upper bound on march elements per candidate (excluding the `⇕(w0)`
    /// initialization).
    pub max_elements: usize,
    /// Worker threads for the candidate fan-out (`None` = auto). Has no
    /// effect on the result, only on wall-clock time.
    pub jobs: Option<usize>,
    /// Simulation engine scoring candidates. Detection flags are
    /// bit-identical across engines, so this too only affects speed.
    pub engine: SimEngine,
    /// Cooperative cancellation, checked between generations / shrink
    /// steps. A cancelled search still returns its best-so-far candidate,
    /// but `converged` only reports what was actually reached.
    pub cancel: CancelToken,
    /// Which strategy runs.
    pub strategy: Strategy,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            geometry: MemGeometry::bit_oriented(256),
            classes: vec![
                FaultClass::StuckAt,
                FaultClass::Transition,
                FaultClass::CouplingInversion,
                FaultClass::CouplingIdempotent,
                FaultClass::CouplingState,
            ],
            spec: UniverseSpec::default(),
            max_faults_per_class: 256,
            target_coverage: 1.0,
            budget: 2000,
            seed: 1,
            max_elements: 12,
            jobs: None,
            engine: SimEngine::default(),
            cancel: CancelToken::none(),
            strategy: Strategy::Evolutionary,
        }
    }
}

/// Outcome of a search run.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The best test found (always fault-free clean by construction).
    pub test: MarchTest,
    /// Faults of the sampled universe the test detects.
    pub detected: usize,
    /// Size of the sampled universe.
    pub total: usize,
    /// Faults the test had to detect to satisfy `target_coverage`.
    pub target_detected: usize,
    /// Simulated candidate evaluations performed (memo hits excluded).
    pub evaluations: usize,
    /// Generations the evolutionary loop ran (`1` for composition, which
    /// is a single compose-then-shrink pass).
    pub generations: usize,
    /// Whether the coverage target was reached.
    pub converged: bool,
    /// The strategy that produced the result.
    pub strategy: Strategy,
    /// Wall-clock nanoseconds the oracle spent compiling candidates into
    /// traces (summed across workers, so it can exceed elapsed time).
    pub compile_ns: u64,
    /// Wall-clock nanoseconds the oracle spent simulating faults against
    /// compiled candidates (summed across workers).
    pub simulate_ns: u64,
    /// Evaluations answered from the fitness memo instead of simulation.
    pub memo_hits: usize,
}

impl SearchOutcome {
    /// Detected fraction of the sampled universe (`1.0` when empty).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.detected as f64 / self.total as f64
        }
    }
}

/// What a strategy hands back to the driver: the candidate elements
/// (excluding the canonical initialization) and how many rounds it ran.
#[derive(Debug, Clone)]
pub struct StrategyRun {
    /// Best element sequence found, in canonical read-expectation form.
    pub elements: Vec<MarchElement>,
    /// Generations / passes executed.
    pub generations: usize,
}

/// A search strategy: proposes candidate element sequences and lets the
/// shared [`FitnessOracle`] judge them.
pub trait SearchStrategy {
    /// The strategy's canonical name.
    fn name(&self) -> &'static str;

    /// Runs the search to completion (or budget / cancellation).
    fn search(&self, oracle: &mut FitnessOracle, options: &SearchOptions) -> StrategyRun;
}

/// Runs the configured strategy and packages the outcome.
///
/// # Panics
///
/// Panics if `options.classes` is empty.
#[must_use]
pub fn search_march(name: &str, options: &SearchOptions) -> SearchOutcome {
    assert!(!options.classes.is_empty(), "need at least one target fault class");
    let mut oracle = FitnessOracle::new(options);
    let run = match options.strategy {
        Strategy::Evolutionary => Evolutionary.search(&mut oracle, options),
        Strategy::Composition => Composition.search(&mut oracle, options),
    };
    // Exact final count: the search's internal scores early-exit at the
    // target, but the reported coverage is the uncapped truth.
    let fit = oracle.evaluate_exact(&run.elements);
    let (compile_ns, simulate_ns) = oracle.timing();
    SearchOutcome {
        test: candidate_test(name, &run.elements),
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
}

/// The canonical human-readable report for a search outcome — the single
/// formatter both the CLI subcommand and the service job kind print, so
/// their texts are byte-identical by construction.
#[must_use]
pub fn report_text(found: &SearchOutcome, options: &SearchOptions) -> String {
    use std::fmt::Write as _;
    let universe: Vec<&str> = options.classes.iter().map(|c| c.tag()).collect();
    let mut out = String::new();
    let _ = writeln!(out, "{}", found.test);
    let _ = writeln!(
        out,
        "strategy {}, seed {}, universe {} on {}: {} faults",
        found.strategy.label(),
        options.seed,
        universe.join(","),
        options.geometry,
        found.total
    );
    let _ = writeln!(
        out,
        "coverage {}/{} ({:.1}%), target {}: {}",
        found.detected,
        found.total,
        found.coverage() * 100.0,
        found.target_detected,
        if found.converged { "converged" } else { "target NOT reached" }
    );
    let _ = writeln!(
        out,
        "complexity {}n, {} evaluations, {} generations",
        found.test.ops_per_cell(),
        found.evaluations,
        found.generations
    );
    out
}

/// Rewrites a candidate's read expectations to the fault-free value.
///
/// March operations are uniform per cell, so after the canonical `⇕(w0)`
/// initialization the whole array holds a single tracked value; rewriting
/// every read to expect it makes any element sequence fault-free clean *by
/// construction* — mutation and crossover can never produce a candidate
/// that false-alarms on a good memory.
#[must_use]
pub fn canonical_elements(elements: &[MarchElement]) -> Vec<MarchElement> {
    let mut v = false; // value every cell holds after ⇕(w0)
    elements
        .iter()
        .map(|e| {
            let ops = e
                .ops()
                .iter()
                .map(|op| match op {
                    MarchOp::Read(_) => MarchOp::Read(v),
                    MarchOp::Write(b) => {
                        v = *b;
                        *op
                    }
                })
                .collect();
            MarchElement::new(e.order(), ops)
        })
        .collect()
}

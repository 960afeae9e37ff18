//! Population-batched candidate scoring for march-test synthesis.
//!
//! A synthesis search scores thousands of *candidate tests* against one
//! fixed fault universe — the transpose of the coverage workload
//! ([`crate::fanout`]), which scores one test against many faults. This
//! module owns the per-candidate hot path and fans *candidates* across
//! workers, the calling thread scoring the first chunk itself:
//!
//! - each worker keeps a [`TraceArena`] (recompilation into reused
//!   buffers, with element-prefix reuse) and simulation scratch;
//! - the packed engine scores through a [`UniversePlan`]
//!   (`crate::packed`): every fault's route, rank or verdict group is
//!   fixed once, so per-candidate simulation scales with the number of
//!   distinct access programs, not the number of faults, and candidates
//!   compile only the support words the groups' canonical representatives
//!   read (at most six, on the lowest words and the top one), jumping the
//!   rest of each element in O(1), so compilation does not scale with the
//!   word count either. Candidates compile through
//!   [`TraceArena::compile_for`], the restricted-then-complete fallback
//!   coverage runs share: a candidate the plan declines (golden
//!   miscompares, too few words for its certificate, or a fractional
//!   pause against retention faults) is recompiled complete and counted
//!   by the same plan's general path;
//! - scoring stops early once `stop_after` detections are decided (the
//!   lexicographic fitness only compares `min(detected, target)`).
//!
//! Results are joined **in candidate order** — never first-finished-wins —
//! so a search trajectory is byte-identical across worker counts: worker
//! `i` scores the `i`-th contiguous chunk of the batch, each candidate's
//! score is a pure function of `(candidate, universe, engine)`, and the
//! output slot is fixed by the candidate's index.

use std::time::Instant;

use mbist_mem::{FaultKind, MemGeometry};

use crate::cancel::CancelToken;
use crate::expand::ExpandOptions;
use crate::fanout::{resolve_jobs, MIN_CANDIDATES_PER_WORKER};
use crate::packed::{PlanScratch, UniversePlan};
use crate::test::MarchTest;
use crate::trace::{SimEngine, TraceArena};

/// Per-worker scoring state: the reusable compile arena, the plan's
/// scratch, and the worker's share of the compile/simulate time split.
#[derive(Default)]
struct EvalWorker {
    arena: TraceArena,
    plan: PlanScratch,
    compile_ns: u64,
    simulate_ns: u64,
}

/// Scores batches of candidate march tests against one fixed universe.
///
/// Construction precomputes everything reusable across candidates (the
/// packed engine's [`UniversePlan`]). Scoring reuses each worker's compile
/// arena and plan scratch — trace buffers, program build buffer, program
/// store and maps, open batches, sense latches. Besides a batch's own
/// bookkeeping (result slots, one sort key per candidate), a packed
/// candidate still allocates two things in the steady state: the arena's
/// copy of its items past the prefix shared with the previous candidate
/// (the next prefix key), and the distinct access programs it resolves,
/// each copied out of the build buffer into the program store and as its
/// content-map key. One scorer serves one `(geometry, expand options,
/// universe, engine)` configuration.
///
/// # Examples
///
/// ```
/// use mbist_march::{library, CandidateBatchScorer, CancelToken, ExpandOptions, SimEngine};
/// use mbist_mem::{class_universe, FaultClass, MemGeometry, UniverseSpec};
///
/// let g = MemGeometry::bit_oriented(16);
/// let universe = class_universe(&g, FaultClass::StuckAt, &UniverseSpec::default());
/// let mut scorer = CandidateBatchScorer::new(
///     g,
///     ExpandOptions::minimal(&g),
///     universe,
///     SimEngine::Packed,
/// );
/// let batch = [library::mats(), library::march_c()];
/// let scores = scorer.score_batch(&batch, Some(1), None, &CancelToken::none());
/// assert_eq!(scores.len(), 2);
/// assert!(scores[1].unwrap() >= scores[0].unwrap(), "march-c dominates mats");
/// ```
pub struct CandidateBatchScorer {
    geometry: MemGeometry,
    expand: ExpandOptions,
    oracle: Oracle,
    workers: Vec<EvalWorker>,
}

/// What a scorer counts detections with; either way it owns the universe.
enum Oracle {
    /// The packed engine's precomputed batching. Worker arenas compile
    /// candidates for it support-restricted.
    Packed(UniversePlan<'static>),
    /// The full-replay oracle, over the universe in order.
    Full(Vec<FaultKind>),
}

impl CandidateBatchScorer {
    /// Builds a scorer for one search configuration.
    #[must_use]
    pub fn new(
        geometry: MemGeometry,
        expand: ExpandOptions,
        universe: Vec<FaultKind>,
        engine: SimEngine,
    ) -> Self {
        let oracle = match engine {
            SimEngine::Packed => Oracle::Packed(UniversePlan::new(geometry, universe)),
            SimEngine::Full => Oracle::Full(universe),
        };
        Self { geometry, expand, oracle, workers: Vec::new() }
    }

    /// The fault universe candidates are scored against.
    #[must_use]
    pub fn universe(&self) -> &[FaultKind] {
        match &self.oracle {
            Oracle::Packed(plan) => plan.universe(),
            Oracle::Full(universe) => universe,
        }
    }

    /// The memory geometry candidates are expanded on.
    #[must_use]
    pub fn geometry(&self) -> MemGeometry {
        self.geometry
    }

    /// The expansion options candidates are expanded with.
    #[must_use]
    pub fn expand_options(&self) -> &ExpandOptions {
        &self.expand
    }

    /// The simulation engine scores are computed with.
    #[must_use]
    pub fn engine(&self) -> SimEngine {
        match self.oracle {
            Oracle::Packed(_) => SimEngine::Packed,
            Oracle::Full(_) => SimEngine::Full,
        }
    }

    /// Accumulated `(compile_ns, simulate_ns)` across all workers and
    /// calls — the bench's compile-vs-simulate time split.
    #[must_use]
    pub fn timing(&self) -> (u64, u64) {
        self.workers.iter().fold((0, 0), |(c, s), w| (c + w.compile_ns, s + w.simulate_ns))
    }

    /// Scores one candidate inline (worker 0): the number of universe
    /// faults it detects, capped at `stop_after` (see
    /// [`CompiledTrace::count_detected`] for the cap rule).
    pub fn score_one(&mut self, test: &MarchTest, stop_after: Option<usize>) -> usize {
        self.ensure_workers(1);
        score_candidate(
            test,
            &self.geometry,
            &self.expand,
            &self.oracle,
            stop_after,
            &mut self.workers[0],
        )
    }

    /// Scores a whole batch, fanning candidates across `jobs` workers (the
    /// calling thread scores the first chunk and spawns one thread per
    /// other chunk), and returns one slot per candidate **in batch
    /// order**.
    ///
    /// Internally candidates are processed in a sorted order that puts
    /// structurally similar candidates next to each other, so sibling
    /// mutations of one parent recompile only their differing suffix in
    /// the worker's arena. The processing order is invisible in the
    /// results: each candidate's score is a pure function of
    /// `(candidate, universe, engine)` — independent of the worker that
    /// computed it and of its neighbors — and lands in the slot fixed by
    /// its batch index, which is what keeps `--jobs 1` and `--jobs N`
    /// trajectories byte-identical.
    ///
    /// `None` slots are candidates left unscored by cancellation: each
    /// worker checks `cancel` before every candidate and stops its chunk
    /// when tripped.
    pub fn score_batch(
        &mut self,
        tests: &[MarchTest],
        jobs: Option<usize>,
        stop_after: Option<usize>,
        cancel: &CancelToken,
    ) -> Vec<Option<usize>> {
        let mut results: Vec<Option<usize>> = vec![None; tests.len()];
        if tests.is_empty() {
            return results;
        }
        // Prefix-sharing order: lexicographic on item structure, so
        // candidates with equal leading elements become neighbors and the
        // arena's element checkpoints carry across them.
        let mut order: Vec<usize> = (0..tests.len()).collect();
        order.sort_by_cached_key(|&i| structural_key(&tests[i]));
        let workers =
            resolve_jobs(jobs).min(tests.len() / MIN_CANDIDATES_PER_WORKER).max(1);
        self.ensure_workers(workers);
        let Self { geometry, expand, oracle, workers: pool } = self;
        let (geometry, expand, oracle) = (&*geometry, &*expand, &*oracle);
        let score_chunk = |indices: &[usize], worker: &mut EvalWorker| {
            let mut scored: Vec<Option<usize>> = vec![None; indices.len()];
            for (&idx, slot) in indices.iter().zip(&mut scored) {
                if cancel.is_cancelled() {
                    break;
                }
                *slot = Some(score_candidate(
                    &tests[idx],
                    geometry,
                    expand,
                    oracle,
                    stop_after,
                    worker,
                ));
            }
            scored
        };
        // The first chunk runs on the calling thread; only the others
        // spawn.
        let mut chunks = order.chunks(tests.len().div_ceil(workers)).zip(pool.iter_mut());
        let (first, worker) = chunks.next().expect("a non-empty batch has a chunk");
        std::thread::scope(|scope| {
            let spawned: Vec<_> = chunks
                .map(|(indices, worker)| {
                    (indices, scope.spawn(move || score_chunk(indices, worker)))
                })
                .collect();
            let inline = (first, score_chunk(first, worker));
            let joined = spawned.into_iter().map(|(indices, handle)| {
                (indices, handle.join().expect("scoring worker panicked"))
            });
            for (indices, scored) in std::iter::once(inline).chain(joined) {
                for (&idx, score) in indices.iter().zip(scored) {
                    results[idx] = score;
                }
            }
        });
        results
    }

    fn ensure_workers(&mut self, n: usize) {
        while self.workers.len() < n {
            self.workers.push(EvalWorker::default());
        }
    }
}

/// A lexicographic byte key over a candidate's item structure, used only
/// to sort a batch so candidates sharing leading elements are processed
/// consecutively (maximizing arena prefix reuse). Keys need not be
/// injective — an imperfect sort costs speed, never correctness.
fn structural_key(test: &MarchTest) -> Vec<u8> {
    use crate::element::{AddressOrder, MarchItem};
    use crate::op::MarchOp;
    let mut key = Vec::with_capacity(test.ops_per_cell() + 2 * test.items().len());
    for item in test.items() {
        match item {
            MarchItem::Pause { ns } => {
                key.push(3);
                key.extend_from_slice(&ns.to_bits().to_be_bytes());
            }
            MarchItem::Element(e) => {
                key.push(match e.order() {
                    AddressOrder::Up => 0,
                    AddressOrder::Down => 1,
                    AddressOrder::Any => 2,
                });
                for op in e.ops() {
                    key.push(match op {
                        MarchOp::Write(false) => 0x10,
                        MarchOp::Write(true) => 0x11,
                        MarchOp::Read(false) => 0x12,
                        MarchOp::Read(true) => 0x13,
                    });
                }
                key.push(0xff);
            }
        }
    }
    key
}

/// The per-candidate hot path: arena recompile, then a capped count.
/// The packed plan's compile falls back from support-restricted to
/// complete when the plan declines it ([`TraceArena::compile_for`]). A
/// candidate is never cut short: cancellation is checked between
/// candidates, so a count is always exact.
fn score_candidate(
    test: &MarchTest,
    geometry: &MemGeometry,
    expand: &ExpandOptions,
    oracle: &Oracle,
    stop_after: Option<usize>,
    worker: &mut EvalWorker,
) -> usize {
    let t0 = Instant::now();
    let t1;
    let detected = match oracle {
        Oracle::Packed(plan) => {
            let plans = std::slice::from_ref(plan);
            let trace = worker.arena.compile_for(test, geometry, expand, plans);
            t1 = Instant::now();
            plan.count_detected(trace, stop_after, &mut worker.plan, &CancelToken::none())
                .expect("the plan accepts the trace compiled for it")
        }
        Oracle::Full(universe) => {
            let trace = worker.arena.compile(test, geometry, expand);
            t1 = Instant::now();
            trace.count_detected(universe, SimEngine::Full, stop_after)
        }
    };
    worker.compile_ns += u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX);
    worker.simulate_ns += u64::try_from(t1.elapsed().as_nanos()).unwrap_or(u64::MAX);
    detected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use crate::trace::CompiledTrace;
    use mbist_mem::{subset_universe, FaultClass, UniverseSpec};

    fn scorer_on(
        engine: SimEngine,
        g: MemGeometry,
        classes: &[FaultClass],
    ) -> CandidateBatchScorer {
        let universe = subset_universe(&g, classes, &UniverseSpec::default(), 48);
        CandidateBatchScorer::new(g, ExpandOptions::for_geometry(&g), universe, engine)
    }

    fn scorer(engine: SimEngine, words: u64) -> CandidateBatchScorer {
        scorer_on(engine, MemGeometry::bit_oriented(words), &FaultClass::ALL)
    }

    /// Every fault class but AF: the whole universe lane-packs, so the
    /// plan's two-word decoder replay stays idle.
    fn packable() -> Vec<FaultClass> {
        FaultClass::ALL.into_iter().filter(|&c| c != FaultClass::AddressDecoder).collect()
    }

    #[test]
    fn batch_scores_equal_serial_reference_for_every_engine() {
        // Bit-oriented single-pass candidates, and word-oriented two-port
        // ones that compile one pass per port × background; universes with
        // AF (whose decoder faults take the plan's two-word replay) and
        // without.
        let batch: Vec<MarchTest> = library::all();
        for g in [MemGeometry::bit_oriented(16), MemGeometry::new(8, 4, 2)] {
            for classes in [FaultClass::ALL.to_vec(), packable()] {
                for engine in SimEngine::ALL {
                    let mut s = scorer_on(engine, g, &classes);
                    let reference: Vec<usize> = batch
                        .iter()
                        .map(|t| {
                            let trace = CompiledTrace::compile(t, &g, s.expand_options());
                            trace.count_detected(s.universe(), engine, None)
                        })
                        .collect();
                    for jobs in [Some(1), Some(3), Some(16)] {
                        let got = s.score_batch(&batch, jobs, None, &CancelToken::none());
                        let got: Vec<usize> = got.into_iter().map(|s| s.unwrap()).collect();
                        assert_eq!(
                            got, reference,
                            "{g} {classes:?} {engine:?} jobs {jobs:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn score_one_and_batch_agree_with_caps() {
        let mut s = scorer(SimEngine::Packed, 16);
        let test = library::march_c();
        let full = s.score_one(&test, None);
        assert!(full > 4);
        for cap in [0, 1, full - 1, full, full + 7] {
            assert_eq!(s.score_one(&test, Some(cap)), full.min(cap));
            let batch = s.score_batch(
                std::slice::from_ref(&test),
                Some(2),
                Some(cap),
                &CancelToken::none(),
            );
            assert_eq!(batch[0], Some(full.min(cap)));
        }
    }

    #[test]
    fn sparse_compile_falls_back_densely_when_the_plan_declines() {
        use crate::element::{AddressOrder, MarchElement, MarchItem};
        use crate::op::MarchOp;
        // A read expecting `1` against a zeroed array replays with golden
        // miscompares, so the packed plan declines the candidate and the
        // scorer must recompile complete for the general engine —
        // interleaved with clean candidates, whose compiles are
        // support-restricted again.
        let dirty = MarchTest::new(
            "dirty",
            vec![MarchItem::Element(MarchElement::new(
                AddressOrder::Up,
                vec![MarchOp::Read(true), MarchOp::Write(true)],
            ))],
        );
        let universes = [FaultClass::ALL.to_vec(), packable()];
        for (words, classes) in
            [2, 16].into_iter().flat_map(|w| universes.iter().map(move |c| (w, c)))
        {
            let mut s =
                scorer_on(SimEngine::Packed, MemGeometry::bit_oriented(words), classes);
            let batch =
                vec![library::march_c(), dirty.clone(), library::mats(), dirty.clone()];
            let reference: Vec<usize> = batch
                .iter()
                .map(|t| {
                    let trace =
                        CompiledTrace::compile(t, &s.geometry(), s.expand_options());
                    trace.count_detected(s.universe(), SimEngine::Packed, None)
                })
                .collect();
            let got = s.score_batch(&batch, Some(1), None, &CancelToken::none());
            let got: Vec<usize> = got.into_iter().map(|s| s.unwrap()).collect();
            assert_eq!(got, reference, "{words} words, {classes:?}");
        }
    }

    #[test]
    fn cancellation_leaves_unscored_slots_none() {
        let mut s = scorer(SimEngine::Packed, 16);
        let batch: Vec<MarchTest> = library::all();
        let cancel = CancelToken::manual();
        cancel.cancel();
        let got = s.score_batch(&batch, Some(2), None, &cancel);
        assert_eq!(got.len(), batch.len());
        assert!(got.iter().all(Option::is_none), "pre-cancelled batch scores nothing");
    }

    #[test]
    fn timing_split_accumulates() {
        let mut s = scorer(SimEngine::Packed, 32);
        let batch: Vec<MarchTest> = library::all();
        let _ = s.score_batch(&batch, Some(1), None, &CancelToken::none());
        let (compile, simulate) = s.timing();
        assert!(compile > 0, "compile time must be attributed");
        assert!(simulate > 0, "simulate time must be attributed");
    }
}

//! Fault-universe simulation: the packed engine on the calling thread,
//! the full-replay oracle fanned out across worker threads.
//!
//! Packed simulation goes through one [`UniversePlan`]
//! ([`crate::packed`]), which batches the universe into 256-lane blocks
//! and replays the trace once per batch on the calling thread. It is not
//! fanned out: at default caps no packed call is large enough to split,
//! and uncapped coverage measured no faster at two workers (see
//! EXPERIMENTS.md).
//!
//! Full replay is embarrassingly parallel: each fault replays the same
//! pre-compiled trace with no shared mutable state. The full engine
//! chunks a universe across scoped worker threads (`std::thread::scope`,
//! no external dependencies) sharing one immutable [`CompiledTrace`] by
//! reference, and reduces the per-chunk verdicts back **in universe
//! order**, so the result is bit-for-bit identical regardless of worker
//! count or engine ([`SimEngine`]). Each worker owns one scratch
//! [`MemoryArray`], reset between faults — an allocation-free steady state
//! instead of per-fault allocations.
//!
//! Workers are panic-isolated: a chunk whose worker dies (however it dies)
//! is transparently re-simulated serially on the reducing thread, so one
//! poisoned fault degrades throughput, never the report.
//!
//! Every entry point carries a [`CancelToken`], checked once per
//! [`CANCEL_CHECK_STRIDE`](crate::CANCEL_CHECK_STRIDE) faults (and per
//! packed batch): a tripped token makes the run return early with partial
//! flags, which callers must discard after checking the token.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

use mbist_mem::{FaultKind, MemoryArray};

use crate::cancel::{CancelToken, CANCEL_CHECK_STRIDE};
use crate::packed::{PlanScratch, UniversePlan};
use crate::trace::{CompiledTrace, SimEngine};

/// Below this many faults per worker, thread spawn overhead outweighs the
/// full-replay work — small whole-universe runs were measurably *slower*
/// parallel than serial — so the chunking rounds the worker count down
/// until every worker holds at least a floor's worth of faults.
const MIN_FAULTS_PER_WORKER: usize = 256;

/// Candidate-batch analogue of the fault floor ([`crate::score`]): one
/// candidate is a whole compile+simulate unit of about 11 µs on the search
/// benchmark's universe, against 23–34 µs for a thread scope that spawns
/// one worker beside the calling thread. At a floor of 4 a generation's
/// ~9 uncached candidates split in two and searches at the default worker
/// count ran about 15% slower than at one worker; at 8 a generation stays
/// on the calling thread (EXPERIMENTS.md).
pub(crate) const MIN_CANDIDATES_PER_WORKER: usize = 8;

/// Resolves a `jobs` request to a concrete worker count.
///
/// `None` asks the host ([`std::thread::available_parallelism`], falling
/// back to 1) once per process: the query reads the affinity mask and
/// cgroup quota, about 22 µs on a 2-core Linux host, which is two search
/// candidates' worth of work, and the search asks once per batch.
/// `Some(n)` forces `n` (clamped to at least 1).
pub(crate) fn resolve_jobs(jobs: Option<usize>) -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    match jobs {
        Some(n) => n.max(1),
        None => *HOST
            .get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get)),
    }
}

/// Simulates every fault in `universe` against a pre-compiled trace,
/// returning one detection flag per fault, in universe order: through a
/// [`UniversePlan`] on the calling thread for the packed engine, across
/// `jobs` workers sharing the trace by reference for the full engine.
///
/// Parallelism and engine only change wall-clock time, never the flags.
///
/// # Panics
///
/// Panics if a fault in `universe` does not fit the trace geometry
/// (generated universes always fit).
pub(crate) fn detect_universe_trace(
    trace: &CompiledTrace,
    universe: &[FaultKind],
    jobs: Option<usize>,
    engine: SimEngine,
    cancel: &CancelToken,
) -> Vec<bool> {
    match engine {
        SimEngine::Packed => UniversePlan::new(trace.geometry(), universe).detect(
            trace,
            &mut PlanScratch::default(),
            cancel,
        ),
        SimEngine::Full => detect_full_resilient(trace, universe, jobs, cancel, None),
    }
}

/// The full engine's fan-out, with a test-only poison hook: while the
/// counter is positive, each worker-side fault simulation decrements it
/// and panics — modeling a worker thread dying mid-chunk. The hook is
/// scoped (no global state), so concurrently running tests cannot poison
/// each other.
fn detect_full_resilient(
    trace: &CompiledTrace,
    universe: &[FaultKind],
    jobs: Option<usize>,
    cancel: &CancelToken,
    poison: Option<&AtomicUsize>,
) -> Vec<bool> {
    let workers = resolve_jobs(jobs).min(universe.len() / MIN_FAULTS_PER_WORKER).max(1);
    if workers <= 1 {
        return run_chunk(trace, universe, cancel, None);
    }
    let chunk = universe.len().div_ceil(workers);
    thread::scope(|scope| {
        let handles: Vec<_> = universe
            .chunks(chunk)
            .map(|faults| {
                let handle = scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        run_chunk(trace, faults, cancel, poison)
                    }))
                    .ok()
                });
                (faults, handle)
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|(faults, handle)| match handle.join() {
                Ok(Some(flags)) => flags,
                // The worker died (caught panic, or one that escaped the
                // isolation): degrade to a serial re-run of its chunk so
                // the report stays complete and bit-identical.
                Ok(None) | Err(_) => {
                    let mut mem = MemoryArray::new(trace.geometry());
                    faults
                        .iter()
                        .take_while(|_| !cancel.is_cancelled())
                        .map(|&f| trace.detect_full(f, &mut mem))
                        .collect()
                }
            })
            .collect()
    })
}

/// Simulates one chunk by full replay, one fault at a time on one scratch
/// array, charging the poison hook once per fault.
fn run_chunk(
    trace: &CompiledTrace,
    faults: &[FaultKind],
    cancel: &CancelToken,
    poison: Option<&AtomicUsize>,
) -> Vec<bool> {
    let mut mem = MemoryArray::new(trace.geometry());
    let mut flags = Vec::with_capacity(faults.len());
    for batch in faults.chunks(CANCEL_CHECK_STRIDE) {
        if cancel.is_cancelled() {
            break;
        }
        flags.extend(batch.iter().map(|&f| {
            maybe_trip(poison);
            trace.detect_full(f, &mut mem)
        }));
    }
    flags
}

/// Decrements the poison counter and panics while it is positive.
fn maybe_trip(poison: Option<&AtomicUsize>) {
    if let Some(counter) = poison {
        let armed = counter
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok();
        if armed {
            panic!("injected fault-simulation worker poison");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::expand;
    use crate::library;
    use mbist_mem::{class_universe, FaultClass, MemGeometry, TestStep, UniverseSpec};

    /// Compiles `steps` once and simulates every fault in `universe`
    /// against the trace, returning one detection flag per fault, in
    /// universe order.
    fn detect_universe(
        geometry: &MemGeometry,
        steps: &[TestStep],
        universe: &[FaultKind],
        jobs: Option<usize>,
        engine: SimEngine,
        cancel: &CancelToken,
    ) -> Vec<bool> {
        let trace = CompiledTrace::from_steps(*geometry, steps);
        detect_universe_trace(&trace, universe, jobs, engine, cancel)
    }

    #[test]
    fn resolve_jobs_clamps_and_defaults() {
        assert_eq!(resolve_jobs(Some(4)), 4);
        assert_eq!(resolve_jobs(Some(0)), 1);
        assert!(resolve_jobs(None) >= 1);
    }

    #[test]
    fn worker_count_and_engine_do_not_change_flags() {
        let g = MemGeometry::bit_oriented(16);
        let steps = expand(&library::march_c(), &g);
        let spec = UniverseSpec::default();
        for class in [FaultClass::StuckAt, FaultClass::CouplingIdempotent] {
            let universe = class_universe(&g, class, &spec);
            let serial = detect_universe(
                &g,
                &steps,
                &universe,
                Some(1),
                SimEngine::Full,
                &CancelToken::none(),
            );
            for engine in SimEngine::ALL {
                for jobs in [Some(1), Some(2), Some(5), None] {
                    assert_eq!(
                        detect_universe(
                            &g,
                            &steps,
                            &universe,
                            jobs,
                            engine,
                            &CancelToken::none()
                        ),
                        serial,
                        "jobs={jobs:?} engine={engine:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn mixed_universe_falls_back_per_fault() {
        // Address-decoder faults interleaved with lane-packable ones: the
        // packed engine must route each fault to the right path.
        let g = MemGeometry::bit_oriented(16);
        let steps = expand(&library::march_c(), &g);
        let spec = UniverseSpec::default();
        let mut universe = class_universe(&g, FaultClass::AddressDecoder, &spec);
        universe.extend(class_universe(&g, FaultClass::StuckOpen, &spec));
        let full = detect_universe(
            &g,
            &steps,
            &universe,
            Some(1),
            SimEngine::Full,
            &CancelToken::none(),
        );
        let packed = detect_universe(
            &g,
            &steps,
            &universe,
            Some(1),
            SimEngine::Packed,
            &CancelToken::none(),
        );
        assert_eq!(full, packed);
    }

    #[test]
    fn tripped_token_stops_the_fanout_early() {
        let g = MemGeometry::bit_oriented(256);
        let steps = expand(&library::march_c(), &g);
        let universe = class_universe(&g, FaultClass::StuckAt, &UniverseSpec::default());
        assert!(universe.len() > CANCEL_CHECK_STRIDE);
        for engine in SimEngine::ALL {
            let cancel = CancelToken::manual();
            cancel.cancel();
            let flags = detect_universe(&g, &steps, &universe, Some(1), engine, &cancel);
            assert!(
                flags.len() < universe.len(),
                "pre-tripped token must cut the {engine:?} run short"
            );
        }
    }

    #[test]
    fn live_token_changes_nothing() {
        let g = MemGeometry::bit_oriented(64);
        let steps = expand(&library::march_c(), &g);
        let universe = class_universe(&g, FaultClass::StuckAt, &UniverseSpec::default());
        let baseline = detect_universe(
            &g,
            &steps,
            &universe,
            Some(1),
            SimEngine::Packed,
            &CancelToken::none(),
        );
        let live = CancelToken::manual();
        assert_eq!(
            detect_universe(&g, &steps, &universe, Some(2), SimEngine::Packed, &live),
            baseline,
            "an untripped token must not perturb the flags"
        );
    }

    #[test]
    fn empty_universe_is_fine() {
        let g = MemGeometry::bit_oriented(4);
        let steps = expand(&library::mats(), &g);
        assert!(detect_universe(
            &g,
            &steps,
            &[],
            Some(8),
            SimEngine::Packed,
            &CancelToken::none()
        )
        .is_empty());
    }

    #[test]
    fn poisoned_chunk_degrades_to_serial_rerun_with_identical_report() {
        // Past the full-replay fan-out floor for Some(4) to spawn ≥ 2
        // workers (the single-worker path runs inline, no panic isolation).
        let g = MemGeometry::bit_oriented(256);
        let steps = expand(&library::march_c(), &g);
        let universe = class_universe(&g, FaultClass::StuckAt, &UniverseSpec::default());
        assert!(universe.len() >= 2 * MIN_FAULTS_PER_WORKER);
        let reference = detect_universe(
            &g,
            &steps,
            &universe,
            Some(1),
            SimEngine::Full,
            &CancelToken::none(),
        );
        let trace = CompiledTrace::from_steps(g, &steps);

        // One transient worker death: the first simulated fault panics.
        let poison = AtomicUsize::new(1);
        let flags = detect_full_resilient(
            &trace,
            &universe,
            Some(4),
            &CancelToken::none(),
            Some(&poison),
        );
        assert_eq!(flags, reference, "degraded run must be bit-identical");
        assert_eq!(poison.load(Ordering::SeqCst), 0, "poison actually fired");
    }

    #[test]
    fn multiple_poisoned_chunks_all_recover() {
        let g = MemGeometry::bit_oriented(256);
        let steps = expand(&library::march_c(), &g);
        let universe = class_universe(&g, FaultClass::StuckAt, &UniverseSpec::default());
        assert!(universe.len() >= 2 * MIN_FAULTS_PER_WORKER);
        let reference = detect_universe(
            &g,
            &steps,
            &universe,
            Some(1),
            SimEngine::Full,
            &CancelToken::none(),
        );
        let trace = CompiledTrace::from_steps(g, &steps);

        // Kill the first fault of (up to) every chunk: several workers die,
        // every chunk is re-run serially, the report is still complete.
        let poison = AtomicUsize::new(universe.len());
        let flags = detect_full_resilient(
            &trace,
            &universe,
            Some(4),
            &CancelToken::none(),
            Some(&poison),
        );
        assert_eq!(flags, reference);
    }
}

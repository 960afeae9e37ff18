//! Parallel fan-out of serial fault simulation over a fault universe.
//!
//! Serial fault simulation is embarrassingly parallel: each fault replays
//! the same pre-compiled trace with no shared mutable state. This module
//! chunks a universe across scoped worker threads (`std::thread::scope`,
//! no external dependencies) sharing one immutable [`CompiledTrace`] by
//! reference, and reduces the per-chunk verdicts back **in universe
//! order**, so the result is bit-for-bit identical regardless of worker
//! count or engine ([`SimEngine`]).
//!
//! Each worker owns one [`WorkerScratch`]: faults taking a full replay
//! (every fault under [`SimEngine::Full`]) reuse its scratch
//! [`MemoryArray`], reset between faults, and the per-fault sliced replays
//! ([`detect_one`]) reuse its sense-latch buffer — an allocation-free
//! steady state instead of per-fault allocations. Under
//! [`SimEngine::Packed`] the chunk itself is the work unit: the worker
//! batches its faults into 256-lane blocks and replays the trace once per
//! batch (see [`crate::packed`]).
//!
//! Workers are panic-isolated: a chunk whose worker dies (however it dies)
//! is transparently re-simulated serially on the reducing thread, so one
//! poisoned fault degrades throughput, never the report.
//!
//! Every entry point carries a [`CancelToken`], checked once per
//! [`CANCEL_CHECK_STRIDE`](crate::CANCEL_CHECK_STRIDE) faults (and per
//! packed batch): a tripped token makes workers return early with partial
//! flags, which callers must discard after checking the token.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use mbist_mem::{FaultKind, MemoryArray};

use crate::cancel::{CancelToken, CANCEL_CHECK_STRIDE};
use crate::packed;
use crate::sliced::SlicedScratch;
use crate::trace::{CompiledTrace, SimEngine};

/// Reusable per-worker simulation scratch: the lazily-created full-replay
/// array plus the sliced replay's sense-latch buffer.
#[derive(Default)]
pub(crate) struct WorkerScratch {
    mem: Option<MemoryArray>,
    sliced: SlicedScratch,
}

impl WorkerScratch {
    /// Full replay of one fault on the lazily-created scratch array (reset
    /// between faults).
    pub(crate) fn detect_full(&mut self, trace: &CompiledTrace, fault: FaultKind) -> bool {
        let mem = self.mem.get_or_insert_with(|| MemoryArray::new(trace.geometry()));
        trace.detect_full(fault, mem)
    }
}

/// Below this many faults per worker, thread spawn overhead outweighs the
/// full-replay work — small whole-universe runs were measurably *slower*
/// parallel than serial — so the chunking rounds the worker count down
/// until every worker holds at least a floor's worth of faults.
const MIN_FAULTS_PER_WORKER: usize = 256;

/// The packed engine amortizes one trace walk over a 256-lane batch, so a
/// worker needs proportionally more faults before fan-out pays for itself
/// (splitting also fragments batches: two half-full batches walk the trace
/// twice).
const MIN_FAULTS_PER_PACKED_WORKER: usize = 1024;

/// Candidate-batch analogue of the fault floors ([`crate::score`]): one
/// candidate is a whole compile+simulate unit (tens of microseconds), so
/// the break-even batch size per worker is far smaller than for faults.
pub(crate) const MIN_CANDIDATES_PER_WORKER: usize = 4;

/// The engine-aware fan-out floor. Worker count is clamped to
/// `universe.len() / floor`, so every spawned worker simulates at least a
/// floor's worth — jobs=1 and jobs=N stay bit-identical either way; the
/// floor only moves the parallelism break-even point.
fn min_faults_per_worker(engine: SimEngine) -> usize {
    match engine {
        SimEngine::Packed => MIN_FAULTS_PER_PACKED_WORKER,
        SimEngine::Full => MIN_FAULTS_PER_WORKER,
    }
}

/// Resolves a `jobs` request to a concrete worker count.
///
/// `None` asks the host ([`std::thread::available_parallelism`], falling
/// back to 1); `Some(n)` forces `n` (clamped to at least 1).
pub(crate) fn resolve_jobs(jobs: Option<usize>) -> usize {
    match jobs {
        Some(n) => n.max(1),
        None => thread::available_parallelism().map_or(1, NonZeroUsize::get),
    }
}

/// Compiles `steps` once and simulates every fault in `universe` against
/// the trace, returning one detection flag per fault, in universe order.
#[cfg(test)]
fn detect_universe(
    geometry: &mbist_mem::MemGeometry,
    steps: &[mbist_mem::TestStep],
    universe: &[FaultKind],
    jobs: Option<usize>,
    engine: SimEngine,
    cancel: &CancelToken,
) -> Vec<bool> {
    let trace = CompiledTrace::from_steps(*geometry, steps);
    detect_universe_trace(&trace, universe, jobs, engine, cancel)
}

/// Simulates every fault in `universe` against a pre-compiled trace
/// (shared by reference across the workers), returning one detection flag
/// per fault, in universe order.
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
    detect_universe_resilient(trace, universe, jobs, engine, cancel, None)
}

/// [`detect_universe_trace`] with a test-only poison hook: while the
/// counter is positive, each worker-side fault simulation decrements it and
/// panics — modeling a worker thread dying mid-chunk. The hook is scoped
/// (no global state), so concurrently running tests cannot poison each
/// other.
fn detect_universe_resilient(
    trace: &CompiledTrace,
    universe: &[FaultKind],
    jobs: Option<usize>,
    engine: SimEngine,
    cancel: &CancelToken,
    poison: Option<&AtomicUsize>,
) -> Vec<bool> {
    let workers =
        resolve_jobs(jobs).min(universe.len() / min_faults_per_worker(engine)).max(1);
    if workers <= 1 {
        return run_chunk(
            trace,
            universe,
            engine,
            &mut WorkerScratch::default(),
            cancel,
            None,
        );
    }
    let chunk = universe.len().div_ceil(workers);
    thread::scope(|scope| {
        let handles: Vec<_> = universe
            .chunks(chunk)
            .map(|faults| {
                let handle = scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        let mut scratch = WorkerScratch::default();
                        run_chunk(trace, faults, engine, &mut scratch, cancel, poison)
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
                // isolation): degrade to a serial per-fault re-run of its
                // chunk so the report stays complete and bit-identical.
                Ok(None) | Err(_) => {
                    let mut scratch = WorkerScratch::default();
                    faults
                        .iter()
                        .take_while(|_| !cancel.is_cancelled())
                        .map(|&f| match engine {
                            SimEngine::Packed => detect_one(trace, f, &mut scratch),
                            SimEngine::Full => scratch.detect_full(trace, f),
                        })
                        .collect()
                }
            })
            .collect()
    })
}

/// Simulates one chunk through the selected engine: a full replay per
/// fault for the full engine, batched lane-parallel for the packed engine.
/// The poison hook charges once per fault regardless of engine, so the
/// worker-death resilience tests behave uniformly.
fn run_chunk(
    trace: &CompiledTrace,
    faults: &[FaultKind],
    engine: SimEngine,
    scratch: &mut WorkerScratch,
    cancel: &CancelToken,
    poison: Option<&AtomicUsize>,
) -> Vec<bool> {
    match engine {
        SimEngine::Packed => {
            faults.iter().for_each(|_| maybe_trip(poison));
            packed::detect_chunk(trace, faults, scratch, cancel)
        }
        SimEngine::Full => {
            let mut flags = Vec::with_capacity(faults.len());
            for batch in faults.chunks(CANCEL_CHECK_STRIDE) {
                if cancel.is_cancelled() {
                    break;
                }
                flags.extend(batch.iter().map(|&f| {
                    maybe_trip(poison);
                    scratch.detect_full(trace, f)
                }));
            }
            flags
        }
    }
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

/// The packed engine's per-fault path, for the faults it cannot lane-pack
/// (and for re-running a dead worker's chunk): the sliced replay over the
/// fault's support words or decoder word pair, else a full replay on the
/// scratch array. Sliced replays reuse the scratch's sense-latch buffer.
pub(crate) fn detect_one(
    trace: &CompiledTrace,
    fault: FaultKind,
    scratch: &mut WorkerScratch,
) -> bool {
    match crate::sliced::detect_sliced_with(trace, fault, &mut scratch.sliced) {
        Some(flag) => flag,
        None => scratch.detect_full(trace, fault),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::expand;
    use crate::library;
    use mbist_mem::{class_universe, FaultClass, MemGeometry, UniverseSpec};

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
    fn packed_chunking_is_invariant_under_worker_count() {
        // Worker count changes batch composition (each worker batches only
        // its own chunk), which must never change a verdict. The universe
        // must clear the packed fan-out floor or no threads spawn at all.
        let g = MemGeometry::bit_oriented(128);
        let steps = expand(&library::march_c(), &g);
        let spec = UniverseSpec::default();
        let mut universe = Vec::new();
        for class in FaultClass::ALL {
            universe.extend(class_universe(&g, class, &spec));
        }
        assert!(
            universe.len() >= 2 * MIN_FAULTS_PER_PACKED_WORKER,
            "universe too small to exercise packed fan-out"
        );
        let serial = detect_universe(
            &g,
            &steps,
            &universe,
            Some(1),
            SimEngine::Packed,
            &CancelToken::none(),
        );
        assert_eq!(
            serial,
            detect_universe(
                &g,
                &steps,
                &universe,
                Some(1),
                SimEngine::Full,
                &CancelToken::none()
            ),
            "packed serial must match the full oracle"
        );
        for jobs in [Some(2), Some(7), None] {
            assert_eq!(
                detect_universe(
                    &g,
                    &steps,
                    &universe,
                    jobs,
                    SimEngine::Packed,
                    &CancelToken::none()
                ),
                serial,
                "jobs={jobs:?}"
            );
        }
    }

    #[test]
    fn poisoned_packed_chunk_degrades_to_serial_rerun() {
        // Large enough that Some(4) still fans out past the packed floor —
        // the single-worker path runs inline and would propagate the panic.
        let g = MemGeometry::bit_oriented(1024);
        let steps = expand(&library::march_c(), &g);
        let universe = class_universe(&g, FaultClass::StuckAt, &UniverseSpec::default());
        assert!(universe.len() >= 2 * MIN_FAULTS_PER_PACKED_WORKER);
        let reference = detect_universe(
            &g,
            &steps,
            &universe,
            Some(1),
            SimEngine::Packed,
            &CancelToken::none(),
        );
        let trace = CompiledTrace::from_steps(g, &steps);
        let poison = AtomicUsize::new(1);
        let flags = detect_universe_resilient(
            &trace,
            &universe,
            Some(4),
            SimEngine::Packed,
            &CancelToken::none(),
            Some(&poison),
        );
        assert_eq!(flags, reference, "degraded packed run must be bit-identical");
        assert_eq!(poison.load(Ordering::SeqCst), 0, "poison actually fired");
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
        let flags = detect_universe_resilient(
            &trace,
            &universe,
            Some(4),
            SimEngine::Full,
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
        let flags = detect_universe_resilient(
            &trace,
            &universe,
            Some(4),
            SimEngine::Full,
            &CancelToken::none(),
            Some(&poison),
        );
        assert_eq!(flags, reference);
    }
}

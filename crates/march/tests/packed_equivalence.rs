//! Randomized equivalence suite: the lane-packed bit-parallel engine — on
//! whole universes and on the single fault of [`CompiledTrace::detect`], a
//! one-fault plan — must be bit-for-bit equivalent to the full replay on
//! arbitrary step streams — not just on well-formed march expansions —
//! across bit- and word-oriented geometries, multi-port streams, `Pause`
//! steps (the Retention timing axis) and repeated reads (the PullOpen
//! drain axis). A
//! fixed-seed corpus (`engine_corpus`) reruns deterministic stream seeds
//! on every CI run, so a failure reproduces without chasing the
//! property-test RNG.

use proptest::prelude::*;

use mbist_march::{
    evaluate_coverage, expand_with, library, run_steps_detect, CompiledTrace,
    CoverageOptions, ExpandOptions, SimEngine,
};
use mbist_mem::{
    class_universe, FaultClass, MemGeometry, MemoryArray, Operation, PortId, TestStep,
    UniverseSpec,
};
use mbist_rtl::Bits;

/// The geometry menu: bit-oriented (power-of-two and not), word-oriented,
/// and multi-port.
fn geometry(choice: usize) -> MemGeometry {
    match choice % 5 {
        0 => MemGeometry::bit_oriented(16),
        1 => MemGeometry::bit_oriented(24),
        2 => MemGeometry::word_oriented(8, 4),
        3 => MemGeometry::word_oriented(6, 8),
        _ => MemGeometry::new(12, 1, 2),
    }
}

/// One raw step seed: `(addr, data, action, port)`; the action selector
/// mixes writes, checked/unchecked reads and retention-scale pauses.
fn arb_raw_steps() -> impl Strategy<Value = Vec<(u64, u64, u8, u8)>> {
    prop::collection::vec((any::<u64>(), any::<u64>(), any::<u8>(), any::<u8>()), 1..200)
}

/// Builds a concrete step stream from the raw seeds, tracking a fault-free
/// golden model so checked reads carry consistent expectations (with a
/// rare deliberately-wrong expectation to exercise the golden-miscompare
/// path).
fn build_steps(g: &MemGeometry, raw: &[(u64, u64, u8, u8)]) -> Vec<TestStep> {
    let mask = if g.width() >= 64 { u64::MAX } else { (1u64 << g.width()) - 1 };
    let mut golden = vec![0u64; usize::try_from(g.words()).unwrap()];
    let mut steps = Vec::with_capacity(raw.len());
    for &(addr, data, action, port) in raw {
        let addr = addr % g.words();
        let port = PortId(port % g.ports());
        match action % 16 {
            // Pauses straddle the default 50 µs retention threshold.
            0 => steps.push(TestStep::Pause { ns: 30_000.0 }),
            1 => steps.push(TestStep::Pause { ns: 60_000.0 }),
            2 | 3 => steps.push(TestStep::Bus(mbist_mem::BusCycle {
                port,
                addr,
                op: Operation::Read,
                expected: None,
            })),
            // A sliver of deliberately-wrong expectations: the stream is
            // dirty even fault-free, and both engines must agree it
            // "detects" everything.
            4 if action == 4 && data % 97 == 0 => {
                steps.push(TestStep::Bus(mbist_mem::BusCycle {
                    port,
                    addr,
                    op: Operation::Read,
                    expected: Some(Bits::new(g.width(), golden[addr as usize] ^ 1)),
                }));
            }
            4..=9 => steps.push(TestStep::Bus(mbist_mem::BusCycle {
                port,
                addr,
                op: Operation::Read,
                expected: Some(Bits::new(g.width(), golden[addr as usize])),
            })),
            _ => {
                let value = data & mask;
                golden[addr as usize] = value;
                steps.push(TestStep::Bus(mbist_mem::BusCycle {
                    port,
                    addr,
                    op: Operation::Write(Bits::new(g.width(), value)),
                    expected: None,
                }));
            }
        }
    }
    steps
}

proptest! {
    /// `detect` ≡ full and packed ≡ full for a random fault of a random
    /// class on a random stream — the core differential property.
    #[test]
    fn detect_and_packed_match_full_replay(
        raw in arb_raw_steps(),
        geom_choice in 0usize..5,
        class_idx in 0usize..FaultClass::ALL.len(),
        fault_idx in any::<usize>(),
    ) {
        let g = geometry(geom_choice);
        let spec = UniverseSpec::default();
        let universe = class_universe(&g, FaultClass::ALL[class_idx], &spec);
        if universe.is_empty() {
            return Ok(());
        }
        let fault = universe[fault_idx % universe.len()];
        let steps = build_steps(&g, &raw);
        let trace = CompiledTrace::from_steps(g, &steps);

        let mut mem = MemoryArray::with_fault(g, fault).unwrap();
        let full = run_steps_detect(&mut mem, &steps);

        prop_assert_eq!(trace.detect(fault), full, "routed detect on {} ({})", fault, g);
        let packed = trace.detect_universe(&[fault], Some(1), SimEngine::Packed);
        prop_assert_eq!(packed[0], full, "packed vs full on {} ({})", fault, g);
    }

    /// The packed engine batches whole class universes (up to 256 faults
    /// per replay, batch composition decided by the scheduler) — the flags
    /// must still match a per-fault full replay on arbitrary streams.
    #[test]
    fn packed_batches_match_full_replay(
        raw in arb_raw_steps(),
        geom_choice in 0usize..5,
        class_idx in 0usize..FaultClass::ALL.len(),
    ) {
        let g = geometry(geom_choice);
        let universe =
            class_universe(&g, FaultClass::ALL[class_idx], &UniverseSpec::default());
        if universe.is_empty() {
            return Ok(());
        }
        let steps = build_steps(&g, &raw);
        let trace = CompiledTrace::from_steps(g, &steps);
        let packed = trace.detect_universe(&universe, Some(1), SimEngine::Packed);
        for (fault, flag) in universe.iter().zip(packed) {
            let mut mem = MemoryArray::with_fault(g, *fault).unwrap();
            prop_assert_eq!(
                flag,
                run_steps_detect(&mut mem, &steps),
                "packed batch vs full on {} ({})",
                fault,
                g
            );
        }
    }

    /// Timing-sensitive classes deserve extra shots: Retention decay
    /// (pause-driven) and PullOpen drain (consecutive-read-driven) must
    /// agree on streams full of pauses and repeated reads, through
    /// `detect` and the packed universe run alike.
    #[test]
    fn timing_sensitive_classes_agree(
        raw in arb_raw_steps(),
        geom_choice in 0usize..5,
        fault_idx in any::<usize>(),
        class_pick in 0usize..3,
    ) {
        let g = geometry(geom_choice);
        let class = [FaultClass::Retention, FaultClass::PullOpen, FaultClass::StuckOpen]
            [class_pick];
        let universe = class_universe(&g, class, &UniverseSpec::default());
        if universe.is_empty() {
            return Ok(());
        }
        let fault = universe[fault_idx % universe.len()];
        let steps = build_steps(&g, &raw);
        let trace = CompiledTrace::from_steps(g, &steps);

        let mut mem = MemoryArray::with_fault(g, fault).unwrap();
        let full = run_steps_detect(&mut mem, &steps);
        prop_assert_eq!(trace.detect(fault), full, "routed detect on {} ({})", fault, g);
        let packed = trace.detect_universe(&[fault], Some(1), SimEngine::Packed);
        prop_assert_eq!(packed[0], full, "packed vs full on {} ({})", fault, g);
    }

    /// The classes the packed engine vectorizes via special lane state —
    /// stuck-open latches, retention decay deadlines and fixed-shape NPSF —
    /// on full-policy march expansions: word-oriented geometries loop
    /// multiple data backgrounds and the multi-port geometry repeats per
    /// port, the exact batches the packed engine folds across backgrounds
    /// and ports.
    #[test]
    fn multi_background_expansions_agree_on_latched_classes(
        geom_choice in 0usize..5,
        test_idx in any::<usize>(),
        class_pick in 0usize..4,
        fault_idx in any::<usize>(),
    ) {
        let g = geometry(geom_choice);
        let class = [
            FaultClass::StuckOpen,
            FaultClass::Retention,
            FaultClass::NpsfStatic,
            FaultClass::NpsfActive,
        ][class_pick];
        let universe = class_universe(&g, class, &UniverseSpec::default());
        if universe.is_empty() {
            return Ok(());
        }
        let tests = library::all();
        let test = &tests[test_idx % tests.len()];
        let steps = expand_with(test, &g, &ExpandOptions::for_geometry(&g));
        let trace = CompiledTrace::from_steps(g, &steps);
        let fault = universe[fault_idx % universe.len()];
        let mut mem = MemoryArray::with_fault(g, fault).unwrap();
        let full = run_steps_detect(&mut mem, &steps);
        let packed = trace.detect_universe(&[fault], Some(1), SimEngine::Packed);
        prop_assert_eq!(packed[0], full, "packed vs full on {} ({}, {})", fault, g, test.name());
        prop_assert_eq!(trace.detect(fault), full, "routed detect on {} ({})", fault, g);
    }

    /// Whole-report equivalence through the public coverage API, including
    /// under multi-worker fan-out: engine × jobs never changes a report.
    #[test]
    fn coverage_reports_agree_across_engines_and_jobs(
        geom_choice in 0usize..5,
        test_idx in any::<usize>(),
    ) {
        let g = geometry(geom_choice);
        let tests = library::all();
        let test = &tests[test_idx % tests.len()];
        let opts = |engine: SimEngine, jobs: Option<usize>| CoverageOptions {
            max_faults_per_class: Some(48),
            jobs,
            engine,
            ..CoverageOptions::default()
        };
        let reference = evaluate_coverage(test, &g, &opts(SimEngine::Full, Some(1)));
        for engine in SimEngine::ALL {
            for jobs in [Some(1), Some(3), None] {
                prop_assert_eq!(
                    &evaluate_coverage(test, &g, &opts(engine, jobs)),
                    &reference,
                    "{} engine={:?} jobs={:?}",
                    test.name(),
                    engine,
                    jobs
                );
            }
        }
    }
}

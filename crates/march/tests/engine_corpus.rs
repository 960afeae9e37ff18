//! Fixed-seed regression corpus for the engine equivalence (packed vs
//! full, and the per-fault path vs full).
//!
//! The `sliced_equivalence` property suite explores random streams behind
//! the `proptest` feature; this corpus replays a committed set of
//! deterministic stream seeds on every tier-1 `cargo test` run, so an
//! engine divergence found in CI reproduces exactly — the failure message
//! names the `(seed, geometry)` pair, with no property-test RNG to chase.

use mbist_march::{
    expand_with, library, run_steps_detect, CompiledTrace, ExpandOptions, SimEngine,
};
use mbist_mem::{
    class_universe, FaultClass, MemGeometry, MemoryArray, Operation, PortId, TestStep,
    UniverseSpec,
};
use mbist_rtl::Bits;

/// The same geometry menu as the property suite: bit-oriented (power-of-
/// two and not), word-oriented, and multi-port.
fn geometry(choice: usize) -> MemGeometry {
    match choice % 5 {
        0 => MemGeometry::bit_oriented(16),
        1 => MemGeometry::bit_oriented(24),
        2 => MemGeometry::word_oriented(8, 4),
        3 => MemGeometry::word_oriented(6, 8),
        _ => MemGeometry::new(12, 1, 2),
    }
}

/// Builds a concrete step stream from raw `(addr, data, action, port)`
/// seeds, tracking a fault-free golden model so checked reads carry
/// consistent expectations (with a rare deliberately-wrong expectation to
/// exercise the golden-miscompare path) — the same stream shape the
/// property suite generates.
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
            // dirty even fault-free, and every engine must agree it
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

/// A tiny deterministic generator (xorshift64*): no RNG state leaves this
/// file, so a corpus failure reproduces exactly on every machine.
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// The committed regression corpus: each seed drives one stream, cycling
/// through the geometry menu so every shape (including pause-heavy and
/// multi-port streams) is covered twice.
const CORPUS_SEEDS: [u64; 10] = [
    0x0000_0000_0000_0001,
    0x9e37_79b9_7f4a_7c15, // golden-ratio increment
    0xdead_beef_cafe_f00d,
    0x0123_4567_89ab_cdef,
    0xffff_ffff_ffff_fffe,
    0x0f0f_0f0f_0f0f_0f0f,
    0x5555_5555_5555_5555,
    0xa5a5_a5a5_5a5a_5a5a,
    0x1357_9bdf_0246_8ace,
    0x7fff_ffff_ffff_ffff,
];

#[test]
fn fixed_seed_corpus_agrees_three_ways() {
    for (i, &seed) in CORPUS_SEEDS.iter().enumerate() {
        let g = geometry(i);
        let mut rng = Xorshift(seed);
        let len = 40 + usize::try_from(rng.next() % 160).unwrap();
        let raw: Vec<(u64, u64, u8, u8)> = (0..len)
            .map(|_| {
                let w = rng.next();
                (rng.next(), rng.next(), (w >> 8) as u8, w as u8)
            })
            .collect();
        let steps = build_steps(&g, &raw);
        let trace = CompiledTrace::from_steps(g, &steps);
        let mut universe = Vec::new();
        for class in FaultClass::ALL {
            universe.extend(class_universe(&g, class, &UniverseSpec::default()));
        }
        let full: Vec<bool> = universe
            .iter()
            .map(|&fault| {
                let mut mem = MemoryArray::with_fault(g, fault).unwrap();
                run_steps_detect(&mut mem, &steps)
            })
            .collect();
        for jobs in [Some(1), Some(3)] {
            assert_eq!(
                trace.detect_universe(&universe, jobs, SimEngine::Packed),
                full,
                "corpus seed {seed:#x} ({g}) disagrees under packed jobs={jobs:?}"
            );
        }
        for (&fault, &flag) in universe.iter().zip(&full) {
            assert_eq!(
                trace.detect(fault),
                flag,
                "corpus seed {seed:#x} ({g}): per-fault detect disagrees on {fault}"
            );
        }
    }
}

/// March-expansion corpus for the classes the packed engine vectorizes via
/// special lane state: stuck-open (previous-read latch), retention/DRF
/// (pause-driven decay deadlines) and fixed-shape NPSF. The expansions use
/// the full background/port policy, so word-oriented geometries loop
/// multiple data backgrounds and the multi-port geometry repeats per port —
/// the batches the packed engine folds across backgrounds and ports.
#[test]
fn march_expansions_agree_on_sof_retention_npsf_universes() {
    let classes = [
        FaultClass::StuckOpen,
        FaultClass::Retention,
        FaultClass::PullOpen,
        FaultClass::NpsfStatic,
        FaultClass::NpsfActive,
    ];
    for g in [
        MemGeometry::bit_oriented(24),
        MemGeometry::word_oriented(8, 4),
        MemGeometry::new(12, 1, 2),
    ] {
        // march-c+ carries pauses (retention) and back-to-back reads
        // (pull-open drain); mats+ is the cheap contrast stream.
        for test in [library::march_c_plus(), library::mats_plus()] {
            let steps = expand_with(&test, &g, &ExpandOptions::for_geometry(&g));
            let trace = CompiledTrace::from_steps(g, &steps);
            let mut universe = Vec::new();
            for class in classes {
                universe.extend(class_universe(&g, class, &UniverseSpec::default()));
            }
            let full: Vec<bool> = universe
                .iter()
                .map(|&fault| {
                    let mut mem = MemoryArray::with_fault(g, fault).unwrap();
                    run_steps_detect(&mut mem, &steps)
                })
                .collect();
            for jobs in [Some(1), Some(3)] {
                assert_eq!(
                    trace.detect_universe(&universe, jobs, SimEngine::Packed),
                    full,
                    "{} on {g} disagrees under packed jobs={jobs:?}",
                    test.name()
                );
            }
            for (&fault, &flag) in universe.iter().zip(&full) {
                assert_eq!(
                    trace.detect(fault),
                    flag,
                    "{} on {g}: per-fault detect disagrees on {fault}",
                    test.name()
                );
            }
        }
    }
}

/// Partial-final-block schedules: every lane count around the `u64` word
/// boundary (63/64/65) and the 256-lane block boundary (255/256/257) must
/// agree with the per-fault full replay, including the single-fault batch.
#[test]
fn packed_partial_final_blocks_agree() {
    let g = MemGeometry::bit_oriented(160);
    let universe = class_universe(&g, FaultClass::StuckAt, &UniverseSpec::default());
    assert!(universe.len() >= 257, "need 257+ stuck-at faults, got {}", universe.len());
    let mut rng = Xorshift(0x0bad_5eed_0bad_5eed);
    let raw: Vec<(u64, u64, u8, u8)> = (0..220)
        .map(|_| {
            let w = rng.next();
            (rng.next(), rng.next(), (w >> 8) as u8, w as u8)
        })
        .collect();
    let steps = build_steps(&g, &raw);
    let trace = CompiledTrace::from_steps(g, &steps);
    for lanes in [1usize, 63, 64, 65, 255, 256, 257] {
        let subset = &universe[..lanes];
        let full: Vec<bool> = subset
            .iter()
            .map(|&fault| {
                let mut mem = MemoryArray::with_fault(g, fault).unwrap();
                run_steps_detect(&mut mem, &steps)
            })
            .collect();
        assert_eq!(
            trace.detect_universe(subset, Some(1), SimEngine::Packed),
            full,
            "partial final block of {lanes} lanes disagrees"
        );
    }
}

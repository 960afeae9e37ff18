//! Executing expanded test streams against a memory array.

use mbist_mem::{MemGeometry, MemoryArray, Miscompare, Operation, TestStep};

use crate::expand::{expand_with, ExpandOptions};
use crate::test::MarchTest;

/// The outcome of running a test stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Every failing checked read, in occurrence order.
    pub miscompares: Vec<Miscompare>,
    /// Bus cycles executed.
    pub bus_cycles: u64,
    /// Reads executed.
    pub reads: u64,
    /// Writes executed.
    pub writes: u64,
    /// Total pause time in nanoseconds.
    pub pause_ns: f64,
}

impl RunReport {
    /// Whether the memory passed (no miscompares).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.miscompares.is_empty()
    }
}

/// Drives `steps` into `mem`, checking every read that carries an
/// expectation.
///
/// # Examples
///
/// ```
/// use mbist_march::{expand, library, run_steps};
/// use mbist_mem::{CellId, FaultKind, MemGeometry, MemoryArray};
///
/// let g = MemGeometry::bit_oriented(8);
/// let mut mem = MemoryArray::with_fault(
///     g,
///     FaultKind::StuckAt { cell: CellId::bit_oriented(2), value: true },
/// )?;
/// let report = run_steps(&mut mem, &expand(&library::march_c(), &g));
/// assert!(!report.passed());
/// assert!(report.miscompares.iter().all(|m| m.addr == 2));
/// # Ok::<(), mbist_mem::MemError>(())
/// ```
#[must_use]
pub fn run_steps(mem: &mut MemoryArray, steps: &[TestStep]) -> RunReport {
    let mut report = RunReport::default();
    for step in steps {
        match step {
            TestStep::Pause { ns } => {
                mem.pause(*ns);
                report.pause_ns += ns;
            }
            TestStep::Bus(cycle) => {
                report.bus_cycles += 1;
                match cycle.op {
                    Operation::Write(data) => {
                        report.writes += 1;
                        mem.write(cycle.port, cycle.addr, data);
                    }
                    Operation::Read => {
                        report.reads += 1;
                        let observed = mem.read(cycle.port, cycle.addr);
                        if let Some(expected) = cycle.expected {
                            if observed != expected {
                                report.miscompares.push(Miscompare {
                                    port: cycle.port,
                                    addr: cycle.addr,
                                    expected,
                                    observed,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    report
}

/// Drives `steps` into `mem`, returning `true` at the *first* failing
/// checked read — the early-exit core of serial fault simulation, where
/// the full [`RunReport`] (and the rest of the replay) is wasted work once
/// a fault has been caught.
///
/// Agrees with `!run_steps(mem, steps).passed()` on a fresh array: both
/// replay the identical step stream, this one just stops early.
///
/// # Examples
///
/// ```
/// use mbist_march::{expand, library, run_steps_detect};
/// use mbist_mem::{CellId, FaultKind, MemGeometry, MemoryArray};
///
/// let g = MemGeometry::bit_oriented(8);
/// let mut mem = MemoryArray::with_fault(
///     g,
///     FaultKind::StuckAt { cell: CellId::bit_oriented(2), value: true },
/// )?;
/// assert!(run_steps_detect(&mut mem, &expand(&library::march_c(), &g)));
/// # Ok::<(), mbist_mem::MemError>(())
/// ```
#[must_use]
pub fn run_steps_detect(mem: &mut MemoryArray, steps: &[TestStep]) -> bool {
    for step in steps {
        match step {
            TestStep::Pause { ns } => mem.pause(*ns),
            TestStep::Bus(cycle) => match cycle.op {
                Operation::Write(data) => mem.write(cycle.port, cycle.addr, data),
                Operation::Read => {
                    let observed = mem.read(cycle.port, cycle.addr);
                    if let Some(expected) = cycle.expected {
                        if observed != expected {
                            return true;
                        }
                    }
                }
            },
        }
    }
    false
}

/// Whether `test` detects `fault` on a memory of the given geometry
/// (serial fault simulation of a single fault).
///
/// Compiles the test once ([`CompiledTrace`](crate::trace::CompiledTrace))
/// and decides the fault with a one-fault packed run
/// ([`CompiledTrace::detect`](crate::CompiledTrace::detect)) — same flags
/// as a direct [`run_steps_detect`] on a fresh single-fault array.
/// Simulating many faults against one `(test, geometry)` pair is cheaper
/// via an explicitly shared [`CompiledTrace`](crate::CompiledTrace) or
/// [`evaluate_coverage`](crate::evaluate_coverage).
///
/// # Errors
///
/// Returns the underlying error if the fault does not fit the geometry.
pub fn detects(
    test: &MarchTest,
    geometry: &MemGeometry,
    fault: mbist_mem::FaultKind,
) -> Result<bool, mbist_mem::MemError> {
    if !fault.is_valid_for(geometry) {
        // Same error an injection into an array of this geometry reports.
        return MemoryArray::with_fault(*geometry, fault).map(|_| false);
    }
    let trace = crate::trace::CompiledTrace::compile(
        test,
        geometry,
        &ExpandOptions::for_geometry(geometry),
    );
    Ok(trace.detect(fault))
}

/// Whether `test` is clean on a fault-free memory (no false alarms),
/// regardless of initial memory contents.
#[must_use]
pub fn fault_free_clean(test: &MarchTest, geometry: &MemGeometry) -> bool {
    let steps = expand_with(test, geometry, &ExpandOptions::for_geometry(geometry));
    for seed in [0u64, 1, 0xDEAD_BEEF] {
        let mut mem = MemoryArray::new(*geometry);
        mem.randomize(seed);
        if !run_steps(&mut mem, &steps).passed() {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use mbist_mem::{CellId, FaultKind};

    #[test]
    fn fault_free_runs_pass_for_all_library_tests() {
        let g = MemGeometry::bit_oriented(16);
        for t in library::all() {
            assert!(fault_free_clean(&t, &g), "{} false-alarmed", t.name());
        }
    }

    #[test]
    fn report_counts_reads_and_writes() {
        let g = MemGeometry::bit_oriented(4);
        let mut mem = MemoryArray::new(g);
        let steps = crate::expand::expand(&library::march_c(), &g);
        let r = run_steps(&mut mem, &steps);
        assert_eq!(r.bus_cycles, 40);
        assert_eq!(r.reads, 20);
        assert_eq!(r.writes, 20);
        assert!(r.passed());
    }

    #[test]
    fn march_c_detects_saf_and_reports_address() {
        let g = MemGeometry::bit_oriented(8);
        for value in [false, true] {
            let detected = detects(
                &library::march_c(),
                &g,
                FaultKind::StuckAt { cell: CellId::bit_oriented(5), value },
            )
            .unwrap();
            assert!(detected);
        }
    }

    #[test]
    fn mats_misses_transition_fault_but_march_c_catches_it() {
        let g = MemGeometry::bit_oriented(8);
        let fault = FaultKind::Transition { cell: CellId::bit_oriented(3), rising: false };
        assert!(detects(&library::march_c(), &g, fault).unwrap());
        // MATS reads each state only immediately after writing the other,
        // so the 1→0 TF is caught… but plain MATS with ⇕ orders misses some
        // faults; the canonical miss: MATS misses TF↓? MATS: w0;(r0,w1);(r1).
        // 1→0 never exercised → must be missed.
        assert!(!detects(&library::mats(), &g, fault).unwrap());
    }

    #[test]
    fn retention_fault_needs_pause_variant() {
        let g = MemGeometry::bit_oriented(8);
        let fault = FaultKind::Retention {
            cell: CellId::bit_oriented(1),
            decays_to: true,
            retention_ns: 50_000.0,
        };
        assert!(!detects(&library::march_c(), &g, fault).unwrap());
        assert!(detects(&library::march_c_plus(), &g, fault).unwrap());
    }

    #[test]
    fn pull_open_fault_needs_triple_read_variant() {
        let g = MemGeometry::bit_oriented(8);
        let fault = FaultKind::PullOpen {
            cell: CellId::bit_oriented(6),
            good_reads: 2,
            decays_to: false,
        };
        assert!(!detects(&library::march_c_plus(), &g, fault).unwrap());
        assert!(detects(&library::march_c_plus_plus(), &g, fault).unwrap());
    }

    #[test]
    fn detect_agrees_with_full_replay() {
        let g = MemGeometry::bit_oriented(8);
        let steps = crate::expand::expand(&library::march_c(), &g);
        for value in [false, true] {
            for w in 0..8 {
                let fault = FaultKind::StuckAt { cell: CellId::bit_oriented(w), value };
                let mut a = MemoryArray::with_fault(g, fault).unwrap();
                let mut b = MemoryArray::with_fault(g, fault).unwrap();
                assert_eq!(
                    run_steps_detect(&mut a, &steps),
                    !run_steps(&mut b, &steps).passed()
                );
            }
        }
        let mut clean = MemoryArray::new(g);
        assert!(!run_steps_detect(&mut clean, &steps));
    }

    #[test]
    fn pause_time_is_accumulated() {
        let g = MemGeometry::bit_oriented(2);
        let mut mem = MemoryArray::new(g);
        let steps = crate::expand::expand(&library::march_c_plus(), &g);
        let r = run_steps(&mut mem, &steps);
        assert_eq!(r.pause_ns, 2.0 * library::DEFAULT_RETENTION_PAUSE_NS);
    }
}

//! March-test synthesis: searching for a minimal algorithm that covers a
//! target fault-class set.
//!
//! One promise of a programmable BIST controller is that the *algorithm*
//! becomes a tuning knob: when a fab's dominant defect mix is known, a
//! shorter test with the same effective coverage saves test time on every
//! part. This module automates the search — greedy forward selection over
//! a menu of march-element candidates (scored by incremental faults
//! detected in serial simulation), followed by a backward pruning pass —
//! and emits an ordinary [`MarchTest`] ready for any controller in the
//! workspace.

use mbist_mem::{class_universe, FaultClass, FaultKind, MemGeometry, MemoryArray};

use crate::coverage::{stride_sample, CoverageOptions};
use crate::element::{AddressOrder, MarchElement, MarchItem};
use crate::expand::{expand_with, ExpandOptions};
use crate::fanout::detect_universe_trace;
use crate::op::MarchOp;
use crate::runner::run_steps_detect;
use crate::test::MarchTest;
use crate::trace::{CompiledTrace, TraceArena};

/// Options for the synthesis search.
#[derive(Debug, Clone)]
pub struct SynthesisOptions {
    /// Geometry the search simulates on (small memories search fast; the
    /// result generalizes because march detection arguments are
    /// size-independent for these classes).
    pub geometry: MemGeometry,
    /// Fault classes the result must cover.
    pub classes: Vec<FaultClass>,
    /// Coverage-evaluation parameters (universe spec, sampling).
    pub coverage: CoverageOptions,
    /// Upper bound on march elements (excluding the initialization).
    pub max_elements: usize,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        Self {
            geometry: MemGeometry::bit_oriented(8),
            classes: vec![
                FaultClass::StuckAt,
                FaultClass::Transition,
                FaultClass::AddressDecoder,
            ],
            coverage: CoverageOptions {
                max_faults_per_class: Some(128),
                ..CoverageOptions::default()
            },
            max_elements: 8,
        }
    }
}

/// Outcome of a synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesizedMarch {
    /// The synthesized algorithm.
    pub test: MarchTest,
    /// Faults of the target list the result detects.
    pub detected: usize,
    /// Size of the target fault list.
    pub total: usize,
    /// Candidate evaluations performed (search effort).
    pub evaluations: usize,
}

impl SynthesizedMarch {
    /// Whether every targeted fault is detected.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.detected == self.total
    }
}

/// The candidate element menu the greedy synthesis searches over: per-cell
/// read/write patterns × up/down orders (20 deduplicated elements).
///
/// Public so search-based synthesizers (the `mbist-search` crate) draw
/// from the exact same pool instead of a drifting copy — an element the
/// greedy pass can pick is an element the evolutionary pass can mutate to,
/// and vice versa.
#[must_use]
pub fn candidate_elements() -> Vec<MarchElement> {
    use MarchOp::{Read, Write};
    let patterns: Vec<Vec<MarchOp>> = vec![
        vec![Read(false)],
        vec![Read(true)],
        vec![Read(false), Write(true)],
        vec![Read(true), Write(false)],
        vec![Read(false), Write(true), Read(true)],
        vec![Read(true), Write(false), Read(false)],
        vec![Read(false), Write(true), Write(false)],
        vec![Read(true), Write(false), Write(true)],
        vec![Read(false), Write(true), Read(true), Write(false)],
        vec![Read(true), Write(false), Read(false), Write(true)],
    ];
    let mut out = Vec::new();
    for ops in patterns {
        for order in [AddressOrder::Up, AddressOrder::Down] {
            out.push(MarchElement::new(order, ops.clone()));
        }
    }
    out
}

/// Runs the greedy search.
///
/// # Panics
///
/// Panics if `options.classes` is empty.
#[must_use]
pub fn synthesize_march(name: &str, options: &SynthesisOptions) -> SynthesizedMarch {
    assert!(!options.classes.is_empty(), "need at least one target fault class");
    let g = options.geometry;
    let expand_opts = ExpandOptions::for_geometry(&g);

    // Target fault list (deterministically sampled like evaluate_coverage).
    let mut faults: Vec<FaultKind> = Vec::new();
    for &class in &options.classes {
        let mut u = class_universe(&g, class, &options.coverage.spec);
        if let Some(max) = options.coverage.max_faults_per_class {
            u = stride_sample(u, max);
        }
        faults.extend(u);
    }
    let total = faults.len();
    let mut evaluations = 0usize;

    // Every trial expands and compiles its step stream exactly once and
    // batch-simulates the whole fault list through the (optionally
    // parallel) fan-out with the configured engine.
    let jobs = options.coverage.jobs;
    let engine = options.coverage.engine;
    // A tripped token ends the search at the next loop head (and cuts the
    // in-flight fan-out short); the partial result is still a well-formed
    // march test, just not a converged one — callers that set a token must
    // check it and discard.
    let cancel = &options.coverage.cancel;
    let detect_flags = |test: &MarchTest, list: &[FaultKind]| -> Vec<bool> {
        let trace = CompiledTrace::compile(test, &g, &expand_opts);
        detect_universe_trace(&trace, list, jobs, engine, cancel)
    };
    let clean = |test: &MarchTest| -> bool {
        let mut mem = MemoryArray::new(g);
        !run_steps_detect(&mut mem, &expand_with(test, &g, &expand_opts))
    };
    // Per-trial scoring goes through an arena: consecutive trials share
    // the accepted `items` prefix, so each trial recompiles only its new
    // tail element, and one compile answers both the cleanliness check
    // (golden-replay miscompares) and the incremental gain. Counts equal
    // the legacy expand→compile→detect round trip exactly, so the greedy
    // decisions — and the synthesized test — are unchanged.
    let mut arena = TraceArena::new();
    let mut trial_gain = |test: &MarchTest, list: &[FaultKind]| -> Option<usize> {
        let trace = arena.compile(test, &g, &expand_opts);
        if !trace.golden_miscompares().is_empty() {
            return None; // read expectations inconsistent with state
        }
        Some(trace.count_detected(list, engine, None))
    };
    let survivors = |list: &[FaultKind], flags: &[bool]| -> Vec<FaultKind> {
        list.iter().zip(flags).filter(|&(_, &d)| !d).map(|(&f, _)| f).collect()
    };

    // Start from the canonical initialization.
    let init = MarchElement::new(AddressOrder::Any, vec![MarchOp::Write(false)]);
    let mut items: Vec<MarchItem> = vec![init.into()];
    let mut current = MarchTest::new(name, items.clone());
    let mut undetected = survivors(&faults, &detect_flags(&current, &faults));
    evaluations += total;

    let menu = candidate_elements();
    while !undetected.is_empty() && items.len() - 1 < options.max_elements {
        if cancel.is_cancelled() {
            break;
        }
        let mut best: Option<(usize, usize)> = None; // (menu idx, gain)
        for (k, cand) in menu.iter().enumerate() {
            if cancel.is_cancelled() {
                break;
            }
            let mut trial_items = items.clone();
            trial_items.push(cand.clone().into());
            let trial = MarchTest::new(name, trial_items);
            let Some(gain) = trial_gain(&trial, &undetected) else {
                continue;
            };
            evaluations += undetected.len();
            if gain > 0 && best.is_none_or(|(_, g0)| gain > g0) {
                best = Some((k, gain));
            }
        }
        if let Some((k, _)) = best {
            items.push(menu[k].clone().into());
            current = MarchTest::new(name, items.clone());
            undetected = survivors(&undetected, &detect_flags(&current, &undetected));
            continue;
        }

        // No single element helps: some faults (notably coupling faults
        // needing the opposite address order in a specific state) only pay
        // off as an element *pair*. One level of lookahead breaks the
        // plateau.
        let mut best_pair: Option<(usize, usize, usize)> = None;
        for (a, ca) in menu.iter().enumerate() {
            if cancel.is_cancelled() {
                break;
            }
            for (b, cb) in menu.iter().enumerate() {
                let mut trial_items = items.clone();
                trial_items.push(ca.clone().into());
                trial_items.push(cb.clone().into());
                let trial = MarchTest::new(name, trial_items);
                let Some(gain) = trial_gain(&trial, &undetected) else {
                    continue;
                };
                evaluations += undetected.len();
                if gain > 0 && best_pair.is_none_or(|(_, _, g0)| gain > g0) {
                    best_pair = Some((a, b, gain));
                }
            }
        }
        let Some((a, b, _)) = best_pair else { break };
        items.push(menu[a].clone().into());
        items.push(menu[b].clone().into());
        current = MarchTest::new(name, items.clone());
        undetected = survivors(&undetected, &detect_flags(&current, &undetected));
    }

    // Backward pruning: drop any element whose removal keeps coverage.
    let mut i = 1;
    while i < items.len() {
        if cancel.is_cancelled() {
            break;
        }
        let mut reduced = items.clone();
        reduced.remove(i);
        if reduced.iter().any(|it| it.as_element().is_some()) {
            let trial = MarchTest::new(name, reduced.clone());
            let covers = clean(&trial) && {
                let cur = detect_flags(&current, &faults);
                let red = detect_flags(&trial, &faults);
                cur.iter().zip(&red).all(|(&c, &r)| !c || r)
            };
            evaluations += total;
            if covers {
                items = reduced;
                current = MarchTest::new(name, items.clone());
                continue;
            }
        }
        i += 1;
    }

    let detected = detect_flags(&current, &faults).iter().filter(|&&d| d).count();
    SynthesizedMarch { test: current, detected, total, evaluations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::evaluate_coverage;
    use crate::library;

    #[test]
    fn saf_only_synthesis_is_mats_sized() {
        let options = SynthesisOptions {
            classes: vec![FaultClass::StuckAt],
            ..SynthesisOptions::default()
        };
        let result = synthesize_march("synth-saf", &options);
        assert!(result.is_complete(), "{}/{}", result.detected, result.total);
        assert!(
            result.test.ops_per_cell() <= library::mats().ops_per_cell(),
            "SAF-only test should not exceed MATS (got {})",
            result.test
        );
    }

    #[test]
    fn classic_static_set_is_covered_within_march_c_budget() {
        let options = SynthesisOptions::default(); // SAF + TF + AF
        let result = synthesize_march("synth-static", &options);
        assert!(result.is_complete(), "{}", result.test);
        assert!(
            result.test.ops_per_cell() <= library::march_c().ops_per_cell(),
            "{} ops/cell",
            result.test.ops_per_cell()
        );
    }

    #[test]
    fn coupling_synthesis_reaches_full_coverage_within_march_a_budget() {
        let options = SynthesisOptions {
            classes: vec![
                FaultClass::StuckAt,
                FaultClass::Transition,
                FaultClass::CouplingInversion,
                FaultClass::CouplingIdempotent,
            ],
            max_elements: 10,
            ..SynthesisOptions::default()
        };
        let result = synthesize_march("synth-cf", &options);
        assert!(result.is_complete(), "{}", result.test);
        assert!(
            result.test.ops_per_cell() <= library::march_a().ops_per_cell(),
            "{} ops/cell for {}",
            result.test.ops_per_cell(),
            result.test
        );
        // A repeated-sweep structure is required: a single read/write pass
        // cannot see both coupling transition directions.
        assert!(result.test.element_count() >= 3, "{}", result.test);
    }

    #[test]
    fn synthesized_test_generalizes_to_larger_memories() {
        let options = SynthesisOptions::default();
        let result = synthesize_march("synth-static", &options);
        let big = MemGeometry::bit_oriented(32);
        let report = evaluate_coverage(
            &result.test,
            &big,
            &CoverageOptions {
                classes: options.classes.clone(),
                max_faults_per_class: Some(96),
                ..CoverageOptions::default()
            },
        );
        for row in &report.rows {
            assert!(row.is_complete(), "{} incomplete on 32 cells", row.class);
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let options = SynthesisOptions::default();
        let a = synthesize_march("s", &options);
        let b = synthesize_march("s", &options);
        assert_eq!(a.test.items(), b.test.items());
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn result_never_false_alarms() {
        let options = SynthesisOptions {
            classes: vec![FaultClass::StuckAt, FaultClass::CouplingState],
            ..SynthesisOptions::default()
        };
        let result = synthesize_march("s", &options);
        assert!(crate::runner::fault_free_clean(&result.test, &options.geometry));
    }
}

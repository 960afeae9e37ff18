//! Integration tests: acceptance configuration, determinism across worker
//! counts and engines, and structural invariants of search results.

use mbist_march::{library, MarchTest, SimEngine};
use mbist_mem::{FaultClass, MemGeometry};
use mbist_search::{report_text, search_march, SearchOptions, Strategy};

/// The acceptance universe: classic static classes on a 256×1 memory.
fn acceptance_options() -> SearchOptions {
    SearchOptions {
        geometry: MemGeometry::bit_oriented(256),
        classes: vec![
            FaultClass::StuckAt,
            FaultClass::Transition,
            FaultClass::CouplingInversion,
            FaultClass::CouplingIdempotent,
            FaultClass::CouplingState,
        ],
        max_faults_per_class: 256,
        seed: 1,
        ..SearchOptions::default()
    }
}

/// A cheaper configuration for the cross-run comparisons.
fn small_options() -> SearchOptions {
    SearchOptions {
        geometry: MemGeometry::bit_oriented(64),
        classes: vec![
            FaultClass::StuckAt,
            FaultClass::Transition,
            FaultClass::CouplingIdempotent,
        ],
        max_faults_per_class: 128,
        budget: 600,
        seed: 7,
        ..SearchOptions::default()
    }
}

#[test]
fn evolve_meets_the_acceptance_bar() {
    let found = search_march("found", &acceptance_options());
    assert!(
        found.converged,
        "seed-1 search must reach 100%: {}/{} with {}",
        found.detected, found.total, found.test
    );
    assert_eq!(found.detected, found.total, "target is the full universe");
    assert!(
        found.test.ops_per_cell() <= library::march_c().ops_per_cell(),
        "must not exceed March C's 10n: got {}n ({})",
        found.test.ops_per_cell(),
        found.test
    );
}

#[test]
fn compose_covers_the_classic_static_set() {
    let options = SearchOptions {
        geometry: MemGeometry::bit_oriented(32),
        classes: vec![
            FaultClass::StuckAt,
            FaultClass::Transition,
            FaultClass::AddressDecoder,
        ],
        max_faults_per_class: 128,
        strategy: Strategy::Composition,
        ..SearchOptions::default()
    };
    let found = search_march("composed", &options);
    assert!(found.converged, "{}/{}", found.detected, found.total);
    assert!(
        found.test.ops_per_cell() <= library::march_c().ops_per_cell(),
        "{}n",
        found.test.ops_per_cell()
    );
}

/// Satellite: the same `--seed` must produce byte-identical output no
/// matter how many workers score the candidates.
#[test]
fn same_seed_is_byte_identical_across_job_counts() {
    for strategy in [Strategy::Evolutionary, Strategy::Composition] {
        let serial = search_march(
            "s",
            &SearchOptions { jobs: Some(1), strategy, ..small_options() },
        );
        let parallel = search_march(
            "s",
            &SearchOptions { jobs: Some(4), strategy, ..small_options() },
        );
        assert_eq!(
            serial.test.to_string(),
            parallel.test.to_string(),
            "{} output depends on --jobs",
            strategy.label()
        );
        assert_eq!(serial.detected, parallel.detected);
        assert_eq!(serial.evaluations, parallel.evaluations);
        assert_eq!(serial.generations, parallel.generations);
    }
}

/// The packed oracle and the full-replay oracle must drive the search to
/// the same answer (their detection flags are bit-identical).
#[test]
fn same_seed_is_byte_identical_across_engines() {
    let packed =
        search_march("s", &SearchOptions { engine: SimEngine::Packed, ..small_options() });
    let full =
        search_march("s", &SearchOptions { engine: SimEngine::Full, ..small_options() });
    assert_eq!(packed.test.to_string(), full.test.to_string());
    assert_eq!(packed.detected, full.detected);
    assert_eq!(packed.evaluations, full.evaluations);
}

/// Word-oriented two-port candidates compile one pass per port × data
/// background, with prefix reuse and support-restricted compiles; the
/// search over them must be just as independent of `--jobs` and the
/// engine. Mirrors `mbist synth-search --universe saf,tf,cfid --words 8
/// --width 4 --ports 2 --budget 80 --seed 3`.
#[test]
fn multi_pass_search_is_byte_identical_across_jobs_and_engines() {
    let options = SearchOptions {
        geometry: MemGeometry::new(8, 4, 2),
        classes: vec![
            FaultClass::StuckAt,
            FaultClass::Transition,
            FaultClass::CouplingIdempotent,
        ],
        budget: 80,
        seed: 3,
        ..SearchOptions::default()
    };
    let run = |jobs, engine| {
        let options = SearchOptions { jobs: Some(jobs), engine, ..options.clone() };
        report_text(&search_march("found", &options), &options)
    };
    let serial = run(1, SimEngine::Packed);
    assert!(serial.contains("on 8x4 (2-port)"), "{serial}");
    assert_eq!(run(3, SimEngine::Packed), serial, "output depends on --jobs");
    assert_eq!(run(1, SimEngine::Full), serial, "output depends on the engine");
}

#[test]
fn search_results_never_false_alarm() {
    for strategy in [Strategy::Evolutionary, Strategy::Composition] {
        let options = SearchOptions { strategy, ..small_options() };
        let found = search_march("clean", &options);
        assert!(
            mbist_march::fault_free_clean(&found.test, &options.geometry),
            "{} produced a false-alarming test: {}",
            strategy.label(),
            found.test
        );
    }
}

#[test]
fn results_round_trip_through_notation() {
    for strategy in [Strategy::Evolutionary, Strategy::Composition] {
        let found = search_march("rt", &SearchOptions { strategy, ..small_options() });
        let printed = found.test.to_string();
        let notation = printed.strip_prefix("rt: ").expect("display leads with the name");
        let reparsed =
            MarchTest::parse("rt", notation).expect("searched test must re-parse");
        assert_eq!(reparsed.items(), found.test.items());
    }
}

#[test]
fn target_coverage_below_one_converges_with_a_shorter_test() {
    let full = search_march("full", &small_options());
    let relaxed =
        search_march("relaxed", &SearchOptions { target_coverage: 0.9, ..small_options() });
    assert!(relaxed.converged);
    assert!(relaxed.detected >= relaxed.target_detected);
    assert!(relaxed.test.ops_per_cell() <= full.test.ops_per_cell());
}

#[test]
fn cancelled_search_still_returns_a_well_formed_best_effort() {
    let cancel = mbist_march::CancelToken::manual();
    cancel.cancel();
    let options = SearchOptions { cancel, ..small_options() };
    let found = search_march("partial", &options);
    // The seeds are still evaluated, so a best-so-far test exists and is
    // structurally sound even though the loop never ran.
    assert!(found.test.element_count() >= 1);
    assert!(mbist_march::fault_free_clean(&found.test, &options.geometry));
}

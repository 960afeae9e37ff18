//! Std-only search-synthesis benchmark.
//!
//! Runs both `mbist-search` strategies (the seeded evolutionary loop and
//! the primitive composition) on the classic static fault universe
//! (SAF/TF/CFin/CFid/CFst, stride-sampled) with the packed engine as the
//! fitness oracle, and compares the found test's length against the
//! classical March C / March C+ / March C++ at the coverage each achieves
//! on the *same* sampled universe — the apples-to-apples answer to "did
//! the search find something at least as short as the handwritten tests".
//!
//! Beyond the strategy rows it measures the batched oracle head-to-head
//! against the serial legacy path (one `expand → compile → detect` round
//! trip per candidate) on a canonicalized search-shaped candidate stream,
//! printing a `batched_vs_serial X.XXx` line CI gates on, and — in full
//! mode — a wide 1024×1 / 11-class throughput row that exercises the
//! per-fault paths too.
//!
//! Prints a human summary plus one `search OK` line per strategy that CI
//! greps for (found coverage reaches the target AND the found test is no
//! longer than March C), and emits `BENCH_synth.json` with found length,
//! coverage, the oracle's compile/simulate wall split and batched
//! throughput for both strategies alongside the reference rows. All
//! timing lives in nested `"timing"` objects so determinism checks can
//! strip it wholesale. `--quick` shrinks the workload for smoke runs;
//! `--out PATH` overrides the JSON path.
//!
//! No external crates: timing via `std::time::Instant`, JSON by hand.

use std::fmt::Write as _;
use std::time::Instant;
use std::{env, fs};

use mbist_march::{
    expand_with, library, CancelToken, CandidateBatchScorer, CompiledTrace, ComplementMask,
    ExpandOptions, MarchElement, MarchItem, MarchTest, SimEngine,
};
use mbist_mem::{subset_universe, FaultClass, FaultKind, MemGeometry, UniverseSpec};
use mbist_search::{canonical_elements, search_march, SearchOptions, Strategy};

/// The classic static classes every March C variant targets.
const CLASSES: [FaultClass; 5] = [
    FaultClass::StuckAt,
    FaultClass::Transition,
    FaultClass::CouplingInversion,
    FaultClass::CouplingIdempotent,
    FaultClass::CouplingState,
];

/// The seed benchmark's measured evolutionary throughput at the reference
/// configuration (256×1, 5 classes, budget 2000, seed 1) before the
/// batched oracle landed — the denominator of `speedup_vs_baseline`.
const BASELINE_CANDIDATES_PER_SEC: f64 = 2409.47;

struct StrategyRow {
    strategy: &'static str,
    test: String,
    ops_per_cell: usize,
    detected: usize,
    total: usize,
    converged: bool,
    evaluations: usize,
    generations: usize,
    memo_hits: usize,
    /// Identical-trajectory repetitions the wall figures are the best of.
    reps: usize,
    wall_ns: u128,
    compile_ns: u64,
    simulate_ns: u64,
    candidates_per_sec: f64,
    /// Only the full-mode evolutionary row runs the reference
    /// configuration the baseline was measured on.
    speedup_vs_baseline: Option<f64>,
}

struct ReferenceRow {
    name: String,
    ops_per_cell: usize,
    detected: usize,
    total: usize,
}

/// A reference test's detection count on the same sampled universe the
/// search optimizes against.
fn reference_row(
    test: &MarchTest,
    geometry: &MemGeometry,
    universe: &[FaultKind],
) -> ReferenceRow {
    let steps = expand_with(test, geometry, &ExpandOptions::for_geometry(geometry));
    let trace = CompiledTrace::from_steps(*geometry, &steps);
    let flags = trace.detect_universe(universe, None, SimEngine::Packed);
    ReferenceRow {
        name: test.name().to_string(),
        ops_per_cell: test.ops_per_cell(),
        detected: flags.iter().filter(|&&d| d).count(),
        total: universe.len(),
    }
}

/// A deterministic search-shaped candidate stream: canonicalized library
/// element sequences plus systematic single-edit variants (order
/// complement, element drop, element swap). Canonicalization matters — the
/// evolutionary loop only ever submits fault-free clean candidates, so the
/// stream must replay clean too for the head-to-head to exercise the same
/// oracle fast paths a real search hits.
fn candidate_stream(n: usize) -> Vec<MarchTest> {
    let base: Vec<Vec<MarchElement>> = library::all()
        .iter()
        .map(|t| t.elements().cloned().collect::<Vec<_>>())
        .filter(|e: &Vec<MarchElement>| !e.is_empty())
        .collect();
    let mut out = Vec::new();
    let mut k = 0usize;
    while out.len() < n {
        for b in &base {
            if out.len() >= n {
                break;
            }
            let mut e = b.clone();
            match k % 4 {
                0 => {}
                1 => {
                    let i = k % e.len();
                    e[i] = e[i].complemented(ComplementMask {
                        order: true,
                        data: false,
                        compare: false,
                    });
                }
                2 => {
                    if e.len() > 1 {
                        e.remove(k % e.len());
                    }
                }
                _ => {
                    let i = k % e.len();
                    let j = (k / 2) % e.len();
                    e.swap(i, j);
                }
            }
            out.push(MarchTest::new(
                format!("cand-{}", out.len()),
                canonical_elements(&e).into_iter().map(MarchItem::Element).collect(),
            ));
            k += 1;
        }
    }
    out
}

struct HeadToHead {
    candidates: usize,
    serial_ns: u128,
    batched_ns: u128,
    compile_ns: u64,
    simulate_ns: u64,
    speedup: f64,
}

/// The batched oracle against the serial legacy path on the same
/// candidates and universe, both counting every detection (no early-exit
/// cap) — identical counts asserted, wall clocks compared. The serial side
/// runs one `expand → compile → detect` round trip per candidate on one
/// thread; the batched side fans candidates out at the search default
/// worker count. The scorer is constructed outside the timed region,
/// mirroring a real search (the universe plan is built once per run and
/// amortized over the whole budget).
fn batched_vs_serial(
    geometry: MemGeometry,
    universe: &[FaultKind],
    candidates: usize,
) -> HeadToHead {
    let batch = candidate_stream(candidates);
    let opts = ExpandOptions::for_geometry(&geometry);

    let started = Instant::now();
    let mut serial_counts = Vec::with_capacity(batch.len());
    for test in &batch {
        let steps = expand_with(test, &geometry, &opts);
        let trace = CompiledTrace::from_steps(geometry, &steps);
        let flags = trace.detect_universe(universe, Some(1), SimEngine::Packed);
        serial_counts.push(flags.iter().filter(|&&f| f).count());
    }
    let serial_ns = started.elapsed().as_nanos();

    let mut scorer =
        CandidateBatchScorer::new(geometry, opts, universe.to_vec(), SimEngine::Packed);
    let started = Instant::now();
    let scored = scorer.score_batch(&batch, None, None, &CancelToken::none());
    let batched_ns = started.elapsed().as_nanos();
    let batched_counts: Vec<usize> =
        scored.into_iter().map(|s| s.expect("uncancelled slot scored")).collect();
    assert_eq!(
        batched_counts, serial_counts,
        "batched scorer diverged from the serial reference"
    );
    let (compile_ns, simulate_ns) = scorer.timing();

    HeadToHead {
        candidates: batch.len(),
        serial_ns,
        batched_ns,
        compile_ns,
        simulate_ns,
        speedup: serial_ns as f64 / batched_ns.max(1) as f64,
    }
}

fn run_strategy(
    strategy: Strategy,
    options: &SearchOptions,
    reps: usize,
    speedup_baseline: bool,
) -> StrategyRow {
    let options = SearchOptions { strategy, ..options.clone() };
    // The search is deterministic, so every rep runs the identical
    // trajectory; the fastest rep is the least-noise measurement of the
    // same work (the box shares its single core with neighbors).
    let (mut found, mut wall_ns) = (None, u128::MAX);
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let outcome = search_march("found", &options);
        let elapsed = started.elapsed().as_nanos();
        if elapsed < wall_ns {
            (found, wall_ns) = (Some(outcome), elapsed);
        }
    }
    let found = found.expect("at least one rep ran");
    let candidates_per_sec =
        if wall_ns == 0 { 0.0 } else { found.evaluations as f64 / (wall_ns as f64 / 1e9) };
    StrategyRow {
        strategy: strategy.label(),
        test: found.test.to_string(),
        ops_per_cell: found.test.ops_per_cell(),
        detected: found.detected,
        total: found.total,
        converged: found.converged,
        evaluations: found.evaluations,
        generations: found.generations,
        memo_hits: found.memo_hits,
        reps: reps.max(1),
        wall_ns,
        compile_ns: found.compile_ns,
        simulate_ns: found.simulate_ns,
        candidates_per_sec,
        speedup_vs_baseline: speedup_baseline
            .then_some(candidates_per_sec / BASELINE_CANDIDATES_PER_SEC),
    }
}

fn print_strategy(row: &StrategyRow) {
    let per_eval = |ns: u64| ns as f64 / 1e3 / row.evaluations.max(1) as f64;
    println!(
        "  {:<8} {}n, coverage {}/{} ({:.1}%), {} evaluations, {} generations, \
         {:.1} candidates/sec",
        row.strategy,
        row.ops_per_cell,
        row.detected,
        row.total,
        row.detected as f64 / row.total as f64 * 100.0,
        row.evaluations,
        row.generations,
        row.candidates_per_sec,
    );
    print!(
        "           compile {:.1} us/eval, simulate {:.1} us/eval, {} memo hits",
        per_eval(row.compile_ns),
        per_eval(row.simulate_ns),
        row.memo_hits,
    );
    match row.speedup_vs_baseline {
        Some(s) => println!(", {s:.2}x vs {BASELINE_CANDIDATES_PER_SEC}/s baseline"),
        None => println!(),
    }
}

fn timing_json(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

fn strategy_json(r: &StrategyRow) -> String {
    let mut timing = vec![
        ("reps", r.reps.to_string()),
        ("wall_ns", r.wall_ns.to_string()),
        ("compile_ns", r.compile_ns.to_string()),
        ("simulate_ns", r.simulate_ns.to_string()),
        ("candidates_per_sec_batched", format!("{:.2}", r.candidates_per_sec)),
    ];
    if let Some(s) = r.speedup_vs_baseline {
        timing.push(("speedup_vs_baseline", format!("{s:.2}")));
    }
    format!(
        "{{\"strategy\": \"{}\", \"test\": \"{}\", \"ops_per_cell\": {}, \
         \"detected\": {}, \"total\": {}, \"coverage\": {:.6}, \"converged\": {}, \
         \"evaluations\": {}, \"generations\": {}, \"memo_hits\": {}, \
         \"timing\": {}}}",
        r.strategy,
        json_escape(&r.test),
        r.ops_per_cell,
        r.detected,
        r.total,
        r.detected as f64 / r.total as f64,
        r.converged,
        r.evaluations,
        r.generations,
        r.memo_hits,
        timing_json(&timing),
    )
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_synth.json".to_string());

    let geometry = MemGeometry::bit_oriented(if quick { 64 } else { 256 });
    let max_faults_per_class = if quick { 128 } else { 256 };
    let budget = if quick { 600 } else { 2000 };
    let seed = 1u64;

    let universe = subset_universe(
        &geometry,
        &CLASSES,
        &UniverseSpec::default(),
        max_faults_per_class,
    );
    println!(
        "search synthesis on {geometry}: {} sampled faults (saf,tf,cfin,cfid,cfst), \
         budget {budget}, seed {seed}",
        universe.len()
    );

    let references: Vec<ReferenceRow> =
        [library::march_c(), library::march_c_plus(), library::march_c_plus_plus()]
            .iter()
            .map(|t| reference_row(t, &geometry, &universe))
            .collect();
    let march_c = &references[0];

    let options = SearchOptions {
        geometry,
        classes: CLASSES.to_vec(),
        max_faults_per_class,
        budget,
        seed,
        ..SearchOptions::default()
    };
    let rows: Vec<StrategyRow> = [Strategy::Evolutionary, Strategy::Composition]
        .into_iter()
        .map(|strategy| {
            let row = run_strategy(
                strategy,
                &options,
                5,
                !quick && strategy == Strategy::Evolutionary,
            );
            print_strategy(&row);
            row
        })
        .collect();

    // The oracle head-to-head, always on the reference 256×1 universe so
    // the `batched_vs_serial` CI floor measures the configuration the
    // speedup claim is made at (quick mode only trims the candidate
    // count — the whole comparison costs tens of milliseconds).
    let h2h_geometry = MemGeometry::bit_oriented(256);
    let h2h_universe =
        subset_universe(&h2h_geometry, &CLASSES, &UniverseSpec::default(), 256);
    let h2h = batched_vs_serial(h2h_geometry, &h2h_universe, if quick { 96 } else { 256 });
    println!(
        "  batched_vs_serial {:.2}x ({} candidates: serial {:.1} us/cand, \
         batched {:.1} us/cand)",
        h2h.speedup,
        h2h.candidates,
        h2h.serial_ns as f64 / 1e3 / h2h.candidates as f64,
        h2h.batched_ns as f64 / 1e3 / h2h.candidates as f64,
    );

    // Full mode only: the wide 1024×1 row over every fault class, which
    // drags in every keyed route (stuck-open edges, retention rank
    // intervals, decoder verdict groups) and both NPSF classes — sustained
    // throughput on the heavy configuration, not an acceptance gate.
    let wide = (!quick).then(|| {
        let wide_geometry = MemGeometry::bit_oriented(1024);
        let wide_options = SearchOptions {
            geometry: wide_geometry,
            classes: FaultClass::ALL.to_vec(),
            max_faults_per_class,
            budget: 800,
            seed,
            ..SearchOptions::default()
        };
        let row = run_strategy(Strategy::Evolutionary, &wide_options, 1, false);
        println!(
            "  wide {wide_geometry} {}-class: {}/{} ({:.1}%), {} evaluations, \
             {:.1} candidates/sec",
            FaultClass::ALL.len(),
            row.detected,
            row.total,
            row.detected as f64 / row.total as f64 * 100.0,
            row.evaluations,
            row.candidates_per_sec,
        );
        (wide_geometry, row)
    });

    println!("  references on the same universe:");
    for r in &references {
        println!(
            "  {:<10} {}n, coverage {}/{} ({:.1}%)",
            r.name,
            r.ops_per_cell,
            r.detected,
            r.total,
            r.detected as f64 / r.total as f64 * 100.0
        );
    }

    // The acceptance gate: each strategy converges on the full universe
    // and finds a test no longer than the handwritten March C at the same
    // (100%) coverage.
    for row in &rows {
        assert!(row.converged, "{} did not reach the coverage target", row.strategy);
        assert_eq!(row.detected, row.total, "{} below 100% coverage", row.strategy);
        assert_eq!(march_c.detected, march_c.total, "march-c below 100% on this universe");
        assert!(
            row.ops_per_cell <= march_c.ops_per_cell,
            "{} found {}n, longer than march-c's {}n",
            row.strategy,
            row.ops_per_cell,
            march_c.ops_per_cell
        );
        println!(
            "search OK: {} {}n at 100.0% <= march-c {}n at 100.0%",
            row.strategy, row.ops_per_cell, march_c.ops_per_cell
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"geometry\": \"{geometry}\",");
    let _ =
        writeln!(json, "  \"universe\": [\"saf\", \"tf\", \"cfin\", \"cfid\", \"cfst\"],");
    let _ = writeln!(json, "  \"faults\": {},", universe.len());
    let _ = writeln!(json, "  \"max_faults_per_class\": {max_faults_per_class},");
    let _ = writeln!(json, "  \"budget\": {budget},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ =
        writeln!(json, "  \"baseline_candidates_per_sec\": {BASELINE_CANDIDATES_PER_SEC},");
    json.push_str("  \"strategies\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {}{}",
            strategy_json(r),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"batched_vs_serial\": {{\"geometry\": \"{}\", \"candidates\": {}, \
         \"faults\": {}, \"timing\": {}}},",
        h2h_geometry,
        h2h.candidates,
        h2h_universe.len(),
        timing_json(&[
            ("serial_ns", h2h.serial_ns.to_string()),
            ("batched_ns", h2h.batched_ns.to_string()),
            ("compile_ns", h2h.compile_ns.to_string()),
            ("simulate_ns", h2h.simulate_ns.to_string()),
            ("speedup", format!("{:.2}", h2h.speedup)),
        ]),
    );
    if let Some((wide_geometry, row)) = &wide {
        // The strategy object's own braces come off exactly once each end:
        // its nested "timing" object closes with the same character.
        let row = strategy_json(row);
        let fields = row.strip_prefix('{').and_then(|r| r.strip_suffix('}'));
        let _ = writeln!(
            json,
            "  \"wide\": {{\"geometry\": \"{}\", \"classes\": {}, {}}},",
            wide_geometry,
            FaultClass::ALL.len(),
            fields.expect("strategy rows are JSON objects"),
        );
    }
    json.push_str("  \"references\": [\n");
    for (i, r) in references.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"test\": \"{}\", \"ops_per_cell\": {}, \"detected\": {}, \
             \"total\": {}, \"coverage\": {:.6}}}{}",
            json_escape(&r.name),
            r.ops_per_cell,
            r.detected,
            r.total,
            r.detected as f64 / r.total as f64,
            if i + 1 < references.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    fs::write(&out_path, json).expect("write benchmark JSON");
    println!("wrote {out_path}");
}

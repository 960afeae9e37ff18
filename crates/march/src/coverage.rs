//! Fault-coverage evaluation by serial fault simulation.

use std::fmt;

use mbist_mem::{
    class_universe, class_universe_sampled, FaultClass, FaultKind, MemGeometry,
    UniverseSpec,
};

use crate::cancel::CancelToken;
use crate::expand::ExpandOptions;
use crate::fanout::detect_universe_trace;
use crate::packed::{PlanScratch, UniversePlan};
use crate::test::MarchTest;
use crate::trace::{CompiledTrace, SimEngine, TraceArena};

/// Coverage of one fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassCoverage {
    /// The fault class.
    pub class: FaultClass,
    /// Faults detected.
    pub detected: usize,
    /// Faults simulated.
    pub total: usize,
}

impl ClassCoverage {
    /// Detection ratio in `0.0..=1.0` (1.0 for an empty universe).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.detected as f64 / self.total as f64
        }
    }

    /// Whether every simulated fault was detected.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.detected == self.total
    }
}

/// Options for coverage evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageOptions {
    /// Fault classes to simulate.
    pub classes: Vec<FaultClass>,
    /// Universe-generation parameters.
    pub spec: UniverseSpec,
    /// Deterministic subsampling cap per class (stride sampling), to keep
    /// quadratic universes tractable on large memories.
    pub max_faults_per_class: Option<usize>,
    /// Expansion options (backgrounds, ports).
    pub expand: Option<ExpandOptions>,
    /// Worker threads for the full engine's per-fault fan-out: `Some(n)`
    /// forces `n` workers (1 = serial), `None` uses the host's available
    /// parallelism. The packed engine always runs on the calling thread.
    /// The report is bit-for-bit identical for every setting.
    pub jobs: Option<usize>,
    /// Fault-simulation engine ([`SimEngine::Packed`] by default). The
    /// report is bit-for-bit identical for every engine.
    pub engine: SimEngine,
    /// Cooperative cancellation handle, checked between classes and once
    /// per fault chunk or packed batch inside a class. A tripped token makes
    /// [`evaluate_coverage`] return early with a **partial, unspecified**
    /// report — the caller must check [`CancelToken::is_cancelled`] and
    /// discard it. The default token never cancels and costs one branch
    /// per check.
    pub cancel: CancelToken,
}

impl Default for CoverageOptions {
    fn default() -> Self {
        Self {
            classes: FaultClass::ALL.to_vec(),
            spec: UniverseSpec::default(),
            max_faults_per_class: Some(512),
            expand: None,
            jobs: None,
            engine: SimEngine::default(),
            cancel: CancelToken::none(),
        }
    }
}

/// A per-class coverage report for one test and geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    /// Name of the evaluated march test.
    pub test: String,
    /// Geometry evaluated on.
    pub geometry: MemGeometry,
    /// Per-class rows, in [`FaultClass::ALL`] order restricted to the
    /// requested classes.
    pub rows: Vec<ClassCoverage>,
}

impl CoverageReport {
    /// The row for a class, if it was evaluated.
    #[must_use]
    pub fn row(&self, class: FaultClass) -> Option<&ClassCoverage> {
        self.rows.iter().find(|r| r.class == class)
    }

    /// Overall detection ratio across all simulated faults.
    #[must_use]
    pub fn overall_ratio(&self) -> f64 {
        let total: usize = self.rows.iter().map(|r| r.total).sum();
        let detected: usize = self.rows.iter().map(|r| r.detected).sum();
        if total == 0 {
            1.0
        } else {
            detected as f64 / total as f64
        }
    }
}

impl fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} on {}:", self.test, self.geometry)?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<5} {:>5}/{:<5} ({:>5.1}%)",
                r.class.label(),
                r.detected,
                r.total,
                r.ratio() * 100.0
            )?;
        }
        Ok(())
    }
}

/// Evaluates the fault coverage of `test` on `geometry` by serial fault
/// simulation: detected iff any checked read miscompares.
///
/// With [`SimEngine::Packed`], the default, every requested class's
/// universe is generated and planned before anything is compiled; `test`
/// is then compiled once, restricted to the union of the plans' support
/// words (at most six on a generated universe), and each class is counted
/// on that trace in 256-lane batches on the calling thread. When a plan
/// declines the restricted trace (a dirty march, fewer than three words,
/// or a fractional pause against retention faults), `test` is compiled
/// complete instead, as the search scorer does. So a packed run costs what
/// it simulates, not what the memory holds. With [`SimEngine::Full`], the
/// oracle, `test` is compiled complete and faults replay one by one over
/// the whole stream on per-worker scratch arrays fanned out across
/// [`CoverageOptions::jobs`] threads, with a deterministic in-order
/// reduction. The report depends on neither the worker count nor the
/// engine.
///
/// # Examples
///
/// ```
/// use mbist_march::{evaluate_coverage, library, CoverageOptions};
/// use mbist_mem::{FaultClass, MemGeometry};
///
/// let report = evaluate_coverage(
///     &library::march_c(),
///     &MemGeometry::bit_oriented(16),
///     &CoverageOptions {
///         classes: vec![FaultClass::StuckAt, FaultClass::Transition],
///         ..CoverageOptions::default()
///     },
/// );
/// assert!(report.row(FaultClass::StuckAt).unwrap().is_complete());
/// assert!(report.row(FaultClass::Transition).unwrap().is_complete());
/// ```
#[must_use]
pub fn evaluate_coverage(
    test: &MarchTest,
    geometry: &MemGeometry,
    options: &CoverageOptions,
) -> CoverageReport {
    let expand_opts =
        options.expand.clone().unwrap_or_else(|| ExpandOptions::for_geometry(geometry));
    if options.engine == SimEngine::Full {
        let trace = CompiledTrace::compile(test, geometry, &expand_opts);
        return evaluate_coverage_trace(&trace, test.name(), options);
    }
    let plans: Vec<UniversePlan> = options
        .classes
        .iter()
        .map(|&class| UniversePlan::new(*geometry, class_faults(geometry, class, options)))
        .collect();
    let mut arena = TraceArena::new();
    let trace = arena.compile_for(test, geometry, &expand_opts, &plans);
    let mut scratch = PlanScratch::default();
    let mut rows = Vec::new();
    for (&class, plan) in options.classes.iter().zip(&plans) {
        if options.cancel.is_cancelled() {
            break;
        }
        let detected = plan
            .count_detected(trace, None, &mut scratch, &options.cancel)
            .expect("every plan accepts the trace compiled for it");
        rows.push(ClassCoverage { class, detected, total: plan.universe().len() });
    }
    CoverageReport { test: test.name().to_string(), geometry: *geometry, rows }
}

/// The faults `options` simulates for `class`: the class universe, stride
/// sampled to the cap. Sampled generation materializes only the
/// stride-kept faults — identical to `stride_sample(class_universe(..),
/// max)`, but the NPSF/decoder universes on kiloword geometries would
/// otherwise cost more to enumerate than to simulate.
fn class_faults(
    geometry: &MemGeometry,
    class: FaultClass,
    options: &CoverageOptions,
) -> Vec<FaultKind> {
    match options.max_faults_per_class {
        Some(max) => class_universe_sampled(geometry, class, &options.spec, max),
        None => class_universe(geometry, class, &options.spec),
    }
}

/// [`evaluate_coverage`] over a caller-supplied [`CompiledTrace`] — the
/// trace-sharing entry point for resident services that amortize one
/// compile across many queries. The report is identical to what
/// [`evaluate_coverage`] produces for the `(test, geometry, expand)` the
/// trace was compiled from; `options.expand` is ignored (the trace already
/// embeds its expansion).
#[must_use]
pub fn evaluate_coverage_trace(
    trace: &CompiledTrace,
    test_name: &str,
    options: &CoverageOptions,
) -> CoverageReport {
    let geometry = trace.geometry();
    let mut rows = Vec::new();
    for &class in &options.classes {
        if options.cancel.is_cancelled() {
            break;
        }
        let universe = class_faults(&geometry, class, options);
        let total = universe.len();
        let flags = detect_universe_trace(
            trace,
            &universe,
            options.jobs,
            options.engine,
            &options.cancel,
        );
        let detected = flags.iter().filter(|&&d| d).count();
        rows.push(ClassCoverage { class, detected, total });
    }
    CoverageReport { test: test_name.to_string(), geometry, rows }
}

/// Which simulation path one fault takes under a given engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultRoute {
    /// Lane-packed bit-parallel batch (shared canonical program).
    Packed,
    /// A decoder fault, decided by the packed plan's two-word replay of
    /// the pair of words it wires together. The name is kept from the
    /// retired sliced engine, whose decoder replay this was.
    Sliced,
    /// Full stream replay on a scratch array: every fault under the full
    /// engine, and under the packed one a hand-made fault with neither a
    /// lane form nor a decoder pair (an NPSF neighborhood that reuses a
    /// word).
    Full,
}

/// The engine path [`detect_universe_trace`] takes for `fault` when run
/// with `engine` — the observable routing decision behind the packed
/// engine's whole-run/subset throughput gap.
#[must_use]
pub fn fault_route(engine: SimEngine, fault: FaultKind) -> FaultRoute {
    match engine {
        SimEngine::Full => FaultRoute::Full,
        SimEngine::Packed if crate::packed::lane_packable(fault) => FaultRoute::Packed,
        SimEngine::Packed if fault.decoder_words().is_some() => FaultRoute::Sliced,
        SimEngine::Packed => FaultRoute::Full,
    }
}

/// Per-class routing counts for one evaluated universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingRow {
    /// The fault class.
    pub class: FaultClass,
    /// Faults taking the lane-packed batch path.
    pub packed: usize,
    /// Decoder faults, decided by the packed plan's two-word replay
    /// ([`FaultRoute::Sliced`]).
    pub sliced: usize,
    /// Faults taking full replay ([`FaultRoute::Full`]).
    pub full: usize,
}

impl RoutingRow {
    /// Faults counted in this row.
    #[must_use]
    pub fn total(&self) -> usize {
        self.packed + self.sliced + self.full
    }
}

/// A `{class → packed|sliced|full}` routing breakdown for one coverage
/// run — makes the whole-run/subset gap observable instead of inferred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingBreakdown {
    /// Engine the breakdown was computed for.
    pub engine: SimEngine,
    /// One row per evaluated class, in evaluation order.
    pub rows: Vec<RoutingRow>,
}

impl RoutingBreakdown {
    /// Total faults across all rows.
    #[must_use]
    pub fn total(&self) -> usize {
        self.rows.iter().map(RoutingRow::total).sum()
    }

    /// Faults routed to the lane-packed path.
    #[must_use]
    pub fn batchable(&self) -> usize {
        self.rows.iter().map(|r| r.packed).sum()
    }

    /// Fraction of faults routed to the lane-packed path, or `None` for an
    /// empty universe — an unknown ratio is reported as absent, never
    /// fabricated.
    #[must_use]
    pub fn batchable_ratio(&self) -> Option<f64> {
        let total = self.total();
        (total > 0).then(|| self.batchable() as f64 / total as f64)
    }

    /// The row for a class, if it was evaluated.
    #[must_use]
    pub fn row(&self, class: FaultClass) -> Option<&RoutingRow> {
        self.rows.iter().find(|r| r.class == class)
    }
}

impl fmt::Display for RoutingBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "routing ({:?}):", self.engine)?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<5} {:>6} packed {:>6} sliced {:>6} full",
                r.class.label(),
                r.packed,
                r.sliced,
                r.full
            )?;
        }
        Ok(())
    }
}

/// Computes the routing breakdown for the exact universes
/// [`evaluate_coverage`] would simulate with `options` — same classes,
/// same spec, same stride cap.
#[must_use]
pub fn routing_breakdown(
    geometry: &MemGeometry,
    options: &CoverageOptions,
) -> RoutingBreakdown {
    let mut rows = Vec::new();
    for &class in &options.classes {
        let universe = class_faults(geometry, class, options);
        let mut row = RoutingRow { class, packed: 0, sliced: 0, full: 0 };
        for &fault in &universe {
            match fault_route(options.engine, fault) {
                FaultRoute::Packed => row.packed += 1,
                FaultRoute::Sliced => row.sliced += 1,
                FaultRoute::Full => row.full += 1,
            }
        }
        rows.push(row);
    }
    RoutingBreakdown { engine: options.engine, rows }
}

/// Deterministic stride subsampling: keeps the last element of each of
/// `max` equal buckets — indices `ceil(k·len/max) − 1` for `k = 1..=max` —
/// preserving order and always including the final element. Returns the
/// input unchanged when it already fits (or when `max == 0`, meaning
/// "no cap"); otherwise the output length is exactly `max`.
pub(crate) fn stride_sample<T>(items: Vec<T>, max: usize) -> Vec<T> {
    let len = items.len();
    if max == 0 || len <= max {
        return items;
    }
    let mut keep = (1..=max).map(|k| (k * len).div_ceil(max) - 1);
    let mut next = keep.next();
    let mut out = Vec::with_capacity(max);
    for (i, item) in items.into_iter().enumerate() {
        if next == Some(i) {
            out.push(item);
            next = keep.next();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;

    /// The bucket-boundary condition the sampler historically used; kept as
    /// an oracle so the closed-form rewrite provably selects the same
    /// indices.
    fn stride_sample_oracle<T>(items: Vec<T>, max: usize) -> Vec<T> {
        if items.len() <= max || max == 0 {
            return items;
        }
        let len = items.len();
        let mut out = Vec::with_capacity(max);
        for (i, item) in items.into_iter().enumerate() {
            if (i * max / len != (i + 1) * max / len || i == len - 1 && out.len() < max)
                && out.len() < max
            {
                out.push(item);
            }
        }
        out
    }

    #[test]
    fn routing_breakdown_counts_every_sampled_fault() {
        let g = MemGeometry::bit_oriented(64);
        for engine in SimEngine::ALL {
            let options = CoverageOptions { engine, ..CoverageOptions::default() };
            let b = routing_breakdown(&g, &options);
            let mut total = 0;
            for &class in &options.classes {
                let u = class_universe_sampled(&g, class, &options.spec, 512);
                let row = b.row(class).expect("every class gets a row");
                assert_eq!(row.total(), u.len(), "{engine:?}/{class:?}");
                total += u.len();
            }
            assert_eq!(b.total(), total, "rows cover the whole sample");
            match engine {
                SimEngine::Full => {
                    assert_eq!(b.batchable(), 0);
                    assert!(b.rows.iter().all(|r| r.packed == 0 && r.sliced == 0));
                }
                SimEngine::Packed => {
                    // Every address-local class vectorizes now; only the
                    // decoder classes ride the plan's two-word replay.
                    let decoder = b.row(FaultClass::AddressDecoder).unwrap();
                    assert_eq!(decoder.packed, 0);
                    assert_eq!(decoder.sliced, decoder.total());
                    for r in &b.rows {
                        if r.class != FaultClass::AddressDecoder {
                            assert_eq!(r.packed, r.total(), "{:?}", r.class);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_routing_breakdown_reports_no_ratio() {
        let g = MemGeometry::bit_oriented(8);
        let options = CoverageOptions { classes: vec![], ..CoverageOptions::default() };
        let b = routing_breakdown(&g, &options);
        assert_eq!(b.total(), 0);
        assert_eq!(b.batchable_ratio(), None, "unknown ratios are absent, not 0/0");
    }

    #[test]
    fn stride_sampling_bounds_and_determinism() {
        let items: Vec<u32> = (0..100).collect();
        let s = stride_sample(items.clone(), 10);
        assert_eq!(s.len(), 10);
        let s2 = stride_sample(items.clone(), 10);
        assert_eq!(s, s2);
        let all = stride_sample(items.clone(), 200);
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn stride_sampling_length_order_and_endpoint() {
        for len in 0usize..40 {
            let items: Vec<usize> = (0..len).collect();
            for max in 0usize..45 {
                let s = stride_sample(items.clone(), max);
                if max == 0 {
                    assert_eq!(s, items, "max=0 means no cap");
                    continue;
                }
                assert_eq!(s.len(), len.min(max), "len={len} max={max}");
                assert!(s.windows(2).all(|w| w[0] < w[1]), "order preserved");
                if len > 0 {
                    assert_eq!(*s.last().unwrap(), len - 1, "last element kept");
                }
            }
        }
    }

    #[test]
    fn stride_sampling_matches_historical_oracle() {
        for len in 0usize..40 {
            let items: Vec<usize> = (0..len).collect();
            for max in 0usize..45 {
                assert_eq!(
                    stride_sample(items.clone(), max),
                    stride_sample_oracle(items.clone(), max),
                    "len={len} max={max}"
                );
            }
        }
    }

    #[test]
    fn march_c_covers_the_classic_classes() {
        let g = MemGeometry::bit_oriented(16);
        let report = evaluate_coverage(
            &library::march_c(),
            &g,
            &CoverageOptions {
                classes: vec![
                    FaultClass::StuckAt,
                    FaultClass::Transition,
                    FaultClass::AddressDecoder,
                    FaultClass::CouplingInversion,
                    FaultClass::CouplingIdempotent,
                ],
                max_faults_per_class: None,
                ..CoverageOptions::default()
            },
        );
        for row in &report.rows {
            assert!(
                row.is_complete(),
                "march C should fully cover {}: {}/{}",
                row.class,
                row.detected,
                row.total
            );
        }
    }

    #[test]
    fn mats_plus_misses_coupling() {
        let g = MemGeometry::bit_oriented(16);
        let report = evaluate_coverage(
            &library::mats_plus(),
            &g,
            &CoverageOptions {
                classes: vec![FaultClass::CouplingIdempotent],
                max_faults_per_class: None,
                ..CoverageOptions::default()
            },
        );
        let row = report.row(FaultClass::CouplingIdempotent).unwrap();
        assert!(!row.is_complete(), "MATS+ must miss some CFid");
        assert!(row.detected > 0, "but not all of them");
    }

    #[test]
    fn retention_column_separates_plus_variants() {
        let g = MemGeometry::bit_oriented(8);
        let opts = CoverageOptions {
            classes: vec![FaultClass::Retention],
            max_faults_per_class: None,
            ..CoverageOptions::default()
        };
        let c = evaluate_coverage(&library::march_c(), &g, &opts);
        let cp = evaluate_coverage(&library::march_c_plus(), &g, &opts);
        assert_eq!(c.row(FaultClass::Retention).unwrap().detected, 0);
        assert!(cp.row(FaultClass::Retention).unwrap().is_complete());
    }

    #[test]
    fn engines_produce_identical_reports() {
        let g = MemGeometry::bit_oriented(16);
        for test in [library::march_c(), library::march_c_plus_plus()] {
            let full = evaluate_coverage(
                &test,
                &g,
                &CoverageOptions { engine: SimEngine::Full, ..CoverageOptions::default() },
            );
            let packed = evaluate_coverage(
                &test,
                &g,
                &CoverageOptions {
                    engine: SimEngine::Packed,
                    ..CoverageOptions::default()
                },
            );
            assert_eq!(full, packed, "{} report must not depend on engine", test.name());
        }
    }

    #[test]
    fn coverage_honours_the_token_between_classes_and_per_batch() {
        let g = MemGeometry::bit_oriented(256);
        let march_c = library::march_c();
        for engine in SimEngine::ALL {
            // Tripped before the first class: no row.
            let cancel = CancelToken::manual();
            cancel.cancel();
            let options = CoverageOptions { engine, cancel, ..CoverageOptions::default() };
            assert!(
                evaluate_coverage(&march_c, &g, &options).rows.is_empty(),
                "{engine:?}"
            );
        }
        // Packed: the token passes the check before the class, then trips
        // at the first poll inside the count, after the first of the
        // class's two 256-lane batches.
        let cancel = CancelToken::after_checks(1);
        let options = CoverageOptions {
            classes: vec![FaultClass::StuckAt],
            max_faults_per_class: None,
            cancel: cancel.clone(),
            ..CoverageOptions::default()
        };
        let row = evaluate_coverage(&march_c, &g, &options).rows[0];
        assert!(cancel.is_cancelled());
        assert_eq!((row.detected, row.total), (256, 512), "a partial count");
    }

    #[test]
    fn report_display_lists_rows() {
        let g = MemGeometry::bit_oriented(4);
        let r = evaluate_coverage(
            &library::mats(),
            &g,
            &CoverageOptions {
                classes: vec![FaultClass::StuckAt],
                ..CoverageOptions::default()
            },
        );
        let s = r.to_string();
        assert!(s.contains("SAF"));
        assert!(s.contains("mats"));
    }

    #[test]
    fn overall_ratio_aggregates() {
        let r = CoverageReport {
            test: "t".into(),
            geometry: MemGeometry::bit_oriented(4),
            rows: vec![
                ClassCoverage { class: FaultClass::StuckAt, detected: 8, total: 8 },
                ClassCoverage { class: FaultClass::Retention, detected: 0, total: 8 },
            ],
        };
        assert_eq!(r.overall_ratio(), 0.5);
    }
}

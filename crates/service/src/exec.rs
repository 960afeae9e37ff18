//! Request execution against the shared trace cache.
//!
//! Response texts for `coverage`, `synth` and `area` are produced by the
//! same formatting the CLI uses, so a service response is bit-identical to
//! the offline CLI output for the equivalent invocation (the `mbist-cli`
//! test suite asserts this) — caching, worker count and engine choice only
//! change latency, never bytes.

use std::sync::Arc;
use std::time::Instant;

use mbist_area::{table1, table2, table3, Technology};
use mbist_march::{
    canonical_trace_key, evaluate_coverage_trace, expand_with, library, routing_breakdown,
    synthesize_march, CancelToken, CompiledTrace, CoverageOptions, ExpandOptions,
    MarchTest, SimEngine, SynthesisOptions,
};
use mbist_mem::{FaultClass, FaultKind, MemGeometry};
use mbist_search::{report_text, search_march, SearchOptions, Strategy};

use crate::json::Json;
use crate::protocol::{Request, ServiceError};
use crate::server::Shared;

/// Per-job execution context: the deadline's cancellation token plus the
/// request arrival time the `timeout.elapsed_ms` figure is measured from.
pub(crate) struct ExecCtx {
    /// Trips when the job's deadline passes; threaded into the simulation
    /// inner loops.
    pub(crate) cancel: CancelToken,
    /// When the request arrived (queue wait included).
    pub(crate) arrival: Instant,
}

impl ExecCtx {
    /// Converts a tripped token into the structured timeout error. Called
    /// before starting expensive phases and after every cancellable call:
    /// a cancelled simulation returns partial data, and this is the single
    /// place that discards it.
    fn check(&self) -> Result<(), ServiceError> {
        if self.cancel.is_cancelled() {
            return Err(self.timeout(None));
        }
        Ok(())
    }

    /// The structured timeout error, optionally carrying a best-so-far
    /// partial answer (`synth_search` reports the best candidate found
    /// before the deadline hit instead of discarding the whole run).
    fn timeout(&self, partial: Option<String>) -> ServiceError {
        let elapsed_ms =
            u64::try_from(self.arrival.elapsed().as_millis()).unwrap_or(u64::MAX);
        ServiceError::Timeout { elapsed_ms, partial }
    }
}

fn usage(message: impl Into<String>) -> ServiceError {
    ServiceError::Usage(message.into())
}

pub(crate) fn resolve_test(spec: &str) -> Result<MarchTest, ServiceError> {
    if let Some(t) = library::by_name(spec) {
        return Ok(t);
    }
    if spec.contains('(') {
        return MarchTest::parse("custom", spec).map_err(|e| usage(e.to_string()));
    }
    Err(usage(format!("unknown algorithm `{spec}` (library name or march notation)")))
}

/// Derives a result-memo key from the trace key plus request parameters,
/// with the same stable FNV-1a construction as the trace key itself.
/// `jobs` is deliberately excluded: the output is bit-identical for every
/// worker count, so memo hits are valid across `jobs` settings.
fn result_key(seed: u64, tag: &str, params: &[u64]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |b: u8| h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    for b in seed.to_le_bytes() {
        eat(b);
    }
    for b in tag.bytes() {
        eat(b);
    }
    eat(0xff);
    for p in params {
        for b in p.to_le_bytes() {
            eat(b);
        }
    }
    h
}

/// Hash of the request spec string plus geometry — the cheap first-level
/// cache key that avoids march expansion on exact-repeat requests.
fn spec_alias_key(spec: &str, geometry: &MemGeometry) -> u64 {
    let mut params = vec![geometry.words(), u64::from(geometry.width())];
    params.push(u64::from(geometry.ports()));
    result_key(0x7370_6563, spec, &params) // "spec" tag in the seed
}

/// Returns the cached compiled trace for `(spec, geometry)`, compiling and
/// inserting on a miss.
///
/// Two cache levels: a spec-string alias resolves exact repeats without
/// re-expanding the march test (the warm fast path), and the canonical
/// `(name, steps, geometry)` key unifies differently-spelled but equivalent
/// invocations after expansion (the correctness level).
fn cached_trace(
    shared: &Shared,
    spec: &str,
    test: &MarchTest,
    geometry: &MemGeometry,
) -> (u64, Arc<CompiledTrace>, bool) {
    let alias = spec_alias_key(spec, geometry);
    if let Some(key) = shared.cache.get_alias(alias) {
        if let Some(trace) = shared.cache.get_trace(key) {
            shared.metrics.record_trace_lookup(true);
            return (key, trace, true);
        }
    }
    let steps = expand_with(test, geometry, &ExpandOptions::for_geometry(geometry));
    let key = canonical_trace_key(test.name(), geometry, &steps);
    shared.cache.insert_alias(alias, key);
    if let Some(trace) = shared.cache.get_trace(key) {
        shared.metrics.record_trace_lookup(true);
        return (key, trace, true);
    }
    shared.metrics.record_trace_lookup(false);
    // Two racing cold requests may both compile; the trace is immutable, so
    // the second insert merely replaces an identical entry.
    let trace = Arc::new(CompiledTrace::from_steps(*geometry, &steps));
    shared.cache.insert_trace(key, &trace);
    (key, trace, false)
}

/// Executes a queued request, returning the response payload members.
///
/// The context's cancellation token is threaded into the simulation inner
/// loops; a tripped token surfaces as [`ServiceError::Timeout`], and a
/// cancelled (partial) result is never memoized.
pub(crate) fn execute(
    request: &Request,
    shared: &Shared,
    ctx: &ExecCtx,
) -> Result<Vec<(&'static str, Json)>, ServiceError> {
    match request {
        Request::Coverage { test, geometry, max_faults, jobs, engine } => {
            let t = resolve_test(test)?;
            ctx.check()?;
            let (trace_key, trace, trace_cached) = cached_trace(shared, test, &t, geometry);
            let memo_key = result_key(
                trace_key,
                "coverage",
                &[max_faults.map_or(u64::MAX, |m| m as u64), *engine as u64],
            );
            if let Some(text) = shared.cache.get_result(memo_key) {
                shared.metrics.record_result_lookup(true);
                return Ok(coverage_payload(text, true, trace_cached));
            }
            shared.metrics.record_result_lookup(false);
            shared.metrics.record_engine(*engine);
            let options = CoverageOptions {
                max_faults_per_class: *max_faults,
                jobs: *jobs,
                engine: *engine,
                cancel: ctx.cancel.clone(),
                ..CoverageOptions::default()
            };
            // Memo hits returned above: routing counters only reflect runs
            // that actually simulated.
            shared.metrics.record_routing(&routing_breakdown(geometry, &options));
            let report = evaluate_coverage_trace(&trace, t.name(), &options);
            // A blown deadline left the report partial: discard it and
            // skip the memo — a timeout must never pollute the cache.
            ctx.check()?;
            let text = report.to_string();
            shared.cache.insert_result(memo_key, &text);
            Ok(coverage_payload(text, false, trace_cached))
        }
        Request::Detects { test, geometry, fault } => {
            let t = resolve_test(test)?;
            let parsed = FaultKind::parse_spec(fault, geometry).map_err(usage)?;
            ctx.check()?;
            let (_, trace, trace_cached) = cached_trace(shared, test, &t, geometry);
            let detected = trace.detect(parsed);
            Ok(vec![
                ("test", Json::str(t.name())),
                ("geometry", Json::str(geometry.to_string())),
                ("fault", Json::str(fault.clone())),
                ("detected", Json::Bool(detected)),
                ("trace_cached", Json::Bool(trace_cached)),
            ])
        }
        Request::Synth { classes, max_elements, jobs, engine } => {
            let parsed = parse_classes(classes)?;
            ctx.check()?;
            let class_tags: Vec<u64> =
                parsed.iter().map(|c| c.label().bytes().map(u64::from).sum()).collect();
            let mut params = vec![*max_elements as u64, *engine as u64];
            params.extend(class_tags);
            let memo_key = result_key(0, "synth", &params);
            if let Some(text) = shared.cache.get_result(memo_key) {
                shared.metrics.record_result_lookup(true);
                return Ok(text_payload(text, true));
            }
            shared.metrics.record_result_lookup(false);
            shared.metrics.record_engine(*engine);
            let mut options = SynthesisOptions {
                classes: parsed,
                max_elements: *max_elements,
                ..SynthesisOptions::default()
            };
            options.coverage.jobs = *jobs;
            options.coverage.engine = *engine;
            options.coverage.cancel = ctx.cancel.clone();
            let text = synth_text(&options);
            // A cancelled search returns a non-converged test: discard,
            // never memoize.
            ctx.check()?;
            shared.cache.insert_result(memo_key, &text);
            Ok(text_payload(text, false))
        }
        Request::SynthSearch {
            universe,
            geometry,
            target_coverage,
            budget,
            seed,
            strategy,
            max_elements,
            jobs,
            engine,
        } => {
            let parsed = parse_classes(universe)?;
            ctx.check()?;
            let memo_key = synth_search_key(
                &parsed,
                geometry,
                *target_coverage,
                *budget,
                *seed,
                *strategy,
                *max_elements,
                *engine,
            );
            if let Some(text) = shared.cache.get_result(memo_key) {
                shared.metrics.record_result_lookup(true);
                return Ok(text_payload(text, true));
            }
            shared.metrics.record_result_lookup(false);
            shared.metrics.record_engine(*engine);
            let options = SearchOptions {
                geometry: *geometry,
                classes: parsed,
                target_coverage: *target_coverage / 100.0,
                budget: *budget,
                seed: *seed,
                max_elements: *max_elements,
                jobs: *jobs,
                engine: *engine,
                cancel: ctx.cancel.clone(),
                strategy: *strategy,
                ..SearchOptions::default()
            };
            let found = search_march("found", &options);
            // The oracle's throughput counters are recorded whether or not
            // the deadline held: the simulation work happened either way.
            shared.metrics.record_search(
                found.evaluations as u64,
                found.memo_hits as u64,
                found.compile_ns,
                found.simulate_ns,
            );
            // A blown deadline returns the best-so-far candidate: surface
            // it in the structured timeout, never memoize it.
            if ctx.cancel.is_cancelled() {
                return Err(ctx.timeout(Some(found.test.to_string())));
            }
            let text = report_text(&found, &options);
            shared.cache.insert_result(memo_key, &text);
            Ok(text_payload(text, false))
        }
        Request::Area { table } => {
            let tag = match table.as_deref() {
                None => 0,
                Some("1") => 1,
                Some("2") => 2,
                Some("3") => 3,
                Some(other) => {
                    return Err(usage(format!("unknown table `{other}` (1|2|3)")))
                }
            };
            let memo_key = result_key(0, "area", &[tag]);
            if let Some(text) = shared.cache.get_result(memo_key) {
                shared.metrics.record_result_lookup(true);
                return Ok(text_payload(text, true));
            }
            shared.metrics.record_result_lookup(false);
            let tech = Technology::cmos5s();
            let text = match tag {
                1 => table1(&tech).to_string(),
                2 => table2(&tech).to_string(),
                3 => table3(&tech).to_string(),
                _ => format!("{}\n{}\n{}", table1(&tech), table2(&tech), table3(&tech)),
            };
            shared.cache.insert_result(memo_key, &text);
            Ok(text_payload(text, false))
        }
        // Status and Shutdown are answered inline by the connection layer
        // and never reach the queue.
        Request::Status | Request::Shutdown => {
            Err(ServiceError::Failed("status/shutdown are served inline".into()))
        }
    }
}

/// The reactor-side fast path: answers a request only when every cache
/// probe it needs is already resident, with no compilation or simulation.
/// Returns `None` on any miss (or for kinds the fast path does not cover) —
/// the queued path then redoes the probes and records the miss metrics, so
/// each request's lookups are counted exactly once either way.
///
/// Only *hit* metrics are recorded here; a fast-path answer is
/// indistinguishable in the counters from the same warm request served by
/// a worker (minus the job dispatch/answer pair, which it never was).
pub(crate) fn try_fast(
    request: &Request,
    shared: &Shared,
) -> Option<Vec<(&'static str, Json)>> {
    match request {
        Request::Coverage { test, geometry, max_faults, engine, .. } => {
            let alias = spec_alias_key(test, geometry);
            let trace_key = shared.cache.get_alias(alias)?;
            // The trace must itself be resident: an alias pointing at an
            // evicted trace means the slow path will recompile (a miss).
            shared.cache.get_trace(trace_key)?;
            let memo_key = result_key(
                trace_key,
                "coverage",
                &[max_faults.map_or(u64::MAX, |m| m as u64), *engine as u64],
            );
            let text = shared.cache.get_result(memo_key)?;
            shared.metrics.record_trace_lookup(true);
            shared.metrics.record_result_lookup(true);
            Some(coverage_payload(text, true, true))
        }
        Request::Detects { test, geometry, fault } => {
            let t = resolve_test(test).ok()?;
            let parsed = FaultKind::parse_spec(fault, geometry).ok()?;
            let alias = spec_alias_key(test, geometry);
            let trace_key = shared.cache.get_alias(alias)?;
            let trace = shared.cache.get_trace(trace_key)?;
            shared.metrics.record_trace_lookup(true);
            let detected = trace.detect(parsed);
            Some(vec![
                ("test", Json::str(t.name())),
                ("geometry", Json::str(geometry.to_string())),
                ("fault", Json::str(fault.clone())),
                ("detected", Json::Bool(detected)),
                ("trace_cached", Json::Bool(true)),
            ])
        }
        Request::Synth { classes, max_elements, engine, .. } => {
            let parsed = parse_classes(classes).ok()?;
            let class_tags: Vec<u64> =
                parsed.iter().map(|c| c.label().bytes().map(u64::from).sum()).collect();
            let mut params = vec![*max_elements as u64, *engine as u64];
            params.extend(class_tags);
            let text = shared.cache.get_result(result_key(0, "synth", &params))?;
            shared.metrics.record_result_lookup(true);
            Some(text_payload(text, true))
        }
        Request::SynthSearch {
            universe,
            geometry,
            target_coverage,
            budget,
            seed,
            strategy,
            max_elements,
            engine,
            ..
        } => {
            let parsed = parse_classes(universe).ok()?;
            let memo_key = synth_search_key(
                &parsed,
                geometry,
                *target_coverage,
                *budget,
                *seed,
                *strategy,
                *max_elements,
                *engine,
            );
            let text = shared.cache.get_result(memo_key)?;
            shared.metrics.record_result_lookup(true);
            Some(text_payload(text, true))
        }
        Request::Area { table } => {
            let tag = match table.as_deref() {
                None => 0,
                Some("1") => 1,
                Some("2") => 2,
                Some("3") => 3,
                Some(_) => return None,
            };
            let text = shared.cache.get_result(result_key(0, "area", &[tag]))?;
            shared.metrics.record_result_lookup(true);
            Some(text_payload(text, true))
        }
        Request::Status | Request::Shutdown => None,
    }
}

fn coverage_payload(
    text: String,
    cached: bool,
    trace_cached: bool,
) -> Vec<(&'static str, Json)> {
    vec![
        ("cached", Json::Bool(cached)),
        ("trace_cached", Json::Bool(trace_cached)),
        ("text", Json::Str(text)),
    ]
}

fn text_payload(text: String, cached: bool) -> Vec<(&'static str, Json)> {
    vec![("cached", Json::Bool(cached)), ("text", Json::Str(text))]
}

fn parse_classes(spec: &str) -> Result<Vec<FaultClass>, ServiceError> {
    FaultClass::parse_list(spec).map_err(usage)
}

/// The `synth_search` result-memo key. Like every result key, `jobs` is
/// excluded — the search trajectory is bit-identical for every worker
/// count and engine, but the engine stays in the key to mirror the other
/// kinds' conservative keying (a memo hit must answer the exact request).
#[allow(clippy::too_many_arguments)]
fn synth_search_key(
    classes: &[FaultClass],
    geometry: &MemGeometry,
    target_coverage: f64,
    budget: usize,
    seed: u64,
    strategy: Strategy,
    max_elements: usize,
    engine: SimEngine,
) -> u64 {
    let strategy_tag = match strategy {
        Strategy::Evolutionary => 0,
        Strategy::Composition => 1,
    };
    let mut params = vec![
        geometry.words(),
        u64::from(geometry.width()),
        u64::from(geometry.ports()),
        target_coverage.to_bits(),
        budget as u64,
        strategy_tag,
        max_elements as u64,
        engine as u64,
    ];
    params.extend(classes.iter().map(|c| c.label().bytes().map(u64::from).sum::<u64>()));
    result_key(seed, "synth_search", &params)
}

/// The CLI `synth` output, byte for byte.
fn synth_text(options: &SynthesisOptions) -> String {
    use std::fmt::Write as _;
    let result = synthesize_march("synthesized", options);
    let mut out = String::new();
    let _ = writeln!(out, "{}", result.test);
    let _ = writeln!(
        out,
        "complexity {}n, coverage {}/{} on the search geometry, {} evaluations",
        result.test.ops_per_cell(),
        result.detected,
        result.total,
        result.evaluations
    );
    if !result.is_complete() {
        let _ = writeln!(out, "warning: coverage incomplete; raise --max-elements");
    }
    out
}

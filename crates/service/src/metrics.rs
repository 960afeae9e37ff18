//! The daemon's observability surface.
//!
//! Per-request-kind counters and latency histograms, cache hit/miss
//! counters, and backpressure rejections — everything the `status` request
//! serves. Latencies are measured arrival→reply (queue wait included: the
//! figure a client experiences) and recorded into power-of-two microsecond
//! buckets, from which p50/p95/p99 are reported as bucket upper bounds.

use std::sync::Mutex;
use std::time::Instant;

use mbist_march::{RoutingBreakdown, SimEngine};
use mbist_mem::FaultClass;

use crate::cache::CacheStats;
use crate::json::Json;

/// Request kinds with dedicated counter/histogram rows, in wire order.
pub const KINDS: [&str; 7] =
    ["coverage", "detects", "synth", "synth_search", "area", "status", "shutdown"];

/// Power-of-two microsecond buckets: bucket `i` covers `[2^i, 2^(i+1))` µs,
/// the last bucket is open-ended (≈ 34 s and beyond).
const BUCKETS: usize = 36;

/// A log₂-bucketed latency histogram.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { buckets: [0; BUCKETS], count: 0, sum_us: 0, max_us: 0 }
    }
}

impl Histogram {
    /// Records one latency observation.
    pub fn record(&mut self, micros: u64) {
        let bucket = (63 - micros.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum_us += micros;
        self.max_us = self.max_us.max(micros);
    }

    /// Observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The latency quantile `q` (0..=1) as the upper bound of the first
    /// bucket whose cumulative count reaches it, in microseconds. 0 when
    /// empty. The estimate is exact to within a factor of two — plenty to
    /// read p50/p95/p99 trends from.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        self.max_us
    }

    /// Mean latency in microseconds (0 when empty).
    #[must_use]
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::num(self.count as f64)),
            ("mean_us", Json::num(self.mean_us() as f64)),
            ("p50_us", Json::num(self.quantile_us(0.50) as f64)),
            ("p95_us", Json::num(self.quantile_us(0.95) as f64)),
            ("p99_us", Json::num(self.quantile_us(0.99) as f64)),
            ("max_us", Json::num(self.max_us as f64)),
        ])
    }
}

#[derive(Debug, Clone, Default)]
struct KindStats {
    requests: u64,
    errors: u64,
    latency: Histogram,
    /// Pure execution time (dequeue→result, no queue wait) — the drain-rate
    /// basis of the load-derived `busy.retry_after_ms` hint.
    exec: Histogram,
}

/// Worker-ledger counters: every dispatched job must end up answered
/// (`dispatched == answered` once idle — the exactly-once invariant), and
/// `recovered` counts the panicked jobs saved by the single re-dispatch.
#[derive(Debug, Default)]
struct JobCounters {
    dispatched: u64,
    answered: u64,
    recovered: u64,
}

/// Chaos-injection counters (always present; all zero when chaos is off).
#[derive(Debug, Default)]
struct ChaosCounters {
    panics: u64,
    delays: u64,
    drops: u64,
}

/// Search-oracle throughput counters, accumulated over every `synth_search`
/// run that actually searched (memo hits answer from the result cache and
/// record nothing). `evaluations` counts candidates that really simulated;
/// answers served by the fitness memo are in `memo_hits`, never both.
#[derive(Debug, Default)]
struct SearchCounters {
    runs: u64,
    evaluations: u64,
    memo_hits: u64,
    compile_ns: u64,
    simulate_ns: u64,
}

/// Per-class `[packed, sliced, full]` routing counters, rows in
/// [`FaultClass::ALL`] order: lane-packed faults, decoder faults (decided
/// by the packed plan's two-word replay; the `sliced` name is kept from
/// the retired sliced engine) and full replays
/// ([`RoutingRow`](mbist_march::RoutingRow)).
#[derive(Debug)]
struct RoutingCounters([[u64; 3]; FaultClass::ALL.len()]);

impl Default for RoutingCounters {
    fn default() -> Self {
        Self([[0; 3]; FaultClass::ALL.len()])
    }
}

#[derive(Debug, Default)]
struct Inner {
    per_kind: [KindStats; KINDS.len()],
    /// Jobs per engine, indexed in [`SimEngine::ALL`] order.
    per_engine: [u64; SimEngine::ALL.len()],
    routing: RoutingCounters,
    rejected_busy: u64,
    trace_hits: u64,
    trace_misses: u64,
    result_hits: u64,
    result_misses: u64,
    jobs: JobCounters,
    chaos: ChaosCounters,
    timeouts: u64,
    search: SearchCounters,
}

/// Shared metrics registry (one per server).
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    inner: Mutex<Inner>,
}

impl Metrics {
    /// A fresh registry; uptime counts from here.
    #[must_use]
    pub fn new() -> Self {
        Self { started: Instant::now(), inner: Mutex::new(Inner::default()) }
    }

    fn kind_index(kind: &str) -> usize {
        KINDS.iter().position(|k| *k == kind).expect("known request kind")
    }

    /// Records a completed request of `kind`: outcome plus arrival→reply
    /// latency.
    pub fn record_request(&self, kind: &str, ok: bool, latency_us: u64) {
        let mut inner = self.inner.lock().expect("metrics lock");
        let row = &mut inner.per_kind[Self::kind_index(kind)];
        row.requests += 1;
        if !ok {
            row.errors += 1;
        }
        row.latency.record(latency_us);
    }

    /// Records a backpressure rejection (the request was never queued).
    pub fn record_rejected(&self) {
        self.inner.lock().expect("metrics lock").rejected_busy += 1;
    }

    /// Records pure execution time for `kind` (dequeue→result, excluding
    /// queue wait) — the drain-rate signal behind the retry hint.
    pub fn record_exec(&self, kind: &str, exec_us: u64) {
        let mut inner = self.inner.lock().expect("metrics lock");
        inner.per_kind[Self::kind_index(kind)].exec.record(exec_us);
    }

    /// The p50 *execution* time of `kind` in microseconds (0 when
    /// unobserved).
    #[must_use]
    pub fn exec_p50_us(&self, kind: &str) -> u64 {
        let inner = self.inner.lock().expect("metrics lock");
        inner.per_kind[Self::kind_index(kind)].exec.quantile_us(0.5)
    }

    /// Records one job handed to a worker (re-dispatches count again — the
    /// ledger tracks dispatch attempts).
    pub fn record_job_dispatched(&self) {
        self.inner.lock().expect("metrics lock").jobs.dispatched += 1;
    }

    /// Records one job whose terminal outcome was sent to its client.
    pub fn record_job_answered(&self) {
        self.inner.lock().expect("metrics lock").jobs.answered += 1;
    }

    /// Records a job that survived a worker panic via the single
    /// re-dispatch and still answered.
    pub fn record_job_recovered(&self) {
        self.inner.lock().expect("metrics lock").jobs.recovered += 1;
    }

    /// Records a request that ended in a deadline timeout.
    pub fn record_timeout(&self) {
        self.inner.lock().expect("metrics lock").timeouts += 1;
    }

    /// Records one injected chaos event (`"panic"`, `"delay"` or
    /// `"drop"`).
    pub fn record_chaos(&self, kind: &str) {
        let mut inner = self.inner.lock().expect("metrics lock");
        match kind {
            "panic" => inner.chaos.panics += 1,
            "delay" => inner.chaos.delays += 1,
            "drop" => inner.chaos.drops += 1,
            other => unreachable!("unknown chaos event `{other}`"),
        }
    }

    /// Jobs recovered after a worker panic (for shutdown summaries).
    #[must_use]
    pub fn recovered_jobs(&self) -> u64 {
        self.inner.lock().expect("metrics lock").jobs.recovered
    }

    /// Records one simulation job executed with `engine` (coverage and
    /// synth requests that actually ran — memo hits don't simulate and are
    /// not counted).
    pub fn record_engine(&self, engine: SimEngine) {
        let mut inner = self.inner.lock().expect("metrics lock");
        inner.per_engine[engine as usize] += 1;
    }

    /// Records the per-class engine routing of one coverage run that
    /// actually simulated (memo hits route nothing and are not counted).
    pub fn record_routing(&self, breakdown: &RoutingBreakdown) {
        let mut inner = self.inner.lock().expect("metrics lock");
        for row in &breakdown.rows {
            let i = FaultClass::ALL
                .iter()
                .position(|c| *c == row.class)
                .expect("known fault class");
            inner.routing.0[i][0] += row.packed as u64;
            inner.routing.0[i][1] += row.sliced as u64;
            inner.routing.0[i][2] += row.full as u64;
        }
    }

    /// Records one `synth_search` run that actually searched: candidates
    /// simulated, fitness-memo hits, and the oracle's compile/simulate
    /// wall-clock split. Cancelled (partial) runs record too — the work
    /// happened; only the *result* is kept out of the memo.
    pub fn record_search(
        &self,
        evaluations: u64,
        memo_hits: u64,
        compile_ns: u64,
        simulate_ns: u64,
    ) {
        let mut inner = self.inner.lock().expect("metrics lock");
        inner.search.runs += 1;
        inner.search.evaluations += evaluations;
        inner.search.memo_hits += memo_hits;
        inner.search.compile_ns += compile_ns;
        inner.search.simulate_ns += simulate_ns;
    }

    /// Records a trace-cache lookup outcome.
    pub fn record_trace_lookup(&self, hit: bool) {
        let mut inner = self.inner.lock().expect("metrics lock");
        if hit {
            inner.trace_hits += 1;
        } else {
            inner.trace_misses += 1;
        }
    }

    /// Records a result-memo lookup outcome.
    pub fn record_result_lookup(&self, hit: bool) {
        let mut inner = self.inner.lock().expect("metrics lock");
        if hit {
            inner.result_hits += 1;
        } else {
            inner.result_misses += 1;
        }
    }

    /// Total requests served (all kinds, including errors).
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        let inner = self.inner.lock().expect("metrics lock");
        inner.per_kind.iter().map(|k| k.requests).sum()
    }

    /// The p50 latency of `kind` in microseconds (0 when unobserved) — the
    /// basis of the backpressure retry hint.
    #[must_use]
    pub fn p50_us(&self, kind: &str) -> u64 {
        let inner = self.inner.lock().expect("metrics lock");
        inner.per_kind[Self::kind_index(kind)].latency.quantile_us(0.5)
    }

    /// The full snapshot served by `status` (and flushed on shutdown).
    #[must_use]
    pub fn snapshot(
        &self,
        queue_depth: usize,
        queue_capacity: usize,
        cache: CacheStats,
    ) -> Json {
        let inner = self.inner.lock().expect("metrics lock");
        let ratio = |hits: u64, misses: u64| {
            let total = hits + misses;
            if total == 0 {
                Json::Null
            } else {
                Json::Num(hits as f64 / total as f64)
            }
        };
        let kinds = KINDS
            .iter()
            .zip(inner.per_kind.iter())
            .map(|(name, row)| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("requests", Json::num(row.requests as f64)),
                        ("errors", Json::num(row.errors as f64)),
                        ("latency", row.latency.to_json()),
                        ("exec", row.exec.to_json()),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("uptime_ms", Json::num(self.started.elapsed().as_millis() as f64)),
            (
                "queue",
                Json::obj(vec![
                    ("depth", Json::num(queue_depth as f64)),
                    ("capacity", Json::num(queue_capacity as f64)),
                    ("rejected_busy", Json::num(inner.rejected_busy as f64)),
                ]),
            ),
            (
                "cache",
                Json::obj(vec![
                    ("traces", Json::num(cache.traces as f64)),
                    ("results", Json::num(cache.results as f64)),
                    ("bytes", Json::num(cache.bytes as f64)),
                    ("capacity_bytes", Json::num(cache.capacity_bytes as f64)),
                    ("trace_hits", Json::num(inner.trace_hits as f64)),
                    ("trace_misses", Json::num(inner.trace_misses as f64)),
                    ("trace_hit_ratio", ratio(inner.trace_hits, inner.trace_misses)),
                    ("result_hits", Json::num(inner.result_hits as f64)),
                    ("result_misses", Json::num(inner.result_misses as f64)),
                    ("result_hit_ratio", ratio(inner.result_hits, inner.result_misses)),
                ]),
            ),
            (
                "jobs",
                Json::obj(vec![
                    ("dispatched", Json::num(inner.jobs.dispatched as f64)),
                    ("answered", Json::num(inner.jobs.answered as f64)),
                    ("recovered_jobs", Json::num(inner.jobs.recovered as f64)),
                    ("timeouts", Json::num(inner.timeouts as f64)),
                ]),
            ),
            (
                "chaos",
                Json::obj(vec![
                    ("injected_panics", Json::num(inner.chaos.panics as f64)),
                    ("injected_delays", Json::num(inner.chaos.delays as f64)),
                    ("injected_drops", Json::num(inner.chaos.drops as f64)),
                ]),
            ),
            ("search", search_json(&inner.search)),
            ("kinds", Json::Obj(kinds)),
            (
                "engines",
                Json::Obj(
                    SimEngine::ALL
                        .iter()
                        .zip(inner.per_engine.iter())
                        .map(|(engine, &jobs)| (engine.to_string(), Json::num(jobs as f64)))
                        .collect(),
                ),
            ),
            ("routing", routing_json(&inner.routing)),
        ])
    }
}

/// The `status` view of the search-oracle counters. The derived figures
/// (`oracle_ns_per_candidate`, `memo_hit_ratio`) are `null` until a search
/// actually ran — never fabricated. `oracle_ns_per_candidate` divides only
/// the oracle's own compile+simulate time, so it measures the batched hot
/// path, not queue wait or strategy orchestration.
fn search_json(search: &SearchCounters) -> Json {
    let lookups = search.evaluations + search.memo_hits;
    Json::obj(vec![
        ("runs", Json::num(search.runs as f64)),
        ("candidates_evaluated", Json::num(search.evaluations as f64)),
        ("memo_hits", Json::num(search.memo_hits as f64)),
        ("compile_ns", Json::num(search.compile_ns as f64)),
        ("simulate_ns", Json::num(search.simulate_ns as f64)),
        (
            "oracle_ns_per_candidate",
            if search.evaluations == 0 {
                Json::Null
            } else {
                Json::Num(
                    (search.compile_ns + search.simulate_ns) as f64
                        / search.evaluations as f64,
                )
            },
        ),
        (
            "memo_hit_ratio",
            if lookups == 0 {
                Json::Null
            } else {
                Json::Num(search.memo_hits as f64 / lookups as f64)
            },
        ),
    ])
}

/// The `status` view of the routing counters: per-class
/// `{packed, sliced, full}` (`sliced` counts decoder faults, which the
/// packed plan's two-word replay decides) plus the batchable-faults ratio.
/// The ratio is `null` until a coverage run records routing — never
/// fabricated.
fn routing_json(routing: &RoutingCounters) -> Json {
    let total: u64 = routing.0.iter().flatten().sum();
    let batchable: u64 = routing.0.iter().map(|row| row[0]).sum();
    let classes = FaultClass::ALL
        .iter()
        .zip(routing.0.iter())
        .map(|(class, row)| {
            (
                class.label().to_string(),
                Json::obj(vec![
                    ("packed", Json::num(row[0] as f64)),
                    ("sliced", Json::num(row[1] as f64)),
                    ("full", Json::num(row[2] as f64)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("total", Json::num(total as f64)),
        ("batchable", Json::num(batchable as f64)),
        (
            "batchable_ratio",
            if total == 0 {
                Json::Null
            } else {
                Json::Num(batchable as f64 / total as f64)
            },
        ),
        ("classes", Json::Obj(classes)),
    ])
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_ordered_and_bracketing() {
        let mut h = Histogram::default();
        for us in [1u64, 2, 3, 10, 100, 1000, 10_000] {
            h.record(us);
        }
        let (p50, p95, p99) =
            (h.quantile_us(0.5), h.quantile_us(0.95), h.quantile_us(0.99));
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p50 >= 10, "median observation is 10µs, upper bound ≥ 10");
        assert_eq!(h.count(), 7);
        assert!(h.mean_us() > 0);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.mean_us(), 0);
    }

    #[test]
    fn huge_latencies_saturate_the_last_bucket() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        assert!(h.quantile_us(0.5) > 0);
    }

    #[test]
    fn snapshot_reports_counters_and_ratios() {
        let m = Metrics::new();
        m.record_request("coverage", true, 1500);
        m.record_request("coverage", false, 300);
        m.record_request("status", true, 5);
        m.record_rejected();
        m.record_trace_lookup(true);
        m.record_trace_lookup(false);
        m.record_result_lookup(false);
        m.record_engine(SimEngine::Full);
        m.record_engine(SimEngine::Packed);
        m.record_engine(SimEngine::Packed);
        let cache = CacheStats { traces: 1, results: 0, bytes: 1024, capacity_bytes: 4096 };
        let snap = m.snapshot(3, 64, cache);
        let queue = snap.get("queue").unwrap();
        assert_eq!(queue.get("depth").unwrap().as_u64(), Some(3));
        assert_eq!(queue.get("rejected_busy").unwrap().as_u64(), Some(1));
        let cache = snap.get("cache").unwrap();
        assert_eq!(cache.get("trace_hits").unwrap().as_u64(), Some(1));
        assert_eq!(cache.get("trace_hit_ratio").unwrap().as_f64(), Some(0.5));
        let cov = snap.get("kinds").unwrap().get("coverage").unwrap();
        assert_eq!(cov.get("requests").unwrap().as_u64(), Some(2));
        assert_eq!(cov.get("errors").unwrap().as_u64(), Some(1));
        assert!(cov.get("latency").unwrap().get("p95_us").unwrap().as_u64().unwrap() > 0);
        assert_eq!(m.total_requests(), 3);
        let engines = snap.get("engines").unwrap();
        assert_eq!(engines.get("full").unwrap().as_u64(), Some(1));
        assert_eq!(engines.get("packed").unwrap().as_u64(), Some(2));
        assert!(
            matches!(engines, Json::Obj(rows) if rows.len() == 2),
            "one row per engine"
        );
        // No coverage run recorded routing yet: ratio is null, not 0/0.
        let routing = snap.get("routing").unwrap();
        assert_eq!(routing.get("total").unwrap().as_u64(), Some(0));
        assert!(matches!(routing.get("batchable_ratio"), Some(Json::Null)));
    }

    #[test]
    fn job_ledger_and_chaos_counters_surface_in_the_snapshot() {
        let m = Metrics::new();
        m.record_job_dispatched();
        m.record_job_dispatched();
        m.record_job_answered();
        m.record_job_recovered();
        m.record_timeout();
        m.record_chaos("panic");
        m.record_chaos("panic");
        m.record_chaos("delay");
        m.record_chaos("drop");
        m.record_exec("coverage", 2000);
        let cache = CacheStats { traces: 0, results: 0, bytes: 0, capacity_bytes: 0 };
        let snap = m.snapshot(0, 64, cache);
        let jobs = snap.get("jobs").unwrap();
        assert_eq!(jobs.get("dispatched").unwrap().as_u64(), Some(2));
        assert_eq!(jobs.get("answered").unwrap().as_u64(), Some(1));
        assert_eq!(jobs.get("recovered_jobs").unwrap().as_u64(), Some(1));
        assert_eq!(jobs.get("timeouts").unwrap().as_u64(), Some(1));
        let chaos = snap.get("chaos").unwrap();
        assert_eq!(chaos.get("injected_panics").unwrap().as_u64(), Some(2));
        assert_eq!(chaos.get("injected_delays").unwrap().as_u64(), Some(1));
        assert_eq!(chaos.get("injected_drops").unwrap().as_u64(), Some(1));
        assert_eq!(m.recovered_jobs(), 1);
        assert!(m.exec_p50_us("coverage") >= 2000);
        assert_eq!(m.exec_p50_us("synth"), 0, "unobserved kinds report 0");
        let cov = snap.get("kinds").unwrap().get("coverage").unwrap();
        assert_eq!(cov.get("exec").unwrap().get("count").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn search_counters_accumulate_and_derive_honestly() {
        let m = Metrics::new();
        let cache = CacheStats { traces: 0, results: 0, bytes: 0, capacity_bytes: 0 };
        // Before any search ran the derived figures are null, not zero.
        let snap = m.snapshot(0, 64, cache);
        let search = snap.get("search").unwrap();
        assert_eq!(search.get("runs").unwrap().as_u64(), Some(0));
        assert!(matches!(search.get("oracle_ns_per_candidate"), Some(Json::Null)));
        assert!(matches!(search.get("memo_hit_ratio"), Some(Json::Null)));

        m.record_search(100, 20, 1_000_000, 500_000);
        m.record_search(50, 40, 500_000, 250_000);
        let snap = m.snapshot(0, 64, cache);
        let search = snap.get("search").unwrap();
        assert_eq!(search.get("runs").unwrap().as_u64(), Some(2));
        assert_eq!(search.get("candidates_evaluated").unwrap().as_u64(), Some(150));
        assert_eq!(search.get("memo_hits").unwrap().as_u64(), Some(60));
        assert_eq!(search.get("compile_ns").unwrap().as_u64(), Some(1_500_000));
        assert_eq!(search.get("simulate_ns").unwrap().as_u64(), Some(750_000));
        let per = search.get("oracle_ns_per_candidate").unwrap().as_f64().unwrap();
        assert!((per - 2_250_000.0 / 150.0).abs() < 1e-9);
        let ratio = search.get("memo_hit_ratio").unwrap().as_f64().unwrap();
        assert!((ratio - 60.0 / 210.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_accumulates_recorded_routing() {
        use mbist_march::RoutingRow;
        let m = Metrics::new();
        let breakdown = RoutingBreakdown {
            engine: SimEngine::Packed,
            rows: vec![
                RoutingRow { class: FaultClass::StuckAt, packed: 32, sliced: 0, full: 0 },
                RoutingRow {
                    class: FaultClass::AddressDecoder,
                    packed: 0,
                    sliced: 16,
                    full: 0,
                },
            ],
        };
        m.record_routing(&breakdown);
        m.record_routing(&breakdown);
        let cache = CacheStats { traces: 0, results: 0, bytes: 0, capacity_bytes: 0 };
        let snap = m.snapshot(0, 64, cache);
        let routing = snap.get("routing").unwrap();
        assert_eq!(routing.get("total").unwrap().as_u64(), Some(96));
        assert_eq!(routing.get("batchable").unwrap().as_u64(), Some(64));
        let ratio = routing.get("batchable_ratio").unwrap().as_f64().unwrap();
        assert!((ratio - 64.0 / 96.0).abs() < 1e-12);
        let saf = routing.get("classes").unwrap().get("SAF").unwrap();
        assert_eq!(saf.get("packed").unwrap().as_u64(), Some(64));
        let af = routing.get("classes").unwrap().get("AF").unwrap();
        assert_eq!(af.get("sliced").unwrap().as_u64(), Some(32));
        assert_eq!(af.get("packed").unwrap().as_u64(), Some(0));
    }
}

//! The line-delimited JSON request/response protocol.
//!
//! Each request is one JSON object on one line; the server answers with
//! exactly one JSON object line per request, in order. Request kinds:
//!
//! | kind       | fields                                                        |
//! |------------|---------------------------------------------------------------|
//! | `coverage` | `test`, `words` [, `width`, `ports`, `max_faults`, `jobs`, `engine`] |
//! | `detects`  | `test`, `words`, `fault` [, `width`, `ports`]                 |
//! | `synth`    | `classes` [, `max_elements`, `jobs`, `engine`]                |
//! | `synth_search` | `universe` [, `words`, `width`, `ports`, `target_coverage`, `budget`, `seed`, `strategy`, `max_elements`, `jobs`, `engine`] |
//! | `area`     | [`table`]                                                     |
//! | `status`   | —                                                             |
//! | `shutdown` | —                                                             |
//!
//! The optional `engine` field selects the fault-simulation engine:
//! `"packed"` (default) or `"full"` — responses are byte-identical for
//! every choice, only latency differs.
//!
//! An optional `id` member is echoed back verbatim in the response so
//! clients may correlate — on errors too, whenever the id was parseable
//! from the offending line. An optional `deadline_ms` member caps how long
//! the server may spend on the request (absent → the server default, `0` →
//! no deadline); a blown deadline cancels the simulation cooperatively and
//! answers with a `timeout` error.
//!
//! Success responses carry `"ok":true` plus kind-specific payload;
//! failures carry `"ok":false` and an `error` object with a `class`
//! (`usage`, `failed`, `busy`, `shutdown`, `timeout`, `internal`) and
//! `message`; `busy` adds `retry_after_ms` (explicit backpressure — the
//! server never blocks a client on a full queue), `timeout` adds
//! `elapsed_ms` (plus `partial` — the best-so-far test — when a cancelled
//! `synth_search` had one), and `internal` adds the `job_id` whose worker died twice
//! (a job is re-dispatched once after a worker panic, then failed — never
//! dropped, never double-answered).

use mbist_march::SimEngine;
use mbist_mem::MemGeometry;

use crate::json::Json;

/// A decoded request body.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Per-fault-class coverage of a march test — the CLI's `coverage`.
    Coverage {
        /// Library name or inline march notation.
        test: String,
        /// Memory organization under evaluation.
        geometry: MemGeometry,
        /// Per-class stride-sampling cap (`None` = uncapped).
        max_faults: Option<usize>,
        /// Fan-out threads *within* this request (`None` = host auto).
        /// Defaults to 1: the worker pool is the concurrency source.
        jobs: Option<usize>,
        /// Fault-simulation engine.
        engine: SimEngine,
    },
    /// Single-fault detection against the cached trace.
    Detects {
        /// Library name or inline march notation.
        test: String,
        /// Memory organization under evaluation.
        geometry: MemGeometry,
        /// Fault spec, `KIND@ADDR[.BIT]` (the CLI `--fault` syntax).
        fault: String,
    },
    /// March-test synthesis for a fault mix — the CLI's `synth`.
    Synth {
        /// Comma-separated class names (`saf,tf,af,cfin,cfid,cfst`).
        classes: String,
        /// Upper bound on march elements.
        max_elements: usize,
        /// Fan-out threads within the request (see [`Request::Coverage`]).
        jobs: Option<usize>,
        /// Fault-simulation engine.
        engine: SimEngine,
    },
    /// Search-based march-test synthesis — the CLI's `synth-search`.
    SynthSearch {
        /// Comma-separated class names (the CLI's `--universe` list).
        universe: String,
        /// Memory organization the fitness oracle simulates on
        /// (`words` defaults to 256, bit-oriented single-port).
        geometry: MemGeometry,
        /// Required coverage, in percent (0–100; default 100).
        target_coverage: f64,
        /// Candidate-evaluation budget.
        budget: usize,
        /// Search seed — same seed, same response bytes.
        seed: u64,
        /// Search strategy (`evolve` or `compose`).
        strategy: mbist_search::Strategy,
        /// Upper bound on march elements per candidate.
        max_elements: usize,
        /// Fan-out threads within the request (see [`Request::Coverage`]).
        jobs: Option<usize>,
        /// Fault-simulation engine scoring candidates.
        engine: SimEngine,
    },
    /// The paper's area tables — the CLI's `area`.
    Area {
        /// `"1"`, `"2"`, `"3"`, or `None` for all three.
        table: Option<String>,
    },
    /// Metrics snapshot (served inline, never queued — it works even while
    /// the job queue is saturated).
    Status,
    /// Graceful shutdown: stop accepting, drain the queue, flush metrics.
    Shutdown,
}

impl Request {
    /// The request-kind label used in metrics and responses.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Coverage { .. } => "coverage",
            Request::Detects { .. } => "detects",
            Request::Synth { .. } => "synth",
            Request::SynthSearch { .. } => "synth_search",
            Request::Area { .. } => "area",
            Request::Status => "status",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A request plus its correlation id and deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Echoed back verbatim in the response, if the client sent one.
    pub id: Option<Json>,
    /// Per-request deadline in milliseconds: `None` = absent (the server
    /// default applies), `Some(0)` = explicitly unlimited.
    pub deadline_ms: Option<u64>,
    /// The decoded request.
    pub request: Request,
}

/// Why a request failed, mapped onto the wire `error.class`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Malformed request (parse error, unknown kind/field value). Mirrors
    /// the CLI's usage class.
    Usage(String),
    /// Well-formed but could not be carried out.
    Failed(String),
    /// The job queue is full; retry after the embedded hint (ms).
    Busy {
        /// Suggested client back-off in milliseconds.
        retry_after_ms: u64,
    },
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// The request's deadline elapsed before the result was ready; the
    /// simulation was cancelled cooperatively.
    Timeout {
        /// Milliseconds actually spent before the cancellation took hold.
        elapsed_ms: u64,
        /// Best-so-far answer a cancelled search could still report
        /// (`synth_search` only): the march test found before the deadline
        /// hit, as notation text. Never a complete result — partial
        /// answers are not memoized and not `ok`.
        partial: Option<String>,
    },
    /// The job's worker panicked twice (once on dispatch, once on the
    /// single re-dispatch); the request is failed, not dropped.
    Internal {
        /// Server-side job id, for correlating with daemon logs.
        job_id: u64,
    },
}

impl ServiceError {
    /// The wire `error.class` label.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            ServiceError::Usage(_) => "usage",
            ServiceError::Failed(_) => "failed",
            ServiceError::Busy { .. } => "busy",
            ServiceError::ShuttingDown => "shutdown",
            ServiceError::Timeout { .. } => "timeout",
            ServiceError::Internal { .. } => "internal",
        }
    }
}

fn usage(message: impl Into<String>) -> ServiceError {
    ServiceError::Usage(message.into())
}

/// Decodes one request line.
///
/// # Errors
///
/// Returns [`ServiceError::Usage`] on malformed JSON, an unknown `kind`,
/// missing required fields or out-of-range values.
pub fn parse_request(line: &str) -> Result<Envelope, ServiceError> {
    let value = Json::parse(line).map_err(|e| usage(format!("invalid JSON: {e}")))?;
    parse_request_value(&value)
}

/// Decodes one request from an already-parsed value tree — the entry point
/// the binary framing uses (its frames decode straight to [`Json`] without
/// any text parse).
///
/// # Errors
///
/// Same contract as [`parse_request`], minus the JSON syntax errors.
pub fn parse_request_value(value: &Json) -> Result<Envelope, ServiceError> {
    if !matches!(value, Json::Obj(_)) {
        return Err(usage("request must be a JSON object"));
    }
    let id = value.get("id").cloned();
    let deadline_ms = opt_u64(value, "deadline_ms")?;
    let kind = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| usage("missing string field `kind`"))?;
    let request = match kind {
        "coverage" => Request::Coverage {
            test: required_str(value, "test")?,
            geometry: geometry_from(value)?,
            max_faults: match opt_u64(value, "max_faults")? {
                None => Some(256),
                Some(0) => None,
                Some(n) => Some(usize::try_from(n).expect("u64 fits usize")),
            },
            jobs: jobs_from(value)?,
            engine: engine_from(value)?,
        },
        "detects" => Request::Detects {
            test: required_str(value, "test")?,
            geometry: geometry_from(value)?,
            fault: required_str(value, "fault")?,
        },
        "synth" => Request::Synth {
            classes: required_str(value, "classes")?,
            max_elements: usize::try_from(opt_u64(value, "max_elements")?.unwrap_or(8))
                .expect("u64 fits usize"),
            jobs: jobs_from(value)?,
            engine: engine_from(value)?,
        },
        "synth_search" => {
            let target_coverage = opt_f64(value, "target_coverage")?.unwrap_or(100.0);
            if !(0.0..=100.0).contains(&target_coverage) {
                return Err(usage("`target_coverage` must be 0–100"));
            }
            Request::SynthSearch {
                universe: required_str(value, "universe")?,
                geometry: geometry_with_words(
                    value,
                    opt_u64(value, "words")?.unwrap_or(256),
                )?,
                target_coverage,
                budget: usize::try_from(opt_u64(value, "budget")?.unwrap_or(2000))
                    .expect("u64 fits usize"),
                seed: opt_u64(value, "seed")?.unwrap_or(1),
                strategy: match value.get("strategy") {
                    None | Some(Json::Null) => mbist_search::Strategy::Evolutionary,
                    Some(v) => {
                        v.as_str().and_then(mbist_search::Strategy::parse_name).ok_or_else(
                            || usage("`strategy` must be \"evolve\" or \"compose\""),
                        )?
                    }
                },
                max_elements: usize::try_from(
                    opt_u64(value, "max_elements")?.unwrap_or(12),
                )
                .expect("u64 fits usize"),
                jobs: jobs_from(value)?,
                engine: engine_from(value)?,
            }
        }
        "area" => Request::Area {
            table: match value.get("table") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_str()
                        .map(ToString::to_string)
                        .or_else(|| v.as_u64().map(|n| n.to_string()))
                        .ok_or_else(|| usage("`table` must be \"1\", \"2\" or \"3\""))?,
                ),
            },
        },
        "status" => Request::Status,
        "shutdown" => Request::Shutdown,
        other => {
            return Err(usage(format!(
                "unknown kind `{other}` \
                 (coverage|detects|synth|synth_search|area|status|shutdown)"
            )))
        }
    };
    Ok(Envelope { id, deadline_ms, request })
}

/// Best-effort recovery of the `id` member from a line that failed
/// [`parse_request`], so even malformed-request errors echo the
/// correlation id whenever one was readable.
#[must_use]
pub fn recover_id(line: &str) -> Option<Json> {
    Json::parse(line).ok()?.get("id").cloned()
}

fn required_str(value: &Json, field: &str) -> Result<String, ServiceError> {
    value
        .get(field)
        .and_then(Json::as_str)
        .map(ToString::to_string)
        .ok_or_else(|| usage(format!("missing string field `{field}`")))
}

fn opt_f64(value: &Json, field: &str) -> Result<Option<f64>, ServiceError> {
    match value.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) => Ok(Some(*n)),
        Some(_) => Err(usage(format!("`{field}` must be a number"))),
    }
}

fn opt_u64(value: &Json, field: &str) -> Result<Option<u64>, ServiceError> {
    match value.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| usage(format!("`{field}` must be a non-negative integer"))),
    }
}

/// `jobs` within one request: absent → 1 (the worker pool is the
/// concurrency source), 0 → host auto, n → n. The response is bit-identical
/// for every setting.
fn jobs_from(value: &Json) -> Result<Option<usize>, ServiceError> {
    Ok(match opt_u64(value, "jobs")? {
        None => Some(1),
        Some(0) => None,
        Some(n) => Some(usize::try_from(n).expect("u64 fits usize")),
    })
}

fn engine_from(value: &Json) -> Result<SimEngine, ServiceError> {
    match value.get("engine") {
        None | Some(Json::Null) => Ok(SimEngine::default()),
        Some(v) => v
            .as_str()
            .and_then(SimEngine::parse_name)
            .ok_or_else(|| usage("`engine` must be \"full\" or \"packed\"")),
    }
}

fn geometry_from(value: &Json) -> Result<MemGeometry, ServiceError> {
    let words =
        opt_u64(value, "words")?.ok_or_else(|| usage("missing integer field `words`"))?;
    geometry_with_words(value, words)
}

/// Geometry whose word count is already resolved (required for most kinds,
/// defaulted for `synth_search`).
fn geometry_with_words(value: &Json, words: u64) -> Result<MemGeometry, ServiceError> {
    let width = opt_u64(value, "width")?.unwrap_or(1);
    let ports = opt_u64(value, "ports")?.unwrap_or(1);
    if words == 0 || width == 0 || width > 64 || ports == 0 || ports > u64::from(u8::MAX) {
        return Err(usage("geometry out of range (words ≥ 1, 1 ≤ width ≤ 64, ports ≥ 1)"));
    }
    Ok(MemGeometry::new(words, u8::try_from(width).expect("≤64"), ports as u8))
}

/// Builds a success response line (without the trailing newline).
#[must_use]
pub fn ok_response(id: Option<&Json>, kind: &str, payload: Vec<(&str, Json)>) -> String {
    ok_response_value(id, kind, payload).to_string()
}

/// The success response as a value tree; both framings serialize this —
/// line-JSON via `Display`, binary via `binary::encode_frame` — so the
/// member set and order are identical on either wire.
#[must_use]
pub fn ok_response_value(
    id: Option<&Json>,
    kind: &str,
    payload: Vec<(&str, Json)>,
) -> Json {
    let mut members = Vec::with_capacity(payload.len() + 3);
    if let Some(id) = id {
        members.push(("id".to_string(), id.clone()));
    }
    members.push(("ok".to_string(), Json::Bool(true)));
    members.push(("kind".to_string(), Json::str(kind)));
    members.extend(payload.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(members)
}

/// Builds a failure response line (without the trailing newline).
#[must_use]
pub fn error_response(id: Option<&Json>, error: &ServiceError) -> String {
    error_response_value(id, error).to_string()
}

/// The failure response as a value tree (see [`ok_response_value`]).
#[must_use]
pub fn error_response_value(id: Option<&Json>, error: &ServiceError) -> Json {
    let mut error_members = vec![("class".to_string(), Json::str(error.class()))];
    let message = match error {
        ServiceError::Usage(m) | ServiceError::Failed(m) => m.clone(),
        ServiceError::Busy { retry_after_ms } => {
            error_members
                .push(("retry_after_ms".to_string(), Json::num(*retry_after_ms as f64)));
            "job queue full; retry after the hinted back-off".to_string()
        }
        ServiceError::ShuttingDown => "server is draining; no new work accepted".into(),
        ServiceError::Timeout { elapsed_ms, partial } => {
            error_members.push(("elapsed_ms".to_string(), Json::num(*elapsed_ms as f64)));
            if let Some(best) = partial {
                error_members.push(("partial".to_string(), Json::str(best.clone())));
            }
            "deadline exceeded; simulation cancelled".to_string()
        }
        ServiceError::Internal { job_id } => {
            error_members.push(("job_id".to_string(), Json::num(*job_id as f64)));
            "worker failed twice on this job; giving up".to_string()
        }
    };
    error_members.insert(1, ("message".to_string(), Json::str(message)));
    let mut members = Vec::new();
    if let Some(id) = id {
        members.push(("id".to_string(), id.clone()));
    }
    members.push(("ok".to_string(), Json::Bool(false)));
    members.push(("error".to_string(), Json::Obj(error_members)));
    Json::Obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_coverage_with_defaults() {
        let e =
            parse_request(r#"{"kind":"coverage","test":"march-c","words":64}"#).unwrap();
        assert_eq!(e.id, None);
        match e.request {
            Request::Coverage { test, geometry, max_faults, jobs, engine } => {
                assert_eq!(test, "march-c");
                assert_eq!(geometry, MemGeometry::bit_oriented(64));
                assert_eq!(max_faults, Some(256));
                assert_eq!(jobs, Some(1));
                assert_eq!(engine, SimEngine::Packed);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_both_engine_names() {
        for want in SimEngine::ALL {
            let line = format!(
                r#"{{"kind":"coverage","test":"march-c","words":8,"engine":"{want}"}}"#
            );
            match parse_request(&line).unwrap().request {
                Request::Coverage { engine, .. } => assert_eq!(engine, want, "{want}"),
                other => panic!("wrong request: {other:?}"),
            }
        }
        assert!(matches!(
            parse_request(r#"{"kind":"coverage","test":"mats","words":8,"engine":"turbo"}"#),
            Err(ServiceError::Usage(m)) if m.contains("packed")
        ));
    }

    #[test]
    fn field_order_is_irrelevant() {
        let a =
            parse_request(r#"{"kind":"coverage","test":"march-c","words":64,"width":8}"#)
                .unwrap();
        let b =
            parse_request(r#"{"width":8,"words":64,"test":"march-c","kind":"coverage"}"#)
                .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn explicit_defaults_parse_identically_to_omitted() {
        let a = parse_request(
            r#"{"kind":"detects","test":"mats+","words":16,"fault":"sa1@3"}"#,
        )
        .unwrap();
        let b = parse_request(
            r#"{"kind":"detects","test":"mats+","words":16,"width":1,"ports":1,"fault":"sa1@3"}"#,
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn jobs_and_max_faults_zero_mean_auto_and_uncapped() {
        let e = parse_request(
            r#"{"kind":"coverage","test":"mats","words":8,"jobs":0,"max_faults":0}"#,
        )
        .unwrap();
        match e.request {
            Request::Coverage { jobs, max_faults, .. } => {
                assert_eq!(jobs, None);
                assert_eq!(max_faults, None);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn id_is_preserved() {
        let e = parse_request(r#"{"id":42,"kind":"status"}"#).unwrap();
        assert_eq!(e.id, Some(Json::Num(42.0)));
        assert_eq!(e.request, Request::Status);
        let line = ok_response(e.id.as_ref(), "status", vec![]);
        assert!(line.starts_with(r#"{"id":42,"ok":true"#), "{line}");
    }

    #[test]
    fn rejects_unknown_kind_and_bad_geometry() {
        assert!(matches!(
            parse_request(r#"{"kind":"frob"}"#),
            Err(ServiceError::Usage(m)) if m.contains("unknown kind")
        ));
        assert!(matches!(
            parse_request(r#"{"kind":"coverage","test":"mats","words":0}"#),
            Err(ServiceError::Usage(m)) if m.contains("geometry out of range")
        ));
        assert!(matches!(
            parse_request(r#"{"kind":"coverage","test":"mats"}"#),
            Err(ServiceError::Usage(m)) if m.contains("words")
        ));
        assert!(matches!(
            parse_request("not json"),
            Err(ServiceError::Usage(m)) if m.contains("invalid JSON")
        ));
    }

    #[test]
    fn error_responses_carry_class_and_retry_hint() {
        let busy = error_response(None, &ServiceError::Busy { retry_after_ms: 40 });
        let v = Json::parse(&busy).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        let err = v.get("error").unwrap();
        assert_eq!(err.get("class").unwrap().as_str(), Some("busy"));
        assert_eq!(err.get("retry_after_ms").unwrap().as_u64(), Some(40));
        let usage = error_response(None, &ServiceError::Usage("bad".into()));
        let v = Json::parse(&usage).unwrap();
        assert_eq!(v.get("error").unwrap().get("class").unwrap().as_str(), Some("usage"));
    }

    #[test]
    fn deadline_is_parsed_and_optional() {
        let absent = parse_request(r#"{"kind":"status"}"#).unwrap();
        assert_eq!(absent.deadline_ms, None);
        let capped = parse_request(
            r#"{"kind":"coverage","test":"mats","words":8,"deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(capped.deadline_ms, Some(250));
        let unlimited = parse_request(r#"{"kind":"status","deadline_ms":0}"#).unwrap();
        assert_eq!(unlimited.deadline_ms, Some(0));
        assert!(matches!(
            parse_request(r#"{"kind":"status","deadline_ms":"soon"}"#),
            Err(ServiceError::Usage(m)) if m.contains("deadline_ms")
        ));
    }

    #[test]
    fn timeout_and_internal_errors_carry_their_members() {
        let timeout = error_response(
            Some(&Json::Num(7.0)),
            &ServiceError::Timeout { elapsed_ms: 512, partial: None },
        );
        let v = Json::parse(&timeout).unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), Some(7));
        let err = v.get("error").unwrap();
        assert_eq!(err.get("class").unwrap().as_str(), Some("timeout"));
        assert_eq!(err.get("elapsed_ms").unwrap().as_u64(), Some(512));
        assert!(err.get("partial").is_none(), "no member when there is no partial");

        let with_partial = error_response(
            None,
            &ServiceError::Timeout {
                elapsed_ms: 90,
                partial: Some("best: ⇕(w0); ⇑(r0,w1)".into()),
            },
        );
        let v = Json::parse(&with_partial).unwrap();
        let err = v.get("error").unwrap();
        assert_eq!(err.get("partial").unwrap().as_str(), Some("best: ⇕(w0); ⇑(r0,w1)"));

        let internal = error_response(None, &ServiceError::Internal { job_id: 41 });
        let v = Json::parse(&internal).unwrap();
        let err = v.get("error").unwrap();
        assert_eq!(err.get("class").unwrap().as_str(), Some("internal"));
        assert_eq!(err.get("job_id").unwrap().as_u64(), Some(41));
    }

    #[test]
    fn recover_id_salvages_ids_from_malformed_requests() {
        // Valid JSON, invalid request: the id is recoverable.
        assert_eq!(recover_id(r#"{"id":9,"kind":"frob"}"#), Some(Json::Num(9.0)));
        assert_eq!(
            recover_id(r#"{"id":"abc","words":"x"}"#),
            Some(Json::Str("abc".into()))
        );
        // Unparseable line or no id: nothing to echo.
        assert_eq!(recover_id("not json"), None);
        assert_eq!(recover_id(r#"{"kind":"frob"}"#), None);
    }

    #[test]
    fn parses_synth_search_with_defaults_and_rejects_bad_values() {
        let e = parse_request(r#"{"kind":"synth_search","universe":"saf,tf"}"#).unwrap();
        match e.request {
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
                assert_eq!(universe, "saf,tf");
                assert_eq!(geometry, MemGeometry::bit_oriented(256));
                assert!((target_coverage - 100.0).abs() < f64::EPSILON);
                assert_eq!(budget, 2000);
                assert_eq!(seed, 1);
                assert_eq!(strategy, mbist_search::Strategy::Evolutionary);
                assert_eq!(max_elements, 12);
                assert_eq!(jobs, Some(1));
                assert_eq!(engine, SimEngine::Packed);
            }
            other => panic!("wrong request: {other:?}"),
        }
        let e = parse_request(
            r#"{"kind":"synth_search","universe":"saf","strategy":"compose","target_coverage":95.5,"seed":9,"engine":"full"}"#,
        )
        .unwrap();
        match e.request {
            Request::SynthSearch { strategy, target_coverage, seed, engine, .. } => {
                assert_eq!(strategy, mbist_search::Strategy::Composition);
                assert!((target_coverage - 95.5).abs() < f64::EPSILON);
                assert_eq!(seed, 9);
                assert_eq!(engine, SimEngine::Full);
            }
            other => panic!("wrong request: {other:?}"),
        }
        assert!(matches!(
            parse_request(r#"{"kind":"synth_search"}"#),
            Err(ServiceError::Usage(m)) if m.contains("universe")
        ));
        assert!(matches!(
            parse_request(r#"{"kind":"synth_search","universe":"saf","strategy":"anneal"}"#),
            Err(ServiceError::Usage(m)) if m.contains("evolve")
        ));
        assert!(matches!(
            parse_request(
                r#"{"kind":"synth_search","universe":"saf","target_coverage":101}"#
            ),
            Err(ServiceError::Usage(m)) if m.contains("0–100")
        ));
        assert!(matches!(
            parse_request(r#"{"kind":"synth_search","universe":"saf","target_coverage":"high"}"#),
            Err(ServiceError::Usage(m)) if m.contains("number")
        ));
    }

    #[test]
    fn area_table_accepts_string_or_number() {
        for line in [r#"{"kind":"area","table":"2"}"#, r#"{"kind":"area","table":2}"#] {
            match parse_request(line).unwrap().request {
                Request::Area { table } => assert_eq!(table.as_deref(), Some("2")),
                other => panic!("wrong request: {other:?}"),
            }
        }
    }
}

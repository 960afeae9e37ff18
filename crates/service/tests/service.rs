//! End-to-end tests against a live daemon on an ephemeral port.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use mbist_march::{evaluate_coverage, CoverageOptions};
use mbist_mem::MemGeometry;
use mbist_service::json::Json;
use mbist_service::{Server, ServiceConfig};

fn start(config: ServiceConfig) -> Server {
    Server::start("127.0.0.1:0", config).expect("bind ephemeral port")
}

/// One connection; sends each line, reads one reply line per request.
fn roundtrip(addr: std::net::SocketAddr, lines: &[&str]) -> Vec<Json> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut replies = Vec::new();
    for line in lines {
        // Single write per request: a separate newline segment would trip
        // Nagle/delayed-ACK and slow every roundtrip by ~40 ms.
        stream.write_all(format!("{line}\n").as_bytes()).expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        replies.push(Json::parse(reply.trim()).expect("reply is JSON"));
    }
    replies
}

fn text_of(reply: &Json) -> &str {
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
    reply.get("text").and_then(Json::as_str).expect("text payload")
}

#[test]
fn concurrent_identical_and_distinct_requests_match_the_offline_oracle() {
    let server = start(ServiceConfig { workers: 4, ..ServiceConfig::default() });
    let addr = server.local_addr();

    // The offline answers the service responses must match byte for byte.
    let oracle = |test: &str, words: u64| {
        let t = mbist_march::library::by_name(test).expect("library test");
        evaluate_coverage(
            &t,
            &MemGeometry::bit_oriented(words),
            &CoverageOptions {
                max_faults_per_class: Some(256),
                jobs: Some(1),
                ..CoverageOptions::default()
            },
        )
        .to_string()
    };
    let expect_c64 = oracle("march-c", 64);
    let expect_mats16 = oracle("mats+", 16);

    // N identical + M distinct requests, all in flight simultaneously.
    let mut clients = Vec::new();
    for i in 0..8 {
        let (line, expected) = if i % 2 == 0 {
            (r#"{"kind":"coverage","test":"march-c","words":64}"#, expect_c64.clone())
        } else {
            (r#"{"kind":"coverage","test":"mats+","words":16}"#, expect_mats16.clone())
        };
        clients.push(thread::spawn(move || {
            let reply = roundtrip(addr, &[line]).pop().expect("one reply");
            assert_eq!(text_of(&reply), expected, "client {i} diverged");
        }));
    }
    for c in clients {
        c.join().expect("client thread");
    }

    server.shutdown();
    let summary = server.join();
    assert_eq!(summary.served, 8);
}

#[test]
fn exact_repeats_hit_the_result_memo_and_orderings_unify() {
    let server = start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let addr = server.local_addr();
    let replies = roundtrip(
        addr,
        &[
            // Cold: compiles the trace and computes the report.
            r#"{"kind":"coverage","test":"march-c","words":32}"#,
            // Same request, differently spelled: explicit defaults, shuffled
            // field order. Must be a full memo hit.
            r#"{"jobs":1,"width":1,"words":32,"kind":"coverage","test":"march-c","max_faults":256,"engine":"packed"}"#,
            // Different jobs setting: output is identical, so the memo key
            // deliberately ignores it — still a hit.
            r#"{"kind":"coverage","test":"march-c","words":32,"jobs":3}"#,
            // Different geometry: must not collide.
            r#"{"kind":"coverage","test":"march-c","words":33}"#,
            r#"{"kind":"status"}"#,
        ],
    );
    assert_eq!(replies[0].get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(replies[1].get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(replies[2].get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(replies[3].get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(text_of(&replies[0]), text_of(&replies[1]));
    assert_eq!(text_of(&replies[1]), text_of(&replies[2]));
    assert_ne!(text_of(&replies[0]), text_of(&replies[3]));

    let cache = replies[4].get("status").unwrap().get("cache").unwrap();
    assert_eq!(cache.get("result_hits").unwrap().as_u64(), Some(2));
    assert_eq!(cache.get("result_misses").unwrap().as_u64(), Some(2));
    assert_eq!(cache.get("trace_hits").unwrap().as_u64(), Some(2));
    assert_eq!(cache.get("trace_misses").unwrap().as_u64(), Some(2));

    server.shutdown();
    let _ = server.join();
}

#[test]
fn synth_search_matches_the_offline_report_and_memoizes_across_jobs() {
    let server = start(ServiceConfig { workers: 2, ..ServiceConfig::default() });
    let addr = server.local_addr();

    // The offline report the service response must match byte for byte.
    let options = mbist_search::SearchOptions {
        geometry: MemGeometry::bit_oriented(64),
        classes: vec![mbist_mem::FaultClass::StuckAt, mbist_mem::FaultClass::Transition],
        budget: 400,
        seed: 3,
        jobs: Some(1),
        ..mbist_search::SearchOptions::default()
    };
    let expected =
        mbist_search::report_text(&mbist_search::search_march("found", &options), &options);

    let replies = roundtrip(
        addr,
        &[
            // Cold: runs the search.
            r#"{"kind":"synth_search","universe":"saf,tf","words":64,"budget":400,"seed":3}"#,
            // Exact repeat: full memo hit.
            r#"{"kind":"synth_search","universe":"saf,tf","words":64,"budget":400,"seed":3}"#,
            // Different jobs setting: bit-identical output, so the memo key
            // deliberately ignores it — still a hit.
            r#"{"kind":"synth_search","universe":"saf,tf","words":64,"budget":400,"seed":3,"jobs":3}"#,
            // Different seed: a different search; must not collide.
            r#"{"kind":"synth_search","universe":"saf,tf","words":64,"budget":400,"seed":4}"#,
        ],
    );
    assert_eq!(replies[0].get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(replies[1].get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(replies[2].get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(replies[3].get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(text_of(&replies[0]), expected, "service diverged from offline");
    assert_eq!(text_of(&replies[1]), expected);
    assert_eq!(text_of(&replies[2]), expected);
    assert!(text_of(&replies[0]).contains("converged"), "easy universe converges");

    server.shutdown();
    let summary = server.join();
    let kinds = summary.metrics.get("kinds").expect("kinds");
    let row = kinds.get("synth_search").expect("synth_search counters");
    assert_eq!(row.get("requests").unwrap().as_u64(), Some(4));
    assert_eq!(row.get("errors").unwrap().as_u64(), Some(0));
}

#[test]
fn saturated_queue_returns_busy_instead_of_hanging() {
    // One worker, queue depth 1: with six slow full-replay requests in
    // flight at once, at least one must be shed with a `busy` error.
    let server =
        start(ServiceConfig { workers: 1, queue_depth: 1, ..ServiceConfig::default() });
    let addr = server.local_addr();
    let clients: Vec<_> = (0..6)
        .map(|_| {
            thread::spawn(move || {
                let reply = roundtrip(
                    addr,
                    &[r#"{"kind":"coverage","test":"march-c","words":512,"engine":"full"}"#],
                )
                .pop()
                .expect("one reply");
                match reply.get("ok").and_then(Json::as_bool) {
                    Some(true) => None,
                    Some(false) => {
                        let err = reply.get("error").expect("error object");
                        assert_eq!(err.get("class").and_then(Json::as_str), Some("busy"));
                        let hint =
                            err.get("retry_after_ms").and_then(Json::as_u64).expect("hint");
                        // Load-derived: no fixed floor beyond the 1 ms
                        // clamp, but it must always be a usable back-off.
                        assert!((1..=30_000).contains(&hint), "retry hint {hint}");
                        Some(())
                    }
                    None => panic!("malformed reply {reply}"),
                }
            })
        })
        .collect();
    let rejected = clients.into_iter().filter_map(|c| c.join().expect("client")).count();
    assert!(rejected >= 1, "expected at least one busy rejection");

    // status keeps answering even though the pool was saturated, and it
    // accounts the rejections.
    let status = roundtrip(addr, &[r#"{"kind":"status"}"#]).pop().unwrap();
    let queue = status.get("status").unwrap().get("queue").unwrap();
    assert_eq!(queue.get("rejected_busy").unwrap().as_u64(), Some(rejected as u64));

    server.shutdown();
    let _ = server.join();
}

#[test]
fn shutdown_request_drains_and_joins_cleanly() {
    let server = start(ServiceConfig { workers: 2, ..ServiceConfig::default() });
    let addr = server.local_addr();
    let replies = roundtrip(
        addr,
        &[
            r#"{"id":"warm","kind":"detects","test":"march-c","words":64,"fault":"sa0@5"}"#,
            r#"{"id":"bye","kind":"shutdown"}"#,
        ],
    );
    assert_eq!(replies[0].get("detected").and_then(Json::as_bool), Some(true));
    assert_eq!(replies[1].get("id").and_then(Json::as_str), Some("bye"));
    assert_eq!(replies[1].get("draining").and_then(Json::as_bool), Some(true));

    let summary = server.join();
    assert_eq!(summary.served, 2);
    let kinds = summary.metrics.get("kinds").expect("kinds");
    assert_eq!(kinds.get("detects").unwrap().get("requests").unwrap().as_u64(), Some(1));
    assert_eq!(kinds.get("shutdown").unwrap().get("requests").unwrap().as_u64(), Some(1));

    // New connections are refused once the acceptor has stopped.
    thread::sleep(Duration::from_millis(50));
    assert!(TcpStream::connect(addr).is_err(), "listener should be gone");
}

#[test]
fn malformed_lines_get_usage_errors_and_the_connection_survives() {
    let server = start(ServiceConfig::default());
    let addr = server.local_addr();
    let replies = roundtrip(
        addr,
        &[
            "this is not json",
            r#"{"kind":"frob"}"#,
            r#"{"kind":"coverage","test":"no-such-test","words":8}"#,
            r#"{"kind":"detects","test":"mats","words":8,"fault":"sa9@0"}"#,
            r#"{"kind":"area","table":"2"}"#, // still works after the errors
        ],
    );
    for bad in &replies[..4] {
        assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false), "{bad}");
        assert_eq!(
            bad.get("error").unwrap().get("class").and_then(Json::as_str),
            Some("usage"),
            "{bad}"
        );
    }
    assert!(text_of(&replies[4]).contains("Table 2"), "area table text");

    server.shutdown();
    let _ = server.join();
}

#[test]
fn retired_sliced_engine_is_a_usage_error_with_the_id_echoed() {
    let server = start(ServiceConfig::default());
    let addr = server.local_addr();
    let replies = roundtrip(
        addr,
        &[r#"{"id":41,"kind":"coverage","test":"march-c","words":8,"engine":"sliced"}"#],
    );
    assert_eq!(replies[0].get("id").and_then(Json::as_u64), Some(41));
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(false));
    let error = replies[0].get("error").unwrap();
    assert_eq!(error.get("class").and_then(Json::as_str), Some("usage"));
    let message = error.get("message").and_then(Json::as_str).unwrap();
    assert!(message.contains("\"full\" or \"packed\""), "{message}");

    server.shutdown();
    let _ = server.join();
}

#[test]
fn cold_cache_config_disables_memoization() {
    let server = start(ServiceConfig { cache_bytes: 0, ..ServiceConfig::default() });
    let addr = server.local_addr();
    let line = r#"{"kind":"coverage","test":"mats","words":16}"#;
    let replies = roundtrip(addr, &[line, line]);
    assert_eq!(replies[0].get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(replies[1].get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(text_of(&replies[0]), text_of(&replies[1]), "still deterministic");
    server.shutdown();
    let _ = server.join();
}

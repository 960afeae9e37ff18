//! Resilience tests against a live daemon: deterministic chaos injection,
//! deadlines, exactly-once accounting, shutdown under load, and
//! fuzz-style abuse of the line protocol.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use mbist_service::chaos::ChaosConfig;
use mbist_service::json::Json;
use mbist_service::{Server, ServiceConfig};

fn start(config: ServiceConfig) -> Server {
    Server::start("127.0.0.1:0", config).expect("bind ephemeral port")
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// Sends one line and reads one reply line.
fn ask(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    stream.write_all(format!("{line}\n").as_bytes()).expect("send");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply");
    Json::parse(reply.trim()).expect("reply is JSON")
}

fn error_class(reply: &Json) -> &str {
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false), "{reply}");
    reply.get("error").unwrap().get("class").and_then(Json::as_str).expect("class")
}

#[test]
fn blown_deadline_times_out_mid_simulation_within_twice_the_budget() {
    let server = start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let addr = server.local_addr();
    let (mut stream, mut reader) = connect(addr);

    // Big enough that the full-replay run takes far longer than the
    // deadline in a debug build; the cooperative token must cut it off
    // inside the engine loops, not after the request completes.
    let deadline_ms = 800u64;
    let line = format!(
        r#"{{"id":"t1","kind":"coverage","test":"march-c","words":2048,"engine":"full","max_faults":5000,"jobs":1,"deadline_ms":{deadline_ms}}}"#
    );
    let started = Instant::now();
    let reply = ask(&mut stream, &mut reader, &line);
    let elapsed = started.elapsed();

    assert_eq!(error_class(&reply), "timeout", "{reply}");
    assert_eq!(reply.get("id").and_then(Json::as_str), Some("t1"), "id echoed");
    let reported = reply.get("error").unwrap().get("elapsed_ms").unwrap().as_u64().unwrap();
    assert!(reported >= deadline_ms, "elapsed_ms {reported} below the deadline");
    assert!(
        elapsed <= Duration::from_millis(2 * deadline_ms),
        "timeout took {elapsed:?}, over 2x the {deadline_ms} ms deadline"
    );

    // The worker is free again: a small request still completes.
    let ok = ask(&mut stream, &mut reader, r#"{"kind":"area","table":"2"}"#);
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));

    server.shutdown();
    let summary = server.join();
    let jobs = summary.metrics.get("jobs").unwrap();
    assert_eq!(jobs.get("timeouts").unwrap().as_u64(), Some(1));
}

#[test]
fn synth_search_deadline_returns_the_best_so_far_and_never_memoizes_it() {
    let server = start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let addr = server.local_addr();
    let (mut stream, mut reader) = connect(addr);

    // A search that outlasts the deadline in any build profile. The packed
    // oracle compiles a few canonical words whatever the word count, so it
    // converges on this universe within the deadline in a release build
    // even at 262,144 words. The request therefore selects the full-replay
    // oracle, which replays every fault over the whole stream: about 2.5 s
    // to converge here in a release build, and longer in a debug one. 256
    // words keep each replay short, so the run stops soon after the
    // deadline in either profile. The search must stop at a batch boundary
    // and surface its best-so-far candidate.
    let line = r#"{"id":"s1","kind":"synth_search","universe":"saf,tf,cfin,cfid,cfst","words":256,"budget":100000,"seed":1,"engine":"full","deadline_ms":300}"#;
    let reply = ask(&mut stream, &mut reader, line);
    assert_eq!(error_class(&reply), "timeout", "{reply}");
    assert_eq!(reply.get("id").and_then(Json::as_str), Some("s1"), "id echoed");
    let err = reply.get("error").unwrap();
    assert!(err.get("elapsed_ms").unwrap().as_u64().unwrap() >= 300);
    // The structured timeout carries the best candidate found so far — a
    // parseable march test, not a fragment.
    let partial = err.get("partial").and_then(Json::as_str).expect("partial candidate");
    let (name, notation) = partial.split_once(": ").expect("march notation");
    mbist_march::MarchTest::parse(name, notation).expect("partial parses");

    // Nothing partial was memoized: the result cache is still empty.
    let status = ask(&mut stream, &mut reader, r#"{"kind":"status"}"#);
    let cache = status.get("status").unwrap().get("cache").unwrap();
    assert_eq!(cache.get("results").unwrap().as_u64(), Some(0), "partial memoized");

    server.shutdown();
    let summary = server.join();
    let jobs = summary.metrics.get("jobs").unwrap();
    assert_eq!(jobs.get("timeouts").unwrap().as_u64(), Some(1));
    let row = summary.metrics.get("kinds").unwrap().get("synth_search").unwrap();
    assert_eq!(row.get("errors").unwrap().as_u64(), Some(1));
}

#[test]
fn always_panicking_worker_fails_the_job_with_internal_after_one_retry() {
    let config = ServiceConfig {
        workers: 1,
        chaos: ChaosConfig::parse("seed=1,panic=1.0").unwrap(),
        ..ServiceConfig::default()
    };
    let server = start(config);
    let addr = server.local_addr();
    let (mut stream, mut reader) = connect(addr);

    let reply = ask(
        &mut stream,
        &mut reader,
        r#"{"id":77,"kind":"coverage","test":"mats","words":8}"#,
    );
    assert_eq!(error_class(&reply), "internal", "{reply}");
    assert_eq!(reply.get("id").and_then(Json::as_u64), Some(77), "id echoed");
    assert!(
        reply.get("error").unwrap().get("job_id").unwrap().as_u64().is_some(),
        "internal carries the job id"
    );

    server.shutdown();
    let summary = server.join();
    assert_eq!(summary.recovered_jobs, 0, "both attempts died; nothing recovered");
    let jobs = summary.metrics.get("jobs").unwrap();
    // Exactly-once: two dispatch attempts, one terminal answer, no drops.
    assert_eq!(jobs.get("dispatched").unwrap().as_u64(), Some(2));
    assert_eq!(jobs.get("answered").unwrap().as_u64(), Some(1));
    let chaos = summary.metrics.get("chaos").unwrap();
    assert_eq!(chaos.get("injected_panics").unwrap().as_u64(), Some(2));
}

#[test]
fn single_panic_storm_recovers_via_redispatch() {
    // burst=1: exactly the first dispatch panics; the re-dispatch runs
    // clean, so the client still gets its real answer.
    let config = ServiceConfig {
        workers: 1,
        chaos: ChaosConfig::parse("seed=5,burst=1").unwrap(),
        ..ServiceConfig::default()
    };
    let server = start(config);
    let addr = server.local_addr();
    let (mut stream, mut reader) = connect(addr);

    let reply = ask(
        &mut stream,
        &mut reader,
        r#"{"id":"r","kind":"coverage","test":"mats","words":8}"#,
    );
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
    assert_eq!(reply.get("id").and_then(Json::as_str), Some("r"));

    server.shutdown();
    let summary = server.join();
    assert_eq!(summary.recovered_jobs, 1, "the panicked job was saved");
    let jobs = summary.metrics.get("jobs").unwrap();
    assert_eq!(jobs.get("dispatched").unwrap().as_u64(), Some(2));
    assert_eq!(jobs.get("answered").unwrap().as_u64(), Some(1));
}

#[test]
fn injected_drops_close_the_connection_but_not_the_server() {
    let config = ServiceConfig {
        workers: 1,
        chaos: ChaosConfig::parse("seed=2,drop=1.0").unwrap(),
        ..ServiceConfig::default()
    };
    let server = start(config);
    let addr = server.local_addr();

    for round in 0..2 {
        let (mut stream, mut reader) = connect(addr);
        stream.write_all(b"{\"kind\":\"status\"}\n").expect("send");
        let mut reply = String::new();
        let n = reader.read_line(&mut reply).expect("read");
        assert_eq!(n, 0, "round {round}: dropped request must yield EOF, got {reply:?}");
    }

    server.shutdown();
    let summary = server.join();
    let chaos = summary.metrics.get("chaos").unwrap();
    assert_eq!(chaos.get("injected_drops").unwrap().as_u64(), Some(2));
}

#[test]
fn shutdown_under_load_answers_every_accepted_request_exactly_once() {
    let server = start(ServiceConfig { workers: 2, ..ServiceConfig::default() });
    let addr = server.local_addr();

    // N clients race a shutdown. Every client must read exactly one
    // well-formed terminal reply: a result, or a structured shutdown
    // error — never silence, never a second line.
    let (sent_tx, sent_rx) = mpsc::channel();
    let clients: Vec<_> = (0..8)
        .map(|i| {
            let sent = sent_tx.clone();
            thread::spawn(move || {
                let (mut stream, mut reader) = connect(addr);
                let line = format!(
                    r#"{{"id":{i},"kind":"coverage","test":"march-c","words":{},"engine":"full"}}"#,
                    200 + i
                );
                stream.write_all(format!("{line}\n").as_bytes()).expect("send");
                sent.send(()).expect("signal");
                let mut raw = String::new();
                reader.read_line(&mut raw).expect("reply");
                let reply = Json::parse(raw.trim()).expect("reply is JSON");
                assert_eq!(reply.get("id").and_then(Json::as_u64), Some(i), "{reply}");
                match reply.get("ok").and_then(Json::as_bool) {
                    Some(true) => {}
                    Some(false) => {
                        let class =
                            reply.get("error").unwrap().get("class").unwrap().as_str();
                        assert!(
                            matches!(class, Some("shutdown" | "busy")),
                            "unexpected terminal error {reply}"
                        );
                    }
                    None => panic!("malformed reply {reply}"),
                }
                // No second reply may arrive for this request.
                let mut extra = String::new();
                match reader.read_line(&mut extra) {
                    Ok(0) => {}
                    Ok(_) => panic!("duplicate reply {extra:?}"),
                    Err(e) => assert!(
                        matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                        "{e}"
                    ),
                }
            })
        })
        .collect();

    // Only pull the trigger once every request is in flight.
    for _ in 0..8 {
        sent_rx.recv().expect("client sent");
    }
    let (mut stream, mut reader) = connect(addr);
    let bye = ask(&mut stream, &mut reader, r#"{"kind":"shutdown"}"#);
    assert_eq!(bye.get("draining").and_then(Json::as_bool), Some(true));

    for c in clients {
        c.join().expect("client thread");
    }
    let summary = server.join();
    let jobs = summary.metrics.get("jobs").unwrap();
    // The drain invariant: every dispatched job was answered (no chaos, so
    // attempts == jobs), and nothing was left queued or dropped.
    assert_eq!(
        jobs.get("dispatched").unwrap().as_u64(),
        jobs.get("answered").unwrap().as_u64(),
        "{summary:?}"
    );
}

#[test]
fn oversized_line_gets_a_structured_error_then_the_connection_closes() {
    let server = start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let addr = server.local_addr();
    let (mut stream, mut reader) = connect(addr);

    // 80 KiB without a newline: past the 64 KiB frame cap.
    let flood = vec![b'a'; 80 * 1024];
    stream.write_all(&flood).expect("send flood");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    let v = Json::parse(reply.trim()).expect("structured error");
    assert_eq!(error_class(&v), "usage");
    assert!(
        v.get("error")
            .unwrap()
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("exceeds"),
        "{v}"
    );
    let mut rest = String::new();
    match reader.read_line(&mut rest) {
        Ok(0) => {}  // clean close
        Err(_) => {} // RST: the server closed with flood bytes still unread
        Ok(_) => panic!("connection must close, got {rest:?}"),
    }

    server.shutdown();
    let _ = server.join();
}

#[test]
fn invalid_utf8_and_nul_bytes_get_usage_errors_and_the_connection_survives() {
    let server = start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let addr = server.local_addr();
    let (mut stream, mut reader) = connect(addr);

    // Invalid UTF-8 in the line: structured error, connection stays up.
    stream.write_all(b"{\"kind\":\xff\xfe\"status\"}\n").expect("send");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    let v = Json::parse(reply.trim()).expect("structured error");
    assert_eq!(error_class(&v), "usage");
    assert!(v.to_string().contains("UTF-8"), "{v}");

    // NUL bytes are valid UTF-8 but invalid JSON: still a usage error.
    stream.write_all(b"\x00\x00\x00\n").expect("send");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    let v = Json::parse(reply.trim()).expect("structured error");
    assert_eq!(error_class(&v), "usage");

    // The same connection still serves real requests.
    let ok = ask(&mut stream, &mut reader, r#"{"kind":"status"}"#);
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));

    server.shutdown();
    let _ = server.join();
}

#[test]
fn interleaved_partial_writes_reassemble_into_one_request() {
    let server = start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let addr = server.local_addr();
    let (mut stream, mut reader) = connect(addr);

    // Dribble one request across several writes with pauses longer than
    // the server's read-poll interval: the reader must reassemble.
    for chunk in [r#"{"id":"p","#, r#""kind":"#, r#""status""#, "}\n"] {
        stream.write_all(chunk.as_bytes()).expect("send chunk");
        stream.flush().expect("flush");
        thread::sleep(Duration::from_millis(60));
    }
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply");
    let v = Json::parse(reply.trim()).expect("reply is JSON");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");
    assert_eq!(v.get("id").and_then(Json::as_str), Some("p"));

    server.shutdown();
    let _ = server.join();
}

#[test]
fn premature_eof_mid_line_yields_a_structured_error() {
    let server = start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let addr = server.local_addr();
    let (mut stream, mut reader) = connect(addr);

    stream.write_all(br#"{"kind":"status""#).expect("send partial");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    let v = Json::parse(reply.trim()).expect("structured error");
    assert_eq!(error_class(&v), "usage");
    assert!(v.to_string().contains("EOF"), "{v}");

    server.shutdown();
    let _ = server.join();
}

#[test]
fn every_error_path_echoes_the_request_id() {
    // workers=1, depth=1: one job on the worker, one in the queue, the
    // third is shed with `busy` — all three carry ids.
    let server =
        start(ServiceConfig { workers: 1, queue_depth: 1, ..ServiceConfig::default() });
    let addr = server.local_addr();

    // Malformed-but-JSON line: the id must be recovered and echoed.
    let (mut stream, mut reader) = connect(addr);
    let bad = ask(&mut stream, &mut reader, r#"{"id":"m1","kind":"frob"}"#);
    assert_eq!(error_class(&bad), "usage");
    assert_eq!(bad.get("id").and_then(Json::as_str), Some("m1"), "{bad}");

    // Occupy the worker and the queue slot with slow jobs on their own
    // connections (each blocks reading its reply). Their own deadlines
    // bound the test: both resolve as timeouts in ~a second.
    let slow = r#"{"id":"s","kind":"coverage","test":"march-c","words":1024,"engine":"full","max_faults":4000,"jobs":1,"deadline_ms":1200}"#;
    let mut holders: Vec<_> = (0..2)
        .map(|_| {
            let (mut s, r) = connect(addr);
            s.write_all(format!("{slow}\n").as_bytes()).expect("send slow");
            thread::sleep(Duration::from_millis(150));
            (s, r)
        })
        .collect();

    let busy = ask(&mut stream, &mut reader, r#"{"id":"b1","kind":"area"}"#);
    assert_eq!(error_class(&busy), "busy");
    assert_eq!(busy.get("id").and_then(Json::as_str), Some("b1"), "{busy}");
    assert!(busy.get("error").unwrap().get("retry_after_ms").unwrap().as_u64().is_some());

    // Drain the holders so shutdown is quick.
    for (_, reader) in &mut holders {
        let mut line = String::new();
        let _ = reader.read_line(&mut line);
    }
    server.shutdown();
    let _ = server.join();
}

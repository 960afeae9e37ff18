//! The daemon must answer byte-for-byte what the offline CLI prints.
//!
//! The service reuses the CLI's formatting code paths, and these tests pin
//! that contract from the outside: for every queued request kind the `text`
//! payload is compared against [`mbist_cli::run`] on the equivalent
//! invocation, across worker counts, engines and cache settings.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use mbist_service::json::Json;
use mbist_service::{Server, ServiceConfig};

fn cli(args: &[&str]) -> String {
    mbist_cli::run(&args.iter().map(ToString::to_string).collect::<Vec<_>>())
        .expect("offline CLI succeeds")
}

fn ask(addr: SocketAddr, line: &str) -> Json {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    // One write per request (a lone-newline segment trips Nagle/delayed-ACK).
    stream.write_all(format!("{line}\n").as_bytes()).expect("send");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply");
    Json::parse(reply.trim()).expect("reply is JSON")
}

fn text(reply: &Json) -> &str {
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
    reply.get("text").and_then(Json::as_str).expect("text payload")
}

/// Every queued request kind, compared against the offline CLI under one
/// warm-cache server — and again under a cache-disabled one: caching must
/// never change bytes, only latency.
#[test]
fn service_responses_are_bit_identical_to_the_cli() {
    let cases: Vec<(String, Vec<&str>)> = vec![
        (
            r#"{"kind":"coverage","test":"march-c","words":64}"#.into(),
            vec!["coverage", "march-c", "--words", "64"],
        ),
        (
            r#"{"kind":"coverage","test":"mats+","words":16,"width":8,"max_faults":64,"engine":"full"}"#.into(),
            vec![
                "coverage", "mats+", "--words", "16", "--width", "8", "--max-faults",
                "64", "--engine", "full",
            ],
        ),
        (
            r#"{"kind":"coverage","test":"m(w0); u(r0,w1); d(r1,w0)","words":32}"#.into(),
            vec!["coverage", "m(w0); u(r0,w1); d(r1,w0)", "--words", "32"],
        ),
        (
            r#"{"kind":"coverage","test":"march-c","words":64,"engine":"packed"}"#.into(),
            vec!["coverage", "march-c", "--words", "64", "--engine", "packed"],
        ),
        (
            r#"{"kind":"synth","classes":"saf,tf"}"#.into(),
            vec!["synth", "--classes", "saf,tf"],
        ),
        (r#"{"kind":"area"}"#.into(), vec!["area"]),
        (r#"{"kind":"area","table":"2"}"#.into(), vec!["area", "--table", "2"]),
    ];
    for config in [
        ServiceConfig { workers: 3, ..ServiceConfig::default() },
        ServiceConfig { workers: 1, cache_bytes: 0, ..ServiceConfig::default() },
    ] {
        let server = Server::start("127.0.0.1:0", config).expect("bind");
        let addr = server.local_addr();
        for (request, cli_args) in &cases {
            // Twice: the repeat exercises the memo path on the warm server,
            // the cold compute path on the cache-disabled one.
            for round in 0..2 {
                let reply = ask(addr, request);
                assert_eq!(
                    text(&reply),
                    cli(cli_args),
                    "diverged on {request} (round {round}, cache {} bytes)",
                    config.cache_bytes
                );
            }
        }
        server.shutdown();
        let _ = server.join();
    }
}

/// `detects` must agree with the observable outcome of `run --fault`: a
/// detected fault is exactly one that makes the offline session FAIL. The
/// offline run drives a controller against a fault-injected memory array
/// and never builds a trace, so it is an oracle independent of the
/// daemon's one-fault packed plan, whose program for a fault comes from a
/// representative relocated onto the lowest words. Every spec kind sits
/// at the edge words, where stuck-open latches see element boundaries, and
/// at interior ones; March C+'s pauses drive the retention faults; and the
/// word-oriented geometry puts each fault on its top bit. Each
/// `(test, geometry)` answers its first request cold and the rest from
/// the cached trace.
#[test]
fn detects_agrees_with_offline_fault_injection() {
    let server = Server::start("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let addr = server.local_addr();
    let kinds = ["sa0", "sa1", "tf-up", "tf-down", "sof", "drf", "puf"];
    for test in ["march-c", "march-c+"] {
        for (width, bit) in [(1, 0), (8, 7)] {
            let words = 32;
            let (w, wd) = (words.to_string(), width.to_string());
            // Each configuration must see both verdicts.
            let mut seen = [false; 2];
            for kind in kinds {
                for word in [0, 1, 13, words - 1] {
                    let fault = format!("{kind}@{word}.{bit}");
                    let reply = ask(
                        addr,
                        &format!(
                            r#"{{"kind":"detects","test":"{test}","words":{words},"width":{width},"fault":"{fault}"}}"#
                        ),
                    );
                    let detected =
                        reply.get("detected").and_then(Json::as_bool).expect("verdict");
                    let offline = cli(&[
                        "run", test, "--words", &w, "--width", &wd, "--fault", &fault,
                    ]);
                    assert_eq!(
                        detected,
                        offline.contains("FAIL"),
                        "service and offline run disagree on {fault} ({test}, \
                         {words}x{width}):\n{offline}"
                    );
                    seen[usize::from(detected)] = true;
                }
            }
            assert_eq!(seen, [true, true], "{test} on {words}x{width}: both verdicts");
        }
    }
    server.shutdown();
    let _ = server.join();
}

/// The `serve` subcommand end to end: announce, serve, drain on a protocol
/// shutdown, and report the drain summary line scripts grep for.
#[test]
fn serve_subcommand_runs_and_drains() {
    // Reserve an ephemeral port, free it, and hand it to `serve` (`run`
    // prints the listening line to stdout, which a unit test cannot read).
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
    let addr = probe.local_addr().expect("probe addr");
    drop(probe);
    let serve = std::thread::spawn(move || {
        mbist_cli::run(&[
            "serve".to_string(),
            "--addr".to_string(),
            addr.to_string(),
            "--workers".to_string(),
            "2".to_string(),
        ])
    });
    // The listener may need a moment to come up on the reused port.
    let mut attempts = 0;
    let reply = loop {
        match TcpStream::connect(addr) {
            Ok(mut stream) => {
                stream.set_nodelay(true).expect("nodelay");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                stream
                    .write_all(b"{\"kind\":\"coverage\",\"test\":\"mats\",\"words\":16}\n")
                    .expect("send");
                let mut line = String::new();
                reader.read_line(&mut line).expect("reply");
                stream.write_all(b"{\"kind\":\"shutdown\"}\n").expect("send");
                let mut bye = String::new();
                reader.read_line(&mut bye).expect("shutdown reply");
                break Json::parse(line.trim()).expect("reply is JSON");
            }
            Err(e) => {
                attempts += 1;
                assert!(attempts < 100, "server never came up: {e}");
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }
    };
    assert_eq!(text(&reply), cli(&["coverage", "mats", "--words", "16"]));
    let summary = serve.join().expect("serve thread").expect("serve exits cleanly");
    assert!(summary.contains("served 2 request(s)"), "{summary}");
    assert!(summary.contains("drained 0 queued job(s)"), "{summary}");
}

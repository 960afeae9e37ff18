//! `serve_direct` and `serve_router`: the evaluation daemon behind its JSON
//! protocol, started in this process through `Server::start` (and, for the
//! router workload, two shards behind `Router::start`). Two lock-step
//! connections, one client thread each, send a fixed mix of three kinds:
//!
//! - hot `coverage` repeats, answered from the result memo on the inline
//!   fast path;
//! - warm `detects` with a distinct seeded fault each, which hit the trace
//!   cache (and are also answered inline on the reactor);
//! - a small share of cheap cold `coverage` requests cycling through a
//!   working set far larger than the cache, so each misses and evicts.
//!
//! The shares put the median inside the inline class and the per-pass tail
//! inside the cold class, so neither percentile sits on a class boundary.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use mbist_march::{detects, library};
use mbist_mem::{FaultKind, MemGeometry};
use mbist_service::json::Json;
use mbist_service::protocol::parse_request;
use mbist_service::router::{placement_key_of, HashRing};
use mbist_service::{Router, RouterConfig, Server, ServiceConfig};

use crate::report::{end_to_end, pass_quantiles, Outcome, TailWindow, Timed};
use crate::stats::{median, Rng};
use crate::tracer::{self, Span, Tracer};
use crate::{LayerMetrics, Run};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Direct,
    Router,
}

/// The daemon's trace/result cache budget (a deployment setting), per
/// daemon: it holds the hot and warm traces (about 29 MiB) with room for a
/// few hundred cold ones — under half the cold working set, so cold
/// requests miss on a lone daemon and on each of two shards alike.
const CACHE_BYTES: usize = 40 << 20;
const SHARDS: usize = 2;
/// Hot `coverage` specs `(test, words, width)`: primed in set-up.
const HOT: [(&str, u64, u8); 8] = [
    ("march-c", 1024, 1),
    ("march-c", 1024, 8),
    ("mats+", 1024, 8),
    ("march-b", 1024, 1),
    ("march-lr", 512, 8),
    ("pmovi", 2048, 1),
    ("march-a", 512, 4),
    ("march-u", 1024, 2),
];
/// Warm `detects` traces `(test, words, width)`.
const WARM: [(&str, u64, u8); 4] =
    [("march-c", 512, 1), ("march-b", 256, 8), ("march-c+", 512, 1), ("mats+", 256, 8)];
const FAULT_KINDS: [&str; 7] = ["sa0", "sa1", "tf-up", "tf-down", "sof", "drf", "puf"];
/// Per connection and pass: 70% hot, 28% warm, 2% cold.
const HOT_PER_CONN: usize = 700;
const WARM_PER_CONN: usize = 280;
const COLD_PER_CONN: usize = 20;
const PER_CONN: usize = HOT_PER_CONN + WARM_PER_CONN + COLD_PER_CONN;
/// Cold specs: the 2^10 variants of [`cold_notation`] on each of these
/// sizes. 8192 distinct traces: even half of them (one shard's share) is
/// several times what the cache can hold, so a cold request never hits.
const COLD_VARIANTS: usize = 1 << 10;
const COLD_WORDS: [u64; 8] = [16, 17, 18, 19, 20, 21, 22, 23];
const SETUPS: usize = 7;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hot,
    Warm,
    Cold,
}

enum Check {
    /// Must byte-equal `mbist_cli::run` with these arguments.
    Coverage(Vec<String>),
    /// Must equal `mbist_march::detects`.
    Detects { test: String, geometry: MemGeometry, fault: String },
}

struct Req {
    line: String,
    kind: Kind,
    check: Check,
}

#[derive(Clone, Copy)]
enum Slot {
    Fixed(usize),
    /// The n-th cold request of this connection's pass.
    Cold(usize),
}

/// The distinct requests and each connection's per-pass order.
struct Mix {
    reqs: Vec<Req>,
    slots: [Vec<Slot>; 2],
    /// Cold request indices, in the order the passes cycle through them.
    cold: Vec<usize>,
    /// A cold request outside the timed working set, for set-up.
    warm_up_cold: usize,
}

fn geometry_fields(words: u64, width: u8) -> String {
    if width == 1 {
        format!("\"words\":{words}")
    } else {
        format!("\"words\":{words},\"width\":{width}")
    }
}

fn coverage_req(test: &str, words: u64, width: u8, kind: Kind) -> Req {
    let mut args = vec![
        "coverage".to_string(),
        test.to_string(),
        "--words".to_string(),
        words.to_string(),
    ];
    if width != 1 {
        args.extend(["--width".to_string(), width.to_string()]);
    }
    Req {
        line: format!(
            "{{\"kind\":\"coverage\",\"test\":\"{test}\",{}}}\n",
            geometry_fields(words, width)
        ),
        kind,
        check: Check::Coverage(args),
    }
}

fn detects_req(test: &str, words: u64, width: u8, fault: String) -> Req {
    Req {
        line: format!(
            "{{\"kind\":\"detects\",\"test\":\"{test}\",{},\"fault\":\"{fault}\"}}\n",
            geometry_fields(words, width)
        ),
        kind: Kind::Warm,
        check: Check::Detects {
            test: test.to_string(),
            geometry: MemGeometry::word_oriented(words, width),
            fault,
        },
    }
}

/// Cold variant `v`: a March-C-like test (`⇕(w) + 7×(r,w) + (r)`,
/// sixteen operations per cell) whose bits pick the data polarity and each
/// element's address order — about equal cost, distinct traces.
fn cold_notation(v: usize) -> String {
    let order = |bit: usize| if bit == 1 { 'd' } else { 'u' };
    let (a, b) = if v & 1 == 0 { ('0', '1') } else { ('1', '0') };
    let mut elements = vec![format!("{}(w{a})", order((v >> 1) & 1))];
    for k in 0..7 {
        let (r, w) = if k % 2 == 0 { (a, b) } else { (b, a) };
        elements.push(format!("{}(r{r},w{w})", order((v >> (2 + k)) & 1)));
    }
    elements.push(format!("{}(r{b})", order((v >> 9) & 1)));
    elements.join("; ")
}

fn mix(seed: u64) -> Mix {
    let mut rng = Rng::new(seed, "serve");
    let mut reqs: Vec<Req> =
        HOT.iter().map(|&(t, w, b)| coverage_req(t, w, b, Kind::Hot)).collect();
    let mut slots: [Vec<Slot>; 2] = [Vec::new(), Vec::new()];
    for conn in &mut slots {
        let mut kinds: Vec<Kind> = [
            (Kind::Hot, HOT_PER_CONN),
            (Kind::Warm, WARM_PER_CONN),
            (Kind::Cold, COLD_PER_CONN),
        ]
        .iter()
        .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
        .collect();
        rng.shuffle(&mut kinds);
        let mut hot = rng.below(HOT.len() as u64) as usize;
        let (mut warm, mut cold) = (0, 0);
        for kind in kinds {
            conn.push(match kind {
                Kind::Hot => {
                    hot = (hot + 1) % HOT.len();
                    Slot::Fixed(hot)
                }
                Kind::Warm => {
                    let (test, words, width) = WARM[warm % WARM.len()];
                    warm += 1;
                    let fault = format!(
                        "{}@{}.{}",
                        FAULT_KINDS[rng.below(FAULT_KINDS.len() as u64) as usize],
                        rng.below(words),
                        rng.below(u64::from(width))
                    );
                    reqs.push(detects_req(test, words, width, fault));
                    Slot::Fixed(reqs.len() - 1)
                }
                Kind::Cold => {
                    cold += 1;
                    Slot::Cold(cold - 1)
                }
            });
        }
    }
    let first_cold = reqs.len();
    for v in 0..COLD_VARIANTS * COLD_WORDS.len() {
        let words = COLD_WORDS[v / COLD_VARIANTS];
        reqs.push(coverage_req(&cold_notation(v % COLD_VARIANTS), words, 1, Kind::Cold));
    }
    let mut cold: Vec<usize> = (first_cold..reqs.len()).collect();
    rng.shuffle(&mut cold);
    reqs.push(coverage_req(&cold_notation(0), COLD_WORDS[0] - 1, 1, Kind::Cold));
    Mix { warm_up_cold: reqs.len() - 1, reqs, slots, cold }
}

impl Mix {
    fn request(&self, slot: Slot, pass: usize, conn: usize) -> usize {
        match slot {
            Slot::Fixed(i) => i,
            Slot::Cold(n) => {
                self.cold[(pass * 2 * COLD_PER_CONN + conn * COLD_PER_CONN + n)
                    % self.cold.len()]
            }
        }
    }
}

/// The in-process daemon(s) a run talks to.
struct Fleet {
    shards: Vec<Server>,
    router: Option<Router>,
    addr: SocketAddr,
}

impl Fleet {
    fn start(mode: Mode) -> io::Result<Fleet> {
        let config = ServiceConfig { cache_bytes: CACHE_BYTES, ..ServiceConfig::default() };
        let count = if mode == Mode::Router { SHARDS } else { 1 };
        let shards = (0..count)
            .map(|_| Server::start("127.0.0.1:0", config))
            .collect::<io::Result<Vec<_>>>()?;
        let (router, addr) = match mode {
            Mode::Direct => (None, shards[0].local_addr()),
            Mode::Router => {
                let config = RouterConfig {
                    shards: shards.iter().map(Server::local_addr).collect(),
                    ..RouterConfig::default()
                };
                let router = Router::start("127.0.0.1:0", config)?;
                let addr = router.local_addr();
                (Some(router), addr)
            }
        };
        Ok(Fleet { shards, router, addr })
    }

    /// Stops the router (which tells its shards to drain), then the
    /// daemons, waiting for every thread they started.
    fn stop(self) {
        if let Some(router) = self.router {
            router.shutdown();
            let _ = router.join();
        }
        for shard in self.shards {
            shard.shutdown();
            let _ = shard.join();
        }
    }
}

/// One lock-step client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            reply: Vec::new(),
        })
    }

    /// Sends one request line and reads its reply line into `self.reply`.
    fn ask(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.reply.clear();
        if self.reader.read_until(b'\n', &mut self.reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(())
    }

    fn ask_json(&mut self, line: &str) -> Option<Json> {
        self.ask(line).ok()?;
        Json::parse(std::str::from_utf8(&self.reply).ok()?.trim_end()).ok()
    }
}

fn is_ok(reply: &Option<Json>) -> bool {
    reply.as_ref().and_then(|r| r.get("ok")).and_then(Json::as_bool) == Some(true)
}

/// Starts the fleet, opens both connections and primes every hot spec and
/// warm trace, plus one cold request. Returns whether every reply was ok.
fn set_up(mode: Mode, mix: &Mix) -> io::Result<(Fleet, [Conn; 2], bool)> {
    let fleet = Fleet::start(mode)?;
    let mut conns = [Conn::open(fleet.addr)?, Conn::open(fleet.addr)?];
    let mut ok = true;
    for (i, req) in mix.reqs[..HOT.len()].iter().enumerate() {
        ok &= is_ok(&conns[i % 2].ask_json(&req.line));
    }
    for (i, &(test, words, width)) in WARM.iter().enumerate() {
        ok &= is_ok(
            &conns[i % 2].ask_json(&detects_req(test, words, width, "sa0@0".into()).line),
        );
    }
    ok &= is_ok(&conns[0].ask_json(&mix.reqs[mix.warm_up_cold].line));
    Ok((fleet, conns, ok))
}

/// The replies one client thread saw. The first reply to each request is
/// copied into an arena reserved up front and later ones are compared with
/// it, so the client's bookkeeping does not grow with the daemon's speed
/// while `peak_heap_mb` is measured.
struct Replies {
    arena: Vec<u8>,
    /// Per request: where its first reply sits in the arena, and how many
    /// replies matched it.
    first: Vec<Option<(usize, usize, u64)>>,
    /// Replies that differed from the request's first one.
    others: Vec<(usize, Vec<u8>)>,
}

impl Replies {
    fn new(requests: usize, expected: usize) -> Replies {
        Replies {
            arena: Vec::with_capacity(expected * 512),
            first: vec![None; requests],
            others: Vec::new(),
        }
    }

    fn record(&mut self, request: usize, reply: &[u8]) {
        match self.first[request] {
            Some((at, len, ref mut n)) if self.arena[at..at + len] == *reply => *n += 1,
            Some(_) => self.others.push((request, reply.to_vec())),
            None => {
                self.first[request] = Some((self.arena.len(), reply.len(), 1));
                self.arena.extend_from_slice(reply);
            }
        }
    }

    /// Every distinct reply as `(request, bytes, times seen)`.
    fn variants(&self) -> impl Iterator<Item = (usize, &[u8], u64)> {
        let firsts =
            self.first.iter().enumerate().filter_map(|(i, f)| {
                f.map(|(at, len, n)| (i, &self.arena[at..at + len], n))
            });
        firsts.chain(self.others.iter().map(|(i, b)| (*i, b.as_slice(), 1)))
    }
}

/// What one client thread did.
struct Client {
    replies: Replies,
    attempted: u64,
    transport_failed: u64,
}

/// One pass as both connections saw it.
struct PassStats {
    wall: Duration,
    /// Median and tail round trip, ms.
    quantiles: (f64, f64),
    /// Per [`Kind`]: summed round trip in ms, and requests.
    by_kind: [(f64, u64); 3],
}

impl PassStats {
    fn of(wall: Duration, samples: &[(Kind, f64)]) -> PassStats {
        let ms: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let mut by_kind = [(0.0, 0); 3];
        for &(kind, rtt) in samples {
            by_kind[kind as usize].0 += rtt;
            by_kind[kind as usize].1 += 1;
        }
        PassStats { wall, quantiles: pass_quantiles(&ms), by_kind }
    }
}

/// Whole passes of the mix over both connections until `budget` has
/// elapsed; each pass ends when both connections finished their half.
fn drive(
    conns: &mut [Conn; 2],
    mix: &Mix,
    budget: Duration,
    tracers: Option<&mut [Tracer; 2]>,
) -> (Vec<PassStats>, [Client; 2]) {
    let barrier = Barrier::new(2);
    let stop = AtomicBool::new(false);
    let broken = AtomicBool::new(false);
    let merged = Mutex::new(Vec::with_capacity(2 * PER_CONN));
    let passes = Mutex::new(Vec::with_capacity(4096));
    // Hot and warm requests of one connection plus half the cold set.
    let expected_replies = HOT.len() + WARM_PER_CONN + mix.cold.len() / 2 + 1;
    let start = Instant::now();
    let mut tracers: [Option<&mut Tracer>; 2] = match tracers {
        Some([a, b]) => [Some(a), Some(b)],
        None => [None, None],
    };
    let clients = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(tracers.iter_mut())
            .enumerate()
            .map(|(c, (conn, tracer))| {
                let (barrier, stop, broken) = (&barrier, &stop, &broken);
                let (merged, passes) = (&merged, &passes);
                s.spawn(move || {
                    let mut client = Client {
                        replies: Replies::new(mix.reqs.len(), expected_replies),
                        attempted: 0,
                        transport_failed: 0,
                    };
                    let mut rtts = Vec::with_capacity(PER_CONN);
                    let mut dead = false;
                    for pass in 0.. {
                        barrier.wait();
                        if c == 0 {
                            let done = pass > 0 && start.elapsed() >= budget;
                            stop.store(
                                done || broken.load(Ordering::SeqCst),
                                Ordering::SeqCst,
                            );
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let t = Instant::now();
                        rtts.clear();
                        for &slot in &mix.slots[c] {
                            let index = mix.request(slot, pass, c);
                            let req = &mix.reqs[index];
                            client.attempted += 1;
                            if dead {
                                client.transport_failed += 1;
                                continue;
                            }
                            let t0 = Instant::now();
                            let sent = match tracer.as_deref_mut() {
                                Some(tr) => {
                                    tr.span("service.request", client.attempted, |_| {
                                        conn.ask(&req.line)
                                    })
                                }
                                None => conn.ask(&req.line),
                            };
                            match sent {
                                Ok(()) => {
                                    rtts.push((req.kind, t0.elapsed().as_secs_f64() * 1e3));
                                    client.replies.record(index, &conn.reply);
                                }
                                Err(_) => {
                                    dead = true;
                                    client.transport_failed += 1;
                                    broken.store(true, Ordering::SeqCst);
                                }
                            }
                        }
                        barrier.wait();
                        let wall = t.elapsed();
                        merged.lock().expect("samples lock").extend_from_slice(&rtts);
                        barrier.wait();
                        if c == 0 {
                            let mut samples = merged.lock().expect("samples lock");
                            let stats = PassStats::of(wall, &samples);
                            passes.lock().expect("passes lock").push(stats);
                            samples.clear();
                        }
                    }
                    client
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect::<Vec<_>>()
    });
    let [a, b]: [Client; 2] = clients.try_into().ok().expect("two clients");
    (passes.into_inner().expect("passes lock"), [a, b])
}

/// Checks every distinct reply against the CLI or `detects` (on two
/// threads); returns how many operations were wrong, refused or failed.
fn verify(mix: &Mix, clients: &[Client; 2]) -> u64 {
    let variants: Vec<(usize, &[u8], u64)> =
        clients.iter().flat_map(|c| c.replies.variants()).collect();
    let check = |(index, bytes, count): &(usize, &[u8], u64)| -> u64 {
        let req = &mix.reqs[*index];
        let (field, expected) = match &req.check {
            Check::Coverage(args) => ("text", mbist_cli::run(args).ok().map(Json::Str)),
            Check::Detects { test, geometry, fault } => (
                "detected",
                library::by_name(test)
                    .zip(FaultKind::parse_spec(fault, geometry).ok())
                    .and_then(|(t, f)| detects(&t, geometry, f).ok())
                    .map(Json::Bool),
            ),
        };
        let reply =
            std::str::from_utf8(bytes).ok().and_then(|t| Json::parse(t.trim_end()).ok());
        let good = expected.is_some()
            && is_ok(&reply)
            && reply.as_ref().and_then(|r| r.get(field)) == expected.as_ref();
        if good {
            0
        } else {
            *count
        }
    };
    let half = variants.len() / 2;
    let (a, b) = variants.split_at(half);
    let wrong: u64 = std::thread::scope(|s| {
        let other = s.spawn(|| b.iter().map(check).sum::<u64>());
        a.iter().map(check).sum::<u64>() + other.join().expect("verifier thread")
    });
    wrong + clients.iter().map(|c| c.transport_failed).sum::<u64>()
}

pub fn timed(run: &Run, mode: Mode) -> Outcome {
    let mut timed = Timed::default();
    let mut out = Outcome::default();
    let mix = mix(run.seed);
    let mut live = None;
    let mut ok = true;
    for rep in 0..SETUPS {
        let t = Instant::now();
        match set_up(mode, &mix) {
            Ok((fleet, conns, primed)) => {
                timed.setups.push(t.elapsed());
                ok &= primed;
                if rep + 1 < SETUPS {
                    drop(conns);
                    fleet.stop();
                } else {
                    live = Some((fleet, conns));
                }
            }
            Err(e) => {
                out.note(format!("set-up failed: {e}"));
                return out;
            }
        }
    }
    let (fleet, mut conns) = live.expect("last set-up kept");
    crate::alloc::reset_peak();
    let (passes, clients) = drive(&mut conns, &mix, run.budget(), None);
    timed.peak_heap_mib = crate::alloc::peak_mib();
    drop(conns);
    fleet.stop();
    timed.pass_walls = passes.iter().map(|p| p.wall).collect();
    timed.pass_quantiles = passes.iter().map(|p| p.quantiles).collect();
    timed.work_per_pass = (2 * PER_CONN) as f64;
    timed.attempted = clients.iter().map(|c| c.attempted).sum();
    timed.failed = verify(&mix, &clients);
    end_to_end(&timed, TailWindow::Pass(2 * PER_CONN), &mut out);
    out.correct = ok && timed.failed == 0;
    out.note("throughput unit: replies per second over two lock-step connections");
    out
}

/// The `status` figures the traced run reads, summed over daemons.
#[derive(Default, Clone, Copy)]
struct Status {
    /// `(count, summed µs)` per histogram.
    coverage_latency: (f64, f64),
    coverage_exec: (f64, f64),
    detects_latency: (f64, f64),
    trace_hits: f64,
    trace_misses: f64,
    result_hits: f64,
    result_misses: f64,
    bytes: f64,
    busy: f64,
    timeouts: f64,
}

impl Status {
    fn add(&mut self, reply: &Json) {
        let num = |path: &[&str]| {
            let mut v = reply.get("status");
            for key in path {
                v = v.and_then(|x| x.get(key));
            }
            v.and_then(Json::as_f64).unwrap_or(0.0)
        };
        let hist = |kind: &str, which: &str| {
            let count = num(&["kinds", kind, which, "count"]);
            (count, count * num(&["kinds", kind, which, "mean_us"]))
        };
        let plus = |a: (f64, f64), b: (f64, f64)| (a.0 + b.0, a.1 + b.1);
        self.coverage_latency = plus(self.coverage_latency, hist("coverage", "latency"));
        self.coverage_exec = plus(self.coverage_exec, hist("coverage", "exec"));
        self.detects_latency = plus(self.detects_latency, hist("detects", "latency"));
        self.trace_hits += num(&["cache", "trace_hits"]);
        self.trace_misses += num(&["cache", "trace_misses"]);
        self.result_hits += num(&["cache", "result_hits"]);
        self.result_misses += num(&["cache", "result_misses"]);
        self.bytes += num(&["cache", "bytes"]);
        self.busy += num(&["queue", "rejected_busy"]);
        self.timeouts += num(&["jobs", "timeouts"]);
    }
}

const STATUS: &str = "{\"kind\":\"status\"}\n";

/// Daemon status summed over the fleet, plus the router's forwarded and
/// shed counters. Shard status goes over short control connections.
fn snapshot(fleet: &Fleet, client: &mut Conn) -> (Status, f64, f64) {
    let mut status = Status::default();
    let mut router = (0.0, 0.0);
    if fleet.router.is_none() {
        if let Some(reply) = client.ask_json(STATUS) {
            status.add(&reply);
        }
        return (status, 0.0, 0.0);
    }
    if let Some(reply) = client.ask_json(STATUS) {
        let r = reply.get("status").and_then(|s| s.get("router"));
        let n = |k: &str| r.and_then(|r| r.get(k)).and_then(Json::as_f64).unwrap_or(0.0);
        router = (n("forwarded"), n("shed"));
    }
    for shard in &fleet.shards {
        if let Some(reply) =
            Conn::open(shard.local_addr()).ok().and_then(|mut c| c.ask_json(STATUS))
        {
            status.add(&reply);
        }
    }
    (status, router.0, router.1)
}

/// Mean µs per call of `f` over `items`, the fastest of five rounds.
fn per_call_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            for item in items {
                f(item);
            }
            t.elapsed().as_secs_f64() * 1e6 / items.len().max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Median round trip of the same requests through the router minus
/// directly to the shard owning each, in µs. Router and direct rounds
/// alternate twice, one client connection (or one per shard) at a time.
fn hop_us(fleet: &Fleet, requests: &[(&str, usize)]) -> io::Result<f64> {
    let (mut routed, mut owned) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let mut via = Conn::open(fleet.addr)?;
        via.ask(STATUS)?; // absorbs the router's accept poll
        for (line, _) in requests {
            let t = Instant::now();
            via.ask(line)?;
            routed.push(t.elapsed().as_secs_f64() * 1e6);
        }
        drop(via);
        let mut direct: Vec<Conn> = fleet
            .shards
            .iter()
            .map(|s| Conn::open(s.local_addr()))
            .collect::<io::Result<_>>()?;
        for &(line, shard) in requests {
            let t = Instant::now();
            direct[shard].ask(line)?;
            owned.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(median(&routed) - median(&owned))
}

/// The traced run; `full` as in [`crate::coverage::traced`]. The traced
/// phase runs on a freshly set-up fleet so its `status` deltas hold only
/// priming plus traced traffic.
pub fn traced(
    run: &Run,
    mode: Mode,
    full: bool,
    layers: &mut LayerMetrics,
    out: &mut Outcome,
) {
    let mix = mix(run.seed);
    let budget = if full { run.budget() / 2 } else { Duration::ZERO };
    let mut reference = Vec::new();
    if full {
        match set_up(mode, &mix) {
            Ok((fleet, mut conns, _)) => {
                let (passes, clients) = drive(&mut conns, &mix, budget, None);
                out.attempted += clients.iter().map(|c| c.attempted).sum::<u64>();
                out.failed += verify(&mix, &clients);
                reference = passes.iter().map(|p| p.wall).collect();
                drop(conns);
                fleet.stop();
            }
            Err(e) => {
                out.note(format!("set-up failed: {e}"));
                out.failed += 1;
                return;
            }
        }
    }
    let (fleet, mut conns, primed) = match set_up(mode, &mix) {
        Ok(s) => s,
        Err(e) => {
            out.note(format!("set-up failed: {e}"));
            out.failed += 1;
            return;
        }
    };
    if !primed {
        out.failed += 1;
    }
    let (s0, fwd0, shed0) = snapshot(&fleet, &mut conns[0]);
    let epoch = Instant::now();
    let mut tracers = [Tracer::new(epoch), Tracer::new(epoch)];
    let (passes, clients) = drive(&mut conns, &mix, budget, Some(&mut tracers));
    let (s1, fwd1, shed1) = snapshot(&fleet, &mut conns[0]);
    out.attempted += clients.iter().map(|c| c.attempted).sum::<u64>();
    out.failed += verify(&mix, &clients);
    let walls: Vec<Duration> = passes.iter().map(|p| p.wall).collect();

    // Mean client round trip in µs, of one kind or of all.
    let rtt_us = |kind: Option<Kind>| {
        let (ms, n) = passes
            .iter()
            .flat_map(|p| p.by_kind.iter().enumerate())
            .filter(|(k, _)| kind.is_none_or(|want| *k == want as usize))
            .fold((0.0, 0), |(ms, n), (_, &(sum, count))| (ms + sum, n + count));
        ms * 1e3 / n.max(1) as f64
    };
    let delta = |a: (f64, f64), b: (f64, f64)| (b.0 - a.0, b.1 - a.1);
    let per = |(n, sum): (f64, f64)| sum / n.max(1.0);
    let cov = delta(s0.coverage_latency, s1.coverage_latency);
    let det = delta(s0.detects_latency, s1.detects_latency);
    let server_us = per((cov.0 + det.0, cov.1 + det.1));
    let exec_cov = per(delta(s0.coverage_exec, s1.coverage_exec));
    layers.set("service.server.wire_us", rtt_us(None) - server_us, "us");
    layers.set("service.server.exec_us.coverage", exec_cov, "us");
    layers.set("service.server.exec_us.detects", per(det), "us");
    layers.set(
        "service.server.queue_wait_us",
        rtt_us(Some(Kind::Cold)) - rtt_us(Some(Kind::Hot)) - exec_cov,
        "us",
    );
    let ratio = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
    layers.set(
        "service.cache.trace_hit_ratio",
        ratio(s1.trace_hits - s0.trace_hits, s1.trace_misses - s0.trace_misses),
        "1",
    );
    layers.set(
        "service.cache.result_hit_ratio",
        ratio(s1.result_hits - s0.result_hits, s1.result_misses - s0.result_misses),
        "1",
    );
    layers.set("service.cache.kib", s1.bytes / 1024.0, "KiB");
    layers.set("service.server.busy", s1.busy - s0.busy, "count");
    layers.set("service.server.timeouts", s1.timeouts - s0.timeouts, "count");

    // Framing-free costs over one pass of the mix, measured offline.
    let pass: Vec<&Req> = (0..2)
        .flat_map(|c| mix.slots[c].iter().map(move |&s| (c, s)))
        .map(|(c, s)| &mix.reqs[mix.request(s, 0, c)])
        .collect();
    let lines: Vec<&str> = pass.iter().map(|r| r.line.trim_end()).collect();
    layers.set(
        "service.protocol.parse_us",
        per_call_us(&lines, |l| {
            std::hint::black_box(parse_request(l).is_ok());
        }),
        "us",
    );
    let replies: Vec<Json> = clients
        .iter()
        .flat_map(|c| c.replies.variants())
        .filter_map(|(_, bytes, _)| {
            Json::parse(std::str::from_utf8(bytes).ok()?.trim_end()).ok()
        })
        .collect();
    layers.set(
        "service.json.encode_us",
        per_call_us(&replies, |v| {
            std::hint::black_box(v.to_string());
        }),
        "us",
    );
    // `placement_key_of` is the router's placement without its memo, so
    // this is what a memo miss costs (every cold spec is one).
    let ring = HashRing::new(SHARDS, RouterConfig::default().vnodes);
    let parsed: Vec<_> = lines.iter().filter_map(|l| parse_request(l).ok()).collect();
    let t = Instant::now();
    let owners: Vec<usize> =
        parsed.iter().map(|e| ring.place(placement_key_of(&e.request))).collect();
    layers.set(
        "service.router.place_us",
        t.elapsed().as_secs_f64() * 1e6 / owners.len().max(1) as f64,
        "us",
    );

    let label = if mode == Mode::Router { "serve_router" } else { "serve_direct" };
    if mode == Mode::Router {
        layers.set("service.router.forwarded", fwd1 - fwd0, "count");
        layers.set("service.router.shed", shed1 - shed0, "count");
        drop(conns);
        // Hot and warm requests only: a cold one would be warm the second time.
        let inline: Vec<(&str, usize)> = pass
            .iter()
            .zip(&owners)
            .filter(|(r, _)| r.kind != Kind::Cold)
            .map(|(r, &shard)| (r.line.as_str(), shard))
            .collect();
        match hop_us(&fleet, &inline) {
            Ok(us) => layers.set("service.router.hop_us", us, "us"),
            Err(e) => {
                out.note(format!("hop probe failed: {e}"));
                out.failed += 1;
            }
        }
    } else {
        drop(conns);
    }
    fleet.stop();
    let requests_done: u64 = passes.iter().flat_map(|p| p.by_kind).map(|k| k.1).sum();
    out.note(format!(
        "{label} layers over {requests_done} requests: rtt {:.1} us, server {:.1} us, cold rtt {:.1} us",
        rtt_us(None),
        server_us,
        rtt_us(Some(Kind::Cold))
    ));
    if full {
        let spans: Vec<&[Span]> = tracers.iter().map(Tracer::spans).collect();
        let requests_ns =
            spans.iter().flat_map(|t| *t).map(|s| s.end_ns - s.start_ns).sum();
        tracer::finish(run, &walls, &reference, requests_ns, 2, &spans, layers, out);
    }
}

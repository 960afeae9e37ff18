//! The consistent-hash front end for multi-process scale-out.
//!
//! `serve --shards N` starts N independent daemon processes, each owning a
//! slice of the trace-cache key space, and one [`Router`] in front. The
//! router frames each client message (line-JSON or binary, same
//! auto-detection as the daemon), decodes it just enough to place it, and
//! forwards the *original bytes* verbatim to the owning shard — replies
//! stream back equally untouched, so sharding can never change response
//! bytes.
//!
//! # Placement
//!
//! Cacheable requests (`coverage`, `detects`) are placed on a [`HashRing`]
//! by [`mbist_march::canonical_request_key`] — the canonical trace key of
//! the expanded `(test, geometry)` pair — so every request for one
//! compiled trace lands on the shard that owns (or will own) it, and the
//! fleet's aggregate cache stores each trace exactly once. Expansion is
//! too expensive per message, so the router memoizes spec → key; repeat
//! placements are one hash-map probe. `synth`/`area` have no trace
//! identity and are placed by a cheap parameter hash, which still keeps
//! their result memos shard-affine.
//!
//! # Admission control
//!
//! The flat `busy` of a single daemon becomes two-level shedding here:
//!
//! - **per-tenant quotas** — an optional cap on one tenant's in-flight
//!   requests (`tenant` field, default tenant `""`), so one chatty client
//!   cannot monopolize the fleet;
//! - **priority shedding** — when the *target shard's* in-flight depth
//!   crosses the shed threshold, priority 0/1 requests (field `priority`,
//!   default 1) are shed with `busy` while priority 2 still passes.
//!
//! Both rejections carry a `retry_after_ms` derived from the target
//! shard's own occupancy (via the daemon's hint formula), never from the
//! router-wide aggregate — a hot shard must not inflate hints for
//! requests bound elsewhere.

use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use mbist_march::canonical_request_key;

use crate::binary;
use crate::exec::resolve_test;
use crate::json::Json;
use crate::protocol::{
    error_response_value, ok_response_value, parse_request_value, Request, ServiceError,
};
use crate::server::retry_hint_from;

/// Tuning knobs for [`Router::start`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The shard daemons to front, in ring order.
    pub shards: Vec<SocketAddr>,
    /// Max in-flight requests per tenant (`None` disables quotas).
    pub tenant_quota: Option<usize>,
    /// Per-shard in-flight depth beyond which priority 0/1 requests are
    /// shed with `busy` (priority 2 always passes).
    pub shed_depth: usize,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self { shards: Vec::new(), tenant_quota: None, shed_depth: 64, vnodes: 64 }
    }
}

/// What the router reports after a graceful shutdown.
#[derive(Debug)]
pub struct RouterSummary {
    /// Requests answered (forwarded replies and router-local answers).
    pub served: u64,
    /// Requests forwarded to a shard.
    pub forwarded: u64,
    /// Requests shed router-side (quota or priority `busy`).
    pub shed: u64,
}

/// A stable FNV-1a over the router's placement inputs.
fn fnv(parts: &[&[u8]]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in *part {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
        h = (h ^ 0xff).wrapping_mul(PRIME);
    }
    h
}

/// The splitmix64 finalizer: full-avalanche mixing for ring points, whose
/// raw FNV hashes of two small integers cluster badly.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// A consistent-hash ring: each shard contributes `vnodes` points, a key
/// maps to the first point at or clockwise of its hash. Adding or removing
/// one shard only moves the keys adjacent to its points.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted `(point, shard)` pairs.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// Builds the ring for `shards` shards with `vnodes` points each.
    #[must_use]
    pub fn new(shards: usize, vnodes: usize) -> HashRing {
        let mut points = Vec::with_capacity(shards * vnodes.max(1));
        for shard in 0..shards {
            for replica in 0..vnodes.max(1) {
                let point = mix64(fnv(&[
                    &(shard as u64).to_le_bytes(),
                    &(replica as u64).to_le_bytes(),
                ]));
                points.push((point, shard));
            }
        }
        points.sort_unstable();
        HashRing { points, shards }
    }

    /// Number of shards on the ring.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`.
    #[must_use]
    pub fn place(&self, key: u64) -> usize {
        if self.points.is_empty() {
            return 0;
        }
        let i = self.points.partition_point(|&(p, _)| p < key);
        self.points[if i == self.points.len() { 0 } else { i }].1
    }
}

/// Router-wide shared state.
struct RouterShared {
    ring: HashRing,
    shards: Vec<SocketAddr>,
    tenant_quota: Option<usize>,
    shed_depth: usize,
    shutdown: AtomicBool,
    served: AtomicU64,
    forwarded: AtomicU64,
    shed: AtomicU64,
    /// Requests currently forwarded to each shard and not yet answered —
    /// the router's view of that shard's queue occupancy.
    inflight: Vec<AtomicUsize>,
    /// In-flight requests per tenant (only tracked when quotas are on).
    tenants: Mutex<HashMap<String, usize>>,
    /// Memoized `(test, geometry)` spec hash → canonical request key.
    placements: Mutex<HashMap<u64, u64>>,
}

/// A running router; dropping it without [`Router::join`] detaches the
/// threads.
pub struct Router {
    shared: Arc<RouterShared>,
    local_addr: SocketAddr,
    acceptor: JoinHandle<()>,
}

/// Acceptor/read poll granularity (shutdown-flag check interval).
const POLL: Duration = Duration::from_millis(25);
/// Same line cap as the daemon: the router must never buffer more than a
/// shard would accept.
const MAX_LINE_BYTES: usize = 64 * 1024;
/// Slow-loris bound on a partial client message.
const PARTIAL_DEADLINE: Duration = Duration::from_secs(10);
/// How long the router waits for one shard reply before failing the
/// request (generous: a cold `synth` can run for tens of seconds).
const UPSTREAM_TIMEOUT: Duration = Duration::from_secs(120);

impl Router {
    /// Binds `addr` and starts routing to `config.shards`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, or rejects an empty shard list.
    pub fn start(addr: &str, config: RouterConfig) -> io::Result<Router> {
        if config.shards.is_empty() {
            return Err(io::Error::new(ErrorKind::InvalidInput, "no shards configured"));
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(RouterShared {
            ring: HashRing::new(config.shards.len(), config.vnodes),
            inflight: config.shards.iter().map(|_| AtomicUsize::new(0)).collect(),
            shards: config.shards,
            tenant_quota: config.tenant_quota,
            shed_depth: config.shed_depth.max(1),
            shutdown: AtomicBool::new(false),
            served: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            tenants: Mutex::new(HashMap::new()),
            placements: Mutex::new(HashMap::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("mbist-router".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn router acceptor")
        };
        Ok(Router { shared, local_addr, acceptor })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Triggers the graceful-shutdown sequence: stop accepting, finish
    /// in-flight requests, tell every shard to drain.
    pub fn shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// Blocks until the acceptor and every connection thread exit.
    #[must_use]
    pub fn join(self) -> RouterSummary {
        let _ = self.acceptor.join();
        RouterSummary {
            served: self.shared.served.load(Ordering::SeqCst),
            forwarded: self.shared.forwarded.load(Ordering::SeqCst),
            shed: self.shared.shed.load(Ordering::SeqCst),
        }
    }
}

/// Sets the shutdown flag and (once) broadcasts `shutdown` to every shard
/// on short-lived control connections.
fn begin_shutdown(shared: &RouterShared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    for &addr in &shared.shards {
        if let Ok(mut stream) = TcpStream::connect(addr) {
            let _ = stream.set_nodelay(true);
            let _ = stream.write_all(b"{\"kind\":\"shutdown\"}\n");
            let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
            let mut sink = [0u8; 512];
            let _ = stream.read(&mut sink);
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<RouterShared>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                connections.push(
                    thread::Builder::new()
                        .name("mbist-router-conn".into())
                        .spawn(move || handle_connection(stream, &shared))
                        .expect("spawn router connection"),
                );
                connections.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(POLL),
            Err(_) => thread::sleep(POLL),
        }
    }
    for h in connections {
        let _ = h.join();
    }
}

/// One framed message: its raw bytes (forwarded verbatim) plus the framing
/// it arrived in.
enum Framed {
    /// A complete message: raw bytes and whether it was binary.
    Message { raw_len: usize, is_binary: bool },
    /// A blank line (consumed, no response owed).
    Blank(usize),
    /// Not enough bytes yet.
    Incomplete,
    /// Unrecoverable framing with a structured message.
    Fatal(String),
}

/// Frames the next client message at the start of `buf` without copying.
fn frame_message(buf: &[u8]) -> Framed {
    if buf.is_empty() {
        return Framed::Incomplete;
    }
    if buf[0] == binary::MAGIC {
        return match binary::decode_frame(buf) {
            Ok(Some((_, used))) => Framed::Message { raw_len: used, is_binary: true },
            Ok(None) => Framed::Incomplete,
            Err(m) => Framed::Fatal(format!("invalid binary frame: {m}")),
        };
    }
    match buf.iter().position(|&b| b == b'\n') {
        Some(i) => {
            if buf[..i].iter().all(|b| b.is_ascii_whitespace()) {
                Framed::Blank(i + 1)
            } else {
                Framed::Message { raw_len: i + 1, is_binary: false }
            }
        }
        None if buf.len() > MAX_LINE_BYTES => {
            Framed::Fatal(format!("request line exceeds {MAX_LINE_BYTES} bytes"))
        }
        None => Framed::Incomplete,
    }
}

/// A lazily-connected upstream socket per shard, with its reply buffer.
struct Upstream {
    stream: TcpStream,
    rbuf: Vec<u8>,
}

fn connect_upstream(addr: SocketAddr) -> io::Result<Upstream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(UPSTREAM_TIMEOUT))?;
    stream.set_write_timeout(Some(UPSTREAM_TIMEOUT))?;
    Ok(Upstream { stream, rbuf: Vec::new() })
}

/// Forwards `raw` to the shard and reads exactly one reply message (same
/// framing rules as the client side), returning its raw bytes.
fn exchange(upstream: &mut Upstream, raw: &[u8]) -> io::Result<Vec<u8>> {
    upstream.stream.write_all(raw)?;
    loop {
        match frame_message(&upstream.rbuf) {
            Framed::Message { raw_len, .. } => {
                let reply: Vec<u8> = upstream.rbuf.drain(..raw_len).collect();
                return Ok(reply);
            }
            Framed::Blank(used) => {
                upstream.rbuf.drain(..used);
            }
            Framed::Fatal(m) => {
                return Err(io::Error::new(ErrorKind::InvalidData, m));
            }
            Framed::Incomplete => {
                let start = upstream.rbuf.len();
                upstream.rbuf.resize(start + 16 * 1024, 0);
                let n = match upstream.stream.read(&mut upstream.rbuf[start..]) {
                    Ok(n) => n,
                    Err(e) => {
                        upstream.rbuf.truncate(start);
                        if e.kind() == ErrorKind::Interrupted {
                            continue;
                        }
                        return Err(e);
                    }
                };
                upstream.rbuf.truncate(start + n);
                if n == 0 {
                    return Err(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "shard closed mid-reply",
                    ));
                }
            }
        }
    }
}

/// Decrements a tenant's in-flight count on drop.
struct TenantSlot<'a> {
    shared: &'a RouterShared,
    tenant: Option<String>,
}

impl Drop for TenantSlot<'_> {
    fn drop(&mut self) {
        if let Some(tenant) = self.tenant.take() {
            let mut tenants = self.shared.tenants.lock().expect("tenants lock");
            if let Some(n) = tenants.get_mut(&tenant) {
                *n -= 1;
                if *n == 0 {
                    tenants.remove(&tenant);
                }
            }
        }
    }
}

/// Tries to claim a quota slot for `tenant`; `None` means over quota.
fn claim_tenant<'a>(shared: &'a RouterShared, tenant: &str) -> Option<TenantSlot<'a>> {
    let Some(quota) = shared.tenant_quota else {
        return Some(TenantSlot { shared, tenant: None });
    };
    let mut tenants = shared.tenants.lock().expect("tenants lock");
    let n = tenants.entry(tenant.to_string()).or_insert(0);
    if *n >= quota {
        return None;
    }
    *n += 1;
    Some(TenantSlot { shared, tenant: Some(tenant.to_string()) })
}

/// The stateless placement key for a parsed request: the canonical trace
/// identity when it has one, a stable parameter hash otherwise. This is
/// the router's placement function without its memo — public so
/// placement-aware clients (the load generator's sharded benchmark, smart
/// SDK clients) can compute shard affinity with exactly the router's
/// logic.
#[must_use]
pub fn placement_key_of(request: &Request) -> u64 {
    match request {
        Request::Coverage { test, geometry, .. }
        | Request::Detects { test, geometry, .. } => {
            // An unresolvable test still needs a deterministic home (the
            // shard will answer the usage error): fall back to the spec
            // hash itself.
            resolve_test(test).map_or_else(
                |_| spec_hash(test, geometry),
                |t| canonical_request_key(&t, geometry),
            )
        }
        Request::Synth { classes, max_elements, .. } => {
            fnv(&[b"synth", classes.as_bytes(), &(*max_elements as u64).to_le_bytes()])
        }
        Request::SynthSearch {
            universe,
            geometry,
            target_coverage,
            budget,
            seed,
            strategy,
            max_elements,
            ..
        } => fnv(&[
            b"synth_search",
            universe.as_bytes(),
            &geometry.words().to_le_bytes(),
            &u64::from(geometry.width()).to_le_bytes(),
            &u64::from(geometry.ports()).to_le_bytes(),
            &target_coverage.to_bits().to_le_bytes(),
            &(*budget as u64).to_le_bytes(),
            &seed.to_le_bytes(),
            strategy.label().as_bytes(),
            &(*max_elements as u64).to_le_bytes(),
        ]),
        Request::Area { table } => {
            fnv(&[b"area", table.as_deref().unwrap_or("all").as_bytes()])
        }
        Request::Status | Request::Shutdown => 0,
    }
}

/// A cheap hash over the un-expanded `(test, geometry)` spec — the memo
/// key, and the placement fallback for unresolvable tests.
fn spec_hash(test: &str, geometry: &mbist_mem::MemGeometry) -> u64 {
    fnv(&[
        test.as_bytes(),
        &geometry.words().to_le_bytes(),
        &u64::from(geometry.width()).to_le_bytes(),
        &u64::from(geometry.ports()).to_le_bytes(),
    ])
}

/// [`placement_key_of`] behind the router's spec → key memo: march
/// expansion is too expensive per message.
fn placement_key(shared: &RouterShared, request: &Request) -> u64 {
    match request {
        Request::Coverage { test, geometry, .. }
        | Request::Detects { test, geometry, .. } => {
            let spec = spec_hash(test, geometry);
            if let Some(&key) = shared.placements.lock().expect("placements").get(&spec) {
                return key;
            }
            let key = placement_key_of(request);
            shared.placements.lock().expect("placements").insert(spec, key);
            key
        }
        other => placement_key_of(other),
    }
}

/// Serializes a router-local reply in the client's framing.
fn local_reply(is_binary: bool, value: &Json) -> Vec<u8> {
    if is_binary {
        binary::encode_frame(value)
    } else {
        let mut text = value.to_string();
        text.push('\n');
        text.into_bytes()
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<RouterShared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let mut client = stream;
    let mut rbuf: Vec<u8> = Vec::new();
    let mut upstreams: Vec<Option<Upstream>> = shared.shards.iter().map(|_| None).collect();
    let mut partial_since: Option<Instant> = None;
    loop {
        // Frame everything already buffered before reading more.
        match frame_message(&rbuf) {
            Framed::Blank(used) => {
                rbuf.drain(..used);
                continue;
            }
            Framed::Message { raw_len, is_binary } => {
                partial_since = None;
                let raw: Vec<u8> = rbuf.drain(..raw_len).collect();
                let keep_going =
                    route_one(&mut client, shared, &mut upstreams, &raw, is_binary);
                if !keep_going {
                    return;
                }
                continue;
            }
            Framed::Fatal(message) => {
                let value = error_response_value(None, &ServiceError::Usage(message));
                let _ = client.write_all(&local_reply(false, &value));
                return;
            }
            Framed::Incomplete => {}
        }
        if rbuf.is_empty() {
            partial_since = None;
        } else if partial_since.get_or_insert_with(Instant::now).elapsed()
            >= PARTIAL_DEADLINE
        {
            let value = error_response_value(
                None,
                &ServiceError::Usage("request line stalled; closing".into()),
            );
            let _ = client.write_all(&local_reply(false, &value));
            return;
        }
        let start = rbuf.len();
        rbuf.resize(start + 16 * 1024, 0);
        match client.read(&mut rbuf[start..]) {
            Ok(0) => {
                rbuf.truncate(start);
                if !rbuf.is_empty() {
                    let value = error_response_value(
                        None,
                        &ServiceError::Usage(
                            "connection closed mid-request (premature EOF)".into(),
                        ),
                    );
                    let _ = client.write_all(&local_reply(false, &value));
                }
                return;
            }
            Ok(n) => rbuf.truncate(start + n),
            Err(e)
                if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
            {
                rbuf.truncate(start);
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => rbuf.truncate(start),
            Err(_) => {
                rbuf.truncate(start);
                return;
            }
        }
    }
}

/// Routes one framed client message. Returns `false` when the connection
/// must close.
fn route_one(
    client: &mut TcpStream,
    shared: &Arc<RouterShared>,
    upstreams: &mut [Option<Upstream>],
    raw: &[u8],
    is_binary: bool,
) -> bool {
    let reply = |client: &mut TcpStream, shared: &RouterShared, value: &Json| -> bool {
        shared.served.fetch_add(1, Ordering::Relaxed);
        client.write_all(&local_reply(is_binary, value)).is_ok()
    };

    // Decode just enough to place and admit; the raw bytes are what gets
    // forwarded.
    let value = if is_binary {
        match binary::decode_frame(raw) {
            Ok(Some((value, _))) => value,
            _ => return false, // frame_message already validated this
        }
    } else {
        let Ok(text) = std::str::from_utf8(raw) else {
            let v = error_response_value(
                None,
                &ServiceError::Usage("request line is not valid UTF-8".into()),
            );
            return reply(client, shared, &v);
        };
        match Json::parse(text.trim()) {
            Ok(value) => value,
            Err(e) => {
                let id = crate::protocol::recover_id(text.trim());
                let v = error_response_value(
                    id.as_ref(),
                    &ServiceError::Usage(format!("invalid JSON: {e}")),
                );
                return reply(client, shared, &v);
            }
        }
    };
    let envelope = match parse_request_value(&value) {
        Ok(envelope) => envelope,
        Err(e) => {
            let v = error_response_value(value.get("id"), &e);
            return reply(client, shared, &v);
        }
    };
    let id = envelope.id.clone();

    match &envelope.request {
        Request::Status => {
            let shards: Vec<Json> = shared
                .inflight
                .iter()
                .enumerate()
                .map(|(i, inflight)| {
                    Json::obj(vec![
                        ("shard", Json::num(i as f64)),
                        ("addr", Json::str(shared.shards[i].to_string())),
                        ("inflight", Json::num(inflight.load(Ordering::Relaxed) as f64)),
                    ])
                })
                .collect();
            let status = Json::obj(vec![(
                "router",
                Json::obj(vec![
                    ("shards", Json::Arr(shards)),
                    (
                        "forwarded",
                        Json::num(shared.forwarded.load(Ordering::Relaxed) as f64),
                    ),
                    ("shed", Json::num(shared.shed.load(Ordering::Relaxed) as f64)),
                ]),
            )]);
            let v = ok_response_value(id.as_ref(), "status", vec![("status", status)]);
            reply(client, shared, &v)
        }
        Request::Shutdown => {
            begin_shutdown(shared);
            let v = ok_response_value(
                id.as_ref(),
                "shutdown",
                vec![("draining", Json::Bool(true)), ("queued", Json::num(0.0))],
            );
            reply(client, shared, &v);
            false
        }
        request => {
            if shared.shutdown.load(Ordering::SeqCst) {
                let v = error_response_value(id.as_ref(), &ServiceError::ShuttingDown);
                return reply(client, shared, &v);
            }
            let shard = shared.ring.place(placement_key(shared, request));
            let backlog = shared.inflight[shard].load(Ordering::Relaxed);

            // Priority shedding: the *target shard's* depth decides, and
            // the hint is computed from that same depth (satellite: never
            // the router-wide aggregate).
            let priority = value.get("priority").and_then(Json::as_u64).unwrap_or(1);
            if backlog >= shared.shed_depth && priority < 2 {
                shared.shed.fetch_add(1, Ordering::Relaxed);
                let v = error_response_value(
                    id.as_ref(),
                    &ServiceError::Busy { retry_after_ms: retry_hint_from(0, backlog, 1) },
                );
                return reply(client, shared, &v);
            }
            let tenant = value.get("tenant").and_then(Json::as_str).unwrap_or("");
            let Some(_slot) = claim_tenant(shared, tenant) else {
                shared.shed.fetch_add(1, Ordering::Relaxed);
                let v = error_response_value(
                    id.as_ref(),
                    &ServiceError::Busy { retry_after_ms: retry_hint_from(0, backlog, 1) },
                );
                return reply(client, shared, &v);
            };

            if upstreams[shard].is_none() {
                match connect_upstream(shared.shards[shard]) {
                    Ok(up) => upstreams[shard] = Some(up),
                    Err(e) => {
                        let v = error_response_value(
                            id.as_ref(),
                            &ServiceError::Failed(format!(
                                "shard {shard} unreachable: {e}"
                            )),
                        );
                        return reply(client, shared, &v);
                    }
                }
            }
            shared.inflight[shard].fetch_add(1, Ordering::Relaxed);
            shared.forwarded.fetch_add(1, Ordering::Relaxed);
            let outcome = exchange(upstreams[shard].as_mut().expect("connected"), raw);
            shared.inflight[shard].fetch_sub(1, Ordering::Relaxed);
            match outcome {
                Ok(bytes) => {
                    shared.served.fetch_add(1, Ordering::Relaxed);
                    client.write_all(&bytes).is_ok()
                }
                Err(e) => {
                    // The upstream is desynced; drop it and reconnect on
                    // the next request to this shard.
                    upstreams[shard] = None;
                    let v = error_response_value(
                        id.as_ref(),
                        &ServiceError::Failed(format!("shard {shard} failed: {e}")),
                    );
                    reply(client, shared, &v)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_placement_is_deterministic_and_in_range() {
        let ring = HashRing::new(4, 64);
        for key in (0..10_000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
            let shard = ring.place(key);
            assert!(shard < 4);
            assert_eq!(shard, ring.place(key), "placement must be stable");
        }
    }

    #[test]
    fn ring_spreads_keys_roughly_evenly() {
        let ring = HashRing::new(4, 64);
        let mut counts = [0usize; 4];
        for i in 0..40_000u64 {
            counts[ring.place(fnv(&[&i.to_le_bytes()]))] += 1;
        }
        for (shard, &n) in counts.iter().enumerate() {
            assert!(
                (4_000..=22_000).contains(&n),
                "shard {shard} owns {n} of 40000 keys — ring badly unbalanced: {counts:?}"
            );
        }
    }

    #[test]
    fn removing_a_shard_only_moves_its_own_keys() {
        let four = HashRing::new(4, 64);
        let three = HashRing::new(3, 64);
        let mut moved_from_survivor = 0;
        let total = 20_000u64;
        for i in 0..total {
            let key = fnv(&[&i.to_le_bytes()]);
            let before = four.place(key);
            let after = three.place(key);
            if before < 3 && before != after {
                moved_from_survivor += 1;
            }
        }
        // Consistent hashing: keys on surviving shards overwhelmingly stay
        // put; only shard 3's keys redistribute.
        assert!(
            moved_from_survivor < (total as usize) / 10,
            "{moved_from_survivor} keys moved between surviving shards"
        );
    }

    #[test]
    fn frame_message_matches_daemon_framing() {
        assert!(matches!(frame_message(b""), Framed::Incomplete));
        assert!(matches!(frame_message(b"  \n"), Framed::Blank(3)));
        assert!(matches!(
            frame_message(b"{\"kind\":\"status\"}\n tail"),
            Framed::Message { raw_len: 18, is_binary: false }
        ));
        let frame = binary::encode_frame(&Json::obj(vec![("kind", Json::str("status"))]));
        match frame_message(&frame) {
            Framed::Message { raw_len, is_binary } => {
                assert_eq!(raw_len, frame.len());
                assert!(is_binary);
            }
            _ => panic!("binary frame not recognized"),
        }
        assert!(matches!(frame_message(&frame[..4]), Framed::Incomplete));
        let big = vec![b'x'; MAX_LINE_BYTES + 1];
        assert!(matches!(frame_message(&big), Framed::Fatal(_)));
    }

    #[test]
    fn placement_keys_separate_geometries_and_collapse_aliases() {
        let shared = RouterShared {
            ring: HashRing::new(2, 16),
            shards: vec!["127.0.0.1:1".parse().unwrap(), "127.0.0.1:2".parse().unwrap()],
            tenant_quota: None,
            shed_depth: 64,
            shutdown: AtomicBool::new(false),
            served: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            inflight: vec![AtomicUsize::new(0), AtomicUsize::new(0)],
            tenants: Mutex::new(HashMap::new()),
            placements: Mutex::new(HashMap::new()),
        };
        let geometry = mbist_mem::MemGeometry::bit_oriented(64);
        let other = mbist_mem::MemGeometry::bit_oriented(65);
        let cov = |test: &str, geometry| Request::Coverage {
            test: test.into(),
            geometry,
            max_faults: Some(256),
            jobs: Some(1),
            engine: mbist_march::SimEngine::Packed,
        };
        let k1 = placement_key(&shared, &cov("march-c", geometry));
        let k2 = placement_key(&shared, &cov("march-c", geometry));
        assert_eq!(k1, k2, "memoized placement must be stable");
        assert_ne!(
            k1,
            placement_key(&shared, &cov("march-c", other)),
            "distinct geometries must not share a placement key"
        );
        // A detects request for the same (test, geometry) shares the
        // coverage placement: same trace, same shard, one compilation
        // fleet-wide.
        let det =
            Request::Detects { test: "march-c".into(), geometry, fault: "sa0@3".into() };
        assert_eq!(k1, placement_key(&shared, &det));
    }

    #[test]
    fn tenant_quota_claims_and_releases() {
        let shared = RouterShared {
            ring: HashRing::new(1, 8),
            shards: vec!["127.0.0.1:1".parse().unwrap()],
            tenant_quota: Some(2),
            shed_depth: 64,
            shutdown: AtomicBool::new(false),
            served: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            inflight: vec![AtomicUsize::new(0)],
            tenants: Mutex::new(HashMap::new()),
            placements: Mutex::new(HashMap::new()),
        };
        let a = claim_tenant(&shared, "acme").expect("first slot");
        let _b = claim_tenant(&shared, "acme").expect("second slot");
        assert!(claim_tenant(&shared, "acme").is_none(), "third must be over quota");
        assert!(claim_tenant(&shared, "other").is_some(), "quotas are per tenant");
        drop(a);
        assert!(claim_tenant(&shared, "acme").is_some(), "release frees the slot");
    }
}

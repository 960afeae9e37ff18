//! Compiled traces: one compiler for every stream the fault engines replay.
//!
//! A [`CompiledTrace`] is a test stream replayed once, fault-free, and
//! filed per word: each access with its step index, port, pause-adjusted
//! timestamp, golden read value and the port's previous read. The packed
//! engine ([`crate::packed`]) reads the per-word op lists, the golden
//! miscompares and two certificates — `monoclass` and
//! `uniform_interleave` — that route a fault to a shared access program in
//! O(1); the per-fault path ([`crate::sliced`]) replays the op lists of a
//! fault's support words; full replay ([`CompiledTrace::detect_full`]),
//! the oracle, replays the step stream on a fault-injected memory array.
//!
//! One element-wise core compiles every march test: it walks the items
//! once per pass (port × data background, in expansion order) against the
//! fault-free word value, which a march keeps equal at every address.
//! [`CompiledTrace::compile`] runs it once into exactly presized buffers;
//! [`TraceArena::compile`] checkpoints the first pass's item boundaries,
//! so a candidate sharing an item prefix replays only its tail; and
//! [`TraceArena::compile_support`] records only a [`UniversePlan`]'s
//! support words and no step stream, as a [`SupportTrace`] only the plan
//! accepts — and jumps each run of unrecorded words in O(1), so its cost
//! follows the support, not the word count. Hand-made streams enter
//! through [`CompiledTrace::from_steps`],
//! which validates each step, feeds the same per-access recorder and
//! parses the stream for the certificates. On expanded marches `compile` ≡
//! `from_steps(expand_with(..))` field for field, and both match a
//! fault-free memory-array replay — the reference the compiler is
//! tested against.

use mbist_mem::{
    BusCycle, FaultKind, MemGeometry, MemoryArray, Operation, PortId, TestStep,
    DEFAULT_CYCLE_NS,
};

use mbist_rtl::Bits;

use crate::element::{MarchElement, MarchItem};
use crate::expand::{cycle_count, expand_with, passes, step_count, ExpandOptions};
use crate::packed::{PlanScratch, SupportTrace, UniversePlan};
use crate::runner::run_steps_detect;
use crate::sliced;
use crate::test::MarchTest;

/// Which fault-simulation engine a detection loop uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimEngine {
    /// Full replay: one (scratch) array per fault, whole stream, early exit
    /// at the first miscompare — the oracle every other path is verified
    /// against.
    Full,
    /// Lane-packed bit-parallel replay: up to 256 congruent address-local
    /// faults are batched into the bit lanes of `[u64; 4]` state vectors and
    /// the trace is replayed **once per batch** with branch-free lane
    /// updates (see [`crate::packed`]). Every address-local class is
    /// vectorized — including stuck-open sense latches, retention decay
    /// (precomputed deadlines) and fixed-shape NPSF — and congruent faults
    /// are batched across data backgrounds and ports; only decoder faults
    /// take the per-fault path (the two-word decoder replay). Bit-for-bit
    /// equivalent to [`SimEngine::Full`].
    #[default]
    Packed,
}

impl SimEngine {
    /// Every engine, in declaration order (so `engine as usize` indexes
    /// it) — the wire order of the service's per-engine counters.
    pub const ALL: [SimEngine; 2] = [SimEngine::Full, SimEngine::Packed];

    /// Parses a CLI/service engine name (`full` or `packed`) — the exact
    /// inverse of [`SimEngine::name`].
    #[must_use]
    pub fn parse_name(name: &str) -> Option<SimEngine> {
        SimEngine::ALL.into_iter().find(|engine| engine.name() == name)
    }

    /// The lowercase CLI/service name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SimEngine::Full => "full",
            SimEngine::Packed => "packed",
        }
    }
}

impl std::fmt::Display for SimEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Stable canonical hash of a `(test name, expanded step stream, geometry)`
/// triple — the cache identity of a [`CompiledTrace`].
///
/// The hash is FNV-1a over a canonical byte serialization, so it is stable
/// across processes and runs (unlike [`std::hash::RandomState`]): two
/// invocations that expand to the same stream on the same geometry always
/// collide onto the same key, however their flags were spelled or ordered,
/// while any difference in geometry, name or stream content feeds different
/// bytes.
///
/// # Examples
///
/// ```
/// use mbist_march::{canonical_trace_key, expand, library};
/// use mbist_mem::MemGeometry;
///
/// let g = MemGeometry::word_oriented(64, 8);
/// let steps = expand(&library::march_c(), &g);
/// let k1 = canonical_trace_key("march-c", &g, &steps);
/// let k2 = canonical_trace_key("march-c", &g, &steps);
/// assert_eq!(k1, k2);
/// ```
#[must_use]
pub fn canonical_trace_key(
    test_name: &str,
    geometry: &MemGeometry,
    steps: &[TestStep],
) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(test_name.as_bytes());
    h.byte(0xff); // unambiguous name terminator (0xff never appears in UTF-8)
    h.u64(geometry.words());
    h.byte(geometry.width());
    h.byte(geometry.ports());
    for step in steps {
        match step {
            TestStep::Pause { ns } => {
                h.byte(0x01);
                h.u64(ns.to_bits());
            }
            TestStep::Bus(cycle) => {
                h.byte(0x02);
                h.byte(cycle.port.0);
                h.u64(cycle.addr);
                match cycle.op {
                    Operation::Write(data) => {
                        h.byte(0x03);
                        h.byte(data.width());
                        h.u64(data.value());
                    }
                    Operation::Read => h.byte(0x04),
                }
                match cycle.expected {
                    None => h.byte(0x05),
                    Some(e) => {
                        h.byte(0x06);
                        h.byte(e.width());
                        h.u64(e.value());
                    }
                }
            }
        }
    }
    h.finish()
}

/// [`canonical_trace_key`] for a `(test, geometry)` pair in one call: the
/// test is expanded with the geometry's default [`ExpandOptions`] and the
/// resulting stream is hashed. This is the routing identity a sharded
/// service front end uses to place a request on the shard that owns (or
/// will own) the compiled trace, without compiling the trace itself.
#[must_use]
pub fn canonical_request_key(test: &MarchTest, geometry: &MemGeometry) -> u64 {
    let steps = expand_with(test, geometry, &ExpandOptions::for_geometry(geometry));
    canonical_trace_key(test.name(), geometry, &steps)
}

/// 64-bit FNV-1a over a caller-framed byte stream.
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Self(Self::OFFSET)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`Fnv1a`] behind the std `Hasher`/`BuildHasher` traits, for the packed
/// engine's hot routing maps where SipHash's per-lookup cost would eat the
/// batching win. Hash quality only affects speed, never results —
/// congruence always comes from full key equality.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FnvBuild;

#[derive(Debug)]
pub(crate) struct FnvHasher(u64);

impl std::hash::BuildHasher for FnvBuild {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher(Fnv1a::OFFSET)
    }
}

impl FnvHasher {
    fn mix(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(Fnv1a::PRIME);
    }
}

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    // Whole-value mixing: one multiply per integer write instead of one
    // per byte (the keys these maps see are a handful of small integers).
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

/// Whether two op lists carry the identical content projection — the
/// `(port, kind, data, expected, golden)` sequence the packed engine builds
/// its access programs from (the port because stuck-open sense latches are
/// per port). Timestamps and sense history are deliberately not part of
/// it.
fn projection_eq(a: &[TraceOp], b: &[TraceOp]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.port == y.port
                && match (x.kind, y.kind) {
                    (TraceOpKind::Write(da), TraceOpKind::Write(db)) => da == db,
                    (
                        TraceOpKind::Read { expected: ea, golden: ga, .. },
                        TraceOpKind::Read { expected: eb, golden: gb, .. },
                    ) => ea == eb && ga == gb,
                    _ => false,
                }
        })
}

/// Checks the address-uniform-march shape (see the
/// [`CompiledTrace::uniform_interleave`] field doc): the op stream parses
/// into segments that each visit every word exactly once in strictly
/// monotone address order with one uniform op count. A visit shared
/// between a segment's last word and the next segment's first word (a ⇑
/// element followed by a ⇓ element both touching the top address) is
/// split by op count, which the parse threads through as `carry`.
///
/// Returns `false` for any stream that doesn't parse — the packed engine
/// then builds inter-word programs per pair instead of routing by address
/// order, which is always exact, just slower. Geometries under three
/// words also decline: they hold at most one inter-word pair, so per-pair
/// memoization already covers them (and the two-word parse would need
/// lookahead to split shared boundary visits).
fn certify_uniform_interleave(words: u64, steps: &[TestStep]) -> bool {
    let n = usize::try_from(words).expect("words fit usize");
    if n < 3 {
        return false;
    }
    // Collapse the op stream to word visits: consecutive ops on one
    // address (pauses don't access, so they split nothing).
    let mut visits: Vec<(u64, u32)> = Vec::new();
    for step in steps {
        if let TestStep::Bus(cycle) = step {
            match visits.last_mut() {
                Some((addr, count)) if *addr == cycle.addr => *count += 1,
                _ => visits.push((cycle.addr, 1)),
            }
        }
    }
    let mut i = 0;
    let mut carry = 0u32;
    while i < visits.len() {
        if i + n > visits.len() {
            return false;
        }
        // The second visit is interior to the segment (n ≥ 3), so its
        // count is the segment's uniform op count.
        let k = visits[i + 1].1;
        if k == 0 || visits[i].1 - carry != k {
            return false;
        }
        let ascending = visits[i].0 < visits[i + 1].0;
        let start = if ascending { 0 } else { words - 1 };
        for (j, &(addr, count)) in visits[i..i + n].iter().enumerate() {
            let j = u64::try_from(j).expect("segment index fits u64");
            let expect = if ascending { start + j } else { start - j };
            if addr != expect {
                return false;
            }
            // Interior visits must carry exactly k ops; the boundary
            // visits are checked against `carry` outside this loop.
            if j != 0 && j != words - 1 && count != k {
                return false;
            }
        }
        let last = visits[i + n - 1].1;
        if last == k {
            carry = 0;
            i += n;
        } else if last > k {
            // The tail of this visit opens the next segment at the same
            // address.
            carry = k;
            i += n - 1;
        } else {
            return false;
        }
    }
    carry == 0
}

/// 2^53: below it every integer is an `f64`, and sums and differences of
/// such integers are exact.
const EXACT_NS: f64 = 9_007_199_254_740_992.0;

/// Whether `ns` is an integer below [`EXACT_NS`] (the round trip through
/// `i64` is two instructions; `f64::fract` may be a libm call).
fn exact_ns(ns: f64) -> bool {
    ns < EXACT_NS && ns == (ns as i64) as f64
}

/// Checks the timing certificate (see the [`CompiledTrace`] field
/// `affine_time`) directly: every op list has one length, every access
/// time is an integer below [`EXACT_NS`], and op by op each word's time is
/// the previous word's plus one fixed step — an affine function of the
/// word address. Integers below 2^53 subtract exactly, so it runs in `f64`.
fn certify_affine_time(per_word: &[Vec<TraceOp>]) -> bool {
    let Some(first) = per_word.first() else { return true };
    if !first.iter().all(|op| exact_ns(op.now_ns)) {
        return false;
    }
    let Some(second) = per_word.get(1) else { return true };
    per_word.windows(2).all(|pair| {
        let (prev, ops) = (&pair[0], &pair[1]);
        ops.len() == first.len()
            && ops.iter().zip(prev).zip(first.iter().zip(second)).all(|((t, p), (a, b))| {
                exact_ns(t.now_ns) && t.now_ns - p.now_ns == b.now_ns - a.now_ns
            })
    })
}

/// Rejects a pause the memory array model rejects: negative or NaN.
fn check_pause(ns: f64) {
    assert!(ns.is_finite() && ns >= 0.0, "pause must be non-negative");
}

/// Rejects a bus cycle the memory array model on `geometry` rejects, or
/// whose expectation could never compare.
fn check_cycle(geometry: &MemGeometry, cycle: &BusCycle) {
    let (port, addr, width) = (cycle.port, cycle.addr, geometry.width());
    assert!(port.0 < geometry.ports(), "port {port} out of range");
    assert!(geometry.contains_addr(addr), "address {addr:#x} out of range");
    if let Operation::Write(data) = cycle.op {
        assert_eq!(data.width(), width, "write data width mismatch");
    }
    let expected = cycle.expected.map_or(width, |e| e.width());
    assert_eq!(expected, width, "checked-read expectation width mismatch");
}

/// Item equality for prefix reuse: bitwise on pause lengths, so a reused
/// prefix reproduces its step stream exactly (`-0.0 == 0.0`, but the two
/// are different pauses in the stream).
fn same_item(a: &MarchItem, b: &MarchItem) -> bool {
    match (a, b) {
        (MarchItem::Pause { ns: x }, MarchItem::Pause { ns: y }) => {
            x.to_bits() == y.to_bits()
        }
        _ => a == b,
    }
}

/// The golden value the port's sense amplifier held before a read — the
/// previous read on the same port, at any address.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct PrevRead {
    /// Step index of that previous read.
    pub(crate) step: u32,
    /// Its golden (fault-free) observed value.
    pub(crate) golden: u64,
}

#[derive(Debug, Clone, Copy)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) enum TraceOpKind {
    Write(u64),
    Read {
        /// Expected value of a checked read (`None` = unchecked).
        expected: Option<u64>,
        /// The golden (fault-free) observed value — what the packed engine
        /// diffs lane states against on checked reads.
        golden: u64,
        /// The previous read on the same port (`None` = sense latch still
        /// invalid), resolving stuck-open observations.
        prev_read: Option<PrevRead>,
    },
}

/// One bus access to a given word, with everything a sparse replay needs.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct TraceOp {
    /// Index into the step stream (global replay order).
    pub(crate) step: u32,
    pub(crate) port: PortId,
    /// Simulated time *after* the access, exactly as the memory array
    /// model's clock would report it (cycle time per access plus all
    /// preceding pauses).
    pub(crate) now_ns: f64,
    pub(crate) kind: TraceOpKind,
}

/// Fault-free replay state of an element-wise compile at an item
/// boundary — also an arena's checkpoint, with the golden-miscompare
/// count at that point.
#[derive(Debug, Default, Clone, Copy)]
struct Live {
    /// Index of the next step.
    step: u32,
    /// Simulated time after the last step.
    now_ns: f64,
    /// The fault-free value of every word. An element applies one op
    /// sequence with one data value per op at every address, so all words
    /// hold the same value at every item boundary.
    value: u64,
    /// Last read on the pass's port.
    last_read: Option<PrevRead>,
    /// Some access so far ran at a time that is not an integer below
    /// [`EXACT_NS`] (the negation of the trace's `affine_time`).
    inexact_time: bool,
}

/// What a replayed access files besides a golden miscompare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Filing {
    /// The bus cycle in the step stream and the op in its word's list (a
    /// complete compile).
    StepAndOp,
    /// The op alone (a support word of a restricted compile).
    Op,
    /// Nothing (an untracked word of a restricted compile).
    Nothing,
}

/// What every word sees in one element of a pass, computed without
/// touching a word (each enters holding the same value): whether its
/// checked reads all pass fault-free, the value it leaves with, and its
/// last read as (op position, golden value).
struct WordTemplate {
    clean: bool,
    end: u64,
    last_read: Option<(u32, u64)>,
}

impl WordTemplate {
    fn new(e: &MarchElement, bg: Bits, entry: u64) -> Self {
        let mut t = Self { clean: true, end: entry, last_read: None };
        for (pos, op) in (0u32..).zip(e.ops()) {
            let word = if op.data() { (!bg).value() } else { bg.value() };
            if op.is_write() {
                t.end = word;
            } else {
                t.clean &= word == t.end;
                t.last_read = Some((pos, t.end));
            }
        }
        t
    }

    /// Advances `live` past `words` untracked words of `per_word` ops each
    /// in O(1): the step counter, the clock and the port's last read. Sound
    /// only when the template is clean (no miscompare to log) and the clock
    /// stays an exact integer (one sum equals the per-op sums).
    fn jump(&self, words: u64, per_word: u32, live: &mut Live) {
        let ops = u32::try_from(words).expect("step count fits u32") * per_word;
        live.step += ops;
        live.now_ns += f64::from(ops) * DEFAULT_CYCLE_NS;
        if let Some((pos, golden)) = self.last_read {
            live.last_read = Some(PrevRead { step: live.step - per_word + pos, golden });
        }
    }
}

/// A test stream compiled for cheap per-fault replay.
///
/// Immutable after construction, so one trace can be shared by reference
/// across fan-out worker threads; compiling costs one fault-free replay of
/// the stream and is amortized over every fault simulated against it.
///
/// # Examples
///
/// ```
/// use mbist_march::{expand, library, CompiledTrace};
/// use mbist_mem::{CellId, FaultKind, MemGeometry};
///
/// let g = MemGeometry::bit_oriented(16);
/// let trace = CompiledTrace::from_steps(g, &expand(&library::march_c(), &g));
/// let tf = FaultKind::Transition { cell: CellId::bit_oriented(7), rising: true };
/// assert!(trace.detect(tf));
/// ```
#[derive(Debug, Clone)]
pub struct CompiledTrace {
    geometry: MemGeometry,
    steps: Vec<TestStep>,
    per_word: Vec<Vec<TraceOp>>,
    /// Checked reads that fail even fault-free, as `(step, addr)`. Usually
    /// empty; a fault-free-dirty stream detects every fault trivially.
    golden_miscompares: Vec<(u32, u64)>,
    /// Certificate that every word's op list carries the same content
    /// projection ([`projection_eq`]), so faults on different words
    /// provably share a packed access program whenever their bit positions
    /// (and, for pairs, address order) agree — the packed engine's batch
    /// routing stays O(1) per fault. Every expanded march holds it.
    monoclass: bool,
    /// Certificate that the stream is an address-uniform march: every
    /// segment visits every word exactly once, in strictly monotone address
    /// order, with one op count per segment. Under this shape the merged
    /// op order of any word pair depends only on which address is smaller,
    /// which lets the packed engine route inter-word coupling faults
    /// without rebuilding their merged program. Every expanded march on at
    /// least three words holds it.
    uniform_interleave: bool,
    /// Certificate that every access time is an integer below [`EXACT_NS`]
    /// and, op index by op index, an affine function of the word address.
    /// With `monoclass` and `uniform_interleave` it lets the packed engine
    /// derive every word's retention decay verdicts exactly from the lowest
    /// and highest words' times. Every expanded march whose access times
    /// are integers holds it (so every march without fractional pauses).
    affine_time: bool,
}

impl CompiledTrace {
    /// An empty trace on `geometry`: no steps, no ops, no certificates.
    fn empty(geometry: MemGeometry) -> Self {
        let words = usize::try_from(geometry.words()).expect("words fit usize");
        Self {
            geometry,
            steps: Vec::new(),
            per_word: vec![Vec::new(); words],
            golden_miscompares: Vec::new(),
            monoclass: false,
            uniform_interleave: false,
            affine_time: false,
        }
    }

    /// Compiles a step stream by replaying it once fault-free, recording
    /// per-word op lists, access timestamps and golden read values.
    ///
    /// # Panics
    ///
    /// Panics if the stream is invalid for the geometry (out-of-range
    /// address/port, data or expectation width mismatch, negative or NaN
    /// pause) — the same conditions a direct memory-array replay would
    /// reject.
    #[must_use]
    pub fn from_steps(geometry: MemGeometry, steps: &[TestStep]) -> Self {
        Self::from_steps_owned(geometry, steps.to_vec())
    }

    /// [`Self::from_steps`] taking ownership of the stream — spares the
    /// defensive copy when the caller's expansion is already a `Vec` it no
    /// longer needs.
    #[must_use]
    pub fn from_steps_owned(geometry: MemGeometry, steps: Vec<TestStep>) -> Self {
        let mut trace = Self::empty(geometry);
        // One validating pass sizes each word's op list exactly.
        u32::try_from(steps.len()).expect("step count fits u32");
        let mut counts = vec![0usize; trace.per_word.len()];
        for step in &steps {
            match step {
                TestStep::Pause { ns } => check_pause(*ns),
                TestStep::Bus(cycle) => {
                    check_cycle(&geometry, cycle);
                    counts[usize::try_from(cycle.addr).expect("addr fits usize")] += 1;
                }
            }
        }
        for (ops, count) in trace.per_word.iter_mut().zip(counts) {
            ops.reserve_exact(count);
        }
        let mut values = vec![0u64; trace.per_word.len()];
        let mut last_read = vec![None; usize::from(geometry.ports())];
        let mut now_ns = 0.0;
        for (step, item) in (0u32..).zip(&steps) {
            let cycle = match item {
                TestStep::Pause { ns } => {
                    now_ns += ns;
                    continue;
                }
                TestStep::Bus(cycle) => cycle,
            };
            now_ns += DEFAULT_CYCLE_NS;
            let value = &mut values[usize::try_from(cycle.addr).expect("addr fits usize")];
            let kind = match cycle.op {
                Operation::Write(data) => {
                    *value = data.value();
                    TraceOpKind::Write(*value)
                }
                Operation::Read => {
                    let latch = &mut last_read[usize::from(cycle.port.0)];
                    let prev_read = latch.replace(PrevRead { step, golden: *value });
                    TraceOpKind::Read {
                        expected: cycle.expected.map(|e| e.value()),
                        golden: *value,
                        prev_read,
                    }
                }
            };
            trace.record(
                cycle.addr,
                TraceOp { step, port: cycle.port, now_ns, kind },
                true,
            );
        }
        trace.monoclass =
            trace.per_word.iter().all(|ops| projection_eq(ops, &trace.per_word[0]));
        trace.uniform_interleave = certify_uniform_interleave(geometry.words(), &steps);
        trace.affine_time = certify_affine_time(&trace.per_word);
        trace.steps = steps;
        trace
    }

    /// Compiles `test` expanded on `geometry` with `options` — the common
    /// entry point for coverage and synthesis loops. Equal, field for
    /// field, to [`Self::from_steps`] over [`expand_with`]'s stream.
    ///
    /// # Panics
    ///
    /// Panics under the conditions [`expand_with`] and
    /// [`Self::from_steps`] reject: a background of the wrong width, a
    /// port out of range, a negative or NaN pause.
    #[must_use]
    pub fn compile(
        test: &MarchTest,
        geometry: &MemGeometry,
        options: &ExpandOptions,
    ) -> Self {
        let passes = passes(geometry, options);
        let steps = step_count(test, geometry, options);
        u32::try_from(steps).expect("step count fits u32");
        // Presized exactly: every pass gives every word the same accesses.
        let per_word = cycle_count(test, geometry, options) / geometry.words();
        let per_word = usize::try_from(per_word).expect("op count fits usize");
        let mut trace = Self::empty(*geometry);
        trace.steps.reserve_exact(steps);
        for ops in &mut trace.per_word {
            ops.reserve_exact(per_word);
        }
        let mut latches = Vec::new();
        trace.replay(test.items(), passes, (0, Live::default()), None, &mut latches, None);
        trace
    }

    /// The element-wise compiler core: replays `items` once per pass of
    /// the expansion, skipping the first `from` items of the first pass,
    /// whose state `live` holds, and pushing the state after every
    /// first-pass item to `checkpoints`, when given. Mirrors
    /// [`expand_with`]: time advances before an access is recorded, a
    /// pause takes a step index. With `support` (words in address order),
    /// only those words' op lists are recorded and no step stream.
    ///
    /// The certificates hold by construction: every element gives every
    /// word the same ops on one port over the same golden values, visiting
    /// each word once in monotone order (the parse declines under three
    /// words), and within an element the clock only adds the integral
    /// cycle time, so access times are affine in the address whenever they
    /// are integers. The `compile_matches_reference_replay` property test
    /// re-derives all three.
    fn replay(
        &mut self,
        items: &[MarchItem],
        passes: impl Iterator<Item = (PortId, Bits)>,
        (from, mut live): (usize, Live),
        support: Option<&[u64]>,
        latches: &mut Vec<Option<PrevRead>>,
        mut checkpoints: Option<&mut Vec<(Live, usize)>>,
    ) {
        latches.clear();
        latches.resize(usize::from(self.geometry.ports()), None);
        for (pass, (port, bg)) in passes.enumerate() {
            let latch = usize::from(port.0);
            let items = if pass == 0 {
                &items[from..]
            } else {
                live.last_read = latches[latch];
                items
            };
            for item in items {
                match item {
                    MarchItem::Pause { ns } => {
                        check_pause(*ns);
                        live.now_ns += ns;
                        if support.is_none() {
                            self.steps.push(TestStep::Pause { ns: *ns });
                        }
                        live.step += 1;
                    }
                    MarchItem::Element(e) => {
                        self.replay_element(e, (port, bg), &mut live, support)
                    }
                }
                if let Some(checkpoints) = checkpoints.as_deref_mut().filter(|_| pass == 0)
                {
                    checkpoints.push((live, self.golden_miscompares.len()));
                }
            }
            latches[latch] = live.last_read;
        }
        self.monoclass = true;
        self.uniform_interleave = self.geometry.words() >= 3;
        self.affine_time = !live.inexact_time;
    }

    /// One element of [`Self::replay`]: every word enters it holding
    /// `live.value` and leaves holding the same value. With `support`, each
    /// run of untracked words between two support words is jumped in O(1)
    /// when the element's [`WordTemplate`] replays clean and the clock
    /// stays an exact integer, and walked otherwise.
    fn replay_element(
        &mut self,
        e: &MarchElement,
        pass: (PortId, Bits),
        live: &mut Live,
        support: Option<&[u64]>,
    ) {
        let n = self.geometry.words();
        let up = matches!(e.order().direction(), mbist_rtl::Direction::Up);
        // Visit rank ↔ address (an involution either way).
        let addr = |rank: u64| if up { rank } else { n - 1 - rank };
        let entry = live.value;
        let first_access = live.now_ns + DEFAULT_CYCLE_NS;
        let mut end = entry;
        let Some(words) = support else {
            for rank in 0..n {
                end = self.replay_word(e, pass, addr(rank), entry, live, Filing::StepAndOp);
            }
            live.value = end;
            live.inexact_time |= !exact_ns(first_access) || live.now_ns >= EXACT_NS;
            return;
        };
        let per_word = u32::try_from(e.ops().len()).expect("op count fits u32");
        let template = WordTemplate::new(e, pass.1, entry);
        let elapsed = (n * u64::from(per_word)) as f64 * DEFAULT_CYCLE_NS;
        let jump =
            template.clean && exact_ns(live.now_ns) && live.now_ns + elapsed < EXACT_NS;
        // Rank of the first word not yet replayed: the words before each
        // support word are untracked.
        let mut next = 0;
        for k in 0..=words.len() {
            let stop =
                (k < words.len()).then(|| words[if up { k } else { words.len() - 1 - k }]);
            let until = stop.map_or(n, addr);
            if jump && until > next {
                template.jump(until - next, per_word, live);
                end = template.end;
            } else {
                for rank in next..until {
                    end =
                        self.replay_word(e, pass, addr(rank), entry, live, Filing::Nothing);
                }
            }
            if let Some(word) = stop {
                end = self.replay_word(e, pass, word, entry, live, Filing::Op);
                next = until + 1;
            }
        }
        live.value = end;
        live.inexact_time |= !exact_ns(first_access) || live.now_ns >= EXACT_NS;
    }

    /// The accesses of element `e` at `addr`, which enters holding
    /// `entry`; returns the value it leaves with. Always inlined: the
    /// complete compile walks every word through it, and a call per word
    /// measured about 7% slower on the coverage campaign's compiles.
    #[inline(always)]
    fn replay_word(
        &mut self,
        e: &MarchElement,
        (port, bg): (PortId, Bits),
        addr: u64,
        entry: u64,
        live: &mut Live,
        filing: Filing,
    ) -> u64 {
        let (zero, one) = (bg, !bg);
        let mut value = entry;
        for op in e.ops() {
            let word = if op.data() { one } else { zero };
            live.now_ns += DEFAULT_CYCLE_NS;
            let step = live.step;
            live.step += 1;
            let (cycle, kind) = if op.is_write() {
                value = word.value();
                (BusCycle::write(port, addr, word), TraceOpKind::Write(value))
            } else {
                let prev_read = live.last_read.replace(PrevRead { step, golden: value });
                let expected = Some(word.value());
                let kind = TraceOpKind::Read { expected, golden: value, prev_read };
                (BusCycle::read(port, addr, word), kind)
            };
            if filing == Filing::StepAndOp {
                self.steps.push(TestStep::Bus(cycle));
            }
            self.record(
                addr,
                TraceOp { step, port, now_ns: live.now_ns, kind },
                filing != Filing::Nothing,
            );
        }
        value
    }

    /// The per-access recorder both compile paths feed: logs a checked
    /// read that fails fault-free as a golden miscompare, and files the
    /// access under word `addr` when the word is `tracked`.
    #[inline]
    fn record(&mut self, addr: u64, op: TraceOp, tracked: bool) {
        if let TraceOpKind::Read { expected: Some(e), golden, .. } = op.kind {
            if e != golden {
                self.golden_miscompares.push((op.step, addr));
            }
        }
        if tracked {
            self.per_word[usize::try_from(addr).expect("addr fits usize")].push(op);
        }
    }

    /// The geometry the trace was compiled for.
    #[must_use]
    pub fn geometry(&self) -> MemGeometry {
        self.geometry
    }

    /// The step stream the trace was compiled from (the full-replay
    /// input).
    #[must_use]
    pub fn steps(&self) -> &[TestStep] {
        &self.steps
    }

    /// Whether the stream detects `fault`, through the per-fault path:
    /// sliced replay when the fault is address-local or a decoder fault,
    /// full replay on a fresh array otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the fault does not fit the trace geometry.
    #[must_use]
    pub fn detect(&self, fault: FaultKind) -> bool {
        match self.detect_sliced(fault) {
            Some(flag) => flag,
            None => {
                let mut scratch = MemoryArray::new(self.geometry);
                self.detect_full(fault, &mut scratch)
            }
        }
    }

    /// Sliced differential detection, or `None` when the fault has no
    /// address-local support set and only a full replay is sound.
    ///
    /// # Panics
    ///
    /// Panics if the fault does not fit the trace geometry.
    #[must_use]
    pub(crate) fn detect_sliced(&self, fault: FaultKind) -> Option<bool> {
        self.check_fault(fault);
        sliced::detect_sliced(self, fault)
    }

    /// Rejects a fault that does not fit the trace geometry.
    fn check_fault(&self, fault: FaultKind) {
        assert!(
            fault.is_valid_for(&self.geometry),
            "fault {fault} does not fit trace geometry {}",
            self.geometry
        );
    }

    /// Simulates every fault in `universe` against this trace through the
    /// selected engine and returns one detection flag per fault in
    /// universe order.
    ///
    /// [`SimEngine::Packed`] batches compatible faults into 256-lane
    /// `[u64; 4]` blocks and replays the trace once per batch on the
    /// calling thread, while decoder faults take the sliced two-word
    /// replay (on a march, once per verdict key rather than per fault);
    /// [`SimEngine::Full`] fans its per-fault replays out across `jobs`
    /// workers. Worker count and engine only change wall-clock time, never
    /// the flags.
    ///
    /// # Panics
    ///
    /// Panics if a fault in `universe` does not fit the trace geometry.
    ///
    /// # Examples
    ///
    /// ```
    /// use mbist_march::{expand, library, CompiledTrace, SimEngine};
    /// use mbist_mem::{class_universe, FaultClass, MemGeometry, UniverseSpec};
    ///
    /// let g = MemGeometry::bit_oriented(16);
    /// let trace = CompiledTrace::from_steps(g, &expand(&library::march_c(), &g));
    /// let universe = class_universe(&g, FaultClass::StuckAt, &UniverseSpec::default());
    /// let flags = trace.detect_universe(&universe, Some(1), SimEngine::Packed);
    /// assert!(flags.iter().all(|&d| d), "March C detects every SAF");
    /// ```
    #[must_use]
    pub fn detect_universe(
        &self,
        universe: &[FaultKind],
        jobs: Option<usize>,
        engine: SimEngine,
    ) -> Vec<bool> {
        universe.iter().for_each(|&fault| self.check_fault(fault));
        crate::fanout::detect_universe_trace(
            self,
            universe,
            jobs,
            engine,
            &crate::cancel::CancelToken::none(),
        )
    }

    /// Full-replay detection on a caller-provided scratch array (reset,
    /// re-injected, replayed with early exit) — the oracle the packed
    /// engine and the per-fault path are verified against.
    ///
    /// # Panics
    ///
    /// Panics if the scratch geometry differs from the trace geometry, or
    /// the fault does not fit it.
    #[must_use]
    pub fn detect_full(&self, fault: FaultKind, scratch: &mut MemoryArray) -> bool {
        assert_eq!(scratch.geometry(), self.geometry, "scratch geometry mismatch");
        scratch.reset();
        scratch.inject(fault).expect("fault must fit the trace geometry");
        run_steps_detect(scratch, &self.steps)
    }

    /// Approximate resident size of the trace in bytes — steps, per-word op
    /// lists and golden-miscompare records — used by byte-capped caches to
    /// account for what they hold. An estimate (allocator slack and `Vec`
    /// growth headroom are not visible), but proportional to the real
    /// footprint and monotone in stream length.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let ops: usize = self.per_word.iter().map(Vec::len).sum();
        std::mem::size_of::<Self>()
            + self.steps.len() * std::mem::size_of::<TestStep>()
            + self.per_word.len() * std::mem::size_of::<Vec<TraceOp>>()
            + ops * std::mem::size_of::<TraceOp>()
            + self.golden_miscompares.len() * std::mem::size_of::<(u32, u64)>()
    }

    /// Every access to `word`, in stream order.
    pub(crate) fn ops_for_word(&self, word: u64) -> &[TraceOp] {
        &self.per_word[usize::try_from(word).expect("addr fits usize")]
    }

    /// Counts how many faults of `universe` the trace detects, with an
    /// optional early-exit cap: once `stop_after` detections are seen the
    /// scan quits and returns exactly `stop_after`. A lexicographic
    /// fitness comparing `min(detected, target)` only needs the capped
    /// value, so a synthesis loop saves the tail of the universe for every
    /// candidate that already met its target.
    ///
    /// The result is engine- and batching-independent: with no cap (or an
    /// unreached cap) the exact total is returned; a reached cap returns
    /// the cap itself, never "cap plus however many the last batch held".
    ///
    /// # Panics
    ///
    /// Panics if a fault in `universe` does not fit the trace geometry.
    #[must_use]
    pub fn count_detected(
        &self,
        universe: &[FaultKind],
        engine: SimEngine,
        stop_after: Option<usize>,
    ) -> usize {
        universe.iter().for_each(|&fault| self.check_fault(fault));
        match engine {
            SimEngine::Packed => UniversePlan::new(self.geometry, universe)
                .count_detected(self.into(), stop_after, &mut PlanScratch::default())
                .expect("a plan counts every complete trace of its geometry"),
            SimEngine::Full => {
                let mut scratch = MemoryArray::new(self.geometry);
                let stop = stop_after.unwrap_or(usize::MAX);
                let detected =
                    universe.iter().filter(|&&f| self.detect_full(f, &mut scratch));
                detected.take(stop).count()
            }
        }
    }

    /// Whether the address-uniform-march certificate holds (see the field
    /// doc).
    pub(crate) fn uniform_interleave(&self) -> bool {
        self.uniform_interleave
    }

    /// Whether every word carries the same op content (see the field
    /// doc) — with [`Self::uniform_interleave`] and clean golden replay,
    /// the signature under which the packed planner's precomputed routing
    /// is sound.
    pub(crate) fn monoclass(&self) -> bool {
        self.monoclass
    }

    /// Whether every access time is an exact integer, affine in the word
    /// address op by op (see the field doc) — what lets the packed planner
    /// split retention faults into rank intervals.
    pub(crate) fn affine_time(&self) -> bool {
        self.affine_time
    }

    pub(crate) fn golden_miscompares(&self) -> &[(u32, u64)] {
        &self.golden_miscompares
    }
}

/// Reusable compilation arena for hot candidate-scoring loops.
///
/// One arena owns a [`CompiledTrace`] slot and the compiler's scratch, so
/// recompiling a stream of similar candidates under one configuration
/// reuses its buffers: the step stream and per-word op lists keep their
/// capacity across compiles, and only the items past the shared prefix
/// are copied (they key the next compile's prefix reuse).
///
/// The arena also checkpoints the fault-free replay state at every item
/// boundary of the first pass (the first port × background): a candidate
/// sharing an item prefix with the previously compiled one, under the same
/// geometry and options, resumes from the last shared checkpoint instead
/// of replaying from power-up. Shrink loops, whose trial candidates share
/// almost their whole prefix with the incumbent, recompile in
/// near-constant time.
///
/// A compile produces the same trace as [`CompiledTrace::compile`] on the
/// same inputs (pinned by tests); only the wall-clock cost changes.
#[derive(Default)]
pub struct TraceArena {
    trace: Option<CompiledTrace>,
    /// State and miscompare count after each first-pass item of the
    /// previous compile.
    checkpoints: Vec<(Live, usize)>,
    /// Items of the previous compile (the prefix key).
    prev_items: Vec<MarchItem>,
    /// Geometry, options and support words `trace` and the checkpoints
    /// were compiled under; `None` when nothing is reusable.
    prev_config: Option<(MemGeometry, ExpandOptions, Option<Vec<u64>>)>,
    /// Sense-history scratch (see [`CompiledTrace::replay`]).
    latches: Vec<Option<PrevRead>>,
}

impl TraceArena {
    /// A fresh arena: buffers grow on first use and are reused after.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles `test` exactly like [`CompiledTrace::compile`], reusing
    /// the arena's buffers and any item-prefix overlap with the previous
    /// compile. The returned trace borrows the arena and is valid until
    /// the next compile.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`CompiledTrace::compile`].
    pub fn compile(
        &mut self,
        test: &MarchTest,
        geometry: &MemGeometry,
        options: &ExpandOptions,
    ) -> &CompiledTrace {
        self.compile_with(test, geometry, options, None)
    }

    /// Compiles `test` for `plan` alone: only the op lists of the plan's
    /// support words ([`UniversePlan::support`]) are recorded, and no step
    /// stream. Each run of other words in an element costs O(1) — the step
    /// counter, clock and port latch jump past it — whenever the element
    /// replays clean and the clock stays an exact integer, so a compile
    /// costs O(elements × support words), not O(steps). The result is a
    /// [`SupportTrace`], which only [`UniversePlan::count_detected`]
    /// accepts.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`CompiledTrace::compile`].
    pub(crate) fn compile_support(
        &mut self,
        test: &MarchTest,
        geometry: &MemGeometry,
        options: &ExpandOptions,
        plan: &UniversePlan<'_>,
    ) -> SupportTrace<'_> {
        SupportTrace::restricted(self.compile_with(
            test,
            geometry,
            options,
            Some(plan.support()),
        ))
    }

    /// Shared body of both compiles: roll back to the last checkpoint the
    /// new candidate shares with the previous one, then replay the rest.
    /// With `support` (words in address order) the result is partial and
    /// must not escape except as a [`SupportTrace`].
    fn compile_with(
        &mut self,
        test: &MarchTest,
        geometry: &MemGeometry,
        options: &ExpandOptions,
        support: Option<&[u64]>,
    ) -> &CompiledTrace {
        let passes = passes(geometry, options);
        u32::try_from(step_count(test, geometry, options)).expect("step count fits u32");
        let items = test.items();
        // Taken, not borrowed: a compile that panics midway leaves nothing
        // reusable behind.
        let prev = self.prev_config.take();
        let reusable = prev.as_ref().is_some_and(|(g, o, s)| {
            g == geometry && o == options && s.as_deref() == support
        });
        if !reusable {
            self.checkpoints.clear();
            self.prev_items.clear();
            self.trace = Some(CompiledTrace::empty(*geometry));
        }
        let trace = self.trace.as_mut().expect("a reusable config has a trace");
        let shared =
            items.iter().zip(&self.prev_items).take_while(|(a, b)| same_item(a, b)).count();
        if shared < items.len() || shared < self.prev_items.len() {
            // Roll back to the end of the shared prefix in the first pass.
            self.checkpoints.truncate(shared);
            let (live, miscompares) = self.checkpoints.last().copied().unwrap_or_default();
            trace.steps.truncate(live.step as usize);
            trace.golden_miscompares.truncate(miscompares);
            for ops in &mut trace.per_word {
                ops.truncate(ops.partition_point(|op| op.step < live.step));
            }
            let (latches, checkpoints) = (&mut self.latches, Some(&mut self.checkpoints));
            trace.replay(items, passes, (shared, live), support, latches, checkpoints);
            self.prev_items.truncate(shared);
            self.prev_items.extend_from_slice(&items[shared..]);
        }
        self.prev_config = if reusable {
            prev
        } else {
            Some((*geometry, options.clone(), support.map(<[u64]>::to_vec)))
        };
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{AddressOrder, MarchElement};
    use crate::expand::expand;
    use crate::library;
    use crate::op::MarchOp;
    use mbist_mem::rng::SplitMix64;
    use mbist_mem::{BusCycle, CellId, DEFAULT_CYCLE_NS};
    use mbist_rtl::Bits;

    #[test]
    fn trace_records_every_bus_cycle_once() {
        let g = MemGeometry::bit_oriented(8);
        let steps = expand(&library::march_c(), &g);
        let trace = CompiledTrace::from_steps(g, &steps);
        let bus: usize = steps.iter().filter(|s| matches!(s, TestStep::Bus(_))).count();
        let recorded: usize = (0..8).map(|w| trace.ops_for_word(w).len()).sum();
        assert_eq!(bus, recorded);
        assert!(trace.golden_miscompares().is_empty(), "expanded streams are clean");
    }

    #[test]
    fn march_expansions_certify_uniform_interleave() {
        // Every library march is address-uniform once expanded — including
        // march-c, whose ⇑→⇓ element boundary shares a visit to the top
        // address (the carry-splitting case in the certificate parse).
        let g = MemGeometry::bit_oriented(8);
        for test in [library::mats(), library::march_c(), library::march_b()] {
            let trace = CompiledTrace::from_steps(g, &expand(&test, &g));
            assert!(trace.uniform_interleave(), "{} should certify", test.name());
            assert!(
                trace.monoclass(),
                "{}: uniform data pattern means one content class",
                test.name()
            );
        }
    }

    #[test]
    fn irregular_streams_decline_the_certificate() {
        let g = MemGeometry::bit_oriented(4);
        let w = |addr| {
            TestStep::Bus(BusCycle {
                port: PortId(0),
                addr,
                op: Operation::Write(Bits::bit1(true)),
                expected: None,
            })
        };
        // Not address-monotone (0, 2, 1, 3): exact per-pair programs still
        // work, but O(1) routing must not engage.
        let trace = CompiledTrace::from_steps(g, &[w(0), w(2), w(1), w(3)]);
        assert!(!trace.uniform_interleave());
        // A word visited twice in one sweep breaks visit uniformity too.
        let trace = CompiledTrace::from_steps(g, &[w(0), w(1), w(1), w(2), w(3)]);
        assert!(!trace.uniform_interleave());
        // A word with a different data pattern breaks the single content
        // class.
        let wv = |addr, bit| {
            TestStep::Bus(BusCycle {
                port: PortId(0),
                addr,
                op: Operation::Write(Bits::bit1(bit)),
                expected: None,
            })
        };
        let trace = CompiledTrace::from_steps(
            g,
            &[wv(0, true), wv(1, false), wv(2, true), wv(3, true)],
        );
        assert!(trace.uniform_interleave(), "order is uniform even if data is not");
        assert!(!trace.monoclass());
    }

    #[test]
    fn timestamps_account_for_pauses() {
        let g = MemGeometry::bit_oriented(2);
        let w = |addr| {
            TestStep::Bus(BusCycle {
                port: PortId(0),
                addr,
                op: Operation::Write(Bits::bit1(true)),
                expected: None,
            })
        };
        let steps = [w(0), TestStep::Pause { ns: 1_000.0 }, w(1), w(0)];
        let trace = CompiledTrace::from_steps(g, &steps);
        let ops0 = trace.ops_for_word(0);
        assert_eq!(ops0.len(), 2);
        assert_eq!(ops0[0].now_ns, DEFAULT_CYCLE_NS);
        assert_eq!(ops0[1].now_ns, 1_000.0 + 3.0 * DEFAULT_CYCLE_NS);
    }

    #[test]
    fn golden_miscompares_capture_dirty_streams() {
        let g = MemGeometry::bit_oriented(2);
        let steps = [TestStep::Bus(BusCycle {
            port: PortId(0),
            addr: 1,
            op: Operation::Read,
            expected: Some(Bits::bit1(true)), // memory powers up 0
        })];
        let trace = CompiledTrace::from_steps(g, &steps);
        assert_eq!(trace.golden_miscompares(), &[(0, 1)]);
        // A dirty stream "detects" everything, sliced or full.
        let f = FaultKind::StuckAt { cell: CellId::bit_oriented(0), value: false };
        assert!(trace.detect(f));
        assert_eq!(trace.detect_sliced(f), Some(true));
    }

    #[test]
    fn detect_full_reuses_scratch_without_state_leak() {
        let g = MemGeometry::bit_oriented(8);
        let trace = CompiledTrace::from_steps(g, &expand(&library::march_c_plus(), &g));
        let mut scratch = MemoryArray::new(g);
        let drf = FaultKind::Retention {
            cell: CellId::bit_oriented(3),
            decays_to: true,
            retention_ns: 50_000.0,
        };
        let saf = FaultKind::StuckAt { cell: CellId::bit_oriented(1), value: true };
        // Interleave faults so stale now_ns / sense state would be caught.
        let a = trace.detect_full(drf, &mut scratch);
        let b = trace.detect_full(saf, &mut scratch);
        let c = trace.detect_full(drf, &mut scratch);
        assert_eq!(a, c);
        assert!(a && b);
    }

    #[test]
    fn canonical_key_is_stable_and_input_sensitive() {
        let g = MemGeometry::word_oriented(64, 8);
        let steps = expand(&library::march_c(), &g);
        let k = canonical_trace_key("march-c", &g, &steps);
        assert_eq!(k, canonical_trace_key("march-c", &g, &steps), "deterministic");
        assert_ne!(k, canonical_trace_key("march-a", &g, &steps), "name feeds the key");
        let g2 = MemGeometry::new(64, 8, 2);
        assert_ne!(k, canonical_trace_key("march-c", &g2, &steps), "geometry feeds it");
        let mut shorter = steps.clone();
        shorter.pop();
        assert_ne!(k, canonical_trace_key("march-c", &g, &shorter), "stream feeds it");
    }

    #[test]
    fn canonical_keys_never_collide_across_library_and_geometries() {
        // Pairwise-distinct keys over the whole algorithm library × several
        // geometries: two different geometries must never collide.
        let mut seen = std::collections::HashMap::new();
        for g in [
            MemGeometry::bit_oriented(16),
            MemGeometry::bit_oriented(64),
            MemGeometry::word_oriented(16, 8),
            MemGeometry::new(16, 8, 2),
        ] {
            for t in library::all() {
                let steps = expand(&t, &g);
                let key = canonical_trace_key(t.name(), &g, &steps);
                if let Some(prev) = seen.insert(key, (t.name().to_string(), g)) {
                    panic!("key collision: {prev:?} vs ({}, {g})", t.name());
                }
            }
        }
    }

    #[test]
    fn approx_bytes_grows_with_the_stream() {
        let g = MemGeometry::bit_oriented(16);
        let small = CompiledTrace::from_steps(g, &expand(&library::mats(), &g));
        let big = CompiledTrace::from_steps(g, &expand(&library::march_c_plus_plus(), &g));
        assert!(small.approx_bytes() > 0);
        assert!(big.approx_bytes() > small.approx_bytes());
    }

    #[test]
    #[should_panic(expected = "does not fit trace geometry")]
    fn out_of_range_fault_panics() {
        let g = MemGeometry::bit_oriented(4);
        let trace = CompiledTrace::from_steps(g, &expand(&library::mats(), &g));
        let _ =
            trace.detect(FaultKind::StuckAt { cell: CellId::bit_oriented(9), value: true });
    }

    /// One `#[should_panic]` test per `name: "message" => expression;`.
    macro_rules! rejects {
        ($($name:ident: $msg:literal => $body:expr;)*) => {$(
            #[test]
            #[should_panic(expected = $msg)]
            fn $name() {
                let _ = $body;
            }
        )*};
    }

    /// The 4-word, 4-bit, two-port memory the validation tests compile on.
    fn small() -> MemGeometry {
        MemGeometry::new(4, 4, 2)
    }

    fn one_step(port: u8, addr: u64, op: Operation, expected: Option<Bits>) -> TestStep {
        TestStep::Bus(BusCycle { port: PortId(port), addr, op, expected })
    }

    fn stream(step: TestStep) -> CompiledTrace {
        CompiledTrace::from_steps(small(), &[step])
    }

    /// March C with a negative pause after its initialization, minimal
    /// options.
    fn negative_pause() -> (MarchTest, ExpandOptions) {
        let mut items = library::march_c().items().to_vec();
        items.insert(1, MarchItem::Pause { ns: -5.0 });
        (MarchTest::new("neg-pause", items), ExpandOptions::minimal(&small()))
    }

    fn wide_background() -> (MarchTest, ExpandOptions) {
        let backgrounds = vec![Bits::zero(5)];
        (library::mats(), ExpandOptions { backgrounds, ..ExpandOptions::minimal(&small()) })
    }

    fn missing_port() -> (MarchTest, ExpandOptions) {
        let ports = vec![PortId(2)];
        (library::mats(), ExpandOptions { ports, ..ExpandOptions::minimal(&small()) })
    }

    fn one_shot((test, opts): (MarchTest, ExpandOptions)) -> CompiledTrace {
        CompiledTrace::compile(&test, &small(), &opts)
    }

    fn arena((test, opts): (MarchTest, ExpandOptions)) -> CompiledTrace {
        TraceArena::new().compile(&test, &small(), &opts).clone()
    }

    rejects! {
        from_steps_rejects_an_address_past_the_array: "out of range" =>
            stream(one_step(0, 4, Operation::Read, None));
        from_steps_rejects_a_port_past_the_ports: "out of range" =>
            stream(one_step(2, 0, Operation::Read, None));
        from_steps_rejects_a_write_of_the_wrong_width: "width mismatch" =>
            stream(one_step(0, 0, Operation::Write(Bits::new(3, 0b101)), None));
        from_steps_rejects_an_expectation_of_the_wrong_width: "width mismatch" =>
            stream(one_step(0, 0, Operation::Read, Some(Bits::new(8, 0))));
        from_steps_rejects_a_negative_pause: "non-negative" =>
            stream(TestStep::Pause { ns: -1.0 });
        from_steps_rejects_a_nan_pause: "non-negative" =>
            stream(TestStep::Pause { ns: f64::NAN });
        compile_rejects_a_negative_pause: "non-negative" => one_shot(negative_pause());
        compile_rejects_a_background_of_the_wrong_width: "width mismatch" =>
            one_shot(wide_background());
        compile_rejects_a_port_out_of_range: "out of range" => one_shot(missing_port());
        arena_rejects_a_negative_pause: "non-negative" => arena(negative_pause());
        arena_rejects_a_background_of_the_wrong_width: "width mismatch" =>
            arena(wide_background());
        arena_rejects_a_port_out_of_range: "out of range" => arena(missing_port());
    }

    /// Field-by-field equality of two compiled traces, including the op
    /// projections the engines consume.
    fn assert_trace_eq(a: &CompiledTrace, b: &CompiledTrace, what: &str) {
        assert_eq!(a.geometry, b.geometry, "{what}: geometry");
        assert_eq!(a.steps, b.steps, "{what}: steps");
        assert_eq!(a.per_word, b.per_word, "{what}: per-word ops");
        assert_eq!(a.golden_miscompares, b.golden_miscompares, "{what}: miscompares");
        assert_eq!(a.monoclass, b.monoclass, "{what}: monoclass");
        assert_eq!(a.uniform_interleave, b.uniform_interleave, "{what}: uniform");
        assert_eq!(a.affine_time, b.affine_time, "{what}: affine time");
    }

    /// The reference compile: the expanded stream through `from_steps`.
    fn reference(test: &MarchTest, g: &MemGeometry, opts: &ExpandOptions) -> CompiledTrace {
        CompiledTrace::from_steps_owned(*g, expand_with(test, g, opts))
    }

    /// Checks every golden value, timestamp and miscompare of `trace`
    /// against a fault-free [`MemoryArray`] replay of `steps`.
    fn assert_matches_memory_array(trace: &CompiledTrace, steps: &[TestStep], what: &str) {
        let mut mem = MemoryArray::new(trace.geometry);
        let mut cursor = vec![0usize; trace.per_word.len()];
        let mut miscompares = Vec::new();
        for (i, step) in (0u32..).zip(steps) {
            let cycle = match step {
                TestStep::Pause { ns } => {
                    mem.pause(*ns);
                    continue;
                }
                TestStep::Bus(cycle) => cycle,
            };
            let w = usize::try_from(cycle.addr).unwrap();
            let op = trace.per_word[w][cursor[w]];
            cursor[w] += 1;
            let (value, recorded) = match (cycle.op, op.kind) {
                (Operation::Write(data), TraceOpKind::Write(d)) => {
                    mem.write(cycle.port, cycle.addr, data);
                    (data, d)
                }
                (Operation::Read, TraceOpKind::Read { golden, .. }) => {
                    let observed = mem.read(cycle.port, cycle.addr);
                    if cycle.expected.is_some_and(|e| e != observed) {
                        miscompares.push((i, cycle.addr));
                    }
                    (observed, golden)
                }
                _ => panic!("{what}: step {i} recorded as the wrong kind"),
            };
            let time = mem.now_ns().to_bits();
            assert_eq!((op.step, recorded, op.now_ns.to_bits()), (i, value.value(), time));
        }
        let counts: Vec<usize> = trace.per_word.iter().map(Vec::len).collect();
        assert_eq!(cursor, counts, "{what}: op counts");
        assert_eq!(trace.golden_miscompares, miscompares, "{what}: miscompares");
    }

    /// A random march test on a random geometry with random expansion
    /// options: 1–40 words, 1–8 bits, 1–3 ports; pauses (zero and
    /// fractional ones included) between elements; reads whose expectation
    /// need not match the stored value, so streams are often dirty.
    fn random_case(rng: &mut SplitMix64) -> (MarchTest, MemGeometry, ExpandOptions) {
        let mut pick = |n: u64| rng.next_u64() % n;
        let g = MemGeometry::new(1 + pick(40), 1 + pick(8) as u8, 1 + pick(3) as u8);
        let mut items: Vec<MarchItem> = vec![];
        for _ in 0..=pick(6) {
            if pick(5) == 0 {
                let ns = [0.0, 10.0, 1e3, 5e4, 2.5e5, 0.1, 1.0 / 3.0][pick(7) as usize];
                items.push(MarchItem::Pause { ns });
                continue;
            }
            let order = [AddressOrder::Up, AddressOrder::Down, AddressOrder::Any];
            let op = |k| if k < 2 { MarchOp::Write(k == 1) } else { MarchOp::Read(k == 3) };
            let ops = (0..=pick(4)).map(|_| op(pick(4))).collect();
            items.push(MarchElement::new(order[pick(3) as usize], ops).into());
        }
        if items.iter().all(|i| i.as_element().is_none()) {
            items.push(
                MarchElement::new(AddressOrder::Down, vec![MarchOp::Read(true)]).into(),
            );
        }
        let opts = match pick(3) {
            0 => ExpandOptions::for_geometry(&g),
            1 => ExpandOptions::minimal(&g),
            _ => ExpandOptions {
                backgrounds: (0..=pick(3))
                    .map(|_| Bits::new(g.width(), pick(u64::MAX) >> (64 - g.width())))
                    .collect(),
                ports: (0..=pick(2))
                    .map(|_| PortId(pick(u64::from(g.ports())) as u8))
                    .collect(),
            },
        };
        (MarchTest::new("random", items), g, opts)
    }

    #[test]
    fn compile_matches_reference_replay() {
        // The compiler's correctness argument, in release mode too: over
        // seeded random marches, the element-wise compile equals the
        // stream compile field for field, both match a fault-free
        // MemoryArray replay, both certificates hold exactly as the
        // compiler claims by construction, and one arena fed the whole
        // sequence — prefix-sharing mutations, repeats and support-
        // restricted compiles included — reproduces every one-shot result.
        // Masks are half-dense, sparse (0–3 words, so long untracked runs
        // that the compile jumps) or complete; fractional pauses make the
        // clock inexact, where the compile walks instead of jumping.
        let mut rng = SplitMix64::new(0x7ace);
        let mut arena = TraceArena::new();
        let mut prev: Option<(MarchTest, MemGeometry, ExpandOptions)> = None;
        let mut support: Option<Vec<u64>> = None;
        for case in 0..1200 {
            let (test, g, opts) = match prev.take() {
                // Mutate the previous test's tail half the time, so the
                // arena resumes from a shared prefix.
                Some((prev_test, g, opts)) if rng.next_u64().is_multiple_of(2) => {
                    let (fresh, ..) = random_case(&mut rng);
                    let keep = (rng.next_u64() as usize) % (prev_test.items().len() + 1);
                    let mut items = prev_test.items()[..keep].to_vec();
                    if !rng.next_u64().is_multiple_of(4) {
                        items.extend_from_slice(fresh.items());
                    }
                    if items.iter().all(|i| i.as_element().is_none()) {
                        items = prev_test.items().to_vec();
                    }
                    (MarchTest::new("mutant", items), g, opts)
                }
                _ => {
                    // Half the mutation families compile support-
                    // restricted, under one random mask.
                    let (test, g, opts) = random_case(&mut rng);
                    support = match rng.next_u64() % 6 {
                        0..=2 => None,
                        3 => Some(
                            (0..g.words())
                                .filter(|_| rng.next_u64().is_multiple_of(2))
                                .collect(),
                        ),
                        4 => {
                            let mut words: Vec<u64> = (0..rng.next_u64() % 4)
                                .map(|_| rng.next_u64() % g.words())
                                .collect();
                            words.sort_unstable();
                            words.dedup();
                            Some(words)
                        }
                        _ => Some((0..g.words()).collect()),
                    };
                    (test, g, opts)
                }
            };
            let what = format!("case {case}: {test} on {g}, {opts:?}");
            let steps = expand_with(&test, &g, &opts);
            let got = CompiledTrace::compile(&test, &g, &opts);
            assert_trace_eq(&got, &CompiledTrace::from_steps(g, &steps), &what);
            assert_matches_memory_array(&got, &steps, &what);
            assert!(got.monoclass(), "{what}: monoclass");
            assert_eq!(got.uniform_interleave(), g.words() >= 3, "{what}: uniform");

            // A support-restricted compile records no steps and only the
            // support words' ops.
            let mut want = got.clone();
            if let Some(support) = &support {
                want.steps.clear();
                for (w, ops) in (0..).zip(&mut want.per_word) {
                    if !support.contains(&w) {
                        ops.clear();
                    }
                }
            }
            let part = arena.compile_with(&test, &g, &opts, support.as_deref());
            assert_trace_eq(part, &want, &what);
            prev = Some((test, g, opts));
        }
    }

    #[test]
    fn arena_matches_reference_compile_across_shapes() {
        // One arena compiles a mixed stream of tests — single-pass,
        // pause-carrying and multi-background/multi-port — and every
        // result must equal the reference compile of the expanded stream.
        // Interleaving shapes also proves shape switches never leak state.
        let bit = MemGeometry::bit_oriented(8);
        let word = MemGeometry::word_oriented(8, 4);
        let multi = MemGeometry::new(8, 1, 2);
        let cases: Vec<(MarchTest, MemGeometry)> = vec![
            (library::mats(), bit),
            (library::march_c(), bit),
            (library::march_c_plus(), bit), // pauses
            (library::march_c(), word),     // 3 backgrounds
            (library::march_b(), bit),
            (library::mats_plus(), multi), // 2 ports
            (library::march_c(), bit),
        ];
        let mut arena = TraceArena::new();
        for (test, g) in &cases {
            let opts = ExpandOptions::for_geometry(g);
            let got = arena.compile(test, g, &opts);
            assert_trace_eq(got, &reference(test, g, &opts), test.name());
        }
    }

    #[test]
    fn arena_prefix_reuse_is_exact() {
        // Candidate-style recompiles that exercise every prefix-sharing
        // case: tail mutation, mid-element removal (shrink), pure prefix
        // (tail removal), growth, and a full rewrite.
        let g = MemGeometry::bit_oriented(8);
        let opts = ExpandOptions::minimal(&g);
        let e = |order, ops: &[MarchOp]| MarchElement::new(order, ops.to_vec());
        let w0 = MarchOp::Write(false);
        let w1 = MarchOp::Write(true);
        let r0 = MarchOp::Read(false);
        let r1 = MarchOp::Read(true);
        let base = vec![
            e(AddressOrder::Any, &[w0]),
            e(AddressOrder::Up, &[r0, w1]),
            e(AddressOrder::Up, &[r1, w0]),
            e(AddressOrder::Down, &[r0, w1]),
            e(AddressOrder::Down, &[r1, w0]),
            e(AddressOrder::Any, &[r0]),
        ];
        let variants: Vec<Vec<MarchElement>> = vec![
            base.clone(),
            // tail mutation
            {
                let mut v = base.clone();
                v[5] = e(AddressOrder::Down, &[r0]);
                v
            },
            // shrink: drop a middle element
            {
                let mut v = base.clone();
                v.remove(3);
                v
            },
            // pure prefix of the previous candidate
            base[..4].to_vec(),
            // growth past the previous length
            {
                let mut v = base.clone();
                v.push(e(AddressOrder::Up, &[r0, w1, r1]));
                v
            },
            // full rewrite: nothing shared
            vec![e(AddressOrder::Down, &[w1]), e(AddressOrder::Up, &[r1])],
            // identical recompile
            vec![e(AddressOrder::Down, &[w1]), e(AddressOrder::Up, &[r1])],
        ];
        let mut arena = TraceArena::new();
        for (i, elements) in variants.iter().enumerate() {
            let test = MarchTest::new(
                format!("cand-{i}"),
                elements.clone().into_iter().map(MarchItem::Element).collect(),
            );
            let got = arena.compile(&test, &g, &opts);
            assert_trace_eq(got, &reference(&test, &g, &opts), test.name());
        }
    }

    #[test]
    fn arena_survives_geometry_and_option_switches() {
        let mut arena = TraceArena::new();
        for g in [MemGeometry::bit_oriented(4), MemGeometry::bit_oriented(16)] {
            for opts in [ExpandOptions::minimal(&g), ExpandOptions::for_geometry(&g)] {
                let got = arena.compile(&library::march_c(), &g, &opts);
                let want = reference(&library::march_c(), &g, &opts);
                assert_trace_eq(got, &want, "geometry/options switch");
            }
        }
    }

    #[test]
    fn engine_names_round_trip_and_index_all() {
        for (i, engine) in SimEngine::ALL.into_iter().enumerate() {
            assert_eq!(engine as usize, i, "ALL must follow declaration order");
            assert_eq!(SimEngine::parse_name(engine.name()), Some(engine));
            assert_eq!(engine.to_string(), engine.name());
        }
        assert_eq!(SimEngine::parse_name("turbo"), None);
    }

    #[test]
    fn count_detected_matches_flags_and_caps_exactly() {
        use mbist_mem::{subset_universe, FaultClass, UniverseSpec};
        let g = MemGeometry::bit_oriented(16);
        let trace = CompiledTrace::from_steps(g, &expand(&library::march_c(), &g));
        let classes =
            [FaultClass::StuckAt, FaultClass::Transition, FaultClass::CouplingIdempotent];
        let universe = subset_universe(&g, &classes, &UniverseSpec::default(), 64);
        let flags = trace.detect_universe(&universe, Some(1), SimEngine::Packed);
        let total = flags.iter().filter(|&&f| f).count();
        assert!(total > 2, "universe too easy to exercise caps");
        for engine in SimEngine::ALL {
            assert_eq!(trace.count_detected(&universe, engine, None), total);
            assert_eq!(trace.count_detected(&universe, engine, Some(usize::MAX)), total);
            // A reached cap returns exactly the cap, chunking-independent.
            assert_eq!(trace.count_detected(&universe, engine, Some(1)), 1);
            assert_eq!(trace.count_detected(&universe, engine, Some(total - 1)), total - 1);
            assert_eq!(trace.count_detected(&universe, engine, Some(total)), total);
            assert_eq!(trace.count_detected(&universe, engine, Some(0)), 0);
        }
    }
}

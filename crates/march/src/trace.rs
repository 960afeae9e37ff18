//! Compiled step traces for sliced differential fault simulation.
//!
//! [`CompiledTrace`] compiles an expanded step stream once per
//! `(test, geometry)`: one fault-free golden replay produces per-address op
//! lists with precomputed access timestamps (pause-adjusted simulated time)
//! and golden read values. A single address-local fault is then simulated
//! by replaying only the ops that touch its support set
//! ([`FaultKind::support`]) against O(|support|) sparse state — see
//! [`crate::sliced`] — instead of paying an O(words) array allocation and
//! an O(stream) replay per fault.
//!
//! The differential argument: a single fault with support set S can only
//! make the cells in S deviate from the golden trace (every fault effect
//! reads and writes cells of S only), so every access outside S behaves
//! exactly as the golden replay, and detection is decided by the golden
//! miscompares (outside S) plus a sparse replay of the accesses to S.
//! Address-decoder faults, whose support is the two remapped words rather
//! than a cell neighborhood, replay those two words' merged op streams
//! ([`FaultKind::decoder_words`]); only faults with neither a support set
//! nor a decoder word pair fall back to the full replay, which stays
//! available as the differential-testing oracle.

use std::collections::HashMap;

use mbist_mem::{
    BusCycle, FaultKind, MemGeometry, MemoryArray, Operation, PortId, TestStep,
    DEFAULT_CYCLE_NS,
};

use mbist_rtl::Bits;

use crate::element::{MarchElement, MarchItem};
use crate::expand::{expand_into, expand_with, ExpandOptions};
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

/// Folds one op's content projection — the `(kind, data, expected,
/// golden)` tuple, exactly what `packed::build_program` reads — into a
/// running FNV word-content hash. Tags make the framing unambiguous.
#[inline]
fn mix_op_content(h: &mut u64, kind: &TraceOpKind) {
    let mut mix = |v: u64| *h = (*h ^ v).wrapping_mul(Fnv1a::PRIME);
    match *kind {
        TraceOpKind::Write(data) => {
            mix(0);
            mix(data);
        }
        TraceOpKind::Read { expected: None, golden, .. } => {
            mix(1);
            mix(golden);
        }
        TraceOpKind::Read { expected: Some(e), golden, .. } => {
            mix(2);
            mix(e);
            mix(golden);
        }
    }
}

/// Whether two op lists carry the identical content projection (the exact
/// congruence the word-class ids certify — timestamps, ports and sense
/// history are deliberately not part of it).
fn projection_eq(a: &[TraceOp], b: &[TraceOp]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x.kind, y.kind) {
            (TraceOpKind::Write(da), TraceOpKind::Write(db)) => da == db,
            (
                TraceOpKind::Read { expected: ea, golden: ga, .. },
                TraceOpKind::Read { expected: eb, golden: gb, .. },
            ) => ea == eb && ga == gb,
            _ => false,
        })
}

/// Interns each word's op-list content into a dense class id (ids in
/// first-occurrence order). Two words with the same id provably yield
/// identical packed access programs for any bit position: the incremental
/// content hashes only bucket candidates — congruence always comes from
/// the full [`projection_eq`] comparison, so hash quality can never
/// change a class assignment.
fn intern_word_classes(per_word: &[Vec<TraceOp>], hashes: &[u64]) -> Vec<u32> {
    let mut buckets: HashMap<u64, Vec<(u32, usize)>, FnvBuild> =
        HashMap::with_hasher(FnvBuild);
    let mut classes = Vec::with_capacity(per_word.len());
    let mut next = 0u32;
    for (w, ops) in per_word.iter().enumerate() {
        let bucket = buckets.entry(hashes[w]).or_default();
        let found = bucket
            .iter()
            .find_map(|&(id, rep)| projection_eq(ops, &per_word[rep]).then_some(id));
        let id = match found {
            Some(id) => id,
            None => {
                let id = next;
                next = next.checked_add(1).expect("class count fits u32");
                bucket.push((id, w));
                id
            }
        };
        classes.push(id);
    }
    classes
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
    certify_uniform_interleave_with(words, steps, &mut Vec::new())
}

/// [`certify_uniform_interleave`] into a caller-owned visit buffer, so a
/// hot recompile loop ([`TraceArena`]) certifies without allocating.
fn certify_uniform_interleave_with(
    words: u64,
    steps: &[TestStep],
    visits: &mut Vec<(u64, u32)>,
) -> bool {
    let n = usize::try_from(words).expect("words fit usize");
    if n < 3 {
        return false;
    }
    // Collapse the op stream to word visits: consecutive ops on one
    // address (pauses don't access, so they split nothing).
    visits.clear();
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

/// The golden value the port's sense amplifier held before a read — the
/// previous read on the same port, at any address.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrevRead {
    /// Step index of that previous read.
    pub(crate) step: u32,
    /// Its golden (fault-free) observed value.
    pub(crate) golden: u64,
}

#[derive(Debug, Clone, Copy)]
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
pub(crate) struct TraceOp {
    /// Index into the step stream (global replay order).
    pub(crate) step: u32,
    pub(crate) port: PortId,
    /// Simulated time *after* the access, exactly as
    /// [`MemoryArray::now_ns`] would report it (cycle time per access plus
    /// all preceding pauses).
    pub(crate) now_ns: f64,
    pub(crate) kind: TraceOpKind,
}

/// An expanded step stream compiled for cheap per-fault replay.
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
    /// Interned content class per word: two words share an id iff their op
    /// lists carry identical `(kind, data, expected, golden)` sequences, so
    /// faults on same-class words provably share a packed access program
    /// (see [`crate::packed`]). Computed once at compile time — the packed
    /// engine's batch routing stays O(1) per fault.
    word_class: Vec<u32>,
    /// Certificate that the stream is an address-uniform march: every
    /// segment visits every word exactly once, in strictly monotone address
    /// order, with one op count per segment. Under this shape the merged
    /// op order of any word pair depends only on which address is smaller,
    /// which lets the packed engine route inter-word coupling faults
    /// without rebuilding their merged program.
    uniform_interleave: bool,
}

impl CompiledTrace {
    /// Compiles a step stream by running it once against a fault-free
    /// array, recording per-word op lists, access timestamps and golden
    /// read values.
    ///
    /// # Panics
    ///
    /// Panics if the stream is invalid for the geometry (out-of-range
    /// address/port, data or expectation width mismatch) — the same
    /// conditions a direct [`MemoryArray`] replay would reject.
    #[must_use]
    pub fn from_steps(geometry: MemGeometry, steps: &[TestStep]) -> Self {
        Self::from_steps_owned(geometry, steps.to_vec())
    }

    /// [`Self::from_steps`] taking ownership of the stream — spares the
    /// defensive copy when the caller's expansion is already a `Vec` it no
    /// longer needs (the hot path for whole-run coverage evaluation).
    #[must_use]
    pub fn from_steps_owned(geometry: MemGeometry, steps: Vec<TestStep>) -> Self {
        let words = usize::try_from(geometry.words()).expect("words fit usize");
        // Pre-size each word's op list: one counting pass over the stream
        // beats re-allocating a thousand small vectors mid-replay.
        let mut counts = vec![0usize; words];
        for step in &steps {
            if let TestStep::Bus(cycle) = step {
                counts[usize::try_from(cycle.addr).expect("addr fits usize")] += 1;
            }
        }
        let mut per_word: Vec<Vec<TraceOp>> =
            counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        let mut word_hash = vec![Fnv1a::OFFSET; words];
        let mut golden_miscompares = Vec::new();
        let mut mem = MemoryArray::new(geometry);
        let mut last_read: Vec<Option<PrevRead>> =
            vec![None; usize::from(geometry.ports())];
        for (i, step) in steps.iter().enumerate() {
            let step_no = u32::try_from(i).expect("step count fits u32");
            match step {
                TestStep::Pause { ns } => mem.pause(*ns),
                TestStep::Bus(cycle) => match cycle.op {
                    Operation::Write(data) => {
                        mem.write(cycle.port, cycle.addr, data);
                        let addr = usize::try_from(cycle.addr).expect("addr fits usize");
                        let kind = TraceOpKind::Write(data.value());
                        mix_op_content(&mut word_hash[addr], &kind);
                        per_word[addr].push(TraceOp {
                            step: step_no,
                            port: cycle.port,
                            now_ns: mem.now_ns(),
                            kind,
                        });
                    }
                    Operation::Read => {
                        let observed = mem.read(cycle.port, cycle.addr);
                        let expected = cycle.expected.map(|e| {
                            assert_eq!(
                                e.width(),
                                geometry.width(),
                                "checked-read expectation width mismatch"
                            );
                            e.value()
                        });
                        if cycle.expected.is_some_and(|e| e != observed) {
                            golden_miscompares.push((step_no, cycle.addr));
                        }
                        let port = usize::from(cycle.port.0);
                        let addr = usize::try_from(cycle.addr).expect("addr fits usize");
                        let kind = TraceOpKind::Read {
                            expected,
                            golden: observed.value(),
                            prev_read: last_read[port],
                        };
                        mix_op_content(&mut word_hash[addr], &kind);
                        per_word[addr].push(TraceOp {
                            step: step_no,
                            port: cycle.port,
                            now_ns: mem.now_ns(),
                            kind,
                        });
                        last_read[port] =
                            Some(PrevRead { step: step_no, golden: observed.value() });
                    }
                },
            }
        }
        let word_class = intern_word_classes(&per_word, &word_hash);
        let uniform_interleave = certify_uniform_interleave(geometry.words(), &steps);
        Self {
            geometry,
            steps,
            per_word,
            golden_miscompares,
            word_class,
            uniform_interleave,
        }
    }

    /// Compiles the expanded stream of `test` on `geometry` — the common
    /// entry point for coverage and synthesis loops.
    #[must_use]
    pub fn compile(
        test: &MarchTest,
        geometry: &MemGeometry,
        options: &ExpandOptions,
    ) -> Self {
        Self::from_steps_owned(*geometry, expand_with(test, geometry, options))
    }

    /// The geometry the trace was compiled for.
    #[must_use]
    pub fn geometry(&self) -> MemGeometry {
        self.geometry
    }

    /// The step stream the trace was compiled from (the full-replay
    /// fallback input).
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
        assert!(
            fault.is_valid_for(&self.geometry),
            "fault {fault} does not fit trace geometry {}",
            self.geometry
        );
        sliced::detect_sliced(self, fault)
    }

    /// Simulates every fault in `universe` against this trace through the
    /// selected engine, fanning out across `jobs` workers, and returns one
    /// detection flag per fault in universe order.
    ///
    /// Worker count and engine only change wall-clock time, never the
    /// flags — [`SimEngine::Packed`] batches compatible faults into
    /// 256-lane `[u64; 4]` blocks and replays the trace once per batch,
    /// while decoder faults transparently take the per-fault path.
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
        for fault in universe {
            assert!(
                fault.is_valid_for(&self.geometry),
                "fault {fault} does not fit trace geometry {}",
                self.geometry
            );
        }
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
            + self.word_class.len() * std::mem::size_of::<u32>()
    }

    /// Every access to `word`, in stream order.
    pub(crate) fn ops_for_word(&self, word: u64) -> &[TraceOp] {
        &self.per_word[usize::try_from(word).expect("addr fits usize")]
    }

    /// The interned content class of `word` (see the field doc).
    pub(crate) fn word_class(&self, word: u64) -> u32 {
        self.word_class[usize::try_from(word).expect("addr fits usize")]
    }

    /// Counts how many faults of `universe` the trace detects, with an
    /// optional early-exit cap: once `stop_after` detections are seen the
    /// scan quits and returns exactly `stop_after`. A lexicographic
    /// fitness comparing `min(detected, target)` only needs the capped
    /// value, so a synthesis loop saves the tail of the universe for every
    /// candidate that already met its target.
    ///
    /// The result is engine- and chunking-independent: with no cap (or an
    /// unreached cap) the exact total is returned; a reached cap returns
    /// the cap itself, never "cap plus however many the last chunk held".
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
        let mut scratch = crate::fanout::WorkerScratch::default();
        self.count_detected_with(universe, engine, stop_after, &mut scratch)
    }

    /// [`Self::count_detected`] with a caller-owned scratch, so a scoring
    /// loop keeps one simulation scratch hot instead of reallocating per
    /// candidate.
    pub(crate) fn count_detected_with(
        &self,
        universe: &[FaultKind],
        engine: SimEngine,
        stop_after: Option<usize>,
        scratch: &mut crate::fanout::WorkerScratch,
    ) -> usize {
        for fault in universe {
            assert!(
                fault.is_valid_for(&self.geometry),
                "fault {fault} does not fit trace geometry {}",
                self.geometry
            );
        }
        let stop = stop_after.unwrap_or(usize::MAX);
        if stop == 0 {
            return 0;
        }
        let mut count = 0usize;
        match engine {
            SimEngine::Packed => {
                // Chunk granularity trades batch fullness (big chunks keep
                // the 256 lanes packed) against cap responsiveness (small
                // chunks exit sooner once the cap is reached).
                const CAPPED_PACKED_CHUNK: usize = 1024;
                for chunk in universe.chunks(CAPPED_PACKED_CHUNK) {
                    let flags = crate::packed::detect_chunk(
                        self,
                        chunk,
                        scratch,
                        &crate::cancel::CancelToken::none(),
                    );
                    count += flags.iter().filter(|&&f| f).count();
                    if count >= stop {
                        return stop;
                    }
                }
            }
            SimEngine::Full => {
                for &fault in universe {
                    if scratch.detect_full(self, fault) {
                        count += 1;
                        if count >= stop {
                            return stop;
                        }
                    }
                }
            }
        }
        count
    }

    /// Whether the address-uniform-march certificate holds (see the field
    /// doc).
    pub(crate) fn uniform_interleave(&self) -> bool {
        self.uniform_interleave
    }

    /// Whether every word shares one content class (class ids are dense in
    /// first-occurrence order, so "all zero" means "all identical") — with
    /// [`Self::uniform_interleave`] and clean golden replay, the signature
    /// under which the packed planner's precomputed routing is sound.
    pub(crate) fn monoclass(&self) -> bool {
        self.word_class.iter().all(|&c| c == 0)
    }

    pub(crate) fn golden_miscompares(&self) -> &[(u32, u64)] {
        &self.golden_miscompares
    }
}

/// Replay state snapshot at an element boundary: everything a resumed
/// compile needs to continue as if it had replayed the prefix itself.
#[derive(Default)]
struct Checkpoint {
    /// Steps compiled so far (prefix length in the step stream).
    steps: u32,
    /// Simulated time after the prefix.
    now_ns: f64,
    /// Golden miscompares recorded so far (prefix length).
    miscompares: u32,
    /// Fault-free word values after the prefix.
    values: Vec<u64>,
    /// Last read per port after the prefix.
    last_read: Vec<Option<PrevRead>>,
    /// Incremental word-content hashes after the prefix.
    word_hash: Vec<u64>,
}

/// Reusable compilation arena for hot candidate-scoring loops.
///
/// One arena owns a [`CompiledTrace`] slot plus every scratch buffer a
/// compile needs, so recompiling a stream of similar candidates reaches an
/// allocation-free steady state: the step stream, per-word op lists,
/// content hashes and certificate scratch all keep their capacity across
/// compiles, and the fault-free golden replay runs against a raw value
/// array instead of a freshly allocated [`MemoryArray`].
///
/// On single-pass expansions (one port × one background, no pauses — the
/// shape every synthesis candidate has) the arena also snapshots replay
/// state at every element boundary: a candidate sharing an element prefix
/// with the previously compiled one resumes from the last shared
/// checkpoint instead of replaying from power-up. Shrink loops, whose
/// trial candidates share almost their whole prefix with the incumbent,
/// recompile in near-constant time.
///
/// The produced trace is bit-identical to [`CompiledTrace::compile`] on
/// the same inputs (pinned by tests); only the wall-clock cost changes.
#[derive(Default)]
pub struct TraceArena {
    trace: Option<CompiledTrace>,
    /// Live replay state (fault-free word values, simulated time, per-port
    /// sense history, per-word content hashes).
    values: Vec<u64>,
    now_ns: f64,
    last_read: Vec<Option<PrevRead>>,
    word_hash: Vec<u64>,
    /// One snapshot per compiled element of the previous candidate.
    checkpoints: Vec<Checkpoint>,
    /// Retired checkpoints, recycled to keep steady state allocation-free.
    spare: Vec<Checkpoint>,
    /// Elements of the previously compiled candidate (the prefix key).
    prev_elements: Vec<MarchElement>,
    /// Expansion config the checkpoints are valid under.
    prev_config: Option<(MemGeometry, ExpandOptions)>,
    /// Whether the checkpoint state describes `trace` (false after a
    /// slow-path compile or on a fresh arena).
    prev_valid: bool,
    /// Certificate scratch ([`certify_uniform_interleave_with`]).
    visits: Vec<(u64, u32)>,
    /// Per-element decoded ops — `(is_write, bus word, word value)` — so
    /// the replay loop resolves data backgrounds once per element instead
    /// of once per access.
    decoded: Vec<(bool, Bits, u64)>,
    /// Skip recording the flat step stream on the fast path (see
    /// [`Self::set_skip_steps`]).
    skip_steps: bool,
    /// When set, only these words' per-word op lists are populated on the
    /// fast path (see [`Self::set_word_support`]).
    word_support: Option<Vec<bool>>,
}

impl TraceArena {
    /// A fresh arena: buffers grow on first use and are reused after.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Skips recording the flat [`TestStep`] stream on the element fast
    /// path: compiled traces come back with empty `steps`, while the
    /// per-word op lists still carry the true global step indices. The
    /// packed engine detects purely from the per-word lists, so a
    /// packed-only scoring loop saves one push per access; full replay (and
    /// the per-fault path, which falls back to it) replays the step stream
    /// and MUST NOT consume traces compiled this way. Toggling invalidates any cached prefix state.
    pub(crate) fn set_skip_steps(&mut self, skip: bool) {
        if self.skip_steps != skip {
            self.skip_steps = skip;
            self.prev_valid = false;
        }
    }

    /// Restricts fast-path compilation to populate per-word op lists only
    /// for words marked in `support` (untracked words come back with empty
    /// lists; golden replay — values, timing, miscompares — still covers
    /// the whole array exactly). The produced traces are valid solely for
    /// consumers that declared the support set, e.g.
    /// [`UniversePlan::count_detected`](crate::packed::UniversePlan) via
    /// its `support_mask`. `None` restores reference-complete compiles.
    /// Changing the support invalidates any cached prefix state.
    pub(crate) fn set_word_support(&mut self, support: Option<Vec<bool>>) {
        if self.word_support != support {
            self.word_support = support;
            self.prev_valid = false;
        }
    }

    /// Compiles `test` exactly like [`CompiledTrace::compile`], reusing
    /// the arena's buffers and any element-prefix overlap with the
    /// previous compile. The returned trace borrows the arena and is
    /// valid until the next `compile` call.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`CompiledTrace::compile`]
    /// (background width mismatch, port out of range, invalid stream).
    pub fn compile(
        &mut self,
        test: &MarchTest,
        geometry: &MemGeometry,
        options: &ExpandOptions,
    ) -> &CompiledTrace {
        let fast = options.ports.len() == 1
            && options.backgrounds.len() == 1
            && test.items().iter().all(|i| matches!(i, MarchItem::Element(_)));
        if fast {
            self.compile_elements(test, geometry, options);
        } else {
            self.compile_slow(test, geometry, options);
        }
        self.trace.as_ref().expect("compile populates the trace")
    }

    /// Cold path for multi-pass or pause-carrying tests: full recompile
    /// through the reference pipeline, reusing only the step buffer.
    fn compile_slow(
        &mut self,
        test: &MarchTest,
        geometry: &MemGeometry,
        options: &ExpandOptions,
    ) {
        let mut steps = self.trace.take().map(|t| t.steps).unwrap_or_default();
        expand_into(test, geometry, options, &mut steps);
        self.trace = Some(CompiledTrace::from_steps_owned(*geometry, steps));
        self.retire_checkpoints(0);
        self.prev_valid = false;
    }

    /// Hot path: replay only the elements past the shared prefix.
    fn compile_elements(
        &mut self,
        test: &MarchTest,
        geometry: &MemGeometry,
        options: &ExpandOptions,
    ) {
        let words = usize::try_from(geometry.words()).expect("words fit usize");
        let ports = usize::from(geometry.ports());
        let port = options.ports[0];
        let bg = options.backgrounds[0];
        assert_eq!(bg.width(), geometry.width(), "background width mismatch");
        assert!(port.0 < geometry.ports(), "port {port} out of range");

        let config_matches =
            self.prev_config.as_ref().is_some_and(|(g, o)| g == geometry && o == options);
        if !config_matches {
            self.prev_config = Some((*geometry, options.clone()));
        }
        let items = test.items();
        let shared = if self.prev_valid && config_matches && self.trace.is_some() {
            items
                .iter()
                .zip(&self.prev_elements)
                .take_while(|(item, prev)| item.as_element() == Some(prev))
                .count()
        } else {
            self.reset_skeleton(geometry, words);
            0
        };

        // Roll the live state back to the last shared element boundary.
        self.retire_checkpoints(shared);
        let (steps_keep, misc_keep) = match self.checkpoints.last() {
            Some(ck) => {
                self.now_ns = ck.now_ns;
                self.values.clone_from(&ck.values);
                self.last_read.clone_from(&ck.last_read);
                self.word_hash.clone_from(&ck.word_hash);
                (ck.steps as usize, ck.miscompares as usize)
            }
            None => {
                self.now_ns = 0.0;
                self.values.clear();
                self.values.resize(words, 0);
                self.last_read.clear();
                self.last_read.resize(ports, None);
                self.word_hash.clear();
                self.word_hash.resize(words, Fnv1a::OFFSET);
                (0, 0)
            }
        };
        {
            let trace = self.trace.as_mut().expect("skeleton exists");
            trace.steps.truncate(steps_keep);
            trace.golden_miscompares.truncate(misc_keep);
            let cut = u32::try_from(steps_keep).expect("step count fits u32");
            for ops in &mut trace.per_word {
                ops.truncate(ops.partition_point(|op| op.step < cut));
            }
        }

        // Replay the unshared tail, mirroring `expand_one_pass` +
        // `from_steps_owned` exactly: cycle time advances before the access
        // is recorded, reads observe the stored fault-free word.
        let n = geometry.words();
        let p = usize::from(port.0);
        let skip_steps = self.skip_steps;
        // Moved out for the loop (`push_checkpoint` reborrows `self`) and
        // restored right after it.
        let support_owned = self.word_support.take();
        let support = support_owned.as_deref();
        let mut step_no = u32::try_from(steps_keep).expect("step count fits u32");
        for item in &items[shared..] {
            let e = item.as_element().expect("fast path is element-only");
            let up = matches!(e.order().direction(), mbist_rtl::Direction::Up);
            self.decoded.clear();
            self.decoded.extend(e.ops().iter().map(|op| {
                let word = if op.data() { !bg } else { bg };
                (op.is_write(), word, word.value())
            }));
            let trace = self.trace.as_mut().expect("skeleton exists");
            for i in 0..n {
                let addr = if up { i } else { n - 1 - i };
                let w = usize::try_from(addr).expect("addr fits usize");
                // Untracked words keep exact golden state (values, timing,
                // miscompares, sense history) but skip the op-list record.
                let tracked = support.is_none_or(|s| s[w]);
                for &(is_write, word, value) in &self.decoded {
                    self.now_ns += DEFAULT_CYCLE_NS;
                    if is_write {
                        if !skip_steps {
                            trace
                                .steps
                                .push(TestStep::Bus(BusCycle::write(port, addr, word)));
                        }
                        self.values[w] = value;
                        if tracked {
                            let kind = TraceOpKind::Write(value);
                            mix_op_content(&mut self.word_hash[w], &kind);
                            trace.per_word[w].push(TraceOp {
                                step: step_no,
                                port,
                                now_ns: self.now_ns,
                                kind,
                            });
                        }
                    } else {
                        if !skip_steps {
                            trace
                                .steps
                                .push(TestStep::Bus(BusCycle::read(port, addr, word)));
                        }
                        let observed = self.values[w];
                        if value != observed {
                            trace.golden_miscompares.push((step_no, addr));
                        }
                        if tracked {
                            let kind = TraceOpKind::Read {
                                expected: Some(value),
                                golden: observed,
                                prev_read: self.last_read[p],
                            };
                            mix_op_content(&mut self.word_hash[w], &kind);
                            trace.per_word[w].push(TraceOp {
                                step: step_no,
                                port,
                                now_ns: self.now_ns,
                                kind,
                            });
                        }
                        self.last_read[p] =
                            Some(PrevRead { step: step_no, golden: observed });
                    }
                    step_no += 1;
                }
            }
            let misc_len = u32::try_from(trace.golden_miscompares.len())
                .expect("miscompare count fits u32");
            self.push_checkpoint(step_no, misc_len);
        }
        let sparse = support_owned.is_some();
        self.word_support = support_owned;

        // The fast path constructs the stream itself, so both certificates
        // are known without a pass over it: every element visits every
        // word exactly once in monotone order with a uniform op count
        // (address-uniform by construction, with direction-reversal
        // boundary visits exactly the shape the parser's `carry` admits),
        // and every write puts the same value at every address, so `values`
        // stays address-uniform and all words carry the identical content
        // projection — one class. The debug assertions re-derive both
        // through the reference certifiers.
        let trace = self.trace.as_mut().expect("skeleton exists");
        trace.word_class.clear();
        trace.word_class.resize(words, 0);
        trace.uniform_interleave = geometry.words() >= 3;
        debug_assert!(
            sparse
                || trace.word_class
                    == intern_word_classes(&trace.per_word, &self.word_hash),
            "fast-path streams must be monoclass by construction"
        );
        debug_assert!(
            skip_steps
                || certify_uniform_interleave_with(
                    geometry.words(),
                    &trace.steps,
                    &mut self.visits,
                ) == trace.uniform_interleave,
            "fast-path streams must be address-uniform exactly when words >= 3"
        );

        self.prev_elements.clear();
        self.prev_elements.extend(
            items
                .iter()
                .map(|i| i.as_element().expect("fast path is element-only").clone()),
        );
        self.prev_valid = true;
    }

    /// Resets the trace slot to an empty skeleton for `geometry`, keeping
    /// whatever buffer capacity the previous trace had.
    fn reset_skeleton(&mut self, geometry: &MemGeometry, words: usize) {
        let trace = match self.trace.take() {
            Some(mut t) => {
                t.geometry = *geometry;
                t.steps.clear();
                if t.per_word.len() == words {
                    for ops in &mut t.per_word {
                        ops.clear();
                    }
                } else {
                    t.per_word.clear();
                    t.per_word.resize_with(words, Vec::new);
                }
                t.golden_miscompares.clear();
                t.word_class.clear();
                t.uniform_interleave = false;
                t
            }
            None => CompiledTrace {
                geometry: *geometry,
                steps: Vec::new(),
                per_word: vec![Vec::new(); words],
                golden_miscompares: Vec::new(),
                word_class: Vec::new(),
                uniform_interleave: false,
            },
        };
        self.trace = Some(trace);
    }

    /// Moves checkpoints past `keep` into the spare pool (their buffers
    /// are recycled by the next [`Self::push_checkpoint`]).
    fn retire_checkpoints(&mut self, keep: usize) {
        while self.checkpoints.len() > keep {
            self.spare.push(self.checkpoints.pop().expect("len checked"));
        }
    }

    /// Snapshots the live replay state as the checkpoint after the element
    /// just compiled.
    fn push_checkpoint(&mut self, steps: u32, miscompares: u32) {
        let mut ck = self.spare.pop().unwrap_or_default();
        ck.steps = steps;
        ck.now_ns = self.now_ns;
        ck.miscompares = miscompares;
        ck.values.clone_from(&self.values);
        ck.last_read.clone_from(&self.last_read);
        ck.word_hash.clone_from(&self.word_hash);
        self.checkpoints.push(ck);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::expand;
    use crate::library;
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
                (0..8).all(|w| trace.word_class(w) == trace.word_class(0)),
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
        // A word with a different data pattern gets its own content class.
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
        assert_ne!(trace.word_class(0), trace.word_class(1));
        assert_eq!(trace.word_class(0), trace.word_class(2));
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

    /// Field-by-field equality of two compiled traces, including the op
    /// projections the engines consume (`Debug` renders `f64` timestamps
    /// with round-trip precision, so this is bit-exact).
    fn assert_trace_eq(a: &CompiledTrace, b: &CompiledTrace, what: &str) {
        assert_eq!(a.geometry, b.geometry, "{what}: geometry");
        assert_eq!(a.steps, b.steps, "{what}: steps");
        assert_eq!(
            format!("{:?}", a.per_word),
            format!("{:?}", b.per_word),
            "{what}: per-word ops"
        );
        assert_eq!(a.golden_miscompares, b.golden_miscompares, "{what}: miscompares");
        assert_eq!(a.word_class, b.word_class, "{what}: word classes");
        assert_eq!(a.uniform_interleave, b.uniform_interleave, "{what}: certificate");
    }

    #[test]
    fn arena_matches_reference_compile_across_shapes() {
        // One arena compiles a mixed stream of tests — single-pass
        // (fast path), pause-carrying and multi-background/multi-port
        // (slow path) — and every result must be bit-identical to a cold
        // reference compile. Interleaving shapes also proves fast→slow→fast
        // transitions never leak state.
        let bit = MemGeometry::bit_oriented(8);
        let word = MemGeometry::word_oriented(8, 4);
        let multi = MemGeometry::new(8, 1, 2);
        let cases: Vec<(MarchTest, MemGeometry)> = vec![
            (library::mats(), bit),
            (library::march_c(), bit),
            (library::march_c_plus(), bit), // pauses: slow path
            (library::march_c(), word),     // 3 backgrounds: slow path
            (library::march_b(), bit),
            (library::mats_plus(), multi), // 2 ports: slow path
            (library::march_c(), bit),     // back to the fast path
        ];
        let mut arena = TraceArena::new();
        for (test, g) in &cases {
            let opts = ExpandOptions::for_geometry(g);
            let got = arena.compile(test, g, &opts);
            let want = CompiledTrace::compile(test, g, &opts);
            assert_trace_eq(got, &want, test.name());
        }
    }

    #[test]
    fn arena_prefix_reuse_is_exact() {
        // Candidate-style recompiles that exercise every prefix-sharing
        // case: tail mutation, mid-element removal (shrink), pure prefix
        // (tail removal), growth, and a full rewrite.
        use crate::element::AddressOrder;
        use crate::op::MarchOp;
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
            let want = CompiledTrace::compile(&test, &g, &opts);
            assert_trace_eq(got, &want, test.name());
        }
    }

    #[test]
    fn arena_survives_geometry_and_option_switches() {
        let mut arena = TraceArena::new();
        for g in [MemGeometry::bit_oriented(4), MemGeometry::bit_oriented(16)] {
            for opts in [ExpandOptions::minimal(&g), ExpandOptions::for_geometry(&g)] {
                let got = arena.compile(&library::march_c(), &g, &opts);
                let want = CompiledTrace::compile(&library::march_c(), &g, &opts);
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

//! Lane-packed bit-parallel fault simulation over a [`CompiledTrace`].
//!
//! This is the one fast engine: every packed call, from a whole coverage
//! universe to the single fault of [`CompiledTrace::detect`], goes through
//! a [`UniversePlan`], and full replay ([`CompiledTrace::detect_full`]) is
//! the oracle. The plan packs up to [`LANES`] faults into the bit lanes of
//! `[u64; 4]` state vectors and replays a shared access program **once
//! per batch** with branch-free bitwise lane updates (the classic
//! bit-parallel single-fault propagation trick, applied across faults
//! instead of across patterns).
//!
//! Every address-local class vectorizes: the combinational classes (SAF,
//! TF, CFin, CFid, CFst), stuck-open faults (the per-port sense-amp latch
//! becomes a previous-read-latch formula resolved per op at build time),
//! retention and pull-open decay (decay deadlines are precomputed from the
//! trace's pause-adjusted timestamps into per-op `decayed` flags), and
//! fixed-shape five-cell NPSF neighborhoods (neighborhood activation is
//! reconstructed from the golden neighbor values at build time, so the
//! lane update is a compile-time branch). Decoder faults have no lane form:
//! a two-word replay of the pair they wire together decides them
//! ([`detect_decoder`]), once per fault on a general trace and once per
//! verdict key on an address-uniform one. It works on whole words, so one
//! replay decides every bit column at once. Hand-made NPSF neighborhoods
//! that reuse a word have neither form and replay in full.
//!
//! # Lane encoding
//!
//! Lane `i` of a batch holds fault `i`'s scalar state: bit `i` of `vic` is
//! the victim cell's stored value, bit `i` of `agg` the aggressor cell's
//! (coupling faults only), and bit `i` of `detected` latches sticky
//! detection. Per-fault constants (stuck value, triggering direction,
//! forced value, activating state) become per-lane constant masks, so
//! `sa0`/`sa1` — and rising/falling or forced-0/forced-1 variants of the
//! coupling classes — share batches. The invariant is per *lane vector*:
//! a `Lanes` value is `[u64; 4]`, bit `i % 64` of block `i / 64` belongs
//! to lane `i`, and every update touches all four blocks unconditionally
//! (the `live` mask confines partial final blocks).
//!
//! # Batch compatibility
//!
//! Two faults share a batch iff they have the same class **and** the same
//! *canonical access program*: the stream of support-word writes and reads
//! projected onto the fault's support bits (a [`Vec<SigOp>`] —
//! simultaneously the exact congruence key and the program the batch
//! executes), normalized for data background. Canonicalization complements
//! every projected data/expectation bit when the program's first
//! polarity-carrying bit is 1 and records a per-lane `flip` bit instead,
//! so faults whose projections are *complements* of each other — opposite
//! bit positions under a checkerboard background, or the same position
//! under complementary backgrounds — also share one batch, with their
//! per-lane constants XOR-corrected by the flip mask. Unchecked reads are
//! dropped whenever they carry no state (they advance stuck-open latches
//! and commit decay events, so those stay), and aggressor-word checked
//! reads are dropped because the aggressor cell never deviates from the
//! golden trace. Programs are content-deduplicated, so faults at
//! *different* addresses batch together whenever the expanded march
//! touches their words identically (the common case: march expansions are
//! address-uniform, so a 1024-word SAF universe compiles to a single
//! program).
//!
//! # Scheduling
//!
//! [`UniversePlan`] is the one scheduler: every packed call — coverage,
//! synthesis, the service, the search oracle — batches its universe
//! through a plan and runs it on the calling thread. On an address-uniform
//! trace every fault's work is fixed at plan time by a key — a route group,
//! a retention rank group or a decoder verdict group — so a run costs
//! about its distinct programs, whatever the universe size or word count.
//! Reports stay bit-identical to [`SimEngine::Full`](crate::SimEngine::Full)
//! — the equivalence the `packed_equivalence` proptest suite, the
//! `engine_corpus` regression corpus and this module's random-march
//! property test pin.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::{BitAnd, BitOr, BitOrAssign, BitXor, Not};
use std::sync::OnceLock;

use mbist_mem::{CellId, FaultKind, MemoryArray};

use crate::cancel::{CancelToken, CANCEL_CHECK_STRIDE};
use crate::trace::{CompiledTrace, FnvBuild, TraceOp, TraceOpKind};

/// `u64` blocks per lane vector.
const LANE_BLOCKS: usize = 4;

/// Lanes per batch: one fault per bit of the `[u64; 4]` state vectors.
const LANES: usize = 64 * LANE_BLOCKS;

/// A per-lane bit vector: bit `i % 64` of block `i / 64` belongs to lane
/// `i`. The bitwise operators apply blockwise, so the scalar update
/// formulas read unchanged from their `u64` ancestors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Lanes([u64; LANE_BLOCKS]);

impl Lanes {
    const ZERO: Self = Self([0; LANE_BLOCKS]);

    /// All lanes set to `b`.
    fn splat(b: bool) -> Self {
        Self([if b { u64::MAX } else { 0 }; LANE_BLOCKS])
    }

    /// The mask of the first `n` lanes (the live lanes of a partial batch).
    fn first(n: usize) -> Self {
        let mut blocks = [0u64; LANE_BLOCKS];
        for (i, block) in blocks.iter_mut().enumerate() {
            let low = i * 64;
            *block = if n >= low + 64 {
                u64::MAX
            } else if n > low {
                (1u64 << (n - low)) - 1
            } else {
                0
            };
        }
        Self(blocks)
    }

    fn set(&mut self, lane: usize) {
        self.0[lane / 64] |= 1u64 << (lane % 64);
    }

    /// Population count across all blocks (detected-lane tallies).
    fn count(self) -> usize {
        self.0.iter().map(|b| b.count_ones() as usize).sum()
    }
}

impl BitAnd for Lanes {
    type Output = Self;
    fn bitand(mut self, rhs: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            *a &= b;
        }
        self
    }
}

impl BitOr for Lanes {
    type Output = Self;
    fn bitor(mut self, rhs: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            *a |= b;
        }
        self
    }
}

impl BitXor for Lanes {
    type Output = Self;
    fn bitxor(mut self, rhs: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            *a ^= b;
        }
        self
    }
}

impl Not for Lanes {
    type Output = Self;
    fn not(mut self) -> Self {
        for a in &mut self.0 {
            *a = !*a;
        }
        self
    }
}

impl BitOrAssign for Lanes {
    fn bitor_assign(&mut self, rhs: Self) {
        *self = *self | rhs;
    }
}

/// What a stuck-open read observes: the sense amp repeats the previous
/// read on the port, which the builder resolves per op against the golden
/// trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PrevBit {
    /// No read yet on the port — the invalid latch reads 0.
    Invalid,
    /// The previous port read was of the fault's own word: repeat the
    /// lane's own previous (possibly deviated) observation.
    SelfLatch,
    /// The previous port read was of another word, which never deviates:
    /// its golden bit, known at build time.
    Golden(bool),
}

/// One access-program instruction: the trace projected onto a fault's
/// support bits. Derives `Eq + Hash` so a whole program doubles as the
/// batch-congruence key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SigOp {
    /// Write to the victim word; `d` is the data bit at the victim's bit
    /// position.
    WVic { d: bool },
    /// Write to the aggressor word (inter-word pairs only); `d` is the data
    /// bit at the aggressor's bit position.
    WAgg { d: bool },
    /// Write to the shared word of an intra-word pair: both projected bits
    /// commit in the same cycle, which is what the two-phase
    /// `victim_sensitized` rule keys on.
    WBoth { d_vic: bool, d_agg: bool },
    /// Checked read of the victim word. `expected` is the expectation bit
    /// at the victim position; `base_mismatch` records that the expectation
    /// already disagrees with the golden value on some *other* bit — a bit
    /// the fault cannot touch, so every live lane detects here.
    RVic { expected: bool, base_mismatch: bool },
    /// Stuck-open read: observe per [`PrevBit`], then latch the
    /// observation. Unchecked reads are kept (`expected: None`) — they
    /// advance the latch.
    RSof { port: u8, prev: PrevBit, expected: Option<bool>, base_mismatch: bool },
    /// Retention / pull-open read. `decayed` is the build-time verdict of
    /// the decay schedule (pause-adjusted timestamps for retention, the
    /// consecutive-read counter for pull-open): a decayed read stores the
    /// lane's forced value before observing. Undecayed unchecked reads are
    /// dropped.
    RDecay { decayed: bool, expected: Option<bool>, base_mismatch: bool },
    /// Static-NPSF base read: `active` is the build-time verdict of the
    /// neighborhood pattern against the golden neighbor values — an active
    /// read observes the lane's forced value instead of the store.
    RNpsf { active: bool, expected: bool, base_mismatch: bool },
    /// Active-NPSF trigger event: the trigger cell transitioned in the
    /// sensitizing direction while the deleted neighborhood held the
    /// activation pattern (both build-time facts), flipping the base cell.
    Flip,
}

/// Which branch-free update rules a batch runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum LaneClass {
    StuckAt,
    Transition,
    CouplingInversion,
    CouplingIdempotent,
    CouplingState,
    StuckOpen,
    /// Retention and pull-open share one rule: the decay *schedule* lives
    /// in the program, only the decayed-to value is per lane.
    Decay,
    NpsfStatic,
    NpsfActive,
}

/// The decay schedule of a retention / pull-open fault — part of the build
/// key, because faults on one cell with different deadlines or read
/// budgets decay at different ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum DecayRule {
    /// Retention: decayed iff `now_ns - last_write_ns > retention_ns`
    /// (bits of the `f64` threshold, hashable and exact).
    Retention { ns_bits: u64 },
    /// Pull-open: drained when the consecutive-read count exceeds the
    /// budget.
    PullOpen { good_reads: u8 },
}

/// The support shape of a five-cell NPSF fault, in role order: base first,
/// then the trigger (active) or the type-1 neighborhood (static), with the
/// activation pattern bit `i` holding `cells[i + 1]`'s value (bit 0 unused
/// for the active family — the trigger has no level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct NpsfShape {
    class: LaneClass,
    cells: [CellId; 5],
    pattern: u8,
    /// Active-family trigger direction (`false` for the static family).
    rising: bool,
}

/// One fault lowered to lane form: support cells plus the per-lane
/// constants that parameterize the class's update rule.
#[derive(Clone, Copy)]
struct LaneSpec {
    class: LaneClass,
    vic: CellId,
    agg: Option<CellId>,
    npsf: Option<NpsfShape>,
    decay: Option<DecayRule>,
    /// SAF stuck value.
    stuck: bool,
    /// TF / CFin / CFid triggering direction.
    rising: bool,
    /// CFid / CFst / NPSF forced value, and the decayed-to value of the
    /// decay family.
    forced: bool,
    /// CFst activating aggressor state.
    when: bool,
}

/// Whether the packed engine simulates `fault` in a bit lane, as opposed
/// to the plan's per-fault replays (the two-word decoder replay, or full
/// replay) — the exact [`UniversePlan`] eligibility rule, and the basis of
/// the routing breakdown in [`crate::coverage`].
pub(crate) fn lane_packable(fault: FaultKind) -> bool {
    lane_spec(fault).is_some()
}

/// Lowers a fault to lane form, or `None` when it has none (decoder faults,
/// and hand-made NPSF neighborhoods whose five support cells do not land in
/// five distinct words).
fn lane_spec(fault: FaultKind) -> Option<LaneSpec> {
    let blank = |class, vic, agg| LaneSpec {
        class,
        vic,
        agg,
        npsf: None,
        decay: None,
        stuck: false,
        rising: false,
        forced: false,
        when: false,
    };
    let distinct = |cells: &[CellId; 5]| {
        cells.iter().enumerate().all(|(i, c)| cells[..i].iter().all(|o| o.word != c.word))
    };
    match fault {
        FaultKind::StuckAt { cell, value } => {
            Some(LaneSpec { stuck: value, ..blank(LaneClass::StuckAt, cell, None) })
        }
        FaultKind::Transition { cell, rising } => {
            Some(LaneSpec { rising, ..blank(LaneClass::Transition, cell, None) })
        }
        FaultKind::CouplingInversion { aggressor, victim, rising } => Some(LaneSpec {
            rising,
            ..blank(LaneClass::CouplingInversion, victim, Some(aggressor))
        }),
        FaultKind::CouplingIdempotent { aggressor, victim, rising, forced } => {
            Some(LaneSpec {
                rising,
                forced,
                ..blank(LaneClass::CouplingIdempotent, victim, Some(aggressor))
            })
        }
        FaultKind::CouplingState { aggressor, victim, when, forced } => Some(LaneSpec {
            when,
            forced,
            ..blank(LaneClass::CouplingState, victim, Some(aggressor))
        }),
        FaultKind::StuckOpen { cell } => Some(blank(LaneClass::StuckOpen, cell, None)),
        FaultKind::Retention { cell, decays_to, retention_ns } => Some(LaneSpec {
            decay: Some(DecayRule::Retention { ns_bits: retention_ns.to_bits() }),
            forced: decays_to,
            ..blank(LaneClass::Decay, cell, None)
        }),
        FaultKind::PullOpen { cell, good_reads, decays_to } => Some(LaneSpec {
            decay: Some(DecayRule::PullOpen { good_reads }),
            forced: decays_to,
            ..blank(LaneClass::Decay, cell, None)
        }),
        FaultKind::NpsfStatic { base, neighborhood, forced } => {
            let cells = [
                base,
                neighborhood[0].0,
                neighborhood[1].0,
                neighborhood[2].0,
                neighborhood[3].0,
            ];
            if !distinct(&cells) {
                return None;
            }
            let pattern = neighborhood
                .iter()
                .enumerate()
                .fold(0u8, |p, (i, &(_, v))| p | (u8::from(v) << i));
            Some(LaneSpec {
                npsf: Some(NpsfShape {
                    class: LaneClass::NpsfStatic,
                    cells,
                    pattern,
                    rising: false,
                }),
                forced,
                ..blank(LaneClass::NpsfStatic, base, None)
            })
        }
        FaultKind::NpsfActive { base, trigger, rising, others } => {
            let cells = [base, trigger, others[0].0, others[1].0, others[2].0];
            if !distinct(&cells) {
                return None;
            }
            let pattern = others
                .iter()
                .enumerate()
                .fold(0u8, |p, (i, &(_, v))| p | (u8::from(v) << (i + 1)));
            Some(LaneSpec {
                npsf: Some(NpsfShape {
                    class: LaneClass::NpsfActive,
                    cells,
                    pattern,
                    rising,
                }),
                ..blank(LaneClass::NpsfActive, base, None)
            })
        }
        _ => None,
    }
}

/// The per-lane state of a batch — live lane count, class and constant
/// masks (bit `i` = lane `i`'s constant) — which is all [`run_batch`]
/// reads; a [`Slot`] pairs it with the lanes' universe indices.
#[derive(Debug, Clone, Copy)]
struct LaneMasks {
    class: LaneClass,
    /// Live lanes (the rest of the vector is confined by the live mask).
    lanes: usize,
    /// Constant masks, already in canonical (flip-corrected) space.
    stuck: Lanes,
    rising: Lanes,
    forced: Lanes,
    when: Lanes,
    /// Lanes whose projections were complemented by canonicalization: the
    /// canonical image of their real power-up-0 state is 1.
    flip: Lanes,
    /// Lanes detected before the walk starts (a golden miscompare at any
    /// word other than the lane's victim word replays identically under the
    /// fault, deciding detection on its own).
    pre_detected: Lanes,
}

impl LaneMasks {
    fn new(class: LaneClass) -> Self {
        Self {
            class,
            lanes: 0,
            stuck: Lanes::ZERO,
            rising: Lanes::ZERO,
            forced: Lanes::ZERO,
            when: Lanes::ZERO,
            flip: Lanes::ZERO,
            pre_detected: Lanes::ZERO,
        }
    }

    /// Appends one lane holding `spec`'s constants, flip-corrected.
    fn push(&mut self, spec: &LaneSpec, flipped: bool, pre_detected: bool) {
        let lane = self.lanes;
        self.lanes += 1;
        if spec.stuck ^ flipped {
            self.stuck.set(lane);
        }
        if spec.rising ^ flipped {
            self.rising.set(lane);
        }
        if spec.forced ^ flipped {
            self.forced.set(lane);
        }
        if spec.when ^ flipped {
            self.when.set(lane);
        }
        if flipped {
            self.flip.set(lane);
        }
        if pre_detected {
            self.pre_detected.set(lane);
        }
    }

    /// Re-bases raw (never-flipped) masks into `flipped` canonical space —
    /// the whole batch shares one flip because its lanes share one route
    /// key, so the correction is a uniform XOR.
    fn flip_corrected(mut self, flipped: bool) -> Self {
        if flipped {
            let all = Lanes::splat(true);
            self.stuck = self.stuck ^ all;
            self.rising = self.rising ^ all;
            self.forced = self.forced ^ all;
            self.when = self.when ^ all;
            self.flip = all;
        }
        self
    }
}

/// The lanes of one batch: up to [`LANES`] same-class faults sharing one
/// canonical program, as the masks [`run_batch`] reads plus each lane's
/// universe index (where its flag lands).
struct Slot {
    masks: LaneMasks,
    faults: Vec<u32>,
}

impl Slot {
    fn new(class: LaneClass) -> Self {
        Self { masks: LaneMasks::new(class), faults: Vec::new() }
    }

    fn push(&mut self, spec: &LaneSpec, index: u32, flipped: bool, pre_detected: bool) {
        self.masks.push(spec, flipped, pre_detected);
        self.faults.push(index);
    }

    /// Empties the slot, keeping its index buffer.
    fn clear(&mut self) {
        self.masks = LaneMasks::new(self.masks.class);
        self.faults.clear();
    }
}

/// Builds the access program for a plain `(victim, aggressor)` support
/// shape into `program`: the step-ordered merge of the victim- and
/// aggressor-word op lists, projected onto the two support bits (see
/// [`SigOp`]).
fn build_plain(
    trace: &CompiledTrace,
    vic: CellId,
    agg: Option<CellId>,
    program: &mut Vec<SigOp>,
) {
    let vic_bit = 1u64 << vic.bit;
    let rvic = |expected: Option<u64>, golden: u64| {
        expected.map(|e| SigOp::RVic {
            expected: e & vic_bit != 0,
            base_mismatch: (e ^ golden) & !vic_bit != 0,
        })
    };
    match agg {
        // Single-cell fault: one op list, one projected bit.
        None => {
            for op in trace.ops_for_word(vic.word) {
                match op.kind {
                    TraceOpKind::Write(data) => {
                        program.push(SigOp::WVic { d: data & vic_bit != 0 });
                    }
                    TraceOpKind::Read { expected, golden, .. } => {
                        program.extend(rvic(expected, golden));
                    }
                }
            }
        }
        // Intra-word pair: one op list, writes carry both projected bits.
        Some(a) if a.word == vic.word => {
            let agg_bit = 1u64 << a.bit;
            for op in trace.ops_for_word(vic.word) {
                match op.kind {
                    TraceOpKind::Write(data) => program.push(SigOp::WBoth {
                        d_vic: data & vic_bit != 0,
                        d_agg: data & agg_bit != 0,
                    }),
                    TraceOpKind::Read { expected, golden, .. } => {
                        program.extend(rvic(expected, golden));
                    }
                }
            }
        }
        // Inter-word pair: two-way merge back into stream order. Reads of
        // the aggressor word are dropped — the aggressor cell never
        // deviates from the golden trace, so they can neither miscompare
        // nor change state.
        Some(a) => {
            let agg_bit = 1u64 << a.bit;
            let (vs, ags) = (trace.ops_for_word(vic.word), trace.ops_for_word(a.word));
            let (mut i, mut j) = (0, 0);
            while i < vs.len() || j < ags.len() {
                let take_vic = j >= ags.len() || (i < vs.len() && vs[i].step < ags[j].step);
                if take_vic {
                    match vs[i].kind {
                        TraceOpKind::Write(data) => {
                            program.push(SigOp::WVic { d: data & vic_bit != 0 });
                        }
                        TraceOpKind::Read { expected, golden, .. } => {
                            program.extend(rvic(expected, golden));
                        }
                    }
                    i += 1;
                } else {
                    if let TraceOpKind::Write(data) = ags[j].kind {
                        program.push(SigOp::WAgg { d: data & agg_bit != 0 });
                    }
                    j += 1;
                }
            }
        }
    }
}

/// Builds the stuck-open program for one cell into `program`: writes
/// vanish (the disconnected cell never stores), so the program is the
/// word's reads, each resolving what the port's sense latch held — the
/// lane's own previous observation when the previous port read was this
/// word, the golden bit of that read otherwise. `last_self_read` is
/// per-port scratch.
fn build_sof(
    trace: &CompiledTrace,
    cell: CellId,
    last_self_read: &mut Vec<Option<u32>>,
    program: &mut Vec<SigOp>,
) {
    let bit = 1u64 << cell.bit;
    last_self_read.clear();
    last_self_read.resize(usize::from(trace.geometry().ports()), None);
    for op in trace.ops_for_word(cell.word) {
        if let TraceOpKind::Read { expected, golden, prev_read } = op.kind {
            let port = usize::from(op.port.0);
            let prev = match prev_read {
                None => PrevBit::Invalid,
                Some(pr) if last_self_read[port] == Some(pr.step) => PrevBit::SelfLatch,
                Some(pr) => PrevBit::Golden(pr.golden & bit != 0),
            };
            program.push(SigOp::RSof {
                port: op.port.0,
                prev,
                expected: expected.map(|e| e & bit != 0),
                base_mismatch: expected.is_some_and(|e| (e ^ golden) & !bit != 0),
            });
            last_self_read[port] = Some(op.step);
        }
    }
}

/// Builds the retention / pull-open program for bit `bit` of a word whose
/// op list is `ops` and whose `j`-th access runs at `now_ns(j)` into
/// `program`: writes commit normally, and each read carries the build-time
/// decay verdict of the rule's schedule (wall-clock deadline or
/// consecutive-read budget — both functions of the trace alone, never of
/// the lane values). The pull-open schedule reads only the op content,
/// never a timestamp.
fn build_decay(
    ops: &[TraceOp],
    bit: u8,
    rule: DecayRule,
    now_ns: impl Fn(usize) -> f64,
    program: &mut Vec<SigOp>,
) {
    let bit = 1u64 << bit;
    let mut last_write_ns = 0.0f64;
    let mut consecutive_reads = 0u8;
    for (j, op) in ops.iter().enumerate() {
        match op.kind {
            TraceOpKind::Write(data) => {
                last_write_ns = now_ns(j);
                consecutive_reads = 0;
                program.push(SigOp::WVic { d: data & bit != 0 });
            }
            TraceOpKind::Read { expected, golden, .. } => {
                let decayed = match rule {
                    DecayRule::Retention { ns_bits } => {
                        let now = now_ns(j);
                        let hit = now - last_write_ns > f64::from_bits(ns_bits);
                        if hit {
                            // The decayed store refreshes the cell like any
                            // write.
                            last_write_ns = now;
                        }
                        hit
                    }
                    DecayRule::PullOpen { good_reads } => {
                        consecutive_reads = consecutive_reads.saturating_add(1);
                        let hit = consecutive_reads > good_reads;
                        if hit {
                            consecutive_reads = 0;
                        }
                        hit
                    }
                };
                if decayed || expected.is_some() {
                    program.push(SigOp::RDecay {
                        decayed,
                        expected: expected.map(|e| e & bit != 0),
                        base_mismatch: expected.is_some_and(|e| (e ^ golden) & !bit != 0),
                    });
                }
            }
        }
    }
}

/// Builds the NPSF program for a five-distinct-word shape into `program`:
/// a five-way step-ordered merge that tracks the golden values of the
/// non-base support cells (they never deviate — the base is the only cell
/// a neighborhood fault touches), resolving neighborhood activation and
/// trigger events at build time.
fn build_npsf(trace: &CompiledTrace, shape: &NpsfShape, program: &mut Vec<SigOp>) {
    let base = shape.cells[0];
    let base_bit = 1u64 << base.bit;
    let lists = shape.cells.map(|c| trace.ops_for_word(c.word));
    let mut cursor = [0usize; 5];
    // Golden values of the support cells (power-up 0); slot 0 (the base)
    // is unused — the base's stored value lives in the lanes.
    let mut held = [false; 5];
    let matches_pattern = |held: &[bool; 5], from: usize| {
        (from..5).all(|k| held[k] == (shape.pattern >> (k - 1) & 1 == 1))
    };
    loop {
        let mut next: Option<usize> = None;
        for i in 0..5 {
            if cursor[i] < lists[i].len()
                && next.is_none_or(|j: usize| {
                    lists[i][cursor[i]].step < lists[j][cursor[j]].step
                })
            {
                next = Some(i);
            }
        }
        let Some(i) = next else { break };
        let op = lists[i][cursor[i]];
        cursor[i] += 1;
        if i == 0 {
            match op.kind {
                TraceOpKind::Write(data) => {
                    program.push(SigOp::WVic { d: data & base_bit != 0 });
                }
                TraceOpKind::Read { expected, golden, .. } => {
                    let Some(e) = expected else { continue };
                    let expected = e & base_bit != 0;
                    let base_mismatch = (e ^ golden) & !base_bit != 0;
                    if shape.class == LaneClass::NpsfStatic {
                        let active = matches_pattern(&held, 1);
                        program.push(SigOp::RNpsf { active, expected, base_mismatch });
                    } else {
                        program.push(SigOp::RVic { expected, base_mismatch });
                    }
                }
            }
        } else if let TraceOpKind::Write(data) = op.kind {
            let new = data >> shape.cells[i].bit & 1 == 1;
            let old = held[i];
            held[i] = new;
            // Active-family trigger: a transition of the trigger cell in
            // the sensitizing direction while the deleted neighborhood
            // holds the activation pattern flips the base.
            if shape.class == LaneClass::NpsfActive
                && i == 1
                && old != new
                && new == shape.rising
                && matches_pattern(&held, 2)
            {
                program.push(SigOp::Flip);
            }
        }
    }
}

/// Canonicalizes a program for data background: if the first
/// polarity-carrying bit is 1, every projected data/expectation/golden bit
/// is complemented and `true` is returned so the caller records the lane's
/// flip. Detection is computed in canonical space, where the global
/// complement cancels out of every comparison — so faults whose
/// projections are complements of each other share one batch. Structural
/// flags (`base_mismatch`, `decayed`, `active`, ports, trigger events) are
/// polarity-free and stay.
fn canonicalize(program: &mut [SigOp]) -> bool {
    let first_polarity = program.iter().find_map(|op| match *op {
        SigOp::WVic { d } | SigOp::WAgg { d } | SigOp::WBoth { d_vic: d, .. } => Some(d),
        SigOp::RVic { expected, .. } | SigOp::RNpsf { expected, .. } => Some(expected),
        SigOp::RSof { expected: Some(e), .. } | SigOp::RDecay { expected: Some(e), .. } => {
            Some(e)
        }
        SigOp::RSof { prev: PrevBit::Golden(b), .. } => Some(b),
        SigOp::RSof { .. } | SigOp::RDecay { .. } | SigOp::Flip => None,
    });
    if first_polarity != Some(true) {
        return false;
    }
    for op in program {
        match op {
            SigOp::WVic { d } | SigOp::WAgg { d } => *d = !*d,
            SigOp::WBoth { d_vic, d_agg } => {
                *d_vic = !*d_vic;
                *d_agg = !*d_agg;
            }
            SigOp::RVic { expected, .. } | SigOp::RNpsf { expected, .. } => {
                *expected = !*expected;
            }
            SigOp::RSof { prev, expected, .. } => {
                if let PrevBit::Golden(b) = prev {
                    *b = !*b;
                }
                if let Some(e) = expected {
                    *e = !*e;
                }
            }
            SigOp::RDecay { expected, .. } => {
                if let Some(e) = expected {
                    *e = !*e;
                }
            }
            SigOp::Flip => {}
        }
    }
    true
}

/// Executes one batch: a single replay of the shared canonical program
/// with branch-free per-lane updates, returning the sticky detected lane
/// vector. Each lane update is the exact projection of the corresponding
/// single-fault path in `mbist_mem::array` onto the fault's support bits,
/// in canonical space — the lane's real state is the canonical state XOR
/// its flip bit, and the XOR cancels out of every detection comparison.
/// `latch` is scratch for the per-port stuck-open sense latches.
fn run_batch(
    program: &[SigOp],
    batch: &LaneMasks,
    ports: u8,
    latch: &mut Vec<Lanes>,
) -> Lanes {
    let live = Lanes::first(batch.lanes);
    let splat = Lanes::splat;
    // SAF injection clamps the stored value immediately; everything else
    // powers up 0 like the array — whose canonical image is the flip mask.
    let mut vic = if batch.class == LaneClass::StuckAt { batch.stuck } else { batch.flip };
    let mut agg = batch.flip;
    // Per-port stuck-open sense latches (the value is unused until the
    // first read resolves it).
    latch.clear();
    if batch.class == LaneClass::StuckOpen {
        latch.resize(usize::from(ports), Lanes::ZERO);
    }
    let mut detected = batch.pre_detected & live;
    if detected == live {
        return detected;
    }
    for &op in program {
        match op {
            SigOp::WVic { d } => {
                let dm = splat(d);
                match batch.class {
                    LaneClass::StuckAt => vic = batch.stuck,
                    LaneClass::Transition => {
                        // A broken 0→1 (rising lanes) leaves the cell 0; a
                        // broken 1→0 leaves it 1.
                        let block_up = batch.rising & !vic & dm;
                        let block_down = !batch.rising & vic & !dm;
                        vic = (dm & !block_up) | block_down;
                    }
                    // Everything else commits plainly: coupling write-phase
                    // effects key on the *aggressor* word, decay and static
                    // NPSF are read-path effects, and stuck-open programs
                    // carry no writes at all.
                    _ => vic = dm,
                }
            }
            SigOp::WAgg { d } => {
                let dm = splat(d);
                let changed = agg ^ dm;
                // Fired: the aggressor actually transitioned and its new
                // value matches the lane's triggering direction. Inter-word
                // victims are always sensitized.
                let fired = changed & !(dm ^ batch.rising);
                match batch.class {
                    LaneClass::CouplingInversion => vic = vic ^ fired,
                    LaneClass::CouplingIdempotent => {
                        vic = (vic & !fired) | (batch.forced & fired);
                    }
                    // CFst has no write-phase effect; other classes never
                    // contain WAgg.
                    _ => {}
                }
                agg = dm;
            }
            SigOp::WBoth { d_vic, d_agg } => {
                let (dv, da) = (splat(d_vic), splat(d_agg));
                // Intra-word sensitization: the coupling only lands if the
                // same write did not *also* change the victim bit.
                let fired = (agg ^ da) & !(da ^ batch.rising) & !(vic ^ dv);
                match batch.class {
                    LaneClass::CouplingInversion => vic = dv ^ fired,
                    LaneClass::CouplingIdempotent => {
                        vic = (dv & !fired) | (batch.forced & fired);
                    }
                    _ => vic = dv,
                }
                agg = da;
            }
            SigOp::RVic { expected, base_mismatch } => {
                let obs = match batch.class {
                    // The read path clamps too (storage already is).
                    LaneClass::StuckAt => batch.stuck,
                    // State coupling masks the observation, not the store.
                    LaneClass::CouplingState => {
                        let active = !(agg ^ batch.when);
                        (active & batch.forced) | (!active & vic)
                    }
                    _ => vic,
                };
                let miss = if base_mismatch { live } else { obs ^ splat(expected) };
                detected |= miss & live;
                if detected == live {
                    return detected;
                }
            }
            SigOp::RSof { port, prev, expected, base_mismatch } => {
                // The sense amp repeats the previous port read; the invalid
                // latch reads 0, whose canonical image is the flip mask.
                let obs = match prev {
                    PrevBit::Invalid => batch.flip,
                    PrevBit::SelfLatch => latch[usize::from(port)],
                    PrevBit::Golden(b) => splat(b),
                };
                latch[usize::from(port)] = obs;
                if let Some(e) = expected {
                    let miss = if base_mismatch { live } else { obs ^ splat(e) };
                    detected |= miss & live;
                    if detected == live {
                        return detected;
                    }
                }
            }
            SigOp::RDecay { decayed, expected, base_mismatch } => {
                if decayed {
                    // The decayed store commits before observation.
                    vic = batch.forced;
                }
                if let Some(e) = expected {
                    let miss = if base_mismatch { live } else { vic ^ splat(e) };
                    detected |= miss & live;
                    if detected == live {
                        return detected;
                    }
                }
            }
            SigOp::RNpsf { active, expected, base_mismatch } => {
                let obs = if active { batch.forced } else { vic };
                let miss = if base_mismatch { live } else { obs ^ splat(expected) };
                detected |= miss & live;
                if detected == live {
                    return detected;
                }
            }
            SigOp::Flip => vic = !vic,
        }
    }
    detected
}

/// Program store, deduplicated per canonical content: faults at different
/// addresses — or under complementary backgrounds — whose canonical
/// programs coincide share one batch.
///
/// Every build writes into one reused buffer. The buffer is compared with
/// the program the previous build resolved to before the content map is
/// consulted (consecutive faults usually build the same program), and it
/// is copied out only when its content is new.
#[derive(Default)]
struct Programs {
    store: Vec<Vec<SigOp>>,
    by_content: HashMap<Vec<SigOp>, usize, FnvBuild>,
    /// The build buffer.
    build: Vec<SigOp>,
    /// Per-port scratch of the stuck-open builds.
    self_reads: Vec<Option<u32>>,
    /// The program the previous build resolved to.
    last: Option<usize>,
}

impl Programs {
    /// Forgets every program, keeping the buffers (the next trace).
    fn clear(&mut self) {
        self.store.clear();
        self.by_content.clear();
        self.last = None;
    }

    /// Builds the canonical program of `spec` and resolves it against the
    /// programs already stored. Returns the program id plus the flip the
    /// fault's lane must record.
    fn id_for(&mut self, trace: &CompiledTrace, spec: &LaneSpec) -> (usize, bool) {
        let program = &mut self.build;
        program.clear();
        match spec.class {
            LaneClass::StuckOpen => {
                build_sof(trace, spec.vic, &mut self.self_reads, program)
            }
            LaneClass::Decay => {
                let ops = trace.ops_for_word(spec.vic.word);
                let rule = spec.decay.expect("decay rule");
                build_decay(ops, spec.vic.bit, rule, |j| ops[j].now_ns, program);
            }
            LaneClass::NpsfStatic | LaneClass::NpsfActive => {
                build_npsf(trace, &spec.npsf.expect("npsf shape"), program);
            }
            _ => build_plain(trace, spec.vic, spec.agg, program),
        }
        self.resolve()
    }

    /// Canonicalizes the build buffer and resolves it against the programs
    /// already stored. Returns the program id plus the flip the lanes must
    /// record.
    fn resolve(&mut self) -> (usize, bool) {
        let flipped = canonicalize(&mut self.build);
        let id = match self.last {
            Some(last) if self.store[last] == self.build => last,
            _ => match self.by_content.get(self.build.as_slice()) {
                Some(&id) => id,
                None => {
                    let id = self.store.len();
                    self.store.push(self.build.clone());
                    self.by_content.insert(self.build.clone(), id);
                    id
                }
            },
        };
        self.last = Some(id);
        (id, flipped)
    }
}

/// Where a word sits in every element's visit order — the only place
/// stuck-open programs differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Edge {
    /// Address 0: visited first by every ⇑ element, last by every ⇓ one.
    Lowest,
    Interior,
    /// The top address: visited first by every ⇓ element, last by every ⇑
    /// one.
    Highest,
}

/// A fault's O(1) batch route under a [`UniversePlan`]'s certificate —
/// the key the plan groups faults by. Every word carries the same op
/// content in address-rank order, so faults with equal keys provably
/// share an access program, and one representative build serves them all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RouteKey {
    Plain {
        class: LaneClass,
        /// 0 = single cell, 1 = intra-word pair, 2 = inter-word pair with
        /// victim at the lower address, 3 = with aggressor at the lower
        /// address.
        shape: u8,
        vic_bit: u8,
        agg_bit: u8,
    },
    /// A five-cell NPSF fault: every word's op list is one segment
    /// projection per march element, ordered by address rank, so the
    /// merged projection of the five support words — and with it the built
    /// program — depends only on their bit positions, relative address
    /// order, and the activation parameters. ~tens of keys cover a whole
    /// NPSF universe instead of one five-way merge per fault.
    Npsf {
        class: LaneClass,
        bits: [u8; 5],
        /// Relative address rank of each support word among the five (the
        /// words are pairwise distinct, so ranks are a permutation).
        rank: [u8; 5],
        pattern: u8,
        rising: bool,
    },
    /// A pull-open fault: its program reads only op kinds, write data,
    /// expectations and golden values — the content every word carries
    /// identically — so it depends only on the bit position and the read
    /// budget.
    PullOpen { bit: u8, good_reads: u8 },
    /// A stuck-open fault: the sense latch holds the port's previous read.
    /// An interior word's first read on a port in each element latches the
    /// golden read of the neighbour visited just before it (same element,
    /// same content), and its later reads latch itself. Only the lowest
    /// and highest words see element boundaries — the previous element's
    /// last read, or the invalid latch — so the program depends only on
    /// the bit position and the edge.
    StuckOpen { bit: u8, edge: Edge },
}

/// The route of `spec` on a `words`-word memory under the plan's
/// certificate, or `None` for a retention fault, whose program depends on
/// its word's access times: the plan groups those by address rank instead
/// ([`RankGroup`]).
fn route_of(spec: &LaneSpec, words: u64) -> Option<RouteKey> {
    match spec.class {
        LaneClass::StuckAt
        | LaneClass::Transition
        | LaneClass::CouplingInversion
        | LaneClass::CouplingIdempotent
        | LaneClass::CouplingState => {
            let (shape, agg_bit) = match spec.agg {
                None => (0, 0),
                Some(a) if a.word == spec.vic.word => (1, a.bit),
                Some(a) => (if spec.vic.word < a.word { 2 } else { 3 }, a.bit),
            };
            Some(RouteKey::Plain {
                class: spec.class,
                shape,
                vic_bit: spec.vic.bit,
                agg_bit,
            })
        }
        LaneClass::NpsfStatic | LaneClass::NpsfActive => {
            let shape = spec.npsf.as_ref().expect("npsf shape");
            let mut bits = [0u8; 5];
            let mut rank = [0u8; 5];
            for (i, c) in shape.cells.iter().enumerate() {
                bits[i] = c.bit;
                rank[i] = shape.cells.iter().filter(|o| o.word < c.word).count() as u8;
            }
            Some(RouteKey::Npsf {
                class: spec.class,
                bits,
                rank,
                pattern: shape.pattern,
                rising: shape.rising,
            })
        }
        LaneClass::Decay => match spec.decay {
            Some(DecayRule::PullOpen { good_reads }) => {
                Some(RouteKey::PullOpen { bit: spec.vic.bit, good_reads })
            }
            _ => None,
        },
        LaneClass::StuckOpen => {
            let edge = match spec.vic.word {
                0 => Edge::Lowest,
                w if w + 1 == words => Edge::Highest,
                _ => Edge::Interior,
            };
            Some(RouteKey::StuckOpen { bit: spec.vic.bit, edge })
        }
    }
}

/// The canonical representative of the route group keyed `key`, given
/// its member `spec`: the same lane spec moved onto the lowest words,
/// keeping its bits, its words' relative order and its edge — single-cell,
/// intra-word and pull-open faults on word 0, inter-word pairs on words 0
/// and 1 in key order, NPSF cells on words 0–4 by rank, stuck-open faults
/// on word 0, 1 or `words − 1` by edge. The copy has the same key, so
/// under the plan's certificate it builds the program every member
/// shares, and every group's support lies in `{0..=4, words − 1}` whatever
/// the universe.
fn relocated(spec: &LaneSpec, key: RouteKey, words: u64) -> LaneSpec {
    let to = |cell: CellId, word: u64| CellId::new(word, cell.bit);
    let mut rep = *spec;
    match key {
        RouteKey::Plain { shape, .. } => {
            let (vic, agg) = match shape {
                0 | 1 => (0, 0),
                2 => (0, 1),
                _ => (1, 0),
            };
            rep.vic = to(spec.vic, vic);
            rep.agg = spec.agg.map(|a| to(a, agg));
        }
        RouteKey::Npsf { rank, .. } => {
            let shape = rep.npsf.as_mut().expect("npsf shape");
            for (cell, rank) in shape.cells.iter_mut().zip(rank) {
                *cell = to(*cell, u64::from(rank));
            }
            rep.vic = shape.cells[0];
        }
        RouteKey::PullOpen { .. } => rep.vic = to(spec.vic, 0),
        RouteKey::StuckOpen { edge, .. } => {
            let word = match edge {
                Edge::Lowest => 0,
                Edge::Interior => 1,
                Edge::Highest => words - 1,
            };
            rep.vic = to(spec.vic, word);
        }
    }
    rep
}

/// A route-key group of a [`UniversePlan`]: every member provably shares
/// one canonical program on any trace under the plan's certificate, so one
/// representative build serves every slot.
struct PlanGroup {
    /// The build representative: the first member, [`relocated`] onto the
    /// lowest words.
    rep: LaneSpec,
    /// The group's batches, with raw (never-flipped) lane masks, re-based
    /// by the group's canonicalization flip at run time.
    slots: Vec<Slot>,
}

/// The retention faults of one bit and deadline, in address order. Under
/// the timing certificate each op's time is affine in the word address
/// ([`RankClock`]), so is the time a read sees since the last write, and
/// each read's decay verdict flips at most once across the addresses: a
/// run splits them into a few intervals of constant verdicts
/// ([`decay_intervals`]), builds one program per interval, and gives it
/// the members in that interval as lanes.
struct RankGroup {
    bit: u8,
    /// The deadline, as [`DecayRule::Retention`] bits.
    ns_bits: u64,
    /// Member words, ascending (ties in universe order)…
    words: Vec<u64>,
    /// …and the members' universe indices, in the same order.
    faults: Vec<u32>,
    /// Bit `i` set: member `i` decays to 1 (its raw `forced` constant).
    forced: Vec<u64>,
}

/// The lanes `from..from + LANES` of the bit vector `bits`, shifted down
/// to lane 0 (bits past the end read 0).
fn lanes_at(bits: &[u64], from: usize) -> Lanes {
    let word = |k: usize| bits.get(k).copied().unwrap_or(0);
    let mut lanes = Lanes::ZERO;
    for (i, block) in lanes.0.iter_mut().enumerate() {
        let (k, shift) = ((from + 64 * i) / 64, from % 64);
        *block = if shift == 0 {
            word(k)
        } else {
            word(k) >> shift | word(k + 1) << (64 - shift)
        };
    }
    lanes
}

/// The access times of a trace under its timing certificate, read off its
/// lowest and highest words: op `j` of word `w` runs at an exact integer
/// number of ns, affine in `w`.
#[derive(Clone, Copy)]
struct RankClock<'t> {
    low: &'t [TraceOp],
    high: &'t [TraceOp],
    /// The top address (at least 1).
    span: i64,
}

impl<'t> RankClock<'t> {
    fn of(trace: &'t CompiledTrace) -> Self {
        let top = trace.geometry().words() - 1;
        let span = i64::try_from(top.max(1)).expect("words fit i64");
        Self { low: trace.ops_for_word(0), high: trace.ops_for_word(top), span }
    }

    fn at(&self, j: usize, word: u64) -> i64 {
        // Integers below 2^53 under the certificate: the casts are exact.
        let (low, high) = (self.low[j].now_ns as i64, self.high[j].now_ns as i64);
        low + (high - low) / self.span * word as i64
    }
}

/// Splits the addresses `0..words` into the intervals on which every read
/// of the lowest word's op list — whose content every word shares — has
/// one decay verdict against `retention_ns`, in address order. `pending`
/// is the worklist of intervals still to walk, each with its next op and
/// its last write or refresh.
fn decay_intervals(
    clock: RankClock<'_>,
    words: u64,
    retention_ns: f64,
    pending: &mut Vec<(u64, u64, usize, Option<usize>)>,
    out: &mut Vec<(u64, u64)>,
) {
    out.clear();
    pending.push((0, words - 1, 0, None));
    while let Some((lo, mut hi, from, mut last)) = pending.pop() {
        for (j, op) in clock.low.iter().enumerate().skip(from) {
            if let TraceOpKind::Write(_) = op.kind {
                last = Some(j);
                continue;
            }
            // Power-up counts as a write at 0 ns; integers below 2^53, so
            // the gap is exactly the one `build_decay` compares.
            let decayed = |w: u64| {
                let since = last.map_or(0, |i| clock.at(i, w));
                (clock.at(j, w) - since) as f64 > retention_ns
            };
            let verdict = decayed(lo);
            if decayed(hi) != verdict {
                // Affine in the address, so the verdict flips once: bisect
                // for the first address with the other one.
                let (mut a, mut b) = (lo, hi);
                while b - a > 1 {
                    let mid = a + (b - a) / 2;
                    if decayed(mid) == verdict {
                        a = mid;
                    } else {
                        b = mid;
                    }
                }
                pending.push((b, hi, j, last));
                hi = a;
            }
            if verdict {
                last = Some(j);
            }
        }
        out.push((lo, hi));
    }
    out.sort_unstable();
}

/// A decoder fault's verdict key under the certificate: the kind, the
/// wired polarity and, for a multi-access fault, whether its accessed
/// word is the lower one. The two-word decoder replay reads only the
/// pair's op lists, which carry the same content and merge in an order
/// fixed by which word is lower, so every fault with one key has one
/// verdict. A remap needs no order: every access of either word lands on
/// the same cell, and the merged op contents are the same in either
/// order.
fn decoder_key(fault: FaultKind) -> Option<(bool, bool, bool)> {
    match fault {
        FaultKind::AddressMap { .. } => Some((false, false, false)),
        FaultKind::AddressMulti { addr, extra, wired_and } => {
            Some((true, wired_and, addr < extra))
        }
        _ => None,
    }
}

/// The canonical representative of decoder verdict key `key`: the pair on
/// words 0 and 1, in key order.
fn decoder_rep((multi, wired_and, lower_first): (bool, bool, bool)) -> FaultKind {
    let (first, second) = if lower_first || !multi { (0, 1) } else { (1, 0) };
    if multi {
        FaultKind::AddressMulti { addr: first, extra: second, wired_and }
    } else {
        FaultKind::AddressMap { from: first, to: second }
    }
}

/// Two-word differential replay of an address-decoder fault. An
/// `AddressMap`/`AddressMulti` deviation is confined to the two words the
/// fault wires together — every other access replays identically to the
/// golden trace — so walking the merged op lists of those two words with
/// the remap / multi-access semantics of `mbist_mem::array` (remap first,
/// then multi expansion on the mapped address; reads combine wired-AND/OR)
/// decides detection exactly. A decoder fault acts on every bit column
/// alike, and the replay's word operations decide all of them at once.
fn detect_decoder(trace: &CompiledTrace, fault: FaultKind) -> bool {
    let (a, b) = fault.decoder_words().expect("decoder fault");
    // A fault-free miscompare at any other word replays identically under
    // the fault and decides detection on its own.
    if trace.golden_miscompares().iter().any(|&(_, w)| w != a && w != b) {
        return true;
    }
    let (ops_a, ops_b) = (trace.ops_for_word(a), trace.ops_for_word(b));
    // Physical values of the two words (power-up 0). For `AddressMap`,
    // word `a` (= `from`) is never physically accessed — reads and writes
    // of either address land on `b` (= `to`) — so only `val_b` matters.
    let (mut val_a, mut val_b) = (0u64, 0u64);
    let (mut i, mut j) = (0, 0);
    while i < ops_a.len() || j < ops_b.len() {
        let at_a = j >= ops_b.len() || (i < ops_a.len() && ops_a[i].step < ops_b[j].step);
        let op = if at_a { &ops_a[i] } else { &ops_b[j] };
        if at_a {
            i += 1;
        } else {
            j += 1;
        }
        match op.kind {
            TraceOpKind::Write(data) => match fault {
                FaultKind::AddressMap { .. } => val_b = data,
                FaultKind::AddressMulti { .. } => {
                    // A write to `addr` fans out to the extra word too; a
                    // write to `extra` is direct.
                    if at_a {
                        val_a = data;
                    }
                    val_b = data;
                }
                _ => unreachable!("decoder replay handles decoder faults only"),
            },
            TraceOpKind::Read { expected, .. } => {
                let observed = match fault {
                    FaultKind::AddressMap { .. } => val_b,
                    FaultKind::AddressMulti { wired_and, .. } => {
                        if at_a {
                            // Both word lines fire: the bit lines resolve
                            // wired-AND (or wired-OR).
                            if wired_and {
                                val_a & val_b
                            } else {
                                val_a | val_b
                            }
                        } else {
                            val_b
                        }
                    }
                    _ => unreachable!("decoder replay handles decoder faults only"),
                };
                if expected.is_some_and(|e| e != observed) {
                    return true;
                }
            }
        }
    }
    false
}

/// Decoder faults sharing one verdict key: one two-word replay of the
/// representative ([`decoder_rep`]) decides them all.
struct VerdictGroup {
    rep: FaultKind,
    faults: Vec<u32>,
}

/// A trace as a [`UniversePlan`] reads it: either a complete
/// [`CompiledTrace`] (every complete trace converts), or a
/// support-restricted compile from
/// [`TraceArena::compile_support`](crate::trace::TraceArena::compile_support),
/// whose per-word op lists cover only the plans' support words and which
/// carries no step stream. Only [`UniversePlan::count_detected`] accepts
/// it, and the wrapped trace is private to this module, so no other
/// engine can read a partial trace.
#[derive(Clone, Copy)]
pub(crate) struct SupportTrace<'a> {
    trace: &'a CompiledTrace,
    /// Whether every word's op list is present — the general path may read
    /// any word, so only a complete trace can take it.
    complete: bool,
}

impl<'a> SupportTrace<'a> {
    /// Wraps a compile that recorded only the plan's support words.
    pub(crate) fn restricted(trace: &'a CompiledTrace) -> Self {
        Self { trace, complete: false }
    }
}

impl<'a> From<&'a CompiledTrace> for SupportTrace<'a> {
    fn from(trace: &'a CompiledTrace) -> Self {
        Self { trace, complete: true }
    }
}

/// The buffers a [`UniversePlan`] reuses from one run to the next: the
/// program store with its build buffer, the general path's open batches,
/// the rank-interval scratch, and the lanes' sense-latch scratch.
#[derive(Default)]
pub(crate) struct PlanScratch {
    programs: Programs,
    /// The open batch of each `(class, program)`; emptied, not dropped,
    /// between runs, so their index buffers stay allocated.
    open: HashMap<(LaneClass, usize), Slot, FnvBuild>,
    /// The retention intervals of the deadline being replayed, and their
    /// worklist ([`decay_intervals`]).
    intervals: Vec<(u64, u64)>,
    pending: Vec<(u64, u64, usize, Option<usize>)>,
    latch: Vec<Lanes>,
}

/// Where a plan run delivers its verdicts: a count, plus one flag per
/// universe fault when the caller asked for flags. The run ends once the
/// count reaches `stop` or `cancel` trips.
struct Verdicts<'c> {
    count: usize,
    stop: usize,
    flags: Option<Vec<bool>>,
    cancel: &'c CancelToken,
}

impl Verdicts<'_> {
    /// Records a batch whose lane `i` holds universe fault `faults[i]`;
    /// returns whether the run is over.
    fn record(&mut self, detected: Lanes, faults: &[u32]) -> bool {
        self.count += detected.count();
        if let Some(flags) = &mut self.flags {
            for (block, mut bits) in detected.0.into_iter().enumerate() {
                while bits != 0 {
                    flags[faults[block * 64 + bits.trailing_zeros() as usize] as usize] =
                        true;
                    bits &= bits - 1;
                }
            }
        }
        self.done()
    }

    /// Credits one verdict to every fault in `faults`; returns whether the
    /// cap is reached (the caller polls the token).
    fn credit(&mut self, detected: bool, faults: &[u32]) -> bool {
        if detected {
            self.count += faults.len();
            if let Some(flags) = &mut self.flags {
                for &fault in faults {
                    flags[fault as usize] = true;
                }
            }
        }
        self.count >= self.stop
    }

    fn done(&self) -> bool {
        self.count >= self.stop || self.cancel.is_cancelled()
    }
}

/// One run of a plan: the trace, the caller's scratch, and where the
/// verdicts go.
struct Run<'r, 'c> {
    trace: &'r CompiledTrace,
    scratch: &'r mut PlanScratch,
    verdicts: &'r mut Verdicts<'c>,
}

impl Run<'_, '_> {
    /// Replays program `pid` over one batch; returns whether the run is
    /// over.
    fn batch(&mut self, pid: usize, masks: &LaneMasks, faults: &[u32]) -> bool {
        let PlanScratch { programs, latch, .. } = &mut *self.scratch;
        let ports = self.trace.geometry().ports();
        let detected = run_batch(&programs.store[pid], masks, ports, latch);
        self.verdicts.record(detected, faults)
    }

    /// Adds a lane to the open batch of its program, replaying the batch
    /// once its lanes are full; returns whether the run is over.
    fn lane(
        &mut self,
        spec: &LaneSpec,
        index: u32,
        (pid, flipped): (usize, bool),
        pre_detected: bool,
    ) -> bool {
        let PlanScratch { programs, open, latch, .. } = &mut *self.scratch;
        let slot = open.entry((spec.class, pid)).or_insert_with(|| Slot::new(spec.class));
        slot.push(spec, index, flipped, pre_detected);
        if slot.masks.lanes < LANES {
            return false;
        }
        let ports = self.trace.geometry().ports();
        let detected = run_batch(&programs.store[pid], &slot.masks, ports, latch);
        let over = self.verdicts.record(detected, &slot.faults);
        slot.clear();
        over
    }

    /// Replays the partially filled open batches; returns whether the run
    /// is over.
    fn flush(&mut self) -> bool {
        let PlanScratch { programs, open, latch, .. } = &mut *self.scratch;
        let ports = self.trace.geometry().ports();
        for (&(_, pid), slot) in open.iter().filter(|(_, slot)| slot.masks.lanes > 0) {
            let detected = run_batch(&programs.store[pid], &slot.masks, ports, latch);
            if self.verdicts.record(detected, &slot.faults) {
                return true;
            }
        }
        false
    }

    /// The verdict of `rep`, a fault with no lane form, credited to every
    /// fault in `faults`: the two-word replay for a decoder fault, a full
    /// replay on a fresh array otherwise. Returns whether the cap is
    /// reached (the caller polls the token).
    fn replay(&mut self, rep: FaultKind, faults: &[u32]) -> bool {
        let detected = if rep.decoder_words().is_some() {
            detect_decoder(self.trace, rep)
        } else {
            self.trace.detect_full(rep, &mut MemoryArray::new(self.trace.geometry()))
        };
        self.verdicts.credit(detected, faults)
    }

    /// Replays the rank groups: per deadline, the addresses split into
    /// intervals of constant decay verdicts, and a group's members in one
    /// interval share one program, built from the lowest word's content at
    /// the interval's first address. Returns whether the run is over.
    fn ranked(&mut self, groups: &[RankGroup]) -> bool {
        if groups.is_empty() {
            return false;
        }
        let g = self.trace.geometry();
        let clock = RankClock::of(self.trace);
        let PlanScratch { programs, intervals, pending, latch, .. } = &mut *self.scratch;
        let mut split_for = None;
        for group in groups {
            if split_for != Some(group.ns_bits) {
                let ns = f64::from_bits(group.ns_bits);
                decay_intervals(clock, g.words(), ns, pending, intervals);
                split_for = Some(group.ns_bits);
            }
            let rule = DecayRule::Retention { ns_bits: group.ns_bits };
            for &(lo, hi) in intervals.iter() {
                let start = group.words.partition_point(|&w| w < lo);
                let end = group.words.partition_point(|&w| w <= hi);
                if start == end {
                    continue;
                }
                programs.build.clear();
                let now_ns = |j| clock.at(j, lo) as f64;
                build_decay(clock.low, group.bit, rule, now_ns, &mut programs.build);
                let (pid, flipped) = programs.resolve();
                for from in (start..end).step_by(LANES) {
                    let lanes = (end - from).min(LANES);
                    let masks = LaneMasks {
                        lanes,
                        forced: lanes_at(&group.forced, from),
                        ..LaneMasks::new(LaneClass::Decay)
                    };
                    let masks = masks.flip_corrected(flipped);
                    let detected =
                        run_batch(&programs.store[pid], &masks, g.ports(), latch);
                    if self.verdicts.record(detected, &group.faults[from..from + lanes]) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

/// Which path a [`UniversePlan`] run takes (see the type doc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Uniform,
    General,
}

/// The packed engine's one scheduler: a fault universe batched once and
/// run, on the calling thread, against any number of traces of its
/// geometry — one coverage call, or the thousands of candidates a search
/// scores.
///
/// A run takes one of two paths, chosen per trace:
///
/// - **Uniform path**, when the plan's certificate holds: same geometry,
///   one content class across words (ports included), address-uniform
///   order, no fault-free miscompares and — when the plan holds retention
///   faults — access times that are exact integers affine in the address.
///   Every expanded march on three or more words that replays clean and
///   has no fractional pause holds it. Each fault's work is fixed at plan
///   time by a key, so a run costs about its distinct programs, not its
///   faults:
///   - *Route groups.* The batch route of every plain, NPSF, pull-open and
///     stuck-open fault is a function of the fault alone ([`route_of`]),
///     so lane order, per-lane constant masks and batch membership are
///     computed once here, and a run costs one program build per group and
///     one [`run_batch`] per slot. Each group's program is built from a
///     canonical representative on the lowest words ([`relocated`]).
///   - *Rank groups.* Retention faults group by bit and deadline, in
///     address order ([`RankGroup`]). A run splits the addresses into
///     intervals of constant decay verdicts, read off the lowest and
///     highest words' times, and builds one program per interval.
///   - *Verdict groups.* Decoder faults group by kind, wired polarity and,
///     for multi-access faults, word order ([`decoder_key`]); one two-word
///     replay of a representative on words 0 and 1 ([`decoder_rep`],
///     [`detect_decoder`]) decides each group.
///   - *Full replays.* Faults with neither a lane form nor a decoder pair
///     (hand-made NPSF neighborhoods that reuse a word; generated NPSF
///     always sit on five distinct words) replay one by one over the whole
///     step stream ([`CompiledTrace::detect_full`]).
/// - **General path**, for any other complete trace of the geometry
///   (hand-made streams, dirty marches, one- and two-word memories, and
///   fractional pauses when retention faults are planned): each lane
///   fault's program is built and resolved in universe order, its lane is
///   pre-detected when a golden miscompare lands outside its victim word,
///   each decoder fault takes the two-word replay of its own pair, and
///   faults with neither form replay in full.
///
/// The uniform path reads only the support words of each route group's
/// representative and each verdict group's representative, and the lowest
/// and highest words for rank groups ([`Self::support`]): at most six
/// words on a generated universe. It never reads the step stream unless
/// the plan holds a full-replay fault. So search candidates and coverage
/// runs compile only those words ([`TraceArena::compile_for`]), and a plan
/// with a full-replay fault declines such a restricted compile. Per-lane
/// updates never depend on batch composition, so both paths return the
/// full replay's verdicts.
///
/// [`TraceArena::compile_for`]: crate::trace::TraceArena::compile_for
pub(crate) struct UniversePlan<'u> {
    geometry: mbist_mem::MemGeometry,
    /// The planned faults — borrowed by a one-shot run, owned by a search
    /// oracle: the general path lowers them one by one, and the full
    /// replays read them by index.
    universe: Cow<'u, [FaultKind]>,
    groups: Vec<PlanGroup>,
    /// Retention faults by bit and deadline, ordered by deadline so a run
    /// splits the addresses once per deadline.
    ranked: Vec<RankGroup>,
    /// Decoder faults by verdict key.
    decoders: Vec<VerdictGroup>,
    /// Universe indices of the faults with neither a lane form nor a
    /// decoder pair, which replay in full.
    full: Vec<u32>,
    /// The words the uniform path reads, computed on first use
    /// ([`Self::support`]).
    support: OnceLock<Vec<u64>>,
}

impl<'u> UniversePlan<'u> {
    /// Batches `universe` for traces on `geometry`.
    ///
    /// # Panics
    ///
    /// Panics if a fault does not fit `geometry`.
    pub(crate) fn new(
        geometry: mbist_mem::MemGeometry,
        universe: impl Into<Cow<'u, [FaultKind]>>,
    ) -> Self {
        let universe = universe.into();
        let mut groups: Vec<PlanGroup> = Vec::new();
        let mut by_route: HashMap<RouteKey, usize, FnvBuild> =
            HashMap::with_hasher(FnvBuild);
        let mut decoders: Vec<VerdictGroup> = Vec::new();
        let mut by_verdict: HashMap<(bool, bool, bool), usize, FnvBuild> =
            HashMap::with_hasher(FnvBuild);
        // Retention faults as (deadline, bit, word, universe index, decays
        // to 1).
        let mut retention = Vec::new();
        let mut full = Vec::new();
        for (index, &fault) in universe.iter().enumerate() {
            let index = u32::try_from(index).expect("universe index fits u32");
            let Some(spec) = lane_spec(fault) else {
                match decoder_key(fault) {
                    Some(key) => {
                        let gi = *by_verdict.entry(key).or_insert_with(|| {
                            let rep = decoder_rep(key);
                            decoders.push(VerdictGroup { rep, faults: Vec::new() });
                            decoders.len() - 1
                        });
                        decoders[gi].faults.push(index);
                    }
                    None => full.push(index),
                }
                continue;
            };
            let Some(key) = route_of(&spec, geometry.words()) else {
                let Some(DecayRule::Retention { ns_bits }) = spec.decay else {
                    unreachable!("only retention faults route by rank");
                };
                retention.push((ns_bits, spec.vic.bit, spec.vic.word, index, spec.forced));
                continue;
            };
            let gi = match by_route.entry(key) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let rep = relocated(&spec, key, geometry.words());
                    groups.push(PlanGroup { rep, slots: Vec::new() });
                    *e.insert(groups.len() - 1)
                }
            };
            let slots = &mut groups[gi].slots;
            if slots.last().is_none_or(|s| s.masks.lanes == LANES) {
                slots.push(Slot::new(spec.class));
            }
            // Raw space: flip correction is applied per trace at run time,
            // and pre-detection is impossible under a clean golden replay.
            slots.last_mut().expect("slot just ensured").push(&spec, index, false, false);
        }
        // Stable: members at one word stay in universe order.
        retention.sort_by_key(|&(ns_bits, bit, word, ..)| (ns_bits, bit, word));
        let ranked = retention
            .chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
            .map(|members| {
                let mut forced = vec![0u64; members.len().div_ceil(64)];
                for (i, _) in members.iter().enumerate().filter(|(_, m)| m.4) {
                    forced[i / 64] |= 1 << (i % 64);
                }
                RankGroup {
                    bit: members[0].1,
                    ns_bits: members[0].0,
                    words: members.iter().map(|m| m.2).collect(),
                    faults: members.iter().map(|m| m.3).collect(),
                    forced,
                }
            })
            .collect();
        let support = OnceLock::new();
        Self { geometry, universe, groups, ranked, decoders, full, support }
    }

    /// The planned faults, in universe order.
    pub(crate) fn universe(&self) -> &[FaultKind] {
        &self.universe
    }

    /// The support words, in address order, a restricted [`SupportTrace`]
    /// for this plan must cover: the words of each route group's canonical
    /// representative (the group's program is built from it alone), the
    /// word pair of each verdict group's representative, and — with rank
    /// groups — the lowest and highest words, whose times and content every
    /// interval program is built from. The representatives sit on the
    /// lowest words ([`relocated`], [`decoder_rep`]), so the support is at
    /// most `{0..=4, words − 1}`, whatever the universe size or word count.
    /// Full-replay faults declare no words: they read the step stream, so
    /// their plan declines every restricted trace ([`Self::accepts`]).
    /// Computed once, on first use — one-shot runs on a complete trace
    /// never need it.
    pub(crate) fn support(&self) -> &[u64] {
        self.support.get_or_init(|| {
            let mut words = Vec::new();
            for group in &self.groups {
                let rep = &group.rep;
                words.push(rep.vic.word);
                words.extend(rep.agg.map(|a| a.word));
                words.extend(rep.npsf.iter().flat_map(|shape| shape.cells.map(|c| c.word)));
            }
            for group in &self.decoders {
                let (a, b) = group.rep.decoder_words().expect("decoder representative");
                words.extend([a, b]);
            }
            if !self.ranked.is_empty() {
                words.extend([0, self.geometry.words() - 1]);
            }
            words.sort_unstable();
            words.dedup();
            words
        })
    }

    /// Whether a run on `trace` is possible ([`Self::count_detected`]
    /// returns a count): always for a complete trace of the plan's
    /// geometry, and for a restricted one when the certificate holds and
    /// no fault replays in full.
    pub(crate) fn accepts(&self, trace: SupportTrace<'_>) -> bool {
        self.path(&trace).is_some()
    }

    /// The path a run on `trace` takes, or `None` when the plan declines
    /// it: a trace of another geometry, a support-restricted trace while
    /// the plan holds a full-replay fault (which reads the step stream), or
    /// a support-restricted trace the certificate does not hold for.
    fn path(&self, trace: &SupportTrace<'_>) -> Option<Path> {
        let t = trace.trace;
        let reads_steps = !self.full.is_empty();
        if t.geometry() != self.geometry || (reads_steps && !trace.complete) {
            return None;
        }
        if t.uniform_interleave()
            && t.monoclass()
            && t.golden_miscompares().is_empty()
            && (self.ranked.is_empty() || t.affine_time())
        {
            Some(Path::Uniform)
        } else {
            trace.complete.then_some(Path::General)
        }
    }

    /// Counts the universe's detected faults against `trace`, with the cap
    /// rule of [`CompiledTrace::count_detected`]: a reached cap returns
    /// exactly `stop_after`, otherwise the exact total. `None` when the
    /// plan declines the trace ([`Self::accepts`]); a complete trace of
    /// the plan's geometry is always counted. A tripped `cancel` (polled
    /// per batch and group) ends the run early with a partial count, which
    /// the caller discards after checking the token.
    pub(crate) fn count_detected(
        &self,
        trace: SupportTrace<'_>,
        stop_after: Option<usize>,
        scratch: &mut PlanScratch,
        cancel: &CancelToken,
    ) -> Option<usize> {
        let path = self.path(&trace)?;
        let stop = stop_after.unwrap_or(usize::MAX);
        if stop == 0 {
            return Some(0);
        }
        let mut verdicts = Verdicts { count: 0, stop, flags: None, cancel };
        self.run(trace.trace, path, scratch, &mut verdicts);
        Some(verdicts.count.min(stop))
    }

    /// One detection flag per universe fault, in universe order. A tripped
    /// `cancel` ends the run early with an empty (clearly partial) vector,
    /// which the caller discards after checking the token.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is of another geometry.
    pub(crate) fn detect(
        &self,
        trace: &CompiledTrace,
        scratch: &mut PlanScratch,
        cancel: &CancelToken,
    ) -> Vec<bool> {
        let path = self.path(&trace.into()).expect("trace of the plan's geometry");
        let flags = Some(vec![false; self.universe.len()]);
        let mut verdicts = Verdicts { count: 0, stop: usize::MAX, flags, cancel };
        let ended_early = self.run(trace, path, scratch, &mut verdicts);
        verdicts.flags.filter(|_| !ended_early).unwrap_or_default()
    }

    /// Runs every fault on `path`, feeding `verdicts`; returns whether the
    /// run ended early (cap reached or token tripped). The token is polled
    /// per batch and group, and once per stride of per-fault work.
    fn run(
        &self,
        trace: &CompiledTrace,
        path: Path,
        scratch: &mut PlanScratch,
        verdicts: &mut Verdicts<'_>,
    ) -> bool {
        scratch.programs.clear();
        scratch.open.values_mut().for_each(Slot::clear);
        let mut run = Run { trace, scratch, verdicts };
        let poll = |nth: usize, run: &Run| {
            nth.is_multiple_of(CANCEL_CHECK_STRIDE) && run.verdicts.done()
        };
        if path == Path::General {
            let miscompares = trace.golden_miscompares();
            for (nth, &fault) in self.universe.iter().enumerate() {
                let index = nth as u32; // fits: checked at plan time
                let over = poll(nth, &run)
                    || match lane_spec(fault) {
                        None => run.replay(fault, &[index]),
                        Some(spec) => {
                            let program = run.scratch.programs.id_for(trace, &spec);
                            let pre_detected =
                                miscompares.iter().any(|&(_, addr)| addr != spec.vic.word);
                            run.lane(&spec, index, program, pre_detected)
                        }
                    };
                if over {
                    return true;
                }
            }
            return run.flush();
        }
        for group in &self.groups {
            let (pid, flipped) = run.scratch.programs.id_for(trace, &group.rep);
            for slot in &group.slots {
                if run.batch(pid, &slot.masks.flip_corrected(flipped), &slot.faults) {
                    return true;
                }
            }
        }
        if run.ranked(&self.ranked) {
            return true;
        }
        for group in &self.decoders {
            run.replay(group.rep, &group.faults);
            if run.verdicts.done() {
                return true;
            }
        }
        self.full.iter().enumerate().any(|(nth, &index)| {
            poll(nth, &run) || run.replay(self.universe[index as usize], &[index])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::{expand_with, ExpandOptions};
    use crate::library;
    use mbist_mem::{
        class_universe, class_universe_sampled, FaultClass, MemGeometry, MemoryArray,
        PortId, UniverseSpec,
    };
    use mbist_rtl::Bits;
    use std::slice;

    /// The token of a run nothing cancels.
    const NEVER: CancelToken = CancelToken::none();

    /// One flag per fault of `universe` against `trace` through a fresh
    /// plan, the path the run took, and the run's scratch (which holds the
    /// programs it built).
    fn plan_run(
        trace: &CompiledTrace,
        universe: &[FaultKind],
    ) -> (Vec<bool>, Path, PlanScratch) {
        let plan = UniversePlan::new(trace.geometry(), universe);
        let path = plan.path(&trace.into()).expect("a complete trace of the geometry");
        let mut scratch = PlanScratch::default();
        let flags = plan.detect(trace, &mut scratch, &NEVER);
        assert_eq!(flags.len(), universe.len(), "an uncancelled run flags every fault");
        (flags, path, scratch)
    }

    /// Checks the plan's flags against full replay for every class
    /// universe of `test` on `g`; returns the path the runs took.
    fn assert_packed_equivalence(g: MemGeometry, test: &crate::MarchTest) -> Path {
        let steps = expand_with(test, &g, &ExpandOptions::for_geometry(&g));
        let trace = CompiledTrace::from_steps(g, &steps);
        let spec = UniverseSpec::default();
        let mut scratch = MemoryArray::new(g);
        let mut path = None;
        for class in FaultClass::ALL {
            let universe = class_universe(&g, class, &spec);
            let (packed, taken, _) = plan_run(&trace, &universe);
            path = Some(taken);
            for (fault, packed_flag) in universe.iter().zip(packed) {
                assert_eq!(
                    packed_flag,
                    trace.detect_full(*fault, &mut scratch),
                    "{}: packed disagrees with full replay on {fault} ({g})",
                    test.name()
                );
            }
        }
        path.expect("at least one class")
    }

    #[test]
    fn packed_matches_full_replay_across_library_and_geometries() {
        let tests = [library::mats(), library::march_c(), library::march_b()];
        for g in [
            MemGeometry::bit_oriented(16),
            MemGeometry::bit_oriented(24),
            MemGeometry::word_oriented(8, 4),
            MemGeometry::new(12, 1, 2),
        ] {
            for test in &tests {
                assert_eq!(assert_packed_equivalence(g, test), Path::Uniform, "{g}");
            }
        }
        // One and two words never certify address-uniform order, so real
        // marches take the general path there.
        for g in [
            MemGeometry::bit_oriented(1),
            MemGeometry::bit_oriented(2),
            MemGeometry::word_oriented(1, 4),
            MemGeometry::word_oriented(2, 4),
        ] {
            for test in &tests {
                assert_eq!(assert_packed_equivalence(g, test), Path::General, "{g}");
            }
        }
    }

    #[test]
    fn packed_matches_on_timing_sensitive_tests() {
        // Pauses and triple reads drive the retention and pull-open decay
        // schedules, and the stuck-open self-latch resolution — all lane-
        // packed now, so the whole universe must stay bit-identical.
        let g = MemGeometry::bit_oriented(16);
        for test in [library::march_c_plus(), library::march_c_plus_plus()] {
            assert_packed_equivalence(g, &test);
        }
    }

    #[test]
    fn march_expansions_collapse_to_few_programs() {
        // Address-uniform march streams must dedupe aggressively: the whole
        // SAF universe of a 64-word memory shares one program, so the trace
        // is walked once for every 256 faults, not once per fault.
        let g = MemGeometry::bit_oriented(64);
        let steps = expand_with(&library::march_c(), &g, &ExpandOptions::for_geometry(&g));
        let trace = CompiledTrace::from_steps(g, &steps);
        let universe = class_universe(&g, FaultClass::StuckAt, &UniverseSpec::default());
        let (_, _, scratch) = plan_run(&trace, &universe);
        assert_eq!(
            scratch.programs.store.len(),
            1,
            "uniform stream must share one program"
        );
    }

    #[test]
    fn new_lane_classes_collapse_to_few_programs() {
        // The newly vectorized classes build per cell but content-fold on
        // uniform streams: a handful of canonical programs (address-order
        // boundary words differ), never one per cell.
        let g = MemGeometry::bit_oriented(64);
        let steps = expand_with(
            &library::march_c_plus_plus(),
            &g,
            &ExpandOptions::for_geometry(&g),
        );
        let trace = CompiledTrace::from_steps(g, &steps);
        for class in [FaultClass::StuckOpen, FaultClass::Retention, FaultClass::PullOpen] {
            let universe = class_universe(&g, class, &UniverseSpec::default());
            assert!(!universe.is_empty());
            let programs = plan_run(&trace, &universe).2.programs.store.len();
            assert!(
                programs <= 4,
                "{class:?}: {programs} programs for {} faults",
                universe.len()
            );
        }
    }

    #[test]
    fn batches_fill_lanes_across_fault_polarity() {
        // sa0 and sa1 differ only in the per-lane stuck mask, so they pack
        // into the same batches: 256 SAFs on 128 words = exactly 1 batch,
        // 130 words = 2 (a full one plus a 4-lane remainder).
        for (words, expect_batches) in [(128u64, 1usize), (130, 2)] {
            let g = MemGeometry::bit_oriented(words);
            let universe =
                class_universe(&g, FaultClass::StuckAt, &UniverseSpec::default());
            assert_eq!(universe.len() as u64, words * 2);
            let plan = UniversePlan::new(g, universe);
            assert!(plan.ranked.is_empty() && plan.decoders.is_empty());
            assert!(plan.full.is_empty());
            let batch_count: usize =
                plan.groups.iter().map(|group| group.slots.len()).sum();
            assert_eq!(batch_count, expect_batches, "{words} words");
        }
    }

    #[test]
    fn decoder_faults_take_the_two_word_replay() {
        // Decoder faults have no lane form, but their deviations are
        // confined to the two wired words. The two-word replay of a fault's
        // own pair (the general path's verdict) and the one-fault plan
        // (which on a march replays a representative on words 0 and 1) must
        // both agree with the full array bit for bit.
        for g in [MemGeometry::bit_oriented(8), MemGeometry::word_oriented(8, 4)] {
            for test in [library::march_c(), library::mats_plus()] {
                let steps = expand_with(&test, &g, &ExpandOptions::for_geometry(&g));
                let trace = CompiledTrace::from_steps(g, &steps);
                let mut scratch = MemoryArray::new(g);
                for fault in
                    class_universe(&g, FaultClass::AddressDecoder, &UniverseSpec::default())
                {
                    let full = trace.detect_full(fault, &mut scratch);
                    assert_eq!(detect_decoder(&trace, fault), full, "{fault} ({g})");
                    assert_eq!(trace.detect(fault), full, "detect: {fault} ({g})");
                }
            }
        }
    }

    #[test]
    fn partial_final_lane_blocks_stay_exact() {
        // Lane counts straddling every `[u64; 4]` block boundary: the live
        // mask must confine partial blocks without perturbing verdicts.
        let g = MemGeometry::bit_oriented(300);
        let steps = expand_with(&library::mats(), &g, &ExpandOptions::for_geometry(&g));
        let trace = CompiledTrace::from_steps(g, &steps);
        let universe = class_universe(&g, FaultClass::StuckAt, &UniverseSpec::default());
        assert!(universe.len() > 257);
        let mut scratch = MemoryArray::new(g);
        let oracle: Vec<bool> =
            universe[..257].iter().map(|f| trace.detect_full(*f, &mut scratch)).collect();
        for n in [1usize, 63, 64, 65, 255, 256, 257] {
            let (flags, _, _) = plan_run(&trace, &universe[..n]);
            assert_eq!(flags[..], oracle[..n], "lane count {n}");
        }
    }

    #[test]
    fn complementary_backgrounds_share_one_canonical_program() {
        // Under a checkerboard background the even- and odd-bit projections
        // are exact complements; canonicalization folds them onto one
        // program, with half the lanes recording a flip — and verdicts
        // stay bit-identical to the full replay.
        let g = MemGeometry::word_oriented(16, 8);
        let opts =
            ExpandOptions { backgrounds: vec![Bits::new(8, 0x55)], ports: vec![PortId(0)] };
        let steps = expand_with(&library::march_c(), &g, &opts);
        let trace = CompiledTrace::from_steps(g, &steps);
        let universe = class_universe(&g, FaultClass::StuckAt, &UniverseSpec::default());
        assert_eq!(universe.len(), 256);
        let plan = UniversePlan::new(g, &universe);
        assert_eq!(plan.path(&(&trace).into()), Some(Path::Uniform));
        let mut scratch = PlanScratch::default();
        let packed = plan.detect(&trace, &mut scratch, &NEVER);
        assert_eq!(
            scratch.programs.store.len(),
            1,
            "complements must fold onto one program"
        );
        // Each group records its representative's flip for all its lanes.
        let flips: usize = plan
            .groups
            .iter()
            .filter(|group| scratch.programs.id_for(&trace, &group.rep).1)
            .flat_map(|group| &group.slots)
            .map(|slot| slot.masks.lanes)
            .sum();
        assert_eq!(flips, 128, "half the lanes ride the complemented projection");
        let mut mem = MemoryArray::new(g);
        for (fault, flag) in universe.iter().zip(packed) {
            assert_eq!(flag, trace.detect_full(*fault, &mut mem), "{fault}");
        }
    }

    #[test]
    fn dirty_streams_pre_detect_or_walk_exactly() {
        use mbist_mem::{BusCycle, Operation, TestStep};
        // A golden miscompare at word 1: faults on other words pre-detect,
        // faults on word 1 are decided by the walk — exactly like full.
        let g = MemGeometry::bit_oriented(4);
        let steps = [TestStep::Bus(BusCycle {
            port: PortId(0),
            addr: 1,
            op: Operation::Read,
            expected: Some(Bits::bit1(true)), // powers up 0 → dirty
        })];
        let trace = CompiledTrace::from_steps(g, &steps);
        let spec = UniverseSpec::default();
        let mut scratch = MemoryArray::new(g);
        for class in FaultClass::ALL {
            let universe = class_universe(&g, class, &spec);
            let (packed, path, _) = plan_run(&trace, &universe);
            assert_eq!(path, Path::General);
            for (fault, flag) in universe.iter().zip(packed) {
                assert_eq!(flag, trace.detect_full(*fault, &mut scratch), "{fault}");
            }
        }
    }

    /// A hand-made static NPSF whose neighborhood reuses word 1.
    fn overlapping_npsf() -> FaultKind {
        FaultKind::NpsfStatic {
            base: CellId::new(0, 0),
            neighborhood: [
                (CellId::new(1, 0), true),
                (CellId::new(2, 0), false),
                (CellId::new(3, 0), true),
                (CellId::new(1, 1), false),
            ],
            forced: true,
        }
    }

    #[test]
    fn only_decoder_faults_take_the_fallback() {
        // Every address-local class lane-packs now; decoder faults are the
        // one per-fault route a generated universe takes, and each names
        // the word pair its two-word replay reads.
        for class in FaultClass::ALL {
            let g = MemGeometry::bit_oriented(16);
            let universe = class_universe(&g, class, &UniverseSpec::default());
            assert!(!universe.is_empty(), "{class:?} universe must be populated");
            let expect = class != FaultClass::AddressDecoder;
            for fault in universe {
                assert_eq!(
                    lane_packable(fault),
                    expect,
                    "{fault} routed to the wrong path"
                );
                assert_eq!(fault.decoder_words().is_none(), expect, "{fault}");
            }
        }
        // A hand-made NPSF neighborhood that reuses a word has neither form
        // (the five support words must be pairwise distinct), so it replays
        // in full: it declares no support words, its plan declines a
        // restricted compile, and the fallback compiles complete.
        let overlapping = overlapping_npsf();
        assert!(!lane_packable(overlapping) && overlapping.decoder_words().is_none());
        let g = MemGeometry::word_oriented(8, 4);
        let opts = ExpandOptions::for_geometry(&g);
        let plan = UniversePlan::new(g, vec![overlapping]);
        assert!(plan.support().is_empty(), "a full replay declares no words");
        let mut arena = crate::trace::TraceArena::new();
        let test = library::march_c();
        let part = arena.compile_support(&test, &g, &opts, slice::from_ref(&plan));
        assert!(!plan.accepts(part), "a full replay reads the step stream");
        assert!(arena.compile_for(&test, &g, &opts, slice::from_ref(&plan)).complete);
    }

    /// The caps every planned count is checked at, for `total` detections.
    fn caps(total: usize) -> [Option<usize>; 6] {
        [
            None,
            Some(0),
            Some(1),
            Some(total.saturating_sub(1)),
            Some(total),
            Some(total + 10),
        ]
    }

    /// The plan's flags and counts, capped and uncapped, on a complete
    /// `trace` must equal the full replay's; returns the full total.
    fn assert_complete_matches(
        plan: &UniversePlan,
        trace: &CompiledTrace,
        what: &str,
    ) -> usize {
        use crate::trace::SimEngine;
        let oracle = trace.detect_universe(plan.universe(), Some(1), SimEngine::Full);
        let mut scratch = PlanScratch::default();
        let flags = plan.detect(trace, &mut scratch, &NEVER);
        assert_eq!(flags, oracle, "{what}: flags");
        let total = oracle.iter().filter(|&&d| d).count();
        for cap in caps(total) {
            let want = Some(cap.map_or(total, |c| total.min(c)));
            let count = plan.count_detected(trace.into(), cap, &mut scratch, &NEVER);
            assert_eq!(count, want, "{what}: complete trace, cap {cap:?}");
        }
        total
    }

    /// The plan's flags on `trace` — which may be support-restricted — run
    /// as [`UniversePlan::count_detected`] runs it, uncapped; `None` when
    /// the plan declines the trace.
    fn plan_flags(
        plan: &UniversePlan,
        trace: SupportTrace<'_>,
        scratch: &mut PlanScratch,
    ) -> Option<Vec<bool>> {
        let path = plan.path(&trace)?;
        let flags = Some(vec![false; plan.universe.len()]);
        let mut verdicts = Verdicts { count: 0, stop: usize::MAX, flags, cancel: &NEVER };
        plan.run(trace.trace, path, scratch, &mut verdicts);
        verdicts.flags
    }

    /// The plan's flags and counts, capped and uncapped, on the arena's
    /// support-restricted compile of `test` must equal `oracle`'s.
    fn assert_restricted_matches(
        plan: &UniversePlan,
        (test, opts): (&crate::MarchTest, &ExpandOptions),
        arena: &mut crate::trace::TraceArena,
        oracle: &[bool],
        what: &str,
    ) {
        let mut scratch = PlanScratch::default();
        let part = arena.compile_support(test, &plan.geometry, opts, slice::from_ref(plan));
        let flags = plan_flags(plan, part, &mut scratch);
        assert_eq!(flags.as_deref(), Some(oracle), "{what}: support-restricted flags");
        let total = oracle.iter().filter(|&&d| d).count();
        for cap in caps(total) {
            let want = Some(cap.map_or(total, |c| total.min(c)));
            let part =
                arena.compile_support(test, &plan.geometry, opts, slice::from_ref(plan));
            let part = plan.count_detected(part, cap, &mut scratch, &NEVER);
            assert_eq!(part, want, "{what}: support-restricted trace, cap {cap:?}");
        }
    }

    /// The plan of `universe` against `test` must take the uniform path and
    /// match the full-replay oracle, capped and uncapped, on a complete
    /// trace and on the arena's support-restricted compile.
    fn assert_plan_matches(
        g: MemGeometry,
        universe: &[FaultKind],
        test: &crate::MarchTest,
        what: &str,
    ) {
        let opts = ExpandOptions::for_geometry(&g);
        let plan = UniversePlan::new(g, universe);
        let trace = CompiledTrace::compile(test, &g, &opts);
        let path = plan.path(&(&trace).into());
        assert_eq!(path, Some(Path::Uniform), "{what}: certificate must hold");
        assert_complete_matches(&plan, &trace, what);
        let oracle = plan.detect(&trace, &mut PlanScratch::default(), &NEVER);
        let mut arena = crate::trace::TraceArena::new();
        assert_restricted_matches(&plan, (test, &opts), &mut arena, &oracle, what);
    }

    /// The plan of `universe`, which holds a full-replay fault, against
    /// `test`: it must decline the arena's support-restricted compile, and
    /// on the complete compile [`TraceArena::compile_for`] falls back to it
    /// must take the uniform path and match the full-replay oracle, capped
    /// and uncapped.
    ///
    /// [`TraceArena::compile_for`]: crate::trace::TraceArena::compile_for
    fn assert_plan_declines_restricted(
        g: MemGeometry,
        universe: &[FaultKind],
        test: &crate::MarchTest,
        what: &str,
    ) {
        let opts = ExpandOptions::for_geometry(&g);
        let plan = UniversePlan::new(g, universe);
        let mut arena = crate::trace::TraceArena::new();
        let part = arena.compile_support(test, &g, &opts, slice::from_ref(&plan));
        assert_eq!(plan.path(&part), None, "{what}: restricted compile accepted");
        let trace = arena.compile_for(test, &g, &opts, slice::from_ref(&plan));
        assert!(trace.complete, "{what}: compile_for must compile complete");
        assert_eq!(plan.path(&trace), Some(Path::Uniform), "{what}: certificate");
        assert_complete_matches(&plan, trace.trace, what);
    }

    /// Decay schedules a default universe does not reach: pull-open faults
    /// with read budgets 1, 2 and 3 in one universe (a route key that
    /// dropped the budget would build them all alike), and retention
    /// faults whose deadline falls inside `test`'s trace or beyond its end.
    fn decay_schedules(g: MemGeometry, test: &crate::MarchTest) -> Vec<FaultKind> {
        let trace = CompiledTrace::compile(test, &g, &ExpandOptions::for_geometry(&g));
        let duration = (0..g.words())
            .flat_map(|w| trace.ops_for_word(w))
            .map(|op| op.now_ns)
            .fold(0.0, f64::max);
        let pull_open = (1..=3).flat_map(|pull_open_good_reads| {
            let spec = UniverseSpec { pull_open_good_reads, ..UniverseSpec::default() };
            class_universe(&g, FaultClass::PullOpen, &spec)
        });
        let retention =
            [duration / 3.0, duration * 2.0].into_iter().flat_map(|retention_ns| {
                let spec = UniverseSpec { retention_ns, ..UniverseSpec::default() };
                class_universe(&g, FaultClass::Retention, &spec)
            });
        pull_open.chain(retention).collect()
    }

    #[test]
    fn universe_plan_matches_engine_counts_exactly() {
        use mbist_mem::subset_universe;
        // Every class, so every plan route — route groups, rank groups,
        // verdict groups and full replays (an overlapping NPSF where the
        // width allows) — across bit- and word-oriented and two-port
        // geometries, plus the decay schedules above. March C+ and C++ add
        // the pauses and triple reads that drive retention deadlines,
        // pull-open drains and stuck-open self-latches.
        let spec = UniverseSpec::default();
        for g in [
            MemGeometry::bit_oriented(24),
            MemGeometry::word_oriented(8, 4),
            MemGeometry::new(12, 1, 2),
        ] {
            let universe = subset_universe(&g, &FaultClass::ALL, &spec, 64);
            for test in [
                library::mats(),
                library::march_c(),
                library::march_b(),
                library::march_c_plus(),
                library::march_c_plus_plus(),
            ] {
                let what = format!("{} on {g}", test.name());
                assert_plan_matches(g, &universe, &test, &what);
                if g.width() > 1 {
                    let mut with_full = universe.clone();
                    with_full.push(overlapping_npsf());
                    let what = format!("{what}, overlapping NPSF");
                    assert_plan_declines_restricted(g, &with_full, &test, &what);
                }
                let decay = decay_schedules(g, &test);
                assert_plan_matches(g, &decay, &test, &format!("{what}, decay schedules"));
            }
        }
    }

    #[test]
    fn universe_plan_declines_non_conforming_traces() {
        use crate::element::{AddressOrder, MarchElement, MarchItem};
        use crate::op::MarchOp;
        use crate::trace::TraceArena;
        use mbist_mem::{subset_universe, BusCycle, Operation, TestStep};
        let spec = UniverseSpec::default();
        let g = MemGeometry::bit_oriented(4);
        let plan = UniversePlan::new(g, subset_universe(&g, &FaultClass::ALL, &spec, 64));
        let bus = |addr, op, expected| {
            TestStep::Bus(BusCycle { port: PortId(0), addr, op, expected })
        };
        let w = |addr, bit| bus(addr, Operation::Write(Bits::bit1(bit)), None);
        let r = |addr, bit| bus(addr, Operation::Read, Some(Bits::bit1(bit)));
        // Read the opposite of `bit`, then write `bit`, at each address.
        let element = |order: [u64; 4], bit: bool| -> Vec<TestStep> {
            order.into_iter().flat_map(|a| [r(a, !bit), w(a, bit)]).collect()
        };
        let init: Vec<TestStep> = (0..4).map(|a| w(a, false)).collect();
        // Complete traces outside the certificate take the general path,
        // which must return the full replay's flags and counts.
        let declined = [
            // Non-monotone address order: no uniform certificate.
            (
                "scrambled",
                [init.clone(), element([0, 2, 1, 3], true), element([3, 1, 2, 0], false)]
                    .concat(),
            ),
            // Uniform order but mixed data: more than one content class.
            (
                "mixed",
                vec![
                    w(0, true),
                    w(1, false),
                    w(2, true),
                    w(3, true),
                    r(0, true),
                    r(1, false),
                ],
            ),
            // A read expecting 1 from a zeroed word: golden miscompares.
            ("dirty", [vec![r(1, true)], init, element([0, 1, 2, 3], true)].concat()),
        ];
        for (what, steps) in declined {
            let trace = CompiledTrace::from_steps(g, &steps);
            assert_eq!(plan.path(&(&trace).into()), Some(Path::General), "{what}");
            assert_complete_matches(&plan, &trace, what);
        }
        // A support-restricted compile outside the certificate is refused
        // (the general path may read any word); the same test compiled
        // complete is counted. A dirty march, a fractional pause against
        // planned retention faults, then a real march on two words.
        let dirty = crate::MarchTest::new(
            "dirty",
            vec![MarchItem::Element(MarchElement::new(
                AddressOrder::Up,
                vec![MarchOp::Read(true), MarchOp::Write(true)],
            ))],
        );
        assert!(!plan.ranked.is_empty());
        let fractional = crate::MarchTest::new(
            "fractional",
            vec![
                MarchElement::new(AddressOrder::Up, vec![MarchOp::Write(false)]).into(),
                MarchItem::Pause { ns: 0.5 },
                MarchElement::new(AddressOrder::Down, vec![MarchOp::Read(false)]).into(),
            ],
        );
        let g2 = MemGeometry::bit_oriented(2);
        let plan2 =
            UniversePlan::new(g2, subset_universe(&g2, &FaultClass::ALL, &spec, 64));
        let mut arena = TraceArena::new();
        let mut scratch = PlanScratch::default();
        for (plan, test, what) in [
            (&plan, &dirty, "dirty march"),
            (&plan, &fractional, "fractional pause"),
            (&plan2, &library::march_c(), "two words"),
        ] {
            let opts = ExpandOptions::for_geometry(&plan.geometry);
            let part =
                arena.compile_support(test, &plan.geometry, &opts, slice::from_ref(plan));
            assert_eq!(
                plan.count_detected(part, None, &mut scratch, &NEVER),
                None,
                "{what}"
            );
            let complete = CompiledTrace::compile(test, &plan.geometry, &opts);
            assert_complete_matches(plan, &complete, what);
        }
        // A trace of another geometry is refused outright.
        let g8 = MemGeometry::bit_oriented(8);
        let t8 = CompiledTrace::compile(
            &library::mats(),
            &g8,
            &ExpandOptions::for_geometry(&g8),
        );
        assert_eq!(plan.path(&(&t8).into()), None);
        assert_eq!(plan.count_detected((&t8).into(), None, &mut scratch, &NEVER), None);
    }

    #[test]
    fn universe_plan_groups_stay_small_on_reference_config() {
        // The whole point: a 256-word universe collapses to a handful of
        // keys, so per-candidate work follows the distinct programs, not
        // the faults or the words.
        use crate::trace::TraceArena;
        use mbist_mem::subset_universe;
        let g = MemGeometry::bit_oriented(256);
        let classes = [
            FaultClass::StuckAt,
            FaultClass::Transition,
            FaultClass::CouplingInversion,
            FaultClass::CouplingIdempotent,
            FaultClass::CouplingState,
        ];
        let universe = subset_universe(&g, &classes, &UniverseSpec::default(), 256);
        let plan = UniversePlan::new(g, universe);
        assert!(
            plan.ranked.is_empty() && plan.decoders.is_empty() && plan.full.is_empty(),
            "all five classes are plan-routable"
        );
        assert!(
            plan.groups.len() <= 16,
            "{} groups for {} faults",
            plan.groups.len(),
            plan.universe.len()
        );
        // The search benchmark's nine-class universe: every fault sits in a
        // route, rank or verdict group, so the uniform path builds no
        // program and runs no replay per fault.
        let universe =
            subset_universe(&g, &FaultClass::ALL[..9], &UniverseSpec::default(), 256);
        let plan = UniversePlan::new(g, &universe);
        assert!(plan.full.is_empty(), "no fault replays on its own");
        let lanes: usize =
            plan.groups.iter().flat_map(|group| &group.slots).map(|s| s.masks.lanes).sum();
        let ranked: usize = plan.ranked.iter().map(|group| group.faults.len()).sum();
        let decoders: usize = plan.decoders.iter().map(|group| group.faults.len()).sum();
        assert_eq!(
            lanes + ranked + decoders,
            universe.len(),
            "every fault sits in a group"
        );
        let count = |class| universe.iter().filter(|f| f.class() == class).count();
        assert_eq!(ranked, count(FaultClass::Retention), "retention groups by rank");
        assert_eq!(
            decoders,
            count(FaultClass::AddressDecoder),
            "decoders group by verdict"
        );
        // One remap key, and two multi-access keys per wired polarity.
        assert!(
            plan.decoders.len() <= 3,
            "{} decoder replays per candidate",
            plan.decoders.len()
        );
        let stuck_open = plan
            .groups
            .iter()
            .filter(|group| group.rep.class == LaneClass::StuckOpen)
            .count();
        assert!(stuck_open <= 3, "{stuck_open} stuck-open programs for one bit");
        // Canonical representatives: words 0–4 and the top word at most.
        assert!(
            plan.support().len() <= 6,
            "support of {} words: {:?}",
            plan.support().len(),
            plan.support()
        );
        // Per candidate: one retention interval per deadline at 256 words,
        // pauses or not, and the counts stay exact on the restricted
        // compile.
        let mut arena = TraceArena::new();
        let mut scratch = PlanScratch::default();
        for test in [library::march_c(), library::march_c_plus()] {
            let opts = ExpandOptions::for_geometry(&g);
            let part = arena.compile_support(&test, &g, &opts, slice::from_ref(&plan));
            let count = plan.count_detected(part, None, &mut scratch, &NEVER);
            let complete = CompiledTrace::compile(&test, &g, &opts);
            assert_eq!(
                count,
                plan.count_detected((&complete).into(), None, &mut scratch, &NEVER)
            );
            assert_eq!(scratch.intervals.len(), 1, "{}", test.name());
        }
    }

    /// A random march on `g` for the keyed routes: ⇑/⇓/⇕ elements whose
    /// reads expect the stored value (so the uniform path applies), with
    /// pauses — fractional ones included — between elements. One case in
    /// eight misreads now and then, for the general path.
    fn random_timed_march(rng: &mut mbist_mem::rng::SplitMix64) -> crate::MarchTest {
        use crate::element::{AddressOrder, MarchElement, MarchItem};
        use crate::op::MarchOp;
        let mut pick = |n: u64| rng.next_u64() % n;
        let dirty = pick(8) == 0;
        let mut value = false;
        let mut items: Vec<MarchItem> = Vec::new();
        for _ in 0..=pick(5) {
            if pick(3) == 0 {
                let ns =
                    [0.0, 10.0, 50.0, 100.0, 1e3, 5e3, 0.1, 1.0 / 3.0][pick(8) as usize];
                items.push(MarchItem::Pause { ns });
            }
            let order = [AddressOrder::Up, AddressOrder::Down, AddressOrder::Any];
            let mut ops = Vec::new();
            for _ in 0..=pick(3) {
                if pick(2) == 0 {
                    value = pick(2) == 1;
                    ops.push(MarchOp::Write(value));
                } else {
                    ops.push(MarchOp::Read(value ^ (dirty && pick(4) == 0)));
                }
            }
            items.push(MarchElement::new(order[pick(3) as usize], ops).into());
        }
        crate::MarchTest::new("timed", items)
    }

    #[test]
    fn keyed_routes_match_full_replay_on_random_timed_marches() {
        // The keyed routes' correctness argument, in release mode too: on
        // random pause-bearing marches (3–40 words, 1–3 ports), the plan's
        // flags and counts, capped and uncapped, on complete and support-
        // restricted compiles, equal full replay for stuck-open faults at
        // every edge, retention faults whose deadlines straddle the
        // trace's own gaps, decoder faults in both word orders, and
        // pull-open faults. A restricted compile is declined exactly when
        // the complete one takes the general path.
        use crate::trace::TraceArena;
        let mut rng = mbist_mem::rng::SplitMix64::new(0x5eed);
        let mut arena = TraceArena::new();
        let mut scratch = PlanScratch::default();
        let mut uniform = 0;
        let cases = 120;
        for case in 0..cases {
            let mut pick = |n: u64| rng.next_u64() % n;
            let g = MemGeometry::new(3 + pick(38), 1 + pick(2) as u8, 1 + pick(3) as u8);
            let opts = if pick(2) == 0 {
                ExpandOptions::for_geometry(&g)
            } else {
                ExpandOptions::minimal(&g)
            };
            let test = random_timed_march(&mut rng);
            let trace = CompiledTrace::compile(&test, &g, &opts);
            // Deadlines at, just under and just over a gap the trace
            // really has: between two accesses of one word.
            let ops = trace.ops_for_word(rng.next_u64() % g.words());
            let mut deadlines = vec![UniverseSpec::default().retention_ns];
            for _ in 0..2 {
                let (i, j) = (
                    rng.next_u64() as usize % ops.len(),
                    rng.next_u64() as usize % ops.len(),
                );
                let gap = (ops[i].now_ns - ops[j].now_ns).abs();
                deadlines.push([gap, gap - 10.0, gap + 0.5][rng.next_u64() as usize % 3]);
            }
            let mut universe = Vec::new();
            for class in
                [FaultClass::StuckOpen, FaultClass::AddressDecoder, FaultClass::PullOpen]
            {
                universe.extend(class_universe(&g, class, &UniverseSpec::default()));
            }
            // Generated multi-access faults all have the lower word first;
            // mirror them, so both word orders of the wired pair occur.
            let mirrored: Vec<FaultKind> = universe
                .iter()
                .filter_map(|&f| match f {
                    FaultKind::AddressMulti { addr, extra, wired_and } => {
                        Some(FaultKind::AddressMulti {
                            addr: extra,
                            extra: addr,
                            wired_and,
                        })
                    }
                    _ => None,
                })
                .collect();
            universe.extend(mirrored);
            for retention_ns in deadlines {
                let spec = UniverseSpec { retention_ns, ..UniverseSpec::default() };
                universe.extend(class_universe(&g, FaultClass::Retention, &spec));
            }
            let what = format!("case {case}: {test} on {g}, {opts:?}");
            let plan = UniversePlan::new(g, &universe);
            let path = plan.path(&(&trace).into());
            uniform += usize::from(path == Some(Path::Uniform));
            assert_complete_matches(&plan, &trace, &what);
            if path == Some(Path::Uniform) {
                let oracle = plan.detect(&trace, &mut scratch, &NEVER);
                assert_restricted_matches(
                    &plan,
                    (&test, &opts),
                    &mut arena,
                    &oracle,
                    &what,
                );
            } else {
                let part = arena.compile_support(&test, &g, &opts, slice::from_ref(&plan));
                let got = plan.count_detected(part, None, &mut scratch, &NEVER);
                assert_eq!(got, None, "{what}: restricted outside the certificate");
            }
        }
        assert!(
            uniform * 2 > cases && uniform < cases,
            "{uniform} of {cases} cases took the uniform path: both paths must be exercised"
        );
    }

    #[test]
    fn remaps_share_one_verdict_in_either_word_order() {
        // A remap's verdict does not depend on which of its words is lower:
        // every access of either word lands on one cell, and the two words'
        // op contents merge alike in either order. So every remap shares
        // one verdict group, and its one replay must match full replay for
        // pairs in both orders, adjacent and far apart, on complete and
        // restricted compiles, for library marches and random timed ones.
        use crate::trace::TraceArena;
        let mut rng = mbist_mem::rng::SplitMix64::new(0xa11a5);
        let mut tests = vec![
            library::mats_plus(),
            library::march_c(),
            library::march_b(),
            library::march_c_plus(),
        ];
        tests.extend((0..24).map(|_| random_timed_march(&mut rng)));
        let mut arena = TraceArena::new();
        for g in [
            MemGeometry::bit_oriented(5),
            MemGeometry::word_oriented(16, 4),
            MemGeometry::new(33, 1, 2),
        ] {
            let n = g.words();
            let spec = UniverseSpec::default();
            let mut universe: Vec<FaultKind> =
                class_universe(&g, FaultClass::AddressDecoder, &spec)
                    .into_iter()
                    .filter(|f| matches!(f, FaultKind::AddressMap { .. }))
                    .collect();
            let far = [(0, n - 1), (n - 1, 0), (n - 1, 1), (2, n - 2)];
            universe.extend(far.map(|(from, to)| FaultKind::AddressMap { from, to }));
            let lower_first = |f: &FaultKind| f.decoder_words().is_some_and(|(a, b)| a < b);
            assert!(universe.iter().any(lower_first) && !universe.iter().all(lower_first));
            let plan = UniversePlan::new(g, &universe);
            assert_eq!(plan.decoders.len(), 1, "one verdict group holds every remap");
            for test in &tests {
                let what = format!("{test} on {g}");
                let opts = ExpandOptions::for_geometry(&g);
                let trace = CompiledTrace::compile(test, &g, &opts);
                assert_complete_matches(&plan, &trace, &what);
                if plan.path(&(&trace).into()) == Some(Path::Uniform) {
                    let oracle = plan.detect(&trace, &mut PlanScratch::default(), &NEVER);
                    assert_restricted_matches(
                        &plan,
                        (test, &opts),
                        &mut arena,
                        &oracle,
                        &what,
                    );
                }
            }
        }
    }

    #[test]
    fn canonical_support_stays_within_six_words_on_perfbench_geometries() {
        // Every group's representative sits on words 0–4 or the top word,
        // so on the paper's geometries each class's support — and the
        // union a coverage run compiles — is at most six words, however
        // many words the memory has and wherever the sampled faults sit.
        for (words, width, ports) in
            [(1024, 1, 1), (1024, 8, 1), (1024, 8, 2), (8192, 1, 1)]
        {
            let g = MemGeometry::new(words, width, ports);
            let canonical = |w: &u64| *w <= 4 || *w == words - 1;
            let mut union = Vec::new();
            for class in FaultClass::ALL {
                let universe =
                    class_universe_sampled(&g, class, &UniverseSpec::default(), 256);
                let plan = UniversePlan::new(g, universe);
                let support = plan.support();
                assert!(
                    support.len() <= 6 && support.iter().all(canonical),
                    "{class:?} on {g}: {support:?}"
                );
                union.extend_from_slice(support);
            }
            union.sort_unstable();
            union.dedup();
            assert!(union.len() <= 6, "{g}: {union:?}");
        }
    }

    /// The plans [`crate::evaluate_coverage`] builds for every class under
    /// `spec` and `cap`.
    fn coverage_plans(
        g: MemGeometry,
        spec: &UniverseSpec,
        cap: usize,
    ) -> Vec<UniversePlan<'static>> {
        FaultClass::ALL
            .iter()
            .map(|&class| {
                UniversePlan::new(g, class_universe_sampled(&g, class, spec, cap))
            })
            .collect()
    }

    /// The packed coverage report of `test` on `g` must equal the full
    /// engine's; returns whether the packed run compiled restricted.
    fn assert_coverage_matches_full(
        test: &crate::MarchTest,
        g: MemGeometry,
        spec: UniverseSpec,
        cap: usize,
        expand: &ExpandOptions,
    ) -> bool {
        use crate::coverage::{evaluate_coverage, CoverageOptions};
        use crate::trace::{SimEngine, TraceArena};
        let options = |engine| CoverageOptions {
            spec,
            max_faults_per_class: Some(cap),
            expand: Some(expand.clone()),
            jobs: Some(1),
            engine,
            ..CoverageOptions::default()
        };
        let packed = evaluate_coverage(test, &g, &options(SimEngine::Packed));
        let full = evaluate_coverage(test, &g, &options(SimEngine::Full));
        assert_eq!(packed, full, "{test} on {g}, cap {cap}, {spec:?}, {expand:?}");
        let plans = coverage_plans(g, &spec, cap);
        !TraceArena::new().compile_for(test, &g, expand, &plans).complete
    }

    #[test]
    fn coverage_matches_full_on_random_marches_with_canonical_representatives() {
        // Canonical representatives end to end, in release mode too: on
        // random marches with integral and fractional pauses (3–1100
        // words, 1–8 bits, 1–2 ports, random deadlines, read budgets and
        // coupling windows), the packed coverage report — every class
        // planned, one compile restricted to the plans' support, or
        // complete when a plan declines it — equals the full engine's. From
        // 24 words on the caps keep every sampled single-cell fault past
        // word 4, so those groups' programs come from representatives no
        // member shares.
        let mut rng = mbist_mem::rng::SplitMix64::new(0xc0de);
        let (mut restricted, mut relocated) = (0, 0);
        let cases = 120;
        for _ in 0..cases {
            let mut pick = |n: u64| rng.next_u64() % n;
            let words = if pick(4) == 0 { 24 + pick(1077) } else { 3 + pick(40) };
            let g = MemGeometry::new(words, 1 + pick(8) as u8, 1 + pick(2) as u8);
            let cap = 1 + pick(if words >= 24 { 4 } else { 8 }) as usize;
            let spec = UniverseSpec {
                coupling_window: 1 + pick(2),
                retention_ns: [50_000.0, 40.0, 120.0, 1e3, 5e3 + 0.5][pick(5) as usize],
                pull_open_good_reads: 1 + pick(3) as u8,
            };
            let expand = if pick(2) == 0 {
                ExpandOptions::for_geometry(&g)
            } else {
                ExpandOptions::minimal(&g)
            };
            let test = random_timed_march(&mut rng);
            restricted +=
                usize::from(assert_coverage_matches_full(&test, g, spec, cap, &expand));
            if words >= 24 {
                let saf = class_universe_sampled(&g, FaultClass::StuckAt, &spec, cap);
                let lowest = saf.iter().map(|f| match f {
                    FaultKind::StuckAt { cell, .. } => cell.word,
                    _ => unreachable!("a stuck-at universe"),
                });
                assert!(lowest.min() > Some(4), "cap {cap} on {g}");
                relocated += 1;
            }
        }
        assert!(
            restricted * 2 > cases && restricted < cases && relocated * 8 > cases,
            "{restricted} of {cases} runs compiled restricted, {relocated} relocated"
        );
    }

    #[test]
    fn declined_coverage_compiles_complete_and_matches_full() {
        // Where some plan declines the restricted compile — a dirty march,
        // one- and two-word memories, a fractional pause against retention
        // faults — the coverage run compiles complete and its report still
        // equals the full engine's. The fractional march without retention
        // faults compiles restricted.
        let parse =
            |notation| crate::MarchTest::parse("inline", notation).expect("notation");
        // Its second element reads 1 after writing 0.
        let dirty = parse("⇕(w1); ⇓(r1,w0,r1); ⇑(r0,w1); ⇕(r1)");
        let fractional = parse("⇕(w0); ⇑(r0,w1); pause(0.5ns); ⇓(r1,w0); ⇕(r0)");
        let spec = UniverseSpec::default();
        let on = |g: MemGeometry| (g, ExpandOptions::for_geometry(&g));
        for (test, (g, expand)) in [
            (&dirty, on(MemGeometry::bit_oriented(16))),
            (&dirty, on(MemGeometry::word_oriented(8, 4))),
            (&library::march_c(), on(MemGeometry::bit_oriented(1))),
            (&library::march_c_plus(), on(MemGeometry::bit_oriented(2))),
            (&library::march_b(), on(MemGeometry::new(2, 4, 2))),
            (&fractional, on(MemGeometry::bit_oriented(16))),
            (&fractional, on(MemGeometry::new(12, 2, 2))),
        ] {
            let what = format!("{test} on {g}");
            assert!(!assert_coverage_matches_full(test, g, spec, 64, &expand), "{what}");
        }
        // Retention faults alone decline the fractional pause; the other
        // classes' plans accept it.
        use crate::trace::TraceArena;
        let (g, expand) = on(MemGeometry::bit_oriented(16));
        let (drf, others): (Vec<_>, Vec<_>) = coverage_plans(g, &spec, 64)
            .into_iter()
            .zip(FaultClass::ALL)
            .partition(|(_, class)| *class == FaultClass::Retention);
        let mut arena = TraceArena::new();
        for (plans, complete) in [(others, false), (drf, true)] {
            let plans: Vec<_> = plans.into_iter().map(|(plan, _)| plan).collect();
            let trace = arena.compile_for(&fractional, &g, &expand, &plans);
            assert_eq!(trace.complete, complete);
        }
    }
}

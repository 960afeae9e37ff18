//! Lane-packed bit-parallel fault simulation over a [`CompiledTrace`].
//!
//! The sliced replay ([`crate::sliced`], the per-fault path) reduces
//! per-fault work to the accesses touching the fault's support set, but it
//! still replays those accesses once *per fault*. This module goes one
//! step further by packing up to [`LANES`] faults into the bit lanes of
//! `[u64; 4]` state vectors and replaying a shared access program **once
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
//! lane update is a compile-time branch). Only decoder faults stay
//! per fault — they take the sliced two-word decoder replay.
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
//! Decoder faults are not address-local and never lane-pack; they route
//! per fault to the sliced two-word decoder replay, so reports stay
//! bit-identical to [`SimEngine::Full`](crate::SimEngine::Full) — the
//! equivalence the `sliced_equivalence` proptest suite and the
//! `engine_corpus` regression corpus pin.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::{BitAnd, BitOr, BitOrAssign, BitXor, Not};

use mbist_mem::{CellId, FaultKind};

use crate::cancel::{CancelToken, CANCEL_CHECK_STRIDE};
use crate::fanout::{detect_one, WorkerScratch};
use crate::sliced::{detect_sliced_with, SlicedScratch};
use crate::trace::{CompiledTrace, FnvBuild, TraceOpKind};

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

    fn get(self, lane: usize) -> bool {
        self.0[lane / 64] >> (lane % 64) & 1 == 1
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
/// to the per-fault sliced replay ([`detect_one`]) — the exact
/// [`detect_chunk`] and [`UniversePlan`] eligibility rule, and the basis
/// of the routing breakdown in [`crate::coverage`]. Either way the fault
/// reads only its own support words or decoder word pair
/// ([`mark_replay_words`]).
pub(crate) fn lane_packable(fault: FaultKind) -> bool {
    lane_spec(fault).is_some()
}

/// Lowers a fault to lane form, or `None` when it must take the per-fault
/// fallback (decoder faults, and hand-made NPSF neighborhoods whose five
/// support cells do not land in five distinct words).
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

/// Marks in `mask` the words the replay of `fault` reads: the words of its
/// support cells, or its decoder word pair. Every fault kind has one or
/// the other, so a [`UniversePlan`] can always declare the words its
/// traces must carry.
fn mark_replay_words(fault: FaultKind, mask: &mut [bool]) {
    let mut mark = |word: u64| mask[usize::try_from(word).expect("word fits usize")] = true;
    match (fault.support(), fault.decoder_words()) {
        (Some(support), _) => support.cells().iter().for_each(|c| mark(c.word)),
        (None, Some((a, b))) => {
            mark(a);
            mark(b);
        }
        (None, None) => unreachable!("{fault} has neither support cells nor decoder words"),
    }
}

/// The per-lane state of a batch — live lane count, class and constant
/// masks (bit `i` = lane `i`'s constant) — separated from the per-fault
/// index bookkeeping so a precomputed [`UniversePlan`] can drive
/// [`run_batch`] without materializing index vectors per candidate.
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

/// An open batch: up to [`LANES`] same-class faults sharing one canonical
/// program.
struct Batch {
    program: usize,
    /// Index into the caller's fault slice, per lane.
    faults: Vec<usize>,
    masks: LaneMasks,
}

impl Batch {
    fn new(class: LaneClass, program: usize) -> Self {
        Self { program, faults: Vec::with_capacity(LANES), masks: LaneMasks::new(class) }
    }

    fn push(&mut self, index: usize, spec: &LaneSpec, flipped: bool, pre_detected: bool) {
        self.faults.push(index);
        self.masks.push(spec, flipped, pre_detected);
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

/// Builds the retention / pull-open program for one cell into `program`:
/// writes commit normally, and each read carries the build-time decay
/// verdict of the rule's schedule (wall-clock deadline or consecutive-read
/// budget — both functions of the trace alone, never of the lane values).
/// The pull-open schedule reads only the op content, never a timestamp.
fn build_decay(
    trace: &CompiledTrace,
    cell: CellId,
    rule: DecayRule,
    program: &mut Vec<SigOp>,
) {
    let bit = 1u64 << cell.bit;
    let mut last_write_ns = 0.0f64;
    let mut consecutive_reads = 0u8;
    for op in trace.ops_for_word(cell.word) {
        match op.kind {
            TraceOpKind::Write(data) => {
                last_write_ns = op.now_ns;
                consecutive_reads = 0;
                program.push(SigOp::WVic { d: data & bit != 0 });
            }
            TraceOpKind::Read { expected, golden, .. } => {
                let decayed = match rule {
                    DecayRule::Retention { ns_bits } => {
                        let hit = op.now_ns - last_write_ns > f64::from_bits(ns_bits);
                        if hit {
                            // The decayed store refreshes the cell like any
                            // write.
                            last_write_ns = op.now_ns;
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
/// single-fault path in `mbist_mem::array` (and [`crate::sliced`]) onto
/// the fault's support bits, in canonical space — the lane's real state is
/// the canonical state XOR its flip bit, and the XOR cancels out of every
/// detection comparison. `latch` is scratch for the per-port stuck-open
/// sense latches.
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

/// The memoized build shape of a program: faults with equal keys share one
/// build (programs are polarity-independent after canonicalization, so
/// e.g. SAF and TF at the same cell, both decay rules' polarities, or all
/// sixteen static-NPSF patterns on one neighborhood, reuse work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum BuildKey {
    Plain(CellId, Option<CellId>),
    Sof(CellId),
    Decay(CellId, DecayRule),
    Npsf(NpsfShape),
}

impl BuildKey {
    fn of(spec: &LaneSpec) -> Self {
        match spec.class {
            LaneClass::StuckOpen => Self::Sof(spec.vic),
            LaneClass::Decay => Self::Decay(spec.vic, spec.decay.expect("decay rule")),
            LaneClass::NpsfStatic | LaneClass::NpsfActive => {
                Self::Npsf(spec.npsf.expect("npsf shape"))
            }
            _ => Self::Plain(spec.vic, spec.agg),
        }
    }
}

/// Program store with two-level memoization: per build shape
/// ([`BuildKey`]) and per canonical content (faults at different
/// addresses — or complementary backgrounds — whose canonical programs
/// coincide share one batch).
///
/// Every build writes into one reused buffer. The buffer is compared with
/// the program the previous build resolved to before the content map is
/// consulted (consecutive faults usually build the same program), and it
/// is copied out only when its content is new.
#[derive(Default)]
struct Programs {
    store: Vec<Vec<SigOp>>,
    by_key: HashMap<BuildKey, (usize, bool), FnvBuild>,
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
        self.by_key.clear();
        self.by_content.clear();
        self.last = None;
    }

    /// Builds `spec`'s program, memoized per build key. Returns the
    /// canonical program id plus the flip this fault's lane must record.
    fn id_for(&mut self, trace: &CompiledTrace, spec: &LaneSpec) -> (usize, bool) {
        let key = BuildKey::of(spec);
        if let Some(&hit) = self.by_key.get(&key) {
            return hit;
        }
        let entry = self.id_for_content(trace, spec);
        self.by_key.insert(key, entry);
        entry
    }

    /// Builds (or content-dedups) the canonical program for one
    /// representative spec — the route-key paths call this once per key.
    fn id_for_content(&mut self, trace: &CompiledTrace, spec: &LaneSpec) -> (usize, bool) {
        let program = &mut self.build;
        program.clear();
        match spec.class {
            LaneClass::StuckOpen => {
                build_sof(trace, spec.vic, &mut self.self_reads, program)
            }
            LaneClass::Decay => {
                build_decay(trace, spec.vic, spec.decay.expect("decay rule"), program);
            }
            LaneClass::NpsfStatic | LaneClass::NpsfActive => {
                build_npsf(trace, &spec.npsf.expect("npsf shape"), program);
            }
            _ => build_plain(trace, spec.vic, spec.agg, program),
        }
        let flipped = canonicalize(program);
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

/// A fault's O(1) batch route on a monoclass trace — the key both the
/// per-trace scheduler ([`detect_chunk`]) and the precomputed
/// [`UniversePlan`] group faults by. Every word carries the same op
/// content, so faults with equal keys provably share an access program,
/// and batching a fault costs one small hash lookup instead of rebuilding
/// and hashing its whole projected program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RouteKey {
    Plain {
        class: LaneClass,
        /// 0 = single cell, 1 = intra-word pair, 2 = inter-word pair with
        /// victim at the lower address, 3 = with aggressor at the lower
        /// address (2/3 only issued when the trace certifies
        /// address-uniform interleave).
        shape: u8,
        vic_bit: u8,
        agg_bit: u8,
    },
    /// A five-cell NPSF fault under the address-uniform certificate: every
    /// word's op list is one segment projection per march element, ordered
    /// by address rank, so the merged projection of the five support words
    /// — and with it the built program — depends only on their bit
    /// positions, relative address order, and the activation parameters.
    /// ~tens of keys cover a whole NPSF universe instead of one five-way
    /// merge per fault.
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
    /// expectations and golden values — the content every word of a
    /// monoclass trace carries identically — so it depends only on the
    /// bit position and the read budget.
    PullOpen { bit: u8, good_reads: u8 },
}

/// The route of `spec` on a monoclass trace (`uniform`: whether it also
/// certifies address-uniform interleave), or `None` when the program must
/// be resolved through the [`BuildKey`] memo instead: inter-word pairs
/// and NPSF without the uniform certificate, and the stuck-open and
/// retention families, whose programs depend on the word's place in the
/// stream (sense history, timestamps) and fold by content, not by a
/// trace-independent key (cheap — their builds walk one op list).
fn route_of(spec: &LaneSpec, uniform: bool) -> Option<RouteKey> {
    match spec.class {
        LaneClass::StuckAt
        | LaneClass::Transition
        | LaneClass::CouplingInversion
        | LaneClass::CouplingIdempotent
        | LaneClass::CouplingState => {
            let (shape, agg_bit) = match spec.agg {
                None => (0, 0),
                Some(a) if a.word == spec.vic.word => (1, a.bit),
                Some(a) if uniform => (if spec.vic.word < a.word { 2 } else { 3 }, a.bit),
                Some(_) => return None,
            };
            Some(RouteKey::Plain {
                class: spec.class,
                shape,
                vic_bit: spec.vic.bit,
                agg_bit,
            })
        }
        LaneClass::NpsfStatic | LaneClass::NpsfActive if uniform => {
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
        _ => None,
    }
}

/// Simulates a chunk of faults: every address-local fault is grouped into
/// lanes and replayed once per batch; decoder faults route through the
/// per-fault path ([`detect_one`]). Returns one flag per fault, in chunk
/// order — batching never reorders or changes a verdict, only the
/// wall-clock cost.
pub(crate) fn detect_chunk(
    trace: &CompiledTrace,
    faults: &[FaultKind],
    scratch: &mut WorkerScratch,
    cancel: &CancelToken,
) -> Vec<bool> {
    let mut flags = vec![false; faults.len()];
    let mut programs = Programs::default();
    let mut batches: Vec<Batch> = Vec::new();
    // Program resolution is memoized per route key; the open (possibly
    // full) batch lives per (class, canonical program), so route keys that
    // canonicalize onto one program — complementary backgrounds — share
    // batches. A full batch is replaced by a fresh one on the next hit.
    let mut routed: HashMap<RouteKey, (usize, bool), FnvBuild> =
        HashMap::with_hasher(FnvBuild);
    let mut open: HashMap<(LaneClass, usize), usize, FnvBuild> =
        HashMap::with_hasher(FnvBuild);
    let monoclass = trace.monoclass();
    let uniform = trace.uniform_interleave();
    let miscompares = trace.golden_miscompares();
    let ports = trace.geometry().ports();
    let mut latch = Vec::new();
    for (index, &fault) in faults.iter().enumerate() {
        // Batch flags land out of chunk order, so a cancelled chunk cannot
        // return a meaningful prefix: hand back an empty (clearly partial)
        // vector and let the caller discard it after checking the token.
        if index % CANCEL_CHECK_STRIDE == 0 && cancel.is_cancelled() {
            return Vec::new();
        }
        let Some(spec) = lane_spec(fault) else {
            flags[index] = detect_one(trace, fault, scratch);
            continue;
        };
        let route = if monoclass { route_of(&spec, uniform) } else { None };
        let (program, flipped) = match route {
            Some(key) => match routed.entry(key) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => *e.insert(programs.id_for_content(trace, &spec)),
            },
            None => programs.id_for(trace, &spec),
        };
        let slot = match open.entry((spec.class, program)) {
            Entry::Occupied(mut e) => refill(&mut batches, e.get_mut(), spec.class),
            Entry::Vacant(e) => {
                batches.push(Batch::new(spec.class, program));
                *e.insert(batches.len() - 1)
            }
        };
        let pre_detected = !miscompares.is_empty()
            && miscompares.iter().any(|&(_, addr)| addr != spec.vic.word);
        batches[slot].push(index, &spec, flipped, pre_detected);
    }
    for batch in &batches {
        if cancel.is_cancelled() {
            return Vec::new();
        }
        let detected =
            run_batch(&programs.store[batch.program], &batch.masks, ports, &mut latch);
        for (lane, &index) in batch.faults.iter().enumerate() {
            flags[index] = detected.get(lane);
        }
    }
    flags
}

/// Returns the slot an open batch lives in, replacing a full batch with a
/// fresh one for the same program (updating the open slot in place).
fn refill(batches: &mut Vec<Batch>, slot: &mut usize, class: LaneClass) -> usize {
    if batches[*slot].faults.len() == LANES {
        let program = batches[*slot].program;
        batches.push(Batch::new(class, program));
        *slot = batches.len() - 1;
    }
    *slot
}

/// A route-key group of a [`UniversePlan`]: every member provably shares
/// one canonical program on any trace satisfying the planned signature, so
/// one representative build serves every slot.
struct PlanGroup {
    /// First member in universe order — the build representative.
    rep: LaneSpec,
    /// The group's batches as raw (never-flipped) lane masks, re-based by
    /// the group's canonicalization flip at scoring time.
    slots: Vec<LaneMasks>,
}

/// A trace as a [`UniversePlan`] reads it: either a complete
/// [`CompiledTrace`] (every complete trace converts), or a
/// support-restricted compile from
/// [`TraceArena::compile_support`](crate::trace::TraceArena::compile_support),
/// whose per-word op lists cover only the plan's support words and which
/// carries no step stream. Only [`UniversePlan::count_detected`] accepts
/// it, and the wrapped trace is private to this module, so no other
/// engine can read a partial trace.
pub(crate) struct SupportTrace<'a>(&'a CompiledTrace);

impl<'a> From<&'a CompiledTrace> for SupportTrace<'a> {
    fn from(trace: &'a CompiledTrace) -> Self {
        Self(trace)
    }
}

/// The buffers a [`UniversePlan`] reuses from one candidate to the next:
/// the program store with its build buffer, the open batches of the
/// per-fault builds, and the sense-latch scratch of the lane and sliced
/// replays.
#[derive(Default)]
pub(crate) struct PlanScratch {
    programs: Programs,
    /// The open batch of each `(class, program)` of the per-fault builds.
    open: HashMap<(LaneClass, usize), LaneMasks, FnvBuild>,
    latch: Vec<Lanes>,
    sliced: SlicedScratch,
}

/// A fault universe pre-batched for repeated scoring against many traces
/// of one shape — the synthesis hot path, where thousands of candidate
/// traces are scored against one fixed universe.
///
/// [`detect_chunk`] spends much of a scoring call on per-fault routing
/// (a `lane_spec` lowering plus a hash lookup per fault) and per-call map
/// allocation, all of which produce the *same* grouping for every
/// candidate: every expanded march is monoclass, address-uniform on three
/// or more words, and — for canonical candidates — clean. Under that
/// signature (checked by [`Self::applies`]) the plan scores every fault
/// itself, on one of three paths fixed at plan time:
///
/// - **Route groups.** The batch route of every plain, NPSF and pull-open
///   fault is a function of the fault alone ([`route_of`] with
///   `uniform = true`), so the grouping — lane order, per-lane constant
///   masks, batch membership — is computed once here, and a candidate
///   costs one program build per group and one [`run_batch`] per slot.
/// - **Per-fault builds.** Stuck-open and retention programs depend on
///   the word's place in the stream, so those faults are lowered to
///   [`LaneSpec`]s once, one list per [`BuildKey`]. Per candidate, each
///   list's program is built, resolved against the programs the candidate
///   already built, and its lanes are appended to that program's open
///   batch.
/// - **Sliced replay.** Faults with no lane form (decoder faults, NPSF
///   neighborhoods that reuse a word) take the per-fault sliced replay.
///
/// Every path reads only the support words or decoder words of the
/// faults it replays (a group: of its representative), never the step
/// stream, so the plan always declares its support set and candidates
/// compile support-restricted whatever the universe. Verdicts are
/// identical to the engine's — per-lane updates never depend on batch
/// composition — so a planned count always equals the engine count.
pub(crate) struct UniversePlan {
    geometry: mbist_mem::MemGeometry,
    groups: Vec<PlanGroup>,
    /// Stuck-open and retention faults in lane form, one list per build
    /// key (in universe order).
    builds: Vec<Vec<LaneSpec>>,
    /// Faults with no lane form, for the sliced replay (in universe
    /// order).
    sliced: Vec<FaultKind>,
    /// The words whose op lists [`Self::count_detected`] reads: the
    /// support words of each group's representative (the group's program
    /// is built from it alone) and of every other lane fault, and the
    /// support words or decoder word pair of each sliced fault.
    support: Vec<bool>,
}

impl UniversePlan {
    /// Pre-batches `universe` for traces on `geometry` satisfying the
    /// planned signature.
    pub(crate) fn new(geometry: mbist_mem::MemGeometry, universe: &[FaultKind]) -> Self {
        let mut groups: Vec<PlanGroup> = Vec::new();
        let mut by_route: HashMap<RouteKey, usize, FnvBuild> =
            HashMap::with_hasher(FnvBuild);
        let mut builds: Vec<Vec<LaneSpec>> = Vec::new();
        let mut by_build: HashMap<BuildKey, usize, FnvBuild> =
            HashMap::with_hasher(FnvBuild);
        let mut sliced = Vec::new();
        let mut support =
            vec![false; usize::try_from(geometry.words()).expect("words fit")];
        for &fault in universe {
            let Some(spec) = lane_spec(fault) else {
                mark_replay_words(fault, &mut support);
                sliced.push(fault);
                continue;
            };
            let Some(key) = route_of(&spec, true) else {
                mark_replay_words(fault, &mut support);
                let bi = *by_build.entry(BuildKey::of(&spec)).or_insert_with(|| {
                    builds.push(Vec::new());
                    builds.len() - 1
                });
                builds[bi].push(spec);
                continue;
            };
            let gi = match by_route.entry(key) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    mark_replay_words(fault, &mut support);
                    groups.push(PlanGroup { rep: spec, slots: Vec::new() });
                    *e.insert(groups.len() - 1)
                }
            };
            let slots = &mut groups[gi].slots;
            if slots.last().is_none_or(|s| s.lanes == LANES) {
                slots.push(LaneMasks::new(spec.class));
            }
            // Raw space: flip correction is applied per trace at scoring
            // time, pre-detection is impossible under a clean golden replay.
            slots.last_mut().expect("slot just ensured").push(&spec, false, false);
        }
        Self { geometry, groups, builds, sliced, support }
    }

    /// The support set a [`SupportTrace`] for this plan must cover (see
    /// the field doc).
    pub(crate) fn support(&self) -> &[bool] {
        &self.support
    }

    /// Whether the plan's soundness preconditions hold for `trace` (same
    /// geometry, address-uniform, one content class, clean golden replay).
    fn applies(&self, trace: &CompiledTrace) -> bool {
        trace.geometry() == self.geometry
            && trace.uniform_interleave()
            && trace.monoclass()
            && trace.golden_miscompares().is_empty()
    }

    /// Counts the universe's detected faults against `trace` using the
    /// precomputed batching, with the same early-exit cap semantics as
    /// [`CompiledTrace::count_detected`]: a reached cap returns exactly
    /// `stop_after`, otherwise the exact total. `None` when the plan's
    /// signature does not hold for the trace — the caller then scores a
    /// complete trace through the general engine.
    pub(crate) fn count_detected(
        &self,
        trace: SupportTrace<'_>,
        stop_after: Option<usize>,
        scratch: &mut PlanScratch,
    ) -> Option<usize> {
        let trace = trace.0;
        if !self.applies(trace) {
            return None;
        }
        let stop = stop_after.unwrap_or(usize::MAX);
        if stop == 0 {
            return Some(0);
        }
        let ports = trace.geometry().ports();
        let PlanScratch { programs, open, latch, sliced } = scratch;
        programs.clear();
        open.clear();
        let mut count = 0usize;
        for group in &self.groups {
            let (pid, flipped) = programs.id_for_content(trace, &group.rep);
            for masks in &group.slots {
                let masks = masks.flip_corrected(flipped);
                count += run_batch(&programs.store[pid], &masks, ports, latch).count();
                if count >= stop {
                    return Some(stop);
                }
            }
        }
        for build in &self.builds {
            let (pid, flipped) = programs.id_for_content(trace, &build[0]);
            for spec in build {
                let masks = open
                    .entry((spec.class, pid))
                    .or_insert_with(|| LaneMasks::new(spec.class));
                masks.push(spec, flipped, false);
                if masks.lanes == LANES {
                    count += run_batch(&programs.store[pid], masks, ports, latch).count();
                    *masks = LaneMasks::new(spec.class);
                    if count >= stop {
                        return Some(stop);
                    }
                }
            }
        }
        for (&(_, pid), masks) in open.iter().filter(|(_, masks)| masks.lanes > 0) {
            count += run_batch(&programs.store[pid], masks, ports, latch).count();
            if count >= stop {
                return Some(stop);
            }
        }
        for &fault in &self.sliced {
            let detected = detect_sliced_with(trace, fault, sliced)
                .expect("every fault has support cells or decoder words");
            count += usize::from(detected);
            if count >= stop {
                return Some(stop);
            }
        }
        Some(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::{expand_with, ExpandOptions};
    use crate::library;
    use mbist_mem::{
        class_universe, FaultClass, MemGeometry, MemoryArray, PortId, UniverseSpec,
    };
    use mbist_rtl::Bits;

    fn assert_packed_equivalence(g: MemGeometry, test: &crate::MarchTest) {
        let steps = expand_with(test, &g, &ExpandOptions::for_geometry(&g));
        let trace = CompiledTrace::from_steps(g, &steps);
        let spec = UniverseSpec::default();
        let mut scratch = MemoryArray::new(g);
        for class in FaultClass::ALL {
            let universe = class_universe(&g, class, &spec);
            let packed = detect_chunk(
                &trace,
                &universe,
                &mut WorkerScratch::default(),
                &CancelToken::none(),
            );
            for (fault, packed_flag) in universe.iter().zip(packed) {
                assert_eq!(
                    packed_flag,
                    trace.detect_full(*fault, &mut scratch),
                    "{}: packed disagrees with full replay on {fault} ({g})",
                    test.name()
                );
            }
        }
    }

    #[test]
    fn packed_matches_full_replay_across_library_and_geometries() {
        for g in [
            MemGeometry::bit_oriented(16),
            MemGeometry::bit_oriented(24),
            MemGeometry::word_oriented(8, 4),
            MemGeometry::new(12, 1, 2),
        ] {
            for test in [library::mats(), library::march_c(), library::march_b()] {
                assert_packed_equivalence(g, &test);
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
        let mut programs = Programs::default();
        let universe = class_universe(&g, FaultClass::StuckAt, &UniverseSpec::default());
        for fault in &universe {
            let spec = lane_spec(*fault).unwrap();
            programs.id_for(&trace, &spec);
        }
        assert_eq!(programs.store.len(), 1, "uniform stream must share one program");
        assert_eq!(programs.by_key.len(), 64, "one memo entry per cell");
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
            let mut programs = Programs::default();
            let universe = class_universe(&g, class, &UniverseSpec::default());
            assert!(!universe.is_empty());
            for fault in &universe {
                let spec = lane_spec(*fault).unwrap();
                programs.id_for(&trace, &spec);
            }
            assert!(
                programs.store.len() <= 4,
                "{class:?}: {} programs for {} faults",
                programs.store.len(),
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
            let steps = expand_with(&library::mats(), &g, &ExpandOptions::for_geometry(&g));
            let trace = CompiledTrace::from_steps(g, &steps);
            let universe =
                class_universe(&g, FaultClass::StuckAt, &UniverseSpec::default());
            assert_eq!(universe.len() as u64, words * 2);
            // Count batches by replicating the scheduler's grouping.
            let mut programs = Programs::default();
            let mut lanes_per_key: HashMap<(LaneClass, usize), usize> = HashMap::new();
            for fault in &universe {
                let spec = lane_spec(*fault).unwrap();
                let (id, _) = programs.id_for(&trace, &spec);
                *lanes_per_key.entry((spec.class, id)).or_default() += 1;
            }
            let batch_count: usize =
                lanes_per_key.values().map(|n| n.div_ceil(LANES)).sum();
            assert_eq!(batch_count, expect_batches, "{words} words");
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
            let flags = detect_chunk(
                &trace,
                &universe[..n],
                &mut WorkerScratch::default(),
                &CancelToken::none(),
            );
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
        let mut programs = Programs::default();
        let mut flips = 0usize;
        for fault in &universe {
            let spec = lane_spec(*fault).unwrap();
            let (_, flipped) = programs.id_for(&trace, &spec);
            flips += usize::from(flipped);
        }
        assert_eq!(programs.store.len(), 1, "complements must fold onto one program");
        assert_eq!(flips, 128, "half the lanes ride the complemented projection");
        let packed = detect_chunk(
            &trace,
            &universe,
            &mut WorkerScratch::default(),
            &CancelToken::none(),
        );
        let mut scratch = MemoryArray::new(g);
        for (fault, flag) in universe.iter().zip(packed) {
            assert_eq!(flag, trace.detect_full(*fault, &mut scratch), "{fault}");
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
            let packed = detect_chunk(
                &trace,
                &universe,
                &mut WorkerScratch::default(),
                &CancelToken::none(),
            );
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

    /// Every fault's replay reads a bounded set of words — its support
    /// cells or its decoder word pair — which is what lets a plan always
    /// declare its support set.
    fn assert_bounded_support(fault: FaultKind) {
        assert!(
            fault.support().is_some() || fault.decoder_words().is_some(),
            "{fault} has neither support cells nor decoder words"
        );
    }

    #[test]
    fn only_decoder_faults_take_the_fallback() {
        // Every address-local class lane-packs now; decoder faults are the
        // single per-fault route left.
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
                assert_bounded_support(fault);
            }
        }
        // Hand-made NPSF neighborhoods that reuse a word do not lane-pack
        // (the five support words must be pairwise distinct) and fall back
        // per fault.
        let overlapping = overlapping_npsf();
        assert!(!lane_packable(overlapping));
        assert_bounded_support(overlapping);
    }

    /// The planned count of `universe` against `test` must equal the
    /// full-replay oracle's (and the packed engine's), capped and uncapped,
    /// on a complete trace and on the arena's support-restricted compile.
    fn assert_plan_matches(
        g: MemGeometry,
        universe: &[FaultKind],
        test: &crate::MarchTest,
        what: &str,
    ) {
        use crate::trace::{SimEngine, TraceArena};
        let opts = ExpandOptions::for_geometry(&g);
        let plan = UniversePlan::new(g, universe);
        let trace = CompiledTrace::compile(test, &g, &opts);
        assert!(plan.applies(&trace), "{what}: signature must hold");
        let total = trace.count_detected(universe, SimEngine::Full, None);
        assert_eq!(
            trace.count_detected(universe, SimEngine::Packed, None),
            total,
            "{what}: packed engine diverges from full replay"
        );
        let mut arena = TraceArena::new();
        let mut scratch = PlanScratch::default();
        for cap in [
            None,
            Some(0),
            Some(1),
            Some(total.saturating_sub(1)),
            Some(total),
            Some(total + 10),
        ] {
            let want = Some(cap.map_or(total, |c| total.min(c)));
            let complete = plan.count_detected((&trace).into(), cap, &mut scratch);
            assert_eq!(complete, want, "{what}: complete trace, cap {cap:?}");
            let part = arena.compile_support(test, &g, &opts, &plan);
            let part = plan.count_detected(part, cap, &mut scratch);
            assert_eq!(part, want, "{what}: support-restricted trace, cap {cap:?}");
        }
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
        // Every class, so every plan path — route groups, per-fault builds
        // and the sliced replay (decoder faults, and an overlapping NPSF
        // where the width allows) — across bit- and word-oriented and
        // two-port geometries, plus the decay schedules above. March C+ and
        // C++ add the pauses and triple reads that drive retention
        // deadlines, pull-open drains and stuck-open self-latches.
        let spec = UniverseSpec::default();
        for g in [
            MemGeometry::bit_oriented(24),
            MemGeometry::word_oriented(8, 4),
            MemGeometry::new(12, 1, 2),
        ] {
            let mut universe = subset_universe(&g, &FaultClass::ALL, &spec, 64);
            if g.width() > 1 {
                universe.push(overlapping_npsf());
            }
            for test in [
                library::mats(),
                library::march_c(),
                library::march_b(),
                library::march_c_plus(),
                library::march_c_plus_plus(),
            ] {
                let what = format!("{} on {g}", test.name());
                assert_plan_matches(g, &universe, &test, &what);
                let decay = decay_schedules(g, &test);
                assert_plan_matches(g, &decay, &test, &format!("{what}, decay schedules"));
            }
        }
    }

    #[test]
    fn universe_plan_declines_non_conforming_traces() {
        let g = MemGeometry::bit_oriented(4);
        let universe = class_universe(&g, FaultClass::StuckAt, &UniverseSpec::default());
        let plan = UniversePlan::new(g, &universe);
        let w = |addr, bit| {
            TestStep::Bus(BusCycle {
                port: PortId(0),
                addr,
                op: Operation::Write(Bits::bit1(bit)),
                expected: None,
            })
        };
        use mbist_mem::{BusCycle, Operation, TestStep};
        // Non-monotone address order: no uniform certificate.
        let scrambled =
            CompiledTrace::from_steps(g, &[w(0, true), w(2, true), w(1, true), w(3, true)]);
        assert!(!plan.applies(&scrambled));
        // Uniform order but mixed data: more than one content class.
        let mixed = CompiledTrace::from_steps(
            g,
            &[w(0, true), w(1, false), w(2, true), w(3, true)],
        );
        assert!(!plan.applies(&mixed));
        // Wrong geometry.
        let g2 = MemGeometry::bit_oriented(8);
        let t2 = CompiledTrace::from_steps(
            g2,
            &expand_with(&library::mats(), &g2, &ExpandOptions::for_geometry(&g2)),
        );
        assert!(!plan.applies(&t2));
    }

    #[test]
    fn universe_plan_groups_stay_small_on_reference_config() {
        // The whole point: a 256-word 5-class universe collapses to a
        // handful of groups, so per-candidate routing work vanishes.
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
        let plan = UniversePlan::new(g, &universe);
        assert!(
            plan.builds.is_empty() && plan.sliced.is_empty(),
            "all five classes are plan-routable"
        );
        assert!(
            plan.groups.len() <= 16,
            "{} groups for {} faults",
            plan.groups.len(),
            universe.len()
        );
        // The search benchmark's nine-class universe: only decoder faults
        // take the sliced replay, and every pull-open fault sits in a route
        // group, so per candidate only the stuck-open and retention faults
        // build per fault.
        let universe =
            subset_universe(&g, &FaultClass::ALL[..9], &UniverseSpec::default(), 256);
        let plan = UniversePlan::new(g, &universe);
        assert!(!plan.sliced.is_empty());
        assert!(
            plan.sliced.iter().all(|f| f.class() == FaultClass::AddressDecoder),
            "only decoder faults lack a lane form"
        );
        let is_pull_open =
            |spec: &LaneSpec| matches!(spec.decay, Some(DecayRule::PullOpen { .. }));
        let grouped: usize = plan
            .groups
            .iter()
            .filter(|group| is_pull_open(&group.rep))
            .flat_map(|group| &group.slots)
            .map(|masks| masks.lanes)
            .sum();
        let pull_open =
            universe.iter().filter(|f| f.class() == FaultClass::PullOpen).count();
        assert!(pull_open > 0);
        assert_eq!(grouped, pull_open, "every pull-open fault sits in a group");
        assert!(
            plan.builds.iter().flatten().all(|spec| !is_pull_open(spec)),
            "no pull-open fault builds per fault"
        );
    }
}

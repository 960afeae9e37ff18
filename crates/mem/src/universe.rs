//! Fault-universe generation for coverage evaluation.
//!
//! Serial fault simulation needs an explicit fault list. For the classical
//! models the natural universes are:
//!
//! - SAF/TF/SOF/DRF/PUF: two (or one) faults per cell — linear, generated
//!   exhaustively;
//! - coupling faults: quadratic in principle; generated here between
//!   *neighboring* cells (configurable word-distance window plus adjacent
//!   bits within a word), matching the physical-adjacency assumption used
//!   in memory test practice;
//! - address-decoder faults: one remap/multi-access per address per address
//!   bit (`n·log n`), modeling single-bit decoder defects.

use crate::faults::{FaultClass, FaultKind};
use crate::geometry::{CellId, MemGeometry};

/// Parameters for fault-universe generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniverseSpec {
    /// Word-distance window for coupling-fault pairs (`1` = adjacent words).
    pub coupling_window: u64,
    /// Retention time assumed for DRF faults, in nanoseconds.
    pub retention_ns: f64,
    /// Reads survived by a disconnected pull-up/down before decaying.
    pub pull_open_good_reads: u8,
}

impl Default for UniverseSpec {
    fn default() -> Self {
        Self { coupling_window: 1, retention_ns: 50_000.0, pull_open_good_reads: 2 }
    }
}

/// Generates the fault universe for one fault class.
///
/// # Examples
///
/// ```
/// use mbist_mem::{class_universe, FaultClass, MemGeometry, UniverseSpec};
///
/// let g = MemGeometry::bit_oriented(16);
/// let safs = class_universe(&g, FaultClass::StuckAt, &UniverseSpec::default());
/// assert_eq!(safs.len(), 32); // SA0 and SA1 per cell
/// ```
#[must_use]
pub fn class_universe(
    g: &MemGeometry,
    class: FaultClass,
    spec: &UniverseSpec,
) -> Vec<FaultKind> {
    match class {
        FaultClass::StuckAt => g
            .cells()
            .flat_map(|cell| {
                [
                    FaultKind::StuckAt { cell, value: false },
                    FaultKind::StuckAt { cell, value: true },
                ]
            })
            .collect(),
        FaultClass::Transition => g
            .cells()
            .flat_map(|cell| {
                [
                    FaultKind::Transition { cell, rising: true },
                    FaultKind::Transition { cell, rising: false },
                ]
            })
            .collect(),
        FaultClass::CouplingInversion => coupling_pairs(g, spec)
            .into_iter()
            .flat_map(|(aggressor, victim)| {
                [
                    FaultKind::CouplingInversion { aggressor, victim, rising: true },
                    FaultKind::CouplingInversion { aggressor, victim, rising: false },
                ]
            })
            .collect(),
        FaultClass::CouplingIdempotent => coupling_pairs(g, spec)
            .into_iter()
            .flat_map(|(aggressor, victim)| {
                [
                    FaultKind::CouplingIdempotent {
                        aggressor,
                        victim,
                        rising: true,
                        forced: true,
                    },
                    FaultKind::CouplingIdempotent {
                        aggressor,
                        victim,
                        rising: true,
                        forced: false,
                    },
                    FaultKind::CouplingIdempotent {
                        aggressor,
                        victim,
                        rising: false,
                        forced: true,
                    },
                    FaultKind::CouplingIdempotent {
                        aggressor,
                        victim,
                        rising: false,
                        forced: false,
                    },
                ]
            })
            .collect(),
        FaultClass::CouplingState => coupling_pairs(g, spec)
            .into_iter()
            .flat_map(|(aggressor, victim)| {
                [
                    FaultKind::CouplingState {
                        aggressor,
                        victim,
                        when: true,
                        forced: true,
                    },
                    FaultKind::CouplingState {
                        aggressor,
                        victim,
                        when: true,
                        forced: false,
                    },
                    FaultKind::CouplingState {
                        aggressor,
                        victim,
                        when: false,
                        forced: true,
                    },
                    FaultKind::CouplingState {
                        aggressor,
                        victim,
                        when: false,
                        forced: false,
                    },
                ]
            })
            .collect(),
        FaultClass::AddressDecoder => {
            let mut out = Vec::new();
            for from in 0..g.words() {
                for bit in 0..g.addr_bits() {
                    let to = from ^ (1u64 << bit);
                    if g.contains_addr(to) {
                        out.push(FaultKind::AddressMap { from, to });
                        if from < to {
                            out.push(FaultKind::AddressMulti {
                                addr: from,
                                extra: to,
                                wired_and: true,
                            });
                            out.push(FaultKind::AddressMulti {
                                addr: from,
                                extra: to,
                                wired_and: false,
                            });
                        }
                    }
                }
            }
            out
        }
        FaultClass::StuckOpen => {
            g.cells().map(|cell| FaultKind::StuckOpen { cell }).collect()
        }
        FaultClass::Retention => g
            .cells()
            .flat_map(|cell| {
                [
                    FaultKind::Retention {
                        cell,
                        decays_to: false,
                        retention_ns: spec.retention_ns,
                    },
                    FaultKind::Retention {
                        cell,
                        decays_to: true,
                        retention_ns: spec.retention_ns,
                    },
                ]
            })
            .collect(),
        FaultClass::PullOpen => g
            .cells()
            .flat_map(|cell| {
                [
                    FaultKind::PullOpen {
                        cell,
                        good_reads: spec.pull_open_good_reads,
                        decays_to: false,
                    },
                    FaultKind::PullOpen {
                        cell,
                        good_reads: spec.pull_open_good_reads,
                        decays_to: true,
                    },
                ]
            })
            .collect(),
        FaultClass::NpsfStatic => {
            let cols = topology_cols(g);
            let mut out = Vec::new();
            for cell in g.cells() {
                let Some(nb) = neighborhood(g, cell.word, cols) else { continue };
                for pattern in 0..16u8 {
                    let neighborhood = [
                        (CellId::new(nb[0], cell.bit), pattern & 1 != 0),
                        (CellId::new(nb[1], cell.bit), pattern & 2 != 0),
                        (CellId::new(nb[2], cell.bit), pattern & 4 != 0),
                        (CellId::new(nb[3], cell.bit), pattern & 8 != 0),
                    ];
                    for forced in [false, true] {
                        out.push(FaultKind::NpsfStatic {
                            base: cell,
                            neighborhood,
                            forced,
                        });
                    }
                }
            }
            out
        }
        FaultClass::NpsfActive => {
            let cols = topology_cols(g);
            let mut out = Vec::new();
            for cell in g.cells() {
                let Some(nb) = neighborhood(g, cell.word, cols) else { continue };
                for trig in 0..4usize {
                    let rest: Vec<u64> =
                        (0..4).filter(|&k| k != trig).map(|k| nb[k]).collect();
                    for rising in [false, true] {
                        for pattern in 0..8u8 {
                            let others = [
                                (CellId::new(rest[0], cell.bit), pattern & 1 != 0),
                                (CellId::new(rest[1], cell.bit), pattern & 2 != 0),
                                (CellId::new(rest[2], cell.bit), pattern & 4 != 0),
                            ];
                            out.push(FaultKind::NpsfActive {
                                base: cell,
                                trigger: CellId::new(nb[trig], cell.bit),
                                rising,
                                others,
                            });
                        }
                    }
                }
            }
            out
        }
    }
}

/// Exact size of [`class_universe`] without materializing it — closed
/// forms, and a walk over the words for NPSF only, no `FaultKind`
/// construction. Lets samplers pick stride indices up front and generate
/// just the kept faults.
#[must_use]
pub fn class_universe_len(
    g: &MemGeometry,
    class: FaultClass,
    spec: &UniverseSpec,
) -> usize {
    let words = usize::try_from(g.words()).expect("words fit usize");
    let width = usize::from(g.width());
    let cells = words * width;
    match class {
        FaultClass::StuckAt
        | FaultClass::Transition
        | FaultClass::Retention
        | FaultClass::PullOpen => 2 * cells,
        FaultClass::StuckOpen => cells,
        FaultClass::CouplingInversion => 2 * coupling_pairs_len(g, spec),
        FaultClass::CouplingIdempotent | FaultClass::CouplingState => {
            4 * coupling_pairs_len(g, spec)
        }
        // Address bit `b` pairs the words below `n` that differ only in it,
        // one pair per word with bit `b` set; each pair holds four faults
        // (a remap from either word, and the lower word's two
        // multi-accesses).
        FaultClass::AddressDecoder => {
            let n = u128::from(g.words());
            let pairs: u128 = (0..g.addr_bits())
                .map(|b| {
                    let (half, period) = (1u128 << b, 2u128 << b);
                    n / period * half + (n % period).saturating_sub(half)
                })
                .sum();
            usize::try_from(4 * pairs).expect("fault count fits usize")
        }
        FaultClass::NpsfStatic => interior_words(g) * width * 32,
        FaultClass::NpsfActive => interior_words(g) * width * 64,
    }
}

/// Number of `(aggressor, victim)` pairs [`coupling_pairs`] generates:
/// every word's same-bit neighbors within the window, summed in closed
/// form (`Σ_w min(c, w) + min(c, n−1−w) = 2·Σ_{u<n} min(c, u)`), plus two
/// bit-adjacent pairs per word and adjacent bit position.
fn coupling_pairs_len(g: &MemGeometry, spec: &UniverseSpec) -> usize {
    let (words, window) = (g.words(), spec.coupling_window);
    let m = words.min(window);
    let below_window = m * m.saturating_sub(1) / 2 + (words - m) * window;
    let width = u64::from(g.width());
    usize::try_from(2 * below_window * width + 2 * words * (width - 1))
        .expect("pair count fits usize")
}

/// Number of entries [`class_universe`] gives `word` (the faults whose
/// enumeration falls under it), in O(1) — what lets the sampler skip a
/// word that holds no kept index without generating its faults.
fn word_universe_len(
    g: &MemGeometry,
    class: FaultClass,
    spec: &UniverseSpec,
    cols: u64,
    word: u64,
) -> usize {
    let width = usize::from(g.width());
    let coupling = || {
        let window = spec.coupling_window;
        let near = window.min(word) + window.min(g.words() - 1 - word);
        usize::try_from(near).expect("pair count fits usize") * width + 2 * (width - 1)
    };
    let npsf = |per_cell: usize| {
        if neighborhood(g, word, cols).is_some() {
            per_cell * width
        } else {
            0
        }
    };
    match class {
        FaultClass::StuckAt
        | FaultClass::Transition
        | FaultClass::Retention
        | FaultClass::PullOpen => 2 * width,
        FaultClass::StuckOpen => width,
        FaultClass::CouplingInversion => 2 * coupling(),
        FaultClass::CouplingIdempotent | FaultClass::CouplingState => 4 * coupling(),
        // A set address bit pairs the word with a lower one (one remap); a
        // clear bit `b` pairs it with a higher one when `word + 2^b < n`,
        // i.e. for the bits below those of `n − word − 1` (a remap and two
        // multi-accesses).
        FaultClass::AddressDecoder => {
            let higher = (g.words() - word).next_power_of_two() - 1;
            (word.count_ones() + 3 * (!word & higher).count_ones()) as usize
        }
        FaultClass::NpsfStatic => npsf(32),
        FaultClass::NpsfActive => npsf(64),
    }
}

/// Number of words with a complete type-1 neighborhood.
fn interior_words(g: &MemGeometry) -> usize {
    let cols = topology_cols(g);
    (0..g.words()).filter(|&w| neighborhood(g, w, cols).is_some()).count()
}

/// Walks the [`class_universe`] enumeration order in fixed-size blocks,
/// constructing only the faults whose global index is in the stride-kept
/// set `ceil(k·len/max) − 1` for `k = 1..=max` — the same subsample
/// `stride_sample` would take from the materialized universe — and
/// stepping over blocks that hold no kept index.
struct StrideSampler {
    len: usize,
    max: usize,
    /// The ordinal `k` of the next kept index…
    k: usize,
    /// …and that index (`usize::MAX` once all `max` are kept).
    next: usize,
    idx: usize,
    out: Vec<FaultKind>,
}

impl StrideSampler {
    fn new(len: usize, max: usize) -> Self {
        let mut s = Self { len, max, k: 0, next: 0, idx: 0, out: Vec::with_capacity(max) };
        s.advance();
        s
    }

    fn advance(&mut self) {
        self.k += 1;
        self.next = if self.k <= self.max {
            (self.k * self.len).div_ceil(self.max) - 1
        } else {
            usize::MAX
        };
    }

    /// Steps past a block of `len` consecutive universe entries if it
    /// holds no kept index; returns whether it did.
    fn skip(&mut self, len: usize) -> bool {
        let skipped = self.next >= self.idx + len;
        if skipped {
            self.idx += len;
        }
        skipped
    }

    /// Advances past a block of `len` consecutive universe entries,
    /// materializing the kept ones via `gen(offset_in_block)`.
    fn block(&mut self, len: usize, gen: impl Fn(usize) -> FaultKind) {
        let end = self.idx + len;
        while self.next < end {
            self.out.push(gen(self.next - self.idx));
            self.advance();
        }
        self.idx = end;
    }
}

/// [`class_universe`] pre-subsampled to at most `max` faults with the
/// deterministic stride rule `evaluate_coverage` uses (`max == 0` means no
/// cap). Returns exactly `stride_sample(class_universe(..), max)` but
/// generates only the kept faults, and steps over every word that holds
/// no kept index in O(1) (`word_universe_len`) — on large geometries the
/// NPSF, coupling and decoder universes run to tens of thousands of
/// entries, and coverage runs that cap each class at a few hundred should
/// not generate the faults of the words they do not keep.
#[must_use]
pub fn class_universe_sampled(
    g: &MemGeometry,
    class: FaultClass,
    spec: &UniverseSpec,
    max: usize,
) -> Vec<FaultKind> {
    let len = class_universe_len(g, class, spec);
    if max == 0 || len <= max {
        return class_universe(g, class, spec);
    }
    let mut s = StrideSampler::new(len, max);
    let cols = topology_cols(g);
    let mut pairs = Vec::new();
    for word in 0..g.words() {
        if s.skip(word_universe_len(g, class, spec, cols, word)) {
            continue;
        }
        let cells = (0..g.width()).map(|bit| CellId::new(word, bit));
        match class {
            FaultClass::StuckAt => {
                for cell in cells {
                    s.block(2, |i| FaultKind::StuckAt { cell, value: i == 1 });
                }
            }
            FaultClass::Transition => {
                for cell in cells {
                    s.block(2, |i| FaultKind::Transition { cell, rising: i == 0 });
                }
            }
            FaultClass::CouplingInversion
            | FaultClass::CouplingIdempotent
            | FaultClass::CouplingState => {
                pairs.clear();
                push_word_coupling_pairs(g, spec, word, &mut pairs);
                for &(aggressor, victim) in &pairs {
                    match class {
                        FaultClass::CouplingInversion => {
                            s.block(2, |i| FaultKind::CouplingInversion {
                                aggressor,
                                victim,
                                rising: i == 0,
                            });
                        }
                        FaultClass::CouplingIdempotent => {
                            s.block(4, |i| FaultKind::CouplingIdempotent {
                                aggressor,
                                victim,
                                rising: i < 2,
                                forced: i % 2 == 0,
                            });
                        }
                        _ => s.block(4, |i| FaultKind::CouplingState {
                            aggressor,
                            victim,
                            when: i < 2,
                            forced: i % 2 == 0,
                        }),
                    }
                }
            }
            FaultClass::AddressDecoder => {
                let from = word;
                for bit in 0..g.addr_bits() {
                    let to = from ^ (1u64 << bit);
                    if g.contains_addr(to) {
                        s.block(1, |_| FaultKind::AddressMap { from, to });
                        if from < to {
                            s.block(2, |i| FaultKind::AddressMulti {
                                addr: from,
                                extra: to,
                                wired_and: i == 0,
                            });
                        }
                    }
                }
            }
            FaultClass::StuckOpen => {
                for cell in cells {
                    s.block(1, |_| FaultKind::StuckOpen { cell });
                }
            }
            FaultClass::Retention => {
                for cell in cells {
                    s.block(2, |i| FaultKind::Retention {
                        cell,
                        decays_to: i == 1,
                        retention_ns: spec.retention_ns,
                    });
                }
            }
            FaultClass::PullOpen => {
                for cell in cells {
                    s.block(2, |i| FaultKind::PullOpen {
                        cell,
                        good_reads: spec.pull_open_good_reads,
                        decays_to: i == 1,
                    });
                }
            }
            FaultClass::NpsfStatic => {
                let nb = neighborhood(g, word, cols).expect("a kept word is interior");
                for cell in cells {
                    s.block(32, |i| {
                        let pattern = u8::try_from(i / 2).expect("pattern fits u8");
                        FaultKind::NpsfStatic {
                            base: cell,
                            neighborhood: [
                                (CellId::new(nb[0], cell.bit), pattern & 1 != 0),
                                (CellId::new(nb[1], cell.bit), pattern & 2 != 0),
                                (CellId::new(nb[2], cell.bit), pattern & 4 != 0),
                                (CellId::new(nb[3], cell.bit), pattern & 8 != 0),
                            ],
                            forced: i % 2 == 1,
                        }
                    });
                }
            }
            FaultClass::NpsfActive => {
                let nb = neighborhood(g, word, cols).expect("a kept word is interior");
                for cell in cells {
                    s.block(64, |i| {
                        let trig = i / 16;
                        let rising = (i % 16) / 8 == 1;
                        let pattern = u8::try_from(i % 8).expect("pattern fits u8");
                        let rest: Vec<u64> =
                            (0..4).filter(|&k| k != trig).map(|k| nb[k]).collect();
                        FaultKind::NpsfActive {
                            base: cell,
                            trigger: CellId::new(nb[trig], cell.bit),
                            rising,
                            others: [
                                (CellId::new(rest[0], cell.bit), pattern & 1 != 0),
                                (CellId::new(rest[1], cell.bit), pattern & 2 != 0),
                                (CellId::new(rest[2], cell.bit), pattern & 4 != 0),
                            ],
                        }
                    });
                }
            }
        }
    }
    debug_assert_eq!(s.idx, len, "sampled walk must cover the whole universe");
    s.out
}

/// The concatenated universe for a class subset, each class independently
/// stride-capped at `max_per_class` faults (`0` = uncapped) — the target
/// fault list a march-test search optimizes against. Classes contribute in
/// the order given, so two callers naming the same subset in the same
/// order see the same fault list in the same order (the determinism the
/// search-result memoization relies on).
#[must_use]
pub fn subset_universe(
    g: &MemGeometry,
    classes: &[FaultClass],
    spec: &UniverseSpec,
    max_per_class: usize,
) -> Vec<FaultKind> {
    let mut out = Vec::new();
    for &class in classes {
        out.extend(class_universe_sampled(g, class, spec, max_per_class));
    }
    out
}

/// The row width assumed for NPSF neighborhoods: words are laid out in
/// rows of `2^⌈addr_bits/2⌉` columns (a square-ish array, the common
/// embedded-SRAM aspect).
#[must_use]
pub fn topology_cols(g: &MemGeometry) -> u64 {
    1u64 << g.addr_bits().div_ceil(2)
}

/// The type-1 (von Neumann) neighborhood of a word — `[north, west, east,
/// south]` — or `None` for edge words whose neighborhood is incomplete.
#[must_use]
pub fn neighborhood(g: &MemGeometry, word: u64, cols: u64) -> Option<[u64; 4]> {
    let row = word / cols;
    let col = word % cols;
    if row == 0 || col == 0 || col + 1 >= cols {
        return None;
    }
    let north = word - cols;
    let south = word + cols;
    let west = word - 1;
    let east = word + 1;
    if !g.contains_addr(south) {
        return None;
    }
    Some([north, west, east, south])
}

/// Ordered (aggressor, victim) cell pairs within the coupling window:
/// cells in words at distance `1..=window`, plus bit-adjacent cells inside
/// the same word.
#[must_use]
pub fn coupling_pairs(g: &MemGeometry, spec: &UniverseSpec) -> Vec<(CellId, CellId)> {
    let mut out = Vec::new();
    for w in 0..g.words() {
        push_word_coupling_pairs(g, spec, w, &mut out);
    }
    out
}

/// Appends the [`coupling_pairs`] whose first cell lies in word `w`, in
/// order.
fn push_word_coupling_pairs(
    g: &MemGeometry,
    spec: &UniverseSpec,
    w: u64,
    out: &mut Vec<(CellId, CellId)>,
) {
    for b in 0..g.width() {
        let cell = CellId::new(w, b);
        // Same bit position in neighboring words, both directions.
        for d in 1..=spec.coupling_window {
            if w >= d {
                out.push((cell, CellId::new(w - d, b)));
            }
            if w + d < g.words() {
                out.push((cell, CellId::new(w + d, b)));
            }
        }
        // Adjacent bit within the same word.
        if b + 1 < g.width() {
            out.push((cell, CellId::new(w, b + 1)));
            out.push((CellId::new(w, b + 1), cell));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_universes_have_expected_sizes() {
        let g = MemGeometry::bit_oriented(8);
        let spec = UniverseSpec::default();
        assert_eq!(class_universe(&g, FaultClass::StuckAt, &spec).len(), 16);
        assert_eq!(class_universe(&g, FaultClass::Transition, &spec).len(), 16);
        assert_eq!(class_universe(&g, FaultClass::StuckOpen, &spec).len(), 8);
        assert_eq!(class_universe(&g, FaultClass::Retention, &spec).len(), 16);
        assert_eq!(class_universe(&g, FaultClass::PullOpen, &spec).len(), 16);
    }

    #[test]
    fn coupling_pairs_are_within_window_and_valid() {
        let g = MemGeometry::bit_oriented(8);
        let spec = UniverseSpec { coupling_window: 2, ..UniverseSpec::default() };
        let pairs = coupling_pairs(&g, &spec);
        assert!(!pairs.is_empty());
        for (a, v) in &pairs {
            assert_ne!(a, v);
            assert!(g.contains_cell(*a) && g.contains_cell(*v));
            assert!(a.word.abs_diff(v.word) <= 2);
        }
    }

    #[test]
    fn word_oriented_pairs_include_bit_neighbors() {
        let g = MemGeometry::word_oriented(2, 4);
        let spec = UniverseSpec::default();
        let pairs = coupling_pairs(&g, &spec);
        assert!(pairs.iter().any(|(a, v)| a.word == v.word && a.bit.abs_diff(v.bit) == 1));
    }

    #[test]
    fn every_generated_fault_is_valid() {
        let g = MemGeometry::word_oriented(16, 4);
        let spec = UniverseSpec::default();
        for class in FaultClass::ALL {
            for f in class_universe(&g, class, &spec) {
                assert!(f.is_valid_for(&g), "invalid generated fault {f}");
                assert_eq!(f.class(), class);
            }
        }
    }

    #[test]
    fn npsf_universes_cover_interior_cells_only() {
        // 16 words → 4 columns, interior = rows 1..2 × cols 1..2 minus the
        // bottom edge check: words 5, 6, 9, 10 (with south in range).
        let g = MemGeometry::bit_oriented(16);
        let spec = UniverseSpec::default();
        let cols = topology_cols(&g);
        assert_eq!(cols, 4);
        let interior: Vec<u64> =
            (0..16).filter(|&w| neighborhood(&g, w, cols).is_some()).collect();
        assert_eq!(interior, vec![5, 6, 9, 10]);
        let stat = class_universe(&g, FaultClass::NpsfStatic, &spec);
        assert_eq!(stat.len(), interior.len() * 16 * 2);
        let act = class_universe(&g, FaultClass::NpsfActive, &spec);
        assert_eq!(act.len(), interior.len() * 4 * 2 * 8);
    }

    #[test]
    fn neighborhoods_are_distinct_and_adjacent() {
        let g = MemGeometry::bit_oriented(64);
        let cols = topology_cols(&g);
        assert_eq!(cols, 8);
        let nb = neighborhood(&g, 27, cols).unwrap();
        assert_eq!(nb, [19, 26, 28, 35]);
        assert!(neighborhood(&g, 0, cols).is_none(), "corner has no neighborhood");
        assert!(neighborhood(&g, 7, cols).is_none(), "edge has no neighborhood");
    }

    /// Reference stride rule: keep indices `ceil(k·len/max) − 1`.
    fn stride_oracle(items: Vec<FaultKind>, max: usize) -> Vec<FaultKind> {
        let len = items.len();
        if max == 0 || len <= max {
            return items;
        }
        (1..=max).map(|k| items[(k * len).div_ceil(max) - 1]).collect()
    }

    #[test]
    fn counted_and_sampled_universes_match_the_materialized_ones() {
        // Small, odd and kiloword sizes, a non-power-of-two kiloword one
        // (the decoder's partial top pairs), and multi-bit words.
        let geometries = [
            MemGeometry::bit_oriented(16),
            MemGeometry::bit_oriented(300),
            MemGeometry::word_oriented(12, 4),
            MemGeometry::new(33, 2, 2),
            MemGeometry::bit_oriented(1000),
            MemGeometry::word_oriented(1024, 2),
        ];
        let specs = [
            UniverseSpec::default(),
            UniverseSpec { coupling_window: 3, ..UniverseSpec::default() },
        ];
        for g in &geometries {
            for spec in &specs {
                for class in FaultClass::ALL {
                    let full = class_universe(g, class, spec);
                    assert_eq!(
                        class_universe_len(g, class, spec),
                        full.len(),
                        "{class:?} on {g}"
                    );
                    for max in [0usize, 1, 7, 64, 512, full.len()] {
                        assert_eq!(
                            class_universe_sampled(g, class, spec, max),
                            stride_oracle(full.clone(), max),
                            "{class:?} on {g} with max {max}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn decoder_universe_scales_n_log_n() {
        let g = MemGeometry::bit_oriented(16);
        let spec = UniverseSpec::default();
        let afs = class_universe(&g, FaultClass::AddressDecoder, &spec);
        // 16 addresses × 4 bits remaps + 32 ordered-pair multi variants
        assert_eq!(afs.len(), 16 * 4 + 2 * 32);
    }
}

//! Classical functional fault models for random-access memories.
//!
//! The taxonomy follows van de Goor, *Testing Semiconductor Memories* (the
//! paper's reference \[10\]): stuck-at, transition, coupling (inversion,
//! idempotent, state), address-decoder, stuck-open, data-retention — plus
//! the "disconnected pull-up/pull-down" mechanism that motivates the
//! triple-read March C++ variant in the paper.

use std::fmt;

use crate::geometry::{CellId, MemGeometry};

/// Handle to an injected fault inside a
/// [`MemoryArray`](crate::MemoryArray).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FaultId(pub(crate) usize);

/// A functional memory fault.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum FaultKind {
    /// SAF: the cell permanently holds `value`.
    StuckAt {
        /// Affected cell.
        cell: CellId,
        /// The stuck logic value.
        value: bool,
    },
    /// TF: the cell cannot make one of its transitions. With
    /// `rising = true` the 0→1 transition fails (the cell stays 0);
    /// otherwise the 1→0 transition fails.
    Transition {
        /// Affected cell.
        cell: CellId,
        /// Which transition is broken.
        rising: bool,
    },
    /// CFin ⟨x; ↕⟩: a `rising` (or falling) transition written into the
    /// aggressor inverts the victim.
    CouplingInversion {
        /// Cell whose transition triggers the fault.
        aggressor: CellId,
        /// Cell that gets inverted.
        victim: CellId,
        /// Triggering transition direction on the aggressor.
        rising: bool,
    },
    /// CFid ⟨x; y⟩: a `rising` (or falling) transition written into the
    /// aggressor forces the victim to `forced`.
    CouplingIdempotent {
        /// Cell whose transition triggers the fault.
        aggressor: CellId,
        /// Cell that gets forced.
        victim: CellId,
        /// Triggering transition direction on the aggressor.
        rising: bool,
        /// Value forced onto the victim.
        forced: bool,
    },
    /// CFst ⟨x; y⟩: while the aggressor holds state `when`, the victim
    /// reads as `forced`.
    CouplingState {
        /// Cell whose state masks the victim.
        aggressor: CellId,
        /// Cell whose reads are masked.
        victim: CellId,
        /// Aggressor state that activates the fault.
        when: bool,
        /// Value observed on the victim while active.
        forced: bool,
    },
    /// AF (decoder mapping): accesses to word `from` actually reach word
    /// `to`. Covers both "cell never accessed" (word `from`'s cells) and
    /// "cell accessed by multiple addresses" (word `to`'s cells).
    AddressMap {
        /// The remapped address.
        from: u64,
        /// The word actually accessed.
        to: u64,
    },
    /// AF (multi-access): an access to `addr` reaches its own word *and*
    /// word `extra`. Reads combine the words wired-AND (`wired_and`) or
    /// wired-OR.
    AddressMulti {
        /// The multi-accessing address.
        addr: u64,
        /// The additional word accessed.
        extra: u64,
        /// Read-combination polarity.
        wired_and: bool,
    },
    /// SOF: the cell is disconnected; writes are lost and reads return
    /// whatever the port's sense amplifier last held.
    StuckOpen {
        /// Affected cell.
        cell: CellId,
    },
    /// DRF: after `retention_ns` without a refresh/write the cell leaks to
    /// `decays_to`. Only pause elements (March C+/A+) can detect it.
    Retention {
        /// Affected cell.
        cell: CellId,
        /// Value the cell decays to.
        decays_to: bool,
        /// Retention time in nanoseconds.
        retention_ns: f64,
    },
    /// Disconnected pull-up/pull-down device: the first `good_reads`
    /// consecutive reads after a write return the stored value, further
    /// reads drain the dynamically-held node and return (and latch)
    /// `decays_to`. Only multi-read elements (March C++/A++) detect it.
    PullOpen {
        /// Affected cell.
        cell: CellId,
        /// Number of reads that still see the written value.
        good_reads: u8,
        /// Value observed (and stored) once drained.
        decays_to: bool,
    },
    /// SNPSF (static neighborhood pattern-sensitive fault): while every
    /// neighborhood cell holds its listed value, the base cell reads as
    /// `forced`.
    NpsfStatic {
        /// The victim (base) cell.
        base: CellId,
        /// The neighborhood cells and the values that activate the fault.
        neighborhood: [(CellId, bool); 4],
        /// Value observed on the base while active.
        forced: bool,
    },
    /// ANPSF (active neighborhood pattern-sensitive fault): when the
    /// trigger cell makes the given transition while the remaining
    /// neighborhood cells hold their listed values, the base cell flips.
    NpsfActive {
        /// The victim (base) cell.
        base: CellId,
        /// The cell whose transition fires the fault.
        trigger: CellId,
        /// Triggering transition direction.
        rising: bool,
        /// The rest of the deleted neighborhood and its required values.
        others: [(CellId, bool); 3],
    },
}

impl FaultKind {
    /// The broad class this fault belongs to.
    #[must_use]
    pub fn class(&self) -> FaultClass {
        match self {
            FaultKind::StuckAt { .. } => FaultClass::StuckAt,
            FaultKind::Transition { .. } => FaultClass::Transition,
            FaultKind::CouplingInversion { .. } => FaultClass::CouplingInversion,
            FaultKind::CouplingIdempotent { .. } => FaultClass::CouplingIdempotent,
            FaultKind::CouplingState { .. } => FaultClass::CouplingState,
            FaultKind::AddressMap { .. } | FaultKind::AddressMulti { .. } => {
                FaultClass::AddressDecoder
            }
            FaultKind::StuckOpen { .. } => FaultClass::StuckOpen,
            FaultKind::Retention { .. } => FaultClass::Retention,
            FaultKind::PullOpen { .. } => FaultClass::PullOpen,
            FaultKind::NpsfStatic { .. } => FaultClass::NpsfStatic,
            FaultKind::NpsfActive { .. } => FaultClass::NpsfActive,
        }
    }

    /// The two word addresses an address-decoder fault wires together
    /// (`from`/`to` for [`FaultKind::AddressMap`], `addr`/`extra` for
    /// [`FaultKind::AddressMulti`]), or `None` for address-local faults.
    /// A decoder fault's deviations are confined to this pair — every
    /// other access replays identically to the fault-free trace — which is
    /// what a differential simulator keys its two-word decoder replay on.
    #[must_use]
    pub fn decoder_words(&self) -> Option<(u64, u64)> {
        match *self {
            FaultKind::AddressMap { from, to } => Some((from, to)),
            FaultKind::AddressMulti { addr, extra, .. } => Some((addr, extra)),
            _ => None,
        }
    }

    /// Parses a user-facing fault spec `KIND@ADDR[.BIT]` (the syntax the
    /// CLI's `--fault` flag and the service protocol's `fault` field share)
    /// and validates it against `geometry`.
    ///
    /// `KIND` is one of `sa0 sa1 tf-up tf-down sof drf puf`; `ADDR` is
    /// decimal or `0x`-prefixed hex; `BIT` defaults to 0.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the spec is malformed, names
    /// an unknown kind, or does not fit the geometry.
    pub fn parse_spec(spec: &str, geometry: &MemGeometry) -> Result<Self, String> {
        let (kind, loc) = spec
            .split_once('@')
            .ok_or_else(|| format!("fault `{spec}` must look like sa0@ADDR[.BIT]"))?;
        let (addr_s, bit_s) = match loc.split_once('.') {
            Some((a, b)) => (a, b),
            None => (loc, "0"),
        };
        let addr = if let Some(hex) = addr_s.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).map_err(|_| format!("invalid address `{addr_s}`"))
        } else {
            addr_s.parse().map_err(|_| format!("invalid address `{addr_s}`"))
        }?;
        let cell =
            CellId::new(addr, bit_s.parse().map_err(|_| format!("invalid bit `{bit_s}`"))?);
        let fault = match kind {
            "sa0" => FaultKind::StuckAt { cell, value: false },
            "sa1" => FaultKind::StuckAt { cell, value: true },
            "tf-up" => FaultKind::Transition { cell, rising: true },
            "tf-down" => FaultKind::Transition { cell, rising: false },
            "sof" => FaultKind::StuckOpen { cell },
            "drf" => FaultKind::Retention { cell, decays_to: true, retention_ns: 50_000.0 },
            "puf" => FaultKind::PullOpen { cell, good_reads: 2, decays_to: false },
            other => return Err(format!("unknown fault kind `{other}`")),
        };
        if !fault.is_valid_for(geometry) {
            return Err(format!("fault `{spec}` does not fit the geometry"));
        }
        Ok(fault)
    }

    /// Whether the fault is well-formed for the given geometry (cells in
    /// range, aggressor ≠ victim, mapped addresses distinct and in range).
    #[must_use]
    pub fn is_valid_for(&self, g: &MemGeometry) -> bool {
        match *self {
            FaultKind::StuckAt { cell, .. }
            | FaultKind::Transition { cell, .. }
            | FaultKind::StuckOpen { cell }
            | FaultKind::Retention { cell, .. }
            | FaultKind::PullOpen { cell, .. } => g.contains_cell(cell),
            FaultKind::CouplingInversion { aggressor, victim, .. }
            | FaultKind::CouplingIdempotent { aggressor, victim, .. }
            | FaultKind::CouplingState { aggressor, victim, .. } => {
                g.contains_cell(aggressor) && g.contains_cell(victim) && aggressor != victim
            }
            FaultKind::AddressMap { from, to } => {
                g.contains_addr(from) && g.contains_addr(to) && from != to
            }
            FaultKind::AddressMulti { addr, extra, .. } => {
                g.contains_addr(addr) && g.contains_addr(extra) && addr != extra
            }
            FaultKind::NpsfStatic { base, neighborhood, .. } => {
                let mut cells = vec![base];
                cells.extend(neighborhood.iter().map(|(c, _)| *c));
                all_distinct_and_valid(g, &cells)
            }
            FaultKind::NpsfActive { base, trigger, others, .. } => {
                let mut cells = vec![base, trigger];
                cells.extend(others.iter().map(|(c, _)| *c));
                all_distinct_and_valid(g, &cells)
            }
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultKind::StuckAt { cell, value } => {
                write!(f, "SAF{} {cell}", u8::from(value))
            }
            FaultKind::Transition { cell, rising } => {
                write!(f, "TF{} {cell}", if rising { "↑" } else { "↓" })
            }
            FaultKind::CouplingInversion { aggressor, victim, rising } => write!(
                f,
                "CFin<{};↕> {aggressor}->{victim}",
                if rising { "↑" } else { "↓" }
            ),
            FaultKind::CouplingIdempotent { aggressor, victim, rising, forced } => write!(
                f,
                "CFid<{};{}> {aggressor}->{victim}",
                if rising { "↑" } else { "↓" },
                u8::from(forced)
            ),
            FaultKind::CouplingState { aggressor, victim, when, forced } => write!(
                f,
                "CFst<{};{}> {aggressor}->{victim}",
                u8::from(when),
                u8::from(forced)
            ),
            FaultKind::AddressMap { from, to } => write!(f, "AFmap {from:#x}->{to:#x}"),
            FaultKind::AddressMulti { addr, extra, wired_and } => write!(
                f,
                "AFmulti {addr:#x}+{extra:#x} ({})",
                if wired_and { "and" } else { "or" }
            ),
            FaultKind::StuckOpen { cell } => write!(f, "SOF {cell}"),
            FaultKind::Retention { cell, decays_to, retention_ns } => {
                write!(f, "DRF->{} {cell} ({retention_ns}ns)", u8::from(decays_to))
            }
            FaultKind::PullOpen { cell, good_reads, decays_to } => {
                write!(f, "PUF->{} {cell} (after {good_reads} reads)", u8::from(decays_to))
            }
            FaultKind::NpsfStatic { base, neighborhood, forced } => {
                let pat: String =
                    neighborhood.iter().map(|(_, v)| if *v { '1' } else { '0' }).collect();
                write!(f, "SNPSF<{pat};{}> {base}", u8::from(forced))
            }
            FaultKind::NpsfActive { base, trigger, rising, others } => {
                let pat: String =
                    others.iter().map(|(_, v)| if *v { '1' } else { '0' }).collect();
                write!(
                    f,
                    "ANPSF<{}{pat}> {trigger}->{base}",
                    if rising { "↑" } else { "↓" }
                )
            }
        }
    }
}

fn all_distinct_and_valid(g: &MemGeometry, cells: &[CellId]) -> bool {
    cells.iter().all(|c| g.contains_cell(*c))
        && cells.iter().enumerate().all(|(i, c)| cells[..i].iter().all(|p| p != c))
}

/// Broad fault classes, used as coverage-report rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultClass {
    /// Stuck-at faults.
    StuckAt,
    /// Transition faults.
    Transition,
    /// Inversion coupling faults.
    CouplingInversion,
    /// Idempotent coupling faults.
    CouplingIdempotent,
    /// State coupling faults.
    CouplingState,
    /// Address-decoder faults.
    AddressDecoder,
    /// Stuck-open faults.
    StuckOpen,
    /// Data-retention faults.
    Retention,
    /// Disconnected pull-up/down (slow-decay) faults.
    PullOpen,
    /// Static neighborhood pattern-sensitive faults.
    NpsfStatic,
    /// Active neighborhood pattern-sensitive faults.
    NpsfActive,
}

impl FaultClass {
    /// All classes in report order.
    pub const ALL: [FaultClass; 11] = [
        FaultClass::StuckAt,
        FaultClass::Transition,
        FaultClass::CouplingInversion,
        FaultClass::CouplingIdempotent,
        FaultClass::CouplingState,
        FaultClass::AddressDecoder,
        FaultClass::StuckOpen,
        FaultClass::Retention,
        FaultClass::PullOpen,
        FaultClass::NpsfStatic,
        FaultClass::NpsfActive,
    ];

    /// Short report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::StuckAt => "SAF",
            FaultClass::Transition => "TF",
            FaultClass::CouplingInversion => "CFin",
            FaultClass::CouplingIdempotent => "CFid",
            FaultClass::CouplingState => "CFst",
            FaultClass::AddressDecoder => "AF",
            FaultClass::StuckOpen => "SOF",
            FaultClass::Retention => "DRF",
            FaultClass::PullOpen => "PUF",
            FaultClass::NpsfStatic => "SNPSF",
            FaultClass::NpsfActive => "ANPSF",
        }
    }

    /// The lowercase CLI/service tag — the exact inverse of
    /// [`FaultClass::parse_name`], used when echoing a class list back.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            FaultClass::StuckAt => "saf",
            FaultClass::Transition => "tf",
            FaultClass::AddressDecoder => "af",
            FaultClass::CouplingInversion => "cfin",
            FaultClass::CouplingIdempotent => "cfid",
            FaultClass::CouplingState => "cfst",
            FaultClass::StuckOpen => "sof",
            FaultClass::Retention => "drf",
            FaultClass::PullOpen => "puf",
            FaultClass::NpsfStatic => "snpsf",
            FaultClass::NpsfActive => "anpsf",
        }
    }

    /// Parses one lowercase class name as used by the CLI and service
    /// (`saf`, `tf`, `af`, `cfin`, `cfid`, `cfst`, `sof`, `drf`, `puf`,
    /// `snpsf`, `anpsf`) — the single shared spelling table, so the two
    /// front ends cannot drift.
    #[must_use]
    pub fn parse_name(name: &str) -> Option<FaultClass> {
        Some(match name {
            "saf" => FaultClass::StuckAt,
            "tf" => FaultClass::Transition,
            "af" => FaultClass::AddressDecoder,
            "cfin" => FaultClass::CouplingInversion,
            "cfid" => FaultClass::CouplingIdempotent,
            "cfst" => FaultClass::CouplingState,
            "sof" => FaultClass::StuckOpen,
            "drf" => FaultClass::Retention,
            "puf" => FaultClass::PullOpen,
            "snpsf" => FaultClass::NpsfStatic,
            "anpsf" => FaultClass::NpsfActive,
            _ => return None,
        })
    }

    /// Parses a comma-separated class list (`"saf,tf,cfid"`), trimming
    /// whitespace around each name. Duplicates are kept in order — callers
    /// that need a set can dedup.
    ///
    /// # Errors
    ///
    /// Returns the offending name on the first unknown entry.
    pub fn parse_list(spec: &str) -> Result<Vec<FaultClass>, String> {
        spec.split(',')
            .map(|name| {
                let name = name.trim();
                FaultClass::parse_name(name)
                    .ok_or_else(|| format!("unknown fault class `{name}`"))
            })
            .collect()
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> MemGeometry {
        MemGeometry::word_oriented(8, 2)
    }

    #[test]
    fn validity_checks_cells() {
        let ok = FaultKind::StuckAt { cell: CellId::new(7, 1), value: true };
        assert!(ok.is_valid_for(&g()));
        let bad = FaultKind::StuckAt { cell: CellId::new(8, 0), value: true };
        assert!(!bad.is_valid_for(&g()));
    }

    #[test]
    fn coupling_requires_distinct_cells() {
        let same = FaultKind::CouplingInversion {
            aggressor: CellId::new(1, 0),
            victim: CellId::new(1, 0),
            rising: true,
        };
        assert!(!same.is_valid_for(&g()));
    }

    #[test]
    fn decoder_faults_require_distinct_addresses() {
        assert!(!FaultKind::AddressMap { from: 2, to: 2 }.is_valid_for(&g()));
        assert!(FaultKind::AddressMap { from: 2, to: 5 }.is_valid_for(&g()));
        assert!(!FaultKind::AddressMulti { addr: 9, extra: 1, wired_and: true }
            .is_valid_for(&g()));
    }

    #[test]
    fn classes_are_assigned() {
        let f = FaultKind::Retention {
            cell: CellId::bit_oriented(0),
            decays_to: false,
            retention_ns: 1e6,
        };
        assert_eq!(f.class(), FaultClass::Retention);
        assert_eq!(f.class().label(), "DRF");
        let m = FaultKind::AddressMulti { addr: 0, extra: 1, wired_and: false };
        assert_eq!(m.class(), FaultClass::AddressDecoder);
    }

    #[test]
    fn display_is_informative() {
        let f = FaultKind::StuckAt { cell: CellId::new(3, 0), value: true };
        assert!(f.to_string().contains("SAF1"));
        let t = FaultKind::Transition { cell: CellId::new(3, 0), rising: true };
        assert!(t.to_string().contains("TF"));
    }

    #[test]
    fn decoder_words_name_exactly_the_wired_pair() {
        assert_eq!(FaultKind::AddressMap { from: 3, to: 7 }.decoder_words(), Some((3, 7)));
        assert_eq!(
            FaultKind::AddressMulti { addr: 2, extra: 5, wired_and: false }.decoder_words(),
            Some((2, 5))
        );
        // Address-local faults have no decoder pair.
        assert_eq!(
            FaultKind::StuckAt { cell: CellId::new(0, 0), value: true }.decoder_words(),
            None
        );
    }

    #[test]
    fn all_classes_have_unique_labels() {
        let labels: std::collections::HashSet<&str> =
            FaultClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), FaultClass::ALL.len());
    }

    #[test]
    fn parse_spec_covers_every_kind_and_radix() {
        let g = MemGeometry::word_oriented(16, 8);
        assert_eq!(
            FaultKind::parse_spec("sa1@0x5", &g),
            Ok(FaultKind::StuckAt { cell: CellId::new(5, 0), value: true })
        );
        assert_eq!(
            FaultKind::parse_spec("tf-up@3.6", &g),
            Ok(FaultKind::Transition { cell: CellId::new(3, 6), rising: true })
        );
        assert_eq!(
            FaultKind::parse_spec("sof@15.7", &g),
            Ok(FaultKind::StuckOpen { cell: CellId::new(15, 7) })
        );
        assert!(FaultKind::parse_spec("drf@0", &g).is_ok());
        assert!(FaultKind::parse_spec("puf@0", &g).is_ok());
    }

    #[test]
    fn parse_spec_rejects_malformed_and_out_of_range() {
        let g = MemGeometry::bit_oriented(8);
        assert!(FaultKind::parse_spec("sa1", &g).unwrap_err().contains("sa0@ADDR"));
        assert!(FaultKind::parse_spec("zz@1", &g).unwrap_err().contains("unknown fault"));
        assert!(FaultKind::parse_spec("sa1@x", &g).unwrap_err().contains("address"));
        assert!(FaultKind::parse_spec("sa1@0.q", &g).unwrap_err().contains("bit"));
        assert!(FaultKind::parse_spec("sa1@99", &g).unwrap_err().contains("does not fit"));
    }
}

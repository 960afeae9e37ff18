//! # mbist-mem — fault-injectable embedded memory simulator
//!
//! The memory-under-test substrate for the MBIST workspace: a
//! [`MemoryArray`] models a bit- or word-oriented, single- or multi-port
//! embedded SRAM whose read/write paths apply injected functional faults
//! ([`FaultKind`]) exactly as the underlying defect mechanisms would —
//! stuck-at, transition, coupling (inversion / idempotent / state),
//! address-decoder, stuck-open, data-retention and disconnected
//! pull-up/down faults.
//!
//! [`class_universe`] generates the standard fault lists used for serial
//! fault simulation, and [`Scrambler`] implementations capture
//! logical↔physical address topology.
//!
//! # Examples
//!
//! Detect a transition fault the way a march element would:
//!
//! ```
//! use mbist_mem::{CellId, FaultKind, MemGeometry, MemoryArray, PortId};
//! use mbist_rtl::Bits;
//!
//! let g = MemGeometry::bit_oriented(8);
//! let mut mem = MemoryArray::with_fault(
//!     g,
//!     FaultKind::Transition { cell: CellId::bit_oriented(3), rising: true },
//! )?;
//! let p = PortId(0);
//! // ⇑(w0); ⇑(r0,w1); ⇑(r1): the r1 catches the blocked 0→1 transition.
//! for a in 0..8 { mem.write(p, a, Bits::bit1(false)); }
//! for a in 0..8 {
//!     assert_eq!(mem.read(p, a).value(), 0);
//!     mem.write(p, a, Bits::bit1(true));
//! }
//! let failures: Vec<u64> = (0..8).filter(|&a| mem.read(p, a).value() != 1).collect();
//! assert_eq!(failures, vec![3]);
//! # Ok::<(), mbist_mem::MemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod error;
mod faults;
mod geometry;
mod index;
mod op;
pub mod rng;
mod scramble;
mod universe;

pub use array::{MemoryArray, DEFAULT_CYCLE_NS};
pub use error::MemError;
pub use faults::{FaultClass, FaultId, FaultKind};
pub use geometry::{CellId, MemGeometry, PortId};
pub use op::{BusCycle, Miscompare, Operation, TestStep};
pub use scramble::{BitReverseScrambler, IdentityScrambler, Scrambler, XorScrambler};
pub use universe::{
    class_universe, class_universe_len, class_universe_sampled, coupling_pairs,
    neighborhood, subset_universe, topology_cols, UniverseSpec,
};

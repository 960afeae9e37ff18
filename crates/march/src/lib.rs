//! # mbist-march — march memory-test algorithms
//!
//! March-test substrate for the MBIST workspace:
//!
//! - notation: [`MarchOp`], [`MarchElement`], [`MarchItem`], [`MarchTest`]
//!   with a parser ([`MarchTest::parse`]) and van-de-Goor-style display,
//! - the algorithm [`library`]: MATS, MATS+, March X/Y/C/A/B and the
//!   paper's C+, C++, A+, A++ extensions (retention tails, triple reads),
//! - [`expand`]: the reference expansion of an algorithm into a
//!   [`TestStep`](mbist_mem::TestStep) stream — the specification every
//!   BIST controller is verified against,
//! - [`run_steps`] / [`detects`]: executing streams against a fault-
//!   injectable [`MemoryArray`](mbist_mem::MemoryArray),
//! - [`CompiledTrace`] / [`SimEngine`]: compile a stream once, then
//!   simulate faults lane-packed and bit-parallel ([`SimEngine::Packed`],
//!   the default), batching up to 256 congruent faults into `[u64; 4]`
//!   lane blocks per trace replay, or one by one over the whole stream
//!   ([`SimEngine::Full`], the oracle); single faults replay only the
//!   accesses touching their support set ([`CompiledTrace::detect`]),
//! - [`evaluate_coverage`]: per-fault-class coverage by serial fault
//!   simulation,
//! - [`run_transparent`]: Nicolaidis-style content-preserving testing.
//!
//! # Examples
//!
//! ```
//! use mbist_march::{detects, library};
//! use mbist_mem::{CellId, FaultKind, MemGeometry};
//!
//! let g = MemGeometry::bit_oriented(32);
//! let tf = FaultKind::Transition { cell: CellId::bit_oriented(17), rising: true };
//! assert!(detects(&library::march_c(), &g, tf)?);
//! # Ok::<(), mbist_mem::MemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod background;
mod cancel;
mod coverage;
mod element;
mod error;
mod expand;
mod fanout;
pub mod library;
pub mod neighborhood;
mod notation;
mod op;
mod packed;
mod runner;
mod score;
mod sliced;
pub mod synth;
mod test;
mod trace;
pub mod transparent;

pub use background::{standard_background_count, standard_backgrounds};
pub use cancel::{CancelToken, CANCEL_CHECK_STRIDE};
pub use coverage::{
    evaluate_coverage, evaluate_coverage_trace, fault_route, routing_breakdown,
    ClassCoverage, CoverageOptions, CoverageReport, FaultRoute, RoutingBreakdown,
    RoutingRow,
};
pub use element::{AddressOrder, ComplementMask, MarchElement, MarchItem};
pub use error::MarchError;
pub use expand::{cycle_count, expand, expand_into, expand_with, ExpandOptions};
pub use op::MarchOp;
pub use runner::{detects, fault_free_clean, run_steps, run_steps_detect, RunReport};
pub use score::CandidateBatchScorer;
pub use synth::{candidate_elements, synthesize_march, SynthesisOptions, SynthesizedMarch};
pub use test::{MarchTest, SymmetricSplit};
pub use trace::{
    canonical_request_key, canonical_trace_key, CompiledTrace, SimEngine, TraceArena,
};
pub use transparent::{is_transparent_compatible, run_transparent, TransparentOutcome};

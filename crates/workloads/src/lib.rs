//! # randmod-workloads
//!
//! Workload generators for the Random Modulo evaluation.
//!
//! The paper evaluates on the EEMBC AutoBench suite plus a synthetic kernel
//! that traverses a vector of configurable footprint.  EEMBC sources are
//! proprietary, so this crate provides *EEMBC-like* kernels: parameterised
//! generators that emit instruction-fetch and data-access streams with the
//! characteristic structure of each benchmark (loop sizes, table lookups,
//! pointer chasing, stack traffic, data footprints).  What the placement
//! policies see — the shape of the address stream — is what matters for the
//! paper's comparisons; see DESIGN.md for the substitution rationale.
//!
//! * [`layout`] — memory layouts (where code, data and stack live) and
//!   layout sweeps for the deterministic high-water-mark experiments.
//! * [`builder`] — [`builder::KernelBuilder`], a small toolbox of access
//!   patterns (sequential code, strided loads, table lookups, pointer
//!   chases, stack frames) used to assemble kernels.
//! * [`eembc`] — the eleven EEMBC-AutoBench-like kernels of Table 2, plus
//!   the L2-partition-sized [`eembc::EembcStress`] variant.
//! * [`synthetic`] — the vector-traversal kernel of Figure 5 with 8KB,
//!   20KB and 160KB footprints, extended with 1MB and 4MB variants beyond
//!   the paper's operating point.
//! * [`coschedule`] — co-runner composition for the shared-L2 contention
//!   campaigns: a victim kernel paired with idle, stress or synthetic
//!   opponents ([`CoSchedule`], [`Opponent`]).
//!
//! ## Quick example
//!
//! ```
//! use randmod_workloads::{EembcBenchmark, MemoryLayout, Workload};
//!
//! let trace = EembcBenchmark::A2time.packed_trace(&MemoryLayout::default());
//! assert!(!trace.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[warn(clippy::unwrap_used, clippy::expect_used)]
pub mod builder;
pub mod coschedule;
pub mod eembc;
pub mod layout;
pub mod synthetic;

pub use builder::KernelBuilder;
pub use coschedule::{CoSchedule, Opponent};
pub use eembc::{EembcBenchmark, EembcStress};
pub use layout::{LayoutSweep, MemoryLayout};
pub use synthetic::SyntheticKernel;

use randmod_sim::trace::EventSink;
use randmod_sim::PackedTrace;

/// A workload that can render the memory-access stream of one end-to-end
/// execution ("run to completion") for a given memory layout.
///
/// Generation is *streaming*: [`Workload::emit`] writes events into any
/// [`EventSink`], so consumers choose what to do with them — collect the
/// 8-byte-per-event [`PackedTrace`] that every campaign replays
/// ([`Workload::packed_trace`]) or count them through a constant-memory
/// sink — without the generator ever holding a materialised copy.
pub trait Workload {
    /// Human-readable name of the workload.
    fn name(&self) -> String;

    /// Emits the events of one end-to-end execution under the given memory
    /// layout into `sink`, in program order.
    fn emit(&self, layout: &MemoryLayout, sink: &mut dyn EventSink);

    /// Collects the emission into a [`PackedTrace`] (8 bytes/event), the
    /// trace format every campaign replays.
    fn packed_trace(&self, layout: &MemoryLayout) -> PackedTrace {
        let mut packed = PackedTrace::new();
        self.emit(layout, &mut packed);
        packed
    }
}

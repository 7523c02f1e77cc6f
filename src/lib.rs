//! # randmod
//!
//! Facade crate of the *Random Modulo* reproduction (Hernández et al.,
//! DAC 2016): an MBPTA-compliant cache placement design for real-time
//! critical systems, together with the simulation, workload, statistical
//! and hardware-cost substrates needed to reproduce the paper's evaluation.
//!
//! The workspace is organised as focused crates, all re-exported here:
//!
//! * [`core`] (`randmod-core`) — placement policies (modulo, XOR, hRP,
//!   Random Modulo), Benes networks, PRNGs, the set-associative cache model
//!   and layout-census utilities.
//! * [`sim`] (`randmod-sim`) — the LEON3-like trace-driven cache hierarchy
//!   and timing simulator plus MBPTA measurement campaigns.
//! * [`workloads`] (`randmod-workloads`) — EEMBC-AutoBench-like kernels and
//!   the synthetic footprint kernel.
//! * [`mbpta`] (`randmod-mbpta`) — i.i.d. tests, EVT/Gumbel fitting, pWCET
//!   curves, high-water-mark baseline.
//! * [`hwcost`] (`randmod-hwcost`) — gate-level ASIC/FPGA area and delay
//!   models of the hRP and RM modules.
//!
//! ## Quickstart
//!
//! ```
//! use randmod::core::PlacementKind;
//! use randmod::sim::{Campaign, PlatformConfig};
//! use randmod::workloads::{MemoryLayout, SyntheticKernel, Workload};
//! use randmod::mbpta::ExecutionSample;
//!
//! # fn main() -> Result<(), randmod::core::ConfigError> {
//! // Measure the 8KB synthetic kernel on a LEON3-like platform with
//! // Random Modulo first-level caches, 50 runs with a fresh seed each.
//! // The kernel streams into `PackedTrace`, the one 8-byte-per-event
//! // trace format, which the campaign replays without ever materialising
//! // a `Vec<MemEvent>`.
//! let kernel = SyntheticKernel::with_traversals(8 * 1024, 5);
//! let trace = kernel.packed_trace(&MemoryLayout::default());
//! let platform = PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo);
//! let result = Campaign::new(platform, 50).run(&trace)?;
//! let sample = ExecutionSample::from_cycles_iter(result.cycles_iter());
//! assert_eq!(sample.len(), 50);
//! # Ok(())
//! # }
//! ```
//!
//! The experiment binaries that regenerate every table and figure of the
//! paper live in the `randmod-experiments` crate; see `EXPERIMENTS.md` at
//! the repository root for the paper-vs-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use randmod_core as core;
pub use randmod_hwcost as hwcost;
pub use randmod_mbpta as mbpta;
pub use randmod_sim as sim;
pub use randmod_workloads as workloads;

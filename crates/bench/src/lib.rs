//! # randmod-bench
//!
//! Criterion benchmark harness of the Random Modulo reproduction.
//!
//! Three kinds of benches live here:
//!
//! * **Microbenchmarks** (`placement`, `simulator`, `mbpta_pipeline`):
//!   throughput of the placement functions, the cache-hierarchy simulator
//!   and the statistical pipeline — useful when optimising the library
//!   itself.
//! * **Campaign benches** (`campaign_throughput`, `campaign_adaptive`,
//!   `contention_throughput`): whole measurement campaigns, each asserting
//!   an equivalence gate before it times anything.
//! * **Table/figure benches** (`tables_and_figures`): each benchmark runs a
//!   reduced-size version of one experiment of the paper (Table 1, Table 2,
//!   Figure 1, Figure 4(a), Figure 4(b), Figure 5, Section 4.4) through the
//!   exact code path the corresponding `randmod-experiments` binary uses,
//!   so `cargo bench` both times them and checks that they keep producing
//!   results with the expected shape.
//!
//! This crate intentionally has no library API: everything lives in the
//! `benches/` targets.  The helpers below are shared by those targets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use randmod_core::PlacementKind;
use randmod_sim::{PackedTrace, PlatformConfig};
use randmod_workloads::{MemoryLayout, SyntheticKernel, Workload};

/// Number of runs per campaign used by the table/figure benches (kept small
/// so `cargo bench` completes quickly; the experiment binaries use more).
pub const BENCH_RUNS: usize = 60;

// Keep the bench campaigns above the MBPTA pipeline floor.
const _: () = assert!(BENCH_RUNS >= randmod_mbpta::iid::ET_MIN_OBSERVATIONS);

/// A reduced version of the paper's 20KB synthetic kernel used by several
/// benches (fewer traversals to keep iteration times reasonable).
pub fn bench_kernel() -> SyntheticKernel {
    SyntheticKernel::with_traversals(20 * 1024, 5)
}

/// The packed trace of [`bench_kernel`] under the default memory layout.
pub fn bench_packed_trace() -> PackedTrace {
    bench_kernel().packed_trace(&MemoryLayout::default())
}

/// The platform used by the benches: the given placement in the L1 caches,
/// hRP in the L2.
pub fn bench_platform(l1_placement: PlacementKind) -> PlatformConfig {
    PlatformConfig::leon3()
        .with_l1_placement(l1_placement)
        .with_l2_placement(PlacementKind::HashRandom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_helpers_produce_consistent_objects() {
        assert_eq!(bench_kernel().footprint_bytes(), 20 * 1024);
        assert!(!bench_packed_trace().is_empty());
        assert_eq!(
            bench_platform(PlacementKind::RandomModulo).il1.placement,
            PlacementKind::RandomModulo
        );
    }
}

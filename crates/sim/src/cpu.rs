//! The in-order core timing model.
//!
//! The LEON3 is a single-issue, in-order SPARC V8 core: to first order, a
//! program's execution time is the sum of the latencies of its fetches,
//! data accesses and computation intervals.  [`InOrderCore`] returns that
//! sum for one run under one placement seed; it is the lane engine
//! ([`BatchCore`]) at width 1.

use crate::batch::BatchCore;
use crate::config::PlatformConfig;
use crate::hierarchy::HierarchyStats;
use crate::trace::MemEvent;
use randmod_core::ConfigError;

/// An in-order, single-issue core executing one run at a time.
///
/// ```
/// use randmod_sim::trace::EventSink;
/// use randmod_sim::{InOrderCore, PackedTrace, PlatformConfig};
/// use randmod_core::Address;
///
/// # fn main() -> Result<(), randmod_core::ConfigError> {
/// let mut core = InOrderCore::new(&PlatformConfig::leon3())?;
/// let mut trace = PackedTrace::new();
/// trace.fetch(Address::new(0x1000));
/// trace.compute(2);
/// let (cycles, stats) = core.execute_isolated(&trace, 3);
/// assert!(cycles >= 3);
/// assert_eq!(stats.il1.accesses, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct InOrderCore {
    batch: BatchCore,
}

impl InOrderCore {
    /// Builds a core with the given platform configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn new(config: &PlatformConfig) -> Result<Self, ConfigError> {
        Ok(InOrderCore {
            batch: BatchCore::new(config, 1)?,
        })
    }

    /// Installs `seed` (flushing every cache), executes the event stream
    /// to completion, and returns the cycle count with the per-level
    /// statistics of this run alone — the "run to completion" unit of
    /// analysis the paper uses.  Any stream of [`MemEvent`]s works
    /// (`&PackedTrace`, an event iterator, a generator); it is consumed on
    /// the fly.
    pub fn execute_isolated<I>(&mut self, events: I, seed: u64) -> (u64, HierarchyStats)
    where
        I: IntoIterator<Item = MemEvent>,
    {
        let mut runs = self.batch.execute_batch(events, &[seed]);
        runs.pop().expect("a one-seed batch yields one run")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::PackedTrace;
    use crate::trace::EventSink;
    use randmod_core::{Address, PlacementKind};

    fn loop_trace(iterations: usize, lines: u64) -> PackedTrace {
        let mut trace = PackedTrace::new();
        for _ in 0..iterations {
            for i in 0..lines {
                trace.fetch(Address::new(0x1000 + (i % 8) * 32));
                trace.load(Address::new(0x10_0000 + i * 32));
                trace.compute(1);
            }
        }
        trace
    }

    #[test]
    fn empty_trace_costs_nothing() {
        let mut core = InOrderCore::new(&PlatformConfig::leon3()).unwrap();
        assert_eq!(
            core.execute_isolated(&PackedTrace::new(), 0),
            (0, HierarchyStats::default())
        );
    }

    #[test]
    fn cycles_are_sum_of_event_latencies() {
        let config = PlatformConfig::leon3_deterministic();
        let mut core = InOrderCore::new(&config).unwrap();
        let lat = config.latencies;
        let mut trace = PackedTrace::new();
        trace.load(Address::new(0x9000)); // cold miss -> memory
        trace.load(Address::new(0x9000)); // L1 hit
        trace.compute(5);
        let (cycles, _) = core.execute_isolated(&trace, 0);
        let expected = (lat.l1_hit + lat.l2_hit + lat.memory) as u64 + lat.l1_hit as u64 + 5;
        assert_eq!(cycles, expected);
    }

    #[test]
    fn warm_reexecution_is_faster_than_cold() {
        // The second iteration of a two-iteration trace runs on the caches
        // the first one warmed.
        let mut core = InOrderCore::new(&PlatformConfig::leon3_deterministic()).unwrap();
        let (cold, _) = core.execute_isolated(&loop_trace(1, 256), 0);
        let (both, _) = core.execute_isolated(&loop_trace(2, 256), 0);
        let warm = both - cold;
        assert!(warm < cold, "warm {warm} not below cold {cold}");
    }

    #[test]
    fn execute_isolated_is_reproducible_per_seed() {
        let config = PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo);
        let mut core = InOrderCore::new(&config).unwrap();
        let trace = loop_trace(2, 512);
        let (a, stats_a) = core.execute_isolated(&trace, 99);
        let (b, stats_b) = core.execute_isolated(&trace, 99);
        assert_eq!(a, b);
        assert_eq!(stats_a, stats_b);
    }

    #[test]
    fn packed_and_boxed_replay_are_cycle_identical() {
        let config = PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo);
        let mut core = InOrderCore::new(&config).unwrap();
        let packed = loop_trace(2, 512);
        let boxed: Vec<MemEvent> = packed.iter().collect();
        for seed in [0u64, 7, 99] {
            let (boxed_cycles, boxed_stats) = core.execute_isolated(boxed.iter().copied(), seed);
            let (packed_cycles, packed_stats) = core.execute_isolated(&packed, seed);
            assert_eq!(boxed_cycles, packed_cycles);
            assert_eq!(boxed_stats, packed_stats);
        }
    }

    #[test]
    fn execute_isolated_differs_across_seeds_for_stressing_footprint() {
        let config = PlatformConfig::leon3().with_l1_placement(PlacementKind::HashRandom);
        let mut core = InOrderCore::new(&config).unwrap();
        // 20KB data footprint: larger than the L1, the regime where layouts
        // matter most (Figure 5 of the paper).
        let trace = loop_trace(4, 640);
        let distinct: std::collections::HashSet<u64> = (0..10u64)
            .map(|s| core.execute_isolated(&trace, s * 7 + 1).0)
            .collect();
        assert!(distinct.len() > 1, "execution time never varied across seeds");
    }

    #[test]
    fn stats_reflect_trace_composition() {
        let mut core = InOrderCore::new(&PlatformConfig::leon3_deterministic()).unwrap();
        let mut trace = PackedTrace::new();
        trace.fetch(Address::new(0));
        trace.load(Address::new(0x100));
        trace.store(Address::new(0x200));
        let (_, stats) = core.execute_isolated(&trace, 0);
        assert_eq!(stats.il1.accesses, 1);
        assert_eq!(stats.dl1.accesses, 2);
        assert_eq!(stats.dl1.stores, 1);
        // Statistics are per run: a second run does not accumulate.
        assert_eq!(core.execute_isolated(&trace, 0).1, stats);
    }
}

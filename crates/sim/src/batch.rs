//! Seed-batched replay: decode the trace once, simulate many seeds.
//!
//! An MBPTA campaign replays one immutable trace under ~1,000 placement
//! seeds.  Replaying one seed at a time pays the trace decode (and its
//! memory traffic) once *per run*; [`BatchCore`] instead steps `K` independent
//! *seed lanes* through every event as it is decoded, so a campaign of
//! `N` runs streams the trace `N / K` times instead of `N`.  Since the
//! wavefront rewrite the lanes are not `K` separate hierarchies but one
//! `LaneHierarchy` (crate-private, in `crate::hierarchy`) of lane-banked caches
//! ([`randmod_core::cache::SetAssocCacheLanes`]): each decoded operation
//! is pushed through all `K` lanes as one probe wave over lane-major tag
//! storage, with the per-lane placement indices, tag compares, victim
//! draws and statistics updates evaluated in chunked cross-lane sweeps.
//!
//! Lanes never interact: each lane is reseeded with its own placement
//! seed and observes exactly the event sequence a lone replay would feed
//! it, so batched results are bit-identical to running the lanes one at a
//! time (pinned by the `batch_equivalence` proptest suite, the campaign
//! tests, and the independent reference model in `tests/`).  Per-run statistics are accumulated in each
//! lane's compact counter block and expanded to [`HierarchyStats`] once
//! per run, instead of read-modify-writing the per-cache statistics
//! structs on every event.
//!
//! `BatchCore` is the one solo engine: [`crate::run::Campaign`] runs seed
//! sweeps on it `K` lanes wide and layout sweeps (one seed per trace) at
//! width 1, where every probe takes the sparse per-lane path instead of a
//! wave.  [`crate::cpu::InOrderCore`] is the same engine at width 1, and
//! `Campaign::with_lanes(1)` is the width-1 baseline of the
//! `campaign_throughput` benchmark.

use crate::config::PlatformConfig;
use crate::hierarchy::{HierarchyStats, LaneHierarchy, RunCounters};
use crate::lanes::{collapse_solo, replay_collapsed, replay_ops, LaneStepper, Op};
use crate::trace::MemEvent;
use randmod_core::{Address, ConfigError, LineAddr};

/// A replay engine stepping up to `K` independent placement seeds per
/// trace decode.
///
/// ```
/// use randmod_sim::trace::EventSink;
/// use randmod_sim::{BatchCore, InOrderCore, PackedTrace, PlatformConfig};
/// use randmod_core::{Address, PlacementKind};
///
/// # fn main() -> Result<(), randmod_core::ConfigError> {
/// let config = PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo);
/// let mut trace = PackedTrace::new();
/// for i in 0..256u64 {
///     trace.load(Address::new(0x1000 + i * 32));
/// }
///
/// // One decode pass, four seeds simulated.
/// let mut batch = BatchCore::new(&config, 4)?;
/// let results = batch.execute_batch(&trace, &[1, 2, 3, 4]);
///
/// // Bit-identical to running each seed alone.
/// let mut single = InOrderCore::new(&config)?;
/// for (seed, (cycles, stats)) in [1u64, 2, 3, 4].into_iter().zip(&results) {
///     assert_eq!(single.execute_isolated(&trace, seed), (*cycles, *stats));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchCore {
    hierarchy: LaneHierarchy,
    /// Per-lane cycle counters and statistics blocks (lane capacity long;
    /// the active prefix is in use during a batch).
    cycles: Vec<u64>,
    counters: Vec<RunCounters>,
    /// Offset bits of the IL1 / DL1 geometry, used to detect runs of
    /// consecutive same-line reads in the decode loop.
    il1_shift: u32,
    dl1_shift: u32,
}

impl BatchCore {
    /// Builds a batched core with `lanes` seed lanes (clamped to at least
    /// one) on the given platform.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn new(config: &PlatformConfig, lanes: usize) -> Result<Self, ConfigError> {
        let hierarchy = LaneHierarchy::new(config, lanes)?;
        let capacity = hierarchy.lane_count();
        Ok(BatchCore {
            hierarchy,
            cycles: vec![0; capacity],
            counters: vec![RunCounters::default(); capacity],
            il1_shift: config.il1.geometry.offset_bits(),
            dl1_shift: config.dl1.geometry.offset_bits(),
        })
    }

    /// Number of seed lanes.
    pub fn lane_count(&self) -> usize {
        self.cycles.len()
    }

    /// Replays `events` once, simulating one run per seed in `seeds` (cold
    /// caches, fresh placement layout per lane — exactly what
    /// [`crate::cpu::InOrderCore::execute_isolated`] does per seed).
    /// Returns `(cycles, stats)` per seed, in seed order.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` holds more seeds than there are lanes.
    pub fn execute_batch<I>(&mut self, events: I, seeds: &[u64]) -> Vec<(u64, HierarchyStats)>
    where
        I: IntoIterator<Item = MemEvent>,
    {
        assert!(
            seeds.len() <= self.lane_count(),
            "{} seeds exceed the {} configured lanes",
            seeds.len(),
            self.lane_count()
        );
        let active = seeds.len();
        self.hierarchy.reseed_wave(seeds);
        self.cycles[..active].fill(0);
        self.counters[..active].fill(RunCounters::default());
        // The hot loop lives in `crate::lanes::replay_collapsed`: each
        // event is decoded exactly once — with same-line read runs
        // collapsed at decode time — before fanning out as one wave over
        // all active lanes through the stepper below.
        let mut stepper = SoloLanes {
            hierarchy: &mut self.hierarchy,
            cycles: &mut self.cycles[..active],
            counters: &mut self.counters[..active],
        };
        replay_collapsed(events, self.il1_shift, self.dl1_shift, &mut stepper);
        self.cycles[..active]
            .iter()
            .zip(&self.counters[..active])
            .map(|(&cycles, counters)| (cycles, counters.into_stats()))
            .collect()
    }

    /// Collapses `events` into the [`Op`] schedule [`Self::execute_batch`]
    /// would derive on the fly, for replay via
    /// [`Self::execute_batch_ops`].  A campaign collapses the trace once
    /// per worker and replays the schedule for every lane group, instead
    /// of re-decoding the packed trace `runs / K` times.
    pub(crate) fn collapse<I>(&self, events: I) -> Vec<Op>
    where
        I: IntoIterator<Item = MemEvent>,
    {
        collapse_solo(events, self.il1_shift, self.dl1_shift)
    }

    /// [`Self::execute_batch`] over a precollapsed schedule from
    /// [`Self::collapse`]: bit-identical results, no per-batch decode.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` holds more seeds than there are lanes.
    pub(crate) fn execute_batch_ops(
        &mut self,
        ops: &[Op],
        seeds: &[u64],
    ) -> Vec<(u64, HierarchyStats)> {
        assert!(
            seeds.len() <= self.lane_count(),
            "{} seeds exceed the {} configured lanes",
            seeds.len(),
            self.lane_count()
        );
        let active = seeds.len();
        self.hierarchy.reseed_wave(seeds);
        self.cycles[..active].fill(0);
        self.counters[..active].fill(RunCounters::default());
        let mut stepper = SoloLanes {
            hierarchy: &mut self.hierarchy,
            cycles: &mut self.cycles[..active],
            counters: &mut self.counters[..active],
        };
        replay_ops(ops, &mut stepper);
        self.cycles[..active]
            .iter()
            .zip(&self.counters[..active])
            .map(|(&cycles, counters)| (cycles, counters.into_stats()))
            .collect()
    }
}

/// The solo engine's lane fan-out: every collapsed operation becomes one
/// wave through the lane-banked hierarchy.  Collapsed repeats — each a
/// guaranteed L1 hit — are booked inside the wave helpers.
struct SoloLanes<'a> {
    hierarchy: &'a mut LaneHierarchy,
    cycles: &'a mut [u64],
    counters: &'a mut [RunCounters],
}

impl LaneStepper for SoloLanes<'_> {
    #[inline]
    fn fetch(&mut self, addr: Address, line: LineAddr, repeats: u64) {
        self.hierarchy.fetch_wave(addr, line, repeats, self.cycles, self.counters);
    }

    #[inline]
    fn load(&mut self, addr: Address, line: LineAddr, repeats: u64) {
        self.hierarchy.load_wave(addr, line, repeats, self.cycles, self.counters);
    }

    #[inline]
    fn store(&mut self, addr: Address, line: LineAddr) {
        self.hierarchy.store_wave(addr, line, self.cycles, self.counters);
    }

    #[inline]
    fn compute(&mut self, cycles: u64) {
        for lane in self.cycles.iter_mut() {
            *lane += cycles;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::InOrderCore;
    use crate::packed::PackedTrace;
    use crate::trace::{EventSink, EventSource};
    use randmod_core::{Address, PlacementKind, ReplacementKind, WritePolicy};

    fn stress_trace() -> PackedTrace {
        let mut trace = PackedTrace::new();
        for repeat in 0..3u64 {
            for i in 0..800u64 {
                trace.fetch(Address::new(0x1000 + (i % 24) * 32));
                trace.load(Address::new(0x10_0000 + i * 32 + repeat));
                if i % 5 == 0 {
                    trace.store(Address::new(0x20_0000 + (i % 512) * 32));
                }
                if i % 7 == 0 {
                    trace.compute(2);
                }
            }
        }
        trace
    }

    #[test]
    fn batched_replay_matches_sequential_replay() {
        let seeds = [0u64, 1, 7, 42, 0xDEAD_BEEF];
        for placement in PlacementKind::ALL {
            let config = PlatformConfig::leon3().with_l1_placement(placement);
            let trace = stress_trace();
            let mut batch = BatchCore::new(&config, seeds.len()).unwrap();
            let batched = batch.execute_batch(&trace, &seeds);
            let mut core = InOrderCore::new(&config).unwrap();
            for (&seed, &(cycles, stats)) in seeds.iter().zip(&batched) {
                assert_eq!(
                    core.execute_isolated(&trace, seed),
                    (cycles, stats),
                    "lane diverged for seed {seed} under {placement}"
                );
            }
        }
    }

    #[test]
    fn collapsed_read_runs_match_sequential_replay() {
        // Exercise the same-line read-run collapse hard: long straight-
        // line fetch runs stepping 4 bytes through 32-byte lines, loads
        // striding within lines, runs crossing line boundaries, and runs
        // interrupted by stores and computes — checked across lane widths
        // (width 1 probes every access through the sparse per-lane path,
        // wider banks through waves), for hitting *and* missing first
        // accesses and both replacement behaviours of the L1.  The
        // collapse itself is checked against the uncollapsed reference
        // model in `tests/reference_model.rs`.
        let mut trace = PackedTrace::new();
        for block in 0..400u64 {
            let code = 0x1000 + (block % 29) * 4;
            for i in 0..12u64 {
                trace.fetch(Address::new(code + i * 4));
            }
            // Data footprint beyond the 16KB DL1 so run-leading loads miss
            // regularly.
            let data = 0x10_0000 + (block % 900) * 40;
            for i in 0..10u64 {
                trace.load(Address::new(data + i * 4));
            }
            if block % 3 == 0 {
                trace.store(Address::new(data + 4));
            }
            if block % 4 == 0 {
                trace.compute(2);
            }
        }
        let seeds = [0u64, 5, 77];
        for placement in PlacementKind::ALL {
            for replacement in [ReplacementKind::Random, ReplacementKind::Lru] {
                let config = PlatformConfig::leon3()
                    .with_l1_placement(placement)
                    .with_replacement(replacement);
                let mut batch = BatchCore::new(&config, seeds.len()).unwrap();
                let batched = batch.execute_batch(&trace, &seeds);
                let mut core = InOrderCore::new(&config).unwrap();
                for (&seed, &(cycles, stats)) in seeds.iter().zip(&batched) {
                    assert_eq!(
                        core.execute_isolated(&trace, seed),
                        (cycles, stats),
                        "collapse diverged for seed {seed} under {placement}/{replacement}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_replay_matches_sequential_for_write_back_l1_and_lru() {
        // Exercise dirty-line bookkeeping and the LRU full path (where the
        // residency filter must stay disarmed).
        let mut config = PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo);
        config.dl1.write_policy = WritePolicy::WriteBack;
        config.il1.replacement = ReplacementKind::Lru;
        config.dl1.replacement = ReplacementKind::Lru;
        config.l2.replacement = ReplacementKind::RoundRobin;
        let trace = stress_trace();
        let seeds = [3u64, 9, 12];
        let mut batch = BatchCore::new(&config, 4).unwrap();
        let batched = batch.execute_batch(&trace, &seeds);
        let mut core = InOrderCore::new(&config).unwrap();
        for (&seed, &(cycles, stats)) in seeds.iter().zip(&batched) {
            assert_eq!(core.execute_isolated(&trace, seed), (cycles, stats));
        }
    }

    #[test]
    fn packed_and_boxed_sources_are_interchangeable() {
        let config = PlatformConfig::leon3().with_l1_placement(PlacementKind::HashRandom);
        let packed = stress_trace();
        let boxed: Vec<MemEvent> = packed.iter().collect();
        let seeds = [5u64, 6];
        let mut batch = BatchCore::new(&config, 2).unwrap();
        let from_boxed = batch.execute_batch(EventSource::events(&boxed[..]), &seeds);
        let from_packed = batch.execute_batch(EventSource::events(&packed), &seeds);
        assert_eq!(from_boxed, from_packed);
    }

    #[test]
    fn identical_seeds_in_one_batch_produce_identical_lanes() {
        let config = PlatformConfig::leon3();
        let trace = stress_trace();
        let mut batch = BatchCore::new(&config, 3).unwrap();
        let results = batch.execute_batch(&trace, &[11, 11, 11]);
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn partial_batches_use_a_lane_prefix() {
        let config = PlatformConfig::leon3();
        let trace = stress_trace();
        let mut batch = BatchCore::new(&config, 8).unwrap();
        assert_eq!(batch.lane_count(), 8);
        let results = batch.execute_batch(&trace, &[1, 2]);
        assert_eq!(results.len(), 2);
        // A later, different-sized batch reuses the lanes cleanly.
        let again = batch.execute_batch(&trace, &[1]);
        assert_eq!(again[0], results[0]);
    }

    #[test]
    fn empty_seed_list_is_a_no_op() {
        let config = PlatformConfig::leon3();
        let mut batch = BatchCore::new(&config, 2).unwrap();
        assert!(batch.execute_batch(&stress_trace(), &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "exceed the")]
    fn too_many_seeds_panic() {
        let mut batch = BatchCore::new(&PlatformConfig::leon3(), 2).unwrap();
        batch.execute_batch(&PackedTrace::new(), &[1, 2, 3]);
    }

    #[test]
    fn zero_lanes_is_clamped_to_one() {
        let batch = BatchCore::new(&PlatformConfig::leon3(), 0).unwrap();
        assert_eq!(batch.lane_count(), 1);
    }
}

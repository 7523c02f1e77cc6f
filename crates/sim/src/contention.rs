//! Multi-task contention on a shared L2 partition.
//!
//! The paper's single-core model gives every task a private L2 partition,
//! which is the configuration MBPTA likes best — and the one real
//! multicores rarely ship.  This module adds the harder platform: `K`
//! tasks, each with its own private IL1/DL1 pair and its own in-order
//! core, all in front of **one shared L2** ([`SharedL2Hierarchy`]).
//! Opponent tasks evict the victim's L2 lines, so the victim's
//! execution-time distribution inflates with co-runner pressure — the
//! scenario the `fig6_contention` experiment sweeps per placement policy.
//!
//! [`ContentionCore`] interleaves the K task traces event by event under a
//! deterministic [`Arbitration`] policy:
//!
//! * [`Arbitration::RoundRobin`] — tasks take turns in index order,
//!   skipping exhausted traces;
//! * [`Arbitration::SeededRandom`] — each step picks a uniformly random
//!   ready task from a [`SplitMix64`] stream derived from the run seed.
//!
//! Both are pure functions of `(traces, run seed)`: no wall-clock, no
//! thread scheduling, no global state.  Replaying the same co-schedule
//! under the same seed reproduces every interleaving decision, every cache
//! state and every cycle count bit-for-bit, which is what lets
//! [`crate::run::Campaign::run_contended`] parallelise contended runs
//! across threads without changing any result.
//!
//! Timing model: each task runs on its own core, so per-task cycle counts
//! advance independently (there is no bus arbitration stall in this
//! model); the contention effect is carried entirely by the shared L2
//! state — extra victim misses caused by opponent fills.  The
//! interleaving granularity is one trace event per arbitration step.
//!
//! **One engine, one seed per run, one cache model.**  [`ContentionCore`]
//! is the only contended engine: [`crate::run::Campaign::run_contended`]
//! runs it once per placement seed under either arbitration policy,
//! whatever the campaign's lane count (an idle co-schedule takes the solo
//! [`crate::batch::BatchCore`] path instead).  It is not lane-batched
//! because a contended lane carries per-task L1 pairs plus a shared L2,
//! and on that state size lanes did not pay for their machinery
//! (EXPERIMENTS.md, "One contended engine").  Every cache it holds is a
//! one-lane [`SetAssocCacheLanes`] bank, the model the solo engines step
//! K lanes at a time, stepped through the solo engine's access paths as
//! one-lane waves, which take the sparse per-lane probe (EXPERIMENTS.md,
//! "One cache implementation").
//!
//! **Solo-task equivalence.**  A contended run with one task and idle
//! (empty-trace) opponents reproduces the single-task engine exactly:
//! the seed→layout derivation of [`SharedL2Hierarchy::reseed`] draws the
//! victim's IL1, DL1 and the shared L2 seeds in the same order as the
//! solo engine's per-lane reseed, and the per-event access paths book
//! latency and counters as the solo lane waves do.
//! `tests/contention_equivalence.rs` pins this bit-identity against
//! `InOrderCore` and `Campaign::run_seeds`.

use crate::config::PlatformConfig;
use crate::hierarchy::{read_lean_wave, store_lean_wave, HierarchyStats, RunCounters};
use crate::trace::MemEvent;
use randmod_core::cache::{AccessKind, SetAssocCacheLanes};
use randmod_core::prng::SplitMix64;
use randmod_core::{AccessFlags, ConfigError, LineAddr};
use std::fmt;
use std::str::FromStr;

/// Salt folded into the run seed for the arbitration RNG, so interleaving
/// decisions and cache layouts are decorrelated.
const ARBITRATION_SALT: u64 = 0xA12B_1748_C0DE_5EED;

/// How [`ContentionCore`] picks the next task to issue an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Arbitration {
    /// Tasks take turns in index order, skipping exhausted traces.
    #[default]
    RoundRobin,
    /// Each step picks a uniformly random ready task, from a per-run
    /// seeded stream (deterministic for a given run seed).
    SeededRandom,
}

impl Arbitration {
    /// Both arbitration policies.
    pub const ALL: [Arbitration; 2] = [Arbitration::RoundRobin, Arbitration::SeededRandom];
}

impl fmt::Display for Arbitration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Arbitration::RoundRobin => "round-robin",
            Arbitration::SeededRandom => "seeded-random",
        })
    }
}

impl FromStr for Arbitration {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "round-robin" | "roundrobin" | "rr" => Ok(Arbitration::RoundRobin),
            "seeded-random" | "random" => Ok(Arbitration::SeededRandom),
            other => Err(ConfigError::Inconsistent {
                reason: format!("unknown arbitration policy '{other}'"),
            }),
        }
    }
}

/// One task's private first-level caches, each a one-lane bank.
#[derive(Debug, Clone)]
struct TaskL1 {
    il1: SetAssocCacheLanes,
    dl1: SetAssocCacheLanes,
}

/// `K` tasks' private L1 pairs over one shared L2 partition.
///
/// ```
/// use randmod_sim::contention::SharedL2Hierarchy;
/// use randmod_sim::PlatformConfig;
///
/// # fn main() -> Result<(), randmod_core::ConfigError> {
/// let mut shared = SharedL2Hierarchy::new(&PlatformConfig::leon3(), 2)?;
/// shared.reseed(7);
/// assert_eq!(shared.task_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SharedL2Hierarchy {
    config: PlatformConfig,
    tasks: Vec<TaskL1>,
    /// The shared L2 partition, a one-lane bank.
    l2: SetAssocCacheLanes,
    /// Offset bits of the IL1 / DL1 geometry, for the per-event line
    /// reduction of the lean access paths.
    il1_shift: u32,
    dl1_shift: u32,
}

impl SharedL2Hierarchy {
    /// Builds per-task L1 pairs plus the shared L2 described by `config`
    /// (`tasks` is clamped to at least one).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn new(config: &PlatformConfig, tasks: usize) -> Result<Self, ConfigError> {
        config.validate()?;
        let build = |c: &crate::config::CacheConfig| -> Result<SetAssocCacheLanes, ConfigError> {
            SetAssocCacheLanes::with_kinds(c.geometry, c.placement, c.replacement, c.write_policy, 1)
        };
        let tasks = (0..tasks.max(1))
            .map(|_| {
                Ok(TaskL1 {
                    il1: build(&config.il1)?,
                    dl1: build(&config.dl1)?,
                })
            })
            .collect::<Result<Vec<_>, ConfigError>>()?;
        Ok(SharedL2Hierarchy {
            config: *config,
            tasks,
            l2: build(&config.l2)?,
            il1_shift: config.il1.geometry.offset_bits(),
            dl1_shift: config.dl1.geometry.offset_bits(),
        })
    }

    /// Number of tasks sharing the L2.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// The configuration this hierarchy was built from.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Installs a new placement seed in every cache and flushes all
    /// contents.
    ///
    /// The derivation order is task 0's IL1, task 0's DL1, the shared L2,
    /// then the remaining tasks' L1 pairs — so task 0's three cache seeds
    /// are **exactly** the ones the solo engine
    /// ([`crate::batch::BatchCore`]) installs for the same run seed,
    /// whatever the task count.
    /// That ordering is what makes a solo victim bit-identical to the
    /// single-task engine.
    pub fn reseed(&mut self, seed: u64) {
        let mut sm = SplitMix64::new(seed);
        let mut tasks = self.tasks.iter_mut();
        if let Some(first) = tasks.next() {
            first.il1.reseed_wave(&[sm.next_u64()]);
            first.dl1.reseed_wave(&[sm.next_u64()]);
        }
        self.l2.reseed_wave(&[sm.next_u64()]);
        for task in tasks {
            task.il1.reseed_wave(&[sm.next_u64()]);
            task.dl1.reseed_wave(&[sm.next_u64()]);
        }
    }

    /// Replays one event of `task` and returns its latency in cycles.
    /// Accesses go through the task's private L1 and the shared L2 as
    /// one-lane waves of the [`crate::hierarchy`] paths the solo engine
    /// steps, so latency and statistics are booked exactly as a solo lane
    /// books them.  Statistics go to the caller's per-task counter block:
    /// its L2 half tracks the task's *own* L2 traffic, not the shared
    /// aggregate.
    ///
    /// # Panics
    ///
    /// Panics if `task` is not below [`Self::task_count`].
    #[inline]
    pub(crate) fn step(&mut self, task: usize, event: MemEvent, counters: &mut RunCounters) -> u64 {
        // randmod: allow(P1, the documented Panics contract: the only caller, ContentionCore::execute_contended, passes a task index below task_count())
        let l1 = &mut self.tasks[task];
        let latencies = &self.config.latencies;
        let mut flags = AccessFlags::default();
        let mut cycles = 0u64;
        let flags = std::slice::from_mut(&mut flags);
        let counters = std::slice::from_mut(counters);
        match event {
            MemEvent::Compute(compute) => return compute as u64,
            MemEvent::InstrFetch(addr) => read_lean_wave(
                &mut l1.il1,
                &mut self.l2,
                latencies,
                addr,
                LineAddr::new(addr.raw() >> self.il1_shift),
                AccessKind::InstructionFetch,
                0,
                flags,
                std::slice::from_mut(&mut cycles),
                counters,
            ),
            MemEvent::Load(addr) => read_lean_wave(
                &mut l1.dl1,
                &mut self.l2,
                latencies,
                addr,
                LineAddr::new(addr.raw() >> self.dl1_shift),
                AccessKind::Load,
                0,
                flags,
                std::slice::from_mut(&mut cycles),
                counters,
            ),
            MemEvent::Store(addr) => store_lean_wave(
                &mut l1.dl1,
                &mut self.l2,
                latencies,
                addr,
                LineAddr::new(addr.raw() >> self.dl1_shift),
                flags,
                std::slice::from_mut(&mut cycles),
                counters,
            ),
        }
        cycles
    }
}

/// A multi-task core model: `K` in-order cores, each replaying its own
/// trace, interleaved over a [`SharedL2Hierarchy`] by a deterministic
/// arbitration policy.
///
/// ```
/// use randmod_sim::contention::{Arbitration, ContentionCore};
/// use randmod_sim::trace::EventSink;
/// use randmod_sim::{PackedTrace, PlatformConfig};
/// use randmod_core::Address;
///
/// # fn main() -> Result<(), randmod_core::ConfigError> {
/// let mut victim = PackedTrace::new();
/// let mut opponent = PackedTrace::new();
/// for i in 0..64u64 {
///     victim.load(Address::new(0x1000 + i * 32));
///     opponent.load(Address::new(0x8_0000 + i * 32));
/// }
/// let mut core = ContentionCore::new(&PlatformConfig::leon3(), 2, Arbitration::RoundRobin)?;
/// let results = core.execute_contended(vec![victim.iter(), opponent.iter()], 42);
/// assert_eq!(results.len(), 2);
/// assert!(results[0].0 > 0 && results[1].0 > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ContentionCore {
    hierarchy: SharedL2Hierarchy,
    arbitration: Arbitration,
}

impl ContentionCore {
    /// Builds a contention core for `tasks` tasks (clamped to at least
    /// one) under the given arbitration policy.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn new(
        config: &PlatformConfig,
        tasks: usize,
        arbitration: Arbitration,
    ) -> Result<Self, ConfigError> {
        Ok(ContentionCore {
            hierarchy: SharedL2Hierarchy::new(config, tasks)?,
            arbitration,
        })
    }

    /// Number of tasks this core interleaves.
    pub fn task_count(&self) -> usize {
        self.hierarchy.task_count()
    }

    /// The arbitration policy in use.
    pub fn arbitration(&self) -> Arbitration {
        self.arbitration
    }

    /// Executes one contended run: reseeds and flushes every cache, then
    /// interleaves the task streams to exhaustion.  Returns `(cycles,
    /// stats)` per task, in task order; the stats are each task's own
    /// view (its private L1s plus its share of the L2 traffic).
    ///
    /// Streams beyond the configured task count are ignored; missing
    /// streams behave as idle tasks.
    // randmod: allow(P1, streams, pending, cycles and counters each hold exactly `tasks` entries (streams is clipped and padded to it), the round-robin cursor is reduced mod `tasks` on every step, and the seeded-random scan stops on the pick-th ready task with pick < ready, so every index is below `tasks`; the expect runs on the task the arbitration just found ready)
    #[allow(clippy::expect_used)]
    pub fn execute_contended<I>(&mut self, streams: Vec<I>, seed: u64) -> Vec<(u64, HierarchyStats)>
    where
        I: Iterator<Item = MemEvent>,
    {
        let tasks = self.hierarchy.task_count();
        self.hierarchy.reseed(seed);
        let mut cycles = vec![0u64; tasks];
        let mut counters = vec![RunCounters::default(); tasks];
        let mut streams: Vec<Option<I>> = streams.into_iter().map(Some).take(tasks).collect();
        streams.resize_with(tasks, || None);
        // Prime one pending event per task; `None` marks an exhausted (or
        // idle) task.
        let mut pending: Vec<Option<MemEvent>> =
            streams.iter_mut().map(|s| s.as_mut().and_then(Iterator::next)).collect();
        let mut ready = pending.iter().filter(|p| p.is_some()).count();
        let mut rng = SplitMix64::new(seed ^ ARBITRATION_SALT);
        let mut cursor = 0usize;
        while ready > 0 {
            let task = match self.arbitration {
                Arbitration::RoundRobin => {
                    while pending[cursor].is_none() {
                        cursor = (cursor + 1) % tasks;
                    }
                    let task = cursor;
                    cursor = (cursor + 1) % tasks;
                    task
                }
                Arbitration::SeededRandom => {
                    // The draw is uniform over the *ready* tasks, so the
                    // schedule is a pure function of (seed, readiness).
                    let mut pick = (rng.next_u64() % ready as u64) as usize;
                    let mut task = 0;
                    loop {
                        if pending[task].is_some() {
                            if pick == 0 {
                                break;
                            }
                            pick -= 1;
                        }
                        task += 1;
                    }
                    task
                }
            };
            let event = pending[task].take().expect("arbitration picked a ready task");
            cycles[task] += self.hierarchy.step(task, event, &mut counters[task]);
            pending[task] = streams[task].as_mut().and_then(Iterator::next);
            if pending[task].is_none() {
                ready -= 1;
            }
        }
        cycles
            .into_iter()
            .zip(counters)
            .map(|(cycles, counters)| (cycles, counters.into_stats()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::PackedTrace;
    use crate::trace::EventSink;
    use randmod_core::{Address, PlacementKind};

    fn config() -> PlatformConfig {
        PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo)
    }

    fn victim_trace() -> PackedTrace {
        let mut trace = PackedTrace::new();
        for repeat in 0..3u64 {
            for i in 0..600u64 {
                trace.fetch(Address::new(0x1000 + (i % 16) * 32));
                trace.load(Address::new(0x10_0000 + i * 32 + repeat));
                if i % 9 == 0 {
                    trace.store(Address::new(0x18_0000 + (i % 128) * 32));
                }
            }
        }
        trace
    }

    fn opponent_trace() -> PackedTrace {
        let mut trace = PackedTrace::new();
        for i in 0..4000u64 {
            trace.load(Address::new(0x40_0000 + (i % 4096) * 32));
        }
        trace
    }

    #[test]
    fn arbitration_parses_and_displays() {
        for arbitration in Arbitration::ALL {
            let parsed: Arbitration = arbitration.to_string().parse().unwrap();
            assert_eq!(parsed, arbitration);
        }
        assert_eq!("rr".parse::<Arbitration>().unwrap(), Arbitration::RoundRobin);
        assert!("fcfs".parse::<Arbitration>().is_err());
        assert_eq!(Arbitration::default(), Arbitration::RoundRobin);
    }

    #[test]
    fn task_count_is_clamped_to_one() {
        let shared = SharedL2Hierarchy::new(&config(), 0).unwrap();
        assert_eq!(shared.task_count(), 1);
        let core = ContentionCore::new(&config(), 0, Arbitration::RoundRobin).unwrap();
        assert_eq!(core.task_count(), 1);
    }

    #[test]
    fn contended_run_is_reproducible_per_seed() {
        for arbitration in Arbitration::ALL {
            let mut core = ContentionCore::new(&config(), 2, arbitration).unwrap();
            let run = |core: &mut ContentionCore| {
                core.execute_contended(vec![victim_trace().iter(), opponent_trace().iter()], 99)
            };
            assert_eq!(run(&mut core), run(&mut core), "{arbitration}");
        }
    }

    #[test]
    fn opponent_pressure_inflates_victim_l2_misses() {
        // The defining contention effect: a streaming opponent evicts the
        // victim's shared-L2 lines, so the victim sees more L2 misses (and
        // more cycles) than it does next to an idle opponent.
        let mut core = ContentionCore::new(&config(), 2, Arbitration::RoundRobin).unwrap();
        let idle = PackedTrace::new();
        let solo = core.execute_contended(vec![victim_trace().iter(), idle.iter()], 7);
        let contended =
            core.execute_contended(vec![victim_trace().iter(), opponent_trace().iter()], 7);
        assert!(
            contended[0].1.l2.misses > solo[0].1.l2.misses,
            "opponent did not inflate victim L2 misses ({} vs {})",
            contended[0].1.l2.misses,
            solo[0].1.l2.misses
        );
        assert!(contended[0].0 > solo[0].0, "victim cycles did not inflate");
        // The victim's own event stream is unchanged: same L1 traffic.
        assert_eq!(contended[0].1.il1.accesses, solo[0].1.il1.accesses);
        assert_eq!(contended[0].1.dl1.accesses, solo[0].1.dl1.accesses);
    }

    #[test]
    fn per_task_l2_views_sum_to_the_aggregate() {
        let mut core = ContentionCore::new(&config(), 3, Arbitration::SeededRandom).unwrap();
        let results = core.execute_contended(
            vec![
                victim_trace().iter(),
                opponent_trace().iter(),
                opponent_trace().iter(),
            ],
            21,
        );
        let aggregate = results
            .iter()
            .fold(HierarchyStats::default(), |acc, (_, stats)| acc.merged(*stats));
        assert_eq!(
            aggregate.l2.accesses,
            results.iter().map(|(_, s)| s.l2.accesses).sum::<u64>()
        );
        assert_eq!(
            aggregate.memory_accesses,
            results.iter().map(|(_, s)| s.memory_accesses).sum::<u64>()
        );
        // Every task's L2 traffic is its instruction-side read misses plus
        // all of its stores plus its data-side read misses; the write-
        // through DL1 forwards every store to the L2, so per task:
        // l2.accesses >= stores, and l2.stores == dl1.stores exactly.
        for (_, stats) in &results {
            assert_eq!(stats.l2.stores, stats.dl1.stores);
            assert!(stats.l2.accesses >= stats.l2.stores);
        }
    }

    #[test]
    fn round_robin_with_equal_streams_alternates_fairly() {
        // Two identical single-level streams: round-robin must give both
        // tasks identical traffic counts.
        let mut core = ContentionCore::new(&config(), 2, Arbitration::RoundRobin).unwrap();
        let results =
            core.execute_contended(vec![opponent_trace().iter(), opponent_trace().iter()], 5);
        assert_eq!(results[0].1.dl1.accesses, results[1].1.dl1.accesses);
    }

    #[test]
    fn missing_streams_behave_as_idle_tasks() {
        let mut core = ContentionCore::new(&config(), 3, Arbitration::RoundRobin).unwrap();
        let trace = victim_trace();
        let idle = PackedTrace::new();
        let padded = core.execute_contended(vec![trace.iter(), idle.iter(), idle.iter()], 13);
        let missing = core.execute_contended(vec![trace.iter()], 13);
        assert_eq!(padded, missing);
        assert_eq!(missing[1], (0, HierarchyStats::default()));
        assert_eq!(missing[2], (0, HierarchyStats::default()));
    }

    #[test]
    fn empty_schedule_is_an_idle_run() {
        // With no stream at all every task is idle: an empty run per task,
        // under either arbitration policy.
        for arbitration in [Arbitration::RoundRobin, Arbitration::SeededRandom] {
            let mut core = ContentionCore::new(&config(), 2, arbitration).unwrap();
            let idle = core.execute_contended(Vec::<std::vec::IntoIter<MemEvent>>::new(), 9);
            assert_eq!(idle, vec![(0, HierarchyStats::default()); 2]);
        }
    }

    #[test]
    fn extra_streams_beyond_the_task_count_are_ignored() {
        let mut core = ContentionCore::new(&config(), 1, Arbitration::RoundRobin).unwrap();
        let trace = victim_trace();
        let clipped = core.execute_contended(vec![trace.iter(), opponent_trace().iter()], 3);
        let solo = core.execute_contended(vec![trace.iter()], 3);
        assert_eq!(clipped, solo);
        assert_eq!(clipped.len(), 1);
    }

    #[test]
    fn arbitration_policies_agree_on_totals_but_may_differ_in_timing() {
        // Both policies replay the same per-task event streams, so the
        // per-task L1 access counts must agree; the interleaving (and thus
        // the shared-L2 hit pattern) may legitimately differ.
        let mut rr = ContentionCore::new(&config(), 2, Arbitration::RoundRobin).unwrap();
        let mut sr = ContentionCore::new(&config(), 2, Arbitration::SeededRandom).unwrap();
        let run = |core: &mut ContentionCore| {
            core.execute_contended(vec![victim_trace().iter(), opponent_trace().iter()], 77)
        };
        let a = run(&mut rr);
        let b = run(&mut sr);
        for task in 0..2 {
            assert_eq!(a[task].1.il1.accesses, b[task].1.il1.accesses);
            assert_eq!(a[task].1.dl1.accesses, b[task].1.dl1.accesses);
        }
    }
}

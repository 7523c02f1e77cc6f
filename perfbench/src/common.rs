//! What every workload shares: the pass record, the output digest, the
//! deterministic work counts and the MBPTA analysis settings.

use randmod_core::prng::SplitMix64;
use randmod_core::{CacheStats, PlacementKind};
use randmod_sim::checkpoint::Fingerprint;
use randmod_sim::HierarchyStats;
use std::collections::BTreeMap;

use crate::spans::Tracer;

/// The default workload seed: the campaign seed of every recorded figure.
pub const DEFAULT_SEED: u64 = 0x00C0_FFEE;

/// The exceedance probability every pWCET is read at.
pub const CUTOFF_PROBABILITY: f64 = 1e-15;

/// Campaign threads of every workload: the benchmark host's core count.
pub const THREADS: usize = 2;

/// The thread count `verify` re-runs with: every output and count must
/// be identical at both.
pub const CHECK_THREADS: usize = 1;

/// Short names of the four placement policies, in `PlacementKind::ALL` order.
pub fn placement_name(kind: PlacementKind) -> &'static str {
    match kind {
        PlacementKind::Modulo => "modulo",
        PlacementKind::Xor => "xor",
        PlacementKind::HashRandom => "hrp",
        PlacementKind::RandomModulo => "random-modulo",
    }
}

/// Derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// The digest of a pass's outputs (FNV-1a, as the checkpoint format uses).
#[derive(Debug, Default)]
pub struct Digest(Fingerprint);

impl Digest {
    pub fn word(&mut self, value: u64) {
        self.0.write_u64(value);
    }

    fn cache(&mut self, stats: &CacheStats) {
        for v in [
            stats.accesses,
            stats.hits,
            stats.misses,
            stats.fills,
            stats.evictions,
            stats.writebacks,
            stats.stores,
        ] {
            self.word(v);
        }
    }

    /// Folds in one run: its cycle count and every hierarchy counter.
    pub fn run(&mut self, cycles: u64, stats: &HierarchyStats) {
        self.word(cycles);
        self.cache(&stats.il1);
        self.cache(&stats.dl1);
        self.cache(&stats.l2);
        self.word(stats.memory_accesses);
    }

    pub fn value(&self) -> u64 {
        self.0.finish()
    }
}

/// Deterministic work counts: identical on every pass, every host and
/// every thread count, so they are reported as counts, never as speeds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts(pub BTreeMap<String, u64>);

impl Counts {
    pub fn add(&mut self, name: &str, value: u64) {
        *self.0.entry(name.to_string()).or_insert(0) += value;
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Books one simulated run's hierarchy counters under `core.*`.
    pub fn run(&mut self, stats: &HierarchyStats) {
        for (level, s) in [("il1", &stats.il1), ("dl1", &stats.dl1), ("l2", &stats.l2)] {
            self.add(&format!("core.{level}.accesses"), s.accesses);
            self.add(&format!("core.{level}.hits"), s.hits);
            self.add(&format!("core.{level}.misses"), s.misses);
            self.add(&format!("core.{level}.fills"), s.fills);
        }
        self.add("core.l2.writebacks", stats.l2.writebacks);
        self.add("core.memory_accesses", stats.memory_accesses);
        self.add("sim.runs", 1);
    }
}

/// One timed operation of a pass: a campaign, a kernel's sweep, a
/// request.  Operations of one `kind` repeat identically on every pass.
#[derive(Debug, Clone)]
pub struct Unit {
    pub kind: String,
    pub ms: f64,
    /// Whether the operation's latency is the workload's `op_p50_ms`.
    pub op: bool,
}

/// Everything one timed pass of a workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Trace events simulated during the pass.
    pub events: u64,
    /// The pass's timed operations.
    pub units: Vec<Unit>,
    /// Operations attempted (unit operations plus checked outputs).
    pub attempted: u64,
    /// Correctness-gate failures, one line each.
    pub failures: Vec<String>,
    pub digest: Digest,
    pub counts: Counts,
}

impl Pass {
    /// Records a correctness check: counts it, and keeps the failure text.
    pub fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(failure());
        }
    }

    pub fn unit(&mut self, kind: &str, ms: f64, op: bool) {
        self.units.push(Unit {
            kind: kind.to_string(),
            ms,
            op,
        });
    }
}

/// One benchmark workload.  `setup` builds it (untimed except as
/// `setup_s`); `pass` is the timed unit, repeated until the run's time
/// is up; `verify` runs the gates too costly to repeat every pass.
pub trait Workload {
    /// Untimed preparation before each pass (clearing caches the pass
    /// must find cold).
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn pass(&mut self, tracer: &Tracer) -> Pass;

    /// Gates checked once per run against the first pass: the golden
    /// pins, and identical outputs and counts at one campaign thread.
    fn verify(&mut self, first: &Pass) -> Vec<String>;

    /// Removes whatever the workload left on disk.
    fn teardown(&mut self) {}
}

//! Cache placement policies: modulo, deterministic XOR hashing, hash-based
//! random placement (hRP) and Random Modulo (RM).
//!
//! A *placement policy* decides which cache set a memory address is mapped
//! to.  The paper compares:
//!
//! * [`ModuloPlacement`] — the conventional design: the set index is simply
//!   the low bits of the line address.  Contiguous lines never conflict while
//!   they fit in one way, but the cache layout is a deterministic function of
//!   where the program is placed in memory, which makes measurement-based
//!   timing analysis fragile (cache risk patterns may never show up in the
//!   analysis runs).
//! * [`XorPlacement`] — a deterministic XOR-folding hash (related work
//!   [González et al., ICS'97]).  It removes some pathological patterns but
//!   is still deterministic, hence not MBPTA-compliant.
//! * [`HashRandomPlacement`] (hRP) — the existing MBPTA-compliant design:
//!   a parametric hash of *all* upper address bits and a per-run random
//!   seed, built from rotate blocks and XOR gates.  Every address is mapped
//!   (pseudo-)uniformly to any set, so even a handful of contiguous lines
//!   can collide in the same set with non-negligible probability.
//! * [`RandomModuloPlacement`] (RM) — the paper's contribution: a per-run,
//!   per-segment *permutation* of the modulo index bits implemented with a
//!   Benes network whose control word is derived from the upper address bits
//!   and the seed.  Within one cache segment the mapping stays a bijection,
//!   so spatial locality is preserved exactly like modulo, while layouts
//!   still change randomly across runs as MBPTA requires.

use crate::address::{Address, CacheGeometry, LineAddr};
use crate::benes::BenesNetwork;
use crate::error::ConfigError;
use crate::prng::SplitMix64;
use std::fmt;
use std::str::FromStr;

/// Common interface of all placement policies.
///
/// Implementations are deterministic functions of `(line address, seed)`:
/// re-installing the same seed always reproduces the same cache layout,
/// which is what lets MBPTA reason probabilistically about layouts.
pub trait PlacementPolicy: fmt::Debug + Send + Sync {
    /// The geometry this policy was built for.
    fn geometry(&self) -> CacheGeometry;

    /// Maps a line address to a set index in `0..sets`.
    fn set_index_of_line(&self, line: LineAddr) -> u32;

    /// Maps a byte address to a set index in `0..sets`.
    fn set_index(&self, addr: Address) -> u32 {
        self.set_index_of_line(self.geometry().line_addr(addr))
    }

    /// Installs a new random seed, i.e. selects a new cache layout.
    /// Deterministic policies ignore the seed.
    fn reseed(&mut self, seed: u64);

    /// The currently installed seed.
    fn seed(&self) -> u64;

    /// Which policy this is.
    fn kind(&self) -> PlacementKind;

    /// Whether the layout depends on the seed (i.e. the policy is
    /// time-randomised and therefore a candidate for MBPTA).
    fn is_randomized(&self) -> bool {
        self.kind().is_randomized()
    }

    /// Whether the set index must be stored alongside the tag because it
    /// cannot be reconstructed from the tag bits alone (true for hRP; false
    /// for modulo and, on write-through caches, for RM).
    fn stores_index_in_tag(&self) -> bool {
        self.kind().stores_index_in_tag()
    }

    /// Clones the policy into a new boxed trait object.
    fn clone_box(&self) -> Box<dyn PlacementPolicy>;
}

impl Clone for Box<dyn PlacementPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Identifier of a placement policy, used to configure caches and
/// experiments.
///
/// ```
/// use randmod_core::{PlacementKind, CacheGeometry};
///
/// # fn main() -> Result<(), randmod_core::ConfigError> {
/// let policy = PlacementKind::RandomModulo.build(CacheGeometry::leon3_l1())?;
/// assert!(policy.is_randomized());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PlacementKind {
    /// Conventional modulo placement (deterministic).
    Modulo,
    /// Deterministic XOR-folding hash placement.
    Xor,
    /// Hash-based random placement (hRP).
    HashRandom,
    /// Random Modulo placement (RM) — the paper's contribution.
    RandomModulo,
}

impl PlacementKind {
    /// All policy kinds, in the order used throughout the experiments.
    pub const ALL: [PlacementKind; 4] = [
        PlacementKind::Modulo,
        PlacementKind::Xor,
        PlacementKind::HashRandom,
        PlacementKind::RandomModulo,
    ];

    /// Whether the policy's layout depends on the per-run seed.
    pub const fn is_randomized(self) -> bool {
        matches!(self, PlacementKind::HashRandom | PlacementKind::RandomModulo)
    }

    /// Whether the policy requires index bits to be stored in the tag array
    /// (needed when the index is not a pure function of the tag bits and the
    /// set the line sits in).
    pub const fn stores_index_in_tag(self) -> bool {
        matches!(self, PlacementKind::HashRandom)
    }

    /// Short name used in experiment output.
    pub const fn short_name(self) -> &'static str {
        match self {
            PlacementKind::Modulo => "MOD",
            PlacementKind::Xor => "XOR",
            PlacementKind::HashRandom => "hRP",
            PlacementKind::RandomModulo => "RM",
        }
    }

    /// Builds a boxed policy instance for the given geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the geometry cannot support the policy
    /// (currently never: all supported geometries work with all policies).
    pub fn build(self, geometry: CacheGeometry) -> Result<Box<dyn PlacementPolicy>, ConfigError> {
        Ok(match self {
            PlacementKind::Modulo => Box::new(ModuloPlacement::new(geometry)),
            PlacementKind::Xor => Box::new(XorPlacement::new(geometry)),
            PlacementKind::HashRandom => Box::new(HashRandomPlacement::new(geometry)),
            PlacementKind::RandomModulo => Box::new(RandomModuloPlacement::new(geometry)),
        })
    }
}

impl fmt::Display for PlacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PlacementKind::Modulo => "modulo",
            PlacementKind::Xor => "xor",
            PlacementKind::HashRandom => "hrp",
            PlacementKind::RandomModulo => "random-modulo",
        };
        f.write_str(name)
    }
}

impl FromStr for PlacementKind {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "modulo" | "mod" => Ok(PlacementKind::Modulo),
            "xor" => Ok(PlacementKind::Xor),
            "hrp" | "hash" | "hash-random" => Ok(PlacementKind::HashRandom),
            "rm" | "random-modulo" | "randommodulo" => Ok(PlacementKind::RandomModulo),
            other => Err(ConfigError::Inconsistent {
                reason: format!("unknown placement policy '{other}'"),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Lane-batched placement (wavefront engine)
// ---------------------------------------------------------------------------

/// Placement across K independent seed lanes, slice-in/slice-out.
///
/// The lane-batched replay engine simulates K per-seed cache hierarchies in
/// lock-step: one decoded trace op is applied to all lanes before the next
/// op is decoded.  `PlacementLanes` is the placement stage of that
/// wavefront — one line address in, K set indices out:
///
/// * **Modulo / XOR** are seed-independent, so every lane maps the line to
///   the *same* set.  [`Self::is_uniform`] reports this, and the cache
///   probes one contiguous K-wide row per way instead of K scattered sets.
/// * **hRP** keeps per-lane round keys; [`Self::index_lanes`] runs K
///   independent hash chains in one fixed-trip sweep, which the CPU
///   overlaps (one hash at a time serialises its ~20-operation dependency
///   chain per access), and memoises each line's K indices.
/// * **RM** shares one Benes network and keeps per-slot, per-lane
///   bit-permutation tables; a memo miss routes the segment once per lane,
///   and every access is two table loads and one XOR per lane.
///
/// Every lane's mapping is bit-identical to the pure
/// [`PlacementPolicy::set_index_of_line`] of the same policy reseeded with
/// the same value, at every width; this module's tests pin it for every
/// index, and the reference-model suite pins whole runs against it.
///
/// ```
/// use randmod_core::{CacheGeometry, LineAddr, PlacementKind, PlacementLanes};
///
/// # fn main() -> Result<(), randmod_core::ConfigError> {
/// let geometry = CacheGeometry::leon3_l1();
/// let mut policy = PlacementKind::RandomModulo.build(geometry)?;
/// let mut bank = PlacementLanes::new(PlacementKind::RandomModulo, geometry, 2)?;
/// policy.reseed(7);
/// bank.reseed_lane(1, 7);
/// let line = LineAddr::new(0x20_0000);
/// assert_eq!(bank.index_lane(1, line), policy.set_index_of_line(line));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PlacementLanes {
    lanes: usize,
    backend: LaneBackend,
}

#[derive(Debug, Clone)]
enum LaneBackend {
    /// Seed-independent: one scalar policy serves every lane.
    Modulo(ModuloPlacement),
    /// Seed-independent: one scalar policy serves every lane.
    Xor(XorPlacement),
    HashRandom(HashRandomLanes),
    RandomModulo(RandomModuloLanes),
}

impl PlacementLanes {
    /// Builds a lane bank for `kind` on `geometry` with `lanes` lanes.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the geometry cannot support the policy
    /// (currently never: all supported geometries work with all policies).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(
        kind: PlacementKind,
        geometry: CacheGeometry,
        lanes: usize,
    ) -> Result<Self, ConfigError> {
        assert!(lanes > 0, "a lane bank needs at least one lane");
        let backend = match kind {
            PlacementKind::Modulo => LaneBackend::Modulo(ModuloPlacement::new(geometry)),
            PlacementKind::Xor => LaneBackend::Xor(XorPlacement::new(geometry)),
            PlacementKind::HashRandom => {
                LaneBackend::HashRandom(HashRandomLanes::new(geometry, lanes))
            }
            PlacementKind::RandomModulo => {
                LaneBackend::RandomModulo(RandomModuloLanes::new(geometry, lanes))
            }
        };
        Ok(PlacementLanes { lanes, backend })
    }

    /// Number of lanes in the bank.
    pub fn lane_count(&self) -> usize {
        self.lanes
    }

    /// The geometry this bank was built for.
    pub fn geometry(&self) -> CacheGeometry {
        match &self.backend {
            LaneBackend::Modulo(p) => p.geometry(),
            LaneBackend::Xor(p) => p.geometry(),
            LaneBackend::HashRandom(p) => p.geometry,
            LaneBackend::RandomModulo(p) => p.geometry,
        }
    }

    /// Whether every lane maps any line to the same set (true for the
    /// seed-independent Modulo and XOR policies).  The lane cache uses this
    /// to pick the contiguous-row probe over the scattered probe.
    pub fn is_uniform(&self) -> bool {
        matches!(self.backend, LaneBackend::Modulo(_) | LaneBackend::Xor(_))
    }

    /// Installs a new seed on lane `lane` (selects that lane's layout).
    pub fn reseed_lane(&mut self, lane: usize, seed: u64) {
        assert!(lane < self.lanes, "lane {lane} out of {} lanes", self.lanes);
        match &mut self.backend {
            // Deterministic policies: layout is seed-independent; record on
            // the shared scalar policy so `seed()`-style queries stay sane.
            LaneBackend::Modulo(p) => PlacementPolicy::reseed(p, seed),
            LaneBackend::Xor(p) => PlacementPolicy::reseed(p, seed),
            LaneBackend::HashRandom(p) => p.reseed_lane(lane, seed),
            LaneBackend::RandomModulo(p) => p.reseed_lane(lane, seed),
        }
    }

    /// Maps `line` to the single set index shared by every lane.
    ///
    /// # Panics
    ///
    /// Panics if the bank is not [`Self::is_uniform`].
    #[inline]
    pub fn index_uniform(&mut self, line: LineAddr) -> u32 {
        match &self.backend {
            LaneBackend::Modulo(p) => p.set_index_of_line(line),
            LaneBackend::Xor(p) => p.set_index_of_line(line),
            // randmod: allow(P1, the documented Panics contract: callers gate on is_uniform() before taking this path, and the guard is unit-tested)
            _ => panic!("index_uniform called on a per-lane placement bank"),
        }
    }

    /// Maps `line` to a set index for the first `out.len()` lanes, writing
    /// lane `i`'s index into `out[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is longer than the lane count.
    #[inline]
    pub fn index_lanes(&mut self, line: LineAddr, out: &mut [u32]) {
        assert!(
            out.len() <= self.lanes,
            "{} indices requested from a {}-lane bank",
            out.len(),
            self.lanes
        );
        match &mut self.backend {
            LaneBackend::Modulo(p) => out.fill(p.set_index_of_line(line)),
            LaneBackend::Xor(p) => out.fill(p.set_index_of_line(line)),
            LaneBackend::HashRandom(p) => p.index_lanes(line, out),
            LaneBackend::RandomModulo(p) => p.index_lanes(line, out),
        }
    }

    /// Maps `line` to lane `lane`'s set index (the sparse path: L2 read
    /// waves probe only the lanes that missed in L1).
    #[inline]
    pub fn index_lane(&mut self, lane: usize, line: LineAddr) -> u32 {
        debug_assert!(lane < self.lanes);
        match &mut self.backend {
            LaneBackend::Modulo(p) => p.set_index_of_line(line),
            LaneBackend::Xor(p) => p.set_index_of_line(line),
            LaneBackend::HashRandom(p) => p.index_lane(lane, line),
            LaneBackend::RandomModulo(p) => p.index_lane(lane, line),
        }
    }
}

/// Slot count of the hRP lane-hash memo (direct-mapped on the low line
/// address bits; must be a power of two).  Sized so a kernel's code lines
/// plus its data working set stay memoised across trace iterations.
const HRP_MEMO_SLOTS: usize = 1024;

/// hRP across lanes: per-lane round keys in one contiguous array, plus a
/// direct-mapped line → K-indices memo.
///
/// The four-round rotate/XOR hash has data-dependent rotation amounts, so
/// it cannot SIMD-vectorize; computing it K times per access is the single
/// most expensive stage of an hRP wave.  But every lane sees the *same*
/// line stream and the mapping depends only on `(line, seed)`, so the bank
/// memoises each line's K set indices in a lane-major LUT
/// (`memo_index[slot * K + lane]`, tagged by line address): a trace that
/// revisits its working set pays the K hashes once per line per reseed,
/// and every revisit is one contiguous K-wide copy.  A memo miss still
/// runs the K hash chains back-to-back, which at least overlaps their
/// ~20-operation dependency chains in the out-of-order window.
#[derive(Debug, Clone)]
struct HashRandomLanes {
    geometry: CacheGeometry,
    round_keys: Vec<[u64; 4]>,
    /// Line address memoised per slot (`u64::MAX` = empty; line addresses
    /// never reach it — they lose at least the offset bits).
    memo_tags: Vec<u64>,
    /// Per-slot, per-lane memoised set index, lane-major.
    memo_index: Vec<u32>,
}

/// The empty-slot sentinel of the hRP memo.
const HRP_MEMO_EMPTY: u64 = u64::MAX;

impl HashRandomLanes {
    fn new(geometry: CacheGeometry, lanes: usize) -> Self {
        HashRandomLanes {
            geometry,
            round_keys: vec![hrp_round_keys(0); lanes],
            memo_tags: vec![HRP_MEMO_EMPTY; HRP_MEMO_SLOTS],
            memo_index: vec![0; HRP_MEMO_SLOTS * lanes],
        }
    }

    fn reseed_lane(&mut self, lane: usize, seed: u64) {
        // randmod: allow(P1, PlacementLanes::reseed_lane asserts lane < lane_count == round_keys.len() before dispatching here)
        self.round_keys[lane] = hrp_round_keys(seed);
        // The memo caches (line, seed) products: a new seed invalidates it.
        self.memo_tags.fill(HRP_MEMO_EMPTY);
    }

    // randmod: allow(P1, memo arithmetic is in-bounds by construction: slot < HRP_MEMO_SLOTS via the power-of-two mask, memo_tags has HRP_MEMO_SLOTS entries, memo_index has HRP_MEMO_SLOTS * lanes entries so slot*lanes+lanes never overruns, and out.len() <= lanes is asserted by the PlacementLanes facade)
    #[inline]
    fn index_lanes(&mut self, line: LineAddr, out: &mut [u32]) {
        let n = self.geometry.index_bits();
        if n == 0 {
            out.fill(0);
            return;
        }
        let raw = line.raw();
        let lanes = self.round_keys.len();
        let slot = (raw as usize) & (HRP_MEMO_SLOTS - 1);
        let memo = &mut self.memo_index[slot * lanes..slot * lanes + lanes];
        if self.memo_tags[slot] != raw {
            let mask = (self.geometry.sets() - 1) as u64;
            for (cell, keys) in memo.iter_mut().zip(self.round_keys.iter()) {
                *cell = hrp_fold_index(hrp_parametric_hash(*keys, raw), n, mask);
            }
            self.memo_tags[slot] = raw;
        }
        out.copy_from_slice(&memo[..out.len()]);
    }

    // randmod: allow(P1, same bounds as index_lanes, plus lane < lanes guaranteed by the PlacementLanes facade (debug_assert at the dispatch site))
    #[inline]
    fn index_lane(&mut self, lane: usize, line: LineAddr) -> u32 {
        let n = self.geometry.index_bits();
        if n == 0 {
            return 0;
        }
        let raw = line.raw();
        let lanes = self.round_keys.len();
        let slot = (raw as usize) & (HRP_MEMO_SLOTS - 1);
        // A sparse miss fills the whole entry: L1 miss waves ask several
        // lanes for the same L2 line back-to-back, so the other lanes'
        // hashes are about to be needed anyway.
        if self.memo_tags[slot] != raw {
            let mask = (self.geometry.sets() - 1) as u64;
            let memo = &mut self.memo_index[slot * lanes..slot * lanes + lanes];
            for (cell, keys) in memo.iter_mut().zip(self.round_keys.iter()) {
                *cell = hrp_fold_index(hrp_parametric_hash(*keys, raw), n, mask);
            }
            self.memo_tags[slot] = raw;
        }
        self.memo_index[slot * lanes + lane]
    }
}

/// RM across lanes: one shared Benes network, per-lane seed material, and
/// one [`SegmentLutCache`] holding K table pairs per slot.
///
/// Every lane sees the *same* line stream, so the slot tags are shared
/// across lanes and a slot fill routes the segment once per lane; a wave
/// then reads the slot's contiguous row of K table pairs.
#[derive(Debug, Clone)]
struct RandomModuloLanes {
    geometry: CacheGeometry,
    network: BenesNetwork,
    seeds: Vec<RmSeed>,
    memo: SegmentLutCache,
}

impl RandomModuloLanes {
    fn new(geometry: CacheGeometry, lanes: usize) -> Self {
        let network = BenesNetwork::new(geometry.index_bits().max(1) as usize);
        RandomModuloLanes {
            geometry,
            memo: SegmentLutCache::new(geometry, &network, lanes),
            network,
            seeds: vec![RmSeed::new(0); lanes],
        }
    }

    fn reseed_lane(&mut self, lane: usize, seed: u64) {
        if let Some(material) = self.seeds.get_mut(lane) {
            *material = RmSeed::new(seed);
        }
        // The tags are shared across lanes, so a new seed on any lane
        // drops every slot.
        self.memo.invalidate();
    }

    #[inline]
    fn index_lanes(&mut self, line: LineAddr, out: &mut [u32]) {
        let modulo_index = self.geometry.modulo_index_of_line(line);
        let segment = self.geometry.segment_of_line(line);
        let split = self.memo.split;
        if let Some(row) = self.memo.row(&self.network, &self.seeds, segment) {
            for (slot, table) in out.iter_mut().zip(row.chunks_exact(split.len)) {
                *slot = split.lookup(table, modulo_index);
            }
            return;
        }
        for (slot, seed) in out.iter_mut().zip(&self.seeds) {
            *slot = seed.walk(&self.network, segment, modulo_index);
        }
    }

    #[inline]
    fn index_lane(&mut self, lane: usize, line: LineAddr) -> u32 {
        let modulo_index = self.geometry.modulo_index_of_line(line);
        let segment = self.geometry.segment_of_line(line);
        let split = self.memo.split;
        match self.memo.row(&self.network, &self.seeds, segment) {
            Some(row) => row
                .get(lane * split.len..(lane + 1) * split.len)
                .map_or(0, |table| split.lookup(table, modulo_index)),
            None => self
                .seeds
                .get(lane)
                .map_or(0, |seed| seed.walk(&self.network, segment, modulo_index)),
        }
    }
}

// ---------------------------------------------------------------------------
// Modulo
// ---------------------------------------------------------------------------

/// Conventional modulo placement: the set index is the low bits of the line
/// address.  The layout is independent of the seed.
///
/// ```
/// use randmod_core::{ModuloPlacement, CacheGeometry, Address};
/// use randmod_core::placement::PlacementPolicy;
///
/// let policy = ModuloPlacement::new(CacheGeometry::leon3_l1());
/// assert_eq!(policy.set_index(Address::new(0x0)), 0);
/// assert_eq!(policy.set_index(Address::new(32)), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuloPlacement {
    geometry: CacheGeometry,
    seed: u64,
}

impl ModuloPlacement {
    /// Creates a modulo placement for the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        ModuloPlacement { geometry, seed: 0 }
    }
}

impl PlacementPolicy for ModuloPlacement {
    fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    fn set_index_of_line(&self, line: LineAddr) -> u32 {
        self.geometry.modulo_index_of_line(line)
    }

    fn reseed(&mut self, seed: u64) {
        // Modulo placement is deterministic: the seed is recorded only so
        // callers can query it uniformly across policies.
        self.seed = seed;
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn kind(&self) -> PlacementKind {
        PlacementKind::Modulo
    }

    fn clone_box(&self) -> Box<dyn PlacementPolicy> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Deterministic XOR placement
// ---------------------------------------------------------------------------

/// Deterministic XOR-folding placement (related work: XOR-based placement
/// functions).  All index-width chunks of the line address are XORed
/// together.  Like modulo it is a fixed hash, so pathological access
/// patterns repeat systematically for a given memory layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorPlacement {
    geometry: CacheGeometry,
    seed: u64,
}

impl XorPlacement {
    /// Creates an XOR placement for the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        XorPlacement { geometry, seed: 0 }
    }
}

impl PlacementPolicy for XorPlacement {
    fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    fn set_index_of_line(&self, line: LineAddr) -> u32 {
        let n = self.geometry.index_bits();
        let mask = (self.geometry.sets() - 1) as u64;
        let mut value = line.raw();
        let mut folded = 0u64;
        while value != 0 {
            folded ^= value & mask;
            value >>= n;
        }
        folded as u32
    }

    fn reseed(&mut self, seed: u64) {
        self.seed = seed;
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn kind(&self) -> PlacementKind {
        PlacementKind::Xor
    }

    fn clone_box(&self) -> Box<dyn PlacementPolicy> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Hash-based random placement (hRP)
// ---------------------------------------------------------------------------

/// Hash-based random placement (hRP), the pre-existing MBPTA-compliant
/// design the paper compares against.
///
/// The hardware consists of rotate blocks driven by the address bits acting
/// on seed material, combined by a tree of 2-input XOR gates (Figure 2 of
/// the paper).  Behaviourally, every line address is mapped to a set
/// (pseudo-)uniformly and (pseudo-)independently for each seed, so:
///
/// * the distribution of addresses over sets is homogeneous (~`1/S` per
///   set), which keeps conflicts low *on average*, but
/// * even two *contiguous* lines can land in the same set with probability
///   of about `1/S` per run — the cache-risk-pattern inflation that Random
///   Modulo removes.
///
/// ```
/// use randmod_core::{HashRandomPlacement, CacheGeometry, Address};
/// use randmod_core::placement::PlacementPolicy;
///
/// let mut policy = HashRandomPlacement::new(CacheGeometry::leon3_l1());
/// policy.reseed(1);
/// let a = policy.set_index(Address::new(0x1000));
/// policy.reseed(2);
/// let b = policy.set_index(Address::new(0x1000));
/// // The mapping of a given address usually changes with the seed.
/// assert!(a < 128 && b < 128);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRandomPlacement {
    geometry: CacheGeometry,
    seed: u64,
    /// Round keys derived from the seed (the parametric part of the hash,
    /// the `RII` input of Figure 2).
    round_keys: [u64; 4],
}

/// Derives hRP's four round keys from a placement seed.
///
/// Shared by the pure policy and the lane bank so both derive exactly the
/// same keys for the same seed.
#[inline]
fn hrp_round_keys(seed: u64) -> [u64; 4] {
    let mut sm = SplitMix64::new(seed ^ 0x6852_5EED_u64);
    let mut keys = [0u64; 4];
    for key in &mut keys {
        *key = sm.next_u64();
    }
    keys
}

/// The parametric rotate/XOR hash of hRP.
///
/// The hardware of Figure 2 is a layer of rotate blocks whose rotation
/// amounts depend on address bits and the random seed, combined by a
/// cascade of 2-input XOR gates.  This software model uses four
/// rotate/XOR rounds with data- and seed-driven rotation amounts, which
/// reproduces the statistical behaviour that matters for the paper's
/// evaluation: every address is mapped (pseudo-)uniformly to the sets,
/// and any pair of addresses — contiguous or not — collides in the same
/// set with probability of about `1/S` per seed.
#[inline]
fn hrp_parametric_hash(round_keys: [u64; 4], line: u64) -> u64 {
    let [k0, k1, k2, k3] = round_keys;
    let mut x = line ^ k0;
    x = x.rotate_left(((k1 as u32) ^ (x as u32)) & 63) ^ k1;
    x ^= x >> 31;
    x = x.rotate_left((((k2 >> 32) as u32) ^ ((x >> 7) as u32)) & 63) ^ k2;
    x ^= x >> 27;
    x = x.rotate_left(((k3 as u32) ^ ((x >> 13) as u32)) & 63) ^ k3;
    x ^= x >> 33;
    x = x.rotate_left((((k0 >> 17) as u32) ^ ((x >> 23) as u32)) & 63) ^ (k1 ^ k2);
    x ^= x >> 29;
    x
}

/// hRP's final XOR-folding cascade down to the index width.  The trip
/// count depends only on the index width, not on the hash value (folding
/// in the zero chunks above the topmost set bit is a no-op), which keeps
/// this per-access loop branch-predictable and fixed-trip — exactly the
/// shape the lane bank's chunked sweep relies on.
#[inline]
fn hrp_fold_index(hashed: u64, n: u32, mask: u64) -> u32 {
    let mut folded = 0u64;
    let mut shift = 0u32;
    while shift < u64::BITS {
        folded ^= (hashed >> shift) & mask;
        shift += n;
    }
    folded as u32
}

impl HashRandomPlacement {
    /// Creates an hRP placement for the given geometry (seed 0 installed).
    pub fn new(geometry: CacheGeometry) -> Self {
        let mut policy = HashRandomPlacement {
            geometry,
            seed: 0,
            round_keys: [0; 4],
        };
        policy.reseed(0);
        policy
    }

    /// The parametric rotate/XOR hash (see [`hrp_parametric_hash`]).
    #[inline]
    fn parametric_hash(&self, line: u64) -> u64 {
        hrp_parametric_hash(self.round_keys, line)
    }
}

impl PlacementPolicy for HashRandomPlacement {
    fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    fn set_index_of_line(&self, line: LineAddr) -> u32 {
        let n = self.geometry.index_bits();
        if n == 0 {
            return 0;
        }
        let mask = (self.geometry.sets() - 1) as u64;
        let hashed = self.parametric_hash(line.raw());
        hrp_fold_index(hashed, n, mask)
    }

    fn reseed(&mut self, seed: u64) {
        self.seed = seed;
        self.round_keys = hrp_round_keys(seed);
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn kind(&self) -> PlacementKind {
        PlacementKind::HashRandom
    }

    fn clone_box(&self) -> Box<dyn PlacementPolicy> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Random Modulo (RM)
// ---------------------------------------------------------------------------

/// Random Modulo placement — the paper's contribution.
///
/// RM permutes the modulo index bits of every address with a Benes network.
/// The control word of the network is derived from the upper address bits
/// (the cache-segment identity) combined with the per-run random seed, so:
///
/// * within a cache segment the mapping of index values is a *bijection*:
///   two addresses of the same segment that modulo places in different sets
///   are **always** placed in different sets (spatial locality is preserved,
///   exactly like modulo);
/// * across segments and across runs, layouts vary randomly, giving every
///   potential cache layout a probability of occurrence, as MBPTA requires;
/// * the added hardware is a thin layer of pass-gate switches plus one XOR
///   stage for the control word, which is why it is much smaller and faster
///   than the hRP hash (Table 1 of the paper, reproduced by
///   `randmod-hwcost`).
///
/// ```
/// use randmod_core::{RandomModuloPlacement, CacheGeometry, Address};
/// use randmod_core::placement::PlacementPolicy;
///
/// let geometry = CacheGeometry::leon3_l1();
/// let mut policy = RandomModuloPlacement::new(geometry);
/// policy.reseed(0xFEED_5EED);
///
/// // Two consecutive lines (same segment, different modulo index) never
/// // collide, whatever the seed.
/// let a = policy.set_index(Address::new(0x4000_0000));
/// let b = policy.set_index(Address::new(0x4000_0020));
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct RandomModuloPlacement {
    geometry: CacheGeometry,
    seed: u64,
    network: BenesNetwork,
    /// Control material expanded from the seed (recomputed on reseed).
    material: RmSeed,
}

/// RM's seed-derived control material.  Shared by the pure policy and
/// the lane bank so both derive exactly the same permutations for the same
/// seed.
#[derive(Debug, Clone, Copy)]
struct RmSeed {
    /// Seed material XORed into the control word.
    controls: u128,
    /// The seed bit concatenated above the upper-address bits.
    top_bit: u128,
}

impl RmSeed {
    /// Expands a placement seed.  The expansion gives networks needing more
    /// than 64 control bits (index widths above 11) full-entropy control
    /// material.
    fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let low = sm.next_u64() as u128;
        let high = sm.next_u64() as u128;
        RmSeed {
            controls: (high << 64) | low,
            top_bit: (seed >> 63) as u128 & 1,
        }
    }

    /// The Benes control word of a `needed`-bit network for one segment:
    /// the upper address bits concatenated with the seed's top bit, XORed
    /// with the seed material.
    #[inline]
    fn control_word(self, needed: usize, segment: u64) -> u128 {
        if needed == 0 {
            return 0;
        }
        let mask: u128 = if needed >= 128 {
            u128::MAX
        } else {
            (1u128 << needed) - 1
        };
        let addr_part = (segment as u128) & (mask >> 1);
        let concatenated = addr_part | (self.top_bit << (needed - 1));
        (concatenated ^ self.controls) & mask
    }

    /// Maps one index of one segment by walking the network: the pure
    /// specification of RM, and the path for geometries too large to memoize.
    #[inline]
    fn walk(self, network: &BenesNetwork, segment: u64, modulo_index: u32) -> u32 {
        network.permute_bits(modulo_index, self.control_word(network.control_bits(), segment))
    }
}

/// Direct-mapped memo of per-segment bit-permutation tables for a bank of
/// seed lanes.
///
/// Under a fixed seed, RM's mapping within one cache segment is a fixed
/// permutation of the index *bit positions* (that is its defining
/// property), and a program touches only a handful of segments — its
/// footprint divided by the way size.  Walking the Benes network on every
/// access therefore recomputes the same few permutations millions of
/// times.  This memo routes a segment through the network once per lane
/// when the segment takes a slot, and keeps each result as a pair of XOR
/// tables (see [`TableSplit`]): the per-access cost is one tag compare, two
/// table loads and one XOR.  Tables are pure functions of `(segment,
/// seed)`, so memoized results are bit-identical to the network walk;
/// reseeding clears the slot tags.
///
/// Slots are selected by a multiplicative hash of the segment id, not its
/// low bits, so co-runner tasks laid out at large power-of-two offsets
/// (the shared-L2 contention campaigns, where tasks alternate segments
/// every few accesses) land in distinct slots instead of all aliasing
/// slot 0.  Two segments that do share a slot cost one route per swap.
#[derive(Debug, Clone)]
struct SegmentLutCache {
    split: TableSplit,
    /// Table pairs per slot: one per lane.
    lanes: usize,
    /// Segment id resident in each slot (`u64::MAX` = empty); no slots at
    /// all when the geometry is too large to memoize.
    tags: Vec<u64>,
    /// Slot `s`, lane `l`'s table pair is the `split.len` entries from
    /// `(s * lanes + l) * split.len`.
    tables: Vec<u16>,
    /// Slot fills so far; each routes the segment once per lane.
    routes: u64,
}

/// Direct-mapped slot count of the RM memo (a power of two).
const RM_MEMO_SLOTS: usize = 64;

/// Most index bits a segment's table pair covers (each half at most 6
/// bits, so every image fits a `u16`).
const RM_TABLE_BITS: usize = 12;

/// The memo slot of a segment: Fibonacci hashing on the high product bits,
/// so segments at regular power-of-two strides spread out.
#[inline]
fn rm_slot_of(segment: u64) -> usize {
    let hashed = segment.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (hashed >> (u64::BITS - RM_MEMO_SLOTS.trailing_zeros())) as usize
}

/// How a segment's table pair splits an index, and the table builder.
///
/// The Benes network only exchanges bit positions, so for one control word
/// it is a linear map over GF(2): `P(a ^ b) = P(a) ^ P(b)`.  An index is
/// split into its low `low_bits` bits and the remaining high bits, and
/// `P(index) = low_table[low] ^ high_table[high]`, where each table holds
/// the XOR of the images of its half's set bits.  A pair is stored as one
/// slice, the low table then the high table, sized to the geometry: with
/// at most 12 index bits each half has at most 6 bits and each table at
/// most 64 entries, and a 7-bit LEON3 L1 needs only 8 + 16.
#[derive(Debug, Clone, Copy)]
struct TableSplit {
    low_bits: u32,
    low_mask: u32,
    /// Entries of the low-half table (`2^low_bits`).
    low_len: usize,
    /// Entries of one table pair, both halves.
    len: usize,
}

impl TableSplit {
    fn new(network: &BenesNetwork) -> Self {
        let low_bits = network.wires() / 2;
        let high_bits = network.wires() - low_bits;
        TableSplit {
            low_bits: low_bits as u32,
            low_mask: (1 << low_bits) - 1,
            low_len: 1 << low_bits,
            len: (1 << low_bits) + (1 << high_bits),
        }
    }

    /// Routes one control word through `network` once and writes the
    /// resulting permutation's table pair into `table` (`len` entries).
    fn route(self, network: &BenesNetwork, controls: u128, table: &mut [u16]) {
        // Wire `i` starts out carrying source bit position `i`; after the
        // network, output position `i` carries the source bit routed to it.
        let mut wires: [u8; RM_TABLE_BITS] = std::array::from_fn(|position| position as u8);
        let Some(wires) = wires.get_mut(..network.wires()) else {
            return;
        };
        network.apply(wires, controls);
        let mut images = [0u16; RM_TABLE_BITS];
        for (position, &source) in wires.iter().enumerate() {
            if let Some(image) = images.get_mut(usize::from(source)) {
                *image = 1 << position;
            }
        }
        let (low_images, high_images) = images.split_at(self.low_bits as usize);
        let high_bits = wires.len() - low_images.len();
        let high_images = high_images.get(..high_bits).unwrap_or_default();
        let (low_table, high_table) = table.split_at_mut(self.low_len.min(table.len()));
        fill_xor_table(low_table, low_images);
        fill_xor_table(high_table, high_images);
    }

    /// The permuted index of `index` (a modulo index of the geometry)
    /// under the permutation `table` holds.
    #[inline]
    fn lookup(self, table: &[u16], index: u32) -> u32 {
        let low = (index & self.low_mask) as usize;
        let high = (index >> self.low_bits) as usize;
        let low_image = table.get(low).copied().unwrap_or_default();
        let high_image = table.get(self.low_len + high).copied().unwrap_or_default();
        u32::from(low_image ^ high_image)
    }
}

/// Fills `table[v]`, for every `v` below `2^images.len()`, with the XOR of
/// `images[k]` over the set bits `k` of `v`, doubling the filled prefix
/// once per image.
fn fill_xor_table(table: &mut [u16], images: &[u16]) {
    if let Some(first) = table.first_mut() {
        *first = 0;
    }
    let mut filled = 1;
    for &image in images {
        let (done, rest) = table.split_at_mut(filled.min(table.len()));
        for (next, &prev) in rest.iter_mut().zip(done.iter()) {
            *next = prev ^ image;
        }
        filled *= 2;
    }
}

impl SegmentLutCache {
    /// Upper bound on sets for which memoization applies: the index must
    /// fit the two halves of a table pair.
    const MAX_SETS: u32 = 1 << RM_TABLE_BITS;

    fn new(geometry: CacheGeometry, network: &BenesNetwork, lanes: usize) -> Self {
        let slots = if geometry.sets() <= Self::MAX_SETS {
            RM_MEMO_SLOTS
        } else {
            0
        };
        let split = TableSplit::new(network);
        SegmentLutCache {
            split,
            lanes,
            tags: vec![u64::MAX; slots],
            tables: vec![0; slots * lanes * split.len],
            routes: 0,
        }
    }

    /// The row of per-lane table pairs serving `segment` (lane `l`'s pair
    /// at `l * split.len`), routing the segment once per lane under
    /// `seeds` on a slot miss; `None` when memoization is disabled.
    #[inline]
    fn row(
        &mut self,
        network: &BenesNetwork,
        seeds: &[RmSeed],
        segment: u64,
    ) -> Option<&[u16]> {
        let slot = rm_slot_of(segment);
        let tag = self.tags.get_mut(slot)?;
        let width = self.lanes * self.split.len;
        let row = self.tables.get_mut(slot * width..(slot + 1) * width)?;
        if *tag != segment {
            *tag = segment;
            for (table, seed) in row.chunks_exact_mut(self.split.len).zip(seeds) {
                let controls = seed.control_word(network.control_bits(), segment);
                self.split.route(network, controls, table);
            }
            self.routes += 1;
        }
        Some(row)
    }

    fn invalidate(&mut self) {
        self.tags.fill(u64::MAX);
    }
}

impl RandomModuloPlacement {
    /// Creates an RM placement for the given geometry (seed 0 installed).
    pub fn new(geometry: CacheGeometry) -> Self {
        let network = BenesNetwork::new(geometry.index_bits().max(1) as usize);
        RandomModuloPlacement {
            geometry,
            seed: 0,
            network,
            material: RmSeed::new(0),
        }
    }

    /// Number of control bits of the underlying Benes network.
    pub fn control_bits(&self) -> usize {
        self.network.control_bits()
    }

    /// Computes the Benes control word for a given cache segment under the
    /// current seed.
    ///
    /// Following the paper: the upper address bits are concatenated with the
    /// uppermost bit of the seed and XORed with further seed bits, so that
    /// small changes in the upper address bits lead to different index
    /// permutations while the per-run seed decorrelates layouts across runs.
    pub fn control_word_for_segment(&self, segment: u64) -> u128 {
        self.material.control_word(self.network.control_bits(), segment)
    }
}

impl PlacementPolicy for RandomModuloPlacement {
    fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    fn set_index_of_line(&self, line: LineAddr) -> u32 {
        let modulo_index = self.geometry.modulo_index_of_line(line);
        let segment = self.geometry.segment_of_line(line);
        self.material.walk(&self.network, segment, modulo_index)
    }

    fn reseed(&mut self, seed: u64) {
        self.seed = seed;
        self.material = RmSeed::new(seed);
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn kind(&self) -> PlacementKind {
        PlacementKind::RandomModulo
    }

    fn clone_box(&self) -> Box<dyn PlacementPolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn l1() -> CacheGeometry {
        CacheGeometry::leon3_l1()
    }

    #[test]
    fn kind_parsing_round_trips() {
        for kind in PlacementKind::ALL {
            let parsed: PlacementKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("nonsense".parse::<PlacementKind>().is_err());
    }

    #[test]
    fn kind_properties() {
        assert!(!PlacementKind::Modulo.is_randomized());
        assert!(!PlacementKind::Xor.is_randomized());
        assert!(PlacementKind::HashRandom.is_randomized());
        assert!(PlacementKind::RandomModulo.is_randomized());
        assert!(PlacementKind::HashRandom.stores_index_in_tag());
        assert!(!PlacementKind::RandomModulo.stores_index_in_tag());
        assert_eq!(PlacementKind::RandomModulo.short_name(), "RM");
    }

    #[test]
    fn modulo_maps_consecutive_lines_to_consecutive_sets() {
        let policy = ModuloPlacement::new(l1());
        for i in 0..256u64 {
            let addr = Address::new(i * 32);
            assert_eq!(policy.set_index(addr), (i % 128) as u32);
        }
    }

    #[test]
    fn modulo_ignores_seed() {
        let mut policy = ModuloPlacement::new(l1());
        let addr = Address::new(0x1234_5660);
        let before = policy.set_index(addr);
        policy.reseed(0xABCDEF);
        assert_eq!(policy.set_index(addr), before);
        assert_eq!(policy.seed(), 0xABCDEF);
    }

    #[test]
    fn xor_is_deterministic_and_ignores_seed() {
        let mut policy = XorPlacement::new(l1());
        let addr = Address::new(0xDEAD_BEE0);
        let before = policy.set_index(addr);
        policy.reseed(77);
        assert_eq!(policy.set_index(addr), before);
        assert!(policy.set_index(addr) < 128);
    }

    #[test]
    fn xor_differs_from_modulo_for_far_addresses() {
        let xor = XorPlacement::new(l1());
        let modulo = ModuloPlacement::new(l1());
        let differing = (0..1024u64)
            .map(|i| Address::new(0x10_0000 + i * 4096))
            .filter(|&a| xor.set_index(a) != modulo.set_index(a))
            .count();
        assert!(differing > 0);
    }

    #[test]
    fn hrp_is_deterministic_per_seed() {
        let mut policy = HashRandomPlacement::new(l1());
        policy.reseed(1234);
        let addr = Address::new(0x8000_0400);
        let first = policy.set_index(addr);
        let second = policy.set_index(addr);
        assert_eq!(first, second);
        let mut other = HashRandomPlacement::new(l1());
        other.reseed(1234);
        assert_eq!(other.set_index(addr), first);
    }

    #[test]
    fn hrp_layout_changes_with_seed() {
        let mut policy = HashRandomPlacement::new(l1());
        let addrs: Vec<Address> = (0..64).map(|i| Address::new(0x4000_0000 + i * 32)).collect();
        policy.reseed(1);
        let layout_a: Vec<u32> = addrs.iter().map(|&a| policy.set_index(a)).collect();
        policy.reseed(2);
        let layout_b: Vec<u32> = addrs.iter().map(|&a| policy.set_index(a)).collect();
        assert_ne!(layout_a, layout_b);
    }

    #[test]
    fn hrp_distribution_over_sets_is_roughly_uniform() {
        let geometry = l1();
        let mut policy = HashRandomPlacement::new(geometry);
        policy.reseed(0xFACE);
        let sets = geometry.sets() as usize;
        let mut counts = vec![0u32; sets];
        let lines = 128 * 1024u64;
        for i in 0..lines {
            counts[policy.set_index_of_line(LineAddr::new(i)) as usize] += 1;
        }
        let expected = lines as f64 / sets as f64;
        for (s, &c) in counts.iter().enumerate() {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.25, "set {s} has count {c}, expected ~{expected}");
        }
    }

    #[test]
    fn hrp_contiguous_lines_can_collide_with_probability_near_one_over_s() {
        // The core observation motivating RM: under hRP, two contiguous
        // lines (same segment, different modulo index) collide in the same
        // set with probability on the order of 1/S per run.
        let geometry = l1();
        let mut policy = HashRandomPlacement::new(geometry);
        let a = Address::new(0x4000_0000);
        let b = Address::new(0x4000_0020); // next line, same segment
        let runs = 20_000u32;
        let mut collisions = 0u32;
        for seed in 0..runs {
            policy.reseed(seed as u64 * 0x9E37_79B9 + 17);
            if policy.set_index(a) == policy.set_index(b) {
                collisions += 1;
            }
        }
        let p = collisions as f64 / runs as f64;
        let one_over_s = 1.0 / geometry.sets() as f64;
        assert!(
            p > one_over_s * 0.2 && p < one_over_s * 5.0,
            "collision probability {p} not in the expected band around {one_over_s}"
        );
    }

    #[test]
    fn hrp_pairs_far_apart_also_collide_near_one_over_s() {
        let geometry = l1();
        let mut policy = HashRandomPlacement::new(geometry);
        let a = Address::new(0x4000_0000);
        let b = Address::new(0x7354_1980);
        let runs = 20_000u32;
        let mut collisions = 0u32;
        for seed in 0..runs {
            policy.reseed(seed as u64 * 0xABCDE + 3);
            if policy.set_index(a) == policy.set_index(b) {
                collisions += 1;
            }
        }
        let p = collisions as f64 / runs as f64;
        let one_over_s = 1.0 / geometry.sets() as f64;
        assert!(
            p > one_over_s * 0.2 && p < one_over_s * 5.0,
            "collision probability {p} not in the expected band around {one_over_s}"
        );
    }

    #[test]
    fn rm_defining_property_no_intra_segment_conflicts() {
        // The defining equation of the paper: for addresses A, B in the same
        // cache segment, set_mod(A) != set_mod(B) implies
        // set_rm(A) != set_rm(B) for every seed.
        let geometry = l1();
        let mut policy = RandomModuloPlacement::new(geometry);
        for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX, 0x1234_5678_9ABC_DEF0] {
            policy.reseed(seed);
            let segment_base = Address::new(0x4000_0000);
            let mut seen = HashSet::new();
            for i in 0..geometry.sets() as u64 {
                let addr = segment_base.offset(i * geometry.line_size() as u64);
                let set = policy.set_index(addr);
                assert!(
                    seen.insert(set),
                    "seed {seed:#x}: two same-segment lines mapped to set {set}"
                );
            }
            assert_eq!(seen.len(), geometry.sets() as usize);
        }
    }

    #[test]
    fn rm_is_deterministic_per_seed() {
        let mut a = RandomModuloPlacement::new(l1());
        let mut b = RandomModuloPlacement::new(l1());
        a.reseed(987);
        b.reseed(987);
        for i in 0..512u64 {
            let addr = Address::new(0x10_0000 + i * 32);
            assert_eq!(a.set_index(addr), b.set_index(addr));
        }
    }

    #[test]
    fn rm_layout_changes_with_seed() {
        let mut policy = RandomModuloPlacement::new(l1());
        let addrs: Vec<Address> = (0..128).map(|i| Address::new(0x4000_0000 + i * 32)).collect();
        let mut distinct_layouts = HashSet::new();
        for seed in 0..200u64 {
            policy.reseed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
            let layout: Vec<u32> = addrs.iter().map(|&a| policy.set_index(a)).collect();
            distinct_layouts.insert(layout);
        }
        assert!(
            distinct_layouts.len() > 100,
            "only {} distinct layouts over 200 seeds",
            distinct_layouts.len()
        );
    }

    #[test]
    fn rm_different_segments_get_different_permutations() {
        // "small changes in address upper bits lead to different index
        // permutations" — check that two adjacent segments usually differ.
        let geometry = l1();
        let mut policy = RandomModuloPlacement::new(geometry);
        policy.reseed(0xC0FFEE);
        let mut differing_segment_pairs = 0;
        let total = 64;
        for s in 0..total {
            let seg_a = Address::new(s * geometry.way_size_bytes());
            let seg_b = Address::new((s + 1) * geometry.way_size_bytes());
            let layout_a: Vec<u32> = (0..geometry.sets() as u64)
                .map(|i| policy.set_index(seg_a.offset(i * 32)))
                .collect();
            let layout_b: Vec<u32> = (0..geometry.sets() as u64)
                .map(|i| policy.set_index(seg_b.offset(i * 32)))
                .collect();
            if layout_a != layout_b {
                differing_segment_pairs += 1;
            }
        }
        assert!(
            differing_segment_pairs > total / 2,
            "only {differing_segment_pairs} of {total} adjacent segment pairs differ"
        );
    }

    #[test]
    fn rm_covers_many_reachable_sets_for_one_address_across_seeds() {
        // A bit-position permutation preserves the popcount of the index, so
        // a given address can only ever reach the sets whose index has the
        // same number of set bits as its modulo index.  Across many seeds it
        // should visit a large fraction of those reachable sets, and never a
        // set outside that class.
        let geometry = l1();
        let mut policy = RandomModuloPlacement::new(geometry);
        let addr = Address::new(0x4000_0560);
        let modulo_index = geometry.modulo_index(addr);
        let popcount = modulo_index.count_ones();
        let reachable = (0..geometry.sets()).filter(|s| s.count_ones() == popcount).count();
        let mut visited = HashSet::new();
        for seed in 0..4000u64 {
            policy.reseed(seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(99));
            let set = policy.set_index(addr);
            assert_eq!(set.count_ones(), popcount, "bit permutation must preserve popcount");
            visited.insert(set);
        }
        assert!(
            visited.len() * 2 > reachable,
            "address only visited {} of {} reachable sets",
            visited.len(),
            reachable
        );
    }

    #[test]
    fn rm_works_for_l2_geometry() {
        let geometry = CacheGeometry::leon3_l2_partition();
        let mut policy = RandomModuloPlacement::new(geometry);
        policy.reseed(31337);
        let mut seen = HashSet::new();
        let base = Address::new(0x2000_0000);
        for i in 0..geometry.sets() as u64 {
            let set = policy.set_index(base.offset(i * geometry.line_size() as u64));
            assert!(seen.insert(set));
        }
    }

    #[test]
    fn rm_control_bits_match_paper_for_eight_index_bits() {
        let policy = RandomModuloPlacement::new(CacheGeometry::eight_index_bits());
        assert_eq!(policy.control_bits(), 20);
    }

    #[test]
    fn build_factory_produces_matching_kinds() {
        for kind in PlacementKind::ALL {
            let policy = kind.build(l1()).unwrap();
            assert_eq!(policy.kind(), kind);
            assert_eq!(policy.geometry(), l1());
        }
    }

    #[test]
    fn boxed_policy_clone_preserves_behaviour() {
        let mut policy = PlacementKind::RandomModulo.build(l1()).unwrap();
        policy.reseed(555);
        let cloned = policy.clone();
        for i in 0..64u64 {
            let addr = Address::new(0x9000_0000 + i * 32);
            assert_eq!(policy.set_index(addr), cloned.set_index(addr));
        }
    }

    /// `count` segments that all hash to the memo slot of `anchor`.
    fn segments_sharing_a_slot(anchor: u64, count: usize) -> Vec<u64> {
        (0..)
            .filter(|&segment| rm_slot_of(segment) == rm_slot_of(anchor))
            .take(count)
            .collect()
    }

    /// `count` segments that all hash to distinct memo slots.
    fn segments_in_distinct_slots(count: usize) -> Vec<u64> {
        let mut taken = HashSet::new();
        (0x40..)
            .filter(|&segment| taken.insert(rm_slot_of(segment)))
            .take(count)
            .collect()
    }

    /// The pure policy of `kind` on `geometry`, reseeded with `seed`.
    fn pure(kind: PlacementKind, geometry: CacheGeometry, seed: u64) -> Box<dyn PlacementPolicy> {
        let mut policy = kind.build(geometry).unwrap();
        policy.reseed(seed);
        policy
    }

    #[test]
    fn rm_memoized_index_matches_the_pure_network_walk() {
        // The per-segment tables must be invisible.  For every index width
        // the memo serves (0 to 12 bits, odd widths included) and one it
        // does not (13 bits, the direct walk), every index of a segment
        // stream that interleaves three segments sharing one slot with
        // segments in their own slots, across reseeds (which must drop
        // every slot), a one-lane bank and every lane of a four-lane bank
        // return exactly what the pure Benes walk returns, through both
        // the sparse and the wave entry points.
        let mut stream = segments_sharing_a_slot(0x5EED, 3);
        stream.extend(segments_in_distinct_slots(4));
        stream.push(0x3_FFFF);
        let seeds = [0u64, 1, 0xDEAD_BEEF, u64::MAX];
        const K: usize = 4;
        for bits in 0..=13u32 {
            let geometry = CacheGeometry::new(1 << bits, 2, 32).unwrap();
            let mut single = RandomModuloLanes::new(geometry, 1);
            let mut bank = RandomModuloLanes::new(geometry, K);
            for round in 0..seeds.len() {
                // Lane `l` runs seed `round + l`, so every lane of the wide
                // bank sees every seed and each round reseeds all lanes.
                let lane_seeds: Vec<u64> =
                    (0..K).map(|lane| seeds[(round + lane) % seeds.len()]).collect();
                let policies: Vec<RandomModuloPlacement> = lane_seeds
                    .iter()
                    .map(|&seed| {
                        let mut policy = RandomModuloPlacement::new(geometry);
                        PlacementPolicy::reseed(&mut policy, seed);
                        policy
                    })
                    .collect();
                single.reseed_lane(0, lane_seeds[0]);
                for (lane, &seed) in lane_seeds.iter().enumerate() {
                    bank.reseed_lane(lane, seed);
                }
                let mut out = [0u32; K];
                for index in 0..geometry.sets() as u64 {
                    for &segment in &stream {
                        let line = LineAddr::new((segment << bits) | index);
                        let walks: [u32; K] =
                            std::array::from_fn(|lane| policies[lane].set_index_of_line(line));
                        assert_eq!(
                            single.index_lane(0, line),
                            walks[0],
                            "width 1: {bits}-bit memo, line {line}, round {round}"
                        );
                        let lane = (index as usize + segment as usize) % K;
                        assert_eq!(
                            bank.index_lane(lane, line),
                            walks[lane],
                            "lane {lane}: {bits}-bit memo, line {line}, round {round}"
                        );
                        bank.index_lanes(line, &mut out);
                        assert_eq!(out, walks, "wave: {bits}-bit memo, line {line}, round {round}");
                    }
                }
            }
        }
        // Random lines over thousands of segments: slots are evicted and
        // refilled constantly.
        for geometry in [
            CacheGeometry::leon3_l1(),
            CacheGeometry::leon3_l2_partition(),
            CacheGeometry::new(8, 2, 32).unwrap(),
        ] {
            let mut single = PlacementLanes::new(PlacementKind::RandomModulo, geometry, 1).unwrap();
            let mut sm = SplitMix64::new(0x5EED_CAFE);
            for seed in seeds {
                let policy = pure(PlacementKind::RandomModulo, geometry, seed);
                single.reseed_lane(0, seed);
                for _ in 0..5_000 {
                    let line = LineAddr::new(sm.next_u64() & 0x3FF_FFFF);
                    assert_eq!(single.index_lane(0, line), policy.set_index_of_line(line), "{line}");
                }
            }
        }
    }

    #[test]
    fn rm_memo_routes_each_resident_segment_once() {
        // After a reseed, reading every index of S segments in distinct
        // slots costs exactly S network routes, at width 1 and width 3,
        // and re-reading them costs none.  Two segments sharing a slot
        // cost one route per swap.
        let geometry = CacheGeometry::leon3_l2_partition();
        let segments = segments_in_distinct_slots(24);
        let line = |segment: u64, index: u64| LineAddr::new((segment << 10) | index);
        let mut single = RandomModuloLanes::new(geometry, 1);
        let mut bank = RandomModuloLanes::new(geometry, 3);
        for seed in [7u64, 8] {
            single.reseed_lane(0, seed);
            for lane in 0..3 {
                bank.reseed_lane(lane, seed + lane as u64);
            }
            for pass in 0..2 {
                let (single_before, bank_before) = (single.memo.routes, bank.memo.routes);
                let mut out = [0u32; 3];
                for &segment in &segments {
                    for index in 0..geometry.sets() as u64 {
                        single.index_lane(0, line(segment, index));
                        bank.index_lanes(line(segment, index), &mut out);
                        bank.index_lane(1, line(segment, index));
                    }
                }
                let expected = if pass == 0 { segments.len() as u64 } else { 0 };
                assert_eq!(single.memo.routes - single_before, expected, "seed {seed} pass {pass}");
                assert_eq!(bank.memo.routes - bank_before, expected, "seed {seed} pass {pass}");
            }
        }
        let pair = segments_sharing_a_slot(0, 2);
        let before = single.memo.routes;
        for round in 0..10 {
            single.index_lane(0, line(pair[round % 2], 5));
        }
        assert_eq!(single.memo.routes - before, 10);
    }

    #[test]
    fn placement_mut_path_matches_shared_path_for_all_kinds() {
        // The memoising `&mut` path of a one-lane bank (what a one-lane
        // cache bank calls once per access) against the pure `&self`
        // mapping, for every kind.
        let geometry = l1();
        let mut sm = SplitMix64::new(42);
        for kind in PlacementKind::ALL {
            let policy = pure(kind, geometry, 1234);
            let mut bank = PlacementLanes::new(kind, geometry, 1).unwrap();
            bank.reseed_lane(0, 1234);
            for _ in 0..2_000 {
                let line = LineAddr::new(sm.next_u64() & 0xFF_FFFF);
                assert_eq!(bank.index_lane(0, line), policy.set_index_of_line(line), "{kind}");
            }
        }
    }

    #[test]
    fn static_placement_matches_boxed_policy() {
        // The statically dispatched bank must be behaviourally identical to
        // the boxed trait object, for every kind, across a sequence of
        // reseeds of one lane and byte addresses spanning 4 GiB.
        let geometry = l1();
        let mut sm = SplitMix64::new(2024);
        for kind in PlacementKind::ALL {
            let mut fast = PlacementLanes::new(kind, geometry, 1).unwrap();
            let mut boxed = kind.build(geometry).unwrap();
            assert_eq!(fast.geometry(), geometry);
            assert_eq!(fast.is_uniform(), !kind.is_randomized());
            for _ in 0..5 {
                let seed = sm.next_u64();
                fast.reseed_lane(0, seed);
                boxed.reseed(seed);
                assert_eq!(boxed.seed(), seed);
                let mut out = [0u32; 1];
                for _ in 0..500 {
                    let addr = Address::new(sm.next_u64() & 0xFFFF_FFFF);
                    let line = geometry.line_addr(addr);
                    fast.index_lanes(line, &mut out);
                    assert_eq!(out[0], boxed.set_index(addr), "{kind}");
                    assert_eq!(fast.index_lane(0, line), out[0], "{kind}");
                }
            }
        }
    }

    #[test]
    fn lane_bank_matches_scalar_placements_per_lane() {
        // Every lane of the wavefront bank must be bit-identical to the
        // pure mapping of its policy reseeded with the same value (for RM,
        // the Benes walk, not the memo the bank builds its tables from) —
        // for all four policies, partial waves, and the single-lane sparse
        // path.
        for geometry in [CacheGeometry::leon3_l1(), CacheGeometry::leon3_l2_partition()] {
            for kind in PlacementKind::ALL {
                for lanes in [1usize, 3, 8] {
                    let mut bank = PlacementLanes::new(kind, geometry, lanes).unwrap();
                    assert_eq!(bank.lane_count(), lanes);
                    assert_eq!(bank.geometry(), geometry);
                    assert_eq!(bank.is_uniform(), !kind.is_randomized());
                    let references: Vec<Box<dyn PlacementPolicy>> = (0..lanes)
                        .map(|lane| {
                            let seed = (lane as u64) * 0x9E37_79B9 + 0xC0FFEE;
                            bank.reseed_lane(lane, seed);
                            pure(kind, geometry, seed)
                        })
                        .collect();
                    let mut sm = SplitMix64::new(0xABCD);
                    let mut out = vec![0u32; lanes];
                    for step in 0..3_000 {
                        let line = LineAddr::new(sm.next_u64() & 0x3FF_FFFF);
                        let active = 1 + step % lanes;
                        bank.index_lanes(line, &mut out[..active]);
                        for (lane, reference) in references.iter().take(active).enumerate() {
                            assert_eq!(
                                out[lane],
                                reference.set_index_of_line(line),
                                "{kind} lane {lane} of {lanes}"
                            );
                        }
                        let lone = step % lanes;
                        assert_eq!(
                            bank.index_lane(lone, line),
                            references[lone].set_index_of_line(line),
                            "{kind} sparse lane {lone}"
                        );
                        if kind.is_randomized() {
                            assert!(!bank.is_uniform());
                        } else {
                            assert_eq!(bank.index_uniform(line), out[0]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lane_bank_reseed_matches_scalar_reseed() {
        // Reseeding one lane mid-campaign (what every batch does) must
        // leave the other lanes' mappings untouched and bit-identical to
        // the pure mapping.
        let geometry = l1();
        for kind in [PlacementKind::HashRandom, PlacementKind::RandomModulo] {
            let mut bank = PlacementLanes::new(kind, geometry, 4).unwrap();
            let mut references: Vec<Box<dyn PlacementPolicy>> = (0..4)
                .map(|lane| {
                    bank.reseed_lane(lane, lane as u64 + 7);
                    pure(kind, geometry, lane as u64 + 7)
                })
                .collect();
            let mut sm = SplitMix64::new(9);
            for round in 0..20 {
                let reseeded = round % 4;
                let seed = sm.next_u64();
                bank.reseed_lane(reseeded, seed);
                references[reseeded].reseed(seed);
                let mut out = [0u32; 4];
                // Wide lines mostly miss the memos; the narrow ones (eight
                // L1 segments) hit slots filled before the reseed, which
                // the reseed must have dropped.
                for step in 0..400 {
                    let mask = if step % 2 == 0 { 0xFF_FFFF } else { 0x3FF };
                    let line = LineAddr::new(sm.next_u64() & mask);
                    bank.index_lanes(line, &mut out);
                    for (lane, reference) in references.iter().enumerate() {
                        assert_eq!(out[lane], reference.set_index_of_line(line), "{kind}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "index_uniform called on a per-lane placement bank")]
    fn index_uniform_panics_on_randomized_banks() {
        let mut bank = PlacementLanes::new(PlacementKind::HashRandom, l1(), 2).unwrap();
        bank.index_uniform(LineAddr::new(0));
    }

    #[test]
    fn all_policies_map_within_bounds() {
        let geometry = l1();
        let mut sm = SplitMix64::new(1);
        for kind in PlacementKind::ALL {
            let mut policy = kind.build(geometry).unwrap();
            policy.reseed(9999);
            for _ in 0..2000 {
                let addr = Address::new(sm.next_u64() & 0xFFFF_FFFF);
                assert!(policy.set_index(addr) < geometry.sets());
            }
        }
    }
}

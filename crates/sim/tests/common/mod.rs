//! Shared trace-generation helpers for the equivalence suites
//! (`batch_equivalence`, `contention_equivalence`, `reference_model`).
//!
//! Keeping one strategy here means every oracle tests the *same* input
//! space: a bias fix (wider addresses, a new event kind, different run
//! lengths) lands in all suites at once instead of drifting per file.

// Each integration-test binary compiles this module independently and
// not all of them use every helper.
#![allow(dead_code)]

use proptest::prelude::*;
use randmod_core::{Address, PlacementKind, ReplacementKind, WritePolicy};
use randmod_sim::trace::MemEvent;
use randmod_sim::{PackedTrace, PlatformConfig};

/// Strategy: one trace event biased towards cache-stressing reads, with
/// addresses spread over a few hundred KB so all three levels see
/// traffic, plus a repeat count so traces contain genuine same-line read
/// runs (the batched engine's run-collapse fast path).
pub fn event_strategy() -> impl Strategy<Value = (MemEvent, usize)> {
    (0u64..8, 0u64..16_384, 1usize..6).prop_map(|(kind, slot, repeats)| {
        let addr = Address::new(0x1_0000 + slot * 32);
        let event = match kind {
            0..=2 => MemEvent::InstrFetch(addr),
            3..=5 => MemEvent::Load(addr),
            6 => MemEvent::Store(addr),
            _ => MemEvent::Compute((slot % 7 + 1) as u32),
        };
        (event, repeats)
    })
}

/// Expands `(event, repeats)` pairs into a trace; repeated reads of one
/// address are exactly the same-line runs the engine collapses.
pub fn expand(events: &[(MemEvent, usize)]) -> PackedTrace {
    events
        .iter()
        .flat_map(|&(event, repeats)| (0..repeats).map(move |_| event))
        .collect()
}

/// A platform on the LEON3 geometry with every policy knob set from the
/// strategy inputs.
pub fn platform(
    placement: PlacementKind,
    replacement: ReplacementKind,
    l1_write: WritePolicy,
) -> PlatformConfig {
    let mut config = PlatformConfig::leon3()
        .with_l1_placement(placement)
        .with_replacement(replacement);
    config.il1.write_policy = l1_write;
    config.dl1.write_policy = l1_write;
    config
}

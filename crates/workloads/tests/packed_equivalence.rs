//! Packed-replay equivalence: for every kernel of the suite, replaying the
//! 8-byte [`PackedTrace`] emission must produce campaigns cycle-identical
//! to replaying the same workload emitted one event at a time into a
//! `Vec<MemEvent>` — the property that lets every consumer use the packed
//! representation without touching recorded results.

use randmod_core::PlacementKind;
use randmod_sim::{Campaign, MemEvent, PackedTrace, PlatformConfig};
use randmod_workloads::{EembcBenchmark, EembcStress, MemoryLayout, SyntheticKernel, Workload};

fn campaign() -> Campaign {
    Campaign::new(
        PlatformConfig::leon3()
            .with_l1_placement(PlacementKind::RandomModulo)
            .with_l2_placement(PlacementKind::HashRandom),
        3,
    )
    .with_campaign_seed(0xEC)
    .with_threads(2)
}

/// The workload's emission collected per event (through the provided
/// `emit_run`) into a plain `Vec<MemEvent>`.
fn boxed_events(workload: &dyn Workload, layout: &MemoryLayout) -> Vec<MemEvent> {
    let mut events = Vec::new();
    workload.emit(layout, &mut events);
    events
}

fn assert_equivalent(workload: &dyn Workload) {
    let layout = MemoryLayout::default();
    let boxed = boxed_events(workload, &layout);
    let packed = workload.packed_trace(&layout);
    // The emissions decode to the same event stream...
    assert_eq!(
        packed.iter().collect::<Vec<_>>(),
        boxed,
        "{}: packed emission diverges from per-event emission",
        workload.name()
    );
    // ...and replaying them produces cycle-identical campaigns.
    let campaign = campaign();
    let from_boxed = campaign.run(&boxed[..]).expect("valid platform");
    let from_packed = campaign.run(&packed).expect("valid platform");
    assert_eq!(
        from_boxed,
        from_packed,
        "{}: packed replay is not cycle-identical to per-event replay",
        workload.name()
    );
}

#[test]
fn every_eembc_kernel_replays_identically_from_packed_traces() {
    for benchmark in EembcBenchmark::ALL {
        assert_equivalent(&benchmark);
    }
}

#[test]
fn synthetic_kernels_replay_identically_from_packed_traces() {
    for footprint in [8 * 1024, 20 * 1024, 160 * 1024] {
        assert_equivalent(&SyntheticKernel::with_traversals(footprint, 3));
    }
}

#[test]
fn stress_kernel_replays_identically_from_packed_traces() {
    assert_equivalent(&EembcStress::with_passes(64 * 1024, 20));
}

#[test]
fn packed_traces_halve_the_replay_memory() {
    let layout = MemoryLayout::default();
    let boxed = boxed_events(&EembcBenchmark::A2time, &layout);
    let packed = EembcBenchmark::A2time.packed_trace(&layout);
    let boxed_bytes = boxed.len() * std::mem::size_of::<MemEvent>();
    assert_eq!(
        packed.len() * 8,
        boxed_bytes / 2,
        "packed encoding should use exactly half the per-event bytes"
    );
    // And collecting the per-event emission packs to the same words.
    assert_eq!(boxed.into_iter().collect::<PackedTrace>(), packed);
}

//! Run-path emission equivalence: every workload's [`PackedTrace`], built
//! through the packed sink's strided-run fast path, must hold exactly the
//! words of the same workload emitted one event at a time — over the
//! default layout, every layout of the Figure 4(b) sweep and every
//! co-runner of the contention ladder.  Emission only: no campaign is
//! replayed, so the whole file stays fast in debug builds.

use randmod_core::{AccessKind, Address};
use randmod_sim::trace::{EventSink, SinkFn};
use randmod_sim::{MemEvent, PackedTrace};
use randmod_workloads::{
    CoSchedule, EembcBenchmark, EembcStress, KernelBuilder, LayoutSweep, MemoryLayout, Opponent,
    SyntheticKernel, Workload,
};

/// Events per comparison chunk of the streaming check.
const CHUNK: usize = 1 << 16;

/// Streams `workload`'s per-event emission (the provided
/// [`EventSink::emit_run`] of [`SinkFn`]) against its run-path
/// [`PackedTrace`], packing the reference a chunk at a time so even the
/// multi-MB synthetic kernels compare word for word in bounded memory.
fn assert_run_path_matches(workload: &dyn Workload, layout: &MemoryLayout) -> PackedTrace {
    let packed = workload.packed_trace(layout);
    let words = packed.words();
    let mut compared = 0usize;
    let mut chunk = Vec::with_capacity(CHUNK);
    let mut check = |chunk: &mut Vec<MemEvent>| {
        let reference: PackedTrace = chunk.drain(..).collect();
        let end = compared + reference.len();
        assert_eq!(
            words.get(compared..end),
            Some(reference.words()),
            "{} at {layout}: run-path words diverge in events {compared}..{end}",
            workload.name()
        );
        compared = end;
    };
    workload.emit(
        layout,
        &mut SinkFn(|event| {
            chunk.push(event);
            if chunk.len() == CHUNK {
                check(&mut chunk);
            }
        }),
    );
    check(&mut chunk);
    assert_eq!(
        compared,
        packed.len(),
        "{} at {layout}: the run path emitted extra events",
        workload.name()
    );
    packed
}

/// The `Vec<MemEvent>` collection (per event, through the provided
/// `emit_run`) packs to the run path's words, and the packed trace's
/// capacity is the one per-event pushes reach.
fn assert_matches_boxed(workload: &dyn Workload, layout: &MemoryLayout) {
    let packed = workload.packed_trace(layout);
    let mut boxed: Vec<MemEvent> = Vec::new();
    workload.emit(layout, &mut boxed);
    let mut pushed = PackedTrace::new();
    for event in boxed {
        pushed.push(event);
    }
    assert_eq!(
        packed.words(),
        pushed.words(),
        "{} at {layout}",
        workload.name()
    );
    assert_eq!(
        packed.heap_bytes(),
        pushed.heap_bytes(),
        "{} at {layout}: run-path capacity differs from per-event pushes",
        workload.name()
    );
}

#[test]
fn every_eembc_kernel_matches_per_event_emission_at_the_default_layout() {
    let layout = MemoryLayout::default();
    for benchmark in EembcBenchmark::ALL {
        assert_run_path_matches(&benchmark, &layout);
        assert_matches_boxed(&benchmark, &layout);
    }
}

#[test]
fn stress_and_synthetic_kernels_match_per_event_emission() {
    let layout = MemoryLayout::default();
    assert_run_path_matches(&EembcStress::l2_sized(), &layout);
    for kernel in SyntheticKernel::paper_variants()
        .into_iter()
        .chain(SyntheticKernel::large_variants())
    {
        assert_run_path_matches(&kernel, &layout);
    }
}

#[test]
fn every_pressure_ladder_opponent_matches_per_event_emission() {
    // Opponent slot `i` runs in its own region, 64MB x (i + 1) above the
    // victim's layout.
    let layout = MemoryLayout::default();
    for level in 0..CoSchedule::<EembcBenchmark>::PRESSURE_LEVELS {
        let schedule = CoSchedule::pressure_level(EembcBenchmark::Cacheb, level);
        for (index, opponent) in schedule.opponents().iter().enumerate() {
            let shift = (index as u64 + 1) * 64 * 1024 * 1024;
            let region = layout.with_offsets(shift, shift);
            let checked = match opponent {
                Opponent::Idle => PackedTrace::new(),
                Opponent::Stress(stress) => assert_run_path_matches(stress, &region),
                Opponent::Synthetic(kernel) => assert_run_path_matches(kernel, &region),
            };
            assert_eq!(opponent.packed_trace(&layout, index), checked, "{opponent}");
        }
    }
}

/// Every layout of the deterministic protocol's 128-layout sweep, shifted
/// by a line-aligned offset as a seeded sweep is.
fn assert_sweep_matches(shift: u64) {
    let sweep = LayoutSweep::new(128);
    for index in 0..sweep.len() {
        let layout = sweep.layout(index).with_offsets(shift, shift);
        for benchmark in EembcBenchmark::ALL {
            assert_run_path_matches(&benchmark, &layout);
        }
    }
}

#[test]
fn every_sweep_layout_matches_per_event_emission_at_a_five_line_shift() {
    assert_sweep_matches(5 * 32);
}

#[test]
fn every_sweep_layout_matches_per_event_emission_at_a_63_line_shift() {
    assert_sweep_matches(63 * 32);
}

#[test]
fn builder_len_counts_every_emitted_event() {
    let mut emitted = 0usize;
    let mut sink = SinkFn(|_| emitted += 1);
    let mut b = KernelBuilder::new(MemoryLayout::default(), 9, &mut sink);
    b.straight_code(0);
    b.straight_code(7);
    b.loop_with(5, 3, |b, i| {
        b.sequential_loads(0, i, 4);
        b.sequential_stores(512, 2, 0);
        b.table_lookups(1024, 2048, 3);
        b.pointer_chase(4096, 8, 64, 11);
        b.stack_frame(i, 4);
        b.compute(i as u32);
        b.loop_with(2, 2, |b, _| b.straight_code(1));
    });
    b.loop_with(4, 0, |b, _| b.straight_code(1));
    b.matrix_row_major(0, 3, 5);
    b.matrix_col_major_store(0, 3, 5);
    assert_eq!(b.len(), emitted);
    // 7 straight fetches; 3 iterations of 35 fixed events plus 0 + 1 + 2
    // loads and 2 non-empty computes; two 15-element matrix sweeps.
    assert_eq!(emitted, 7 + 3 * (5 + 2 + 3 + 11 + 8 + 6) + 3 + 2 + 30);
}

#[test]
fn builder_patterns_match_their_per_event_definitions() {
    // Each run-shaped pattern, written out event by event as the builder
    // defines it, against what the run path puts in a packed trace.
    let layout = MemoryLayout::default();
    let code = layout.code_base.raw();
    let data = layout.data_base.raw();
    let stack = layout.stack_base.raw();
    let mut packed = PackedTrace::new();
    let mut b = KernelBuilder::new(layout, 1, &mut packed);
    b.straight_code(3);
    b.loop_with(2, 2, |b, _| b.sequential_loads(64, 2, 32));
    b.sequential_stores(8, 3, 0);
    b.stack_frame(2, 2);
    b.matrix_row_major(0, 2, 3);
    b.matrix_col_major_store(0, 2, 3);
    let mut expected: Vec<MemEvent> = Vec::new();
    for i in 0..3 {
        expected.fetch(Address::new(code + i * 4));
    }
    for _ in 0..2 {
        for i in 3..5 {
            expected.fetch(Address::new(code + i * 4));
        }
        expected.load(Address::new(data + 64));
        expected.load(Address::new(data + 96));
    }
    for _ in 0..3 {
        expected.store(Address::new(data + 8));
    }
    for w in 0..2 {
        expected.store(Address::new(stack + 128 + w * 4));
    }
    for w in 0..2 {
        expected.load(Address::new(stack + 128 + w * 4));
    }
    for r in 0..2 {
        for c in 0..3 {
            expected.load(Address::new(data + (r * 3 + c) * 4));
        }
    }
    for c in 0..3 {
        for r in 0..2 {
            expected.store(Address::new(data + (r * 3 + c) * 4));
        }
    }
    assert_eq!(packed.iter().collect::<Vec<_>>(), expected);
}

#[test]
fn provided_run_and_packed_run_agree_through_dyn_sinks() {
    let run = |sink: &mut dyn EventSink| {
        sink.emit_run(
            AccessKind::InstructionFetch,
            Address::new(0x4000_0000),
            9,
            4,
        );
        sink.emit_run(AccessKind::Store, Address::new(0x4010_0010), 4, 32);
    };
    let mut packed = PackedTrace::new();
    run(&mut packed);
    let mut boxed: Vec<MemEvent> = Vec::new();
    run(&mut boxed);
    assert_eq!(packed.iter().collect::<Vec<_>>(), boxed);
    assert_eq!(packed, boxed.into_iter().collect::<PackedTrace>());
}

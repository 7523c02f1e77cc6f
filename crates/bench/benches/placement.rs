//! Microbenchmarks of the placement functions: how long it takes each
//! policy to map an address to a set (the operation on the cache-access
//! critical path that `randmod-hwcost` models in hardware).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use randmod_core::{Address, CacheGeometry, LineAddr, PlacementKind, PlacementLanes};
use std::hint::black_box;

fn placement_throughput(c: &mut Criterion) {
    let geometry = CacheGeometry::leon3_l1();
    let addresses: Vec<Address> = (0..4096u64).map(|i| Address::new(0x4000_0000 + i * 32)).collect();

    let mut group = c.benchmark_group("placement/set_index");
    group.throughput(Throughput::Elements(addresses.len() as u64));
    for kind in PlacementKind::ALL {
        let mut policy = kind.build(geometry).expect("valid geometry");
        policy.reseed(0xBEEF);
        group.bench_with_input(BenchmarkId::from_parameter(kind), &addresses, |b, addrs| {
            b.iter(|| {
                let mut acc = 0u32;
                for &addr in addrs {
                    acc = acc.wrapping_add(policy.set_index(black_box(addr)));
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn reseed_cost(c: &mut Criterion) {
    let geometry = CacheGeometry::leon3_l1();
    let mut group = c.benchmark_group("placement/reseed");
    for kind in [PlacementKind::HashRandom, PlacementKind::RandomModulo] {
        let mut policy = kind.build(geometry).expect("valid geometry");
        let mut seed = 0u64;
        group.bench_with_input(BenchmarkId::from_parameter(kind), &(), |b, _| {
            b.iter(|| {
                seed = seed.wrapping_add(1);
                policy.reseed(black_box(seed));
            })
        });
    }
    group.finish();
}

/// The shared-L2 access pattern of a contended campaign: co-runner tasks
/// interleave, so consecutive lines come from different cache segments.
/// Lines are drawn round-robin from 24 segments (three tasks of eight
/// segments each) of the L2 partition, with the index advancing by 7 sets
/// per round so every segment touches many sets.
fn contended_l2_lines(geometry: CacheGeometry) -> Vec<LineAddr> {
    const SEGMENTS: u64 = 24;
    let sets = geometry.sets() as u64;
    (0..SEGMENTS * 256)
        .map(|step| {
            let slot = step % SEGMENTS;
            let (task, segment) = (slot / 8, slot % 8);
            let index = (step / SEGMENTS * 7) % sets;
            let addr = 0x4000_0000
                + task * 0x1000_0000
                + segment * geometry.way_size_bytes()
                + index * geometry.line_size() as u64;
            geometry.line_addr(Address::new(addr))
        })
        .collect()
}

fn contended_rm_stream(c: &mut Criterion) {
    let geometry = CacheGeometry::leon3_l2_partition();
    let lines = contended_l2_lines(geometry);
    // One lane: the placement stage of the contended engine's one-lane
    // shared-L2 bank.
    let mut placement =
        PlacementLanes::new(PlacementKind::RandomModulo, geometry, 1).expect("valid geometry");
    let mut pure = PlacementKind::RandomModulo.build(geometry).expect("valid geometry");
    // Gate: the memoized path the cache bank takes must equal the pure
    // network walk before its speed means anything.
    for seed in [0xBEEF_u64, 0xBEF0] {
        placement.reseed_lane(0, seed);
        pure.reseed(seed);
        for &line in &lines {
            assert_eq!(
                placement.index_lane(0, line),
                pure.set_index_of_line(line),
                "RM memo diverged from the network walk for {line} under seed {seed:#x}"
            );
        }
    }

    let mut group = c.benchmark_group("placement/contended_l2");
    group.throughput(Throughput::Elements(lines.len() as u64));
    let mut seed = 0u64;
    group.bench_with_input(
        BenchmarkId::from_parameter(PlacementKind::RandomModulo),
        &lines,
        |b, lines| {
            b.iter(|| {
                seed = seed.wrapping_add(1);
                placement.reseed_lane(0, seed);
                let mut acc = 0u32;
                for &line in lines {
                    acc = acc.wrapping_add(placement.index_lane(0, black_box(line)));
                }
                black_box(acc)
            })
        },
    );
    group.finish();
}

criterion_group!(benches, placement_throughput, reseed_cost, contended_rm_stream);
criterion_main!(benches);

//! Ablations of the design choices DESIGN.md calls out:
//!
//! * swizzle fast path — invoking through a handle that resolves to a live
//!   slot vs one that still needs a fault;
//! * handle-table resolution — the cost of the slot lookup that replaces
//!   Java's direct references;
//! * proxy GC — mark-and-sweep over spaces of various sizes;
//! * class-registry decode — materializing a replica from wire state.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use obiwan_bench::workload::payload_list;
use obiwan_core::demo::PayloadNode;
use obiwan_core::{ClassRegistry, ObiValue, ObiWorld, ObjRef, ReplicationMode};

fn bench_swizzle_fast_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("swizzle");
    group.sample_size(20);

    // Post-swizzle: handle resolves straight to the replica slot.
    let w = payload_list(2, 64);
    let root = w
        .world
        .site(w.consumer)
        .get(&w.head, ReplicationMode::transitive())
        .unwrap();
    group.bench_function("direct_after_swizzle", |b| {
        b.iter(|| {
            w.world
                .site(w.consumer)
                .invoke(root, "touch", ObiValue::Null)
                .unwrap()
        })
    });

    // Pre-swizzle: every iteration pays a fault (fresh world each time).
    group.bench_function("fault_then_invoke", |b| {
        b.iter_batched(
            || {
                let w = payload_list(2, 64);
                w.world
                    .site(w.consumer)
                    .get(&w.head, ReplicationMode::incremental(1))
                    .unwrap();
                w
            },
            |w| {
                w.world
                    .site(w.consumer)
                    .invoke(ObjRef::new(w.nodes[1].id()), "touch", ObiValue::Null)
                    .unwrap()
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

fn bench_gc(c: &mut Criterion) {
    let mut group = c.benchmark_group("gc_mark_sweep");
    group.sample_size(10);
    for n in [100usize, 1000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter_batched(
                || {
                    // A consumer holding n replicas plus the frontier proxy.
                    let w = payload_list(n, 64);
                    let root = w
                        .world
                        .site(w.consumer)
                        .get(&w.head, ReplicationMode::transitive())
                        .unwrap();
                    w.world.site(w.consumer).add_root(root);
                    w
                },
                |w| w.world.site(w.consumer).collect_garbage(false),
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

fn bench_registry_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("registry_decode");
    let registry = ClassRegistry::new();
    PayloadNode::register(&registry);
    for size in [64usize, 4096] {
        let state = obiwan_core::object::encode_state(&PayloadNode::sized(1, size));
        group.bench_with_input(BenchmarkId::from_parameter(size), &state, |b, state| {
            b.iter(|| registry.decode("PayloadNode", state).unwrap())
        });
    }
    group.finish();
}

fn bench_handle_resolution(c: &mut Criterion) {
    // Pure resolution cost across space sizes: the price of the handle
    // indirection that replaces direct Java references.
    let mut group = c.benchmark_group("handle_resolution");
    for n in [10usize, 10_000] {
        let mut world = ObiWorld::loopback();
        let site = world.add_site("S");
        let mut last = None;
        for i in 0..n {
            last = Some(world.site(site).create(PayloadNode::sized(i as i64, 16)));
        }
        let target = last.unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| world.site(site).resolution(target))
        });
    }
    group.finish();
}

fn bench_prefetch_vs_on_demand(c: &mut Criterion) {
    // The paper's §2.1 footnote: prefetching hides fault latency. Compare
    // a walk that faults on demand against prefetch-then-walk.
    let mut group = c.benchmark_group("prefetch_100");
    group.sample_size(10);
    group.bench_function("on_demand", |b| {
        b.iter_batched(
            || payload_list(100, 64),
            |w| {
                let site = w.world.site(w.consumer);
                let mut cur = site.get(&w.head, ReplicationMode::incremental(1)).unwrap();
                loop {
                    let out = site.invoke(cur, "touch", ObiValue::Null).unwrap();
                    match out.as_ref_id() {
                        Some(id) => cur = id.into(),
                        None => break,
                    }
                }
            },
            BatchSize::PerIteration,
        )
    });
    group.bench_function("prefetch_then_walk", |b| {
        b.iter_batched(
            || payload_list(100, 64),
            |w| {
                let site = w.world.site(w.consumer);
                let root = site.get(&w.head, ReplicationMode::incremental(1)).unwrap();
                site.prefetch(root, 100).unwrap();
                let mut cur = root;
                loop {
                    let out = site.invoke(cur, "touch", ObiValue::Null).unwrap();
                    match out.as_ref_id() {
                        Some(id) => cur = id.into(),
                        None => break,
                    }
                }
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

fn bench_budget_eviction(c: &mut Criterion) {
    // Cost of walking under memory pressure: every batch triggers an
    // eviction sweep (the info-appliance configuration).
    let mut group = c.benchmark_group("budget_walk_100x1k");
    group.sample_size(10);
    for budget in [None, Some(8 * 1024usize)] {
        let label = match budget {
            None => "unbounded",
            Some(_) => "8KiB_budget",
        };
        group.bench_function(label, |b| {
            b.iter_batched(
                || {
                    let w = payload_list(100, 1024);
                    w.world.site(w.consumer).set_replica_budget(budget);
                    w
                },
                |w| {
                    let site = w.world.site(w.consumer);
                    let mut cur = site.get(&w.head, ReplicationMode::incremental(5)).unwrap();
                    loop {
                        let out = site.invoke(cur, "touch", ObiValue::Null).unwrap();
                        match out.as_ref_id() {
                            Some(id) => cur = id.into(),
                            None => break,
                        }
                    }
                },
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_swizzle_fast_path,
    bench_gc,
    bench_registry_decode,
    bench_handle_resolution,
    bench_prefetch_vs_on_demand,
    bench_budget_eviction
);
criterion_main!(benches);

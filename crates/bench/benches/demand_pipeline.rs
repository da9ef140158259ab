//! The batched demand pipeline versus demand-by-demand faulting.
//!
//! Measures the real-CPU cost of replicating a 64-object list, and — in
//! both bench and `--test` mode — asserts the headline property of the
//! pipeline: walking the list after `prefetch_batched(batch = 8)` costs at
//! least 4× fewer network round-trips than faulting every node on demand,
//! and a wide fan-out demands all of its frontier in one multi-target demand.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use obiwan_bench::workload::payload_list;
use obiwan_bench::ListWorkload;
use obiwan_core::demo::LinkedItem;
use obiwan_core::{ObiValue, ObiWorld, ObjRef, ReplicationMode};

const LIST: usize = 64;
const SIZE: usize = 64;
const BATCH: usize = 8;

fn walk_all(w: &ListWorkload, root: ObjRef) {
    let site = w.world.site(w.consumer);
    let mut cur = root;
    loop {
        let out = site.invoke(cur, "touch", ObiValue::Null).unwrap();
        match out.as_ref_id() {
            Some(id) => cur = id.into(),
            None => break,
        }
    }
}

/// Round-trips spent replicating and walking the whole list on demand.
fn round_trips_demand(w: &ListWorkload) -> u64 {
    let site = w.world.site(w.consumer);
    let before = site.metrics().snapshot();
    let root = site
        .get(&w.head, ReplicationMode::incremental(1))
        .unwrap();
    walk_all(w, root);
    site.metrics().snapshot().since(&before).demand_round_trips
}

/// Round-trips spent with the batched pipeline: one demand for the head,
/// then `prefetch_batched` pulling `BATCH` objects per demand.
fn round_trips_batched(w: &ListWorkload) -> u64 {
    let site = w.world.site(w.consumer);
    let before = site.metrics().snapshot();
    let root = site
        .get(&w.head, ReplicationMode::incremental(1))
        .unwrap();
    site.prefetch_batched(root, LIST, BATCH).unwrap();
    walk_all(w, root);
    site.metrics().snapshot().since(&before).demand_round_trips
}

fn assert_round_trip_reduction() {
    let demand = round_trips_demand(&payload_list(LIST, SIZE));
    let batched = round_trips_batched(&payload_list(LIST, SIZE));
    assert!(demand >= LIST as u64, "demand walk took {demand} RTs");
    assert!(
        batched * 4 <= demand,
        "batched pipeline took {batched} RTs vs {demand} on demand — \
         less than the required 4x reduction"
    );
}

/// A root with `fan` children on the provider: the whole frontier must be
/// demanded in ONE multi-target round-trip instead of `fan`.
fn assert_wide_fanout_is_one_round_trip() {
    let fan = 8usize;
    let mut world = ObiWorld::paper_testbed();
    let consumer = world.add_site("S1");
    let provider = world.add_site("S2");
    let children: Vec<ObjRef> = (0..fan)
        .map(|i| world.site(provider).create(LinkedItem::new(i as i64, "c")))
        .collect();
    let root = {
        let mut item = LinkedItem::new(0, "root");
        item.set_extra(children);
        world.site(provider).create(item)
    };
    world.site(provider).export(root, "root").unwrap();
    let remote = world.site(consumer).lookup("root").unwrap();
    let root = world
        .site(consumer)
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();
    let before = world.site(consumer).metrics().snapshot();
    let fetched = world
        .site(consumer)
        .prefetch_batched(root, fan, fan)
        .unwrap();
    let spent = world
        .site(consumer)
        .metrics()
        .snapshot()
        .since(&before)
        .demand_round_trips;
    assert_eq!(fetched, fan, "prefetch fetched {fetched} of {fan}");
    assert_eq!(spent, 1, "{fan}-wide frontier took {spent} round-trips");
}

fn bench_demand_pipeline(c: &mut Criterion) {
    // The correctness/efficiency contract holds in --test mode too.
    assert_round_trip_reduction();
    assert_wide_fanout_is_one_round_trip();

    let mut group = c.benchmark_group("demand_pipeline_64");
    group.sample_size(10);
    group.bench_function("demand_by_demand", |b| {
        b.iter_batched(
            || payload_list(LIST, SIZE),
            |w| round_trips_demand(&w),
            BatchSize::PerIteration,
        )
    });
    group.bench_function("batched_8", |b| {
        b.iter_batched(
            || payload_list(LIST, SIZE),
            |w| round_trips_batched(&w),
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_demand_pipeline);
criterion_main!(benches);

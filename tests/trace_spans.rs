//! End-to-end span-tracing: a demand over a real object graph must
//! decompose into the named hot-path spans, with site/object context and
//! correct nesting, and the JSON export must carry all of it.
//!
//! The root package enables `obiwan-util/trace` for tests (see
//! `[dev-dependencies]` in `Cargo.toml`), so the ring buffer is live here.
//! The ring is process-global: every test serializes on [`SERIAL`] and
//! clears it before tracing.

use obiwan::core::demo::PayloadNode;
use obiwan::core::{ObiValue, ObiWorld, ObjRef, ReplicationMode};
use obiwan::util::trace;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

const NODES: usize = 100;

struct Rig {
    world: ObiWorld,
    consumer: obiwan::util::SiteId,
    head: obiwan::rmi::RemoteRef,
}

/// A 100-object linked list exported from a provider site, with the trace
/// ring cleared after setup so only measured work is recorded.
fn rig() -> Rig {
    let mut world = ObiWorld::paper_testbed();
    let consumer = world.add_site("S1");
    let provider = world.add_site("S2");
    let mut next: Option<ObjRef> = None;
    for i in (0..NODES).rev() {
        let mut node = PayloadNode::sized(i as i64, 64);
        node.set_next(next);
        next = Some(world.site(provider).create(node));
    }
    world
        .site(provider)
        .export(next.expect("head"), "list")
        .expect("export");
    let head = world.site(consumer).lookup("list").expect("lookup");
    trace::clear();
    Rig {
        world,
        consumer,
        head,
    }
}

#[test]
fn demand_of_a_100_object_graph_decomposes_into_named_spans() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let r = rig();
    let site = r.world.site(r.consumer);
    let root = site
        .get(&r.head, ReplicationMode::incremental(10))
        .expect("get");
    let mut cur = root;
    loop {
        let out = site.invoke(cur, "touch", ObiValue::Null).expect("touch");
        match out.as_ref_id() {
            Some(id) => cur = id.into(),
            None => break,
        }
    }

    let events = trace::events();
    assert!(!events.is_empty(), "trace feature must be live under test");
    let mut names: Vec<&str> = events.iter().map(|e| e.name).collect();
    names.sort_unstable();
    names.dedup();
    // The demand path decomposes into at least the caller-side invocation,
    // the fault resolution, and the network round trip.
    for expect in ["obi.invoke", "obi.fault", "rpc.round_trip", "net.call"] {
        assert!(names.contains(&expect), "missing span `{expect}` in {names:?}");
    }
    assert!(names.len() >= 3, "expected >= 3 named spans, got {names:?}");

    // Spans carry their site and object context.
    let fault = events
        .iter()
        .find(|e| e.name == "obi.fault")
        .expect("a fault span");
    assert_eq!(fault.site, Some(r.consumer));
    assert!(fault.obj.is_some(), "fault spans name the faulted object");

    // Nesting: the fault happens inside the invocation, and its network
    // round trip deeper still. (The very first round trip in the ring
    // belongs to the initial `get`, which runs outside any invocation, so
    // look for *a* round trip below the fault rather than the first one.)
    let invoke = events.iter().find(|e| e.name == "obi.invoke").unwrap();
    assert!(fault.depth > invoke.depth);
    assert!(
        events
            .iter()
            .any(|e| e.name == "rpc.round_trip" && e.depth > fault.depth),
        "a round trip must nest inside the fault"
    );
    assert!(invoke.start_nanos <= fault.start_nanos);
}

#[test]
fn trace_export_json_carries_the_demand_spans() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let r = rig();
    let site = r.world.site(r.consumer);
    let root = site
        .get(&r.head, ReplicationMode::incremental(10))
        .expect("get");
    // Walk past the first batch so an object fault is traced too (a bare
    // `get` demands without faulting).
    let mut cur = root;
    for _ in 0..11 {
        let out = site.invoke(cur, "touch", ObiValue::Null).expect("touch");
        match out.as_ref_id() {
            Some(id) => cur = id.into(),
            None => break,
        }
    }
    let json = trace::export_json();
    for expect in ["obi.fault", "rpc.round_trip", "net.call", "\"dropped\""] {
        assert!(json.contains(expect), "missing {expect} in export");
    }
    // Object context is exported in display form ("S<site>/<local>").
    assert!(json.contains("\"obj\""), "export carries object ids");
    // The per-site index lists the consumer's span positions, so a viewer
    // can pull one site's timeline without scanning the whole ring.
    let key = format!("\"{}\":[", r.consumer.as_u32());
    assert!(
        json.contains("\"site_index\":{") && json.contains(&key),
        "site_index must index the consumer's spans"
    );
}

#[test]
fn streamed_demand_emits_per_chunk_spans_inside_the_round_trip() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let r = rig();
    let site = r.world.site(r.consumer);
    let root = site
        .get(&r.head, ReplicationMode::incremental(10))
        .expect("get");
    let mut cur = root;
    loop {
        let out = site.invoke(cur, "touch", ObiValue::Null).expect("touch");
        match out.as_ref_id() {
            Some(id) => cur = id.into(),
            None => break,
        }
    }

    let events = trace::events();
    let chunks: Vec<_> = events.iter().filter(|e| e.name == "rpc.chunk").collect();
    let pumps: Vec<_> = events
        .iter()
        .filter(|e| e.name == "obi.pump_chunk")
        .collect();
    // The initial get arrives whole, as one chunk. Step 10 exceeds the
    // 8-object chunk size, so each of the nine walk faults streams its
    // batch as two chunks (8 + 2).
    assert_eq!(chunks.len(), 1 + 18, "two rpc.chunk spans per streamed fault");
    // Chunk spans carry their stream position...
    assert!(chunks.iter().any(|c| c.value == 0));
    assert!(chunks.iter().any(|c| c.value == 1));
    // ...and nest inside their round trip. The get's one chunk sits right
    // under its top-level round trip; every fault span sits at depth 1
    // under its invoke, its round trip at depth 2, and the fault's chunk
    // deliveries deeper still.
    let (get_chunks, fault_chunks): (Vec<&trace::SpanEvent>, Vec<_>) =
        chunks.iter().partition(|c| c.depth == 1);
    assert_eq!(get_chunks.len(), 1, "the get's chunk nests in its round trip");
    assert_eq!(fault_chunks.len(), 18);
    for f in events.iter().filter(|e| e.name == "obi.fault") {
        for c in &fault_chunks {
            assert!(
                c.depth > f.depth + 1,
                "rpc.chunk (depth {}) must nest below the round trip inside \
                 the fault (depth {})",
                c.depth,
                f.depth
            );
        }
    }
    // Each fault's tail chunk parks and is pumped at the head of a later
    // public operation, outside any invoke's latency window: nine root-level
    // obi.pump_chunk spans, each naming its chunk index and root object.
    assert_eq!(pumps.len(), 9, "one pumped tail chunk per streamed fault");
    for p in &pumps {
        assert_eq!(p.value, 1, "the parked chunk is stream position 1");
        assert_eq!(p.depth, 0, "pumps run outside the invoke span");
        assert!(p.obj.is_some(), "pump spans name the batch root");
        assert_eq!(p.site, Some(r.consumer));
    }
}

#[test]
fn batched_demand_emits_one_round_trip_per_batch() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let r = rig();
    let site = r.world.site(r.consumer);
    let root = site
        .get(&r.head, ReplicationMode::incremental(10))
        .expect("get");
    let mut cur = root;
    loop {
        let out = site.invoke(cur, "touch", ObiValue::Null).expect("touch");
        match out.as_ref_id() {
            Some(id) => cur = id.into(),
            None => break,
        }
    }
    let events = trace::events();
    let round_trips = events.iter().filter(|e| e.name == "rpc.round_trip").count();
    let faults = events.iter().filter(|e| e.name == "obi.fault").count();
    // Batching: one network exchange per fault batch, plus one for the
    // initial `get` (which demands without an `obi.fault` span). 100
    // objects at step 10 means nine faults after the get materializes the
    // first batch.
    assert_eq!(round_trips, faults + 1, "one exchange per batch + the get");
    assert!(
        (9..=10).contains(&faults),
        "100 objects at step 10 should fault ~9 times, got {faults}"
    );
}

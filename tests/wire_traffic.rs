//! Message-economy assertions: exactly the frames the protocol needs cross
//! the wire, no more — verified through the transport trace.

use obiwan::core::demo::PayloadNode;
use obiwan::core::{ObiValue, ObiWorld, ObjRef, ReplicationMode};
use obiwan::util::SiteId;

fn list_world(n: usize, size: usize) -> (ObiWorld, SiteId, SiteId, Vec<ObjRef>) {
    let mut world = ObiWorld::loopback();
    let s1 = world.add_site("S1");
    let s2 = world.add_site("S2");
    let mut refs = Vec::new();
    let mut next = None;
    for i in (0..n).rev() {
        let mut node = PayloadNode::sized(i as i64, size);
        node.set_next(next);
        let r = world.site(s2).create(node);
        next = Some(r);
        refs.push(r);
    }
    refs.reverse();
    world.site(s2).export(refs[0], "list").unwrap();
    (world, s1, s2, refs)
}

fn walk(world: &ObiWorld, site: SiteId, mut cur: ObjRef) {
    loop {
        let out = world.site(site).invoke(cur, "touch", ObiValue::Null).unwrap();
        match out.as_ref_id() {
            Some(id) => cur = id.into(),
            None => break,
        }
    }
}

#[test]
fn incremental_walk_sends_exactly_one_get_per_batch() {
    let (world, s1, s2, refs) = list_world(20, 64);
    let remote = world.site(s1).lookup("list").unwrap();
    world.transport().trace().set_enabled(true);

    let root = world
        .site(s1)
        .get(&remote, ReplicationMode::incremental(5))
        .unwrap();
    walk(&world, s1, root);

    let summary = world.transport().trace().summary();
    // 20 objects in steps of 5: 1 initial get + 3 faults = 4 request
    // frames S1→S2 and 4 reply frames S2→S1. Nothing else crossed.
    assert_eq!(summary.pair(s1, s2).delivered, 4);
    assert_eq!(summary.pair(s2, s1).delivered, 4);
    assert_eq!(summary.total_delivered(), 8);
    let _ = refs;
}

#[test]
fn streamed_fault_costs_one_reply_frame_per_chunk() {
    let (world, s1, s2, _refs) = list_world(32, 64);
    let remote = world.site(s1).lookup("list").unwrap();
    world.transport().trace().set_enabled(true);

    let root = world
        .site(s1)
        .get(&remote, ReplicationMode::incremental(16))
        .unwrap();
    walk(&world, s1, root);

    let summary = world.transport().trace().summary();
    // 32 objects in steps of 16: 1 whole get (its batch is the reply
    // frame) + 1 fault streaming 16 objects as two 8-object chunks, the
    // second of which is the reply frame. No terminal frame follows the
    // chunks: 2 requests, 1 + 2 replies.
    assert_eq!(summary.pair(s1, s2).delivered, 2);
    assert_eq!(summary.pair(s2, s1).delivered, 1 + 2);
    assert_eq!(summary.total_delivered(), 5);
}

#[test]
fn local_invocations_are_wire_silent() {
    let (world, s1, _s2, _refs) = list_world(5, 64);
    let remote = world.site(s1).lookup("list").unwrap();
    let root = world
        .site(s1)
        .get(&remote, ReplicationMode::transitive())
        .unwrap();
    world.transport().trace().set_enabled(true);
    for _ in 0..100 {
        world.site(s1).invoke(root, "touch", ObiValue::Null).unwrap();
    }
    assert_eq!(world.transport().trace().summary().total_delivered(), 0);
}

#[test]
fn replica_bytes_scale_with_payload_size() {
    // The bytes on the wire for a transitive get scale with the payload,
    // confirming the serialization path carries real state.
    let measure = |size: usize| {
        let (world, s1, s2, _refs) = list_world(10, size);
        let remote = world.site(s1).lookup("list").unwrap();
        world.transport().trace().set_enabled(true);
        world
            .site(s1)
            .get(&remote, ReplicationMode::transitive())
            .unwrap();
        world.transport().trace().summary().pair(s2, s1).bytes
    };
    let small = measure(64);
    let large = measure(4096);
    assert!(large > small + 10 * 3500, "small={small} large={large}");
}

#[test]
fn put_costs_one_round_trip() {
    let (world, s1, s2, _refs) = list_world(1, 64);
    let remote = world.site(s1).lookup("list").unwrap();
    let root = world
        .site(s1)
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();
    world.site(s1).invoke(root, "set_index", ObiValue::I64(5)).unwrap();
    world.transport().trace().set_enabled(true);
    world.site(s1).put(root).unwrap();
    let summary = world.transport().trace().summary();
    assert_eq!(summary.pair(s1, s2).delivered, 1);
    assert_eq!(summary.pair(s2, s1).delivered, 1);
}

#[test]
fn invalidations_are_single_one_way_frames() {
    let (world, s1, s2, refs) = list_world(1, 64);
    let remote = world.site(s1).lookup("list").unwrap();
    let root = world
        .site(s1)
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();
    world.site(s1).subscribe(root, false).unwrap();
    world.transport().trace().set_enabled(true);
    // One master mutation = one invocation (local at S2) + one invalidate
    // frame S2→S1, with no reply leg.
    world
        .site(s2)
        .invoke(refs[0], "set_index", ObiValue::I64(9))
        .unwrap();
    world.pump();
    let summary = world.transport().trace().summary();
    assert_eq!(summary.pair(s2, s1).delivered, 1);
    assert_eq!(summary.pair(s1, s2).delivered, 0);
}

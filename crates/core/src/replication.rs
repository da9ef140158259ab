//! Provider-side replication: building replica batches (paper §2.2, §4.3).

use crate::object::{encode_state, ObiObject};
use crate::objref::ObjRef;
use crate::space::{ObjectMeta, Resolution, SpaceView};
use obiwan_util::{ClusterId, ObiError, ObjId, Result};
use obiwan_wire::{FrontierEdge, ReplicaBatch, ReplicaState, WireMode};
use std::collections::{HashSet, VecDeque};

/// The application-facing replication mode (the `mode` argument of
/// `IProvideRemote::get(mode)`).
///
/// # Examples
///
/// ```
/// use obiwan_core::ReplicationMode;
///
/// let m = ReplicationMode::incremental(10);
/// assert_eq!(m.objects_per_step(), Some(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicationMode {
    /// Replicate `batch` objects per step; every object gets its own
    /// proxy-in/proxy-out pair and can be individually updated.
    Incremental {
        /// Objects per step (≥ 1; clamped on construction).
        batch: usize,
    },
    /// Replicate clusters of `size` objects per step; one proxy pair per
    /// cluster, members cannot be individually updated.
    Cluster {
        /// Objects per cluster (≥ 1; clamped on construction).
        size: usize,
    },
    /// Replicate the whole reachability graph in one step.
    TransitiveClosure,
}

impl ReplicationMode {
    /// Incremental replication of `batch` objects per fault.
    pub fn incremental(batch: usize) -> Self {
        ReplicationMode::Incremental { batch: batch.max(1) }
    }

    /// Cluster replication of `size`-object clusters.
    pub fn cluster(size: usize) -> Self {
        ReplicationMode::Cluster { size: size.max(1) }
    }

    /// Whole-graph replication.
    pub fn transitive() -> Self {
        ReplicationMode::TransitiveClosure
    }

    /// Objects materialized per step, or `None` for the whole graph.
    pub fn objects_per_step(&self) -> Option<usize> {
        match self {
            ReplicationMode::Incremental { batch } => Some(*batch),
            ReplicationMode::Cluster { size } => Some(*size),
            ReplicationMode::TransitiveClosure => None,
        }
    }

    /// True for cluster mode (single proxy pair per step).
    pub fn is_cluster(&self) -> bool {
        matches!(self, ReplicationMode::Cluster { .. })
    }

    /// Wire representation.
    pub fn to_wire(self) -> WireMode {
        match self {
            ReplicationMode::Incremental { batch } => WireMode::Incremental {
                batch: batch.min(u32::MAX as usize) as u32,
            },
            ReplicationMode::Cluster { size } => WireMode::Cluster {
                size: size.min(u32::MAX as usize) as u32,
            },
            ReplicationMode::TransitiveClosure => WireMode::Transitive,
        }
    }

    /// From the wire representation (clamping zero to one).
    pub fn from_wire(mode: WireMode) -> Self {
        match mode {
            WireMode::Incremental { batch } => ReplicationMode::incremental(batch as usize),
            WireMode::Cluster { size } => ReplicationMode::cluster(size as usize),
            WireMode::Transitive => ReplicationMode::TransitiveClosure,
        }
    }
}

impl Default for ReplicationMode {
    fn default() -> Self {
        ReplicationMode::incremental(1)
    }
}

/// Builds the replica batch answering a `get(mode)` demand against a
/// provider's object space: one merged batch rooted at every live object in
/// `targets` (a single `get` is one target).
///
/// The traversal is a multi-source BFS seeded with all live targets, so the
/// roots are materialized first (in request order) before any of their
/// referents. The step limit scales with the number of live roots: a demand
/// of N targets in `Incremental { batch }` mode yields up to `N × batch`
/// objects, exactly what N separate `get`s would have, in one round-trip.
/// Targets this site cannot provide (proxies, absent ids) are silently
/// skipped; the reply's `root` is the first live target. Frontier edges
/// (references leaving the batch) are reported so the requester can create
/// proxy-outs; in cluster mode the caller supplies a fresh [`ClusterId`]
/// via `next_cluster` and all frontier proxies will share one pair.
///
/// # Errors
///
/// [`ObiError::NoSuchObject`] when *no* target is a live object here (the
/// id reported is the first target, or a nil id for an empty request).
pub fn build_batch_many<S: SpaceView>(
    space: &S,
    targets: &[ObjId],
    mode: WireMode,
    next_cluster: impl FnOnce() -> ClusterId,
) -> Result<ReplicaBatch> {
    let mut included_set: HashSet<ObjId> = HashSet::new();
    let live: Vec<ObjId> = targets
        .iter()
        .copied()
        .filter(|&t| {
            matches!(space.resolve(t), Resolution::Object(_)) && included_set.insert(t)
        })
        .collect();
    let Some(&root) = live.first() else {
        let blamed = targets
            .first()
            .copied()
            .unwrap_or_else(|| ObjId::new(space.site(), 0));
        return Err(ObiError::NoSuchObject(blamed));
    };
    let mode = ReplicationMode::from_wire(mode);
    let limit = mode
        .objects_per_step()
        .map_or(usize::MAX, |step| step.saturating_mul(live.len()));

    // BFS over objects this site can actually provide. Each one is read
    // exactly once: its out-edges and its replica state come from the same
    // visit, so it cannot change (or turn busy) between the two.
    let mut replicas: Vec<ReplicaState> = Vec::new();
    let mut edges: Vec<ObjRef> = Vec::new();
    let mut queue: VecDeque<ObjId> = live.into_iter().collect();
    while replicas.len() < limit {
        let Some(id) = queue.pop_front() else { break };
        let (state, refs) = space.with_object(id, |o, m| (replica_state(id, o, m), o.refs()))?;
        replicas.push(state);
        if replicas.len() < limit {
            for r in &refs {
                let target = r.id();
                if !included_set.contains(&target)
                    && matches!(space.resolve(target), Resolution::Object(_))
                {
                    included_set.insert(target);
                    queue.push_back(target);
                }
            }
        }
        edges.extend(refs);
    }

    // Remaining queue entries were admitted but not materialized; they are
    // frontier, together with edges out of materialized objects.
    for id in &queue {
        included_set.remove(id);
    }
    let materialized = included_set;
    let mut frontier: Vec<FrontierEdge> = Vec::new();
    let mut frontier_seen: HashSet<ObjId> = HashSet::new();
    for target in edges.iter().map(|r| r.id()) {
        if materialized.contains(&target) || !frontier_seen.insert(target) {
            continue;
        }
        let class = match space.resolve(target) {
            Resolution::Object(_) | Resolution::Busy => space
                .with_object(target, |o, _| o.class_name().to_owned())
                .unwrap_or_default(),
            Resolution::Proxy(p) => p.class,
            Resolution::Absent => continue, // dangling reference: skip
        };
        frontier.push(FrontierEdge { target, class });
    }

    let cluster = if mode.is_cluster() {
        Some(next_cluster())
    } else {
        None
    };

    Ok(ReplicaBatch {
        root,
        replicas,
        frontier,
        cluster,
    })
}

/// The wire form of one live object: its identity, class, version and
/// serialized state — what batches, update pushes, puts and the WAL carry.
pub(crate) fn replica_state(id: ObjId, object: &dyn ObiObject, meta: &ObjectMeta) -> ReplicaState {
    ReplicaState {
        id,
        class: object.class_name().to_owned(),
        version: meta.version,
        state: encode_state(object),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::LinkedItem;
    use crate::objref::ObjRef;
    use crate::space::ObjectSpace;
    use obiwan_util::SiteId;

    fn list_space(n: usize) -> (ObjectSpace, Vec<ObjRef>) {
        let mut space = ObjectSpace::new(SiteId::new(2));
        let mut refs: Vec<ObjRef> = Vec::new();
        let mut next: Option<ObjRef> = None;
        for i in (0..n).rev() {
            let mut item = LinkedItem::new(i as i64, format!("n{i}"));
            if let Some(nx) = next {
                item.set_next(Some(nx));
            }
            let r = space.create(Box::new(item));
            next = Some(r);
            refs.push(r);
        }
        refs.reverse();
        (space, refs)
    }

    fn cid() -> ClusterId {
        ClusterId::new(SiteId::new(2), 1)
    }

    #[test]
    fn incremental_batch_takes_exactly_n_with_one_frontier_edge() {
        let (space, refs) = list_space(10);
        let batch = build_batch_many(
            &space,
            &[refs[0].id()],
            WireMode::Incremental { batch: 3 },
            cid,
        )
        .unwrap();
        assert_eq!(batch.replicas.len(), 3);
        assert_eq!(batch.root, refs[0].id());
        assert_eq!(batch.replicas[0].id, refs[0].id());
        assert_eq!(batch.frontier.len(), 1);
        assert_eq!(batch.frontier[0].target, refs[3].id());
        assert_eq!(batch.frontier[0].class, "LinkedItem");
        assert_eq!(batch.cluster, None);
    }

    #[test]
    fn batch_larger_than_graph_has_empty_frontier() {
        let (space, refs) = list_space(4);
        let batch = build_batch_many(
            &space,
            &[refs[0].id()],
            WireMode::Incremental { batch: 100 },
            cid,
        )
        .unwrap();
        assert_eq!(batch.replicas.len(), 4);
        assert!(batch.frontier.is_empty());
    }

    #[test]
    fn transitive_takes_everything() {
        let (space, refs) = list_space(50);
        let batch = build_batch_many(&space, &[refs[0].id()], WireMode::Transitive, cid).unwrap();
        assert_eq!(batch.replicas.len(), 50);
        assert!(batch.frontier.is_empty());
    }

    #[test]
    fn cluster_mode_stamps_cluster_id() {
        let (space, refs) = list_space(10);
        let batch = build_batch_many(&space, &[refs[0].id()], WireMode::Cluster { size: 4 }, cid).unwrap();
        assert_eq!(batch.replicas.len(), 4);
        assert_eq!(batch.cluster, Some(cid()));
        assert_eq!(batch.frontier.len(), 1);
    }

    #[test]
    fn mid_list_root_serves_the_suffix() {
        let (space, refs) = list_space(10);
        let batch = build_batch_many(
            &space,
            &[refs[7].id()],
            WireMode::Incremental { batch: 5 },
            cid,
        )
        .unwrap();
        // Only 3 objects remain from index 7.
        assert_eq!(batch.replicas.len(), 3);
        assert!(batch.frontier.is_empty());
    }

    #[test]
    fn versions_travel_with_replicas() {
        let (mut space, refs) = list_space(2);
        space.meta_mut(refs[0].id()).unwrap().version = 9;
        let batch = build_batch_many(
            &space,
            &[refs[0].id()],
            WireMode::Incremental { batch: 1 },
            cid,
        )
        .unwrap();
        assert_eq!(batch.replicas[0].version, 9);
    }

    #[test]
    fn absent_root_is_rejected() {
        let (space, _) = list_space(2);
        let ghost = ObjId::new(SiteId::new(9), 9);
        assert!(matches!(
            build_batch_many(&space, &[ghost], WireMode::Transitive, cid),
            Err(ObiError::NoSuchObject(_))
        ));
    }

    #[test]
    fn dangling_references_are_skipped_in_frontier() {
        let mut space = ObjectSpace::new(SiteId::new(2));
        let ghost = ObjRef::new(ObjId::new(SiteId::new(9), 77));
        let head = space.create(Box::new(LinkedItem::with_next(1, "h", ghost)));
        let batch = build_batch_many(&space, &[head.id()], WireMode::Incremental { batch: 1 }, cid).unwrap();
        assert!(batch.frontier.is_empty());
    }

    #[test]
    fn mode_conversions_roundtrip_and_clamp() {
        for m in [
            ReplicationMode::incremental(7),
            ReplicationMode::cluster(3),
            ReplicationMode::transitive(),
        ] {
            assert_eq!(ReplicationMode::from_wire(m.to_wire()), m);
        }
        assert_eq!(ReplicationMode::incremental(0).objects_per_step(), Some(1));
        assert_eq!(ReplicationMode::cluster(0).objects_per_step(), Some(1));
        assert_eq!(
            ReplicationMode::from_wire(WireMode::Incremental { batch: 0 }),
            ReplicationMode::incremental(1)
        );
        assert!(ReplicationMode::cluster(2).is_cluster());
        assert!(!ReplicationMode::default().is_cluster());
    }

    #[test]
    fn multi_root_batch_serves_all_roots_first() {
        let (space, refs) = list_space(10);
        // Three scattered roots, batch 2 each: 6 objects total, roots first.
        let targets = [refs[0].id(), refs[4].id(), refs[8].id()];
        let batch = build_batch_many(
            &space,
            &targets,
            WireMode::Incremental { batch: 2 },
            cid,
        )
        .unwrap();
        assert_eq!(batch.root, refs[0].id());
        assert_eq!(batch.replicas.len(), 6);
        let ids: Vec<ObjId> = batch.replicas.iter().map(|r| r.id).collect();
        assert_eq!(&ids[..3], &targets);
    }

    #[test]
    fn multi_root_batch_merges_overlapping_traversals() {
        let (space, refs) = list_space(6);
        // Adjacent roots: the shared suffix is materialized once.
        let targets = [refs[0].id(), refs[1].id()];
        let batch = build_batch_many(
            &space,
            &targets,
            WireMode::Incremental { batch: 4 },
            cid,
        )
        .unwrap();
        let ids: Vec<ObjId> = batch.replicas.iter().map(|r| r.id).collect();
        let unique: HashSet<ObjId> = ids.iter().copied().collect();
        assert_eq!(ids.len(), unique.len(), "no duplicate replicas");
        assert_eq!(ids.len(), 6, "whole list fits under the scaled limit");
        assert!(batch.frontier.is_empty());
    }

    #[test]
    fn multi_root_skips_dead_targets_and_dedupes() {
        let (space, refs) = list_space(4);
        let ghost = ObjId::new(SiteId::new(9), 9);
        let targets = [ghost, refs[2].id(), refs[2].id()];
        let batch = build_batch_many(
            &space,
            &targets,
            WireMode::Incremental { batch: 1 },
            cid,
        )
        .unwrap();
        // Only one live, deduped root → limit 1.
        assert_eq!(batch.root, refs[2].id());
        assert_eq!(batch.replicas.len(), 1);
    }

    #[test]
    fn multi_root_with_no_live_targets_is_rejected() {
        let (space, _) = list_space(2);
        let ghost = ObjId::new(SiteId::new(9), 9);
        assert!(matches!(
            build_batch_many(&space, &[ghost], WireMode::Transitive, cid),
            Err(ObiError::NoSuchObject(id)) if id == ghost
        ));
        assert!(matches!(
            build_batch_many(&space, &[], WireMode::Transitive, cid),
            Err(ObiError::NoSuchObject(_))
        ));
    }

    #[test]
    fn branching_graph_bfs_order() {
        // root -> (a, b); a -> c. BFS with batch 3 = root, a, b; frontier = c.
        let mut space = ObjectSpace::new(SiteId::new(2));
        let c = space.create(Box::new(LinkedItem::new(3, "c")));
        let a = space.create(Box::new(LinkedItem::with_next(1, "a", c)));
        let b = space.create(Box::new(LinkedItem::new(2, "b")));
        let mut root_item = LinkedItem::new(0, "root");
        root_item.set_next(Some(a));
        root_item.set_extra(vec![b]);
        let root = space.create(Box::new(root_item));
        let batch = build_batch_many(&space, &[root.id()], WireMode::Incremental { batch: 3 }, cid).unwrap();
        let ids: Vec<ObjId> = batch.replicas.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![root.id(), a.id(), b.id()]);
        assert_eq!(batch.frontier.len(), 1);
        assert_eq!(batch.frontier[0].target, c.id());
    }
}

//! The per-site OBIWAN runtime: [`ObiProcess`] and its service endpoint.
//!
//! An `ObiProcess` ties together one [`crate::space::ObjectSpace`], one
//! [`RmiClient`], the proxy-in table for objects it
//! provides, and a [`ConsistencyHook`]. Its public API is the programmer's
//! view of OBIWAN:
//!
//! * [`create`](ObiProcess::create) / [`export`](ObiProcess::export) /
//!   [`lookup`](ObiProcess::lookup) — publish and find objects;
//! * [`get`](ObiProcess::get) — replicate (incrementally, by cluster, or
//!   transitively) from a remote provider;
//! * [`invoke`](ObiProcess::invoke) — LMI with transparent object-fault
//!   resolution; [`invoke_rmi`](ObiProcess::invoke_rmi) — classic RMI;
//! * [`put`](ObiProcess::put) / [`refresh`](ObiProcess::refresh) — replica
//!   write-back and re-fetch;
//! * [`subscribe`](ObiProcess::subscribe) — opt in to invalidations or
//!   pushed updates.

use crate::hooks::{AcceptAll, ConsistencyHook};
use crate::object::{ClassRegistry, ObiObject};
use crate::objref::ObjRef;
use crate::proxy::{ProxyIn, ProxyOut};
use crate::replication::{build_batch_many, replica_state, ReplicationMode};
use crate::shards::ShardedSpace;
use crate::space::{GcStats, ObjectEntry, ObjectMeta, ReplicaKind, Resolution, SpaceView};
use obiwan_net::Transport;
use obiwan_rmi::{
    BreakerState, Deadline, RemoteRef, RetryPolicy, RmiClient, RmiServer, RmiService,
    STREAM_CHUNK_OBJECTS, WHOLE_BATCH,
};
use obiwan_store::{state_fingerprint, Durable, RecoveredState};
use obiwan_util::trace;
use obiwan_util::{
    Clock, ClusterId, CostModel, LatencyKind, Metrics, ObiError, ObjId, RequestId, Result, SiteId,
};
use obiwan_wire::{
    JoinInfo, Message, NameOp, ObiValue, ReplicaBatch, ReplicaState, WireMode,
};
use obiwan_util::sync::{Mutex, MutexGuard, RwLock};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Maximum nested invocation depth, bounding distributed recursion.
const MAX_INVOKE_DEPTH: usize = 256;

/// Outcome of [`ObiProcess::refresh_or_stale`]: whether the replica was
/// re-fetched from its master or intentionally left stale because the
/// master is unreachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// The master answered; the replica now matches it.
    Fresh,
    /// The master is unreachable; the existing (possibly stale) replica
    /// is served as-is until connectivity returns.
    Stale,
}

// ---------------------------------------------------------------------------
// Re-entrancy-aware process lock
// ---------------------------------------------------------------------------

fn thread_token() -> u64 {
    use std::cell::Cell;
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TOKEN: Cell<u64> = const { Cell::new(0) };
    }
    TOKEN.with(|t| {
        if t.get() == 0 {
            t.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

struct ProcessLock {
    inner: Mutex<ProcessInner>,
    owner: AtomicU64,
}

struct LockGuard<'a> {
    guard: MutexGuard<'a, ProcessInner>,
    owner: &'a AtomicU64,
}

impl std::ops::Deref for LockGuard<'_> {
    type Target = ProcessInner;
    fn deref(&self) -> &ProcessInner {
        &self.guard
    }
}

impl std::ops::DerefMut for LockGuard<'_> {
    fn deref_mut(&mut self) -> &mut ProcessInner {
        &mut self.guard
    }
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        self.owner.store(0, Ordering::Release);
    }
}

impl ProcessLock {
    fn new(inner: ProcessInner) -> Self {
        ProcessLock {
            inner: Mutex::new(inner),
            owner: AtomicU64::new(0),
        }
    }

    /// Locks the process state. Detects same-thread re-entrancy (a cycle of
    /// synchronous calls arriving back at this process) and reports it as an
    /// error instead of deadlocking; cross-thread contention blocks
    /// normally.
    fn enter(&self, site: SiteId) -> Result<LockGuard<'_>> {
        let me = thread_token();
        if self.owner.load(Ordering::Acquire) == me {
            return Err(ObiError::ReentrantInvocation(ObjId::new(site, 0)));
        }
        let guard = self.inner.lock();
        self.owner.store(me, Ordering::Release);
        Ok(LockGuard {
            guard,
            owner: &self.owner,
        })
    }

    /// True when the calling thread currently holds the lock.
    fn held_by_me(&self) -> bool {
        self.owner.load(Ordering::Acquire) == thread_token()
    }
}

// ---------------------------------------------------------------------------
// Process state
// ---------------------------------------------------------------------------

struct ProcessInner {
    policy: Box<dyn ConsistencyHook>,
    outbox: Vec<(SiteId, Message)>,
    replica_budget: Option<usize>,
    /// Root object of each cluster this process has materialized, for
    /// cluster-wise refresh.
    cluster_roots: HashMap<ClusterId, ObjId>,
}

/// Where [`ObiProcess::absorb`] puts one demanded chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Absorb {
    /// Materialize now, under the re-acquired process lock.
    Inline,
    /// Park in [`ProcessShared::pending_chunks`] for
    /// [`ObiProcess::pump_pending_chunks`], outside the caller's latency
    /// window.
    Deferred,
}

/// The `chunk` a fault or prefetch demand asks for: incremental steps above
/// [`STREAM_CHUNK_OBJECTS`] stream in chunks of that size, so the root's
/// chunk installs while the rest is in flight; anything else arrives whole.
fn stream_chunk(mode: WireMode) -> u32 {
    match mode {
        WireMode::Incremental { batch } if batch > STREAM_CHUNK_OBJECTS => STREAM_CHUNK_OBJECTS,
        _ => WHOLE_BATCH,
    }
}

/// One demanded chunk parked for deferred materialization (see
/// [`ProcessShared::pending_chunks`]).
struct PendingChunk {
    batch: ReplicaBatch,
    provider: SiteId,
    mode: WireMode,
    /// Position in its stream, carried into the `obi.pump_chunk` span.
    chunk_index: u32,
}

struct ProcessShared {
    site: SiteId,
    ns_site: SiteId,
    lock: ProcessLock,
    /// The object table, striped into internally-locked shards. It lives
    /// *outside* the process lock: the read-mostly serve-get path walks it
    /// concurrently with local invocations, which still
    /// serialize on the process lock above.
    space: ShardedSpace,
    /// Proxy-in table for objects this process provides. Guarded by its own
    /// lock so the serve-get fast path can register exports without the
    /// process lock; never held across a shard acquisition or a transport
    /// call.
    exports: RwLock<HashMap<ObjId, ProxyIn>>,
    /// Cluster-id generation counter (one per cluster batch served).
    cluster_seq: AtomicU64,
    /// One-way messages deferred while the process was busy, applied FIFO:
    /// arrival order is preserved so an `UpdatePush` following an
    /// `Invalidate` for the same object lands after it, never before.
    inbox: Mutex<VecDeque<(SiteId, Message)>>,
    /// Chunks after the first of each streamed fault demand, parked here
    /// (already decoded off the wire) instead of being materialized inside
    /// the fault window: [`ObiProcess::pump_pending_chunks`] installs them
    /// at the top of the next public operation, *before* its latency window
    /// opens, so a large batch's proxy-pair bill never lands in the
    /// caller-visible tail. Its own lock class, and deliberately a leaf:
    /// both push (the stream callback) and pop (the pump) release it before
    /// touching the process lock, a shard, or the transport.
    pending_chunks: Mutex<VecDeque<PendingChunk>>,
    client: RmiClient,
    clock: Clock,
    costs: CostModel,
    metrics: Metrics,
    registry: ClassRegistry,
    /// Write-through durability, attached at most once
    /// ([`ObiProcess::attach_durability`]). All `log_*` calls happen with
    /// no shard guard held (enforced by the `no-io-under-shard-guard`
    /// lint) and with the process lock released: an fsync under either
    /// would serialize the striped table or every invocation on the site.
    durable: std::sync::OnceLock<Arc<Durable>>,
}

impl ProcessShared {
    /// Demands the batch rooted at `target` from `provider` whole, as one
    /// chunk — how `get`, refreshes and nested faults fetch.
    fn get_whole(
        &self,
        provider: SiteId,
        target: ObjId,
        mode: WireMode,
    ) -> Result<ReplicaBatch> {
        let mut whole = None;
        self.client.get(
            provider,
            vec![target],
            mode,
            WHOLE_BATCH,
            None,
            &mut |_, batch| whole = Some(batch),
        )?;
        whole.ok_or_else(|| ObiError::Internal("demand completed without a chunk".into()))
    }
}

/// One OBIWAN process: the runtime services a site's application links
/// against.
///
/// Cheap to clone (shared state inside); all methods take `&self`.
#[derive(Clone)]
pub struct ObiProcess {
    shared: Arc<ProcessShared>,
}

impl std::fmt::Debug for ObiProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObiProcess")
            .field("site", &self.shared.site)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Invocation context
// ---------------------------------------------------------------------------

/// The execution context handed to every method body.
///
/// Through it a method reaches the rest of the platform: nested invocations
/// (with transparent fault resolution), object creation, and mutation
/// marking.
pub struct InvokeCtx<'a> {
    inner: &'a mut ProcessInner,
    shared: &'a ProcessShared,
    current: ObjId,
    modified: &'a mut Vec<ObjId>,
    depth: usize,
}

impl InvokeCtx<'_> {
    /// The site this invocation runs on.
    pub fn site(&self) -> SiteId {
        self.shared.site
    }

    /// The id of the object currently executing.
    pub fn self_id(&self) -> ObjId {
        self.current
    }

    /// A reference to the object currently executing.
    pub fn self_ref(&self) -> ObjRef {
        ObjRef::new(self.current)
    }

    /// Records that the current object mutated its state. Mutating methods
    /// declared in `obi_class!`'s `mutating` block call this automatically.
    pub fn mark_modified(&mut self) {
        self.modified.push(self.current);
    }

    /// Invokes a method on another object, resolving object faults
    /// transparently (the `BProxyOut.demand` path of §2.2).
    ///
    /// # Errors
    ///
    /// Propagates the callee's error; re-entrant cycles yield
    /// [`ObiError::ReentrantInvocation`].
    pub fn invoke(&mut self, target: ObjRef, method: &str, args: &ObiValue) -> Result<ObiValue> {
        if self.depth >= MAX_INVOKE_DEPTH {
            return Err(ObiError::Internal(format!(
                "invocation depth exceeded {MAX_INVOKE_DEPTH}"
            )));
        }
        invoke_inner(
            self.inner,
            self.shared,
            target.id(),
            method,
            args,
            self.modified,
            self.depth + 1,
        )
    }

    /// Creates a new master object in the local space.
    pub fn create(&mut self, object: Box<dyn ObiObject>) -> ObjRef {
        self.shared.space.create(object)
    }
}

// ---------------------------------------------------------------------------
// Core invocation / fault machinery (free functions over ProcessInner)
// ---------------------------------------------------------------------------

/// What one locked attempt of [`ObiProcess::invoke`] produced: a finished
/// invocation, or a proxy to fault in with the lock dropped.
enum InvokeOutcome {
    Done(Result<ObiValue>),
    Fault(ProxyOut),
}

fn invoke_inner(
    inner: &mut ProcessInner,
    shared: &ProcessShared,
    target: ObjId,
    method: &str,
    args: &ObiValue,
    modified: &mut Vec<ObjId>,
    depth: usize,
) -> Result<ObiValue> {
    // Fault loop: at most one fault resolution is needed before the slot is
    // live, but a failed materialization surfaces as an error. Bounded so
    // that pathological interactions (e.g. a budget evicting the freshly
    // faulted object) degrade to an error instead of a livelock.
    let mut attempts = 0;
    loop {
        match shared.space.resolve(target) {
            Resolution::Object(_) => break,
            Resolution::Proxy(proxy) => {
                attempts += 1;
                if attempts > 3 {
                    return Err(ObiError::Internal(format!(
                        "object {target} evaporates after every fault (budget too small?)"
                    )));
                }
                shared.metrics.incr_object_faults();
                resolve_fault(inner, shared, &proxy)?;
            }
            Resolution::Busy => return Err(ObiError::ReentrantInvocation(target)),
            Resolution::Absent => return Err(ObiError::NoSuchObject(target)),
        }
    }

    let mut entry = shared.space.take_object(target)?;
    shared.clock.charge_cpu(shared.costs.lmi);
    shared.metrics.incr_lmi();
    let result = {
        let mut ctx = InvokeCtx {
            inner,
            shared,
            current: target,
            modified,
            depth,
        };
        entry.object.invoke(&mut ctx, method, args)
    };
    shared.space.restore_object(entry);
    result
}

/// Resolves one object fault: demand the next batch from the proxy's
/// provider and materialize it (paper §2.2 steps 1–6).
///
/// This variant holds the process lock across the network wait; it serves
/// *nested* faults (raised inside a method body, which already owns the
/// lock). Top-level faults go through
/// [`ObiProcess::resolve_fault_unlocked`], which releases the lock for the
/// round-trip.
fn resolve_fault(inner: &mut ProcessInner, shared: &ProcessShared, proxy: &ProxyOut) -> Result<()> {
    let _span = trace::span(&shared.clock, "obi.fault")
        .with_site(shared.site)
        .with_obj(proxy.target);
    let start = shared.clock.virtual_nanos();
    let batch = shared.get_whole(proxy.provider, proxy.target, proxy.mode);
    let waited = shared.clock.virtual_nanos().saturating_sub(start);
    shared.metrics.add_fault_nanos(waited);
    shared
        .metrics
        .record_latency(LatencyKind::Demand, Duration::from_nanos(waited));
    let batch = batch?;
    materialize_batch(inner, shared, &batch, proxy.provider, proxy.mode)?;
    // The proxy slot was overwritten by the replica: the swizzle. The old
    // proxy-out is no longer reachable and has effectively been reclaimed.
    shared.clock.charge_cpu(shared.costs.swizzle);
    shared.metrics.incr_proxies_reclaimed();
    Ok(())
}

/// Installs a replica batch into the local space: replicas become live
/// slots, frontier edges become proxy-outs, costs and metrics are charged.
/// The batch always wins over existing clean replicas (the `get`/`refresh`
/// contract: the caller asked for fresh state).
fn materialize_batch(
    inner: &mut ProcessInner,
    shared: &ProcessShared,
    batch: &ReplicaBatch,
    provider: SiteId,
    mode: WireMode,
) -> Result<usize> {
    materialize_batch_inner(inner, shared, batch, provider, mode, false)
}

/// Like [`materialize_batch`], but for batches fetched while the process
/// lock was *dropped*: every replica is re-validated against whatever
/// happened in the window. Skipped (left untouched) are masters, dirty
/// replicas (un-pushed local writes), replicas already at the incoming
/// version or newer (a concurrent fault won the race), and busy slots (an
/// invocation owns the object right now).
fn materialize_batch_guarded(
    inner: &mut ProcessInner,
    shared: &ProcessShared,
    batch: &ReplicaBatch,
    provider: SiteId,
    mode: WireMode,
) -> Result<usize> {
    materialize_batch_inner(inner, shared, batch, provider, mode, true)
}

fn materialize_batch_inner(
    inner: &mut ProcessInner,
    shared: &ProcessShared,
    batch: &ReplicaBatch,
    provider: SiteId,
    mode: WireMode,
    guard: bool,
) -> Result<usize> {
    let _span = trace::span(&shared.clock, "obi.materialize")
        .with_site(shared.site)
        .with_obj(batch.root)
        .with_value(batch.replicas.len() as u64);
    let mut installed = 0usize;
    for state in &batch.replicas {
        match shared.space.resolve(state.id) {
            // Never clobber our own masters with replicas of themselves.
            Resolution::Object(meta) if meta.kind.is_master() => continue,
            Resolution::Object(meta)
                if guard && (meta.dirty || meta.version >= state.version) =>
            {
                continue;
            }
            Resolution::Busy if guard => continue,
            _ => {}
        }
        shared.clock.charge_cpu(shared.costs.serialize(state.state.len()));
        let object = shared.registry.decode(&state.class, &state.state)?;
        let mut meta = ObjectMeta::replica(state.id, provider, state.version);
        meta.cluster = batch.cluster;
        shared.clock.charge_cpu(shared.costs.replica_create);
        shared.metrics.incr_replicas_created();
        shared.space.insert_object(ObjectEntry { object, meta });
        installed += 1;
    }

    if let Some(cluster) = batch.cluster {
        inner.cluster_roots.insert(cluster, batch.root);
    }

    // Proxy-pair accounting (paper §4.2 vs §4.3): one pair per object in
    // incremental mode, a single shared pair per cluster batch. Pair cost
    // grows mildly with batch size (CostModel::pair_batch_penalty).
    let n = batch.replicas.len();
    match mode {
        WireMode::Cluster { .. } => {
            shared.clock.charge_cpu(shared.costs.proxy_pairs(1, n));
            shared.metrics.incr_proxy_pairs_created();
        }
        _ => {
            shared.clock.charge_cpu(shared.costs.proxy_pairs(n, n));
            shared.metrics.add_proxy_pairs_created(n as u64);
        }
    }

    for edge in &batch.frontier {
        let mut proxy = ProxyOut::new(edge.target, edge.class.clone(), provider, mode);
        if let Some(cluster) = batch.cluster {
            proxy = proxy.in_cluster(cluster);
        }
        shared.space.insert_proxy(proxy);
    }

    // Opt-in memory budget for info-appliances (§2.1): shed cold, clean
    // replicas back to proxy-outs when the batch pushed us over. The batch
    // root is freshened and protected — it is the object the caller is
    // about to invoke, and evicting it would re-raise the same fault.
    if let Some(budget) = inner.replica_budget {
        shared.space.touch(batch.root);
        let (evicted, _freed) = shared.space.evict_replicas_to(budget, &[batch.root]);
        shared.metrics.add_replicas_evicted(evicted as u64);
    }
    Ok(installed)
}

/// Applies post-invocation bookkeeping: bump master versions, mark replicas
/// dirty, and queue notifications to subscribers. Returns the replicas
/// that went dirty, `(id, provider)` each, so the caller can append their
/// deltas to the durability log — *after* releasing the process lock: the
/// append can trigger a group fsync, and a stalled disk must slow this one
/// caller, not every invocation on the site.
#[must_use = "the dirty list must be logged via log_dirty_deltas after the lock drops"]
fn finish_invocation(
    inner: &mut ProcessInner,
    shared: &ProcessShared,
    modified: &[ObjId],
) -> Vec<(ObjId, SiteId)> {
    let mut seen = std::collections::HashSet::new();
    let mut dirtied = Vec::new();
    for &id in modified {
        if !seen.insert(id) {
            continue;
        }
        let Some(meta) = shared.space.meta(id) else {
            continue;
        };
        match meta.kind {
            ReplicaKind::Master => {
                let mut version = meta.version;
                shared.space.update_meta(id, |m| {
                    m.version += 1;
                    version = m.version;
                });
                inner.policy.on_master_updated(id, version);
                queue_notifications(inner, shared, id, shared.site);
            }
            ReplicaKind::Replica { provider } => {
                shared.space.update_meta(id, |m| m.dirty = true);
                dirtied.push((id, provider));
            }
        }
    }
    dirtied
}

/// Appends each replica's serialized state to the durability log (when one
/// is attached). Called with the process lock and every shard guard
/// released: the state is re-read under a fresh short guard, and the WAL
/// append (which can trigger a group fsync) happens guard-free.
///
/// Best-effort by design: the in-memory replica is the source of truth and
/// stays dirty, so a failed append costs durability of this delta, not
/// correctness — the next mutation or the put path's strict intent logging
/// retries the state.
fn log_dirty_deltas(shared: &ProcessShared, dirtied: &[(ObjId, SiteId)]) {
    if dirtied.is_empty() {
        return;
    }
    let Some(durable) = shared.durable.get() else {
        return;
    };
    for &(id, provider) in dirtied {
        if let Ok(state) = replica_state_of(&shared.space, id) {
            let _ = durable.log_dirty(provider, state);
        }
    }
}

/// Queues invalidations/pushes for every subscriber of `id` except
/// `originator`.
fn queue_notifications(
    inner: &mut ProcessInner,
    shared: &ProcessShared,
    id: ObjId,
    originator: SiteId,
) {
    // Snapshot the subscriber list and release the exports lock before
    // touching the space: the exports guard must never overlap a shard
    // acquisition.
    let subscribers: Vec<_> = {
        let exports = shared.exports.read();
        let Some(entry) = exports.get(&id) else {
            return;
        };
        entry.subscribers_except(originator).collect()
    };
    if subscribers.is_empty() {
        return;
    }
    let push_state = if subscribers.iter().any(|s| s.push) {
        replica_state_of(&shared.space, id).ok()
    } else {
        None
    };
    for sub in subscribers {
        let msg = if sub.push {
            match &push_state {
                Some(state) => Message::UpdatePush {
                    entries: vec![state.clone()],
                },
                None => Message::Invalidate { objects: vec![id] },
            }
        } else {
            Message::Invalidate { objects: vec![id] }
        };
        inner.outbox.push((sub.site, msg));
    }
}

// ---------------------------------------------------------------------------
// ObiProcess public API
// ---------------------------------------------------------------------------

impl ObiProcess {
    /// Creates a process for `site`, wired to `transport`, using `ns_site`
    /// as its name server.
    ///
    /// The caller is responsible for registering the process's
    /// [`message_handler`](ObiProcess::message_handler) with the transport
    /// (the [`ObiWorld`](crate::world::ObiWorld) convenience does this).
    pub fn new(
        site: SiteId,
        transport: Arc<dyn Transport>,
        clock: Clock,
        costs: CostModel,
        registry: ClassRegistry,
        ns_site: SiteId,
    ) -> Self {
        let metrics = Metrics::new();
        let client = RmiClient::with_metrics(
            site,
            transport,
            clock.clone(),
            costs.clone(),
            metrics.clone(),
        );
        ObiProcess {
            shared: Arc::new(ProcessShared {
                site,
                ns_site,
                lock: ProcessLock::new(ProcessInner {
                    policy: Box::new(AcceptAll),
                    outbox: Vec::new(),
                    replica_budget: None,
                    cluster_roots: HashMap::new(),
                }),
                space: ShardedSpace::new(site),
                exports: RwLock::new(HashMap::new()),
                cluster_seq: AtomicU64::new(1),
                inbox: Mutex::new(VecDeque::new()),
                pending_chunks: Mutex::new(VecDeque::new()),
                client,
                clock,
                costs,
                metrics,
                registry,
                durable: std::sync::OnceLock::new(),
            }),
        }
    }

    /// The site this process runs at.
    pub fn site(&self) -> SiteId {
        self.shared.site
    }

    /// Platform metrics for this process (LMI/RMI counts, faults, replicas,
    /// proxy pairs, …).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The class registry this process decodes replicas with.
    pub fn registry(&self) -> &ClassRegistry {
        &self.shared.registry
    }

    /// The message handler to register with the transport for this site.
    /// Shares the process's metrics so reply-cache hits are visible there.
    pub fn message_handler(&self) -> Arc<dyn obiwan_net::MessageHandler> {
        Arc::new(
            RmiServer::with_metrics(
                Arc::new(ProcessService {
                    shared: self.shared.clone(),
                }),
                self.shared.metrics.clone(),
            )
            .with_clock(self.shared.clock.clone()),
        )
    }

    /// Replaces the consistency policy hook.
    ///
    /// # Panics
    ///
    /// Panics when called from inside a method invocation.
    pub fn set_policy(&self, policy: Box<dyn ConsistencyHook>) {
        let mut g = self.enter().expect("set_policy called re-entrantly");
        g.policy = policy;
    }

    /// Attaches a durability log: from now on dirty-replica mutations,
    /// puts, and refreshes write through to it (see `obiwan-store`). At
    /// most one log can ever be attached; a second call is ignored.
    pub fn attach_durability(&self, durable: Arc<Durable>) {
        let _ = self.shared.durable.set(durable);
    }

    /// The attached durability log, if any.
    pub fn durability(&self) -> Option<&Arc<Durable>> {
        self.shared.durable.get()
    }

    /// Reinstalls state recovered from a durability log after a restart:
    /// dirty replicas go back into the space (still dirty, awaiting
    /// reintegration), and the RMI client's request counter and reply
    /// horizon are restored so post-crash requests never collide with
    /// pre-crash ones (recovery invariant 3 in `obiwan-store`). Returns how
    /// many replicas were reinstalled.
    ///
    /// Call before the process serves traffic, typically right after
    /// [`ObiProcess::attach_durability`] with the state that
    /// `Durable::open` returned.
    pub fn recover_from(&self, recovered: &RecoveredState) -> Result<usize> {
        self.shared
            .client
            .restore_request_seq(recovered.next_request_seq);
        self.shared
            .client
            .horizon_tracker()
            .restore(recovered.horizon);
        self.with_inner(|_inner| {
            let mut installed = 0usize;
            for (id, (provider, state)) in &recovered.dirty {
                let object = self.shared.registry.decode(&state.class, &state.state)?;
                // A dirty replica of a handed-off root re-targets the
                // successor, not the provider recorded before the handoff.
                let provider = match recovered.handoffs.get(id) {
                    Some(&(successor, _)) => successor,
                    None => *provider,
                };
                let mut meta = ObjectMeta::replica(*id, provider, state.version);
                meta.dirty = true;
                self.shared.metrics.incr_replicas_created();
                self.shared.space.insert_object(ObjectEntry { object, meta });
                installed += 1;
            }
            // Exactly-one-master guard: whatever else recovery (or the
            // application's pre-recovery setup) installed, a root with a
            // durable handoff record must never come back up mastered
            // here — even a half-completed handoff (intent without ack)
            // yields, because the intent was durable before the RPC left
            // and the successor may have installed it.
            for (root, (successor, _)) in &recovered.handoffs {
                self.shared.space.update_meta(*root, |meta| {
                    if meta.kind.is_master() {
                        meta.kind = ReplicaKind::Replica {
                            provider: *successor,
                        };
                        meta.dirty = false;
                    }
                });
            }
            Ok(installed)
        })
    }

    fn enter(&self) -> Result<LockGuard<'_>> {
        self.shared.lock.enter(self.shared.site)
    }

    /// Runs `f` under the process lock, then flushes queued notifications
    /// and drains deferred one-way messages.
    fn with_inner<R>(&self, f: impl FnOnce(&mut ProcessInner) -> Result<R>) -> Result<R> {
        let (result, flush) = {
            let mut g = self.enter()?;
            let result = f(&mut g);
            let flush = std::mem::take(&mut g.outbox);
            (result, flush)
        };
        self.flush_outbox(flush);
        self.drain_inbox();
        result
    }

    fn flush_outbox(&self, msgs: Vec<(SiteId, Message)>) {
        for (to, msg) in msgs {
            // Best-effort one-way traffic; connectivity failures are the
            // subscriber's problem (their replica simply stays stale).
            let _ = match msg {
                Message::Invalidate { objects } => {
                    self.shared.client.send_invalidate(to, objects)
                }
                Message::UpdatePush { entries } => {
                    self.shared.client.send_update_push(to, entries)
                }
                other => {
                    debug_assert!(false, "unexpected outbox message {other:?}");
                    Ok(())
                }
            };
        }
    }

    /// Applies one-way messages that arrived while this process was busy,
    /// oldest first. A message that cannot be applied yet goes back to the
    /// *front* of the queue so nothing overtakes it.
    pub fn drain_inbox(&self) {
        loop {
            let Some((from, msg)) = self.shared.inbox.lock().pop_front() else {
                return;
            };
            if self.shared.lock.held_by_me() {
                // Still inside one of our own frames; put it back and let
                // the outermost caller drain.
                self.shared.inbox.lock().push_front((from, msg));
                return;
            }
            let flush = match self.enter() {
                Ok(mut g) => {
                    apply_one_way(&mut g, &self.shared, from, msg);
                    std::mem::take(&mut g.outbox)
                }
                Err(_) => {
                    self.shared.inbox.lock().push_front((from, msg));
                    return;
                }
            };
            self.flush_outbox(flush);
        }
    }

    // -- object lifecycle ---------------------------------------------------

    /// Creates a new master object and returns its reference.
    ///
    /// # Panics
    ///
    /// Panics when called from inside a method invocation — use
    /// [`InvokeCtx::create`] there instead.
    pub fn create<T: ObiObject + 'static>(&self, object: T) -> ObjRef {
        self.with_inner(|_inner| Ok(self.shared.space.create(Box::new(object))))
            .expect("create called re-entrantly; use InvokeCtx::create inside methods")
    }

    /// Exports an object (creates its proxy-in) and binds it under `name`
    /// in the world's name server — the paper's "only `AProxyIn` is
    /// registered in a name server".
    ///
    /// # Errors
    ///
    /// Fails when the object does not exist locally, the name is taken, or
    /// the name server is unreachable.
    pub fn export(&self, object: ObjRef, name: &str) -> Result<()> {
        self.with_inner(|_inner| {
            if !matches!(self.shared.space.resolve(object.id()), Resolution::Object(_)) {
                return Err(ObiError::NoSuchObject(object.id()));
            }
            self.shared.exports.write().entry(object.id()).or_default();
            self.shared.space.add_root(object.id());
            Ok(())
        })?;
        self.shared
            .client
            .bind(self.shared.ns_site, name, object.id())
    }

    /// Exports an object without binding a name (callers distribute the
    /// [`RemoteRef`] themselves).
    pub fn export_anonymous(&self, object: ObjRef) -> Result<RemoteRef> {
        self.with_inner(|_inner| {
            if !matches!(self.shared.space.resolve(object.id()), Resolution::Object(_)) {
                return Err(ObiError::NoSuchObject(object.id()));
            }
            self.shared.exports.write().entry(object.id()).or_default();
            self.shared.space.add_root(object.id());
            Ok(RemoteRef::new(object.id(), self.shared.site))
        })
    }

    /// Looks up a name in the world's name server.
    pub fn lookup(&self, name: &str) -> Result<RemoteRef> {
        self.shared.client.lookup(self.shared.ns_site, name)
    }

    /// Lists every name bound in the world's name server, sorted.
    pub fn list_names(&self) -> Result<Vec<String>> {
        self.shared.client.list_names(self.shared.ns_site)
    }

    /// Removes a binding from the world's name server (the object itself
    /// stays exported; existing remote refs keep working).
    pub fn unbind(&self, name: &str) -> Result<()> {
        self.shared.client.unbind(self.shared.ns_site, name)
    }

    // -- replication ----------------------------------------------------------

    /// Replicates the graph rooted at `remote` into this process using
    /// `mode`, returning a local reference to the root replica.
    ///
    /// Subsequent invocations through the returned reference are LMI;
    /// references leaving the replicated portion resolve through proxy-outs
    /// and fault in more of the graph on demand.
    ///
    /// # Errors
    ///
    /// Connectivity errors surface unchanged so the caller can fall back to
    /// an existing (possibly stale) replica.
    pub fn get(&self, remote: &RemoteRef, mode: ReplicationMode) -> Result<ObjRef> {
        self.pump_pending_chunks();
        if remote.host() == self.shared.site {
            return Ok(ObjRef::new(remote.id()));
        }
        let batch = self
            .shared
            .get_whole(remote.host(), remote.id(), mode.to_wire())?;
        self.with_inner(|inner| {
            materialize_batch(inner, &self.shared, &batch, remote.host(), mode.to_wire())?;
            Ok(ObjRef::new(batch.root))
        })
    }

    /// Caps the bytes of replica state this process keeps. When a batch
    /// pushes past the budget, least-recently-used clean replicas revert to
    /// proxy-outs and fault back in on next use (see
    /// [`crate::space::ObjectSpace::evict_replicas_to`]). `None` disables the budget.
    ///
    /// This serves the paper's "info-appliances with limited memory"
    /// scenario (§2.1): small devices can walk graphs far larger than their
    /// memory.
    pub fn set_replica_budget(&self, budget: Option<usize>) {
        let _ = self.with_inner(|inner| {
            inner.replica_budget = budget;
            if let Some(b) = budget {
                let (evicted, _) = self.shared.space.evict_replicas_to(b, &[]);
                self.shared.metrics.add_replicas_evicted(evicted as u64);
            }
            Ok(())
        });
    }

    /// Approximate bytes of replica state currently held.
    pub fn replica_bytes(&self) -> usize {
        self.with_inner(|_inner| Ok(self.shared.space.replica_bytes()))
            .unwrap_or(0)
    }

    /// Resolves up to `objects` future object faults ahead of use, by
    /// walking the local frontier reachable from `root` and demanding
    /// batches for its proxy-outs.
    ///
    /// This is the paper's footnote to §2.1: "a perfect mechanism of
    /// pre-fetching in the background can completely eliminate the
    /// latency". In this synchronous runtime the prefetch happens on the
    /// caller's thread (e.g. during application think time); afterwards,
    /// invocations over the prefetched region are pure LMI with no faults.
    ///
    /// Returns the number of objects actually fetched (less than `objects`
    /// when the reachable graph is exhausted).
    ///
    /// # Errors
    ///
    /// Connectivity failures abort the prefetch; everything fetched before
    /// the failure stays.
    pub fn prefetch(&self, root: ObjRef, objects: usize) -> Result<usize> {
        self.prefetch_batched(root, objects, 1)
    }

    /// Like [`prefetch`](ObiProcess::prefetch), but demanding up to `batch`
    /// objects per network round-trip: frontier proxies are collected and
    /// sent to their provider in one multi-target demand, and each
    /// round's batch *feeds the next* — the frontier edges of the replicas
    /// just materialized become the next demand targets, so the object
    /// graph is traversed once (O(objects + frontier)) instead of re-walked
    /// per fault. A 64-object list walk that costs 64 round-trips demand-
    /// by-demand costs ⌈64/batch⌉ here.
    ///
    /// Like every prefetch path, the lock is dropped during network waits
    /// and batches are installed through the guarded materializer.
    pub fn prefetch_batched(&self, root: ObjRef, objects: usize, batch: usize) -> Result<usize> {
        self.pump_pending_chunks();
        let batch = batch.max(1);
        // One deadline budget covers the whole sweep: every round-trip of
        // the pipeline draws from the same per-operation budget instead of
        // restarting the clock per round.
        let deadline = self.demand_deadline();
        // Seed once with every frontier proxy reachable from `root`.
        let seed =
            self.with_inner(|_inner| Ok(reachable_frontier(&self.shared.space, root.id())))?;
        let mut seen: HashSet<ObjId> = seed.iter().copied().collect();
        let mut candidates: VecDeque<ObjId> = seed.into();
        let mut fetched = 0usize;
        while fetched < objects && !candidates.is_empty() {
            let (inserted, discovered) =
                self.prefetch_round(&mut candidates, batch, objects - fetched, deadline)?;
            for id in discovered {
                if seen.insert(id) {
                    candidates.push_back(id);
                }
            }
            fetched += inserted;
        }
        Ok(fetched)
    }

    /// Prefetches from the space's frontier *index* instead of a BFS from a
    /// root: demand candidates are popped in O(1) regardless of how many
    /// objects are live, `batch` per round-trip, until `objects` objects
    /// arrived or the frontier is exhausted. Use this to warm the whole
    /// working set rather than one root's reachable graph.
    pub fn prefetch_frontier(&self, objects: usize, batch: usize) -> Result<usize> {
        self.pump_pending_chunks();
        let batch = batch.max(1);
        let deadline = self.demand_deadline();
        let mut seen: HashSet<ObjId> = HashSet::new();
        let mut fetched = 0usize;
        while fetched < objects {
            let picked = self.with_inner(|_inner| {
                let want = batch.min(objects - fetched).max(1);
                Ok(self
                    .shared
                    .space
                    .frontier_candidates(want)
                    .into_iter()
                    .map(|p| p.target)
                    .filter(|id| !seen.contains(id))
                    .collect::<Vec<ObjId>>())
            })?;
            if picked.is_empty() {
                break;
            }
            seen.extend(picked.iter().copied());
            let mut candidates: VecDeque<ObjId> = picked.into();
            let (inserted, _) =
                self.prefetch_round(&mut candidates, batch, objects - fetched, deadline)?;
            fetched += inserted;
        }
        Ok(fetched)
    }

    /// One prefetch round: validate up to `batch.min(remaining)` candidates
    /// under the lock, demand them (incremental ones grouped per provider,
    /// one demand each; cluster/transitive proxies individually), and
    /// absorb every chunk inline as it lands. Returns `(replicas installed,
    /// frontier ids discovered)`.
    fn prefetch_round(
        &self,
        candidates: &mut VecDeque<ObjId>,
        batch: usize,
        remaining: usize,
        deadline: Deadline,
    ) -> Result<(usize, Vec<ObjId>)> {
        let mut span = trace::span(&self.shared.clock, "obi.prefetch_round")
            .with_site(self.shared.site);
        let want = batch.min(remaining).max(1);
        // Incremental targets grouped by provider, with the largest step
        // any of them asked for; cluster/transitive proxies have one-shot
        // semantics a merged batch would change, so they go solo.
        let mut grouped: HashMap<SiteId, (Vec<ObjId>, u32)> = HashMap::new();
        let mut solo: Vec<ProxyOut> = Vec::new();
        self.with_inner(|_inner| {
            let mut picked = 0usize;
            while picked < want {
                let Some(id) = candidates.pop_front() else {
                    break;
                };
                let Resolution::Proxy(p) = self.shared.space.resolve(id) else {
                    continue; // already live (or gone): nothing to demand
                };
                picked += 1;
                match p.mode {
                    WireMode::Incremental { batch: own } => {
                        let slot = grouped.entry(p.provider).or_insert((Vec::new(), 1));
                        slot.0.push(p.target);
                        slot.1 = slot.1.max(own.max(1));
                    }
                    _ => solo.push(p),
                }
            }
            Ok(())
        })?;

        let total = grouped.values().map(|(t, _)| t.len()).sum::<usize>() + solo.len();
        if total == 0 {
            return Ok((0, Vec::new()));
        }
        // Spread the round's object budget across the targets; a single
        // target still honors its proxy's own incremental step.
        let spread = (batch / total).max(1).min(u32::MAX as usize) as u32;
        let demands = grouped
            .into_iter()
            .map(|(provider, (targets, own_step))| {
                let step = own_step.max(spread);
                (provider, targets, WireMode::Incremental { batch: step })
            })
            .chain(solo.into_iter().map(|p| (p.provider, vec![p.target], p.mode)));

        let mut inserted = 0usize;
        let mut discovered: Vec<ObjId> = Vec::new();
        for (provider, targets, mode) in demands {
            // Prefetch is bulk work, not a caller-visible latency window,
            // so every chunk installs inline as it lands, pipelined with
            // the provider still slicing the rest.
            let swizzled = targets.len();
            let mut absorbed: Result<()> = Ok(());
            self.shared.client.get(
                provider,
                targets,
                mode,
                stream_chunk(mode),
                Some(deadline),
                &mut |index, batch| {
                    discovered.extend(batch.frontier.iter().map(|e| e.target));
                    let swizzled = if index == 0 { swizzled } else { 0 };
                    match self.absorb(index, batch, provider, mode, Absorb::Inline, swizzled) {
                        Ok(n) => inserted += n,
                        Err(e) if absorbed.is_ok() => absorbed = Err(e),
                        Err(_) => {}
                    }
                },
            )?;
            absorbed?;
        }
        span.set_value(inserted as u64);
        Ok((inserted, discovered))
    }

    /// Absorbs one demanded chunk the caller's way: [`Absorb::Inline`]
    /// re-acquires the lock and installs it through the guarded
    /// materializer (`swizzled` proxies were overwritten), returning the
    /// replicas installed; [`Absorb::Deferred`] parks it for
    /// [`ObiProcess::pump_pending_chunks`] and installs nothing yet.
    fn absorb(
        &self,
        index: u32,
        batch: ReplicaBatch,
        provider: SiteId,
        mode: WireMode,
        how: Absorb,
        swizzled: usize,
    ) -> Result<usize> {
        if how == Absorb::Deferred {
            self.shared.pending_chunks.lock().push_back(PendingChunk {
                batch,
                provider,
                mode,
                chunk_index: index,
            });
            return Ok(0);
        }
        self.with_inner(|inner| {
            let installed =
                materialize_batch_guarded(inner, &self.shared, &batch, provider, mode)?;
            self.shared.clock.charge_cpu(self.shared.costs.swizzle);
            self.shared
                .metrics
                .add_proxies_reclaimed(swizzled as u64);
            Ok(installed)
        })
    }

    /// Invokes `method` locally (LMI), transparently resolving object
    /// faults if `target` is not yet replicated.
    ///
    /// Top-level faults resolve through a *drop-lock window*: the proxy is
    /// snapshotted under the process lock, the lock is released for the
    /// network round-trip, then re-acquired to install the batch (with
    /// per-replica validation, since the world may have moved in the
    /// window). Invocations on local objects from other threads therefore
    /// proceed while this one waits on the provider. Nested faults — raised
    /// inside a method body, which owns the lock — still resolve under it.
    pub fn invoke(&self, target: ObjRef, method: &str, args: ObiValue) -> Result<ObiValue> {
        // Install chunks parked by an earlier streamed fault *before* this
        // invocation's latency window opens: their cost is real but must
        // not land in the caller-visible tail.
        self.pump_pending_chunks();
        let _span = trace::span(&self.shared.clock, "obi.invoke")
            .with_site(self.shared.site)
            .with_obj(target.id());
        let start = self.shared.clock.virtual_nanos();
        let result = self.invoke_resolving(target, method, args);
        self.shared.metrics.record_latency(
            LatencyKind::Invoke,
            Duration::from_nanos(self.shared.clock.virtual_nanos().saturating_sub(start)),
        );
        result
    }

    /// The fault-resolving LMI loop behind [`ObiProcess::invoke`].
    fn invoke_resolving(&self, target: ObjRef, method: &str, args: ObiValue) -> Result<ObiValue> {
        // Bounded like invoke_inner's fault loop: a budget that evicts the
        // freshly faulted object must degrade to an error, not a livelock.
        let mut attempts = 0;
        loop {
            let mut dirtied: Vec<(ObjId, SiteId)> = Vec::new();
            let outcome = self.with_inner(|inner| {
                Ok(match self.shared.space.resolve(target.id()) {
                    Resolution::Proxy(proxy) => InvokeOutcome::Fault(proxy),
                    _ => {
                        let mut modified = Vec::new();
                        let result = invoke_inner(
                            inner,
                            &self.shared,
                            target.id(),
                            method,
                            &args,
                            &mut modified,
                            0,
                        );
                        dirtied = finish_invocation(inner, &self.shared, &modified);
                        InvokeOutcome::Done(result)
                    }
                })
            })?;
            log_dirty_deltas(&self.shared, &dirtied);
            match outcome {
                InvokeOutcome::Done(result) => return result,
                InvokeOutcome::Fault(proxy) => {
                    attempts += 1;
                    if attempts > 3 {
                        return Err(ObiError::Internal(format!(
                            "object {} evaporates after every fault (budget too small?)",
                            target.id()
                        )));
                    }
                    self.shared.metrics.incr_object_faults();
                    self.resolve_fault_unlocked(&proxy)?;
                }
            }
        }
    }

    /// Resolves one top-level fault with the process lock released during
    /// the network wait. The time blocked on the provider — the demand,
    /// less the install of the last chunk it delivered — is recorded in the
    /// `fault_nanos` metric.
    ///
    /// Only chunk 0, which carries the faulted root the blocked invocation
    /// is waiting on, is materialized inside the fault window. A batch
    /// whose incremental step exceeds [`STREAM_CHUNK_OBJECTS`] streams:
    /// chunk 0 installs while chunk 1 is still in flight, and every later
    /// chunk parks for [`ObiProcess::pump_pending_chunks`], which installs
    /// it before the *next* operation's latency window opens. The
    /// caller-visible fault cost is thereby one chunk's materialization
    /// regardless of the batch step.
    fn resolve_fault_unlocked(&self, proxy: &ProxyOut) -> Result<()> {
        let _span = trace::span(&self.shared.clock, "obi.fault")
            .with_site(self.shared.site)
            .with_obj(proxy.target);
        let deadline = self.demand_deadline();
        let provider = proxy.provider;
        let mode = proxy.mode;
        let clock = &self.shared.clock;
        let start = clock.virtual_nanos();
        // Installing the last chunk is local work that follows the wire,
        // not waiting: its time is left out of the fault's wait.
        let mut last_absorb = 0u64;
        let mut absorbed: Result<()> = Ok(());
        let demanded = self.shared.client.get(
            provider,
            vec![proxy.target],
            mode,
            stream_chunk(mode),
            Some(deadline),
            &mut |index, batch| {
                let began = clock.virtual_nanos();
                let how = if index == 0 {
                    Absorb::Inline
                } else {
                    Absorb::Deferred
                };
                let result = self.absorb(index, batch, provider, mode, how, 1);
                if absorbed.is_ok() {
                    absorbed = result.map(|_| ());
                }
                last_absorb = clock.virtual_nanos().saturating_sub(began);
            },
        );
        let waited = clock
            .virtual_nanos()
            .saturating_sub(start)
            .saturating_sub(last_absorb);
        self.shared.metrics.add_fault_nanos(waited);
        self.shared
            .metrics
            .record_latency(LatencyKind::Demand, Duration::from_nanos(waited));
        demanded?;
        absorbed
    }

    /// Materializes every chunk parked by a streamed fault, oldest
    /// first. Runs at the top of each public operation — before its latency
    /// window opens — so deferred chunks are installed on the process's own
    /// time, never inside a caller-visible tail. Also safe to call directly
    /// (e.g. from an idle loop). Returns how many chunks were installed.
    pub fn pump_pending_chunks(&self) -> usize {
        let mut pumped = 0usize;
        loop {
            // Pop with the queue lock alone, then release it before taking
            // the process lock: the queue stays a leaf in the lock order.
            let Some(chunk) = self.shared.pending_chunks.lock().pop_front() else {
                break;
            };
            // A parked chunk whose root is no longer resident must NOT be
            // installed: its stream's replicas were evicted (budget
            // pressure, GC, an explicit remove) after the chunk was parked,
            // and materializing the tail now would resurrect dead replicas
            // nothing references. `Busy` still counts as resident — the
            // root is merely mid-invocation.
            let root_resident = matches!(
                self.shared.space.resolve(chunk.batch.root),
                Resolution::Object(_) | Resolution::Busy
            );
            if !root_resident {
                self.shared.metrics.incr_stale_chunks_dropped();
                continue;
            }
            let mut span = trace::span(&self.shared.clock, "obi.pump_chunk")
                .with_site(self.shared.site)
                .with_obj(chunk.batch.root);
            span.set_value(chunk.chunk_index as u64);
            // A failed install (registry mismatch after a class was
            // swapped, say) drops the chunk: its objects simply fault again
            // later, exactly as if the chunk had been lost on the wire.
            let installed = self.with_inner(|inner| {
                materialize_batch_guarded(
                    inner,
                    &self.shared,
                    &chunk.batch,
                    chunk.provider,
                    chunk.mode,
                )
            });
            if installed.is_ok() {
                pumped += 1;
            }
        }
        pumped
    }

    /// One deadline budget for one user-facing demand operation (a fault,
    /// a prefetch sweep): the RPC policy's per-call budget, anchored now.
    fn demand_deadline(&self) -> Deadline {
        Deadline::after(&self.shared.clock, self.shared.client.rpc_policy().call_budget)
    }

    /// Invokes `method` remotely (RMI) on the master via its proxy-in —
    /// "at any time, both replicas, the master and the local, can be freely
    /// invoked" (§2.1).
    pub fn invoke_rmi(&self, target: &RemoteRef, method: &str, args: ObiValue) -> Result<ObiValue> {
        let reply = self.shared.client.invoke(target, method, args)?;
        self.note_rpc_checkpoint()?;
        Ok(reply)
    }

    /// Counts one confirmed non-put RPC toward the durability layer's
    /// periodic `ClientState` checkpoint (see
    /// `DurableOptions::checkpoint_every_rpcs`). Puts refresh the persisted
    /// watermark on their own confirm path; invokes burn request seqs
    /// invisibly, so without this an RPC-heavy life between puts would lean
    /// on `SEQ_EPOCH_SKIP` alone to keep recovered seqs collision-free.
    fn note_rpc_checkpoint(&self) -> Result<()> {
        if let Some(durable) = self.shared.durable.get() {
            durable.note_confirmed_rpc(
                self.shared.client.request_seq(),
                self.shared.client.horizon_tracker().horizon(),
            )?;
        }
        Ok(())
    }

    // -- update traffic -------------------------------------------------------

    /// Sends this replica's state back to its master (`IProvide::put`),
    /// returning the master version that accepted it.
    ///
    /// # Errors
    ///
    /// * [`ObiError::ClusterMember`] — cluster members cannot be
    ///   individually updated (§4.3); use [`ObiProcess::put_cluster`].
    /// * [`ObiError::UpdateRejected`] — the master's consistency policy
    ///   refused the write-back.
    /// * [`ObiError::NotReplicated`] / [`ObiError::BadArguments`] — no such
    ///   local replica / target is a master.
    pub fn put(&self, target: ObjRef) -> Result<u64> {
        self.pump_pending_chunks();
        let _span = trace::span(&self.shared.clock, "obi.put")
            .with_site(self.shared.site)
            .with_obj(target.id());
        let start = self.shared.clock.virtual_nanos();
        let result = self.put_inner(target);
        self.shared.metrics.record_latency(
            LatencyKind::Put,
            Duration::from_nanos(self.shared.clock.virtual_nanos().saturating_sub(start)),
        );
        result
    }

    fn put_inner(&self, target: ObjRef) -> Result<u64> {
        match self.put_once(target) {
            // The addressed site no longer masters the object — mastership
            // was handed off and the reply names the successor. The old
            // request id is spent there (`put_once` already abandoned the
            // intent: the redirect is cached under it), so re-point the
            // replica's provider and retry once with a fresh id.
            Err(ObiError::MovedMaster { to, .. }) => {
                self.shared.metrics.incr_moved_master_redirects();
                self.with_inner(|_inner| {
                    self.shared.space.update_meta(target.id(), |meta| {
                        if let ReplicaKind::Replica { provider } = &mut meta.kind {
                            *provider = to;
                        }
                    });
                    Ok(())
                })?;
                self.put_once(target)
            }
            other => other,
        }
    }

    fn put_once(&self, target: ObjRef) -> Result<u64> {
        let (provider, entry) = self.with_inner(|_inner| {
            let meta = self
                .shared
                .space
                .meta(target.id())
                .ok_or(ObiError::NotReplicated(target.id()))?;
            let ReplicaKind::Replica { provider } = meta.kind else {
                return Err(ObiError::BadArguments(
                    "put applies to replicas, not masters".into(),
                ));
            };
            if meta.cluster.is_some() {
                return Err(ObiError::ClusterMember(target.id()));
            }
            let entry = replica_state_of(&self.shared.space, target.id())?;
            Ok((provider, entry))
        })?;
        self.shared
            .clock
            .charge_cpu(self.shared.costs.serialize(entry.state.len()));
        // With durability attached, the put intent (object + request seq +
        // state fingerprint) is forced to the log *before* the RPC leaves.
        // A crash after this point replays the put under the same request
        // id, and the master's reply cache deduplicates it — exactly-once
        // across restarts.
        let fingerprint = state_fingerprint(&entry);
        let request = match self.shared.durable.get() {
            Some(durable) => {
                let seq = match durable.pending_put(target.id()) {
                    // Replay of the exact state the intent covered (crash
                    // recovery, or a retry after a connectivity failure):
                    // reuse the logged id so the master dedupes it.
                    Some(pending) if pending.fingerprint == fingerprint => pending.seq,
                    // The replica was mutated again after the intent was
                    // logged. Its seq may already be spent at the master
                    // (the old state applied, the reply lost), and reusing
                    // it would serve the cached ack WITHOUT applying this
                    // state — silently dropping it. Retire the stale
                    // intent and cover the current state with a fresh one.
                    Some(_) => {
                        durable.log_put_abandoned(target.id())?;
                        let request = self.shared.client.reserve_request();
                        durable.log_put_intent(target.id(), request.seq(), fingerprint)?;
                        request.seq()
                    }
                    None => {
                        let request = self.shared.client.reserve_request();
                        durable.log_put_intent(target.id(), request.seq(), fingerprint)?;
                        request.seq()
                    }
                };
                Some(RequestId::new(self.shared.site, seq))
            }
            None => None,
        };
        let versions = match request {
            Some(request) => {
                match self.shared.client.put_with_request(provider, vec![entry], request) {
                    Ok(versions) => versions,
                    Err(e) => {
                        // A definitive (non-connectivity) rejection means the
                        // master processed this request and cached the error
                        // reply — the intent's seq is spent, and reusing it
                        // on a later put would replay the cached rejection.
                        // Connectivity failures keep the intent: the reply is
                        // unknown, so the retry must dedupe under the same id.
                        if !e.is_connectivity() {
                            if let Some(durable) = self.shared.durable.get() {
                                durable.log_put_abandoned(target.id())?;
                            }
                        }
                        return Err(e);
                    }
                }
            }
            None => self.shared.client.put(provider, vec![entry])?,
        };
        let &(_, version) = versions
            .first()
            .ok_or_else(|| ObiError::Internal("empty put reply".into()))?;
        if let Some(durable) = self.shared.durable.get() {
            durable.log_confirm(target.id(), version, fingerprint)?;
            // Refresh the persisted client watermark alongside: recovery
            // restores the request counter and reply horizon from it.
            durable.log_client_state(
                self.shared.client.request_seq(),
                self.shared.client.horizon_tracker().horizon(),
            )?;
        }
        self.with_inner(|_inner| {
            // The ack covers exactly the state we serialized. Clear dirty
            // only if the replica still holds that state — a mutation that
            // raced the RPC must stay dirty, or it would never be pushed.
            let unchanged = replica_state_of(&self.shared.space, target.id())
                .is_ok_and(|now| state_fingerprint(&now) == fingerprint);
            self.shared.space.update_meta(target.id(), |meta| {
                meta.version = version;
                if unchanged {
                    meta.dirty = false;
                }
                meta.stale = false;
            });
            Ok(())
        })?;
        Ok(version)
    }

    /// Writes a whole cluster back to its provider in one `put` (the only
    /// way to update cluster members).
    pub fn put_cluster(&self, cluster: ClusterId) -> Result<Vec<(ObjId, u64)>> {
        self.pump_pending_chunks();
        let (provider, entries) = self.with_inner(|_inner| {
            let space = &self.shared.space;
            let members: Vec<ObjId> = space
                .object_ids()
                .into_iter()
                .filter(|id| space.meta(*id).is_some_and(|m| m.cluster == Some(cluster)))
                .collect();
            if members.is_empty() {
                return Err(ObiError::BadArguments(format!(
                    "no local members of {cluster}"
                )));
            }
            let provider = match space.meta(members[0]).map(|m| m.kind) {
                Some(ReplicaKind::Replica { provider }) => provider,
                _ => {
                    return Err(ObiError::BadArguments(
                        "cluster members are not replicas".into(),
                    ))
                }
            };
            let mut entries = Vec::with_capacity(members.len());
            for id in members {
                entries.push(replica_state_of(space, id)?);
            }
            Ok((provider, entries))
        })?;
        let total: usize = entries.iter().map(|e| e.state.len()).sum();
        self.shared.clock.charge_cpu(self.shared.costs.serialize(total));
        let sent: std::collections::BTreeMap<ObjId, u64> = entries
            .iter()
            .map(|e| (e.id, state_fingerprint(e)))
            .collect();
        let versions = self.shared.client.put(provider, entries)?;
        if let Some(durable) = self.shared.durable.get() {
            // Cluster puts are not in the disconnected replay path, so no
            // intent record — but confirmed members' deltas are superseded.
            for &(id, version) in &versions {
                if let Some(&fingerprint) = sent.get(&id) {
                    durable.log_confirm(id, version, fingerprint)?;
                }
            }
        }
        self.with_inner(|_inner| {
            for &(id, version) in &versions {
                // As in `put_inner`: only the state the ack covered is
                // clean; a member mutated during the RPC stays dirty.
                let unchanged = replica_state_of(&self.shared.space, id)
                    .is_ok_and(|now| Some(state_fingerprint(&now)) == sent.get(&id).copied());
                self.shared.space.update_meta(id, |meta| {
                    meta.version = version;
                    if unchanged {
                        meta.dirty = false;
                    }
                    meta.stale = false;
                });
            }
            Ok(())
        })?;
        Ok(versions)
    }

    /// Writes every dirty replica back to its master; returns how many
    /// objects were pushed. Dirty cluster members are pushed cluster-wise.
    pub fn put_all_dirty(&self) -> Result<usize> {
        self.pump_pending_chunks();
        let (dirty_plain, dirty_clusters) = self.with_inner(|_inner| {
            let mut plain = Vec::new();
            let mut clusters = std::collections::BTreeSet::new();
            for id in self.shared.space.object_ids() {
                let Some(meta) = self.shared.space.meta(id) else {
                    continue;
                };
                if !meta.dirty || meta.kind.is_master() {
                    continue;
                }
                match meta.cluster {
                    Some(c) => {
                        clusters.insert(c);
                    }
                    None => plain.push(ObjRef::new(id)),
                }
            }
            Ok((plain, clusters))
        })?;
        let mut pushed = 0;
        for r in dirty_plain {
            self.put(r)?;
            pushed += 1;
        }
        for c in dirty_clusters {
            pushed += self.put_cluster(c)?.len();
        }
        Ok(pushed)
    }

    /// Re-fetches a replica's state from its master, discarding local
    /// modifications (`IProvide::get` on an existing replica).
    pub fn refresh(&self, target: ObjRef) -> Result<()> {
        self.pump_pending_chunks();
        let _span = trace::span(&self.shared.clock, "obi.refresh")
            .with_site(self.shared.site)
            .with_obj(target.id());
        let start = self.shared.clock.virtual_nanos();
        let result = self.refresh_inner(target);
        self.shared.metrics.record_latency(
            LatencyKind::Refresh,
            Duration::from_nanos(self.shared.clock.virtual_nanos().saturating_sub(start)),
        );
        result
    }

    fn refresh_inner(&self, target: ObjRef) -> Result<()> {
        let provider = self.with_inner(|_inner| {
            let meta = self
                .shared
                .space
                .meta(target.id())
                .ok_or(ObiError::NotReplicated(target.id()))?;
            match meta.kind {
                ReplicaKind::Replica { provider } => Ok(provider),
                ReplicaKind::Master => Err(ObiError::BadArguments(
                    "refresh applies to replicas, not masters".into(),
                )),
            }
        })?;
        let batch =
            self.shared
                .get_whole(provider, target.id(), WireMode::Incremental { batch: 1 })?;
        self.shared.metrics.incr_refreshes();
        self.with_inner(|inner| {
            materialize_batch(
                inner,
                &self.shared,
                &batch,
                provider,
                WireMode::Incremental { batch: 1 },
            )
            .map(|_| ())
        })?;
        // The replica now matches its master: any pending dirty delta in
        // the log is moot.
        if let Some(durable) = self.shared.durable.get() {
            durable.log_clean(target.id())?;
        }
        Ok(())
    }

    /// Like [`refresh`](ObiProcess::refresh), but degrading instead of
    /// failing when the master cannot be reached: on a connectivity error
    /// (partition, timeout, or a fast-fail from an open circuit breaker)
    /// with a local replica still present, the stale replica stays usable
    /// and `Ok(Freshness::Stale)` is returned — OBIWAN's disconnected
    /// degraded mode. Local dirty state is untouched, so a later
    /// [`put_all_dirty`](ObiProcess::put_all_dirty) reintegrates it once
    /// the link heals.
    pub fn refresh_or_stale(&self, target: ObjRef) -> Result<Freshness> {
        match self.refresh(target) {
            Ok(()) => Ok(Freshness::Fresh),
            Err(e) if e.is_connectivity() => {
                let have_replica =
                    self.with_inner(|_inner| Ok(self.shared.space.meta(target.id()).is_some()))?;
                if have_replica {
                    Ok(Freshness::Stale)
                } else {
                    Err(e)
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Re-fetches a whole cluster from its provider in one `get`,
    /// discarding local modifications of every member (the cluster-wise
    /// counterpart of [`ObiProcess::refresh`]).
    ///
    /// The provider mints a fresh [`ClusterId`] for the refreshed batch (a
    /// new cluster generation); the old id stops resolving. Returns the new
    /// id and the number of members refreshed.
    pub fn refresh_cluster(&self, cluster: ClusterId) -> Result<(ClusterId, usize)> {
        self.pump_pending_chunks();
        let (provider, root, size) = self.with_inner(|inner| {
            let space = &self.shared.space;
            let members = space
                .object_ids()
                .into_iter()
                .filter(|id| space.meta(*id).is_some_and(|m| m.cluster == Some(cluster)))
                .count();
            let Some(&root) = inner.cluster_roots.get(&cluster) else {
                return Err(ObiError::BadArguments(format!(
                    "unknown cluster {cluster}"
                )));
            };
            if members == 0 {
                return Err(ObiError::BadArguments(format!(
                    "no local members of {cluster}"
                )));
            }
            match space.meta(root).map(|m| m.kind) {
                Some(ReplicaKind::Replica { provider }) => Ok((provider, root, members)),
                _ => Err(ObiError::BadArguments(
                    "cluster root is not a replica".into(),
                )),
            }
        })?;
        let mode = WireMode::Cluster { size: size.max(1) as u32 };
        let batch = self.shared.get_whole(provider, root, mode)?;
        self.shared.metrics.incr_refreshes();
        let fetched = batch.replicas.len();
        let new_cluster = batch.cluster.ok_or_else(|| {
            ObiError::Internal("cluster get returned a non-cluster batch".into())
        })?;
        self.with_inner(|inner| {
            inner.cluster_roots.remove(&cluster);
            materialize_batch(inner, &self.shared, &batch, provider, mode)
        })?;
        Ok((new_cluster, fetched))
    }

    /// Subscribes this process to consistency traffic for a replica it
    /// holds: `push = false` for invalidations, `true` for full updates.
    pub fn subscribe(&self, target: ObjRef, push: bool) -> Result<()> {
        let provider = self.with_inner(|_inner| {
            let meta = self
                .shared
                .space
                .meta(target.id())
                .ok_or(ObiError::NotReplicated(target.id()))?;
            match meta.kind {
                ReplicaKind::Replica { provider } => Ok(provider),
                ReplicaKind::Master => Err(ObiError::BadArguments(
                    "masters do not subscribe to themselves".into(),
                )),
            }
        })?;
        self.shared.client.subscribe(provider, target.id(), push)
    }

    // -- connectivity ---------------------------------------------------------

    /// Round-trip connectivity probe to `site`.
    pub fn ping(&self, site: SiteId) -> Result<()> {
        self.shared.client.ping(site)
    }

    /// The clock this process charges time to (shared with the transport).
    pub fn clock(&self) -> &Clock {
        &self.shared.clock
    }

    /// True when the transport currently routes to `site`.
    pub fn can_reach(&self, site: SiteId) -> bool {
        self.shared.client.is_reachable(site)
    }

    /// Current circuit-breaker state for the link to `site`. An `Open`
    /// breaker means calls fail fast without touching the network until
    /// the cooldown admits a probe.
    pub fn breaker_state(&self, site: SiteId) -> BreakerState {
        self.shared.client.breaker_state(site)
    }

    /// Replaces the RPC retry policy (retries, per-call deadline budget,
    /// backoff bounds) used by every request this process issues.
    pub fn set_rpc_policy(&self, policy: RetryPolicy) {
        self.shared.client.set_rpc_policy(policy);
    }

    /// The RPC retry policy currently in force.
    pub fn rpc_policy(&self) -> RetryPolicy {
        self.shared.client.rpc_policy()
    }

    // -- inspection -----------------------------------------------------------

    /// What `target` currently resolves to in this process.
    pub fn resolution(&self, target: ObjRef) -> Resolution {
        self.with_inner(|_inner| Ok(self.shared.space.resolve(target.id())))
            .unwrap_or(Resolution::Busy)
    }

    /// Metadata of a live local object, if any.
    pub fn meta_of(&self, target: ObjRef) -> Option<ObjectMeta> {
        self.with_inner(|_inner| Ok(self.shared.space.meta(target.id())))
            .ok()
            .flatten()
    }

    /// True when `target` resolves to a live local object.
    pub fn is_replicated(&self, target: ObjRef) -> bool {
        matches!(self.resolution(target), Resolution::Object(_))
    }

    /// A snapshot of a live object's serialized state (reads do not count
    /// as invocations).
    pub fn state_of(&self, target: ObjRef) -> Result<ObiValue> {
        self.with_inner(|_inner| self.shared.space.with_object(target.id(), |o, _| o.state()))
    }

    /// Number of live objects (masters + replicas).
    pub fn object_count(&self) -> usize {
        self.with_inner(|_inner| Ok(self.shared.space.object_ids().len()))
            .unwrap_or(0)
    }

    /// Number of outstanding proxy-out slots.
    pub fn proxy_count(&self) -> usize {
        self.with_inner(|_inner| Ok(self.shared.space.proxy_count()))
            .unwrap_or(0)
    }

    /// Marks an application-held reference as a GC root.
    pub fn add_root(&self, target: ObjRef) {
        let _ = self.with_inner(|_inner| {
            self.shared.space.add_root(target.id());
            Ok(())
        });
    }

    /// Unmarks a GC root.
    pub fn remove_root(&self, target: ObjRef) {
        let _ = self.with_inner(|_inner| {
            self.shared.space.remove_root(target.id());
            Ok(())
        });
    }

    /// Runs the space's mark-and-sweep (see
    /// [`crate::space::ObjectSpace::collect_garbage`]); reclaimed proxies are counted in
    /// this process's metrics.
    pub fn collect_garbage(&self, collect_replicas: bool) -> GcStats {
        self.with_inner(|_inner| {
            let stats = self.shared.space.collect_garbage(collect_replicas);
            self.shared
                .metrics
                .add_proxies_reclaimed(stats.proxies_reclaimed as u64);
            Ok(stats)
        })
        .unwrap_or_default()
    }

    // -- membership -----------------------------------------------------------

    /// Joins a live world: enrolls this site at the name server and returns
    /// the bootstrap view (the current peers plus the bound-name catalog).
    /// Admission is idempotent at the server, so a joiner retrying under
    /// loss enrolls exactly once. Replicas are then demanded through the
    /// ordinary incremental pipeline (`lookup` + proxy faulting) while the
    /// rest of the world keeps serving.
    pub fn join(&self) -> Result<JoinInfo> {
        self.shared.client.join(self.shared.ns_site)
    }

    /// Announces a graceful departure: a `Leave` one-way to the name server
    /// (which drops this site from the roster) and to each given peer
    /// (which retires its connectivity state for this site). Best-effort by
    /// design — a frame lost here degrades to the crash-leave path, where
    /// peers retire the site once its breaker opens.
    pub fn leave(&self, peers: &[SiteId]) {
        let _ = self
            .shared
            .client
            .send_leave(self.shared.ns_site, self.shared.site);
        for &peer in peers {
            if peer == self.shared.site || peer == self.shared.ns_site {
                continue;
            }
            let _ = self.shared.client.send_leave(peer, self.shared.site);
        }
    }

    /// Retires `peer` from this site's connectivity tracking: its circuit
    /// breaker slot is dropped, so a departed site stops consuming probe
    /// budget and a future rejoin starts from a clean `Closed` state.
    pub fn retire_peer(&self, peer: SiteId) {
        self.shared.client.breaker().retire_peer(peer);
        self.shared.metrics.incr_peers_retired();
    }

    /// Hands mastership of `root` (and every locally-mastered object
    /// reachable from it) to `successor`, without quiescing: in-flight puts
    /// serialize against the demotion on the process lock, and any put that
    /// arrives after it is answered with [`ObiError::MovedMaster`] so the
    /// caller re-targets the successor with a fresh request id.
    ///
    /// Ordering is demote-first: the transferred objects flip to replicas
    /// pointing at `successor` *before* the state leaves this site, so there
    /// is never a moment with two masters — the failure mode under loss is
    /// an orphaned root (no master until a retry lands), never a split one.
    /// With durability attached, a `HandoffIntent` is forced to the log
    /// before the RPC and a `HandoffComplete` after the ack; recovery from a
    /// crash anywhere in between points the demoted replicas at `successor`
    /// and never resurrects a second master here.
    ///
    /// Retryable: if a previous attempt to the *same* successor failed after
    /// demotion, the (clean, fully-populated) local replicas still hold the
    /// state, and calling again re-sends it. The successor installs
    /// idempotently, version-guarded, so duplicate deliveries are safe.
    ///
    /// Returns the root's version as installed at the successor.
    pub fn handoff(&self, root: ObjRef, successor: SiteId) -> Result<u64> {
        self.pump_pending_chunks();
        let _span = trace::span(&self.shared.clock, "obi.handoff")
            .with_site(self.shared.site)
            .with_obj(root.id());
        if successor == self.shared.site {
            return Err(ObiError::BadArguments(
                "handoff successor must be a different site".into(),
            ));
        }
        if let Some(durable) = self.shared.durable.get() {
            durable.log_handoff_intent(root.id(), successor)?;
        }
        // Collect the transfer set and demote it in one process-lock
        // section: every put either fully applied before this point (its
        // effect is in the serialized entries) or observes replicas and is
        // redirected. Nothing in between.
        let entries = self.with_inner(|_inner| {
            let meta = self
                .shared
                .space
                .meta(root.id())
                .ok_or(ObiError::NoSuchObject(root.id()))?;
            let retrying = match meta.kind {
                ReplicaKind::Master => false,
                // A crashed or failed earlier attempt already demoted us
                // toward this same successor; re-send from the replicas.
                ReplicaKind::Replica { provider } if provider == successor => true,
                ReplicaKind::Replica { provider } => {
                    return Err(ObiError::MovedMaster {
                        object: root.id(),
                        to: provider,
                    })
                }
            };
            let mut queue = VecDeque::from([root.id()]);
            let mut seen = HashSet::from([root.id()]);
            let mut ids = Vec::new();
            while let Some(id) = queue.pop_front() {
                let transferable = self.shared.space.meta(id).is_some_and(|m| match m.kind {
                    ReplicaKind::Master => true,
                    ReplicaKind::Replica { provider } => retrying && provider == successor,
                });
                if !transferable {
                    // Replicas of remote masters and proxies stay put; the
                    // successor will fault them on demand like anyone else.
                    continue;
                }
                ids.push(id);
                if let Ok(refs) = self.shared.space.with_object(id, |o, _| o.refs()) {
                    for r in refs {
                        if seen.insert(r.id()) {
                            queue.push_back(r.id());
                        }
                    }
                }
            }
            let mut entries = Vec::with_capacity(ids.len());
            for id in &ids {
                entries.push(replica_state_of(&self.shared.space, *id)?);
            }
            for id in &ids {
                self.shared.space.update_meta(*id, |meta| {
                    meta.kind = ReplicaKind::Replica {
                        provider: successor,
                    };
                    // The successor's install is the authoritative copy of
                    // exactly these bytes; nothing here needs pushing back.
                    meta.dirty = false;
                    meta.stale = false;
                });
            }
            Ok(entries)
        })?;
        let total: usize = entries.iter().map(|e| e.state.len()).sum();
        self.shared.clock.charge_cpu(self.shared.costs.serialize(total));
        let version = self.shared.client.handoff(successor, root.id(), entries)?;
        if let Some(durable) = self.shared.durable.get() {
            durable.log_handoff_complete(root.id())?;
        }
        self.with_inner(|_inner| {
            self.shared.space.update_meta(root.id(), |meta| {
                meta.version = version;
            });
            Ok(())
        })?;
        self.shared.metrics.incr_handoffs_completed();
        Ok(version)
    }
}

/// Breadth-first search from `root` over live objects collecting every
/// reachable proxy-out target (the objects a walk from `root` could fault
/// on), in discovery order.
fn reachable_frontier<S: SpaceView>(space: &S, root: ObjId) -> Vec<ObjId> {
    let mut queue = VecDeque::new();
    let mut seen = std::collections::HashSet::new();
    let mut frontier = Vec::new();
    queue.push_back(root);
    seen.insert(root);
    while let Some(id) = queue.pop_front() {
        match space.resolve(id) {
            Resolution::Proxy(_) => frontier.push(id),
            Resolution::Object(_) => {
                if let Ok(refs) = space.with_object(id, |o, _| o.refs()) {
                    for r in refs {
                        if seen.insert(r.id()) {
                            queue.push_back(r.id());
                        }
                    }
                }
            }
            _ => {}
        }
    }
    frontier
}

fn replica_state_of(space: &ShardedSpace, id: ObjId) -> Result<ReplicaState> {
    space.with_object(id, |o, m| replica_state(id, o, m))
}

// ---------------------------------------------------------------------------
// The service endpoint (skeleton side)
// ---------------------------------------------------------------------------

struct ProcessService {
    shared: Arc<ProcessShared>,
}

impl ProcessService {
    fn enter(&self) -> Result<LockGuard<'_>> {
        self.shared.lock.enter(self.shared.site)
    }

    fn with_inner<R>(&self, f: impl FnOnce(&mut ProcessInner) -> Result<R>) -> Result<R> {
        let (result, flush) = {
            let mut g = self.enter()?;
            let result = f(&mut g);
            let flush = std::mem::take(&mut g.outbox);
            (result, flush)
        };
        for (to, msg) in flush {
            let _ = match msg {
                Message::Invalidate { objects } => {
                    self.shared.client.send_invalidate(to, objects)
                }
                Message::UpdatePush { entries } => {
                    self.shared.client.send_update_push(to, entries)
                }
                _ => Ok(()),
            };
        }
        result
    }

    /// Mints the closure that names the next cluster batch. The counter is
    /// atomic, so concurrent serve-gets each draw a distinct generation.
    fn next_cluster(&self) -> impl FnOnce() -> ClusterId {
        let site = self.shared.site;
        let current = self.shared.cluster_seq.fetch_add(1, Ordering::Relaxed);
        move || ClusterId::new(site, current)
    }

    /// The serve-get fast path: builds the batch straight off the sharded
    /// space, one shard read at a time, *without* the process lock. Remote
    /// readers therefore scale with the shard count while local invocations
    /// keep serializing on the process lock.
    ///
    /// The one semantic difference from the locked path: a slot owned by an
    /// in-flight invocation reads as `Busy` (the locked path would have
    /// waited the invocation out). Callers retry under the process lock on
    /// any error, which restores exactly the old blocking behavior.
    ///
    /// Then charges provider-side marshalling and registers proxy-ins so
    /// replicas can be individually updated (one per object) or
    /// cluster-updated (root only).
    fn serve_get_fast(&self, targets: &[ObjId], mode: WireMode) -> Result<ReplicaBatch> {
        let batch = build_batch_many(&self.shared.space, targets, mode, self.next_cluster())?;
        self.shared
            .clock
            .charge_cpu(self.shared.costs.serialize(batch.state_bytes()));
        let mut exports = self.shared.exports.write();
        match batch.cluster {
            Some(_) => {
                exports.entry(batch.root).or_default();
            }
            None => {
                for r in &batch.replicas {
                    exports.entry(r.id).or_default();
                }
            }
        }
        drop(exports);
        Ok(batch)
    }
}

fn apply_one_way(inner: &mut ProcessInner, shared: &ProcessShared, _from: SiteId, msg: Message) {
    let _ = inner;
    match msg {
        Message::Invalidate { objects } => {
            for id in objects {
                shared.space.update_meta(id, |meta| {
                    if !meta.kind.is_master() {
                        meta.stale = true;
                    }
                });
            }
        }
        Message::UpdatePush { entries } => {
            for state in entries {
                let Some(meta) = shared.space.meta(state.id) else {
                    continue;
                };
                if meta.kind.is_master() {
                    continue;
                }
                if meta.dirty {
                    // Local un-pushed edits win locally; remember staleness.
                    shared.space.update_meta(state.id, |m| m.stale = true);
                    continue;
                }
                let ReplicaKind::Replica { provider } = meta.kind else {
                    continue;
                };
                let Ok(object) = shared.registry.decode(&state.class, &state.state) else {
                    continue;
                };
                let mut new_meta = ObjectMeta::replica(state.id, provider, state.version);
                new_meta.cluster = meta.cluster;
                shared.space.insert_object(ObjectEntry {
                    object,
                    meta: new_meta,
                });
            }
        }
        _ => {}
    }
}

impl RmiService for ProcessService {
    fn invoke(
        &self,
        _from: SiteId,
        target: ObjId,
        method: &str,
        args: ObiValue,
    ) -> Result<ObiValue> {
        let mut dirtied: Vec<(ObjId, SiteId)> = Vec::new();
        let result = self.with_inner(|inner| {
            let mut modified = Vec::new();
            let result = invoke_inner(inner, &self.shared, target, method, &args, &mut modified, 0);
            dirtied = finish_invocation(inner, &self.shared, &modified);
            result
        });
        log_dirty_deltas(&self.shared, &dirtied);
        result
    }

    fn get_many(&self, _from: SiteId, targets: &[ObjId], mode: WireMode) -> Result<ReplicaBatch> {
        let _span = trace::span(&self.shared.clock, "obi.serve_get")
            .with_site(self.shared.site)
            .with_value(targets.len() as u64);
        match self.serve_get_fast(targets, mode) {
            Ok(batch) => Ok(batch),
            // A miss may mean a concurrent invocation holds a slot Busy;
            // the process lock waits every invocation out, then the slot is
            // live again (or genuinely absent).
            Err(_) => self.with_inner(|_inner| self.serve_get_fast(targets, mode)),
        }
    }

    fn put(&self, from: SiteId, entries: Vec<ReplicaState>) -> Result<Vec<(ObjId, u64)>> {
        self.with_inner(|inner| {
            // Phase 1: validate every entry against the policy, atomically.
            for entry in &entries {
                let meta = self
                    .shared
                    .space
                    .meta(entry.id)
                    .ok_or(ObiError::NoSuchObject(entry.id))?;
                if !meta.kind.is_master() {
                    // A demoted ex-master knows where mastership went: its
                    // replica's provider is the handoff successor. Answer
                    // with a redirect so the client re-targets instead of
                    // treating the put as definitively rejected.
                    if let ReplicaKind::Replica { provider } = meta.kind {
                        return Err(ObiError::MovedMaster {
                            object: entry.id,
                            to: provider,
                        });
                    }
                    return Err(ObiError::UpdateRejected {
                        object: entry.id,
                        reason: "target is not the master replica".into(),
                    });
                }
                let master_version = meta.version;
                if let Err(e) = inner
                    .policy
                    .decide_put(entry.id, master_version, entry.version)
                {
                    self.shared.metrics.incr_conflicts_detected();
                    return Err(e);
                }
            }
            // Phase 2: apply.
            let mut versions = Vec::with_capacity(entries.len());
            for entry in &entries {
                let object = self.shared.registry.decode(&entry.class, &entry.state)?;
                let new_version = {
                    let meta = self
                        .shared
                        .space
                        .meta(entry.id)
                        .ok_or(ObiError::NoSuchObject(entry.id))?;
                    meta.version + 1
                };
                let mut meta = ObjectMeta::master(entry.id);
                meta.version = new_version;
                self.shared.space.insert_object(ObjectEntry { object, meta });
                inner.policy.on_master_updated(entry.id, new_version);
                self.shared.metrics.incr_puts();
                versions.push((entry.id, new_version));
                queue_notifications(inner, &self.shared, entry.id, from);
            }
            Ok(versions)
        })
    }

    fn handoff(&self, from: SiteId, root: ObjId, entries: Vec<ReplicaState>) -> Result<u64> {
        if entries.is_empty() {
            return Err(ObiError::BadArguments("handoff carries no entries".into()));
        }
        if !entries.iter().any(|e| e.id == root) {
            return Err(ObiError::BadArguments(
                "handoff entries do not include the root".into(),
            ));
        }
        self.with_inner(|inner| {
            let mut root_version = 0;
            for entry in &entries {
                // Idempotent install: a duplicate delivery (the ack was
                // lost, the predecessor retried) must not regress state
                // this master has advanced since the first copy landed.
                if let Some(meta) = self.shared.space.meta(entry.id) {
                    if meta.kind.is_master() && meta.version >= entry.version {
                        if entry.id == root {
                            root_version = meta.version;
                        }
                        continue;
                    }
                }
                let object = self.shared.registry.decode(&entry.class, &entry.state)?;
                let mut meta = ObjectMeta::master(entry.id);
                meta.version = entry.version;
                self.shared.space.insert_object(ObjectEntry { object, meta });
                inner.policy.on_master_updated(entry.id, entry.version);
                if entry.id == root {
                    root_version = entry.version;
                }
                // Anyone holding a replica from the old master keeps
                // working: this site now answers their gets and puts.
                self.shared
                    .exports
                    .write()
                    .entry(entry.id)
                    .or_default()
                    .subscribe(from, false);
            }
            // The transferred graph is live by definition — the predecessor
            // was serving it — so pin the root against the next sweep.
            self.shared.space.add_root(root);
            Ok(root_version)
        })
    }

    fn leave_notice(&self, _from: SiteId, site: SiteId) {
        self.shared.client.breaker().retire_peer(site);
        self.shared.metrics.incr_peers_retired();
    }

    fn name_op(&self, _from: SiteId, op: NameOp) -> Result<ObiValue> {
        // Object-space hosts do not serve names; the world's dedicated name
        // server site does. Reject with the proper error.
        let name = match op {
            NameOp::Bind { name, .. } | NameOp::Lookup { name } | NameOp::Unbind { name } => name,
            NameOp::List => "*".to_owned(),
        };
        Err(ObiError::NameNotBound(name))
    }

    fn subscribe(&self, from: SiteId, object: ObjId, push: bool) -> Result<ObiValue> {
        self.with_inner(|_inner| {
            if !matches!(self.shared.space.resolve(object), Resolution::Object(_)) {
                return Err(ObiError::NoSuchObject(object));
            }
            self.shared
                .exports
                .write()
                .entry(object)
                .or_default()
                .subscribe(from, push);
            Ok(ObiValue::Null)
        })
    }

    fn invalidate(&self, from: SiteId, objects: Vec<ObjId>) {
        let msg = Message::Invalidate { objects };
        match self.enter() {
            Ok(mut g) => apply_one_way(&mut g, &self.shared, from, msg),
            Err(_) => self.shared.inbox.lock().push_back((from, msg)),
        }
    }

    fn update_push(&self, from: SiteId, entries: Vec<ReplicaState>) {
        let msg = Message::UpdatePush { entries };
        match self.enter() {
            Ok(mut g) => apply_one_way(&mut g, &self.shared, from, msg),
            Err(_) => self.shared.inbox.lock().push_back((from, msg)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{Counter, LinkedItem, PayloadNode, TreeNode};
    use crate::world::ObiWorld;

    /// Builds a world with two sites and a list of `n` LinkedItems exported
    /// from the second site under "head". Returns (world, s1, s2, node refs).
    fn list_world(n: usize) -> (ObiWorld, SiteId, SiteId, Vec<ObjRef>) {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("S1");
        let s2 = world.add_site("S2");
        let mut refs: Vec<ObjRef> = Vec::new();
        let mut next: Option<ObjRef> = None;
        for i in (0..n).rev() {
            let mut item = LinkedItem::new(i as i64, format!("n{i}"));
            item.set_next(next);
            let r = world.site(s2).create(item);
            next = Some(r);
            refs.push(r);
        }
        refs.reverse();
        world.site(s2).export(refs[0], "head").unwrap();
        (world, s1, s2, refs)
    }

    #[test]
    fn incremental_get_replicates_only_the_batch() {
        let (world, s1, _s2, refs) = list_world(10);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(3))
            .unwrap();
        assert_eq!(root, refs[0]);
        for r in &refs[..3] {
            assert!(world.site(s1).is_replicated(*r));
        }
        assert!(matches!(
            world.site(s1).resolution(refs[3]),
            Resolution::Proxy(_)
        ));
        for r in &refs[4..] {
            assert!(matches!(world.site(s1).resolution(*r), Resolution::Absent));
        }
        assert_eq!(world.site(s1).metrics().snapshot().replicas_created, 3);
    }

    #[test]
    fn walking_the_list_faults_in_batches() {
        let (world, s1, _s2, refs) = list_world(10);
        let remote = world.site(s1).lookup("head").unwrap();
        let mut cur = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(2))
            .unwrap();
        // Walk the whole list via `touch`, which returns the next ref.
        let mut visited = 0;
        loop {
            let out = world.site(s1).invoke(cur, "touch", ObiValue::Null).unwrap();
            visited += 1;
            match out.as_ref_id() {
                Some(next) => cur = ObjRef::new(next),
                None => break,
            }
        }
        assert_eq!(visited, 10);
        let snap = world.site(s1).metrics().snapshot();
        // 10 objects in batches of 2, first 2 from the initial get: 4 faults.
        assert_eq!(snap.object_faults, 4);
        assert_eq!(snap.replicas_created, 10);
        assert_eq!(snap.lmi_count, 10);
        for r in &refs {
            assert!(world.site(s1).is_replicated(*r));
        }
        // Tail has no frontier; no proxies remain.
        assert_eq!(world.site(s1).proxy_count(), 0);
    }

    #[test]
    fn streamed_fault_parks_tail_chunks_for_the_pump() {
        let (world, s1, _s2, refs) = list_world(30);
        let remote = world.site(s1).lookup("head").unwrap();
        world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(20))
            .unwrap();
        // Touching the frontier proxy streams the remaining 10 objects:
        // chunk 0 (8 objects) installs inline inside the fault window, the
        // tail chunk parks for the next operation's pump.
        world
            .site(s1)
            .invoke(refs[20], "touch", ObiValue::Null)
            .unwrap();
        for r in &refs[20..28] {
            assert!(world.site(s1).is_replicated(*r));
        }
        assert!(!world.site(s1).is_replicated(refs[28]));
        let pumped = world.site(s1).pump_pending_chunks();
        assert_eq!(pumped, 1);
        for r in &refs[20..] {
            assert!(world.site(s1).is_replicated(*r));
        }
        let snap = world.site(s1).metrics().snapshot();
        // One chunk for the whole get, two for the streamed fault.
        assert_eq!(snap.demand_chunks, 1 + 2);
        assert_eq!(snap.replicas_created, 30);
        // Exactly one streamed round trip resolved the fault.
        assert_eq!(snap.stream_resumes, 0);
    }

    #[test]
    fn public_operations_pump_parked_chunks_before_their_own_window() {
        let (world, s1, _s2, refs) = list_world(30);
        let remote = world.site(s1).lookup("head").unwrap();
        world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(20))
            .unwrap();
        world
            .site(s1)
            .invoke(refs[20], "touch", ObiValue::Null)
            .unwrap();
        assert!(!world.site(s1).is_replicated(refs[28]));
        // Any public entry point drains the queue before doing its work.
        world
            .site(s1)
            .invoke(refs[0], "touch", ObiValue::Null)
            .unwrap();
        for r in &refs {
            assert!(world.site(s1).is_replicated(*r));
        }
        assert_eq!(world.site(s1).proxy_count(), 0);
    }

    #[test]
    fn nested_invocation_faults_transparently() {
        let (world, s1, _s2, refs) = list_world(3);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        // sum_rest recurses through two faults.
        let v = world
            .site(s1)
            .invoke(root, "sum_rest", ObiValue::Null)
            .unwrap();
        assert_eq!(v, ObiValue::I64(3)); // 0 + 1 + 2
        assert_eq!(world.site(s1).metrics().snapshot().object_faults, 2);
        assert!(world.site(s1).is_replicated(refs[2]));
    }

    #[test]
    fn transitive_closure_replicates_everything_upfront() {
        let (world, s1, _s2, refs) = list_world(20);
        let remote = world.site(s1).lookup("head").unwrap();
        world
            .site(s1)
            .get(&remote, ReplicationMode::transitive())
            .unwrap();
        for r in &refs {
            assert!(world.site(s1).is_replicated(*r));
        }
        assert_eq!(world.site(s1).metrics().snapshot().object_faults, 0);
        assert_eq!(world.site(s1).proxy_count(), 0);
    }

    #[test]
    fn cluster_get_creates_one_proxy_pair_per_batch() {
        let (world, s1, _s2, _refs) = list_world(10);
        let remote = world.site(s1).lookup("head").unwrap();
        let mut cur = world
            .site(s1)
            .get(&remote, ReplicationMode::cluster(5))
            .unwrap();
        loop {
            let out = world.site(s1).invoke(cur, "touch", ObiValue::Null).unwrap();
            match out.as_ref_id() {
                Some(next) => cur = ObjRef::new(next),
                None => break,
            }
        }
        let snap = world.site(s1).metrics().snapshot();
        assert_eq!(snap.replicas_created, 10);
        // 2 cluster batches -> 2 proxy pairs (vs 10 in incremental mode).
        assert_eq!(snap.proxy_pairs_created, 2);
    }

    #[test]
    fn cluster_members_cannot_be_put_individually() {
        let (world, s1, _s2, refs) = list_world(4);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::cluster(4))
            .unwrap();
        world
            .site(s1)
            .invoke(root, "set_value", ObiValue::I64(99))
            .unwrap();
        let err = world.site(s1).put(refs[0]).unwrap_err();
        assert!(matches!(err, ObiError::ClusterMember(_)));
    }

    #[test]
    fn put_cluster_writes_all_members_back() {
        let (world, s1, s2, refs) = list_world(3);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::cluster(3))
            .unwrap();
        world
            .site(s1)
            .invoke(root, "set_value", ObiValue::I64(42))
            .unwrap();
        let cluster = world.site(s1).meta_of(root).unwrap().cluster.unwrap();
        let versions = world.site(s1).put_cluster(cluster).unwrap();
        assert_eq!(versions.len(), 3);
        // Master sees the new value.
        let v = world.site(s2).invoke(refs[0], "value", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(42));
        // Replica is clean again.
        assert!(!world.site(s1).meta_of(root).unwrap().dirty);
    }

    #[test]
    fn put_writes_replica_back_and_bumps_version() {
        let (world, s1, s2, refs) = list_world(2);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        world
            .site(s1)
            .invoke(root, "set_value", ObiValue::I64(7))
            .unwrap();
        assert!(world.site(s1).meta_of(root).unwrap().dirty);
        let version = world.site(s1).put(root).unwrap();
        assert_eq!(version, 2);
        let meta = world.site(s1).meta_of(root).unwrap();
        assert!(!meta.dirty);
        assert_eq!(meta.version, 2);
        let v = world.site(s2).invoke(refs[0], "value", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(7));
    }

    #[test]
    fn put_on_master_is_rejected() {
        let (world, _s1, s2, refs) = list_world(1);
        assert!(matches!(
            world.site(s2).put(refs[0]),
            Err(ObiError::BadArguments(_))
        ));
    }

    #[test]
    fn refresh_discards_local_changes() {
        let (world, s1, s2, refs) = list_world(1);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        // Diverge: replica says 5, master says 9.
        world
            .site(s1)
            .invoke(root, "set_value", ObiValue::I64(5))
            .unwrap();
        world
            .site(s2)
            .invoke(refs[0], "set_value", ObiValue::I64(9))
            .unwrap();
        world.site(s1).refresh(root).unwrap();
        let v = world.site(s1).invoke(root, "value", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(9));
        let meta = world.site(s1).meta_of(root).unwrap();
        assert!(!meta.dirty);
        assert_eq!(world.site(s1).metrics().snapshot().refreshes, 1);
    }

    #[test]
    fn rmi_and_lmi_agree_on_results() {
        let (world, s1, _s2, _refs) = list_world(1);
        let remote = world.site(s1).lookup("head").unwrap();
        let via_rmi = world
            .site(s1)
            .invoke_rmi(&remote, "value", ObiValue::Null)
            .unwrap();
        let local = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        let via_lmi = world.site(s1).invoke(local, "value", ObiValue::Null).unwrap();
        assert_eq!(via_rmi, via_lmi);
        assert_eq!(world.site(s1).metrics().snapshot().lmi_count, 1);
    }

    #[test]
    fn master_can_still_be_invoked_via_rmi_after_replication() {
        // Paper §2.1: "at any time, both replicas, the master and the
        // local, can be freely invoked".
        let (world, s1, _s2, _refs) = list_world(1);
        let remote = world.site(s1).lookup("head").unwrap();
        let local = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        world
            .site(s1)
            .invoke(local, "set_value", ObiValue::I64(123))
            .unwrap();
        // The master is untouched until a put.
        let master_v = world
            .site(s1)
            .invoke_rmi(&remote, "value", ObiValue::Null)
            .unwrap();
        assert_eq!(master_v, ObiValue::I64(0));
    }

    #[test]
    fn invalidation_subscription_marks_replicas_stale() {
        let (world, s1, s2, refs) = list_world(1);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        world.site(s1).subscribe(root, false).unwrap();
        assert!(!world.site(s1).meta_of(root).unwrap().stale);
        // Master mutates -> invalidation flows to S1.
        world
            .site(s2)
            .invoke(refs[0], "set_value", ObiValue::I64(3))
            .unwrap();
        world.pump();
        assert!(world.site(s1).meta_of(root).unwrap().stale);
        // Refresh clears staleness.
        world.site(s1).refresh(root).unwrap();
        assert!(!world.site(s1).meta_of(root).unwrap().stale);
    }

    #[test]
    fn push_subscription_updates_replica_state() {
        let (world, s1, s2, refs) = list_world(1);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        world.site(s1).subscribe(root, true).unwrap();
        world
            .site(s2)
            .invoke(refs[0], "set_value", ObiValue::I64(77))
            .unwrap();
        world.pump();
        let v = world.site(s1).invoke(root, "value", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(77));
        assert!(!world.site(s1).meta_of(root).unwrap().stale);
    }

    #[test]
    fn pushed_updates_do_not_clobber_dirty_replicas() {
        let (world, s1, s2, refs) = list_world(1);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        world.site(s1).subscribe(root, true).unwrap();
        // Local edit first.
        world
            .site(s1)
            .invoke(root, "set_value", ObiValue::I64(1))
            .unwrap();
        // Remote edit pushes.
        world
            .site(s2)
            .invoke(refs[0], "set_value", ObiValue::I64(2))
            .unwrap();
        world.pump();
        // Local edit survives; staleness is recorded.
        let v = world.site(s1).invoke(root, "value", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(1));
        let meta = world.site(s1).meta_of(root).unwrap();
        assert!(meta.dirty);
        assert!(meta.stale);
    }

    #[test]
    fn put_all_dirty_pushes_everything() {
        let (world, s1, s2, refs) = list_world(3);
        let remote = world.site(s1).lookup("head").unwrap();
        world
            .site(s1)
            .get(&remote, ReplicationMode::transitive())
            .unwrap();
        for (i, r) in refs.iter().enumerate() {
            world
                .site(s1)
                .invoke(*r, "set_value", ObiValue::I64(100 + i as i64))
                .unwrap();
        }
        let pushed = world.site(s1).put_all_dirty().unwrap();
        assert_eq!(pushed, 3);
        for (i, r) in refs.iter().enumerate() {
            let v = world.site(s2).invoke(*r, "value", ObiValue::Null).unwrap();
            assert_eq!(v, ObiValue::I64(100 + i as i64));
        }
        // Second call has nothing to do.
        assert_eq!(world.site(s1).put_all_dirty().unwrap(), 0);
    }

    #[test]
    fn disconnected_work_on_colocated_objects() {
        // The paper's headline scenario: replicate, disconnect, keep
        // working, reconnect, reintegrate.
        let (world, s1, s2, refs) = list_world(5);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::transitive())
            .unwrap();
        world.disconnect(s1);
        // LMI still works offline.
        for _ in 0..10 {
            world.site(s1).invoke(root, "touch", ObiValue::Null).unwrap();
        }
        world
            .site(s1)
            .invoke(root, "set_value", ObiValue::I64(5))
            .unwrap();
        // RMI fails with a connectivity error, as does put.
        assert!(world
            .site(s1)
            .invoke_rmi(&remote, "value", ObiValue::Null)
            .unwrap_err()
            .is_connectivity());
        assert!(world.site(s1).put(root).unwrap_err().is_connectivity());
        // Replica is still dirty, nothing was lost.
        assert!(world.site(s1).meta_of(root).unwrap().dirty);
        world.reconnect(s1);
        world.site(s1).put(root).unwrap();
        let v = world.site(s2).invoke(refs[0], "value", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(5));
    }

    #[test]
    fn faulting_while_disconnected_fails_but_replicated_prefix_works() {
        let (world, s1, _s2, refs) = list_world(4);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(2))
            .unwrap();
        world.disconnect(s1);
        // First two objects are local.
        world.site(s1).invoke(root, "touch", ObiValue::Null).unwrap();
        world.site(s1).invoke(refs[1], "touch", ObiValue::Null).unwrap();
        // The third faults, and the fault cannot be resolved.
        let err = world
            .site(s1)
            .invoke(refs[2], "touch", ObiValue::Null)
            .unwrap_err();
        assert!(err.is_connectivity());
    }

    #[test]
    fn rejecting_policy_blocks_puts() {
        struct RejectAll;
        impl ConsistencyHook for RejectAll {
            fn name(&self) -> &'static str {
                "reject-all"
            }
            fn decide_put(&mut self, object: ObjId, _mv: u64, _bv: u64) -> Result<()> {
                Err(ObiError::UpdateRejected {
                    object,
                    reason: "policy says no".into(),
                })
            }
        }
        let (world, s1, s2, _refs) = list_world(1);
        world.site(s2).set_policy(Box::new(RejectAll));
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        world
            .site(s1)
            .invoke(root, "set_value", ObiValue::I64(9))
            .unwrap();
        let err = world.site(s1).put(root).unwrap_err();
        assert!(matches!(err, ObiError::UpdateRejected { .. }));
        // Replica stays dirty for a later retry.
        assert!(world.site(s1).meta_of(root).unwrap().dirty);
        assert_eq!(world.site(s2).metrics().snapshot().conflicts_detected, 1);
    }

    #[test]
    fn tree_replication_faults_branches_independently() {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("S1");
        let s2 = world.add_site("S2");
        let leaf1 = world.site(s2).create(TreeNode::new("l1"));
        let leaf2 = world.site(s2).create(TreeNode::new("l2"));
        let mid = world
            .site(s2)
            .create(TreeNode::with_children("mid", vec![leaf1, leaf2]));
        let root = world
            .site(s2)
            .create(TreeNode::with_children("root", vec![mid]));
        world.site(s2).export(root, "tree").unwrap();

        let remote = world.site(s1).lookup("tree").unwrap();
        let local = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        let count = world
            .site(s1)
            .invoke(local, "deep_count", ObiValue::Null)
            .unwrap();
        assert_eq!(count, ObiValue::I64(4));
        assert!(world.site(s1).is_replicated(leaf2));
    }

    #[test]
    fn gc_reclaims_proxies_after_walk() {
        let (world, s1, _s2, _refs) = list_world(6);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(2))
            .unwrap();
        world.site(s1).add_root(root);
        assert_eq!(world.site(s1).proxy_count(), 1);
        // The outstanding frontier proxy is *reachable* (node 1 references
        // node 2), so GC keeps it.
        let stats = world.site(s1).collect_garbage(false);
        assert_eq!(stats.proxies_reclaimed, 0);
        assert_eq!(world.site(s1).proxy_count(), 1);
    }

    #[test]
    fn payload_nodes_report_their_size() {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("S1");
        let s2 = world.add_site("S2");
        let node = world.site(s2).create(PayloadNode::sized(0, 1024));
        world.site(s2).export(node, "pn").unwrap();
        let remote = world.site(s1).lookup("pn").unwrap();
        let local = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        let len = world
            .site(s1)
            .invoke(local, "payload_len", ObiValue::Null)
            .unwrap();
        assert_eq!(len, ObiValue::I64(1024));
    }

    #[test]
    fn unknown_method_is_reported_with_object_identity() {
        let (world, _s1, s2, refs) = list_world(1);
        let err = world
            .site(s2)
            .invoke(refs[0], "no_such", ObiValue::Null)
            .unwrap_err();
        match err {
            ObiError::NoSuchMethod { object, method } => {
                assert_eq!(object, refs[0].id());
                assert_eq!(method, "no_such");
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn counters_accumulate_via_rmi_from_many_sites() {
        let mut world = ObiWorld::loopback();
        let server = world.add_site("server");
        let clients: Vec<SiteId> = (0..4).map(|i| world.add_site(&format!("c{i}"))).collect();
        let counter = world.site(server).create(Counter::new(0));
        world.site(server).export(counter, "hits").unwrap();
        for c in &clients {
            let remote = world.site(*c).lookup("hits").unwrap();
            for _ in 0..5 {
                world
                    .site(*c)
                    .invoke_rmi(&remote, "incr", ObiValue::Null)
                    .unwrap();
            }
        }
        let v = world
            .site(server)
            .invoke(counter, "read", ObiValue::Null)
            .unwrap();
        assert_eq!(v, ObiValue::I64(20));
        // Master version bumped once per mutation.
        assert_eq!(world.site(server).meta_of(counter).unwrap().version, 21);
    }

    #[test]
    fn get_from_own_site_is_identity() {
        let (world, _s1, s2, refs) = list_world(1);
        let remote = RemoteRef::new(refs[0].id(), s2);
        let r = world
            .site(s2)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        assert_eq!(r, refs[0]);
        assert!(world.site(s2).meta_of(r).unwrap().kind.is_master());
    }

    #[test]
    fn version_conflict_survives_round_trip_with_stock_policy() {
        // The default AcceptAll policy: last writer wins by arrival.
        let (world, s1, s2, refs) = list_world(1);
        let remote = world.site(s1).lookup("head").unwrap();
        let r1 = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        // Two writers diverge.
        world.site(s1).invoke(r1, "set_value", ObiValue::I64(10)).unwrap();
        world
            .site(s2)
            .invoke(refs[0], "set_value", ObiValue::I64(20))
            .unwrap();
        // S1's put overwrites the master's concurrent change.
        world.site(s1).put(r1).unwrap();
        let v = world.site(s2).invoke(refs[0], "value", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(10));
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::demo::PayloadNode;
    use crate::world::ObiWorld;

    fn payload_world(n: usize, size: usize) -> (ObiWorld, SiteId, SiteId, Vec<ObjRef>) {
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

    fn walk(world: &ObiWorld, site: SiteId, mut cur: ObjRef) -> usize {
        let mut n = 0;
        loop {
            let out = world.site(site).invoke(cur, "touch", ObiValue::Null).unwrap();
            n += 1;
            match out.as_ref_id() {
                Some(id) => cur = id.into(),
                None => break,
            }
        }
        n
    }

    // -- prefetch (paper §2.1 footnote) -------------------------------------

    #[test]
    fn prefetch_eliminates_faults_entirely() {
        let (world, s1, _s2, refs) = payload_world(10, 32);
        let remote = world.site(s1).lookup("list").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(2))
            .unwrap();
        // Prefetch the rest of the list during "think time".
        let fetched = world.site(s1).prefetch(root, 100).unwrap();
        assert_eq!(fetched, 8);
        let before = world.site(s1).metrics().snapshot();
        assert_eq!(walk(&world, s1, root), 10);
        let after = world.site(s1).metrics().snapshot().since(&before);
        assert_eq!(after.object_faults, 0, "prefetch must remove all faults");
        let _ = refs;
    }

    #[test]
    fn prefetch_respects_the_object_limit() {
        let (world, s1, _s2, refs) = payload_world(20, 32);
        let remote = world.site(s1).lookup("list").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        let fetched = world.site(s1).prefetch(root, 5).unwrap();
        assert_eq!(fetched, 5);
        assert!(world.site(s1).is_replicated(refs[5]));
        assert!(!world.site(s1).is_replicated(refs[7]));
    }

    #[test]
    fn prefetch_on_fully_local_graph_is_a_noop() {
        let (world, s1, _s2, _refs) = payload_world(3, 32);
        let remote = world.site(s1).lookup("list").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::transitive())
            .unwrap();
        assert_eq!(world.site(s1).prefetch(root, 100).unwrap(), 0);
    }

    #[test]
    fn prefetch_stops_cleanly_on_disconnection() {
        let (world, s1, _s2, _refs) = payload_world(10, 32);
        let remote = world.site(s1).lookup("list").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        world.disconnect(s1);
        assert!(world.site(s1).prefetch(root, 5).unwrap_err().is_connectivity());
        // Already-replicated prefix still usable.
        world.site(s1).invoke(root, "index", ObiValue::Null).unwrap();
    }

    // -- replica memory budget (paper §2.1, info-appliances) -----------------

    #[test]
    fn budget_caps_replica_bytes_during_a_long_walk() {
        let (world, s1, _s2, _refs) = payload_world(50, 1024);
        world.site(s1).set_replica_budget(Some(8 * 1024));
        let remote = world.site(s1).lookup("list").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(5))
            .unwrap();
        assert_eq!(walk(&world, s1, root), 50);
        // The device never held more than ~budget of replica state…
        assert!(
            world.site(s1).replica_bytes() <= 10 * 1024,
            "held {} bytes",
            world.site(s1).replica_bytes()
        );
        // …which required evicting most of the list.
        let m = world.site(s1).metrics().snapshot();
        assert!(m.replicas_evicted >= 40, "evicted {}", m.replicas_evicted);
        assert_eq!(m.replicas_created, 50);
    }

    #[test]
    fn evicted_replicas_fault_back_in_transparently() {
        let (world, s1, _s2, refs) = payload_world(10, 1024);
        world.site(s1).set_replica_budget(Some(3 * 1024));
        let remote = world.site(s1).lookup("list").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(2))
            .unwrap();
        walk(&world, s1, root);
        // The head was evicted long ago; using it again just re-faults.
        assert!(matches!(
            world.site(s1).resolution(refs[0]),
            Resolution::Proxy(_)
        ));
        let v = world.site(s1).invoke(refs[0], "index", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(0));
    }

    #[test]
    fn dirty_replicas_survive_eviction_pressure() {
        let (world, s1, _s2, refs) = payload_world(10, 1024);
        let remote = world.site(s1).lookup("list").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        // Dirty the head, then squeeze hard while walking.
        world
            .site(s1)
            .invoke(root, "set_index", ObiValue::I64(-1))
            .unwrap();
        world.site(s1).set_replica_budget(Some(2 * 1024));
        walk(&world, s1, refs[1]);
        // The dirty head is still a live replica with its edit intact.
        let meta = world.site(s1).meta_of(root).unwrap();
        assert!(meta.dirty);
        let v = world.site(s1).invoke(root, "index", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(-1));
    }

    #[test]
    fn roots_survive_eviction_pressure() {
        let (world, s1, _s2, refs) = payload_world(10, 1024);
        let remote = world.site(s1).lookup("list").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        world.site(s1).add_root(root);
        world.site(s1).set_replica_budget(Some(2 * 1024));
        walk(&world, s1, refs[0]);
        assert!(world.site(s1).is_replicated(root));
    }

    #[test]
    fn disabling_the_budget_stops_eviction() {
        let (world, s1, _s2, _refs) = payload_world(20, 1024);
        world.site(s1).set_replica_budget(Some(1024));
        world.site(s1).set_replica_budget(None);
        let remote = world.site(s1).lookup("list").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::transitive())
            .unwrap();
        walk(&world, s1, root);
        assert_eq!(world.site(s1).metrics().snapshot().replicas_evicted, 0);
        assert!(world.site(s1).replica_bytes() >= 20 * 1024);
    }

    #[test]
    fn eviction_prefers_least_recently_used() {
        let (world, s1, _s2, refs) = payload_world(4, 1024);
        let remote = world.site(s1).lookup("list").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::transitive())
            .unwrap();
        // Touch everything, then re-touch the head to make it hottest.
        walk(&world, s1, root);
        world.site(s1).invoke(root, "index", ObiValue::Null).unwrap();
        // Budget for roughly two nodes: cold middle nodes go first.
        world.site(s1).set_replica_budget(Some(2 * 1024 + 512));
        assert!(world.site(s1).is_replicated(refs[0]), "hot head kept");
        assert!(
            matches!(world.site(s1).resolution(refs[1]), Resolution::Proxy(_)),
            "cold node evicted"
        );
    }
}

#[cfg(test)]
mod cluster_refresh_tests {
    use super::*;
    use crate::demo::LinkedItem;
    use crate::world::ObiWorld;

    fn rig() -> (ObiWorld, SiteId, SiteId, Vec<ObjRef>) {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("S1");
        let s2 = world.add_site("S2");
        let mut refs = Vec::new();
        let mut next = None;
        for i in (0..4).rev() {
            let mut item = LinkedItem::new(i as i64, format!("n{i}"));
            item.set_next(next);
            let r = world.site(s2).create(item);
            next = Some(r);
            refs.push(r);
        }
        refs.reverse();
        world.site(s2).export(refs[0], "head").unwrap();
        (world, s1, s2, refs)
    }

    #[test]
    fn refresh_cluster_reloads_every_member() {
        let (world, s1, s2, refs) = rig();
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::cluster(4))
            .unwrap();
        let cluster = world.site(s1).meta_of(root).unwrap().cluster.unwrap();
        // Diverge every member locally; masters move too.
        for r in &refs {
            world
                .site(s1)
                .invoke(*r, "set_value", ObiValue::I64(-1))
                .unwrap();
            world
                .site(s2)
                .invoke(*r, "set_value", ObiValue::I64(100))
                .unwrap();
        }
        let (new_cluster, refreshed) = world.site(s1).refresh_cluster(cluster).unwrap();
        assert_eq!(refreshed, 4);
        assert_ne!(new_cluster, cluster, "refresh mints a new generation");
        for r in &refs {
            let v = world.site(s1).invoke(*r, "value", ObiValue::Null).unwrap();
            assert_eq!(v, ObiValue::I64(100));
            let meta = world.site(s1).meta_of(*r).unwrap();
            assert!(!meta.dirty);
            assert_eq!(meta.cluster, Some(new_cluster));
        }
        // The retired generation no longer resolves.
        assert!(world.site(s1).refresh_cluster(cluster).is_err());
        // The new one does.
        assert!(world.site(s1).refresh_cluster(new_cluster).is_ok());
    }

    #[test]
    fn refresh_unknown_cluster_is_rejected() {
        let (world, s1, _s2, _refs) = rig();
        let bogus = ClusterId::new(SiteId::new(2), 999);
        assert!(matches!(
            world.site(s1).refresh_cluster(bogus),
            Err(ObiError::BadArguments(_))
        ));
    }

    #[test]
    fn refresh_or_stale_degrades_and_recovers() {
        let (world, s1, _s2, _refs) = rig();
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        assert_eq!(
            world.site(s1).refresh_or_stale(root).unwrap(),
            Freshness::Fresh
        );
        // Mutate locally, then lose the master: degraded mode serves the
        // stale replica and preserves the dirty state.
        world
            .site(s1)
            .invoke(root, "set_value", ObiValue::I64(-5))
            .unwrap();
        world.disconnect(s1);
        assert_eq!(
            world.site(s1).refresh_or_stale(root).unwrap(),
            Freshness::Stale
        );
        assert_eq!(
            world.site(s1).invoke(root, "value", ObiValue::Null).unwrap(),
            ObiValue::I64(-5)
        );
        assert!(world.site(s1).meta_of(root).unwrap().dirty);
        // Heal: the dirty replica reintegrates and refresh is fresh again.
        world.reconnect(s1);
        world.site(s1).put(root).unwrap();
        assert_eq!(
            world.site(s1).refresh_or_stale(root).unwrap(),
            Freshness::Fresh
        );
    }

    #[test]
    fn refresh_cluster_fails_cleanly_when_disconnected() {
        let (world, s1, _s2, _refs) = rig();
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::cluster(2))
            .unwrap();
        let cluster = world.site(s1).meta_of(root).unwrap().cluster.unwrap();
        world.disconnect(s1);
        assert!(world
            .site(s1)
            .refresh_cluster(cluster)
            .unwrap_err()
            .is_connectivity());
    }
}

#[cfg(test)]
mod membership_tests {
    use super::*;
    use crate::demo::{Counter, LinkedItem};
    use crate::world::ObiWorld;

    /// Builds a world with two sites and a list of `n` LinkedItems exported
    /// from the second site under "head". Returns (world, s1, s2, node refs).
    fn list_world(n: usize) -> (ObiWorld, SiteId, SiteId, Vec<ObjRef>) {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("S1");
        let s2 = world.add_site("S2");
        let mut refs: Vec<ObjRef> = Vec::new();
        let mut next: Option<ObjRef> = None;
        for i in (0..n).rev() {
            let mut item = LinkedItem::new(i as i64, format!("n{i}"));
            item.set_next(next);
            let r = world.site(s2).create(item);
            next = Some(r);
            refs.push(r);
        }
        refs.reverse();
        world.site(s2).export(refs[0], "head").unwrap();
        (world, s1, s2, refs)
    }

    #[test]
    fn parked_chunk_does_not_resurrect_evicted_replicas() {
        // Park a tail chunk exactly as the streaming test does...
        let (world, s1, _s2, refs) = list_world(30);
        let remote = world.site(s1).lookup("head").unwrap();
        world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(20))
            .unwrap();
        world
            .site(s1)
            .invoke(refs[20], "touch", ObiValue::Null)
            .unwrap();
        assert!(!world.site(s1).is_replicated(refs[28]));
        // ...then evict every replica (nothing is rooted) while the chunk
        // is still parked. Its stream root refs[20] is gone now.
        let stats = world.site(s1).collect_garbage(true);
        assert!(stats.replicas_reclaimed > 0, "{stats:?}");
        assert!(!world.site(s1).is_replicated(refs[20]));
        // The pump must drop the stale chunk, not materialize its objects
        // into a space that just reclaimed their stream.
        assert_eq!(world.site(s1).pump_pending_chunks(), 0);
        for r in &refs[20..] {
            assert!(!world.site(s1).is_replicated(*r), "{r:?} resurrected");
        }
        assert_eq!(world.site(s1).metrics().snapshot().stale_chunks_dropped, 1);
    }

    #[test]
    fn handoff_migrates_mastership_without_quiescing() {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("client");
        let s2 = world.add_site("old-master");
        let s3 = world.add_site("successor");
        let root = world.site(s2).create(Counter::new(10));
        world.site(s2).export(root, "ctr").unwrap();
        // A client replicates and writes back once pre-handoff.
        let remote = world.site(s1).lookup("ctr").unwrap();
        let replica = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        world.site(s1).invoke(replica, "incr", ObiValue::Null).unwrap();
        let v1 = world.site(s1).put(replica).unwrap();
        // Mastership moves to s3 while everyone keeps their references.
        let v2 = world.site(s2).handoff(root, s3).unwrap();
        assert_eq!(v2, v1, "handoff preserves the master version");
        let demoted = world.site(s2).meta_of(root).unwrap();
        assert_eq!(demoted.kind, ReplicaKind::Replica { provider: s3 });
        assert!(!demoted.dirty);
        let promoted = world.site(s3).meta_of(root).unwrap();
        assert!(promoted.kind.is_master());
        assert_eq!(promoted.version, v1);
        assert_eq!(world.site(s2).metrics().snapshot().handoffs_completed, 1);
        // The client still points at s2; its next put is redirected to s3
        // and applies exactly once there.
        world.site(s1).invoke(replica, "incr", ObiValue::Null).unwrap();
        let v3 = world.site(s1).put(replica).unwrap();
        assert_eq!(v3, v1 + 1);
        assert_eq!(
            world.site(s1).meta_of(replica).unwrap().kind,
            ReplicaKind::Replica { provider: s3 }
        );
        assert_eq!(world.site(s1).metrics().snapshot().moved_master_redirects, 1);
        assert_eq!(
            world.site(s3).invoke(root, "read", ObiValue::Null).unwrap(),
            ObiValue::I64(12)
        );
        // s2's own next write goes through the ordinary replica put path.
        // Its demoted replica still holds the handoff-time value (11): the
        // write-back carries 16 and last-writer-wins at the new master.
        world.site(s2).invoke(root, "add", ObiValue::I64(5)).unwrap();
        world.site(s2).put(root).unwrap();
        assert_eq!(
            world.site(s3).invoke(root, "read", ObiValue::Null).unwrap(),
            ObiValue::I64(16)
        );
    }

    #[test]
    fn handoff_retry_to_same_successor_is_idempotent() {
        let mut world = ObiWorld::loopback();
        let s2 = world.add_site("old-master");
        let s3 = world.add_site("successor");
        let root = world.site(s2).create(Counter::new(3));
        world.site(s2).export(root, "ctr").unwrap();
        let v = world.site(s2).handoff(root, s3).unwrap();
        // A predecessor that missed the ack re-sends from its demoted
        // replicas; the successor's version guard makes it a no-op.
        let again = world.site(s2).handoff(root, s3).unwrap();
        assert_eq!(again, v);
        assert!(world.site(s3).meta_of(root).unwrap().kind.is_master());
        assert_eq!(
            world.site(s3).invoke(root, "read", ObiValue::Null).unwrap(),
            ObiValue::I64(3)
        );
        // A handoff toward a *different* site than the recorded successor
        // is refused with the redirect, not silently re-homed.
        let s4 = world.add_site("other");
        assert!(matches!(
            world.site(s2).handoff(root, s4),
            Err(ObiError::MovedMaster { to, .. }) if to == s3
        ));
        assert_eq!(world.site(s2).metrics().snapshot().handoffs_completed, 2);
    }

    #[test]
    fn handoff_carries_the_locally_mastered_closure() {
        // head -> node2 (both mastered at s2): the whole graph migrates and
        // the successor serves faults on it.
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("client");
        let s2 = world.add_site("old-master");
        let s3 = world.add_site("successor");
        let tail = world.site(s2).create(LinkedItem::new(2, "tail"));
        let head = world
            .site(s2)
            .create(LinkedItem::with_next(1, "head", tail));
        world.site(s2).export(head, "head").unwrap();
        world.site(s2).handoff(head, s3).unwrap();
        assert!(world.site(s3).meta_of(head).unwrap().kind.is_master());
        assert!(world.site(s3).meta_of(tail).unwrap().kind.is_master());
        // A fresh client walks the list entirely out of the successor.
        let remote = world.site(s1).lookup("head").unwrap();
        let replica = world
            .site(s1)
            .get(&remote, ReplicationMode::transitive())
            .unwrap();
        assert_eq!(
            world
                .site(s1)
                .invoke(replica, "sum_rest", ObiValue::Null)
                .unwrap(),
            ObiValue::I64(3)
        );
    }

    #[test]
    fn graceful_leave_retires_peer_state_everywhere() {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("stayer");
        let s2 = world.add_site("leaver");
        world.site(s1).join().unwrap();
        world.site(s2).join().unwrap();
        assert!(world.site(s1).ping(s2).is_ok());
        world.site(s2).leave(&[s1]);
        // The peer retired the leaver's breaker slot...
        assert_eq!(world.site(s1).metrics().snapshot().peers_retired, 1);
        // ...and the name server dropped it from the roster: a later
        // joiner no longer sees it.
        let s3 = world.add_site("late");
        let info = world.site(s3).join().unwrap();
        assert_eq!(info.peers, vec![s1]);
    }

    #[test]
    fn joiner_bootstraps_from_a_live_world() {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("S1");
        world.site(s1).join().unwrap();
        let ctr = world.site(s1).create(Counter::new(7));
        world.site(s1).export(ctr, "hits").unwrap();
        // A site joins mid-run: the ack carries the roster and catalog,
        // and replication proceeds through the ordinary demand pipeline.
        let s2 = world.add_site("joiner");
        let info = world.site(s2).join().unwrap();
        assert_eq!(info.peers, vec![s1]);
        assert_eq!(info.names.len(), 1);
        let (name, id) = &info.names[0];
        assert_eq!(name, "hits");
        assert_eq!(*id, ctr.id());
        let remote = world.site(s2).lookup("hits").unwrap();
        let replica = world
            .site(s2)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        assert_eq!(
            world.site(s2).invoke(replica, "read", ObiValue::Null).unwrap(),
            ObiValue::I64(7)
        );
    }
}

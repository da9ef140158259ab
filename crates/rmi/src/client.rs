//! The stub-side client API.

use crate::fault::{BreakerState, CircuitBreaker, Deadline, HorizonTracker, RetryPolicy};
use crate::remote_ref::RemoteRef;
use obiwan_net::Transport;
use obiwan_util::trace;
use obiwan_util::{
    Clock, ClockMode, CostModel, DetRng, Metrics, ObiError, ObjId, RequestId, Result, SiteId,
};
use obiwan_wire::{JoinInfo, Message, NameOp, ObiValue, ReplicaBatch, ReplicaState, WireMode};
use obiwan_util::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Objects per chunk frame when a demand streams ([`RmiClient::get`]).
///
/// Small enough that the first chunk materializes within one link delay of
/// arriving, large enough that per-frame overhead stays a rounding error on
/// paper-testbed batches. Callers ask for chunks of this size only when a
/// batch may exceed it; a batch asked for whole ([`WHOLE_BATCH`]) arrives
/// as one chunk, which is also the call's only reply frame.
pub const STREAM_CHUNK_OBJECTS: u32 = 8;

/// The `chunk` value asking the provider for the whole batch in one chunk.
pub const WHOLE_BATCH: u32 = 0;

/// Issues OBIWAN requests from one site and correlates their replies.
///
/// One client exists per site; it plays the role of every generated RMI stub
/// in the original system. CPU dispatch and marshalling costs are charged to
/// the shared [`Clock`] through the [`CostModel`] (a no-op under
/// [`ClockMode::Hybrid`](obiwan_util::ClockMode), where real CPU time flows
/// instead).
///
/// Every request — including mutating `invoke` and `put` — is retried on
/// message loss or timeout under a [`RetryPolicy`] with jittered backoff
/// and a per-call [`Deadline`] budget: the server's reply cache guarantees
/// a retransmitted request id is never re-executed, so retries have
/// exactly-once effect. A per-peer [`CircuitBreaker`] turns repeated
/// call-level failures into immediate `SiteUnreachable` errors without
/// touching the network, until a cooldown admits a probe again.
pub struct RmiClient {
    site: SiteId,
    transport: Arc<dyn Transport>,
    clock: Clock,
    costs: CostModel,
    metrics: Metrics,
    seq: AtomicU64,
    policy: Mutex<RetryPolicy>,
    breaker: CircuitBreaker,
    horizon: HorizonTracker,
    backoff_rng: Mutex<DetRng>,
}

impl std::fmt::Debug for RmiClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RmiClient").field("site", &self.site).finish()
    }
}

impl RmiClient {
    /// Creates a client for `site` over `transport`.
    pub fn new(
        site: SiteId,
        transport: Arc<dyn Transport>,
        clock: Clock,
        costs: CostModel,
    ) -> Self {
        Self::with_metrics(site, transport, clock, costs, Metrics::new())
    }

    /// Like [`RmiClient::new`], but recording into an externally owned
    /// counter set (so a process and its client share one metrics view).
    pub fn with_metrics(
        site: SiteId,
        transport: Arc<dyn Transport>,
        clock: Clock,
        costs: CostModel,
        metrics: Metrics,
    ) -> Self {
        RmiClient {
            site,
            transport,
            clock,
            costs,
            metrics,
            seq: AtomicU64::new(1),
            policy: Mutex::new(RetryPolicy::default()),
            breaker: CircuitBreaker::default(),
            horizon: HorizonTracker::new(),
            // Deterministic per-site stream so simulations replay exactly.
            backoff_rng: Mutex::new(DetRng::new(0x0BAC_00FF ^ site.as_u32() as u64)),
        }
    }

    /// Replaces the whole retry policy (retries, deadline budget, backoff).
    /// Retries apply to *all* requests — the server's reply cache makes
    /// retrying mutating requests (`invoke`, `put`) safe, with
    /// exactly-once effect.
    pub fn set_rpc_policy(&self, policy: RetryPolicy) {
        *self.policy.lock() = policy;
    }

    /// The retry policy currently in force.
    pub fn rpc_policy(&self) -> RetryPolicy {
        *self.policy.lock()
    }

    /// The per-peer circuit breaker.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Current breaker state for `peer` (applying the open → half-open
    /// transition if its cooldown has elapsed).
    pub fn breaker_state(&self, peer: SiteId) -> BreakerState {
        self.breaker.state(peer, self.now_nanos())
    }

    fn now_nanos(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// The site this client issues requests from.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Client-side metrics (RMI counts, bytes marshalled).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The cost model used to charge modeled CPU time.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// True when this site can currently reach `to`.
    pub fn is_reachable(&self, to: SiteId) -> bool {
        self.transport.is_reachable(self.site, to)
    }

    fn next_request(&self) -> RequestId {
        RequestId::new(self.site, self.seq.fetch_add(1, Ordering::Relaxed))
    }

    /// Allocates a request id without sending anything. The durability
    /// layer reserves the id, logs a put intent under it, and only then
    /// sends via [`RmiClient::put_with_request`] — so a crash-and-replay
    /// reuses the same id and the server's reply cache deduplicates it.
    pub fn reserve_request(&self) -> RequestId {
        self.next_request()
    }

    /// The next unissued request sequence number (persisted as the client
    /// watermark so recovery can restore a non-colliding counter).
    pub fn request_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Restores the request counter after recovery. Only ever moves the
    /// counter forward: sequence numbers already handed out stay unique.
    pub fn restore_request_seq(&self, next_seq: u64) {
        self.seq.fetch_max(next_seq, Ordering::Relaxed);
    }

    /// The client's settled-reply horizon tracker (persisted by the
    /// durability layer, restored after a crash).
    pub fn horizon_tracker(&self) -> &HorizonTracker {
        &self.horizon
    }

    fn round_trip(&self, to: SiteId, msg: &Message) -> Result<Message> {
        self.round_trip_inner(to, msg, None)
    }

    /// One call under the retry machinery: breaker admission, retries with
    /// jittered backoff on `MessageLost`/`Timeout`, all bounded by
    /// `deadline` (or the policy's default budget when `None`).
    fn round_trip_inner(
        &self,
        to: SiteId,
        msg: &Message,
        deadline: Option<Deadline>,
    ) -> Result<Message> {
        let mut span = trace::span(&self.clock, "rpc.round_trip").with_site(self.site);
        if let Some(id) = msg.request_id() {
            span = span.with_req(id);
        }
        let policy = *self.policy.lock();
        let deadline =
            deadline.unwrap_or_else(|| Deadline::after(&self.clock, policy.call_budget));
        if !self.breaker.admit(to, self.now_nanos()) {
            // Open breaker: fail fast, no frame, no clock charge.
            self.metrics.incr_breaker_fast_fails();
            return Err(ObiError::SiteUnreachable(to));
        }
        let frame = msg.encode();
        self.clock.charge_cpu(self.costs.rmi_dispatch);
        self.clock.charge_cpu(self.costs.serialize(frame.len()));
        let mut attempt = 0u64;
        let mut backoff = policy.base_backoff;
        let outcome = loop {
            self.metrics.add_bytes_sent(frame.len() as u64);
            match self.transport.call(self.site, to, frame.clone()) {
                Ok(reply) => break Ok(reply),
                Err(e @ (ObiError::MessageLost { .. } | ObiError::Timeout { .. })) => {
                    if attempt >= policy.max_retries {
                        break Err(e);
                    }
                    if deadline.expired(&self.clock) {
                        break Err(ObiError::Timeout { to });
                    }
                    attempt += 1;
                    self.metrics.incr_rpc_retries();
                    backoff = policy.next_backoff(backoff, &mut self.backoff_rng.lock());
                    self.backoff_sleep(backoff.min(deadline.remaining(&self.clock)));
                }
                // Anything else (disconnection, refusal, server error)
                // surfaces immediately: retrying cannot help.
                Err(e) => break Err(e),
            }
        };
        // The span's value is the number of retries this call needed.
        span.set_value(attempt);
        // Call-level accounting: one finished call is one breaker event,
        // however many attempts it took.
        match &outcome {
            Ok(_) => self.breaker.on_success(to),
            Err(e) if e.is_connectivity() => self.breaker.on_failure(to, self.now_nanos()),
            Err(_) => {}
        }
        // The id is settled either way — this client never resends it —
        // so the server may prune its cached reply.
        if let Some(id) = msg.request_id() {
            self.settle(to, id);
        }
        let reply = outcome?;
        self.clock.charge_cpu(self.costs.serialize(reply.len()));
        self.metrics.add_bytes_received(reply.len() as u64);
        Message::decode(&reply)
    }

    /// Backoff between attempts: virtual charge in simulation, a real
    /// sleep when real time is flowing.
    fn backoff_sleep(&self, d: Duration) {
        match self.clock.mode() {
            ClockMode::VirtualOnly => self.clock.charge(d),
            ClockMode::Hybrid => std::thread::sleep(d),
        }
    }

    /// Records `id` as settled and, when an announcement is due, tells the
    /// peer how far it may prune its reply cache. Best-effort: a lost
    /// announcement only delays pruning (LRU bounds the cache anyway).
    fn settle(&self, to: SiteId, id: RequestId) {
        if let Some(up_to) = self.horizon.settle(id.seq()) {
            let _ = self
                .transport
                .cast(self.site, to, Message::AckHorizon { up_to }.encode());
        }
    }

    fn check_correlation(&self, sent: RequestId, got: Option<RequestId>) -> Result<()> {
        match got {
            Some(id) if id == sent => Ok(()),
            other => Err(ObiError::Internal(format!(
                "reply correlation mismatch: sent {sent}, got {other:?}"
            ))),
        }
    }

    /// Remote method invocation: the paper's RMI path through a proxy-in.
    pub fn invoke(
        &self,
        target: &RemoteRef,
        method: &str,
        args: ObiValue,
    ) -> Result<ObiValue> {
        let request = self.next_request();
        self.metrics.incr_rmi();
        let reply = self.round_trip(
            target.host(),
            &Message::InvokeRequest {
                request,
                target: target.id(),
                method: method.to_owned(),
                args,
            },
        )?;
        match reply {
            Message::InvokeReply { request: id, result } => {
                self.check_correlation(request, Some(id))?;
                result
            }
            other => Err(unexpected("InvokeReply", &other)),
        }
    }

    /// `get(mode)`: demand the merged replica batch rooted at every object
    /// in `targets` hosted at `host` — the one demand exchange, serving
    /// explicit `get`s, object faults, refreshes and prefetch alike.
    ///
    /// The provider slices the batch `chunk` objects per frame
    /// ([`WHOLE_BATCH`] for one frame). Each chunk is delivered to
    /// `on_chunk` (in chunk order, exactly once) as it comes off the wire,
    /// so the caller can materialize chunk *k* while chunk *k + 1* is still
    /// in flight; the last chunk is the call's reply frame.
    ///
    /// Costs one demand round-trip however many chunks (and resumes) it
    /// takes, all bounded by `deadline` (`None` uses the policy default).
    /// Chunks lost, duplicated, or reordered by the transport are
    /// reassembled here: out-of-order chunks park in a buffer bounded by
    /// the stream's chunk count, duplicates and frames that contradict the
    /// stream's count are dropped, and a stream whose reply reveals holes
    /// (or never arrives) is *resumed* — the same request id is re-sent
    /// with `resume_from` at the reassembly frontier, so the provider
    /// re-streams only the missing suffix.
    pub fn get(
        &self,
        host: SiteId,
        targets: Vec<ObjId>,
        mode: WireMode,
        chunk: u32,
        deadline: Option<Deadline>,
        on_chunk: &mut dyn FnMut(u32, ReplicaBatch),
    ) -> Result<()> {
        let request = self.next_request();
        self.metrics.incr_demand_round_trips();
        let mut span = trace::span(&self.clock, "rpc.round_trip")
            .with_site(self.site)
            .with_req(request);
        let policy = *self.policy.lock();
        let deadline =
            deadline.unwrap_or_else(|| Deadline::after(&self.clock, policy.call_budget));
        if !self.breaker.admit(host, self.now_nanos()) {
            self.metrics.incr_breaker_fast_fails();
            return Err(ObiError::SiteUnreachable(host));
        }
        self.clock.charge_cpu(self.costs.rmi_dispatch);
        // Chunks already delivered stay delivered across resumes, so the
        // reassembly frontier lives outside the attempt loop and is exactly
        // the `resume_from` a retry asks the provider for.
        let mut stream = Reassembly::default();
        let mut deliver = |index: u32, batch: ReplicaBatch| {
            self.metrics.incr_demand_chunks();
            let mut chunk_span = trace::span(&self.clock, "rpc.chunk")
                .with_site(self.site)
                .with_req(request);
            chunk_span.set_value(u64::from(index));
            on_chunk(index, batch);
        };
        let mut attempt = 0u64;
        let mut backoff = policy.base_backoff;
        let outcome = loop {
            stream.restart();
            let frame = Message::GetRequest {
                request,
                targets: targets.clone(),
                mode,
                chunk,
                resume_from: stream.next,
            }
            .encode();
            self.clock.charge_cpu(self.costs.serialize(frame.len()));
            self.metrics.add_bytes_sent(frame.len() as u64);
            let call = self.transport.call_stream(self.site, host, frame, &mut |raw| {
                self.metrics.add_bytes_received(raw.len() as u64);
                self.clock.charge_cpu(self.costs.serialize(raw.len()));
                // Anything but an in-range chunk of this request is a lost
                // frame: the hole surfaces at the reply and a resume heals
                // it.
                if let Ok(Message::GetChunk {
                    request: id,
                    chunk_index,
                    total,
                    result: Ok(batch),
                }) = Message::decode(&raw)
                {
                    if id == request {
                        stream.offer(chunk_index, total, batch, &mut deliver);
                    }
                }
            });
            let failure = match call {
                Ok(reply) => {
                    self.clock.charge_cpu(self.costs.serialize(reply.len()));
                    self.metrics.add_bytes_received(reply.len() as u64);
                    match Message::decode(&reply) {
                        Ok(Message::GetChunk {
                            request: id,
                            chunk_index,
                            total,
                            result,
                        }) => {
                            if let Err(e) = self.check_correlation(request, Some(id)) {
                                break Err(e);
                            }
                            match result {
                                Ok(batch) => {
                                    stream.offer(chunk_index, total, batch, &mut deliver);
                                    if stream.is_complete() {
                                        break Ok(());
                                    }
                                    // Lost chunks left a hole below the
                                    // reply: resume, don't restart.
                                    None
                                }
                                Err(e) => break Err(e),
                            }
                        }
                        Ok(other) => break Err(unexpected("GetChunk", &other)),
                        Err(e) => break Err(e),
                    }
                }
                Err(e @ (ObiError::MessageLost { .. } | ObiError::Timeout { .. })) => Some(e),
                Err(e) => break Err(e),
            };
            if attempt >= policy.max_retries {
                break Err(failure.unwrap_or(ObiError::Timeout { to: host }));
            }
            if deadline.expired(&self.clock) {
                break Err(ObiError::Timeout { to: host });
            }
            attempt += 1;
            self.metrics.incr_rpc_retries();
            self.metrics.incr_stream_resumes();
            backoff = policy.next_backoff(backoff, &mut self.backoff_rng.lock());
            self.backoff_sleep(backoff.min(deadline.remaining(&self.clock)));
        };
        span.set_value(attempt);
        match &outcome {
            Ok(_) => self.breaker.on_success(host),
            Err(e) if e.is_connectivity() => self.breaker.on_failure(host, self.now_nanos()),
            Err(_) => {}
        }
        self.settle(host, request);
        outcome
    }

    /// `put`: send replica state back to the master site.
    pub fn put(&self, host: SiteId, entries: Vec<ReplicaState>) -> Result<Vec<(ObjId, u64)>> {
        self.put_with_request(host, entries, self.next_request())
    }

    /// `put` under a caller-chosen request id (from
    /// [`RmiClient::reserve_request`], possibly recovered from a durable
    /// put-intent record). Sending the same id twice is how crash-replay
    /// achieves exactly-once: the server's reply cache answers the second
    /// send from the cache instead of re-applying.
    pub fn put_with_request(
        &self,
        host: SiteId,
        entries: Vec<ReplicaState>,
        request: RequestId,
    ) -> Result<Vec<(ObjId, u64)>> {
        self.metrics.incr_puts();
        let reply = self.round_trip(host, &Message::PutRequest { request, entries })?;
        match reply {
            Message::PutReply { request: id, result } => {
                self.check_correlation(request, Some(id))?;
                result
            }
            other => Err(unexpected("PutReply", &other)),
        }
    }

    fn name_request(&self, ns: SiteId, op: NameOp) -> Result<ObiValue> {
        let request = self.next_request();
        let reply = self.round_trip(ns, &Message::NameRequest { request, op })?;
        match reply {
            Message::NameReply { request: id, result } => {
                self.check_correlation(request, Some(id))?;
                result
            }
            other => Err(unexpected("NameReply", &other)),
        }
    }

    /// Binds `name` to an exported object at the name server on `ns`.
    pub fn bind(&self, ns: SiteId, name: &str, target: ObjId) -> Result<()> {
        self.name_request(
            ns,
            NameOp::Bind {
                name: name.to_owned(),
                target,
            },
        )
        .map(|_| ())
    }

    /// Looks `name` up at the name server on `ns`.
    pub fn lookup(&self, ns: SiteId, name: &str) -> Result<RemoteRef> {
        let v = self.name_request(ns, NameOp::Lookup { name: name.to_owned() })?;
        v.as_ref_id()
            .map(RemoteRef::to_master)
            .ok_or_else(|| ObiError::Internal(format!("lookup returned {}", v.kind())))
    }

    /// Removes a binding at the name server on `ns`.
    pub fn unbind(&self, ns: SiteId, name: &str) -> Result<()> {
        self.name_request(ns, NameOp::Unbind { name: name.to_owned() })
            .map(|_| ())
    }

    /// Lists all names bound at the name server on `ns`.
    pub fn list_names(&self, ns: SiteId) -> Result<Vec<String>> {
        let v = self.name_request(ns, NameOp::List)?;
        match v {
            ObiValue::List(items) => items
                .into_iter()
                .map(|i| match i {
                    ObiValue::Str(s) => Ok(s),
                    other => Err(ObiError::Internal(format!(
                        "name list contained {}",
                        other.kind()
                    ))),
                })
                .collect(),
            other => Err(ObiError::Internal(format!("list returned {}", other.kind()))),
        }
    }

    /// Subscribes this site to consistency traffic for `object` at its host.
    pub fn subscribe(&self, host: SiteId, object: ObjId, push: bool) -> Result<()> {
        let request = self.next_request();
        let reply = self.round_trip(
            host,
            &Message::Subscribe {
                request,
                object,
                push,
            },
        )?;
        match reply {
            Message::Ack { request: id, result } => {
                self.check_correlation(request, Some(id))?;
                result.map(|_| ())
            }
            other => Err(unexpected("Ack", &other)),
        }
    }

    /// One-way: notify `to` that its replicas of `objects` are stale.
    pub fn send_invalidate(&self, to: SiteId, objects: Vec<ObjId>) -> Result<()> {
        let frame = Message::Invalidate { objects }.encode();
        self.clock.charge_cpu(self.costs.serialize(frame.len()));
        self.transport.cast(self.site, to, frame)
    }

    /// One-way: push replica updates to `to`.
    pub fn send_update_push(&self, to: SiteId, entries: Vec<ReplicaState>) -> Result<()> {
        let frame = Message::UpdatePush { entries }.encode();
        self.clock.charge_cpu(self.costs.serialize(frame.len()));
        self.transport.cast(self.site, to, frame)
    }

    /// Membership join: asks the admission authority at `to` (normally the
    /// name-server site) to enroll this site, returning the world view it
    /// needs to bootstrap. Retried like any request; admission is
    /// idempotent, so a lost ack is harmless.
    pub fn join(&self, to: SiteId) -> Result<JoinInfo> {
        let request = self.next_request();
        let reply = self.round_trip(to, &Message::JoinRequest { request })?;
        match reply {
            Message::JoinAck { request: id, result } => {
                self.check_correlation(request, Some(id))?;
                result
            }
            other => Err(unexpected("JoinAck", &other)),
        }
    }

    /// Mastership handoff: installs `entries` (the closure rooted at
    /// `root`) at `to` and asks it to take over as master, returning the
    /// root's installed version. The same request id rides every retry, and
    /// the successor installs idempotently, so a handoff retried through
    /// loss never yields two masters.
    pub fn handoff(
        &self,
        to: SiteId,
        root: ObjId,
        entries: Vec<ReplicaState>,
    ) -> Result<u64> {
        let request = self.next_request();
        let reply = self.round_trip(
            to,
            &Message::HandoffRequest {
                request,
                root,
                entries,
            },
        )?;
        match reply {
            Message::HandoffAck { request: id, result } => {
                self.check_correlation(request, Some(id))?;
                result
            }
            other => Err(unexpected("HandoffAck", &other)),
        }
    }

    /// One-way: notify `to` that `site` has left the world.
    pub fn send_leave(&self, to: SiteId, site: SiteId) -> Result<()> {
        let frame = Message::Leave { site }.encode();
        self.clock.charge_cpu(self.costs.serialize(frame.len()));
        self.transport.cast(self.site, to, frame)
    }

    /// Round-trip connectivity probe.
    pub fn ping(&self, to: SiteId) -> Result<()> {
        let request = self.next_request();
        let reply = self.round_trip(to, &Message::Ping { request })?;
        match reply {
            Message::Pong { request: id } => self.check_correlation(request, Some(id)),
            other => Err(unexpected("Pong", &other)),
        }
    }
}

/// Client-side reassembly of one demand stream: delivers chunks in order,
/// exactly once, whatever order the transport hands them over in.
#[derive(Default)]
struct Reassembly {
    /// Chunks `0..next` are delivered; `next` is the resume point.
    next: u32,
    /// The chunk count announced by the current attempt's first frame.
    total: Option<u32>,
    /// Chunks past a hole, keyed by index. Every key is below `total`, so
    /// the buffer never holds more than one attempt's chunk count.
    parked: BTreeMap<u32, ReplicaBatch>,
}

impl Reassembly {
    /// Starts an attempt. The provider re-slices the batch for every
    /// attempt, so its count may differ from the last one's: chunks parked
    /// past the hole are dropped (the resume re-sends them).
    fn restart(&mut self) {
        self.total = None;
        self.parked.clear();
    }

    /// Takes one chunk, then delivers the contiguous prefix. A chunk past
    /// its own total, or whose total contradicts the attempt's first one,
    /// is treated as lost; a chunk already delivered or parked is dropped.
    fn offer(
        &mut self,
        index: u32,
        total: u32,
        batch: ReplicaBatch,
        deliver: &mut dyn FnMut(u32, ReplicaBatch),
    ) {
        if index >= total || *self.total.get_or_insert(total) != total {
            return;
        }
        if index < self.next || self.parked.contains_key(&index) {
            return;
        }
        self.parked.insert(index, batch);
        while let Some(batch) = self.parked.remove(&self.next) {
            deliver(self.next, batch);
            self.next += 1;
        }
    }

    /// True once every chunk of the attempt's stream is delivered.
    fn is_complete(&self) -> bool {
        self.total.is_some_and(|total| self.next >= total)
    }
}

fn unexpected(wanted: &str, got: &Message) -> ObiError {
    // Decode-failure Acks from the server carry the real error; surface it.
    if let Message::Ack { result: Err(e), .. } = got {
        return e.clone();
    }
    ObiError::Internal(format!("expected {wanted}, got {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{EchoService, RmiServer};
    use obiwan_net::{conditions, SimTransport};
    use obiwan_util::ClockMode;
    use std::time::Duration;

    fn rig() -> (RmiClient, Arc<SimTransport>, Clock) {
        let clock = Clock::new(ClockMode::VirtualOnly);
        let net = Arc::new(SimTransport::new(clock.clone(), conditions::paper_lan()));
        net.register(
            SiteId::new(2),
            Arc::new(RmiServer::new(Arc::new(EchoService))),
        );
        let client = RmiClient::new(
            SiteId::new(1),
            net.clone(),
            clock.clone(),
            CostModel::paper_testbed(),
        );
        (client, net, clock)
    }

    #[test]
    fn invoke_round_trips_through_echo() {
        let (client, _net, _clock) = rig();
        let target = RemoteRef::to_master(ObjId::new(SiteId::new(2), 1));
        let out = client
            .invoke(&target, "anything", ObiValue::Str("v".into()))
            .unwrap();
        assert_eq!(out, ObiValue::Str("v".into()));
        assert_eq!(client.metrics().snapshot().rmi_count, 1);
    }

    #[test]
    fn rmi_cost_is_in_the_paper_ballpark() {
        let (client, _net, clock) = rig();
        let target = RemoteRef::to_master(ObjId::new(SiteId::new(2), 1));
        client.invoke(&target, "m", ObiValue::I64(0)).unwrap();
        let elapsed = clock.elapsed();
        // Paper §4.1: one RMI ≈ 2.8 ms. Accept 2–4 ms.
        assert!(elapsed >= Duration::from_millis(2), "{elapsed:?}");
        assert!(elapsed <= Duration::from_millis(4), "{elapsed:?}");
    }

    #[test]
    fn ping_pong() {
        let (client, _net, _clock) = rig();
        client.ping(SiteId::new(2)).unwrap();
        assert!(client.ping(SiteId::new(9)).is_err());
    }

    #[test]
    fn connectivity_failure_surfaces_as_connectivity_error() {
        let (client, net, _clock) = rig();
        net.disconnect(SiteId::new(2));
        let target = RemoteRef::to_master(ObjId::new(SiteId::new(2), 1));
        let err = client.invoke(&target, "m", ObiValue::Null).unwrap_err();
        assert!(err.is_connectivity());
        assert!(!client.is_reachable(SiteId::new(2)));
    }

    #[test]
    fn unsupported_get_surfaces_server_error() {
        let (client, _net, _clock) = rig();
        let err = client
            .get(
                SiteId::new(2),
                vec![ObjId::new(SiteId::new(2), 1)],
                WireMode::Transitive,
                WHOLE_BATCH,
                None,
                &mut |_, _| panic!("no chunks on a failed demand"),
            )
            .unwrap_err();
        assert!(matches!(err, ObiError::NoSuchObject(_)));
    }

    #[test]
    fn request_ids_are_unique_per_client() {
        let (client, _net, _clock) = rig();
        let a = client.next_request();
        let b = client.next_request();
        assert_ne!(a, b);
        assert_eq!(a.origin(), SiteId::new(1));
    }
}

#[cfg(test)]
mod retry_tests {
    use super::*;
    use crate::fault::{BreakerConfig, CircuitBreaker, ANNOUNCE_EVERY};
    use crate::server::{EchoService, RmiServer};
    use crate::service::RmiService;
    use obiwan_net::{conditions, LinkModel, MessageHandler, SimTransport};
    use obiwan_util::ClockMode;

    /// `invoke` returns the number of times the service has executed, so
    /// any double-execution shows up in the reply stream.
    #[derive(Debug, Default)]
    struct CountingService {
        calls: AtomicU64,
    }

    impl RmiService for CountingService {
        fn invoke(
            &self,
            _from: SiteId,
            _target: ObjId,
            _method: &str,
            _args: ObiValue,
        ) -> Result<ObiValue> {
            Ok(ObiValue::I64(self.calls.fetch_add(1, Ordering::Relaxed) as i64 + 1))
        }
    }

    fn lossy_rig(loss: f64) -> (RmiClient, Arc<SimTransport>, Clock, Arc<CountingService>) {
        let clock = Clock::new(ClockMode::VirtualOnly);
        let net = Arc::new(SimTransport::new(clock.clone(), conditions::paper_lan()));
        net.reseed(99);
        net.with_topology_mut(|t| {
            t.set_link_symmetric(
                SiteId::new(1),
                SiteId::new(2),
                LinkModel::ideal().with_loss(loss),
            );
        });
        let svc = Arc::new(CountingService::default());
        net.register(SiteId::new(2), Arc::new(RmiServer::new(svc.clone())));
        let client = RmiClient::new(
            SiteId::new(1),
            net.clone(),
            clock.clone(),
            CostModel::free(),
        );
        (client, net, clock, svc)
    }

    #[test]
    fn requests_retry_through_moderate_loss() {
        let (client, _net, _clock, _svc) = lossy_rig(0.3);
        client.set_rpc_policy(RetryPolicy {
            max_retries: 10,
            ..RetryPolicy::default()
        });
        // 50 pings through a 30%-lossy link: with 10 retries each, failure
        // odds are ~1e-13 per ping.
        for _ in 0..50 {
            client.ping(SiteId::new(2)).expect("ping should retry through loss");
        }
        assert!(client.metrics().snapshot().rpc_retries > 0);
    }

    #[test]
    fn mutating_invokes_retry_with_exactly_once_effect() {
        let (client, _net, _clock, svc) = lossy_rig(0.3);
        client.set_rpc_policy(RetryPolicy {
            max_retries: 10,
            ..RetryPolicy::default()
        });
        let target = RemoteRef::to_master(ObjId::new(SiteId::new(2), 1));
        // The reply carries the service's execution count: if a retry ever
        // re-executed (instead of hitting the reply cache), some reply
        // would skip a number.
        for i in 1..=20i64 {
            let out = client.invoke(&target, "m", ObiValue::Null).unwrap();
            assert_eq!(out, ObiValue::I64(i), "execution {i} must happen exactly once");
        }
        assert_eq!(svc.calls.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn zero_retries_fail_fast_on_total_loss() {
        let (client, _net, _clock, _svc) = lossy_rig(1.0);
        client.set_rpc_policy(RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        });
        assert!(matches!(
            client.ping(SiteId::new(2)),
            Err(ObiError::MessageLost { .. })
        ));
    }

    #[test]
    fn retries_do_not_mask_disconnection() {
        let (client, net, _clock, _svc) = lossy_rig(0.0);
        client.set_rpc_policy(RetryPolicy {
            max_retries: 10,
            ..RetryPolicy::default()
        });
        net.disconnect(SiteId::new(2));
        let err = client.ping(SiteId::new(2)).unwrap_err();
        assert!(matches!(err, ObiError::Disconnected { .. }));
    }

    #[test]
    fn deadline_bounds_total_retry_time() {
        let (client, _net, clock, _svc) = lossy_rig(1.0);
        client.set_rpc_policy(RetryPolicy {
            max_retries: 1_000,
            call_budget: Duration::from_millis(50),
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(10),
        });
        let before = clock.elapsed();
        let err = client.ping(SiteId::new(2)).unwrap_err();
        assert!(matches!(err, ObiError::Timeout { to } if to == SiteId::new(2)));
        let spent = clock.elapsed() - before;
        // The budget, plus at most one final backoff, bounds the call.
        assert!(spent <= Duration::from_millis(60), "{spent:?}");
        assert!(spent >= Duration::from_millis(50), "{spent:?}");
    }

    #[test]
    fn breaker_opens_fast_fails_and_recovers_after_heal() {
        let (client, net, clock, _svc) = lossy_rig(1.0);
        client.set_rpc_policy(RetryPolicy {
            max_retries: 1,
            call_budget: Duration::from_millis(100),
            ..RetryPolicy::default()
        });
        let threshold = CircuitBreaker::default().config().failure_threshold;
        for _ in 0..threshold {
            assert!(matches!(
                client.ping(SiteId::new(2)),
                Err(ObiError::MessageLost { .. })
            ));
        }
        assert_eq!(client.breaker_state(SiteId::new(2)), BreakerState::Open);
        // Open breaker: immediate SiteUnreachable, no frame, no time.
        let frames_before = net.metrics().snapshot().messages_sent;
        let t_before = clock.elapsed();
        let err = client.ping(SiteId::new(2)).unwrap_err();
        assert!(matches!(err, ObiError::SiteUnreachable(s) if s == SiteId::new(2)));
        assert_eq!(net.metrics().snapshot().messages_sent, frames_before);
        assert_eq!(clock.elapsed(), t_before, "fast-fail must cost no time");
        assert_eq!(client.metrics().snapshot().breaker_fast_fails, 1);
        // Heal the link and wait out the cooldown: the half-open probe
        // succeeds and the breaker closes again.
        net.with_topology_mut(|t| {
            t.set_link_symmetric(SiteId::new(1), SiteId::new(2), LinkModel::ideal());
        });
        clock.charge(CircuitBreaker::default().config().cooldown);
        assert_eq!(client.breaker_state(SiteId::new(2)), BreakerState::HalfOpen);
        client.ping(SiteId::new(2)).expect("probe should close the breaker");
        assert_eq!(client.breaker_state(SiteId::new(2)), BreakerState::Closed);
    }

    #[test]
    fn ack_horizon_keeps_the_server_reply_cache_small() {
        let clock = Clock::new(ClockMode::VirtualOnly);
        let net = Arc::new(SimTransport::new(clock.clone(), conditions::paper_lan()));
        let server = Arc::new(RmiServer::new(Arc::new(EchoService)));
        net.register(SiteId::new(2), server.clone());
        let client = RmiClient::new(SiteId::new(1), net, clock, CostModel::free());
        let rounds = 2 * ANNOUNCE_EVERY;
        for _ in 0..rounds {
            client.ping(SiteId::new(2)).unwrap();
        }
        // Without horizon pruning the cache would hold every reply.
        assert!(
            (server.replies().len() as u64) <= ANNOUNCE_EVERY,
            "cache holds {} replies after {} calls",
            server.replies().len(),
            rounds
        );
    }

    /// A provider answering `get_many` with `objects` replicas and a
    /// one-edge frontier, counting executions.
    #[derive(Debug)]
    struct BatchService {
        objects: usize,
        calls: AtomicU64,
    }

    impl RmiService for BatchService {
        fn invoke(
            &self,
            _from: SiteId,
            _target: ObjId,
            _method: &str,
            _args: ObiValue,
        ) -> Result<ObiValue> {
            Ok(ObiValue::Null)
        }

        fn get_many(
            &self,
            _from: SiteId,
            targets: &[ObjId],
            _mode: WireMode,
        ) -> Result<ReplicaBatch> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Ok(ReplicaBatch {
                root: targets[0],
                replicas: (0..self.objects)
                    .map(|i| ReplicaState {
                        id: ObjId::new(SiteId::new(2), i as u64 + 1),
                        class: "Node".into(),
                        version: 1,
                        state: bytes::Bytes::from_static(b"s"),
                    })
                    .collect(),
                frontier: vec![obiwan_wire::FrontierEdge {
                    target: ObjId::new(SiteId::new(2), 900),
                    class: "Node".into(),
                }],
                cluster: None,
            })
        }
    }

    fn stream_rig(
        objects: usize,
        link: LinkModel,
        seed: u64,
    ) -> (RmiClient, Arc<SimTransport>, Arc<BatchService>) {
        let clock = Clock::new(ClockMode::VirtualOnly);
        let net = Arc::new(SimTransport::new(clock.clone(), conditions::paper_lan()));
        net.reseed(seed);
        net.with_topology_mut(|t| {
            t.set_link_symmetric(SiteId::new(1), SiteId::new(2), link);
        });
        let svc = Arc::new(BatchService {
            objects,
            calls: AtomicU64::new(0),
        });
        net.register(SiteId::new(2), Arc::new(RmiServer::new(svc.clone())));
        let client = RmiClient::new(SiteId::new(1), net.clone(), clock, CostModel::free());
        (client, net, svc)
    }

    fn collect_chunks(
        client: &RmiClient,
        objects_expected: usize,
    ) -> (Vec<u32>, Vec<u64>, usize) {
        let mut indices = Vec::new();
        let mut ids = Vec::new();
        let mut frontier_edges = 0usize;
        client
            .get(
                SiteId::new(2),
                vec![ObjId::new(SiteId::new(2), 1)],
                WireMode::Incremental {
                    batch: objects_expected as u32,
                },
                STREAM_CHUNK_OBJECTS,
                None,
                &mut |index, batch| {
                    indices.push(index);
                    ids.extend(batch.replicas.iter().map(|r| r.id.local()));
                    frontier_edges += batch.frontier.len();
                },
            )
            .expect("stream should complete");
        (indices, ids, frontier_edges)
    }

    #[test]
    fn streamed_demand_delivers_every_chunk_in_order_for_one_round_trip() {
        let (client, _net, svc) = stream_rig(20, LinkModel::ideal(), 5);
        let (indices, ids, frontier_edges) = collect_chunks(&client, 20);
        assert_eq!(indices, vec![0, 1, 2], "20 objects at 8/chunk is 3 chunks");
        assert_eq!(ids, (1..=20).collect::<Vec<u64>>(), "in order, no gaps");
        assert_eq!(frontier_edges, 1, "frontier arrives exactly once");
        assert_eq!(svc.calls.load(Ordering::Relaxed), 1);
        let snap = client.metrics().snapshot();
        assert_eq!(snap.demand_round_trips, 1, "one batch, one logical exchange");
        assert_eq!(snap.demand_chunks, 3);
        assert_eq!(snap.stream_resumes, 0);
    }

    #[test]
    fn streamed_demand_resumes_across_chunk_loss_without_double_delivery() {
        let (client, _net, svc) = stream_rig(
            64,
            LinkModel::ideal().with_chunk_loss(0.3),
            11,
        );
        client.set_rpc_policy(RetryPolicy {
            max_retries: 50,
            ..RetryPolicy::default()
        });
        let (indices, ids, frontier_edges) = collect_chunks(&client, 64);
        // Exactly-once reassembly: every chunk delivered once, in order,
        // despite 30% of individual chunk frames vanishing.
        assert_eq!(indices, (0..8).collect::<Vec<u32>>());
        assert_eq!(ids, (1..=64).collect::<Vec<u64>>());
        assert_eq!(frontier_edges, 1);
        let snap = client.metrics().snapshot();
        assert_eq!(snap.demand_round_trips, 1, "resumes are not new round-trips");
        assert!(
            snap.stream_resumes > 0,
            "30% chunk loss over 8 chunks must force at least one resume"
        );
        assert_eq!(snap.rpc_retries, snap.stream_resumes);
        // Each resume re-executes the (read-only) provider service.
        assert_eq!(
            svc.calls.load(Ordering::Relaxed),
            1 + snap.stream_resumes
        );
    }

    #[test]
    fn streamed_demand_survives_chunk_duplication_and_reordering() {
        let (client, _net, _svc) = stream_rig(
            40,
            LinkModel::ideal()
                .with_chunk_duplicate(0.4)
                .with_chunk_reorder(0.4),
            23,
        );
        let (indices, ids, _) = collect_chunks(&client, 40);
        assert_eq!(indices, (0..5).collect::<Vec<u32>>());
        assert_eq!(ids, (1..=40).collect::<Vec<u64>>());
        assert_eq!(client.metrics().snapshot().demand_chunks, 5);
    }

    #[test]
    fn plain_handlers_answer_a_streamed_demand_with_one_chunk() {
        let (client, net, svc) = stream_rig(20, LinkModel::ideal(), 5);
        // Re-register site 2 behind a closure handler: its default
        // `handle_stream` never streams, so the server pump answers the
        // demand with the whole batch as a one-chunk stream.
        let server = Arc::new(RmiServer::new(svc.clone()));
        net.register(
            SiteId::new(2),
            Arc::new(move |from: SiteId, frame: bytes::Bytes| server.handle(from, frame)),
        );
        let (indices, ids, frontier_edges) = collect_chunks(&client, 20);
        assert_eq!(indices, vec![0], "the whole batch arrives as one chunk");
        assert_eq!(ids, (1..=20).collect::<Vec<u64>>());
        assert_eq!(frontier_edges, 1);
        assert_eq!(client.metrics().snapshot().demand_chunks, 1);
    }

    #[test]
    fn streamed_demand_surfaces_provider_errors() {
        let (client, net, _svc) = stream_rig(4, LinkModel::ideal(), 5);
        // A provider with no objects behind an EchoService: `get_many`
        // reports NoSuchObject through the reply frame.
        net.register(SiteId::new(3), Arc::new(RmiServer::new(Arc::new(EchoService))));
        let err = client
            .get(
                SiteId::new(3),
                vec![ObjId::new(SiteId::new(3), 1)],
                WireMode::Incremental { batch: 4 },
                STREAM_CHUNK_OBJECTS,
                None,
                &mut |_, _| panic!("no chunks on a failed stream"),
            )
            .unwrap_err();
        assert!(matches!(err, ObiError::NoSuchObject(_)));
    }

    /// A faulty provider: on its first `hostile` answers it streams
    /// `junk` chunks whose indices lie past their own total, then a reply
    /// whose total contradicts the stream's; afterwards it answers
    /// honestly, resuming where asked.
    struct HostileProvider {
        hostile: u64,
        junk: u32,
        answers: AtomicU64,
    }

    impl MessageHandler for HostileProvider {
        fn handle(&self, from: SiteId, frame: bytes::Bytes) -> Option<bytes::Bytes> {
            self.handle_stream(from, frame, &mut |_| {})
        }

        fn handle_stream(
            &self,
            _from: SiteId,
            frame: bytes::Bytes,
            sink: &mut dyn FnMut(bytes::Bytes),
        ) -> Option<bytes::Bytes> {
            let Ok(Message::GetRequest {
                request,
                resume_from,
                ..
            }) = Message::decode(&frame)
            else {
                return None;
            };
            let chunk = |chunk_index: u32, total: u32| {
                Message::GetChunk {
                    request,
                    chunk_index,
                    total,
                    result: Ok(ReplicaBatch {
                        root: ObjId::new(SiteId::new(2), 1),
                        replicas: vec![ReplicaState {
                            id: ObjId::new(SiteId::new(2), u64::from(chunk_index) + 1),
                            class: "Node".into(),
                            version: 1,
                            state: bytes::Bytes::from_static(b"s"),
                        }],
                        frontier: Vec::new(),
                        cluster: None,
                    }),
                }
                .encode()
            };
            if self.answers.fetch_add(1, Ordering::Relaxed) < self.hostile {
                for i in 0..self.junk {
                    sink(chunk(2 + i, 2));
                }
                // Chunk 0 of a 2-chunk stream, then a reply claiming 3.
                sink(chunk(0, 2));
                return Some(chunk(1, 3));
            }
            for i in resume_from..1 {
                sink(chunk(i, 2));
            }
            Some(chunk(1, 2))
        }
    }

    fn hostile_rig(hostile: u64) -> RmiClient {
        let clock = Clock::new(ClockMode::VirtualOnly);
        let net = Arc::new(SimTransport::new(clock.clone(), conditions::paper_lan()));
        net.register(
            SiteId::new(2),
            Arc::new(HostileProvider {
                hostile,
                junk: 10_000,
                answers: AtomicU64::new(0),
            }),
        );
        let client = RmiClient::new(SiteId::new(1), net, clock, CostModel::free());
        client.set_rpc_policy(RetryPolicy {
            max_retries: 3,
            ..RetryPolicy::default()
        });
        client
    }

    fn demand_two_chunks(client: &RmiClient) -> (Result<()>, Vec<u32>) {
        let mut indices = Vec::new();
        let out = client.get(
            SiteId::new(2),
            vec![ObjId::new(SiteId::new(2), 1)],
            WireMode::Incremental { batch: 2 },
            1,
            None,
            &mut |index, _| indices.push(index),
        );
        (out, indices)
    }

    #[test]
    fn out_of_range_chunks_are_lost_frames_and_a_resume_heals_them() {
        let client = hostile_rig(1);
        let (out, indices) = demand_two_chunks(&client);
        out.expect("the honest resume completes the stream");
        // None of the 10 000 junk chunks was delivered; chunk 0 of the
        // first attempt was, and the contradicting reply was dropped.
        assert_eq!(indices, vec![0, 1]);
        let snap = client.metrics().snapshot();
        assert_eq!(snap.demand_chunks, 2);
        assert_eq!(snap.stream_resumes, 1);
    }

    #[test]
    fn a_provider_that_never_stops_lying_fails_with_a_typed_error() {
        let client = hostile_rig(u64::MAX);
        let (out, indices) = demand_two_chunks(&client);
        assert!(matches!(out, Err(ObiError::Timeout { .. })), "{out:?}");
        assert_eq!(indices, vec![0], "only the in-range chunk was delivered");
        // Retries or the call's deadline (junk frames cost link time) end
        // the resumes, whichever runs out first.
        let resumes = client.metrics().snapshot().stream_resumes;
        assert!((1..=3).contains(&resumes), "{resumes} resumes");
    }

    #[test]
    fn reassembly_parks_only_in_range_chunks() {
        let batch = || ReplicaBatch {
            root: ObjId::new(SiteId::new(2), 1),
            replicas: Vec::new(),
            frontier: Vec::new(),
            cluster: None,
        };
        let mut stream = Reassembly::default();
        let mut delivered = Vec::new();
        let mut deliver = |index: u32, _: ReplicaBatch| delivered.push(index);
        // Chunk 0 is missing, so everything in range parks behind it.
        stream.offer(2, 4, batch(), &mut deliver);
        for index in 4..10_000 {
            stream.offer(index, 4, batch(), &mut deliver);
        }
        stream.offer(1, 9, batch(), &mut deliver);
        stream.offer(3, 4, batch(), &mut deliver);
        stream.offer(3, 4, batch(), &mut deliver);
        assert_eq!(stream.parked.len(), 2, "only chunks 2 and 3 park");
        stream.offer(0, 4, batch(), &mut deliver);
        stream.offer(1, 4, batch(), &mut deliver);
        assert_eq!(delivered, vec![0, 1, 2, 3]);
        assert!(stream.is_complete());
        assert!(stream.parked.is_empty());
    }

    #[test]
    fn join_and_leave_enroll_exactly_once_through_loss() {
        let clock = Clock::new(ClockMode::VirtualOnly);
        let net = Arc::new(SimTransport::new(clock.clone(), conditions::paper_lan()));
        net.reseed(7);
        net.with_topology_mut(|t| {
            t.set_link_symmetric(
                SiteId::new(1),
                SiteId::new(0),
                LinkModel::ideal().with_loss(0.3),
            );
        });
        let ns = Arc::new(crate::NameServerService::new(crate::NameServer::new()));
        ns.registry()
            .bind("root", ObjId::new(SiteId::new(0), 1))
            .unwrap();
        net.register(SiteId::new(0), Arc::new(RmiServer::new(ns.clone())));
        let client = RmiClient::new(SiteId::new(1), net.clone(), clock, CostModel::free());
        client.set_rpc_policy(RetryPolicy {
            max_retries: 20,
            ..RetryPolicy::default()
        });
        let info = client.join(SiteId::new(0)).expect("join retries through loss");
        assert!(info.peers.is_empty());
        assert_eq!(info.names.len(), 1);
        assert_eq!(ns.registry().roster(), vec![SiteId::new(1)]);
        // Leave is a one-way cast: fire it over a clean link and observe
        // the roster shrink.
        net.with_topology_mut(|t| {
            t.set_link_symmetric(SiteId::new(1), SiteId::new(0), LinkModel::ideal());
        });
        client.send_leave(SiteId::new(0), SiteId::new(1)).unwrap();
        assert!(ns.registry().roster().is_empty());
    }

    #[test]
    fn breaker_config_is_visible() {
        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 7,
            cooldown: Duration::from_secs(1),
        });
        assert_eq!(b.config().failure_threshold, 7);
    }
}

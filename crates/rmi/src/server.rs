//! The message pump: frames in, [`RmiService`] calls out, replies back.

use crate::fault::{Admit, ReplyCache};
use crate::service::RmiService;
use bytes::Bytes;
use obiwan_net::MessageHandler;
use obiwan_util::trace;
use obiwan_util::{Clock, ClockMode, Metrics, ObjId, RequestId, SiteId};
use obiwan_wire::{Message, ObiValue, ReplicaBatch, WireMode};
use std::sync::Arc;
use std::time::Duration;

/// Decodes incoming frames, dispatches them to an [`RmiService`], and
/// encodes the reply — the skeleton side of every OBIWAN interaction.
///
/// Malformed frames and application failures never poison the pump: they
/// turn into error replies (for requests) or are dropped (for one-way
/// frames), matching how an RMI skeleton surfaces exceptions to the caller
/// rather than crashing the server.
///
/// Every answered request is remembered in a bounded [`ReplyCache`]: a
/// retransmission (client retry, or a network-duplicated frame) of an
/// already-executed request is answered from the cache without running the
/// service again, which is what makes *mutating* requests safe to retry.
pub struct RmiServer {
    service: Arc<dyn RmiService>,
    replies: ReplyCache,
    metrics: Metrics,
    // Timestamps server-side `rpc.handle` spans. Defaults to a private
    // virtual-only clock so standalone servers are traced too; sites that
    // simulate time swap in their own via [`RmiServer::with_clock`].
    clock: Clock,
}

impl std::fmt::Debug for RmiServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RmiServer").finish_non_exhaustive()
    }
}

impl RmiServer {
    /// How long a duplicate request parks on an in-flight execution of the
    /// same id before degrading to executing itself. Only reachable when
    /// the executing worker died without publishing (a panic in a
    /// handler), so generous is fine.
    const IN_FLIGHT_WAIT: Duration = Duration::from_secs(5);

    /// Age past which a still-pending reply slot is presumed abandoned (its
    /// executor died, or a streaming client vanished before the terminal
    /// frame) and reclaimed. Twice the default client call budget: any
    /// legitimate retry of the id has long since given up by then, so no
    /// live waiter can be stranded by the reap.
    const PENDING_REAP_AGE: Duration = Duration::from_secs(60);

    /// Wraps a service in a message pump with default reply-cache bounds.
    pub fn new(service: Arc<dyn RmiService>) -> Self {
        Self::with_metrics(service, Metrics::new())
    }

    /// Like [`RmiServer::new`], but recording into an externally owned
    /// counter set.
    pub fn with_metrics(service: Arc<dyn RmiService>, metrics: Metrics) -> Self {
        RmiServer {
            service,
            replies: ReplyCache::new(ReplyCache::DEFAULT_CAPACITY),
            metrics,
            clock: Clock::new(ClockMode::VirtualOnly),
        }
    }

    /// Like [`RmiServer::new`], with an explicit reply-cache capacity.
    pub fn with_reply_capacity(service: Arc<dyn RmiService>, capacity: usize) -> Self {
        RmiServer {
            service,
            replies: ReplyCache::new(capacity),
            metrics: Metrics::new(),
            clock: Clock::new(ClockMode::VirtualOnly),
        }
    }

    /// Replaces the default virtual clock with the site clock, so
    /// `rpc.handle` spans share the site's timeline.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Server-side metrics (cached replies served, …).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The reply cache backing exactly-once retries.
    pub fn replies(&self) -> &ReplyCache {
        &self.replies
    }

    /// Reaps pending slots older than [`RmiServer::PENDING_REAP_AGE`].
    /// Piggy-backed on frame arrival so an idle server costs nothing.
    fn reap_abandoned_slots(&self, now_nanos: u64) {
        let reaped = self.replies.reap_pending(now_nanos, Self::PENDING_REAP_AGE);
        if reaped > 0 {
            self.metrics.add_pending_slots_reaped(reaped as u64);
        }
    }

    fn dispatch(&self, from: SiteId, msg: Message) -> Option<Message> {
        match msg {
            Message::InvokeRequest {
                request,
                target,
                method,
                args,
            } => Some(Message::InvokeReply {
                request,
                result: self.service.invoke(from, target, &method, args),
            }),
            Message::PutRequest { request, entries } => Some(Message::PutReply {
                request,
                result: self.service.put(from, entries),
            }),
            Message::NameRequest { request, op } => Some(Message::NameReply {
                request,
                result: self.service.name_op(from, op),
            }),
            Message::Subscribe {
                request,
                object,
                push,
            } => Some(Message::Ack {
                request,
                result: self.service.subscribe(from, object, push),
            }),
            Message::Ping { request } => Some(Message::Pong { request }),
            // Membership: the joiner's identity is the transport-level
            // `from` (like `Ping`), so a relayed frame cannot enroll a
            // third party.
            Message::JoinRequest { request } => Some(Message::JoinAck {
                request,
                result: self.service.join(from),
            }),
            Message::HandoffRequest {
                request,
                root,
                entries,
            } => Some(Message::HandoffAck {
                request,
                result: self.service.handoff(from, root, entries),
            }),
            Message::Leave { site } => {
                self.service.leave_notice(from, site);
                None
            }
            Message::Invalidate { objects } => {
                self.service.invalidate(from, objects);
                None
            }
            Message::UpdatePush { entries } => {
                self.service.update_push(from, entries);
                None
            }
            // Handled (cache pruning, demand streams) in `handle` before
            // dispatch; the arm keeps the match exhaustive.
            Message::AckHorizon { .. } | Message::GetRequest { .. } => None,
            // Replies arriving here are protocol violations; the synchronous
            // transports never produce them, so drop silently.
            Message::InvokeReply { .. }
            | Message::GetChunk { .. }
            | Message::PutReply { .. }
            | Message::NameReply { .. }
            | Message::Ack { .. }
            | Message::Pong { .. }
            | Message::JoinAck { .. }
            | Message::HandoffAck { .. } => None,
        }
    }

    /// Admits one request through the [`ReplyCache`]: either the frame
    /// that answers it without running the service, or leave to run it
    /// (`true` when this call owns the id's slot and must `complete` it).
    /// A cached or concurrently produced reply answers only if `answers`
    /// accepts it; otherwise the request runs again, uncached.
    fn admit(
        &self,
        from: SiteId,
        request: Option<RequestId>,
        span: &mut trace::SpanGuard,
        answers: impl Fn(&Bytes) -> bool,
    ) -> Admitted {
        let now_nanos = self.clock.elapsed().as_nanos() as u64;
        self.reap_abandoned_slots(now_nanos);
        // Only cache under ids the sender itself issued: a relayed or
        // spoofed origin must not let one site poison another's retry
        // slots.
        let Some(id) = request.filter(|id| id.origin() == from) else {
            return Admitted::Run(false);
        };
        let mut reuse = |frame: Bytes| {
            if !answers(&frame) {
                return Admitted::Run(false);
            }
            self.metrics.incr_cached_replies();
            // Value 1 marks a reply served from the cache (an elided
            // re-execution).
            span.set_value(1);
            Admitted::Reply(frame)
        };
        // Under worker-pool dispatch two copies of one request can race;
        // `begin` admits exactly one executor per id and parks the rest,
        // so mutating requests stay exactly-once.
        match self.replies.begin(id, now_nanos) {
            Admit::Execute => Admitted::Run(true),
            Admit::Cached(frame) => reuse(frame),
            Admit::Wait(rx) => match rx.recv_timeout(Self::IN_FLIGHT_WAIT) {
                Ok(Some(frame)) => reuse(frame),
                // The executor ran the request but produced no reply
                // frame; answer with the same generic error it did,
                // without re-running.
                Ok(None) => Admitted::Reply(no_reply(id)),
                // The executing worker vanished without publishing
                // (handler panic): degrade to executing ourselves,
                // uncached.
                Err(_) => Admitted::Run(false),
            },
        }
    }

    /// Serves one demand: slices the merged batch into
    /// [`Message::GetChunk`] frames of `chunk` objects ([`WHOLE_BATCH`]
    /// for one), pushes every chunk but the last through `sink` (skipping
    /// indices below `resume_from`), and returns the last chunk — or the
    /// error — as the encoded reply frame.
    ///
    /// The [`RmiService::get_many`] call releases every shard guard before
    /// returning its batch, so no lock is ever held across a `sink` send.
    /// Only the reply frame enters the [`ReplyCache`]. A retransmission
    /// whose client lacks only that frame is answered from the cache; one
    /// that resumes further back re-executes the (read-only) `get_many` and
    /// re-slices fresh chunks, because the cache holds none of the earlier
    /// ones — sound, since the client's version-guarded materialization
    /// makes chunk re-delivery idempotent.
    ///
    /// [`WHOLE_BATCH`]: crate::WHOLE_BATCH
    #[allow(clippy::too_many_arguments)]
    fn serve_get(
        &self,
        from: SiteId,
        request: RequestId,
        targets: &[ObjId],
        mode: WireMode,
        chunk: u32,
        resume_from: u32,
        sink: &mut dyn FnMut(Bytes),
    ) -> Bytes {
        let mut span = trace::span(&self.clock, "rpc.handle").with_req(request);
        let answers = |frame: &Bytes| match Message::decode(frame) {
            Ok(Message::GetChunk {
                chunk_index,
                result,
                ..
            }) => result.is_err() || chunk_index == resume_from,
            _ => true,
        };
        let executor = match self.admit(from, Some(request), &mut span, answers) {
            Admitted::Reply(frame) => return frame,
            Admitted::Run(executor) => executor,
        };
        let per_chunk = match chunk {
            crate::WHOLE_BATCH => usize::MAX,
            n => n as usize,
        };
        let reply = match self.service.get_many(from, targets, mode) {
            Ok(batch) => {
                let ReplicaBatch {
                    root,
                    replicas,
                    mut frontier,
                    cluster,
                } = batch;
                // An empty batch still makes one (empty) chunk so the
                // frontier has a frame to ride on. Replicas are moved into
                // their chunks, never copied.
                let total = replicas.len().div_ceil(per_chunk).max(1) as u32;
                let mut rest = replicas.into_iter();
                let mut slice = |index: u32| Message::GetChunk {
                    request,
                    chunk_index: index,
                    total,
                    result: Ok(ReplicaBatch {
                        root,
                        replicas: rest.by_ref().take(per_chunk).collect(),
                        frontier: if index + 1 == total {
                            std::mem::take(&mut frontier)
                        } else {
                            Vec::new()
                        },
                        cluster,
                    }),
                };
                for index in 0..total - 1 {
                    let chunk = slice(index);
                    if index >= resume_from {
                        sink(chunk.encode());
                    }
                }
                slice(total - 1)
            }
            Err(e) => Message::GetChunk {
                request,
                chunk_index: 0,
                total: 0,
                result: Err(e),
            },
        }
        .encode();
        if executor {
            self.replies.complete(request, Some(reply.clone()));
        }
        reply
    }
}

/// What [`RmiServer::admit`] decided for one request.
enum Admitted {
    /// Answer with this frame; the service does not run.
    Reply(Bytes),
    /// Run the service; `true` when the reply must complete the id's slot.
    Run(bool),
}

/// The generic error answering a request whose execution produced no reply.
fn no_reply(request: RequestId) -> Bytes {
    Message::Ack {
        request,
        result: Err(obiwan_util::ObiError::Internal(
            "request produced no reply".into(),
        )),
    }
    .encode()
}

impl MessageHandler for RmiServer {
    fn handle_stream(
        &self,
        from: SiteId,
        frame: Bytes,
        sink: &mut dyn FnMut(Bytes),
    ) -> Option<Bytes> {
        // Only demands stream; every other frame — including undecodable
        // garbage — goes through the one-shot pump.
        if let Ok(Message::GetRequest {
            request,
            targets,
            mode,
            chunk,
            resume_from,
        }) = Message::decode(&frame)
        {
            return Some(self.serve_get(from, request, &targets, mode, chunk, resume_from, sink));
        }
        self.handle(from, frame)
    }

    fn handle(&self, from: SiteId, frame: Bytes) -> Option<Bytes> {
        match Message::decode(&frame) {
            Ok(Message::AckHorizon { up_to }) => {
                self.replies.ack_horizon(from, up_to);
                None
            }
            // No streaming path (a plain transport, or a wrapper that only
            // forwards `handle`): the whole batch is a one-chunk stream.
            Ok(Message::GetRequest {
                request,
                targets,
                mode,
                resume_from,
                ..
            }) => Some(self.serve_get(
                from,
                request,
                &targets,
                mode,
                crate::WHOLE_BATCH,
                resume_from,
                &mut |_| {},
            )),
            Ok(msg) => {
                let is_request = msg.is_request();
                let request = msg.request_id();
                let mut span = trace::span(&self.clock, "rpc.handle");
                if let Some(id) = request {
                    span = span.with_req(id);
                }
                let executor = match self.admit(from, request, &mut span, |_| true) {
                    Admitted::Reply(frame) => return Some(frame),
                    Admitted::Run(executor) => executor,
                };
                let reply = self.dispatch(from, msg).map(|reply| reply.encode());
                if executor {
                    if let Some(id) = request {
                        self.replies.complete(id, reply.clone());
                    }
                }
                match reply {
                    Some(frame) => Some(frame),
                    // A request must always be answered; if dispatch
                    // produced nothing (cannot happen for well-formed
                    // requests), send a generic error rather than stalling
                    // the caller.
                    None if is_request => request.map(no_reply),
                    // One-way frames (and stray replies, which do carry a
                    // request id).
                    None => None,
                }
            }
            Err(e) => {
                // Can't correlate a reply without a request id; answer with
                // a null-correlated Ack so callers at least unblock. The
                // decode error is preserved in the payload.
                let request =
                    obiwan_util::RequestId::new(SiteId::new(u32::MAX), 0);
                Some(
                    Message::Ack {
                        request,
                        result: Err(e),
                    }
                    .encode(),
                )
            }
        }
    }
}

/// Convenience: a server answering only `Ping` and echoing `Invoke` args,
/// used by connectivity probes and transport tests.
#[derive(Debug, Default)]
pub struct EchoService;

impl RmiService for EchoService {
    fn invoke(
        &self,
        _from: SiteId,
        _target: obiwan_util::ObjId,
        _method: &str,
        args: ObiValue,
    ) -> obiwan_util::Result<ObiValue> {
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obiwan_util::{ObjId, RequestId};

    fn server() -> RmiServer {
        RmiServer::new(Arc::new(EchoService))
    }

    fn rid() -> RequestId {
        RequestId::new(SiteId::new(1), 1)
    }

    fn oid() -> ObjId {
        ObjId::new(SiteId::new(2), 1)
    }

    #[test]
    fn ping_yields_pong() {
        let s = server();
        let frame = Message::Ping { request: rid() }.encode();
        let reply = s.handle(SiteId::new(1), frame).unwrap();
        assert_eq!(
            Message::decode(&reply).unwrap(),
            Message::Pong { request: rid() }
        );
    }

    #[test]
    fn invoke_routes_to_service() {
        let s = server();
        let frame = Message::InvokeRequest {
            request: rid(),
            target: oid(),
            method: "echo".into(),
            args: ObiValue::I64(5),
        }
        .encode();
        let reply = Message::decode(&s.handle(SiteId::new(1), frame).unwrap()).unwrap();
        match reply {
            Message::InvokeReply { request, result } => {
                assert_eq!(request, rid());
                assert_eq!(result.unwrap(), ObiValue::I64(5));
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn unsupported_request_yields_error_reply_not_silence() {
        let s = server();
        let frame = Message::GetRequest {
            request: rid(),
            targets: vec![oid()],
            mode: obiwan_wire::WireMode::Transitive,
            chunk: crate::WHOLE_BATCH,
            resume_from: 0,
        }
        .encode();
        let reply = Message::decode(&s.handle(SiteId::new(1), frame).unwrap()).unwrap();
        match reply {
            Message::GetChunk { result, .. } => assert!(result.is_err()),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn one_way_frames_yield_no_reply() {
        let s = server();
        let frame = Message::Invalidate { objects: vec![oid()] }.encode();
        assert!(s.handle(SiteId::new(1), frame).is_none());
    }

    #[test]
    fn garbage_yields_decode_error_reply() {
        let s = server();
        let reply = s.handle(SiteId::new(1), Bytes::from_static(b"\xff\xff")).unwrap();
        match Message::decode(&reply).unwrap() {
            Message::Ack { result, .. } => {
                assert!(matches!(result, Err(obiwan_util::ObiError::Decode(_))));
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn stray_replies_are_dropped() {
        let s = server();
        let frame = Message::Pong { request: rid() }.encode();
        assert!(s.handle(SiteId::new(1), frame).is_none());
    }

    /// A service whose `invoke` returns how many times it has run —
    /// any re-execution is visible in the reply.
    #[derive(Debug, Default)]
    struct CountingService {
        calls: std::sync::atomic::AtomicU64,
    }

    impl RmiService for CountingService {
        fn invoke(
            &self,
            _from: SiteId,
            _target: ObjId,
            _method: &str,
            _args: ObiValue,
        ) -> obiwan_util::Result<ObiValue> {
            let n = self
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(ObiValue::I64(n as i64 + 1))
        }
    }

    fn invoke_frame(seq: u64) -> Bytes {
        Message::InvokeRequest {
            request: RequestId::new(SiteId::new(1), seq),
            target: oid(),
            method: "count".into(),
            args: ObiValue::Null,
        }
        .encode()
    }

    #[test]
    fn duplicate_request_is_served_from_the_reply_cache() {
        let svc = Arc::new(CountingService::default());
        let s = RmiServer::new(svc.clone());
        let first = s.handle(SiteId::new(1), invoke_frame(1)).unwrap();
        let second = s.handle(SiteId::new(1), invoke_frame(1)).unwrap();
        // Byte-identical replies, one execution, one cache hit.
        assert_eq!(first, second);
        assert_eq!(svc.calls.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(s.metrics().snapshot().cached_replies, 1);
        // A fresh id executes again.
        s.handle(SiteId::new(1), invoke_frame(2)).unwrap();
        assert_eq!(svc.calls.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    #[test]
    fn ack_horizon_prunes_cached_replies() {
        let svc = Arc::new(CountingService::default());
        let s = RmiServer::new(svc.clone());
        s.handle(SiteId::new(1), invoke_frame(1)).unwrap();
        assert_eq!(s.replies().len(), 1);
        let ack = Message::AckHorizon { up_to: 1 }.encode();
        assert!(s.handle(SiteId::new(1), ack).is_none());
        assert!(s.replies().is_empty());
        // After pruning, the same id re-executes — the client promised
        // never to send it again, so this only happens under test.
        s.handle(SiteId::new(1), invoke_frame(1)).unwrap();
        assert_eq!(svc.calls.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    #[test]
    fn mismatched_origin_is_never_cached() {
        let svc = Arc::new(CountingService::default());
        let s = RmiServer::new(svc.clone());
        // Site 3 sends a request stamped with site 1's origin: answered,
        // but not cached under site 1's retry slot.
        s.handle(SiteId::new(3), invoke_frame(1)).unwrap();
        assert!(s.replies().is_empty());
        s.handle(SiteId::new(3), invoke_frame(1)).unwrap();
        assert_eq!(svc.calls.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    /// A sender that never acknowledges its settled prefix (no `AckHorizon`
    /// frames at all) must still leave the server's reply cache within its
    /// LRU bound.
    #[test]
    fn unacked_traffic_keeps_the_reply_cache_within_its_bound() {
        let svc = Arc::new(CountingService::default());
        let capacity = 4;
        let s = RmiServer::with_reply_capacity(svc, capacity);
        for seq in 1..=500 {
            s.handle(SiteId::new(1), invoke_frame(seq)).unwrap();
            assert!(
                s.replies().len() <= capacity,
                "cache holds {} replies after {seq} unacked requests",
                s.replies().len()
            );
        }
        assert_eq!(s.replies().len(), capacity);
    }

    #[test]
    fn decode_failure_acks_are_not_cached() {
        let s = server();
        s.handle(SiteId::new(1), Bytes::from_static(b"\xff\xff")).unwrap();
        assert!(s.replies().is_empty());
    }

    /// The race `begin`/`complete` closes: many copies of one mutating
    /// request dispatched concurrently (a worker pool draining a shared
    /// inbox) must execute exactly once, every copy receiving the same
    /// reply bytes.
    #[test]
    fn concurrent_duplicates_execute_exactly_once() {
        let svc = Arc::new(CountingService::default());
        let s = Arc::new(RmiServer::new(svc.clone()));
        for round in 0..20u64 {
            let barrier = Arc::new(std::sync::Barrier::new(4));
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let s = s.clone();
                    let barrier = barrier.clone();
                    std::thread::spawn(move || {
                        barrier.wait();
                        s.handle(SiteId::new(1), invoke_frame(round + 1)).unwrap()
                    })
                })
                .collect();
            let replies: Vec<Bytes> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(
                replies.iter().all(|r| *r == replies[0]),
                "round {round}: duplicates saw divergent replies"
            );
            assert_eq!(
                svc.calls.load(std::sync::atomic::Ordering::Relaxed),
                round + 1,
                "round {round}: a duplicate re-executed the handler"
            );
        }
        // 20 rounds x 3 losing duplicates, all served without execution.
        assert_eq!(s.metrics().snapshot().cached_replies, 60);
    }

    /// Regression for the pending-slot leak: a streaming client that dies
    /// before its terminal frame (or a handler that panics) leaves a
    /// `begin`ed slot that LRU pressure can never evict. The age-based reap
    /// must reclaim it so the id is admitted afresh.
    #[test]
    fn abandoned_pending_slot_is_reaped_and_the_id_re_executes() {
        let svc = Arc::new(CountingService::default());
        let clock = Clock::new(ClockMode::VirtualOnly);
        let s = RmiServer::new(svc.clone()).with_clock(clock.clone());
        // Forge the leak: an executor began but died before `complete`.
        let id = RequestId::new(SiteId::new(1), 1);
        assert!(matches!(s.replies().begin(id, 0), Admit::Execute));
        assert_eq!(s.replies().pending_len(), 1);
        // Unrelated traffic inside the age window must not reap it.
        s.handle(SiteId::new(1), invoke_frame(2)).unwrap();
        assert_eq!(s.replies().pending_len(), 1);
        // Past the horizon the next arrival reaps the slot, and the retried
        // id executes instead of parking on a reply that will never come.
        clock.charge(RmiServer::PENDING_REAP_AGE + Duration::from_secs(1));
        let reply = s.handle(SiteId::new(1), invoke_frame(1)).unwrap();
        assert!(matches!(
            Message::decode(&reply).unwrap(),
            Message::InvokeReply { result: Ok(_), .. }
        ));
        assert_eq!(s.replies().pending_len(), 0);
        assert_eq!(s.metrics().snapshot().pending_slots_reaped, 1);
        assert_eq!(svc.calls.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    #[test]
    fn join_and_handoff_dispatch_to_the_service() {
        let s = server();
        // EchoService keeps the trait defaults: joins are refused, handoffs
        // target no object — but both must answer with the paired ack.
        let reply = s
            .handle(SiteId::new(1), Message::JoinRequest { request: rid() }.encode())
            .unwrap();
        match Message::decode(&reply).unwrap() {
            Message::JoinAck { request, result } => {
                assert_eq!(request, rid());
                assert!(result.is_err());
            }
            other => panic!("unexpected reply {other:?}"),
        }
        // A fresh id: the JoinAck above is already cached under `rid()`.
        let hid = RequestId::new(SiteId::new(1), 2);
        let reply = s
            .handle(
                SiteId::new(1),
                Message::HandoffRequest {
                    request: hid,
                    root: oid(),
                    entries: Vec::new(),
                }
                .encode(),
            )
            .unwrap();
        match Message::decode(&reply).unwrap() {
            Message::HandoffAck { request, result } => {
                assert_eq!(request, hid);
                assert!(result.is_err());
            }
            other => panic!("unexpected reply {other:?}"),
        }
        // Leave is one-way, and stray membership acks are dropped.
        assert!(s
            .handle(SiteId::new(1), Message::Leave { site: SiteId::new(9) }.encode())
            .is_none());
        assert!(s
            .handle(
                SiteId::new(1),
                Message::JoinAck {
                    request: RequestId::new(SiteId::new(1), 99),
                    result: Err(obiwan_util::ObiError::Internal("stray".into())),
                }
                .encode(),
            )
            .is_none());
    }

    /// A provider service answering `get_many` with a fixed-size batch and
    /// a two-edge frontier, counting executions so tests can see when a
    /// stream re-ran it.
    #[derive(Debug)]
    struct BatchService {
        objects: usize,
        calls: std::sync::atomic::AtomicU64,
    }

    impl BatchService {
        fn new(objects: usize) -> Self {
            BatchService {
                objects,
                calls: std::sync::atomic::AtomicU64::new(0),
            }
        }
    }

    impl crate::service::RmiService for BatchService {
        fn invoke(
            &self,
            _from: SiteId,
            _target: ObjId,
            _method: &str,
            _args: ObiValue,
        ) -> obiwan_util::Result<ObiValue> {
            Ok(ObiValue::Null)
        }

        fn get_many(
            &self,
            _from: SiteId,
            targets: &[ObjId],
            _mode: WireMode,
        ) -> obiwan_util::Result<ReplicaBatch> {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let root = targets.first().copied().unwrap_or_else(oid);
            Ok(ReplicaBatch {
                root,
                replicas: (0..self.objects)
                    .map(|i| obiwan_wire::ReplicaState {
                        id: ObjId::new(SiteId::new(2), i as u64 + 1),
                        class: "Node".into(),
                        version: 1,
                        state: Bytes::from_static(b"s"),
                    })
                    .collect(),
                frontier: vec![
                    obiwan_wire::FrontierEdge {
                        target: ObjId::new(SiteId::new(2), 900),
                        class: "Node".into(),
                    },
                    obiwan_wire::FrontierEdge {
                        target: ObjId::new(SiteId::new(2), 901),
                        class: "Node".into(),
                    },
                ],
                cluster: None,
            })
        }
    }

    fn stream_frame(seq: u64, chunk: u32, resume_from: u32) -> Bytes {
        Message::GetRequest {
            request: RequestId::new(SiteId::new(1), seq),
            targets: vec![oid()],
            mode: obiwan_wire::WireMode::Incremental { batch: 8 },
            chunk,
            resume_from,
        }
        .encode()
    }

    /// Streams one demand; returns `(chunk_index, total, batch)` for every
    /// sink frame and then the reply frame.
    fn collect_stream(s: &RmiServer, frame: Bytes) -> Vec<(u32, u32, ReplicaBatch)> {
        let mut chunks = Vec::new();
        let reply = s
            .handle_stream(SiteId::new(1), frame, &mut |raw| chunks.push(raw))
            .expect("demands always answer");
        chunks.push(reply);
        chunks
            .iter()
            .map(|raw| match Message::decode(raw).unwrap() {
                Message::GetChunk {
                    chunk_index,
                    total,
                    result: Ok(batch),
                    ..
                } => (chunk_index, total, batch),
                other => panic!("unexpected demand frame {other:?}"),
            })
            .collect()
    }

    #[test]
    fn demand_slices_chunks_and_the_last_one_is_the_reply() {
        let s = RmiServer::new(Arc::new(BatchService::new(20)));
        let chunks = collect_stream(&s, stream_frame(1, 8, 0));
        // 20 objects at 8 per chunk: 8 + 8 through the sink, then the
        // reply frame carries the last 4 and the frontier.
        assert_eq!(chunks.len(), 3);
        for (i, (index, total, batch)) in chunks.iter().enumerate() {
            assert_eq!(*index, i as u32);
            assert_eq!(*total, 3);
            let want = if i == 2 { 4 } else { 8 };
            assert_eq!(batch.replicas.len(), want, "chunk {i}");
            if i == 2 {
                assert_eq!(batch.frontier.len(), 2, "frontier rides the last chunk");
            } else {
                assert!(batch.frontier.is_empty(), "chunk {i} must carry no frontier");
            }
        }
    }

    #[test]
    fn whole_batch_demand_is_one_reply_frame() {
        let s = RmiServer::new(Arc::new(BatchService::new(20)));
        let chunks = collect_stream(&s, stream_frame(1, crate::WHOLE_BATCH, 0));
        assert_eq!(chunks.len(), 1, "no sink frames, only the reply");
        let (index, total, batch) = &chunks[0];
        assert_eq!((*index, *total), (0, 1));
        assert_eq!(batch.replicas.len(), 20);
        assert_eq!(batch.frontier.len(), 2);
    }

    #[test]
    fn plain_handle_answers_a_demand_as_one_chunk() {
        let s = RmiServer::new(Arc::new(BatchService::new(20)));
        // Asked for 8-object chunks, but `handle` has no sink: the whole
        // batch comes back as the reply frame.
        let reply = s.handle(SiteId::new(1), stream_frame(1, 8, 0)).unwrap();
        match Message::decode(&reply).unwrap() {
            Message::GetChunk {
                chunk_index: 0,
                total: 1,
                result: Ok(batch),
                ..
            } => assert_eq!(batch.replicas.len(), 20),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn resumed_demand_sends_only_the_missing_suffix() {
        let svc = Arc::new(BatchService::new(20));
        let s = RmiServer::new(svc.clone());
        assert_eq!(collect_stream(&s, stream_frame(1, 8, 0)).len(), 3);
        // A retry resuming at chunk 1 needs a chunk the cache does not
        // hold: the provider re-executes and re-streams the suffix only.
        let resumed = collect_stream(&s, stream_frame(1, 8, 1));
        let indices: Vec<u32> = resumed.iter().map(|c| c.0).collect();
        assert_eq!(indices, vec![1, 2], "chunk 0 is not re-sent");
        assert_eq!(svc.calls.load(std::sync::atomic::Ordering::Relaxed), 2);
        // A retry missing only the reply frame is answered from the cache,
        // without re-executing.
        let cached = collect_stream(&s, stream_frame(1, 8, 2));
        let indices: Vec<u32> = cached.iter().map(|c| c.0).collect();
        assert_eq!(indices, vec![2]);
        assert_eq!(svc.calls.load(std::sync::atomic::Ordering::Relaxed), 2);
        assert_eq!(s.metrics().snapshot().cached_replies, 1);
        // Only the reply frame was cached: one entry however many chunks
        // flowed.
        assert_eq!(s.replies().len(), 1);
    }

    #[test]
    fn empty_batch_is_one_chunk_carrying_the_frontier() {
        let s = RmiServer::new(Arc::new(BatchService::new(0)));
        let chunks = collect_stream(&s, stream_frame(1, 8, 0));
        assert_eq!(chunks.len(), 1);
        let (index, total, batch) = &chunks[0];
        assert_eq!((*index, *total), (0, 1));
        assert!(batch.replicas.is_empty());
        assert_eq!(batch.frontier.len(), 2);
    }

    #[test]
    fn non_stream_frames_fall_through_handle_stream_unchanged() {
        let s = server();
        let mut chunks = Vec::new();
        let reply = s
            .handle_stream(
                SiteId::new(1),
                Message::Ping { request: rid() }.encode(),
                &mut |raw| chunks.push(raw),
            )
            .unwrap();
        assert!(chunks.is_empty());
        assert_eq!(
            Message::decode(&reply).unwrap(),
            Message::Pong { request: rid() }
        );
    }

    /// `rpc.handle` spans record even on a server that was never given a
    /// site clock: the pump owns a virtual-only fallback.
    #[test]
    fn handle_traces_spans_without_an_attached_clock() {
        if !trace::trace_enabled() {
            return;
        }
        let s = server();
        s.handle(SiteId::new(1), Message::Ping { request: rid() }.encode())
            .unwrap();
        let recorded = trace::events()
            .iter()
            .any(|e| e.name == "rpc.handle" && e.req == Some(rid()));
        assert!(recorded, "no rpc.handle span reached the trace ring");
    }
}

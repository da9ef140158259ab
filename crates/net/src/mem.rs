//! Threaded in-memory transport.
//!
//! [`MemTransport`] gives each registered site its own receiver thread fed
//! by a crossbeam channel, so multiple sites run under real concurrency —
//! the closest in-process equivalent of the paper's LAN of separate
//! machines. Link latency can optionally be *slept* (scaled), which is
//! useful in examples; by default frames move as fast as the threads do.

use crate::leg::{ChunkReorder, Delay, Leg, Links};
use crate::link::Topology;
use crate::trace::NetTrace;
use crate::transport::{MessageHandler, Transport};
use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, RecvTimeoutError, Sender};
use obiwan_util::{Metrics, ObiError, Result, SiteId};
use obiwan_util::sync::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

enum Envelope {
    Request {
        from: SiteId,
        frame: Bytes,
        reply: Sender<Option<Bytes>>,
    },
    /// A streaming request: the worker pushes every intermediate chunk and
    /// then the terminal reply through one channel, so the caller drains
    /// frames in order while the handler keeps producing — true
    /// cross-thread pipelining.
    Stream {
        from: SiteId,
        frame: Bytes,
        tx: Sender<StreamFrame>,
    },
    OneWay {
        from: SiteId,
        frame: Bytes,
    },
}

enum StreamFrame {
    Chunk(Bytes),
    Done(Option<Bytes>),
}

struct SiteHandle {
    tx: Sender<Envelope>,
    threads: Vec<JoinHandle<()>>,
}

/// A transport whose sites are live threads exchanging frames over
/// channels.
///
/// # Examples
///
/// ```
/// use obiwan_net::{MemTransport, Transport, MessageHandler};
/// use obiwan_util::SiteId;
/// use bytes::Bytes;
/// use std::sync::Arc;
///
/// # fn main() -> obiwan_util::Result<()> {
/// let net = MemTransport::new();
/// net.register(
///     SiteId::new(2),
///     Arc::new(|_from: SiteId, f: Bytes| -> Option<Bytes> { Some(f) }),
/// );
/// let reply = net.call(SiteId::new(1), SiteId::new(2), Bytes::from_static(b"hi"))?;
/// assert_eq!(&reply[..], b"hi");
/// net.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct MemTransport {
    inner: Arc<MemInner>,
}

struct MemInner {
    /// Sleeps the chosen fraction of each leg's modeled delay.
    links: Links,
    sites: RwLock<HashMap<SiteId, SiteHandle>>,
    call_timeout: Duration,
}

impl Default for MemTransport {
    fn default() -> Self {
        MemTransport::new()
    }
}

impl std::fmt::Debug for MemTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemTransport")
            .field("sites", &self.inner.sites.read().len())
            .finish()
    }
}

impl MemTransport {
    /// Creates a transport with an ideal (instant) topology, no sleeping,
    /// and a 5-second call timeout.
    pub fn new() -> Self {
        Self::with_options(Topology::default(), 0.0, Duration::from_secs(5))
    }

    /// Creates a transport with a topology, a real-sleep scale factor for
    /// modeled link delays (`0.0` disables sleeping, `1.0` sleeps the full
    /// modeled delay), and a request timeout.
    pub fn with_options(topology: Topology, delay_scale: f64, call_timeout: Duration) -> Self {
        MemTransport {
            inner: Arc::new(MemInner {
                links: Links::new(
                    topology,
                    0xD15C_0CAF_E000_0001,
                    Delay::Sleep(delay_scale.max(0.0)),
                ),
                sites: RwLock::new(HashMap::new()),
                call_timeout,
            }),
        }
    }

    /// The per-pair traffic counters (disabled until `set_enabled(true)`).
    pub fn trace(&self) -> &NetTrace {
        self.inner.links.trace()
    }

    /// Transport-level metrics.
    pub fn metrics(&self) -> &Metrics {
        self.inner.links.metrics()
    }

    /// Runs `f` with mutable access to the topology.
    pub fn with_topology_mut<R>(&self, f: impl FnOnce(&mut Topology) -> R) -> R {
        self.inner.links.with_topology_mut(f)
    }

    /// Convenience: disconnect `site` from everyone.
    pub fn disconnect(&self, site: SiteId) {
        self.with_topology_mut(|t| t.disconnect(site));
    }

    /// Convenience: reconnect `site`.
    pub fn reconnect(&self, site: SiteId) {
        self.with_topology_mut(|t| t.reconnect(site));
    }

    /// Stops every receiver thread and waits for them to finish.
    ///
    /// Dropping the last clone also stops the threads (their channels
    /// disconnect) but does not wait for them; call `shutdown` for a clean
    /// teardown in tests.
    pub fn shutdown(&self) {
        let mut sites = self.inner.sites.write();
        let handles: Vec<SiteHandle> = sites.drain().map(|(_, h)| h).collect();
        drop(sites);
        for h in handles {
            drop(h.tx);
            for t in h.threads {
                let _ = t.join();
            }
        }
    }

    /// Registers `site` with a pool of `workers` receiver threads draining
    /// one shared inbox (the channel is MPMC), so requests to this site are
    /// *dispatched concurrently*. Replies still route to the right caller —
    /// each request envelope carries its own reply channel.
    ///
    /// With more than one worker, ordering guarantees weaken: two requests
    /// may execute in either order, and a cast may be handled after a later
    /// call. The handler must be safe under concurrent invocation (an
    /// `RmiServer` over an `ObiProcess` is; see its reply-cache in-flight
    /// protocol). [`Transport::register`] keeps the single-worker, in-order
    /// behavior.
    pub fn register_with_workers(
        &self,
        site: SiteId,
        handler: Arc<dyn MessageHandler>,
        workers: usize,
    ) {
        let workers = workers.max(1);
        let (tx, rx) = unbounded::<Envelope>();
        let mut threads = Vec::with_capacity(workers);
        for w in 0..workers {
            let rx = rx.clone();
            let handler = handler.clone();
            let thread = std::thread::Builder::new()
                .name(format!("obiwan-site-{}-w{w}", site.as_u32()))
                .spawn(move || {
                    while let Ok(envelope) = rx.recv() {
                        match envelope {
                            Envelope::Request { from, frame, reply } => {
                                let out = handler.handle(from, frame);
                                // Caller may have timed out; ignore send failure.
                                let _ = reply.send(out);
                            }
                            Envelope::Stream { from, frame, tx } => {
                                let out = handler.handle_stream(from, frame, &mut |chunk| {
                                    let _ = tx.send(StreamFrame::Chunk(chunk));
                                });
                                let _ = tx.send(StreamFrame::Done(out));
                            }
                            Envelope::OneWay { from, frame } => {
                                handler.handle(from, frame);
                            }
                        }
                    }
                })
                .expect("spawn site receiver thread");
            threads.push(thread);
        }
        let old = self
            .inner
            .sites
            .write()
            .insert(site, SiteHandle { tx, threads });
        if let Some(old) = old {
            drop(old.tx);
            for t in old.threads {
                let _ = t.join();
            }
        }
    }

    fn sender_for(&self, site: SiteId) -> Result<Sender<Envelope>> {
        self.inner
            .sites
            .read()
            .get(&site)
            .map(|h| h.tx.clone())
            .ok_or(ObiError::SiteUnreachable(site))
    }
}

impl Transport for MemTransport {
    fn register(&self, site: SiteId, handler: Arc<dyn MessageHandler>) {
        // One worker: envelopes are handled strictly in arrival order,
        // which `cast` fire-and-forget semantics and several tests rely on.
        self.register_with_workers(site, handler, 1);
    }

    fn deregister(&self, site: SiteId) {
        if let Some(h) = self.inner.sites.write().remove(&site) {
            drop(h.tx);
            for t in h.threads {
                let _ = t.join();
            }
        }
    }

    fn call(&self, from: SiteId, to: SiteId, frame: Bytes) -> Result<Bytes> {
        let tx = self.sender_for(to)?;
        // Request duplication is not modeled here: the verdict is ignored.
        self.inner.links.leg(Leg::Request, from, to, frame.len())?;
        let (reply_tx, reply_rx) = bounded(1);
        tx.send(Envelope::Request {
            from,
            frame,
            reply: reply_tx,
        })
        .map_err(|_| ObiError::SiteUnreachable(to))?;
        let reply = reply_rx
            .recv_timeout(self.inner.call_timeout)
            .map_err(|e| recv_error(e, to))?
            .ok_or_else(|| {
                ObiError::Internal(format!("site {to} produced no reply to a request"))
            })?;
        self.inner.links.leg(Leg::Reply, to, from, reply.len())?;
        Ok(reply)
    }

    fn call_stream(
        &self,
        from: SiteId,
        to: SiteId,
        frame: Bytes,
        on_frame: &mut dyn FnMut(Bytes),
    ) -> Result<Bytes> {
        let tx = self.sender_for(to)?;
        self.inner.links.leg(Leg::Request, from, to, frame.len())?;
        let (stream_tx, stream_rx) = unbounded();
        tx.send(Envelope::Stream {
            from,
            frame,
            tx: stream_tx,
        })
        .map_err(|_| ObiError::SiteUnreachable(to))?;
        // Drain frames as the remote worker produces them: the caller
        // processes chunk k here while the handler builds k+1 over there.
        let mut chunks = ChunkReorder::new(on_frame);
        loop {
            match stream_rx.recv_timeout(self.inner.call_timeout) {
                Ok(StreamFrame::Chunk(chunk)) => {
                    let leg = self.inner.links.leg(Leg::Chunk, to, from, chunk.len());
                    chunks.deliver(chunk, leg);
                }
                Ok(StreamFrame::Done(out)) => {
                    chunks.finish();
                    let reply = out.ok_or_else(|| {
                        ObiError::Internal(format!("site {to} produced no reply to a request"))
                    })?;
                    self.inner.links.leg(Leg::Reply, to, from, reply.len())?;
                    return Ok(reply);
                }
                Err(e) => return Err(recv_error(e, to)),
            }
        }
    }

    fn cast(&self, from: SiteId, to: SiteId, frame: Bytes) -> Result<()> {
        let tx = self.sender_for(to)?;
        match self.inner.links.leg(Leg::Request, from, to, frame.len()) {
            Ok(_) => {
                tx.send(Envelope::OneWay { from, frame })
                    .map_err(|_| ObiError::SiteUnreachable(to))?;
                Ok(())
            }
            Err(ObiError::MessageLost { .. }) => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn is_reachable(&self, from: SiteId, to: SiteId) -> bool {
        self.inner.sites.read().contains_key(&to) && self.inner.links.is_up(from, to)
    }
}

/// A reply that did not come back within the call timeout is a `Timeout`
/// (the site may be alive but slow, so the caller may retry); a worker that
/// went away is `SiteUnreachable`.
fn recv_error(e: RecvTimeoutError, to: SiteId) -> ObiError {
    match e {
        RecvTimeoutError::Timeout => ObiError::Timeout { to },
        RecvTimeoutError::Disconnected => ObiError::SiteUnreachable(to),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leg::tests::{check_chunk_faults, ChunkEcho};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn s(n: u32) -> SiteId {
        SiteId::new(n)
    }

    struct Echo;
    impl MessageHandler for Echo {
        fn handle(&self, _from: SiteId, frame: Bytes) -> Option<Bytes> {
            Some(frame)
        }
    }

    #[test]
    fn call_round_trips_across_threads() {
        let net = MemTransport::new();
        net.register(s(2), Arc::new(Echo));
        let reply = net.call(s(1), s(2), Bytes::from_static(b"x")).unwrap();
        assert_eq!(&reply[..], b"x");
        net.shutdown();
    }

    #[test]
    fn concurrent_callers_are_serviced() {
        let net = MemTransport::new();
        net.register(s(9), Arc::new(Echo));
        let mut joins = Vec::new();
        for i in 0..8u32 {
            let net = net.clone();
            joins.push(std::thread::spawn(move || {
                for j in 0..50u32 {
                    let payload = Bytes::from(format!("{i}:{j}"));
                    let reply = net.call(s(i), s(9), payload.clone()).unwrap();
                    assert_eq!(reply, payload);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        net.shutdown();
    }

    #[test]
    fn cast_is_fire_and_forget() {
        let net = MemTransport::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = hits.clone();
        net.register(
            s(2),
            Arc::new(move |_f: SiteId, _b: Bytes| -> Option<Bytes> {
                hits2.fetch_add(1, Ordering::SeqCst);
                None
            }),
        );
        for _ in 0..10 {
            net.cast(s(1), s(2), Bytes::new()).unwrap();
        }
        // Drain: a call after the casts guarantees they were processed
        // because the receiver handles envelopes in order.
        net.register(s(3), Arc::new(Echo));
        let _ = net.call(s(1), s(2), Bytes::new());
        assert_eq!(hits.load(Ordering::SeqCst), 11);
        net.shutdown();
    }

    #[test]
    fn worker_pool_dispatches_concurrently_with_correct_reply_routing() {
        use std::sync::Barrier;
        // The handler blocks until 4 requests are in flight at once: only a
        // multi-worker site can make progress, and each caller must still
        // receive its own echo (replies route by per-request channel, not
        // by arrival order).
        let rendezvous = Arc::new(Barrier::new(4));
        let r2 = rendezvous.clone();
        let net = MemTransport::new();
        net.register_with_workers(
            s(9),
            Arc::new(move |_f: SiteId, b: Bytes| -> Option<Bytes> {
                r2.wait();
                Some(b)
            }),
            4,
        );
        let mut joins = Vec::new();
        for i in 0..4u32 {
            let net = net.clone();
            joins.push(std::thread::spawn(move || {
                let payload = Bytes::from(format!("caller-{i}"));
                let reply = net.call(s(i + 1), s(9), payload.clone()).unwrap();
                assert_eq!(reply, payload);
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        net.shutdown();
    }

    #[test]
    fn call_stream_pipelines_chunks_across_threads() {
        use std::sync::Barrier;
        // The handler refuses to emit chunk 2 until the caller has consumed
        // chunk 1: only genuine pipelining (handler and caller running
        // concurrently, frames crossing mid-stream) can finish.
        let rendezvous = Arc::new(Barrier::new(2));
        let r2 = rendezvous.clone();
        struct Lockstep(Arc<Barrier>);
        impl MessageHandler for Lockstep {
            fn handle(&self, _from: SiteId, frame: Bytes) -> Option<Bytes> {
                Some(frame)
            }
            fn handle_stream(
                &self,
                _from: SiteId,
                frame: Bytes,
                sink: &mut dyn FnMut(Bytes),
            ) -> Option<Bytes> {
                sink(Bytes::from_static(b"1"));
                self.0.wait(); // blocks until the caller has chunk 1
                sink(Bytes::from_static(b"2"));
                Some(frame)
            }
        }
        let net = MemTransport::new();
        net.register(s(2), Arc::new(Lockstep(r2)));
        let mut seen = Vec::new();
        let reply = net
            .call_stream(s(1), s(2), Bytes::from_static(b"done"), &mut |c| {
                seen.push(c[0]);
                if seen.len() == 1 {
                    rendezvous.wait();
                }
            })
            .unwrap();
        assert_eq!(&reply[..], b"done");
        assert_eq!(seen, vec![b'1', b'2']);
        net.shutdown();
    }

    #[test]
    fn call_stream_on_a_plain_handler_degrades_to_one_shot() {
        let net = MemTransport::new();
        net.register(s(2), Arc::new(Echo));
        let mut chunks = 0usize;
        let reply = net
            .call_stream(s(1), s(2), Bytes::from_static(b"x"), &mut |_| chunks += 1)
            .unwrap();
        assert_eq!(&reply[..], b"x");
        assert_eq!(chunks, 0);
        net.shutdown();
    }

    #[test]
    fn chunk_loss_drops_stream_frames_but_not_the_terminal() {
        use crate::link::LinkModel;
        let topology = Topology::uniform(LinkModel::ideal().with_chunk_loss(0.4));
        let net = MemTransport::with_options(topology, 0.0, Duration::from_secs(5));
        net.register(s(2), Arc::new(ChunkEcho(50)));
        let mut delivered = 0usize;
        let reply = net.call_stream(s(1), s(2), Bytes::from_static(b"t"), &mut |_| {
            delivered += 1
        });
        assert!(reply.is_ok(), "terminal is not subject to chunk loss");
        assert!(delivered < 50, "some chunks must drop");
        assert!(delivered > 10, "most of the stream still lands: {delivered}");
        net.shutdown();
    }

    #[test]
    fn chunk_faults_follow_the_link_model() {
        check_chunk_faults(|topology| {
            MemTransport::with_options(topology, 0.0, Duration::from_secs(5))
        });
    }

    #[test]
    fn a_reply_slower_than_the_call_timeout_is_a_timeout() {
        let net = MemTransport::with_options(Topology::default(), 0.0, Duration::from_millis(20));
        net.register(
            s(2),
            Arc::new(|_f: SiteId, b: Bytes| -> Option<Bytes> {
                std::thread::sleep(Duration::from_millis(100));
                Some(b)
            }),
        );
        let err = net.call(s(1), s(2), Bytes::from_static(b"slow")).unwrap_err();
        assert_eq!(err, ObiError::Timeout { to: s(2) });
        let err = net
            .call_stream(s(1), s(2), Bytes::from_static(b"slow"), &mut |_| {})
            .unwrap_err();
        assert_eq!(err, ObiError::Timeout { to: s(2) });
        net.shutdown();
    }

    #[test]
    fn disconnect_refuses_and_reconnect_heals() {
        let net = MemTransport::new();
        net.register(s(2), Arc::new(Echo));
        net.disconnect(s(2));
        assert!(net.call(s(1), s(2), Bytes::new()).unwrap_err().is_connectivity());
        net.reconnect(s(2));
        assert!(net.call(s(1), s(2), Bytes::new()).is_ok());
        net.shutdown();
    }

    #[test]
    fn deregister_stops_service() {
        let net = MemTransport::new();
        net.register(s(2), Arc::new(Echo));
        net.deregister(s(2));
        assert_eq!(
            net.call(s(1), s(2), Bytes::new()).unwrap_err(),
            ObiError::SiteUnreachable(s(2))
        );
        net.shutdown();
    }

    #[test]
    fn reregistering_replaces_handler() {
        let net = MemTransport::new();
        net.register(s(2), Arc::new(Echo));
        net.register(
            s(2),
            Arc::new(|_f: SiteId, _b: Bytes| -> Option<Bytes> {
                Some(Bytes::from_static(b"new"))
            }),
        );
        let reply = net.call(s(1), s(2), Bytes::from_static(b"old")).unwrap();
        assert_eq!(&reply[..], b"new");
        net.shutdown();
    }

    #[test]
    fn delay_scale_actually_sleeps() {
        use crate::link::LinkModel;
        use std::time::{Duration, Instant};
        let mut topology = Topology::uniform(LinkModel::new(Duration::from_millis(20), 0));
        let _ = &mut topology;
        let net = MemTransport::with_options(topology, 1.0, Duration::from_secs(5));
        net.register(s(2), Arc::new(Echo));
        let started = Instant::now();
        net.call(s(1), s(2), Bytes::new()).unwrap();
        // Two legs × 20 ms modeled latency, slept for real.
        assert!(started.elapsed() >= Duration::from_millis(35));
        net.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let net = MemTransport::new();
        net.register(s(2), Arc::new(Echo));
        net.shutdown();
        net.shutdown();
        assert!(!net.is_reachable(s(1), s(2)));
    }
}

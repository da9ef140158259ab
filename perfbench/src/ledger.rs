//! The traced run's per-layer ledger, recorded from outside the program.
//!
//! Three wrappers sit on the public layer interfaces and time the calls
//! that cross them:
//!
//! * [`TracedTransport`] wraps the client sites' `Transport`: it times each
//!   `call`, `call_stream` and `cast`, keeps a copy of every frame, and
//!   times the `on_frame` callbacks separately, because client-side core
//!   work (installing chunk 0 of a streamed batch) runs inside them.
//! * [`TracedHandler`] wraps the provider's `MessageHandler`: it times each
//!   `handle`/`handle_stream` and files the span under the request's
//!   `RequestId`, so the client side can subtract it from the call.
//! * [`TracedStorage`] wraps each client site's WAL `Storage`.
//!
//! Client-side records go to a thread-local buffer that only driving
//! threads enable. After each op the driving thread drains the buffer
//! with [`Ledger::end_op`], outside the op's timed window: it replays
//! `Message::decode`/`encode` on copies of the frames (the wire cost) and
//! matches each call with its server span.

use bytes::Bytes;
use obiwan_net::{MessageHandler, Transport};
use obiwan_store::Storage;
use obiwan_util::{RequestId, Result, SiteId};
use obiwan_wire::Message;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One request/response exchange seen by the client transport.
struct CallRec {
    request: Bytes,
    /// Reply frames: stream chunks in arrival order, then the terminal.
    replies: Vec<Bytes>,
    /// Time inside the transport, `on_frame` callbacks excluded.
    nanos: u64,
}

/// Client-side records of the op in progress on this thread.
#[derive(Default)]
struct OpFrames {
    calls: Vec<CallRec>,
    casts: Vec<Bytes>,
    cast_nanos: u64,
    store_append_nanos: u64,
    store_sync_nanos: u64,
    /// `read`/`len`: storage time outside the append and sync buckets.
    store_other_nanos: u64,
    store_syncs: u64,
    store_bytes: u64,
}

thread_local! {
    /// `Some` on driving threads while tracing; other threads record nothing.
    static OP: RefCell<Option<OpFrames>> = const { RefCell::new(None) };
}

fn record(f: impl FnOnce(&mut OpFrames)) {
    OP.with(|op| {
        if let Some(frames) = op.borrow_mut().as_mut() {
            f(frames);
        }
    });
}

/// Layer sums over many ops, in nanoseconds and counts.
#[derive(Default)]
pub struct LayerTotals {
    pub ops: u64,
    /// Sum of traced op windows.
    pub op_nanos: u64,
    pub calls: u64,
    pub casts: u64,
    /// Reply frames (stream chunks plus terminals) over all calls.
    pub reply_frames: u64,
    /// Bytes of every request, reply, chunk and cast frame.
    pub bytes: u64,
    /// Client call time minus the matched server span, plus cast time.
    pub hop_nanos: i64,
    /// Server spans matched to a call of an op. Call time with no span to
    /// match (a failed or unanswered call) counts in neither this nor
    /// `hop_nanos`, so it shows as unaccounted.
    pub handle_nanos: u64,
    pub decode_nanos: u64,
    pub encode_nanos: u64,
    pub store_append_nanos: u64,
    pub store_sync_nanos: u64,
    pub store_syncs: u64,
    pub store_bytes: u64,
    /// Client-side time outside the transport and storage wrappers.
    pub core_nanos: i64,
    /// `remove_root` + `collect_garbage` time between ops.
    pub gc_nanos: u64,
}

impl LayerTotals {
    pub fn merge(&mut self, o: &LayerTotals) {
        self.ops += o.ops;
        self.op_nanos += o.op_nanos;
        self.calls += o.calls;
        self.casts += o.casts;
        self.reply_frames += o.reply_frames;
        self.bytes += o.bytes;
        self.hop_nanos += o.hop_nanos;
        self.handle_nanos += o.handle_nanos;
        self.decode_nanos += o.decode_nanos;
        self.encode_nanos += o.encode_nanos;
        self.store_append_nanos += o.store_append_nanos;
        self.store_sync_nanos += o.store_sync_nanos;
        self.store_syncs += o.store_syncs;
        self.store_bytes += o.store_bytes;
        self.core_nanos += o.core_nanos;
        self.gc_nanos += o.gc_nanos;
    }
}

/// Shared state of one traced world.
#[derive(Default)]
pub struct Ledger {
    /// Server span time per request id, summed over attempts, waiting for
    /// the client side to claim it.
    spans: Mutex<HashMap<RequestId, u64>>,
    /// Every server span that produced a reply, matched or not.
    server_nanos: AtomicU64,
    server_replies: AtomicU64,
}

impl Ledger {
    pub fn new() -> Arc<Self> {
        Arc::new(Ledger::default())
    }

    /// Enables recording on the calling (driving) thread.
    pub fn enable_thread(&self) {
        OP.with(|op| *op.borrow_mut() = Some(OpFrames::default()));
    }

    /// Drops what the calling thread recorded since the last op (work
    /// between ops, such as a walk's initial `get`), claiming the server
    /// spans of its calls so they do not linger.
    pub fn discard(&self) {
        let frames = OP.with(|op| op.borrow_mut().as_mut().map(std::mem::take));
        for call in frames.into_iter().flat_map(|f| f.calls) {
            if let Some(id) = request_id(&call.request) {
                self.claim(id);
            }
        }
    }

    /// Server-side totals: span time and replies produced.
    pub fn server_totals(&self) -> (u64, u64) {
        (
            self.server_nanos.load(Ordering::Relaxed),
            self.server_replies.load(Ordering::Relaxed),
        )
    }

    fn claim(&self, id: RequestId) -> Option<u64> {
        self.spans.lock().expect("span map poisoned").remove(&id)
    }

    fn file_span(&self, frame: &Bytes, nanos: u64) {
        self.server_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.server_replies.fetch_add(1, Ordering::Relaxed);
        if let Some(id) = request_id(frame) {
            *self
                .spans
                .lock()
                .expect("span map poisoned")
                .entry(id)
                .or_default() += nanos;
        }
    }

    /// Closes the op that took `op_nanos` on the calling thread: drains its
    /// records into `totals`, replaying the wire codec on each frame.
    pub fn end_op(&self, op_nanos: u64, totals: &mut LayerTotals) {
        let Some(f) = OP.with(|op| op.borrow_mut().as_mut().map(std::mem::take)) else {
            return;
        };
        totals.ops += 1;
        totals.op_nanos += op_nanos;
        let mut outside_core =
            f.cast_nanos + f.store_append_nanos + f.store_sync_nanos + f.store_other_nanos;
        for call in &f.calls {
            totals.calls += 1;
            totals.reply_frames += call.replies.len() as u64;
            outside_core += call.nanos;
            let id = self.replay(&call.request, totals);
            for reply in &call.replies {
                self.replay(reply, totals);
            }
            if let Some(handle) = id.and_then(|id| self.claim(id)) {
                totals.handle_nanos += handle;
                totals.hop_nanos += call.nanos as i64 - handle as i64;
            }
        }
        for cast in &f.casts {
            self.replay(cast, totals);
        }
        totals.casts += f.casts.len() as u64;
        totals.hop_nanos += f.cast_nanos as i64;
        totals.store_append_nanos += f.store_append_nanos;
        totals.store_sync_nanos += f.store_sync_nanos;
        totals.store_syncs += f.store_syncs;
        totals.store_bytes += f.store_bytes;
        totals.core_nanos += op_nanos as i64 - outside_core as i64;
    }

    /// Decodes and re-encodes a copy of `frame`, timing both; returns the
    /// frame's request id.
    fn replay(&self, frame: &Bytes, totals: &mut LayerTotals) -> Option<RequestId> {
        totals.bytes += frame.len() as u64;
        let copy = Bytes::copy_from_slice(frame);
        let t = Instant::now();
        let decoded = Message::decode(std::hint::black_box(&copy));
        totals.decode_nanos += nanos_since(t);
        let msg = decoded.ok()?;
        let t = Instant::now();
        std::hint::black_box(msg.encode());
        totals.encode_nanos += nanos_since(t);
        msg.request_id()
    }
}

fn request_id(frame: &Bytes) -> Option<RequestId> {
    Message::decode(frame).ok().and_then(|m| m.request_id())
}

/// The provider's `MessageHandler`, timed per frame.
pub struct TracedHandler {
    pub inner: Arc<dyn MessageHandler>,
    pub ledger: Arc<Ledger>,
}

impl MessageHandler for TracedHandler {
    fn handle(&self, from: SiteId, frame: Bytes) -> Option<Bytes> {
        let t = Instant::now();
        let out = self.inner.handle(from, frame.clone());
        let nanos = nanos_since(t);
        // One-way frames produce no reply and sit on no op's path.
        if out.is_some() {
            self.ledger.file_span(&frame, nanos);
        }
        out
    }

    fn handle_stream(
        &self,
        from: SiteId,
        frame: Bytes,
        sink: &mut dyn FnMut(Bytes),
    ) -> Option<Bytes> {
        let t = Instant::now();
        let out = self.inner.handle_stream(from, frame.clone(), sink);
        let nanos = nanos_since(t);
        if out.is_some() {
            self.ledger.file_span(&frame, nanos);
        }
        out
    }
}

/// A client site's `Transport`, timed per call.
pub struct TracedTransport {
    pub inner: Arc<dyn Transport>,
}

impl Transport for TracedTransport {
    fn register(&self, site: SiteId, handler: Arc<dyn MessageHandler>) {
        self.inner.register(site, handler);
    }

    fn deregister(&self, site: SiteId) {
        self.inner.deregister(site);
    }

    fn call(&self, from: SiteId, to: SiteId, frame: Bytes) -> Result<Bytes> {
        let t = Instant::now();
        let out = self.inner.call(from, to, frame.clone());
        let nanos = nanos_since(t);
        record(|f| {
            f.calls.push(CallRec {
                request: frame,
                replies: out.iter().cloned().collect(),
                nanos,
            })
        });
        out
    }

    fn call_stream(
        &self,
        from: SiteId,
        to: SiteId,
        frame: Bytes,
        on_frame: &mut dyn FnMut(Bytes),
    ) -> Result<Bytes> {
        let mut replies = Vec::new();
        let mut callback_nanos = 0u64;
        let t = Instant::now();
        let out = self
            .inner
            .call_stream(from, to, frame.clone(), &mut |chunk| {
                replies.push(chunk.clone());
                let c = Instant::now();
                on_frame(chunk);
                callback_nanos += nanos_since(c);
            });
        let nanos = nanos_since(t).saturating_sub(callback_nanos);
        replies.extend(out.iter().cloned());
        record(|f| {
            f.calls.push(CallRec {
                request: frame,
                replies,
                nanos,
            })
        });
        out
    }

    fn cast(&self, from: SiteId, to: SiteId, frame: Bytes) -> Result<()> {
        let t = Instant::now();
        let out = self.inner.cast(from, to, frame.clone());
        let nanos = nanos_since(t);
        record(|f| {
            f.cast_nanos += nanos;
            f.casts.push(frame);
        });
        out
    }

    fn is_reachable(&self, from: SiteId, to: SiteId) -> bool {
        self.inner.is_reachable(from, to)
    }
}

/// A client site's WAL `Storage`, timed per call.
pub struct TracedStorage {
    pub inner: Arc<dyn Storage>,
}

impl TracedStorage {
    fn timed<T>(&self, f: impl FnOnce() -> T, book: impl FnOnce(&mut OpFrames, u64)) -> T {
        let t = Instant::now();
        let out = f();
        let nanos = nanos_since(t);
        record(|frames| book(frames, nanos));
        out
    }
}

impl Storage for TracedStorage {
    fn read(&self, name: &str) -> Result<Vec<u8>> {
        self.timed(|| self.inner.read(name), |f, n| f.store_other_nanos += n)
    }

    fn len(&self, name: &str) -> Result<u64> {
        self.timed(|| self.inner.len(name), |f, n| f.store_other_nanos += n)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<()> {
        self.timed(
            || self.inner.append(name, bytes),
            |f, n| {
                f.store_append_nanos += n;
                f.store_bytes += bytes.len() as u64;
            },
        )
    }

    fn sync(&self, name: &str) -> Result<()> {
        self.timed(
            || self.inner.sync(name),
            |f, n| {
                f.store_sync_nanos += n;
                f.store_syncs += 1;
            },
        )
    }

    fn truncate(&self, name: &str, len: u64) -> Result<()> {
        self.timed(
            || self.inner.truncate(name, len),
            |f, n| {
                f.store_sync_nanos += n;
                f.store_syncs += 1;
            },
        )
    }

    fn replace(&self, name: &str, bytes: &[u8]) -> Result<()> {
        self.timed(
            || self.inner.replace(name, bytes),
            |f, n| {
                f.store_sync_nanos += n;
                f.store_syncs += 1;
                f.store_bytes += bytes.len() as u64;
            },
        )
    }
}

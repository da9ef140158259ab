//! What happens to one frame on one directed link.
//!
//! [`Links`] is the state every transport shares: the [`Topology`], the
//! fault-lottery rng, the transport's [`Metrics`] and its [`NetTrace`]
//! counters. Its [`Links::leg`] routine applies the link model to one
//! request, reply or chunk frame; only the way the modeled delay is spent
//! ([`Delay`]) differs between the simulated and the threaded transport.
//! [`ChunkReorder`] turns chunk verdicts into the frames a streaming caller
//! sees.

use crate::link::{LinkModel, Topology};
use crate::trace::{Fate, NetTrace};
use bytes::Bytes;
use obiwan_util::sync::{Mutex, RwLock};
use obiwan_util::{Clock, DetRng, Metrics, ObiError, Result, SiteId};

/// The kind of frame crossing a link; each samples its own fault knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Leg {
    /// A call's request or a one-way frame: loss, then duplication.
    Request,
    /// A call's terminal reply: loss, then reply-only loss.
    Reply,
    /// An intermediate frame of a streamed reply: loss, chunk loss, then
    /// chunk duplication and reordering.
    Chunk,
}

/// How a transport spends a leg's modeled delay.
#[derive(Debug, Clone)]
pub(crate) enum Delay {
    /// Charge it to a virtual clock.
    Charge(Clock),
    /// Sleep this fraction of it for real (`0.0` never sleeps).
    Sleep(f64),
}

/// A delivered frame's fate beyond arriving.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Verdict {
    /// The frame arrives twice (request and chunk legs only).
    pub dup: bool,
    /// The chunk is held back past its successor (chunk legs only).
    pub hold: bool,
}

/// The links between sites, their fault lottery and the traffic recorder.
pub(crate) struct Links {
    topology: RwLock<Topology>,
    rng: Mutex<DetRng>,
    delay: Delay,
    metrics: Metrics,
    trace: NetTrace,
}

impl Links {
    pub(crate) fn new(topology: Topology, seed: u64, delay: Delay) -> Self {
        Links {
            topology: RwLock::new(topology),
            rng: Mutex::new(DetRng::new(seed)),
            delay,
            metrics: Metrics::new(),
            trace: NetTrace::new(),
        }
    }

    pub(crate) fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    pub(crate) fn trace(&self) -> &NetTrace {
        &self.trace
    }

    pub(crate) fn reseed(&self, seed: u64) {
        *self.rng.lock() = DetRng::new(seed);
    }

    pub(crate) fn with_topology_mut<R>(&self, f: impl FnOnce(&mut Topology) -> R) -> R {
        f(&mut self.topology.write())
    }

    pub(crate) fn is_up(&self, from: SiteId, to: SiteId) -> bool {
        self.topology.read().is_up(from, to)
    }

    /// Refuses a frame `from -> to` while the pair is down.
    pub(crate) fn check_up(&self, from: SiteId, to: SiteId, bytes: usize) -> Result<()> {
        if self.is_up(from, to) {
            return Ok(());
        }
        self.record(from, to, bytes, Fate::Refused);
        Err(ObiError::Disconnected { from, to })
    }

    /// Samples one draw of the `from -> to` link's lottery.
    pub(crate) fn sample<R>(
        &self,
        from: SiteId,
        to: SiteId,
        draw: impl FnOnce(&LinkModel, &mut DetRng) -> R,
    ) -> R {
        let topology = self.topology.read();
        draw(topology.link(from, to), &mut self.rng.lock())
    }

    /// Sends one frame of `bytes` across `from -> to`: refuses it while the
    /// pair is down, samples the leg's lottery, spends the modeled delay,
    /// and counts the outcome. A lost frame is `MessageLost`; a delivered
    /// one returns its duplication and hold verdicts.
    pub(crate) fn leg(&self, leg: Leg, from: SiteId, to: SiteId, bytes: usize) -> Result<Verdict> {
        let (delay, lost, verdict) = {
            let topology = self.topology.read();
            if !topology.is_up(from, to) {
                drop(topology);
                self.record(from, to, bytes, Fate::Refused);
                return Err(ObiError::Disconnected { from, to });
            }
            let link = topology.link(from, to);
            let mut rng = self.rng.lock();
            let delay = link.transfer_time(bytes, &mut rng);
            let dropped = link.drops(&mut rng);
            let (lost, verdict) = match leg {
                Leg::Request => (
                    dropped,
                    Verdict {
                        dup: link.duplicates(&mut rng),
                        hold: false,
                    },
                ),
                Leg::Reply => (dropped || link.drops_reply(&mut rng), Verdict::default()),
                Leg::Chunk => (
                    dropped || link.drops_chunk(&mut rng),
                    Verdict {
                        dup: link.duplicates_chunk(&mut rng),
                        hold: link.reorders_chunk(&mut rng),
                    },
                ),
            };
            (delay, lost, verdict)
        };
        match &self.delay {
            Delay::Charge(clock) => clock.charge(delay),
            Delay::Sleep(scale) if *scale > 0.0 => std::thread::sleep(delay.mul_f64(*scale)),
            Delay::Sleep(_) => {}
        }
        self.record(from, to, bytes, Fate::Sent);
        if lost {
            self.record(from, to, bytes, Fate::Dropped);
            return Err(ObiError::MessageLost { from, to });
        }
        self.record(from, to, bytes, Fate::Delivered);
        Ok(verdict)
    }

    /// Counts one frame outcome: `Sent` and `Delivered` feed the metrics
    /// totals, and every fate but `Sent` the per-pair trace counters.
    pub(crate) fn record(&self, from: SiteId, to: SiteId, bytes: usize, fate: Fate) {
        match fate {
            Fate::Sent => {
                self.metrics.incr_messages_sent();
                self.metrics.add_bytes_sent(bytes as u64);
                return;
            }
            Fate::Delivered => {
                self.metrics.incr_messages_received();
                self.metrics.add_bytes_received(bytes as u64);
            }
            Fate::Dropped | Fate::Refused => {}
        }
        self.trace.count(from, to, bytes, fate);
    }
}

/// The chunk sink of one streamed reply: lost chunks vanish, a duplicated
/// chunk arrives twice back to back, and at most one chunk is held back at
/// a time, delivering after its successor (pairwise reordering).
pub(crate) struct ChunkReorder<'a> {
    on_frame: &'a mut dyn FnMut(Bytes),
    held: Option<Bytes>,
}

impl<'a> ChunkReorder<'a> {
    pub(crate) fn new(on_frame: &'a mut dyn FnMut(Bytes)) -> Self {
        ChunkReorder {
            on_frame,
            held: None,
        }
    }

    /// Delivers `chunk` under its chunk leg's outcome.
    pub(crate) fn deliver(&mut self, chunk: Bytes, leg: Result<Verdict>) {
        // A lost chunk leaves a hole that surfaces at the terminal frame.
        let Ok(verdict) = leg else { return };
        if verdict.hold {
            if let Some(prev) = self.held.replace(chunk) {
                (self.on_frame)(prev);
            }
            return;
        }
        if verdict.dup {
            (self.on_frame)(chunk.clone());
        }
        (self.on_frame)(chunk);
        if let Some(prev) = self.held.take() {
            (self.on_frame)(prev);
        }
    }

    /// Closes the stream: a chunk still held arrives before the terminal
    /// frame, as nothing later remains to overtake it.
    pub(crate) fn finish(mut self) {
        if let Some(prev) = self.held.take() {
            (self.on_frame)(prev);
        }
    }
}

/// Fixtures shared by the in-process transports' unit tests.
#[cfg(test)]
pub(crate) mod tests {
    use crate::link::{LinkModel, Topology};
    use crate::transport::{MessageHandler, Transport};
    use bytes::Bytes;
    use obiwan_util::SiteId;
    use std::sync::Arc;

    /// Streams `n` one-byte chunks (values `0..n`) then echoes the request
    /// as the terminal reply.
    pub(crate) struct ChunkEcho(pub u8);
    impl MessageHandler for ChunkEcho {
        fn handle(&self, _from: SiteId, frame: Bytes) -> Option<Bytes> {
            Some(frame)
        }
        fn handle_stream(
            &self,
            _from: SiteId,
            frame: Bytes,
            sink: &mut dyn FnMut(Bytes),
        ) -> Option<Bytes> {
            for i in 0..self.0 {
                sink(Bytes::from(vec![i]));
            }
            Some(frame)
        }
    }

    /// Streams `n` chunks from site 2 to site 1 over a transport built on
    /// `link`, returning the chunk values in arrival order.
    fn stream<T: Transport>(make: &impl Fn(Topology) -> T, link: LinkModel, n: u8) -> Vec<u8> {
        let (s1, s2) = (SiteId::new(1), SiteId::new(2));
        let net = make(Topology::uniform(link));
        net.register(s2, Arc::new(ChunkEcho(n)));
        let mut chunks = Vec::new();
        let reply = net.call_stream(s1, s2, Bytes::from_static(b"t"), &mut |c| chunks.push(c[0]));
        assert_eq!(&reply.unwrap()[..], b"t");
        net.deregister(s2);
        chunks
    }

    /// A duplicated chunk arrives twice back to back; reordered chunks each
    /// arrive exactly once, just not necessarily in order.
    pub(crate) fn check_chunk_faults<T: Transport>(make: impl Fn(Topology) -> T) {
        let dup = stream(&make, LinkModel::ideal().with_chunk_duplicate(1.0), 3);
        assert_eq!(dup, vec![0, 0, 1, 1, 2, 2]);

        let reordered = stream(&make, LinkModel::ideal().with_chunk_reorder(0.5), 16);
        let mut sorted = reordered.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<u8>>());
        assert_ne!(reordered, sorted, "the fixed seed must actually reorder something");
    }
}

//! The network substrate under OBIWAN.
//!
//! The paper evaluated OBIWAN on a 10 Mb/s LAN and motivated it with mobile
//! wide-area networks full of "frequent, lengthy network disconnections".
//! Neither environment is reproducible directly, so this crate provides the
//! closest controllable equivalent:
//!
//! * [`link`] — parametric [`LinkModel`]s (propagation latency, bandwidth,
//!   jitter, loss) and a [`Topology`] of per-pair links with administrative
//!   up/down state (disconnections, partitions).
//! * [`conditions`] — presets: the paper's testbed LAN, modern LAN, Wi-Fi,
//!   GPRS-era cellular, and a free local loopback.
//! * [`transport`] — the [`Transport`] abstraction every upper layer talks
//!   to: synchronous `call` (request/response) and `cast` (one-way).
//! * [`sim`] — [`SimTransport`], a deterministic single-process transport
//!   that charges network physics to a virtual [`Clock`](obiwan_util::Clock).
//! * [`mem`] — [`MemTransport`], a threaded in-memory transport
//!   (crossbeam channels, one receiver thread per site) for live multi-site
//!   runs under real concurrency.
//! * [`tcp`] — [`TcpTransport`], real loopback TCP sockets with a
//!   per-destination connection pool: the genuinely distributed substrate.
//! * [`trace`] — optional per-pair counters of frames delivered, dropped
//!   and refused, for tests and debugging. Every transport feeds them and
//!   its metrics totals with one call per frame outcome; the simulated and
//!   threaded transports decide that outcome with one shared leg routine.
//!
//! # Examples
//!
//! ```
//! use obiwan_net::{conditions, SimTransport, Transport, MessageHandler};
//! use obiwan_util::{Clock, ClockMode, SiteId};
//! use bytes::Bytes;
//!
//! struct Echo;
//! impl MessageHandler for Echo {
//!     fn handle(&self, _from: SiteId, frame: Bytes) -> Option<Bytes> {
//!         Some(frame)
//!     }
//! }
//!
//! # fn main() -> obiwan_util::Result<()> {
//! let clock = Clock::new(ClockMode::VirtualOnly);
//! let net = SimTransport::new(clock.clone(), conditions::paper_lan());
//! let s1 = SiteId::new(1);
//! let s2 = SiteId::new(2);
//! net.register(s2, std::sync::Arc::new(Echo));
//! let reply = net.call(s1, s2, Bytes::from_static(b"ping"))?;
//! assert_eq!(&reply[..], b"ping");
//! assert!(clock.virtual_nanos() > 0); // network time was charged
//! # Ok(())
//! # }
//! ```

pub mod conditions;
mod leg;
pub mod link;
pub mod mem;
pub mod sim;
pub mod tcp;
pub mod trace;
pub mod transport;

pub use link::{LinkModel, LinkState, Topology};
pub use mem::MemTransport;
pub use sim::{ScheduledChange, SimTransport};
pub use tcp::TcpTransport;
pub use trace::{NetTrace, PairStats, TraceSummary};
pub use transport::{MessageHandler, Transport};

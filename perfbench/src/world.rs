//! One benchmark world: a provider site served by a `MemTransport` worker
//! pool, plus client sites that drive it through the public API.

use crate::ledger::{Ledger, TracedHandler, TracedStorage, TracedTransport};
use obiwan_core::{demo, ClassRegistry, Durable, DurableOptions, ObiProcess, NAME_SERVER_SITE};
use obiwan_net::{MemTransport, Transport};
use obiwan_store::{FileStorage, Storage};
use obiwan_util::{Clock, ClockMode, CostModel, MetricsSnapshot, Result, SiteId};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The provider's site id.
const PROVIDER: SiteId = SiteId::new(1);

/// First client site id; clients take the ids above it in order.
const CLIENT_BASE: u32 = 100;

/// Where writeback sites keep their WAL, relative to the working
/// directory (the root of the checkout the benchmark runs in).
pub const RUN_DIR: &str = ".bench_run";

/// `FileStorage` whose `sync` is counted by the WAL but not sent to the
/// device.
///
/// The benchmark may write only inside its checkout, which sits on a real
/// disk, and fsync there swings by a factor of two from run to run. This
/// keeps the WAL code and FileStorage's write syscalls in the measurement
/// and leaves the device out, as a tmpfs would. `replace` and `truncate`
/// (compaction, about once per 1,024 records) run FileStorage in full.
struct PageCacheStorage(FileStorage);

impl Storage for PageCacheStorage {
    fn read(&self, name: &str) -> Result<Vec<u8>> {
        self.0.read(name)
    }
    fn len(&self, name: &str) -> Result<u64> {
        self.0.len(name)
    }
    fn append(&self, name: &str, bytes: &[u8]) -> Result<()> {
        self.0.append(name, bytes)
    }
    fn sync(&self, _name: &str) -> Result<()> {
        Ok(())
    }
    fn truncate(&self, name: &str, len: u64) -> Result<()> {
        self.0.truncate(name, len)
    }
    fn replace(&self, name: &str, bytes: &[u8]) -> Result<()> {
        self.0.replace(name, bytes)
    }
}

/// What a world is built with.
pub struct WorldSpec {
    pub clients: usize,
    /// Worker threads draining the provider's inbox.
    pub workers: usize,
    /// Give each client a WAL under this directory.
    pub wal_dir: Option<PathBuf>,
    /// Wrap the layer interfaces for the traced run.
    pub ledger: Option<Arc<Ledger>>,
}

pub struct World {
    transport: MemTransport,
    pub provider: ObiProcess,
    pub clients: Vec<ObiProcess>,
}

impl World {
    pub fn build(spec: &WorldSpec) -> Result<World> {
        let transport = MemTransport::new();
        let clock = Clock::new(ClockMode::Hybrid);
        let process = |site: SiteId, t: Arc<dyn Transport>| {
            let registry = ClassRegistry::new();
            demo::register_all(&registry);
            ObiProcess::new(
                site,
                t,
                clock.clone(),
                CostModel::free(),
                registry,
                NAME_SERVER_SITE,
            )
        };
        let provider = process(PROVIDER, Arc::new(transport.clone()));
        let mut handler = provider.message_handler();
        if let Some(ledger) = &spec.ledger {
            handler = Arc::new(TracedHandler {
                inner: handler,
                ledger: ledger.clone(),
            });
        }
        transport.register_with_workers(PROVIDER, handler, spec.workers);

        let mut clients = Vec::with_capacity(spec.clients);
        for i in 0..spec.clients {
            let site = SiteId::new(CLIENT_BASE + i as u32);
            let mut t: Arc<dyn Transport> = Arc::new(transport.clone());
            if spec.ledger.is_some() {
                t = Arc::new(TracedTransport { inner: t });
            }
            let client = process(site, t);
            transport.register(site, client.message_handler());
            if let Some(dir) = &spec.wal_dir {
                let mut storage: Arc<dyn Storage> = Arc::new(PageCacheStorage(FileStorage::open(
                    dir.join(format!("site-{}", site.as_u32())),
                )?));
                if spec.ledger.is_some() {
                    storage = Arc::new(TracedStorage { inner: storage });
                }
                let (durable, recovered) = Durable::open(storage, DurableOptions::default())?;
                client.attach_durability(durable);
                client.recover_from(&recovered)?;
            }
            clients.push(client);
        }
        Ok(World {
            transport,
            provider,
            clients,
        })
    }

    /// Client counters summed over every client site.
    pub fn client_counters(&self) -> MetricsSnapshot {
        let mut sum = MetricsSnapshot::default();
        for c in &self.clients {
            let s = c.metrics().snapshot();
            sum.object_faults += s.object_faults;
            sum.replicas_created += s.replicas_created;
            sum.demand_round_trips += s.demand_round_trips;
            sum.rpc_retries += s.rpc_retries;
        }
        sum
    }
}

impl Drop for World {
    fn drop(&mut self) {
        self.transport.shutdown();
    }
}

/// Empties `dir` so each world starts from a blank WAL.
pub fn fresh_dir(dir: &Path) -> Result<()> {
    let io = |e: std::io::Error| obiwan_util::ObiError::Storage(format!("{}: {e}", dir.display()));
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(io)?;
    }
    std::fs::create_dir_all(dir).map_err(io)
}

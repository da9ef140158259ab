//! Many-site scale-out bench: concurrent `RmiServer` dispatch over the
//! sharded object space.
//!
//! One provider process hosts a large object population (thousands of
//! payload chains); a fleet of client sites hammers it over the threaded
//! [`MemTransport`] with a contended mixed workload — demand walks (the
//! one demand request, `GetRequest`, for an incremental batch asked for
//! whole, so its reply is a single `GetChunk`; the walk follows the
//! returned frontier) and mutating `set_index` invocations on chain heads.
//! The provider is registered with [`MemTransport::register_with_workers`]
//! and the bench
//! sweeps the worker count, measuring real wall-clock ops/sec and the
//! client-observed p99 under contention.
//!
//! Each answered request costs a fixed *service delay*, slept inside the
//! handler (a scaled-down stand-in for the paper testbed's per-RMI cost —
//! §4.1 measures 2.8 ms per remote invocation). Overlapping that latency
//! is precisely what the worker pool buys: with one worker the inbox
//! drains serially and queueing dominates the tail; with M workers, M
//! requests are in service at once. On a multi-core host the CPU part of
//! handling (decode, shard-striped batch building, encode) parallelizes
//! too; the sleep keeps the shape reproducible on small CI boxes.
//!
//! Unlike the virtual-time benches, these numbers are real time and vary
//! machine to machine; the *ratio* between worker counts is the figure.

use bytes::Bytes;
use obiwan_core::demo::{self, PayloadNode};
use obiwan_core::{ClassRegistry, ObiProcess, ObiValue, NAME_SERVER_SITE};
use obiwan_net::{MemTransport, MessageHandler, Transport};
use obiwan_rmi::WHOLE_BATCH;
use obiwan_util::{Clock, ClockMode, CostModel, Histogram, ObjId, RequestId, SiteId};
use obiwan_wire::{Message, WireMode};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The provider's site id (clients are unregistered caller sites).
const PROVIDER: SiteId = SiteId::new(1);

/// First client site id; clients occupy a contiguous range above it.
const CLIENT_BASE: u32 = 1000;

/// Announce an acknowledgement horizon for the issuing site after this
/// many requests, keeping the provider's reply cache ahead of LRU
/// pressure (mirrors the client-side `HorizonTracker` cadence).
const ACK_EVERY: u64 = 8;

/// Shape of one scale-bench run.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Number of payload chains created at the provider.
    pub chains: usize,
    /// Objects per chain (total objects = `chains * chain_len`).
    pub chain_len: usize,
    /// Payload bytes per object.
    pub payload_bytes: usize,
    /// Concurrent client threads issuing requests.
    pub client_threads: usize,
    /// Distinct caller site ids per client thread (total sites =
    /// `client_threads * sites_per_thread`).
    pub sites_per_thread: usize,
    /// Requests each client thread issues per worker-count point.
    pub ops_per_thread: usize,
    /// Incremental batch size of demand-walk gets.
    pub get_batch: u32,
    /// Every `put_every`-th op is a mutating `touch` instead of a get.
    pub put_every: usize,
    /// Modeled per-request service latency, slept in the handler.
    pub service_delay: Duration,
    /// Worker counts to sweep (the first is the baseline).
    pub workers: Vec<usize>,
}

impl ScaleConfig {
    /// The full many-site world: ~1M objects, 128 caller sites.
    pub fn full() -> Self {
        ScaleConfig {
            chains: 10_000,
            chain_len: 100,
            payload_bytes: 32,
            client_threads: 16,
            sites_per_thread: 8,
            ops_per_thread: 400,
            get_batch: 10,
            put_every: 10,
            service_delay: Duration::from_micros(500),
            workers: vec![1, 2, 4, 8],
        }
    }

    /// A reduced world for CI smoke runs: same shape, ~3k objects.
    pub fn smoke() -> Self {
        ScaleConfig {
            chains: 64,
            chain_len: 50,
            payload_bytes: 32,
            client_threads: 8,
            sites_per_thread: 13,
            ops_per_thread: 120,
            get_batch: 10,
            put_every: 10,
            service_delay: Duration::from_micros(500),
            workers: vec![1, 2, 4, 8],
        }
    }

    /// Total objects created at the provider.
    pub fn objects(&self) -> usize {
        self.chains * self.chain_len
    }

    /// Total caller site ids in the world.
    pub fn sites(&self) -> usize {
        self.client_threads * self.sites_per_thread
    }

    /// Requests issued per worker-count point.
    pub fn ops_per_point(&self) -> usize {
        self.client_threads * self.ops_per_thread
    }
}

/// One measured point: the workload at one worker count.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Worker threads draining the provider's inbox.
    pub workers: usize,
    /// Wall-clock time for the whole point.
    pub elapsed: Duration,
    /// Requests completed.
    pub ops: u64,
    /// Requests that failed (expected 0; a timeout would land here).
    pub errors: u64,
    /// Client-observed per-request latency (queueing included).
    pub latency: Histogram,
}

impl ScalePoint {
    /// Completed requests per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// Delays every answered request by a fixed service time, modeling the
/// per-RMI cost of a loaded provider. The sleep happens *after* the
/// wrapped handler returns — outside every lock it took — so only the
/// reply, not the provider's internal state, is held back. One-way frames
/// (acks, invalidations) are not delayed.
struct ServiceDelay {
    inner: Arc<dyn MessageHandler>,
    delay: Duration,
}

impl MessageHandler for ServiceDelay {
    fn handle(&self, from: SiteId, frame: Bytes) -> Option<Bytes> {
        let reply = self.inner.handle(from, frame);
        if reply.is_some() && !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        reply
    }
}

/// Builds the provider world: one process over a [`MemTransport`], with
/// `chains` linked payload chains. Returns the transport, the process and
/// the chain heads.
fn build_world(cfg: &ScaleConfig) -> (MemTransport, ObiProcess, Vec<ObjId>) {
    let transport = MemTransport::new();
    let registry = ClassRegistry::new();
    demo::register_all(&registry);
    let process = ObiProcess::new(
        PROVIDER,
        Arc::new(transport.clone()) as Arc<dyn Transport>,
        Clock::new(ClockMode::VirtualOnly),
        CostModel::free(),
        registry,
        NAME_SERVER_SITE,
    );
    let mut heads = Vec::with_capacity(cfg.chains);
    for c in 0..cfg.chains {
        let mut next = None;
        for i in (0..cfg.chain_len).rev() {
            let mut node =
                PayloadNode::sized((c * cfg.chain_len + i) as i64, cfg.payload_bytes);
            node.set_next(next);
            next = Some(process.create(node));
        }
        heads.push(next.expect("chain_len > 0").id());
    }
    (transport, process, heads)
}

/// One client thread's run: `ops` requests against the provider, walking
/// chains by demand (following the reply's frontier edge) with a mutating
/// `set_index` every `put_every`-th op. Returns its latency histogram and
/// error count.
#[allow(clippy::too_many_arguments)]
fn client_run(
    transport: &MemTransport,
    cfg: &ScaleConfig,
    heads: &[ObjId],
    thread_idx: usize,
) -> (Histogram, u64) {
    let sites: Vec<SiteId> = (0..cfg.sites_per_thread)
        .map(|k| {
            SiteId::new(CLIENT_BASE + (thread_idx * cfg.sites_per_thread + k) as u32)
        })
        .collect();
    // Spread threads across chains; a large odd stride decorrelates them.
    let mut chain = (thread_idx * 7919) % heads.len();
    let mut cursor = heads[chain];
    let mut latency = Histogram::new();
    let mut errors = 0u64;
    let mut seq = 0u64;
    for op in 0..cfg.ops_per_thread {
        let from = sites[op % sites.len()];
        seq += 1;
        let request = RequestId::new(from, seq);
        let is_put = (op + 1).is_multiple_of(cfg.put_every);
        let frame = if is_put {
            // A mutating invocation on the chain head: contends with every
            // reader walking that chain through the same shard.
            Message::InvokeRequest {
                request,
                target: heads[chain],
                method: "set_index".into(),
                args: ObiValue::I64(op as i64),
            }
            .encode()
        } else {
            Message::GetRequest {
                request,
                targets: vec![cursor],
                mode: WireMode::Incremental {
                    batch: cfg.get_batch,
                },
                chunk: WHOLE_BATCH,
                resume_from: 0,
            }
            .encode()
        };
        let t0 = Instant::now();
        match transport.call(from, PROVIDER, frame) {
            Ok(reply) => {
                latency.record(t0.elapsed());
                if let Ok(Message::GetChunk {
                    result: Ok(batch), ..
                }) = Message::decode(&reply)
                {
                    // Continue the demand walk along the frontier; at the
                    // chain's end, hop to the next chain.
                    match batch.frontier.first() {
                        Some(edge) => cursor = edge.target,
                        None => {
                            chain = (chain + 1) % heads.len();
                            cursor = heads[chain];
                        }
                    }
                }
            }
            Err(_) => errors += 1,
        }
        if seq.is_multiple_of(ACK_EVERY) {
            let ack = Message::AckHorizon { up_to: seq }.encode();
            let _ = transport.cast(from, PROVIDER, ack);
        }
    }
    (latency, errors)
}

/// Runs the sweep: the same workload once per worker count in
/// `cfg.workers`, re-registering the provider's handler with the new pool
/// size between points (the world and its objects are built once).
pub fn scale_bench(cfg: &ScaleConfig) -> Vec<ScalePoint> {
    assert!(cfg.chains > 0 && cfg.chain_len > 0, "world must have objects");
    assert!(!cfg.workers.is_empty(), "nothing to sweep");
    let (transport, process, heads) = build_world(cfg);
    let heads = Arc::new(heads);
    let cfg = Arc::new(cfg.clone());
    let mut points = Vec::with_capacity(cfg.workers.len());
    for &workers in &cfg.workers {
        transport.register_with_workers(
            PROVIDER,
            Arc::new(ServiceDelay {
                inner: process.message_handler(),
                delay: cfg.service_delay,
            }),
            workers,
        );
        let started = Instant::now();
        let joins: Vec<_> = (0..cfg.client_threads)
            .map(|t| {
                let transport = transport.clone();
                let cfg = cfg.clone();
                let heads = heads.clone();
                std::thread::spawn(move || client_run(&transport, &cfg, &heads, t))
            })
            .collect();
        let mut latency = Histogram::new();
        let mut errors = 0u64;
        for j in joins {
            let (l, e) = j.join().expect("client thread");
            latency.merge(&l);
            errors += e;
        }
        points.push(ScalePoint {
            workers,
            elapsed: started.elapsed(),
            ops: latency.len(),
            errors,
            latency,
        });
    }
    transport.shutdown();
    points
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `BENCH_scale.json` contents (schema `obiwan-bench-scale/1`).
///
/// `clock` is `"real"`: absolute numbers vary by machine; compare the
/// `speedup_vs_1` column, not the raw ops/sec.
pub fn bench_scale_json(cfg: &ScaleConfig) -> String {
    use std::fmt::Write as _;
    let points = scale_bench(cfg);
    let base_ops = points[0].ops_per_sec();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"obiwan-bench-scale/1\",\n");
    out.push_str("  \"clock\": \"real\",\n");
    let _ = writeln!(
        out,
        "  \"workload\": {{\"sites\": {}, \"objects\": {}, \"chains\": {}, \"chain_len\": {}, \
         \"payload_bytes\": {}, \"client_threads\": {}, \"ops_per_point\": {}, \
         \"get_batch\": {}, \"put_every\": {}, \"service_delay_us\": {}}},",
        cfg.sites(),
        cfg.objects(),
        cfg.chains,
        cfg.chain_len,
        cfg.payload_bytes,
        cfg.client_threads,
        cfg.ops_per_point(),
        cfg.get_batch,
        cfg.put_every,
        cfg.service_delay.as_micros(),
    );
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"workers\": {}, \"elapsed_ms\": {:.1}, \"ops\": {}, \"errors\": {}, \
             \"ops_per_sec\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"speedup_vs_1\": {:.2}}}",
            p.workers,
            ms(p.elapsed),
            p.ops,
            p.errors,
            p.ops_per_sec(),
            ms(p.latency.quantile(0.5)),
            ms(p.latency.quantile(0.99)),
            p.ops_per_sec() / base_ops.max(f64::MIN_POSITIVE),
        );
        out.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes `BENCH_scale.json` into `dir`; returns the path written.
pub fn write_scale_file(
    dir: &std::path::Path,
    cfg: &ScaleConfig,
) -> std::io::Result<std::path::PathBuf> {
    let path = dir.join("BENCH_scale.json");
    std::fs::write(&path, bench_scale_json(cfg))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny sweep that still exercises every moving part: multi-worker
    /// dispatch, demand walks across chain hops, puts, and ack casts.
    fn tiny() -> ScaleConfig {
        ScaleConfig {
            chains: 8,
            chain_len: 10,
            payload_bytes: 16,
            client_threads: 4,
            sites_per_thread: 2,
            ops_per_thread: 40,
            get_batch: 4,
            put_every: 5,
            service_delay: Duration::ZERO,
            workers: vec![1, 2],
        }
    }

    #[test]
    fn scale_bench_completes_every_op_without_errors() {
        let cfg = tiny();
        let points = scale_bench(&cfg);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.errors, 0, "workers={}", p.workers);
            assert_eq!(p.ops, cfg.ops_per_point() as u64, "workers={}", p.workers);
            assert!(!p.latency.is_empty());
            assert!(p.latency.quantile(0.99) >= p.latency.quantile(0.5));
            assert!(p.ops_per_sec() > 0.0);
        }
    }

    #[test]
    fn scale_json_is_structurally_sound() {
        let json = bench_scale_json(&tiny());
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"schema\": \"obiwan-bench-scale/1\""));
        assert!(json.contains("\"clock\": \"real\""));
        assert!(json.contains("\"speedup_vs_1\""));
        assert!(json.contains("\"workers\": 1"));
        assert!(json.contains("\"workers\": 2"));
    }

    /// With a real service delay, more workers must raise throughput: the
    /// whole point of concurrent dispatch is overlapping service latency.
    #[test]
    fn more_workers_overlap_service_latency() {
        let cfg = ScaleConfig {
            service_delay: Duration::from_millis(2),
            ops_per_thread: 30,
            workers: vec![1, 4],
            ..tiny()
        };
        let points = scale_bench(&cfg);
        let speedup = points[1].ops_per_sec() / points[0].ops_per_sec();
        assert!(
            speedup > 1.5,
            "4 workers vs 1: speedup {speedup:.2} (elapsed {:?} vs {:?})",
            points[1].elapsed,
            points[0].elapsed
        );
    }
}

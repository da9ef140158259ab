//! Lightweight platform metrics.
//!
//! Every site records what the evaluation section of the paper measures:
//! messages and bytes on the wire, replicas created, proxy pairs created,
//! object faults taken, and invocations by kind (local vs remote) — plus
//! [`Histogram`]-backed latency recorders for the demand/invoke/put/refresh
//! hot paths.
//!
//! The counter set is declared exactly once, in the `counters!`
//! invocation below. The macro generates the atomic storage, the
//! `incr_*`/`add_*` methods, [`Metrics::snapshot`], [`Metrics::reset`] and
//! [`MetricsSnapshot::since`] from that single list, so a new counter can
//! never be registered without also being snapshotted, reset and diffed
//! (the hand-maintained per-counter lists this replaces could silently
//! drift; `obiwan-lint`'s `metrics-coverage` rule now rejects such lists).

use crate::histogram::Histogram;
use crate::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Shared, cheaply cloneable counter set.
///
/// # Examples
///
/// ```
/// use obiwan_util::Metrics;
/// let m = Metrics::new();
/// m.incr_lmi();
/// m.add_bytes_sent(128);
/// let snap = m.snapshot();
/// assert_eq!(snap.lmi_count, 1);
/// assert_eq!(snap.bytes_sent, 128);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    counters: Counters,
    latency: [Mutex<Histogram>; LatencyKind::ALL.len()],
}

/// The hot-path operations with a dedicated latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyKind {
    /// Resolving one object fault / demand round (network wait included).
    Demand,
    /// One local invocation as the caller saw it (faults included).
    Invoke,
    /// One write-back of replica state to its master.
    Put,
    /// One refresh of a replica from its master.
    Refresh,
}

impl LatencyKind {
    /// Every kind, in index order.
    pub const ALL: [LatencyKind; 4] = [
        LatencyKind::Demand,
        LatencyKind::Invoke,
        LatencyKind::Put,
        LatencyKind::Refresh,
    ];

    /// Stable lowercase name, used by exports and diagnostics.
    pub const fn name(self) -> &'static str {
        match self {
            LatencyKind::Demand => "demand",
            LatencyKind::Invoke => "invoke",
            LatencyKind::Put => "put",
            LatencyKind::Refresh => "refresh",
        }
    }

    const fn index(self) -> usize {
        match self {
            LatencyKind::Demand => 0,
            LatencyKind::Invoke => 1,
            LatencyKind::Put => 2,
            LatencyKind::Refresh => 3,
        }
    }
}

/// A point-in-time copy of every latency histogram.
#[derive(Debug, Clone, Default)]
pub struct LatencySnapshot {
    /// Demand / object-fault resolution latency.
    pub demand: Histogram,
    /// Caller-observed invocation latency.
    pub invoke: Histogram,
    /// Write-back latency.
    pub put: Histogram,
    /// Refresh latency.
    pub refresh: Histogram,
}

impl LatencySnapshot {
    /// The histogram for `kind`.
    pub fn get(&self, kind: LatencyKind) -> &Histogram {
        match kind {
            LatencyKind::Demand => &self.demand,
            LatencyKind::Invoke => &self.invoke,
            LatencyKind::Put => &self.put,
            LatencyKind::Refresh => &self.refresh,
        }
    }

    /// Merges another snapshot into this one (e.g. across sites).
    pub fn merge(&mut self, other: &LatencySnapshot) {
        self.demand.merge(&other.demand);
        self.invoke.merge(&other.invoke);
        self.put.merge(&other.put);
        self.refresh.merge(&other.refresh);
    }
}

/// Declares the full counter set and generates every per-counter artifact:
/// the atomic `Counters` storage, [`MetricsSnapshot`] (with the given doc
/// comments), the `incr_*`/`add_*` methods, [`Metrics::snapshot`],
/// [`Metrics::reset`] and [`MetricsSnapshot::since`].
macro_rules! counters {
    ($($(#[$doc:meta])* $incr:ident, $add:ident, $field:ident;)*) => {
        #[derive(Debug, Default)]
        struct Counters {
            $($field: AtomicU64,)*
        }

        /// A point-in-time copy of all counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct MetricsSnapshot {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Metrics {
            $(
                #[doc = concat!("Increments `", stringify!($field), "` by one.")]
                pub fn $incr(&self) {
                    self.inner.counters.$field.fetch_add(1, Ordering::Relaxed);
                }

                #[doc = concat!("Adds `n` to `", stringify!($field), "`.")]
                pub fn $add(&self, n: u64) {
                    self.inner.counters.$field.fetch_add(n, Ordering::Relaxed);
                }
            )*

            /// Takes a consistent-enough snapshot of all counters (each
            /// counter is read atomically; the set is not read under a
            /// global lock).
            pub fn snapshot(&self) -> MetricsSnapshot {
                let c = &self.inner.counters;
                MetricsSnapshot {
                    $($field: c.$field.load(Ordering::Relaxed),)*
                }
            }

            /// Resets every counter to zero and clears every latency
            /// histogram.
            pub fn reset(&self) {
                let c = &self.inner.counters;
                $(c.$field.store(0, Ordering::Relaxed);)*
                for h in &self.inner.latency {
                    *h.lock() = Histogram::new();
                }
            }
        }

        impl MetricsSnapshot {
            /// Difference between `self` and an earlier snapshot, per
            /// counter.
            ///
            /// Saturates at zero so a reset between snapshots does not
            /// wrap.
            pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($field: self.$field.saturating_sub(earlier.$field),)*
                }
            }
        }
    };
}

counters! {
    incr_messages_sent, add_messages_sent, messages_sent;
    incr_messages_received, add_messages_received, messages_received;
    incr_bytes_sent, add_bytes_sent, bytes_sent;
    incr_bytes_received, add_bytes_received, bytes_received;
    incr_rmi, add_rmi, rmi_count;
    incr_lmi, add_lmi, lmi_count;
    incr_object_faults, add_object_faults, object_faults;
    incr_replicas_created, add_replicas_created, replicas_created;
    incr_replicas_evicted, add_replicas_evicted, replicas_evicted;
    incr_proxy_pairs_created, add_proxy_pairs_created, proxy_pairs_created;
    incr_proxies_reclaimed, add_proxies_reclaimed, proxies_reclaimed;
    incr_puts, add_puts, puts;
    incr_refreshes, add_refreshes, refreshes;
    incr_conflicts_detected, add_conflicts_detected, conflicts_detected;
    /// Network round-trips spent demanding replicas (one per demand
    /// exchange, retries excluded). Batch faulting exists to shrink this.
    incr_demand_round_trips, add_demand_round_trips, demand_round_trips;
    /// Total virtual time (ns) invocations spent blocked on object faults.
    incr_fault_nanos, add_fault_nanos, fault_nanos;
    /// Request attempts re-issued after a lost frame or timeout.
    incr_rpc_retries, add_rpc_retries, rpc_retries;
    /// Calls refused immediately because the peer's circuit breaker was open.
    incr_breaker_fast_fails, add_breaker_fast_fails, breaker_fast_fails;
    /// Duplicate requests answered from the server-side reply cache.
    incr_cached_replies, add_cached_replies, cached_replies;
    /// Reply chunks delivered (in order) by demands; a whole batch is one.
    incr_demand_chunks, add_demand_chunks, demand_chunks;
    /// Demands resumed mid-batch after a lost chunk, lost reply frame, or
    /// timeout (`resume_from` re-sends of one request id).
    incr_stream_resumes, add_stream_resumes, stream_resumes;
    /// Parked stream chunks dropped because their root was evicted or
    /// collected before the pump ran (a stale chunk must not resurrect a
    /// dead replica).
    incr_stale_chunks_dropped, add_stale_chunks_dropped, stale_chunks_dropped;
    /// Reply-cache in-flight admission slots reclaimed by the age-based
    /// reap (an executor died without publishing; its slot would otherwise
    /// leak forever).
    incr_pending_slots_reaped, add_pending_slots_reaped, pending_slots_reaped;
    /// Mastership handoffs completed by this site (intent logged, successor
    /// acked, local masters demoted).
    incr_handoffs_completed, add_handoffs_completed, handoffs_completed;
    /// Puts re-targeted at a root's new master after a `MovedMaster`
    /// redirect from the old one.
    incr_moved_master_redirects, add_moved_master_redirects, moved_master_redirects;
    /// Peers retired from breaker/monitor tracking after a graceful leave.
    incr_peers_retired, add_peers_retired, peers_retired;
}

impl Metrics {
    /// Creates a fresh, zeroed counter set.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one `kind` operation that took `d` into the matching
    /// latency histogram.
    pub fn record_latency(&self, kind: LatencyKind, d: Duration) {
        self.inner.latency[kind.index()].lock().record(d);
    }

    /// A point-in-time copy of every latency histogram.
    pub fn latency_snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            demand: self.inner.latency[LatencyKind::Demand.index()].lock().clone(),
            invoke: self.inner.latency[LatencyKind::Invoke.index()].lock().clone(),
            put: self.inner.latency[LatencyKind::Put.index()].lock().clone(),
            refresh: self.inner.latency[LatencyKind::Refresh.index()].lock().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero() {
        let snap = Metrics::new().snapshot();
        assert_eq!(snap, MetricsSnapshot::default());
    }

    #[test]
    fn increments_and_adds_are_visible_in_snapshots() {
        let m = Metrics::new();
        m.incr_rmi();
        m.incr_rmi();
        m.add_bytes_sent(100);
        m.incr_object_faults();
        m.incr_demand_round_trips();
        m.add_fault_nanos(2_800_000);
        let s = m.snapshot();
        assert_eq!(s.rmi_count, 2);
        assert_eq!(s.bytes_sent, 100);
        assert_eq!(s.object_faults, 1);
        assert_eq!(s.demand_round_trips, 1);
        assert_eq!(s.fault_nanos, 2_800_000);
    }

    #[test]
    fn clones_share_counters() {
        let m = Metrics::new();
        let m2 = m.clone();
        m2.incr_lmi();
        assert_eq!(m.snapshot().lmi_count, 1);
    }

    #[test]
    fn since_computes_deltas_and_saturates() {
        let m = Metrics::new();
        m.add_puts(3);
        let a = m.snapshot();
        m.add_puts(2);
        let b = m.snapshot();
        assert_eq!(b.since(&a).puts, 2);
        // Saturation: earlier snapshot "larger" than later.
        assert_eq!(a.since(&b).puts, 0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = Metrics::new();
        m.incr_messages_sent();
        m.add_bytes_received(7);
        m.incr_conflicts_detected();
        m.record_latency(LatencyKind::Demand, Duration::from_millis(3));
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        assert!(m.latency_snapshot().demand.is_empty());
    }

    #[test]
    fn latency_recorders_are_per_kind_and_shared_across_clones() {
        let m = Metrics::new();
        m.clone().record_latency(LatencyKind::Demand, Duration::from_millis(3));
        m.record_latency(LatencyKind::Demand, Duration::from_millis(5));
        m.record_latency(LatencyKind::Invoke, Duration::from_micros(2));
        let snap = m.latency_snapshot();
        assert_eq!(snap.demand.len(), 2);
        assert_eq!(snap.invoke.len(), 1);
        assert!(snap.put.is_empty());
        assert!(snap.refresh.is_empty());
        assert_eq!(snap.get(LatencyKind::Invoke).len(), 1);
        assert!(snap.demand.mean() >= Duration::from_millis(3));
    }

    #[test]
    fn latency_snapshots_merge_across_sites() {
        let site_a = Metrics::new();
        let site_b = Metrics::new();
        site_a.record_latency(LatencyKind::Put, Duration::from_millis(1));
        site_b.record_latency(LatencyKind::Put, Duration::from_millis(9));
        let mut merged = site_a.latency_snapshot();
        merged.merge(&site_b.latency_snapshot());
        assert_eq!(merged.put.len(), 2);
        assert_eq!(merged.put.max(), Duration::from_millis(9));
    }

    #[test]
    fn latency_kind_names_are_stable() {
        let names: Vec<&str> = LatencyKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["demand", "invoke", "put", "refresh"]);
    }

    #[test]
    fn metrics_are_send_and_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<Metrics>();
    }
}

//! Per-pair network traffic counters.
//!
//! When enabled, the transports count every frame delivery, drop and
//! refusal per directed site pair. Tests use the counters to assert
//! protocol behaviour ("exactly one GetRequest crossed the wire"); the
//! benchmark harness uses them to report message counts per experiment.

use obiwan_util::SiteId;
use obiwan_util::sync::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

/// What happened to one frame, as the transports report it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fate {
    /// Left the sender; counted in the metrics totals only.
    Sent,
    /// Delivered to the destination.
    Delivered,
    /// Dropped by a lossy link.
    Dropped,
    /// Refused because the link or a site was down.
    Refused,
}

/// Optionally enabled per-pair traffic counters.
///
/// Disabled by default; counting costs one branch per frame when off, and
/// memory stays bounded by the number of site pairs when on.
///
/// # Examples
///
/// ```
/// use obiwan_net::{SimTransport, LinkModel, Transport};
/// use obiwan_util::{Clock, ClockMode, SiteId};
/// use bytes::Bytes;
/// use std::sync::Arc;
///
/// let net = SimTransport::new(Clock::new(ClockMode::VirtualOnly), LinkModel::ideal());
/// let (s1, s2) = (SiteId::new(1), SiteId::new(2));
/// net.register(s2, Arc::new(|_: SiteId, f: Bytes| -> Option<Bytes> { Some(f) }));
/// net.trace().set_enabled(true);
/// net.call(s1, s2, Bytes::from_static(b"ping")).unwrap();
/// let summary = net.trace().summary();
/// assert_eq!(summary.pair(s1, s2).delivered, 1);
/// assert_eq!(summary.pair(s2, s1).bytes, 4);
/// ```
#[derive(Debug, Default)]
pub struct NetTrace {
    enabled: AtomicBool,
    pairs: Mutex<BTreeMap<(SiteId, SiteId), PairStats>>,
}

impl NetTrace {
    /// Creates a disabled trace.
    pub fn new() -> Self {
        NetTrace::default()
    }

    /// Enables or disables counting.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// True when counting.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Counts one frame's fate on `from -> to` (no-op while disabled).
    pub(crate) fn count(&self, from: SiteId, to: SiteId, bytes: usize, fate: Fate) {
        if !self.is_enabled() {
            return;
        }
        let mut pairs = self.pairs.lock();
        let stats = pairs.entry((from, to)).or_default();
        match fate {
            Fate::Delivered => {
                stats.delivered += 1;
                stats.bytes += bytes as u64;
            }
            Fate::Dropped => stats.dropped += 1,
            Fate::Refused => stats.refused += 1,
            Fate::Sent => {}
        }
    }

    /// The counters per directed site pair.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary {
            pairs: self.pairs.lock().clone(),
        }
    }
}

/// Aggregate traffic between one ordered site pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairStats {
    /// Frames delivered.
    pub delivered: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Frames dropped by lossy links.
    pub dropped: u64,
    /// Frames refused by disconnections.
    pub refused: u64,
}

/// Per-pair aggregation of a [`NetTrace`], for experiment reports and
/// protocol assertions ("exactly one GetRequest crossed S1→S2").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Stats per `(from, to)` pair, ordered.
    pub pairs: BTreeMap<(SiteId, SiteId), PairStats>,
}

impl TraceSummary {
    /// Stats for one directed pair (zeroes when no traffic was recorded).
    pub fn pair(&self, from: SiteId, to: SiteId) -> PairStats {
        self.pairs.get(&(from, to)).copied().unwrap_or_default()
    }

    /// Total delivered frames across all pairs.
    pub fn total_delivered(&self) -> u64 {
        self.pairs.values().map(|p| p.delivered).sum()
    }

    /// Total delivered payload bytes across all pairs.
    pub fn total_bytes(&self) -> u64 {
        self.pairs.values().map(|p| p.bytes).sum()
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for ((from, to), s) in &self.pairs {
            writeln!(
                f,
                "{from} -> {to}: {} frames, {} bytes, {} dropped, {} refused",
                s.delivered, s.bytes, s.dropped, s.refused
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u32) -> SiteId {
        SiteId::new(n)
    }

    #[test]
    fn disabled_trace_counts_nothing() {
        let t = NetTrace::new();
        t.count(s(1), s(2), 10, Fate::Delivered);
        assert_eq!(t.summary(), TraceSummary::default());
    }

    #[test]
    fn summary_aggregates_per_pair() {
        let t = NetTrace::new();
        t.set_enabled(true);
        t.count(s(1), s(2), 10, Fate::Delivered);
        t.count(s(1), s(2), 20, Fate::Delivered);
        t.count(s(1), s(2), 20, Fate::Sent);
        t.count(s(2), s(1), 5, Fate::Delivered);
        t.count(s(1), s(2), 99, Fate::Dropped);
        t.count(s(1), s(3), 0, Fate::Refused);
        let summary = t.summary();
        let p12 = summary.pair(s(1), s(2));
        assert_eq!(p12.delivered, 2);
        assert_eq!(p12.bytes, 30);
        assert_eq!(p12.dropped, 1);
        assert_eq!(summary.pair(s(1), s(3)).refused, 1);
        assert_eq!(summary.total_delivered(), 3);
        assert_eq!(summary.total_bytes(), 35);
        // Unknown pair is all zeroes.
        assert_eq!(summary.pair(s(9), s(9)), PairStats::default());
        // Display renders one line per pair.
        assert_eq!(summary.to_string().lines().count(), 3);
    }
}

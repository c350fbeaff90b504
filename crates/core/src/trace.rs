//! Capture logs and the page-fault trace (the in-kernel half of the
//! profiling toolchain, §IV-A).
//!
//! Every opt-in capture of a run — this fault trace, the causal spans
//! ([`SpanBuffer`](crate::SpanBuffer)) and the race events
//! ([`RaceTrace`](crate::RaceTrace)) — appends to one kind of buffer, a
//! [`CaptureLog`].
//!
//! When tracing is enabled, every fault that enters the DEX memory
//! consistency protocol appends one [`FaultEvent`] — the paper's
//! six-tuple: time, node, task, fault kind, faulting code site, faulting
//! address, plus the user tag of the containing VMA. The `dex-prof` crate
//! post-processes these records.

use std::sync::Arc;

use parking_lot::Mutex;

use dex_net::NodeId;
use dex_os::{Tid, VirtAddr};
use dex_sim::SimTime;

/// The kind of protocol event a trace record describes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultKind {
    /// A read access entered the protocol.
    Read,
    /// A write access entered the protocol.
    Write,
    /// This node's copy was invalidated by another node's write.
    Invalidate,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Read => write!(f, "read"),
            FaultKind::Write => write!(f, "write"),
            FaultKind::Invalidate => write!(f, "invalidate"),
        }
    }
}

/// One record of the page-fault trace (the paper's six-tuple).
#[derive(Clone, Debug)]
pub struct FaultEvent {
    /// Virtual time of the fault.
    pub time: SimTime,
    /// Node where the fault occurred.
    pub node: NodeId,
    /// Faulting task (`Tid(u64::MAX)` for protocol handlers applying
    /// remote invalidations).
    pub task: Tid,
    /// Fault kind.
    pub kind: FaultKind,
    /// The faulting code site — the simulation analogue of the faulting
    /// instruction address, set by applications via
    /// [`ThreadCtx::set_site`](crate::ThreadCtx::set_site).
    pub site: &'static str,
    /// The faulting memory address.
    pub addr: VirtAddr,
    /// User tag of the containing VMA (object-level attribution).
    pub tag: Option<String>,
}

/// A shared, opt-in, append-only log of capture records.
///
/// Cloning shares the log. A disabled log holds no buffer at all, so
/// recording into it costs one branch, and [`CaptureLog::record_with`]
/// does not even build the record.
#[derive(Clone, Debug)]
pub struct CaptureLog<T> {
    records: Option<Arc<Mutex<Vec<T>>>>,
}

impl<T: Clone> CaptureLog<T> {
    /// A log that records when `enabled`, and drops everything otherwise.
    pub fn new(enabled: bool) -> Self {
        CaptureLog {
            records: enabled.then(Arc::default),
        }
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.records.is_some()
    }

    /// Appends a record (no-op when disabled).
    pub fn record(&self, record: T) {
        self.record_with(|| record);
    }

    /// Appends the record `make` builds; `make` runs only when enabled.
    pub fn record_with(&self, make: impl FnOnce() -> T) {
        if let Some(records) = &self.records {
            records.lock().push(make());
        }
    }

    /// A copy of all records in record order.
    pub fn snapshot(&self) -> Vec<T> {
        self.snapshot_since(0).0
    }

    /// Copies the records at position `from` or later and returns them
    /// with the next cursor value, letting a consumer stream the log
    /// incrementally:
    ///
    /// ```
    /// # use dex_core::CaptureLog;
    /// let log = CaptureLog::new(true);
    /// log.record(1);
    /// let (batch, cursor) = log.snapshot_since(0);
    /// assert_eq!(batch, [1]);
    /// log.record(2);
    /// assert_eq!(log.snapshot_since(cursor), (vec![2], 2));
    /// ```
    pub fn snapshot_since(&self, from: u64) -> (Vec<T>, u64) {
        let Some(records) = &self.records else {
            return (Vec::new(), 0);
        };
        let records = records.lock();
        let from = (from as usize).min(records.len());
        (records[from..].to_vec(), records.len() as u64)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.as_ref().map_or(0, |r| r.lock().len())
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The shared buffer of fault events.
///
/// # Examples
///
/// ```
/// use dex_core::{FaultEvent, FaultKind, TraceBuffer};
/// use dex_net::NodeId;
/// use dex_os::{Tid, VirtAddr};
/// use dex_sim::SimTime;
///
/// let trace = TraceBuffer::new(true);
/// trace.record(FaultEvent {
///     time: SimTime::ZERO,
///     node: NodeId(1),
///     task: Tid(3),
///     kind: FaultKind::Write,
///     site: "kmeans.update_centroids",
///     addr: VirtAddr::new(0x1000_0040),
///     tag: Some("centroids".into()),
/// });
/// assert_eq!(trace.snapshot().len(), 1);
/// ```
pub type TraceBuffer = CaptureLog<FaultEvent>;

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: FaultKind) -> FaultEvent {
        FaultEvent {
            time: SimTime::ZERO,
            node: NodeId(0),
            task: Tid(0),
            kind,
            site: "test",
            addr: VirtAddr::new(0x1000),
            tag: None,
        }
    }

    #[test]
    fn enabled_buffer_records_in_order() {
        let t = TraceBuffer::new(true);
        t.record(event(FaultKind::Read));
        t.record(event(FaultKind::Write));
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].kind, FaultKind::Read);
        assert_eq!(snap[1].kind, FaultKind::Write);
    }

    #[test]
    fn disabled_buffer_drops_events() {
        let t = TraceBuffer::new(false);
        t.record(event(FaultKind::Read));
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn clones_share_the_buffer() {
        let t = TraceBuffer::new(true);
        let t2 = t.clone();
        t2.record(event(FaultKind::Invalidate));
        assert_eq!(t.len(), 1);
    }
}

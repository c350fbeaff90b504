//! Benchmark-side spans: one record per call the benchmark makes into a
//! layer's public API, kept in memory and written out when the run ends.
//!
//! Each span carries both clocks — host nanoseconds since the tracer was
//! created and the simulation's virtual nanoseconds (zero where the call
//! happens outside a simulation) — plus the id of the span that caused
//! it, so a cluster run's accesses nest under the run.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One completed call into a layer.
#[derive(Clone, Debug)]
pub struct BenchSpan {
    /// 1-based id, unique within the run.
    pub id: u32,
    /// The causing span's id (0 for roots).
    pub parent: u32,
    /// The layer call, e.g. `dex_core::DsmCell::rmw`.
    pub name: &'static str,
    /// Host start/end, nanoseconds since the tracer was created.
    pub host: (u64, u64),
    /// Virtual start/end, nanoseconds.
    pub virt: (u64, u64),
}

impl BenchSpan {
    /// Host duration in nanoseconds.
    pub fn host_ns(&self) -> u64 {
        self.host.1 - self.host.0
    }

    /// Virtual duration in nanoseconds.
    pub fn virt_ns(&self) -> u64 {
        self.virt.1 - self.virt.0
    }
}

struct Buffer {
    next_id: u32,
    spans: Vec<BenchSpan>,
}

/// A shared span sink; the disabled tracer records nothing and costs one
/// branch per call.
#[derive(Clone)]
pub struct Tracer {
    epoch: Instant,
    buf: Option<Arc<Mutex<Buffer>>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            epoch: Instant::now(),
            buf: None,
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            epoch: Instant::now(),
            buf: Some(Arc::new(Mutex::new(Buffer {
                next_id: 1,
                spans: Vec::new(),
            }))),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.buf.is_some()
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, Buffer>> {
        self.buf
            .as_ref()
            .map(|b| b.lock().expect("span buffer lock poisoned"))
    }

    /// Reserves an id for a span that will be recorded later, so calls it
    /// causes can name it as their parent before it completes.
    pub fn reserve(&self) -> u32 {
        match self.lock() {
            Some(mut b) => {
                b.next_id += 1;
                b.next_id - 1
            }
            None => 0,
        }
    }

    /// Records a span under a reserved id.
    pub fn record(
        &self,
        id: u32,
        parent: u32,
        name: &'static str,
        host: (Instant, Instant),
        virt: (u64, u64),
    ) {
        if let Some(mut b) = self.lock() {
            let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
            b.spans.push(BenchSpan {
                id,
                parent,
                name,
                host: (ns(host.0), ns(host.1)),
                virt,
            });
        }
    }

    /// Runs `f` as a span named `name` under `parent`, reading the virtual
    /// clock through `virt_now` before and after.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: u32,
        virt_now: impl Fn() -> u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.is_on() {
            return f();
        }
        let id = self.reserve();
        let (v0, h0) = (virt_now(), Instant::now());
        let out = f();
        let h1 = Instant::now();
        self.record(id, parent, name, (h0, h1), (v0, virt_now()));
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<BenchSpan> {
        self.lock().map(|b| b.spans.clone()).unwrap_or_default()
    }
}

/// Renders spans as a tab-separated `# perfbench-spans v1` file.
pub fn encode(spans: &[BenchSpan]) -> String {
    let mut out = String::from(
        "# perfbench-spans v1\n# id\tparent\tname\thost_start_ns\thost_end_ns\tvirt_start_ns\tvirt_end_ns\n",
    );
    for s in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.host.0, s.host.1, s.virt.0, s.virt.1
        );
    }
    out
}

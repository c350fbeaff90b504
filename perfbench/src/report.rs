//! Metric definitions, derivation from op results, and the two outputs:
//! a human table and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dex_core::{Span, SpanKind};
use dex_prof::{migration_phases, protocol_path_breakdown};

use crate::stats::{geomean, percentile, tail_percentile};
use crate::trace::BenchSpan;
use crate::workloads::{OpResult, Workload};

/// Workloads the result contract covers, with why each was chosen. The
/// `replicate` and `replicate-sharded` workloads run but stay outside
/// it: ops fail on them at this commit (see NOTES.md), and the contract
/// admits only workloads whose ops pass.
pub const CONTRACT_WORKLOADS: [(&str, &str); 2] = [
    ("apps", "Fig. 2 at two nodes, 8 apps at 1 node and optimized at 2: compute handoffs, migration forks and coalesced faults"),
    ("pingpong", "Sec. V-D hot word bounced by 2 then 3 writers: fault path, retries, dispatchers and fabric with almost no compute"),
];

/// End-to-end metrics in the result contract: `(name, unit, bound)`;
/// all are better lower. The virtual-clock figures that do not depend on
/// the seed on some workload (fault percentiles and migration latency
/// are fixed on `apps`), `virt_speedup` (only `apps` has one) and
/// `error_rate` (0 when all passes; `failed` / `attempted` carry it)
/// are printed in the table only.
pub const END_TO_END: [(&str, &str, f64); 5] = [
    ("host_run_s", "s", 0.25),
    ("host_cpu_s", "s", 0.2),
    ("host_peak_rss_mb", "MB", 0.25),
    ("virt_time_ms", "ms", 0.05),
    ("setup_s", "s", 0.25),
];

/// Per-layer metrics in the result contract: `(name, unit, better)`.
/// Only figures measured on every contract workload, and no virtual
/// time that is the same for every seed.
pub const PER_LAYER: [(&str, &str, &str); 36] = [
    ("sim.events", "count", "lower"),
    ("sim.host_ns_per_event", "ns", "lower"),
    ("sim.advance.host_ns_p50", "ns", "lower"),
    ("sim.advance.host_ns_p99", "ns", "lower"),
    ("sim.spawn.host_us", "us", "lower"),
    ("net.msgs", "count", "lower"),
    ("net.bytes", "bytes", "lower"),
    ("net.pages", "count", "lower"),
    ("net.msgs_per_fault", "ratio", "lower"),
    ("net.sendrecv.host_ns", "ns", "lower"),
    ("os.radix.insert.host_ns", "ns", "lower"),
    ("os.radix.get.host_ns", "ns", "lower"),
    ("dir.txn.host_ns", "ns", "lower"),
    ("dir.retried_faults", "count", "lower"),
    ("dir.retry_ratio", "ratio", "lower"),
    ("dir.invalidations", "count", "lower"),
    ("fault.read", "count", "lower"),
    ("fault.write", "count", "lower"),
    ("fault.coalesced", "count", "higher"),
    ("fault.coalesce_ratio", "ratio", "higher"),
    ("migrate.count", "count", "lower"),
    ("sync.delegations", "count", "lower"),
    ("sync.futex_waits", "count", "lower"),
    ("sync.futex_wakes", "count", "lower"),
    ("span.fault.virt_us", "us", "lower"),
    ("span.fault.count", "count", "lower"),
    ("span.fault_retry.count", "count", "lower"),
    ("span.follower_wait.count", "count", "higher"),
    ("span.directory_handling.virt_us", "us", "lower"),
    ("span.directory_handling.count", "count", "lower"),
    ("span.invalidation.virt_us", "us", "lower"),
    ("span.invalidation.count", "count", "lower"),
    ("span.migration_phase.count", "count", "lower"),
    ("span.delegation_service.count", "count", "lower"),
    ("span.futex_wait.count", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// The benchmark's `BENCHMARK.json`, built from the tables above.
pub fn spec(run_seconds: u64) -> String {
    let q = |s: &str| format!("\"{s}\"");
    let workloads: Vec<String> = CONTRACT_WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": {}, \"why\": {}}}", q(n), q(why)))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|(n, u, b)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"lower\", \"bound\": {b}}}",
                q(n),
                q(u)
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, u, b)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                q(n),
                q(u),
                q(b)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Row {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count, percentile used, paper value — shown in the table.
    pub note: String,
}

/// Collects rows in order.
#[derive(Default)]
pub struct Rows(pub Vec<Row>);

impl Rows {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.0.push(Row {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        });
    }

    pub fn get(&self, name: &str) -> Option<&Row> {
        self.0.iter().find(|r| r.name == name)
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Paper values the reproduction is calibrated to (EXPERIMENTS.md), so
/// the relative error shows the calibration, not an independent check.
const PAPER_FAST_FAULT_US: f64 = 19.3;
const PAPER_PAGE_RETRIEVAL_US: f64 = 13.6;
const PAPER_REPEAT_FORWARD_US: f64 = 236.6;
/// Faults below this are the fast mode (the `pgfault` bench's split).
const FAST_MODE_NS: u64 = 60_000;

fn accuracy(measured: f64, paper: f64) -> String {
    format!(
        "paper {paper} us, rel. error {:+.1}% (calibrated)",
        100.0 * (measured - paper) / paper
    )
}

/// The virtual-clock end-to-end rows of one repetition's results, plus
/// the accuracy rows for the figures the paper gives a value for.
pub fn virtual_rows(wl: &Workload, name: &str, results: &[OpResult], rows: &mut Rows) {
    let mut faults: Vec<u64> = results
        .iter()
        .flat_map(|r| r.virt.fault_ns.iter().copied())
        .collect();
    faults.sort_unstable();
    let mut fwd: Vec<u64> = results
        .iter()
        .flat_map(|r| r.virt.fwd_ns.iter().copied())
        .collect();
    fwd.sort_unstable();
    let vtime: u64 = results.iter().map(|r| r.virt.vtime_ns).sum();
    rows.push(
        "virt_time_ms",
        vtime as f64 / 1e6,
        "ms",
        format!("sum over {} cluster runs", results.len()),
    );
    let n = faults.len();
    rows.push(
        "virt_fault_p50_us",
        us(percentile(&faults, 50.0)),
        "us",
        format!("p50 of {n} faults"),
    );
    let p = tail_percentile(n, 99.0);
    let beyond = n.saturating_sub(1 + ((p / 100.0) * (n.max(1) - 1) as f64).round() as usize);
    rows.push(
        "virt_fault_p99_us",
        us(percentile(&faults, p)),
        "us",
        format!("p{p:.1} of {n} faults, {beyond} beyond"),
    );
    rows.push(
        "virt_migrate_us",
        us(percentile(&fwd, 50.0)),
        "us",
        format!("median of {} forward migrations", fwd.len()),
    );
    let pairs = wl.speedup_pairs(results);
    if !pairs.is_empty() {
        let speedups: Vec<f64> = pairs
            .iter()
            .map(|&(_, base, opt)| base as f64 / opt as f64)
            .collect();
        let detail: Vec<String> = pairs
            .iter()
            .zip(&speedups)
            .map(|((app, ..), s)| format!("{app} {s:.3}"))
            .collect();
        rows.push(
            "virt_speedup",
            geomean(&speedups),
            "x",
            format!(
                "geomean of {}; paper gives only the shape, unvalidated",
                detail.join(" ")
            ),
        );
    }

    // Accuracy column: the figures the paper reports a value for.
    if name == "pingpong" {
        let fast: Vec<u64> = results[0]
            .virt
            .fault_ns
            .iter()
            .copied()
            .filter(|&f| f < FAST_MODE_NS)
            .collect();
        if !fast.is_empty() {
            let mean = us(fast.iter().sum::<u64>()) / fast.len() as f64;
            let note = accuracy(mean, PAPER_FAST_FAULT_US);
            rows.push("accuracy.fast_fault_us", mean, "us", note);
        }
        let mut repeat: Vec<u64> = results
            .iter()
            .flat_map(|r| r.virt.repeat_fwd_ns.iter().copied())
            .collect();
        repeat.sort_unstable();
        if !repeat.is_empty() {
            let v = us(percentile(&repeat, 50.0));
            let note = accuracy(v, PAPER_REPEAT_FORWARD_US);
            rows.push("accuracy.repeat_forward_us", v, "us", note);
        }
    }
}

fn sum(results: &[OpResult], f: impl Fn(&dex_core::DexStats) -> u64) -> u64 {
    results.iter().map(|r| f(&r.virt.stats)).sum()
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Per-layer rows derived from one traced repetition: counters, the
/// benchmark's own spans and the program's spans.
pub fn layer_rows(results: &[OpResult], bench: &[BenchSpan], rows: &mut Rows) {
    let events: u64 = results.iter().map(|r| r.events).sum();
    rows.push(
        "sim.events",
        events as f64,
        "count",
        "steps of the recorded schedules",
    );

    let faults = sum(results, |s| s.read_faults + s.write_faults);
    let msgs = sum(results, |s| s.msgs_sent);
    rows.push("net.msgs", msgs as f64, "count", "");
    rows.push(
        "net.bytes",
        sum(results, |s| s.bytes_sent) as f64,
        "bytes",
        "",
    );
    rows.push(
        "net.pages",
        sum(results, |s| s.pages_sent) as f64,
        "count",
        "",
    );
    rows.push("net.msgs_per_fault", ratio(msgs, faults), "ratio", "");

    let retried = sum(results, |s| s.retried_faults);
    rows.push("dir.retried_faults", retried as f64, "count", "");
    rows.push(
        "dir.retry_ratio",
        ratio(retried, faults),
        "ratio",
        "retried / faults",
    );
    rows.push(
        "dir.invalidations",
        sum(results, |s| s.invalidations) as f64,
        "count",
        "",
    );
    let forwards: u64 = results.iter().map(|r| r.virt.forwards).sum();
    let batches: u64 = results.iter().map(|r| r.virt.invalidate_batches).sum();
    rows.push(
        "dir.forwards",
        forwards as f64,
        "count",
        "sharded directory only",
    );
    rows.push(
        "dir.invalidate_batches",
        batches as f64,
        "count",
        "sharded directory only",
    );

    let coalesced = sum(results, |s| s.coalesced_faults);
    rows.push(
        "fault.read",
        sum(results, |s| s.read_faults) as f64,
        "count",
        "",
    );
    rows.push(
        "fault.write",
        sum(results, |s| s.write_faults) as f64,
        "count",
        "",
    );
    rows.push("fault.coalesced", coalesced as f64, "count", "");
    rows.push(
        "fault.coalesce_ratio",
        ratio(coalesced, faults),
        "ratio",
        "coalesced / faults",
    );

    // The benchmark's own calls, by layer call name.
    let mut by_name: BTreeMap<&str, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    for s in bench {
        let e = by_name.entry(s.name).or_default();
        e.0.push(s.host_ns());
        e.1.push(s.virt_ns());
    }
    for (h, v) in by_name.values_mut() {
        h.sort_unstable();
        v.sort_unstable();
    }
    let mut access = (Vec::new(), Vec::new());
    for name in [
        "dex_core::DsmVec::get",
        "dex_core::DsmVec::set",
        "dex_core::DsmCell::rmw",
    ] {
        if let Some((h, v)) = by_name.get(name) {
            access.0.extend_from_slice(h);
            access.1.extend_from_slice(v);
        }
    }
    if !access.0.is_empty() {
        access.0.sort_unstable();
        access.1.sort_unstable();
        let n = access.0.len();
        let note = format!("{n} DsmVec/DsmCell calls");
        rows.push(
            "access.host_ns_p50",
            percentile(&access.0, 50.0) as f64,
            "ns",
            note.clone(),
        );
        rows.push(
            "access.host_ns_p99",
            percentile(&access.0, tail_percentile(n, 99.0)) as f64,
            "ns",
            note.clone(),
        );
        rows.push(
            "access.virt_ns_p50",
            percentile(&access.1, 50.0) as f64,
            "ns",
            note.clone(),
        );
        rows.push(
            "access.virt_ns_p99",
            percentile(&access.1, tail_percentile(n, 99.0)) as f64,
            "ns",
            note,
        );
    }

    let migrations = sum(results, |s| s.forward_migrations + s.backward_migrations);
    rows.push("migrate.count", migrations as f64, "count", "");
    for (row, call) in [
        ("migrate.fwd.host_us", "dex_core::ThreadCtx::migrate"),
        ("migrate.back.host_us", "dex_core::ThreadCtx::migrate_back"),
        ("sync.barrier.host_us", "dex_core::DexBarrier::wait"),
    ] {
        if let Some((h, _)) = by_name.get(call) {
            rows.push(
                row,
                us(percentile(h, 50.0)),
                "us",
                format!("median of {} calls", h.len()),
            );
        }
    }
    let merged = |f: &dyn Fn(&OpResult) -> &[u64]| {
        let mut v: Vec<u64> = results.iter().flat_map(|r| f(r).iter().copied()).collect();
        v.sort_unstable();
        v
    };
    let (fwd, back) = (merged(&|r| &r.virt.fwd_ns), merged(&|r| &r.virt.back_ns));
    rows.push(
        "migrate.fwd.virt_us",
        us(percentile(&fwd, 50.0)),
        "us",
        format!("median of {}", fwd.len()),
    );
    rows.push(
        "migrate.back.virt_us",
        us(percentile(&back, 50.0)),
        "us",
        format!("median of {}", back.len()),
    );
    if let Some((_, v)) = by_name.get("dex_core::DexBarrier::wait") {
        rows.push(
            "sync.barrier.virt_us",
            us(percentile(v, 50.0)),
            "us",
            format!("median of {} waits", v.len()),
        );
    }
    rows.push(
        "sync.delegations",
        sum(results, |s| s.delegations) as f64,
        "count",
        "",
    );
    rows.push(
        "sync.futex_waits",
        sum(results, |s| s.futex_waits) as f64,
        "count",
        "",
    );
    rows.push(
        "sync.futex_wakes",
        sum(results, |s| s.futex_wakes) as f64,
        "count",
        "",
    );

    let spans: Vec<Span> = results
        .iter()
        .flat_map(|r| r.spans.iter().cloned())
        .collect();
    span_rows(&spans, rows);
}

const ALL_KINDS: [SpanKind; 16] = [
    SpanKind::Fault,
    SpanKind::FaultRetry,
    SpanKind::FollowerWait,
    SpanKind::DirectoryHandling,
    SpanKind::PageFixup,
    SpanKind::Invalidation,
    SpanKind::OwnerForward,
    SpanKind::InvalidateBatch,
    SpanKind::MigrationForward,
    SpanKind::MigrationPhase,
    SpanKind::MigrationBack,
    SpanKind::Delegation,
    SpanKind::DelegationService,
    SpanKind::FutexWait,
    SpanKind::FutexWake,
    SpanKind::VmaSync,
];

/// `span.<kind>.virt_us` (total) and `.count` for every span kind: the
/// protocol kinds through `protocol_path_breakdown`, migration phases
/// through `migration_phases`, the rest summed directly.
fn span_rows(spans: &[Span], rows: &mut Rows) {
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (kind, stat) in protocol_path_breakdown(spans) {
        let e = totals.entry(kind.as_str()).or_default();
        e.0 += stat.count;
        e.1 += stat.total_ns;
    }
    for stat in migration_phases(spans) {
        let e = totals.entry(SpanKind::MigrationPhase.as_str()).or_default();
        e.0 += stat.count;
        e.1 += stat.total_ns;
    }
    for kind in ALL_KINDS {
        if !totals.contains_key(kind.as_str()) {
            let (count, ns) = spans
                .iter()
                .filter(|s| s.kind == kind)
                .fold((0, 0), |(c, t), s| (c + 1, t + s.duration().as_nanos()));
            totals.insert(kind.as_str(), (count, ns));
        }
    }
    for kind in ALL_KINDS {
        let (count, ns) = totals[kind.as_str()];
        rows.push(
            format!("span.{}.virt_us", kind.as_str()),
            us(ns),
            "us",
            "total",
        );
        rows.push(
            format!("span.{}.count", kind.as_str()),
            count as f64,
            "count",
            "",
        );
    }
    // The fastest read fault is an uncontended remote page retrieval,
    // fault entry to fixup.
    let fastest = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Fault && s.label == "read_fault")
        .map(|s| s.duration().as_nanos())
        .min();
    if let Some(ns) = fastest {
        rows.push(
            "accuracy.page_retrieval_us",
            us(ns),
            "us",
            accuracy(us(ns), PAPER_PAGE_RETRIEVAL_US),
        );
    }
}

/// The human table.
pub fn render(title: &str, rows: &Rows) -> String {
    let mut out = format!("== {title}\n");
    for r in &rows.0 {
        let _ = writeln!(
            out,
            "  {:<34} {:>16} {:<6} {}",
            r.name,
            format_value(r.value),
            r.unit,
            r.note
        );
    }
    out
}

fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

/// The one-line result: `metrics` holds exactly the rows named in
/// `names`, with every digit.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    rows: &Rows,
    names: &[&str],
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for name in names {
        let row = rows
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !row.value.is_finite() {
            return Err(format!("metric {name} is not finite: {}", row.value));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            row.value, row.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

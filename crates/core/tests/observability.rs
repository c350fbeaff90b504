//! End-to-end checks of the observability subsystem: cross-node span
//! stitching, metrics surfacing, and — the load-bearing guarantee —
//! that enabling spans/metrics changes *nothing* about execution (the
//! recorded schedule stays byte-identical).

use dex_core::{Cluster, ClusterConfig, RunReport, SpanId, SpanKind};
use dex_net::NodeId;

/// A deterministic workload exercising every instrumented path: forward
/// migration, remote write faults, invalidation fan-out, futex
/// wake, and backward migration.
fn run_workload(cfg: ClusterConfig) -> RunReport {
    let cluster = Cluster::new(cfg);
    cluster.run(|p| {
        let data = p.alloc_vec::<u64>(64, "data");
        let flag = p.alloc_cell_tagged::<u32>(0, "flag");
        p.spawn(move |ctx| {
            ctx.set_site("observability.writer");
            ctx.migrate(1).expect("node 1 exists");
            for i in 0..8 {
                data.set(ctx, i, i as u64 * 3);
            }
            flag.set(ctx, 1);
            ctx.migrate_back().expect("return home");
        });
        p.spawn(move |ctx| {
            ctx.set_site("observability.reader");
            while flag.get(ctx) == 0 {
                ctx.compute_ops(10_000);
            }
            assert_eq!(data.get(ctx, 7), 21);
        });
    })
}

#[test]
fn schedule_is_bit_identical_with_and_without_instrumentation() {
    let sharded = || ClusterConfig::new(4).with_directory_shards(2);
    for (bare, with_capture) in [
        (
            ClusterConfig::new(2),
            ClusterConfig::new(2).with_spans().with_metrics(),
        ),
        (
            sharded(),
            sharded()
                .with_trace()
                .with_spans()
                .with_metrics()
                .with_race_detection(),
        ),
    ] {
        let nodes = bare.nodes;
        let base = run_workload(bare.with_schedule_recording());
        let instrumented = run_workload(with_capture.with_schedule_recording());
        let plain = base.schedule.expect("schedule recorded");
        let traced = instrumented.schedule.expect("schedule recorded");
        assert!(!plain.is_empty());
        assert_eq!(
            plain, traced,
            "{nodes} nodes: enabling capture must not perturb the schedule by one byte"
        );
        assert!(base.spans.is_empty(), "spans off records nothing");
        assert!(
            !instrumented.spans.is_empty(),
            "spans on records the timeline"
        );
        assert_eq!(base.virtual_time, instrumented.virtual_time);
    }
}

#[test]
fn remote_fault_spans_stitch_across_nodes() {
    let report = run_workload(ClusterConfig::new(2).with_spans());
    let spans = &report.spans;

    // A remote write fault on node 1 …
    let fault = spans
        .iter()
        .find(|s| s.kind == SpanKind::Fault && s.node == NodeId(1) && s.label == "write_fault")
        .expect("a remote write fault span");
    assert_eq!(fault.parent, SpanId::NONE, "faults are roots");
    assert_eq!(
        fault.tag.as_deref(),
        Some("data"),
        "fault spans carry the faulted object's tag"
    );

    // … whose directory handling ran on the origin (node 0) …
    let handling = spans
        .iter()
        .find(|s| s.kind == SpanKind::DirectoryHandling && s.parent == fault.id)
        .expect("origin-side directory handling parented to the fault");
    assert_eq!(handling.node, NodeId(0), "directory lives on the origin");

    // … and whose fixup ran back on the requester, parented to the
    // directory transaction: requester -> origin -> requester.
    let fixup = spans
        .iter()
        .find(|s| s.kind == SpanKind::PageFixup && s.parent == handling.id)
        .expect("requester-side fixup parented to the directory handling");
    assert_eq!(fixup.node, NodeId(1));
    assert!(fault.start <= handling.start && handling.start <= fixup.start);
    assert!(fixup.end <= fault.end, "the fault span covers its children");
}

#[test]
fn migration_spans_cover_the_paper_phases() {
    let report = run_workload(ClusterConfig::new(2).with_spans());
    let spans = &report.spans;
    let phase_labels: Vec<&str> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::MigrationPhase)
        .map(|s| s.label)
        .collect();
    for phase in ["remote_worker", "thread_fork", "context_install"] {
        assert!(
            phase_labels.contains(&phase),
            "first forward migration must record {phase}, got {phase_labels:?}"
        );
    }
    let forward = spans
        .iter()
        .find(|s| s.kind == SpanKind::MigrationForward)
        .expect("forward migration span");
    assert_eq!(forward.label, "first_on_node");
    // Each remote phase is parented to the forward migration span.
    let phases: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::MigrationPhase && s.parent == forward.id)
        .collect();
    assert!(
        phases.len() >= 3,
        "remote phases stitch to the origin-side migration span"
    );
    assert!(spans.iter().any(|s| s.kind == SpanKind::MigrationBack));
}

#[test]
fn metrics_capture_faults_and_link_traffic() {
    let report = run_workload(ClusterConfig::new(2).with_metrics());
    let snap = report.metrics.expect("metrics attached");
    assert_eq!(snap.nodes, 2);
    let node1: std::collections::BTreeMap<&str, u64> = snap.per_node[1]
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    assert!(
        node1.get("dsm.faults_write").copied().unwrap_or(0) > 0,
        "remote write faults counted on node 1: {node1:?}"
    );
    assert!(
        snap.per_link
            .iter()
            .any(|l| (l.src, l.dst) == (1, 0) || (l.src, l.dst) == (0, 1)),
        "traffic on the 0<->1 links"
    );
    let rendered = snap.render();
    assert!(rendered.contains("dsm.faults_write"));

    // Metrics off: the report carries none.
    assert!(run_workload(ClusterConfig::new(2)).metrics.is_none());
}

//! Recorded-schedule fixtures.
//!
//! Each test replays a fixed cluster run with schedule recording on and
//! requires the recorded `ScheduleLog` text to equal a committed fixture
//! byte for byte. The fixtures pin "same schedule" across engine
//! changes: a change to how the engine hands control between simulated
//! threads must not move a single accepted event.
//!
//! The workload is a two-node ping-pong on one hot word with spans,
//! metrics and telemetry on, so the engine's sampler fires throughout
//! the run. It uses no barrier, so the same workload also runs on a
//! sharded directory.

use dex_core::{Cluster, ClusterConfig};
use dex_sim::SimDuration;

/// Increments each writer applies to the hot word.
const ROUNDS: u64 = 12;

/// Runs the ping-pong and returns the recorded schedule text.
fn pingpong_schedule(config: ClusterConfig) -> String {
    let config = config
        .with_telemetry(SimDuration::from_micros(20))
        .with_schedule_recording();
    let mut cell = None;
    let report = Cluster::new(config).run(|p| {
        let counter = p.alloc_cell_aligned::<u64>(0, "hot_word");
        cell = Some(counter);
        for node in [0u16, 1] {
            p.spawn(move |ctx| {
                if node != 0 {
                    ctx.migrate(node).expect("node exists");
                }
                for i in 0..ROUNDS {
                    ctx.compute_ops(250_000 + 50_000 * (i % 3));
                    counter.rmw(ctx, |v| v + 1);
                }
            });
        }
    });
    assert_eq!(cell.expect("setup ran").snapshot(&report), 2 * ROUNDS);
    assert!(report.series.is_some(), "telemetry sampled the run");
    report.schedule.expect("schedule recording was enabled")
}

/// Asserts byte equality and, on mismatch, names the first differing
/// line instead of dumping both texts.
fn assert_matches_fixture(actual: &str, fixture: &str, name: &str) {
    if actual == fixture {
        return;
    }
    let line = actual
        .lines()
        .zip(fixture.lines())
        .position(|(a, f)| a != f)
        .unwrap_or_else(|| actual.lines().count().min(fixture.lines().count()));
    panic!(
        "schedule differs from fixture {name} at line {}: got {:?}, fixture {:?} \
         ({} vs {} lines)",
        line + 1,
        actual.lines().nth(line),
        fixture.lines().nth(line),
        actual.lines().count(),
        fixture.lines().count(),
    );
}

#[test]
fn classic_pingpong_schedule_matches_fixture() {
    let text = pingpong_schedule(ClusterConfig::new(2));
    assert_matches_fixture(
        &text,
        include_str!("fixtures/pingpong_telemetry.schedule"),
        "pingpong_telemetry.schedule",
    );
}

#[test]
fn sharded_pingpong_schedule_matches_fixture() {
    let text = pingpong_schedule(ClusterConfig::new(2).with_directory_shards(2));
    assert_matches_fixture(
        &text,
        include_str!("fixtures/pingpong_telemetry_shards2.schedule"),
        "pingpong_telemetry_shards2.schedule",
    );
}

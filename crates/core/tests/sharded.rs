//! End-to-end tests for the sharded ownership directory: shards off is
//! bit-identical to the seed behaviour, shards on runs the two-hop
//! (owner-forwarded) protocol with batched invalidation fan-out, and
//! both replay deterministically with consistent directories.

use dex_core::{Access, Cluster, ClusterConfig, Counter, FaultKind, RunReport};
use dex_sim::SimRng;

/// The fault-suite fingerprint: virtual time, the full counter set, and
/// the fault trace.
fn fingerprint(report: &RunReport) -> (u64, Vec<(String, u64)>, String) {
    (
        report.virtual_time.as_nanos(),
        report.process().stats.counters.snapshot(),
        format!("{:?}", report.trace),
    )
}

/// A migration-heavy workload touching the same region from three nodes:
/// ownership ping-pongs, reads build up sharers, and the final write
/// revokes them all — exercising grants, forwards, and invalidation
/// fan-out under any shard count.
fn pingpong_workload(config: ClusterConfig) -> (RunReport, dex_core::DsmVec<u64>) {
    let cluster = Cluster::new(config);
    let mut handle = None;
    let report = cluster.run(|p| {
        let v = p.alloc_vec_aligned::<u64>(8 * 512, "pingpong");
        handle = Some(v);
        p.spawn(move |ctx| {
            ctx.migrate(1).unwrap();
            for i in 0..v.len() {
                v.set(ctx, i, i as u64 + 1);
            }
            // Spread read replicas over the other nodes...
            ctx.migrate(2).unwrap();
            for page in 0..8 {
                let _ = v.get(ctx, page * 512);
            }
            ctx.migrate_back().unwrap();
            for page in 0..8 {
                let _ = v.get(ctx, page * 512);
            }
            // ...then revoke them all with a second ownership pass.
            ctx.migrate(2).unwrap();
            for i in 0..v.len() {
                v.set(ctx, i, i as u64 * 2);
            }
            ctx.migrate_back().unwrap();
        });
    });
    (report, handle.expect("allocated"))
}

#[test]
fn one_shard_is_bit_identical_to_the_classic_directory() {
    let (classic, _) = pingpong_workload(ClusterConfig::new(3).with_trace());
    let (one_shard, _) =
        pingpong_workload(ClusterConfig::new(3).with_trace().with_directory_shards(1));
    assert_eq!(fingerprint(&classic), fingerprint(&one_shard));
    assert_eq!(classic.stats, one_shard.stats);
}

#[test]
fn sharded_pingpong_is_deterministic_and_correct() {
    let config = || ClusterConfig::new(3).with_directory_shards(3);
    let (first, v) = pingpong_workload(config());
    let (second, _) = pingpong_workload(config());
    assert_eq!(fingerprint(&first), fingerprint(&second));

    let data = v.snapshot(&first);
    for (i, value) in data.iter().enumerate() {
        assert_eq!(*value, i as u64 * 2, "element {i}");
    }
    for dir in &first.process().directories {
        dir.lock()
            .check_invariants()
            .expect("every shard quiesces consistent");
    }
}

#[test]
fn sharded_pingpong_takes_the_two_hop_path() {
    let (report, _) = pingpong_workload(ClusterConfig::new(3).with_directory_shards(3));
    let counters = &report.process().stats.counters;
    assert!(
        counters.get("protocol.forwards") >= 1,
        "pages homed off-owner must be granted via owner forwarding"
    );
    assert_eq!(
        counters.get("protocol.forwards"),
        counters.get("protocol.forwards_serviced"),
        "every forward the homes issued was serviced by an owner"
    );
    assert!(
        counters.get("protocol.invalidate_batches") >= 1,
        "revoking the read replicas must fan out as batches"
    );
    // The classic run never touches any of the forwarded machinery.
    let (classic, _) = pingpong_workload(ClusterConfig::new(3));
    let classic_counters = &classic.process().stats.counters;
    assert_eq!(classic_counters.get("protocol.forwards"), 0);
    assert_eq!(classic_counters.get("protocol.invalidate_batches"), 0);
}

#[test]
fn sharded_prefetch_grants_across_homes() {
    let cluster = Cluster::new(ClusterConfig::new(3).with_directory_shards(3));
    let report = cluster.run(|p| {
        let data = p.alloc_vec_aligned::<u64>(12 * 512, "stream");
        p.spawn(move |ctx| {
            for i in 0..data.len() {
                data.set(ctx, i, i as u64 + 5);
            }
            ctx.migrate(1).unwrap();
            ctx.prefetch(data.addr(), (data.len() * 8) as u64, dex_core::Access::Read);
            let mut buf = vec![0u64; 512];
            for page in 0..12 {
                data.read_slice(ctx, page * 512, &mut buf);
                assert_eq!(buf[0], (page * 512) as u64 + 5);
            }
        });
    });
    let counters = &report.process().stats.counters;
    // Pages homed on node 1 are excluded from the hint (the local fault
    // path serves them); the rest resolve exactly once.
    assert!(
        counters.get("prefetch.pages") >= 1,
        "remote-homed pages must be granted by the hint"
    );
    for dir in &report.process().directories {
        dir.lock().check_invariants().expect("shards consistent");
    }
}

#[test]
fn sharded_barrier_completes_with_its_words_updated() {
    // Regression: with the home's own replica elected as the data source
    // while another replica's batch ack was outstanding, the staged copy
    // was dropped and the grant shipped a zeroed page. The barrier's
    // count update was lost, both parties futex-waited forever, and the
    // run failed with `SimError::Deadlock`.
    for shards in [2, 4] {
        let cluster = Cluster::new(ClusterConfig::new(4).with_directory_shards(shards));
        let mut words = None;
        let report = cluster.run(|p| {
            let barrier = p.new_barrier(2, "barrier");
            words = Some(barrier.words());
            for node in 1..=2u16 {
                p.spawn(move |ctx| {
                    ctx.migrate(node).unwrap();
                    barrier.wait(ctx);
                });
            }
        });
        let (count, generation) = words.expect("allocated");
        let read = |addr| {
            let mut buf = [0u8; 4];
            report.process().read_coherent(addr, &mut buf);
            u32::from_le_bytes(buf)
        };
        assert_eq!(read(count), 0, "{shards} shards: count reset");
        assert_eq!(read(generation), 1, "{shards} shards: one generation");
    }
}

/// Six threads on nodes 1–3 read and write random pages of an 8-page
/// table (about one op in three is a write), with a barrier between
/// rounds. Each thread first prefetches the table. Under a sharded
/// directory a home's revocation often overtakes a grant still in flight
/// to the revoked node, which then defers it.
fn random_access_workload(config: ClusterConfig, seed: u64) -> RunReport {
    const THREADS: u64 = 6;
    const PAGES: u64 = 8;
    let mut rng = SimRng::new(seed);
    let streams: Vec<Vec<Vec<(bool, usize)>>> = (0..THREADS)
        .map(|t| {
            let mut rng = rng.fork(t);
            (0..6)
                .map(|_| {
                    (0..12)
                        .map(|_| (rng.gen_range(0..3) == 0, rng.gen_range(0..PAGES) as usize))
                        .collect()
                })
                .collect()
        })
        .collect();
    Cluster::new(config).run(|p| {
        let table = p.alloc_vec_aligned::<u64>(PAGES as usize * 512, "random_table");
        let barrier = p.new_barrier(THREADS as u32, "round");
        for (t, rounds) in streams.into_iter().enumerate() {
            p.spawn(move |ctx| {
                ctx.migrate(1 + t as u16 / 2).unwrap();
                ctx.prefetch(table.addr(), PAGES * 4096, Access::Read);
                for (r, ops) in rounds.iter().enumerate() {
                    for &(write, page) in ops {
                        if write {
                            table.set(ctx, page * 512, r as u64);
                        } else {
                            let _ = table.get(ctx, page * 512);
                        }
                    }
                    barrier.wait(ctx);
                }
            });
        }
    })
}

#[test]
fn deferred_revocations_are_traced_like_every_other() {
    for shards in [2, 4] {
        let config = ClusterConfig::new(4)
            .with_directory_shards(shards)
            .with_trace();
        let report = random_access_workload(config, 3);
        let counters = &report.process().stats.counters;
        assert!(
            counters.get("protocol.deferred_work") > 0,
            "{shards} shards: the workload must defer revocations"
        );
        let traced = report
            .trace
            .iter()
            .filter(|e| e.kind == FaultKind::Invalidate)
            .count() as u64;
        assert_eq!(
            traced, report.stats.invalidations,
            "{shards} shards: one trace event per counted invalidation"
        );
    }
}

#[test]
fn per_node_metrics_sum_to_the_process_counters() {
    let config = ClusterConfig::new(4)
        .with_directory_shards(2)
        .with_metrics();
    let report = random_access_workload(config, 3);
    let metrics = report.metrics.as_ref().expect("metrics on");
    let counters = &report.process().stats.counters;
    for &counter in Counter::ALL {
        let Some(node_key) = counter.node_key() else {
            continue;
        };
        let per_node: u64 = metrics
            .per_node
            .iter()
            .flatten()
            .filter(|(name, _)| name == node_key)
            .map(|(_, v)| v)
            .sum();
        assert_eq!(
            counters.get(counter.key()),
            per_node,
            "{} vs the sum of {node_key}",
            counter.key()
        );
    }
}

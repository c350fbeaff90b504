//! The four workloads, each built from a seed: inputs, sequential
//! reference results and cluster configurations are made in
//! [`Workload::setup`]; one op is one cluster run ([`Workload::run_op`]),
//! checked against the references before it counts as passed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dex_apps::{reference_checksum, run_app_with_config, AppParams, Variant, ALL_APPS};
use dex_core::{Cluster, ClusterConfig, DexStats, RunReport, Span, ThreadCtx};
use dex_sim::SimRng;

use crate::trace::Tracer;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["apps", "pingpong", "replicate", "replicate-sharded"];

/// The virtual-clock results of one cluster run. Deterministic: two runs
/// of the same op must produce equal values, traced or not.
#[derive(Clone, Debug, PartialEq)]
pub struct Virt {
    /// Virtual completion time.
    pub vtime_ns: u64,
    /// Protocol fault latencies, sorted.
    pub fault_ns: Vec<u64>,
    /// Forward migration latencies, sorted.
    pub fwd_ns: Vec<u64>,
    /// Forward migrations onto a node the process already had a worker
    /// on (Table II's repeat forward), sorted.
    pub repeat_fwd_ns: Vec<u64>,
    /// Backward migration latencies, sorted.
    pub back_ns: Vec<u64>,
    /// Protocol counters.
    pub stats: DexStats,
    /// Owner-forwarded grants (sharded directory only).
    pub forwards: u64,
    /// Batched invalidation messages (sharded directory only).
    pub invalidate_batches: u64,
    /// The op's verified output (checksum, counter or snapshot hash).
    pub output: u64,
}

impl Virt {
    fn from_report(report: &RunReport, output: u64) -> Self {
        let sorted = |mut v: Vec<u64>| {
            v.sort_unstable();
            v
        };
        let migrations = |keep: &dyn Fn(&dex_core::MigrationSample) -> bool| {
            sorted(
                report
                    .migrations
                    .iter()
                    .filter(|m| keep(m))
                    .map(|m| m.total.as_nanos())
                    .collect(),
            )
        };
        let counters = &report.process().stats.counters;
        Virt {
            vtime_ns: report.virtual_time.as_nanos(),
            fault_ns: sorted(report.fault_hist.samples()),
            fwd_ns: migrations(&|m| m.forward),
            repeat_fwd_ns: migrations(&|m| m.forward && !m.first_on_node),
            back_ns: migrations(&|m| !m.forward),
            stats: report.stats,
            forwards: counters.get("protocol.forwards"),
            invalidate_batches: counters.get("protocol.invalidate_batches"),
            output,
        }
    }
}

/// One completed, verified op.
pub struct OpResult {
    /// Which cluster run this was, e.g. `apps.GRP.1n` or `pingpong.3w`.
    pub label: String,
    /// Virtual-clock results.
    pub virt: Virt,
    /// Host wall seconds of the cluster run.
    pub host_s: f64,
    /// The program's own spans (traced runs only).
    pub spans: Vec<Span>,
    /// Engine events processed (traced runs only: counted from the
    /// recorded schedule, one step per accepted event).
    pub events: u64,
}

impl OpResult {
    /// A copy without the program spans, kept as the reference result.
    pub fn clone_virt(&self) -> OpResult {
        OpResult {
            label: self.label.clone(),
            virt: self.virt.clone(),
            host_s: self.host_s,
            spans: Vec::new(),
            events: self.events,
        }
    }
}

pub struct AppCase {
    app: &'static str,
    params: AppParams,
    reference: u64,
}

/// One pingpong phase: writers bounce one hot counter `rounds` times each.
pub struct Phase {
    nodes: usize,
    writers: Vec<u16>,
    /// Compute ops each writer spends before each increment, per round.
    think_ops: Vec<Vec<u64>>,
    rounds: u64,
}

/// Slots of the replicated table: 64 pages, 4 words used per page.
const PAGES: usize = 64;
const SLOTS_PER_PAGE: usize = 4;
const SLOTS: usize = PAGES * SLOTS_PER_PAGE;
const REPLICATE_THREADS: usize = 6;
const REPLICATE_ROUNDS: usize = 60;
const OPS_PER_ROUND: usize = 16;

fn slot_index(slot: usize) -> usize {
    (slot / SLOTS_PER_PAGE) * 512 + (slot % SLOTS_PER_PAGE) * 64
}

/// The read-mostly stream and its sequential oracle.
pub struct Replicate {
    shards: usize,
    /// `(is_write, slot)` per thread, per round.
    stream: Vec<Vec<Vec<(bool, usize)>>>,
    /// Value of each slot when round `r` starts (0 = never written).
    before: Vec<Vec<u64>>,
    /// Whether any thread writes the slot during round `r`.
    written: Vec<Vec<bool>>,
}

/// A workload with its seeded inputs and references.
pub enum Workload {
    /// Fig. 2 at two nodes: every app at 1 node and optimized at 2.
    Apps(Vec<AppCase>),
    /// §V-D: one hot counter bounced by 2, then 3 writers.
    PingPong(Vec<Phase>),
    /// Read-mostly replicated table with a barrier per round.
    Replicate(Replicate),
}

impl Workload {
    /// Builds the named workload's inputs and references from `seed`.
    pub fn setup(name: &str, seed: u64) -> Result<Workload, String> {
        Ok(match name {
            "apps" => Workload::Apps(
                ALL_APPS
                    .iter()
                    .flat_map(|&app| {
                        [(1, Variant::Baseline), (2, Variant::Optimized)].map(|(nodes, variant)| {
                            let mut params = AppParams::new(nodes, variant);
                            params.seed = seed;
                            let reference = reference_checksum(app, &params);
                            AppCase {
                                app,
                                params,
                                reference,
                            }
                        })
                    })
                    .collect(),
            ),
            "pingpong" => {
                let mut rng = SimRng::new(seed);
                // Two writers (origin + remote) on two nodes, then three
                // remote writers on four nodes, whose in-flight
                // transactions conflict and retry. The seed sets each
                // writer's think time before every increment; the
                // three-writer jitter is small, so its retry pattern (and
                // the host work it costs) varies little between seeds.
                let phase =
                    |rng: &mut SimRng, nodes, writers: Vec<u16>, rounds, base: u64, jitter: u64| {
                        let think_ops = writers
                            .iter()
                            .map(|_| {
                                (0..rounds)
                                    .map(|_| base + rng.gen_range(0..jitter))
                                    .collect()
                            })
                            .collect();
                        Phase {
                            nodes,
                            writers,
                            think_ops,
                            rounds,
                        }
                    };
                let two = phase(&mut rng, 2, vec![0, 1], 1_500, 1_000, 1_000);
                let three = phase(&mut rng, 4, vec![1, 2, 3], 1_200, 8_000, 500);
                Workload::PingPong(vec![two, three])
            }
            "replicate" | "replicate-sharded" => {
                let mut rng = SimRng::new(seed);
                let stream: Vec<Vec<Vec<(bool, usize)>>> = (0..REPLICATE_THREADS)
                    .map(|_| {
                        (0..REPLICATE_ROUNDS)
                            .map(|_| {
                                (0..OPS_PER_ROUND)
                                    .map(|_| {
                                        (rng.gen_bool(0.1), rng.gen_range(0..SLOTS as u64) as usize)
                                    })
                                    .collect()
                            })
                            .collect()
                    })
                    .collect();
                let mut before = Vec::with_capacity(REPLICATE_ROUNDS + 1);
                let mut written = Vec::with_capacity(REPLICATE_ROUNDS);
                let mut current = vec![0u64; SLOTS];
                for r in 0..REPLICATE_ROUNDS {
                    before.push(current.clone());
                    let mut w = vec![false; SLOTS];
                    for ops in &stream {
                        for &(is_write, slot) in &ops[r] {
                            if is_write {
                                w[slot] = true;
                                current[slot] = r as u64 + 1;
                            }
                        }
                    }
                    written.push(w);
                }
                before.push(current);
                Workload::Replicate(Replicate {
                    shards: if name == "replicate" { 1 } else { 4 },
                    stream,
                    before,
                    written,
                })
            }
            other => {
                return Err(format!(
                    "unknown workload {other:?} (expected one of {WORKLOADS:?})"
                ))
            }
        })
    }

    /// Cluster runs per repetition.
    pub fn ops(&self) -> usize {
        match self {
            Workload::Apps(cases) => cases.len(),
            Workload::PingPong(phases) => phases.len(),
            Workload::Replicate(_) => 1,
        }
    }

    /// Runs op `i` once. Any panic (deadlock, protocol violation,
    /// migration error) or wrong output is an `Err`. With the tracer on,
    /// the program's spans, metrics and schedule recording are on too and
    /// the benchmark's own calls are recorded as spans.
    pub fn run_op(&self, i: usize, tracer: &Tracer) -> Result<OpResult, String> {
        let traced = tracer.is_on();
        let instrument = |config: ClusterConfig| {
            if traced {
                config.with_spans().with_metrics().with_schedule_recording()
            } else {
                config
            }
        };
        let root = tracer.reserve();
        let h0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| match self {
            Workload::Apps(cases) => {
                let case = &cases[i];
                let result = run_app_with_config(
                    case.app,
                    &case.params,
                    instrument(case.params.cluster_config()),
                );
                let label = format!("apps.{}.{}n", case.app, case.params.nodes);
                if result.checksum != case.reference {
                    return Err(format!(
                        "{label}: checksum {:#x} != reference {:#x}",
                        result.checksum, case.reference
                    ));
                }
                Ok((label, result.checksum, result.report))
            }
            Workload::PingPong(phases) => run_pingpong(&phases[i], instrument, tracer, root),
            Workload::Replicate(rep) => run_replicate(rep, instrument, tracer, root),
        }));
        let h1 = Instant::now();
        let (label, output, report) = match outcome {
            Ok(result) => result?,
            Err(panic) => return Err(format!("op {i} panicked: {}", panic_message(&*panic))),
        };
        let virt = Virt::from_report(&report, output);
        tracer.record(root, 0, "cluster_run", (h0, h1), (0, virt.vtime_ns));
        let events = report.schedule.as_deref().map_or(0, |s| {
            s.lines()
                .filter(|l| !l.starts_with('#') && !l.is_empty())
                .count() as u64
        });
        Ok(OpResult {
            label,
            virt,
            host_s: (h1 - h0).as_secs_f64(),
            spans: report.spans.clone(),
            events,
        })
    }

    /// `(label, 1-node virtual ns, 2-node virtual ns)` per app, for the
    /// Fig. 2 speedup; empty for the other workloads.
    pub fn speedup_pairs(&self, results: &[OpResult]) -> Vec<(&'static str, u64, u64)> {
        match self {
            Workload::Apps(cases) => cases
                .chunks(2)
                .zip(results.chunks(2))
                .map(|(c, r)| (c[0].app, r[0].virt.vtime_ns, r[1].virt.vtime_ns))
                .collect(),
            _ => Vec::new(),
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

fn virt_now<'a>(ctx: &'a ThreadCtx<'_>) -> impl Fn() -> u64 + 'a {
    move || ctx.sim().now().as_nanos()
}

/// Migrates to `node` through the traced API (no-op for the origin).
fn migrate(ctx: &ThreadCtx<'_>, tracer: &Tracer, parent: u32, node: u16) {
    if node != 0 {
        tracer
            .time(
                "dex_core::ThreadCtx::migrate",
                parent,
                virt_now(ctx),
                || ctx.migrate(node),
            )
            .expect("migration target exists");
    }
}

fn migrate_back(ctx: &ThreadCtx<'_>, tracer: &Tracer, parent: u32) {
    if ctx.node() != ctx.origin() {
        tracer
            .time(
                "dex_core::ThreadCtx::migrate_back",
                parent,
                virt_now(ctx),
                || ctx.migrate_back(),
            )
            .expect("origin exists");
    }
}

type Run = (String, u64, RunReport);

fn run_pingpong(
    phase: &Phase,
    instrument: impl Fn(ClusterConfig) -> ClusterConfig,
    tracer: &Tracer,
    parent: u32,
) -> Result<Run, String> {
    let mut cell = None;
    let report = Cluster::new(instrument(ClusterConfig::new(phase.nodes))).run(|p| {
        let counter = p.alloc_cell_aligned::<u64>(0, "hot_word");
        cell = Some(counter);
        for (w, &node) in phase.writers.iter().enumerate() {
            let think = phase.think_ops[w].clone();
            let tracer = tracer.clone();
            p.spawn(move |ctx| {
                ctx.set_site("perfbench.pingpong");
                // A first forward, a backward and a repeat forward: the
                // repeat is Table II's second-migration row.
                migrate(ctx, &tracer, parent, node);
                migrate_back(ctx, &tracer, parent);
                migrate(ctx, &tracer, parent, node);
                for ops in think {
                    ctx.compute_ops(ops);
                    tracer.time("dex_core::DsmCell::rmw", parent, virt_now(ctx), || {
                        counter.rmw(ctx, |v| v + 1)
                    });
                }
                migrate_back(ctx, &tracer, parent);
            });
        }
    });
    let total = cell.expect("setup ran").snapshot(&report);
    let expected = phase.writers.len() as u64 * phase.rounds;
    let label = format!("pingpong.{}w", phase.writers.len());
    if total != expected {
        return Err(format!(
            "{label}: counter {total} != writers x rounds = {expected}"
        ));
    }
    Ok((label, total, report))
}

fn run_replicate(
    rep: &Replicate,
    instrument: impl Fn(ClusterConfig) -> ClusterConfig,
    tracer: &Tracer,
    parent: u32,
) -> Result<Run, String> {
    let config = instrument(ClusterConfig::new(4).with_directory_shards(rep.shards));
    let before = Arc::new(rep.before.clone());
    let written = Arc::new(rep.written.clone());
    let violations = Arc::new(AtomicU64::new(0));
    let first_violation = Arc::new(Mutex::new(None::<String>));
    let mut table = None;
    let report = Cluster::new(config).run(|p| {
        let v = p.alloc_vec_aligned::<u64>(PAGES * 512, "replicated_table");
        table = Some(v);
        let barrier = p.new_barrier(REPLICATE_THREADS as u32, "round");
        for (t, ops) in rep.stream.iter().enumerate() {
            let ops = ops.clone();
            let (before, written) = (Arc::clone(&before), Arc::clone(&written));
            let (violations, first_violation) = (Arc::clone(&violations), Arc::clone(&first_violation));
            let tracer = tracer.clone();
            let node = 1 + (t / 2) as u16;
            p.spawn(move |ctx| {
                ctx.set_site("perfbench.replicate");
                migrate(ctx, &tracer, parent, node);
                for (r, round) in ops.iter().enumerate() {
                    for &(is_write, slot) in round {
                        let i = slot_index(slot);
                        if is_write {
                            tracer.time("dex_core::DsmVec::set", parent, virt_now(ctx), || {
                                v.set(ctx, i, r as u64 + 1)
                            });
                            continue;
                        }
                        let got = tracer.time("dex_core::DsmVec::get", parent, virt_now(ctx), || v.get(ctx, i));
                        // A read sees the value from before the round, or
                        // this round's number if someone writes the slot
                        // during it.
                        let ok = got == before[r][slot] || (written[r][slot] && got == r as u64 + 1);
                        if !ok {
                            violations.fetch_add(1, Ordering::Relaxed);
                            first_violation
                                .lock()
                                .expect("violation lock poisoned")
                                .get_or_insert_with(|| {
                                    format!(
                                        "thread {t} round {r} slot {slot}: read {got}, expected {} or {}",
                                        before[r][slot],
                                        r + 1
                                    )
                                });
                        }
                    }
                    tracer.time("dex_core::DexBarrier::wait", parent, virt_now(ctx), || {
                        barrier.wait(ctx)
                    });
                }
                migrate_back(ctx, &tracer, parent);
            });
        }
    });
    let label = format!("replicate.{}shards", rep.shards);
    let bad = violations.load(Ordering::Relaxed);
    if bad > 0 {
        let first = first_violation
            .lock()
            .expect("violation lock poisoned")
            .clone();
        return Err(format!(
            "{label}: {bad} reads outside the write history, first: {}",
            first.unwrap_or_default()
        ));
    }
    let snapshot = table.expect("setup ran").snapshot(&report);
    let expected = &rep.before[REPLICATE_ROUNDS];
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (slot, want) in expected.iter().enumerate() {
        let got = snapshot[slot_index(slot)];
        if got != *want {
            return Err(format!("{label}: final slot {slot} = {got}, oracle {want}"));
        }
        hash = dex_apps::mix(hash, got);
    }
    Ok((label, hash, report))
}

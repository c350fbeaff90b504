//! Layer microprobes: each times calls into one crate's public functions
//! in isolation, outside any cluster run. They run in the traced run only.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dex_core::{DirAction, Directory, NodeId, Requester};
use dex_net::{Fabric, NetConfig, WireMessage};
use dex_os::{Access, RadixTree, Vpn};
use dex_sim::{Engine, SimDuration, SimRng};

use crate::stats::percentile;
use crate::trace::Tracer;

/// One probe's figures, as `(metric name, value, unit)` rows.
pub type Rows = Vec<(String, f64, &'static str)>;

const ADVANCES: usize = 4_000;
const SPAWNS: usize = 200;
const MESSAGES: u64 = 4_000;
const RADIX_KEYS: usize = 100_000;
const DIR_TXNS: u64 = 50_000;

/// Runs every probe, recording one span per probe in `tracer`.
pub fn run_all(tracer: &Tracer, seed: u64) -> Result<Rows, String> {
    let mut rows = Rows::new();
    let mut probe = |name: &'static str, f: &mut dyn FnMut(&mut Rows) -> Result<(), String>| {
        let id = tracer.reserve();
        let t0 = Instant::now();
        let out = f(&mut rows);
        tracer.record(id, 0, name, (t0, Instant::now()), (0, 0));
        out
    };
    probe("probe:dex_sim::SimCtx::advance", &mut |rows| {
        sim_advance(rows)
    })?;
    probe("probe:dex_sim::Engine::spawn", &mut |rows| sim_spawn(rows))?;
    probe("probe:dex_net::Endpoint::send+recv", &mut |rows| {
        net_sendrecv(rows)
    })?;
    probe("probe:dex_os::RadixTree", &mut |rows| os_radix(rows, seed))?;
    probe("probe:dex_core::Directory::request", &mut |rows| {
        dir_txn(rows)
    })?;
    Ok(rows)
}

/// One thread advancing by 1 ns at a time: every call is a full handoff
/// to the engine's driver and back.
fn sim_advance(rows: &mut Rows) -> Result<(), String> {
    let engine = Engine::new();
    let samples = Arc::new(Mutex::new(Vec::with_capacity(ADVANCES)));
    let out = Arc::clone(&samples);
    engine.spawn("advance-probe", move |ctx| {
        let mut local = Vec::with_capacity(ADVANCES);
        for _ in 0..ADVANCES {
            let t = Instant::now();
            ctx.advance(SimDuration::from_nanos(1));
            local.push(t.elapsed().as_nanos() as u64);
        }
        *out.lock().expect("probe lock poisoned") = local;
    });
    let end = engine.run().map_err(|e| format!("advance probe: {e}"))?;
    if end.as_nanos() != ADVANCES as u64 {
        return Err(format!(
            "advance probe ended at {} ns, expected {ADVANCES}",
            end.as_nanos()
        ));
    }
    let mut s = samples.lock().expect("probe lock poisoned").clone();
    s.sort_unstable();
    rows.push((
        "sim.advance.host_ns_p50".into(),
        percentile(&s, 50.0) as f64,
        "ns",
    ));
    rows.push((
        "sim.advance.host_ns_p99".into(),
        percentile(&s, 99.0) as f64,
        "ns",
    ));
    Ok(())
}

/// `Engine::spawn` of one thread, its first resume and its exit: the
/// host cost of a simulated thread's life cycle.
fn sim_spawn(rows: &mut Rows) -> Result<(), String> {
    let mut samples = Vec::with_capacity(SPAWNS);
    for _ in 0..SPAWNS {
        let engine = Engine::new();
        let t = Instant::now();
        engine.spawn("spawn-probe", |ctx| {
            black_box(ctx.id());
        });
        engine.run().map_err(|e| format!("spawn probe: {e}"))?;
        samples.push(t.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    rows.push((
        "sim.spawn.host_us".into(),
        percentile(&samples, 50.0) as f64 / 1e3,
        "us",
    ));
    Ok(())
}

struct Ping(u64);

impl WireMessage for Ping {
    fn control_bytes(&self) -> usize {
        16
    }
}

/// A standalone two-node fabric: one sender, one receiver. Reports host
/// nanoseconds per delivered message, handoffs included.
fn net_sendrecv(rows: &mut Rows) -> Result<(), String> {
    let engine = Engine::new();
    let fabric = Fabric::<Ping>::new(NetConfig::default(), 2);
    let (tx, rx) = (fabric.endpoint(NodeId(0)), fabric.endpoint(NodeId(1)));
    let sum = Arc::new(Mutex::new(0u64));
    let out = Arc::clone(&sum);
    engine.spawn("tx", move |ctx| {
        for i in 0..MESSAGES {
            tx.send(ctx, NodeId(1), Ping(i));
        }
    });
    engine.spawn("rx", move |ctx| {
        let mut total = 0;
        for _ in 0..MESSAGES {
            total += rx.recv(ctx).expect("fabric open").msg.0;
        }
        *out.lock().expect("probe lock poisoned") = total;
    });
    let t = Instant::now();
    engine.run().map_err(|e| format!("fabric probe: {e}"))?;
    let ns = t.elapsed().as_nanos() as f64 / MESSAGES as f64;
    let got = *sum.lock().expect("probe lock poisoned");
    if got != MESSAGES * (MESSAGES - 1) / 2 {
        return Err(format!(
            "fabric probe: received payload sum {got}, expected {}",
            MESSAGES * (MESSAGES - 1) / 2
        ));
    }
    rows.push(("net.sendrecv.host_ns".into(), ns, "ns"));
    Ok(())
}

/// Seeded sparse page numbers, inserted then looked up.
fn os_radix(rows: &mut Rows, seed: u64) -> Result<(), String> {
    let mut rng = SimRng::new(seed);
    let keys: Vec<u64> = (0..RADIX_KEYS).map(|_| rng.gen_range(0..1 << 36)).collect();
    let mut tree = RadixTree::new();
    let t = Instant::now();
    for (i, &k) in keys.iter().enumerate() {
        tree.insert(black_box(k), i);
    }
    let insert_ns = t.elapsed().as_nanos() as f64 / RADIX_KEYS as f64;
    let t = Instant::now();
    let mut found = 0usize;
    for &k in &keys {
        found += usize::from(black_box(tree.get(black_box(k))).is_some());
    }
    let get_ns = t.elapsed().as_nanos() as f64 / RADIX_KEYS as f64;
    if found != RADIX_KEYS {
        return Err(format!("radix probe: found {found} of {RADIX_KEYS} keys"));
    }
    rows.push(("os.radix.insert.host_ns".into(), insert_ns, "ns"));
    rows.push(("os.radix.get.host_ns".into(), get_ns, "ns"));
    Ok(())
}

/// Exclusive ownership of one page bounced between nodes 1 and 2 on the
/// classic directory: each transfer is a request, an invalidation of the
/// previous writer, its data-carrying ack and the grant.
fn dir_txn(rows: &mut Rows) -> Result<(), String> {
    let mut dir = Directory::new(NodeId(0));
    let vpn = Vpn::new(0x1000);
    let grant = |actions: &[DirAction], node: NodeId| {
        actions
            .iter()
            .any(|a| matches!(a, DirAction::Grant { to: Requester::Remote { node: n, .. }, .. } if *n == node))
    };
    // Take the page from the origin first (granted inline).
    let first = dir.request(
        vpn,
        Access::Write,
        Requester::Remote {
            node: NodeId(1),
            req_id: 0,
        },
    );
    if !grant(&first, NodeId(1)) {
        return Err(format!("directory probe: no inline grant, got {first:?}"));
    }
    let mut writer = NodeId(1);
    let t = Instant::now();
    for i in 1..=DIR_TXNS {
        let (from, to) = if i % 2 == 1 {
            (NodeId(1), NodeId(2))
        } else {
            (NodeId(2), NodeId(1))
        };
        let actions = dir.request(
            vpn,
            Access::Write,
            Requester::Remote {
                node: to,
                req_id: i,
            },
        );
        if !actions
            .iter()
            .any(|a| matches!(a, DirAction::SendInvalidate { to: n, .. } if *n == from))
        {
            return Err(format!(
                "directory probe: transfer {i} did not invalidate {from}: {actions:?}"
            ));
        }
        let done = dir.invalidate_ack(vpn, from, true);
        if !grant(&done, to) {
            return Err(format!(
                "directory probe: transfer {i} not granted to {to}: {done:?}"
            ));
        }
        writer = to;
    }
    let ns = t.elapsed().as_nanos() as f64 / DIR_TXNS as f64;
    if dir.current_writer(vpn) != Some(writer) {
        return Err(format!("directory probe: final writer is not {writer}"));
    }
    rows.push(("dir.txn.host_ns".into(), ns, "ns"));
    Ok(())
}

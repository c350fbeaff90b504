//! Two-clock benchmark of the DEX reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <apps|pingpong|replicate|replicate-sharded|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --spec   # prints BENCHMARK.json
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every kind of tracing
//! off: host wall and CPU time per repetition, peak memory, and the
//! virtual-clock results. `--trace 1` is the separate traced run: it
//! alternates untraced and traced repetitions (program spans, metrics and
//! schedule recording on, the benchmark's own calls recorded as spans),
//! runs the layer microprobes and reports the per-layer metrics. Every op
//! is verified; a wrong output, a panic, or virtual results that differ
//! between repetitions of the seed or between traced and untraced runs
//! count as failed ops, and the command then exits 1. The last line of
//! standard output is one JSON object. See NOTES.md.

mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::time::Instant;

use report::{Rows, END_TO_END, PER_LAYER};
use trace::Tracer;
use workloads::{OpResult, Workload, WORKLOADS};

/// `run_seconds` of the result contract.
const RUN_SECONDS: u64 = 40;
/// No new repetition starts once this much wall time has gone, so a run
/// ends well inside three minutes whatever `--seconds` says.
const MAX_RUN_S: f64 = 120.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--spec" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(Some(parsed))
}

/// What one workload run produced.
#[derive(Default)]
struct Outcome {
    rows: Rows,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }
}

/// Runs op `i` once and checks it. Its virtual results must equal bit
/// for bit those of the first passing run of the same op (`first`).
fn run_checked(
    wl: &Workload,
    i: usize,
    tracer: &Tracer,
    first: &mut [Option<OpResult>],
    out: &mut Outcome,
) -> Option<OpResult> {
    out.attempted += 1;
    match wl.run_op(i, tracer) {
        Ok(r) => {
            match &first[i] {
                Some(f) if f.virt != r.virt => {
                    out.fail(format!("{}: virtual results differ between runs", r.label));
                    return None;
                }
                Some(_) => {}
                None => first[i] = Some(r.clone_virt()),
            }
            Some(r)
        }
        Err(e) => {
            out.fail(e);
            None
        }
    }
}

/// One repetition: every op once.
fn repetition(
    wl: &Workload,
    tracer: &Tracer,
    first: &mut [Option<OpResult>],
    out: &mut Outcome,
) -> Vec<Option<OpResult>> {
    (0..wl.ops())
        .map(|i| run_checked(wl, i, tracer, first, out))
        .collect()
}

/// One setup: inputs, references and configs from the seed, then one
/// warm-up run of the first op (checked like any other), so thread
/// stacks, allocator arenas and lazy state are in place before timing.
/// Returns the workload and the setup's seconds.
fn setup(
    name: &str,
    seed: u64,
    first: &mut Vec<Option<OpResult>>,
    out: &mut Outcome,
) -> Result<(Workload, f64), String> {
    let t = Instant::now();
    let wl = Workload::setup(name, seed)?;
    first.resize_with(wl.ops(), || None);
    run_checked(&wl, 0, &Tracer::off(), first, out);
    Ok((wl, t.elapsed().as_secs_f64()))
}

/// Whether the run may start another repetition.
fn keep_going(start: Instant, reps: usize, min_reps: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    let per_rep = elapsed / reps.max(1) as f64;
    reps < min_reps || (elapsed < seconds && elapsed + per_rep < MAX_RUN_S)
}

/// `--trace 0`: end-to-end metrics, tracing off.
fn measure(name: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // One setup before the first repetition and one after each, so the
    // setup median samples the machine over the whole run, as the
    // repetitions do.
    let mut first = Vec::new();
    let (wl, secs) = setup(name, seed, &mut first, &mut out)?;
    let mut setups = vec![secs];
    let off = Tracer::off();
    let (mut wall, mut cpu) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while keep_going(start, wall.len(), 2, seconds) {
        let (t, c) = (Instant::now(), stats::cpu_seconds()?);
        repetition(&wl, &off, &mut first, &mut out);
        cpu.push(stats::cpu_seconds()? - c);
        wall.push(t.elapsed().as_secs_f64());
        setups.push(setup(name, seed, &mut first, &mut out)?.1);
    }
    let note = format!("median of {} setups", setups.len());
    out.rows.push("setup_s", stats::median(&setups), "s", note);
    let note = format!("median of {} repetitions", wall.len());
    out.rows
        .push("host_run_s", stats::median(&wall), "s", note.clone());
    out.rows.push("host_cpu_s", stats::median(&cpu), "s", note);
    out.rows
        .push("host_peak_rss_mb", stats::peak_rss_mb()?, "MB", "VmHWM");
    let passed: Vec<OpResult> = first.into_iter().flatten().collect();
    if passed.len() == wl.ops() {
        report::virtual_rows(&wl, name, &passed, &mut out.rows);
    }
    out.rows.push(
        "error_rate",
        out.failed as f64 / out.attempted as f64,
        "ratio",
        format!("{} of {} ops failed", out.failed, out.attempted),
    );
    Ok(out)
}

/// `--trace 1`: alternating untraced and traced repetitions, the layer
/// probes, and the per-layer metrics; spans are written at the end.
fn traced(name: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let wl = Workload::setup(name, seed)?;
    let (off, on) = (Tracer::off(), Tracer::on());
    let mut first: Vec<Option<OpResult>> = (0..wl.ops()).map(|_| None).collect();
    let mut traced_first: Vec<Option<OpResult>> = (0..wl.ops()).map(|_| None).collect();
    let (mut plain_wall, mut traced_wall) = (Vec::new(), Vec::new());
    let mut op_host: Vec<Vec<f64>> = vec![Vec::new(); wl.ops()];
    let start = Instant::now();
    while keep_going(start, plain_wall.len(), 1, seconds) {
        let t = Instant::now();
        for (i, r) in repetition(&wl, &off, &mut first, &mut out)
            .iter()
            .enumerate()
        {
            if let Some(r) = r {
                op_host[i].push(r.host_s);
            }
        }
        plain_wall.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        // Traced results go through the same bit-identity check against
        // the untraced ones.
        for (i, r) in repetition(&wl, &on, &mut first, &mut out)
            .into_iter()
            .enumerate()
        {
            if let (Some(r), None) = (r, &traced_first[i]) {
                traced_first[i] = Some(r);
            }
        }
        traced_wall.push(t.elapsed().as_secs_f64());
    }

    let results: Vec<OpResult> = traced_first.into_iter().flatten().collect();
    if results.len() == wl.ops() {
        report::layer_rows(&results, &on.spans(), &mut out.rows);
        let events = out.rows.get("sim.events").map_or(0.0, |r| r.value);
        let plain = stats::median(&plain_wall);
        out.rows.push(
            "sim.host_ns_per_event",
            plain * 1e9 / events.max(1.0),
            "ns",
            "untraced repetition wall / events",
        );
        for (r, host) in results.iter().zip(&op_host) {
            if r.label.starts_with("apps.") {
                out.rows.push(
                    format!("{}.host_s", r.label),
                    stats::median(host),
                    "s",
                    "untraced",
                );
                let virt_ms = r.virt.vtime_ns as f64 / 1e6;
                out.rows
                    .push(format!("{}.virt_ms", r.label), virt_ms, "ms", "");
            }
        }
        let overhead = 100.0 * (stats::median(&traced_wall) - plain) / plain;
        out.rows.push(
            "trace.overhead_pct",
            overhead,
            "%",
            format!("traced vs untraced host_run_s, {} pairs", plain_wall.len()),
        );
    }
    out.attempted += 1;
    match probes::run_all(&on, seed) {
        Ok(rows) => {
            for (name, value, unit) in rows {
                out.rows.push(name, value, unit, "probe");
            }
        }
        Err(e) => out.fail(e),
    }

    let dir = std::path::Path::new("perfbench/out");
    let write = |file: String, text: String| {
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join(&file), text))
            .map_err(|e| format!("write {}: {e}", dir.join(&file).display()))
    };
    write(
        format!("bench-spans-{name}.tsv"),
        trace::encode(&on.spans()),
    )?;
    let program: Vec<dex_core::Span> = results
        .iter()
        .flat_map(|r| r.spans.iter().cloned())
        .collect();
    write(
        format!("program-spans-{name}.txt"),
        dex_prof::encode_spans(&program),
    )?;
    Ok(out)
}

fn run(args: &Args) -> Result<bool, String> {
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else if WORKLOADS.contains(&args.workload.as_str()) {
        vec![args.workload.as_str()]
    } else {
        return Err(format!(
            "unknown workload {:?} (expected one of {WORKLOADS:?} or all)",
            args.workload
        ));
    };
    let contract: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut all_rows = Rows::default();
    for name in &names {
        let out = if args.trace {
            traced(name, args.seed, args.seconds)?
        } else {
            measure(name, args.seed, args.seconds)?
        };
        let mode = if args.trace { "traced" } else { "untraced" };
        println!(
            "{}",
            report::render(&format!("{name} seed {} ({mode})", args.seed), &out.rows)
        );
        for e in &out.errors {
            println!("  FAILED: {e}");
        }
        attempted += out.attempted;
        failed += out.failed;
        for r in out.rows.0 {
            let prefix = if names.len() > 1 {
                format!("{name}.")
            } else {
                String::new()
            };
            all_rows.push(format!("{prefix}{}", r.name), r.value, r.unit, r.note);
        }
    }
    let keys: Vec<String> = if names.len() > 1 {
        names
            .iter()
            .flat_map(|w| contract.iter().map(move |m| format!("{w}.{m}")))
            .collect()
    } else {
        contract.iter().map(|m| m.to_string()).collect()
    };
    let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
    let correct = failed == 0;
    let json = match report::result_json(correct, attempted, failed, &all_rows, &keys) {
        Ok(json) => json,
        // A failed workload may lack some figures; report the rest.
        Err(e) if !correct => {
            eprintln!("perfbench: {e}");
            let measured: Vec<&str> = keys
                .iter()
                .copied()
                .filter(|k| all_rows.get(k).is_some())
                .collect();
            report::result_json(correct, attempted, failed, &all_rows, &measured)?
        }
        Err(e) => return Err(e),
    };
    println!("{json}");
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", report::spec(RUN_SECONDS));
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Simulated threads that panic are caught and counted; keep their
    // messages short on stderr.
    std::panic::set_hook(Box::new(|info| eprintln!("perfbench: panic: {info}")));
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

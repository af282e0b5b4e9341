//! `simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload and prints, as the last line of standard
//! output, one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` they are the per-layer split of a traced round. The
//! line before it carries the run's detail: every set-up and round time
//! with its CPU, run-queue wait and per-thread CPU. `--bless` (seed 0
//! only) rewrites the workload's expected fingerprints instead.

use rfnoc_bench::artifact::json_str;
use rfnoc_simbench::check::{parse_expected, render_expected, DEFAULT_SEED};
use rfnoc_simbench::host::{
    calibration_ms, host_steal_s, peak_rss_mb, process_cpu_s, ThreadLedger,
};
use rfnoc_simbench::workloads::design_space::DesignSpace;
use rfnoc_simbench::workloads::paper_sweep::PaperSweep;
use rfnoc_simbench::workloads::saturated_mesh64::SaturatedMesh64;
use rfnoc_simbench::workloads::{Bench, OpOutcome, RoundOutput};
use rfnoc_simbench::{median, quantile};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: simbench --workload <paper_sweep|saturated_mesh64|design_space> \
                     --seed <n> --seconds <s> --trace <0|1> [--bless]";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// How often the orchestrating thread samples per-thread counters.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// Failures listed individually on standard error.
const SHOWN_FAILURES: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut bless) =
        (None, DEFAULT_SEED, None, false, false);
    let mut i = 0;
    while i < argv.len() {
        let value = || {
            argv.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            "--bless" => {
                bless = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if bless && seed != DEFAULT_SEED {
        return Err(format!("--bless needs --seed {DEFAULT_SEED}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds.unwrap_or(30.0),
        trace,
        bless,
    })
}

/// One measured round.
struct Measured {
    out: RoundOutput,
    traced: bool,
    wall_s: f64,
    cpu_s: f64,
    threads: ThreadLedger,
    /// Hypervisor steal over the round, seconds.
    steal_s: f64,
    /// Host-speed witness before and after the round.
    calibration_ms: [f64; 2],
}

/// Runs one round on a worker thread while this thread samples the
/// per-thread counters.
fn measure<B: Bench>(bench: &B, prepared: B::Prepared, traced: bool) -> Measured {
    let calibration_before = calibration_ms();
    let steal0 = host_steal_s();
    let mut threads = ThreadLedger::start();
    let joined = std::thread::scope(|s| {
        let h = s.spawn(move || {
            let (cpu0, t0) = (process_cpu_s(), Instant::now());
            let out = bench.round(prepared, traced);
            (out, t0.elapsed().as_secs_f64(), process_cpu_s() - cpu0)
        });
        while !h.is_finished() {
            threads.sample();
            std::thread::sleep(SAMPLE_EVERY);
        }
        h.join()
    });
    threads.sample();
    let steal_s = host_steal_s() - steal0;
    let calibration_ms = [calibration_before, calibration_ms()];
    let (out, wall_s, cpu_s) = joined.unwrap_or_else(|_| {
        let failed = OpOutcome::new("round", Duration::ZERO, Err("the round panicked".into()));
        let out = RoundOutput {
            ops: vec![failed],
            ..RoundOutput::default()
        };
        (out, 0.0, 0.0)
    });
    Measured {
        out,
        traced,
        wall_s,
        cpu_s,
        threads,
        steal_s,
        calibration_ms,
    }
}

fn expected_text(workload: &str) -> &'static str {
    match workload {
        "paper_sweep" => include_str!("../expected/paper_sweep.tsv"),
        "saturated_mesh64" => include_str!("../expected/saturated_mesh64.tsv"),
        "design_space" => include_str!("../expected/design_space.tsv"),
        _ => "",
    }
}

/// A JSON number: shortest round-trip form, 0 for non-finite values.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn run<B: Bench>(bench: &B, args: &Args) -> i32 {
    let name = args.workload.as_str();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let p = bench.setup(false);
        setup_s.push(t0.elapsed().as_secs_f64());
        prepared = Some(p);
    }

    // Whole rounds back to back while the next one still fits in the
    // time budget; always at least one. A traced run measures exactly
    // one untraced and one traced round.
    let phase = Instant::now();
    let mut rounds: Vec<Measured> = Vec::new();
    loop {
        let p = prepared.take().unwrap_or_else(|| {
            let t0 = Instant::now();
            let p = bench.setup(false);
            setup_s.push(t0.elapsed().as_secs_f64());
            p
        });
        let m = measure(bench, p, false);
        let last = m.wall_s;
        rounds.push(m);
        if args.trace || args.bless || phase.elapsed().as_secs_f64() + last > args.seconds {
            break;
        }
    }
    let mut traced_setup_s = 0.0;
    if args.trace {
        let t0 = Instant::now();
        let p = bench.setup(true);
        traced_setup_s = t0.elapsed().as_secs_f64();
        rounds.push(measure(bench, p, true));
    }

    if args.bless {
        return bless(name, &rounds[0].out);
    }

    // Output checks: committed fingerprints at the default seed, and the
    // same outputs from every round (timed and traced) on any seed.
    let expected = (args.seed == DEFAULT_SEED).then(|| parse_expected(expected_text(name)));
    let mut reference: HashMap<&str, u64> = HashMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures: Vec<String> = Vec::new();
    for m in &rounds {
        for op in &m.out.ops {
            attempted += 1;
            let error = op.error.clone().or_else(|| {
                let fp = op.fingerprint?;
                if let Some(exp) = &expected {
                    match exp.get(&op.key) {
                        None => return Some("no expected fingerprint".into()),
                        Some(&e) if e != fp => {
                            return Some(format!("fingerprint {fp:016x}, expected {e:016x}"))
                        }
                        _ => {}
                    }
                }
                match *reference.entry(op.key.as_str()).or_insert(fp) {
                    r if r != fp => Some(format!(
                        "fingerprint {fp:016x} differs from {r:016x} of an earlier round"
                    )),
                    _ => None,
                }
            });
            if let Some(e) = error {
                failed += 1;
                failures.push(format!(
                    "{} {}: {e}",
                    if m.traced { "traced" } else { "timed" },
                    op.key
                ));
            }
        }
    }
    for f in failures.iter().take(SHOWN_FAILURES) {
        eprintln!("simbench: {name}: op failed: {f}");
    }
    if failures.len() > SHOWN_FAILURES {
        eprintln!(
            "simbench: {name}: ... {} more failures",
            failures.len() - SHOWN_FAILURES
        );
    }

    println!("{}", detail(args, &setup_s, &rounds, failed));

    let timed_rounds: Vec<&Measured> = rounds.iter().filter(|m| !m.traced).collect();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if let Some(t) = rounds.iter().find(|m| m.traced) {
        let lt = &t.out.layers;
        let per = |a: f64, b: u64| if b > 0 { a / b as f64 } else { 0.0 };
        let denom = (t.wall_s + traced_setup_s) * t.out.op_threads.max(1) as f64;
        metrics.extend([
            ("sim.engine_s", lt.sim_engine_s, "s"),
            (
                "sim.ns_per_grant",
                per(lt.sim_engine_s * 1e9, lt.sim_flit_grants),
                "ns",
            ),
            (
                "sim.ns_per_visit",
                per(lt.sim_engine_s * 1e9, lt.sim_router_visits),
                "ns",
            ),
            (
                "sim.grants_per_visit",
                per(lt.sim_flit_grants as f64, lt.sim_router_visits),
                "ratio",
            ),
            ("sim.cycles", lt.sim_cycles as f64, "count"),
            ("sim.flit_grants", lt.sim_flit_grants as f64, "count"),
            ("sim.router_visits", lt.sim_router_visits as f64, "count"),
            ("sim.build_s", lt.sim_build_s, "s"),
            (
                "parallel.barrier_wait_frac",
                lt.barrier_wait_frac(),
                "ratio",
            ),
            ("parallel.shard_imbalance", lt.shard_imbalance(), "ratio"),
            ("parallel.worker_cpu_s", t.threads.worker_cpu_s(), "s"),
            ("topology.select_s", lt.topology_select_s, "s"),
            ("topology.shortcuts", lt.topology_shortcuts as f64, "count"),
            ("core.build_s", lt.core_build_s, "s"),
            ("traffic.gen_s", lt.traffic_gen_s, "s"),
            ("traffic.messages", lt.traffic_messages as f64, "count"),
            ("traffic.profile_s", lt.traffic_profile_s, "s"),
            ("power.model_s", lt.power_model_s, "s"),
            ("bench.render_s", lt.bench_render_s, "s"),
            ("bench.unique_points", t.out.unique_points as f64, "count"),
            ("host.runqueue_wait_s", t.threads.runqueue_wait_s(), "s"),
            (
                "trace.overhead_frac",
                t.wall_s / timed_rounds[0].wall_s.max(1e-12),
                "ratio",
            ),
            (
                "trace.coverage_frac",
                lt.self_time_s() / denom.max(1e-12),
                "ratio",
            ),
        ]);
    } else {
        let ops_ms: Vec<f64> = timed_rounds
            .iter()
            .flat_map(|m| m.out.ops.iter())
            .filter(|o| o.error.is_none())
            .map(|o| o.wall_ms)
            .collect();
        let cycles: u64 = timed_rounds.iter().map(|m| m.out.cycles).sum();
        let cpu: f64 = timed_rounds.iter().map(|m| m.cpu_s).sum();
        let walls: Vec<f64> = timed_rounds.iter().map(|m| m.wall_s).collect();
        let cpus: Vec<f64> = timed_rounds.iter().map(|m| m.cpu_s).collect();
        metrics.extend([
            ("setup_s", median(&setup_s), "s"),
            ("wall_s", median(&walls), "s"),
            ("cpu_s", median(&cpus), "s"),
            (
                "sim_kcycles_per_cpu_s",
                cycles as f64 / cpu.max(1e-9) / 1e3,
                "kcycles/s",
            ),
            ("op_p50_ms", quantile(&ops_ms, 0.5), "ms"),
            ("op_p90_ms", quantile(&ops_ms, 0.9), "ms"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            (
                "ok_frac",
                1.0 - failed as f64 / attempted.max(1) as f64,
                "ratio",
            ),
        ]);
    }
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && attempted > 0
    );
    for (i, (k, v, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(k),
            num(*v),
            json_str(unit)
        );
    }
    line.push_str("}}");
    println!("{line}");
    0
}

/// The detail line: set-up samples and, per round, wall, CPU, run-queue
/// wait, hypervisor steal, the host-speed calibration and per-thread CPU
/// — the noise witnesses next to every wall time.
fn detail(args: &Args, setup_s: &[f64], rounds: &[Measured], failed: u64) -> String {
    let mut out = format!(
        "{{\"detail\": {}, \"seed\": {}, \"seconds\": {}, \"failed\": {failed}, \"setup_s\": [",
        json_str(&args.workload),
        args.seed,
        num(args.seconds)
    );
    let samples: Vec<String> = setup_s.iter().map(|s| num(*s)).collect();
    out.push_str(&samples.join(", "));
    out.push_str("], \"rounds\": [");
    for (i, m) in rounds.iter().enumerate() {
        let threads: Vec<String> = m
            .threads
            .threads()
            .iter()
            .map(|(n, c, w)| {
                format!(
                    "{{\"name\": {}, \"cpu_s\": {}, \"wait_s\": {}}}",
                    json_str(n),
                    num(*c),
                    num(*w)
                )
            })
            .collect();
        let _ = write!(
            out,
            "{}{{\"traced\": {}, \"ops\": {}, \"wall_s\": {}, \"cpu_s\": {}, \
             \"runqueue_wait_s\": {}, \"steal_s\": {}, \"calibration_ms\": [{}, {}], \
             \"threads\": [{}]}}",
            if i == 0 { "" } else { ", " },
            m.traced,
            m.out.ops.len(),
            num(m.wall_s),
            num(m.cpu_s),
            num(m.threads.runqueue_wait_s()),
            num(m.steal_s),
            num(m.calibration_ms[0]),
            num(m.calibration_ms[1]),
            threads.join(", ")
        );
    }
    out.push_str("]}");
    out
}

/// Rewrites the workload's expected fingerprints from a clean round.
fn bless(name: &str, out: &RoundOutput) -> i32 {
    let mut entries: Vec<(String, u64)> = Vec::new();
    for op in &out.ops {
        match (&op.error, op.fingerprint) {
            (None, Some(fp)) => {
                if !entries.iter().any(|(k, _)| *k == op.key) {
                    entries.push((op.key.clone(), fp));
                }
            }
            (error, _) => {
                eprintln!(
                    "simbench: not blessing {name}: op {} failed: {error:?}",
                    op.key
                );
                return 1;
            }
        }
    }
    let path = format!("{}/expected/{name}.tsv", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, render_expected(name, &entries)) {
        Ok(()) => {
            eprintln!("simbench: wrote {} fingerprints to {path}", entries.len());
            0
        }
        Err(e) => {
            eprintln!("simbench: cannot write {path}: {e}");
            1
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Leave the checkout as it was: no trend-store ingest, and no child
    // processes (the artifact renderer's `git describe` provenance stamp
    // finds no `git` and reads "unknown").
    std::env::set_var("RFNOC_HISTORY", "off");
    std::env::set_var("PATH", "simbench/.no-path");
    let code = match args.workload.as_str() {
        "paper_sweep" => run(&PaperSweep { seed: args.seed }, &args),
        "saturated_mesh64" => run(&SaturatedMesh64 { seed: args.seed }, &args),
        "design_space" => run(&DesignSpace { seed: args.seed }, &args),
        other => {
            eprintln!("simbench: unknown workload {other:?}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

//! End-to-end tests of the run ledger through the bench runner: a plan
//! executed with `--ledger` must write a JSONL file whose every line
//! parses, whose point lifecycle is balanced, and whose engine heartbeat
//! and shard records ride the same timeline — and the instrumented run's
//! statistics must be bit-identical to an uninstrumented one.

use rfnoc::json::Json;
use rfnoc::ledger::LedgerSummary;
use std::collections::BTreeSet;
use rfnoc::{Architecture, WorkloadSpec};
use rfnoc_bench::plan::{labeled, Design, Plan, SweepSpec};
use rfnoc_bench::runner::{run_plan, RunnerConfig};
use rfnoc_power::LinkWidth;
use rfnoc_sim::SimConfig;
use rfnoc_traffic::TraceKind;

fn small_plan() -> Plan {
    let mut sim = SimConfig::paper_baseline();
    sim.warmup_cycles = 200;
    sim.measure_cycles = 1_500;
    sim.drain_cycles = 500;
    SweepSpec::new("ledger_e2e")
        .designs(vec![
            Design::new("base", Architecture::Baseline, LinkWidth::B4),
            Design::new("static", Architecture::StaticShortcuts, LinkWidth::B4),
        ])
        .workloads(vec![
            labeled("Uniform", WorkloadSpec::Trace(TraceKind::Uniform)),
            labeled("1Hotspot", WorkloadSpec::Trace(TraceKind::Hotspot1)),
        ])
        .sims(vec![labeled("short", sim)])
        .expand()
}

fn temp_ledger(name: &str) -> String {
    let dir = std::env::temp_dir().join("rfnoc_ledger_e2e");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{name}.jsonl")).to_str().unwrap().to_string()
}

/// The written ledger parses line-by-line, the lifecycle is balanced
/// (every unique point queued, started, and finished; plan bracketed by
/// `plan_start`/`plan_finish`), engine heartbeats are present and
/// well-formed per point, and — at `sim_threads > 1` — shard records
/// appear. [`LedgerSummary`] is the same reader `rfnoc-cli tail` and
/// `ledger-summary` use, so this is the full schema round-trip.
#[test]
fn runner_ledger_schema_roundtrip() {
    let path = temp_ledger("roundtrip");
    let plan = small_plan();
    let cfg = RunnerConfig {
        jobs: 2,
        sim_threads: 2,
        quiet: true,
        ledger: Some(path.clone()),
        ..RunnerConfig::default()
    };
    let results = run_plan(&plan, &cfg);
    assert_eq!(results.results.len(), plan.len());

    let summary = LedgerSummary::from_file(&path).expect("ledger parses");
    assert!(summary.problems.is_empty(), "schema problems: {:?}", summary.problems);
    let unique = results.unique_runs as f64;
    assert_eq!(summary.points_planned, Some(unique));
    assert_eq!(summary.points_queued, results.unique_runs);
    assert_eq!(summary.points_started, results.unique_runs);
    assert_eq!(summary.points_finished, results.unique_runs);
    assert_eq!(summary.point_wall_ms.len(), results.unique_runs);
    assert!(summary.plan_wall_ms.is_some(), "plan_finish must close the stream");
    assert!(summary.heartbeats >= results.unique_runs, "each run heartbeats at least once");
    assert!(summary.kcps_mean() > 0.0);
    assert!(summary.point_wall_ms.iter().all(|&w| w > 0.0), "{:?}", summary.point_wall_ms);
    // Every engine shard streams sweep records.
    let shard_ids: Vec<u64> = summary.shards.keys().copied().collect();
    assert_eq!(shard_ids, (0..cfg.sim_threads as u64).collect::<Vec<_>>());
    assert!(summary.shards.values().map(|t| t.swept_routers).sum::<f64>() > 0.0);
    assert!(summary.shard_imbalance().is_some());
    assert!(summary.barrier_wait_frac().is_some());

    // The raw stream: `plan_start` records the runner's flags, and every
    // unique point's engine heartbeats ride the stream tagged with it.
    let text = std::fs::read_to_string(&path).expect("ledger file");
    let records: Vec<Json> = text.lines().map(|l| rfnoc::json::parse(l).expect("line")).collect();
    let kind = |r: &Json| r.get("kind").and_then(Json::as_str).unwrap_or("").to_string();
    assert_eq!(kind(&records[0]), "plan_start");
    assert_eq!(kind(records.last().unwrap()), "plan_finish");
    let num = |r: &Json, k: &str| r.get(k).and_then(Json::as_f64);
    assert_eq!(num(&records[0], "sim_threads"), Some(cfg.sim_threads as f64));
    assert_eq!(num(&records[0], "jobs"), Some(results.jobs as f64), "effective jobs");
    let beating: BTreeSet<&str> = records
        .iter()
        .filter(|r| kind(r) == "heartbeat")
        .filter_map(|r| r.get("point").and_then(Json::as_str))
        .collect();
    assert_eq!(beating.len(), results.unique_runs, "heartbeat streams per unique point");
    let _ = std::fs::remove_file(&path);
}

/// Runner-level inertness: running the same plan with and without the
/// ledger produces bit-identical statistics for every point (the ledger
/// report itself aside), serial and sharded.
#[test]
fn ledger_does_not_change_runner_results() {
    let plan = small_plan();
    for sim_threads in [1usize, 2] {
        let plain = run_plan(
            &plan,
            &RunnerConfig { jobs: 2, sim_threads, quiet: true, ..RunnerConfig::default() },
        );
        let path = temp_ledger(&format!("inert_t{sim_threads}"));
        let ledgered = run_plan(
            &plan,
            &RunnerConfig {
                jobs: 2,
                sim_threads,
                quiet: true,
                ledger: Some(path.clone()),
                ..RunnerConfig::default()
            },
        );
        for (a, b) in plain.iter().zip(ledgered.iter()) {
            assert_eq!(a.point.id, b.point.id);
            let mut sa = a.report.stats.clone();
            let mut sb = b.report.stats.clone();
            assert!(sb.ledger.is_some(), "{}: ledgered run carries a report", b.point.id);
            sa.ledger = None;
            sb.ledger = None;
            assert_eq!(sa, sb, "ledger perturbed {} at {sim_threads} sim threads", a.point.id);
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// `--quiet` plus `--ledger`: the quiet flag silences stderr only — the
/// ledger file must still be written in full.
#[test]
fn quiet_still_writes_the_ledger() {
    let path = temp_ledger("quiet");
    let plan = small_plan();
    let cfg = RunnerConfig {
        jobs: 1,
        quiet: true,
        ledger: Some(path.clone()),
        ..RunnerConfig::default()
    };
    let _ = run_plan(&plan, &cfg);
    let summary = LedgerSummary::from_file(&path).expect("ledger parses");
    assert!(summary.records > 0, "quiet must not suppress the ledger file");
    assert!(summary.plan_wall_ms.is_some());
    let _ = std::fs::remove_file(&path);
}

/// Blocking HTTP GET against the observatory server; returns the body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    write!(s, "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read response");
    let (head, body) = buf.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    body.to_string()
}

/// Full observatory e2e: a plan run with `--obs-port 0` serves
/// `/healthz`, a `/metrics` exposition carrying the headline series, and
/// an `/events` SSE replay whose data frames are exactly the records in
/// the ledger file — file and socket tee from one sink.
#[test]
fn obs_endpoints_mirror_the_ledger_file() {
    let path = temp_ledger("obs_e2e");
    let plan = small_plan();
    let cfg = RunnerConfig {
        jobs: 2,
        sim_threads: 2,
        quiet: true,
        ledger: Some(path.clone()),
        obs_port: Some(0),
    };
    let sink = rfnoc_bench::ledger::LedgerSink::from_config(&cfg);
    let addr = sink.obs_addr().expect("obs server bound");
    let results = rfnoc_bench::runner::run_plan_with(&plan, &cfg, &sink);
    assert_eq!(results.results.len(), plan.len());

    assert_eq!(http_get(addr, "/healthz"), "ok\n");
    let metrics = http_get(addr, "/metrics");
    for series in [
        "rfnoc_kcycles_per_sec",
        "rfnoc_in_flight",
        "rfnoc_shard_imbalance",
        "rfnoc_points_finished",
        "rfnoc_ledger_records",
    ] {
        assert!(metrics.contains(series), "missing {series} in:\n{metrics}");
    }
    let problems = rfnoc::obs::exposition_problems(&metrics);
    assert!(problems.is_empty(), "{problems:?} in:\n{metrics}");

    // The SSE replay starts from record zero, so attaching after the run
    // still yields the full stream; dropping the sink closes the hub and
    // terminates the stream with an `event: end`.
    let events = std::thread::spawn(move || http_get(addr, "/events"));
    drop(sink);
    let sse = events.join().expect("events reader");
    assert!(sse.contains("event: end"), "stream must terminate:\n{sse}");
    let streamed: Vec<&str> = sse
        .lines()
        .filter_map(|l| l.strip_prefix("data: "))
        .filter(|l| l.starts_with('{'))
        .collect();
    let file = std::fs::read_to_string(&path).expect("ledger file");
    let on_disk: Vec<&str> = file.lines().collect();
    assert_eq!(streamed, on_disk, "socket and file must see the same records");
    let _ = std::fs::remove_file(&path);
}

//! Structured result artifacts: machine-readable JSON (with provenance)
//! and CSV written alongside the printed tables.
//!
//! Every plan-based bench binary writes `results/json/<name>.json`
//! describing the plan, per-point summaries (latency, tail percentiles,
//! power, area, normalisation, wall time), and run provenance (git
//! describe, timestamp, thread count) — so regenerated figures carry
//! their own methodology. JSON is hand-rolled; the container has no
//! serde and the schema is flat.

use crate::runner::PlanResults;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// The workspace's JSON writer helpers, re-exported for the bench
/// emitters and for harnesses that depend only on this crate.
pub use rfnoc::json::{json_f64, json_str};

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// when git is unavailable — the provenance stamp of every artifact.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Renders the full JSON artifact for one named plan's results.
pub fn render_json(name: &str, results: &PlanResults) -> String {
    let unix = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"name\": {},", json_str(name));
    let _ = writeln!(out, "  \"git\": {},", json_str(&git_describe()));
    let _ = writeln!(out, "  \"generated_unix\": {unix},");
    let _ = writeln!(out, "  \"jobs\": {},", results.jobs);
    let _ = writeln!(out, "  \"points_total\": {},", results.results.len());
    let _ = writeln!(out, "  \"unique_experiments\": {},", results.unique_runs);
    let _ = writeln!(
        out,
        "  \"wall_ms\": {},",
        json_f64(results.total_wall.as_secs_f64() * 1e3)
    );
    let _ = writeln!(
        out,
        "  \"points_wall_ms\": {},",
        json_f64(results.points_wall.as_secs_f64() * 1e3)
    );
    out.push_str("  \"points\": [\n");
    for (i, r) in results.iter().enumerate() {
        let stats = &r.report.stats;
        let (p50, p95, p99) = stats.latency_tail();
        let labels = &r.point.labels;
        out.push_str("    {");
        let _ = write!(out, "\"id\": {}, ", json_str(&r.point.id));
        let _ = write!(out, "\"design\": {}, ", json_str(&labels.design));
        let _ = write!(out, "\"workload\": {}, ", json_str(&labels.workload));
        let _ = write!(out, "\"sim\": {}, ", json_str(&labels.sim));
        let _ = write!(out, "\"traffic\": {}, ", json_str(&labels.traffic));
        let _ = write!(out, "\"placement\": {}, ", json_str(&labels.placement));
        let _ = write!(out, "\"fault\": {}, ", json_str(&labels.fault));
        match &r.point.baseline_id {
            Some(b) => {
                let _ = write!(out, "\"baseline_id\": {}, ", json_str(b));
            }
            None => out.push_str("\"baseline_id\": null, "),
        }
        let _ = write!(out, "\"wall_ms\": {}, ", json_f64(r.wall.as_secs_f64() * 1e3));
        let _ = write!(out, "\"avg_latency_cycles\": {}, ", json_f64(r.report.avg_latency()));
        let _ = write!(
            out,
            "\"avg_flit_latency_cycles\": {}, ",
            json_f64(r.report.avg_flit_latency())
        );
        let _ = write!(out, "\"p50_latency_cycles\": {}, ", json_f64(p50));
        let _ = write!(out, "\"p95_latency_cycles\": {}, ", json_f64(p95));
        let _ = write!(out, "\"p99_latency_cycles\": {}, ", json_f64(p99));
        let _ = write!(out, "\"avg_hops\": {}, ", json_f64(stats.avg_hops()));
        let _ = write!(out, "\"injected_messages\": {}, ", stats.injected_messages);
        let _ = write!(out, "\"completed_messages\": {}, ", stats.completed_messages);
        let _ = write!(out, "\"completion_rate\": {}, ", json_f64(stats.completion_rate()));
        let _ = write!(out, "\"power_w\": {}, ", json_f64(r.report.total_power_w()));
        let _ = write!(out, "\"area_mm2\": {}, ", json_f64(r.report.total_area_mm2()));
        let _ = write!(out, "\"saturated\": {}, ", stats.saturated);
        match &stats.health {
            Some(h) => {
                let _ = write!(out, "\"health\": {}, ", json_str(&h.diagnosis.to_string()));
            }
            None => out.push_str("\"health\": null, "),
        }
        let _ = write!(out, "\"shortcut_faults\": {}, ", stats.shortcut_faults);
        let _ = write!(out, "\"mesh_link_faults\": {}, ", stats.mesh_link_faults);
        match r.normalized {
            Some((lat, pow)) => {
                let _ = write!(
                    out,
                    "\"normalized_latency\": {}, \"normalized_power\": {}",
                    json_f64(lat),
                    json_f64(pow)
                );
            }
            None => {
                out.push_str("\"normalized_latency\": null, \"normalized_power\": null");
            }
        }
        out.push('}');
        out.push_str(if i + 1 < results.results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes the JSON artifact to `results/json/<name>.json`, logging (not
/// propagating) I/O failures; returns the path on success.
pub fn write_json(name: &str, results: &PlanResults) -> Option<PathBuf> {
    let path = PathBuf::from(format!("results/json/{name}.json"));
    if let Some(dir) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("artifact: cannot create {}: {e}", dir.display());
            return None;
        }
    }
    match std::fs::write(&path, render_json(name, results)) {
        Ok(()) => {
            eprintln!("artifact: wrote {}", path.display());
            ingest_history(&path);
            Some(path)
        }
        Err(e) => {
            eprintln!("artifact: cannot write {}: {e}", path.display());
            None
        }
    }
}

/// Best-effort ingest of a freshly written artifact into the cross-run
/// trend store ([`rfnoc::history`]). Controlled by `RFNOC_HISTORY`:
/// unset files records under `results/history/`, a path redirects the
/// store, and `off`/`0` disables ingestion entirely. Failures are logged,
/// never propagated — observability must not fail the run. Re-ingesting
/// an unchanged artifact is a no-op (records are content-addressed).
pub fn ingest_history(path: &Path) {
    let Some(store) = rfnoc::history::HistoryStore::from_env() else { return };
    let records = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| rfnoc::json::parse(&text).map_err(|e| e.to_string()))
        .and_then(|doc| rfnoc::history::HistoryRecord::from_artifact(&doc, None));
    let records = match records {
        Ok(r) => r,
        Err(e) => {
            eprintln!("history: cannot ingest {}: {e}", path.display());
            return;
        }
    };
    let mut added = 0usize;
    for rec in &records {
        match store.ingest(rec) {
            Ok(rfnoc::history::IngestOutcome::Added(_)) => added += 1,
            Ok(rfnoc::history::IngestOutcome::Duplicate(_)) => {}
            Err(e) => {
                eprintln!("history: cannot ingest {}: {e}", path.display());
                return;
            }
        }
    }
    if added > 0 {
        eprintln!(
            "history: {added} new record(s) from {} into {}",
            path.display(),
            store.dir().display()
        );
    }
}

/// The wall-clock noise envelope of a best-of-N timed metric: the spread
/// of the repeat samples behind the reported best value. Stored alongside
/// the metric so the regression gate has a per-row noise prior instead of
/// assuming every row is equally (un)reliable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpread {
    /// Smallest repeat sample.
    pub min: f64,
    /// Largest repeat sample.
    pub max: f64,
    /// Population standard deviation of the repeat samples.
    pub stddev: f64,
}

impl MetricSpread {
    /// The spread of `samples`, or `None` when fewer than two repeats
    /// were timed (a single sample has no measurable spread).
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.len() < 2 {
            return None;
        }
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        Some(Self { min, max, stddev: var.sqrt() })
    }
}

/// One configuration's headline metrics in a BENCH_trajectory row.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryPoint {
    /// Configuration id (`mesh10x10_low_load`, `mesh64x64_saturated_t4`).
    pub id: String,
    /// Simulated cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Switch-allocator flit grants per wall-clock second.
    pub flit_grants_per_sec: f64,
    /// Max-over-mean per-shard sweep time on the sharded engine; `None`
    /// on serial configs or when the run was not ledger-instrumented.
    pub shard_imbalance: Option<f64>,
    /// Barrier-wait share of the sharded sweep wall time (`None` like
    /// `shard_imbalance`).
    pub barrier_wait_frac: Option<f64>,
    /// Spread of the `cycles_per_sec` repeat samples (best-of-N runs);
    /// `None` on single-repeat configs. The `_spread_*` metric names
    /// contain "spread", which `rfnoc::compare` treats as informational,
    /// so the noise metadata itself is never gated.
    pub spread: Option<MetricSpread>,
}

impl TrajectoryPoint {
    /// A point with throughput metrics only (the serial-engine shape).
    pub fn new(id: impl Into<String>, cycles_per_sec: f64, flit_grants_per_sec: f64) -> Self {
        Self {
            id: id.into(),
            cycles_per_sec,
            flit_grants_per_sec,
            shard_imbalance: None,
            barrier_wait_frac: None,
            spread: None,
        }
    }
}

/// One timed configuration of the simulator-throughput benchmark
/// (`bench_perf`): a row of `BENCH_sim_throughput*.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// The headline metrics, as the row's BENCH_trajectory point carries
    /// them: id, cycles/sec, flit grants/sec, shard balance, spread.
    pub point: TrajectoryPoint,
    /// What the configuration simulates.
    pub description: String,
    /// Simulated cycles of the best repeat.
    pub cycles: u64,
    /// Switch-allocator flit grants of the best repeat.
    pub flit_grants: u64,
    /// Wall milliseconds of the best repeat.
    pub wall_ms: f64,
    /// Messages completed.
    pub completed_messages: u64,
    /// Mean message latency in cycles.
    pub avg_latency_cycles: f64,
    /// Whether the run saturated.
    pub saturated: bool,
}

/// How a `bench_perf` run was configured; the instrumentation flags also
/// name its artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThroughputRun {
    /// Short CI-smoke repetitions.
    pub quick: bool,
    /// Telemetry enabled on every timed run.
    pub telemetry: bool,
    /// Run ledger enabled on every timed run.
    pub ledger: bool,
    /// Measured cycles per 10×10 config.
    pub measure_cycles: u64,
    /// Repeats per 10×10 config (best-of-N).
    pub reps: usize,
}

impl ThroughputRun {
    /// The artifact name: `BENCH_sim_throughput`, with a `_telemetry` or
    /// `_ledger` suffix for the instrumented runs.
    pub fn name(&self) -> &'static str {
        if self.telemetry {
            "BENCH_sim_throughput_telemetry"
        } else if self.ledger {
            "BENCH_sim_throughput_ledger"
        } else {
            "BENCH_sim_throughput"
        }
    }
}

/// Renders the `BENCH_sim_throughput*.json` document of one `bench_perf`
/// run.
pub fn render_throughput(
    run: &ThroughputRun,
    git: &str,
    unix: u64,
    rows: &[ThroughputRow],
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"name\": {},", json_str(run.name()));
    let _ = writeln!(out, "  \"git\": {},", json_str(git));
    let _ = writeln!(out, "  \"generated_unix\": {unix},");
    let _ = writeln!(out, "  \"quick\": {},", run.quick);
    let _ = writeln!(out, "  \"telemetry\": {},", run.telemetry);
    let _ = writeln!(out, "  \"ledger\": {},", run.ledger);
    let _ = writeln!(out, "  \"measure_cycles\": {},", run.measure_cycles);
    let _ = writeln!(out, "  \"reps\": {},", run.reps);
    out.push_str("  \"configs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let p = &r.point;
        let _ = write!(
            out,
            "    {{\"id\": {}, \"description\": {}, \"cycles\": {}, \"flit_grants\": {}, \
             \"wall_ms\": {}, \"cycles_per_sec\": {}, \"flit_grants_per_sec\": {}, \
             \"completed_messages\": {}, \"avg_latency_cycles\": {}, \"saturated\": {}",
            json_str(&p.id),
            json_str(&r.description),
            r.cycles,
            r.flit_grants,
            json_f64(r.wall_ms),
            json_f64(p.cycles_per_sec),
            json_f64(p.flit_grants_per_sec),
            r.completed_messages,
            json_f64(r.avg_latency_cycles),
            r.saturated,
        );
        if let Some(v) = p.shard_imbalance {
            let _ = write!(out, ", \"shard_imbalance\": {}", json_f64(v));
        }
        if let Some(v) = p.barrier_wait_frac {
            let _ = write!(out, ", \"barrier_wait_frac\": {}", json_f64(v));
        }
        if let Some(sp) = p.spread {
            let _ = write!(
                out,
                ", \"cycles_per_sec_spread_min\": {}, \"cycles_per_sec_spread_max\": {}, \
                 \"cycles_per_sec_spread_stddev\": {}",
                json_f64(sp.min),
                json_f64(sp.max),
                json_f64(sp.stddev),
            );
        }
        out.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders one BENCH_trajectory row: provenance plus the headline
/// throughput of each config. The row is itself a complete artifact, so a
/// row extracted from the trajectory diffs cleanly against another row.
pub fn trajectory_row(git: &str, unix: u64, quick: bool, configs: &[TrajectoryPoint]) -> String {
    let mut row = String::new();
    let _ = write!(
        row,
        "{{\"git\": {}, \"generated_unix\": {unix}, \"quick\": {quick}, \"configs\": [",
        json_str(git)
    );
    for (i, p) in configs.iter().enumerate() {
        let _ = write!(
            row,
            "{}{{\"id\": {}, \"cycles_per_sec\": {}, \"flit_grants_per_sec\": {}",
            if i == 0 { "" } else { ", " },
            json_str(&p.id),
            json_f64(p.cycles_per_sec),
            json_f64(p.flit_grants_per_sec),
        );
        if let Some(v) = p.shard_imbalance {
            let _ = write!(row, ", \"shard_imbalance\": {}", json_f64(v));
        }
        if let Some(v) = p.barrier_wait_frac {
            let _ = write!(row, ", \"barrier_wait_frac\": {}", json_f64(v));
        }
        if let Some(s) = p.spread {
            let _ = write!(
                row,
                ", \"cycles_per_sec_spread_min\": {}, \"cycles_per_sec_spread_max\": {}, \
                 \"cycles_per_sec_spread_stddev\": {}",
                json_f64(s.min),
                json_f64(s.max),
                json_f64(s.stddev),
            );
        }
        row.push('}');
    }
    row.push_str("]}");
    row
}

/// Appends a row to `results/json/BENCH_trajectory.json`, creating the
/// file on first run. The file is a `{"rows": [...]}` object appended by
/// string splice (no JSON reader needed: the writer owns the format).
pub fn append_trajectory(git: &str, unix: u64, quick: bool, configs: &[TrajectoryPoint]) {
    const PATH: &str = "results/json/BENCH_trajectory.json";
    const TAIL: &str = "\n  ]\n}\n";
    let row = trajectory_row(git, unix, quick, configs);
    let fresh = format!("{{\n  \"name\": \"BENCH_trajectory\",\n  \"rows\": [\n    {row}{TAIL}");
    let content = match std::fs::read_to_string(PATH) {
        Ok(existing) => match existing.strip_suffix(TAIL) {
            Some(head) => format!("{head},\n    {row}{TAIL}"),
            None => {
                eprintln!("WARNING: {PATH} has an unexpected tail; rewriting fresh");
                fresh
            }
        },
        Err(_) => fresh,
    };
    match std::fs::write(PATH, content) {
        Ok(()) => {
            eprintln!("appended trajectory row to {PATH}");
            // Idempotent: rows already in the store hash to the same
            // filename, so only the fresh row actually lands.
            ingest_history(Path::new(PATH));
        }
        Err(e) => eprintln!("WARNING: could not write {PATH}: {e}"),
    }
}

/// Writes a CSV next to the printed table, logging (not propagating)
/// failures — the shared replacement for each binary's hand-rolled
/// `write_csv(...).unwrap_or_else(eprintln!)`.
pub fn write_csv_logged(path: &str, headers: &[&str], rows: &[Vec<String>]) {
    if let Err(e) = crate::write_csv(path, headers, rows) {
        eprintln!("csv: cannot write {path}: {e}");
    } else {
        eprintln!("csv: wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_describe_never_empty() {
        assert!(!git_describe().is_empty());
    }

    #[test]
    fn metric_spread_needs_two_samples() {
        assert_eq!(MetricSpread::of(&[]), None);
        assert_eq!(MetricSpread::of(&[5.0]), None);
        let s = MetricSpread::of(&[10.0, 14.0]).unwrap();
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 14.0);
        assert!((s.stddev - 2.0).abs() < 1e-12);
    }

    #[test]
    fn trajectory_row_renders_spread_fields() {
        let mut p = TrajectoryPoint::new("mesh", 100.0, 50.0);
        p.spread = MetricSpread::of(&[90.0, 100.0]);
        let row = trajectory_row("g", 1, true, std::slice::from_ref(&p));
        assert!(row.contains("\"cycles_per_sec_spread_min\": 90.0000"), "{row}");
        assert!(row.contains("\"cycles_per_sec_spread_max\": 100.0000"), "{row}");
        assert!(row.contains("\"cycles_per_sec_spread_stddev\": 5.0000"), "{row}");
        let bare = trajectory_row("g", 1, true, &[TrajectoryPoint::new("m", 1.0, 1.0)]);
        assert!(!bare.contains("spread"), "{bare}");
        let flat = rfnoc::compare::flatten(&rfnoc::json::parse(&row).expect("row parses"));
        assert_eq!(flat["configs[mesh].cycles_per_sec_spread_max"], 100.0);
    }

    #[test]
    fn plan_artifact_parses_back() {
        use crate::plan::{labeled, Design, SweepSpec};
        use crate::runner::{run_plan, RunnerConfig};
        let mut sim = rfnoc_sim::SimConfig::paper_baseline();
        sim.warmup_cycles = 100;
        sim.measure_cycles = 400;
        sim.drain_cycles = 400;
        let plan = SweepSpec::new("artifact")
            .designs(vec![Design::new(
                "base",
                rfnoc::Architecture::Baseline,
                rfnoc_power::LinkWidth::B16,
            )])
            .workloads(vec![labeled(
                "Uniform",
                rfnoc::WorkloadSpec::Trace(rfnoc_traffic::TraceKind::Uniform),
            )])
            .sims(vec![labeled("short", sim)])
            .expand();
        let cfg = RunnerConfig { jobs: 2, quiet: true, ..RunnerConfig::default() };
        let results = run_plan(&plan, &cfg);
        let json = render_json("run_all", &results);
        let artifact = rfnoc::validate::Artifact::parse(&json, "run_all").unwrap();
        let num = |key| artifact.doc.get(key).and_then(rfnoc::json::Json::as_f64);
        assert_eq!((num("jobs"), num("points_total")), (Some(results.jobs as f64), Some(1.0)));
        let flat = rfnoc::compare::flatten(&artifact.doc);
        assert!(flat.contains_key("points[artifact].avg_latency_cycles"), "{flat:?}");
        let report = rfnoc::validate::check(&[artifact]);
        assert!(report.problems.is_empty(), "{:?}", report.problems);
    }

    #[test]
    fn throughput_artifact_names_its_flags_and_validates() {
        let rows: Vec<ThroughputRow> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|id| ThroughputRow {
                point: TrajectoryPoint::new(*id, 5e5, 1.5e5),
                description: "test".into(),
                cycles: 1000,
                flit_grants: 300,
                wall_ms: 2.0,
                completed_messages: 40,
                avg_latency_cycles: 21.0,
                saturated: false,
            })
            .collect();
        let base = ThroughputRun {
            quick: true,
            telemetry: false,
            ledger: false,
            measure_cycles: 9,
            reps: 2,
        };
        for (run, name) in [
            (base, "BENCH_sim_throughput"),
            (ThroughputRun { telemetry: true, ..base }, "BENCH_sim_throughput_telemetry"),
            (ThroughputRun { ledger: true, ..base }, "BENCH_sim_throughput_ledger"),
        ] {
            let json = render_throughput(&run, "g", 1, &rows);
            let artifact = rfnoc::validate::Artifact::parse(&json, name).unwrap();
            assert_eq!(artifact.name, name);
            let flag = |key| artifact.doc.get(key).and_then(rfnoc::json::Json::as_bool);
            assert_eq!(flag("quick"), Some(true));
            assert_eq!(flag("telemetry"), Some(run.telemetry));
            assert_eq!(flag("ledger"), Some(run.ledger));
            let report = rfnoc::validate::check(&[artifact]);
            assert!(report.problems.is_empty(), "{:?}", report.problems);
        }
    }
}

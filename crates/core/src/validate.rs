//! Artifact validation: the invariants every result artifact must hold,
//! run the same way by the tier-1 tests (on artifacts rendered in-test
//! and on the committed ones) and by `rfnoc-cli validate <file>...` in CI.
//!
//! The rule set comes from the artifact itself, never from flags: the
//! `name` field selects the family (`fig*`/`run_all` plan artifacts,
//! `BENCH_sim_throughput*`, `BENCH_trajectory`, `TELEMETRY_*`,
//! `PROFILE_*`, `BENCH_mesh_scaling`, `RESILIENCE_*`), and a top-level
//! `traceEvents` array marks a Perfetto trace, named by its file stem. An
//! artifact of no known family is an error, never a silent pass.
//!
//! * **Family rules** hold for every artifact of the family (samples tile
//!   the run, attribution components sum exactly to the total, p50 ≤ p95
//!   ≤ p99, ...).
//! * **Scenario claims** hold only for the paper scenario of that exact
//!   name (`TELEMETRY_fault_timeline`: RF silent after `BandDown`;
//!   `PROFILE_congestion`: RF shortcuts reduce contention; ...).
//! * **Relational bounds** run when an artifact's partner is in the same
//!   set (telemetry-on vs -off throughput, ledger-on vs -off, the
//!   trajectory's last row vs the throughput artifact).
//!
//! Every failure is a [`Problem`] named by one of [`CHECKS`]; the tests
//! break each check on purpose and get exactly its name back.

use crate::json::{parse, Json};
use rfnoc_sim::LATENCY_BUCKETS;
use std::collections::BTreeSet;
use std::fmt::Arguments;

/// One failed invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Problem {
    /// The check's stable name (one of [`CHECKS`]).
    pub check: &'static str,
    /// What was wrong, prefixed with the artifact's name.
    pub detail: String,
}

/// The outcome of validating a set of artifacts.
#[derive(Debug, Default, Clone)]
pub struct Report {
    /// Every failed invariant, in artifact order.
    pub problems: Vec<Problem>,
    /// The measured values behind the relational bounds, for the log.
    pub notes: Vec<String>,
}

impl Report {
    fn fail(&mut self, check: &'static str, detail: String) {
        debug_assert!(CHECKS.contains(&check), "unlisted check {check}");
        self.problems.push(Problem { check, detail });
    }
}

/// Every check name [`check`] can report.
pub const CHECKS: &[&str] = &[
    "plan.points_present", "plan.latency_positive", "plan.tail_ordered",
    "throughput.config_ids", "throughput.rates_positive", "throughput.thread_determinism",
    "throughput.speedup_floor", "telemetry_overhead.same_runs", "telemetry_overhead.ratio",
    "ledger_overhead.same_runs", "ledger_overhead.geomean",
    "trajectory.rows", "trajectory.last_row_ids",
    "telemetry.interval_positive", "telemetry.link_vectors", "telemetry.endpoint_vectors",
    "telemetry.per_dest_sum", "telemetry.samples_tile", "telemetry.latency_hist",
    "telemetry.spans", "telemetry.paper_grid", "telemetry.congestion_saturates",
    "telemetry.rf_silent_after_band_down",
    "profile.runs_present", "profile.attribution_reconciles", "profile.attribution_packets",
    "profile.covered_pairs", "profile.rf_reduces_contention",
    "perfetto.events_present", "perfetto.phases", "perfetto.span_times",
    "perfetto.metadata_names", "perfetto.fault_instants",
    "scaling.point_rates", "scaling.unsaturated", "scaling.rf_has_shortcuts",
    "scaling.quick_grid", "scaling.build_budget",
    "resilience.profiles", "resilience.paper_profiles", "resilience.rungs",
    "resilience.clean_rung", "resilience.rung_runs", "resilience.recovery_measured",
    "resilience.worst_point", "resilience.adversarial_saturates_no_later",
];

/// Minimum telemetry-on / telemetry-off cycles/sec, per config.
const TELEMETRY_MIN_RATIO: f64 = 0.90;
/// Minimum geometric mean of ledger-on / ledger-off cycles/sec.
const LEDGER_MIN_GEOMEAN: f64 = 0.90;
/// Ceiling on the 32×32 RF build in the scaling sweep: a
/// catastrophic-regression guard with CI headroom, not a microbenchmark.
const SCALING_BUILD_BUDGET_MS: f64 = 20_000.0;

/// A family's rules: checks one document, reporting through the context.
type Rules = fn(&mut Ctx<'_>, &Json);

/// The rules an artifact name selects, if any.
fn rules_for(name: &str) -> Option<Rules> {
    Some(match name {
        "run_all" => plan,
        "BENCH_mesh_scaling" => mesh_scaling,
        "BENCH_trajectory" => trajectory,
        n if n.starts_with("fig") => plan,
        n if n.starts_with("BENCH_sim_throughput") => throughput,
        n if n.starts_with("TELEMETRY_") => telemetry,
        n if n.starts_with("PROFILE_") => profile,
        n if n.starts_with("RESILIENCE_") => resilience,
        _ => return None,
    })
}

/// A parsed artifact and the rules it is checked against.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The `name` field, or the file stem of a Perfetto trace.
    pub name: String,
    /// The document.
    pub doc: Json,
    rules: Rules,
}

impl Artifact {
    /// Parses artifact text and picks its rules; `stem` names a
    /// Perfetto trace.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a document of no known family.
    pub fn parse(text: &str, stem: &str) -> Result<Self, String> {
        let doc = parse(text).map_err(|e| format!("{stem}: {e}"))?;
        if doc.get("traceEvents").is_some() {
            return Ok(Self { name: stem.to_string(), doc, rules: perfetto });
        }
        let name = doc.get("name").and_then(Json::as_str).unwrap_or_default().to_string();
        match rules_for(&name) {
            Some(rules) => Ok(Self { name, doc, rules }),
            None => Err(format!("{stem}: unknown artifact {name:?}")),
        }
    }

    /// Reads an artifact file and picks its rules.
    ///
    /// # Errors
    ///
    /// An unreadable file, malformed JSON, or an unknown artifact.
    pub fn read(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let stem = std::path::Path::new(path).file_stem().and_then(|s| s.to_str());
        Self::parse(&text, stem.unwrap_or(path))
    }
}

/// Validates a set of artifacts: each one's family and scenario rules,
/// then the relational bounds between partners present in the set.
pub fn check(artifacts: &[Artifact]) -> Report {
    let mut report = Report::default();
    for a in artifacts {
        (a.rules)(&mut Ctx { name: &a.name, report: &mut report }, &a.doc);
    }
    let find = |name: &str| artifacts.iter().find(|a| a.name == name).map(|a| &a.doc);
    if let Some(off) = find("BENCH_sim_throughput") {
        if let Some(on) = find("BENCH_sim_throughput_telemetry") {
            telemetry_overhead(&mut report, off, on);
        }
        if let Some(on) = find("BENCH_sim_throughput_ledger") {
            ledger_overhead(&mut report, off, on);
        }
        if let Some(traj) = find("BENCH_trajectory") {
            trajectory_last_row(&mut report, off, traj);
        }
    }
    report
}

/// One artifact's view of the report: prefixes details with its name.
struct Ctx<'a> {
    name: &'a str,
    report: &'a mut Report,
}

impl Ctx<'_> {
    /// Fails `check` with `detail` unless `ok`.
    fn check(&mut self, ok: bool, check: &'static str, detail: Arguments<'_>) {
        if !ok {
            self.report.fail(check, format!("{}: {detail}", self.name));
        }
    }
}

/// A numeric field; NaN when missing or not a number, so every
/// comparison it enters fails.
fn num(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// An array field; empty when missing or not an array.
fn arr<'j>(v: &'j Json, key: &str) -> &'j [Json] {
    v.get(key).and_then(Json::as_arr).unwrap_or(&[])
}

/// A string field; empty when missing.
fn text<'j>(v: &'j Json, key: &str) -> &'j str {
    v.get(key).and_then(Json::as_str).unwrap_or("")
}

/// A boolean field that must be `true`.
fn flag(v: &Json, key: &str) -> bool {
    v.get(key).and_then(Json::as_bool) == Some(true)
}

fn plan(c: &mut Ctx<'_>, doc: &Json) {
    let points = arr(doc, "points");
    c.check(!points.is_empty(), "plan.points_present", format_args!("no points"));
    for p in points {
        let (id, lat) = (text(p, "id"), num(p, "avg_latency_cycles"));
        c.check(lat > 0.0, "plan.latency_positive", format_args!("{id}: avg latency {lat}"));
        let p50 = num(p, "p50_latency_cycles");
        let p95 = num(p, "p95_latency_cycles");
        let p99 = num(p, "p99_latency_cycles");
        let ordered = p50 <= p95 && p95 <= p99;
        c.check(ordered, "plan.tail_ordered", format_args!("{id}: p50/p95/p99 {p50}/{p95}/{p99}"));
    }
}

fn config<'j>(doc: &'j Json, id: &str) -> Option<&'j Json> {
    arr(doc, "configs").iter().find(|c| text(c, "id") == id)
}

fn config_ids(doc: &Json) -> BTreeSet<&str> {
    arr(doc, "configs").iter().map(|c| text(c, "id")).collect()
}

/// The speedup floor of the 4-thread 64×64 run, scaled to the cores the
/// host can give it (4 threads need 4 cores).
fn speedup_floor(cores: usize) -> f64 {
    match cores {
        4.. => 1.5,
        2..=3 => 1.1,
        _ => 0.8,
    }
}

fn throughput(c: &mut Ctx<'_>, doc: &Json) {
    let configs = arr(doc, "configs");
    let ids: Vec<&str> = configs.iter().map(|c| text(c, "id")).collect();
    let distinct = config_ids(doc).len() == ids.len();
    let detail = format_args!("need at least 5 distinct config ids, got {ids:?}");
    c.check(ids.len() >= 5 && distinct, "throughput.config_ids", detail);
    let positive =
        ["cycles", "wall_ms", "cycles_per_sec", "flit_grants_per_sec", "completed_messages"];
    for (cfg, id) in configs.iter().zip(&ids) {
        for key in positive {
            let v = num(cfg, key);
            c.check(v > 0.0, "throughput.rates_positive", format_args!("{id}: {key} {v}"));
        }
    }
    // Sharded rows must reproduce the serial run bit-for-bit.
    let Some(t1) = config(doc, "mesh64x64_saturated_t1") else { return };
    for (cfg, id) in configs.iter().zip(&ids) {
        let threads = id.strip_prefix("mesh64x64_saturated_t").and_then(|t| t.parse().ok());
        if threads.is_some_and(|t: usize| t > 1) {
            for key in ["cycles", "completed_messages", "flit_grants"] {
                let (a, b) = (num(t1, key), num(cfg, key));
                let detail = format_args!("{id}: {key} {b}, the 1-thread run {a}");
                c.check(a == b, "throughput.thread_determinism", detail);
            }
        }
    }
    if let Some(t4) = config(doc, "mesh64x64_saturated_t4") {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let (floor, speedup) = (speedup_floor(cores), num(t1, "wall_ms") / num(t4, "wall_ms"));
        let detail = format!("64x64 speedup {speedup:.2}x at 4 threads on {cores} core(s)");
        c.check(speedup >= floor, "throughput.speedup_floor", format_args!("{detail} < {floor}x"));
        c.report.notes.push(format!("{}: {detail} (floor {floor}x)", c.name));
    }
}

/// Per-config on/off cycles/sec ratios of two throughput artifacts, once
/// both timed the same runs: the same config ids, each with the same
/// simulated cycle count (else `check` fails).
fn on_off_ratios(report: &mut Report, check: &'static str, off: &Json, on: &Json) -> Vec<f64> {
    let name = text(on, "name");
    let (off_ids, on_ids) = (config_ids(off), config_ids(on));
    if off_ids != on_ids {
        report.fail(check, format!("{name}: config ids {on_ids:?}, the off run {off_ids:?}"));
        return Vec::new();
    }
    let mut ratios = Vec::new();
    for id in off_ids {
        let (a, b) = (config(off, id).expect("listed"), config(on, id).expect("listed"));
        let (ca, cb) = (num(a, "cycles"), num(b, "cycles"));
        if ca != cb {
            report.fail(check, format!("{name}: {id} ran {cb} cycles, the off run {ca}"));
        }
        let ratio = num(b, "cycles_per_sec") / num(a, "cycles_per_sec");
        report.notes.push(format!("{name} on/off cycles/sec {id}: {ratio:.3}"));
        ratios.push(ratio);
    }
    ratios
}

fn telemetry_overhead(report: &mut Report, off: &Json, on: &Json) {
    let ratios = on_off_ratios(report, "telemetry_overhead.same_runs", off, on);
    for (id, ratio) in config_ids(off).into_iter().zip(ratios) {
        if ratio.is_nan() || ratio < TELEMETRY_MIN_RATIO {
            let detail = format!("{id}: telemetry on/off ratio {ratio:.3} < {TELEMETRY_MIN_RATIO}");
            report.fail("telemetry_overhead.ratio", detail);
        }
    }
}

fn ledger_overhead(report: &mut Report, off: &Json, on: &Json) {
    let ratios = on_off_ratios(report, "ledger_overhead.same_runs", off, on);
    if ratios.is_empty() {
        return;
    }
    // Gated on the geomean: quick runs are best-of-few, and one config's
    // wall clock on a shared runner jitters past 10% either way.
    let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    report.notes.push(format!("ledger on/off geomean: {geomean:.3}"));
    if geomean.is_nan() || geomean < LEDGER_MIN_GEOMEAN {
        let detail = format!("ledger on/off geomean {geomean:.3} < {LEDGER_MIN_GEOMEAN}");
        report.fail("ledger_overhead.geomean", detail);
    }
}

fn trajectory(c: &mut Ctx<'_>, doc: &Json) {
    let rows = arr(doc, "rows");
    c.check(!rows.is_empty(), "trajectory.rows", format_args!("no rows"));
    for (i, row) in rows.iter().enumerate() {
        let configs = arr(row, "configs");
        c.check(!configs.is_empty(), "trajectory.rows", format_args!("row {i}: no configs"));
        for cfg in configs {
            let (id, cps) = (text(cfg, "id"), num(cfg, "cycles_per_sec"));
            c.check(cps > 0.0, "trajectory.rows", format_args!("row {i}: {id} cycles/sec {cps}"));
        }
    }
}

/// The run that wrote `BENCH_sim_throughput` appended the trajectory's
/// last row: it carries every config the artifact timed (both 64×64
/// thread counts after a sharded run).
fn trajectory_last_row(report: &mut Report, bench: &Json, traj: &Json) {
    let Some(last) = arr(traj, "rows").last() else { return };
    let row_ids = config_ids(last);
    let missing: Vec<&str> =
        config_ids(bench).into_iter().filter(|id| !row_ids.contains(id)).collect();
    if !missing.is_empty() {
        let detail = format!("BENCH_trajectory: {} row lacks {missing:?}", text(last, "git"));
        report.fail("trajectory.last_row_ids", detail);
    }
}

fn telemetry(c: &mut Ctx<'_>, doc: &Json) {
    let interval = num(doc, "interval");
    c.check(interval > 0.0, "telemetry.interval_positive", format_args!("interval {interval}"));
    let routers = num(doc, "routers");
    let r = if routers > 0.0 { routers as usize } else { 0 };
    let (grants, util) = (arr(doc, "link_grants").len(), arr(doc, "link_utilization").len());
    let aligned = grants == util && r > 0 && grants > 0 && grants % r == 0;
    let detail = format_args!("{grants} link grants, {util} utilizations, {routers} routers");
    c.check(aligned, "telemetry.link_vectors", detail);
    let (src, dst) = (arr(doc, "per_source").len(), arr(doc, "per_dest"));
    let detail = format_args!("{src} per_source, {} per_dest, {routers} routers", dst.len());
    c.check(r > 0 && src == r && dst.len() == r, "telemetry.endpoint_vectors", detail);
    let delivered: f64 = dst.iter().map(|v| v.as_f64().unwrap_or(f64::NAN)).sum();
    let completed = num(doc, "completed_messages");
    let detail = format_args!("per_dest sums to {delivered}, completed_messages {completed}");
    c.check(delivered == completed, "telemetry.per_dest_sum", detail);

    // Samples tile the run: contiguous starts, positive lengths, ending
    // at end_cycle. The first break is the one reported.
    let (samples, end) = (arr(doc, "samples"), num(doc, "end_cycle"));
    let mut at = 0.0;
    let mut broken = samples.is_empty().then(|| "no samples".to_string());
    for s in samples {
        let (start, cycles) = (num(s, "start"), num(s, "cycles"));
        if broken.is_none() && (start != at || cycles.is_nan() || cycles <= 0.0) {
            broken = Some(format!("sample [{start} +{cycles}) after {at}"));
        }
        at += cycles;
        let buckets = arr(s, "latency_hist").len();
        let detail = format_args!("sample at {start}: {buckets} latency buckets");
        c.check(buckets == LATENCY_BUCKETS, "telemetry.latency_hist", detail);
    }
    if broken.is_none() && at != end {
        broken = Some(format!("samples cover {at} cycles, end_cycle {end}"));
    }
    if let Some(e) = broken {
        c.check(false, "telemetry.samples_tile", format_args!("{e}"));
    }
    let spans = doc.get("spans").unwrap_or(&Json::Null);
    let (recorded, done) = (num(spans, "recorded"), num(spans, "completed"));
    let detail = format_args!("{recorded} spans recorded, {done} completed");
    c.check(recorded > 0.0 && done <= recorded, "telemetry.spans", detail);

    // The paper scenarios run the 10×10 system: 100 routers, 6 ports each.
    if c.name == "TELEMETRY_congestion" || c.name == "TELEMETRY_fault_timeline" {
        let detail = format_args!("{routers} routers, {grants} link slots, not 100 and 600");
        c.check(routers == 100.0 && grants == 600, "telemetry.paper_grid", detail);
    }
    if c.name == "TELEMETRY_congestion" {
        let detail = format_args!("the congestion scenario did not saturate");
        c.check(flag(doc, "saturated"), "telemetry.congestion_saturates", detail);
    }
    if c.name == "TELEMETRY_fault_timeline" {
        // RF utilization collapses after the band fails.
        let fault = arr(doc, "events").iter().find(|e| text(e, "kind").contains("BandDown"));
        let at = fault.map_or(f64::NAN, |e| num(e, "cycle"));
        let post: Vec<&Json> = samples.iter().filter(|s| num(s, "start") > at).collect();
        let live = post.iter().filter(|s| num(s, "rf_grants") != 0.0).count();
        let n = post.len();
        let detail = format_args!("BandDown at {at}: {live} of {n} later samples grant RF");
        c.check(!post.is_empty() && live == 0, "telemetry.rf_silent_after_band_down", detail);
    }
}

/// The additive components of a delay attribution.
const ATTRIBUTION_PARTS: [&str; 7] =
    ["source_queue", "route", "va_wait", "switch", "sa_wait", "link", "tail_serialization"];

fn profile(c: &mut Ctx<'_>, doc: &Json) {
    let runs = arr(doc, "runs");
    c.check(!runs.is_empty(), "profile.runs_present", format_args!("no runs"));
    for run in runs {
        let label = text(run, "label");
        let att = run.get("attribution").unwrap_or(&Json::Null);
        let parts: f64 = ATTRIBUTION_PARTS.iter().map(|k| num(att, k)).sum();
        let (total, sum) = (num(att, "total_cycles"), num(att, "component_sum"));
        let detail = format_args!("{label}: parts {parts}, total {total}, component_sum {sum}");
        c.check(parts == total && total == sum, "profile.attribution_reconciles", detail);
        let packets = num(att, "packets");
        let detail = format_args!("{label}: {packets} packets attributed");
        c.check(packets > 0.0, "profile.attribution_packets", detail);
    }
    let cmp = doc.get("covered_pair_comparison").unwrap_or(&Json::Null);
    let pairs = num(cmp, "pairs");
    c.check(pairs > 0.0, "profile.covered_pairs", format_args!("{pairs} shortcut-covered pairs"));
    // The headline claim: at saturation, RF shortcuts cut VA+SA stalls on
    // the pairs they cover. Low load has no contention to cut.
    if c.name == "PROFILE_congestion" {
        let (mesh, rf) = (num(cmp, "mesh_avg_contention"), num(cmp, "rf_avg_contention"));
        let detail = format_args!("mesh {mesh:.1} vs rf {rf:.1} contention cycles/packet");
        c.check(flag(cmp, "rf_reduces_contention"), "profile.rf_reduces_contention", detail);
    }
}

fn perfetto(c: &mut Ctx<'_>, doc: &Json) {
    let events = arr(doc, "traceEvents");
    c.check(!events.is_empty(), "perfetto.events_present", format_args!("empty trace"));
    let mut instants = 0;
    for e in events {
        let (ph, name) = (text(e, "ph"), text(e, "name"));
        match ph {
            "X" => {
                let (ts, dur) = (num(e, "ts"), num(e, "dur"));
                let detail = format_args!("span {name:?} at ts {ts} dur {dur}");
                c.check(ts >= 0.0 && dur >= 1.0, "perfetto.span_times", detail);
            }
            "i" => instants += 1,
            "M" => {
                let known = name == "process_name" || name == "thread_name";
                c.check(known, "perfetto.metadata_names", format_args!("metadata {name:?}"));
            }
            _ => c.check(false, "perfetto.phases", format_args!("event phase {ph:?}")),
        }
    }
    // The committed trace is of the faulted RF run: its timeline shows.
    if c.name == "PROFILE_trace" {
        c.check(instants > 0, "perfetto.fault_instants", format_args!("no timeline instants"));
    }
}

fn mesh_scaling(c: &mut Ctx<'_>, doc: &Json) {
    let points = arr(doc, "points");
    let mut present = BTreeSet::new();
    for p in points {
        let (side, fabric, design) = (num(p, "side"), text(p, "fabric"), text(p, "design"));
        let id = format!("{side}x{side} {fabric} {design}");
        present.insert((side as u64, fabric, design));
        for key in ["avg_latency_cycles", "cycles_per_sec", "flit_grants_per_sec", "sim_wall_ms"] {
            let v = num(p, key);
            c.check(v > 0.0, "scaling.point_rates", format_args!("{id}: {key} {v}"));
        }
        c.check(!flag(p, "saturated"), "scaling.unsaturated", format_args!("{id}: saturated"));
        let shortcuts = num(p, "shortcuts");
        let detail = format_args!("{id}: {shortcuts} shortcuts");
        c.check(design != "rf" || shortcuts > 0.0, "scaling.rf_has_shortcuts", detail);
        if side == 32.0 {
            let ms = num(p, "build_ms");
            let detail = format_args!("{id}: build {ms:.0} ms, budget {SCALING_BUILD_BUDGET_MS}");
            c.check(ms < SCALING_BUILD_BUDGET_MS, "scaling.build_budget", detail);
        }
    }
    let has_32 = present.iter().any(|&(side, _, _)| side == 32);
    c.check(has_32, "scaling.build_budget", format_args!("no 32x32 build time"));
    // The quick sweep: the paper grid and 32×32, both fabrics, with and
    // without the RF overlay.
    for side in [10u64, 32] {
        for fabric in ["mesh", "ring"] {
            for design in ["mesh-only", "rf"] {
                let ok = present.contains(&(side, fabric, design));
                let detail = format_args!("no {side}x{side} {fabric} {design}");
                c.check(ok, "scaling.quick_grid", detail);
            }
        }
    }
}

fn resilience(c: &mut Ctx<'_>, doc: &Json) {
    let profiles = arr(doc, "profiles");
    c.check(!profiles.is_empty(), "resilience.profiles", format_args!("no profiles"));
    for p in profiles {
        let (pid, rungs) = (text(p, "id"), arr(p, "degradation"));
        let clean = rungs.iter().find(|r| text(r, "id") == "0.0");
        let faulted = rungs.iter().any(|r| text(r, "id") != "0.0");
        let detail = format_args!("{pid}: needs the fault-free rung 0.0 and a faulted rung");
        c.check(clean.is_some() && faulted, "resilience.rungs", detail);
        if let Some(clean) = clean {
            let (norm, rec) = (num(clean, "mean_norm_latency"), num(clean, "recovery_records"));
            let detail = format_args!("{pid}: clean rung at {norm}x, {rec} recovery records");
            c.check(norm == 1.0 && rec == 0.0, "resilience.clean_rung", detail);
        }
        for r in rungs {
            let rid = text(r, "id");
            let (runs, rate) = (num(r, "runs"), num(r, "mean_completion_rate"));
            let detail = format_args!("{pid}/{rid}: {runs} runs, completion {rate}");
            c.check(runs > 0.0 && (0.0..=1.0).contains(&rate), "resilience.rung_runs", detail);
            // Every faulted rung measured recoveries with the full
            // drain → rewrite → convergence breakdown.
            let measured = num(r, "recovery_records") > 0.0
                && num(r, "recovery_converged") > 0.0
                && !num(r, "mean_rewrite_cycles").is_nan()
                && !num(r, "max_convergence_cycles").is_nan();
            let detail = format_args!("{pid}/{rid}: recoveries not measured");
            c.check(rid == "0.0" || measured, "resilience.recovery_measured", detail);
        }
        let detail = format_args!("{pid}: no worst-case replay id");
        c.check(!text(p, "worst_point").is_empty(), "resilience.worst_point", detail);
    }
    if c.name == "RESILIENCE_resilience" {
        let ids: BTreeSet<&str> = profiles.iter().map(|p| text(p, "id")).collect();
        let paper = ids == BTreeSet::from(["adversarial", "expected", "stress"]);
        c.check(paper, "resilience.paper_profiles", format_args!("profiles {ids:?}"));
        // The headline ordering: adversarial saturates no later than expected.
        let detail = format_args!("the adversarial profile saturates later than the expected");
        let ok = flag(doc, "adversarial_saturates_no_later");
        c.check(ok, "resilience.adversarial_saturates_no_later", detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH_IDS: [&str; 7] =
        ["c1", "c2", "c3", "c4", "c5", "mesh64x64_saturated_t1", "mesh64x64_saturated_t4"];

    fn plan() -> String {
        "{\"name\": \"fig7\", \"jobs\": 2, \"points\": [{\"id\": \"a\", \
         \"avg_latency_cycles\": 20.0, \"p50_latency_cycles\": 18.0, \
         \"p95_latency_cycles\": 30.0, \"p99_latency_cycles\": 40.0}]}"
            .into()
    }

    /// A throughput artifact: five 10×10 configs plus the 64×64 pair,
    /// the 1-thread run at 300 ms.
    fn bench(name: &str, t4_wall: f64, t4_grants: u64) -> String {
        let row = |id: &str, cycles: u64, wall: f64, grants: u64| {
            format!(
                "{{\"id\": \"{id}\", \"cycles\": {cycles}, \"flit_grants\": {grants}, \
                 \"wall_ms\": {wall:.1}, \"cycles_per_sec\": {:.1}, \
                 \"flit_grants_per_sec\": {:.1}, \"completed_messages\": 50}}",
                cycles as f64 / wall * 1e3,
                grants as f64 / wall * 1e3,
            )
        };
        let mut rows: Vec<String> =
            BENCH_IDS[..5].iter().map(|id| row(id, 1000, 10.0, 400)).collect();
        rows.push(row(BENCH_IDS[5], 700, 300.0, 30));
        rows.push(row(BENCH_IDS[6], 700, t4_wall, t4_grants));
        format!("{{\"name\": \"{name}\", \"configs\": [{}]}}", rows.join(", "))
    }

    fn trajectory(last_ids: &[&str]) -> String {
        let row = |ids: &[&str]| {
            let configs: Vec<String> = ids
                .iter()
                .map(|id| format!("{{\"id\": \"{id}\", \"cycles_per_sec\": 10.0}}"))
                .collect();
            format!("{{\"git\": \"g\", \"configs\": [{}]}}", configs.join(", "))
        };
        format!(
            "{{\"name\": \"BENCH_trajectory\", \"rows\": [{}, {}]}}",
            row(&BENCH_IDS),
            row(last_ids)
        )
    }

    /// A telemetry artifact on `routers` mesh routers: two samples tiling
    /// 1500 cycles, RF busy in the first and silent after a BandDown at
    /// cycle 900.
    fn telemetry(name: &str, routers: usize) -> String {
        let ones = |n: usize| vec!["1"; n].join(", ");
        format!(
            "{{\"name\": \"{name}\", \"interval\": 1000, \"routers\": {routers}, \
             \"end_cycle\": 1500, \"saturated\": true, \"completed_messages\": {routers}, \
             \"per_source\": [{}], \"per_dest\": [{}], \"link_grants\": [{}], \
             \"link_utilization\": [0.5, {}], \
             \"spans\": {{\"recorded\": 10, \"completed\": 8}}, \"samples\": [\
             {{\"start\": 0, \"cycles\": 1000, \"rf_grants\": 5, \
             \"latency_hist\": [1, 0, 0, 0, 0, 0, 0, 0]}}, \
             {{\"start\": 1000, \"cycles\": 500, \"rf_grants\": 0, \
             \"latency_hist\": [0, 0, 0, 0, 0, 0, 0, 0]}}], \
             \"events\": [{{\"cycle\": 900, \"kind\": \"Fault(BandDown)\"}}]}}",
            ones(routers),
            ones(routers),
            ones(routers * 6),
            ones(routers * 6 - 1),
        )
    }

    fn profile() -> String {
        "{\"name\": \"PROFILE_congestion\", \"runs\": [{\"label\": \"mesh\", \
         \"attribution\": {\"packets\": 10, \"total_cycles\": 280, \"component_sum\": 280, \
         \"source_queue\": 100, \"route\": 20, \"va_wait\": 50, \"switch\": 20, \
         \"sa_wait\": 30, \"credit_wait\": 5, \"link\": 40, \"tail_serialization\": 20}}], \
         \"covered_pair_comparison\": {\"pairs\": 4, \"mesh_avg_contention\": 8.0, \
         \"rf_avg_contention\": 3.0, \"rf_reduces_contention\": true}}"
            .into()
    }

    fn perfetto(instants: usize) -> String {
        let mut events = vec![
            "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", \
             \"args\": {\"name\": \"routers\"}}"
                .to_string(),
            "{\"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"ts\": 5, \"dur\": 3, \"name\": \"pkt 0\"}"
                .to_string(),
        ];
        for i in 0..instants {
            events.push(format!(
                "{{\"ph\": \"i\", \"pid\": 1, \"tid\": 0, \"ts\": {i}, \"s\": \"g\", \
                 \"name\": \"BandDown\"}}"
            ));
        }
        format!("{{\"traceEvents\": [{}]}}", events.join(", "))
    }

    /// The quick scaling grid, minus `skip`; 32×32 builds take `build_32`.
    fn scaling(skip: Option<(usize, &str, &str)>, build_32: f64) -> String {
        let mut points = Vec::new();
        for side in [10usize, 32] {
            for fabric in ["mesh", "ring"] {
                for design in ["mesh-only", "rf"] {
                    if skip == Some((side, fabric, design)) {
                        continue;
                    }
                    let build = if side == 32 { build_32 } else { 50.0 };
                    let shortcuts = if design == "rf" { 16 } else { 0 };
                    points.push(format!(
                        "{{\"side\": {side}, \"fabric\": \"{fabric}\", \"design\": \"{design}\", \
                         \"avg_latency_cycles\": 20.0, \"saturated\": false, \
                         \"shortcuts\": {shortcuts}, \"build_ms\": {build:.1}, \
                         \"sim_wall_ms\": 10.0, \"cycles_per_sec\": 1000.0, \
                         \"flit_grants_per_sec\": 100.0}}"
                    ));
                }
            }
        }
        format!("{{\"name\": \"BENCH_mesh_scaling\", \"points\": [{}]}}", points.join(", "))
    }

    fn resilience(name: &str) -> String {
        let profile = |id: &str| {
            format!(
                "{{\"id\": \"{id}\", \"worst_point\": \"p1\", \"degradation\": [\
                 {{\"id\": \"0.0\", \"runs\": 2, \"mean_norm_latency\": 1.0, \
                 \"mean_completion_rate\": 1.0, \"recovery_records\": 0, \
                 \"recovery_converged\": 0, \"mean_rewrite_cycles\": null, \
                 \"max_convergence_cycles\": 0}}, \
                 {{\"id\": \"1.0\", \"runs\": 2, \"mean_norm_latency\": 1.3, \
                 \"mean_completion_rate\": 0.9, \"recovery_records\": 4, \
                 \"recovery_converged\": 3, \"mean_rewrite_cycles\": 12.5, \
                 \"max_convergence_cycles\": 40}}]}}"
            )
        };
        format!(
            "{{\"name\": \"{name}\", \"adversarial_saturates_no_later\": true, \
             \"profiles\": [{}, {}, {}]}}",
            profile("expected"),
            profile("stress"),
            profile("adversarial")
        )
    }

    /// `text` with the first `from` replaced by `to`; panics if absent, so
    /// a fixture drifting away from its edit cannot pass vacuously.
    fn edit(text: &str, from: &str, to: &str) -> String {
        assert!(text.contains(from), "fixture lacks {from:?}");
        text.replacen(from, to, 1)
    }

    fn run(set: &[(&str, String)]) -> Report {
        let artifacts: Vec<Artifact> = set
            .iter()
            .map(|(stem, text)| Artifact::parse(text, stem).unwrap_or_else(|e| panic!("{e}")))
            .collect();
        check(&artifacts)
    }

    const OFF: &str = "BENCH_sim_throughput";
    const TEL: &str = "BENCH_sim_throughput_telemetry";
    const LED: &str = "BENCH_sim_throughput_ledger";
    const TRAJ: &str = "BENCH_trajectory";
    const CONG: &str = "TELEMETRY_congestion";
    const FAULT: &str = "TELEMETRY_fault_timeline";
    const PROF: &str = "PROFILE_congestion";
    const TRACE: &str = "PROFILE_trace";
    const SCALE: &str = "BENCH_mesh_scaling";
    const RES: &str = "RESILIENCE_resilience";

    /// Every artifact family, valid, in one set: relational bounds included.
    fn clean_set() -> Vec<(&'static str, String)> {
        vec![
            ("fig7", plan()),
            (OFF, bench(OFF, 100.0, 30)),
            (TEL, bench(TEL, 100.0, 30)),
            (LED, bench(LED, 100.0, 30)),
            (TRAJ, trajectory(&BENCH_IDS)),
            (CONG, telemetry(CONG, 100)),
            (FAULT, telemetry(FAULT, 100)),
            (PROF, profile()),
            (TRACE, perfetto(2)),
            (SCALE, scaling(None, 50.0)),
            (RES, resilience(RES)),
        ]
    }

    /// One case per check: a set holding one artifact broken in exactly
    /// that way (an edit of the first occurrence of a unique token).
    fn broken_cases() -> Vec<(&'static str, Vec<(&'static str, String)>)> {
        let (pl, pr, pf) = (plan(), profile(), perfetto(2));
        let (res, res_t) = (resilience(RES), resilience("RESILIENCE_t"));
        let (off, tel, led) = (bench(OFF, 100.0, 30), bench(TEL, 100.0, 30), bench(LED, 100.0, 30));
        let (traj, sc) = (trajectory(&BENCH_IDS), scaling(None, 50.0));
        let (cong, fault) = (telemetry(CONG, 100), telemetry(FAULT, 100));
        let one = |stem: &'static str, text: String| vec![(stem, text)];
        let with_off = |stem: &'static str, text: String| vec![(OFF, off.clone()), (stem, text)];
        vec![
            ("plan.points_present", one("fig7", edit(&pl, "[{", "[], \"x\": [{"))),
            ("plan.latency_positive", one("fig7", edit(&pl, "20.0", "0.0"))),
            ("plan.tail_ordered", one("fig7", edit(&pl, "30.0", "50.0"))),
            ("throughput.config_ids", one(OFF, edit(&off, "\"c2\"", "\"c1\""))),
            ("throughput.rates_positive", one(OFF, edit(&off, "messages\": 50", "messages\": 0"))),
            ("throughput.thread_determinism", one(OFF, bench(OFF, 100.0, 31))),
            ("throughput.speedup_floor", one(OFF, bench(OFF, 600.0, 30))),
            ("telemetry_overhead.same_runs", with_off(TEL, edit(&tel, ": 1000,", ": 1001,"))),
            ("telemetry_overhead.ratio", with_off(TEL, edit(&tel, "100000.0", "89000.0"))),
            ("ledger_overhead.same_runs", with_off(LED, edit(&led, "\"c5\"", "\"c6\""))),
            ("ledger_overhead.geomean", with_off(LED, edit(&led, "100000.0", "100.0"))),
            ("trajectory.rows", one(TRAJ, edit(&traj, "10.0", "0.0"))),
            ("trajectory.last_row_ids", with_off(TRAJ, trajectory(&BENCH_IDS[..6]))),
            ("telemetry.interval_positive", one(FAULT, edit(&fault, "val\": 1000", "val\": 0"))),
            ("telemetry.link_vectors", one(FAULT, edit(&fault, "[0.5, ", "["))),
            ("telemetry.endpoint_vectors", one(FAULT, edit(&fault, "ce\": [1, ", "ce\": ["))),
            ("telemetry.per_dest_sum", one(FAULT, edit(&fault, "ges\": 100", "ges\": 99"))),
            ("telemetry.samples_tile", one(FAULT, edit(&fault, "start\": 1000", "start\": 1001"))),
            ("telemetry.latency_hist", one(FAULT, edit(&fault, "[1, 0, 0, 0, 0, 0, 0, 0]", "[1]"))),
            ("telemetry.spans", one(FAULT, edit(&fault, "completed\": 8", "completed\": 11"))),
            ("telemetry.paper_grid", one(CONG, telemetry(CONG, 50))),
            ("telemetry.congestion_saturates", one(CONG, edit(&cong, "true", "false"))),
            ("telemetry.rf_silent_after_band_down", one(FAULT, edit(&fault, "ts\": 0", "ts\": 3"))),
            ("profile.runs_present", one(PROF, edit(&pr, "[{", "[], \"x\": [{"))),
            ("profile.attribution_reconciles", one(PROF, edit(&pr, "sum\": 280", "sum\": 281"))),
            ("profile.attribution_packets", one(PROF, edit(&pr, "packets\": 10", "packets\": 0"))),
            ("profile.covered_pairs", one(PROF, edit(&pr, "pairs\": 4", "pairs\": 0"))),
            ("profile.rf_reduces_contention", one(PROF, edit(&pr, "true", "false"))),
            ("perfetto.events_present", one("empty", "{\"traceEvents\": []}".into())),
            ("perfetto.phases", one(TRACE, edit(&pf, "\"i\"", "\"B\""))),
            ("perfetto.span_times", one(TRACE, edit(&pf, "dur\": 3", "dur\": 0"))),
            ("perfetto.metadata_names", one(TRACE, edit(&pf, "process_name", "bogus"))),
            ("perfetto.fault_instants", one(TRACE, perfetto(0))),
            ("scaling.point_rates", one(SCALE, edit(&sc, "wall_ms\": 10.0", "wall_ms\": 0.0"))),
            ("scaling.unsaturated", one(SCALE, edit(&sc, "false", "true"))),
            ("scaling.rf_has_shortcuts", one(SCALE, edit(&sc, ": 16,", ": 0,"))),
            ("scaling.quick_grid", one(SCALE, scaling(Some((32, "ring", "rf")), 50.0))),
            ("scaling.build_budget", one(SCALE, scaling(None, SCALING_BUILD_BUDGET_MS))),
            ("resilience.profiles", one("t", edit(&res_t, "[{", "[], \"x\": [{"))),
            ("resilience.paper_profiles", one(RES, edit(&res, "\"stress\"", "\"storm\""))),
            ("resilience.rungs", one(RES, edit(&res, "\"1.0\"", "\"0.0\""))),
            ("resilience.clean_rung", one(RES, edit(&res, "latency\": 1.0", "latency\": 1.1"))),
            ("resilience.rung_runs", one(RES, edit(&res, "0.9", "1.2"))),
            ("resilience.recovery_measured", one(RES, edit(&res, "12.5", "null"))),
            ("resilience.worst_point", one(RES, edit(&res, "\"p1\"", "\"\""))),
            ("resilience.adversarial_saturates_no_later", one(RES, edit(&res, "true", "false"))),
        ]
    }

    #[test]
    fn every_family_passes_clean() {
        let report = run(&clean_set());
        assert!(report.problems.is_empty(), "{:#?}", report.problems);
        assert!(report.notes.iter().any(|n| n.contains("ledger on/off geomean: 1.000")));
        assert!(report.notes.iter().any(|n| n.contains("speedup 3.00x")), "{:?}", report.notes);
    }

    #[test]
    fn every_check_is_live() {
        let cases = broken_cases();
        for (check, set) in &cases {
            let report = run(set);
            let failed: BTreeSet<&str> = report.problems.iter().map(|p| p.check).collect();
            assert_eq!(failed, BTreeSet::from([*check]), "{:#?}", report.problems);
        }
        let covered: BTreeSet<&str> = cases.iter().map(|(c, _)| *c).collect();
        let listed: BTreeSet<&str> = CHECKS.iter().copied().collect();
        assert_eq!(covered, listed, "every listed check needs one broken artifact");
        assert_eq!(CHECKS.len(), cases.len(), "one case per check");
    }

    #[test]
    fn scenario_claims_bind_only_their_scenario() {
        let lowload = edit(&profile(), "PROFILE_congestion", "PROFILE_lowload");
        let quiet = edit(&lowload, "true", "false");
        assert!(run(&[("PROFILE_lowload", quiet)]).problems.is_empty());
        assert!(run(&[("TELEMETRY_small", telemetry("TELEMETRY_small", 16))]).problems.is_empty());
        assert!(run(&[("PROFILE_small_trace", perfetto(0))]).problems.is_empty());
    }

    #[test]
    fn speedup_floor_scales_with_cores() {
        assert_eq!(speedup_floor(8), 1.5);
        assert_eq!(speedup_floor(4), 1.5);
        assert_eq!(speedup_floor(2), 1.1);
        assert_eq!(speedup_floor(1), 0.8);
    }

    #[test]
    fn unknown_or_malformed_artifacts_are_errors() {
        assert!(Artifact::parse("{\"name\": \"mystery\"}", "m").is_err());
        assert!(Artifact::parse("{\"points\": []}", "m").is_err());
        assert!(Artifact::parse("{\"name\": ", "m").is_err());
        assert_eq!(Artifact::parse(&plan(), "x").unwrap().name, "fig7");
        assert_eq!(Artifact::parse(&perfetto(1), "t").unwrap().name, "t");
        assert!(Artifact::read("/nonexistent/artifact.json").is_err());
    }
}

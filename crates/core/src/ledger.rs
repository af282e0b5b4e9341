//! Run-ledger aggregation: reads the JSONL stream the bench runner's
//! ledger sink writes (`results/ledger/<name>.jsonl`) and reduces it to
//! the numbers an operator actually wants — overall throughput, shard
//! balance, barrier-wait share, point-lifecycle progress, event counts.
//!
//! Two front ends in `rfnoc-cli` sit on top:
//!
//! * `rfnoc-cli tail <ledger.jsonl>` renders [`LedgerSummary::render_tail`]
//!   — a compact live view (throughput sparkline, slowest shard, worst
//!   imbalance ratio, ETA from the remaining plan points) — optionally
//!   re-rendering as the file grows (`--follow`).
//! * `rfnoc-cli ledger-summary <ledger.jsonl>` prints
//!   [`LedgerSummary::render_json`] — a flat JSON report whose metric
//!   names carry the [`crate::compare`] direction keywords
//!   (`kcycles_per_sec_*` must not fall; `barrier_wait_frac`,
//!   `*_imbalance` must not rise), so two summaries can be gated with
//!   `rfnoc-cli compare a.json b.json --threshold PCT` like any other
//!   artifact.
//!
//! Every line of the ledger is one flat JSON object tagged with `kind`
//! (`heartbeat` / `shard` / `event` from the engine, `plan_*` / `point_*`
//! from the runner) and stamped with `t_ms`. The engine's typed
//! [`LedgerRecord`]s are rendered here too ([`render_fields`],
//! [`render_jsonl`]), so one module owns both the writing and the
//! reading of those lines. The reader is strict about
//! JSON well-formedness (a malformed line is an error — a truncated final
//! line, the one legitimate mid-write artifact of `--follow`, is the only
//! exception) and tolerant about unknown kinds, which it counts but
//! otherwise ignores so the schema can grow.

use crate::json::{json_f64, json_str, parse, Json};
use rfnoc_sim::{LedgerRecord, TimelineEventKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An engine ledger record's JSON fields, without the surrounding braces
/// — so a sink can splice extra context (a timestamp, a plan-point id)
/// into the same flat object.
pub fn render_fields(rec: &LedgerRecord) -> String {
    let mut out = String::new();
    let _ = write!(out, "\"kind\": {}", json_str(rec.kind()));
    match rec {
        LedgerRecord::Heartbeat {
            cycle,
            cycles,
            wall_ms,
            kcycles_per_sec,
            in_flight,
            completed,
            active_routers,
        } => {
            let _ = write!(
                out,
                ", \"cycle\": {cycle}, \"cycles\": {cycles}, \"wall_ms\": {}, \
                 \"kcycles_per_sec\": {}, \"in_flight\": {in_flight}, \
                 \"completed\": {completed}, \"active_routers\": {active_routers}",
                json_f64(*wall_ms),
                json_f64(*kcycles_per_sec),
            );
        }
        LedgerRecord::Shard { cycle, shard, swept_routers, sweep_ms, barrier_ms, replay_ops } => {
            let _ = write!(
                out,
                ", \"cycle\": {cycle}, \"shard\": {shard}, \
                 \"swept_routers\": {swept_routers}, \"sweep_ms\": {}, \
                 \"barrier_ms\": {}, \"replay_ops\": {replay_ops}",
                json_f64(*sweep_ms),
                json_f64(*barrier_ms),
            );
        }
        LedgerRecord::Event { cycle, kind } => {
            let _ = write!(out, ", \"cycle\": {cycle}");
            match kind {
                TimelineEventKind::Fault(e) => {
                    let _ = write!(
                        out,
                        ", \"event\": \"fault\", \"detail\": {}",
                        json_str(&format!("{e:?}"))
                    );
                }
                TimelineEventKind::RetuneApplied { installed } => {
                    let _ = write!(
                        out,
                        ", \"event\": \"retune_applied\", \"installed\": {installed}"
                    );
                }
                TimelineEventKind::TablesRewritten => {
                    out.push_str(", \"event\": \"tables_rewritten\"");
                }
                TimelineEventKind::RecoveryConverged { fault_cycle, after } => {
                    let _ = write!(
                        out,
                        ", \"event\": \"recovery_converged\", \
                         \"fault_cycle\": {fault_cycle}, \"after\": {after}"
                    );
                }
                TimelineEventKind::WatchdogFired => {
                    out.push_str(", \"event\": \"watchdog_fired\"");
                }
            }
        }
    }
    out
}

/// An engine ledger record as one self-contained JSONL line (no trailing
/// newline).
pub fn render_jsonl(rec: &LedgerRecord) -> String {
    format!("{{{}}}", render_fields(rec))
}

/// Accumulated totals for one engine shard across every `shard` record.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ShardTotals {
    /// Total router visits this shard performed.
    pub swept_routers: f64,
    /// Total wall milliseconds spent sweeping.
    pub sweep_ms: f64,
    /// Total wall milliseconds spent waiting at cycle barriers.
    pub barrier_ms: f64,
    /// Total buffered cross-shard operations replayed.
    pub replay_ops: f64,
}

/// The reduced view of one ledger file. Build with
/// [`LedgerSummary::from_file`] or [`LedgerSummary::from_text`].
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LedgerSummary {
    /// Total well-formed records read.
    pub records: usize,
    /// Records with an unrecognised `kind` (counted, otherwise ignored).
    pub unknown_kinds: usize,
    /// First and last `t_ms` stamps seen (0/0 when empty).
    pub t_ms_span: (f64, f64),
    /// Heartbeat count.
    pub heartbeats: usize,
    /// Total simulated cycles covered by heartbeats.
    pub total_cycles: f64,
    /// Per-heartbeat `kcycles_per_sec` readings, in file order (feeds the
    /// tail sparkline).
    pub kcps: Vec<f64>,
    /// Last heartbeat's `in_flight` reading.
    pub in_flight_last: f64,
    /// Per-shard totals, keyed by shard index.
    pub shards: BTreeMap<u64, ShardTotals>,
    /// Timeline event counts keyed by event name (`fault`,
    /// `retune_applied`, ...).
    pub events: BTreeMap<String, usize>,
    /// Unique plan points announced by `plan_start` (dedup already
    /// applied), when a runner wrote this ledger.
    pub points_planned: Option<f64>,
    /// Worker threads the runner announced in `plan_start`.
    pub jobs: Option<f64>,
    /// Dedup cache hits announced in `plan_start`.
    pub dedup_hits: Option<f64>,
    /// Last heartbeat's `completed` reading (cumulative completed
    /// messages inside the current point's engine run).
    pub completed_last: f64,
    /// `point_queued` / `point_start` / `point_finish` record counts.
    pub points_queued: usize,
    /// Points that have started.
    pub points_started: usize,
    /// Points that have finished.
    pub points_finished: usize,
    /// Wall milliseconds of each finished point, in finish order.
    pub point_wall_ms: Vec<f64>,
    /// Total plan wall milliseconds, once `plan_finish` has been written.
    pub plan_wall_ms: Option<f64>,
    /// Schema violations found while reading (heartbeat cycles not
    /// strictly increasing within a point's stream, spans not tiling,
    /// missing required fields). Once `plan_finish` is read, also the
    /// stream's shape: the point lifecycle (queued, started and finished
    /// counts) must equal the planned count, the first record must be
    /// `plan_start`, and every record must carry `kind` and a
    /// non-decreasing `t_ms`. Empty on a healthy ledger.
    pub problems: Vec<String>,
}

impl LedgerSummary {
    /// Reads and reduces a ledger file.
    ///
    /// # Errors
    ///
    /// An unreadable file or a malformed (non-final) JSON line.
    pub fn from_file(path: &str) -> Result<Self, String> {
        let data = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Self::from_text(&data)
    }

    /// Reduces ledger text (one JSON object per line).
    ///
    /// # Errors
    ///
    /// A malformed JSON line, except a truncated *final* line — under
    /// `--follow` the writer may be mid-line; that line is ignored.
    pub fn from_text(data: &str) -> Result<Self, String> {
        let mut r = LedgerReader::new();
        let lines: Vec<&str> = data.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            match r.push_line(line) {
                Ok(()) => {}
                // A truncated final line is the expected artifact of
                // tailing a live file; anything earlier is corruption.
                Err(_) if i + 1 == lines.len() => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(r.into_summary())
    }

    fn note_heartbeat(
        &mut self,
        rec: &Json,
        point: &str,
        line: usize,
        hb_last: &mut BTreeMap<String, f64>,
    ) {
        self.heartbeats += 1;
        let num = |key| rec.get(key).and_then(Json::as_f64);
        let (Some(cycle), Some(cycles)) = (num("cycle"), num("cycles")) else {
            self.problems.push(format!("line {line}: heartbeat missing cycle/cycles"));
            return;
        };
        self.total_cycles += cycles;
        if let Some(k) = num("kcycles_per_sec") {
            self.kcps.push(k);
        }
        if let Some(f) = num("in_flight") {
            self.in_flight_last = f;
        }
        if let Some(c) = num("completed") {
            self.completed_last = c;
        }
        let prev = hb_last.get(point).copied().unwrap_or(0.0);
        if cycle <= prev {
            self.problems.push(format!(
                "line {line}: heartbeat cycle {cycle} not after previous {prev}"
            ));
        } else if (cycle - cycles - prev).abs() > 0.5 {
            self.problems.push(format!(
                "line {line}: heartbeat [{}, {cycle}) does not abut previous end {prev}",
                cycle - cycles
            ));
        }
        hb_last.insert(point.to_string(), cycle);
    }

    fn note_shard(&mut self, rec: &Json, line: usize) {
        let num = |key| rec.get(key).and_then(Json::as_f64);
        let Some(shard) = num("shard") else {
            self.problems.push(format!("line {line}: shard record missing shard index"));
            return;
        };
        let t = self.shards.entry(shard as u64).or_default();
        t.swept_routers += num("swept_routers").unwrap_or(0.0);
        t.sweep_ms += num("sweep_ms").unwrap_or(0.0);
        t.barrier_ms += num("barrier_ms").unwrap_or(0.0);
        t.replay_ops += num("replay_ops").unwrap_or(0.0);
    }

    /// Mean of the per-heartbeat throughput readings (0 when none).
    pub fn kcps_mean(&self) -> f64 {
        if self.kcps.is_empty() {
            return 0.0;
        }
        self.kcps.iter().sum::<f64>() / self.kcps.len() as f64
    }

    /// Peak per-heartbeat throughput reading (0 when none).
    pub fn kcps_max(&self) -> f64 {
        self.kcps.iter().copied().fold(0.0, f64::max)
    }

    /// Shard imbalance: max over mean of per-shard total sweep time.
    /// 1.0 is perfect balance; `None` without shard records.
    pub fn shard_imbalance(&self) -> Option<f64> {
        if self.shards.is_empty() {
            return None;
        }
        let times: Vec<f64> = self.shards.values().map(|t| t.sweep_ms).collect();
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        if mean <= 0.0 {
            return Some(1.0);
        }
        Some(times.iter().copied().fold(0.0, f64::max) / mean)
    }

    /// Share of sharded sweep wall time spent waiting at barriers:
    /// `Σ barrier / (Σ barrier + Σ sweep)`. `None` without shard records.
    pub fn barrier_wait_frac(&self) -> Option<f64> {
        if self.shards.is_empty() {
            return None;
        }
        let sweep: f64 = self.shards.values().map(|t| t.sweep_ms).sum();
        let barrier: f64 = self.shards.values().map(|t| t.barrier_ms).sum();
        let total = sweep + barrier;
        if total <= 0.0 {
            return Some(0.0);
        }
        Some(barrier / total)
    }

    /// The shard with the largest total sweep time, with that time.
    pub fn slowest_shard(&self) -> Option<(u64, f64)> {
        self.shards
            .iter()
            .map(|(&id, t)| (id, t.sweep_ms))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Estimated wall milliseconds to finish the remaining plan points:
    /// mean finished-point wall × remaining ÷ worker threads. `None`
    /// until at least one point has finished, or with no plan records.
    pub fn eta_ms(&self) -> Option<f64> {
        let planned = self.points_planned?;
        let remaining = planned - self.points_finished as f64;
        if remaining <= 0.0 || self.point_wall_ms.is_empty() {
            return None;
        }
        let mean = self.point_wall_ms.iter().sum::<f64>() / self.point_wall_ms.len() as f64;
        Some(mean * remaining / self.jobs.unwrap_or(1.0).max(1.0))
    }

    /// Renders the flat JSON report for `rfnoc-cli ledger-summary`.
    ///
    /// Metric names carry the [`crate::compare::direction_of`] keywords so
    /// two reports diff meaningfully: `kcycles_per_sec_*` is
    /// higher-is-better, `barrier_wait_frac` / `shard_imbalance` /
    /// `*_wall_ms` are lower-is-better, counts are informational. Shards
    /// render as an id-keyed array so `compare` aligns them by shard even
    /// across reordered reports.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"records\": {},", self.records);
        let _ = writeln!(out, "  \"heartbeats\": {},", self.heartbeats);
        let _ = writeln!(out, "  \"total_kcycles\": {},", json_f64(self.total_cycles / 1e3));
        let _ = writeln!(out, "  \"kcycles_per_sec_mean\": {},", json_f64(self.kcps_mean()));
        let _ = writeln!(out, "  \"kcycles_per_sec_max\": {},", json_f64(self.kcps_max()));
        let _ = writeln!(
            out,
            "  \"span_wall_ms\": {},",
            json_f64(self.t_ms_span.1 - self.t_ms_span.0)
        );
        if let Some(v) = self.shard_imbalance() {
            let _ = writeln!(out, "  \"shard_imbalance\": {},", json_f64(v));
        }
        if let Some(v) = self.barrier_wait_frac() {
            let _ = writeln!(out, "  \"barrier_wait_frac\": {},", json_f64(v));
        }
        if !self.shards.is_empty() {
            out.push_str("  \"shards\": [\n");
            let n = self.shards.len();
            for (i, (id, t)) in self.shards.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "    {{\"id\": {}, \"swept_routers\": {}, \"sweep_ms\": {}, \
                     \"barrier_ms\": {}, \"replay_ops\": {}}}{}",
                    json_str(&format!("shard{id}")),
                    json_f64(t.swept_routers),
                    json_f64(t.sweep_ms),
                    json_f64(t.barrier_ms),
                    json_f64(t.replay_ops),
                    if i + 1 == n { "" } else { "," },
                );
            }
            out.push_str("  ],\n");
        }
        if let Some(p) = self.points_planned {
            let _ = writeln!(out, "  \"points_planned\": {},", json_f64(p));
        }
        let _ = writeln!(out, "  \"points_finished\": {},", self.points_finished);
        if let Some(d) = self.dedup_hits {
            let _ = writeln!(out, "  \"dedup_hits\": {},", json_f64(d));
        }
        if let Some(w) = self.plan_wall_ms {
            let _ = writeln!(out, "  \"plan_wall_ms\": {},", json_f64(w));
        }
        if !self.events.is_empty() {
            out.push_str("  \"events\": {\n");
            let n = self.events.len();
            for (i, (name, count)) in self.events.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "    {}: {count}{}",
                    json_str(name),
                    if i + 1 == n { "" } else { "," }
                );
            }
            out.push_str("  },\n");
        }
        let _ = writeln!(out, "  \"schema_problems\": {}", self.problems.len());
        out.push_str("}\n");
        out
    }

    /// Renders the compact live view for `rfnoc-cli tail`.
    pub fn render_tail(&self) -> String {
        let mut out = String::new();
        let span_s = (self.t_ms_span.1 - self.t_ms_span.0) / 1e3;
        let _ = writeln!(
            out,
            "records: {} over {:.1} s  ({} heartbeats, {:.0} kcycles simulated)",
            self.records,
            span_s,
            self.heartbeats,
            self.total_cycles / 1e3,
        );
        if let Some(planned) = self.points_planned {
            let running = self.points_started.saturating_sub(self.points_finished);
            let queued =
                self.points_queued.saturating_sub(self.points_started);
            let _ = write!(
                out,
                "points: {}/{} finished ({running} running, {queued} queued",
                self.points_finished, planned as u64,
            );
            if let Some(d) = self.dedup_hits.filter(|&d| d > 0.0) {
                let _ = write!(out, ", dedup {}", d as u64);
            }
            out.push(')');
            match self.eta_ms() {
                Some(eta) => {
                    let _ = writeln!(out, "  ETA ~{:.1} s", eta / 1e3);
                }
                None => out.push('\n'),
            }
        }
        if !self.kcps.is_empty() {
            let _ = writeln!(
                out,
                "throughput: {}  mean {:.0} kcyc/s  max {:.0}  last {:.0}",
                sparkline(&self.kcps, 40),
                self.kcps_mean(),
                self.kcps_max(),
                self.kcps.last().copied().unwrap_or(0.0),
            );
        }
        if let (Some((slow, ms)), Some(imb), Some(bw)) =
            (self.slowest_shard(), self.shard_imbalance(), self.barrier_wait_frac())
        {
            let _ = writeln!(
                out,
                "shards ({}): slowest #{slow} ({ms:.1} ms swept), imbalance {imb:.2}x, \
                 barrier wait {:.1}%",
                self.shards.len(),
                bw * 100.0,
            );
        }
        if !self.events.is_empty() {
            let evs: Vec<String> =
                self.events.iter().map(|(k, v)| format!("{k}\u{d7}{v}")).collect();
            let _ = writeln!(out, "events: {}", evs.join(" "));
        }
        for p in &self.problems {
            let _ = writeln!(out, "PROBLEM: {p}");
        }
        out
    }
}

/// Incremental ledger reduction: feed JSONL lines one at a time and read
/// the running [`LedgerSummary`] between pushes. This is the engine under
/// [`LedgerSummary::from_text`] and under the live observatory hub
/// ([`crate::obs::ObsHub`]), which needs per-record aggregation without
/// re-reading the whole file on every `/metrics` request.
#[derive(Debug, Default, Clone)]
pub struct LedgerReader {
    summary: LedgerSummary,
    /// `point -> last heartbeat cycle` for monotonicity + tiling checks.
    hb_last: BTreeMap<String, f64>,
    /// Lines pushed so far (including blank and rejected ones) — the
    /// 1-based line number used in problem and error messages.
    lines_seen: usize,
    /// The most recent `t_ms` stamp, for the ordering check.
    last_t_ms: Option<f64>,
    /// Stream-order problems (first record not `plan_start`, a missing
    /// `kind`/`t_ms`, a `t_ms` regression) held back until `plan_finish`:
    /// a live file is not judged on them mid-write.
    deferred: Vec<String>,
    /// Whether `plan_finish` has been read.
    finished: bool,
}

impl LedgerReader {
    /// A reader with nothing pushed yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// The running reduction over everything pushed so far.
    pub fn summary(&self) -> &LedgerSummary {
        &self.summary
    }

    /// Consumes the reader, yielding the final reduction.
    pub fn into_summary(self) -> LedgerSummary {
        self.summary
    }

    /// Lines pushed so far (blank and malformed lines included).
    pub fn lines_seen(&self) -> usize {
        self.lines_seen
    }

    /// Feeds one ledger line. Blank lines are ignored (but counted for
    /// line numbering).
    ///
    /// # Errors
    ///
    /// Malformed JSON; the summary is unchanged by a rejected line, so
    /// the caller may drop it (truncated tail) or abort (corruption).
    pub fn push_line(&mut self, line: &str) -> Result<(), String> {
        self.lines_seen += 1;
        let line_no = self.lines_seen;
        if line.trim().is_empty() {
            return Ok(());
        }
        let rec = parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
        let num = |key| rec.get(key).and_then(Json::as_f64);
        let kind = rec.get("kind").and_then(Json::as_str);
        let t_ms = num("t_ms");
        let s = &mut self.summary;
        s.records += 1;
        if s.records == 1 && kind != Some("plan_start") {
            self.deferred.push(format!(
                "line {line_no}: first record is {}, not plan_start",
                kind.unwrap_or("untyped")
            ));
        }
        if kind.is_none() || t_ms.is_none() {
            self.deferred.push(format!("line {line_no}: record missing kind or t_ms"));
        }
        if let Some(t) = t_ms {
            if s.records == 1 {
                s.t_ms_span.0 = t;
            }
            s.t_ms_span.1 = s.t_ms_span.1.max(t);
            if let Some(last) = self.last_t_ms.filter(|&last| t < last - 1e-9) {
                self.deferred.push(format!("line {line_no}: t_ms {t} before previous {last}"));
            }
            self.last_t_ms = Some(t);
        }
        let point = rec.get("point").and_then(Json::as_str).unwrap_or("").to_string();
        match kind {
            Some("heartbeat") => s.note_heartbeat(&rec, &point, line_no, &mut self.hb_last),
            Some("shard") => s.note_shard(&rec, line_no),
            Some("event") => {
                let name = rec.get("event").and_then(Json::as_str).unwrap_or("unknown");
                *s.events.entry(name.to_string()).or_insert(0) += 1;
            }
            Some("plan_start") => {
                s.points_planned = num("unique").or_else(|| num("points"));
                s.jobs = num("jobs");
                s.dedup_hits = num("dedup_hits");
            }
            Some("point_queued") => s.points_queued += 1,
            Some("point_start") => s.points_started += 1,
            Some("point_finish") => {
                s.points_finished += 1;
                if let Some(w) = num("wall_ms") {
                    s.point_wall_ms.push(w);
                }
            }
            Some("plan_finish") => {
                s.plan_wall_ms = num("wall_ms");
                self.finished = true;
                let planned = s.points_planned;
                for (what, n) in [
                    ("queued", s.points_queued),
                    ("started", s.points_started),
                    ("finished", s.points_finished),
                ] {
                    if planned != Some(n as f64) {
                        s.problems.push(format!(
                            "line {line_no}: {n} points {what}, {} planned",
                            planned.map_or_else(|| "none".to_string(), |p| p.to_string())
                        ));
                    }
                }
            }
            _ => s.unknown_kinds += 1,
        }
        if self.finished {
            s.problems.append(&mut self.deferred);
        }
        Ok(())
    }
}

/// Renders a series as a fixed-width Unicode sparkline: values are
/// bucketed to at most `width` columns (bucket mean), scaled to the
/// series maximum.
pub fn sparkline(values: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}', '\u{2588}'];
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let cols = width.min(values.len());
    let per = values.len().div_ceil(cols);
    let buckets: Vec<f64> = values
        .chunks(per)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    let max = buckets.iter().copied().fold(0.0, f64::max);
    if max <= 0.0 {
        return BARS[0].to_string().repeat(buckets.len());
    }
    buckets
        .iter()
        .map(|&v| {
            let idx = ((v / max) * 7.0).round().clamp(0.0, 7.0) as usize;
            BARS[idx]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfnoc_sim::FaultEvent;

    /// One engine record of every kind, every event kind included.
    fn every_engine_record() -> Vec<LedgerRecord> {
        let mut recs = vec![
            LedgerRecord::Heartbeat {
                cycle: 1000,
                cycles: 500,
                wall_ms: 1.25,
                kcycles_per_sec: 400.0,
                in_flight: 7,
                completed: 93,
                active_routers: 64,
            },
            LedgerRecord::Shard {
                cycle: 1000,
                shard: 3,
                swept_routers: 1200,
                sweep_ms: 0.5,
                barrier_ms: f64::NAN,
                replay_ops: 42,
            },
        ];
        let events = [
            TimelineEventKind::Fault(FaultEvent::ShortcutDown { src: 4 }),
            TimelineEventKind::RetuneApplied { installed: 5 },
            TimelineEventKind::TablesRewritten,
            TimelineEventKind::RecoveryConverged { fault_cycle: 100, after: 23 },
            TimelineEventKind::WatchdogFired,
        ];
        recs.extend(events.into_iter().map(|kind| LedgerRecord::Event { cycle: 9, kind }));
        recs
    }

    #[test]
    fn engine_records_render_and_parse_back() {
        let recs = every_engine_record();
        let hb = render_jsonl(&recs[0]);
        assert_eq!(
            hb,
            "{\"kind\": \"heartbeat\", \"cycle\": 1000, \"cycles\": 500, \
             \"wall_ms\": 1.2500, \"kcycles_per_sec\": 400.0000, \"in_flight\": 7, \
             \"completed\": 93, \"active_routers\": 64}"
        );
        assert!(render_jsonl(&recs[1]).contains("\"barrier_ms\": null"));
        let fault = render_jsonl(&recs[2]);
        assert!(
            fault.ends_with("\"event\": \"fault\", \"detail\": \"ShortcutDown { src: 4 }\"}"),
            "{fault}"
        );
        assert!(render_jsonl(&recs[3]).contains("\"installed\": 5"));
        assert!(render_jsonl(&recs[6]).contains("\"event\": \"watchdog_fired\""));
        for rec in recs {
            let line = render_jsonl(&rec);
            assert!(!line.contains('\n'), "one record per line: {line}");
            let doc = parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(doc.get("kind").and_then(Json::as_str), Some(rec.kind()), "{line}");
            assert_eq!(doc.get("cycle").and_then(Json::as_f64), Some(rec.cycle() as f64), "{line}");
        }
    }

    const SAMPLE: &str = concat!(
        "{\"t_ms\": 0.100, \"kind\": \"plan_start\", \"points\": 4, \"unique\": 3, ",
        "\"dedup_hits\": 1, \"jobs\": 2, \"sim_threads\": 4}\n",
        "{\"t_ms\": 0.200, \"kind\": \"point_queued\", \"point\": \"a\"}\n",
        "{\"t_ms\": 0.210, \"kind\": \"point_queued\", \"point\": \"b\"}\n",
        "{\"t_ms\": 0.220, \"kind\": \"point_queued\", \"point\": \"c\"}\n",
        "{\"t_ms\": 0.300, \"kind\": \"point_start\", \"point\": \"a\"}\n",
        "{\"t_ms\": 1.000, \"point\": \"a\", \"kind\": \"heartbeat\", \"cycle\": 2000, ",
        "\"cycles\": 2000, \"wall_ms\": 0.5, \"kcycles_per_sec\": 100.0, ",
        "\"in_flight\": 5, \"completed\": 10, \"active_routers\": 16}\n",
        "{\"t_ms\": 1.100, \"point\": \"a\", \"kind\": \"shard\", \"cycle\": 2000, ",
        "\"shard\": 0, \"swept_routers\": 900, \"sweep_ms\": 3.0, ",
        "\"barrier_ms\": 1.0, \"replay_ops\": 40}\n",
        "{\"t_ms\": 1.200, \"point\": \"a\", \"kind\": \"shard\", \"cycle\": 2000, ",
        "\"shard\": 1, \"swept_routers\": 700, \"sweep_ms\": 1.0, ",
        "\"barrier_ms\": 3.0, \"replay_ops\": 20}\n",
        "{\"t_ms\": 1.500, \"point\": \"a\", \"kind\": \"event\", \"cycle\": 2100, ",
        "\"event\": \"fault\", \"detail\": \"ShortcutDown { id: 3 }\"}\n",
        "{\"t_ms\": 2.000, \"point\": \"a\", \"kind\": \"heartbeat\", \"cycle\": 3500, ",
        "\"cycles\": 1500, \"wall_ms\": 1.5, \"kcycles_per_sec\": 300.0, ",
        "\"in_flight\": 2, \"completed\": 40, \"active_routers\": 12}\n",
        "{\"t_ms\": 2.500, \"kind\": \"point_finish\", \"point\": \"a\", ",
        "\"wall_ms\": 2.2, \"avg_latency\": 21.5, \"saturated\": false, ",
        "\"healthy\": true}\n",
    );

    #[test]
    fn sample_ledger_reduces() {
        let s = LedgerSummary::from_text(SAMPLE).unwrap();
        assert_eq!(s.records, 11);
        assert_eq!(s.heartbeats, 2);
        assert!((s.total_cycles - 3500.0).abs() < 1e-9);
        assert_eq!(s.kcps, vec![100.0, 300.0]);
        assert!((s.kcps_mean() - 200.0).abs() < 1e-9);
        assert_eq!(s.points_planned, Some(3.0));
        assert_eq!(s.points_queued, 3);
        assert_eq!(s.points_started, 1);
        assert_eq!(s.points_finished, 1);
        assert_eq!(s.events.get("fault"), Some(&1));
        assert!(s.problems.is_empty(), "{:?}", s.problems);
        // Shards: sweep 3+1, barrier 1+3 → imbalance 1.5, wait frac 0.5.
        assert!((s.shard_imbalance().unwrap() - 1.5).abs() < 1e-9);
        assert!((s.barrier_wait_frac().unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(s.slowest_shard(), Some((0, 3.0)));
        // ETA: 2 remaining × 2.2 ms mean ÷ 2 jobs = 2.2 ms.
        assert!((s.eta_ms().unwrap() - 2.2).abs() < 1e-9);
    }

    #[test]
    fn summary_json_is_parseable_and_directional() {
        let s = LedgerSummary::from_text(SAMPLE).unwrap();
        let json = s.render_json();
        let doc = parse(&json).expect("summary must be valid JSON");
        let flat = crate::compare::flatten(&doc);
        assert!(flat.contains_key("kcycles_per_sec_mean"));
        assert!(flat.contains_key("barrier_wait_frac"));
        assert!(flat.contains_key("shards[shard0].sweep_ms"));
        use crate::compare::{direction_of, Direction};
        assert_eq!(direction_of("kcycles_per_sec_mean"), Direction::HigherIsBetter);
        assert_eq!(direction_of("barrier_wait_frac"), Direction::LowerIsBetter);
        assert_eq!(direction_of("shard_imbalance"), Direction::LowerIsBetter);
    }

    #[test]
    fn monotonicity_violations_are_flagged() {
        let bad = concat!(
            "{\"t_ms\": 1.0, \"kind\": \"heartbeat\", \"cycle\": 2000, \"cycles\": 2000, ",
            "\"wall_ms\": 1.0, \"kcycles_per_sec\": 1.0, \"in_flight\": 0, ",
            "\"completed\": 0, \"active_routers\": 0}\n",
            "{\"t_ms\": 2.0, \"kind\": \"heartbeat\", \"cycle\": 1500, \"cycles\": 500, ",
            "\"wall_ms\": 2.0, \"kcycles_per_sec\": 1.0, \"in_flight\": 0, ",
            "\"completed\": 0, \"active_routers\": 0}\n",
        );
        let s = LedgerSummary::from_text(bad).unwrap();
        assert_eq!(s.problems.len(), 1, "{:?}", s.problems);
        // A gap (non-abutting spans) is also flagged.
        let gap = concat!(
            "{\"t_ms\": 1.0, \"kind\": \"heartbeat\", \"cycle\": 2000, \"cycles\": 2000, ",
            "\"wall_ms\": 1.0, \"kcycles_per_sec\": 1.0, \"in_flight\": 0, ",
            "\"completed\": 0, \"active_routers\": 0}\n",
            "{\"t_ms\": 2.0, \"kind\": \"heartbeat\", \"cycle\": 5000, \"cycles\": 1000, ",
            "\"wall_ms\": 2.0, \"kcycles_per_sec\": 1.0, \"in_flight\": 0, ",
            "\"completed\": 0, \"active_routers\": 0}\n",
        );
        assert_eq!(LedgerSummary::from_text(gap).unwrap().problems.len(), 1);
    }

    /// A complete one-point plan: balanced lifecycle, ordered stamps.
    const FINISHED: [&str; 5] = [
        "{\"t_ms\": 0.1, \"kind\": \"plan_start\", \"points\": 1, \"unique\": 1, \"jobs\": 1}",
        "{\"t_ms\": 0.2, \"kind\": \"point_queued\", \"point\": \"a\"}",
        "{\"t_ms\": 0.3, \"kind\": \"point_start\", \"point\": \"a\"}",
        "{\"t_ms\": 0.4, \"kind\": \"point_finish\", \"point\": \"a\", \"wall_ms\": 0.1}",
        "{\"t_ms\": 0.5, \"kind\": \"plan_finish\", \"wall_ms\": 0.4}",
    ];

    /// The problems of `FINISHED` with line `i` replaced by `with`
    /// (`None` drops it), plus an optional record prepended.
    fn finished_problems(edit: Option<(usize, Option<&str>)>, first: Option<&str>) -> Vec<String> {
        let mut lines: Vec<&str> = FINISHED.to_vec();
        if let Some((i, with)) = edit {
            match with {
                Some(w) => lines[i] = w,
                None => {
                    lines.remove(i);
                }
            }
        }
        if let Some(f) = first {
            lines.insert(0, f);
        }
        LedgerSummary::from_text(&lines.join("\n")).unwrap().problems
    }

    fn assert_one_problem(problems: &[String], needle: &str) {
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains(needle), "{problems:?}");
    }

    #[test]
    fn finished_plan_is_clean() {
        assert!(finished_problems(None, None).is_empty());
    }

    #[test]
    fn finished_plan_flags_lifecycle_imbalance() {
        let problems = finished_problems(Some((2, None)), None);
        assert_one_problem(&problems, "0 points started, 1 planned");
    }

    #[test]
    fn finished_plan_flags_t_ms_regression() {
        let late = "{\"t_ms\": 0.05, \"kind\": \"point_start\", \"point\": \"a\"}";
        assert_one_problem(&finished_problems(Some((2, Some(late))), None), "t_ms 0.05 before");
    }

    #[test]
    fn finished_plan_flags_missing_kind_or_t_ms() {
        let unstamped = "{\"kind\": \"point_start\", \"point\": \"a\"}";
        let problems = finished_problems(Some((2, Some(unstamped))), None);
        assert_one_problem(&problems, "line 3: record missing kind or t_ms");
        let untyped = "{\"t_ms\": 0.3, \"point\": \"a\"}";
        let problems = finished_problems(Some((1, Some(untyped))), None);
        assert_eq!(problems.len(), 2, "missing kind, and one point never queued: {problems:?}");
        assert!(problems.iter().any(|p| p.contains("record missing kind")), "{problems:?}");
    }

    #[test]
    fn finished_plan_flags_first_record_not_plan_start() {
        let early = "{\"t_ms\": 0.0, \"kind\": \"event\", \"event\": \"fault\"}";
        let problems = finished_problems(None, Some(early));
        assert_one_problem(&problems, "first record is event, not plan_start");
    }

    #[test]
    fn live_stream_is_not_judged_on_order_until_plan_finish() {
        let late = "{\"t_ms\": 0.05, \"kind\": \"point_start\", \"point\": \"a\"}";
        let live = [FINISHED[1], FINISHED[0], late].join("\n");
        assert!(LedgerSummary::from_text(&live).unwrap().problems.is_empty());
        let done = [FINISHED[1], FINISHED[0], late, FINISHED[3], FINISHED[4]].join("\n");
        assert_eq!(LedgerSummary::from_text(&done).unwrap().problems.len(), 3);
    }

    #[test]
    fn truncated_final_line_is_tolerated() {
        let text = concat!(
            "{\"t_ms\": 1.0, \"kind\": \"point_queued\", \"point\": \"a\"}\n",
            "{\"t_ms\": 2.0, \"kind\": \"point_st",
        );
        let s = LedgerSummary::from_text(text).unwrap();
        assert_eq!(s.records, 1);
        // ... but an early malformed line is an error.
        let bad = concat!(
            "{\"t_ms\": 2.0, \"kind\": \"point_st\n",
            "{\"t_ms\": 1.0, \"kind\": \"point_queued\", \"point\": \"a\"}\n",
        );
        assert!(LedgerSummary::from_text(bad).is_err());
    }

    #[test]
    fn sparkline_buckets_and_scales() {
        assert_eq!(sparkline(&[], 10), "");
        assert_eq!(sparkline(&[0.0, 0.0], 10), "\u{2581}\u{2581}");
        let line = sparkline(&[1.0, 2.0, 4.0, 8.0], 4);
        assert_eq!(line.chars().count(), 4);
        assert!(line.ends_with('\u{2588}'));
        // 8 values into 4 columns: bucketed by pairs.
        assert_eq!(sparkline(&[1.0; 8], 4).chars().count(), 4);
    }

    #[test]
    fn tail_renders_key_lines() {
        let s = LedgerSummary::from_text(SAMPLE).unwrap();
        let tail = s.render_tail();
        assert!(tail.contains("points: 1/3 finished"), "{tail}");
        assert!(tail.contains("ETA"), "{tail}");
        assert!(tail.contains("slowest #0"), "{tail}");
        assert!(tail.contains("barrier wait 50.0%"), "{tail}");
        assert!(tail.contains("fault\u{d7}1"), "{tail}");
    }
}

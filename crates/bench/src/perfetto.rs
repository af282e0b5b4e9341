//! Perfetto/Chrome `trace_event` export of a profiled run.
//!
//! Converts a [`TelemetryReport`] recorded with the PROFILE channel into
//! the JSON trace-event format that `ui.perfetto.dev` (and Chrome's
//! `about:tracing`) loads directly: one track per router (pid 1, tid =
//! router id) and one per RF band (pid 2, tid = band index), a complete
//! `ph:"X"` span per recorded hop (duration = the head flit's occupancy
//! of that router, with the VA/SA/credit wait split in `args`), and a
//! `ph:"i"` instant per fault/retune timeline event. Cycle numbers are
//! emitted as microsecond timestamps, so 1 µs on the Perfetto ruler reads
//! as 1 simulated cycle.

use crate::artifact::json_str;
use crate::telemetry::port_name;
use rfnoc_sim::TelemetryReport;
use rfnoc_topology::{GridDims, Shortcut};
use std::path::PathBuf;

/// Synthetic process ids grouping the tracks.
const PID_ROUTERS: u32 = 1;
const PID_BANDS: u32 = 2;

/// Static description of the traced system: geometry for track names and
/// the shortcut set for the per-band tracks.
pub struct TraceSpec<'a> {
    /// Mesh geometry (names the router tracks by coordinate).
    pub dims: GridDims,
    /// RF shortcuts; hops granted to the RF port are mirrored onto the
    /// band track of their source router.
    pub shortcuts: &'a [Shortcut],
    /// Hop spans to emit at most (a Perfetto UI comfort cap, not a data
    /// cap); truncation is surfaced as an instant event in the trace.
    pub max_span_events: usize,
}

impl TraceSpec<'_> {
    fn band_of(&self, router: u32) -> Option<usize> {
        self.shortcuts.iter().position(|s| s.src == router as usize)
    }
}

/// Renders the trace JSON (`{"traceEvents": [...]}`) for one run.
pub fn render_trace(report: &TelemetryReport, spec: &TraceSpec<'_>) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    let mut push = |out: &mut String, event: String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str("  ");
        out.push_str(&event);
    };

    // Metadata: name the processes and one thread per router track.
    push(&mut out, meta_event(PID_ROUTERS, None, "process_name", "routers"));
    for r in 0..spec.dims.nodes() {
        let name = format!("router {}", spec.dims.coord_of(r));
        push(&mut out, meta_event(PID_ROUTERS, Some(r as u32), "thread_name", &name));
    }
    if !spec.shortcuts.is_empty() {
        push(&mut out, meta_event(PID_BANDS, None, "process_name", "rf bands"));
        for (b, s) in spec.shortcuts.iter().enumerate() {
            let name = format!(
                "band {} -> {}",
                spec.dims.coord_of(s.src),
                spec.dims.coord_of(s.dst)
            );
            push(&mut out, meta_event(PID_BANDS, Some(b as u32), "thread_name", &name));
        }
    }

    // One complete span per recorded hop, on its router's track; RF hops
    // are mirrored onto their band's track.
    let truncated = report.hops.len().saturating_sub(spec.max_span_events);
    for h in report.hops.iter().take(spec.max_span_events) {
        let span = span_event(
            PID_ROUTERS,
            h.router,
            h.arrived_at,
            h.occupancy().max(1),
            &format!(
                "pkt {} {}->{}",
                h.packet,
                port_name(report, h.port_in as usize),
                port_name(report, h.port_out as usize)
            ),
            h.va_wait(),
            h.sa_wait(),
            h.credit_waits,
        );
        push(&mut out, span);
        if h.port_out as usize == report.ports - 1 {
            if let Some(b) = spec.band_of(h.router) {
                let band_span = span_event(
                    PID_BANDS,
                    b as u32,
                    h.arrived_at,
                    h.occupancy().max(1),
                    &format!("pkt {} on band", h.packet),
                    h.va_wait(),
                    h.sa_wait(),
                    h.credit_waits,
                );
                push(&mut out, band_span);
            }
        }
    }

    // Fault/retune instants on the router process's first track.
    for e in &report.events {
        let ev = format!(
            "{{\"ph\": \"i\", \"pid\": {PID_ROUTERS}, \"tid\": 0, \"ts\": {}, \"s\": \"g\", \"name\": {}}}",
            e.cycle,
            json_str(&e.kind.to_string())
        );
        push(&mut out, ev);
    }
    if truncated > 0 || report.dropped_hops > 0 {
        let note = format!(
            "trace truncated: {truncated} hop spans omitted, {} dropped at capture",
            report.dropped_hops
        );
        let ev = format!(
            "{{\"ph\": \"i\", \"pid\": {PID_ROUTERS}, \"tid\": 0, \"ts\": 0, \"s\": \"g\", \"name\": {}}}",
            json_str(&note)
        );
        push(&mut out, ev);
    }

    out.push_str("\n]}\n");
    out
}

fn meta_event(pid: u32, tid: Option<u32>, kind: &str, name: &str) -> String {
    let tid = tid.unwrap_or(0);
    format!(
        "{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \"name\": {}, \"args\": {{\"name\": {}}}}}",
        json_str(kind),
        json_str(name)
    )
}

#[allow(clippy::too_many_arguments)]
fn span_event(
    pid: u32,
    tid: u32,
    ts: u64,
    dur: u64,
    name: &str,
    va_wait: u64,
    sa_wait: u64,
    credit_waits: u32,
) -> String {
    format!(
        "{{\"ph\": \"X\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {ts}, \"dur\": {dur}, \
         \"name\": {}, \"args\": {{\"va_wait\": {va_wait}, \"sa_wait\": {sa_wait}, \
         \"credit_waits\": {credit_waits}}}}}",
        json_str(name)
    )
}

/// Writes the trace to `results/json/<name>.json`, logging (not
/// propagating) I/O failures; returns the path on success.
pub fn write_trace(
    name: &str,
    report: &TelemetryReport,
    spec: &TraceSpec<'_>,
) -> Option<PathBuf> {
    let path = PathBuf::from(format!("results/json/{name}.json"));
    if let Some(dir) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("perfetto: cannot create {}: {e}", dir.display());
            return None;
        }
    }
    match std::fs::write(&path, render_trace(report, spec)) {
        Ok(()) => {
            eprintln!("perfetto: wrote {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("perfetto: cannot write {}: {e}", path.display());
            None
        }
    }
}

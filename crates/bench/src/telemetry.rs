//! Telemetry artifacts: JSON export and link-utilization helpers for
//! [`rfnoc_sim::TelemetryReport`] time series.
//!
//! The simulator's telemetry layer produces interval samples, packet
//! spans, and a fault/retune event timeline; this module turns one run's
//! report into the repo's standard artifacts: `results/json/<name>.json`
//! (hand-rolled flat JSON, like `artifact.rs`). The per-interval table is
//! [`rfnoc::timeline::render`]; the SVG congestion heatmap lives in
//! [`crate::svg`].

use crate::artifact::{git_describe, json_f64, json_str};
use rfnoc_sim::{latency_bucket_bounds, RunStats, TelemetryReport, LATENCY_BUCKETS};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Output ports per router on the plain mesh (N, S, E, W, Local, RF) —
/// mirrors the simulator's mesh port order. Reports from other fabrics
/// carry their own stride in [`TelemetryReport::ports`]; use
/// [`port_name`] instead of indexing [`PORT_NAMES`] directly.
pub const NUM_PORTS: usize = 6;

/// Display names of the six mesh output ports.
pub const PORT_NAMES: [&str; NUM_PORTS] = ["N", "S", "E", "W", "Local", "RF"];

/// Index of the first non-mesh port (Local) on the plain mesh; ports
/// `0..MESH_PORTS` are the four conventional mesh links.
pub const MESH_PORTS: usize = 4;

/// Display name of output port `port` for a report's fabric: the mesh
/// names when the stride matches the mesh, generic `p<N>` slots otherwise
/// (ring-mesh routers have per-router degrees, so flat slots have no
/// single global meaning).
pub fn port_name(report: &TelemetryReport, port: usize) -> String {
    if report.ports == NUM_PORTS && port < NUM_PORTS {
        PORT_NAMES[port].to_string()
    } else {
        format!("p{port}")
    }
}

/// Number of fabric (non local/RF) port slots in a report's stride.
fn fabric_slots(report: &TelemetryReport) -> usize {
    report.ports.saturating_sub(2)
}

/// Cycles covered by the report's samples (the whole run, warmup and
/// drain included).
pub fn covered_cycles(report: &TelemetryReport) -> u64 {
    report.samples.iter().map(|s| s.cycles).sum()
}

/// Whole-run utilization of one output port from the telemetry time
/// series: total grants over total cycles, against a per-cycle flit
/// capacity. Returns 0.0 when the links channel was off.
pub fn port_utilization(report: &TelemetryReport, r: usize, port: usize, capacity: u32) -> f64 {
    let cycles = covered_cycles(report);
    let totals = report.total_port_grants();
    if cycles == 0 || totals.is_empty() {
        return 0.0;
    }
    totals[r * report.ports + port] as f64 / (cycles as f64 * f64::from(capacity.max(1)))
}

/// Per-router mean mesh-link utilization — the heat vector for
/// [`crate::svg::render_topology`], scaled so ~35% saturates the colour.
pub fn mesh_heat(report: &TelemetryReport) -> Vec<f64> {
    let slots = fabric_slots(report).max(1);
    (0..report.routers)
        .map(|r| {
            let mesh: f64 = (0..slots)
                .map(|p| port_utilization(report, r, p, 1))
                .sum::<f64>()
                / slots as f64;
            (mesh / 0.35).min(1.0)
        })
        .collect()
}

/// Flattened directed per-port utilization (`router * report.ports +
/// port`, capacity 1) for the link heatmap. Empty when the links channel
/// was off.
pub fn link_utilization(report: &TelemetryReport) -> Vec<f64> {
    let cycles = covered_cycles(report).max(1) as f64;
    report
        .total_port_grants()
        .iter()
        .map(|&g| g as f64 / cycles)
        .collect()
}

/// The `k` hottest output ports by total grants: `(router, port, grants)`
/// in descending order.
pub fn hottest_ports(report: &TelemetryReport, k: usize) -> Vec<(usize, usize, u64)> {
    let totals = report.total_port_grants();
    let mut ports: Vec<(usize, usize, u64)> = totals
        .iter()
        .enumerate()
        .map(|(i, &g)| (i / report.ports, i % report.ports, g))
        .collect();
    ports.sort_by_key(|&(_, _, g)| std::cmp::Reverse(g));
    ports.truncate(k);
    ports
}

/// Renders the full telemetry JSON artifact for one run.
///
/// The schema is flat: run provenance, whole-run link totals, the
/// per-endpoint completion counters from `stats`, a span digest, the
/// interval time series, and the event timeline.
pub fn render_json(name: &str, stats: &RunStats, report: &TelemetryReport) -> String {
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"name\": {},", json_str(name));
    let _ = writeln!(out, "  \"git\": {},", json_str(&git_describe()));
    let _ = writeln!(out, "  \"generated_unix\": {unix},");
    let _ = writeln!(out, "  \"interval\": {},", report.interval);
    let _ = writeln!(out, "  \"routers\": {},", report.routers);
    let _ = writeln!(out, "  \"channels\": {},", report.channels.0);
    let _ = writeln!(out, "  \"end_cycle\": {},", stats.end_cycle);
    let _ = writeln!(out, "  \"saturated\": {},", stats.saturated);
    let _ = writeln!(out, "  \"injected_messages\": {},", stats.injected_messages);
    let _ = writeln!(out, "  \"completed_messages\": {},", stats.completed_messages);

    let join_u64 = |v: &[u64]| {
        v.iter().map(u64::to_string).collect::<Vec<_>>().join(", ")
    };
    let _ = writeln!(
        out,
        "  \"per_source\": [{}],",
        stats.per_source.iter().map(u32::to_string).collect::<Vec<_>>().join(", ")
    );
    let _ = writeln!(
        out,
        "  \"per_dest\": [{}],",
        stats.per_dest.iter().map(u32::to_string).collect::<Vec<_>>().join(", ")
    );
    let _ = writeln!(out, "  \"link_grants\": [{}],", join_u64(&report.total_port_grants()));
    let _ = writeln!(
        out,
        "  \"link_utilization\": [{}],",
        link_utilization(report).iter().map(|&u| json_f64(u)).collect::<Vec<_>>().join(", ")
    );
    let rf_total: u64 = report.samples.iter().map(|s| s.rf_grants).sum();
    let rf_mc_total: u64 = report.samples.iter().map(|s| s.rf_mc_flits).sum();
    let _ = writeln!(out, "  \"rf_grants_total\": {rf_total},");
    let _ = writeln!(out, "  \"rf_mc_flits_total\": {rf_mc_total},");

    let completed_spans = report.spans.iter().filter(|s| s.is_complete()).count();
    let rf_spans = report.spans.iter().filter(|s| s.took_rf).count();
    let latency_sum: u64 =
        report.spans.iter().filter_map(rfnoc_sim::PacketSpan::latency).sum();
    let avg_span_latency = if completed_spans > 0 {
        latency_sum as f64 / completed_spans as f64
    } else {
        f64::NAN
    };
    out.push_str("  \"spans\": {");
    let _ = write!(out, "\"recorded\": {}, ", report.spans.len());
    let _ = write!(out, "\"dropped\": {}, ", report.dropped_spans);
    let _ = write!(out, "\"completed\": {completed_spans}, ");
    let _ = write!(out, "\"took_rf\": {rf_spans}, ");
    let _ = writeln!(out, "\"avg_latency_cycles\": {}}},", json_f64(avg_span_latency));

    let edges: Vec<String> = (0..LATENCY_BUCKETS)
        .map(|i| latency_bucket_bounds(i).0.to_string())
        .collect();
    let _ = writeln!(out, "  \"latency_bucket_lower_edges\": [{}],", edges.join(", "));

    out.push_str("  \"samples\": [\n");
    for (i, s) in report.samples.iter().enumerate() {
        out.push_str("    {");
        let _ = write!(out, "\"start\": {}, ", s.start);
        let _ = write!(out, "\"cycles\": {}, ", s.cycles);
        let _ = write!(out, "\"injected\": {}, ", s.injected);
        let _ = write!(out, "\"ejected_flits\": {}, ", s.ejected_flits);
        let _ = write!(out, "\"completed_packets\": {}, ", s.completed_packets);
        let _ = write!(out, "\"in_flight_end\": {}, ", s.in_flight_end);
        let _ = write!(out, "\"rf_grants\": {}, ", s.rf_grants);
        let _ = write!(out, "\"rf_mc_flits\": {}, ", s.rf_mc_flits);
        let _ = write!(out, "\"va_stalls\": {}, ", s.va_stalls);
        let _ = write!(out, "\"sa_stalls\": {}, ", s.sa_stalls);
        let _ = write!(out, "\"credit_stalls\": {}, ", s.credit_stalls);
        let _ = write!(
            out,
            "\"mesh_utilization\": {}, ",
            json_f64(report.sample_mesh_utilization(i))
        );
        let peak = s.buffered_peak.iter().copied().max().unwrap_or(0);
        let _ = write!(out, "\"peak_buffered\": {peak}, ");
        let _ = write!(out, "\"latency_hist\": [{}]", join_u64(&s.latency_hist));
        out.push('}');
        out.push_str(if i + 1 < report.samples.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");

    out.push_str("  \"events\": [\n");
    for (i, e) in report.events.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"cycle\": {}, \"kind\": {}}}",
            e.cycle,
            json_str(&e.kind.to_string())
        );
        out.push_str(if i + 1 < report.events.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes the telemetry JSON artifact to `results/json/<name>.json`,
/// logging (not propagating) I/O failures; returns the path on success.
pub fn write_json(name: &str, stats: &RunStats, report: &TelemetryReport) -> Option<PathBuf> {
    let path = PathBuf::from(format!("results/json/{name}.json"));
    if let Some(dir) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("telemetry: cannot create {}: {e}", dir.display());
            return None;
        }
    }
    match std::fs::write(&path, render_json(name, stats, report)) {
        Ok(()) => {
            eprintln!("telemetry: wrote {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("telemetry: cannot write {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfnoc_sim::{
        MessageClass, MessageSpec, Network, NetworkSpec, ScriptedWorkload, SimConfig,
        TelemetryConfig,
    };
    use rfnoc_topology::GridDims;

    fn telemetry_run() -> RunStats {
        let mut cfg = SimConfig::paper_baseline();
        cfg.warmup_cycles = 0;
        cfg.measure_cycles = 400;
        cfg.drain_cycles = 5_000;
        cfg.telemetry = Some(TelemetryConfig::every(128));
        let spec = NetworkSpec::mesh_baseline(GridDims::new(4, 4), cfg);
        let mut network = Network::new(spec);
        // dst = 5·src+1 mod 16 never equals src (4·src+1 is odd).
        let events: Vec<(u64, MessageSpec)> = (0..60u64)
            .map(|i| {
                let src = (i % 16) as usize;
                let dst = ((i * 5 + 1) % 16) as usize;
                (i * 4, MessageSpec::unicast(src, dst, MessageClass::Data))
            })
            .collect();
        network.run(&mut ScriptedWorkload::new(events))
    }

    #[test]
    fn json_artifact_is_parseable_shape() {
        let stats = telemetry_run();
        let report = stats.telemetry.as_ref().expect("telemetry on");
        let json = render_json("TELEMETRY_test", &stats, report);
        let artifact = rfnoc::validate::Artifact::parse(&json, "TELEMETRY_test").unwrap();
        let report = rfnoc::validate::check(&[artifact]);
        assert!(report.problems.is_empty(), "{:?}", report.problems);
    }

    #[test]
    fn utilization_helpers_are_consistent() {
        let stats = telemetry_run();
        let report = stats.telemetry.as_ref().expect("telemetry on");
        assert_eq!(covered_cycles(report), stats.end_cycle);
        let util = link_utilization(report);
        assert_eq!(report.ports, NUM_PORTS, "mesh run has the mesh stride");
        assert_eq!(util.len(), report.routers * report.ports);
        assert!(util.iter().all(|&u| u >= 0.0));
        assert!(util.iter().sum::<f64>() > 0.0, "traffic must show up");
        let hot = hottest_ports(report, 5);
        assert_eq!(hot.len(), 5);
        assert!(hot[0].2 >= hot[4].2, "sorted descending");
        let heat = mesh_heat(report);
        assert_eq!(heat.len(), report.routers);
        assert!(heat.iter().all(|&h| (0.0..=1.0).contains(&h)));
    }
}

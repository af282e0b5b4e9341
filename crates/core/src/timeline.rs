//! The telemetry timeline table: one row per interval sample of a
//! [`TelemetryReport`] — injection and completion rates, fabric-link
//! utilization, RF grants, peak buffering, the VA/SA/credit stall mix,
//! and the timeline events that fell inside the interval. `rfnoc-cli run
//! --telemetry` and the `telemetry_report` harness both print it.

use rfnoc_sim::TelemetryReport;
use std::fmt::Write as _;

/// Renders the table. Long runs are subsampled to at most `max_rows`
/// evenly spaced rows; event-bearing intervals and the last interval are
/// always kept.
pub fn render(report: &TelemetryReport, max_rows: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>16} {:>8} {:>8} {:>9} {:>8} {:>8} {:>18}  events",
        "interval", "inj/cyc", "cmp/cyc", "mesh-util", "rf/cyc", "peak-buf", "va/sa/credit"
    );
    let n = report.samples.len();
    let stride = n.div_ceil(max_rows.max(1)).max(1);
    for (i, s) in report.samples.iter().enumerate() {
        let events: Vec<String> = report
            .events_in_sample(i)
            .map(|e| e.kind.to_string())
            .collect();
        if i % stride != 0 && events.is_empty() && i + 1 != n {
            continue;
        }
        let cycles = s.cycles.max(1) as f64;
        let peak = s.buffered_peak.iter().copied().max().unwrap_or(0);
        let _ = writeln!(
            out,
            "{:>16} {:>8.3} {:>8.3} {:>8.1}% {:>8.3} {:>8} {:>18}  {}",
            format!("[{}, {})", s.start, s.start + s.cycles),
            s.injected as f64 / cycles,
            s.completed_packets as f64 / cycles,
            report.sample_mesh_utilization(i) * 100.0,
            s.rf_grants as f64 / cycles,
            peak,
            format!("{}/{}/{}", s.va_stalls, s.sa_stalls, s.credit_stalls),
            if events.is_empty() {
                "-".to_string()
            } else {
                events.join("; ")
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfnoc_sim::{
        FaultEvent, FaultPlan, MessageClass, MessageSpec, Network, NetworkSpec, ScriptedWorkload,
        SimConfig, TelemetryConfig,
    };
    use rfnoc_topology::GridDims;

    #[test]
    fn table_subsamples_but_keeps_events_and_the_last_row() {
        let mut cfg = SimConfig::paper_baseline();
        cfg.warmup_cycles = 0;
        cfg.measure_cycles = 2_000;
        cfg.drain_cycles = 2_000;
        cfg.telemetry = Some(TelemetryConfig::every(100));
        let mut spec = NetworkSpec::mesh_baseline(GridDims::new(4, 4), cfg);
        let fault = FaultEvent::MeshLinkDown { a: 5, b: 6 };
        spec.faults = FaultPlan::new(vec![(1_150, fault)]);
        let mut network = Network::new(spec);
        let events: Vec<(u64, MessageSpec)> = (0..100u64)
            .map(|i| (i * 10, MessageSpec::unicast(0, 15, MessageClass::Data)))
            .collect();
        let stats = network.run(&mut ScriptedWorkload::new(events));
        let report = stats.telemetry.as_ref().expect("telemetry on");
        assert!(report.samples.len() > 8, "{} samples", report.samples.len());
        let table = render(report, 4);
        let rows: Vec<&str> = table.lines().skip(1).collect();
        assert!(rows.len() < report.samples.len(), "subsampled:\n{table}");
        let event_row = |r: &&str| r.contains("[1100, 1200)") && r.contains("MeshLinkDown");
        assert!(
            rows.iter().any(event_row),
            "off-stride event row kept:\n{table}"
        );
        let last = report.samples.last().unwrap();
        let last_span = format!("[{}, {})", last.start, last.start + last.cycles);
        assert!(
            rows.last().unwrap().contains(&last_span),
            "last row kept:\n{table}"
        );
        assert!(table.lines().next().unwrap().contains("mesh-util"));
    }
}

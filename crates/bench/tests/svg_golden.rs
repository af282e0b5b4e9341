//! Golden-string tests of the renderers on a tiny 2×2 fixture, pinning
//! element counts, the legend, and the utilization-to-stroke mapping of
//! the link heatmap, plus the Perfetto trace writer's event inventory —
//! so a rendering regression shows up as a diff here, not as a subtly
//! wrong artifact nobody looks at.

use rfnoc_bench::perfetto::{render_trace, TraceSpec};
use rfnoc_bench::svg::{render_link_heatmap, LinkHeatFigure};
use rfnoc_sim::{
    MessageClass, MessageSpec, Network, NetworkSpec, ScriptedWorkload, SimConfig,
    TelemetryConfig,
};
use rfnoc_topology::{GridDims, Shortcut};
use rfnoc_traffic::Placement;

fn count(haystack: &str, needle: &str) -> usize {
    haystack.matches(needle).count()
}

/// 2×2 heatmap: 4 mesh edges, 4 routers, a 10-swatch legend, and the
/// documented utilization-to-stroke mapping.
#[test]
fn link_heatmap_2x2_golden() {
    let placement = Placement::cores_only(GridDims::new(2, 2));
    // Port order N,S,E,W,Local,RF. Router 0's east port at 0.5; router 3
    // ejecting at full pressure; everything else idle.
    let mut port_util = vec![0.0; 4 * 6];
    port_util[2] = 0.5; // router 0, east port (edge 0-1)
    port_util[3 * 6 + 4] = 1.0; // router 3, local
    let shortcuts = [Shortcut::new(0, 3)];
    let figure = LinkHeatFigure {
        shortcuts: &shortcuts,
        port_util: &port_util,
        shortcut_util: &[1.0],
        title: "2x2 golden".into(),
    };
    let svg = render_link_heatmap(&placement, &figure);

    // Element inventory: 2 horizontal + 2 vertical mesh edges; 1
    // background + 4 router boxes + 10 legend swatches; 1 shortcut arc;
    // title + legend caption.
    assert_eq!(count(&svg, "<line "), 4, "2x2 mesh has 4 undirected edges");
    assert_eq!(count(&svg, "<rect "), 1 + 4 + 10);
    assert_eq!(count(&svg, "<path "), 1, "one shortcut arc");
    assert_eq!(count(&svg, "<text "), 2);
    assert!(svg.contains("link utilization 0 to 1"), "legend caption present");
    assert!(svg.starts_with("<svg "));
    assert!(svg.trim_end().ends_with("</svg>"));

    // Stroke mapping 1.0 + 5.0·u: the hot edge (u = 0.5) at 3.50, the
    // three idle edges at 1.00; the full-utilization arc at 4.50 width
    // and full opacity.
    assert_eq!(count(&svg, r#"stroke-width="3.50""#), 1);
    assert_eq!(count(&svg, r#"<line"#), 4);
    assert_eq!(
        svg.lines().filter(|l| l.starts_with("<line") && l.contains(r#"stroke-width="1.00""#)).count(),
        3,
        "idle edges at base width"
    );
    assert!(svg.contains(r#"stroke-width="4.50" stroke-opacity="1.000""#));

    // Colour ramp endpoints: idle grey and the saturated-red router fill.
    assert!(svg.contains("rgb(215,215,215)"));
    assert!(svg.contains(r#"fill="rgb(214,39,40)""#), "router 3 ejects at full pressure");
}

/// Degenerate inputs stay well-formed: no shortcuts, all-idle ports.
#[test]
fn link_heatmap_2x2_idle_no_shortcuts() {
    let placement = Placement::cores_only(GridDims::new(2, 2));
    let port_util = vec![0.0; 4 * 6];
    let figure = LinkHeatFigure {
        shortcuts: &[],
        port_util: &port_util,
        shortcut_util: &[],
        title: "idle".into(),
    };
    let svg = render_link_heatmap(&placement, &figure);
    assert_eq!(count(&svg, "<path "), 0);
    assert_eq!(count(&svg, "<line "), 4);
    assert_eq!(count(&svg, "<rect "), 15);
}

fn profiled_2x2_run() -> rfnoc_sim::RunStats {
    let mut cfg = SimConfig::paper_baseline();
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 50;
    cfg.drain_cycles = 2_000;
    cfg.telemetry = Some(TelemetryConfig::profiling(64));
    let spec = NetworkSpec::mesh_baseline(GridDims::new(2, 2), cfg);
    let mut network = Network::new(spec);
    let mut workload = ScriptedWorkload::new(vec![(
        0,
        MessageSpec::unicast(0, 3, MessageClass::Data),
    )]);
    network.run(&mut workload)
}

/// Perfetto trace of a single 0→3 packet on a 2×2 mesh: pinned metadata
/// and span inventory, valid event phases, no RF process.
#[test]
fn perfetto_trace_2x2_golden() {
    let stats = profiled_2x2_run();
    let tel = stats.telemetry.as_ref().expect("telemetry enabled");
    // 0→3 is two links, so the chain holds three hop records.
    assert_eq!(tel.hops.len(), 3);

    let spec = TraceSpec { dims: GridDims::new(2, 2), shortcuts: &[], max_span_events: 100 };
    let trace = render_trace(tel, &spec);

    assert!(trace.starts_with("{\"traceEvents\": ["));
    assert_eq!(count(&trace, "\"ph\": \"X\""), 3, "one span per hop record");
    // 1 process_name + 4 router thread_names; no band process without
    // shortcuts.
    assert_eq!(count(&trace, "\"ph\": \"M\""), 5);
    assert_eq!(count(&trace, "\"ph\": \"i\""), 0, "no faults, no truncation");
    assert!(!trace.contains("rf bands"));
    assert!(trace.contains("\"process_name\""));
    assert!(trace.contains("router (0, 0)") || trace.contains("router (0,0)"));
    // The injection hop enters on the local port and leaves on a mesh
    // port; waits are spelled out in args.
    assert!(trace.contains("pkt 0 Local->"));
    assert!(trace.contains("\"va_wait\":"));
    let artifact = rfnoc::validate::Artifact::parse(&trace, "trace_2x2").expect("a Perfetto trace");
    let events = artifact.doc.get("traceEvents").and_then(rfnoc::json::Json::as_arr);
    assert_eq!(events.map(<[_]>::len), Some(3 + 5));
    let report = rfnoc::validate::check(&[artifact]);
    assert!(report.problems.is_empty(), "{:?}", report.problems);
}

/// Truncation is visible in the trace, never silent.
#[test]
fn perfetto_trace_truncation_is_announced() {
    let stats = profiled_2x2_run();
    let tel = stats.telemetry.as_ref().expect("telemetry enabled");
    let spec = TraceSpec { dims: GridDims::new(2, 2), shortcuts: &[], max_span_events: 1 };
    let trace = render_trace(tel, &spec);
    assert_eq!(count(&trace, "\"ph\": \"X\""), 1);
    assert!(trace.contains("trace truncated: 2 hop spans omitted"));
    assert_eq!(count(&trace, "\"ph\": \"i\""), 1);
}

/// With shortcuts, RF hops are mirrored onto their band's track.
#[test]
fn perfetto_trace_band_tracks() {
    let dims = GridDims::new(6, 6);
    let shortcuts = vec![Shortcut::new(0, 35), Shortcut::new(35, 0)];
    let mut cfg = SimConfig::paper_baseline();
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 200;
    cfg.drain_cycles = 5_000;
    cfg.telemetry = Some(TelemetryConfig::profiling(64));
    let spec = NetworkSpec::with_shortcuts(dims, cfg, shortcuts.clone());
    let mut network = Network::new(spec);
    let events: Vec<(u64, MessageSpec)> =
        (0..20).map(|i| (i * 4, MessageSpec::unicast(0, 35, MessageClass::Data))).collect();
    let stats = network.run(&mut ScriptedWorkload::new(events));
    let tel = stats.telemetry.as_ref().expect("telemetry enabled");
    let rf_hops = tel.hops.iter().filter(|h| h.port_out == 5).count();
    assert!(rf_hops > 0, "corner traffic rides the shortcut");

    let spec = TraceSpec { dims, shortcuts: &shortcuts, max_span_events: 100_000 };
    let trace = render_trace(tel, &spec);
    assert!(trace.contains("rf bands"));
    assert!(trace.contains("band (0, 0) -> (5, 5)") || trace.contains("band (0,0) -> (5,5)"));
    assert_eq!(count(&trace, "on band"), rf_hops, "every RF hop lands on a band track");
    assert_eq!(
        count(&trace, "\"ph\": \"X\""),
        tel.hops.len() + rf_hops,
        "router spans plus mirrored band spans"
    );
}

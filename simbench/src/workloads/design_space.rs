//! `design_space`: one worker elaborates about a hundred RF designs,
//! from 10×10 to 64×64 meshes and ring-meshes, with both the max-cost
//! (static) and the application-specific (adaptive) shortcut selection
//! from seeded traffic profiles. An op is: profile (adaptive designs),
//! the public selection call, `build_system`, fault resolution and
//! `Network::try_new`, a short low-load validation run, and the power
//! and area model; the round ends by rendering the bench layer's JSON
//! artifact of all designs.

use super::{guarded, plan_results, point, Bench, OpOutcome, RoundOutput};
use crate::chain::{run_chain, ChainMode};
use crate::check::{report_fingerprint, reseed, stats_sane};
use crate::layers::{timed, LayerTimes};
use rfnoc::{Architecture, Experiment, SystemConfig, WorkloadSpec};
use rfnoc_bench::artifact::render_json;
use rfnoc_bench::plan::{PointLabels, RunPoint};
use rfnoc_power::LinkWidth;
use rfnoc_sim::SimConfig;
use rfnoc_topology::{FabricSpec, GridDims};
use rfnoc_traffic::{Placement, Profile, ProfileSpec, TraceKind, TrafficConfig};
use std::time::Instant;

/// The workload, for one benchmark seed.
pub struct DesignSpace {
    /// Benchmark seed (re-seeds every traffic profile and source).
    pub seed: u64,
}

/// The short low-load window every design is validated on.
fn validation_sim() -> SimConfig {
    let mut sim = SimConfig::paper_baseline();
    sim.warmup_cycles = 200;
    sim.measure_cycles = 400;
    sim.drain_cycles = 5_000;
    sim
}

/// Traffic specs by short label: the seven Table 1 traces and the three
/// seeded campaign profiles.
fn spec(label: &str, seed: u64) -> WorkloadSpec {
    let trace = |k: TraceKind| WorkloadSpec::Trace(k);
    match label {
        "uniform" => trace(TraceKind::Uniform),
        "unidf" => trace(TraceKind::UniDf),
        "bidf" => trace(TraceKind::BiDf),
        "hotbidf" => trace(TraceKind::HotBiDf),
        "hotspot1" => trace(TraceKind::Hotspot1),
        "hotspot2" => trace(TraceKind::Hotspot2),
        "hotspot4" => trace(TraceKind::Hotspot4),
        "expected" => WorkloadSpec::Profile(ProfileSpec::new(Profile::Expected, seed)),
        "stress" => WorkloadSpec::Profile(ProfileSpec::new(Profile::Stress, seed)),
        "adversarial" => WorkloadSpec::Profile(ProfileSpec::new(Profile::Adversarial, seed)),
        other => panic!("unknown traffic spec {other:?}"),
    }
}

const ALL_SPECS: [&str; 10] = [
    "uniform",
    "unidf",
    "bidf",
    "hotbidf",
    "hotspot1",
    "hotspot2",
    "hotspot4",
    "expected",
    "stress",
    "adversarial",
];

/// One family of designs on one grid size: `(architecture label,
/// architecture, shortcut budget, traffic specs)`.
type Family = (&'static str, Architecture, usize, &'static [&'static str]);

fn families(side: usize) -> Vec<Family> {
    use Architecture::{
        AdaptiveShortcuts as Adaptive, AdaptiveWithMulticast as AdaptiveMc, RfMulticast,
        StaticShortcuts as Static, WireShortcuts as Wire,
    };
    let one: &'static [&'static str] = &["uniform"];
    match side {
        10 => vec![
            ("static", Static, 8, one),
            ("static", Static, 16, one),
            ("static", Static, 12, one),
            ("static", Static, 24, one),
            ("static", Static, 32, one),
            ("wire", Wire, 8, one),
            ("wire", Wire, 16, one),
            ("wire", Wire, 24, one),
            ("wire", Wire, 32, one),
            ("adaptive50", Adaptive { access_points: 50 }, 16, &ALL_SPECS),
            (
                "adaptive25",
                Adaptive { access_points: 25 },
                16,
                &["uniform", "hotspot1", "expected", "stress"],
            ),
            (
                "adaptive-mc",
                AdaptiveMc {
                    access_points: 50,
                    shortcut_budget: 15,
                },
                15,
                &["uniform", "hotspot1", "stress"],
            ),
            (
                "rf-mc",
                RfMulticast { access_points: 50 },
                16,
                &["hotspot1"],
            ),
        ],
        12 => vec![
            ("static", Static, 8, one),
            ("static", Static, 16, one),
            ("wire", Wire, 16, one),
            (
                "adaptive72",
                Adaptive { access_points: 72 },
                16,
                &["uniform", "hotspot1", "bidf", "expected"],
            ),
            (
                "adaptive-mc",
                AdaptiveMc {
                    access_points: 72,
                    shortcut_budget: 15,
                },
                15,
                &["uniform", "stress"],
            ),
            ("rf-mc", RfMulticast { access_points: 72 }, 16, &["uniform"]),
        ],
        16 => vec![
            ("static", Static, 16, one),
            ("static", Static, 32, one),
            ("wire", Wire, 16, one),
            (
                "adaptive64",
                Adaptive { access_points: 64 },
                16,
                &["uniform", "hotspot1", "bidf", "expected", "stress"],
            ),
        ],
        20 => vec![
            ("static", Static, 16, one),
            (
                "adaptive100",
                Adaptive { access_points: 100 },
                16,
                &["uniform"],
            ),
        ],
        24 => vec![
            ("static", Static, 8, one),
            ("static", Static, 16, one),
            ("static", Static, 32, one),
        ],
        32 => vec![("static", Static, 16, one), ("static", Static, 32, one)],
        _ => vec![("static", Static, 16, one)],
    }
}

/// Grid sides of the design space, smallest first.
const SIDES: [usize; 8] = [10, 12, 16, 20, 24, 32, 48, 64];

/// Every design of the space, re-seeded for `seed`, in run order.
pub fn designs(seed: u64) -> Vec<RunPoint> {
    let widths = [LinkWidth::B16, LinkWidth::B8, LinkWidth::B4];
    let mut out = Vec::new();
    for side in SIDES {
        let dims = GridDims::new(side, side);
        let tile = if side % 4 == 0 { 4 } else { 5 };
        for (fabric_label, fabric) in [
            ("mesh", FabricSpec::mesh(dims)),
            ("ring", FabricSpec::ring_mesh(dims, tile)),
        ] {
            let placement = Placement::quadrant_clusters_on(fabric);
            let place_label = format!("{side}x{side}-{fabric_label}");
            for (arch_label, arch, budget, specs) in families(side) {
                let multicast = matches!(
                    arch,
                    Architecture::RfMulticast { .. } | Architecture::AdaptiveWithMulticast { .. }
                );
                if multicast && fabric_label == "ring" {
                    // RF broadcast multicast is defined on the mesh only.
                    continue;
                }
                for &label in specs {
                    let k = out.len() as u64;
                    let width = widths[out.len() % widths.len()];
                    let base_seed = 0xD5E5_0000 ^ k.wrapping_mul(0x9E37_79B9);
                    let mut system =
                        SystemConfig::new(arch.clone(), width).with_sim(validation_sim());
                    system.shortcut_budget = budget;
                    let traffic = TrafficConfig {
                        // Constant total offered load across sizes, as in
                        // the suite's mesh-scaling figure.
                        injection_rate: 0.008 * 100.0 / dims.nodes() as f64,
                        seed: reseed(base_seed, seed),
                        ..TrafficConfig::default()
                    };
                    let mut exp = Experiment::new(system, spec(label, reseed(base_seed, seed)))
                        .with_traffic(traffic);
                    exp.placement = placement.clone();
                    let id = format!("{place_label}/{arch_label}-b{budget}-{width}/{label}");
                    let labels = PointLabels {
                        design: format!("{} @{width}", exp.system.arch.name()),
                        workload: exp.workload.name(),
                        sim: "validation".into(),
                        traffic: "scaled".into(),
                        placement: place_label.clone(),
                        fault: "none".into(),
                    };
                    out.push(point(id, labels, exp));
                }
            }
        }
    }
    // Run order interleaves sizes and families (a golden-ratio
    // permutation of the list above). Ops of similar cost then spread
    // over the whole round instead of running back to back, so each
    // op-time quantile averages the host's speed over the round rather
    // than sampling one stretch of it.
    let key = |i: usize| (i as f64 * 0.618_033_988_749_895).fract();
    let mut order: Vec<usize> = (0..out.len()).collect();
    order.sort_by(|&a, &b| key(a).total_cmp(&key(b)));
    let mut slots: Vec<Option<RunPoint>> = out.into_iter().map(Some).collect();
    order.into_iter().filter_map(|i| slots[i].take()).collect()
}

impl Bench for DesignSpace {
    type Prepared = Vec<RunPoint>;

    fn setup(&self, _traced: bool) -> Vec<RunPoint> {
        designs(self.seed)
    }

    fn round(&self, designs: Vec<RunPoint>, traced: bool) -> RoundOutput {
        let mut out = RoundOutput {
            op_threads: 1,
            ..RoundOutput::default()
        };
        let mut lt = LayerTimes::default();
        let mut finished = Vec::new();
        let mode = ChainMode {
            traced,
            explicit_select: true,
        };
        for design in designs {
            let t0 = Instant::now();
            let ran = guarded(|| run_chain(&design.experiment, mode, &mut lt));
            let wall = t0.elapsed();
            let checked = ran.and_then(|o| {
                let stats = &o.report.stats;
                stats_sane(stats)?;
                if let Some(h) = &stats.health {
                    return Err(format!("watchdog fired: {}", h.diagnosis));
                }
                if stats.saturated {
                    return Err("low-load validation run did not drain".into());
                }
                Ok((report_fingerprint(&o.report, Some(&o.shortcuts)), o.report))
            });
            let checked = checked.map(|(fp, report)| {
                out.cycles += report.stats.end_cycle;
                finished.push((design.clone(), report, wall));
                fp
            });
            out.ops.push(OpOutcome::new(design.id, wall, checked));
        }
        out.unique_points = finished.len() as u64;
        let results = plan_results(finished);
        let (_, render_s) = timed(traced, || render_json("design_space", &results).len());
        lt.bench_render_s += render_s;
        out.layers = lt;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_ids_are_unique_and_span_the_space() {
        let d = designs(0);
        let mut ids: Vec<&str> = d.iter().map(|p| p.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), d.len());
        assert!(d.len() >= 100, "{} designs", d.len());
        assert!(d.iter().any(|p| p.id.starts_with("64x64-ring")));
        assert!(d.iter().any(|p| p.experiment.system.arch.is_adaptive()));
    }
}

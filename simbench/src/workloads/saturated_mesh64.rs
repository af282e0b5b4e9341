//! `saturated_mesh64`: one saturated 64×64 XY mesh on the sharded engine
//! (two threads), driven by a uniform Bernoulli load far above the
//! mesh's saturation throughput. Set-up elaborates the system and builds
//! the network; the round fills the network for [`FILL_CYCLES`] cycles
//! and then runs [`WINDOWS`] windows of [`WINDOW_CYCLES`] cycles. An op
//! is one window, timed from the traffic callback at its first cycle to
//! the callback at the next window's first cycle.

use super::{guarded, max_threads, plan_results, point, Bench, OpOutcome, RoundOutput};
use crate::chain::{build_chain, new_network, ChainMode};
use crate::check::{fingerprint, reseed, stats_sane};
use crate::layers::{timed, LayerTimes, TimedWorkload};
use rfnoc::{Architecture, BuiltSystem, Experiment, SystemConfig, WorkloadSpec};
use rfnoc_bench::artifact::render_json;
use rfnoc_bench::plan::PointLabels;
use rfnoc_power::{LinkWidth, NocPowerModel};
use rfnoc_sim::{MessageSpec, Network, SimConfig, Workload};
use rfnoc_topology::GridDims;
use rfnoc_traffic::{Placement, TraceKind, TrafficConfig};
use std::time::{Duration, Instant};

/// Grid side.
const SIDE: usize = 64;
/// Cycles simulated before the first window, so the network has filled.
const FILL_CYCLES: u64 = 150;
/// Cycles per window (per op).
const WINDOW_CYCLES: u64 = 10;
/// Windows per round.
const WINDOWS: u64 = 110;
/// Offered load in messages per node per cycle (the `bench_perf`
/// saturated load of 96/256).
const LOAD: f64 = 0.375;
/// Key every window's output check is filed under (one run).
const KEY: &str = "64x64-mesh/saturated";

/// The workload, for one benchmark seed.
pub struct SaturatedMesh64 {
    /// Benchmark seed (re-seeds the traffic source).
    pub seed: u64,
}

/// A built network ready for the round.
pub struct Prepared {
    exp: Experiment,
    built: BuiltSystem,
    network: Network,
    setup_layers: LayerTimes,
}

/// The experiment the workload runs (simulated with its own windowed
/// loop rather than `Experiment::run`).
fn experiment(seed: u64) -> Experiment {
    let mut sim = SimConfig::paper_baseline().with_threads(max_threads());
    sim.warmup_cycles = FILL_CYCLES;
    // One extra cycle so the closing callback stamps the last window.
    sim.measure_cycles = WINDOWS * WINDOW_CYCLES + 1;
    sim.drain_cycles = 0;
    let system = SystemConfig::new(Architecture::Baseline, LinkWidth::B16).with_sim(sim);
    let traffic = TrafficConfig {
        injection_rate: LOAD,
        seed: reseed(0xb164, seed),
        ..TrafficConfig::default()
    };
    let mut exp =
        Experiment::new(system, WorkloadSpec::Trace(TraceKind::Uniform)).with_traffic(traffic);
    exp.placement = Placement::quadrant_clusters(GridDims::new(SIDE, SIDE));
    exp
}

/// Stamps the wall clock at the first cycle of every window.
struct WindowClock<'a> {
    inner: TimedWorkload<'a>,
    stamps: Vec<Instant>,
}

impl Workload for WindowClock<'_> {
    fn messages_at(&mut self, cycle: u64, out: &mut Vec<MessageSpec>) {
        if cycle >= FILL_CYCLES && (cycle - FILL_CYCLES).is_multiple_of(WINDOW_CYCLES) {
            self.stamps.push(Instant::now());
        }
        self.inner.messages_at(cycle, out);
    }
}

impl Bench for SaturatedMesh64 {
    type Prepared = Prepared;

    fn setup(&self, traced: bool) -> Prepared {
        let exp = experiment(self.seed);
        let mut lt = LayerTimes::default();
        let mode = ChainMode {
            traced,
            explicit_select: false,
        };
        let built = build_chain(&exp, mode, &mut lt).expect("the baseline mesh elaborates");
        let (network, net_s) = timed(traced, || new_network(built.network.clone(), traced));
        let network = network.expect("the 64x64 mesh is a valid network");
        lt.sim_build_s += net_s;
        Prepared {
            exp,
            built,
            network,
            setup_layers: lt,
        }
    }

    fn round(&self, prepared: Prepared, traced: bool) -> RoundOutput {
        let Prepared {
            exp,
            built,
            mut network,
            setup_layers: mut lt,
        } = prepared;
        let mut out = RoundOutput {
            op_threads: 1,
            unique_points: 1,
            ..RoundOutput::default()
        };
        let ran = guarded(|| {
            let (mut source, inst_s) = timed(traced, || {
                exp.workload.instantiate(&exp.placement, &exp.traffic)
            });
            lt.traffic_gen_s += inst_s;
            let mut clock = WindowClock {
                inner: TimedWorkload::new(source.as_mut(), traced),
                stamps: Vec::with_capacity(WINDOWS as usize + 1),
            };
            let (mut stats, run_s) = timed(traced, || network.run(&mut clock));
            lt.book_run(&stats, run_s, &clock.inner);
            stats.ledger = None;
            let stamps = clock.stamps;
            let ((power, area), power_s) = timed(traced, || {
                let model = NocPowerModel::paper_32nm();
                (
                    model.power(&built.design, &stats.activity),
                    model.area(&built.design),
                )
            });
            lt.power_model_s += power_s;
            stats_sane(&stats)?;
            if let Some(h) = &stats.health {
                return Err(format!("watchdog fired: {}", h.diagnosis));
            }
            if !stats.saturated {
                return Err("the network never saturated".into());
            }
            let fp = fingerprint(&stats, power.total_w(), area.total_mm2(), None);
            let cycles = stats.end_cycle;
            let report = rfnoc::RunReport {
                system: exp.system.arch.name(),
                workload: exp.workload.name(),
                stats,
                power,
                area,
            };
            let labels = PointLabels {
                design: "mesh @16B".into(),
                workload: exp.workload.name(),
                sim: "saturated".into(),
                traffic: "bernoulli-0.375".into(),
                placement: format!("{SIDE}x{SIDE}-mesh"),
                fault: "none".into(),
            };
            let wall: Duration = stamps
                .last()
                .zip(stamps.first())
                .map_or(Duration::ZERO, |(l, f)| *l - *f);
            let results =
                plan_results(vec![(point(KEY.into(), labels, exp.clone()), report, wall)]);
            let (_, render_s) = timed(traced, || render_json("saturated_mesh64", &results).len());
            lt.bench_render_s += render_s;
            Ok((stamps, fp, cycles))
        });
        match ran {
            Ok((stamps, fp, cycles)) => {
                out.cycles = cycles;
                for w in stamps.windows(2) {
                    out.ops.push(OpOutcome::new(KEY, w[1] - w[0], Ok(fp)));
                }
                if out.ops.len() as u64 != WINDOWS {
                    let e = format!("ran {} of {WINDOWS} windows", out.ops.len());
                    out.ops.push(OpOutcome::new(KEY, Duration::ZERO, Err(e)));
                }
            }
            Err(e) => {
                for _ in 0..WINDOWS {
                    out.ops
                        .push(OpOutcome::new(KEY, Duration::ZERO, Err(e.clone())));
                }
            }
        }
        out.layers = lt;
        out
    }
}

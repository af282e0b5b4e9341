//! `Experiment::run`, decomposed into the public calls of each layer so
//! that the traced run can time them from outside.
//!
//! [`run_chain`] makes the same calls, in the same order and with the
//! same arguments, as `rfnoc::Experiment::run`: profile (adaptive
//! architectures only), `build_system`, fault-plan resolution,
//! `Network::try_new`, workload instantiation, `Network::run`, and the
//! power/area model. Two steps of `Experiment` are private and are
//! mirrored here: [`resolve_faults`] and [`gather_profile`]. The
//! benchmark's fidelity test asserts that the chain reproduces
//! `Experiment::run`'s report exactly for every point of the paper sweep.
//!
//! `build_system` runs shortcut selection internally. Its self time is
//! obtained by timing an identical call to the public selection function
//! ([`select_for`]) and subtracting it; the returned shortcut sets must
//! agree, which doubles as an output check.

use crate::layers::{timed, LayerTimes, TimedWorkload};
use rfnoc::{
    adaptive_shortcuts, build_system, static_shortcuts, Architecture, BuiltSystem, Experiment,
    FaultSpec, ProfileSource, RunReport, SystemConfig,
};
use rfnoc_power::NocPowerModel;
use rfnoc_sim::{FaultPlan, LedgerConfig, Network, NetworkSpec};
use rfnoc_topology::{PairWeights, Shortcut};
use rfnoc_traffic::{staggered_rf_routers, Placement};

/// How [`run_chain`] executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainMode {
    /// Time every layer call and enable the engine's ledger (for router
    /// visits and the shard split). Off: no clock is read and the chain
    /// equals `Experiment::run`.
    pub traced: bool,
    /// Call the public selection function before `build_system` as part
    /// of the op (the design-space workload). When off, the traced run
    /// still makes the call, as an estimator of the selection inside
    /// `build_system`, and books it as tracing overhead.
    pub explicit_select: bool,
}

/// The chain's output: the report plus the selected shortcut set.
#[derive(Debug, Clone)]
pub struct ChainOutput {
    /// Exactly `Experiment::run`'s report (the ledger, an observation,
    /// is removed from the statistics).
    pub report: RunReport,
    /// Shortcuts `build_system` selected.
    pub shortcuts: Vec<Shortcut>,
}

/// Ledger interval for traced runs: long enough that only the closing
/// heartbeat (and its per-shard totals) is ever emitted.
const TRACE_LEDGER_INTERVAL: u64 = 1 << 40;

/// `Network::try_new` of `spec`, with the engine's ledger on when
/// traced: its closing heartbeat gives the router-visit count and the
/// per-shard sweep/barrier split, and it never changes simulated results.
///
/// # Errors
///
/// Returns the simulator's error for an invalid specification.
pub fn new_network(mut spec: NetworkSpec, traced: bool) -> Result<Network, String> {
    if traced {
        spec.config.ledger = Some(LedgerConfig::every(TRACE_LEDGER_INTERVAL));
    }
    Network::try_new(spec).map_err(|e| e.to_string())
}

/// Mirror of the private `Experiment::resolve_faults`.
pub fn resolve_faults(exp: &Experiment, built: &BuiltSystem) -> FaultPlan {
    let sim = &exp.system.sim;
    let window = || {
        let start = sim.warmup_cycles;
        start..start + sim.measure_cycles.max(1)
    };
    match &exp.faults {
        FaultSpec::None => FaultPlan::default(),
        FaultSpec::Plan(plan) => plan.clone(),
        FaultSpec::Random { seed, rates } => FaultPlan::random(
            *seed,
            &exp.placement.fabric(),
            &built.shortcuts,
            *rates,
            window(),
        ),
        FaultSpec::Correlated { seed, intensity } => FaultPlan::correlated(
            *seed,
            &exp.placement.fabric(),
            &built.shortcuts,
            *intensity,
            exp.traffic.injection_rate / 0.008,
            window(),
        ),
    }
}

/// Mirror of the private `Experiment::gather_profile`.
///
/// # Errors
///
/// Returns the simulator's error when the event-counter profiling
/// network cannot be built.
pub fn gather_profile(exp: &Experiment) -> Result<PairWeights, String> {
    match exp.profile_source {
        ProfileSource::Generator => {
            Ok(exp
                .workload
                .profile(&exp.placement, &exp.traffic, exp.profile_cycles))
        }
        ProfileSource::EventCounters => {
            let mut sim = exp.system.sim.clone();
            sim.warmup_cycles = 0;
            sim.measure_cycles = exp.profile_cycles;
            sim.drain_cycles = 0;
            sim.collect_pair_counts = true;
            let profiling =
                SystemConfig::new(Architecture::Baseline, exp.system.link_width).with_sim(sim);
            let built = build_system(&profiling, &exp.placement, None);
            let mut network = Network::try_new(built.network).map_err(|e| e.to_string())?;
            let mut workload = exp.workload.instantiate(&exp.placement, &exp.traffic);
            Ok(network.run(workload.as_mut()).pair_weights())
        }
    }
}

/// The shortcut set `build_system` selects for `system`, computed through
/// the public selection functions; `None` for architectures without
/// shortcut selection.
pub fn select_for(
    system: &SystemConfig,
    placement: &Placement,
    profile: Option<&PairWeights>,
) -> Option<Vec<Shortcut>> {
    let adaptive = |aps: usize, budget: usize| {
        let enabled = staggered_rf_routers(placement.dims(), aps);
        adaptive_shortcuts(placement, &enabled, profile?, budget).into()
    };
    match &system.arch {
        Architecture::StaticShortcuts | Architecture::WireShortcuts => {
            Some(static_shortcuts(placement, system.shortcut_budget))
        }
        Architecture::AdaptiveShortcuts { access_points } => {
            adaptive(*access_points, system.shortcut_budget)
        }
        Architecture::AdaptiveWithMulticast {
            access_points,
            shortcut_budget,
        } => adaptive(*access_points, *shortcut_budget),
        Architecture::Baseline | Architecture::VctMulticast | Architecture::RfMulticast { .. } => {
            None
        }
    }
}

/// The elaboration half of the chain — profile, selection and
/// `build_system` — booking layer times into `lt` when traced.
///
/// # Errors
///
/// Returns a description when profiling fails or the explicitly selected
/// shortcuts disagree with `build_system`'s.
pub fn build_chain(
    exp: &Experiment,
    mode: ChainMode,
    lt: &mut LayerTimes,
) -> Result<BuiltSystem, String> {
    let traced = mode.traced;
    let (profile, profile_s) = timed(traced, || {
        exp.system
            .arch
            .is_adaptive()
            .then(|| gather_profile(exp))
            .transpose()
    });
    let profile = profile?;
    lt.traffic_profile_s += profile_s;

    // Selection: part of the op, or (traced only) a twin call whose time
    // stands in for the selection inside `build_system`.
    let (selected, select_s) = if mode.explicit_select || traced {
        timed(traced, || {
            select_for(&exp.system, &exp.placement, profile.as_ref())
        })
    } else {
        (None, 0.0)
    };
    if mode.explicit_select {
        lt.topology_select_s += select_s;
    }
    let (built, build_s) = timed(traced, || {
        build_system(&exp.system, &exp.placement, profile.as_ref())
    });
    if let Some(sel) = &selected {
        if *sel != built.shortcuts {
            return Err("explicit selection disagrees with build_system".into());
        }
    }
    lt.topology_select_s += select_s;
    lt.core_build_s += (build_s - select_s).max(0.0);
    lt.topology_shortcuts += built.shortcuts.len() as u64;
    Ok(built)
}

/// Runs `exp` through the decomposed chain, booking layer times into
/// `lt` when traced.
///
/// # Errors
///
/// Returns a description when the network cannot be built or the
/// explicitly selected shortcuts disagree with `build_system`'s.
pub fn run_chain(
    exp: &Experiment,
    mode: ChainMode,
    lt: &mut LayerTimes,
) -> Result<ChainOutput, String> {
    let traced = mode.traced;
    let built = build_chain(exp, mode, lt)?;
    let (network, net_s) = timed(traced, || {
        let spec = built
            .network
            .clone()
            .with_fault_plan(resolve_faults(exp, &built));
        new_network(spec, traced)
    });
    let mut network = network?;
    lt.sim_build_s += net_s;

    // Instantiate against the built shortcut set, as Experiment::run does.
    let (mut workload, inst_s) = timed(traced, || {
        exp.workload
            .instantiate_for(&exp.placement, &exp.traffic, &built.shortcuts)
    });
    lt.traffic_gen_s += inst_s;
    let mut source = TimedWorkload::new(workload.as_mut(), traced);
    let (mut stats, run_s) = timed(traced, || network.run(&mut source));
    lt.book_run(&stats, run_s, &source);
    stats.ledger = None;

    let ((power, area), power_s) = timed(traced, || {
        let model = NocPowerModel::paper_32nm();
        (
            model.power(&built.design, &stats.activity),
            model.area(&built.design),
        )
    });
    lt.power_model_s += power_s;

    Ok(ChainOutput {
        report: RunReport {
            system: exp.system.arch.name(),
            workload: exp.workload.name(),
            stats,
            power,
            area,
        },
        shortcuts: built.shortcuts,
    })
}

//! `paper_sweep`: the `run_all --quick` plan — every in-suite figure of
//! `rfnoc_bench::suite` — executed by `rfnoc_bench::runner::run_plan` on
//! two jobs, then rendered with `artifact::render_json` exactly as
//! `run_all` renders it (the files are not written). An op is one
//! distinct design point.
//!
//! The traced round replaces `run_plan` with the same schedule
//! (deduplicated, longest estimate first, two workers) over
//! [`crate::chain::run_chain`], so each point's layer calls are timed.

use super::{guarded, max_threads, Bench, OpOutcome, RoundOutput};
use crate::chain::{run_chain, ChainMode};
use crate::check::{report_fingerprint, reseed_experiment, stats_sane};
use crate::layers::{timed, LayerTimes};
use rfnoc::{FaultSpec, RunReport};
use rfnoc_bench::artifact::render_json;
use rfnoc_bench::plan::Plan;
use rfnoc_bench::runner::{run_plan, PlanResults, PointResult, RunnerConfig};
use rfnoc_bench::suite::{figures, SuiteOptions};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One traced point: its report (or why it failed) and its wall time.
type Ran = (Result<RunReport, String>, Duration);

/// The workload, for one benchmark seed.
pub struct PaperSweep {
    /// Benchmark seed (re-seeds every traffic source of the plan).
    pub seed: u64,
}

/// The expanded, re-seeded plan.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Each in-suite figure's own plan, in suite order.
    pub figures: Vec<(&'static str, Plan)>,
    /// All of them merged, as `run_all` runs them.
    pub merged: Plan,
    /// Index (into `merged`) of the first point of every distinct
    /// experiment, in plan order.
    pub unique: Vec<usize>,
    /// For every point of `merged`, the index of its distinct
    /// experiment's first point.
    pub of_point: Vec<usize>,
}

/// Expands the quick suite plan with every traffic source re-seeded.
pub fn expand(seed: u64) -> SweepPlan {
    let opts = SuiteOptions { quick: true };
    let figures: Vec<(&'static str, Plan)> = figures()
        .into_iter()
        .filter(|f| f.in_suite)
        .map(|f| {
            let mut plan = (f.build)(&opts);
            for p in &mut plan.points {
                reseed_experiment(&mut p.experiment, seed);
            }
            (f.name, plan)
        })
        .collect();
    let merged = Plan::merge(figures.iter().map(|(_, p)| p.clone()));
    let mut unique: Vec<usize> = Vec::new();
    let mut of_point = Vec::with_capacity(merged.points.len());
    for (i, p) in merged.points.iter().enumerate() {
        match unique
            .iter()
            .find(|&&u| merged.points[u].experiment == p.experiment)
        {
            Some(&u) => of_point.push(u),
            None => {
                unique.push(i);
                of_point.push(i);
            }
        }
    }
    SweepPlan {
        figures,
        merged,
        unique,
        of_point,
    }
}

/// Renders every figure's artifact and the merged one, as `run_all`
/// does, skipping points without a result.
fn render_all(plan: &SweepPlan, results: &PlanResults) -> usize {
    let by_id: HashMap<&str, &PointResult> = results
        .results
        .iter()
        .map(|r| (r.point.id.as_str(), r))
        .collect();
    let mut bytes = 0;
    for (name, fig) in &plan.figures {
        let sub = PlanResults {
            results: fig
                .points
                .iter()
                .filter_map(|p| by_id.get(p.id.as_str()).map(|r| (*r).clone()))
                .collect(),
            ..results.clone()
        };
        bytes += render_json(name, &sub).len();
    }
    bytes + render_json("run_all", results).len()
}

/// Checks one point's report; `Ok` carries its fingerprint.
fn check(report: &RunReport, faults: &FaultSpec) -> Result<u64, String> {
    stats_sane(&report.stats)?;
    if report.stats.health.is_some() && *faults == FaultSpec::None {
        return Err("watchdog fired on a fault-free point".into());
    }
    Ok(report_fingerprint(report, None))
}

impl PaperSweep {
    fn untraced(&self, plan: &SweepPlan) -> RoundOutput {
        let cfg = RunnerConfig {
            jobs: max_threads(),
            sim_threads: 1,
            quiet: true,
            ledger: None,
            obs_port: None,
        };
        let ran = guarded(|| {
            let results = run_plan(&plan.merged, &cfg);
            render_all(plan, &results);
            Ok(results)
        });
        let mut out = RoundOutput {
            op_threads: cfg.jobs,
            ..RoundOutput::default()
        };
        match ran {
            Ok(results) => {
                out.unique_points = results.unique_runs as u64;
                for &u in &plan.unique {
                    let r = &results.results[u];
                    let checked = check(&r.report, &r.point.experiment.faults);
                    out.cycles += r.report.stats.end_cycle;
                    out.ops.push(OpOutcome::new(&r.point.id, r.wall, checked));
                }
            }
            Err(e) => {
                for &u in &plan.unique {
                    let key = &plan.merged.points[u].id;
                    out.ops.push(OpOutcome::new(
                        key,
                        Duration::ZERO,
                        Err(format!("run_plan {e}")),
                    ));
                }
            }
        }
        out
    }

    fn traced(&self, plan: &SweepPlan) -> RoundOutput {
        let start = Instant::now();
        let mut order = plan.unique.clone();
        let cost = |i: usize| plan.merged.points[i].experiment.cost_estimate();
        order.sort_by(|&a, &b| cost(b).total_cmp(&cost(a)).then(a.cmp(&b)));
        let jobs = max_threads();
        let next = AtomicUsize::new(0);
        let done: Mutex<HashMap<usize, Ran>> = Mutex::new(HashMap::new());
        let layers = Mutex::new(LayerTimes::default());
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(|| {
                    let mut lt = LayerTimes::default();
                    while let Some(&u) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let exp = &plan.merged.points[u].experiment;
                        let t0 = Instant::now();
                        let mode = ChainMode {
                            traced: true,
                            explicit_select: false,
                        };
                        let r = guarded(|| run_chain(exp, mode, &mut lt)).map(|o| o.report);
                        let wall = t0.elapsed();
                        done.lock().expect("results lock").insert(u, (r, wall));
                    }
                    layers.lock().expect("layers lock").merge(&lt);
                });
            }
        });
        let done = done.into_inner().expect("results lock");
        let mut lt = layers.into_inner().expect("layers lock");

        // Every plan point shares its distinct experiment's report, and is
        // normalised against its baseline, as `run_plan` assembles them.
        let mut out = RoundOutput {
            op_threads: jobs,
            unique_points: plan.unique.len() as u64,
            ..RoundOutput::default()
        };
        let report_of = |i: usize| match done.get(&plan.of_point[i]) {
            Some((Ok(r), wall)) => Some((r, *wall)),
            _ => None,
        };
        let results: Vec<PointResult> = plan
            .merged
            .points
            .iter()
            .enumerate()
            .filter_map(|(i, point)| {
                let (report, wall) = report_of(i)?;
                let normalized = match &point.baseline_id {
                    Some(b) => Some(report.normalized_to(report_of(plan.merged.index_of(b)?)?.0)),
                    None => None,
                };
                Some(PointResult {
                    point: point.clone(),
                    report: report.clone(),
                    wall,
                    normalized,
                })
            })
            .collect();
        let points_wall = done.values().map(|(_, w)| *w).sum();
        let results = PlanResults {
            results,
            total_wall: start.elapsed(),
            jobs,
            unique_runs: plan.unique.len(),
            points_wall,
        };
        let (_, render_s) = timed(true, || render_all(plan, &results));
        lt.bench_render_s += render_s;
        out.layers = lt;

        for &u in &plan.unique {
            let point = &plan.merged.points[u];
            let (checked, wall) = match done.get(&u) {
                Some((Ok(r), wall)) => {
                    out.cycles += r.stats.end_cycle;
                    (check(r, &point.experiment.faults), *wall)
                }
                Some((Err(e), wall)) => (Err(e.clone()), *wall),
                None => (Err("never ran".into()), Duration::ZERO),
            };
            out.ops.push(OpOutcome::new(&point.id, wall, checked));
        }
        out
    }
}

impl Bench for PaperSweep {
    type Prepared = SweepPlan;

    fn setup(&self, _traced: bool) -> SweepPlan {
        expand(self.seed)
    }

    fn round(&self, plan: SweepPlan, traced: bool) -> RoundOutput {
        if traced {
            self.traced(&plan)
        } else {
            self.untraced(&plan)
        }
    }
}

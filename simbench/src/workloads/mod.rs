//! The three benchmark workloads. Each is a closed loop: one op starts
//! only when the previous op on its worker has finished.

use crate::layers::LayerTimes;
use rfnoc::Experiment;
use rfnoc_bench::plan::{PointLabels, RunPoint};
use rfnoc_bench::runner::{PlanResults, PointResult};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

pub mod design_space;
pub mod paper_sweep;
pub mod saturated_mesh64;

/// Worker threads a workload may use: two, or fewer on a smaller host.
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .clamp(1, 2)
}

/// One finished op.
#[derive(Debug, Clone)]
pub struct OpOutcome {
    /// Key of the output this op is checked by (several ops may share
    /// one, e.g. the windows of a single run).
    pub key: String,
    /// Wall time of the op in milliseconds.
    pub wall_ms: f64,
    /// Fingerprint of the op's outputs, when it produced any.
    pub fingerprint: Option<u64>,
    /// Why the op failed, if it did.
    pub error: Option<String>,
}

impl OpOutcome {
    /// An op keyed `key` that took `wall` and produced `checked`: its
    /// fingerprint, or why it failed.
    pub fn new(key: impl Into<String>, wall: Duration, checked: Result<u64, String>) -> Self {
        Self {
            key: key.into(),
            wall_ms: wall.as_secs_f64() * 1e3,
            fingerprint: checked.as_ref().ok().copied(),
            error: checked.err(),
        }
    }
}

/// What a round of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct RoundOutput {
    /// Every op, in completion-independent (plan) order.
    pub ops: Vec<OpOutcome>,
    /// Simulated cycles over the round.
    pub cycles: u64,
    /// Layer times (traced rounds only).
    pub layers: LayerTimes,
    /// Threads that executed ops (the denominator of trace coverage).
    pub op_threads: usize,
    /// Distinct experiments the round ran (the plan runner's dedup).
    pub unique_points: u64,
}

/// A benchmark workload: a repeated set-up plus rounds of ops.
pub trait Bench: Sync {
    /// What set-up hands to a round.
    type Prepared: Send;
    /// Builds a round's inputs. `traced` asks for layer times of any
    /// layer calls the set-up makes (they are handed over in the
    /// prepared value).
    fn setup(&self, traced: bool) -> Self::Prepared;
    /// Runs one round on the calling thread (plus any threads it starts).
    fn round(&self, prepared: Self::Prepared, traced: bool) -> RoundOutput;
}

/// Runs `f`, turning a panic into an error message.
pub fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(format!(
            "panicked: {}",
            payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        )),
    }
}

/// Results of ops that are not plan points (the design-space cases and
/// the saturated run), assembled so the bench layer's artifact renderer
/// can render them.
pub fn plan_results(points: Vec<(RunPoint, rfnoc::RunReport, Duration)>) -> PlanResults {
    let total: Duration = points.iter().map(|p| p.2).sum();
    let n = points.len();
    PlanResults {
        results: points
            .into_iter()
            .map(|(point, report, wall)| PointResult {
                point,
                report,
                wall,
                normalized: None,
            })
            .collect(),
        total_wall: total,
        jobs: 1,
        unique_runs: n,
        points_wall: total,
    }
}

/// A stand-alone plan point for `experiment`.
pub fn point(id: String, labels: PointLabels, experiment: Experiment) -> RunPoint {
    RunPoint {
        id,
        labels,
        experiment,
        baseline_id: None,
        is_baseline: false,
    }
}

//! Per-layer accounting for the traced run: wall-clock self time spent
//! in each workspace crate's public calls, timed from outside, plus the
//! exact work counters the engine already exposes.
//!
//! Untraced runs pass `traced = false` to [`timed`], which then reads no
//! clock at all, so the timed and traced runs execute the same calls.

use rfnoc_sim::{LedgerRecord, MessageSpec, RunStats, Workload};
use std::time::Instant;

/// Runs `f`, returning its result and its wall time in seconds (0 when
/// `traced` is off — no clock is read).
#[inline]
pub fn timed<R>(traced: bool, f: impl FnOnce() -> R) -> (R, f64) {
    if !traced {
        return (f(), 0.0);
    }
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Self times (seconds) and work counters of one or more traced ops.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTimes {
    /// `rfnoc-traffic`: workload construction and `messages_at` callbacks.
    pub traffic_gen_s: f64,
    /// `rfnoc-traffic`: communication-frequency profiling.
    pub traffic_profile_s: f64,
    /// Messages the traffic sources produced during simulation.
    pub traffic_messages: u64,
    /// `rfnoc-topology`: shortcut selection.
    pub topology_select_s: f64,
    /// Shortcuts selected.
    pub topology_shortcuts: u64,
    /// `rfnoc` (core): `build_system` minus the selection it runs.
    pub core_build_s: f64,
    /// `rfnoc-sim`: fault-plan resolution and `Network::try_new`.
    pub sim_build_s: f64,
    /// `rfnoc-sim`: `Network::run` minus the traffic callbacks.
    pub sim_engine_s: f64,
    /// Simulated cycles.
    pub sim_cycles: u64,
    /// Flit grants (sum of per-port flit counts).
    pub sim_flit_grants: u64,
    /// Router visits of the active-router sweep (ledger count).
    pub sim_router_visits: u64,
    /// `rfnoc-power`: `NocPowerModel` construction, `power` and `area`.
    pub power_model_s: f64,
    /// `rfnoc-bench`: `artifact::render_json`.
    pub bench_render_s: f64,
    /// Sharded engine: sweep milliseconds per shard index.
    pub shard_sweep_ms: Vec<f64>,
    /// Sharded engine: barrier-wait milliseconds summed over shards.
    pub shard_barrier_ms: f64,
}

impl LayerTimes {
    /// Adds another op's figures to these.
    pub fn merge(&mut self, o: &LayerTimes) {
        self.traffic_gen_s += o.traffic_gen_s;
        self.traffic_profile_s += o.traffic_profile_s;
        self.traffic_messages += o.traffic_messages;
        self.topology_select_s += o.topology_select_s;
        self.topology_shortcuts += o.topology_shortcuts;
        self.core_build_s += o.core_build_s;
        self.sim_build_s += o.sim_build_s;
        self.sim_engine_s += o.sim_engine_s;
        self.sim_cycles += o.sim_cycles;
        self.sim_flit_grants += o.sim_flit_grants;
        self.sim_router_visits += o.sim_router_visits;
        self.power_model_s += o.power_model_s;
        self.bench_render_s += o.bench_render_s;
        if self.shard_sweep_ms.len() < o.shard_sweep_ms.len() {
            self.shard_sweep_ms.resize(o.shard_sweep_ms.len(), 0.0);
        }
        for (a, b) in self.shard_sweep_ms.iter_mut().zip(&o.shard_sweep_ms) {
            *a += b;
        }
        self.shard_barrier_ms += o.shard_barrier_ms;
    }

    /// Sum of every layer's self time, in seconds.
    pub fn self_time_s(&self) -> f64 {
        self.traffic_gen_s
            + self.traffic_profile_s
            + self.topology_select_s
            + self.core_build_s
            + self.sim_build_s
            + self.sim_engine_s
            + self.power_model_s
            + self.bench_render_s
    }

    /// Books one finished simulation: `run_s` is the wall time of
    /// `Network::run`, `traffic` the wrapper that timed its callbacks.
    /// Reads the exact counters from `stats` and the shard sweep/barrier
    /// split from its ledger, when the run carried one.
    pub fn book_run(&mut self, stats: &RunStats, run_s: f64, traffic: &TimedWorkload<'_>) {
        self.traffic_gen_s += traffic.secs;
        self.traffic_messages += traffic.messages;
        self.sim_engine_s += (run_s - traffic.secs).max(0.0);
        self.sim_cycles += stats.end_cycle;
        self.sim_flit_grants += stats.port_flits.iter().sum::<u64>();
        let Some(ledger) = &stats.ledger else { return };
        self.sim_router_visits += ledger.active_visits;
        for r in &ledger.records {
            if let LedgerRecord::Shard {
                shard,
                sweep_ms,
                barrier_ms,
                ..
            } = r
            {
                let i = *shard as usize;
                if self.shard_sweep_ms.len() <= i {
                    self.shard_sweep_ms.resize(i + 1, 0.0);
                }
                self.shard_sweep_ms[i] += sweep_ms;
                self.shard_barrier_ms += barrier_ms;
            }
        }
    }

    /// Barrier share of the sharded sweep phase (0 without shards).
    pub fn barrier_wait_frac(&self) -> f64 {
        let sweep: f64 = self.shard_sweep_ms.iter().sum();
        let total = sweep + self.shard_barrier_ms;
        if total > 0.0 {
            self.shard_barrier_ms / total
        } else {
            0.0
        }
    }

    /// Slowest shard's sweep time over the mean (1 without shards).
    pub fn shard_imbalance(&self) -> f64 {
        let n = self.shard_sweep_ms.len();
        let sum: f64 = self.shard_sweep_ms.iter().sum();
        if n == 0 || sum <= 0.0 {
            return 1.0;
        }
        let max = self.shard_sweep_ms.iter().copied().fold(0.0, f64::max);
        max / (sum / n as f64)
    }
}

/// A [`Workload`] wrapper that times every `messages_at` callback and
/// counts the messages it produced.
pub struct TimedWorkload<'a> {
    inner: &'a mut dyn Workload,
    traced: bool,
    /// Seconds spent inside the wrapped callbacks.
    pub secs: f64,
    /// Messages the wrapped source produced.
    pub messages: u64,
}

impl<'a> TimedWorkload<'a> {
    /// Wraps `inner`; with `traced` off the wrapper only forwards.
    pub fn new(inner: &'a mut dyn Workload, traced: bool) -> Self {
        Self {
            inner,
            traced,
            secs: 0.0,
            messages: 0,
        }
    }
}

impl Workload for TimedWorkload<'_> {
    fn messages_at(&mut self, cycle: u64, out: &mut Vec<MessageSpec>) {
        if !self.traced {
            self.inner.messages_at(cycle, out);
            return;
        }
        let t0 = Instant::now();
        let before = out.len();
        self.inner.messages_at(cycle, out);
        self.messages += (out.len() - before) as u64;
        self.secs += t0.elapsed().as_secs_f64();
    }
}

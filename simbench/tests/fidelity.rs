//! Traced-path fidelity: the decomposed call chain the traced run times
//! must reproduce `Experiment::run` exactly — every point of the
//! `paper_sweep` plan (fault points included) and the small designs of
//! `design_space`, traced and untraced.

use rfnoc::{Experiment, FaultSpec, RunReport};
use rfnoc_simbench::chain::{run_chain, ChainMode};
use rfnoc_simbench::check::DEFAULT_SEED;
use rfnoc_simbench::layers::LayerTimes;
use rfnoc_simbench::workloads::{design_space, paper_sweep};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

fn assert_same(id: &str, want: &RunReport, got: &RunReport) {
    assert_eq!(want.system, got.system, "{id}: system");
    assert_eq!(want.workload, got.workload, "{id}: workload");
    assert_eq!(want.power, got.power, "{id}: power");
    assert_eq!(want.area, got.area, "{id}: area");
    assert!(want.stats == got.stats, "{id}: run statistics differ");
}

/// Runs `check` over `items` on two threads.
fn par_each<T: Sync>(items: &[T], check: impl Fn(&T) + Sync) {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                while let Some(item) = items.get(next.fetch_add(1, Ordering::Relaxed)) {
                    check(item);
                }
            });
        }
    });
}

#[test]
fn traced_chain_reproduces_every_paper_sweep_point() {
    let plan = paper_sweep::expand(DEFAULT_SEED);
    let points: Vec<(String, Experiment)> = plan
        .unique
        .iter()
        .map(|&u| {
            (
                plan.merged.points[u].id.clone(),
                plan.merged.points[u].experiment.clone(),
            )
        })
        .collect();
    assert_eq!(points.len(), 134, "distinct experiments of the quick suite");
    let faulted = Mutex::new(0usize);
    par_each(&points, |(id, exp)| {
        let want = exp.run();
        let mode = ChainMode {
            traced: true,
            explicit_select: false,
        };
        let mut lt = LayerTimes::default();
        let got = run_chain(exp, mode, &mut lt).unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_same(id, &want, &got.report);
        assert_eq!(lt.sim_cycles, want.stats.end_cycle, "{id}: booked cycles");
        assert!(lt.sim_router_visits > 0, "{id}: the ledger counted visits");
        if exp.faults != FaultSpec::None
            && want.stats.shortcut_faults + want.stats.mesh_link_faults > 0
        {
            *faulted.lock().unwrap() += 1;
        }
    });
    assert!(*faulted.lock().unwrap() > 0, "fault points applied faults");
}

#[test]
fn chain_reproduces_small_design_space_cases() {
    let designs: Vec<_> = design_space::designs(DEFAULT_SEED)
        .into_iter()
        .filter(|p| p.experiment.placement.dims().width() <= 16)
        .collect();
    assert!(designs.len() >= 50);
    par_each(&designs, |p| {
        let want = p.experiment.run();
        for traced in [false, true] {
            let mode = ChainMode {
                traced,
                explicit_select: true,
            };
            let got = run_chain(&p.experiment, mode, &mut LayerTimes::default())
                .unwrap_or_else(|e| panic!("{}: {e}", p.id));
            assert_same(&p.id, &want, &got.report);
        }
    });
}

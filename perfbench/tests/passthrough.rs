//! The decorators are transparent: a run set up and profiled by the
//! benchmark produces the same `RunResult` bytes as the library's own
//! `ScenarioSpec::execute`.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use experiments::common::SchedulerKind;
use experiments::scenario::load_spec;
use metrics::emit::run_result_json;
use perfbench::layers::{Layer, Profiler, SharedProfiler};
use perfbench::workload::{setup, Workload};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// `RunResult` JSON of the library path, and of the benchmark path
/// untraced and traced, for the E-Ant cell of `file` at its first seed on
/// the fast profile.
fn three_ways(file: &'static str, monitored: bool) -> (String, String, String, Profiler) {
    let spec = load_spec(&root().join("scenarios").join(file)).expect("committed scenario");
    let seed = spec.seeds[0];
    let eant = spec
        .schedulers
        .iter()
        .find(|k| matches!(k, SchedulerKind::EAnt(_)))
        .expect("scenario runs E-Ant");
    let library = run_result_json(&spec.execute(eant, seed, true));

    let workload = Workload {
        name: file,
        file,
        monitored,
        replicas: 1,
    };
    let mut plain = setup(&root(), workload, seed, true, None).expect("set-up");
    let untraced = run_result_json(&plain.run(None));

    let prof: SharedProfiler = Rc::new(RefCell::new(Profiler::default()));
    let mut cell = setup(&root(), workload, seed, true, Some(&prof)).expect("set-up");
    let traced = run_result_json(&cell.run(Some(&prof)));
    drop(cell);
    let profile = Rc::try_unwrap(prof)
        .expect("no decorator outlives its cell")
        .into_inner();
    (library, untraced, traced, profile)
}

#[test]
fn scheduler_decorator_is_a_pass_through_on_fig8_msd() {
    let (library, untraced, traced, profile) = three_ways("fig8-msd.json", false);
    assert_eq!(untraced, library, "benchmark set-up differs from execute()");
    assert_eq!(traced, library, "the scheduler decorator perturbed the run");
    assert!(profile.is_balanced());
    assert!(profile.layer(Layer::SelectMap).calls > 0);
    assert_eq!(
        profile.counters.completions,
        profile.layer(Layer::TaskReport).calls
    );
}

#[test]
fn observer_decorator_is_a_pass_through_on_a_monitored_serve_run() {
    let (library, untraced, traced, profile) = three_ways("serve-steady-poisson.json", true);
    assert_eq!(untraced, library, "observers perturbed the run");
    assert_eq!(traced, library, "the observer decorator perturbed the run");
    assert!(profile.layer(Layer::Registry).calls > 0);
    assert_eq!(
        profile.layer(Layer::Registry).calls,
        profile.layer(Layer::Watchdog).calls,
        "registry and watchdog see the same event streams"
    );
    let self_sum: u64 = Layer::ALL.iter().map(|&l| profile.layer(l).self_ns).sum();
    assert_eq!(self_sum, profile.layer(Layer::Run).total_ns);
}

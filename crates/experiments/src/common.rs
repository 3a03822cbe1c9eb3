//! Shared experiment machinery: scheduler factory, the Fig. 8 grid, runs.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use baselines::{FairScheduler, FifoScheduler, TarazuScheduler};
use eant::{EAntConfig, EAntScheduler};
use hadoop_sim::{Engine, RunResult, Scheduler};
use simcore::SimTime;
use workload::{JobId, JobSpec};

use crate::scenario::ScenarioSpec;

/// Which scheduler a run uses.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerKind {
    /// Default Hadoop FIFO — the paper's "heterogeneity-agnostic Hadoop".
    Fifo,
    /// Hadoop Fair Scheduler.
    Fair,
    /// Tarazu reimplementation.
    Tarazu,
    /// E-Ant with the given configuration.
    EAnt(EAntConfig),
}

impl SchedulerKind {
    /// Instantiates the scheduler with `seed`.
    pub fn make(&self, seed: u64) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Fifo => Box::new(FifoScheduler::new()),
            SchedulerKind::Fair => Box::new(FairScheduler::new()),
            SchedulerKind::Tarazu => Box::new(TarazuScheduler::new(seed)),
            SchedulerKind::EAnt(cfg) => Box::new(EAntScheduler::new(*cfg, seed)),
        }
    }

    /// Display name matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::Fifo => "FIFO",
            SchedulerKind::Fair => "Fair",
            SchedulerKind::Tarazu => "Tarazu",
            SchedulerKind::EAnt(_) => "E-Ant",
        }
    }
}

/// The Fig. 8 / Fig. 9 headline grid, parsed once from the committed
/// `scenarios/fig8-msd.json`: the MSD mix on the paper fleet under Fair,
/// Tarazu and E-Ant over five comparison seeds. The file is compiled in,
/// so figure runs never depend on the working directory. Experiments that
/// vary the engine or workload clone it and override `engine` or
/// `fast_workload`.
///
/// Paper scale is 87 jobs with task counts scaled by 64, like the paper
/// scaled its own workload down. Their 35-minute submission window gives
/// the same job concurrency density (~2.5 jobs/min) as the validated
/// 30-job, 12-minute fast workload, which reproduces the paper's
/// moderately loaded cluster.
pub fn fig8_spec() -> &'static ScenarioSpec {
    static SPEC: OnceLock<ScenarioSpec> = OnceLock::new();
    SPEC.get_or_init(|| {
        ScenarioSpec::parse(include_str!("../../../scenarios/fig8-msd.json"))
            .unwrap_or_else(|e| panic!("scenarios/fig8-msd.json: {e}"))
    })
}

/// Default worker count for [`parallel_runs`]: the machine's available
/// parallelism, overridable via the `EANT_THREADS` environment variable
/// (useful for benchmarking scaling and for forcing single-threaded runs).
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var("EANT_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs independent closures concurrently on a bounded pool of OS threads
/// and returns their results in order. Simulation runs are CPU-bound and
/// independent, so seed sweeps scale nearly linearly up to the core count.
pub fn parallel_runs<T, F>(tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    parallel_runs_with_workers(default_workers(), tasks)
}

/// Runs independent closures on exactly `workers` scoped OS threads.
///
/// Results are returned in task order and are **identical for every worker
/// count**: each closure owns its state (per-run RNG streams are derived
/// from the run's own seed, never from a shared generator), so the only
/// thing the pool decides is *when* a task runs, never *what* it computes.
/// The determinism suite (`tests/determinism.rs`) locks this in by
/// comparing serialized results across worker counts.
///
/// # Panics
///
/// Panics if `workers` is zero or any task panics.
pub fn parallel_runs_with_workers<T, F>(workers: usize, tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    assert!(workers > 0, "need at least one worker");
    let n = tasks.len();
    if n == 0 {
        return Vec::new();
    }
    // Each slot hands exactly one task to exactly one worker: workers claim
    // indices from a shared counter, so no task is ever run twice and the
    // result lands in its input position.
    let slots: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let task = slots[i]
                    .lock()
                    .expect("task slot lock")
                    .take()
                    .expect("task already taken");
                let out = task();
                *results[i].lock().expect("result slot lock") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot lock")
                .expect("simulation thread panicked")
        })
        .collect()
}

/// Merges several same-fleet runs of one scheduler into a single result
/// for figure rendering: machine energies and task counts are averaged
/// across runs, job outcomes are concatenated (the label-keyed completion
/// averages then pool all repetitions), and time-series data is taken from
/// the first run.
///
/// # Panics
///
/// Panics if `runs` is empty or fleets differ in size.
pub fn merge_runs(mut runs: Vec<RunResult>) -> RunResult {
    assert!(!runs.is_empty(), "need at least one run to merge");
    let n = runs.len() as f64;
    let mut base = runs.remove(0);
    for other in &runs {
        assert_eq!(
            base.machines.len(),
            other.machines.len(),
            "fleet size mismatch"
        );
        for (m, o) in base.machines.iter_mut().zip(&other.machines) {
            m.energy_joules += o.energy_joules;
            m.idle_joules += o.idle_joules;
            m.workload_joules += o.workload_joules;
            m.mean_utilization += o.mean_utilization;
            m.map_tasks += o.map_tasks;
            m.reduce_tasks += o.reduce_tasks;
            for (bench, c) in &o.tasks_by_benchmark {
                *m.tasks_by_benchmark.entry(bench.clone()).or_insert(0) += c;
            }
        }
        base.jobs.extend(other.jobs.iter().cloned());
        base.total_tasks += other.total_tasks;
        base.drained &= other.drained;
        base.task_failures += other.task_failures;
        base.machine_failures += other.machine_failures;
        base.map_outputs_lost += other.map_outputs_lost;
        base.machines_blacklisted += other.machines_blacklisted;
    }
    for m in &mut base.machines {
        m.energy_joules /= n;
        m.idle_joules /= n;
        m.workload_joules /= n;
        m.mean_utilization /= n;
        // Task counts stay averaged too so per-machine rates are per-run.
        m.map_tasks = (m.map_tasks as f64 / n).round() as u64;
        m.reduce_tasks = (m.reduce_tasks as f64 / n).round() as u64;
        for c in m.tasks_by_benchmark.values_mut() {
            *c = (*c as f64 / n).round() as u64;
        }
    }
    base
}

/// The three-way comparison every Fig. 8 / Fig. 9 panel draws from: the
/// [`fig8_spec`] grid, each scheduler's runs merged over the spec's seeds.
/// Cached per scale so `experiments all` computes it once.
pub fn msd_comparison(fast: bool) -> Arc<Vec<RunResult>> {
    static CACHE: OnceLock<Mutex<HashMap<bool, Arc<Vec<RunResult>>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().expect("cache lock").get(&fast) {
        return Arc::clone(hit);
    }
    // All (scheduler × seed) runs are independent: fan them out.
    let spec = fig8_spec();
    let tasks: Vec<_> = spec
        .schedulers
        .iter()
        .flat_map(|kind| {
            spec.seeds
                .iter()
                .map(move |&seed| move || spec.execute(kind, seed, fast))
        })
        .collect();
    let mut flat = parallel_runs(tasks);
    let runs: Vec<RunResult> = spec
        .schedulers
        .iter()
        .map(|_| merge_runs(flat.drain(..spec.seeds.len()).collect()))
        .collect();
    let arc = Arc::new(runs);
    cache
        .lock()
        .expect("cache lock")
        .insert(fast, Arc::clone(&arc));
    arc
}

/// Standalone completion time of each job (seconds): every job of one
/// `spec` run is run alone on an idle copy of its fleet under FIFO — the
/// "standalone execution time" of the paper's slowdown metric \[18\].
pub fn standalone_times(spec: &ScenarioSpec, seed: u64, fast: bool) -> BTreeMap<JobId, f64> {
    let mut out = BTreeMap::new();
    for job in spec.jobs(seed, fast) {
        let solo = JobSpec::new(
            JobId(0),
            job.benchmark().clone(),
            job.num_maps(),
            job.num_reduces(),
            SimTime::ZERO,
        );
        let mut engine = Engine::new(spec.build_fleet(), spec.engine.clone(), seed);
        engine.submit_jobs(vec![solo]);
        let mut fifo = FifoScheduler::new();
        let result = engine.run(&mut fifo);
        if let Some(ct) = result.jobs[0].completion_time() {
            out.insert(job.id(), ct.as_secs_f64());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_factory_labels() {
        assert_eq!(SchedulerKind::Fifo.label(), "FIFO");
        assert_eq!(SchedulerKind::Fair.label(), "Fair");
        assert_eq!(SchedulerKind::Tarazu.label(), "Tarazu");
        assert_eq!(
            SchedulerKind::EAnt(EAntConfig::paper_default()).label(),
            "E-Ant"
        );
        assert_eq!(SchedulerKind::Fair.make(0).name(), "Fair");
    }

    #[test]
    fn fast_scenario_runs_all_schedulers() {
        for kind in [
            SchedulerKind::Fifo,
            SchedulerKind::Fair,
            SchedulerKind::Tarazu,
            SchedulerKind::EAnt(EAntConfig::paper_default()),
        ] {
            let r = fig8_spec().execute(&kind, 1, true);
            assert!(r.drained, "{} failed to drain", kind.label());
            assert_eq!(r.scheduler, kind.label());
        }
    }

    #[test]
    fn scenario_jobs_deterministic() {
        let spec = fig8_spec();
        assert_eq!(spec.jobs(5, true), spec.jobs(5, true));
    }
}

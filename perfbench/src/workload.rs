//! The benchmark's workloads and one repetition of a workload: set-up,
//! `Engine::run`, the simulated outcome, and the correctness checks.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use cluster::hdfs::{BlockPlacer, DEFAULT_REPLICATION};
use experiments::common::SchedulerKind;
use experiments::scenario::{load_spec, ScenarioSpec, WorkloadSpec};
use hadoop_sim::trace::SharedObserver;
use hadoop_sim::{Engine, RunResult, Scheduler, SloConfig, SloWatchdog, StopCondition};
use metrics::emit::run_result_json;
use metrics::registry::RegistryObserver;
use simcore::{fnv1a_64, SimDuration, SimRng, SimTime};
use workload::open::OpenStream;

use crate::layers::{self, Layer, Profiler, SharedProfiler, TimedObserver, TimedScheduler};

/// One benchmark workload: a committed scenario file run under E-Ant.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Scenario file under `scenarios/`.
    pub file: &'static str,
    /// Whether the observability stack `scenario run` uses rides along.
    pub monitored: bool,
    /// Independent copies of the system an untraced run cycles through,
    /// each on its own seed from [`replica_seeds`].
    pub replicas: usize,
}

/// The workloads: the two that `BENCHMARK.json` lists, in its order, then
/// `drain-scale-1000`, which runs by name only. `README.md` records why
/// each was chosen and why the drain is not in `BENCHMARK.json`. The drain
/// has one replica: its repetitions take about ten times as long as
/// `serve-overload`'s.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "serve-overload",
        file: "serve-overload-burst.json",
        monitored: false,
        replicas: 4,
    },
    Workload {
        name: "serve-steady-monitored",
        file: "serve-steady-poisson.json",
        monitored: true,
        replicas: 4,
    },
    Workload {
        name: "drain-scale-1000",
        file: "scale-1000.json",
        monitored: false,
        replicas: 1,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The seeds of `count` replicas of a run on `seed`: `seed` itself first,
/// then one draw from each of the replica forks of a `SimRng` on `seed`.
#[must_use]
pub fn replica_seeds(seed: u64, count: usize) -> Vec<u64> {
    let root = SimRng::seed_from(seed);
    (0..count)
        .map(|i| match i {
            0 => seed,
            _ => root.fork_index("replica", i).next_u64(),
        })
        .collect()
}

/// The registry and watchdog handles of a monitored cell.
struct Monitors {
    registry: SharedObserver<RegistryObserver>,
    watchdog: SharedObserver<SloWatchdog>,
}

/// A set-up cell, ready for `Engine::run`.
pub struct Cell {
    spec: ScenarioSpec,
    engine: Engine,
    scheduler: Box<dyn Scheduler>,
    monitors: Option<Monitors>,
    /// Map-task count of every job submitted up front, in id order.
    upfront_maps: Vec<u32>,
    /// Tasks submitted up front (drain workloads).
    submitted_tasks: u64,
    /// Host seconds from loading the spec to the cell being ready.
    pub setup_s: f64,
    /// Host seconds in `Engine::submit_jobs`.
    pub submit_s: f64,
}

/// Loads `workload`'s scenario and builds its E-Ant cell the way
/// `ScenarioSpec::execute_observed` does, timing the set-up. With a
/// profiler, the registry and watchdog are attached behind
/// [`TimedObserver`]s.
///
/// # Errors
///
/// Returns an error when the scenario file is missing or invalid or names
/// no E-Ant scheduler.
pub fn setup(
    root: &Path,
    workload: Workload,
    seed: u64,
    fast: bool,
    prof: Option<&SharedProfiler>,
) -> Result<Cell, String> {
    let started = Instant::now();
    let spec = load_spec(&root.join("scenarios").join(workload.file))?;
    let kind = spec
        .schedulers
        .iter()
        .find(|k| matches!(k, SchedulerKind::EAnt(_)))
        .ok_or_else(|| format!("{} runs no E-Ant cell", workload.file))?
        .clone();
    let mut config = spec.engine.clone();
    if let Some(serve) = &spec.serve {
        let (warmup, measure) = serve.horizon(fast);
        config.stop = StopCondition::Horizon { warmup, measure };
    }
    // The traffic (job list or arrival stream) is the scenario's own, from
    // its committed seed; `seed` drives the system under test: block
    // placement, task-demand noise and the scheduler's draws.
    let trace_seed = spec.seeds[0];
    let mut engine = Engine::new(spec.build_fleet(), config, seed);
    let jobs = spec.jobs(trace_seed, fast);
    let upfront_maps: Vec<u32> = jobs.iter().map(|j| j.num_maps()).collect();
    let submitted_tasks = jobs
        .iter()
        .map(|j| u64::from(j.num_maps()) + u64::from(j.num_reduces()))
        .sum();
    let submit_started = Instant::now();
    engine.submit_jobs(jobs);
    let submit_s = submit_started.elapsed().as_secs_f64();
    if spec.serve.is_some() {
        if let WorkloadSpec::Open(stream) = spec.workload_for(fast) {
            let mut rng = SimRng::seed_from(trace_seed).fork("serve");
            engine.attach_open_stream(OpenStream::new(stream, 1.0, &mut rng));
        }
    }
    let mut scheduler = kind.make(seed);
    let monitors = workload.monitored.then(|| {
        let m = Monitors {
            registry: SharedObserver::new(RegistryObserver::with_sampling()),
            watchdog: SharedObserver::new(SloWatchdog::new(never_tripping_slo())),
        };
        // Engine stream first, then the scheduler's own events, as the
        // telemetry bench attaches them.
        for to_engine in [true, false] {
            for observer in monitor_observers(&m, prof) {
                if to_engine {
                    engine.attach_observer(observer);
                } else {
                    scheduler.attach_observer(observer);
                }
            }
        }
        m
    });
    Ok(Cell {
        spec,
        engine,
        scheduler,
        monitors,
        upfront_maps,
        submitted_tasks,
        setup_s: started.elapsed().as_secs_f64(),
        submit_s,
    })
}

impl Cell {
    /// Calls `Engine::run`; with a profiler, behind a [`TimedScheduler`]
    /// and inside a root span of [`Layer::Run`].
    pub fn run(&mut self, prof: Option<&SharedProfiler>) -> RunResult {
        match prof {
            None => self.engine.run(self.scheduler.as_mut()),
            Some(p) => {
                let mut timed = TimedScheduler::new(self.scheduler.as_mut(), p.clone());
                layers::timed(p, Layer::Run, || self.engine.run(&mut timed))
            }
        }
    }
}

/// Thresholds far above anything the steady workload produces: every
/// monitor evaluates each interval and none trips, the steady-state cost
/// a production run pays.
fn never_tripping_slo() -> SloConfig {
    SloConfig {
        p99_sojourn: Some(SimDuration::from_secs(1_000_000)),
        arm_after: SimTime::ZERO,
        ..SloConfig::default()
    }
}

/// One (registry, watchdog) pair of observer handles, timed when a
/// profiler is given.
fn monitor_observers(
    m: &Monitors,
    prof: Option<&SharedProfiler>,
) -> [Box<dyn hadoop_sim::trace::Observer<hadoop_sim::SimEvent>>; 2] {
    let (reg, dog) = (m.registry.clone(), m.watchdog.clone());
    match prof {
        Some(p) => [
            Box::new(TimedObserver::new(reg, Layer::Registry, p.clone())),
            Box::new(TimedObserver::new(dog, Layer::Watchdog, p.clone())),
        ],
        None => [Box::new(reg), Box::new(dog)],
    }
}

/// The simulated outcome of a run. Deterministic for a given seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Fleet energy over the whole simulated run, MJ.
    pub energy_mj: f64,
    /// Simulated time of the last job completion, s.
    pub makespan_s: f64,
    /// Median job sojourn (submit to finish), s.
    pub p50_sojourn_s: f64,
    /// 95th-percentile job sojourn, s.
    pub p95_sojourn_s: f64,
    /// Completed jobs per simulated minute.
    pub jobs_per_min: f64,
    /// Energy per completed job, kJ.
    pub energy_per_job_kj: f64,
    /// Whether every job finished.
    pub drained: bool,
}

impl SimOutcome {
    /// Service workloads take the engine's measurement-window statistics;
    /// drain workloads have none, so the same quantities are taken over
    /// every job of the run, with the same nearest-rank convention.
    fn of(result: &RunResult) -> Result<Self, String> {
        let finished: Vec<(f64, f64)> = result
            .jobs
            .iter()
            .filter_map(|j| {
                let done = j.finished_at?;
                Some((done.as_secs_f64(), (done - j.submitted_at).as_secs_f64()))
            })
            .collect();
        if finished.is_empty() {
            return Err("no job finished".into());
        }
        let makespan_s = finished.iter().map(|f| f.0).fold(0.0, f64::max);
        let energy_j = result.total_energy_joules();
        let (p50, p95, jobs_per_min, energy_per_job_j) = match &result.service {
            Some(service) => {
                let pct = |p| {
                    service
                        .percentile(p)
                        .map(SimDuration::as_secs_f64)
                        .ok_or_else(|| format!("no p{p} sojourn in the measurement window"))
                };
                (
                    pct(50)?,
                    pct(95)?,
                    service.throughput_per_min,
                    service.energy_per_job,
                )
            }
            None => {
                let mut sojourns: Vec<f64> = finished.iter().map(|f| f.1).collect();
                sojourns.sort_by(f64::total_cmp);
                let n = finished.len() as f64;
                (
                    nearest_rank(&sojourns, 50),
                    nearest_rank(&sojourns, 95),
                    n / (makespan_s / 60.0),
                    energy_j / n,
                )
            }
        };
        Ok(SimOutcome {
            energy_mj: energy_j / 1e6,
            makespan_s,
            p50_sojourn_s: p50,
            p95_sojourn_s: p95,
            jobs_per_min,
            energy_per_job_kj: energy_per_job_j / 1e3,
            drained: result.drained,
        })
    }
}

/// Nearest-rank percentile of a sorted, non-empty sample — the convention
/// `ServiceStats` uses.
fn nearest_rank(sorted: &[f64], p: usize) -> f64 {
    let rank = (sorted.len() * p).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// The outside-in profile of a traced repetition.
#[derive(Debug)]
pub struct Traced {
    /// Span and counter accumulators.
    pub profile: Profiler,
    /// Host seconds of the `BlockPlacer::place` replay.
    pub place_s: f64,
    /// Blocks the replay placed.
    pub blocks_placed: u64,
}

/// One repetition: set-up, run, outcome and checks.
#[derive(Debug)]
pub struct Rep {
    /// The seed the repetition ran on.
    pub seed: u64,
    /// Host seconds from loading the spec to calling `Engine::run`.
    pub setup_s: f64,
    /// Host seconds in `Engine::submit_jobs`.
    pub submit_s: f64,
    /// Host seconds in `Engine::run`.
    pub run_s: f64,
    /// Simulated task completions.
    pub completions: u64,
    /// Simulated seconds the run advanced.
    pub sim_s: f64,
    /// Process memory high-water mark right after the run, before its
    /// result is rendered, MB.
    pub peak_rss_mb: f64,
    /// FNV-1a of the run's canonical `RunResult` JSON.
    pub result_hash: u64,
    /// The simulated outcome.
    pub outcome: Option<SimOutcome>,
    /// The layer profile, for traced repetitions.
    pub traced: Option<Traced>,
    /// Failed correctness checks.
    pub problems: Vec<String>,
}

/// Runs one repetition of `workload` at the scenario's full profile,
/// traced or not.
///
/// # Errors
///
/// Returns set-up errors (missing or invalid scenario file).
pub fn run_rep(root: &Path, workload: Workload, seed: u64, traced: bool) -> Result<Rep, String> {
    let prof: Option<SharedProfiler> = traced.then(|| Rc::new(RefCell::new(Profiler::default())));
    let mut cell = setup(root, workload, seed, false, prof.as_ref())?;
    let started = Instant::now();
    let result = cell.run(prof.as_ref());
    let run_s = started.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();
    let Cell {
        spec,
        engine,
        scheduler,
        monitors,
        upfront_maps,
        submitted_tasks,
        setup_s,
        submit_s,
    } = cell;
    // The engine and scheduler hold the observer handles.
    drop(engine);
    drop(scheduler);

    let mut problems = Vec::new();
    let outcome = SimOutcome::of(&result).map_err(|e| problems.push(e)).ok();
    if spec.serve.is_none() {
        if !result.drained || result.jobs.iter().any(|j| j.finished_at.is_none()) {
            problems.push("drain workload did not drain".into());
        }
        if result.total_tasks != submitted_tasks {
            problems.push(format!(
                "completed {} tasks of {submitted_tasks} submitted",
                result.total_tasks
            ));
        }
    }
    if let Some(m) = monitors {
        let Ok(dog) = m.watchdog.try_into_inner() else {
            panic!("the engine outlived its watchdog handle");
        };
        if let Some(breach) = dog.breach() {
            problems.push(format!("watchdog tripped: {}", breach.monitor));
        }
        let Ok(registry) = m.registry.try_into_inner() else {
            panic!("the engine outlived its registry handle");
        };
        if registry
            .series_snapshot()
            .is_none_or(|s| s.series.is_empty())
        {
            problems.push("registry sampled no series".into());
        }
    }
    let traced = match prof {
        None => None,
        Some(p) => {
            let profile = Rc::try_unwrap(p)
                .unwrap_or_else(|_| panic!("a decorator outlived the run"))
                .into_inner();
            check_profile(&profile, &mut problems);
            // Blocks are placed in job-id order from one stream: the
            // up-front jobs at submission, stream jobs at arrival.
            let mut maps: Vec<(usize, u32)> = upfront_maps.iter().copied().enumerate().collect();
            maps.extend(
                profile
                    .counters
                    .submitted_maps
                    .iter()
                    .filter(|(id, _)| id.index() >= upfront_maps.len())
                    .map(|&(id, m)| (id.index(), m)),
            );
            maps.sort_unstable();
            let (place_s, blocks_placed) = replay_placement(&spec, seed, &maps);
            Some(Traced {
                profile,
                place_s,
                blocks_placed,
            })
        }
    };
    Ok(Rep {
        seed,
        setup_s,
        submit_s,
        run_s,
        completions: result.total_tasks,
        sim_s: result.makespan.as_secs_f64(),
        peak_rss_mb,
        result_hash: fnv1a_64(run_result_json(&result).as_bytes()),
        outcome,
        traced,
        problems,
    })
}

/// The span stack must be balanced, and the self times of all layers must
/// add up to the traced `Engine::run` span exactly.
fn check_profile(profile: &Profiler, problems: &mut Vec<String>) {
    if !profile.is_balanced() {
        problems.push("span stack left unbalanced".into());
    }
    let self_sum: u64 = Layer::ALL.iter().map(|&l| profile.layer(l).self_ns).sum();
    let run_ns = profile.layer(Layer::Run).total_ns;
    if self_sum != run_ns {
        problems.push(format!(
            "layer self times sum to {self_sum} ns, traced run took {run_ns} ns"
        ));
    }
}

/// Replays `BlockPlacer::place` for `maps` (job id, map count) on the
/// scenario's fleet with the engine's `fork("placement")` stream, timing
/// the placement calls only.
fn replay_placement(spec: &ScenarioSpec, seed: u64, maps: &[(usize, u32)]) -> (f64, u64) {
    let fleet = spec.build_fleet();
    let mut rng = SimRng::seed_from(seed).fork("placement");
    let mut placer = BlockPlacer::new(DEFAULT_REPLICATION);
    let mut blocks = 0u64;
    let mut place_s = 0.0;
    for &(_, count) in maps {
        let started = Instant::now();
        let placed = placer.place(&fleet, count as usize, &mut rng);
        place_s += started.elapsed().as_secs_f64();
        blocks += std::hint::black_box(placed).len() as u64;
    }
    (place_s, blocks)
}

/// The process's resident-set high-water mark (`VmHWM`), MB; 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_seeds_start_at_the_seed_and_are_distinct() {
        let seeds = replica_seeds(2015, 4);
        assert_eq!(seeds[0], 2015);
        assert_eq!(seeds, replica_seeds(2015, 4), "derivation is deterministic");
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4, "{seeds:?}");
        assert_eq!(replica_seeds(2015, 1), [2015]);
    }
}

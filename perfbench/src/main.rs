//! Benchmark command: runs one workload for a time budget and prints its
//! metrics, ending with one JSON line.
//!
//! ```text
//! perfbench --root <repo> --workload <name> [--seed N] [--seconds S]
//!           [--trace 0|1] [--rustc <version>] [--commit <id>]
//! ```
//!
//! Untraced repetitions give the end-to-end metrics (`--trace 0`); they
//! cycle through the workload's replicas, copies of the system on seeds
//! derived from `--seed`, and each is followed by a timed run of the
//! fixed reference workload their host times are scaled by. With
//! `--trace 1`, untraced and traced
//! repetitions of `--seed` alone alternate: the traced ones give the
//! per-layer metrics, and the difference between the two kinds of run is
//! the tracing overhead. Everything runs on this one thread.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::layers::Layer;
use perfbench::reference;
use perfbench::stats::{median, quartiles};
use perfbench::workload::{self, Rep, Workload, WORKLOADS};

/// Repetitions per replica at least: repeat-identity needs two runs.
const MIN_REPS: usize = 2;

struct Args {
    root: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rustc: String,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut root = None;
    let mut workload = None;
    let mut seed = 2015;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut rustc = "unknown".to_owned();
    let mut commit = "unknown".to_owned();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--root" => root = Some(PathBuf::from(value)),
            "--workload" => {
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(workload::by_name(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--rustc" => rustc = value,
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        root: root.ok_or("--root is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        rustc,
        commit,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "host: nproc={threads} rustc={:?} profile={} commit={} threads_used=1",
        args.rustc,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        args.commit,
    );
    println!(
        "workload {} seed {} budget {} s trace {}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );

    // The traced view profiles `--seed` alone, so its work counters repeat.
    let seeds = workload::replica_seeds(
        args.seed,
        if args.trace {
            1
        } else {
            args.workload.replicas
        },
    );
    let min_reps = MIN_REPS * seeds.len();
    let mut reps: Vec<Rep> = Vec::new();
    // Reference seconds after each untraced-mode repetition, in step with
    // `reps`. Taken after the repetition, so the first repetition's peak
    // RSS reading does not include the reference's tables.
    let mut references: Vec<f64> = Vec::new();
    let mut attempted = 0u64;
    let mut panicked = 0u64;
    let started = Instant::now();
    loop {
        attempted += 1;
        // With tracing, untraced and traced repetitions alternate so both
        // kinds see the same machine conditions.
        let traced = args.trace && reps.len() % 2 == 1;
        let seed = seeds[reps.len() % seeds.len()];
        let attempt =
            std::panic::catch_unwind(|| workload::run_rep(&args.root, args.workload, seed, traced));
        match attempt {
            Ok(Ok(rep)) => {
                let reference_s = (!args.trace).then(reference::seconds);
                println!(
                    "rep {:>3} seed {seed:>20} {}: setup {:.4} s, run {:.4} s{}, {} completions, result {:016x}{}",
                    reps.len(),
                    if traced { "traced  " } else { "untraced" },
                    rep.setup_s,
                    rep.run_s,
                    reference_s.map_or(String::new(), |s| format!(", reference {s:.4} s")),
                    rep.completions,
                    rep.result_hash,
                    if rep.problems.is_empty() {
                        String::new()
                    } else {
                        format!(" FAILED: {}", rep.problems.join("; "))
                    }
                );
                reps.push(rep);
                references.extend(reference_s);
            }
            Ok(Err(e)) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
            Err(_) => {
                println!("rep {:>3}: PANICKED", reps.len());
                panicked += 1;
                break;
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        let per_rep = elapsed / reps.len() as f64;
        if reps.len() >= min_reps && elapsed + per_rep > args.seconds {
            break;
        }
    }
    // Every repetition of one seed must produce the same bytes.
    for &seed in &seeds {
        let mut of_seed = reps.iter_mut().filter(|r| r.seed == seed);
        let Some(first_hash) = of_seed.next().map(|r| r.result_hash) else {
            continue;
        };
        for rep in of_seed.filter(|r| r.result_hash != first_hash) {
            rep.problems.push(format!(
                "RunResult {:016x} differs from the first repetition's {first_hash:016x} on seed {seed}",
                rep.result_hash
            ));
        }
    }
    let mut problems = Vec::new();
    if reps.len() < min_reps {
        problems.push(format!(
            "only {} repetition(s) of {} seed(s) completed",
            reps.len(),
            seeds.len()
        ));
    }
    let traced_counts: Vec<_> = reps
        .iter()
        .filter_map(|r| r.traced.as_ref().map(work_counts))
        .collect();
    if traced_counts.windows(2).any(|w| w[0] != w[1]) {
        problems.push("work counters differ between traced repetitions".into());
    }
    let failed = panicked + reps.iter().filter(|r| !r.problems.is_empty()).count() as u64;
    let ok = failed == 0 && problems.is_empty();
    for p in &problems {
        println!("FAILED: {p}");
    }

    let metrics = if reps.is_empty() {
        Vec::new()
    } else if args.trace {
        per_layer_metrics(&reps, attempted, failed)
    } else {
        end_to_end_metrics(&reps, &references, &seeds)
    };
    if let Some(o) = reps.first().and_then(|r| r.outcome.as_ref()) {
        println!(
            "outcome on seed {}: drained={} jobs/min={:.3} p95 sojourn={:.1} sim_s",
            args.seed, o.drained, o.jobs_per_min, o.p95_sojourn_s
        );
    }
    print_table(&metrics);
    println!("{}", result_line(ok, attempted, failed, &metrics));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A metric: name, unit, the samples it summarizes (per repetition, or
/// per replica for deterministic values) and the value it reports.
struct Metric {
    name: &'static str,
    unit: &'static str,
    samples: Vec<f64>,
    value: f64,
}

impl Metric {
    /// A metric reported as the median of its samples.
    fn new(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Self {
        let value = median(&samples);
        Metric {
            name,
            unit,
            samples,
            value,
        }
    }
}

/// End-to-end metrics. Host times are scaled to the nominal host speed:
/// each repetition's by `reference::NOMINAL_S` over the reference's time
/// right after it.
fn end_to_end_metrics(reps: &[Rep], references: &[f64], seeds: &[u64]) -> Vec<Metric> {
    let scaled = |f: fn(&Rep, f64) -> f64| {
        reps.iter()
            .zip(references)
            .map(|(r, &reference_s)| f(r, reference::NOMINAL_S / reference_s))
            .collect::<Vec<_>>()
    };
    let mut out = vec![
        Metric::new("setup_s", "s", scaled(|r, k| r.setup_s * k)),
        Metric::new(
            "completions_per_s",
            "1/s",
            scaled(|r, k| r.completions as f64 / (r.run_s * k)),
        ),
        Metric::new(
            "sim_s_per_s",
            "sim_s/s",
            scaled(|r, k| r.sim_s / (r.run_s * k)),
        ),
        // The first repetition's reading: later ones also hold the memory
        // earlier repetitions used to render and check their results.
        Metric::new("peak_rss_mb", "MB", vec![reps[0].peak_rss_mb]),
    ];
    // Each replica's outcome is deterministic; the metric is their median.
    let outcomes: Option<Vec<&workload::SimOutcome>> = seeds
        .iter()
        .map(|&seed| reps.iter().find(|r| r.seed == seed)?.outcome.as_ref())
        .collect();
    if let Some(outcomes) = outcomes {
        let each = |f: fn(&workload::SimOutcome) -> f64| outcomes.iter().map(|o| f(o)).collect();
        out.extend([
            Metric::new("sim_energy_mj", "MJ", each(|o| o.energy_mj)),
            Metric::new("sim_makespan_s", "sim_s", each(|o| o.makespan_s)),
            Metric::new("sim_p50_sojourn_s", "sim_s", each(|o| o.p50_sojourn_s)),
            Metric::new("sim_p95_sojourn_s", "sim_s", each(|o| o.p95_sojourn_s)),
            Metric::new("sim_jobs_per_min", "jobs/min", each(|o| o.jobs_per_min)),
            Metric::new("sim_energy_per_job_kj", "kJ", each(|o| o.energy_per_job_kj)),
        ]);
    }
    out
}

/// The deterministic work counters of a traced repetition.
fn work_counts(t: &workload::Traced) -> Vec<u64> {
    let c = &t.profile.counters;
    let mut out = vec![
        c.candidates,
        c.filled,
        c.heartbeats,
        c.util_samples,
        c.completions,
        t.blocks_placed,
    ];
    out.extend(Layer::ALL.iter().map(|&l| t.profile.layer(l).calls));
    out
}

fn per_layer_metrics(reps: &[Rep], attempted: u64, failed: u64) -> Vec<Metric> {
    let traced: Vec<&workload::Traced> = reps.iter().filter_map(|r| r.traced.as_ref()).collect();
    let untraced_run: Vec<f64> = reps
        .iter()
        .filter(|r| r.traced.is_none())
        .map(|r| r.run_s)
        .collect();
    let traced_run: Vec<f64> = reps
        .iter()
        .filter(|r| r.traced.is_some())
        .map(|r| r.run_s)
        .collect();
    let Some(first) = traced.first() else {
        return Vec::new();
    };
    let each =
        |f: &dyn Fn(&workload::Traced) -> f64| traced.iter().map(|t| f(t)).collect::<Vec<_>>();
    let secs = |layer: Layer| each(&move |t| t.profile.layer(layer).self_ns as f64 / 1e9);
    let once = |v: f64| vec![v];
    let c = &first.profile.counters;
    let calls = |layer: Layer| first.profile.layer(layer).calls as f64;
    let pct = |layer: Layer, permille| {
        each(&move |t| t.profile.layer(layer).histogram.percentile(permille) as f64)
    };
    let decisions = calls(Layer::SelectMap) + calls(Layer::SelectReduce);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let completions = first.profile.counters.completions as f64;
    vec![
        Metric::new("cluster.hdfs.place_s", "s", each(&|t| t.place_s)),
        Metric::new(
            "cluster.hdfs.blocks_placed",
            "count",
            once(first.blocks_placed as f64),
        ),
        Metric::new(
            "hadoop_sim.submit_s",
            "s",
            reps.iter()
                .filter(|r| r.traced.is_some())
                .map(|r| r.submit_s)
                .collect(),
        ),
        Metric::new(
            "hadoop_sim.run_s",
            "s",
            each(&|t| t.profile.layer(Layer::Run).total_ns as f64 / 1e9),
        ),
        Metric::new("hadoop_sim.engine_self_s", "s", secs(Layer::Run)),
        Metric::new(
            "hadoop_sim.engine_ns_per_completion",
            "ns",
            each(&|t| ratio(t.profile.layer(Layer::Run).self_ns as f64, completions)),
        ),
        Metric::new(
            "hadoop_sim.heartbeats_drained",
            "count",
            once(c.heartbeats as f64),
        ),
        Metric::new(
            "hadoop_sim.tasks_started_per_heartbeat",
            "ratio",
            once(ratio(c.filled as f64, c.heartbeats as f64)),
        ),
        Metric::new(
            "hadoop_sim.util_samples",
            "count",
            once(c.util_samples as f64),
        ),
        Metric::new(
            "hadoop_sim.slot_changes",
            "count",
            once((c.filled + c.completions) as f64),
        ),
        Metric::new(
            "eant.select_map.calls",
            "count",
            once(calls(Layer::SelectMap)),
        ),
        Metric::new("eant.select_map.total_s", "s", secs(Layer::SelectMap)),
        Metric::new("eant.select_map.p50_ns", "ns", pct(Layer::SelectMap, 500)),
        Metric::new("eant.select_map.p99_ns", "ns", pct(Layer::SelectMap, 990)),
        Metric::new("eant.select_map.p999_ns", "ns", pct(Layer::SelectMap, 999)),
        Metric::new(
            "eant.select_reduce.calls",
            "count",
            once(calls(Layer::SelectReduce)),
        ),
        Metric::new("eant.select_reduce.total_s", "s", secs(Layer::SelectReduce)),
        Metric::new(
            "eant.select_reduce.p50_ns",
            "ns",
            pct(Layer::SelectReduce, 500),
        ),
        Metric::new(
            "eant.select_reduce.p99_ns",
            "ns",
            pct(Layer::SelectReduce, 990),
        ),
        Metric::new(
            "eant.candidates_per_decision",
            "count",
            once(ratio(c.candidates as f64, decisions)),
        ),
        Metric::new(
            "eant.slot_fill_ratio",
            "ratio",
            once(ratio(c.filled as f64, decisions)),
        ),
        Metric::new(
            "eant.control_interval.calls",
            "count",
            once(calls(Layer::ControlInterval)),
        ),
        Metric::new(
            "eant.control_interval.total_s",
            "s",
            secs(Layer::ControlInterval),
        ),
        Metric::new(
            "eant.control_interval.max_ms",
            "ms",
            each(&|t| {
                let spans = &t.profile.layer(Layer::ControlInterval).spans_ns;
                spans.iter().copied().max().unwrap_or(0) as f64 / 1e6
            }),
        ),
        Metric::new(
            "eant.task_report.calls",
            "count",
            once(calls(Layer::TaskReport)),
        ),
        Metric::new("eant.task_report.total_s", "s", secs(Layer::TaskReport)),
        Metric::new(
            "eant.job_events.calls",
            "count",
            once(calls(Layer::JobEvents)),
        ),
        Metric::new("eant.job_events.total_s", "s", secs(Layer::JobEvents)),
        Metric::new("metrics.registry.on_event_s", "s", secs(Layer::Registry)),
        Metric::new(
            "metrics.registry.events",
            "count",
            once(calls(Layer::Registry)),
        ),
        Metric::new("hadoop_sim.watchdog.on_event_s", "s", secs(Layer::Watchdog)),
        Metric::new(
            "trace_overhead_s",
            "s",
            once(median(&traced_run) - median(&untraced_run)),
        ),
        Metric::new(
            "failed_runs_ratio",
            "ratio",
            once(failed as f64 / attempted.max(1) as f64),
        ),
    ]
}

fn print_table(metrics: &[Metric]) {
    let mut out = String::new();
    for m in metrics {
        let _ = write!(out, "{:<40} {:>16.6} {:<8}", m.name, m.value, m.unit);
        if m.samples.len() > 1 {
            let [q1, _, q3] = quartiles(&m.samples);
            let _ = write!(out, " [q1 {q1:.6}, q3 {q3:.6}, n={}]", m.samples.len());
        }
        out.push('\n');
    }
    print!("{out}");
}

/// The final JSON line: exact values with every digit (`{}` on `f64`
/// prints the shortest form that reads back to the same number).
fn result_line(ok: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {ok}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

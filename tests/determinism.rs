//! Determinism of the experiment sweep layer: the same seed must produce
//! an *identical* serialized [`RunResult`] regardless of how many worker
//! threads execute the sweep, and across consecutive runs in one process.
//!
//! Identity is checked on the canonical JSON from
//! [`metrics::emit::run_result_json`], which serializes every field of the
//! result (per-task reports included, collected via a streaming report
//! observer), so any hidden
//! nondeterminism — iteration-order leaks, shared RNG state, float
//! accumulation order — shows up as a byte difference.
//!
//! [`RunResult`]: hadoop_sim::RunResult

use eant::EAntConfig;
use experiments::common::{fig8_spec, parallel_runs_with_workers, SchedulerKind};
use experiments::scenario::{ScenarioSpec, WorkloadSpec};
use hadoop_sim::trace::{SharedObserver, VecRecorder};
use hadoop_sim::{RunResult, TaskReport};
use metrics::emit::{run_result_json, ToJson};
use simcore::SimDuration;
use workload::msd::MsdConfig;

/// A deliberately small scenario so the 3-sweep matrix stays fast: the
/// Fig. 8 grid with a 6-job fast workload.
fn small_spec() -> ScenarioSpec {
    let mut spec = fig8_spec().clone();
    spec.fast_workload = Some(WorkloadSpec::Msd(MsdConfig {
        num_jobs: 6,
        task_scale: 32,
        submission_window: SimDuration::from_mins(4),
    }));
    spec
}

/// Runs the fast `seed` cell of `spec` with a streaming report recorder
/// attached, returning
/// the result and the collected reports so the serialized bytes still
/// cover per-task reports (the result carries no report buffer of its
/// own). The recorder is built inside the call, keeping closures over this
/// function `Send` for the worker pool.
fn run_with_reports(
    spec: &ScenarioSpec,
    kind: &SchedulerKind,
    seed: u64,
) -> (RunResult, Vec<TaskReport>) {
    let recorder: SharedObserver<VecRecorder<TaskReport>> = SharedObserver::new(VecRecorder::new());
    let handle = recorder.clone();
    let result = spec.execute_observed(kind, seed, true, move |engine, _| {
        engine.attach_report_observer(Box::new(handle));
    });
    let reports = recorder
        .try_into_inner()
        .unwrap_or_else(|_| panic!("engine dropped its observer handle"))
        .into_events()
        .into_iter()
        .map(|(_, report)| report)
        .collect();
    (result, reports)
}

/// Canonical bytes of a run: the result JSON followed by one JSON line per
/// streamed task report, so report-level nondeterminism is a witness too.
fn run_bytes((result, reports): &(RunResult, Vec<TaskReport>)) -> String {
    let mut out = run_result_json(result);
    for report in reports {
        out.push('\n');
        out.push_str(&report.to_json().render());
    }
    out
}

/// Runs the (scheduler × seed) sweep on `workers` threads and serializes
/// every result.
fn sweep(workers: usize) -> Vec<String> {
    let kinds = [
        SchedulerKind::Fair,
        SchedulerKind::Tarazu,
        SchedulerKind::EAnt(EAntConfig::paper_default()),
    ];
    let seeds = [11u64, 29];
    let tasks: Vec<_> = kinds
        .iter()
        .flat_map(|kind| {
            seeds.iter().map(move |&seed| {
                let kind = kind.clone();
                move || run_with_reports(&small_spec(), &kind, seed)
            })
        })
        .collect();
    parallel_runs_with_workers(workers, tasks)
        .iter()
        .map(run_bytes)
        .collect()
}

/// One worker and four workers must produce byte-identical results in the
/// same order: the pool decides only *when* a task runs, never *what* it
/// computes.
#[test]
fn sweep_is_thread_count_invariant() {
    let single = sweep(1);
    let multi = sweep(4);
    assert_eq!(single.len(), multi.len());
    for (i, (a, b)) in single.iter().zip(&multi).enumerate() {
        assert_eq!(a, b, "run {i} differs between 1-thread and 4-thread sweeps");
    }
}

/// Two consecutive sweeps in one process agree: no global mutable state
/// leaks between runs.
#[test]
fn consecutive_sweeps_agree() {
    let first = sweep(2);
    let second = sweep(2);
    assert_eq!(first, second);
}

/// Serialization itself is a faithful witness: distinct seeds give
/// distinct bytes (guards against an emitter that collapses fields).
#[test]
fn distinct_seeds_serialize_distinctly() {
    let kind = SchedulerKind::Fair;
    let a = run_bytes(&run_with_reports(&small_spec(), &kind, 11));
    let b = run_bytes(&run_with_reports(&small_spec(), &kind, 12));
    assert_ne!(a, b);
}

/// An empty sweep and a worker surplus are both fine.
#[test]
fn pool_edge_cases() {
    let none: Vec<fn() -> u32> = Vec::new();
    assert!(parallel_runs_with_workers(3, none).is_empty());
    let tasks: Vec<_> = (0..3u32).map(|i| move || i * 2).collect();
    assert_eq!(parallel_runs_with_workers(8, tasks), vec![0, 2, 4]);
}

/// Observers are passive: attaching trace sinks and streaming consumers to
/// both engine and scheduler must leave the serialized result byte-identical
/// to an untraced run. Guards against an observer ever feeding back into
/// scheduling or RNG state.
#[test]
fn tracing_does_not_perturb_runs() {
    use hadoop_sim::trace::SharedObserver;
    use metrics::observers::StreamingRunStats;
    use metrics::trace::JsonlTraceSink;

    let kinds = [
        SchedulerKind::Fair,
        SchedulerKind::Tarazu,
        SchedulerKind::EAnt(EAntConfig::paper_default()),
    ];
    for kind in kinds {
        let spec = small_spec();
        let plain = run_result_json(&spec.execute(&kind, 11, true));

        let sink = SharedObserver::new(JsonlTraceSink::new(Vec::<u8>::new()));
        let stats = SharedObserver::new(StreamingRunStats::new(16));
        let sink_engine = sink.clone();
        let sink_scheduler = sink.clone();
        let stats_handle = stats.clone();
        let traced = spec.execute_observed(&kind, 11, true, move |engine, scheduler| {
            engine.attach_observer(Box::new(sink_engine));
            engine.attach_observer(Box::new(stats_handle));
            scheduler.attach_observer(Box::new(sink_scheduler));
        });
        assert_eq!(
            plain,
            run_result_json(&traced),
            "{} run diverges under tracing",
            kind.label()
        );
        assert!(sink.with(|s| s.lines()) > 0, "trace sink saw no events");
        stats
            .with(|s| s.matches(&traced))
            .expect("streaming aggregates match the traced run");
    }
}

/// A faulted variant of the small scenario: crashes, retries and
/// blacklisting all active.
fn faulted_spec() -> ScenarioSpec {
    let mut s = small_spec();
    s.engine.fault = hadoop_sim::FaultConfig {
        crash_mtbf: SimDuration::from_mins(30),
        crash_downtime: SimDuration::from_mins(1),
        task_failure_prob: 0.05,
        blacklist_threshold: 10,
        ..hadoop_sim::FaultConfig::none()
    };
    s
}

/// Runs the faulted (scheduler × seed) sweep on `workers` threads. One
/// seed keeps the 3× sweep matrix affordable: crashed runs take several
/// times longer to drain than clean ones.
fn faulted_sweep(workers: usize) -> Vec<String> {
    let kinds = [
        SchedulerKind::Fair,
        SchedulerKind::Tarazu,
        SchedulerKind::EAnt(EAntConfig::paper_default()),
    ];
    let seeds = [11u64];
    let tasks: Vec<_> = kinds
        .iter()
        .flat_map(|kind| {
            seeds.iter().map(move |&seed| {
                let kind = kind.clone();
                move || run_with_reports(&faulted_spec(), &kind, seed)
            })
        })
        .collect();
    parallel_runs_with_workers(workers, tasks)
        .iter()
        .map(run_bytes)
        .collect()
}

/// Fault injection draws from its own forked RNG stream, so faulted runs
/// are exactly as deterministic as clean ones: thread-count invariant and
/// repeatable within a process.
#[test]
fn faulted_sweep_is_deterministic() {
    let single = faulted_sweep(1);
    let multi = faulted_sweep(4);
    assert_eq!(single, multi, "faulted sweep differs across thread counts");
    let again = faulted_sweep(4);
    assert_eq!(
        multi, again,
        "faulted sweep differs across consecutive runs"
    );
    // The injected faults actually fired — otherwise this test proves
    // nothing about the fault paths.
    assert!(
        single
            .iter()
            .any(|json| !json.contains("\"task_failures\":0,")),
        "no run recorded any task failure"
    );
}

/// Serializes a decision-traced run of the small scenario to canonical
/// JSONL trace bytes (engine + scheduler streams).
fn decision_trace_bytes(seed: u64, kind: &SchedulerKind) -> Vec<u8> {
    use hadoop_sim::trace::SharedObserver;
    use metrics::trace::JsonlTraceSink;

    let mut spec = small_spec();
    spec.engine.trace_decisions = true;
    let sink = SharedObserver::new(JsonlTraceSink::new(Vec::<u8>::new()));
    let sink_engine = sink.clone();
    let sink_scheduler = sink.clone();
    let _ = spec.execute_observed(kind, seed, true, move |engine, scheduler| {
        engine.attach_observer(Box::new(sink_engine));
        scheduler.attach_observer(Box::new(sink_scheduler));
    });
    sink.try_into_inner()
        .expect("sink still shared")
        .finish()
        .expect("Vec<u8> writes cannot fail")
}

/// Decision-traced runs are exactly as deterministic as plain ones: the
/// full trace bytes — `assignment_decision` payloads included, with their
/// float-valued τ/η/probability fields — are thread-count invariant and
/// repeatable. This is the guarantee that makes `trace-diff` meaningful:
/// any byte difference between two traces is behavioral, never scheduling
/// jitter.
#[test]
fn decision_traces_are_thread_count_invariant() {
    let kinds = [
        SchedulerKind::Fair,
        SchedulerKind::EAnt(EAntConfig::paper_default()),
    ];
    let sweep = |workers: usize| -> Vec<Vec<u8>> {
        let tasks: Vec<_> = kinds
            .iter()
            .map(|kind| {
                let kind = kind.clone();
                move || decision_trace_bytes(11, &kind)
            })
            .collect();
        parallel_runs_with_workers(workers, tasks)
    };
    let single = sweep(1);
    let multi = sweep(4);
    assert_eq!(
        single, multi,
        "decision traces differ between 1-thread and 4-thread sweeps"
    );
    for (kind, bytes) in kinds.iter().zip(&single) {
        let text = std::str::from_utf8(bytes).expect("trace is UTF-8");
        assert!(
            text.contains("\"type\":\"assignment_decision\""),
            "{} trace carries no decision events",
            kind.label()
        );
    }
}

/// A faulted trace round-trips through the JSONL codec: re-encoding every
/// parsed line reproduces the original bytes, including the five fault
/// event kinds.
#[test]
fn faulted_trace_round_trips_through_codec() {
    use hadoop_sim::trace::SharedObserver;
    use metrics::trace::{parse_trace_line, trace_line, JsonlTraceSink};

    let spec = faulted_spec();
    let kind = SchedulerKind::EAnt(EAntConfig::paper_default());
    let sink = SharedObserver::new(JsonlTraceSink::new(Vec::<u8>::new()));
    let handle = sink.clone();
    let _ = spec.execute_observed(&kind, 11, true, move |engine, _| {
        engine.attach_observer(Box::new(handle));
    });
    let bytes = sink
        .try_into_inner()
        .expect("sink still shared")
        .finish()
        .expect("flush");
    let text = String::from_utf8(bytes).expect("trace is UTF-8");
    let mut kinds_seen = std::collections::BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let (at, event) = parse_trace_line(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        kinds_seen.insert(event.kind());
        assert_eq!(
            trace_line(at, &event),
            line,
            "line {} does not round-trip",
            i + 1
        );
    }
    for kind in ["task_failed", "machine_failed", "map_output_lost"] {
        assert!(
            kinds_seen.contains(kind),
            "faulted trace never emitted {kind}; saw {kinds_seen:?}"
        );
    }
}

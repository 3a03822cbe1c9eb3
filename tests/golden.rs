//! Golden-value regression tests: summary metrics of one fixed-seed fast
//! MSD run under Fair, Tarazu and E-Ant, pinned with explicit tolerances.
//!
//! The run is bit-deterministic on one toolchain (see
//! `tests/determinism.rs`), so these goldens catch *behavioral* drift — a
//! changed scheduler decision, energy-model constant, or RNG stream — while
//! the tolerances absorb benign float-reassociation differences across
//! compiler versions. If a deliberate change shifts the numbers, re-derive
//! them by running this test with `--nocapture` (each assertion failure
//! prints the observed value) and update the table.

use std::collections::BTreeSet;

use eant::EAntConfig;
use experiments::common::{fig8_spec, SchedulerKind};
use experiments::scenario::{ScenarioSpec, WorkloadSpec};
use hadoop_sim::trace::SharedObserver;
use hadoop_sim::{DvfsConfig, PowerDownConfig, RunResult, SpeculationPolicy};
use metrics::spec::fnv1a_64;
use metrics::trace::{parse_trace_line, JsonlTraceSink};
use simcore::SimDuration;
use workload::msd::MsdConfig;

/// Relative tolerance on pinned energy and makespan values.
const REL_TOL: f64 = 0.005;
/// Absolute tolerance, in percentage points, on pinned savings values.
const SAVINGS_TOL_PP: f64 = 1.0;

/// One golden row: scheduler, expected total energy (MJ), expected
/// makespan (s).
struct Golden {
    kind: SchedulerKind,
    energy_mj: f64,
    makespan_s: f64,
}

fn goldens() -> Vec<Golden> {
    vec![
        Golden {
            kind: SchedulerKind::Fair,
            energy_mj: 3.558079,
            makespan_s: 3858.492,
        },
        Golden {
            kind: SchedulerKind::Tarazu,
            energy_mj: 2.201803,
            makespan_s: 2308.866,
        },
        Golden {
            kind: SchedulerKind::EAnt(EAntConfig::paper_default()),
            energy_mj: 2.065391,
            makespan_s: 2148.477,
        },
    ]
}

fn run(kind: &SchedulerKind) -> RunResult {
    fig8_spec().execute(kind, 2015, true)
}

fn assert_close(what: &str, observed: f64, expected: f64, rel_tol: f64) {
    let rel = (observed - expected).abs() / expected.abs();
    assert!(
        rel <= rel_tol,
        "{what}: observed {observed:.6}, pinned {expected:.6} \
         (rel err {rel:.2e} > tol {rel_tol:.0e})"
    );
}

/// Total energy and makespan of each scheduler match the pinned values.
#[test]
fn summary_metrics_match_goldens() {
    for g in goldens() {
        let r = run(&g.kind);
        let label = g.kind.label();
        assert!(r.drained, "{label} failed to drain");
        assert_close(
            &format!("{label} total energy (MJ)"),
            r.total_energy_joules() / 1.0e6,
            g.energy_mj,
            REL_TOL,
        );
        assert_close(
            &format!("{label} makespan (s)"),
            r.makespan.as_secs_f64(),
            g.makespan_s,
            REL_TOL,
        );
    }
}

/// E-Ant's energy savings over each baseline match the pinned
/// percentages: 41.95% vs Fair and 6.20% vs Tarazu on this seed.
#[test]
fn eant_savings_match_goldens() {
    let eant = SchedulerKind::EAnt(EAntConfig::paper_default());
    let e_eant = run(&eant).total_energy_joules();
    let e_fair = run(&SchedulerKind::Fair).total_energy_joules();
    let e_tarazu = run(&SchedulerKind::Tarazu).total_energy_joules();

    let vs_fair = (1.0 - e_eant / e_fair) * 100.0;
    let vs_tarazu = (1.0 - e_eant / e_tarazu) * 100.0;
    assert!(
        (vs_fair - 41.95).abs() <= SAVINGS_TOL_PP,
        "savings vs Fair: observed {vs_fair:.2}%, pinned 41.95% ± {SAVINGS_TOL_PP}pp"
    );
    assert!(
        (vs_tarazu - 6.20).abs() <= SAVINGS_TOL_PP,
        "savings vs Tarazu: observed {vs_tarazu:.2}%, pinned 6.20% ± {SAVINGS_TOL_PP}pp"
    );
}

/// Pinned count and FNV-1a 64 digest of the canonical JSONL trace of one
/// small fixed-seed E-Ant run with every engine feature lit up (LATE
/// speculation, suspend-to-RAM power-down, conservative DVFS), so the
/// stream exercises the full event vocabulary. The digest covers the exact
/// serialized bytes, so it catches any drift in event ordering, payload
/// contents, or the canonical JSON encoding itself. Re-derive with
/// `--nocapture` after deliberate changes: the observed values print below.
///
/// This run leaves [`hadoop_sim::FaultConfig`] at its disabled default, so
/// together with the summary goldens above it also proves the fault layer
/// is zero-perturbation when off: adding fault injection must not shift a
/// single byte of this trace or any pinned metric.
const TRACE_GOLDEN_EVENTS: u64 = 8796;
const TRACE_GOLDEN_FNV1A: u64 = 0xe975ce6ddbe27729;

/// The golden trace scenario: the Fig. 8 grid with an 8-job fast workload
/// and speculation, power-down and DVFS switched on.
fn golden_trace_spec() -> ScenarioSpec {
    let mut spec = fig8_spec().clone();
    spec.fast_workload = Some(WorkloadSpec::Msd(MsdConfig {
        num_jobs: 8,
        task_scale: 32,
        submission_window: SimDuration::from_mins(4),
    }));
    spec.engine.speculation = SpeculationPolicy::Late;
    spec.engine.power_down = Some(PowerDownConfig::suspend_to_ram());
    spec.engine.dvfs = Some(DvfsConfig::conservative());
    spec
}

#[test]
fn golden_trace_digest() {
    let spec = golden_trace_spec();
    let sink = SharedObserver::new(JsonlTraceSink::new(Vec::<u8>::new()));
    let engine_sink = sink.clone();
    let scheduler_sink = sink.clone();
    let result = spec.execute_observed(
        &SchedulerKind::EAnt(EAntConfig::paper_default()),
        2015,
        true,
        move |engine, scheduler| {
            engine.attach_observer(Box::new(engine_sink));
            scheduler.attach_observer(Box::new(scheduler_sink));
        },
    );
    assert!(result.drained, "golden trace run failed to drain");

    let bytes = sink
        .try_into_inner()
        .unwrap_or_else(|_| panic!("trace sink still shared after run"))
        .finish()
        .expect("Vec<u8> writes cannot fail");

    // Every line must parse back, and the stream must exercise the full
    // event vocabulary this configuration can produce.
    let mut kinds = BTreeSet::new();
    let mut events = 0u64;
    for line in std::str::from_utf8(&bytes).expect("trace is UTF-8").lines() {
        let (_, event) = parse_trace_line(line)
            .unwrap_or_else(|e| panic!("unparseable trace line: {e}\n{line}"));
        kinds.insert(event.kind());
        events += 1;
    }
    println!("observed kinds: {kinds:?}");
    for kind in [
        "job_submitted",
        "job_completed",
        "task_started",
        "task_completed",
        "heartbeat_drained",
        "slot_occupancy_changed",
        "power_state_changed",
        "speculation_launched",
        "control_interval_fired",
        "pheromone_updated",
        "energy_model_refit",
        "run_finished",
    ] {
        assert!(kinds.contains(kind), "trace is missing `{kind}` events");
    }

    let digest = fnv1a_64(&bytes);
    println!("observed events: {events}, digest: {digest:#018x}");
    assert_eq!(
        events, TRACE_GOLDEN_EVENTS,
        "trace event count drifted (observed {events})"
    );
    assert_eq!(
        digest, TRACE_GOLDEN_FNV1A,
        "trace digest drifted (observed {digest:#018x})"
    );
}

/// Pinned event count and digest of the same golden scenario with
/// [`hadoop_sim::FaultConfig::moderate`] faults injected: the faulted event
/// stream (crashes, heartbeat-expiry deaths, retries, lost map outputs,
/// recoveries) is bit-deterministic too. Re-derive with `--nocapture` as
/// above.
const FAULTED_TRACE_GOLDEN_EVENTS: u64 = 10436;
const FAULTED_TRACE_GOLDEN_FNV1A: u64 = 0x2ac2cde2b757182e;

#[test]
fn golden_faulted_trace_digest() {
    let mut spec = golden_trace_spec();
    spec.engine.fault = hadoop_sim::FaultConfig::moderate();

    let sink = SharedObserver::new(JsonlTraceSink::new(Vec::<u8>::new()));
    let engine_sink = sink.clone();
    let scheduler_sink = sink.clone();
    let result = spec.execute_observed(
        &SchedulerKind::EAnt(EAntConfig::paper_default()),
        2015,
        true,
        move |engine, scheduler| {
            engine.attach_observer(Box::new(engine_sink));
            scheduler.attach_observer(Box::new(scheduler_sink));
        },
    );
    assert!(result.drained, "faulted golden trace run failed to drain");
    assert!(result.task_failures > 0, "faults never fired");

    let bytes = sink
        .try_into_inner()
        .unwrap_or_else(|_| panic!("trace sink still shared after run"))
        .finish()
        .expect("Vec<u8> writes cannot fail");

    let mut kinds = BTreeSet::new();
    let mut events = 0u64;
    for line in std::str::from_utf8(&bytes).expect("trace is UTF-8").lines() {
        let (_, event) = parse_trace_line(line)
            .unwrap_or_else(|e| panic!("unparseable trace line: {e}\n{line}"));
        kinds.insert(event.kind());
        events += 1;
    }
    println!("observed kinds: {kinds:?}");
    for kind in [
        "task_failed",
        "machine_failed",
        "machine_recovered",
        "map_output_lost",
    ] {
        assert!(
            kinds.contains(kind),
            "faulted trace is missing `{kind}` events"
        );
    }

    let digest = fnv1a_64(&bytes);
    println!("observed events: {events}, digest: {digest:#018x}");
    assert_eq!(
        events, FAULTED_TRACE_GOLDEN_EVENTS,
        "faulted trace event count drifted (observed {events})"
    );
    assert_eq!(
        digest, FAULTED_TRACE_GOLDEN_FNV1A,
        "faulted trace digest drifted (observed {digest:#018x})"
    );
}

/// Pinned event count and digest of the golden scenario with
/// [`hadoop_sim::EngineConfig::trace_decisions`] on: every placement emits
/// an `assignment_decision` event carrying the scheduler's candidate set
/// and the Eq. 8 τ/η/probability decomposition. The decision payload rides
/// the same deterministic stream, so it digests just like the lifecycle
/// events. Crucially, the *clean* digest above is produced with decision
/// tracing off — together the two tests prove the flag is behaviorally
/// inert: turning it on only inserts `assignment_decision` lines, and
/// turning it off reproduces the original bytes exactly. Re-derive with
/// `--nocapture` as above.
const DECISION_TRACE_GOLDEN_EVENTS: u64 = 10331;
const DECISION_TRACE_GOLDEN_FNV1A: u64 = 0x6162eb7b45f71ac0;

#[test]
fn golden_decision_trace_digest() {
    let mut spec = golden_trace_spec();
    spec.engine.trace_decisions = true;

    let sink = SharedObserver::new(JsonlTraceSink::new(Vec::<u8>::new()));
    let engine_sink = sink.clone();
    let scheduler_sink = sink.clone();
    let result = spec.execute_observed(
        &SchedulerKind::EAnt(EAntConfig::paper_default()),
        2015,
        true,
        move |engine, scheduler| {
            engine.attach_observer(Box::new(engine_sink));
            scheduler.attach_observer(Box::new(scheduler_sink));
        },
    );
    assert!(result.drained, "decision-traced golden run failed to drain");

    let bytes = sink
        .try_into_inner()
        .unwrap_or_else(|_| panic!("trace sink still shared after run"))
        .finish()
        .expect("Vec<u8> writes cannot fail");

    let mut kinds = BTreeSet::new();
    let mut events = 0u64;
    let mut decisions = 0u64;
    for line in std::str::from_utf8(&bytes).expect("trace is UTF-8").lines() {
        let (_, event) = parse_trace_line(line)
            .unwrap_or_else(|e| panic!("unparseable trace line: {e}\n{line}"));
        if event.kind() == "assignment_decision" {
            decisions += 1;
        }
        kinds.insert(event.kind());
        events += 1;
    }
    assert!(
        kinds.contains("assignment_decision"),
        "decision tracing produced no assignment_decision events"
    );
    // The flag only *inserts* decision lines: stripped of them, the stream
    // has exactly as many events as the clean golden trace.
    assert_eq!(
        events - decisions,
        TRACE_GOLDEN_EVENTS,
        "decision tracing perturbed the underlying event stream"
    );

    let digest = fnv1a_64(&bytes);
    println!("observed events: {events}, digest: {digest:#018x}");
    assert_eq!(
        events, DECISION_TRACE_GOLDEN_EVENTS,
        "decision trace event count drifted (observed {events})"
    );
    assert_eq!(
        digest, DECISION_TRACE_GOLDEN_FNV1A,
        "decision trace digest drifted (observed {digest:#018x})"
    );
}

/// Fixed-seed paper-scale E-Ant makespan, pinned. The 87-job realization
/// saturates the fleet and E-Ant's energy-greedy placements stretch the
/// makespan well past Fair's (the ROADMAP re-tuning item); this golden pins
/// the *current* trajectory so scheduler or engine changes that shift the
/// paper-scale behavior — intentionally or not — are caught at review time
/// rather than showing up as silent EXPERIMENTS.md drift.
#[test]
fn paper_scale_eant_makespan_matches_golden() {
    let r = fig8_spec().execute(
        &SchedulerKind::EAnt(EAntConfig::paper_default()),
        1234,
        false,
    );
    assert!(r.drained, "paper-scale E-Ant failed to drain");
    assert_close(
        "paper-scale E-Ant makespan (s)",
        r.makespan.as_secs_f64(),
        11470.165,
        REL_TOL,
    );
}

/// Pinned fast-profile goldens for every committed scenario file: the
/// first scheduler × first seed cell's total energy (MJ), makespan (s),
/// and exact FNV-1a 64 digest of the canonical serialized
/// [`hadoop_sim::RunResult`]. Energy and makespan carry the usual
/// [`REL_TOL`] slack for cross-toolchain float reassociation; the digest
/// pins this toolchain's exact bytes like the trace goldens above.
/// Re-derive with `--nocapture`: each row's observed tuple prints below.
#[test]
fn scenario_library_matches_goldens() {
    use experiments::scenario::{library_dir, load_spec};
    use metrics::emit::run_result_json;

    let table: &[(&str, f64, f64, u64)] = &[
        ("crash-heavy-churn", 5.623288, 6046.415, 0x949640a6cd82c1b3),
        ("deadline-batches", 0.771439, 856.220, 0xb7279a111805b513),
        ("diurnal-double-peak", 0.745891, 830.783, 0xd155439375f4a65d),
        ("fig8-msd", 3.558079, 3858.492, 0xefd50d75ad89bf0d),
        ("fleet-refresh", 1.666999, 1775.056, 0x1d7bd4048464f914),
        (
            "multi-tenant-min-shares",
            0.620810,
            679.467,
            0x5d8780bb2d1bd72b,
        ),
        ("rack-locality-skew", 0.552067, 1156.808, 0xa75889c27b8f0b31),
        ("scale-1000", 109.846479, 1990.655, 0x63339a02920fcc5e),
        ("serve-diurnal-wave", 4.961685, 4200.000, 0x1f9c4ec0ebe16938),
        (
            "serve-overload-burst",
            3.166742,
            2400.000,
            0xd088e9492e962f58,
        ),
        // Same workload/serve sections (and first cell: FIFO, seed 2015)
        // as serve-overload-burst — the `slo` section is harness-side
        // only, so the digest matches that scenario's exactly.
        (
            "serve-overload-burst-slo",
            3.166742,
            2400.000,
            0xd088e9492e962f58,
        ),
        (
            "serve-steady-poisson",
            4.015660,
            3000.000,
            0x4846080777d4864a,
        ),
    ];

    // The table must cover the whole library: a new scenario file needs a
    // golden row before it can ship.
    let mut files: Vec<String> = std::fs::read_dir(library_dir())
        .expect("scenarios/ exists")
        .filter_map(|e| {
            let name = e.expect("readable dir entry").file_name();
            let name = name.to_string_lossy();
            name.strip_suffix(".json").map(str::to_owned)
        })
        .collect();
    files.sort();
    let pinned: Vec<&str> = table.iter().map(|&(name, ..)| name).collect();
    assert_eq!(files, pinned, "scenario library and golden table disagree");

    // Two passes: run (and print) every row first so a drifted table can be
    // re-derived wholesale from one `--nocapture` run, then assert.
    let observed: Vec<(f64, f64, u64)> = table
        .iter()
        .map(|&(name, ..)| {
            let spec = load_spec(&library_dir().join(format!("{name}.json")))
                .unwrap_or_else(|e| panic!("{e}"));
            let kind = spec.schedulers[0].clone();
            let seed = spec.seeds[0];
            let r = spec.execute(&kind, seed, true);
            // Horizon-stopped (service-mode) scenarios end at the deadline
            // with work in flight; only drain-mode rows must drain.
            assert!(r.drained || spec.serve.is_some(), "{name} failed to drain");
            let digest = fnv1a_64(run_result_json(&r).as_bytes());
            let energy = r.total_energy_joules() / 1.0e6;
            let makespan = r.makespan.as_secs_f64();
            println!("(\"{name}\", {energy:.6}, {makespan:.3}, {digest:#018x}),");
            (energy, makespan, digest)
        })
        .collect();
    for (&(name, energy_mj, makespan_s, digest), &(energy, makespan, observed)) in
        table.iter().zip(&observed)
    {
        assert_close(
            &format!("{name} total energy (MJ)"),
            energy,
            energy_mj,
            REL_TOL,
        );
        assert_close(
            &format!("{name} makespan (s)"),
            makespan,
            makespan_s,
            REL_TOL,
        );
        assert_eq!(
            observed, digest,
            "{name} result digest drifted (observed {observed:#018x})"
        );
    }
}

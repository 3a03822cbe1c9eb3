//! Fault-injection sweep (repository robustness study, not a paper
//! figure): how much energy and makespan each scheduler gives back as the
//! cluster gets less reliable, and whether E-Ant's savings survive.
//!
//! The sweep runs all four schedulers across a fault-rate grid — from the
//! fault-free baseline through random task failures to crash-heavy
//! TaskTracker churn (see [`hadoop_sim::FaultConfig`]) — on the same
//! fixed-seed MSD workload, and reports per-scheduler degradation curves:
//! energy and makespan deltas against that scheduler's own fault-free run,
//! plus raw retry / machine-failure / blacklist counts. The per-run numbers
//! are also written to `faults-sweep.json` (best effort) for the CI
//! artifact.

use eant::EAntConfig;
use hadoop_sim::{FaultConfig, RunResult};
use metrics::emit::{object, JsonValue};
use metrics::report::Table;
use simcore::SimDuration;

use crate::common::{fig8_spec, parallel_runs, SchedulerKind};

/// The fault-rate grid, mildest to harshest.
fn grid() -> Vec<(&'static str, FaultConfig)> {
    vec![
        ("none", FaultConfig::none()),
        (
            "tasks 2%",
            FaultConfig {
                task_failure_prob: 0.02,
                ..FaultConfig::none()
            },
        ),
        (
            "tasks 10%",
            FaultConfig {
                task_failure_prob: 0.10,
                ..FaultConfig::none()
            },
        ),
        // FaultConfig::moderate(): hourly crashes, 2 min downtime, 2% task
        // failures, blacklisting at 12 failures.
        ("mixed", FaultConfig::moderate()),
        (
            "crash-heavy",
            FaultConfig {
                crash_mtbf: SimDuration::from_mins(15),
                crash_downtime: SimDuration::from_mins(3),
                task_failure_prob: 0.05,
                ..FaultConfig::none()
            },
        ),
    ]
}

fn schedulers() -> [SchedulerKind; 4] {
    [
        SchedulerKind::Fifo,
        SchedulerKind::Fair,
        SchedulerKind::Tarazu,
        SchedulerKind::EAnt(EAntConfig::paper_default()),
    ]
}

fn run_point(fast: bool, fault: &FaultConfig, kind: &SchedulerKind) -> RunResult {
    let mut spec = fig8_spec().clone();
    spec.engine.fault = *fault;
    spec.execute(kind, 2015, fast)
}

fn json_row(fault: &str, r: &RunResult) -> JsonValue {
    object([
        ("fault", JsonValue::Str(fault.to_owned())),
        ("scheduler", JsonValue::Str(r.scheduler.clone())),
        ("energy_joules", JsonValue::Num(r.total_energy_joules())),
        ("makespan_s", JsonValue::Num(r.makespan.as_secs_f64())),
        ("drained", JsonValue::Bool(r.drained)),
        ("total_tasks", JsonValue::UInt(r.total_tasks)),
        ("task_failures", JsonValue::UInt(r.task_failures)),
        ("machine_failures", JsonValue::UInt(r.machine_failures)),
        ("map_outputs_lost", JsonValue::UInt(r.map_outputs_lost)),
        (
            "machines_blacklisted",
            JsonValue::UInt(r.machines_blacklisted),
        ),
    ])
}

/// Runs the fault sweep and renders the degradation table.
pub fn run(fast: bool) -> String {
    let grid = grid();
    let kinds = schedulers();

    // All (scheduler × grid) runs are independent: fan them out.
    let tasks: Vec<_> = kinds
        .iter()
        .flat_map(|kind| {
            grid.iter().map(move |(_, fault)| {
                let kind = kind.clone();
                let fault = *fault;
                move || run_point(fast, &fault, &kind)
            })
        })
        .collect();
    let mut flat = parallel_runs(tasks);
    let per_kind: Vec<Vec<RunResult>> = kinds
        .iter()
        .map(|_| flat.drain(..grid.len()).collect())
        .collect();

    let mut t = Table::new(
        "Fault sweep — degradation vs each scheduler's own fault-free run (seed 2015)",
        &[
            "scheduler",
            "faults",
            "energy (MJ)",
            "Δe %",
            "makespan (min)",
            "Δm %",
            "retries",
            "crashes",
            "lost maps",
            "blk",
        ],
    );
    let mut rows = Vec::new();
    for (kind, runs) in kinds.iter().zip(&per_kind) {
        let base = &runs[0];
        for ((label, _), r) in grid.iter().zip(runs) {
            assert!(
                r.drained,
                "{} under '{label}' faults failed to drain before the time limit",
                kind.label()
            );
            let e = r.total_energy_joules();
            let e0 = base.total_energy_joules();
            let m = r.makespan.as_secs_f64();
            let m0 = base.makespan.as_secs_f64();
            t.row(&[
                kind.label().to_owned(),
                (*label).to_owned(),
                format!("{:.3}", e / 1e6),
                format!("{:+.1}", (e / e0 - 1.0) * 100.0),
                format!("{:.1}", m / 60.0),
                format!("{:+.1}", (m / m0 - 1.0) * 100.0),
                r.task_failures.to_string(),
                r.machine_failures.to_string(),
                r.map_outputs_lost.to_string(),
                r.machines_blacklisted.to_string(),
            ]);
            rows.push(json_row(label, r));
        }
    }
    let mut out = t.render();

    // Does E-Ant's headline saving survive faults? Compare E-Ant vs Fair at
    // the harshest grid point.
    let fair = &per_kind[1];
    let eant = &per_kind[3];
    let last = grid.len() - 1;
    let saving_clean =
        (1.0 - eant[0].total_energy_joules() / fair[0].total_energy_joules()) * 100.0;
    let saving_harsh =
        (1.0 - eant[last].total_energy_joules() / fair[last].total_energy_joules()) * 100.0;
    out.push_str(&format!(
        "E-Ant energy saving vs Fair: {saving_clean:.1}% fault-free, \
         {saving_harsh:.1}% under '{}' faults\n",
        grid[last].0
    ));

    // Best-effort machine-readable artifact for CI.
    let doc = object([
        ("seed", JsonValue::UInt(2015)),
        ("fast", JsonValue::Bool(fast)),
        ("runs", JsonValue::Array(rows)),
    ]);
    let path = "faults-sweep.json";
    match std::fs::write(path, doc.render() + "\n") {
        Ok(()) => out.push_str(&format!("wrote per-run metrics to {path}\n")),
        Err(e) => out.push_str(&format!("could not write {path}: {e}\n")),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_starts_fault_free_and_validates() {
        let grid = grid();
        assert_eq!(grid[0].0, "none");
        assert!(!grid[0].1.is_enabled());
        for (label, fault) in &grid[1..] {
            assert!(fault.is_enabled(), "{label} must inject faults");
            fault.validate();
        }
    }

    #[test]
    fn faulted_runs_still_drain_and_count_failures() {
        let fault = FaultConfig {
            task_failure_prob: 0.05,
            ..FaultConfig::none()
        };
        let r = run_point(true, &fault, &SchedulerKind::Fair);
        assert!(r.drained);
        assert!(r.task_failures > 0, "5% failure rate must produce retries");
        assert_eq!(r.machine_failures, 0);
    }
}

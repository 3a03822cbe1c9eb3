//! Data-driven scenarios: JSON spec files, a scenario library, a
//! manifest-keyed run database and the CI regression gate.
//!
//! A scenario file describes a complete experiment — workload mix, fleet
//! composition, engine/fault/power knobs, scheduler grid, seeds and
//! regression tolerances — in canonical JSON (see [`ScenarioSpec`]).
//! [`ScenarioSpec::execute`] is the one way to run a scenario: the figure
//! modules clone the Fig. 8 grid (`scenarios/fig8-msd.json`, loaded by
//! [`crate::common::fig8_spec`]) and override its engine or fast workload.
//! The rest of the committed library under `scenarios/` covers regimes the
//! figures don't: diurnal double-peak arrivals, deadline batches,
//! multi-tenant mixes, rack-locality skew, fleet refresh and crash-heavy
//! churn. The commands:
//!
//! ```text
//! experiments scenario run <file> [--fast] [--db <path>]
//! experiments scenario sweep <dir> [--fast] [--db <path>]
//! experiments scenario compare <baseline> <candidate>
//! ```
//!
//! `run`/`sweep` execute every (scheduler × seed) cell and, with `--db`,
//! upsert each result into a [`RunDb`]. `compare` diffs two databases and
//! exits non-zero when any delta exceeds its scenario's tolerance — the CI
//! energy/perf regression gate.

mod rundb;
mod spec;

pub use rundb::{compare, CompareReport, Delta, RunDb, RunRecord};
pub use spec::{
    scheduler_to_json, FleetGroup, FleetSpec, ScenarioSpec, ServeSpec, ServeTolerance, Tolerance,
    WorkloadSpec,
};

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use metrics::emit::{object, JsonValue};

use crate::common::parallel_runs;
use crate::slo::{run_monitored, MonitoredCell};

/// The committed scenario library (`scenarios/` at the repository root).
#[must_use]
pub fn library_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// Loads and validates a scenario file.
///
/// # Errors
///
/// Returns an unreadable-file error or a `line N: …` parse/validation
/// error prefixed with the path.
pub fn load_spec(path: &Path) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    ScenarioSpec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The (scheduler × seed) cell grid of a spec, scheduler-major.
fn cell_grid(spec: &ScenarioSpec) -> Vec<(&crate::common::SchedulerKind, u64)> {
    spec.schedulers
        .iter()
        .flat_map(|kind| spec.seeds.iter().map(move |&seed| (kind, seed)))
        .collect()
}

/// Executes every (scheduler × seed) cell of `spec`, returning the report
/// and the records (in scheduler-major order).
#[must_use]
pub fn execute_spec(spec: &ScenarioSpec, fast: bool) -> (String, Vec<RunRecord>) {
    let cells = cell_grid(spec);
    let tasks: Vec<_> = cells
        .iter()
        .map(|&(kind, seed)| move || spec.execute(kind, seed, fast))
        .collect();
    let results = parallel_runs(tasks);

    let records: Vec<RunRecord> = cells
        .iter()
        .zip(&results)
        .map(|(&(kind, seed), result)| RunRecord::new(spec, kind, seed, fast, result))
        .collect();
    let report = render_report(spec, fast, &records);
    (report, records)
}

/// Executes every cell under observation — registry sampling always, the
/// scenario's SLO watchdog when an `"slo"` section is present — returning
/// the report, the records, and the per-cell telemetry. Record bytes are
/// identical to [`execute_spec`]'s: observers never feed back into the run.
#[must_use]
pub fn execute_spec_monitored(
    spec: &ScenarioSpec,
    fast: bool,
) -> (String, Vec<RunRecord>, Vec<MonitoredCell>) {
    let cells = cell_grid(spec);
    let tasks: Vec<_> = cells
        .iter()
        .map(|&(kind, seed)| move || run_monitored(spec, kind, seed, fast))
        .collect();
    let monitored = parallel_runs(tasks);

    let records: Vec<RunRecord> = cells
        .iter()
        .zip(&monitored)
        .map(|(&(kind, seed), cell)| RunRecord::new(spec, kind, seed, fast, &cell.result))
        .collect();
    let mut report = render_report(spec, fast, &records);
    for cell in &monitored {
        if let Some(pm) = &cell.postmortem {
            let _ = writeln!(report, "  {}", pm.summary());
        } else if let Some(stats) = &cell.slo_stats {
            let _ = writeln!(
                report,
                "  slo ok: {} seed {} (end window p99 {:.1} s over {} jobs, \
                 queue {}, growth {:+.1}/min)",
                cell.scheduler,
                cell.seed,
                stats.p99_sojourn_s,
                stats.window_completions,
                stats.queue_depth,
                stats.backlog_growth_per_min
            );
        }
    }
    (report, records, monitored)
}

fn render_report(spec: &ScenarioSpec, fast: bool, records: &[RunRecord]) -> String {
    let mut out = String::new();
    let workload_desc = {
        let active = match (&spec.fast_workload, fast) {
            (Some(w), true) => w,
            _ => &spec.workload,
        };
        match active {
            WorkloadSpec::Open(stream) => {
                format!("open stream ~{:.1} jobs/min", stream.mean_rate_per_min())
            }
            _ => format!("{} jobs", spec.jobs(spec.seeds[0], fast).len()),
        }
    };
    let _ = writeln!(
        out,
        "scenario {} ({workload_desc} x {} schedulers x {} seeds{})",
        spec.name,
        spec.schedulers.len(),
        spec.seeds.len(),
        if fast { ", fast" } else { "" }
    );
    if !spec.description.is_empty() {
        let _ = writeln!(out, "  {}", spec.description);
    }
    let _ = writeln!(
        out,
        "{:<8} {:>6} {:>12} {:>12} {:>8}  key",
        "sched", "seed", "energy MJ", "makespan s", "drained"
    );
    for r in records {
        let _ = writeln!(
            out,
            "{:<8} {:>6} {:>12.3} {:>12.1} {:>8}  {}",
            r.scheduler,
            r.seed,
            r.energy_joules / 1e6,
            r.makespan_s,
            if r.drained { "yes" } else { "NO" },
            r.key
        );
    }
    for line in savings_lines(records) {
        let _ = writeln!(out, "{line}");
    }
    for r in records.iter().filter(|r| r.open_stream) {
        let _ = writeln!(
            out,
            "  serve {} seed {}: p99 sojourn {:.1} s, {:.2} kJ/job",
            r.scheduler,
            r.seed,
            r.p99_sojourn_s,
            r.energy_per_job_j / 1e3
        );
    }
    out
}

/// Mean E-Ant energy savings vs each baseline present in the record set —
/// the paper's headline metric, reported per scenario run.
fn savings_lines(records: &[RunRecord]) -> Vec<String> {
    let mean_energy = |label: &str| {
        let runs: Vec<f64> = records
            .iter()
            .filter(|r| r.scheduler == label)
            .map(|r| r.energy_joules)
            .collect();
        if runs.is_empty() {
            None
        } else {
            Some(runs.iter().sum::<f64>() / runs.len() as f64)
        }
    };
    let Some(eant) = mean_energy("E-Ant") else {
        return Vec::new();
    };
    ["FIFO", "Fair", "Tarazu"]
        .iter()
        .filter_map(|&base| {
            mean_energy(base).map(|b| {
                format!(
                    "  E-Ant saves {:.2}% energy vs {base}",
                    (1.0 - eant / b) * 100.0
                )
            })
        })
        .collect()
}

/// `scenario run <file>`: executes one spec, optionally updating a run DB.
///
/// # Errors
///
/// Returns file, parse or database errors.
pub fn run_file(path: &Path, fast: bool, db_path: Option<&Path>) -> Result<String, String> {
    run_file_opts(path, fast, db_path, None)
}

/// `scenario run <file> [--db <path>] [--postmortem <dir>]`: the monitored
/// run path. Every cell carries the sampling registry; the scenario's
/// `"slo"` section (when present) arms the watchdog. With `--db`, the
/// per-cell registry snapshots land next to the database as
/// `<db>.registry.json`; with `--postmortem`, each breached cell's flight
/// recorder is dumped as a bundle directory under `dir`.
///
/// # Errors
///
/// Returns file, parse, database or bundle-write errors.
pub fn run_file_opts(
    path: &Path,
    fast: bool,
    db_path: Option<&Path>,
    postmortem_root: Option<&Path>,
) -> Result<String, String> {
    let spec = load_spec(path)?;
    let (mut report, records, cells) = execute_spec_monitored(&spec, fast);
    if let Some(root) = postmortem_root {
        let mut wrote = 0usize;
        for cell in &cells {
            if let Some(pm) = &cell.postmortem {
                let dir = pm.write_to(root)?;
                let _ = writeln!(report, "  postmortem bundle: {}", dir.display());
                wrote += 1;
            }
        }
        if wrote == 0 {
            let _ = writeln!(report, "  no SLO breach; no postmortem bundle written");
        }
    }
    if let Some(db) = db_path {
        let registry_path = registry_snapshot_path(db);
        write_registry_snapshots(&spec, fast, &cells, &registry_path)?;
        let _ = writeln!(report, "  registry snapshots: {}", registry_path.display());
    }
    update_db(db_path, records)?;
    Ok(report)
}

/// Where `scenario run --db <path>` writes its registry snapshots.
#[must_use]
pub fn registry_snapshot_path(db_path: &Path) -> PathBuf {
    let mut name = db_path
        .file_name()
        .map_or_else(|| "runs".into(), std::ffi::OsStr::to_os_string);
    name.push(".registry.json");
    db_path.with_file_name(name)
}

/// Writes one canonical-JSON document holding every cell's end-of-run
/// registry snapshot and sampled time series.
fn write_registry_snapshots(
    spec: &ScenarioSpec,
    fast: bool,
    cells: &[MonitoredCell],
    path: &Path,
) -> Result<(), String> {
    let cell_docs: Vec<JsonValue> = cells
        .iter()
        .map(|cell| {
            object(vec![
                ("scheduler", JsonValue::Str(cell.scheduler.clone())),
                ("seed", JsonValue::UInt(cell.seed)),
                ("registry", cell.registry.clone()),
                ("series", cell.series.to_json()),
            ])
        })
        .collect();
    let doc = object(vec![
        ("scenario", JsonValue::Str(spec.name.clone())),
        ("fast", JsonValue::Bool(fast)),
        ("cells", JsonValue::Array(cell_docs)),
    ]);
    std::fs::write(path, doc.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `scenario sweep <dir>`: runs every `*.json` spec in `dir` (sorted), one
/// shared run DB across all of them.
///
/// # Errors
///
/// Returns directory, file, parse or database errors.
pub fn sweep_dir(dir: &Path, fast: bool, db_path: Option<&Path>) -> Result<String, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no scenario files (*.json) in {}", dir.display()));
    }
    let mut out = String::new();
    let mut all_records = Vec::new();
    for file in &files {
        let spec = load_spec(file)?;
        let (report, records) = execute_spec(&spec, fast);
        out.push_str(&report);
        out.push('\n');
        all_records.extend(records);
    }
    let _ = writeln!(
        out,
        "swept {} scenario(s), {} run(s)",
        files.len(),
        all_records.len()
    );
    update_db(db_path, all_records)?;
    Ok(out)
}

fn update_db(db_path: Option<&Path>, records: Vec<RunRecord>) -> Result<(), String> {
    let Some(path) = db_path else {
        return Ok(());
    };
    let mut db = if path.exists() {
        RunDb::load(path)?
    } else {
        RunDb::new()
    };
    for record in records {
        db.upsert(record);
    }
    db.save(path)
}

/// `scenario compare <baseline> <candidate>`: the regression gate.
/// Returns the report and the number of violations (non-zero ⇒ the caller
/// should exit with failure).
///
/// # Errors
///
/// Returns file or parse errors for either database.
pub fn compare_files(baseline: &Path, candidate: &Path) -> Result<(String, usize), String> {
    let base = RunDb::load(baseline)?;
    let cand = RunDb::load(candidate)?;
    let report = compare(&base, &cand);
    Ok((report.render(), report.violations()))
}

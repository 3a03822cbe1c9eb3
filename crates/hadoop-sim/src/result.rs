//! Run results: the raw material of every figure in the evaluation.

use std::collections::BTreeMap;

use simcore::series::TimeSeries;
use simcore::{SimDuration, SimTime};

use cluster::MachineId;
use workload::{JobId, SizeClass};

use crate::JobPhase;

/// Outcome of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job id.
    pub id: JobId,
    /// Fig. 8(c)-style class label, e.g. `"Terasort-M"`.
    pub label: String,
    /// Benchmark name without the size suffix.
    pub benchmark: String,
    /// MSD size class, when applicable.
    pub size_class: Option<SizeClass>,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Lifecycle phase at the end of the run (`Completed` unless the run
    /// hit its time limit).
    pub phase: JobPhase,
    /// Completion time (`None` when the run hit its time limit first).
    pub finished_at: Option<SimTime>,
    /// Total tasks in the job.
    pub total_tasks: u32,
    /// Serial reference work, for standalone-time estimation.
    pub reference_work_secs: f64,
}

impl JobOutcome {
    /// Wall-clock completion: finish − submit.
    pub fn completion_time(&self) -> Option<SimDuration> {
        self.finished_at.map(|f| f - self.submitted_at)
    }
}

/// Outcome of one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineOutcome {
    /// The machine id.
    pub machine: MachineId,
    /// Hardware profile name (homogeneous-group key).
    pub profile: String,
    /// Total metered energy over the run, in joules.
    pub energy_joules: f64,
    /// Idle-system component of the energy.
    pub idle_joules: f64,
    /// Above-idle ("workload used") component of the energy.
    pub workload_joules: f64,
    /// Time-averaged CPU utilization over the run, in `[0, 1]`.
    pub mean_utilization: f64,
    /// Completed map tasks.
    pub map_tasks: u64,
    /// Completed reduce tasks.
    pub reduce_tasks: u64,
    /// Completed tasks per benchmark name.
    pub tasks_by_benchmark: BTreeMap<String, u64>,
}

impl MachineOutcome {
    /// All completed tasks on this machine.
    pub fn total_tasks(&self) -> u64 {
        self.map_tasks + self.reduce_tasks
    }
}

/// Per-control-interval snapshot used by convergence analysis (Fig. 11) and
/// the energy-over-time curves (Fig. 10).
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSnapshot {
    /// End time of the interval.
    pub at: SimTime,
    /// Cumulative fleet energy at the end of the interval, in joules.
    pub cumulative_energy_joules: f64,
    /// Tasks assigned during this interval, per job, per machine
    /// (dense machine-indexed vector).
    pub assignments: BTreeMap<JobId, Vec<u64>>,
}

impl IntervalSnapshot {
    /// The fraction of `job`'s assignment *distribution* this interval that
    /// overlaps the previous interval's distribution — the paper's
    /// stability measure ("more than 80 % tasks revisit the same machines",
    /// §VI-C), read distributionally: with per-machine assignment fractions
    /// `p` (current) and `q` (previous), the overlap is `Σ_m min(p_m, q_m)`
    /// (equivalently `1 −` total-variation distance). A set-membership
    /// reading would saturate trivially on jobs wide enough to touch every
    /// machine each interval.
    ///
    /// Returns `None` when the job assigned no tasks in either interval.
    pub fn revisit_fraction(&self, previous: &IntervalSnapshot, job: JobId) -> Option<f64> {
        let cur = self.assignments.get(&job)?;
        let cur_total: u64 = cur.iter().sum();
        let prev = previous.assignments.get(&job)?;
        let prev_total: u64 = prev.iter().sum();
        if cur_total == 0 || prev_total == 0 {
            return None;
        }
        let overlap: f64 = cur
            .iter()
            .enumerate()
            .map(|(m, &c)| {
                let p = c as f64 / cur_total as f64;
                let q = prev.get(m).copied().unwrap_or(0) as f64 / prev_total as f64;
                p.min(q)
            })
            .sum();
        Some(overlap)
    }
}

/// Steady-state service metrics of a horizon-bounded run.
///
/// Populated only when the engine runs under
/// [`StopCondition::Horizon`](crate::StopCondition): all counters cover the
/// measurement window (after the warm-up cutoff). Sojourn is wall-clock
/// submit → finish per job; percentiles are *exact* (nearest-rank over the
/// full sorted sample, never interpolated or sketched), so they are
/// bit-reproducible across runs and thread counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Configured warm-up before measurement began, in seconds.
    pub warmup_s: f64,
    /// Actual measured-window length (end of run − warm-up cutoff), in
    /// seconds.
    pub measure_s: f64,
    /// Jobs submitted during the measurement window.
    pub arrivals: u64,
    /// Jobs that were both submitted and finished inside the window — the
    /// sojourn sample size.
    pub completions: u64,
    /// Jobs still unfinished at the end of the run (whole run, warm-up
    /// included): the queue the horizon cut off. Grows without bound in an
    /// overloaded regime.
    pub backlog: u64,
    /// Completed jobs per minute of measurement window.
    pub throughput_per_min: f64,
    /// Mean sojourn (submit → finish) over the window's completions.
    pub mean_sojourn: SimDuration,
    /// Exact nearest-rank sojourn percentiles, as `(percentile, value)`
    /// pairs in ascending percentile order (p50/p90/p95/p99). Empty when
    /// the window saw no completions.
    pub latency_distribution: Vec<(u8, SimDuration)>,
    /// Fleet energy metered over the measurement window, in joules.
    pub energy_joules: f64,
    /// Window energy divided by window completions (the headline service
    /// metric), or `0.0` when nothing completed.
    pub energy_per_job: f64,
    /// Mean fleet power over the window, in watts.
    pub energy_rate_watts: f64,
    /// Tasks completed during the measurement window.
    pub tasks_completed: u64,
    /// Mean pending-task queue depth over the window's control-interval
    /// samples.
    pub queue_mean: f64,
    /// Maximum sampled pending-task queue depth over the window.
    pub queue_max: u64,
}

impl ServiceStats {
    /// The recorded sojourn value at `p` (e.g. `99`), if that percentile
    /// was recorded and the window saw any completions.
    pub fn percentile(&self, p: u8) -> Option<SimDuration> {
        self.latency_distribution
            .iter()
            .find(|(q, _)| *q == p)
            .map(|(_, d)| *d)
    }
}

/// Everything measured over one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Scheduler name the run used.
    pub scheduler: String,
    /// Simulated time at which the last job finished (or the time limit).
    pub makespan: SimDuration,
    /// Whether the run drained all jobs before the time limit.
    pub drained: bool,
    /// Group labels interned over the run, in [`workload::GroupId`] order:
    /// `groups[g.index()]` resolves a
    /// [`TaskReport::group`](crate::TaskReport::group) symbol back to its
    /// label (e.g. `"Terasort-M"`).
    pub groups: Vec<String>,
    /// Per-job outcomes, in submission order.
    pub jobs: Vec<JobOutcome>,
    /// Per-machine outcomes, in machine order.
    pub machines: Vec<MachineOutcome>,
    /// Control-interval snapshots, in time order.
    pub intervals: Vec<IntervalSnapshot>,
    /// Cumulative fleet energy over time (sampled at control intervals).
    pub energy_series: TimeSeries,
    /// Total completed tasks.
    pub total_tasks: u64,
    /// Speculative (backup) attempts launched, when speculation is on.
    pub speculative_attempts: u64,
    /// Attempts whose work was discarded because another attempt of the
    /// same task finished first.
    pub wasted_attempts: u64,
    /// Attempts that failed (randomly or because their machine crashed)
    /// and were retried.
    pub task_failures: u64,
    /// Machines declared dead by heartbeat expiry over the run (a machine
    /// that crashes twice counts twice).
    pub machine_failures: u64,
    /// Completed map outputs lost to machine crashes and re-executed.
    pub map_outputs_lost: u64,
    /// Machines taken out of rotation after repeated task failures.
    pub machines_blacklisted: u64,
    /// Steady-state service metrics; `Some` only for horizon-bounded
    /// (service-mode) runs, `None` for every drain run.
    pub service: Option<ServiceStats>,
}

impl RunResult {
    /// Total metered fleet energy, in joules.
    pub fn total_energy_joules(&self) -> f64 {
        self.machines.iter().map(|m| m.energy_joules).sum()
    }

    /// Total energy per hardware profile, in profile-first-appearance
    /// order — the grouping of Fig. 8(a).
    pub fn energy_by_profile(&self) -> Vec<(String, f64)> {
        let mut order: Vec<String> = Vec::new();
        let mut map: BTreeMap<String, f64> = BTreeMap::new();
        for m in &self.machines {
            if !map.contains_key(&m.profile) {
                order.push(m.profile.clone());
            }
            *map.entry(m.profile.clone()).or_insert(0.0) += m.energy_joules;
        }
        order
            .into_iter()
            .map(|p| {
                let e = map[&p];
                (p, e)
            })
            .collect()
    }

    /// Mean CPU utilization per hardware profile — Fig. 8(b).
    pub fn utilization_by_profile(&self) -> Vec<(String, f64)> {
        let mut order: Vec<String> = Vec::new();
        let mut sums: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        for m in &self.machines {
            if !sums.contains_key(&m.profile) {
                order.push(m.profile.clone());
            }
            let entry = sums.entry(m.profile.clone()).or_insert((0.0, 0));
            entry.0 += m.mean_utilization;
            entry.1 += 1;
        }
        order
            .into_iter()
            .map(|p| {
                let (s, n) = sums[&p];
                (p, s / n as f64)
            })
            .collect()
    }

    /// Mean job completion time per class label — the rows of Fig. 8(c).
    /// Unfinished jobs are skipped.
    pub fn completion_by_label(&self) -> Vec<(String, f64)> {
        let mut order: Vec<String> = Vec::new();
        let mut sums: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        for j in &self.jobs {
            let Some(ct) = j.completion_time() else {
                continue;
            };
            if !sums.contains_key(&j.label) {
                order.push(j.label.clone());
            }
            let entry = sums.entry(j.label.clone()).or_insert((0.0, 0));
            entry.0 += ct.as_secs_f64();
            entry.1 += 1;
        }
        order
            .into_iter()
            .map(|l| {
                let (s, n) = sums[&l];
                (l, s / n as f64)
            })
            .collect()
    }

    /// Completed-task counts per (profile, benchmark) — Fig. 9(a).
    pub fn tasks_by_profile_and_benchmark(&self) -> BTreeMap<(String, String), u64> {
        let mut out = BTreeMap::new();
        for m in &self.machines {
            for (bench, count) in &m.tasks_by_benchmark {
                *out.entry((m.profile.clone(), bench.clone())).or_insert(0) += count;
            }
        }
        out
    }

    /// Completed map/reduce counts per profile — Fig. 9(b).
    pub fn tasks_by_profile_and_kind(&self) -> BTreeMap<String, (u64, u64)> {
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for m in &self.machines {
            let e = out.entry(m.profile.clone()).or_insert((0, 0));
            e.0 += m.map_tasks;
            e.1 += m.reduce_tasks;
        }
        out
    }

    /// The interval index (1-based) at which `job`'s assignment first became
    /// *stable*: ≥ `threshold` of its tasks revisit machines used in the
    /// previous interval (§VI-C uses 0.8). `None` if never stable.
    pub fn convergence_interval(&self, job: JobId, threshold: f64) -> Option<usize> {
        for w in self.intervals.windows(2) {
            if let Some(frac) = w[1].revisit_fraction(&w[0], job) {
                if frac >= threshold {
                    return self.intervals.iter().position(|s| std::ptr::eq(s, &w[1]));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(at_secs: u64, assignments: &[(u64, Vec<u64>)]) -> IntervalSnapshot {
        IntervalSnapshot {
            at: SimTime::from_secs(at_secs),
            cumulative_energy_joules: 0.0,
            assignments: assignments
                .iter()
                .map(|(j, v)| (JobId(*j), v.clone()))
                .collect(),
        }
    }

    #[test]
    fn revisit_fraction_identical_distribution_is_one() {
        let a = snapshot(300, &[(0, vec![5, 5, 0])]);
        let b = snapshot(600, &[(0, vec![10, 10, 0])]);
        assert_eq!(b.revisit_fraction(&a, JobId(0)), Some(1.0));
    }

    #[test]
    fn revisit_fraction_partial_overlap() {
        let a = snapshot(300, &[(0, vec![10, 0, 0])]);
        let b = snapshot(600, &[(0, vec![6, 4, 0])]);
        // Overlap = min(1.0, 0.6) + min(0, 0.4) = 0.6.
        assert_eq!(b.revisit_fraction(&a, JobId(0)), Some(0.6));
    }

    #[test]
    fn revisit_fraction_disjoint_is_zero() {
        let a = snapshot(300, &[(0, vec![10, 0])]);
        let b = snapshot(600, &[(0, vec![0, 10])]);
        assert_eq!(b.revisit_fraction(&a, JobId(0)), Some(0.0));
    }

    #[test]
    fn revisit_fraction_none_for_idle_job() {
        let a = snapshot(300, &[(0, vec![1, 0])]);
        let b = snapshot(600, &[(0, vec![0, 0])]);
        assert_eq!(b.revisit_fraction(&a, JobId(0)), None);
        assert_eq!(b.revisit_fraction(&a, JobId(9)), None);
    }

    #[test]
    fn revisit_fraction_none_when_previous_absent() {
        let a = snapshot(300, &[]);
        let b = snapshot(600, &[(0, vec![5, 5])]);
        assert_eq!(b.revisit_fraction(&a, JobId(0)), None);
    }

    fn result_with(machines: Vec<MachineOutcome>, jobs: Vec<JobOutcome>) -> RunResult {
        RunResult {
            scheduler: "test".into(),
            makespan: SimDuration::from_secs(100),
            drained: true,
            groups: Vec::new(),
            jobs,
            machines,
            intervals: Vec::new(),
            energy_series: TimeSeries::new("energy"),
            total_tasks: 0,
            speculative_attempts: 0,
            wasted_attempts: 0,
            task_failures: 0,
            machine_failures: 0,
            map_outputs_lost: 0,
            machines_blacklisted: 0,
            service: None,
        }
    }

    fn machine_outcome(id: usize, profile: &str, energy: f64, util: f64) -> MachineOutcome {
        MachineOutcome {
            machine: MachineId(id),
            profile: profile.into(),
            energy_joules: energy,
            idle_joules: energy / 2.0,
            workload_joules: energy / 2.0,
            mean_utilization: util,
            map_tasks: 10,
            reduce_tasks: 5,
            tasks_by_benchmark: [("Grep".to_owned(), 15u64)].into_iter().collect(),
        }
    }

    #[test]
    fn energy_groups_by_profile_in_order() {
        let r = result_with(
            vec![
                machine_outcome(0, "Desktop", 100.0, 0.5),
                machine_outcome(1, "Atom", 10.0, 0.2),
                machine_outcome(2, "Desktop", 200.0, 0.3),
            ],
            vec![],
        );
        assert_eq!(
            r.energy_by_profile(),
            vec![("Desktop".to_owned(), 300.0), ("Atom".to_owned(), 10.0)]
        );
        assert_eq!(r.total_energy_joules(), 310.0);
        let util = r.utilization_by_profile();
        assert_eq!(util[0], ("Desktop".to_owned(), 0.4));
    }

    #[test]
    fn task_groupings() {
        let r = result_with(
            vec![
                machine_outcome(0, "Desktop", 1.0, 0.1),
                machine_outcome(1, "Desktop", 1.0, 0.1),
            ],
            vec![],
        );
        let by_bench = r.tasks_by_profile_and_benchmark();
        assert_eq!(by_bench[&("Desktop".to_owned(), "Grep".to_owned())], 30);
        let by_kind = r.tasks_by_profile_and_kind();
        assert_eq!(by_kind["Desktop"], (20, 10));
    }

    #[test]
    fn completion_by_label_averages_finished_jobs() {
        let job = |label: &str, fin: Option<u64>| JobOutcome {
            id: JobId(0),
            label: label.into(),
            benchmark: "Grep".into(),
            size_class: None,
            submitted_at: SimTime::ZERO,
            phase: if fin.is_some() {
                JobPhase::Completed
            } else {
                JobPhase::Running
            },
            finished_at: fin.map(SimTime::from_secs),
            total_tasks: 1,
            reference_work_secs: 1.0,
        };
        let r = result_with(
            vec![],
            vec![
                job("Grep-S", Some(100)),
                job("Grep-S", Some(300)),
                job("Grep-M", None),
            ],
        );
        assert_eq!(r.completion_by_label(), vec![("Grep-S".to_owned(), 200.0)]);
    }

    #[test]
    fn convergence_interval_detection() {
        let mut r = result_with(vec![], vec![]);
        r.intervals = vec![
            snapshot(300, &[(0, vec![10, 0])]),
            snapshot(600, &[(0, vec![5, 5])]), // overlap 0.5
            snapshot(900, &[(0, vec![5, 5])]), // overlap 1.0 → stable
        ];
        assert_eq!(r.convergence_interval(JobId(0), 0.8), Some(2));
        assert_eq!(r.convergence_interval(JobId(1), 0.8), None);
    }
}

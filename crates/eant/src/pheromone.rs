//! Pheromone state: the τ(j, m) matrix.

use std::collections::BTreeMap;

use cluster::MachineId;
use workload::JobId;

/// The pheromone matrix over (job colony × machine path).
///
/// Values evolve by the paper's Eq. 4 at every control interval:
/// `τ_{t+1} = (1-ρ)·τ_t + ρ·Σ_n Δτ_n`, where deposits Δτ are the
/// energy-efficiency ratios of Eq. 5, negated across competing jobs when
/// negative feedback (Eq. 6) is active. Values are clamped to
/// `[tau_min, tau_max]`.
///
/// # Examples
///
/// Reproduce the paper's §IV-C worked example (machine A completes two
/// 2 KJ tasks, machine B one 3 KJ task, ρ = 0.5):
///
/// ```
/// use eant::PheromoneTable;
/// use cluster::MachineId;
/// use workload::JobId;
/// use std::collections::BTreeMap;
///
/// let mut table = PheromoneTable::new(2, 1.0, 0.05, 1.0e4);
/// table.ensure_job(JobId(0));
/// let mean = (2.0 + 2.0 + 3.0) / 3.0;
/// let mut deposits = BTreeMap::new();
/// deposits.insert(JobId(0), vec![2.0 * mean / 2.0, mean / 3.0]);
/// table.apply_deposits(&deposits, 0.5, true);
/// let tau_a = table.get(JobId(0), MachineId(0));
/// let tau_b = table.get(JobId(0), MachineId(1));
/// assert!((tau_a - 1.666).abs() < 0.01);
/// assert!((tau_b - 0.888).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PheromoneTable {
    machines: usize,
    tau_init: f64,
    tau_min: f64,
    tau_max: f64,
    /// Job rows indexed by [`JobId::index`] (the engine's job ids are dense
    /// from 0), so the decision hot path finds a row with one bounds-checked
    /// index instead of a B-tree walk. Walking the `Some` entries in index
    /// order visits jobs in ascending id order, exactly as a map keyed by
    /// `JobId` would.
    ///
    /// Invariant: the last entry, if any, is `Some` — trailing `None`s are
    /// trimmed on removal — so the derived equality never depends on which
    /// finished jobs once held rows.
    rows: Vec<Option<Row>>,
    /// Number of `Some` entries in `rows`.
    live: usize,
}

/// One job's pheromone row with its cached sum, so the Eq. 3 normalizer
/// `Σ_m' τ(j, m')` is not re-reduced on every per-candidate probability
/// lookup in the decision hot path.
///
/// Invariant: `sum` is always `tau.iter().sum()` recomputed in full after
/// any mutation of `tau` (never adjusted incrementally), so cached and
/// freshly-computed normalizers are bit-identical.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    tau: Vec<f64>,
    sum: f64,
}

impl Row {
    fn new(tau: Vec<f64>) -> Self {
        let sum = tau.iter().sum();
        Row { tau, sum }
    }

    /// Recomputes the cached sum after the caller mutated `tau`.
    fn rescore(&mut self) {
        self.sum = self.tau.iter().sum();
    }
}

impl PheromoneTable {
    /// Creates an empty table for a cluster of `machines` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `machines` is zero or the τ bounds are not ordered
    /// `0 < tau_min ≤ tau_init ≤ tau_max`.
    pub fn new(machines: usize, tau_init: f64, tau_min: f64, tau_max: f64) -> Self {
        assert!(machines > 0, "table needs at least one machine");
        assert!(
            tau_min > 0.0 && tau_min <= tau_init && tau_init <= tau_max,
            "tau bounds must satisfy 0 < tau_min <= tau_init <= tau_max"
        );
        PheromoneTable {
            machines,
            tau_init,
            tau_min,
            tau_max,
            rows: Vec::new(),
            live: 0,
        }
    }

    /// Number of machine columns.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Number of job rows currently tracked.
    pub fn jobs(&self) -> usize {
        self.live
    }

    /// Ensures a row exists for `job`, initialized to `tau_init` (equal
    /// probability across machines — the paper's t = 1 state).
    pub fn ensure_job(&mut self, job: JobId) {
        let i = job.index();
        if i >= self.rows.len() {
            self.rows.resize_with(i + 1, || None);
        }
        if self.rows[i].is_none() {
            self.rows[i] = Some(Row::new(vec![self.tau_init; self.machines]));
            self.live += 1;
        }
    }

    /// Drops the row of a finished job (its colony has no more ants).
    pub fn remove_job(&mut self, job: JobId) {
        if let Some(slot) = self.rows.get_mut(job.index()) {
            if slot.take().is_some() {
                self.live -= 1;
            }
        }
        while matches!(self.rows.last(), Some(None)) {
            self.rows.pop();
        }
    }

    /// The tracked row of `job`, if any.
    fn tracked(&self, job: JobId) -> Option<&Row> {
        self.rows.get(job.index()).and_then(Option::as_ref)
    }

    /// Every tracked row with its job id, in ascending id order.
    fn tracked_mut(&mut self) -> impl Iterator<Item = (JobId, &mut Row)> {
        self.rows
            .iter_mut()
            .enumerate()
            .filter_map(|(i, row)| row.as_mut().map(|row| (JobId(i as u64), row)))
    }

    /// The pheromone on path (job → machine); `tau_init` for untracked
    /// jobs, `tau_min` for out-of-range machines.
    pub fn get(&self, job: JobId, machine: MachineId) -> f64 {
        match self.tracked(job) {
            Some(row) => row
                .tau
                .get(machine.index())
                .copied()
                .unwrap_or(self.tau_min),
            None => self.tau_init,
        }
    }

    /// The full row of a tracked job.
    pub fn row(&self, job: JobId) -> Option<&[f64]> {
        self.tracked(job).map(|r| r.tau.as_slice())
    }

    /// Eq. 3: the probability distribution over machines for `job`
    /// (pheromone row normalized to sum 1). Untracked jobs are uniform.
    pub fn probabilities(&self, job: JobId) -> Vec<f64> {
        match self.tracked(job) {
            Some(row) => row.tau.iter().map(|&t| t / row.sum).collect(),
            None => vec![1.0 / self.machines as f64; self.machines],
        }
    }

    /// Eq. 3 for a single (job, machine) path: `τ(j, m) / Σ_m' τ(j, m')`,
    /// O(1) against the row's cached sum instead of materializing the full
    /// [`PheromoneTable::probabilities`] vector. Untracked jobs are uniform,
    /// matching `probabilities`.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is out of range for a tracked job, exactly as
    /// indexing the `probabilities` vector would.
    pub fn probability(&self, job: JobId, machine: MachineId) -> f64 {
        match self.tracked(job) {
            Some(row) => row.tau[machine.index()] / row.sum,
            None => 1.0 / self.machines as f64,
        }
    }

    /// Applies one control interval's deposits (Eq. 4 + Eq. 6).
    ///
    /// `deposits[j][m]` must hold `Σ_n Δτ_n(j, m)` — the summed Eq. 5
    /// ratios of job `j`'s tasks completed on machine `m` this interval.
    ///
    /// With `negative_feedback`, every *other* tracked job is penalized on
    /// the same machine (Eq. 6). The paper's per-task formulation would
    /// subtract the *sum* of all competitors' deposits, which grows with
    /// the number of concurrent jobs and pins every non-dominant path to
    /// `tau_min` (winner-take-all per machine, serializing the cluster);
    /// we bound the penalty to the *mean* competitor deposit instead, which
    /// keeps Eq. 6's sign and intent with job-count-independent magnitude
    /// (documented in DESIGN.md).
    ///
    /// Rows are created on demand for deposits of previously unseen jobs.
    ///
    /// # Panics
    ///
    /// Panics if ρ ∉ (0, 1] or a deposit vector has the wrong length.
    pub fn apply_deposits(
        &mut self,
        deposits: &BTreeMap<JobId, Vec<f64>>,
        rho: f64,
        negative_feedback: bool,
    ) {
        assert!(rho > 0.0 && rho <= 1.0, "rho must be in (0, 1]");
        for (&job, d) in deposits {
            assert_eq!(d.len(), self.machines, "deposit vector length mismatch");
            self.ensure_job(job);
        }
        // Per-machine total deposit and depositor count, for the mean
        // competitor penalty.
        let mut totals = vec![0.0; self.machines];
        let mut depositors = vec![0u32; self.machines];
        if negative_feedback {
            for d in deposits.values() {
                for (m, &v) in d.iter().enumerate() {
                    totals[m] += v;
                    if v > 0.0 {
                        depositors[m] += 1;
                    }
                }
            }
        }
        let zero = vec![0.0; self.machines];
        let (tau_min, tau_max) = (self.tau_min, self.tau_max);
        for (job, row) in self.tracked_mut() {
            let own = deposits.get(&job).unwrap_or(&zero);
            for (m, tau) in row.tau.iter_mut().enumerate() {
                let foreign = if negative_feedback {
                    let others = depositors[m] - u32::from(own[m] > 0.0);
                    if others > 0 {
                        (totals[m] - own[m]) / others as f64
                    } else {
                        0.0
                    }
                } else {
                    0.0
                };
                let delta = own[m] - foreign;
                *tau = ((1.0 - rho) * *tau + rho * delta).clamp(tau_min, tau_max);
            }
            row.rescore();
        }
    }

    /// Evaporates every tracked path without deposits — used when an
    /// interval elapses with no completions.
    pub fn evaporate(&mut self, rho: f64) {
        assert!(rho > 0.0 && rho <= 1.0, "rho must be in (0, 1]");
        let tau_min = self.tau_min;
        for (_, row) in self.tracked_mut() {
            for tau in row.tau.iter_mut() {
                *tau = ((1.0 - rho) * *tau).max(tau_min);
            }
            row.rescore();
        }
    }

    /// Evaporates one machine's column across every tracked job — the
    /// failure-aware decay applied to dead and blacklisted machines, so a
    /// crashing node's trail fades even while its past deposits would
    /// otherwise keep attracting ants. Out-of-range machines are a no-op.
    ///
    /// # Panics
    ///
    /// Panics if ρ ∉ (0, 1].
    pub fn evaporate_machine(&mut self, machine: MachineId, rho: f64) {
        assert!(rho > 0.0 && rho <= 1.0, "rho must be in (0, 1]");
        let m = machine.index();
        if m >= self.machines {
            return;
        }
        let tau_min = self.tau_min;
        for (_, row) in self.tracked_mut() {
            row.tau[m] = ((1.0 - rho) * row.tau[m]).max(tau_min);
            row.rescore();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PheromoneTable {
        PheromoneTable::new(3, 1.0, 0.05, 100.0)
    }

    #[test]
    fn fresh_rows_are_uniform() {
        let mut t = table();
        t.ensure_job(JobId(0));
        assert_eq!(t.row(JobId(0)).unwrap(), &[1.0, 1.0, 1.0]);
        let p = t.probabilities(JobId(0));
        assert!(p.iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-12));
        // Untracked jobs are uniform too.
        let p = t.probabilities(JobId(9));
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_worked_example() {
        // §IV-C: machine A: two tasks at 2 KJ; machine B: one task at 3 KJ.
        let mut t = PheromoneTable::new(2, 1.0, 0.05, 100.0);
        t.ensure_job(JobId(0));
        let mean = 7.0 / 3.0;
        let mut deposits = BTreeMap::new();
        deposits.insert(JobId(0), vec![2.0 * (mean / 2.0), mean / 3.0]);
        t.apply_deposits(&deposits, 0.5, true);
        assert!((t.get(JobId(0), MachineId(0)) - (0.5 + 0.5 * 2.0 * mean / 2.0)).abs() < 1e-9);
        assert!((t.get(JobId(0), MachineId(1)) - (0.5 + 0.5 * mean / 3.0)).abs() < 1e-9);
        // Probability of machine A rises above 60 % (paper: 64-ish %).
        let p = t.probabilities(JobId(0));
        assert!(p[0] > 0.6 && p[0] < 0.7, "p[0] = {}", p[0]);
    }

    #[test]
    fn negative_feedback_penalizes_competitors() {
        let mut t = table();
        t.ensure_job(JobId(0));
        t.ensure_job(JobId(1));
        let mut deposits = BTreeMap::new();
        deposits.insert(JobId(0), vec![4.0, 0.0, 0.0]);
        t.apply_deposits(&deposits, 0.5, true);
        // Job 0 gains on machine 0; job 1 is penalized by the mean
        // competitor deposit: 0.5·1 + 0.5·(−4) clamped at the 0.05 floor.
        assert!(t.get(JobId(0), MachineId(0)) > 1.0);
        assert_eq!(t.get(JobId(1), MachineId(0)), 0.05);
        // Machines without deposits only evaporate.
        assert_eq!(t.get(JobId(1), MachineId(1)), 0.5);
    }

    #[test]
    fn without_negative_feedback_competitors_only_evaporate() {
        let mut t = table();
        t.ensure_job(JobId(0));
        t.ensure_job(JobId(1));
        let mut deposits = BTreeMap::new();
        deposits.insert(JobId(0), vec![4.0, 0.0, 0.0]);
        t.apply_deposits(&deposits, 0.5, false);
        assert_eq!(t.get(JobId(1), MachineId(0)), 0.5);
    }

    #[test]
    fn clamping_bounds_hold() {
        let mut t = PheromoneTable::new(1, 1.0, 0.5, 2.0);
        t.ensure_job(JobId(0));
        let mut deposits = BTreeMap::new();
        deposits.insert(JobId(0), vec![1.0e9]);
        t.apply_deposits(&deposits, 1.0, false);
        assert_eq!(t.get(JobId(0), MachineId(0)), 2.0);
        let mut deposits = BTreeMap::new();
        deposits.insert(JobId(0), vec![-1.0e9]);
        t.apply_deposits(&deposits, 1.0, false);
        assert_eq!(t.get(JobId(0), MachineId(0)), 0.5);
    }

    #[test]
    fn evaporation_decays_to_floor() {
        let mut t = table();
        t.ensure_job(JobId(0));
        for _ in 0..20 {
            t.evaporate(0.5);
        }
        assert_eq!(t.get(JobId(0), MachineId(0)), 0.05);
    }

    #[test]
    fn machine_evaporation_decays_one_column_only() {
        let mut t = table();
        t.ensure_job(JobId(0));
        t.ensure_job(JobId(1));
        t.evaporate_machine(MachineId(1), 0.5);
        for job in [JobId(0), JobId(1)] {
            assert_eq!(t.get(job, MachineId(0)), 1.0);
            assert_eq!(t.get(job, MachineId(1)), 0.5);
            assert_eq!(t.get(job, MachineId(2)), 1.0);
        }
        // Repeated decay bottoms out at the floor; out-of-range is a no-op.
        for _ in 0..20 {
            t.evaporate_machine(MachineId(1), 0.5);
        }
        assert_eq!(t.get(JobId(0), MachineId(1)), 0.05);
        t.evaporate_machine(MachineId(99), 0.5);
    }

    #[test]
    fn remove_job_resets_to_init() {
        let mut t = table();
        t.ensure_job(JobId(0));
        t.evaporate(0.5);
        assert!(t.get(JobId(0), MachineId(0)) < 1.0);
        t.remove_job(JobId(0));
        assert_eq!(t.get(JobId(0), MachineId(0)), 1.0);
        assert_eq!(t.jobs(), 0);
    }

    #[test]
    fn deposits_create_rows_on_demand() {
        let mut t = table();
        let mut deposits = BTreeMap::new();
        deposits.insert(JobId(7), vec![1.0, 2.0, 3.0]);
        t.apply_deposits(&deposits, 0.5, true);
        assert_eq!(t.jobs(), 1);
        assert!(t.get(JobId(7), MachineId(2)) > t.get(JobId(7), MachineId(0)));
    }

    #[test]
    fn single_path_probability_matches_full_vector() {
        let mut t = table();
        t.ensure_job(JobId(0));
        t.ensure_job(JobId(1));
        let mut deposits = BTreeMap::new();
        deposits.insert(JobId(0), vec![4.0, 1.0, 0.5]);
        t.apply_deposits(&deposits, 0.5, true);
        t.evaporate_machine(MachineId(2), 0.3);
        for job in [JobId(0), JobId(1), JobId(9)] {
            let full = t.probabilities(job);
            for (m, &p) in full.iter().enumerate().take(3) {
                // Bit-identical, not merely close: the cached sum is
                // recomputed by the same full reduction `probabilities`
                // performs.
                assert_eq!(t.probability(job, MachineId(m)), p);
            }
        }
    }

    #[test]
    fn out_of_range_machine_returns_floor() {
        let mut t = table();
        t.ensure_job(JobId(0));
        assert_eq!(t.get(JobId(0), MachineId(99)), 0.05);
    }

    #[test]
    #[should_panic(expected = "deposit vector length mismatch")]
    fn wrong_deposit_length_rejected() {
        let mut t = table();
        let mut deposits = BTreeMap::new();
        deposits.insert(JobId(0), vec![1.0]);
        t.apply_deposits(&deposits, 0.5, true);
    }

    #[test]
    #[should_panic(expected = "rho must be in (0, 1]")]
    fn invalid_rho_rejected() {
        table().evaporate(1.5);
    }

    #[test]
    #[should_panic(expected = "table needs at least one machine")]
    fn zero_machines_rejected() {
        PheromoneTable::new(0, 1.0, 0.5, 2.0);
    }
}

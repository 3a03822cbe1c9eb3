//! The adaptive task assigner: E-Ant as a pluggable Hadoop scheduler.

use std::collections::BTreeMap;

use simcore::{SimRng, SimTime};

use cluster::hdfs::Locality;
use cluster::{MachineId, SlotKind};
use hadoop_sim::trace::{Observer, ObserverSet};
use hadoop_sim::{ClusterQuery, DecisionCandidate, Scheduler, SimEvent, TaskReport};
use workload::{JobId, JobSpec};

use crate::heuristic::{fairness_factor, locality_factor};
use crate::{EAntConfig, EnergyModel, PheromoneTable, TaskAnalyzer, TaskEnergyRecord};

/// E-Ant's adaptive task assigner (§III–§IV).
///
/// On every slot offer it samples a job with probability proportional to
/// `τ(j, m) · η(j)^β` (Eq. 8) — pheromone learned from per-task energy
/// feedback times the locality/fairness heuristic. At every control
/// interval it recomputes pheromones from the interval's completed-task
/// energy estimates (Eq. 2, Eq. 4–6) with the configured exchange
/// strategies.
///
/// See the [crate-level documentation](crate) for a full example.
#[derive(Debug)]
pub struct EAntScheduler {
    config: EAntConfig,
    rng: SimRng,
    pheromones: Option<PheromoneTable>,
    analyzer: Option<TaskAnalyzer>,
    models: BTreeMap<String, EnergyModel>,
    machine_groups: Vec<usize>,
    machine_profiles: Vec<String>,
    decisions: u64,
    intervals: u64,
    scratch: DecisionScratch,
    /// The previous control interval's policy: each then-active job's Eq. 3
    /// probability vector over machines.
    prev_policy: BTreeMap<JobId, Vec<f64>>,
    /// Per job, `(interval time, overlap)` for every control interval at
    /// which the job was active in both that and the previous snapshot.
    policy_overlaps: BTreeMap<JobId, Vec<(SimTime, f64)>>,
    /// Policy-level event stream: [`SimEvent::PheromoneUpdated`] per job
    /// per control interval and [`SimEvent::EnergyModelRefit`] when a
    /// profile's Eq. 2 model is identified. Empty unless a trace observer
    /// is attached (see [`Scheduler::attach_observer`]).
    trace: ObserverSet<SimEvent>,
}

impl EAntScheduler {
    /// Creates the scheduler with the given configuration and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: EAntConfig, seed: u64) -> Self {
        config.validate();
        EAntScheduler {
            config,
            rng: SimRng::seed_from(seed).fork("eant"),
            pheromones: None,
            analyzer: None,
            models: BTreeMap::new(),
            machine_groups: Vec::new(),
            machine_profiles: Vec::new(),
            decisions: 0,
            intervals: 0,
            scratch: DecisionScratch::default(),
            prev_policy: BTreeMap::new(),
            policy_overlaps: BTreeMap::new(),
            trace: ObserverSet::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &EAntConfig {
        &self.config
    }

    /// The pheromone table, once the scheduler has seen the cluster
    /// (`None` before the first callback).
    pub fn pheromone_table(&self) -> Option<&PheromoneTable> {
        self.pheromones.as_ref()
    }

    /// Number of assignment decisions made so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Minutes (from time zero) until `job`'s policy first became stable at
    /// the given overlap threshold, or `None` if it never did.
    ///
    /// The Fig. 11 convergence analysis calls a policy *stable* once two
    /// consecutive control intervals' Eq. 3 probability vectors overlap
    /// (`Σ_m min(p_m, q_m)`) by at least the paper's 80 % criterion.
    pub fn policy_convergence_minutes(&self, job: JobId, threshold: f64) -> Option<f64> {
        self.policy_overlaps
            .get(&job)?
            .iter()
            .find(|&&(_, overlap)| overlap >= threshold)
            .map(|(at, _)| at.as_mins_f64())
    }

    /// Lazily learns the cluster layout from the first callback — the
    /// hardware information a real JobTracker collects from TaskTracker
    /// heartbeats (§IV-D).
    fn ensure_initialized(&mut self, query: &dyn ClusterQuery) {
        if self.pheromones.is_some() {
            return;
        }
        let fleet = query.fleet();
        let n = fleet.len();
        self.pheromones = Some(PheromoneTable::new(
            n,
            self.config.tau_init,
            self.config.tau_min,
            self.config.tau_max,
        ));
        self.analyzer = Some(TaskAnalyzer::new(n));
        self.machine_groups = fleet.group_index();
        self.machine_profiles = fleet
            .iter()
            .map(|m| m.profile().name().to_owned())
            .collect();
        for m in fleet.iter() {
            let name = m.profile().name().to_owned();
            if self.models.contains_key(&name) {
                continue;
            }
            let model = EnergyModel::from_profile(m.profile());
            self.trace.emit(query.now(), || SimEvent::EnergyModelRefit {
                profile: name.clone(),
                idle_watts: model.idle_watts(),
                alpha_watts: model.alpha_watts(),
            });
            self.models.insert(name, model);
        }
    }
}

/// A candidate weighed by one Eq. 8 decision, with the decomposition the
/// traced path reports.
#[derive(Debug, Clone, Copy)]
struct Weighed {
    job: JobId,
    local: bool,
    /// The job's Eq. 3 policy entry for the offered machine.
    tau: f64,
    /// η^β, see [`fairness_factor`].
    fairness: f64,
    /// The node-local boost, see [`locality_factor`].
    locality: f64,
}

/// The buffers one Eq. 8 decision fills. The scheduler owns them and reuses
/// them across decisions, so a decision allocates nothing once they are
/// warm.
#[derive(Debug, Default)]
struct DecisionScratch {
    /// The candidates that survive the share cap, in ascending job order.
    weighed: Vec<Weighed>,
    /// `weights[i]` is `weighed[i]`'s Eq. 8 weight `τ · η^β · boost`: the
    /// slice the draw reads.
    weights: Vec<f64>,
    /// η^β indexed by occupancy, as `(epoch, value)`. An entry is valid only
    /// while its epoch is the current decision's: within one decision the
    /// fair share, the pool and β are fixed, so η^β depends on the job only
    /// through its occupancy.
    fairness_memo: Vec<(u64, f64)>,
    epoch: u64,
}

impl DecisionScratch {
    /// Empties the buffers and opens a new memo epoch covering occupancies
    /// `0..=pool`.
    fn begin(&mut self, pool: usize) {
        self.weighed.clear();
        self.weights.clear();
        self.epoch += 1;
        if self.fairness_memo.len() <= pool {
            self.fairness_memo.resize(pool + 1, (0, 0.0));
        }
    }

    /// [`fairness_factor`], memoised for this decision's epoch; occupancies
    /// past the memo range are computed directly.
    fn fairness(&mut self, min_share: f64, occupied: u32, pool: usize, beta: f64) -> f64 {
        let epoch = self.epoch;
        match self.fairness_memo.get_mut(occupied as usize) {
            Some(entry) if entry.0 == epoch => entry.1,
            Some(entry) => {
                *entry = (epoch, fairness_factor(min_share, occupied, pool, beta));
                entry.1
            }
            None => fairness_factor(min_share, occupied, pool, beta),
        }
    }
}

impl EAntScheduler {
    /// Records each active job's policy overlap against the previous
    /// control interval for convergence analysis and emits one
    /// [`SimEvent::PheromoneUpdated`] per active job carrying it — the live
    /// view of the §VI-C stability criterion. Only the latest snapshot is
    /// kept.
    fn snapshot_policy(&mut self, query: &dyn ClusterQuery) {
        let pheromones = self.pheromones.as_ref().expect("initialized");
        let now = query.now();
        let snapshot: BTreeMap<JobId, Vec<f64>> = query
            .state()
            .active()
            .map(|j| (j.id, pheromones.probabilities(j.id)))
            .collect();
        for (job, row) in &snapshot {
            let overlap = self.prev_policy.get(job).map(|prev_row| {
                prev_row
                    .iter()
                    .zip(row)
                    .map(|(a, b)| a.min(*b))
                    .sum::<f64>()
            });
            if let Some(overlap) = overlap {
                self.policy_overlaps
                    .entry(*job)
                    .or_default()
                    .push((now, overlap));
            }
            self.trace
                .emit(now, || SimEvent::PheromoneUpdated { job: *job, overlap });
        }
        self.prev_policy = snapshot;
    }

    /// The Eq. 8 decision core shared by the plain and traced selection
    /// paths: both draw from the same RNG stream over the same weights, so
    /// turning decision tracing on cannot change a single placement.
    ///
    /// With `explain` set, returns each weighed candidate's decomposition —
    /// pheromone τ (the job's Eq. 3 policy entry for this machine), the η
    /// fairness/locality split (see [`fairness_factor`] and
    /// [`locality_factor`]) and the final normalized probability.
    fn decide(
        &mut self,
        query: &dyn ClusterQuery,
        machine: MachineId,
        kind: SlotKind,
        explain: bool,
    ) -> (Option<JobId>, Vec<DecisionCandidate>) {
        self.ensure_initialized(query);
        let state = query.state();
        let pheromones = self.pheromones.as_mut().expect("initialized");
        let (beta, local_boost) = (self.config.beta, self.config.local_boost);

        // Fair share: equal split of the pool among active jobs
        // (Σ_j S_min = S_pool, single-user system as in §IV-C.4).
        let pool = query.total_slots();
        let min_share = pool as f64 / state.num_active().max(1) as f64;

        // Eq. 1's fairness constraint, enforced as a hard share cap: a job
        // already holding its β-scaled multiple of the fair share steps
        // aside whenever a below-cap job also wants the slot. Without this
        // bound the probabilistic assignment can drift into heavy-tailed
        // job service and erratic makespans. If every candidate is over
        // the cap, they all compete.
        let cap = (self.config.effective_share_cap() * min_share).ceil();
        let mut any_under_cap = false;
        for c in state.candidates(kind) {
            pheromones.ensure_job(c.id);
            any_under_cap |= (c.slots_occupied as f64) < cap;
        }

        // Eq. 3 normalizes pheromone over machines *within each job's
        // row*: P(j, m) = τ(j, m) / Σ_m' τ(j, m'). A slot offer therefore
        // weighs each candidate by how strongly the job itself prefers
        // this machine — never by the raw cross-job deposit magnitude,
        // which scales with completion counts and would let short jobs
        // starve long ones outright.
        let scratch = &mut self.scratch;
        scratch.begin(pool);
        for c in state.candidates(kind) {
            if any_under_cap && (c.slots_occupied as f64) >= cap {
                continue;
            }
            let tau = pheromones.probability(c.id, machine);
            let local = kind == SlotKind::Map
                && query.best_map_locality(c.id, machine) == Some(Locality::NodeLocal);
            let fairness = scratch.fairness(min_share, c.slots_occupied, pool, beta);
            let locality = locality_factor(local, beta, local_boost);
            scratch.weighed.push(Weighed {
                job: c.id,
                local,
                tau,
                fairness,
                locality,
            });
            scratch.weights.push(tau * (fairness * locality));
        }

        let pick = self.rng.weighted_index(&scratch.weights);
        if pick.is_some() {
            self.decisions += 1;
        }
        let chosen = pick.map(|i| scratch.weighed[i].job);

        let explained = if explain {
            let total: f64 = scratch
                .weights
                .iter()
                .filter(|w| w.is_finite() && **w > 0.0)
                .sum();
            scratch
                .weighed
                .iter()
                .zip(&scratch.weights)
                .map(|(c, &w)| DecisionCandidate {
                    job: c.job,
                    local: c.local,
                    tau: Some(c.tau),
                    eta_fairness: Some(c.fairness),
                    eta_locality: Some(c.locality),
                    probability: if total > 0.0 && w.is_finite() && w > 0.0 {
                        w / total
                    } else {
                        0.0
                    },
                })
                .collect()
        } else {
            Vec::new()
        };
        (chosen, explained)
    }
}

impl Scheduler for EAntScheduler {
    fn name(&self) -> &str {
        "E-Ant"
    }

    fn attach_observer(&mut self, observer: Box<dyn Observer<SimEvent>>) {
        self.trace.attach(observer);
    }

    fn select_job(
        &mut self,
        query: &dyn ClusterQuery,
        machine: MachineId,
        kind: SlotKind,
    ) -> Option<JobId> {
        self.decide(query, machine, kind, false).0
    }

    fn select_job_traced(
        &mut self,
        query: &dyn ClusterQuery,
        machine: MachineId,
        kind: SlotKind,
    ) -> (Option<JobId>, Vec<DecisionCandidate>) {
        self.decide(query, machine, kind, true)
    }

    fn on_job_submitted(&mut self, query: &dyn ClusterQuery, job: &JobSpec) {
        self.ensure_initialized(query);
        self.pheromones
            .as_mut()
            .expect("initialized")
            .ensure_job(job.id());
    }

    fn on_job_completed(&mut self, query: &dyn ClusterQuery, job: JobId) {
        self.ensure_initialized(query);
        self.pheromones
            .as_mut()
            .expect("initialized")
            .remove_job(job);
    }

    fn on_task_completed(&mut self, query: &dyn ClusterQuery, report: &TaskReport) {
        self.ensure_initialized(query);
        let profile = &self.machine_profiles[report.machine.index()];
        let model = self.models[profile];
        let energy = model.estimate(report);
        self.analyzer
            .as_mut()
            .expect("initialized")
            .record(TaskEnergyRecord {
                job: report.job(),
                group: report.group,
                machine: report.machine,
                energy_joules: energy,
            });
    }

    fn on_control_interval(&mut self, query: &dyn ClusterQuery) {
        self.ensure_initialized(query);
        self.intervals += 1;
        let analyzer = self.analyzer.as_mut().expect("initialized");
        let pheromones = self.pheromones.as_mut().expect("initialized");
        // Failure awareness: dead and blacklisted machines contribute no
        // energy feedback (their partial samples would poison Eq. 5), and
        // their pheromone columns decay so the colony's ants stop routing
        // toward paths that cannot currently run tasks.
        let failed: Vec<MachineId> = query
            .fleet()
            .iter()
            .map(|m| m.id())
            .filter(|&m| query.is_machine_dead(m) || query.is_machine_blacklisted(m))
            .collect();
        for &m in &failed {
            analyzer.discard_machine(m);
        }
        if analyzer.is_empty() {
            pheromones.evaporate(self.config.rho);
            self.snapshot_policy(query);
            return;
        }
        let feedback = analyzer.compute(&self.machine_groups, self.config.exchange);
        pheromones.apply_deposits(
            &feedback.deposits,
            self.config.rho,
            self.config.negative_feedback,
        );
        // A failed machine's column deposits nothing this interval, but its
        // trail from earlier intervals persists in τ; decay it explicitly
        // so the policy forgets crashing machines faster than it learned
        // them.
        for &m in &failed {
            pheromones.evaporate_machine(m, self.config.rho);
        }
        // Deposits can resurrect rows of jobs that completed mid-interval;
        // prune anything no longer active so finished colonies release
        // their state.
        let state = query.state();
        let stale: Vec<JobId> = feedback
            .deposits
            .keys()
            .filter(|j| !state.job(**j).is_active())
            .copied()
            .collect();
        for job in stale {
            pheromones.remove_job(job);
        }
        self.snapshot_policy(query);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::Fleet;
    use hadoop_sim::{Engine, EngineConfig, FixedQuery, NoiseConfig};
    use simcore::{SimDuration, SimTime};
    use workload::Benchmark;

    #[test]
    fn select_returns_none_without_candidates() {
        let query = FixedQuery::paper(vec![FixedQuery::entry(0, 0, 3)]);
        let mut s = EAntScheduler::new(EAntConfig::paper_default(), 1);
        assert_eq!(s.select_job(&query, MachineId(0), SlotKind::Map), None);
    }

    #[test]
    fn select_returns_the_only_candidate() {
        let query = FixedQuery::paper(vec![FixedQuery::entry(0, 0, 3), FixedQuery::entry(1, 5, 0)]);
        let mut s = EAntScheduler::new(EAntConfig::paper_default(), 1);
        for _ in 0..20 {
            assert_eq!(
                s.select_job(&query, MachineId(0), SlotKind::Map),
                Some(JobId(1))
            );
        }
    }

    #[test]
    fn local_data_dominates_selection() {
        let mut query =
            FixedQuery::paper(vec![FixedQuery::entry(0, 5, 1), FixedQuery::entry(1, 5, 1)]);
        query.node_local.insert((JobId(1), MachineId(2)));
        let mut s = EAntScheduler::new(EAntConfig::paper_default(), 3);
        let mut picks_local = 0;
        for _ in 0..100 {
            if s.select_job(&query, MachineId(2), SlotKind::Map) == Some(JobId(1)) {
                picks_local += 1;
            }
        }
        // local_boost = 1000 → the node-local job wins essentially always.
        assert!(picks_local >= 98, "local picks: {picks_local}/100");
    }

    #[test]
    fn share_cap_excludes_hogs_when_others_wait() {
        // Twenty active jobs → fair share 4.8 slots, β-scaled cap ≈ 14.4.
        // Job 0 hogs 90 slots; only jobs 0 and 1 have pending maps.
        let mut jobs = vec![FixedQuery::entry(0, 5, 90), FixedQuery::entry(1, 5, 0)];
        for id in 2..20 {
            jobs.push(FixedQuery::entry(id, 0, 0));
        }
        let query = FixedQuery::paper(jobs);
        let mut s = EAntScheduler::new(EAntConfig::paper_default(), 5);
        for _ in 0..50 {
            assert_eq!(
                s.select_job(&query, MachineId(0), SlotKind::Map),
                Some(JobId(1)),
                "the capped hog must step aside"
            );
        }
    }

    #[test]
    fn capped_job_still_runs_when_alone() {
        // Same hog, but no competitor has pending work: it still runs.
        let mut jobs = vec![FixedQuery::entry(0, 5, 90)];
        for id in 1..20 {
            jobs.push(FixedQuery::entry(id, 0, 0));
        }
        let query = FixedQuery::paper(jobs);
        let mut s = EAntScheduler::new(EAntConfig::paper_default(), 5);
        assert_eq!(
            s.select_job(&query, MachineId(0), SlotKind::Map),
            Some(JobId(0))
        );
    }

    #[test]
    fn dead_machine_feedback_is_discarded_and_its_trail_decays() {
        use hadoop_sim::UtilizationSample;
        use workload::{TaskId, TaskIndex};

        let mut query = FixedQuery::paper(vec![FixedQuery::entry(0, 5, 1)]);
        let mut s = EAntScheduler::new(EAntConfig::paper_default(), 9);
        let report = |machine: usize, index: u32| TaskReport {
            task: TaskId {
                job: JobId(0),
                task: TaskIndex {
                    kind: SlotKind::Map,
                    index,
                },
            },
            machine: MachineId(machine),
            kind: SlotKind::Map,
            group: workload::GroupId(0),
            started_at: SimTime::ZERO,
            finished_at: SimTime::from_secs(10),
            locality: None,
            samples: vec![UtilizationSample {
                dt_secs: 10.0,
                utilization: 0.5,
            }],
            shuffle_secs: 0.0,
            true_energy_joules: 0.0,
            straggled: false,
            speculative: false,
        };
        // Identical feedback on machines 0 and 1, but machine 0 is dead at
        // the interval boundary: its records must be discarded and its
        // column must decay rather than earn pheromone.
        s.on_task_completed(&query, &report(0, 0));
        s.on_task_completed(&query, &report(1, 1));
        query.dead.push(MachineId(0));
        s.on_control_interval(&query);
        let table = s.pheromone_table().unwrap();
        let dead = table.get(JobId(0), MachineId(0));
        let alive = table.get(JobId(0), MachineId(1));
        assert!(
            dead < alive,
            "dead machine kept its trail: τ_dead = {dead}, τ_alive = {alive}"
        );
        assert!(dead < s.config().tau_init, "dead column must decay");
    }

    fn engine(seed: u64) -> Engine {
        let fleet = Fleet::paper_evaluation();
        let cfg = EngineConfig {
            noise: NoiseConfig::none(),
            control_interval: SimDuration::from_secs(60),
            ..EngineConfig::default()
        };
        Engine::new(fleet, cfg, seed)
    }

    fn jobs() -> Vec<JobSpec> {
        vec![
            JobSpec::new(JobId(0), Benchmark::wordcount(), 96, 8, SimTime::ZERO),
            JobSpec::new(JobId(1), Benchmark::terasort(), 96, 8, SimTime::ZERO),
        ]
    }

    #[test]
    fn runs_multi_job_workload_to_completion() {
        let mut e = engine(3);
        e.submit_jobs(jobs());
        let mut s = EAntScheduler::new(EAntConfig::paper_default(), 3);
        let r = e.run(&mut s);
        assert!(r.drained);
        assert_eq!(r.total_tasks, 208);
        assert!(s.decisions() > 0);
    }

    #[test]
    fn pheromone_rows_cleared_after_completion() {
        let mut e = engine(4);
        e.submit_jobs(jobs());
        let mut s = EAntScheduler::new(EAntConfig::paper_default(), 4);
        let _ = e.run(&mut s);
        assert_eq!(s.pheromone_table().unwrap().jobs(), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut e = engine(7);
            e.submit_jobs(jobs());
            let mut s = EAntScheduler::new(EAntConfig::paper_default(), seed);
            e.run(&mut s).makespan
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn beta_zero_still_schedules() {
        let mut e = engine(5);
        e.submit_jobs(jobs());
        let cfg = EAntConfig {
            beta: 0.0,
            ..EAntConfig::paper_default()
        };
        let mut s = EAntScheduler::new(cfg, 5);
        let r = e.run(&mut s);
        assert!(r.drained);
    }

    #[test]
    fn adapts_workload_mix_to_machine_strengths() {
        // Fig. 9(a): under a CPU-bound + I/O-bound mix, the compute-
        // optimized T420 group should end up with a larger share of the
        // CPU-bound (Wordcount) tasks than the Desktop group does.
        let fleet = Fleet::paper_evaluation();
        let cfg = EngineConfig {
            noise: NoiseConfig::none(),
            control_interval: SimDuration::from_secs(60),
            ..EngineConfig::default()
        };
        let mut e = Engine::new(fleet, cfg, 11);
        e.submit_jobs(vec![
            JobSpec::new(JobId(0), Benchmark::wordcount(), 400, 16, SimTime::ZERO),
            JobSpec::new(JobId(1), Benchmark::grep(), 400, 16, SimTime::ZERO),
        ]);
        let mut s = EAntScheduler::new(EAntConfig::paper_default(), 11);
        let r = e.run(&mut s);
        assert!(r.drained);
        let by_pb = r.tasks_by_profile_and_benchmark();
        let share = |profile: &str| {
            let wc = *by_pb
                .get(&(profile.to_owned(), "Wordcount".to_owned()))
                .unwrap_or(&0) as f64;
            let grep = *by_pb
                .get(&(profile.to_owned(), "Grep".to_owned()))
                .unwrap_or(&0) as f64;
            wc / (wc + grep).max(1.0)
        };
        let t420 = share("T420");
        let desktop = share("Desktop");
        assert!(
            t420 > desktop,
            "expected Wordcount share on T420 ({t420:.2}) > Desktop ({desktop:.2})"
        );
    }
}

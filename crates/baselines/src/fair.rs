//! The Hadoop Fair Scheduler.

use cluster::hdfs::Locality;
use cluster::{MachineId, SlotKind};
use hadoop_sim::{ClusterQuery, DecisionCandidate, JobEntry, Scheduler};
use workload::JobId;

/// The Hadoop Fair Scheduler with equal per-job minimum shares.
///
/// Every slot offer goes to the job with the largest *deficit* — the gap
/// between its fair share (`S_pool / #jobs`) and the slots it currently
/// occupies — so all jobs make progress concurrently. Map offers prefer a
/// node-local job when its deficit is within a tolerance of the most
/// deficit job (a lightweight stand-in for delay scheduling).
///
/// The paper uses this scheduler as its primary heterogeneity-oblivious
/// comparator: it spreads tasks evenly regardless of which machine is
/// energy-efficient for them, which is precisely the behaviour E-Ant
/// improves on (Fig. 8).
///
/// # Examples
///
/// ```
/// use baselines::FairScheduler;
/// use hadoop_sim::Scheduler;
///
/// assert_eq!(FairScheduler::new().name(), "Fair");
/// ```
#[derive(Debug, Clone)]
pub struct FairScheduler {
    locality_tolerance: f64,
}

impl FairScheduler {
    /// Creates the scheduler with the default locality tolerance.
    pub fn new() -> Self {
        FairScheduler {
            locality_tolerance: 0.25,
        }
    }

    /// Deficit of a job: fair share minus occupied slots (positive =
    /// underserved).
    fn deficit(job: &JobEntry, fair_share: f64) -> f64 {
        fair_share - job.slots_occupied as f64
    }
}

impl Default for FairScheduler {
    fn default() -> Self {
        FairScheduler::new()
    }
}

impl Scheduler for FairScheduler {
    fn name(&self) -> &str {
        "Fair"
    }

    fn select_job(
        &mut self,
        query: &dyn ClusterQuery,
        machine: MachineId,
        kind: SlotKind,
    ) -> Option<JobId> {
        let state = query.state();
        let candidates: Vec<&JobEntry> = state.candidates(kind).collect();
        if candidates.is_empty() {
            return None;
        }
        let fair_share = query.total_slots() as f64 / state.num_active().max(1) as f64;

        let max_deficit = candidates
            .iter()
            .map(|j| Self::deficit(j, fair_share))
            .fold(f64::NEG_INFINITY, f64::max);

        if kind == SlotKind::Map {
            // Among jobs close to the maximum deficit, prefer node-local
            // data.
            let tolerance = self.locality_tolerance * fair_share;
            if let Some(local) = candidates
                .iter()
                .filter(|j| Self::deficit(j, fair_share) >= max_deficit - tolerance)
                .find(|j| query.best_map_locality(j.id, machine) == Some(Locality::NodeLocal))
            {
                return Some(local.id);
            }
        }

        candidates
            .iter()
            .max_by(|a, b| {
                Self::deficit(a, fair_share)
                    .partial_cmp(&Self::deficit(b, fair_share))
                    .expect("deficits are finite")
                    // Deterministic tie-break: earlier submission wins.
                    .then(b.submitted_at.cmp(&a.submitted_at))
                    .then(b.id.cmp(&a.id))
            })
            .map(|j| j.id)
    }

    fn select_job_traced(
        &mut self,
        query: &dyn ClusterQuery,
        machine: MachineId,
        kind: SlotKind,
    ) -> (Option<JobId>, Vec<DecisionCandidate>) {
        let chosen = self.select_job(query, machine, kind);
        let state = query.state();
        let fair_share = query.total_slots() as f64 / state.num_active().max(1) as f64;
        // The generic candidate set, annotated with the score this
        // scheduler actually ranks by: each job's slot deficit, normalized
        // by the fair share so traces are comparable across cluster sizes.
        let candidates = state
            .candidates(kind)
            .map(|j| DecisionCandidate {
                job: j.id,
                local: kind == SlotKind::Map
                    && query.best_map_locality(j.id, machine) == Some(Locality::NodeLocal),
                tau: None,
                eta_fairness: Some(Self::deficit(j, fair_share) / fair_share.max(1.0)),
                eta_locality: None,
                probability: if chosen == Some(j.id) { 1.0 } else { 0.0 },
            })
            .collect();
        (chosen, candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::Fleet;
    use hadoop_sim::{Engine, EngineConfig, FixedQuery, NoiseConfig};
    use simcore::{SimDuration, SimTime};
    use workload::{Benchmark, JobSpec};

    #[test]
    fn picks_the_most_deficit_job() {
        let query = FixedQuery::paper(vec![
            FixedQuery::entry(0, 5, 40),
            FixedQuery::entry(1, 5, 2),
            FixedQuery::entry(2, 5, 10),
        ]);
        let mut s = FairScheduler::new();
        assert_eq!(
            s.select_job(&query, MachineId(0), SlotKind::Map),
            Some(JobId(1))
        );
    }

    #[test]
    fn prefers_local_job_within_tolerance() {
        // Jobs 1 and 2 have near-equal deficits; job 2 has local data.
        let mut query = FixedQuery::paper(vec![
            FixedQuery::entry(0, 5, 40),
            FixedQuery::entry(1, 5, 2),
            FixedQuery::entry(2, 5, 4),
        ]);
        query.node_local.insert((JobId(2), MachineId(3)));
        let mut s = FairScheduler::new();
        assert_eq!(
            s.select_job(&query, MachineId(3), SlotKind::Map),
            Some(JobId(2)),
            "locality should win within the deficit tolerance"
        );
        // On a machine without local data the raw deficit decides.
        assert_eq!(
            s.select_job(&query, MachineId(0), SlotKind::Map),
            Some(JobId(1))
        );
    }

    #[test]
    fn returns_none_when_nothing_pending() {
        let query = FixedQuery::paper(vec![FixedQuery::entry(0, 0, 10)]);
        let mut s = FairScheduler::new();
        assert_eq!(s.select_job(&query, MachineId(0), SlotKind::Map), None);
        assert_eq!(s.select_job(&query, MachineId(0), SlotKind::Reduce), None);
    }

    fn two_jobs_engine(seed: u64) -> Engine {
        let cfg = EngineConfig {
            noise: NoiseConfig::none(),
            ..EngineConfig::default()
        };
        let mut e = Engine::new(Fleet::paper_evaluation(), cfg, seed);
        e.submit_jobs(vec![
            JobSpec::new(JobId(0), Benchmark::terasort(), 128, 8, SimTime::ZERO),
            JobSpec::new(
                JobId(1),
                Benchmark::wordcount(),
                16,
                2,
                SimTime::from_secs(10),
            ),
        ]);
        e
    }

    fn run_two_jobs(seed: u64) -> hadoop_sim::RunResult {
        two_jobs_engine(seed).run(&mut FairScheduler::new())
    }

    #[test]
    fn drains_workload() {
        let r = run_two_jobs(1);
        assert!(r.drained);
        assert_eq!(r.total_tasks, 154);
    }

    #[test]
    fn short_job_not_starved_behind_long_job() {
        // The exact pathology FIFO exhibits: Fair must let the short job
        // finish long before the long one.
        let r = run_two_jobs(2);
        let finish = |job: usize| r.jobs[job].finished_at.unwrap();
        assert!(
            finish(1) < finish(0),
            "short job should finish first under fair sharing"
        );
        let short_completion = finish(1) - SimTime::from_secs(10);
        assert!(
            short_completion < SimDuration::from_mins(5),
            "short job took {short_completion} despite fair sharing"
        );
    }

    /// Streaming fold over the event stream: tracks when job 1 first
    /// started a task and when job 0 last finished one, without buffering
    /// reports.
    #[derive(Default)]
    struct ConcurrencyProbe {
        job1_first_start: Option<SimTime>,
        job0_last_finish: Option<SimTime>,
    }

    impl hadoop_sim::trace::Observer<hadoop_sim::SimEvent> for ConcurrencyProbe {
        fn on_event(&mut self, at: SimTime, event: &hadoop_sim::SimEvent) {
            match event {
                hadoop_sim::SimEvent::TaskStarted { task, .. } if task.job == JobId(1) => {
                    self.job1_first_start.get_or_insert(at);
                }
                hadoop_sim::SimEvent::TaskCompleted {
                    task, won: true, ..
                } if task.job == JobId(0) => {
                    self.job0_last_finish = Some(at);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn both_jobs_run_concurrently() {
        // Find a moment where both jobs had tasks in flight: job 1 starts
        // while job 0 still has unfinished tasks.
        let probe = hadoop_sim::trace::SharedObserver::new(ConcurrencyProbe::default());
        let mut e = two_jobs_engine(3);
        e.attach_observer(Box::new(probe.clone()));
        let r = e.run(&mut FairScheduler::new());
        assert!(r.drained);
        let (job1_first_start, job0_last_finish) = probe.with(|p| {
            (
                p.job1_first_start.expect("job 1 started"),
                p.job0_last_finish.expect("job 0 finished tasks"),
            )
        });
        assert!(job1_first_start < job0_last_finish);
    }

    #[test]
    fn traced_selection_reports_deficit_scores() {
        let query = FixedQuery::paper(vec![
            FixedQuery::entry(0, 5, 40),
            FixedQuery::entry(1, 5, 2),
            FixedQuery::entry(2, 5, 10),
        ]);
        let mut s = FairScheduler::new();
        let (chosen, candidates) = s.select_job_traced(&query, MachineId(0), SlotKind::Map);
        assert_eq!(
            chosen,
            Some(JobId(1)),
            "traced path must pick like select_job"
        );
        assert_eq!(candidates.len(), 3);
        let best = candidates.iter().find(|c| c.job == JobId(1)).unwrap();
        assert_eq!(best.probability, 1.0);
        for c in &candidates {
            assert!(c.tau.is_none(), "Fair has no pheromone");
            let score = c.eta_fairness.expect("Fair reports deficits");
            assert!(
                score <= best.eta_fairness.unwrap(),
                "chosen job must have the max deficit"
            );
        }
    }

    #[test]
    fn deficit_math() {
        let job = FixedQuery::entry(0, 5, 3);
        assert_eq!(FairScheduler::deficit(&job, 10.0), 7.0);
        assert_eq!(FairScheduler::deficit(&job, 2.0), -1.0);
    }
}

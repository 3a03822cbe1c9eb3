//! The concrete simulation event vocabulary.
//!
//! [`SimEvent`] is the typed stream the engine (and adaptive schedulers)
//! emit through the generic [`simcore::trace`] plumbing. Each variant maps
//! to a seam the engine already owns:
//!
//! | event | emitted from | when |
//! |---|---|---|
//! | [`SimEvent::JobSubmitted`] | event loop | a job's arrival event fires |
//! | [`SimEvent::JobCompleted`] | completion path | a job's last task finishes |
//! | [`SimEvent::TaskStarted`] | slot assignment | an attempt occupies a slot |
//! | [`SimEvent::TaskCompleted`] | completion path | an attempt releases its slot |
//! | [`SimEvent::HeartbeatDrained`] | heartbeat | a TaskTracker's slot offers are exhausted |
//! | [`SimEvent::SlotOccupancyChanged`] | occupy/release | a machine's used-slot count changes |
//! | [`SimEvent::PowerStateChanged`] | power management | standby/wake/DVFS transitions |
//! | [`SimEvent::SpeculationLaunched`] | speculation | a backup attempt is cloned |
//! | [`SimEvent::ControlIntervalFired`] | control tick | the periodic policy interval elapses |
//! | [`SimEvent::PheromoneUpdated`] | E-Ant analyzer | a job's policy row is re-derived |
//! | [`SimEvent::EnergyModelRefit`] | E-Ant analyzer | a per-profile Eq. 2 model is identified |
//! | [`SimEvent::TaskFailed`] | fault layer | an attempt fails (randomly or by crash) |
//! | [`SimEvent::MachineFailed`] | fault layer | heartbeat expiry declares a machine dead |
//! | [`SimEvent::MapOutputLost`] | fault layer | a dead machine's completed map is re-queued |
//! | [`SimEvent::MachineRecovered`] | fault layer | a crashed TaskTracker rejoins |
//! | [`SimEvent::MachineBlacklisted`] | fault layer | a machine exceeds the failure threshold |
//! | [`SimEvent::AssignmentDecision`] | slot assignment | a scheduler decision, with its candidate set (opt-in) |
//! | [`SimEvent::RunFinished`] | result assembly | the run drains or hits its time limit |
//!
//! Observers are passive (see [`simcore::trace::Observer`]): a run is
//! bit-identical with or without them, which the determinism suite checks.
//! Events carry enough payload that the streaming consumers in `metrics`
//! can reproduce the end-of-run `RunResult` aggregates exactly — energy
//! series, interval snapshots, per-job completion times and makespan.

use cluster::{MachineId, SlotKind};
use workload::{JobId, TaskId};

pub use simcore::trace::{Observer, ObserverSet, RingRecorder, SharedObserver, VecRecorder};

/// One job the scheduler weighed while filling a slot, carried by
/// [`SimEvent::AssignmentDecision`].
///
/// Every scheduler reports the candidate set (the active jobs with pending
/// work of the slot's kind) and which candidate won. Schedulers that score
/// candidates — E-Ant's Eq. 8 draw — additionally expose the decomposition:
/// the per-machine pheromone τ (the Eq. 3 policy entry for the offering
/// machine), the heuristic η split into its fairness (`fairness^β`) and
/// locality-boost factors, and the final normalized selection probability
/// `τ·η / Σ τ·η`. Deterministic schedulers leave the decomposition `None`
/// and mark the chosen candidate with probability 1.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionCandidate {
    /// The candidate job.
    pub job: JobId,
    /// Whether the job has node-local input data on the offering machine
    /// (always `false` for reduce slots, where locality is moot).
    pub local: bool,
    /// Pheromone: the job's Eq. 3 policy probability for this machine.
    pub tau: Option<f64>,
    /// Heuristic, fairness component. Scheduler-specific semantics:
    /// `fairness^β` from Eq. 7 for E-Ant; the normalized slot deficit for
    /// the Fair baseline.
    pub eta_fairness: Option<f64>,
    /// Heuristic, locality component: the local-data boost factor (1 when
    /// the job has no local split here).
    pub eta_locality: Option<f64>,
    /// Final selection probability of this candidate (Eq. 8). Sums to 1
    /// over the candidate set for probabilistic schedulers; an indicator
    /// of the chosen job for deterministic ones.
    pub probability: f64,
}

/// Power/frequency state of one machine, carried by
/// [`SimEvent::PowerStateChanged`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerState {
    /// Powered on at nominal frequency.
    Nominal,
    /// Powered on at the DVFS eco frequency.
    Eco,
    /// Suspended (standby power draw only).
    Standby,
    /// Booting back up; not yet accepting tasks.
    Waking,
}

/// One typed simulation event. All engine-side variants are `Copy`-cheap
/// scalars so constructing them on the hot path costs nothing measurable;
/// the E-Ant variants carry small per-interval payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// A job's arrival event fired; it is now visible to the scheduler.
    JobSubmitted {
        /// The arriving job.
        job: JobId,
        /// Its total task count (maps + reduces).
        tasks: u32,
    },
    /// A job's last task completed.
    JobCompleted {
        /// The finished job.
        job: JobId,
    },
    /// An attempt (fresh or speculative) occupied a slot and started.
    TaskStarted {
        /// The task being attempted.
        task: TaskId,
        /// The machine running the attempt.
        machine: MachineId,
        /// Whether this is a speculative (backup) copy.
        speculative: bool,
    },
    /// An attempt finished and released its slot.
    TaskCompleted {
        /// The task attempted.
        task: TaskId,
        /// The machine that ran the attempt.
        machine: MachineId,
        /// Whether this attempt was the first to finish its task. Losers
        /// (`false`) are discarded speculative copies.
        won: bool,
        /// Whether noise injection straggled this attempt.
        straggled: bool,
        /// Whether this was a speculative (backup) copy.
        speculative: bool,
    },
    /// A TaskTracker heartbeat finished offering slots: the residual free
    /// capacity on the machine and the cluster-wide queue depth.
    HeartbeatDrained {
        /// The reporting machine.
        machine: MachineId,
        /// Free map slots remaining after the offers.
        free_map: u32,
        /// Free reduce slots remaining after the offers.
        free_reduce: u32,
        /// Cluster-wide pending tasks (maps + eligible reduces).
        pending_total: u64,
    },
    /// A machine's used-slot count changed (task start or completion).
    SlotOccupancyChanged {
        /// The machine whose occupancy changed.
        machine: MachineId,
        /// Which slot pool changed.
        kind: SlotKind,
        /// Used slots of that kind after the change.
        occupied: u32,
        /// Total slots of that kind on the machine.
        capacity: u32,
    },
    /// A machine changed power or frequency state.
    PowerStateChanged {
        /// The machine that transitioned.
        machine: MachineId,
        /// Its new state.
        state: PowerState,
    },
    /// A speculative backup attempt was cloned from a straggler. Always
    /// followed by the matching [`SimEvent::TaskStarted`] with
    /// `speculative: true`.
    SpeculationLaunched {
        /// The straggling task being backed up.
        task: TaskId,
        /// The machine receiving the backup copy.
        machine: MachineId,
    },
    /// A control interval elapsed (adaptive schedulers re-derive policy
    /// at this cadence).
    ControlIntervalFired {
        /// Zero-based interval index.
        index: u64,
        /// Fleet-wide metered energy up to this instant, in joules.
        cumulative_energy_joules: f64,
    },
    /// E-Ant re-derived a job's pheromone row from the interval's energy
    /// feedback (Eq. 4–6).
    PheromoneUpdated {
        /// The job whose policy row changed.
        job: JobId,
        /// Distributional overlap `Σ_m min(p_m, q_m)` between the new
        /// Eq. 3 policy vector and the previous interval's, or `None` on
        /// the first interval the job is seen. `1.0` means the policy is
        /// fully stable (the §VI-C convergence criterion compares this
        /// against 0.8).
        overlap: Option<f64>,
    },
    /// E-Ant identified (or re-identified) the Eq. 2 energy model of one
    /// machine profile.
    EnergyModelRefit {
        /// Profile name the model covers.
        profile: String,
        /// Identified idle power, in watts.
        idle_watts: f64,
        /// Identified power slope α, in watts per unit utilization.
        alpha_watts: f64,
    },
    /// A task attempt failed and released its slot without producing
    /// output. The engine re-queues the task (unless another live attempt
    /// remains) with locality recomputed from scratch at the next offer.
    TaskFailed {
        /// The task whose attempt failed.
        task: TaskId,
        /// The machine the attempt was running on.
        machine: MachineId,
        /// `true` when the attempt died with its machine (heartbeat
        /// expiry), `false` for a random per-attempt failure.
        crash: bool,
    },
    /// Heartbeat expiry declared a machine dead: its running attempts
    /// failed and its completed map outputs were lost. Preceded by the
    /// per-attempt [`SimEvent::TaskFailed`] / [`SimEvent::MapOutputLost`]
    /// events of the cleanup.
    MachineFailed {
        /// The machine declared dead.
        machine: MachineId,
        /// Running attempts that died with it.
        attempts_lost: u32,
    },
    /// A completed map task's output was lost with its dead machine; the
    /// task reverts to pending and will re-execute (real Hadoop semantics —
    /// map outputs live on local disk, not HDFS).
    MapOutputLost {
        /// The map task whose output was lost.
        task: TaskId,
        /// The dead machine that held the output.
        machine: MachineId,
    },
    /// A crashed TaskTracker restarted and rejoined the cluster; the
    /// machine accepts work again from this heartbeat on.
    MachineRecovered {
        /// The machine that rejoined.
        machine: MachineId,
    },
    /// A machine accumulated enough task failures to be excluded from
    /// further assignment for the rest of the run.
    MachineBlacklisted {
        /// The machine taken out of rotation.
        machine: MachineId,
        /// Its task-failure count at the moment of blacklisting.
        failures: u32,
    },
    /// The scheduler filled a slot: the full candidate set it weighed and
    /// the decomposition behind the winning draw. Emitted immediately
    /// before the matching [`SimEvent::TaskStarted`], and only when
    /// [`EngineConfig::trace_decisions`](crate::EngineConfig) is on — the
    /// payload is never constructed otherwise.
    AssignmentDecision {
        /// The machine whose slot was being filled.
        machine: MachineId,
        /// Which slot pool was offered.
        kind: SlotKind,
        /// The job that won the slot.
        chosen: JobId,
        /// Every candidate the scheduler weighed, in scheduler order.
        candidates: Vec<DecisionCandidate>,
    },
    /// The run ended: final aggregates for streaming consumers.
    RunFinished {
        /// Whether every job completed (vs hitting the time limit).
        drained: bool,
        /// Final fleet-wide metered energy, in joules.
        total_energy_joules: f64,
        /// Total tasks completed (winners only).
        total_tasks: u64,
    },
}

impl SimEvent {
    /// Every variant's stable snake_case tag, indexed by
    /// [`SimEvent::kind_index`].
    pub const KINDS: [&'static str; 18] = [
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
        "task_failed",
        "machine_failed",
        "map_output_lost",
        "machine_recovered",
        "machine_blacklisted",
        "assignment_decision",
        "run_finished",
    ];

    /// Dense index of the variant into [`SimEvent::KINDS`], for consumers
    /// that keep one slot per event kind.
    pub fn kind_index(&self) -> usize {
        match self {
            SimEvent::JobSubmitted { .. } => 0,
            SimEvent::JobCompleted { .. } => 1,
            SimEvent::TaskStarted { .. } => 2,
            SimEvent::TaskCompleted { .. } => 3,
            SimEvent::HeartbeatDrained { .. } => 4,
            SimEvent::SlotOccupancyChanged { .. } => 5,
            SimEvent::PowerStateChanged { .. } => 6,
            SimEvent::SpeculationLaunched { .. } => 7,
            SimEvent::ControlIntervalFired { .. } => 8,
            SimEvent::PheromoneUpdated { .. } => 9,
            SimEvent::EnergyModelRefit { .. } => 10,
            SimEvent::TaskFailed { .. } => 11,
            SimEvent::MachineFailed { .. } => 12,
            SimEvent::MapOutputLost { .. } => 13,
            SimEvent::MachineRecovered { .. } => 14,
            SimEvent::MachineBlacklisted { .. } => 15,
            SimEvent::AssignmentDecision { .. } => 16,
            SimEvent::RunFinished { .. } => 17,
        }
    }

    /// Stable snake_case tag identifying the variant — the `"type"` field
    /// of the canonical JSONL trace encoding.
    pub fn kind(&self) -> &'static str {
        Self::KINDS[self.kind_index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_unique() {
        let kinds = [
            SimEvent::JobSubmitted {
                job: JobId(0),
                tasks: 1,
            }
            .kind(),
            SimEvent::JobCompleted { job: JobId(0) }.kind(),
            SimEvent::HeartbeatDrained {
                machine: MachineId(0),
                free_map: 0,
                free_reduce: 0,
                pending_total: 0,
            }
            .kind(),
            SimEvent::RunFinished {
                drained: true,
                total_energy_joules: 0.0,
                total_tasks: 0,
            }
            .kind(),
            SimEvent::MachineFailed {
                machine: MachineId(0),
                attempts_lost: 0,
            }
            .kind(),
            SimEvent::MachineRecovered {
                machine: MachineId(0),
            }
            .kind(),
            SimEvent::MachineBlacklisted {
                machine: MachineId(0),
                failures: 0,
            }
            .kind(),
            SimEvent::AssignmentDecision {
                machine: MachineId(0),
                kind: SlotKind::Map,
                chosen: JobId(0),
                candidates: Vec::new(),
            }
            .kind(),
        ];
        let mut sorted = kinds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), kinds.len());
        let mut all = SimEvent::KINDS.to_vec();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), SimEvent::KINDS.len());
    }
}

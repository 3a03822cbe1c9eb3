//! SLO watchdog with a postmortem flight recorder.
//!
//! [`SloWatchdog`] is a passive [`Observer`] over the [`SimEvent`] stream
//! that tracks three service-level monitors over a rolling sim-time window
//! — job-sojourn p95/p99, instantaneous queue depth, and backlog growth —
//! against the per-scenario thresholds of an [`SloConfig`]. Every observed
//! event also lands in a bounded [`RingRecorder`], so when a monitor first
//! trips the watchdog freezes with:
//!
//! * an [`SloBreach`] record: which monitor, the observed value vs the
//!   threshold, and the window statistics at the instant of the breach;
//! * the last `ring_capacity` events leading up to (and including) the
//!   breaching one — the flight-recorder evidence a postmortem bundle and
//!   the `explain` report are built from.
//!
//! Like every observer, the watchdog owns no RNG stream and feeds nothing
//! back into the engine: a run with a watchdog attached is bit-identical
//! to one without, which is what lets the scenario gate keep its baselines
//! while the watchdog rides along. Attach it to **both** the engine and the
//! scheduler (with [`crate::EngineConfig::trace_decisions`] on) so the ring
//! captures `assignment_decision` events alongside the lifecycle stream.
//!
//! The design follows the self-stabilization framing of Dornhaus & Lynch:
//! the monitors define the allocator's "stable regime", and the first exit
//! from it is the moment worth explaining — everything after a queue
//! collapse is noise, so the recorder freezes rather than rolling on.

use std::collections::{BTreeMap, VecDeque};

use simcore::stats::percentile_sorted;
use simcore::trace::{Observer, RingRecorder};
use simcore::{SimDuration, SimTime};
use workload::JobId;

use crate::SimEvent;

/// Per-scenario SLO monitor thresholds and flight-recorder sizing. All
/// thresholds are optional; a config with none set never breaches (but the
/// ring still records, so the watchdog doubles as a plain flight recorder).
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Width of the rolling window the sojourn and backlog monitors look
    /// at. Default 15 min.
    pub window: SimDuration,
    /// Flight-recorder depth: how many of the most recent events the
    /// postmortem keeps. Default 512.
    pub ring_capacity: usize,
    /// Monitors stay silent before this sim time — typically the service
    /// warmup, so the cold-start transient cannot trip a breach. Default 0.
    pub arm_after: SimTime,
    /// Minimum completed jobs in the window before the sojourn percentile
    /// monitors evaluate (a lone early straggler is not a p99). Default 10.
    pub min_completions: usize,
    /// Breach when the window's p95 job sojourn exceeds this.
    pub p95_sojourn: Option<SimDuration>,
    /// Breach when the window's p99 job sojourn exceeds this.
    pub p99_sojourn: Option<SimDuration>,
    /// Breach when a heartbeat reports more pending tasks than this.
    pub max_queue_depth: Option<u64>,
    /// Breach when the pending-task backlog grows faster than this many
    /// tasks per minute across the window.
    pub max_backlog_growth_per_min: Option<f64>,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            window: SimDuration::from_mins(15),
            ring_capacity: 512,
            arm_after: SimTime::ZERO,
            min_completions: 10,
            p95_sojourn: None,
            p99_sojourn: None,
            max_queue_depth: None,
            max_backlog_growth_per_min: None,
        }
    }
}

impl SloConfig {
    /// Whether any monitor threshold is configured.
    pub fn has_thresholds(&self) -> bool {
        self.p95_sojourn.is_some()
            || self.p99_sojourn.is_some()
            || self.max_queue_depth.is_some()
            || self.max_backlog_growth_per_min.is_some()
    }
}

/// Rolling-window statistics, computed at every monitor check and frozen
/// into the [`SloBreach`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloStats {
    /// Completed jobs currently in the window.
    pub window_completions: u64,
    /// Window p95 job sojourn, seconds (0 with no completions).
    pub p95_sojourn_s: f64,
    /// Window p99 job sojourn, seconds (0 with no completions).
    pub p99_sojourn_s: f64,
    /// Pending tasks at the most recent heartbeat.
    pub queue_depth: u64,
    /// Backlog growth across the window, tasks per minute (0 until the
    /// window has at least half its width of queue samples).
    pub backlog_growth_per_min: f64,
}

/// The first SLO breach of a run: which monitor tripped, the observed
/// value against its threshold, and the window statistics at that instant.
#[derive(Debug, Clone, PartialEq)]
pub struct SloBreach {
    /// Sim time of the breaching event.
    pub at: SimTime,
    /// Monitor name: `p95_sojourn`, `p99_sojourn`, `queue_depth` or
    /// `backlog_growth`.
    pub monitor: &'static str,
    /// The observed value that crossed the threshold (seconds for the
    /// sojourn monitors, tasks for queue depth, tasks/min for growth).
    pub observed: f64,
    /// The configured threshold, in the same unit.
    pub threshold: f64,
    /// Window statistics at the moment of the breach.
    pub stats: SloStats,
}

/// The passive SLO monitor + flight recorder. See the
/// [module documentation](self).
#[derive(Debug)]
pub struct SloWatchdog {
    cfg: SloConfig,
    ring: RingRecorder<SimEvent>,
    /// Submission time of every in-flight job.
    submitted: BTreeMap<JobId, SimTime>,
    /// `(completed_at, sojourn)` of jobs completed within the window.
    completions: VecDeque<(SimTime, SimDuration)>,
    /// The same window's sojourns in seconds, kept ascending under
    /// [`f64::total_cmp`], so a percentile read needs no sort.
    sorted_sojourns: Vec<f64>,
    /// `(at, pending_total)` heartbeat samples within the window.
    queue: VecDeque<(SimTime, u64)>,
    breach: Option<SloBreach>,
}

impl SloWatchdog {
    /// Creates a watchdog over a fresh ring.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.ring_capacity` is zero or `cfg.window` is zero.
    pub fn new(cfg: SloConfig) -> Self {
        assert!(!cfg.window.is_zero(), "slo window must be positive");
        let ring = RingRecorder::new(cfg.ring_capacity);
        SloWatchdog {
            cfg,
            ring,
            submitted: BTreeMap::new(),
            completions: VecDeque::new(),
            sorted_sojourns: Vec::new(),
            queue: VecDeque::new(),
            breach: None,
        }
    }

    /// The configuration the watchdog monitors against.
    pub fn config(&self) -> &SloConfig {
        &self.cfg
    }

    /// The first breach, if any monitor tripped.
    pub fn breach(&self) -> Option<&SloBreach> {
        self.breach.as_ref()
    }

    /// The flight-recorder ring (frozen at the breach if one occurred).
    pub fn ring(&self) -> &RingRecorder<SimEvent> {
        &self.ring
    }

    /// Current rolling-window statistics — the live dashboard view, or the
    /// frozen at-breach view after a breach.
    pub fn stats(&self) -> SloStats {
        let sojourns = &self.sorted_sojourns;
        SloStats {
            window_completions: sojourns.len() as u64,
            p95_sojourn_s: percentile_sorted(sojourns, 95).unwrap_or(0.0),
            p99_sojourn_s: percentile_sorted(sojourns, 99).unwrap_or(0.0),
            queue_depth: self.queue.back().map_or(0, |&(_, q)| q),
            backlog_growth_per_min: self.backlog_growth(),
        }
    }

    /// Consumes the watchdog, returning the breach (if any) and the ring's
    /// retained events, oldest first.
    pub fn into_parts(self) -> (Option<SloBreach>, Vec<(SimTime, SimEvent)>) {
        (self.breach, self.ring.into_events())
    }

    /// Index of the first sorted sojourn not below `secs`.
    fn sojourn_rank(&self, secs: f64) -> usize {
        self.sorted_sojourns
            .partition_point(|s| s.total_cmp(&secs).is_lt())
    }

    /// Adds a completion to the window.
    fn push_completion(&mut self, at: SimTime, sojourn: SimDuration) {
        self.completions.push_back((at, sojourn));
        let secs = sojourn.as_secs_f64();
        let i = self.sojourn_rank(secs);
        self.sorted_sojourns.insert(i, secs);
    }

    /// Drops window entries older than `window` behind `at`.
    fn trim(&mut self, at: SimTime) {
        while let Some(&(t, sojourn)) = self.completions.front() {
            if t + self.cfg.window < at {
                self.completions.pop_front();
                let secs = sojourn.as_secs_f64();
                let removed = self.sorted_sojourns.remove(self.sojourn_rank(secs));
                debug_assert_eq!(removed.to_bits(), secs.to_bits());
            } else {
                break;
            }
        }
        while let Some(&(t, _)) = self.queue.front() {
            if t + self.cfg.window < at {
                self.queue.pop_front();
            } else {
                break;
            }
        }
    }

    /// Backlog growth in tasks/min across the window's queue samples.
    /// Zero until the samples span at least half the window, so a single
    /// early heartbeat pair cannot fake a trend.
    fn backlog_growth(&self) -> f64 {
        let (Some(&(t0, q0)), Some(&(t1, q1))) = (self.queue.front(), self.queue.back()) else {
            return 0.0;
        };
        let span = t1 - t0;
        if span + span < self.cfg.window {
            return 0.0;
        }
        (q1 as f64 - q0 as f64) / (span.as_secs_f64() / 60.0)
    }

    fn trip(&mut self, at: SimTime, monitor: &'static str, observed: f64, threshold: f64) {
        self.breach = Some(SloBreach {
            at,
            monitor,
            observed,
            threshold,
            stats: self.stats(),
        });
    }

    fn check_sojourn(&mut self, at: SimTime) {
        if at < self.cfg.arm_after || self.completions.len() < self.cfg.min_completions {
            return;
        }
        let stats = self.stats();
        if let Some(limit) = self.cfg.p99_sojourn {
            if stats.p99_sojourn_s > limit.as_secs_f64() {
                self.trip(at, "p99_sojourn", stats.p99_sojourn_s, limit.as_secs_f64());
                return;
            }
        }
        if let Some(limit) = self.cfg.p95_sojourn {
            if stats.p95_sojourn_s > limit.as_secs_f64() {
                self.trip(at, "p95_sojourn", stats.p95_sojourn_s, limit.as_secs_f64());
            }
        }
    }

    fn check_queue(&mut self, at: SimTime, pending: u64) {
        if at < self.cfg.arm_after {
            return;
        }
        if let Some(limit) = self.cfg.max_queue_depth {
            if pending > limit {
                self.trip(at, "queue_depth", pending as f64, limit as f64);
                return;
            }
        }
        if let Some(limit) = self.cfg.max_backlog_growth_per_min {
            let growth = self.backlog_growth();
            if growth > limit {
                self.trip(at, "backlog_growth", growth, limit);
            }
        }
    }
}

impl Observer<SimEvent> for SloWatchdog {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        if self.breach.is_some() {
            // Frozen: the evidence ends at the breach.
            return;
        }
        self.ring.on_event(at, event);
        match event {
            SimEvent::JobSubmitted { job, .. } => {
                self.submitted.insert(*job, at);
            }
            SimEvent::JobCompleted { job } => {
                if let Some(sub) = self.submitted.remove(job) {
                    self.push_completion(at, at - sub);
                    self.trim(at);
                    self.check_sojourn(at);
                }
            }
            SimEvent::HeartbeatDrained { pending_total, .. } => {
                self.queue.push_back((at, *pending_total));
                self.trim(at);
                self.check_queue(at, *pending_total);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit(job: u64) -> SimEvent {
        SimEvent::JobSubmitted {
            job: JobId(job),
            tasks: 4,
        }
    }

    fn complete(job: u64) -> SimEvent {
        SimEvent::JobCompleted { job: JobId(job) }
    }

    fn heartbeat(pending: u64) -> SimEvent {
        SimEvent::HeartbeatDrained {
            machine: cluster::MachineId(0),
            free_map: 0,
            free_reduce: 0,
            pending_total: pending,
        }
    }

    fn cfg() -> SloConfig {
        SloConfig {
            min_completions: 2,
            ring_capacity: 8,
            ..SloConfig::default()
        }
    }

    #[test]
    fn p99_monitor_trips_and_freezes() {
        let mut wd = SloWatchdog::new(SloConfig {
            p99_sojourn: Some(SimDuration::from_secs(100)),
            ..cfg()
        });
        for j in 0..3u64 {
            wd.on_event(SimTime::from_secs(j), &submit(j));
        }
        wd.on_event(SimTime::from_secs(50), &complete(0));
        assert!(wd.breach().is_none(), "below min_completions");
        wd.on_event(SimTime::from_secs(200), &complete(1));
        let breach = wd.breach().expect("p99 monitor must trip");
        assert_eq!(breach.monitor, "p99_sojourn");
        assert_eq!(breach.at, SimTime::from_secs(200));
        assert!(breach.observed > 100.0);
        assert_eq!(breach.stats.window_completions, 2);

        // Frozen: later events change nothing, ring ends at the breach.
        let seen = wd.ring().seen();
        wd.on_event(SimTime::from_secs(300), &complete(2));
        assert_eq!(wd.ring().seen(), seen);
        assert_eq!(wd.breach().unwrap().at, SimTime::from_secs(200));
        let (breach, events) = wd.into_parts();
        assert!(breach.is_some());
        assert_eq!(
            events.last().map(|(at, _)| *at),
            Some(SimTime::from_secs(200)),
            "evidence must end at the breaching event"
        );
    }

    #[test]
    fn queue_depth_monitor_respects_arming_time() {
        let mut wd = SloWatchdog::new(SloConfig {
            max_queue_depth: Some(10),
            arm_after: SimTime::from_secs(100),
            ..cfg()
        });
        wd.on_event(SimTime::from_secs(50), &heartbeat(500));
        assert!(wd.breach().is_none(), "not armed yet");
        wd.on_event(SimTime::from_secs(150), &heartbeat(11));
        let breach = wd.breach().expect("queue monitor must trip");
        assert_eq!(breach.monitor, "queue_depth");
        assert_eq!(breach.observed, 11.0);
        assert_eq!(breach.threshold, 10.0);
    }

    #[test]
    fn backlog_growth_needs_half_a_window_of_evidence() {
        let mut wd = SloWatchdog::new(SloConfig {
            max_backlog_growth_per_min: Some(1.0),
            window: SimDuration::from_mins(10),
            ..cfg()
        });
        wd.on_event(SimTime::from_secs(0), &heartbeat(0));
        wd.on_event(SimTime::from_secs(60), &heartbeat(600));
        assert!(wd.breach().is_none(), "span below half the window");
        wd.on_event(SimTime::from_secs(360), &heartbeat(700));
        let breach = wd.breach().expect("growth monitor must trip");
        assert_eq!(breach.monitor, "backlog_growth");
        assert!(breach.observed > 100.0, "{}", breach.observed);
    }

    #[test]
    fn rolling_window_forgets_old_sojourns() {
        let mut wd = SloWatchdog::new(SloConfig {
            window: SimDuration::from_mins(1),
            p99_sojourn: Some(SimDuration::from_secs(3600)),
            ..cfg()
        });
        wd.on_event(SimTime::from_secs(0), &submit(0));
        wd.on_event(SimTime::from_secs(10), &complete(0));
        assert_eq!(wd.stats().window_completions, 1);
        wd.on_event(SimTime::from_secs(600), &submit(1));
        wd.on_event(SimTime::from_secs(610), &complete(1));
        assert_eq!(
            wd.stats().window_completions,
            1,
            "the minute-old completion must have rolled out"
        );
    }

    #[test]
    fn no_thresholds_means_flight_recorder_only() {
        let cfg = SloConfig::default();
        assert!(!cfg.has_thresholds());
        let mut wd = SloWatchdog::new(cfg);
        for j in 0..100u64 {
            wd.on_event(SimTime::from_secs(j), &submit(j));
            wd.on_event(SimTime::from_secs(j + 10_000), &complete(j));
        }
        assert!(wd.breach().is_none());
        assert_eq!(wd.ring().seen(), 200);
    }
}

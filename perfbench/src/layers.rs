//! The outside-in layer profile: decorators that time calls into each
//! layer's public functions, and the span stack that turns those times
//! into self times.
//!
//! [`TimedScheduler`] wraps a [`Scheduler`] and [`TimedObserver`] wraps an
//! [`Observer<SimEvent>`]; both forward every call unchanged and record
//! its duration into a shared [`Profiler`]. The benchmark opens one root
//! span around `Engine::run`, so the root's self time is the engine's own
//! work (event queue, heartbeat drain, report synthesis) and the self
//! times of all layers sum to the run's wall time exactly.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use cluster::{MachineId, SlotKind};
use hadoop_sim::trace::Observer;
use hadoop_sim::{ClusterQuery, DecisionCandidate, Scheduler, SimEvent, TaskReport};
use simcore::SimTime;
use workload::{JobId, JobSpec};

use crate::stats::LogHistogram;

/// The layers timed from outside. `Run` is the root span around
/// `Engine::run`; every other layer is a call the engine makes into a
/// scheduler or an observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Engine::run` itself; its self time is the engine core.
    Run,
    /// `Scheduler::select_job{,_traced}` for a map slot.
    SelectMap,
    /// `Scheduler::select_job{,_traced}` for a reduce slot.
    SelectReduce,
    /// `Scheduler::on_task_completed` (the analyzer ingest).
    TaskReport,
    /// `Scheduler::on_job_submitted` and `on_job_completed`.
    JobEvents,
    /// `Scheduler::on_control_interval` (pheromone update, Eq. 2 refit).
    ControlInterval,
    /// The metrics registry's `on_event`.
    Registry,
    /// The SLO watchdog's `on_event`.
    Watchdog,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 8] = [
        Layer::Run,
        Layer::SelectMap,
        Layer::SelectReduce,
        Layer::TaskReport,
        Layer::JobEvents,
        Layer::ControlInterval,
        Layer::Registry,
        Layer::Watchdog,
    ];

    /// Layers called millions of times keep a histogram, not raw spans.
    fn is_hot(self) -> bool {
        matches!(
            self,
            Layer::SelectMap
                | Layer::SelectReduce
                | Layer::TaskReport
                | Layer::Registry
                | Layer::Watchdog
        )
    }
}

/// What one layer accumulated: call count, summed self and inclusive
/// time, and either a per-call histogram (hot layers) or raw per-call
/// inclusive spans (rare layers).
#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    /// Calls into the layer.
    pub calls: u64,
    /// Summed self time: each call's span minus its timed children.
    pub self_ns: u64,
    /// Summed inclusive time.
    pub total_ns: u64,
    /// Per-call inclusive durations (hot layers only).
    pub histogram: LogHistogram,
    /// Per-call inclusive durations (rare layers only).
    pub spans_ns: Vec<u64>,
}

/// Work counters the scheduler decorator sees at the layer boundary.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Candidate jobs summed over all slot offers.
    pub candidates: u64,
    /// Slot offers answered with a job.
    pub filled: u64,
    /// Heartbeat drains that offered the scheduler at least one slot.
    pub heartbeats: u64,
    /// Utilization samples summed over completed-task reports.
    pub util_samples: u64,
    /// Completed-task reports.
    pub completions: u64,
    /// Map-task count of every job the scheduler saw submitted, by id.
    pub submitted_maps: Vec<(JobId, u32)>,
    last_offer: Option<(SimTime, MachineId)>,
}

/// The span stack and per-layer accumulators of one traced run.
#[derive(Debug)]
pub struct Profiler {
    /// Inclusive time of closed children, one entry per open span.
    open: Vec<u64>,
    layers: Vec<LayerStats>,
    /// Boundary work counters.
    pub counters: Counters,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler {
            open: Vec::new(),
            layers: vec![LayerStats::default(); Layer::ALL.len()],
            counters: Counters::default(),
        }
    }
}

/// A profiler shared by every decorator of one run (one thread).
pub type SharedProfiler = Rc<RefCell<Profiler>>;

/// Opens a span; the clock is read last so bookkeeping stays outside it.
fn enter(prof: &SharedProfiler) -> Instant {
    prof.borrow_mut().open.push(0);
    Instant::now()
}

/// Closes the innermost span, charging it to `layer`.
fn exit(prof: &SharedProfiler, layer: Layer, started: Instant) {
    let elapsed = started.elapsed().as_nanos() as u64;
    let mut p = prof.borrow_mut();
    let children = p.open.pop().expect("span stack is balanced");
    if let Some(parent) = p.open.last_mut() {
        *parent += elapsed;
    }
    let stats = &mut p.layers[layer as usize];
    stats.calls += 1;
    stats.total_ns += elapsed;
    stats.self_ns += elapsed.saturating_sub(children);
    if layer.is_hot() {
        stats.histogram.record(elapsed);
    } else {
        stats.spans_ns.push(elapsed);
    }
}

/// Times `f` as one span of `layer`.
pub fn timed<R>(prof: &SharedProfiler, layer: Layer, f: impl FnOnce() -> R) -> R {
    let started = enter(prof);
    let out = f();
    exit(prof, layer, started);
    out
}

impl Profiler {
    /// The accumulated statistics of `layer`.
    #[must_use]
    pub fn layer(&self, layer: Layer) -> &LayerStats {
        &self.layers[layer as usize]
    }

    /// Whether every opened span was closed.
    #[must_use]
    pub fn is_balanced(&self) -> bool {
        self.open.is_empty()
    }
}

/// A [`Scheduler`] decorator: forwards every trait method to the wrapped
/// scheduler and times it. Decisions and their RNG draws are the inner
/// scheduler's own, so a decorated run is byte-identical to a plain one.
pub struct TimedScheduler<'a> {
    inner: &'a mut dyn Scheduler,
    prof: SharedProfiler,
}

impl<'a> TimedScheduler<'a> {
    /// Wraps `inner`, recording into `prof`.
    pub fn new(inner: &'a mut dyn Scheduler, prof: SharedProfiler) -> Self {
        TimedScheduler { inner, prof }
    }

    /// Counts the offer's candidates and heartbeat boundary before the
    /// decision is timed.
    fn note_offer(&self, query: &dyn ClusterQuery, machine: MachineId, kind: SlotKind) {
        let candidates = query.state().candidates(kind).count() as u64;
        let mut p = self.prof.borrow_mut();
        let c = &mut p.counters;
        c.candidates += candidates;
        let offer = (query.now(), machine);
        if c.last_offer != Some(offer) {
            c.heartbeats += 1;
            c.last_offer = Some(offer);
        }
    }

    fn note_choice(&self, chosen: Option<JobId>) {
        if chosen.is_some() {
            self.prof.borrow_mut().counters.filled += 1;
        }
    }
}

fn select_layer(kind: SlotKind) -> Layer {
    match kind {
        SlotKind::Map => Layer::SelectMap,
        SlotKind::Reduce => Layer::SelectReduce,
    }
}

impl Scheduler for TimedScheduler<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select_job(
        &mut self,
        query: &dyn ClusterQuery,
        machine: MachineId,
        kind: SlotKind,
    ) -> Option<JobId> {
        self.note_offer(query, machine, kind);
        let inner = &mut *self.inner;
        let chosen = timed(&self.prof, select_layer(kind), || {
            inner.select_job(query, machine, kind)
        });
        self.note_choice(chosen);
        chosen
    }

    fn select_job_traced(
        &mut self,
        query: &dyn ClusterQuery,
        machine: MachineId,
        kind: SlotKind,
    ) -> (Option<JobId>, Vec<DecisionCandidate>) {
        self.note_offer(query, machine, kind);
        let inner = &mut *self.inner;
        let out = timed(&self.prof, select_layer(kind), || {
            inner.select_job_traced(query, machine, kind)
        });
        self.note_choice(out.0);
        out
    }

    fn on_job_submitted(&mut self, query: &dyn ClusterQuery, job: &JobSpec) {
        self.prof
            .borrow_mut()
            .counters
            .submitted_maps
            .push((job.id(), job.num_maps()));
        let inner = &mut *self.inner;
        timed(&self.prof, Layer::JobEvents, || {
            inner.on_job_submitted(query, job)
        });
    }

    fn on_job_completed(&mut self, query: &dyn ClusterQuery, job: JobId) {
        let inner = &mut *self.inner;
        timed(&self.prof, Layer::JobEvents, || {
            inner.on_job_completed(query, job)
        });
    }

    fn on_task_completed(&mut self, query: &dyn ClusterQuery, report: &TaskReport) {
        {
            let mut p = self.prof.borrow_mut();
            p.counters.completions += 1;
            p.counters.util_samples += report.samples.len() as u64;
        }
        let inner = &mut *self.inner;
        timed(&self.prof, Layer::TaskReport, || {
            inner.on_task_completed(query, report);
        });
    }

    fn on_control_interval(&mut self, query: &dyn ClusterQuery) {
        let inner = &mut *self.inner;
        timed(&self.prof, Layer::ControlInterval, || {
            inner.on_control_interval(query);
        });
    }

    fn attach_observer(&mut self, observer: Box<dyn Observer<SimEvent>>) {
        self.inner.attach_observer(observer);
    }
}

/// An [`Observer<SimEvent>`] decorator that times every `on_event` of the
/// wrapped observer as one span of `layer`.
pub struct TimedObserver<O> {
    inner: O,
    layer: Layer,
    prof: SharedProfiler,
}

impl<O> TimedObserver<O> {
    /// Wraps `inner`, charging its time to `layer`.
    pub fn new(inner: O, layer: Layer, prof: SharedProfiler) -> Self {
        TimedObserver { inner, layer, prof }
    }
}

impl<O: Observer<SimEvent>> Observer<SimEvent> for TimedObserver<O> {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        let inner = &mut self.inner;
        timed(&self.prof, self.layer, || inner.on_event(at, event));
    }
}

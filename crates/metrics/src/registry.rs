//! A deterministic in-process metrics registry.
//!
//! [`Registry`] holds three metric families — monotonic counters, gauges
//! and fixed-bucket histograms — addressed by `(name, label set)` pairs.
//! Label sets are interned to dense [`LabelSetId`]s exactly like
//! `workload::GroupId` interns group names, and registration hands back a
//! dense handle, so an update through a held handle is one indexed add.
//! Interning and registration build and compare owned strings: they are
//! the cold path, done once per metric. Snapshots are canonical: metrics are
//! emitted sorted by name then label set through the [`crate::emit`] JSON
//! emitter, so two identical runs produce byte-identical snapshot files
//! (the registry equivalent of the golden trace digests).
//!
//! [`RegistryObserver`] is the bridge from the typed event stream: attach
//! one to an engine (and scheduler) and it folds every [`SimEvent`] into
//! event counters, per-machine task counters, queue-depth and task-duration
//! histograms, and the fleet energy gauge — including the per-decision
//! counters when [`hadoop_sim::EngineConfig::trace_decisions`] is on. It
//! resolves each metric's handle on first sight and keeps it in dense
//! per-kind and per-machine tables, so a warm event does no string
//! handling and no heap allocation (`tests/registry_alloc.rs` pins this).
//!
//! # Sampling mode
//!
//! [`RegistryObserver::with_sampling`] additionally turns the registry into
//! a telemetry *time-series* source: every `control_interval_fired` event
//! (and the final `run_finished`) takes one sample of the whole registry —
//! the windowed **delta** of every counter, the instantaneous value of
//! every gauge, and bucket-estimated p50/p95/p99 points of every histogram
//! — into a bounded per-series [`TimeSeries`] store keyed by
//! `name{label=value,...}`. Counter deltas re-sum to the end-of-run
//! snapshot exactly (a property the test suite pins), so the series file is
//! a faithful windowed decomposition of the snapshot, not an approximation.
//! [`SeriesSnapshot`] is the canonical JSON codec for the store.
//!
//! # Examples
//!
//! ```
//! use metrics::registry::Registry;
//!
//! let mut reg = Registry::new();
//! let labels = reg.label_set(&[("kind", "map")]);
//! let started = reg.counter("tasks_started_total", labels);
//! reg.inc(started, 3);
//! let snap = reg.snapshot();
//! assert!(snap.render().contains("tasks_started_total"));
//! ```

use std::collections::BTreeMap;

use cluster::MachineId;
use hadoop_sim::trace::Observer;
use hadoop_sim::SimEvent;
use simcore::series::TimeSeries;
use simcore::stats::nearest_rank;
use simcore::SimTime;
use workload::TaskId;

use crate::emit::{object, JsonValue, ToJson};

/// Dense id of an interned label set (see [`Registry::label_set`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LabelSetId(u32);

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(u32);

#[derive(Debug)]
struct Counter {
    name: &'static str,
    labels: LabelSetId,
    value: u64,
}

#[derive(Debug)]
struct Gauge {
    name: &'static str,
    labels: LabelSetId,
    value: f64,
}

#[derive(Debug)]
struct Histogram {
    name: &'static str,
    labels: LabelSetId,
    /// Inclusive upper bounds, ascending. One overflow bucket past the end.
    bounds: Vec<f64>,
    /// `bounds.len() + 1` cumulative-free per-bucket counts.
    buckets: Vec<u64>,
    sum: f64,
    count: u64,
}

/// Deterministic counters, gauges and fixed-bucket histograms with
/// interned label sets. See the [module documentation](self).
#[derive(Debug, Default)]
pub struct Registry {
    label_sets: Vec<Vec<(String, String)>>,
    label_ids: BTreeMap<Vec<(String, String)>, LabelSetId>,
    counters: Vec<Counter>,
    counter_ids: BTreeMap<(&'static str, LabelSetId), CounterId>,
    gauges: Vec<Gauge>,
    gauge_ids: BTreeMap<(&'static str, LabelSetId), GaugeId>,
    histograms: Vec<Histogram>,
    histogram_ids: BTreeMap<(&'static str, LabelSetId), HistogramId>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Interns a label set, allocating the next dense id on first sight.
    /// Pairs are sorted by key, so `[("a","1"),("b","2")]` and
    /// `[("b","2"),("a","1")]` intern to the same id.
    pub fn label_set(&mut self, labels: &[(&str, &str)]) -> LabelSetId {
        let mut set: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        set.sort();
        if let Some(&id) = self.label_ids.get(&set) {
            return id;
        }
        let id = LabelSetId(u32::try_from(self.label_sets.len()).expect("too many label sets"));
        self.label_sets.push(set.clone());
        self.label_ids.insert(set, id);
        id
    }

    /// Returns the counter registered as `(name, labels)`, creating it at
    /// zero on first sight. `name` must be a `'static` literal — metric
    /// names are code, not data.
    pub fn counter(&mut self, name: &'static str, labels: LabelSetId) -> CounterId {
        if let Some(&id) = self.counter_ids.get(&(name, labels)) {
            return id;
        }
        let id = CounterId(u32::try_from(self.counters.len()).expect("too many counters"));
        self.counters.push(Counter {
            name,
            labels,
            value: 0,
        });
        self.counter_ids.insert((name, labels), id);
        id
    }

    /// Increments a counter.
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0 as usize].value += by;
    }

    /// Returns the gauge registered as `(name, labels)`, creating it at
    /// zero on first sight.
    pub fn gauge(&mut self, name: &'static str, labels: LabelSetId) -> GaugeId {
        if let Some(&id) = self.gauge_ids.get(&(name, labels)) {
            return id;
        }
        let id = GaugeId(u32::try_from(self.gauges.len()).expect("too many gauges"));
        self.gauges.push(Gauge {
            name,
            labels,
            value: 0.0,
        });
        self.gauge_ids.insert((name, labels), id);
        id
    }

    /// Sets a gauge to an instantaneous value.
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0 as usize].value = value;
    }

    /// Returns the histogram registered as `(name, labels)`, creating it
    /// with the given inclusive upper `bounds` (ascending) on first sight.
    /// An implicit overflow bucket catches values past the last bound.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending, or if the
    /// metric was first registered with different bounds — bucket layouts
    /// are fixed at registration so snapshots from different runs align.
    pub fn histogram(
        &mut self,
        name: &'static str,
        labels: LabelSetId,
        bounds: &[f64],
    ) -> HistogramId {
        assert!(!bounds.is_empty(), "histogram {name:?} needs bounds");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {name:?} bounds must be strictly ascending"
        );
        if let Some(&id) = self.histogram_ids.get(&(name, labels)) {
            assert_eq!(
                self.histograms[id.0 as usize].bounds, bounds,
                "histogram {name:?} re-registered with different bounds"
            );
            return id;
        }
        let id = HistogramId(u32::try_from(self.histograms.len()).expect("too many histograms"));
        self.histograms.push(Histogram {
            name,
            labels,
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        });
        self.histogram_ids.insert((name, labels), id);
        id
    }

    /// Records one observation into a histogram.
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        let h = &mut self.histograms[id.0 as usize];
        let idx = h
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(h.bounds.len());
        h.buckets[idx] += 1;
        h.sum += value;
        h.count += 1;
    }

    fn labels_json(&self, id: LabelSetId) -> JsonValue {
        JsonValue::Object(
            self.label_sets[id.0 as usize]
                .iter()
                .map(|(k, v)| (k.clone(), JsonValue::Str(v.clone())))
                .collect(),
        )
    }

    fn sort_key(&self, name: &str, labels: LabelSetId) -> (String, Vec<(String, String)>) {
        (name.to_owned(), self.label_sets[labels.0 as usize].clone())
    }

    /// Canonical snapshot of every registered metric, sorted by name then
    /// label set: `{"counters":[...],"gauges":[...],"histograms":[...]}`.
    /// Deterministic — two identical runs render byte-identical snapshots.
    pub fn snapshot(&self) -> JsonValue {
        let mut counters: Vec<&Counter> = self.counters.iter().collect();
        counters.sort_by_key(|c| self.sort_key(c.name, c.labels));
        let mut gauges: Vec<&Gauge> = self.gauges.iter().collect();
        gauges.sort_by_key(|g| self.sort_key(g.name, g.labels));
        let mut histograms: Vec<&Histogram> = self.histograms.iter().collect();
        histograms.sort_by_key(|h| self.sort_key(h.name, h.labels));

        object([
            (
                "counters",
                JsonValue::Array(
                    counters
                        .iter()
                        .map(|c| {
                            object([
                                ("name", JsonValue::Str(c.name.to_owned())),
                                ("labels", self.labels_json(c.labels)),
                                ("value", JsonValue::UInt(c.value)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "gauges",
                JsonValue::Array(
                    gauges
                        .iter()
                        .map(|g| {
                            object([
                                ("name", JsonValue::Str(g.name.to_owned())),
                                ("labels", self.labels_json(g.labels)),
                                ("value", JsonValue::Num(g.value)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "histograms",
                JsonValue::Array(
                    histograms
                        .iter()
                        .map(|h| {
                            let buckets = h
                                .bounds
                                .iter()
                                .map(Some)
                                .chain([None])
                                .zip(&h.buckets)
                                .map(|(le, &count)| {
                                    object([
                                        (
                                            "le",
                                            le.map_or(JsonValue::Str("+Inf".to_owned()), |&b| {
                                                JsonValue::Num(b)
                                            }),
                                        ),
                                        ("count", JsonValue::UInt(count)),
                                    ])
                                })
                                .collect();
                            object([
                                ("name", JsonValue::Str(h.name.to_owned())),
                                ("labels", self.labels_json(h.labels)),
                                ("buckets", JsonValue::Array(buckets)),
                                ("sum", JsonValue::Num(h.sum)),
                                ("count", JsonValue::UInt(h.count)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Flat series key for a metric: `name` alone for the empty label set,
    /// `name{k=v,...}` (keys sorted, as interned) otherwise.
    fn series_name(&self, name: &str, labels: LabelSetId) -> String {
        let set = &self.label_sets[labels.0 as usize];
        if set.is_empty() {
            return name.to_owned();
        }
        let pairs: Vec<String> = set.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{name}{{{}}}", pairs.join(","))
    }
}

/// Nearest-rank percentile estimate from fixed histogram buckets: the
/// inclusive upper bound of the bucket holding the rank-th observation,
/// clamped to the last finite bound for the overflow bucket. `None` when
/// the histogram is empty.
fn bucket_percentile(h: &Histogram, p: u64) -> Option<f64> {
    if h.count == 0 {
        return None;
    }
    let rank = nearest_rank(p, h.count);
    let mut cumulative = 0u64;
    for (i, &count) in h.buckets.iter().enumerate() {
        cumulative += count;
        if cumulative >= rank {
            let last = h.bounds.len() - 1;
            return Some(h.bounds[i.min(last)]);
        }
    }
    None
}

/// Default per-series sample cap of the sampling mode: generous enough for
/// any committed scenario (one sample per control interval), bounded so a
/// runaway horizon cannot grow memory without limit.
pub const DEFAULT_SERIES_CAP: usize = 4096;

/// The windowed time-series store behind [`RegistryObserver::with_sampling`].
#[derive(Debug)]
struct Sampler {
    cap: usize,
    series: BTreeMap<String, TimeSeries>,
    /// Counter value at the previous sample, keyed by series name, so each
    /// sample records the per-window delta.
    last_counters: BTreeMap<String, u64>,
    dropped: u64,
}

impl Sampler {
    fn new(cap: usize) -> Self {
        assert!(cap > 0, "series sampler needs capacity > 0");
        Sampler {
            cap,
            series: BTreeMap::new(),
            last_counters: BTreeMap::new(),
            dropped: 0,
        }
    }

    fn push(&mut self, name: &str, at: SimTime, value: f64) {
        let s = self
            .series
            .entry(name.to_owned())
            .or_insert_with(|| TimeSeries::new(name));
        if s.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        s.record(at, value);
    }

    /// Takes one sample of the whole registry at sim time `at`.
    fn sample(&mut self, at: SimTime, reg: &Registry) {
        for c in &reg.counters {
            let name = reg.series_name(c.name, c.labels);
            let last = self.last_counters.get(&name).copied().unwrap_or(0);
            self.last_counters.insert(name.clone(), c.value);
            self.push(&name, at, (c.value - last) as f64);
        }
        for g in &reg.gauges {
            let name = reg.series_name(g.name, g.labels);
            self.push(&name, at, g.value);
        }
        for h in &reg.histograms {
            let base = reg.series_name(h.name, h.labels);
            for p in [50u64, 95, 99] {
                if let Some(v) = bucket_percentile(h, p) {
                    self.push(&format!("{base}:p{p}"), at, v);
                }
            }
        }
    }

    fn snapshot(&self) -> SeriesSnapshot {
        SeriesSnapshot {
            dropped: self.dropped,
            series: self.series.values().cloned().collect(),
        }
    }
}

/// The telemetry time-series of one sampled run: every registry series,
/// sorted by name, plus the count of samples dropped to the per-series
/// capacity bound. Canonical JSON via [`SeriesSnapshot::render`], inverse
/// [`SeriesSnapshot::parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Samples discarded because a series hit the capacity bound.
    pub dropped: u64,
    /// One series per sampled metric (counters as windowed deltas, gauges
    /// as instantaneous values, histograms as `:p50`/`:p95`/`:p99` points),
    /// sorted by series name.
    pub series: Vec<TimeSeries>,
}

impl SeriesSnapshot {
    /// Canonical JSON: `{"dropped":N,"series":[{"name":...,"samples":[[ms,v],...]},...]}`.
    pub fn to_json(&self) -> JsonValue {
        object([
            ("dropped", JsonValue::UInt(self.dropped)),
            (
                "series",
                JsonValue::Array(self.series.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }

    /// Renders the canonical JSON document.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Parses a document produced by [`SeriesSnapshot::render`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field.
    pub fn parse(text: &str) -> Result<SeriesSnapshot, String> {
        let doc = JsonValue::parse(text)?;
        let dropped = doc
            .get("dropped")
            .and_then(JsonValue::as_u64)
            .ok_or("missing or mistyped \"dropped\"")?;
        let Some(JsonValue::Array(items)) = doc.get("series") else {
            return Err("missing or mistyped \"series\"".to_owned());
        };
        let mut series = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let ctx = |m: &str| format!("series {i}: {m}");
            let name = item
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| ctx("missing or mistyped \"name\""))?;
            let Some(JsonValue::Array(samples)) = item.get("samples") else {
                return Err(ctx("missing or mistyped \"samples\""));
            };
            let mut ts = TimeSeries::new(name);
            for s in samples {
                let JsonValue::Array(pair) = s else {
                    return Err(ctx("sample is not a [millis,value] pair"));
                };
                let (Some(at), Some(v)) = (
                    pair.first().and_then(JsonValue::as_u64),
                    pair.get(1).and_then(JsonValue::as_f64),
                ) else {
                    return Err(ctx("sample is not a [millis,value] pair"));
                };
                ts.record(SimTime::from_millis(at), v);
            }
            series.push(ts);
        }
        Ok(SeriesSnapshot { dropped, series })
    }

    /// Looks up a series by exact name.
    pub fn get(&self, name: &str) -> Option<&TimeSeries> {
        self.series.iter().find(|s| s.name() == name)
    }

    /// A copy with every series cut at `until` (samples after it removed):
    /// the postmortem slice of the telemetry up to a breach.
    pub fn sliced_until(&self, until: SimTime) -> SeriesSnapshot {
        SeriesSnapshot {
            dropped: self.dropped,
            series: self.series.iter().map(|s| s.sliced_until(until)).collect(),
        }
    }
}

/// Queue-depth histogram bounds (pending tasks at each heartbeat drain).
const QUEUE_DEPTH_BOUNDS: [f64; 8] = [0.0, 8.0, 32.0, 128.0, 512.0, 2048.0, 8192.0, 32768.0];
/// Task-duration histogram bounds, in seconds.
const DURATION_BOUNDS: [f64; 9] = [5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0];
/// Candidate-set-size histogram bounds (per assignment decision).
const CANDIDATES_BOUNDS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// An [`Observer`] folding the typed event stream into a [`Registry`].
///
/// Populates, per event kind, an `events_total{type=...}` counter; per
/// machine, `tasks_started_total` / `task_failures_total`; cluster-wide
/// task-duration and queue-depth histograms, the fleet energy gauge, and —
/// when decision tracing is on — `assignment_decisions_total{kind=...}`
/// plus a candidate-set-size histogram.
///
/// Each metric is registered on the first event that touches it, so a
/// snapshot lists only the metrics the stream produced; later events reach
/// it through the cached handle.
#[derive(Debug, Default)]
pub struct RegistryObserver {
    registry: Registry,
    handles: Handles,
    started: AttemptStarts,
    /// Telemetry sampling mode; `None` keeps the observer snapshot-only.
    sampler: Option<Sampler>,
}

/// Metric handles resolved on first sight, in dense tables: per event
/// kind ([`SimEvent::kind_index`]), per machine index, per slot kind
/// (`SlotKind as usize`) and per completion outcome.
#[derive(Debug, Default)]
struct Handles {
    events: [Option<CounterId>; SimEvent::KINDS.len()],
    tasks_started: Vec<Option<CounterId>>,
    task_failures: Vec<Option<CounterId>>,
    machine_failures: Vec<Option<CounterId>>,
    /// `[kind][won]` for `tasks_completed_total`.
    tasks_completed: [[Option<CounterId>; 2]; 2],
    task_duration: [Option<HistogramId>; 2],
    decisions: [Option<CounterId>; 2],
    queue_depth: Option<HistogramId>,
    decision_candidates: Option<HistogramId>,
    energy: Option<GaugeId>,
    total_tasks: Option<GaugeId>,
}

/// Start time of each in-flight attempt, for duration observations: per
/// machine, the `(task, started)` pairs of the attempts running there, at
/// most one per busy slot. Order within a list carries no meaning.
#[derive(Debug, Default)]
struct AttemptStarts(Vec<Vec<(TaskId, SimTime)>>);

impl AttemptStarts {
    /// Records that `task` started on `machine` at `at`, replacing the
    /// start of an earlier attempt of the same task there.
    fn start(&mut self, task: TaskId, machine: MachineId, at: SimTime) {
        let m = machine.index();
        if self.0.len() <= m {
            self.0.resize_with(m + 1, Vec::new);
        }
        let running = &mut self.0[m];
        match running.iter_mut().find(|(t, _)| *t == task) {
            Some(entry) => entry.1 = at,
            None => running.push((task, at)),
        }
    }

    /// Forgets the attempt of `task` on `machine`, returning its start.
    fn take(&mut self, task: TaskId, machine: MachineId) -> Option<SimTime> {
        let running = self.0.get_mut(machine.index())?;
        let i = running.iter().position(|(t, _)| *t == task)?;
        Some(running.swap_remove(i).1)
    }
}

/// The handle in `slot`, resolving (and so registering) it on first use.
fn cached<T: Copy>(slot: &mut Option<T>, resolve: impl FnOnce() -> T) -> T {
    *slot.get_or_insert_with(resolve)
}

/// The per-machine `name{machine=<index>}` counter, registered on the
/// machine's first use.
fn machine_counter(
    registry: &mut Registry,
    table: &mut Vec<Option<CounterId>>,
    name: &'static str,
    machine: MachineId,
) -> CounterId {
    let m = machine.index();
    if table.len() <= m {
        table.resize(m + 1, None);
    }
    cached(&mut table[m], || {
        let labels = registry.label_set(&[("machine", &m.to_string())]);
        registry.counter(name, labels)
    })
}

impl RegistryObserver {
    /// Creates an observer over a fresh registry.
    pub fn new() -> Self {
        RegistryObserver::default()
    }

    /// Creates an observer with telemetry sampling on (the
    /// [sampling mode](self#sampling-mode)), bounded at
    /// [`DEFAULT_SERIES_CAP`] samples per series.
    pub fn with_sampling() -> Self {
        RegistryObserver::with_sampling_capacity(DEFAULT_SERIES_CAP)
    }

    /// Sampling mode with an explicit per-series sample cap.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_sampling_capacity(cap: usize) -> Self {
        RegistryObserver {
            sampler: Some(Sampler::new(cap)),
            ..RegistryObserver::new()
        }
    }

    /// The populated registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The sampled telemetry time-series, or `None` when sampling is off.
    pub fn series_snapshot(&self) -> Option<SeriesSnapshot> {
        self.sampler.as_ref().map(Sampler::snapshot)
    }

    /// Consumes the observer, returning the registry.
    pub fn into_registry(self) -> Registry {
        self.registry
    }
}

impl Observer<SimEvent> for RegistryObserver {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        let RegistryObserver {
            registry: reg,
            handles: h,
            started,
            sampler,
        } = self;
        let kind = event.kind_index();
        let id = cached(&mut h.events[kind], || {
            let labels = reg.label_set(&[("type", SimEvent::KINDS[kind])]);
            reg.counter("events_total", labels)
        });
        reg.inc(id, 1);
        match event {
            SimEvent::TaskStarted { task, machine, .. } => {
                let id =
                    machine_counter(reg, &mut h.tasks_started, "tasks_started_total", *machine);
                reg.inc(id, 1);
                started.start(*task, *machine, at);
            }
            SimEvent::TaskCompleted {
                task, machine, won, ..
            } => {
                let kind = task.task.kind;
                let slot = &mut h.tasks_completed[kind as usize][usize::from(*won)];
                let id = cached(slot, || {
                    let outcome = if *won { "won" } else { "lost" };
                    let labels = reg.label_set(&[("kind", kind.as_str()), ("outcome", outcome)]);
                    reg.counter("tasks_completed_total", labels)
                });
                reg.inc(id, 1);
                if let Some(start) = started.take(*task, *machine) {
                    let id = cached(&mut h.task_duration[kind as usize], || {
                        let labels = reg.label_set(&[("kind", kind.as_str())]);
                        reg.histogram("task_duration_seconds", labels, &DURATION_BOUNDS)
                    });
                    reg.observe(id, (at - start).as_secs_f64());
                }
            }
            SimEvent::TaskFailed { task, machine, .. } => {
                let id =
                    machine_counter(reg, &mut h.task_failures, "task_failures_total", *machine);
                reg.inc(id, 1);
                started.take(*task, *machine);
            }
            SimEvent::HeartbeatDrained { pending_total, .. } => {
                let id = cached(&mut h.queue_depth, || {
                    let labels = reg.label_set(&[]);
                    reg.histogram("queue_depth", labels, &QUEUE_DEPTH_BOUNDS)
                });
                reg.observe(id, *pending_total as f64);
            }
            SimEvent::ControlIntervalFired {
                cumulative_energy_joules,
                ..
            } => {
                let id = cached(&mut h.energy, || {
                    let labels = reg.label_set(&[]);
                    reg.gauge("cumulative_energy_joules", labels)
                });
                reg.set(id, *cumulative_energy_joules);
            }
            SimEvent::AssignmentDecision {
                kind, candidates, ..
            } => {
                let id = cached(&mut h.decisions[*kind as usize], || {
                    let labels = reg.label_set(&[("kind", kind.as_str())]);
                    reg.counter("assignment_decisions_total", labels)
                });
                reg.inc(id, 1);
                let id = cached(&mut h.decision_candidates, || {
                    let labels = reg.label_set(&[]);
                    reg.histogram("decision_candidates", labels, &CANDIDATES_BOUNDS)
                });
                reg.observe(id, candidates.len() as f64);
            }
            SimEvent::MachineFailed { machine, .. } => {
                let name = "machine_failures_total";
                let id = machine_counter(reg, &mut h.machine_failures, name, *machine);
                reg.inc(id, 1);
            }
            SimEvent::RunFinished {
                total_energy_joules,
                total_tasks,
                ..
            } => {
                let energy = cached(&mut h.energy, || {
                    let labels = reg.label_set(&[]);
                    reg.gauge("cumulative_energy_joules", labels)
                });
                reg.set(energy, *total_energy_joules);
                let tasks = cached(&mut h.total_tasks, || {
                    let labels = reg.label_set(&[]);
                    reg.gauge("total_tasks", labels)
                });
                reg.set(tasks, *total_tasks as f64);
            }
            _ => {}
        }
        // Sample *after* folding, so the window closing at this control
        // tick (or at the run footer) includes the tick's own updates.
        if matches!(
            event,
            SimEvent::ControlIntervalFired { .. } | SimEvent::RunFinished { .. }
        ) {
            if let Some(sampler) = sampler {
                sampler.sample(at, reg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::SlotKind;
    use workload::{JobId, TaskIndex};

    #[test]
    fn label_sets_intern_like_group_ids() {
        let mut reg = Registry::new();
        let a = reg.label_set(&[("kind", "map"), ("machine", "3")]);
        let b = reg.label_set(&[("machine", "3"), ("kind", "map")]);
        let c = reg.label_set(&[("machine", "4"), ("kind", "map")]);
        assert_eq!(a, b, "order-insensitive interning");
        assert_ne!(a, c);
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let mut reg = Registry::new();
        let l = reg.label_set(&[]);
        let c = reg.counter("hits", l);
        reg.inc(c, 2);
        let c2 = reg.counter("hits", l);
        assert_eq!(c, c2, "registration is idempotent");
        reg.inc(c2, 3);
        let g = reg.gauge("temp", l);
        reg.set(g, 1.5);
        let snap = reg.snapshot().render();
        assert!(
            snap.contains(r#""name":"hits","labels":{},"value":5"#),
            "{snap}"
        );
        assert!(
            snap.contains(r#""name":"temp","labels":{},"value":1.5"#),
            "{snap}"
        );
    }

    #[test]
    fn histograms_bucket_inclusively_with_overflow() {
        let mut reg = Registry::new();
        let l = reg.label_set(&[]);
        let h = reg.histogram("lat", l, &[1.0, 10.0]);
        for v in [0.5, 1.0, 5.0, 100.0] {
            reg.observe(h, v);
        }
        let snap = reg.snapshot();
        let hist = snap.get("histograms").unwrap();
        let JsonValue::Array(items) = hist else {
            panic!("histograms not an array")
        };
        let rendered = items[0].render();
        // 0.5 and 1.0 land in le=1, 5.0 in le=10, 100.0 overflows.
        assert!(rendered.contains(r#"{"le":1,"count":2}"#), "{rendered}");
        assert!(rendered.contains(r#"{"le":10,"count":1}"#), "{rendered}");
        assert!(
            rendered.contains(r#"{"le":"+Inf","count":1}"#),
            "{rendered}"
        );
        assert!(rendered.contains(r#""count":4"#), "{rendered}");
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn bound_changes_are_rejected() {
        let mut reg = Registry::new();
        let l = reg.label_set(&[]);
        reg.histogram("lat", l, &[1.0, 10.0]);
        reg.histogram("lat", l, &[2.0, 20.0]);
    }

    #[test]
    fn snapshot_round_trips_through_json_parse() {
        let mut obs = RegistryObserver::new();
        let task = TaskId {
            job: JobId(0),
            task: TaskIndex {
                kind: SlotKind::Map,
                index: 1,
            },
        };
        obs.on_event(
            SimTime::from_secs(1),
            &SimEvent::TaskStarted {
                task,
                machine: MachineId(2),
                speculative: false,
            },
        );
        obs.on_event(
            SimTime::from_secs(31),
            &SimEvent::TaskCompleted {
                task,
                machine: MachineId(2),
                won: true,
                straggled: false,
                speculative: false,
            },
        );
        obs.on_event(
            SimTime::from_secs(32),
            &SimEvent::HeartbeatDrained {
                machine: MachineId(2),
                free_map: 1,
                free_reduce: 1,
                pending_total: 40,
            },
        );
        let snap = obs.registry().snapshot();
        let text = snap.render();
        // Integral floats render as integers and reparse as `UInt`, so the
        // canonical round-trip property is byte-stable re-rendering, not
        // structural identity.
        let reparsed = JsonValue::parse(&text).expect("snapshot is valid JSON");
        assert_eq!(reparsed.render(), text, "re-render must be byte-identical");
        let counters = reparsed.get("counters").expect("counters section");
        let JsonValue::Array(items) = counters else {
            panic!("counters not an array")
        };
        assert_eq!(items.len(), 5, "{text}");
    }

    fn tick(index: u64, joules: f64) -> SimEvent {
        SimEvent::ControlIntervalFired {
            index,
            cumulative_energy_joules: joules,
        }
    }

    #[test]
    fn sampling_records_counter_deltas_and_gauge_values() {
        let mut obs = RegistryObserver::with_sampling();
        obs.on_event(
            SimTime::from_secs(1),
            &SimEvent::JobCompleted { job: JobId(0) },
        );
        obs.on_event(SimTime::from_secs(300), &tick(0, 100.0));
        obs.on_event(
            SimTime::from_secs(301),
            &SimEvent::JobCompleted { job: JobId(1) },
        );
        obs.on_event(
            SimTime::from_secs(302),
            &SimEvent::JobCompleted { job: JobId(2) },
        );
        obs.on_event(SimTime::from_secs(600), &tick(1, 250.0));

        let snap = obs.series_snapshot().expect("sampling is on");
        let completed = snap
            .get("events_total{type=job_completed}")
            .expect("job_completed series");
        let samples: Vec<_> = completed.iter().collect();
        assert_eq!(
            samples,
            vec![
                (SimTime::from_secs(300), 1.0),
                (SimTime::from_secs(600), 2.0)
            ],
            "counter samples must be per-window deltas"
        );
        let energy = snap
            .get("cumulative_energy_joules")
            .expect("energy gauge series");
        assert_eq!(energy.last_value(), Some(250.0));
        // The tick counter saw itself: first window 1 tick, second 1 tick.
        let ticks = snap
            .get("events_total{type=control_interval_fired}")
            .expect("tick series");
        let deltas: Vec<f64> = ticks.iter().map(|(_, v)| v).collect();
        assert_eq!(deltas, vec![1.0, 1.0]);
    }

    #[test]
    fn sampling_emits_histogram_percentile_points() {
        let mut obs = RegistryObserver::with_sampling();
        for depth in [1u64, 10, 200] {
            obs.on_event(
                SimTime::from_secs(depth),
                &SimEvent::HeartbeatDrained {
                    machine: MachineId(0),
                    free_map: 0,
                    free_reduce: 0,
                    pending_total: depth,
                },
            );
        }
        obs.on_event(SimTime::from_secs(300), &tick(0, 1.0));
        let snap = obs.series_snapshot().unwrap();
        // 3 observations in buckets le=8, le=32, le=512: p50 → 32, p99 → 512.
        assert_eq!(
            snap.get("queue_depth:p50").and_then(TimeSeries::last_value),
            Some(32.0)
        );
        assert_eq!(
            snap.get("queue_depth:p99").and_then(TimeSeries::last_value),
            Some(512.0)
        );
    }

    #[test]
    fn sampling_cap_drops_and_counts() {
        let mut obs = RegistryObserver::with_sampling_capacity(2);
        for i in 0..4u64 {
            obs.on_event(SimTime::from_secs(i * 300), &tick(i, i as f64));
        }
        let snap = obs.series_snapshot().unwrap();
        assert!(snap.dropped > 0, "cap must count dropped samples");
        for s in &snap.series {
            assert!(s.len() <= 2, "series {} over cap", s.name());
        }
    }

    #[test]
    fn series_snapshot_round_trips_and_slices() {
        let mut obs = RegistryObserver::with_sampling();
        obs.on_event(
            SimTime::from_secs(1),
            &SimEvent::JobCompleted { job: JobId(0) },
        );
        obs.on_event(SimTime::from_secs(300), &tick(0, 12.5));
        obs.on_event(SimTime::from_secs(600), &tick(1, 80.0));
        let snap = obs.series_snapshot().unwrap();
        let text = snap.render();
        let reparsed = SeriesSnapshot::parse(&text).expect("valid series JSON");
        assert_eq!(reparsed.render(), text, "byte-stable re-render");

        let cut = snap.sliced_until(SimTime::from_secs(300));
        for s in &cut.series {
            assert!(
                s.iter().all(|(t, _)| t <= SimTime::from_secs(300)),
                "series {} leaked past the slice",
                s.name()
            );
        }
        assert_eq!(
            cut.get("cumulative_energy_joules").unwrap().last_value(),
            Some(12.5)
        );
    }

    #[test]
    fn snapshot_only_observer_has_no_series() {
        let mut obs = RegistryObserver::new();
        obs.on_event(SimTime::from_secs(300), &tick(0, 1.0));
        assert!(obs.series_snapshot().is_none());
    }
}

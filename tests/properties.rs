//! Property-based tests over the core data structures and cross-crate
//! invariants, driven by in-repo [`SimRng`] generators.
//!
//! The workspace builds hermetically (no registry access), so instead of
//! `proptest` each property runs a fixed number of generated cases from a
//! deterministic seed tree: case `i` of property `p` draws from
//! `SimRng::seed_from(PROPERTY_SEED).fork_index(p, i)`. Failures therefore
//! reproduce exactly — the panic message names the property and case index,
//! and re-running the test replays the identical inputs.

use std::collections::BTreeMap;

use cluster::hdfs::BlockPlacer;
use cluster::{profiles, Fleet, MachineId, SlotKind};
use eant::{
    heuristic, EAntConfig, EAntScheduler, EnergyModel, ExchangeStrategy, PheromoneTable,
    TaskAnalyzer, TaskEnergyRecord,
};
use hadoop_sim::{
    Engine, EngineConfig, FixedQuery, GreedyScheduler, JobEntry, NoiseConfig, PowerDownConfig,
    Scheduler, SpeculationPolicy, TaskReport, UtilizationSample,
};
use simcore::{EventQueue, SimRng, SimTime};
use workload::{Benchmark, BenchmarkKind, GroupId, JobId, JobSpec, TaskId, TaskIndex};

/// Root seed of every property's case tree. Changing it reshuffles all
/// generated inputs at once.
const PROPERTY_SEED: u64 = 0xE0A7;

/// Runs `cases` generated cases of a property, replaying deterministically
/// and naming the failing case.
fn check(name: &str, cases: usize, case: impl Fn(&mut SimRng)) {
    for i in 0..cases {
        let mut rng = SimRng::seed_from(PROPERTY_SEED).fork_index(name, i);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut rng)));
        if let Err(payload) = outcome {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            panic!("property `{name}` failed on case {i}/{cases}: {msg}");
        }
    }
}

fn f64_vec(rng: &mut SimRng, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| rng.uniform_range(lo, hi)).collect()
}

/// Pheromone values stay within [tau_min, tau_max] for any deposit
/// pattern, with or without negative feedback.
#[test]
fn pheromone_bounds_hold() {
    check("pheromone_bounds_hold", 256, |rng| {
        let jobs = rng.uniform_u64(1, 5) as usize;
        let deposits: Vec<Vec<f64>> = (0..jobs).map(|_| f64_vec(rng, 4, -1.0e6, 1.0e6)).collect();
        let rho = rng.uniform_range(0.01, 1.0);
        let negative = rng.chance(0.5);
        let mut table = PheromoneTable::new(4, 1.0, 0.05, 100.0);
        let map: BTreeMap<JobId, Vec<f64>> = deposits
            .into_iter()
            .enumerate()
            .map(|(i, d)| (JobId(i as u64), d))
            .collect();
        table.apply_deposits(&map, rho, negative);
        for &job in map.keys() {
            for m in 0..4 {
                let tau = table.get(job, MachineId(m));
                assert!((0.05..=100.0).contains(&tau), "tau = {tau}");
            }
        }
    });
}

/// Eq. 3 probabilities always form a distribution.
#[test]
fn pheromone_probabilities_sum_to_one() {
    check("pheromone_probabilities_sum_to_one", 256, |rng| {
        let deposits = f64_vec(rng, 8, 0.0, 1.0e4);
        let rho = rng.uniform_range(0.01, 1.0);
        let mut table = PheromoneTable::new(8, 1.0, 0.05, 1.0e4);
        let mut map = BTreeMap::new();
        map.insert(JobId(0), deposits);
        table.apply_deposits(&map, rho, true);
        let p = table.probabilities(JobId(0));
        let total: f64 = p.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
        assert!(p.iter().all(|&x| x > 0.0));
    });
}

/// The dense, index-addressed [`PheromoneTable`] answers every query
/// bit-for-bit like the `BTreeMap`-keyed table it replaced, under random
/// sequences of row creation, release, deposits and (per-machine)
/// evaporation.
#[test]
fn dense_pheromone_table_matches_map_oracle() {
    const TAU: (f64, f64, f64) = (1.0, 0.05, 100.0);
    check("dense_pheromone_table_matches_map_oracle", 128, |rng| {
        let machines = rng.uniform_u64(1, 6) as usize;
        let ids = rng.uniform_u64(1, 12);
        let mut table = PheromoneTable::new(machines, TAU.0, TAU.1, TAU.2);
        // The oracle: rows keyed by job, each Eq. 3 query re-summing its row.
        let mut oracle: BTreeMap<JobId, Vec<f64>> = BTreeMap::new();
        for _ in 0..rng.uniform_u64(1, 60) {
            let job = JobId(rng.uniform_u64(0, ids - 1));
            let rho = rng.uniform_range(0.01, 1.0);
            match rng.uniform_u64(0, 4) {
                0 => {
                    table.ensure_job(job);
                    oracle.entry(job).or_insert_with(|| vec![TAU.0; machines]);
                }
                1 => {
                    table.remove_job(job);
                    oracle.remove(&job);
                }
                2 => {
                    let deposits: BTreeMap<JobId, Vec<f64>> = (0..rng.uniform_u64(0, 3))
                        .map(|_| {
                            let j = JobId(rng.uniform_u64(0, ids - 1));
                            (j, f64_vec(rng, machines, -50.0, 200.0))
                        })
                        .collect();
                    let negative = rng.chance(0.5);
                    table.apply_deposits(&deposits, rho, negative);
                    for &j in deposits.keys() {
                        oracle.entry(j).or_insert_with(|| vec![TAU.0; machines]);
                    }
                    let mut totals = vec![0.0; machines];
                    let mut depositors = vec![0u32; machines];
                    for d in deposits.values().filter(|_| negative) {
                        for (m, &v) in d.iter().enumerate() {
                            totals[m] += v;
                            depositors[m] += u32::from(v > 0.0);
                        }
                    }
                    let zero = vec![0.0; machines];
                    for (j, row) in &mut oracle {
                        let own = deposits.get(j).unwrap_or(&zero);
                        for (m, tau) in row.iter_mut().enumerate() {
                            let others = depositors[m].saturating_sub(u32::from(own[m] > 0.0));
                            let foreign = if others > 0 {
                                (totals[m] - own[m]) / others as f64
                            } else {
                                0.0
                            };
                            *tau =
                                ((1.0 - rho) * *tau + rho * (own[m] - foreign)).clamp(TAU.1, TAU.2);
                        }
                    }
                }
                3 => {
                    table.evaporate(rho);
                    for tau in oracle.values_mut().flatten() {
                        *tau = ((1.0 - rho) * *tau).max(TAU.1);
                    }
                }
                _ => {
                    // Up to one past the last machine: out of range is a no-op.
                    let m = rng.uniform_u64(0, machines as u64) as usize;
                    table.evaporate_machine(MachineId(m), rho);
                    for tau in oracle.values_mut().filter_map(|row| row.get_mut(m)) {
                        *tau = ((1.0 - rho) * *tau).max(TAU.1);
                    }
                }
            }
            assert_eq!(table.jobs(), oracle.len());
            for job in (0..=ids).map(JobId) {
                let row = oracle.get(&job);
                assert_eq!(table.row(job), row.map(Vec::as_slice));
                let probabilities = table.probabilities(job);
                assert_eq!(probabilities.len(), machines);
                for (m, p) in probabilities.into_iter().enumerate() {
                    let want = row.map_or(1.0 / machines as f64, |r| r[m] / r.iter().sum::<f64>());
                    assert_eq!(p.to_bits(), want.to_bits(), "{job} m{m}: {p} vs {want}");
                    assert_eq!(
                        table.probability(job, MachineId(m)).to_bits(),
                        want.to_bits()
                    );
                }
            }
        }
        // Equality sees the live rows only, not which ids once held one.
        let mut rebuilt = PheromoneTable::new(machines, TAU.0, TAU.1, TAU.2);
        oracle.keys().for_each(|&j| rebuilt.ensure_job(j));
        table.evaporate(1.0);
        rebuilt.evaporate(1.0);
        assert_eq!(table, rebuilt);
    });
}

/// E-Ant's decision core weighs every candidate bit-for-bit like the
/// per-candidate Eq. 8 formula it replaced (`P(j, m) · weight_factor` after
/// the share cap, or over everyone when all are over the cap) and draws the
/// same job from the same RNG state, traced or not. Cases cover β = 0,
/// all candidates over the cap, occupancies past the pool (the η^β memo's
/// range), node-local mixes, reduce slots and deposit-shaped pheromone rows.
#[test]
fn eant_decision_weights_match_reference_formula() {
    let (fallbacks, past_pool) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
    check("eant_decision_weights_match_reference_formula", 96, |rng| {
        let fleet = Fleet::paper_evaluation();
        let pool = fleet.total_slots();
        let config = EAntConfig {
            beta: if rng.chance(0.25) {
                0.0
            } else {
                rng.uniform_range(0.05, 0.6)
            },
            local_boost: rng.uniform_range(1.0, 2000.0),
            ..EAntConfig::paper_default()
        };
        let seed = rng.next_u64();
        let mut scheduler = EAntScheduler::new(config, seed);
        let mut reference = SimRng::seed_from(seed).fork("eant");
        let jobs = rng.uniform_u64(1, 30);
        for step in 0..rng.uniform_u64(1, 12) {
            // Occupancies move every step; a `huge` step puts every job far
            // past the pool and any share cap.
            let huge = if rng.chance(0.2) { 40 * pool as u32 } else { 0 };
            let mut query = FixedQuery::paper((0..jobs).map(|id| {
                let occupied = huge + rng.uniform_u64(0, 2 * pool as u64) as u32;
                let pending_maps = rng.uniform_u64(0, 3) as u32;
                let pending_reduces = rng.uniform_u64(0, 2) as u32;
                JobEntry {
                    group: GroupId(id as u32),
                    pending_reduces,
                    total_tasks: pending_maps + pending_reduces + occupied,
                    submitted: rng.chance(0.9),
                    ..FixedQuery::entry(id, pending_maps, occupied)
                }
            }));
            for job in (0..jobs).map(JobId) {
                let local = fleet.ids().filter(|_| rng.chance(0.1));
                query.node_local.extend(local.map(|m| (job, m)));
            }
            if step % 3 == 2 {
                // One interval of energy feedback shapes the pheromone rows.
                for (index, machine) in fleet.ids().enumerate() {
                    let job = JobId(rng.uniform_u64(0, jobs - 1));
                    let secs = rng.uniform_u64(5, 60);
                    let kind = SlotKind::Map;
                    let report = TaskReport {
                        task: TaskId {
                            job,
                            task: TaskIndex {
                                kind,
                                index: index as u32,
                            },
                        },
                        machine,
                        kind,
                        group: query.state.job(job).group,
                        started_at: SimTime::ZERO,
                        finished_at: SimTime::from_secs(secs),
                        locality: None,
                        samples: vec![UtilizationSample {
                            dt_secs: secs as f64,
                            utilization: rng.uniform_range(0.05, 1.0),
                        }],
                        shuffle_secs: 0.0,
                        true_energy_joules: 0.0,
                        straggled: false,
                        speculative: false,
                    };
                    scheduler.on_task_completed(&query, &report);
                }
                scheduler.on_control_interval(&query);
            }
            for _ in 0..rng.uniform_u64(1, 6) {
                let machine = MachineId(rng.uniform_u64(0, fleet.len() as u64 - 1) as usize);
                let kind = [SlotKind::Map, SlotKind::Reduce][usize::from(rng.chance(0.3))];
                // The pre-rewrite decision, transcribed per candidate.
                let state = &query.state;
                let min_share = pool as f64 / state.num_active().max(1) as f64;
                let cap = (config.effective_share_cap() * min_share).ceil();
                let all: Vec<&JobEntry> = state.candidates(kind).collect();
                let under: Vec<&JobEntry> = (all.iter().copied())
                    .filter(|c| (c.slots_occupied as f64) < cap)
                    .collect();
                fallbacks.set(fallbacks.get() + u32::from(under.is_empty() && !all.is_empty()));
                let candidates = if under.is_empty() { all } else { under };
                let past = candidates.iter().any(|c| c.slots_occupied as usize > pool);
                past_pool.set(past_pool.get() + u32::from(past));
                let weights: Vec<f64> = (candidates.iter())
                    .map(|c| {
                        let p_row = (scheduler.pheromone_table())
                            .map_or(1.0 / fleet.len() as f64, |t| t.probability(c.id, machine));
                        let local =
                            kind == SlotKind::Map && query.node_local.contains(&(c.id, machine));
                        let (beta, boost) = (config.beta, config.local_boost);
                        let occupied = c.slots_occupied;
                        p_row
                            * heuristic::weight_factor(
                                local, min_share, occupied, pool, beta, boost,
                            )
                    })
                    .collect();
                let want = reference.weighted_index(&weights).map(|i| candidates[i].id);
                if rng.chance(0.5) {
                    assert_eq!(scheduler.select_job(&query, machine, kind), want);
                    continue;
                }
                let (got, explained) = scheduler.select_job_traced(&query, machine, kind);
                assert_eq!(got, want, "traced pick");
                assert_eq!(explained.len(), candidates.len());
                let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
                for ((e, c), &w) in explained.iter().zip(&candidates).zip(&weights) {
                    let eta = e.eta_fairness.unwrap() * e.eta_locality.unwrap();
                    let rebuilt = e.tau.unwrap() * eta;
                    assert_eq!(e.job, c.id);
                    assert_eq!(rebuilt.to_bits(), w.to_bits(), "{}: {rebuilt} vs {w}", c.id);
                    assert_eq!(e.probability.to_bits(), (w / total).to_bits());
                }
            }
        }
    });
    assert!(
        fallbacks.get() > 0,
        "no case put every candidate over the cap"
    );
    assert!(
        past_pool.get() > 0,
        "no case weighed an occupancy past the pool"
    );
}

/// Events always pop in nondecreasing time order.
#[test]
fn event_queue_is_monotone() {
    check("event_queue_is_monotone", 256, |rng| {
        let n = rng.uniform_u64(1, 99) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.uniform_u64(0, 999_999)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last);
            last = at;
        }
    });
}

/// The calendar-wheel [`EventQueue`] pops the exact sequence the reference
/// `BinaryHeap` future-event list would, for random interleavings of
/// schedules and pops — including same-timestamp ties (FIFO stability),
/// schedule-at-now reactions, and far-future events that cross the wheel's
/// overflow horizon in both directions.
#[test]
fn calendar_queue_matches_heap_oracle() {
    /// The pre-calendar implementation, kept as the ordering oracle:
    /// a min-heap on (timestamp, global insertion sequence).
    #[derive(Default)]
    struct HeapOracle {
        heap: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64, usize)>>,
        seq: u64,
    }
    impl HeapOracle {
        fn schedule(&mut self, at: SimTime, event: usize) {
            self.heap.push(std::cmp::Reverse((at, self.seq, event)));
            self.seq += 1;
        }
        fn pop(&mut self) -> Option<(SimTime, usize)> {
            let std::cmp::Reverse((at, _, event)) = self.heap.pop()?;
            Some((at, event))
        }
    }

    check("calendar_queue_matches_heap_oracle", 128, |rng| {
        let mut q = EventQueue::new();
        let mut oracle = HeapOracle::default();
        let mut now = SimTime::ZERO;
        let ops = rng.uniform_u64(1, 400) as usize;
        for i in 0..ops {
            if rng.chance(0.6) || q.is_empty() {
                // Mix near-future (wheel), same-instant (fires now) and
                // far-future (overflow heap) timestamps; never earlier
                // than `now`, which the queue's contract forbids.
                let offset = if rng.chance(0.05) {
                    0
                } else if rng.chance(0.15) {
                    rng.uniform_u64(600_000, 7_200_000) // beyond the wheel horizon
                } else {
                    rng.uniform_u64(0, 30_000)
                };
                let at = now + simcore::SimDuration::from_millis(offset);
                q.schedule(at, i);
                oracle.schedule(at, i);
            } else {
                let got = q.pop();
                let want = oracle.pop();
                assert_eq!(got, want, "pop {i} diverged from the heap oracle");
                if let Some((at, _)) = got {
                    now = at;
                }
            }
            assert_eq!(q.len(), oracle.heap.len());
        }
        let mut drained = 0u32;
        loop {
            let got = q.pop();
            let want = oracle.pop();
            assert_eq!(got, want, "drain pop {drained} diverged from the oracle");
            if got.is_none() {
                break;
            }
            drained += 1;
        }
    });
}

/// The dense [`TaskArena`] behaves exactly like the per-task `BTreeMap`
/// registries it replaced — attempt slices in launch order, liveness,
/// failure counters and id-ordered in-flight iteration — under random
/// interleavings of attempt starts, single completions, failure bumps and
/// crash-style bulk removals of every attempt on one machine (the
/// `declare_dead` path).
#[test]
fn arena_task_state_matches_per_task_oracle() {
    use cluster::SlotKind;
    use hadoop_sim::{TaskArena, MAX_ATTEMPTS};
    use workload::{TaskId, TaskIndex};

    check("arena_task_state_matches_per_task_oracle", 128, |rng| {
        let jobs = rng.uniform_u64(1, 6) as usize;
        let mut arena = TaskArena::new(true);
        let mut tasks: Vec<TaskId> = Vec::new();
        for j in 0..jobs {
            let maps = rng.uniform_u64(1, 8) as u32;
            let reduces = rng.uniform_u64(0, 4) as u32;
            arena.register_job(maps, reduces);
            for index in 0..maps {
                tasks.push(TaskId {
                    job: JobId(j as u64),
                    task: TaskIndex {
                        kind: SlotKind::Map,
                        index,
                    },
                });
            }
            for index in 0..reduces {
                tasks.push(TaskId {
                    job: JobId(j as u64),
                    task: TaskIndex {
                        kind: SlotKind::Reduce,
                        index,
                    },
                });
            }
        }
        let machines = 8u64;
        // The engine structures the arena replaced: an attempt registry
        // keyed by task with machine-match removal, and a separate
        // failed-attempt counter map.
        let mut attempts: BTreeMap<TaskId, Vec<(MachineId, SimTime)>> = BTreeMap::new();
        let mut failures: BTreeMap<TaskId, u32> = BTreeMap::new();
        let mut now = SimTime::ZERO;
        let ops = rng.uniform_u64(1, 200) as usize;
        for _ in 0..ops {
            now += simcore::SimDuration::from_millis(rng.uniform_u64(0, 5_000));
            let t = tasks[rng.uniform_u64(0, tasks.len() as u64 - 1) as usize];
            let draw = rng.uniform_u64(0, 99);
            if draw < 45 {
                // Attempt start. The engine launches at most MAX_ATTEMPTS
                // concurrent copies and never two on one machine
                // (speculation skips the original's host).
                let m = MachineId(rng.uniform_u64(0, machines - 1) as usize);
                let list = attempts.entry(t).or_default();
                if list.len() < MAX_ATTEMPTS && list.iter().all(|&(held, _)| held != m) {
                    list.push((m, now));
                    arena.push_attempt(t, m, now);
                }
                if list.is_empty() {
                    attempts.remove(&t);
                }
            } else if draw < 75 {
                // Completion or single failure: removal by machine match,
                // tolerating machines that run nothing of this task.
                let m = MachineId(rng.uniform_u64(0, machines - 1) as usize);
                arena.remove_attempt(t, m);
                if let Some(list) = attempts.get_mut(&t) {
                    list.retain(|&(held, _)| held != m);
                    if list.is_empty() {
                        attempts.remove(&t);
                    }
                }
            } else if draw < 90 {
                arena.record_failure(t);
                *failures.entry(t).or_insert(0) += 1;
            } else {
                // Crash: every attempt on one machine dies at once, like
                // `declare_dead` draining a machine's in-flight registry.
                let m = MachineId(rng.uniform_u64(0, machines - 1) as usize);
                let doomed: Vec<TaskId> = attempts
                    .iter()
                    .filter(|(_, list)| list.iter().any(|&(held, _)| held == m))
                    .map(|(&t, _)| t)
                    .collect();
                for t in doomed {
                    arena.remove_attempt(t, m);
                    arena.record_failure(t);
                    *failures.entry(t).or_insert(0) += 1;
                    let list = attempts.get_mut(&t).expect("doomed task tracked");
                    list.retain(|&(held, _)| held != m);
                    if list.is_empty() {
                        attempts.remove(&t);
                    }
                }
            }
            // Full-state comparison after every op.
            for &t in &tasks {
                let want: &[(MachineId, SimTime)] =
                    attempts.get(&t).map_or(&[], |list| list.as_slice());
                assert_eq!(arena.attempts(t), want, "attempts of {t} diverged");
                assert_eq!(arena.has_live_attempt(t), !want.is_empty());
                assert_eq!(arena.failures(t), failures.get(&t).copied().unwrap_or(0));
            }
            let want_inflight: Vec<TaskId> = attempts.keys().copied().collect();
            assert_eq!(
                arena.inflight_tasks().collect::<Vec<_>>(),
                want_inflight,
                "in-flight iteration diverged from the BTreeMap key order"
            );
        }
    });
}

/// The fairness heuristic is finite, positive, and monotone in the
/// deficit.
#[test]
fn fairness_heuristic_is_sane() {
    check("fairness_heuristic_is_sane", 256, |rng| {
        let min_share = rng.uniform_range(0.0, 200.0);
        let occupied = rng.uniform_u64(0, 499) as u32;
        let pool = rng.uniform_u64(1, 499) as usize;
        let eta = heuristic::fairness(min_share, occupied, pool);
        assert!(eta.is_finite() && eta > 0.0, "eta = {eta}");
        // One more occupied slot can never raise the priority.
        let eta_more = heuristic::fairness(min_share, occupied + 1, pool);
        assert!(eta_more <= eta + 1e-12);
    });
}

/// Eq. 2 estimates are non-negative and monotone in utilization.
#[test]
fn energy_model_is_monotone() {
    check("energy_model_is_monotone", 256, |rng| {
        let idle = rng.uniform_range(0.0, 200.0);
        let alpha = rng.uniform_range(0.0, 200.0);
        let slots = rng.uniform_u64(1, 11) as usize;
        let u1 = rng.uniform_f64();
        let u2 = rng.uniform_f64();
        let dur = rng.uniform_range(0.0, 10_000.0);
        let model = EnergyModel::new(idle, alpha, slots);
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        let e_lo = model.estimate_mean(lo, dur);
        let e_hi = model.estimate_mean(hi, dur);
        assert!(e_lo >= 0.0);
        assert!(e_hi >= e_lo - 1e-9);
    });
}

/// Block placement never duplicates replicas and never exceeds the
/// fleet.
#[test]
fn block_placement_is_valid() {
    check("block_placement_is_valid", 128, |rng| {
        let seed = rng.next_u64();
        let count = rng.uniform_u64(1, 49) as usize;
        let fleet = Fleet::paper_evaluation();
        let mut placer = BlockPlacer::new(3);
        let mut block_rng = SimRng::seed_from(seed);
        for block in placer.place(&fleet, count, &mut block_rng) {
            assert!(!block.replicas.is_empty());
            assert!(block.replicas.len() <= 3);
            let mut seen = block.replicas.clone();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), block.replicas.len());
            assert!(block.replicas.iter().all(|m| m.index() < fleet.len()));
        }
    });
}

/// The analyzer's deposits are non-negative and only land on machines
/// that (transitively, via exchange groups) saw tasks.
#[test]
fn analyzer_deposits_are_nonnegative() {
    check("analyzer_deposits_are_nonnegative", 256, |rng| {
        let n = rng.uniform_u64(1, 39) as usize;
        let energies = f64_vec(rng, n, 1.0, 10_000.0);
        let exchange = [
            ExchangeStrategy::None,
            ExchangeStrategy::MachineLevel,
            ExchangeStrategy::JobLevel,
            ExchangeStrategy::Both,
        ][rng.uniform_u64(0, 3) as usize];
        let mut analyzer = TaskAnalyzer::new(4);
        for (i, &e) in energies.iter().enumerate() {
            analyzer.record(TaskEnergyRecord {
                job: JobId((i % 3) as u64),
                group: GroupId((i % 2) as u32),
                machine: MachineId(i % 4),
                energy_joules: e,
            });
        }
        let fb = analyzer.compute(&[0, 0, 1, 1], exchange);
        assert_eq!(fb.tasks_analyzed, energies.len());
        for row in fb.deposits.values() {
            assert!(row.iter().all(|&v| v >= 0.0 && v.is_finite()));
        }
    });
}

/// Any small job mix drains on the paper fleet under the reference
/// scheduler, with tasks conserved.
#[test]
fn engine_drains_arbitrary_small_workloads() {
    check("engine_drains_arbitrary_small_workloads", 24, |rng| {
        let seed = rng.next_u64();
        let jobs_n = rng.uniform_u64(1, 4) as usize;
        let maps: Vec<u32> = (0..jobs_n).map(|_| rng.uniform_u64(1, 39) as u32).collect();
        let cfg = EngineConfig {
            noise: NoiseConfig::none(),
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(Fleet::paper_evaluation(), cfg, seed);
        let mut expected = 0u64;
        let jobs = maps
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let reduces = m / 4;
                expected += u64::from(m + reduces);
                JobSpec::new(
                    JobId(i as u64),
                    Benchmark::of(
                        [
                            BenchmarkKind::Wordcount,
                            BenchmarkKind::Grep,
                            BenchmarkKind::Terasort,
                        ][i % 3],
                    ),
                    m,
                    reduces,
                    SimTime::from_secs(i as u64 * 10),
                )
            })
            .collect();
        engine.submit_jobs(jobs);
        let result = engine.run(&mut GreedyScheduler::new());
        assert!(result.drained);
        assert_eq!(result.total_tasks, expected);
    });
}

/// With any speculation policy and straggler noise, every workload
/// drains with exact task conservation — backups never double-count.
#[test]
fn speculation_conserves_tasks() {
    check("speculation_conserves_tasks", 24, |rng| {
        let seed = rng.next_u64();
        let policy = [
            SpeculationPolicy::Off,
            SpeculationPolicy::Hadoop,
            SpeculationPolicy::Late,
        ][rng.uniform_u64(0, 2) as usize];
        let maps = rng.uniform_u64(8, 59) as u32;
        let cfg = EngineConfig {
            noise: NoiseConfig {
                straggler_prob: 0.2,
                straggler_slowdown: (2.0, 6.0),
                utilization_jitter: 0.1,
            },
            speculation: policy,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(Fleet::paper_evaluation(), cfg, seed);
        let reduces = maps / 6;
        engine.submit_jobs(vec![JobSpec::new(
            JobId(0),
            Benchmark::wordcount(),
            maps,
            reduces,
            SimTime::ZERO,
        )]);
        let result = engine.run(&mut GreedyScheduler::new());
        assert!(result.drained);
        assert_eq!(result.total_tasks, u64::from(maps + reduces));
        assert!(result.wasted_attempts <= result.speculative_attempts);
        if policy == SpeculationPolicy::Off {
            assert_eq!(result.speculative_attempts, 0);
        }
    });
}

/// Power-down never strands work and never *increases* energy relative
/// to physical limits (total energy is at least the standby floor).
#[test]
fn power_down_is_safe() {
    check("power_down_is_safe", 16, |rng| {
        let seed = rng.next_u64();
        let gap_mins = rng.uniform_u64(1, 29);
        let cfg = EngineConfig {
            noise: NoiseConfig::none(),
            power_down: Some(PowerDownConfig::suspend_to_ram()),
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(Fleet::paper_evaluation(), cfg, seed);
        engine.submit_jobs(vec![
            JobSpec::new(JobId(0), Benchmark::grep(), 16, 2, SimTime::ZERO),
            JobSpec::new(
                JobId(1),
                Benchmark::grep(),
                16,
                2,
                SimTime::from_secs(gap_mins * 60),
            ),
        ]);
        let result = engine.run(&mut GreedyScheduler::new());
        assert!(result.drained, "power-down must never strand work");
        assert_eq!(result.total_tasks, 36);
        // Energy floor: every machine draws at least standby power for the
        // whole run.
        let floor = 2.5 * 16.0 * result.makespan.as_secs_f64();
        assert!(result.total_energy_joules() >= floor * 0.99);
    });
}

/// Machine energy meters never decrease and never drop below idle
/// draw.
#[test]
fn meter_monotone_and_bounded_below() {
    check("meter_monotone_and_bounded_below", 256, |rng| {
        let spans_n = rng.uniform_u64(1, 29) as usize;
        let spans: Vec<u64> = (0..spans_n).map(|_| rng.uniform_u64(1, 99)).collect();
        let profile = profiles::desktop();
        let mut machine = cluster::Machine::new(MachineId(0), profile.clone());
        let mut now = SimTime::ZERO;
        let mut last_energy = 0.0;
        for secs in spans {
            now += simcore::SimDuration::from_secs(secs);
            machine.sync(now);
            let e = machine.meter().total_joules();
            assert!(e >= last_energy);
            // Idle machine: exactly idle power integrated.
            let idle_floor =
                profile.power().idle_watts() * now.saturating_since(SimTime::ZERO).as_secs_f64();
            assert!(e >= idle_floor - 1e-6);
            last_energy = e;
        }
    });
}

/// The in-repo case generator itself is deterministic: the same property
/// name and case index always see the same stream.
#[test]
fn case_generation_is_deterministic() {
    let draw = |name: &str, case: usize| {
        let mut rng = SimRng::seed_from(PROPERTY_SEED).fork_index(name, case);
        (rng.next_u64(), rng.uniform_f64())
    };
    assert_eq!(draw("p", 0), draw("p", 0));
    assert_ne!(draw("p", 0), draw("p", 1));
    assert_ne!(draw("p", 0), draw("q", 0));
}

/// After every engine event the incrementally maintained scoreboard equals
/// a from-scratch rebuild — the tentpole invariant of the ClusterState
/// refactor. A wrapper scheduler checks `state() == rebuild_state()` inside
/// every callback of a seeded multi-job run with stragglers and speculation
/// enabled, so the assertion fires between task starts, completions
/// (including speculative losers draining after their job finished),
/// submissions and control ticks.
#[test]
fn scoreboard_matches_oracle_rebuild() {
    use cluster::SlotKind;
    use hadoop_sim::{ClusterQuery, Scheduler, TaskReport};

    struct OracleChecked<S> {
        inner: S,
        checks: u64,
    }

    impl<S> OracleChecked<S> {
        fn verify(&mut self, query: &dyn ClusterQuery, site: &str) {
            let incremental = query.state();
            let oracle = query.rebuild_state();
            assert_eq!(
                *incremental,
                oracle,
                "scoreboard diverged from oracle at {site} (t={})",
                query.now()
            );
            self.checks += 1;
        }
    }

    impl<S: Scheduler> Scheduler for OracleChecked<S> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn select_job(
            &mut self,
            query: &dyn ClusterQuery,
            machine: MachineId,
            kind: SlotKind,
        ) -> Option<JobId> {
            self.verify(query, "select_job");
            self.inner.select_job(query, machine, kind)
        }
        fn on_job_submitted(&mut self, query: &dyn ClusterQuery, job: &JobSpec) {
            self.verify(query, "on_job_submitted");
            self.inner.on_job_submitted(query, job);
        }
        fn on_job_completed(&mut self, query: &dyn ClusterQuery, job: JobId) {
            self.verify(query, "on_job_completed");
            self.inner.on_job_completed(query, job);
        }
        fn on_task_completed(&mut self, query: &dyn ClusterQuery, report: &TaskReport) {
            self.verify(query, "on_task_completed");
            self.inner.on_task_completed(query, report);
        }
        fn on_control_interval(&mut self, query: &dyn ClusterQuery) {
            self.verify(query, "on_control_interval");
            self.inner.on_control_interval(query);
        }
    }

    check("scoreboard_matches_oracle_rebuild", 8, |rng| {
        let seed = rng.next_u64();
        let jobs_n = rng.uniform_u64(2, 5) as usize;
        let cfg = EngineConfig {
            noise: NoiseConfig {
                straggler_prob: 0.25,
                straggler_slowdown: (2.0, 6.0),
                utilization_jitter: 0.1,
            },
            speculation: SpeculationPolicy::Hadoop,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(Fleet::paper_evaluation(), cfg, seed);
        let jobs = (0..jobs_n)
            .map(|i| {
                let maps = rng.uniform_u64(6, 47) as u32;
                JobSpec::new(
                    JobId(i as u64),
                    Benchmark::of(
                        [
                            BenchmarkKind::Wordcount,
                            BenchmarkKind::Grep,
                            BenchmarkKind::Terasort,
                        ][i % 3],
                    ),
                    maps,
                    maps / 5,
                    SimTime::from_secs(i as u64 * 30),
                )
            })
            .collect();
        engine.submit_jobs(jobs);
        let mut checked = OracleChecked {
            inner: GreedyScheduler::new(),
            checks: 0,
        };
        let result = engine.run(&mut checked);
        assert!(result.drained);
        assert!(checked.checks > 100, "too few oracle checks ran");
    });
}

/// Streaming observers reproduce the post-hoc [`hadoop_sim::RunResult`]
/// aggregates bit for bit — makespan, total energy, energy series, interval
/// snapshots, per-job completion times, speculation counts — for every
/// scheduler, across random workloads, noise levels, speculation policies
/// and power-management features.
#[test]
fn streaming_stats_match_posthoc() {
    use eant::EAntConfig;
    use experiments::common::{fig8_spec, SchedulerKind};
    use experiments::scenario::WorkloadSpec;
    use hadoop_sim::trace::SharedObserver;
    use hadoop_sim::DvfsConfig;
    use metrics::observers::StreamingRunStats;
    use simcore::SimDuration;
    use workload::msd::MsdConfig;

    check("streaming_stats_match_posthoc", 6, |rng| {
        let seed = rng.next_u64();
        let mut spec = fig8_spec().clone();
        spec.fast_workload = Some(WorkloadSpec::Msd(MsdConfig {
            num_jobs: rng.uniform_u64(3, 8) as usize,
            task_scale: 32,
            submission_window: SimDuration::from_mins(rng.uniform_u64(2, 6)),
        }));
        spec.engine.speculation = [
            SpeculationPolicy::Off,
            SpeculationPolicy::Hadoop,
            SpeculationPolicy::Late,
        ][rng.uniform_u64(0, 2) as usize];
        if rng.chance(0.3) {
            spec.engine.power_down = Some(PowerDownConfig::suspend_to_ram());
        }
        if rng.chance(0.3) {
            spec.engine.dvfs = Some(DvfsConfig::conservative());
        }
        let num_machines = Fleet::paper_evaluation().len();
        for kind in [
            SchedulerKind::Fifo,
            SchedulerKind::Fair,
            SchedulerKind::Tarazu,
            SchedulerKind::EAnt(EAntConfig::paper_default()),
        ] {
            let stats = SharedObserver::new(StreamingRunStats::new(num_machines));
            let handle = stats.clone();
            let result = spec.execute_observed(&kind, seed, true, move |engine, _| {
                engine.attach_observer(Box::new(handle));
            });
            stats
                .with(|s| s.matches(&result))
                .unwrap_or_else(|e| panic!("{} (seed {seed}): {e}", kind.label()));
        }
    });
}

/// The scoreboard/oracle equivalence survives fault injection: machine
/// crashes, heartbeat-expiry deaths, task retries, map-output loss and
/// blacklisting all mutate the incremental state through the same paths the
/// oracle rebuilds from scratch.
#[test]
fn scoreboard_matches_oracle_under_faults() {
    use cluster::SlotKind;
    use hadoop_sim::{ClusterQuery, FaultConfig, Scheduler, TaskReport};
    use simcore::SimDuration;

    struct OracleChecked<S> {
        inner: S,
        checks: u64,
    }

    impl<S> OracleChecked<S> {
        fn verify(&mut self, query: &dyn ClusterQuery, site: &str) {
            let incremental = query.state();
            let oracle = query.rebuild_state();
            assert_eq!(
                *incremental,
                oracle,
                "scoreboard diverged from oracle at {site} (t={})",
                query.now()
            );
            self.checks += 1;
        }
    }

    impl<S: Scheduler> Scheduler for OracleChecked<S> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn select_job(
            &mut self,
            query: &dyn ClusterQuery,
            machine: MachineId,
            kind: SlotKind,
        ) -> Option<JobId> {
            self.verify(query, "select_job");
            self.inner.select_job(query, machine, kind)
        }
        fn on_job_submitted(&mut self, query: &dyn ClusterQuery, job: &JobSpec) {
            self.verify(query, "on_job_submitted");
            self.inner.on_job_submitted(query, job);
        }
        fn on_job_completed(&mut self, query: &dyn ClusterQuery, job: JobId) {
            self.verify(query, "on_job_completed");
            self.inner.on_job_completed(query, job);
        }
        fn on_task_completed(&mut self, query: &dyn ClusterQuery, report: &TaskReport) {
            self.verify(query, "on_task_completed");
            self.inner.on_task_completed(query, report);
        }
        fn on_control_interval(&mut self, query: &dyn ClusterQuery) {
            self.verify(query, "on_control_interval");
            self.inner.on_control_interval(query);
        }
    }

    check("scoreboard_matches_oracle_under_faults", 6, |rng| {
        let seed = rng.next_u64();
        let fault = FaultConfig {
            crash_mtbf: SimDuration::from_mins(rng.uniform_u64(10, 40)),
            crash_downtime: SimDuration::from_mins(rng.uniform_u64(1, 4)),
            task_failure_prob: rng.uniform_range(0.0, 0.15),
            blacklist_threshold: if rng.chance(0.5) { 8 } else { 0 },
            ..FaultConfig::none()
        };
        let cfg = EngineConfig {
            noise: NoiseConfig {
                straggler_prob: 0.2,
                straggler_slowdown: (2.0, 5.0),
                utilization_jitter: 0.1,
            },
            speculation: SpeculationPolicy::Hadoop,
            fault,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(Fleet::paper_evaluation(), cfg, seed);
        let jobs = (0..3)
            .map(|i| {
                let maps = rng.uniform_u64(8, 39) as u32;
                JobSpec::new(
                    JobId(i as u64),
                    Benchmark::of(
                        [
                            BenchmarkKind::Wordcount,
                            BenchmarkKind::Grep,
                            BenchmarkKind::Terasort,
                        ][i % 3],
                    ),
                    maps,
                    maps / 5,
                    SimTime::from_secs(i as u64 * 30),
                )
            })
            .collect();
        engine.submit_jobs(jobs);
        let mut checked = OracleChecked {
            inner: GreedyScheduler::new(),
            checks: 0,
        };
        let result = engine.run(&mut checked);
        assert!(result.drained, "faulted run failed to drain (seed {seed})");
        assert!(checked.checks > 100, "too few oracle checks ran");
    });
}

/// Conservation under faults: with recovery enabled, every task still
/// completes exactly once — crashes, retries and lost map outputs never
/// duplicate or strand work, so the completed-task count equals the
/// submitted count for any fault schedule.
#[test]
fn faults_conserve_tasks() {
    use hadoop_sim::FaultConfig;
    use simcore::SimDuration;

    check("faults_conserve_tasks", 16, |rng| {
        let seed = rng.next_u64();
        let fault = FaultConfig {
            crash_mtbf: SimDuration::from_mins(rng.uniform_u64(8, 50)),
            crash_downtime: SimDuration::from_mins(rng.uniform_u64(1, 5)),
            task_failure_prob: rng.uniform_range(0.0, 0.2),
            blacklist_threshold: [0, 6, 12][rng.uniform_u64(0, 2) as usize],
            ..FaultConfig::none()
        };
        fault.validate();
        let cfg = EngineConfig {
            noise: NoiseConfig::none(),
            fault,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(Fleet::paper_evaluation(), cfg, seed);
        let mut expected = 0u64;
        let jobs = (0..rng.uniform_u64(1, 4) as usize)
            .map(|i| {
                let maps = rng.uniform_u64(4, 47) as u32;
                let reduces = maps / 4;
                expected += u64::from(maps + reduces);
                JobSpec::new(
                    JobId(i as u64),
                    Benchmark::of(
                        [
                            BenchmarkKind::Wordcount,
                            BenchmarkKind::Grep,
                            BenchmarkKind::Terasort,
                        ][i % 3],
                    ),
                    maps,
                    reduces,
                    SimTime::from_secs(i as u64 * 20),
                )
            })
            .collect();
        engine.submit_jobs(jobs);
        let result = engine.run(&mut GreedyScheduler::new());
        assert!(result.drained, "faulted run failed to drain (seed {seed})");
        assert_eq!(
            result.total_tasks, expected,
            "task conservation violated under faults (seed {seed})"
        );
        // Failure counters are consistent: map outputs are only lost to
        // machine deaths, and blacklisting is impossible when disabled.
        if result.machine_failures == 0 {
            assert_eq!(result.map_outputs_lost, 0);
        }
        if fault.blacklist_threshold == 0 {
            assert_eq!(result.machines_blacklisted, 0);
        }
    });
}

/// The scenario codec's emitter and parser are exact inverses: any valid
/// [`experiments::scenario::ScenarioSpec`] — random workload shape, fleet
/// composition, scheduler grid, engine knobs — emits to canonical JSON that
/// parses back to an equal spec and re-emits byte-identically. This is the
/// contract that makes manifest keys (content hashes of the canonical form)
/// stable across load/save cycles.
#[test]
fn scenario_spec_round_trips_byte_identically() {
    use eant::EAntConfig;
    use experiments::common::SchedulerKind;
    use experiments::scenario::{
        FleetGroup, FleetSpec, ScenarioSpec, ServeSpec, ServeTolerance, Tolerance, WorkloadSpec,
    };
    use hadoop_sim::{DvfsConfig, FaultConfig, SloConfig};
    use simcore::{SimDuration, SimTime};
    use workload::arrival::{DiurnalPeak, DiurnalProfile, OpenArrival};
    use workload::mix::{BenchmarkChoice, StreamArrival, StreamSpec};
    use workload::msd::MsdConfig;
    use workload::open::{OpenJobTemplate, OpenStreamSpec};
    use workload::SizeClass;

    fn ident(rng: &mut SimRng, prefix: &str) -> String {
        format!("{prefix}-{:x}", rng.uniform_u64(0, 0xFFFF_FFFF))
    }

    fn gen_scheduler(rng: &mut SimRng) -> SchedulerKind {
        match rng.uniform_u64(0, 3) {
            0 => SchedulerKind::Fifo,
            1 => SchedulerKind::Fair,
            2 => SchedulerKind::Tarazu,
            _ => {
                let mut cfg = EAntConfig::paper_default();
                cfg.rho = rng.uniform_range(0.05, 1.0);
                cfg.beta = rng.uniform_range(0.0, 4.0);
                cfg.tau_min = rng.uniform_range(0.01, 0.5);
                cfg.tau_init = cfg.tau_min + rng.uniform_range(0.0, 5.0);
                cfg.tau_max = cfg.tau_init + rng.uniform_range(0.0, 100.0);
                cfg.local_boost = rng.uniform_range(1.0, 3.0);
                cfg.share_cap = rng.uniform_range(1.0, 4.0);
                cfg.exchange = [
                    ExchangeStrategy::None,
                    ExchangeStrategy::MachineLevel,
                    ExchangeStrategy::JobLevel,
                    ExchangeStrategy::Both,
                ][rng.uniform_u64(0, 3) as usize];
                cfg.negative_feedback = rng.chance(0.5);
                SchedulerKind::EAnt(cfg)
            }
        }
    }

    fn gen_arrival(rng: &mut SimRng) -> StreamArrival {
        match rng.uniform_u64(0, 3) {
            0 => StreamArrival::Poisson {
                rate_per_min: rng.uniform_range(0.2, 4.0),
                start_s: rng.uniform_range(0.0, 300.0),
            },
            1 => StreamArrival::Uniform {
                period_s: rng.uniform_range(10.0, 300.0),
                start_s: rng.uniform_range(0.0, 120.0),
            },
            2 => StreamArrival::Batches {
                at_s: (0..rng.uniform_u64(1, 3))
                    .map(|_| rng.uniform_range(0.0, 3600.0))
                    .collect(),
            },
            _ => StreamArrival::Diurnal {
                profile: DiurnalProfile {
                    base_per_min: rng.uniform_range(0.2, 2.0),
                    peaks: (0..rng.uniform_u64(1, 2))
                        .map(|_| DiurnalPeak {
                            center_s: rng.uniform_range(0.0, 3600.0),
                            width_s: rng.uniform_range(60.0, 600.0),
                            extra_per_min: rng.uniform_range(0.5, 8.0),
                        })
                        .collect(),
                },
                window_s: rng.uniform_range(1200.0, 7200.0),
            },
        }
    }

    fn gen_workload(rng: &mut SimRng) -> WorkloadSpec {
        if rng.chance(0.5) {
            WorkloadSpec::Msd(MsdConfig {
                num_jobs: rng.uniform_u64(1, 50) as usize,
                task_scale: rng.uniform_u64(16, 128) as u32,
                submission_window: SimDuration::from_secs(rng.uniform_u64(60, 3600)),
            })
        } else {
            let streams = (0..rng.uniform_u64(1, 3))
                .map(|_| StreamSpec {
                    label: ident(rng, "stream"),
                    benchmark: match rng.uniform_u64(0, 3) {
                        0 => BenchmarkChoice::Fixed(BenchmarkKind::Wordcount),
                        1 => BenchmarkChoice::Fixed(BenchmarkKind::Grep),
                        2 => BenchmarkChoice::Fixed(BenchmarkKind::Terasort),
                        _ => BenchmarkChoice::Rotate,
                    },
                    size_class: match rng.uniform_u64(0, 3) {
                        0 => None,
                        1 => Some(SizeClass::Small),
                        2 => Some(SizeClass::Medium),
                        _ => Some(SizeClass::Large),
                    },
                    maps: rng.uniform_u64(1, 200) as u32,
                    reduces: rng.uniform_u64(0, 32) as u32,
                    count: rng.uniform_u64(1, 20) as usize,
                    arrival: gen_arrival(rng),
                })
                .collect();
            WorkloadSpec::Streams(streams)
        }
    }

    fn gen_open_workload(rng: &mut SimRng) -> WorkloadSpec {
        let arrival = match rng.uniform_u64(0, 2) {
            0 => OpenArrival::Poisson {
                rate_per_min: rng.uniform_range(0.2, 6.0),
            },
            1 => OpenArrival::Diurnal {
                profile: DiurnalProfile {
                    base_per_min: rng.uniform_range(0.2, 2.0),
                    peaks: (0..rng.uniform_u64(1, 2))
                        .map(|_| DiurnalPeak {
                            center_s: rng.uniform_range(0.0, 3600.0),
                            width_s: rng.uniform_range(60.0, 600.0),
                            extra_per_min: rng.uniform_range(0.5, 8.0),
                        })
                        .collect(),
                },
                period_s: rng.uniform_range(1200.0, 7200.0),
            },
            _ => {
                let burst_min = rng.uniform_u64(1, 4) as u32;
                OpenArrival::Bursty {
                    bursts_per_min: rng.uniform_range(0.1, 2.0),
                    burst_min,
                    burst_max: burst_min + rng.uniform_u64(0, 4) as u32,
                }
            }
        };
        let templates = (0..rng.uniform_u64(1, 3))
            .map(|_| OpenJobTemplate {
                benchmark: match rng.uniform_u64(0, 2) {
                    0 => BenchmarkKind::Wordcount,
                    1 => BenchmarkKind::Grep,
                    _ => BenchmarkKind::Terasort,
                },
                size_class: match rng.uniform_u64(0, 3) {
                    0 => None,
                    1 => Some(SizeClass::Small),
                    2 => Some(SizeClass::Medium),
                    _ => Some(SizeClass::Large),
                },
                maps: rng.uniform_u64(1, 128) as u32,
                reduces: rng.uniform_u64(0, 16) as u32,
                weight: rng.uniform_range(0.1, 5.0),
            })
            .collect();
        WorkloadSpec::Open(OpenStreamSpec {
            label: ident(rng, "open"),
            arrival,
            templates,
        })
    }

    fn gen_serve(rng: &mut SimRng) -> ServeSpec {
        ServeSpec {
            warmup: SimDuration::from_secs(rng.uniform_u64(0, 3600)),
            measure: SimDuration::from_secs(rng.uniform_u64(600, 14_400)),
            fast_warmup: if rng.chance(0.5) {
                Some(SimDuration::from_secs(rng.uniform_u64(0, 600)))
            } else {
                None
            },
            fast_measure: if rng.chance(0.5) {
                Some(SimDuration::from_secs(rng.uniform_u64(300, 3600)))
            } else {
                None
            },
            tolerance: ServeTolerance {
                p99_rel: rng.uniform_range(0.001, 0.1),
                energy_per_job_rel: rng.uniform_range(0.001, 0.1),
            },
        }
    }

    fn gen_slo(rng: &mut SimRng) -> SloConfig {
        // At least one threshold must be set (the validator's invariant),
        // so p99 is always present and the rest are coin flips.
        SloConfig {
            window: SimDuration::from_secs(rng.uniform_u64(60, 1800)),
            ring_capacity: rng.uniform_u64(1, 4096) as usize,
            arm_after: SimTime::from_secs(rng.uniform_u64(0, 3600)),
            min_completions: rng.uniform_u64(0, 100) as usize,
            p95_sojourn: if rng.chance(0.5) {
                Some(SimDuration::from_secs(rng.uniform_u64(60, 7200)))
            } else {
                None
            },
            p99_sojourn: Some(SimDuration::from_secs(rng.uniform_u64(60, 7200))),
            max_queue_depth: if rng.chance(0.5) {
                Some(rng.uniform_u64(1, 100_000))
            } else {
                None
            },
            max_backlog_growth_per_min: if rng.chance(0.5) {
                Some(rng.uniform_range(0.1, 50.0))
            } else {
                None
            },
        }
    }

    fn gen_fleet(rng: &mut SimRng) -> FleetSpec {
        if rng.chance(0.4) {
            FleetSpec::Paper
        } else {
            let names = ["Desktop", "XeonE5", "Atom", "T110", "T420", "T320", "T620"];
            let groups = (0..rng.uniform_u64(1, 4))
                .map(|_| FleetGroup {
                    profile: names[rng.uniform_u64(0, names.len() as u64 - 1) as usize].to_owned(),
                    count: rng.uniform_u64(1, 4) as usize,
                    slots: if rng.chance(0.3) {
                        Some((
                            rng.uniform_u64(1, 6) as usize,
                            rng.uniform_u64(0, 3) as usize,
                        ))
                    } else {
                        None
                    },
                })
                .collect();
            FleetSpec::Custom {
                groups,
                rack_size: if rng.chance(0.5) {
                    Some(rng.uniform_u64(2, 8) as usize)
                } else {
                    None
                },
            }
        }
    }

    fn gen_engine(rng: &mut SimRng) -> EngineConfig {
        EngineConfig {
            heartbeat: SimDuration::from_secs(rng.uniform_u64(1, 10)),
            control_interval: SimDuration::from_secs(rng.uniform_u64(60, 600)),
            reduce_slowstart: rng.uniform_range(0.1, 1.0),
            noise: if rng.chance(0.3) {
                NoiseConfig::none()
            } else {
                let lo = rng.uniform_range(1.5, 3.0);
                NoiseConfig {
                    straggler_prob: rng.uniform_range(0.0, 0.5),
                    straggler_slowdown: (lo, lo + rng.uniform_range(0.1, 3.0)),
                    utilization_jitter: rng.uniform_range(0.0, 0.3),
                }
            },
            fault: if rng.chance(0.5) {
                hadoop_sim::FaultConfig::none()
            } else {
                FaultConfig {
                    crash_mtbf: SimDuration::from_secs(rng.uniform_u64(600, 3600)),
                    crash_downtime: SimDuration::from_secs(rng.uniform_u64(60, 300)),
                    task_failure_prob: rng.uniform_range(0.0, 0.2),
                    blacklist_threshold: [0, 6, 12][rng.uniform_u64(0, 2) as usize],
                    ..FaultConfig::none()
                }
            },
            power_down: if rng.chance(0.3) {
                Some(PowerDownConfig {
                    idle_timeout: SimDuration::from_secs(rng.uniform_u64(30, 600)),
                    standby_watts: rng.uniform_range(1.0, 5.0),
                    wake_latency: SimDuration::from_secs(rng.uniform_u64(1, 10)),
                })
            } else {
                None
            },
            speculation: [
                SpeculationPolicy::Off,
                SpeculationPolicy::Hadoop,
                SpeculationPolicy::Late,
            ][rng.uniform_u64(0, 2) as usize],
            dvfs: if rng.chance(0.3) {
                Some(DvfsConfig {
                    eco_factor: rng.uniform_range(0.5, 1.0),
                    low_utilization: rng.uniform_range(0.1, 0.3),
                    high_utilization: rng.uniform_range(0.6, 0.9),
                })
            } else {
                None
            },
            speculation_threshold: rng.uniform_range(1.0, 3.0),
            max_sim_time: SimDuration::from_secs(rng.uniform_u64(3600, 1_000_000)),
            ..EngineConfig::default()
        }
    }

    check("scenario_spec_round_trips_byte_identically", 64, |rng| {
        // A scenario is either closed (msd/streams, no serve) or an open
        // service scenario (open workload + serve section) — the spec
        // validator rejects mixing, so the generator picks one shape.
        let open = rng.chance(0.3);
        let spec = ScenarioSpec {
            name: ident(rng, "scenario"),
            description: format!("prop \"case\" \\ {}", ident(rng, "desc")),
            seeds: (0..rng.uniform_u64(1, 3)).map(|_| rng.next_u64()).collect(),
            schedulers: (0..rng.uniform_u64(1, 4))
                .map(|_| gen_scheduler(rng))
                .collect(),
            workload: if open {
                gen_open_workload(rng)
            } else {
                gen_workload(rng)
            },
            fast_workload: if rng.chance(0.5) {
                Some(if open {
                    gen_open_workload(rng)
                } else {
                    gen_workload(rng)
                })
            } else {
                None
            },
            serve: if open { Some(gen_serve(rng)) } else { None },
            slo: if rng.chance(0.3) {
                Some(gen_slo(rng))
            } else {
                None
            },
            fleet: gen_fleet(rng),
            engine: gen_engine(rng),
            tolerance: Tolerance {
                energy_rel: rng.uniform_range(0.001, 0.1),
                makespan_rel: rng.uniform_range(0.001, 0.1),
            },
        };
        let first = spec.canonical();
        let reparsed = ScenarioSpec::parse(&first)
            .unwrap_or_else(|e| panic!("canonical form failed to parse: {e}\n{first}"));
        assert_eq!(reparsed, spec, "parse is not the emitter's inverse");
        assert_eq!(
            reparsed.canonical(),
            first,
            "emit ∘ parse ∘ emit is not byte-stable"
        );
    });
}

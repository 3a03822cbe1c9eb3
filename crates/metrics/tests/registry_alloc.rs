//! Allocation guard for the registry observer: once every metric an event
//! stream touches has been registered, folding further events makes no
//! heap allocation at all — no label strings, no map probes, no growth of
//! the in-flight attempt lists.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cluster::{MachineId, SlotKind};
use hadoop_sim::trace::Observer;
use hadoop_sim::{DecisionCandidate, PowerState, SimEvent};
use metrics::registry::RegistryObserver;
use simcore::SimTime;
use workload::{JobId, TaskId, TaskIndex};

thread_local! {
    /// Allocations made on this thread; the harness's other threads do
    /// not disturb it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every call forwards to the system allocator unchanged; the only
// addition is a bump of a const-initialized thread-local, which never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const MACHINES: usize = 5;

fn task(job: u64, kind: SlotKind, index: u32) -> TaskId {
    TaskId {
        job: JobId(job),
        task: TaskIndex { kind, index },
    }
}

/// One round of a busy cluster: a job arrives; every machine takes a
/// decision-traced map winner, map loser, reduce winner, reduce loser and
/// a failing map; heartbeats drain; the control interval fires; a machine
/// fails and recovers; the job completes. Every [`SimEvent`] kind appears.
fn round(r: u64) -> Vec<SimEvent> {
    let job = JobId(r);
    let candidates: Vec<DecisionCandidate> = (0..3)
        .map(|j| DecisionCandidate {
            job: JobId(r + j),
            local: j == 0,
            tau: Some(0.5),
            eta_fairness: Some(1.0),
            eta_locality: Some(1.0),
            probability: 1.0 / 3.0,
        })
        .collect();
    let attempts = [
        (SlotKind::Map, 0, Some(true)),
        (SlotKind::Map, 1, Some(false)),
        (SlotKind::Reduce, 0, Some(true)),
        (SlotKind::Reduce, 1, Some(false)),
        (SlotKind::Map, 2, None),
    ];
    let mut events = vec![SimEvent::JobSubmitted { job, tasks: 5 }];
    for m in 0..MACHINES {
        let machine = MachineId(m);
        for &(kind, index, _) in &attempts {
            events.push(SimEvent::AssignmentDecision {
                machine,
                kind,
                chosen: job,
                candidates: candidates.clone(),
            });
            events.push(SimEvent::TaskStarted {
                task: task(r, kind, index + 10 * m as u32),
                machine,
                speculative: index == 1,
            });
            events.push(SimEvent::SlotOccupancyChanged {
                machine,
                kind,
                occupied: 1,
                capacity: 4,
            });
        }
        events.push(SimEvent::SpeculationLaunched {
            task: task(r, SlotKind::Map, 1 + 10 * m as u32),
            machine,
        });
        events.push(SimEvent::HeartbeatDrained {
            machine,
            free_map: 1,
            free_reduce: 2,
            pending_total: 40 * r + m as u64,
        });
    }
    for m in 0..MACHINES {
        let machine = MachineId(m);
        for &(kind, index, outcome) in &attempts {
            let task = task(r, kind, index + 10 * m as u32);
            events.push(match outcome {
                Some(won) => SimEvent::TaskCompleted {
                    task,
                    machine,
                    won,
                    straggled: false,
                    speculative: index == 1,
                },
                None => SimEvent::TaskFailed {
                    task,
                    machine,
                    crash: false,
                },
            });
        }
        events.push(SimEvent::PowerStateChanged {
            machine,
            state: PowerState::Eco,
        });
        events.push(SimEvent::MachineFailed {
            machine,
            attempts_lost: 0,
        });
        events.push(SimEvent::MapOutputLost {
            task: task(r, SlotKind::Map, 10 * m as u32),
            machine,
        });
        events.push(SimEvent::MachineRecovered { machine });
        events.push(SimEvent::MachineBlacklisted {
            machine,
            failures: 3,
        });
    }
    events.extend([
        SimEvent::ControlIntervalFired {
            index: r,
            cumulative_energy_joules: 1.0e3 * r as f64,
        },
        SimEvent::PheromoneUpdated {
            job,
            overlap: Some(0.9),
        },
        SimEvent::EnergyModelRefit {
            profile: "type-a".to_owned(),
            idle_watts: 100.0,
            alpha_watts: 50.0,
        },
        SimEvent::JobCompleted { job },
        SimEvent::RunFinished {
            drained: false,
            total_energy_joules: 1.0e3 * r as f64,
            total_tasks: 4 * r,
        },
    ]);
    events
}

#[test]
fn warm_registry_observer_makes_no_heap_allocation() {
    let rounds: Vec<Vec<SimEvent>> = (0..20).map(round).collect();
    let mut observer = RegistryObserver::new();
    let mut fold = |r: usize| {
        for (i, event) in rounds[r].iter().enumerate() {
            let at = SimTime::from_secs(600 * r as u64 + i as u64);
            observer.on_event(at, event);
        }
    };
    // The first round registers every metric on every machine and sizes
    // the per-machine attempt lists.
    fold(0);
    let before = ALLOCATIONS.with(Cell::get);
    for r in 1..rounds.len() {
        fold(r);
    }
    let made = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(made, 0, "warm on_event allocated {made} time(s)");

    let snapshot = observer.registry().snapshot().render();
    for kind in SimEvent::KINDS {
        assert!(
            snapshot.contains(&format!(r#""labels":{{"type":"{kind}"}}"#)),
            "the script never produced a `{kind}` event"
        );
    }
    assert!(snapshot.contains(r#""name":"task_duration_seconds""#));
}

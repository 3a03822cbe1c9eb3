//! Allocation guard for E-Ant's Eq. 8 decision core: once the scheduler's
//! scratch buffers are warm and every candidate's pheromone row exists, a
//! `select_job` call makes no heap allocation at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cluster::{MachineId, SlotKind};
use eant::{EAntConfig, EAntScheduler};
use hadoop_sim::{FixedQuery, JobEntry, Scheduler};
use workload::JobId;

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

#[test]
fn warm_select_job_makes_no_heap_allocation() {
    // Forty active jobs with mixed occupancies, some over the share cap,
    // and every fifth (job, machine) pair node-local.
    let mut query = FixedQuery::paper((0..40).map(|id| JobEntry {
        pending_reduces: id % 3,
        ..FixedQuery::entry(u64::from(id), 1 + id % 4, (id * 7) % 23)
    }));
    let pairs = (0..40).flat_map(|j| (0..16).map(move |m| (JobId(j), MachineId(m))));
    query.node_local = pairs
        .filter(|(j, m)| (j.index() + m.index()).is_multiple_of(5))
        .collect();
    let mut scheduler = EAntScheduler::new(EAntConfig::paper_default(), 2015);
    let mut offer_round = || {
        let mut picks = 0;
        for i in 0..200 {
            let machine = MachineId(i % query.fleet.len());
            let kind = [SlotKind::Map, SlotKind::Reduce][usize::from(i % 3 == 0)];
            picks += u32::from(scheduler.select_job(&query, machine, kind).is_some());
        }
        picks
    };
    // The first round creates every candidate's row and sizes the buffers.
    assert_eq!(offer_round(), 200);
    let before = ALLOCATIONS.with(Cell::get);
    assert_eq!(offer_round(), 200);
    let made = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(made, 0, "warm select_job allocated {made} time(s)");
}

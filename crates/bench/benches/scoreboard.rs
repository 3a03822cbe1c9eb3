//! Assignment-path benchmarks: the per-heartbeat scheduler decision cost.
//!
//! Two layers are measured:
//!
//! * `select_job/*` — one slot-offer decision against a cluster view with
//!   dozens of active jobs, per scheduler. This is the innermost loop of
//!   every heartbeat and the path the ClusterState scoreboard exists to
//!   keep allocation-free.
//! * `heartbeat_path/*` — a complete small MSD run per scheduler: the
//!   end-to-end engine cost including every heartbeat, slot offer and
//!   completion event.
//!
//! CI runs this bench at a reduced budget (`BENCH_BUDGET_MS`) and archives
//! the canonical-JSON records (`BENCH_JSON`) as the `BENCH_scoreboard.json`
//! artifact.

use baselines::{FairScheduler, FifoScheduler};
use bench::{black_box, Harness};
use cluster::{Fleet, MachineId, SlotKind};
use eant::{EAntConfig, EAntScheduler};
use hadoop_sim::{Engine, EngineConfig, FixedQuery, JobEntry, NoiseConfig, Scheduler};
use simcore::{SimDuration, SimRng, SimTime};
use workload::msd::MsdConfig;
use workload::JobId;

/// A standalone cluster view with `jobs` active jobs, mimicking the
/// engine's mid-run state so a single `select_job` call can be timed in
/// isolation. Every fifth (job, machine) pair is node-local, like a real
/// block layout.
fn bench_query(jobs: usize) -> FixedQuery {
    let mut rng = SimRng::seed_from(2015).fork("bench-scoreboard");
    let mut query = FixedQuery::paper((0..jobs).map(|i| {
        let pending_maps = rng.uniform_u64(0, 40) as u32;
        let slots_occupied = rng.uniform_u64(0, 6) as u32;
        let completed = rng.uniform_u64(0, 30) as u32;
        JobEntry {
            group: workload::GroupId((i % 9) as u32),
            pending_reduces: rng.uniform_u64(0, 4) as u32,
            completed_tasks: completed,
            total_tasks: pending_maps + slots_occupied + completed,
            submitted_at: SimTime::from_secs(i as u64),
            ..FixedQuery::entry(i as u64, pending_maps, slots_occupied)
        }
    }));
    for g in 0..9 {
        query.state.intern_group(&format!("Benchmark-{g}"));
    }
    let pairs = (0..jobs).flat_map(|j| (0..16).map(move |m| (JobId(j as u64), MachineId(m))));
    query.node_local = pairs
        .filter(|(j, m)| (j.index() + m.index()).is_multiple_of(5))
        .collect();
    query
}

fn select_job_bench(h: &mut Harness, name: &str, jobs: usize, scheduler: &mut dyn Scheduler) {
    let query = bench_query(jobs);
    let machines: Vec<MachineId> = query.fleet.ids().collect();
    let mut i = 0usize;
    h.bench(&format!("select_job/{name}_{jobs}jobs"), || {
        let machine = machines[i % machines.len()];
        let kind = if i.is_multiple_of(3) {
            SlotKind::Reduce
        } else {
            SlotKind::Map
        };
        i += 1;
        black_box(scheduler.select_job(black_box(&query), machine, kind))
    });
}

fn msd_run(scheduler: &mut dyn Scheduler, seed: u64) -> hadoop_sim::RunResult {
    let msd = MsdConfig {
        num_jobs: 12,
        task_scale: 64,
        submission_window: SimDuration::from_mins(5),
    };
    let jobs = msd.generate(&mut SimRng::seed_from(seed).fork("msd"));
    let cfg = EngineConfig {
        noise: NoiseConfig::none(),
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(Fleet::paper_evaluation(), cfg, seed);
    engine.submit_jobs(jobs);
    engine.run(scheduler)
}

fn main() {
    let mut h = Harness::from_args();

    for &jobs in &[16usize, 48] {
        select_job_bench(&mut h, "fifo", jobs, &mut FifoScheduler::new());
        select_job_bench(&mut h, "fair", jobs, &mut FairScheduler::new());
        let mut eant = EAntScheduler::new(EAntConfig::paper_default(), 7);
        select_job_bench(&mut h, "eant", jobs, &mut eant);
    }

    h.bench("heartbeat_path/msd12_fair", || {
        black_box(msd_run(&mut FairScheduler::new(), 11))
    });
    h.bench("heartbeat_path/msd12_eant", || {
        let mut s = EAntScheduler::new(EAntConfig::paper_default(), 11);
        black_box(msd_run(&mut s, 11))
    });

    h.finish();
}

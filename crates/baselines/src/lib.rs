//! Baseline Hadoop schedulers the paper evaluates E-Ant against (§VI):
//!
//! * [`FifoScheduler`] — Hadoop's default queue: strict submission order
//!   with standard locality preference. The paper's "default
//!   heterogeneity-agnostic Hadoop" reference point for energy savings
//!   (Fig. 10, Fig. 12).
//! * [`FairScheduler`] — the Hadoop Fair Scheduler: every job gets an equal
//!   minimum share of slots; slots go to the most deficit job. One of the
//!   paper's two headline comparators (heterogeneity-oblivious).
//! * [`TarazuScheduler`] — a reimplementation of Tarazu's
//!   communication-aware load balancing (Ahmad et al., ASPLOS 2012) from
//!   its published description: map work is skewed toward faster machines,
//!   remote map execution is throttled when the network is congested, and
//!   slow machines defer non-local work. The paper's second comparator
//!   (heterogeneity-aware but performance-oriented).
//!
//! All three implement [`hadoop_sim::Scheduler`] and can be swapped into the
//! engine interchangeably with E-Ant.
//!
//! # Examples
//!
//! ```
//! use baselines::{FairScheduler, FifoScheduler, TarazuScheduler};
//! use hadoop_sim::{Engine, EngineConfig, Scheduler};
//! use cluster::Fleet;
//! use workload::{Benchmark, JobId, JobSpec};
//! use simcore::SimTime;
//!
//! let mut engine = Engine::new(Fleet::paper_evaluation(), EngineConfig::default(), 7);
//! engine.submit_jobs(vec![JobSpec::new(
//!     JobId(0), Benchmark::grep(), 32, 4, SimTime::ZERO,
//! )]);
//! let result = engine.run(&mut FairScheduler::new());
//! assert!(result.drained);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod fair;
mod fifo;
mod tarazu;

pub use fair::FairScheduler;
pub use fifo::FifoScheduler;
pub use tarazu::{TarazuConfig, TarazuScheduler};

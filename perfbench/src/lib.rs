//! The E-Ant simulator benchmark: three committed scenario workloads
//! driven through the library's public API on one thread, with an
//! outside-in layer profile. `run.py` in this directory builds and runs
//! it; `README.md` describes the metrics and workloads.

pub mod layers;
pub mod reference;
pub mod stats;
pub mod workload;

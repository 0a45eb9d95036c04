//! The Morpheus benchmark: the paper's Figure 3 at full length, lossy
//! many-to-many chat at n = 100 and control-plane churn at n = 250, each run
//! through `testbed::Runner::run_with_binding` with the real chat
//! application bound. See `README.md` for every metric and workload.

pub mod cli;
pub mod coverage;
pub mod cpus;
pub mod measure;
pub mod probe;
pub mod reference;
pub mod stats;
pub mod trace;
pub mod workload;

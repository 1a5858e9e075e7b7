//! End-to-end and per-layer host-time benchmark of the HPE simulator.
//!
//! The benchmark drives the simulator crates only through their public
//! entry points and times each call from outside: trace synthesis
//! (`workloads`), the Ideal oracle build (`oracle`), `Simulation::new` and
//! `Simulation::run` (`engine`), every policy hook (through the
//! [`timed::Timed`] wrapper), each observer sink attached alone, and the
//! campaign worker pool. See `README.md` for the workloads and metrics.

#![forbid(unsafe_code)]

pub mod cell;
pub mod clock;
pub mod endtoend;
pub mod passes;
pub mod perlayer;
pub mod report;
pub mod stats;
pub mod timed;
pub mod workload;
pub mod yardstick;

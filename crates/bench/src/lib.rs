//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 5) plus the Section 6 shadow-region model.
//!
//! Each `src/bin/tableN.rs` binary reproduces the corresponding table;
//! `fig7` emits the Figure 7 component series; `shadow_model` sweeps the
//! Section 6 ratio. `cargo bench` (criterion) covers the micro-performance
//! of the Figure 5 algorithms: partitioning, redistribution, streaming.
//!
//! Conventions shared by all experiments, matching the paper's setup:
//! a 16-node system with PIOFS striped across all 16 nodes; applications
//! run with a one-to-one task/processor mapping on the first `P` nodes;
//! a checkpoint is taken at the mid-point of the run; restarts reload the
//! mid-point state. Simulated times come from the calibrated cost models
//! in `drms-msg` and `drms-piofs`; data movement is real.

#![deny(missing_docs)]

pub mod args;
pub mod asyncck;
pub mod campaign;
pub mod delta;
pub mod experiment;
pub mod gate;
pub mod json;
pub mod seed;
pub mod stats;
pub mod table;

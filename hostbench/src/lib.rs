//! Host-time benchmark of DRMS checkpoint, restart and localized recovery.
//!
//! Every other gate in the repository is in virtual time: the simulated
//! seconds of the msg/PIOFS cost models. This crate measures what the host
//! spends. Each workload is a closed loop: one thread issues the next
//! operation only after the previous one returned on every task, the way
//! a checkpointing job waits on its checkpoint. Every operation is checked
//! (state digests, virtual-time reference records, storage invariants) and
//! a failed check counts against the operations attempted.
//!
//! A run repeats one *job* (fresh file system, seeded input, a fixed
//! sequence of operations) until its time is up, so every job does the
//! same work and its virtual-time records must repeat bit for bit. A
//! traced run alternates untraced and traced jobs, records host-time spans
//! around every call into the program, and ends with [`probe`], which
//! times each layer's public functions on the workload's own data. See
//! `README.md` beside this crate for the metric map.

#![deny(missing_docs)]

pub mod bench;
pub mod clock;
pub mod data;
pub mod lockstep;
pub mod probe;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

pub use bench::{run, Faults, Outcome, RunConfig};
pub use workloads::Workload;

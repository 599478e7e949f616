//! The three closed-loop workloads.

use std::sync::Arc;

use drms_apps::{bt, Class};
use drms_core::segment::DataSegment;
use drms_darray::DistArray;
use drms_msg::Ctx;
use drms_obs::TraceRecorder;
use drms_slices::Order;

use crate::bench::Bench;
use crate::data;

pub mod delta_chain;
pub mod reconfig_cycle;
pub mod survivor_recover;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's reconfigurable checkpoint protocol on bt: solver steps,
    /// full checkpoints, verified restarts onto another task count.
    ReconfigCycle,
    /// A delta chain over a moving update window, restored on another task
    /// count, swept at the end.
    DeltaChain,
    /// Memory-tier checkpoints, node loss, localized recovery and grow.
    SurvivorRecover,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::ReconfigCycle, Workload::DeltaChain, Workload::SurvivorRecover];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReconfigCycle => "reconfig_cycle",
            Workload::DeltaChain => "delta_chain",
            Workload::SurvivorRecover => "survivor_recover",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The class the workload runs at by default.
    pub fn default_class(self) -> Class {
        match self {
            Workload::DeltaChain => Class::A,
            Workload::ReconfigCycle | Workload::SurvivorRecover => Class::W,
        }
    }

    /// Tasks that take checkpoints, and tasks that restart from them.
    pub fn tasks(self) -> (usize, usize) {
        match self {
            Workload::ReconfigCycle => (reconfig_cycle::CKPT_TASKS, reconfig_cycle::RESTART_TASKS),
            Workload::DeltaChain => (delta_chain::CKPT_TASKS, delta_chain::RESTART_TASKS),
            Workload::SurvivorRecover => (survivor_recover::TASKS, survivor_recover::TASKS - 1),
        }
    }

    /// Array-stream bytes one checkpoint operation covers.
    pub fn state_bytes(self, class: Class) -> u64 {
        let spec = bt(class);
        match self {
            Workload::DeltaChain => 2 * spec.domain(spec.fields[0].components).size() as u64 * 8,
            Workload::ReconfigCycle | Workload::SurvivorRecover => spec.stream_bytes(),
        }
    }

    /// The workload's fields on the calling task of a region, allocated
    /// (zeroed) under the workload's distribution.
    pub fn alloc_fields(self, class: Class, ctx: &Ctx) -> Vec<DistArray<f64>> {
        let spec = bt(class);
        match self {
            Workload::DeltaChain => delta_chain::alloc_fields(&spec, ctx),
            Workload::ReconfigCycle | Workload::SurvivorRecover => spec
                .fields
                .iter()
                .map(|f| {
                    DistArray::new(
                        &f.name,
                        Order::ColumnMajor,
                        spec.dist(f, ctx.ntasks()),
                        ctx.rank(),
                    )
                })
                .collect(),
        }
    }

    /// The workload's seeded fields on the calling task: what its jobs
    /// checkpoint, and what the probe times each layer on.
    pub fn fields(self, class: Class, seed: u64, ctx: &Ctx) -> Vec<DistArray<f64>> {
        let mut fields = self.alloc_fields(class, ctx);
        match self {
            Workload::DeltaChain => delta_chain::fill(seed, &mut fields),
            Workload::ReconfigCycle | Workload::SurvivorRecover => {
                data::fill_seeded(seed, &mut fields)
            }
        }
        fields
    }

    /// The data segment the workload checkpoints with its fields.
    pub fn segment(self, class: Class) -> DataSegment {
        match self {
            Workload::ReconfigCycle => reconfig_cycle::segment(&bt(class)),
            Workload::DeltaChain | Workload::SurvivorRecover => {
                let mut seg = DataSegment::new();
                seg.set_control("iter", 0);
                seg
            }
        }
    }
}

/// Runs one job of the configured workload.
pub fn run_job(b: &Bench, obs: Option<&Arc<TraceRecorder>>) {
    match b.cfg.workload {
        Workload::ReconfigCycle => reconfig_cycle::job(b, obs),
        Workload::DeltaChain => delta_chain::job(b, obs),
        Workload::SurvivorRecover => survivor_recover::job(b, obs),
    }
}

/// A virtual-time record of an `OpBreakdown`: its seconds as bits, then
/// its byte counts.
pub fn breakdown_record(b: &drms_core::report::OpBreakdown) -> Vec<u64> {
    vec![b.init.to_bits(), b.segment.to_bits(), b.arrays.to_bits(), b.segment_bytes, b.array_bytes]
}

/// Shared references to a field list, as the program's checkpoint calls
/// take them.
pub fn handles(fields: &[DistArray<f64>]) -> Vec<&dyn drms_core::CheckpointArray> {
    fields.iter().map(|f| f as &dyn drms_core::CheckpointArray).collect()
}

/// Mutable references to a field list, as the program's restore calls
/// take them.
pub fn handles_mut(fields: &mut [DistArray<f64>]) -> Vec<&mut dyn drms_core::CheckpointArray> {
    fields.iter_mut().map(|f| f as &mut dyn drms_core::CheckpointArray).collect()
}

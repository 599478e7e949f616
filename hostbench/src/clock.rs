//! Host time with the hypervisor's steal taken out.
//!
//! On a virtual machine the hypervisor lends the guest's virtual CPUs to
//! other guests; the guest kernel counts that time as *steal* in
//! `/proc/stat`. On the shared 2-vCPU host this benchmark was built on,
//! steal ranged from 1% to 30% of the CPU time in episodes lasting tens of
//! seconds, and moved whole-run medians by up to 70%. So every time the
//! benchmark reports is wall time minus the steal accrued, summed over all
//! virtual CPUs, while it ran: an estimate of the time on a machine of its
//! own. The whole steal is subtracted, not a per-CPU share, because the
//! tasks meet at barriers so often that a stolen CPU stalls all of them;
//! corrected that way, jobs under heavy steal matched jobs measured with
//! almost none (`README.md`, "Steal").

use std::time::Instant;

/// Kernel ticks per second in `/proc/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: u64 = 100;

/// Steal accrued so far on all CPUs, nanoseconds; 0 where `/proc/stat`
/// is unavailable, which turns the correction off.
pub fn steal_ns() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else { return 0 };
    let ticks = stat
        .lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|t| t.parse::<u64>().ok());
    ticks.map_or(0, |t| t * (1_000_000_000 / USER_HZ))
}

/// A point in host time, with the steal counter read at it.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    at: Instant,
    steal_ns: u64,
}

impl Stamp {
    /// Now.
    pub fn now() -> Stamp {
        Stamp { at: Instant::now(), steal_ns: steal_ns() }
    }

    /// Wall seconds since `self`.
    pub fn wall(&self) -> f64 {
        self.at.elapsed().as_secs_f64()
    }

    /// Seconds of steal accrued on all CPUs since `self`.
    pub fn stolen(&self) -> f64 {
        steal_ns().saturating_sub(self.steal_ns) as f64 * 1e-9
    }

    /// Wall seconds since `self`, less the steal accrued since (never
    /// negative).
    pub fn elapsed(&self) -> f64 {
        let (stolen, wall) = (self.stolen(), self.wall());
        (wall - stolen).max(0.0)
    }
}

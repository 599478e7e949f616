//! Host-side synchronization of one SPMD region's task threads.
//!
//! The benchmark must time an operation from the moment every task may
//! start it to the moment every task has finished it, and must share
//! verdicts and digests between tasks, without touching the simulated
//! clock (a `Ctx` collective would charge virtual time and move the
//! paper's numbers). A [`Lockstep`] does this with a host barrier.

use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// A wait longer than this means a task died outside a collective; the
/// waiter panics so its region reports an error instead of hanging.
const STALL: Duration = Duration::from_secs(60);

struct State {
    arrived: usize,
    generation: u64,
    slots: Vec<u64>,
}

/// A reusable host barrier with one value slot per task.
pub struct Lockstep {
    n: usize,
    state: Mutex<State>,
    cv: Condvar,
}

impl Lockstep {
    /// A lockstep for a region of `n` tasks.
    pub fn new(n: usize) -> Lockstep {
        Lockstep {
            n,
            state: Mutex::new(State { arrived: 0, generation: 0, slots: vec![0; n] }),
            cv: Condvar::new(),
        }
    }

    /// Collective over the region's threads: each task contributes `v` and
    /// every task receives all contributions in rank order.
    pub fn gather(&self, rank: usize, v: u64) -> Vec<u64> {
        let mut st = self.state.lock().expect("lockstep poisoned by a panicking task");
        st.slots[rank] = v;
        self.wait(st);
        let all = self.state.lock().expect("lockstep poisoned by a panicking task").slots.clone();
        // Second phase: nobody overwrites a slot before everyone has read.
        self.wait(self.state.lock().expect("lockstep poisoned by a panicking task"));
        all
    }

    /// Collective: waits until every task arrives.
    pub fn sync(&self) {
        self.wait(self.state.lock().expect("lockstep poisoned by a panicking task"));
    }

    fn wait(&self, mut st: std::sync::MutexGuard<'_, State>) {
        let gen = st.generation;
        st.arrived += 1;
        if st.arrived == self.n {
            st.arrived = 0;
            st.generation += 1;
            self.cv.notify_all();
            return;
        }
        while st.generation == gen {
            let (next, timeout) =
                self.cv.wait_timeout(st, STALL).expect("lockstep poisoned by a panicking task");
            st = next;
            assert!(
                !(timeout.timed_out() && st.generation == gen),
                "lockstep stalled: a task never arrived"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_returns_every_contribution_on_every_task() {
        let ls = Lockstep::new(3);
        let out: Vec<Vec<u64>> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..3)
                .map(|r| {
                    let ls = &ls;
                    s.spawn(move || {
                        let a = ls.gather(r, r as u64 * 10);
                        let b = ls.gather(r, r as u64 + 1);
                        [a, b].concat()
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().expect("task")).collect()
        });
        for o in out {
            assert_eq!(o, vec![0, 10, 20, 1, 2, 3]);
        }
    }
}

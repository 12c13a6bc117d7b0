//! Trial-level parallelism: fan independent seeded simulations across
//! cores.
//!
//! Monte-Carlo acceptance sweeps, ε/n sweeps and equivalence checks all
//! run many *independent* simulations; [`TrialRunner`] distributes them
//! over a worker pool while keeping the result order deterministic
//! (results come back indexed, so `run(k, f)[i] == f(i)` regardless of
//! scheduling).

/// A deterministic fan-out executor for independent trials.
///
/// # Example
///
/// ```
/// use planartest_sim::runtime::TrialRunner;
///
/// let runner = TrialRunner::new(4);
/// let squares = runner.run(8, |trial| trial * trial);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
#[derive(Debug, Clone)]
pub struct TrialRunner {
    threads: usize,
}

impl Default for TrialRunner {
    fn default() -> Self {
        TrialRunner::auto()
    }
}

impl TrialRunner {
    /// A runner with an explicit worker count (`0` = hardware
    /// parallelism, overridden by `PLANARTEST_THREADS`).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            super::auto_threads()
        } else {
            threads
        };
        TrialRunner { threads }
    }

    /// A runner sized to the hardware.
    #[must_use]
    pub fn auto() -> Self {
        TrialRunner::new(0)
    }

    /// The worker count trials fan across.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0), f(1), …, f(trials - 1)` across the pool and returns
    /// the results in trial order.
    pub fn run<T, F>(&self, trials: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.map((0..trials).collect(), f)
    }

    /// Applies `f` to every item across the pool, returning results in
    /// input order.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items.into_iter().map(f).collect();
        }
        // Work-steal over an indexed queue; each worker returns
        // (index, result) pairs through its join handle, so placement is
        // deterministic no matter which worker computed what.
        let queue: Vec<std::sync::Mutex<Option<I>>> = items
            .into_iter()
            .map(|i| std::sync::Mutex::new(Some(i)))
            .collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out: Vec<(usize, T)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if i >= n {
                                return out;
                            }
                            let item = queue[i]
                                .lock()
                                .expect("no panics while holding the slot")
                                .take()
                                .expect("each index claimed once");
                            out.push((i, f(item)));
                        }
                    })
                })
                .collect();
            for handle in handles {
                for (i, value) in handle.join().expect("trial worker panicked") {
                    slots[i] = Some(value);
                }
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every index computed"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_order_regardless_of_threads() {
        for threads in [1, 2, 3, 16] {
            let runner = TrialRunner::new(threads);
            assert_eq!(runner.threads(), threads);
            let out = runner.run(17, |i| 3 * i + 1);
            assert_eq!(out, (0..17).map(|i| 3 * i + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_moves_items() {
        let runner = TrialRunner::new(4);
        let items: Vec<String> = (0..9).map(|i| format!("s{i}")).collect();
        let out = runner.map(items, |s| s.len());
        assert_eq!(out, vec![2; 9]);
    }

    #[test]
    fn empty_and_single() {
        let runner = TrialRunner::new(8);
        assert_eq!(runner.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(runner.run(1, |i| i + 5), vec![5]);
    }

    #[test]
    fn auto_is_at_least_one() {
        assert!(TrialRunner::auto().threads() >= 1);
        assert!(TrialRunner::default().threads() >= 1);
    }
}

//! Cumulative round/message accounting across a multi-phase algorithm.

use std::fmt;

use crate::engine::RunReport;

/// Cumulative statistics of an [`Engine`](crate::Engine) across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Rounds executed by the engine (sum over runs).
    pub rounds: u64,
    /// Rounds explicitly charged for substituted subroutines.
    pub charged_rounds: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Payload words delivered.
    pub words: u64,
    /// Number of `run` invocations (protocol phases with a global barrier).
    pub runs: u64,
}

impl SimStats {
    /// Adds one run's report.
    pub fn absorb(&mut self, report: RunReport) {
        self.rounds += report.rounds;
        self.messages += report.messages;
        self.words += report.words;
        self.runs += 1;
    }

    /// Executed plus charged rounds — the figure the paper's theorems
    /// bound.
    #[must_use]
    pub fn total_rounds(&self) -> u64 {
        self.rounds + self.charged_rounds
    }

    /// The accounting accumulated since `baseline` was captured from the
    /// same engine (field-wise difference). Used by batched drivers to
    /// attribute a shared sub-run section to every instance of a batch.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds, via arithmetic overflow checks) if
    /// `baseline` is not an earlier snapshot of this statistics object.
    #[must_use]
    pub fn delta_since(&self, baseline: &SimStats) -> SimStats {
        SimStats {
            rounds: self.rounds - baseline.rounds,
            charged_rounds: self.charged_rounds - baseline.charged_rounds,
            messages: self.messages - baseline.messages,
            words: self.words - baseline.words,
            runs: self.runs - baseline.runs,
        }
    }

    /// Merges another stats object (e.g. from a sub-protocol engine).
    pub fn merge(&mut self, other: &SimStats) {
        self.rounds += other.rounds;
        self.charged_rounds += other.charged_rounds;
        self.messages += other.messages;
        self.words += other.words;
        self.runs += other.runs;
    }
}

/// A rollup of engine-pass statistics: how many passes ran and their
/// accumulated [`SimStats`]. The service layer folds one delta per
/// engine pass into this to expose cumulative simulated work (rounds,
/// messages, words) alongside wall-clock latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassRollup {
    /// Engine passes folded in.
    pub passes: u64,
    /// Accumulated statistics across those passes.
    pub stats: SimStats,
}

impl PassRollup {
    /// Folds one pass's statistics delta into the rollup.
    pub fn record(&mut self, delta: &SimStats) {
        self.passes += 1;
        self.stats.merge(delta);
    }

    /// Merges another rollup (e.g. from a worker's private counter).
    pub fn merge(&mut self, other: &PassRollup) {
        self.passes += other.passes;
        self.stats.merge(&other.stats);
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rounds (+{} charged), {} messages, {} words, {} phases",
            self.rounds, self.charged_rounds, self.messages, self.words, self.runs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_and_total() {
        let mut s = SimStats::default();
        s.absorb(RunReport {
            rounds: 10,
            messages: 5,
            words: 9,
        });
        s.absorb(RunReport {
            rounds: 3,
            messages: 1,
            words: 1,
        });
        s.charged_rounds = 7;
        assert_eq!(s.rounds, 13);
        assert_eq!(s.total_rounds(), 20);
        assert_eq!(s.runs, 2);
        assert!(s.to_string().contains("13 rounds"));
    }

    #[test]
    fn pass_rollup_accumulates() {
        let mut r = PassRollup::default();
        r.record(&SimStats {
            rounds: 10,
            charged_rounds: 1,
            messages: 5,
            words: 9,
            runs: 2,
        });
        r.record(&SimStats {
            rounds: 4,
            ..SimStats::default()
        });
        assert_eq!(r.passes, 2);
        assert_eq!(r.stats.rounds, 14);
        assert_eq!(r.stats.total_rounds(), 15);

        let mut other = PassRollup::default();
        other.record(&SimStats {
            rounds: 100,
            ..SimStats::default()
        });
        r.merge(&other);
        assert_eq!(r.passes, 3);
        assert_eq!(r.stats.rounds, 114);
    }

    #[test]
    fn merge() {
        let mut a = SimStats {
            rounds: 1,
            charged_rounds: 2,
            messages: 3,
            words: 4,
            runs: 5,
        };
        let b = SimStats {
            rounds: 10,
            charged_rounds: 20,
            messages: 30,
            words: 40,
            runs: 50,
        };
        a.merge(&b);
        assert_eq!(
            a,
            SimStats {
                rounds: 11,
                charged_rounds: 22,
                messages: 33,
                words: 44,
                runs: 55
            }
        );
    }
}

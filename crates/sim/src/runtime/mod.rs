//! The engine's round machinery, and parallelism across trials.
//!
//! Every simulation runs on the one serial round loop of
//! [`Engine`]: rounds are counted bit-identically however they are
//! executed, so threads inside one run could only save wall time, and
//! measured on the benches they lost it. Parallelism lives where the work
//! is independent: [`TrialRunner`] fans whole seeded simulations across
//! cores.
//!
//! * [`mailbox`] — the flat-arena inboxes and their stable delivery;
//! * [`lanes`] — the wake-flag bitset;
//! * [`trials`] — the deterministic fan-out over independent trials.
//!
//! [`Backend`] and [`ParallelEngine`] are compatibility names from the
//! retired worker-pool runtime, kept so existing callers still build.

pub mod lanes;
pub mod mailbox;
pub mod trials;

pub use trials::TrialRunner;

use crate::Engine;

/// Compatibility alias for the retired worker-pool engine: every run now
/// executes on the serial [`Engine`].
pub type ParallelEngine<'g> = Engine<'g>;

/// The execution backend a caller asked for — a compatibility name.
///
/// Every variant runs on the one serial [`Engine`]; the choice changes
/// nothing, neither results nor wall time. The type stays so the service
/// can keep validating the wire and CLI `backend` field, and so existing
/// callers still build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The serial engine.
    Serial,
    /// Formerly the worker-pool engine; now the serial engine.
    Parallel {
        /// Ignored.
        threads: usize,
    },
    /// Formerly a per-run choice between the two; now the serial engine.
    #[default]
    Auto,
}

impl Backend {
    /// The worker threads one run uses: always 1.
    #[must_use]
    pub fn threads_for(self, _n: usize, _max_rounds: u64) -> usize {
        1
    }
}

/// Error parsing a [`Backend`] from its textual form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError;

impl std::fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("backend must be `serial`, `auto`, `parallel` or `parallel:<threads>`")
    }
}

impl std::error::Error for ParseBackendError {}

impl std::str::FromStr for Backend {
    type Err = ParseBackendError;

    /// Parses the textual backend form the service CLI and wire protocol
    /// accept: `serial`, `auto`, `parallel` or `parallel:<threads>`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "serial" => Ok(Backend::Serial),
            "auto" => Ok(Backend::Auto),
            "parallel" => Ok(Backend::Parallel { threads: 0 }),
            other => match other.strip_prefix("parallel:") {
                Some(t) => t
                    .parse::<usize>()
                    .map(|threads| Backend::Parallel { threads })
                    .map_err(|_| ParseBackendError),
                None => Err(ParseBackendError),
            },
        }
    }
}

/// Hardware parallelism, overridden by `PLANARTEST_THREADS` when it
/// holds a positive integer (the override may exceed the core count;
/// unparsable values fall back to the hardware count). Sizes
/// [`TrialRunner::auto`].
#[must_use]
pub fn auto_threads() -> usize {
    std::env::var("PLANARTEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_thread_resolution() {
        assert_eq!(Backend::default(), Backend::Auto);
        for backend in [
            Backend::Serial,
            Backend::Parallel { threads: 0 },
            Backend::Parallel { threads: 8 },
            Backend::Auto,
        ] {
            assert_eq!(backend.threads_for(1 << 20, u64::MAX), 1);
        }
        assert!(auto_threads() >= 1);
    }

    #[test]
    fn backend_parses_from_text() {
        assert_eq!("serial".parse::<Backend>(), Ok(Backend::Serial));
        assert_eq!("auto".parse::<Backend>(), Ok(Backend::Auto));
        assert_eq!(
            "parallel".parse::<Backend>(),
            Ok(Backend::Parallel { threads: 0 })
        );
        assert_eq!(
            " parallel:4 ".parse::<Backend>(),
            Ok(Backend::Parallel { threads: 4 })
        );
        assert_eq!("parallel:x".parse::<Backend>(), Err(ParseBackendError));
        assert_eq!("fast".parse::<Backend>(), Err(ParseBackendError));
        assert!(ParseBackendError.to_string().contains("parallel"));
    }
}

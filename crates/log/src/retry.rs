//! The one fault policy: bounded retry with exponential backoff, and the
//! one loop that runs it ([`RetryPolicy::run`]). The journal's append and
//! sync paths ([`CommitLog::set_retry_policy`](crate::CommitLog::set_retry_policy))
//! and a follower's catch-up rounds all go through it, so "what is
//! retried, how often, how patiently" is decided here and nowhere else.
//!
//! Only *transient* errors are retried: [`LogError::Io`] — the class a
//! flaky device or full disk produces, and the only class a later attempt
//! can plausibly clear. Structural errors (corruption, epoch-chain
//! violations) describe the log or the caller, not the moment, and always
//! surface immediately.
//!
//! There is no jitter: a log has one writer and a follower one tail, so
//! no herd of retriers exists to de-correlate.

use crate::error::LogError;
use std::time::Duration;

/// How many times (and how patiently) an operation is re-attempted after
/// a transient failure. The default is [`RetryPolicy::none`]: one attempt,
/// no retries, so opting in is always explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, the first included (clamped ≥ 1; 1 = never retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry after that.
    pub base_delay: Duration,
    /// Ceiling on any single backoff.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// One attempt, no retries (the default).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
        }
    }

    /// `retries` retries (so `retries + 1` attempts) with the default
    /// 1 ms → 50 ms exponential schedule.
    pub fn retries(retries: u32) -> Self {
        RetryPolicy {
            max_attempts: retries.saturating_add(1),
            ..RetryPolicy::none()
        }
    }

    /// Replace the backoff schedule.
    pub fn with_delays(mut self, base: Duration, max: Duration) -> Self {
        self.base_delay = base;
        self.max_delay = max;
        self
    }

    /// Attempts [`RetryPolicy::run`] makes before giving up:
    /// `max_attempts`, clamped to at least one.
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// Whether `e` is worth retrying: transient I/O yes, structural
    /// (corruption, chain violations, empty/missing history) no.
    pub fn is_transient(e: &LogError) -> bool {
        matches!(e, LogError::Io { .. })
    }

    /// The backoff before retry number `retry` (zero-based):
    /// `min(base · 2^retry, max)`.
    fn delay(&self, retry: u32) -> Duration {
        self.base_delay
            .saturating_mul(1u32.checked_shl(retry).unwrap_or(u32::MAX))
            .min(self.max_delay)
    }

    /// Run `op` under this policy: re-attempt it after each transient
    /// failure, sleeping the backoff in between, until it succeeds, fails
    /// with a non-transient error, or the attempt budget is spent — the
    /// last error then surfaces unchanged. Every failure a later attempt
    /// was made for is counted into `absorbed`.
    pub fn run<T>(
        &self,
        absorbed: &mut u64,
        mut op: impl FnMut() -> Result<T, LogError>,
    ) -> Result<T, LogError> {
        let mut retry = 0;
        loop {
            match op() {
                Err(e) if Self::is_transient(&e) && retry + 1 < self.attempts() => {
                    *absorbed += 1;
                    std::thread::sleep(self.delay(retry));
                    retry += 1;
                }
                done => return done,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_one_attempt() {
        assert_eq!(RetryPolicy::default().max_attempts, 1);
        assert_eq!(RetryPolicy::retries(3).max_attempts, 4);
        assert_eq!(RetryPolicy::retries(u32::MAX).max_attempts, u32::MAX);
    }

    #[test]
    fn only_io_is_transient() {
        assert!(RetryPolicy::is_transient(&LogError::Io {
            operation: "append",
            segment: 0,
            cause: "flaky".into(),
        }));
        for fatal in [
            LogError::Corrupt {
                segment: 0,
                offset: 0,
                reason: "bad".into(),
            },
            LogError::EpochGap {
                expected: 1,
                found: 5,
            },
            LogError::Empty,
            LogError::NotEmpty { segments: 2 },
            LogError::NoCheckpoint { epoch: 3 },
            LogError::EpochUnavailable {
                requested: 9,
                latest: 4,
            },
        ] {
            assert!(!RetryPolicy::is_transient(&fatal), "{fatal:?}");
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p =
            RetryPolicy::retries(8).with_delays(Duration::from_millis(2), Duration::from_millis(9));
        let ladder: Vec<u128> = (0..4).map(|k| p.delay(k).as_millis()).collect();
        assert_eq!(ladder, vec![2, 4, 8, 9], "doubling, capped at max_delay");
        // A huge retry index must not overflow the shift.
        let _ = p.delay(200);
    }
}

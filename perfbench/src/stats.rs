//! Sample statistics and open-loop accounting shared by every workload.
//!
//! The rules here decide what a reported number means, so each has a test:
//!
//! * a percentile is reported only when at least [`MIN_BEYOND`] samples
//!   lie beyond it (otherwise it is one or two outliers, not a tail);
//! * an open-loop request is timed from when it was *due*, so a stall
//!   charges every request queued behind it, and the generator's own
//!   lateness is kept apart;
//! * a failed or refused request is charged as infinitely slow, so it
//!   always counts as over the latency limit and drags the tail with it.

use std::time::Duration;

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (`0 < p < 100`) of `samples` by the nearest-rank
/// rule, or `None` when fewer than [`MIN_BEYOND`] samples rank above it.
/// Failed requests enter as `f64::INFINITY` and sort last.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile must lie in (0, 100)");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Nearest rank: the smallest value with at least p% of samples at or
    // below it.
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    let idx = rank.clamp(1, sorted.len()) - 1;
    if sorted.len() - 1 - idx < MIN_BEYOND {
        return None;
    }
    Some(sorted[idx])
}

/// The median, which needs no tail: `None` only for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Splits `items` into consecutive blocks of `block` (a shorter tail is
/// dropped), computes `stat` over each, and returns the median of the
/// blocks' values: a burst of interference on the host moves the blocks
/// it falls in, not the run's result. `None` without a full block or when
/// any block's statistic is `None`.
pub fn block_median<T>(
    items: &[T],
    block: usize,
    stat: impl Fn(&[T]) -> Option<f64>,
) -> Option<f64> {
    assert!(block > 0, "need a positive block size");
    let per_block: Option<Vec<f64>> = items.chunks_exact(block).map(stat).collect();
    median(&per_block?)
}

/// Samples over `limit`; failed requests (infinite) always count.
pub fn over_limit(samples: &[f64], limit: f64) -> usize {
    samples.iter().filter(|&&s| s > limit).count()
}

/// A fixed-rate open-loop schedule: request `i` is due `i / rate` after
/// the start, whatever happened to the requests before it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    interval: Duration,
}

impl Schedule {
    /// A schedule offering `rate_per_s` requests per second.
    pub fn new(rate_per_s: u32) -> Self {
        assert!(rate_per_s > 0, "need a positive rate");
        Schedule {
            interval: Duration::from_nanos(1_000_000_000 / u64::from(rate_per_s)),
        }
    }

    /// Offset of request `i` from the schedule's start.
    pub fn due(&self, i: u64) -> Duration {
        self.interval * u32::try_from(i).expect("request index fits u32")
    }
}

/// Per-request outcomes of an open-loop run, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct OpenLoopLog {
    /// Latency from due time to completion; `INFINITY` for a failure.
    pub latency_us: Vec<f64>,
    /// How late each request was sent relative to its due time.
    pub lateness_us: Vec<f64>,
    /// Time between send and completion of each request that completed.
    pub rtt_us: Vec<f64>,
    /// Requests that failed or were refused.
    pub failed: u64,
}

impl OpenLoopLog {
    /// Records one request: due, sent and completed as offsets from the
    /// schedule's start; `done == None` means it failed.
    pub fn record(&mut self, due: Duration, sent: Duration, done: Option<Duration>) {
        self.lateness_us.push(us(sent.saturating_sub(due)));
        match done {
            Some(done) => {
                self.latency_us.push(us(done.saturating_sub(due)));
                self.rtt_us.push(us(done.saturating_sub(sent)));
            }
            None => {
                self.failed += 1;
                self.latency_us.push(f64::INFINITY);
            }
        }
    }

    /// Requests attempted.
    pub fn attempted(&self) -> u64 {
        self.latency_us.len() as u64
    }
}

/// A duration in (fractional) microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, with exactly 10 above it.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 99.0), Some(990.0));
        // 999 samples: rank 990 again, but only 9 above it.
        assert_eq!(percentile(&s[..999], 99.0), None);
        // The median of a handful is fine; its tail is the other half.
        assert_eq!(percentile(&s[..21], 50.0), Some(11.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn block_median_ignores_one_disturbed_block() {
        // Five blocks of 1000; the third holds a burst of slow samples.
        let mut s: Vec<f64> = (0..5_000).map(|i| f64::from(i % 1_000)).collect();
        for x in &mut s[2_000..2_100] {
            *x = 1e6;
        }
        let p99 = |b: &[f64]| percentile(b, 99.0);
        // Over the whole run the burst is the p99...
        assert_eq!(percentile(&s, 99.0), Some(1e6));
        // ...over blocks it moves one block of five.
        assert_eq!(block_median(&s, 1_000, p99), Some(989.0));
        // The 400-sample tail is dropped, not reported from a short block.
        assert_eq!(block_median(&s[..4_400], 1_000, p99), Some(989.0));
        assert_eq!(block_median(&s[..999], 1_000, p99), None);
        // A block too small for its percentile fails the whole statistic.
        assert_eq!(block_median(&s, 500, p99), None);
    }

    #[test]
    fn schedule_is_independent_of_completions() {
        let s = Schedule::new(2_000);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(1), Duration::from_micros(500));
        assert_eq!(s.due(2_000), Duration::from_secs(1));
    }

    #[test]
    fn a_stall_charges_the_requests_queued_behind_it() {
        let s = Schedule::new(1_000); // due every 1 ms
        let mut log = OpenLoopLog::default();
        let ms = Duration::from_millis;
        // Request 0 is sent on time but takes 3.5 ms.
        log.record(s.due(0), ms(0), Some(Duration::from_micros(3_500)));
        // Requests 1..=3 were due at 1, 2, 3 ms but could only be sent
        // after the stall; each takes 100 µs once sent.
        let mut sent = Duration::from_micros(3_500);
        for i in 1..=3 {
            let done = sent + Duration::from_micros(100);
            log.record(s.due(i), sent, Some(done));
            sent = done;
        }
        assert_eq!(log.latency_us, vec![3_500.0, 2_600.0, 1_700.0, 800.0]);
        assert_eq!(log.lateness_us, vec![0.0, 2_500.0, 1_600.0, 700.0]);
        // The round trips alone hide the stall from requests 1..=3.
        assert_eq!(log.rtt_us, vec![3_500.0, 100.0, 100.0, 100.0]);
        assert_eq!(log.failed, 0);
        assert_eq!(log.attempted(), 4);
    }

    #[test]
    fn early_send_counts_no_negative_lateness() {
        let mut log = OpenLoopLog::default();
        let d = Duration::from_micros;
        log.record(d(500), d(400), Some(d(450)));
        assert_eq!(log.lateness_us, vec![0.0]);
        assert_eq!(log.latency_us, vec![0.0]);
    }

    #[test]
    fn failed_requests_count_as_over_the_limit() {
        let mut log = OpenLoopLog::default();
        let d = Duration::from_micros;
        for i in 0..1_000u64 {
            let due = d(i * 500);
            if i % 100 == 7 {
                log.record(due, due, None);
            } else {
                log.record(due, due, Some(due + d(50)));
            }
        }
        assert_eq!(log.failed, 10);
        assert_eq!(log.attempted(), 1_000);
        // Fast as every completed request was, the ten failures are over
        // any limit...
        assert_eq!(over_limit(&log.latency_us, 1_000.0), 10);
        // ...and they sort into the tail: 10 failures out of 1000 leave
        // p99 on a completed request, 11 would push it to a failure.
        assert_eq!(percentile(&log.latency_us, 99.0), Some(50.0));
        log.record(d(600_000), d(600_000), None);
        log.record(d(600_500), d(600_500), Some(d(600_550)));
        let p99 = percentile(&log.latency_us, 99.0).expect("1002 samples");
        assert!(p99.is_infinite());
        assert!(p99 > 1_000.0);
    }
}

//! Open-loop (arrival-rate-driven) workload schedules.
//!
//! The closed-loop runs elsewhere in the harness issue the next query the
//! moment the previous one returns, so a slow query *hides* load: the
//! system never sees the requests that would have arrived while it was
//! busy. An open-loop schedule fixes the arrival process instead — a
//! Poisson stream at a configured rate, queries drawn from any
//! [`WorkloadSpec`] regime — and measures latency as *completion minus
//! scheduled arrival*. Queueing delay behind a reorganizing query then
//! shows up in the tail (p99/p999), which is precisely what the paper's
//! "interference of reorganization with the workload" discussion is
//! about and what `repro` reports as `perf-openloop` `p999_us` in
//! `BENCH.json`.
//!
//! Everything is a pure function of the spec: the inter-arrival
//! exponentials are seeded separately from the query positions (same seed,
//! fixed XOR tweak), so changing the arrival rate never changes *which*
//! queries run.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use soc_core::{ColumnValue, ValueRange};

use crate::queries::WorkloadSpec;

/// One scheduled request of an open-loop run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival<V> {
    /// Scheduled arrival instant, in microseconds from the run start.
    pub at_micros: u64,
    /// The range query to issue.
    pub query: ValueRange<V>,
}

/// A reproducible open-loop workload: a query regime plus a Poisson
/// arrival process.
///
/// ```
/// use soc_core::ValueRange;
/// use soc_workload::{OpenLoopSpec, WorkloadSpec};
///
/// let domain = ValueRange::must(0u32, 999_999);
/// let spec = OpenLoopSpec::new(WorkloadSpec::zipf(0.05, 200, 42), 5_000.0);
/// let schedule = spec.schedule(&domain);
/// assert_eq!(schedule.len(), 200);
/// // Arrivals are sorted and deterministic per seed.
/// assert!(schedule.windows(2).all(|w| w[0].at_micros <= w[1].at_micros));
/// assert_eq!(schedule, spec.schedule(&domain));
/// ```
#[derive(Debug, Clone)]
pub struct OpenLoopSpec {
    /// What queries arrive (positions, selectivity, count, seed).
    pub queries: WorkloadSpec,
    /// Mean arrival rate in queries per second.
    pub arrivals_per_sec: f64,
}

impl OpenLoopSpec {
    /// An open-loop schedule issuing `queries` at `arrivals_per_sec`.
    pub fn new(queries: WorkloadSpec, arrivals_per_sec: f64) -> Self {
        OpenLoopSpec {
            queries,
            arrivals_per_sec,
        }
    }

    /// Generates the arrival schedule over `domain`: the spec's query
    /// sequence paired with cumulative exponential inter-arrival times
    /// (a Poisson process at [`Self::arrivals_per_sec`]).
    ///
    /// # Panics
    /// Panics when the rate is not strictly positive, or via
    /// [`WorkloadSpec::generate`] on an invalid selectivity.
    pub fn schedule<V: ColumnValue>(&self, domain: &ValueRange<V>) -> Vec<Arrival<V>> {
        assert!(
            self.arrivals_per_sec > 0.0 && self.arrivals_per_sec.is_finite(),
            "arrival rate must be positive and finite"
        );
        // A distinct stream from the query-position RNG: re-pacing a
        // workload must not re-position it.
        let mut rng = SmallRng::seed_from_u64(self.queries.seed ^ 0x9e37_79b9_7f4a_7c15);
        let mean_gap_micros = 1e6 / self.arrivals_per_sec;
        let mut clock = 0.0f64;
        self.queries
            .generate(domain)
            .into_iter()
            .map(|query| {
                // Inverse-CDF exponential draw; 1-U is in (0, 1], so the
                // log argument never hits zero.
                let u: f64 = rng.gen();
                clock += -(1.0 - u).ln() * mean_gap_micros;
                Arrival {
                    at_micros: clock as u64,
                    query,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> ValueRange<u32> {
        ValueRange::must(0, 999_999)
    }

    #[test]
    fn schedule_is_deterministic_and_monotone() {
        let spec = OpenLoopSpec::new(WorkloadSpec::uniform(0.01, 300, 17), 2_000.0);
        let a = spec.schedule(&domain());
        let b = spec.schedule(&domain());
        assert_eq!(a, b);
        assert_eq!(a.len(), 300);
        assert!(a.windows(2).all(|w| w[0].at_micros <= w[1].at_micros));
    }

    #[test]
    fn mean_inter_arrival_matches_the_rate() {
        // 10k arrivals at 1000/s: the span should be ~10 s of scheduled
        // time, within a loose statistical band.
        let spec = OpenLoopSpec::new(WorkloadSpec::uniform(0.01, 10_000, 3), 1_000.0);
        let schedule = spec.schedule(&domain());
        let span_secs = schedule.last().expect("non-empty").at_micros as f64 / 1e6;
        assert!(
            (span_secs - 10.0).abs() < 1.0,
            "10k arrivals at 1000/s spanned {span_secs:.2} s"
        );
    }

    #[test]
    fn re_pacing_keeps_the_query_sequence() {
        let slow = OpenLoopSpec::new(WorkloadSpec::zipf(0.02, 100, 9), 100.0);
        let fast = OpenLoopSpec::new(WorkloadSpec::zipf(0.02, 100, 9), 100_000.0);
        let qs_slow: Vec<_> = slow.schedule(&domain()).iter().map(|a| a.query).collect();
        let qs_fast: Vec<_> = fast.schedule(&domain()).iter().map(|a| a.query).collect();
        assert_eq!(qs_slow, qs_fast, "rate must not change query positions");
        // But the pacing differs by roughly the rate ratio.
        let last_slow = slow
            .schedule(&domain())
            .last()
            .expect("non-empty")
            .at_micros;
        let last_fast = fast
            .schedule(&domain())
            .last()
            .expect("non-empty")
            .at_micros;
        assert!(last_slow > last_fast * 100);
    }

    #[test]
    #[should_panic(expected = "arrival rate")]
    fn zero_rate_rejected() {
        let _ = OpenLoopSpec::new(WorkloadSpec::uniform(0.01, 1, 1), 0.0).schedule(&domain());
    }
}

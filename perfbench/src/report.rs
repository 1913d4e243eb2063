//! Sample statistics, the metric table and the one-line JSON result.

use std::fmt::Write as _;

/// Fewest samples that must lie beyond a percentile before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// Type-7 (linear interpolation) quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let h = (n - 1) as f64 * q.clamp(0.0, 1.0);
            let lo = h.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
        }
    }
}

/// A set of measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            values: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    fn sorted(&self) -> Vec<f64> {
        let mut s = self.values.clone();
        s.sort_unstable_by(f64::total_cmp);
        s
    }

    /// Share of the samples at or below `limit`.
    pub fn share_within(&self, limit: f64) -> f64 {
        let n = self.values.iter().filter(|&&v| v <= limit).count();
        n as f64 / self.values.len().max(1) as f64
    }

    pub fn median(&self) -> f64 {
        quantile(&self.sorted(), 0.5)
    }

    /// The `q` quantile when at least [`TAIL_SUPPORT`] samples lie beyond
    /// it; otherwise the highest quantile that has that support, with a
    /// note saying so.
    pub fn tail(&self, q: f64) -> (f64, Option<String>) {
        let n = self.values.len();
        let beyond = (n as f64 * (1.0 - q)).floor() as usize;
        if beyond >= TAIL_SUPPORT || n == 0 {
            return (quantile(&self.sorted(), q), None);
        }
        let supported = (1.0 - TAIL_SUPPORT as f64 / n as f64).max(0.5);
        (
            quantile(&self.sorted(), supported),
            Some(format!(
                "p{} unsupported by {n} samples; reporting p{:.1}",
                q * 100.0,
                supported * 100.0
            )),
        )
    }
}

impl From<Vec<f64>> for Samples {
    fn from(values: Vec<f64>) -> Self {
        Samples { values }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Measurements the value summarizes.
    pub samples: usize,
    pub note: Option<String>,
}

/// Builds the metric list of one run.
#[derive(Debug, Default)]
pub struct MetricSet {
    pub metrics: Vec<Metric>,
}

impl MetricSet {
    pub fn add(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
            note: None,
        });
    }

    pub fn median(&mut self, name: &'static str, unit: &'static str, s: &Samples) {
        self.add(name, unit, s.median(), s.len());
    }

    pub fn tail(&mut self, name: &'static str, unit: &'static str, s: &Samples, q: f64) {
        let (value, note) = s.tail(q);
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples: s.len(),
            note,
        });
    }
}

/// What one run prints.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The human-readable table: every metric with its unit and sample
    /// count.
    pub fn table(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# workload {workload}: {} attempted, {} failed",
            self.attempted, self.failed
        );
        for m in &self.metrics {
            let _ = write!(
                out,
                "{:<34} {:>18.4} {:<6} samples={}",
                m.name, m.value, m.unit, m.samples
            );
            if let Some(note) = &m.note {
                let _ = write!(out, "  ({note})");
            }
            out.push('\n');
        }
        out
    }

    /// The single JSON line the harness reads.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
    }

    #[test]
    fn unsupported_tail_falls_back_with_a_note() {
        let mut s = Samples::default();
        for i in 0..500 {
            s.push(i as f64);
        }
        let (_, note) = s.tail(0.99);
        assert!(note.is_some());
        let mut s = Samples::default();
        for i in 0..1000 {
            s.push(i as f64);
        }
        let (_, note) = s.tail(0.99);
        assert!(note.is_none());
    }
}

//! # soc-bench — benchmark harness
//!
//! * `repro` binary — regenerates every table and figure of the paper
//!   (`cargo run -p soc-bench --bin repro --release -- --experiment all`);
//! * Criterion benches (`benches/`) — micro-benchmarks of the kernels,
//!   models, covering-set search and reorganization cost.
//!
//! This library only hosts small helpers shared between the two, plus the
//! [`perf`] module: the wall-clock experiments, the [`perf::Metric`]
//! record `repro` writes to `BENCH.json`, and the gate table it enforces.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod perf;

use soc_core::GaussianDice;
use soc_sim::{Figure, Series};

/// Figure 2 — the Gaussian Dice decision function `O(x)` for a spread of
/// `σ` values. Pure function of the model, no workload needed.
pub fn fig2() -> Figure {
    let sigmas = [0.05, 0.1, 0.2, 0.3, 0.5, 1.0];
    let series = sigmas
        .iter()
        .map(|&sigma| Series {
            label: format!("sigma={sigma}"),
            points: (0..=100)
                .map(|i| {
                    let x = i as f64 / 100.0;
                    (x, GaussianDice::decision_probability(x, sigma))
                })
                .collect(),
        })
        .collect();
    Figure {
        id: "fig2".to_owned(),
        title: "Gaussian Dice decision function O(x) = G(x)/G(0.5)".to_owned(),
        xlabel: "partition ratio".to_owned(),
        ylabel: "O(x)".to_owned(),
        logy: false,
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_has_bell_shapes() {
        let f = fig2();
        assert_eq!(f.series.len(), 6);
        for s in &f.series {
            assert_eq!(s.points.len(), 101);
            // Peak at x = 0.5.
            let mid = s.points[50].1;
            assert!((mid - 1.0).abs() < 1e-12);
            assert!(s.points[0].1 <= mid && s.points[100].1 <= mid);
        }
        // Wider sigma dominates at the edges.
        let narrow = &f.series[0].points[10].1;
        let wide = &f.series[5].points[10].1;
        assert!(narrow < wide);
    }
}

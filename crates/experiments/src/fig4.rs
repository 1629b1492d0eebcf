//! Fig. 4: percentage of rows with data-dependent failures under program
//! content vs every possible content ("ALL FAIL").
//!
//! The paper fills a real chip with 20 SPEC CPU2006 memory images (5
//! snapshots each, one per 100 M instructions) and finds 0.38–5.6 % of rows
//! failing, against 13.5 % under exhaustive worst-case testing — a
//! 2.4×–35.2× gap that is MEMCON's headline motivation.

use dram::module::DramModule;
use dram::timing::TimingParams;
use failure_model::content::SpecBenchmark;
use failure_model::model::CouplingFailureModel;
use failure_model::params::FailureModelParams;
use failure_model::tester::ChipTester;

use crate::output::{heading, RunOptions, TextTable};

/// Per-benchmark failing-row statistics.
#[derive(Debug, Clone)]
pub struct BenchmarkRow {
    /// Benchmark name (Fig. 4 x-axis).
    pub name: &'static str,
    /// Mean failing-row fraction over snapshots.
    pub mean: f64,
    /// Minimum over snapshots (error-bar bottom).
    pub min: f64,
    /// Maximum over snapshots (error-bar top).
    pub max: f64,
}

/// The full figure.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// One row per SPEC benchmark.
    pub benchmarks: Vec<BenchmarkRow>,
    /// The exhaustive worst-case failing-row fraction.
    pub all_fail: f64,
}

impl Fig4 {
    /// The smallest and largest gap between ALL-FAIL and program content
    /// (paper: 2.4×–35.2×).
    #[must_use]
    pub fn gap_range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for b in &self.benchmarks {
            if b.mean > 0.0 {
                let gap = self.all_fail / b.mean;
                lo = lo.min(gap);
                hi = hi.max(gap);
            }
        }
        (lo, hi)
    }
}

/// Runs the Fig. 4 sweep at the 328 ms-equivalent test interval.
///
/// The benchmarks are one [`ChipTester::sweep`] (sound because `fill_with`
/// overwrites every row before each snapshot); results come back in
/// `SpecBenchmark::ALL` order, so the figure is bit-identical to the
/// sequential sweep at any worker count.
#[must_use]
pub fn compute(opts: &RunOptions) -> Fig4 {
    let geometry = crate::output::chip_test_geometry(opts);
    let interval_ms = 328.0;
    let module = DramModule::new(geometry, TimingParams::ddr3_1600(), opts.seed);
    let model = CouplingFailureModel::new(FailureModelParams::calibrated());
    let all_fail = model.worst_case_failing_row_fraction_with_jobs(&module, interval_ms, opts.jobs);

    // Hand the same model to the tester so the worst-case sweep's cell
    // cache is reused by every benchmark's idle sweep.
    let mut tester = ChipTester::with_model(module, model).with_jobs(opts.jobs);
    let words = geometry.words_per_row();
    let benchmarks = tester.sweep(SpecBenchmark::ALL.len(), |tester, bi| {
        let bench = SpecBenchmark::ALL[bi];
        let profile = bench.profile();
        let mut fracs = Vec::new();
        for snapshot in 0..opts.snapshots {
            tester.fill_with(|row| {
                profile.row_content(opts.seed ^ bench as u64, snapshot, row, words)
            });
            let _ = tester.idle_ms(interval_ms);
            fracs.push(tester.read_back().failing_row_fraction());
        }
        let mean = fracs.iter().sum::<f64>() / fracs.len() as f64;
        BenchmarkRow {
            name: bench.name(),
            mean,
            min: fracs.iter().cloned().fold(f64::INFINITY, f64::min),
            max: fracs.iter().cloned().fold(0.0, f64::max),
        }
    });
    Fig4 {
        benchmarks,
        all_fail,
    }
}

/// Renders Fig. 4.
#[must_use]
pub fn render(opts: &RunOptions) -> String {
    let r = compute(opts);
    let mut t = TextTable::new(vec!["Benchmark", "Failing rows", "min", "max"]);
    for b in &r.benchmarks {
        t.row(vec![
            b.name.to_string(),
            format!("{:.2}%", b.mean * 100.0),
            format!("{:.2}%", b.min * 100.0),
            format!("{:.2}%", b.max * 100.0),
        ]);
    }
    t.row(vec![
        "ALL FAIL".to_string(),
        format!("{:.2}%", r.all_fail * 100.0),
        String::new(),
        String::new(),
    ]);
    let (lo, hi) = r.gap_range();
    format!(
        "{}{}\nGap between ALL-FAIL and program content: {:.1}x - {:.1}x\n\
         (paper: 13.5% ALL FAIL, 0.38-5.6% program content, gap 2.4x-35.2x)\n",
        heading("Fig 4", "Rows failing with program content vs all content"),
        t.render(),
        lo,
        hi
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_content_fails_far_less_than_all_fail() {
        let r = compute(&RunOptions::quick());
        assert!(r.all_fail > 0.05, "ALL FAIL {:.3}", r.all_fail);
        for b in &r.benchmarks {
            assert!(
                b.mean < r.all_fail,
                "{}: {} >= ALL FAIL {}",
                b.name,
                b.mean,
                r.all_fail
            );
            assert!(b.min <= b.mean && b.mean <= b.max);
        }
        let (lo, hi) = r.gap_range();
        assert!(lo > 1.5, "minimum gap {lo}");
        assert!(hi > 8.0, "maximum gap {hi}");
    }

    #[test]
    fn compute_is_jobs_invariant() {
        // The parallel sweep must be bit-identical to the sequential path
        // (jobs = 1) for every seed and worker count — floats compared by
        // bit pattern, not tolerance.
        for seed in [3u64, 17, 0xC0FFEE] {
            let base = RunOptions {
                rows_per_bank: 64,
                snapshots: 2,
                seed,
                ..RunOptions::quick()
            };
            let key = |r: &Fig4| -> Vec<(String, u64, u64, u64)> {
                let mut rows: Vec<_> = r
                    .benchmarks
                    .iter()
                    .map(|b| {
                        (
                            b.name.to_string(),
                            b.mean.to_bits(),
                            b.min.to_bits(),
                            b.max.to_bits(),
                        )
                    })
                    .collect();
                rows.push(("ALL FAIL".to_string(), r.all_fail.to_bits(), 0, 0));
                rows
            };
            let sequential = key(&compute(&base.with_jobs(1)));
            for jobs in [2usize, 8] {
                assert_eq!(
                    sequential,
                    key(&compute(&base.with_jobs(jobs))),
                    "seed {seed} diverged at jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn benchmarks_spread_over_a_band() {
        let r = compute(&RunOptions::quick());
        let means: Vec<f64> = r.benchmarks.iter().map(|b| b.mean).collect();
        let min = means.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = means.iter().cloned().fold(0.0, f64::max);
        assert!(
            max > 3.0 * min,
            "benchmark failing-row fractions too uniform: {min}..{max}"
        );
    }
}

//! Fig. 3: DRAM cells fail conditionally on data content.
//!
//! The paper tests one chip with ~100 data patterns and plots, for every
//! failing cell, which patterns made it fail: cells fail under *subsets* of
//! patterns, not all of them — the experimental basis for content-based
//! mitigation. We run the same suite through the simulated chip tester.

use std::collections::BTreeMap;

use dram::module::DramModule;
use dram::timing::TimingParams;
use failure_model::params::FailureModelParams;
use failure_model::patterns::TestPattern;
use failure_model::tester::ChipTester;

use crate::output::{f, heading, RunOptions, TextTable};

/// Result of the pattern sweep.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// Patterns tested.
    pub patterns: usize,
    /// `(pattern index, failing cell id)` dots of the scatter.
    pub dots: Vec<(usize, usize)>,
    /// Distinct failing cells observed.
    pub distinct_cells: usize,
    /// Per-cell number of patterns it failed under.
    pub patterns_per_cell: Vec<usize>,
}

impl Fig3 {
    /// Mean number of patterns a failing cell fails under.
    #[must_use]
    pub fn mean_patterns_per_cell(&self) -> f64 {
        if self.patterns_per_cell.is_empty() {
            return 0.0;
        }
        self.patterns_per_cell.iter().sum::<usize>() as f64 / self.patterns_per_cell.len() as f64
    }

    /// Fraction of failing cells that fail under *every* pattern
    /// (data-independent weak cells).
    #[must_use]
    pub fn always_failing_fraction(&self) -> f64 {
        if self.patterns_per_cell.is_empty() {
            return 0.0;
        }
        let always = self
            .patterns_per_cell
            .iter()
            .filter(|&&n| n == self.patterns)
            .count();
        always as f64 / self.patterns_per_cell.len() as f64
    }
}

/// Runs the 100-pattern sweep at the paper's 328 ms-equivalent interval.
///
/// The per-pattern fill → idle → read-back runs go through
/// [`ChipTester::run_suite`], one reused tester per [`memutil::par`]
/// worker; cell ids are assigned from the in-order reports, so the scatter
/// is bit-identical to the sequential sweep at any worker count.
#[must_use]
pub fn compute(opts: &RunOptions) -> Fig3 {
    let module = DramModule::new(
        crate::output::chip_test_geometry(opts),
        TimingParams::ddr3_1600(),
        opts.seed,
    );
    let mut tester = ChipTester::new(module, FailureModelParams::calibrated()).with_jobs(opts.jobs);
    let patterns = TestPattern::suite(92);
    let reports = tester.run_suite(&patterns, 328.0);
    let g = *tester.module().geometry();
    let mut cell_ids: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    let mut dots = Vec::new();
    for (pi, (_, report)) in reports.iter().enumerate() {
        for (row, bits) in &report.failing_rows {
            let row_id = row.to_row_id(&g);
            for &bit in bits {
                let next = cell_ids.len();
                let id = *cell_ids.entry((row_id, bit)).or_insert(next);
                dots.push((pi, id));
            }
        }
    }
    let mut per_cell = vec![0usize; cell_ids.len()];
    for &(_, cell) in &dots {
        per_cell[cell] += 1;
    }
    Fig3 {
        patterns: patterns.len(),
        dots,
        distinct_cells: cell_ids.len(),
        patterns_per_cell: per_cell,
    }
}

/// Renders the Fig. 3 summary.
#[must_use]
pub fn render(opts: &RunOptions) -> String {
    let r = compute(opts);
    let mut t = TextTable::new(vec!["Statistic", "Value"]);
    t.row(vec!["patterns tested".to_string(), r.patterns.to_string()]);
    t.row(vec![
        "distinct failing cells".to_string(),
        r.distinct_cells.to_string(),
    ]);
    t.row(vec![
        "scatter dots (pattern x cell)".to_string(),
        r.dots.len().to_string(),
    ]);
    t.row(vec![
        "mean patterns per failing cell".to_string(),
        f(r.mean_patterns_per_cell(), 1),
    ]);
    t.row(vec![
        "cells failing under every pattern".to_string(),
        format!("{:.1}%", r.always_failing_fraction() * 100.0),
    ]);
    format!(
        "{}{}\nInterpretation: each failing cell fails under a strict subset of\n\
         patterns (mean {:.1} of {}), i.e. failures are data-dependent.\n",
        heading("Fig 3", "Cells failing with different data content"),
        t.render(),
        r.mean_patterns_per_cell(),
        r.patterns
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_fail_conditionally() {
        let r = compute(&RunOptions::quick());
        assert!(r.distinct_cells > 10, "too few failing cells to analyze");
        // The headline property: cells do NOT fail under every pattern.
        assert!(
            r.mean_patterns_per_cell() < 0.9 * r.patterns as f64,
            "mean {} of {} patterns — failures look data-independent",
            r.mean_patterns_per_cell(),
            r.patterns
        );
        // But they fail under more than one pattern on average (coupling is
        // excitable by many contents).
        assert!(r.mean_patterns_per_cell() > 1.0);
        // Weak (always-failing) cells are the small minority.
        assert!(r.always_failing_fraction() < 0.3);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = compute(&RunOptions::quick());
        let b = compute(&RunOptions::quick());
        assert_eq!(a.dots, b.dots);
        // And at any worker count: the sweep's per-worker testers must
        // reproduce the sequential scatter exactly.
        for jobs in [1usize, 2, 8] {
            let r = compute(&RunOptions::quick().with_jobs(jobs));
            assert_eq!(a.dots, r.dots, "diverged at jobs={jobs}");
        }
    }
}

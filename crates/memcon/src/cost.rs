//! Cost-benefit model of online testing (paper Section 3.3, Fig. 6, and
//! appendix).
//!
//! Testing a row costs extra row reads; the payoff is refreshing it at the
//! LO-REF rate afterwards. Accumulated over time (accounting one refresh
//! per elapsed interval, with the test itself standing in for the row's
//! first LO-REF interval, during which the row deliberately sits
//! unrefreshed):
//!
//! ```text
//! cost_hi(t)     = R · ⌊t / HI⌋
//! cost_memcon(t) = C_test + R · max(⌊t / LO⌋ − 1, 0)
//! ```
//!
//! **MinWriteInterval** is the first HI-REF boundary where `cost_hi`
//! exceeds `cost_memcon`. With the paper's DDR3-1600 costs (`C_test` =
//! 1068/1602 ns, `R` = 39 ns) this reproduces the published values exactly:
//! 560 ms (Read-and-Compare) and 864 ms (Copy-and-Compare) at LO = 64 ms,
//! and 480/448 ms at LO = 128/256 ms.

use dram::timing::TimingParams;
use memutil::codec::{Codec, Dec, Enc};

/// Where the in-test row's content is buffered during a test
/// (paper Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestMode {
    /// Buffer the whole row in the memory controller; read the row twice.
    /// Cost `2·(tRCD + 128·tCCD + tRP)` = 1068 ns.
    ReadAndCompare = 0,
    /// Stage the row in a reserved memory region, keep only an ECC signature
    /// in the controller; read twice plus write once. Cost
    /// `3·(tRCD + 128·tCCD + tRP)` = 1602 ns.
    CopyAndCompare = 1,
}

/// One snapshot byte: the discriminant.
impl Codec for TestMode {
    fn encode(&self, e: &mut Enc) {
        e.u8(*self as u8);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, String> {
        let tag = d.u8()?;
        TestMode::ALL
            .into_iter()
            .find(|m| *m as u8 == tag)
            .ok_or_else(|| format!("unknown test mode tag {tag}"))
    }
}

impl TestMode {
    /// Both modes, in paper order.
    pub const ALL: [TestMode; 2] = [TestMode::ReadAndCompare, TestMode::CopyAndCompare];

    /// Number of full-row passes through the memory controller.
    #[must_use]
    pub fn row_passes(self) -> u32 {
        match self {
            TestMode::ReadAndCompare => 2,
            TestMode::CopyAndCompare => 3,
        }
    }

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TestMode::ReadAndCompare => "Read and Compare",
            TestMode::CopyAndCompare => "Copy and Compare",
        }
    }
}

impl std::fmt::Display for TestMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The per-row cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of one per-row refresh operation, ns (`tRAS + tRP` = 39).
    pub refresh_op_ns: f64,
    /// HI-REF per-row interval, ms (paper: 16).
    pub hi_ms: f64,
    /// LO-REF per-row interval, ms (paper: 64).
    pub lo_ms: f64,
    /// Cache blocks per row (128 for 8 KB rows).
    pub blocks_per_row: u32,
    /// One-row stream latency, ns (`tRCD + blocks·tCCD + tRP` = 534).
    pub row_stream_ns: f64,
}

impl CostModel {
    /// Builds the model from DDR3 timing and the HI/LO refresh intervals.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < hi_ms < lo_ms`.
    #[must_use]
    pub fn new(timing: &TimingParams, blocks_per_row: u32, hi_ms: f64, lo_ms: f64) -> Self {
        assert!(hi_ms > 0.0 && lo_ms > hi_ms, "need 0 < HI < LO");
        CostModel {
            refresh_op_ns: timing.refresh_op_ns(),
            hi_ms,
            lo_ms,
            blocks_per_row,
            row_stream_ns: timing.row_stream_ns(blocks_per_row),
        }
    }

    /// The paper's configuration: DDR3-1600, 8 KB rows, HI = 16 ms,
    /// LO = 64 ms.
    #[must_use]
    pub fn paper_default() -> Self {
        CostModel::new(&TimingParams::ddr3_1600(), 128, 16.0, 64.0)
    }

    /// Latency cost of one test in `mode`, ns (paper appendix: 1068 ns and
    /// 1602 ns).
    #[must_use]
    pub fn test_cost_ns(&self, mode: TestMode) -> f64 {
        f64::from(mode.row_passes()) * self.row_stream_ns
    }

    /// Accumulated cost of keeping one row at HI-REF for `t_ms`.
    #[must_use]
    pub fn accumulated_hi_ns(&self, t_ms: f64) -> f64 {
        (t_ms / self.hi_ms).floor() * self.refresh_op_ns
    }

    /// Accumulated cost of testing at time 0 and then refreshing at LO-REF
    /// for `t_ms`. The test keeps the row idle through its first LO-REF
    /// interval, standing in for that refresh.
    #[must_use]
    pub fn accumulated_memcon_ns(&self, mode: TestMode, t_ms: f64) -> f64 {
        let lo_refreshes = ((t_ms / self.lo_ms).floor() - 1.0).max(0.0);
        self.test_cost_ns(mode) + lo_refreshes * self.refresh_op_ns
    }

    /// The accumulated-cost series of paper Fig. 6: `(t_ms, hi_ns,
    /// read_compare_ns, copy_compare_ns)` at every HI-REF boundary up to
    /// `horizon_ms`.
    #[must_use]
    pub fn fig6_series(&self, horizon_ms: f64) -> Vec<(f64, f64, f64, f64)> {
        let steps = (horizon_ms / self.hi_ms).floor() as u64;
        (1..=steps)
            .map(|i| {
                let t = i as f64 * self.hi_ms;
                (
                    t,
                    self.accumulated_hi_ns(t),
                    self.accumulated_memcon_ns(TestMode::ReadAndCompare, t),
                    self.accumulated_memcon_ns(TestMode::CopyAndCompare, t),
                )
            })
            .collect()
    }

    /// **MinWriteInterval**: the first HI-REF boundary at which staying at
    /// HI-REF becomes strictly more expensive than testing-then-LO-REF.
    ///
    /// # Panics
    ///
    /// Panics if no crossover occurs within 100 s (impossible for sane
    /// parameters — HI-REF accumulates cost ≥ 4× faster).
    #[must_use]
    pub fn min_write_interval_ms(&self, mode: TestMode) -> f64 {
        let mut i = 1u64;
        loop {
            let t = i as f64 * self.hi_ms;
            assert!(
                t < 100_000.0,
                "no cost crossover within 100 s — check HI/LO intervals"
            );
            if self.accumulated_hi_ns(t) > self.accumulated_memcon_ns(mode, t) {
                return t;
            }
            i += 1;
        }
    }

    /// Upper-bound refresh-operation reduction if every row ran at LO-REF
    /// all the time (paper: 75 % for 16/64 ms).
    #[must_use]
    pub fn upper_bound_reduction(&self) -> f64 {
        1.0 - self.hi_ms / self.lo_ms
    }

    /// Cost of a Copy-and-Compare test when the copy is performed inside
    /// DRAM with a RowClone-style row-to-row transfer (paper footnote 6):
    /// the write pass collapses to roughly one row cycle (`tRAS + tRP`)
    /// instead of streaming 128 blocks through the controller.
    #[must_use]
    pub fn copy_and_compare_rowclone_ns(&self) -> f64 {
        2.0 * self.row_stream_ns + self.refresh_op_ns
    }

    /// MinWriteInterval for RowClone-accelerated Copy-and-Compare —
    /// evaluating the optimization the paper leaves to future work.
    #[must_use]
    pub fn min_write_interval_rowclone_ms(&self) -> f64 {
        let cost = self.copy_and_compare_rowclone_ns();
        let mut i = 1u64;
        loop {
            let t = i as f64 * self.hi_ms;
            assert!(t < 100_000.0, "no cost crossover within 100 s");
            let memcon = cost + ((t / self.lo_ms).floor() - 1.0).max(0.0) * self.refresh_op_ns;
            if self.accumulated_hi_ns(t) > memcon {
                return t;
            }
            i += 1;
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_appendix_costs() {
        let m = CostModel::paper_default();
        assert_eq!(m.test_cost_ns(TestMode::ReadAndCompare), 1068.0);
        assert_eq!(m.test_cost_ns(TestMode::CopyAndCompare), 1602.0);
        assert_eq!(m.refresh_op_ns, 39.0);
        assert_eq!(m.row_stream_ns, 534.0);
    }

    #[test]
    fn paper_min_write_intervals_exact() {
        let m = CostModel::paper_default();
        assert_eq!(m.min_write_interval_ms(TestMode::ReadAndCompare), 560.0);
        assert_eq!(m.min_write_interval_ms(TestMode::CopyAndCompare), 864.0);
    }

    #[test]
    fn paper_min_write_intervals_other_lo_refs() {
        // Paper: 480 ms at LO = 128 ms and 448 ms at LO = 256 ms.
        let t = TimingParams::ddr3_1600();
        let m128 = CostModel::new(&t, 128, 16.0, 128.0);
        assert_eq!(m128.min_write_interval_ms(TestMode::ReadAndCompare), 480.0);
        let m256 = CostModel::new(&t, 128, 16.0, 256.0);
        assert_eq!(m256.min_write_interval_ms(TestMode::ReadAndCompare), 448.0);
    }

    #[test]
    fn paper_band_is_448_to_864() {
        // Headline claim: MinWriteInterval ranges 448-864 ms across modes
        // and LO-REF intervals.
        let t = TimingParams::ddr3_1600();
        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        for lo in [64.0, 128.0, 256.0] {
            for mode in TestMode::ALL {
                let v = CostModel::new(&t, 128, 16.0, lo).min_write_interval_ms(mode);
                min = min.min(v);
                max = max.max(v);
            }
        }
        assert_eq!(min, 448.0);
        assert_eq!(max, 864.0);
    }

    #[test]
    fn fig6_series_shape() {
        let m = CostModel::paper_default();
        let series = m.fig6_series(1000.0);
        assert_eq!(series.len(), 62); // 1000/16 floored
                                      // HI-REF line starts below the test cost but grows faster.
        let first = series.first().unwrap();
        assert!(first.1 < first.2 && first.2 < first.3);
        let last = series.last().unwrap();
        assert!(last.1 > last.2, "HI should exceed Read&Compare by 1 s");
        // Monotone accumulation.
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1 && w[1].2 >= w[0].2 && w[1].3 >= w[0].3);
        }
    }

    #[test]
    fn crossover_matches_min_write_interval() {
        let m = CostModel::paper_default();
        for mode in TestMode::ALL {
            let mwi = m.min_write_interval_ms(mode);
            assert!(m.accumulated_hi_ns(mwi) > m.accumulated_memcon_ns(mode, mwi));
            let before = mwi - m.hi_ms;
            assert!(m.accumulated_hi_ns(before) <= m.accumulated_memcon_ns(mode, before));
        }
    }

    #[test]
    fn upper_bound_is_75_percent() {
        assert_eq!(CostModel::paper_default().upper_bound_reduction(), 0.75);
    }

    #[test]
    fn mode_metadata() {
        assert_eq!(TestMode::ReadAndCompare.row_passes(), 2);
        assert_eq!(TestMode::CopyAndCompare.row_passes(), 3);
        assert_eq!(TestMode::CopyAndCompare.to_string(), "Copy and Compare");
    }

    #[test]
    #[should_panic(expected = "need 0 < HI < LO")]
    fn rejects_inverted_intervals() {
        let _ = CostModel::new(&TimingParams::ddr3_1600(), 128, 64.0, 16.0);
    }

    #[test]
    fn rowclone_shrinks_copy_and_compare() {
        // Footnote 6: in-DRAM copy makes Copy-and-Compare nearly as cheap
        // as Read-and-Compare.
        let m = CostModel::paper_default();
        let rc = m.copy_and_compare_rowclone_ns();
        assert_eq!(rc, 1068.0 + 39.0);
        assert!(rc < m.test_cost_ns(TestMode::CopyAndCompare));
        let mwi = m.min_write_interval_rowclone_ms();
        assert!(mwi < m.min_write_interval_ms(TestMode::CopyAndCompare));
        assert!(mwi >= m.min_write_interval_ms(TestMode::ReadAndCompare));
        assert_eq!(mwi, 592.0); // 1107 ns amortizes two HI steps later
    }
}

//! The per-chip vulnerable-cell cache behind the evaluation kernel.
//!
//! The paper's central physical fact is that vulnerable cells are *fixed
//! per chip* — only the content around them changes (Section 3). The model
//! mirrors that: [`crate::model::CouplingFailureModel::vulnerable_cells`]
//! is a pure function of `(chip_seed, rank, bank, internal_row)`, yet the
//! naive evaluation path re-ran its Poisson/RNG sampling on every sweep.
//! [`VulnerableCellCache`] materializes each internal row's cells once per
//! chip and keeps them for the lifetime of the model, together with the
//! remap results ([`dram::remap::RemapTable::physical_of`] /
//! [`dram::remap::RemapTable::live_neighbors`]) and the system-space
//! attribution of every cell — all the per-cell work that does not depend
//! on content.
//!
//! Structure: `cache → chip (keyed by seed + geometry) → bank-major row
//! slots → OnceLock<RowCells>`. Rows materialize lazily and independently,
//! so concurrent [`memutil::par`] workers (which partition sweeps by bank)
//! never contend on a lock: the chip map takes a read lock on the hot
//! path, and each row slot is a lock-free [`OnceLock`].
//!
//! Cloning a cache (or a model holding one) shares the underlying storage,
//! which is what lets the per-worker testers of a `ChipTester::sweep`, the
//! Fig. 4 oracle and tester, and repeated benchmark iterations all pay the
//! RNG sampling once.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use dram::address::RowAddr;
use dram::module::DramModule;

use crate::model::VulnerableCell;
use crate::params::FailureModelParams;

/// Identity of one simulated chip: everything the cell layout depends on.
/// Two modules with equal keys are the same die, so they share cached rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ChipKey {
    chip_seed: u64,
    ranks: u8,
    banks: u8,
    rows_per_bank: u32,
    bits_per_row: u64,
}

impl ChipKey {
    fn of(module: &DramModule) -> ChipKey {
        let g = module.geometry();
        ChipKey {
            chip_seed: module.chip_seed(),
            ranks: g.ranks,
            banks: g.banks,
            rows_per_bank: g.rows_per_bank,
            bits_per_row: g.bits_per_row(),
        }
    }
}

/// One cached vulnerable cell: the sampled physics plus every content-
/// independent lookup the kernel would otherwise repeat per evaluation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CachedCell {
    /// The sampled cell (retention and aggressor weights).
    pub cell: VulnerableCell,
    /// Internal bit of the live physical left neighbour — the memoized
    /// `live_neighbors(physical_of(internal_bit)).0`.
    pub left: Option<u64>,
    /// Internal bit of the live physical right neighbour.
    pub right: Option<u64>,
    /// System bit the cell's flip is observed at.
    pub sys_bit: u64,
}

/// The cached cells of one internal row.
#[derive(Debug)]
pub(crate) struct RowCells {
    /// System row the internal row is observed at.
    pub sys_row: u32,
    /// Cells sorted by `internal_bit` (stable: generation order on ties).
    pub cells: Box<[CachedCell]>,
    /// Generation-order permutation: the cell generated `g`-th is
    /// `cells[by_gen[g]]`. The kernel walks this so its output order is
    /// byte-identical to the naive sampling loop.
    pub by_gen: Box<[usize]>,
}

/// All cached rows of one chip, plus the flattened bank list the module
/// sweeps iterate (replacing the per-call `Vec<(rank, bank)>` rebuilds).
#[derive(Debug)]
pub(crate) struct ChipCells {
    rows_per_bank: usize,
    /// `(rank, bank)` in rank-major order.
    bank_list: Vec<(u8, u8)>,
    /// Bank-major row slots: `bank_idx * rows_per_bank + internal_row`.
    rows: Vec<OnceLock<RowCells>>,
}

impl ChipCells {
    fn new(module: &DramModule) -> ChipCells {
        let g = module.geometry();
        let mut bank_list = Vec::with_capacity(usize::from(g.ranks) * usize::from(g.banks));
        for rank in 0..g.ranks {
            for bank in 0..g.banks {
                bank_list.push((rank, bank));
            }
        }
        let rows_per_bank = g.rows_per_bank as usize;
        let total = bank_list.len() * rows_per_bank;
        ChipCells {
            rows_per_bank,
            bank_list,
            rows: (0..total).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The `(rank, bank)` pairs of this chip in rank-major sweep order.
    pub fn bank_list(&self) -> &[(u8, u8)] {
        &self.bank_list
    }

    /// The cached cells of one internal row, materialized on first use.
    pub fn row(
        &self,
        params: &FailureModelParams,
        module: &DramModule,
        rank: u8,
        bank: u8,
        internal_row: u32,
    ) -> &RowCells {
        let g = module.geometry();
        let bank_idx = usize::from(rank) * usize::from(g.banks) + usize::from(bank);
        let slot = bank_idx * self.rows_per_bank + internal_row as usize;
        self.rows[slot].get_or_init(|| build_row(params, module, rank, bank, internal_row))
    }

    /// [`ChipCells::row`], counting a cold fill into `cold` when this call
    /// materializes the slot. The [`OnceLock`] init closure runs exactly
    /// once per slot process-wide, so summed cold counts are independent
    /// of worker interleaving.
    pub fn row_counted(
        &self,
        params: &FailureModelParams,
        module: &DramModule,
        rank: u8,
        bank: u8,
        internal_row: u32,
        cold: &mut u64,
    ) -> &RowCells {
        let g = module.geometry();
        let bank_idx = usize::from(rank) * usize::from(g.banks) + usize::from(bank);
        let slot = bank_idx * self.rows_per_bank + internal_row as usize;
        let mut built = false;
        let row = self.rows[slot].get_or_init(|| {
            built = true;
            build_row(params, module, rank, bank, internal_row)
        });
        if built {
            *cold += 1;
        }
        row
    }
}

fn build_row(
    params: &FailureModelParams,
    module: &DramModule,
    rank: u8,
    bank: u8,
    internal_row: u32,
) -> RowCells {
    let bits = module.geometry().bits_per_row();
    let generated =
        crate::model::sample_row_cells(params, module.chip_seed(), rank, bank, internal_row, bits);
    let probe_addr = RowAddr::new(rank, bank, 0);
    let remap = module.remap_for(probe_addr);
    let scrambler = module.scrambler_for(probe_addr);

    let mut order: Vec<usize> = (0..generated.len()).collect();
    order.sort_by_key(|&g| generated[g].internal_bit);
    let mut by_gen = vec![0usize; generated.len()];
    for (pos, &g) in order.iter().enumerate() {
        by_gen[g] = pos;
    }
    let cells = order
        .iter()
        .map(|&g| {
            let cell = generated[g];
            let (left, right) = remap.live_neighbors(remap.physical_of(cell.internal_bit));
            CachedCell {
                cell,
                left,
                right,
                sys_bit: scrambler.to_system_bit(cell.internal_bit),
            }
        })
        .collect();
    RowCells {
        sys_row: scrambler.to_system_row(internal_row),
        cells,
        by_gen: by_gen.into_boxed_slice(),
    }
}

/// Shared, lazily populated cache of every chip's vulnerable cells.
///
/// Lives inside [`crate::model::CouplingFailureModel`]; cloning the model
/// (or this cache) shares the storage. Thread-safe: sweeps partitioned by
/// bank never touch the same row slot, and the chip map is read-locked on
/// the hot path.
#[derive(Debug, Clone, Default)]
pub struct VulnerableCellCache {
    inner: Arc<CacheInner>,
}

#[derive(Debug, Default)]
struct CacheInner {
    chips: RwLock<HashMap<ChipKey, Arc<ChipCells>>>,
}

impl VulnerableCellCache {
    /// The cached cell structure of `module`'s chip, created on first use.
    pub(crate) fn chip(&self, module: &DramModule) -> Arc<ChipCells> {
        let key = ChipKey::of(module);
        if let Some(chip) = self
            .inner
            .chips
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return Arc::clone(chip);
        }
        let mut chips = self
            .inner
            .chips
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(chips.entry(key).or_insert_with(|| {
            telemetry::count("failure_model.cache.chip_builds", 1);
            Arc::new(ChipCells::new(module))
        }))
    }

    /// Number of chips with cached structure (diagnostics/tests).
    #[must_use]
    pub fn chip_count(&self) -> usize {
        self.inner
            .chips
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram::geometry::DramGeometry;
    use dram::timing::TimingParams;

    #[test]
    fn cached_rows_match_direct_sampling() {
        let module = DramModule::new(DramGeometry::tiny(), TimingParams::ddr3_1600(), 77);
        let params = FailureModelParams::calibrated();
        let cache = VulnerableCellCache::default();
        let chip = cache.chip(&module);
        let bits = module.geometry().bits_per_row();
        for &(rank, bank) in chip.bank_list() {
            for internal_row in 0..module.geometry().rows_per_bank {
                let row = chip.row(&params, &module, rank, bank, internal_row);
                let direct = crate::model::sample_row_cells(
                    &params,
                    module.chip_seed(),
                    rank,
                    bank,
                    internal_row,
                    bits,
                );
                assert_eq!(row.cells.len(), direct.len());
                assert_eq!(row.by_gen.len(), direct.len());
                // `by_gen` recovers the exact generation order.
                for (g, cell) in direct.iter().enumerate() {
                    assert_eq!(&row.cells[row.by_gen[g]].cell, cell);
                }
                // Sorted invariant.
                for pair in row.cells.windows(2) {
                    assert!(pair[0].cell.internal_bit <= pair[1].cell.internal_bit);
                }
                // Precomputed remap and attribution agree with the source.
                let remap = module.remap_for(RowAddr::new(rank, bank, 0));
                let scrambler = module.scrambler_for(RowAddr::new(rank, bank, 0));
                assert_eq!(row.sys_row, scrambler.to_system_row(internal_row));
                for c in &row.cells {
                    let (l, r) = remap.live_neighbors(remap.physical_of(c.cell.internal_bit));
                    assert_eq!((c.left, c.right), (l, r));
                    assert_eq!(c.sys_bit, scrambler.to_system_bit(c.cell.internal_bit));
                }
            }
        }
    }

    #[test]
    fn bank_list_is_rank_major() {
        let module = DramModule::new(DramGeometry::tiny(), TimingParams::ddr3_1600(), 3);
        let cache = VulnerableCellCache::default();
        let chip = cache.chip(&module);
        assert_eq!(chip.bank_list(), &[(0, 0), (0, 1)]);
    }

    #[test]
    fn same_chip_shares_structure_distinct_chips_do_not() {
        let a = DramModule::new(DramGeometry::tiny(), TimingParams::ddr3_1600(), 1);
        let b = DramModule::new(DramGeometry::tiny(), TimingParams::ddr3_1600(), 1);
        let c = DramModule::new(DramGeometry::tiny(), TimingParams::ddr3_1600(), 2);
        let cache = VulnerableCellCache::default();
        assert!(Arc::ptr_eq(&cache.chip(&a), &cache.chip(&b)));
        assert!(!Arc::ptr_eq(&cache.chip(&a), &cache.chip(&c)));
        assert_eq!(cache.chip_count(), 2);
        // A clone shares the same storage.
        let clone = cache.clone();
        assert!(Arc::ptr_eq(&clone.chip(&a), &cache.chip(&a)));
    }
}

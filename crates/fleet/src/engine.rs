//! The epoch-batched fleet scheduler.
//!
//! A [`Fleet`] owns one [`MemconEngine`] per shard, each mid-way through a
//! stepped run (`begin_run` / `advance_until` / `finish_run`). Every
//! [`Fleet::run_epoch`] call advances **all** shards to the next epoch
//! boundary — `epoch × epoch_quanta × quantum` on the shared fleet clock —
//! fanning the per-shard work across the [`memutil::par`] pool, then
//! applies cross-shard bookkeeping in deterministic shard order.

use std::sync::{Arc, Mutex};

use memcon::engine::{LiveStats, MemconEngine, MemconReport, RecoveryStats};
use memcon::refreshmgr::PageState;
use memcon::testengine::{ContentOracle, FailureOracle, RateOracle};
use memutil::par;
use store::{Record, Store, StoreError};

use crate::durable::{self, EpochEntry, FleetMeta, FleetRecovery};
use crate::report::{FleetReport, LatencySummary, ShardSummary};
use crate::{FleetOracle, FleetPlan, ShardSpec};

/// Microsecond-scale bucket edges of the per-shard step-latency histogram
/// (`fleet.step.latency_us`, timing class).
pub const STEP_LATENCY_EDGES_US: [u64; 9] = [50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000];

/// One simulated DIMM mid-run.
#[derive(Debug)]
struct Shard {
    spec: ShardSpec,
    engine: MemconEngine,
    /// Set once the shard's trace horizon is reached and its run finished.
    report: Option<MemconReport>,
    /// Epoch at which the shard finished (cross-shard roll-up state).
    done_epoch: Option<u64>,
    /// Wall-clock nanoseconds of each epoch step (timing class only).
    step_latency_ns: Vec<u64>,
    /// Live-stats snapshot at the previous epoch boundary, so the
    /// post-barrier observability flush emits per-epoch deltas.
    last_live: LiveStats,
}

/// A running fleet: per-shard engines plus the epoch clock.
#[derive(Debug)]
pub struct Fleet {
    shards: Vec<Shard>,
    /// Epochs completed so far.
    epoch: u64,
    /// Fleet-clock nanoseconds per epoch.
    epoch_ns: u64,
    /// Longest shard trace horizon, ns.
    horizon_ns: u64,
    seed: u64,
    epoch_quanta: u64,
    /// Armed SLO monitor, evaluated post-barrier on every epoch sample.
    /// Shared behind a mutex so a scrape endpoint can serve `HEALTH`
    /// while the fleet runs.
    health: Option<Arc<Mutex<telemetry::HealthMonitor>>>,
    /// Fleet meta store (epoch-log journal + barrier snapshots), when the
    /// fleet is durable.
    meta: Option<Store>,
    /// First meta-store failure: the fleet-level durability plane goes
    /// quiet from that point (shard stores latch independently).
    meta_error: Option<StoreError>,
    /// Per-epoch observability entries — the durable epoch log.
    epoch_log: Vec<EpochEntry>,
}

impl Fleet {
    /// Instantiates engines for every shard of `plan` and begins their
    /// runs. Cheap relative to [`FleetPlan::expand`]: traces are shared by
    /// `Arc`, and shards of one chip-seed group share the chip's immutable
    /// state (scrambler tables, vulnerable-cell cache) through clones of a
    /// per-group template rather than rebuilding it per shard.
    ///
    /// # Panics
    ///
    /// Panics if the plan is empty (checked at expansion), or if the
    /// configured store directory cannot be created (an environment
    /// failure, like the trace-synthesis panics at expansion).
    #[must_use]
    pub fn new(plan: &FleetPlan) -> Fleet {
        let config = &plan.config;
        let oracles: Vec<Box<dyn FailureOracle>> = match config.oracle {
            FleetOracle::Rate { fail_rate } => (plan.shards.iter())
                .map(|spec| Box::new(RateOracle::new(fail_rate, spec.chip_seed)) as _)
                .collect(),
            FleetOracle::Content { rows_per_bank } => {
                let templates = ContentTemplates::build(plan, rows_per_bank);
                (plan.shards.iter())
                    .map(|spec| Box::new(templates.oracle(spec, config.engine.lo_ms)) as _)
                    .collect()
            }
        };
        let engines: Vec<(MemconEngine, LiveStats)> = plan
            .shards
            .iter()
            .zip(oracles)
            .map(|(spec, oracle)| {
                let mut engine =
                    MemconEngine::with_oracle(config.engine, spec.trace.n_pages(), oracle);
                engine.set_fault_plan(spec.fault_plan.clone());
                if let Some(base) = &config.store_dir {
                    // Snapshot cadence = epoch_quanta: every shard
                    // publishes a snapshot exactly at each epoch barrier.
                    let store =
                        Store::create(&durable::shard_dir(base, spec.node), config.durability)
                            // memlint: allow(no-unwrap): an uncreatable store directory is an environment failure, like trace synthesis
                            .expect("per-shard store directory must be creatable");
                    engine
                        .attach_store(store, config.epoch_quanta)
                        // memlint: allow(no-unwrap): validate() rejects every config attach_store can refuse
                        .expect("rate oracles always persist (validate() rejects content+store)");
                }
                engine.begin_run(&spec.trace);
                (engine, LiveStats::default())
            })
            .collect();
        let meta = config.store_dir.as_ref().map(|base| {
            let mut meta = Store::create(&durable::meta_dir(base), config.durability)
                // memlint: allow(no-unwrap): an uncreatable store directory is an environment failure, like trace synthesis
                .expect("fleet meta store directory must be creatable");
            // Anchor meta snapshot: a crash before the first barrier still
            // recovers (epoch 0, empty log, default cursors).
            let anchor = FleetMeta {
                epoch: 0,
                entries: Vec::new(),
                last_live: vec![LiveStats::default(); engines.len()],
            };
            meta.publish_snapshot(&anchor.encode())
                // memlint: allow(no-unwrap): a store that cannot take its first snapshot is unusable — die loudly
                .expect("anchor meta snapshot must publish");
            meta
        });
        Fleet::assemble(plan, engines, 0, meta, Vec::new())
    }

    /// Recovers a durable fleet from `plan.config.store_dir` at its last
    /// epoch barrier: opens the meta store, replays the epoch log through
    /// the telemetry registry (restoring the `fleet.obs.*` counters and
    /// the time-series ring byte-identically), then recovers every shard
    /// engine from its own store across `jobs` workers. The caller
    /// resumes with [`Fleet::run_epoch`] / [`Fleet::run_to_completion`]
    /// exactly as the crashed process would have; the health monitor is
    /// not restored — re-arm one with [`Fleet::set_health_monitor`].
    ///
    /// `plan` must be the same expansion the crashed fleet ran (plans are
    /// pure functions of the config, so re-expanding the config is
    /// enough).
    ///
    /// # Errors
    ///
    /// [`StoreError::Unsupported`] when the config names no store
    /// directory or the on-disk fleet already finished its runs;
    /// [`StoreError::Corrupt`] when the meta snapshot is unusable or
    /// disagrees with the plan's shard count; any [`StoreError`] from
    /// opening the underlying stores.
    pub fn recover(plan: &FleetPlan, jobs: usize) -> Result<(Fleet, FleetRecovery), StoreError> {
        let config = &plan.config;
        let Some(base) = &config.store_dir else {
            return Err(StoreError::Unsupported(
                "fleet config names no durable store directory".to_string(),
            ));
        };
        let (meta_store, meta_rec) =
            Store::open(&durable::meta_dir(base), config.durability, None)?;
        let snap = meta_rec.snapshot.as_ref().ok_or_else(|| {
            StoreError::Corrupt("fleet meta store holds no usable snapshot".to_string())
        })?;
        let meta = FleetMeta::decode(&snap.payload).map_err(StoreError::Corrupt)?;
        if meta.last_live.len() != plan.shards.len() {
            return Err(StoreError::Corrupt(format!(
                "meta snapshot tracks {} shards but the plan expands {}",
                meta.last_live.len(),
                plan.shards.len()
            )));
        }
        // Replay the epoch log through the *same* emission path the live
        // barriers use, before any fresh barrier runs.
        for entry in &meta.entries {
            let _ = durable::emit_epoch_entry(entry);
        }
        let recovered: Vec<Result<(MemconEngine, store::Recovered), StoreError>> =
            par::ordered_map_with(jobs, plan.shards.len(), |i| {
                MemconEngine::recover(
                    &durable::shard_dir(base, plan.shards[i].node),
                    config.durability,
                    None,
                )
            });
        let mut totals = FleetRecovery {
            epochs_replayed: meta.entries.len() as u64,
            replayed_records: meta_rec.replayed_records,
            truncated_bytes: meta_rec.truncated_bytes,
            snapshots_skipped: meta_rec.snapshots_skipped,
            stale_segments: meta_rec.stale_segments,
            ..FleetRecovery::default()
        };
        let mut engines = Vec::with_capacity(plan.shards.len());
        for (i, result) in recovered.into_iter().enumerate() {
            let (engine, rec) = result?;
            if !engine.mid_run() {
                return Err(StoreError::Unsupported(format!(
                    "shard {i} already finished its run; a completed fleet cannot resume"
                )));
            }
            totals.shards_recovered += 1;
            totals.replayed_records += rec.replayed_records;
            totals.truncated_bytes += rec.truncated_bytes;
            totals.snapshots_skipped += rec.snapshots_skipped;
            totals.stale_segments += rec.stale_segments;
            engines.push((engine, meta.last_live[i]));
        }
        let fleet = Fleet::assemble(plan, engines, meta.epoch, Some(meta_store), meta.entries);
        Ok((fleet, totals))
    }

    /// The one place a [`Fleet`] is put together, for both [`Fleet::new`]
    /// and [`Fleet::recover`]: pairs every plan shard with its engine and
    /// its live-stats snapshot at the previous barrier, and starts the
    /// epoch clock at `epoch`.
    fn assemble(
        plan: &FleetPlan,
        engines: Vec<(MemconEngine, LiveStats)>,
        epoch: u64,
        meta: Option<Store>,
        epoch_log: Vec<EpochEntry>,
    ) -> Fleet {
        let config = &plan.config;
        let quantum_ns = (config.engine.quantum_ms * 1e6) as u64;
        let shards = plan
            .shards
            .iter()
            .zip(engines)
            .map(|(spec, (engine, last_live))| Shard {
                spec: spec.clone(),
                engine,
                report: None,
                done_epoch: None,
                step_latency_ns: Vec::new(),
                last_live,
            })
            .collect();
        Fleet {
            shards,
            epoch,
            epoch_ns: quantum_ns.saturating_mul(config.epoch_quanta).max(1),
            horizon_ns: plan
                .shards
                .iter()
                .map(|s| s.trace.duration_ns())
                .max()
                .unwrap_or(0),
            seed: config.seed,
            epoch_quanta: config.epoch_quanta,
            health: None,
            meta,
            meta_error: None,
            epoch_log,
        }
    }

    /// The first meta-store failure of this fleet's lifetime, if any.
    #[must_use]
    pub fn meta_store_error(&self) -> Option<&StoreError> {
        self.meta_error.as_ref()
    }

    /// Arms an SLO monitor: every epoch's post-barrier sample point is
    /// evaluated against its rules. Pass a shared handle when a scrape
    /// endpoint should serve `HEALTH` concurrently.
    pub fn set_health_monitor(&mut self, monitor: Arc<Mutex<telemetry::HealthMonitor>>) {
        self.health = Some(monitor);
    }

    /// Epochs completed so far.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether every shard has finished its run.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.epoch > 0 && self.epoch.saturating_mul(self.epoch_ns) >= self.horizon_ns
    }

    /// Advances every shard one epoch across `jobs` workers (`0` =
    /// resolve automatically), then applies cross-shard bookkeeping in
    /// shard order. Returns `true` while work remains.
    ///
    /// Shard advancement commutes (disjoint state; telemetry adds are
    /// atomic), so results are byte-identical at any `jobs` value.
    pub fn run_epoch(&mut self, jobs: usize) -> bool {
        if self.is_done() {
            return false;
        }
        self.epoch += 1;
        let _epoch_span = telemetry::tree_span("fleet.epoch");
        telemetry::annotate("epoch", self.epoch);
        let limit = self.epoch.saturating_mul(self.epoch_ns);
        let _ = par::ordered_map_mut(jobs, &mut self.shards, |i, shard| {
            if shard.report.is_some() {
                return;
            }
            // Nested under `fleet.epoch` at jobs=1 (same thread); a root
            // span on pool workers — tree shape is timing-class data.
            let _step_span = telemetry::tree_span("fleet.shard_step");
            telemetry::annotate("shard", i as u64);
            let ((), elapsed_ns) = telemetry::time_ns(|| {
                shard.engine.advance_until(&shard.spec.trace, limit);
                if limit >= shard.spec.trace.duration_ns() {
                    shard.report = Some(shard.engine.finish_run());
                    shard.done_epoch = Some(self.epoch);
                }
            });
            shard.step_latency_ns.push(elapsed_ns);
            telemetry::observe_timing(
                "fleet.step.latency_us",
                &STEP_LATENCY_EDGES_US,
                elapsed_ns / 1_000,
            );
        });
        self.epoch_barrier();
        !self.is_done()
    }

    /// Post-epoch barrier bookkeeping, in deterministic shard order:
    /// folds every shard's [`LiveStats`] delta since the previous epoch
    /// into an [`EpochEntry`], emits it through the `fleet.obs.*` counters
    /// and the registry's time-series ring (tick = epoch), evaluates the
    /// armed health monitor (if any) against the fresh point, and — on a
    /// durable fleet — appends the entry to the epoch log and persists the
    /// meta snapshot.
    ///
    /// Runs single-threaded after the epoch barrier, so the sampled deltas
    /// are a function of simulation state only — the series is
    /// deterministic and byte-identical at any `jobs` value.
    fn epoch_barrier(&mut self) {
        if !telemetry::enabled() && self.meta.is_none() {
            return;
        }
        let mut entry = EpochEntry {
            epoch: self.epoch,
            ..EpochEntry::default()
        };
        for shard in &mut self.shards {
            let live = shard.engine.live_stats();
            let prev = &shard.last_live;
            entry.faults_injected += live.faults_injected.saturating_sub(prev.faults_injected);
            entry.aborts += live.aborts.saturating_sub(prev.aborts);
            entry.retries += live.retries.saturating_sub(prev.retries);
            entry.backoffs_scheduled += live
                .backoffs_scheduled
                .saturating_sub(prev.backoffs_scheduled);
            entry.backoff_ceiling_hits += live
                .backoff_ceiling_hits
                .saturating_sub(prev.backoff_ceiling_hits);
            entry.escapes += live.escapes.saturating_sub(prev.escapes);
            entry.pinned_pages += live.pinned_pages;
            entry.pages += live.pages;
            entry.pril_buffered += live.pril_buffered;
            entry.pril_capacity += live.pril_capacity;
            entry.shards_done += u64::from(shard.report.is_some());
            shard.last_live = live;
        }
        if telemetry::enabled() {
            let point = durable::emit_epoch_entry(&entry);
            if let (Some(monitor), Some(point)) = (&self.health, point) {
                let fired = monitor
                    .lock()
                    // memlint: allow(no-unwrap): a poisoned monitor must fail the run, not go silent
                    .expect("health monitor poisoned")
                    .evaluate(&point);
                if fired > 0 {
                    telemetry::trace_event("fleet.alerts_fired", fired as u64);
                }
            }
        }
        if self.meta.is_some() {
            self.epoch_log.push(entry);
            self.persist_barrier();
        }
    }

    /// Persists the current epoch barrier to the fleet meta store: one
    /// [`Record::EpochSample`] in the WAL, then a fresh [`FleetMeta`]
    /// snapshot. The first failure poisons the meta store (mirroring the
    /// shard engines' store-error latch): the fleet keeps simulating, but
    /// no further meta writes are attempted.
    fn persist_barrier(&mut self) {
        if self.meta_error.is_some() {
            return;
        }
        let last_live: Vec<LiveStats> = self.shards.iter().map(|shard| shard.last_live).collect();
        let meta = FleetMeta {
            epoch: self.epoch,
            entries: self.epoch_log.clone(),
            last_live,
        };
        let Some(store) = self.meta.as_mut() else {
            return;
        };
        let result = store
            .append(&Record::EpochSample { epoch: self.epoch })
            .and_then(|()| store.publish_snapshot(&meta.encode()));
        if let Err(err) = result {
            self.meta_error = Some(err);
        }
    }

    /// Runs epochs until every shard completes, then rolls up and returns
    /// the fleet report (also flushing the fleet-level roll-ups through
    /// the telemetry registry).
    pub fn run_to_completion(&mut self, jobs: usize) -> FleetReport {
        while self.run_epoch(jobs) {}
        self.report()
    }

    /// Rolls the per-shard results up into a [`FleetReport`] and flushes
    /// the fleet-level aggregates through [`telemetry`]. Call after the
    /// fleet is done; shards still mid-run contribute no summary.
    #[must_use]
    pub fn report(&self) -> FleetReport {
        let mut shards = Vec::with_capacity(self.shards.len());
        let mut latencies: Vec<u64> = Vec::new();
        for shard in &self.shards {
            latencies.extend_from_slice(&shard.step_latency_ns);
            let Some(report) = shard.report else { continue };
            let internals = shard.engine.internals();
            let recovery: &RecoveryStats = shard.engine.recovery_stats();
            let final_hi = shard
                .engine
                .final_states()
                .iter()
                .filter(|s| **s != PageState::LoRef)
                .count() as u64;
            shards.push(ShardSummary {
                node: shard.spec.node,
                profile: shard.spec.profile.clone(),
                n_pages: shard.spec.trace.n_pages(),
                done_epoch: shard.done_epoch.unwrap_or(self.epoch),
                refresh_reduction: report.refresh_reduction,
                lo_coverage: report.lo_coverage,
                refresh_ops: report.refresh_ops,
                baseline_ops: report.baseline_ops,
                tests_correct: report.tests_correct,
                tests_mispredicted: report.tests_mispredicted,
                failing_tests: internals.tests.failed,
                final_hi_pages: final_hi,
                faults_injected: recovery.faults_injected.iter().sum(),
                uncorrectable_escapes: recovery.uncorrectable_escapes,
            });
        }
        latencies.sort_unstable();
        let percentile = |q: f64| -> u64 {
            if latencies.is_empty() {
                return 0;
            }
            let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
            latencies[idx.min(latencies.len() - 1)]
        };
        let report = FleetReport::new(
            self.shards.len() as u64,
            self.seed,
            self.epoch,
            self.epoch_quanta,
            shards,
            LatencySummary {
                samples: latencies.len() as u64,
                p50_ns: percentile(0.50),
                p99_ns: percentile(0.99),
                max_ns: latencies.last().copied().unwrap_or(0),
            },
        );
        report.flush_telemetry();
        report
    }

    /// Checks the refresh-correctness invariant on every finished shard.
    ///
    /// # Errors
    ///
    /// Returns the first violating shard and its engine's description.
    pub fn verify_refresh_correctness(&self) -> Result<(), String> {
        for (i, shard) in self.shards.iter().enumerate() {
            if shard.report.is_some() {
                shard
                    .engine
                    .verify_refresh_correctness()
                    .map_err(|e| format!("shard {i}: {e}"))?;
            }
        }
        Ok(())
    }
}

/// Per-chip-seed-group content templates: one simulated module per
/// distinct `(chip seed, density)` identity, built once and **cloned**
/// into each member shard's oracle. `DramModule` clones share their
/// scrambler tables and `CouplingFailureModel` clones share the
/// vulnerable-cell cache, so a group's chip state is `Arc`-shared across
/// its shard engines — cold fills happen once per chip config, not once
/// per shard (asserted by the cheap-clone audit test).
#[derive(Debug)]
struct ContentTemplates {
    modules: Vec<((u64, dram::geometry::ChipDensity), dram::module::DramModule)>,
    model: failure_model::model::CouplingFailureModel,
}

impl ContentTemplates {
    fn build(plan: &FleetPlan, rows_per_bank: u32) -> ContentTemplates {
        use dram::geometry::DramGeometry;
        use dram::timing::TimingParams;
        use failure_model::model::CouplingFailureModel;
        use failure_model::params::FailureModelParams;

        let mut templates = ContentTemplates {
            modules: Vec::new(),
            // One model for the whole fleet: the vulnerable-cell cache is
            // keyed by chip identity internally, so sharing it across
            // groups is sound and maximizes reuse.
            model: CouplingFailureModel::new(FailureModelParams::calibrated_at(
                plan.config.engine.lo_ms,
            )),
        };
        for spec in &plan.shards {
            let key = (spec.chip_seed, spec.density);
            if templates.modules.iter().any(|(k, _)| *k == key) {
                continue;
            }
            let mut geometry = DramGeometry::tiny();
            geometry.rows_per_bank = rows_per_bank;
            geometry.density = spec.density;
            let module =
                dram::module::DramModule::new(geometry, TimingParams::ddr3_1600(), spec.chip_seed);
            templates.modules.push((key, module));
        }
        templates
    }

    fn oracle(&self, spec: &ShardSpec, lo_ms: f64) -> ContentOracle {
        use failure_model::content::ContentProfile;
        let key = (spec.chip_seed, spec.density);
        let module = self
            .modules
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, m)| m.clone())
            .expect("template exists for every shard's chip identity");
        // Content seed = chip seed: shards of one group regenerate the
        // same content stream for the same (page, generation).
        ContentOracle::new(
            module,
            self.model.clone(),
            ContentProfile::random_data(),
            lo_ms,
            spec.chip_seed,
        )
    }
}

/// Convenience: expand + instantiate + run to completion at `jobs`.
#[must_use]
pub fn run_fleet(config: &crate::FleetConfig, jobs: usize) -> FleetReport {
    let plan = FleetPlan::expand(config, jobs);
    let mut fleet = Fleet::new(&plan);
    fleet.run_to_completion(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FleetConfig;

    #[test]
    fn epoch_stepping_matches_whole_runs() {
        let _lock = crate::telemetry_lock();
        // The fleet's epoch-sliced engines must report exactly what one
        // whole-trace run of the same engine reports.
        let config = FleetConfig::small(6, 42);
        let plan = FleetPlan::expand(&config, 1);
        let mut fleet = Fleet::new(&plan);
        let fleet_report = fleet.run_to_completion(1);
        for (spec, summary) in plan.shards.iter().zip(&fleet_report.shards) {
            let mut engine = MemconEngine::with_oracle(
                config.engine,
                spec.trace.n_pages(),
                Box::new(RateOracle::new(
                    memcon::engine::DEFAULT_FAIL_RATE,
                    spec.chip_seed,
                )),
            );
            let solo = engine.run(&spec.trace);
            assert_eq!(summary.refresh_reduction, solo.refresh_reduction);
            assert_eq!(summary.lo_coverage, solo.lo_coverage);
            assert_eq!(summary.tests_correct, solo.tests_correct);
            assert_eq!(summary.tests_mispredicted, solo.tests_mispredicted);
        }
        assert!(fleet.is_done());
        assert!(!fleet.run_epoch(1), "done fleet refuses further epochs");
        fleet.verify_refresh_correctness().unwrap();
    }

    #[test]
    fn content_shards_share_chip_state_within_a_group() {
        let _lock = crate::telemetry_lock();
        // Two shards per chip-seed group: the vulnerable-cell cache must
        // cold-fill once per chip config, not once per shard. Counted via
        // the failure model's own cache telemetry.
        let mut config = FleetConfig::small(4, 7);
        config.distinct_chip_seeds = 2;
        config.density_mix = vec![dram::geometry::ChipDensity::Gb8];
        config.oracle = FleetOracle::Content { rows_per_bank: 32 };
        let registry = std::sync::Arc::new(telemetry::Registry::new());
        registry.set_enabled(true);
        let guard = telemetry::install(std::sync::Arc::clone(&registry));
        let _ = run_fleet(&config, 1);
        drop(guard);
        let builds = registry
            .counter(
                "failure_model.cache.chip_builds",
                telemetry::Class::Deterministic,
            )
            .get();
        assert_eq!(
            builds, 2,
            "4 shards over 2 chip identities must build exactly 2 cache entries"
        );
    }

    #[test]
    fn step_latencies_are_recorded_per_epoch() {
        let _lock = crate::telemetry_lock();
        let config = FleetConfig::small(3, 5);
        let plan = FleetPlan::expand(&config, 1);
        let mut fleet = Fleet::new(&plan);
        let report = fleet.run_to_completion(1);
        assert!(
            report.step_latency.samples >= 3,
            "one sample per shard-epoch"
        );
        assert!(report.step_latency.max_ns >= report.step_latency.p50_ns);
    }

    /// Engine-plane-only fault plan: the store sites stay cold so shard
    /// WALs never tear and the crash scenario is exactly the one injected
    /// by the test itself.
    fn engine_plan(seed: u64) -> Arc<faultinject::FaultPlan> {
        use faultinject::{Site, SiteSpec};
        Arc::new(
            faultinject::FaultPlan::new(seed)
                .with_site(Site::TestPreempt, SiteSpec::rate(0.05))
                .with_site(Site::TornRead, SiteSpec::rate(0.05)),
        )
    }

    #[test]
    fn recovered_fleet_is_jobs_invariant_and_matches_uninterrupted() {
        let _lock = crate::telemetry_lock();
        // Reference: the same fleet with no store at all.
        let mut config = FleetConfig::small(4, 99);
        config.fault_plan = Some(engine_plan(0xF1EE7));
        let reference = {
            let plan = FleetPlan::expand(&config, 1);
            Fleet::new(&plan).run_to_completion(1).deterministic_emit()
        };
        let mut det_sections: Vec<String> = Vec::new();
        for jobs in [1usize, 2, 8] {
            let dir = store::scratch_dir(&format!("fleet-recover-j{jobs}"));
            let mut durable = config.clone();
            durable.store_dir = Some(dir.clone());
            let plan = FleetPlan::expand(&durable, jobs);
            {
                // Pre-crash phase under a throwaway registry: the process
                // that crashes takes its registry with it.
                let registry = std::sync::Arc::new(telemetry::Registry::new());
                registry.set_enabled(true);
                let _guard = telemetry::install(std::sync::Arc::clone(&registry));
                let mut fleet = Fleet::new(&plan);
                assert!(fleet.run_epoch(jobs));
                assert!(fleet.run_epoch(jobs));
                // Crash at the barrier: drop the fleet mid-run.
            }
            let registry = std::sync::Arc::new(telemetry::Registry::new());
            registry.set_enabled(true);
            let guard = telemetry::install(std::sync::Arc::clone(&registry));
            let (mut fleet, rec) = Fleet::recover(&plan, jobs).expect("fleet recovers");
            assert_eq!(fleet.epoch(), 2, "fleet resumes at the crashed barrier");
            assert_eq!(rec.shards_recovered, 4);
            assert_eq!(rec.epochs_replayed, 2);
            assert!(fleet.meta_store_error().is_none());
            let report = fleet.run_to_completion(jobs);
            assert_eq!(
                report.deterministic_emit(),
                reference,
                "resumed fleet must report exactly what an uninterrupted storeless run does"
            );
            drop(guard);
            det_sections.push(
                registry
                    .report()
                    .get("deterministic")
                    .cloned()
                    .unwrap_or_else(memutil::json::Json::obj)
                    .emit(),
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert_eq!(
            det_sections[0], det_sections[1],
            "recovered deterministic telemetry diverges between jobs 1 and 2"
        );
        assert_eq!(
            det_sections[0], det_sections[2],
            "recovered deterministic telemetry diverges between jobs 1 and 8"
        );
    }

    #[test]
    fn fleet_recovers_from_a_crash_before_the_first_barrier() {
        let _lock = crate::telemetry_lock();
        let mut config = FleetConfig::small(2, 31);
        let reference = {
            let plan = FleetPlan::expand(&config, 1);
            Fleet::new(&plan).run_to_completion(1).deterministic_emit()
        };
        let dir = store::scratch_dir("fleet-recover-epoch0");
        config.store_dir = Some(dir.clone());
        let plan = FleetPlan::expand(&config, 1);
        {
            let _fleet = Fleet::new(&plan); // crash before any epoch runs
        }
        let (mut fleet, rec) = Fleet::recover(&plan, 1).expect("anchor snapshot recovers");
        assert_eq!(fleet.epoch(), 0);
        assert_eq!(rec.epochs_replayed, 0);
        assert_eq!(rec.shards_recovered, 2);
        let report = fleet.run_to_completion(1);
        assert_eq!(report.deterministic_emit(), reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_refuses_a_storeless_config_and_a_finished_fleet() {
        let _lock = crate::telemetry_lock();
        let mut config = FleetConfig::small(2, 8);
        let plan = FleetPlan::expand(&config, 1);
        assert!(matches!(
            Fleet::recover(&plan, 1),
            Err(StoreError::Unsupported(_))
        ));
        let dir = store::scratch_dir("fleet-recover-finished");
        config.store_dir = Some(dir.clone());
        let plan = FleetPlan::expand(&config, 1);
        let _ = Fleet::new(&plan).run_to_completion(1);
        assert!(
            matches!(Fleet::recover(&plan, 1), Err(StoreError::Unsupported(_))),
            "a finished fleet must refuse to resume"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

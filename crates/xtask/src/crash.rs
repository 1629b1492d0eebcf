//! `xtask crash` — the crash-recovery soak gate for the durable store.
//!
//! Each crash point drives the reference workload through a store-backed
//! [`MemconEngine`] that publishes a snapshot every [`CADENCE`] quanta,
//! kills it mid-run at a seeded fraction of the trace, and tears the
//! newest snapshot publication at a seeded byte offset, in one of two
//! seeded ways:
//!
//! * **truncated snapshot** — `snap-<seq>.snap` is cut short: the rename
//!   reached the disk but the data did not, as can happen under
//!   `Buffered`. Recovery must skip it and fall back to the one before;
//! * **torn temp file** — the crash came before the rename: the newest
//!   publication is only a `.tmp` prefix. Recovery must delete it.
//!
//! Recovery then resumes by re-executing the trace from the older
//! snapshot; the finished run must be byte-identical to an uninterrupted
//! storeless reference run of the same trace (report, recovery counters,
//! and final refresh bins).
//!
//! Two adversarial legs ride along:
//!
//! * **corrupt-checksum** — one byte in the middle of the newest snapshot
//!   is flipped (latent media corruption rather than a torn write);
//!   recovery must skip exactly that snapshot, load the previous one, and
//!   still match the reference — never silently load the corrupt image;
//! * **injected torn write** — the `store.torn_write` fault site fires
//!   inside a publication, leaving half a temp image and a poisoned
//!   store; the simulation must finish unaffected, and recovery must
//!   delete the temp file and resume to the same result.
//!
//! `--quick` soaks 4 crash points (the CI configuration); the default is
//! 16.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use faultinject::{FaultPlan, Schedule, Site, SiteSpec};
use memcon::config::MemconConfig;
use memcon::engine::{MemconEngine, MemconReport, RecoveryStats};
use memcon::refreshmgr::PageState;
use memtrace::trace::WriteTrace;
use memutil::rng::{Rng, SeedableRng, SmallRng};
use store::DurabilityMode;

/// Base seed of crash point `i` (point seed = base + i).
const CRASH_SEED_BASE: u64 = 0xC4A0_6000;

/// Crash points in the default (full) soak.
const FULL_POINTS: usize = 16;

/// Crash points under `--quick` (the CI leg).
const QUICK_POINTS: usize = 4;

/// Snapshot cadence in quanta: every crash point lands after several
/// publications.
const CADENCE: u64 = 2;

/// Entry point for `xtask crash <args>`; returns a process exit code.
#[must_use]
pub fn crash_cmd(args: &[String]) -> i32 {
    let mut points = FULL_POINTS;
    for arg in args {
        if arg == "--quick" {
            points = QUICK_POINTS;
        } else if let Some(v) = arg.strip_prefix("--points=") {
            let Ok(n) = v.parse() else {
                eprintln!("crash: --points expects a number, got '{v}'");
                return 2;
            };
            points = n;
        } else {
            eprintln!("crash: unknown argument {arg:?} (expected --quick, --points=N)");
            return 2;
        }
    }
    if points == 0 {
        eprintln!("crash: --points must be at least 1");
        return 2;
    }
    match soak(points) {
        Ok(summary) => {
            println!("crash: {summary}");
            0
        }
        Err(e) => {
            eprintln!("crash: FAILED: {e}");
            1
        }
    }
}

/// Everything the cross-run comparison needs from one finished engine.
type RunOutcome = (MemconReport, RecoveryStats, Vec<PageState>);

/// The workload every leg replays (fixed: the gate compares runs, and a
/// crashed run can only be resumed with the same trace).
fn reference_trace() -> WriteTrace {
    memtrace::workload::WorkloadProfile::netflix()
        .scaled(0.02)
        .generate(CRASH_SEED_BASE)
}

/// An uninterrupted storeless run of `trace` — the ground truth every
/// recovered run must reproduce exactly.
fn reference_run(trace: &WriteTrace) -> RunOutcome {
    let mut engine = MemconEngine::new(MemconConfig::paper_default(), trace.n_pages());
    let report = engine.run(trace);
    (
        report,
        *engine.recovery_stats(),
        engine.final_states().to_vec(),
    )
}

fn soak(points: usize) -> Result<String, String> {
    let trace = reference_trace();
    let reference = reference_run(&trace);

    let mut fallbacks = 0usize;
    for i in 0..points {
        let seed = CRASH_SEED_BASE + i as u64;
        let skipped = crash_point(&trace, &reference, seed)
            .map_err(|e| format!("crash point {}/{points} (seed {seed:#x}): {e}", i + 1))?;
        fallbacks += usize::from(skipped > 0);
    }
    if fallbacks == 0 {
        return Err(format!(
            "none of the {points} crash points fell back to an older snapshot (soak proved nothing)"
        ));
    }
    corrupt_checksum_leg(&trace, &reference)?;
    injected_torn_write_leg(&trace, &reference)?;
    Ok(format!(
        "{points} crash point(s) recovered to the reference run ({fallbacks} fell back past a \
         truncated snapshot, {} deleted a torn temp file); corrupt-checksum leg skipped \
         1 snapshot; injected torn write recovered clean",
        points - fallbacks
    ))
}

/// One torn-publication point: crash at a seeded fraction of the trace,
/// tear the newest snapshot at a seeded offset (truncated in place, or
/// turned back into the temp file of an unfinished publication), recover,
/// resume, and compare against the reference. Returns the snapshots
/// recovery skipped.
fn crash_point(trace: &WriteTrace, reference: &RunOutcome, seed: u64) -> Result<u64, String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let dir = store::scratch_dir(&format!("xtask-crash-{seed:x}"));
    // Crash somewhere in the middle 10%..90% of the trace.
    let crash_ns = trace.duration_ns() / 10 * (1 + rng.gen_range(0..9u64));
    run_to_crash(trace, &dir, crash_ns)?;
    let newest = newest_snapshot(&dir)?;
    let image = std::fs::read(&newest).map_err(|e| format!("read {}: {e}", newest.display()))?;
    let offset = rng.gen_range(0..image.len());
    let truncate = rng.gen_range(0..2u32) == 0;
    let torn = if truncate {
        newest.clone()
    } else {
        std::fs::remove_file(&newest).map_err(|e| format!("remove {}: {e}", newest.display()))?;
        newest.with_extension("snap.tmp")
    };
    std::fs::write(&torn, &image[..offset])
        .map_err(|e| format!("write {}: {e}", torn.display()))?;
    let skipped = recover_and_compare(trace, &dir, reference)?;
    if skipped != u64::from(truncate) || (!truncate && torn.exists()) {
        return Err(format!(
            "recovery skipped {skipped} snapshot(s) tearing {}",
            torn.display()
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(skipped)
}

/// The corrupt-checksum leg: flip one byte in the middle of the newest
/// snapshot (not truncation — the file keeps its length) and require
/// recovery to skip exactly that snapshot and resume from the previous
/// one.
fn corrupt_checksum_leg(trace: &WriteTrace, reference: &RunOutcome) -> Result<(), String> {
    let dir = store::scratch_dir("xtask-crash-corrupt");
    run_to_crash(trace, &dir, trace.duration_ns() / 2)?;
    let newest = newest_snapshot(&dir)?;
    let mut bytes =
        std::fs::read(&newest).map_err(|e| format!("read {}: {e}", newest.display()))?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&newest, &bytes).map_err(|e| format!("write {}: {e}", newest.display()))?;
    let skipped = recover_and_compare(trace, &dir, reference)?;
    if skipped != 1 {
        return Err(format!(
            "a flipped byte mid-snapshot made recovery skip {skipped} snapshots, not exactly 1 \
             (corrupt state loaded silently, or a good snapshot discarded)"
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// The injected-fault leg: the `store.torn_write` site fires inside one
/// mid-run publication, leaving half a temp image and a poisoned store.
/// The simulation must still finish byte-identically, and recovery must
/// delete the temp file and resume to the same result.
fn injected_torn_write_leg(trace: &WriteTrace, reference: &RunOutcome) -> Result<(), String> {
    let dir = store::scratch_dir("xtask-crash-injected");
    let plan = Arc::new(FaultPlan::new(CRASH_SEED_BASE).with_site(
        Site::StoreTornWrite,
        SiteSpec {
            rate: 1.0,
            schedule: Schedule::OneShot { at: 12 },
        },
    ));
    let mut engine = MemconEngine::new(MemconConfig::paper_default(), trace.n_pages());
    engine.set_fault_plan(Some(Arc::clone(&plan)));
    let s = store::Store::create(&dir, DurabilityMode::Buffered)
        .map_err(|e| format!("create store: {e}"))?;
    engine
        .attach_store(s, CADENCE)
        .map_err(|e| format!("attach store: {e}"))?;
    let report = engine.run(trace);
    if engine.store_error().is_none() {
        return Err("the armed store.torn_write site never fired".to_string());
    }
    let outcome = (
        report,
        *engine.recovery_stats(),
        engine.final_states().to_vec(),
    );
    if &outcome != reference {
        return Err(
            "a torn store write perturbed the simulation (store faults must stay \
             on the durability plane)"
                .to_string(),
        );
    }
    drop(engine);
    let tmp_files = || {
        std::fs::read_dir(&dir).map_or(0, |entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
                .count()
        })
    };
    if tmp_files() != 1 {
        return Err("the torn publication left no temp file behind".to_string());
    }
    recover_and_compare(trace, &dir, reference)
        .map_err(|e| format!("recovery after injected torn write: {e}"))?;
    if tmp_files() != 0 {
        return Err("recovery left the torn temp file behind".to_string());
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Runs a store-backed engine up to `crash_ns` and drops it mid-run,
/// requiring that at least two snapshots beyond the anchor were published
/// (so tearing the newest leaves an older one to fall back to).
fn run_to_crash(trace: &WriteTrace, dir: &Path, crash_ns: u64) -> Result<(), String> {
    let mut engine = MemconEngine::new(MemconConfig::paper_default(), trace.n_pages());
    let s = store::Store::create(dir, DurabilityMode::Buffered)
        .map_err(|e| format!("create store: {e}"))?;
    engine
        .attach_store(s, CADENCE)
        .map_err(|e| format!("attach store: {e}"))?;
    engine.begin_run(trace);
    engine.advance_until(trace, crash_ns);
    if !engine.mid_run() {
        return Err("crash point landed past the end of the run".to_string());
    }
    if newest_snapshot(dir)? < dir.join("snap-00000002.snap") {
        return Err("crash point landed before a third snapshot was published".to_string());
    }
    Ok(())
}

/// Recovers the engine in `dir`, resumes it with `trace`, and compares
/// the finished run against `reference`. Returns the number of corrupt
/// snapshots recovery skipped.
fn recover_and_compare(
    trace: &WriteTrace,
    dir: &Path,
    reference: &RunOutcome,
) -> Result<u64, String> {
    let (mut engine, rec) = MemconEngine::recover(dir, DurabilityMode::Buffered, None)
        .map_err(|e| format!("recovery: {e}"))?;
    if !engine.mid_run() {
        return Err("recovered engine is not mid-run".to_string());
    }
    engine.advance_until(trace, trace.duration_ns());
    let report = engine.finish_run();
    let outcome = (
        report,
        *engine.recovery_stats(),
        engine.final_states().to_vec(),
    );
    if &outcome != reference {
        return Err(
            "resumed run diverges from the uninterrupted reference (report, recovery \
             counters, or final refresh bins)"
                .to_string(),
        );
    }
    Ok(rec.snapshots_skipped)
}

/// The highest-sequence `snap-*.snap` file in `dir`.
pub(crate) fn newest_snapshot(dir: &Path) -> Result<PathBuf, String> {
    let mut snapshots: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    snapshots.sort();
    snapshots
        .pop()
        .ok_or_else(|| "crashed run left no snapshot".to_string())
}

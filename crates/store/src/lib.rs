//! Durable state store for MEMCON: a directory of checksummed snapshots.
//!
//! The paper's thesis is that retention knowledge is expensive to acquire
//! and therefore worth keeping; this crate makes it survive a process
//! death. Durability is snapshots plus deterministic re-execution:
//!
//! * **Snapshots** — opaque engine-state blobs published atomically
//!   (write-temp → rename, with an fsync of the temp file and the
//!   directory under `Strict`; [`snapshot`]) as `snap-<seq>.snap`. Each
//!   publication deletes `snap-<seq − 2>`, so the newest
//!   `KEEP_SNAPSHOTS` (two) files survive: the current state plus one
//!   fallback.
//! * **Recovery** — [`Store::open`] deletes leftover `.tmp` files (a
//!   publication that never reached its rename) and loads the newest
//!   snapshot whose checksum verifies. A corrupt or truncated one is
//!   reported and deleted, never loaded, and the one before it is used.
//!
//! Nothing but the snapshot is read back: the engine rebuilds everything
//! past it by re-running the same trace deterministically.
//!
//! Three [`DurabilityMode`]s trade safety for speed: `InMemory` (no file
//! IO at all — benches and tests), `Buffered` (files, no fsync — crash
//! consistency relies on the OS), `Strict` (fsync through every snapshot
//! publication step).
//!
//! Fault injection: the store consults the `store.torn_write`,
//! `store.corrupt_record` (publication) and `store.short_read`
//! (recovery's snapshot reads) sites of an attached [`FaultSession`], so
//! the chaos machinery can exercise every recovery branch
//! deterministically.
//!
//! Telemetry: `store.snap.published` and
//! `store.recovery.snapshots_skipped` — both
//! [`telemetry::Class::Deterministic`] (counts of deterministic events),
//! though they describe the durability plane itself: a
//! crashed-and-recovered run legitimately differs from an uninterrupted
//! one in `store.*` (it did extra durability work), which is why the
//! crash gate compares deterministic sections *minus* `store.*`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod snapshot;

pub use snapshot::{crc32, Snapshot};

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File};
use std::io::{ErrorKind, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use faultinject::{FaultPlan, FaultSession, Site};

const SNAPS_PUBLISHED: &str = "store.snap.published";
const SNAPS_SKIPPED: &str = "store.recovery.snapshots_skipped";

/// How many of the newest snapshots survive pruning: the current one plus
/// one fallback in case the newest is found corrupt at recovery.
const KEEP_SNAPSHOTS: u64 = 2;

/// Durability/performance trade-off, selectable per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// All state kept in process memory; no files are touched. Recovery
    /// across processes is impossible — the mode for benches and tests
    /// that want the publication path without IO.
    InMemory,
    /// Real files, no fsync: survives process death (the OS flushes),
    /// not power loss. The default.
    #[default]
    Buffered,
    /// fsync through every snapshot publication step (temp file, then
    /// the containing directory after the rename).
    Strict,
}

impl DurabilityMode {
    /// Stable lowercase name (CLI flags, config files).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            DurabilityMode::InMemory => "in-memory",
            DurabilityMode::Buffered => "buffered",
            DurabilityMode::Strict => "strict",
        }
    }

    /// Parses [`as_str`](Self::as_str) names.
    #[must_use]
    pub fn from_name(name: &str) -> Option<DurabilityMode> {
        match name {
            "in-memory" => Some(DurabilityMode::InMemory),
            "buffered" => Some(DurabilityMode::Buffered),
            "strict" => Some(DurabilityMode::Strict),
            _ => None,
        }
    }
}

/// Errors surfaced by the store. A corrupt snapshot is *not* an error
/// while an older valid one remains (recovery falls back and reports it
/// via [`Recovered`]); it is an error when it would mean loading bad
/// state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// File IO failed (path and OS error inside).
    Io(String),
    /// A structural invariant does not hold (bad directory layout,
    /// undecodable snapshot set, refusing to overwrite an existing store).
    Corrupt(String),
    /// The requested state cannot be persisted or recovered (e.g. an
    /// engine whose oracle does not support snapshotting).
    Unsupported(String),
    /// An injected torn write: only a prefix of the snapshot image reached
    /// the temp file and the rename never happened. The store is in the
    /// state a kill mid-publication leaves on disk; the caller treats this
    /// as the crash it simulates.
    TornWrite,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "store io error: {m}"),
            StoreError::Corrupt(m) => write!(f, "store corruption: {m}"),
            StoreError::Unsupported(m) => write!(f, "store unsupported: {m}"),
            StoreError::TornWrite => write!(f, "store: injected torn write"),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> StoreError {
    StoreError::Io(format!("{what} {}: {e}", path.display()))
}

/// What [`Store::open`] found and repaired.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Newest snapshot that passed verification, if any.
    pub snapshot: Option<Snapshot>,
    /// Corrupt snapshot files skipped (and deleted) before a valid one
    /// was found.
    pub snapshots_skipped: u64,
}

/// An open durable store rooted at one directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    mode: DurabilityMode,
    snap_seq: u64,
    mem_snap: Option<Vec<u8>>,
    faults: Option<FaultSession>,
}

impl Store {
    /// Creates a fresh store in `dir` (created if absent). Refuses to
    /// build over an existing store's snapshots — recovery must be
    /// explicit, via [`Store::open`].
    pub fn create(dir: &Path, mode: DurabilityMode) -> Result<Store, StoreError> {
        if mode != DurabilityMode::InMemory {
            fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, &e))?;
            if !list_store_files(dir)?.0.is_empty() {
                return Err(StoreError::Corrupt(format!(
                    "{} already holds store files; open it instead of creating over it",
                    dir.display()
                )));
            }
        }
        Ok(Store {
            dir: dir.to_path_buf(),
            mode,
            snap_seq: 0,
            mem_snap: None,
            faults: None,
        })
    }

    /// Opens an existing store, running recovery: delete leftover temp
    /// files, load the newest snapshot that verifies, delete the corrupt
    /// ones above it and any older than its one fallback.
    ///
    /// `plan` arms the `store.short_read` site for the snapshot reads (and
    /// stays attached for subsequent publications); pass `None` for a
    /// clean open.
    ///
    /// In `InMemory` mode there is nothing on disk to recover: the result
    /// is a fresh store and an empty [`Recovered`].
    pub fn open(
        dir: &Path,
        mode: DurabilityMode,
        plan: Option<Arc<FaultPlan>>,
    ) -> Result<(Store, Recovered), StoreError> {
        let mut faults = plan.map(FaultSession::with_plan);
        if mode == DurabilityMode::InMemory {
            let mut store = Store::create(dir, mode)?;
            store.faults = faults;
            return Ok((store, Recovered::default()));
        }
        fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, &e))?;
        let (snaps, tmps) = list_store_files(dir)?;
        for tmp in tmps {
            // Interrupted snapshot publications: never renamed, never valid.
            fs::remove_file(&tmp).map_err(|e| io_err("remove tmp", &tmp, &e))?;
        }
        let mut out = Recovered::default();

        // Newest snapshot that verifies wins; corrupt ones are reported
        // and deleted so they can never shadow a good one again.
        for (&seq, path) in snaps.iter().rev() {
            let mut bytes = fs::read(path).map_err(|e| io_err("read snapshot", path, &e))?;
            if faults
                .as_mut()
                .is_some_and(|s| s.fires(Site::StoreShortRead))
            {
                // Injected short read: the file comes back half-length.
                bytes.truncate(bytes.len() / 2);
            }
            match snapshot::decode(&bytes) {
                Ok(snap) if snap.seq == seq => {
                    out.snapshot = Some(snap);
                    break;
                }
                Ok(_) | Err(_) => {
                    out.snapshots_skipped += 1;
                    fs::remove_file(path).map_err(|e| io_err("remove snapshot", path, &e))?;
                }
            }
        }
        // Older than the newest's fallback: left by a crash between a
        // rename and its prune.
        if let Some(newest) = &out.snapshot {
            let keep_from = (newest.seq + 1).saturating_sub(KEEP_SNAPSHOTS);
            for path in snaps.range(..keep_from).map(|(_, p)| p) {
                fs::remove_file(path).map_err(|e| io_err("prune snapshot", path, &e))?;
            }
        }
        if telemetry::enabled() {
            telemetry::count(SNAPS_SKIPPED, out.snapshots_skipped);
        }
        let snap_seq = out.snapshot.as_ref().map_or(0, |s| s.seq + 1);
        Ok((
            Store {
                dir: dir.to_path_buf(),
                mode,
                snap_seq,
                mem_snap: None,
                faults,
            },
            out,
        ))
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The durability mode this store was opened with.
    #[must_use]
    pub fn mode(&self) -> DurabilityMode {
        self.mode
    }

    /// Attaches (or clears) the fault session consulted by snapshot
    /// publication (`store.torn_write`, `store.corrupt_record`).
    pub fn set_fault_session(&mut self, session: Option<FaultSession>) {
        self.faults = session;
    }

    /// Publishes `payload` as the next snapshot — atomically (write-temp,
    /// rename; under `Strict` also fsync of the temp file and directory) —
    /// then deletes the snapshot `KEEP_SNAPSHOTS` publications older.
    ///
    /// # Errors
    ///
    /// IO failures, or [`StoreError::TornWrite`] when the armed
    /// `store.torn_write` site fires: half the image is written to the
    /// temp file and the rename never happens, exactly like a crash
    /// during the write.
    pub fn publish_snapshot(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        let mut image = snapshot::encode(self.snap_seq, payload);
        let mut torn = false;
        if let Some(session) = self.faults.as_mut() {
            if session.fires(Site::StoreTornWrite) {
                torn = true;
            } else if session.fires(Site::StoreCorruptRecord) {
                // Latent corruption: the publication "succeeds"; recovery
                // must catch it by checksum and fall back.
                let mid = image.len() / 2;
                image[mid] ^= 0x01;
            }
        }
        match self.mode {
            DurabilityMode::InMemory => {
                if torn {
                    return Err(StoreError::TornWrite);
                }
                self.mem_snap = Some(image);
            }
            DurabilityMode::Buffered | DurabilityMode::Strict => {
                let strict = self.mode == DurabilityMode::Strict;
                let tmp = self.dir.join(format!("snap-{:08}.snap.tmp", self.snap_seq));
                let fin = snapshot_path(&self.dir, self.snap_seq);
                {
                    let mut f = File::create(&tmp).map_err(|e| io_err("create tmp", &tmp, &e))?;
                    let len = if torn { image.len() / 2 } else { image.len() };
                    f.write_all(&image[..len])
                        .map_err(|e| io_err("write snapshot", &tmp, &e))?;
                    if torn {
                        return Err(StoreError::TornWrite);
                    }
                    if strict {
                        f.sync_all()
                            .map_err(|e| io_err("fsync snapshot", &tmp, &e))?;
                    }
                }
                fs::rename(&tmp, &fin).map_err(|e| io_err("publish snapshot", &fin, &e))?;
                if strict {
                    let d = File::open(&self.dir).map_err(|e| io_err("open dir", &self.dir, &e))?;
                    d.sync_all()
                        .map_err(|e| io_err("fsync dir", &self.dir, &e))?;
                }
                // A crash before this prune leaves one straggler, which
                // the next open deletes.
                if let Some(old) = self.snap_seq.checked_sub(KEEP_SNAPSHOTS) {
                    let path = snapshot_path(&self.dir, old);
                    match fs::remove_file(&path) {
                        Err(e) if e.kind() != ErrorKind::NotFound => {
                            return Err(io_err("prune snapshot", &path, &e));
                        }
                        _ => {}
                    }
                }
            }
        }
        self.snap_seq += 1;
        if telemetry::enabled() {
            telemetry::count(SNAPS_PUBLISHED, 1);
        }
        Ok(())
    }

    /// Newest in-memory snapshot image (only populated in `InMemory` mode),
    /// as [`snapshot::decode`] reads it.
    #[must_use]
    pub fn mem_snapshot(&self) -> Option<&[u8]> {
        self.mem_snap.as_deref()
    }
}

fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:08}.snap"))
}

/// Classifies `dir` entries into snapshots (keyed and ordered by sequence
/// number) and leftover temp files.
fn list_store_files(dir: &Path) -> Result<(BTreeMap<u64, PathBuf>, Vec<PathBuf>), StoreError> {
    let mut snaps = BTreeMap::new();
    let mut tmps = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err("read dir", dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read dir entry", dir, &e))?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.ends_with(".tmp") {
            tmps.push(path);
        } else if let Some(seq) = name
            .strip_prefix("snap-")
            .and_then(|n| n.strip_suffix(".snap"))
            .and_then(|n| n.parse().ok())
        {
            snaps.insert(seq, path);
        }
    }
    Ok((snaps, tmps))
}

/// A per-process-unique scratch directory for store tests and harnesses:
/// `<tmp>/memcon-store-scratch/<label>-<pid>`. Callers pass a unique
/// label (their test name), the pid isolates concurrent `cargo test`
/// processes, so parallel test threads never collide. Any leftover from
/// a previous crashed run is removed first.
#[must_use]
pub fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("memcon-store-scratch")
        .join(format!("{label}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultinject::{Schedule, SiteSpec};

    fn cleanup(dir: &Path) {
        let _ = fs::remove_dir_all(dir);
    }

    /// A plan firing `site` exactly once, at its `at`-th decision.
    fn one_shot(site: Site, at: u64) -> Arc<FaultPlan> {
        Arc::new(FaultPlan::new(0xF00D).with_site(
            site,
            SiteSpec {
                rate: 1.0,
                schedule: Schedule::OneShot { at },
            },
        ))
    }

    /// Publishes `state-0` .. `state-<n-1>` into a fresh buffered store.
    fn publish_states(dir: &Path, n: u64) -> Store {
        let mut s = Store::create(dir, DurabilityMode::Buffered).unwrap();
        for i in 0..n {
            s.publish_snapshot(format!("state-{i}").as_bytes()).unwrap();
        }
        s
    }

    fn newest_payload(rec: &Recovered) -> &[u8] {
        &rec.snapshot.as_ref().expect("a snapshot recovers").payload
    }

    #[test]
    fn buffered_store_round_trips_the_newest_snapshot() {
        let dir = scratch_dir("round-trip");
        drop(publish_states(&dir, 3));
        let (mut s, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(newest_payload(&rec), b"state-2");
        assert_eq!(rec.snapshot.as_ref().unwrap().seq, 2);
        assert_eq!(rec.snapshots_skipped, 0);
        // Publication resumes the sequence past the recovered snapshot.
        s.publish_snapshot(b"state-3").unwrap();
        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(rec.snapshot.unwrap().seq, 3);
        cleanup(&dir);
    }

    #[test]
    fn strict_mode_round_trips_too() {
        let dir = scratch_dir("strict");
        {
            let mut s = Store::create(&dir, DurabilityMode::Strict).unwrap();
            s.publish_snapshot(b"strict-old").unwrap();
            s.publish_snapshot(b"strict-state").unwrap();
        }
        let (_, rec) = Store::open(&dir, DurabilityMode::Strict, None).unwrap();
        assert_eq!(newest_payload(&rec), b"strict-state");
        cleanup(&dir);
    }

    #[test]
    fn empty_store_recovers_to_nothing() {
        let dir = scratch_dir("empty-store");
        drop(Store::create(&dir, DurabilityMode::Buffered).unwrap());
        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert!(rec.snapshot.is_none());
        assert_eq!(rec.snapshots_skipped, 0);
        cleanup(&dir);
    }

    #[test]
    fn leftover_tmp_is_deleted_on_open_and_never_loaded() {
        let dir = scratch_dir("leftover-tmp");
        drop(publish_states(&dir, 2));
        // A complete, valid image that never reached its rename.
        let tmp = dir.join("snap-00000002.snap.tmp");
        fs::write(&tmp, snapshot::encode(2, b"never-renamed")).unwrap();
        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(newest_payload(&rec), b"state-1");
        assert_eq!(rec.snapshots_skipped, 0);
        assert!(!tmp.exists(), "leftover temp file deleted");
        cleanup(&dir);
    }

    #[test]
    fn truncated_newest_snapshot_falls_back_to_the_previous_one() {
        let dir = scratch_dir("truncated-snap");
        drop(publish_states(&dir, 3));
        // The rename reached the disk, the data did not.
        let newest = snapshot_path(&dir, 2);
        let img = fs::read(&newest).unwrap();
        fs::write(&newest, &img[..img.len() / 2]).unwrap();
        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(newest_payload(&rec), b"state-1");
        assert_eq!(rec.snapshots_skipped, 1);
        assert!(!newest.exists(), "truncated snapshot deleted");
        let (_, again) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(again.snapshots_skipped, 0, "repair is persistent");
        assert_eq!(newest_payload(&again), b"state-1");
        cleanup(&dir);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_and_is_never_loaded() {
        let dir = scratch_dir("corrupt-snap");
        {
            let mut s = Store::create(&dir, DurabilityMode::Buffered).unwrap();
            s.publish_snapshot(b"good-old").unwrap();
            s.publish_snapshot(b"bad-new").unwrap();
        }
        // Corrupt the newest snapshot's payload.
        let newest = snapshot_path(&dir, 1);
        let mut img = fs::read(&newest).unwrap();
        let last = img.len() - 1;
        img[last] ^= 0xFF;
        fs::write(&newest, &img).unwrap();

        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(rec.snapshots_skipped, 1);
        assert_eq!(
            newest_payload(&rec),
            b"good-old",
            "corrupt image never loads"
        );
        assert!(!newest.exists(), "corrupt snapshot deleted");
        cleanup(&dir);
    }

    #[test]
    fn straggler_older_than_the_fallback_is_pruned_on_open() {
        let dir = scratch_dir("straggler");
        drop(publish_states(&dir, 3));
        // A crash between a rename and its prune leaves a third file.
        let straggler = snapshot_path(&dir, 0);
        fs::write(&straggler, snapshot::encode(0, b"state-0")).unwrap();
        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(newest_payload(&rec), b"state-2");
        assert!(!straggler.exists(), "straggler deleted");
        assert!(snapshot_path(&dir, 1).exists(), "the fallback survives");
        cleanup(&dir);
    }

    #[test]
    fn create_refuses_to_overwrite_an_existing_store() {
        let dir = scratch_dir("no-clobber");
        drop(publish_states(&dir, 1));
        assert!(matches!(
            Store::create(&dir, DurabilityMode::Buffered),
            Err(StoreError::Corrupt(_))
        ));
        cleanup(&dir);
    }

    #[test]
    fn in_memory_mode_touches_no_files() {
        let dir = scratch_dir("in-memory");
        let mut s = Store::create(&dir, DurabilityMode::InMemory).unwrap();
        for i in 0..3u64 {
            s.publish_snapshot(format!("ram-{i}").as_bytes()).unwrap();
        }
        assert!(!dir.exists(), "no directory was created");
        let snap = snapshot::decode(s.mem_snapshot().expect("newest image")).unwrap();
        assert_eq!((snap.seq, snap.payload.as_slice()), (2, &b"ram-2"[..]));
    }

    #[test]
    fn injected_torn_publish_leaves_the_previous_snapshots_intact() {
        let dir = scratch_dir("fault-torn");
        let mut s = Store::create(&dir, DurabilityMode::Buffered).unwrap();
        s.set_fault_session(Some(FaultSession::with_plan(one_shot(
            Site::StoreTornWrite,
            2,
        ))));
        s.publish_snapshot(b"state-0").unwrap();
        s.publish_snapshot(b"state-1").unwrap();
        assert_eq!(s.publish_snapshot(b"state-2"), Err(StoreError::TornWrite));
        drop(s); // a real crash stops here
        let (snaps, tmps) = list_store_files(&dir).unwrap();
        assert_eq!(snaps.keys().copied().collect::<Vec<_>>(), [0, 1]);
        assert_eq!(tmps.len(), 1, "the half-written temp file, never renamed");
        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(newest_payload(&rec), b"state-1");
        assert_eq!(rec.snapshots_skipped, 0);
        assert!(list_store_files(&dir).unwrap().1.is_empty(), "temp deleted");
        cleanup(&dir);
    }

    #[test]
    fn injected_corrupt_record_is_caught_at_recovery_never_loaded() {
        let dir = scratch_dir("fault-corrupt");
        {
            let mut s = Store::create(&dir, DurabilityMode::Buffered).unwrap();
            s.set_fault_session(Some(FaultSession::with_plan(one_shot(
                Site::StoreCorruptRecord,
                2,
            ))));
            for i in 0..3u64 {
                // Corruption is latent: every publication succeeds.
                s.publish_snapshot(format!("state-{i}").as_bytes()).unwrap();
            }
        }
        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(rec.snapshots_skipped, 1);
        assert_eq!(newest_payload(&rec), b"state-1");
        cleanup(&dir);
    }

    #[test]
    fn injected_short_read_of_the_newest_snapshot_falls_back() {
        let dir = scratch_dir("fault-short");
        drop(publish_states(&dir, 3));
        let plan = one_shot(Site::StoreShortRead, 0);
        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, Some(plan)).unwrap();
        assert_eq!(rec.snapshots_skipped, 1);
        assert_eq!(newest_payload(&rec), b"state-1");
        cleanup(&dir);
    }

    #[test]
    fn durability_mode_names_round_trip() {
        for mode in [
            DurabilityMode::InMemory,
            DurabilityMode::Buffered,
            DurabilityMode::Strict,
        ] {
            assert_eq!(DurabilityMode::from_name(mode.as_str()), Some(mode));
        }
        assert_eq!(DurabilityMode::from_name("yolo"), None);
    }

    #[test]
    fn only_the_newest_snapshots_survive_many_publishes() {
        let dir = scratch_dir("prune");
        drop(publish_states(&dir, 10));
        let (snaps, tmps) = list_store_files(&dir).unwrap();
        assert_eq!(snaps.len() as u64, KEEP_SNAPSHOTS);
        assert_eq!(snaps.keys().copied().collect::<Vec<_>>(), [8, 9]);
        assert!(tmps.is_empty());
        let (_, rec) = Store::open(&dir, DurabilityMode::Buffered, None).unwrap();
        assert_eq!(newest_payload(&rec), b"state-9");
        cleanup(&dir);
    }
}

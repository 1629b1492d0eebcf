//! Deterministic calendar queue — a bucket-wheel scheduler for "which ids
//! are due by time `t`" queries whose cost tracks the number of *due* ids,
//! not the total population.
//!
//! Built for the MEMCON refresh plane (per-page HI-REF/LO-REF refresh due
//! times in `memcon::refreshmgr`): populations are large, per-tick due
//! sets are small, and every consumer must be bit-reproducible. The design
//! is the classic calendar queue with lazy deletion:
//!
//! * an id's authoritative due time lives in a flat `due` array
//!   (`u64::MAX` = unscheduled) — O(1) schedule/unschedule/query,
//! * buckets hold `(id, due)` entries placed at `slot(due) % n_buckets`;
//!   rescheduling leaves the old entry behind as a *stale* entry, dropped
//!   when its bucket is swept (entry due ≠ authoritative due),
//! * [`CalendarQueue::pop_due`] sweeps the wheel from the last sweep
//!   position to `slot(now)`, so the amortized cost per pop is the number
//!   of due ids plus the slots crossed — independent of population size.
//!   A time jump of more than one revolution degenerates to a single full
//!   sweep of every bucket (still one pass, never per-slot).
//!
//! Determinism: pops are emitted sorted by `(due, id)`; there are no hash
//! containers, no wall-clock reads, and no dependence on insertion order.
//! Entries scheduled beyond one wheel revolution are re-examined once per
//! revolution and kept — correct, with O(1) churn per revolution per entry.
//!
//! [`ScanQueue`] is the retained slow reference: the same contract
//! implemented as a full linear scan of the `due` array per pop. The
//! property tests in this module (and the consumers' equivalence suites)
//! pin the wheel bit-identical to it.

/// Sentinel in the due array: id is not scheduled.
const UNSCHEDULED: u64 = u64::MAX;

/// A `(due, id)` pair emitted by [`CalendarQueue::pop_due`] /
/// [`ScanQueue::pop_due`], ascending in `(due, id)`.
pub type DueEntry = (u64, u64);

/// Calendar-queue scheduler over ids `0..n_ids`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CalendarQueue {
    slot_ns: u64,
    bucket_mask: u64,
    buckets: Vec<Vec<(u64, u64)>>, // (id, due) entries, lazily deleted
    due: Vec<u64>,
    cursor: u64, // absolute slot index of the next unfinished sweep slot
    len: usize,
    scratch: Vec<DueEntry>,
}

impl CalendarQueue {
    /// Creates a queue for ids `0..n_ids` with the given slot width (ticks
    /// per bucket) and at least `min_buckets` buckets (rounded up to a power
    /// of two).
    ///
    /// # Panics
    ///
    /// Panics if `slot_ns` is zero.
    #[must_use]
    pub fn new(n_ids: usize, slot_ns: u64, min_buckets: usize) -> Self {
        assert!(slot_ns > 0, "calendar queue slot width must be positive");
        let n_buckets = min_buckets.max(2).next_power_of_two();
        CalendarQueue {
            slot_ns,
            bucket_mask: n_buckets as u64 - 1,
            buckets: vec![Vec::new(); n_buckets],
            due: vec![UNSCHEDULED; n_ids],
            cursor: 0,
            len: 0,
            scratch: Vec::new(),
        }
    }

    /// Number of currently scheduled ids.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no id is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The id's scheduled due time, if any.
    #[must_use]
    pub fn due_of(&self, id: u64) -> Option<u64> {
        match self.due[id as usize] {
            UNSCHEDULED => None,
            due => Some(due),
        }
    }

    #[inline]
    fn slot_of(&self, t: u64) -> u64 {
        t / self.slot_ns
    }

    /// Schedules (or reschedules) `id` to come due at `due`. A due time
    /// earlier than the last [`CalendarQueue::pop_due`] horizon is emitted
    /// on the next pop.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `due` is `u64::MAX` (the
    /// unscheduled sentinel).
    pub fn schedule(&mut self, id: u64, due: u64) {
        assert!(due != UNSCHEDULED, "u64::MAX is the unscheduled sentinel");
        if self.due[id as usize] == UNSCHEDULED {
            self.len += 1;
        }
        self.due[id as usize] = due;
        // Late schedules (due slot already swept past) park in the cursor
        // slot so the next sweep finds them immediately.
        let slot = self.slot_of(due).max(self.cursor);
        let bucket = (slot & self.bucket_mask) as usize;
        self.buckets[bucket].push((id, due));
    }

    /// Unschedules `id`; returns whether it was scheduled. The bucket entry
    /// is left behind and lazily dropped on sweep.
    pub fn unschedule(&mut self, id: u64) -> bool {
        if self.due[id as usize] == UNSCHEDULED {
            return false;
        }
        self.due[id as usize] = UNSCHEDULED;
        self.len -= 1;
        true
    }

    /// Pops every id due at or before `now`, appending `(due, id)` pairs to
    /// `out` in ascending `(due, id)` order and unscheduling them. `now`
    /// should be monotone across calls (an older `now` simply finds nothing
    /// new).
    pub fn pop_due(&mut self, now: u64, out: &mut Vec<DueEntry>) {
        let mut collected = std::mem::take(&mut self.scratch);
        collected.clear();
        let target = self.slot_of(now);
        if target >= self.cursor + self.bucket_mask + 1 {
            // Jumped a full revolution or more: one pass over every bucket.
            for bucket in &mut self.buckets {
                Self::sweep_bucket(bucket, &mut self.due, &mut self.len, now, &mut collected);
            }
            self.cursor = target;
        } else {
            // Finished slots strictly before `target`, then the partial
            // current slot (kept entries there are re-examined next call).
            let mut slot = self.cursor;
            while slot <= target {
                let bucket = &mut self.buckets[(slot & self.bucket_mask) as usize];
                Self::sweep_slot(
                    bucket,
                    &mut self.due,
                    &mut self.len,
                    slot,
                    now,
                    self.slot_ns,
                    &mut collected,
                );
                slot += 1;
            }
            self.cursor = target;
        }
        collected.sort_unstable();
        out.extend_from_slice(&collected);
        self.scratch = collected;
    }

    /// Full-revolution sweep: collect live entries due by `now`, drop stale
    /// ones, keep the rest.
    fn sweep_bucket(
        bucket: &mut Vec<(u64, u64)>,
        due: &mut [u64],
        len: &mut usize,
        now: u64,
        collected: &mut Vec<DueEntry>,
    ) {
        bucket.retain(|&(id, entry_due)| {
            if due[id as usize] != entry_due {
                return false; // stale (rescheduled/unscheduled/popped)
            }
            if entry_due <= now {
                due[id as usize] = UNSCHEDULED;
                *len -= 1;
                collected.push((entry_due, id));
                return false;
            }
            true
        });
    }

    /// Single-slot sweep: additionally keeps live future-revolution entries
    /// that merely share the bucket modulo the wheel size.
    #[allow(clippy::too_many_arguments)]
    fn sweep_slot(
        bucket: &mut Vec<(u64, u64)>,
        due: &mut [u64],
        len: &mut usize,
        slot: u64,
        now: u64,
        slot_ns: u64,
        collected: &mut Vec<DueEntry>,
    ) {
        bucket.retain(|&(id, entry_due)| {
            if due[id as usize] != entry_due {
                return false; // stale
            }
            // Live: due in this slot (or a late-parked earlier one) and
            // within the horizon → emit; otherwise it belongs to the partial
            // current slot or a later revolution → keep.
            if entry_due / slot_ns <= slot && entry_due <= now {
                due[id as usize] = UNSCHEDULED;
                *len -= 1;
                collected.push((entry_due, id));
                return false;
            }
            true
        });
    }
}

/// Slow reference: the same scheduling contract as [`CalendarQueue`],
/// implemented as a full linear scan of the due array on every pop —
/// O(population) per tick, trivially correct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanQueue {
    due: Vec<u64>,
    len: usize,
}

impl ScanQueue {
    /// Creates a scan-based queue for ids `0..n_ids`.
    #[must_use]
    pub fn new(n_ids: usize) -> Self {
        ScanQueue {
            due: vec![UNSCHEDULED; n_ids],
            len: 0,
        }
    }

    /// Number of currently scheduled ids.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no id is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The id's scheduled due time, if any.
    #[must_use]
    pub fn due_of(&self, id: u64) -> Option<u64> {
        match self.due[id as usize] {
            UNSCHEDULED => None,
            due => Some(due),
        }
    }

    /// Schedules (or reschedules) `id` to come due at `due`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `due` is `u64::MAX`.
    pub fn schedule(&mut self, id: u64, due: u64) {
        assert!(due != UNSCHEDULED, "u64::MAX is the unscheduled sentinel");
        if self.due[id as usize] == UNSCHEDULED {
            self.len += 1;
        }
        self.due[id as usize] = due;
    }

    /// Unschedules `id`; returns whether it was scheduled.
    pub fn unschedule(&mut self, id: u64) -> bool {
        if self.due[id as usize] == UNSCHEDULED {
            return false;
        }
        self.due[id as usize] = UNSCHEDULED;
        self.len -= 1;
        true
    }

    /// Pops every id due at or before `now` (linear scan), appending
    /// ascending `(due, id)` pairs to `out`.
    pub fn pop_due(&mut self, now: u64, out: &mut Vec<DueEntry>) {
        let start = out.len();
        for (id, slot) in self.due.iter_mut().enumerate() {
            if *slot != UNSCHEDULED && *slot <= now {
                out.push((*slot, id as u64));
                *slot = UNSCHEDULED;
                self.len -= 1;
            }
        }
        out[start..].sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SeedableRng, SmallRng};

    #[test]
    fn pops_in_due_then_id_order() {
        let mut q = CalendarQueue::new(16, 10, 8);
        q.schedule(3, 25);
        q.schedule(1, 25);
        q.schedule(7, 5);
        let mut out = Vec::new();
        q.pop_due(30, &mut out);
        assert_eq!(out, vec![(5, 7), (25, 1), (25, 3)]);
        assert!(q.is_empty());
    }

    #[test]
    fn future_entries_stay() {
        let mut q = CalendarQueue::new(4, 10, 4);
        q.schedule(0, 15);
        q.schedule(1, 500); // many revolutions out
        let mut out = Vec::new();
        q.pop_due(20, &mut out);
        assert_eq!(out, vec![(15, 0)]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.due_of(1), Some(500));
        out.clear();
        q.pop_due(499, &mut out);
        assert!(out.is_empty());
        q.pop_due(500, &mut out);
        assert_eq!(out, vec![(500, 1)]);
    }

    #[test]
    fn reschedule_leaves_no_duplicate() {
        let mut q = CalendarQueue::new(4, 10, 4);
        q.schedule(2, 15);
        q.schedule(2, 35); // stale (2,15) entry remains in its bucket
        q.schedule(2, 15); // back to the original due — identical twin entry
        let mut out = Vec::new();
        q.pop_due(100, &mut out);
        assert_eq!(out, vec![(15, 2)], "lazy deletion must deduplicate");
        assert!(q.is_empty());
    }

    #[test]
    fn unschedule_is_lazy_but_final() {
        let mut q = CalendarQueue::new(4, 10, 4);
        q.schedule(1, 15);
        assert!(q.unschedule(1));
        assert!(!q.unschedule(1));
        let mut out = Vec::new();
        q.pop_due(100, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn late_schedule_is_emitted_next_pop() {
        let mut q = CalendarQueue::new(4, 10, 4);
        let mut out = Vec::new();
        q.pop_due(1000, &mut out); // cursor far ahead
        q.schedule(3, 50); // already past
        out.clear();
        q.pop_due(1001, &mut out);
        assert_eq!(out, vec![(50, 3)]);
    }

    #[test]
    fn deep_time_jump_is_single_pass() {
        let mut q = CalendarQueue::new(64, 10, 8);
        for id in 0..64u64 {
            q.schedule(id, 10 + id * 7);
        }
        let mut out = Vec::new();
        q.pop_due(1_000_000, &mut out);
        assert_eq!(out.len(), 64);
        assert!(out.windows(2).all(|w| w[0] < w[1]));
        assert!(q.is_empty());
    }

    /// Seeded equivalence property: wheel vs linear-scan reference over
    /// random schedule/unschedule/pop interleavings with monotone now.
    #[test]
    fn prop_matches_scan_reference() {
        for seed in [0xCA1E_0001u64, 0xCA1E_0002, 0xCA1E_0003] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n_ids = 48usize;
            let mut wheel = CalendarQueue::new(n_ids, 16, 8);
            let mut scan = ScanQueue::new(n_ids);
            let mut now = 0u64;
            for _ in 0..2000 {
                match rng.gen_range(0u32..10) {
                    0..=4 => {
                        let id = rng.gen_range(0u64..n_ids as u64);
                        let due = now + rng.gen_range(0u64..400);
                        wheel.schedule(id, due);
                        scan.schedule(id, due);
                    }
                    5 => {
                        let id = rng.gen_range(0u64..n_ids as u64);
                        assert_eq!(wheel.unschedule(id), scan.unschedule(id));
                    }
                    6 => {
                        // occasional deep jump past a full revolution
                        now += rng.gen_range(0u64..1000);
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        wheel.pop_due(now, &mut a);
                        scan.pop_due(now, &mut b);
                        assert_eq!(a, b, "deep pop diverged at now={now}");
                    }
                    _ => {
                        now += rng.gen_range(0u64..40);
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        wheel.pop_due(now, &mut a);
                        scan.pop_due(now, &mut b);
                        assert_eq!(a, b, "pop diverged at now={now}");
                    }
                }
                assert_eq!(wheel.len(), scan.len());
                let probe = rng.gen_range(0u64..n_ids as u64);
                assert_eq!(wheel.due_of(probe), scan.due_of(probe));
            }
        }
    }
}

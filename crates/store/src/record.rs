//! Typed WAL records: run, progress and recovery markers.
//!
//! Records are compact tagged binary values (one tag byte, then
//! little-endian fields via [`memutil::codec`]). Recovery state travels
//! in snapshots and is rebuilt past them by deterministic re-execution of
//! the same trace, so the WAL journals only what locates a run in time:
//! its begin, one progress marker per quantum (fleet stores: per epoch),
//! and each recovery. The records between snapshot points
//! form an integrity-checked tail that recovery scans, counts and
//! truncates at the first torn or corrupt frame.

use memutil::codec::{Dec, Enc};

/// A single journaled run, progress or recovery marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A profiling run started.
    RunBegin {
        /// Pages under management.
        n_pages: u64,
        /// Planned run horizon in trace nanoseconds.
        duration_ns: u64,
        /// Test-quantum length in nanoseconds.
        quantum_ns: u64,
    },
    /// Quantum-boundary progress marker (pairs with cadence snapshots).
    Progress {
        /// Quantum index just completed.
        quantum: u64,
        /// Trace time in nanoseconds.
        now_ns: u64,
    },
    /// Fleet epoch barrier marker.
    EpochSample {
        /// Epoch index just completed.
        epoch: u64,
    },
    /// A recovery scanned this store (journaled *after* recovery, in the
    /// fresh post-recovery segment).
    RecoveryEvent {
        /// Intact records found in the WAL tail.
        replayed_records: u64,
        /// Bytes discarded from a torn or corrupt tail.
        truncated_bytes: u64,
    },
}

// Tags 1-7 framed per-transition records and tag 10 a run-finished
// marker; all are retired. Never reuse them, so an old segment holding one
// scans as a corrupt tail (truncated at recovery) instead of decoding as a
// different record.
const TAG_RUN_BEGIN: u8 = 0;
const TAG_PROGRESS: u8 = 8;
const TAG_EPOCH_SAMPLE: u8 = 9;
const TAG_RECOVERY_EVENT: u8 = 11;

impl Record {
    /// Encode to the tagged binary payload framed by the WAL.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(32);
        match *self {
            Record::RunBegin {
                n_pages,
                duration_ns,
                quantum_ns,
            } => {
                e.u8(TAG_RUN_BEGIN);
                e.u64(n_pages);
                e.u64(duration_ns);
                e.u64(quantum_ns);
            }
            Record::Progress { quantum, now_ns } => {
                e.u8(TAG_PROGRESS);
                e.u64(quantum);
                e.u64(now_ns);
            }
            Record::EpochSample { epoch } => {
                e.u8(TAG_EPOCH_SAMPLE);
                e.u64(epoch);
            }
            Record::RecoveryEvent {
                replayed_records,
                truncated_bytes,
            } => {
                e.u8(TAG_RECOVERY_EVENT);
                e.u64(replayed_records);
                e.u64(truncated_bytes);
            }
        }
        e.into_bytes()
    }

    /// Decode a payload produced by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Returns a description when the payload is truncated, carries an
    /// unknown tag, or has trailing bytes — all treated as corruption by
    /// the recovery scan.
    pub fn decode(payload: &[u8]) -> Result<Record, String> {
        let mut d = Dec::new(payload);
        let rec = match d.u8()? {
            TAG_RUN_BEGIN => Record::RunBegin {
                n_pages: d.u64()?,
                duration_ns: d.u64()?,
                quantum_ns: d.u64()?,
            },
            TAG_PROGRESS => Record::Progress {
                quantum: d.u64()?,
                now_ns: d.u64()?,
            },
            TAG_EPOCH_SAMPLE => Record::EpochSample { epoch: d.u64()? },
            TAG_RECOVERY_EVENT => Record::RecoveryEvent {
                replayed_records: d.u64()?,
                truncated_bytes: d.u64()?,
            },
            tag => return Err(format!("record: unknown tag {tag}")),
        };
        d.finish("record")?;
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Record> {
        vec![
            Record::RunBegin {
                n_pages: 4096,
                duration_ns: 1_000_000_000,
                quantum_ns: 64_000_000,
            },
            Record::Progress {
                quantum: 11,
                now_ns: 999,
            },
            Record::EpochSample { epoch: 6 },
            Record::RecoveryEvent {
                replayed_records: 12,
                truncated_bytes: 34,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for rec in samples() {
            let bytes = rec.encode();
            assert_eq!(Record::decode(&bytes).unwrap(), rec, "{rec:?}");
        }
    }

    #[test]
    fn decode_rejects_unknown_tags_truncation_and_trailing_bytes() {
        assert!(Record::decode(&[200]).is_err(), "unknown tag");
        for retired in (1..=7u8).chain([10]) {
            assert!(
                Record::decode(&[retired, 0]).is_err(),
                "retired tag {retired}"
            );
        }
        assert!(Record::decode(&[]).is_err(), "empty payload");
        let mut bytes = Record::EpochSample { epoch: 1 }.encode();
        bytes.pop();
        assert!(Record::decode(&bytes).is_err(), "truncated field");
        let mut bytes = Record::EpochSample { epoch: 1 }.encode();
        bytes.push(0);
        assert!(Record::decode(&bytes).is_err(), "trailing byte");
    }
}

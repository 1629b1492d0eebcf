//! Binary snapshot files: atomically published, checksum-verified.
//!
//! A snapshot captures the complete engine state at one publication
//! point. On-disk layout (all little-endian):
//!
//! ```text
//! [ magic: u64 ][ seq: u64 ][ len: u64 ][ crc32: u32 ][ payload ... ]
//! ```
//!
//! The checksum covers `seq`, `len` and the payload, so a flipped bit or
//! a truncation anywhere in the file fails [`decode`]. Publication is
//! write-temp → fsync → rename, so a crash at any point leaves either the
//! old snapshot set or the old set plus one new complete file; a file
//! whose data never reached the disk fails its checksum and recovery
//! falls back to the snapshot before it.

use memutil::codec::{Dec, Enc};

/// `MCSNAP02` in ASCII: identifies (and versions) snapshot files. The
/// `MCSNAP01` layout carried a WAL-bound word after `seq`; such a file is
/// rejected here rather than misread.
pub const SNAP_MAGIC: u64 = 0x4D43_534E_4150_3032;

const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3, the zlib/gzip polynomial) of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// A decoded, checksum-verified snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotonic snapshot sequence number within the store.
    pub seq: u64,
    /// Opaque engine-defined state blob.
    pub payload: Vec<u8>,
}

/// Encodes a snapshot file image.
#[must_use]
pub fn encode(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut e = Enc::with_capacity(28 + payload.len());
    e.u64(SNAP_MAGIC);
    e.u64(seq);
    e.u64(payload.len() as u64);
    e.u32(header_crc(seq, payload));
    let mut out = e.into_bytes();
    out.extend_from_slice(payload);
    out
}

fn header_crc(seq: u64, payload: &[u8]) -> u32 {
    let mut h = Enc::with_capacity(16 + payload.len());
    h.u64(seq);
    h.u64(payload.len() as u64);
    let mut covered = h.into_bytes();
    covered.extend_from_slice(payload);
    crc32(&covered)
}

/// Decodes and verifies a snapshot file image.
///
/// # Errors
///
/// Returns a description when the magic, length, or checksum does not
/// hold — the caller treats the file as corrupt and falls back to the
/// previous snapshot (or refuses recovery), never loading a bad image.
pub fn decode(bytes: &[u8]) -> Result<Snapshot, String> {
    let mut d = Dec::new(bytes);
    let magic = d.u64()?;
    if magic != SNAP_MAGIC {
        return Err(format!("snapshot: bad magic {magic:#018x}"));
    }
    let seq = d.u64()?;
    let len = d.u64()?;
    let want_crc = d.u32()?;
    let len_usize = usize::try_from(len).map_err(|_| "snapshot: length overflow".to_string())?;
    if d.remaining() != len_usize {
        return Err(format!(
            "snapshot: payload length {len} does not match {} trailing bytes",
            d.remaining()
        ));
    }
    let payload = bytes[bytes.len() - len_usize..].to_vec();
    if header_crc(seq, &payload) != want_crc {
        return Err("snapshot: checksum mismatch".to_string());
    }
    Ok(Snapshot { seq, payload })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_reference_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip() {
        let img = encode(3, b"engine-state");
        let snap = decode(&img).unwrap();
        assert_eq!(snap.seq, 3);
        assert_eq!(snap.payload, b"engine-state");
    }

    #[test]
    fn empty_payload_round_trips() {
        let img = encode(0, &[]);
        assert_eq!(decode(&img).unwrap().payload, Vec::<u8>::new());
    }

    #[test]
    fn corruption_anywhere_is_detected() {
        let img = encode(5, b"some state bytes");
        for i in 0..img.len() {
            let mut bad = img.clone();
            bad[i] ^= 0x40;
            assert!(decode(&bad).is_err(), "flip at byte {i} went undetected");
        }
        // Truncation at any point is detected too.
        for cut in 0..img.len() {
            assert!(decode(&img[..cut]).is_err(), "truncation to {cut} loaded");
        }
    }

    #[test]
    fn v1_magic_is_rejected() {
        // A well-formed `MCSNAP01` image: magic, seq, WAL bound, len, crc.
        let payload = b"old-layout";
        let mut e = Enc::with_capacity(64);
        e.u64(0x4D43_534E_4150_3031);
        e.u64(1);
        e.u64(2);
        e.u64(payload.len() as u64);
        e.u32(0);
        let mut img = e.into_bytes();
        img.extend_from_slice(payload);
        let err = decode(&img).unwrap_err();
        assert!(err.contains("bad magic"), "{err}");
    }
}

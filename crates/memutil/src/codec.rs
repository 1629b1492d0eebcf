//! Minimal little-endian binary codec shared by the snapshot encoders.
//!
//! The durability layer persists engine state as flat streams of fixed-width
//! integers (floats travel as IEEE-754 bit patterns). Keeping the codec here,
//! below every other crate, lets `memcon` encode its own state without the
//! store crate needing to know engine internals.
//!
//! Snapshot-carried types implement [`Codec`] next to their definition, so
//! each layout is written once and read back by the same definition; plain
//! structs get both directions from one field list via
//! [`codec_struct!`](crate::codec_struct).
//! Sequences (`Vec<T>`, `[T; N]`) travel as a `u64` element count followed
//! by the elements; `Option<T>` as a presence bool followed by the value.

/// Append-only encoder producing a flat little-endian byte stream.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Create an empty encoder.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Create an encoder with a pre-sized buffer.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Append a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Floats are persisted as raw bit patterns so round-trips are exact.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Consume the encoder and return the byte stream.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-based decoder over a byte slice; every read is bounds-checked and
/// returns a descriptive error instead of panicking on truncated input.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Start decoding at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "codec: truncated input reading {what}: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a bool byte, rejecting anything but 0/1.
    pub fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!("codec: invalid bool byte {v}")),
        }
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        let s = self.take(4, "u32")?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        let s = self.take(8, "u64")?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Read an `f64` persisted as its bit pattern.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], String> {
        let len = self.u64()?;
        let len = usize::try_from(len).map_err(|_| "codec: byte length overflow".to_string())?;
        self.take(len, "bytes")
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, String> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| "codec: invalid utf-8 string".to_string())
    }

    /// Assert the stream is fully consumed (catches layout drift).
    pub fn finish(self, what: &str) -> Result<(), String> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(format!(
                "codec: {} bytes of trailing garbage after {what}",
                self.remaining()
            ))
        }
    }
}

/// A type with one binary layout: `decode` reads back exactly what
/// `encode` wrote, or returns a description of why it cannot.
pub trait Codec: Sized {
    /// Append `self` to `e`.
    fn encode(&self, e: &mut Enc);

    /// Read one value from `d`.
    ///
    /// # Errors
    ///
    /// Returns a description when the input is truncated or malformed.
    fn decode(d: &mut Dec<'_>) -> Result<Self, String>;
}

macro_rules! primitive_codec {
    ($($ty:ident),+) => {
        $(impl Codec for $ty {
            fn encode(&self, e: &mut Enc) {
                e.$ty(*self);
            }

            fn decode(d: &mut Dec<'_>) -> Result<Self, String> {
                d.$ty()
            }
        })+
    };
}

primitive_codec!(u8, u32, u64, f64, bool);

/// `usize` travels as a `u64`; a value the host cannot address is an error.
impl Codec for usize {
    fn encode(&self, e: &mut Enc) {
        e.u64(*self as u64);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, String> {
        let v = d.u64()?;
        usize::try_from(v).map_err(|_| format!("codec: {v} exceeds the address space"))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, e: &mut Enc) {
        e.bool(self.is_some());
        if let Some(v) = self {
            v.encode(e);
        }
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, String> {
        Ok(if d.bool()? { Some(T::decode(d)?) } else { None })
    }
}

fn encode_seq<T: Codec>(items: &[T], e: &mut Enc) {
    e.u64(items.len() as u64);
    for v in items {
        v.encode(e);
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, e: &mut Enc) {
        encode_seq(self, e);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, String> {
        let len = usize::decode(d)?;
        // Every element takes at least one byte: refuse a corrupt count
        // before allocating for it.
        if len > d.remaining() {
            return Err(format!(
                "codec: truncated sequence: claimed {len} entries, {} bytes remain",
                d.remaining()
            ));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(d)?);
        }
        Ok(out)
    }
}

/// Same layout as `Vec<T>`; decoding rejects any count other than `N`.
impl<T: Codec, const N: usize> Codec for [T; N] {
    fn encode(&self, e: &mut Enc) {
        encode_seq(self, e);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, String> {
        let v = Vec::<T>::decode(d)?;
        let len = v.len();
        v.try_into()
            .map_err(|_| format!("codec: expected {N} entries, found {len}"))
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, e: &mut Enc) {
        self.0.encode(e);
        self.1.encode(e);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, String> {
        Ok((A::decode(d)?, B::decode(d)?))
    }
}

/// Implements [`Codec`] for a plain struct from a single field list: the
/// fields travel in the listed order, and the list must name every field
/// (the struct literal built by `decode` refuses to compile otherwise).
#[macro_export]
macro_rules! codec_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::codec::Codec for $ty {
            fn encode(&self, e: &mut $crate::codec::Enc) {
                $($crate::codec::Codec::encode(&self.$field, e);)+
            }

            fn decode(
                d: &mut $crate::codec::Dec<'_>,
            ) -> ::std::result::Result<Self, ::std::string::String> {
                ::std::result::Result::Ok($ty {
                    $($field: $crate::codec::Codec::decode(d)?,)+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_every_primitive() {
        let mut e = Enc::new();
        e.u8(7);
        e.bool(true);
        e.bool(false);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 3);
        e.f64(-0.125);
        e.bytes(b"hello");
        e.str("memcon");
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.f64().unwrap(), -0.125);
        assert_eq!(d.bytes().unwrap(), b"hello");
        assert_eq!(d.str().unwrap(), "memcon");
        d.finish("round trip").unwrap();
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut d = Dec::new(&[1, 2, 3]);
        assert!(d.u64().is_err());
        let mut d = Dec::new(&[8, 0, 0, 0, 0, 0, 0, 0, 1]);
        assert!(d.bytes().is_err());
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for v in [0.0, -0.0, 1.5e-300, f64::INFINITY, f64::MIN_POSITIVE] {
            let mut e = Enc::new();
            e.f64(v);
            let b = e.into_bytes();
            let got = Dec::new(&b).f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn finish_flags_trailing_bytes() {
        let mut e = Enc::new();
        e.u64(1);
        e.u8(9);
        let b = e.into_bytes();
        let mut d = Dec::new(&b);
        d.u64().unwrap();
        assert!(d.finish("partial").is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Sample {
        a: u64,
        b: Option<u32>,
        c: Vec<(u64, usize)>,
        d: [bool; 2],
        e: f64,
    }

    crate::codec_struct!(Sample { a, b, c, d, e });

    fn encoded<T: Codec>(v: &T) -> Vec<u8> {
        let mut e = Enc::new();
        v.encode(&mut e);
        e.into_bytes()
    }

    #[test]
    fn codec_round_trips_composites_in_field_order() {
        let s = Sample {
            a: 7,
            b: Some(9),
            c: vec![(1, 2), (3, 4)],
            d: [true, false],
            e: -1.5,
        };
        let bytes = encoded(&s);
        // a, presence + b, count + pairs, count + bools, e.
        assert_eq!(bytes.len(), 8 + (1 + 4) + (8 + 2 * 16) + (8 + 2) + 8);
        let mut d = Dec::new(&bytes);
        assert_eq!(Sample::decode(&mut d).unwrap(), s);
        d.finish("sample").unwrap();
    }

    #[test]
    fn sequences_are_count_prefixed_like_the_primitive_writers() {
        let mut e = Enc::new();
        e.u64(2);
        e.u64(10);
        e.u64(11);
        assert_eq!(encoded(&vec![10u64, 11]), e.into_bytes());
        assert_eq!(encoded(&[10u64, 11]), encoded(&vec![10u64, 11]));
        let mut e = Enc::new();
        e.bytes(&[0, 1, 1]);
        assert_eq!(encoded(&vec![false, true, true]), e.into_bytes());
    }

    #[test]
    fn sequence_decode_rejects_bad_counts() {
        // A claimed count beyond the remaining bytes is refused up front.
        let mut e = Enc::new();
        e.u64(u64::MAX / 2);
        e.u8(1);
        let b = e.into_bytes();
        let err = Vec::<u8>::decode(&mut Dec::new(&b)).unwrap_err();
        assert!(err.contains("claimed"), "{err}");
        // Arrays insist on their exact length.
        let b = encoded(&vec![1u64, 2, 3]);
        assert!(<[u64; 2]>::decode(&mut Dec::new(&b)).is_err());
        assert_eq!(<[u64; 3]>::decode(&mut Dec::new(&b)).unwrap(), [1, 2, 3]);
        // Option's presence byte is a strict bool.
        assert!(Option::<u8>::decode(&mut Dec::new(&[2, 0])).is_err());
    }
}

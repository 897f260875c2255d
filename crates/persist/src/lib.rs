//! Durable-state layer: the versioned binary codec every snapshot, delta
//! log and checkpoint in the workspace is written with.
//!
//! The paper's adaptive partitioner only earns its keep on *long-running*
//! dynamic graphs, which makes recoverable state table stakes: a stream
//! consumer that dies must restart from `(snapshot, log tail)` and continue
//! exactly where it left off. This crate provides the bottom of that stack:
//!
//! * [`Encode`] / [`Decode`] — a small, real binary data model (LEB128
//!   varints for integers, IEEE-754 bits for floats, length-prefixed
//!   sequences) with implementations for the primitive types, tuples,
//!   `Option` and `Vec`.
//! * [`Encoder`] / [`Decoder`] — the byte-level writer/reader pair.
//!   Decoding is total: every failure mode is a typed [`DecodeError`],
//!   never a panic, so corrupt or truncated files surface as errors.
//! * [`mod@format`] — framed containers: a 4-byte magic, a `u16` format
//!   version and the payload, so on-disk artefacts are self-identifying
//!   and version drift is rejected loudly (see
//!   [`format::encode_framed`] / [`format::decode_framed`]).
//! * [`store`] — the file-backed durability layer: append-only log
//!   segments and snapshot files of length-prefixed CRC-checksummed
//!   frames, an atomically-flipped manifest, explicit fsync ordering, and
//!   torn-tail recovery (see [`store::SegmentStore`]).
//!
//! The domain types implement the traits next to their definitions
//! (`apg-graph` for graphs/deltas, `apg-partition` for assignments,
//! `apg-core` for checkpoints), keeping field access private while this
//! crate stays dependency-free.
//!
//! # Format stability
//!
//! The byte format is pinned by golden fixtures committed under
//! `tests/fixtures/` at the workspace root: re-encoding the canonical
//! values must reproduce those files byte-for-byte, and decoding them must
//! reproduce the values. Any intentional format change must bump
//! [`format::VERSION`] and regenerate the fixtures (`APG_BLESS=1`), at
//! which point decoders may add back-compat arms keyed on the header
//! version.
//!
//! # Example
//!
//! ```
//! use apg_persist::{Decode, Decoder, Encode, Encoder};
//!
//! let value: (u32, Vec<bool>, Option<f64>) = (7, vec![true, false], Some(0.5));
//! let mut enc = Encoder::new();
//! value.encode(&mut enc);
//! let bytes = enc.into_bytes();
//!
//! let mut dec = Decoder::new(&bytes);
//! let back = <(u32, Vec<bool>, Option<f64>)>::decode(&mut dec).unwrap();
//! dec.finish().unwrap();
//! assert_eq!(back, value);
//! ```

pub mod store;

/// Why a byte stream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ended inside a value.
    UnexpectedEof {
        /// Bytes still required by the read that failed.
        needed: usize,
        /// Bytes remaining in the stream.
        remaining: usize,
    },
    /// The first bytes are not the expected container magic.
    BadMagic {
        /// The magic the decoder was asked for.
        expected: [u8; 4],
        /// What the stream actually starts with.
        found: [u8; 4],
    },
    /// The container's format version is not supported by this build.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Highest version this build understands.
        supported: u16,
    },
    /// A value decoded but violates an invariant of its type.
    Corrupt(&'static str),
    /// Decoding finished with unread bytes left over.
    TrailingBytes {
        /// How many bytes were never consumed.
        remaining: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEof { needed, remaining } => write!(
                f,
                "unexpected end of stream: needed {needed} more byte(s), {remaining} remaining"
            ),
            DecodeError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                std::str::from_utf8(expected).unwrap_or("<binary>"),
                found
            ),
            DecodeError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported format version {found} (this build supports up to {supported})"
            ),
            DecodeError::Corrupt(what) => write!(f, "corrupt payload: {what}"),
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing byte(s) after the payload")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Byte-stream writer the [`Encode`] impls append to.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    bytes: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes verbatim.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// Appends an unsigned integer as a LEB128 varint (1 byte for values
    /// below 128 — lengths and ids in small graphs stay small on disk).
    pub fn write_varint(&mut self, mut value: u64) {
        loop {
            let byte = (value & 0x7f) as u8;
            value >>= 7;
            if value == 0 {
                self.bytes.push(byte);
                return;
            }
            self.bytes.push(byte | 0x80);
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Finishes encoding, yielding the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Byte-stream reader the [`Decode`] impls consume from.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Wraps a byte slice for decoding.
    pub fn new(bytes: &'a [u8]) -> Self {
        Decoder { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads exactly `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof {
                needed: n - self.remaining(),
                remaining: self.remaining(),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a LEB128 varint written by [`Encoder::write_varint`].
    ///
    /// Only the *minimal* encoding is accepted: a terminal zero byte after
    /// at least one continuation byte (e.g. `0x85 0x00` for 5) decodes to
    /// the same value the one-byte form would, so accepting it would break
    /// the canonical-bytes contract (decode-then-re-encode must reproduce
    /// the input) the golden fixtures and the decoder-totality property
    /// tests pin.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEof`] on truncation,
    /// [`DecodeError::Corrupt`] if the varint runs past 64 bits or is not
    /// minimally encoded.
    pub fn read_varint(&mut self) -> Result<u64, DecodeError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.read_bytes(1)?[0];
            if shift == 63 && byte > 1 {
                return Err(DecodeError::Corrupt("varint overflows 64 bits"));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                if shift > 0 && byte == 0 {
                    return Err(DecodeError::Corrupt("varint is not minimally encoded"));
                }
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(DecodeError::Corrupt("varint overflows 64 bits"));
            }
        }
    }

    /// Declares decoding complete.
    ///
    /// # Errors
    ///
    /// [`DecodeError::TrailingBytes`] if unread bytes remain — a length
    /// mismatch a plain EOF check would miss.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() > 0 {
            return Err(DecodeError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Types that can write themselves into an [`Encoder`].
///
/// Encoding is infallible (it targets an in-memory buffer) and must be a
/// pure function of the value: equal values produce equal bytes, which is
/// what lets golden fixtures pin the format byte-for-byte.
pub trait Encode {
    /// Appends this value's byte representation.
    fn encode(&self, enc: &mut Encoder);

    /// Convenience: encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.into_bytes()
    }
}

/// Types that can read themselves back from a [`Decoder`].
///
/// `decode` must accept exactly the bytes `encode` produced (round-trip
/// identity) and must reject, with a typed error, any stream that violates
/// the type's invariants — decoders are the trust boundary for data read
/// from disk.
pub trait Decode: Sized {
    /// Reads one value.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] on truncated, overlong or invariant-violating
    /// input.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError>;

    /// Convenience: decodes a complete buffer, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// As [`Decode::decode`], plus [`DecodeError::TrailingBytes`].
    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut dec = Decoder::new(bytes);
        let value = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(value)
    }
}

macro_rules! impl_varint_codec {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, enc: &mut Encoder) {
                enc.write_varint(*self as u64);
            }
        }

        impl Decode for $t {
            fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                let raw = dec.read_varint()?;
                <$t>::try_from(raw).map_err(|_| DecodeError::Corrupt(concat!(
                    "varint out of range for ", stringify!($t)
                )))
            }
        }
    )*};
}

impl_varint_codec!(u8, u16, u32, usize);

impl Encode for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.write_varint(*self);
    }
}

impl Decode for u64 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.read_varint()
    }
}

impl Encode for bool {
    fn encode(&self, enc: &mut Encoder) {
        enc.write_bytes(&[u8::from(*self)]);
    }
}

impl Decode for bool {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.read_bytes(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Corrupt("bool byte is neither 0 nor 1")),
        }
    }
}

impl Encode for f64 {
    /// IEEE-754 bits, little-endian: exact round trip, NaN payloads
    /// included.
    fn encode(&self, enc: &mut Encoder) {
        enc.write_bytes(&self.to_bits().to_le_bytes());
    }
}

impl Decode for f64 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let raw = dec.read_bytes(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(raw.try_into().expect(
            "read_bytes(8) returned a slice of exactly 8 bytes",
        ))))
    }
}

impl Encode for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.write_varint(self.len() as u64);
        enc.write_bytes(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = decode_len(dec, 1)?;
        let raw = dec.read_bytes(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::Corrupt("string is not UTF-8"))
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, enc: &mut Encoder) {
        enc.write_varint(self.len() as u64);
        for item in self {
            item.encode(enc);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        self.as_slice().encode(enc);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = decode_len(dec, 1)?;
        let mut out = Vec::with_capacity(len.min(dec.remaining()));
        for _ in 0..len {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => false.encode(enc),
            Some(value) => {
                true.encode(enc);
                value.encode(enc);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        if bool::decode(dec)? {
            Ok(Some(T::decode(dec)?))
        } else {
            Ok(None)
        }
    }
}

macro_rules! impl_tuple_codec {
    ($( ($($name:ident . $idx:tt),+) ),+ $(,)?) => {$(
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode(&self, enc: &mut Encoder) {
                $(self.$idx.encode(enc);)+
            }
        }

        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                Ok(($($name::decode(dec)?,)+))
            }
        }
    )+};
}

impl_tuple_codec!((A.0), (A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3));

/// Reads a sequence length and sanity-checks it against the bytes left:
/// a corrupted length (e.g. from a flipped high byte) must fail fast as
/// `Corrupt`, not attempt a multi-gigabyte allocation and then EOF.
///
/// `min_item_bytes` is the smallest possible encoding of one element.
///
/// # Errors
///
/// [`DecodeError::Corrupt`] when the claimed length cannot possibly fit in
/// the remaining bytes; propagates varint read errors.
pub fn decode_len(dec: &mut Decoder<'_>, min_item_bytes: usize) -> Result<usize, DecodeError> {
    let raw = dec.read_varint()?;
    let len = usize::try_from(raw).map_err(|_| DecodeError::Corrupt("length exceeds usize"))?;
    if len.saturating_mul(min_item_bytes.max(1)) > dec.remaining() {
        return Err(DecodeError::Corrupt(
            "sequence length exceeds the remaining payload",
        ));
    }
    Ok(len)
}

pub mod format {
    //! Framed containers: magic + version + payload.
    //!
    //! Every artefact the workspace persists is wrapped in a 6-byte header
    //! — a 4-byte ASCII magic identifying *what* the file is and a `u16`
    //! little-endian version identifying *which format revision* wrote it —
    //! so a reader can reject foreign files ([`DecodeError::BadMagic`]) and
    //! future-format files ([`DecodeError::UnsupportedVersion`]) before
    //! touching the payload.

    use super::{Decode, DecodeError, Decoder, Encode, Encoder};

    /// Current format revision, shared by every container. Bump on any
    /// byte-level change and regenerate the golden fixtures.
    ///
    /// v2: `AdaptiveConfig` gained a persisted drain-floor fraction
    /// (adaptive per-batch iteration budget; gone again in v5).
    ///
    /// v3: `StreamCheckpoint` bounds its timeline — it carries a rolling
    /// `TimelineStats` suffix plus `timeline_window`, `batches_ingested`
    /// and `timeline_digest` (an FNV-1a fold over the evicted prefix)
    /// instead of the full history, making snapshot size O(window) rather
    /// than O(stream).
    ///
    /// v4: incremental delta checkpoints. A new framed container
    /// ([`MAGIC_DELTA`]) encodes a checkpoint against a referenced base
    /// snapshot `(seq, digest)`: changed adjacency spans, vertex births
    /// and tombstones, per-vertex label records, bookkeeping deltas and
    /// the timeline-window suffix. The store grows digest-chained
    /// `dsnap-<seq>.bin` files alongside full snapshots.
    ///
    /// v5: settings no caller varied leave the wire. `AdaptiveConfig`
    /// drops its placement-policy tag and drain-floor fraction; the
    /// runner's scalar block drops its `record` flag and is written
    /// contiguously; `StreamCheckpoint` drops its recorded replay `log`,
    /// and `CheckpointDelta` the base log length and the log suffix (the
    /// write-ahead tail is the one durable batch history). `APGC` is 11
    /// bytes shorter, `APGD` 12.
    pub const VERSION: u16 = 5;

    /// Magic for a [`DynGraph`](../../apg_graph/struct.DynGraph.html)
    /// snapshot.
    pub const MAGIC_GRAPH: [u8; 4] = *b"APGG";
    /// Magic for a delta-log segment file.
    pub const MAGIC_LOG: [u8; 4] = *b"APGL";
    /// Magic for a streaming-runner checkpoint (snapshot + log tail).
    pub const MAGIC_CHECKPOINT: [u8; 4] = *b"APGC";
    /// Magic for an incremental delta checkpoint (encoded against a base
    /// snapshot referenced by `(seq, digest)`).
    pub const MAGIC_DELTA: [u8; 4] = *b"APGD";

    /// Writes `magic`, [`VERSION`] and the encoded `value`.
    pub fn encode_framed<T: Encode>(magic: [u8; 4], value: &T) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.write_bytes(&magic);
        enc.write_bytes(&VERSION.to_le_bytes());
        value.encode(&mut enc);
        enc.into_bytes()
    }

    /// Checks the header, decodes the payload, rejects trailing bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadMagic`] / [`DecodeError::UnsupportedVersion`] on
    /// header mismatch, plus any payload [`DecodeError`].
    pub fn decode_framed<T: Decode>(magic: [u8; 4], bytes: &[u8]) -> Result<T, DecodeError> {
        let mut dec = Decoder::new(bytes);
        let found = dec.read_bytes(4)?;
        if found != magic {
            return Err(DecodeError::BadMagic {
                expected: magic,
                found: found.try_into().expect("read_bytes(4) returned 4 bytes"),
            });
        }
        let version = u16::from_le_bytes(
            dec.read_bytes(2)?
                .try_into()
                .expect("read_bytes(2) returned 2 bytes"),
        );
        // Exact-version match: the payload decoders read the current
        // layout only (they are not version-aware), so an older revision's
        // bytes must be rejected here rather than misparsed downstream.
        if version != VERSION {
            return Err(DecodeError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let value = T::decode(&mut dec)?;
        dec.finish()?;
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), value);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(65_535u16);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(0.0f64);
        round_trip(-0.0f64);
        round_trip(f64::INFINITY);
        round_trip(std::f64::consts::PI);
        round_trip(String::from("snapshot ∆ log"));
        round_trip(String::new());
    }

    #[test]
    fn nan_round_trips_bitwise() {
        let bytes = f64::NAN.to_bytes();
        let back = f64::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1u32, 128, 16_384, 2_097_152]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(42u16));
        round_trip(Option::<u16>::None);
        round_trip((7u8, vec![true, false], Some(1.5f64)));
        round_trip(vec![vec![1u8, 2], vec![], vec![3]]);
    }

    #[test]
    fn varints_use_minimal_bytes() {
        assert_eq!(127u64.to_bytes().len(), 1);
        assert_eq!(128u64.to_bytes().len(), 2);
        assert_eq!(16_383u64.to_bytes().len(), 2);
        assert_eq!(16_384u64.to_bytes().len(), 3);
        assert_eq!(u64::MAX.to_bytes().len(), 10);
    }

    #[test]
    fn truncation_is_eof_not_panic() {
        let bytes = (vec![1u32, 2, 3], 99u64).to_bytes();
        for cut in 0..bytes.len() {
            let err = <(Vec<u32>, u64)>::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    DecodeError::UnexpectedEof { .. } | DecodeError::Corrupt(_)
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = 5u32.to_bytes();
        bytes.push(0);
        assert_eq!(
            u32::from_bytes(&bytes).unwrap_err(),
            DecodeError::TrailingBytes { remaining: 1 }
        );
    }

    #[test]
    fn narrowing_decodes_reject_out_of_range() {
        let bytes = 300u64.to_bytes();
        assert!(matches!(
            u8::from_bytes(&bytes).unwrap_err(),
            DecodeError::Corrupt(_)
        ));
    }

    #[test]
    fn overlong_varint_is_corrupt() {
        // 11 continuation bytes: more than a u64 can hold.
        let bytes = [0xffu8; 11];
        assert!(matches!(
            u64::from_bytes(&bytes).unwrap_err(),
            DecodeError::Corrupt(_)
        ));
    }

    #[test]
    fn non_minimal_varint_is_corrupt() {
        // 0x85 0x00 decodes to 5 under a permissive reader, but re-encodes
        // as the single byte 0x05 — canonical decoding must reject it.
        assert!(matches!(
            u64::from_bytes(&[0x85, 0x00]).unwrap_err(),
            DecodeError::Corrupt("varint is not minimally encoded")
        ));
        // Longer padding chains are equally non-minimal.
        assert!(matches!(
            u64::from_bytes(&[0xff, 0x80, 0x80, 0x00]).unwrap_err(),
            DecodeError::Corrupt("varint is not minimally encoded")
        ));
        // The single zero byte *is* the minimal encoding of 0.
        assert_eq!(u64::from_bytes(&[0x00]).unwrap(), 0);
    }

    #[test]
    fn bogus_length_fails_fast() {
        // A Vec<u64> claiming u64::MAX elements with a 1-byte payload must
        // be Corrupt, not an allocation attempt.
        let mut enc = Encoder::new();
        enc.write_varint(u64::MAX);
        enc.write_bytes(&[1]);
        assert!(matches!(
            Vec::<u64>::from_bytes(&enc.into_bytes()).unwrap_err(),
            DecodeError::Corrupt(_)
        ));
    }

    #[test]
    fn bad_bool_is_corrupt() {
        assert!(matches!(
            bool::from_bytes(&[2]).unwrap_err(),
            DecodeError::Corrupt(_)
        ));
    }

    #[test]
    fn framed_containers_check_magic_and_version() {
        let value = vec![1u32, 2, 3];
        let bytes = format::encode_framed(format::MAGIC_GRAPH, &value);
        assert_eq!(
            format::decode_framed::<Vec<u32>>(format::MAGIC_GRAPH, &bytes).unwrap(),
            value
        );

        // Wrong magic.
        let err = format::decode_framed::<Vec<u32>>(format::MAGIC_LOG, &bytes).unwrap_err();
        assert!(matches!(err, DecodeError::BadMagic { .. }));

        // Future version.
        let mut future = bytes.clone();
        future[4..6].copy_from_slice(&(format::VERSION + 1).to_le_bytes());
        let err = format::decode_framed::<Vec<u32>>(format::MAGIC_GRAPH, &future).unwrap_err();
        assert_eq!(
            err,
            DecodeError::UnsupportedVersion {
                found: format::VERSION + 1,
                supported: format::VERSION
            }
        );

        // Version 0 never existed.
        let mut zero = bytes.clone();
        zero[4..6].copy_from_slice(&0u16.to_le_bytes());
        assert!(matches!(
            format::decode_framed::<Vec<u32>>(format::MAGIC_GRAPH, &zero).unwrap_err(),
            DecodeError::UnsupportedVersion { found: 0, .. }
        ));

        // Truncated header and truncated payload.
        assert!(format::decode_framed::<Vec<u32>>(format::MAGIC_GRAPH, &bytes[..3]).is_err());
        assert!(
            format::decode_framed::<Vec<u32>>(format::MAGIC_GRAPH, &bytes[..bytes.len() - 1])
                .is_err()
        );

        // Trailing garbage.
        let mut padded = bytes.clone();
        padded.push(0xee);
        assert_eq!(
            format::decode_framed::<Vec<u32>>(format::MAGIC_GRAPH, &padded).unwrap_err(),
            DecodeError::TrailingBytes { remaining: 1 }
        );
    }

    #[test]
    fn errors_display_usefully() {
        let msgs = [
            DecodeError::UnexpectedEof {
                needed: 4,
                remaining: 1,
            }
            .to_string(),
            DecodeError::BadMagic {
                expected: *b"APGG",
                found: *b"NOPE",
            }
            .to_string(),
            DecodeError::UnsupportedVersion {
                found: 9,
                supported: 1,
            }
            .to_string(),
            DecodeError::Corrupt("demo").to_string(),
            DecodeError::TrailingBytes { remaining: 3 }.to_string(),
        ];
        for msg in msgs {
            assert!(!msg.is_empty());
        }
    }
}

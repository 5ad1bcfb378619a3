//! Protobuf wire-format primitives: varints, field keys, length-delimited
//! payloads, fixed 32/64-bit scalars, and packed repeated scalars.
//!
//! This is the whole protobuf dependency surface of the ONNX subsystem — a
//! reader and a writer over the four wire types the `.onnx` serialization
//! actually uses. No descriptors, no reflection, no codegen: message
//! decoding in [`crate::proto`] is a loop over `(field number, wire type)`
//! keys with a `match` per message.
//!
//! Every reader error carries the byte offset where decoding failed so a
//! truncated or bit-flipped model file produces an actionable `ONNX-WIRE`
//! diagnostic instead of a panic or a silently wrong graph. Strings and
//! byte payloads come back as slices of the input buffer: reading copies
//! nothing.

use crate::OnnxError;

/// Protobuf wire types (the subset ONNX serialization uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireType {
    /// Wire type 0: base-128 varints (ints, enums, bools).
    Varint,
    /// Wire type 1: little-endian fixed 64-bit (double, fixed64).
    Fixed64,
    /// Wire type 2: length-delimited (strings, bytes, sub-messages, packed
    /// repeated scalars).
    Len,
    /// Wire type 5: little-endian fixed 32-bit (float, fixed32).
    Fixed32,
}

impl WireType {
    fn from_bits(bits: u64, offset: usize) -> Result<WireType, OnnxError> {
        match bits {
            0 => Ok(WireType::Varint),
            1 => Ok(WireType::Fixed64),
            2 => Ok(WireType::Len),
            5 => Ok(WireType::Fixed32),
            other => Err(OnnxError::Wire {
                offset,
                reason: format!("unsupported wire type {other}"),
            }),
        }
    }

    fn bits(self) -> u64 {
        match self {
            WireType::Varint => 0,
            WireType::Fixed64 => 1,
            WireType::Len => 2,
            WireType::Fixed32 => 5,
        }
    }
}

/// Cursor over a protobuf-encoded byte buffer.
///
/// `base` is the buffer's offset within the whole file, so errors from
/// nested sub-message readers still report absolute file positions.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
    base: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader {
            buf,
            pos: 0,
            base: 0,
        }
    }

    /// A reader over `buf` that reports errors at `base + local offset`.
    pub fn with_base(buf: &'a [u8], base: usize) -> WireReader<'a> {
        WireReader { buf, pos: 0, base }
    }

    /// Absolute offset of the next unread byte.
    pub fn offset(&self) -> usize {
        self.base + self.pos
    }

    /// True when the buffer is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn truncated(&self, what: &str) -> OnnxError {
        OnnxError::Wire {
            offset: self.offset(),
            reason: format!(
                "truncated {what} (buffer ends after {} bytes)",
                self.buf.len()
            ),
        }
    }

    /// Read one base-128 varint (at most 10 bytes for a u64).
    pub fn varint(&mut self) -> Result<u64, OnnxError> {
        let mut value: u64 = 0;
        for i in 0..10 {
            let Some(&byte) = self.buf.get(self.pos) else {
                return Err(self.truncated("varint"));
            };
            self.pos += 1;
            let payload = (byte & 0x7f) as u64;
            // The 10th byte of a u64 varint may only carry one bit.
            if i == 9 && payload > 1 {
                return Err(OnnxError::Wire {
                    offset: self.offset() - 1,
                    reason: "varint overflows 64 bits".into(),
                });
            }
            value |= payload << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(OnnxError::Wire {
            offset: self.offset(),
            reason: "varint longer than 10 bytes".into(),
        })
    }

    /// Varint reinterpreted as two's-complement i64 (protobuf `int64`).
    pub fn varint_i64(&mut self) -> Result<i64, OnnxError> {
        Ok(self.varint()? as i64)
    }

    /// Read one `(field number, wire type)` key.
    pub fn key(&mut self) -> Result<(u64, WireType), OnnxError> {
        let at = self.offset();
        let key = self.varint()?;
        let field = key >> 3;
        if field == 0 {
            return Err(OnnxError::Wire {
                offset: at,
                reason: "field number 0 is invalid".into(),
            });
        }
        Ok((field, WireType::from_bits(key & 0x7, at)?))
    }

    /// Read a length-delimited payload, returning the raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], OnnxError> {
        let at = self.offset();
        let len = self.varint()? as usize;
        if len > self.buf.len().saturating_sub(self.pos) {
            return Err(OnnxError::Wire {
                offset: at,
                reason: format!(
                    "length-delimited field claims {len} bytes but only {} remain",
                    self.buf.len() - self.pos
                ),
            });
        }
        let out = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Read a length-delimited payload as UTF-8, borrowed from the buffer.
    pub fn string(&mut self) -> Result<&'a str, OnnxError> {
        let at = self.offset();
        let raw = self.bytes()?;
        std::str::from_utf8(raw).map_err(|_| OnnxError::Wire {
            offset: at,
            reason: "string field is not valid UTF-8".into(),
        })
    }

    /// A sub-reader over a length-delimited payload (nested message),
    /// with error offsets still absolute.
    pub fn message(&mut self) -> Result<WireReader<'a>, OnnxError> {
        let before = self.offset();
        let raw = self.bytes()?;
        // `bytes` advanced past the length prefix; the payload starts at
        // the current offset minus its own length.
        let base = before + (self.offset() - before - raw.len());
        Ok(WireReader::with_base(raw, base))
    }

    /// Read a little-endian fixed 32-bit value.
    pub fn fixed32(&mut self) -> Result<u32, OnnxError> {
        let Some(raw) = self.buf.get(self.pos..self.pos + 4) else {
            return Err(self.truncated("fixed32"));
        };
        self.pos += 4;
        Ok(u32::from_le_bytes(raw.try_into().expect("4-byte slice")))
    }

    /// Read a little-endian fixed 64-bit value.
    pub fn fixed64(&mut self) -> Result<u64, OnnxError> {
        let Some(raw) = self.buf.get(self.pos..self.pos + 8) else {
            return Err(self.truncated("fixed64"));
        };
        self.pos += 8;
        Ok(u64::from_le_bytes(raw.try_into().expect("8-byte slice")))
    }

    /// Read an IEEE-754 float (fixed32 bit pattern — exact, no rounding).
    pub fn float(&mut self) -> Result<f32, OnnxError> {
        Ok(f32::from_bits(self.fixed32()?))
    }

    /// Decode a repeated scalar field that may arrive packed (one
    /// length-delimited blob) or unpacked (one key per element): given the
    /// wire type seen for this key, append the element(s) to `out`.
    pub fn repeated_i64(&mut self, wt: WireType, out: &mut Vec<i64>) -> Result<(), OnnxError> {
        match wt {
            WireType::Varint => out.push(self.varint_i64()?),
            WireType::Len => {
                let mut sub = self.message()?;
                while !sub.is_empty() {
                    out.push(sub.varint_i64()?);
                }
            }
            other => {
                return Err(OnnxError::Wire {
                    offset: self.offset(),
                    reason: format!("repeated int64 field has wire type {other:?}"),
                })
            }
        }
        Ok(())
    }

    /// Packed-or-unpacked repeated float (see [`WireReader::repeated_i64`]).
    pub fn repeated_f32(&mut self, wt: WireType, out: &mut Vec<f32>) -> Result<(), OnnxError> {
        match wt {
            WireType::Fixed32 => out.push(self.float()?),
            WireType::Len => {
                let mut sub = self.message()?;
                while !sub.is_empty() {
                    out.push(sub.float()?);
                }
            }
            other => {
                return Err(OnnxError::Wire {
                    offset: self.offset(),
                    reason: format!("repeated float field has wire type {other:?}"),
                })
            }
        }
        Ok(())
    }

    /// Skip one field's payload of the given wire type.
    pub fn skip(&mut self, wt: WireType) -> Result<(), OnnxError> {
        match wt {
            WireType::Varint => {
                self.varint()?;
            }
            WireType::Fixed64 => {
                self.fixed64()?;
            }
            WireType::Len => {
                self.bytes()?;
            }
            WireType::Fixed32 => {
                self.fixed32()?;
            }
        }
        Ok(())
    }
}

/// Append-only protobuf encoder. Sub-messages are encoded into their own
/// `WireWriter` and attached with [`WireWriter::field_message`], which
/// prepends the length.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    fn key(&mut self, field: u64, wt: WireType) {
        self.varint(field << 3 | wt.bits());
    }

    /// `int64` field (also used for enums and bools).
    pub fn field_i64(&mut self, field: u64, v: i64) {
        self.key(field, WireType::Varint);
        self.varint(v as u64);
    }

    /// IEEE float field (fixed32 bit pattern — exact).
    pub fn field_f32(&mut self, field: u64, v: f32) {
        self.key(field, WireType::Fixed32);
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// `string` field.
    pub fn field_string(&mut self, field: u64, v: &str) {
        self.field_bytes(field, v.as_bytes());
    }

    /// `bytes` field.
    pub fn field_bytes(&mut self, field: u64, v: &[u8]) {
        self.key(field, WireType::Len);
        self.varint(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Nested message field.
    pub fn field_message(&mut self, field: u64, msg: WireWriter) {
        self.field_bytes(field, &msg.buf);
    }

    /// Packed repeated `int64` field (skipped entirely when empty, matching
    /// proto3 presence semantics).
    pub fn field_packed_i64(&mut self, field: u64, vs: &[i64]) {
        if vs.is_empty() {
            return;
        }
        let mut sub = WireWriter::new();
        for &v in vs {
            sub.varint(v as u64);
        }
        self.field_bytes(field, &sub.buf);
    }

    /// Packed repeated `float` field.
    pub fn field_packed_f32(&mut self, field: u64, vs: &[f32]) {
        if vs.is_empty() {
            return;
        }
        let mut sub = WireWriter::new();
        for &v in vs {
            sub.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        self.field_bytes(field, &sub.buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip_edges() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut w = WireWriter::new();
            w.varint(v);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            assert_eq!(r.varint().unwrap(), v, "value {v}");
            assert!(r.is_empty());
        }
    }

    #[test]
    fn negative_int64_takes_ten_bytes() {
        let mut w = WireWriter::new();
        w.field_i64(3, -1);
        let bytes = w.into_bytes();
        // key + 10-byte two's-complement varint
        assert_eq!(bytes.len(), 11);
        let mut r = WireReader::new(&bytes);
        let (field, wt) = r.key().unwrap();
        assert_eq!((field, wt), (3, WireType::Varint));
        assert_eq!(r.varint_i64().unwrap(), -1);
    }

    #[test]
    fn truncated_varint_reports_offset() {
        let bytes = [0x96, 0x80]; // continuation bit set, buffer ends
        let mut r = WireReader::new(&bytes);
        match r.varint() {
            Err(OnnxError::Wire { offset, .. }) => assert_eq!(offset, 2),
            other => panic!("expected wire error, got {other:?}"),
        }
    }

    #[test]
    fn overlong_length_is_an_error_not_a_panic() {
        let mut w = WireWriter::new();
        w.key(1, WireType::Len);
        w.varint(1_000_000); // claims a megabyte that is not there
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        r.key().unwrap();
        assert!(matches!(r.bytes(), Err(OnnxError::Wire { .. })));
    }

    #[test]
    fn float_bits_are_exact() {
        for v in [
            0.0f32,
            -0.0,
            1.5,
            f32::MIN_POSITIVE,
            f32::NAN,
            f32::INFINITY,
        ] {
            let mut w = WireWriter::new();
            w.field_f32(2, v);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            r.key().unwrap();
            assert_eq!(r.float().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn packed_and_unpacked_repeated_int64_agree() {
        let vals = [0i64, -1, 7, 1 << 40];
        let mut packed = WireWriter::new();
        packed.field_packed_i64(8, &vals);
        let mut unpacked = WireWriter::new();
        for &v in &vals {
            unpacked.field_i64(8, v);
        }
        for bytes in [packed.into_bytes(), unpacked.into_bytes()] {
            let mut r = WireReader::new(&bytes);
            let mut got = Vec::new();
            while !r.is_empty() {
                let (field, wt) = r.key().unwrap();
                assert_eq!(field, 8);
                r.repeated_i64(wt, &mut got).unwrap();
            }
            assert_eq!(got, vals);
        }
    }

    #[test]
    fn nested_message_errors_keep_absolute_offsets() {
        let mut inner = WireWriter::new();
        inner.key(1, WireType::Varint);
        // no payload — inner message truncated
        let mut outer = WireWriter::new();
        outer.field_message(2, inner);
        let bytes = outer.into_bytes();
        let mut r = WireReader::new(&bytes);
        let (_, WireType::Len) = r.key().unwrap() else {
            panic!("expected len field")
        };
        let mut sub = r.message().unwrap();
        sub.key().unwrap();
        match sub.varint() {
            Err(OnnxError::Wire { offset, .. }) => assert_eq!(offset, bytes.len()),
            other => panic!("expected wire error, got {other:?}"),
        }
    }

    #[test]
    fn skip_covers_all_wire_types() {
        let mut w = WireWriter::new();
        w.field_i64(1, 42);
        w.field_f32(2, 1.0);
        w.field_bytes(3, b"abc");
        w.key(4, WireType::Fixed64);
        w.buf.extend_from_slice(&7u64.to_le_bytes());
        w.field_i64(5, 9);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let mut last = 0;
        while !r.is_empty() {
            let (field, wt) = r.key().unwrap();
            if field == 5 {
                last = r.varint().unwrap();
            } else {
                r.skip(wt).unwrap();
            }
        }
        assert_eq!(last, 9);
    }
}

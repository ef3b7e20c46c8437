//! The length-prefixed wire protocol.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! [u32 LE: length of tag + payload] [u8 tag] [payload…]
//! ```
//!
//! Request tags are opcodes ([`OP_REGISTER`], [`OP_MATCH`],
//! [`OP_SHUTDOWN`]); response tags are statuses ([`STATUS_OK`],
//! [`STATUS_ERROR`], [`STATUS_RETRY`]). Payloads are built from two
//! primitives: `u32` little-endian integers and length-prefixed byte
//! strings. Strings are UTF-8; haystacks are raw bytes.
//!
//! The protocol is deliberately synchronous per connection: one request,
//! one response, in order. Concurrency comes from many connections — the
//! server's admission queue flattens simultaneous small requests from
//! different connections into single batched scans.

use std::io::{self, Read, Write};

/// Register (or replace) a tenant's pattern namespace.
/// Payload: `str tenant · u32 n · n × str pattern`.
pub const OP_REGISTER: u8 = 1;
/// Match a batch of haystacks against a tenant's patterns.
/// Payload: `str tenant · u32 n · n × bytes haystack`.
pub const OP_MATCH: u8 = 2;
/// Ask the server to drain and stop. Payload: empty.
pub const OP_SHUTDOWN: u8 = 3;

/// Success. Payload for `REGISTER`: `u32 pattern_count · u8 source`
/// (see [`RegisterSource`](crate::RegisterSource)). Payload for `MATCH`:
/// `u32 n · n × (u32 k · k × u32 pattern_id)`. Empty for `SHUTDOWN`.
pub const STATUS_OK: u8 = 0;
/// Request failed. Payload: `str message`.
pub const STATUS_ERROR: u8 = 1;
/// The admission queue is full — explicit backpressure, not an error.
/// Payload: `u32 retry_after_ms`. The work was **not** enqueued; resend
/// the identical request after the hinted delay.
pub const STATUS_RETRY: u8 = 2;

/// Upper bound on a single frame; a peer announcing more is treated as
/// a protocol violation rather than an allocation request.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Writes one frame from a raw payload slice (control messages; bulk
/// paths build the frame in place with [`PayloadWriter::frame`] and ship
/// it with [`send_frame`] to avoid the copy).
pub fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> io::Result<()> {
    let len = (payload.len() + 1) as u32;
    // One write per frame: splitting the header from the body would let
    // Nagle hold the body hostage to the peer's delayed ACK (~40 ms per
    // round trip on loopback), which is death by a thousand stalls for a
    // request/reply protocol.
    let mut frame = Vec::with_capacity(4 + 1 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.push(tag);
    frame.extend_from_slice(payload);
    send_frame(w, &frame)
}

/// Ships one pre-assembled frame (see [`PayloadWriter::frame`]) in a
/// single write.
pub fn send_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on a clean EOF at a frame boundary (the
/// peer hung up between requests, the normal end of a connection).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut header = [0u8; 5];
    let mut filled = 0;
    while filled < 5 {
        match r.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "mid-frame EOF")),
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, format!("frame length {len}")));
    }
    let tag = header[4];
    // The payload lands exactly where the parser reads it — the tag was
    // consumed with the header, so no post-read shuffle of a potentially
    // multi-megabyte body.
    let mut body = vec![0u8; len - 1];
    r.read_exact(&mut body)?;
    Ok(Some((tag, body)))
}

/// Payload builder (the write half of the primitives). The buffer
/// reserves the frame header up front, so [`frame`](PayloadWriter::frame)
/// finalizes in place — bulk payloads are assembled exactly once.
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl Default for PayloadWriter {
    fn default() -> PayloadWriter {
        PayloadWriter::new()
    }
}

impl PayloadWriter {
    /// Starts an empty payload (with header space reserved).
    pub fn new() -> PayloadWriter {
        PayloadWriter { buf: vec![0u8; 5] }
    }

    /// Appends a `u32`.
    pub fn u32(mut self, v: u32) -> Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u8`.
    pub fn u8(mut self, v: u8) -> Self {
        self.buf.push(v);
        self
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(mut self, b: &[u8]) -> Self {
        self.buf.extend_from_slice(&(b.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(b);
        self
    }

    /// The finished payload, without frame header (for tests and
    /// in-process parsing).
    pub fn finish(self) -> Vec<u8> {
        let mut buf = self.buf;
        buf.drain(..5);
        buf
    }

    /// Finalizes the payload into a complete wire frame tagged `tag`,
    /// filling the reserved header in place — no copy of the body.
    pub fn frame(self, tag: u8) -> Vec<u8> {
        let mut buf = self.buf;
        let len = (buf.len() - 4) as u32;
        buf[..4].copy_from_slice(&len.to_le_bytes());
        buf[4] = tag;
        buf
    }
}

/// Payload parser (the read half). All reads are bounds-checked;
/// violations surface as `InvalidData` I/O errors.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Starts parsing `buf`.
    pub fn new(buf: &'a [u8]) -> PayloadReader<'a> {
        PayloadReader { buf, pos: 0 }
    }

    fn invalid(&self, what: &str) -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed payload at byte {}: {what}", self.pos),
        )
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(self.invalid("truncated"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> io::Result<&'a [u8]> {
        let len = self.u32()? as usize;
        if len > self.buf.len() - self.pos {
            return Err(self.invalid("string length exceeds payload"));
        }
        self.take(len)
    }

    /// Reads a length-prefixed byte string as its byte range within the
    /// payload — lets the caller keep the payload buffer and reference
    /// slices of it instead of copying each string out.
    pub fn bytes_range(&mut self) -> io::Result<std::ops::Range<usize>> {
        let len = self.u32()? as usize;
        if len > self.buf.len() - self.pos {
            return Err(self.invalid("string length exceeds payload"));
        }
        let start = self.pos;
        self.pos += len;
        Ok(start..self.pos)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> io::Result<String> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.invalid("not UTF-8"))
    }

    /// Fails unless the payload is fully consumed.
    pub fn finish(self) -> io::Result<()> {
        if self.pos != self.buf.len() {
            return Err(self.invalid("trailing bytes"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, OP_MATCH, b"payload").unwrap();
        write_frame(&mut wire, STATUS_OK, b"").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some((OP_MATCH, b"payload".to_vec())));
        assert_eq!(read_frame(&mut r).unwrap(), Some((STATUS_OK, Vec::new())));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF between frames");
    }

    #[test]
    fn torn_frames_and_hostile_lengths_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, OP_MATCH, b"payload").unwrap();
        let mut torn = &wire[..wire.len() - 2];
        assert!(read_frame(&mut torn).is_err(), "mid-frame EOF");

        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        huge.push(OP_MATCH);
        assert!(read_frame(&mut &huge[..]).is_err(), "length above MAX_FRAME_BYTES");

        let mut zero = Vec::new();
        zero.extend_from_slice(&0u32.to_le_bytes());
        assert!(read_frame(&mut &zero[..]).is_err(), "tagless frame");
    }

    #[test]
    fn payload_primitives_round_trip_and_fail_closed() {
        let payload =
            PayloadWriter::new().u32(7).bytes(b"tenant").u8(2).bytes(b"\x00\xFFraw").finish();
        let mut r = PayloadReader::new(&payload);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.string().unwrap(), "tenant");
        assert_eq!(r.u8().unwrap(), 2);
        assert_eq!(r.bytes().unwrap(), b"\x00\xFFraw");
        r.finish().unwrap();

        let mut r = PayloadReader::new(&payload);
        let _ = r.u32().unwrap();
        assert!(r.finish().is_err(), "trailing bytes are a violation");

        // A string length pointing past the payload is caught before any
        // allocation of that size.
        let bad = PayloadWriter::new().u32(u32::MAX).finish();
        assert!(PayloadReader::new(&bad).bytes().is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Whether a read of untrusted bytes succeeded or failed closed, with
    /// an `InvalidData` or `UnexpectedEof` error.
    fn fails_closed<T>(result: &io::Result<T>) -> bool {
        result.as_ref().map_or_else(
            |e| matches!(e.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof),
            |_| true,
        )
    }

    /// A reader that returns the next step's byte count per `read`, the
    /// way a socket hands out whatever has arrived.
    struct Trickle<'a> {
        data: &'a [u8],
        steps: Vec<usize>,
        next: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let step = self.steps[self.next % self.steps.len()];
            self.next += 1;
            let n = step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes, read as frames until the stream ends or
        /// fails. A drawn length prefix is almost always far past the
        /// data, so half the cases overwrite it with a small one to reach
        /// the body read too.
        #[test]
        fn read_frame_fails_closed_on_arbitrary_bytes(
            wire in prop::collection::vec(any::<u8>(), 0..96),
            small_len in 0u32..100,
            use_small in any::<bool>(),
            steps in prop::collection::vec(1usize..8, 1..8),
        ) {
            let mut wire = wire;
            if use_small && wire.len() >= 4 {
                wire[..4].copy_from_slice(&small_len.to_le_bytes());
            }
            let mut reader = Trickle { data: &wire, steps, next: 0 };
            loop {
                let frame = read_frame(&mut reader);
                prop_assert!(fails_closed(&frame), "{frame:?}");
                match frame {
                    Ok(Some((_, body))) => prop_assert!(body.len() < wire.len()),
                    Ok(None) | Err(_) => break,
                }
            }
        }

        /// Every `PayloadReader` primitive, in any order, over arbitrary
        /// bytes: each read succeeds within the payload or fails closed.
        #[test]
        fn payload_reader_fails_closed_on_arbitrary_bytes(
            payload in prop::collection::vec(any::<u8>(), 0..64),
            ops in prop::collection::vec(0u8..5, 0..12),
            small_len in 0u32..8,
            use_small in any::<bool>(),
        ) {
            // As above: give the first length prefix a chance to fit.
            let mut payload = payload;
            if use_small && payload.len() >= 4 {
                payload[..4].copy_from_slice(&small_len.to_le_bytes());
            }
            let mut r = PayloadReader::new(&payload);
            for op in ops {
                let step = match op {
                    0 => r.u32().map(|_| true),
                    1 => r.u8().map(|_| true),
                    2 => r.bytes().map(|_| true),
                    3 => r.bytes_range().map(|range| range.end <= payload.len()),
                    _ => r.string().map(|_| true),
                };
                prop_assert!(fails_closed(&step), "op {op}: {step:?}");
                match step {
                    Ok(in_bounds) => prop_assert!(in_bounds, "op {op} read past the payload"),
                    Err(_) => break,
                }
            }
            let end = r.finish();
            prop_assert!(fails_closed(&end), "{end:?}");
        }

        /// Frames survive a reader that returns 1 to 7 bytes per `read`:
        /// the header loop and the body read reassemble every frame, and
        /// the stream then ends cleanly.
        #[test]
        fn frames_round_trip_through_short_reads(
            frames in prop::collection::vec(
                (any::<u8>(), prop::collection::vec(any::<u8>(), 0..40)),
                0..6,
            ),
            steps in prop::collection::vec(1usize..8, 1..16),
        ) {
            let mut wire = Vec::new();
            for (tag, payload) in &frames {
                write_frame(&mut wire, *tag, payload).unwrap();
            }
            let mut reader = Trickle { data: &wire, steps, next: 0 };
            for (tag, payload) in &frames {
                let got = read_frame(&mut reader).unwrap();
                prop_assert_eq!(got, Some((*tag, payload.clone())));
            }
            prop_assert_eq!(read_frame(&mut reader).unwrap(), None);
        }
    }
}

//! `OPTRR-WIRE v1`: the length-prefixed binary frame codec of the
//! network front door.
//!
//! The framed-JSON protocol ([`crate::protocol`]) spends the hot verbs'
//! budget on text: every matrix cell takes a float→decimal→float round
//! trip and every ingested record its own JSON token. This codec keeps
//! the *same* request/response model and replaces only the encoding for
//! the hot verbs — `Ingest`, `BestForPrivacy` (the paper's point query),
//! and `Estimate`, plus their responses — with fixed-width little-endian
//! fields and raw `f64` bits. Everything else rides inside a JSON-escape
//! frame, so the two codecs are request-for-request interchangeable and
//! a binary session stays bitwise-deterministic against a JSON session
//! (floats cross the wire as `f64::to_bits`, and the JSON stub
//! round-trips floats exactly, so both codecs deliver identical
//! `Request` values to the service).
//!
//! ## Negotiation
//!
//! A connection's very first byte selects the codec: [`PREAMBLE`]
//! (`0xB1`) switches the session to binary frames; any other first byte
//! is the beginning of the first framed-JSON line (JSON lines start with
//! `{` or `"`, which can never equal the preamble), so existing JSON
//! clients connect unchanged.
//!
//! ## Frame layout
//!
//! ```text
//! offset  size  field
//! 0       4     frame length N (u32 LE) = 1 (tag) + payload + 4 (CRC)
//! 4       1     verb tag
//! 5       N-5   payload (fixed-width LE fields, see the tag constants)
//! 4+N-4   4     CRC32 (IEEE) over tag + payload (u32 LE)
//! ```
//!
//! Example — `Estimate { key: Some(9), name: None }` as one frame
//! (15 bytes total; asserted byte-for-byte by a unit test):
//!
//! ```text
//! 0f 00 00 00   frame length 15
//! 03            TAG_ESTIMATE
//! 01            key flag: present
//! 09 00 00 00 00 00 00 00   key = 9 (u64 LE)
//! 00            name flag: absent
//! 88 0a 04 b1   CRC32(tag + payload)
//! ```
//!
//! Decoding never panics: every read is bounds-checked, a frame longer
//! than [`MAX_FRAME_LEN`] is rejected before any allocation, and a
//! truncated or corrupted buffer yields a typed [`WireError`] the
//! session layer maps onto `ServeError::Transport`.

use crate::protocol::{self, EstimateDto, Request, Response};

/// The one-byte connection preamble that switches a session to binary
/// frames. JSON request lines start with `{` or `"`, so the first byte
/// of a connection distinguishes the codecs unambiguously.
pub const PREAMBLE: u8 = 0xB1;

/// Upper bound on one frame's length field: 64 MiB. A torn or malicious
/// length prefix must not be able to request an unbounded allocation.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Upper bound on a matrix's category count in a binary `Matrix`
/// response — matches the service's Ω-resolution discipline of bounding
/// client-influenced allocations.
pub const MAX_WIRE_CATEGORIES: u32 = 4096;

/// Request tag: binary `Ingest` (raw-record batches or pre-counted
/// responses, no per-record JSON tokens).
pub const TAG_INGEST: u8 = 0x01;
/// Request tag: binary `BestForPrivacy` — the paper's point query.
pub const TAG_QUERY: u8 = 0x02;
/// Request tag: binary `Estimate`.
pub const TAG_ESTIMATE: u8 = 0x03;
/// Request tag: JSON-escape — the payload is one framed-JSON request
/// line, carrying every non-hot verb through the binary session.
pub const TAG_JSON_REQUEST: u8 = 0x0F;

/// Response tag: binary `Ingested`.
pub const TAG_INGESTED: u8 = 0x81;
/// Response tag: binary `Matrix` (column-major raw `f64` bits — the
/// codec's biggest win over JSON).
pub const TAG_MATRIX: u8 = 0x82;
/// Response tag: binary `Estimated`.
pub const TAG_ESTIMATED: u8 = 0x83;
/// Response tag: binary `NoMatch`.
pub const TAG_NO_MATCH: u8 = 0x84;
/// Response tag: JSON-escape — the payload is one framed-JSON response
/// line, carrying every non-hot response through the binary session.
pub const TAG_JSON_RESPONSE: u8 = 0x8F;

/// The two codecs a connection can negotiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Framed JSON: one request/response line per frame (the default).
    Json,
    /// `OPTRR-WIRE v1` binary frames (selected by [`PREAMBLE`]).
    Binary,
}

impl Codec {
    /// Stable lowercase label, used in per-codec metric names
    /// (`serve_net_verb_<verb>_<codec>_latency_ns`) and bench output.
    pub fn label(self) -> &'static str {
        match self {
            Codec::Json => "json",
            Codec::Binary => "binary",
        }
    }
}

/// A typed binary-codec failure. The session layer maps every variant
/// onto `ServeError::Transport` and closes the connection; the shared
/// service is never touched by a torn frame.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The buffer ended before the structure it promised.
    Truncated {
        /// Bytes the decoder needed.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The rejected length-field value.
        len: u32,
    },
    /// The length prefix is below the 5-byte minimum (tag + CRC).
    FrameTooSmall {
        /// The rejected length-field value.
        len: u32,
    },
    /// The frame checksum does not match its contents.
    BadCrc {
        /// CRC the frame carried.
        carried: u32,
        /// CRC computed over tag + payload.
        computed: u32,
    },
    /// The tag byte names no known frame type.
    UnknownTag(u8),
    /// The payload decodes structurally but its contents are invalid
    /// (bad option flag, non-UTF-8 string, trailing bytes, bad JSON in
    /// an escape frame).
    Malformed(String),
    /// The value cannot be represented on the wire (e.g. a record index
    /// above `u32::MAX`).
    Unencodable(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { expected, got } => {
                write!(f, "truncated frame: needed {expected} bytes, got {got}")
            }
            WireError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN} cap")
            }
            WireError::FrameTooSmall { len } => {
                write!(f, "frame length {len} is below the 5-byte minimum")
            }
            WireError::BadCrc { carried, computed } => {
                write!(f, "frame CRC {carried:#010x} != computed {computed:#010x}")
            }
            WireError::UnknownTag(tag) => write!(f, "unknown frame tag {tag:#04x}"),
            WireError::Malformed(reason) => write!(f, "malformed payload: {reason}"),
            WireError::Unencodable(reason) => write!(f, "unencodable value: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Convenience alias for codec results.
pub type Result<T> = std::result::Result<T, WireError>;

// ---- CRC32 (IEEE, reflected) ------------------------------------------------
//
// Slicing-by-16 (Kounavis & Berry, "A Systematic Approach to Building High
// Performance Software-Based CRC Generators", ISCC 2005): table `k` maps a
// byte to its CRC contribution when `k` more zero bytes follow it, so one
// step folds sixteen input bytes with sixteen independent lookups instead
// of sixteen dependent ones. Table 0 is the classic bytewise table; the
// test module keeps the bytewise loop over it as the oracle.
//
// One chain of 16-byte steps still waits on the step before it, so frames
// of a super-block (`CRC_LANES` × `CRC_LANE_BLOCK` = 4 × 64 bytes) or more
// run four chains side by side (Gopal et al., "Fast CRC Computation for
// iSCSI Polynomial Using CRC32 Instruction", Intel, 2011): lane `l` takes
// the `l`-th 64-byte block of each super-block, lane 0 starting from the
// running CRC and the others from zero. The lanes are folded Horner-style,
// `c = S(S(S(r0) ^ r1) ^ r2) ^ r3`, where `S` moves a CRC across one
// block of zero bytes through `CRC_SHIFT` (four lookups). The update is
// linear over GF(2), so the CRC of a block that follows `c` is the CRC of
// the block from zero xored with `S(c)`, and the fold gives the one-chain
// value bit for bit. The tail (and any frame shorter than a super-block)
// keeps the 16-byte steps, then at most one 8-byte step over tables 0..8,
// then goes bytewise: a request frame is 15 to 30 bytes, and going
// bytewise over up to 15 bytes would cost it more than the 16-byte steps
// save.

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
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
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut t = 1;
        while t < 16 {
            let c = tables[t - 1][i];
            tables[t][i] = tables[0][(c & 0xFF) as usize] ^ (c >> 8);
            t += 1;
        }
        i += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

/// CRC chains run side by side over a super-block.
const CRC_LANES: usize = 4;

/// Bytes each lane takes from a super-block: four 16-byte steps.
const CRC_LANE_BLOCK: usize = 64;

/// Table `k` maps byte `k` of a CRC to its value after `CRC_LANE_BLOCK`
/// zero bytes: a 16-byte step over zeros, whose first four bytes are the
/// CRC, taken `CRC_LANE_BLOCK / 16` times.
const fn crc_shift_tables(tables: &[[u32; 256]; 16]) -> [[u32; 256]; 4] {
    let mut shift = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut i = 0;
        while i < 256 {
            let mut c = (i as u32) << (8 * k);
            let mut step = 0;
            while step < CRC_LANE_BLOCK / 16 {
                c = tables[15][(c & 0xFF) as usize]
                    ^ tables[14][((c >> 8) & 0xFF) as usize]
                    ^ tables[13][((c >> 16) & 0xFF) as usize]
                    ^ tables[12][(c >> 24) as usize];
                step += 1;
            }
            shift[k][i] = c;
            i += 1;
        }
        k += 1;
    }
    shift
}

static CRC_SHIFT: [[u32; 256]; 4] = crc_shift_tables(&crc_tables());

/// Folds one `N`-byte block (`N` = 8 or 16) into the running CRC `c`:
/// byte `i` takes table `N - 1 - i`, its first four bytes xored with `c`.
#[inline]
fn crc_block<const N: usize>(c: u32, block: &[u8; N]) -> u32 {
    let head = (c ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]])).to_le_bytes();
    let mut folded = 0;
    for i in 0..N {
        let b = if i < 4 { head[i] } else { block[i] };
        folded ^= CRC_TABLES[N - 1 - i][usize::from(b)];
    }
    folded
}

/// Moves the CRC `c` across `CRC_LANE_BLOCK` zero bytes.
#[inline]
fn crc_shift(c: u32) -> u32 {
    let [b0, b1, b2, b3] = c.to_le_bytes();
    CRC_SHIFT[0][usize::from(b0)]
        ^ CRC_SHIFT[1][usize::from(b1)]
        ^ CRC_SHIFT[2][usize::from(b2)]
        ^ CRC_SHIFT[3][usize::from(b3)]
}

/// Folds `bytes` into the running CRC `c` in one chain: 16-byte steps,
/// then at most one 8-byte step, then bytewise.
fn crc_chain(mut c: u32, bytes: &[u8]) -> u32 {
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        c = crc_block::<16>(c, block.try_into().expect("a 16-byte block"));
    }
    let mut rest = blocks.remainder();
    if rest.len() >= 8 {
        let (block, tail) = rest.split_at(8);
        c = crc_block::<8>(c, block.try_into().expect("an 8-byte block"));
        rest = tail;
    }
    for &b in rest {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC32 (IEEE 802.3, the zlib polynomial) over a byte slice — the
/// frame integrity check. Collision resistance is not the threat model;
/// torn and bit-flipped frames are.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut supers = bytes.chunks_exact(CRC_LANES * CRC_LANE_BLOCK);
    for block in &mut supers {
        let mut lanes = [0u32; CRC_LANES];
        lanes[0] = c;
        for step in (0..CRC_LANE_BLOCK).step_by(16) {
            for (l, lane) in lanes.iter_mut().enumerate() {
                let at = l * CRC_LANE_BLOCK + step;
                let bytes = block[at..at + 16].try_into().expect("a 16-byte block");
                *lane = crc_block::<16>(*lane, bytes);
            }
        }
        c = lanes[1..]
            .iter()
            .fold(lanes[0], |c, &lane| crc_shift(c) ^ lane);
    }
    crc_chain(c, supers.remainder()) ^ 0xFFFF_FFFF
}

// ---- primitive field encoding ----------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<()> {
    let len = u32::try_from(s.len())
        .map_err(|_| WireError::Unencodable(format!("string of {} bytes", s.len())))?;
    put_u32(out, len);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_opt<T>(
    out: &mut Vec<u8>,
    v: &Option<T>,
    put: impl FnOnce(&mut Vec<u8>, &T) -> Result<()>,
) -> Result<()> {
    match v {
        None => {
            out.push(0);
            Ok(())
        }
        Some(value) => {
            out.push(1);
            put(out, value)
        }
    }
}

/// The little-endian `f64` in an 8-byte chunk.
fn f64_le(c: &[u8]) -> f64 {
    f64::from_bits(u64::from_le_bytes([
        c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
    ]))
}

/// A bounds-checked cursor over one frame payload. Every accessor
/// returns [`WireError::Truncated`] instead of slicing out of range, so
/// decoding arbitrary bytes can never panic.
struct FieldReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FieldReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let remaining = self.buf.len() - self.pos;
        if remaining < n {
            return Err(WireError::Truncated {
                expected: n,
                got: remaining,
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Malformed(format!("bool byte {other:#04x}"))),
        }
    }

    fn flag(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Malformed(format!(
                "option flag byte {other:#04x}"
            ))),
        }
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("string is not UTF-8".into()))
    }

    fn vec_u32_as_usize(&mut self) -> Result<Vec<usize>> {
        let count = self.u32()? as usize;
        // The count is validated against the bytes actually present
        // before any allocation, so a torn prefix cannot oversize a Vec.
        let bytes = self.take(
            count
                .checked_mul(4)
                .ok_or_else(|| WireError::Malformed("record count overflows".into()))?,
        )?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]) as usize)
            .collect())
    }

    fn vec_u64(&mut self) -> Result<Vec<u64>> {
        let count = self.u32()? as usize;
        let bytes = self.take(
            count
                .checked_mul(8)
                .ok_or_else(|| WireError::Malformed("count-vector length overflows".into()))?,
        )?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect())
    }

    fn vec_f64(&mut self) -> Result<Vec<f64>> {
        let count = self.u32()? as usize;
        let bytes = self.take(
            count
                .checked_mul(8)
                .ok_or_else(|| WireError::Malformed("float-vector length overflows".into()))?,
        )?;
        Ok(bytes.chunks_exact(8).map(f64_le).collect())
    }

    fn opt_u64(&mut self) -> Result<Option<u64>> {
        Ok(if self.flag()? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    fn opt_f64(&mut self) -> Result<Option<f64>> {
        Ok(if self.flag()? {
            Some(self.f64()?)
        } else {
            None
        })
    }

    fn opt_string(&mut self) -> Result<Option<String>> {
        Ok(if self.flag()? {
            Some(self.string()?)
        } else {
            None
        })
    }

    fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---- frame assembly ---------------------------------------------------------

/// Bytes ahead of the payload in a frame: the length prefix and the tag.
const FRAME_HEAD: usize = 5;

/// Payload bytes a hot frame starts with room for: its fixed-width
/// fields with a short key name. A variable-size payload reserves this
/// much on top of its variable part before writing anything.
const SMALL_PAYLOAD: usize = 64;

/// Starts an outgoing frame: placeholders for the length prefix and the
/// tag, which [`finish_frame`] fills in once the payload is written
/// after them, plus room for `payload_len` payload bytes and the CRC.
/// Size hints only avoid regrowth; a short hint is never an error.
fn start_frame(payload_len: usize) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEAD + payload_len + 4);
    frame.resize(FRAME_HEAD, 0);
    frame
}

/// Completes a frame begun by [`start_frame`] whose payload is written:
/// patches the length prefix and the tag in place and appends the CRC
/// over `frame[4..]` (tag + payload), so the payload is never copied.
fn finish_frame(mut frame: Vec<u8>, tag: u8) -> Result<Vec<u8>> {
    let payload_len = frame.len() - FRAME_HEAD;
    let len = u32::try_from(1 + payload_len + 4)
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            WireError::Unencodable(format!(
                "payload of {payload_len} bytes exceeds the frame cap"
            ))
        })?;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame[4] = tag;
    let crc = crc32(&frame[4..]);
    put_u32(&mut frame, crc);
    Ok(frame)
}

/// Assembles one complete frame (length prefix + tag + payload + CRC)
/// from a tag and payload.
pub fn encode_frame(tag: u8, payload: &[u8]) -> Result<Vec<u8>> {
    let mut frame = start_frame(payload.len());
    frame.extend_from_slice(payload);
    finish_frame(frame, tag)
}

/// Validates a frame's 4-byte length prefix and returns the body length
/// (tag + payload + CRC) to read next.
pub fn parse_header(header: [u8; 4]) -> Result<usize> {
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { len });
    }
    if len < 5 {
        return Err(WireError::FrameTooSmall { len });
    }
    Ok(len as usize)
}

/// Validates a frame body (tag + payload + CRC, as sized by
/// [`parse_header`]) and returns the tag and payload slice.
pub fn parse_body(body: &[u8]) -> Result<(u8, &[u8])> {
    if body.len() < 5 {
        return Err(WireError::Truncated {
            expected: 5,
            got: body.len(),
        });
    }
    let (checked, crc_bytes) = body.split_at(body.len() - 4);
    let carried = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    let computed = crc32(checked);
    if carried != computed {
        return Err(WireError::BadCrc { carried, computed });
    }
    Ok((checked[0], &checked[1..]))
}

// ---- request codec ----------------------------------------------------------

/// Encodes a request as one complete binary frame. The hot verbs
/// (`Ingest`, `BestForPrivacy`, `Estimate`) get fixed-width binary
/// payloads; every other verb rides in a [`TAG_JSON_REQUEST`] escape
/// frame, so any session can be carried over either codec.
pub fn encode_request_frame(request: &Request) -> Result<Vec<u8>> {
    let mut frame = start_frame(SMALL_PAYLOAD);
    let tag = match request {
        Request::Ingest {
            key,
            name,
            min_privacy,
            records,
            counts,
            seed,
        } => {
            frame.reserve(
                SMALL_PAYLOAD
                    + records.as_ref().map_or(0, |r| 4 * r.len())
                    + counts.as_ref().map_or(0, |c| 8 * c.len()),
            );
            put_opt(&mut frame, key, |out, v| {
                put_u64(out, *v);
                Ok(())
            })?;
            put_opt(&mut frame, name, |out, v| put_str(out, v))?;
            put_opt(&mut frame, min_privacy, |out, v| {
                put_f64(out, *v);
                Ok(())
            })?;
            put_opt(&mut frame, records, |out, records| {
                let count = u32::try_from(records.len()).map_err(|_| {
                    WireError::Unencodable(format!("batch of {} records", records.len()))
                })?;
                if let Some(record) = records.iter().find(|&&r| u32::try_from(r).is_err()) {
                    return Err(WireError::Unencodable(format!(
                        "record index {record} exceeds u32"
                    )));
                }
                put_u32(out, count);
                // The records go into place in one zero-filled run, as
                // `put_matrix` writes cells, not a push each; each fits
                // `u32`, checked above.
                let start = out.len();
                out.resize(start + 4 * records.len(), 0);
                for (&record, slot) in records.iter().zip(out[start..].chunks_exact_mut(4)) {
                    slot.copy_from_slice(&(record as u32).to_le_bytes());
                }
                Ok(())
            })?;
            put_opt(&mut frame, counts, |out, counts| {
                let count = u32::try_from(counts.len()).map_err(|_| {
                    WireError::Unencodable(format!("count set of {} categories", counts.len()))
                })?;
                put_u32(out, count);
                for &c in counts {
                    put_u64(out, c);
                }
                Ok(())
            })?;
            put_opt(&mut frame, seed, |out, v| {
                put_u64(out, *v);
                Ok(())
            })?;
            TAG_INGEST
        }
        Request::BestForPrivacy {
            key,
            name,
            min_privacy,
        } => {
            put_opt(&mut frame, key, |out, v| {
                put_u64(out, *v);
                Ok(())
            })?;
            put_opt(&mut frame, name, |out, v| put_str(out, v))?;
            put_f64(&mut frame, *min_privacy);
            TAG_QUERY
        }
        Request::Estimate { key, name } => {
            put_opt(&mut frame, key, |out, v| {
                put_u64(out, *v);
                Ok(())
            })?;
            put_opt(&mut frame, name, |out, v| put_str(out, v))?;
            TAG_ESTIMATE
        }
        other => return encode_frame(TAG_JSON_REQUEST, protocol::encode_request(other).as_bytes()),
    };
    finish_frame(frame, tag)
}

/// Decodes one binary frame body (tag + payload, CRC already verified
/// by [`parse_body`]) into a request.
pub fn decode_request_frame(tag: u8, payload: &[u8]) -> Result<Request> {
    let mut r = FieldReader::new(payload);
    let request = match tag {
        TAG_INGEST => Request::Ingest {
            key: r.opt_u64()?,
            name: r.opt_string()?,
            min_privacy: r.opt_f64()?,
            records: if r.flag()? {
                Some(r.vec_u32_as_usize()?)
            } else {
                None
            },
            counts: if r.flag()? { Some(r.vec_u64()?) } else { None },
            seed: r.opt_u64()?,
        },
        TAG_QUERY => Request::BestForPrivacy {
            key: r.opt_u64()?,
            name: r.opt_string()?,
            min_privacy: r.f64()?,
        },
        TAG_ESTIMATE => Request::Estimate {
            key: r.opt_u64()?,
            name: r.opt_string()?,
        },
        TAG_JSON_REQUEST => {
            let text = std::str::from_utf8(payload)
                .map_err(|_| WireError::Malformed("JSON-escape payload is not UTF-8".into()))?;
            return protocol::decode_request(text)
                .map_err(|e| WireError::Malformed(format!("JSON-escape request: {e}")));
        }
        other => return Err(WireError::UnknownTag(other)),
    };
    r.finish()?;
    Ok(request)
}

// ---- response codec ---------------------------------------------------------

fn put_estimate_dto(out: &mut Vec<u8>, dto: &EstimateDto) -> Result<()> {
    put_u64(out, dto.key);
    put_str(out, &dto.method)?;
    let count = u32::try_from(dto.distribution.len()).map_err(|_| {
        WireError::Unencodable(format!(
            "distribution of {} categories",
            dto.distribution.len()
        ))
    })?;
    put_u32(out, count);
    for &p in &dto.distribution {
        put_f64(out, p);
    }
    put_u64(out, dto.iterations);
    put_f64(out, dto.residual);
    put_f64(out, dto.mse_vs_prior);
    put_u64(out, dto.total_responses);
    put_u64(out, dto.batches);
    put_bool(out, dto.drifted);
    put_bool(out, dto.stale);
    put_bool(out, dto.degraded);
    Ok(())
}

fn read_estimate_dto(r: &mut FieldReader<'_>) -> Result<EstimateDto> {
    Ok(EstimateDto {
        key: r.u64()?,
        method: r.string()?,
        distribution: r.vec_f64()?,
        iterations: r.u64()?,
        residual: r.f64()?,
        mse_vs_prior: r.f64()?,
        total_responses: r.u64()?,
        batches: r.u64()?,
        drifted: r.bool()?,
        stale: r.bool()?,
        degraded: r.bool()?,
    })
}

/// A matrix's category count as its `TAG_MATRIX` field, or
/// [`WireError::Unencodable`] above [`MAX_WIRE_CATEGORIES`].
fn wire_categories(n: usize) -> Result<u32> {
    u32::try_from(n)
        .ok()
        .filter(|&n| n <= MAX_WIRE_CATEGORIES)
        .ok_or_else(|| WireError::Unencodable(format!("matrix of {n} categories")))
}

/// Writes a `TAG_MATRIX` payload: the key, then privacy, MSE and the
/// maximum posterior (`head`), the degraded flag, `n` and the `n` columns
/// of `n` cells each (column-major). The one payload writer behind both the
/// [`protocol::MatrixDto`] arm of [`encode_response_frame`] and
/// `encode_matrix_reply`, which writes from the stored matrix.
fn put_matrix(
    frame: &mut Vec<u8>,
    key: u64,
    head: [f64; 3],
    degraded: bool,
    n: u32,
    columns: impl Iterator<Item = impl Iterator<Item = f64>>,
) {
    let cell_bytes = 8 * (n as usize).pow(2);
    frame.reserve(SMALL_PAYLOAD + cell_bytes);
    put_u64(frame, key);
    for value in head {
        put_f64(frame, value);
    }
    put_bool(frame, degraded);
    put_u32(frame, n);
    // The cells go into place in one zero-filled run, not a push each.
    // A column zips first, so its end takes no slot from the next.
    let start = frame.len();
    frame.resize(start + cell_bytes, 0);
    let mut slots = frame[start..].chunks_exact_mut(8);
    for column in columns {
        for (theta, slot) in column.zip(slots.by_ref()) {
            slot.copy_from_slice(&theta.to_bits().to_le_bytes());
        }
    }
}

/// Encodes a point query's hit as a `TAG_MATRIX` frame straight from the
/// stored entry: the same bytes as [`encode_response_frame`] on the
/// `Response::Matrix` built from it, without building the
/// [`protocol::MatrixDto`].
pub(crate) fn encode_matrix_reply(
    key: u64,
    found: &optrr::OmegaEntry,
    degraded: bool,
) -> Result<Vec<u8>> {
    let wire_n = wire_categories(found.matrix.num_categories())?;
    let evaluation = &found.evaluation;
    let head = [evaluation.privacy, evaluation.mse, evaluation.max_posterior];
    let mut frame = start_frame(0);
    let columns = protocol::matrix_columns(&found.matrix);
    put_matrix(&mut frame, key, head, degraded, wire_n, columns);
    finish_frame(frame, TAG_MATRIX)
}

/// Encodes a response as one complete binary frame. The hot responses
/// (`Ingested`, `Matrix`, `Estimated`, `NoMatch`) get binary payloads —
/// the column-major matrix crosses as raw `f64` bits, no
/// float→decimal→float round trip — and every other response rides in a
/// [`TAG_JSON_RESPONSE`] escape frame.
pub fn encode_response_frame(response: &Response) -> Result<Vec<u8>> {
    let mut frame = start_frame(SMALL_PAYLOAD);
    let tag = match response {
        Response::Ingested {
            key,
            accepted,
            retained,
            total,
            batches,
            privacy,
        } => {
            put_u64(&mut frame, *key);
            put_u64(&mut frame, *accepted);
            put_u64(&mut frame, *retained);
            put_u64(&mut frame, *total);
            put_u64(&mut frame, *batches);
            put_f64(&mut frame, *privacy);
            TAG_INGESTED
        }
        Response::Matrix {
            key,
            privacy,
            mse,
            max_posterior,
            matrix,
            degraded,
        } => {
            let n = wire_categories(matrix.num_categories)?;
            if matrix.columns.len() != matrix.num_categories
                || matrix
                    .columns
                    .iter()
                    .any(|c| c.len() != matrix.num_categories)
            {
                return Err(WireError::Unencodable(
                    "matrix columns do not match num_categories".into(),
                ));
            }
            let head = [*privacy, *mse, *max_posterior];
            let columns = matrix.columns.iter().map(|c| c.iter().copied());
            put_matrix(&mut frame, *key, head, *degraded, n, columns);
            TAG_MATRIX
        }
        Response::Estimated { stats } => {
            put_estimate_dto(&mut frame, stats)?;
            TAG_ESTIMATED
        }
        Response::NoMatch {
            key,
            reason,
            degraded,
        } => {
            put_u64(&mut frame, *key);
            put_str(&mut frame, reason)?;
            put_bool(&mut frame, *degraded);
            TAG_NO_MATCH
        }
        other => {
            return encode_frame(
                TAG_JSON_RESPONSE,
                protocol::encode_response(other).as_bytes(),
            )
        }
    };
    finish_frame(frame, tag)
}

/// Decodes one binary frame body (tag + payload, CRC already verified)
/// into a response.
pub fn decode_response_frame(tag: u8, payload: &[u8]) -> Result<Response> {
    let mut r = FieldReader::new(payload);
    let response = match tag {
        TAG_INGESTED => Response::Ingested {
            key: r.u64()?,
            accepted: r.u64()?,
            retained: r.u64()?,
            total: r.u64()?,
            batches: r.u64()?,
            privacy: r.f64()?,
        },
        TAG_MATRIX => {
            let key = r.u64()?;
            let privacy = r.f64()?;
            let mse = r.f64()?;
            let max_posterior = r.f64()?;
            let degraded = r.bool()?;
            let n = r.u32()?;
            if n > MAX_WIRE_CATEGORIES {
                return Err(WireError::Malformed(format!(
                    "matrix of {n} categories exceeds the {MAX_WIRE_CATEGORIES} cap"
                )));
            }
            let n = n as usize;
            // Every cell is present before any column is allocated. A
            // column is one `8 * n`-byte slice; at n = 0 there are no
            // cells, and `max(1)` keeps the chunk size nonzero.
            let cells = r.take(8 * n * n)?;
            let columns = cells
                .chunks_exact(8 * n.max(1))
                .map(|column| column.chunks_exact(8).map(f64_le).collect())
                .collect();
            Response::Matrix {
                key,
                privacy,
                mse,
                max_posterior,
                matrix: protocol::MatrixDto {
                    num_categories: n,
                    columns,
                },
                degraded,
            }
        }
        TAG_ESTIMATED => Response::Estimated {
            stats: read_estimate_dto(&mut r)?,
        },
        TAG_NO_MATCH => Response::NoMatch {
            key: r.u64()?,
            reason: r.string()?,
            degraded: r.bool()?,
        },
        TAG_JSON_RESPONSE => {
            let text = std::str::from_utf8(payload)
                .map_err(|_| WireError::Malformed("JSON-escape payload is not UTF-8".into()))?;
            return protocol::decode_response(text)
                .map_err(|e| WireError::Malformed(format!("JSON-escape response: {e}")));
        }
        other => return Err(WireError::UnknownTag(other)),
    };
    r.finish()?;
    Ok(response)
}

/// Decodes one complete frame (as produced by [`encode_frame`]) into
/// its tag and payload — the buffer-level entry point for tests. Sessions
/// and the client read frames off a stream with the session core's frame
/// reader instead (header first, so a torn prefix is detected at the
/// exact read that hit it) and call [`parse_header`] and [`parse_body`].
pub fn decode_frame(frame: &[u8]) -> Result<(u8, &[u8])> {
    if frame.len() < 4 {
        return Err(WireError::Truncated {
            expected: 4,
            got: frame.len(),
        });
    }
    let body_len = parse_header([frame[0], frame[1], frame[2], frame[3]])?;
    let body = &frame[4..];
    if body.len() < body_len {
        return Err(WireError::Truncated {
            expected: body_len,
            got: body.len(),
        });
    }
    if body.len() > body_len {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after frame",
            body.len() - body_len
        )));
    }
    parse_body(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MatrixDto;
    use optrr::OmegaEntry;
    use proptest::prelude::*;
    use rr::schemes::warner;
    use rr::RrMatrix;

    /// The bytewise CRC32 loop over table 0 — the oracle the four-lane
    /// [`crc32`] must match on every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    fn round_trip_request(request: &Request) -> Request {
        let frame = encode_request_frame(request).expect("encodes");
        let (tag, payload) = decode_frame(&frame).expect("frame parses");
        decode_request_frame(tag, payload).expect("payload decodes")
    }

    fn round_trip_response(response: &Response) -> Response {
        let frame = encode_response_frame(response).expect("encodes");
        let (tag, payload) = decode_frame(&frame).expect("frame parses");
        decode_response_frame(tag, payload).expect("payload decodes")
    }

    #[test]
    fn documented_example_frame_is_bitwise_stable() {
        let frame = encode_request_frame(&Request::Estimate {
            key: Some(9),
            name: None,
        })
        .unwrap();
        // The module-doc hexdump, byte for byte.
        let expected = [
            0x0f, 0x00, 0x00, 0x00, // length 15
            0x03, // TAG_ESTIMATE
            0x01, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // key = Some(9)
            0x00, // name = None
            0x88, 0x0a, 0x04, 0xb1, // CRC32
        ];
        assert_eq!(frame, expected);
    }

    #[test]
    fn hot_requests_round_trip_bitwise() {
        let requests = [
            Request::Ingest {
                key: Some(42),
                name: None,
                min_privacy: Some(0.2),
                records: Some(vec![0, 1, 2, 0, 3]),
                counts: None,
                seed: Some(11),
            },
            Request::Ingest {
                key: None,
                name: Some("demo".into()),
                min_privacy: None,
                records: None,
                counts: Some(vec![10, 0, 3]),
                seed: None,
            },
            Request::Ingest {
                key: None,
                name: None,
                min_privacy: None,
                records: Some(vec![]),
                counts: None,
                seed: None,
            },
            Request::BestForPrivacy {
                key: Some(7),
                name: Some("both".into()),
                min_privacy: 0.25,
            },
            Request::BestForPrivacy {
                key: None,
                name: None,
                min_privacy: f64::MIN_POSITIVE,
            },
            Request::Estimate {
                key: Some(u64::MAX),
                name: None,
            },
            Request::Estimate {
                key: None,
                name: Some("ünïcode-名前".into()),
            },
        ];
        for request in &requests {
            assert_eq!(&round_trip_request(request), request);
        }
    }

    #[test]
    fn every_protocol_request_crosses_the_binary_codec() {
        // Cold verbs ride the JSON-escape frame; all must survive.
        let requests = [
            Request::Register {
                name: Some("demo".into()),
                prior: vec![0.4, 0.3, 0.2, 0.1],
                delta: 0.8,
                slots: Some(500),
                lazy: Some(true),
            },
            Request::RegisterBatch {
                names: None,
                priors: vec![vec![0.5, 0.5]],
                delta: 0.75,
                slots: None,
            },
            Request::BestForMse {
                key: None,
                name: Some("demo".into()),
                max_mse: 1e-4,
            },
            Request::Front {
                key: Some(7),
                name: None,
            },
            Request::Disguise {
                key: None,
                name: Some("demo".into()),
                min_privacy: 0.3,
                records: vec![1, 1, 0],
                seed: None,
            },
            Request::EstimateAll,
            Request::Save {
                path: "snap.json".into(),
            },
            Request::Load {
                path: "snap.json".into(),
            },
            Request::Evict {
                key: Some(1),
                name: None,
            },
            Request::Refresh {
                key: Some(1),
                name: None,
                runs: Some(2),
            },
            Request::Sync,
            Request::Stats {
                key: None,
                name: None,
            },
            Request::Metrics,
            Request::Trace { limit: Some(5) },
            Request::Shutdown,
        ];
        for request in &requests {
            let frame = encode_request_frame(request).unwrap();
            assert_eq!(frame[4], TAG_JSON_REQUEST, "{request:?} is not hot");
            assert_eq!(&round_trip_request(request), request);
        }
    }

    #[test]
    fn hot_responses_round_trip_bitwise() {
        let matrix = MatrixDto::from_matrix(&warner(4, 0.7).unwrap());
        let responses = [
            Response::Ingested {
                key: 9,
                accepted: 500,
                retained: 321,
                total: 1500,
                batches: 3,
                privacy: 0.41,
            },
            Response::Matrix {
                key: 9,
                privacy: 0.42,
                mse: 3.5e-5,
                max_posterior: 0.77,
                matrix: matrix.clone(),
                degraded: false,
            },
            Response::NoMatch {
                key: 9,
                reason: "no entry with privacy >= 0.99".into(),
                degraded: true,
            },
            Response::Estimated {
                stats: EstimateDto {
                    key: 9,
                    method: "inversion".into(),
                    distribution: vec![0.4, 0.3, 0.2, 0.1],
                    iterations: 0,
                    residual: 0.0,
                    mse_vs_prior: 2.4e-5,
                    total_responses: 1500,
                    batches: 3,
                    drifted: false,
                    stale: false,
                    degraded: false,
                },
            },
        ];
        for response in &responses {
            let back = round_trip_response(response);
            assert_eq!(&back, response);
        }
        // The matrix crosses bitwise: compare the raw f64 bits.
        let Response::Matrix { matrix: back, .. } = round_trip_response(&Response::Matrix {
            key: 1,
            privacy: 0.1,
            mse: 1e-6,
            max_posterior: 0.5,
            matrix: matrix.clone(),
            degraded: false,
        }) else {
            panic!("matrix response decodes as a matrix");
        };
        for (a, b) in matrix.columns.iter().zip(back.columns.iter()) {
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn cold_responses_ride_the_json_escape() {
        let responses = [
            Response::Registered {
                key: 9,
                warm: true,
                filled_slots: 55,
                engine_runs: 1,
            },
            Response::Synced,
            Response::Error {
                reason: "unknown key".into(),
                code: "invalid_request".into(),
            },
            Response::Bye,
        ];
        for response in &responses {
            let frame = encode_response_frame(response).unwrap();
            assert_eq!(frame[4], TAG_JSON_RESPONSE, "{response:?} is not hot");
            assert_eq!(&round_trip_response(response), response);
        }
    }

    #[test]
    fn truncation_at_every_offset_never_panics() {
        // The snapshot torn-read discipline, applied to frames: every
        // strict prefix of a valid frame must yield a typed error.
        let matrix = MatrixDto::from_matrix(&warner(5, 0.65).unwrap());
        let frames = [
            encode_request_frame(&Request::Ingest {
                key: Some(42),
                name: Some("demo".into()),
                min_privacy: Some(0.2),
                records: Some(vec![0, 1, 2, 0, 3, 4]),
                counts: None,
                seed: Some(11),
            })
            .unwrap(),
            encode_response_frame(&Response::Matrix {
                key: 9,
                privacy: 0.42,
                mse: 3.5e-5,
                max_posterior: 0.77,
                matrix,
                degraded: false,
            })
            .unwrap(),
            encode_request_frame(&Request::Metrics).unwrap(),
        ];
        for frame in &frames {
            for cut in 0..frame.len() {
                let err = decode_frame(&frame[..cut]).expect_err("prefix must not decode");
                assert!(
                    matches!(err, WireError::Truncated { .. } | WireError::BadCrc { .. }),
                    "cut at {cut}: unexpected {err:?}"
                );
            }
        }
    }

    #[test]
    fn payload_truncation_inside_the_body_never_panics() {
        // Truncate *after* the CRC check would pass: feed shortened
        // payloads straight to the field decoders.
        let frame = encode_request_frame(&Request::Ingest {
            key: Some(42),
            name: Some("demo".into()),
            min_privacy: Some(0.2),
            records: Some(vec![0, 1, 2]),
            counts: Some(vec![5, 5]),
            seed: Some(11),
        })
        .unwrap();
        let (tag, payload) = decode_frame(&frame).unwrap();
        for cut in 0..payload.len() {
            let result = decode_request_frame(tag, &payload[..cut]);
            assert!(result.is_err(), "payload cut at {cut} must error");
        }
    }

    #[test]
    fn corrupted_bytes_fail_the_crc() {
        let frame = encode_request_frame(&Request::Estimate {
            key: Some(9),
            name: None,
        })
        .unwrap();
        // Flip each body byte (everything after the length prefix).
        for at in 4..frame.len() {
            let mut bad = frame.clone();
            bad[at] ^= 0x40;
            let err = decode_frame(&bad).expect_err("corruption must be detected");
            assert!(
                matches!(err, WireError::BadCrc { .. } | WireError::Malformed(_)),
                "byte {at}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn frame_length_field_is_bounded() {
        assert!(matches!(
            parse_header((MAX_FRAME_LEN + 1).to_le_bytes()),
            Err(WireError::FrameTooLarge { .. })
        ));
        assert!(matches!(
            parse_header(4u32.to_le_bytes()),
            Err(WireError::FrameTooSmall { .. })
        ));
        assert_eq!(parse_header(5u32.to_le_bytes()), Ok(5));
    }

    #[test]
    fn an_ingest_record_past_u32_is_unencodable() {
        let record = u32::MAX as usize + 1;
        let request = Request::Ingest {
            key: Some(1),
            name: None,
            min_privacy: None,
            records: Some(vec![0, 1, record]),
            counts: None,
            seed: None,
        };
        assert_eq!(
            encode_request_frame(&request),
            Err(WireError::Unencodable(format!(
                "record index {record} exceeds u32"
            )))
        );
    }

    #[test]
    fn unknown_tags_and_bad_flags_are_typed_errors() {
        let frame = encode_frame(0x55, &[1, 2, 3]).unwrap();
        let (tag, payload) = decode_frame(&frame).unwrap();
        assert_eq!(
            decode_request_frame(tag, payload),
            Err(WireError::UnknownTag(0x55))
        );
        assert_eq!(
            decode_response_frame(tag, payload),
            Err(WireError::UnknownTag(0x55))
        );
        // An option flag byte outside {0, 1} is malformed, not a panic.
        let frame = encode_frame(TAG_ESTIMATE, &[7]).unwrap();
        let (tag, payload) = decode_frame(&frame).unwrap();
        assert!(matches!(
            decode_request_frame(tag, payload),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_meets_the_oracle_at_every_remainder_split() {
        // Every length up to two super-blocks + 40 bytes: zero, one and
        // two super-blocks of lanes each meet tails of 0 to 40 bytes
        // (every mix of 16-byte steps, the one 8-byte step and the
        // bytewise tail), and zero and one meet every shorter tail too.
        let super_block = CRC_LANES * CRC_LANE_BLOCK;
        let bytes: Vec<u8> = (0..2 * super_block as u32 + 40)
            .map(|i| (i * 151 + 13) as u8)
            .collect();
        for len in 0..=bytes.len() {
            assert_eq!(crc32(&bytes[..len]), crc32_bytewise(&bytes[..len]), "{len}");
        }
    }

    #[test]
    fn matrix_frames_of_zero_and_one_category_decode() {
        // The decoder takes n from the wire: n = 0 is no columns (and
        // never a zero-sized chunk), n = 1 is one one-cell column.
        for columns in [vec![], vec![vec![0.25]]] {
            let n = columns.len();
            let matrix = MatrixDto {
                num_categories: n,
                columns,
            };
            let response = Response::Matrix {
                key: 5,
                privacy: 0.5,
                mse: 1e-3,
                max_posterior: 0.6,
                matrix,
                degraded: true,
            };
            let frame = encode_response_frame(&response).unwrap();
            assert_eq!(frame.len(), 46 + 8 * n * n);
            assert_eq!(frame[38..42], (n as u32).to_le_bytes());
            assert_eq!(round_trip_response(&response), response);
        }
    }

    /// A pseudo-random column-stochastic `n`×`n` matrix.
    fn stochastic(n: usize, next: &mut impl FnMut() -> f64) -> RrMatrix {
        let columns: Vec<linalg::Vector> = (0..n)
            .map(|_| {
                let raw: Vec<f64> = (0..n).map(|_| next() + 1e-3).collect();
                let sum: f64 = raw.iter().sum();
                linalg::Vector::from_vec(raw.iter().map(|v| v / sum).collect())
            })
            .collect();
        RrMatrix::from_columns(&columns).unwrap()
    }

    proptest! {
        #[test]
        fn sliced_crc_matches_the_bytewise_oracle(
            bytes in proptest::collection::vec(0u8..=255, 0..=4096),
            offset in 0usize..16,
        ) {
            // Unaligned starts and every remainder length mod 16.
            let tail = &bytes[offset.min(bytes.len())..];
            prop_assert_eq!(crc32(tail), crc32_bytewise(tail));
        }

        #[test]
        fn stored_matrix_frames_equal_the_dto_frames_bitwise(
            n in 2usize..=40,
            seed_bits in 0u32..u32::MAX,
            key in 0u64..u64::MAX,
            degraded in (0u8..2).prop_map(|flag| flag == 1),
        ) {
            let mut state = u64::from(seed_bits) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let matrix = stochastic(n, &mut next);
            let evaluation = optrr::Evaluation {
                privacy: next(),
                mse: next() * 1e-3,
                max_posterior: next(),
                feasible: true,
            };
            let found = OmegaEntry { matrix, evaluation };
            // The response `Service::handle` builds from the same entry.
            let response = Response::Matrix {
                key,
                privacy: evaluation.privacy,
                mse: evaluation.mse,
                max_posterior: evaluation.max_posterior,
                matrix: MatrixDto::from_matrix(&found.matrix),
                degraded,
            };
            let direct = encode_matrix_reply(key, &found, degraded).unwrap();
            prop_assert_eq!(direct, encode_response_frame(&response).unwrap());
        }
    }

    proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(64))]

        #[test]
        fn ingest_payloads_round_trip(
            key in (0u8..2, 0u64..u64::MAX).prop_map(|(some, v)| (some == 1).then_some(v)),
            min_privacy in (0u8..2, 0.0f64..1.0).prop_map(|(some, v)| (some == 1).then_some(v)),
            records in (0u8..2, proptest::collection::vec(0usize..64, 0..128))
                .prop_map(|(some, v)| (some == 1).then_some(v)),
            counts in (0u8..2, proptest::collection::vec(0u64..(1 << 60), 0..32))
                .prop_map(|(some, v)| (some == 1).then_some(v)),
            seed in (0u8..2, 0u64..u64::MAX).prop_map(|(some, v)| (some == 1).then_some(v)),
        ) {
            let request = Request::Ingest {
                key,
                name: None,
                min_privacy,
                records,
                counts,
                seed,
            };
            let frame = encode_request_frame(&request).unwrap();
            let (tag, payload) = decode_frame(&frame).unwrap();
            prop_assert_eq!(decode_request_frame(tag, payload).unwrap(), request);
        }

        #[test]
        fn matrix_responses_round_trip_column_major(
            n in 1usize..12,
            seed_bits in 0u32..u32::MAX,
        ) {
            // A pseudo-random column-major matrix: layout fidelity is the
            // point, column-stochasticity is not required by the codec.
            let mut state = u64::from(seed_bits) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let columns: Vec<Vec<f64>> =
                (0..n).map(|_| (0..n).map(|_| next()).collect()).collect();
            let response = Response::Matrix {
                key: 3,
                privacy: next(),
                mse: next(),
                max_posterior: next(),
                matrix: MatrixDto { num_categories: n, columns },
                degraded: false,
            };
            let frame = encode_response_frame(&response).unwrap();
            let (tag, payload) = decode_frame(&frame).unwrap();
            prop_assert_eq!(decode_response_frame(tag, payload).unwrap(), response);
        }

        #[test]
        fn estimates_round_trip(
            distribution in proptest::collection::vec(0.0f64..1.0, 1..32),
            iterations in 0u64..u64::MAX,
            drifted in (0u8..2).prop_map(|flag| flag == 1),
        ) {
            let response = Response::Estimated {
                stats: EstimateDto {
                    key: 11,
                    method: "iterative".into(),
                    distribution,
                    iterations,
                    residual: 1e-9,
                    mse_vs_prior: 2.5e-4,
                    total_responses: 100,
                    batches: 2,
                    drifted,
                    stale: false,
                    degraded: false,
                },
            };
            let frame = encode_response_frame(&response).unwrap();
            let (tag, payload) = decode_frame(&frame).unwrap();
            prop_assert_eq!(decode_response_frame(tag, payload).unwrap(), response);
        }

        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(
            bytes in proptest::collection::vec(0u8..=255, 0..256),
        ) {
            // Errors are fine; panics are not.
            let _ = decode_frame(&bytes);
            if bytes.len() >= 4 {
                if let Ok(len) = parse_header([bytes[0], bytes[1], bytes[2], bytes[3]]) {
                    let _ = len;
                }
            }
            if !bytes.is_empty() {
                let _ = decode_request_frame(bytes[0], &bytes[1..]);
                let _ = decode_response_frame(bytes[0], &bytes[1..]);
            }
        }
    }
}

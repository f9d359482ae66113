//! The neutral wire format — the paper's *message translation* (§3.5).
//!
//! Participants agree only on this byte format ("an array of pairs of
//! parameters and values"), never on computation graphs. Encoding turns
//! backend-native parameters into the neutral format; decoding parses it into
//! the receiver's own representation. The format follows the principle of
//! information minimization: it carries names, shapes, and values — nothing
//! about architecture, training algorithm, or personalization operators.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! params  := u32 count, entry*
//! entry   := u16 name_len, name bytes (UTF-8), u8 ndim, u32 dim*, f32 value*
//! message := u32 sender, u32 receiver, u16 kind_tag, u64 round, f64 timestamp,
//!            u8 payload_tag, payload_body
//! ```

use crate::message::{Message, MessageKind, Payload};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use fs_compress::{put_block, take_block, BlockCodecError};
use fs_tensor::model::Metrics;
use fs_tensor::{ParamMap, Tensor};
use std::fmt;

/// Serialized size of the fixed message header
/// (sender + receiver + kind + round + timestamp).
pub const HEADER_LEN: usize = 4 + 4 + 2 + 8 + 8;

/// Errors raised while decoding wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the structure was complete.
    Truncated,
    /// A parameter name was not valid UTF-8.
    BadName,
    /// An unknown message-kind or payload tag was encountered.
    BadTag(u16),
    /// A declared shape does not match the number of values present.
    BadShape,
    /// A delta-encoded payload referenced a model version the receiver does
    /// not hold.
    MissingReference(u64),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "wire data truncated"),
            CodecError::BadName => write!(f, "parameter name is not valid UTF-8"),
            CodecError::BadTag(t) => write!(f, "unknown wire tag {t}"),
            CodecError::BadShape => write!(f, "shape/value-count mismatch"),
            CodecError::MissingReference(v) => {
                write!(f, "delta payload references unavailable model version {v}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<BlockCodecError> for CodecError {
    fn from(e: BlockCodecError) -> Self {
        match e {
            BlockCodecError::Truncated => CodecError::Truncated,
            BlockCodecError::BadName => CodecError::BadName,
            BlockCodecError::BadTag(t) => CodecError::BadTag(t as u16),
            BlockCodecError::BadShape => CodecError::BadShape,
        }
    }
}

/// Exact serialized size of a [`ParamMap`] in the neutral format.
pub fn params_wire_len(params: &ParamMap) -> usize {
    4 + params
        .iter()
        .map(|(name, t)| 2 + name.len() + 1 + 4 * t.shape().len() + 4 * t.numel())
        .sum::<usize>()
}

/// Exact serialized size of a payload (tag byte + body), matching
/// [`encode_message`] byte for byte.
pub fn payload_wire_len(payload: &Payload) -> usize {
    1 + match payload {
        Payload::Empty => 0,
        Payload::Model { params, .. } => 8 + params_wire_len(params),
        Payload::Update { params, .. } => 24 + params_wire_len(params),
        Payload::Report { .. } => 16,
        Payload::Bytes(b) => 4 + b.len(),
        Payload::CompressedModel { block, .. } => 8 + block.encoded_len(),
        Payload::CompressedUpdate { block, .. } => 24 + block.encoded_len(),
        Payload::PartialUpdate {
            params,
            constituents,
            ..
        } => 24 + 4 + 4 * constituents.len() + params_wire_len(params),
        Payload::CompressedPartialUpdate {
            block,
            constituents,
            ..
        } => 24 + 4 + 4 * constituents.len() + block.encoded_len(),
    }
}

fn need(buf: &impl Buf, n: usize) -> Result<(), CodecError> {
    if buf.remaining() < n {
        Err(CodecError::Truncated)
    } else {
        Ok(())
    }
}

/// Encodes a [`ParamMap`] into the neutral format.
pub fn encode_params(params: &ParamMap) -> Bytes {
    let mut buf = BytesMut::with_capacity(params.numel() * 4 + params.len() * 32 + 4);
    put_params(&mut buf, params);
    buf.freeze()
}

fn put_params(buf: &mut BytesMut, params: &ParamMap) {
    buf.put_u32_le(params.len() as u32);
    for (name, t) in params.iter() {
        buf.put_u16_le(name.len() as u16);
        buf.put_slice(name.as_bytes());
        buf.put_u8(t.shape().len() as u8);
        for &d in t.shape() {
            buf.put_u32_le(d as u32);
        }
        for &v in t.data() {
            buf.put_f32_le(v);
        }
    }
}

/// Decodes a [`ParamMap`] from the neutral format.
pub fn decode_params(mut buf: &[u8]) -> Result<ParamMap, CodecError> {
    take_params(&mut buf)
}

fn take_params(buf: &mut &[u8]) -> Result<ParamMap, CodecError> {
    need(buf, 4)?;
    let count = buf.get_u32_le() as usize;
    let mut out = ParamMap::new();
    for _ in 0..count {
        need(buf, 2)?;
        let name_len = buf.get_u16_le() as usize;
        need(buf, name_len)?;
        let name = std::str::from_utf8(&buf[..name_len])
            .map_err(|_| CodecError::BadName)?
            .to_string();
        buf.advance(name_len);
        need(buf, 1)?;
        let ndim = buf.get_u8() as usize;
        need(buf, 4 * ndim)?;
        let mut shape = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            shape.push(buf.get_u32_le() as usize);
        }
        // checked product: a crafted frame must yield a decode error, not an
        // overflow panic or huge allocation
        let numel = shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or(CodecError::BadShape)?;
        let bytes = numel.checked_mul(4).ok_or(CodecError::BadShape)?;
        need(buf, bytes)?;
        // bulk conversion over 4-byte chunks: one pass, no per-element
        // cursor bookkeeping (the wire layout gives no alignment guarantee,
        // so a safe &[u8] -> &[f32] cast is not available)
        let mut data = Vec::with_capacity(numel);
        data.extend(le_f32s(&buf[..bytes]));
        buf.advance(bytes);
        out.insert(name, Tensor::from_vec(shape, data));
    }
    Ok(out)
}

/// Iterates the `f32` values stored little-endian in `raw`
/// (`raw.len()` must be a multiple of 4; trailing bytes are ignored).
fn le_f32s(raw: &[u8]) -> impl Iterator<Item = f32> + '_ {
    raw.chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
}

/// Encodes a whole [`Message`] (header + payload) for transport.
pub fn encode_message(msg: &Message) -> Bytes {
    let mut buf = BytesMut::with_capacity(msg.payload_bytes() + 64);
    put_message(&mut buf, msg);
    buf.freeze()
}

/// Appends `msg`'s encoding to `buf` (the transport builds a whole frame,
/// length prefix included, in one buffer this way).
pub(crate) fn put_message(buf: &mut BytesMut, msg: &Message) {
    buf.put_u32_le(msg.sender);
    buf.put_u32_le(msg.receiver);
    buf.put_u16_le(msg.kind.tag());
    buf.put_u64_le(msg.round);
    buf.put_f64_le(msg.timestamp);
    match &msg.payload {
        Payload::Empty => buf.put_u8(0),
        Payload::Model { params, version } => {
            buf.put_u8(1);
            buf.put_u64_le(*version);
            put_params(buf, params);
        }
        Payload::Update {
            params,
            start_version,
            n_samples,
            n_steps,
        } => {
            buf.put_u8(2);
            buf.put_u64_le(*start_version);
            buf.put_u64_le(*n_samples);
            buf.put_u64_le(*n_steps);
            put_params(buf, params);
        }
        Payload::Report { metrics } => {
            buf.put_u8(3);
            buf.put_f32_le(metrics.loss);
            buf.put_f32_le(metrics.accuracy);
            buf.put_u64_le(metrics.n as u64);
        }
        Payload::Bytes(b) => {
            buf.put_u8(4);
            buf.put_u32_le(b.len() as u32);
            buf.put_slice(b);
        }
        Payload::CompressedModel { block, version } => {
            buf.put_u8(5);
            buf.put_u64_le(*version);
            put_block(buf, block);
        }
        Payload::CompressedUpdate {
            block,
            start_version,
            n_samples,
            n_steps,
        } => {
            buf.put_u8(6);
            buf.put_u64_le(*start_version);
            buf.put_u64_le(*n_samples);
            buf.put_u64_le(*n_steps);
            put_block(buf, block);
        }
        Payload::PartialUpdate {
            params,
            start_version,
            n_samples,
            n_steps,
            constituents,
        } => {
            buf.put_u8(7);
            buf.put_u64_le(*start_version);
            buf.put_u64_le(*n_samples);
            buf.put_u64_le(*n_steps);
            put_constituents(buf, constituents);
            put_params(buf, params);
        }
        Payload::CompressedPartialUpdate {
            block,
            start_version,
            n_samples,
            n_steps,
            constituents,
        } => {
            buf.put_u8(8);
            buf.put_u64_le(*start_version);
            buf.put_u64_le(*n_samples);
            buf.put_u64_le(*n_steps);
            put_constituents(buf, constituents);
            put_block(buf, block);
        }
    }
}

fn put_constituents(buf: &mut BytesMut, ids: &[u32]) {
    buf.put_u32_le(ids.len() as u32);
    for &id in ids {
        buf.put_u32_le(id);
    }
}

fn take_constituents(buf: &mut &[u8]) -> Result<Vec<u32>, CodecError> {
    need(buf, 4)?;
    let count = buf.get_u32_le() as usize;
    need(buf, count.checked_mul(4).ok_or(CodecError::BadShape)?)?;
    let mut ids = Vec::with_capacity(count);
    for _ in 0..count {
        ids.push(buf.get_u32_le());
    }
    Ok(ids)
}

/// Decodes a whole [`Message`] from transport bytes.
pub fn decode_message(mut buf: &[u8]) -> Result<Message, CodecError> {
    need(&buf, 4 + 4 + 2 + 8 + 8 + 1)?;
    let sender = buf.get_u32_le();
    let receiver = buf.get_u32_le();
    let kind_tag = buf.get_u16_le();
    let kind = MessageKind::from_tag(kind_tag).ok_or(CodecError::BadTag(kind_tag))?;
    let round = buf.get_u64_le();
    let timestamp = buf.get_f64_le();
    let payload_tag = buf.get_u8();
    let payload = match payload_tag {
        0 => Payload::Empty,
        1 => {
            need(&buf, 8)?;
            let version = buf.get_u64_le();
            let params = take_params(&mut buf)?;
            Payload::Model { params, version }
        }
        2 => {
            need(&buf, 24)?;
            let start_version = buf.get_u64_le();
            let n_samples = buf.get_u64_le();
            let n_steps = buf.get_u64_le();
            let params = take_params(&mut buf)?;
            Payload::Update {
                params,
                start_version,
                n_samples,
                n_steps,
            }
        }
        3 => {
            need(&buf, 16)?;
            let loss = buf.get_f32_le();
            let accuracy = buf.get_f32_le();
            let n = buf.get_u64_le() as usize;
            Payload::Report {
                metrics: Metrics { loss, accuracy, n },
            }
        }
        4 => {
            need(&buf, 4)?;
            let len = buf.get_u32_le() as usize;
            need(&buf, len)?;
            let b = buf[..len].to_vec();
            buf.advance(len);
            Payload::Bytes(b)
        }
        5 => {
            need(&buf, 8)?;
            let version = buf.get_u64_le();
            let block = take_block(&mut buf)?;
            Payload::CompressedModel { block, version }
        }
        6 => {
            need(&buf, 24)?;
            let start_version = buf.get_u64_le();
            let n_samples = buf.get_u64_le();
            let n_steps = buf.get_u64_le();
            let block = take_block(&mut buf)?;
            Payload::CompressedUpdate {
                block,
                start_version,
                n_samples,
                n_steps,
            }
        }
        7 => {
            need(&buf, 24)?;
            let start_version = buf.get_u64_le();
            let n_samples = buf.get_u64_le();
            let n_steps = buf.get_u64_le();
            let constituents = take_constituents(&mut buf)?;
            let params = take_params(&mut buf)?;
            Payload::PartialUpdate {
                params,
                start_version,
                n_samples,
                n_steps,
                constituents,
            }
        }
        8 => {
            need(&buf, 24)?;
            let start_version = buf.get_u64_le();
            let n_samples = buf.get_u64_le();
            let n_steps = buf.get_u64_le();
            let constituents = take_constituents(&mut buf)?;
            let block = take_block(&mut buf)?;
            Payload::CompressedPartialUpdate {
                block,
                start_version,
                n_samples,
                n_steps,
                constituents,
            }
        }
        t => return Err(CodecError::BadTag(t as u16)),
    };
    Ok(Message {
        sender,
        receiver,
        kind,
        round,
        timestamp,
        payload,
    })
}

// ---------------------------------------------------------------------------
// Zero-copy views
// ---------------------------------------------------------------------------
//
// The owned decoders above copy every tensor value out of the receive buffer
// into fresh `Vec<f32>` allocations. On the server's update-heavy hot path
// that copy is pure overhead when the values are consumed exactly once (fed
// into an aggregation accumulator) or copied into storage that already
// exists (a backend store refreshing its parameters in place). The view
// decoders parse the same format but keep tensor payloads as borrowed
// little-endian byte slices into the receive buffer.
//
// Invariants:
// * A view borrows the receive buffer: it must be consumed before the buffer
//   is reused or freed (the borrow checker enforces this; no view type is
//   `'static`).
// * The wire layout gives no alignment guarantee, so views hold `&[u8]` and
//   decode `f32`s on the fly via `from_le_bytes` — never an unsafe cast to
//   `&[f32]`. Decoding a value from bytes is exact (same bits), so any
//   computation over view values is bit-identical to the same computation
//   over an owned decode.

/// A tensor parsed without copying its values: the shape is owned (tiny),
/// the values remain little-endian bytes borrowed from the receive buffer.
#[derive(Clone, Debug, PartialEq)]
pub struct TensorView<'a> {
    shape: Vec<usize>,
    /// `4 * numel` little-endian `f32` bytes.
    data: &'a [u8],
}

impl<'a> TensorView<'a> {
    /// The declared shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of values.
    pub fn numel(&self) -> usize {
        self.data.len() / 4
    }

    /// The raw little-endian value bytes (length `4 * numel`).
    pub fn raw_le_bytes(&self) -> &'a [u8] {
        self.data
    }

    /// Iterates the values, decoding each `f32` from the wire bytes.
    pub fn values(&self) -> impl Iterator<Item = f32> + 'a {
        le_f32s(self.data)
    }

    /// Materializes an owned [`Tensor`] (the one copy, when the caller needs
    /// ownership after all).
    pub fn to_tensor(&self) -> Tensor {
        let mut data = Vec::with_capacity(self.numel());
        data.extend(self.values());
        Tensor::from_vec(self.shape.clone(), data)
    }

    /// Copies the values into `dst` without allocating.
    /// Returns `false` (leaving `dst` untouched) on a length mismatch.
    pub fn copy_values_into(&self, dst: &mut [f32]) -> bool {
        if dst.len() != self.numel() {
            return false;
        }
        for (d, v) in dst.iter_mut().zip(self.values()) {
            *d = v;
        }
        true
    }

    /// Fused accumulate straight from the wire bytes:
    /// `dst[i] += alpha * (self[i] - anchor[i])`.
    ///
    /// Per-coordinate this is the exact operation
    /// [`fs_tensor::acc_scaled_diff_slice`] performs, so aggregating from a
    /// view is bit-identical to decoding an owned tensor first — without the
    /// intermediate allocation.
    pub fn accumulate_scaled_diff(&self, dst: &mut [f32], alpha: f32, anchor: &[f32]) {
        assert_eq!(dst.len(), self.numel(), "accumulate_scaled_diff: dst len");
        assert_eq!(
            anchor.len(),
            self.numel(),
            "accumulate_scaled_diff: anchor len"
        );
        for ((d, u), g) in dst.iter_mut().zip(self.values()).zip(anchor.iter()) {
            *d += alpha * (u - *g);
        }
    }
}

/// A [`ParamMap`] parsed without copying tensor values — the borrowed
/// counterpart of [`decode_params`]. Entry names are borrowed `&str`s and
/// values are [`TensorView`]s into the receive buffer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParamsView<'a> {
    entries: Vec<(&'a str, TensorView<'a>)>,
}

impl<'a> ParamsView<'a> {
    /// Number of parameter entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of values across all entries.
    pub fn numel(&self) -> usize {
        self.entries.iter().map(|(_, t)| t.numel()).sum()
    }

    /// Iterates entries in wire order (the encoder writes [`ParamMap`]
    /// entries in sorted-name order, so this matches `ParamMap::iter`).
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, &TensorView<'a>)> {
        self.entries.iter().map(|(n, t)| (*n, t))
    }

    /// Looks up one entry by name.
    pub fn get(&self, name: &str) -> Option<&TensorView<'a>> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| t)
    }

    /// Materializes an owned [`ParamMap`].
    pub fn to_params(&self) -> ParamMap {
        let mut out = ParamMap::new();
        for (name, t) in &self.entries {
            out.insert(*name, t.to_tensor());
        }
        out
    }

    /// Refreshes `dst` in place from the view — zero allocations when the
    /// structures match. Returns `false` (leaving `dst` in an unspecified
    /// but valid state) when names, entry order, or shapes differ; the
    /// caller falls back to [`to_params`](Self::to_params).
    pub fn copy_into(&self, dst: &mut ParamMap) -> bool {
        if dst.len() != self.entries.len() {
            return false;
        }
        for ((dname, dt), (sname, st)) in dst.iter_mut().zip(self.entries.iter()) {
            if dname != *sname || dt.shape() != st.shape() {
                return false;
            }
            if !st.copy_values_into(dt.data_mut()) {
                return false;
            }
        }
        true
    }

    /// Fused aggregation step consuming the view: for every entry present in
    /// both the view and `delta`, `delta[k][i] += alpha * (view[k][i] -
    /// global[k][i])`. Entries missing from the view are skipped (partial
    /// updates contribute only what they carry); a key present in `delta`
    /// and the view but missing from `global` panics — the accumulator is
    /// always built from the global model, so that is a caller bug.
    ///
    /// Bit-identical to materializing the view with
    /// [`to_params`](Self::to_params) and calling
    /// `ParamMap::acc_scaled_diff`, coordinate for coordinate.
    pub fn accumulate_scaled_diff_into(&self, delta: &mut ParamMap, alpha: f32, global: &ParamMap) {
        for (name, dt) in delta.iter_mut() {
            let Some(uv) = self.get(name) else {
                continue;
            };
            let g = global
                .get(name)
                // fsa::allow(FSA022, caller contract: global must cover every accumulator key — same invariant panic as ParamMap::acc_scaled_diff; continuing would silently corrupt aggregation)
                .unwrap_or_else(|| panic!("accumulate_scaled_diff_into: {name} not in global"));
            assert_eq!(uv.shape(), dt.shape(), "shape mismatch for {name}");
            uv.accumulate_scaled_diff(dt.data_mut(), alpha, g.data());
        }
    }
}

/// Borrowed counterpart of [`decode_params`]: parses the neutral format,
/// keeping tensor values in the buffer.
pub fn decode_params_view(mut buf: &[u8]) -> Result<ParamsView<'_>, CodecError> {
    take_params_view(&mut buf)
}

fn take_params_view<'a>(buf: &mut &'a [u8]) -> Result<ParamsView<'a>, CodecError> {
    need(buf, 4)?;
    let count = buf.get_u32_le() as usize;
    let mut entries = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        need(buf, 2)?;
        let name_len = buf.get_u16_le() as usize;
        need(buf, name_len)?;
        let name = std::str::from_utf8(&buf[..name_len]).map_err(|_| CodecError::BadName)?;
        buf.advance(name_len);
        need(buf, 1)?;
        let ndim = buf.get_u8() as usize;
        need(buf, 4 * ndim)?;
        let mut shape = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            shape.push(buf.get_u32_le() as usize);
        }
        let numel = shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or(CodecError::BadShape)?;
        let bytes = numel.checked_mul(4).ok_or(CodecError::BadShape)?;
        need(buf, bytes)?;
        let data = &buf[..bytes];
        buf.advance(bytes);
        entries.push((name, TensorView { shape, data }));
    }
    Ok(ParamsView { entries })
}

/// Borrowed counterpart of [`Payload`]: parameter-carrying variants hold
/// [`ParamsView`]s and raw byte payloads stay borrowed. Compressed blocks
/// are decoded owned — their encodings (packed quantized bytes, sparse
/// index/value lists) are already compact and are restructured during
/// decompression anyway.
#[derive(Clone, Debug, PartialEq)]
pub enum PayloadView<'a> {
    /// No payload.
    Empty,
    /// Full model broadcast.
    Model {
        /// Borrowed parameters.
        params: ParamsView<'a>,
        /// Model version.
        version: u64,
    },
    /// A client update.
    Update {
        /// Borrowed parameters.
        params: ParamsView<'a>,
        /// Version the client trained from.
        start_version: u64,
        /// Local sample count.
        n_samples: u64,
        /// Local step count.
        n_steps: u64,
    },
    /// Evaluation metrics.
    Report {
        /// The metrics.
        metrics: Metrics,
    },
    /// Opaque bytes, borrowed from the buffer.
    Bytes(&'a [u8]),
    /// Compressed model broadcast.
    CompressedModel {
        /// The decoded block (owned; see type docs).
        block: fs_compress::CompressedBlock,
        /// Model version.
        version: u64,
    },
    /// Compressed client update.
    CompressedUpdate {
        /// The decoded block (owned; see type docs).
        block: fs_compress::CompressedBlock,
        /// Version the client trained from.
        start_version: u64,
        /// Local sample count.
        n_samples: u64,
        /// Local step count.
        n_steps: u64,
    },
    /// Partial (secure-sharded) update.
    PartialUpdate {
        /// Borrowed parameters.
        params: ParamsView<'a>,
        /// Version the clients trained from.
        start_version: u64,
        /// Combined sample count.
        n_samples: u64,
        /// Combined step count.
        n_steps: u64,
        /// Contributing client ids.
        constituents: Vec<u32>,
    },
    /// Compressed partial update.
    CompressedPartialUpdate {
        /// The decoded block (owned; see type docs).
        block: fs_compress::CompressedBlock,
        /// Version the clients trained from.
        start_version: u64,
        /// Combined sample count.
        n_samples: u64,
        /// Combined step count.
        n_steps: u64,
        /// Contributing client ids.
        constituents: Vec<u32>,
    },
}

impl PayloadView<'_> {
    /// Materializes an owned [`Payload`].
    pub fn to_payload(&self) -> Payload {
        match self {
            PayloadView::Empty => Payload::Empty,
            PayloadView::Model { params, version } => Payload::Model {
                params: params.to_params(),
                version: *version,
            },
            PayloadView::Update {
                params,
                start_version,
                n_samples,
                n_steps,
            } => Payload::Update {
                params: params.to_params(),
                start_version: *start_version,
                n_samples: *n_samples,
                n_steps: *n_steps,
            },
            PayloadView::Report { metrics } => Payload::Report { metrics: *metrics },
            PayloadView::Bytes(b) => Payload::Bytes(b.to_vec()),
            PayloadView::CompressedModel { block, version } => Payload::CompressedModel {
                block: block.clone(),
                version: *version,
            },
            PayloadView::CompressedUpdate {
                block,
                start_version,
                n_samples,
                n_steps,
            } => Payload::CompressedUpdate {
                block: block.clone(),
                start_version: *start_version,
                n_samples: *n_samples,
                n_steps: *n_steps,
            },
            PayloadView::PartialUpdate {
                params,
                start_version,
                n_samples,
                n_steps,
                constituents,
            } => Payload::PartialUpdate {
                params: params.to_params(),
                start_version: *start_version,
                n_samples: *n_samples,
                n_steps: *n_steps,
                constituents: constituents.clone(),
            },
            PayloadView::CompressedPartialUpdate {
                block,
                start_version,
                n_samples,
                n_steps,
                constituents,
            } => Payload::CompressedPartialUpdate {
                block: block.clone(),
                start_version: *start_version,
                n_samples: *n_samples,
                n_steps: *n_steps,
                constituents: constituents.clone(),
            },
        }
    }
}

/// Borrowed counterpart of [`Message`]: the header is parsed eagerly (it is
/// 26 fixed bytes), the payload stays a view into the buffer.
#[derive(Clone, Debug, PartialEq)]
pub struct MessageView<'a> {
    /// Sending participant.
    pub sender: u32,
    /// Receiving participant.
    pub receiver: u32,
    /// Message kind.
    pub kind: MessageKind,
    /// Round the message belongs to.
    pub round: u64,
    /// Sender-side timestamp.
    pub timestamp: f64,
    /// The borrowed payload.
    pub payload: PayloadView<'a>,
}

impl MessageView<'_> {
    /// Materializes an owned [`Message`].
    pub fn to_message(&self) -> Message {
        Message {
            sender: self.sender,
            receiver: self.receiver,
            kind: self.kind,
            round: self.round,
            timestamp: self.timestamp,
            payload: self.payload.to_payload(),
        }
    }
}

/// Borrowed counterpart of [`decode_message`]: parses the header and wraps
/// the payload as a view, copying nothing but shapes and names.
pub fn decode_message_view(mut buf: &[u8]) -> Result<MessageView<'_>, CodecError> {
    need(&buf, HEADER_LEN + 1)?;
    let sender = buf.get_u32_le();
    let receiver = buf.get_u32_le();
    let kind_tag = buf.get_u16_le();
    let kind = MessageKind::from_tag(kind_tag).ok_or(CodecError::BadTag(kind_tag))?;
    let round = buf.get_u64_le();
    let timestamp = buf.get_f64_le();
    let payload_tag = buf.get_u8();
    let payload = match payload_tag {
        0 => PayloadView::Empty,
        1 => {
            need(&buf, 8)?;
            let version = buf.get_u64_le();
            let params = take_params_view(&mut buf)?;
            PayloadView::Model { params, version }
        }
        2 => {
            need(&buf, 24)?;
            let start_version = buf.get_u64_le();
            let n_samples = buf.get_u64_le();
            let n_steps = buf.get_u64_le();
            let params = take_params_view(&mut buf)?;
            PayloadView::Update {
                params,
                start_version,
                n_samples,
                n_steps,
            }
        }
        3 => {
            need(&buf, 16)?;
            let loss = buf.get_f32_le();
            let accuracy = buf.get_f32_le();
            let n = buf.get_u64_le() as usize;
            PayloadView::Report {
                metrics: Metrics { loss, accuracy, n },
            }
        }
        4 => {
            need(&buf, 4)?;
            let len = buf.get_u32_le() as usize;
            need(&buf, len)?;
            let b = &buf[..len];
            buf.advance(len);
            PayloadView::Bytes(b)
        }
        5 => {
            need(&buf, 8)?;
            let version = buf.get_u64_le();
            let block = take_block(&mut buf)?;
            PayloadView::CompressedModel { block, version }
        }
        6 => {
            need(&buf, 24)?;
            let start_version = buf.get_u64_le();
            let n_samples = buf.get_u64_le();
            let n_steps = buf.get_u64_le();
            let block = take_block(&mut buf)?;
            PayloadView::CompressedUpdate {
                block,
                start_version,
                n_samples,
                n_steps,
            }
        }
        7 => {
            need(&buf, 24)?;
            let start_version = buf.get_u64_le();
            let n_samples = buf.get_u64_le();
            let n_steps = buf.get_u64_le();
            let constituents = take_constituents(&mut buf)?;
            let params = take_params_view(&mut buf)?;
            PayloadView::PartialUpdate {
                params,
                start_version,
                n_samples,
                n_steps,
                constituents,
            }
        }
        8 => {
            need(&buf, 24)?;
            let start_version = buf.get_u64_le();
            let n_samples = buf.get_u64_le();
            let n_steps = buf.get_u64_le();
            let constituents = take_constituents(&mut buf)?;
            let block = take_block(&mut buf)?;
            PayloadView::CompressedPartialUpdate {
                block,
                start_version,
                n_samples,
                n_steps,
                constituents,
            }
        }
        t => return Err(CodecError::BadTag(t as u16)),
    };
    Ok(MessageView {
        sender,
        receiver,
        kind,
        round,
        timestamp,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_compress::{CompressedBlock, CompressedTensor, Encoding};

    fn sample_block() -> CompressedBlock {
        CompressedBlock {
            delta: true,
            ref_version: 11,
            tensors: vec![
                CompressedTensor {
                    name: "w".into(),
                    shape: vec![2, 2],
                    encoding: Encoding::Quantized {
                        bits: 8,
                        min: -1.0,
                        max: 1.0,
                        packed: vec![0, 128, 255, 64],
                    },
                },
                CompressedTensor {
                    name: "b".into(),
                    shape: vec![4],
                    encoding: Encoding::Sparse {
                        indices: vec![1, 3],
                        values: vec![0.5, -0.25],
                    },
                },
            ],
        }
    }

    fn sample_params() -> ParamMap {
        let mut p = ParamMap::new();
        p.insert(
            "fc.weight",
            Tensor::from_vec(vec![2, 3], vec![1.0, -2.0, 3.5, 0.0, 4.25, -1.5]),
        );
        p.insert("fc.bias", Tensor::from_vec(vec![3], vec![0.1, 0.2, 0.3]));
        p
    }

    #[test]
    fn params_roundtrip() {
        let p = sample_params();
        let bytes = encode_params(&p);
        let q = decode_params(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn empty_params_roundtrip() {
        let p = ParamMap::new();
        assert_eq!(decode_params(&encode_params(&p)).unwrap(), p);
    }

    #[test]
    fn truncated_params_rejected() {
        let bytes = encode_params(&sample_params());
        for cut in [0, 3, 10, bytes.len() - 1] {
            let r = decode_params(&bytes[..cut]);
            assert_eq!(r, Err(CodecError::Truncated), "cut={cut}");
        }
    }

    #[test]
    fn message_roundtrip_all_payloads() {
        let payloads = vec![
            Payload::Empty,
            Payload::Model {
                params: sample_params(),
                version: 9,
            },
            Payload::Update {
                params: sample_params(),
                start_version: 7,
                n_samples: 123,
                n_steps: 4,
            },
            Payload::Report {
                metrics: Metrics {
                    loss: 0.5,
                    accuracy: 0.9,
                    n: 42,
                },
            },
            Payload::Bytes(vec![1, 2, 3, 4, 5]),
            Payload::CompressedModel {
                block: sample_block(),
                version: 9,
            },
            Payload::CompressedUpdate {
                block: sample_block(),
                start_version: 7,
                n_samples: 123,
                n_steps: 4,
            },
            Payload::PartialUpdate {
                params: sample_params(),
                start_version: 6,
                n_samples: 246,
                n_steps: 4,
                constituents: vec![2, 5, 9],
            },
            Payload::CompressedPartialUpdate {
                block: sample_block(),
                start_version: 6,
                n_samples: 246,
                n_steps: 4,
                constituents: vec![1, 4],
            },
        ];
        for payload in payloads {
            let mut m = Message::new(3, 0, MessageKind::Updates, 5, payload);
            m.timestamp = 123.456;
            let bytes = encode_message(&m);
            let d = decode_message(&bytes).unwrap();
            assert_eq!(m, d);
            // payload_bytes must be the exact serialized size, not an estimate
            assert_eq!(bytes.len(), HEADER_LEN + m.payload_bytes());
            assert_eq!(bytes.len(), m.wire_bytes());
        }
    }

    #[test]
    fn truncated_compressed_payload_rejected() {
        let m = Message::new(
            1,
            0,
            MessageKind::Updates,
            2,
            Payload::CompressedUpdate {
                block: sample_block(),
                start_version: 1,
                n_samples: 8,
                n_steps: 2,
            },
        );
        let bytes = encode_message(&m);
        for cut in [HEADER_LEN + 1, HEADER_LEN + 25, bytes.len() - 1] {
            assert_eq!(
                decode_message(&bytes[..cut]),
                Err(CodecError::Truncated),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn bad_kind_tag_rejected() {
        // construct the corrupt frame directly: header with kind tag 0x00FF
        // (unassigned) followed by an empty payload
        let mut raw = BytesMut::with_capacity(HEADER_LEN + 1);
        raw.put_u32_le(1); // sender
        raw.put_u32_le(0); // receiver
        raw.put_u16_le(0x00FF); // corrupt kind tag
        raw.put_u64_le(0); // round
        raw.put_f64_le(1.0); // timestamp
        raw.put_u8(0); // Payload::Empty
        assert!(matches!(decode_message(&raw), Err(CodecError::BadTag(_))));
    }

    #[test]
    fn format_carries_no_architecture_information() {
        // information minimization: the wire bytes contain names, shapes and
        // values only — two independently constructed identical models
        // produce byte-identical encodings.
        let a = encode_params(&sample_params());
        let b = encode_params(&sample_params());
        assert_eq!(a, b);
    }

    // -- zero-copy views ----------------------------------------------------

    #[test]
    fn params_view_matches_owned_decode() {
        let p = sample_params();
        let bytes = encode_params(&p);
        let view = decode_params_view(&bytes).unwrap();
        assert_eq!(view.len(), p.len());
        assert_eq!(view.numel(), p.numel());
        assert_eq!(view.to_params(), p);
        // entries come out in the same (sorted-name) order as ParamMap::iter
        for ((vn, vt), (pn, pt)) in view.iter().zip(p.iter()) {
            assert_eq!(vn, pn);
            assert_eq!(vt.shape(), pt.shape());
            assert_eq!(vt.values().collect::<Vec<_>>(), pt.data());
        }
    }

    #[test]
    fn params_view_borrows_the_buffer() {
        let p = sample_params();
        let bytes = encode_params(&p);
        let view = decode_params_view(&bytes).unwrap();
        let w = view.get("fc.weight").unwrap();
        // the view's value bytes alias the encoded buffer — zero copies
        let buf_range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
        assert!(buf_range.contains(&(w.raw_le_bytes().as_ptr() as usize)));
    }

    #[test]
    fn params_view_rejects_what_owned_decode_rejects() {
        let bytes = encode_params(&sample_params());
        for cut in [0, 3, 10, bytes.len() - 1] {
            assert_eq!(
                decode_params_view(&bytes[..cut]).err(),
                decode_params(&bytes[..cut]).err(),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn view_copy_into_refreshes_in_place_and_detects_mismatch() {
        let p = sample_params();
        let bytes = encode_params(&p);
        let view = decode_params_view(&bytes).unwrap();
        let mut dst = p.zeros_like();
        assert!(view.copy_into(&mut dst));
        assert_eq!(dst, p);
        // shape mismatch refuses
        let mut wrong = ParamMap::new();
        wrong.insert("fc.bias", Tensor::zeros(&[3]));
        wrong.insert("fc.weight", Tensor::zeros(&[3, 2]));
        assert!(!view.copy_into(&mut wrong));
        // entry-count mismatch refuses
        let mut short = ParamMap::new();
        short.insert("fc.bias", Tensor::zeros(&[3]));
        assert!(!short.iter().eq(p.iter()));
        assert!(!view.copy_into(&mut short));
    }

    #[test]
    fn view_accumulate_is_bit_identical_to_owned_path() {
        let global = sample_params();
        let mut update = sample_params();
        for (_, t) in update.iter_mut() {
            for v in t.data_mut() {
                *v = *v * 1.25 + 0.125;
            }
        }
        let bytes = encode_params(&update);
        let view = decode_params_view(&bytes).unwrap();
        let alpha = 0.3741f32;

        let mut from_view = global.zeros_like();
        view.accumulate_scaled_diff_into(&mut from_view, alpha, &global);

        let mut from_owned = global.zeros_like();
        let owned = decode_params(&bytes).unwrap();
        from_owned.acc_scaled_diff(alpha, &owned, &global);

        for ((_, a), (_, b)) in from_view.iter().zip(from_owned.iter()) {
            let ab: Vec<u32> = a.data().iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = b.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(ab, bb);
        }
    }

    #[test]
    fn message_view_matches_owned_decode_for_every_payload() {
        let payloads = vec![
            Payload::Empty,
            Payload::Model {
                params: sample_params(),
                version: 9,
            },
            Payload::Update {
                params: sample_params(),
                start_version: 7,
                n_samples: 123,
                n_steps: 4,
            },
            Payload::Report {
                metrics: Metrics {
                    loss: 0.5,
                    accuracy: 0.9,
                    n: 42,
                },
            },
            Payload::Bytes(vec![1, 2, 3, 4, 5]),
            Payload::CompressedModel {
                block: sample_block(),
                version: 9,
            },
            Payload::CompressedUpdate {
                block: sample_block(),
                start_version: 7,
                n_samples: 123,
                n_steps: 4,
            },
            Payload::PartialUpdate {
                params: sample_params(),
                start_version: 6,
                n_samples: 246,
                n_steps: 4,
                constituents: vec![2, 5, 9],
            },
            Payload::CompressedPartialUpdate {
                block: sample_block(),
                start_version: 6,
                n_samples: 246,
                n_steps: 4,
                constituents: vec![1, 4],
            },
        ];
        for payload in payloads {
            let mut m = Message::new(3, 0, MessageKind::Updates, 5, payload);
            m.timestamp = 123.456;
            let bytes = encode_message(&m);
            let view = decode_message_view(&bytes).unwrap();
            assert_eq!(view.to_message(), m);
        }
    }

    #[test]
    fn message_view_rejects_what_owned_decode_rejects() {
        let m = Message::new(
            1,
            0,
            MessageKind::Updates,
            2,
            Payload::Update {
                params: sample_params(),
                start_version: 1,
                n_samples: 8,
                n_steps: 2,
            },
        );
        let bytes = encode_message(&m);
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_message_view(&bytes[..cut]).err(),
                decode_message(&bytes[..cut]).err(),
                "cut={cut}"
            );
        }
    }
}

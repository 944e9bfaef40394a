//! # hybridgraph-codec
//!
//! Deterministic compression for HybridGraph's on-disk structures.
//!
//! The paper's whole analysis (Eqs. 4–11, the `Q_t` switch metric) is in
//! *bytes per I/O class*, so shrinking on-device bytes is the most direct
//! lever on modeled runtime. This crate provides the codecs; the storage
//! crate decides where to apply them and accounts the result as *logical*
//! (uncompressed) vs *physical* (on-device) bytes.
//!
//! Three codec families:
//!
//! * [`gaps`] — structure-aware: zig-zag delta-gap coding for sorted
//!   neighbour-id lists (WebGraph-style) plus bit-packed weight columns.
//!   Applied to VE-BLOCK eblocks, adjacency runs, and gather fragments.
//! * [`bv`] — the WebGraph-class tier for the same adjacency data:
//!   reference-chain copy-lists, interval coding and ζ residual gaps.
//! * [`block`] — general-purpose bytes: run-length encoding plus a fixed
//!   greedy LZ pass. The blob compressor under [`CodecChoice::Bv`]:
//!   checkpoint bodies, message spill chunks, msg-log segments and WAL
//!   records.
//!
//! Everything is deterministic (no RNG, no timestamps) and every coded
//! extent can fall back to raw bytes via a leading tag, so incompressible
//! data never blows up. [`CodecChoice::None`] is special: stores bypass
//! this crate entirely and their on-disk bytes stay byte-for-byte what
//! they were before compression existed.

pub mod bits;
pub mod block;
pub mod bv;
pub mod ef;
pub mod gaps;
pub mod varint;

pub use gaps::Frags;

use std::fmt;
use std::str::FromStr;

/// Errors from decoding corrupted or truncated coded bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended inside an encoding.
    Truncated,
    /// Structurally invalid input.
    Corrupt(&'static str),
    /// Decoded length disagrees with the recorded logical length.
    LengthMismatch { expected: usize, got: usize },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "coded input truncated"),
            CodecError::Corrupt(why) => write!(f, "coded input corrupt: {why}"),
            CodecError::LengthMismatch { expected, got } => {
                write!(f, "decoded {got} bytes, expected {expected}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Which codec a job applies to its disk-resident structures.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum CodecChoice {
    /// No codec anywhere: on-disk bytes and every I/O counter are
    /// byte-for-byte identical to a build without compression.
    #[default]
    None,
    /// Delta-gap + bit-packed coding for adjacency-structured data;
    /// blob structures (spills, checkpoints, msg logs) stay raw.
    Gaps,
    /// WebGraph-class BV tier: reference-chain copy-lists, interval
    /// coding and ζ residual gaps for adjacency data (format v3); blobs
    /// get the block codec. Falls back to raw per extent when the BV
    /// structural assumptions don't hold.
    Bv,
}

impl CodecChoice {
    /// All choices, for sweeps.
    pub const ALL: [CodecChoice; 3] = [CodecChoice::None, CodecChoice::Gaps, CodecChoice::Bv];

    /// Stable lowercase name (CLI value and metric label).
    pub fn label(self) -> &'static str {
        match self {
            CodecChoice::None => "none",
            CodecChoice::Gaps => "gaps",
            CodecChoice::Bv => "bv",
        }
    }

    /// True if stores should bypass coding entirely.
    pub fn is_none(self) -> bool {
        self == CodecChoice::None
    }
}

impl FromStr for CodecChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(CodecChoice::None),
            "gaps" => Ok(CodecChoice::Gaps),
            "bv" => Ok(CodecChoice::Bv),
            other => Err(format!("unknown codec '{other}' (expected none|gaps|bv)")),
        }
    }
}

impl fmt::Display for CodecChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Extent tag: raw bytes follow.
pub const TAG_RAW: u8 = 0;
/// Extent tag: gap-coded adjacency data follows.
pub const TAG_GAPS: u8 = 1;
/// Blob frame tag: RLE+LZ coded bytes follow. No extent carries it.
pub const TAG_BLOCK: u8 = 2;
/// Extent tag: BV-coded adjacency data follows (format v3).
pub const TAG_BV: u8 = 3;

/// The record structure inside an adjacency extent, which decides how
/// gap coding parses the raw bytes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ExtentKind {
    /// `svertex | count | edges…` fragment stream (VE-BLOCK eblocks,
    /// gather fragments).
    Fragments,
    /// Bare `(id, weight)` pair list (AdjacencyStore runs).
    Edges,
}

/// Encodes one adjacency-structured extent under `choice`, returning the
/// tagged physical bytes to store. Must not be called with
/// [`CodecChoice::None`] — the raw, untagged path belongs to the caller.
///
/// The choice's coder competes with raw bytes and the smaller wins (raw
/// on a tie), so incompressible extents never grow past one tag byte.
pub fn encode_extent(choice: CodecChoice, kind: ExtentKind, raw: &[u8]) -> Vec<u8> {
    debug_assert!(!choice.is_none(), "None bypasses extent framing");
    let (tag, coded) = match (choice, kind) {
        (CodecChoice::Gaps, ExtentKind::Fragments) => {
            (TAG_GAPS, gaps::fragments_from_raw(raw).ok())
        }
        (CodecChoice::Gaps, ExtentKind::Edges) => (TAG_GAPS, gaps::edges_from_raw(raw).ok()),
        (CodecChoice::Bv, ExtentKind::Fragments) => (TAG_BV, bv::fragments_from_raw(raw).ok()),
        (CodecChoice::Bv, ExtentKind::Edges) => (TAG_BV, bv::edges_from_raw(raw).ok()),
        (CodecChoice::None, _) => (TAG_RAW, None),
    };
    let (tag, best) = match coded.as_deref() {
        Some(c) if c.len() < raw.len() => (tag, c),
        _ => (TAG_RAW, raw),
    };
    let mut out = Vec::with_capacity(best.len() + 1);
    out.push(tag);
    out.extend_from_slice(best);
    out
}

/// Decodes an extent produced by [`encode_extent`] back into its raw
/// `logical_len` bytes. Coded fragment streams go through the column
/// decoder ([`decode_fragments`]) and are serialized back to raw bytes.
pub fn decode_extent(
    kind: ExtentKind,
    coded: &[u8],
    logical_len: usize,
) -> Result<Vec<u8>, CodecError> {
    let (&tag, body) = coded.split_first().ok_or(CodecError::Truncated)?;
    let raw = match (tag, kind) {
        (TAG_RAW, _) => body.to_vec(),
        (TAG_GAPS, ExtentKind::Fragments) => gaps::raw_from_fragments(body)?,
        (TAG_GAPS, ExtentKind::Edges) => gaps::raw_from_edges(body)?,
        (TAG_BV, ExtentKind::Fragments) => bv::raw_from_fragments(body)?,
        (TAG_BV, ExtentKind::Edges) => bv::raw_from_edges(body)?,
        _ => return Err(CodecError::Corrupt("unknown extent tag")),
    };
    if raw.len() != logical_len {
        return Err(CodecError::LengthMismatch {
            expected: logical_len,
            got: raw.len(),
        });
    }
    Ok(raw)
}

/// Decodes an [`ExtentKind::Fragments`] extent of any tag straight into
/// `out`'s columns: gaps and bv bodies decode into them directly, raw
/// bodies are parsed into them. The stream the columns describe
/// must be exactly `logical_len` bytes. On error `out` is left empty.
pub fn decode_fragments(
    coded: &[u8],
    logical_len: usize,
    out: &mut Frags,
) -> Result<(), CodecError> {
    let decoded = decode_fragments_tagged(coded, logical_len, out);
    if decoded.is_err() {
        out.clear();
    }
    decoded
}

fn decode_fragments_tagged(
    coded: &[u8],
    logical_len: usize,
    out: &mut Frags,
) -> Result<(), CodecError> {
    let (&tag, body) = coded.split_first().ok_or(CodecError::Truncated)?;
    match tag {
        TAG_RAW => {
            if body.len() != logical_len {
                return Err(CodecError::LengthMismatch {
                    expected: logical_len,
                    got: body.len(),
                });
            }
            out.parse_raw(body)?;
        }
        TAG_GAPS => gaps::decode_fragments(body, out)?,
        TAG_BV => bv::decode_fragments(body, out)?,
        _ => return Err(CodecError::Corrupt("unknown extent tag")),
    }
    if out.raw_len() != logical_len {
        return Err(CodecError::LengthMismatch {
            expected: logical_len,
            got: out.raw_len(),
        });
    }
    Ok(())
}

/// Encodes a self-describing blob frame:
/// `tag u8 | logical varint | payload_len varint | payload`.
///
/// Blobs have no adjacency structure, so gaps never applies; under
/// [`CodecChoice::Gaps`] the payload stays raw (only framed), while
/// [`CodecChoice::Bv`] hands blobs to the block codec — spills and
/// checkpoints are a real share of physical bytes and BV is meant to be
/// the everything-tightened tier. Must not be called with
/// [`CodecChoice::None`].
pub fn encode_blob_frame(choice: CodecChoice, raw: &[u8]) -> Vec<u8> {
    debug_assert!(!choice.is_none(), "None bypasses blob framing");
    let block_coded = (choice == CodecChoice::Bv).then(|| block::compress(raw));
    let (tag, payload): (u8, &[u8]) = match block_coded.as_deref() {
        Some(b) if b.len() < raw.len() => (TAG_BLOCK, b),
        _ => (TAG_RAW, raw),
    };
    let mut out = Vec::with_capacity(payload.len() + 12);
    out.push(tag);
    varint::write_u64(&mut out, raw.len() as u64);
    varint::write_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    out
}

/// Decodes one blob frame at `*pos`, advancing past it; returns the raw
/// payload bytes.
pub fn decode_blob_frame(buf: &[u8], pos: &mut usize) -> Result<Vec<u8>, CodecError> {
    let tag = *buf.get(*pos).ok_or(CodecError::Truncated)?;
    *pos += 1;
    let logical = varint::read_u64(buf, pos)? as usize;
    let payload_len = varint::read_u64(buf, pos)? as usize;
    if payload_len > buf.len() - *pos {
        return Err(CodecError::Truncated);
    }
    let payload = &buf[*pos..*pos + payload_len];
    *pos += payload_len;
    match tag {
        TAG_RAW if payload.len() == logical => Ok(payload.to_vec()),
        TAG_RAW => Err(CodecError::LengthMismatch {
            expected: logical,
            got: payload.len(),
        }),
        TAG_BLOCK => block::decompress(payload, logical),
        _ => Err(CodecError::Corrupt("unknown blob frame tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw_edges(n: u32) -> Vec<u8> {
        let mut raw = Vec::new();
        for i in 0..n {
            raw.extend_from_slice(&(10 + 2 * i).to_le_bytes());
            raw.extend_from_slice(&1.0f32.to_le_bytes());
        }
        raw
    }

    const CODED: [CodecChoice; 2] = [CodecChoice::Gaps, CodecChoice::Bv];

    #[test]
    fn choice_parses_and_labels() {
        for c in CodecChoice::ALL {
            assert_eq!(c.label().parse::<CodecChoice>().unwrap(), c);
        }
        for retired in ["zstd", "block", "auto"] {
            let err = retired.parse::<CodecChoice>().unwrap_err();
            assert!(err.contains("expected none|gaps|bv"), "{err}");
        }
        assert_eq!(CodecChoice::default(), CodecChoice::None);
    }

    #[test]
    fn extent_roundtrips_all_choices_and_kinds() {
        let edges = raw_edges(200);
        let mut frags = Vec::new();
        frags.extend_from_slice(&3u32.to_le_bytes());
        frags.extend_from_slice(&200u32.to_le_bytes());
        frags.extend_from_slice(&edges);
        for choice in CODED {
            for (kind, raw) in [(ExtentKind::Edges, &edges), (ExtentKind::Fragments, &frags)] {
                let coded = encode_extent(choice, kind, raw);
                assert_eq!(
                    &decode_extent(kind, &coded, raw.len()).unwrap(),
                    raw,
                    "{choice:?}/{kind:?}"
                );
            }
        }
    }

    #[test]
    fn gaps_extent_beats_raw_on_sorted_edges() {
        let raw = raw_edges(1000);
        let coded = encode_extent(CodecChoice::Gaps, ExtentKind::Edges, &raw);
        assert!(
            coded.len() * 3 < raw.len(),
            "{} vs {}",
            coded.len(),
            raw.len()
        );
        assert_eq!(coded[0], TAG_GAPS);
    }

    #[test]
    fn empty_extent_roundtrips() {
        for choice in CODED {
            let coded = encode_extent(choice, ExtentKind::Edges, &[]);
            assert_eq!(decode_extent(ExtentKind::Edges, &coded, 0).unwrap(), vec![]);
        }
    }

    #[test]
    fn bv_extent_beats_gaps_on_sorted_edges() {
        // The tier's reason to exist, at the extent level: bit-granular
        // codes under the same tag framing.
        let raw = raw_edges(1000);
        let gaps = encode_extent(CodecChoice::Gaps, ExtentKind::Edges, &raw);
        let bv = encode_extent(CodecChoice::Bv, ExtentKind::Edges, &raw);
        assert_eq!(bv[0], TAG_BV);
        assert!(
            bv.len() < gaps.len(),
            "bv {} vs gaps {}",
            bv.len(),
            gaps.len()
        );
        assert_eq!(
            decode_extent(ExtentKind::Edges, &bv, raw.len()).unwrap(),
            raw
        );
    }

    #[test]
    fn block_tagged_extents_are_rejected() {
        // No writer emits them; a stored one is corruption, typed.
        let raw = vec![7u8; 64];
        let mut coded = vec![TAG_BLOCK];
        coded.extend(block::compress(&raw));
        for kind in [ExtentKind::Edges, ExtentKind::Fragments] {
            assert_eq!(
                decode_extent(kind, &coded, raw.len()),
                Err(CodecError::Corrupt("unknown extent tag"))
            );
        }
        let mut cols = Frags::default();
        assert!(decode_fragments(&coded, raw.len(), &mut cols).is_err());
    }

    #[test]
    fn bv_blob_frames_use_block_codec() {
        let a = vec![7u8; 4096];
        let framed = encode_blob_frame(CodecChoice::Bv, &a);
        assert!(framed.len() < 64, "{}", framed.len());
        assert_eq!(framed[0], TAG_BLOCK);
        let mut pos = 0;
        assert_eq!(decode_blob_frame(&framed, &mut pos).unwrap(), a);
    }

    #[test]
    fn incompressible_extent_falls_back_to_raw() {
        // Not a valid edge-list length and with no byte structure, so the
        // coder loses to raw.
        let raw = vec![0xA7u8, 0x13, 0x55];
        for choice in CODED {
            let coded = encode_extent(choice, ExtentKind::Edges, &raw);
            assert_eq!(coded[0], TAG_RAW);
            assert_eq!(decode_extent(ExtentKind::Edges, &coded, 3).unwrap(), raw);
        }
    }

    #[test]
    fn blob_frames_roundtrip_and_concatenate() {
        let a = vec![7u8; 4096];
        let b: Vec<u8> = (0..255u8).collect();
        for choice in CODED {
            let mut stream = encode_blob_frame(choice, &a);
            stream.extend(encode_blob_frame(choice, &b));
            let mut pos = 0;
            assert_eq!(decode_blob_frame(&stream, &mut pos).unwrap(), a);
            assert_eq!(decode_blob_frame(&stream, &mut pos).unwrap(), b);
            assert_eq!(pos, stream.len());
        }
    }

    #[test]
    fn blob_frame_truncation_errors() {
        let frame = encode_blob_frame(CodecChoice::Bv, &[1u8; 100]);
        let mut pos = 0;
        assert!(decode_blob_frame(&frame[..frame.len() - 1], &mut pos).is_err());
        // A corrupt logical length of 2^40 must not size any allocation.
        for tag in [TAG_RAW, TAG_BLOCK] {
            let mut frame = vec![tag];
            varint::write_u64(&mut frame, 1 << 40);
            varint::write_u64(&mut frame, 0);
            let mut pos = 0;
            assert!(decode_blob_frame(&frame, &mut pos).is_err(), "tag {tag}");
        }
    }
}

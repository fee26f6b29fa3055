//! Length-framed bit streams.
//!
//! When a node must ship a payload larger than one message, the payload is
//! cut into bandwidth-sized chunks sent over consecutive rounds on the same
//! link. Concatenating received chunks reproduces the sender's bit stream
//! exactly (messages carry their bit length), so a simple 32-bit length
//! header per payload suffices for reassembly — no padding, no sentinels.

use cliquesim::{BitString, DecodeError};

/// Width of the per-payload length header in bits.
pub const LEN_HEADER_BITS: usize = 32;

/// Frame one payload: `len:32 || payload`.
pub fn frame(payload: &BitString) -> BitString {
    let mut out = BitString::with_capacity(LEN_HEADER_BITS + payload.len());
    out.push_uint(payload.len() as u64, LEN_HEADER_BITS);
    out.extend_from(payload);
    out
}

/// Frame a sequence of payloads into one stream.
pub fn frame_all<'a>(payloads: impl IntoIterator<Item = &'a BitString>) -> BitString {
    let mut out = BitString::new();
    for p in payloads {
        out.push_uint(p.len() as u64, LEN_HEADER_BITS);
        out.extend_from(p);
    }
    out
}

/// Parse a stream of frames back into payloads. Rejects malformed streams
/// (truncated header or payload).
pub fn parse_frames(stream: &BitString) -> Result<Vec<BitString>, DecodeError> {
    frame_ranges(stream, (0, stream.len()))
        .map(|payload| payload.map(|range| copy_range(stream, range)))
        .collect()
}

/// The payload ranges of the frames that fill bits `a..b` of `bits`, in
/// order. A malformed frame ends the walk with its error, positioned
/// within the region as [`parse_frames`] reports it on a copy of the
/// region.
pub(crate) fn frame_ranges(
    bits: &BitString,
    (a, b): (usize, usize),
) -> impl Iterator<Item = Result<(usize, usize), DecodeError>> + '_ {
    let mut pos = Some(a);
    std::iter::from_fn(move || {
        let at = pos.filter(|&at| at < b)?;
        let frame = frame_at(bits, (a, b), at);
        pos = frame.ok().map(|(_, end)| end);
        Some(frame)
    })
}

/// The payload range of the one frame that fills bits `a..b` of `bits`,
/// checked as a reader over a copy of the region would check it: a full
/// header, a payload as long as it announces, and nothing after it.
pub(crate) fn unframe(
    bits: &BitString,
    (a, b): (usize, usize),
) -> Result<(usize, usize), DecodeError> {
    let (start, end) = frame_at(bits, (a, b), a)?;
    if end != b {
        return Err(short((a, b), end, 0));
    }
    Ok((start, end))
}

/// The payload range of the frame whose header sits at `at` in the region
/// `a..b` of `bits`.
fn frame_at(
    bits: &BitString,
    (a, b): (usize, usize),
    at: usize,
) -> Result<(usize, usize), DecodeError> {
    if b - at < LEN_HEADER_BITS {
        return Err(short((a, b), at, LEN_HEADER_BITS));
    }
    let mut r = bits.reader();
    r.skip(at)?;
    let len = r.read_uint(LEN_HEADER_BITS)? as usize;
    let start = at + LEN_HEADER_BITS;
    if b - start < len {
        return Err(short((a, b), start, len));
    }
    Ok((start, start + len))
}

/// The error for `wanted` bits missing at `at` in the region `a..b`,
/// positioned within the region, as a reader over a copy of the region
/// reports it.
pub(crate) fn short((a, b): (usize, usize), at: usize, wanted: usize) -> DecodeError {
    DecodeError {
        at: at - a,
        wanted,
        len: b - a,
    }
}

/// Bits `a..b` of `bits` as a string of their own.
pub(crate) fn copy_range(bits: &BitString, (a, b): (usize, usize)) -> BitString {
    let mut out = BitString::new();
    out.extend_from_range(bits, a, b - a)
        .expect("callers pass ranges inside the string");
    out
}

/// Rounds needed to ship `stream_bits` over one link at `bandwidth` bits per
/// round.
pub fn rounds_for(stream_bits: usize, bandwidth: usize) -> usize {
    stream_bits.div_ceil(bandwidth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn frame_roundtrip() {
        let p = BitString::from_bits([true, false, true, true]);
        let f = frame(&p);
        assert_eq!(f.len(), LEN_HEADER_BITS + 4);
        assert_eq!(parse_frames(&f).unwrap(), vec![p]);
    }

    #[test]
    fn empty_stream_parses_to_nothing() {
        assert_eq!(
            parse_frames(&BitString::new()).unwrap(),
            Vec::<BitString>::new()
        );
    }

    #[test]
    fn truncated_stream_rejected() {
        let p = BitString::from_bits([true; 10]);
        let f = frame(&p);
        let cut = f.reader().read_bits(f.len() - 2).unwrap();
        assert!(parse_frames(&cut).is_err());
    }

    #[test]
    fn rounds_for_examples() {
        assert_eq!(rounds_for(0, 5), 0);
        assert_eq!(rounds_for(5, 5), 1);
        assert_eq!(rounds_for(6, 5), 2);
    }

    proptest! {
        #[test]
        fn prop_frame_all_roundtrip(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<bool>(), 0..40), 0..6)
        ) {
            let ps: Vec<BitString> = payloads.into_iter().map(BitString::from_bits).collect();
            let stream = frame_all(ps.iter());
            prop_assert_eq!(parse_frames(&stream).unwrap(), ps);
        }
    }
}

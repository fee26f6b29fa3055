//! Bit-exact message payloads.
//!
//! The congested clique model measures bandwidth in *bits*: each ordered pair
//! of nodes may exchange at most `O(log n)` bits per round. Byte-oriented
//! buffers would make it too easy to silently leak a factor of 8, so every
//! message in the simulator is a [`BitString`] and the engine enforces the
//! bound at bit granularity.
//!
//! Most messages are one `O(log n)`-bit field, so a string of at most 64
//! bits keeps its one word inline, with no heap allocation: cloning it, or
//! filling a fresh delivery slot with it, allocates nothing, and reading it
//! follows no pointer. A string that grows past 64 bits moves to the heap
//! and stays there, so a reused slot keeps its allocation when cleared.
//! [`BitReader::read_uint`], [`BitString::as_uint`] and [`BitString::get`]
//! test the inline case first: one-word payloads are what almost every
//! per-message loop reads (a broadcast gossip reads nothing else), so the
//! common case takes the first branch and loads nothing through a pointer.

use std::fmt;
use std::hash::{Hash, Hasher};

/// A growable, bit-addressed string of bits.
///
/// Bits are stored little-endian within `u64` words: bit `i` lives in word
/// `i / 64` at position `i % 64`. A string of at most 64 bits may hold its
/// word inline (see the module docs). All operations keep the unused tail
/// of the last word zeroed, so equality and hashing of the words agree
/// with logical equality of the bit sequences, inline or not.
pub struct BitString {
    len: usize,
    store: Store,
}

/// Where a string's words live.
enum Store {
    /// At most 64 bits, in one word.
    Inline(u64),
    /// Exactly `⌈len/64⌉` words, for any length: a string keeps its heap
    /// words when it shrinks back to 64 bits or fewer.
    Heap(Vec<u64>),
}

/// The empty bit string with a `'static` lifetime, so engine internals can
/// hand out `&BitString` for "no message" slots that have no physical
/// storage (the delivery buffer's misses and self-slots).
pub(crate) static EMPTY: BitString = BitString {
    len: 0,
    store: Store::Inline(0),
};

impl BitString {
    /// The empty bit string. In the model, sending an empty message is the
    /// same as sending no message at all.
    #[inline]
    pub fn new() -> Self {
        Self {
            len: 0,
            store: Store::Inline(0),
        }
    }

    /// An empty bit string with room for `bits` bits pre-allocated (none
    /// for 64 bits or fewer, which fit inline).
    pub fn with_capacity(bits: usize) -> Self {
        let mut s = Self::new();
        s.reserve(bits);
        s
    }

    /// Build from an iterator of booleans, preserving order.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut s = Self::new();
        for b in bits {
            s.push(b);
        }
        s
    }

    /// Reset to the empty string, retaining any heap allocation.
    ///
    /// The engine's double-buffered delivery clears and refills the same
    /// message slots every round; keeping capacity means a slot refilled in
    /// place (a broadcast, [`crate::Outbox::send_with`]) allocates nothing
    /// in steady state.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
        match &mut self.store {
            Store::Inline(w) => *w = 0,
            Store::Heap(words) => words.clear(),
        }
    }

    /// A bit string of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        let store = if len <= 64 {
            Store::Inline(0)
        } else {
            Store::Heap(vec![0; len.div_ceil(64)])
        };
        Self { len, store }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the string holds no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `⌈len/64⌉` words holding the bits.
    #[inline]
    fn words(&self) -> &[u64] {
        match &self.store {
            Store::Inline(w) => &std::slice::from_ref(w)[..self.len.div_ceil(64)],
            Store::Heap(words) => words,
        }
    }

    /// [`BitString::words`], mutably.
    fn words_mut(&mut self) -> &mut [u64] {
        let used = self.len.div_ceil(64);
        match &mut self.store {
            Store::Inline(w) => &mut std::slice::from_mut(w)[..used],
            Store::Heap(words) => words,
        }
    }

    /// The first word (zero for the empty string).
    #[inline]
    fn first_word(&self) -> u64 {
        match &self.store {
            Store::Inline(w) => *w,
            Store::Heap(words) => words.first().copied().unwrap_or(0),
        }
    }

    /// The heap words. An inline string moves to the heap first, into
    /// exactly the words it needs after `extra` more bits.
    fn spill(&mut self, extra: usize) -> &mut Vec<u64> {
        if let Store::Inline(w) = self.store {
            let mut words = Vec::with_capacity((self.len + extra).div_ceil(64));
            words.extend((self.len > 0).then_some(w));
            self.store = Store::Heap(words);
        }
        match &mut self.store {
            Store::Heap(words) => words,
            Store::Inline(_) => unreachable!("moved to the heap above"),
        }
    }

    /// Make room for `extra` more bits; a string that stays within 64
    /// bits needs none.
    fn reserve(&mut self, extra: usize) {
        let needed = (self.len + extra).div_ceil(64);
        if needed > 1 {
            let words = self.spill(extra);
            words.reserve(needed - words.len());
        }
    }

    /// Zero the bits at and above `len` in the last word.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        match &mut self.store {
            Store::Inline(w) if self.len < 64 => *w &= (1u64 << self.len) - 1,
            Store::Heap(words) if tail != 0 => {
                if let Some(last) = words.last_mut() {
                    *last &= (1u64 << tail) - 1;
                }
            }
            _ => {}
        }
    }

    /// Read bit `i`. Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        let w = match &self.store {
            Store::Inline(w) => *w,
            Store::Heap(words) => words[i / 64],
        };
        (w >> (i % 64)) & 1 == 1
    }

    /// Set bit `i`. Panics if out of range.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        let w = &mut self.words_mut()[i / 64];
        if value {
            *w |= 1u64 << (i % 64);
        } else {
            *w &= !(1u64 << (i % 64));
        }
    }

    /// Append a single bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        self.append_word(u64::from(bit), 1);
    }

    /// Append the low `width` bits of `value`, least-significant bit first.
    ///
    /// Panics if `width > 64` or if `value` has bits above `width` set; the
    /// latter catches encoding bugs where a field silently overflows its
    /// allotted width (which in a bandwidth-bounded model is data loss).
    #[inline]
    pub fn push_uint(&mut self, value: u64, width: usize) {
        assert!(width <= 64, "width {width} exceeds u64");
        if width < 64 {
            assert!(
                value < (1u64 << width),
                "value {value} does not fit in {width} bits"
            );
        }
        if width == 0 {
            return;
        }
        // The assert above guarantees `value` has no bits at or above
        // `width`, which `append_word` needs.
        self.append_word(value, width);
    }

    /// Word-level append of the low `width` bits of `value`, `1 ≤ width ≤
    /// 64`. `value` must have no bits at or above `width`, which preserves
    /// the zero-tail invariant.
    #[inline]
    fn append_word(&mut self, value: u64, width: usize) {
        let shift = self.len % 64;
        // Only the move to the heap calls out: a heap append stays inline
        // in the caller's crate.
        let words = match &mut self.store {
            Store::Inline(w) if self.len + width <= 64 => {
                *w |= value << shift;
                self.len += width;
                return;
            }
            Store::Heap(words) => words,
            Store::Inline(_) => self.spill(width),
        };
        if shift == 0 {
            words.push(value);
        } else {
            match words.last_mut() {
                Some(w) => *w |= value << shift,
                None => unreachable!("shift != 0 implies a non-empty word vector"),
            }
            if shift + width > 64 {
                words.push(value >> (64 - shift));
            }
        }
        self.len += width;
    }

    /// The `width` bits at `pos`, `1 ≤ width ≤ 64`, `pos + width ≤ len`.
    #[inline]
    fn field(&self, pos: usize, width: usize) -> u64 {
        match &self.store {
            // As in `read_uint`: shifting the field to the top and back
            // clears the bits above it.
            Store::Inline(w) => (w << (64 - pos - width)) >> (64 - width),
            Store::Heap(words) => field(words, pos, width),
        }
    }

    /// Overwrite the `width` bits at `pos` with `value`, `1 ≤ width ≤ 64`,
    /// `pos + width ≤ len`, `value` zero above `width`.
    #[inline]
    fn put(&mut self, pos: usize, value: u64, width: usize) {
        match &mut self.store {
            Store::Inline(w) => *w = (*w & !(low_mask(width) << pos)) | value << pos,
            Store::Heap(words) => put(words, pos, value, width),
        }
    }

    /// Append all bits of another string (word-level; hot path for the
    /// routing layer's stream assembly). A string of at most 64 bits is
    /// appended as one word, inline in the caller's crate.
    #[inline]
    pub fn extend_from(&mut self, other: &BitString) {
        if other.len <= 64 {
            if other.len > 0 {
                self.append_word(other.first_word(), other.len);
            }
        } else {
            self.extend_words(other, 0, other.len);
        }
    }

    /// Append bits `start..start + len` of `src`, `len > 64`, in range.
    fn extend_words(&mut self, src: &BitString, start: usize, len: usize) {
        let at = self.len;
        let words = self.spill(len);
        words.resize((at + len).div_ceil(64), 0);
        copy_bits(words, at, src.words(), start, len);
        self.len = at + len;
    }

    /// Append bits `start..start + len` of `src`, a word at a time: the
    /// same bits as `extend_from(&read_bits)` at `start`, without the
    /// intermediate string. Fails, leaving `self` unchanged, if the range
    /// runs past the end of `src`. At most 64 bits are appended as one
    /// word, inline in the caller's crate.
    #[inline]
    pub fn extend_from_range(
        &mut self,
        src: &BitString,
        start: usize,
        len: usize,
    ) -> Result<(), DecodeError> {
        if start > src.len || src.len - start < len {
            return Err(range_error(src, start, len));
        }
        if len > 64 {
            self.extend_words(src, start, len);
        } else if len > 0 {
            self.append_word(src.field(start, len), len);
        }
        Ok(())
    }

    /// Overwrite bits `at..at + len` of `self` with bits `start..start +
    /// len` of `src`, leaving every other bit as it was: the positioned
    /// write that fills a string pre-sized with [`BitString::zeros`] in
    /// any order. Fails, leaving `self` unchanged, if the source range
    /// runs past the end of `src`. At most 64 bits are written as one
    /// word, inline in the caller's crate.
    ///
    /// # Panics
    /// If `at + len` exceeds `self.len()`: a positioned write never grows
    /// its target.
    #[inline(always)]
    pub fn write_range(
        &mut self,
        at: usize,
        src: &BitString,
        start: usize,
        len: usize,
    ) -> Result<(), DecodeError> {
        if start > src.len || src.len - start < len {
            return Err(range_error(src, start, len));
        }
        if at > self.len || self.len - at < len {
            write_overrun(at, len, self.len);
        }
        if len > 64 {
            self.write_words(at, src, start, len);
        } else if len > 0 {
            self.put(at, src.field(start, len), len);
        }
        Ok(())
    }

    /// [`BitString::write_range`] for `len` past 64 bits, in range.
    fn write_words(&mut self, at: usize, src: &BitString, start: usize, len: usize) {
        copy_bits(self.words_mut(), at, src.words(), start, len);
    }

    /// Overwrite `self` with the contents of `other`, retaining `self`'s
    /// heap allocation if it has one (word-level copy).
    ///
    /// This is the delivery buffer's broadcast primitive: cloning a
    /// payload into a retained slot must not allocate in steady state, so
    /// `slot.copy_from(msg)` replaces `slot = msg.clone()` on the hot path.
    #[inline]
    pub fn copy_from(&mut self, other: &BitString) {
        match &mut self.store {
            Store::Heap(words) => {
                words.clear();
                words.extend_from_slice(other.words());
                self.len = other.len;
            }
            Store::Inline(_) => *self = other.clone(),
        }
    }

    /// XOR another string of the same length into `self`, one word at a time.
    ///
    /// Both operands keep the zero-tail invariant, so the result does too.
    /// Panics if the lengths differ — in a bandwidth-bounded model a silent
    /// length mismatch is data loss, not a convenience.
    pub fn xor_words(&mut self, other: &BitString) {
        assert_eq!(
            self.len, other.len,
            "xor_words requires equal lengths ({} vs {})",
            self.len, other.len
        );
        for (w, o) in self.words_mut().iter_mut().zip(other.words()) {
            *w ^= *o;
        }
    }

    /// Flip every bit in place (word-level), masking the tail word to keep
    /// the zero-tail invariant.
    pub fn invert(&mut self) {
        for w in self.words_mut() {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Shorten to the first `len` bits; a no-op if already that short.
    ///
    /// Keeps the zero-tail invariant by masking the new last word, so
    /// equality/hashing stay consistent (the fault layer uses this to model
    /// links that lose the tail of a frame).
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        self.len = len;
        if let Store::Heap(words) = &mut self.store {
            words.truncate(len.div_ceil(64));
        }
        self.mask_tail();
    }

    /// Concatenation convenience.
    pub fn concat(mut self, other: &BitString) -> Self {
        self.extend_from(other);
        self
    }

    /// Iterate over bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// The minimum number of bits needed to encode values in `0..domain`,
    /// i.e. `ceil(log2(domain))`, with the convention that a singleton
    /// domain still needs one bit (so a message is never zero-width).
    #[inline]
    pub fn width_for(domain: usize) -> usize {
        match domain {
            0..=2 => 1,
            d => (usize::BITS - (d - 1).leading_zeros()) as usize,
        }
    }

    /// Interpret the whole string as a little-endian unsigned integer.
    /// Panics if longer than 64 bits.
    #[inline]
    pub fn as_uint(&self) -> u64 {
        assert!(
            self.len <= 64,
            "bit string of {} bits does not fit in u64",
            self.len
        );
        // Bits past `len` are zero by invariant, so the first word is exact.
        self.first_word()
    }

    /// A reader positioned at the first bit.
    #[inline]
    pub fn reader(&self) -> BitReader<'_> {
        BitReader { bits: self, pos: 0 }
    }
}

/// The low `width` bits set, `1 ≤ width ≤ 64`.
#[inline]
fn low_mask(width: usize) -> u64 {
    !0 >> (64 - width)
}

/// The `width` bits of `words` at `pos`, `1 ≤ width ≤ 64`, in range.
#[inline]
fn field(words: &[u64], pos: usize, width: usize) -> u64 {
    let (i, off) = (pos / 64, pos % 64);
    let mut v = words[i] >> off;
    if off + width > 64 {
        v |= words[i + 1] << (64 - off);
    }
    v & low_mask(width)
}

/// Overwrite the `width` bits of `words` at `pos` with `value`, which is
/// zero above `width`; `1 ≤ width ≤ 64`, in range.
#[inline]
fn put(words: &mut [u64], pos: usize, value: u64, width: usize) {
    let (i, off) = (pos / 64, pos % 64);
    let mask = low_mask(width);
    words[i] = (words[i] & !(mask << off)) | value << off;
    if off + width > 64 {
        let done = 64 - off;
        words[i + 1] = (words[i + 1] & !(mask >> done)) | value >> done;
    }
}

/// Overwrite bits `at..at + len` of `dst` with bits `start..start + len`
/// of `src`, a word at a time, leaving every other bit of `dst` as it was.
/// Both ranges lie inside their slices.
fn copy_bits(dst: &mut [u64], at: usize, src: &[u64], start: usize, len: usize) {
    let (d, s, full) = (at / 64, start / 64, len / 64);
    let (doff, soff) = (at % 64, start % 64);
    if doff == 0 && soff == 0 {
        dst[d..d + full].copy_from_slice(&src[s..s + full]);
    } else {
        for k in 0..full {
            let lo = src[s + k] >> soff;
            let v = if soff == 0 {
                lo
            } else {
                lo | src[s + k + 1] << (64 - soff)
            };
            if doff == 0 {
                dst[d + k] = v;
            } else {
                let keep = low_mask(doff);
                dst[d + k] = (dst[d + k] & keep) | v << doff;
                dst[d + k + 1] = (dst[d + k + 1] & !keep) | v >> (64 - doff);
            }
        }
    }
    let tail = len % 64;
    if tail > 0 {
        let v = field(src, start + 64 * full, tail);
        put(dst, at + 64 * full, v, tail);
    }
}

/// The panic for a positioned write of `len` bits at `at` into a string
/// of `target` bits: cold and out of line, so the write stays small
/// enough to inline.
#[cold]
#[inline(never)]
fn write_overrun(at: usize, len: usize, target: usize) -> ! {
    panic!("write of {len} bits at {at} runs past the end ({target})")
}

/// The error for a range of `len` bits at `start` that runs past `src`.
#[cold]
#[inline(never)]
fn range_error(src: &BitString, start: usize, len: usize) -> DecodeError {
    DecodeError {
        at: start,
        wanted: len,
        len: src.len,
    }
}

impl Default for BitString {
    fn default() -> Self {
        Self::new()
    }
}

/// A string of at most 64 bits clones inline, allocating nothing.
impl Clone for BitString {
    #[inline]
    fn clone(&self) -> Self {
        let store = match &self.store {
            Store::Heap(words) if self.len > 64 => Store::Heap(words.clone()),
            _ => Store::Inline(self.first_word()),
        };
        Self {
            len: self.len,
            store,
        }
    }
}

/// Equal bits are equal strings, whether their words are inline or not.
impl PartialEq for BitString {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}

impl Eq for BitString {}

/// Hashes the length, then the words, so equal strings hash alike.
impl Hash for BitString {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        self.words().hash(state);
    }
}

impl fmt::Debug for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitString[{}]\"", self.len)?;
        // Long payloads are truncated: debug output is for humans.
        for i in 0..self.len.min(96) {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        if self.len > 96 {
            write!(f, "…")?;
        }
        write!(f, "\"")
    }
}

impl FromIterator<bool> for BitString {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Self::from_bits(iter)
    }
}

/// Sequential decoder over a [`BitString`].
///
/// Reads must consume exactly the encoded layout; all methods return
/// [`DecodeError`] instead of panicking so that *verifiers* (which receive
/// adversarial certificates) can reject malformed inputs gracefully.
#[derive(Clone)]
pub struct BitReader<'a> {
    bits: &'a BitString,
    pos: usize,
}

/// Error produced when a [`BitReader`] runs past the end of its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// Position at which the read was attempted.
    pub at: usize,
    /// Number of bits requested.
    pub wanted: usize,
    /// Total length of the underlying string.
    pub len: usize,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bit decode error: wanted {} bits at position {} of {}",
            self.wanted, self.at, self.len
        )
    }
}

impl std::error::Error for DecodeError {}

impl<'a> BitReader<'a> {
    /// Bits not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }

    /// Current read position.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Read one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, DecodeError> {
        if self.pos >= self.bits.len() {
            return Err(self.short(1));
        }
        let b = self.bits.get(self.pos);
        self.pos += 1;
        Ok(b)
    }

    /// Read `width` bits as a little-endian unsigned integer.
    #[inline]
    pub fn read_uint(&mut self, width: usize) -> Result<u64, DecodeError> {
        assert!(width <= 64, "width {width} exceeds u64");
        if self.remaining() < width {
            return Err(self.short(width));
        }
        if width == 0 {
            return Ok(0);
        }
        let v = match &self.bits.store {
            // `pos + width ≤ len ≤ 64` with `width ≥ 1`. Shifting the field
            // to the top and back clears the bits above it without the
            // heap arm's mask, so the arms share no tail and the one-word
            // read compiles to straight-line code, with no extra jump.
            Store::Inline(w) => {
                let v = (w << (64 - self.pos - width)) >> (64 - width);
                self.pos += width;
                return Ok(v);
            }
            // Word-level read across at most two words.
            Store::Heap(words) => {
                let (base, off) = (self.pos / 64, self.pos % 64);
                let lo = words[base] >> off;
                if off == 0 {
                    lo
                } else {
                    lo | words.get(base + 1).copied().unwrap_or(0) << (64 - off)
                }
            }
        };
        self.pos += width;
        Ok(if width == 64 {
            v
        } else {
            v & ((1u64 << width) - 1)
        })
    }

    /// Advance the cursor by `len` bits without materialising them (O(1)).
    #[inline]
    pub fn skip(&mut self, len: usize) -> Result<(), DecodeError> {
        if self.remaining() < len {
            return Err(self.short(len));
        }
        self.pos += len;
        Ok(())
    }

    /// Read `len` bits as a fresh [`BitString`] (word-level), for callers
    /// that keep the result; [`BitReader::read_into`] reuses a buffer.
    #[inline]
    pub fn read_bits(&mut self, len: usize) -> Result<BitString, DecodeError> {
        let mut out = BitString::new();
        self.read_into(len, &mut out)?;
        Ok(out)
    }

    /// Read `len` bits into `out`, replacing its contents but keeping its
    /// allocation: the in-place form of [`BitReader::read_bits`], for
    /// filling a reused message slot (see [`crate::Outbox::send_with`]).
    /// An inline `out` allocates nothing for at most 64 bits and exactly
    /// `⌈len/64⌉` words for more. On error neither the cursor nor `out`
    /// changes. A read of at most 64 bits is one [`BitReader::read_uint`]
    /// and one word append, inline in the caller's crate.
    #[inline]
    pub fn read_into(&mut self, len: usize, out: &mut BitString) -> Result<(), DecodeError> {
        if len <= 64 {
            let v = self.read_uint(len)?;
            out.clear();
            if len > 0 {
                out.append_word(v, len);
            }
            Ok(())
        } else {
            self.read_words_into(len, out)
        }
    }

    /// [`BitReader::read_into`] for `len` past 64 bits.
    fn read_words_into(&mut self, len: usize, out: &mut BitString) -> Result<(), DecodeError> {
        if self.remaining() < len {
            return Err(self.short(len));
        }
        out.clear();
        out.extend_from_range(self.bits, self.pos, len)?;
        self.pos += len;
        Ok(())
    }

    /// Succeeds only if every bit has been consumed; verifiers use this to
    /// reject certificates with trailing garbage.
    #[inline]
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.short(0))
        }
    }

    /// The error for a read of `wanted` bits at the cursor. Out of line
    /// and cold: kept inline, its fields could route a caller's `Ok`
    /// value through the stack in a hot decode loop.
    #[cold]
    #[inline(never)]
    fn short(&self, wanted: usize) -> DecodeError {
        DecodeError {
            at: self.pos,
            wanted,
            len: self.bits.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The heap words' capacity, or `None` for an inline string.
    fn heap_capacity(s: &BitString) -> Option<usize> {
        match &s.store {
            Store::Inline(_) => None,
            Store::Heap(words) => Some(words.capacity()),
        }
    }

    fn hash_of(s: &BitString) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    /// `len` bits of a fixed pattern that sets the first and the last bit.
    fn pattern(len: usize) -> Vec<bool> {
        (0..len).map(|i| i + 1 == len || i % 3 == 0).collect()
    }

    /// The offsets and lengths the range proptests pin: either side of 0,
    /// 64 and 128 bits.
    const BOUNDARIES: [usize; 8] = [0, 1, 63, 64, 65, 128, 129, 130];

    /// A drawn value at most `max`: `BOUNDARIES[pick]` when `pick` names
    /// one that fits, else `raw` reduced into `0..=max`.
    fn boundary((pick, raw): (usize, usize), max: usize) -> usize {
        match BOUNDARIES.get(pick) {
            Some(&b) if b <= max => b,
            _ => raw % (max + 1),
        }
    }

    /// `bits`, padded with a pattern to at least 131 bits when `pick`
    /// names a boundary, so the boundary values fit.
    fn boundary_string(mut bits: Vec<bool>, pick: usize) -> Vec<bool> {
        if pick < BOUNDARIES.len() && bits.len() < 131 {
            bits.extend(pattern(131 - bits.len()));
        }
        bits
    }

    /// `bits` as a fresh string (inline up to 64 bits) or, with `heap`, in
    /// a string that grew past 64 bits and was cleared first.
    fn target(bits: &[bool], heap: bool) -> BitString {
        let fresh = BitString::from_bits(bits.iter().copied());
        if !heap {
            return fresh;
        }
        let mut s = BitString::from_bits(pattern(130));
        s.clear();
        s.extend_from(&fresh);
        s
    }

    #[test]
    #[should_panic(expected = "runs past the end")]
    fn write_range_never_grows_its_target() {
        let src = BitString::from_bits(pattern(10));
        BitString::zeros(70).write_range(65, &src, 0, 6).unwrap();
    }

    #[test]
    fn bit_string_stays_32_bytes() {
        // The delivery `Slot` is a 32-byte-aligned `BitString`.
        assert_eq!(std::mem::size_of::<BitString>(), 32);
    }

    #[test]
    fn lengths_63_64_65_sit_either_side_of_the_inline_limit() {
        for len in [63, 64, 65] {
            let bits = pattern(len);
            let s = BitString::from_bits(bits.iter().copied());
            assert_eq!(heap_capacity(&s).is_none(), len <= 64, "len {len}");
            assert_eq!(s.iter().collect::<Vec<_>>(), bits, "len {len}");
            let mut r = s.reader();
            let head = r.read_uint(len.min(64)).unwrap();
            assert_eq!(
                r.read_uint(len - len.min(64)).unwrap(),
                u64::from(len == 65)
            );
            r.expect_end().unwrap();
            if len <= 64 {
                assert_eq!(s.as_uint(), head, "len {len}");
            }
            let mut z = BitString::zeros(len);
            assert_eq!(heap_capacity(&z).is_none(), len <= 64, "len {len}");
            z.invert();
            assert_eq!(z, BitString::from_bits(vec![true; len]), "len {len}");
        }
    }

    #[test]
    fn every_append_grows_across_64_bits() {
        // Start inline at 60 bits and append 10 by each word-level path.
        let head = pattern(60);
        let tail = pattern(10);
        let src = BitString::from_bits(tail.iter().copied());
        let model: Vec<bool> = head.iter().chain(&tail).copied().collect();
        type Append = fn(&mut BitString, &BitString);
        let appends: [(&str, Append); 5] = [
            ("push", |s, src| src.iter().for_each(|b| s.push(b))),
            ("push_uint", |s, src| s.push_uint(src.as_uint(), src.len())),
            ("extend_from", |s, src| s.extend_from(src)),
            ("extend_from_range", |s, src| {
                s.extend_from_range(src, 0, src.len()).unwrap()
            }),
            ("read_into", |s, src| {
                let mut joined = s.clone();
                joined.extend_from(src);
                joined.reader().read_into(joined.len(), s).unwrap();
            }),
        ];
        for (name, append) in appends {
            let mut s = BitString::from_bits(head.iter().copied());
            assert_eq!(heap_capacity(&s), None, "{name}");
            append(&mut s, &src);
            assert!(heap_capacity(&s).is_some(), "{name}");
            assert_eq!(s.iter().collect::<Vec<_>>(), model, "{name}");
            assert_eq!(s, BitString::from_bits(model.iter().copied()), "{name}");
            assert_eq!(s.words().len(), 2, "{name}");
        }
    }

    #[test]
    fn shrinking_keeps_the_heap_and_regrowing_stays_exact() {
        let long = BitString::from_bits(pattern(150));
        let shrinks: [fn(&mut BitString); 3] =
            [|s| s.truncate(10), |s| s.truncate(64), |s| s.clear()];
        for shrink in shrinks {
            let mut s = long.clone();
            let cap = heap_capacity(&s).expect("150 bits live on the heap");
            shrink(&mut s);
            assert_eq!(heap_capacity(&s), Some(cap), "shrinking keeps the words");
            let kept = s.iter().collect::<Vec<_>>();
            assert_eq!(s, BitString::from_bits(kept.iter().copied()));
            // Grow again, below and then past 64 bits.
            s.push_uint(0b1011, 4);
            let mut model: Vec<bool> = kept
                .iter()
                .copied()
                .chain([true, true, false, true])
                .collect();
            assert_eq!(s, BitString::from_bits(model.iter().copied()));
            s.extend_from(&long);
            model.extend(long.iter());
            assert_eq!(s.iter().collect::<Vec<_>>(), model);
            assert_eq!(s, BitString::from_bits(model.iter().copied()));
        }
    }

    #[test]
    fn clones_of_at_most_64_bits_are_inline() {
        let mut grown = BitString::from_bits(pattern(100));
        let long = grown.clone();
        assert_eq!(heap_capacity(&long), Some(2));
        assert_eq!(long, grown);
        for len in [0, 1, 8, 63, 64] {
            grown.clear();
            grown.extend_from(&BitString::from_bits(pattern(len)));
            assert!(heap_capacity(&grown).is_some());
            let copy = grown.clone();
            assert_eq!(heap_capacity(&copy), None, "len {len}");
            assert_eq!(copy, grown, "len {len}");
        }
    }

    #[test]
    fn equal_bits_are_equal_and_hash_alike_inline_or_heap() {
        // Grown past 64 bits, cleared and refilled with 8: heap words,
        // the same bits as a fresh inline 8-bit string.
        let mut heap = BitString::from_bits(pattern(100));
        heap.clear();
        heap.push_uint(0xA5, 8);
        let mut inline = BitString::new();
        inline.push_uint(0xA5, 8);
        assert!(heap_capacity(&heap).is_some());
        assert_eq!(heap_capacity(&inline), None);
        assert_eq!(heap, inline);
        assert_eq!(hash_of(&heap), hash_of(&inline));
        assert_eq!(heap.as_uint(), inline.as_uint());
        assert_eq!(heap.reader().read_uint(8), inline.reader().read_uint(8));
        // Different bits of the same length still differ.
        inline.set(0, false);
        assert_ne!(heap, inline);
        // The empty string, inline or heap.
        heap.clear();
        assert_eq!(heap, BitString::new());
        assert_eq!(hash_of(&heap), hash_of(&BitString::new()));
    }

    #[test]
    fn empty_string_basics() {
        let s = BitString::new();
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert_eq!(s, BitString::default());
    }

    #[test]
    fn push_and_get_across_word_boundary() {
        let mut s = BitString::new();
        for i in 0..130 {
            s.push(i % 3 == 0);
        }
        assert_eq!(s.len(), 130);
        for i in 0..130 {
            assert_eq!(s.get(i), i % 3 == 0, "bit {i}");
        }
    }

    #[test]
    fn set_flips_bits() {
        let mut s = BitString::zeros(70);
        s.set(0, true);
        s.set(69, true);
        assert!(s.get(0));
        assert!(s.get(69));
        assert!(!s.get(35));
        s.set(0, false);
        assert!(!s.get(0));
    }

    #[test]
    fn uint_roundtrip_simple() {
        let mut s = BitString::new();
        s.push_uint(0b1011, 4);
        s.push_uint(7, 3);
        let mut r = s.reader();
        assert_eq!(r.read_uint(4).unwrap(), 0b1011);
        assert_eq!(r.read_uint(3).unwrap(), 7);
        r.expect_end().unwrap();
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn push_uint_overflow_panics() {
        let mut s = BitString::new();
        s.push_uint(4, 2);
    }

    #[test]
    fn width_for_domains() {
        assert_eq!(BitString::width_for(0), 1);
        assert_eq!(BitString::width_for(1), 1);
        assert_eq!(BitString::width_for(2), 1);
        assert_eq!(BitString::width_for(3), 2);
        assert_eq!(BitString::width_for(4), 2);
        assert_eq!(BitString::width_for(5), 3);
        assert_eq!(BitString::width_for(1024), 10);
        assert_eq!(BitString::width_for(1025), 11);
    }

    #[test]
    fn reader_rejects_overrun() {
        let mut s = BitString::new();
        s.push_uint(3, 2);
        let mut r = s.reader();
        assert_eq!(r.read_uint(2).unwrap(), 3);
        assert!(r.read_bit().is_err());
        assert!(r.read_uint(1).is_err());
    }

    #[test]
    fn skip_is_equivalent_to_discarding_reads() {
        let s = BitString::from_bits((0..200).map(|i| i % 7 < 3));
        let mut a = s.reader();
        let mut b = s.reader();
        a.skip(67).unwrap();
        let _ = b.read_bits(67).unwrap();
        assert_eq!(a.position(), b.position());
        assert_eq!(a.read_bits(70).unwrap(), b.read_bits(70).unwrap());
        let mut c = s.reader();
        assert!(c.skip(201).is_err());
        assert_eq!(c.position(), 0, "failed skip must not move the cursor");
    }

    #[test]
    fn expect_end_detects_trailing_bits() {
        let mut s = BitString::new();
        s.push(true);
        let r = s.reader();
        assert!(r.expect_end().is_err());
    }

    #[test]
    fn extend_concatenates_in_order() {
        let a = BitString::from_bits([true, false, true]);
        let b = BitString::from_bits([false, false]);
        let c = a.clone().concat(&b);
        assert_eq!(c.len(), 5);
        let expect = [true, false, true, false, false];
        for (i, e) in expect.iter().enumerate() {
            assert_eq!(c.get(i), *e);
        }
    }

    #[test]
    fn equality_ignores_capacity() {
        let mut a = BitString::with_capacity(1000);
        a.push(true);
        let b = BitString::from_bits([true]);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn clear_empties_but_keeps_capacity() {
        let mut s = BitString::from_bits((0..200).map(|i| i % 3 == 0));
        let cap = heap_capacity(&s);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(heap_capacity(&s), cap);
        assert_eq!(s, BitString::new());
        // Reusable after clearing.
        s.push(true);
        assert_eq!(s.len(), 1);
        assert!(s.get(0));
    }

    #[test]
    fn truncate_masks_the_tail_word() {
        let mut s = BitString::from_bits((0..130).map(|_| true));
        s.truncate(65);
        assert_eq!(s.len(), 65);
        assert!(s.iter().all(|b| b));
        // Equality with a freshly built string proves the tail was zeroed.
        assert_eq!(s, BitString::from_bits((0..65).map(|_| true)));
        s.truncate(64);
        assert_eq!(s, BitString::from_bits((0..64).map(|_| true)));
        s.truncate(200);
        assert_eq!(s.len(), 64, "truncate never grows");
        s.truncate(0);
        assert_eq!(s, BitString::new());
        // Truncated strings keep working as append targets.
        let mut t = BitString::from_bits([true, true, true]);
        t.truncate(1);
        t.push(false);
        t.push_uint(3, 2);
        assert_eq!(t, BitString::from_bits([true, false, true, true]));
    }

    #[test]
    fn as_uint_little_endian() {
        let s = BitString::from_bits([true, false, false, true]); // 1 + 8
        assert_eq!(s.as_uint(), 9);
    }

    #[test]
    fn width_zero_is_a_legal_no_op() {
        let mut s = BitString::new();
        s.push_uint(0, 0);
        assert!(s.is_empty());
        // Zero-width fields interleave freely with real ones.
        s.push_uint(5, 3);
        s.push_uint(0, 0);
        s.push_uint(1, 1);
        assert_eq!(s.len(), 4);
        let mut r = s.reader();
        assert_eq!(r.read_uint(0).unwrap(), 0);
        assert_eq!(r.position(), 0, "width-0 read must not advance");
        assert_eq!(r.read_uint(3).unwrap(), 5);
        assert_eq!(r.read_uint(0).unwrap(), 0);
        assert_eq!(r.read_uint(1).unwrap(), 1);
        r.expect_end().unwrap();
        // And an exhausted reader still serves width-0 reads.
        assert_eq!(r.read_uint(0).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "does not fit in 0 bits")]
    fn width_zero_rejects_nonzero_values() {
        BitString::new().push_uint(1, 0);
    }

    #[test]
    fn width_64_roundtrips_aligned_and_unaligned() {
        // Aligned: a full word, extreme values.
        for v in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63] {
            let mut s = BitString::new();
            s.push_uint(v, 64);
            assert_eq!(s.len(), 64);
            assert_eq!(s.reader().read_uint(64).unwrap(), v);
            assert_eq!(s.as_uint(), v);
        }
        // Unaligned: a 64-bit value straddling two words at every offset.
        for off in 1usize..64 {
            let mut s = BitString::new();
            s.push_uint((1u64 << off) - 1, off);
            s.push_uint(u64::MAX, 64);
            s.push_uint(0b101, 3);
            let mut r = s.reader();
            assert_eq!(r.read_uint(off).unwrap(), (1u64 << off) - 1, "off={off}");
            assert_eq!(r.read_uint(64).unwrap(), u64::MAX, "off={off}");
            assert_eq!(r.read_uint(3).unwrap(), 0b101, "off={off}");
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn values_straddling_word_boundaries_roundtrip() {
        // A 2-bit value written at offset 63 occupies the last bit of word
        // 0 and the first of word 1.
        let mut s = BitString::new();
        s.push_uint(0, 63);
        s.push_uint(0b11, 2);
        assert_eq!(s.len(), 65);
        assert!(s.get(63) && s.get(64));
        let mut r = s.reader();
        r.skip(63).unwrap();
        assert_eq!(r.read_uint(2).unwrap(), 0b11);
        // Same via bit-level access after a word-straddling extend.
        let mut t = BitString::zeros(61);
        t.extend_from(&BitString::from_bits([true; 7]));
        assert_eq!(t.len(), 68);
        assert!((61..68).all(|i| t.get(i)));
        assert!((0..61).all(|i| !t.get(i)));
    }

    #[test]
    fn as_uint_boundaries() {
        assert_eq!(BitString::new().as_uint(), 0);
        let mut s = BitString::new();
        s.push_uint(u64::MAX, 64);
        assert_eq!(s.as_uint(), u64::MAX, "exactly 64 bits is allowed");
    }

    #[test]
    #[should_panic(expected = "does not fit in u64")]
    fn as_uint_rejects_65_bits() {
        BitString::zeros(65).as_uint();
    }

    #[test]
    fn read_into_a_fresh_string_allocates_exactly_the_words_it_needs() {
        // A chunk of at most 64 bits stays inline; a longer one gets
        // exactly its words, not the four a first `Vec::push` reserves.
        let s = BitString::from_bits((0..300).map(|i| i % 5 < 2));
        for (start, len) in [
            (0, 0),
            (0, 1),
            (3, 64),
            (63, 2),
            (1, 65),
            (70, 128),
            (0, 300),
            (299, 1),
        ] {
            let mut r = s.reader();
            r.skip(start).unwrap();
            let mut out = BitString::new();
            r.read_into(len, &mut out).unwrap();
            assert_eq!(
                heap_capacity(&out),
                (len > 64).then(|| len.div_ceil(64)),
                "start {start}, len {len}"
            );
        }
    }

    #[test]
    fn read_into_and_extend_from_range_reject_overruns_untouched() {
        let s = BitString::from_bits((0..100).map(|i| i % 3 == 0));
        let mut r = s.reader();
        r.skip(40).unwrap();
        let mut out = BitString::from_bits([true, false, true]);
        let err = r.read_into(61, &mut out).unwrap_err();
        assert_eq!(
            err,
            DecodeError {
                at: 40,
                wanted: 61,
                len: 100
            }
        );
        assert_eq!(r.position(), 40, "a failed read must not move the cursor");
        assert_eq!(out, BitString::from_bits([true, false, true]));
        let mut t = BitString::from_bits([false; 70]);
        assert_eq!(t.extend_from_range(&s, 40, 61), Err(err));
        assert!(
            t.extend_from_range(&s, 101, 0).is_err(),
            "start past the end"
        );
        assert_eq!(t, BitString::from_bits([false; 70]));
        t.extend_from_range(&s, 100, 0).unwrap();
        assert_eq!(t.len(), 70, "an empty range at the end is legal");
    }

    proptest! {
        #[test]
        fn prop_bit_roundtrip(bits in proptest::collection::vec(any::<bool>(), 0..300)) {
            let s = BitString::from_bits(bits.iter().copied());
            prop_assert_eq!(s.len(), bits.len());
            for (i, b) in bits.iter().enumerate() {
                prop_assert_eq!(s.get(i), *b);
            }
            let back: Vec<bool> = s.iter().collect();
            prop_assert_eq!(back, bits);
        }

        #[test]
        fn prop_uint_roundtrip(values in proptest::collection::vec((any::<u64>(), 1usize..=64), 0..20)) {
            let mut s = BitString::new();
            let mut expected = Vec::new();
            for (v, w) in &values {
                let v = if *w == 64 { *v } else { v & ((1u64 << w) - 1) };
                s.push_uint(v, *w);
                expected.push((v, *w));
            }
            let mut r = s.reader();
            for (v, w) in expected {
                prop_assert_eq!(r.read_uint(w).unwrap(), v);
            }
            r.expect_end().unwrap();
        }

        #[test]
        fn prop_uint_roundtrip_with_boundary_widths(
            values in proptest::collection::vec((any::<u64>(), 0usize..=64), 0..24),
        ) {
            // Unlike `prop_uint_roundtrip`, widths include 0 (legal no-op)
            // and 64 (full word) so the boundary paths stay covered.
            let mut s = BitString::new();
            let mut expected = Vec::new();
            let mut total = 0usize;
            for (v, w) in &values {
                let v = match *w {
                    0 => 0,
                    64 => *v,
                    w => v & ((1u64 << w) - 1),
                };
                s.push_uint(v, *w);
                total += w;
                expected.push((v, *w));
            }
            prop_assert_eq!(s.len(), total);
            let mut r = s.reader();
            for (v, w) in expected {
                prop_assert_eq!(r.read_uint(w).unwrap(), v);
            }
            r.expect_end().unwrap();
        }

        #[test]
        fn prop_concat_is_associative(
            a in proptest::collection::vec(any::<bool>(), 0..50),
            b in proptest::collection::vec(any::<bool>(), 0..50),
            c in proptest::collection::vec(any::<bool>(), 0..50),
        ) {
            let (sa, sb, sc) = (
                BitString::from_bits(a),
                BitString::from_bits(b),
                BitString::from_bits(c),
            );
            let left = sa.clone().concat(&sb).concat(&sc);
            let right = sa.concat(&sb.concat(&sc));
            prop_assert_eq!(left, right);
        }

        #[test]
        fn prop_truncate_extend_push_matches_bit_model(
            bits in proptest::collection::vec(any::<bool>(), 0..200),
            cut in 0usize..=200,
            ext in proptest::collection::vec(any::<bool>(), 0..130),
            v in any::<u64>(),
            w in 0usize..=64,
        ) {
            // The delivery path's hot loop: truncate a reused slot to
            // an arbitrary length, re-extend it, then append a possibly
            // word-straddling uint. Checked against a plain Vec<bool> model
            // and, for the zero-tail invariant, against a string rebuilt bit
            // by bit (equality is word-vector equality).
            let mut s = BitString::from_bits(bits.iter().copied());
            let mut model = bits.clone();
            let cut = cut.min(model.len());
            s.truncate(cut);
            model.truncate(cut);
            s.extend_from(&BitString::from_bits(ext.iter().copied()));
            model.extend(ext.iter().copied());
            let v = match w {
                0 => 0,
                64 => v,
                w => v & ((1u64 << w) - 1),
            };
            s.push_uint(v, w);
            for i in 0..w {
                model.push((v >> i) & 1 == 1);
            }
            prop_assert_eq!(s.len(), model.len());
            prop_assert_eq!(s.iter().collect::<Vec<_>>(), model.clone());
            prop_assert_eq!(&s, &BitString::from_bits(model.iter().copied()));
            prop_assert_eq!(s.words().len(), s.len().div_ceil(64));
        }

        #[test]
        fn prop_word_level_ops_match_bit_model(
            a in proptest::collection::vec(any::<bool>(), 0..200),
            b in proptest::collection::vec(any::<bool>(), 0..200),
        ) {
            let sa = BitString::from_bits(a.iter().copied());
            let sb = BitString::from_bits(b.iter().copied());
            // copy_from overwrites content, keeping only destination capacity.
            let mut c = sb.clone();
            c.copy_from(&sa);
            prop_assert_eq!(&c, &sa);
            // xor over the common prefix, checked bitwise, then invert.
            let n = a.len().min(b.len());
            let mut x = sa.clone();
            x.truncate(n);
            let mut y = sb.clone();
            y.truncate(n);
            x.xor_words(&y);
            let expect: Vec<bool> = (0..n).map(|i| a[i] ^ b[i]).collect();
            prop_assert_eq!(x.iter().collect::<Vec<_>>(), expect.clone());
            x.invert();
            let flipped: Vec<bool> = expect.iter().map(|e| !e).collect();
            prop_assert_eq!(x.iter().collect::<Vec<_>>(), flipped.clone());
            prop_assert_eq!(&x, &BitString::from_bits(flipped));
        }

        #[test]
        fn prop_read_into_matches_read_bits(
            bits in proptest::collection::vec(any::<bool>(), 0..300),
            start in 0usize..300,
            len in 0usize..300,
            junk in proptest::collection::vec(any::<bool>(), 0..200),
        ) {
            // Offsets and lengths cross word boundaries; the reused target
            // starts non-empty, with more capacity than the read needs.
            let start = start % (bits.len() + 1);
            let len = len % (bits.len() - start + 1);
            let s = BitString::from_bits(bits.iter().copied());
            let mut a = s.reader();
            a.skip(start).unwrap();
            let mut b = a.clone();
            let fresh = a.read_bits(len).unwrap();
            let mut reused = BitString::from_bits(junk.iter().copied());
            b.read_into(len, &mut reused).unwrap();
            prop_assert_eq!(&reused, &fresh);
            prop_assert_eq!(a.position(), b.position());
            prop_assert_eq!(reused.iter().collect::<Vec<_>>(), bits[start..start + len].to_vec());
            prop_assert_eq!(reused.words().len(), len.div_ceil(64));
        }

        #[test]
        fn prop_extend_from_range_matches_extend_from_read_bits(
            head in proptest::collection::vec(any::<bool>(), 0..200),
            src in proptest::collection::vec(any::<bool>(), 0..300),
            start in 0usize..300,
            len in 0usize..300,
        ) {
            // `head` puts the append point at every alignment.
            let start = start % (src.len() + 1);
            let len = len % (src.len() - start + 1);
            let s = BitString::from_bits(src.iter().copied());
            let mut r = s.reader();
            r.skip(start).unwrap();
            let mut expect = BitString::from_bits(head.iter().copied());
            expect.extend_from(&r.read_bits(len).unwrap());
            let mut got = BitString::from_bits(head.iter().copied());
            got.extend_from_range(&s, start, len).unwrap();
            prop_assert_eq!(&got, &expect);
            let model: Vec<bool> = head.iter().chain(&src[start..start + len]).copied().collect();
            prop_assert_eq!(got.iter().collect::<Vec<_>>(), model);
            prop_assert_eq!(got.words().len(), got.len().div_ceil(64));
            let before = got.clone();
            prop_assert!(got.extend_from_range(&s, start, src.len() - start + 1).is_err());
            prop_assert_eq!(&got, &before);
        }

        #[test]
        fn prop_extend_from_range_at_word_boundaries_matches_a_read_bits_splice(
            head in proptest::collection::vec(any::<bool>(), 0..200),
            cut in (0usize..16, any::<usize>()),
            src in proptest::collection::vec(any::<bool>(), 0..300),
            start in (0usize..16, any::<usize>()),
            len in (0usize..16, any::<usize>()),
            heap in any::<bool>(),
        ) {
            // The target inline or on the heap, its length (the append
            // point), the source offset and the length on either side of
            // 0, 64 and 128 bits.
            let head = boundary_string(head, cut.0);
            let head = &head[..boundary(cut, head.len())];
            let src = boundary_string(src, start.0.min(len.0));
            let start = boundary(start, src.len());
            let len = boundary(len, src.len() - start);
            let s = BitString::from_bits(src.iter().copied());
            let mut r = s.reader();
            r.skip(start).unwrap();
            let mut want = target(head, heap);
            want.extend_from(&r.read_bits(len).unwrap());
            let mut got = target(head, heap);
            got.extend_from_range(&s, start, len).unwrap();
            prop_assert_eq!(&got, &want);
            let model: Vec<bool> = head.iter().chain(&src[start..start + len]).copied().collect();
            prop_assert_eq!(got.iter().collect::<Vec<_>>(), model);
            prop_assert_eq!(got.words().len(), got.len().div_ceil(64));
        }

        #[test]
        fn prop_write_range_matches_a_read_bits_splice(
            bits in proptest::collection::vec(any::<bool>(), 0..300),
            src in proptest::collection::vec(any::<bool>(), 0..300),
            at in (0usize..16, any::<usize>()),
            start in (0usize..16, any::<usize>()),
            len in (0usize..16, any::<usize>()),
            heap in any::<bool>(),
        ) {
            // Overwrite a window of a pre-filled target and check it against
            // the splice `bits[..at] + src[start..start + len] +
            // bits[at + len..]` built from `read_bits` and `extend_from`:
            // the bits either side of the window stay as they were.
            let bits = boundary_string(bits, at.0.min(len.0));
            let src = boundary_string(src, start.0.min(len.0));
            let at = boundary(at, bits.len());
            let start = boundary(start, src.len());
            let len = boundary(len, (bits.len() - at).min(src.len() - start));
            let s = BitString::from_bits(src.iter().copied());
            let mut got = target(&bits, heap);
            got.write_range(at, &s, start, len).unwrap();
            let old = target(&bits, heap);
            let mut r = old.reader();
            let mut want = r.read_bits(at).unwrap();
            let mut sr = s.reader();
            sr.skip(start).unwrap();
            want.extend_from(&sr.read_bits(len).unwrap());
            r.skip(len).unwrap();
            want.extend_from(&r.read_bits(r.remaining()).unwrap());
            prop_assert_eq!(&got, &want);
            let mut model = bits.clone();
            model[at..at + len].copy_from_slice(&src[start..start + len]);
            prop_assert_eq!(got.iter().collect::<Vec<_>>(), model);
            prop_assert_eq!(got.words().len(), got.len().div_ceil(64));
            // A source range past the end fails and leaves the target as
            // it was.
            let before = got.clone();
            prop_assert!(got.write_range(0, &s, start, s.len() - start + 1).is_err());
            prop_assert_eq!(&got, &before);
        }

        #[test]
        fn prop_inline_and_heap_strings_agree(
            bits in proptest::collection::vec(any::<bool>(), 0..=130),
            probe in 0usize..130,
        ) {
            // The same bits built fresh (inline up to 64 bits) and in a
            // string that grew past 64 bits and was cleared (heap).
            let fresh = BitString::from_bits(bits.iter().copied());
            let mut reused = BitString::from_bits(pattern(130));
            reused.clear();
            reused.extend_from(&fresh);
            prop_assert!(heap_capacity(&reused).is_some());
            prop_assert_eq!(heap_capacity(&fresh).is_none(), bits.len() <= 64);
            prop_assert_eq!(&reused, &fresh);
            prop_assert_eq!(hash_of(&reused), hash_of(&fresh));
            prop_assert_eq!(&reused.clone(), &fresh.clone());
            if bits.len() <= 64 {
                prop_assert_eq!(reused.as_uint(), fresh.as_uint());
            }
            if !bits.is_empty() {
                let i = probe % bits.len();
                prop_assert_eq!(reused.get(i), bits[i]);
                prop_assert_eq!(fresh.get(i), bits[i]);
                let width = (bits.len() - i).min(64);
                let (mut a, mut b) = (reused.reader(), fresh.reader());
                a.skip(i).unwrap();
                b.skip(i).unwrap();
                prop_assert_eq!(a.read_uint(width).unwrap(), b.read_uint(width).unwrap());
            }
        }

        #[test]
        fn prop_read_bits_matches_slice(
            bits in proptest::collection::vec(any::<bool>(), 0..120),
            cut in 0usize..=120,
        ) {
            let cut = cut.min(bits.len());
            let s = BitString::from_bits(bits.iter().copied());
            let mut r = s.reader();
            let head = r.read_bits(cut).unwrap();
            let tail = r.read_bits(bits.len() - cut).unwrap();
            prop_assert_eq!(head.iter().collect::<Vec<_>>(), bits[..cut].to_vec());
            prop_assert_eq!(tail.iter().collect::<Vec<_>>(), bits[cut..].to_vec());
        }
    }
}

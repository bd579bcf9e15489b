//! MSB-first bitstream primitives for the Ecco compressed-block format.
//!
//! Every Ecco compressed block is exactly **512 bits** (64 bytes, the
//! DRAM→L2 transaction size chosen in Section 3.1 of the paper) holding a
//! mix of fixed-width fields and variable-length Huffman codes. This crate
//! provides the [`BitWriter`]/[`BitReader`] pair used by the codec and the
//! hardware models, [`Block64`], the fixed-size block buffer, and
//! [`BlockCursor`], the zero-copy word-level window extractor the parallel
//! decoder's hot path runs on.
//!
//! Bit order is MSB-first within each byte, matching the way the paper's
//! decoder slices the 512-bit input into overlapping 15-bit windows.
//!
//! Both the writer and the reader move data at word granularity: the
//! writer accumulates into a 64-bit register and flushes whole bytes, the
//! reader gathers whole bytes into a 64-bit result — neither ever loops
//! per bit.
//!
//! For the parallel decoder's 64×8 sub-decode pass, [`BlockCursor`] also
//! extracts every segment's eight offset windows in a single call
//! ([`BlockCursor::windows_all`]), with a portable word-level path, an
//! AVX2 path and a NEON path behind one runtime dispatch point — see
//! [`WindowDispatch`] for the tier rules and the `ECCO_FORCE_SCALAR` env
//! override (any value but empty or `"0"`) that pins the portable path
//! for CI and differential testing.
//!
//! # Examples
//!
//! ```
//! use ecco_bits::{BitReader, BitWriter};
//!
//! let mut w = BitWriter::new();
//! w.write_bits(0b101, 3);
//! w.write_bits(0xFF, 8);
//! let bytes = w.into_bytes();
//!
//! let mut r = BitReader::new(&bytes);
//! assert_eq!(r.read_bits(3), Some(0b101));
//! assert_eq!(r.read_bits(8), Some(0xFF));
//! ```

// Unsafe is denied crate-wide and re-allowed only inside the `simd`
// module, whose sole contents are the AVX2/NEON intrinsic shims behind
// `BlockCursor::windows_all` (each shim documents its safety contract).
#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// Number of bytes in an Ecco compressed block.
pub const BLOCK_BYTES: usize = 64;
/// Number of bits in an Ecco compressed block.
pub const BLOCK_BITS: usize = BLOCK_BYTES * 8;
/// Number of 8-bit window segments per block — the row count of a
/// whole-block [`BlockCursor::windows_all`] fill.
pub const WINDOW_SEGMENTS: usize = BLOCK_BITS / 8;

/// An MSB-first bit accumulator backed by a growable byte buffer.
///
/// Bits are staged in a 64-bit accumulator and flushed to the byte buffer
/// a whole byte at a time, so a `write_bits` call costs a shift and at
/// most a handful of byte stores — never a per-bit loop.
///
/// # Examples
///
/// ```
/// use ecco_bits::BitWriter;
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b1, 1);
/// w.write_bits(0b0110, 4);
/// assert_eq!(w.bit_len(), 5);
/// assert_eq!(w.into_bytes(), vec![0b1011_0000]);
/// ```
#[derive(Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits, right-aligned; always fewer than 8 between calls.
    acc: u64,
    acc_bits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Creates an empty writer with space reserved for `bits` bits.
    pub fn with_capacity(bits: usize) -> BitWriter {
        BitWriter {
            bytes: Vec::with_capacity(bits.div_ceil(8)),
            acc: 0,
            acc_bits: 0,
        }
    }

    /// Number of bits written so far.
    #[inline]
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.acc_bits as usize
    }

    /// Returns `true` if no bits have been written.
    pub fn is_empty(&self) -> bool {
        self.bit_len() == 0
    }

    /// Appends the low `n` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` or if `value` has bits set above bit `n`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        assert!(n <= 64, "cannot write more than 64 bits at once");
        assert!(
            n == 64 || value < (1u64 << n),
            "value {value:#x} does not fit in {n} bits"
        );
        if n > 32 {
            // Split so the accumulator (holding < 8 pending bits) never
            // overflows: each chunk is at most 32 bits.
            self.write_chunk(value >> 32, n - 32);
            self.write_chunk(value & 0xFFFF_FFFF, 32);
        } else if n > 0 {
            self.write_chunk(value, n);
        }
    }

    /// Core word-level append: `n <= 32`, `value < 2^n`.
    #[inline]
    fn write_chunk(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 32 && self.acc_bits < 8);
        self.acc = (self.acc << n) | value;
        self.acc_bits += n;
        while self.acc_bits >= 8 {
            self.acc_bits -= 8;
            self.bytes.push((self.acc >> self.acc_bits) as u8);
        }
        self.acc &= (1u64 << self.acc_bits) - 1;
    }

    /// Appends a single bit.
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        self.write_chunk(bit as u64, 1);
    }

    /// Appends zero bits until `bit_len` reaches `target_bits`.
    ///
    /// Does nothing if the writer is already at or past the target.
    pub fn pad_to(&mut self, target_bits: usize) {
        let mut need = target_bits.saturating_sub(self.bit_len());
        while need > 0 {
            let n = need.min(32) as u32;
            self.write_chunk(0, n);
            need -= n as usize;
        }
    }

    /// Consumes the writer, returning the packed bytes (zero-padded to a
    /// byte boundary).
    pub fn into_bytes(mut self) -> Vec<u8> {
        if self.acc_bits > 0 {
            let tail = (self.acc << (8 - self.acc_bits)) as u8;
            self.bytes.push(tail);
        }
        self.bytes
    }

    /// Borrows the *complete* bytes flushed so far. Up to 7 trailing bits
    /// may still be pending in the accumulator; use [`BitWriter::into_bytes`]
    /// for the padded full stream.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl fmt::Debug for BitWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitWriter({} bits)", self.bit_len())
    }
}

/// An MSB-first bit cursor over a byte slice.
///
/// Reads return `None` once fewer than the requested bits remain, which the
/// codec uses to detect clipped (truncated) Huffman streams. Reads gather
/// whole bytes, so a 64-bit read touches at most 9 bytes.
///
/// # Examples
///
/// ```
/// use ecco_bits::BitReader;
///
/// let mut r = BitReader::new(&[0b1100_0001, 0b1000_0000]);
/// assert_eq!(r.read_bits(2), Some(0b11));
/// assert_eq!(r.read_bits(7), Some(0b0000011));
/// assert_eq!(r.bit_pos(), 9);
/// ```
#[derive(Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    bit_pos: usize,
    bit_end: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over all bits of `bytes`.
    pub fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader {
            bytes,
            bit_pos: 0,
            bit_end: bytes.len() * 8,
        }
    }

    /// Creates a reader over the first `bit_end` bits of `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `bit_end` exceeds the slice length in bits.
    pub fn with_limit(bytes: &'a [u8], bit_end: usize) -> BitReader<'a> {
        assert!(bit_end <= bytes.len() * 8, "limit beyond end of slice");
        BitReader {
            bytes,
            bit_pos: 0,
            bit_end,
        }
    }

    /// Current cursor position in bits from the start.
    #[inline]
    pub fn bit_pos(&self) -> usize {
        self.bit_pos
    }

    /// Number of unread bits.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bit_end - self.bit_pos
    }

    /// Moves the cursor to an absolute bit position.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is beyond the readable limit.
    #[inline]
    pub fn seek(&mut self, pos: usize) {
        assert!(pos <= self.bit_end, "seek beyond end of stream");
        self.bit_pos = pos;
    }

    /// Reads `n` bits MSB-first, or `None` if fewer than `n` remain.
    ///
    /// A failed read leaves the cursor unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Option<u64> {
        assert!(n <= 64, "cannot read more than 64 bits at once");
        if self.remaining() < n as usize {
            return None;
        }
        let out = self.extract(self.bit_pos, n);
        self.bit_pos += n as usize;
        Some(out)
    }

    /// Reads up to `n` bits without moving the cursor, zero-padding past the
    /// end of the stream. Returns the bits as if `n` bits had been read with
    /// missing bits as zero.
    ///
    /// This matches the hardware decoder, whose 15-bit windows run past the
    /// end of the 512-bit block and see zero fill.
    #[inline]
    pub fn peek_bits_padded(&self, n: u32) -> u64 {
        assert!(n <= 64);
        let avail = self.remaining().min(n as usize) as u32;
        if avail == 0 {
            // Also guards the n == 64 case below: a shift by n - avail
            // = 64 would overflow.
            return 0;
        }
        self.extract(self.bit_pos, avail) << (n - avail)
    }

    /// Gathers `n` in-bounds bits starting at absolute bit `pos`,
    /// byte-at-a-time (word-level refill).
    #[inline]
    fn extract(&self, pos: usize, n: u32) -> u64 {
        debug_assert!(pos + n as usize <= self.bit_end);
        let mut out = 0u64;
        let mut p = pos;
        let mut left = n;
        while left > 0 {
            let byte = self.bytes[p / 8] as u64;
            let off = (p % 8) as u32;
            let take = (8 - off).min(left);
            let chunk = (byte >> (8 - off - take)) & ((1u64 << take) - 1);
            out = (out << take) | chunk;
            p += take as usize;
            left -= take;
        }
        out
    }
}

impl fmt::Debug for BitReader<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitReader(pos {}, end {})", self.bit_pos, self.bit_end)
    }
}

/// A fixed 64-byte (512-bit) compressed-block buffer.
///
/// [`Block64`] guarantees at the type level that every compressed block has
/// the exact DRAM-transaction size the format requires; writers that
/// overflow it report the overflow instead of growing.
///
/// # Examples
///
/// ```
/// use ecco_bits::Block64;
///
/// let mut w = ecco_bits::BitWriter::new();
/// w.write_bits(0xAB, 8);
/// let block = Block64::from_writer(w).unwrap();
/// assert_eq!(block.as_bytes()[0], 0xAB);
/// assert_eq!(block.as_bytes().len(), 64);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Block64 {
    bytes: [u8; BLOCK_BYTES],
}

impl Block64 {
    /// An all-zero block.
    pub const ZERO: Block64 = Block64 {
        bytes: [0; BLOCK_BYTES],
    };

    /// Wraps an existing 64-byte buffer.
    pub const fn from_bytes(bytes: [u8; BLOCK_BYTES]) -> Block64 {
        Block64 { bytes }
    }

    /// Builds a block from a writer, zero-padding to 512 bits.
    ///
    /// # Errors
    ///
    /// Returns `Err` with the writer's bit length if it exceeds 512 bits —
    /// the caller (the codec's clip stage) decides what to drop.
    pub fn from_writer(mut writer: BitWriter) -> Result<Block64, usize> {
        if writer.bit_len() > BLOCK_BITS {
            return Err(writer.bit_len());
        }
        writer.pad_to(BLOCK_BITS);
        let bytes = writer.into_bytes();
        let mut out = [0u8; BLOCK_BYTES];
        out.copy_from_slice(&bytes[..BLOCK_BYTES]);
        Ok(Block64 { bytes: out })
    }

    /// Borrows the raw bytes.
    pub fn as_bytes(&self) -> &[u8; BLOCK_BYTES] {
        &self.bytes
    }

    /// Returns a bit reader over the whole block.
    pub fn reader(&self) -> BitReader<'_> {
        BitReader::new(&self.bytes)
    }

    /// Returns the word-level window cursor over this block.
    pub fn cursor(&self) -> BlockCursor {
        BlockCursor::new(self)
    }
}

impl Default for Block64 {
    fn default() -> Block64 {
        Block64::ZERO
    }
}

impl fmt::Debug for Block64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block64(")?;
        for b in &self.bytes[..8] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

/// A seek-free window extractor over one 512-bit block.
///
/// The block is re-viewed once as eight big-endian 64-bit words (plus a
/// zero guard word); after that, extracting any ≤ 57-bit window at any bit
/// position is two shifts and an OR — no cursor state, no bounds loop, no
/// reconstruction. This is the primitive the parallel decoder's
/// sub-decoders use to slice the block into overlapping 15-bit windows:
/// a [`BlockCursor`] is built once per block and then only does index math.
///
/// Windows past bit 512 read as zero fill, exactly like the hardware.
///
/// # Examples
///
/// ```
/// use ecco_bits::{BitWriter, Block64};
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b1010_1100, 8);
/// let block = Block64::from_writer(w).unwrap();
/// let cur = block.cursor();
/// assert_eq!(cur.window(0, 4), 0b1010);
/// assert_eq!(cur.window(4, 4), 0b1100);
/// // Past the end: zero padded.
/// assert_eq!(cur.window(510, 15), 0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BlockCursor {
    /// The 512 block bits as big-endian words; `words[8]` is the zero
    /// guard so windows starting in the last word need no branch.
    words: [u64; 9],
}

impl BlockCursor {
    /// Views `block` as nine big-endian words (eight data + zero guard).
    pub fn new(block: &Block64) -> BlockCursor {
        let mut words = [0u64; 9];
        for (i, chunk) in block.as_bytes().chunks_exact(8).enumerate() {
            words[i] = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        BlockCursor { words }
    }

    /// Extracts the `n`-bit window starting at absolute bit `pos`,
    /// zero-padded past bit 512.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `n > 57` or `pos >= 512`; the decoder only asks
    /// for 15-bit windows inside the block.
    #[inline]
    pub fn window(&self, pos: usize, n: u32) -> u64 {
        debug_assert!(n <= 57, "window wider than one guarded word pair");
        debug_assert!(pos < BLOCK_BITS, "window start outside block");
        self.suffix64(pos) >> (64 - n)
    }

    /// The 64 bits starting at absolute bit `pos`, MSB-first — one
    /// guarded word-pair concatenation. Bits past 512 read as zero via
    /// the guard word.
    #[inline]
    fn suffix64(&self, pos: usize) -> u64 {
        let word = pos >> 6;
        let off = (pos & 63) as u32;
        // Concatenate the addressed word with its successor so any window
        // of up to 57 bits is fully contained in `cat`'s top 64 bits.
        let hi = self.words[word] << off;
        let lo = if off == 0 {
            0
        } else {
            self.words[word + 1] >> (64 - off)
        };
        hi | lo
    }

    /// The word-pair suffix feeding one segment's eight offset windows.
    /// All eight windows read only the top `7 + n` bits, so when
    /// `off + 7 + n <= 64` the whole batch lives in the addressed word and
    /// the second load (and the `off == 0` shift guard) is skipped — true
    /// for six of every eight segments at the decoder's 15-bit width.
    #[inline]
    fn batch_cat(&self, pos: usize, n: u32) -> u64 {
        let word = pos >> 6;
        let off = (pos & 63) as u32;
        if off + 7 + n <= 64 {
            self.words[word] << off
        } else {
            (self.words[word] << off) | (self.words[word + 1] >> (64 - off))
        }
    }

    /// Extracts **every** segment's eight offset windows in one call —
    /// all [`WINDOW_SEGMENTS`]` × 8` windows of the block at width `n`,
    /// row `seg` holding the windows starting at bits
    /// `seg*8 .. seg*8 + 8` — through the active [`WindowDispatch`] tier.
    /// Windows past bit 512 are zero-padded, exactly like
    /// [`BlockCursor::window`].
    ///
    /// This is the decoder's whole-block window fill. A `#[target_feature]`
    /// shim cannot inline, so one shim call covers the whole block and
    /// the intrinsic tier amortizes its call overhead across all 512
    /// windows. Every tier is bit-identical; the differential tests pin
    /// each one to 512 independent [`BlockCursor::window`] probes.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `n` is outside `1..=15`.
    #[inline]
    pub fn windows_all(&self, n: u32, out: &mut [[u64; 8]; WINDOW_SEGMENTS]) {
        debug_assert!((1..=15).contains(&n), "windows_all widths are 1..=15");
        match window_dispatch() {
            WindowDispatch::Portable => self.windows_all_portable(n, out),
            tier => {
                #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
                if simd::windows_all_for_tier(tier, &self.words, n, out) {
                    return;
                }
                #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
                let _ = tier;
                self.windows_all_portable(n, out);
            }
        }
    }

    /// The portable whole-block fill: one guarded word-pair load per
    /// segment, expanded into its eight windows by shifts, no intrinsics.
    /// The tier `ECCO_FORCE_SCALAR` routes [`BlockCursor::windows_all`]
    /// to.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `n` is outside `1..=15`.
    #[inline]
    pub fn windows_all_portable(&self, n: u32, out: &mut [[u64; 8]; WINDOW_SEGMENTS]) {
        debug_assert!((1..=15).contains(&n), "windows_all widths are 1..=15");
        for (seg, row) in out.iter_mut().enumerate() {
            *row = segment_windows(self.batch_cat(seg * 8, n), n);
        }
    }

    /// The SIMD whole-block fill, bypassing the dispatch point: `true`
    /// iff the host supports a SIMD tier and filled `out` through it.
    /// Used by the differential tests and the bench harness to probe the
    /// block-at-a-time SIMD arm explicitly regardless of the active
    /// dispatch.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `n` is outside `1..=15`.
    #[inline]
    pub fn windows_all_simd(&self, n: u32, out: &mut [[u64; 8]; WINDOW_SEGMENTS]) -> bool {
        debug_assert!((1..=15).contains(&n), "windows_all widths are 1..=15");
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        {
            simd::windows_all(&self.words, n, out)
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            let _ = (n, out);
            false
        }
    }
}

/// Two-shift expansion of one preloaded word suffix into the eight
/// offset windows — the portable tier's inner loop. `(cat << i) >> (64 - n)`
/// needs no mask register: the left shift drops the bits above offset
/// `i`, the right shift isolates the window.
#[inline]
fn segment_windows(cat: u64, n: u32) -> [u64; 8] {
    let shift = 64 - n;
    let mut out = [0u64; 8];
    for (i, w) in out.iter_mut().enumerate() {
        *w = (cat << i as u32) >> shift;
    }
    out
}

/// The implementation tier behind [`BlockCursor::windows_all`].
///
/// All tiers produce bit-identical windows; they differ only in how the
/// shifts are issued. The active tier is resolved once per process and
/// cached:
///
/// 1. a non-empty, non-`"0"` `ECCO_FORCE_SCALAR` environment variable
///    pins [`WindowDispatch::Portable`] at startup,
/// 2. otherwise the best supported SIMD tier wins: [`WindowDispatch::Avx2`]
///    on x86-64 hosts with AVX2, [`WindowDispatch::Neon`] on AArch64,
/// 3. portable everywhere else.
///
/// Tests may re-pin the tier at runtime with [`set_window_dispatch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowDispatch {
    /// Word-level batch extraction, no intrinsics.
    Portable,
    /// `std::arch::x86_64` variable-shift lanes (`vpsllvq` + one shared
    /// `vpsrlq`).
    Avx2,
    /// `std::arch::aarch64` variable-shift lanes (`ushl`).
    Neon,
}

/// Cached dispatch tier: 0 = unresolved, else `encode_tier(tier)`.
///
/// Safety invariant relied on by `simd::windows_all_for_tier`: a SIMD tier
/// is only ever stored here after this process verified the host
/// supports it ([`resolve_dispatch`] and [`set_window_dispatch`] both
/// gate on [`supported_simd`]), so a load observing `Avx2`/`Neon`
/// proves the matching intrinsics are executable — CPU features do not
/// change mid-process.
static DISPATCH: AtomicU8 = AtomicU8::new(0);

fn encode_tier(tier: WindowDispatch) -> u8 {
    match tier {
        WindowDispatch::Portable => 1,
        WindowDispatch::Avx2 => 2,
        WindowDispatch::Neon => 3,
    }
}

/// The best SIMD tier this host can execute, if any.
fn supported_simd() -> Option<WindowDispatch> {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(WindowDispatch::Avx2);
        }
        None
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is part of the AArch64 baseline ABI.
        Some(WindowDispatch::Neon)
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        None
    }
}

/// First-use resolution of the dispatch tier (env override, then SIMD
/// detection).
fn resolve_dispatch() -> WindowDispatch {
    let forced = std::env::var_os("ECCO_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != *"0");
    if forced {
        return WindowDispatch::Portable;
    }
    supported_simd().unwrap_or(WindowDispatch::Portable)
}

/// The [`WindowDispatch`] tier [`BlockCursor::windows_all`] currently
/// runs on, resolving and caching it on first call.
#[inline]
pub fn window_dispatch() -> WindowDispatch {
    match DISPATCH.load(Ordering::Relaxed) {
        1 => WindowDispatch::Portable,
        2 => WindowDispatch::Avx2,
        3 => WindowDispatch::Neon,
        _ => {
            let tier = resolve_dispatch();
            DISPATCH.store(encode_tier(tier), Ordering::Relaxed);
            tier
        }
    }
}

/// Re-pins the [`BlockCursor::windows_all`] dispatch tier, returning the
/// tier actually installed: requests for a SIMD tier the host cannot
/// execute clamp to [`WindowDispatch::Portable`].
///
/// Intended for differential tests and benches that must drive a specific
/// arm; the setting is process-global, which is sound precisely because
/// every tier is bit-identical.
pub fn set_window_dispatch(tier: WindowDispatch) -> WindowDispatch {
    let actual = match tier {
        WindowDispatch::Portable => WindowDispatch::Portable,
        simd if Some(simd) == supported_simd() => simd,
        _ => WindowDispatch::Portable,
    };
    DISPATCH.store(encode_tier(actual), Ordering::Relaxed);
    window_dispatch()
}

/// The AVX2 / NEON intrinsic shims behind [`BlockCursor::windows_all`] —
/// the only `unsafe` in the crate, confined to `target_feature` calls
/// whose availability is checked by the caller in this module.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use std::arch::x86_64::{
        __m256i, _mm256_set1_epi64x, _mm256_set_epi64x, _mm256_sllv_epi64, _mm256_srl_epi64,
        _mm256_storeu_si256, _mm_cvtsi32_si128,
    };

    /// The whole-block fill, re-detecting AVX2 (a cached atomic load in
    /// std) so it is safe to call unconditionally — backs the explicit
    /// `windows_all_simd` probe. `true` iff `out` was filled.
    #[inline]
    pub(crate) fn windows_all(
        words: &[u64; 9],
        n: u32,
        out: &mut [[u64; 8]; crate::WINDOW_SEGMENTS],
    ) -> bool {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified on this host.
            unsafe { windows_all_avx2(words, n, out) };
            true
        } else {
            false
        }
    }

    /// The dispatched whole-block hot path: runs the shim for a tier
    /// already resolved by the dispatch cache, skipping re-detection.
    /// `false` for tiers this architecture has no shim for.
    #[inline]
    pub(crate) fn windows_all_for_tier(
        tier: crate::WindowDispatch,
        words: &[u64; 9],
        n: u32,
        out: &mut [[u64; 8]; crate::WINDOW_SEGMENTS],
    ) -> bool {
        match tier {
            // SAFETY: the dispatch cache only ever holds `Avx2` after
            // `supported_simd` verified AVX2 on this host (see the
            // invariant on `DISPATCH`).
            crate::WindowDispatch::Avx2 => {
                unsafe { windows_all_avx2(words, n, out) };
                true
            }
            _ => false,
        }
    }

    /// Every segment's eight offset windows in one `#[target_feature]`
    /// call: the shift constants are hoisted out of the loop and the
    /// per-segment word-pair concatenation (`batch_cat`) is inlined, so
    /// the non-inlinable shim boundary is crossed once per block instead
    /// of once per segment.
    ///
    /// # Safety
    ///
    /// The caller must ensure the host supports AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn windows_all_avx2(
        words: &[u64; 9],
        n: u32,
        out: &mut [[u64; 8]; crate::WINDOW_SEGMENTS],
    ) {
        let off_lo = _mm256_set_epi64x(3, 2, 1, 0);
        let off_hi = _mm256_set_epi64x(7, 6, 5, 4);
        let right = _mm_cvtsi32_si128((64 - n) as i32);
        for (seg, row) in out.iter_mut().enumerate() {
            let pos = seg * 8;
            let word = pos >> 6;
            let off = (pos & 63) as u32;
            // `batch_cat`, inlined: the 64-bit concatenation covering
            // windows `pos..pos + 7 + n`.
            let cat = if off + 7 + n <= 64 {
                words[word] << off
            } else {
                (words[word] << off) | (words[word + 1] >> (64 - off))
            };
            let v = _mm256_set1_epi64x(cat as i64);
            let lo = _mm256_srl_epi64(_mm256_sllv_epi64(v, off_lo), right);
            let hi = _mm256_srl_epi64(_mm256_sllv_epi64(v, off_hi), right);
            // SAFETY: each row is 64 bytes, exactly two unaligned
            // 256-bit stores.
            unsafe {
                _mm256_storeu_si256(row.as_mut_ptr().cast::<__m256i>(), lo);
                _mm256_storeu_si256(row.as_mut_ptr().add(4).cast::<__m256i>(), hi);
            }
        }
    }
}

/// The NEON twin of the AVX2 shim: four 128-bit variable-shift lanes of
/// two windows each. NEON is baseline on AArch64, so detection never
/// fails here.
#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
mod simd {
    use std::arch::aarch64::{
        vandq_u64, vdupq_n_s64, vdupq_n_u64, vld1q_s64, vshlq_u64, vst1q_u64,
    };

    /// The whole-block fill. Always fills on AArch64 (NEON is part of
    /// the baseline ABI); backs the explicit `windows_all_simd` probe.
    #[inline]
    pub(crate) fn windows_all(
        words: &[u64; 9],
        n: u32,
        out: &mut [[u64; 8]; crate::WINDOW_SEGMENTS],
    ) -> bool {
        // SAFETY: NEON is mandatory in the AArch64 baseline ABI.
        unsafe { windows_all_neon(words, n, out) };
        true
    }

    /// The dispatched whole-block hot path: NEON needs no detection, so
    /// this only filters out tiers this architecture has no shim for.
    #[inline]
    pub(crate) fn windows_all_for_tier(
        tier: crate::WindowDispatch,
        words: &[u64; 9],
        n: u32,
        out: &mut [[u64; 8]; crate::WINDOW_SEGMENTS],
    ) -> bool {
        match tier {
            crate::WindowDispatch::Neon => windows_all(words, n, out),
            _ => false,
        }
    }

    /// Every segment's eight offset windows in one `#[target_feature]`
    /// call: the shift vectors and mask are hoisted out of the loop and
    /// the per-segment word-pair concatenation (`batch_cat`) is inlined,
    /// so the non-inlinable shim boundary is crossed once per block
    /// instead of once per segment.
    ///
    /// # Safety
    ///
    /// The caller must ensure the host supports NEON (always true for
    /// AArch64 targets).
    #[target_feature(enable = "neon")]
    unsafe fn windows_all_neon(
        words: &[u64; 9],
        n: u32,
        out: &mut [[u64; 8]; crate::WINDOW_SEGMENTS],
    ) {
        let mask = vdupq_n_u64((1u64 << n) - 1);
        let base = (64 - n) as i64;
        let mut shifts = [vdupq_n_s64(0); 4];
        for (pair, sh) in shifts.iter_mut().enumerate() {
            // `vshlq_u64` shifts right for negative counts.
            let counts = [-(base - 2 * pair as i64), -(base - 2 * pair as i64 - 1)];
            // SAFETY: `counts` holds two i64 lanes.
            *sh = unsafe { vld1q_s64(counts.as_ptr()) };
        }
        for (seg, row) in out.iter_mut().enumerate() {
            let pos = seg * 8;
            let word = pos >> 6;
            let off = (pos & 63) as u32;
            // `batch_cat`, inlined: the 64-bit concatenation covering
            // windows `pos..pos + 7 + n`.
            let cat = if off + 7 + n <= 64 {
                words[word] << off
            } else {
                (words[word] << off) | (words[word + 1] >> (64 - off))
            };
            let v = vdupq_n_u64(cat);
            for (pair, sh) in shifts.iter().enumerate() {
                let w = vandq_u64(vshlq_u64(v, *sh), mask);
                // SAFETY: `row[2 * pair..]` has room for two u64 lanes.
                unsafe { vst1q_u64(row.as_mut_ptr().add(2 * pair), w) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn write_then_read_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b10, 2);
        w.write_bits(0xAB, 8);
        w.write_bits(0x3FFF, 15);
        w.write_bits(1, 1);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2), Some(0b10));
        assert_eq!(r.read_bits(8), Some(0xAB));
        assert_eq!(r.read_bits(15), Some(0x3FFF));
        assert_eq!(r.read_bits(1), Some(1));
    }

    #[test]
    fn read_past_end_returns_none() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8), Some(0xFF));
        assert_eq!(r.read_bits(1), None);
        // A failed read must not move the cursor.
        assert_eq!(r.bit_pos(), 8);
    }

    #[test]
    fn peek_pads_with_zeros() {
        let mut r = BitReader::new(&[0b1010_0000]);
        r.seek(4);
        // 4 real bits (0000) + 4 padded zeros.
        assert_eq!(r.peek_bits_padded(8), 0);
        r.seek(0);
        assert_eq!(r.peek_bits_padded(15), 0b1010_0000 << 7);
    }

    #[test]
    fn full_width_peek_at_end_is_zero() {
        let mut r = BitReader::new(&[0xFF]);
        r.seek(8);
        assert_eq!(r.peek_bits_padded(64), 0);
        assert_eq!(r.peek_bits_padded(0), 0);
        r.seek(7);
        assert_eq!(r.peek_bits_padded(64), 1u64 << 63);
    }

    #[test]
    fn with_limit_truncates() {
        let mut r = BitReader::with_limit(&[0xFF, 0xFF], 9);
        assert_eq!(r.read_bits(9), Some(0x1FF));
        assert_eq!(r.read_bits(1), None);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn writer_rejects_oversized_value() {
        BitWriter::new().write_bits(0b100, 2);
    }

    #[test]
    fn full_width_writes_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0xDEAD_BEEF_CAFE_F00D, 64);
        w.write_bits(1, 1);
        w.write_bits(u64::MAX, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(64), Some(0xDEAD_BEEF_CAFE_F00D));
        assert_eq!(r.read_bits(1), Some(1));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
    }

    #[test]
    fn block_overflow_reported() {
        let mut w = BitWriter::new();
        w.write_bits(0, 64);
        for _ in 0..8 {
            w.write_bits(0, 57);
        }
        assert_eq!(Block64::from_writer(w).unwrap_err(), 64 + 8 * 57);
    }

    #[test]
    fn block_is_zero_padded() {
        let mut w = BitWriter::new();
        w.write_bits(0xFFFF, 16);
        let b = Block64::from_writer(w).unwrap();
        assert_eq!(b.as_bytes()[0], 0xFF);
        assert_eq!(b.as_bytes()[1], 0xFF);
        assert!(b.as_bytes()[2..].iter().all(|&x| x == 0));
    }

    #[test]
    fn cursor_matches_reader_on_fixed_pattern() {
        let mut w = BitWriter::new();
        for i in 0..32u64 {
            w.write_bits(i * 7 % 16, 4);
            w.write_bits(i % 2, 1);
        }
        let block = Block64::from_writer(w).unwrap();
        let cur = block.cursor();
        let r = block.reader();
        for pos in 0..BLOCK_BITS {
            let mut rr = r.clone();
            rr.seek(pos);
            assert_eq!(cur.window(pos, 15), rr.peek_bits_padded(15), "pos {pos}");
        }
    }

    /// A deterministic pseudo-random block for the exhaustive (all 64×8
    /// positions × all widths) window tests.
    fn scrambled_block(seed: u64) -> Block64 {
        let mut bytes = [0u8; BLOCK_BYTES];
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for b in &mut bytes {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (state >> 56) as u8;
        }
        Block64::from_bytes(bytes)
    }

    /// The per-probe oracle: all 64×8 windows from independent
    /// [`BlockCursor::window`] probes.
    fn per_probe_fill(cur: &BlockCursor, n: u32) -> [[u64; 8]; WINDOW_SEGMENTS] {
        let mut out = [[0u64; 8]; WINDOW_SEGMENTS];
        for (seg, row) in out.iter_mut().enumerate() {
            for (i, w) in row.iter_mut().enumerate() {
                *w = cur.window(seg * 8 + i, n);
            }
        }
        out
    }

    #[test]
    fn windows_all_tiers_identical_on_all_widths() {
        // Exhaustive over every (segment, offset) position a sub-decoder
        // can probe and every window width 1..=15, on several blocks:
        // dispatched == portable == SIMD (when supported) == 512
        // independent scalar probes.
        for seed in 0..4u64 {
            let block = scrambled_block(seed);
            let cur = block.cursor();
            for n in 1..=15u32 {
                let expect = per_probe_fill(&cur, n);
                let mut portable = [[0u64; 8]; WINDOW_SEGMENTS];
                cur.windows_all_portable(n, &mut portable);
                assert_eq!(portable, expect, "portable block fill diverged at n {n}");
                let mut dispatched = [[0u64; 8]; WINDOW_SEGMENTS];
                cur.windows_all(n, &mut dispatched);
                assert_eq!(
                    dispatched, expect,
                    "dispatched block fill diverged at n {n}"
                );
                let mut simd = [[0u64; 8]; WINDOW_SEGMENTS];
                if cur.windows_all_simd(n, &mut simd) {
                    assert_eq!(simd, expect, "SIMD block fill diverged at n {n}");
                }
            }
        }
    }

    #[test]
    fn windows_all_matches_on_both_dispatch_arms() {
        // Pin each arm explicitly and compare against the portable fill,
        // so the dispatched path is exercised on whichever tiers the
        // host has regardless of the ambient dispatch state.
        let initial = window_dispatch();
        let block = scrambled_block(11);
        let cur = block.cursor();
        let mut expect = [[0u64; 8]; WINDOW_SEGMENTS];
        cur.windows_all_portable(15, &mut expect);
        for tier in [
            WindowDispatch::Portable,
            WindowDispatch::Avx2,
            WindowDispatch::Neon,
        ] {
            set_window_dispatch(tier);
            let mut got = [[0u64; 8]; WINDOW_SEGMENTS];
            cur.windows_all(15, &mut got);
            assert_eq!(got, expect, "block fill diverged on {tier:?}");
        }
        set_window_dispatch(initial);
    }

    #[test]
    fn dispatch_override_clamps_and_pins() {
        let initial = window_dispatch();
        // Portable is always installable.
        assert_eq!(
            set_window_dispatch(WindowDispatch::Portable),
            WindowDispatch::Portable
        );
        let block = scrambled_block(7);
        let cur = block.cursor();
        let mut expect = [[0u64; 8]; WINDOW_SEGMENTS];
        cur.windows_all_portable(15, &mut expect);
        let mut got = [[0u64; 8]; WINDOW_SEGMENTS];
        cur.windows_all(15, &mut got);
        assert_eq!(got, expect);
        // A SIMD tier installs iff the host supports it; otherwise it
        // clamps portable.
        for tier in [WindowDispatch::Avx2, WindowDispatch::Neon] {
            let installed = set_window_dispatch(tier);
            assert!(installed == tier || installed == WindowDispatch::Portable);
            cur.windows_all(15, &mut got);
            assert_eq!(got, expect);
        }
        set_window_dispatch(initial);
    }

    proptest! {
        #[test]
        fn windows_all_matches_reader_on_random_blocks(
            data in prop::collection::vec(any::<u8>(), 64),
            n in 1u32..=15,
        ) {
            let mut bytes = [0u8; BLOCK_BYTES];
            bytes.copy_from_slice(&data);
            let block = Block64::from_bytes(bytes);
            let cur = block.cursor();
            let mut fill = [[0u64; 8]; WINDOW_SEGMENTS];
            cur.windows_all(n, &mut fill);
            let mut portable = [[0u64; 8]; WINDOW_SEGMENTS];
            cur.windows_all_portable(n, &mut portable);
            prop_assert_eq!(portable, fill);
            let mut simd = [[0u64; 8]; WINDOW_SEGMENTS];
            if cur.windows_all_simd(n, &mut simd) {
                prop_assert_eq!(simd, fill);
            }
            // Every window agrees with the zero-padded reader, the
            // bit-level oracle.
            let mut r = block.reader();
            for (seg, row) in fill.iter().enumerate() {
                for (i, &w) in row.iter().enumerate() {
                    r.seek(seg * 8 + i);
                    prop_assert_eq!(w, r.peek_bits_padded(n));
                }
            }
        }

        #[test]
        fn roundtrip_random_fields(fields in prop::collection::vec((0u64..u64::MAX, 1u32..=64), 0..64)) {
            let mut w = BitWriter::new();
            let mut expect = Vec::new();
            for &(v, n) in &fields {
                let masked = if n == 64 { v } else { v & ((1u64 << n) - 1) };
                w.write_bits(masked, n);
                expect.push((masked, n));
            }
            let total = w.bit_len();
            prop_assert_eq!(total, fields.iter().map(|&(_, n)| n as usize).sum::<usize>());
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for (v, n) in expect {
                prop_assert_eq!(r.read_bits(n), Some(v));
            }
        }

        #[test]
        fn seek_and_reread_consistent(data in prop::collection::vec(any::<u8>(), 1..64), pos in 0usize..256) {
            let mut r = BitReader::new(&data);
            let pos = pos % (data.len() * 8);
            r.seek(pos);
            let a = r.peek_bits_padded(15);
            let b = r.peek_bits_padded(15);
            prop_assert_eq!(a, b);
            prop_assert_eq!(r.bit_pos(), pos);
        }

        #[test]
        fn cursor_agrees_with_reader(data in prop::collection::vec(any::<u8>(), 64), pos in 0usize..512, n in 1u32..=57) {
            let mut bytes = [0u8; BLOCK_BYTES];
            bytes.copy_from_slice(&data);
            let block = Block64::from_bytes(bytes);
            let cur = block.cursor();
            let mut r = block.reader();
            r.seek(pos);
            prop_assert_eq!(cur.window(pos, n), r.peek_bits_padded(n));
        }

        #[test]
        fn writer_matches_bitwise_reference(fields in prop::collection::vec((0u64..u64::MAX, 1u32..=64), 0..32)) {
            // Word-level writer vs a trivially-correct per-bit reference.
            let mut w = BitWriter::new();
            let mut reference: Vec<bool> = Vec::new();
            for &(v, n) in &fields {
                let masked = if n == 64 { v } else { v & ((1u64 << n) - 1) };
                w.write_bits(masked, n);
                for i in (0..n).rev() {
                    reference.push((masked >> i) & 1 == 1);
                }
            }
            let bytes = w.into_bytes();
            for (i, &bit) in reference.iter().enumerate() {
                let got = (bytes[i / 8] >> (7 - i % 8)) & 1 == 1;
                prop_assert_eq!(got, bit, "bit {}", i);
            }
        }
    }
}

//! Self-organizing per-segment compression (the ROADMAP's "tenth axis").
//!
//! The paper self-organizes *placement* — which value range lives in which
//! segment — from observed accesses. This module applies the same signals
//! to each segment's *encoding*: segments the workload keeps touching stay
//! raw for maximum scan speed, segments that go cold shrink into one of
//! three packed forms. Range predicates are evaluated **directly over the
//! packed data** — counting never decompresses:
//!
//! * **RLE** — `(key, run-length)` pairs in storage order; a range count
//!   sums the lengths of matching runs without expanding them;
//! * **FOR** (frame of reference) — values rebased against the segment
//!   minimum and bit-packed to the width of the local span; a range count
//!   rebases the query bounds once and compares packed fields;
//! * **Dictionary** — a sorted table of distinct keys plus bit-packed
//!   codes; a range probe binary-searches the table for the code interval
//!   and then counts codes.
//!
//! All three codecs operate on the order-preserving `u64` key projection
//! of [`ColumnValue`] (`to_key`/`from_key`), so one implementation serves
//! every value type; types wider than 64 bits ([`crate::paired::Pair`])
//! have no projection and simply stay raw.
//!
//! Encoding decisions are driven by [`EncodingPolicy`] over per-segment
//! [`SegmentHeat`] (read frequency vs. age, with hysteresis so a segment
//! never flip-flops) and re-evaluated at reorganization boundaries; see
//! `SegmentedColumn::encoding_pass` and `ReplicaTree::encoding_pass`.

use std::borrow::Cow;

use crate::range::ValueRange;
use crate::synopsis::PieceSynopsis;
use crate::value::ColumnValue;

/// Which physical representation a segment's payload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentEncoding {
    /// Plain `Vec<V>` — the scan-fastest form, and the only one available
    /// to types without a 64-bit key projection.
    Raw,
    /// Run-length encoding over equal adjacent values.
    Rle,
    /// Frame-of-reference bit-packing against the segment minimum.
    For,
    /// Sorted dictionary of distinct keys + bit-packed codes.
    Dict,
}

impl SegmentEncoding {
    /// All encodings, raw first.
    pub const ALL: [SegmentEncoding; 4] = [
        SegmentEncoding::Raw,
        SegmentEncoding::Rle,
        SegmentEncoding::For,
        SegmentEncoding::Dict,
    ];

    /// Stable lowercase token (CLI/CSV naming).
    pub fn token(self) -> &'static str {
        match self {
            SegmentEncoding::Raw => "raw",
            SegmentEncoding::Rle => "rle",
            SegmentEncoding::For => "for",
            SegmentEncoding::Dict => "dict",
        }
    }

    /// Parses [`Self::token`] output.
    pub fn from_token(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|e| e.token() == s)
    }
}

impl std::fmt::Display for SegmentEncoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// Whether `V` has a packed representation at all.
pub fn packable<V: ColumnValue>() -> bool {
    V::from_f64(0.0).to_key().is_some()
}

// ---------------------------------------------------------------------------
// Bit-packed word layout (shared by FOR and Dict codes)
// ---------------------------------------------------------------------------
//
// Fields never straddle word boundaries: each 64-bit word holds
// `64 / width` fields, low bits first. Slightly less dense than straddling
// layouts but the extract is one shift+mask, which LLVM unrolls and
// vectorizes.

#[inline]
fn fields_per_word(width: u32) -> usize {
    debug_assert!((1..=64).contains(&width));
    (64 / width) as usize
}

#[inline]
fn field_mask(width: u32) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Bits needed to represent `max_delta` (at least 1 so the layout is valid).
#[inline]
fn bits_for(max_delta: u64) -> u32 {
    (64 - max_delta.leading_zeros()).max(1)
}

fn pack_fields(deltas: impl ExactSizeIterator<Item = u64>, width: u32) -> Vec<u64> {
    let fpw = fields_per_word(width);
    let len = deltas.len();
    let mut words = Vec::with_capacity(len.div_ceil(fpw));
    let mut cur = 0u64;
    let mut filled = 0usize;
    for d in deltas {
        debug_assert!(d <= field_mask(width));
        cur |= d << (filled as u32 * width);
        filled += 1;
        if filled == fpw {
            words.push(cur);
            cur = 0;
            filled = 0;
        }
    }
    if filled > 0 {
        words.push(cur);
    }
    words
}

/// Calls `f(field)` for each of the `len` packed fields, in storage order.
#[inline]
fn for_each_field(words: &[u64], width: u32, len: usize, mut f: impl FnMut(u64)) {
    let fpw = fields_per_word(width);
    let mask = field_mask(width);
    let mut remaining = len;
    for &w in words {
        let n = remaining.min(fpw);
        let mut x = w;
        for _ in 0..n {
            f(x & mask);
            x = x.checked_shr(width).unwrap_or(0);
        }
        remaining -= n;
    }
}

// ---------------------------------------------------------------------------
// The packed payload forms
// ---------------------------------------------------------------------------

/// A segment payload in one of the packed representations. Value-type
/// agnostic: everything is stored as order-preserving `u64` keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodedPayload {
    /// `(key, run length)` pairs in storage order.
    Rle {
        /// The runs; lengths are capped at `u32::MAX` (longer runs split).
        runs: Vec<(u64, u32)>,
    },
    /// Frame-of-reference bit-packing.
    For {
        /// The segment-minimum key every field is rebased against.
        base: u64,
        /// Bits per field, `1..=64`.
        width: u32,
        /// Tuple count (the words may have unused tail fields).
        len: u64,
        /// The packed fields, non-straddling.
        words: Vec<u64>,
    },
    /// Dictionary: sorted distinct keys, bit-packed code per tuple.
    Dict {
        /// Sorted, deduplicated keys.
        table: Vec<u64>,
        /// Bits per code, `1..=64`.
        width: u32,
        /// Tuple count.
        len: u64,
        /// The packed codes, non-straddling.
        words: Vec<u64>,
    },
}

impl EncodedPayload {
    /// Which codec this payload uses.
    pub fn encoding(&self) -> SegmentEncoding {
        match self {
            EncodedPayload::Rle { .. } => SegmentEncoding::Rle,
            EncodedPayload::For { .. } => SegmentEncoding::For,
            EncodedPayload::Dict { .. } => SegmentEncoding::Dict,
        }
    }

    /// Tuple count.
    pub fn len(&self) -> u64 {
        match self {
            EncodedPayload::Rle { runs } => runs.iter().map(|&(_, n)| n as u64).sum(),
            EncodedPayload::For { len, .. } | EncodedPayload::Dict { len, .. } => *len,
        }
    }

    /// Whether the payload holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encoded footprint in bytes — the unit `segment_bytes` reports so
    /// the tracker, placement balance and sharded executor all see the
    /// real cost of a packed segment.
    pub fn bytes(&self) -> u64 {
        match self {
            // 8-byte key + 4-byte run length per run.
            EncodedPayload::Rle { runs } => runs.len() as u64 * 12,
            // base + width header, then the packed words.
            EncodedPayload::For { words, .. } => 16 + words.len() as u64 * 8,
            // the table, a width/len header, then the packed codes.
            EncodedPayload::Dict { table, words, .. } => {
                table.len() as u64 * 8 + 16 + words.len() as u64 * 8
            }
        }
    }

    /// Exact `(min, max)` of the stored keys, `None` when empty — the
    /// packed half of a piece synopsis, derived without decoding. RLE
    /// folds its runs; Dict reads the ends of its sorted table O(1)
    /// (packing builds the table from exactly the distinct keys present);
    /// FOR's `base` is its minimum by construction — frame-of-reference
    /// bounds come "for free" — but the width rounds up to whole bits, so
    /// the exact maximum takes one pass over the packed fields (the
    /// min-field fold rides along for hand-built payloads whose base sits
    /// below the data).
    pub fn key_bounds(&self) -> Option<(u64, u64)> {
        match self {
            EncodedPayload::Rle { runs } => runs.iter().map(|&(k, _)| k).fold(None, |b, k| {
                Some(match b {
                    None => (k, k),
                    Some((mn, mx)) => (mn.min(k), mx.max(k)),
                })
            }),
            EncodedPayload::For {
                base,
                width,
                len,
                words,
            } => {
                if *len == 0 {
                    return None;
                }
                let (mut min_d, mut max_d) = (u64::MAX, 0u64);
                for_each_field(words, *width, *len as usize, |d| {
                    min_d = min_d.min(d);
                    max_d = max_d.max(d);
                });
                Some((base.saturating_add(min_d), base.saturating_add(max_d)))
            }
            EncodedPayload::Dict { table, len, .. } => {
                if *len == 0 {
                    return None;
                }
                Some((*table.first()?, *table.last()?))
            }
        }
    }

    /// Counts stored keys inside `[lo_key, hi_key]` **without decoding** —
    /// the compressed-domain scan kernels.
    pub fn count_keys(&self, lo_key: u64, hi_key: u64) -> u64 {
        match self {
            EncodedPayload::Rle { runs } => {
                let mut acc = 0u64;
                for &(k, n) in runs {
                    acc += n as u64 * (u64::from(lo_key <= k) & u64::from(k <= hi_key));
                }
                acc
            }
            EncodedPayload::For {
                base,
                width,
                len,
                words,
            } => {
                if hi_key < *base {
                    return 0;
                }
                // Rebase the query once; fields compare in delta space.
                let lo = lo_key.saturating_sub(*base);
                let hi = hi_key - *base;
                let mut acc = 0u64;
                for_each_field(words, *width, *len as usize, |f| {
                    acc += u64::from(lo <= f) & u64::from(f <= hi);
                });
                acc
            }
            EncodedPayload::Dict {
                table,
                width,
                len,
                words,
            } => {
                // Probe the sorted code table: the matching codes form one
                // contiguous interval [c_lo, c_hi).
                let c_lo = table.partition_point(|&t| t < lo_key) as u64;
                let c_hi = table.partition_point(|&t| t <= hi_key) as u64;
                if c_lo >= c_hi {
                    return 0;
                }
                let mut acc = 0u64;
                for_each_field(words, *width, *len as usize, |c| {
                    acc += u64::from(c_lo <= c) & u64::from(c < c_hi);
                });
                acc
            }
        }
    }

    /// Three-way key partition count against `[lo_key, hi_key]`:
    /// `(below, inside, above)` — the split-decision input
    /// ([`crate::estimate::exact_pieces`]) computed in the packed domain.
    pub fn count_partition_keys(&self, lo_key: u64, hi_key: u64) -> (u64, u64, u64) {
        let (mut below, mut above) = (0u64, 0u64);
        match self {
            EncodedPayload::Rle { runs } => {
                for &(k, n) in runs {
                    below += n as u64 * u64::from(k < lo_key);
                    above += n as u64 * u64::from(hi_key < k);
                }
            }
            EncodedPayload::For {
                base,
                width,
                len,
                words,
            } => {
                // Rebase once. `lo` saturates to 0 when lo_key <= base
                // (no field can be below); `hi_key < base` means every
                // field is above the query.
                let lo = lo_key.saturating_sub(*base);
                let hi_under = hi_key.checked_sub(*base);
                for_each_field(words, *width, *len as usize, |f| {
                    below += u64::from(f < lo);
                    above += match hi_under {
                        Some(hi) => u64::from(hi < f),
                        None => 1,
                    };
                });
            }
            EncodedPayload::Dict {
                table,
                width,
                len,
                words,
            } => {
                let c_lo = table.partition_point(|&t| t < lo_key) as u64;
                let c_hi = table.partition_point(|&t| t <= hi_key) as u64;
                for_each_field(words, *width, *len as usize, |c| {
                    below += u64::from(c < c_lo);
                    above += u64::from(c >= c_hi);
                });
            }
        }
        let inside = self.len() - below - above;
        (below, inside, above)
    }

    /// Calls `f(key, multiplicity)` for every stored key inside
    /// `[lo_key, hi_key]` — the decode-free visitor behind the fused
    /// packed aggregates.
    pub fn visit_keys_in(&self, lo_key: u64, hi_key: u64, mut f: impl FnMut(u64, u64)) {
        match self {
            EncodedPayload::Rle { runs } => {
                for &(k, n) in runs {
                    if lo_key <= k && k <= hi_key {
                        f(k, n as u64);
                    }
                }
            }
            EncodedPayload::For {
                base,
                width,
                len,
                words,
            } => {
                if hi_key < *base {
                    return;
                }
                let lo = lo_key.saturating_sub(*base);
                let hi = hi_key - *base;
                for_each_field(words, *width, *len as usize, |d| {
                    if lo <= d && d <= hi {
                        f(*base + d, 1);
                    }
                });
            }
            EncodedPayload::Dict {
                table,
                width,
                len,
                words,
            } => {
                let c_lo = table.partition_point(|&t| t < lo_key) as u64;
                let c_hi = table.partition_point(|&t| t <= hi_key) as u64;
                if c_lo >= c_hi {
                    return;
                }
                for_each_field(words, *width, *len as usize, |c| {
                    if c_lo <= c && c < c_hi {
                        f(table[c as usize], 1);
                    }
                });
            }
        }
    }

    /// Iterates every stored key in storage order.
    pub fn visit_all_keys(&self, mut f: impl FnMut(u64, u64)) {
        match self {
            EncodedPayload::Rle { runs } => {
                for &(k, n) in runs {
                    f(k, n as u64);
                }
            }
            EncodedPayload::For {
                base,
                width,
                len,
                words,
            } => {
                for_each_field(words, *width, *len as usize, |d| f(*base + d, 1));
            }
            EncodedPayload::Dict {
                table,
                width,
                len,
                words,
            } => {
                for_each_field(words, *width, *len as usize, |c| f(table[c as usize], 1));
            }
        }
    }

    /// Structural + decodability validation: every key must decode to a
    /// `V` inside `range`. Used by the store on load so a corrupt or
    /// wrong-typed file fails loudly instead of materializing garbage.
    pub fn validate_for<V: ColumnValue>(&self, range: &ValueRange<V>) -> Result<(), String> {
        if let EncodedPayload::Dict { table, .. } = self {
            if !table.windows(2).all(|w| w[0] < w[1]) {
                return Err("dictionary table is not sorted/deduplicated".into());
            }
        }
        let mut err: Option<String> = None;
        self.visit_all_keys(|k, _| {
            if err.is_some() {
                return;
            }
            match V::from_key(k) {
                Some(v) if range.contains(v) => {}
                Some(v) => err = Some(format!("decoded value {v:?} outside segment range")),
                None => err = Some(format!("key {k:#x} does not decode")),
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    // -- wire (de)serialization: flat u64 words for the segment store -----

    /// Stable one-byte codec tag for the on-disk header (0 is raw).
    pub fn wire_tag(&self) -> u8 {
        match self {
            EncodedPayload::Rle { .. } => 1,
            EncodedPayload::For { .. } => 2,
            EncodedPayload::Dict { .. } => 3,
        }
    }

    /// Serializes the payload to a flat word vector — the exact in-memory
    /// representation, so checkpointing never decodes.
    pub fn to_words(&self) -> Vec<u64> {
        match self {
            EncodedPayload::Rle { runs } => {
                let mut w = Vec::with_capacity(1 + runs.len() * 2);
                w.push(runs.len() as u64);
                for &(k, n) in runs {
                    w.push(k);
                    w.push(n as u64);
                }
                w
            }
            EncodedPayload::For {
                base,
                width,
                len,
                words,
            } => {
                let mut w = Vec::with_capacity(4 + words.len());
                w.extend([*base, *width as u64, *len, words.len() as u64]);
                w.extend_from_slice(words);
                w
            }
            EncodedPayload::Dict {
                table,
                width,
                len,
                words,
            } => {
                let mut w = Vec::with_capacity(4 + table.len() + words.len());
                w.push(table.len() as u64);
                w.extend_from_slice(table);
                w.extend([*width as u64, *len, words.len() as u64]);
                w.extend_from_slice(words);
                w
            }
        }
    }

    /// Inverse of [`Self::to_words`]; `tag` selects the codec.
    pub fn from_words(tag: u8, w: &[u64]) -> Result<EncodedPayload, String> {
        let take = |i: usize| -> Result<u64, String> {
            w.get(i).copied().ok_or_else(|| "truncated payload".into())
        };
        match tag {
            1 => {
                let n = take(0)? as usize;
                if w.len() != 1 + n * 2 {
                    return Err("RLE payload length mismatch".into());
                }
                let mut runs = Vec::with_capacity(n);
                for i in 0..n {
                    let k = w[1 + i * 2];
                    let run = w[2 + i * 2];
                    let run = u32::try_from(run).map_err(|_| "RLE run length overflow")?;
                    runs.push((k, run));
                }
                Ok(EncodedPayload::Rle { runs })
            }
            2 => {
                let base = take(0)?;
                let width = u32::try_from(take(1)?).map_err(|_| "bad FOR width")?;
                if !(1..=64).contains(&width) {
                    return Err("FOR width out of range".into());
                }
                let len = take(2)?;
                let n_words = take(3)? as usize;
                if w.len() != 4 + n_words {
                    return Err("FOR payload length mismatch".into());
                }
                if n_words != (len as usize).div_ceil(fields_per_word(width)) {
                    return Err("FOR word count inconsistent with len/width".into());
                }
                Ok(EncodedPayload::For {
                    base,
                    width,
                    len,
                    words: w[4..].to_vec(),
                })
            }
            3 => {
                let t = take(0)? as usize;
                if w.len() < 1 + t + 3 {
                    return Err("truncated dictionary payload".into());
                }
                let table = w[1..1 + t].to_vec();
                let width = u32::try_from(w[1 + t]).map_err(|_| "bad dict width")?;
                if !(1..=64).contains(&width) {
                    return Err("dict width out of range".into());
                }
                let len = w[2 + t];
                let n_words = w[3 + t] as usize;
                if w.len() != 4 + t + n_words {
                    return Err("dict payload length mismatch".into());
                }
                if n_words != (len as usize).div_ceil(fields_per_word(width)) {
                    return Err("dict word count inconsistent with len/width".into());
                }
                let code_words = &w[4 + t..];
                if table.is_empty() && len > 0 {
                    return Err("dict has codes but no table".into());
                }
                let max_code = table.len().saturating_sub(1) as u64;
                let mut bad = false;
                for_each_field(code_words, width, len as usize, |c| bad |= c > max_code);
                if bad {
                    return Err("dict code out of table range".into());
                }
                Ok(EncodedPayload::Dict {
                    table,
                    width,
                    len,
                    words: code_words.to_vec(),
                })
            }
            t => Err(format!("unknown payload tag {t}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding: values -> packed payload
// ---------------------------------------------------------------------------

/// Encodes `values` (storage order preserved) with the requested codec.
/// Returns `None` when `V` has no key projection — such segments stay raw.
pub fn encode<V: ColumnValue>(values: &[V], enc: SegmentEncoding) -> Option<EncodedPayload> {
    if !packable::<V>() {
        return None;
    }
    let keys: Vec<u64> = values
        .iter()
        // soc-lint: allow(L1-panic-free, packing is only attempted for keyed value types)
        .map(|v| v.to_key().expect("packable type"))
        .collect();
    Some(encode_keys(&keys, enc))
}

fn encode_keys(keys: &[u64], enc: SegmentEncoding) -> EncodedPayload {
    match enc {
        SegmentEncoding::Raw => unreachable!("raw is not a packed encoding"),
        SegmentEncoding::Rle => {
            let mut runs: Vec<(u64, u32)> = Vec::new();
            for &k in keys {
                match runs.last_mut() {
                    Some((rk, n)) if *rk == k && *n < u32::MAX => *n += 1,
                    _ => runs.push((k, 1)),
                }
            }
            EncodedPayload::Rle { runs }
        }
        SegmentEncoding::For => {
            let base = keys.iter().copied().min().unwrap_or(0);
            let max = keys.iter().copied().max().unwrap_or(0);
            let width = bits_for(max - base);
            let words = pack_fields(keys.iter().map(|&k| k - base), width);
            EncodedPayload::For {
                base,
                width,
                len: keys.len() as u64,
                words,
            }
        }
        SegmentEncoding::Dict => {
            let mut table: Vec<u64> = keys.to_vec();
            table.sort_unstable();
            table.dedup();
            let width = bits_for(table.len().saturating_sub(1) as u64);
            let words = pack_fields(
                keys.iter().map(|&k| {
                    table.partition_point(|&t| t < k) as u64 // exact: k is in table
                }),
                width,
            );
            EncodedPayload::Dict {
                table,
                width,
                len: keys.len() as u64,
                words,
            }
        }
    }
}

/// Sizes each codec without building it, then builds only the smallest —
/// returns `None` when no codec beats the raw footprint (or `V` is not
/// packable). This is the self-organizing codec choice: per segment, from
/// the segment's own data.
pub fn best_encoding<V: ColumnValue>(values: &[V]) -> Option<EncodedPayload> {
    if values.is_empty() || !packable::<V>() {
        return None;
    }
    let keys: Vec<u64> = values
        .iter()
        // soc-lint: allow(L1-panic-free, packing is only attempted for keyed value types)
        .map(|v| v.to_key().expect("packable type"))
        .collect();
    let raw_bytes = values.len() as u64 * V::BYTES;
    let n = keys.len() as u64;

    // One pass: run count + min/max.
    let mut runs = 1u64;
    let mut min = keys[0];
    let mut max = keys[0];
    for w in keys.windows(2) {
        runs += u64::from(w[0] != w[1]);
        min = min.min(w[1]);
        max = max.max(w[1]);
    }
    let rle_bytes = runs * 12;
    let for_width = bits_for(max - min);
    let for_bytes = 16 + (n as usize).div_ceil(fields_per_word(for_width)) as u64 * 8;
    // Distinct count needs a sort; only worth sizing when RLE/FOR leave
    // room for a dictionary win (every dict entry costs 8 bytes alone).
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    let dict_width = bits_for(sorted.len().saturating_sub(1) as u64);
    let dict_bytes = sorted.len() as u64 * 8
        + 16
        + (n as usize).div_ceil(fields_per_word(dict_width)) as u64 * 8;

    let (enc, bytes) = [
        (SegmentEncoding::Rle, rle_bytes),
        (SegmentEncoding::For, for_bytes),
        (SegmentEncoding::Dict, dict_bytes),
    ]
    .into_iter()
    .min_by_key(|&(_, b)| b)
    // soc-lint: allow(L1-panic-free, the candidates array holds exactly three entries)
    .expect("three candidates");
    if bytes >= raw_bytes {
        return None;
    }
    Some(encode_keys(&keys, enc))
}

// ---------------------------------------------------------------------------
// The shared payload type: what a segment (or replica node) actually holds
// ---------------------------------------------------------------------------

/// A segment's physical payload: raw values or one of the packed forms.
///
/// This is the **one shared helper** every strategy's storage accounting
/// routes through: [`Self::bytes`] is the encoded footprint, identical in
/// meaning across segmentation, replication, the static baselines and the
/// store.
#[derive(Debug, Clone)]
pub enum PiecePayload<V> {
    /// Plain values in storage order.
    Raw(Vec<V>),
    /// A packed representation (keys).
    Packed(EncodedPayload),
}

impl<V: ColumnValue> PiecePayload<V> {
    /// Tuple count.
    pub fn len(&self) -> u64 {
        match self {
            PiecePayload::Raw(v) => v.len() as u64,
            PiecePayload::Packed(p) => p.len(),
        }
    }

    /// Whether the payload holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical footprint in bytes — raw tuples × width, or the encoded
    /// size. The single source of truth for `segment_bytes`.
    pub fn bytes(&self) -> u64 {
        match self {
            PiecePayload::Raw(v) => v.len() as u64 * V::BYTES,
            PiecePayload::Packed(p) => p.bytes(),
        }
    }

    /// The current encoding.
    pub fn encoding(&self) -> SegmentEncoding {
        match self {
            PiecePayload::Raw(_) => SegmentEncoding::Raw,
            PiecePayload::Packed(p) => p.encoding(),
        }
    }

    /// The raw slice, when raw.
    pub fn raw_values(&self) -> Option<&[V]> {
        match self {
            PiecePayload::Raw(v) => Some(v),
            PiecePayload::Packed(_) => None,
        }
    }

    /// The values in storage order, decoding only if packed.
    pub fn decoded(&self) -> Cow<'_, [V]> {
        match self {
            PiecePayload::Raw(v) => Cow::Borrowed(v),
            PiecePayload::Packed(p) => {
                let mut out = Vec::with_capacity(p.len() as usize);
                p.visit_all_keys(|k, n| {
                    // soc-lint: allow(L1-panic-free, keys round-trip: produced by to_key on the same value type)
                    let v = V::from_key(k).expect("packed key decodes");
                    out.extend(std::iter::repeat_n(v, n as usize));
                });
                Cow::Owned(out)
            }
        }
    }

    /// Consumes the payload, returning decoded values.
    pub fn into_values(self) -> Vec<V> {
        match self {
            PiecePayload::Raw(v) => v,
            packed => packed.decoded().into_owned(),
        }
    }

    fn query_keys(q: &ValueRange<V>) -> (u64, u64) {
        // soc-lint: allow(L1-panic-free, a packed payload exists only for keyed value types)
        let lo = q.lo().to_key().expect("packed payload implies keyed type");
        // soc-lint: allow(L1-panic-free, a packed payload exists only for keyed value types)
        let hi = q.hi().to_key().expect("packed payload implies keyed type");
        (lo, hi)
    }

    /// Counts stored values inside `q`. Packed payloads are counted in the
    /// compressed domain — no value is ever decoded.
    pub fn count_range(&self, q: &ValueRange<V>) -> u64 {
        match self {
            PiecePayload::Raw(v) => crate::kernels::count_range(v, q),
            PiecePayload::Packed(p) => {
                let (lo, hi) = Self::query_keys(q);
                p.count_keys(lo, hi)
            }
        }
    }

    /// Three-way partition count against `q` (split decisions), computed
    /// in the compressed domain for packed payloads.
    pub fn count_partition(&self, q: &ValueRange<V>) -> (u64, u64, u64) {
        match self {
            PiecePayload::Raw(v) => crate::kernels::count_partition(v, q),
            PiecePayload::Packed(p) => {
                let (lo, hi) = Self::query_keys(q);
                p.count_partition_keys(lo, hi)
            }
        }
    }

    /// Appends the stored values inside `q` to `out` — only matching
    /// tuples materialize from a packed payload.
    pub fn collect_range(&self, q: &ValueRange<V>, out: &mut Vec<V>) {
        match self {
            PiecePayload::Raw(v) => crate::kernels::collect_range(v, q, out),
            PiecePayload::Packed(p) => {
                let (lo, hi) = Self::query_keys(q);
                p.visit_keys_in(lo, hi, |k, n| {
                    // soc-lint: allow(L1-panic-free, keys round-trip: produced by to_key on the same value type)
                    let v = V::from_key(k).expect("packed key decodes");
                    out.extend(std::iter::repeat_n(v, n as usize));
                });
            }
        }
    }

    /// Appends every stored value to `out` (the covering fast path).
    pub fn collect_all(&self, out: &mut Vec<V>) {
        match self {
            PiecePayload::Raw(v) => out.extend_from_slice(v),
            PiecePayload::Packed(p) => {
                out.reserve(p.len() as usize);
                p.visit_all_keys(|k, n| {
                    // soc-lint: allow(L1-panic-free, keys round-trip: produced by to_key on the same value type)
                    let v = V::from_key(k).expect("packed key decodes");
                    out.extend(std::iter::repeat_n(v, n as usize));
                });
            }
        }
    }

    /// The piece's zone-map synopsis — exact min/max/count/sum, derived
    /// without materializing a packed payload. The sum folds decoded keys
    /// with their multiplicities; for integer columns every partial sum is
    /// exact in `f64` (below 2^53), so it equals the sum of the decoded
    /// values bit for bit. `None` for an
    /// empty payload (or keys that no longer decode, which
    /// [`EncodedPayload::validate_for`] rejects upstream).
    pub fn synopsis(&self) -> Option<PieceSynopsis<V>> {
        match self {
            PiecePayload::Raw(v) => PieceSynopsis::from_values(v),
            PiecePayload::Packed(p) => {
                let (lo, hi) = p.key_bounds()?;
                let min = V::from_key(lo)?;
                let max = V::from_key(hi)?;
                let mut sum = 0.0f64;
                p.visit_all_keys(|k, n| {
                    if let Some(v) = V::from_key(k) {
                        sum += v.to_f64() * n as f64;
                    }
                });
                Some(PieceSynopsis::new(min, max, p.len(), sum))
            }
        }
    }

    /// Re-encodes in place. `Raw` decodes a packed payload; a packed
    /// target re-encodes from the decoded values. Returns `false` (and
    /// leaves the payload untouched) when the representation would not
    /// change or `V` cannot pack.
    pub fn reencode(&mut self, enc: SegmentEncoding) -> bool {
        if self.encoding() == enc {
            return false;
        }
        match enc {
            SegmentEncoding::Raw => {
                let values = self.decoded().into_owned();
                *self = PiecePayload::Raw(values);
                true
            }
            packed => {
                let values = self.decoded();
                match encode(&values, packed) {
                    Some(p) => {
                        *self = PiecePayload::Packed(p);
                        true
                    }
                    None => false,
                }
            }
        }
    }

    /// Packs with whichever codec shrinks the payload most, if any does.
    /// Returns `false` when the payload stays as-is.
    pub fn pack_best(&mut self) -> bool {
        let values = match self {
            PiecePayload::Raw(v) => v,
            PiecePayload::Packed(_) => return false, // already chosen once
        };
        match best_encoding(values) {
            Some(p) => {
                *self = PiecePayload::Packed(p);
                true
            }
            None => false,
        }
    }
}

/// Raw footprint of `len` tuples of `V` — the shared byte helper for
/// strategies whose pieces are slices of one array (cracking, the sorted
/// baseline) rather than owned payloads.
pub fn raw_piece_bytes<V: ColumnValue>(len: u64) -> u64 {
    len * V::BYTES
}

// ---------------------------------------------------------------------------
// The self-organizing policy: heat, age and hysteresis
// ---------------------------------------------------------------------------

/// Per-segment read-recency signal — the same access observations that
/// drive splitting, reused for the encoding choice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentHeat {
    /// Tick (query sequence number) the segment was created at.
    pub born: u64,
    /// Tick of the most recent read.
    pub last_read: u64,
    /// Reads observed since the last encoding flip.
    pub reads_since_flip: u64,
    /// Tick of the last encoding flip (hysteresis anchor).
    pub last_flip: u64,
}

impl SegmentHeat {
    /// Heat of a segment born at `tick`.
    pub fn born_at(tick: u64) -> Self {
        SegmentHeat {
            born: tick,
            last_read: tick,
            reads_since_flip: 0,
            last_flip: tick,
        }
    }

    /// Records a read at `tick`.
    pub fn note_read(&mut self, tick: u64) {
        self.last_read = self.last_read.max(tick);
        self.reads_since_flip += 1;
    }

    /// Records an encoding flip at `tick`, resetting the read counter.
    pub fn note_flip(&mut self, tick: u64) {
        self.last_flip = tick;
        self.reads_since_flip = 0;
    }
}

/// When to pack a cold segment and when to promote a hot one back to raw.
///
/// Hysteresis is built in twice: a segment must be idle for
/// [`Self::cold_after`] ticks before packing, must collect
/// [`Self::promote_reads`] reads before unpacking, and never flips twice
/// within [`Self::min_flip_gap`] ticks — so an oscillating workload cannot
/// make a segment thrash between representations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodingPolicy {
    /// A segment unread for this many ticks is cold enough to pack.
    pub cold_after: u64,
    /// A packed segment promotes back to raw after this many reads.
    pub promote_reads: u64,
    /// Minimum ticks between two encoding flips of one segment.
    pub min_flip_gap: u64,
}

impl Default for EncodingPolicy {
    fn default() -> Self {
        EncodingPolicy {
            cold_after: 32,
            promote_reads: 2,
            min_flip_gap: 16,
        }
    }
}

impl EncodingPolicy {
    /// An aggressive policy for tests: packs after `cold_after` idle
    /// ticks with minimal hysteresis.
    pub fn eager(cold_after: u64) -> Self {
        EncodingPolicy {
            cold_after,
            promote_reads: 1,
            min_flip_gap: cold_after.max(1),
        }
    }

    /// The decision at `tick` for a segment with `heat`, currently packed
    /// or not: `Some(true)` = pack now, `Some(false)` = unpack now,
    /// `None` = keep as is.
    pub fn decide(&self, heat: &SegmentHeat, tick: u64, packed: bool) -> Option<bool> {
        if tick.saturating_sub(heat.last_flip) < self.min_flip_gap {
            return None;
        }
        if packed {
            (heat.reads_since_flip >= self.promote_reads).then_some(false)
        } else {
            let idle = tick.saturating_sub(heat.last_read.max(heat.born));
            (idle >= self.cold_after).then_some(true)
        }
    }
}

/// Applies one encoding-mode decision to a payload/heat pair at `tick`.
/// Returns `(old_bytes, new_bytes)` when the representation changed.
///
/// This is the single place the [`EncodingMode`] semantics live; segments
/// and replica nodes both route their encoding sweeps through it. A failed
/// adaptive pack (incompressible or unpackable payload) still advances the
/// hysteresis anchor, so the sweep does not re-size the same hopeless
/// payload on every pass.
pub fn apply_encoding_step<V: ColumnValue>(
    payload: &mut PiecePayload<V>,
    heat: &mut SegmentHeat,
    mode: &EncodingMode,
    tick: u64,
) -> Option<(u64, u64)> {
    let old = payload.bytes();
    let changed = match mode {
        EncodingMode::Raw => false,
        EncodingMode::Fixed(enc) => {
            let changed = payload.reencode(*enc);
            if changed {
                heat.note_flip(tick);
            }
            changed
        }
        EncodingMode::Adaptive(policy) => {
            let packed = payload.encoding() != SegmentEncoding::Raw;
            match policy.decide(heat, tick, packed) {
                Some(true) => {
                    let changed = payload.pack_best();
                    heat.note_flip(tick);
                    changed
                }
                Some(false) => {
                    let changed = payload.reencode(SegmentEncoding::Raw);
                    if changed {
                        heat.note_flip(tick);
                    }
                    changed
                }
                None => false,
            }
        }
    };
    changed.then(|| (old, payload.bytes()))
}

/// How a strategy chooses segment encodings — the spec-level knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncodingMode {
    /// Everything stays raw (the pre-compression behavior; default).
    #[default]
    Raw,
    /// Force one codec onto every segment (the static ablation arms).
    Fixed(SegmentEncoding),
    /// Self-organizing per-segment choice driven by [`EncodingPolicy`].
    Adaptive(EncodingPolicy),
}

impl EncodingMode {
    /// Stable lowercase token (CLI/CSV naming): `raw`, `rle`, `for`,
    /// `dict` or `adaptive`.
    pub fn token(self) -> &'static str {
        match self {
            EncodingMode::Raw => "raw",
            EncodingMode::Fixed(e) => e.token(),
            EncodingMode::Adaptive(_) => "adaptive",
        }
    }

    /// Parses [`Self::token`] output (with the default adaptive policy).
    pub fn from_token(s: &str) -> Option<Self> {
        match s {
            "raw" => Some(EncodingMode::Raw),
            "adaptive" => Some(EncodingMode::Adaptive(EncodingPolicy::default())),
            other => SegmentEncoding::from_token(other).map(|e| match e {
                SegmentEncoding::Raw => EncodingMode::Raw,
                packed => EncodingMode::Fixed(packed),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paired::Pair;
    use crate::value::OrdF64;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn payload_of(values: &[u32], enc: SegmentEncoding) -> PiecePayload<u32> {
        PiecePayload::Packed(encode(values, enc).expect("u32 packs"))
    }

    fn mixed_values(n: usize, seed: u64) -> Vec<u32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                // Duplicates + clustering so every codec has structure.
                let base = rng.gen_range(0..50u32) * 1000;
                base + rng.gen_range(0..10u32)
            })
            .collect()
    }

    #[test]
    fn key_bounds_are_exact_for_every_codec() {
        let values = mixed_values(5_000, 9);
        let mn = *values.iter().min().expect("non-empty");
        let mx = *values.iter().max().expect("non-empty");
        for enc in [
            SegmentEncoding::Rle,
            SegmentEncoding::For,
            SegmentEncoding::Dict,
        ] {
            let PiecePayload::Packed(p) = payload_of(&values, enc) else {
                panic!("packed")
            };
            let (lo, hi) = p.key_bounds().expect("non-empty payload has bounds");
            assert_eq!(u32::from_key(lo), Some(mn), "{enc}");
            assert_eq!(u32::from_key(hi), Some(mx), "{enc}");
        }
    }

    #[test]
    fn synopsis_matches_decoded_aggregates_for_every_codec() {
        let values = mixed_values(3_000, 13);
        let raw = PiecePayload::Raw(values.clone());
        let raw_syn = raw.synopsis().expect("non-empty");
        let covering = ValueRange::must(0u32, u32::MAX);
        assert_eq!(raw_syn.count(), values.len() as u64);
        assert_eq!(
            raw_syn.sum().to_bits(),
            crate::kernels::sum_range(&values, &covering).to_bits(),
            "raw synopsis sum must reproduce a covering sum_range exactly"
        );
        for enc in [
            SegmentEncoding::Rle,
            SegmentEncoding::For,
            SegmentEncoding::Dict,
        ] {
            let packed = payload_of(&values, enc);
            let syn = packed.synopsis().expect("non-empty");
            assert_eq!(
                (syn.min(), syn.max()),
                (raw_syn.min(), raw_syn.max()),
                "{enc}"
            );
            assert_eq!(syn.count(), raw_syn.count(), "{enc}");
            assert_eq!(
                syn.sum().to_bits(),
                crate::kernels::sum_all(&packed.decoded()).to_bits(),
                "{enc}: packed synopsis sum must equal the decoded-value sum"
            );
        }
        assert!(PiecePayload::<u32>::Raw(Vec::new()).synopsis().is_none());
    }

    #[test]
    fn packed_counts_match_raw_for_every_codec() {
        let values = mixed_values(10_000, 1);
        let raw = PiecePayload::Raw(values.clone());
        for enc in [
            SegmentEncoding::Rle,
            SegmentEncoding::For,
            SegmentEncoding::Dict,
        ] {
            let packed = payload_of(&values, enc);
            for (lo, hi) in [(0, 60_000), (5_000, 25_000), (999, 999), (30_001, 30_004)] {
                let q = ValueRange::must(lo, hi);
                assert_eq!(packed.count_range(&q), raw.count_range(&q), "{enc} {q:?}");
                assert_eq!(
                    packed.count_partition(&q),
                    raw.count_partition(&q),
                    "{enc} {q:?}"
                );
            }
        }
    }

    #[test]
    fn packed_collect_matches_raw_multiset() {
        let values = mixed_values(3_000, 2);
        let q = ValueRange::must(4_000, 32_000);
        let mut expect = Vec::new();
        crate::kernels::collect_range(&values, &q, &mut expect);
        expect.sort_unstable();
        for enc in [
            SegmentEncoding::Rle,
            SegmentEncoding::For,
            SegmentEncoding::Dict,
        ] {
            let packed = payload_of(&values, enc);
            let mut got = Vec::new();
            packed.collect_range(&q, &mut got);
            got.sort_unstable();
            assert_eq!(got, expect, "{enc}");
        }
    }

    #[test]
    fn decoded_preserves_storage_order_for_for() {
        // FOR and RLE are order-preserving; dictionary codes too.
        let values = mixed_values(2_000, 3);
        for enc in [
            SegmentEncoding::Rle,
            SegmentEncoding::For,
            SegmentEncoding::Dict,
        ] {
            let packed = payload_of(&values, enc);
            let decoded = packed.decoded().into_owned();
            if enc == SegmentEncoding::Rle {
                // RLE merges equal-adjacent runs; order of distinct values
                // is preserved, multiset always.
                let mut a = decoded.clone();
                let mut b = values.clone();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b);
            } else {
                assert_eq!(decoded, values, "{enc}");
            }
        }
    }

    #[test]
    fn sorted_column_compresses_at_least_2x() {
        // A cold sorted column with duplicates: every codec's best case.
        let values: Vec<u32> = (0..40_000u32).map(|i| i / 8).collect();
        let raw_bytes = values.len() as u64 * 4;
        let best = best_encoding(&values).expect("sorted data compresses");
        assert!(
            best.bytes() * 2 <= raw_bytes,
            "expected >=2x reduction, got {} vs {raw_bytes}",
            best.bytes()
        );
    }

    #[test]
    fn best_encoding_declines_incompressible_data() {
        let mut rng = SmallRng::seed_from_u64(9);
        let values: Vec<u32> = (0..4_096).map(|_| rng.gen()).collect();
        // Full-width random u32: FOR needs ~32 bits (8 bytes/field in the
        // non-straddling layout), RLE has ~no runs, dict ~no duplicates.
        assert!(best_encoding(&values).is_none());
    }

    #[test]
    fn pair_values_never_pack() {
        let values = vec![Pair::new(1u32, 0), Pair::new(2, 1)];
        assert!(!packable::<Pair<u32>>());
        assert!(encode(&values, SegmentEncoding::For).is_none());
        let mut p = PiecePayload::Raw(values);
        assert!(!p.reencode(SegmentEncoding::Rle));
        assert_eq!(p.encoding(), SegmentEncoding::Raw);
    }

    #[test]
    fn float_payloads_roundtrip() {
        let values: Vec<OrdF64> = (0..500)
            .map(|i| OrdF64::from_finite(205.0 + (i % 50) as f64 * 0.01))
            .collect();
        for enc in [
            SegmentEncoding::Rle,
            SegmentEncoding::For,
            SegmentEncoding::Dict,
        ] {
            let packed = PiecePayload::Packed(encode(&values, enc).unwrap());
            let q = ValueRange::must(OrdF64::from_finite(205.1), OrdF64::from_finite(205.3));
            let raw = PiecePayload::Raw(values.clone());
            assert_eq!(packed.count_range(&q), raw.count_range(&q), "{enc}");
            let mut a = packed.decoded().into_owned();
            let mut b = values.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{enc}");
        }
    }

    #[test]
    fn wire_roundtrips_every_codec() {
        let values = mixed_values(2_345, 5);
        for enc in [
            SegmentEncoding::Rle,
            SegmentEncoding::For,
            SegmentEncoding::Dict,
        ] {
            let p = encode(&values, enc).unwrap();
            let words = p.to_words();
            let back = EncodedPayload::from_words(p.wire_tag(), &words).unwrap();
            assert_eq!(p, back, "{enc}");
        }
        assert!(EncodedPayload::from_words(9, &[]).is_err());
        assert!(EncodedPayload::from_words(1, &[5]).is_err());
    }

    #[test]
    fn validate_for_catches_out_of_range_keys() {
        let values: Vec<u32> = vec![10, 20, 30];
        let p = encode(&values, SegmentEncoding::For).unwrap();
        assert!(p.validate_for::<u32>(&ValueRange::must(0u32, 100)).is_ok());
        assert!(p.validate_for::<u32>(&ValueRange::must(0u32, 15)).is_err());
        // u16 can't represent a key that decodes fine for u32.
        let wide = encode(&[70_000u32], SegmentEncoding::Rle).unwrap();
        assert!(wide
            .validate_for::<u16>(&ValueRange::must(0u16, u16::MAX))
            .is_err());
    }

    #[test]
    fn full_width_for_payload_works() {
        // Forces width 64: i64 spanning the whole domain.
        let values: Vec<i64> = vec![i64::MIN, -1, 0, 1, i64::MAX];
        let p = PiecePayload::Packed(encode(&values, SegmentEncoding::For).unwrap());
        let q = ValueRange::must(-1i64, 1);
        assert_eq!(p.count_range(&q), 3);
        assert_eq!(p.decoded().into_owned(), values);
    }

    #[test]
    fn policy_hysteresis_prevents_flip_flop() {
        let policy = EncodingPolicy {
            cold_after: 8,
            promote_reads: 2,
            min_flip_gap: 8,
        };
        let mut heat = SegmentHeat::born_at(0);
        // Not yet cold.
        assert_eq!(policy.decide(&heat, 7, false), None);
        // Cold at tick 8+: pack.
        assert_eq!(policy.decide(&heat, 8, false), Some(true));
        heat.note_flip(8);
        // One read is not enough to promote; and within the flip gap
        // nothing moves either way.
        heat.note_read(10);
        assert_eq!(policy.decide(&heat, 10, true), None);
        heat.note_read(17);
        assert_eq!(policy.decide(&heat, 16, true), Some(false));
        heat.note_flip(16);
        // Freshly promoted and being read: stays raw.
        heat.note_read(24);
        assert_eq!(policy.decide(&heat, 24, false), None);
    }

    #[test]
    fn mode_tokens_roundtrip() {
        for t in ["raw", "rle", "for", "dict", "adaptive"] {
            let m = EncodingMode::from_token(t).unwrap();
            assert_eq!(m.token(), t);
        }
        assert_eq!(EncodingMode::from_token("zstd"), None);
    }
}

//! Device-resident buffers.
//!
//! Buffers are *typed* (the I/O semantics of the task layer map onto payload
//! kinds) and tagged with the [`SdkRepr`] they are currently interpreted as.
//! In this simulation the payload physically lives in host memory, but it is
//! owned by the device's bounded pool and can only be read back through
//! `retrieve_data` — the runtime never reaches around the interface.

use crate::sdk::SdkRepr;
use adamant_storage::fnv::{fnv1a_extend, fnv1a_word, fnv1a_words, FNV_OFFSET};
use std::any::Any;
use std::fmt;

/// Identifier for a buffer within one device's pool.
///
/// The paper's listings use a `short alias`; a `u64` newtype plays the same
/// role without collision risk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub u64);

impl fmt::Display for BufferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "buf#{}", self.0)
    }
}

/// A device-resident opaque structure (the paper's `HASH_TABLE` and
/// `GENERIC` I/O semantics — hash tables, custom tree indexes, …).
///
/// The device layer only needs to know its size (for pool accounting) and
/// how to clone it; the task layer downcasts through `as_any` to operate on
/// the concrete structure.
pub trait GenericPayload: Send + Sync + fmt::Debug {
    /// Bytes the structure occupies in device memory.
    fn byte_len(&self) -> u64;
    /// Logical element count (entries for a hash table).
    fn len(&self) -> usize;
    /// True when the structure holds no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Clones the structure behind the trait object.
    fn clone_box(&self) -> Box<dyn GenericPayload>;
    /// Downcasting support.
    fn as_any(&self) -> &dyn Any;
    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Typed buffer payload.
///
/// Kernels operate on these payloads directly, which keeps the whole engine
/// free of `unsafe` byte-casting while preserving per-element byte accounting
/// for the cost model.
#[derive(Debug)]
pub enum BufferData {
    /// 64-bit integers (`NUMERIC` semantics; 32-bit inputs are widened on
    /// placement, with the *transfer* still billed at their true width).
    I64(Vec<i64>),
    /// 64-bit floats (`NUMERIC`).
    F64(Vec<f64>),
    /// 32-bit positions (`POSITION` semantics).
    U32(Vec<u32>),
    /// Packed bitmap words (`BITMAP` semantics).
    BitWords(Vec<u64>),
    /// Raw bytes (`GENERIC` semantics, e.g. serialized custom structures).
    Raw(Vec<u8>),
    /// An opaque device-resident structure (`HASH_TABLE`/`GENERIC`).
    Generic(Box<dyn GenericPayload>),
}

impl Clone for BufferData {
    fn clone(&self) -> Self {
        match self {
            BufferData::I64(v) => BufferData::I64(v.clone()),
            BufferData::F64(v) => BufferData::F64(v.clone()),
            BufferData::U32(v) => BufferData::U32(v.clone()),
            BufferData::BitWords(v) => BufferData::BitWords(v.clone()),
            BufferData::Raw(v) => BufferData::Raw(v.clone()),
            BufferData::Generic(g) => BufferData::Generic(g.clone_box()),
        }
    }
}

impl PartialEq for BufferData {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (BufferData::I64(a), BufferData::I64(b)) => a == b,
            (BufferData::F64(a), BufferData::F64(b)) => a == b,
            (BufferData::U32(a), BufferData::U32(b)) => a == b,
            (BufferData::BitWords(a), BufferData::BitWords(b)) => a == b,
            (BufferData::Raw(a), BufferData::Raw(b)) => a == b,
            // Opaque structures are never considered equal.
            _ => false,
        }
    }
}

impl BufferData {
    /// Number of logical elements.
    pub fn len(&self) -> usize {
        match self {
            BufferData::I64(v) => v.len(),
            BufferData::F64(v) => v.len(),
            BufferData::U32(v) => v.len(),
            BufferData::BitWords(v) => v.len(),
            BufferData::Raw(v) => v.len(),
            BufferData::Generic(g) => g.len(),
        }
    }

    /// True when the payload holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes occupied in device memory.
    pub fn byte_len(&self) -> u64 {
        match self {
            BufferData::I64(v) => (v.len() * 8) as u64,
            BufferData::F64(v) => (v.len() * 8) as u64,
            BufferData::U32(v) => (v.len() * 4) as u64,
            BufferData::BitWords(v) => (v.len() * 8) as u64,
            BufferData::Raw(v) => v.len() as u64,
            BufferData::Generic(g) => g.byte_len(),
        }
    }

    /// Short kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            BufferData::I64(_) => "i64",
            BufferData::F64(_) => "f64",
            BufferData::U32(_) => "u32",
            BufferData::BitWords(_) => "bitwords",
            BufferData::Raw(_) => "raw",
            BufferData::Generic(_) => "generic",
        }
    }

    /// An empty payload of the same kind with reserved capacity.
    ///
    /// `Generic` payloads clone instead (an "empty like" of an opaque
    /// structure is not generally constructible).
    pub fn empty_like(&self, capacity: usize) -> BufferData {
        match self {
            BufferData::I64(_) => BufferData::I64(Vec::with_capacity(capacity)),
            BufferData::F64(_) => BufferData::F64(Vec::with_capacity(capacity)),
            BufferData::U32(_) => BufferData::U32(Vec::with_capacity(capacity)),
            BufferData::BitWords(_) => BufferData::BitWords(Vec::with_capacity(capacity)),
            BufferData::Raw(_) => BufferData::Raw(Vec::with_capacity(capacity)),
            BufferData::Generic(g) => BufferData::Generic(g.clone_box()),
        }
    }

    /// Copies elements `offset..offset+len` into a new payload.
    ///
    /// `Generic` payloads do not support slicing; they are cloned whole
    /// (chunking a hash table has no meaning — the runtime never does it).
    pub fn slice(&self, offset: usize, len: usize) -> BufferData {
        let (offset, end) = self.clamp(offset, len);
        match self {
            BufferData::I64(v) => BufferData::I64(v[offset..end].to_vec()),
            BufferData::F64(v) => BufferData::F64(v[offset..end].to_vec()),
            BufferData::U32(v) => BufferData::U32(v[offset..end].to_vec()),
            BufferData::BitWords(v) => BufferData::BitWords(v[offset..end].to_vec()),
            BufferData::Raw(v) => BufferData::Raw(v[offset..end].to_vec()),
            BufferData::Generic(g) => BufferData::Generic(g.clone_box()),
        }
    }

    /// The element range `offset..offset+len` clipped to the payload, as
    /// `(start, end)` with `start <= end <= len()`.
    fn clamp(&self, offset: usize, len: usize) -> (usize, usize) {
        let end = offset.saturating_add(len).min(self.len());
        (offset.min(end), end)
    }

    /// Borrows the payload as `i64`s.
    pub fn as_i64(&self) -> Option<&Vec<i64>> {
        match self {
            BufferData::I64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrows the payload as `f64`s.
    pub fn as_f64(&self) -> Option<&Vec<f64>> {
        match self {
            BufferData::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrows the payload as positions.
    pub fn as_u32(&self) -> Option<&Vec<u32>> {
        match self {
            BufferData::U32(v) => Some(v),
            _ => None,
        }
    }

    /// Borrows the payload as bitmap words.
    pub fn as_bitwords(&self) -> Option<&Vec<u64>> {
        match self {
            BufferData::BitWords(v) => Some(v),
            _ => None,
        }
    }

    /// Downcasts a generic payload to a concrete type.
    pub fn as_generic<T: 'static>(&self) -> Option<&T> {
        match self {
            BufferData::Generic(g) => g.as_any().downcast_ref::<T>(),
            _ => None,
        }
    }

    /// Mutably downcasts a generic payload to a concrete type.
    pub fn as_generic_mut<T: 'static>(&mut self) -> Option<&mut T> {
        match self {
            BufferData::Generic(g) => g.as_any_mut().downcast_mut::<T>(),
            _ => None,
        }
    }

    /// Content checksum of every element; see [`BufferData::checksum_range`].
    pub fn checksum(&self) -> u64 {
        self.checksum_range(0, self.len())
    }

    /// Content checksum of elements `offset..offset+len`, clamped as
    /// [`BufferData::slice`] clamps, computed in place: always equal to
    /// `self.slice(offset, len).checksum()`, without the copy.
    ///
    /// The transfer-integrity protocol compares this on both ends of a
    /// host↔device copy: the hub checksums what it sent, the device echoes
    /// the checksum of what it stored, and a mismatch triggers a retransmit.
    /// Checkpoint seals fold it in as well.
    ///
    /// Typed payloads fold one whole element per word-wise FNV-1a step
    /// ([`fnv1a_word`]): `I64` its value, `F64` its bit pattern, `U32` its
    /// value widened to `u64`, `BitWords` each word. Every step is a
    /// bijection of the running state and of the element, so changing any
    /// single element always changes the checksum. The fold starts from a
    /// seed per kind (the kind name hashed into the offset basis), so equal
    /// numbers held as different kinds checksum differently. `Raw` bytes
    /// keep the byte-wise fold. `Generic` payloads hash a structural marker
    /// (kind, element count, byte length) only — opaque structures are built
    /// *on* the device, never shipped over the simulated bus, so their
    /// content never transits — and ignore the range, as `slice` does.
    pub fn checksum_range(&self, offset: usize, len: usize) -> u64 {
        let (lo, hi) = self.clamp(offset, len);
        let seed = || fnv1a_extend(FNV_OFFSET, self.kind().as_bytes());
        match self {
            BufferData::I64(v) => fnv1a_words(seed(), &v[lo..hi]),
            BufferData::F64(v) => v[lo..hi]
                .iter()
                .fold(seed(), |h, x| fnv1a_word(h, x.to_bits())),
            BufferData::U32(v) => v[lo..hi]
                .iter()
                .fold(seed(), |h, &x| fnv1a_word(h, u64::from(x))),
            BufferData::BitWords(v) => v[lo..hi].iter().fold(seed(), |h, &w| fnv1a_word(h, w)),
            BufferData::Raw(v) => fnv1a_extend(FNV_OFFSET, &v[lo..hi]),
            BufferData::Generic(g) => {
                let h = fnv1a_extend(FNV_OFFSET, b"generic");
                let h = fnv1a_extend(h, &(g.len() as u64).to_le_bytes());
                fnv1a_extend(h, &g.byte_len().to_le_bytes())
            }
        }
    }

    /// Flips the low bit of the element at `element % len` (fault injection:
    /// a single-bit DMA error). Returns `false` when there is nothing to
    /// corrupt (empty or opaque payload), so the injector can count only
    /// flips that actually happened.
    pub fn flip_bit(&mut self, element: usize) -> bool {
        if self.is_empty() {
            return false;
        }
        let i = element % self.len();
        match self {
            BufferData::I64(v) => v[i] ^= 1,
            BufferData::F64(v) => v[i] = f64::from_bits(v[i].to_bits() ^ 1),
            BufferData::U32(v) => v[i] ^= 1,
            BufferData::BitWords(v) => v[i] ^= 1,
            BufferData::Raw(v) => v[i] ^= 1,
            BufferData::Generic(_) => return false,
        }
        true
    }
}

/// A buffer held by a device pool.
#[derive(Clone, Debug)]
pub struct Buffer {
    /// Current payload.
    pub data: BufferData,
    /// SDK representation this buffer is currently tagged as.
    pub repr: SdkRepr,
    /// Whether the buffer lives in the pinned (host-accessible) pool.
    pub pinned: bool,
    /// Bytes *reserved* in the pool for this buffer.
    ///
    /// `prepare_memory`/`add_pinned_memory` reserve a fixed region up front
    /// (as a real device allocation does); the payload may be smaller. Pool
    /// accounting always uses `reserved_bytes.max(data.byte_len())`.
    pub reserved_bytes: u64,
}

impl Buffer {
    /// Bytes this buffer occupies in pool accounting.
    pub fn footprint(&self) -> u64 {
        self.reserved_bytes.max(self.data.byte_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_lengths() {
        assert_eq!(BufferData::I64(vec![1, 2]).byte_len(), 16);
        assert_eq!(BufferData::U32(vec![1, 2, 3]).byte_len(), 12);
        assert_eq!(BufferData::BitWords(vec![0]).byte_len(), 8);
        assert_eq!(BufferData::Raw(vec![0; 5]).byte_len(), 5);
        assert_eq!(BufferData::F64(vec![]).byte_len(), 0);
    }

    #[test]
    fn slicing() {
        let d = BufferData::I64((0..10).collect());
        assert_eq!(d.slice(8, 5), BufferData::I64(vec![8, 9]));
        assert_eq!(d.slice(20, 5).len(), 0);
    }

    #[test]
    fn empty_like_preserves_kind() {
        let d = BufferData::U32(vec![1]);
        let e = d.empty_like(10);
        assert_eq!(e.kind(), "u32");
        assert!(e.is_empty());
    }

    /// The typed checksums spelled out from the FNV-1a definition, with its
    /// constants written out here rather than imported: hash the kind name
    /// a byte at a time into the offset basis, then fold each element's
    /// 64-bit word as `h = (h ^ w) * prime`.
    fn reference_checksum(kind: &str, words: &[u64]) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        for &b in kind.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        for &w in words {
            h ^= w;
            h = h.wrapping_mul(PRIME);
        }
        h
    }

    #[test]
    fn checksums_match_fixed_values() {
        let typed = [
            (
                BufferData::I64(vec![1, -2, 3_000_000_000, i64::MIN]),
                vec![1, -2i64 as u64, 3_000_000_000, 1 << 63],
                0x82fc_8ee3_fde4_1ac9,
            ),
            (
                BufferData::F64(vec![0.5, -1.25]),
                vec![0x3fe0_0000_0000_0000, 0xbff4_0000_0000_0000],
                0xef7b_7b8b_77f8_8563,
            ),
            (
                BufferData::U32(vec![7, u32::MAX]),
                vec![7, 0xffff_ffff],
                0x010c_9a6b_9d91_0407,
            ),
            (
                BufferData::BitWords(vec![0xdead_beef]),
                vec![0xdead_beef],
                0x1dab_d47e_9240_95b2,
            ),
        ];
        for (data, words, want) in typed {
            assert_eq!(
                reference_checksum(data.kind(), &words),
                want,
                "{}",
                data.kind()
            );
            assert_eq!(data.checksum(), want, "{}", data.kind());
        }
        // Raw bytes keep the byte-wise fold from the bare offset basis.
        assert_eq!(
            BufferData::Raw(b"adamant".to_vec()).checksum(),
            0x41f4_5a7e_027d_ad33
        );
    }

    #[test]
    fn checksum_detects_every_single_bit_flip_in_every_kind() {
        let payloads = [
            BufferData::I64((0..16).map(|i| i * 0x9e37_79b9 - 7).collect()),
            BufferData::F64((0..16).map(|i| f64::from(i) * 0.75 - 3.0).collect()),
            BufferData::U32((0..16).map(|i| i * 0x0101_0101).collect()),
            BufferData::BitWords((0..16).map(|i| !0u64 >> i).collect()),
        ];
        for clean in payloads {
            let base = clean.checksum();
            let bits = clean.byte_len() as usize * 8 / clean.len();
            for i in 0..clean.len() {
                for bit in 0..bits {
                    let mut dirty = clean.clone();
                    match &mut dirty {
                        BufferData::I64(v) => v[i] ^= 1 << bit,
                        BufferData::F64(v) => v[i] = f64::from_bits(v[i].to_bits() ^ (1 << bit)),
                        BufferData::U32(v) => v[i] ^= 1 << bit,
                        BufferData::BitWords(v) => v[i] ^= 1 << bit,
                        _ => unreachable!(),
                    }
                    assert_ne!(
                        dirty.checksum(),
                        base,
                        "{}: flip of bit {bit} in element {i} went unnoticed",
                        clean.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn checksum_range_equals_checksum_of_slice() {
        let payloads = [
            BufferData::I64((0..6).map(|i| i * 11 - 20).collect()),
            BufferData::F64(vec![0.5, -1.25, 3.0, f64::MAX, -0.0, 1e-300]),
            BufferData::U32(vec![0, 1, 7, u32::MAX, 42, 9]),
            BufferData::BitWords(vec![0, !0, 0xdead_beef, 1 << 63, 5, 6]),
            BufferData::Raw(b"adamant".to_vec()),
        ];
        for data in payloads {
            for o in 0..data.len() + 3 {
                for n in (0..data.len() + 3).chain([usize::MAX]) {
                    assert_eq!(
                        data.checksum_range(o, n),
                        data.slice(o, n).checksum(),
                        "{} range ({o}, {n})",
                        data.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn checksum_detects_single_bit_flips() {
        let clean = BufferData::I64((0..64).collect());
        let base = clean.checksum();
        assert_eq!(base, clean.clone().checksum(), "checksum is pure");
        let mut dirty = clean.clone();
        assert!(dirty.flip_bit(13));
        assert_ne!(dirty.checksum(), base);
        assert!(dirty.flip_bit(13), "flip is an involution");
        assert_eq!(dirty.checksum(), base);
        // Out-of-range element indexes wrap instead of panicking.
        let mut d2 = clean.clone();
        assert!(d2.flip_bit(64 + 13));
        assert_eq!(d2, dirty_at(&clean, 13));
    }

    fn dirty_at(d: &BufferData, i: usize) -> BufferData {
        let mut c = d.clone();
        c.flip_bit(i);
        c
    }

    #[test]
    fn checksums_differ_across_kinds_and_contents() {
        let a = BufferData::I64(vec![1, 2, 3]).checksum();
        let b = BufferData::I64(vec![1, 2, 4]).checksum();
        let c = BufferData::U32(vec![1, 2, 3]).checksum();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(
            BufferData::Raw(vec![]).checksum(),
            BufferData::Raw(Vec::new()).checksum()
        );
    }

    #[test]
    fn empty_payloads_cannot_be_corrupted() {
        assert!(!BufferData::I64(vec![]).flip_bit(0));
        let mut f = BufferData::F64(vec![0.5]);
        assert!(f.flip_bit(0));
        assert_ne!(f, BufferData::F64(vec![0.5]));
    }

    #[test]
    fn footprint_uses_max() {
        let b = Buffer {
            data: BufferData::I64(vec![1, 2, 3]),
            repr: SdkRepr::HostVec,
            pinned: false,
            reserved_bytes: 100,
        };
        assert_eq!(b.footprint(), 100);
        let b2 = Buffer {
            data: BufferData::I64(vec![0; 100]),
            repr: SdkRepr::HostVec,
            pinned: false,
            reserved_bytes: 8,
        };
        assert_eq!(b2.footprint(), 800);
    }
}

//! The difference-bit cache (Juan, Lang & Navarro), a related-work
//! baseline from Section 7.2 of the paper.
//!
//! A 2-way set-associative cache with an access time close to a
//! direct-mapped cache: since the two tags of a set must differ in at
//! least one bit position, a special decoder remembers one such
//! *difference bit* per set and uses the address's value at that
//! position to select the way directly — no full-tag comparison on the
//! way-select path, hence one cycle. The paper's counterpoints: its
//! access path is still slower than the B-Cache's and a 2-way miss rate
//! is the ceiling.

use crate::addr::Addr;
use crate::geometry::{CacheGeometry, GeometryError};
use crate::model::{AccessKind, AccessResult, CacheModel};
use crate::packed;
use crate::replacement::PolicyKind;
use crate::set_assoc::{SetAssociativeCache, StepHook};
use crate::stats::{CacheStats, SetUsage};

/// A 2-way difference-bit cache.
///
/// Functionally (hits/misses) identical to a 2-way LRU cache; this model
/// additionally maintains the per-set difference-bit metadata and counts
/// how often a fill forces it to be recomputed — the bookkeeping the
/// special decoder performs in hardware.
///
/// Both access paths run the decoder bookkeeping around the shared
/// set-associative step kernel, so they are bit-identical.
///
/// # Examples
///
/// ```
/// use cache_sim::{AccessKind, CacheModel, DifferenceBitCache};
///
/// let mut c = DifferenceBitCache::new(16 * 1024, 32)?;
/// c.access(0x0u64.into(), AccessKind::Read);
/// assert!(c.access(0x4u64.into(), AccessKind::Read).hit);
/// # Ok::<(), cache_sim::GeometryError>(())
/// ```
#[derive(Debug)]
pub struct DifferenceBitCache {
    inner: SetAssociativeCache,
    decoder: Decoder,
}

/// The special decoder, run around the inner cache's step: it reads
/// the two stored tags of a set straight from the packed tag array.
#[derive(Debug)]
struct Decoder {
    // The difference-bit position per set (valid when both ways full).
    diff_bit: Vec<Option<u32>>,
    updates: u64,
}

impl Decoder {
    /// The way the decoder selects for `tag` in a set holding `ways`.
    fn select(&self, set: usize, ways: &[u64], tag: u64) -> Option<usize> {
        let bit = self.diff_bit[set]?;
        // Select the way whose stored tag matches the address at the
        // difference position.
        let tag0 = packed::tag(ways[0]);
        Some(usize::from((tag0 >> bit) & 1 != (tag >> bit) & 1))
    }
}

impl StepHook for Decoder {
    #[inline(always)]
    fn before(&mut self, set: usize, ways: &[u64], tag: u64) -> u32 {
        // The decoder's invariant: if the block is resident and the set
        // is full, the difference bit must select the way that holds it.
        if let Some(way) = self.select(set, ways, tag) {
            debug_assert!(
                !packed::matches(ways[1 - way], tag) || packed::matches(ways[way], tag),
                "difference bit must never route a hit to the wrong way"
            );
        }
        0
    }

    #[inline(always)]
    fn after_miss(&mut self, set: usize, ways: &[u64]) {
        self.diff_bit[set] = match (ways[0], ways[1]) {
            (x, y) if packed::is_valid(x) && packed::is_valid(y) => {
                let (x, y) = (packed::tag(x), packed::tag(y));
                debug_assert_ne!(x, y, "two ways of a set can never hold equal tags");
                Some((x ^ y).trailing_zeros())
            }
            _ => None,
        };
        self.updates += 1;
    }
}

impl DifferenceBitCache {
    /// Creates a 2-way difference-bit cache.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] for invalid shapes.
    pub fn new(size_bytes: usize, line_bytes: usize) -> Result<Self, GeometryError> {
        let inner = SetAssociativeCache::new(size_bytes, line_bytes, 2, PolicyKind::Lru, 0)?;
        let sets = inner.geometry().sets();
        Ok(DifferenceBitCache {
            inner,
            decoder: Decoder {
                diff_bit: vec![None; sets],
                updates: 0,
            },
        })
    }

    /// How many fills recomputed a set's difference bit.
    pub fn diff_bit_updates(&self) -> u64 {
        self.decoder.updates
    }

    /// The way the difference-bit decoder would select for `addr`, when
    /// the set is full (`None` during warm-up).
    pub fn selected_way(&self, addr: Addr) -> Option<usize> {
        let geom = self.inner.geometry();
        let set = geom.set_index(addr);
        self.decoder
            .select(set, self.inner.set_words(set), geom.tag(addr))
    }
}

impl CacheModel for DifferenceBitCache {
    fn access(&mut self, addr: Addr, kind: AccessKind) -> AccessResult {
        self.inner.access_with(&mut self.decoder, addr, kind)
    }

    fn access_batch(&mut self, accesses: &[(Addr, AccessKind)]) {
        self.inner.access_batch_with(&mut self.decoder, accesses)
    }

    fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
        self.decoder.updates = 0;
    }

    fn geometry(&self) -> CacheGeometry {
        self.inner.geometry()
    }

    fn set_usage(&self) -> Option<&SetUsage> {
        self.inner.set_usage()
    }

    fn label(&self) -> String {
        format!("{}k-diffbit", self.geometry().size_bytes() / 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DifferenceBitCache {
        DifferenceBitCache::new(256, 32).unwrap()
    }

    #[test]
    fn behaves_like_two_way() {
        let mut db = tiny();
        let mut sa = SetAssociativeCache::new(256, 32, 2, PolicyKind::Lru, 0).unwrap();
        let mut x = 3u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = Addr::new((x >> 15) % 4096);
            assert_eq!(
                db.access(addr, AccessKind::Read).hit,
                sa.access(addr, AccessKind::Read).hit
            );
        }
        assert_eq!(db.stats().total(), sa.stats().total());
    }

    #[test]
    fn difference_bit_selects_the_right_way() {
        let mut c = tiny();
        // 4 sets: tag = addr >> 7. Two blocks in set 0 with tags 1 and 2
        // (differ at bit 0).
        let a = Addr::new(1 << 7);
        let b = Addr::new(2 << 7);
        c.access(a, AccessKind::Read);
        c.access(b, AccessKind::Read);
        let wa = c.selected_way(a).unwrap();
        let wb = c.selected_way(b).unwrap();
        assert_ne!(
            wa, wb,
            "the two resident blocks must route to different ways"
        );
        // The routed accesses hit.
        assert!(c.access(a, AccessKind::Read).hit);
        assert!(c.access(b, AccessKind::Read).hit);
    }

    #[test]
    fn diff_bit_is_a_real_differing_position() {
        let mut c = tiny();
        c.access(Addr::new(5 << 7), AccessKind::Read); // tag 5 = 0b101
        c.access(Addr::new(4 << 7), AccessKind::Read); // tag 4 = 0b100
        assert_eq!(c.decoder.diff_bit[0], Some(0), "5 ^ 4 = 1: bit 0 differs");
        // Replace tag 5 (LRU) with tag 6: 6 ^ 4 = 2 -> bit 1.
        c.access(Addr::new(4 << 7), AccessKind::Read);
        c.access(Addr::new(6 << 7), AccessKind::Read);
        assert_eq!(c.decoder.diff_bit[0], Some(1));
    }

    #[test]
    fn updates_counted_per_fill() {
        let mut c = tiny();
        c.access(Addr::new(0), AccessKind::Read);
        c.access(Addr::new(1 << 7), AccessKind::Read);
        assert_eq!(c.diff_bit_updates(), 2);
        c.access(Addr::new(0), AccessKind::Read); // hit: no update
        assert_eq!(c.diff_bit_updates(), 2);
        c.reset_stats();
        assert_eq!(c.diff_bit_updates(), 0);
    }

    #[test]
    fn warm_up_has_no_diff_bit() {
        let mut c = tiny();
        assert_eq!(c.selected_way(Addr::new(0)), None);
        c.access(Addr::new(0), AccessKind::Read);
        assert_eq!(c.selected_way(Addr::new(0)), None, "one way still empty");
    }

    #[test]
    fn label_is_descriptive() {
        assert_eq!(
            DifferenceBitCache::new(16 * 1024, 32).unwrap().label(),
            "16k-diffbit"
        );
    }

    /// Differential hook: this cache is contractually an n-way LRU array
    /// (the lookup machinery changes latency/energy, never hits, misses
    /// or evictions), so the reference oracle must track it exactly.
    #[test]
    fn matches_reference_oracle() {
        use crate::oracle::OracleCache;
        let mut model = DifferenceBitCache::new(1024, 32).unwrap();
        let mut oracle = OracleCache::new(1024, 32, 2, crate::PolicyKind::Lru, 0, 32);
        let mut x = 0x2468_ACE0u64;
        for i in 0..4000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = ((x >> 16) % 256) * 32;
            let kind = if x & 4 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let got = model.access(Addr::new(addr), kind);
            let want = oracle.access(Addr::new(addr), kind);
            assert_eq!(want.diff(&got), None, "access {i} at {addr:#x}");
        }
    }
}

//! The conventional direct-mapped cache — the paper's baseline.

use crate::addr::Addr;
use crate::geometry::{CacheGeometry, GeometryError, TagIndexSplit};
use crate::model::{AccessKind, AccessResult, CacheModel, Eviction};
use crate::packed;
use crate::stats::{BatchTally, CacheStats, SetUsage};

/// A direct-mapped, write-back, write-allocate cache.
///
/// This is the baseline of every experiment in the paper: a 16 kB,
/// 32-byte-line instance for both L1 caches.
///
/// # Examples
///
/// ```
/// use cache_sim::{AccessKind, CacheModel, DirectMappedCache};
///
/// let mut dm = DirectMappedCache::new(16 * 1024, 32)?;
/// let miss = dm.access(0x1000u64.into(), AccessKind::Read);
/// assert!(!miss.hit);
/// let hit = dm.access(0x1004u64.into(), AccessKind::Read);
/// assert!(hit.hit);
/// # Ok::<(), cache_sim::GeometryError>(())
/// ```
#[derive(Debug)]
pub struct DirectMappedCache {
    geom: CacheGeometry,
    /// One [`packed`] `tag|dirty|valid` word per set.
    lines: Vec<u64>,
    stats: CacheStats,
    usage: SetUsage,
}

impl DirectMappedCache {
    /// Creates a direct-mapped cache of `size_bytes` with `line_bytes`
    /// blocks.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] for invalid shapes.
    pub fn new(size_bytes: usize, line_bytes: usize) -> Result<Self, GeometryError> {
        Self::from_geometry(CacheGeometry::new(size_bytes, line_bytes, 1)?)
    }

    /// Creates a direct-mapped cache from an explicit geometry.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::AssocLargerThanLines`] if the geometry is
    /// not direct-mapped.
    pub fn from_geometry(geom: CacheGeometry) -> Result<Self, GeometryError> {
        if geom.assoc() != 1 {
            return Err(GeometryError::AssocLargerThanLines {
                assoc: geom.assoc(),
                lines: 1,
            });
        }
        assert!(
            geom.tag_bits() <= packed::MAX_TAG_BITS,
            "tag field of {geom} does not fit a packed line word"
        );
        let sets = geom.sets();
        Ok(DirectMappedCache {
            geom,
            lines: vec![packed::EMPTY; sets],
            stats: CacheStats::new(),
            usage: SetUsage::new(sets),
        })
    }

    /// Returns `true` if the block containing `addr` is resident, without
    /// touching statistics or replacement state.
    pub fn probe(&self, addr: Addr) -> bool {
        let set = self.geom.set_index(addr);
        packed::matches(self.lines[set], self.geom.tag(addr))
    }

    /// One access. Shared verbatim by both paths, so their statistics
    /// and set-usage counters agree by construction.
    #[inline(always)]
    fn step(
        &mut self,
        split: &TagIndexSplit,
        tally: &mut BatchTally,
        addr: Addr,
        kind: AccessKind,
    ) -> AccessResult {
        let set = split.set_index(addr);
        let tag = split.tag(addr);
        let word = self.lines[set];
        let hit = packed::matches(word, tag);
        tally.record(kind, hit);
        self.usage.record(set, hit);
        if hit {
            if kind.is_write() {
                self.lines[set] = packed::set_dirty(word);
            }
            return AccessResult::hit();
        }
        // Miss: evict the resident block (if any) and fill.
        tally.record_writeback_if(packed::is_dirty(word));
        let evicted = packed::is_valid(word).then(|| Eviction {
            block: self.geom.reconstruct(packed::tag(word), set),
            dirty: packed::is_dirty(word),
        });
        self.lines[set] = packed::fill(tag, kind.is_write());
        AccessResult::miss(evicted)
    }
}

impl CacheModel for DirectMappedCache {
    fn access(&mut self, addr: Addr, kind: AccessKind) -> AccessResult {
        let split = self.geom.split();
        let mut tally = BatchTally::new();
        let result = self.step(&split, &mut tally, addr, kind);
        tally.flush(&mut self.stats);
        result
    }

    fn access_batch(&mut self, accesses: &[(Addr, AccessKind)]) {
        // Shared-step replay with the field split hoisted and statistics
        // tallied in registers.
        let split = self.geom.split();
        let mut tally = BatchTally::new();
        for &(addr, kind) in accesses {
            self.step(&split, &mut tally, addr, kind);
        }
        tally.flush(&mut self.stats);
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
        self.usage.reset();
    }

    fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    fn set_usage(&self) -> Option<&SetUsage> {
        Some(&self.usage)
    }

    fn label(&self) -> String {
        format!("{}k-dm", self.geom.size_bytes() / 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DirectMappedCache {
        // 8 sets of 32-byte lines, like the paper's Figure 1 example.
        DirectMappedCache::new(256, 32).unwrap()
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(Addr::new(0x40), AccessKind::Read).hit);
        assert!(
            c.access(Addr::new(0x5f), AccessKind::Read).hit,
            "same line must hit"
        );
        assert_eq!(c.stats().total().misses(), 1);
        assert_eq!(c.stats().total().hits(), 1);
    }

    #[test]
    fn conflicting_lines_thrash() {
        // Paper Section 2.2: the sequence 0,1,8,9,0,1,8,9 (line granules)
        // never hits in a direct-mapped cache with 8 sets.
        let mut c = tiny();
        let line = 32u64;
        for _ in 0..2 {
            for block in [0u64, 1, 8, 9] {
                let r = c.access(Addr::new(block * line), AccessKind::Read);
                assert!(!r.hit);
            }
        }
        assert_eq!(c.stats().total().misses(), 8);
        assert_eq!(c.stats().total().hits(), 0);
    }

    #[test]
    fn eviction_reports_dirty_block() {
        let mut c = tiny();
        c.access(Addr::new(0x0), AccessKind::Write);
        // Block 8 maps to the same set 0 (8 * 32 = 256 = cache size).
        let r = c.access(Addr::new(256), AccessKind::Read);
        let ev = r.evicted.expect("conflict must evict");
        assert_eq!(ev.block, Addr::new(0));
        assert!(ev.dirty);
        assert_eq!(c.stats().writebacks(), 1);
    }

    #[test]
    fn clean_eviction_is_not_a_writeback() {
        let mut c = tiny();
        c.access(Addr::new(0x0), AccessKind::Read);
        let r = c.access(Addr::new(256), AccessKind::Read);
        assert!(!r.evicted.unwrap().dirty);
        assert_eq!(c.stats().writebacks(), 0);
    }

    #[test]
    fn write_hit_dirties_block() {
        let mut c = tiny();
        c.access(Addr::new(0x0), AccessKind::Read);
        c.access(Addr::new(0x4), AccessKind::Write);
        let r = c.access(Addr::new(256), AccessKind::Read);
        assert!(r.evicted.unwrap().dirty);
    }

    #[test]
    fn probe_does_not_disturb_stats() {
        let mut c = tiny();
        c.access(Addr::new(0x40), AccessKind::Read);
        assert!(c.probe(Addr::new(0x44)));
        assert!(!c.probe(Addr::new(0x80)));
        assert_eq!(c.stats().total().accesses(), 1);
    }

    #[test]
    fn usage_tracks_sets() {
        let mut c = tiny();
        c.access(Addr::new(0x20), AccessKind::Read); // set 1
        c.access(Addr::new(0x20), AccessKind::Read);
        let u = c.set_usage().unwrap();
        assert_eq!(u.misses(1), 1);
        assert_eq!(u.hits(1), 1);
        assert_eq!(u.accesses(0), 0);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = tiny();
        c.access(Addr::new(0x40), AccessKind::Read);
        c.reset_stats();
        assert_eq!(c.stats().total().accesses(), 0);
        assert!(
            c.access(Addr::new(0x40), AccessKind::Read).hit,
            "contents must survive reset"
        );
    }

    #[test]
    fn from_geometry_rejects_set_associative_shapes() {
        let g = CacheGeometry::new(1024, 32, 2).unwrap();
        assert!(DirectMappedCache::from_geometry(g).is_err());
    }

    #[test]
    fn label_mentions_size() {
        assert_eq!(
            DirectMappedCache::new(16 * 1024, 32).unwrap().label(),
            "16k-dm"
        );
    }

    /// Differential hook: the fuzzer's reference model (`crate::oracle`)
    /// must agree with this cache access-by-access; `harness::fuzz`
    /// explores random geometries, this pins one conflict-heavy stream.
    #[test]
    fn matches_reference_oracle() {
        use crate::oracle::OracleCache;
        let mut model = DirectMappedCache::new(1024, 32).unwrap();
        let mut oracle = OracleCache::new(1024, 32, 1, crate::PolicyKind::Lru, 0, 32);
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
        assert_eq!(oracle.misses(), model.stats().total().misses());
        assert_eq!(oracle.writebacks(), model.stats().writebacks());
    }
}

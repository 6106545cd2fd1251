//! The highly-associative cache (HAC) of Section 6.7: aggressively
//! partitioned subarrays with fully-associative CAM tags inside each
//! subarray.
//!
//! The paper observes that the HAC is "an extreme case of the B-Cache,
//! where the decoder ... is fully programmable": the whole tag (26 bits
//! for a 16 kB, 32-way instance) is held in CAM, versus the B-Cache's
//! 6-bit programmable index. Functionally the HAC behaves as a
//! set-associative cache whose sets are the subarrays; the interest is in
//! its CAM cost, which [`HighlyAssociativeCache::cam_bits_per_line`]
//! exposes for the area/energy comparison.

use crate::addr::Addr;
use crate::geometry::{CacheGeometry, GeometryError};
use crate::model::{AccessKind, AccessResult, CacheModel};
use crate::replacement::PolicyKind;
use crate::set_assoc::SetAssociativeCache;
use crate::stats::{CacheStats, SetUsage};

/// A CAM-tag highly-associative cache partitioned into subarrays.
///
/// Both access paths delegate to the wrapped set-associative array, so
/// [`CacheModel::access_batch`] runs the monomorphized set-associative
/// kernel (with the subarray-wide CAM search as its way scan — the
/// 32-entry sweep of the paper's instance is four [`crate::simd`]
/// lane groups per probe) and is bit-identical to the per-access
/// path.
///
/// # Examples
///
/// ```
/// use cache_sim::{AccessKind, CacheModel, HighlyAssociativeCache};
///
/// // The paper's instance: 16 kB, 32 B lines, 1 kB subarrays, 32-way.
/// let mut hac = HighlyAssociativeCache::new(16 * 1024, 32, 1024)?;
/// assert_eq!(hac.geometry().assoc(), 32);
/// assert_eq!(hac.cam_bits_per_line(), 26);
/// hac.access(0x0u64.into(), AccessKind::Read);
/// assert!(hac.access(0x0u64.into(), AccessKind::Read).hit);
/// # Ok::<(), cache_sim::GeometryError>(())
/// ```
#[derive(Debug)]
pub struct HighlyAssociativeCache {
    inner: SetAssociativeCache,
    subarray_bytes: usize,
}

impl HighlyAssociativeCache {
    /// Creates a HAC of `size_bytes` with `line_bytes` blocks partitioned
    /// into fully-associative subarrays of `subarray_bytes` each.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] for invalid shapes.
    pub fn new(
        size_bytes: usize,
        line_bytes: usize,
        subarray_bytes: usize,
    ) -> Result<Self, GeometryError> {
        if subarray_bytes == 0 || !subarray_bytes.is_power_of_two() {
            return Err(GeometryError::NotPowerOfTwo {
                what: "associativity",
                value: subarray_bytes,
            });
        }
        let assoc = subarray_bytes / line_bytes;
        let inner = SetAssociativeCache::new(size_bytes, line_bytes, assoc, PolicyKind::Lru, 0)?;
        Ok(HighlyAssociativeCache {
            inner,
            subarray_bytes,
        })
    }

    /// Size of each fully-associative subarray in bytes.
    pub fn subarray_bytes(&self) -> usize {
        self.subarray_bytes
    }

    /// Number of subarrays.
    pub fn subarrays(&self) -> usize {
        self.inner.geometry().sets()
    }

    /// CAM bits per line: the full tag plus the paper's three status bits.
    ///
    /// For the 16 kB / 32 B / 32-way instance this is `23 + 3 = 26` bits
    /// (Section 6.7), dwarfing the B-Cache's 6-bit programmable index.
    pub fn cam_bits_per_line(&self) -> u32 {
        // The paper counts "23(tag) + 3(status)" = 26 for this geometry.
        self.inner.geometry().tag_bits() + 3
    }
}

impl CacheModel for HighlyAssociativeCache {
    fn access(&mut self, addr: Addr, kind: AccessKind) -> AccessResult {
        self.inner.access(addr, kind)
    }

    fn access_batch(&mut self, accesses: &[(Addr, AccessKind)]) {
        self.inner.access_batch(accesses)
    }

    fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn geometry(&self) -> CacheGeometry {
        self.inner.geometry()
    }

    fn set_usage(&self) -> Option<&SetUsage> {
        self.inner.set_usage()
    }

    fn label(&self) -> String {
        format!(
            "{}k-hac{}",
            self.geometry().size_bytes() / 1024,
            self.geometry().assoc()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_instance_shape() {
        let hac = HighlyAssociativeCache::new(16 * 1024, 32, 1024).unwrap();
        assert_eq!(hac.subarrays(), 16);
        assert_eq!(hac.geometry().assoc(), 32);
        assert_eq!(hac.subarray_bytes(), 1024);
        assert_eq!(hac.cam_bits_per_line(), 26);
    }

    #[test]
    fn conflicts_within_a_subarray_are_absorbed() {
        let mut hac = HighlyAssociativeCache::new(1024, 32, 256).unwrap();
        // 4 subarrays, 8-way each. Eight blocks mapping to subarray 0.
        for k in 0..8u64 {
            assert!(!hac.access(Addr::new(k * 1024), AccessKind::Read).hit);
        }
        for k in 0..8u64 {
            assert!(hac.access(Addr::new(k * 1024), AccessKind::Read).hit);
        }
    }

    #[test]
    fn rejects_bad_subarray_size() {
        assert!(HighlyAssociativeCache::new(16 * 1024, 32, 0).is_err());
        assert!(HighlyAssociativeCache::new(16 * 1024, 32, 1000).is_err());
    }

    #[test]
    fn label_is_descriptive() {
        let hac = HighlyAssociativeCache::new(16 * 1024, 32, 1024).unwrap();
        assert_eq!(hac.label(), "16k-hac32");
    }

    /// Differential hook: this cache is contractually an n-way LRU array
    /// (the lookup machinery changes latency/energy, never hits, misses
    /// or evictions), so the reference oracle must track it exactly.
    #[test]
    fn matches_reference_oracle() {
        use crate::oracle::OracleCache;
        let mut model = HighlyAssociativeCache::new(2048, 32, 256).unwrap();
        let mut oracle = OracleCache::new(2048, 32, 8, crate::PolicyKind::Lru, 0, 32);
        let mut x = 0x2468_ACE0u64;
        for i in 0..4000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = ((x >> 16) % 512) * 32;
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

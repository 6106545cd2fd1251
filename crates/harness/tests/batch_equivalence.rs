//! Throughput-neutrality suite: the batched access kernels must be
//! observably free — [`CacheModel::access_batch`] over a long fuzz
//! stream leaves every model in exactly the state of the per-access
//! loop (statistics, set usage, and the model's whole internal state as
//! its `Debug` rendering shows it), and the monomorphized B-Cache fast
//! path still matches [`BCacheOracle`] exactly. A divergence here means
//! an optimization changed simulation semantics, which no speedup
//! justifies.

use std::fmt::Debug;

use bcache_core::{BCacheParams, BalancedCache, PdHitPolicy};
use cache_sim::oracle::BCacheOracle;
use cache_sim::{
    AccessKind, Addr, AgacCache, CacheGeometry, CacheModel, ColumnAssociativeCache,
    DifferenceBitCache, DirectMappedCache, HighlyAssociativeCache, PartialMatchCache, PolicyKind,
    SetAssociativeCache, SkewedAssociativeCache, VictimCache, WayHaltingCache,
};

const RECORDS: usize = 100_000;

/// Generates a deterministic 100k-access fuzz stream mixing uniform
/// traffic, power-of-two strides and hot-set conflict loops (the same
/// ingredients as `harness::fuzz::gen_trace`, scaled up).
fn stream(seed: u64) -> Vec<(Addr, AccessKind)> {
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x
    };
    let line = 32u64;
    let blocks = 1u64 << 14;
    (0..RECORDS)
        .map(|i| {
            let r = next();
            let block = match (r >> 60) % 4 {
                0 => (r >> 16) % 64,                   // hot uniform region
                1 => (i as u64 * 5) % blocks,          // strided sweep
                2 => (((r >> 16) % 8) * 512) % blocks, // conflict loop
                _ => (r >> 16) % blocks,               // uniform noise
            };
            let kind = if (r >> 8) % 4 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            (Addr::new(block * line), kind)
        })
        .collect()
}

/// Generates a birthday-adversarial stream: `k` blocks spaced `2^19`
/// apart, drawn uniformly. At the paper's 16 kB baseline the spacing
/// aligns the set index *and* the B-Cache NPI/PI fields, so every
/// model collapses to (at most) its associativity over one set — the
/// worst case for the batched kernels' hit fast paths, where every
/// lane of a compare group carries the same index bits.
fn birthday_stream(k: u64, seed: u64) -> Vec<(Addr, AccessKind)> {
    let base = 0x1000_0000u64;
    let spacing = 1u64 << 19;
    let mut x = seed ^ 0xD1B5_4A32_D192_ED03;
    (0..20_000)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let kind = if (x >> 8).is_multiple_of(4) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            (Addr::new(base + ((x >> 16) % k) * spacing), kind)
        })
        .collect()
}

/// A cache model whose whole internal state can be compared through
/// its `Debug` rendering.
trait Model: CacheModel + Debug {}

impl<T: CacheModel + Debug> Model for T {}

type Builder = Box<dyn Fn() -> Box<dyn Model>>;

/// A 16 kB B-Cache builder.
fn bcache(mf: usize, bas: usize, policy: PolicyKind, pd_hit: PdHitPolicy) -> Builder {
    Box::new(move || {
        let geom = CacheGeometry::new(16 * 1024, 32, 1).unwrap();
        let params = BCacheParams::new(geom, mf, bas, policy)
            .unwrap()
            .with_seed(7)
            .with_pd_hit_policy(pd_hit);
        Box::new(BalancedCache::new(params))
    })
}

/// Two identical instances of every model in the repo, plus the
/// B-Cache on each of its kernel paths: the LRU downcast at const and
/// runtime BAS widths, the `dyn` policy path, and the EvictBoth arm.
fn model_pairs() -> Vec<(Box<dyn Model>, Box<dyn Model>)> {
    use PdHitPolicy::{EvictBoth, ForcedVictim};
    let build: Vec<Builder> = vec![
        Box::new(|| Box::new(DirectMappedCache::new(16 * 1024, 32).unwrap())),
        Box::new(|| {
            Box::new(SetAssociativeCache::new(16 * 1024, 32, 8, PolicyKind::Lru, 0).unwrap())
        }),
        Box::new(|| {
            Box::new(
                SetAssociativeCache::new(16 * 1024, 32, 4, PolicyKind::Random, 0xBEEF).unwrap(),
            )
        }),
        Box::new(|| {
            Box::new(SetAssociativeCache::new(16 * 1024, 32, 4, PolicyKind::Fifo, 0).unwrap())
        }),
        Box::new(|| {
            Box::new(SetAssociativeCache::new(16 * 1024, 32, 4, PolicyKind::TreePlru, 0).unwrap())
        }),
        bcache(8, 8, PolicyKind::Lru, ForcedVictim),
        bcache(8, 64, PolicyKind::Lru, ForcedVictim),
        bcache(8, 8, PolicyKind::Lru, EvictBoth),
        bcache(4, 4, PolicyKind::Fifo, ForcedVictim),
        bcache(2, 8, PolicyKind::TreePlru, ForcedVictim),
        bcache(8, 2, PolicyKind::Random, EvictBoth),
        Box::new(|| Box::new(VictimCache::new(16 * 1024, 32, 16).unwrap())),
        Box::new(|| Box::new(ColumnAssociativeCache::new(16 * 1024, 32).unwrap())),
        Box::new(|| Box::new(SkewedAssociativeCache::new(16 * 1024, 32).unwrap())),
        Box::new(|| Box::new(AgacCache::new(16 * 1024, 32, 8).unwrap())),
        Box::new(|| Box::new(HighlyAssociativeCache::new(16 * 1024, 32, 1024).unwrap())),
        Box::new(|| Box::new(PartialMatchCache::new(16 * 1024, 32, 4).unwrap())),
        Box::new(|| Box::new(DifferenceBitCache::new(16 * 1024, 32).unwrap())),
        Box::new(|| Box::new(WayHaltingCache::new(16 * 1024, 32, 4, 4).unwrap())),
    ];
    build.iter().map(|b| (b(), b())).collect()
}

/// Replays `accesses` through `scalar` per access and through
/// `batched` in one batch, then asserts the two ended in the same
/// state.
fn assert_batch_matches_loop(
    name: &str,
    mut scalar: Box<dyn Model>,
    mut batched: Box<dyn Model>,
    accesses: &[(Addr, AccessKind)],
) {
    for &(addr, kind) in accesses {
        scalar.access(addr, kind);
    }
    batched.access_batch(accesses);
    let label = scalar.label();
    assert_eq!(
        scalar.stats(),
        batched.stats(),
        "{name} ({label}): batched stats diverge from the per-access loop"
    );
    assert_eq!(
        scalar.set_usage(),
        batched.set_usage(),
        "{name} ({label}): batched set-usage counters diverge"
    );
    assert!(
        format!("{scalar:?}") == format!("{batched:?}"),
        "{name} ({label}): batched internal state diverges from the per-access loop"
    );
}

/// A builder for every model at its most degenerate legal
/// geometries: one set, one way, and cache-size == line-size. These
/// shapes put every "first/last element" branch of the batched kernels
/// on the hot path — a single frame, a single index bit, BAS equal to
/// the whole set count — where an off-by-one hides from the 16 kB
/// suite above.
fn degenerate_builders() -> Vec<(&'static str, Builder)> {
    vec![
        (
            "DM, cache == line",
            Box::new(|| Box::new(DirectMappedCache::new(32, 32).unwrap())),
        ),
        (
            "1-way set-assoc, cache == line",
            Box::new(|| Box::new(SetAssociativeCache::new(32, 32, 1, PolicyKind::Lru, 0).unwrap())),
        ),
        (
            "1-set fully-associative",
            Box::new(|| {
                Box::new(SetAssociativeCache::new(256, 32, 8, PolicyKind::Lru, 0).unwrap())
            }),
        ),
        (
            "1-way set-assoc, random policy",
            Box::new(|| {
                Box::new(SetAssociativeCache::new(1024, 32, 1, PolicyKind::Random, 0xBEEF).unwrap())
            }),
        ),
        (
            "B-Cache, cache == line (one frame)",
            Box::new(|| {
                let geom = CacheGeometry::new(32, 32, 1).unwrap();
                let params = BCacheParams::new(geom, 8, 1, PolicyKind::Lru).unwrap();
                Box::new(BalancedCache::new(params))
            }),
        ),
        (
            "B-Cache, BAS == sets (one pseudo-set)",
            Box::new(|| {
                let geom = CacheGeometry::new(1024, 32, 1).unwrap();
                let params = BCacheParams::new(geom, 2, 32, PolicyKind::Lru).unwrap();
                Box::new(BalancedCache::new(params))
            }),
        ),
        (
            "victim, cache == line, 1-entry buffer",
            Box::new(|| Box::new(VictimCache::new(32, 32, 1).unwrap())),
        ),
        (
            "column-associative, two lines",
            Box::new(|| Box::new(ColumnAssociativeCache::new(64, 32).unwrap())),
        ),
        (
            "skewed, one index bit per way",
            Box::new(|| Box::new(SkewedAssociativeCache::new(128, 32).unwrap())),
        ),
        (
            "AGAC, cache == line, 1-entry directory",
            Box::new(|| Box::new(AgacCache::new(32, 32, 1).unwrap())),
        ),
        (
            "HAC, one single-line subarray",
            Box::new(|| Box::new(HighlyAssociativeCache::new(32, 32, 32).unwrap())),
        ),
        (
            "HAC, 1-set (subarray == cache)",
            Box::new(|| Box::new(HighlyAssociativeCache::new(256, 32, 256).unwrap())),
        ),
        (
            "PAM, 1-set 2-way",
            Box::new(|| Box::new(PartialMatchCache::new(64, 32, 5).unwrap())),
        ),
        (
            "difference-bit, 1-set 2-way",
            Box::new(|| Box::new(DifferenceBitCache::new(64, 32).unwrap())),
        ),
        (
            "way-halting, 1-way cache == line",
            Box::new(|| Box::new(WayHaltingCache::new(32, 32, 1, 4).unwrap())),
        ),
        (
            "way-halting, 1-set",
            Box::new(|| Box::new(WayHaltingCache::new(128, 32, 4, 4).unwrap())),
        ),
    ]
}

#[test]
fn access_batch_matches_the_per_access_loop_on_every_model() {
    let accesses = stream(42);
    for (scalar, batched) in model_pairs() {
        assert_batch_matches_loop("fuzz stream", scalar, batched, &accesses);
    }
}

#[test]
fn access_batch_matches_the_per_access_loop_on_birthday_adversaries() {
    // birthday8..birthday64: the entire stream lands in one set (and,
    // for the B-Cache, one NPI group), so the batched kernels spend the
    // whole run in their conflict/eviction paths rather than the
    // spread-out traffic of `stream`.
    for k in [8u64, 16, 32, 64] {
        let accesses = birthday_stream(k, 0xB1DA + k);
        for (scalar, batched) in model_pairs() {
            assert_batch_matches_loop(&format!("birthday{k}"), scalar, batched, &accesses);
        }
    }
}

#[test]
fn chunked_batches_match_one_big_batch() {
    // Tally flushing must compose across access_batch calls: many small
    // batches and one big batch are the same sequence of accesses.
    let accesses = stream(7);
    for (mut whole, mut chunked) in model_pairs() {
        whole.access_batch(&accesses);
        for chunk in accesses.chunks(4097) {
            chunked.access_batch(chunk);
        }
        assert_eq!(
            whole.stats(),
            chunked.stats(),
            "{}: chunked batches diverge from a single batch",
            whole.label()
        );
    }
}

#[test]
fn access_batch_matches_the_per_access_loop_on_degenerate_geometries() {
    let accesses = stream(1234);
    for (name, build) in degenerate_builders() {
        assert_batch_matches_loop(name, build(), build(), &accesses);
    }
}

/// Every const-dispatched CAM width through whole models: victim
/// buffers at each monomorphized power-of-two width (its geometry
/// rejects other counts), AGAC directories from 1 to 32 including
/// non-powers of two (the `cam` runtime fallback), set-assoc LRU and
/// HAC at every width their scans monomorphize, and the B-Cache at
/// every BAS the decoder probe monomorphizes. The raw cam-vs-const
/// pinning at widths 1..=33 lives in `cache_sim::cam`'s unit tests.
#[test]
fn every_const_cam_width_matches_per_access() {
    let accesses: Vec<(Addr, AccessKind)> = stream(9).into_iter().take(6_000).collect();
    let mut builders: Vec<(String, Builder)> = Vec::new();
    for entries in [1usize, 2, 4, 8, 16, 32] {
        builders.push((
            format!("victim{entries}"),
            Box::new(move || Box::new(VictimCache::new(1024, 32, entries).unwrap())),
        ));
    }
    for entries in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 25, 31, 32] {
        builders.push((
            format!("agac{entries}"),
            Box::new(move || Box::new(AgacCache::new(1024, 32, entries).unwrap())),
        ));
    }
    for assoc in [1usize, 2, 4, 8, 16, 32] {
        builders.push((
            format!("lru{assoc}way"),
            Box::new(move || {
                Box::new(
                    SetAssociativeCache::new(assoc * 256, 32, assoc, PolicyKind::Lru, 0).unwrap(),
                )
            }),
        ));
    }
    for lines_per_sub in [1usize, 2, 4, 8, 16, 32] {
        builders.push((
            format!("hac-sub{lines_per_sub}"),
            Box::new(move || {
                Box::new(HighlyAssociativeCache::new(2048, 32, lines_per_sub * 32).unwrap())
            }),
        ));
    }
    for bas in [1usize, 2, 4, 8, 16, 32, 64] {
        builders.push((
            format!("bcache-bas{bas}"),
            bcache(8, bas, PolicyKind::Lru, PdHitPolicy::ForcedVictim),
        ));
    }
    for (name, build) in &builders {
        assert_batch_matches_loop(name, build(), build(), &accesses);
    }
}

#[test]
fn chunked_batches_match_one_big_batch_on_degenerate_geometries() {
    // Chunk at 1 so every batch boundary coincides with an access —
    // the degenerate shapes' tally-flush paths get no amortization to
    // hide behind.
    let accesses: Vec<(Addr, AccessKind)> = stream(55).into_iter().take(5_000).collect();
    for (name, build) in degenerate_builders() {
        let (mut whole, mut chunked) = (build(), build());
        whole.access_batch(&accesses);
        for chunk in accesses.chunks(1) {
            chunked.access_batch(chunk);
        }
        assert_eq!(
            whole.stats(),
            chunked.stats(),
            "{name} ({}): single-access batches diverge from one big batch",
            whole.label()
        );
    }
}

/// Runs `scalar` through the per-access loop and `batched` through one
/// `access_batch` call, then asserts their observers recorded the same
/// event sequence (and that the stream produced events at all).
macro_rules! assert_event_streams_match {
    ($name:expr, $accesses:expr, $scalar:expr, $batched:expr) => {{
        let mut scalar = $scalar;
        let mut batched = $batched;
        for &(addr, kind) in $accesses.iter() {
            scalar.access(addr, kind);
        }
        batched.access_batch(&$accesses);
        let a: Vec<_> = scalar.observer().iter().map(|(_, e)| *e).collect();
        let b: Vec<_> = batched.observer().iter().map(|(_, e)| *e).collect();
        assert!(!a.is_empty(), "{}: the stream must generate events", $name);
        assert_eq!(
            a, b,
            "{}: batched event order diverges from the per-access loop",
            $name
        );
    }};
}

#[test]
fn batched_bcache_event_order_matches_per_access() {
    use telemetry::EventRing;
    // 20k accesses keep every stream inside the ring so the comparison
    // covers the whole run, not just the tail.
    let accesses: Vec<(Addr, AccessKind)> = stream(2024).into_iter().take(20_000).collect();
    let ring = || EventRing::new(1 << 17);
    let bc = || {
        let geom = CacheGeometry::new(16 * 1024, 32, 1).unwrap();
        let params = BCacheParams::new(geom, 8, 8, PolicyKind::Lru).unwrap();
        BalancedCache::with_observer(params, ring())
    };
    assert_event_streams_match!("B-Cache MF8/BAS8", accesses, bc(), bc());
}

#[test]
fn batched_bcache_event_order_matches_per_access_on_one_frame() {
    use telemetry::EventRing;
    let accesses: Vec<(Addr, AccessKind)> = stream(31337).into_iter().take(20_000).collect();
    let ring = || EventRing::new(1 << 17);
    let bc1 = || {
        let geom = CacheGeometry::new(32, 32, 1).unwrap();
        let params = BCacheParams::new(geom, 8, 1, PolicyKind::Lru).unwrap();
        BalancedCache::with_observer(params, ring())
    };
    assert_event_streams_match!("B-Cache, one frame", accesses, bc1(), bc1());
}

#[test]
fn batched_bcache_still_matches_the_oracle() {
    // The monomorphized B-Cache kernel against the independent oracle:
    // same geometry as the fuzz scenarios (1 kB, 16-bit addresses,
    // MF=8, BAS=8), but driven through access_batch.
    let line = 32usize;
    let size = 1024usize;
    let addr_bits = 16u32;
    let geom = CacheGeometry::with_addr_bits(size, line, 1, addr_bits).unwrap();
    let params = BCacheParams::new(geom, 8, 8, PolicyKind::Lru).unwrap();
    let layout = params.layout();
    let mut model = BalancedCache::new(params);
    let mut oracle = BCacheOracle::new(
        line as u64,
        addr_bits,
        layout.npi_bits(),
        layout.pi_bits(),
        3, // MF = 8 = 2^3
        false,
        PolicyKind::Lru,
        0,
    );
    let accesses: Vec<(Addr, AccessKind)> = stream(99)
        .into_iter()
        .map(|(a, k)| (Addr::new(a.raw() % (1 << addr_bits)), k))
        .collect();
    for chunk in accesses.chunks(1024) {
        model.access_batch(chunk);
    }
    for &(addr, kind) in &accesses {
        oracle.access(addr, kind);
    }
    let total = model.stats().total();
    assert_eq!(total.hits(), oracle.hits(), "hits drifted from the oracle");
    assert_eq!(
        total.misses(),
        oracle.misses(),
        "misses drifted from the oracle"
    );
    assert_eq!(
        model.stats().writebacks(),
        oracle.writebacks(),
        "writebacks drifted from the oracle"
    );
    let pd = model.pd_stats();
    assert_eq!(
        (pd.misses_with_pd_hit, pd.misses_with_pd_miss),
        (oracle.pd_hit_misses(), oracle.pd_miss_misses()),
        "PD counters drifted from the oracle"
    );
    assert!(model.invariants_hold(), "B-Cache invariants violated");
}

//! Property tests for the sharded condensed build: a `ShardedPointSet`
//! assembled from arbitrary shard partitions (including shard size 1 and
//! one-shard-equals-whole-set) merges to the **bit-identical** condensed
//! matrix of the monolithic `PointSet::distances` build, for every §6.1
//! metric — mirroring PR 1's dense-vs-sparse oracle pattern. A second
//! battery pins the shard fan-out's determinism across forced worker
//! counts, a third covers the universe-growth path (early shards built
//! under a narrower codebook), and a fourth (PR 3) forces every shard
//! through the on-disk spill store — evict and reload included — and
//! proves the reloaded set bit-identical to both the all-resident set and
//! the monolithic build.

use logr_cluster::testutil::TempStore;
use logr_cluster::{Distance, PointSet, ShardedPointSet, SpillConfig};
use logr_feature::{FeatureId, QueryVector};
use proptest::prelude::*;
fn all_metrics() -> Vec<Distance> {
    vec![
        Distance::Euclidean,
        Distance::Manhattan,
        Distance::Minkowski(4.0),
        Distance::Hamming,
        Distance::Chebyshev,
        Distance::Canberra,
    ]
}

/// Random point sets over random universe sizes (1–160 features, one to
/// three `u64` blocks), plus a shard size to partition them with.
fn arb_instance() -> impl Strategy<Value = (Vec<QueryVector>, usize, usize)> {
    (
        1usize..160,
        prop::collection::vec(prop::collection::vec(0u32..4096, 0..12), 2..24),
        1usize..26,
    )
        .prop_map(|(universe, rows, shard_size)| {
            let vectors: Vec<QueryVector> = rows
                .into_iter()
                .map(|ids| {
                    QueryVector::new(
                        ids.into_iter().map(|i| FeatureId(i % universe as u32)).collect(),
                    )
                })
                .collect();
            // Clamp so shard size 1, interior sizes, and the whole set all
            // occur.
            let shard_size = shard_size.min(vectors.len());
            (vectors, universe, shard_size)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharded build == monolithic build, bit for bit, for every metric
    /// and every shard partition.
    #[test]
    fn sharded_merge_bit_identical_to_monolithic(
        (vectors, universe, shard_size) in arb_instance(),
    ) {
        let refs: Vec<&QueryVector> = vectors.iter().collect();
        let monolithic = PointSet::from_vectors(&refs, universe);
        let mut sharded = ShardedPointSet::new();
        for chunk in refs.chunks(shard_size) {
            sharded.push_shard(chunk, universe).unwrap();
        }
        prop_assert_eq!(sharded.len(), refs.len());
        for metric in all_metrics() {
            let whole = monolithic.distances(metric);
            let merged = sharded.condensed(metric).unwrap();
            prop_assert_eq!(merged.n(), whole.n());
            for (a, b) in merged.as_slice().iter().zip(whole.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?} shard_size={}", metric, shard_size);
            }
            // The borrowing view serves the same folded reads.
            let view = sharded.condensed_shards(metric);
            for i in 0..refs.len() {
                for j in 0..refs.len() {
                    prop_assert_eq!(view.get(i, j).to_bits(), whole.get(i, j).to_bits());
                }
            }
        }
    }

    /// The shard fan-out writes disjoint slices of integer mismatch
    /// counts, so any forced worker count produces the same buffers.
    #[test]
    fn shard_fanout_deterministic_across_thread_counts(
        (vectors, universe, shard_size) in arb_instance(),
    ) {
        let refs: Vec<&QueryVector> = vectors.iter().collect();
        let build = |n_threads: usize| {
            let mut sharded = ShardedPointSet::new();
            for chunk in refs.chunks(shard_size) {
                sharded.push_shard_threads(chunk, universe, n_threads).unwrap();
            }
            sharded.condensed(Distance::Manhattan).unwrap()
        };
        let serial = build(1);
        for n_threads in [2usize, 3, 8] {
            let threaded = build(n_threads);
            for (a, b) in serial.as_slice().iter().zip(threaded.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "n_threads={}", n_threads);
            }
        }
    }

    /// Spill → evict → reload round-trip (the PR 3 headline): a set whose
    /// shards are forced through the on-disk store — budget 0 evicts
    /// everything but the pinned tail during the build, and `spill_all`
    /// then forces *every* shard (tail included) out before reading —
    /// serves condensed merges and point reads **bit-identical** to the
    /// all-resident `ShardedPointSet` and to the monolithic
    /// `PointSet::distances`, across every §6.1 metric, every shard
    /// partition (size 1 through whole-set), and growing universes.
    #[test]
    fn spilled_reload_bit_identical_to_resident_and_monolithic(
        (vectors, universe, shard_size) in arb_instance(),
        growth in 1usize..64,
    ) {
        let store = TempStore::new("proptest-spill");
        let refs: Vec<&QueryVector> = vectors.iter().collect();
        let final_universe = universe + growth;
        let mut resident = ShardedPointSet::new();
        let mut spilled = ShardedPointSet::new();
        spilled.set_spill(SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 })
            .expect("attach spill store");
        let chunks: Vec<_> = refs.chunks(shard_size).collect();
        for (s, chunk) in chunks.iter().enumerate() {
            // Widen the universe on the last shard only (the streaming
            // codebook-growth path crosses the store too).
            let width = if s + 1 == chunks.len() { final_universe } else { universe };
            resident.push_shard(chunk, width).unwrap();
            spilled.push_shard(chunk, width).unwrap();
        }
        // Budget 0 pinned only the hot tail during the build…
        prop_assert_eq!(spilled.spilled_shards(), spilled.n_shards() - 1);
        // …and forced eviction takes the tail too: nothing stays resident.
        spilled.spill_all().expect("force-evict every shard");
        prop_assert_eq!(spilled.resident_bytes(), 0);

        let monolithic = PointSet::from_vectors(&refs, final_universe);
        for metric in all_metrics() {
            let whole = monolithic.distances(metric);
            let from_disk = spilled.condensed(metric).unwrap();
            let from_ram = resident.condensed(metric).unwrap();
            prop_assert_eq!(from_disk.n(), whole.n());
            for ((a, b), c) in
                from_disk.as_slice().iter().zip(from_ram.as_slice()).zip(whole.as_slice())
            {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?} disk != resident", metric);
                prop_assert_eq!(a.to_bits(), c.to_bits(), "{:?} disk != monolithic", metric);
            }
        }
        // Point reads reload through the cache and agree too.
        for i in (0..refs.len()).step_by(3) {
            for j in (0..refs.len()).step_by(2) {
                prop_assert_eq!(spilled.mismatches(i, j), resident.mismatches(i, j));
            }
        }
    }

    /// Early shards built under a narrower universe merge identically to a
    /// monolithic build at the final width (the streaming codebook-growth
    /// path).
    #[test]
    fn growing_universe_matches_final_width_build(
        (vectors, universe, shard_size) in arb_instance(),
        growth in 1usize..64,
    ) {
        let refs: Vec<&QueryVector> = vectors.iter().collect();
        let final_universe = universe + growth;
        let mut sharded = ShardedPointSet::new();
        let chunks: Vec<_> = refs.chunks(shard_size).collect();
        for (s, chunk) in chunks.iter().enumerate() {
            // Widen the universe on the last shard only.
            let width = if s + 1 == chunks.len() { final_universe } else { universe };
            sharded.push_shard(chunk, width).unwrap();
        }
        let monolithic = PointSet::from_vectors(&refs, final_universe);
        for metric in all_metrics() {
            let whole = monolithic.distances(metric);
            let merged = sharded.condensed(metric).unwrap();
            for (a, b) in merged.as_slice().iter().zip(whole.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?}", metric);
            }
        }
    }
}

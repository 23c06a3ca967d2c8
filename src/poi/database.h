// PoiDatabase — the geo-information service provider (GSP) of the paper's
// architecture. It owns the city's POI set and exposes exactly the two
// operations the paper assumes:
//
//   Query(l, r) -> set of POIs within r of l
//   Freq(l, r)  -> POI type frequency vector within r of l
//
// plus the citywide statistics (overall type frequency, infrequency ranks)
// that both the attacks and the defenses use as public prior knowledge.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "poi/frequency.h"
#include "poi/poi.h"
#include "poi/tile_aggregates.h"
#include "spatial/grid_index.h"

namespace poiprivacy::poi {

/// Counters of the anchor cache (monotone over the database's lifetime).
/// Every anchor_aggregate and every type_block lookup counts once: a hit
/// when its entry is already stored, a miss only for the call that stores
/// it. So hits + misses == lookups, and misses == the distinct
/// (POI, radius) plus (type, radius) keys, for any thread count.
struct AnchorCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  std::uint64_t lookups() const noexcept { return hits + misses; }
  friend bool operator==(const AnchorCacheStats&,
                         const AnchorCacheStats&) = default;
};

/// A cached anchor aggregate: the frequency vector plus its bit-packed
/// presence fingerprint, packed once at insertion so every dominance
/// scan that probes this anchor gets the word-parallel pre-check for
/// free (a candidate whose fingerprint fails to cover the released one
/// cannot dominate it).
struct AnchorAggregate {
  FrequencyVector freq;
  std::vector<FingerprintWord> fp;
};

/// A type-major block of anchor counts: every POI of one type at one
/// radius. Row t holds F(p, radius)[t] for each POI p of the type, in
/// pois_of_type order, and is `stride` int32s long: the POI count rounded
/// up to 8, with the pad columns 0. Region re-id tests dominance one row
/// at a time against all of the type's candidates at once.
struct TypeBlock {
  std::size_t count = 0;   ///< POIs of the type: the live columns
  std::size_t stride = 0;  ///< count rounded up to 8
  /// num_types rows x stride, row-major.
  std::vector<std::int32_t, AlignedAllocator<std::int32_t, kFrequencyAlignment>>
      counts;

  const std::int32_t* row(TypeId type) const noexcept {
    return counts.data() + type * stride;
  }
};

class PoiDatabase {
 public:
  /// Takes ownership of the POI set. POI ids must equal their index.
  PoiDatabase(std::string city_name, std::vector<Poi> pois,
              PoiTypeRegistry types, geo::BBox bounds);
  ~PoiDatabase();
  PoiDatabase(PoiDatabase&&) noexcept;
  PoiDatabase& operator=(PoiDatabase&&) noexcept;

  /// Query(l, r): ids of POIs within `radius` km of `center`.
  std::vector<PoiId> query(geo::Point center, double radius) const;

  /// Freq(l, r): the type frequency vector within `radius` km of `center`.
  /// Convenience wrapper over freq_into() that allocates the result.
  FrequencyVector freq(geo::Point center, double radius) const;

  /// Freq(l, r) into a caller-owned vector: `out` is resized/zeroed and
  /// filled in place, so a reused buffer makes repeated aggregate queries
  /// allocation-free in steady state. This is the single implementation
  /// every frequency query bottoms out in.
  void freq_into(geo::Point center, double radius, FrequencyVector& out) const;

  /// Freq for a batch of centers at one radius, into an arena row per
  /// center (row i corresponds to centers[i]). The arena's buffer is
  /// reused across calls, so a long-lived per-thread arena makes whole
  /// scan loops allocation-free.
  void freq_batch(std::span<const geo::Point> centers, double radius,
                  FreqArena& arena) const;

  /// The per-type sum and max of Freq(c, radius) over `centers`, as exact
  /// int32 counts: `sum` and `max` are resized/zeroed and filled in place.
  /// On the AVX2 kernel tier one pass over the centers' union window tests
  /// every POI against all centers (detail::KernelOps::disk_sum_max);
  /// elsewhere each center's scan lands in one per-thread count row that
  /// poi::fold_counts folds into both outputs and zeroes again. Both give
  /// the same bits, and steady-state calls allocate nothing. A sum never
  /// exceeds centers.size() x |POIs|; throws std::invalid_argument when
  /// centers.size() > max_fold_centers(), where it could leave int32.
  void freq_sum_max(std::span<const geo::Point> centers, double radius,
                    FrequencyVector& sum, FrequencyVector& max) const;

  /// The most centers freq_sum_max accepts: INT32_MAX / |POIs| (no limit
  /// for an empty city).
  std::size_t max_fold_centers() const noexcept;

  /// Per-type tile count upper bounds for candidate pruning (built lazily
  /// on first use, then cached for the database's lifetime; thread-safe).
  /// See poi/tile_aggregates.h for the envelope invariant.
  const TileAggregates& tile_aggregates() const;

  /// Freq(poi(id).pos, radius) plus its presence fingerprint, through a
  /// cache of one table of |POIs| entries per distinct radius under one
  /// mutex, so a hit is one locked hash lookup. The attacks' dominance
  /// pruning probes the same anchor POIs at the same 2r radius for every
  /// evaluated location. Thread-safe; a miss computes outside the lock,
  /// and entries are never evicted, so the returned reference stays valid
  /// for the database's lifetime. When two threads compute the same key,
  /// the one that stores second drops its copy and counts a hit, so
  /// misses == distinct (id, radius) keys regardless of thread count.
  /// Throws std::out_of_range for an id >= pois().size().
  const AnchorAggregate& anchor_aggregate(PoiId id, double radius) const;

  /// The TypeBlock of every POI of `type` at `radius`, through the same
  /// per-radius tables as anchor_aggregate: one more entry per type beside
  /// the per-POI entries, built outside the lock from one freq_into row
  /// per POI and stored the same way (a thread that stores second drops
  /// its copy and counts a hit). Never evicted; at most
  /// |types| x |POIs| x 4 bytes per radius. A type with no POIs gets an
  /// empty block. Throws std::out_of_range for a type >= num_types().
  const TypeBlock& type_block(TypeId type, double radius) const;

  /// The frequency vector alone (anchor_aggregate's freq member).
  const FrequencyVector& anchor_freq(PoiId id, double radius) const {
    return anchor_aggregate(id, radius).freq;
  }

  /// Snapshot of the anchor cache counters.
  AnchorCacheStats anchor_cache_stats() const noexcept;

  /// Citywide type frequency F (computed once at construction).
  const FrequencyVector& city_freq() const noexcept { return city_freq_; }

  /// Infrequency rank per type: the citywide-rarest type has rank 1.
  /// Ties are broken by type id so ranks are a permutation of 1..M.
  const std::vector<int>& infrequency_rank() const noexcept { return rank_; }

  /// Types whose citywide frequency is <= threshold (the sanitization
  /// target set T_S of Section III-A).
  std::vector<TypeId> types_with_city_freq_at_most(std::int32_t threshold) const;

  /// Citywide count at or below which a present type is "rare" (the
  /// paper's aggressive sanitization threshold).
  static constexpr std::int32_t kRareCityFreq = 10;

  /// Number of rare types, types_with_city_freq_at_most(kRareCityFreq)
  /// .size(), computed once at construction. The Eq. (9) post-processing
  /// uses it as its rank cap (defense::postprocess_release).
  int rare_type_count() const noexcept { return rare_type_count_; }

  /// All POIs of the given type.
  const std::vector<PoiId>& pois_of_type(TypeId type) const {
    return by_type_.at(type);
  }

  const Poi& poi(PoiId id) const { return pois_.at(id); }
  const std::vector<Poi>& pois() const noexcept { return pois_; }
  const PoiTypeRegistry& types() const noexcept { return types_; }
  std::size_t num_types() const noexcept { return types_.size(); }
  const geo::BBox& bounds() const noexcept { return bounds_; }
  const std::string& city_name() const noexcept { return city_name_; }

 private:
  struct AnchorCache;
  struct TileHolder;

  std::string city_name_;
  std::vector<Poi> pois_;
  PoiTypeRegistry types_;
  geo::BBox bounds_;
  spatial::GridIndex index_;
  FrequencyVector city_freq_;
  std::vector<int> rank_;
  int rare_type_count_ = 0;
  std::vector<std::vector<PoiId>> by_type_;
  // Heap-allocated so the database stays movable despite the cache's
  // mutex; the pointee is mutated from const methods (it is a cache).
  std::unique_ptr<AnchorCache> anchor_cache_;
  // Same pattern for the lazily built tile aggregates (std::once_flag is
  // not movable either).
  std::unique_ptr<TileHolder> tile_holder_;
};

}  // namespace poiprivacy::poi

// LinkageEngine — streaming multi-release linkage at 100K-user scale.
//
// The chain attack (attack/chain_attack.h) generalizes the paper's
// two-release trajectory-uniqueness attack to T successive releases, but
// its step filter is an all-pairs C_t x C_{t+1} scan per step — fine at
// bench-sized populations, quadratic in candidate count at scale. This
// engine owns the scalable core both the chain attack and the new
// streaming tracker are built on:
//
//   * CandidateBlockIndex — a blocking index over one release layer's
//     candidate anchors. Candidates are binned by poi::TileAggregates
//     tile into buckets sorted by tile id (row-major), each bucket
//     keeping its tile column and the exact bbox of its members, plus
//     one offset per tile row into the buckets. A distance-annulus
//     query around p visits only the tile rows and columns between
//     tile_of(p - hi) - 1 and tile_of(p + hi) + 1; a bucket outside
//     that range lies at least one whole tile beyond hi (tile_of is
//     monotone and clamps out-of-bounds points onto their side), so the
//     exact test would reject it by a margin far beyond rounding. Each
//     visited bucket compares its bbox's min/max distance against the
//     annulus: one whole tile of candidates is accepted or rejected per
//     envelope comparison, and only straddling buckets pay
//     per-candidate squared-distance tests. Results are exact —
//     identical to the all-pairs scan bit for bit (squared distances
//     against squared bounds on both sides; pinned by
//     tests/linkage_property_test.cpp).
//
//   * solve_chain — the chain attack's backward consistency sweep over
//     precomputed layers, re-expressed over the block index with packed
//     alive bitmasks, the squared-distance annulus test, and a
//     short-circuit for already-unique layers. Byte-identical survivor
//     sets to the historical all-pairs loop, including the transparent
//     fallback for steps that would eliminate every candidate.
//
//   * Tracker — the streaming attack: per tracked user it maintains the
//     set of layer-0 candidates still alive plus, per survivor, a
//     bit-packed frontier of current-layer candidates it can reach
//     through distance-consistent steps. Each new release runs one
//     baseline inference (one lane-mask pass per present type over
//     the pivot type's cached anchor block, into reused scratch); while
//     two or more survivors remain it also runs one SVR step estimate,
//     one block-index build, and a word-parallel frontier intersection
//     — zero allocations per step in steady state.
//     Survivor sets are monotone non-increasing in the number of
//     releases by construction: a release either prunes survivors or
//     (when it carries no evidence — an empty layer, or a step that
//     would kill everyone) is transparent and changes nothing. So a lone
//     survivor is final, and the tracker skips the step work for it.
//
// The semantic difference between the two solvers is deliberate. The
// backward sweep reproduces ChainAttack exactly — but its transparent
// fallback can resurrect layer-0 candidates when later evidence arrives,
// so it is not monotone and cannot stream. The forward tracker trades
// that corner case for monotonicity and O(1) state per release, which is
// what a 100K-user, many-release sweep needs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "attack/region_reid.h"
#include "attack/trajectory_attack.h"

namespace poiprivacy::attack {

/// One timestamped release of a POI aggregate.
struct TimedRelease {
  poi::FrequencyVector freq;
  traj::TimeSec time = 0;
};

/// Blocking index over one release layer's candidate anchors (see file
/// header). build() reuses all internal capacity, so a per-release
/// rebuild is allocation-free in steady state.
class CandidateBlockIndex {
 public:
  /// Rebuilds the index over `candidates` (their order defines the bit
  /// positions every query below reports).
  void build(const AttackContext& ctx, std::span<const poi::PoiId> candidates);

  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t num_buckets() const noexcept { return buckets_.size(); }

  /// True when some candidate within [lo_km, hi_km] of p has its bit set
  /// in `alive` (a bitmask over candidate order; an empty span means all
  /// candidates are alive).
  bool any_in_annulus(geo::Point p, double lo_km, double hi_km,
                      std::span<const std::uint64_t> alive) const noexcept;

  /// Sets bit j in `out` (caller-zeroed words over candidate order) for
  /// every candidate within [lo_km, hi_km] of p.
  void annulus_mask_into(geo::Point p, double lo_km, double hi_km,
                         std::span<std::uint64_t> out) const noexcept;

 private:
  struct Entry {
    std::uint32_t index;  ///< position in the indexed candidate span
    geo::Point pos;
  };
  struct Bucket {
    std::uint32_t begin, end;  ///< entry range [begin, end)
    std::int32_t ix;           ///< tile column
    geo::BBox bbox;            ///< exact bbox of the member positions
  };
  /// Inclusive tile range a query must visit (see the file header).
  struct TileSpan {
    int x0, y0, x1, y1;
  };
  TileSpan reach_span(geo::Point p, double hi_km) const noexcept;
  /// Calls visit(bucket) for every bucket in reach_span(p, hi_km), row by
  /// row, until visit returns true; returns whether one did.
  template <typename Visit>
  bool any_reachable_bucket(geo::Point p, double hi_km,
                            Visit&& visit) const noexcept;

  const poi::TileAggregates* tiles_ = nullptr;
  std::vector<Entry> entries_;   ///< sorted by (tile id, candidate index)
  std::vector<Bucket> buckets_;  ///< one per non-empty tile, by tile id
  /// Tile row iy's buckets are [row_start_[iy], row_start_[iy + 1]).
  std::vector<std::uint32_t> row_start_;
  std::vector<std::pair<std::int32_t, std::uint32_t>> sort_scratch_;
};

class LinkageEngine {
 public:
  /// Shares the pairwise attack's trained distance regressor; `r` is the
  /// query radius of the releases under attack. The consistency slack is
  /// the pairwise attack's tolerance plus r (see TrajectoryAttack::infer
  /// for the derivation).
  LinkageEngine(const poi::PoiDatabase& db, const TrajectoryAttack& pairwise,
                double r)
      : ctx_(db),
        pairwise_(&pairwise),
        reid_(db),
        r_(r),
        slack_(pairwise.tolerance_km() + r) {}

  const poi::PoiDatabase& db() const noexcept { return ctx_.db(); }
  const AttackContext& context() const noexcept { return ctx_; }
  double r() const noexcept { return r_; }
  double slack_km() const noexcept { return slack_; }

  /// One release's candidate layer — the baseline attack, bit-identical
  /// to RegionReidentifier::infer(released, r()).candidates, into reused
  /// storage.
  void layer_into(std::span<const std::int32_t> released, ReidScratch& scratch,
                  ReidResult& out) const {
    reid_.infer_into(released, r_, scratch, out);
  }

  /// The SVR travel-distance estimate for one step (reused `features`
  /// scratch; bit-identical to TrajectoryAttack::infer's estimate).
  double estimate_step_km(std::span<const std::int32_t> f1,
                          std::span<const std::int32_t> f2, traj::TimeSec t1,
                          traj::TimeSec t2,
                          std::vector<double>& features) const {
    return pairwise_->estimate_distance_km(f1, f2, t1, t2, features);
  }

  /// The chain attack's backward consistency sweep (ChainAttack
  /// semantics, including the transparent all-dead fallback): fills
  /// `surviving_first` with the layer-0 candidates that can reach the end
  /// of the chain. Byte-identical survivors to the historical all-pairs
  /// loop, at blocked subquadratic cost.
  void solve_chain(std::span<const std::vector<poi::PoiId>> layers,
                   std::span<const double> step_km,
                   std::vector<poi::PoiId>& surviving_first) const;

  /// Streaming per-user linkage state (see file header for the forward
  /// intersection invariant). Reset and reuse one Tracker across users:
  /// after warm-up no observe() call allocates.
  class Tracker {
   public:
    explicit Tracker(const LinkageEngine& engine) : engine_(&engine) {}

    void reset() noexcept;

    /// Feeds the next release of the tracked user's stream; returns the
    /// survivor count after the update.
    std::size_t observe(std::span<const std::int32_t> released,
                        traj::TimeSec time);

    /// Layer-0 candidates still alive, in layer order. Never grows as
    /// more releases are observed.
    std::span<const poi::PoiId> survivors() const noexcept {
      return survivors_;
    }

    std::size_t releases_seen() const noexcept { return seen_; }
    bool unique() const noexcept {
      return seen_ > 0 && survivors_.size() == 1;
    }
    /// Size of the candidate layer the last observe() computed.
    std::size_t last_layer_size() const noexcept { return last_layer_size_; }

   private:
    void start_stream(std::span<const std::int32_t> released,
                      traj::TimeSec time);
    void remember_release(std::span<const std::int32_t> released,
                          traj::TimeSec time);

    const LinkageEngine* engine_;
    // Per-release layer computation (reused capacity).
    ReidScratch reid_scratch_;
    ReidResult layer_;
    CandidateBlockIndex index_;
    // Survivor state: survivors_ (layer-0 ids) and one bit row per
    // survivor over the current frontier (bits_, row stride words_).
    std::vector<poi::PoiId> survivors_;
    std::vector<poi::PoiId> frontier_;
    std::size_t words_ = 0;
    std::vector<std::uint64_t> bits_;
    std::vector<std::uint64_t> next_bits_;  ///< double buffer for the fold
    std::vector<std::uint64_t> union_;      ///< OR of the survivor rows
    std::vector<std::uint64_t> reach_;      ///< per-frontier annulus rows
    // Last informative release (empty layers carry no evidence and are
    // skipped, so the next step estimate spans the gap).
    poi::FrequencyVector prev_freq_;
    traj::TimeSec prev_time_ = 0;
    std::vector<double> features_;
    std::size_t seen_ = 0;
    std::size_t last_layer_size_ = 0;
    bool started_ = false;
  };

 private:
  AttackContext ctx_;
  const TrajectoryAttack* pairwise_;
  RegionReidentifier reid_;
  double r_;
  double slack_;
};

}  // namespace poiprivacy::attack

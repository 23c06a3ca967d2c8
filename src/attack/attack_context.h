// AttackContext — the shared query engine under every attack family.
//
// The four attack families of the paper (baseline region re-id §II-D,
// fine-grained Alg. 1, trajectory §V) and our robust/chain extensions all
// reduce to the same adversary loop: pick the rarest released types, walk
// the candidate POIs of the pivot type, and keep those whose F(p, 2r)
// dominates the release. This object owns the shared primitives once:
//
//   * per-thread FreqArena scratch (poi::scratch_arena) for allocation-
//     free aggregate queries,
//   * the database's lazily built poi::TileAggregates handle plus Window
//     construction,
//   * anchor-vector cache access and per-type candidate enumeration,
//   * the fused pivot/rarest-present scan,
//   * the exact tile-envelope prune and the tolerant violation/deficit
//     prune, which the fine-grained and robust attacks run per candidate
//     before the cached dominance test.
//
// Region re-id (and the trajectory and linkage attacks built on it) needs
// only the pivot scan: it tests dominance against the database's cached
// type-major poi::TypeBlock, every pivot-type candidate at once, where a
// per-candidate envelope would save nothing.
//
// The concrete attacks (RegionReidentifier, RobustReidentifier,
// FineGrainedAttack, TrajectoryAttack, ChainAttack) are thin strategy
// layers over this engine: they decide *which* candidates to ask about
// and how to combine the answers, never *how* to enumerate or prune.
//
// An AttackContext is one pointer, trivially copyable, and stateless
// beyond the database reference, so attacks store it by value and share
// it freely across threads; all mutable scratch lives in thread_locals
// owned by the poi layer. Every primitive is a pure function of its
// arguments and the database, so routing an attack through the context
// is a no-op for its outputs — the golden and determinism suites pin
// this bit-for-bit.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "poi/database.h"

namespace poiprivacy::attack {

class AttackContext {
 public:
  explicit AttackContext(const poi::PoiDatabase& db) : db_(&db) {}

  const poi::PoiDatabase& db() const noexcept { return *db_; }

  // ---- Scratch ------------------------------------------------------------

  /// The calling thread's scratch arena (see poi::scratch_arena for the
  /// lifetime contract).
  poi::FreqArena& scratch() const noexcept { return poi::scratch_arena(); }

  /// F(center_i, radius) for a batch of centers into the calling thread's
  /// scratch arena (row i corresponds to centers[i]). Invalidates any
  /// previously returned scratch row on this thread.
  poi::FreqArena& freq_batch_scratch(std::span<const geo::Point> centers,
                                     double radius) const {
    poi::FreqArena& arena = poi::scratch_arena();
    db_->freq_batch(centers, radius, arena);
    return arena;
  }

  /// F(center, radius) as a scratch row. Same invalidation rule.
  std::span<const std::int32_t> freq_scratch(geo::Point center,
                                             double radius) const {
    return freq_batch_scratch({&center, 1}, radius).row(0);
  }

  // ---- Candidate enumeration & the anchor cache ---------------------------

  /// Candidate anchors of a pivot type: every POI of that type.
  std::span<const poi::PoiId> candidates_of_type(poi::TypeId type) const {
    return db_->pois_of_type(type);
  }

  /// F(poi(id).pos, radius) through the database's anchor cache —
  /// the hot path of every dominance scan (same anchors probed at the
  /// same 2r for each evaluated location).
  const poi::FrequencyVector& anchor_freq(poi::PoiId id, double radius) const {
    return db_->anchor_freq(id, radius);
  }

  /// Exact dominance test of a cached anchor aggregate against a
  /// release: the anchor's stored bit-packed fingerprint must cover the
  /// released one (a handful of word-parallel AND-NOTs) before the full
  /// per-type scan runs. The fingerprint rejection is exact — a type
  /// present in the release but absent around the anchor already
  /// violates dominance — so the result equals
  /// dominates(anchor_freq(id, radius), released) bit-for-bit.
  /// `released_fp` is pack_fingerprint(released), packed once per infer.
  bool anchor_dominates(poi::PoiId id, double radius,
                        std::span<const std::int32_t> released,
                        std::span<const poi::FingerprintWord> released_fp)
      const {
    const poi::AnchorAggregate& anchor = db_->anchor_aggregate(id, radius);
    if (!poi::fingerprint_covers(anchor.fp, released_fp)) return false;
    return poi::dominates(anchor.freq, released);
  }

  // ---- Pivot / rarest-present scan ----------------------------------------

  /// One allocation-free pass over `released` filling out[0..n) with the
  /// n = min(out.size(), #present) citywide-rarest present types in
  /// ascending (city count, id) order; returns n. out[0] is the attack
  /// pivot. `skip` excludes one type from consideration. Bounded insertion
  /// into the caller's array costs ~one comparison per type, where an
  /// allocating sort costs ~1us per call — more than a whole candidate
  /// loop at large r.
  std::size_t rarest_present(std::span<const std::int32_t> released,
                             std::span<poi::TypeId> out,
                             std::optional<poi::TypeId> skip = std::nullopt)
      const noexcept;

  /// Citywide-rarest present type, if any (rarest_present with one slot).
  std::optional<poi::TypeId> pivot_type(
      std::span<const std::int32_t> released) const noexcept;

  /// Allocating form of rarest_present for callers that keep the list:
  /// the `max_n` citywide-rarest types present in `released`, rarest
  /// first, excluding `skip`. These drive the tile-envelope prunes: a
  /// rare type has few POIs citywide, so most candidate windows contain
  /// zero of them and one integer comparison rejects the candidate before
  /// any disk aggregation or cache lookup. `skip` exists because a
  /// candidate of type t always contributes to its own window, making the
  /// t-bound useless against pivot-type candidates.
  std::vector<poi::TypeId> rare_present_types(
      std::span<const std::int32_t> released, std::size_t max_n,
      std::optional<poi::TypeId> skip = std::nullopt) const;

  // ---- Tile-envelope pruning ----------------------------------------------

  const poi::TileAggregates& tiles() const { return db_->tile_aggregates(); }

  /// Resolved covering rectangle around a candidate (see
  /// poi/tile_aggregates.h for the envelope invariant).
  poi::TileAggregates::Window window(geo::Point pos, double radius) const {
    return db_->tile_aggregates().window(pos, radius);
  }

  /// Exact prune: true when some probed rare type's tile bound already
  /// falls short of the released count, so the full dominance test must
  /// fail — the candidate is rejected without touching the anchor cache.
  /// Rare types have few POIs citywide, which makes a zero-count window —
  /// and thus a one-comparison rejection — the common case.
  static bool exact_prune(const poi::TileAggregates::Window& win,
                          std::span<const std::int32_t> released,
                          std::span<const poi::TypeId> rare) noexcept {
    for (const poi::TypeId t : rare) {
      if (win.type_bound(t) < released[t]) return true;
    }
    return false;
  }

  /// Exact prune plus the total-count bound: used where candidates are not
  /// all of one pivot type, so the window total carries extra signal.
  static bool exact_prune_with_total(const poi::TileAggregates::Window& win,
                                     std::span<const std::int32_t> released,
                                     std::span<const poi::TypeId> rare,
                                     std::int64_t released_total) noexcept {
    if (exact_prune(win, released, rare)) return true;
    return win.total_bound() < released_total;
  }

  /// Tolerant prune for the violation/deficit-budgeted dominance test:
  /// each probed type t with type_bound(t) < released[t] is a guaranteed
  /// violation with deficit at least released[t] - bound (the tile bound
  /// dominates F(p, 2r)[t]); distinct types accumulate. Independently the
  /// deficit is at least released_total - total_bound. When either budget
  /// is already exceeded, dominates_tolerant must fail too — rejection is
  /// exact.
  static bool tolerant_prune(const poi::TileAggregates::Window& win,
                             std::span<const std::int32_t> released,
                             std::span<const poi::TypeId> rare,
                             int max_violations, std::int64_t max_deficit,
                             std::int64_t released_total) noexcept {
    int violations = 0;
    std::int64_t deficit = 0;
    for (const poi::TypeId t : rare) {
      const std::int32_t bound = win.type_bound(t);
      if (bound < released[t]) {
        ++violations;
        deficit += released[t] - bound;
      }
    }
    if (violations > max_violations || deficit > max_deficit) return true;
    return win.total_bound() + max_deficit < released_total;
  }

 private:
  const poi::PoiDatabase* db_;
};

}  // namespace poiprivacy::attack

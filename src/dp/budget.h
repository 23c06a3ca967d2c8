// Lock-free fixed-point privacy budgets — the admission hot path of the
// serving layer (service::SessionTable holds one meter per user).
//
// dp::Ledger composes a release history exactly, but its admission
// predicates cost a map copy (and exp/log for the advanced bound) per
// request and need external locking for concurrent use. The serving
// layer's admission decision, however, only needs the running basic
// composition against a fixed ceiling — a pair of bounded sums. This
// header makes that pair a single 64-bit word:
//
//   bits 63..32  charged epsilon, units of 1e-6   (max ~4294 epsilon)
//   bits 31..0   charged delta,   units of 1e-9   (max ~4.29 delta)
//
// so `try_charge` is one compare-and-swap: load the word, add the cost,
// refuse if either component would pass its ceiling, CAS. Admission is
// linearizable — under any interleaving of concurrent charges a user's
// spent budget can never exceed the ceiling, and no mutex is taken.
//
// Quantization contract — conservative by construction: costs
// SNAP-OR-CEIL and ceilings SNAP-OR-FLOOR. A value that is exact in
// 1e-6/1e-9 units up to floating-point noise (0.25, 0.5, 1.0, 0.05, ...
// — every shipped policy) snaps to that unit, so those schedules compose
// bit-identically to the double sums; any other value rounds UP as a
// cost and DOWN as a ceiling. Hence for every charge schedule
//
//   sum of unit costs  >=  ceil(true epsilon sum * scale)   (per comp.)
//   unit ceiling       <=  floor(true ceiling * scale)
//
// so whenever an exact kBasic dp::Ledger refuses (true sum + cost >
// ceiling), the meter refuses too: a SessionTable user is never LOOSER
// than the exact Ledger with the same ceilings (test-enforced by
// tests/ledger_property_test, LedgerTightness). Sub-unit values still
// never quantize to free — a positive epsilon charges at least one
// epsilon unit and a positive delta (even the Gaussian 1e-12 floor) at
// least one delta unit.
//
// Composition semantics: the meter is BASIC composition. Where the
// tightest-of(basic, advanced) bound is tighter (many releases at a
// small epsilon), the meter refuses no later than a basic-composition
// accountant would — admission under the meter is never looser than the
// bound it enforces. Advanced composition remains available offline via
// dp::Ledger.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>

#include "dp/mechanisms.h"

namespace poiprivacy::dp {

/// A privacy budget in fixed point: epsilon in 1e-6 units, delta in 1e-9
/// units. Saturates at the 32-bit ceiling (~4294 epsilon / ~4.29 delta),
/// which reads as "effectively unbounded" for any realistic ceiling.
struct FixedBudget {
  std::uint32_t epsilon_units = 0;
  std::uint32_t delta_units = 0;

  static constexpr double kEpsilonScale = 1e6;
  static constexpr double kDeltaScale = 1e9;
  static constexpr std::uint32_t kMaxUnits = 0xffffffffu;

  /// Snap-or-ceil quantization; a positive component never rounds to
  /// free (costs may only ever over-charge, see the header contract).
  static FixedBudget cost_of(PrivacyParams params) noexcept {
    FixedBudget cost;
    cost.epsilon_units = quantize_up(params.epsilon, kEpsilonScale);
    cost.delta_units = quantize_up(params.delta, kDeltaScale);
    return cost;
  }

  /// Snap-or-floor quantization (ceilings may only ever under-allow).
  static FixedBudget ceiling_of(double epsilon_ceiling,
                                double delta_ceiling) noexcept {
    return {quantize_down(epsilon_ceiling, kEpsilonScale),
            quantize_down(delta_ceiling, kDeltaScale)};
  }

  PrivacyParams params() const noexcept {
    return {static_cast<double>(epsilon_units) / kEpsilonScale,
            static_cast<double>(delta_units) / kDeltaScale};
  }

  friend bool operator==(const FixedBudget&, const FixedBudget&) = default;

 private:
  /// Unit-exact values (llround within a relative 1e-9 of v * scale —
  /// covers the float noise in e.g. 0.1 * 1e6 = 100000.00000000001)
  /// snap to the nearest unit; anything else rounds conservatively.
  static bool snaps(double units, long long nearest) noexcept {
    const double tolerance = 1e-9 * std::max(1.0, units);
    return std::abs(units - static_cast<double>(nearest)) <= tolerance;
  }

  static std::uint32_t quantize_up(double v, double scale) noexcept {
    if (!(v > 0.0)) return 0;
    const double units = v * scale;
    if (units >= static_cast<double>(kMaxUnits)) return kMaxUnits;
    const long long nearest = std::llround(units);
    const long long up = snaps(units, nearest)
                             ? std::max(nearest, 1ll)
                             : static_cast<long long>(std::ceil(units));
    return static_cast<std::uint32_t>(std::max(up, 1ll));
  }

  static std::uint32_t quantize_down(double v, double scale) noexcept {
    if (!(v > 0.0)) return 0;
    const double units = v * scale;
    if (units >= static_cast<double>(kMaxUnits)) return kMaxUnits;
    const long long nearest = std::llround(units);
    const long long down = snaps(units, nearest)
                               ? nearest
                               : static_cast<long long>(std::floor(units));
    return static_cast<std::uint32_t>(std::max(down, 0ll));
  }
};

/// The packed-word ledger for one principal. All operations are lock-free
/// and linearizable; `try_charge` is the only mutator on the hot path.
class AtomicBudgetMeter {
 public:
  /// Charges `cost` unless either component would pass its ceiling.
  /// Returns false (and charges nothing) when the charge would exceed.
  bool try_charge(FixedBudget cost, FixedBudget ceiling) noexcept {
    std::uint64_t seen = word_.load(std::memory_order_relaxed);
    for (;;) {
      const FixedBudget next = add(unpack(seen), cost);
      if (next.epsilon_units > ceiling.epsilon_units ||
          next.delta_units > ceiling.delta_units) {
        return false;
      }
      if (word_.compare_exchange_weak(seen, pack(next),
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
        return true;
      }
    }
  }

  FixedBudget spent() const noexcept {
    return unpack(word_.load(std::memory_order_acquire));
  }

  FixedBudget remaining(FixedBudget ceiling) const noexcept {
    const FixedBudget used = spent();
    return {used.epsilon_units >= ceiling.epsilon_units
                ? 0
                : ceiling.epsilon_units - used.epsilon_units,
            used.delta_units >= ceiling.delta_units
                ? 0
                : ceiling.delta_units - used.delta_units};
  }

  /// Budget renewal (TTL eviction / tests). Not linearizable with
  /// concurrent charges by design — callers quiesce first.
  void reset() noexcept { word_.store(0, std::memory_order_release); }

 private:
  static std::uint64_t pack(FixedBudget b) noexcept {
    return (static_cast<std::uint64_t>(b.epsilon_units) << 32) |
           b.delta_units;
  }
  static FixedBudget unpack(std::uint64_t w) noexcept {
    return {static_cast<std::uint32_t>(w >> 32),
            static_cast<std::uint32_t>(w & 0xffffffffu)};
  }
  /// Saturating add: a meter near the 32-bit rim refuses (via the ceiling
  /// check) rather than wrapping.
  static FixedBudget add(FixedBudget a, FixedBudget b) noexcept {
    const std::uint64_t eps = std::uint64_t{a.epsilon_units} + b.epsilon_units;
    const std::uint64_t del = std::uint64_t{a.delta_units} + b.delta_units;
    return {eps > FixedBudget::kMaxUnits
                ? FixedBudget::kMaxUnits
                : static_cast<std::uint32_t>(eps),
            del > FixedBudget::kMaxUnits
                ? FixedBudget::kMaxUnits
                : static_cast<std::uint32_t>(del)};
  }

  std::atomic<std::uint64_t> word_{0};
};

}  // namespace poiprivacy::dp

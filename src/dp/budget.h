// Fixed-point privacy budgets — the admission arithmetic of the serving
// layer (service::SessionTable holds one spent budget per user).
//
// dp::Ledger composes a release history exactly, but its admission
// predicates cost a map copy (and exp/log for the advanced bound) per
// request. The serving layer's admission decision, however, only needs
// the running basic composition against a fixed ceiling — a pair of
// bounded integer sums:
//
//   epsilon   units of 1e-6, 32 bits   (max ~4294 epsilon)
//   delta     units of 1e-9, 32 bits   (max ~4.29 delta)
//
// so `try_charge` is two saturating adds and two compares: add the cost,
// refuse if either component would pass its ceiling. The caller owns the
// locking (SessionTable takes its shard mutex around every charge).
//
// Quantization contract — conservative by construction: costs
// SNAP-OR-CEIL and ceilings SNAP-OR-FLOOR. A value that is exact in
// 1e-6/1e-9 units up to floating-point noise (0.25, 0.5, 1.0, 0.05, ...
// — every shipped policy) snaps to that unit, so those schedules compose
// bit-identically to the double sums; any other value rounds UP as a
// cost and DOWN as a ceiling. "Floating-point noise" is a few ulps of
// v * scale, never a fraction of a unit, so a value a hair above a unit
// boundary still charges the next unit. Hence for every charge schedule
//
//   sum of unit costs  >=  ceil(true epsilon sum * scale)   (per comp.)
//   unit ceiling       <=  floor(true ceiling * scale)
//
// so whenever an exact kBasic dp::Ledger refuses (true sum + cost >
// ceiling), the budget refuses too: a SessionTable user is never LOOSER
// than the exact Ledger with the same ceilings (test-enforced by
// tests/ledger_property_test, LedgerTightness). Sub-unit values still
// never quantize to free — a positive epsilon charges at least one
// epsilon unit and a positive delta (even the Gaussian 1e-12 floor) at
// least one delta unit.
//
// Composition semantics: the budget is BASIC composition. Where the
// tightest-of(basic, advanced) bound is tighter (many releases at a
// small epsilon), the budget refuses no later than a basic-composition
// accountant would — admission under it is never looser than the bound
// it enforces. Advanced composition remains available offline via
// dp::Ledger.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

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

  /// Adds `cost` to this spent budget unless either component would pass
  /// `ceiling`; returns false (and charges nothing) when it would. Each
  /// component saturates at kMaxUnits rather than wrapping.
  bool try_charge(FixedBudget cost, FixedBudget ceiling) noexcept {
    const FixedBudget next{saturating_add(epsilon_units, cost.epsilon_units),
                           saturating_add(delta_units, cost.delta_units)};
    if (next.epsilon_units > ceiling.epsilon_units ||
        next.delta_units > ceiling.delta_units) {
      return false;
    }
    *this = next;
    return true;
  }

  /// Componentwise budget left under `ceiling`, floored at zero.
  FixedBudget remaining(FixedBudget ceiling) const noexcept {
    return {
        ceiling.epsilon_units - std::min(epsilon_units, ceiling.epsilon_units),
        ceiling.delta_units - std::min(delta_units, ceiling.delta_units)};
  }

  PrivacyParams params() const noexcept {
    return {static_cast<double>(epsilon_units) / kEpsilonScale,
            static_cast<double>(delta_units) / kDeltaScale};
  }

  friend bool operator==(const FixedBudget&, const FixedBudget&) = default;

 private:
  /// Unit-exact values (llround within 8 ulps of v * scale — covers the
  /// float noise in e.g. 0.1 * 1e6 = 100000.00000000001) snap to the
  /// nearest unit; anything else rounds conservatively.
  static bool snaps(double units, long long nearest) noexcept {
    const double tolerance =
        8.0 * std::numeric_limits<double>::epsilon() * std::max(1.0, units);
    return std::abs(units - static_cast<double>(nearest)) <= tolerance;
  }

  static std::uint32_t saturating_add(std::uint32_t a,
                                      std::uint32_t b) noexcept {
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(std::uint64_t{a} + b, kMaxUnits));
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

}  // namespace poiprivacy::dp

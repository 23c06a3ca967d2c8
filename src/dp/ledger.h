// dp::Ledger — the exact privacy accountant of the eval, defense and
// membership-inference paths.
//
// One API serves the eval and defense pipelines (basic / advanced
// composition) and the continual-release workloads (window-level
// composition with budget renewal); the config picks the policy:
//
//   kBasic                  sums of epsilons and deltas vs the ceilings
//   kAdvancedHeterogeneous  tightest-of(basic, Thm 3.20 per epsilon
//                           group) vs the ceilings
//   kWindowedRenewal        per-window epsilon budget that renews at
//                           window boundaries
//
// Every policy keeps double sums plus a per-epsilon-group map,
// bit-identical to the historical accountants (test-enforced by
// tests/ledger_property_test against frozen ports of them).
//
// The serving layer does not charge through the Ledger: its per-user
// admission is service::SessionTable on dp::FixedBudget
// (dp/budget.h), which is never LOOSER than an exact kBasic Ledger with
// the same ceilings (also test-enforced by tests/ledger_property_test).
//
// Epoch semantics (kWindowedRenewal): epochs map onto fixed-length
// accounting windows (window_of = epoch / window_epochs); each window
// owns a fresh budget — the w-event-style guarantee where the bound
// holds over any single window, never by overdrawing the current one.
// Every touched window keeps its own per-epsilon-group history. The
// serving layer's session table performs the same renewal fleet-wide
// from advance_epoch.
//
// Thread safety: none. The Ledger backs the deterministic eval/mia
// paths, which already serialize accounting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

#include "dp/mechanisms.h"

namespace poiprivacy::dp {

enum class LedgerPolicy : std::uint8_t {
  kBasic = 0,              ///< sum of epsilons/deltas vs the ceilings
  kAdvancedHeterogeneous,  ///< tightest-of(basic, Thm 3.20 per eps group)
  kWindowedRenewal,        ///< per-window budget, renewed at boundaries
};

/// Renewal policy of a windowed ledger: how many epochs share one
/// accounting window, and the per-window epsilon budget that renews at
/// each window boundary (0 = unbounded, pure bookkeeping).
struct WindowPolicy {
  std::size_t window_epochs = 1;
  double epsilon_budget = 0.0;
};

struct LedgerConfig {
  LedgerPolicy policy = LedgerPolicy::kBasic;
  /// Lifetime ceilings for kBasic / kAdvancedHeterogeneous; 0 reads as
  /// unbounded (the historical PrivacyAccountant had no ceiling at all).
  double epsilon_ceiling = 0.0;
  double delta_ceiling = 0.0;
  /// kAdvancedHeterogeneous: slack delta' of the advanced bound; the
  /// composed guarantee is tightest-of(basic, advanced) and the slack
  /// adds to the composed delta. <= 0 degrades to plain basic.
  double advanced_slack = 1e-6;
  /// kWindowedRenewal geometry + per-window budget.
  WindowPolicy window;
};

/// One accounting engine; see the header comment for the policies. Not
/// copyable: a copy would fork the budget history.
class Ledger {
 public:
  /// Throws std::invalid_argument on an ill-formed config: zero
  /// window_epochs or negative budget under kWindowedRenewal.
  explicit Ledger(LedgerConfig config = {});

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  const LedgerConfig& config() const noexcept { return config_; }

  // -- admission ------------------------------------------------------------

  /// Would charging `params` against `epoch` pass the policy's bound?
  /// Never throws: invalid params (eps <= 0, delta outside [0, 1)) can
  /// never be admitted and report true.
  bool would_exceed(PrivacyParams params, std::size_t epoch = 0) const;

  /// Charge-if-admissible: false (charging nothing) when the params are
  /// invalid or the charge would pass the bound.
  bool try_charge(PrivacyParams params, std::size_t epoch = 0);

  /// Throwing charge for callers that treat refusal as a logic error:
  /// std::invalid_argument on invalid params, std::runtime_error when
  /// the budget would be exceeded. A rejected charge touches nothing —
  /// windows_touched() counts real releases only.
  void charge(PrivacyParams params, std::size_t epoch = 0);

  /// Unconditional record: validates params (throws) but never budget-
  /// checks — the bookkeeping path for releases performed elsewhere
  /// (e.g. a serving layer that already admitted the request).
  void record(PrivacyParams params, std::size_t epoch = 0);

  // -- lifetime composition -------------------------------------------------

  std::size_t releases() const noexcept { return releases_; }

  /// The composed cost under the configured policy: basic for kBasic /
  /// kWindowedRenewal (lifetime), tightest-of(basic, advanced) for
  /// kAdvancedHeterogeneous.
  PrivacyParams spent() const;

  /// Componentwise budget left before the lifetime ceilings, clamped at
  /// zero; +infinity for an unbounded ceiling.
  PrivacyParams remaining() const;

  /// Basic composition: exact sums of epsilons and deltas, in charge
  /// order.
  PrivacyParams basic_composition() const noexcept;

  /// Advanced composition with total slack delta_prime: a homogeneous
  /// history uses Thm 3.20 directly; with G distinct epsilons each
  /// group composes under slack delta_prime / G and the bounds sum.
  /// Throws std::invalid_argument on slack outside (0, 1).
  PrivacyParams advanced_composition(double delta_prime) const;

  /// Distinct per-release epsilons recorded so far.
  std::size_t epsilon_groups() const noexcept;

  // -- windowed composition (kWindowedRenewal; epoch-indexed) ---------------

  /// The accounting window `epoch` belongs to (epoch / window_epochs —
  /// an epoch exactly on a boundary opens the NEXT window).
  std::size_t window_of(std::size_t epoch) const noexcept {
    return epoch / config_.window.window_epochs;
  }

  /// Windows that have recorded at least one release.
  std::size_t windows_touched() const noexcept { return windows_.size(); }

  /// Basic composition of one window's releases ({0, 0} if untouched).
  PrivacyParams window_composition(std::size_t window) const noexcept;

  /// Advanced composition of one window's releases (Thm 3.20 per eps
  /// group; {0, delta_prime} if untouched).
  PrivacyParams window_advanced_composition(std::size_t window,
                                            double delta_prime) const;

  /// The worst per-window basic composition — the epsilon the renewal
  /// guarantee actually promises per window.
  PrivacyParams peak_window_composition() const noexcept;

  /// Basic composition across every window (the unbounded-stream cost).
  PrivacyParams lifetime_composition() const noexcept;

 private:
  /// One charge history: exact sums plus the per-epsilon-group map the
  /// advanced bound composes over. The lifetime total and every touched
  /// window each keep one.
  struct Group {
    std::size_t releases = 0;
    double epsilon_sum = 0.0;
    double delta_sum = 0.0;
    std::map<double, std::size_t> by_epsilon;  ///< releases per epsilon

    void add(PrivacyParams params);
    PrivacyParams basic() const noexcept { return {epsilon_sum, delta_sum}; }
    PrivacyParams advanced(double delta_prime) const;
  };

  static bool invalid(PrivacyParams params) noexcept {
    return params.epsilon <= 0.0 || params.delta < 0.0 || params.delta >= 1.0;
  }

  /// Composed cost of `group` after a hypothetical extra charge, under
  /// the configured composition policy.
  PrivacyParams composed_after(const Group& group, PrivacyParams params) const;
  PrivacyParams composed_of(const Group& group) const;
  bool exceeds_ceilings(PrivacyParams composed) const noexcept;
  void commit(PrivacyParams params, std::size_t epoch);

  LedgerConfig config_;
  // total_ is the lifetime history; windows_ holds one history per
  // touched accounting window (kWindowedRenewal only).
  Group total_;
  std::map<std::size_t, Group> windows_;
  std::size_t releases_ = 0;
};

}  // namespace poiprivacy::dp

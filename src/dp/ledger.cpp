#include "dp/ledger.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace poiprivacy::dp {

namespace {

/// Thm 3.20 epsilon bound for k releases at `eps` with slack delta_prime.
double advanced_epsilon(double eps, double k, double delta_prime) {
  return eps * std::sqrt(2.0 * k * std::log(1.0 / delta_prime)) +
         k * eps * (std::exp(eps) - 1.0);
}

PrivacyParams tighter(PrivacyParams a, PrivacyParams b) {
  return a.epsilon <= b.epsilon ? a : b;
}

}  // namespace

void Ledger::Group::add(PrivacyParams params) {
  ++releases;
  epsilon_sum += params.epsilon;
  delta_sum += params.delta;
  ++by_epsilon[params.epsilon];
}

PrivacyParams Ledger::Group::advanced(double delta_prime) const {
  if (delta_prime <= 0.0 || delta_prime >= 1.0) {
    throw std::invalid_argument("ledger: delta_prime must be in (0, 1)");
  }
  if (releases == 0) return {0.0, delta_prime};
  // Each epsilon group is a k-fold homogeneous composition; the groups
  // then compose additively, with the slack split evenly so the total
  // extra delta stays delta_prime. One group reduces to plain Thm 3.20.
  const double group_slack =
      delta_prime / static_cast<double>(by_epsilon.size());
  double advanced = 0.0;
  for (const auto& [eps, count] : by_epsilon) {
    advanced += advanced_epsilon(eps, static_cast<double>(count), group_slack);
  }
  return {advanced, delta_sum + delta_prime};
}

Ledger::Ledger(LedgerConfig config) : config_(config) {
  if (config_.policy == LedgerPolicy::kWindowedRenewal) {
    if (config_.window.window_epochs == 0) {
      throw std::invalid_argument("ledger: window_epochs must be positive");
    }
    if (config_.window.epsilon_budget < 0.0) {
      throw std::invalid_argument("ledger: epsilon_budget must be nonnegative");
    }
  } else {
    // window_of() divides by window_epochs unconditionally.
    if (config_.window.window_epochs == 0) config_.window.window_epochs = 1;
  }
}

PrivacyParams Ledger::composed_of(const Group& group) const {
  const PrivacyParams basic = group.basic();
  if (config_.policy == LedgerPolicy::kAdvancedHeterogeneous &&
      config_.advanced_slack > 0.0 && group.releases > 0) {
    return tighter(basic, group.advanced(config_.advanced_slack));
  }
  return basic;
}

PrivacyParams Ledger::composed_after(const Group& group,
                                     PrivacyParams params) const {
  Group hypothetical = group;
  hypothetical.add(params);
  return composed_of(hypothetical);
}

bool Ledger::exceeds_ceilings(PrivacyParams composed) const noexcept {
  return (config_.epsilon_ceiling > 0.0 &&
          composed.epsilon > config_.epsilon_ceiling) ||
         (config_.delta_ceiling > 0.0 && composed.delta > config_.delta_ceiling);
}

bool Ledger::would_exceed(PrivacyParams params, std::size_t epoch) const {
  if (invalid(params)) return true;  // unadmittable, never chargeable
  if (config_.policy == LedgerPolicy::kWindowedRenewal) {
    if (config_.window.epsilon_budget <= 0.0) return false;
    const auto it = windows_.find(window_of(epoch));
    const double spent_eps = it == windows_.end() ? 0.0 : it->second.epsilon_sum;
    return spent_eps + params.epsilon > config_.window.epsilon_budget;
  }
  return exceeds_ceilings(composed_after(total_, params));
}

void Ledger::commit(PrivacyParams params, std::size_t epoch) {
  total_.add(params);
  if (config_.policy == LedgerPolicy::kWindowedRenewal) {
    windows_[window_of(epoch)].add(params);
  }
  ++releases_;
}

bool Ledger::try_charge(PrivacyParams params, std::size_t epoch) {
  if (would_exceed(params, epoch)) return false;
  commit(params, epoch);
  return true;
}

void Ledger::charge(PrivacyParams params, std::size_t epoch) {
  // Validate before touching any state: a rejected charge must not
  // create (or charge) a window, so windows_touched() counts real
  // releases only.
  if (invalid(params)) {
    throw std::invalid_argument(
        "ledger: requires epsilon > 0 and delta in [0, 1)");
  }
  if (!try_charge(params, epoch)) {
    throw std::runtime_error("ledger: budget exhausted");
  }
}

void Ledger::record(PrivacyParams params, std::size_t epoch) {
  if (invalid(params)) {
    throw std::invalid_argument(
        "ledger: requires epsilon > 0 and delta in [0, 1)");
  }
  commit(params, epoch);
}

PrivacyParams Ledger::spent() const { return composed_of(total_); }

PrivacyParams Ledger::remaining() const {
  constexpr double kUnbounded = std::numeric_limits<double>::infinity();
  const PrivacyParams used = spent();
  return {config_.epsilon_ceiling > 0.0
              ? std::max(0.0, config_.epsilon_ceiling - used.epsilon)
              : kUnbounded,
          config_.delta_ceiling > 0.0
              ? std::max(0.0, config_.delta_ceiling - used.delta)
              : kUnbounded};
}

PrivacyParams Ledger::basic_composition() const noexcept {
  return total_.basic();
}

PrivacyParams Ledger::advanced_composition(double delta_prime) const {
  return total_.advanced(delta_prime);
}

std::size_t Ledger::epsilon_groups() const noexcept {
  return total_.by_epsilon.size();
}

PrivacyParams Ledger::window_composition(std::size_t window) const noexcept {
  const auto it = windows_.find(window);
  return it == windows_.end() ? PrivacyParams{0.0, 0.0} : it->second.basic();
}

PrivacyParams Ledger::window_advanced_composition(std::size_t window,
                                                  double delta_prime) const {
  const auto it = windows_.find(window);
  if (it == windows_.end()) return {0.0, delta_prime};
  return it->second.advanced(delta_prime);
}

PrivacyParams Ledger::peak_window_composition() const noexcept {
  PrivacyParams peak{0.0, 0.0};
  for (const auto& [window, group] : windows_) {
    const PrivacyParams composed = group.basic();
    if (composed.epsilon > peak.epsilon) peak = composed;
  }
  return peak;
}

PrivacyParams Ledger::lifetime_composition() const noexcept {
  PrivacyParams total{0.0, 0.0};
  for (const auto& [window, group] : windows_) {
    const PrivacyParams composed = group.basic();
    total.epsilon += composed.epsilon;
    total.delta += composed.delta;
  }
  return total;
}

}  // namespace poiprivacy::dp

#include "service/release_service.h"

#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/parallel.h"
#include "dp/mechanisms.h"
#include "obs/metrics.h"

namespace poiprivacy::service {

namespace {

/// Fixed chunk sizes (never derived from the thread count, per the
/// determinism conventions of DESIGN.md 4d).
constexpr std::size_t kCloakChunk = 8;
constexpr std::size_t kComputeChunk = 1;

constexpr std::size_t kNotMissing = static_cast<std::size_t>(-1);

/// A point request the service can answer: a known policy, a finite
/// location and a finite positive radius. Phase A checks this before
/// admission, so a malformed request is never charged budget and
/// never reaches the cloaker or the grid index. (A finite but huge radius
/// is well formed: its disk covers the whole city.)
bool well_formed(const ReleaseRequest& request, std::size_t num_policies) {
  return request.policy < num_policies && std::isfinite(request.location.x) &&
         std::isfinite(request.location.y) && std::isfinite(request.radius) &&
         request.radius > 0.0;
}

struct KeyHash {
  std::size_t operator()(const ReleaseCacheKey& key) const noexcept {
    return static_cast<std::size_t>(ReleaseCache::hash(key));
  }
};

/// Process-wide wall-clock of the 6-phase batch pipeline, per batch and
/// per phase. Observation only: nothing here feeds back into admission,
/// caching, or released vectors (tests/obs_determinism_test.cpp). The
/// event counts live per instance in ReleaseService::Counters.
struct ServiceMetrics {
  obs::Histogram& batch_seconds;
  obs::Histogram& admission_seconds;
  obs::Histogram& cloak_seconds;
  obs::Histogram& probe_seconds;
  obs::Histogram& compute_seconds;
  obs::Histogram& insert_seconds;
  obs::Histogram& noise_seconds;

  static ServiceMetrics& get() {
    obs::Registry& reg = obs::global_registry();
    static ServiceMetrics* metrics = new ServiceMetrics{
        reg.histogram("service.batch_seconds"),
        reg.histogram("service.phase.admission_seconds"),
        reg.histogram("service.phase.cloak_seconds"),
        reg.histogram("service.phase.cache_probe_seconds"),
        reg.histogram("service.phase.compute_seconds"),
        reg.histogram("service.phase.cache_insert_seconds"),
        reg.histogram("service.phase.noise_seconds"),
    };
    return *metrics;
  }
};

}  // namespace

const char* status_name(ReleaseStatus status) noexcept {
  switch (status) {
    case ReleaseStatus::kGranted:
      return "granted";
    case ReleaseStatus::kDegraded:
      return "degraded";
    case ReleaseStatus::kBudgetExhausted:
      return "budget_exhausted";
    case ReleaseStatus::kInvalidRequest:
      return "invalid_request";
  }
  return "unknown";
}

std::uint64_t ServiceStats::count(ReleaseStatus status) const noexcept {
  switch (status) {
    case ReleaseStatus::kGranted:
      return granted;
    case ReleaseStatus::kDegraded:
      return degraded;
    case ReleaseStatus::kBudgetExhausted:
      return budget_exhausted;
    case ReleaseStatus::kInvalidRequest:
      return invalid;
  }
  return 0;
}

obs::Counter& ReleaseService::Counters::of(ReleaseStatus status) noexcept {
  switch (status) {
    case ReleaseStatus::kGranted:
      return granted;
    case ReleaseStatus::kDegraded:
      return degraded;
    case ReleaseStatus::kBudgetExhausted:
      return budget_exhausted;
    case ReleaseStatus::kInvalidRequest:
      break;
  }
  return invalid;
}

ReleaseService::ReleaseService(const poi::PoiDatabase& db,
                               const cloak::AdaptiveIntervalCloaker& cloaker,
                               ServiceConfig config)
    : db_(&db),
      cloaker_(&cloaker),
      config_(std::move(config)),
      cache_(ReleaseCacheConfig{config_.cache_capacity, config_.cache_shards,
                                config_.cache_ttl_epochs}),
      sessions_(SessionTableConfig{config_.session_capacity,
                                   config_.session_shards,
                                   config_.session_ttl_epochs,
                                   config_.session_renew_epochs,
                                   config_.epsilon_ceiling,
                                   config_.delta_ceiling}),
      noise_base_(common::Rng(config_.seed).substream(0)),
      aggregate_base_(common::Rng(config_.seed).substream(1)) {
  if (config_.policies.empty()) {
    throw std::invalid_argument("service: needs at least one policy");
  }
  for (const ReleasePolicy& policy : config_.policies) {
    const bool gaussian = policy.release.noise == defense::DpNoiseKind::kGaussian;
    if (policy.release.k == 0 || policy.release.epsilon <= 0.0 ||
        policy.release.delta >= 1.0 ||
        policy.release.delta < (gaussian ? 1e-12 : 0.0)) {
      throw std::invalid_argument("service: ill-formed policy '" +
                                  policy.name + "'");
    }
    // Checked here so Phase D's exact int32 fold can never throw mid-batch.
    if (policy.release.k > db.max_fold_centers()) {
      throw std::invalid_argument("service: policy '" + policy.name +
                                  "' has k x |POIs| above INT32_MAX");
    }
  }
  if (config_.degrade_policy &&
      *config_.degrade_policy >= config_.policies.size()) {
    throw std::invalid_argument("service: degrade_policy out of range");
  }
  if (config_.max_batch == 0) config_.max_batch = 1;
  policy_costs_.reserve(config_.policies.size());
  for (const ReleasePolicy& policy : config_.policies) {
    policy_costs_.push_back(dp::FixedBudget::cost_of(
        {policy.release.epsilon, policy.release.delta}));
  }
}

ReleaseStatus ReleaseService::admit(UserId user, PolicyId requested,
                                    PolicyId& served) {
  const ChargeOutcome primary =
      sessions_.try_charge(user, policy_costs_[requested]);
  if (primary == ChargeOutcome::kCharged) {
    served = requested;
    return ReleaseStatus::kGranted;
  }
  // A full table refuses outright: degrading would need the same slot.
  if (primary == ChargeOutcome::kWouldExceed && config_.degrade_policy &&
      *config_.degrade_policy != requested &&
      sessions_.try_charge(user, policy_costs_[*config_.degrade_policy]) ==
          ChargeOutcome::kCharged) {
    served = *config_.degrade_policy;
    return ReleaseStatus::kDegraded;
  }
  return ReleaseStatus::kBudgetExhausted;
}

dp::PrivacyParams ReleaseService::user_spent(UserId user) const {
  return sessions_.spent(user);
}

dp::PrivacyParams ReleaseService::user_remaining(UserId user) const {
  return sessions_.remaining(user);
}

void ReleaseService::advance_epoch(std::uint64_t ticks) {
  sessions_.advance_epoch(ticks);
  cache_.advance_epoch(ticks);
  sessions_.sweep();
  sessions_.renew_windows();
  cache_.evict_expired();
}

ServiceStats ReleaseService::stats() const {
  ServiceStats out;
  out.requests = counters_.requests.value();
  out.granted = counters_.granted.value();
  out.degraded = counters_.degraded.value();
  out.budget_exhausted = counters_.budget_exhausted.value();
  out.invalid = counters_.invalid.value();
  out.cache_hits = counters_.cache_hits.value();
  out.cache_misses = counters_.cache_misses.value();
  out.batches = counters_.batches.value();
  out.users = sessions_.stats().sessions_created;
  return out;
}

CloakAggregate ReleaseService::compute_aggregate(
    const ReleaseCacheKey& key) const {
  // The dummy draw seeds from the key hash, so the aggregate is a pure
  // function of the key: recomputing after an eviction (or on another
  // thread) reproduces it bit-for-bit.
  common::Rng rng = aggregate_base_.substream(ReleaseCache::hash(key));
  const std::vector<geo::Point> dummies = cloaker_->region_dummy_locations(
      key.region, config_.policies[key.policy].release.k, rng);
  CloakAggregate aggregate;
  aggregate.k = dummies.size();
  defense::aggregate_dummies(*db_, dummies, key.radius, aggregate.support);
  return aggregate;
}

poi::FrequencyVector ReleaseService::noised_release(
    const defense::DpDefenseConfig& policy, const CloakAggregate& aggregate,
    common::Rng& rng) const {
  return defense::noised_release(aggregate.support, aggregate.k, policy,
                                 db_->infrequency_rank(),
                                 db_->rare_type_count(), rng);
}

struct ReleaseService::Admitted {
  std::size_t index = 0;  ///< position in the batch
  PolicyId policy = 0;
  std::uint64_t noise_index = 0;
  ReleaseCacheKey key;
  std::shared_ptr<const CloakAggregate> aggregate;
  std::size_t missing_slot = kNotMissing;
  bool cache_hit = false;  ///< resident, or coalesced onto a batch peer
};

void ReleaseService::serve_batch(std::span<const ReleaseRequest> requests,
                                 std::vector<ReleaseResult>& results) {
  ServiceMetrics& metrics = ServiceMetrics::get();
  const obs::Span batch_span(metrics.batch_seconds);
  const std::size_t base = results.size();
  results.resize(base + requests.size());
  std::vector<Admitted> admitted;
  admitted.reserve(requests.size());

  // Phase A — admission, serial in request order. Budget accounting is a
  // fold over each user's history; the served policy is charged here so
  // later same-user requests in this batch see the updated budget.
  obs::Span admission_span(metrics.admission_seconds);
  counters_.requests.add(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ReleaseRequest& request = requests[i];
    ReleaseResult& out = results[base + i];
    const std::uint64_t noise_index =
        next_request_index_.fetch_add(1, std::memory_order_relaxed);
    if (!well_formed(request, config_.policies.size())) {
      out.status = ReleaseStatus::kInvalidRequest;
      out.spent = {0.0, 0.0};
      counters_.invalid.add(1);
      continue;
    }
    PolicyId served = request.policy;
    const ReleaseStatus status = admit(request.user_id, request.policy, served);
    out.spent = sessions_.spent(request.user_id);
    out.status = status;
    counters_.of(status).add(1);
    if (status == ReleaseStatus::kBudgetExhausted) continue;
    out.served_policy = served;
    Admitted a;
    a.index = i;
    a.policy = served;
    a.noise_index = noise_index;
    admitted.push_back(std::move(a));
  }
  admission_span.stop();

  common::ThreadPool& pool = common::global_pool();

  // Phase B — cloak each admitted request (read-only, parallel).
  obs::Span cloak_span(metrics.cloak_seconds);
  common::parallel_for_each(pool, admitted.size(), kCloakChunk,
                            [&](std::size_t j) {
                              Admitted& a = admitted[j];
                              const ReleaseRequest& request =
                                  requests[a.index];
                              a.key.region =
                                  cloaker_
                                      ->cloak(request.location,
                                              config_.policies[a.policy]
                                                  .release.k)
                                      .region;
                              a.key.radius = request.radius;
                              a.key.policy = a.policy;
                            });
  cloak_span.stop();

  // Phase C — cache probe, serial in request order so LRU motion and the
  // counters are scheduling-independent. Requests sharing a cold key
  // within the batch coalesce onto one computation and count as hits.
  obs::Span probe_span(metrics.probe_seconds);
  std::vector<ReleaseCacheKey> missing;
  std::unordered_map<ReleaseCacheKey, std::size_t, KeyHash> pending;
  for (Admitted& a : admitted) {
    if (auto hit = cache_.get(a.key)) {
      a.aggregate = std::move(hit);
      a.cache_hit = true;
      continue;
    }
    if (const auto it = pending.find(a.key); it != pending.end()) {
      a.missing_slot = it->second;
      a.cache_hit = true;
      continue;
    }
    a.missing_slot = missing.size();
    pending.emplace(a.key, missing.size());
    missing.push_back(a.key);
  }
  // Every admitted request either hit or opened one missing slot.
  counters_.cache_hits.add(admitted.size() - missing.size());
  counters_.cache_misses.add(missing.size());
  probe_span.stop();

  // Phase D — compute the missing aggregates (parallel, the expensive
  // part: k range queries per key).
  obs::Span compute_span(metrics.compute_seconds);
  std::vector<std::shared_ptr<const CloakAggregate>> computed(missing.size());
  common::parallel_for_each(
      pool, missing.size(), kComputeChunk, [&](std::size_t j) {
        computed[j] =
            std::make_shared<const CloakAggregate>(compute_aggregate(missing[j]));
      });
  compute_span.stop();

  // Phase E — insert in first-miss order (deterministic evictions) and
  // resolve the coalesced requests.
  obs::Span insert_span(metrics.insert_seconds);
  for (std::size_t j = 0; j < missing.size(); ++j) {
    cache_.put(missing[j], computed[j]);
  }
  for (Admitted& a : admitted) {
    if (a.missing_slot != kNotMissing) a.aggregate = computed[a.missing_slot];
  }
  insert_span.stop();

  // Phase F — per-request noise + Eq. (9) post-processing (parallel;
  // request i draws from substream(i) regardless of thread or order).
  obs::Span noise_span(metrics.noise_seconds);
  common::parallel_for_each(
      pool, admitted.size(), kComputeChunk, [&](std::size_t j) {
        const Admitted& a = admitted[j];
        common::Rng rng = noise_base_.substream(a.noise_index);
        ReleaseResult& out = results[base + a.index];
        out.vector = noised_release(config_.policies[a.policy].release,
                                    *a.aggregate, rng);
        out.cache_hit = a.cache_hit;
      });
  noise_span.stop();

  counters_.batches.add(1);
}

void ReleaseService::drain_queue() {
  const std::size_t n = std::min(queue_.size(), config_.max_batch);
  std::vector<ReleaseRequest> batch(queue_.begin(),
                                    queue_.begin() + static_cast<std::ptrdiff_t>(n));
  queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(n));
  serve_batch(batch, collected_);
}

void ReleaseService::enqueue(const ReleaseRequest& request) {
  queue_.push_back(request);
  if (queue_.size() >= config_.max_batch) drain_queue();
}

std::vector<ReleaseResult> ReleaseService::flush() {
  while (!queue_.empty()) drain_queue();
  return std::exchange(collected_, {});
}

std::vector<ReleaseResult> ReleaseService::serve(
    std::span<const ReleaseRequest> requests) {
  if (!queue_.empty() || !collected_.empty()) {
    throw std::logic_error("service: serve() with requests pending");
  }
  for (const ReleaseRequest& request : requests) enqueue(request);
  return flush();
}

ReleaseResult ReleaseService::serve_stream(const StreamRequest& request) {
  ReleaseResult out;
  // Arrival order assigns the noise substream, exactly like a point
  // request: a sequential caller is fully reproducible.
  const std::uint64_t noise_index =
      next_request_index_.fetch_add(1, std::memory_order_relaxed);
  counters_.requests.add(1);
  const StreamSource* source = stream_source_;
  const std::size_t windows =
      source == nullptr ? 0
                        : source->num_windows(request.begin_epoch,
                                              request.end_epoch);
  if (source == nullptr || request.policy >= config_.policies.size() ||
      request.series >= source->num_series() ||
      request.end_epoch > source->epochs() ||
      request.begin_epoch >= request.end_epoch || windows == 0) {
    out.status = ReleaseStatus::kInvalidRequest;
    out.spent = {0.0, 0.0};
    counters_.invalid.add(1);
    return out;
  }
  // One admission charge covers the whole block: W windows, each a
  // policy-cost release. Saturating multiply — an overflowing block can
  // only be refused, never undercharged. No degrade path: a degraded
  // stream block would still cost W windows of *some* budget, and the
  // caller asked for this policy's noise scale.
  const auto scale = [](std::uint32_t units, std::uint64_t w) {
    const std::uint64_t total = units * w;
    return total > std::uint64_t{dp::FixedBudget::kMaxUnits}
               ? dp::FixedBudget::kMaxUnits
               : static_cast<std::uint32_t>(total);
  };
  dp::FixedBudget cost = policy_costs_[request.policy];
  cost.epsilon_units = scale(cost.epsilon_units, windows);
  cost.delta_units = scale(cost.delta_units, windows);
  const ChargeOutcome charged = sessions_.try_charge(request.user_id, cost);
  out.spent = sessions_.spent(request.user_id);
  if (charged != ChargeOutcome::kCharged) {
    // A full table refuses fail-closed, indistinguishable from an
    // exhausted budget on the wire.
    out.status = ReleaseStatus::kBudgetExhausted;
    counters_.budget_exhausted.add(1);
    return out;
  }
  out.status = ReleaseStatus::kGranted;
  out.served_policy = request.policy;
  counters_.granted.add(1);
  // The raw block is policy-independent (noise is per-request), so all
  // policies share one kind-1 cache entry per window range.
  ReleaseCacheKey key;
  key.kind = 1;
  key.stream_begin = request.begin_epoch;
  key.stream_end = request.end_epoch;
  std::shared_ptr<const CloakAggregate> block = cache_.get(key);
  if (block) {
    out.cache_hit = true;
    counters_.cache_hits.add(1);
  } else {
    auto computed = std::make_shared<CloakAggregate>();
    source->release_raw(request.begin_epoch, request.end_epoch,
                        computed->sum);
    computed->sensitivity.assign(1, source->sensitivity());
    computed->k = source->num_series();
    block = std::move(computed);
    cache_.put(key, block);
    counters_.cache_misses.add(1);
  }
  // Per-request noise: one Laplace draw per window for the requested
  // series, window-ascending (mirrors mia/stream_release: rounded,
  // saturated to [0, INT32_MAX]).
  const defense::DpDefenseConfig& policy =
      config_.policies[request.policy].release;
  const dp::LaplaceMechanism laplace(policy.epsilon, block->sensitivity[0]);
  common::Rng rng = noise_base_.substream(noise_index);
  const std::size_t stride = block->k;
  out.vector.resize(windows);
  for (std::size_t w = 0; w < windows; ++w) {
    const double noised =
        laplace.perturb(block->sum[w * stride + request.series], rng);
    out.vector[w] = dp::noised_count(noised);
  }
  return out;
}

ReleaseResult ReleaseService::serve_concurrent(const ReleaseRequest& request) {
  std::vector<ReleaseResult> out;
  serve_batch({&request, 1}, out);
  return std::move(out.front());
}

}  // namespace poiprivacy::service

// serve_batch_hot / serve_batch_cold: the in-process batch path.
//
// Untraced run: the fixture (city, cloaker population, traces, service,
// warm-up) is built kSetupReps times and setup_s is the median. The timed
// phase then serves the whole trace in rounds at --threads 1 until
// --seconds have passed; between rounds advance_epoch() renews every
// budget (session_renew_epochs = 1), so each round repeats the same
// admission decisions while the cache keeps its contents. Throughput and
// CPU per request are medians over rounds; the latency percentiles of
// each request's enqueue -> result time (the synchronous drain of its
// batch) are medians over windows of 20 batches. Each round runs on the
// next CPU in turn (see pin_to_cpu).
//
// Output checks: every round's status counts equal round 0's, and a
// fresh service at --threads 2 reproduces the warm-up and round-0
// digests over (status, vector).
//
// Traced run: a shadow pipeline replays warm-up and rounds through the
// layers' public functions — SessionTable::try_charge, cloak(),
// ReleaseCache::get/put, region_dummy_locations + freq_batch, calibrated
// Gaussian noise, defense::postprocess_release — seeded exactly as the
// service seeds itself, and must reproduce every ReleaseResult bit for
// bit. Its spans give the per-layer costs.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "common/parallel.h"
#include "common/rng.h"
#include "defense/opt_defense.h"
#include "dp/budget.h"
#include "dp/mechanisms.h"
#include "service/workload.h"
#include "workloads.h"

namespace perfbench {

namespace common = poiprivacy::common;
namespace defense = poiprivacy::defense;
namespace dp = poiprivacy::dp;
namespace geo = poiprivacy::geo;

using service::ReleaseRequest;
using service::ReleaseResult;
using service::ReleaseStatus;

namespace {

constexpr std::size_t kRequestsPerUser = 20;
/// Requests per latency window: 20 batches of the default max_batch.
constexpr std::size_t kLatencyWindow = 20 * 256;

std::vector<ReleaseRequest> make_trace(const poi::City& city,
                                       std::uint64_t seed, std::size_t users,
                                       std::uint64_t user_base) {
  service::WorkloadConfig workload;
  workload.num_users = users;
  workload.requests_per_user = kRequestsPerUser;
  workload.seed = seed;
  workload.policy_weights = {0.8, 0.2};
  std::vector<ReleaseRequest> trace =
      service::requests_of(service::generate_workload(city, workload));
  for (ReleaseRequest& request : trace) request.user_id += user_base;
  return trace;
}

cloak::AdaptiveIntervalCloaker make_cloaker(const poi::City& city) {
  common::Rng rng(kCitySeed + 1);
  return cloak::AdaptiveIntervalCloaker(
      cloak::uniform_population(city.db.bounds(), 10000, rng),
      city.db.bounds());
}

service::ServiceConfig make_config(std::uint64_t seed,
                                   std::size_t cache_capacity) {
  service::ServiceConfig config;
  config.policies.push_back(
      {"interactive", {.k = 16, .epsilon = 0.5, .delta = 0.01}});
  config.policies.push_back(
      {"coarse", {.k = 32, .epsilon = 0.1, .delta = 0.001}});
  config.degrade_policy = 1;
  config.epsilon_ceiling = 6.0;
  config.session_renew_epochs = 1;
  config.cache_capacity = cache_capacity;
  config.seed = seed;
  return config;
}

ServingShape batch_shape(bool cold, bool smoke) {
  ServingShape shape;
  if (smoke) {
    shape.users = 40;
    shape.warmup_users = 10;
  }
  // Far below the trace's distinct (region, radius, policy) keys: most
  // probes miss and every miss evicts.
  if (cold) shape.cache_capacity = 128;
  return shape;
}

using StatusCounts = std::array<std::uint64_t, 4>;

StatusCounts status_counts(std::span<const ReleaseResult> results) {
  StatusCounts counts{};
  for (const ReleaseResult& r : results) {
    counts[static_cast<std::size_t>(r.status)] += 1;
  }
  return counts;
}

std::string counts_json(const StatusCounts& counts) {
  std::string out = "{";
  for (const ReleaseStatus status : service::kAllStatuses) {
    if (out.size() > 1) out += ",";
    out += json_string(service::status_name(status)) + ":" +
           std::to_string(counts[static_cast<std::size_t>(status)]);
  }
  return out + "}";
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"%016llx\"",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Serves `trace` through enqueue()/flush() and appends each request's
/// enqueue -> result time: a request's result exists once the batch
/// holding it has drained, which enqueue() does synchronously whenever
/// max_batch requests are pending.
std::vector<ReleaseResult> serve_timed(service::ReleaseService& gsp,
                                       std::span<const ReleaseRequest> trace,
                                       std::vector<std::int64_t>& enqueued,
                                       std::vector<double>& latency_us) {
  enqueued.resize(trace.size());
  std::size_t done = 0;
  const auto finish = [&](std::size_t end) {
    const std::int64_t t = now_ns();
    for (; done < end; ++done) {
      latency_us.push_back(static_cast<double>(t - enqueued[done]) * 1e-3);
    }
  };
  for (std::size_t i = 0; i < trace.size(); ++i) {
    enqueued[i] = now_ns();
    gsp.enqueue(trace[i]);
    if (gsp.pending() == 0) finish(i + 1);
  }
  std::vector<ReleaseResult> results = gsp.flush();
  finish(trace.size());
  return results;
}

struct BatchState {
  BatchState(std::uint64_t seed, const ServingShape& shape)
      : fixture(seed, shape),
        gsp(fixture.city.db, fixture.cloaker, fixture.config),
        warmup_results(gsp.serve(fixture.warmup)) {}

  ServingFixture fixture;
  service::ReleaseService gsp;
  std::vector<ReleaseResult> warmup_results;
};

/// The batch pipeline of ReleaseService::serve_batch at --threads 1,
/// rebuilt from the layers' public functions with a span around each
/// call. It owns its own session table and cache, seeds noise and dummy
/// draws exactly as the service does (Rng(seed).substream(0/1), keyed by
/// the request counter and ReleaseCache::hash), and runs the phases in
/// the service's order, so its results — cache_hit flags and budgets
/// included — must equal the service's.
class ShadowPipeline {
 public:
  explicit ShadowPipeline(const ServingFixture& fixture)
      : fixture_(&fixture),
        cache_(service::ReleaseCacheConfig{fixture.config.cache_capacity,
                                           fixture.config.cache_shards,
                                           fixture.config.cache_ttl_epochs}),
        sessions_(service::SessionTableConfig{
            fixture.config.session_capacity, fixture.config.session_shards,
            fixture.config.session_ttl_epochs,
            fixture.config.session_renew_epochs,
            fixture.config.epsilon_ceiling, fixture.config.delta_ceiling}),
        noise_base_(common::Rng(fixture.config.seed).substream(0)),
        aggregate_base_(common::Rng(fixture.config.seed).substream(1)) {
    for (const service::ReleasePolicy& policy : fixture.config.policies) {
      costs_.push_back(dp::FixedBudget::cost_of(
          {policy.release.epsilon, policy.release.delta}));
    }
  }

  std::vector<ReleaseResult> serve(std::span<const ReleaseRequest> requests,
                                   SpanLog& log) {
    std::vector<ReleaseResult> out(requests.size());
    const std::size_t batch = fixture_->config.max_batch;
    for (std::size_t b = 0; b < requests.size(); b += batch) {
      const std::size_t n = std::min(batch, requests.size() - b);
      serve_batch(requests.subspan(b, n), out.data() + b, log);
    }
    return out;
  }

  /// ReleaseService::advance_epoch, step for step.
  void advance_epoch() {
    sessions_.advance_epoch();
    cache_.advance_epoch();
    sessions_.sweep();
    sessions_.renew_windows();
    cache_.evict_expired();
  }

  service::ReleaseCacheStats cache_stats() const { return cache_.stats(); }

  /// Counters since the last reset_counters().
  struct Counters {
    std::uint64_t hits = 0;    ///< effective: resident or coalesced
    std::uint64_t misses = 0;  ///< aggregates computed
    std::uint64_t rows = 0;    ///< dummy locations aggregated
    std::uint64_t requests = 0;
    std::uint64_t granted = 0;
    std::uint64_t exhausted = 0;
  };
  Counters counters;

 private:
  struct Admitted {
    std::size_t index = 0;
    service::PolicyId policy = 0;
    std::uint64_t noise_index = 0;
    service::ReleaseCacheKey key;
    std::shared_ptr<const service::CloakAggregate> aggregate;
    std::size_t missing_slot = SIZE_MAX;
    bool cache_hit = false;
  };
  struct KeyHash {
    std::size_t operator()(const service::ReleaseCacheKey& key) const noexcept {
      return static_cast<std::size_t>(service::ReleaseCache::hash(key));
    }
  };

  ReleaseStatus admit(service::UserId user, service::PolicyId requested,
                      service::PolicyId& served) {
    const service::ChargeOutcome primary =
        sessions_.try_charge(user, costs_[requested]);
    if (primary == service::ChargeOutcome::kCharged) {
      served = requested;
      return ReleaseStatus::kGranted;
    }
    const std::optional<service::PolicyId> degrade =
        fixture_->config.degrade_policy;
    if (primary == service::ChargeOutcome::kWouldExceed && degrade &&
        *degrade != requested &&
        sessions_.try_charge(user, costs_[*degrade]) ==
            service::ChargeOutcome::kCharged) {
      served = *degrade;
      return ReleaseStatus::kDegraded;
    }
    return ReleaseStatus::kBudgetExhausted;
  }

  service::CloakAggregate aggregate(const service::ReleaseCacheKey& key,
                                    SpanLog& log) {
    const poi::PoiDatabase& db = fixture_->city.db;
    common::Rng rng =
        aggregate_base_.substream(service::ReleaseCache::hash(key));
    const std::vector<geo::Point> dummies =
        fixture_->cloaker.region_dummy_locations(
            key.region, fixture_->config.policies[key.policy].release.k, rng);
    const std::size_t m = db.num_types();
    service::CloakAggregate out;
    out.k = dummies.size();
    out.sum.assign(m, 0.0);
    out.sensitivity.assign(m, 0.0);
    poi::FreqArena& arena = poi::scratch_arena();
    {
      const Scope span(log, "poi.freq_batch");
      db.freq_batch(dummies, key.radius, arena);
    }
    counters.rows += dummies.size();
    arena.pack_fingerprints();
    for (std::size_t d = 0; d < arena.rows(); ++d) {
      if (poi::fingerprint_empty(arena.fingerprint(d))) continue;
      const std::span<const std::int32_t> row = arena.row(d);
      for (std::size_t i = 0; i < m; ++i) {
        out.sum[i] += row[i];
        out.sensitivity[i] =
            std::max(out.sensitivity[i], static_cast<double>(row[i]));
      }
    }
    return out;
  }

  /// The Eq. (8) noised mean. The fixture's policies are all Gaussian.
  std::vector<double> noised_mean(const defense::DpDefenseConfig& policy,
                                  const service::CloakAggregate& aggregate,
                                  common::Rng& rng) const {
    const std::size_t m = aggregate.sum.size();
    const double k = static_cast<double>(aggregate.k);
    const dp::PrivacyParams params{policy.epsilon, policy.delta};
    std::vector<double> mean(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      double noised = aggregate.sum[i];
      if (aggregate.sensitivity[i] > 0.0) {
        noised += rng.normal(0.0, dp::GaussianMechanism::calibrated_sigma(
                                      params, aggregate.sensitivity[i]));
      }
      mean[i] = noised / k;
    }
    return mean;
  }

  void serve_batch(std::span<const ReleaseRequest> requests,
                   ReleaseResult* results, SpanLog& log) {
    const service::ServiceConfig& config = fixture_->config;
    std::vector<Admitted> admitted;
    admitted.reserve(requests.size());

    // Phase A: admission, in request order.
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const ReleaseRequest& request = requests[i];
      ReleaseResult& out = results[i];
      const std::uint64_t noise_index = next_index_++;
      ++counters.requests;
      if (request.policy >= config.policies.size() ||
          !(request.radius > 0.0)) {
        out.status = ReleaseStatus::kInvalidRequest;
        out.spent = {0.0, 0.0};
        continue;
      }
      service::PolicyId served = request.policy;
      {
        const Scope span(log, "service.admission");
        out.status = admit(request.user_id, request.policy, served);
        out.spent = sessions_.spent(request.user_id);
      }
      if (out.status == ReleaseStatus::kBudgetExhausted) {
        ++counters.exhausted;
        continue;
      }
      if (out.status == ReleaseStatus::kGranted) ++counters.granted;
      out.served_policy = served;
      Admitted a;
      a.index = i;
      a.policy = served;
      a.noise_index = noise_index;
      admitted.push_back(std::move(a));
    }

    // Phase B: cloak.
    for (Admitted& a : admitted) {
      const ReleaseRequest& request = requests[a.index];
      {
        const Scope span(log, "cloak.cloak");
        a.key.region =
            fixture_->cloaker
                .cloak(request.location, config.policies[a.policy].release.k)
                .region;
      }
      a.key.radius = request.radius;
      a.key.policy = a.policy;
    }

    // Phase C: cache probe in request order; a cold key already missing
    // in this batch coalesces onto that computation.
    std::vector<service::ReleaseCacheKey> missing;
    std::unordered_map<service::ReleaseCacheKey, std::size_t, KeyHash> pending;
    for (Admitted& a : admitted) {
      std::shared_ptr<const service::CloakAggregate> hit;
      {
        const Scope span(log, "service.cache.probe");
        hit = cache_.get(a.key);
      }
      if (hit) {
        a.aggregate = std::move(hit);
        a.cache_hit = true;
        ++counters.hits;
        continue;
      }
      if (const auto it = pending.find(a.key); it != pending.end()) {
        a.missing_slot = it->second;
        a.cache_hit = true;
        ++counters.hits;
        continue;
      }
      a.missing_slot = missing.size();
      pending.emplace(a.key, missing.size());
      missing.push_back(a.key);
      ++counters.misses;
    }

    // Phase D: compute the missing aggregates.
    std::vector<std::shared_ptr<const service::CloakAggregate>> computed(
        missing.size());
    for (std::size_t j = 0; j < missing.size(); ++j) {
      const Scope span(log, "service.aggregate");
      computed[j] = std::make_shared<const service::CloakAggregate>(
          aggregate(missing[j], log));
    }

    // Phase E: insert in first-miss order.
    for (std::size_t j = 0; j < missing.size(); ++j) {
      const Scope span(log, "service.cache.insert");
      cache_.put(missing[j], computed[j]);
    }
    for (Admitted& a : admitted) {
      if (a.missing_slot != SIZE_MAX) a.aggregate = computed[a.missing_slot];
    }

    // Phase F: per-request noise, then Eq. (9) post-processing.
    for (const Admitted& a : admitted) {
      const defense::DpDefenseConfig& policy = config.policies[a.policy].release;
      common::Rng rng = noise_base_.substream(a.noise_index);
      std::vector<double> mean;
      {
        const Scope span(log, "dp.noise");
        mean = noised_mean(policy, *a.aggregate, rng);
      }
      ReleaseResult& out = results[a.index];
      {
        const Scope span(log, "defense.postprocess");
        out.vector = defense::postprocess_release(
            fixture_->city.db, std::move(mean), policy.beta,
            policy.max_injection);
      }
      out.cache_hit = a.cache_hit;
    }
  }

  const ServingFixture* fixture_;
  service::ReleaseCache cache_;
  service::SessionTable sessions_;
  std::vector<dp::FixedBudget> costs_;
  std::uint64_t next_index_ = 0;
  common::Rng noise_base_;
  common::Rng aggregate_base_;
};

/// The batch pipeline's layer spans; none nests in another except
/// poi.freq_batch, which lies inside service.aggregate.
constexpr const char* kBatchLayers[] = {
    "service.admission",    "cloak.cloak",  "service.cache.probe",
    "service.aggregate",    "service.cache.insert", "dp.noise",
    "defense.postprocess",
};

}  // namespace

ServingFixture::ServingFixture(std::uint64_t seed, const ServingShape& shape)
    : city(poi::generate_city(poi::beijing_preset(), kCitySeed)),
      cloaker(make_cloaker(city)),
      config(make_config(seed, shape.cache_capacity)),
      trace(make_trace(city, seed + 2, shape.users, 0)),
      warmup(make_trace(city, seed + 3, shape.warmup_users, kWarmupUserBase)) {}

std::uint64_t digest_results(std::span<const ReleaseResult> results) {
  Digest digest;
  for (const ReleaseResult& r : results) {
    digest.u64(static_cast<std::uint64_t>(r.status));
    digest.u64(r.vector.size());
    digest.bytes(r.vector.data(), r.vector.size() * sizeof(std::int32_t));
  }
  return digest.value();
}

void run_batch(const Options& options, bool cold, Outcome& out) {
  const ServingShape shape = batch_shape(cold, options.smoke);
  common::set_default_thread_count(1);
  std::unique_ptr<BatchState> state;
  const double setup_s = timed_setup(state, kSetupReps, [&] {
    return std::make_unique<BatchState>(options.seed, shape);
  });
  service::ReleaseService& gsp = state->gsp;
  const std::vector<ReleaseRequest>& trace = state->fixture.trace;
  const double n = static_cast<double>(trace.size());

  std::vector<double> throughput, cpu_us, latency_us, p50, p99;
  std::vector<std::int64_t> enqueued;
  StatusCounts round0{};
  std::uint64_t digest0 = 0;
  std::uint64_t hits0 = 0, lookups0 = 0;
  const service::ServiceStats before = gsp.stats();
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  std::size_t rounds = 0;
  for (;; ++rounds) {
    if (rounds > 0) gsp.advance_epoch();
    pin_to_cpu(rounds);
    const service::ServiceStats round_before = gsp.stats();
    const double cpu0 = process_cpu_seconds();
    const std::int64_t t0 = now_ns();
    latency_us.clear();
    const std::vector<ReleaseResult> results =
        serve_timed(gsp, trace, enqueued, latency_us);
    const std::int64_t t1 = now_ns();
    const double cpu1 = process_cpu_seconds();
    // A request's latency is its batch's, so a percentile over requests
    // is one over batches: take p50/p99 per window of kLatencyWindow
    // requests (20 batches) and report medians over all windows.
    for (std::size_t w = 0; w + kLatencyWindow <= latency_us.size();
         w += kLatencyWindow) {
      const std::vector<double> window(
          latency_us.begin() + static_cast<std::ptrdiff_t>(w),
          latency_us.begin() + static_cast<std::ptrdiff_t>(w + kLatencyWindow));
      p50.push_back(quantile(window, 0.5));
      p99.push_back(quantile(window, 0.99));
    }
    if (latency_us.size() < kLatencyWindow) {
      p50.push_back(quantile(latency_us, 0.5));
      p99.push_back(quantile(latency_us, 0.99));
    }
    throughput.push_back(n / (static_cast<double>(t1 - t0) * 1e-9));
    cpu_us.push_back((cpu1 - cpu0) * 1e6 / n);
    out.attempted += results.size();

    const StatusCounts counts = status_counts(results);
    const std::uint64_t invalid =
        counts[static_cast<std::size_t>(ReleaseStatus::kInvalidRequest)];
    if (invalid > 0) out.fail(invalid, "invalid_request answers");
    if (rounds == 0) {
      round0 = counts;
      digest0 = digest_results(results);
      hits0 = gsp.stats().cache_hits - round_before.cache_hits;
      lookups0 = hits0 + gsp.stats().cache_misses - round_before.cache_misses;
    } else if (counts != round0) {
      out.fail(results.size(), "round " + std::to_string(rounds) +
                                   " status counts differ from round 0");
    }
    if (now_ns() >= deadline && rounds >= 7) {
      ++rounds;
      break;
    }
  }
  unpin();
  const service::ServiceStats after = gsp.stats();

  // A fresh service at two threads must reproduce warm-up and round 0.
  if (options.corrupt_digest) digest0 ^= 1;
  common::set_default_thread_count(2);
  {
    service::ReleaseService check(state->fixture.city.db,
                                  state->fixture.cloaker,
                                  state->fixture.config);
    const std::vector<ReleaseResult> warm = check.serve(state->fixture.warmup);
    const std::vector<ReleaseResult> first = check.serve(trace);
    if (digest_results(warm) != digest_results(state->warmup_results)) {
      out.fail(warm.size(), "warm-up digest differs at --threads 2");
    }
    if (digest_results(first) != digest0 || status_counts(first) != round0) {
      out.fail(first.size(), "round-0 digest differs at --threads 2");
    }
  }
  common::set_default_thread_count(1);

  out.metric("setup_s", setup_s, "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  out.metric("throughput_per_s", median(throughput), "1/s");
  out.metric("cpu_us_per_op", median(cpu_us), "us");
  out.metric("latency_p50_us", median(p50), "us");
  out.metric("latency_p99_us", median(p99), "us");

  const double lookups =
      static_cast<double>(after.cache_hits + after.cache_misses -
                          before.cache_hits - before.cache_misses);
  out.note("threads", 1.0);
  out.note("check_threads", 2.0);
  out.note("rounds", static_cast<double>(rounds));
  out.note("requests_per_round", n);
  out.note("latency_samples", n * static_cast<double>(rounds));
  out.note("latency_windows", static_cast<double>(p99.size()));
  out.note("latency_kind", json_string("enqueue_to_batch_result"));
  out.note("cache_capacity", static_cast<double>(shape.cache_capacity));
  out.note("cache_hit_ratio",
           static_cast<double>(after.cache_hits - before.cache_hits) / lookups);
  out.note("cache_hit_ratio_round0",
           static_cast<double>(hits0) / static_cast<double>(lookups0));
  out.note("cache_evictions", static_cast<double>(gsp.cache_stats().evictions()));
  out.note("status_round0", counts_json(round0));
  out.note("digest_round0", hex(digest0));
}

StackTrace trace_batch(const Options& options, bool cold, bool full,
                       Outcome& out) {
  ServingShape shape = batch_shape(cold, options.smoke);
  if (!full && !options.smoke) {
    shape.users = 100;
    shape.warmup_users = 20;
  }
  const int rounds = full ? 3 : 1;
  common::set_default_thread_count(1);
  BatchState state(options.seed, shape);
  service::ReleaseService& gsp = state.gsp;
  const std::vector<ReleaseRequest>& trace = state.fixture.trace;

  ShadowPipeline shadow(state.fixture);
  SpanLog log(1 << 20);
  std::uint64_t mismatches = 0;
  const auto compare = [&](std::span<const ReleaseResult> want,
                           std::span<const ReleaseResult> got) {
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (!(want[i] == got[i])) ++mismatches;
    }
  };
  compare(state.warmup_results, shadow.serve(state.fixture.warmup, log));
  log.clear();
  shadow.counters = {};
  const service::ReleaseCacheStats cache_before = shadow.cache_stats();

  std::int64_t service_ns = 0, shadow_ns = 0;
  for (int r = 0; r < rounds; ++r) {
    if (r > 0) {
      gsp.advance_epoch();
      shadow.advance_epoch();
    }
    std::int64_t t0 = now_ns();
    const std::vector<ReleaseResult> want = gsp.serve(trace);
    service_ns += now_ns() - t0;
    t0 = now_ns();
    const std::vector<ReleaseResult> got = shadow.serve(trace, log);
    shadow_ns += now_ns() - t0;
    compare(want, got);
  }
  if (options.corrupt_digest) ++mismatches;
  if (mismatches > 0) {
    out.fail(mismatches, "shadow replay differs from ReleaseService");
  }
  if (!(shadow.cache_stats() == gsp.cache_stats())) {
    out.fail(1, "shadow cache counters differ from the service's");
  }
  out.attempted += static_cast<std::uint64_t>(rounds) * trace.size();

  const ShadowPipeline::Counters& c = shadow.counters;
  const double requests = static_cast<double>(c.requests);
  const auto per = [&](const char* layer, double scale, double per_count) {
    return log.totals(layer).total_ns * scale / per_count;
  };
  const auto calls = [&](const char* layer) {
    return static_cast<double>(log.totals(layer).count);
  };
  double layers_ns = 0.0;
  for (const char* layer : kBatchLayers) layers_ns += log.totals(layer).total_ns;
  const double service_total = static_cast<double>(service_ns);

  out.metric("service.admission.ns_per_op",
             per("service.admission", 1.0, calls("service.admission")), "ns");
  out.metric("service.admission.granted_share",
             static_cast<double>(c.granted) / requests, "ratio");
  out.metric("service.admission.exhausted_share",
             static_cast<double>(c.exhausted) / requests, "ratio");
  out.metric("cloak.cloak.ns_per_op",
             per("cloak.cloak", 1.0, calls("cloak.cloak")), "ns");
  out.metric("service.cache.probe_ns_per_op",
             per("service.cache.probe", 1.0, calls("service.cache.probe")),
             "ns");
  out.metric("service.cache.insert_ns_per_op",
             per("service.cache.insert", 1.0,
                 std::max(1.0, calls("service.cache.insert"))),
             "ns");
  out.metric("service.cache.hit_ratio",
             static_cast<double>(c.hits) / static_cast<double>(c.hits + c.misses),
             "ratio");
  out.metric("service.cache.evictions",
             static_cast<double>(shadow.cache_stats().evictions() -
                                 cache_before.evictions()),
             "count");
  out.metric("service.aggregate.us_per_miss",
             per("service.aggregate", 1e-3,
                 std::max(1.0, calls("service.aggregate"))),
             "us");
  out.metric("poi.freq_batch.ns_per_row",
             per("poi.freq_batch", 1.0,
                 std::max(1.0, static_cast<double>(c.rows))),
             "ns");
  out.metric("dp.noise.ns_per_release",
             per("dp.noise", 1.0, calls("dp.noise")), "ns");
  out.metric("defense.postprocess.us_per_op",
             per("defense.postprocess", 1e-3, calls("defense.postprocess")),
             "us");
  out.metric("service.pipeline.self_us_per_op",
             (service_total - layers_ns) * 1e-3 / requests, "us");

  out.note("serving_trace_requests_per_round",
           static_cast<double>(trace.size()));
  out.note("serving_trace_rounds", static_cast<double>(rounds));
  out.note("serving_trace_cache_capacity",
           static_cast<double>(shape.cache_capacity));
  StackTrace result;
  result.overhead_share =
      (static_cast<double>(shadow_ns) - service_total) / service_total;
  result.coverage_share = layers_ns / service_total;
  if (full && !options.smoke && result.coverage_share < 0.5) {
    out.fail(1, "layer spans cover under half of the service span");
  }
  return result;
}

}  // namespace perfbench

// Serving-layer throughput: requests/sec and per-request CPU time for a
// synthetic multi-user day of traffic, at the given users x threads
// point. "latency_ms" holds round-trip percentiles only for an
// unpipelined TCP run, and is null otherwise; the in-process run reports
// "batch_drain_ms_per_request" instead (batch drain time divided by batch
// size — not a latency; perfbench measures request latency).
// Human-readable context goes to stderr; stdout is one JSON object so
// sweep scripts can ingest the numbers directly:
//
//   ./bench/poibench --scenario service_throughput
//       --users 1000 --requests 20 --threads 8
//
// The default trace is 1,000 users x 20 requests = 20,000 requests.
// Results (statuses, vectors, counters) are bit-identical for any
// --threads; only the timing numbers vary (hence deterministic=false).
//
// With --connections N the same trace is instead driven through the TCP
// front-end (src/net): a loopback ReleaseServer with --threads workers,
// N client connections each owning the trace slice of users hashed to
// it (preserving per-user request order, so admission sequences match
// the batch path's), --pipeline frames in flight per connection. The
// JSON then reports the wire path's numbers ("transport": "tcp"); the
// admission counters come from the same stats(), which every serving
// path counts into.
#include <cstdint>
#include <algorithm>
#include <ctime>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_count.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "eval/json.h"
#include "net/client.h"
#include "net/server.h"
#include "poi/city_model.h"
#include "scenarios/scenarios.h"
#include "service/workload.h"

namespace poiprivacy::bench {

namespace {

constexpr std::uint64_t kReleaseAllocCalls = 64;

/// Heap allocations made by kReleaseAllocCalls defense::noised_release
/// calls on the aggregate the service caches for the city-centre cloak
/// under policy 0 at r = 1 km, after one warm-up call has sized the
/// per-thread scratch.
std::uint64_t release_allocations(const service::ReleaseService& gsp,
                                  const poi::PoiDatabase& db,
                                  const cloak::AdaptiveIntervalCloaker& cloaker,
                                  std::uint64_t seed) {
  const defense::DpDefenseConfig& policy = gsp.config().policies[0].release;
  const geo::BBox& bounds = db.bounds();
  service::ReleaseCacheKey key;
  key.region = cloaker
                   .cloak({0.5 * (bounds.min_x + bounds.max_x),
                           0.5 * (bounds.min_y + bounds.max_y)},
                          policy.k)
                   .region;
  key.radius = 1.0;
  const service::CloakAggregate aggregate = gsp.compute_aggregate(key);
  const common::Rng noise_base(seed);
  std::uint64_t allocs = 0;
  for (std::uint64_t call = 0; call <= kReleaseAllocCalls; ++call) {
    common::Rng rng = noise_base.substream(call);
    const std::uint64_t before = common::thread_allocation_count();
    const poi::FrequencyVector release =
        defense::noised_release(aggregate.support, aggregate.k, policy,
                                db.infrequency_rank(), db.rare_type_count(),
                                rng);
    if (call > 0) allocs += common::thread_allocation_count() - before;
  }
  return allocs;
}

int run(const eval::BenchOptions& options) {
  const std::uint64_t seed = options.seed;
  const auto users = static_cast<std::size_t>(
      options.flags.get("users", static_cast<std::int64_t>(1000)));
  const auto requests_per_user = static_cast<std::size_t>(
      options.flags.get("requests", static_cast<std::int64_t>(20)));
  const std::size_t threads = options.threads;

  const poi::City city = poi::generate_city(poi::beijing_preset(), seed);
  common::Rng pop_rng(seed + 1);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(city.db.bounds(), 10000, pop_rng),
      city.db.bounds());

  service::ServiceConfig config;
  config.policies.push_back(
      {"interactive", {.k = 16, .epsilon = 0.5, .delta = 0.01}});
  config.policies.push_back(
      {"coarse", {.k = 32, .epsilon = 0.1, .delta = 0.001}});
  config.degrade_policy = 1;
  config.epsilon_ceiling = options.flags.get("ceiling", 6.0);
  config.max_batch =
      static_cast<std::size_t>(options.flags.get("batch", std::int64_t{256}));
  config.cache_capacity =
      static_cast<std::size_t>(options.flags.get("cache", std::int64_t{4096}));
  const auto renew = static_cast<std::uint64_t>(
      options.flags.get("renew", std::int64_t{0}));
  const auto waves = static_cast<std::size_t>(
      options.flags.get("waves", std::int64_t{1}));
  config.session_renew_epochs = renew;
  config.seed = seed;
  service::ReleaseService gsp(city.db, cloaker, config);

  service::WorkloadConfig workload;
  workload.num_users = users;
  workload.requests_per_user = requests_per_user;
  workload.seed = seed + 2;
  workload.policy_weights = {0.8, 0.2};
  const std::vector<service::ReleaseRequest> trace =
      service::requests_of(service::generate_workload(city, workload));

  const auto connections = static_cast<std::size_t>(
      options.flags.get("connections", std::int64_t{0}));
  const auto pipeline = static_cast<std::size_t>(
      options.flags.get("pipeline", std::int64_t{1}));

  std::cerr << "service_throughput: " << trace.size() << " requests, "
            << users << " users, threads=" << threads
            << ", batch=" << config.max_batch
            << (connections > 0
                    ? ", tcp connections=" + std::to_string(connections) +
                          " pipeline=" + std::to_string(pipeline)
                    : std::string(", in-process"))
            << "\n";

  // Process CPU time brackets the serve: on a single-core host wall
  // clock mostly tracks scheduler noise, so per-request CPU time is the
  // comparable number across runs.
  timespec cpu0{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu0);
  const common::Stopwatch timer;
  std::vector<double> latencies_ms;
  std::size_t served = 0;
  std::size_t transport_errors = 0;
  struct WaveCounts {
    std::uint64_t granted = 0;
    std::uint64_t degraded = 0;
    std::uint64_t budget_exhausted = 0;
    std::uint64_t invalid = 0;
    std::uint64_t renewals = 0;
  };
  std::vector<WaveCounts> wave_counts;
  // The batch path measures no request latency (perfbench does): one
  // serve() call per max_batch chunk drains exactly one batch, and each
  // of its requests is attributed the call's time divided by the chunk
  // size, the time one of them occupied the service, reported as
  // batch_drain_ms_per_request. The unpipelined TCP path fills
  // latencies_ms with round trips instead.
  std::vector<double> drain_ms;
  if (connections == 0) {
    const std::size_t rounds = waves == 0 ? 1 : waves;
    const std::size_t batch = gsp.config().max_batch;
    service::ServiceStats before = gsp.stats();
    std::uint64_t renewals_before = 0;
    for (std::size_t wave = 0; wave < rounds; ++wave) {
      if (wave > 0) gsp.advance_epoch();
      for (std::size_t begin = 0; begin < trace.size(); begin += batch) {
        const std::span<const service::ReleaseRequest> chunk =
            std::span(trace).subspan(begin,
                                     std::min(batch, trace.size() - begin));
        const common::Stopwatch drain;
        served += gsp.serve(chunk).size();
        drain_ms.insert(drain_ms.end(), chunk.size(),
                        drain.seconds() * 1e3 /
                            static_cast<double>(chunk.size()));
      }
      const service::ServiceStats after = gsp.stats();
      const std::uint64_t renewals_after = gsp.session_stats().renewals;
      wave_counts.push_back({after.granted - before.granted,
                             after.degraded - before.degraded,
                             after.budget_exhausted - before.budget_exhausted,
                             after.invalid - before.invalid,
                             renewals_after - renewals_before});
      before = after;
      renewals_before = renewals_after;
    }
  } else {
    net::ServerConfig server_config;
    server_config.workers = threads;
    net::ReleaseServer server(gsp, server_config);
    server.start();
    // Users partition across connections (a user's requests stay on one
    // connection, in trace order, so its admission sequence matches the
    // batch path's); each connection keeps up to `pipeline` frames in
    // flight. Latencies are only meaningful unpipelined, so they are
    // recorded per round trip when pipeline == 1.
    std::vector<std::vector<service::ReleaseRequest>> slices(connections);
    for (const service::ReleaseRequest& request : trace) {
      slices[request.user_id % connections].push_back(request);
    }
    std::vector<std::size_t> ok_counts(connections, 0);
    std::vector<std::size_t> err_counts(connections, 0);
    std::vector<std::vector<double>> rtts(connections);
    std::vector<std::thread> drivers;
    drivers.reserve(connections);
    for (std::size_t c = 0; c < connections; ++c) {
      drivers.emplace_back([&, c] {
        net::Client client = net::Client::connect("127.0.0.1", server.port());
        if (!client.connected()) {
          err_counts[c] = slices[c].size();
          return;
        }
        const std::size_t depth = pipeline == 0 ? 1 : pipeline;
        std::size_t sent = 0, received = 0;
        const std::size_t n = slices[c].size();
        while (received < n) {
          const common::Stopwatch rtt;
          while (sent < n && sent - received < depth) {
            if (!client.send(slices[c][sent])) {
              err_counts[c] += n - received;
              return;
            }
            ++sent;
          }
          if (!client.recv()) {
            err_counts[c] += n - received;
            return;
          }
          ++received;
          ++ok_counts[c];
          if (depth == 1) rtts[c].push_back(rtt.seconds() * 1e3);
        }
      });
    }
    for (std::thread& t : drivers) t.join();
    server.stop();
    for (std::size_t c = 0; c < connections; ++c) {
      served += ok_counts[c];
      transport_errors += err_counts[c];
      latencies_ms.insert(latencies_ms.end(), rtts[c].begin(), rtts[c].end());
    }
  }
  const double seconds = timer.seconds();
  timespec cpu1{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu1);
  const double cpu_seconds = static_cast<double>(cpu1.tv_sec - cpu0.tv_sec) +
                             static_cast<double>(cpu1.tv_nsec - cpu0.tv_nsec) / 1e9;

  // Phase F allocation gate: on a steady-state hot aggregate, the release
  // routine allocates exactly its response. Only binaries that link the
  // counting allocator (poibench) can see allocations; elsewhere the
  // count stays 0 and the check is skipped.
  const std::uint64_t release_allocs =
      release_allocations(gsp, city.db, cloaker, seed);
  if (common::allocation_counting_active() &&
      release_allocs != kReleaseAllocCalls) {
    std::cerr << "service_throughput: release alloc check FAIL ("
              << release_allocs << " allocations in " << kReleaseAllocCalls
              << " hot calls)\n";
    return 1;
  }

  const service::ServiceStats stats = gsp.stats();
  const service::ReleaseCacheStats cache = gsp.cache_stats();

  eval::JsonWriter json;
  json.begin_object();
  json.field("bench", "service_throughput");
  json.field("transport", connections == 0 ? "inproc" : "tcp");
  json.field("connections", static_cast<std::uint64_t>(connections));
  json.field("pipeline", static_cast<std::uint64_t>(pipeline));
  json.field("users", static_cast<std::uint64_t>(users));
  json.field("requests", static_cast<std::uint64_t>(trace.size()));
  json.field("served", static_cast<std::uint64_t>(served));
  json.field("transport_errors",
             static_cast<std::uint64_t>(transport_errors));
  json.field("threads", static_cast<std::uint64_t>(threads));
  json.field("batch", static_cast<std::uint64_t>(config.max_batch));
  json.field("waves", static_cast<std::uint64_t>(
                          connections == 0 && waves > 0 ? waves : 1));
  json.field("renew_epochs", renew);
  json.field("seed", seed);
  json.field("seconds", seconds);
  json.field("cpu_seconds", cpu_seconds);
  json.field("requests_per_sec", static_cast<double>(served) / seconds);
  json.field("cpu_us_per_request",
             cpu_seconds * 1e6 /
                 static_cast<double>(served == 0 ? 1 : served));
  // Percentiles of `ms`, or null when nothing was measured.
  const auto percentile_field = [&json](const std::string& name,
                                        const std::vector<double>& ms) {
    if (ms.empty()) {
      json.field(name, nullptr);
      return;
    }
    const common::Percentiles p = common::percentiles(ms);
    json.key(name);
    json.begin_object();
    json.field("p50", p.p50);
    json.field("p95", p.p95);
    json.field("p99", p.p99);
    json.end_object();
  };
  percentile_field("latency_ms", latencies_ms);
  percentile_field("batch_drain_ms_per_request", drain_ms);
  json.key("status");
  json.begin_object();
  for (const service::ReleaseStatus status : service::kAllStatuses) {
    json.field(service::status_name(status), stats.count(status));
  }
  json.end_object();
  json.key("cache");
  json.begin_object();
  json.field("hits", stats.cache_hits);
  json.field("misses", stats.cache_misses);
  json.field("hit_rate", stats.cache_hit_rate());
  json.field("evictions", cache.evictions());
  json.field("entries", cache.entries);
  json.end_object();
  const service::SessionTableStats sessions = gsp.session_stats();
  json.key("sessions");
  json.begin_object();
  json.field("resident", sessions.sessions);
  json.field("created", sessions.sessions_created);
  json.field("evictions_ttl", sessions.evictions_ttl);
  json.field("renewals", sessions.renewals);
  json.field("full_refusals", sessions.full_refusals);
  json.end_object();
  if (wave_counts.size() > 1) {
    json.key("wave_status");
    json.begin_array();
    for (const WaveCounts& wave : wave_counts) {
      json.begin_object();
      json.field("granted", wave.granted);
      json.field("degraded", wave.degraded);
      json.field("budget_exhausted", wave.budget_exhausted);
      json.field("invalid", wave.invalid);
      json.field("renewals", wave.renewals);
      json.end_object();
    }
    json.end_array();
  }
  json.field("release_allocs_per_call",
             static_cast<double>(release_allocs) /
                 static_cast<double>(kReleaseAllocCalls));
  json.field("users_seen", static_cast<std::uint64_t>(gsp.num_users()));
  json.field("batches", stats.batches);
  json.end_object();
  std::cout << json.str() << "\n";
  return 0;
}

}  // namespace

void register_service_throughput(eval::ScenarioRegistry& registry) {
  registry.add({
      .name = "service_throughput",
      .description = "Serving-layer throughput/latency JSON benchmark, "
                     "in-process or over the TCP front-end "
                     "(timings, so --all skips it)",
      .extra_flags = {"users", "requests", "batch", "cache", "ceiling",
                      "connections", "pipeline", "renew", "waves"},
      .smoke_args = {"--users", "50", "--requests", "5", "--seed", "4242"},
      .deterministic = false,
      .run = run,
  });
}

}  // namespace poiprivacy::bench

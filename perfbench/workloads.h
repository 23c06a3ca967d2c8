// The four benchmark workloads and the fixtures they share.
//
//   serve_batch_hot   in-process ReleaseService::serve, cache above the
//                     trace's distinct keys (serving.cpp)
//   serve_batch_cold  the same trace with a cache far below them
//   serve_tcp_open    open-loop loopback TCP through net::ReleaseServer
//                     (tcp.cpp)
//   attack_linkage    LinkageEngine::Tracker over a taxi population
//                     (linkage.cpp)
//
// run_* is the untraced run (end-to-end metrics); trace_* replays the
// same stack through its layers' public functions and adds the per-layer
// metrics. A traced run of one workload also probes the other two stacks
// at a small size, so every per-layer metric is measured on every run.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cloak/kcloak.h"
#include "common.h"
#include "poi/city_model.h"
#include "service/release_service.h"

namespace perfbench {

namespace cloak = poiprivacy::cloak;
namespace poi = poiprivacy::poi;
namespace service = poiprivacy::service;

/// The GSP's deployment — its city and its registered-user population —
/// is one fixed instance; --seed drives what varies between runs: the
/// request traces, the warm-up users, the service's noise seed and the
/// attacked taxi population.
inline constexpr std::uint64_t kCitySeed = 42;

/// Warm-up users draw ids from here up, disjoint from the timed trace.
inline constexpr std::uint64_t kWarmupUserBase = std::uint64_t{1} << 40;

struct ServingShape {
  std::size_t users = 1000;        ///< timed trace: users x 20 requests
  std::size_t warmup_users = 200;  ///< disjoint warm-up prefix
  std::size_t cache_capacity = 1 << 16;
};

/// Everything the serving workloads build before their first request:
/// the city, the 10,000-user cloaker population, the two-policy service
/// configuration (0.8/0.2 weights, radii {0.5, 1, 2} km) and the traces.
struct ServingFixture {
  ServingFixture(std::uint64_t seed, const ServingShape& shape);

  poi::City city;
  cloak::AdaptiveIntervalCloaker cloaker;
  service::ServiceConfig config;
  std::vector<service::ReleaseRequest> trace;
  std::vector<service::ReleaseRequest> warmup;
};

/// Order-sensitive digest over each result's (status, vector).
std::uint64_t digest_results(
    std::span<const service::ReleaseResult> results);

/// What a traced replay found about its own stack.
struct StackTrace {
  /// (traced pass - untraced pass) / untraced pass, same operations.
  double overhead_share = 0.0;
  /// Share of the stack's top-level span its layers' spans account for.
  double coverage_share = 0.0;
};

void run_batch(const Options& options, bool cold, Outcome& out);
StackTrace trace_batch(const Options& options, bool cold, bool full,
                       Outcome& out);

void run_tcp(const Options& options, Outcome& out);
StackTrace trace_tcp(const Options& options, bool full, Outcome& out);

void run_linkage(const Options& options, Outcome& out);
StackTrace trace_linkage(const Options& options, bool full, Outcome& out);

}  // namespace perfbench

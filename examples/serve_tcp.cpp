// TCP release daemon: the GSP serving layer behind a socket.
//
// Builds a synthetic city, stands a ReleaseService on the sharded
// session table, and serves the length-prefixed binary protocol of
// src/net until SIGINT/SIGTERM (or after --max-frames frames, for
// scripted smoke runs). Point any src/net Client at the printed port:
//
//   ./examples/serve_tcp [--port P] [--workers N] [--ceiling E]
//                        [--session-ttl N] [--cache-ttl N]
//                        [--renew-window N] [--stream-users N]
//                        [--stream-window N] [--max-frames N] [--seed N]
//                        [--threads N] [--metrics[=F]] [--help]
//
// With a session/cache TTL the daemon ticks the service's epoch clock
// once per second, so idle sessions age out and stale cache entries
// expire — the bounded-memory serving configuration. --renew-window N
// additionally renews every resident session's budget each N epochs
// (w-event accounting at the serving layer): a budget_exhausted user is
// granted again after the next window boundary tick.
//
// The daemon also serves continual releases: a mia per-tile
// sliding-window aggregate stream (--stream-users synthetic traces,
// --stream-window epochs per window) is attached as the service's
// StreamSource, so 25-byte stream requests on the same socket get the
// very streams the membership-inference suite attacks — raw blocks
// cached under kind-1 keys, Laplace noise drawn per request, the whole
// block charged to the user's session budget.
#include <csignal>
#include <iostream>
#include <numeric>
#include <thread>

#include "attack/attack_context.h"
#include "common/flags.h"
#include "mia/mobility.h"
#include "mia/stream_serving.h"
#include "net/server.h"
#include "poi/city_model.h"
#include "service/workload.h"

using namespace poiprivacy;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

struct IntegerFlags {
  std::uint16_t port = 0;
  std::size_t workers = 0;
  std::uint64_t session_ttl = 0;
  std::uint64_t cache_ttl = 0;
  std::uint64_t renew_window = 0;
  std::uint64_t max_frames = 0;
  std::size_t stream_users = 0;
  std::size_t stream_window = 0;
};

/// Range-checks every integer flag up front: unchecked, --workers -1
/// would ask the thread pool for ~2^64 threads and --port 70000 would
/// wrap to 4464. Throws std::invalid_argument naming the bad flag.
IntegerFlags read_integer_flags(const common::Flags& flags) {
  IntegerFlags out;
  out.port = static_cast<std::uint16_t>(
      flags.get_in_range("port", 0, 0, 65535));
  out.workers =
      static_cast<std::size_t>(flags.get_in_range("workers", 4, 1, 1024));
  out.session_ttl =
      static_cast<std::uint64_t>(flags.get_in_range("session-ttl", 0, 0));
  out.cache_ttl =
      static_cast<std::uint64_t>(flags.get_in_range("cache-ttl", 0, 0));
  out.renew_window =
      static_cast<std::uint64_t>(flags.get_in_range("renew-window", 0, 0));
  out.max_frames =
      static_cast<std::uint64_t>(flags.get_in_range("max-frames", 0, 0));
  out.stream_users =
      static_cast<std::size_t>(flags.get_in_range("stream-users", 64, 1));
  out.stream_window =
      static_cast<std::size_t>(flags.get_in_range("stream-window", 2, 1));
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  const common::Flags flags(
      argc, argv,
      {"port", "workers", "ceiling", "session-ttl", "cache-ttl",
       "renew-window", "stream-users", "stream-window", "max-frames", "seed",
       common::Flags::kThreadsFlag, common::Flags::kMetricsFlag});
  if (flags.help_requested()) {
    std::cout << flags.usage(argv[0]);
    return 0;
  }
  // Every flag is read before any city or thread is built.
  const auto seed = static_cast<std::uint64_t>(
      flags.get("seed", static_cast<std::int64_t>(42)));
  const double ceiling = flags.get("ceiling", 6.0);
  const IntegerFlags ints = read_integer_flags(flags);
  flags.apply_threads_flag();
  flags.apply_metrics_flag();

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
  config.epsilon_ceiling = ceiling;
  config.session_ttl_epochs = ints.session_ttl;
  config.cache_ttl_epochs = ints.cache_ttl;
  config.session_renew_epochs = ints.renew_window;
  config.seed = seed;
  service::ReleaseService gsp(city.db, cloaker, config);

  // The continual-release source: the same per-tile sliding-window
  // streams the mia suite attacks, released raw — the serving layer
  // draws the per-request noise and meters the session budget.
  mia::MobilityConfig mobility;
  mobility.num_users = ints.stream_users;
  mobility.epochs = 16;
  mobility.visits_per_epoch = 3;
  mobility.profile_tiles = 3;
  const attack::AttackContext ctx(city.db);
  const mia::UserTraces traces = mia::generate_traces(ctx, mobility, seed + 2);
  mia::StreamConfig stream_config;
  stream_config.window_epochs = ints.stream_window;
  stream_config.stride = 1;
  stream_config.epsilon = 0.0;  // raw: noise belongs to the serving layer
  const mia::AggregateStreamReleaser releaser(traces, stream_config,
                                              /*roi_tiles=*/64,
                                              mobility.epochs / 2);
  std::vector<std::uint32_t> stream_group(mobility.num_users);
  std::iota(stream_group.begin(), stream_group.end(), 0u);
  const mia::TileStreamSource stream_source(releaser, std::move(stream_group));
  gsp.attach_stream_source(&stream_source);

  net::ServerConfig server_config;
  server_config.port = ints.port;
  server_config.workers = ints.workers;
  net::ReleaseServer server(gsp, server_config);
  server.start();

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::cout << "serve_tcp: listening on 127.0.0.1:" << server.port() << " ("
            << server_config.workers << " workers, "
            << config.policies.size() << " policies, eps ceiling "
            << config.epsilon_ceiling << ", stream "
            << stream_source.num_series() << " series x "
            << stream_source.epochs() << " epochs)" << std::endl;

  const bool ticking = config.session_ttl_epochs > 0 ||
                       config.cache_ttl_epochs > 0 ||
                       config.session_renew_epochs > 0;
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    static int ticks = 0;
    if (ticking && ++ticks % 5 == 0) gsp.advance_epoch();
    if (ints.max_frames > 0 &&
        server.stats().frames_served >= ints.max_frames) {
      break;
    }
  }
  server.stop();

  const net::ServerStats net_stats = server.stats();
  const service::ServiceStats stats = gsp.stats();
  const service::SessionTableStats sessions = gsp.session_stats();
  std::cout << "served " << net_stats.frames_served << " frames over "
            << net_stats.connections_accepted << " connections ("
            << net_stats.protocol_errors << " protocol errors)\n"
            << "admission: " << stats.granted << " granted, "
            << stats.degraded << " degraded, " << stats.budget_exhausted
            << " refused, " << stats.invalid << " invalid\n"
            << "sessions: " << sessions.sessions << " resident, "
            << sessions.sessions_created << " created, "
            << sessions.evictions_ttl << " ttl-evicted, "
            << sessions.renewals << " budget renewals, "
            << sessions.full_refusals << " full-table refusals\n";
  return 0;
} catch (const std::invalid_argument& error) {
  return common::usage_error(argv[0], error);
}

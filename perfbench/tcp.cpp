// serve_tcp_open: an open-loop load over loopback TCP.
//
// Set-up builds the serving fixture, starts net::ReleaseServer with
// kWorkers workers, opens kConnections connections and sends the
// disjoint warm-up users' requests over them. The timed phase is one
// generator thread driving both (non-blocking) connections with poll: request
// i is due at start + i / kOfferedRate whatever the server does, users
// are split across connections by id so each user's requests stay in
// order on one connection, and latency is measured from the due time
// (so a stall is charged to every request it delays). Throughput, CPU
// per request and the latency percentiles are medians over one-second
// windows of the schedule. The generator
// also records when it actually sent each request; how late it ran is
// reported, so a late generator is not mistaken for a slow server.
//
// Output check: every request is answered, and each user's statuses
// equal those of an in-process ReleaseService serving the same requests
// (admission depends only on the user's own charge sequence). Every
// granted or degraded vector has one count per POI type.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <deque>
#include <stdexcept>

#include "common/parallel.h"
#include "net/frame.h"
#include "net/server.h"
#include "workloads.h"

namespace perfbench {

namespace common = poiprivacy::common;
namespace net = poiprivacy::net;

using service::ReleaseRequest;
using service::ReleaseResult;
using service::ReleaseStatus;

namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kConnections = 2;
/// About half the closed-loop capacity of kConnections connections with
/// 16 frames in flight each against kWorkers workers (34k requests/s on a
/// 4-CPU x86-64 host).
constexpr double kOfferedRate = 8000.0;
/// Window length for the per-window throughput and CPU medians.
constexpr double kWindowSeconds = 1.0;
/// Warm-up keeps this many frames in flight per connection.
constexpr std::size_t kWarmupDepth = 8;
/// Requests replayed in process by the traced run.
constexpr std::size_t kReplayCap = 40000;

struct Record {
  std::int64_t due = 0;
  std::int64_t sent = 0;
  std::int64_t received = -1;  ///< -1: unanswered
  ReleaseStatus status = ReleaseStatus::kInvalidRequest;
  std::size_t length = 0;
};

struct Window {
  std::int64_t at = 0;
  double cpu_s = 0.0;
  std::size_t answered = 0;
};

class Connection {
 public:
  Connection() = default;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void open(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("tcp: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
      throw std::runtime_error("tcp: connect() failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }

  int fd() const noexcept { return fd_; }
  bool wants_write() const noexcept { return out_off_ < out_.size(); }
  std::size_t in_flight() const noexcept { return inflight_.size(); }

  /// Queues one request frame and tries to write it out.
  bool send(std::size_t index, const ReleaseRequest& request,
            std::vector<std::uint8_t>& scratch) {
    net::encode_request(request, scratch);
    const auto len = static_cast<std::uint32_t>(scratch.size());
    for (int b = 0; b < 4; ++b) {
      out_.push_back(static_cast<std::uint8_t>(len >> (8 * b)));
    }
    out_.insert(out_.end(), scratch.begin(), scratch.end());
    inflight_.push_back(index);
    return flush();
  }

  /// Writes queued bytes until the socket would block; false on error.
  bool flush() {
    while (out_off_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + out_off_,
                               out_.size() - out_off_, MSG_NOSIGNAL);
      if (n > 0) {
        out_off_ += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        return false;
      }
    }
    if (out_off_ == out_.size()) {
      out_.clear();
      out_off_ = 0;
    }
    return true;
  }

  /// Reads what is available and completes every whole response frame;
  /// false on a closed connection, an I/O error or a malformed frame.
  template <typename OnResponse>
  bool receive(OnResponse&& on_response) {
    std::uint8_t buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n > 0) {
        in_.insert(in_.end(), buf, buf + n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;
    }
    std::size_t off = 0;
    while (in_.size() - off >= 4) {
      const std::uint32_t len = static_cast<std::uint32_t>(in_[off]) |
                                static_cast<std::uint32_t>(in_[off + 1]) << 8 |
                                static_cast<std::uint32_t>(in_[off + 2]) << 16 |
                                static_cast<std::uint32_t>(in_[off + 3]) << 24;
      if (in_.size() - off - 4 < len) break;
      const std::optional<ReleaseResult> result = net::decode_response(
          std::span<const std::uint8_t>(in_.data() + off + 4, len));
      if (!result || inflight_.empty()) return false;
      on_response(inflight_.front(), *result);
      inflight_.pop_front();
      off += 4 + len;
    }
    in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(off));
    return true;
  }

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> out_;
  std::size_t out_off_ = 0;
  std::vector<std::uint8_t> in_;
  std::deque<std::size_t> inflight_;
};

using Connections = std::array<Connection, kConnections>;

/// Drives `requests` over the connections. With interval_ns > 0 request
/// i is due at start + i * interval_ns (open loop); with interval_ns == 0
/// every request is due at once and each connection keeps at most
/// `depth` in flight. Returns false on a transport error; requests still
/// unanswered at give_up keep received == -1.
bool drive(Connections& conns, std::span<const ReleaseRequest> requests,
           std::int64_t start, double interval_ns, std::size_t depth,
           std::int64_t give_up, std::vector<Record>& records,
           std::vector<Window>* windows) {
  const std::size_t n = requests.size();
  records.assign(n, Record{});
  std::vector<std::uint8_t> scratch;
  std::size_t next = 0;
  std::size_t answered = 0;
  const auto window_ns = static_cast<std::int64_t>(kWindowSeconds * 1e9);
  std::int64_t next_window = start;
  const std::int64_t schedule_end =
      start + static_cast<std::int64_t>(interval_ns * static_cast<double>(n));
  const auto on_response = [&](std::size_t index, const ReleaseResult& r) {
    records[index].received = now_ns();
    records[index].status = r.status;
    records[index].length = r.vector.size();
    ++answered;
  };
  while (answered < n) {
    std::int64_t now = now_ns();
    if (now > give_up) return true;
    if (windows != nullptr && now >= next_window &&
        next_window <= schedule_end) {
      windows->push_back({now, process_cpu_seconds(), answered});
      next_window += window_ns;
    }
    while (next < n) {
      const std::int64_t due =
          start + static_cast<std::int64_t>(
                      std::llround(interval_ns * static_cast<double>(next)));
      if (due > now) break;
      Connection& conn = conns[requests[next].user_id % kConnections];
      if (depth > 0 && conn.in_flight() >= depth) break;
      records[next].due = due;
      records[next].sent = now_ns();
      if (!conn.send(next, requests[next], scratch)) return false;
      ++next;
    }
    pollfd fds[kConnections];
    for (std::size_t c = 0; c < kConnections; ++c) {
      fds[c] = {conns[c].fd(),
                static_cast<short>(POLLIN | (conns[c].wants_write() ? POLLOUT : 0)),
                0};
    }
    now = now_ns();
    std::int64_t wait = give_up - now;
    if (next < n && depth == 0) {
      const std::int64_t due =
          start + static_cast<std::int64_t>(
                      std::llround(interval_ns * static_cast<double>(next)));
      wait = std::min(wait, due - now);
    }
    if (windows != nullptr && next_window <= schedule_end) {
      wait = std::min(wait, next_window - now);
    }
    wait = std::clamp<std::int64_t>(wait, 0, 50'000'000);
    const timespec timeout{0, static_cast<long>(wait)};
    if (::ppoll(fds, kConnections, &timeout, nullptr) < 0 && errno != EINTR) {
      return false;
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
      const short ev = fds[c].revents;
      if (ev & (POLLIN | POLLERR | POLLHUP)) {
        if (!conns[c].receive(on_response)) return false;
      }
      if ((ev & POLLOUT) && !conns[c].flush()) return false;
    }
  }
  return true;
}

net::ServerConfig server_config() {
  net::ServerConfig config;
  config.workers = kWorkers;
  return config;
}

struct TcpState {
  TcpState(std::uint64_t seed, const ServingShape& shape)
      : fixture(seed, shape),
        gsp(fixture.city.db, fixture.cloaker, fixture.config),
        server(gsp, server_config()) {
    server.start();
    for (Connection& conn : conns) conn.open(server.port());
    std::vector<Record> records;
    const std::int64_t start = now_ns();
    const bool ok = drive(conns, fixture.warmup, start, 0.0, kWarmupDepth,
                          start + 60'000'000'000, records, nullptr);
    for (const Record& r : records) {
      if (!ok || r.received < 0) {
        throw std::runtime_error("tcp: warm-up request unanswered");
      }
    }
  }

  ServingFixture fixture;
  service::ReleaseService gsp;
  net::ReleaseServer server;
  Connections conns;  // closed before the server stops
};

/// Users for a trace that lasts `seconds` at the offered rate (20
/// requests each), with headroom.
ServingShape tcp_shape(double seconds, bool smoke, bool probe) {
  ServingShape shape;
  const double requests = kOfferedRate * seconds;
  shape.users = static_cast<std::size_t>(std::ceil(requests / 20.0)) + 1;
  // Enough warm-up traffic to touch nearly every (region, radius, policy)
  // key, so the timed tail is not the seed's handful of cold misses.
  shape.warmup_users = 1000;
  if (smoke || probe) {
    shape.users = std::min<std::size_t>(shape.users, probe ? 100 : 40);
    shape.warmup_users = 10;
  }
  return shape;
}

struct OpenLoop {
  std::vector<Record> records;
  std::vector<Window> windows;
  std::span<const ReleaseRequest> sent;
  std::int64_t start = 0;
  bool transport_ok = true;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

OpenLoop open_loop(TcpState& state, double seconds) {
  OpenLoop run;
  const std::size_t n = std::min(
      state.fixture.trace.size(),
      static_cast<std::size_t>(std::llround(kOfferedRate * seconds)));
  run.sent = std::span<const ReleaseRequest>(state.fixture.trace).first(n);
  // Timer slack would let every poll wake late by up to 50 us.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::int64_t start = now_ns() + 1'000'000;
  run.start = start;
  const double interval_ns = 1e9 / kOfferedRate;
  const std::int64_t give_up = start + static_cast<std::int64_t>(
                                           (seconds + 20.0) * 1e9);
  const double cpu0 = process_cpu_seconds();
  run.transport_ok = drive(state.conns, run.sent, start, interval_ns, 0,
                           give_up, run.records, &run.windows);
  run.cpu_s = process_cpu_seconds() - cpu0;
  std::int64_t last = start;
  for (const Record& r : run.records) last = std::max(last, r.received);
  run.wall_s = static_cast<double>(last - start) * 1e-9;
  return run;
}

/// The output checks of the open-loop run; returns the failed count.
std::uint64_t check_open_loop(const TcpState& state, const OpenLoop& run,
                              bool corrupt, Outcome& out) {
  std::uint64_t unanswered = 0, invalid = 0, bad_length = 0, mismatched = 0;
  common::set_default_thread_count(2);
  service::ReleaseService oracle(state.fixture.city.db, state.fixture.cloaker,
                                 state.fixture.config);
  oracle.serve(state.fixture.warmup);
  const std::vector<ReleaseResult> want = oracle.serve(run.sent);
  common::set_default_thread_count(1);
  const std::size_t m = state.fixture.city.db.num_types();
  for (std::size_t i = 0; i < run.records.size(); ++i) {
    const Record& r = run.records[i];
    if (r.received < 0) {
      ++unanswered;
      continue;
    }
    if (r.status == ReleaseStatus::kInvalidRequest) ++invalid;
    const bool released = r.status == ReleaseStatus::kGranted ||
                          r.status == ReleaseStatus::kDegraded;
    if (r.length != (released ? m : 0)) ++bad_length;
    if (r.status != want[i].status || (corrupt && i == 0)) ++mismatched;
  }
  if (!run.transport_ok) out.fail(0, "transport error");
  if (unanswered) out.fail(unanswered, "unanswered requests");
  if (invalid) out.fail(invalid, "invalid_request answers");
  if (bad_length) out.fail(bad_length, "released vector of the wrong length");
  if (mismatched) {
    out.fail(mismatched, "statuses differ from the in-process oracle");
  }
  out.note("tcp_unanswered", static_cast<double>(unanswered));
  return unanswered + invalid + bad_length + mismatched;
}

std::vector<double> lags_us(const OpenLoop& run) {
  std::vector<double> out;
  out.reserve(run.records.size());
  for (const Record& r : run.records) {
    out.push_back(static_cast<double>(r.sent - r.due) * 1e-3);
  }
  return out;
}

}  // namespace

void run_tcp(const Options& options, Outcome& out) {
  const ServingShape shape = tcp_shape(options.seconds, options.smoke, false);
  common::set_default_thread_count(1);
  std::unique_ptr<TcpState> state;
  const double setup_s = timed_setup(state, kSetupReps, [&] {
    return std::make_unique<TcpState>(options.seed, shape);
  });
  const OpenLoop run = open_loop(*state, options.seconds);
  out.attempted += run.records.size();
  check_open_loop(*state, run, options.corrupt_digest, out);

  // Latency percentiles per window of due times, then the median over
  // windows: one scheduler hiccup moves one window, not the run.
  const auto window_ns = static_cast<std::int64_t>(kWindowSeconds * 1e9);
  std::vector<std::vector<double>> by_window;
  std::size_t samples = 0;
  for (const Record& r : run.records) {
    if (r.received < 0) continue;
    const auto w = static_cast<std::size_t>((r.due - run.start) / window_ns);
    if (by_window.size() <= w) by_window.resize(w + 1);
    by_window[w].push_back(static_cast<double>(r.received - r.due) * 1e-3);
    ++samples;
  }
  std::vector<double> p50, p99;
  for (const std::vector<double>& window : by_window) {
    if (window.size() < 100 && by_window.size() > 1) continue;
    p50.push_back(quantile(window, 0.5));
    p99.push_back(quantile(window, 0.99));
  }
  std::vector<double> throughput, cpu_us;
  for (std::size_t w = 1; w < run.windows.size(); ++w) {
    const Window& a = run.windows[w - 1];
    const Window& b = run.windows[w];
    const double done = static_cast<double>(b.answered - a.answered);
    if (done <= 0.0) continue;
    throughput.push_back(done / (static_cast<double>(b.at - a.at) * 1e-9));
    cpu_us.push_back((b.cpu_s - a.cpu_s) * 1e6 / done);
  }
  if (throughput.empty()) {
    // Runs shorter than two windows: one whole-run figure.
    throughput.push_back(static_cast<double>(samples) / run.wall_s);
    cpu_us.push_back(run.cpu_s * 1e6 / static_cast<double>(samples));
  }

  out.metric("setup_s", setup_s, "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  out.metric("throughput_per_s", median(throughput), "1/s");
  out.metric("cpu_us_per_op", median(cpu_us), "us");
  out.metric("latency_p50_us", median(p50), "us");
  out.metric("latency_p99_us", median(p99), "us");

  out.note("workers", static_cast<double>(kWorkers));
  out.note("connections", static_cast<double>(kConnections));
  out.note("offered_rate_per_s", kOfferedRate);
  out.note("latency_kind", json_string("due_time_to_response"));
  out.note("latency_samples", static_cast<double>(samples));
  out.note("latency_windows", static_cast<double>(p99.size()));
  out.note("windows", static_cast<double>(throughput.size()));
  out.note("generator_lag_us_p99", quantile(lags_us(run), 0.99));
}

StackTrace trace_tcp(const Options& options, bool full, Outcome& out) {
  const ServingShape shape = tcp_shape(options.seconds, options.smoke, !full);
  common::set_default_thread_count(1);
  TcpState state(options.seed, shape);
  const double seconds =
      full ? options.seconds
           : static_cast<double>(state.fixture.trace.size()) / kOfferedRate;
  const OpenLoop run = open_loop(state, seconds);
  out.attempted += run.records.size();
  check_open_loop(state, run, false, out);

  std::vector<double> roundtrip_us;
  for (const Record& r : run.records) {
    if (r.received >= 0) {
      roundtrip_us.push_back(static_cast<double>(r.received - r.sent) * 1e-3);
    }
  }

  // In-process replay of the same arrivals through serve_concurrent,
  // once untimed and once timing every call, then the wire codec over
  // the timed pass's requests and results.
  const std::span<const ReleaseRequest> replay =
      run.sent.first(std::min(run.sent.size(), kReplayCap));
  const auto make_service = [&] {
    auto gsp = std::make_unique<service::ReleaseService>(
        state.fixture.city.db, state.fixture.cloaker, state.fixture.config);
    for (const ReleaseRequest& r : state.fixture.warmup) {
      gsp->serve_concurrent(r);
    }
    return gsp;
  };
  std::int64_t plain_ns = 0;
  {
    const auto gsp = make_service();
    const std::int64_t t0 = now_ns();
    for (const ReleaseRequest& r : replay) gsp->serve_concurrent(r);
    plain_ns = now_ns() - t0;
  }
  std::vector<double> concurrent_us;
  concurrent_us.reserve(replay.size());
  std::vector<ReleaseResult> results;
  results.reserve(replay.size());
  std::int64_t traced_ns = 0;
  {
    const auto gsp = make_service();
    const std::int64_t start = now_ns();
    for (const ReleaseRequest& r : replay) {
      const std::int64_t t0 = now_ns();
      results.push_back(gsp->serve_concurrent(r));
      concurrent_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    traced_ns = now_ns() - start;
  }
  SpanLog log(replay.size() * 2 + 16);
  std::vector<std::uint8_t> body;
  std::uint64_t codec_errors = 0;
  for (std::size_t i = 0; i < replay.size(); ++i) {
    {
      const Scope span(log, "net.codec");
      net::encode_request(replay[i], body);
      if (!(net::decode_request(body) == replay[i])) ++codec_errors;
    }
    {
      const Scope span(log, "net.codec");
      net::encode_response(results[i], body);
      const std::optional<ReleaseResult> back = net::decode_response(body);
      if (!back || back->vector != results[i].vector) ++codec_errors;
    }
  }
  if (codec_errors) out.fail(codec_errors, "codec round trip changed a frame");
  const SpanLog::Totals codec = log.totals("net.codec");
  const double codec_ns_per_frame =
      codec.total_ns / static_cast<double>(codec.count);

  const double roundtrip_p50 = quantile(roundtrip_us, 0.5);
  const double concurrent_p50 = quantile(concurrent_us, 0.5);
  out.metric("net.codec.ns_per_frame", codec_ns_per_frame, "ns");
  out.metric("net.roundtrip_us_p50", roundtrip_p50, "us");
  out.metric("service.concurrent_us_p50", concurrent_p50, "us");
  out.metric("net.transport_us_p50", roundtrip_p50 - concurrent_p50, "us");
  out.metric("bench.generator.lag_us_p99", quantile(lags_us(run), 0.99), "us");
  out.note("tcp_trace_requests", static_cast<double>(run.records.size()));
  out.note("tcp_replay_requests", static_cast<double>(replay.size()));

  StackTrace result;
  result.overhead_share = static_cast<double>(traced_ns - plain_ns) /
                          static_cast<double>(plain_ns);
  // A round trip's layers: the serve call plus a request and a response
  // through the codec.
  double roundtrip_mean = 0.0, concurrent_mean = 0.0;
  for (const double x : roundtrip_us) roundtrip_mean += x;
  for (const double x : concurrent_us) concurrent_mean += x;
  roundtrip_mean /= static_cast<double>(roundtrip_us.size());
  concurrent_mean /= static_cast<double>(concurrent_us.size());
  result.coverage_share =
      (concurrent_mean + 2.0 * codec_ns_per_frame * 1e-3) / roundtrip_mean;
  return result;
}

}  // namespace perfbench

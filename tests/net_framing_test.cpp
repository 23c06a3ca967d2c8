// Wire-format contracts of the socket front-end (src/net): codec
// round-trips, rejection of every malformed-frame shape (truncated
// header, truncated body, oversized length, zero-length body, stray
// status bytes), robustness to partial reads — and a loopback smoke
// proving a released vector that crosses the TCP boundary is
// byte-identical to one produced by the in-process batch path.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/client.h"
#include "net/server.h"
#include "service/workload.h"

namespace poiprivacy {
namespace {


/// Deterministic stream stub shared by the loopback stream smoke
/// (window = 2 epochs, stride 1; counts 10 * begin + series).
class FakeStreamSource final : public service::StreamSource {
 public:
  std::size_t num_series() const override { return 3; }
  std::size_t epochs() const override { return 8; }
  std::size_t num_windows(std::size_t begin, std::size_t end) const override {
    return end - begin >= 2 ? end - begin - 1 : 0;
  }
  double sensitivity() const override { return 2.0; }
  void release_raw(std::size_t begin, std::size_t end,
                   std::vector<double>& out) const override {
    const std::size_t windows = num_windows(begin, end);
    out.resize(windows * num_series());
    for (std::size_t w = 0; w < windows; ++w) {
      for (std::size_t s = 0; s < num_series(); ++s) {
        out[w * num_series() + s] = static_cast<double>(10 * (begin + w) + s);
      }
    }
  }
};

std::vector<std::uint8_t> encoded(const service::ReleaseRequest& request) {
  std::vector<std::uint8_t> body;
  net::encode_request(request, body);
  return body;
}

TEST(NetFraming, RequestCodecRoundTrips) {
  const service::ReleaseRequest request{
      0xdeadbeef12345678ull, {3.25, -7.5}, 0.625, 3};
  const std::vector<std::uint8_t> body = encoded(request);
  EXPECT_EQ(body.size(), net::kRequestBodyBytes);
  const auto decoded = net::decode_request(body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, request);
}

TEST(NetFraming, RequestCodecRejectsWrongSizes) {
  const std::vector<std::uint8_t> body =
      encoded(service::ReleaseRequest{1, {0.0, 0.0}, 1.0, 0});
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              net::kRequestBodyBytes - 1,
                              net::kRequestBodyBytes + 1}) {
    std::vector<std::uint8_t> wrong(body);
    wrong.resize(n, 0);
    EXPECT_FALSE(net::decode_request(wrong).has_value()) << n << " bytes";
  }
}

TEST(NetFraming, StreamRequestCodecRoundTrips) {
  const service::StreamRequest request{0x1122334455667788ull, 7, 2, 6, 1};
  std::vector<std::uint8_t> body;
  net::encode_stream_request(request, body);
  EXPECT_EQ(body.size(), net::kStreamRequestBodyBytes);
  EXPECT_EQ(body[0], net::kStreamRequestKind);
  // The two request kinds can never collide on the wire.
  EXPECT_NE(net::kStreamRequestBodyBytes, net::kRequestBodyBytes);
  const auto decoded = net::decode_stream_request(body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, request);
}

TEST(NetFraming, StreamRequestCodecRejectsWrongSizeAndKind) {
  std::vector<std::uint8_t> body;
  net::encode_stream_request({1, 0, 0, 4, 0}, body);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              net::kStreamRequestBodyBytes - 1,
                              net::kStreamRequestBodyBytes + 1}) {
    std::vector<std::uint8_t> wrong(body);
    wrong.resize(n, 0);
    EXPECT_FALSE(net::decode_stream_request(wrong).has_value()) << n;
  }
  std::vector<std::uint8_t> bad_kind(body);
  bad_kind[0] = 0;  // kind byte must announce a stream request
  EXPECT_FALSE(net::decode_stream_request(bad_kind).has_value());
  bad_kind[0] = 2;
  EXPECT_FALSE(net::decode_stream_request(bad_kind).has_value());
}

TEST(NetFraming, ResponseCodecRoundTrips) {
  service::ReleaseResult result;
  result.status = service::ReleaseStatus::kDegraded;
  result.served_policy = 1;
  result.cache_hit = true;
  result.spent = {1.25, 0.0625};
  result.vector = {0, -3, 1 << 30, 42};
  std::vector<std::uint8_t> body;
  net::encode_response(result, body);
  const auto decoded = net::decode_response(body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, result);

  // An empty vector (refused request) round-trips too.
  service::ReleaseResult refused;
  refused.status = service::ReleaseStatus::kBudgetExhausted;
  refused.spent = {3.5, 0.5};
  net::encode_response(refused, body);
  const auto decoded_refused = net::decode_response(body);
  ASSERT_TRUE(decoded_refused.has_value());
  EXPECT_EQ(*decoded_refused, refused);
}

TEST(NetFraming, ResponseCodecRejectsMalformedBytes) {
  service::ReleaseResult result;
  result.status = service::ReleaseStatus::kGranted;
  result.vector = {1, 2, 3};
  std::vector<std::uint8_t> body;
  net::encode_response(result, body);

  std::vector<std::uint8_t> bad_status(body);
  bad_status[0] = 9;  // no such ReleaseStatus
  EXPECT_FALSE(net::decode_response(bad_status).has_value());

  std::vector<std::uint8_t> bad_flag(body);
  bad_flag[5] = 2;  // cache_hit must be 0/1
  EXPECT_FALSE(net::decode_response(bad_flag).has_value());

  std::vector<std::uint8_t> truncated(body);
  truncated.pop_back();  // count promises more i32s than present
  EXPECT_FALSE(net::decode_response(truncated).has_value());

  std::vector<std::uint8_t> oversized(body);
  oversized.push_back(0);  // trailing junk after the promised i32s
  EXPECT_FALSE(net::decode_response(oversized).has_value());

  EXPECT_FALSE(
      net::decode_response(std::vector<std::uint8_t>(5, 0)).has_value());
}

/// Byte-by-byte little-endian reference of the wire layout in net/frame.h.
void append_le(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

TEST(NetFraming, EncodersMatchByteByByteReference) {
  // A 177-type response (the Beijing category count), extremes included.
  common::Rng rng(177);
  service::ReleaseResult result;
  result.status = service::ReleaseStatus::kGranted;
  result.served_policy = 2;
  result.cache_hit = true;
  result.spent = {0.75, 1e-6};
  result.vector.resize(177);
  for (std::int32_t& v : result.vector) {
    v = static_cast<std::int32_t>(rng.uniform_int(-5, 1 << 20));
  }
  result.vector.front() = std::numeric_limits<std::int32_t>::min();
  result.vector.back() = std::numeric_limits<std::int32_t>::max();
  std::vector<std::uint8_t> want;
  want.push_back(static_cast<std::uint8_t>(result.status));
  append_le(want, result.served_policy, 4);
  want.push_back(1);
  append_le(want, std::bit_cast<std::uint64_t>(result.spent.epsilon), 8);
  append_le(want, std::bit_cast<std::uint64_t>(result.spent.delta), 8);
  append_le(want, result.vector.size(), 4);
  for (const std::int32_t v : result.vector) {
    append_le(want, static_cast<std::uint32_t>(v), 4);
  }
  // A reused buffer that held a longer frame keeps none of its bytes.
  std::vector<std::uint8_t> body(4096, 0xab);
  net::encode_response(result, body);
  EXPECT_EQ(body, want);

  const service::ReleaseRequest request{
      0xdeadbeef12345678ull, {3.25, -7.5}, 0.625, 3};
  want.clear();
  append_le(want, request.user_id, 8);
  append_le(want, std::bit_cast<std::uint64_t>(request.location.x), 8);
  append_le(want, std::bit_cast<std::uint64_t>(request.location.y), 8);
  append_le(want, std::bit_cast<std::uint64_t>(request.radius), 8);
  append_le(want, request.policy, 4);
  net::encode_request(request, body);
  EXPECT_EQ(body, want);

  const service::StreamRequest stream{0x1122334455667788ull, 7, 2, 6, 1};
  want.assign(1, net::kStreamRequestKind);
  append_le(want, stream.user_id, 8);
  append_le(want, stream.series, 4);
  append_le(want, stream.begin_epoch, 4);
  append_le(want, stream.end_epoch, 4);
  append_le(want, stream.policy, 4);
  net::encode_stream_request(stream, body);
  EXPECT_EQ(body, want);
}

/// Frame I/O is exercised over a socketpair — real fds, no listener.
class FramePipe : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  void close_writer() {
    ::close(fds_[0]);
    fds_[0] = -1;
  }

  int fds_[2] = {-1, -1};
};

TEST_F(FramePipe, RoundTripsBodiesIncludingEmpty) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 0, 7};
  ASSERT_TRUE(net::write_frame(fds_[0], payload));
  ASSERT_TRUE(net::write_frame(fds_[0], {}));  // zero-length body is legal
  std::vector<std::uint8_t> body{99};
  EXPECT_EQ(net::read_frame(fds_[1], body), net::FrameIo::kOk);
  EXPECT_EQ(body, payload);
  EXPECT_EQ(net::read_frame(fds_[1], body), net::FrameIo::kOk);
  EXPECT_TRUE(body.empty());
  close_writer();
  EXPECT_EQ(net::read_frame(fds_[1], body), net::FrameIo::kClosed);
}

TEST_F(FramePipe, SurvivesDribbledPartialWrites) {
  const std::vector<std::uint8_t> payload(300, 0xab);
  // [u32 LE length][payload], written in place.
  std::vector<std::uint8_t> wire(4 + payload.size(), 0);
  wire[0] = static_cast<std::uint8_t>(payload.size());
  wire[1] = static_cast<std::uint8_t>(payload.size() >> 8);
  std::copy(payload.begin(), payload.end(), wire.begin() + 4);
  // Drip the frame through the socket a few bytes at a time so every
  // read in read_frame comes back short.
  std::thread writer([&] {
    for (std::size_t i = 0; i < wire.size(); i += 7) {
      const std::size_t n = std::min<std::size_t>(7, wire.size() - i);
      ASSERT_EQ(::write(fds_[0], wire.data() + i, n),
                static_cast<ssize_t>(n));
    }
  });
  std::vector<std::uint8_t> body;
  EXPECT_EQ(net::read_frame(fds_[1], body), net::FrameIo::kOk);
  EXPECT_EQ(body, payload);
  writer.join();
}

// A frame far larger than the socket buffer leaves in one write_frame
// call while the reader drains it, header and body intact.
TEST_F(FramePipe, RoundTripsAFrameLargerThanTheSocketBuffer) {
  std::vector<std::uint8_t> payload(net::kMaxFrameBytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const int small = 4096;
  ::setsockopt(fds_[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof small);
  bool written = false;
  std::thread writer([&] { written = net::write_frame(fds_[0], payload); });
  std::vector<std::uint8_t> body;
  EXPECT_EQ(net::read_frame(fds_[1], body), net::FrameIo::kOk);
  writer.join();
  EXPECT_TRUE(written);
  EXPECT_EQ(body, payload);
  // One byte past the cap is refused before anything is sent.
  payload.push_back(0);
  EXPECT_FALSE(net::write_frame(fds_[0], payload));
}

TEST_F(FramePipe, RejectsTruncatedHeaderAndBody) {
  const std::uint8_t half_header[2] = {10, 0};
  ASSERT_EQ(::write(fds_[0], half_header, 2), 2);
  close_writer();
  std::vector<std::uint8_t> body;
  EXPECT_EQ(net::read_frame(fds_[1], body), net::FrameIo::kError);

  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  const std::uint8_t header_then_partial[8] = {10, 0, 0, 0, 1, 2, 3, 4};
  ASSERT_EQ(::write(fds_[0], header_then_partial, 8), 8);
  close_writer();
  EXPECT_EQ(net::read_frame(fds_[1], body), net::FrameIo::kError);
}

TEST_F(FramePipe, RefusesOversizedAnnouncedLength) {
  const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0x7f};
  ASSERT_EQ(::write(fds_[0], huge, 4), 4);
  std::vector<std::uint8_t> body;
  EXPECT_EQ(net::read_frame(fds_[1], body), net::FrameIo::kTooLarge);
  // The cap is configurable per call; the same bytes pass a larger cap
  // only to die waiting for the body, which is not this test.
  EXPECT_TRUE(net::write_frame(fds_[0], std::vector<std::uint8_t>(8, 1)));
  EXPECT_EQ(net::read_frame(fds_[1], body, /*max_bytes=*/4),
            net::FrameIo::kTooLarge);
}

/// Loopback smoke: the full stack (service -> server -> TCP -> client)
/// returns byte-identical vectors to the in-process batch path. One
/// sequential connection consumes noise indices 0..n-1 in request
/// order, exactly like one serve() call on a twin service.
TEST(NetLoopback, TcpReleasesMatchInProcessByteForByte) {
  const poi::City city = poi::generate_city(poi::test_preset(), 7);
  common::Rng pop_rng(3);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(city.db.bounds(), 500, pop_rng),
      city.db.bounds());
  service::ServiceConfig config;
  config.policies.push_back(
      {"precise", {.k = 8, .epsilon = 1.0, .delta = 0.05}});
  config.policies.push_back(
      {"coarse", {.k = 8, .epsilon = 0.25, .delta = 0.01}});
  config.degrade_policy = 1;
  config.epsilon_ceiling = 3.5;
  config.delta_ceiling = 1.0;
  config.seed = 99;

  service::WorkloadConfig workload;
  workload.num_users = 5;
  workload.requests_per_user = 6;
  workload.seed = 11;
  const std::vector<service::ReleaseRequest> trace =
      service::requests_of(service::generate_workload(city, workload));

  // Twin A: the deterministic in-process batch path.
  service::ReleaseService inproc(city.db, cloaker, config);
  const std::vector<service::ReleaseResult> expected = inproc.serve(trace);

  // Twin B: identical service behind the TCP front-end.
  service::ReleaseService served(city.db, cloaker, config);
  net::ReleaseServer server(served, net::ServerConfig{});
  server.start();
  net::Client client = net::Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.connected());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto result = client.call(trace[i]);
    ASSERT_TRUE(result.has_value()) << "request " << i;
    EXPECT_EQ(*result, expected[i]) << "request " << i;
  }
  client.close();
  server.stop();

  EXPECT_EQ(server.stats().frames_served, trace.size());
  EXPECT_EQ(server.stats().protocol_errors, 0u);
  // Both twins saw the same admission and cache history. With no
  // eviction each side counts a key's first request as its one miss;
  // serve() drains one batch, the server one batch of one per frame.
  service::ServiceStats batch = inproc.stats();
  service::ServiceStats wire = served.stats();
  EXPECT_EQ(batch.batches, 1u);
  EXPECT_EQ(wire.batches, server.stats().frames_served);
  batch.batches = wire.batches = 0;
  EXPECT_EQ(wire, batch);
}

/// Continual-release requests cross the same socket: a mixed classic /
/// stream conversation against the TCP front-end must match a twin
/// service driven in-process, byte for byte.
TEST(NetLoopback, TcpStreamReleasesMatchInProcess) {
  const poi::City city = poi::generate_city(poi::test_preset(), 7);
  common::Rng pop_rng(3);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(city.db.bounds(), 500, pop_rng),
      city.db.bounds());
  service::ServiceConfig config;
  config.policies.push_back(
      {"precise", {.k = 8, .epsilon = 1.0, .delta = 0.05}});
  config.policies.push_back(
      {"coarse", {.k = 8, .epsilon = 0.25, .delta = 0.01}});
  config.epsilon_ceiling = 8.0;
  config.delta_ceiling = 1.0;
  config.seed = 99;
  const FakeStreamSource source;

  const std::vector<service::StreamRequest> streams = {
      {1, 0, 0, 4, 0}, {2, 1, 2, 6, 1}, {1, 2, 0, 8, 1}, {1, 0, 0, 4, 0}};
  const service::ReleaseRequest classic{3, {4.0, 4.0}, 1.0, 0};

  service::ReleaseService inproc(city.db, cloaker, config);
  inproc.attach_stream_source(&source);
  std::vector<service::ReleaseResult> expected;
  for (const auto& request : streams) {
    expected.push_back(inproc.serve_stream(request));
  }
  expected.push_back(inproc.serve_concurrent(classic));

  service::ReleaseService served(city.db, cloaker, config);
  served.attach_stream_source(&source);
  net::ReleaseServer server(served, net::ServerConfig{});
  server.start();
  net::Client client = net::Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.connected());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const auto result = client.call(streams[i]);
    ASSERT_TRUE(result.has_value()) << "stream request " << i;
    EXPECT_EQ(*result, expected[i]) << "stream request " << i;
  }
  const auto mixed = client.call(classic);
  ASSERT_TRUE(mixed.has_value());
  EXPECT_EQ(*mixed, expected.back());
  client.close();
  server.stop();
  EXPECT_EQ(server.stats().frames_served, streams.size() + 1);
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

TEST(NetLoopback, MalformedFrameClosesConnectionNotServer) {
  const poi::City city = poi::generate_city(poi::test_preset(), 7);
  common::Rng pop_rng(3);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(city.db.bounds(), 500, pop_rng),
      city.db.bounds());
  service::ServiceConfig config;
  config.policies.push_back(
      {"precise", {.k = 8, .epsilon = 1.0, .delta = 0.05}});
  config.seed = 99;
  service::ReleaseService gsp(city.db, cloaker, config);
  net::ReleaseServer server(gsp, net::ServerConfig{});
  server.start();

  // A garbage frame (valid framing, wrong body size) must get this
  // connection closed by the server — and only this connection.
  const int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ASSERT_TRUE(net::write_frame(raw, std::vector<std::uint8_t>(3, 0)));
  std::uint8_t drain[16];
  EXPECT_EQ(::read(raw, drain, sizeof drain), 0) << "expected server close";
  ::close(raw);

  // A healthy connection afterwards still gets served.
  net::Client good = net::Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(good.connected());
  const auto result =
      good.call(service::ReleaseRequest{1, {4.0, 4.0}, 1.0, 0});
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, service::ReleaseStatus::kGranted);
  good.close();
  server.stop();
  EXPECT_GE(server.stats().protocol_errors, 1u);
  EXPECT_EQ(server.stats().frames_served, 1u);
}

}  // namespace
}  // namespace poiprivacy

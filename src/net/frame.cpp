#include "net/frame.h"

#include <sys/uio.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>

namespace poiprivacy::net {

namespace {

/// status, served policy, cache hit, eps, delta, count.
constexpr std::size_t kResponseHeaderBytes = 1 + 4 + 1 + 8 + 8 + 4;

/// Bounds-unchecked little-endian writes; callers size the buffer up
/// front.
void put_u32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u64(std::uint8_t* p, std::uint64_t v) noexcept {
  put_u32(p, static_cast<std::uint32_t>(v));
  put_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

void put_f64(std::uint8_t* p, double v) noexcept {
  put_u64(p, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-unchecked little-endian reads; callers check sizes up front.
std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) noexcept {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

double get_f64(const std::uint8_t* p) noexcept {
  return std::bit_cast<double>(get_u64(p));
}

bool valid_status(std::uint8_t raw) noexcept {
  return raw <= static_cast<std::uint8_t>(service::ReleaseStatus::kInvalidRequest);
}

/// Reads exactly n bytes. 0 = done, 1 = clean EOF before any byte,
/// -1 = error or EOF mid-read.
int read_exact(int fd, std::uint8_t* buf, std::size_t n) noexcept {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) return got == 0 ? 1 : -1;
    if (errno == EINTR) continue;
    return -1;
  }
  return 0;
}

}  // namespace

void encode_request(const service::ReleaseRequest& request,
                    std::vector<std::uint8_t>& out) {
  out.resize(kRequestBodyBytes);
  std::uint8_t* p = out.data();
  put_u64(p, request.user_id);
  put_f64(p + 8, request.location.x);
  put_f64(p + 16, request.location.y);
  put_f64(p + 24, request.radius);
  put_u32(p + 32, request.policy);
}

std::optional<service::ReleaseRequest> decode_request(
    std::span<const std::uint8_t> body) {
  if (body.size() != kRequestBodyBytes) return std::nullopt;
  service::ReleaseRequest request;
  const std::uint8_t* p = body.data();
  request.user_id = get_u64(p);
  request.location.x = get_f64(p + 8);
  request.location.y = get_f64(p + 16);
  request.radius = get_f64(p + 24);
  request.policy = get_u32(p + 32);
  return request;
}

void encode_stream_request(const service::StreamRequest& request,
                           std::vector<std::uint8_t>& out) {
  out.resize(kStreamRequestBodyBytes);
  std::uint8_t* p = out.data();
  p[0] = kStreamRequestKind;
  put_u64(p + 1, request.user_id);
  put_u32(p + 9, request.series);
  put_u32(p + 13, request.begin_epoch);
  put_u32(p + 17, request.end_epoch);
  put_u32(p + 21, request.policy);
}

std::optional<service::StreamRequest> decode_stream_request(
    std::span<const std::uint8_t> body) {
  if (body.size() != kStreamRequestBodyBytes) return std::nullopt;
  const std::uint8_t* p = body.data();
  if (p[0] != kStreamRequestKind) return std::nullopt;
  service::StreamRequest request;
  request.user_id = get_u64(p + 1);
  request.series = get_u32(p + 9);
  request.begin_epoch = get_u32(p + 13);
  request.end_epoch = get_u32(p + 17);
  request.policy = get_u32(p + 21);
  return request;
}

void encode_response(const service::ReleaseResult& result,
                     std::vector<std::uint8_t>& out) {
  out.resize(kResponseHeaderBytes + result.vector.size() * 4);
  std::uint8_t* p = out.data();
  p[0] = static_cast<std::uint8_t>(result.status);
  put_u32(p + 1, result.served_policy);
  p[5] = result.cache_hit ? 1 : 0;
  put_f64(p + 6, result.spent.epsilon);
  put_f64(p + 14, result.spent.delta);
  put_u32(p + 22, static_cast<std::uint32_t>(result.vector.size()));
  p += kResponseHeaderBytes;
  for (const std::int32_t v : result.vector) {
    put_u32(p, static_cast<std::uint32_t>(v));
    p += 4;
  }
}

std::optional<service::ReleaseResult> decode_response(
    std::span<const std::uint8_t> body) {
  if (body.size() < kResponseHeaderBytes) return std::nullopt;
  const std::uint8_t* p = body.data();
  if (!valid_status(p[0]) || p[5] > 1) return std::nullopt;
  service::ReleaseResult result;
  result.status = static_cast<service::ReleaseStatus>(p[0]);
  result.served_policy = get_u32(p + 1);
  result.cache_hit = p[5] != 0;
  result.spent.epsilon = get_f64(p + 6);
  result.spent.delta = get_f64(p + 14);
  const std::uint32_t count = get_u32(p + 22);
  if (body.size() != kResponseHeaderBytes + std::size_t{count} * 4) {
    return std::nullopt;
  }
  p += kResponseHeaderBytes;
  result.vector.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    result.vector[i] = static_cast<std::int32_t>(get_u32(p + i * 4));
  }
  return result;
}

FrameIo read_frame(int fd, std::vector<std::uint8_t>& body,
                   std::size_t max_bytes) {
  std::uint8_t header[4];
  switch (read_exact(fd, header, sizeof header)) {
    case 1:
      return FrameIo::kClosed;
    case -1:
      return FrameIo::kError;
    default:
      break;
  }
  const std::uint32_t length = get_u32(header);
  if (length > max_bytes) return FrameIo::kTooLarge;
  body.resize(length);
  if (length > 0 && read_exact(fd, body.data(), length) != 0) {
    return FrameIo::kError;
  }
  return FrameIo::kOk;
}

bool write_frame(int fd, std::span<const std::uint8_t> body) {
  if (body.size() > kMaxFrameBytes) return false;
  std::uint8_t header[4];
  put_u32(header, static_cast<std::uint32_t>(body.size()));
  // Header and body leave in one writev, so a TCP_NODELAY socket sends
  // one segment per frame; a short write resumes where it stopped.
  iovec parts[2] = {{header, sizeof header},
                    {const_cast<std::uint8_t*>(body.data()), body.size()}};
  iovec* next = parts;
  int count = body.empty() ? 1 : 2;
  while (count > 0) {
    const ssize_t w = ::writev(fd, next, count);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    auto sent = static_cast<std::size_t>(w);
    while (count > 0 && sent >= next->iov_len) {
      sent -= next->iov_len;
      ++next;
      --count;
    }
    if (count > 0) {
      next->iov_base = static_cast<std::uint8_t*>(next->iov_base) + sent;
      next->iov_len -= sent;
    }
  }
  return true;
}

}  // namespace poiprivacy::net

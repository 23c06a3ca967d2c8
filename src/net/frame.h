// Length-prefixed binary wire format for the release service.
//
// The socket front-end (server.h) speaks the simplest protocol that can
// carry a ReleaseRequest/ReleaseResult pair: every message is one frame,
//
//   [u32 little-endian body length][body bytes]
//
// with the body length capped (kMaxFrameBytes) so a hostile or corrupt
// peer cannot make the server allocate unboundedly. Integers are
// little-endian, doubles are their IEEE-754 bit patterns as u64 —
// serialization is byte-exact, so a vector released over the wire
// compares bit-identical to one released in process.
//
//   request body (kRequestBodyBytes, fixed):
//     u64 user_id | f64 x | f64 y | f64 radius | u32 policy
//   stream request body (kStreamRequestBodyBytes, fixed):
//     u8 kind (= 1) | u64 user_id | u32 series | u32 begin_epoch |
//     u32 end_epoch | u32 policy
//   response body (variable; shared by both request kinds):
//     u8 status | u32 served_policy | u8 cache_hit |
//     f64 spent_epsilon | f64 spent_delta | u32 count | count x i32
//
// The two request kinds are disambiguated by body length (36 vs 25
// bytes — the lengths can never collide), so the classic request needs
// no version byte and stays byte-identical on the wire.
//
// The codec layer (encode_/decode_) is pure — bytes in, structs out — so
// tests exercise truncation/oversize/round-trip without a socket. The
// frame I/O layer (read_frame/write_frame) handles short reads/writes
// and EINTR on a blocking fd; a clean EOF *between* frames is kClosed,
// an EOF inside a frame is kError.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "service/release_service.h"

namespace poiprivacy::net {

/// Hard cap on a frame body. A response is dominated by the released
/// vector (num_types i32s); 1 MiB allows ~260k POI types.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 20;
inline constexpr std::size_t kRequestBodyBytes = 8 + 8 + 8 + 8 + 4;
inline constexpr std::size_t kStreamRequestBodyBytes = 1 + 8 + 4 + 4 + 4 + 4;
/// The kind byte opening a stream-request body.
inline constexpr std::uint8_t kStreamRequestKind = 1;

// -- codec (pure; nullopt on malformed bytes) --

void encode_request(const service::ReleaseRequest& request,
                    std::vector<std::uint8_t>& out);
std::optional<service::ReleaseRequest> decode_request(
    std::span<const std::uint8_t> body);

void encode_stream_request(const service::StreamRequest& request,
                           std::vector<std::uint8_t>& out);
std::optional<service::StreamRequest> decode_stream_request(
    std::span<const std::uint8_t> body);

void encode_response(const service::ReleaseResult& result,
                     std::vector<std::uint8_t>& out);
std::optional<service::ReleaseResult> decode_response(
    std::span<const std::uint8_t> body);

// -- frame I/O on a blocking fd --

enum class FrameIo : std::uint8_t {
  kOk = 0,     ///< one whole frame read
  kClosed,     ///< clean EOF on a frame boundary
  kTooLarge,   ///< header announced more than max_bytes; nothing consumed after it
  kError,      ///< truncated frame or I/O error
};

/// Reads exactly one frame body into `body` (replaced, not appended).
FrameIo read_frame(int fd, std::vector<std::uint8_t>& body,
                   std::size_t max_bytes = kMaxFrameBytes);

/// Writes one frame, header and body in one writev, looping over short
/// writes and EINTR.
bool write_frame(int fd, std::span<const std::uint8_t> body);

}  // namespace poiprivacy::net

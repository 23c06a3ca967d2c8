// The NEON kernel tier: explicit 4-lane int32 intrinsics for the hot
// frequency kernels on ARM builds (NEON is baseline on AArch64, so no
// runtime feature check is needed — the tier is simply absent from x86
// binaries). The lane-free helpers (collect_positive, pack_fingerprint,
// fingerprint_covers) keep the portable word loops: NEON has no cheap
// movemask, and those paths are bit-scans over a handful of words.
// disk_sum_max is null, as in the scalar tier.
// Bit-identical to the scalar tier; the per-tier oracle sweep in
// tests/kernel_property_test is the gate.
#include "poi/kernel_ops.h"

#if defined(__aarch64__) || defined(__ARM_NEON)

#include <arm_neon.h>

namespace poiprivacy::poi::detail {

namespace {

bool dominates(const std::int32_t* a, const std::int32_t* b,
               std::size_t n) noexcept {
  uint32x4_t violated = vdupq_n_u32(0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    violated = vorrq_u32(violated, vcltq_s32(vld1q_s32(a + i),
                                             vld1q_s32(b + i)));
  }
  std::int32_t tail = 0;
  for (; i < n; ++i) tail |= (a[i] < b[i]);
  return tail == 0 && vmaxvq_u32(violated) == 0;
}

bool dominates_early_exit(const std::int32_t* a, const std::int32_t* b,
                          std::size_t n) noexcept {
  // One branch per 64-lane block (16 vectors), like the scalar tier.
  constexpr std::size_t kBlock = 64;
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    uint32x4_t violated = vdupq_n_u32(0);
    for (std::size_t j = i; j < i + kBlock; j += 4) {
      violated = vorrq_u32(violated, vcltq_s32(vld1q_s32(a + j),
                                               vld1q_s32(b + j)));
    }
    if (vmaxvq_u32(violated) != 0) return false;
  }
  uint32x4_t violated = vdupq_n_u32(0);
  for (; i + 4 <= n; i += 4) {
    violated = vorrq_u32(violated, vcltq_s32(vld1q_s32(a + i),
                                             vld1q_s32(b + i)));
  }
  std::int32_t tail = 0;
  for (; i < n; ++i) tail |= (a[i] < b[i]);
  return tail == 0 && vmaxvq_u32(violated) == 0;
}

std::int64_t l1_distance(const std::int32_t* a, const std::int32_t* b,
                         std::size_t n) noexcept {
  // |a - b| = max(a,b) - min(a,b) in uint32 (exact for the full int32
  // range), pairwise-widened into two uint64 accumulator lanes.
  uint64x2_t acc = vdupq_n_u64(0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const int32x4_t va = vld1q_s32(a + i);
    const int32x4_t vb = vld1q_s32(b + i);
    const uint32x4_t diff = vreinterpretq_u32_s32(
        vsubq_s32(vmaxq_s32(va, vb), vminq_s32(va, vb)));
    acc = vpadalq_u32(acc, diff);
  }
  std::uint64_t sum = vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
  for (; i < n; ++i) {
    const std::int32_t hi = a[i] > b[i] ? a[i] : b[i];
    const std::int32_t lo = a[i] > b[i] ? b[i] : a[i];
    sum += static_cast<std::uint32_t>(hi) - static_cast<std::uint32_t>(lo);
  }
  return static_cast<std::int64_t>(sum);
}

void diff_into(const std::int32_t* a, const std::int32_t* b, std::int32_t* out,
               std::size_t n) noexcept {
  std::size_t i = 0;
  // Loads precede the store within each iteration, so out == a / out == b
  // exact aliasing stays well-defined, as in the scalar tier.
  for (; i + 4 <= n; i += 4) {
    vst1q_s32(out + i, vsubq_s32(vld1q_s32(a + i), vld1q_s32(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

std::int64_t total(const std::int32_t* f, std::size_t n) noexcept {
  int64x2_t acc = vdupq_n_s64(0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = vpadalq_s32(acc, vld1q_s32(f + i));
  }
  std::int64_t sum = vgetq_lane_s64(acc, 0) + vgetq_lane_s64(acc, 1);
  for (; i < n; ++i) sum += f[i];
  return sum;
}

std::size_t collect_positive(const std::int32_t* f, std::size_t n,
                             std::uint32_t* out) noexcept {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[count] = static_cast<std::uint32_t>(i);
    count += (f[i] > 0);
  }
  return count;
}

void pack_fingerprint(const std::int32_t* f, std::size_t n,
                      std::uint64_t* out) noexcept {
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t end = base + 64 < n ? base + 64 : n;
    std::uint64_t word = 0;
    for (std::size_t i = base; i < end; ++i) {
      word |= static_cast<std::uint64_t>(f[i] > 0) << (i - base);
    }
    out[base / 64] = word;
  }
}

bool fingerprint_covers(const std::uint64_t* a, const std::uint64_t* b,
                        std::size_t words) noexcept {
  std::uint64_t uncovered = 0;
  for (std::size_t w = 0; w < words; ++w) uncovered |= b[w] & ~a[w];
  return uncovered == 0;
}

}  // namespace

const KernelOps& neon_kernel_ops() noexcept {
  static constexpr KernelOps ops{
      dominates,        dominates_early_exit, l1_distance,
      diff_into,        total,                collect_positive,
      pack_fingerprint, fingerprint_covers,   nullptr,
  };
  return ops;
}

}  // namespace poiprivacy::poi::detail

#endif  // ARM

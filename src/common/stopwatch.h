// Wall-clock stopwatch for coarse experiment timing.
#pragma once

#include <chrono>

namespace poiprivacy::common {

class Stopwatch {
 public:
  Stopwatch() noexcept : start_(Clock::now()) {}

  void reset() noexcept { start_ = Clock::now(); }

  double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace poiprivacy::common

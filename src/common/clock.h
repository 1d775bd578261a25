#ifndef REPRO_COMMON_CLOCK_H_
#define REPRO_COMMON_CLOCK_H_

#include <chrono>

namespace autocts {

/// The one clock every wall-time measurement in the library reads:
/// monotonic, so reported durations never go negative across NTP steps.
using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `from`, as a double.
inline double SecondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

}  // namespace autocts

#endif  // REPRO_COMMON_CLOCK_H_

#include "hostspeed.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr std::size_t kProbeElements = 16384;

}  // namespace

HostSpeedProbe::HostSpeedProbe()
    : input_(kProbeElements), work_(kProbeElements) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint32_t& v : input_) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    v = static_cast<std::uint32_t>(x >> 32);
  }
}

double HostSpeedProbe::measure() {
  using Clock = std::chrono::steady_clock;
  std::copy(input_.begin(), input_.end(), work_.begin());
  std::sort(work_.begin(), work_.end());
  std::copy(input_.begin(), input_.end(), work_.begin());
  const auto t0 = Clock::now();
  std::sort(work_.begin(), work_.end());
  const auto t1 = Clock::now();
  if (!std::is_sorted(work_.begin(), work_.end())) {
    throw std::logic_error("host-speed probe: sort failed");
  }
  return std::chrono::duration<double>(t1 - t0).count();
}

double reference_seconds(double host_s, double probe_before_s,
                         double probe_after_s) {
  const double probe_s = 0.5 * (probe_before_s + probe_after_s);
  return probe_s > 0.0 ? host_s * kReferenceProbeS / probe_s : host_s;
}

}  // namespace perfbench

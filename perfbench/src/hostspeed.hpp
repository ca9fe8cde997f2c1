// Host-speed reference for the benchmark's throughput.
//
// On a shared VM the host runs the same single-threaded code 1.5-2x
// slower in some phases than in others (neighbours' load), in phases
// of seconds to minutes, so a run-phase time reads the phase as much as
// the code. The benchmark therefore times a fixed reference kernel,
// which is part of the benchmark and never changes with the simulator,
// between slices of every run phase and restates each slice's host
// time in reference seconds: the time the slice would have taken on a
// host that runs the kernel in kReferenceProbeS. Raw host times are
// reported beside the reference ones.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Seconds one timed pass of HostSpeedProbe takes on the 4-vCPU Xeon VM
/// the benchmark's bounds were set on (about its median there, g++ 12.2,
/// Release). A constant: it only fixes the unit of the reference time.
inline constexpr double kReferenceProbeS = 1.25e-3;

/// The reference kernel: std::sort of a fixed 16384-element
/// pseudo-random array (64 KiB, cache-resident, branchy).
class HostSpeedProbe {
 public:
  HostSpeedProbe();

  /// Sorts a fresh copy of the input once untimed, so the kernel's data
  /// are in cache whatever ran before it, then once timed; returns the
  /// timed pass's host seconds.
  double measure();

 private:
  std::vector<std::uint32_t> input_;
  std::vector<std::uint32_t> work_;
};

/// Restates host seconds measured between two probe passes in reference
/// seconds, using the mean of the two passes.
[[nodiscard]] double reference_seconds(double host_s, double probe_before_s,
                                       double probe_after_s);

}  // namespace perfbench

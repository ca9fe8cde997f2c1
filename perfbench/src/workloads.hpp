// The benchmark's three workloads. Every workload is a batch job over a
// fixed virtual-time input generated from the seed: the simulator
// consumes pre-scheduled arrivals as fast as the host allows.
//
//   pod_saturated  one VPC-VPC pod, 8 cores, 9 Mpps (~80% of capacity),
//                  20 K Zipf flows over 200 tenants, 256 B
//   tier_overload  one VPC-Internet pod, 2 cores, 6 Mpps (~3x CPU
//                  capacity), 250 K flows, zipf 0.5, DPU tier cold-started,
//                  housekeeping and the order oracle on
//   fleet_diurnal  a shortened diurnal fleet scenario (JSON spec file):
//                  2 AZ x 12 gateways, 1 M tenants, an upgrade wave and
//                  two faults; its per-event layer times come from a
//                  traced replica of its first AZ
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "trace.hpp"

namespace perfbench {

enum class Workload {
  kPodSaturated,
  kTierOverload,
  kFleetDiurnal,
  /// The fleet spec's first AZ as a bare chaos harness at the mean
  /// per-gateway rate: the traced stand-in for fleet_diurnal, whose AZs'
  /// loop observer and probes belong to their ConformanceHarness.
  kFleetAzReplica,
};

[[nodiscard]] std::optional<Workload> parse_workload(const std::string& name);
[[nodiscard]] const char* workload_name(Workload w);

struct RunConfig {
  Workload workload = Workload::kPodSaturated;
  std::uint64_t seed = 1;
  /// Shrinks the simulated input to a few milliseconds (tests only).
  bool quick = false;
  std::string fleet_spec_path;
};

/// One repetition of a workload: host timings, the deterministic model
/// outputs and the verdict of its correctness check.
struct RepResult {
  double setup_s = 0.0;    ///< construction before the first event
  double run_s = 0.0;      ///< host time of the run phase
  /// The run phase in reference seconds (hostspeed.hpp); untraced only.
  double ref_run_s = 0.0;
  double probe_s = 0.0;  ///< mean host-speed probe pass; untraced only
  double collect_s = 0.0;  ///< reading the model outputs after the run
  std::uint64_t offered = 0;
  double slo_availability = 1.0;  ///< fleet SLO report (fleet only)
  ModelOutputs model;
  std::string failure;  ///< empty when the correctness check passed
  /// Conservation inputs (single-pod workloads), kept for the self-test.
  PodLedger at_horizon;
  PodLedger drained;
  /// Filled by a traced single-pod repetition.
  std::optional<LayerTimes> layers;
};

/// Runs one repetition. `traced` drives a platform workload through the
/// Tracer; the fleet is always timed at construction, run() and
/// collect() only.
[[nodiscard]] RepResult run_rep(const RunConfig& cfg, bool traced);

/// The configuration whose traced repetitions give `cfg`'s per-layer
/// host times: itself, or the AZ replica for the fleet.
[[nodiscard]] RunConfig traced_config(const RunConfig& cfg);

/// Host ns per packet of Service::process_burst replaying the first
/// `packets` offered packets of the workload's (first) pod (the run
/// passes the number its pods processed) in 32-packet bursts over
/// freshly and identically populated ServiceTables. Platform workloads
/// only.
[[nodiscard]] double service_replay_ns_per_pkt(const RunConfig& cfg,
                                               std::uint64_t packets);

}  // namespace perfbench

// Output checks of the benchmark: packet conservation over a single-pod
// run, and identity of the deterministic model outputs between two runs
// of one seed (repetitions, and traced versus untraced).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Where every offered packet of one pod ended, read from the public
/// counters (PodTelemetry, GwPodStats, BasicPipelineStats).
struct PodLedger {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_rate_limit = 0;
  std::uint64_t dropped_reorder_full = 0;
  std::uint64_t dropped_ring = 0;
  std::uint64_t dropped_service = 0;
  /// Split headers whose payload slot was reclaimed before TX.
  std::uint64_t dropped_payload_gone = 0;
  std::uint64_t blackholed = 0;
  /// Protocol packets consumed by the pod's control plane (not a loss).
  std::uint64_t control_plane = 0;

  /// Packets with a final outcome: delivered, consumed by the control
  /// plane, or exactly one drop.
  [[nodiscard]] std::uint64_t accounted() const {
    return delivered + dropped_rate_limit + dropped_reorder_full +
           dropped_ring + dropped_service + dropped_payload_gone + blackholed +
           control_plane;
  }
};

/// Checks offered = delivered + rate-limit + reorder-full + ring/service
/// drops + payload-gone + blackholed + control plane + in flight, at the
/// horizon. Arrivals stop at the horizon, so the packets in flight there are the ones that reach an
/// outcome during the drain that follows; after the drain none may be
/// left. Returns an empty string when the ledgers balance, else what is
/// wrong. `in_flight` receives the packets in flight at the horizon.
[[nodiscard]] std::string check_conservation(const PodLedger& at_horizon,
                                             const PodLedger& drained,
                                             std::uint64_t& in_flight);

/// Deterministic outputs of one run: named counts plus, for the fleet,
/// the SLO report JSON. Two runs of one seed must agree exactly.
struct ModelOutputs {
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  std::string slo_json;

  void add(std::string name, std::uint64_t value) {
    counts.emplace_back(std::move(name), value);
  }
  /// Value of a named count; 0 when the run does not produce it.
  [[nodiscard]] std::uint64_t get(std::string_view name) const;
  /// One-line JSON object of every count (and the SLO report's size).
  [[nodiscard]] std::string to_json() const;
};

/// Names of every output that differs between `a` and `b` (empty when
/// identical). A count present in one and missing in the other differs.
[[nodiscard]] std::vector<std::string> model_differences(
    const ModelOutputs& a, const ModelOutputs& b);

/// Runs the checkers against deliberately perturbed ledgers and model
/// outputs; returns the number of checker failures (0 = both checkers
/// accept the real data and reject every perturbation).
int self_test(const PodLedger& at_horizon, const PodLedger& drained,
              const ModelOutputs& model);

}  // namespace perfbench

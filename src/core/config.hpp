// JSON experiment configuration: declaratively describe a platform, its
// GW pods and the traffic mix, then run it — the way fleet tooling
// drives gateways, and what `albatross_sim --config file.json` loads.
//
// Schema (all fields optional with sane defaults):
// {
//   "platform": { "tenants": 200, "routes": 20000, "working_set_gb": 4,
//                 "gop": { "enabled": true, "stage1_mpps": 8.0,
//                          "stage2_mpps": 2.0, "pre_meter_mpps": 10.0 } },
//   "pods": [ { "service": "vpc|internet|idc|cloud", "data_cores": 8,
//               "mode": "plb|rss", "drop_flag": true,
//               "reorder_queues": 0, "offload": false,
//               "priority_queues": true } ],
//   "traffic": [
//     { "type": "poisson", "pod": 0, "rate_mpps": 2.0, "flows": 5000,
//       "tenants": 64, "packet_bytes": 256, "zipf": 0.9, "seed": 1 },
//     { "type": "hitter", "pod": 0, "vni": 7,
//       "steps": [[0, 1.0], [50, 3.0]] },          // [ms, Mpps]
//     { "type": "microburst", "pod": 0, "burst_packets": 500,
//       "gap_ms": 10, "burst_rate_mpps": 15 } ],
//   "duration_ms": 100,
//   "order_oracle": true
// }
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/platform.hpp"
#include "core/scenario.hpp"

namespace albatross {

struct ExperimentResult {
  std::vector<ThroughputReport> pods;
  NanoTime duration = NanoTime{0};
};

/// Name -> enum helpers shared by every loader of outside input: this
/// config, the fleet spec and the CLI's --service/--mode flags. Throw
/// std::runtime_error on unknown names.
[[nodiscard]] ServiceKind service_from_name(const std::string& name);
[[nodiscard]] LbMode mode_from_name(const std::string& name);

/// Builds a Platform (+pods) from the config; `pods_out` receives the
/// created pod ids in declaration order. Throws std::runtime_error on
/// unknown service/mode names.
std::unique_ptr<Platform> build_platform_from_json(const JsonValue& cfg,
                                                   std::vector<PodId>& pods_out);

/// Attaches every traffic source in cfg["traffic"] to its pod.
void attach_traffic_from_json(Platform& platform, const JsonValue& cfg,
                              const std::vector<PodId>& pods);

/// Convenience: parse text -> build -> run -> summarize.
/// Throws std::runtime_error on parse errors.
ExperimentResult run_experiment_from_json(std::string_view json_text);

}  // namespace albatross

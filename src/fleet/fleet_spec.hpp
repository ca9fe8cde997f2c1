// Fleet scenario spec: the JSON-loadable description of a gateway fleet
// run, and the one schema for every gateway-harness scenario. A spec
// names the availability zones (each a GatewayChaosHarness: Platform +
// Orchestrator + uplink + BGP proxies), the tenant population (millions
// of VNIs, Zipf-skewed over *tenants*), the diurnal load curve, the
// rolling-upgrade wave and the fault script. `albatross_sim fleet
// --scenario file.json` loads one of these, runs the FleetEngine and
// prints the incident timelines and the availability SLO report. A
// chaos plan is a one-AZ spec whose faults carry "az": 0 (see
// tests/fleet_golden/one_az_crash.json); a flat diurnal curve
// (trough = peak = 1) holds the offered load constant.
//
// Schema (everything optional; the "fleet" wrapper may be omitted):
// {
//   "fleet": {
//     "name": "diurnal-2az", "seed": 1,
//     "horizon_ms": 30000, "tick_ms": 250, "drain_ms": 400,
//     "tenants": 1000000, "tenant_zipf_alpha": 1.05,
//     "local_vnis": 64, "hot_tenants_per_gateway": 2048,
//     "flows_per_gateway": 512, "flow_zipf_alpha": 0.9,
//     "packet_bytes": 256, "total_rate_pps": 400000,
//     "slo_target": 0.999, "service": "vpc",
//     "pod_startup_ms": 10000, "validation_ms": 5000,
//     "diurnal": { "period_ms": 20000, "trough": 0.4, "peak": 1.0,
//                  "points": [ { "at_ms": 0, "mult": 0.4 }, ... ] },
//     "upgrade": { "enabled": true, "start_ms": 4000,
//                  "stagger_ms": 1500, "gateways_per_az": 1 },
//     "azs": [ { "name": "az-a", "pod_sets": 3, "gateways_per_set": 4,
//                "servers": 3, "data_cores": 4, "dual_proxy": true,
//                "diurnal_phase_ms": 0 }, ... ],
//     "faults": [ { "az": -1, "at_ms": 9000, "kind": "pod_crash",
//                   "gateway": 0, "duration_ms": 0, "magnitude": 0 } ]
//   }
// }
// "az": -1 scopes a fault fleet-wide (applied in every AZ); >= 0 pins
// it to one zone. Times are milliseconds in JSON, NanoTime in C++.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "common/json.hpp"
#include "common/types.hpp"
#include "fleet/diurnal.hpp"
#include "gateway/service.hpp"

namespace albatross::fleet {

/// One availability zone: `pod_sets` copies of a `gateways_per_set`
/// role sheet (mirroring AzRequirements so the Fig. 15 cost model
/// prices the same geometry the simulation runs).
struct FleetAzSpec {
  std::string name = "az";
  std::uint16_t pod_sets = 1;
  std::uint16_t gateways_per_set = 4;
  std::uint16_t servers = 2;
  std::uint16_t data_cores = 4;
  bool dual_proxy = true;
  NanoTime diurnal_phase = NanoTime{0};

  [[nodiscard]] std::uint16_t gateways() const {
    return static_cast<std::uint16_t>(pod_sets * gateways_per_set);
  }
};

/// Rolling upgrade wave: starting at `start`, every AZ redeploys its
/// gateways one after another, `stagger` apart, `parallel_per_az` in
/// flight at once. Redeploys ride the make-before-break scale_up path,
/// so a healthy wave causes zero blackhole — the SLO report proves it.
struct FleetUpgradeSpec {
  bool enabled = false;
  NanoTime start = 4 * kSecond;
  NanoTime stagger = 1500 * kMillisecond;
  std::uint16_t parallel_per_az = 1;
};

/// A fault scoped to one AZ (`az` >= 0) or the whole fleet (`az` < 0).
struct FleetFaultSpec {
  std::int32_t az = -1;
  FaultEvent event;
};

struct FleetSpec {
  std::string name = "fleet";
  std::uint64_t seed = 1;
  NanoTime horizon = 30 * kSecond;
  /// Lockstep diurnal slice: source rates are re-set every tick.
  NanoTime tick = 250 * kMillisecond;
  /// Post-horizon drain window (sources quiesced) so the packet-
  /// conservation ledger can run over a settled data plane.
  NanoTime drain = 400 * kMillisecond;

  /// Tenant population (global VNIs). Weights are Zipf(alpha) over
  /// tenant rank; tenants hash-shard across every gateway in the fleet.
  std::uint64_t tenants = 1'000'000;
  double tenant_zipf_alpha = 1.05;
  /// Platform table size per AZ; global tenants fold into local VNIs
  /// 1..local_vnis (the harness tables stay small while the population
  /// math runs at full fleet scale).
  std::uint32_t local_vnis = 64;
  /// Hot-tenant sample kept per gateway for flow construction.
  std::uint32_t hot_tenants_per_gateway = 2048;

  std::uint32_t flows_per_gateway = 512;
  double flow_zipf_alpha = 0.9;
  std::size_t packet_bytes = 256;
  /// Aggregate offered load across the whole fleet at multiplier 1.0;
  /// split per gateway by its tenant weight share.
  double total_rate_pps = 400'000.0;

  double slo_target = 0.999;  ///< availability objective (error budget)
  ServiceKind service = ServiceKind::kVpcVpc;
  NanoTime pod_startup = 10 * kSecond;
  NanoTime validation = 5 * kSecond;

  DiurnalConfig diurnal;
  FleetUpgradeSpec upgrade;
  std::vector<FleetAzSpec> azs;
  std::vector<FleetFaultSpec> faults;

  [[nodiscard]] std::uint32_t total_gateways() const;
  /// Gateway index of `az`'s first gateway in fleet-global numbering.
  [[nodiscard]] std::uint32_t az_gateway_base(std::size_t az) const;

  /// Parses the schema above. Throws std::runtime_error on malformed
  /// input (unknown fault kinds / service names, no AZs).
  static FleetSpec from_json(const JsonValue& v);
  static FleetSpec from_json_text(std::string_view text);
  [[nodiscard]] JsonValue to_json() const;

  /// Small deterministic scenario for tests and the CI smoke job:
  /// 2 AZs x 2 gateways, shortened orchestrator timings, one crash
  /// fault, a rolling upgrade and a 6 s horizon.
  static FleetSpec smoke();
};

}  // namespace albatross::fleet

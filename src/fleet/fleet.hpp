// FleetEngine: multi-AZ, million-tenant cluster simulation. Each AZ is
// a full GatewayChaosHarness (Platform + FPGA NIC + GW pods +
// Orchestrator + uplink switch + BGP proxies + BFD) with its own
// RecoveryController and FaultInjector; the engine layers the fleet
// concerns on top:
//
//  - a TenantPopulation hash-shards millions of Zipf-weighted tenants
//    across every gateway, sizing each pod's offered rate and flow mix;
//  - a DiurnalCurve modulates per-AZ load in diurnal slices;
//  - AZ workers: AZs exchange no traffic (the AZ is the blast-radius
//    unit), so each AZ is built and then run — every slice, its drain
//    and its ledger check — on its own worker thread, up to
//    min(AZ count, hardware threads) at once. An AZ sees exactly the
//    call sequence a sequential engine would give it, owns all of its
//    state, and the results are read in AZ order after every worker
//    joins, so the report and SLO JSON are byte-identical for any
//    thread count. The busiest AZ bounds the speed-up: with enough
//    cores it is at most (AZ count) / (busiest AZ's loop events over
//    the per-AZ mean) — perfbench's fleet.az_event_imbalance;
//  - a rolling upgrade wave redeploys gateways through the
//    orchestrator's make-before-break scale_up path — a healthy wave
//    must cost zero blackhole, and the SLO report proves it;
//  - fault scripts scoped per-AZ or fleet-wide replay through each AZ's
//    injector, with the RecoveryController timelines aggregated into
//    the fleet availability SLO report (fleet/slo.hpp);
//  - a ConformanceHarness per AZ runs the packet-conservation ledger
//    after a post-horizon drain (check_ledger_now — BFD keeps the loop
//    pending forever, so the quiesce-gated finish() path can't run).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chaos/recovery.hpp"
#include "check/fuzz.hpp"
#include "fleet/fleet_spec.hpp"
#include "fleet/slo.hpp"
#include "fleet/tenant_population.hpp"

namespace albatross::fleet {

/// One planned gateway replacement in the rolling-upgrade wave.
struct FleetUpgradeRecord {
  std::uint32_t az = 0;
  std::uint16_t gateway = 0;  ///< AZ-local index
  NanoTime scheduled = NanoTime{0};
  NanoTime ready_at = NanoTime{0};
  NanoTime cutover = NanoTime{0};
  bool started = false;   ///< redeploy ticket issued
  bool completed = false; ///< old placement released at cutover
  bool skipped = false;   ///< gateway was mid-incident / no capacity
};

struct FleetAzResult {
  std::string name;
  std::uint16_t gateways = 0;
  ChaosHarnessCounters counters;
  FaultInjectorStats injected;
  std::vector<IncidentRecord> incidents;
  std::string timeline;  ///< RecoveryController::timeline()
  /// Summed blackhole windows per AZ-local gateway (open incidents
  /// extend to the horizon).
  std::vector<NanoTime> gateway_downtime;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t blackholed = 0;
  std::uint64_t dropped = 0;  ///< rate-limit + reorder-full
  std::uint64_t packets_lost = 0;
  LogHistogram detect_hist;
  LogHistogram blackhole_hist;
  LogHistogram recovery_hist;
  std::uint64_t ledger_violations = 0;
  std::uint64_t upgrades_started = 0;
  std::uint64_t upgrades_completed = 0;
};

struct FleetResult {
  std::vector<FleetAzResult> azs;
  std::vector<FleetUpgradeRecord> upgrades;
  SloReport slo;
  std::uint64_t events_total = 0;
  std::uint64_t conformance_violations = 0;  ///< summed over AZs

  /// Canonical text rendering (timelines + SLO): two same-seed runs
  /// must produce byte-identical output.
  [[nodiscard]] std::string report_text() const;
};

class FleetEngine {
 public:
  /// Builds every AZ, one worker per AZ, then schedules faults and the
  /// upgrade wave. Throws the lowest failing AZ's error (e.g. "chaos
  /// harness: no capacity" when its servers cannot host its gateways).
  explicit FleetEngine(FleetSpec spec);

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  /// Executes the scenario, one worker per AZ: diurnal slices over
  /// `horizon`, then a source-quiesced drain window and the
  /// conservation ledger. Rethrows the lowest failing AZ's exception
  /// once every worker has joined.
  void run();

  /// Aggregates per-AZ results and builds the SLO report. Valid after
  /// run().
  [[nodiscard]] FleetResult collect() const;

  [[nodiscard]] const FleetSpec& spec() const { return spec_; }
  [[nodiscard]] const TenantPopulation& population() const {
    return population_;
  }
  [[nodiscard]] std::size_t az_count() const { return azs_.size(); }
  GatewayChaosHarness& az_harness(std::size_t i) { return *azs_[i].harness; }
  RecoveryController& az_controller(std::size_t i) {
    return *azs_[i].controller;
  }
  [[nodiscard]] const check::ConformanceHarness& az_conformance(
      std::size_t i) const {
    return *azs_[i].conformance;
  }

 private:
  struct AzRuntime {
    FleetAzSpec az_spec;
    std::uint32_t gateway_base = 0;  ///< fleet-global index of gateway 0
    DiurnalCurve curve;
    std::unique_ptr<GatewayChaosHarness> harness;
    std::unique_ptr<RecoveryController> controller;
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<check::ConformanceHarness> conformance;
    std::vector<PoissonFlowSource*> sources;  ///< per local gateway
    std::vector<double> base_rate;            ///< pps at multiplier 1.0
    std::uint64_t ledger_violations = 0;
  };

  /// Runs fn(i) for every AZ index on min(AZ count, hardware threads)
  /// workers (the caller is one of them) pulling indices from a shared
  /// counter. Exceptions are held per AZ; after all workers join, the
  /// lowest-index one is rethrown on the caller.
  void for_each_az(const std::function<void(std::size_t)>& fn);
  void build_az(std::size_t i);
  void run_az(AzRuntime& az);
  void schedule_faults();
  void schedule_upgrades();
  void apply_diurnal(AzRuntime& az, NanoTime t);
  [[nodiscard]] SloReport build_slo(
      const std::vector<FleetAzResult>& azs) const;

  FleetSpec spec_;
  TenantPopulation population_;
  std::vector<AzRuntime> azs_;
  std::vector<FleetUpgradeRecord> upgrades_;
  bool ran_ = false;
};

/// Runs a fleet scenario end to end (ctor + run + collect).
FleetResult run_fleet(const FleetSpec& spec);

/// Shrunk-trace replay bridge: `albatross_sim fleet --scenario x.json`
/// accepts a conformance fuzz trace (detected by its "ops" array) and
/// replays it through check::run_trace, so a scenario the fuzz driver
/// shrank is directly re-runnable from the fleet CLI.
check::FuzzReport run_fleet_trace(const check::FuzzTrace& trace);

}  // namespace albatross::fleet

namespace albatross {
class MetricsRegistry;

/// Wires fleet-level aggregates into a registry: per-AZ incident and
/// packet counters, upgrade progress and the merged recovery
/// histograms. The engine must outlive the registry's scrapes.
void register_fleet_metrics(MetricsRegistry& registry,
                            fleet::FleetEngine& engine);

}  // namespace albatross

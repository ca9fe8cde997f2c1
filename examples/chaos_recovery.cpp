// Chaos & recovery walkthrough: crash a gateway pod under live traffic
// and watch the platform's availability loop close — BFD detects, the
// BGP proxy withdraws the VIP, the orchestrator deploys a replacement
// (10 s elasticity), the replacement re-announces and traffic returns.
//
//   build/examples/example_chaos_recovery
#include <cstdio>

#include "chaos/recovery.hpp"

using namespace albatross;

int main() {
  // Two gateways behind dual BGP proxies; gateway 0 crashes at t=2s and
  // gateway 1 takes a 500 ms link flap at t=8s.
  ChaosHarnessConfig cfg;
  cfg.gateways = 2;
  GatewayChaosHarness harness(cfg);
  for (std::uint16_t g = 0; g < harness.gateway_count(); ++g) {
    harness.attach_background_traffic(g, 50'000.0, 200, 1 + g);
  }

  RecoveryController controller(harness);
  controller.arm();

  FaultPlan plan;
  plan.events.push_back({2 * kSecond, FaultKind::kPodCrash, 0, NanoTime{0}, 0.0});
  plan.events.push_back(
      {8 * kSecond, FaultKind::kLinkFlap, 1, 500 * kMillisecond, 0.0});

  FaultInjector injector(harness.loop(), harness);
  injector.schedule(plan);

  harness.platform().run_until(25 * kSecond);

  std::printf("chaos_recovery: %llu faults injected, %llu incidents, "
              "%llu recovered\n",
              static_cast<unsigned long long>(injector.stats().applied),
              static_cast<unsigned long long>(controller.incidents_opened()),
              static_cast<unsigned long long>(
                  controller.incidents_recovered()));
  for (const auto& inc : controller.incidents()) {
    std::printf(
        "  %-12s gw%u  detect %.1f ms  blackhole %.1f ms  lost %llu pkts"
        "  recovered in %.2f s%s\n",
        std::string(fault_kind_name(inc.kind)).c_str(), inc.gateway,
        static_cast<double>(inc.detect_latency().count()) / 1e6,
        static_cast<double>(inc.blackhole_ns().count()) / 1e6,
        static_cast<unsigned long long>(inc.packets_lost),
        static_cast<double>(inc.recovery_ns().count()) / 1e9,
        inc.redeployed ? "  (replacement pod)" : "");
  }
  std::printf("\ntimeline (deterministic; same plan => same bytes):\n%s",
              controller.timeline().c_str());

  // After recovery the pods are back online: the blackholed counters
  // must be flat from here on.
  const auto lost_before =
      harness.platform().telemetry(harness.pod(0)).blackholed +
      harness.platform().telemetry(harness.pod(1)).blackholed;
  harness.platform().run_until(30 * kSecond);
  const auto lost_after =
      harness.platform().telemetry(harness.pod(0)).blackholed +
      harness.platform().telemetry(harness.pod(1)).blackholed;
  std::printf("\npost-recovery loss: %llu packets (want 0)\n",
              static_cast<unsigned long long>(lost_after - lost_before));
  return lost_after == lost_before ? 0 : 1;
}

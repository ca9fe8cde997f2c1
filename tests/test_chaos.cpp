// Chaos & recovery subsystem tests: fault-kind names, injector timing
// against a mock surface, the end-to-end availability loop (BFD detect
// -> VIP withdraw -> redeploy -> cutover) with its timing bounds,
// false-positive handling and NIC/core fault plumbing. Scenario files
// (a chaos plan is a one-AZ fleet spec) are tested in test_fleet.
#include <gtest/gtest.h>

#include "chaos/recovery.hpp"

namespace albatross {
namespace {

// ------------------------------------------------------------ FaultPlan

TEST(FaultPlan, KindNamesRoundTrip) {
  for (std::size_t i = 0; i < kFaultKindCount; ++i) {
    const auto k = static_cast<FaultKind>(i);
    EXPECT_EQ(fault_kind_from_name(fault_kind_name(k)), k);
  }
  EXPECT_THROW((void)fault_kind_from_name("meteor_strike"),
               std::runtime_error);
}

// ---------------------------------------------------------- FaultInjector

struct MockSurface final : FaultSurface {
  std::vector<std::pair<NanoTime, FaultKind>> applied;
  std::vector<std::pair<NanoTime, FaultKind>> cleared;
  void apply(const FaultEvent& e, NanoTime now) override {
    applied.emplace_back(now, e.kind);
  }
  void clear(const FaultEvent& e, NanoTime now) override {
    cleared.emplace_back(now, e.kind);
  }
};

TEST(FaultInjector, AppliesAtEventTimeAndClearsAfterDuration) {
  EventLoop loop;
  MockSurface surface;
  FaultInjector injector(loop, surface);

  FaultPlan plan;
  plan.events.push_back({kSecond, FaultKind::kPodCrash, 0, NanoTime{0}, 0.0});
  plan.events.push_back(
      {2 * kSecond, FaultKind::kLinkFlap, 1, 300 * kMillisecond, 0.0});
  injector.schedule(plan);
  loop.run_until(5 * kSecond);

  ASSERT_EQ(surface.applied.size(), 2u);
  EXPECT_EQ(surface.applied[0], (std::pair{kSecond, FaultKind::kPodCrash}));
  EXPECT_EQ(surface.applied[1],
            (std::pair{2 * kSecond, FaultKind::kLinkFlap}));
  // Only the bounded fault clears, at at+duration.
  ASSERT_EQ(surface.cleared.size(), 1u);
  EXPECT_EQ(surface.cleared[0],
            (std::pair{2 * kSecond + 300 * kMillisecond,
                       FaultKind::kLinkFlap}));
  EXPECT_EQ(injector.stats().applied, 2u);
  EXPECT_EQ(injector.stats().cleared, 1u);
  EXPECT_EQ(
      injector.stats().by_kind[static_cast<std::size_t>(
          FaultKind::kPodCrash)],
      1u);
}

// ------------------------------------------------- end-to-end recovery

TEST(ChaosRecovery, PodCrashClosesTheLoopWithinBounds) {
  ChaosHarnessConfig cfg;
  cfg.gateways = 2;
  GatewayChaosHarness harness(cfg);
  for (std::uint16_t g = 0; g < harness.gateway_count(); ++g) {
    harness.attach_background_traffic(g, 50'000.0, 100, 1 + g);
  }
  RecoveryController controller(harness);
  controller.arm();

  // Crash after initial BGP convergence so the withdraw exercises the
  // real route-removal path.
  FaultPlan plan;
  plan.events.push_back({8 * kSecond, FaultKind::kPodCrash, 0, NanoTime{0}, 0.0});
  FaultInjector injector(harness.loop(), harness);
  injector.schedule(plan);

  harness.platform().run_until(25 * kSecond);

  ASSERT_EQ(controller.incidents_opened(), 1u);
  ASSERT_EQ(controller.incidents_recovered(), 1u);
  const IncidentRecord& inc = controller.incidents()[0];
  EXPECT_EQ(inc.kind, FaultKind::kPodCrash);
  EXPECT_TRUE(inc.redeployed);
  EXPECT_TRUE(inc.recovered);
  // BFD: 50 ms probes x3 detect_mult => 150 ms detection.
  EXPECT_GE(inc.detect_latency(), 100 * kMillisecond);
  EXPECT_LE(inc.detect_latency(), 200 * kMillisecond);
  // Blackhole ends when the withdraw propagates (shortly after detect).
  EXPECT_GE(inc.blackhole_ns(), inc.detect_latency());
  EXPECT_LE(inc.blackhole_ns(), inc.detect_latency() + 100 * kMillisecond);
  // Loss accrues only during the blackhole: ~50 kpps x ~150 ms.
  EXPECT_GT(inc.packets_lost, 1000u);
  EXPECT_LT(inc.packets_lost, 20'000u);
  // 10 s pod elasticity dominates recovery; the paper-level bound.
  EXPECT_GE(inc.recovery_ns(), 10 * kSecond);
  EXPECT_LT(inc.recovery_ns(), 40 * kSecond);
  EXPECT_EQ(controller.redeploys(), 1u);
  EXPECT_EQ(harness.orchestrator().placements().size(), 2u);

  // Zero loss after cutover.
  const auto mark = harness.platform().telemetry(harness.pod(0)).blackholed;
  harness.platform().run_until(30 * kSecond);
  EXPECT_EQ(harness.platform().telemetry(harness.pod(0)).blackholed, mark);

  // Histograms fed for the metrics exporter.
  EXPECT_EQ(controller.detect_latency_hist().count(), 1u);
  EXPECT_EQ(controller.recovery_hist().count(), 1u);
}

TEST(ChaosRecovery, LinkFlapRecoversWithoutRedeploy) {
  ChaosHarnessConfig cfg;
  cfg.gateways = 1;
  GatewayChaosHarness harness(cfg);
  harness.attach_background_traffic(0, 20'000.0, 50);
  RecoveryController controller(harness);
  controller.arm();

  FaultPlan plan;
  plan.events.push_back(
      {8 * kSecond, FaultKind::kLinkFlap, 0, 400 * kMillisecond, 0.0});
  FaultInjector injector(harness.loop(), harness);
  injector.schedule(plan);
  harness.platform().run_until(12 * kSecond);

  ASSERT_EQ(controller.incidents_recovered(), 1u);
  const IncidentRecord& inc = controller.incidents()[0];
  EXPECT_EQ(inc.kind, FaultKind::kLinkFlap);
  EXPECT_FALSE(inc.redeployed);
  EXPECT_EQ(controller.redeploys(), 0u);
  // Recovery ~= flap duration + BFD re-up + convergence, well under 2 s.
  EXPECT_GE(inc.recovery_ns(), 400 * kMillisecond);
  EXPECT_LT(inc.recovery_ns(), 2 * kSecond);
  EXPECT_GT(inc.packets_lost, 0u);
}

TEST(ChaosRecovery, BfdFalsePositiveLosesNoTraffic) {
  // BFD probes suppressed while the data plane keeps forwarding (§4.3
  // false positive): the controller must withdraw and re-announce, but
  // no packet may be counted lost.
  ChaosHarnessConfig cfg;
  cfg.gateways = 1;
  GatewayChaosHarness harness(cfg);
  harness.attach_background_traffic(0, 20'000.0, 50);
  RecoveryController controller(harness);
  controller.arm();

  FaultPlan plan;
  plan.events.push_back(
      {8 * kSecond, FaultKind::kBfdTimeout, 0, 500 * kMillisecond, 0.0});
  FaultInjector injector(harness.loop(), harness);
  injector.schedule(plan);

  const auto delivered_before_window = [&] {
    return harness.platform().telemetry(harness.pod(0)).delivered;
  };
  harness.platform().run_until(8 * kSecond);
  const auto delivered_at_fault = delivered_before_window();
  harness.platform().run_until(12 * kSecond);

  ASSERT_EQ(controller.incidents_opened(), 1u);
  ASSERT_EQ(controller.incidents_recovered(), 1u);
  EXPECT_EQ(controller.incidents()[0].kind, FaultKind::kBfdTimeout);
  EXPECT_EQ(controller.packets_lost_total(), 0u);
  EXPECT_FALSE(controller.incidents()[0].redeployed);
  // Data plane never stopped.
  EXPECT_GT(harness.platform().telemetry(harness.pod(0)).delivered,
            delivered_at_fault + 10'000u);
  EXPECT_EQ(harness.platform().telemetry(harness.pod(0)).blackholed, 0u);
}

TEST(ChaosRecovery, NicAndCoreFaultsReachTheModules) {
  ChaosHarnessConfig cfg;
  cfg.gateways = 1;
  GatewayChaosHarness harness(cfg);
  harness.attach_background_traffic(0, 100'000.0, 100);

  FaultPlan plan;
  plan.events.push_back(
      {2 * kSecond, FaultKind::kNicDmaError, 0, 50 * kMillisecond, 8.0});
  plan.events.push_back(
      {3 * kSecond, FaultKind::kCoreStall, 0, 10 * kMillisecond, 2.0});
  plan.events.push_back({4 * kSecond, FaultKind::kNicReorderStuck, 0,
                         2 * kMillisecond, 0.0});
  plan.events.push_back({5 * kSecond, FaultKind::kHitterStorm, 0,
                         20 * kMillisecond, 500'000.0});
  FaultInjector injector(harness.loop(), harness);
  injector.schedule(plan);
  harness.platform().run_until(6 * kSecond);

  EXPECT_EQ(injector.stats().applied, 4u);
  EXPECT_EQ(injector.stats().cleared, 4u);
  const PodId pod = harness.pod(0);
  EXPECT_GT(harness.platform().nic().dma_faulted_transfers(pod), 0u);
  EXPECT_EQ(harness.platform().pod(pod).core_stalls(), 2u);
  // The harness stayed up through all of it.
  EXPECT_GT(harness.platform().telemetry(pod).delivered, 100'000u);
}

}  // namespace
}  // namespace albatross

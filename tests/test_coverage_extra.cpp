// Additional behaviour coverage across modules: multi-pod isolation on
// one platform, switch-CPU queueing math, BGP administrative shutdown,
// pipeline latency accounting, orchestrator release accounting, and
// small utility paths.
#include <gtest/gtest.h>

#include "bgp/switch_model.hpp"
#include "container/orchestrator.hpp"
#include "core/platform.hpp"
#include "core/scenario.hpp"
#include "nic/nic_pipeline.hpp"
#include "nic/session_offload.hpp"
#include "traffic/heavy_hitter.hpp"

namespace albatross {
namespace {

TEST(MultiPod, TwoPodsShareOneServerWithoutInterference) {
  PlatformConfig pc;
  Platform platform(pc);
  GwPodConfig a;
  a.service = ServiceKind::kVpcVpc;
  a.data_cores = 2;
  GwPodConfig b;
  b.service = ServiceKind::kVpcInternet;
  b.data_cores = 2;
  b.seed = 777;
  const PodId pod_a = platform.create_pod(a);
  const PodId pod_b = platform.create_pod(b, 0, PktDirConfig{}, LbMode::kRss);

  PoissonFlowConfig ta;
  ta.num_flows = 500;
  ta.rate_pps = 300'000;
  ta.seed = 1;
  platform.attach_source(std::make_unique<PoissonFlowSource>(ta), pod_a);
  PoissonFlowConfig tb;
  tb.num_flows = 500;
  tb.rate_pps = 150'000;
  tb.seed = 2;
  platform.attach_source(std::make_unique<PoissonFlowSource>(tb), pod_b);

  platform.run_until(40 * kMillisecond);

  const auto& tel_a = platform.telemetry(pod_a);
  const auto& tel_b = platform.telemetry(pod_b);
  EXPECT_NEAR(static_cast<double>(tel_a.offered), 12'000, 600);
  EXPECT_NEAR(static_cast<double>(tel_b.offered), 6'000, 400);
  // Per-pod SR-IOV slicing: each pod's packets land only on its own
  // cores and its own reorder engine; only the in-flight tail separates
  // CPU-processed from wire-delivered counts.
  EXPECT_LE(tel_a.delivered, platform.pod(pod_a).stats().processed);
  EXPECT_LT(platform.pod(pod_a).stats().processed - tel_a.delivered, 100u);
  EXPECT_GT(platform.nic().engine(pod_a).total_stats().reserved, 10'000u);
  // Pod B runs RSS: its engine reserved nothing.
  EXPECT_EQ(platform.nic().engine(pod_b).total_stats().reserved, 0u);
  EXPECT_GT(tel_b.delivered, 5'000u);
}

TEST(SwitchCpu, QueueingAndOverloadSlowdown) {
  SwitchConfig cfg;
  cfg.overload_slowdown = 6.0;
  cfg.overload_backlog_threshold = 5 * kSecond;
  SwitchCpu cpu(cfg);
  // Sequential work at the same arrival time serialises.
  const auto t1 = cpu.enqueue(Nanos{0}, kSecond);
  const auto t2 = cpu.enqueue(Nanos{0}, kSecond);
  EXPECT_EQ(t1, kSecond);
  EXPECT_EQ(t2, 2 * kSecond);
  EXPECT_EQ(cpu.backlog(Nanos{0}), 2 * kSecond);
  EXPECT_EQ(cpu.backlog(3 * kSecond), NanoTime{});
  // Beyond the backlog threshold the effective cost inflates 6x.
  for (int i = 0; i < 4; ++i) cpu.enqueue(Nanos{0}, kSecond);  // backlog 6s
  const auto before = cpu.busy_ns();
  cpu.enqueue(Nanos{0}, kSecond);
  EXPECT_EQ(cpu.busy_ns() - before, 6 * kSecond);
  EXPECT_EQ(cpu.messages(), 7u);
}

TEST(BgpSession, AdminStopDoesNotRetry) {
  EventLoop loop;
  BgpSession a(loop, BgpSessionConfig{.asn = 1, .router_id = 1});
  BgpSession b(loop,
               BgpSessionConfig{.asn = 2, .router_id = 2, .passive = true});
  bgp_connect(a, b, kMillisecond, nullptr, nullptr, Nanos{0});
  loop.run_until(20 * kSecond);
  ASSERT_EQ(a.state(), BgpState::kEstablished);

  a.stop(loop.now());
  EXPECT_EQ(a.state(), BgpState::kIdle);
  loop.run_until(loop.now() + 120 * kSecond);
  // Still down: administrative shutdown does not auto-reconnect, and
  // the peer saw the NOTIFICATION (it cycles trying to reconnect).
  EXPECT_EQ(a.state(), BgpState::kIdle);
  EXPECT_GE(b.stats().session_resets, 1u);
}

TEST(NicPipeline, RxPipelineLatencyComposition) {
  NicPipeline nic;
  const auto& t = nic.config().timings;
  EXPECT_EQ(nic.rx_pipeline_latency(/*plb=*/true),
            t.basic_rx_ns() + t.overload_det_rx_ns() + t.plb_rx_ns());
  EXPECT_EQ(nic.rx_pipeline_latency(/*plb=*/false),
            t.basic_rx_ns() + t.overload_det_rx_ns());
  NicPipelineConfig no_gop;
  no_gop.gop_enabled = false;
  NicPipeline nic2(no_gop);
  EXPECT_EQ(nic2.rx_pipeline_latency(false), t.basic_rx_ns());
}

TEST(NicPipeline, DrainExpiredReleasesStrandedEntries) {
  NicPipeline nic;
  nic.register_pod(0,
                   PlbEngineConfig{.num_reorder_queues = 1,
                                   .num_rx_queues = 1,
                                   .reorder_entries = 64,
                                   .reorder_timeout = 100 * kMicrosecond},
                   PktDirConfig{}, LbMode::kPlb);
  auto pkt = Packet::make_synthetic(
      FiveTuple{Ipv4Address{1}, Ipv4Address{2}, 3, 4, IpProto::kUdp}, 1, 128);
  auto r = nic.ingress(std::move(pkt), 0, Nanos{0});
  ASSERT_EQ(r.outcome, IngressOutcome::kDelivered);
  ASSERT_TRUE(nic.next_reorder_deadline(0).has_value());
  // The packet vanishes on the CPU (never written back). After the
  // deadline the drain releases the head with no emission.
  std::vector<EgressEmission> out;
  nic.drain_expired_into(0, 200 * kMicrosecond, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(nic.engine(0).total_stats().timeout_releases, 1u);
  EXPECT_FALSE(nic.next_reorder_deadline(0).has_value());
}

TEST(Orchestrator, ReleaseFreesSriovButKeepsAccounting) {
  Orchestrator orch;
  orch.add_server(ServerSpec{});
  PodSpec spec;
  spec.data_cores = 8;
  const auto p = orch.deploy(spec, Nanos{0});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(orch.placements().size(), 1u);
  EXPECT_TRUE(orch.remove(p->pod));
  EXPECT_EQ(orch.placements().size(), 0u);
  // VFs were released: the same server accepts a fresh pod.
  EXPECT_TRUE(orch.deploy(spec, Nanos{0}).has_value());
}

TEST(Histogram, SummaryFormatting) {
  LogHistogram h;
  h.record(12'300);   // 12.3 us
  h.record(45'600);
  const auto s = h.summary_us();
  EXPECT_NE(s.find("p50="), std::string::npos);
  EXPECT_NE(s.find("max=45.6us"), std::string::npos);
}

TEST(Scenario, FormatAndCapacityHelpers) {
  EXPECT_EQ(format_mpps(128.84), "128.8Mpps");
  EXPECT_EQ(format_mpps(0.0), "0.0Mpps");
  // Flow-affine (RSS) capacity is never lower than sprayed capacity.
  CacheModel cache;
  cache.set_working_set_bytes(4ull << 30);
  EXPECT_GE(core_capacity_mpps(ServiceKind::kVpcVpc, cache, true),
            core_capacity_mpps(ServiceKind::kVpcVpc, cache, false));
}

TEST(HeavyHitter, PoissonModeApproximatesRate) {
  HeavyHitterConfig cfg;
  cfg.flow = make_flow(1, 1, 0);
  cfg.profile = RateProfile{{NanoTime{0}, 10'000.0}};
  cfg.poisson = true;
  HeavyHitterSource src(cfg);
  std::uint64_t n = 0;
  while (true) {
    const auto t = src.next_time();
    if (!t || *t > kSecond) break;
    src.emit();
    ++n;
  }
  EXPECT_NEAR(static_cast<double>(n), 10'000, 400);
}

TEST(GwPodConfigs, NumaBalancingIntegration) {
  // A pod with balancing enabled accumulates stalls under load; one
  // without stays clean (paired via the balancer's private RNG).
  auto run = [](bool balancing) {
    PlatformConfig pc;
    Platform platform(pc);
    GwPodConfig gp;
    gp.data_cores = 1;
    gp.numa_balancing = balancing;
    gp.numa_balancing_scan_period = kMillisecond;
    const PodId pod = platform.create_pod(gp);
    PoissonFlowConfig bg;
    bg.num_flows = 200;
    bg.rate_pps = 1.3e6;  // ~90% of one core
    platform.attach_source(std::make_unique<PoissonFlowSource>(bg), pod);
    platform.run_until(200 * kMillisecond);
    return platform.pod(pod).balancer().stalls();
  };
  EXPECT_EQ(run(false), 0u);
  EXPECT_GT(run(true), 3u);
}

TEST(TrafficMux, EmptyAndExhaustedSources) {
  TrafficMux mux;
  EXPECT_FALSE(mux.next_time().has_value());
  EXPECT_EQ(mux.emit(), nullptr);
  // A source that runs dry leaves the mux empty again.
  HeavyHitterConfig cfg;
  cfg.flow = make_flow(1, 1, 0);
  cfg.profile = RateProfile{{NanoTime{0}, 1000.0}, {10 * kMillisecond, 0.0}};
  mux.add(std::make_unique<HeavyHitterSource>(cfg));
  std::uint64_t n = 0;
  while (mux.next_time().has_value()) {
    mux.emit();
    ++n;
  }
  EXPECT_NEAR(static_cast<double>(n), 10, 2);
  EXPECT_FALSE(mux.next_time().has_value());
}

TEST(PlbEngineExtra, DrainAllCoversEveryQueue) {
  PlbEngine engine(PlbEngineConfig{.num_reorder_queues = 4,
                                   .num_rx_queues = 4,
                                   .reorder_entries = 64,
                                   .reorder_timeout = 10 * kMicrosecond});
  // Strand one packet on several queues by dispatching distinct flows
  // and never writing back.
  int queues_hit = 0;
  for (std::uint16_t port = 0; port < 64 && queues_hit < 3; ++port) {
    FiveTuple t{Ipv4Address{1}, Ipv4Address{2}, port, 80, IpProto::kUdp};
    auto pkt = Packet::make_synthetic(t, 1, 64);
    if (engine.dispatch(*pkt, Nanos{0})) ++queues_hit;
  }
  std::vector<ReorderEgress> out;
  engine.drain_all(1 * kMillisecond, out);  // way past every deadline
  EXPECT_TRUE(out.empty());                 // nothing returned: releases only
  EXPECT_GE(engine.total_stats().timeout_releases, 3u);
  EXPECT_EQ(engine.next_deadline(), NanoTime::max());
}

TEST(SessionOffloadExtra, DefaultGeometryBramBudget) {
  SessionOffload off;
  // 64K sessions x 45B ~= 2.9 MB: comparable to the GOP SRAM budget,
  // i.e. a plausible BRAM allocation for the offload extension.
  EXPECT_EQ(off.bram_bytes(), 65'536u * 45);
  EXPECT_LT(off.bram_bytes(), 4u << 20);
}

}  // namespace
}  // namespace albatross

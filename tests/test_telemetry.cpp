// Metrics registry / exposition tests, plus the IPv6 additions (header
// round-trip, parser, v6 Toeplitz with the published test vectors).
#include <gtest/gtest.h>

#include "chaos/recovery.hpp"
#include "core/scenario.hpp"
#include "packet/parser.hpp"
#include "telemetry/metrics.hpp"

namespace albatross {
namespace {

TEST(Metrics, CountersAndGaugesCollectLive) {
  MetricsRegistry reg;
  double counter = 0;
  reg.register_counter("test_counter", {{"x", "1"}},
                       [&counter] { return counter; }, "help text");
  reg.register_gauge("test_gauge", {}, [] { return 42.5; });
  counter = 7;

  const auto samples = reg.collect();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "test_counter");
  EXPECT_EQ(samples[0].labels.at("x"), "1");
  EXPECT_DOUBLE_EQ(samples[0].value, 7.0);  // live, not registration-time
  EXPECT_DOUBLE_EQ(samples[1].value, 42.5);
}

TEST(Metrics, HistogramExpandsToQuantiles) {
  MetricsRegistry reg;
  LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<std::uint64_t>(i));
  reg.register_histogram("lat", {{"pod", "3"}}, [&h] { return &h; });
  const auto samples = reg.collect();
  // 4 quantiles + count + mean.
  ASSERT_EQ(samples.size(), 6u);
  EXPECT_EQ(samples[0].labels.at("quantile"), "0.5");
  EXPECT_NEAR(samples[0].value, 500, 30);
  EXPECT_EQ(samples[4].name, "lat_count");
  EXPECT_DOUBLE_EQ(samples[4].value, 1000);
}

TEST(Metrics, ExposeFormat) {
  MetricsRegistry reg;
  reg.register_counter("albatross_up", {{"pod", "0"}}, [] { return 1.0; },
                       "liveness");
  const std::string text = reg.expose();
  EXPECT_NE(text.find("# HELP albatross_up liveness"), std::string::npos);
  EXPECT_NE(text.find("# TYPE albatross_up counter"), std::string::npos);
  EXPECT_NE(text.find("albatross_up{pod=\"0\"} 1"), std::string::npos);
}

TEST(Metrics, InterleavedRegistrationGetsOneHeaderPerName) {
  // Per-AZ registration: each AZ registers the same names in turn.
  MetricsRegistry reg;
  for (const char* az : {"az-a", "az-b", "az-c"}) {
    reg.register_counter("x_incidents_total", {{"az", az}},
                         [] { return 1.0; }, "incidents");
    reg.register_gauge("x_offline", {{"az", az}}, [] { return 0.0; });
  }
  const std::string text = reg.expose();
  EXPECT_EQ(text,
            "# HELP x_incidents_total incidents\n"
            "# TYPE x_incidents_total counter\n"
            "x_incidents_total{az=\"az-a\"} 1\n"
            "x_incidents_total{az=\"az-b\"} 1\n"
            "x_incidents_total{az=\"az-c\"} 1\n"
            "# TYPE x_offline gauge\n"
            "x_offline{az=\"az-a\"} 0\n"
            "x_offline{az=\"az-b\"} 0\n"
            "x_offline{az=\"az-c\"} 0\n");
}

TEST(Metrics, PlatformRegistrationCoversPodsAndGop) {
  auto s = SinglePodScenario::make(ServiceKind::kVpcVpc, 2, LbMode::kPlb);
  PoissonFlowConfig bg;
  bg.num_flows = 100;
  bg.rate_pps = 100'000;
  s.platform->attach_source(std::make_unique<PoissonFlowSource>(bg), s.pod);
  s.platform->run_until(20 * kMillisecond);

  MetricsRegistry reg;
  register_platform_metrics(reg, *s.platform);
  EXPECT_GE(reg.size(), 10u);
  const auto samples = reg.collect();
  double offered = -1, delivered = -1, hit_rate = -1;
  for (const auto& m : samples) {
    if (m.name == "albatross_pod_offered_packets") offered = m.value;
    if (m.name == "albatross_pod_delivered_packets") delivered = m.value;
    if (m.name == "albatross_cache_l3_hit_rate") hit_rate = m.value;
  }
  EXPECT_GT(offered, 1000);
  EXPECT_GT(delivered, 1000);
  EXPECT_LE(delivered, offered);
  EXPECT_GT(hit_rate, 0.2);
  EXPECT_LT(hit_rate, 0.6);
}

TEST(Metrics, ChaosRegistrationExportsIncidentCountersAndHistograms) {
  ChaosHarnessConfig cfg;
  cfg.gateways = 1;
  GatewayChaosHarness harness(cfg);
  harness.attach_background_traffic(0, 20'000.0, 50);
  RecoveryController controller(harness);
  controller.arm();
  FaultPlan plan;
  plan.events.push_back({8 * kSecond, FaultKind::kPodCrash, 0, NanoTime{0}, 0.0});
  FaultInjector injector(harness.loop(), harness);
  injector.schedule(plan);

  MetricsRegistry reg;
  register_platform_metrics(reg, harness.platform());
  register_chaos_metrics(reg, controller, &injector);

  harness.platform().run_until(9 * kSecond);  // crash detected + withdrawn
  const std::string text = reg.expose();
  for (const char* name :
       {"albatross_chaos_incidents_total", "albatross_chaos_redeploys_total",
        "albatross_chaos_packets_lost_total",
        "albatross_chaos_detect_latency_ns", "albatross_chaos_blackhole_ns",
        "albatross_chaos_recovery_ns", "albatross_chaos_faults_injected",
        "albatross_pod_blackholed_packets", "albatross_pod_offline"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  EXPECT_NE(text.find("albatross_chaos_incidents_total 1"),
            std::string::npos);
  EXPECT_NE(text.find("albatross_chaos_faults_injected 1"),
            std::string::npos);
  EXPECT_NE(text.find("albatross_pod_offline{pod=\"0\"} 1"),
            std::string::npos);

  // Values are live: once the replacement cuts over, the incident
  // histograms are fed and the offline gauge drops back to 0.
  harness.platform().run_until(25 * kSecond);
  const std::string after = reg.expose();
  EXPECT_NE(after.find("albatross_chaos_incidents_recovered 1"),
            std::string::npos);
  EXPECT_NE(after.find("albatross_pod_offline{pod=\"0\"} 0"),
            std::string::npos);
  EXPECT_NE(after.find("albatross_chaos_recovery_ns_count 1"),
            std::string::npos);
}

// ------------------------------------------------------------------ IPv6

Ipv6Address v6(std::initializer_list<std::uint8_t> prefix) {
  Ipv6Address a{};
  std::size_t i = 0;
  for (auto b : prefix) a.bytes[i++] = b;
  return a;
}

TEST(Ipv6, HeaderRoundTrip) {
  Ipv6Header h;
  h.traffic_class = 0xa5;
  h.flow_label = 0xabcde;
  h.payload_length = 1024;
  h.next_header = IpProto::kTcp;
  h.hop_limit = 17;
  h.src = v6({0x20, 0x01, 0x0d, 0xb8, 1});
  h.dst = v6({0x20, 0x01, 0x0d, 0xb8, 2});
  std::uint8_t buf[Ipv6Header::kSize];
  h.write(buf);
  const auto r = Ipv6Header::read(buf, sizeof buf);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->traffic_class, 0xa5);
  EXPECT_EQ(r->flow_label, 0xabcdeu);
  EXPECT_EQ(r->payload_length, 1024);
  EXPECT_EQ(r->next_header, IpProto::kTcp);
  EXPECT_EQ(r->hop_limit, 17);
  EXPECT_EQ(r->src, h.src);
  EXPECT_EQ(r->dst, h.dst);
  buf[0] = 0x45;  // version 4
  EXPECT_FALSE(Ipv6Header::read(buf, sizeof buf).has_value());
}

TEST(Ipv6, ParserHandlesNativeV6Udp) {
  const auto src = v6({0x20, 0x01, 0x0d, 0xb8, 0, 1});
  const auto dst = v6({0x20, 0x01, 0x0d, 0xb8, 0, 2});
  auto pkt = build_udp6_packet(src, dst, 5000, 6000);
  const auto p = parse_packet(pkt->bytes());
  ASSERT_TRUE(p.has_value());
  ASSERT_TRUE(p->ipv6.has_value());
  EXPECT_EQ(p->ipv6->src, src);
  EXPECT_EQ(p->l4_src, 5000);
  EXPECT_EQ(p->l4_dst, 6000);
  // The folded flow key is stable and direction-sensitive.
  const auto t1 = p->flow_tuple();
  const auto p2 = parse_packet(build_udp6_packet(src, dst, 5000, 6000)->bytes());
  EXPECT_EQ(p2->flow_tuple(), t1);
  const auto rev =
      parse_packet(build_udp6_packet(dst, src, 6000, 5000)->bytes());
  EXPECT_NE(rev->flow_tuple(), t1);
}

// Microsoft's published IPv6-with-TCP verification vectors.
TEST(Ipv6, ToeplitzV6MatchesPublishedVectors) {
  // dst 3ffe:2501:200:3::1 port 1766, src 3ffe:2501:200:1fff::7 port 2794
  Ipv6Address dst{};
  dst.bytes = {0x3f, 0xfe, 0x25, 0x01, 0x02, 0x00, 0x00, 0x03,
               0, 0, 0, 0, 0, 0, 0, 0x01};
  Ipv6Address src{};
  src.bytes = {0x3f, 0xfe, 0x25, 0x01, 0x02, 0x00, 0x1f, 0xff,
               0, 0, 0, 0, 0, 0, 0, 0x07};
  EXPECT_EQ(rss_hash_v6(src, dst, 2794, 1766), 0x40207d3du);

  // dst ff02::1 port 4739, src 3ffe:501:8::260:97ff:fe40:efab port 14230
  Ipv6Address dst2{};
  dst2.bytes = {0xff, 0x02, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x01};
  Ipv6Address src2{};
  src2.bytes = {0x3f, 0xfe, 0x05, 0x01, 0x00, 0x08, 0x00, 0x00,
                0x02, 0x60, 0x97, 0xff, 0xfe, 0x40, 0xef, 0xab};
  EXPECT_EQ(rss_hash_v6(src2, dst2, 14230, 4739), 0xdde51bbfu);
}

}  // namespace
}  // namespace albatross

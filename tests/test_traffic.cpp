// Traffic-generator tests: rates, flow identity, profiles, bursts.
#include <gtest/gtest.h>

#include "traffic/flow_gen.hpp"
#include "traffic/heavy_hitter.hpp"
#include "traffic/microburst.hpp"
#include "traffic/tenant_gen.hpp"

namespace albatross {
namespace {

/// Drains a source until `until`, returning packet count and a rate.
std::uint64_t drain_until(TrafficSource& src, NanoTime until) {
  std::uint64_t n = 0;
  while (true) {
    const auto t = src.next_time();
    if (!t || *t > until) break;
    auto pkt = src.emit();
    EXPECT_NE(pkt, nullptr);
    ++n;
  }
  return n;
}

TEST(PoissonFlowSource, RateIsRespected) {
  PoissonFlowConfig cfg;
  cfg.num_flows = 1000;
  cfg.rate_pps = 1e6;
  PoissonFlowSource src(cfg);
  const auto n = drain_until(src, 100 * kMillisecond);
  EXPECT_NEAR(static_cast<double>(n), 1e5, 3e3);
}

TEST(PoissonFlowSource, DeterministicSpacingWhenConfigured) {
  PoissonFlowConfig cfg;
  cfg.rate_pps = 1000;
  cfg.poisson = false;
  PoissonFlowSource src(cfg);
  const auto t1 = *src.next_time();
  src.emit();
  const auto t2 = *src.next_time();
  EXPECT_EQ(t2 - t1, kMillisecond);
}

TEST(PoissonFlowSource, FlowsCarryConsistentIdentity) {
  PoissonFlowConfig cfg;
  cfg.num_flows = 50;
  cfg.tenants = 5;
  cfg.rate_pps = 1e6;
  PoissonFlowSource src(cfg);
  for (int i = 0; i < 1000; ++i) {
    auto pkt = src.emit();
    ASSERT_NE(pkt, nullptr);
    ASSERT_LT(pkt->flow_id, 50u);
    const FlowInfo& f = src.flows()[pkt->flow_id];
    EXPECT_EQ(pkt->tuple, f.tuple);
    EXPECT_EQ(pkt->vni, f.vni);
    EXPECT_GE(pkt->vni, 1u);
    EXPECT_LE(pkt->vni, 5u);
  }
}

TEST(PoissonFlowSource, PerFlowSequencesAreMonotonic) {
  PoissonFlowConfig cfg;
  cfg.num_flows = 10;
  cfg.rate_pps = 1e6;
  PoissonFlowSource src(cfg);
  std::vector<std::uint64_t> last(10, 0);
  for (int i = 0; i < 2000; ++i) {
    auto pkt = src.emit();
    if (pkt->seq_in_flow != 0) {
      EXPECT_GT(pkt->seq_in_flow, last[pkt->flow_id]);
    }
    last[pkt->flow_id] = pkt->seq_in_flow;
  }
}

TEST(PoissonFlowSource, SetRateZeroExhausts) {
  PoissonFlowConfig cfg;
  cfg.rate_pps = 1000;
  PoissonFlowSource src(cfg);
  src.set_rate(0);
  EXPECT_FALSE(src.next_time().has_value());
}

TEST(PoissonFlowSource, RejectsAnEmptyFlowPopulation) {
  PoissonFlowConfig cfg;
  cfg.num_flows = 0;
  EXPECT_THROW(PoissonFlowSource{cfg}, std::runtime_error);
  EXPECT_THROW((PoissonFlowSource{PoissonFlowConfig{}, {}}),
               std::runtime_error);
}

TEST(RateProfile, PiecewiseLookups) {
  RateProfile p{{NanoTime{0}, 100.0}, {10 * kSecond, 0.0}, {20 * kSecond, 50.0}};
  EXPECT_DOUBLE_EQ(p.rate_at(Nanos{0}), 100.0);
  EXPECT_DOUBLE_EQ(p.rate_at(5 * kSecond), 100.0);
  EXPECT_DOUBLE_EQ(p.rate_at(15 * kSecond), 0.0);
  EXPECT_DOUBLE_EQ(p.rate_at(25 * kSecond), 50.0);
  EXPECT_EQ(p.next_change(Nanos{0}), 10 * kSecond);
  EXPECT_EQ(p.next_change(12 * kSecond), 20 * kSecond);
  EXPECT_FALSE(p.next_change(30 * kSecond).has_value());
  RateProfile empty;
  EXPECT_DOUBLE_EQ(empty.rate_at(Nanos{1}), 0.0);
}

TEST(HeavyHitterSource, FollowsProfile) {
  HeavyHitterConfig cfg;
  cfg.flow = make_flow(99, 7, 0);
  cfg.profile = RateProfile{{NanoTime{0}, 1000.0}, {kSecond, 10000.0}};
  HeavyHitterSource src(cfg);
  // First second: ~1000 packets; second second: ~10000.
  std::uint64_t first = 0, second = 0;
  while (true) {
    const auto t = src.next_time();
    if (!t || *t > 2 * kSecond) break;
    (*t <= kSecond ? first : second) += 1;
    src.emit();
  }
  EXPECT_NEAR(static_cast<double>(first), 1000, 5);
  EXPECT_NEAR(static_cast<double>(second), 10000, 15);
}

TEST(HeavyHitterSource, ZeroRateSegmentsSkipped) {
  HeavyHitterConfig cfg;
  cfg.flow = make_flow(1, 1, 0);
  cfg.profile =
      RateProfile{{NanoTime{0}, 0.0}, {kSecond, 100.0}, {2 * kSecond, 0.0}};
  HeavyHitterSource src(cfg);
  const auto first = src.next_time();
  ASSERT_TRUE(first.has_value());
  EXPECT_GT(*first, kSecond);
  const auto n = drain_until(src, 10 * kSecond);
  EXPECT_NEAR(static_cast<double>(n), 100, 3);
  EXPECT_FALSE(src.next_time().has_value());
}

TEST(MicroburstSource, BurstsAreClustered) {
  MicroburstConfig cfg;
  cfg.mean_burst_gap = 10 * kMillisecond;
  cfg.mean_burst_packets = 100;
  cfg.burst_rate_pps = 10e6;
  MicroburstSource src(cfg);
  // Collect inter-arrival gaps; they must be bimodal: 100ns in-burst
  // spacing vs multi-ms gaps.
  std::uint64_t small_gaps = 0, big_gaps = 0;
  auto prev = *src.next_time();
  src.emit();
  for (int i = 0; i < 5000; ++i) {
    const auto t = *src.next_time();
    ((t - prev) < 10 * kMicrosecond ? small_gaps : big_gaps) += 1;
    prev = t;
    src.emit();
  }
  EXPECT_GT(small_gaps, big_gaps * 10);
  EXPECT_GT(src.bursts_started(), 10u);
}

TEST(MicroburstSource, SingleFlowBurstsStickToOneFlow) {
  MicroburstConfig cfg;
  cfg.single_flow_bursts = true;
  cfg.mean_burst_packets = 50;
  MicroburstSource src(cfg);
  // Packets within one burst share the flow id.
  auto first = src.emit();
  const auto id = first->flow_id;
  int same = 0;
  for (int i = 0; i < 20; ++i) {
    auto pkt = src.emit();
    if (pkt->flow_id == id) ++same;
  }
  EXPECT_GT(same, 10);
}

TEST(TenantTrafficSource, RatesPerTenant) {
  std::vector<TenantSpec> tenants;
  for (Vni v = 1; v <= 4; ++v) {
    TenantSpec t;
    t.vni = v;
    // Fig. 13 setup (scaled 1/1000): 4/3/2/1 Kpps.
    t.profile = RateProfile{{NanoTime{0}, static_cast<double>(5 - v) * 1000.0}};
    tenants.push_back(t);
  }
  TenantTrafficSource src(std::move(tenants), NanoTime{});
  drain_until(src, kSecond);
  EXPECT_NEAR(static_cast<double>(src.emitted(1)), 4000, 10);
  EXPECT_NEAR(static_cast<double>(src.emitted(2)), 3000, 10);
  EXPECT_NEAR(static_cast<double>(src.emitted(3)), 2000, 10);
  EXPECT_NEAR(static_cast<double>(src.emitted(4)), 1000, 10);
  EXPECT_EQ(src.emitted(99), 0u);
}

TEST(TrafficMux, MergesInTimeOrder) {
  auto mk = [](double pps, std::uint64_t seed) {
    PoissonFlowConfig cfg;
    cfg.rate_pps = pps;
    cfg.seed = seed;
    cfg.num_flows = 4;
    return std::make_unique<PoissonFlowSource>(cfg);
  };
  TrafficMux mux;
  mux.add(mk(1000, 1));
  mux.add(mk(2000, 2));
  NanoTime prev = NanoTime{0};
  std::uint64_t n = 0;
  while (true) {
    const auto t = mux.next_time();
    if (!t || *t > kSecond) break;
    EXPECT_GE(*t, prev);
    prev = *t;
    mux.emit();
    ++n;
  }
  EXPECT_NEAR(static_cast<double>(n), 3000, 200);
}

}  // namespace
}  // namespace albatross

// Fleet engine tests: scenario spec round-trip, diurnal curve math,
// million-tenant population sharding, the LogHistogram / weighted-
// quantile percentile edges the SLO report depends on, fault scoping,
// and the end-to-end smoke scenario (determinism, conservation, the
// failover envelope and the zero-blackhole upgrade wave), and the AZ
// workers' contract: output byte-identical to the sequential engine's
// goldens, and an AZ's build error surfacing on the caller.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "check/testseed.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "fleet/fleet.hpp"
#include "telemetry/metrics.hpp"

namespace albatross {
namespace {

// --- scenario spec -------------------------------------------------------

TEST(FleetSpec, JsonRoundTrip) {
  const fleet::FleetSpec spec = fleet::FleetSpec::smoke();
  const fleet::FleetSpec back = fleet::FleetSpec::from_json(spec.to_json());

  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.horizon, spec.horizon);
  EXPECT_EQ(back.tick, spec.tick);
  EXPECT_EQ(back.drain, spec.drain);
  EXPECT_EQ(back.tenants, spec.tenants);
  EXPECT_DOUBLE_EQ(back.tenant_zipf_alpha, spec.tenant_zipf_alpha);
  EXPECT_EQ(back.local_vnis, spec.local_vnis);
  EXPECT_EQ(back.hot_tenants_per_gateway, spec.hot_tenants_per_gateway);
  EXPECT_EQ(back.flows_per_gateway, spec.flows_per_gateway);
  EXPECT_DOUBLE_EQ(back.total_rate_pps, spec.total_rate_pps);
  EXPECT_DOUBLE_EQ(back.slo_target, spec.slo_target);
  EXPECT_EQ(back.pod_startup, spec.pod_startup);
  EXPECT_EQ(back.validation, spec.validation);
  EXPECT_EQ(back.diurnal.period, spec.diurnal.period);
  EXPECT_DOUBLE_EQ(back.diurnal.trough, spec.diurnal.trough);
  EXPECT_DOUBLE_EQ(back.diurnal.peak, spec.diurnal.peak);
  EXPECT_EQ(back.upgrade.enabled, spec.upgrade.enabled);
  EXPECT_EQ(back.upgrade.start, spec.upgrade.start);
  EXPECT_EQ(back.upgrade.stagger, spec.upgrade.stagger);
  EXPECT_EQ(back.upgrade.parallel_per_az, spec.upgrade.parallel_per_az);

  ASSERT_EQ(back.azs.size(), spec.azs.size());
  for (std::size_t i = 0; i < spec.azs.size(); ++i) {
    EXPECT_EQ(back.azs[i].name, spec.azs[i].name);
    EXPECT_EQ(back.azs[i].pod_sets, spec.azs[i].pod_sets);
    EXPECT_EQ(back.azs[i].gateways_per_set, spec.azs[i].gateways_per_set);
    EXPECT_EQ(back.azs[i].servers, spec.azs[i].servers);
    EXPECT_EQ(back.azs[i].dual_proxy, spec.azs[i].dual_proxy);
    EXPECT_EQ(back.azs[i].diurnal_phase, spec.azs[i].diurnal_phase);
  }
  ASSERT_EQ(back.faults.size(), spec.faults.size());
  for (std::size_t i = 0; i < spec.faults.size(); ++i) {
    EXPECT_EQ(back.faults[i].az, spec.faults[i].az);
    EXPECT_EQ(back.faults[i].event.at, spec.faults[i].event.at);
    EXPECT_EQ(back.faults[i].event.kind, spec.faults[i].event.kind);
    EXPECT_EQ(back.faults[i].event.gateway, spec.faults[i].event.gateway);
  }
  EXPECT_EQ(back.total_gateways(), spec.total_gateways());
}

TEST(FleetSpec, ParsesWrapperAndMsFields) {
  const std::string text = R"({
    "fleet": {
      "name": "mini", "seed": 7, "horizon_ms": 2000, "tick_ms": 100,
      "tenants": 5000, "local_vnis": 8,
      "upgrade": { "enabled": true, "start_ms": 500, "stagger_ms": 200,
                   "gateways_per_az": 2 },
      "azs": [ { "name": "a", "pod_sets": 2, "gateways_per_set": 3 } ],
      "faults": [ { "az": -1, "at_ms": 900, "kind": "link_flap",
                    "gateway": 1, "duration_ms": 50 } ]
    }
  })";
  const fleet::FleetSpec spec = fleet::FleetSpec::from_json_text(text);
  EXPECT_EQ(spec.name, "mini");
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.horizon, 2 * kSecond);
  EXPECT_EQ(spec.tick, 100 * kMillisecond);
  EXPECT_EQ(spec.tenants, 5000u);
  ASSERT_EQ(spec.azs.size(), 1u);
  EXPECT_EQ(spec.azs[0].gateways(), 6u);
  EXPECT_EQ(spec.total_gateways(), 6u);
  EXPECT_TRUE(spec.upgrade.enabled);
  EXPECT_EQ(spec.upgrade.parallel_per_az, 2u);
  ASSERT_EQ(spec.faults.size(), 1u);
  EXPECT_EQ(spec.faults[0].az, -1);
  EXPECT_EQ(spec.faults[0].event.kind, FaultKind::kLinkFlap);
  EXPECT_EQ(spec.faults[0].event.duration, 50 * kMillisecond);
}

TEST(FleetSpec, RejectsMalformedScenarios) {
  EXPECT_THROW((void)fleet::FleetSpec::from_json_text("not json"),
               std::runtime_error);
  // No AZs at all.
  EXPECT_THROW((void)fleet::FleetSpec::from_json_text(R"({"azs": []})"),
               std::runtime_error);
  // A fault pinned to an AZ that does not exist.
  EXPECT_THROW((void)fleet::FleetSpec::from_json_text(R"({
    "azs": [ { "name": "a" } ],
    "faults": [ { "az": 3, "at_ms": 1, "kind": "pod_crash" } ]
  })"),
               std::runtime_error);
  // Unknown fault kind propagates from fault_kind_from_name.
  EXPECT_THROW((void)fleet::FleetSpec::from_json_text(R"({
    "azs": [ { "name": "a" } ],
    "faults": [ { "az": 0, "at_ms": 1, "kind": "gamma_ray" } ]
  })"),
               std::runtime_error);
}

// --- diurnal curve -------------------------------------------------------

TEST(Diurnal, CosineTroughPeakAndWrap) {
  fleet::DiurnalConfig cfg;
  cfg.period = 8 * kSecond;
  cfg.trough = 0.4;
  cfg.peak = 1.0;
  const fleet::DiurnalCurve curve(cfg);

  EXPECT_NEAR(curve.multiplier(NanoTime{0}), 0.4, 1e-9);
  EXPECT_NEAR(curve.multiplier(4 * kSecond), 1.0, 1e-9);
  EXPECT_NEAR(curve.multiplier(2 * kSecond), 0.7, 1e-9);  // midpoint
  // Wraps modulo the period.
  EXPECT_NEAR(curve.multiplier(8 * kSecond), curve.multiplier(NanoTime{0}),
              1e-9);
  EXPECT_NEAR(curve.multiplier(13 * kSecond), curve.multiplier(5 * kSecond),
              1e-9);
  // Closed-form mean of a raised cosine is the midpoint.
  EXPECT_NEAR(curve.mean_multiplier(), 0.7, 1e-9);
}

TEST(Diurnal, PhaseShiftsTheCurve) {
  fleet::DiurnalConfig cfg;
  cfg.period = 8 * kSecond;
  cfg.phase = 4 * kSecond;  // half a period: peak lands at t = 0
  const fleet::DiurnalCurve curve(cfg);
  EXPECT_NEAR(curve.multiplier(NanoTime{0}), cfg.peak, 1e-9);
  EXPECT_NEAR(curve.multiplier(4 * kSecond), cfg.trough, 1e-9);
}

TEST(Diurnal, PiecewisePointsInterpolateAndWrap) {
  fleet::DiurnalConfig cfg;
  cfg.period = 8 * kSecond;
  cfg.points = {{NanoTime{0}, 0.5}, {4 * kSecond, 1.0}};
  const fleet::DiurnalCurve curve(cfg);

  EXPECT_NEAR(curve.multiplier(NanoTime{0}), 0.5, 1e-9);
  EXPECT_NEAR(curve.multiplier(2 * kSecond), 0.75, 1e-9);
  EXPECT_NEAR(curve.multiplier(4 * kSecond), 1.0, 1e-9);
  // Past the last point the curve wraps back toward the first.
  EXPECT_NEAR(curve.multiplier(6 * kSecond), 0.75, 1e-9);
  // Trapezoid mean of the symmetric ramp.
  EXPECT_NEAR(curve.mean_multiplier(), 0.75, 1e-9);
}

// --- tenant population ---------------------------------------------------

TEST(TenantPopulation, ShardsEveryTenantExactlyOnce) {
  const std::uint64_t seed = check::test_seed(42);
  const fleet::TenantPopulation pop(10'000, 1.05, seed, 8, 64);

  double share_sum = 0.0;
  std::uint64_t count_sum = 0;
  for (std::uint32_t g = 0; g < pop.gateway_count(); ++g) {
    share_sum += pop.gateway_share(g);
    count_sum += pop.gateway_tenant_count(g);
    const auto& hot = pop.tenants_for_gateway(g);
    EXPECT_LE(hot.size(), 64u);
    // Ids are assigned in weight order, so the sample is ascending and
    // therefore heaviest-first.
    for (std::size_t i = 1; i < hot.size(); ++i) {
      EXPECT_LT(hot[i - 1], hot[i]);
    }
    for (const std::uint64_t t : hot) EXPECT_EQ(pop.gateway(t), g);
  }
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
  EXPECT_EQ(count_sum, 10'000u);
}

TEST(TenantPopulation, ZipfWeightsDecreaseWithRank) {
  const fleet::TenantPopulation pop(1000, 1.2, 1, 4, 16);
  EXPECT_GT(pop.weight(0), pop.weight(1));
  EXPECT_GT(pop.weight(1), pop.weight(10));
  EXPECT_GT(pop.weight(10), pop.weight(999));
  EXPECT_GT(pop.weight(0), 0.0);
  EXPECT_LT(pop.weight(0), 1.0);
}

TEST(TenantPopulation, DeterministicForSameSeed) {
  const fleet::TenantPopulation a(5000, 1.05, 99, 6, 32);
  const fleet::TenantPopulation b(5000, 1.05, 99, 6, 32);
  const fleet::TenantPopulation c(5000, 1.05, 100, 6, 32);
  bool differs_from_c = false;
  for (std::uint32_t g = 0; g < 6; ++g) {
    EXPECT_DOUBLE_EQ(a.gateway_share(g), b.gateway_share(g));
    EXPECT_EQ(a.gateway_tenant_count(g), b.gateway_tenant_count(g));
    EXPECT_EQ(a.tenants_for_gateway(g), b.tenants_for_gateway(g));
    differs_from_c |= a.tenants_for_gateway(g) != c.tenants_for_gateway(g);
  }
  EXPECT_TRUE(differs_from_c);  // a different seed shards differently
}

// --- shared Zipf / alias sampler (satellite: factored into common) ------

TEST(ZipfAlias, SamplerDelegatesToSharedAlias) {
  const std::size_t n = 1024;
  const double alpha = 0.9;
  const ZipfSampler zipf(n, alpha);
  const AliasSampler alias(ZipfSampler::rank_weights(n, alpha));

  double pmf_sum = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    EXPECT_DOUBLE_EQ(zipf.pmf(r), alias.pmf(r));
    pmf_sum += zipf.pmf(r);
  }
  EXPECT_NEAR(pmf_sum, 1.0, 1e-9);

  // One uniform per draw, identical streams => identical ranks.
  Rng r1(check::test_seed(7));
  Rng r2(check::test_seed(7));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(zipf.sample(r1), alias.pick(r2.next_double()));
  }
}

// --- percentile math the SLO report is built on --------------------------

TEST(HistogramEdge, EmptyHistogramQuantilesAreZero) {
  const LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.quantile(0.999), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.fraction_above(0), 0.0);
}

TEST(HistogramEdge, SingleBucketEveryQuantileIsTheValue) {
  LogHistogram h;
  h.record(5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.quantile(0.0), 5u);
  EXPECT_EQ(h.quantile(0.5), 5u);
  EXPECT_EQ(h.quantile(0.99), 5u);
  EXPECT_EQ(h.quantile(0.999), 5u);
  EXPECT_EQ(h.quantile(1.0), 5u);
}

TEST(HistogramEdge, P99AndP999AtBucketEdges) {
  // 990 fast samples + 10 slow ones: p99 sits exactly on the edge of
  // the fast bucket (ceil(0.99 * 1000) = 990), p999 crosses into the
  // slow one.
  LogHistogram h;
  h.record_n(1, 990);
  h.record_n(1'000'000, 10);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.quantile(0.5), 1u);
  EXPECT_EQ(h.quantile(0.99), 1u);
  EXPECT_EQ(h.quantile(0.991), 1'000'000u);
  EXPECT_EQ(h.quantile(0.999), 1'000'000u);
  EXPECT_EQ(h.quantile(1.0), 1'000'000u);
  EXPECT_DOUBLE_EQ(h.fraction_above(1), 0.01);
}

TEST(WeightedQuantile, Edges) {
  using fleet::WeightedSample;
  using fleet::weighted_quantile;

  EXPECT_DOUBLE_EQ(weighted_quantile({}, 0.5), 0.0);

  // A single sample answers every q with its value.
  const std::vector<WeightedSample> one = {{7.5, 3.0}};
  for (const double q : {-1.0, 0.0, 0.5, 0.999, 1.0, 2.0}) {
    EXPECT_DOUBLE_EQ(weighted_quantile(one, q), 7.5);
  }

  // Two equal-weight samples: the cumulative edge belongs to the lower
  // value (cumulative weight >= q * total).
  const std::vector<WeightedSample> two = {{2.0, 1.0}, {1.0, 1.0}};
  EXPECT_DOUBLE_EQ(weighted_quantile(two, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(weighted_quantile(two, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(weighted_quantile(two, 0.51), 2.0);
  EXPECT_DOUBLE_EQ(weighted_quantile(two, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(weighted_quantile(two, 1.0), 2.0);

  // Skewed weights: the heavy sample dominates the high quantiles.
  const std::vector<WeightedSample> skew = {{10.0, 0.01}, {1.0, 0.99}};
  EXPECT_DOUBLE_EQ(weighted_quantile(skew, 0.99), 1.0);
  EXPECT_DOUBLE_EQ(weighted_quantile(skew, 0.995), 10.0);

  // All-zero weights degrade to the smallest value, not a crash.
  const std::vector<WeightedSample> zero = {{4.0, 0.0}, {2.0, 0.0}};
  EXPECT_DOUBLE_EQ(weighted_quantile(zero, 0.5), 2.0);
}

// --- fault scoping -------------------------------------------------------

TEST(FleetEngine, AzScopedFaultStaysInItsZone) {
  fleet::FleetSpec spec = fleet::FleetSpec::smoke();
  spec.seed = check::test_seed(spec.seed);
  spec.upgrade.enabled = false;
  spec.faults.clear();
  fleet::FleetFaultSpec crash;
  crash.az = 0;
  crash.event.at = 2 * kSecond;
  crash.event.kind = FaultKind::kPodCrash;
  crash.event.gateway = 0;
  spec.faults.push_back(crash);

  const fleet::FleetResult result = fleet::run_fleet(spec);
  ASSERT_EQ(result.azs.size(), 2u);
  EXPECT_EQ(result.azs[0].injected.applied, 1u);
  EXPECT_EQ(result.azs[1].injected.applied, 0u);
  EXPECT_GE(result.azs[0].incidents.size(), 1u);
  EXPECT_EQ(result.azs[1].incidents.size(), 0u);
}

TEST(FleetEngine, FleetWideFaultLandsInEveryZone) {
  fleet::FleetSpec spec = fleet::FleetSpec::smoke();
  spec.seed = check::test_seed(spec.seed);
  spec.upgrade.enabled = false;
  spec.faults.clear();
  fleet::FleetFaultSpec crash;
  crash.az = -1;
  crash.event.at = 2 * kSecond;
  crash.event.kind = FaultKind::kPodCrash;
  crash.event.gateway = 1;
  spec.faults.push_back(crash);

  const fleet::FleetResult result = fleet::run_fleet(spec);
  for (const auto& az : result.azs) {
    EXPECT_EQ(az.injected.applied, 1u) << az.name;
    EXPECT_GE(az.incidents.size(), 1u) << az.name;
  }
}

// --- end-to-end smoke: determinism, conservation, SLO math ---------------

TEST(FleetEngine, SmokeRunIsDeterministicAndConserving) {
  fleet::FleetSpec spec = fleet::FleetSpec::smoke();
  spec.seed = check::test_seed(spec.seed);

  const fleet::FleetResult a = fleet::run_fleet(spec);
  const fleet::FleetResult b = fleet::run_fleet(spec);

  // Byte-identical canonical report and SLO JSON across same-seed runs.
  EXPECT_EQ(a.report_text(), b.report_text());
  EXPECT_EQ(a.slo.to_json().dump(), b.slo.to_json().dump());
  EXPECT_EQ(a.events_total, b.events_total);

  // Packet conservation holds in every AZ after the drain.
  EXPECT_EQ(a.conformance_violations, 0u);
  for (const auto& az : a.azs) {
    EXPECT_EQ(az.ledger_violations, 0u) << az.name;
    EXPECT_GT(az.offered, 0u) << az.name;
    EXPECT_GT(az.delivered, 0u) << az.name;
  }

  // The scripted crash opened and recovered an incident.
  EXPECT_GE(a.slo.incidents, 1u);
  EXPECT_GE(a.slo.recovered, 1u);
  EXPECT_GT(a.slo.availability, 0.0);
  EXPECT_LE(a.slo.availability, 1.0);

  // The upgrade wave actually ran.
  std::size_t started = 0;
  for (const auto& u : a.upgrades) started += u.started ? 1 : 0;
  EXPECT_GE(started, 1u);
}

TEST(FleetEngine, FailoverEnvelopeAndSloConsistency) {
  fleet::FleetSpec spec = fleet::FleetSpec::smoke();
  spec.seed = check::test_seed(spec.seed);
  const fleet::FleetResult result = fleet::run_fleet(spec);
  const fleet::SloReport& slo = result.slo;

  // The crash incident obeys the failover-bench envelope: BFD-scale
  // detection, sub-second blackhole, recovery inside the shortened
  // orchestrator timings (1 s startup + 0.5 s validation << 5 s).
  std::size_t crashes = 0;
  for (const auto& az : result.azs) {
    for (const auto& inc : az.incidents) {
      if (inc.kind != FaultKind::kPodCrash) continue;
      ++crashes;
      EXPECT_TRUE(inc.recovered);
      EXPECT_TRUE(inc.redeployed);
      EXPECT_LT(inc.detect_latency(), kSecond);
      EXPECT_LT(inc.blackhole_ns(), kSecond);
      EXPECT_LT(inc.recovery_ns(), 5 * kSecond);
    }
  }
  EXPECT_GE(crashes, 1u);

  // Availability must equal the per-gateway roll-up it claims to be:
  // 1 - sum_g share_g * downtime_g / horizon.
  const double horizon_ms = nanos_to_millis(spec.horizon);
  double weighted_down = 0.0;
  for (const auto& gw : slo.per_gateway) {
    weighted_down += gw.share * gw.downtime_ms;
  }
  EXPECT_NEAR(slo.availability, 1.0 - weighted_down / horizon_ms, 1e-9);
  EXPECT_NEAR(slo.error_budget_burn,
              (1.0 - slo.availability) / (1.0 - slo.slo_target), 1e-9);
  EXPECT_EQ(slo.slo_met, slo.availability >= slo.slo_target);
  EXPECT_EQ(slo.gateways, spec.total_gateways());
  EXPECT_EQ(slo.tenants, spec.tenants);
}

TEST(FleetEngine, HealthyUpgradeWaveBlackholesNothing) {
  fleet::FleetSpec spec = fleet::FleetSpec::smoke();
  spec.seed = check::test_seed(spec.seed);
  spec.faults.clear();  // upgrades only, no scripted faults

  const fleet::FleetResult result = fleet::run_fleet(spec);

  std::size_t started = 0;
  std::size_t completed = 0;
  for (const auto& u : result.upgrades) {
    started += u.started ? 1 : 0;
    completed += u.completed ? 1 : 0;
  }
  EXPECT_GE(started, 1u);
  EXPECT_GE(completed, 1u);

  // Make-before-break: no incidents, no downtime, full availability.
  EXPECT_EQ(result.slo.incidents, 0u);
  EXPECT_EQ(result.slo.packets_lost, 0u);
  EXPECT_DOUBLE_EQ(result.slo.availability, 1.0);
  EXPECT_TRUE(result.slo.slo_met);
  for (const auto& az : result.azs) {
    EXPECT_EQ(az.ledger_violations, 0u) << az.name;
  }
}

TEST(FleetEngine, MetricsRegistryExportsFleetAggregates) {
  fleet::FleetSpec spec = fleet::FleetSpec::smoke();
  spec.seed = check::test_seed(spec.seed);
  fleet::FleetEngine engine(spec);
  engine.run();

  MetricsRegistry registry;
  register_fleet_metrics(registry, engine);
  EXPECT_GT(registry.size(), 0u);
  const std::string text = registry.expose();
  EXPECT_NE(text.find("fleet_incidents_opened"), std::string::npos);
  EXPECT_NE(text.find("fleet_packets_lost"), std::string::npos);
  EXPECT_NE(text.find("az-a"), std::string::npos);
  EXPECT_NE(text.find("az-b"), std::string::npos);
}

// --- AZ workers: thread-count-invariant output, error propagation -------

std::string read_golden(const std::string& file) {
  std::ifstream in(std::string(ALBATROSS_FLEET_GOLDEN_DIR) + "/" + file);
  EXPECT_TRUE(in.good()) << "missing golden " << file;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// tests/fleet_golden/<name>.report.txt and .slo.json were written by the
// sequential engine (AZs built and run one after another on one thread)
// via `albatross_sim fleet --scenario <name>.json --out <name>.slo.json`.
// ci_smoke is the CI fleet-smoke spec; three_az_uneven has AZs of 1, 6
// and 3 gateways, so its workers finish out of AZ order.
TEST(FleetEngine, ReportAndSloMatchSequentialGoldens) {
  for (const std::string name : {"ci_smoke", "three_az_uneven"}) {
    SCOPED_TRACE(name);
    const fleet::FleetSpec spec =
        fleet::FleetSpec::from_json_text(read_golden(name + ".json"));
    const fleet::FleetResult result = fleet::run_fleet(spec);
    EXPECT_EQ(result.report_text(), read_golden(name + ".report.txt"));
    EXPECT_EQ(result.slo.to_json().dump() + "\n",
              read_golden(name + ".slo.json"));
  }
}

TEST(FleetEngine, AzBuildErrorReachesTheCaller) {
  // One server holds 16 six-core gateway pods (2 NUMA nodes x 48
  // cores), so the second AZ's 17th gateway finds no capacity: its
  // worker throws, and the constructor must rethrow that error on the
  // caller (a throw escaping a worker thread would std::terminate).
  fleet::FleetSpec spec = fleet::FleetSpec::smoke();
  spec.azs[1].gateways_per_set = 17;
  spec.azs[1].servers = 1;
  try {
    fleet::FleetEngine engine(spec);
    ADD_FAILURE() << "an AZ without capacity was built";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no capacity"), std::string::npos)
        << e.what();
  }
}

// --- shrunk-trace replay bridge ------------------------------------------

TEST(FleetTraceReplay, MatchesCheckRunTrace) {
  const check::FuzzTrace trace =
      check::generate_trace(check::test_seed(11), 400, check::ChaosMode::kNone);
  const check::FuzzReport direct = check::run_trace(trace);
  const check::FuzzReport bridged = fleet::run_fleet_trace(trace);

  EXPECT_EQ(bridged.violations, direct.violations);
  EXPECT_EQ(bridged.packets, direct.packets);
  EXPECT_EQ(bridged.offered, direct.offered);
  EXPECT_EQ(bridged.delivered, direct.delivered);
  EXPECT_EQ(bridged.events, direct.events);
  EXPECT_EQ(bridged.ledger_checked, direct.ledger_checked);
  EXPECT_EQ(bridged.ledger, direct.ledger);
}

}  // namespace
}  // namespace albatross

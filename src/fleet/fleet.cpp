#include "fleet/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <sstream>
#include <thread>

#include "common/hash.hpp"
#include "container/cost_model.hpp"
#include "telemetry/metrics.hpp"
#include "traffic/flow_gen.hpp"

namespace albatross::fleet {

namespace {

/// Floor for the diurnal multiplier: a source whose rate hits zero
/// stops pumping permanently (PoissonFlowSource contract), so the
/// trough is clamped strictly positive until the final drain.
constexpr double kMinMultiplier = 0.01;

std::uint64_t gateway_seed(std::uint64_t fleet_seed, std::uint32_t global_g) {
  return mix64(fleet_seed ^ (0x66CEE7u + std::uint64_t{global_g} *
                                             0x9e3779b97f4a7c15ull));
}

}  // namespace

FleetEngine::FleetEngine(FleetSpec spec)
    : spec_(std::move(spec)),
      population_(spec_.tenants, spec_.tenant_zipf_alpha, spec_.seed,
                  spec_.total_gateways(), spec_.hot_tenants_per_gateway) {
  azs_.resize(spec_.azs.size());
  for_each_az([this](std::size_t i) { build_az(i); });
  schedule_faults();
  if (spec_.upgrade.enabled) schedule_upgrades();
}

void FleetEngine::for_each_az(const std::function<void(std::size_t)>& fn) {
  // Shared-state audit this relies on: spec_ and population_ are
  // read-only; upgrades_ is sized before run() and each record is
  // written only by its own AZ's events; schedule_faults() and
  // schedule_upgrades() run on the caller after the build; PacketBuf's
  // pool is thread_local, and src/ holds no other mutable static (the
  // albatross-lint shared-static rule keeps it that way).
  const std::size_t n = azs_.size();
  const std::size_t workers = std::max<std::size_t>(
      1, std::min<std::size_t>(n, std::thread::hardware_concurrency()));
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(n);
  const auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    try {
      threads.emplace_back(work);
    } catch (...) {
      break;  // no thread to spare: the running workers drain every AZ
    }
  }
  work();  // the caller is worker 0
  for (auto& t : threads) t.join();
  // The lowest failing AZ's error, as the sequential build would report.
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void FleetEngine::build_az(std::size_t i) {
  AzRuntime& az = azs_[i];
  az.az_spec = spec_.azs[i];
  az.gateway_base = spec_.az_gateway_base(i);
  DiurnalConfig curve_cfg = spec_.diurnal;
  curve_cfg.phase = curve_cfg.phase + az.az_spec.diurnal_phase;
  az.curve = DiurnalCurve(curve_cfg);

  ChaosHarnessConfig hc;
  hc.gateways = az.az_spec.gateways();
  hc.service = spec_.service;
  hc.data_cores = az.az_spec.data_cores;
  hc.dual_proxy = az.az_spec.dual_proxy;
  hc.servers = az.az_spec.servers;
  hc.platform.tenants = std::max(spec_.local_vnis, 16u);
  hc.orch.pod_startup = spec_.pod_startup;
  hc.orch.handover_validation = spec_.validation;
  az.harness = std::make_unique<GatewayChaosHarness>(hc);

  // Conformance probes attach before traffic so the ledger sees every
  // packet from the first arrival.
  az.conformance = std::make_unique<check::ConformanceHarness>();
  az.conformance->attach(az.harness->platform());

  // Per-gateway traffic: flow populations drawn from the gateway's
  // hot-tenant sample (heaviest global tenants that shard here), rate
  // sized by its share of the fleet's Zipf mass.
  const std::uint16_t gw_count = az.harness->gateway_count();
  az.sources.reserve(gw_count);
  az.base_rate.reserve(gw_count);
  for (std::uint16_t g = 0; g < gw_count; ++g) {
    const std::uint32_t global_g = az.gateway_base + g;
    const auto& hot = population_.tenants_for_gateway(global_g);
    std::vector<FlowInfo> flows;
    flows.reserve(spec_.flows_per_gateway);
    for (std::uint32_t f = 0; f < spec_.flows_per_gateway; ++f) {
      const std::uint64_t tenant =
          hot.empty() ? global_g : hot[f % hot.size()];
      const Vni vni = 1 + static_cast<Vni>(tenant % spec_.local_vnis);
      flows.push_back(make_flow(f, vni, f));
    }

    PoissonFlowConfig pc;
    pc.tenants = spec_.local_vnis;
    pc.zipf_alpha = spec_.flow_zipf_alpha;
    pc.rate_pps =
        std::max(1.0, spec_.total_rate_pps *
                          population_.gateway_share(global_g)) *
        std::max(kMinMultiplier, az.curve.multiplier(NanoTime{0}));
    pc.packet_bytes = spec_.packet_bytes;
    pc.seed = gateway_seed(spec_.seed, global_g);

    az.base_rate.push_back(
        std::max(1.0, spec_.total_rate_pps *
                          population_.gateway_share(global_g)));
    auto src = std::make_unique<PoissonFlowSource>(pc, std::move(flows));
    az.sources.push_back(src.get());
    az.harness->platform().attach_source(std::move(src),
                                         az.harness->pod(g));
  }

  az.controller =
      std::make_unique<RecoveryController>(*az.harness, RecoveryConfig{});
  az.controller->arm();
  az.injector =
      std::make_unique<FaultInjector>(az.harness->loop(), *az.harness);
}

void FleetEngine::schedule_faults() {
  // Group the spec's faults into one plan per AZ ("az": -1 lands in
  // every zone, with the event's gateway read as an AZ-local index).
  for (std::size_t i = 0; i < azs_.size(); ++i) {
    FaultPlan plan;
    plan.name = spec_.name + "/" + azs_[i].az_spec.name;
    for (const auto& f : spec_.faults) {
      if (f.az >= 0 && static_cast<std::size_t>(f.az) != i) continue;
      plan.events.push_back(f.event);
    }
    if (plan.events.empty()) continue;
    plan.sort();
    azs_[i].injector->schedule(plan);
  }
}

void FleetEngine::schedule_upgrades() {
  // Rolling wave: within each AZ, gateways upgrade `parallel_per_az` at
  // a time, waves `stagger` apart; every AZ rolls concurrently (the
  // usual production pattern — an AZ is the blast-radius unit).
  const std::uint16_t par = std::max<std::uint16_t>(
      1, spec_.upgrade.parallel_per_az);
  for (std::size_t i = 0; i < azs_.size(); ++i) {
    AzRuntime& az = azs_[i];
    for (std::uint16_t g = 0; g < az.harness->gateway_count(); ++g) {
      const NanoTime at =
          spec_.upgrade.start + (g / par) * spec_.upgrade.stagger;
      if (at >= spec_.horizon) continue;
      const std::size_t rec_idx = upgrades_.size();
      FleetUpgradeRecord rec;
      rec.az = static_cast<std::uint32_t>(i);
      rec.gateway = g;
      rec.scheduled = at;
      upgrades_.push_back(rec);
      az.harness->loop().schedule_at(at, [this, i, g, rec_idx] {
        AzRuntime& azr = azs_[i];
        FleetUpgradeRecord& r = upgrades_[rec_idx];
        const NanoTime now = azr.harness->loop().now();
        if (!azr.harness->alive(g)) {
          // Mid-incident: the RecoveryController already owns this
          // gateway's replacement; skip the planned roll.
          r.skipped = true;
          return;
        }
        const auto ticket = azr.harness->redeploy(g, now);
        if (!ticket) {
          r.skipped = true;  // no spare capacity
          return;
        }
        r.started = true;
        r.ready_at = ticket->placement.ready_at;
        r.cutover = ticket->cutover;
        azr.harness->loop().schedule_at(
            ticket->cutover, [this, i, rec_idx,
                              old = ticket->old_orch_pod] {
              azs_[i].harness->finish_redeploy(old);
              upgrades_[rec_idx].completed = true;
            });
      });
    }
  }
}

void FleetEngine::apply_diurnal(AzRuntime& az, NanoTime t) {
  const double mult = std::max(kMinMultiplier, az.curve.multiplier(t));
  for (std::uint16_t g = 0; g < az.harness->gateway_count(); ++g) {
    az.sources[g]->set_rate(az.base_rate[g] * mult);
  }
}

void FleetEngine::run() {
  for_each_az([this](std::size_t i) { run_az(azs_[i]); });
  ran_ = true;
}

void FleetEngine::run_az(AzRuntime& az) {
  for (NanoTime t = NanoTime{0}; t < spec_.horizon; t += spec_.tick) {
    apply_diurnal(az, t);
    az.harness->platform().run_until(std::min(t + spec_.tick, spec_.horizon));
  }

  // Drain: quiesce every source (rate 0 parks the pump permanently —
  // only legal here, after the horizon) and let in-flight packets land
  // so the conservation ledger balances. BFD timers keep the loop
  // pending forever, hence check_ledger_now instead of finish()'s
  // quiesce-gated path.
  for (auto* src : az.sources) src->set_rate(0.0);
  az.harness->platform().run_until(spec_.horizon + spec_.drain);
  az.conformance->finish();  // reorder-leak checks (ledger skipped)
  az.ledger_violations = az.conformance->check_ledger_now();
}

FleetResult FleetEngine::collect() const {
  FleetResult result;
  result.upgrades = upgrades_;
  for (const auto& az : azs_) {
    FleetAzResult r;
    r.name = az.az_spec.name;
    r.gateways = az.harness->gateway_count();
    r.counters = az.harness->counters();
    r.injected = az.injector->stats();
    r.incidents = az.controller->incidents();
    r.timeline = az.controller->timeline();
    r.detect_hist = az.controller->detect_latency_hist();
    r.blackhole_hist = az.controller->blackhole_hist();
    r.recovery_hist = az.controller->recovery_hist();
    r.packets_lost = az.controller->packets_lost_total();
    r.ledger_violations = az.ledger_violations;

    r.gateway_downtime.assign(r.gateways, NanoTime{0});
    for (const auto& inc : r.incidents) {
      // Downtime = the blackhole window (fault -> upstream reroute);
      // an incident never withdrawn by the horizon stays black to the
      // end.
      const NanoTime until = inc.withdrawn_at != NanoTime{}
                                 ? inc.withdrawn_at
                                 : spec_.horizon;
      if (until > inc.fault_at) {
        r.gateway_downtime[inc.gateway] += until - inc.fault_at;
      }
    }

    for (std::uint16_t g = 0; g < r.gateways; ++g) {
      const PodTelemetry& tel =
          az.harness->platform().telemetry(az.harness->pod(g));
      r.offered += tel.offered;
      r.delivered += tel.delivered;
      r.blackholed += tel.blackholed;
      r.dropped += tel.dropped_rate_limit + tel.dropped_reorder_full;
    }
    result.events_total += az.harness->loop().events_processed();
    result.conformance_violations += az.ledger_violations;

    for (const auto& u : upgrades_) {
      if (&azs_[u.az] != &az) continue;
      if (u.started) ++r.upgrades_started;
      if (u.completed) ++r.upgrades_completed;
    }
    result.azs.push_back(std::move(r));
  }
  result.slo = build_slo(result.azs);
  return result;
}

SloReport FleetEngine::build_slo(const std::vector<FleetAzResult>& azs) const {
  SloReport slo;
  slo.fleet = spec_.name;
  slo.seed = spec_.seed;
  slo.horizon_ms = nanos_to_millis(spec_.horizon);
  slo.slo_target = spec_.slo_target;
  slo.tenants = spec_.tenants;
  slo.gateways = spec_.total_gateways();

  const double horizon_ms = slo.horizon_ms;
  AzCostModel cost_model;
  std::vector<WeightedSample> by_load;
  std::vector<WeightedSample> by_count;
  double downtime_weighted_ms = 0.0;  ///< sum share_g * downtime_g
  double worst_ms = 0.0;
  double tenants_meeting = 0.0;
  double tenants_total = 0.0;

  for (std::size_t i = 0; i < azs.size(); ++i) {
    const FleetAzResult& r = azs[i];
    const std::uint32_t base = spec_.az_gateway_base(i);

    AzSlo az;
    az.name = r.name;
    az.gateways = r.gateways;
    az.pod_sets = spec_.azs[i].pod_sets;
    az.incidents = r.incidents.size();
    for (const auto& inc : r.incidents) {
      if (inc.recovered) ++az.recovered;
      if (inc.redeployed) ++az.redeploys;
    }
    az.upgrades = r.upgrades_started;
    az.offered = r.offered;
    az.delivered = r.delivered;
    az.blackholed = r.blackholed;
    az.packets_lost = r.packets_lost;
    az.blackhole_p99_ms =
        static_cast<double>(r.blackhole_hist.quantile(0.99)) / 1e6;
    az.blackhole_p999_ms =
        static_cast<double>(r.blackhole_hist.quantile(0.999)) / 1e6;
    az.detect_p99_ms =
        static_cast<double>(r.detect_hist.quantile(0.99)) / 1e6;
    az.recovery_p99_ms =
        static_cast<double>(r.recovery_hist.quantile(0.99)) / 1e6;

    // Fig. 15 pricing at this AZ's actual pod-set count: each pod set
    // stands for one paper role sheet, so the fleet bench, the Fig. 15
    // bench and this report all go through one AzCostModel path.
    AzRequirements req;
    req.pod_sets = az.pod_sets;
    const AzCostReport alb = cost_model.albatross_az(req);
    const AzCostReport legacy = cost_model.legacy_az(req);
    az.cost = alb.total_cost;
    az.power_w = alb.total_power_w;
    az.cost_legacy = legacy.total_cost;
    az.power_legacy_w = legacy.total_power_w;

    double az_share = 0.0;
    double az_downtime_weighted = 0.0;
    for (std::uint16_t g = 0; g < r.gateways; ++g) {
      const std::uint32_t global_g = base + g;
      const double share = population_.gateway_share(global_g);
      const double tenant_count = static_cast<double>(
          population_.gateway_tenant_count(global_g));
      const double down_ms = nanos_to_millis(r.gateway_downtime[g]);

      az.downtime_ms_total += down_ms;
      az.worst_gateway_downtime_ms =
          std::max(az.worst_gateway_downtime_ms, down_ms);
      worst_ms = std::max(worst_ms, down_ms);
      az_share += share;
      az_downtime_weighted += share * down_ms;
      downtime_weighted_ms += share * down_ms;
      by_load.push_back({down_ms, share});
      by_count.push_back({down_ms, tenant_count});
      tenants_total += tenant_count;
      const double avail_g = horizon_ms > 0.0
                                 ? 1.0 - down_ms / horizon_ms
                                 : 1.0;
      if (avail_g >= spec_.slo_target) tenants_meeting += tenant_count;

      GatewaySlo gw;
      gw.global_index = global_g;
      gw.az = r.name;
      gw.downtime_ms = down_ms;
      gw.share = share;
      gw.tenant_count = population_.gateway_tenant_count(global_g);
      const PodTelemetry& tel =
          azs_[i].harness->platform().telemetry(azs_[i].harness->pod(g));
      gw.offered = tel.offered;
      gw.delivered = tel.delivered;
      gw.blackholed = tel.blackholed;
      slo.per_gateway.push_back(gw);
    }
    az.availability =
        az_share > 0.0 && horizon_ms > 0.0
            ? 1.0 - (az_downtime_weighted / az_share) / horizon_ms
            : 1.0;

    slo.incidents += az.incidents;
    slo.recovered += az.recovered;
    slo.redeploys += az.redeploys;
    slo.upgrades += r.upgrades_started;
    slo.offered += r.offered;
    slo.delivered += r.delivered;
    slo.blackholed += r.blackholed;
    slo.packets_lost += r.packets_lost;
    slo.cost_total += az.cost;
    slo.power_total_w += az.power_w;
    slo.cost_legacy_total += az.cost_legacy;
    slo.power_legacy_total_w += az.power_legacy_w;
    slo.azs.push_back(std::move(az));
  }

  slo.availability =
      horizon_ms > 0.0 ? 1.0 - downtime_weighted_ms / horizon_ms : 1.0;
  slo.error_budget_burn =
      spec_.slo_target < 1.0
          ? (1.0 - slo.availability) / (1.0 - spec_.slo_target)
          : (slo.availability < 1.0 ? 1.0 : 0.0);
  slo.slo_met = slo.availability >= spec_.slo_target;
  slo.delivery_ratio =
      slo.offered > 0 ? static_cast<double>(slo.delivered) /
                            static_cast<double>(slo.offered)
                      : 1.0;

  slo.tenant.downtime_p50_ms = weighted_quantile(by_load, 0.50);
  slo.tenant.downtime_p99_ms = weighted_quantile(by_load, 0.99);
  slo.tenant.downtime_p999_ms = weighted_quantile(by_load, 0.999);
  slo.tenant.count_p50_ms = weighted_quantile(by_count, 0.50);
  slo.tenant.count_p99_ms = weighted_quantile(by_count, 0.99);
  slo.tenant.count_p999_ms = weighted_quantile(by_count, 0.999);
  slo.tenant.worst_ms = worst_ms;
  slo.tenant.fraction_meeting_slo =
      tenants_total > 0.0 ? tenants_meeting / tenants_total : 1.0;
  return slo;
}

std::string FleetResult::report_text() const {
  std::ostringstream os;
  os << slo.text();
  os << "upgrades: " << upgrades.size() << " planned";
  std::size_t started = 0, completed = 0, skipped = 0;
  for (const auto& u : upgrades) {
    if (u.started) ++started;
    if (u.completed) ++completed;
    if (u.skipped) ++skipped;
  }
  os << ", " << started << " started, " << completed << " completed, "
     << skipped << " skipped\n";
  os << "conformance: " << conformance_violations << " violations, "
     << events_total << " loop events\n";
  for (const auto& az : azs) {
    os << "--- incident timeline [" << az.name << "] ---\n" << az.timeline;
  }
  return os.str();
}

FleetResult run_fleet(const FleetSpec& spec) {
  FleetEngine engine(spec);
  engine.run();
  return engine.collect();
}

check::FuzzReport run_fleet_trace(const check::FuzzTrace& trace) {
  return check::run_trace(trace);
}

}  // namespace albatross::fleet

namespace albatross {

void register_fleet_metrics(MetricsRegistry& registry,
                            fleet::FleetEngine& engine) {
  for (std::size_t i = 0; i < engine.az_count(); ++i) {
    const Labels labels{{"az", engine.spec().azs[i].name}};
    auto& harness = engine.az_harness(i);
    auto& controller = engine.az_controller(i);
    registry.register_counter(
        "fleet_incidents_opened", labels,
        [&controller] {
          return static_cast<double>(controller.incidents_opened());
        },
        "incidents opened in this AZ");
    registry.register_counter(
        "fleet_incidents_recovered", labels,
        [&controller] {
          return static_cast<double>(controller.incidents_recovered());
        },
        "incidents recovered in this AZ");
    registry.register_counter(
        "fleet_redeploys", labels,
        [&harness] {
          return static_cast<double>(harness.counters().redeploys);
        },
        "replacement pods deployed (crash recovery + planned upgrades)");
    registry.register_counter(
        "fleet_packets_lost", labels,
        [&controller] {
          return static_cast<double>(controller.packets_lost_total());
        },
        "packets blackholed inside incident windows");
    registry.register_histogram(
        "fleet_blackhole_ns", labels,
        [&controller] { return &controller.blackhole_hist(); },
        "per-incident blackhole duration");
    registry.register_histogram(
        "fleet_recovery_ns", labels,
        [&controller] { return &controller.recovery_hist(); },
        "per-incident total recovery duration");
  }
}

}  // namespace albatross

#include "workloads.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "chaos/harness.hpp"
#include "check/trace_gen.hpp"
#include "common/hash.hpp"
#include "common/histogram.hpp"
#include "dpu/dpu_tier.hpp"
#include "fleet/fleet.hpp"
#include "gateway/service.hpp"
#include "hostspeed.hpp"

namespace perfbench {

using namespace albatross;

namespace {

/// Slices of an untraced platform run phase, each followed by a
/// host-speed probe measurement (two kernel passes, about 3 ms).
constexpr int kRunSlices = 16;

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

fleet::FleetSpec load_fleet_spec(const RunConfig& cfg) {
  std::ifstream in(cfg.fleet_spec_path);
  if (!in) {
    throw std::runtime_error("cannot read fleet spec " + cfg.fleet_spec_path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  fleet::FleetSpec spec = fleet::FleetSpec::from_json_text(text.str());
  spec.seed = cfg.seed;
  if (cfg.quick) {
    // Keeps the first fault and the first upgrades, drops the rest.
    spec.horizon = 5 * kSecond;
    spec.total_rate_pps /= 10.0;
  }
  return spec;
}

/// The input of one platform run: geometry, per-pod traffic (pod i gets
/// seed + i) and the virtual-time input length.
struct PlatformShape {
  PlatformConfig platform;
  GwPodConfig pod;
  /// Set: the pods are this chaos harness's gateways (BGP proxies, BFD
  /// and the orchestrator run too); unset: one pod on a bare Platform.
  std::optional<ChaosHarnessConfig> az;
  PoissonFlowConfig traffic;
  bool tiered = false;
  NanoTime horizon = NanoTime{0};
  /// Post-horizon window with no arrivals: every packet in flight at
  /// the horizon reaches its outcome (rings hold ~1 ms of work, the
  /// reorder timeout is 100 us).
  NanoTime drain = 5 * kMillisecond;
};

PlatformShape platform_shape(const RunConfig& cfg) {
  PlatformShape s;
  s.platform.tenants = 200;
  s.platform.routes = 20'000;
  switch (cfg.workload) {
    case Workload::kPodSaturated:
      s.pod.service = ServiceKind::kVpcVpc;
      s.pod.data_cores = 8;
      // ~80% of the 8-core pod's capacity: rings stay busy so every
      // layer (pump, GOP, PLB, DMA, pod run loop, reorder, TX) is on
      // the path.
      s.traffic = check::background_flow_config(9e6, cfg.seed);
      s.horizon = (cfg.quick ? 4 : 100) * kMillisecond;
      break;
    case Workload::kTierOverload:
      s.pod.service = ServiceKind::kVpcInternet;
      s.pod.data_cores = 2;
      s.traffic.num_flows = 250'000;
      s.traffic.tenants = 64;
      s.traffic.zipf_alpha = 0.5;
      s.traffic.rate_pps = 6e6;  // ~3x the 2-core CPU capacity
      s.traffic.seed = cfg.seed;
      s.tiered = true;
      // Long enough that >64K distinct flows complete a CPU round-trip
      // and the FPGA's BRAM session table binds.
      s.horizon = (cfg.quick ? 4 : 120) * kMillisecond;
      break;
    case Workload::kFleetAzReplica:
    case Workload::kFleetDiurnal: {
      // The first AZ of the fleet spec, built the way FleetEngine builds
      // it, at the mean diurnal per-gateway rate, with the canonical
      // flow mix in place of the tenant-population one; no upgrades,
      // faults or conformance harness.
      const fleet::FleetSpec spec = load_fleet_spec(cfg);
      const fleet::FleetAzSpec& az = spec.azs.front();
      ChaosHarnessConfig hc;
      hc.gateways = az.gateways();
      hc.service = spec.service;
      hc.data_cores = az.data_cores;
      hc.dual_proxy = az.dual_proxy;
      hc.servers = az.servers;
      hc.platform.tenants = std::max(spec.local_vnis, 16u);
      hc.orch.pod_startup = spec.pod_startup;
      hc.orch.handover_validation = spec.validation;
      s.platform = hc.platform;
      s.pod.service = hc.service;
      s.pod.data_cores = hc.data_cores;
      s.az = hc;
      s.traffic.num_flows = spec.flows_per_gateway;
      s.traffic.tenants = spec.local_vnis;
      s.traffic.zipf_alpha = spec.flow_zipf_alpha;
      s.traffic.packet_bytes = spec.packet_bytes;
      s.traffic.rate_pps = spec.total_rate_pps /
                           static_cast<double>(spec.total_gateways()) * 0.5 *
                           (spec.diurnal.trough + spec.diurnal.peak);
      s.traffic.seed = cfg.seed;
      s.horizon = cfg.quick ? 50 * kMillisecond : 2 * kSecond;
      break;
    }
  }
  if (!s.az) s.platform.tables_data_cores = s.pod.data_cores;
  return s;
}

/// The DPU tier configuration of bench_ext_dpu_tiering: a 16-core
/// BlueField-2-class datapath, admission budgets sized for a cold start
/// of a 6 Mpps mix, and the legacy offload's 1-forward mice filter.
DpuTierConfig bench_tier_config() {
  DpuTierConfig tc;
  tc.datapath.cores = 16;
  tc.controller.admit_budget = 32'768;
  tc.controller.migration_budget = 4'096;
  tc.controller.admit_forwards = 1;
  return tc;
}

/// A constructed platform run: a bare Platform or a chaos harness.
struct BuiltPlatform {
  std::unique_ptr<Platform> bare;
  std::unique_ptr<GatewayChaosHarness> harness;
  Platform* platform = nullptr;
  std::vector<PodId> pods;
};

BuiltPlatform build_platform(const PlatformShape& s, Tracer* tracer) {
  BuiltPlatform b;
  if (s.az) {
    b.harness = std::make_unique<GatewayChaosHarness>(*s.az);
    b.platform = &b.harness->platform();
    for (std::uint16_t g = 0; g < b.harness->gateway_count(); ++g) {
      b.pods.push_back(b.harness->pod(g));
    }
  } else {
    b.bare = std::make_unique<Platform>(s.platform);
    b.platform = b.bare.get();
    b.pods.push_back(b.platform->create_pod(s.pod));
  }
  Platform& p = *b.platform;
  if (s.tiered) {
    p.enable_order_oracle(true);
    p.nic().enable_dpu_tier(b.pods.front(), bench_tier_config());
    p.enable_housekeeping(10 * kMillisecond);
  }
  for (std::size_t i = 0; i < b.pods.size(); ++i) {
    PoissonFlowConfig traffic = s.traffic;
    traffic.seed += i;
    p.attach_source(std::make_unique<BenchSource>(
                        std::make_unique<PoissonFlowSource>(traffic),
                        s.horizon, tracer),
                    b.pods[i]);
  }
  return b;
}

PodLedger read_ledger(Platform& platform, const std::vector<PodId>& pods) {
  PodLedger l;
  for (const PodId pod : pods) {
    const PodTelemetry& t = platform.telemetry(pod);
    const GwPodStats& s = platform.pod(pod).stats();
    l.offered += t.offered;
    l.delivered += t.delivered;
    l.dropped_rate_limit += t.dropped_rate_limit;
    l.dropped_reorder_full += t.dropped_reorder_full;
    l.dropped_ring += s.dropped_ring;
    l.dropped_service += s.dropped_service;
    l.blackholed += t.blackholed;
    l.control_plane += s.protocol_packets;
  }
  l.dropped_payload_gone =
      platform.nic().basic().stats().headers_dropped_payload_gone;
  return l;
}

void accumulate(FlowTableStats& sum, const ServiceTables& tables) {
  for (const auto& table : tables.per_core_conntrack) {
    const FlowTableStats& s = table->stats();
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.inserts += s.inserts;
    sum.insert_failures += s.insert_failures;
  }
}

void add_conntrack(ModelOutputs& m, const FlowTableStats& sum) {
  m.add("conntrack_hits", sum.hits);
  m.add("conntrack_misses", sum.misses);
  m.add("conntrack_inserts", sum.inserts);
  m.add("conntrack_insert_failures", sum.insert_failures);
}

std::uint64_t max_core_busy_ns(GwPod& pod) {
  std::uint64_t busy = 0;
  for (std::uint16_t c = 0; c < pod.config().data_cores; ++c) {
    const auto ns = pod.core_busy_ns(CoreId{c}).count();
    busy = std::max(busy, static_cast<std::uint64_t>(ns));
  }
  return busy;
}

void add_latency(ModelOutputs& m, const LogHistogram& h) {
  m.add("latency_samples", h.count());
  m.add("latency_p50_ns", h.quantile(0.5));
  m.add("latency_p99_ns", h.quantile(0.99));
  m.add("latency_min_ns", h.min());
  m.add("latency_max_ns", h.max());
  m.add("latency_mean_ps", static_cast<std::uint64_t>(h.mean() * 1e3));
}

/// Every deterministic output of a platform run at the horizon, summed
/// over its pods.
ModelOutputs platform_outputs(Platform& platform,
                              const std::vector<PodId>& pods,
                              NanoTime horizon) {
  ModelOutputs m;
  PodTelemetry t;
  GwPodStats s;
  std::uint64_t busy_max = 0;
  DpuTierStats tier;
  bool tiered = false;
  for (const PodId pod : pods) {
    const PodTelemetry& pt = platform.telemetry(pod);
    t.offered += pt.offered;
    t.delivered += pt.delivered;
    t.delivered_in_order += pt.delivered_in_order;
    t.delivered_disordered += pt.delivered_disordered;
    t.dropped_rate_limit += pt.dropped_rate_limit;
    t.dropped_reorder_full += pt.dropped_reorder_full;
    t.blackholed += pt.blackholed;
    t.flow_order_violations += pt.flow_order_violations;
    t.wire_latency.merge(pt.wire_latency);
    GwPod& gw = platform.pod(pod);
    s.processed += gw.stats().processed;
    s.forwarded += gw.stats().forwarded;
    s.dropped_service += gw.stats().dropped_service;
    s.dropped_ring += gw.stats().dropped_ring;
    s.drop_flags_sent += gw.stats().drop_flags_sent;
    busy_max = std::max(busy_max, max_core_busy_ns(gw));
    if (platform.nic().dpu_tier_enabled(pod)) {
      tiered = true;
      const DpuTierStats& ts = platform.nic().dpu_tier(pod).stats();
      tier.fpga_hits += ts.fpga_hits;
      tier.dpu_hits += ts.dpu_hits;
      tier.misses += ts.misses;
    }
  }
  m.add("events", platform.loop().events_processed());
  m.add("offered", t.offered);
  m.add("delivered", t.delivered);
  m.add("delivered_in_order", t.delivered_in_order);
  m.add("delivered_disordered", t.delivered_disordered);
  m.add("dropped_rate_limit", t.dropped_rate_limit);
  m.add("dropped_reorder_full", t.dropped_reorder_full);
  m.add("blackholed", t.blackholed);
  m.add("order_violations", t.flow_order_violations);
  add_latency(m, t.wire_latency);
  m.add("pod_processed", s.processed);
  m.add("pod_forwarded", s.forwarded);
  m.add("pod_dropped_service", s.dropped_service);
  m.add("pod_dropped_ring", s.dropped_ring);
  m.add("pod_drop_flags_sent", s.drop_flags_sent);
  m.add("core_busy_max_ns", busy_max);
  m.add("horizon_ns", static_cast<std::uint64_t>(horizon.count()));
  FlowTableStats ct;
  accumulate(ct, platform.tables());
  add_conntrack(m, ct);
  if (tiered) {
    m.add("tier_fpga_hits", tier.fpga_hits);
    m.add("tier_dpu_hits", tier.dpu_hits);
    m.add("tier_misses", tier.misses);
  }
  m.add("housekeeping_reclaimed", platform.housekeeping_reclaimed());
  return m;
}

void add_ledger(ModelOutputs& m, const char* prefix, const PodLedger& l) {
  const std::string p = prefix;
  m.add(p + "offered", l.offered);
  m.add(p + "delivered", l.delivered);
  m.add(p + "dropped_rate_limit", l.dropped_rate_limit);
  m.add(p + "dropped_reorder_full", l.dropped_reorder_full);
  m.add(p + "dropped_ring", l.dropped_ring);
  m.add(p + "dropped_service", l.dropped_service);
  m.add(p + "dropped_payload_gone", l.dropped_payload_gone);
  m.add(p + "blackholed", l.blackholed);
  m.add(p + "control_plane", l.control_plane);
}

RepResult run_platform(const RunConfig& cfg, bool traced) {
  const PlatformShape shape = platform_shape(cfg);
  // Declared before the platform, which holds pointers to it.
  Tracer tracer;
  RepResult r;
  bool at_horizon = false;

  const auto t0 = Clock::now();
  BuiltPlatform built = build_platform(shape, traced ? &tracer : nullptr);
  Platform& platform = *built.platform;
  // The snapshot is an event of its own, so traced and untraced runs
  // read the model outputs at exactly the same point of the event order.
  platform.loop().schedule_at(shape.horizon, [&] {
    at_horizon = true;
    const auto c0 = Clock::now();
    r.model = platform_outputs(platform, built.pods, shape.horizon);
    r.at_horizon = read_ledger(platform, built.pods);
    r.collect_s = seconds(Clock::now() - c0);
  });
  r.setup_s = seconds(Clock::now() - t0);

  if (traced) {
    tracer.attach(platform);
    r.run_s = tracer.drive(platform.loop(), &at_horizon);
    tracer.detach();
    r.layers = tracer.times();
  } else {
    // The run phase in slices with a host-speed probe pass between
    // them; the probe's time is in neither run_s nor ref_run_s.
    HostSpeedProbe probe;
    double before = probe.measure();
    r.probe_s = before;
    for (int i = 1; i <= kRunSlices; ++i) {
      const auto t1 = Clock::now();
      platform.run_until(shape.horizon * i / kRunSlices);
      const double slice_s = seconds(Clock::now() - t1);
      const double after = probe.measure();
      r.run_s += slice_s;
      r.ref_run_s += reference_seconds(slice_s, before, after);
      r.probe_s += after;
      before = after;
    }
    r.probe_s /= kRunSlices + 1;
  }
  if (!at_horizon) {
    r.failure = "the run ended before the horizon";
    return r;
  }

  platform.run_until(shape.horizon + shape.drain);
  r.drained = read_ledger(platform, built.pods);
  std::uint64_t in_flight = 0;
  r.failure = check_conservation(r.at_horizon, r.drained, in_flight);
  r.model.add("in_flight_at_horizon", in_flight);
  add_ledger(r.model, "drained_", r.drained);
  r.offered = r.at_horizon.offered;
  // No faults are scripted here: availability is the share of offered
  // packets not blackholed.
  r.slo_availability =
      1.0 - static_cast<double>(r.at_horizon.blackholed) /
                static_cast<double>(std::max<std::uint64_t>(r.offered, 1));
  return r;
}

RepResult run_fleet(const RunConfig& cfg) {
  const fleet::FleetSpec spec = load_fleet_spec(cfg);
  RepResult r;
  const auto t0 = Clock::now();
  fleet::FleetEngine engine(spec);
  r.setup_s = seconds(Clock::now() - t0);
  // One run() call: corrected by the probe passes around it.
  HostSpeedProbe probe;
  const double before = probe.measure();
  const auto t1 = Clock::now();
  engine.run();
  r.run_s = seconds(Clock::now() - t1);
  const double after = probe.measure();
  r.ref_run_s = reference_seconds(r.run_s, before, after);
  r.probe_s = 0.5 * (before + after);
  const auto t2 = Clock::now();
  const fleet::FleetResult res = engine.collect();
  r.collect_s = seconds(Clock::now() - t2);
  r.slo_availability = res.slo.availability;

  ModelOutputs& m = r.model;
  std::uint64_t ledger_violations = 0;
  LogHistogram blackhole;
  for (const fleet::FleetAzResult& az : res.azs) {
    ledger_violations += az.ledger_violations;
    blackhole.merge(az.blackhole_hist);
  }
  m.add("events", res.events_total);
  m.add("offered", res.slo.offered);
  m.add("delivered", res.slo.delivered);
  m.add("blackholed", res.slo.blackholed);
  m.add("packets_lost", res.slo.packets_lost);
  m.add("incidents", res.slo.incidents);
  m.add("recovered", res.slo.recovered);
  m.add("upgrades", res.slo.upgrades);
  m.add("ledger_violations", ledger_violations);
  m.add("conformance_violations", res.conformance_violations);
  m.add("blackhole_incidents", blackhole.count());
  m.add("blackhole_p99_ns", blackhole.quantile(0.99));

  // Wire latency and disorder over every pod of every AZ, and the
  // per-AZ event counts that bound an AZ-parallel speed-up.
  LogHistogram latency;
  std::uint64_t in_order = 0;
  std::uint64_t disordered = 0;
  std::uint64_t ring_drops = 0;
  std::uint64_t processed = 0;
  std::uint64_t busy_max = 0;
  FlowTableStats ct;
  for (std::size_t i = 0; i < engine.az_count(); ++i) {
    Platform& p = engine.az_harness(i).platform();
    m.add("az" + std::to_string(i) + "_events",
          p.loop().events_processed());
    for (PodId pod = 0; pod < p.pod_count(); ++pod) {
      latency.merge(p.telemetry(pod).wire_latency);
      in_order += p.telemetry(pod).delivered_in_order;
      disordered += p.telemetry(pod).delivered_disordered;
      ring_drops += p.pod(pod).stats().dropped_ring;
      processed += p.pod(pod).stats().processed;
      busy_max = std::max(busy_max, max_core_busy_ns(p.pod(pod)));
    }
    accumulate(ct, p.tables());
  }
  m.add("delivered_in_order", in_order);
  m.add("delivered_disordered", disordered);
  add_latency(m, latency);
  m.add("pod_processed", processed);
  m.add("pod_dropped_ring", ring_drops);
  m.add("core_busy_max_ns", busy_max);
  m.add("horizon_ns", static_cast<std::uint64_t>(spec.horizon.count()));
  add_conntrack(m, ct);
  m.slo_json = res.slo.to_json().dump();

  r.offered = res.slo.offered;
  if (ledger_violations != 0 || res.conformance_violations != 0) {
    r.failure = "fleet conformance: " + std::to_string(ledger_violations) +
                " ledger and " + std::to_string(res.conformance_violations) +
                " conformance violations";
  }
  return r;
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  // The AZ replica is not a workload of its own: it stands in for the
  // fleet in the traced run.
  for (const Workload w : {Workload::kPodSaturated, Workload::kTierOverload,
                           Workload::kFleetDiurnal}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kPodSaturated: return "pod_saturated";
    case Workload::kTierOverload: return "tier_overload";
    case Workload::kFleetDiurnal: return "fleet_diurnal";
    case Workload::kFleetAzReplica: return "fleet_diurnal AZ replica";
  }
  return "?";
}

RepResult run_rep(const RunConfig& cfg, bool traced) {
  if (cfg.workload == Workload::kFleetDiurnal) return run_fleet(cfg);
  return run_platform(cfg, traced);
}

RunConfig traced_config(const RunConfig& cfg) {
  RunConfig t = cfg;
  if (cfg.workload == Workload::kFleetDiurnal) {
    t.workload = Workload::kFleetAzReplica;
  }
  return t;
}

double service_replay_ns_per_pkt(const RunConfig& cfg,
                                 std::uint64_t packets) {
  const PlatformShape shape = platform_shape(cfg);
  const PlatformConfig& pc = shape.platform;
  ServiceTables tables;
  tables.populate(pc.tenants, pc.routes, pc.tables_data_cores);
  CacheModel cache(pc.cache, pc.numa);
  cache.set_working_set_bytes(pc.working_set_bytes != 0
                                  ? pc.working_set_bytes
                                  : tables.memory_bytes());
  const auto service =
      make_service(shape.pod.service, tables, cache, shape.pod.numa_node);
  PoissonFlowSource source(shape.traffic);
  Rng rng(cfg.seed);

  double busy_ns = 0.0;
  std::uint64_t done = 0;
  std::uint64_t bursts = 0;
  PacketBurst burst;
  while (done < packets) {
    const auto first = source.next_time();
    if (!first || *first >= shape.horizon) break;
    burst.count = 0;
    while (burst.count < PacketBurst::kMaxBurst && done + burst.count < packets) {
      const auto t = source.next_time();
      if (!t || *t >= shape.horizon) break;
      const std::size_t i = burst.count++;
      burst.pkts[i] = source.emit();
      burst.flow_affine[i] = false;
      burst.rng_seed[i] = mix64(done + i) | 1u;
    }
    const CoreId core{
        static_cast<std::uint16_t>(bursts % shape.pod.data_cores)};
    const auto t0 = Clock::now();
    service->process_burst(burst, core, /*flow_affine=*/false, *first, rng);
    busy_ns += static_cast<double>((Clock::now() - t0).count());
    done += burst.count;
    ++bursts;
    for (std::size_t i = 0; i < burst.count; ++i) burst.pkts[i].reset();
  }
  return done != 0 ? busy_ns / static_cast<double>(done) : 0.0;
}

}  // namespace perfbench

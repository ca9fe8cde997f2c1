#include "chaos/harness.hpp"

#include <stdexcept>

#include "traffic/flow_gen.hpp"
#include "traffic/heavy_hitter.hpp"

namespace albatross {

GatewayChaosHarness::GatewayChaosHarness(ChaosHarnessConfig cfg)
    : cfg_(cfg), orch_(cfg.orch) {
  // Every gateway pod has cfg_.data_cores cores and services index
  // per-core conntrack by pod-local core, so partitions past that count
  // would never be touched.
  cfg_.platform.tables_data_cores = cfg_.data_cores;
  platform_ = std::make_unique<Platform>(cfg_.platform);
  uplink_ = std::make_unique<UplinkSwitch>(platform_->loop(), cfg_.uplink);

  const std::size_t proxies = cfg_.dual_proxy ? 2 : 1;
  for (std::size_t i = 0; i < proxies; ++i) {
    BgpProxyConfig pc;
    pc.router_id = 0x0a640001 + static_cast<std::uint32_t>(i);
    proxies_.push_back(
        std::make_unique<BgpProxy>(platform_->loop(), *uplink_, pc, NanoTime{}));
  }
  for (std::uint16_t s = 0; s < cfg_.servers; ++s) {
    orch_.add_server(ServerSpec{});
  }

  gateways_.resize(cfg_.gateways);
  for (std::uint16_t g = 0; g < cfg_.gateways; ++g) wire_gateway(g, NanoTime{});

  // Switch-side route callbacks -> per-gateway routed edge detection.
  // (UplinkSwitch leaves on_route free; the harness is the observer.)
  for (auto& proxy : proxies_) {
    BgpSession* sw = proxy->uplink_session().peer();
    sw->set_on_route(
        [this](const RoutePrefix& p, const RibEntry*, NanoTime t) {
          const auto it = vip_to_gw_.find(p);
          if (it != vip_to_gw_.end()) routed_edge(it->second, t);
        });
  }
}

PodSpec GatewayChaosHarness::pod_spec() const {
  PodSpec spec;
  spec.service = cfg_.service;
  spec.data_cores = cfg_.data_cores;
  spec.ctrl_cores = cfg_.ctrl_cores;
  return spec;
}

void GatewayChaosHarness::wire_gateway(std::uint16_t g, NanoTime now) {
  Gateway& gw = gateways_[g];

  GwPodConfig pod_cfg;
  pod_cfg.service = cfg_.service;
  pod_cfg.data_cores = cfg_.data_cores;
  pod_cfg.ctrl_cores = cfg_.ctrl_cores;
  gw.pod = platform_->create_pod(pod_cfg);

  const auto placement = orch_.deploy(pod_spec(), now);
  if (!placement) {
    throw std::runtime_error("chaos harness: no capacity for gateway " +
                             std::to_string(g));
  }
  gw.orch_pod = placement->pod;

  gw.vip = RoutePrefix{
      Ipv4Address::from_octets(10, 200, static_cast<std::uint8_t>(g), 0), 24};
  vip_to_gw_[gw.vip] = g;

  for (std::size_t i = 0; i < proxies_.size(); ++i) {
    BgpSessionConfig sc;
    sc.asn = 64600;  // iBGP with the proxy
    sc.router_id = 0x0a0a0000 + (static_cast<std::uint32_t>(g) << 4) +
                   static_cast<std::uint32_t>(i);
    auto session = std::make_unique<BgpSession>(platform_->loop(), sc);
    proxies_[i]->attach_pod(*session, now);
    session->announce(gw.vip, gw.vip.prefix.addr, now);
    gw.bgp.push_back(std::move(session));
  }

  // BFD pair pod <-> switch. Probe delivery is gated on the gateway's
  // fault state: a dead pod or a downed link silently eats probes, and
  // bfd_ok=false models the §4.3 false positive (probes lost while the
  // data plane is fine). The switch side is the detector the recovery
  // loop listens to.
  BfdConfig bc = cfg_.bfd;
  bc.my_discriminator = static_cast<std::uint32_t>(g) * 2 + 1;
  gw.bfd_pod = std::make_unique<BfdSession>(platform_->loop(), bc);
  bc.my_discriminator = static_cast<std::uint32_t>(g) * 2 + 2;
  gw.bfd_sw = std::make_unique<BfdSession>(platform_->loop(), bc);
  gw.bfd_pod->set_tx([this, g](NanoTime t) {
    Gateway& gwr = gateways_[g];
    if (gwr.alive && gwr.link_ok && gwr.bfd_ok) gwr.bfd_sw->on_rx(t);
  });
  gw.bfd_sw->set_tx([this, g](NanoTime t) {
    Gateway& gwr = gateways_[g];
    if (gwr.link_ok) gwr.bfd_pod->on_rx(t);
  });
  gw.bfd_sw->set_on_state([this, g](BfdState s, NanoTime t) {
    if (s == BfdState::kDown) {
      ++counters_.gateway_down_events;
      if (on_down_) on_down_(g, t);
    } else {
      ++counters_.gateway_up_events;
      if (on_up_) on_up_(g, t);
    }
  });
  gw.bfd_pod->start(now);
  gw.bfd_sw->start(now);
}

bool GatewayChaosHarness::vip_routed(std::uint16_t g) const {
  const RoutePrefix& vip = gateways_[g].vip;
  for (const auto& proxy : proxies_) {
    const BgpSession* sw =
        const_cast<BgpProxy&>(*proxy).uplink_session().peer();
    if (sw != nullptr && sw->rib_in().count(vip) != 0) return true;
  }
  return false;
}

void GatewayChaosHarness::routed_edge(std::uint16_t g, NanoTime now) {
  const bool routed = vip_routed(g);
  Gateway& gw = gateways_[g];
  if (routed == gw.routed) return;
  gw.routed = routed;
  if (on_routed_) on_routed_(g, routed, now);
}

void GatewayChaosHarness::attach_background_traffic(std::uint16_t g,
                                                    double rate_pps,
                                                    std::size_t flows,
                                                    std::uint64_t seed) {
  PoissonFlowConfig bg;
  bg.num_flows = flows;
  bg.tenants = 16;
  bg.rate_pps = rate_pps;
  bg.seed = seed;
  platform_->attach_source(std::make_unique<PoissonFlowSource>(bg),
                           gateways_[g].pod);
}

void GatewayChaosHarness::withdraw_vip(std::uint16_t g, NanoTime now) {
  Gateway& gw = gateways_[g];
  for (auto& s : gw.bgp) s->withdraw(gw.vip, now);
  ++counters_.withdraws;
}

void GatewayChaosHarness::announce_vip(std::uint16_t g, NanoTime now) {
  Gateway& gw = gateways_[g];
  for (auto& s : gw.bgp) s->announce(gw.vip, gw.vip.prefix.addr, now);
  ++counters_.announces;
}

std::optional<RedeployTicket> GatewayChaosHarness::redeploy(std::uint16_t g,
                                                            NanoTime now) {
  Gateway& gw = gateways_[g];
  const auto res = orch_.scale_up(gw.orch_pod, pod_spec(), now);
  if (!res) return std::nullopt;
  RedeployTicket ticket{res->first, res->second, gw.orch_pod};
  gw.orch_pod = res->first.pod;
  ++counters_.redeploys;
  return ticket;
}

void GatewayChaosHarness::restore(std::uint16_t g, NanoTime now) {
  Gateway& gw = gateways_[g];
  gw.alive = true;
  gw.link_ok = true;
  gw.bfd_ok = true;
  platform_->set_pod_offline(gw.pod, false);
  // The replacement's control plane re-announces; BFD probes resume on
  // the next tick, so the switch declares the gateway up within one
  // tx_interval and the routed edge closes the incident.
  announce_vip(g, now);
}

bool GatewayChaosHarness::finish_redeploy(PodId old_orch_pod) {
  return orch_.remove(old_orch_pod);
}

void GatewayChaosHarness::crash_proxy(std::size_t i, NanoTime now) {
  proxies_[i]->uplink_session().stop(now);
}

void GatewayChaosHarness::restore_proxy(std::size_t i, NanoTime now) {
  proxies_[i]->uplink_session().start(now);
}

void GatewayChaosHarness::apply(const FaultEvent& e, NanoTime now) {
  Gateway& gw = gateways_[e.gateway % gateways_.size()];
  const auto g = static_cast<std::uint16_t>(e.gateway % gateways_.size());
  gw.last_fault = e.kind;
  gw.last_fault_at = now;
  gw.blackhole_mark = platform_->telemetry(gw.pod).blackholed;

  switch (e.kind) {
    case FaultKind::kPodCrash:
      gw.alive = false;
      platform_->set_pod_offline(gw.pod, true);
      break;
    case FaultKind::kCoreStall: {
      const auto n = e.magnitude >= 1.0
                         ? static_cast<std::uint16_t>(e.magnitude)
                         : std::uint16_t{1};
      for (std::uint16_t c = 0; c < n && c < cfg_.data_cores; ++c) {
        platform_->pod(gw.pod).inject_core_stall(CoreId{c}, e.duration, now);
      }
      break;
    }
    case FaultKind::kNicReorderStuck:
      platform_->nic().inject_reorder_stall(gw.pod, now + e.duration);
      break;
    case FaultKind::kNicDmaError:
      platform_->nic().inject_dma_fault(gw.pod, now + e.duration,
                                        e.magnitude > 1.0 ? e.magnitude
                                                          : 8.0);
      break;
    case FaultKind::kLinkFlap:
      gw.link_ok = false;
      platform_->set_pod_offline(gw.pod, true);
      break;
    case FaultKind::kBgpReset:
      for (auto& s : gw.bgp) s->link_failure(now);
      break;
    case FaultKind::kBfdTimeout:
      gw.bfd_ok = false;
      break;
    case FaultKind::kHitterStorm: {
      HeavyHitterConfig hh;
      hh.flow = make_flow(0xC0FFEE00ull + g, 1, g);
      hh.profile.add_step(now, e.magnitude > 0.0 ? e.magnitude : 1e6);
      hh.profile.add_step(now + e.duration, 0.0);
      platform_->attach_source(std::make_unique<HeavyHitterSource>(hh),
                               gw.pod);
      break;
    }
    case FaultKind::kDpuCoreStall:
      // Graceful no-op when the pod has no DPU tier (the injector checks).
      platform_->nic().inject_dpu_core_stall(
          gw.pod, static_cast<std::uint16_t>(e.magnitude), now + e.duration);
      break;
    case FaultKind::kTierTableFlush:
      platform_->nic().inject_tier_table_flush(gw.pod, now);
      break;
  }
}

void GatewayChaosHarness::clear(const FaultEvent& e, NanoTime now) {
  Gateway& gw = gateways_[e.gateway % gateways_.size()];
  switch (e.kind) {
    case FaultKind::kLinkFlap:
      gw.link_ok = true;
      if (gw.alive) platform_->set_pod_offline(gw.pod, false);
      break;
    case FaultKind::kBfdTimeout:
      gw.bfd_ok = true;
      break;
    default:
      // Window faults (core stall, NIC faults, hitter storm) self-clear
      // when their injected deadline passes; a crash only clears through
      // the recovery path.
      break;
  }
  (void)now;
}

}  // namespace albatross

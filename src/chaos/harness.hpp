// GatewayChaosHarness: the FaultSurface wired through the whole stack.
// It stands up a small availability zone — one Platform (FPGA NIC +
// GW pods), an Orchestrator with spare capacity, an uplink switch and
// one or two BGP proxies (Fig. 7; production runs two per server) —
// and gives every gateway the full control-plane the paper describes:
// an iBGP session to each proxy announcing its VIP, and a BFD session
// pair to the switch for sub-second liveness (§4.3).
//
// Faults land on the real objects: a pod crash blackholes Platform
// ingress and silences BFD; a link flap does the same but self-heals;
// NIC faults wedge the actual reorder queues / DMA channels; a core
// stall freezes GwPod run loops; a BFD timeout suppresses probes
// without touching the data plane (false-positive detection); a BGP
// reset exercises control/data decoupling. The RecoveryController
// drives the recovery verbs (withdraw_vip / redeploy / restore /
// finish_redeploy) that close the paper's failure-handling loop.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "bgp/bfd.hpp"
#include "bgp/proxy.hpp"
#include "bgp/switch_model.hpp"
#include "chaos/injector.hpp"
#include "container/orchestrator.hpp"
#include "container/pod_spec.hpp"
#include "core/platform.hpp"

namespace albatross {

/// Scaled-down tables (matching SinglePodScenario) keep runs fast.
[[nodiscard]] inline PlatformConfig chaos_platform_defaults() {
  PlatformConfig p;
  p.tenants = 200;
  p.routes = 20'000;
  return p;
}

/// Crash recovery validates the replacement for a shorter window than a
/// planned scale-up would (the paper's 30 s validation protects
/// make-before-break handovers; a dead pod has nothing to break).
[[nodiscard]] inline OrchestratorConfig chaos_orch_defaults() {
  OrchestratorConfig o;
  o.handover_validation = 5 * kSecond;
  return o;
}

struct ChaosHarnessConfig {
  std::uint16_t gateways = 2;
  ServiceKind service = ServiceKind::kVpcVpc;
  std::uint16_t data_cores = 4;
  std::uint16_t ctrl_cores = 2;
  /// Production redundancy: two proxies per server (§5).
  bool dual_proxy = true;
  std::uint16_t servers = 2;
  /// tables_data_cores is ignored: the harness sizes the conntrack
  /// partitions to `data_cores`.
  PlatformConfig platform = chaos_platform_defaults();
  OrchestratorConfig orch = chaos_orch_defaults();
  BfdConfig bfd;
  SwitchConfig uplink;
};

struct ChaosHarnessCounters {
  std::uint64_t gateway_down_events = 0;  ///< BFD detections at the switch
  std::uint64_t gateway_up_events = 0;
  std::uint64_t withdraws = 0;
  std::uint64_t announces = 0;
  std::uint64_t redeploys = 0;
};

/// Replacement-deploy bookkeeping returned by redeploy(): the caller
/// (RecoveryController) schedules restore() at placement.ready_at and
/// finish_redeploy(old_orch_pod) at cutover.
struct RedeployTicket {
  Placement placement;
  NanoTime cutover = NanoTime{0};
  PodId old_orch_pod = 0;
};

class GatewayChaosHarness final : public FaultSurface {
 public:
  using GatewayFn = std::function<void(std::uint16_t, NanoTime)>;
  using RoutedFn = std::function<void(std::uint16_t, bool, NanoTime)>;

  explicit GatewayChaosHarness(ChaosHarnessConfig cfg = {});

  Platform& platform() { return *platform_; }
  EventLoop& loop() { return platform_->loop(); }
  Orchestrator& orchestrator() { return orch_; }
  UplinkSwitch& uplink() { return *uplink_; }
  BgpProxy& proxy(std::size_t i) { return *proxies_[i]; }
  [[nodiscard]] std::size_t proxy_count() const { return proxies_.size(); }
  [[nodiscard]] std::uint16_t gateway_count() const {
    return static_cast<std::uint16_t>(gateways_.size());
  }
  [[nodiscard]] const ChaosHarnessConfig& config() const { return cfg_; }
  [[nodiscard]] const ChaosHarnessCounters& counters() const {
    return counters_;
  }

  [[nodiscard]] PodId pod(std::uint16_t g) const { return gateways_[g].pod; }
  [[nodiscard]] PodId orch_pod(std::uint16_t g) const {
    return gateways_[g].orch_pod;
  }
  [[nodiscard]] const RoutePrefix& vip(std::uint16_t g) const {
    return gateways_[g].vip;
  }
  [[nodiscard]] bool alive(std::uint16_t g) const {
    return gateways_[g].alive;
  }
  /// Live query: is the gateway's VIP installed in the switch RIB via
  /// at least one proxy? (Queries rib_in directly, so it stays correct
  /// even across silent session deaths that fire no route callbacks.)
  [[nodiscard]] bool vip_routed(std::uint16_t g) const;

  [[nodiscard]] FaultKind last_fault_kind(std::uint16_t g) const {
    return gateways_[g].last_fault;
  }
  [[nodiscard]] NanoTime last_fault_at(std::uint16_t g) const {
    return gateways_[g].last_fault_at;
  }
  /// PodTelemetry::blackholed snapshot taken when the fault landed;
  /// loss for an incident is the counter delta since this mark.
  [[nodiscard]] std::uint64_t blackhole_mark(std::uint16_t g) const {
    return gateways_[g].blackhole_mark;
  }

  /// Attaches Zipf/Poisson background traffic to a gateway's pod.
  void attach_background_traffic(std::uint16_t g, double rate_pps,
                                 std::size_t flows, std::uint64_t seed = 1);

  void set_on_gateway_down(GatewayFn fn) { on_down_ = std::move(fn); }
  void set_on_gateway_up(GatewayFn fn) { on_up_ = std::move(fn); }
  void set_on_vip_routed(RoutedFn fn) { on_routed_ = std::move(fn); }

  // --- recovery verbs (driven by the RecoveryController) ---------------
  /// Withdraws the gateway's VIP through every proxy (what the proxy
  /// does on behalf of a dead pod once BFD has spoken).
  void withdraw_vip(std::uint16_t g, NanoTime now);
  void announce_vip(std::uint16_t g, NanoTime now);
  /// Deploys a replacement pod through Orchestrator::scale_up (the
  /// make-before-break machinery); the gateway's orch_pod moves to the
  /// replacement. nullopt when no server has capacity.
  std::optional<RedeployTicket> redeploy(std::uint16_t g, NanoTime now);
  /// Brings the gateway back online (replacement ready, or transient
  /// fault cleared): ingress unblackholed, BFD gates reopened.
  void restore(std::uint16_t g, NanoTime now);
  /// Releases the crashed pod's cores + VFs at cutover.
  bool finish_redeploy(PodId old_orch_pod);
  /// Kills / revives one proxy's uplink eBGP session (dual-proxy
  /// redundancy experiments).
  void crash_proxy(std::size_t i, NanoTime now);
  void restore_proxy(std::size_t i, NanoTime now);

  // --- FaultSurface -----------------------------------------------------
  void apply(const FaultEvent& e, NanoTime now) override;
  void clear(const FaultEvent& e, NanoTime now) override;

 private:
  struct Gateway {
    PodId pod = 0;       ///< Platform pod (fixed — the replacement
                         ///< container inherits the VF slice + VIP)
    PodId orch_pod = 0;  ///< current orchestrator placement
    RoutePrefix vip;
    std::vector<std::unique_ptr<BgpSession>> bgp;  ///< one per proxy
    std::unique_ptr<BfdSession> bfd_pod;  ///< pod -> switch probes
    std::unique_ptr<BfdSession> bfd_sw;   ///< switch side (detector)
    bool alive = true;
    bool link_ok = true;
    bool bfd_ok = true;
    FaultKind last_fault = FaultKind::kPodCrash;
    NanoTime last_fault_at = NanoTime{0};
    std::uint64_t blackhole_mark = 0;
    bool routed = false;  ///< last vip_routed() value (edge detection)
  };

  [[nodiscard]] PodSpec pod_spec() const;
  void wire_gateway(std::uint16_t g, NanoTime now);
  void routed_edge(std::uint16_t g, NanoTime now);

  ChaosHarnessConfig cfg_;
  std::unique_ptr<Platform> platform_;
  std::unique_ptr<UplinkSwitch> uplink_;
  std::vector<std::unique_ptr<BgpProxy>> proxies_;
  Orchestrator orch_;
  std::vector<Gateway> gateways_;
  std::map<RoutePrefix, std::uint16_t> vip_to_gw_;
  ChaosHarnessCounters counters_;
  GatewayFn on_down_;
  GatewayFn on_up_;
  RoutedFn on_routed_;
};

}  // namespace albatross

#include "traffic/flow_gen.hpp"

#include <limits>
#include <stdexcept>

#include "common/hash.hpp"
#include "tables/vm_nc_map.hpp"

namespace albatross {

FlowInfo make_flow(std::uint64_t flow_id, Vni vni, std::uint32_t flow_in_vni) {
  FlowInfo f;
  f.flow_id = flow_id;
  f.vni = vni;
  // Source: one of the tenant's VMs; destination: another VM / external
  // endpoint derived from the flow index, ports mixed from the id so the
  // 5-tuple space is well spread for RSS and ordq hashing.
  const std::uint32_t vm = flow_in_vni % 64;
  f.tuple.src_ip = VmNcMap::synthetic_vm_ip(vni, vm);
  f.tuple.dst_ip = Ipv4Address{0x08000000u |
                               static_cast<std::uint32_t>(
                                   mix64(flow_id * 2654435761u) & 0xffffff)};
  const auto port_mix = mix64(flow_id ^ 0xa1ba70550ull);
  f.tuple.src_port = static_cast<std::uint16_t>(1024 + (port_mix & 0xefff));
  f.tuple.dst_port = static_cast<std::uint16_t>(
      1024 + ((port_mix >> 16) & 0xefff));
  f.tuple.proto = IpProto::kUdp;
  return f;
}

namespace {

std::vector<FlowInfo> canonical_flows(const PoissonFlowConfig& cfg) {
  std::vector<FlowInfo> flows;
  flows.reserve(cfg.num_flows);
  const std::uint32_t tenants = cfg.tenants == 0 ? 1 : cfg.tenants;
  for (std::uint64_t i = 0; i < cfg.num_flows; ++i) {
    const Vni vni = 1 + static_cast<Vni>(i % tenants);
    flows.push_back(make_flow(i, vni, static_cast<std::uint32_t>(i / tenants)));
  }
  return flows;
}

}  // namespace

PoissonFlowSource::PoissonFlowSource(PoissonFlowConfig cfg)
    : PoissonFlowSource(cfg, canonical_flows(cfg)) {}

PoissonFlowSource::PoissonFlowSource(PoissonFlowConfig cfg,
                                     std::vector<FlowInfo> flows)
    : cfg_(cfg),
      rng_(cfg.seed),
      zipf_(flows.size(), cfg.zipf_alpha),
      flows_(std::move(flows)),
      next_(cfg.start) {
  // The Zipf sampler has nothing to draw from an empty population.
  if (flows_.empty()) {
    throw std::runtime_error("traffic source needs at least one flow");
  }
  cfg_.num_flows = flows_.size();
  advance();
}

void PoissonFlowSource::advance() {
  if (cfg_.rate_pps <= 0.0) {
    next_ = NanoTime::max();
    return;
  }
  const double mean_ns = 1e9 / cfg_.rate_pps;
  const double gap =
      cfg_.poisson ? rng_.next_exponential(mean_ns) : mean_ns;
  next_ += nanos_from_double(gap < 1.0 ? 1.0 : gap);
}

std::optional<NanoTime> PoissonFlowSource::next_time() const {
  if (next_ == NanoTime::max()) return std::nullopt;
  return next_;
}

PacketPtr PoissonFlowSource::emit() {
  FlowInfo& f = flows_[zipf_.sample(rng_)];
  auto pkt = Packet::make_synthetic(f.tuple, f.vni, cfg_.packet_bytes);
  pkt->rx_time = next_;
  pkt->flow_id = f.flow_id;
  pkt->seq_in_flow = f.packets_emitted++;
  advance();
  return pkt;
}

void PoissonFlowSource::set_rate(double pps) {
  const NanoTime base = next_ == NanoTime::max()
                            ? cfg_.start
                            : next_;
  cfg_.rate_pps = pps;
  next_ = base;
  if (pps <= 0.0) next_ = NanoTime::max();
}

void TrafficMux::add(std::unique_ptr<TrafficSource> src) {
  sources_.push_back(std::move(src));
}

std::size_t TrafficMux::earliest() const {
  std::size_t best = sources_.size();
  NanoTime best_t = NanoTime::max();
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    const auto t = sources_[i]->next_time();
    if (t && *t < best_t) {
      best_t = *t;
      best = i;
    }
  }
  return best;
}

std::optional<NanoTime> TrafficMux::next_time() const {
  const std::size_t i = earliest();
  if (i == sources_.size()) return std::nullopt;
  return sources_[i]->next_time();
}

PacketPtr TrafficMux::emit() {
  const std::size_t i = earliest();
  if (i == sources_.size()) return nullptr;
  return sources_[i]->emit();
}

}  // namespace albatross

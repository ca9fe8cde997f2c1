// Traffic sources. Every evaluation scenario in the paper is a mix of:
// a large population of background flows (Zipf-popular, Poisson arrivals),
// heavy hitters, microbursts and per-tenant ramps. Sources share one
// interface so a TrafficMux can merge them into a single arrival stream
// for the NIC pipeline.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "packet/packet.hpp"

namespace albatross {

/// One synthetic tenant flow: the generators and the oracle tables use
/// the same deterministic layout, so generated traffic always resolves
/// in the gateway's VM-NC and routing tables.
struct FlowInfo {
  std::uint64_t flow_id = 0;
  FiveTuple tuple;
  Vni vni = 0;
  std::uint64_t packets_emitted = 0;
};

/// Derives the canonical flow layout for (vni, index-within-tenant).
FlowInfo make_flow(std::uint64_t flow_id, Vni vni, std::uint32_t flow_in_vni);

/// Abstract arrival stream.
class TrafficSource {
 public:
  virtual ~TrafficSource() = default;

  /// Virtual time of the next packet, or nullopt when exhausted.
  [[nodiscard]] virtual std::optional<NanoTime> next_time() const = 0;

  /// Emits the packet at next_time(); advances the source.
  virtual PacketPtr emit() = 0;
};

struct PoissonFlowConfig {
  std::size_t num_flows = 500'000;
  std::uint32_t tenants = 1000;
  double zipf_alpha = 0.9;       ///< flow-popularity skew
  double rate_pps = 1e6;         ///< aggregate packets/sec
  std::size_t packet_bytes = 256;
  NanoTime start = NanoTime{0};
  std::uint64_t seed = 1;
  bool poisson = true;           ///< false = deterministic spacing
};

/// Background traffic: `num_flows` concurrent flows over `tenants`
/// tenants; per-packet flow choice is Zipf-distributed. Both
/// constructors throw std::runtime_error on an empty flow population.
class PoissonFlowSource final : public TrafficSource {
 public:
  explicit PoissonFlowSource(PoissonFlowConfig cfg);

  /// Same arrival process over an explicit flow population. The fleet
  /// layer uses this to feed flows whose VNI mix was drawn Zipf-over-
  /// *tenants* (fleet/tenant_population.hpp) instead of the canonical
  /// round-robin tenant layout; cfg.num_flows is ignored.
  PoissonFlowSource(PoissonFlowConfig cfg, std::vector<FlowInfo> flows);

  [[nodiscard]] std::optional<NanoTime> next_time() const override;
  PacketPtr emit() override;

  void set_rate(double pps);
  [[nodiscard]] const std::vector<FlowInfo>& flows() const { return flows_; }

 private:
  void advance();

  PoissonFlowConfig cfg_;
  Rng rng_;
  ZipfSampler zipf_;
  std::vector<FlowInfo> flows_;
  NanoTime next_;
};

/// Merges sources, always emitting the globally earliest packet.
class TrafficMux final : public TrafficSource {
 public:
  void add(std::unique_ptr<TrafficSource> src);

  [[nodiscard]] std::optional<NanoTime> next_time() const override;
  PacketPtr emit() override;

  [[nodiscard]] std::size_t source_count() const { return sources_.size(); }
  TrafficSource& source(std::size_t i) { return *sources_[i]; }

 private:
  [[nodiscard]] std::size_t earliest() const;
  std::vector<std::unique_ptr<TrafficSource>> sources_;
};

}  // namespace albatross

// plb_dispatch: the ingress half of packet-level load balancing (§4.1).
// Sprays packets round-robin across a pod's RX data queues, reserves a
// PSN in the order-preserving queue chosen by the flow's 5-tuple hash
// (get_ordq_idx), and tags the PLB meta trailer that travels with the
// packet through the CPU and back.
//
// A PlbEngine instance owns one GW pod's PLB state: its reorder queues
// (1-8, proportional to data cores — the C1/C2 trade-off) and the RX
// round-robin cursor. SR-IOV NIC virtualisation gives each pod its own
// engine so pods never interfere (§5).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/hash.hpp"
#include "nic/plb_reorder.hpp"
#include "packet/packet.hpp"

namespace albatross {

struct PlbEngineConfig {
  std::uint16_t num_reorder_queues = 4;  ///< 1-8 per pod
  std::uint16_t num_rx_queues = 8;       ///< = pod data cores
  std::uint32_t reorder_entries = kReorderQueueEntries;
  NanoTime reorder_timeout = kReorderTimeout;
};

struct PlbDispatchResult {
  std::uint16_t rx_queue = 0;
  std::uint8_t ordq = 0;
  Psn psn = 0;
};

/// Dispatch logic only (hash, ordq pick, PSN stamp): its reorder-queue
/// BRAM is annotated on ReorderQueue, which it instantiates per ordq.
// fpga: lut=15'012, bram_bits=0, cycles=25
class PlbEngine {
 public:
  explicit PlbEngine(PlbEngineConfig cfg = {});

  /// Ingress: assigns ordq + PSN, attaches the meta trailer and picks
  /// the RX queue. nullopt = reorder FIFO full, packet dropped at
  /// ingress (caller keeps ownership to free/count it).
  std::optional<PlbDispatchResult> dispatch(Packet& pkt, NanoTime now);

  /// Egress: write-back of a CPU-processed packet (meta still attached;
  /// this strips it). Emissions (best-effort or in-order after drain)
  /// are appended to `out`.
  void writeback(PacketPtr pkt, NanoTime now, std::vector<ReorderEgress>& out);

  /// Runs the reorder check on every queue (timeout-driven entry point).
  void drain_all(NanoTime now, std::vector<ReorderEgress>& out);

  /// Earliest head-timeout deadline across queues, for event scheduling;
  /// NanoTime::max() when every queue is empty.
  [[nodiscard]] NanoTime next_deadline() const {
    NanoTime best = NanoTime::max();
    for (const auto& q : queues_) best = std::min(best, q->head_deadline());
    return best;
  }

  [[nodiscard]] std::uint16_t ordq_index(const FiveTuple& tuple) const;
  [[nodiscard]] const PlbEngineConfig& config() const { return cfg_; }
  [[nodiscard]] const ReorderQueue& queue(std::size_t i) const {
    return *queues_[i];
  }
  [[nodiscard]] std::size_t queue_count() const { return queues_.size(); }

  /// Aggregated statistics across this pod's reorder queues.
  [[nodiscard]] ReorderQueueStats total_stats() const;

  /// Total packets this engine refused at ingress because the selected
  /// reorder FIFO was full.
  [[nodiscard]] std::uint64_t ingress_drops() const { return ingress_drops_; }

  /// Fault injection (chaos subsystem): wedges every reorder queue's
  /// check logic until `until`.
  void inject_reorder_stall(NanoTime until) {
    for (auto& q : queues_) q->inject_stall(until);
  }

  /// Arms a conformance probe on every reorder queue (src/check);
  /// nullptr disarms.
  void set_probe(ReorderProbeHook* probe) {
    for (std::size_t i = 0; i < queues_.size(); ++i) {
      queues_[i]->set_probe(probe, static_cast<std::uint16_t>(i));
    }
  }

 private:
  PlbEngineConfig cfg_;
  std::vector<std::unique_ptr<ReorderQueue>> queues_;
  std::uint64_t rx_rr_ = 0;
  std::uint64_t ingress_drops_ = 0;
};

}  // namespace albatross

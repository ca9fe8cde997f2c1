// The FPGA NIC pipeline (Fig. 1), assembled: ingress = basic pipeline
// (VLAN/parse/split) -> gateway overload protection -> pkt_dir -> RSS or
// PLB dispatch -> DMA to the host; egress = DMA from the host -> PLB
// reorder (legal + reorder checks) -> basic pipeline TX -> wire.
// Latency constants follow Tab. 4; DMA dominates.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dpu/dpu_tier.hpp"
#include "nic/basic_pipeline.hpp"
#include "nic/dma.hpp"
#include "nic/pkt_dir.hpp"
#include "nic/plb_dispatch.hpp"
#include "nic/rate_limiter.hpp"
#include "nic/session_offload.hpp"

namespace albatross {

/// Per-pod load-balancing mode; RSS is both the 1st-gen baseline and the
/// live fallback path (§4.1 remediation 5).
enum class LbMode : std::uint8_t { kPlb, kRss };

/// Tab. 4 module latencies, specified in fabric clock cycles. The
/// datapath modules run at twice the 250 MHz shell clock, so one cycle
/// is 2 ns and the paper's nanosecond figures map exactly. Conversions
/// go through cycles_to_nanos so the clock frequency is named here and
/// nowhere else.
struct NicTimings {
  std::uint32_t datapath_clock_mhz = 2 * kDefaultFpgaClockMhz;  // 500 MHz
  FpgaCycles basic_rx = FpgaCycles{290};        // 580 ns
  FpgaCycles basic_tx = FpgaCycles{420};        // 840 ns
  FpgaCycles overload_det_rx = FpgaCycles{50};  // 100 ns
  FpgaCycles plb_rx = FpgaCycles{25};           //  50 ns
  FpgaCycles plb_tx = FpgaCycles{175};          // 350 ns
  FpgaCycles dma_rx_base = FpgaCycles{1585};    // 3170 ns
  FpgaCycles dma_tx_base = FpgaCycles{1490};    // 2980 ns

  [[nodiscard]] constexpr Nanos ns(FpgaCycles c) const {
    return cycles_to_nanos(c, datapath_clock_mhz);
  }
  [[nodiscard]] constexpr Nanos basic_rx_ns() const { return ns(basic_rx); }
  [[nodiscard]] constexpr Nanos basic_tx_ns() const { return ns(basic_tx); }
  [[nodiscard]] constexpr Nanos overload_det_rx_ns() const {
    return ns(overload_det_rx);
  }
  [[nodiscard]] constexpr Nanos plb_rx_ns() const { return ns(plb_rx); }
  [[nodiscard]] constexpr Nanos plb_tx_ns() const { return ns(plb_tx); }
  [[nodiscard]] constexpr Nanos dma_rx_base_ns() const {
    return ns(dma_rx_base);
  }
  [[nodiscard]] constexpr Nanos dma_tx_base_ns() const {
    return ns(dma_tx_base);
  }
};

struct NicPipelineConfig {
  NicTimings timings;
  DmaConfig dma_rx;   ///< base_latency overridden from timings
  DmaConfig dma_tx;
  bool gop_enabled = true;
  RateLimiterConfig gop;
  std::uint16_t payload_slots = 8192;
};

enum class IngressOutcome : std::uint8_t {
  kDelivered,          ///< lands in the pod RX queue at deliver_time
  kDroppedRateLimit,   ///< GOP verdict
  kDroppedReorderFull, ///< PLB FIFO exhausted (C1 trade-off)
  kOffloaded,          ///< handled entirely on the FPGA (session offload);
                       ///< deliver_time is the WIRE time, no CPU involved
};

struct IngressResult {
  IngressOutcome outcome = IngressOutcome::kDelivered;
  PktClass cls = PktClass::kPlb;
  std::uint16_t rx_queue = 0;
  NanoTime deliver_time = NanoTime{0};
  PacketPtr pkt;  ///< always returned; caller owns it (and frees drops)
};

struct EgressEmission {
  PacketPtr pkt;
  NanoTime wire_time = NanoTime{0};
  bool in_order = true;
};

/// Sentinel RX queue index for the protocol-priority queue.
constexpr std::uint16_t kPriorityQueue = 0xffff;

/// Aggregate façade: every LUT/BRAM it instantiates is annotated on the
/// member modules, so its own budget is zero (the sum partitions the
/// chip exactly once).
// fpga: lut=0, bram_bits=0, cycles=0
class NicPipeline {
 public:
  explicit NicPipeline(NicPipelineConfig cfg = {});

  /// Registers a GW pod slice: its PLB engine geometry, pkt_dir
  /// programming and mode.
  void register_pod(PodId pod, const PlbEngineConfig& plb,
                    const PktDirConfig& dir, LbMode mode);

  /// Enables FPGA session offload for a pod (§7 future-offload plan #1).
  /// Sessions installed via session_offload(pod).install() are then
  /// forwarded entirely inside the NIC.
  void enable_session_offload(PodId pod, SessionOffloadConfig cfg = {});
  [[nodiscard]] bool session_offload_enabled(PodId pod) const;
  SessionOffload& session_offload(PodId pod);

  /// Enables the DPU co-offload tier for a pod (docs/DPU_TIER.md):
  /// ingress stage 3 then consults FPGA -> DPU -> miss instead of the
  /// FPGA table alone. Enables the FPGA session offload with cfg.fpga
  /// when the pod doesn't have it yet.
  void enable_dpu_tier(PodId pod, DpuTierConfig cfg = {});
  [[nodiscard]] bool dpu_tier_enabled(PodId pod) const;
  DpuTier& dpu_tier(PodId pod);
  void set_pod_mode(PodId pod, LbMode mode);
  [[nodiscard]] LbMode pod_mode(PodId pod) const;

  /// Full ingress processing of one packet arriving at `now`.
  IngressResult ingress(PacketPtr pkt, PodId pod, NanoTime now);

  /// Host TX submission: returns the time the packet reaches the FPGA
  /// (TX DMA completion). The caller schedules egress_into() at that time.
  NanoTime tx_submit(PodId pod, NanoTime now, std::size_t bytes);

  /// Egress processing at the FPGA: reorder write-back for PLB packets,
  /// straight-through for RSS/priority. Emissions carry wire times and
  /// are appended to a caller-owned (typically reused) vector, so the
  /// per-packet TX path never allocates.
  void egress_into(PacketPtr pkt, PodId pod, NanoTime now,
                   std::vector<EgressEmission>& out);

  /// Timeout-driven reorder drain for a pod; appends like egress_into.
  void drain_expired_into(PodId pod, NanoTime now,
                          std::vector<EgressEmission>& out);
  [[nodiscard]] std::optional<NanoTime> next_reorder_deadline(PodId pod) const;

  TenantRateLimiter& limiter() { return limiter_; }
  PktDir& pkt_dir() { return pkt_dir_; }
  BasicPipeline& basic() { return basic_; }
  PlbEngine& engine(PodId pod) { return *slice(pod).plb; }
  [[nodiscard]] const PlbEngine& engine(PodId pod) const {
    return *pods_[pod].plb;
  }
  [[nodiscard]] const NicPipelineConfig& config() const { return cfg_; }

  /// Ingress latency the NIC adds before DMA (Tab. 4 RX sum sans DMA).
  [[nodiscard]] NanoTime rx_pipeline_latency(bool plb) const;

  // --- conformance probes (src/check) ----------------------------------
  /// Arms a reorder-invariant probe on one pod's PLB engine.
  void attach_reorder_probe(PodId pod, ReorderProbeHook* probe) {
    slice(pod).plb->set_probe(probe);
  }
  /// Arms an admit probe on the shared tenant rate limiter.
  void attach_limiter_probe(RateLimiterProbeHook* probe) {
    limiter_.set_probe(probe);
  }

  // --- fault injection (chaos subsystem) -------------------------------
  /// Degrades both DMA directions of a pod's slice until `until`
  /// (latency multiplied by `slowdown`), modelling PCIe error retries.
  void inject_dma_fault(PodId pod, NanoTime until, double slowdown = 8.0) {
    slice(pod).dma_rx.inject_fault(until, slowdown);
    slice(pod).dma_tx.inject_fault(until, slowdown);
  }
  /// Wedges the pod's reorder module until `until`.
  void inject_reorder_stall(PodId pod, NanoTime until) {
    slice(pod).plb->inject_reorder_stall(until);
  }
  /// Wedges one DPU datapath core until `until` (latency-only fault;
  /// queued packets wait, nothing drops). No-op without the tier.
  void inject_dpu_core_stall(PodId pod, std::uint16_t core, NanoTime until) {
    if (dpu_tier_enabled(pod)) slice(pod).dpu->stall_core(core, until);
  }
  /// Wipes the pod's DPU session table (tier-table fault); flows fall
  /// back to the CPU until re-admitted. No-op without the tier.
  std::size_t inject_tier_table_flush(PodId pod, NanoTime now) {
    return dpu_tier_enabled(pod) ? slice(pod).dpu->flush_tier_table(now) : 0;
  }
  [[nodiscard]] std::uint64_t dma_faulted_transfers(PodId pod) const {
    return pods_[pod].dma_rx.stats().faulted_transfers +
           pods_[pod].dma_tx.stats().faulted_transfers;
  }

 private:
  struct PodSlice {
    std::unique_ptr<PlbEngine> plb;
    std::unique_ptr<SessionOffload> offload;  ///< null = not enabled
    std::unique_ptr<DpuTier> dpu;             ///< null = FPGA-only offload
    LbMode mode = LbMode::kPlb;
    DmaChannel dma_rx;
    DmaChannel dma_tx;
    std::uint16_t rx_queues = 1;
  };

  PodSlice& slice(PodId pod);
  EgressEmission finish_tx(PacketPtr pkt, NanoTime now, bool in_order,
                           bool was_plb);

  NicPipelineConfig cfg_;
  PktDir pkt_dir_;
  TenantRateLimiter limiter_;
  BasicPipeline basic_;
  std::vector<PodSlice> pods_;
  /// Reused per-call scratch for reorder write-back/drain emissions
  /// (egress_into / drain_expired_into); never holds state across calls.
  std::vector<ReorderEgress> reorder_scratch_;
};

}  // namespace albatross

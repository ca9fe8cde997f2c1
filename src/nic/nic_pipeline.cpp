#include "nic/nic_pipeline.hpp"

#include <stdexcept>

#include "common/hash.hpp"

namespace albatross {

NicPipeline::NicPipeline(NicPipelineConfig cfg)
    : cfg_(cfg), limiter_(cfg.gop), basic_(cfg.payload_slots) {
  cfg_.dma_rx.base_latency = cfg_.timings.dma_rx_base_ns();
  cfg_.dma_tx.base_latency = cfg_.timings.dma_tx_base_ns();
}

NicPipeline::PodSlice& NicPipeline::slice(PodId pod) {
  if (pod >= pods_.size()) {
    throw std::out_of_range("NicPipeline: unregistered pod");
  }
  return pods_[pod];
}

void NicPipeline::register_pod(PodId pod, const PlbEngineConfig& plb,
                               const PktDirConfig& dir, LbMode mode) {
  if (pods_.size() <= pod) pods_.resize(pod + 1);
  PodSlice& s = pods_[pod];
  s.plb = std::make_unique<PlbEngine>(plb);
  s.mode = mode;
  s.rx_queues = plb.num_rx_queues;
  s.dma_rx = DmaChannel(cfg_.dma_rx);
  s.dma_tx = DmaChannel(cfg_.dma_tx);
  pkt_dir_.configure_pod(pod, dir);
}

void NicPipeline::set_pod_mode(PodId pod, LbMode mode) {
  slice(pod).mode = mode;
}

LbMode NicPipeline::pod_mode(PodId pod) const { return pods_[pod].mode; }

void NicPipeline::enable_session_offload(PodId pod, SessionOffloadConfig cfg) {
  slice(pod).offload = std::make_unique<SessionOffload>(cfg);
}

bool NicPipeline::session_offload_enabled(PodId pod) const {
  return pod < pods_.size() && pods_[pod].offload != nullptr;
}

SessionOffload& NicPipeline::session_offload(PodId pod) {
  return *slice(pod).offload;
}

void NicPipeline::enable_dpu_tier(PodId pod, DpuTierConfig cfg) {
  PodSlice& s = slice(pod);
  if (s.offload == nullptr) {
    s.offload = std::make_unique<SessionOffload>(cfg.fpga);
  }
  s.dpu = std::make_unique<DpuTier>(cfg, *s.offload);
}

bool NicPipeline::dpu_tier_enabled(PodId pod) const {
  return pod < pods_.size() && pods_[pod].dpu != nullptr;
}

DpuTier& NicPipeline::dpu_tier(PodId pod) { return *slice(pod).dpu; }

NanoTime NicPipeline::rx_pipeline_latency(bool plb) const {
  NanoTime t = cfg_.timings.basic_rx_ns();
  if (cfg_.gop_enabled) t += cfg_.timings.overload_det_rx_ns();
  if (plb) t += cfg_.timings.plb_rx_ns();
  return t;
}

IngressResult NicPipeline::ingress(PacketPtr pkt, PodId pod, NanoTime now) {
  PodSlice& s = slice(pod);
  IngressResult r;
  pkt->pod = pod;

  // Basic pipeline RX: VLAN decap + parse/annotate (+ split later).
  std::optional<std::uint16_t> vlan;
  basic_.rx_process(*pkt, vlan);
  NanoTime t = now + cfg_.timings.basic_rx_ns();

  // Gateway overload protection: the rate limiter sees every data
  // packet before it can reach the CPU. Protocol packets bypass it.
  const PktDirDecision dir = pkt_dir_.classify_annotated(pod, *pkt);
  pkt->pkt_class = dir.cls;
  r.cls = dir.cls;

  if (dir.cls != PktClass::kPriority && cfg_.gop_enabled) {
    t += cfg_.timings.overload_det_rx_ns();
    const RlVerdict v = limiter_.admit(pkt->vni, now);
    if (v == RlVerdict::kDropStage2 || v == RlVerdict::kDropPreMeter) {
      r.outcome = IngressOutcome::kDroppedRateLimit;
      r.pkt = std::move(pkt);
      return r;
    }
  }

  // Offload fast path: with the DPU tier enabled the hierarchical
  // FPGA -> DPU lookup runs; otherwise the plain FPGA session table.
  // Either way a hit is matched, counted and forwarded without ever
  // crossing PCIe.
  if (dir.cls != PktClass::kPriority) {
    if (s.dpu != nullptr) {
      if (const auto sv = s.dpu->serve(pkt->tuple, pkt->size(), now, t)) {
        r.outcome = IngressOutcome::kOffloaded;
        r.deliver_time = t + sv->latency + cfg_.timings.basic_tx_ns();
        r.pkt = std::move(pkt);
        return r;
      }
    } else if (s.offload != nullptr) {
      if (const auto fpga_ns =
              s.offload->fast_path(pkt->tuple, pkt->size(), now)) {
        r.outcome = IngressOutcome::kOffloaded;
        r.deliver_time = t + *fpga_ns + cfg_.timings.basic_tx_ns();  // wire
        r.pkt = std::move(pkt);
        return r;
      }
    }
  }

  // Queue selection.
  if (dir.cls == PktClass::kPriority) {
    r.rx_queue = kPriorityQueue;
  } else if (dir.cls == PktClass::kPlb && s.mode == LbMode::kPlb) {
    t += cfg_.timings.plb_rx_ns();
    const auto d = s.plb->dispatch(*pkt, now);
    if (!d) {
      r.outcome = IngressOutcome::kDroppedReorderFull;
      r.pkt = std::move(pkt);
      return r;
    }
    r.rx_queue = d->rx_queue;
  } else {
    // RSS: flow-affine Toeplitz hash over the (inner) 5-tuple.
    r.rx_queue =
        static_cast<std::uint16_t>(rss_hash(pkt->tuple) % s.rx_queues);
    pkt->rx_queue = r.rx_queue;
  }

  // Header-payload split (data packets only) before the PCIe hop.
  if (dir.cls != PktClass::kPriority &&
      dir.delivery == DeliveryMode::kHeaderOnly) {
    PlbMeta meta;
    const bool had_meta = pkt->strip_plb_meta(meta);
    if (const auto slot_id = basic_.split(*pkt)) {
      meta.header_only = true;
      meta.payload_id = *slot_id;
    }
    if (had_meta || meta.header_only) pkt->attach_plb_meta(meta);
  }

  // DMA to host memory; per-pod channel (its VFs' share of the PCIe).
  r.deliver_time = s.dma_rx.transfer(t, pkt->size());
  pkt->nic_ingress_done = r.deliver_time;
  r.outcome = IngressOutcome::kDelivered;
  r.pkt = std::move(pkt);
  return r;
}

NanoTime NicPipeline::tx_submit(PodId pod, NanoTime now, std::size_t bytes) {
  return slice(pod).dma_tx.transfer(now, bytes);
}

EgressEmission NicPipeline::finish_tx(PacketPtr pkt, NanoTime now,
                                      bool in_order, bool was_plb) {
  EgressEmission e;
  e.wire_time = now + cfg_.timings.basic_tx_ns() +
                (was_plb ? cfg_.timings.plb_tx_ns() : NanoTime{});
  e.in_order = in_order;
  e.pkt = std::move(pkt);
  return e;
}

void NicPipeline::egress_into(PacketPtr pkt, PodId pod, NanoTime now,
                              std::vector<EgressEmission>& out) {
  PodSlice& s = slice(pod);

  PlbMeta meta;
  const bool has_meta = pkt->has_plb_meta() && pkt->peek_plb_meta(meta);
  if (!has_meta || s.mode == LbMode::kRss) {
    // RSS / priority path: no reordering, straight to the deparser.
    if (has_meta) pkt->strip_plb_meta(meta);
    if (basic_.tx_process(*pkt, meta, std::nullopt)) {
      out.push_back(finish_tx(std::move(pkt), now, true, false));
    }
    return;
  }

  // PLB path: legal check + reorder; the engine may emit several
  // packets (this one plus unblocked predecessors). The scratch vector
  // keeps its capacity across calls — egress runs once per packet, and
  // a fresh vector here showed up as an allocator hot spot.
  reorder_scratch_.clear();
  s.plb->writeback(std::move(pkt), now, reorder_scratch_);
  for (auto& e : reorder_scratch_) {
    if (e.pkt == nullptr) continue;
    if (basic_.tx_process(*e.pkt, e.meta, std::nullopt)) {
      out.push_back(finish_tx(std::move(e.pkt), now, e.in_order, true));
    }
    // tx_process returning false = payload already released (split
    // packet's best-effort drop), counted by BasicPipeline stats.
  }
}

void NicPipeline::drain_expired_into(PodId pod, NanoTime now,
                                     std::vector<EgressEmission>& out) {
  PodSlice& s = slice(pod);
  reorder_scratch_.clear();
  s.plb->drain_all(now, reorder_scratch_);
  for (auto& e : reorder_scratch_) {
    if (e.pkt == nullptr) continue;
    if (basic_.tx_process(*e.pkt, e.meta, std::nullopt)) {
      out.push_back(finish_tx(std::move(e.pkt), now, e.in_order, true));
    }
  }
}

std::optional<NanoTime> NicPipeline::next_reorder_deadline(PodId pod) const {
  if (pod >= pods_.size() || pods_[pod].plb == nullptr) return std::nullopt;
  const NanoTime deadline = pods_[pod].plb->next_deadline();
  if (deadline == NanoTime::max()) return std::nullopt;
  return deadline;
}

}  // namespace albatross

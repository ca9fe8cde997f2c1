#include "core/platform.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "container/pod_spec.hpp"

namespace albatross {

Platform::Platform(PlatformConfig cfg)
    : cfg_(cfg), cache_(cfg.cache, cfg.numa), nic_(cfg.nic) {
  tables_.populate(cfg_.tenants, cfg_.routes, cfg_.tables_data_cores);
  cache_.set_working_set_bytes(cfg_.working_set_bytes != 0
                                   ? cfg_.working_set_bytes
                                   : tables_.memory_bytes());
}

PodId Platform::create_pod(const GwPodConfig& pod_cfg,
                           std::uint16_t reorder_queues,
                           const PktDirConfig& dir, LbMode mode) {
  // Every RX-queue and core index is taken modulo the core count.
  if (pod_cfg.data_cores == 0) {
    throw std::runtime_error("gateway pod needs at least one data core");
  }
  const auto id = static_cast<PodId>(pods_.size());
  GwPodConfig cfg = pod_cfg;
  cfg.id = id;

  PlbEngineConfig plb;
  plb.num_rx_queues = cfg.data_cores;
  plb.num_reorder_queues = reorder_queues != 0
                               ? reorder_queues
                               : reorder_queues_for_cores(cfg.data_cores);
  // RSS-mode pods still register an engine: mode switching is a runtime
  // knob (§4.1 remediation 5, "PLB fallback to RSS").
  nic_.register_pod(id, plb, dir, mode);

  auto pod = std::make_unique<GwPod>(cfg, loop_, tables_, cache_);
  // Host drops release the DPU tier's in-flight handover credits (a
  // dropped packet can never be overtaken at the wire). Wired for every
  // pod because the tier can be enabled after creation.
  pod->set_drop_hook(
      [this, id](const FiveTuple& tuple, PktClass cls, NanoTime now) {
        if (nic_.dpu_tier_enabled(id) && cls != PktClass::kPriority) {
          nic_.dpu_tier(id).observe_host_drop(tuple, now);
        }
      });
  pod->set_egress([this, id](PacketPtr pkt, NanoTime submit) {
    const NanoTime at_fpga = nic_.tx_submit(id, submit, pkt->size());
    // The event owns the packet: a loop destroyed with it pending
    // frees it.
    auto egress = [this, id, pkt = std::move(pkt), at_fpga]() mutable {
      egress_scratch_.clear();
      nic_.egress_into(std::move(pkt), id, at_fpga, egress_scratch_);
      handle_emissions(egress_scratch_, id);
      arm_reorder_timer(id);
    };
    static_assert(InlineAction::kStoredInline<decltype(egress)>);
    loop_.schedule_at(at_fpga, std::move(egress));
  });
  pods_.push_back(std::move(pod));
  telemetry_.emplace_back();
  armed_deadline_.push_back(NanoTime{});
  offline_.push_back(false);
  return id;
}

void Platform::attach_source(std::unique_ptr<TrafficSource> src, PodId pod) {
  sources_.push_back(SourceBinding{std::move(src), pod});
  const std::size_t idx = sources_.size() - 1;
  const auto t = sources_[idx].src->next_time();
  if (t) {
    loop_.schedule_at(*t, [this, idx] { pump(idx); });
  }
}

void Platform::pump(std::size_t source_idx) {
  SourceBinding& b = sources_[source_idx];
  const std::size_t max_batch = std::clamp<std::size_t>(cfg_.ingress_batch, 1,
                                                        kMaxIngressBurst);
  const NanoTime window_end = loop_.now() + cfg_.ingress_batch_window;

  // Draw up to a batch of arrivals from this source; each keeps its
  // exact arrival timestamp. Arrivals past the window stay queued for
  // the next activation so the batch never reaches far ahead of the
  // clock.
  std::array<PacketPtr, kMaxIngressBurst> pkts;
  std::array<NanoTime, kMaxIngressBurst> at;
  std::size_t n = 0;
  while (n < max_batch) {
    const auto t = b.src->next_time();
    if (!t || (n > 0 && *t > window_end)) break;
    const NanoTime arrival = *t;
    PacketPtr pkt = b.src->emit();
    if (pkt != nullptr) {
      pkts[n] = std::move(pkt);
      at[n] = arrival;
      ++n;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    handle_ingress(std::move(pkts[i]), b.pod, at[i]);
  }

  const auto t = b.src->next_time();
  if (t) {
    loop_.schedule_at(*t, [this, source_idx] { pump(source_idx); });
  }
}

void Platform::handle_ingress(PacketPtr pkt, PodId pod, NanoTime now) {
  PodTelemetry& tel = telemetry_[pod];
  ++tel.offered;
  const Vni vni = pkt->vni;
  TenantCounters& tc = tenants_[vni];
  ++tc.offered;
  if (offline_[pod]) {
    // The pod is dead but routes still point at it: the packet vanishes.
    ++tel.blackholed;
    ++tc.dropped_other;
    return;
  }

  IngressResult r = nic_.ingress(std::move(pkt), pod, now);
  // Parsing may rewrite the VNI, so the outcome is charged to the
  // tenant the NIC saw (map references stay valid across inserts).
  TenantCounters& out_tc = r.pkt->vni == vni ? tc : tenants_[r.pkt->vni];
  switch (r.outcome) {
    case IngressOutcome::kDroppedRateLimit:
      ++tel.dropped_rate_limit;
      ++out_tc.dropped_rate_limit;
      return;
    case IngressOutcome::kDroppedReorderFull:
      ++tel.dropped_reorder_full;
      ++out_tc.dropped_other;
      return;
    case IngressOutcome::kOffloaded: {
      // Handled entirely on the NIC (FPGA session offload or DPU tier):
      // deliver_time is the wire time; count it like any other delivery.
      ++tel.delivered;
      ++tel.delivered_in_order;
      tel.wire_latency.record(r.deliver_time - r.pkt->rx_time);
      ++out_tc.delivered;
      if (order_oracle_) {
        // Record at the *wire* time, not here: ingress batching can
        // process this arrival before a CPU forward of the same flow
        // that egresses earlier in real time, and recording now would
        // count that as an inversion the wire never saw.
        const std::uint64_t fid = r.pkt->flow_id;
        const std::uint64_t seq = r.pkt->seq_in_flow;
        if (r.deliver_time <= loop_.now()) {
          oracle_record(fid, seq, pod);
        } else {
          loop_.schedule_at(r.deliver_time, [this, fid, seq, pod] {
            oracle_record(fid, seq, pod);
          });
        }
      }
      return;
    }
    case IngressOutcome::kDelivered:
      break;
  }
  arm_reorder_timer(pod);

  const std::uint16_t q = r.rx_queue;
  const NanoTime at = r.deliver_time;
  auto deliver = [this, pkt = std::move(r.pkt), pod, q, at]() mutable {
    pods_[pod]->deliver(std::move(pkt), q, at);
  };
  static_assert(InlineAction::kStoredInline<decltype(deliver)>);
  loop_.schedule_at(at, std::move(deliver));
}

void Platform::handle_emissions(std::vector<EgressEmission>& emissions,
                                PodId pod) {
  PodTelemetry& tel = telemetry_[pod];
  const bool tiered = nic_.dpu_tier_enabled(pod);
  const bool offload = nic_.session_offload_enabled(pod);
  for (auto& e : emissions) {
    if (e.pkt == nullptr) continue;
    if (tiered && e.pkt->pkt_class != PktClass::kPriority) {
      // Hierarchical tier: CPU forwards feed the controller's mice
      // filter and in-flight handover gate instead of installing the
      // session directly. The credit lands at the packet's *wire* time,
      // not the emission-processing time: an admission opened by this
      // forward must not take effect while the packet still sits in the
      // deparser/TX residue, or a DPU-served successor arriving inside
      // that window would overtake it on the wire.
      const FiveTuple tuple = e.pkt->tuple;
      const NanoTime wire = e.wire_time;
      if (wire <= loop_.now()) {
        nic_.dpu_tier(pod).observe_forward(tuple, wire);
      } else {
        loop_.schedule_at(wire, [this, pod, tuple, wire] {
          if (nic_.dpu_tier_enabled(pod)) {
            nic_.dpu_tier(pod).observe_forward(tuple, wire);
          }
        });
      }
    } else if (offload && e.pkt->pkt_class != PktClass::kPriority) {
      // Self-learning session offload: the first CPU-forwarded packet of
      // a flow installs its session on the FPGA; later packets take the
      // NIC-only fast path.
      nic_.session_offload(pod).install(e.pkt->tuple, 0,
                                        loop_.now());
    }
    ++tel.delivered;
    e.in_order ? ++tel.delivered_in_order : ++tel.delivered_disordered;
    const NanoTime latency = e.wire_time - e.pkt->rx_time;
    tel.wire_latency.record(latency);
    ++tenants_[e.pkt->vni].delivered;

    if (order_oracle_) oracle_record(e.pkt->flow_id, e.pkt->seq_in_flow, pod);
  }
}

void Platform::oracle_record(std::uint64_t flow_id, std::uint64_t seq_in_flow,
                             PodId pod) {
  // Oracle: per-flow sequence must be non-decreasing at the wire.
  // Recording order stands in for wire order: offloaded packets are
  // recorded at their exact wire time, and every CPU-path packet's
  // remaining latency-to-wire exceeds the deparser residue of the
  // previously recorded packet, so an inversion in recording order is a
  // real one.
  auto [it, fresh] = last_seq_.try_emplace(flow_id, 0);
  if (!fresh && seq_in_flow < it->second) {
    ++telemetry_[pod].flow_order_violations;
  }
  if (fresh || seq_in_flow > it->second) {
    it->second = seq_in_flow;
  }
}

void Platform::arm_reorder_timer(PodId pod) {
  const auto deadline = nic_.next_reorder_deadline(pod);
  if (!deadline) {
    armed_deadline_[pod] = NanoTime{};
    return;
  }
  if (armed_deadline_[pod] != NanoTime{} && armed_deadline_[pod] <= *deadline) {
    return;  // an earlier (or equal) timer is already pending
  }
  armed_deadline_[pod] = *deadline;
  const NanoTime at = *deadline + Nanos{1};  // strictly past the timeout
  loop_.schedule_at(at, [this, pod, at] {
    if (armed_deadline_[pod] == NanoTime{} || armed_deadline_[pod] + Nanos{1} != at) {
      // Superseded by an earlier timer; the structure re-arms below
      // regardless, so stale timers are cheap no-ops.
    }
    armed_deadline_[pod] = NanoTime{};
    egress_scratch_.clear();
    nic_.drain_expired_into(pod, loop_.now(), egress_scratch_);
    handle_emissions(egress_scratch_, pod);
    arm_reorder_timer(pod);
  });
}

void Platform::set_pod_offline(PodId pod, bool offline) {
  offline_[pod] = offline;
}

const TenantCounters& Platform::tenant(Vni vni) const {
  const auto it = tenants_.find(vni);
  return it != tenants_.end() ? it->second : no_tenant_;
}

void Platform::run_until(NanoTime until) { loop_.run_until(until); }

void Platform::enable_housekeeping(NanoTime period) {
  schedule_periodic(loop_, period, [this] {
    const NanoTime now = loop_.now();
    for (auto& table : tables_.per_core_conntrack) {
      housekeeping_reclaimed_ += table->age(now);
    }
    for (PodId pod = 0; pod < pods_.size(); ++pod) {
      if (nic_.session_offload_enabled(pod)) {
        housekeeping_reclaimed_ += nic_.session_offload(pod).age(now);
      }
      if (nic_.dpu_tier_enabled(pod)) {
        housekeeping_reclaimed_ += nic_.dpu_tier(pod).age(now);
      }
    }
    return true;  // run for the platform's lifetime
  });
}

void Platform::reset_telemetry() {
  for (auto& t : telemetry_) t = PodTelemetry{};
  tenants_.clear();
  last_seq_.clear();
}

}  // namespace albatross

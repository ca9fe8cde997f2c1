// albatross::Platform — the public façade a downstream user drives.
//
// It assembles one Albatross server: the FPGA NIC pipeline, containerized
// GW pods on the dual-NUMA CPU model, the shared forwarding tables and
// the telemetry needed to reproduce the paper's evaluation (end-to-end
// latency distribution, per-flow order verification, per-tenant
// delivery/drop accounting, per-core utilisation).
//
// Typical use (see examples/quickstart.cpp):
//   Platform platform(PlatformConfig{});
//   PodId pod = platform.create_pod(pod_cfg);
//   platform.attach_source(std::move(source), pod);
//   platform.run_for(2 * kSecond);
//   const PodTelemetry& t = platform.telemetry(pod);
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/histogram.hpp"
#include "gateway/gw_pod.hpp"
#include "nic/nic_pipeline.hpp"
#include "sim/cache_model.hpp"
#include "sim/event_loop.hpp"
#include "traffic/flow_gen.hpp"

namespace albatross {

struct PlatformConfig {
  NumaConfig numa;
  CacheConfig cache;
  NicPipelineConfig nic;
  std::uint32_t tenants = 1000;
  std::uint32_t routes = 100'000;
  std::uint16_t tables_data_cores = 96;  ///< conntrack partitions
  /// Cache-model working set. Scaled-down experiments populate far
  /// smaller tables than production, so the default pins the paper's
  /// regime (several GB -> 30-45% L3 hit rate). Set to 0 to derive the
  /// working set from the actual populated tables instead.
  std::uint64_t working_set_bytes = 4ull << 30;
  /// Source pump batching: one event-loop activation draws up to this
  /// many arrivals from a source (clamped to Platform::kMaxIngressBurst)
  /// and runs each through NicPipeline::ingress at its exact arrival
  /// time. 1 = one event per packet. The batch size only changes how
  /// many arrivals the host amortizes per activation — like NAPI polling
  /// vs per-packet interrupts — never a packet's outcome or timestamps;
  /// tests/test_burst_diff.cpp checks that invariance over the one path.
  std::size_t ingress_batch = 32;
  /// Arrivals later than this past the batch head are left for the next
  /// pump activation, bounding how far ahead of the virtual clock a
  /// batch may reach.
  NanoTime ingress_batch_window = 4 * kMicrosecond;
};

/// Per-pod end-to-end measurements.
struct PodTelemetry {
  LogHistogram wire_latency;         ///< rx_time -> wire, ns
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delivered_in_order = 0;
  std::uint64_t delivered_disordered = 0;
  std::uint64_t dropped_rate_limit = 0;
  std::uint64_t dropped_reorder_full = 0;
  std::uint64_t blackholed = 0;  ///< arrived while the pod was offline
  std::uint64_t flow_order_violations = 0;  ///< oracle per-flow check

  [[nodiscard]] double disorder_rate() const {
    return delivered ? static_cast<double>(delivered_disordered) /
                           static_cast<double>(delivered)
                     : 0.0;
  }
};

/// Per-tenant delivery accounting (Fig. 13/14).
struct TenantCounters {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_rate_limit = 0;
  std::uint64_t dropped_other = 0;
};

class Platform {
 public:
  /// Most arrivals one pump activation draws (caps ingress_batch).
  static constexpr std::size_t kMaxIngressBurst = 32;

  explicit Platform(PlatformConfig cfg = {});

  /// Creates a pod; its PLB engine geometry defaults from the spec
  /// (reorder queues proportional to cores). Throws std::runtime_error
  /// when the pod has no data cores.
  PodId create_pod(const GwPodConfig& pod_cfg,
                   std::uint16_t reorder_queues = 0,
                   const PktDirConfig& dir = {},
                   LbMode mode = LbMode::kPlb);

  /// Attaches a traffic source feeding `pod`; ownership transfers.
  void attach_source(std::unique_ptr<TrafficSource> src, PodId pod);

  /// Runs the simulation until virtual time `until`.
  void run_until(NanoTime until);
  void run_for(NanoTime duration) { run_until(loop_.now() + duration); }

  // --- accessors ---------------------------------------------------------
  EventLoop& loop() { return loop_; }
  NicPipeline& nic() { return nic_; }
  CacheModel& cache() { return cache_; }
  ServiceTables& tables() { return tables_; }
  GwPod& pod(PodId id) { return *pods_[id]; }
  [[nodiscard]] const PodTelemetry& telemetry(PodId id) const {
    return telemetry_[id];
  }
  [[nodiscard]] const TenantCounters& tenant(Vni vni) const;
  [[nodiscard]] std::size_t pod_count() const { return pods_.size(); }

  /// Enables the per-flow order oracle (tracks last seq per flow at the
  /// wire; costs memory, off by default for large runs).
  void enable_order_oracle(bool on) { order_oracle_ = on; }

  /// Resets telemetry counters/histograms (post-warmup).
  void reset_telemetry();

  /// Fault injection (chaos subsystem): an offline pod blackholes its
  /// ingress — packets are counted in PodTelemetry::blackholed and
  /// freed, exactly what upstream routers see between a pod dying and
  /// its routes being withdrawn.
  void set_pod_offline(PodId pod, bool offline);
  [[nodiscard]] bool pod_offline(PodId pod) const { return offline_[pod]; }

  /// Starts the ctrl-core housekeeping loop: periodic aging of per-core
  /// conntrack partitions and (when enabled) the FPGA session-offload
  /// table — the table-aging work Tofino could not do on-chip (§2.1)
  /// and Albatross runs on its ctrl cores.
  void enable_housekeeping(NanoTime period = 500 * kMillisecond);
  [[nodiscard]] std::uint64_t housekeeping_reclaimed() const {
    return housekeeping_reclaimed_;
  }

 private:
  void pump(std::size_t source_idx);
  /// Counts one arrival, runs it through the NIC and schedules the pod
  /// delivery event for a packet that reaches the host.
  void handle_ingress(PacketPtr pkt, PodId pod, NanoTime now);
  /// Order-oracle bookkeeping for one wire delivery (CPU egress AND
  /// NIC-resident tier/offload serves — recording both is what lets the
  /// oracle catch a fast-path packet overtaking its flow's slow-path
  /// predecessor).
  void oracle_record(std::uint64_t flow_id, std::uint64_t seq_in_flow,
                     PodId pod);
  /// Consumes the emissions in place (packets are counted and freed);
  /// callers pass the reused egress_scratch_ buffer.
  void handle_emissions(std::vector<EgressEmission>& emissions, PodId pod);
  void arm_reorder_timer(PodId pod);

  PlatformConfig cfg_;
  EventLoop loop_;
  CacheModel cache_;
  NicPipeline nic_;
  ServiceTables tables_;
  std::vector<std::unique_ptr<GwPod>> pods_;
  std::vector<PodTelemetry> telemetry_;
  std::unordered_map<Vni, TenantCounters> tenants_;
  TenantCounters no_tenant_;

  struct SourceBinding {
    std::unique_ptr<TrafficSource> src;
    PodId pod;
  };
  std::vector<SourceBinding> sources_;

  /// Reused per-event scratch for egress emissions: cleared before each
  /// egress_into/drain_expired_into call, keeping its capacity so the
  /// per-packet TX path never touches the allocator.
  std::vector<EgressEmission> egress_scratch_;

  std::vector<NanoTime> armed_deadline_;  ///< per pod, 0 = none
  std::vector<bool> offline_;             ///< per pod blackhole switch

  bool order_oracle_ = false;
  std::uint64_t housekeeping_reclaimed_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> last_seq_;  // flow->seq
};

}  // namespace albatross

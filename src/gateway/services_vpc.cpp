// Concrete implementations of the four Tab. 2 gateway services. Each
// runs a chain of real table lookups (functional correctness) and
// charges per-packet CPU time from the calibrated profile plus sampled
// memory-access latencies (performance model).
#include "gateway/service.hpp"

namespace albatross {
namespace {

class BaseVpcService : public Service {
 public:
  BaseVpcService(ServiceKind kind, ServiceTables& tables, CacheModel& cache,
                 NumaNodeId numa_node, ServiceFaults faults)
      : kind_(kind),
        tables_(tables),
        cache_(cache),
        numa_(numa_node),
        faults_(faults),
        profile_(service_profile(kind)) {}

  [[nodiscard]] ServiceKind kind() const override { return kind_; }

  ServiceOutcome process(Packet& pkt, CoreId core, bool flow_affine,
                         NanoTime now, Rng& rng) override {
    ServiceOutcome out;
    out.cpu_ns = cost_model(flow_affine, rng);
    out.action = forward(pkt, core, now);
    return out;
  }

 protected:
  /// Service-specific functional chain; returns drop/forward.
  virtual ServiceAction forward(Packet& pkt, CoreId core, NanoTime now) = 0;

  /// Per-packet CPU-time model: calibrated base cost + sampled memory
  /// accesses + heavy-tail jitter (interrupts, TLB, allocator slow
  /// paths) + the §4.1 corner-case slow branch.
  NanoTime cost_model(bool flow_affine, Rng& rng) {
    NanoTime cpu = profile_.base_ns;
    for (std::uint16_t i = 0; i < profile_.mem_accesses; ++i) {
      cpu += cache_.access_latency(rng, numa_, numa_, flow_affine);
    }
    if (rng.next_bool(faults_.jitter_probability)) {
      auto jitter = Nanos{static_cast<std::int64_t>(rng.next_pareto(
          static_cast<double>(faults_.jitter_scale_ns.count()),
          faults_.jitter_pareto_alpha))};
      if (faults_.jitter_cap_ns.count() > 0 && jitter > faults_.jitter_cap_ns) {
        jitter = faults_.jitter_cap_ns;
      }
      cpu += jitter;
    }
    if (faults_.slow_branch_probability > 0.0 &&
        rng.next_bool(faults_.slow_branch_probability)) {
      cpu += faults_.slow_branch_ns;
    }
    return cpu;
  }

  [[nodiscard]] ServiceAction acl_gate(const Packet& pkt) const {
    return tables_.acl.evaluate(pkt.tuple) == AclAction::kDeny
               ? ServiceAction::kDrop
               : ServiceAction::kForward;
  }

  ServiceKind kind_;
  ServiceTables& tables_;
  CacheModel& cache_;
  NumaNodeId numa_;
  ServiceFaults faults_;
  ServiceProfile profile_;
};

/// VPC-VPC: decap -> VM-NC lookup for the peer VM -> VXLAN route ->
/// re-encap toward the destination NC.
class VpcVpcService final : public BaseVpcService {
 public:
  using BaseVpcService::BaseVpcService;

 private:
  ServiceAction forward(Packet& pkt, CoreId, NanoTime) override {
    if (acl_gate(pkt) == ServiceAction::kDrop) return ServiceAction::kDrop;
    // Locate the sending VM (validates the tenant) and route the inner
    // destination through the VXLAN routing table.
    (void)tables_.vm_nc.lookup(pkt.vni, pkt.tuple.src_ip);
    (void)tables_.vxlan_routes.lookup(pkt.tuple.dst_ip);
    return ServiceAction::kForward;
  }
};

/// VPC-Internet: decap -> conntrack/SNAT -> public route -> encap. The
/// longest chain (Tab. 3's 81.6 Mpps).
class VpcInternetService final : public BaseVpcService {
 public:
  using BaseVpcService::BaseVpcService;

 private:
  ServiceAction forward(Packet& pkt, CoreId core, NanoTime now) override {
    if (acl_gate(pkt) == ServiceAction::kDrop) return ServiceAction::kDrop;
    (void)tables_.vm_nc.lookup(pkt.vni, pkt.tuple.src_ip);
    // Per-core conntrack (§7: local state, no cross-core sharing).
    if (core.index() < tables_.per_core_conntrack.size()) {
      FlowState* st =
          tables_.per_core_conntrack[core.index()]->lookup(pkt.tuple, now);
      if (st != nullptr && st->nat_ip == 0) {
        // First packet: allocate a SNAT translation.
        st->nat_ip = 0x0101'0101u + (pkt.vni & 0xff);
        st->nat_port =
            static_cast<std::uint16_t>(1024 + (st->created.count() & 0x7fff));
      }
      if (st != nullptr) {
        ++st->packets;
        st->bytes += pkt.size();
      }
    }
    (void)tables_.internet_routes.lookup(pkt.tuple.dst_ip);
    return ServiceAction::kForward;
  }
};

/// VPC-IDC: decap -> VXLAN route toward the customer's IDC CPE -> encap.
class VpcIdcService final : public BaseVpcService {
 public:
  using BaseVpcService::BaseVpcService;

 private:
  ServiceAction forward(Packet& pkt, CoreId, NanoTime) override {
    if (acl_gate(pkt) == ServiceAction::kDrop) return ServiceAction::kDrop;
    (void)tables_.vxlan_routes.lookup(pkt.tuple.dst_ip);
    (void)tables_.vm_nc.lookup(pkt.vni, pkt.tuple.src_ip);
    return ServiceAction::kForward;
  }
};

/// VPC-CloudService: decap -> VM-NC -> cloud-service endpoint route.
class VpcCloudService final : public BaseVpcService {
 public:
  using BaseVpcService::BaseVpcService;

 private:
  ServiceAction forward(Packet& pkt, CoreId, NanoTime) override {
    if (acl_gate(pkt) == ServiceAction::kDrop) return ServiceAction::kDrop;
    (void)tables_.vm_nc.lookup(pkt.vni, pkt.tuple.src_ip);
    (void)tables_.internet_routes.lookup(pkt.tuple.dst_ip);
    return ServiceAction::kForward;
  }
};

}  // namespace

std::unique_ptr<Service> make_service(ServiceKind kind, ServiceTables& tables,
                                      CacheModel& cache,
                                      NumaNodeId numa_node,
                                      ServiceFaults faults) {
  switch (kind) {
    case ServiceKind::kVpcVpc:
      return std::make_unique<VpcVpcService>(kind, tables, cache, numa_node,
                                             faults);
    case ServiceKind::kVpcInternet:
      return std::make_unique<VpcInternetService>(kind, tables, cache,
                                                  numa_node, faults);
    case ServiceKind::kVpcIdc:
      return std::make_unique<VpcIdcService>(kind, tables, cache, numa_node,
                                             faults);
    case ServiceKind::kVpcCloudService:
      return std::make_unique<VpcCloudService>(kind, tables, cache,
                                               numa_node, faults);
  }
  return nullptr;
}

}  // namespace albatross

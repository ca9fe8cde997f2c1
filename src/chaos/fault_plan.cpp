#include "chaos/fault_plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace albatross {

namespace {

constexpr std::string_view kKindNames[kFaultKindCount] = {
    "pod_crash",    "core_stall", "nic_reorder_stuck", "nic_dma_error",
    "link_flap",    "bgp_reset",  "bfd_timeout",       "hitter_storm",
    "dpu_core_stall", "tier_table_flush",
};

}  // namespace

std::string_view fault_kind_name(FaultKind k) {
  return kKindNames[static_cast<std::size_t>(k)];
}

FaultKind fault_kind_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kFaultKindCount; ++i) {
    if (kKindNames[i] == name) return static_cast<FaultKind>(i);
  }
  throw std::runtime_error("unknown fault kind: " + std::string(name));
}

void FaultPlan::sort() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
}

}  // namespace albatross

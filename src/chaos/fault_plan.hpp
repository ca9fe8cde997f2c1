// FaultPlan: a deterministic script of fault events for the chaos
// subsystem. Every failure mode the paper's availability story touches
// is representable — GW pod crash (§7 elasticity), data-core stall,
// NIC module faults (reorder engine stuck / DMA degradation, §4.1),
// link flap, BGP session reset and BFD false positives (§4.3), and a
// heavy-hitter storm (§4.2) — as (time, kind, target, duration,
// magnitude) tuples. Scenario files carry them as a fleet spec's
// "faults" array (fleet/fleet_spec.hpp owns the JSON codec); a chaos
// plan is a one-AZ fleet spec.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace albatross {

enum class FaultKind : std::uint8_t {
  kPodCrash,        ///< gateway pod dies; traffic blackholes until reroute
  kCoreStall,       ///< data cores wedge for `duration` (lock/GC analogue)
  kNicReorderStuck, ///< FPGA reorder module frozen for `duration`
  kNicDmaError,     ///< PCIe DMA degraded `magnitude`x for `duration`
  kLinkFlap,        ///< server uplink down for `duration`
  kBgpReset,        ///< pod iBGP sessions reset; control-plane only
  kBfdTimeout,      ///< BFD probes suppressed (false positive detection)
  kHitterStorm,     ///< heavy hitter at `magnitude` pps for `duration`
  kDpuCoreStall,    ///< DPU datapath core `magnitude` wedged for `duration`
  kTierTableFlush,  ///< DPU tier session table wiped (datapath restart)
};

inline constexpr std::size_t kFaultKindCount = 10;

[[nodiscard]] std::string_view fault_kind_name(FaultKind k);
/// Throws std::runtime_error on an unknown name.
[[nodiscard]] FaultKind fault_kind_from_name(std::string_view name);

struct FaultEvent {
  NanoTime at = NanoTime{0};          ///< injection time
  FaultKind kind = FaultKind::kPodCrash;
  std::uint16_t gateway = 0;  ///< harness gateway index
  NanoTime duration = NanoTime{0};      ///< fault window; 0 = permanent (pod crash)
  double magnitude = 0.0;     ///< kind-specific: slowdown, pps, core count
};

/// An ordered fault script.
struct FaultPlan {
  std::vector<FaultEvent> events;

  /// Sorts events by injection time (stable: script order breaks ties).
  void sort();
};

}  // namespace albatross

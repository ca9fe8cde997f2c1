// Burst-size invariance: there is one datapath, and the batch size only
// decides how many packets one event-loop activation handles (the ingress
// pump batch, PacketRing bursts and the pod burst run loop feeding
// Service::process_burst). It must be behaviourally invisible. For each
// seeded trace we run the identical op list at rx_burst=1 (one activation
// per packet) and rx_burst=32 and require the full packet-conservation
// ledgers, verdicts, and violation counts to match field-for-field
// (docs/BURST_API.md). 100+ seeds across chaos modes so a batching bug
// that only shows under faults (partial bursts, mid-burst stalls) still
// trips the diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "check/fuzz.hpp"
#include "check/testseed.hpp"
#include "check/trace_gen.hpp"

namespace albatross {
namespace {

using check::ChaosMode;
using check::FuzzReport;
using check::FuzzTrace;
using check::PodLedger;

std::string ledger_str(const PodLedger& l) {
  return "offered=" + std::to_string(l.offered) +
         " delivered=" + std::to_string(l.delivered) +
         " in_order=" + std::to_string(l.delivered_in_order) +
         " disordered=" + std::to_string(l.delivered_disordered) +
         " drop_rl=" + std::to_string(l.dropped_rate_limit) +
         " drop_reorder=" + std::to_string(l.dropped_reorder_full) +
         " blackholed=" + std::to_string(l.blackholed) +
         " order_viol=" + std::to_string(l.flow_order_violations) +
         " pod_proc=" + std::to_string(l.pod_processed) +
         " pod_fwd=" + std::to_string(l.pod_forwarded) +
         " pod_drop_svc=" + std::to_string(l.pod_dropped_service) +
         " pod_drop_ring=" + std::to_string(l.pod_dropped_ring) +
         " pod_proto=" + std::to_string(l.pod_protocol_packets) +
         " pod_dflags=" + std::to_string(l.pod_drop_flags_sent);
}

/// Runs one generated trace at two burst sizes and diffs the reports.
void expect_burst_invariant(std::uint64_t seed, ChaosMode chaos,
                            std::size_t burst) {
  FuzzTrace trace = check::generate_trace(seed, 1500, chaos);

  trace.scenario.rx_burst = 1;
  const FuzzReport base = check::run_trace(trace);

  trace.scenario.rx_burst = burst;
  const FuzzReport batched = check::run_trace(trace);

  EXPECT_EQ(base.violations, batched.violations);
  EXPECT_EQ(base.violated(), batched.violated());
  EXPECT_EQ(base.packets, batched.packets);
  EXPECT_EQ(base.offered, batched.offered);
  EXPECT_EQ(base.delivered, batched.delivered);
  EXPECT_EQ(base.ledger_checked, batched.ledger_checked);
  EXPECT_TRUE(base.ledger == batched.ledger)
      << "burst=1:       " << ledger_str(base.ledger) << "\n"
      << "burst=" << burst << ":      " << ledger_str(batched.ledger);
}

class BurstDiffSeeds : public ::testing::TestWithParam<std::uint64_t> {};

// 50 base seeds x {none, benign} = 100 differential runs, each diffing a
// full trace execution at burst 1 vs 32.
TEST_P(BurstDiffSeeds, CleanTraceLedgerIdenticalAtBurst32) {
  const std::uint64_t seed = check::test_seed(GetParam());
  SCOPED_TRACE(check::seed_banner(seed));
  expect_burst_invariant(seed, ChaosMode::kNone, 32);
}

TEST_P(BurstDiffSeeds, BenignChaosLedgerIdenticalAtBurst32) {
  const std::uint64_t seed = check::test_seed(GetParam());
  SCOPED_TRACE(check::seed_banner(seed));
  expect_burst_invariant(seed, ChaosMode::kBenign, 32);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BurstDiffSeeds,
                         ::testing::Range(std::uint64_t{100},
                                          std::uint64_t{150}));

// Awkward burst sizes (not matching ring geometry, prime, single-slot
// rings of credit pressure) on a few seeds: partial tail bursts and
// wrap-around paths must also be invisible.
class BurstSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BurstSizeSweep, OddBurstSizesLedgerIdentical) {
  const std::uint64_t seed = check::test_seed(7);
  SCOPED_TRACE(check::seed_banner(seed));
  expect_burst_invariant(seed, ChaosMode::kBenign, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BurstSizeSweep,
                         ::testing::Values(std::size_t{2}, std::size_t{3},
                                           std::size_t{7}, std::size_t{13},
                                           std::size_t{64},
                                           std::size_t{256}));

// The reorder-stall chaos mode intentionally breaks an invariant; the
// differential requirement still holds — both burst sizes must catch the
// SAME violation with the SAME ledger.
TEST(BurstDiffViolation, ReorderStallCaughtIdenticallyAtBothBursts) {
  const std::uint64_t seed = check::test_seed(42);
  SCOPED_TRACE(check::seed_banner(seed));
  FuzzTrace trace = check::generate_trace(seed, 4000, ChaosMode::kNone);
  // The stall wedges the PLB reorder check; force PLB since some seeds
  // draw the RSS baseline, which has no reorder engine.
  trace.scenario.mode = LbMode::kPlb;

  // Deterministic mid-run stall well past the 100us HOL timeout.
  check::TraceOp stall;
  stall.kind = check::TraceOpKind::kReorderStall;
  stall.at = trace.scenario.horizon / 4;
  stall.duration = 600 * kMicrosecond;
  trace.ops.push_back(stall);
  std::stable_sort(
      trace.ops.begin(), trace.ops.end(),
      [](const check::TraceOp& a, const check::TraceOp& b) {
        return a.at < b.at;
      });

  trace.scenario.rx_burst = 1;
  const FuzzReport base = check::run_trace(trace);
  trace.scenario.rx_burst = 32;
  const FuzzReport batched = check::run_trace(trace);

  EXPECT_TRUE(base.violated());
  EXPECT_TRUE(batched.violated());
  EXPECT_EQ(base.violations, batched.violations);
  EXPECT_TRUE(base.ledger == batched.ledger)
      << "burst=1:  " << ledger_str(base.ledger) << "\n"
      << "burst=32: " << ledger_str(batched.ledger);
}

}  // namespace
}  // namespace albatross

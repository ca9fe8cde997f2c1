// Reorder-engine unit tests: the paper's FIFO/BUF/BITMAP semantics,
// the four reorder-check cases, the legal check and its deliberate
// 12-bit aliasing, drop-flag releases and FIFO-full ingress drops.
#include <gtest/gtest.h>

#include <set>

#include "nic/plb_dispatch.hpp"
#include "nic/plb_reorder.hpp"

namespace albatross {
namespace {

PlbMeta meta_of(Psn psn, bool drop = false) {
  PlbMeta m;
  m.psn = psn;
  m.drop = drop;
  return m;
}

TEST(ReorderQueue, InOrderPassThrough) {
  ReorderQueue q(16, kReorderTimeout);
  std::vector<ReorderEgress> out;
  for (Psn i = 0; i < 8; ++i) {
    EXPECT_EQ(q.reserve(i * NanoTime{10}), i);
  }
  EXPECT_EQ(q.in_flight(), 8u);
  for (Psn i = 0; i < 8; ++i) {
    q.writeback(Packet::make_synthetic(FiveTuple{}, 1, 64), meta_of(i), Nanos{100},
                out);
    q.drain(Nanos{100}, out);
  }
  EXPECT_EQ(out.size(), 8u);
  for (const auto& e : out) EXPECT_TRUE(e.in_order);
  EXPECT_EQ(q.in_flight(), 0u);
  EXPECT_EQ(q.stats().in_order_tx, 8u);
  EXPECT_EQ(q.stats().best_effort_tx, 0u);
}

TEST(ReorderQueue, OutOfOrderWritebacksAreReordered) {
  ReorderQueue q(16, kReorderTimeout);
  std::vector<ReorderEgress> out;
  for (Psn i = 0; i < 4; ++i) q.reserve(Nanos{0});
  // Return 2,3 first: nothing may leave (Case 2 at head).
  q.writeback(Packet::make_synthetic(FiveTuple{}, 1, 64), meta_of(2), Nanos{10}, out);
  q.drain(Nanos{10}, out);
  q.writeback(Packet::make_synthetic(FiveTuple{}, 1, 64), meta_of(3), Nanos{11}, out);
  q.drain(Nanos{11}, out);
  EXPECT_TRUE(out.empty());
  // Return 0: 0 leaves; 1 still blocks 2,3.
  q.writeback(Packet::make_synthetic(FiveTuple{}, 1, 64), meta_of(0), Nanos{12}, out);
  q.drain(Nanos{12}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].meta.psn, 0u);
  // Return 1: 1,2,3 all leave in order.
  q.writeback(Packet::make_synthetic(FiveTuple{}, 1, 64), meta_of(1), Nanos{13}, out);
  q.drain(Nanos{13}, out);
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(out[i].in_order);
    EXPECT_EQ(out[i].meta.psn, i);
  }
}

TEST(ReorderQueue, Case1TimeoutReleasesHead) {
  ReorderQueue q(16, 100 * kMicrosecond);
  std::vector<ReorderEgress> out;
  q.reserve(Nanos{0});          // psn 0, never returned
  q.reserve(Nanos{0});          // psn 1
  q.writeback(Packet::make_synthetic(FiveTuple{}, 1, 64), meta_of(1), Nanos{10}, out);
  q.drain(Nanos{10}, out);
  EXPECT_TRUE(out.empty());  // HOL: psn 0 blocks
  // Before the deadline nothing moves.
  q.drain(99 * kMicrosecond, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(q.head_deadline(), 100 * kMicrosecond);
  // Past the deadline the head is released and psn 1 flows out in order.
  q.drain(101 * kMicrosecond, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].meta.psn, 1u);
  EXPECT_EQ(q.stats().timeout_releases, 1u);
  EXPECT_EQ(q.head_deadline(), NanoTime::max());
}

TEST(ReorderQueue, LateArrivalFailsLegalCheckAndGoesBestEffort) {
  ReorderQueue q(16, 100 * kMicrosecond);
  std::vector<ReorderEgress> out;
  q.reserve(Nanos{0});  // psn 0
  q.drain(200 * kMicrosecond, out);  // timeout releases it
  EXPECT_EQ(q.stats().timeout_releases, 1u);
  out.clear();
  // The packet finally comes back: window empty -> legal check fails ->
  // best-effort transmission.
  q.writeback(Packet::make_synthetic(FiveTuple{}, 1, 64), meta_of(0),
              210 * kMicrosecond, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].in_order);
  EXPECT_EQ(q.stats().legal_check_fail, 1u);
  EXPECT_EQ(q.stats().best_effort_tx, 1u);
}

TEST(ReorderQueue, Case3AliasedStalePacket) {
  // Small queue (8 entries) so PSN aliasing is easy to construct: a
  // stale packet with psn = head-8 has the same low-3 bits as head.
  ReorderQueue q(8, kReorderTimeout);
  std::vector<ReorderEgress> out;
  // Fill and time out the first 8 packets (never returned).
  for (int i = 0; i < 8; ++i) q.reserve(Nanos{0});
  q.drain(kReorderTimeout + NanoTime{1}, out);
  EXPECT_EQ(q.stats().timeout_releases, 8u);
  EXPECT_TRUE(out.empty());
  // Reserve the next window: psn 8..15 at t=200us.
  for (int i = 0; i < 8; ++i) q.reserve(200 * kMicrosecond);
  // Stale psn 0 returns: (0 - 8) & 7 == 0 -> aliases onto slot of psn 8
  // and passes the legal check.
  q.writeback(Packet::make_synthetic(FiveTuple{}, 1, 64), meta_of(0),
              201 * kMicrosecond, out);
  EXPECT_EQ(q.stats().legal_check_alias, 1u);
  EXPECT_TRUE(out.empty());
  // Reorder check at head: BITMAP valid but full PSN mismatch -> Case 3:
  // stale goes out best-effort, head keeps waiting for the true psn 8.
  q.drain(202 * kMicrosecond, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].in_order);
  EXPECT_EQ(out[0].meta.psn, 0u);
  EXPECT_EQ(q.in_flight(), 8u);
  // The real psn 8 then flows in order.
  q.writeback(Packet::make_synthetic(FiveTuple{}, 1, 64), meta_of(8),
              203 * kMicrosecond, out);
  q.drain(203 * kMicrosecond, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[1].in_order);
  EXPECT_EQ(out[1].meta.psn, 8u);
}

TEST(ReorderQueue, SlotCollisionEvictsStaleOccupantBestEffort) {
  // Same aliasing setup as Case 3, but the slot's true owner returns
  // while the stale packet still occupies it. The stale occupant must
  // leave best-effort at writeback time; overwriting it instead would
  // destroy a packet with no emission and no counter (caught in the
  // field by the ledger.wire conservation probe as delivered < forwards).
  ReorderQueue q(8, kReorderTimeout);
  std::vector<ReorderEgress> out;
  for (int i = 0; i < 8; ++i) q.reserve(Nanos{0});
  q.drain(kReorderTimeout + NanoTime{1}, out);
  for (int i = 0; i < 8; ++i) q.reserve(200 * kMicrosecond);
  // Stale psn 0 aliases onto psn 8's slot and sits there...
  q.writeback(Packet::make_synthetic(FiveTuple{}, 1, 64), meta_of(0),
              201 * kMicrosecond, out);
  EXPECT_TRUE(out.empty());
  // ...until the true psn 8 writes back before any reorder-check pass.
  q.writeback(Packet::make_synthetic(FiveTuple{}, 1, 64), meta_of(8),
              202 * kMicrosecond, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].in_order);
  EXPECT_EQ(out[0].meta.psn, 0u);
  // The owner then drains in order: both packets reached the wire.
  q.drain(202 * kMicrosecond, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[1].in_order);
  EXPECT_EQ(out[1].meta.psn, 8u);
  EXPECT_EQ(q.stats().best_effort_tx, 1u);
  EXPECT_EQ(q.stats().in_order_tx, 1u);
}

TEST(ReorderQueue, SlotCollisionStaleArrivalLeavesImmediately) {
  // Reverse arrival order: the owner holds the slot and the stale alias
  // arrives second. The alias goes straight out best-effort; the owner
  // keeps its slot and still transmits in order.
  ReorderQueue q(8, kReorderTimeout);
  std::vector<ReorderEgress> out;
  for (int i = 0; i < 8; ++i) q.reserve(Nanos{0});
  q.drain(kReorderTimeout + NanoTime{1}, out);
  for (int i = 0; i < 8; ++i) q.reserve(200 * kMicrosecond);
  q.writeback(Packet::make_synthetic(FiveTuple{}, 1, 64), meta_of(8),
              201 * kMicrosecond, out);
  EXPECT_TRUE(out.empty());
  q.writeback(Packet::make_synthetic(FiveTuple{}, 1, 64), meta_of(0),
              202 * kMicrosecond, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].in_order);
  EXPECT_EQ(out[0].meta.psn, 0u);
  q.drain(202 * kMicrosecond, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[1].in_order);
  EXPECT_EQ(out[1].meta.psn, 8u);
}

TEST(ReorderQueue, SlotCollisionStaleDropNotificationReleasesSilently) {
  // A stale drop notification colliding with an occupied slot must
  // never reach the wire: it releases silently and the owner drains
  // in order.
  ReorderQueue q(8, kReorderTimeout);
  std::vector<ReorderEgress> out;
  for (int i = 0; i < 8; ++i) q.reserve(Nanos{0});
  q.drain(kReorderTimeout + NanoTime{1}, out);
  for (int i = 0; i < 8; ++i) q.reserve(200 * kMicrosecond);
  q.writeback(Packet::make_synthetic(FiveTuple{}, 1, 64), meta_of(8),
              201 * kMicrosecond, out);
  q.writeback(Packet::make_synthetic(FiveTuple{}, 1, 64),
              meta_of(0, /*drop=*/true), 202 * kMicrosecond, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(q.stats().best_effort_tx, 0u);
  q.drain(202 * kMicrosecond, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].in_order);
  EXPECT_EQ(out[0].meta.psn, 8u);
}

TEST(ReorderQueue, DropFlagReleasesWithoutTransmitting) {
  ReorderQueue q(16, kReorderTimeout);
  std::vector<ReorderEgress> out;
  q.reserve(Nanos{0});  // psn 0 -> will be dropped by the GW pod
  q.reserve(Nanos{0});  // psn 1
  q.writeback(Packet::make_synthetic(FiveTuple{}, 1, 64), meta_of(1), Nanos{5}, out);
  q.drain(Nanos{5}, out);
  EXPECT_TRUE(out.empty());
  // Drop notification for psn 0: releases FIFO/BUF/BITMAP instantly; no
  // 100us HOL stall, and psn 1 unblocks.
  q.writeback(Packet::make_synthetic(FiveTuple{}, 1, 64),
              meta_of(0, /*drop=*/true), Nanos{6}, out);
  q.drain(Nanos{6}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].meta.psn, 1u);
  EXPECT_EQ(q.stats().drop_releases, 1u);
  EXPECT_EQ(q.stats().timeout_releases, 0u);
}

TEST(ReorderQueue, FifoFullDropsAtIngress) {
  ReorderQueue q(4, kReorderTimeout);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.reserve(Nanos{0}).has_value());
  EXPECT_FALSE(q.reserve(Nanos{0}).has_value());
  EXPECT_EQ(q.stats().fifo_full_drops, 1u);
  EXPECT_EQ(q.in_flight(), 4u);
}

TEST(ReorderQueue, PsnWrapsAcrossWindowBoundary) {
  ReorderQueue q(4, kReorderTimeout);
  std::vector<ReorderEgress> out;
  // Cycle the queue many times past the 2-bit index space.
  for (Psn round = 0; round < 100; ++round) {
    const auto psn = q.reserve(NanoTime{round * 10});
    ASSERT_TRUE(psn.has_value());
    EXPECT_EQ(*psn, round);
    q.writeback(Packet::make_synthetic(FiveTuple{}, 1, 64), meta_of(*psn),
                NanoTime{round * 10 + 1}, out);
    q.drain(NanoTime{round * 10 + 1}, out);
  }
  EXPECT_EQ(out.size(), 100u);
  EXPECT_EQ(q.stats().in_order_tx, 100u);
}

TEST(ReorderQueue, StaleDropNotificationNeverReachesTheWire) {
  // Regression: a drop notification whose psn aliases into the current
  // window (passes the legal check) must be released silently at the
  // reorder check — emitting it would put a bogus frame on the wire.
  ReorderQueue q(8, kReorderTimeout);
  std::vector<ReorderEgress> out;
  for (int i = 0; i < 8; ++i) q.reserve(Nanos{0});
  q.drain(kReorderTimeout + NanoTime{1}, out);  // psn 0..7 timed out
  ASSERT_TRUE(out.empty());
  for (int i = 0; i < 8; ++i) q.reserve(200 * kMicrosecond);  // psn 8..15
  // Stale DROP notification for psn 0 aliases onto psn 8's slot.
  q.writeback(Packet::make_synthetic(FiveTuple{}, 1, 64),
              meta_of(0, /*drop=*/true), 201 * kMicrosecond, out);
  q.drain(202 * kMicrosecond, out);
  EXPECT_TRUE(out.empty());  // silently released, nothing emitted
  EXPECT_EQ(q.stats().best_effort_tx, 0u);
  // The true psn 8 still flows in order afterwards.
  q.writeback(Packet::make_synthetic(FiveTuple{}, 1, 64), meta_of(8),
              203 * kMicrosecond, out);
  q.drain(203 * kMicrosecond, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].in_order);
  EXPECT_EQ(out[0].meta.psn, 8u);
}

TEST(PlbEngine, RoundRobinSpray) {
  PlbEngineConfig cfg;
  cfg.num_rx_queues = 4;
  cfg.num_reorder_queues = 2;
  PlbEngine engine(cfg);
  std::vector<int> queue_counts(4, 0);
  for (int i = 0; i < 100; ++i) {
    auto p = Packet::make_synthetic(FiveTuple{}, 1, 64);
    const auto d = engine.dispatch(*p, Nanos{0});
    ASSERT_TRUE(d.has_value());
    ++queue_counts[d->rx_queue];
  }
  for (int c : queue_counts) EXPECT_EQ(c, 25);
}

TEST(PlbEngine, OrdqStablePerFlow) {
  PlbEngineConfig cfg;
  cfg.num_reorder_queues = 8;
  PlbEngine engine(cfg);
  FiveTuple a{Ipv4Address{1}, Ipv4Address{2}, 3, 4, IpProto::kUdp};
  FiveTuple b{Ipv4Address{5}, Ipv4Address{6}, 7, 8, IpProto::kUdp};
  const auto qa = engine.ordq_index(a);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(engine.ordq_index(a), qa);
  // Different flows are *allowed* to collide, but the hash must not be
  // constant: across many flows multiple queues must be used.
  std::set<std::uint16_t> seen{qa, engine.ordq_index(b)};
  for (std::uint16_t port = 0; port < 100; ++port) {
    FiveTuple t = a;
    t.src_port = port;
    seen.insert(engine.ordq_index(t));
  }
  EXPECT_GT(seen.size(), 4u);
}

TEST(PlbEngine, MetaAttachedAndWritebackRoundTrip) {
  PlbEngine engine(PlbEngineConfig{.num_reorder_queues = 2,
                                   .num_rx_queues = 2,
                                   .reorder_entries = 16,
                                   .reorder_timeout = kReorderTimeout});
  auto p = Packet::make_synthetic(
      FiveTuple{Ipv4Address{1}, Ipv4Address{2}, 3, 4, IpProto::kUdp}, 9, 200);
  const auto d = engine.dispatch(*p, Nanos{0});
  ASSERT_TRUE(d.has_value());
  PlbMeta m;
  ASSERT_TRUE(p->peek_plb_meta(m));
  EXPECT_EQ(m.psn, d->psn);
  EXPECT_EQ(m.ordq_idx, d->ordq);

  std::vector<ReorderEgress> out;
  engine.writeback(std::move(p), Nanos{10}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].in_order);
  // Meta trailer must be stripped before the wire.
  PlbMeta stripped;
  EXPECT_FALSE(out[0].pkt->peek_plb_meta(stripped));
  EXPECT_EQ(out[0].pkt->size(), 200u);
}

TEST(PlbEngine, MissingMetaGoesBestEffort) {
  PlbEngine engine(PlbEngineConfig{});
  std::vector<ReorderEgress> out;
  engine.writeback(Packet::make_synthetic(FiveTuple{}, 1, 64), Nanos{0}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].in_order);
}

TEST(PlbEngine, NextDeadlineTracksOldestHead) {
  PlbEngine engine(PlbEngineConfig{.num_reorder_queues = 2,
                                   .num_rx_queues = 2,
                                   .reorder_entries = 16,
                                   .reorder_timeout = 100 * kMicrosecond});
  EXPECT_EQ(engine.next_deadline(), NanoTime::max());
  // Two flows mapping to different queues at different times.
  FiveTuple t1{Ipv4Address{1}, Ipv4Address{2}, 3, 4, IpProto::kUdp};
  FiveTuple t2 = t1;
  for (std::uint16_t p = 0; engine.ordq_index(t2) == engine.ordq_index(t1);
       ++p) {
    t2.src_port = p;
  }
  auto p1 = Packet::make_synthetic(t1, 1, 64);
  engine.dispatch(*p1, Nanos{1000});
  auto p2 = Packet::make_synthetic(t2, 1, 64);
  engine.dispatch(*p2, Nanos{2000});
  EXPECT_EQ(engine.next_deadline(), NanoTime{1000} + 100 * kMicrosecond);
}

TEST(PlbDispatchResultCounts, IngressDropsCounted) {
  PlbEngine engine(PlbEngineConfig{.num_reorder_queues = 1,
                                   .num_rx_queues = 1,
                                   .reorder_entries = 2,
                                   .reorder_timeout = kReorderTimeout});
  auto mk = [] { return Packet::make_synthetic(FiveTuple{}, 1, 64); };
  auto a = mk();
  auto b = mk();
  auto c = mk();
  EXPECT_TRUE(engine.dispatch(*a, Nanos{0}).has_value());
  EXPECT_TRUE(engine.dispatch(*b, Nanos{0}).has_value());
  EXPECT_FALSE(engine.dispatch(*c, Nanos{0}).has_value());
  EXPECT_EQ(engine.ingress_drops(), 1u);
  EXPECT_EQ(engine.total_stats().fifo_full_drops, 1u);
}

}  // namespace
}  // namespace albatross

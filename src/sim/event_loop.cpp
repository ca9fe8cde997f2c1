#include "sim/event_loop.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace albatross {

// --- wheel geometry -------------------------------------------------
//
// Level 0 buckets times by bits [0, 12) of the absolute nanosecond
// timestamp: each of its 4096 slots holds exactly one timestamp within
// the clock's current 4096 ns window. Level l >= 1 buckets by bits
// [12 + 6(l-1), 12 + 6l). An event is stored at the level of its
// highest bit that differs from the clock, so any two pending events at
// different levels are ordered by level (a level-l event always
// expires before every level-(l+1) event), and an event keeps its level
// until the clock enters its slot. Invariant: at every level the
// occupied slots sit at-or-after the clock's own slot index, so the
// lowest set bit of the occupancy bitmap is the earliest slot — no
// wrap-around scan is ever needed.

EventLoop::EventLoop() { nodes_.reserve(256); }

int EventLoop::level_for(std::uint64_t at, std::uint64_t ref) {
  const std::uint64_t x = at ^ ref;
  if (x < kL0Slots) return 0;
  // bit_width returns the operand's (unsigned) type pre-C++23; the
  // result is <= 64 so the narrowing is value-preserving.
  return (static_cast<int>(std::bit_width(x)) - 1 - kL0Bits) / kLevelBits + 1;
}

std::uint32_t EventLoop::alloc_node(std::uint64_t at, InlineAction fn) {
  std::uint32_t idx;
  if (free_head_ != kNil) {
    idx = free_head_;
    free_head_ = nodes_[idx].next;
    nodes_[idx].at = at;
    nodes_[idx].fn = std::move(fn);
  } else {
    idx = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{at, kNil, std::move(fn)});
  }
  return idx;
}

void EventLoop::free_node(std::uint32_t idx) {
  nodes_[idx].fn.reset();
  nodes_[idx].next = free_head_;
  free_head_ = idx;
}

void EventLoop::link(Chain& c, std::uint32_t node) {
  nodes_[node].next = kNil;
  if (c.tail == kNil) {
    c.head = node;
  } else {
    nodes_[c.tail].next = node;
  }
  c.tail = node;
}

void EventLoop::insert(std::uint32_t node) {
  const std::uint64_t at = nodes_[node].at;
  const int level = level_for(at, now_raw_);
  if (level == 0) {
    const auto slot = static_cast<std::uint32_t>(at & (kL0Slots - 1));
    link(l0_[slot], node);
    l0_occ_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    l0_summary_ |= std::uint64_t{1} << (slot / 64);
    return;
  }
  const std::uint32_t slot = slot_for(at, level);
  link(upper_chain(level, slot), node);
  upper_occ_[static_cast<std::size_t>(level - 1)] |= std::uint64_t{1} << slot;
}

void EventLoop::schedule_at(NanoTime at, Action fn) {
  std::int64_t a = at.count();
  if (a < now_signed()) a = now_signed();
  insert(alloc_node(static_cast<std::uint64_t>(a), std::move(fn)));
  ++pending_;
}

bool EventLoop::peek_next(std::uint64_t& out) const {
  if (pending_ == 0) return false;
  if (l0_summary_ != 0) {
    // A level-0 slot is a single timestamp in the current window.
    const int w = std::countr_zero(l0_summary_);
    const int b = std::countr_zero(l0_occ_[static_cast<std::size_t>(w)]);
    out = (now_raw_ & ~std::uint64_t{kL0Slots - 1}) |
          static_cast<std::uint64_t>(w * 64 + b);
    return true;
  }
  for (int level = 1; level <= kUpperLevels; ++level) {
    const std::uint64_t bits = upper_occ_[static_cast<std::size_t>(level - 1)];
    if (bits == 0) continue;
    // A higher-level slot spans many timestamps: the earliest is the
    // chain minimum (the chain cascades down right after this, so it
    // is never rescanned at this level).
    const Chain& c = upper_[static_cast<std::size_t>(level - 1)]
                           [static_cast<std::size_t>(std::countr_zero(bits))];
    std::uint64_t best = ~std::uint64_t{0};
    for (std::uint32_t n = c.head; n != kNil; n = nodes_[n].next) {
      best = std::min(best, nodes_[n].at);
    }
    out = best;
    return true;
  }
  return false;
}

void EventLoop::advance(std::uint64_t to) {
  if (to <= now_raw_) return;
  const int level = level_for(to, now_raw_);
  if (level == 0) {
    // Same 4096 ns window: no slot index above level 0 changes.
    now_raw_ = to;
    return;
  }
  // The clock enters slot `slot` of `level`. No pending event is earlier
  // than `to`, so every level below is empty (its events would all
  // precede `to`) and so is every slot the clock passes over at this
  // level; levels above keep their slots. Only the entered slot's chain
  // is re-bucketed against the new clock, in chain order, which keeps
  // the FIFO tie-break.
  assert(l0_summary_ == 0);
  const std::uint32_t slot = slot_for(to, level);
  Chain& c = upper_chain(level, slot);
  std::uint32_t n = c.head;
  c.head = c.tail = kNil;
  upper_occ_[static_cast<std::size_t>(level - 1)] &=
      ~(std::uint64_t{1} << slot);
  now_raw_ = to;
  while (n != kNil) {
    const std::uint32_t nx = nodes_[n].next;
    insert(n);
    n = nx;
  }
}

void EventLoop::fire_head() {
  const auto slot = static_cast<std::uint32_t>(now_raw_ & (kL0Slots - 1));
  Chain& c = l0_[slot];
  const std::uint32_t n = c.head;
  c.head = nodes_[n].next;
  if (c.head == kNil) {
    c.tail = kNil;
    std::uint64_t& word = l0_occ_[slot / 64];
    word &= ~(std::uint64_t{1} << (slot % 64));
    if (word == 0) l0_summary_ &= ~(std::uint64_t{1} << (slot / 64));
  }
  InlineAction fn = std::move(nodes_[n].fn);
  free_node(n);
  --pending_;
  ++processed_;
  if (observer_) observer_(NanoTime{now_signed()});
  fn();
}

bool EventLoop::step() {
  std::uint64_t t = 0;
  if (!peek_next(t)) return false;
  advance(t);
  fire_head();
  return true;
}

void EventLoop::run_until(NanoTime until) {
  if (until.count() < now_signed()) return;
  const auto u = static_cast<std::uint64_t>(until.count());
  std::uint64_t t = 0;
  while (peek_next(t) && t <= u) {
    advance(t);
    fire_head();
  }
  // Move the clock (and the wheel's cascade state) to the boundary even
  // when no event sits exactly there.
  if (now_raw_ < u) advance(u);
}

void EventLoop::run() {
  while (step()) {
  }
}

void schedule_periodic(EventLoop& loop, NanoTime period,
                       std::function<bool()> fn) {
  loop.schedule_in(period, [&loop, period, fn = std::move(fn)]() mutable {
    if (fn()) schedule_periodic(loop, period, std::move(fn));
  });
}

}  // namespace albatross

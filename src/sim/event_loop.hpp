// Discrete-event simulation engine. Everything timed in the Albatross
// model — NIC pipeline stages, DMA completion, CPU core run loops, BGP
// timers, traffic arrival — executes as events on this loop against a
// virtual nanosecond clock, so experiments are deterministic and run in
// milliseconds of wall time regardless of the simulated traffic volume.
//
// The scheduler is a hierarchical timer wheel (11 levels x 64 slots,
// 6 bits per level — covers the full 64-bit nanosecond range) instead
// of a binary heap: insert and pop are O(1) amortized, and events live
// in a slab of reusable nodes whose actions are stored inline
// (InlineAction below), so the hot path performs no per-event heap
// allocation. Same-time events fire in scheduling order (FIFO
// tie-break), which replay determinism depends on; the tie-break is
// structural — slot chains are appended in scheduling order and
// cascades preserve chain order — rather than a stored sequence
// number.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace albatross {

/// Move-only callable with inline small-buffer storage: the event-loop
/// replacement for `std::function<void()>`. Callables up to
/// kInlineBytes live inside the node slab (no allocation); larger ones
/// fall back to one heap allocation. Unlike std::function it accepts
/// move-only captures (e.g. a PacketPtr riding inside a completion).
class InlineAction {
 public:
  static constexpr std::size_t kInlineBytes = 56;

  InlineAction() = default;

  /// True when a callable of type Fn is stored inside the node (no
  /// allocation); hot-path call sites static_assert it.
  template <typename Fn>
  static constexpr bool kStoredInline =
      sizeof(Fn) <= kInlineBytes &&
      alignof(Fn) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<Fn>;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineAction>>>
  InlineAction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (kStoredInline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &boxed_ops<Fn>;
    }
  }

  InlineAction(InlineAction&& other) noexcept { move_from(other); }
  InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;
  ~InlineAction() { reset(); }

  void operator()() { ops_->invoke(buf_); }
  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Relocate: move-construct dst from src AND release src's storage
    /// (the source InlineAction clears its ops pointer afterwards).
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); },
      [](void* dst, void* src) {
        Fn* s = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*s));
        s->~Fn();
      },
      [](void* p) { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops boxed_ops = {
      [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); },
      [](void* dst, void* src) {
        // Ownership of the boxed Fn transfers with the pointer.
        ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
      },
      [](void* p) { delete *std::launder(reinterpret_cast<Fn**>(p)); },
  };

  void move_from(InlineAction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes] = {};
  const Ops* ops_ = nullptr;
};

class EventLoop {
 public:
  using Action = InlineAction;

  EventLoop();

  [[nodiscard]] NanoTime now() const { return NanoTime{now_signed()}; }

  /// Schedules `fn` at absolute virtual time `at` (clamped to now).
  void schedule_at(NanoTime at, Action fn);

  /// Schedules `fn` after `delay` nanoseconds.
  void schedule_in(NanoTime delay, Action fn) {
    schedule_at(now() + delay, std::move(fn));
  }

  /// Runs one event; returns false when the queue is empty.
  bool step();

  /// Runs events until the queue is empty or the clock passes `until`.
  void run_until(NanoTime until);

  /// Drains the queue completely.
  void run();

  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  [[nodiscard]] std::size_t pending() const { return pending_; }

  /// Conformance hook (src/check): `fn(at)` runs before each event fires,
  /// letting an invariant probe watch the virtual clock (monotonicity,
  /// event budget). Null by default; costs one branch per event.
  void set_observer(std::function<void(NanoTime)> fn) {
    observer_ = std::move(fn);
  }

 private:
  static constexpr int kLevelBits = 6;
  static constexpr int kSlotsPerLevel = 1 << kLevelBits;  // 64
  static constexpr int kLevels = 11;  // 66 bits: whole uint64 range
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// Slab node: one scheduled event. Nodes are recycled through a
  /// freelist; `next` threads both slot chains and the freelist.
  struct Node {
    std::uint64_t at = 0;
    std::uint32_t next = kNil;
    InlineAction fn;
  };

  /// Singly linked chain (head/tail indexes into nodes_).
  struct Chain {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  [[nodiscard]] std::int64_t now_signed() const {
    return static_cast<std::int64_t>(now_raw_);
  }
  [[nodiscard]] static int level_for(std::uint64_t at, std::uint64_t ref);
  [[nodiscard]] static std::uint32_t slot_for(std::uint64_t at, int level) {
    return static_cast<std::uint32_t>(
        (at >> (static_cast<unsigned>(level) * kLevelBits)) &
        (kSlotsPerLevel - 1));
  }

  std::uint32_t alloc_node(std::uint64_t at, InlineAction fn);
  void free_node(std::uint32_t idx);
  void link(int level, std::uint32_t slot, std::uint32_t node);
  void insert(std::uint32_t node);

  /// Earliest pending event time, or false. Does not mutate the wheel.
  bool peek_next(std::uint64_t& out) const;

  /// Moves the clock to `to` (>= now), cascading every slot whose
  /// window the clock crossed down to its new level.
  void advance(std::uint64_t to);

  /// Pops and runs the FIFO head of level-0 slot `now & 63` (the
  /// caller guarantees, via advance(), that the earliest event is
  /// there).
  void fire_head();

  std::array<std::uint64_t, kLevels> occ_{};  ///< per-level slot bitmaps
  std::array<std::array<Chain, kSlotsPerLevel>, kLevels> slots_{};
  std::vector<Node> nodes_;
  std::uint32_t free_head_ = kNil;
  std::uint64_t now_raw_ = 0;
  std::size_t pending_ = 0;
  std::uint64_t processed_ = 0;
  std::function<void(NanoTime)> observer_;  // nullable; see set_observer
};

/// Convenience: schedules `fn` every `period` until it returns false.
void schedule_periodic(EventLoop& loop, NanoTime period,
                       std::function<bool()> fn);

}  // namespace albatross

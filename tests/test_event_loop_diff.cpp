// Differential test of the event loop's timer wheel against a reference
// scheduler: a std::map keyed by (time, scheduling sequence), which is
// the order the loop promises — earliest time first, same-time events in
// scheduling order. Both sides run the same seeded workload: delays from
// 0 to 2^40 ns with extra weight on the level-0 window edges (4095, 4096
// and 4097 ns from now, and 4096-aligned absolute edges), events that
// schedule more events from inside their actions, past times that clamp
// to now, and run_until boundaries that land inside, on and across
// window edges. Any divergence in firing order shows up as a differing
// id/time sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "check/testseed.hpp"
#include "common/rng.hpp"
#include "sim/event_loop.hpp"

namespace albatross {
namespace {

constexpr std::uint64_t kL0 = 4096;

/// A delay (or boundary offset) from `now`, drawn from the mix above.
std::uint64_t draw_offset(Rng& rng, std::uint64_t now) {
  switch (rng.next_below(8)) {
    case 0:  // same timestamp: FIFO tie-break
      return 0;
    case 1:  // 4095 / 4096 / 4097 ns from now
      return kL0 - 1 + rng.next_below(3);
    case 2: {  // around a multiple of the window, up to 3 windows out
      const std::uint64_t k = 1 + rng.next_below(3);
      return k * kL0 - 1 + rng.next_below(3);
    }
    case 3: {  // on or next to a 4096-, 2^18- or 2^24-aligned absolute edge
      static constexpr std::uint64_t kEdges[] = {kL0, kL0 << 6, kL0 << 12};
      const std::uint64_t edge = kEdges[rng.next_below(3)];
      const std::uint64_t target =
          (now / edge + 1 + rng.next_below(2)) * edge - 1 + rng.next_below(3);
      return target - now;
    }
    case 4:
    case 5:  // service / DMA scale
      return rng.next_below(5000);
    default: {  // log-uniform over 0 .. 2^40
      const std::uint64_t bits = rng.next_below(41);
      return rng.next_u64() & ((std::uint64_t{1} << bits) - 1);
    }
  }
}

/// What event `id` does when it fires: schedule 0-2 children. Derived
/// from the id alone, so both schedulers make the same choices as long
/// as they fire events in the same order.
std::vector<std::uint64_t> children_of(std::uint64_t seed, std::uint64_t id,
                                       std::uint64_t now) {
  Rng rng(seed ^ (id * 0x9e3779b97f4a7c15ull));
  std::vector<std::uint64_t> delays;
  const std::uint64_t n = rng.next_below(100) < 55 ? 1 + rng.next_below(2) : 0;
  for (std::uint64_t i = 0; i < n; ++i) delays.push_back(draw_offset(rng, now));
  return delays;
}

using Fired = std::vector<std::pair<std::uint64_t, std::uint64_t>>;  // id, t

/// The reference: an ordered map replayed in (time, sequence) order.
class Reference {
 public:
  explicit Reference(std::uint64_t seed) : seed_(seed) {}

  void schedule_at(std::uint64_t at) {
    if (at < now_) at = now_;
    queue_.emplace(std::make_pair(at, seq_++), next_id_++);
  }

  void run_until(std::uint64_t until) {
    if (until < now_) return;
    while (!queue_.empty() && queue_.begin()->first.first <= until) {
      const auto [key, id] = *queue_.begin();
      queue_.erase(queue_.begin());
      now_ = key.first;
      fired_.emplace_back(id, now_);
      for (const std::uint64_t d : children_of(seed_, id, now_)) {
        schedule_at(now_ + d);
      }
    }
    now_ = until;
  }

  [[nodiscard]] std::uint64_t now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] const Fired& fired() const { return fired_; }

 private:
  std::uint64_t seed_;
  std::uint64_t now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t next_id_ = 0;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> queue_;
  Fired fired_;
};

/// The system under test, driven through the public EventLoop API.
class Wheel {
 public:
  explicit Wheel(std::uint64_t seed) : seed_(seed) {}

  void schedule_at(std::uint64_t at) {
    const std::uint64_t id = next_id_++;
    loop_.schedule_at(NanoTime{static_cast<std::int64_t>(at)},
                      [this, id] { fire(id); });
  }

  void run_until(std::uint64_t until) {
    loop_.run_until(NanoTime{static_cast<std::int64_t>(until)});
  }

  [[nodiscard]] std::uint64_t now() const {
    return static_cast<std::uint64_t>(loop_.now().count());
  }
  [[nodiscard]] const EventLoop& loop() const { return loop_; }
  [[nodiscard]] const Fired& fired() const { return fired_; }

 private:
  void fire(std::uint64_t id) {
    fired_.emplace_back(id, now());
    for (const std::uint64_t d : children_of(seed_, id, now())) {
      schedule_at(now() + d);
    }
  }

  std::uint64_t seed_;
  std::uint64_t next_id_ = 0;
  EventLoop loop_;
  Fired fired_;
};

class EventLoopDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EventLoopDifferential, FiresInTimeThenSchedulingOrder) {
  const std::uint64_t seed = check::test_seed(GetParam());
  SCOPED_TRACE(check::seed_banner(seed));
  Rng rng(seed);
  Reference ref(seed);
  Wheel wheel(seed);

  for (int round = 0; round < 400; ++round) {
    // A batch of outside schedules, some in the past (clamped to now).
    const std::uint64_t batch = rng.next_below(40);
    for (std::uint64_t i = 0; i < batch; ++i) {
      const std::uint64_t now = ref.now();
      const std::uint64_t at = rng.next_below(10) == 0
                                   ? now - std::min(now, rng.next_below(kL0))
                                   : now + draw_offset(rng, now);
      ref.schedule_at(at);
      wheel.schedule_at(at);
    }
    const std::uint64_t until = ref.now() + draw_offset(rng, ref.now());
    ref.run_until(until);
    wheel.run_until(until);

    ASSERT_EQ(wheel.now(), ref.now()) << "round " << round;
    ASSERT_EQ(wheel.loop().pending(), ref.pending()) << "round " << round;
    ASSERT_EQ(wheel.fired().size(), ref.fired().size()) << "round " << round;
    ASSERT_EQ(wheel.fired(), ref.fired()) << "round " << round;
  }
  EXPECT_EQ(wheel.loop().events_processed(), ref.fired().size());
  EXPECT_GT(ref.fired().size(), 5000u);  // the workload really ran

  // Drain both completely (capped so a runaway population cannot hang).
  for (int i = 0; i < 64 && ref.pending() > 0; ++i) {
    const std::uint64_t until = ref.now() + (std::uint64_t{1} << 41);
    ref.run_until(until);
    wheel.run_until(until);
  }
  EXPECT_EQ(wheel.fired(), ref.fired());
  EXPECT_EQ(wheel.loop().pending(), ref.pending());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventLoopDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace albatross

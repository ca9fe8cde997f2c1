// Host-time tracing of a platform run from outside the simulator.
//
// The tracer drives the event loop one EventLoop::step() at a time and
// stamps the start of each event body through EventLoop::set_observer.
// It arms its own GwPodProbeHook, ReorderProbeHook and
// RateLimiterProbeHook and wraps the traffic source, then attributes
// each event body to the layer whose hook fired during it:
//
//   source emit            -> ingress pump (nic; emit time is traffic's)
//   GwPod on_data_rx       -> gateway deliver (ring push + service)
//   GwPod on_forward/drop  -> gateway emit (completion + TX submit)
//   reorder write-back or
//   timeout release        -> nic egress (reorder engine + TX + wire)
//   none                   -> unclassified (oracle, housekeeping, tier
//                             forward credits: Platform glue)
//
// Spans are summed in memory per layer and read when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>

#include "check/hooks.hpp"
#include "core/platform.hpp"
#include "traffic/flow_gen.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Host nanoseconds and event counts per layer of one traced run.
struct LayerTimes {
  double run_ns = 0.0;      ///< host time of the traced run phase
  double loop_ns = 0.0;     ///< inside step() before the action runs
  double emit_ns = 0.0;     ///< inside TrafficSource::emit
  double pump_ns = 0.0;     ///< pump event bodies, emit time included
  double deliver_ns = 0.0;
  double pod_emit_ns = 0.0;
  double egress_ns = 0.0;
  double unclassified_ns = 0.0;
  std::uint64_t events = 0;
  std::uint64_t pump_events = 0;
  std::uint64_t deliver_events = 0;
  std::uint64_t pod_emit_events = 0;
  std::uint64_t egress_events = 0;
  std::uint64_t unclassified_events = 0;
  // Hook counts (deterministic).
  std::uint64_t emits = 0;
  std::uint64_t data_rx = 0;
  std::uint64_t forwards = 0;
  std::uint64_t pod_drops = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t reorder_timeouts = 0;
  std::uint64_t best_effort = 0;
  std::uint64_t limiter_admits = 0;
};

class Tracer final : public albatross::GwPodProbeHook,
                     public albatross::ReorderProbeHook,
                     public albatross::RateLimiterProbeHook {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Arms the probes on every pod and the limiter, and the loop observer.
  void attach(albatross::Platform& platform);
  /// Disarms them again, so the counts cover the traced phase only.
  void detach();

  /// Steps the loop until `*done` becomes true (or the loop empties),
  /// attributing every event body. Returns the run phase's host time.
  double drive(albatross::EventLoop& loop, const bool* done);

  /// Called by the source decorator around each emit.
  void record_emit(Clock::duration d) {
    flags_ |= kEmit;
    ++times_.emits;
    times_.emit_ns += static_cast<double>(d.count());
  }

  [[nodiscard]] const LayerTimes& times() const { return times_; }

  // --- GwPodProbeHook ---------------------------------------------------
  void on_data_rx(albatross::PodId, albatross::CoreId,
                  albatross::NanoTime) override {
    flags_ |= kDataRx;
    ++times_.data_rx;
  }
  void on_forward(albatross::PodId, albatross::CoreId,
                  albatross::NanoTime) override {
    flags_ |= kPodEmit;
    ++times_.forwards;
  }
  void on_drop(albatross::PodId, albatross::CoreId, albatross::PodDropKind,
               albatross::NanoTime) override {
    flags_ |= kPodEmit;
    ++times_.pod_drops;
  }

  // --- ReorderProbeHook -------------------------------------------------
  void on_reserve(std::uint16_t, albatross::Psn, albatross::NanoTime) override {}
  void on_writeback(std::uint16_t, albatross::Psn, bool,
                    albatross::NanoTime) override {
    flags_ |= kEgress;
    ++times_.writebacks;
  }
  void on_resolve(std::uint16_t, albatross::Psn, albatross::ReorderResolution how,
                  albatross::NanoTime, albatross::NanoTime) override {
    flags_ |= kEgress;
    if (how == albatross::ReorderResolution::kTimeout) ++times_.reorder_timeouts;
  }
  void on_best_effort(std::uint16_t, albatross::Psn,
                      albatross::NanoTime) override {
    flags_ |= kEgress;
    ++times_.best_effort;
  }

  // --- RateLimiterProbeHook ---------------------------------------------
  void on_admit(albatross::Vni, albatross::RlStage, bool,
                albatross::NanoTime) override {
    ++times_.limiter_admits;
  }

 private:
  enum : unsigned { kEmit = 1, kDataRx = 2, kPodEmit = 4, kEgress = 8 };

  albatross::Platform* platform_ = nullptr;
  LayerTimes times_;
  unsigned flags_ = 0;
  Clock::time_point body_start_{};
};

/// Source decorator: ends the arrival process at `horizon` (exclusive)
/// and, when a tracer is given, times every emit.
class BenchSource final : public albatross::TrafficSource {
 public:
  BenchSource(std::unique_ptr<albatross::TrafficSource> inner,
              albatross::NanoTime horizon, Tracer* tracer)
      : inner_(std::move(inner)), horizon_(horizon), tracer_(tracer) {}

  [[nodiscard]] std::optional<albatross::NanoTime> next_time() const override {
    const auto t = inner_->next_time();
    if (!t || *t >= horizon_) return std::nullopt;
    return t;
  }

  albatross::PacketPtr emit() override {
    if (tracer_ == nullptr) return inner_->emit();
    const auto t0 = Clock::now();
    albatross::PacketPtr pkt = inner_->emit();
    tracer_->record_emit(Clock::now() - t0);
    return pkt;
  }

 private:
  std::unique_ptr<albatross::TrafficSource> inner_;
  albatross::NanoTime horizon_;
  Tracer* tracer_;
};

}  // namespace perfbench

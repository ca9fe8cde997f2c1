#include "trace.hpp"

namespace perfbench {

using albatross::EventLoop;
using albatross::NanoTime;
using albatross::Platform;
using albatross::PodId;

void Tracer::attach(Platform& platform) {
  platform_ = &platform;
  for (PodId pod = 0; pod < platform.pod_count(); ++pod) {
    platform.pod(pod).set_probe(this);
    platform.nic().attach_reorder_probe(pod, this);
  }
  platform.nic().attach_limiter_probe(this);
  platform.loop().set_observer([this](NanoTime) { body_start_ = Clock::now(); });
}

void Tracer::detach() {
  if (platform_ == nullptr) return;
  for (PodId pod = 0; pod < platform_->pod_count(); ++pod) {
    platform_->pod(pod).set_probe(nullptr);
    platform_->nic().attach_reorder_probe(pod, nullptr);
  }
  platform_->nic().attach_limiter_probe(nullptr);
  platform_->loop().set_observer({});
  platform_ = nullptr;
}

double Tracer::drive(EventLoop& loop, const bool* done) {
  const auto ns = [](Clock::duration d) { return static_cast<double>(d.count()); };
  const auto start = Clock::now();
  auto prev = start;
  while (!*done) {
    flags_ = 0;
    if (!loop.step()) break;
    const auto end = Clock::now();
    const double body = ns(end - body_start_);
    times_.loop_ns += ns(body_start_ - prev);
    ++times_.events;
    // One layer per event, by the first hook in pipeline order.
    if ((flags_ & kEmit) != 0) {
      times_.pump_ns += body;
      ++times_.pump_events;
    } else if ((flags_ & kDataRx) != 0) {
      times_.deliver_ns += body;
      ++times_.deliver_events;
    } else if ((flags_ & kPodEmit) != 0) {
      times_.pod_emit_ns += body;
      ++times_.pod_emit_events;
    } else if ((flags_ & kEgress) != 0) {
      times_.egress_ns += body;
      ++times_.egress_events;
    } else {
      times_.unclassified_ns += body;
      ++times_.unclassified_events;
    }
    prev = end;
  }
  times_.run_ns = ns(prev - start);
  return times_.run_ns / 1e9;
}

}  // namespace perfbench

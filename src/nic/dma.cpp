#include "nic/dma.hpp"

namespace albatross {

NanoTime DmaChannel::transfer(NanoTime now, std::size_t bytes) {
  ++stats_.transfers;
  stats_.bytes += bytes;
  const bool faulty = now < fault_until_;
  if (faulty) ++stats_.faulted_transfers;
  const double slow = faulty ? fault_slowdown_ : 1.0;
  const NanoTime wire_ns = nanos_from_double(
      static_cast<double>(bytes) * 8.0 * slow / cfg_.bandwidth_gbps);
  const NanoTime start = channel_free_ > now ? channel_free_ : now;
  // Descriptor pressure: if the backlog (time the channel is booked
  // ahead) exceeds what the descriptor ring can cover at the average
  // per-transfer time, the submitter stalls for one ring slot.
  const NanoTime backlog = start - now;
  const NanoTime per_desc = wire_ns > Nanos{} ? wire_ns : Nanos{1};
  if (backlog / per_desc > std::int64_t{cfg_.descriptors}) {
    ++stats_.descriptor_stalls;
  }
  channel_free_ = start + wire_ns;
  return channel_free_ + cfg_.base_latency;
}

}  // namespace albatross

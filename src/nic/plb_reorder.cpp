#include "nic/plb_reorder.hpp"

#include <cassert>

namespace albatross {

ReorderQueue::ReorderQueue(std::uint32_t entries, NanoTime timeout)
    : entries_(entries),
      timeout_(timeout),
      fifo_psn_(entries),
      fifo_ts_(entries),
      buf_(entries),
      buf_meta_(entries),
      bitmap_(entries) {
  // Power-of-two size required: slot() masks instead of dividing, the
  // same trick the hardware pulls with psn[11:0].
  assert((entries_ & (entries_ - 1)) == 0 && entries_ >= 2);
}

std::optional<Psn> ReorderQueue::reserve(NanoTime now) {
  if (tail_ - head_ >= entries_) {
    ++stats_.fifo_full_drops;
    return std::nullopt;
  }
  const Psn psn = tail_;
  const std::uint32_t s = slot(psn);
  fifo_psn_[s] = psn;
  fifo_ts_[s] = now;
  ++tail_;
  ++stats_.reserved;
  if (probe_ != nullptr) probe_->on_reserve(ordq_id_, psn, now);
  return psn;
}

void ReorderQueue::writeback(PacketPtr pkt, const PlbMeta& meta, NanoTime now,
                             std::vector<ReorderEgress>& out) {
  const std::uint32_t in_flight = tail_ - head_;
  // Hardware legal check: 12-bit offset of meta.psn from head_ptr must
  // fall inside the FIFO window. Identical to comparing only psn[11:0]
  // against the 12-bit head/tail pointers.
  const std::uint32_t off = Psn12::distance(head_, meta.psn, entries_);
  const bool legal = in_flight > 0 && (off < in_flight || in_flight == entries_);
  if (!legal) {
    // Essentially a timed-out packet: best-effort transmission without
    // reordering (or silent release when it was a drop notification).
    ++stats_.legal_check_fail;
    if (!meta.drop && pkt != nullptr) {
      ++stats_.best_effort_tx;
      if (probe_ != nullptr) probe_->on_best_effort(ordq_id_, meta.psn, now);
      out.push_back(ReorderEgress{std::move(pkt), false, meta});
    }
    return;
  }
  const std::uint32_t s = slot(meta.psn);
  const Psn expected = head_ + off;  // unique in-window PSN for this slot
  const bool stale = meta.psn != expected;
  if (stale) {
    // Stale packet whose low 12 bits alias into the window; it will be
    // caught by the reorder check's full-PSN comparison (Case 3).
    ++stats_.legal_check_alias;
  }
  if (bitmap_[s].valid) {
    // Slot collision: two full PSNs sharing the same 12-bit slot have
    // both written back before the reorder check visited it. Only the
    // in-window PSN may hold the slot — the stale party leaves
    // best-effort right here (drop notifications release silently).
    // Overwriting instead destroys a packet with no emission and no
    // counter, which the wire-conservation ledger flags as loss.
    if (stale) {
      if (!meta.drop && pkt != nullptr) {
        ++stats_.best_effort_tx;
        if (probe_ != nullptr) probe_->on_best_effort(ordq_id_, meta.psn, now);
        out.push_back(ReorderEgress{std::move(pkt), false, meta});
      }
      return;
    }
    if (!bitmap_[s].drop && buf_[s] != nullptr) {
      ++stats_.best_effort_tx;
      if (probe_ != nullptr) {
        probe_->on_best_effort(ordq_id_, bitmap_[s].psn, now);
      }
      out.push_back(ReorderEgress{std::move(buf_[s]), false, buf_meta_[s]});
    } else {
      buf_[s].reset();
    }
  }
  buf_[s] = std::move(pkt);
  buf_meta_[s] = meta;
  bitmap_[s] = BitmapEntry{true, meta.drop, meta.psn};
  if (probe_ != nullptr) probe_->on_writeback(ordq_id_, meta.psn, meta.drop, now);
}

void ReorderQueue::drain(NanoTime now, std::vector<ReorderEgress>& out) {
  // Injected module stall: the reorder check clock is frozen, nothing
  // leaves the queue until the stall window ends.
  if (now < stuck_until_) return;
  while (head_ != tail_) {
    const std::uint32_t s = slot(head_);
    BitmapEntry& be = bitmap_[s];

    if (be.valid && be.psn == head_) {
      // Case 4: returned and PSN matches -> in-order transmit (or a
      // drop-flag release, Fig. 12, freeing resources with no emission).
      if (be.drop) {
        ++stats_.drop_releases;
        buf_[s].reset();
      } else {
        ++stats_.in_order_tx;
        out.push_back(ReorderEgress{std::move(buf_[s]), true, buf_meta_[s]});
      }
      if (probe_ != nullptr) {
        probe_->on_resolve(ordq_id_, head_,
                           be.drop ? ReorderResolution::kDropFlag
                                   : ReorderResolution::kInOrder,
                           fifo_ts_[s], now);
      }
      be = BitmapEntry{};
      ++head_;
      continue;
    }

    if (now - fifo_ts_[s] > timeout_) {
      // Case 1: head queued beyond the timeout -> release directly.
      ++stats_.timeout_releases;
      if (be.valid) {
        // An aliased stale packet occupies the slot; push it out
        // best-effort so the buffer is not leaked — unless it is a
        // drop notification, which must never reach the wire.
        if (!be.drop && buf_[s] != nullptr) {
          ++stats_.best_effort_tx;
          if (probe_ != nullptr) probe_->on_best_effort(ordq_id_, be.psn, now);
          out.push_back(ReorderEgress{std::move(buf_[s]), false, buf_meta_[s]});
        } else {
          buf_[s].reset();
        }
        be = BitmapEntry{};
      }
      if (probe_ != nullptr) {
        probe_->on_resolve(ordq_id_, head_, ReorderResolution::kTimeout,
                           fifo_ts_[s], now);
      }
      ++head_;
      continue;
    }

    if (be.valid && be.psn != head_) {
      // Case 3: a timed-out packet sneaked past the legal check; send it
      // best-effort (drop notifications release silently) and keep
      // waiting for the true head.
      if (!be.drop && buf_[s] != nullptr) {
        ++stats_.best_effort_tx;
        if (probe_ != nullptr) probe_->on_best_effort(ordq_id_, be.psn, now);
        out.push_back(ReorderEgress{std::move(buf_[s]), false, buf_meta_[s]});
      } else {
        buf_[s].reset();
      }
      be = BitmapEntry{};
      continue;
    }

    // Case 2: not yet processed by the GW pod -> busy-wait (the event
    // loop re-enters on the next write-back or the head deadline).
    break;
  }
}

std::size_t ReorderQueue::bram_bytes() const {
  // FIFO: PSN(4B) + timestamp(6B used of 8) per entry; BITMAP: valid +
  // drop + PSN ~ 5B; BUF descriptor: 8B pointer/handle per entry (packet
  // payload lives in the shared payload buffer, not per-queue BRAM).
  return entries_ * (4 + 6 + 5 + 8);
}

}  // namespace albatross

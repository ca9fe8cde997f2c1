#include "nic/rate_limiter.hpp"

#include "common/hash.hpp"

namespace albatross {

TenantRateLimiter::TenantRateLimiter(RateLimiterConfig cfg) : cfg_(cfg) {
  const double b = cfg_.burst_seconds;
  color_table_.assign(cfg_.color_entries,
                      TokenBucket(cfg_.stage1_rate_pps,
                                  cfg_.stage1_rate_pps * b));
  meter_table_.assign(cfg_.meter_entries,
                      TokenBucket(cfg_.stage2_rate_pps,
                                  cfg_.stage2_rate_pps * b));
}

TenantRateLimiter::PreEntry* TenantRateLimiter::find_pre(Vni vni) {
  if (pre_in_use_ == 0) return nullptr;
  for (auto& e : pre_) {
    if (e.in_use && e.vni == vni) return &e;
  }
  return nullptr;
}

const TenantRateLimiter::PreEntry* TenantRateLimiter::find_pre(
    Vni vni) const {
  if (pre_in_use_ == 0) return nullptr;
  for (const auto& e : pre_) {
    if (e.in_use && e.vni == vni) return &e;
  }
  return nullptr;
}

bool TenantRateLimiter::add_bypass(Vni vni) {
  if (PreEntry* existing = find_pre(vni)) {
    existing->bypass = true;
    return true;
  }
  for (auto& e : pre_) {
    if (!e.in_use) {
      e = PreEntry{vni, true, true, TokenBucket{}};
      ++pre_in_use_;
      return true;
    }
  }
  return false;  // pre_check full
}

bool TenantRateLimiter::install_heavy_hitter(Vni vni, NanoTime now) {
  (void)now;
  if (PreEntry* existing = find_pre(vni)) {
    if (existing->bypass) return true;  // top-tier tenants never limited
    return true;
  }
  for (auto& e : pre_) {
    if (!e.in_use) {
      e = PreEntry{vni, true, false,
                   TokenBucket(cfg_.pre_meter_rate_pps,
                               cfg_.pre_meter_rate_pps * cfg_.burst_seconds)};
      ++pre_in_use_;
      ++stats_.heavy_hitters_installed;
      return true;
    }
  }
  return false;
}

bool TenantRateLimiter::uninstall(Vni vni) {
  if (PreEntry* e = find_pre(vni)) {
    e->in_use = false;
    --pre_in_use_;
    return true;
  }
  return false;
}

bool TenantRateLimiter::is_installed(Vni vni) const {
  return find_pre(vni) != nullptr;
}

void TenantRateLimiter::sample_red(Vni vni, NanoTime now) {
  if (!cfg_.auto_install) return;
  if (now - window_start_ > cfg_.detect_window) {
    // New detection window: forget stale candidates. Heavy hitters are
    // re-sampled within one window thanks to their packet rate.
    window_start_ = now;
    for (auto& c : candidates_) c = Candidate{};
  }
  // Deterministic 1-in-N sampling (hardware uses a free-running counter).
  if (++sample_seq_ %
          static_cast<std::uint64_t>(1.0 / cfg_.sample_probability) !=
      0) {
    return;
  }
  // Count the sample in the candidate sketch (direct-mapped by VNI).
  auto& c = candidates_[mix64(vni) % candidates_.size()];
  if (c.vni != vni) {
    // Slot re-keys when a different tenant lands here; heavy hitters win
    // the slot statistically because they are sampled far more often.
    c.vni = vni;
    c.samples = 0;
  }
  if (++c.samples >= cfg_.detect_threshold_samples) {
    install_heavy_hitter(vni, now);
    c.samples = 0;
  }
}

RlVerdict TenantRateLimiter::admit(Vni vni, NanoTime now) {
  // pre_check stage.
  if (PreEntry* pre = find_pre(vni)) {
    if (pre->bypass) {
      ++stats_.bypassed;
      if (probe_ != nullptr) probe_->on_admit(vni, RlStage::kBypass, true, now);
      return RlVerdict::kPass;
    }
    const bool ok = pre->meter.consume(now);
    if (probe_ != nullptr) probe_->on_admit(vni, RlStage::kPreMeter, ok, now);
    if (ok) {
      ++stats_.passed;
      return RlVerdict::kPass;
    }
    ++stats_.dropped_pre;
    return RlVerdict::kDropPreMeter;
  }

  // Stage 1: coarse color table, direct-indexed by VNI % 4K.
  if (color_table_[table_index(vni, color_table_.size())].consume(now)) {
    ++stats_.passed;
    if (probe_ != nullptr) probe_->on_admit(vni, RlStage::kStage1, true, now);
    return RlVerdict::kPass;
  }
  if (probe_ != nullptr) probe_->on_admit(vni, RlStage::kStage1, false, now);

  // Stage 2: fine meter table, hash-indexed. Collisions here are the
  // false-positive source the pre_check stage exists to mitigate.
  const bool ok2 =
      meter_table_[table_index(mix64(vni), meter_table_.size())].consume(now);
  if (probe_ != nullptr) probe_->on_admit(vni, RlStage::kStage2, ok2, now);
  if (ok2) {
    ++stats_.passed_marked;
    return RlVerdict::kPassMarked;
  }
  ++stats_.dropped_stage2;
  sample_red(vni, now);
  return RlVerdict::kDropStage2;
}

std::size_t TenantRateLimiter::sram_bytes() const {
  return (color_table_.size() + meter_table_.size() + 2 * kPreEntries) *
         kMeterEntryBytes;
}

std::size_t TenantRateLimiter::naive_sram_bytes(std::uint64_t tenants) {
  return tenants * kMeterEntryBytes;
}

}  // namespace albatross

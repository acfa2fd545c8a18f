#include "serve/service.hpp"

#include "common/ensure.hpp"

namespace cal::serve {

const char* to_string(ServeStatus s) {
  switch (s) {
    case ServeStatus::Served: return "served";
    case ServeStatus::Denied: return "denied";
    case ServeStatus::Expired: return "expired";
    case ServeStatus::Faulted: return "faulted";
    case ServeStatus::Dropped: return "dropped";
    case ServeStatus::ShutDown: return "shutdown";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// DriftMonitor
// ---------------------------------------------------------------------------

DriftMonitor::DriftMonitor(DriftPolicy policy) : policy_(policy) {
  CAL_ENSURE(policy_.slope_factor >= 1.0,
             "drift slope factor must be >= 1, got " << policy_.slope_factor);
  CAL_ENSURE(!(policy_.level < 0.0),
             "drift level must be non-negative, got " << policy_.level);
}

bool DriftMonitor::record(double distance) {
  if (!enabled()) return false;
  MutexLock lock(mu_);
  current_sum_ += distance;
  if (++current_n_ < policy_.window) return false;
  const double mean = current_sum_ / static_cast<double>(current_n_);
  current_sum_ = 0.0;
  current_n_ = 0;
  last_window_mean_ = mean;
  ++windows_completed_;
  if (baseline_mean_ < 0.0) {
    // First window: establish the baseline. No flush even above the
    // level — the lane just started, so the cache holds nothing stale.
    baseline_mean_ = mean;
    return false;
  }
  // The level fires on the CROSSING (baseline below, window above), not
  // on the steady state: a persistent shift that settles above the level
  // flushes once and then serves normally from the rebaselined map,
  // matching the slope trigger's flush-once semantics.
  const bool flush = mean > policy_.slope_factor * baseline_mean_ ||
                     (mean > policy_.level &&
                      !(baseline_mean_ > policy_.level));
  // Rebaseline ONLY on flush: the drifted distribution is then the
  // shard's new normal, so a persistent shift flushes once instead of on
  // every window. Between flushes the baseline stays pinned — gradual
  // drift that creeps below slope_factor per window still accumulates
  // against the pinned baseline and flushes when the cache contents have
  // drifted materially, rather than ratcheting the baseline up with it
  // and never flushing at all.
  if (flush) baseline_mean_ = mean;
  return flush;
}

DriftTrend DriftMonitor::snapshot() const {
  MutexLock lock(mu_);
  DriftTrend t;
  t.enabled = policy_.window > 0;
  t.window = policy_.window;
  t.baseline_mean = baseline_mean_;
  t.last_window_mean = last_window_mean_;
  t.partial_n = current_n_;
  t.partial_mean =
      current_n_ > 0 ? current_sum_ / static_cast<double>(current_n_) : 0.0;
  t.windows_completed = windows_completed_;
  return t;
}

}  // namespace cal::serve

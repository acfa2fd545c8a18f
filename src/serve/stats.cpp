#include "serve/stats.hpp"

#include <algorithm>
#include <sstream>

namespace cal::serve {

std::string ServiceStats::str() const {
  std::ostringstream os;
  os << "requests: " << completed << "/" << submitted << " completed, "
     << flagged << " flagged, " << rejected << " rejected\n";
  if (over_quota + queue_full + breaker_denied > 0)
    os << "admission: " << over_quota << " over quota, " << queue_full
       << " queue-full, " << breaker_denied << " breaker-open\n";
  if (expired + faulted + shed > 0)
    os << "faults:   " << expired << " expired, " << faulted << " faulted, "
       << shed << " shed\n";
  os << "cache:    " << cache_hits << " hits";
  if (cache_audits > 0)
    os << " (" << cache_audits << " audited, " << cache_audit_mismatches
       << " mismatched)";
  if (drift_flushes > 0) os << ", " << drift_flushes << " drift flushes";
  os << "\n";
  if (screened > 0)
    os << "screen:   " << screened << " screened, mean "
       << mean_anchors_scanned << " anchors scanned\n";
  os << "batching: " << batches << " micro-batches, mean " << mean_batch_size
     << ", largest " << largest_batch << "\n";
  os << "latency:  mean " << latency_mean_ms << " ms, p50 " << latency_p50_ms
     << " ms, p95 " << latency_p95_ms << " ms, p99 " << latency_p99_ms
     << " ms\n";
  os << "rate:     " << throughput_rps << " req/s over " << wall_seconds
     << " s";
  return os.str();
}

namespace {

/// Add `from`'s counters into `into`: the kServiceCounters sums, the
/// largest-batch max and the latency histogram.
void merge_counters(ServiceStats& into, const ServiceStats& from) {
  for (const auto& row : kServiceCounters)
    into.*row.member += from.*row.member;
  into.largest_batch = std::max(into.largest_batch, from.largest_batch);
  into.latency.merge(from.latency);
}

/// Fill the figures derived from the counters and wall_seconds.
void derive(ServiceStats& s) {
  if (s.latency.count() > 0) {
    s.latency_mean_ms = s.latency.mean();
    s.latency_p50_ms = s.latency.quantile(0.50);
    s.latency_p95_ms = s.latency.quantile(0.95);
    s.latency_p99_ms = s.latency.quantile(0.99);
  }
  if (s.screened > 0)
    s.mean_anchors_scanned = static_cast<double>(s.anchors_scanned) /
                             static_cast<double>(s.screened);
  if (s.batches > 0)
    s.mean_batch_size = static_cast<double>(s.batched_items) /
                        static_cast<double>(s.batches);
  if (s.wall_seconds > 0.0)
    s.throughput_rps = static_cast<double>(s.completed) / s.wall_seconds;
}

}  // namespace

ServiceStats aggregate_stats(std::span<const ServiceStats> shards) {
  ServiceStats agg;
  for (const ServiceStats& s : shards) {
    merge_counters(agg, s);
    agg.wall_seconds = std::max(agg.wall_seconds, s.wall_seconds);
  }
  derive(agg);
  return agg;
}

StatsCollector::StatsCollector() : start_(std::chrono::steady_clock::now()) {}

void StatsCollector::add(Counter counter, std::ptrdiff_t n) {
  MutexLock lock(mu_);
  // Unsigned wrap-around makes a negative n a decrement.
  block_.*counter += static_cast<std::size_t>(n);
}

void StatsCollector::record_batch(const ServiceStats& counts,
                                  std::span<const double> latency_ms) {
  MutexLock lock(mu_);
  merge_counters(block_, counts);
  for (const double ms : latency_ms) block_.latency.record(ms);
}

void StatsCollector::reset_clock() {
  MutexLock lock(mu_);
  start_ = std::chrono::steady_clock::now();
}

ServiceStats StatsCollector::snapshot() const {
  ServiceStats s;
  std::chrono::steady_clock::duration elapsed{};
  {
    MutexLock lock(mu_);
    s = block_;
    elapsed = std::chrono::steady_clock::now() - start_;
  }
  s.wall_seconds = std::chrono::duration<double>(elapsed).count();
  derive(s);
  return s;
}

}  // namespace cal::serve

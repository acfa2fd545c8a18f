// Serving telemetry: the numbers an operator watches on a dashboard.
//
// One StatsCollector per tenant lane — every counter is lane-local, so a
// multi-tenant deployment reads per-tenant health directly and combines
// lanes with aggregate_stats() for the fleet-wide view.
//
// The per-tenant counter set is defined once: a ServiceStats field plus
// its row in kServiceCounters. The collector keeps one ServiceStats block,
// aggregate_stats() sums the table's rows, and ServeEngine::metrics()
// exports every row that names a metric family — so a new counter is a
// field and a table row, nothing else.
#pragma once

#include <chrono>
#include <cstddef>
#include <span>
#include <string>

#include "common/hot_path_annotations.hpp"
#include "common/thread_annotations.hpp"
#include "obs/histogram.hpp"

namespace cal::serve {

/// Point-in-time snapshot of one tenant lane's health. Latencies are
/// request latencies (submit -> result available), which include queueing
/// delay — the figure a client actually experiences.
///
/// Latency semantics (changed when the sorted sliding window was replaced
/// by the log-bucketed histogram): mean and percentiles are now LIFETIME
/// figures over every completed request, not a recent window, and the
/// percentiles carry the histogram's bounded relative error
/// (obs::Histogram::kRelativeError, ~3%) instead of being exact order
/// statistics of the last 64K samples. In exchange they are mergeable —
/// aggregate_stats() combines shard histograms exactly, so fleet-wide
/// tails are true quantiles of the union rather than completed-weighted
/// averages of per-shard quantiles (which were not quantiles of anything).
struct ServiceStats {
  std::size_t submitted = 0;
  std::size_t completed = 0;        ///< fulfilled results, any verdict
  std::size_t over_quota = 0;       ///< submissions denied by the token bucket
  std::size_t queue_full = 0;       ///< submissions denied by a full sub-queue
  std::size_t breaker_denied = 0;   ///< submissions fast-failed by the breaker
  std::size_t expired = 0;          ///< requests shed past their deadline
  std::size_t faulted = 0;          ///< requests failed by replica faults
  std::size_t shed = 0;             ///< queued requests terminated unserved
                                    ///< (tenant removed / engine shutdown)
  std::size_t cache_hits = 0;
  std::size_t cache_audits = 0;     ///< hits re-inferred for verification
  std::size_t cache_audit_mismatches = 0;
  std::size_t flagged = 0;
  std::size_t rejected = 0;
  std::size_t screened = 0;         ///< requests that ran the anchor screen
  std::size_t anchors_scanned = 0;  ///< full distance computations, total
  double mean_anchors_scanned = 0.0;///< anchors_scanned / screened
  std::size_t drift_flushes = 0;    ///< cache flushes forced by drift trend
  std::size_t batches = 0;          ///< micro-batches drained by workers
  std::size_t batched_items = 0;    ///< requests across those micro-batches
  std::size_t largest_batch = 0;
  double mean_batch_size = 0.0;     ///< batched_items / batches
  double latency_mean_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  /// The full latency distribution the four figures above are derived
  /// from — lifetime, fixed memory, exactly mergeable across shards.
  obs::Histogram latency;
  double wall_seconds = 0.0;        ///< since service start
  double throughput_rps = 0.0;      ///< completed / wall_seconds

  /// Multi-line human-readable report for demos and benches.
  std::string str() const;
};

/// One counter of a stats struct: summed across tenants and, when
/// `family` is set, exported per tenant under a `tenant` label plus the
/// optional label_key=label_value.
template <typename Stats>
struct CounterRow {
  std::size_t Stats::*member;
  const char* family = nullptr;  ///< nullptr: summed, never exported
  const char* help = nullptr;
  const char* label_key = nullptr;
  const char* label_value = nullptr;
};

/// THE per-tenant counter set. Every row is summed by aggregate_stats()
/// and by the collector's batch merge; rows with a family are exported
/// per tenant by ServeEngine::metrics(). largest_batch (a max) and the
/// latency histogram (a merge) are the only ServiceStats state outside it.
inline constexpr CounterRow<ServiceStats> kServiceCounters[] = {
    {&ServiceStats::submitted, "cal_serve_admissions_total",
     "Admission outcomes at the engine front door", "outcome", "accepted"},
    {&ServiceStats::over_quota, "cal_serve_admissions_total",
     "Admission outcomes at the engine front door", "outcome", "over_quota"},
    {&ServiceStats::queue_full, "cal_serve_admissions_total",
     "Admission outcomes at the engine front door", "outcome", "queue_full"},
    {&ServiceStats::breaker_denied, "cal_serve_admissions_total",
     "Admission outcomes at the engine front door", "outcome",
     "breaker_open"},
    {&ServiceStats::expired, "cal_serve_expired_total",
     "Requests shed past their deadline"},
    {&ServiceStats::faulted, "cal_serve_faulted_total",
     "Requests failed by replica faults"},
    {&ServiceStats::shed, "cal_serve_shed_total",
     "Queued requests terminated unserved (tenant removed / shutdown)"},
    {&ServiceStats::completed, "cal_serve_completed_total",
     "Requests fulfilled, any verdict"},
    {&ServiceStats::flagged, "cal_serve_verdicts_total",
     "Screening verdicts on completed requests", "verdict", "flagged"},
    {&ServiceStats::rejected, "cal_serve_verdicts_total",
     "Screening verdicts on completed requests", "verdict", "rejected"},
    {&ServiceStats::cache_hits, "cal_serve_cache_hits_total",
     "Requests served from the fingerprint LRU"},
    {&ServiceStats::cache_audits, "cal_serve_cache_audits_total",
     "Cache hits re-inferred for verification"},
    {&ServiceStats::cache_audit_mismatches,
     "cal_serve_cache_audit_mismatches_total",
     "Audited cache hits that disagreed with the model"},
    {&ServiceStats::drift_flushes, "cal_serve_drift_flushes_total",
     "Cache flushes forced by the drift trend"},
    {&ServiceStats::batches, "cal_serve_batches_total",
     "Micro-batches drained by pool workers"},
    {&ServiceStats::screened, "cal_serve_screened_total",
     "Requests that ran the anchor screen"},
    {&ServiceStats::anchors_scanned},
    {&ServiceStats::batched_items},
};

/// Fleet-wide roll-up of per-shard snapshots: counters are summed, the
/// latency histograms are merged bucket-wise (exact — the aggregate
/// percentiles are true quantiles of the combined distribution, up to the
/// histogram's relative-error bound), wall_seconds is the longest-running
/// shard, and throughput is total completed over that wall clock.
ServiceStats aggregate_stats(std::span<const ServiceStats> shards);

/// Mutex-guarded accumulator shared by one tenant lane's worker pool:
/// one ServiceStats block, fed by two entry points — add() for single
/// events and record_batch() once per claimed micro-batch.
///
/// Memory is bounded for arbitrarily long runs: latencies feed a
/// log-bucketed obs::Histogram (fixed ~9 KB, lifetime-mergeable, bounded
/// relative error), so mean and percentiles are both exact-lifetime in
/// count and O(1) in memory regardless of traffic volume.
class StatsCollector {
 public:
  using Counter = std::size_t ServiceStats::*;

  StatsCollector();

  /// Add `n` to one counter — every event outside a micro-batch. The
  /// engine counts an admission in `submitted` before its push, takes it
  /// back out (n = -1) when the push is refused, and moves a queued
  /// request terminated unserved (tenant removed, shutdown) from
  /// `submitted` to `shed`. Denials (over_quota, queue_full,
  /// breaker_denied) never enter `submitted`; requests expired or
  /// faulted at dequeue stay in it.
  CAL_HOT_PATH
  void add(Counter counter, std::ptrdiff_t n = 1) CAL_EXCLUDES(mu_);

  /// One claimed micro-batch, recorded before any of its promises is
  /// fulfilled: `counts` carries its counter deltas (batch size, served,
  /// expired and faulted rows, verdicts, cache and screen work, drift
  /// flushes) and `latency_ms` one latency per served row.
  CAL_HOT_PATH
  void record_batch(const ServiceStats& counts,
                    std::span<const double> latency_ms) CAL_EXCLUDES(mu_);

  /// Restart the wall clock behind wall_seconds/throughput_rps. The
  /// multi-tenant engine calls this once every lane is up, so shards
  /// built early don't count the rest of the fleet's construction time
  /// (replica factories are arbitrarily slow) as serving time.
  void reset_clock() CAL_EXCLUDES(mu_);

  /// A copy of the block plus the derived means, percentiles and rate.
  ServiceStats snapshot() const CAL_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::chrono::steady_clock::time_point start_ CAL_GUARDED_BY(mu_);
  /// Counters and the lifetime latency histogram; the derived fields stay
  /// zero here and are filled on each snapshot().
  ServiceStats block_ CAL_GUARDED_BY(mu_);
};

}  // namespace cal::serve

// Serving-lane primitives.
//
// This header defines the vocabulary every layer of the serving stack
// shares: ServeResult (what a request resolves to, with its typed
// ServeStatus), ReplicaFactory (how a trained model is deployed),
// ServiceConfig (per-tenant lane tuning: replica slots, batching, cache,
// screening thresholds, drift policy, admission quota, circuit breaker),
// and the DriftMonitor that watches a tenant's screening-distance trend.
// A lane's counters are ServiceStats, defined once in stats.hpp.
//
// Execution lives in ServeEngine (engine.hpp): ONE shared worker pool
// runs micro-batches for every registered tenant, with per-tenant bounded
// sub-queues and token-bucket admission. Build a ModelRegistry,
// publish() a DeploymentSnapshot, and talk to ServeEngine directly. The
// engine owns each tenant's DriftMonitor and swaps in a fresh one when
// the tenant is hot-reloaded, so the new radio map pins its own baseline
// instead of being judged against the retired deployment's.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "baselines/localizer.hpp"
#include "common/thread_annotations.hpp"
#include "serve/screening.hpp"
#include "serve/stats.hpp"

namespace cal::serve {

/// Typed terminal status of one request: WHY the future resolved. The
/// serving pipeline ran only for Served (localized or screen-rejected);
/// every other value is the fault-containment layer resolving the future
/// deterministically instead of serving it.
enum class ServeStatus : std::uint8_t {
  Served = 0,  ///< ran the pipeline; `localized`/`verdict` are meaningful
  Denied,      ///< never enqueued — the Admission enum says why
  Expired,     ///< deadline passed before inference; shed at dequeue
  Faulted,     ///< replica predict threw; failed by fault containment
  Dropped,     ///< tenant removed / width-changed under a queued request
  ShutDown,    ///< engine shut down with the request still queued
};

const char* to_string(ServeStatus s);

/// Outcome of one localization request.
struct ServeResult {
  std::size_t rp = 0;       ///< predicted RP; meaningful iff `localized`
  bool localized = false;   ///< false when the screen rejected the request
  ServeStatus status = ServeStatus::Served;
  Verdict verdict = Verdict::Accept;
  double anchor_distance = 0.0;  ///< screening score (0 if screening off)
  bool from_cache = false;
  /// Admission (post-quota enqueue) -> fulfillment on the monotonic
  /// clock: queueing and inference, but never time the client spent
  /// stalled at the quota/backpressure door before being admitted.
  double latency_ms = 0.0;
};

/// Builds one independent, already-trained model replica per call.
using ReplicaFactory =
    std::function<std::unique_ptr<baselines::ILocalizer>()>;

/// When to flush a shard's LRU because the radio map drifted away from
/// the cached answers. The monitor windows screening distances
/// (non-rejected traffic only): the first completed window pins the
/// baseline; each later window's mean is compared against that baseline
/// (slope) and against an absolute level. Crossing either flushes the
/// cache and the drifted window becomes the new baseline, so a
/// persistent shift flushes once and then serves normally from the new
/// radio map — while the baseline stays pinned between flushes, so
/// gradual drift that creeps below slope_factor per window still
/// accumulates and eventually flushes.
struct DriftPolicy {
  /// Samples per window; 0 disables drift tracking.
  std::size_t window = 0;
  /// Flush when mean(current) > slope_factor * mean(baseline).
  double slope_factor = 1.5;
  /// Flush when mean(current) > level (absolute, RMS-per-AP scale).
  double level = std::numeric_limits<double>::infinity();
};

/// Operator-facing view of a DriftMonitor: the windowed trend itself, not
/// just the flush count, so drift is visible while it is still building
/// (the ROADMAP follow-on to drift-triggered invalidation). Exported per
/// tenant through TenantStats (engine.hpp).
struct DriftTrend {
  bool enabled = false;
  std::size_t window = 0;            ///< samples per window
  /// Pinned baseline window mean; < 0 until the first window completes.
  double baseline_mean = -1.0;
  /// Most recent completed window's mean; < 0 until one completes.
  double last_window_mean = -1.0;
  double partial_mean = 0.0;         ///< mean of the in-progress window
  std::size_t partial_n = 0;         ///< samples in the in-progress window
  std::size_t windows_completed = 0;
};

/// Thread-safe windowed trend detector over screening distances.
class DriftMonitor {
 public:
  DriftMonitor() = default;
  explicit DriftMonitor(DriftPolicy policy);

  bool enabled() const { return policy_.window > 0; }

  /// Record one screening distance. Returns true when the windowed trend
  /// crossed the policy — the caller should flush its cache. The drifted
  /// window then becomes the new baseline.
  bool record(double distance) CAL_EXCLUDES(mu_);

  /// Point-in-time copy of the trend for telemetry.
  DriftTrend snapshot() const CAL_EXCLUDES(mu_);

 private:
  DriftPolicy policy_;  ///< immutable after construction
  mutable Mutex mu_;
  /// < 0 until the first window completes.
  double baseline_mean_ CAL_GUARDED_BY(mu_) = -1.0;
  double last_window_mean_ CAL_GUARDED_BY(mu_) = -1.0;
  std::size_t windows_completed_ CAL_GUARDED_BY(mu_) = 0;
  double current_sum_ CAL_GUARDED_BY(mu_) = 0.0;
  std::size_t current_n_ CAL_GUARDED_BY(mu_) = 0;
};

/// Per-tenant token-bucket admission quota. A tenant's submissions drain
/// tokens; the bucket refills at `rate_per_s` up to `burst`. Once empty,
/// submit() returns Admission::OverQuota instead of enqueueing — one
/// venue's traffic burst is shed at the door rather than starving the
/// shared worker pool (Sec5GLoc's per-tenant isolation under attack
/// traffic). rate_per_s == 0 disables the quota.
struct QuotaPolicy {
  double rate_per_s = 0.0;  ///< sustained admitted requests/second; 0 = off
  /// Bucket capacity (instantaneous burst allowance); 0 means rate_per_s.
  double burst = 0.0;
};

/// Per-tenant circuit breaker over replica faults. `fault_threshold`
/// consecutive faulted requests (a batch with any served request resets
/// the streak) open the breaker: submits fast-fail with ready futures
/// (Admission::BreakerOpen) so a broken tenant costs the shared pool
/// nothing. After `open_for_s` the breaker goes half-open and admits up
/// to `half_open_probes` probe requests; a faulted probe reopens with the
/// interval multiplied by `backoff_factor` (capped at `max_open_s`), a
/// served probe closes the breaker. fault_threshold == 0 disables it.
struct BreakerPolicy {
  std::size_t fault_threshold = 0;  ///< consecutive faults to open; 0 = off
  double open_for_s = 0.5;          ///< initial open interval, seconds
  double backoff_factor = 2.0;      ///< interval growth per failed probe
  double max_open_s = 30.0;         ///< open-interval ceiling, seconds
  std::size_t half_open_probes = 1; ///< probes admitted while half-open
};

struct ServiceConfig {
  /// Engine: replica slots for this tenant — the max number of pool
  /// workers that can run this tenant's batches concurrently (the
  /// factory builds one replica per slot).
  std::size_t num_workers = 2;
  /// Micro-batch coalescing cap B: a worker drains up to this many queued
  /// requests and runs them through one batched predict() call.
  std::size_t max_batch = 16;
  /// Bounded per-tenant sub-queue capacity; the engine's submit() returns
  /// Admission::QueueFull when reached (submit_blocking retries instead,
  /// for producers that want the old blocking backpressure).
  std::size_t queue_capacity = 256;
  /// LRU entries; 0 disables caching.
  std::size_t cache_capacity = 0;
  /// Cache key grid on the normalised [0,1] RSS scale (0.005 ⇔ 0.5 dB).
  float cache_quant_step = 0.005F;
  /// Probability that a cache hit is re-inferred and compared against the
  /// cached value (guards against quantization collisions). 0 = off.
  double cache_audit_rate = 0.0;
  /// Accept/flag/reject cutoffs; defaults accept everything.
  ScreeningThresholds screening;
  /// Drift-triggered cache invalidation; disabled by default.
  DriftPolicy drift;
  /// Token-bucket admission quota; unlimited by default.
  QuotaPolicy quota;
  /// Fault circuit breaker; disabled by default.
  BreakerPolicy breaker;
};

}  // namespace cal::serve

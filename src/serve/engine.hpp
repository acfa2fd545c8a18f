// ServeEngine: hot-reloadable, quota-governed serving on a shared pool.
//
//   request {tenant key, fingerprint}
//        │ submit()  — never blocks; returns a typed Admission
//        ▼
//   DeploymentSnapshot::route ── exact / fallback ──▶ tenant
//        │                            └─ miss ──▶ Rejected (ready future)
//        ▼
//   token bucket ──▶ OverQuota │ bounded sub-queue ──▶ QueueFull
//        │ Accepted (admission timestamp taken here, post-quota)
//        ▼
//   per-tenant sub-queue ◀── shared worker pool (pool_size threads,
//                             independent of tenant count) claims
//                             micro-batches round-robin across tenants:
//                             1. checkout a replica slot (per-tenant
//                                concurrency = its slot count)
//                             2. screen → LRU probe → ONE batched
//                                predict() → drift check
//                             3. fulfil futures, release the slot
//
// This replaces the PR 4 thread-per-lane model: N tenants × K workers
// threads became ONE pool of pool_size threads for the whole fleet, with
// two isolation mechanisms the shared pool needs — bounded per-tenant
// sub-queues (a burst cannot occupy more than its queue) and token-bucket
// admission quotas (a burst beyond rate_per_s is shed at the door with
// Admission::OverQuota, before it costs the pool anything). Round-robin
// claiming then bounds how long a quiet tenant's batch waits behind a
// saturated one: at most one in-flight batch per pool worker.
//
// Wake-ups: a push notifies a parked worker only when none of its
// tenant's batches is in flight or a full batch is waiting. Otherwise
// the request joins the running worker's next batch — every worker
// re-scans all queues when its batch finishes — so a fast model is not
// paced by one thread wake-up per request.
//
// Hot reload (RCU over DeploymentSnapshot): deploy() swaps the snapshot
// pointer mid-traffic. In-flight batches finish on the replicas they
// checked out from the old snapshot (kept alive by their shared_ptr);
// queued and new requests run on the new one. Per-tenant mutable state —
// cache, drift baseline, stats, quota bucket, sub-queue — persists across
// deploys; only tenants whose registry spec VERSION changed get their LRU
// flushed and drift baseline reset (so re-publishing an identical
// catalogue is a no-op flush-wise, and reloading venue T never cold-
// starts venue U). Predictions stay bit-identical to sequential
// per-tenant predict() across a reload of unchanged weights, because
// replicas are bit-identical and the forward math is row-independent.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/hot_path_annotations.hpp"
#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/lru_cache.hpp"
#include "serve/queue.hpp"
#include "serve/snapshot.hpp"

namespace cal::serve {

/// Typed outcome of ServeEngine::submit — the engine never blocks the
/// caller; every denial is explicit.
enum class Admission {
  Accepted,    ///< enqueued; the future resolves when a worker serves it
  OverQuota,   ///< tenant's token bucket is empty (ready future)
  QueueFull,   ///< tenant's bounded sub-queue is at capacity (ready future)
  Rejected,    ///< tenant resolved nowhere — routing miss (ready future)
  BreakerOpen, ///< tenant's circuit breaker is open, or every replica slot
               ///< is quarantined — fast-fail (ready future)
};

std::string to_string(Admission a);

/// Monotonic-clock token bucket (see QuotaPolicy). try_acquire takes the
/// current time explicitly so tests can drive synthetic clocks.
class TokenBucket {
 public:
  TokenBucket() = default;  ///< unlimited
  explicit TokenBucket(QuotaPolicy policy);

  /// Take one token if available. Refills rate_per_s per second up to
  /// the burst cap, computed lazily from the elapsed monotonic time.
  CAL_HOT_PATH
  bool try_acquire(std::chrono::steady_clock::time_point now)
      CAL_EXCLUDES(mu_);
  CAL_HOT_PATH
  bool try_acquire() { return try_acquire(std::chrono::steady_clock::now()); }

  /// Return one token (capped at the burst). The engine refunds a token
  /// when a quota-admitted request is then refused by the sub-queue —
  /// QueueFull denials must not drain the tenant's admission budget.
  void refund() CAL_EXCLUDES(mu_);

  /// Swap the policy in place (engine hot reload); the bucket restarts
  /// full so a freshly reloaded tenant is not instantly throttled.
  void reconfigure(QuotaPolicy policy) CAL_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  QuotaPolicy policy_ CAL_GUARDED_BY(mu_){};
  double tokens_ CAL_GUARDED_BY(mu_) = 0.0;
  /// Until first acquire, bucket starts full.
  bool primed_ CAL_GUARDED_BY(mu_) = false;
  std::chrono::steady_clock::time_point last_ CAL_GUARDED_BY(mu_){};
};

/// How a CircuitBreaker::on_batch call moved the breaker, so the engine
/// can trace state changes without polling snapshots.
enum class BreakerTransition : std::uint8_t {
  None = 0,  ///< no state change
  Opened,    ///< Closed -> Open (consecutive-fault threshold reached)
  Reopened,  ///< HalfOpen probe faulted -> Open again (backoff grows)
  Closed,    ///< HalfOpen probe served -> Closed (recovered)
};

/// Per-tenant circuit breaker (see BreakerPolicy): consecutive all-fault
/// batches open it, submissions then fast-fail with Admission::BreakerOpen
/// instead of queueing doomed work, and timed half-open probes with
/// exponential backoff test for recovery. Like TokenBucket, every entry
/// point takes the current time explicitly so tests drive synthetic
/// clocks; a default-constructed breaker (fault_threshold == 0) is
/// disabled and admits everything.
class CircuitBreaker {
 public:
  enum class State : std::uint8_t { Closed = 0, Open, HalfOpen };

  struct Snapshot {
    State state = State::Closed;
    std::size_t consecutive_faults = 0;  ///< current all-fault batch streak
    std::size_t opens = 0;    ///< Closed->Open + HalfOpen->Open transitions
    std::size_t closes = 0;   ///< HalfOpen->Closed recoveries
    double current_open_s = 0.0;  ///< present open/backoff interval
  };

  CircuitBreaker() = default;  ///< disabled
  explicit CircuitBreaker(BreakerPolicy policy);

  /// Admission-side gate. Closed (or disabled): admit. Open: refuse until
  /// the current backoff interval elapses, then flip to HalfOpen and admit
  /// up to half_open_probes probe requests. HalfOpen with all probes out:
  /// refuse — unless a full backoff interval passed since the last probe
  /// left (probes can vanish: shed by deadline, dropped by a deploy), in
  /// which case one replacement probe is admitted so the breaker cannot
  /// deadlock half-open forever.
  CAL_HOT_PATH
  bool try_admit(std::chrono::steady_clock::time_point now)
      CAL_EXCLUDES(mu_);

  /// Completion-side feed: one micro-batch finished with `faulted` rows
  /// failed by the replica and `served` rows fulfilled (expired rows count
  /// as neither). Any served row proves the replica works — it resets the
  /// consecutive-fault streak, and closes a HalfOpen breaker. All-fault
  /// batches grow the streak; at fault_threshold the breaker opens. A
  /// faulted HalfOpen probe reopens with the backoff interval multiplied
  /// by backoff_factor (capped at max_open_s). Results from batches
  /// claimed before the breaker opened are ignored while Open.
  BreakerTransition on_batch(std::chrono::steady_clock::time_point now,
                             std::size_t faulted, std::size_t served)
      CAL_EXCLUDES(mu_);

  /// Swap the policy in place (engine hot reload). The breaker restarts
  /// Closed with a clean streak — a version-bump redeploy replaced the
  /// replicas, so past faults say nothing about the new ones.
  void reconfigure(BreakerPolicy policy) CAL_EXCLUDES(mu_);

  Snapshot snapshot() const CAL_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  BreakerPolicy policy_ CAL_GUARDED_BY(mu_){};
  State state_ CAL_GUARDED_BY(mu_) = State::Closed;
  std::size_t consecutive_faults_ CAL_GUARDED_BY(mu_) = 0;
  std::size_t probes_in_flight_ CAL_GUARDED_BY(mu_) = 0;
  double current_open_s_ CAL_GUARDED_BY(mu_) = 0.0;
  std::chrono::steady_clock::time_point opened_at_ CAL_GUARDED_BY(mu_){};
  std::chrono::steady_clock::time_point last_probe_at_ CAL_GUARDED_BY(mu_){};
  std::size_t opens_ CAL_GUARDED_BY(mu_) = 0;
  std::size_t closes_ CAL_GUARDED_BY(mu_) = 0;
};

/// When the engine's flight recorder trips (see obs/flight_recorder.hpp).
/// A replica slot quarantine (every row of its batch faulted) always
/// trips it: a broken replica is exactly the anomaly a flight recorder
/// exists for, and a quarantined slot takes no more batches, so each slot
/// trips at most once per deployment without any rate limit. The tracer
/// itself is governed separately (obs::Tracer::set_enabled /
/// CALLOC_TRACING=OFF).
struct ObsConfig {
  /// Also trip on every deploy() — captures the cross-deploy timeline.
  bool trip_on_deploy = false;
  /// Dump size / rate limiting for the recorder itself.
  obs::FlightRecorderConfig recorder;
};

struct EngineConfig {
  /// Shared worker threads for the WHOLE fleet — the engine's OS thread
  /// count, independent of how many tenants are deployed.
  std::size_t pool_size = 2;
  /// Base seed for the per-worker Rng streams (cache-hit audits).
  std::uint64_t seed = 2026;
  /// Flight-recorder trip policy.
  ObsConfig obs;
};

/// submit() outcome: admission and routing are known synchronously; the
/// localization result arrives through the future (already fulfilled,
/// with localized == false, for anything but Accepted).
struct EngineSubmission {
  Admission admission = Admission::Rejected;
  RouteDecision decision;
  std::future<ServeResult> result;
};

/// Per-tenant entry of a MultiTenantStats snapshot: the lane's counters
/// plus the gauges read from live engine state in the same pass.
struct TenantStats {
  TenantKey tenant;
  ServiceStats stats;
  /// The drift trend itself (window means + pinned baseline), so
  /// operators see drift building before the flush.
  DriftTrend drift;
  /// Circuit-breaker state (Closed/Open/HalfOpen, streak, open count).
  CircuitBreaker::Snapshot breaker;
  /// Replica slots retired from this tenant's live deployment.
  std::size_t quarantined_slots = 0;
  std::size_t queue_depth = 0;     ///< requests waiting in the sub-queue
  std::size_t queue_capacity = 0;  ///< bounded sub-queue capacity
  /// Lookups on the live LRU (a reload starts a fresh one; a drift flush
  /// empties it but keeps these counts).
  std::size_t lru_hits = 0;
  std::size_t lru_misses = 0;
  std::size_t lru_size = 0;        ///< entries in the LRU
  std::size_t slots = 0;           ///< replica slots of the deployment
  std::size_t busy_slots = 0;      ///< slots checked out right now
  std::size_t weight_bytes = 0;    ///< resident weights across the slots
  Precision precision = Precision::Fp32;
};

/// Fleet snapshot: every tenant's stats, their aggregate, the route mix,
/// and the deployment epoch the engine is serving from.
struct MultiTenantStats {
  std::vector<TenantStats> per_tenant;  ///< shard (snapshot) order
  ServiceStats aggregate;
  std::size_t route_exact = 0;
  std::size_t route_fallback = 0;
  std::size_t route_rejected = 0;
  std::uint64_t snapshot_epoch = 0;  ///< epoch of the live snapshot
  std::size_t deploys = 0;           ///< deploy() calls since construction
  std::size_t reload_flushes = 0;    ///< tenants flushed by version change

  std::string str() const;
};

/// The serving engine. Construct from a published snapshot; deploy()
/// newer snapshots at any time without draining traffic.
class ServeEngine {
 public:
  ServeEngine(std::shared_ptr<const DeploymentSnapshot> snapshot,
              EngineConfig cfg);

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;
  ~ServeEngine();

  /// Route, quota-check, and enqueue one normalised fingerprint. Never
  /// blocks: the outcome is a typed Admission (plus a ready future for
  /// every denial). Throws PreconditionError on a malformed fingerprint
  /// (wrong width for the resolved tenant, non-finite values) and after
  /// shutdown().
  ///
  /// `deadline`, when set, is the latest monotonic instant the caller
  /// still wants an answer: a worker that dequeues the request past it
  /// sheds it — completing the future with ServeStatus::Expired, before
  /// the request costs a replica checkout or a batch slot. Admission is
  /// NOT deadline-checked (an already-expired deadline is still Accepted
  /// and then shed by the pool), keeping submit() clock-read-free on the
  /// no-deadline path.
  CAL_HOT_PATH
  EngineSubmission submit(
      const TenantKey& tenant, std::vector<float> fingerprint_normalized,
      std::optional<std::chrono::steady_clock::time_point> deadline =
          std::nullopt);

  /// Blocking convenience wrapper for drive loops: retries OverQuota /
  /// QueueFull denials with a short poll until the request is Accepted
  /// or Rejected. BreakerOpen is NOT retried — it is returned like
  /// Rejected, because an open breaker deliberately sheds load and a
  /// polling retry would defeat it. `denials`, when given, counts the
  /// retried attempts.
  EngineSubmission submit_blocking(const TenantKey& tenant,
                                   std::vector<float> fingerprint_normalized,
                                   std::size_t* denials = nullptr);

  /// RCU snapshot swap — see the file comment. Queued requests of
  /// tenants absent from (or width-incompatible with) the new snapshot
  /// are failed immediately with localized == false.
  void deploy(std::shared_ptr<const DeploymentSnapshot> snapshot);

  /// Stop accepting requests, fail every queued request with
  /// ServeStatus::ShutDown, let in-flight batches finish, join the pool.
  /// Idempotent; also run by the destructor.
  void shutdown();

  /// The engine's one telemetry read: every tenant's counters and
  /// gauges, their aggregate, routing and deployment counters.
  MultiTenantStats stats() const;

  /// stats() encoded as one point-in-time metrics registry — per-tenant
  /// counters from the kServiceCounters table, breaker, queue, LRU,
  /// replica-slot and drift gauges, latency histograms, routing and
  /// deployment counters — plus tracer/flight-recorder health. Encode it
  /// with MetricsRegistry::prometheus_text() or ::json().
  obs::MetricsRegistry metrics() const;

  /// The engine's anomaly capture — trips per ObsConfig; tests and
  /// operators read trips()/dumps()/last_dump().
  obs::FlightRecorder& flight_recorder() { return recorder_; }

  /// Restart every tenant's telemetry wall clock (counters untouched) —
  /// call once a freshly constructed fleet is ready to take traffic.
  void reset_telemetry_clocks();

  std::size_t pool_size() const { return cfg_.pool_size; }
  std::size_t num_tenants() const;
  std::shared_ptr<const DeploymentSnapshot> snapshot() const;

 private:
  struct Pending {
    std::vector<float> fingerprint;
    std::promise<ServeResult> promise;
    /// Post-quota admission on the monotonic clock — latency_ms bills
    /// queueing + inference, never pre-admission stalls.
    std::chrono::steady_clock::time_point admitted_at;
    /// Shed (ServeStatus::Expired) when dequeued past this instant; the
    /// max() sentinel means no deadline.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
  };

  /// Mutable per-tenant lane state; persists across deploy() for
  /// version-unchanged tenants.
  struct TenantState {
    explicit TenantState(std::size_t queue_capacity) : q(queue_capacity) {}

    TenantKey key;
    /// tenant_hash(key), cached at publish: trace sites on the submit hot
    /// path must not re-hash three strings per request.
    std::uint64_t trace_tenant = 0;
    std::uint64_t version = 0;
    std::size_t num_aps = 0;
    /// RCU-replaced (never mutated in place) on hot reload — see Claim.
    std::shared_ptr<FingerprintCache> cache;
    std::shared_ptr<DriftMonitor> drift;
    TokenBucket bucket;
    CircuitBreaker breaker;
    StatsCollector stats;
    /// Bounded sub-queue; try_push keeps submit() non-blocking.
    BoundedQueue<Pending> q;
    /// Sticky flag: set the first time a deadline-carrying request is
    /// queued, so the dequeue path of deadline-free tenants (the common
    /// case) never pays the drain_if scan or the clock read.
    std::atomic<bool> has_deadlines{false};
  };

  struct Claim {
    std::shared_ptr<const DeploymentSnapshot> snap;
    std::shared_ptr<TenantState> state;
    const TenantDeployment* dep = nullptr;  ///< points into `snap`
    std::size_t slot = 0;
    /// Engine-unique micro-batch id, stamped on this batch's trace events.
    std::uint64_t batch_id = 0;
    std::vector<Pending> batch;
    /// Copies taken at claim time: a concurrent hot reload swaps the
    /// tenant's cache/drift for fresh instances, while this batch keeps
    /// finishing against the ones its deployment was claimed with.
    std::shared_ptr<FingerprintCache> cache;
    std::shared_ptr<DriftMonitor> drift;
  };

  static std::shared_ptr<TenantState> make_state(const TenantDeployment& dep);
  static void configure_state(TenantState& st, const TenantDeployment& dep);
  /// Fail every queued request of `st` with the given terminal status
  /// (Dropped: tenant removed / incompatible on deploy; ShutDown: engine
  /// stopping). Returns how many were dropped. Caller holds mu_
  /// exclusively: the queue must be invisible to submit() while it is
  /// being failed.
  std::size_t drop_queue(TenantState& st, ServeStatus status)
      CAL_REQUIRES(mu_);
  /// Resolve every request in `reqs` unlocalized with `status` and
  /// `verdict`. Callers count the requests in stats first, so a resolved
  /// future is always visible in stats().
  static void fail_all(std::vector<Pending>& reqs, ServeStatus status,
                       Verdict verdict);

  // worker_loop itself parks on work_cv_ between claims and is therefore
  // deliberately NOT hot-path annotated; the claim→checkout→screen→
  // predict→complete chain it runs per wakeup is.
  void worker_loop(std::size_t worker_index) CAL_EXCLUDES(mu_, work_mu_);
  CAL_HOT_PATH
  bool try_claim(std::size_t& cursor, Claim& out) CAL_EXCLUDES(mu_);
  CAL_HOT_PATH
  void process(Claim& claim, Rng& rng);

  EngineConfig cfg_;

  /// Guards snapshot_ / states_ / order_ as one consistent unit: submit
  /// and workers take it shared, deploy/shutdown take it unique.
  mutable SharedMutex mu_;
  std::shared_ptr<const DeploymentSnapshot> snapshot_ CAL_GUARDED_BY(mu_);
  std::unordered_map<TenantKey, std::shared_ptr<TenantState>, TenantKeyHash>
      states_ CAL_GUARDED_BY(mu_);
  /// Snapshot order.
  std::vector<std::shared_ptr<TenantState>> order_ CAL_GUARDED_BY(mu_);

  std::atomic<bool> accepting_{true};

  /// Pool wake-up state. work_gen_ bumps on every event a parked worker
  /// might care about (push, deploy, shutdown); waiting on a generation
  /// makes lost wakeups impossible. Which pushes also notify a worker is
  /// submit()'s policy.
  Mutex work_mu_;
  CondVar work_cv_;
  std::uint64_t work_gen_ CAL_GUARDED_BY(work_mu_) = 0;
  /// Workers exit on this flag alone: shutdown() fails every queued
  /// request before it sets it, so nothing is left to claim.
  bool stopped_ CAL_GUARDED_BY(work_mu_) = false;

  std::atomic<std::size_t> route_exact_{0};
  std::atomic<std::size_t> route_fallback_{0};
  std::atomic<std::size_t> route_rejected_{0};
  std::atomic<std::size_t> deploys_{0};
  std::atomic<std::size_t> reload_flushes_{0};
  /// Micro-batch ids start at 1: trace events with batch == 0 are
  /// outside any batch (admission path, deploys).
  std::atomic<std::uint64_t> next_batch_id_{1};

  obs::FlightRecorder recorder_;

  std::vector<std::thread> workers_;
  std::once_flag shutdown_once_;
};

}  // namespace cal::serve

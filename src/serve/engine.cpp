#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/ensure.hpp"
#include "common/fault_inject.hpp"

namespace cal::serve {
namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double, std::milli>(dt).count();
}

/// Tenant identity in the trace-event domain (events carry integers).
std::uint64_t tenant_hash(const TenantKey& key) {
  return static_cast<std::uint64_t>(TenantKeyHash{}(key));
}

/// Ready future for a denied submission: never localized; routing misses
/// additionally carry Verdict::Reject (the request was refused, not
/// screened), admission denials keep Verdict::Accept — the Admission enum
/// is the authoritative "why".
std::future<ServeResult> ready_denial(
    Verdict verdict, ServeStatus status = ServeStatus::Denied) {
  std::promise<ServeResult> promise;
  ServeResult res;
  res.localized = false;
  res.verdict = verdict;
  res.status = status;
  promise.set_value(res);
  return promise.get_future();
}

/// Per-tenant breaker counters, exported beside kServiceCounters.
constexpr CounterRow<CircuitBreaker::Snapshot> kBreakerCounters[] = {
    {&CircuitBreaker::Snapshot::opens, "cal_serve_breaker_opens_total",
     "Circuit-breaker open + reopen transitions"},
    {&CircuitBreaker::Snapshot::closes, "cal_serve_breaker_closes_total",
     "Circuit-breaker half-open -> closed recoveries"},
};

const char* breaker_state_name(CircuitBreaker::State s) {
  switch (s) {
    case CircuitBreaker::State::Closed: return "closed";
    case CircuitBreaker::State::Open: return "open";
    case CircuitBreaker::State::HalfOpen: return "half-open";
  }
  return "?";
}

}  // namespace

std::string to_string(Admission a) {
  switch (a) {
    case Admission::Accepted: return "accepted";
    case Admission::OverQuota: return "over-quota";
    case Admission::QueueFull: return "queue-full";
    case Admission::Rejected: return "rejected";
    case Admission::BreakerOpen: return "breaker-open";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// TokenBucket
// ---------------------------------------------------------------------------

TokenBucket::TokenBucket(QuotaPolicy policy) { reconfigure(policy); }

void TokenBucket::reconfigure(QuotaPolicy policy) {
  CAL_ENSURE(policy.rate_per_s >= 0.0 && policy.burst >= 0.0,
             "quota must be non-negative: rate " << policy.rate_per_s
                                                 << ", burst "
                                                 << policy.burst);
  MutexLock lock(mu_);
  policy_ = policy;
  if (policy_.rate_per_s > 0.0) {
    if (policy_.burst <= 0.0) policy_.burst = policy_.rate_per_s;
    // A bucket that can never hold one whole token (rate or burst below
    // 1) would deny EVERY request forever; clamp so sub-1/s rates mean
    // "one request per 1/rate seconds", not "no requests ever".
    policy_.burst = std::max(policy_.burst, 1.0);
  }
  tokens_ = policy_.burst;
  primed_ = false;
}

void TokenBucket::refund() {
  MutexLock lock(mu_);
  if (policy_.rate_per_s <= 0.0) return;
  tokens_ = std::min(policy_.burst, tokens_ + 1.0);
}

bool TokenBucket::try_acquire(std::chrono::steady_clock::time_point now) {
  MutexLock lock(mu_);
  if (policy_.rate_per_s <= 0.0) return true;
  if (!primed_) {
    // First acquire after (re)configuration: the bucket starts full.
    primed_ = true;
    tokens_ = policy_.burst;
    last_ = now;
  } else if (now > last_) {
    const double dt = std::chrono::duration<double>(now - last_).count();
    tokens_ = std::min(policy_.burst, tokens_ + dt * policy_.rate_per_s);
    last_ = now;
  }
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

CircuitBreaker::CircuitBreaker(BreakerPolicy policy) { reconfigure(policy); }

void CircuitBreaker::reconfigure(BreakerPolicy policy) {
  if (policy.fault_threshold > 0) {
    CAL_ENSURE(policy.open_for_s > 0.0,
               "breaker open_for_s must be positive, got "
                   << policy.open_for_s);
    CAL_ENSURE(policy.backoff_factor >= 1.0,
               "breaker backoff_factor must be >= 1, got "
                   << policy.backoff_factor);
    CAL_ENSURE(!(policy.max_open_s < policy.open_for_s),
               "breaker max_open_s " << policy.max_open_s
                                     << " below open_for_s "
                                     << policy.open_for_s);
    CAL_ENSURE(policy.half_open_probes >= 1,
               "breaker needs half_open_probes >= 1");
  }
  MutexLock lock(mu_);
  policy_ = policy;
  state_ = State::Closed;
  consecutive_faults_ = 0;
  probes_in_flight_ = 0;
  current_open_s_ = policy_.open_for_s;
}

bool CircuitBreaker::try_admit(std::chrono::steady_clock::time_point now) {
  MutexLock lock(mu_);
  if (policy_.fault_threshold == 0 || state_ == State::Closed) return true;
  if (state_ == State::Open) {
    if (std::chrono::duration<double>(now - opened_at_).count() <
        current_open_s_)
      return false;
    state_ = State::HalfOpen;
    probes_in_flight_ = 0;
  }
  if (probes_in_flight_ < policy_.half_open_probes) {
    ++probes_in_flight_;
    last_probe_at_ = now;
    return true;
  }
  // Probes can vanish without ever reaching on_batch (shed by a deadline,
  // dropped by a deploy): after a full backoff interval of silence, admit
  // one replacement so the breaker cannot stay half-open forever.
  if (!(std::chrono::duration<double>(now - last_probe_at_).count() <
        current_open_s_)) {
    probes_in_flight_ = 1;
    last_probe_at_ = now;
    return true;
  }
  return false;
}

BreakerTransition CircuitBreaker::on_batch(
    std::chrono::steady_clock::time_point now, std::size_t faulted,
    std::size_t served) {
  if (faulted == 0 && served == 0) return BreakerTransition::None;
  MutexLock lock(mu_);
  if (policy_.fault_threshold == 0) return BreakerTransition::None;
  switch (state_) {
    case State::Closed:
      if (served > 0) {
        // Any served row proves the replicas work; a mixed batch is row
        // poison (the faulted rows got their typed result), not a broken
        // tenant.
        consecutive_faults_ = 0;
        return BreakerTransition::None;
      }
      consecutive_faults_ += faulted;
      if (consecutive_faults_ >= policy_.fault_threshold) {
        state_ = State::Open;
        opened_at_ = now;
        current_open_s_ = policy_.open_for_s;
        ++opens_;
        return BreakerTransition::Opened;
      }
      return BreakerTransition::None;
    case State::Open:
      // A batch claimed before the breaker opened finishing late: the
      // open interval is already counting down, nothing to learn.
      return BreakerTransition::None;
    case State::HalfOpen:
      if (served > 0) {
        state_ = State::Closed;
        consecutive_faults_ = 0;
        probes_in_flight_ = 0;
        current_open_s_ = policy_.open_for_s;
        ++closes_;
        return BreakerTransition::Closed;
      }
      state_ = State::Open;
      opened_at_ = now;
      current_open_s_ = std::min(current_open_s_ * policy_.backoff_factor,
                                 policy_.max_open_s);
      ++opens_;
      return BreakerTransition::Reopened;
  }
  return BreakerTransition::None;
}

CircuitBreaker::Snapshot CircuitBreaker::snapshot() const {
  MutexLock lock(mu_);
  Snapshot s;
  s.state = state_;
  s.consecutive_faults = consecutive_faults_;
  s.opens = opens_;
  s.closes = closes_;
  s.current_open_s = current_open_s_;
  return s;
}

// ---------------------------------------------------------------------------
// MultiTenantStats
// ---------------------------------------------------------------------------

std::string MultiTenantStats::str() const {
  std::ostringstream os;
  os << "deployment: epoch " << snapshot_epoch << ", " << deploys
     << " deploys, " << reload_flushes << " reload flushes\n";
  os << "routing:  " << route_exact << " exact, " << route_fallback
     << " fallback, " << route_rejected << " rejected\n";
  for (const TenantStats& t : per_tenant) {
    os << "-- tenant " << t.tenant.str() << " --\n" << t.stats.str() << "\n";
    if (t.breaker.opens + t.breaker.closes + t.quarantined_slots > 0)
      os << "breaker:  " << breaker_state_name(t.breaker.state) << ", "
         << t.breaker.opens << " opens, " << t.breaker.closes
         << " closes, " << t.quarantined_slots << " slots quarantined\n";
    if (t.drift.enabled) {
      os << "drift:    baseline ";
      if (t.drift.baseline_mean < 0.0) {
        os << "(pinning)";
      } else {
        os << t.drift.baseline_mean;
      }
      if (t.drift.last_window_mean >= 0.0)
        os << ", last window " << t.drift.last_window_mean;
      os << ", building " << t.drift.partial_mean << " ("
         << t.drift.partial_n << "/" << t.drift.window << ")\n";
    }
  }
  os << "-- aggregate (" << per_tenant.size() << " tenants) --\n"
     << aggregate.str();
  return os.str();
}

// ---------------------------------------------------------------------------
// ServeEngine
// ---------------------------------------------------------------------------

std::shared_ptr<ServeEngine::TenantState> ServeEngine::make_state(
    const TenantDeployment& dep) {
  auto state = std::make_shared<TenantState>(dep.lane.queue_capacity);
  state->key = dep.key;
  state->trace_tenant = tenant_hash(dep.key);
  configure_state(*state, dep);
  return state;
}

void ServeEngine::configure_state(TenantState& st,
                                  const TenantDeployment& dep) {
  st.version = dep.version;
  st.num_aps = dep.num_aps;
  // RCU-replace the cache and drift monitor rather than mutating them: a
  // worker mid-batch on the retiring deployment holds shared_ptr copies
  // and finishes against those, while all new traffic sees the fresh
  // (empty, baseline-less) instances.
  st.cache = std::make_shared<FingerprintCache>(dep.lane.cache_capacity,
                                                dep.lane.cache_quant_step);
  st.drift = std::make_shared<DriftMonitor>(dep.lane.drift);
  st.bucket.reconfigure(dep.lane.quota);
  // The breaker restarts Closed: a version-bump deploy rebuilt the
  // replicas (healing any quarantine), so the fault streak is stale.
  st.breaker.reconfigure(dep.lane.breaker);
  // Applies to future pushes only: requests already queued beyond a
  // shrunken capacity stay and drain normally.
  st.q.set_capacity(dep.lane.queue_capacity);
}

ServeEngine::ServeEngine(std::shared_ptr<const DeploymentSnapshot> snapshot,
                         EngineConfig cfg)
    : cfg_(cfg), recorder_(cfg.obs.recorder) {
  CAL_ENSURE(snapshot != nullptr, "engine needs a deployment snapshot");
  CAL_ENSURE(cfg_.pool_size > 0, "engine needs pool_size >= 1");
  snapshot_ = std::move(snapshot);
  order_.reserve(snapshot_->num_tenants());
  for (std::size_t i = 0; i < snapshot_->num_tenants(); ++i) {
    auto state = make_state(snapshot_->tenant(i));
    states_.emplace(state->key, state);
    order_.push_back(std::move(state));
  }
  workers_.reserve(cfg_.pool_size);
  try {
    for (std::size_t i = 0; i < cfg_.pool_size; ++i)
      workers_.emplace_back(&ServeEngine::worker_loop, this, i);
  } catch (...) {
    // Thread spawn can fail (EAGAIN under resource exhaustion). Unwinding
    // with joinable threads would std::terminate, so stop the ones that
    // started before rethrowing.
    {
      MutexLock lock(work_mu_);
      stopped_ = true;
      ++work_gen_;
    }
    work_cv_.notify_all();
    for (auto& w : workers_)
      if (w.joinable()) w.join();
    throw;
  }
}

ServeEngine::~ServeEngine() { shutdown(); }

EngineSubmission ServeEngine::submit(
    const TenantKey& tenant, std::vector<float> fingerprint_normalized,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  CAL_ENSURE(accepting_.load(std::memory_order_acquire),
             "submit() after engine shutdown");
  EngineSubmission out;
  ReaderMutexLock lock(mu_);
  out.decision = snapshot_->route(tenant);
  if (out.decision.status == RouteDecision::Status::Reject) {
    route_rejected_.fetch_add(1, std::memory_order_relaxed);
    CAL_TRACE_EVENT(obs::EventType::Deny, tenant_hash(tenant),
                    snapshot_->epoch(), 0,
                    static_cast<double>(Admission::Rejected));
    // Deterministic explicit reject: never guess a venue.
    out.admission = Admission::Rejected;
    out.result = ready_denial(Verdict::Reject);
    return out;
  }
  const auto state_it = states_.find(out.decision.resolved);
  CAL_INVARIANT(state_it != states_.end(),
                "snapshot tenant missing engine state");
  TenantState& state = *state_it->second;
  CAL_ENSURE(fingerprint_normalized.size() == state.num_aps,
             "fingerprint has " << fingerprint_normalized.size()
                                << " APs, tenant " << state.key.str()
                                << " expects " << state.num_aps);
  // Untrusted channel: a NaN/Inf fingerprint would poison the batched
  // forward pass (the GEMM kernels propagate non-finites by contract) and
  // feed std::lround garbage in the cache-key quantizer, so reject it at
  // the door — same policy as the CSV loader.
  for (std::size_t i = 0; i < fingerprint_normalized.size(); ++i)
    CAL_ENSURE(std::isfinite(fingerprint_normalized[i]),
               "fingerprint AP " << i << " is non-finite");
  // Fault containment gate, ahead of the quota so a doomed request never
  // spends a token: a tenant with every replica slot quarantined is a
  // black hole (no replica left that could serve its queue), and an open
  // breaker is deliberately shedding load. healthy_slots() is one relaxed
  // atomic load; a disabled breaker's try_admit is one uncontended
  // mutex hop.
  if (snapshot_->tenant(out.decision.shard).healthy_slots() == 0 ||
      !state.breaker.try_admit(std::chrono::steady_clock::now())) {
    state.stats.add(&ServiceStats::breaker_denied);
    CAL_TRACE_EVENT(obs::EventType::Deny, state.trace_tenant,
                    snapshot_->epoch(), 0,
                    static_cast<double>(Admission::BreakerOpen));
    out.admission = Admission::BreakerOpen;
    out.result = ready_denial(Verdict::Accept);
    return out;
  }
  if (!state.bucket.try_acquire(std::chrono::steady_clock::now())) {
    state.stats.add(&ServiceStats::over_quota);
    CAL_TRACE_EVENT(obs::EventType::Deny, state.trace_tenant,
                    snapshot_->epoch(), 0,
                    static_cast<double>(Admission::OverQuota));
    out.admission = Admission::OverQuota;
    out.result = ready_denial(Verdict::Accept);
    return out;
  }
  // Count before the push: a worker may complete the request the instant
  // it lands, and `completed` must never be observed above `submitted`.
  state.stats.add(&ServiceStats::submitted);
  Pending pending;
  pending.fingerprint = std::move(fingerprint_normalized);
  // The admission timestamp, taken post-quota: latency_ms bills queueing
  // + inference, never the time a client spent being denied
  // (OverQuota/QueueFull) before this accept.
  pending.admitted_at = std::chrono::steady_clock::now();
  if (deadline) {
    pending.deadline = *deadline;
    // Sticky, set before the push: the worker that claims this request
    // must see the flag. (A lost relaxed-store race is still covered by
    // the per-row expiry check inside process().)
    state.has_deadlines.store(true, std::memory_order_relaxed);
  }
  out.result = pending.promise.get_future();
  // Depth is reported by the push itself — a size() call here would take
  // the queue mutex a second time per request just to decide the wake-up.
  std::size_t depth_after = 0;
  bool pushed = false;
  try {
    CAL_FAULT_POINT("serve.queue_push");
    pushed = state.q.try_push(std::move(pending), &depth_after);
  } catch (...) {
    // Containment: an exception between the bookkeeping above and a
    // successful push (the fault-injection site stands in for whatever
    // the future grows here — allocation, instrumentation) must leave
    // the engine exactly as if the submission never happened.
    state.stats.add(&ServiceStats::submitted, -1);
    state.bucket.refund();
    throw;
  }
  if (!pushed) {
    state.stats.add(&ServiceStats::submitted, -1);
    // The consumed token must not bill a request that was never
    // admitted — QueueFull shedding is not quota usage.
    state.bucket.refund();
    // try_push fails for a full queue or a closed one; the queues close
    // only inside shutdown() (after accepting_ flips), so re-reading the
    // flag disambiguates. shutdown() closes under the queue's own mutex,
    // making this read well-ordered after the close it lost to.
    CAL_ENSURE(accepting_.load(std::memory_order_acquire),
               "submit() after engine shutdown");
    state.stats.add(&ServiceStats::queue_full);
    CAL_TRACE_EVENT(obs::EventType::Deny, state.trace_tenant,
                    snapshot_->epoch(), 0,
                    static_cast<double>(Admission::QueueFull));
    out.admission = Admission::QueueFull;
    out.result = ready_denial(Verdict::Accept);
    return out;
  }
  // Wake a parked worker only for work that no running worker will come
  // back for: the first request queued while none of this tenant's
  // batches is in flight, or each full batch that piles up behind one.
  // A worker re-scans every queue when its batch finishes, so requests
  // that arrive meanwhile ride its next batch instead of each paying a
  // wake-up. The generation still bumps on every push, so a worker on its
  // way to park re-scans instead.
  const TenantDeployment& dep = snapshot_->tenant(out.decision.shard);
  const bool wake = depth_after % dep.lane.max_batch == 0 ||
                    (depth_after == 1 && dep.busy_slots() == 0);
  {
    MutexLock wlock(work_mu_);
    ++work_gen_;
  }
  if (wake) work_cv_.notify_one();
  (out.decision.status == RouteDecision::Status::Exact ? route_exact_
                                                       : route_fallback_)
      .fetch_add(1, std::memory_order_relaxed);
  CAL_TRACE_EVENT(obs::EventType::Admit, state.trace_tenant,
                  snapshot_->epoch(), 0,
                  static_cast<double>(out.decision.status));
  CAL_TRACE_EVENT(obs::EventType::Enqueue, state.trace_tenant,
                  snapshot_->epoch(), 0,
                  static_cast<double>(depth_after));
  out.admission = Admission::Accepted;
  return out;
}

EngineSubmission ServeEngine::submit_blocking(
    const TenantKey& tenant, std::vector<float> fingerprint_normalized,
    std::size_t* denials) {
  // Exponential backoff (100us -> ~6.4ms) keeps a producer blocked on a
  // saturated tenant from spinning the admission path hot; precise
  // condvar backpressure is deliberately NOT rebuilt here — this wrapper
  // exists for drive loops, and overload-aware callers should handle the
  // typed denials themselves.
  auto backoff = std::chrono::microseconds(100);
  constexpr auto kMaxBackoff = std::chrono::microseconds(6400);
  for (;;) {
    // Copy per attempt: submit() consumes the vector only on Accepted.
    EngineSubmission sub = submit(tenant, fingerprint_normalized);
    if (sub.admission == Admission::OverQuota ||
        sub.admission == Admission::QueueFull) {
      if (denials != nullptr) ++*denials;
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, kMaxBackoff);
      continue;
    }
    return sub;
  }
}

void ServeEngine::fail_all(std::vector<Pending>& reqs, ServeStatus status,
                           Verdict verdict) {
  ServeResult res;
  res.localized = false;
  res.status = status;
  res.verdict = verdict;
  for (Pending& p : reqs) p.promise.set_value(res);
}

std::size_t ServeEngine::drop_queue(TenantState& st, ServeStatus status) {
  auto dropped = st.q.drain_if([](const Pending&) { return true; });
  // The tenant vanished / changed width under the requests (Dropped) or
  // the engine is stopping (ShutDown): move their admissions from
  // `submitted` to `shed` — they were never served — then fail each with
  // its typed terminal status.
  const auto k = static_cast<std::ptrdiff_t>(dropped.size());
  st.stats.add(&ServiceStats::submitted, -k);
  st.stats.add(&ServiceStats::shed, k);
  fail_all(dropped, status, Verdict::Reject);
  return dropped.size();
}

void ServeEngine::deploy(std::shared_ptr<const DeploymentSnapshot> snapshot) {
  CAL_ENSURE(snapshot != nullptr, "deploy() needs a snapshot");
  CAL_ENSURE(accepting_.load(std::memory_order_acquire),
             "deploy() after engine shutdown");
  // Before any engine state is touched: a deploy that faults here leaves
  // the old snapshot serving untouched (strong exception safety).
  CAL_FAULT_POINT("serve.deploy");
  // The snapshot is immutable: its epoch is this deploy's, whatever a
  // concurrent deploy() swaps in after us.
  const std::uint64_t epoch = snapshot->epoch();
  std::size_t dropped = 0;
  {
    WriterMutexLock lock(mu_);
    // Re-check under the exclusive lock: a concurrent shutdown() closes
    // every queue under this same lock, so once we hold it either its
    // sweep already covered the current states (and this throw fires) or
    // it will run after us and cover the new ones.
    CAL_ENSURE(accepting_.load(std::memory_order_acquire),
               "deploy() after engine shutdown");
    std::unordered_map<TenantKey, std::shared_ptr<TenantState>, TenantKeyHash>
        next_states;
    std::vector<std::shared_ptr<TenantState>> next_order;
    next_states.reserve(snapshot->num_tenants());
    next_order.reserve(snapshot->num_tenants());
    for (std::size_t i = 0; i < snapshot->num_tenants(); ++i) {
      const TenantDeployment& dep = snapshot->tenant(i);
      std::shared_ptr<TenantState> state;
      if (const auto it = states_.find(dep.key); it != states_.end()) {
        state = it->second;
        if (state->version != dep.version) {
          // Hot reload of THIS tenant: its cached answers and drift
          // baseline describe the retired model's radio map. Queued
          // requests survive (they re-run on the new replicas) unless
          // the fingerprint width changed under them.
          if (state->num_aps != dep.num_aps)
            dropped += drop_queue(*state, ServeStatus::Dropped);
          configure_state(*state, dep);
          reload_flushes_.fetch_add(1, std::memory_order_relaxed);
        }
        // Version unchanged — an identical republish — is a no-op:
        // cache, drift baseline, bucket, and queue all carry over.
      } else {
        state = make_state(dep);
      }
      next_states.emplace(dep.key, state);
      next_order.push_back(std::move(state));
    }
    for (auto& [key, state] : states_)
      if (next_states.find(key) == next_states.end())
        dropped += drop_queue(*state, ServeStatus::Dropped);
    states_ = std::move(next_states);
    order_ = std::move(next_order);
    snapshot_ = std::move(snapshot);
  }
  deploys_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock wlock(work_mu_);
    ++work_gen_;
  }
  work_cv_.notify_all();
  CAL_TRACE_EVENT(obs::EventType::Deploy, 0, epoch, 0,
                  static_cast<double>(dropped));
  if (cfg_.obs.trip_on_deploy)
    recorder_.trip("deploy", {{"epoch", epoch}, {"dropped", dropped}});
}

void ServeEngine::shutdown() {
  std::call_once(shutdown_once_, [this] {
    accepting_.store(false, std::memory_order_release);
    {
      // Exclusive lock: in-flight submits hold the shared lock for their
      // whole push, so once we hold this, every accepted request is
      // visible in its queue and no new one can appear (a submit that
      // slipped past accepting_ and is parked on the lock will find its
      // queue closed, re-read the flag, and throw). Close each queue and
      // fail what it held with the typed ShutDown status — shutdown is
      // deterministic: every future a caller holds becomes ready, served
      // or ShutDown, never abandoned. In-flight batches already claimed
      // by workers are NOT cut short; the join below waits for them.
      WriterMutexLock lock(mu_);
      for (const auto& state : order_) {
        state->q.close();
        drop_queue(*state, ServeStatus::ShutDown);
      }
    }
    {
      MutexLock wlock(work_mu_);
      stopped_ = true;
      ++work_gen_;
    }
    work_cv_.notify_all();
    for (auto& w : workers_)
      if (w.joinable()) w.join();
  });
}

bool ServeEngine::try_claim(std::size_t& cursor, Claim& out) {
  ReaderMutexLock lock(mu_);
  const std::size_t n = order_.size();
  if (n == 0) return false;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = (cursor + i) % n;
    const std::shared_ptr<TenantState>& state = order_[idx];
    if (state->q.size() == 0) continue;
    // order_ is rebuilt to snapshot order on every deploy, under the
    // same exclusive lock — index alignment is an invariant.
    const TenantDeployment& dep = snapshot_->tenant(idx);
    CAL_INVARIANT(dep.key == state->key, "engine state order out of sync");
    if (dep.healthy_slots() == 0) {
      // Every replica slot is quarantined: nothing can ever serve this
      // queue on this deployment. Fail what is queued deterministically
      // (requests racing past the submit-side gate land here on the next
      // scan — every push signals work) and let the breaker see the
      // faults so recovery probing has a state to close from after the
      // healing deploy.
      auto doomed = state->q.drain_if([](const Pending&) { return true; });
      if (!doomed.empty()) {
        state->stats.add(&ServiceStats::faulted,
                         static_cast<std::ptrdiff_t>(doomed.size()));
        fail_all(doomed, ServeStatus::Faulted, Verdict::Accept);
        CAL_TRACE_EVENT(obs::EventType::Fault, state->trace_tenant,
                        snapshot_->epoch(), 0,
                        static_cast<double>(doomed.size()));
        state->breaker.on_batch(std::chrono::steady_clock::now(),
                                doomed.size(), 0);
      }
      continue;
    }
    if (state->has_deadlines.load(std::memory_order_relaxed)) {
      // Deadline shedding at dequeue: expired requests leave the queue
      // with their typed result BEFORE this tenant costs a replica
      // checkout or a batch slot. Deadline-free tenants never reach this
      // scan (the sticky flag stays false), so they pay nothing.
      const auto now = std::chrono::steady_clock::now();
      auto expired = state->q.drain_if(
          [now](const Pending& p) { return p.deadline <= now; });
      if (!expired.empty()) {
        state->stats.add(&ServiceStats::expired,
                         static_cast<std::ptrdiff_t>(expired.size()));
        fail_all(expired, ServeStatus::Expired, Verdict::Accept);
        CAL_TRACE_EVENT(obs::EventType::Expire, state->trace_tenant,
                        snapshot_->epoch(), 0,
                        static_cast<double>(expired.size()));
        if (state->q.size() == 0) continue;
      }
    }
    const int slot = dep.try_checkout();
    if (slot < 0) continue;  // this tenant is already at max concurrency
    std::vector<Pending> batch = state->q.try_pop_batch(dep.lane.max_batch);
    if (batch.empty()) {  // another worker drained it between the checks
      dep.release(static_cast<std::size_t>(slot));
      continue;
    }
    out.snap = snapshot_;
    out.state = state;
    out.dep = &dep;
    out.slot = static_cast<std::size_t>(slot);
    out.batch_id = next_batch_id_.fetch_add(1, std::memory_order_relaxed);
    out.batch = std::move(batch);
    out.cache = state->cache;
    out.drift = state->drift;
    CAL_TRACE_EVENT(obs::EventType::BatchClaim, state->trace_tenant,
                    out.snap->epoch(), out.batch_id,
                    static_cast<double>(out.batch.size()));
    CAL_TRACE_EVENT(obs::EventType::ReplicaCheckout, state->trace_tenant,
                    out.snap->epoch(), out.batch_id,
                    static_cast<double>(out.slot));
    cursor = (idx + 1) % n;
    return true;
  }
  return false;
}

void ServeEngine::worker_loop(std::size_t worker_index) {
  // Private randomness stream for this worker (Rng is not shareable
  // across threads): deterministic in (cfg.seed, worker_index).
  Rng rng = Rng(cfg_.seed).fork(worker_index + 1);
  // Staggered start so idle workers don't all pile on tenant 0.
  std::size_t cursor = worker_index;
  for (;;) {
    std::uint64_t gen = 0;
    {
      MutexLock lock(work_mu_);
      if (stopped_) return;
      gen = work_gen_;
    }
    Claim claim;
    if (try_claim(cursor, claim)) {
      process(claim, rng);
      // No wake-up: this worker re-scans every queue next, and submit()
      // wakes a sibling once a full batch is waiting (see there).
      claim.dep->release(claim.slot);
      continue;
    }
    // Explicit predicate loop (not a wait-with-lambda): the analysis
    // checks the guarded reads against the lock set of THIS function,
    // which holds work_mu_ across the whole wait.
    MutexLock lock(work_mu_);
    while (work_gen_ == gen && !stopped_) work_cv_.wait(work_mu_);
    if (stopped_) return;
  }
}

void ServeEngine::process(Claim& claim, Rng& rng) {
  const TenantDeployment& dep = *claim.dep;
  const ServiceConfig& lane = dep.lane;  // immutable snapshot copy
  const AnchorScreen& screen = dep.screen;
  const std::shared_ptr<FingerprintCache>& cache = claim.cache;
  const std::shared_ptr<DriftMonitor>& drift = claim.drift;
  StatsCollector& stats = claim.state->stats;
  // Unused when tracing is compiled out (their only readers are
  // CAL_TRACE_EVENT sites, which strip their arguments).
  [[maybe_unused]] const std::uint64_t trace_tenant =
      claim.state->trace_tenant;
  [[maybe_unused]] const std::uint64_t trace_epoch = claim.snap->epoch();

  struct Slot {
    Pending req;
    ServeResult res;
    FingerprintCache::Key key;
    bool audited = false;
    bool audit_mismatch = false;
    std::size_t cached_rp = 0;
    bool fulfilled = false;
  };

  std::vector<Slot> slots;
  slots.reserve(claim.batch.size());
  for (auto& pending : claim.batch) {
    Slot s;
    s.req = std::move(pending);
    slots.push_back(std::move(s));
  }

  try {
    // Phase 1 — per-request deadline check, screening, and cache probe.
    // One clock read covers the whole batch: a request that expired
    // between the dequeue-time drain and here (or whose claim sat behind
    // a slow sibling batch) is shed now, before it costs screening or an
    // inference row.
    const auto batch_now = std::chrono::steady_clock::now();
    std::vector<std::size_t> infer_rows;
    std::size_t drift_flushes = 0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      Slot& s = slots[i];
      if (s.req.deadline <= batch_now) {
        s.res.status = ServeStatus::Expired;
        s.res.localized = false;
        continue;
      }
      s.res.anchor_distance = screen.distance(s.req.fingerprint);
      s.res.verdict = screen.classify(s.res.anchor_distance);
      if (screen.enabled())
        CAL_TRACE_EVENT(obs::EventType::Screen, trace_tenant, trace_epoch,
                        claim.batch_id, s.res.anchor_distance);
      if (s.res.verdict == Verdict::Reject) continue;  // never localised
      // Drift tracking sees only non-rejected traffic: rejected
      // fingerprints are off-manifold adversaries, not a moved radio
      // map, and must not be able to poison the trend into flushing.
      if (screen.enabled() && drift->record(s.res.anchor_distance)) {
        cache->clear();
        ++drift_flushes;
        CAL_TRACE_EVENT(obs::EventType::DriftFlush, trace_tenant,
                        trace_epoch, claim.batch_id, 0.0);
      }
      if (cache->enabled()) {
        s.key = cache->make_key(s.req.fingerprint);
        if (const auto hit = cache->lookup(s.key)) {
          const bool audit = lane.cache_audit_rate > 0.0 &&
                             rng.bernoulli(lane.cache_audit_rate);
          CAL_TRACE_EVENT(obs::EventType::CacheHit, trace_tenant,
                          trace_epoch, claim.batch_id, audit ? 1.0 : 0.0);
          if (audit) {
            s.audited = true;
            s.cached_rp = *hit;
            infer_rows.push_back(i);  // re-infer to verify the cached answer
          } else {
            s.res.rp = *hit;
            s.res.localized = true;
            s.res.from_cache = true;
          }
          continue;
        }
      }
      infer_rows.push_back(i);
    }

    // Phase 2 — one batched forward pass for every surviving request,
    // on this claim's checked-out replica. A replica that throws must
    // not take down the worker or fail healthy neighbours: the batch is
    // retried row by row, poison rows get ServeStatus::Faulted, healthy
    // rows complete bit-identically to a sequential predict (forward
    // math is row-independent by contract). A replica that serves NO row
    // of its batch is quarantined out of the checkout rotation.
    if (!infer_rows.empty()) {
      const auto run_predict = [&](const Tensor& x) {
        CAL_FAULT_POINT("serve.replica_predict");
        return dep.replica(claim.slot).predict(x);
      };
      const auto fill = [&](Slot& s, std::size_t rp) {
        s.res.rp = rp;
        s.res.localized = true;
        if (s.audited) s.audit_mismatch = (s.cached_rp != rp);
        if (cache->enabled()) cache->insert(s.key, rp);
      };
      Tensor xb({infer_rows.size(), dep.num_aps});
      for (std::size_t k = 0; k < infer_rows.size(); ++k) {
        const auto& fp = slots[infer_rows[k]].req.fingerprint;
        std::copy(fp.begin(), fp.end(), xb.data() + k * dep.num_aps);
      }
      bool batch_ok = true;
      try {
        const auto rps = run_predict(xb);
        CAL_INVARIANT(rps.size() == infer_rows.size(),
                      "predict returned " << rps.size() << " labels for "
                                          << infer_rows.size() << " rows");
        CAL_TRACE_EVENT(obs::EventType::Predict, trace_tenant, trace_epoch,
                        claim.batch_id,
                        static_cast<double>(infer_rows.size()));
        for (std::size_t k = 0; k < infer_rows.size(); ++k)
          fill(slots[infer_rows[k]], rps[k]);
      } catch (...) {
        batch_ok = false;
      }
      if (!batch_ok) {
        // Containment path: isolate the poison. Same replica on purpose
        // — a row that faults batched but serves alone means the batch
        // assembly was poisoned by a neighbour, and a row that faults
        // both ways is the poison itself.
        std::size_t served_rows = 0;
        std::size_t faulted_rows = 0;
        Tensor xrow({std::size_t{1}, dep.num_aps});
        for (std::size_t k = 0; k < infer_rows.size(); ++k) {
          Slot& s = slots[infer_rows[k]];
          std::copy(s.req.fingerprint.begin(), s.req.fingerprint.end(),
                    xrow.data());
          try {
            const auto rp1 = run_predict(xrow);
            CAL_INVARIANT(rp1.size() == 1, "single-row predict returned "
                                               << rp1.size() << " labels");
            fill(s, rp1[0]);
            ++served_rows;
          } catch (...) {
            s.res.status = ServeStatus::Faulted;
            s.res.localized = false;
            ++faulted_rows;
          }
        }
        CAL_TRACE_EVENT(obs::EventType::Fault, trace_tenant, trace_epoch,
                        claim.batch_id,
                        static_cast<double>(faulted_rows));
        if (served_rows == 0) {
          // Not one row survived: the replica (not any request) is
          // broken. Retire its slot — heals on the next version-bump
          // deploy of this tenant, which rebuilds the deployment.
          dep.quarantine(claim.slot);
          CAL_TRACE_EVENT(obs::EventType::Quarantine, trace_tenant,
                          trace_epoch, claim.batch_id,
                          static_cast<double>(claim.slot));
          recorder_.trip("replica_quarantine",
                         {{"tenant", claim.state->key.str()},
                          {"slot", claim.slot},
                          {"faulted", faulted_rows}});
        }
      }
    }

    // Phase 3 — record the batch's telemetry in ONE stats call, then
    // fulfil the promises, so a resolved future is always visible in
    // stats(). Only Served rows count as completions and feed the latency
    // histogram; Expired and Faulted rows resolve with the typed status
    // and land in their own counters (still inside `submitted` — they
    // consumed admission and queue space).
    ServiceStats counts;
    counts.batches = 1;
    counts.batched_items = slots.size();
    counts.largest_batch = slots.size();
    counts.drift_flushes = drift_flushes;
    std::vector<double> latency_ms;
    latency_ms.reserve(slots.size());
    for (Slot& s : slots) {
      if (s.res.status == ServeStatus::Expired) {
        ++counts.expired;
        continue;
      }
      if (s.res.status != ServeStatus::Served) {
        ++counts.faulted;
        continue;
      }
      s.res.latency_ms = ms_since(s.req.admitted_at);
      latency_ms.push_back(s.res.latency_ms);
      ++counts.completed;
      if (s.res.verdict == Verdict::Flag) ++counts.flagged;
      if (s.res.verdict == Verdict::Reject) ++counts.rejected;
      if (s.res.from_cache) ++counts.cache_hits;
      if (s.audited) ++counts.cache_audits;
      if (s.audit_mismatch) ++counts.cache_audit_mismatches;
      if (screen.enabled()) ++counts.screened;
    }
    counts.anchors_scanned = counts.screened * screen.num_anchors();
    stats.record_batch(counts, latency_ms);
    for (Slot& s : slots) {
      if (s.res.status == ServeStatus::Served)
        CAL_TRACE_EVENT(obs::EventType::Complete, trace_tenant, trace_epoch,
                        claim.batch_id, s.res.latency_ms);
      s.req.promise.set_value(s.res);
      s.fulfilled = true;
    }
    if (counts.expired > 0)
      CAL_TRACE_EVENT(obs::EventType::Expire, trace_tenant, trace_epoch,
                      claim.batch_id, static_cast<double>(counts.expired));

    // Feed the breaker: served rows prove the tenant works (closing a
    // half-open breaker, resetting the streak); all-fault batches grow
    // the consecutive-fault streak toward BreakerPolicy::fault_threshold.
    // Pure-expired batches say nothing about replica health.
    if (counts.completed + counts.faulted > 0) {
      const BreakerTransition tr = claim.state->breaker.on_batch(
          std::chrono::steady_clock::now(), counts.faulted, counts.completed);
      if (tr != BreakerTransition::None)
        CAL_TRACE_EVENT(obs::EventType::Breaker, trace_tenant, trace_epoch,
                        claim.batch_id, static_cast<double>(tr));
    }
  } catch (...) {
    // A model/bookkeeping failure must not strand waiting clients.
    for (Slot& s : slots)
      if (!s.fulfilled) s.req.promise.set_exception(std::current_exception());
  }
}

MultiTenantStats ServeEngine::stats() const {
  MultiTenantStats out;
  ReaderMutexLock lock(mu_);
  out.per_tenant.reserve(order_.size());
  std::vector<ServiceStats> snapshots;
  snapshots.reserve(order_.size());
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const TenantState& state = *order_[i];
    const TenantDeployment& dep = snapshot_->tenant(i);
    snapshots.push_back(state.stats.snapshot());
    TenantStats t;
    t.tenant = state.key;
    t.stats = snapshots.back();
    t.drift = state.drift->snapshot();
    t.breaker = state.breaker.snapshot();
    t.quarantined_slots = dep.quarantined_slots();
    t.queue_depth = state.q.size();
    t.queue_capacity = dep.lane.queue_capacity;
    t.lru_hits = state.cache->hits();
    t.lru_misses = state.cache->misses();
    t.lru_size = state.cache->size();
    t.slots = dep.slots();
    t.busy_slots = dep.busy_slots();
    t.weight_bytes = dep.weight_bytes;
    t.precision = dep.precision;
    out.per_tenant.push_back(std::move(t));
  }
  out.aggregate = aggregate_stats(snapshots);
  out.route_exact = route_exact_.load(std::memory_order_relaxed);
  out.route_fallback = route_fallback_.load(std::memory_order_relaxed);
  out.route_rejected = route_rejected_.load(std::memory_order_relaxed);
  out.snapshot_epoch = snapshot_->epoch();
  out.deploys = deploys_.load(std::memory_order_relaxed);
  out.reload_flushes = reload_flushes_.load(std::memory_order_relaxed);
  return out;
}

obs::MetricsRegistry ServeEngine::metrics() const {
  const MultiTenantStats s = stats();
  obs::MetricsRegistry reg;
  for (const TenantStats& t : s.per_tenant) {
    const std::string tenant = t.tenant.str();
    // The one per-tenant counter loop, over the counter tables.
    const auto add_counters = [&](const auto& rows, const auto& source) {
      for (const auto& row : rows) {
        if (row.family == nullptr) continue;
        std::vector<obs::MetricLabel> labels{{"tenant", tenant}};
        if (row.label_key != nullptr)
          labels.push_back({row.label_key, row.label_value});
        reg.add_counter(row.family, row.help, std::move(labels),
                        static_cast<double>(source.*row.member));
      }
    };
    const auto gauge = [&](const char* name, const char* help, double v) {
      reg.add_gauge(name, help, {{"tenant", tenant}}, v);
    };
    add_counters(kServiceCounters, t.stats);
    gauge("cal_serve_breaker_state",
          "Circuit-breaker state: 0 closed, 1 open, 2 half-open",
          static_cast<double>(t.breaker.state));
    add_counters(kBreakerCounters, t.breaker);
    reg.add_histogram("cal_serve_latency_ms",
                      "Request latency (admission to fulfilment), ms",
                      {{"tenant", tenant}}, t.stats.latency);
    gauge("cal_serve_queue_depth", "Requests waiting in the tenant sub-queue",
          static_cast<double>(t.queue_depth));
    gauge("cal_serve_queue_capacity", "Bounded sub-queue capacity",
          static_cast<double>(t.queue_capacity));
    const double lookups = static_cast<double>(t.lru_hits + t.lru_misses);
    gauge("cal_serve_lru_hit_ratio", "LRU hits over lookups, lifetime",
          lookups > 0.0 ? static_cast<double>(t.lru_hits) / lookups : 0.0);
    gauge("cal_serve_lru_size", "Entries in the fingerprint LRU",
          static_cast<double>(t.lru_size));
    gauge("cal_serve_replica_slots", "Replica slots (max concurrent batches)",
          static_cast<double>(t.slots));
    gauge("cal_serve_replica_slots_busy", "Replica slots currently checked out",
          static_cast<double>(t.busy_slots));
    gauge("cal_serve_replica_slots_quarantined",
          "Replica slots retired from rotation by faults",
          static_cast<double>(t.quarantined_slots));
    gauge("cal_serve_weight_bytes",
          "Resident model weight bytes across replica slots",
          static_cast<double>(t.weight_bytes));
    gauge("cal_serve_precision_int8",
          "1 when this tenant serves int8-quantized replicas",
          t.precision == Precision::Int8 ? 1.0 : 0.0);
    if (t.drift.enabled) {
      gauge("cal_serve_drift_baseline_mean",
            "Pinned drift baseline window mean (-1 while pinning)",
            t.drift.baseline_mean);
      gauge("cal_serve_drift_last_window_mean",
            "Most recent completed drift window mean (-1 before one)",
            t.drift.last_window_mean);
    }
  }
  reg.add_gauge("cal_serve_deploy_epoch",
                "Epoch of the live deployment snapshot", {},
                static_cast<double>(s.snapshot_epoch));
  reg.add_gauge("cal_serve_tenants", "Deployed tenants", {},
                static_cast<double>(s.per_tenant.size()));
  for (const auto& [status, n] : {std::pair{"exact", s.route_exact},
                                  std::pair{"fallback", s.route_fallback},
                                  std::pair{"rejected", s.route_rejected}})
    reg.add_counter("cal_serve_route_total", "Routing outcomes",
                    {{"status", status}}, static_cast<double>(n));
  reg.add_counter("cal_serve_deploys_total",
                  "deploy() calls since engine construction", {},
                  static_cast<double>(s.deploys));
  reg.add_counter("cal_serve_reload_flushes_total",
                  "Tenant reloads that flushed cache and drift state", {},
                  static_cast<double>(s.reload_flushes));
  reg.add_gauge("cal_serve_pool_size", "Shared worker threads", {},
                static_cast<double>(cfg_.pool_size));

  const obs::Tracer& tracer = obs::Tracer::instance();
  const obs::Tracer::Totals totals = tracer.totals();
  reg.add_counter("cal_trace_events_total",
                  "Trace events recorded, all threads", {},
                  static_cast<double>(totals.recorded));
  reg.add_counter("cal_trace_dropped_total",
                  "Trace events overwritten before any snapshot read them",
                  {}, static_cast<double>(totals.dropped));
  reg.add_gauge("cal_trace_threads", "Threads with a trace ring", {},
                static_cast<double>(totals.threads));
  reg.add_gauge("cal_trace_enabled",
                "1 when tracing is compiled in and runtime-enabled", {},
                obs::kTracingCompiledIn && tracer.enabled() ? 1.0 : 0.0);
  reg.add_counter("cal_flight_trips_total",
                  "Flight-recorder anomaly trips", {},
                  static_cast<double>(recorder_.trips()));
  reg.add_counter("cal_flight_dumps_total",
                  "Flight-recorder dumps taken (trips minus rate-limited)",
                  {}, static_cast<double>(recorder_.dumps()));
  return reg;
}

void ServeEngine::reset_telemetry_clocks() {
  ReaderMutexLock lock(mu_);
  for (const auto& state : order_) state->stats.reset_clock();
}

std::size_t ServeEngine::num_tenants() const {
  ReaderMutexLock lock(mu_);
  return order_.size();
}

std::shared_ptr<const DeploymentSnapshot> ServeEngine::snapshot() const {
  ReaderMutexLock lock(mu_);
  return snapshot_;
}

}  // namespace cal::serve

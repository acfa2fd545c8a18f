// Immutable deployment snapshots: the RCU unit of the serving engine.
//
// ModelRegistry::publish() materialises the mutable tenant catalogue into
// a DeploymentSnapshot — tenants in deterministic shard order, each with
// its built replica pool, anchor screen, lane config, spec version, and
// the profile fallback chain — stamped with a monotonically increasing
// epoch. ServeEngine holds a shared_ptr to the current snapshot and swaps
// it atomically on deploy(): in-flight batches keep the old snapshot
// alive through their own shared_ptr and finish on the replicas they
// checked out, while new submissions route on the new snapshot. Nothing
// in a snapshot is ever mutated after publish() except the per-tenant
// replica-slot free list, which is runtime checkout scratch (mutex-
// guarded, engine-internal) rather than deployment state.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "serve/registry.hpp"

namespace cal::serve {

/// Outcome of routing one request's tenant metadata.
struct RouteDecision {
  enum class Status { Exact, Fallback, Reject };
  Status status = Status::Reject;
  std::size_t shard = 0;  ///< tenant index; valid unless status == Reject
  TenantKey resolved;     ///< tenant actually serving; unless Reject
};

std::string to_string(RouteDecision::Status s);

/// One tenant's published deployment: everything immutable a pool worker
/// needs to execute a micro-batch for this tenant (the mutable lane state
/// — cache, drift monitor, stats, sub-queue, quota bucket — lives with
/// the engine and survives snapshot swaps).
class TenantDeployment {
 public:
  TenantDeployment() = default;
  TenantDeployment(const TenantDeployment&) = delete;
  TenantDeployment& operator=(const TenantDeployment&) = delete;

  TenantKey key;
  std::uint64_t version = 0;  ///< registry spec version at publish()
  std::size_t num_aps = 0;
  ServiceConfig lane;
  AnchorScreen screen;
  /// Precision the replicas serve at (Int8 ⇒ replicas are quantized
  /// copies built at publish() time).
  Precision precision = Precision::Fp32;
  /// Total resident weight bytes across this tenant's replicas
  /// (ILocalizer::weight_bytes summed at publish(); 0 when the model
  /// family does not report a footprint). Exported per tenant by
  /// ServeEngine::metrics() so quantization memory wins are observable.
  std::size_t weight_bytes = 0;

  /// Checkout one replica slot, or -1 when every slot is busy (the
  /// engine then leaves this tenant's queue for a later pass — at most
  /// `slots()` pool workers run one tenant concurrently). Thread-safe.
  int try_checkout() const CAL_EXCLUDES(slot_mu_);
  /// Return a slot obtained from try_checkout(). Quarantined slots are
  /// retired instead of re-entering the free list.
  void release(std::size_t slot) const CAL_EXCLUDES(slot_mu_);

  /// Remove `slot` from the checkout rotation permanently — the engine
  /// quarantines a replica whose predict() threw for every row of a
  /// batch. The caller still release()s the slot afterwards (release
  /// retires it). Quarantine heals when the tenant's deployment is
  /// rebuilt: a version-bump publish() constructs a fresh
  /// TenantDeployment with fresh replicas and a full free list, while an
  /// identical republish reuses this object — correctly keeping the same
  /// broken replicas out of rotation. Idempotent; thread-safe.
  void quarantine(std::size_t slot) const CAL_EXCLUDES(slot_mu_);

  std::size_t slots() const { return replicas_.size(); }
  /// Slots currently checked out and serving (excludes quarantined ones).
  std::size_t busy_slots() const CAL_EXCLUDES(slot_mu_);
  /// Slots retired from rotation by quarantine(). Lock-free (relaxed):
  /// submit() reads this per request to fast-fail fully-broken tenants.
  std::size_t quarantined_slots() const {
    return quarantined_count_.load(std::memory_order_relaxed);
  }
  /// Slots still in rotation (total minus quarantined).
  std::size_t healthy_slots() const {
    const std::size_t q = quarantined_slots();
    return replicas_.size() > q ? replicas_.size() - q : 0;
  }
  baselines::ILocalizer& replica(std::size_t slot) const {
    return *replicas_[slot];
  }

 private:
  friend class ModelRegistry;

  /// One independent replica per slot, built by the tenant's factory at
  /// publish(); slot checkout gives each one to one worker at a time.
  std::vector<std::unique_ptr<baselines::ILocalizer>> replicas_;
  mutable Mutex slot_mu_;
  mutable std::vector<std::size_t> free_slots_ CAL_GUARDED_BY(slot_mu_);
  /// Per-slot quarantine flags (sized lazily on first quarantine).
  mutable std::vector<char> quarantined_ CAL_GUARDED_BY(slot_mu_);
  mutable std::atomic<std::size_t> quarantined_count_{0};
};

/// The immutable publish() product: tenants in shard order plus routing.
class DeploymentSnapshot {
 public:
  DeploymentSnapshot() = default;
  DeploymentSnapshot(const DeploymentSnapshot&) = delete;
  DeploymentSnapshot& operator=(const DeploymentSnapshot&) = delete;

  /// Monotonically increasing per registry; stamps engine telemetry so
  /// operators can see which deployment is live.
  std::uint64_t epoch() const { return epoch_; }

  std::size_t num_tenants() const { return tenants_.size(); }

  /// Tenants are str()-sorted by key — the same deterministic shard
  /// numbering as ModelRegistry::keys().
  const TenantDeployment& tenant(std::size_t shard) const;

  const TenantDeployment* find(const TenantKey& key) const;

  /// Exact key → profile fallback chain → deterministic reject, over
  /// this snapshot's key set. The one routing policy: submit() runs it
  /// for every request.
  RouteDecision route(const TenantKey& request) const;

 private:
  friend class ModelRegistry;

  std::uint64_t epoch_ = 0;
  /// Shared with the registry's publish cache (and with other snapshots):
  /// publish() reuses a version-unchanged tenant's deployment instead of
  /// re-running its replica factory, so reloading one venue costs O(that
  /// venue), not O(fleet), and the replica-slot discipline spans every
  /// snapshot the deployment appears in.
  std::vector<std::shared_ptr<const TenantDeployment>> tenants_;
  std::unordered_map<TenantKey, std::size_t, TenantKeyHash> by_key_;
  std::vector<std::string> fallbacks_;
};

}  // namespace cal::serve

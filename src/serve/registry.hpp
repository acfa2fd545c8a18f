// Tenant → model registry for multi-venue serving.
//
// The ROADMAP north star is one process serving many venues and device
// profiles. The registry is the deployment catalogue that makes that
// possible: each tenant — a (building, floor, device_profile) triple —
// owns a ReplicaFactory for its trained model, its shard-scoped anchor
// database, and its shard-local lane configuration (thresholds, cache,
// drift policy, replica slots, admission quota). Requests whose exact
// device profile has no dedicated model walk a configurable profile
// fallback chain (the heterogeneity study shows per-device error spread,
// so a dedicated per-profile replica set is better when available — but a
// venue-generic model beats a reject).
//
// The registry stays MUTABLE for the whole deployment's lifetime:
// publish() materialises the current catalogue into an immutable
// DeploymentSnapshot (snapshot.hpp) that ServeEngine swaps in RCU-style
// mid-traffic. Every register_tenant / reload_tenant bumps that tenant's
// version; the engine flushes a tenant's cache and drift baseline only
// when its version changed between snapshots, so re-publishing an
// unchanged catalogue is a flush-free no-op and a retrained venue can go
// live without draining anyone else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"
#include "serve/service.hpp"

namespace cal::serve {

class DeploymentSnapshot;  // snapshot.hpp
class TenantDeployment;    // snapshot.hpp

/// Identity of one serving tenant. An empty device_profile means "the
/// venue-generic entry" — the conventional end of a fallback chain.
struct TenantKey {
  std::string building;
  std::size_t floor = 0;
  std::string device_profile;

  bool operator==(const TenantKey&) const = default;

  /// "building/floor:profile" (profile "*" when empty) for reports.
  std::string str() const;
};

struct TenantKeyHash {
  std::size_t operator()(const TenantKey& k) const;
};

/// Numeric precision a tenant's replicas serve at. Int8 asks publish()
/// to snapshot each freshly built replica through
/// ILocalizer::quantize_int8() — per-output-channel weight scales, fp32
/// accumulate — so the deployment carries ~4x smaller resident weights
/// and rides the int8 GEMM path. Requires a factory (the registry owns
/// the quantized copies) and a model family with a quantized path;
/// publish() throws otherwise.
enum class Precision : std::uint8_t { Fp32, Int8 };

std::string to_string(Precision p);

/// Everything needed to stand up one tenant's shard lane.
struct TenantSpec {
  /// Builds one trained replica per slot (ServiceConfig::num_workers).
  /// Exactly one of `factory` / `shared_model` must be set.
  ReplicaFactory factory;
  /// Alternative to `factory`: borrow a caller-owned model that cannot be
  /// replicated. The deployment then has a single replica slot, so the
  /// engine serializes this tenant's inference (the old "shared mode").
  baselines::ILocalizer* shared_model = nullptr;
  /// Fingerprint width of this venue. Required (> 0).
  std::size_t num_aps = 0;
  /// Shard-scoped anchor database (M x num_aps, normalised); empty
  /// disables screening for this shard.
  Tensor anchors;
  /// Shard-local lane configuration: replica slots, batching, cache,
  /// screening thresholds, drift policy, admission quota, breaker.
  ServiceConfig service;
  /// Serving precision (see Precision). Int8 is validated at
  /// register/reload time (needs a factory) and applied at publish()
  /// time (each replica is quantized as it is built).
  Precision precision = Precision::Fp32;
};

/// Catalogue of trained models keyed by tenant. Assemble (and keep
/// amending) the catalogue, then publish() immutable snapshots for the
/// engine to deploy — including mid-traffic.
class ModelRegistry {
 public:
  /// Register one tenant. Throws on a duplicate key, an invalid model
  /// source (need exactly one of factory / shared_model), a zero
  /// num_aps, or an anchor matrix that does not match num_aps.
  void register_tenant(TenantKey key, TenantSpec spec);

  /// Replace an existing tenant's spec (e.g. a retrained model or new
  /// anchor database) and bump its version: the next publish()+deploy()
  /// flushes exactly this tenant's cache and drift baseline, nobody
  /// else's. Throws if `key` is not registered.
  void reload_tenant(const TenantKey& key, TenantSpec spec);

  /// Drop a tenant from the catalogue. After the next publish()+deploy()
  /// its queued requests are failed and its lane state discarded.
  /// Throws if `key` is not registered.
  void remove_tenant(const TenantKey& key);

  /// Device profiles tried, in order, when a request's exact profile has
  /// no entry. Default: {""} — fall back to the venue-generic entry only.
  void set_profile_fallbacks(std::vector<std::string> chain);
  const std::vector<std::string>& profile_fallbacks() const {
    return fallbacks_;
  }

  std::size_t size() const { return tenants_.size(); }
  bool contains(const TenantKey& key) const;
  const TenantSpec* find(const TenantKey& key) const;

  /// This tenant's spec version: bumped by register_tenant and
  /// reload_tenant. 0 for unknown tenants.
  std::uint64_t version(const TenantKey& key) const;

  /// Registered tenant keys in deterministic (str()-sorted) order — the
  /// shard numbering every component agrees on.
  std::vector<TenantKey> keys() const;

  /// Materialise the catalogue into an immutable DeploymentSnapshot and
  /// stamp it with a fresh epoch. Replica factories run (num_workers
  /// times) and anchor screens build ONLY for tenants whose version
  /// changed since the last publish() from this registry — unchanged
  /// tenants share their existing deployment (replicas, screen, slot
  /// free-list) with the previous snapshot, so hot-reloading one venue
  /// costs O(that venue), not O(fleet). Throws on an empty catalogue or
  /// an invalid lane config (zero slots, zero max_batch, audit rate
  /// outside [0,1], drift policy without a screen, negative quota). The
  /// snapshot is self-contained: later registry mutations never touch it.
  std::shared_ptr<const DeploymentSnapshot> publish();

  /// How a requested tenant maps onto the catalogue.
  struct Resolution {
    enum class Kind { Exact, Fallback, Miss };
    Kind kind = Kind::Miss;
    TenantKey resolved;  ///< valid unless kind == Miss
  };
  Resolution resolve(const TenantKey& request) const;

 private:
  static void validate_spec(const TenantKey& key, const TenantSpec& spec);
  /// Drop shared_locks_ entries whose mutex no deployment holds anymore
  /// (raw-pointer keys must not outlive every user of the model: a
  /// recycled address would otherwise collide with the stale entry).
  void prune_shared_locks();

  std::unordered_map<TenantKey, TenantSpec, TenantKeyHash> tenants_;
  std::unordered_map<TenantKey, std::uint64_t, TenantKeyHash> versions_;
  /// Deployments from the last publish(), reused while versions match.
  std::unordered_map<TenantKey, std::shared_ptr<const TenantDeployment>,
                     TenantKeyHash>
      published_;
  /// One serialization mutex per borrowed shared model, handed to every
  /// deployment of that model (see TenantDeployment::shared_serialization).
  /// Weak entries: deployments own the mutex; publish() reuses it while
  /// ANY deployment (even of a removed tenant, still in flight on an old
  /// snapshot) keeps it alive, and mints a fresh one only after every
  /// holder is gone — so two live deployments can never hold different
  /// mutexes for the same model.
  std::unordered_map<baselines::ILocalizer*, std::weak_ptr<Mutex>>
      shared_locks_;
  std::vector<std::string> fallbacks_{std::string{}};
  std::uint64_t next_epoch_ = 0;
};

/// THE tenant-resolution policy — exact key, then the profile fallback
/// chain, else miss — in one place, shared by ModelRegistry::resolve and
/// DeploymentSnapshot::route (each runs it over its own key set).
/// `contains` answers membership over whichever key set the caller holds.
template <typename ContainsFn>
ModelRegistry::Resolution resolve_tenant(const TenantKey& request,
                                         std::span<const std::string> fallbacks,
                                         ContainsFn&& contains) {
  using Kind = ModelRegistry::Resolution::Kind;
  if (contains(request)) return {Kind::Exact, request};
  for (const std::string& profile : fallbacks) {
    if (profile == request.device_profile) continue;  // already tried
    TenantKey candidate{request.building, request.floor, profile};
    if (contains(candidate)) return {Kind::Fallback, std::move(candidate)};
  }
  return {Kind::Miss, {}};
}

}  // namespace cal::serve

#include "serve/snapshot.hpp"

#include <algorithm>
#include <utility>

#include "common/ensure.hpp"

namespace cal::serve {

std::string to_string(RouteDecision::Status s) {
  switch (s) {
    case RouteDecision::Status::Exact: return "exact";
    case RouteDecision::Status::Fallback: return "fallback";
    case RouteDecision::Status::Reject: return "reject";
  }
  return "?";
}

int TenantDeployment::try_checkout() const {
  MutexLock lock(slot_mu_);
  if (free_slots_.empty()) return -1;
  const std::size_t slot = free_slots_.back();
  free_slots_.pop_back();
  return static_cast<int>(slot);
}

std::size_t TenantDeployment::busy_slots() const {
  MutexLock lock(slot_mu_);
  // Free + quarantined slots are not serving; what remains is in flight.
  // A slot between quarantine() and its final release() counts as
  // quarantined, not busy — it will never serve again.
  const std::size_t out = free_slots_.size() +
                          quarantined_count_.load(std::memory_order_relaxed);
  return replicas_.size() > out ? replicas_.size() - out : 0;
}

void TenantDeployment::release(std::size_t slot) const {
  MutexLock lock(slot_mu_);
  CAL_INVARIANT(slot < replicas_.size(),
                "released slot " << slot << " out of " << replicas_.size());
  // A quarantined slot is retired, not recycled: try_checkout must never
  // see it again on this deployment.
  if (slot < quarantined_.size() && quarantined_[slot] != 0) return;
  free_slots_.push_back(slot);
}

void TenantDeployment::quarantine(std::size_t slot) const {
  MutexLock lock(slot_mu_);
  CAL_INVARIANT(slot < replicas_.size(),
                "quarantined slot " << slot << " out of "
                                    << replicas_.size());
  if (quarantined_.size() < replicas_.size())
    quarantined_.resize(replicas_.size(), 0);
  if (quarantined_[slot] != 0) return;
  quarantined_[slot] = 1;
  quarantined_count_.fetch_add(1, std::memory_order_relaxed);
  // Normally the caller holds the slot (fault detected mid-batch), but a
  // slot sitting on the free list is scrubbed too — quarantine must be
  // effective no matter who calls it.
  free_slots_.erase(
      std::remove(free_slots_.begin(), free_slots_.end(), slot),
      free_slots_.end());
}

const TenantDeployment& DeploymentSnapshot::tenant(std::size_t shard) const {
  CAL_ENSURE(shard < tenants_.size(),
             "tenant " << shard << " out of " << tenants_.size());
  return *tenants_[shard];
}

const TenantDeployment* DeploymentSnapshot::find(const TenantKey& key) const {
  const auto it = by_key_.find(key);
  return it == by_key_.end() ? nullptr : tenants_[it->second].get();
}

RouteDecision DeploymentSnapshot::route(const TenantKey& request) const {
  if (const auto it = by_key_.find(request); it != by_key_.end())
    return {RouteDecision::Status::Exact, it->second, request};
  for (const std::string& profile : fallbacks_) {
    if (profile == request.device_profile) continue;  // already tried
    TenantKey candidate{request.building, request.floor, profile};
    if (const auto it = by_key_.find(candidate); it != by_key_.end())
      return {RouteDecision::Status::Fallback, it->second,
              std::move(candidate)};
  }
  return {};
}

}  // namespace cal::serve

// Multi-building fleet campaigns: cross-venue traffic generation.
//
// The single-building Scenario (collector.hpp) reproduces the paper's
// per-floorplan protocol. A multi-tenant serving deployment needs the
// step above it: several venues surveyed independently, plus an
// interleaved request stream that mixes devices and venues the way a
// fleet of phones does — the workload the registry/snapshot/engine stack
// (src/serve) is built to absorb. Everything here is deterministic in its
// seed, so serving tests and benches replay identical cross-venue traffic.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/collector.hpp"

namespace cal::sim {

/// Survey every building in `specs` independently (distinct collection
/// seeds per venue, derived from `seed`). Element i is the full Scenario
/// of specs[i]: OP3 train set plus one drifted test capture per Table I
/// device.
std::vector<Scenario> make_fleet(std::span<const BuildingSpec> specs,
                                 std::uint64_t seed,
                                 std::size_t train_samples_per_rp = 5,
                                 std::size_t test_samples_per_rp = 1);

/// Fleet over venues chosen by index into table2_buildings().
std::vector<Scenario> make_table2_fleet(
    std::span<const std::size_t> building_indices, std::uint64_t seed,
    std::size_t train_samples_per_rp = 5,
    std::size_t test_samples_per_rp = 1);

/// Every device's online test capture of one venue, merged into a single
/// dataset — the clean *online-phase* capture the serving layer's
/// screening calibration wants (see serve::calibrate_thresholds: the
/// offline survey alone is too tight once session drift and device
/// heterogeneity kick in).
data::FingerprintDataset merged_device_capture(const Scenario& scenario);

/// One cross-venue request: coordinates into a fleet's test captures.
struct FleetRequest {
  std::size_t venue = 0;   ///< index into the fleet
  std::size_t device = 0;  ///< index into scenario.device_tests
  std::size_t row = 0;     ///< row of that device's test set
};

/// Interleaved cross-venue request stream, deterministic in `seed`.
/// Each request picks a uniform venue; with probability `repeat_prob` it
/// re-issues that venue's previous request (a stationary device
/// re-scanning its spot — the traffic per-shard LRU caches absorb),
/// otherwise a fresh uniform (device, row).
std::vector<FleetRequest> fleet_request_stream(
    std::span<const Scenario> fleet, std::size_t n_requests,
    std::uint64_t seed, double repeat_prob = 0.0);

}  // namespace cal::sim

// Workload definitions and the set-up phase of the serving benchmark.
//
// A workload is one deployment (Table II venues, lane config)
// plus one traffic mix. Set-up surveys each venue, generates its pool of
// distinct scans, trains CALLOC per venue (Calloc::fit), crafts the
// attack traffic where the workload has one, and publishes the
// deployment. All of that uses fixed seeds: it defines the system under
// test and the scans it may be sent. The run's seed draws the requests —
// which scan each one carries and when it is sent (TrafficSource and the
// load generator).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "attacks/attack.hpp"
#include "core/calloc.hpp"
#include "serve/engine.hpp"
#include "spans.hpp"

namespace servebench {

struct WorkloadSpec {
  std::string name;
  std::vector<std::size_t> buildings;  ///< indices into table2_buildings()
  std::size_t cache_capacity = 0;
  /// Every scan passes a white-box PGD MITM channel crafted in set-up.
  bool pgd = false;
  /// Screen rejects beyond the calibrated reject distance (otherwise it
  /// only flags).
  bool screen_rejects = true;
  /// Distinct scans per (RP, device) in the scan pool.
  std::size_t scans_per_rp_device = 12;
  /// Asset tags: 0 = every request is a fresh scan from the pool;
  /// otherwise each request comes from one of `tags` tags, which re-sends
  /// its last scan with probability `repeat_prob`.
  std::size_t tags = 0;
  double repeat_prob = 0.0;
  /// Fixed offered rate of the latency phase, and where the capacity
  /// search starts.
  double rate_rps = 0.0;
  double capacity_start_rps = 0.0;
};

/// The workloads, by name; nullptr when unknown.
const WorkloadSpec* find_workload(const std::string& name);

/// The MITM adversary of tags_pgd_cached: white-box PGD through the
/// deployed model's own gradients, injected by tampering with genuine
/// frames in flight.
cal::attacks::AttackConfig pgd_config();

/// Engine and lane settings shared by every workload.
inline constexpr std::size_t kPoolSize = 3;
inline constexpr std::size_t kSlotsPerTenant = 3;
inline constexpr std::size_t kMaxBatch = 32;
inline constexpr std::size_t kQueueCapacity = 4096;

/// Timing of every predict() call the replicas make. Counters are always
/// on (two relaxed atomics per call); per-call samples and spans only
/// while `spans` is set (traced phases). Replicas record from the
/// engine's pool threads while the generator thread flips `spans`.
struct PredictProbe {
  std::atomic<std::uint64_t> rows{0};
  std::atomic<std::uint64_t> busy_ns{0};
  std::atomic<SpanLog*> spans{nullptr};
  std::mutex mu;
  std::vector<double> call_us;  ///< guarded by mu; traced phases only

  void record(Clock::time_point t0, Clock::time_point t1, std::size_t n,
              std::uint32_t lane);
};

/// ILocalizer decorator the replica factory returns: times predict() into
/// a PredictProbe and, for the benchmark's self-test, can add a fixed
/// busy-wait to every call. quantize_int8() is forwarded and re-wrapped,
/// so an int8 tenant built from this factory would be timed too.
class TimedLocalizer final : public cal::baselines::ILocalizer {
 public:
  TimedLocalizer(std::unique_ptr<cal::baselines::ILocalizer> inner,
                 PredictProbe& probe, std::chrono::microseconds busy_wait,
                 std::uint32_t lane);

  void fit(const cal::data::FingerprintDataset& train) override;
  std::vector<std::size_t> predict(const cal::Tensor& x) override;
  std::string name() const override;
  cal::attacks::GradientSource* gradient_source() override;
  std::size_t weight_bytes() const override;
  std::unique_ptr<cal::baselines::ILocalizer> quantize_int8() override;

 private:
  std::unique_ptr<cal::baselines::ILocalizer> inner_;
  PredictProbe* probe_;
  std::chrono::microseconds busy_wait_;
  std::uint32_t lane_;
};

/// One venue of a deployment with its traffic pool.
struct Venue {
  cal::serve::TenantKey key;
  std::shared_ptr<const cal::data::FingerprintDataset> train;
  std::vector<cal::data::RpPosition> rp_positions;
  cal::Tensor scans;               ///< normalised traffic pool
  std::vector<std::size_t> truth;  ///< ground-truth RP per scan
  /// Answers of sequential predict() on a fresh replica, and the screen
  /// verdict, per scan — the correctness reference.
  std::vector<std::size_t> expected_rp;
  std::vector<cal::serve::Verdict> expected_verdict;
};

/// Wall time of the set-up steps, seconds.
struct SetupTimes {
  double total_s = 0.0;
  double traffic_s = 0.0;  ///< surveys + scan pool + attack crafting
  double fit_s = 0.0;      ///< Calloc::fit, summed over venues
  double pgd_s = 0.0;      ///< PGD crafting (part of traffic_s)
  double publish_s = 0.0;  ///< registry publish(): replicas built
  std::size_t epochs = 0;  ///< CurriculumReport::total_epochs, summed
};

struct Deployment {
  std::vector<Venue> venues;
  std::shared_ptr<const cal::serve::DeploymentSnapshot> snapshot;
  /// Per venue: loads an undecorated fp32 replica from the trained
  /// weights — the same load path the registry's factory wraps.
  std::vector<cal::serve::ReplicaFactory> factories;
  std::vector<std::string> weight_files;  ///< staged weights the loaders read
  SetupTimes times;
  std::size_t weight_bytes = 0;  ///< summed over deployed replicas
};

struct SetupOptions {
  std::string scratch_dir;  ///< where trained weights are staged
  PredictProbe* probe = nullptr;
  std::chrono::microseconds busy_wait{0};
  SpanLog* spans = nullptr;  ///< set-up spans (traced run only)
};

/// Run set-up once: traffic generation + fit per venue + publish().
Deployment set_up(const WorkloadSpec& spec, const SetupOptions& opt);

/// Fill expected_rp / expected_verdict for every venue (not timed as
/// set-up: it is the benchmark's own checking work). Also checks that
/// batched predict() agrees with one-row predict() on a sample, and
/// throws if it does not.
void compute_expected(Deployment& dep);

/// Draws requests as (venue, scan row) for one workload's traffic mix.
class TrafficSource {
 public:
  TrafficSource(const WorkloadSpec& spec, const Deployment& dep,
                std::uint64_t seed);

  struct Pick {
    std::uint32_t venue = 0;
    std::uint32_t row = 0;
  };
  Pick next();

 private:
  const WorkloadSpec* spec_;
  std::vector<std::size_t> pool_sizes_;
  cal::Rng rng_;
  std::vector<std::optional<Pick>> tag_last_;  ///< last scan per tag
};

}  // namespace servebench

#include "workload.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include <unistd.h>

#include "attacks/mitm.hpp"
#include "serve/registry.hpp"
#include "serve/screening.hpp"
#include "serve/snapshot.hpp"
#include "sim/building.hpp"
#include "sim/fleet.hpp"

namespace servebench {

namespace {

/// Venue surveys (offline train set + clean online capture used for
/// screening calibration) and the scan pools are fixed: they define the
/// deployment and the workload. The run's seed draws the requests.
constexpr std::uint64_t kSurveySeed = 2024;
constexpr std::uint64_t kPoolSeed = 4242;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Training configuration: the paper's ten-lesson curriculum with fewer
/// epochs per lesson (6 instead of 18), so set-up stays a few seconds per
/// venue at about 0.4 m clean error.
cal::core::CallocConfig training_config() {
  cal::core::CallocConfig cfg;
  cfg.train.max_epochs_per_lesson = 6;
  return cfg;
}

std::uint64_t pool_seed(std::size_t building, std::size_t device) {
  return kPoolSeed + 1009 * (building + 1) + 7919 * (device + 1);
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v(2);
    v[0].name = "venue_fp32_sparse";
    v[0].buildings = {4};
    // Low enough that the replicas are idle most of the time: the median
    // is then the batch-1 forward, not a queue wait, which grows faster
    // than the forward when the host slows.
    v[0].rate_rps = 5000;
    v[0].capacity_start_rps = 60000;

    // Cache and re-send rate are bench_serve_throughput's stationary-fleet
    // mode (1,024-entry LRU, 70 % re-sends). Four times as many tags as
    // entries keeps more live keys than the LRU holds, so eviction decides
    // whether a re-send hits (about a quarter do). With hits under half of
    // the requests, the median falls inside the predict path's latencies,
    // not in the sparse gap between them and the cache path's.
    v[1].name = "tags_pgd_cached";
    v[1].buildings = {0};
    v[1].cache_capacity = 1024;
    v[1].pgd = true;
    v[1].screen_rejects = false;
    v[1].scans_per_rp_device = 24;
    v[1].tags = 4096;
    v[1].repeat_prob = 0.7;
    v[1].rate_rps = 10000;
    v[1].capacity_start_rps = 80000;
    return v;
  }();
  return specs;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

cal::attacks::AttackConfig pgd_config() {
  cal::attacks::AttackConfig atk;
  atk.epsilon = 0.3;
  atk.phi_percent = 50.0;
  atk.num_steps = 10;
  return atk;
}

// --- PredictProbe / TimedLocalizer ----------------------------------------

void PredictProbe::record(Clock::time_point t0, Clock::time_point t1,
                          std::size_t n, std::uint32_t lane) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  rows.fetch_add(n, std::memory_order_relaxed);
  busy_ns.fetch_add(static_cast<std::uint64_t>(ns), std::memory_order_relaxed);
  SpanLog* log = spans.load(std::memory_order_relaxed);
  if (log == nullptr) return;
  log->add("predict", t0, t1, n, lane);
  std::lock_guard<std::mutex> lock(mu);
  call_us.push_back(static_cast<double>(ns) / 1e3);
}

TimedLocalizer::TimedLocalizer(
    std::unique_ptr<cal::baselines::ILocalizer> inner, PredictProbe& probe,
    std::chrono::microseconds busy_wait, std::uint32_t lane)
    : inner_(std::move(inner)),
      probe_(&probe),
      busy_wait_(busy_wait),
      lane_(lane) {}

void TimedLocalizer::fit(const cal::data::FingerprintDataset& train) {
  inner_->fit(train);
}

std::vector<std::size_t> TimedLocalizer::predict(const cal::Tensor& x) {
  const auto t0 = Clock::now();
  auto out = inner_->predict(x);
  if (busy_wait_.count() > 0) {
    const auto until = Clock::now() + busy_wait_;
    while (Clock::now() < until) {
    }
  }
  probe_->record(t0, Clock::now(), x.rows(), lane_);
  return out;
}

std::string TimedLocalizer::name() const { return inner_->name(); }

cal::attacks::GradientSource* TimedLocalizer::gradient_source() {
  return inner_->gradient_source();
}

std::size_t TimedLocalizer::weight_bytes() const {
  return inner_->weight_bytes();
}

std::unique_ptr<cal::baselines::ILocalizer> TimedLocalizer::quantize_int8() {
  auto q = inner_->quantize_int8();
  if (q == nullptr) return nullptr;
  return std::make_unique<TimedLocalizer>(std::move(q), *probe_, busy_wait_,
                                          lane_);
}

// --- set-up ---------------------------------------------------------------

Deployment set_up(const WorkloadSpec& spec, const SetupOptions& opt) {
  if (opt.probe == nullptr) throw std::invalid_argument("set_up needs a probe");
  Deployment dep;
  const auto t_start = Clock::now();
  const auto all = cal::sim::table2_buildings();
  const auto devices = cal::sim::table1_devices();
  cal::serve::ModelRegistry registry;
  auto next_lane = std::make_shared<std::atomic<std::uint32_t>>(1);

  for (std::size_t v = 0; v < spec.buildings.size(); ++v) {
    const std::size_t b = spec.buildings[v];
    const cal::sim::BuildingSpec& bspec = all.at(b);
    Venue venue;
    venue.key = {bspec.name, 0, ""};

    // Traffic: the fixed venue survey, then a pool of fresh online scans
    // across all Table I devices, each device in its own drifted session.
    auto t0 = Clock::now();
    const cal::sim::Scenario survey =
        cal::sim::make_scenario(bspec, kSurveySeed + b);
    venue.train =
        std::make_shared<const cal::data::FingerprintDataset>(survey.train);
    const cal::sim::Building building(bspec);
    const cal::sim::RadioEnvironment env(building);
    cal::data::FingerprintDataset pool;
    for (std::size_t d = 0; d < devices.size(); ++d) {
      auto part = cal::sim::collect_fingerprints(
          env, devices[d], spec.scans_per_rp_device,
          pool_seed(b, d), /*with_session_drift=*/true);
      if (d == 0)
        pool = std::move(part);
      else
        pool.merge(part);
    }
    venue.rp_positions = pool.rp_positions();
    venue.scans = pool.normalized();
    venue.truth.assign(pool.labels().begin(), pool.labels().end());
    auto t1 = Clock::now();
    dep.times.traffic_s += std::chrono::duration<double>(t1 - t0).count();
    if (opt.spans != nullptr) opt.spans->add("setup.traffic", t0, t1, v);

    // Calloc::fit, then stage the weights for the replica factory.
    cal::core::Calloc model(training_config());
    t0 = Clock::now();
    model.fit(*venue.train);
    t1 = Clock::now();
    dep.times.fit_s += std::chrono::duration<double>(t1 - t0).count();
    dep.times.epochs += model.report().total_epochs;
    if (opt.spans != nullptr) opt.spans->add("setup.fit", t0, t1, v);
    const std::string weights = opt.scratch_dir + "/venue" +
                                std::to_string(v) + "-" +
                                std::to_string(getpid()) + ".bin";
    model.save_weights(weights);
    dep.weight_files.push_back(weights);

    if (spec.pgd) {
      t0 = Clock::now();
      venue.scans = cal::attacks::mitm_attack(
          cal::attacks::MitmMode::SignalManipulation,
          cal::attacks::AttackKind::Pgd, *model.gradient_source(),
          venue.scans, venue.truth, pgd_config());
      t1 = Clock::now();
      const double s = std::chrono::duration<double>(t1 - t0).count();
      dep.times.pgd_s += s;
      dep.times.traffic_s += s;
      if (opt.spans != nullptr) opt.spans->add("setup.pgd", t0, t1, v);
    }

    const auto train = venue.train;
    cal::serve::ReplicaFactory loader = [weights, train] {
      auto replica = std::make_unique<cal::core::Calloc>(training_config());
      replica->load_weights(weights, *train);
      return std::unique_ptr<cal::baselines::ILocalizer>(std::move(replica));
    };
    PredictProbe* probe = opt.probe;
    const auto busy = opt.busy_wait;
    cal::serve::TenantSpec ts;
    ts.factory = [loader, probe, busy, next_lane] {
      return std::unique_ptr<cal::baselines::ILocalizer>(
          std::make_unique<TimedLocalizer>(loader(), *probe, busy,
                                           next_lane->fetch_add(1)));
    };
    ts.num_aps = bspec.num_aps;
    ts.anchors = cal::serve::anchor_database_from(*venue.train);
    ts.service.screening = cal::serve::calibrate_thresholds(
        ts.anchors, cal::sim::merged_device_capture(survey).normalized());
    if (!spec.screen_rejects)
      ts.service.screening.reject_distance =
          std::numeric_limits<double>::infinity();
    ts.service.num_workers = kSlotsPerTenant;
    ts.service.max_batch = kMaxBatch;
    ts.service.queue_capacity = kQueueCapacity;
    ts.service.cache_capacity = spec.cache_capacity;
    registry.register_tenant(venue.key, std::move(ts));
    dep.factories.push_back(std::move(loader));
    dep.venues.push_back(std::move(venue));
  }

  const auto t0 = Clock::now();
  dep.snapshot = registry.publish();
  const auto t1 = Clock::now();
  dep.times.publish_s = std::chrono::duration<double>(t1 - t0).count();
  if (opt.spans != nullptr) opt.spans->add("setup.publish", t0, t1);
  for (std::size_t s = 0; s < dep.snapshot->num_tenants(); ++s)
    dep.weight_bytes += dep.snapshot->tenant(s).weight_bytes;
  dep.times.total_s = seconds_since(t_start);
  return dep;
}

void compute_expected(Deployment& dep) {
  constexpr std::size_t kChunk = 64;
  constexpr std::size_t kSingleRowChecks = 16;
  for (std::size_t v = 0; v < dep.venues.size(); ++v) {
    Venue& venue = dep.venues[v];
    const std::unique_ptr<cal::baselines::ILocalizer> model =
        dep.factories[v]();
    const std::size_t n = venue.scans.rows();
    const std::size_t width = venue.scans.cols();
    venue.expected_rp.resize(n);
    for (std::size_t r0 = 0; r0 < n; r0 += kChunk) {
      const std::size_t m = std::min(kChunk, n - r0);
      cal::Tensor x({m, width});
      std::copy(venue.scans.row(r0).begin(),
                venue.scans.row(r0).begin() + m * width, x.data());
      const auto rps = model->predict(x);
      std::copy(rps.begin(), rps.end(), venue.expected_rp.begin() + r0);
    }
    // The engine batches rows; the reference is one-row predict().
    for (std::size_t r = 0; r < std::min(n, kSingleRowChecks); ++r) {
      cal::Tensor x({1, width});
      std::copy(venue.scans.row(r).begin(), venue.scans.row(r).end(),
                x.data());
      if (model->predict(x).front() != venue.expected_rp[r])
        throw std::runtime_error("batched predict() differs from one-row "
                                 "predict() on " + venue.key.str());
    }
    const cal::serve::AnchorScreen& screen =
        dep.snapshot->find(venue.key)->screen;
    venue.expected_verdict.resize(n);
    for (std::size_t r = 0; r < n; ++r)
      venue.expected_verdict[r] =
          screen.classify(screen.distance(venue.scans.row(r)));
  }
}

// --- traffic --------------------------------------------------------------

TrafficSource::TrafficSource(const WorkloadSpec& spec, const Deployment& dep,
                             std::uint64_t seed)
    : spec_(&spec), rng_(seed ^ 0x7A6F0C1DULL), tag_last_(spec.tags) {
  for (const Venue& v : dep.venues) pool_sizes_.push_back(v.scans.rows());
}

TrafficSource::Pick TrafficSource::next() {
  const auto fresh = [this] {
    Pick p;
    p.venue = static_cast<std::uint32_t>(rng_.uniform_index(pool_sizes_.size()));
    p.row = static_cast<std::uint32_t>(rng_.uniform_index(pool_sizes_[p.venue]));
    return p;
  };
  if (spec_->tags == 0) return fresh();
  std::optional<Pick>& last = tag_last_[rng_.uniform_index(spec_->tags)];
  if (!last || !rng_.bernoulli(spec_->repeat_prob)) last = fresh();
  return *last;
}

}  // namespace servebench

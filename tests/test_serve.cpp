// Serving-engine tests: queue semantics, cache behaviour, screening,
// drift-triggered cache invalidation, the registry/snapshot/shard stack,
// and the headline guarantees — concurrent batched serving is
// bit-identical to sequential predict() on the same trained model, per
// tenant, and unknown tenants are rejected deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attacks/attack.hpp"
#include "baselines/knn.hpp"
#include "common/ensure.hpp"
#include "common/fault_inject.hpp"
#include "core/calloc.hpp"
#include "serve/engine.hpp"
#include "serve/lru_cache.hpp"
#include "serve/queue.hpp"
#include "serve/registry.hpp"
#include "serve/snapshot.hpp"
#include "serve/screening.hpp"
#include "serve/service.hpp"
#include "sim/fleet.hpp"

namespace {

using namespace cal;
using namespace cal::serve;

// ---------------------------------------------------------------------------
// Shared trained model: one curriculum run reused by every service test.
// ---------------------------------------------------------------------------

const sim::Scenario& scenario() {
  static const sim::Scenario sc = [] {
    sim::BuildingSpec spec;
    spec.name = "serve-test";
    spec.num_aps = 24;
    spec.path_length_m = 14;
    spec.seed = 313;
    return sim::make_scenario(spec, 999);
  }();
  return sc;
}

core::CallocConfig fast_cfg(std::uint64_t seed = 71) {
  core::CallocConfig cfg;
  cfg.seed = seed;
  cfg.num_lessons = 5;
  cfg.train.max_epochs_per_lesson = 6;
  return cfg;
}

struct TrainedModel {
  core::Calloc model{fast_cfg()};
  std::string weights_path;

  TrainedModel() {
    model.fit(scenario().train);
    weights_path = (std::filesystem::temp_directory_path() /
                    "cal_serve_test_weights.bin")
                       .string();
    model.save_weights(weights_path);
  }
  ~TrainedModel() { std::remove(weights_path.c_str()); }
};

TrainedModel& trained() {
  static TrainedModel tm;
  return tm;
}

/// Replica factory: deploy the one trained artefact into fresh models.
ReplicaFactory calloc_factory() {
  return [] {
    auto replica = std::make_unique<core::Calloc>(fast_cfg());
    replica->load_weights(trained().weights_path, scenario().train);
    return replica;
  };
}

std::vector<float> row_of(const Tensor& x, std::size_t r) {
  const auto row = x.row(r);
  return {row.begin(), row.end()};
}

/// One tenant's entry of the engine's stats() read: its LRU and drift
/// gauges included.
TenantStats tenant_stats(const ServeEngine& engine, const TenantKey& key) {
  for (TenantStats& t : engine.stats().per_tenant)
    if (t.tenant == key) return t;
  ADD_FAILURE() << "no stats for tenant " << key.str();
  return {};
}

// ---------------------------------------------------------------------------
// BoundedQueue
// ---------------------------------------------------------------------------

TEST(BoundedQueue, FifoAndBatchCap) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(int{i}));
  EXPECT_EQ(q.size(), 5u);
  const auto first = q.try_pop_batch(3);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0], 0);
  EXPECT_EQ(first[2], 2);
  const auto rest = q.try_pop_batch(10);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[1], 4);
}

TEST(BoundedQueue, CloseDrainsThenStops) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.try_push(1));
  q.close();
  EXPECT_FALSE(q.try_push(2));
  EXPECT_EQ(q.try_pop_batch(4).size(), 1u);  // drain survivors
  EXPECT_TRUE(q.try_pop_batch(4).empty());   // closed and drained
}

TEST(BoundedQueue, RejectsZeroCapacity) {
  EXPECT_THROW(BoundedQueue<int>(0), PreconditionError);
}

TEST(BoundedQueue, TryPushAndTryPopNeverBlock) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_pop_batch(4).empty());  // empty: returns, not blocks
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  int spilled = 3;
  EXPECT_FALSE(q.try_push(std::move(spilled)));  // full: refuse, not block
  EXPECT_EQ(spilled, 3);                         // refused item untouched
  const auto batch = q.try_pop_batch(1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], 1);
  EXPECT_TRUE(q.try_push(3));  // slot freed
  q.close();
  EXPECT_FALSE(q.try_push(4));            // closed: refuse
  EXPECT_EQ(q.try_pop_batch(8).size(), 2u);  // drain survivors
  EXPECT_TRUE(q.try_pop_batch(8).empty());
}

TEST(BoundedQueue, TryOpsUnderProducerConsumerContention) {
  // Several producers spin on try_push against a deliberately tiny
  // capacity while consumers spin on try_pop_batch: every item must come
  // out exactly once, in spite of constant full/empty refusals. This is
  // the test the ThreadSanitizer CI job leans on for the queue.
  BoundedQueue<int> q(16);
  constexpr int kProducers = 4;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 2000;

  std::atomic<long long> pushed_sum{0};
  std::atomic<long long> popped_sum{0};
  std::atomic<int> popped_count{0};
  std::atomic<bool> producers_done{false};

  std::vector<std::thread> threads;
  threads.reserve(kProducers + kConsumers);
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, &pushed_sum, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int v = p * kPerProducer + i;
        while (!q.try_push(int{v})) std::this_thread::yield();
        pushed_sum += v;
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        const auto batch = q.try_pop_batch(8);
        for (const int v : batch) {
          popped_sum += v;
          ++popped_count;
        }
        if (batch.empty()) {
          // Producers joined before the flag flips, so done + empty
          // means empty forever.
          if (producers_done.load() && q.size() == 0) return;
          std::this_thread::yield();
        }
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  producers_done = true;
  for (int c = 0; c < kConsumers; ++c) threads[kProducers + c].join();

  EXPECT_EQ(popped_count.load(), kProducers * kPerProducer);
  EXPECT_EQ(popped_sum.load(), pushed_sum.load());
  EXPECT_EQ(q.size(), 0u);
}

// ---------------------------------------------------------------------------
// FingerprintCache
// ---------------------------------------------------------------------------

TEST(FingerprintCache, QuantizationGroupsJitteredScans) {
  FingerprintCache cache(8, 0.01F);
  const std::vector<float> a{0.500F, 0.300F, 0.700F};
  const std::vector<float> jittered{0.501F, 0.299F, 0.702F};  // < step/2 off
  const std::vector<float> elsewhere{0.100F, 0.900F, 0.200F};
  EXPECT_EQ(cache.make_key(a), cache.make_key(jittered));
  EXPECT_NE(cache.make_key(a), cache.make_key(elsewhere));
}

TEST(FingerprintCache, LruEvictionOrder) {
  FingerprintCache cache(2, 0.01F);
  const auto k1 = cache.make_key(std::vector<float>{0.1F});
  const auto k2 = cache.make_key(std::vector<float>{0.2F});
  const auto k3 = cache.make_key(std::vector<float>{0.3F});
  cache.insert(k1, 11);
  cache.insert(k2, 22);
  ASSERT_TRUE(cache.lookup(k1).has_value());  // bump k1 to MRU
  cache.insert(k3, 33);                       // evicts k2 (LRU)
  EXPECT_FALSE(cache.lookup(k2).has_value());
  EXPECT_EQ(cache.lookup(k1).value_or(999), 11u);
  EXPECT_EQ(cache.lookup(k3).value_or(999), 33u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(FingerprintCache, ZeroCapacityDisables) {
  FingerprintCache cache(0, 0.01F);
  EXPECT_FALSE(cache.enabled());
  const auto k = cache.make_key(std::vector<float>{0.5F});
  cache.insert(k, 1);
  EXPECT_FALSE(cache.lookup(k).has_value());
  EXPECT_THROW(FingerprintCache(4, 0.0F), PreconditionError);
}

// ---------------------------------------------------------------------------
// Screening
// ---------------------------------------------------------------------------

TEST(Screening, DistanceAndClassification) {
  const Tensor anchors = Tensor::from_rows({{0.5F, 0.5F}, {0.2F, 0.8F}});
  ScreeningThresholds th;
  th.flag_distance = 0.1;
  th.reject_distance = 0.3;
  const AnchorScreen screen(anchors, th);
  // Exactly on an anchor: distance 0, accepted.
  EXPECT_NEAR(screen.distance(std::vector<float>{0.2F, 0.8F}), 0.0, 1e-9);
  EXPECT_EQ(screen.classify(0.05), Verdict::Accept);
  EXPECT_EQ(screen.classify(0.2), Verdict::Flag);
  EXPECT_EQ(screen.classify(0.5), Verdict::Reject);
  // RMS-per-AP scale: (0.6,0.5) is 0.1 away from (0.5,0.5) in one of two
  // coordinates -> sqrt(0.01/2).
  EXPECT_NEAR(screen.distance(std::vector<float>{0.6F, 0.5F}),
              std::sqrt(0.01 / 2.0), 1e-6);
  EXPECT_THROW(screen.distance(std::vector<float>{0.2F}), PreconditionError);
  EXPECT_THROW(AnchorScreen(anchors, {0.5, 0.1}), PreconditionError);
  EXPECT_THROW(AnchorScreen(Tensor{}, th), PreconditionError);
  // A single anchor: a query sitting on it is exactly 0.
  const AnchorScreen single(Tensor::from_rows({{0.25F, 0.75F}}), th);
  EXPECT_EQ(single.num_anchors(), 1u);
  EXPECT_EQ(single.distance(std::vector<float>{0.25F, 0.75F}), 0.0);
}

TEST(Screening, DisabledScreenAcceptsEverything) {
  const AnchorScreen screen;
  EXPECT_FALSE(screen.enabled());
  EXPECT_EQ(screen.distance(std::vector<float>{9.0F}), 0.0);
  EXPECT_EQ(screen.classify(1e9), Verdict::Accept);
}

TEST(Screening, CalibrationBoundsCleanData) {
  const auto& train = scenario().train;
  const Tensor anchors = anchor_database_from(train);
  const Tensor clean = train.normalized();
  const auto th = calibrate_thresholds(anchors, clean, 95.0, 2.0);
  EXPECT_GT(th.flag_distance, 0.0);
  EXPECT_NEAR(th.reject_distance, 2.0 * th.flag_distance, 1e-12);
  // At the 95th-percentile cutoff, roughly 5% of the calibration data
  // itself sits above the flag line — never more than ~10% of it.
  std::size_t above = 0;
  for (std::size_t i = 0; i < clean.rows(); ++i)
    if (anchor_distance(anchors, clean.row(i)) > th.flag_distance) ++above;
  EXPECT_LE(above, clean.rows() / 10);
}

// ---------------------------------------------------------------------------
// Single-tenant serving (a ServeEngine whose fleet is one tenant)
// ---------------------------------------------------------------------------

/// Test-local harness: the retired SingleTenantHarness shim, reduced to
/// the surface these tests exercise. Registers ONE tenant ("default")
/// and forwards the blocking single-queue calls to a private ServeEngine
/// — the production API is the engine itself.
class SingleTenantHarness {
 public:
  SingleTenantHarness(ReplicaFactory factory, std::size_t num_aps,
                      Tensor anchors, const ServiceConfig& cfg) {
    TenantSpec spec;
    spec.factory = std::move(factory);
    spec.num_aps = num_aps;
    spec.anchors = std::move(anchors);
    spec.service = cfg;
    init(std::move(spec), cfg);
  }

  /// Shared mode: one caller-owned model, a single replica slot.
  SingleTenantHarness(baselines::ILocalizer& shared_model,
                      std::size_t num_aps, Tensor anchors,
                      const ServiceConfig& cfg) {
    TenantSpec spec;
    spec.shared_model = &shared_model;
    spec.num_aps = num_aps;
    spec.anchors = std::move(anchors);
    spec.service = cfg;
    init(std::move(spec), cfg);
  }

  std::future<ServeResult> submit(std::vector<float> fingerprint) {
    return engine_->submit_blocking(key_, std::move(fingerprint)).result;
  }

  ServiceStats stats() const {
    return engine_->stats().per_tenant.front().stats;
  }
  std::size_t cache_size() const {
    return tenant_stats(*engine_, key_).lru_size;
  }
  void shutdown() { engine_->shutdown(); }

 private:
  void init(TenantSpec spec, const ServiceConfig& cfg) {
    ModelRegistry reg;
    reg.register_tenant(key_, std::move(spec));
    EngineConfig engine_cfg;
    engine_cfg.pool_size = cfg.num_workers;
    engine_ = std::make_unique<ServeEngine>(reg.publish(), engine_cfg);
  }

  const TenantKey key_{"default", 0, ""};
  std::unique_ptr<ServeEngine> engine_;
};

TEST(Service, ConcurrentBatchedMatchesSequentialBitIdentical) {
  const auto& test = scenario().device_tests.back();
  const Tensor x = test.normalized();
  const auto expected = trained().model.predict(x);

  ServiceConfig cfg;
  cfg.num_workers = 4;
  cfg.max_batch = 8;
  cfg.queue_capacity = 64;
  cfg.cache_capacity = 0;  // every request must hit the model
  SingleTenantHarness service(calloc_factory(), test.num_aps(), Tensor{},
                              cfg);

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 64;
  struct Outcome {
    std::size_t row;
    std::future<ServeResult> fut;
  };
  std::vector<std::vector<Outcome>> outcomes(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const std::size_t row = (c * 7 + i * 3) % x.rows();
        outcomes[c].push_back({row, service.submit(row_of(x, row))});
      }
    });
  }
  for (auto& t : clients) t.join();

  for (auto& per_client : outcomes) {
    for (auto& o : per_client) {
      const ServeResult r = o.fut.get();
      EXPECT_TRUE(r.localized);
      EXPECT_EQ(r.verdict, Verdict::Accept);
      EXPECT_EQ(r.rp, expected[o.row]) << "row " << o.row;
      EXPECT_GE(r.latency_ms, 0.0);
    }
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, kClients * kPerClient);
  EXPECT_EQ(stats.completed, kClients * kPerClient);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_LE(stats.latency_p50_ms, stats.latency_p95_ms);
  EXPECT_LE(stats.latency_p95_ms, stats.latency_p99_ms);
  EXPECT_GT(stats.throughput_rps, 0.0);
}

TEST(Service, SharedModeSerializesOneModel) {
  const auto& test = scenario().device_tests.front();
  const Tensor x = test.normalized();
  const auto expected = trained().model.predict(x);

  ServiceConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 4;
  SingleTenantHarness service(trained().model, test.num_aps(), Tensor{},
                              cfg);
  std::vector<std::future<ServeResult>> futs;
  for (std::size_t i = 0; i < x.rows(); ++i)
    futs.push_back(service.submit(row_of(x, i)));
  for (std::size_t i = 0; i < futs.size(); ++i)
    EXPECT_EQ(futs[i].get().rp, expected[i]) << "row " << i;
}

TEST(Service, MicroBatchingCoalescesBacklog) {
  const auto& test = scenario().device_tests.back();
  const Tensor x = test.normalized();
  ServiceConfig cfg;
  cfg.num_workers = 1;  // single worker => backlog must coalesce
  cfg.max_batch = 16;
  cfg.queue_capacity = 128;
  SingleTenantHarness service(calloc_factory(), test.num_aps(), Tensor{},
                              cfg);
  std::vector<std::future<ServeResult>> futs;
  for (std::size_t i = 0; i < 64; ++i)
    futs.push_back(service.submit(row_of(x, i % x.rows())));
  for (auto& f : futs) f.get();
  service.shutdown();
  const auto stats = service.stats();
  EXPECT_GT(stats.largest_batch, 1u)
      << "a single busy worker should drain queued requests in batches";
  EXPECT_LT(stats.batches, 64u);
}

TEST(Service, CacheServesRepeatTrafficAndAuditAgrees) {
  const auto& test = scenario().device_tests.back();
  const Tensor x = test.normalized();
  ServiceConfig cfg;
  cfg.num_workers = 2;
  cfg.cache_capacity = 32;
  cfg.cache_audit_rate = 0.5;  // audit half the hits against the model
  SingleTenantHarness service(calloc_factory(), test.num_aps(), Tensor{},
                              cfg);

  const auto fp = row_of(x, 0);
  const std::size_t first = service.submit(fp).get().rp;
  std::vector<std::future<ServeResult>> futs;
  for (int i = 0; i < 50; ++i) futs.push_back(service.submit(fp));
  std::size_t hits = 0;
  for (auto& f : futs) {
    const auto r = f.get();
    EXPECT_EQ(r.rp, first);  // cached or recomputed, same answer
    if (r.from_cache) ++hits;
  }
  service.shutdown();
  const auto stats = service.stats();
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(stats.cache_hits, hits);
  EXPECT_GT(stats.cache_audits, 0u);
  EXPECT_EQ(stats.cache_audit_mismatches, 0u)
      << "auditing a stationary device must agree with the cache";
}

TEST(Service, ScreeningFlagsPgdTrafficMoreThanClean) {
  const auto& test = scenario().device_tests[1];
  const Tensor clean = test.normalized();
  attacks::AttackConfig atk;
  atk.epsilon = 0.3;
  atk.phi_percent = 100.0;
  atk.num_steps = 8;
  const Tensor attacked =
      attacks::pgd_attack(*trained().model.gradient_source(), clean,
                          test.labels(), atk);

  // Calibrate on a clean *online* capture spanning the device fleet —
  // the offline train set alone is too tight once session drift and
  // device heterogeneity kick in (its P95 sits below every test device).
  data::FingerprintDataset fleet = scenario().device_tests.front();
  for (std::size_t d = 1; d < scenario().device_tests.size(); ++d)
    fleet.merge(scenario().device_tests[d]);

  const Tensor anchors = trained().model.model().anchor_matrix();
  ServiceConfig cfg;
  cfg.num_workers = 2;
  cfg.screening =
      calibrate_thresholds(anchors, fleet.normalized(), 95.0, 3.0);
  SingleTenantHarness service(calloc_factory(), test.num_aps(), anchors,
                              cfg);

  auto suspicious_rate = [&](const Tensor& batch) {
    std::vector<std::future<ServeResult>> futs;
    for (std::size_t i = 0; i < batch.rows(); ++i)
      futs.push_back(service.submit(row_of(batch, i)));
    std::size_t suspicious = 0;
    for (auto& f : futs) {
      const auto r = f.get();
      if (r.verdict != Verdict::Accept) ++suspicious;
      EXPECT_EQ(r.localized, r.verdict != Verdict::Reject);
    }
    return static_cast<double>(suspicious) /
           static_cast<double>(batch.rows());
  };

  const double clean_rate = suspicious_rate(clean);
  const double attacked_rate = suspicious_rate(attacked);
  EXPECT_GT(attacked_rate, clean_rate)
      << "PGD fingerprints must be flagged more often than clean ones";
  EXPECT_GT(attacked_rate, 0.5)
      << "eps=0.3 over all APs should leave the clean manifold";
  EXPECT_GT(service.stats().flagged + service.stats().rejected, 0u);
}

TEST(Service, ValidatesInputsAndShutdownIsFinal) {
  ServiceConfig cfg;
  cfg.num_workers = 1;
  SingleTenantHarness service(trained().model,
                              scenario().train.num_aps(), Tensor{}, cfg);
  EXPECT_THROW(service.submit(std::vector<float>{0.5F}), PreconditionError);
  // Non-finite fingerprints from the untrusted channel are rejected at
  // submit(): a NaN would poison the batched forward pass (the GEMM layer
  // propagates it by contract) and garble the cache-key quantizer.
  {
    auto poisoned = row_of(scenario().train.normalized(), 0);
    poisoned[1] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_THROW(service.submit(poisoned), PreconditionError);
    poisoned[1] = std::numeric_limits<float>::infinity();
    EXPECT_THROW(service.submit(poisoned), PreconditionError);
  }
  service.shutdown();
  service.shutdown();  // idempotent
  const Tensor x = scenario().train.normalized();
  EXPECT_THROW(service.submit(row_of(x, 0)), PreconditionError);

  ServiceConfig bad;
  bad.num_workers = 0;
  EXPECT_THROW(SingleTenantHarness(trained().model, 24, Tensor{}, bad),
               PreconditionError);

  // A drift policy without an anchor screen would be silently inert
  // (drift feeds on screening distances) — rejected at construction.
  ServiceConfig inert_drift;
  inert_drift.drift.window = 8;
  EXPECT_THROW(
      SingleTenantHarness(trained().model, 24, Tensor{}, inert_drift),
      PreconditionError);
}

// ---------------------------------------------------------------------------
// Screening distance
// ---------------------------------------------------------------------------

TEST(Screening, DistanceMatchesNaiveScanAtEveryLaneRemainder) {
  // Widths 1-17 cover every body/tail split of squared_distance's 8-lane
  // sum; 156 and 218 are the servebench venues (Buildings 1 and 5).
  // Clustered anchors, the shape real per-RP fingerprints have, with
  // queries scattered around the clusters. The reference is a plain
  // sequential double loop, so only the summation order differs.
  std::vector<std::size_t> widths = {156, 218};
  for (std::size_t n = 1; n <= 17; ++n) widths.push_back(n);
  for (const std::size_t dim : widths) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    Rng rng(17 + dim);
    const std::size_t per_cluster = 20;
    Tensor anchors({3 * per_cluster, dim});
    const float centers[3] = {0.2F, 0.5F, 0.8F};
    for (std::size_t c = 0; c < 3; ++c)
      for (std::size_t i = 0; i < per_cluster; ++i)
        for (auto& v : anchors.row(c * per_cluster + i))
          v = centers[c] + static_cast<float>(rng.normal(0.0, 0.02));
    const AnchorScreen screen(anchors, ScreeningThresholds{});
    ASSERT_EQ(screen.num_anchors(), 3 * per_cluster);

    const auto naive = [&](std::span<const float> fp) {
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t m = 0; m < anchors.rows(); ++m) {
        double sq = 0.0;
        for (std::size_t j = 0; j < dim; ++j) {
          const double d = static_cast<double>(fp[j]) - anchors.at(m, j);
          sq += d * d;
        }
        best = std::min(best, sq);
      }
      return std::sqrt(best / static_cast<double>(dim));
    };
    for (std::size_t q = 0; q < 60; ++q) {
      std::vector<float> fp(dim);
      for (auto& v : fp)
        v = centers[q % 3] + static_cast<float>(rng.normal(0.0, 0.05));
      const double want = naive(fp);
      EXPECT_NEAR(screen.distance(fp), want, 1e-12 * want) << "query " << q;
    }
    // A query sitting on an anchor is exactly 0.
    EXPECT_EQ(screen.distance(anchors.row(7)), 0.0);
  }
}

// ---------------------------------------------------------------------------
// Screening calibration edge cases
// ---------------------------------------------------------------------------

TEST(Screening, CalibrationRejectsEmptyCapture) {
  const Tensor anchors = Tensor::from_rows({{0.5F, 0.5F}, {0.2F, 0.8F}});
  EXPECT_THROW(calibrate_thresholds(anchors, Tensor{}), PreconditionError);
}

TEST(Screening, CalibrationSingleSampleIsSane) {
  const Tensor anchors = Tensor::from_rows({{0.5F, 0.5F}, {0.2F, 0.8F}});
  const Tensor one = Tensor::from_rows({{0.6F, 0.5F}});
  const auto th = calibrate_thresholds(anchors, one, 95.0, 2.0);
  EXPECT_TRUE(std::isfinite(th.flag_distance));
  EXPECT_TRUE(std::isfinite(th.reject_distance));
  // The only clean distance IS every percentile of the distribution.
  EXPECT_NEAR(th.flag_distance, anchor_distance(anchors, one.row(0)), 1e-12);
  EXPECT_NEAR(th.reject_distance, 2.0 * th.flag_distance, 1e-12);
  EXPECT_NO_THROW(AnchorScreen(anchors, th));
}

TEST(Screening, CalibrationAllIdenticalDistancesIsSane) {
  const Tensor anchors = Tensor::from_rows({{0.5F, 0.5F}, {0.2F, 0.8F}});
  Tensor same({6, 2});
  for (std::size_t i = 0; i < same.rows(); ++i) {
    same.at(i, 0) = 0.6F;
    same.at(i, 1) = 0.5F;
  }
  const auto th = calibrate_thresholds(anchors, same, 95.0, 2.0);
  const double d = anchor_distance(anchors, same.row(0));
  EXPECT_TRUE(std::isfinite(th.flag_distance));
  EXPECT_NEAR(th.flag_distance, d, 1e-12);
  EXPECT_NEAR(th.reject_distance, 2.0 * d, 1e-12);
}

TEST(Screening, CalibrationOnAnchorsYieldsZeroThresholds) {
  // Clean capture sitting exactly on the anchors: all distances are 0, so
  // both cutoffs collapse to 0 — still a valid screen (0 <= flag <=
  // reject, no NaN) that accepts on-anchor traffic and rejects the rest.
  const Tensor anchors = Tensor::from_rows({{0.5F, 0.5F}, {0.2F, 0.8F}});
  const auto th = calibrate_thresholds(anchors, anchors, 95.0, 2.0);
  EXPECT_EQ(th.flag_distance, 0.0);
  EXPECT_EQ(th.reject_distance, 0.0);
  const AnchorScreen screen(anchors, th);
  EXPECT_EQ(screen.classify(screen.distance(std::vector<float>{0.2F, 0.8F})),
            Verdict::Accept);
  EXPECT_EQ(screen.classify(screen.distance(std::vector<float>{0.3F, 0.8F})),
            Verdict::Reject);
}

TEST(Screening, CalibrationRejectsNonFiniteSamples) {
  const Tensor anchors = Tensor::from_rows({{0.5F, 0.5F}});
  Tensor bad({2, 2});
  bad.at(0, 0) = 0.5F;
  bad.at(0, 1) = 0.5F;
  bad.at(1, 0) = std::numeric_limits<float>::quiet_NaN();
  bad.at(1, 1) = 0.5F;
  EXPECT_THROW(calibrate_thresholds(anchors, bad), PreconditionError);
}

// ---------------------------------------------------------------------------
// Drift-triggered cache invalidation
// ---------------------------------------------------------------------------

TEST(DriftMonitor, SlopeTrendSignalsOnceThenRebaselines) {
  DriftPolicy p;
  p.window = 4;
  p.slope_factor = 1.5;
  DriftMonitor m(p);
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(m.record(0.01));  // baseline
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(m.record(0.012));  // 1.2x: ok
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(m.record(0.05));
  EXPECT_TRUE(m.record(0.05));  // window completes 4.2x above baseline
  // The drifted window became the new baseline: a persistent shift
  // flushes once, not forever.
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(m.record(0.05));
}

TEST(DriftMonitor, GradualCreepAccumulatesAgainstPinnedBaseline) {
  // Drift ramping below slope_factor per window must not ratchet the
  // baseline up with it: the pinned baseline catches the cumulative
  // shift once it crosses the factor.
  DriftPolicy p;
  p.window = 4;
  p.slope_factor = 1.5;
  DriftMonitor m(p);
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(m.record(0.01));   // baseline
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(m.record(0.013));  // 1.3x: ok
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(m.record(0.017));
  EXPECT_TRUE(m.record(0.017))
      << "1.7x the PINNED baseline must flush even though each step was "
         "below slope_factor relative to its predecessor";
}

TEST(DriftMonitor, AbsoluteLevelAndValidation) {
  DriftPolicy p;
  p.window = 2;
  p.slope_factor = 1e9;  // slope can never trigger
  p.level = 0.03;
  DriftMonitor m(p);
  EXPECT_FALSE(m.record(0.01));
  EXPECT_FALSE(m.record(0.01));  // baseline window, below level
  EXPECT_FALSE(m.record(0.05));
  EXPECT_TRUE(m.record(0.05));  // window mean 0.05 crosses the level
  // A persistent shift that SETTLES above the level flushes once — the
  // rebaselined map is the new normal, not a flush-every-window storm.
  for (int i = 0; i < 6; ++i) EXPECT_FALSE(m.record(0.05));

  DriftMonitor off;  // window == 0 disables
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.record(1e9));

  DriftPolicy bad;
  bad.window = 4;
  bad.slope_factor = 0.5;
  EXPECT_THROW(DriftMonitor{bad}, PreconditionError);
}

TEST(DriftMonitor, TrendSnapshotShowsDriftBuildingBeforeTheFlush) {
  DriftPolicy p;
  p.window = 4;
  p.slope_factor = 1.5;
  DriftMonitor m(p);

  const DriftTrend fresh = m.snapshot();
  EXPECT_TRUE(fresh.enabled);
  EXPECT_EQ(fresh.window, 4u);
  EXPECT_LT(fresh.baseline_mean, 0.0);  // no window completed yet
  EXPECT_LT(fresh.last_window_mean, 0.0);
  EXPECT_EQ(fresh.partial_n, 0u);
  EXPECT_EQ(fresh.windows_completed, 0u);

  for (int i = 0; i < 4; ++i) m.record(0.01);  // baseline window
  // Drift building: two samples into the next window, well above the
  // baseline but not yet a completed window — exactly what an operator
  // must be able to see BEFORE the flush fires.
  m.record(0.02);
  m.record(0.02);
  const DriftTrend building = m.snapshot();
  EXPECT_NEAR(building.baseline_mean, 0.01, 1e-12);
  EXPECT_NEAR(building.last_window_mean, 0.01, 1e-12);
  EXPECT_EQ(building.partial_n, 2u);
  EXPECT_NEAR(building.partial_mean, 0.02, 1e-12);
  EXPECT_EQ(building.windows_completed, 1u);

  const DriftTrend disabled = DriftMonitor{}.snapshot();
  EXPECT_FALSE(disabled.enabled);
}

TEST(Service, DriftTrendFlushesShardCache) {
  const auto& train = scenario().train;
  const Tensor x = train.normalized();
  baselines::Knn knn(3);
  knn.fit(train);

  ServiceConfig cfg;
  cfg.num_workers = 1;  // deterministic window ordering
  cfg.max_batch = 1;
  cfg.cache_capacity = 32;
  cfg.drift.window = 8;
  cfg.drift.slope_factor = 1.5;
  // Screen enabled with accept-everything thresholds: we want distances
  // recorded, not verdicts issued.
  SingleTenantHarness service(knn, train.num_aps(),
                              anchor_database_from(train), cfg);

  const auto fp = row_of(x, 0);
  // Two windows of stable traffic: establishes the baseline and fills
  // the cache (the repeats must come from it).
  bool saw_cache_hit = false;
  for (int i = 0; i < 16; ++i)
    saw_cache_hit |= service.submit(fp).get().from_cache;
  EXPECT_TRUE(saw_cache_hit);
  EXPECT_GT(service.cache_size(), 0u);
  EXPECT_EQ(service.stats().drift_flushes, 0u);

  // Synthetic drift: the whole radio map shifts by 5 dB (+0.05 on the
  // normalised scale) — distances grow well past 1.5x baseline.
  auto drifted = fp;
  for (auto& v : drifted) v += 0.05F;
  for (int i = 0; i < 8; ++i) service.submit(drifted).get();
  EXPECT_EQ(service.stats().drift_flushes, 1u)
      << "completing a drifted window must flush exactly once";

  // The pre-drift entry is gone: the same fingerprint misses the cache.
  EXPECT_FALSE(service.submit(fp).get().from_cache)
      << "drift flush must evict the stale pre-drift cache entry";
  service.shutdown();
}

// ---------------------------------------------------------------------------
// ModelRegistry / DeploymentSnapshot routing
// ---------------------------------------------------------------------------

ReplicaFactory dummy_factory() {
  return [] { return std::make_unique<baselines::Knn>(1); };
}

TenantSpec dummy_spec(std::size_t num_aps = 8) {
  TenantSpec spec;
  spec.factory = dummy_factory();
  spec.num_aps = num_aps;
  return spec;
}

TEST(Registry, ResolvesExactFallbackAndMiss) {
  ModelRegistry reg;
  reg.register_tenant({"A", 0, "OP3"}, dummy_spec());
  reg.register_tenant({"A", 1, "OP3"}, dummy_spec());
  reg.register_tenant({"B", 0, ""}, dummy_spec());
  reg.set_profile_fallbacks({"OP3", ""});
  EXPECT_EQ(reg.size(), 3u);

  const auto exact = reg.resolve({"A", 0, "OP3"});
  EXPECT_EQ(exact.kind, ModelRegistry::Resolution::Kind::Exact);
  EXPECT_EQ(exact.resolved, (TenantKey{"A", 0, "OP3"}));

  // Unknown profile walks the chain to the venue's OP3 model...
  const auto fb = reg.resolve({"A", 0, "S7"});
  EXPECT_EQ(fb.kind, ModelRegistry::Resolution::Kind::Fallback);
  EXPECT_EQ(fb.resolved, (TenantKey{"A", 0, "OP3"}));
  // ...or to the venue-generic entry when there is no OP3 model.
  const auto generic = reg.resolve({"B", 0, "S7"});
  EXPECT_EQ(generic.kind, ModelRegistry::Resolution::Kind::Fallback);
  EXPECT_EQ(generic.resolved, (TenantKey{"B", 0, ""}));

  // Unknown building and unknown floor are misses, not guesses.
  EXPECT_EQ(reg.resolve({"C", 0, "OP3"}).kind,
            ModelRegistry::Resolution::Kind::Miss);
  EXPECT_EQ(reg.resolve({"A", 7, "OP3"}).kind,
            ModelRegistry::Resolution::Kind::Miss);
}

TEST(Registry, ValidatesSpecsAndRejectsDuplicates) {
  ModelRegistry reg;
  reg.register_tenant({"A", 0, "OP3"}, dummy_spec());
  EXPECT_THROW(reg.register_tenant({"A", 0, "OP3"}, dummy_spec()),
               PreconditionError);
  EXPECT_THROW(reg.register_tenant({"", 0, "OP3"}, dummy_spec()),
               PreconditionError);

  TenantSpec no_factory = dummy_spec();
  no_factory.factory = nullptr;
  EXPECT_THROW(reg.register_tenant({"B", 0, ""}, std::move(no_factory)),
               PreconditionError);

  TenantSpec no_aps = dummy_spec(0);
  EXPECT_THROW(reg.register_tenant({"B", 0, ""}, std::move(no_aps)),
               PreconditionError);

  TenantSpec bad_anchors = dummy_spec(8);
  bad_anchors.anchors = Tensor({2, 5});  // 5 != num_aps
  EXPECT_THROW(reg.register_tenant({"B", 0, ""}, std::move(bad_anchors)),
               PreconditionError);
}

TEST(Router, DeterministicShardsAndRouting) {
  ModelRegistry reg;
  reg.register_tenant({"B", 0, "OP3"}, dummy_spec());
  reg.register_tenant({"A", 0, "OP3"}, dummy_spec());
  reg.register_tenant({"A", 0, ""}, dummy_spec());
  reg.set_profile_fallbacks({"OP3", ""});

  const auto snap = reg.publish();
  ASSERT_EQ(snap->num_tenants(), 3u);
  // str()-sorted shard order: "A/0:*" < "A/0:OP3" < "B/0:OP3".
  EXPECT_EQ(snap->tenant(0).key, (TenantKey{"A", 0, ""}));
  EXPECT_EQ(snap->tenant(1).key, (TenantKey{"A", 0, "OP3"}));
  EXPECT_EQ(snap->tenant(2).key, (TenantKey{"B", 0, "OP3"}));
  EXPECT_EQ(reg.keys(), (std::vector<TenantKey>{snap->tenant(0).key,
                                                snap->tenant(1).key,
                                                snap->tenant(2).key}));
  EXPECT_THROW(snap->tenant(3), PreconditionError);

  const auto exact = snap->route({"B", 0, "OP3"});
  EXPECT_EQ(exact.status, RouteDecision::Status::Exact);
  EXPECT_EQ(exact.shard, 2u);

  const auto fb = snap->route({"A", 0, "S7"});
  EXPECT_EQ(fb.status, RouteDecision::Status::Fallback);
  EXPECT_EQ(fb.shard, 1u);  // chain prefers OP3 over venue-generic

  // No venue-generic entry for B, but the chain still finds B's OP3
  // model for a profile-less request.
  const auto generic = snap->route({"B", 0, ""});
  EXPECT_EQ(generic.status, RouteDecision::Status::Fallback);
  EXPECT_EQ(generic.shard, 2u);

  EXPECT_EQ(snap->route({"Z", 0, "OP3"}).status,
            RouteDecision::Status::Reject);

  EXPECT_THROW(ModelRegistry{}.publish(), PreconditionError);
}

// ---------------------------------------------------------------------------
// TokenBucket
// ---------------------------------------------------------------------------

TEST(TokenBucket, RefillAndBurstSemantics) {
  using namespace std::chrono;
  const auto t0 = steady_clock::now();
  TokenBucket bucket(QuotaPolicy{2.0, 2.0});
  EXPECT_FALSE(bucket.unlimited());
  EXPECT_TRUE(bucket.try_acquire(t0));
  EXPECT_TRUE(bucket.try_acquire(t0));
  EXPECT_FALSE(bucket.try_acquire(t0));  // burst exhausted
  EXPECT_TRUE(bucket.try_acquire(t0 + milliseconds(500)));  // +1 token
  EXPECT_FALSE(bucket.try_acquire(t0 + milliseconds(500)));
  // Idle refill is capped at the burst, never unbounded.
  EXPECT_TRUE(bucket.try_acquire(t0 + seconds(60)));
  EXPECT_TRUE(bucket.try_acquire(t0 + seconds(60)));
  EXPECT_FALSE(bucket.try_acquire(t0 + seconds(60)));

  // burst == 0 with a rate defaults the bucket depth to one second.
  TokenBucket rate_only(QuotaPolicy{3.0, 0.0});
  EXPECT_TRUE(rate_only.try_acquire(t0));
  EXPECT_TRUE(rate_only.try_acquire(t0));
  EXPECT_TRUE(rate_only.try_acquire(t0));
  EXPECT_FALSE(rate_only.try_acquire(t0));

  // Sub-1/s rates mean "one request per 1/rate seconds" — the effective
  // burst clamps to one whole token, never a permanent lockout.
  TokenBucket slow(QuotaPolicy{0.5, 0.0});
  EXPECT_TRUE(slow.try_acquire(t0));
  EXPECT_FALSE(slow.try_acquire(t0 + seconds(1)));  // only half a token
  EXPECT_TRUE(slow.try_acquire(t0 + seconds(2)));

  TokenBucket unlimited;
  EXPECT_TRUE(unlimited.unlimited());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(unlimited.try_acquire(t0));

  TokenBucket reconfigured(QuotaPolicy{1.0, 1.0});
  EXPECT_TRUE(reconfigured.try_acquire(t0));
  EXPECT_FALSE(reconfigured.try_acquire(t0));
  reconfigured.reconfigure(QuotaPolicy{1.0, 1.0});  // restarts full
  EXPECT_TRUE(reconfigured.try_acquire(t0));

  EXPECT_THROW(TokenBucket(QuotaPolicy{-1.0, 0.0}), PreconditionError);
}

TEST(TokenBucket, ContendedAcquireNeverOversellsTheBurst) {
  // Threads race try_acquire at a FROZEN timestamp (no refill can ever
  // land), so the burst is the hard ceiling on total grants no matter
  // how the acquisitions interleave. The ThreadSanitizer CI job runs
  // this to exercise the bucket's internal locking under contention.
  using namespace std::chrono;
  const auto t0 = steady_clock::now();
  constexpr int kBurst = 8;
  TokenBucket bucket(QuotaPolicy{0.001, static_cast<double>(kBurst)});

  std::atomic<int> granted{0};
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
      threads.emplace_back([&bucket, &granted, t0] {
        for (int i = 0; i < 1000; ++i)
          if (bucket.try_acquire(t0)) ++granted;
      });
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(granted.load(), kBurst) << "a frozen clock must sell exactly "
                                       "the burst, never a token more";

  // Concurrent refunds (the QueueFull give-back path) restore capacity
  // but cap at the burst: 16 refunds refill at most kBurst tokens.
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
      threads.emplace_back([&bucket] {
        for (int i = 0; i < 4; ++i) bucket.refund();
      });
    for (auto& th : threads) th.join();
  }
  int regained = 0;
  for (int i = 0; i < 4 * kBurst; ++i)
    if (bucket.try_acquire(t0)) ++regained;
  EXPECT_EQ(regained, kBurst) << "refunds must cap at the burst";
}

// ---------------------------------------------------------------------------
// ServeEngine
// ---------------------------------------------------------------------------

/// Three small venues with distinct geometries and AP counts. Tenants are
/// KNN models (cheap, deterministic) — the registry is model-agnostic.
const std::vector<sim::Scenario>& small_fleet() {
  static const std::vector<sim::Scenario> fleet = [] {
    std::vector<sim::BuildingSpec> specs(3);
    specs[0].name = "venue-a";
    specs[0].num_aps = 20;
    specs[0].path_length_m = 14;
    specs[0].seed = 111;
    specs[1].name = "venue-b";
    specs[1].num_aps = 26;
    specs[1].path_length_m = 18;
    specs[1].seed = 222;
    specs[2].name = "venue-c";
    specs[2].num_aps = 32;
    specs[2].path_length_m = 22;
    specs[2].seed = 333;
    return sim::make_fleet(specs, 4242);
  }();
  return fleet;
}

ReplicaFactory knn_factory(const data::FingerprintDataset& train) {
  return [&train] {
    auto model = std::make_unique<baselines::Knn>(3);
    model->fit(train);
    return model;
  };
}

TenantSpec venue_spec(const sim::Scenario& sc, std::size_t slots = 2) {
  TenantSpec spec;
  spec.factory = knn_factory(sc.train);
  spec.num_aps = sc.train.num_aps();
  spec.anchors = anchor_database_from(sc.train);
  spec.service.num_workers = slots;
  spec.service.max_batch = 8;
  spec.service.queue_capacity = 64;
  return spec;
}

ModelRegistry small_fleet_registry(std::size_t slots_per_tenant = 2) {
  ModelRegistry reg;
  for (const auto& sc : small_fleet())
    reg.register_tenant({sc.building_spec.name, 0, "OP3"},
                        venue_spec(sc, slots_per_tenant));
  reg.set_profile_fallbacks({"OP3"});
  return reg;
}

/// Shorthand for the engine's own blocking wrapper (tests that exercise
/// the typed outcomes call engine.submit directly instead).
EngineSubmission submit_blocking(ServeEngine& engine, const TenantKey& key,
                                 const std::vector<float>& fp) {
  return engine.submit_blocking(key, fp);
}

/// ILocalizer returning a constant label — makes it observable WHICH
/// deployment served a request across a hot reload.
class ConstLocalizer : public baselines::ILocalizer {
 public:
  explicit ConstLocalizer(std::size_t label) : label_(label) {}
  void fit(const data::FingerprintDataset&) override {}
  std::vector<std::size_t> predict(const Tensor& x) override {
    return std::vector<std::size_t>(x.rows(), label_);
  }
  std::string name() const override { return "Const"; }

 private:
  std::size_t label_;
};

/// predict() blocks until the shared gate opens — freezes the pool on
/// demand so queue depth and admission timing are deterministic. The
/// optional `entered` promise fires when the first predict() call starts,
/// so a test can establish "the worker has claimed a batch" before acting.
class GateLocalizer : public baselines::ILocalizer {
 public:
  GateLocalizer(std::shared_future<void> gate, std::size_t label,
                std::promise<void>* entered = nullptr)
      : gate_(std::move(gate)), label_(label), entered_(entered) {}
  void fit(const data::FingerprintDataset&) override {}
  std::vector<std::size_t> predict(const Tensor& x) override {
    if (entered_ != nullptr && !entered_fired_.exchange(true))
      entered_->set_value();
    gate_.wait();
    return std::vector<std::size_t>(x.rows(), label_);
  }
  std::string name() const override { return "Gate"; }

 private:
  std::shared_future<void> gate_;
  std::size_t label_;
  std::promise<void>* entered_;
  std::atomic<bool> entered_fired_{false};
};

/// predict() blocks until the gate opens on the first call made on any
/// replica sharing `first`; every later call returns at once. Pins one
/// worker inside a batch while the tenant's other slots stay usable.
class FirstCallGateLocalizer : public baselines::ILocalizer {
 public:
  FirstCallGateLocalizer(std::shared_future<void> gate,
                         std::shared_ptr<std::atomic<bool>> first,
                         std::promise<void>* entered)
      : gate_(std::move(gate)), first_(std::move(first)), entered_(entered) {}
  void fit(const data::FingerprintDataset&) override {}
  std::vector<std::size_t> predict(const Tensor& x) override {
    if (first_->exchange(false)) {
      entered_->set_value();
      gate_.wait();
    }
    return std::vector<std::size_t>(x.rows(), 7);
  }
  std::string name() const override { return "FirstCallGate"; }

 private:
  std::shared_future<void> gate_;
  std::shared_ptr<std::atomic<bool>> first_;
  std::promise<void>* entered_;
};

constexpr std::size_t kTinyAps = 4;
const std::vector<float>& tiny_fp() {
  static const std::vector<float> fp{0.1F, 0.2F, 0.3F, 0.4F};
  return fp;
}

TenantSpec const_spec(std::size_t label, std::size_t slots = 1) {
  TenantSpec spec;
  spec.factory = [label] { return std::make_unique<ConstLocalizer>(label); };
  spec.num_aps = kTinyAps;
  spec.service.num_workers = slots;
  spec.service.max_batch = 4;
  spec.service.queue_capacity = 8;
  return spec;
}

/// Counter reconciliation, read after shutdown() (nothing queued or in
/// flight): every admission a tenant still counts in `submitted` ended as
/// exactly one of completed / expired / faulted (shed requests already
/// left `submitted`), and the aggregate is the sum over tenants. The
/// counters are spelled out here, independently of the engine's own
/// counter table.
void expect_reconciled(const ServeEngine& engine) {
  const MultiTenantStats s = engine.stats();
  ServiceStats sum;
  std::uint64_t latency_count = 0;
  double batched_items = 0.0;
  for (const TenantStats& t : s.per_tenant) {
    const ServiceStats& c = t.stats;
    EXPECT_EQ(c.submitted, c.completed + c.expired + c.faulted)
        << t.tenant.str() << ": " << c.completed << " completed, "
        << c.expired << " expired, " << c.faulted << " faulted";
    EXPECT_EQ(c.latency.count(), c.completed) << t.tenant.str();
    sum.submitted += c.submitted;
    sum.completed += c.completed;
    sum.over_quota += c.over_quota;
    sum.queue_full += c.queue_full;
    sum.breaker_denied += c.breaker_denied;
    sum.expired += c.expired;
    sum.faulted += c.faulted;
    sum.shed += c.shed;
    sum.cache_hits += c.cache_hits;
    sum.cache_audits += c.cache_audits;
    sum.cache_audit_mismatches += c.cache_audit_mismatches;
    sum.flagged += c.flagged;
    sum.rejected += c.rejected;
    sum.screened += c.screened;
    sum.anchors_scanned += c.anchors_scanned;
    sum.drift_flushes += c.drift_flushes;
    sum.batches += c.batches;
    sum.largest_batch = std::max(sum.largest_batch, c.largest_batch);
    latency_count += c.latency.count();
    batched_items += c.mean_batch_size * static_cast<double>(c.batches);
  }
  const ServiceStats& a = s.aggregate;
  EXPECT_EQ(a.submitted, sum.submitted);
  EXPECT_EQ(a.completed, sum.completed);
  EXPECT_EQ(a.over_quota, sum.over_quota);
  EXPECT_EQ(a.queue_full, sum.queue_full);
  EXPECT_EQ(a.breaker_denied, sum.breaker_denied);
  EXPECT_EQ(a.expired, sum.expired);
  EXPECT_EQ(a.faulted, sum.faulted);
  EXPECT_EQ(a.shed, sum.shed);
  EXPECT_EQ(a.cache_hits, sum.cache_hits);
  EXPECT_EQ(a.cache_audits, sum.cache_audits);
  EXPECT_EQ(a.cache_audit_mismatches, sum.cache_audit_mismatches);
  EXPECT_EQ(a.flagged, sum.flagged);
  EXPECT_EQ(a.rejected, sum.rejected);
  EXPECT_EQ(a.screened, sum.screened);
  EXPECT_EQ(a.anchors_scanned, sum.anchors_scanned);
  EXPECT_EQ(a.drift_flushes, sum.drift_flushes);
  EXPECT_EQ(a.batches, sum.batches);
  EXPECT_EQ(a.largest_batch, sum.largest_batch);
  EXPECT_EQ(a.latency.count(), latency_count);
  EXPECT_NEAR(a.mean_batch_size * static_cast<double>(a.batches),
              batched_items, 1e-9 * (1.0 + batched_items));
}

TEST(Engine, RoutedBitIdenticalToSequentialAcrossHotReload) {
  const auto& fleet = small_fleet();
  // Sequential ground truth: each venue's own model on its own traffic.
  std::vector<std::vector<std::vector<std::size_t>>> expected(fleet.size());
  for (std::size_t v = 0; v < fleet.size(); ++v) {
    baselines::Knn knn(3);
    knn.fit(fleet[v].train);
    for (const auto& test : fleet[v].device_tests)
      expected[v].push_back(knn.predict(test.normalized()));
  }

  ModelRegistry reg = small_fleet_registry();
  EngineConfig cfg;
  cfg.pool_size = 4;  // shared across all three tenants
  ServeEngine engine(reg.publish(), cfg);
  ASSERT_EQ(engine.num_tenants(), 3u);
  EXPECT_EQ(engine.pool_size(), 4u);

  const auto stream = sim::fleet_request_stream(fleet, 300, 99, 0.25);
  struct Sent {
    sim::FleetRequest req;
    EngineSubmission sub;
  };
  std::vector<Sent> sent;
  sent.reserve(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (i == stream.size() / 2) {
      // Mid-stream hot reload of venue-a (same training data, bit-
      // identical weights): in-flight and queued requests must keep
      // resolving to the same predictions as sequential per-tenant
      // predict() — the RCU swap is invisible in the outputs.
      reg.reload_tenant({"venue-a", 0, "OP3"}, venue_spec(fleet[0]));
      engine.deploy(reg.publish());
    }
    const auto& req = stream[i];
    const auto& sc = fleet[req.venue];
    const Tensor x = sc.device_tests[req.device].normalized();
    sent.push_back({req, submit_blocking(engine,
                                         {sc.building_spec.name, 0, "OP3"},
                                         row_of(x, req.row))});
  }
  for (auto& s : sent) {
    EXPECT_EQ(s.sub.admission, Admission::Accepted);
    EXPECT_EQ(s.sub.decision.status, RouteDecision::Status::Exact);
    const ServeResult r = s.sub.result.get();
    EXPECT_TRUE(r.localized);
    EXPECT_EQ(r.rp, expected[s.req.venue][s.req.device][s.req.row])
        << "venue " << s.req.venue << " device " << s.req.device << " row "
        << s.req.row;
  }
  engine.shutdown();
  expect_reconciled(engine);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.route_exact, stream.size());
  EXPECT_EQ(stats.route_fallback, 0u);
  EXPECT_EQ(stats.route_rejected, 0u);
  EXPECT_EQ(stats.deploys, 1u);
  EXPECT_EQ(stats.reload_flushes, 1u);
  EXPECT_EQ(stats.snapshot_epoch, 2u);
  EXPECT_EQ(stats.aggregate.completed, stream.size());
  ASSERT_EQ(stats.per_tenant.size(), 3u);
  std::size_t completed_sum = 0;
  for (std::size_t shard = 0; shard < stats.per_tenant.size(); ++shard) {
    const auto& t = stats.per_tenant[shard];
    completed_sum += t.stats.completed;
    // Screening work is the shard's own anchor count per request — the
    // whole point of sharding the anchor database.
    const std::size_t shard_anchors =
        engine.snapshot()->find(t.tenant)->screen.num_anchors();
    EXPECT_GT(shard_anchors, 0u);
    EXPECT_EQ(t.stats.screened, t.stats.completed);
    EXPECT_EQ(t.stats.anchors_scanned, t.stats.screened * shard_anchors);
  }
  EXPECT_EQ(completed_sum, stream.size());
}

TEST(Engine, FallbackChainAndTypedReject) {
  const auto& fleet = small_fleet();
  ModelRegistry reg = small_fleet_registry(1);
  ServeEngine engine(reg.publish(), EngineConfig{});
  const Tensor x = fleet[0].device_tests[0].normalized();

  // Unknown device profile falls back to the venue's OP3 tenant.
  auto fb = engine.submit({"venue-a", 0, "S7"}, row_of(x, 0));
  EXPECT_EQ(fb.admission, Admission::Accepted);
  EXPECT_EQ(fb.decision.status, RouteDecision::Status::Fallback);
  EXPECT_EQ(fb.decision.resolved, (TenantKey{"venue-a", 0, "OP3"}));
  EXPECT_TRUE(fb.result.get().localized);

  // Unknown building / floor: deterministic typed reject with an
  // already-fulfilled future — never another venue's model.
  for (const TenantKey& bad :
       {TenantKey{"venue-z", 0, "OP3"}, TenantKey{"venue-a", 3, "OP3"}}) {
    auto rej = engine.submit(bad, row_of(x, 0));
    EXPECT_EQ(rej.admission, Admission::Rejected);
    EXPECT_EQ(rej.decision.status, RouteDecision::Status::Reject);
    ASSERT_EQ(rej.result.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const ServeResult r = rej.result.get();
    EXPECT_FALSE(r.localized);
    EXPECT_EQ(r.verdict, Verdict::Reject);
  }

  const auto stats = engine.stats();
  EXPECT_EQ(stats.route_fallback, 1u);
  EXPECT_EQ(stats.route_rejected, 2u);
  // Rejected routes never reach a queue.
  EXPECT_EQ(stats.aggregate.submitted, 1u);
  engine.shutdown();
}

TEST(Engine, TenantLocalThresholdsAndStatsIsolation) {
  const auto& fleet = small_fleet();
  ModelRegistry reg;
  for (std::size_t v = 0; v < 2; ++v) {
    TenantSpec spec = venue_spec(fleet[v], 1);
    if (v == 0) {
      // Tenant-local zero thresholds: venue-a rejects everything off the
      // exact anchor manifold while venue-b keeps accepting.
      spec.service.screening.flag_distance = 0.0;
      spec.service.screening.reject_distance = 0.0;
    }
    reg.register_tenant({fleet[v].building_spec.name, 0, "OP3"},
                        std::move(spec));
  }
  ServeEngine engine(reg.publish(), EngineConfig{});

  const Tensor xa = fleet[0].device_tests[0].normalized();
  const Tensor xb = fleet[1].device_tests[0].normalized();
  for (std::size_t i = 0; i < 10; ++i) {
    auto ra = submit_blocking(engine, {"venue-a", 0, "OP3"}, row_of(xa, i));
    auto rb = submit_blocking(engine, {"venue-b", 0, "OP3"}, row_of(xb, i));
    EXPECT_FALSE(ra.result.get().localized) << "venue-a rejects all";
    EXPECT_TRUE(rb.result.get().localized) << "venue-b accepts";
  }
  engine.shutdown();

  const auto stats = engine.stats();
  ASSERT_EQ(stats.per_tenant.size(), 2u);
  // Tenant order is str()-sorted: venue-a before venue-b.
  EXPECT_EQ(stats.per_tenant[0].tenant.building, "venue-a");
  EXPECT_EQ(stats.per_tenant[0].stats.rejected, 10u);
  EXPECT_EQ(stats.per_tenant[1].stats.rejected, 0u);
  EXPECT_EQ(stats.aggregate.rejected, 10u);
}

TEST(Engine, OverQuotaIsTypedAndCounted) {
  ModelRegistry reg;
  TenantSpec spec = const_spec(7);
  spec.service.quota.rate_per_s = 0.001;  // effectively no refill in-test
  spec.service.quota.burst = 2.0;
  reg.register_tenant({"venue", 0, ""}, std::move(spec));
  EngineConfig cfg;
  cfg.pool_size = 1;
  ServeEngine engine(reg.publish(), cfg);
  const TenantKey key{"venue", 0, ""};

  auto a1 = engine.submit(key, tiny_fp());
  auto a2 = engine.submit(key, tiny_fp());
  EXPECT_EQ(a1.admission, Admission::Accepted);
  EXPECT_EQ(a2.admission, Admission::Accepted);
  auto denied = engine.submit(key, tiny_fp());
  EXPECT_EQ(denied.admission, Admission::OverQuota);
  // The routing still resolved — the denial is admission, not a miss.
  EXPECT_EQ(denied.decision.status, RouteDecision::Status::Exact);
  ASSERT_EQ(denied.result.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_FALSE(denied.result.get().localized);
  // Wait for the accepted pair BEFORE shutdown: with typed-shutdown
  // semantics, still-queued requests would be shed (ServeStatus::ShutDown)
  // and rolled back out of `submitted`.
  EXPECT_EQ(a1.result.get().status, ServeStatus::Served);
  EXPECT_EQ(a2.result.get().status, ServeStatus::Served);
  engine.shutdown();
  expect_reconciled(engine);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.per_tenant[0].stats.over_quota, 1u);
  EXPECT_EQ(stats.per_tenant[0].stats.submitted, 2u);
  EXPECT_EQ(stats.aggregate.over_quota, 1u);
}

TEST(Engine, QueueFullIsTypedAndQuotaStallsAreNotBilledAsLatency) {
  std::promise<void> open_gate;
  GateLocalizer gate(open_gate.get_future().share(), 7);

  ModelRegistry reg;
  TenantSpec spec;
  spec.shared_model = &gate;
  spec.num_aps = kTinyAps;
  spec.service.num_workers = 1;  // one slot, engine serializes on it
  spec.service.max_batch = 1;
  spec.service.queue_capacity = 1;
  // Tiny refill with a 3-token burst: enough for R1..R3's admissions,
  // but only if QueueFull denials REFUND their token (see below).
  spec.service.quota.rate_per_s = 0.001;
  spec.service.quota.burst = 3.0;
  reg.register_tenant({"venue", 0, ""}, std::move(spec));
  EngineConfig cfg;
  cfg.pool_size = 1;
  ServeEngine engine(reg.publish(), cfg);
  const TenantKey key{"venue", 0, ""};

  // R1 admitted and claimed by the (now gate-blocked) worker.
  auto r1 = engine.submit(key, tiny_fp());
  ASSERT_EQ(r1.admission, Admission::Accepted);
  // R2 admitted once R1 leaves the queue; it then occupies the single
  // queue slot for as long as the gate is closed.
  EngineSubmission r2 = submit_blocking(engine, key, tiny_fp());
  ASSERT_EQ(r2.admission, Admission::Accepted);

  // R3 is refused, typed, with a ready future — submit() never blocks.
  auto r3_denied = engine.submit(key, tiny_fp());
  EXPECT_EQ(r3_denied.admission, Admission::QueueFull);
  ASSERT_EQ(r3_denied.result.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_FALSE(r3_denied.result.get().localized);
  // QueueFull must not drain the quota: every denial refunds its token,
  // so repeated refusals stay QueueFull instead of decaying into
  // OverQuota (the bucket has no meaningful refill in this test).
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(engine.submit(key, tiny_fp()).admission, Admission::QueueFull);

  // The client stalls at the door (denied admission) for a while...
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  open_gate.set_value();
  // ...and is eventually admitted. Its latency clock starts at THIS
  // admission, not at the first refused attempt.
  EngineSubmission r3 = submit_blocking(engine, key, tiny_fp());
  ASSERT_EQ(r3.admission, Admission::Accepted);

  const ServeResult res1 = r1.result.get();
  const ServeResult res3 = r3.result.get();
  // R1 was admitted before the stall and served after the gate opened:
  // queueing + inference time IS billed.
  EXPECT_GE(res1.latency_ms, 120.0);
  // R3's pre-admission stall is NOT billed — with the gate open it is
  // served in milliseconds.
  EXPECT_LE(res3.latency_ms, 60.0);
  EXPECT_LT(res3.latency_ms, res1.latency_ms);
  engine.shutdown();
  expect_reconciled(engine);
  EXPECT_GE(engine.stats().per_tenant[0].stats.queue_full, 1u);
}

TEST(Engine, PublishWhileQueueNonEmptyServesQueuedOnNewSnapshot) {
  std::promise<void> open_gate;
  std::promise<void> entered;
  GateLocalizer gate(open_gate.get_future().share(), 7, &entered);

  ModelRegistry reg;
  TenantSpec spec;
  spec.shared_model = &gate;
  spec.num_aps = kTinyAps;
  spec.service.num_workers = 1;
  spec.service.max_batch = 1;
  spec.service.queue_capacity = 8;
  reg.register_tenant({"venue", 0, ""}, std::move(spec));
  EngineConfig cfg;
  cfg.pool_size = 1;
  ServeEngine engine(reg.publish(), cfg);
  const TenantKey key{"venue", 0, ""};

  auto r1 = engine.submit(key, tiny_fp());
  ASSERT_EQ(r1.admission, Admission::Accepted);
  // Wait until the worker has actually claimed R1 (it is blocked inside
  // predict), so R2/R3 are demonstrably QUEUED, not in flight.
  entered.get_future().wait();
  auto r2 = engine.submit(key, tiny_fp());
  ASSERT_EQ(r2.admission, Admission::Accepted);
  auto r3 = engine.submit(key, tiny_fp());
  ASSERT_EQ(r3.admission, Admission::Accepted);

  // Hot reload while the tenant's queue is non-empty: replicas become
  // ConstLocalizer(42).
  reg.reload_tenant(key, const_spec(42));
  engine.deploy(reg.publish());

  open_gate.set_value();
  // In-flight work finishes on the OLD deployment...
  EXPECT_EQ(r1.result.get().rp, 7u);
  // ...queued requests are claimed after the swap and run on the NEW one.
  EXPECT_EQ(r2.result.get().rp, 42u);
  EXPECT_EQ(r3.result.get().rp, 42u);
  engine.shutdown();
  expect_reconciled(engine);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.deploys, 1u);
  EXPECT_EQ(stats.reload_flushes, 1u);
  EXPECT_EQ(stats.per_tenant[0].stats.completed, 3u);
}

// Wake-up policy: requests queued behind one of their tenant's in-flight
// batches wake no worker until a full batch is waiting. That full batch
// wakes the parked worker, which serves it on the tenant's free slot
// while the first batch is still running; a single request queued behind
// the pinned batch is served once that batch finishes.
TEST(Engine, FullBatchBehindAnInFlightBatchWakesAParkedWorker) {
  std::promise<void> open_gate;
  std::promise<void> entered;
  const std::shared_future<void> gate = open_gate.get_future().share();
  const auto first = std::make_shared<std::atomic<bool>>(true);

  ModelRegistry reg;
  TenantSpec spec;
  spec.factory = [&] {
    return std::make_unique<FirstCallGateLocalizer>(gate, first, &entered);
  };
  spec.num_aps = kTinyAps;
  spec.service.num_workers = 2;
  spec.service.max_batch = 4;
  spec.service.queue_capacity = 8;
  reg.register_tenant({"venue", 0, ""}, std::move(spec));
  EngineConfig cfg;
  cfg.pool_size = 2;
  ServeEngine engine(reg.publish(), cfg);
  const TenantKey key{"venue", 0, ""};

  auto pinned = engine.submit(key, tiny_fp());
  ASSERT_EQ(pinned.admission, Admission::Accepted);
  entered.get_future().wait();  // one worker is inside predict()

  // EXPECT only until the gate opens: an early return would leave the
  // pinned worker blocked and hang shutdown.
  std::vector<EngineSubmission> full_batch;
  for (std::size_t i = 0; i < 4; ++i)
    full_batch.push_back(engine.submit(key, tiny_fp()));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (auto& sub : full_batch) {
    EXPECT_EQ(sub.admission, Admission::Accepted);
    EXPECT_EQ(sub.result.wait_until(deadline), std::future_status::ready);
  }
  auto behind = engine.submit(key, tiny_fp());
  EXPECT_EQ(behind.admission, Admission::Accepted);

  open_gate.set_value();
  EXPECT_EQ(pinned.result.get().rp, 7u);
  EXPECT_EQ(behind.result.get().rp, 7u);
  for (auto& sub : full_batch)
    if (sub.result.valid()) EXPECT_EQ(sub.result.get().rp, 7u);
  engine.shutdown();
  expect_reconciled(engine);
  EXPECT_EQ(engine.stats().per_tenant[0].stats.completed, 6u);
}

TEST(Engine, IdenticalRepublishIsNoOpFlushWise) {
  const auto& sc = small_fleet()[0];
  ModelRegistry reg;
  TenantSpec spec = venue_spec(sc, 1);
  spec.service.cache_capacity = 32;
  spec.service.drift.window = 4;
  reg.register_tenant({"venue-a", 0, "OP3"}, std::move(spec));
  ServeEngine engine(reg.publish(), EngineConfig{});
  const TenantKey key{"venue-a", 0, "OP3"};
  const Tensor x = sc.device_tests[0].normalized();

  // Warm the cache and complete a drift window to pin a baseline.
  for (int i = 0; i < 6; ++i)
    submit_blocking(engine, key, row_of(x, 0)).result.get();
  EXPECT_GT(tenant_stats(engine, key).lru_size, 0u);
  const DriftTrend before = tenant_stats(engine, key).drift;
  EXPECT_GE(before.windows_completed, 1u);
  EXPECT_GE(before.baseline_mean, 0.0);

  // Double-publish of an identical catalogue: MUST be a no-op flush-wise.
  engine.deploy(reg.publish());
  EXPECT_TRUE(
      submit_blocking(engine, key, row_of(x, 0)).result.get().from_cache)
      << "identical republish must not flush the tenant cache";
  const DriftTrend after = tenant_stats(engine, key).drift;
  EXPECT_EQ(after.baseline_mean, before.baseline_mean)
      << "identical republish must not reset the drift baseline";
  engine.shutdown();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.deploys, 1u);
  EXPECT_EQ(stats.reload_flushes, 0u);
  EXPECT_EQ(stats.snapshot_epoch, 2u);  // fresh epoch, zero flushes
  // The trend is exported per tenant for operators.
  EXPECT_TRUE(stats.per_tenant[0].drift.enabled);
  EXPECT_EQ(stats.per_tenant[0].drift.baseline_mean, before.baseline_mean);
}

TEST(Engine, ReloadFlushesOnlyTheReloadedTenant) {
  const auto& fleet = small_fleet();
  ModelRegistry reg;
  for (std::size_t v = 0; v < 2; ++v) {
    TenantSpec spec = venue_spec(fleet[v], 1);
    spec.service.cache_capacity = 32;
    spec.service.drift.window = 2;
    reg.register_tenant({fleet[v].building_spec.name, 0, "OP3"},
                        std::move(spec));
  }
  ServeEngine engine(reg.publish(), EngineConfig{});
  const TenantKey ka{"venue-a", 0, "OP3"};
  const TenantKey kb{"venue-b", 0, "OP3"};
  const Tensor xa = fleet[0].device_tests[0].normalized();
  const Tensor xb = fleet[1].device_tests[0].normalized();

  for (int i = 0; i < 2; ++i) {
    submit_blocking(engine, ka, row_of(xa, 0)).result.get();
    submit_blocking(engine, kb, row_of(xb, 0)).result.get();
  }
  EXPECT_GT(tenant_stats(engine, ka).lru_size, 0u);
  EXPECT_GT(tenant_stats(engine, kb).lru_size, 0u);
  // Two requests each complete one drift window: both baselines pinned.
  ASSERT_EQ(tenant_stats(engine, ka).drift.windows_completed, 1u);
  const DriftTrend kb_before = tenant_stats(engine, kb).drift;
  ASSERT_EQ(kb_before.windows_completed, 1u);
  ASSERT_GE(kb_before.baseline_mean, 0.0);

  // Retrain-and-reload venue-a only.
  TenantSpec reloaded = venue_spec(fleet[0], 1);
  reloaded.service.cache_capacity = 32;
  reloaded.service.drift.window = 2;
  reg.reload_tenant(ka, std::move(reloaded));
  engine.deploy(reg.publish());

  // The reloaded tenant's drift trend starts over: the new radio map
  // must pin its own baseline, not be judged against the retired one.
  const DriftTrend ka_after = tenant_stats(engine, ka).drift;
  EXPECT_EQ(ka_after.windows_completed, 0u);
  EXPECT_LT(ka_after.baseline_mean, 0.0);
  EXPECT_EQ(ka_after.partial_n, 0u);
  // The other tenant keeps its pinned baseline.
  const DriftTrend kb_after = tenant_stats(engine, kb).drift;
  EXPECT_EQ(kb_after.windows_completed, kb_before.windows_completed);
  EXPECT_EQ(kb_after.baseline_mean, kb_before.baseline_mean);

  EXPECT_FALSE(
      submit_blocking(engine, ka, row_of(xa, 0)).result.get().from_cache)
      << "reloaded tenant must serve from its flushed (empty) cache";
  EXPECT_TRUE(
      submit_blocking(engine, kb, row_of(xb, 0)).result.get().from_cache)
      << "unreloaded tenant's cache must survive the deploy";
  engine.shutdown();
  EXPECT_EQ(engine.stats().reload_flushes, 1u);
}

TEST(Engine, ReloadOfFallbackTargetMidChain) {
  ModelRegistry reg;
  reg.register_tenant({"venue", 0, "OP3"}, const_spec(7));
  reg.set_profile_fallbacks({"OP3"});
  ServeEngine engine(reg.publish(), EngineConfig{});
  // "S7" has no dedicated model: resolves through the chain to OP3.
  const TenantKey s7{"venue", 0, "S7"};

  auto before = engine.submit(s7, tiny_fp());
  EXPECT_EQ(before.decision.status, RouteDecision::Status::Fallback);
  EXPECT_EQ(before.result.get().rp, 7u);

  // Reload the tenant the chain lands on, mid-fallback: the chain keeps
  // resolving and the NEW model serves.
  reg.reload_tenant({"venue", 0, "OP3"}, const_spec(42));
  engine.deploy(reg.publish());

  auto after = engine.submit(s7, tiny_fp());
  EXPECT_EQ(after.decision.status, RouteDecision::Status::Fallback);
  EXPECT_EQ(after.decision.resolved, (TenantKey{"venue", 0, "OP3"}));
  EXPECT_EQ(after.result.get().rp, 42u);
  engine.shutdown();
}

TEST(Engine, RemovedTenantFailsQueuedAndRejectsNew) {
  std::promise<void> open_gate;
  std::promise<void> entered;
  GateLocalizer gate(open_gate.get_future().share(), 7, &entered);

  ModelRegistry reg;
  TenantSpec doomed;
  doomed.shared_model = &gate;
  doomed.num_aps = kTinyAps;
  doomed.service.num_workers = 1;
  doomed.service.max_batch = 1;
  doomed.service.queue_capacity = 72;
  reg.register_tenant({"doomed", 0, ""}, std::move(doomed));
  reg.register_tenant({"kept", 0, ""}, const_spec(9));
  EngineConfig cfg;
  cfg.pool_size = 1;
  ServeEngine engine(reg.publish(), cfg);
  const TenantKey key{"doomed", 0, ""};

  auto r1 = engine.submit(key, tiny_fp());
  ASSERT_EQ(r1.admission, Admission::Accepted);
  entered.get_future().wait();  // R1 is in flight, not queued
  // Queued behind the gate: many batches' worth, so the deploy must fail
  // the whole queue, not just its head.
  std::vector<EngineSubmission> queued;
  for (int i = 0; i < 70; ++i) {
    queued.push_back(engine.submit(key, tiny_fp()));
    ASSERT_EQ(queued.back().admission, Admission::Accepted);
  }

  reg.remove_tenant(key);
  engine.deploy(reg.publish());

  // Every queued request fails deterministically at the deploy...
  for (EngineSubmission& q : queued) {
    ASSERT_EQ(q.result.wait_for(std::chrono::seconds(2)),
              std::future_status::ready);
    const ServeResult res = q.result.get();
    EXPECT_FALSE(res.localized);
    EXPECT_EQ(res.status, ServeStatus::Dropped);
    EXPECT_EQ(res.verdict, Verdict::Reject);
  }
  // ...new submissions are routing misses...
  EXPECT_EQ(engine.submit(key, tiny_fp()).admission, Admission::Rejected);
  // ...and the in-flight batch still completes on the old deployment.
  open_gate.set_value();
  EXPECT_EQ(r1.result.get().rp, 7u);

  const auto stats = engine.stats();
  ASSERT_EQ(stats.per_tenant.size(), 1u);
  EXPECT_EQ(stats.per_tenant[0].tenant, (TenantKey{"kept", 0, ""}));
  engine.shutdown();
  expect_reconciled(engine);
}

// ---------------------------------------------------------------------------
// Engine vs. registry-level routing agreement
// ---------------------------------------------------------------------------

TEST(Engine, RouteStatusesAgreeWithRegistryRouter) {
  const auto& fleet = small_fleet();
  ModelRegistry reg = small_fleet_registry(1);
  const auto snap = reg.publish();
  EngineConfig cfg;
  cfg.pool_size = 3;
  ServeEngine engine(snap, cfg);
  EXPECT_EQ(engine.num_tenants(), 3u);
  const Tensor x = fleet[0].device_tests[0].normalized();

  auto exact = submit_blocking(engine, {"venue-a", 0, "OP3"}, row_of(x, 0));
  EXPECT_EQ(exact.decision.status, RouteDecision::Status::Exact);
  EXPECT_TRUE(exact.result.get().localized);

  auto fb = submit_blocking(engine, {"venue-a", 0, "S7"}, row_of(x, 1));
  EXPECT_EQ(fb.decision.status, RouteDecision::Status::Fallback);
  EXPECT_TRUE(fb.result.get().localized);

  auto rej = submit_blocking(engine, {"venue-z", 0, "OP3"}, row_of(x, 0));
  EXPECT_EQ(rej.decision.status, RouteDecision::Status::Reject);
  EXPECT_FALSE(rej.result.get().localized);

  // The registry's catalogue resolution and the published snapshot's
  // routing agree with the live engine, decision for decision: all three
  // run resolve_tenant over the same key set.
  const std::pair<const EngineSubmission*, TenantKey> sent[] = {
      {&exact, {"venue-a", 0, "OP3"}},
      {&fb, {"venue-a", 0, "S7"}},
      {&rej, {"venue-z", 0, "OP3"}}};
  for (const auto& [sub, key] : sent) {
    const RouteDecision offline = snap->route(key);
    EXPECT_EQ(offline.status, sub->decision.status) << key.str();
    const auto res = reg.resolve(key);
    if (offline.status == RouteDecision::Status::Reject) {
      EXPECT_EQ(res.kind, ModelRegistry::Resolution::Kind::Miss);
      continue;
    }
    EXPECT_EQ(offline.shard, sub->decision.shard) << key.str();
    EXPECT_EQ(offline.resolved, sub->decision.resolved) << key.str();
    EXPECT_EQ(snap->tenant(offline.shard).key, offline.resolved);
    EXPECT_EQ(res.resolved, offline.resolved) << key.str();
    EXPECT_EQ(res.kind == ModelRegistry::Resolution::Kind::Exact,
              offline.status == RouteDecision::Status::Exact);
  }

  engine.shutdown();
  engine.shutdown();  // idempotent
  const auto stats = engine.stats();
  EXPECT_EQ(stats.route_exact, 1u);
  EXPECT_EQ(stats.route_fallback, 1u);
  EXPECT_EQ(stats.route_rejected, 1u);
  EXPECT_EQ(stats.aggregate.completed, 2u);
}

TEST(Engine, MetricsScrapeRoundTrip) {
  ModelRegistry reg;
  const TenantKey kx{"venue-mx", 0, "OP3"};
  const TenantKey ky{"venue-my", 0, "OP3"};
  reg.register_tenant(kx, const_spec(1));
  reg.register_tenant(ky, const_spec(2));
  reg.set_profile_fallbacks({"OP3"});
  ServeEngine engine(reg.publish(), EngineConfig{});

  for (int i = 0; i < 6; ++i)
    EXPECT_TRUE(
        submit_blocking(engine, kx, tiny_fp()).result.get().localized);
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(
        submit_blocking(engine, ky, tiny_fp()).result.get().localized);
  // Bump the epoch so the exported gauge is distinguishable from the
  // initial snapshot's.
  reg.reload_tenant(kx, const_spec(1));
  engine.deploy(reg.publish());

  const obs::MetricsRegistry m = engine.metrics();
  const auto stats = engine.stats();

  // Registry lookups agree with stats(): per-tenant admission counters,
  // queue depth, the latency histogram, and the deploy epoch.
  const auto* ax =
      m.find("cal_serve_admissions_total",
             {{"tenant", "venue-mx/0:OP3"}, {"outcome", "accepted"}});
  ASSERT_NE(ax, nullptr);
  EXPECT_EQ(ax->value, 6.0);
  const auto* ay =
      m.find("cal_serve_admissions_total",
             {{"tenant", "venue-my/0:OP3"}, {"outcome", "accepted"}});
  ASSERT_NE(ay, nullptr);
  EXPECT_EQ(ay->value, 3.0);
  const auto* oq =
      m.find("cal_serve_admissions_total",
             {{"tenant", "venue-mx/0:OP3"}, {"outcome", "over_quota"}});
  ASSERT_NE(oq, nullptr);
  EXPECT_EQ(oq->value, 0.0);
  const auto* qd =
      m.find("cal_serve_queue_depth", {{"tenant", "venue-my/0:OP3"}});
  ASSERT_NE(qd, nullptr);
  EXPECT_EQ(qd->value, 0.0);  // drained: every submission completed
  const auto* lat =
      m.find("cal_serve_latency_ms", {{"tenant", "venue-mx/0:OP3"}});
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->hist.count(), 6u);
  EXPECT_GE(lat->hist.quantile(0.99), lat->hist.quantile(0.5));
  const auto* ep = m.find("cal_serve_deploy_epoch");
  ASSERT_NE(ep, nullptr);
  EXPECT_EQ(ep->value, static_cast<double>(stats.snapshot_epoch));
  EXPECT_EQ(ep->value, 2.0);

  // The Prometheus text exposition carries the same figures.
  const std::string text = m.prometheus_text();
  const auto npos = std::string::npos;
  EXPECT_NE(text.find("# TYPE cal_serve_admissions_total counter\n"), npos);
  EXPECT_NE(text.find("cal_serve_admissions_total{tenant=\"venue-mx/0:OP3\","
                      "outcome=\"accepted\"} 6\n"),
            npos);
  EXPECT_NE(
      text.find("cal_serve_latency_ms_count{tenant=\"venue-mx/0:OP3\"} 6\n"),
      npos);
  EXPECT_NE(text.find("cal_serve_latency_ms_bucket{tenant=\"venue-mx/0:OP3\","
                      "le=\"+Inf\"} 6\n"),
            npos);
  EXPECT_NE(text.find("cal_serve_deploy_epoch 2\n"), npos);
  EXPECT_NE(text.find("cal_serve_deploys_total 1\n"), npos);

  // And the JSON export, with convenience percentiles on histograms.
  const std::string json = m.json();
  EXPECT_NE(json.find("\"name\":\"cal_serve_admissions_total\""), npos);
  EXPECT_NE(json.find("\"tenant\":\"venue-mx/0:OP3\""), npos);
  EXPECT_NE(json.find("\"name\":\"cal_serve_latency_ms\""), npos);
  EXPECT_NE(json.find("\"p99\":"), npos);
  EXPECT_NE(json.find("\"name\":\"cal_serve_deploy_epoch\""), npos);
  engine.shutdown();
}

TEST(Engine, MetricsFamiliesGolden) {
  // Two tenants with every optional per-tenant family switched on: cache,
  // drift, quota and breaker. The golden pins each family's type and
  // help text, and the label set and sample count of each series.
  const auto& fleet = small_fleet();
  ModelRegistry reg;
  for (std::size_t v = 0; v < 2; ++v) {
    TenantSpec spec = venue_spec(fleet[v], 1);
    spec.service.cache_capacity = 16;
    spec.service.drift.window = 2;
    spec.service.quota.rate_per_s = 0.001;
    spec.service.quota.burst = 4.0;
    spec.service.breaker.fault_threshold = 3;
    reg.register_tenant({fleet[v].building_spec.name, 0, "OP3"},
                        std::move(spec));
  }
  reg.set_profile_fallbacks({"OP3"});
  ServeEngine engine(reg.publish(), EngineConfig{});
  for (std::size_t v = 0; v < 2; ++v) {
    const TenantKey key{fleet[v].building_spec.name, 0, "OP3"};
    const Tensor x = fleet[v].device_tests[0].normalized();
    for (std::size_t i = 0; i < 5; ++i) {
      auto sub = engine.submit(key, row_of(x, i % 2));
      if (sub.admission == Admission::Accepted) sub.result.get();
    }
  }
  engine.shutdown();
  expect_reconciled(engine);

  const obs::MetricsRegistry m = engine.metrics();
  std::map<std::string, std::string> families;  // name -> "type | help"
  std::map<std::string, int> series;  // "name key[=value]..." -> samples
  for (const obs::MetricFamily& f : m.families()) {
    families[f.name] = std::string(obs::to_string(f.type)) + " | " + f.help;
    for (const obs::MetricSample& smp : f.samples) {
      std::string id = f.name;
      for (const obs::MetricLabel& l : smp.labels)
        id += " " + (l.key == "tenant" ? l.key : l.key + "=" + l.value);
      ++series[id];
    }
  }
  const std::map<std::string, std::string> want_families = {
      {"cal_serve_admissions_total",
       "counter | Admission outcomes at the engine front door"},
      {"cal_serve_expired_total",
       "counter | Requests shed past their deadline"},
      {"cal_serve_faulted_total",
       "counter | Requests failed by replica faults"},
      {"cal_serve_shed_total",
       "counter | Queued requests terminated unserved (tenant removed / "
       "shutdown)"},
      {"cal_serve_breaker_state",
       "gauge | Circuit-breaker state: 0 closed, 1 open, 2 half-open"},
      {"cal_serve_breaker_opens_total",
       "counter | Circuit-breaker open + reopen transitions"},
      {"cal_serve_breaker_closes_total",
       "counter | Circuit-breaker half-open -> closed recoveries"},
      {"cal_serve_completed_total",
       "counter | Requests fulfilled, any verdict"},
      {"cal_serve_verdicts_total",
       "counter | Screening verdicts on completed requests"},
      {"cal_serve_cache_hits_total",
       "counter | Requests served from the fingerprint LRU"},
      {"cal_serve_cache_audits_total",
       "counter | Cache hits re-inferred for verification"},
      {"cal_serve_cache_audit_mismatches_total",
       "counter | Audited cache hits that disagreed with the model"},
      {"cal_serve_drift_flushes_total",
       "counter | Cache flushes forced by the drift trend"},
      {"cal_serve_batches_total",
       "counter | Micro-batches drained by pool workers"},
      {"cal_serve_screened_total",
       "counter | Requests that ran the anchor screen"},
      {"cal_serve_latency_ms",
       "histogram | Request latency (admission to fulfilment), ms"},
      {"cal_serve_queue_depth",
       "gauge | Requests waiting in the tenant sub-queue"},
      {"cal_serve_queue_capacity", "gauge | Bounded sub-queue capacity"},
      {"cal_serve_lru_hit_ratio", "gauge | LRU hits over lookups, lifetime"},
      {"cal_serve_lru_size", "gauge | Entries in the fingerprint LRU"},
      {"cal_serve_replica_slots",
       "gauge | Replica slots (max concurrent batches)"},
      {"cal_serve_replica_slots_busy",
       "gauge | Replica slots currently checked out"},
      {"cal_serve_replica_slots_quarantined",
       "gauge | Replica slots retired from rotation by faults"},
      {"cal_serve_weight_bytes",
       "gauge | Resident model weight bytes across replica slots"},
      {"cal_serve_precision_int8",
       "gauge | 1 when this tenant serves int8-quantized replicas"},
      {"cal_serve_drift_baseline_mean",
       "gauge | Pinned drift baseline window mean (-1 while pinning)"},
      {"cal_serve_drift_last_window_mean",
       "gauge | Most recent completed drift window mean (-1 before one)"},
      {"cal_serve_deploy_epoch",
       "gauge | Epoch of the live deployment snapshot"},
      {"cal_serve_tenants", "gauge | Deployed tenants"},
      {"cal_serve_route_total", "counter | Routing outcomes"},
      {"cal_serve_deploys_total",
       "counter | deploy() calls since engine construction"},
      {"cal_serve_reload_flushes_total",
       "counter | Tenant reloads that flushed cache and drift state"},
      {"cal_serve_pool_size", "gauge | Shared worker threads"},
      {"cal_gemm_parallel_total",
       "counter | GEMMs dispatched through the kernel pool"},
      {"cal_gemm_serial_fallbacks_total",
       "counter | Pool-eligible GEMMs that ran serial (pool busy)"},
      {"cal_gemm_pool_tasks_total",
       "counter | Row-block tasks executed by the kernel pool"},
      {"cal_gemm_pool_task_ms",
       "histogram | Kernel-pool row-block task wall time, ms"},
      {"cal_trace_events_total",
       "counter | Trace events recorded, all threads"},
      {"cal_trace_dropped_total",
       "counter | Trace events overwritten before any snapshot read them"},
      {"cal_trace_threads", "gauge | Threads with a trace ring"},
      {"cal_trace_enabled",
       "gauge | 1 when tracing is compiled in and runtime-enabled"},
      {"cal_flight_trips_total", "counter | Flight-recorder anomaly trips"},
      {"cal_flight_dumps_total",
       "counter | Flight-recorder dumps taken (trips minus rate-limited)"},
  };
  EXPECT_EQ(want_families.size(), 43u);
  EXPECT_EQ(families, want_families);
  const std::map<std::string, int> want_series = {
      {"cal_serve_admissions_total tenant outcome=accepted", 2},
      {"cal_serve_admissions_total tenant outcome=over_quota", 2},
      {"cal_serve_admissions_total tenant outcome=queue_full", 2},
      {"cal_serve_admissions_total tenant outcome=breaker_open", 2},
      {"cal_serve_expired_total tenant", 2},
      {"cal_serve_faulted_total tenant", 2},
      {"cal_serve_shed_total tenant", 2},
      {"cal_serve_breaker_state tenant", 2},
      {"cal_serve_breaker_opens_total tenant", 2},
      {"cal_serve_breaker_closes_total tenant", 2},
      {"cal_serve_completed_total tenant", 2},
      {"cal_serve_verdicts_total tenant verdict=flagged", 2},
      {"cal_serve_verdicts_total tenant verdict=rejected", 2},
      {"cal_serve_cache_hits_total tenant", 2},
      {"cal_serve_cache_audits_total tenant", 2},
      {"cal_serve_cache_audit_mismatches_total tenant", 2},
      {"cal_serve_drift_flushes_total tenant", 2},
      {"cal_serve_batches_total tenant", 2},
      {"cal_serve_screened_total tenant", 2},
      {"cal_serve_latency_ms tenant", 2},
      {"cal_serve_queue_depth tenant", 2},
      {"cal_serve_queue_capacity tenant", 2},
      {"cal_serve_lru_hit_ratio tenant", 2},
      {"cal_serve_lru_size tenant", 2},
      {"cal_serve_replica_slots tenant", 2},
      {"cal_serve_replica_slots_busy tenant", 2},
      {"cal_serve_replica_slots_quarantined tenant", 2},
      {"cal_serve_weight_bytes tenant", 2},
      {"cal_serve_precision_int8 tenant", 2},
      {"cal_serve_drift_baseline_mean tenant", 2},
      {"cal_serve_drift_last_window_mean tenant", 2},
      {"cal_serve_deploy_epoch", 1},
      {"cal_serve_tenants", 1},
      {"cal_serve_route_total status=exact", 1},
      {"cal_serve_route_total status=fallback", 1},
      {"cal_serve_route_total status=rejected", 1},
      {"cal_serve_deploys_total", 1},
      {"cal_serve_reload_flushes_total", 1},
      {"cal_serve_pool_size", 1},
      {"cal_gemm_parallel_total", 1},
      {"cal_gemm_serial_fallbacks_total", 1},
      {"cal_gemm_pool_tasks_total", 1},
      {"cal_gemm_pool_task_ms", 1},
      {"cal_trace_events_total", 1},
      {"cal_trace_dropped_total", 1},
      {"cal_trace_threads", 1},
      {"cal_trace_enabled", 1},
      {"cal_flight_trips_total", 1},
      {"cal_flight_dumps_total", 1},
  };
  EXPECT_EQ(series, want_series);

  // Every per-tenant counter sample carries its stats() figure.
  const struct {
    const char* family;
    obs::MetricLabel label;
    std::size_t ServiceStats::*field;
  } counters[] = {
      {"cal_serve_admissions_total", {"outcome", "accepted"},
       &ServiceStats::submitted},
      {"cal_serve_admissions_total", {"outcome", "over_quota"},
       &ServiceStats::over_quota},
      {"cal_serve_admissions_total", {"outcome", "queue_full"},
       &ServiceStats::queue_full},
      {"cal_serve_admissions_total", {"outcome", "breaker_open"},
       &ServiceStats::breaker_denied},
      {"cal_serve_expired_total", {}, &ServiceStats::expired},
      {"cal_serve_faulted_total", {}, &ServiceStats::faulted},
      {"cal_serve_shed_total", {}, &ServiceStats::shed},
      {"cal_serve_completed_total", {}, &ServiceStats::completed},
      {"cal_serve_verdicts_total", {"verdict", "flagged"},
       &ServiceStats::flagged},
      {"cal_serve_verdicts_total", {"verdict", "rejected"},
       &ServiceStats::rejected},
      {"cal_serve_cache_hits_total", {}, &ServiceStats::cache_hits},
      {"cal_serve_cache_audits_total", {}, &ServiceStats::cache_audits},
      {"cal_serve_cache_audit_mismatches_total", {},
       &ServiceStats::cache_audit_mismatches},
      {"cal_serve_drift_flushes_total", {}, &ServiceStats::drift_flushes},
      {"cal_serve_batches_total", {}, &ServiceStats::batches},
      {"cal_serve_screened_total", {}, &ServiceStats::screened},
  };
  const MultiTenantStats stats = engine.stats();
  for (const TenantStats& t : stats.per_tenant) {
    EXPECT_EQ(t.stats.submitted, 4u) << "burst 4 of 5 sends";
    EXPECT_EQ(t.stats.over_quota, 1u);
    EXPECT_GE(t.stats.cache_hits, 1u);
    for (const auto& c : counters) {
      std::vector<obs::MetricLabel> labels{{"tenant", t.tenant.str()}};
      if (!c.label.key.empty()) labels.push_back(c.label);
      const obs::MetricSample* sample = m.find(c.family, labels);
      ASSERT_NE(sample, nullptr) << c.family;
      EXPECT_EQ(sample->value, static_cast<double>(t.stats.*c.field))
          << c.family << " " << c.label.value << " " << t.tenant.str();
    }
  }
}

TEST(Engine, StatsCarriesTheLiveGaugesMetricsExports) {
  // metrics() encodes stats(): the queue, LRU and replica-slot gauges are
  // TenantStats fields, read mid-flight and after the drain.
  std::promise<void> open_gate;
  std::promise<void> entered;
  GateLocalizer gate(open_gate.get_future().share(), 7, &entered);
  ModelRegistry reg;
  TenantSpec spec;
  spec.shared_model = &gate;
  spec.num_aps = kTinyAps;
  spec.service.num_workers = 1;
  spec.service.max_batch = 1;
  spec.service.queue_capacity = 8;
  spec.service.cache_capacity = 4;
  const TenantKey key{"venue-gg", 0, ""};
  reg.register_tenant(key, std::move(spec));
  EngineConfig cfg;
  cfg.pool_size = 1;
  ServeEngine engine(reg.publish(), cfg);
  const auto gauge = [](const obs::MetricsRegistry& m, const char* name) {
    const obs::MetricSample* sample =
        m.find(name, {{"tenant", "venue-gg/0:*"}});
    return sample != nullptr ? sample->value : -1.0;
  };

  auto r1 = engine.submit(key, tiny_fp());
  ASSERT_EQ(r1.admission, Admission::Accepted);
  entered.get_future().wait();  // R1 missed the LRU and holds the slot
  auto r2 = engine.submit(key, tiny_fp());  // queued behind it
  ASSERT_EQ(r2.admission, Admission::Accepted);
  const TenantStats live = engine.stats().per_tenant.at(0);
  EXPECT_EQ(live.queue_depth, 1u);
  EXPECT_EQ(live.queue_capacity, 8u);
  EXPECT_EQ(live.slots, 1u);
  EXPECT_EQ(live.busy_slots, 1u);
  EXPECT_EQ(live.lru_hits, 0u);
  EXPECT_EQ(live.lru_misses, 1u);
  EXPECT_EQ(live.lru_size, 0u);
  EXPECT_EQ(live.precision, Precision::Fp32);
  const obs::MetricsRegistry mid = engine.metrics();
  EXPECT_EQ(gauge(mid, "cal_serve_queue_depth"), 1.0);
  EXPECT_EQ(gauge(mid, "cal_serve_queue_capacity"), 8.0);
  EXPECT_EQ(gauge(mid, "cal_serve_replica_slots"), 1.0);
  EXPECT_EQ(gauge(mid, "cal_serve_replica_slots_busy"), 1.0);
  EXPECT_EQ(gauge(mid, "cal_serve_lru_hit_ratio"), 0.0);

  open_gate.set_value();
  EXPECT_FALSE(r1.result.get().from_cache);
  EXPECT_TRUE(r2.result.get().from_cache);
  engine.shutdown();
  expect_reconciled(engine);
  const TenantStats done = engine.stats().per_tenant.at(0);
  EXPECT_EQ(done.queue_depth, 0u);
  EXPECT_EQ(done.busy_slots, 0u);
  EXPECT_EQ(done.lru_hits, 1u);
  EXPECT_EQ(done.lru_misses, 1u);
  EXPECT_EQ(done.lru_size, 1u);
  EXPECT_EQ(done.weight_bytes, 0u);  // GateLocalizer reports no footprint
  const obs::MetricsRegistry end = engine.metrics();
  EXPECT_EQ(gauge(end, "cal_serve_queue_depth"), 0.0);
  EXPECT_EQ(gauge(end, "cal_serve_replica_slots_busy"), 0.0);
  EXPECT_EQ(gauge(end, "cal_serve_lru_size"), 1.0);
  EXPECT_EQ(gauge(end, "cal_serve_lru_hit_ratio"), 0.5);
  EXPECT_EQ(gauge(end, "cal_serve_weight_bytes"), 0.0);
  EXPECT_EQ(gauge(end, "cal_serve_precision_int8"), 0.0);
}

TEST(Engine, MixedPrecisionTenantsCoexist) {
  // One venue served twice: an fp32 tenant and an int8 tenant built from
  // the SAME trained artefact (precision = Int8 quantizes each replica at
  // publish()). The int8 lane must not perturb the fp32 lane: routing,
  // screening, and bit-identity with sequential fp32 predict all hold,
  // while the int8 tenant serves its own (deterministic) quantized
  // predictions at a fraction of the resident weight bytes.
  const auto& sc = scenario();
  const Tensor anchors = anchor_database_from(sc.train);
  const TenantKey kf{"venue-mp", 0, "fp32"};
  const TenantKey kq{"venue-mp", 0, "int8"};

  ModelRegistry reg;
  {
    TenantSpec spec;
    spec.factory = calloc_factory();
    spec.num_aps = sc.train.num_aps();
    spec.anchors = anchors;
    spec.service.num_workers = 2;
    spec.service.max_batch = 8;
    spec.service.queue_capacity = 64;
    reg.register_tenant(kf, std::move(spec));
  }
  {
    TenantSpec spec;
    spec.factory = calloc_factory();
    spec.num_aps = sc.train.num_aps();
    spec.anchors = anchors;
    spec.service.num_workers = 2;
    spec.service.max_batch = 8;
    spec.service.queue_capacity = 64;
    spec.precision = Precision::Int8;
    reg.register_tenant(kq, std::move(spec));
  }
  ServeEngine engine(reg.publish(), EngineConfig{});
  ASSERT_EQ(engine.num_tenants(), 2u);

  // Sequential ground truths from fresh replicas of the same artefact.
  const Tensor x = sc.device_tests.front().normalized();
  auto fp32_ref = calloc_factory()();
  const std::vector<std::size_t> want_f = fp32_ref->predict(x);
  auto int8_ref = fp32_ref->quantize_int8();
  ASSERT_NE(int8_ref, nullptr);
  const std::vector<std::size_t> want_q = int8_ref->predict(x);
  // The quantized copy is ~4x smaller and must say so itself.
  ASSERT_GT(fp32_ref->weight_bytes(), 0u);
  EXPECT_LT(int8_ref->weight_bytes(), fp32_ref->weight_bytes() / 2);

  const std::size_t rows = std::min<std::size_t>(x.rows(), 48);
  std::vector<EngineSubmission> sub_f, sub_q;
  for (std::size_t r = 0; r < rows; ++r) {
    sub_f.push_back(submit_blocking(engine, kf, row_of(x, r)));
    sub_q.push_back(submit_blocking(engine, kq, row_of(x, r)));
  }
  std::size_t agree = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_EQ(sub_f[r].decision.status, RouteDecision::Status::Exact);
    EXPECT_EQ(sub_q[r].decision.status, RouteDecision::Status::Exact);
    const ServeResult rf = sub_f[r].result.get();
    const ServeResult rq = sub_q[r].result.get();
    ASSERT_TRUE(rf.localized);
    ASSERT_TRUE(rq.localized);
    // fp32 lane: bit-identical to sequential predict, int8 neighbour or
    // not. int8 lane: identical to the sequentially quantized replica
    // (the int8 kernels are exact, so this is deterministic too).
    EXPECT_EQ(rf.rp, want_f[r]) << "fp32 tenant perturbed at row " << r;
    EXPECT_EQ(rq.rp, want_q[r]) << "int8 tenant diverged at row " << r;
    agree += static_cast<std::size_t>(want_f[r] == want_q[r]);
  }
  // Quantization keeps predictions overwhelmingly aligned with fp32.
  EXPECT_GE(agree * 10, rows * 9)
      << "int8 agreed with fp32 on only " << agree << "/" << rows;

  // Both lanes screened their traffic against the shared anchor shard.
  engine.shutdown();
  const auto stats = engine.stats();
  for (const auto& t : stats.per_tenant) {
    EXPECT_EQ(t.stats.completed, rows);
    EXPECT_EQ(t.stats.screened, rows);
  }

  // Precision and resident-weight gauges, straight from the snapshot.
  const obs::MetricsRegistry m = engine.metrics();
  const auto* pf =
      m.find("cal_serve_precision_int8", {{"tenant", kf.str()}});
  const auto* pq =
      m.find("cal_serve_precision_int8", {{"tenant", kq.str()}});
  ASSERT_NE(pf, nullptr);
  ASSERT_NE(pq, nullptr);
  EXPECT_EQ(pf->value, 0.0);
  EXPECT_EQ(pq->value, 1.0);
  const auto* wf = m.find("cal_serve_weight_bytes", {{"tenant", kf.str()}});
  const auto* wq = m.find("cal_serve_weight_bytes", {{"tenant", kq.str()}});
  ASSERT_NE(wf, nullptr);
  ASSERT_NE(wq, nullptr);
  EXPECT_GT(wf->value, 0.0);
  EXPECT_GT(wq->value, 0.0);
  EXPECT_LT(wq->value, wf->value / 2);
  const std::string text = m.prometheus_text();
  EXPECT_NE(text.find("cal_serve_precision_int8{tenant=\"venue-mp/0:int8\"}"
                      " 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("cal_serve_weight_bytes{tenant=\"venue-mp/0:fp32\"}"),
            std::string::npos);
}

TEST(Registry, Int8PrecisionRequiresAFactory) {
  // Borrowed shared models cannot be swapped for quantized copies — the
  // registry must refuse the combination at registration time.
  ConstLocalizer shared(1);
  TenantSpec spec;
  spec.shared_model = &shared;
  spec.num_aps = kTinyAps;
  spec.service.num_workers = 1;
  spec.precision = Precision::Int8;
  ModelRegistry reg;
  EXPECT_THROW(reg.register_tenant({"venue-q", 0, ""}, std::move(spec)),
               PreconditionError);
  // And a factory whose models lack a quantized path fails at publish().
  TenantSpec no_path = const_spec(1);
  no_path.precision = Precision::Int8;
  reg.register_tenant({"venue-q", 0, ""}, std::move(no_path));
  EXPECT_THROW(reg.publish(), PreconditionError);
}

TEST(Engine, FlightRecorderTimelineSpansDeploy) {
  if (!obs::kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  obs::Tracer::instance().set_enabled(true);

  // A venue name no other test uses: the tracer is process-wide, so the
  // tenant hash is this test's filter on shared rings.
  ModelRegistry reg;
  const TenantKey key{"venue-fr", 0, "OP3"};
  reg.register_tenant(key, const_spec(1));
  reg.set_profile_fallbacks({"OP3"});
  EngineConfig cfg;
  cfg.obs.trip_on_deploy = true;
  cfg.obs.recorder.last_n = 0;  // capture whole rings
  ServeEngine engine(reg.publish(), cfg);

  // Distinct fingerprints per request keep every request on the
  // Predict path (no LRU hits), so each one has a full timeline.
  const auto fp_of = [](int i) {
    std::vector<float> fp(kTinyAps);
    for (std::size_t a = 0; a < kTinyAps; ++a)
      fp[a] = 0.01F * static_cast<float>(i) + 0.1F * static_cast<float>(a);
    return fp;
  };
  int next_fp = 0;
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(
        submit_blocking(engine, key, fp_of(next_fp++)).result.get().rp, 1u);

  reg.reload_tenant(key, const_spec(2));
  engine.deploy(reg.publish());  // trip_on_deploy captures here

  ASSERT_GE(engine.flight_recorder().trips(), 1u);
  ASSERT_GE(engine.flight_recorder().dumps(), 1u);
  ASSERT_TRUE(engine.flight_recorder().last_dump().has_value());
  EXPECT_EQ(engine.flight_recorder().last_dump()->reason, "deploy");

  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(
        submit_blocking(engine, key, fp_of(next_fp++)).result.get().rp, 2u);
  engine.shutdown();

  // A second capture now holds the full two-epoch history (rings retain
  // finished worker threads' events).
  ASSERT_TRUE(engine.flight_recorder().trip("test_capture"));
  const obs::FlightDump dump = *engine.flight_recorder().last_dump();

  const std::uint64_t tenant = TenantKeyHash{}(key);
  bool saw_deploy_marker = false;
  std::map<std::uint64_t, std::set<int>> types_by_epoch;
  std::set<std::uint64_t> claimed_batches;
  std::set<std::uint64_t> completed_batches;
  for (const obs::ThreadTrace& t : dump.threads) {
    // Within one thread the ring is ordered oldest -> newest.
    for (std::size_t i = 1; i < t.events.size(); ++i)
      EXPECT_LE(t.events[i - 1].ts_ns, t.events[i].ts_ns);
    for (const obs::TraceEvent& ev : t.events) {
      if (ev.type == obs::EventType::Deploy && ev.epoch == 2)
        saw_deploy_marker = true;
      if (ev.tenant != tenant) continue;
      types_by_epoch[ev.epoch].insert(static_cast<int>(ev.type));
      if (ev.type == obs::EventType::BatchClaim)
        claimed_batches.insert(ev.batch);
      if (ev.type == obs::EventType::Complete) {
        EXPECT_NE(ev.batch, 0u) << "completion outside any batch";
        completed_batches.insert(ev.batch);
      }
    }
  }
  EXPECT_TRUE(saw_deploy_marker) << "deploy() must leave a Deploy event";

  // Both epochs show the full request lifecycle for this tenant: the
  // timeline is coherent across the mid-stream deploy.
  for (const std::uint64_t epoch : {std::uint64_t{1}, std::uint64_t{2}}) {
    ASSERT_TRUE(types_by_epoch.count(epoch)) << "no events in epoch "
                                             << epoch;
    const std::set<int>& seen = types_by_epoch[epoch];
    for (const obs::EventType want :
         {obs::EventType::Admit, obs::EventType::Enqueue,
          obs::EventType::BatchClaim, obs::EventType::ReplicaCheckout,
          obs::EventType::Predict, obs::EventType::Complete}) {
      EXPECT_TRUE(seen.count(static_cast<int>(want)))
          << "epoch " << epoch << " missing "
          << obs::to_string(want);
    }
  }
  // Every completed batch id traces back to a claim event.
  for (const std::uint64_t b : completed_batches)
    EXPECT_TRUE(claimed_batches.count(b))
        << "Complete in batch " << b << " without a BatchClaim";
}

// ---------------------------------------------------------------------------
// Fault containment: deadlines, quarantine, circuit breaker, shutdown
// ---------------------------------------------------------------------------

/// ILocalizer whose predict() always throws — a permanently broken
/// replica, for quarantine and breaker tests.
class ThrowingLocalizer : public baselines::ILocalizer {
 public:
  void fit(const data::FingerprintDataset&) override {}
  std::vector<std::size_t> predict(const Tensor&) override {
    throw std::runtime_error("replica is broken");
  }
  std::string name() const override { return "Throwing"; }
};

/// ILocalizer that throws while the shared `broken` flag is set and
/// serves a constant label once it clears — for breaker recovery tests.
class FlakyLocalizer : public baselines::ILocalizer {
 public:
  FlakyLocalizer(std::shared_ptr<std::atomic<bool>> broken,
                 std::size_t label)
      : broken_(std::move(broken)), label_(label) {}
  void fit(const data::FingerprintDataset&) override {}
  std::vector<std::size_t> predict(const Tensor& x) override {
    if (broken_->load()) throw std::runtime_error("transient outage");
    return std::vector<std::size_t>(x.rows(), label_);
  }
  std::string name() const override { return "Flaky"; }

 private:
  std::shared_ptr<std::atomic<bool>> broken_;
  std::size_t label_;
};

/// KNN-backed localizer that throws whenever the batch contains the
/// poison fingerprint — the batched pass faults, single healthy rows
/// serve, so the engine's per-row containment retry is observable. The
/// gate freezes the first predict() so a test can stage a mixed batch.
class PoisonGateLocalizer : public baselines::ILocalizer {
 public:
  PoisonGateLocalizer(std::shared_future<void> gate,
                      std::vector<float> poison,
                      const data::FingerprintDataset& train,
                      std::promise<void>* entered = nullptr)
      : gate_(std::move(gate)),
        poison_(std::move(poison)),
        inner_(3),
        entered_(entered) {
    inner_.fit(train);
  }
  void fit(const data::FingerprintDataset&) override {}
  std::vector<std::size_t> predict(const Tensor& x) override {
    if (entered_ != nullptr && !entered_fired_.exchange(true))
      entered_->set_value();
    gate_.wait();
    for (std::size_t r = 0; r < x.rows(); ++r) {
      const auto row = x.row(r);
      if (row.size() == poison_.size() &&
          std::equal(row.begin(), row.end(), poison_.begin()))
        throw std::runtime_error("poison fingerprint");
    }
    return inner_.predict(x);
  }
  std::string name() const override { return "PoisonGate"; }

 private:
  std::shared_future<void> gate_;
  std::vector<float> poison_;
  baselines::Knn inner_;
  std::promise<void>* entered_;
  std::atomic<bool> entered_fired_{false};
};

Tensor one_row(const std::vector<float>& fp) {
  Tensor x({std::size_t{1}, fp.size()});
  std::copy(fp.begin(), fp.end(), x.data());
  return x;
}

/// Poll stats() until `done` or the timeout: promises resolve BEFORE the
/// worker feeds the breaker / bumps trip counters, so tests must wait for
/// post-fulfilment state instead of assuming it after future.get().
template <typename Pred>
bool poll_stats(ServeEngine& engine, Pred done,
                std::chrono::milliseconds timeout =
                    std::chrono::milliseconds(5000)) {
  const auto give_up = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < give_up) {
    if (done(engine.stats())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done(engine.stats());
}

TEST(Engine, DeadlineExpiredRequestsShedAtDequeue) {
  std::promise<void> open_gate;
  std::promise<void> entered;
  GateLocalizer gate(open_gate.get_future().share(), 7, &entered);
  ModelRegistry reg;
  TenantSpec spec;
  spec.shared_model = &gate;
  spec.num_aps = kTinyAps;
  spec.service.num_workers = 1;
  spec.service.max_batch = 1;
  spec.service.queue_capacity = 8;
  const TenantKey key{"venue-dl", 0, ""};
  reg.register_tenant(key, std::move(spec));
  EngineConfig cfg;
  cfg.pool_size = 1;
  ServeEngine engine(reg.publish(), cfg);

  // R1 (no deadline) parks the only worker inside predict(), so the next
  // two requests sit in the queue until the gate opens.
  auto r1 = engine.submit(key, tiny_fp());
  ASSERT_EQ(r1.admission, Admission::Accepted);
  entered.get_future().wait();

  const auto now = std::chrono::steady_clock::now();
  auto late = engine.submit(key, tiny_fp(), now - std::chrono::minutes(1));
  ASSERT_EQ(late.admission, Admission::Accepted)
      << "admission is not deadline-checked";
  auto live = engine.submit(key, tiny_fp(), now + std::chrono::hours(1));
  ASSERT_EQ(live.admission, Admission::Accepted);

  open_gate.set_value();
  EXPECT_EQ(r1.result.get().status, ServeStatus::Served);
  const ServeResult expired = late.result.get();
  EXPECT_EQ(expired.status, ServeStatus::Expired);
  EXPECT_FALSE(expired.localized);
  EXPECT_EQ(expired.verdict, Verdict::Accept)
      << "expiry is a latency outcome, not a screening one";
  const ServeResult served = live.result.get();
  EXPECT_EQ(served.status, ServeStatus::Served);
  EXPECT_EQ(served.rp, 7u);
  engine.shutdown();
  expect_reconciled(engine);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.per_tenant[0].stats.submitted, 3u);
  EXPECT_EQ(stats.per_tenant[0].stats.expired, 1u);
  EXPECT_EQ(stats.per_tenant[0].stats.completed, 2u)
      << "an expired request must not enter the latency population";
  EXPECT_EQ(stats.aggregate.expired, 1u);
}

TEST(Engine, ReplicaFaultQuarantinesSlotsAndHealsOnDeploy) {
  ModelRegistry reg;
  TenantSpec spec;
  spec.factory = [] { return std::make_unique<ThrowingLocalizer>(); };
  spec.num_aps = kTinyAps;
  spec.service.num_workers = 2;
  spec.service.max_batch = 4;
  spec.service.queue_capacity = 8;
  const TenantKey key{"venue-qr", 0, ""};
  reg.register_tenant(key, std::move(spec));
  EngineConfig cfg;
  cfg.pool_size = 2;
  ServeEngine engine(reg.publish(), cfg);

  // Every all-fault batch retires the slot it ran on; sequential faulted
  // requests therefore quarantine both slots, one by one.
  std::size_t faulted_results = 0;
  for (int i = 0; i < 8; ++i) {
    auto sub = engine.submit(key, tiny_fp());
    if (sub.admission == Admission::BreakerOpen) break;  // fully retired
    ASSERT_EQ(sub.admission, Admission::Accepted);
    const ServeResult res = sub.result.get();
    EXPECT_EQ(res.status, ServeStatus::Faulted);
    EXPECT_FALSE(res.localized);
    ++faulted_results;
    if (poll_stats(engine,
                   [](const MultiTenantStats& s) {
                     return s.per_tenant[0].quarantined_slots == 2;
                   },
                   std::chrono::milliseconds(50)))
      break;
  }
  EXPECT_GE(faulted_results, 2u);
  ASSERT_TRUE(poll_stats(engine, [](const MultiTenantStats& s) {
    return s.per_tenant[0].quarantined_slots == 2;
  })) << "both broken slots must end up quarantined";
  EXPECT_GE(engine.flight_recorder().trips(), 2u)
      << "each quarantine trips the flight recorder";
  ASSERT_TRUE(engine.flight_recorder().last_dump().has_value());
  EXPECT_EQ(engine.flight_recorder().last_dump()->reason,
            "replica_quarantine");

  // A fully quarantined tenant fast-fails with a ready future — no work
  // is queued toward replicas that no longer exist.
  auto denied = engine.submit(key, tiny_fp());
  EXPECT_EQ(denied.admission, Admission::BreakerOpen);
  ASSERT_EQ(denied.result.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const ServeResult dres = denied.result.get();
  EXPECT_EQ(dres.status, ServeStatus::Denied);
  EXPECT_FALSE(dres.localized);

  // Heal: a version-bump redeploy rebuilds the deployment with fresh
  // replicas and a full free list.
  reg.reload_tenant(key, const_spec(5, 2));
  engine.deploy(reg.publish());
  auto healed = engine.submit(key, tiny_fp());
  ASSERT_EQ(healed.admission, Admission::Accepted);
  EXPECT_EQ(healed.result.get().rp, 5u);
  EXPECT_EQ(engine.stats().per_tenant[0].quarantined_slots, 0u);
  engine.shutdown();
  expect_reconciled(engine);

  const auto stats = engine.stats();
  EXPECT_GE(stats.per_tenant[0].stats.faulted, 2u);
  EXPECT_GE(stats.per_tenant[0].stats.breaker_denied, 1u);
}

TEST(Engine, MixedBatchIsolatesPoisonRowBitIdentical) {
  const auto& sc = scenario();
  const std::size_t aps = sc.train.num_aps();
  baselines::Knn seq(3);  // sequential ground truth, identical fit
  seq.fit(sc.train);

  const Tensor x = sc.device_tests[0].normalized();
  const std::vector<float> h0 = row_of(x, 0);
  const std::vector<float> h1 = row_of(x, 1);
  const std::vector<float> h2 = row_of(x, 2);
  const std::vector<float> poison(aps, 0.77F);

  std::promise<void> open_gate;
  std::promise<void> entered;
  auto gate = open_gate.get_future().share();
  ModelRegistry reg;
  TenantSpec spec;
  spec.factory = [&gate, &poison, &sc, &entered] {
    return std::make_unique<PoisonGateLocalizer>(gate, poison, sc.train,
                                                 &entered);
  };
  spec.num_aps = aps;
  spec.service.num_workers = 1;
  spec.service.max_batch = 4;
  spec.service.queue_capacity = 8;
  // An enabled breaker that must NOT move: a poison ROW in a mixed batch
  // is bad input, not a broken replica.
  spec.service.breaker.fault_threshold = 3;
  const TenantKey key{"venue-px", 0, ""};
  reg.register_tenant(key, std::move(spec));
  EngineConfig cfg;
  cfg.pool_size = 1;
  ServeEngine engine(reg.publish(), cfg);

  // R0 claims the slot and parks in predict(); the poison and two healthy
  // requests then queue up behind it and get claimed as ONE micro-batch.
  auto r0 = engine.submit(key, h0);
  ASSERT_EQ(r0.admission, Admission::Accepted);
  entered.get_future().wait();
  auto rp = engine.submit(key, poison);
  auto ra = engine.submit(key, h1);
  auto rb = engine.submit(key, h2);
  ASSERT_EQ(rp.admission, Admission::Accepted);
  ASSERT_EQ(ra.admission, Admission::Accepted);
  ASSERT_EQ(rb.admission, Admission::Accepted);
  open_gate.set_value();

  EXPECT_EQ(r0.result.get().rp, seq.predict(one_row(h0))[0]);
  const ServeResult pres = rp.result.get();
  EXPECT_EQ(pres.status, ServeStatus::Faulted);
  EXPECT_FALSE(pres.localized);
  // The healthy rows of the faulted micro-batch are served and remain
  // bit-identical to sequential predict() on the same trained model.
  const ServeResult res1 = ra.result.get();
  EXPECT_EQ(res1.status, ServeStatus::Served);
  EXPECT_EQ(res1.rp, seq.predict(one_row(h1))[0]);
  const ServeResult res2 = rb.result.get();
  EXPECT_EQ(res2.status, ServeStatus::Served);
  EXPECT_EQ(res2.rp, seq.predict(one_row(h2))[0]);
  engine.shutdown();
  expect_reconciled(engine);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.per_tenant[0].stats.completed, 3u);
  EXPECT_EQ(stats.per_tenant[0].stats.faulted, 1u);
  EXPECT_EQ(stats.per_tenant[0].quarantined_slots, 0u)
      << "a batch with served rows must not retire its slot";
  EXPECT_EQ(stats.per_tenant[0].breaker.opens, 0u);
  EXPECT_EQ(stats.per_tenant[0].breaker.state,
            CircuitBreaker::State::Closed)
      << "served rows in the same batch reset the fault streak";
}

TEST(Engine, BreakerOpensFastFailsAndRecoversViaProbe) {
  auto broken = std::make_shared<std::atomic<bool>>(true);
  ModelRegistry reg;
  TenantSpec spec;
  spec.factory = [broken] {
    return std::make_unique<FlakyLocalizer>(broken, 6);
  };
  spec.num_aps = kTinyAps;
  // Two slots: the first all-fault batch quarantines the slot it ran on,
  // and the recovery probe needs a healthy one left to run on.
  spec.service.num_workers = 2;
  spec.service.max_batch = 4;
  spec.service.queue_capacity = 8;
  spec.service.breaker.fault_threshold = 1;
  spec.service.breaker.open_for_s = 0.05;
  const TenantKey key{"venue-br", 0, ""};
  reg.register_tenant(key, std::move(spec));
  EngineConfig cfg;
  cfg.pool_size = 2;
  ServeEngine engine(reg.publish(), cfg);

  auto first = engine.submit(key, tiny_fp());
  ASSERT_EQ(first.admission, Admission::Accepted);
  EXPECT_EQ(first.result.get().status, ServeStatus::Faulted);
  ASSERT_TRUE(poll_stats(engine, [](const MultiTenantStats& s) {
    return s.per_tenant[0].breaker.opens == 1;
  })) << "one all-fault batch at threshold 1 must open the breaker";
  EXPECT_EQ(engine.stats().per_tenant[0].breaker.state,
            CircuitBreaker::State::Open);
  EXPECT_EQ(engine.stats().per_tenant[0].quarantined_slots, 1u);

  // While open: fast-fail, ready future, typed denial.
  auto denied = engine.submit(key, tiny_fp());
  EXPECT_EQ(denied.admission, Admission::BreakerOpen);
  ASSERT_EQ(denied.result.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(denied.result.get().status, ServeStatus::Denied);

  // Outage over: after the open interval the next submission is admitted
  // as the half-open probe, serves, and closes the breaker.
  broken->store(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  auto probe = engine.submit(key, tiny_fp());
  ASSERT_EQ(probe.admission, Admission::Accepted);
  EXPECT_EQ(probe.result.get().rp, 6u);
  ASSERT_TRUE(poll_stats(engine, [](const MultiTenantStats& s) {
    return s.per_tenant[0].breaker.closes == 1;
  })) << "a served probe must close the breaker";
  engine.shutdown();
  expect_reconciled(engine);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.per_tenant[0].breaker.state,
            CircuitBreaker::State::Closed);
  EXPECT_EQ(stats.per_tenant[0].breaker.opens, 1u);
  EXPECT_EQ(stats.per_tenant[0].breaker.closes, 1u);
  EXPECT_GE(stats.per_tenant[0].stats.breaker_denied, 1u);
}

TEST(CircuitBreaker, StateMachineWithSyntheticClock) {
  using std::chrono::milliseconds;
  BreakerPolicy policy;
  policy.fault_threshold = 3;
  policy.open_for_s = 1.0;
  policy.backoff_factor = 2.0;
  policy.max_open_s = 3.0;
  policy.half_open_probes = 1;
  CircuitBreaker breaker(policy);
  const auto t0 = std::chrono::steady_clock::now();
  const auto at = [&t0](double s) {
    return t0 + std::chrono::duration_cast<std::chrono::steady_clock::
                                               duration>(
                    std::chrono::duration<double>(s));
  };

  ASSERT_TRUE(breaker.enabled());
  EXPECT_TRUE(breaker.try_admit(at(0.0)));

  // Served rows reset the streak: 2 faults + a served batch + 2 faults
  // never reaches the threshold of 3.
  EXPECT_EQ(breaker.on_batch(at(0.1), 1, 0), BreakerTransition::None);
  EXPECT_EQ(breaker.on_batch(at(0.2), 1, 0), BreakerTransition::None);
  EXPECT_EQ(breaker.on_batch(at(0.3), 1, 2), BreakerTransition::None)
      << "a batch with served rows proves the replica works";
  EXPECT_EQ(breaker.on_batch(at(0.4), 1, 0), BreakerTransition::None);
  EXPECT_EQ(breaker.on_batch(at(0.5), 1, 0), BreakerTransition::None);
  EXPECT_EQ(breaker.snapshot().consecutive_faults, 2u);
  EXPECT_TRUE(breaker.try_admit(at(0.5)));

  // Third consecutive all-fault batch: Opened.
  EXPECT_EQ(breaker.on_batch(at(0.6), 2, 0), BreakerTransition::Opened);
  EXPECT_EQ(breaker.snapshot().state, CircuitBreaker::State::Open);
  EXPECT_EQ(breaker.snapshot().opens, 1u);
  EXPECT_FALSE(breaker.try_admit(at(0.7)));
  EXPECT_FALSE(breaker.try_admit(at(1.5)))
      << "still inside the 1 s open interval (opened at 0.6)";
  // Stale results from batches claimed before the open are ignored.
  EXPECT_EQ(breaker.on_batch(at(0.8), 3, 0), BreakerTransition::None);
  EXPECT_EQ(breaker.snapshot().opens, 1u);

  // Interval elapsed: exactly one half-open probe is admitted.
  EXPECT_TRUE(breaker.try_admit(at(1.7)));
  EXPECT_EQ(breaker.snapshot().state, CircuitBreaker::State::HalfOpen);
  EXPECT_FALSE(breaker.try_admit(at(1.8))) << "probe budget exhausted";

  // Probe faults: Reopened, interval doubles to 2 s.
  EXPECT_EQ(breaker.on_batch(at(1.9), 1, 0), BreakerTransition::Reopened);
  EXPECT_EQ(breaker.snapshot().opens, 2u);
  EXPECT_DOUBLE_EQ(breaker.snapshot().current_open_s, 2.0);
  EXPECT_FALSE(breaker.try_admit(at(3.0)));
  EXPECT_TRUE(breaker.try_admit(at(4.0)));

  // Second probe serves: Closed, streak and interval reset.
  EXPECT_EQ(breaker.on_batch(at(4.1), 0, 1), BreakerTransition::Closed);
  EXPECT_EQ(breaker.snapshot().state, CircuitBreaker::State::Closed);
  EXPECT_EQ(breaker.snapshot().closes, 1u);
  EXPECT_EQ(breaker.snapshot().consecutive_faults, 0u);
  EXPECT_TRUE(breaker.try_admit(at(4.2)));

  // Backoff caps at max_open_s: three consecutive reopens would want
  // 1 -> 2 -> 4 s, but the cap holds the interval at 3 s.
  for (int i = 0; i < 3; ++i)
    breaker.on_batch(at(5.0 + 0.1 * i), 1, 0);  // Opened at the third
  EXPECT_EQ(breaker.snapshot().state, CircuitBreaker::State::Open);
  EXPECT_TRUE(breaker.try_admit(at(6.5)));   // 1 s interval passed
  breaker.on_batch(at(6.6), 1, 0);           // Reopened: 2 s
  EXPECT_TRUE(breaker.try_admit(at(8.7)));
  breaker.on_batch(at(8.8), 1, 0);           // Reopened: capped at 3 s
  EXPECT_DOUBLE_EQ(breaker.snapshot().current_open_s, 3.0);

  // A probe that vanished (shed, dropped) cannot wedge the breaker: a
  // full backoff interval of probe silence admits a replacement.
  EXPECT_TRUE(breaker.try_admit(at(12.0)));  // HalfOpen, probe out
  EXPECT_FALSE(breaker.try_admit(at(13.0)));
  EXPECT_TRUE(breaker.try_admit(at(15.1)))
      << "replacement probe after a full interval of silence";

  // A default-constructed breaker is disabled and admits everything.
  CircuitBreaker off;
  EXPECT_FALSE(off.enabled());
  EXPECT_TRUE(off.try_admit(at(0.0)));
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(off.on_batch(at(0.1), 5, 0), BreakerTransition::None);
  EXPECT_TRUE(off.try_admit(at(0.2)));
}

TEST(Engine, ShutdownFailsQueuedRequestsTyped) {
  std::promise<void> open_gate;
  std::promise<void> entered;
  GateLocalizer gate(open_gate.get_future().share(), 3, &entered);
  ModelRegistry reg;
  TenantSpec spec;
  spec.shared_model = &gate;
  spec.num_aps = kTinyAps;
  spec.service.num_workers = 1;
  spec.service.max_batch = 1;
  spec.service.queue_capacity = 8;
  const TenantKey key{"venue-sd", 0, ""};
  reg.register_tenant(key, std::move(spec));
  EngineConfig cfg;
  cfg.pool_size = 1;
  ServeEngine engine(reg.publish(), cfg);

  auto r1 = engine.submit(key, tiny_fp());
  ASSERT_EQ(r1.admission, Admission::Accepted);
  entered.get_future().wait();  // the worker is mid-batch on R1
  auto r2 = engine.submit(key, tiny_fp());
  auto r3 = engine.submit(key, tiny_fp());
  ASSERT_EQ(r2.admission, Admission::Accepted);
  ASSERT_EQ(r3.admission, Admission::Accepted);

  std::thread stopper([&engine] { engine.shutdown(); });
  // Queued-but-unclaimed requests resolve with the typed terminal status
  // BEFORE the in-flight batch finishes — the gate is still closed, so a
  // blocking drain would deadlock here.
  for (auto* r : {&r2, &r3}) {
    const ServeResult res = r->result.get();
    EXPECT_EQ(res.status, ServeStatus::ShutDown);
    EXPECT_EQ(res.verdict, Verdict::Reject);
  }
  EXPECT_NE(r1.result.wait_for(std::chrono::milliseconds(0)),
            std::future_status::ready)
      << "the in-flight request is still parked on the gate";
  open_gate.set_value();
  stopper.join();
  expect_reconciled(engine);
  EXPECT_EQ(r1.result.get().status, ServeStatus::Served);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.per_tenant[0].stats.completed, 1u);
  EXPECT_EQ(stats.per_tenant[0].stats.shed, 2u);
  EXPECT_EQ(stats.per_tenant[0].stats.submitted, 1u)
      << "shed requests leave the submitted population";
}

TEST(Engine, DestructorUnderLoadResolvesEveryFuture) {
  constexpr std::size_t kRequests = 200;
  std::vector<std::future<ServeResult>> futures;
  futures.reserve(kRequests);
  {
    ModelRegistry reg;
    TenantSpec spec = const_spec(4, 2);
    spec.service.queue_capacity = kRequests + 8;
    const TenantKey key{"venue-dt", 0, ""};
    reg.register_tenant(key, std::move(spec));
    EngineConfig cfg;
    cfg.pool_size = 4;
    ServeEngine engine(reg.publish(), cfg);
    for (std::size_t i = 0; i < kRequests; ++i) {
      auto sub = engine.submit(key, tiny_fp());
      ASSERT_EQ(sub.admission, Admission::Accepted);
      futures.push_back(std::move(sub.result));
    }
  }  // ~ServeEngine runs with most of the queue still pending

  std::size_t served = 0;
  std::size_t shut = 0;
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "the destructor must resolve every outstanding future";
    const ServeResult res = f.get();
    if (res.status == ServeStatus::Served) {
      EXPECT_EQ(res.rp, 4u);
      ++served;
    } else {
      EXPECT_EQ(res.status, ServeStatus::ShutDown);
      EXPECT_FALSE(res.localized);
      ++shut;
    }
  }
  EXPECT_EQ(served + shut, kRequests);
}

TEST(Engine, RobustnessMetricsScrapeRoundTrip) {
  ModelRegistry reg;
  const TenantKey kf{"venue-rf", 0, "OP3"};
  const TenantKey kh{"venue-rh", 0, "OP3"};
  TenantSpec faulty;
  faulty.factory = [] { return std::make_unique<ThrowingLocalizer>(); };
  faulty.num_aps = kTinyAps;
  faulty.service.num_workers = 1;
  faulty.service.max_batch = 4;
  faulty.service.queue_capacity = 8;
  faulty.service.breaker.fault_threshold = 1;
  reg.register_tenant(kf, std::move(faulty));
  reg.register_tenant(kh, const_spec(2));
  reg.set_profile_fallbacks({"OP3"});
  ServeEngine engine(reg.publish(), EngineConfig{});

  // One faulted request: opens the breaker AND quarantines the only slot.
  // process() feeds the breaker only after it resolves the batch's
  // promises, so wait for the open to land.
  EXPECT_EQ(engine.submit(kf, tiny_fp()).result.get().status,
            ServeStatus::Faulted);
  ASSERT_TRUE(poll_stats(engine, [](const MultiTenantStats& s) {
    return s.per_tenant[0].breaker.opens == 1;
  }));
  EXPECT_EQ(engine.submit(kf, tiny_fp()).admission, Admission::BreakerOpen);

  // One deadline-expired and one served request on the healthy tenant.
  // The engine records `expired` before it resolves the future.
  EXPECT_EQ(engine
                .submit(kh, tiny_fp(),
                        std::chrono::steady_clock::now() -
                            std::chrono::minutes(1))
                .result.get()
                .status,
            ServeStatus::Expired);
  const MultiTenantStats after_expiry = engine.stats();
  ASSERT_EQ(after_expiry.per_tenant[1].tenant, kh);
  EXPECT_EQ(after_expiry.per_tenant[1].stats.expired, 1u);
  EXPECT_TRUE(submit_blocking(engine, kh, tiny_fp()).result.get().localized);

  const obs::MetricsRegistry m = engine.metrics();
  const auto* faulted =
      m.find("cal_serve_faulted_total", {{"tenant", "venue-rf/0:OP3"}});
  ASSERT_NE(faulted, nullptr);
  EXPECT_EQ(faulted->value, 1.0);
  const auto* bo =
      m.find("cal_serve_admissions_total",
             {{"tenant", "venue-rf/0:OP3"}, {"outcome", "breaker_open"}});
  ASSERT_NE(bo, nullptr);
  EXPECT_GE(bo->value, 1.0);
  const auto* quarantined = m.find("cal_serve_replica_slots_quarantined",
                                   {{"tenant", "venue-rf/0:OP3"}});
  ASSERT_NE(quarantined, nullptr);
  EXPECT_EQ(quarantined->value, 1.0);
  const auto* bstate =
      m.find("cal_serve_breaker_state", {{"tenant", "venue-rf/0:OP3"}});
  ASSERT_NE(bstate, nullptr);
  EXPECT_EQ(bstate->value, 1.0);  // 0 closed / 1 open / 2 half-open
  const auto* opens = m.find("cal_serve_breaker_opens_total",
                             {{"tenant", "venue-rf/0:OP3"}});
  ASSERT_NE(opens, nullptr);
  EXPECT_EQ(opens->value, 1.0);
  const auto* expired =
      m.find("cal_serve_expired_total", {{"tenant", "venue-rh/0:OP3"}});
  ASSERT_NE(expired, nullptr);
  EXPECT_EQ(expired->value, 1.0);

  // The same figures ride both exposition formats.
  const std::string text = m.prometheus_text();
  const auto npos = std::string::npos;
  EXPECT_NE(
      text.find("cal_serve_faulted_total{tenant=\"venue-rf/0:OP3\"} 1\n"),
      npos);
  EXPECT_NE(
      text.find("cal_serve_breaker_state{tenant=\"venue-rf/0:OP3\"} 1\n"),
      npos);
  EXPECT_NE(
      text.find("cal_serve_expired_total{tenant=\"venue-rh/0:OP3\"} 1\n"),
      npos);
  EXPECT_NE(text.find("# TYPE cal_serve_breaker_opens_total counter\n"),
            npos);
  const std::string json = m.json();
  EXPECT_NE(json.find("\"name\":\"cal_serve_breaker_state\""), npos);
  EXPECT_NE(json.find("\"name\":\"cal_serve_shed_total\""), npos);
  EXPECT_NE(json.find("\"name\":\"cal_serve_replica_slots_quarantined\""),
            npos);
  engine.shutdown();
}

TEST(Engine, FaultPointQueuePushContainmentKeepsEngineHealthy) {
  if (!kFaultInjectionCompiledIn)
    GTEST_SKIP() << "fault injection compiled out";
  ModelRegistry reg;
  const TenantKey key{"venue-fi", 0, ""};
  reg.register_tenant(key, const_spec(8));
  ServeEngine engine(reg.publish(), EngineConfig{});

  FaultRegistry::instance().arm_one_shot("serve.queue_push");
  EXPECT_THROW(engine.submit(key, tiny_fp()), InjectedFault);
  FaultRegistry::instance().disarm_all();

  // The rollback left no trace: the engine still serves, and the faulted
  // call never entered the submitted population (its quota token was
  // refunded and the worker wake count rolled back).
  EXPECT_EQ(engine.submit(key, tiny_fp()).result.get().rp, 8u);
  engine.shutdown();
  expect_reconciled(engine);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.per_tenant[0].stats.submitted, 1u);
  EXPECT_EQ(stats.per_tenant[0].stats.completed, 1u);
}

TEST(Engine, FaultPointDeployContainmentKeepsOldSnapshot) {
  if (!kFaultInjectionCompiledIn)
    GTEST_SKIP() << "fault injection compiled out";
  ModelRegistry reg;
  const TenantKey key{"venue-fd", 0, ""};
  reg.register_tenant(key, const_spec(1));
  ServeEngine engine(reg.publish(), EngineConfig{});
  EXPECT_EQ(engine.submit(key, tiny_fp()).result.get().rp, 1u);
  const std::uint64_t epoch_before = engine.snapshot()->epoch();

  reg.reload_tenant(key, const_spec(2));
  auto next = reg.publish();
  FaultRegistry::instance().arm_one_shot("serve.deploy");
  EXPECT_THROW(engine.deploy(next), InjectedFault);
  FaultRegistry::instance().disarm_all();

  // Strong exception safety: the old snapshot keeps serving untouched,
  // and a clean retry of the same deploy succeeds.
  EXPECT_EQ(engine.snapshot()->epoch(), epoch_before);
  EXPECT_EQ(engine.submit(key, tiny_fp()).result.get().rp, 1u);
  engine.deploy(next);
  EXPECT_EQ(engine.submit(key, tiny_fp()).result.get().rp, 2u);
  engine.shutdown();
  expect_reconciled(engine);
}

}  // namespace

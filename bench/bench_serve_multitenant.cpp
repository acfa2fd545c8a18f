// ServeEngine multi-tenant bench: the shared-pool redesign's three
// CI-enforced claims, plus the PR 4 screening-work scaling claim.
//
//   1. THREADS — the engine's OS thread count is pool_size, independent
//      of how many tenants are deployed (the retired per-lane model
//      spawned tenants × workers threads).
//   2. HOT RELOAD — routed predictions stay bit-identical to sequential
//      per-tenant predict() across a mid-stream reload+deploy of one
//      venue (RCU snapshot swap, same trained weights).
//   3. ISOLATION — a tenant saturating the engine (flood threads, shed by
//      its token-bucket quota) leaves a quiet tenant's p99 within a
//      bounded factor of its uncontended p99.
//   4. SHARDING — per-request screening work tracks the routed shard's
//      anchor count, NOT the fleet-wide anchor total (unchanged).
//
// Tenants are KNN models (training-free, deterministic): the bench
// measures the serving architecture, not the localizer. Venues are real
// Table II buildings, so shard anchor databases have realistic sizes and
// cluster structure.
//
// Emits BENCH_serve_multitenant.json for the CI perf-trajectory artifact.
//
// Run: ./build/bench/bench_serve_multitenant   (CALLOC_BENCH_FULL=1 for
// all five Table II venues and the larger request count)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "baselines/knn.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "serve/engine.hpp"
#include "sim/fleet.hpp"

namespace {

using namespace cal;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kPoolSize = 4;

/// Threads of this process, via /proc/self/task; 0 when unavailable
/// (non-Linux), in which case the thread-count check is skipped.
std::size_t os_thread_count() {
  try {
    return static_cast<std::size_t>(std::distance(
        std::filesystem::directory_iterator("/proc/self/task"),
        std::filesystem::directory_iterator{}));
  } catch (const std::filesystem::filesystem_error&) {
    return 0;
  }
}

serve::TenantKey venue_key(const sim::Scenario& sc) {
  return {sc.building_spec.name, 0, "OP3"};
}

serve::TenantSpec venue_spec(const sim::Scenario& sc) {
  serve::TenantSpec spec;
  const data::FingerprintDataset& train = sc.train;
  spec.factory = [&train] {
    auto model = std::make_unique<baselines::Knn>(3);
    model->fit(train);
    return model;
  };
  spec.num_aps = train.num_aps();
  spec.anchors = serve::anchor_database_from(train);
  // Screen calibrated on the venue's clean online fleet capture.
  spec.service.screening = serve::calibrate_thresholds(
      spec.anchors, sim::merged_device_capture(sc).normalized(), 95.0, 3.0);
  spec.service.num_workers = 2;  // replica slots, NOT threads
  spec.service.max_batch = 16;
  spec.service.queue_capacity = 512;
  spec.service.cache_capacity = 0;  // measure screening, not the cache
  return spec;
}

serve::ModelRegistry build_registry(std::span<const sim::Scenario> fleet) {
  serve::ModelRegistry registry;
  for (const auto& sc : fleet)
    registry.register_tenant(venue_key(sc), venue_spec(sc));
  registry.set_profile_fallbacks({"OP3"});
  return registry;
}

/// Blocking submit for drive loops: the engine's typed denials are
/// retried (queues are sized so QueueFull stays rare here).
serve::EngineSubmission submit_blocking(serve::ServeEngine& engine,
                                        const serve::TenantKey& key,
                                        const std::vector<float>& fp) {
  return engine.submit_blocking(key, fp);
}

struct DriveResult {
  double wall_seconds = 0.0;
  bool bit_identical = true;  ///< vs. sequential per-tenant ground truth
};

/// Submit the stream (optionally restricted to one venue), wait for every
/// result, and verify each prediction against `expected` (the venues' own
/// models run sequentially). When `reload` is set, venue 0 is hot-
/// reloaded (same training data → bit-identical weights) and redeployed
/// mid-stream — predictions must not change.
DriveResult drive(serve::ServeEngine& engine, serve::ModelRegistry* reload,
                  std::span<const sim::Scenario> fleet,
                  std::span<const sim::FleetRequest> stream,
                  const std::vector<std::vector<Tensor>>& pools,
                  const std::vector<std::vector<std::vector<std::size_t>>>&
                      expected,
                  std::optional<std::size_t> only_venue = std::nullopt) {
  struct Sent {
    sim::FleetRequest req;
    std::future<serve::ServeResult> fut;
  };
  std::vector<Sent> sent;
  sent.reserve(stream.size());
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (reload != nullptr && i == stream.size() / 2) {
      reload->reload_tenant(venue_key(fleet[0]), venue_spec(fleet[0]));
      engine.deploy(reload->publish());
    }
    const auto& req = stream[i];
    if (only_venue && req.venue != *only_venue) continue;
    const auto fp = pools[req.venue][req.device].row(req.row);
    auto sub = submit_blocking(engine, venue_key(fleet[req.venue]),
                               {fp.begin(), fp.end()});
    sent.push_back({req, std::move(sub.result)});
  }
  DriveResult out;
  for (auto& s : sent) {
    const auto res = s.fut.get();
    // Screen-rejected requests are never localized (by design, identically
    // in both deployments); every SERVED prediction must match the
    // venue's own model run sequentially.
    if (res.localized &&
        res.rp != expected[s.req.venue][s.req.device][s.req.row])
      out.bit_identical = false;
  }
  out.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// Quiet tenant's p99 while (optionally) a saturating tenant floods the
/// engine through its quota. Fresh engine per call so stats are clean.
struct IsolationResult {
  double quiet_p99_ms = 0.0;
  std::size_t flood_over_quota = 0;
  std::size_t flood_queue_full = 0;
  std::size_t flood_sent = 0;
};

IsolationResult run_isolation(std::span<const sim::Scenario> fleet,
                              const std::vector<std::vector<Tensor>>& pools,
                              bool with_flood, std::size_t quiet_requests) {
  const sim::Scenario& quiet_venue = fleet[0];
  const sim::Scenario& loud_venue = fleet[1];
  serve::ModelRegistry registry;
  registry.register_tenant(venue_key(quiet_venue), venue_spec(quiet_venue));
  serve::TenantSpec loud = venue_spec(loud_venue);
  // The isolation mechanism under test: the saturator is admitted at a
  // bounded rate; everything beyond it is shed at the door.
  loud.service.quota.rate_per_s = 2000.0;
  loud.service.quota.burst = 256.0;
  loud.service.queue_capacity = 256;
  registry.register_tenant(venue_key(loud_venue), std::move(loud));
  registry.set_profile_fallbacks({"OP3"});

  serve::EngineConfig cfg;
  cfg.pool_size = 2;
  serve::ServeEngine engine(registry.publish(), cfg);
  engine.reset_telemetry_clocks();

  std::atomic<bool> quiet_done{false};
  IsolationResult out;
  std::thread flooder;
  if (with_flood) {
    flooder = std::thread([&] {
      const Tensor& pool = pools[1][0];
      std::size_t row = 0;
      while (!quiet_done.load(std::memory_order_relaxed)) {
        const auto fp = pool.row(row);
        const auto sub =
            engine.submit(venue_key(loud_venue), {fp.begin(), fp.end()});
        ++out.flood_sent;
        if (sub.admission == serve::Admission::OverQuota)
          ++out.flood_over_quota;
        if (sub.admission == serve::Admission::QueueFull)
          ++out.flood_queue_full;
        row = (row + 1) % pool.rows();
      }
    });
  }

  // The quiet tenant: steady paced traffic, one request per millisecond.
  std::vector<std::future<serve::ServeResult>> futs;
  futs.reserve(quiet_requests);
  const Tensor& pool = pools[0][0];
  for (std::size_t i = 0; i < quiet_requests; ++i) {
    const auto fp = pool.row(i % pool.rows());
    futs.push_back(submit_blocking(engine, venue_key(quiet_venue),
                                   {fp.begin(), fp.end()})
                       .result);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& f : futs) f.get();
  quiet_done.store(true, std::memory_order_relaxed);
  if (flooder.joinable()) flooder.join();

  const auto stats = engine.stats();
  const auto quiet_shard =
      engine.snapshot()->route(venue_key(quiet_venue)).shard;
  out.quiet_p99_ms = stats.per_tenant[quiet_shard].stats.latency_p99_ms;
  engine.shutdown();
  return out;
}

}  // namespace

int main() {
  using namespace cal;
  bench::banner(
      "bench_serve_multitenant — ServeEngine shared-pool serving",
      "claims: OS threads track pool_size (not tenant count); predictions "
      "stay bit-identical across a mid-stream hot reload; a quota-capped "
      "saturator leaves a quiet tenant's p99 bounded; screening work "
      "scales with the routed shard's anchors");

  const std::vector<std::size_t> venues =
      bench::full_mode() ? std::vector<std::size_t>{0, 1, 2, 3, 4}
                         : std::vector<std::size_t>{0, 2, 3};
  const std::size_t train_spr = bench::full_mode() ? 5 : 2;
  const auto fleet = sim::make_table2_fleet(venues, 2024, train_spr, 1);
  const std::size_t n_requests = bench::full_mode() ? 20000 : 3000;

  // Pre-normalised request pools: pools[venue][device].
  std::vector<std::vector<Tensor>> pools(fleet.size());
  for (std::size_t v = 0; v < fleet.size(); ++v)
    for (const auto& test : fleet[v].device_tests)
      pools[v].push_back(test.normalized());

  // Sequential ground truth: each venue's own model on its own traffic —
  // the bit-identity reference for the routed + hot-reloaded runs.
  std::vector<std::vector<std::vector<std::size_t>>> expected(fleet.size());
  for (std::size_t v = 0; v < fleet.size(); ++v) {
    baselines::Knn knn(3);
    knn.fit(fleet[v].train);
    for (const auto& test : fleet[v].device_tests)
      expected[v].push_back(knn.predict(test.normalized()));
  }

  const auto stream =
      sim::fleet_request_stream(fleet, n_requests, 31, /*repeat_prob=*/0.2);

  // -- Run 1: full fleet on one shared pool, hot reload mid-stream --------
  const std::size_t threads_before_fleet = os_thread_count();
  serve::ModelRegistry registry = build_registry(fleet);
  serve::EngineConfig cfg;
  cfg.pool_size = kPoolSize;
  serve::ServeEngine service(registry.publish(), cfg);
  service.reset_telemetry_clocks();
  const std::size_t fleet_thread_delta =
      threads_before_fleet > 0 ? os_thread_count() - threads_before_fleet
                               : 0;
  const DriveResult fleet_run =
      drive(service, &registry, fleet, stream, pools, expected);
  const auto stats = service.stats();
  service.shutdown();
  // Full fleet metrics registry — per-tenant counters, latency
  // histograms, deploy epoch — for the CI observability artifact.
  bench::append_obs_metrics("bench_serve_multitenant", service.metrics());

  // -- Run 2: venue 0 alone, fed the IDENTICAL venue-0 requests ------------
  // Same queries against a single-tenant deployment on the SAME pool
  // size: per-request screening work and thread count must be identical.
  const std::size_t threads_before_solo = os_thread_count();
  serve::ModelRegistry solo_registry =
      build_registry(std::span(fleet).first(1));
  serve::ServeEngine solo(solo_registry.publish(), cfg);
  const std::size_t solo_thread_delta =
      threads_before_solo > 0 ? os_thread_count() - threads_before_solo : 0;
  drive(solo, nullptr, fleet, stream, pools, expected, /*only_venue=*/0);
  const auto solo_stats = solo.stats();
  solo.shutdown();

  // -- Run 3: quota isolation — quiet tenant vs saturating tenant ----------
  const std::size_t quiet_requests = bench::full_mode() ? 400 : 150;
  const IsolationResult calm =
      run_isolation(fleet, pools, /*with_flood=*/false, quiet_requests);
  const IsolationResult loaded =
      run_isolation(fleet, pools, /*with_flood=*/true, quiet_requests);
  // Bounded-interference contract: generous enough for shared CI runners,
  // tight enough that an unfair pool (quiet batches starved behind the
  // flood) blows through it.
  const double isolation_bound_ms =
      std::max(10.0 * std::max(calm.quiet_p99_ms, 0.5), 25.0);

  // -- Report --------------------------------------------------------------
  const serve::TenantKey venue0_key = venue_key(fleet[0]);
  const auto venue0_shard = stats.per_tenant.empty()
                                ? std::size_t{0}
                                : service.snapshot()->route(venue0_key).shard;
  const auto& venue0 = stats.per_tenant[venue0_shard].stats;
  const auto& venue0_solo = solo_stats.per_tenant[0].stats;

  const auto snapshot = service.snapshot();
  const auto shard_anchors = [&snapshot](const serve::TenantKey& key) {
    return snapshot->find(key)->screen.num_anchors();
  };
  std::size_t total_anchors = 0;
  for (const auto& t : stats.per_tenant)
    total_anchors += shard_anchors(t.tenant);

  TextTable table({"tenant", "anchors", "screened", "mean scanned",
                   "flag+rej", "req/s"});
  for (const auto& t : stats.per_tenant)
    table.add_row(
        {t.tenant.str(), std::to_string(shard_anchors(t.tenant)),
         std::to_string(t.stats.screened), fmt(t.stats.mean_anchors_scanned),
         std::to_string(t.stats.flagged + t.stats.rejected),
         fmt(t.stats.throughput_rps)});
  std::printf("%s\n", table.str().c_str());
  std::printf("fleet: %zu venues on ONE pool of %zu threads, %zu anchors "
              "total, %zu requests in %.2f s (%.0f req/s end-to-end), "
              "hot-reloaded venue 0 mid-stream (epoch %llu, %zu deploys)\n",
              fleet.size(), service.pool_size(), total_anchors,
              stream.size(), fleet_run.wall_seconds,
              static_cast<double>(stream.size()) / fleet_run.wall_seconds,
              static_cast<unsigned long long>(stats.snapshot_epoch),
              stats.deploys);
  std::printf("threads: +%zu with %zu tenants, +%zu with 1 tenant "
              "(pool_size %zu)\n",
              fleet_thread_delta, fleet.size(), solo_thread_delta, kPoolSize);
  std::printf("venue-0 mean anchors scanned: %.3f in the %zu-venue fleet "
              "vs %.3f alone\n",
              venue0.mean_anchors_scanned, fleet.size(),
              venue0_solo.mean_anchors_scanned);
  std::printf("isolation: quiet p99 %.2f ms alone vs %.2f ms beside a "
              "flood (%zu sent, %zu over-quota, %zu queue-full; bound "
              "%.2f ms)\n\n",
              calm.quiet_p99_ms, loaded.quiet_p99_ms, loaded.flood_sent,
              loaded.flood_over_quota, loaded.flood_queue_full,
              isolation_bound_ms);

  // A misrouted client: unknown venue must reject, typed and immediate.
  serve::ModelRegistry probe_registry =
      build_registry(std::span(fleet).first(1));
  serve::ServeEngine reject_probe(probe_registry.publish(), cfg);
  const auto fp = pools[0][0].row(0);
  auto stray = reject_probe.submit({"no-such-venue", 0, "OP3"},
                                   {fp.begin(), fp.end()});
  const bool stray_rejected =
      stray.admission == serve::Admission::Rejected &&
      stray.decision.status == serve::RouteDecision::Status::Reject &&
      !stray.result.get().localized;
  auto fallback =
      reject_probe.submit({fleet[0].building_spec.name, 0, "S7"},
                          {fp.begin(), fp.end()});
  const bool fallback_served =
      fallback.admission == serve::Admission::Accepted &&
      fallback.decision.status == serve::RouteDecision::Status::Fallback &&
      fallback.result.get().localized;
  reject_probe.shutdown();

  // Machine-readable trajectory for CI artifacts.
  {
    FILE* f = std::fopen("BENCH_serve_multitenant.json", "w");
    if (f != nullptr) {
      std::fprintf(f, "{\n  \"bench\": \"bench_serve_multitenant\",\n");
      std::fprintf(f, "  \"mode\": \"%s\",\n",
                   bench::full_mode() ? "full" : "quick");
      std::fprintf(f, "  \"pool_size\": %zu,\n", kPoolSize);
      std::fprintf(f, "  \"threads_fleet_delta\": %zu,\n", fleet_thread_delta);
      std::fprintf(f, "  \"threads_solo_delta\": %zu,\n", solo_thread_delta);
      std::fprintf(f, "  \"venues\": %zu,\n  \"total_anchors\": %zu,\n",
                   fleet.size(), total_anchors);
      std::fprintf(f, "  \"requests\": %zu,\n  \"fleet_rps\": %.1f,\n",
                   stream.size(),
                   static_cast<double>(stream.size()) /
                       fleet_run.wall_seconds);
      std::fprintf(f, "  \"reload_bit_identical\": %s,\n",
                   fleet_run.bit_identical ? "true" : "false");
      std::fprintf(f, "  \"quiet_p99_solo_ms\": %.3f,\n", calm.quiet_p99_ms);
      std::fprintf(f, "  \"quiet_p99_loaded_ms\": %.3f,\n",
                   loaded.quiet_p99_ms);
      std::fprintf(f, "  \"flood_over_quota\": %zu,\n",
                   loaded.flood_over_quota);
      std::fprintf(f, "  \"shards\": [\n");
      for (std::size_t shard = 0; shard < stats.per_tenant.size(); ++shard) {
        const auto& t = stats.per_tenant[shard];
        std::fprintf(
            f,
            "    {\"tenant\": \"%s\", \"anchors\": %zu, \"screened\": %zu,\n"
            "     \"mean_anchors_scanned\": %.3f,\n"
            "     \"flagged\": %zu, \"rejected\": %zu, \"rps\": %.1f}%s\n",
            t.tenant.str().c_str(), shard_anchors(t.tenant), t.stats.screened,
            t.stats.mean_anchors_scanned, t.stats.flagged, t.stats.rejected,
            t.stats.throughput_rps,
            shard + 1 < stats.per_tenant.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n");
      std::fprintf(f, "  \"venue0_scanned_in_fleet\": %.3f,\n",
                   venue0.mean_anchors_scanned);
      std::fprintf(f, "  \"venue0_scanned_alone\": %.3f\n}\n",
                   venue0_solo.mean_anchors_scanned);
      std::fclose(f);
      std::printf("wrote BENCH_serve_multitenant.json\n\n");
    }
  }

  // -- Shape checks --------------------------------------------------------
  bool ok = true;
  // 1. Shared pool: OS threads track pool_size, never tenant count.
  if (threads_before_fleet > 0 && threads_before_solo > 0) {
    ok &= bench::shape_check(
        fleet_thread_delta == kPoolSize,
        "engine with " + std::to_string(fleet.size()) +
            " tenants spawns exactly pool_size=" +
            std::to_string(kPoolSize) + " threads (got +" +
            std::to_string(fleet_thread_delta) + ")");
    ok &= bench::shape_check(
        solo_thread_delta == fleet_thread_delta,
        "thread count is independent of tenant count (1 tenant: +" +
            std::to_string(solo_thread_delta) + ")");
  } else {
    std::printf("  [SKIP] /proc/self/task unavailable; thread-count check "
                "skipped\n");
  }
  // 2. Hot reload: bit-identity held across the mid-stream swap.
  ok &= bench::shape_check(
      fleet_run.bit_identical,
      "routed predictions bit-identical to sequential per-tenant predict "
      "across a mid-stream hot reload");
  ok &= bench::shape_check(stats.reload_flushes == 1,
                           "mid-stream reload flushed exactly one tenant");
  // 3. Isolation: the quota keeps the flood from starving the quiet lane.
  ok &= bench::shape_check(
      loaded.flood_over_quota > 0,
      "the saturator actually hit its admission quota (" +
          std::to_string(loaded.flood_over_quota) + " shed)");
  ok &= bench::shape_check(
      loaded.quiet_p99_ms <= isolation_bound_ms,
      "quiet tenant p99 beside the flood (" + fmt(loaded.quiet_p99_ms) +
          " ms) within bound (" + fmt(isolation_bound_ms) + " ms)");
  // 4. Screening work scales with the shard, not the fleet: each
  // screened request scans exactly its own shard's anchors.
  for (const auto& t : stats.per_tenant) {
    const std::size_t anchors = shard_anchors(t.tenant);
    ok &= bench::shape_check(
        t.stats.anchors_scanned == t.stats.screened * anchors,
        "shard " + t.tenant.str() + " scans its " + std::to_string(anchors) +
            " anchors per screened request (got " +
            fmt(t.stats.mean_anchors_scanned) + ")");
  }
  ok &= bench::shape_check(
      stats.aggregate.mean_anchors_scanned <
          0.5 * static_cast<double>(total_anchors),
      "mean screening work (" + fmt(stats.aggregate.mean_anchors_scanned) +
          ") < half the fleet anchor total (" +
          std::to_string(total_anchors) + ")");
  // Identical venue-0 queries: the shard does exactly the same screening
  // work whether it shares the process with 0 or N-1 other venues.
  ok &= bench::shape_check(
      venue0.mean_anchors_scanned == venue0_solo.mean_anchors_scanned,
      "venue-0 per-request screening work is independent of fleet size");
  ok &= bench::shape_check(stray_rejected,
                           "unknown venue rejects deterministically (typed)");
  ok &= bench::shape_check(fallback_served,
                           "unknown device profile falls back to OP3 model");
  return ok ? 0 : 1;
}

// Serving-engine throughput: sequential one-at-a-time inference vs the
// batched / shared-pool ServeEngine, plus the effect of the fingerprint
// cache on stationary-device traffic.
//
// Run: ./build/bench/bench_serve_throughput   (CALLOC_BENCH_FULL=1 for the
// larger request count and paper-scale building)
#include <algorithm>
#include <chrono>
#include <future>
#include <thread>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/calloc.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "sim/fleet.hpp"

namespace {

using namespace cal;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct ModeReport {
  std::string name;
  double rps = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double mean_batch = 0.0;
  double cache_hit_pct = 0.0;
};

const serve::TenantKey& tenant() {
  static const serve::TenantKey key{"bench", 0, ""};
  return key;
}

/// One single-tenant engine deployment: `slots` replicas on a pool of
/// `pool` threads.
serve::ServeEngine make_engine(const serve::ReplicaFactory& factory,
                               std::size_t num_aps, std::size_t pool,
                               std::size_t slots, std::size_t max_batch,
                               std::size_t cache_capacity) {
  serve::ModelRegistry registry;
  serve::TenantSpec spec;
  spec.factory = factory;
  spec.num_aps = num_aps;
  spec.service.num_workers = slots;
  spec.service.max_batch = max_batch;
  spec.service.queue_capacity = 512;
  spec.service.cache_capacity = cache_capacity;
  registry.register_tenant(tenant(), std::move(spec));
  serve::EngineConfig cfg;
  cfg.pool_size = pool;
  return {registry.publish(), cfg};
}

/// Drive `n_requests` through a running engine from one producer thread;
/// `repeat_prob` models stationary devices re-sending their last scan.
ModeReport drive(std::string name, serve::ServeEngine& engine,
                 const Tensor& x, std::size_t n_requests, double repeat_prob,
                 Rng rng) {
  std::vector<std::future<serve::ServeResult>> futs;
  futs.reserve(n_requests);
  const auto t0 = Clock::now();
  std::size_t row = 0;
  for (std::size_t i = 0; i < n_requests; ++i) {
    if (i == 0 || !rng.bernoulli(repeat_prob)) row = rng.uniform_index(x.rows());
    const auto fp = x.row(row);
    // Bounded queue: the engine's wrapper retries typed QueueFull denials.
    futs.push_back(
        engine.submit_blocking(tenant(), {fp.begin(), fp.end()}).result);
  }
  for (auto& f : futs) f.get();
  const double wall = seconds_since(t0);
  engine.shutdown();
  const auto stats = engine.stats().per_tenant.front().stats;
  ModeReport r;
  r.name = std::move(name);
  r.rps = static_cast<double>(n_requests) / wall;
  r.p50 = stats.latency_p50_ms;
  r.p95 = stats.latency_p95_ms;
  r.p99 = stats.latency_p99_ms;
  r.mean_batch = stats.mean_batch_size;
  if (stats.completed > 0)
    r.cache_hit_pct = 100.0 * static_cast<double>(stats.cache_hits) /
                      static_cast<double>(stats.completed);
  return r;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

}  // namespace

int main() {
  using namespace cal;
  bench::banner("bench_serve_throughput — online serving engine",
                "claim: micro-batching (and pool parallelism on multi-core) "
                "raises served requests/second over sequential predict()");

  // A trained model to serve.
  sim::Scenario sc;
  if (bench::full_mode()) {
    sc = bench::bench_scenario(2);  // Table II building 3
  } else {
    sim::BuildingSpec spec;
    spec.name = "bench-serve";
    spec.num_aps = 24;
    spec.path_length_m = 14;
    spec.seed = 313;
    sc = sim::make_scenario(spec, 999);
  }
  core::CallocConfig ccfg;
  ccfg.num_lessons = bench::full_mode() ? 10 : 5;
  ccfg.train.max_epochs_per_lesson = bench::full_mode() ? 10 : 6;
  core::Calloc model(ccfg);
  std::printf("training CALLOC on %s (%zu RPs, %zu APs)...\n",
              sc.building_spec.name.c_str(), sc.train.num_rps(),
              sc.train.num_aps());
  model.fit(sc.train);
  const auto weights = std::string("/tmp/bench_serve_weights.bin");
  model.save_weights(weights);
  const serve::ReplicaFactory factory = [&] {
    auto replica = std::make_unique<core::Calloc>(ccfg);
    replica->load_weights(weights, sc.train);
    return replica;
  };

  // Request stream: every device's online capture, concatenated.
  const data::FingerprintDataset traffic = sim::merged_device_capture(sc);
  const Tensor x = traffic.normalized();
  const std::size_t n_requests = bench::full_mode() ? 20000 : 2000;
  const std::size_t hw = std::max<std::size_t>(
      2, std::thread::hardware_concurrency());
  std::printf("request stream: %zu requests over %zu distinct fingerprints, "
              "%zu hardware threads\n\n", n_requests, x.rows(), hw);

  // 1. Sequential baseline: one predict() per request, no engine at all.
  const auto sequential = [&] {
    Rng rng(1);
    std::vector<double> lat;
    lat.reserve(n_requests);
    const auto t0 = Clock::now();
    Tensor one({1, x.cols()});
    for (std::size_t i = 0; i < n_requests; ++i) {
      const std::size_t row = rng.uniform_index(x.rows());
      std::copy(x.row(row).begin(), x.row(row).end(), one.data());
      const auto r0 = Clock::now();
      (void)model.predict(one);
      lat.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - r0)
              .count());
    }
    ModeReport r;
    r.name = "sequential predict()";
    r.rps = static_cast<double>(n_requests) / seconds_since(t0);
    r.p50 = percentile(lat, 50.0);
    r.p95 = percentile(lat, 95.0);
    r.p99 = percentile(lat, 99.0);
    return r;
  };

  const std::size_t num_aps = traffic.num_aps();
  struct EngineMode {
    std::string name;
    std::size_t pool, slots, max_batch;
    std::uint64_t seed;
  };
  const EngineMode modes[] = {
      // 2. One worker, no coalescing: queue/future overhead exposed.
      {"engine 1w batch=1", 1, 1, 1, 2},
      // 3. One worker, micro-batching on.
      {"engine 1w batch=32", 1, 1, 32, 3},
      // 4. Pool of hw threads, one replica slot per thread, batching on.
      {"engine " + std::to_string(hw) + "w batch=32", hw, hw, 32, 4},
  };
  // Modes 1-4 feed the throughput checks below, so each reports its best
  // of kRuns interleaved runs (the same request stream every run), as the
  // trace gate does: interference only ever slows a run down, so one
  // stall must not decide a check.
  constexpr int kRuns = 5;
  std::vector<ModeReport> reports(1 + std::size(modes));
  const auto keep_best = [](ModeReport& best, ModeReport r) {
    if (r.rps > best.rps) best = std::move(r);
  };
  for (int run = 0; run < kRuns; ++run) {
    keep_best(reports[0], sequential());
    for (std::size_t m = 0; m < std::size(modes); ++m) {
      const EngineMode& mode = modes[m];
      auto engine = make_engine(factory, num_aps, mode.pool, mode.slots,
                                mode.max_batch, 0);
      keep_best(reports[1 + m], drive(mode.name, engine, x, n_requests, 0.0,
                                      Rng(mode.seed)));
    }
  }
  // 5. Stationary-fleet traffic (70% repeats) with the LRU cache on.
  {
    auto engine = make_engine(factory, num_aps, hw, hw, 32, 1024);
    reports.push_back(drive("engine +cache (70% repeat)", engine, x,
                            n_requests, 0.7, Rng(5)));
    // Full metrics registry of the richest configuration for the CI
    // observability artifact (engine is shut down; counters are final).
    bench::append_obs_metrics("bench_serve_throughput", engine.metrics());
  }

  TextTable table({"mode", "req/s", "speedup", "p50 ms", "p95 ms", "p99 ms",
                   "mean batch", "cache hit%"});
  const double base_rps = reports.front().rps;
  for (const auto& r : reports)
    table.add_row({r.name, fmt(r.rps), fmt(r.rps / base_rps) + "x",
                   fmt(r.p50), fmt(r.p95), fmt(r.p99), fmt(r.mean_batch),
                   fmt(r.cache_hit_pct)});
  std::printf("%s\n\n", table.str().c_str());

  // Machine-readable trajectory for CI artifacts (uploaded alongside
  // BENCH_kernels.json so serving perf is tracked per commit too).
  {
    FILE* f = std::fopen("BENCH_serve.json", "w");
    if (f != nullptr) {
      std::fprintf(f, "{\n  \"bench\": \"bench_serve_throughput\",\n");
      std::fprintf(f, "  \"api\": \"ServeEngine\",\n");
      std::fprintf(f, "  \"mode\": \"%s\",\n",
                   bench::full_mode() ? "full" : "quick");
      std::fprintf(f, "  \"hw_threads\": %zu,\n  \"requests\": %zu,\n",
                   hw, n_requests);
      std::fprintf(f, "  \"modes\": [\n");
      for (std::size_t i = 0; i < reports.size(); ++i) {
        const ModeReport& r = reports[i];
        std::fprintf(
            f,
            "    {\"name\": \"%s\", \"rps\": %.1f, \"speedup\": %.2f,\n"
            "     \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f,\n"
            "     \"mean_batch\": %.2f, \"cache_hit_pct\": %.1f}%s\n",
            r.name.c_str(), r.rps, r.rps / base_rps, r.p50, r.p95, r.p99,
            r.mean_batch, r.cache_hit_pct,
            i + 1 < reports.size() ? "," : "");
      }
      std::fprintf(f, "  ]\n}\n");
      std::fclose(f);
      std::printf("wrote BENCH_serve.json\n\n");
    }
  }

  // 1.2x margin. In quick mode on a 4-vCPU x86-64 VM (240 runs with the
  // trace gate on, each mode its best of 5) the ratios measured
  // 0.80-1.57x, median 1.06x (batch=32 over sequential predict()),
  // 1.54-2.76x (over the unbatched engine path) and 0.98-1.65x, median
  // 1.21x (pooled over sequential): the first check fails there in 179
  // of 240 runs and the third in 115. Sequential predict() of this 24-AP
  // model runs 363-621k req/s on pre-packed operands, about what the
  // engine spends per request on submit, queueing and promise
  // fulfilment, so batching no longer buys the margin (see ROADMAP
  // "Engine per-request cost").
  constexpr double kMargin = 1.2;
  bool ok = true;
  ok &= bench::shape_check(reports[2].rps > kMargin * reports[0].rps,
                           "micro-batching beats sequential predict()");
  ok &= bench::shape_check(reports[2].rps > kMargin * reports[1].rps,
                           "coalescing beats the unbatched engine path");
  ok &= bench::shape_check(reports[3].rps > kMargin * reports[0].rps,
                           "pooled batched serving beats sequential");
  ok &= bench::shape_check(reports[4].cache_hit_pct > 10.0,
                           "LRU cache absorbs stationary-device repeats");

  // Tracing overhead gate (CALLOC_BENCH_TRACE_GATE=1, set by CI): the
  // flight-recorder instrumentation must cost no more than 5% of
  // throughput. Throughput noise on a shared runner is one-sided —
  // interference only ever slows a run down — so each side's best of N
  // interleaved runs is its least-disturbed measurement, and their ratio
  // is far more stable than any single on/off pair.
  if (const char* gate = std::getenv("CALLOC_BENCH_TRACE_GATE");
      gate != nullptr && std::string(gate) == "1") {
    if (!obs::kTracingCompiledIn) {
      std::printf("trace gate: tracing compiled out, nothing to measure\n");
    } else {
      const std::size_t gate_requests = n_requests / 2;
      constexpr int kGateRuns = 5;
      const auto measure = [&](bool enabled, int run) {
        obs::Tracer::instance().set_enabled(enabled);
        auto engine = make_engine(factory, num_aps, hw, hw, 32, 0);
        return drive(enabled ? "gate tracing-on" : "gate tracing-off",
                     engine, x, gate_requests, 0.0,
                     Rng((enabled ? 100 : 200) +
                         static_cast<std::uint64_t>(run)))
            .rps;
      };
      measure(true, 99);  // warm-up: page in weights, settle the pool
      double best_on = 0.0;
      double best_off = 0.0;
      for (int run = 0; run < kGateRuns; ++run) {
        best_on = std::max(best_on, measure(true, run));
        best_off = std::max(best_off, measure(false, run));
      }
      obs::Tracer::instance().set_enabled(true);
      const double ratio = best_on / best_off;
      std::printf(
          "trace gate: best-of-%d on %.0f req/s, off %.0f req/s, "
          "ratio %.3f\n",
          kGateRuns, best_on, best_off, ratio);
      ok &= bench::shape_check(ratio >= 0.95,
                               "tracing overhead within the 5% budget");
    }
  }
  std::remove(weights.c_str());
  return ok ? 0 : 1;
}

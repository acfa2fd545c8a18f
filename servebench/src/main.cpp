// serve_bench: open-loop serving benchmark of CALLOC on ServeEngine.
//
//   serve_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--scratch <dir>] [--slow-predict-us <us>]
//
// One run: set up the workload three times (traffic generation +
// Calloc::fit per venue + publish; setup_s is the median), serve a
// discarded warm-up, then measure for --seconds: latency at the
// workload's fixed Poisson rate, in segments interleaved with the rungs
// of a capacity search. Every served answer is checked against
// sequential predict() on a replica built the same way. --trace 1 adds
// the benchmark's spans and the standalone per-layer probes, reports the
// per-layer metrics instead of the end-to-end ones, and writes the spans
// to <scratch>/trace-<workload>-<seed>.json. --slow-predict-us adds a
// fixed busy-wait to every replica predict() (the benchmark's self-test).
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code: 0 when every served answer was correct, 1 when one was not,
// 2 on a usage or set-up error (no JSON printed).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "kernels/gemm.hpp"
#include "loadgen.hpp"
#include "probes.hpp"
#include "serve/engine.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace {

using namespace servebench;

constexpr int kSetups = 3;
/// Warm-up: slices at the fixed rate, discarded, until one has no failed
/// request and a send-lag p99 within kSteadyLagMs (at least 1 s, at most
/// 8 s).
constexpr double kWarmupSliceSeconds = 0.5;
constexpr int kMinWarmupSlices = 2;
constexpr int kMaxWarmupSlices = 16;
constexpr double kSteadyLagMs = 0.1;
constexpr double kRungSeconds = 1.0;
/// Share of --seconds spent at the fixed rate, in segments of about
/// kSegmentSeconds; the rest is capacity rungs.
constexpr double kFixedShare = 0.4;
constexpr double kSegmentSeconds = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string scratch = ".bench_build/run";
  long slow_predict_us = 0;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      have_seconds = *end == '\0' && a.seconds > 0.0;
    } else if (key == "--trace") {
      a.trace = val == "1";
      have_trace = val == "0" || val == "1";
    } else if (key == "--scratch") {
      a.scratch = val;
    } else if (key == "--slow-predict-us") {
      a.slow_predict_us = std::strtol(val.c_str(), &end, 10);
      if (*end != '\0' || a.slow_predict_us < 0) return false;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double pct(const std::vector<double>& xs, double q) {
  return xs.empty() ? 0.0 : cal::percentile(xs, q);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_rung(const char* label, const RungStats& st) {
  std::printf(
      "%-10s %9.0f req/s  sent %7zu  p50 %8.3f ms  p90 %8.3f ms  p98 %10.3f "
      "ms  p99 %10.3f ms  lag p99 %7.3f ms  denied %zu  not served %zu  wrong "
      "%zu\n",
      label, st.rate_rps, st.sent, st.p(50.0), st.p(90.0), st.p(98.0),
      st.p(99.0), st.lag_p99_ms(), st.denied, st.not_served, st.wrong);
}

void print_rungs(const char* label, const std::vector<Rung>& rungs) {
  for (const Rung& r : rungs)
    std::printf("%-10s %9.0f req/s  sent %7zu  p99 %10.3f ms  lag p99 %7.3f "
                "ms  queue full %zu  %s\n",
                label, r.rate_rps, r.sent, r.p99_ms, r.lag_p99_ms,
                r.queue_full, r.pass ? "pass" : "FAIL");
}

int run(const Args& a) {
  const WorkloadSpec* spec = find_workload(a.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(a.scratch);
  cal::kernels::set_max_threads(1);

  PredictProbe probe;
  SpanLog spans;
  SpanLog* trace = a.trace ? &spans : nullptr;

  // --- set-up, several times; the last deployment serves -----------------
  SetupOptions opt;
  opt.scratch_dir = a.scratch;
  opt.probe = &probe;
  opt.busy_wait = std::chrono::microseconds(a.slow_predict_us);
  opt.spans = trace;
  std::vector<double> setup_s, fit_s, traffic_s, publish_s;
  Deployment dep;
  for (int k = 0; k < kSetups; ++k) {
    dep = set_up(*spec, opt);
    setup_s.push_back(dep.times.total_s);
    fit_s.push_back(dep.times.fit_s);
    traffic_s.push_back(dep.times.traffic_s);
    publish_s.push_back(dep.times.publish_s);
    std::printf("setup %d: %.3f s (traffic %.3f s, pgd %.3f s, fit %.3f s "
                "over %zu epochs, publish %.3f s)\n",
                k + 1, dep.times.total_s, dep.times.traffic_s,
                dep.times.pgd_s, dep.times.fit_s, dep.times.epochs,
                dep.times.publish_s);
  }
  compute_expected(dep);
  std::size_t pool = 0;
  for (const Venue& v : dep.venues) pool += v.scans.rows();
  std::printf("workload %s: %zu venue(s), %zu distinct scans, seed %llu\n",
              spec->name.c_str(), dep.venues.size(), pool,
              static_cast<unsigned long long>(a.seed));

  // --- serve ---------------------------------------------------------------
  cal::serve::EngineConfig ecfg;
  ecfg.pool_size = kPoolSize;
  cal::serve::ServeEngine engine(dep.snapshot, ecfg);
  engine.reset_telemetry_clocks();
  TrafficSource traffic(*spec, dep, a.seed);
  OpenLoop gen(engine, dep, traffic, a.seed);
  const auto tracing = [&](SpanLog* s) {
    probe.spans = s;
    gen.set_spans(s);
  };

  // Warm up until the generator keeps its schedule: right after set-up a
  // virtualised host can take seconds to give all four vCPUs their cores,
  // with ms of send lag and queueing meanwhile.
  std::size_t wrong = 0;
  for (int slice = 1; slice <= kMaxWarmupSlices; ++slice) {
    const RungStats warm = gen.run(spec->rate_rps, kWarmupSliceSeconds);
    print_rung("warm-up", warm);
    wrong += warm.wrong;
    if (slice >= kMinWarmupSlices && warm.failed() == 0 &&
        pct(warm.lag_ms, 99.0) <= kSteadyLagMs)
      break;
  }
  // Set-up plus serving at the fixed rate; the capacity rungs' footprint
  // grows with the rates they happen to try.
  const double rss_mb = peak_rss_mb();

  // Fixed-rate segments interleaved with capacity rungs, so that both
  // sample the host over the whole measured window. The traced run
  // alternates its rungs between an untraced and a traced staircase.
  const double fixed_s = kFixedShare * a.seconds;
  const auto segments = static_cast<std::size_t>(
      std::max(1.0, std::round(fixed_s / kSegmentSeconds)));
  const auto total_rungs = static_cast<std::size_t>(
      std::max(1.0, std::floor((a.seconds - fixed_s) / kRungSeconds)));
  Staircase untraced(spec->capacity_start_rps);
  Staircase traced(spec->capacity_start_rps);
  RungStats fixed;
  fixed.rate_rps = spec->rate_rps;
  double batches = 0.0;
  double batched_items = 0.0;
  double screened = 0.0;
  double scanned = 0.0;
  double predict_busy_ns = 0.0;
  double predict_rows = 0.0;
  std::vector<double> predict_call_us;
  for (std::size_t seg = 0, rung = 0; seg < segments; ++seg) {
    tracing(trace);
    const cal::serve::ServiceStats before = engine.stats().aggregate;
    const double busy0 = static_cast<double>(probe.busy_ns.load());
    const double rows0 = static_cast<double>(probe.rows.load());
    const std::size_t calls0 = [&] {
      std::lock_guard<std::mutex> lock(probe.mu);
      return probe.call_us.size();
    }();
    const RungStats part = gen.run(spec->rate_rps, fixed_s / segments);
    print_rung("segment", part);
    fixed.append(part);
    const cal::serve::ServiceStats after = engine.stats().aggregate;
    batches += static_cast<double>(after.batches - before.batches);
    batched_items +=
        after.mean_batch_size * static_cast<double>(after.batches) -
        before.mean_batch_size * static_cast<double>(before.batches);
    screened += static_cast<double>(after.screened - before.screened);
    scanned +=
        static_cast<double>(after.anchors_scanned - before.anchors_scanned);
    predict_busy_ns += static_cast<double>(probe.busy_ns.load()) - busy0;
    predict_rows += static_cast<double>(probe.rows.load()) - rows0;
    {
      std::lock_guard<std::mutex> lock(probe.mu);
      predict_call_us.insert(predict_call_us.end(),
                             probe.call_us.begin() +
                                 static_cast<std::ptrdiff_t>(calls0),
                             probe.call_us.end());
    }
    for (; rung < total_rungs * (seg + 1) / segments; ++rung) {
      const bool traced_rung = a.trace && rung % 2 == 1;
      Staircase& stairs = traced_rung ? traced : untraced;
      tracing(traced_rung ? trace : nullptr);
      stairs.record(Rung(gen.run(stairs.next_rate(), kRungSeconds)));
    }
  }
  tracing(nullptr);
  engine.shutdown();
  print_rung("fixed", fixed);
  print_rungs("capacity", untraced.rungs());
  print_rungs("traced", traced.rungs());
  wrong += fixed.wrong;
  std::size_t rung_sent = 0;
  std::size_t rung_queue_full = 0;
  for (const Staircase* stairs : {&untraced, &traced}) {
    for (const Rung& r : stairs->rungs()) {
      wrong += r.wrong;
      rung_sent += r.sent;
      rung_queue_full += r.queue_full;
    }
  }
  const double capacity = untraced.estimate();

  // --- metrics -------------------------------------------------------------
  const std::size_t served = fixed.engine_ms.size();
  std::vector<Metric> metrics;
  if (!a.trace) {
    metrics = {
        {"setup_s", cal::median(setup_s), "s"},
        {"p50_ms", fixed.p(50.0), "ms"},
        {"capacity_rps", capacity, "1/s"},
        {"err_mean_m", ratio(fixed.err_sum_m,
                             static_cast<double>(fixed.localized)), "m"},
        {"err_max_m", fixed.err_max_m, "m"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    const double epochs = static_cast<double>(dep.times.epochs);
    metrics = {
        {"loadgen.lag_p99_ms", fixed.lag_p99_ms(), "ms"},
        {"loadgen.e2e_p99_ms", fixed.p(99.0), "ms"},
        {"serve.submit_us_p50", pct(fixed.submit_us, 50.0), "us"},
        {"serve.submit_us_p99", pct(fixed.submit_us, 99.0), "us"},
        {"serve.queue_full_frac",
         ratio(static_cast<double>(rung_queue_full),
               static_cast<double>(rung_sent)), "frac"},
        {"serve.engine_ms_p50", pct(fixed.engine_ms, 50.0), "ms"},
        {"serve.engine_ms_p99", pct(fixed.engine_ms, 99.0), "ms"},
        {"serve.batch_mean", ratio(batched_items, batches), "rows"},
        {"serve.screen_us", screen_us(dep), "us"},
        {"serve.anchors_scanned_mean", ratio(scanned, screened), "count"},
        {"serve.flag_frac", ratio(static_cast<double>(fixed.flagged),
                                  static_cast<double>(served)), "frac"},
        {"serve.cache_hit_frac", ratio(static_cast<double>(fixed.from_cache),
                                       static_cast<double>(served)), "frac"},
        {"serve.cache_us", cache_us(*spec, dep), "us"},
        {"core.predict_us_p50", pct(predict_call_us, 50.0), "us"},
        {"core.predict_us_per_row", ratio(predict_busy_ns, predict_rows) / 1e3,
         "us"},
        {"core.predict_share",
         ratio(predict_busy_ns,
               static_cast<double>(kPoolSize) * fixed.wall_s * 1e9), "frac"},
        {"core.fit_s", cal::median(fit_s), "s"},
        {"core.epochs", epochs, "count"},
        {"core.s_per_epoch", ratio(cal::median(fit_s), epochs), "s"},
        {"setup.traffic_s", cal::median(traffic_s), "s"},
        {"setup.publish_s", cal::median(publish_s), "s"},
        {"attacks.fgsm_ms", fgsm_ms(dep), "ms"},
        {"attacks.pgd_ms", pgd_ms(dep), "ms"},
        {"kernels.gemm_fp32_gflops", gemm_fp32_gflops(dep), "GFLOP/s"},
        {"kernels.gemm_s8_gflops", gemm_s8_gflops(dep), "GFLOP/s"},
        {"core.weight_bytes", static_cast<double>(dep.weight_bytes), "B"},
        {"bench.trace_overhead_frac",
         capacity > 0.0 ? 1.0 - traced.estimate() / capacity : 0.0, "frac"},
    };
  }

  const std::size_t failed = fixed.failed() + (wrong - fixed.wrong);
  std::printf("fail_frac %.6g (%zu of %zu fixed-rate requests; %zu wrong "
              "answers in all phases)\n",
              ratio(static_cast<double>(failed),
                    static_cast<double>(fixed.sent)),
              failed, fixed.sent, wrong);
  for (const Metric& m : metrics)
    std::printf("%-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  if (a.trace) {
    const std::string path = a.scratch + "/trace-" + spec->name + "-" +
                             std::to_string(a.seed) + ".json";
    if (spans.write_chrome_trace(path))
      std::printf("trace written to %s\n", path.c_str());
  }
  for (const std::string& f : dep.weight_files) std::filesystem::remove(f);

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              wrong == 0 ? "true" : "false", fixed.sent, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  return wrong == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--scratch <dir>] [--slow-predict-us "
                 "<us>]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_bench: %s\n", e.what());
    return 2;
  }
}

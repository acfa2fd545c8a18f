// Observability tests: histogram quantile error bounds and merge algebra,
// tracer concurrency (no torn events under concurrent snapshots — the
// CI sanitizer matrix runs this whole suite under TSan), flight-recorder
// trip/dump/rate-limit behaviour, structured logfmt encoding, and the
// metrics registry's Prometheus/JSON exposition.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace cal;
using namespace cal::obs;

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Exact nearest-rank order statistic, the estimator the histogram's
/// quantile() documents itself against.
double exact_quantile(std::vector<double> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  const auto n = sorted.size();
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))));
  return sorted[rank - 1];
}

void expect_quantiles_within_bound(const std::vector<double>& values,
                                   const std::string& what) {
  Histogram h;
  for (const double v : values) h.record(v);
  ASSERT_EQ(h.count(), values.size());
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    const double exact = exact_quantile(values, q);
    const double approx = h.quantile(q);
    EXPECT_LE(std::abs(approx - exact),
              Histogram::kRelativeError * std::abs(exact) + 1e-12)
        << what << ": q=" << q << " exact=" << exact
        << " approx=" << approx;
  }
}

TEST(Histogram, QuantileBoundUniform) {
  std::mt19937_64 gen(11);
  std::uniform_real_distribution<double> dist(0.01, 500.0);
  std::vector<double> values(20000);
  for (double& v : values) v = dist(gen);
  expect_quantiles_within_bound(values, "uniform");
}

TEST(Histogram, QuantileBoundLognormalTail) {
  // Heavy-tailed — the distribution latencies actually follow; exercises
  // many octaves at once.
  std::mt19937_64 gen(12);
  std::lognormal_distribution<double> dist(1.0, 2.0);
  std::vector<double> values(20000);
  for (double& v : values) v = dist(gen);
  expect_quantiles_within_bound(values, "lognormal");
}

TEST(Histogram, QuantileBoundAdversarial) {
  // All-identical values: every quantile must be exactly that value
  // (midpoint clamped to [min,max] == the value).
  expect_quantiles_within_bound(std::vector<double>(1000, 3.7),
                                "constant");
  // Exact powers of two sit on bucket boundaries.
  std::vector<double> powers;
  for (int e = -8; e <= 20; ++e) powers.push_back(std::ldexp(1.0, e));
  expect_quantiles_within_bound(powers, "powers-of-two");
  // Two-point mass at opposite ends of the range.
  std::vector<double> bimodal;
  for (int i = 0; i < 500; ++i) bimodal.push_back(0.004);
  for (int i = 0; i < 500; ++i) bimodal.push_back(40000.0);
  expect_quantiles_within_bound(bimodal, "bimodal");
  // Dense cluster plus a single extreme outlier: p100 must clamp to the
  // exact max, p50 must stay in the cluster.
  std::vector<double> outlier(999, 1.0);
  outlier.push_back(1.0e6);
  expect_quantiles_within_bound(outlier, "outlier");
}

TEST(Histogram, OutOfRangeValuesClampToEdgeBuckets) {
  Histogram h;
  const double tiny = Histogram::min_tracked() / 1000.0;
  const double huge = Histogram::max_tracked() * 1000.0;
  h.record(tiny);
  h.record(huge);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), tiny);
  EXPECT_EQ(h.max(), huge);
  // Quantiles clamp to the observed extremes, so even clamped-bucket
  // values report honestly.
  EXPECT_EQ(h.quantile(0.0), tiny);
  EXPECT_EQ(h.quantile(1.0), huge);
}

TEST(Histogram, NanRecordedSeparately) {
  Histogram h;
  h.record(1.0);
  h.record(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.nan_count(), 1u);
  EXPECT_EQ(h.quantile(0.5), 1.0);
}

TEST(Histogram, EmptyIsZeroes) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_TRUE(h.nonzero_buckets().empty());
}

std::vector<double> random_values(std::uint64_t seed, std::size_t n) {
  std::mt19937_64 gen(seed);
  std::lognormal_distribution<double> dist(0.0, 1.5);
  std::vector<double> out(n);
  for (double& v : out) v = dist(gen);
  return out;
}

Histogram hist_of(const std::vector<double>& values) {
  Histogram h;
  for (const double v : values) h.record(v);
  return h;
}

void expect_same_histogram(const Histogram& a, const Histogram& b) {
  EXPECT_EQ(a.count(), b.count());
  // Bucket counts merge exactly; the running sums are doubles, so
  // different addition orders differ by a few ULPs.
  EXPECT_NEAR(a.sum(), b.sum(), 1e-12 * std::abs(a.sum()) + 1e-12);
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  const auto ba = a.nonzero_buckets();
  const auto bb = b.nonzero_buckets();
  ASSERT_EQ(ba.size(), bb.size());
  for (std::size_t i = 0; i < ba.size(); ++i) {
    EXPECT_EQ(ba[i].upper, bb[i].upper);
    EXPECT_EQ(ba[i].count, bb[i].count) << "bucket " << i;
  }
}

TEST(Histogram, MergeIsAssociativeAndCommutative) {
  const auto va = random_values(1, 700);
  const auto vb = random_values(2, 1300);
  const auto vc = random_values(3, 250);

  // (a + b) + c
  Histogram left = hist_of(va);
  left.merge(hist_of(vb));
  left.merge(hist_of(vc));
  // a + (b + c)
  Histogram bc = hist_of(vb);
  bc.merge(hist_of(vc));
  Histogram right = hist_of(va);
  right.merge(bc);
  expect_same_histogram(left, right);

  // c + b + a (commuted)
  Histogram commuted = hist_of(vc);
  commuted.merge(hist_of(vb));
  commuted.merge(hist_of(va));
  expect_same_histogram(left, commuted);
}

TEST(Histogram, MergedShardsEqualOneStream) {
  // The property aggregate_stats() relies on: per-shard histograms merged
  // together are bucket-identical to one histogram of the whole stream.
  const auto all = random_values(4, 3000);
  Histogram whole = hist_of(all);
  Histogram shard_a;
  Histogram shard_b;
  for (std::size_t i = 0; i < all.size(); ++i)
    (i % 3 == 0 ? shard_a : shard_b).record(all[i]);
  shard_a.merge(shard_b);
  expect_same_histogram(whole, shard_a);
  // And the merged tails are quantiles of the union.
  for (const double q : {0.5, 0.95, 0.99}) {
    const double exact = exact_quantile(all, q);
    EXPECT_LE(std::abs(shard_a.quantile(q) - exact),
              Histogram::kRelativeError * exact + 1e-12);
  }
}

TEST(Histogram, MergeWithEmptyIsIdentity) {
  const auto values = random_values(5, 400);
  Histogram h = hist_of(values);
  h.merge(Histogram{});
  expect_same_histogram(h, hist_of(values));
  Histogram onto_empty;
  onto_empty.merge(h);
  expect_same_histogram(onto_empty, h);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(Tracer, ConcurrentProducersAndSnapshotsNeverTear) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(true);

  // Each producer writes events whose words satisfy an invariant
  // (value == batch * 3.0, epoch == tenant + 1). A torn read — payload
  // words from two different events — breaks it. The tag marks this
  // test's events so concurrent suites can't confuse the check.
  constexpr std::uint64_t kTag = 0xFEEDFACEULL;
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kEvents = 20000;

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const ThreadTrace& t : tracer.snapshot()) {
        for (const TraceEvent& ev : t.events) {
          if (ev.tenant != kTag) continue;
          EXPECT_EQ(ev.epoch, ev.batch + 1) << "torn event";
          EXPECT_EQ(ev.value, static_cast<double>(ev.batch) * 3.0)
              << "torn event";
        }
      }
    }
  });

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kEvents; ++i)
        tracer.record(EventType::Complete, kTag, i + 1, i,
                      static_cast<double>(i) * 3.0);
    });
  }
  for (auto& t : producers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  // Post-join accounting: every producer's events are either readable or
  // counted dropped — nothing silently vanishes.
  std::uint64_t visible = 0;
  std::uint64_t recorded = 0;
  for (const ThreadTrace& t : tracer.snapshot()) {
    bool ours = false;
    for (const TraceEvent& ev : t.events) ours = ours || ev.tenant == kTag;
    if (!ours) continue;
    visible += t.events.size();
    recorded += t.recorded;
    EXPECT_EQ(t.events.size() + t.dropped, t.recorded);
    // Within one thread the ring is ordered oldest -> newest.
    for (std::size_t i = 1; i < t.events.size(); ++i)
      EXPECT_LE(t.events[i - 1].ts_ns, t.events[i].ts_ns);
  }
  EXPECT_GE(recorded, kProducers * kEvents);
  EXPECT_GT(visible, 0u);
}

TEST(Tracer, RuntimeDisableStopsRecording) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  Tracer& tracer = Tracer::instance();
  const std::uint64_t before = tracer.totals().recorded;
  tracer.set_enabled(false);
  CAL_TRACE_EVENT(EventType::Admit, 1, 1, 0, 0.0);
  EXPECT_EQ(tracer.totals().recorded, before);
  tracer.set_enabled(true);
  CAL_TRACE_EVENT(EventType::Admit, 1, 1, 0, 0.0);
  EXPECT_EQ(tracer.totals().recorded, before + 1);
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

TEST(FlightRecorder, TripDumpsAndRateLimits) {
  FlightRecorderConfig cfg;
  cfg.last_n = 16;
  cfg.min_interval_ns = std::numeric_limits<std::uint64_t>::max();
  FlightRecorder rec(cfg);
  EXPECT_EQ(rec.trips(), 0u);
  EXPECT_FALSE(rec.last_dump().has_value());

  EXPECT_TRUE(rec.trip("first", {{"why", "test"}}));
  ASSERT_TRUE(rec.last_dump().has_value());
  EXPECT_EQ(rec.last_dump()->reason, "first");
  // Inside the (infinite) rate-limit window: counted, not dumped.
  EXPECT_FALSE(rec.trip("second"));
  EXPECT_EQ(rec.trips(), 2u);
  EXPECT_EQ(rec.dumps(), 1u);
  EXPECT_EQ(rec.last_dump()->reason, "first");
}

TEST(FlightRecorder, DumpFreezesRecentEvents) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  Tracer::instance().set_enabled(true);
  constexpr std::uint64_t kTag = 0xBEEFBEEFULL;
  for (int i = 0; i < 5; ++i)
    CAL_TRACE_EVENT(EventType::Predict, kTag, 7, 1, 2.0);
  FlightRecorder rec;
  ASSERT_TRUE(rec.trip("freeze"));
  const FlightDump dump = *rec.last_dump();
  EXPECT_GT(dump.total_events(), 0u);
  std::size_t tagged = 0;
  bool anomaly_marker = false;
  for (const ThreadTrace& t : dump.threads)
    for (const TraceEvent& ev : t.events) {
      if (ev.tenant == kTag && ev.type == EventType::Predict) ++tagged;
      anomaly_marker = anomaly_marker || ev.type == EventType::Anomaly;
    }
  EXPECT_GE(tagged, 5u) << "the tripped dump must hold the lead-up events";
  EXPECT_TRUE(anomaly_marker) << "trip marks the timeline";
}

// ---------------------------------------------------------------------------
// Structured logging
// ---------------------------------------------------------------------------

TEST(StructuredLog, LogfmtQuotingAndEscaping) {
  const std::vector<LogField> fields{
      {"plain", "bare"},
      {"count", 42},
      {"ratio", 0.5},
      {"flag", true},
      {"spaced", "two words"},
      {"quoted", "say \"hi\""},
      {"eq", "k=v"},
      {"empty", ""},
  };
  const std::string line = format_log_fields(fields);
  EXPECT_EQ(line,
            "plain=bare count=42 ratio=0.5 flag=true "
            "spaced=\"two words\" quoted=\"say \\\"hi\\\"\" "
            "eq=\"k=v\" empty=\"\"");
}

TEST(StructuredLog, NewlinesCannotBreakTheLine) {
  const std::vector<LogField> fields{{"msg", "line1\nline2"}};
  const std::string line = format_log_fields(fields);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line, "msg=\"line1\\nline2\"");
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(Metrics, PrometheusTextExposition) {
  MetricsRegistry reg;
  reg.add_counter("cal_test_requests_total", "Requests",
                  {{"tenant", "a/0:*"}, {"outcome", "ok"}}, 5);
  reg.add_counter("cal_test_requests_total", "Requests",
                  {{"tenant", "a/0:*"}, {"outcome", "shed"}}, 2);
  reg.add_gauge("cal_test_depth", "Queue depth", {}, 3);
  Histogram h;
  for (const double v : {1.0, 2.0, 4.0, 8.0, 100.0}) h.record(v);
  reg.add_histogram("cal_test_latency_ms", "Latency", {}, h);

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# HELP cal_test_requests_total Requests\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE cal_test_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "cal_test_requests_total{tenant=\"a/0:*\",outcome=\"ok\"} 5\n"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE cal_test_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("cal_test_depth 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cal_test_latency_ms histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("cal_test_latency_ms_bucket{le=\"+Inf\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("cal_test_latency_ms_count 5\n"), std::string::npos);
  EXPECT_NE(text.find("cal_test_latency_ms_sum 115\n"), std::string::npos);

  // Scrape round-trip: walk the bucket lines; cumulative counts must be
  // non-decreasing and end at _count.
  std::istringstream is(text);
  std::string line;
  long long prev = -1;
  long long last = -1;
  std::size_t bucket_lines = 0;
  while (std::getline(is, line)) {
    if (line.rfind("cal_test_latency_ms_bucket", 0) != 0) continue;
    ++bucket_lines;
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos);
    const long long cum = std::stoll(line.substr(space + 1));
    EXPECT_GE(cum, prev) << "cumulative le-buckets must be monotone";
    prev = cum;
    last = cum;
  }
  EXPECT_GE(bucket_lines, 2u);
  EXPECT_EQ(last, 5);
}

TEST(Metrics, LabelValueEscaping) {
  MetricsRegistry reg;
  reg.add_gauge("cal_test_g", "g", {{"path", "a\\b\"c\nd"}}, 1);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("cal_test_g{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(Metrics, JsonExport) {
  MetricsRegistry reg;
  reg.add_counter("cal_test_total", "Total", {{"tenant", "x"}}, 7);
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  reg.add_histogram("cal_test_ms", "ms", {}, h);
  const std::string json = reg.json();
  EXPECT_NE(json.find("\"name\":\"cal_test_total\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"x\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":7"), std::string::npos);
  EXPECT_NE(json.find("\"count\":100"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":["), std::string::npos);
}

TEST(Metrics, ValuesPastInt64RangeFormatInBothEncodings) {
  // |v| >= 2^63 has no int64_t value: the integer shortcut must not cast
  // it (undefined behaviour, caught by UBSan's float-cast-overflow).
  MetricsRegistry reg;
  reg.add_gauge("cal_test_huge", "Huge", {{"sign", "pos"}}, 1e20);
  reg.add_gauge("cal_test_huge", "Huge", {{"sign", "neg"}}, -1e20);
  Histogram h;
  h.record(1e19);
  h.record(1e19);
  ASSERT_GT(h.sum(), std::ldexp(1.0, 63));
  reg.add_histogram("cal_test_big", "Big", {}, h);

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("cal_test_huge{sign=\"pos\"} 1e+20\n"),
            std::string::npos);
  EXPECT_NE(text.find("cal_test_huge{sign=\"neg\"} -1e+20\n"),
            std::string::npos);
  EXPECT_NE(text.find("cal_test_big_sum 2e+19\n"), std::string::npos);
  EXPECT_NE(text.find("cal_test_big_count 2\n"), std::string::npos);

  const std::string json = reg.json();
  EXPECT_NE(json.find("\"value\":1e+20"), std::string::npos);
  EXPECT_NE(json.find("\"value\":-1e+20"), std::string::npos);
  EXPECT_NE(json.find("\"sum\":2e+19"), std::string::npos);
}

TEST(Metrics, FindMatchesLabelSubset) {
  MetricsRegistry reg;
  reg.add_counter("cal_test_total", "Total",
                  {{"tenant", "x"}, {"outcome", "ok"}}, 3);
  reg.add_counter("cal_test_total", "Total",
                  {{"tenant", "y"}, {"outcome", "ok"}}, 4);
  const MetricSample* x = reg.find("cal_test_total", {{"tenant", "x"}});
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->value, 3.0);
  EXPECT_EQ(reg.find("cal_test_total", {{"tenant", "z"}}), nullptr);
  EXPECT_EQ(reg.find("cal_missing"), nullptr);
}

TEST(Metrics, RejectsBadNamesAndTypeConflicts) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.add_counter("0bad", "h", {}, 1), std::invalid_argument);
  EXPECT_THROW(reg.add_counter("has space", "h", {}, 1),
               std::invalid_argument);
  EXPECT_THROW(reg.add_counter("ok_name", "h", {{"0bad", "v"}}, 1),
               std::invalid_argument);
  reg.add_counter("cal_dual", "h", {}, 1);
  EXPECT_THROW(reg.add_gauge("cal_dual", "h", {}, 1),
               std::invalid_argument);
  EXPECT_THROW(reg.add_counter("cal_dual", "different help", {}, 1),
               std::invalid_argument);
}

}  // namespace

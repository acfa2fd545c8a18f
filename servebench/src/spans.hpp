// In-memory span recorder for the traced benchmark run.
//
// Spans are taken by the benchmark's own code around the calls it makes
// into the library (submit, predict, fit, publish, attack crafting), kept
// in memory while the run lasts, and written out once at exit as a Chrome
// trace-event JSON file (open it in Perfetto or chrome://tracing). Each
// span carries the id of the request or phase it belongs to, so the spans
// of one request can be joined.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

class SpanLog {
 public:
  /// Spans kept per name; later ones are counted but not stored, so a
  /// 10-second run at 100k req/s writes a file of bounded size.
  static constexpr std::size_t kMaxPerName = 20000;

  SpanLog();

  /// Record [start, end) under `name` (a string literal). `id` joins the
  /// spans of one request or phase; `lane` is the trace row it is drawn on
  /// (0 = load generator, 1.. = model replicas). Thread-safe.
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           std::uint64_t id = 0, std::uint32_t lane = 0);

  /// Write every stored span as Chrome trace events. Returns false when
  /// the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::uint64_t id;
    std::uint32_t lane;
  };

  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::unordered_map<const char*, std::size_t> per_name_;
  std::size_t dropped_ = 0;
};

}  // namespace servebench

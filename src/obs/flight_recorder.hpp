// Flight recorder: freeze-and-dump of the tracer's recent history when an
// anomaly trips.
//
// The tracer's rings are always running; the recorder is the policy layer
// that decides when their contents are worth keeping. trip() takes an
// immutable copy of the newest last_n events of every thread (the
// "freeze" — rings keep recording, the dump can't be overwritten), stores
// it for programmatic retrieval, and emits a machine-parseable structured
// log line (plus optional per-event lines) so an operator tailing stderr
// sees WHAT tripped and the timeline that led up to it.
//
// Engine wiring (serve/engine.cpp) trips on: replica slot quarantine
// (always) and deploys (optionally) — see ObsConfig. Trips are
// rate-limited: a replica that keeps faulting must not turn the log into
// a firehose.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/hot_path_annotations.hpp"
#include "common/log.hpp"
#include "common/thread_annotations.hpp"
#include "obs/trace.hpp"

namespace cal::obs {

struct FlightRecorderConfig {
  /// Newest events per thread captured by a dump (0 = the whole ring).
  std::size_t last_n = 256;
  /// Minimum nanoseconds between dumps; trips inside the window are
  /// counted but do not dump. 0 = every trip dumps.
  std::uint64_t min_interval_ns = 0;
  /// Also emit one Debug-level structured line per captured event (the
  /// header line is always emitted at Warn). Off by default: a dump can
  /// hold thousands of events.
  bool log_events = false;
};

/// One frozen capture.
struct FlightDump {
  std::string reason;
  std::uint64_t trip_ns = 0;  ///< tracer clock at trip time
  std::vector<ThreadTrace> threads;

  std::size_t total_events() const;
};

/// Thread-safe. One per engine; trips snapshot the process-wide tracer.
class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig cfg = {});

  /// Record an anomaly. Returns true when a dump was taken (false while
  /// rate-limited). `fields` are appended to the structured header line —
  /// pass the numbers that justify the trip (observed p99, threshold...).
  // Audited: trip() is called from hot-path roots (submit, process) but
  // is rate-limited by min_interval and deliberately synchronous — the
  // whole point of an anomaly dump is that it is on disk before the
  // process degrades further. The snapshot allocation and stderr write
  // are bounded by the rate limit; bench_serve_chaos gates the cost.
  CAL_LINT_SUPPRESS(block, "rate-limited anomaly dump is synchronous by design")
  bool trip(std::string_view reason, std::span<const LogField> fields = {})
      CAL_EXCLUDES(mu_);
  CAL_LINT_SUPPRESS(block, "rate-limited anomaly dump is synchronous by design")
  bool trip(std::string_view reason, std::initializer_list<LogField> fields)
      CAL_EXCLUDES(mu_) {
    return trip(reason,
                std::span<const LogField>(fields.begin(), fields.size()));
  }

  std::size_t trips() const CAL_EXCLUDES(mu_);
  std::size_t dumps() const CAL_EXCLUDES(mu_);
  /// The most recent frozen capture, if any trip has dumped.
  std::optional<FlightDump> last_dump() const CAL_EXCLUDES(mu_);

 private:
  const FlightRecorderConfig cfg_;
  mutable Mutex mu_;
  std::size_t trips_ CAL_GUARDED_BY(mu_) = 0;
  std::size_t dumps_ CAL_GUARDED_BY(mu_) = 0;
  std::uint64_t last_dump_ns_ CAL_GUARDED_BY(mu_) = 0;
  std::optional<FlightDump> dump_ CAL_GUARDED_BY(mu_);
};

}  // namespace cal::obs

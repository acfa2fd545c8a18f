// Open-loop load generator and capacity search.
//
// One generator thread sends requests to ServeEngine::submit at seeded
// Poisson arrival times, whatever the engine's state: a stall delays no
// send, it only makes later requests wait. Each request is timed from its
// SCHEDULED send time to fulfilment,
//
//   e2e = (submit return - scheduled send) + ServeResult::latency_ms,
//
// where latency_ms runs from the engine's admission timestamp (taken
// inside submit) to fulfilment. Typed denials are counted, never retried,
// and count as missing every latency limit. Every served answer is checked
// against the reference answers computed in set-up.
#pragma once

#include <cstddef>
#include <vector>

#include "serve/engine.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace servebench {

/// Latency recorded for a request that was denied, not served, or served
/// a wrong answer: it misses every limit.
inline constexpr double kFailedMs = 1e6;

/// Limits a capacity rung must meet.
inline constexpr double kCapacityP99Ms = 5.0;
/// Generator lag p99 beyond which the rung did not offer its rate.
inline constexpr double kMaxLagP99Ms = 1.0;

struct RungStats {
  double rate_rps = 0.0;
  double wall_s = 0.0;          ///< first send to last send
  std::size_t sent = 0;
  std::size_t denied = 0;       ///< any Admission other than Accepted
  std::size_t queue_full = 0;   ///< Admission::QueueFull
  std::size_t not_served = 0;   ///< accepted, status other than Served
  std::size_t wrong = 0;        ///< served, answer differs from reference
  std::size_t localized = 0;
  std::size_t flagged = 0;
  std::size_t from_cache = 0;
  double err_sum_m = 0.0;
  double err_max_m = 0.0;
  std::vector<double> e2e_ms;     ///< per request; failures = kFailedMs
  std::vector<double> engine_ms;  ///< ServeResult::latency_ms, served only
  std::vector<double> lag_ms;     ///< actual - scheduled send, per request
  std::vector<double> submit_us;  ///< wall time of submit(), per request

  std::size_t failed() const { return denied + not_served + wrong; }
  /// Merge another phase's requests into this one.
  void append(const RungStats& other);
  double p(double q) const;  ///< percentile of e2e_ms over the whole phase
  double lag_p99_ms() const;  ///< p99 of the generator's send lag
  /// Meets the capacity limits: p(99) within kCapacityP99Ms, no request
  /// failed, and the generator kept its schedule.
  bool passes() const;
};

class OpenLoop {
 public:
  OpenLoop(cal::serve::ServeEngine& engine, const Deployment& dep,
           TrafficSource& traffic, std::uint64_t seed);

  /// Spans of submit() and of each request (scheduled send -> fulfilment)
  /// go to `spans` while set; nullptr turns them off.
  void set_spans(SpanLog* spans) { spans_ = spans; }

  /// Offer `rate_rps` for `seconds`, then wait for every answer.
  RungStats run(double rate_rps, double seconds);

 private:
  cal::serve::ServeEngine* engine_;
  const Deployment* dep_;
  TrafficSource* traffic_;
  cal::Rng gaps_;
  SpanLog* spans_ = nullptr;
  std::uint64_t next_id_ = 1;
};

/// Summary of one capacity rung.
struct Rung {
  explicit Rung(const RungStats& st);

  double rate_rps = 0.0;
  bool pass = false;
  double p99_ms = 0.0;
  double lag_p99_ms = 0.0;
  std::size_t sent = 0;
  std::size_t queue_full = 0;
  std::size_t wrong = 0;
};

/// Capacity search: finds the offered rate at which a rung passes() half
/// of the time. Rungs grow (or shrink) by 25% from `start_rps` until one
/// rate passes and one fails twice in a row; then an up-down staircase
/// starts at their geometric midpoint, going up 4% after a pass and down
/// 4% after a failure, so it settles around the knee. The estimate is the
/// geometric mean of the staircase's rates, which averages out
/// rung-to-rung noise that would send a bisection astray.
class Staircase {
 public:
  explicit Staircase(double start_rps);

  double next_rate() const { return rate_; }
  void record(const Rung& r);
  /// The staircase's geometric mean; before it starts, the last passing
  /// rate (0 if none passed).
  double estimate() const;
  const std::vector<Rung>& rungs() const { return rungs_; }

 private:
  double rate_;
  double last_pass_ = 0.0;
  double last_fail_ = 0.0;
  bool bracketed_ = false;
  bool retrying_ = false;  ///< re-running a bracket rung that failed
  double log_rate_sum_ = 0.0;
  std::size_t staircase_rungs_ = 0;
  std::vector<Rung> rungs_;
};

}  // namespace servebench

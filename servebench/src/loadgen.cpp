#include "loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <future>

#include "common/stats.hpp"

namespace servebench {

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

double RungStats::p(double q) const {
  return e2e_ms.empty() ? 0.0 : cal::percentile(e2e_ms, q);
}

double RungStats::lag_p99_ms() const {
  return lag_ms.empty() ? 0.0 : cal::percentile(lag_ms, 99.0);
}

bool RungStats::passes() const {
  return sent > 0 && failed() == 0 && p(99.0) <= kCapacityP99Ms &&
         lag_p99_ms() <= kMaxLagP99Ms;
}

OpenLoop::OpenLoop(cal::serve::ServeEngine& engine, const Deployment& dep,
                   TrafficSource& traffic, std::uint64_t seed)
    : engine_(&engine),
      dep_(&dep),
      traffic_(&traffic),
      gaps_(seed ^ 0x90155011ULL) {}

RungStats OpenLoop::run(double rate_rps, double seconds) {
  RungStats st;
  st.rate_rps = rate_rps;

  // The schedule and the requests are drawn before the first send, so
  // the send loop does nothing but wait, copy and submit.
  std::vector<double> due_s;
  std::vector<TrafficSource::Pick> picks;
  for (double t = 0.0;;) {
    t += -std::log1p(-gaps_.uniform()) / rate_rps;
    if (t >= seconds) break;
    due_s.push_back(t);
    picks.push_back(traffic_->next());
  }
  const std::size_t n = due_s.size();
  std::vector<std::future<cal::serve::ServeResult>> futures(n);
  std::vector<cal::serve::Admission> admission(n);
  std::vector<double> return_ms(n);  // submit return - scheduled send
  st.lag_ms.resize(n);
  st.submit_us.resize(n);
  const std::uint64_t first_id = next_id_;
  next_id_ += n;

  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const auto due_at = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s[i]));
  };
  for (std::size_t i = 0; i < n; ++i) {
    const auto due = due_at(i);
    auto now = Clock::now();
    while (now < due) now = Clock::now();
    const Venue& venue = dep_->venues[picks[i].venue];
    const auto row = venue.scans.row(picks[i].row);
    std::vector<float> fingerprint(row.begin(), row.end());
    const auto t_call = Clock::now();
    auto sub = engine_->submit(venue.key, std::move(fingerprint));
    const auto t_ret = Clock::now();
    st.lag_ms[i] = ms_between(due, now);
    st.submit_us[i] = ms_between(t_call, t_ret) * 1e3;
    return_ms[i] = ms_between(due, t_ret);
    admission[i] = sub.admission;
    futures[i] = std::move(sub.result);
    if (spans_ != nullptr) spans_->add("submit", t_call, t_ret, first_id + i);
  }
  st.sent = n;
  if (n > 0) st.wall_s = ms_between(due_at(0), due_at(n - 1)) / 1e3;

  st.e2e_ms.resize(n, kFailedMs);
  st.engine_ms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const cal::serve::ServeResult r = futures[i].get();
    if (admission[i] != cal::serve::Admission::Accepted) {
      ++st.denied;
      if (admission[i] == cal::serve::Admission::QueueFull) ++st.queue_full;
      continue;
    }
    if (r.status != cal::serve::ServeStatus::Served) {
      ++st.not_served;
      continue;
    }
    const Venue& venue = dep_->venues[picks[i].venue];
    const std::size_t row = picks[i].row;
    const cal::serve::Verdict verdict = venue.expected_verdict[row];
    const bool localize = verdict != cal::serve::Verdict::Reject;
    if (r.verdict != verdict || r.localized != localize ||
        (localize && r.rp != venue.expected_rp[row])) {
      ++st.wrong;
      continue;
    }
    st.e2e_ms[i] = return_ms[i] + r.latency_ms;
    st.engine_ms.push_back(r.latency_ms);
    if (r.verdict == cal::serve::Verdict::Flag) ++st.flagged;
    if (r.from_cache) ++st.from_cache;
    if (r.localized) {
      const double err = cal::data::distance_m(
          venue.rp_positions[r.rp], venue.rp_positions[venue.truth[row]]);
      st.err_sum_m += err;
      st.err_max_m = std::max(st.err_max_m, err);
      ++st.localized;
    }
    if (spans_ != nullptr) {
      const auto due = due_at(i);
      spans_->add("request", due,
                  due + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                st.e2e_ms[i])),
                  first_id + i);
    }
  }
  return st;
}

void RungStats::append(const RungStats& o) {
  wall_s += o.wall_s;
  sent += o.sent;
  denied += o.denied;
  queue_full += o.queue_full;
  not_served += o.not_served;
  wrong += o.wrong;
  localized += o.localized;
  flagged += o.flagged;
  from_cache += o.from_cache;
  err_sum_m += o.err_sum_m;
  err_max_m = std::max(err_max_m, o.err_max_m);
  const auto extend = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  extend(e2e_ms, o.e2e_ms);
  extend(engine_ms, o.engine_ms);
  extend(lag_ms, o.lag_ms);
  extend(submit_us, o.submit_us);
}

Rung::Rung(const RungStats& st)
    : rate_rps(st.rate_rps),
      pass(st.passes()),
      p99_ms(st.p(99.0)),
      lag_p99_ms(st.lag_p99_ms()),
      sent(st.sent),
      queue_full(st.queue_full),
      wrong(st.wrong) {}

Staircase::Staircase(double start_rps) : rate_(start_rps) {}

void Staircase::record(const Rung& r) {
  constexpr double kBracketStep = 1.25;
  constexpr double kStaircaseStep = 1.04;
  rungs_.push_back(r);
  if (bracketed_) {
    log_rate_sum_ += std::log(r.rate_rps);
    ++staircase_rungs_;
    rate_ = r.pass ? r.rate_rps * kStaircaseStep : r.rate_rps / kStaircaseStep;
    return;
  }
  // A host stall can fail a rung at any rate, and a bracket set too low
  // drags the whole staircase down: a bracket rung that fails is run
  // again, and only a second failure at the same rate counts.
  if (!r.pass && !retrying_) {
    retrying_ = true;
    return;
  }
  retrying_ = false;
  (r.pass ? last_pass_ : last_fail_) = r.rate_rps;
  if (last_pass_ > 0.0 && last_fail_ > 0.0) {
    bracketed_ = true;
    rate_ = std::sqrt(last_pass_ * last_fail_);
  } else {
    rate_ = r.pass ? r.rate_rps * kBracketStep : r.rate_rps / kBracketStep;
  }
}

double Staircase::estimate() const {
  if (staircase_rungs_ > 0)
    return std::exp(log_rate_sum_ / static_cast<double>(staircase_rungs_));
  return last_pass_;
}

}  // namespace servebench

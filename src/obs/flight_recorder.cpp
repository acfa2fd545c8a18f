#include "obs/flight_recorder.hpp"

#include <utility>

namespace cal::obs {

std::size_t FlightDump::total_events() const {
  std::size_t n = 0;
  for (const ThreadTrace& t : threads) n += t.events.size();
  return n;
}

FlightRecorder::FlightRecorder(FlightRecorderConfig cfg) : cfg_(cfg) {}

bool FlightRecorder::trip(std::string_view reason,
                          std::span<const LogField> fields) {
  Tracer& tracer = Tracer::instance();
  const std::uint64_t now = tracer.now_ns();
  {
    MutexLock lock(mu_);
    ++trips_;
    if (dumps_ > 0 && now - last_dump_ns_ < cfg_.min_interval_ns)
      return false;
    ++dumps_;
    last_dump_ns_ = now;
  }
  // Mark the trip in the timeline itself, then freeze. The snapshot (and
  // the logging below) run outside mu_ so a slow stderr cannot stall a
  // worker thread that trips concurrently — it will just rate-limit.
  CAL_TRACE_EVENT(EventType::Anomaly, 0, 0, 0, 0.0);
  FlightDump dump;
  dump.reason = std::string(reason);
  dump.trip_ns = now;
  dump.threads = tracer.snapshot(cfg_.last_n);

  std::vector<LogField> header;
  header.emplace_back("reason", dump.reason);
  header.emplace_back("trip_ns", dump.trip_ns);
  header.emplace_back("threads", dump.threads.size());
  header.emplace_back("events", dump.total_events());
  for (const LogField& f : fields) header.push_back(f);
  log_structured(LogLevel::Warn, "flight_recorder_dump",
                 std::span<const LogField>(header));
  MutexLock lock(mu_);
  dump_ = std::move(dump);
  return true;
}

std::size_t FlightRecorder::trips() const {
  MutexLock lock(mu_);
  return trips_;
}

std::size_t FlightRecorder::dumps() const {
  MutexLock lock(mu_);
  return dumps_;
}

std::optional<FlightDump> FlightRecorder::last_dump() const {
  MutexLock lock(mu_);
  return dump_;
}

}  // namespace cal::obs

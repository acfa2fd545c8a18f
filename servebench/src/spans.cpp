#include "spans.hpp"

#include <cstdio>

namespace servebench {

SpanLog::SpanLog() : origin_(Clock::now()) {}

void SpanLog::add(const char* name, Clock::time_point start,
                  Clock::time_point end, std::uint64_t id,
                  std::uint32_t lane) {
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t& n = per_name_[name];
  if (n >= kMaxPerName) {
    ++dropped_;
    return;
  }
  ++n;
  spans_.push_back({name, ns(start), ns(end) - ns(start), id, lane});
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"otherData\": "
                  "{\"dropped_spans\": %zu}, \"traceEvents\": [\n",
               dropped_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu}}%s\n",
                 s.name, s.lane, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace servebench

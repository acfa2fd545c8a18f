#include "obs/metrics.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace cal::obs {
namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (std::isalpha(static_cast<unsigned char>(c)) != 0) ||
                       c == '_' || c == ':';
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (i == 0 ? !alpha : !(alpha || digit)) return false;
  }
  return true;
}

bool valid_label_key(const std::string& key) {
  if (key.empty()) return false;
  for (std::size_t i = 0; i < key.size(); ++i) {
    const char c = key[i];
    const bool alpha =
        (std::isalpha(static_cast<unsigned char>(c)) != 0) || c == '_';
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (i == 0 ? !alpha : !(alpha || digit)) return false;
  }
  return true;
}

void validate_labels(const std::string& name,
                     const std::vector<MetricLabel>& labels) {
  for (const MetricLabel& l : labels) {
    if (!valid_label_key(l.key))
      throw std::invalid_argument("metric " + name + ": bad label key '" +
                                  l.key + "'");
  }
}

/// Prometheus number formatting: shortest round-trip-ish decimal, +Inf
/// spelled the way scrapers expect. The range check comes first: casting
/// a double outside int64_t's range is undefined behaviour.
std::string format_number(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  if (std::fabs(v) < 1e15 &&
      v == static_cast<double>(static_cast<std::int64_t>(v))) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<std::int64_t>(v)));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Escaping for label values (text format): \\ -> \\\\, " -> \\", newline
/// -> \\n.
void append_escaped_label(std::string& out, const std::string& v) {
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

/// Escaping for HELP text: only backslash and newline.
void append_escaped_help(std::string& out, const std::string& v) {
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

void append_json_string(std::string& out, const std::string& v) {
  out += '"';
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string json_number(double v) {
  // JSON has no Inf/NaN; exports clamp them to null.
  if (!std::isfinite(v)) return "null";
  return format_number(v);
}

/// `name{k1="v1",k2="v2"}` with optional extra label (used for `le`).
void append_sample_name(std::string& out, const std::string& name,
                        const std::vector<MetricLabel>& labels,
                        const MetricLabel* extra = nullptr) {
  out += name;
  if (labels.empty() && extra == nullptr) return;
  out += '{';
  bool first = true;
  for (const MetricLabel& l : labels) {
    if (!first) out += ',';
    first = false;
    out += l.key;
    out += "=\"";
    append_escaped_label(out, l.value);
    out += '"';
  }
  if (extra != nullptr) {
    if (!first) out += ',';
    out += extra->key;
    out += "=\"";
    append_escaped_label(out, extra->value);
    out += '"';
  }
  out += '}';
}

}  // namespace

const char* to_string(MetricType t) {
  switch (t) {
    case MetricType::Counter: return "counter";
    case MetricType::Gauge: return "gauge";
    case MetricType::Histogram: return "histogram";
  }
  return "?";
}

MetricFamily& MetricsRegistry::family(const std::string& name,
                                      const std::string& help,
                                      MetricType type) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("bad metric name '" + name + "'");
  for (MetricFamily& f : families_) {
    if (f.name != name) continue;
    if (f.type != type)
      throw std::invalid_argument("metric " + name +
                                  " re-registered with a different type");
    if (f.help != help)
      throw std::invalid_argument("metric " + name +
                                  " re-registered with different help text");
    return f;
  }
  MetricFamily f;
  f.name = name;
  f.help = help;
  f.type = type;
  families_.push_back(std::move(f));
  return families_.back();
}

void MetricsRegistry::add_counter(const std::string& name,
                                  const std::string& help,
                                  std::vector<MetricLabel> labels,
                                  double value) {
  validate_labels(name, labels);
  MetricFamily& f = family(name, help, MetricType::Counter);
  MetricSample s;
  s.labels = std::move(labels);
  s.value = value;
  f.samples.push_back(std::move(s));
}

void MetricsRegistry::add_gauge(const std::string& name,
                                const std::string& help,
                                std::vector<MetricLabel> labels,
                                double value) {
  validate_labels(name, labels);
  MetricFamily& f = family(name, help, MetricType::Gauge);
  MetricSample s;
  s.labels = std::move(labels);
  s.value = value;
  f.samples.push_back(std::move(s));
}

void MetricsRegistry::add_histogram(const std::string& name,
                                    const std::string& help,
                                    std::vector<MetricLabel> labels,
                                    const Histogram& hist) {
  validate_labels(name, labels);
  MetricFamily& f = family(name, help, MetricType::Histogram);
  MetricSample s;
  s.labels = std::move(labels);
  s.hist = hist;
  f.samples.push_back(std::move(s));
}

const MetricSample* MetricsRegistry::find(
    const std::string& name, const std::vector<MetricLabel>& labels) const {
  for (const MetricFamily& f : families_) {
    if (f.name != name) continue;
    for (const MetricSample& s : f.samples) {
      bool all = true;
      for (const MetricLabel& want : labels) {
        bool found = false;
        for (const MetricLabel& have : s.labels)
          if (have.key == want.key && have.value == want.value) {
            found = true;
            break;
          }
        if (!found) {
          all = false;
          break;
        }
      }
      if (all) return &s;
    }
  }
  return nullptr;
}

std::string MetricsRegistry::prometheus_text() const {
  std::string out;
  out.reserve(4096);
  for (const MetricFamily& f : families_) {
    out += "# HELP ";
    out += f.name;
    out += ' ';
    append_escaped_help(out, f.help);
    out += '\n';
    out += "# TYPE ";
    out += f.name;
    out += ' ';
    out += to_string(f.type);
    out += '\n';
    for (const MetricSample& s : f.samples) {
      if (f.type != MetricType::Histogram) {
        append_sample_name(out, f.name, s.labels);
        out += ' ';
        out += format_number(s.value);
        out += '\n';
        continue;
      }
      // Cumulative le-buckets from the histogram's populated buckets,
      // then the mandatory +Inf bucket, _sum and _count.
      std::uint64_t cumulative = 0;
      for (const Histogram::Bucket& b : s.hist.nonzero_buckets()) {
        cumulative += b.count;
        MetricLabel le{"le", format_number(b.upper)};
        append_sample_name(out, f.name + "_bucket", s.labels, &le);
        out += ' ';
        out += format_number(static_cast<double>(cumulative));
        out += '\n';
      }
      MetricLabel inf{"le", "+Inf"};
      append_sample_name(out, f.name + "_bucket", s.labels, &inf);
      out += ' ';
      out += format_number(static_cast<double>(s.hist.count()));
      out += '\n';
      append_sample_name(out, f.name + "_sum", s.labels);
      out += ' ';
      out += format_number(s.hist.sum());
      out += '\n';
      append_sample_name(out, f.name + "_count", s.labels);
      out += ' ';
      out += format_number(static_cast<double>(s.hist.count()));
      out += '\n';
    }
  }
  return out;
}

std::string MetricsRegistry::json() const {
  std::string out;
  out.reserve(4096);
  out += "{\"families\":[";
  bool first_family = true;
  for (const MetricFamily& f : families_) {
    if (!first_family) out += ',';
    first_family = false;
    out += "{\"name\":";
    append_json_string(out, f.name);
    out += ",\"type\":";
    append_json_string(out, to_string(f.type));
    out += ",\"help\":";
    append_json_string(out, f.help);
    out += ",\"samples\":[";
    bool first_sample = true;
    for (const MetricSample& s : f.samples) {
      if (!first_sample) out += ',';
      first_sample = false;
      out += "{\"labels\":{";
      bool first_label = true;
      for (const MetricLabel& l : s.labels) {
        if (!first_label) out += ',';
        first_label = false;
        append_json_string(out, l.key);
        out += ':';
        append_json_string(out, l.value);
      }
      out += '}';
      if (f.type != MetricType::Histogram) {
        out += ",\"value\":";
        out += json_number(s.value);
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(s.hist.count()));
        out += ",\"count\":";
        out += buf;
        out += ",\"sum\":";
        out += json_number(s.hist.sum());
        out += ",\"p50\":";
        out += json_number(s.hist.quantile(0.50));
        out += ",\"p95\":";
        out += json_number(s.hist.quantile(0.95));
        out += ",\"p99\":";
        out += json_number(s.hist.quantile(0.99));
        out += ",\"buckets\":[";
        bool first_bucket = true;
        for (const Histogram::Bucket& b : s.hist.nonzero_buckets()) {
          if (!first_bucket) out += ',';
          first_bucket = false;
          out += "{\"le\":";
          out += json_number(b.upper);
          out += ",\"count\":";
          std::snprintf(buf, sizeof(buf), "%llu",
                        static_cast<unsigned long long>(b.count));
          out += buf;
          out += '}';
        }
        out += ']';
      }
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace cal::obs

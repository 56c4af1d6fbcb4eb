#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace fhmip::obs {
namespace {

// Fixed-precision rendering keeps exports byte-stable across platforms and
// locale settings ("%g" of a double is neither).
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double value) {
  std::size_t i = 0;
  while (i < bounds_.size() && value > bounds_[i]) ++i;
  ++buckets_[i];
  ++count_;
  sum_ += value;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) { return gauges_[name]; }

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, Histogram(std::move(upper_bounds)))
      .first->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string MetricsRegistry::format_text() const {
  std::string out;
  char line[256];
  for (const auto& [name, c] : counters_) {
    std::snprintf(line, sizeof(line), "counter %s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(c.value()));
    out += line;
  }
  for (const auto& [name, g] : gauges_) {
    std::snprintf(line, sizeof(line), "gauge %s %lld\n", name.c_str(),
                  static_cast<long long>(g.value()));
    out += line;
  }
  for (const auto& [name, h] : histograms_) {
    out += "hist " + name + " count=" +
           std::to_string(static_cast<unsigned long long>(h.count())) +
           " sum=" + num(h.sum());
    for (std::size_t i = 0; i < h.bounds().size(); ++i)
      out += " le" + num(h.bounds()[i]) + "=" +
             std::to_string(static_cast<unsigned long long>(h.bucket_count(i)));
    out += " inf=" +
           std::to_string(static_cast<unsigned long long>(
               h.bucket_count(h.bounds().size()))) +
           "\n";
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ",";
    first = false;
    out.append("\"").append(escape(name)).append("\":");
    out += std::to_string(c.value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ",";
    first = false;
    out.append("\"").append(escape(name)).append("\":");
    out += std::to_string(g.value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    out.append("\"").append(escape(name)).append("\":{\"count\":");
    out.append(std::to_string(h.count())).append(",\"sum\":");
    out.append(num(h.sum())).append(",\"bounds\":[");
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      if (i) out += ",";
      out += num(h.bounds()[i]);
    }
    out += "],\"buckets\":[";
    for (std::size_t i = 0; i < h.num_buckets(); ++i) {
      if (i) out += ",";
      out += std::to_string(h.bucket_count(i));
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace fhmip::obs

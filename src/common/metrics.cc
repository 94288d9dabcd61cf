#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/strings.h"

namespace qb5000 {

// --- Histogram --------------------------------------------------------------

double Histogram::UpperBound(size_t i) {
  if (i + 1 >= kNumBuckets) return std::numeric_limits<double>::infinity();
  return 1e-9 * std::ldexp(1.0, static_cast<int>(i));
}

size_t Histogram::BucketIndex(double v) {
  if (!(v > 1e-9)) return 0;  // non-finite, negative, and tiny all land low
  // Smallest i with 1e-9 * 2^i >= v  <=>  i = ceil(log2(v / 1e-9)).
  int exp = std::ilogb(v * 1e9);
  if (std::ldexp(1.0, exp) < v * 1e9) ++exp;
  if (exp < 0) return 0;
  return std::min(static_cast<size_t>(exp), kNumBuckets - 1);
}

void Histogram::Observe(double v) {
  if constexpr (!kMetricsEnabled) {
    (void)v;
    return;
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  // atomic<double> has no fetch_add pre-C++20 everywhere; CAS-loop instead.
  double old = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(old, old + v, std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::Clear() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

// --- MetricsRegistry --------------------------------------------------------

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

// Get* use double-checked registration: a shared-lock fast path for the
// common already-registered case, then an exclusive lock that re-checks
// (another thread may have registered between the two acquisitions). Spelled
// out per method rather than through a helper template because Thread Safety
// Analysis cannot track guarded members passed by reference
// (-Wthread-safety-reference).

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  {
    ReaderLock lock(&mu_);
    auto it = counters_.find(name);
    if (it != counters_.end()) return it->second;
  }
  WriterLock lock(&mu_);
  auto it = counters_.find(name);  // raced registration
  if (it != counters_.end()) return it->second;
  counter_storage_.emplace_back();
  Counter* instrument = &counter_storage_.back();
  counters_.emplace(name, instrument);
  return instrument;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  {
    ReaderLock lock(&mu_);
    auto it = gauges_.find(name);
    if (it != gauges_.end()) return it->second;
  }
  WriterLock lock(&mu_);
  auto it = gauges_.find(name);  // raced registration
  if (it != gauges_.end()) return it->second;
  gauge_storage_.emplace_back();
  Gauge* instrument = &gauge_storage_.back();
  gauges_.emplace(name, instrument);
  return instrument;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  {
    ReaderLock lock(&mu_);
    auto it = histograms_.find(name);
    if (it != histograms_.end()) return it->second;
  }
  WriterLock lock(&mu_);
  auto it = histograms_.find(name);  // raced registration
  if (it != histograms_.end()) return it->second;
  histogram_storage_.emplace_back();
  Histogram* instrument = &histogram_storage_.back();
  histograms_.emplace(name, instrument);
  return instrument;
}

std::string MetricsRegistry::ExportText(const ExportOptions& options) const {
  ReaderLock lock(&mu_);
  // One sorted line stream across all instrument kinds. The three maps are
  // each name-sorted; merge by name so the export is globally sorted and
  // byte-stable regardless of registration order.
  std::map<std::string, std::string> lines;
  for (const auto& [name, counter] : counters_) {
    lines[name] = "counter " + name + ' ' + std::to_string(counter->value());
  }
  if (!options.counters_only) {
    for (const auto& [name, gauge] : gauges_) {
      lines[name] = "gauge " + name + ' ' + FormatDouble(gauge->value());
    }
    for (const auto& [name, histogram] : histograms_) {
      std::string line = "histogram " + name +
                         " count=" + std::to_string(histogram->count()) +
                         " sum=" + FormatDouble(histogram->sum()) + " buckets=";
      bool first = true;
      for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
        uint64_t n = histogram->bucket(i);
        if (n == 0) continue;
        if (!first) line += ',';
        line += std::to_string(i) + ':' + std::to_string(n);
        first = false;
      }
      lines[name] = std::move(line);
    }
  }
  std::string out;
  for (const auto& [name, line] : lines) {
    (void)name;
    out += line;
    out += '\n';
  }
  return out;
}

std::string MetricsRegistry::ExportJson() const {
  ReaderLock lock(&mu_);
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out << ',';
    out << '"' << name << "\":" << counter->value();
    first = false;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out << ',';
    out << '"' << name << "\":" << FormatDouble(gauge->value());
    first = false;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out << ',';
    out << '"' << name << "\":{\"count\":" << histogram->count()
        << ",\"sum\":" << FormatDouble(histogram->sum()) << ",\"buckets\":{";
    bool first_bucket = true;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      uint64_t n = histogram->bucket(i);
      if (n == 0) continue;
      if (!first_bucket) out << ',';
      out << '"' << i << "\":" << n;
      first_bucket = false;
    }
    out << "}}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string MetricsRegistry::SerializeState() const {
  ReaderLock lock(&mu_);
  std::string out = "metrics-v1\n";
  StrAppend(&out, "counters ", counters_.size(), '\n');
  for (const auto& [name, counter] : counters_) {
    StrAppend(&out, name, ' ', counter->value(), '\n');
  }
  StrAppend(&out, "gauges ", gauges_.size(), '\n');
  for (const auto& [name, gauge] : gauges_) {
    StrAppend(&out, name, ' ', gauge->value(), '\n');
  }
  return out;
}

Status MetricsRegistry::RestoreState(const std::string& data) {
  std::istringstream in(data);
  std::string tag, keyword;
  if (!(in >> tag) || tag != "metrics-v1") {
    return Status::ParseError("bad metrics section tag");
  }
  size_t count = 0;
  if (!(in >> keyword >> count) || keyword != "counters") {
    return Status::ParseError("bad metrics counter header");
  }
  // Parse fully before applying so a truncated section leaves the registry
  // untouched.
  std::vector<std::pair<std::string, uint64_t>> counters(count);
  for (auto& [name, value] : counters) {
    if (!(in >> name >> value)) {
      return Status::ParseError("truncated metrics counters");
    }
  }
  if (!(in >> keyword >> count) || keyword != "gauges") {
    return Status::ParseError("bad metrics gauge header");
  }
  std::vector<std::pair<std::string, double>> gauges(count);
  for (auto& [name, value] : gauges) {
    if (!(in >> name >> value)) {
      return Status::ParseError("truncated metrics gauges");
    }
  }
  for (const auto& [name, value] : counters) GetCounter(name)->Set(value);
  for (const auto& [name, value] : gauges) GetGauge(name)->Restore(value);
  return Status::Ok();
}

void MetricsRegistry::Reset() {
  WriterLock lock(&mu_);
  for (auto& counter : counter_storage_) counter.Set(0);
  for (auto& gauge : gauge_storage_) gauge.Restore(0.0);
  for (auto& histogram : histogram_storage_) histogram.Clear();
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace qb5000

#include "telemetry/metrics.h"

#include <algorithm>
#include <cstdlib>

namespace sdnprobe::telemetry {
namespace {

// Generic log-spaced default bounds: 1 µs .. 100 s in decades (durations in
// seconds are the most common histogram payload).
std::vector<double> default_bounds() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0};
}

}  // namespace

Histogram::Histogram(const std::atomic<bool>* enabled,
                     std::vector<double> bounds, std::size_t sample_cap)
    : enabled_(enabled),
      bounds_(bounds.empty() ? default_bounds() : std::move(bounds)),
      sample_cap_(sample_cap),
      buckets_(bounds_.size() + 1, 0) {}

void Histogram::record(double v) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(mu_);
  acc_.add(v);
  if (samples_.count() < sample_cap_) samples_.add(v);
  std::size_t b = 0;
  while (b < bounds_.size() && v > bounds_[b]) ++b;
  ++buckets_[b];
}

std::size_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acc_.count();
}

double Histogram::mean() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acc_.mean();
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acc_.min();
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acc_.max();
}

double Histogram::quantile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_.quantile(q);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buckets_;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* instance = [] {
    const char* env = std::getenv("SDNPROBE_METRICS");
    auto* reg = new MetricsRegistry(env != nullptr);
    if (env != nullptr && env[0] != '\0') {
      // Write the artifact at exit. Registered after the registry exists
      // (and the registry is intentionally leaked), so the handler never
      // runs against a destroyed instance.
      std::atexit([] {
        const char* path = std::getenv("SDNPROBE_METRICS");
        if (path != nullptr && path[0] != '\0') {
          write_metrics_file(global(), path);
        }
      });
    }
    return reg;
  }();
  return *instance;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter(&enabled_)))
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::unique_ptr<Gauge>(new Gauge(&enabled_)))
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(new Histogram(
                          &enabled_, std::move(bounds), /*sample_cap=*/8192)))
             .first;
  }
  return *it->second;
}

void MetricsRegistry::record_span(SpanRecord span) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= span_cap()) {
    ++spans_dropped_;
    return;
  }
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> MetricsRegistry::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) {
    c->value_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, g] : gauges_) {
    g->value_.store(0.0, std::memory_order_relaxed);
    g->max_.store(0.0, std::memory_order_relaxed);
  }
  for (auto& [name, h] : histograms_) {
    std::lock_guard<std::mutex> hlock(h->mu_);
    h->acc_ = util::Accumulator();
    h->samples_ = util::Samples();
    std::fill(h->buckets_.begin(), h->buckets_.end(), 0);
  }
  spans_.clear();
  spans_dropped_ = 0;
}

}  // namespace sdnprobe::telemetry

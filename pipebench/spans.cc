#include "spans.h"

#include <cstdio>

namespace pipebench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::open(std::string_view name) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::string(name);
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.workload = workload_;
  s.start_us = now_us();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
  // Spans close in LIFO order (Scope is RAII), so `id` is the top.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::add_child(std::string_view name, double start_us,
                       double end_us) {
  if (!enabled_) return;
  Span s;
  s.name = std::string(name);
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.workload = workload_;
  s.start_us = start_us;
  s.end_us = end_us;
  spans_.push_back(std::move(s));
}

std::string Tracer::layer_of(std::string_view name) {
  return std::string(name.substr(0, name.find('.')));
}

std::map<std::string, LayerTotals> Tracer::layer_totals() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, LayerTotals> out;
  for (const Span& s : spans_) {
    const std::string layer = layer_of(s.name);
    LayerTotals& t = out[layer];
    const double dur = s.end_us - s.start_us;
    t.count += 1;
    t.self_s += (dur - child_us[static_cast<std::size_t>(s.id)]) * 1e-6;
    // Busy time counts a span only when no ancestor is in the same layer,
    // so nested same-layer spans are not double counted.
    bool nested = false;
    for (int p = s.parent; p >= 0 && !nested;) {
      const Span& up = spans_[static_cast<std::size_t>(p)];
      nested = layer_of(up.name) == layer;
      p = up.parent;
    }
    if (!nested) t.busy_s += dur * 1e-6;
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                const std::string& workload_name) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":"
                  "\"%s\"},\"traceEvents\":[\n",
               workload_name.c_str());
  std::fprintf(f, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":1,\"args\":{\"name\":\"pipebench %s\"}}",
               workload_name.c_str());
  for (const Span& s : spans_) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                 "\"parent\":%d,\"workload\":%d}}",
                 s.name.c_str(), layer_of(s.name).c_str(), s.start_us,
                 s.end_us - s.start_us, s.id, s.parent, s.workload);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace pipebench

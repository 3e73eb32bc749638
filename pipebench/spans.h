// Benchmark-owned trace spans for the whole-pipeline benchmark.
//
// The benchmark wraps every public library call it makes in a span named
// "<layer>.<call>" (layer = the src/ module the call enters: "mlpc.solve",
// "monitor.drain_churn", ...). Spans record start, end, parent span and the
// workload they belong to; they stay in memory and are written out once, at
// exit, as a Chrome trace-event file (opens offline in chrome://tracing).
//
// Self time of a span is its duration minus the time its direct children
// cover. Because every span has exactly one parent and the benchmark opens
// one root span per workload, the self times of all layers add up to the
// root's wall time: no layer can hide in an unattributed gap (time the
// benchmark spends between library calls is the root layer's self time).
//
// A disabled tracer records nothing; Scope then costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pipebench {

struct Span {
  std::string name;
  int id = 0;
  int parent = -1;  // -1 for a root span
  int workload = 0;
  double start_us = 0.0;  // since the tracer was constructed
  double end_us = 0.0;
};

// Per-layer aggregate over all recorded spans.
struct LayerTotals {
  std::uint64_t count = 0;
  double busy_s = 0.0;  // time inside the layer's outermost spans
  double self_s = 0.0;  // busy time minus time covered by child spans
};

class Tracer {
 public:
  Tracer();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_workload(int id) { workload_ = id; }

  double now_us() const;

  // Opens a span under the innermost open one; returns its id (-1 when
  // disabled).
  int open(std::string_view name);
  void close(int id);
  // Records an already finished child of the innermost open span, for work
  // a library call reports about itself (e.g. the verifier pass inside a
  // monitor drain, timed by the monitor's own accounting).
  void add_child(std::string_view name, double start_us, double end_us);

  const std::vector<Span>& spans() const { return spans_; }

  // Layer of a span: its name up to the first '.'.
  static std::string layer_of(std::string_view name);
  std::map<std::string, LayerTotals> layer_totals() const;

  // Chrome trace-event JSON ("X" complete events, one thread).
  bool write_chrome_trace(const std::string& path,
                          const std::string& workload_name) const;

 private:
  bool enabled_ = false;
  int workload_ = 0;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span ids
};

// RAII span; a no-op when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, std::string_view name)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.open(name) : -1) {}
  ~Scope() {
    if (id_ >= 0) tracer_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace pipebench

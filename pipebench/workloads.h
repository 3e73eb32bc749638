// The benchmark's three workloads (see pipebench/README.md for why each
// exists and what it measures).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"

namespace pipebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The correctness gate: every check is one attempt; a failed check is a
// failure and is logged to stderr (the first few of them).
class Gate {
 public:
  void check(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Outcome {
  Gate gate;
  std::vector<Metric> end_to_end;  // same names and order for every workload
  std::vector<Metric> per_layer;   // trace runs only; same names everywhere
  // The outputs that must repeat exactly for a given seed, rendered as text
  // (compared across repetitions in a run and across runs).
  std::string fingerprint;
  // Human-readable report lines printed before the result line.
  std::vector<std::string> report;
};

const std::vector<std::string>& workload_names();

// Runs one workload end to end; throws std::invalid_argument for an
// unknown workload name.
Outcome run_workload(const Options& options);

}  // namespace pipebench

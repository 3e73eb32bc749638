// Whole-pipeline benchmark program. Runs one workload in this process and
// prints, as its last stdout line, one JSON object:
//
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
//
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when any correctness check failed, 2 on bad usage.
//
//   pipebench --workload table2_topo3 --seed 1 --seconds 35 --trace 0
//             [--out-dir DIR]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <thread>

#include "workloads.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: pipebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\nworkloads:");
  for (const std::string& w : pipebench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
}

// Shortest decimal form that reads back to the same double.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  pipebench::Options opt;
  // Every component that takes CommonOptions::threads gets half the cores,
  // at least 1 and at most 4. On a few cores of a shared host, a parallel
  // phase that needs every core waits for whichever core the host is busy
  // with, and times spread with the neighbours' load instead of the code.
  opt.threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency() / 2, 1u, 4u));
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::string_view(value) == "1";
    } else if (key == "--out-dir") {
      opt.out_dir = value;
    } else {
      usage();
      return 2;
    }
  }
  if (!have_workload || argc % 2 == 0) {
    usage();
    return 2;
  }

  pipebench::Outcome out;
  try {
    out = pipebench::run_workload(opt);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    return 1;
  }

  for (const std::string& line : out.report) std::printf("%s\n", line.c_str());
  std::printf("fingerprint %s\n", out.fingerprint.c_str());

  const bool correct = out.gate.failed() == 0;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " +
                     std::to_string(out.gate.attempted()) +
                     ", \"failed\": " + std::to_string(out.gate.failed()) +
                     ", \"metrics\": {";
  const auto& metrics = opt.trace ? out.per_layer : out.end_to_end;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json.append("\"").append(json_escape(metrics[i].name));
    json.append("\": {\"value\": ").append(json_number(metrics[i].value));
    json.append(", \"unit\": \"").append(json_escape(metrics[i].unit));
    json.append("\"}");
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

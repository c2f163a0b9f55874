// The benchmark's three workloads against the live stack (see main.cpp for
// what each one loads and bypasses).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: end-to-end metrics, obs off. true: per-layer metrics from a
  /// traced pass, after an untraced pass of equal length for the overhead.
  bool trace = false;
};

struct RunResult {
  bool correct = true;
  /// First violated correctness check, if any.
  std::string error;
  long attempted = 0;
  /// Shed, missing or duplicate verdicts, timeouts and connection errors.
  long failed = 0;
  std::map<std::string, double> metrics;
  /// Human-readable lines (sample counts beside percentiles).
  std::vector<std::string> notes;

  void violate(const std::string& what) {
    if (correct) error = what;
    correct = false;
  }
};

const std::vector<std::string>& workload_names();
RunResult run_workload(const RunOptions& options);

}  // namespace perfbench

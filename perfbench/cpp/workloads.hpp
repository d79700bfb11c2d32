// The benchmark's workloads. Each one generates its inputs from the seed,
// repeats its operation until the time budget is spent, checks every
// result against the pinned digests, and reports metrics by name and unit.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;  // false: end-to-end metrics; true: per-layer metrics
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  OpLedger ops;
  std::vector<std::string> notes;  // human-readable lines (sample counts...)
};

[[nodiscard]] const std::vector<std::string>& workload_names();

// Runs one workload. Failures are recorded in Report::ops, never thrown.
[[nodiscard]] Report run_workload(const RunOptions& options);

}  // namespace perfbench

// End-to-end benchmark of the EchelonFlow simulator and service.
//
//   perfbench --workload <batch_sweep|batch_xl|serve_chaos> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints every metric by name with its unit, then, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics of untraced runs; --trace 1
// reports the per-layer split from traced runs paired with plain ones.
// Exits 1, naming the workload, when any operation failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n";
  return 2;
}

// Shortest text that reads back as the same double; integers in full.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) {
    known = known || w == o.workload;
  }
  if (!known) return usage(("unknown workload " + o.workload).c_str());
  if (!(o.seconds > 0.0)) return usage("--seconds must be positive");

  perfbench::Report r;
  try {
    r = perfbench::run_workload(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: workload " << o.workload << " failed: "
              << e.what() << "\n";
    return 1;
  }

  for (const std::string& line : r.notes) std::cout << "# " << line << "\n";
  for (const perfbench::Metric& m : r.metrics) {
    std::cout << o.workload << " " << m.name << " = " << number(m.value)
              << " " << m.unit << "\n";
  }
  for (const std::string& err : r.ops.errors()) {
    std::cerr << "perfbench: workload " << o.workload << " FAILED " << err
              << "\n";
  }
  const bool correct = r.ops.failed() == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.ops.attempted()
            << ", \"failed\": " << r.ops.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << m.name
              << "\": {\"value\": " << number(m.value) << ", \"unit\": \""
              << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

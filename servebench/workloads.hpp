// The three serving workloads and the run that measures one of them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< Where the traced run writes its two files.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Percentiles carry their sample count; 0 for every other metric.
  std::size_t samples = 0;
  /// False when the workload never exercises the layer (value is 0).
  bool applies = true;
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;  ///< Ops offered over both phases.
  std::int64_t failed = 0;     ///< Ops not served.
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< Extra stamped output lines (JSON).
};

const std::vector<std::string>& workload_names();

/// Builds the workload's tape from opts.seed, serves it and verifies every
/// decision stream. With opts.trace, measures the per-layer ledger instead
/// of the end-to-end metrics and writes the Chrome trace + ledger files.
RunResult run_workload(const RunOptions& opts);

}  // namespace servebench

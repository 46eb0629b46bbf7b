// The two kinds of run: the untraced end-to-end run that yields the
// benchmark's user-facing metrics, and the traced run that replays the same
// seeded sessions down the layer ladder.
#ifndef AIGS_PERFBENCH_RUNS_H_
#define AIGS_PERFBENCH_RUNS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "workload.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Scratch space inside the checkout (temporary WAL directories, span
  /// dumps).
  std::string workdir = ".bench_build";
};

/// Provenance fields: name → JSON-encoded value.
using Fields = std::vector<std::pair<std::string, std::string>>;

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  Fields provenance;
  /// Why the run could not finish or why a check failed (empty when all
  /// checks passed).
  std::string error;

  void Fail(const std::string& why) {
    correct = false;
    error += (error.empty() ? "" : "; ") + why;
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, Metric{value, unit}});
  }
};

/// "euler" / "dense" / "compressed".
const char* StorageName(const aigs::ReachabilityIndex& reach);

Outcome RunEndToEnd(const WorkloadSpec& spec, const RunOptions& options,
                    const CpuPlan& cpus);

Outcome RunLadder(const WorkloadSpec& spec, const RunOptions& options,
                  const CpuPlan& cpus);

}  // namespace perfbench

#endif  // AIGS_PERFBENCH_RUNS_H_

// aigs_perfbench — the repository benchmark.
//
//   aigs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--workdir <dir>]
//
// --trace 0 runs the workload end to end, untraced, and prints its
// end-to-end metrics; --trace 1 replays the same seeded sessions down the
// layer ladder and prints the per-layer metrics. Either way the last line
// of stdout is one JSON object {correct, attempted, failed, metrics}; the
// line before it records the run's provenance. A run whose checks fail
// still prints its result (correct=false) and exits with status 1.
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "net/wire.h"
#include "runs.h"
#include "util/kernels.h"

#ifndef AIGS_PERFBENCH_BUILD_TYPE
#define AIGS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const std::string& why) {
  std::cerr << "aigs_perfbench: " << why
            << "\nusage: aigs_perfbench --workload <"
            << perfbench::WorkloadNames()
            << "> --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions options;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = std::stoi(value) != 0;
      } else if (flag == "--workdir") {
        options.workdir = value;
      } else {
        return Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return Usage("bad value for " + flag + ": " + value);
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload);
  if (spec == nullptr) {
    return Usage("unknown workload '" + workload + "'");
  }
  if (!(options.seconds > 0)) {
    return Usage("--seconds must be positive");
  }

  aigs::net::IgnoreSigpipe();
  const perfbench::CpuPlan cpus;
  cpus.UseServerCpus();
  perfbench::Outcome outcome =
      trace ? perfbench::RunLadder(*spec, options, cpus)
            : perfbench::RunEndToEnd(*spec, options, cpus);

  const char* kernels_env = std::getenv("AIGS_KERNELS");
  perfbench::Fields provenance = {
      {"workload", perfbench::Quote(spec->name)},
      {"seed", std::to_string(options.seed)},
      {"seconds", perfbench::Num(options.seconds)},
      {"trace", trace ? "true" : "false"},
      {"catalog", perfbench::Quote(perfbench::CatalogName(spec->catalog))},
      {"policy", perfbench::Quote(spec->policy)},
      {"build_type", perfbench::Quote(AIGS_PERFBENCH_BUILD_TYPE)},
      {"kernels", perfbench::Quote(aigs::kernels::ModeName(
                      aigs::kernels::ActiveMode()))},
      {"aigs_kernels_env",
       perfbench::Quote(kernels_env == nullptr ? "" : kernels_env)},
      {"cores", std::to_string(std::thread::hardware_concurrency())},
      {"cpus_allowed", std::to_string(cpus.allowed())},
      {"pinning", perfbench::Quote(cpus.Describe())},
  };
  provenance.insert(provenance.end(), outcome.provenance.begin(),
                    outcome.provenance.end());
  if (!outcome.error.empty()) {
    provenance.push_back({"error", perfbench::Quote(outcome.error)});
    std::cerr << "aigs_perfbench: " << outcome.error << "\n";
  }
  if (outcome.metrics.empty()) {
    return 1;  // nothing was measured
  }
  std::cout << perfbench::ObjectJson(
                   {{"provenance", perfbench::ObjectJson(provenance)}})
            << "\n"
            << perfbench::ResultJson(outcome.correct, outcome.attempted,
                                     outcome.failed, outcome.metrics)
            << std::endl;
  return outcome.correct ? 0 : 1;
}

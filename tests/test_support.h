// Shared helpers for the aigs test suite.
#ifndef AIGS_TESTS_TEST_SUPPORT_H_
#define AIGS_TESTS_TEST_SUPPORT_H_

#include <sched.h>

#include <memory>
#include <vector>

#include "core/hierarchy.h"
#include "core/policy.h"
#include "eval/runner.h"
#include "oracle/oracle.h"
#include "prob/distribution.h"
#include "util/common.h"

namespace aigs::testing {

/// Builds a Hierarchy or dies.
inline Hierarchy MustBuild(Digraph g) {
  auto h = Hierarchy::Build(std::move(g));
  AIGS_CHECK(h.ok());
  return *std::move(h);
}

/// Builds a Distribution from weights or dies.
inline Distribution MustDist(std::vector<Weight> weights) {
  auto d = Distribution::FromWeights(std::move(weights));
  AIGS_CHECK(d.ok());
  return *std::move(d);
}

/// Runs the policy against every possible target; returns per-target unit
/// costs. Dies if any search misidentifies its target.
inline std::vector<std::uint64_t> RunAllTargets(const Policy& policy,
                                                const Hierarchy& h) {
  std::vector<std::uint64_t> costs(h.NumNodes());
  for (NodeId target = 0; target < h.NumNodes(); ++target) {
    ExactOracle oracle(h.reach(), target);
    auto session = policy.NewSession();
    const SearchResult r = RunSearch(*session, oracle);
    AIGS_CHECK(r.target == target);
    costs[target] = r.UnitCost();
  }
  return costs;
}

/// Expected unit cost of per-target costs under a distribution.
inline double WeightedAverage(const std::vector<std::uint64_t>& costs,
                              const Distribution& dist) {
  long double total = 0;
  for (NodeId v = 0; v < costs.size(); ++v) {
    total += static_cast<long double>(dist.WeightOf(v)) *
             static_cast<long double>(costs[v]);
  }
  return static_cast<double>(total / static_cast<long double>(dist.Total()));
}

/// Pins the calling thread to the CPU it is on for its lifetime and then
/// restores the thread's mask, so code under test sees a one-CPU affinity
/// mask. Threads the caller starts meanwhile inherit the one-CPU mask.
class ScopedOneCpuMask {
 public:
  ScopedOneCpuMask() {
    CPU_ZERO(&saved_);
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~ScopedOneCpuMask() {
    if (pinned_) {
      sched_setaffinity(0, sizeof(saved_), &saved_);
    }
  }
  ScopedOneCpuMask(const ScopedOneCpuMask&) = delete;
  ScopedOneCpuMask& operator=(const ScopedOneCpuMask&) = delete;

  bool pinned() const { return pinned_; }

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

}  // namespace aigs::testing

#endif  // AIGS_TESTS_TEST_SUPPORT_H_

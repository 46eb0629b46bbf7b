// GreedyNaive (Algorithm 2): the definitional greedy policy — every round
// queries the exact weighted middle point of the alive candidate set.
//
// Two selection backends compute that argmin:
//  * kSplitIndex (default): the shared SplitWeightIndex — O(alive) per
//    pick on trees (one overlay probe per node), O(alive · n/64) on DAGs
//    (masked weighted popcount over closure rows), with dominance pruning
//    cutting the scanned frontier further.
//  * kBfsRescan: the original Algorithm 2/3 loop — a fresh forward BFS per
//    candidate per pick, O(n·m) per question. Kept as the reference oracle
//    the equivalence suite and the fig6 runtime figure measure against.
// Both backends ask bit-identical question sequences (same argmin, same
// smallest-id tie-break); see tests/test_split_weight_index.cc.
#ifndef AIGS_CORE_GREEDY_NAIVE_H_
#define AIGS_CORE_GREEDY_NAIVE_H_

#include <memory>
#include <string>

#include "core/hierarchy.h"
#include "core/policy.h"
#include "core/selection_backend.h"
#include "core/split_weight_index.h"
#include "prob/distribution.h"
#include "prob/rounding.h"

namespace aigs {

/// Tuning knobs for GreedyNaive.
struct GreedyNaiveOptions {
  /// Round weights per Eq. (1) first. Off by default (Algorithm 2 uses raw
  /// probabilities); enable to mirror a GreedyDAG configuration exactly.
  bool use_rounded_weights = false;
  RoundingOptions rounding;
  /// Selection backend; kBfsRescan reproduces the seed's runtime behavior.
  SelectionBackend backend = SelectionBackend::kSplitIndex;
};

/// Definitional greedy policy; works on any hierarchy (tree or DAG).
class GreedyNaivePolicy : public Policy {
 public:
  GreedyNaivePolicy(const Hierarchy& hierarchy, const Distribution& dist,
                    GreedyNaiveOptions options = {});

  std::string name() const override {
    return options_.backend == SelectionBackend::kBfsRescan
               ? "GreedyNaive[bfs]"
               : "GreedyNaive";
  }
  std::unique_ptr<SearchSession> NewSession() const override;

 private:
  const Hierarchy* hierarchy_;
  std::vector<Weight> weights_;
  GreedyNaiveOptions options_;
  // Shared immutable selection base; sessions are O(1) overlays over it
  // (null for the BFS reference backend, which needs no precomputation).
  std::unique_ptr<SplitWeightBase> base_;
};

}  // namespace aigs

#endif  // AIGS_CORE_GREEDY_NAIVE_H_

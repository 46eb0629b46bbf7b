// GreedyDAG (Algorithm 6): the efficient instantiation of the rounded greedy
// policy on general DAG hierarchies, 2(1+3 ln n)-approximate (Theorem 1).
//
// Query selection walks the candidate DAG from the root by BFS, expanding
// only nodes v with 2·w̃(v) > w̃(r): any v with 2·w̃(v) ≤ w̃(r) dominates all
// of its descendants (its split difference is no worse), so the search
// prunes below it while still considering v itself — exactly the paper's
// lines 4–11. The first node discovered with the smallest split difference
// wins. Session weights w̃(v) = w(R(v) ∩ C) come from SplitWeightIndex, so a
// "no" answer is one row subtraction from the alive set instead of
// Algorithm 7's reverse BFS per removed node.
#ifndef AIGS_CORE_GREEDY_DAG_H_
#define AIGS_CORE_GREEDY_DAG_H_

#include <memory>
#include <string>
#include <vector>

#include "core/hierarchy.h"
#include "core/policy.h"
#include "core/split_weight_index.h"
#include "prob/distribution.h"
#include "prob/rounding.h"

namespace aigs {

/// Tuning knobs for GreedyDAG.
struct GreedyDagOptions {
  /// Apply Eq. (1) rounding (the paper's default for DAGs — Theorem 1).
  /// Disable for online learning, where raw empirical counts are already
  /// integers >= 1.
  bool use_rounded_weights = true;
  RoundingOptions rounding;

  /// Expand the selection BFS below dominated nodes anyway (ablation knob:
  /// turns selection into an exhaustive scan of the alive sub-DAG; the
  /// chosen node is identical, selection just costs more).
  bool disable_dominance_pruning = false;
};

/// Greedy policy on DAGs (works on trees too, where it runs on the same
/// Euler-mode SplitWeightIndex overlay as GreedyTree).
class GreedyDagPolicy : public Policy {
 public:
  GreedyDagPolicy(const Hierarchy& hierarchy, const Distribution& dist,
                  GreedyDagOptions options = {});

  std::string name() const override { return "GreedyDAG"; }
  std::unique_ptr<SearchSession> NewSession() const override;

 private:
  GreedyDagOptions options_;
  std::vector<Weight> weights_;
  // Shared immutable selection base over weights_; sessions are O(1)
  // overlays over it.
  SplitWeightBase base_;
};

}  // namespace aigs

#endif  // AIGS_CORE_GREEDY_DAG_H_

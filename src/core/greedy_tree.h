// GreedyTree (Algorithm 4): the paper's efficient instantiation of the
// greedy policy on tree hierarchies. Each round descends the weighted heavy
// path from the current root — Theorem 5 proves it contains a middle point —
// so query selection costs O(h·d) (or O(h log d) with the lazy-heap child
// scan) instead of the naive O(n·m). Sessions run on the shared
// SplitWeightIndex, whose Euler mode is Algorithm 4's removed-subtree
// overlay: the walk reads each alive node's session subtree weight in O(1).
//
// Approximation guarantee: (1+√5)/2 ≈ 1.618 on trees (Theorem 2).
#ifndef AIGS_CORE_GREEDY_TREE_H_
#define AIGS_CORE_GREEDY_TREE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/hierarchy.h"
#include "core/policy.h"
#include "core/split_weight_index.h"
#include "prob/distribution.h"
#include "prob/rounding.h"

namespace aigs {

/// Tuning knobs for GreedyTree.
struct GreedyTreeOptions {
  /// Apply the Eq. (1) rounding before searching. The paper's tree analysis
  /// (Theorem 2) uses raw weights, so this defaults to off; enabling it
  /// reproduces the Theorem 1 configuration on trees (ablation).
  bool use_rounded_weights = false;
  RoundingOptions rounding;

  /// How the descent finds the max-weight child: linear scan (the paper's
  /// O(nhd) bound) or a lazily-maintained per-node max-heap (the footnote's
  /// O(nh log d) variant).
  enum class ChildScan { kLinear, kLazyHeap };
  ChildScan child_scan = ChildScan::kLinear;
};

/// Greedy policy on trees. The hierarchy must satisfy is_tree().
class GreedyTreePolicy : public Policy {
 public:
  /// Binds the policy to a hierarchy and a target distribution. The
  /// hierarchy must outlive the policy; the distribution's weights are
  /// copied.
  GreedyTreePolicy(const Hierarchy& hierarchy, const Distribution& dist,
                   GreedyTreeOptions options = {});

  std::string name() const override { return "GreedyTree"; }
  std::unique_ptr<SearchSession> NewSession() const override;

  const GreedyTreeOptions& options() const { return options_; }

 private:
  GreedyTreeOptions options_;
  std::vector<Weight> weights_;
  // Shared immutable selection base over weights_; sessions are O(1)
  // overlays over it.
  SplitWeightBase base_;
};

}  // namespace aigs

#endif  // AIGS_CORE_GREEDY_TREE_H_

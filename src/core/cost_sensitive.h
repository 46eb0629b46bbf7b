// Cost-sensitive greedy for CAIGS (§III-D): when question q charges price
// c(q), the policy queries the *cost-sensitive middle point*
//
//   u* = argmax_u  p(G_u ∩ C) · p(C \ G_u) / c(u)      (Definition 9)
//
// which balances an even probability split against a cheap question. With
// unit prices this degenerates to the plain middle point (Definition 4).
// The rounded variant is 2(1+3 ln n)-approximate for CAIGS (Theorem 4).
#ifndef AIGS_CORE_COST_SENSITIVE_H_
#define AIGS_CORE_COST_SENSITIVE_H_

#include <memory>
#include <string>

#include <vector>

#include "core/hierarchy.h"
#include "core/policy.h"
#include "core/split_weight_index.h"
#include "oracle/cost_model.h"
#include "prob/distribution.h"
#include "prob/rounding.h"

namespace aigs {

/// Tuning knobs for the cost-sensitive greedy.
struct CostSensitiveOptions {
  /// Apply Eq. (1) rounding (Theorem 4's configuration).
  bool use_rounded_weights = true;
  RoundingOptions rounding;
};

/// Cost-sensitive greedy policy (any hierarchy). Selection scans all alive
/// candidates per round on the shared SplitWeightIndex — O(alive) per pick
/// on trees, O(alive · n/64) on DAGs; the heavy-path shortcut of
/// Theorem 5 does not carry over to heterogeneous prices, and dominance
/// pruning is unsound once prices skew the objective.
class CostSensitiveGreedyPolicy : public Policy {
 public:
  CostSensitiveGreedyPolicy(const Hierarchy& hierarchy,
                            const Distribution& dist, const CostModel& costs,
                            CostSensitiveOptions options = {});

  std::string name() const override { return "CostSensitiveGreedy"; }
  std::unique_ptr<SearchSession> NewSession() const override;

 private:
  const Hierarchy* hierarchy_;
  std::vector<Weight> weights_;
  const CostModel* costs_;
  // Shared immutable selection base; sessions are O(1) overlays over it.
  std::unique_ptr<SplitWeightBase> base_;
};

}  // namespace aigs

#endif  // AIGS_CORE_COST_SENSITIVE_H_

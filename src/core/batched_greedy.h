// Batched greedy search (§III-E extension): ask k reachability questions per
// interaction round to cut crowd latency. Question selection iterates the
// middle-point rule: the i-th question of a round is the middle point of the
// candidate region left after assuming "no" to the round's earlier picks —
// a greedy flavor of the k-partition scheme [Kundu–Misra] the paper points
// at for trees. All k answers arrive together and are intersected into the
// candidate set.
//
// The paper sketches provable guarantees for trees only (general DAGs are
// left open); this implementation runs on any hierarchy and always includes
// the true middle point as the round's first question, so every round makes
// strict progress.
//
// Selection backends (both ask identical question batches):
//  * kSplitIndex (default): the round simulation runs on a SplitWeightIndex
//    scratch — O(alive) per pick on trees, O(alive · n/64) on DAGs — and
//    each arriving answer is folded in as one bitset intersection /
//    ancestor-path update instead of a per-candidate reachability loop.
//  * kBfsRescan: the original per-pick BFS scan over a copied candidate set
//    (O(k·n·m) per round), kept as the equivalence reference.
#ifndef AIGS_CORE_BATCHED_GREEDY_H_
#define AIGS_CORE_BATCHED_GREEDY_H_

#include <memory>
#include <string>

#include "core/hierarchy.h"
#include "core/policy.h"
#include "core/selection_backend.h"
#include "core/split_weight_index.h"
#include "prob/distribution.h"

namespace aigs {

/// Tuning knobs for the batched greedy policy.
struct BatchedGreedyOptions {
  /// Questions per interaction round (k = 1 degenerates to the sequential
  /// greedy policy).
  std::size_t questions_per_round = 4;
  /// Selection backend; kBfsRescan reproduces the seed's runtime behavior.
  SelectionBackend backend = SelectionBackend::kSplitIndex;
};

/// Greedy policy asking k questions per round.
class BatchedGreedyPolicy : public Policy {
 public:
  BatchedGreedyPolicy(const Hierarchy& hierarchy, const Distribution& dist,
                      BatchedGreedyOptions options = {});

  std::string name() const override { return "BatchedGreedy"; }
  std::unique_ptr<SearchSession> NewSession() const override;

 private:
  const Hierarchy* hierarchy_;
  std::vector<Weight> weights_;
  BatchedGreedyOptions options_;
  // Shared immutable selection base; sessions are O(1) overlays over it
  // (null for the BFS reference backend).
  std::unique_ptr<SplitWeightBase> base_;
};

}  // namespace aigs

#endif  // AIGS_CORE_BATCHED_GREEDY_H_

#include "core/greedy_dag.h"

namespace aigs {
namespace {

class GreedyDagSession final : public SearchSession {
 public:
  GreedyDagSession(const SplitWeightBase& base, bool disable_pruning)
      : index_(base), disable_pruning_(disable_pruning) {}

  Query PlanQuestion() const override {
    if (index_.AliveCount() == 1) {
      return Query::Done(index_.Target());
    }
    return Query::ReachQuery(SelectQueryNode());
  }

  void ApplyReach(NodeId q, bool yes) override {
    index_.ApplyPlanned(q, yes);
  }

  Status ApplyObservedStep(const TranscriptStep& step) override {
    if (step.kind != Query::Kind::kReach) {
      return SearchSession::ApplyObservedStep(step);
    }
    return index_.TryApplyObservedReach(step.nodes[0], step.yes);
  }

 private:
  // Algorithm 6 lines 4–11: BFS from the root over alive nodes; consider
  // every discovered child as a middle-point candidate, but only descend
  // below children that still dominate half the remaining weight.
  NodeId SelectQueryNode() const {
    const SplitWeightBase& base = index_.base();
    const Weight total = index_.TotalAlive();
    NodeId best = kInvalidNode;
    Weight best_diff = 0;
    index_.DescendFromRoot([&](NodeId v) {
      if (best != kInvalidNode && !disable_pruning_) {
        // Exact skip before the session weight w = w(R(v) ∩ C): w ≤ full =
        // w(R(v)), so when full ≤ total − full, w ≤ total − w too (v is not
        // expanded) and its diff total − 2w ≥ total − 2·full ≥ best_diff
        // (v cannot strictly win). full counts dead nodes and may exceed
        // total, hence the first guard.
        const Weight full = base.FullReachWeight(v);
        if (full <= total && full <= total - full &&
            (total - full) - full >= best_diff) {
          return false;
        }
      }
      // Compare w against total - w instead of forming 2*w, which can
      // overflow Weight for totals above 2^63 (kRealScale-scaled
      // distributions on large catalogs get close).
      const Weight w = index_.ReachWeight(v);
      const Weight rest = total - w;  // w <= total: reach of alive subset
      const Weight diff = w > rest ? w - rest : rest - w;
      if (best == kInvalidNode || diff < best_diff) {
        best = v;
        best_diff = diff;
      }
      return disable_pruning_ || w > rest;
    });
    // AliveCount() > 1 plus the downward-closure invariant guarantee the
    // root has at least one alive child.
    AIGS_CHECK(best != kInvalidNode);
    return best;
  }

  SplitWeightIndex index_;
  bool disable_pruning_;
};

}  // namespace

GreedyDagPolicy::GreedyDagPolicy(const Hierarchy& hierarchy,
                                 const Distribution& dist,
                                 GreedyDagOptions options)
    : options_(options),
      weights_(options.use_rounded_weights
                   ? RoundWeights(dist, options.rounding)
                   : dist.weights()),
      base_(hierarchy, weights_) {
  AIGS_CHECK(dist.size() == hierarchy.NumNodes());
}

std::unique_ptr<SearchSession> GreedyDagPolicy::NewSession() const {
  return std::make_unique<GreedyDagSession>(
      base_, options_.disable_dominance_pruning);
}

}  // namespace aigs

#include "core/greedy_tree.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/node_map.h"

namespace aigs {
namespace {

/// |2a - b| in unsigned arithmetic, computed as |a - (b - a)| so it stays
/// overflow-free for any a <= b (2a can exceed 2^64 on kRealScale-scaled
/// distributions over large catalogs).
Weight SplitDiff(Weight subtree, Weight total) {
  const Weight rest = total - subtree;
  return subtree > rest ? subtree - rest : rest - subtree;
}

/// True iff 2a > b without forming 2a (a <= b).
bool MoreThanHalf(Weight subtree, Weight total) {
  return subtree > total - subtree;
}

/// One search session implementing the Algorithm 4 descent over a
/// SplitWeightIndex (its Euler mode is Algorithm 4's removed-subtree
/// overlay).
class GreedyTreeSession final : public SearchSession {
 public:
  GreedyTreeSession(const SplitWeightBase& base,
                    GreedyTreeOptions::ChildScan child_scan)
      : index_(base), child_scan_(child_scan) {}

  Query PlanQuestion() const override {
    if (index_.AliveCount() == 1) {
      return Query::Done(index_.Target());
    }
    return Query::ReachQuery(SelectQueryNode());
  }

  void ApplyReach(NodeId q, bool yes) override {
    // A removal invalidates cached heap entries along the ancestor path;
    // the lazy heap self-heals by re-checking weights on pop.
    index_.ApplyPlanned(q, yes);
  }

  Status ApplyObservedStep(const TranscriptStep& step) override {
    if (step.kind != Query::Kind::kReach) {
      return SearchSession::ApplyObservedStep(step);
    }
    return index_.TryApplyObservedReach(step.nodes[0], step.yes);
  }

 private:
  // Algorithm 4 lines 4–9: walk down the weighted heavy path while the
  // current node still dominates half the remaining weight; return the
  // better of the last two nodes visited. Never returns the current root
  // (its answer is known to be yes).
  NodeId SelectQueryNode() const {
    const NodeId r = index_.root();
    const Weight total = index_.TotalAlive();
    NodeId u = kInvalidNode;
    NodeId v = r;
    NodeId first_child = kInvalidNode;
    while (MoreThanHalf(index_.AliveReachWeight(v), total) &&
           !IsSessionLeaf(v)) {
      u = v;
      v = MaxWeightAliveChild(v);
      AIGS_DCHECK(v != kInvalidNode);
      if (first_child == kInvalidNode) {
        first_child = v;
      }
    }
    if (u == kInvalidNode) {
      // Zero-weight remainder (possible only when the distribution assigns
      // no mass to the surviving candidates): any alive child keeps the
      // search progressing and costs nothing in expectation.
      return MaxWeightAliveChild(r);
    }
    const NodeId q =
        SplitDiff(index_.AliveReachWeight(u), total) <=
                SplitDiff(index_.AliveReachWeight(v), total)
            ? u
            : v;
    // Querying the root is a wasted question; fall to its heavy child.
    return q == r ? first_child : q;
  }

  // A node is a leaf of the candidate tree when no descendant survives.
  bool IsSessionLeaf(NodeId v) const {
    return index_.AliveReachCount(v) == 1;
  }

  NodeId MaxWeightAliveChild(NodeId v) const {
    return child_scan_ == GreedyTreeOptions::ChildScan::kLinear
               ? MaxChildLinear(v)
               : MaxChildHeap(v);
  }

  NodeId MaxChildLinear(NodeId v) const {
    NodeId best = kInvalidNode;
    Weight best_weight = 0;
    for (const NodeId c : index_.hierarchy().graph().Children(v)) {
      const std::optional<Weight> w = index_.AliveChildReachWeight(c);
      if (w && (best == kInvalidNode || *w > best_weight)) {
        best = c;
        best_weight = *w;
      }
    }
    return best;
  }

  // Lazy max-heap per visited node: entries carry the weight observed at
  // push time; stale tops (weights only ever decrease) are re-pushed with
  // their current weight until the top is fresh.
  NodeId MaxChildHeap(NodeId v) const {
    auto& heap = heaps_[v];
    if (!heap.initialized) {
      for (const NodeId c : index_.hierarchy().graph().Children(v)) {
        if (const std::optional<Weight> w = index_.AliveChildReachWeight(c)) {
          heap.entries.push_back({*w, c});
        }
      }
      std::make_heap(heap.entries.begin(), heap.entries.end());
      heap.initialized = true;
    }
    auto& entries = heap.entries;
    while (!entries.empty()) {
      const auto [cached_weight, c] = entries.front();
      const std::optional<Weight> current = index_.AliveChildReachWeight(c);
      if (!current) {
        std::pop_heap(entries.begin(), entries.end());
        entries.pop_back();
        continue;
      }
      if (*current == cached_weight) {
        return c;
      }
      std::pop_heap(entries.begin(), entries.end());
      entries.back() = {*current, c};
      std::push_heap(entries.begin(), entries.end());
    }
    return kInvalidNode;
  }

  struct LazyHeap {
    bool initialized = false;
    std::vector<std::pair<Weight, NodeId>> entries;
  };

  SplitWeightIndex index_;
  GreedyTreeOptions::ChildScan child_scan_;
  // Planner memoization: lazily-built per-node max-heaps over child subtree
  // weights. Self-healing (stale tops re-check current weights on pop), so
  // the heaps are derived state, never a source of nondeterminism.
  mutable NodeMap<LazyHeap> heaps_;
};

}  // namespace

GreedyTreePolicy::GreedyTreePolicy(const Hierarchy& hierarchy,
                                   const Distribution& dist,
                                   GreedyTreeOptions options)
    : options_(options),
      weights_(options.use_rounded_weights
                   ? RoundWeights(dist, options.rounding)
                   : dist.weights()),
      base_(hierarchy, weights_) {
  AIGS_CHECK(hierarchy.is_tree());
  AIGS_CHECK(dist.size() == hierarchy.NumNodes());
}

std::unique_ptr<SearchSession> GreedyTreePolicy::NewSession() const {
  return std::make_unique<GreedyTreeSession>(base_, options_.child_scan);
}

}  // namespace aigs

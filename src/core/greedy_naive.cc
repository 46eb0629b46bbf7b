#include "core/greedy_naive.h"

#include "core/middle_point.h"
#include "core/split_weight_index.h"
#include "graph/candidate_set.h"

namespace aigs {
namespace {

// Reference backend: per-candidate BFS rescans (Algorithm 2/3 verbatim).
class GreedyNaiveBfsSession final : public SearchSession {
 public:
  GreedyNaiveBfsSession(const Hierarchy& h, const std::vector<Weight>& weights)
      : hierarchy_(&h),
        graph_(&h.graph()),
        weights_(&weights),
        candidates_(h.graph()),
        scratch_(h.NumNodes()),
        root_(h.root()) {
    total_weight_ = 0;
    for (const Weight w : weights) {
      total_weight_ += w;
    }
  }

  Query PlanQuestion() const override {
    if (candidates_.alive_count() == 1) {
      return Query::Done(candidates_.SoleCandidate());
    }
    const MiddlePoint mp = FindMiddlePointNaive(
        *graph_, candidates_, root_, *weights_, total_weight_, scratch_);
    AIGS_CHECK(mp.node != kInvalidNode);
    planned_node_ = mp.node;
    planned_reach_weight_ = mp.reach_weight;
    return Query::ReachQuery(mp.node);
  }

  void ApplyReach(NodeId q, bool yes) override {
    // w(R(q) ∩ C): reuse the planner's value when this session planned q
    // itself; recompute only for a cache-supplied question.
    Weight reach_weight;
    if (plan_settled() && planned_node_ == q) {
      reach_weight = planned_reach_weight_;
    } else {
      reach_weight = 0;
      scratch_.ForwardBfs(
          *graph_, q,
          [this](NodeId x) { return candidates_.IsAlive(x); },
          [&](NodeId x) { reach_weight += (*weights_)[x]; });
    }
    if (yes) {
      candidates_.RestrictToReachable(q);
      root_ = q;
      total_weight_ = reach_weight;
    } else {
      candidates_.RemoveReachable(q);
      total_weight_ -= reach_weight;
    }
  }

  Status ApplyObservedStep(const TranscriptStep& step) override {
    if (step.kind != Query::Kind::kReach) {
      return SearchSession::ApplyObservedStep(step);
    }
    const NodeId q = step.nodes[0];
    if (q >= hierarchy_->NumNodes()) {
      return Status::OutOfRange("observed question node " +
                                std::to_string(q) +
                                " outside the hierarchy");
    }
    // Fold through the reachability index, not a BFS from q: an observed
    // q may itself be eliminated (dead), where the alive-predicate BFS
    // cannot start (same reasoning as ScriptedSession).
    const ReachabilityIndex& reach = hierarchy_->reach();
    std::vector<NodeId> to_kill;
    Weight killed_weight = 0;
    candidates_.bits().ForEachSetBit([&](std::size_t raw) {
      const NodeId t = static_cast<NodeId>(raw);
      if (reach.Reaches(q, t) != step.yes) {
        to_kill.push_back(t);
        killed_weight += (*weights_)[t];
      }
    });
    if (to_kill.size() == candidates_.alive_count()) {
      return Status::InvalidArgument(
          "observed answer for node " + std::to_string(q) +
          " would eliminate every candidate (inconsistent transcript)");
    }
    if (step.yes) {
      if (!candidates_.IsAlive(q) && !to_kill.empty()) {
        // A dead q whose yes still splits the candidates cannot come from
        // a genuine same-hierarchy transcript; the rooted middle-point
        // scan cannot survive a dead root, so refuse rather than guess.
        return Status::Unimplemented(
            "observed yes for eliminated node " + std::to_string(q) +
            " still splits the candidates");
      }
      if (candidates_.IsAlive(q)) {
        root_ = q;  // q alive ⇒ the old root reaches q ⇒ root moves down
      }
    }
    for (const NodeId t : to_kill) {
      candidates_.KillOne(t);
    }
    total_weight_ -= killed_weight;
    return Status::OK();
  }

 private:
  const Hierarchy* hierarchy_;
  const Digraph* graph_;
  const std::vector<Weight>* weights_;
  CandidateSet candidates_;
  mutable BfsScratch scratch_;
  NodeId root_;
  Weight total_weight_ = 0;
  // Planner memo: the last planned pivot and its reach weight, so the
  // common planned-locally path applies in O(1) extra work.
  mutable NodeId planned_node_ = kInvalidNode;
  mutable Weight planned_reach_weight_ = 0;
};

// Fast backend: incremental split weights + dominance-pruned selection.
// Construction is O(1) — the session is an overlay over the policy's base.
class GreedyNaiveIndexSession final : public SearchSession {
 public:
  explicit GreedyNaiveIndexSession(const SplitWeightBase& base)
      : index_(base) {}

  Query PlanQuestion() const override {
    if (index_.AliveCount() == 1) {
      return Query::Done(index_.Target());
    }
    return Query::ReachQuery(index_.FindMiddlePoint().node);
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
  SplitWeightIndex index_;
};

}  // namespace

GreedyNaivePolicy::GreedyNaivePolicy(const Hierarchy& hierarchy,
                                     const Distribution& dist,
                                     GreedyNaiveOptions options)
    : hierarchy_(&hierarchy),
      weights_(options.use_rounded_weights ? RoundWeights(dist, options.rounding)
                                           : dist.weights()),
      options_(options) {
  AIGS_CHECK(dist.size() == hierarchy.NumNodes());
  if (options_.backend == SelectionBackend::kSplitIndex) {
    base_ = std::make_unique<SplitWeightBase>(hierarchy, weights_);
  }
}

std::unique_ptr<SearchSession> GreedyNaivePolicy::NewSession() const {
  if (options_.backend == SelectionBackend::kBfsRescan) {
    return std::make_unique<GreedyNaiveBfsSession>(*hierarchy_, weights_);
  }
  return std::make_unique<GreedyNaiveIndexSession>(*base_);
}

}  // namespace aigs

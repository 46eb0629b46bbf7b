#include "core/split_weight_index.h"

#include <algorithm>

namespace aigs {

SplitWeightBase::SplitWeightBase(const Hierarchy& hierarchy,
                                 const std::vector<Weight>& weights)
    : hierarchy_(&hierarchy),
      reach_(&hierarchy.reach()),
      node_weights_(&weights),
      euler_(hierarchy.reach().euler_mode()),
      full_reach_weight_(hierarchy.reach().AllReachableSetWeights(weights)) {
  AIGS_CHECK(weights.size() == hierarchy.NumNodes());
  for (const Weight w : weights) {
    total_ += w;
  }
  if (euler_) {
    return;
  }
  compressed_ =
      reach_->storage() == ReachabilityIndex::Storage::kCompressedClosure;
  if (compressed_) {
    // Sessions keep their alive bitsets in the compressed closure's
    // position space, so the weight table (and its block sums) must be
    // permuted the same way.
    const CompressedClosure& cc = reach_->compressed();
    const std::size_t n = hierarchy.NumNodes();
    pos_weights_.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
      pos_weights_[p] = weights[cc.node_at_pos(p)];
    }
    pos_blocked_ = BlockedWeights(pos_weights_);
  } else {
    blocked_ = BlockedWeights(weights);
  }
}

SplitWeightIndex::SplitWeightIndex(const SplitWeightBase& base)
    : base_(&base),
      euler_(base.euler_mode()),
      compressed_(base.compressed_mode()),
      // Euler sessions take their table at Open: a median Amazon GreedyTree
      // session ends with 21 entries, so 64 slots keep its answers free of
      // allocation. Closure sessions never use the map and allocate nothing.
      removed_(euler_ ? 64 : 0) {
  Reset();
}

void SplitWeightIndex::Reset() {
  root_ = base_->hierarchy().root();
  alive_count_ = base_->hierarchy().NumNodes();
  total_alive_ = base_->Total();
  removed_.Clear();
  materialized_ = false;
}

void SplitWeightIndex::ResetFrom(const SplitWeightIndex& other) {
  AIGS_DCHECK(base_ == other.base_);
  root_ = other.root_;
  alive_count_ = other.alive_count_;
  total_alive_ = other.total_alive_;
  if (euler_) {
    removed_ = other.removed_;
  } else {
    materialized_ = other.materialized_;
    if (materialized_) {
      alive_ = other.alive_;
    }
  }
}

// ---- removed-subtree overlay (Euler mode) ----------------------------------

bool SplitWeightIndex::AliveBelowRoot(NodeId v) const {
  if (v == root_ || !base_->reach().Reaches(root_, v)) {
    return false;
  }
  // The root itself is never a removed top while candidates remain.
  const Tree& tree = base_->hierarchy().tree();
  for (NodeId a = v; a != root_; a = tree.Parent(a)) {
    if (removed_.GetOr(a, Removed{}).top) {
      return false;
    }
  }
  return true;
}

const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
SplitWeightIndex::SortedRemovedWindows() const {
  // Enumerates the removed tops rather than probing the map at every Euler
  // position; tops outside T_root are stale (an earlier root's) and
  // skipped.
  const ReachabilityIndex& reach = base_->reach();
  windows_.clear();
  removed_.ForEach([&](NodeId v, const Removed& r) {
    if (r.top && reach.Reaches(root_, v)) {
      windows_.emplace_back(reach.EulerBegin(v), reach.EulerEnd(v));
    }
  });
  std::sort(windows_.begin(), windows_.end());
  return windows_;
}

// ---- state queries ----------------------------------------------------------

bool SplitWeightIndex::IsAlive(NodeId v) const {
  if (euler_) {
    return alive_count_ > 0 && (v == root_ || AliveBelowRoot(v));
  }
  if (!materialized_) {
    return true;
  }
  return alive_.Test(compressed_ ? base_->reach().compressed().pos(v) : v);
}

NodeId SplitWeightIndex::Target() const {
  AIGS_CHECK(alive_count_ == 1);
  if (euler_) {
    return root_;  // the root is a candidate while any remain
  }
  if (!materialized_) {
    return base_->hierarchy().root();  // n == 1
  }
  if (compressed_) {
    return base_->reach().compressed().node_at_pos(alive_.FindFirst());
  }
  return static_cast<NodeId>(alive_.FindFirst());
}

Weight SplitWeightIndex::ReachWeight(NodeId v) const {
  if (euler_) {
    if (alive_count_ == 0) {
      return 0;
    }
    if (base_->reach().Reaches(v, root_)) {
      return total_alive_;  // v is the root or above it
    }
    return AliveBelowRoot(v) ? AliveReachWeight(v) : 0;
  }
  if (!materialized_) {
    return base_->FullReachWeight(v);
  }
  if (compressed_) {
    return base_->reach()
        .compressed()
        .IntersectCountAndWeight(v, alive_, base_->pos_blocked_weights())
        .weight;
  }
  return alive_.MaskedWeightedSum(base_->reach().ClosureRow(v),
                                  base_->blocked_weights());
}

std::size_t SplitWeightIndex::ReachCount(NodeId v) const {
  if (euler_) {
    if (alive_count_ == 0) {
      return 0;
    }
    if (base_->reach().Reaches(v, root_)) {
      return alive_count_;
    }
    return AliveBelowRoot(v) ? AliveReachCount(v) : 0;
  }
  if (!materialized_) {
    return base_->reach().ReachableCount(v);
  }
  if (compressed_) {
    return base_->reach().compressed().IntersectCount(v, alive_);
  }
  return alive_.IntersectionCount(base_->reach().ClosureRow(v));
}

// ---- answer application -----------------------------------------------------

void SplitWeightIndex::MaterializeAllAlive() {
  const std::size_t n = base_->hierarchy().NumNodes();
  if (alive_.size() != n) {
    alive_.Resize(n, true);
  } else {
    alive_.SetAll();
  }
  materialized_ = true;
}

void SplitWeightIndex::ApplyYes(NodeId q) {
  // A batched round can apply a yes for an ancestor of an earlier yes of
  // the same round (it adds no information). The root only ever moves DOWN
  // (to nodes the current root reaches), preserving the invariant that
  // every candidate is reachable from root() through alive nodes — which
  // the rooted selection descents rely on.
  const bool moves_down = base_->reach().Reaches(root_, q);
  if (euler_) {
    if (q == root_ || alive_count_ == 0) {
      root_ = moves_down ? q : root_;
      return;
    }
    if (!moves_down) {
      // q is above the root (no information) or disjoint from T_root
      // (nothing survives).
      if (!base_->reach().Reaches(q, root_)) {
        KillAll();
      }
      return;
    }
    if (AliveBelowRoot(q)) {
      // The deltas inside T_q stay exact: every removal below q was added
      // to q and its descendants on the way up to the old root.
      total_alive_ = AliveReachWeight(q);
      alive_count_ = AliveReachCount(q);
    } else {
      KillAll();  // q itself is dead: R(q) ∩ C is empty
    }
    root_ = q;
    return;
  }
  if (compressed_) {
    const CompressedClosure& cc = base_->reach().compressed();
    if (!materialized_) {
      if (alive_.size() != cc.num_nodes()) {
        alive_.Resize(cc.num_nodes());
      } else {
        alive_.ClearAll();
      }
      cc.ExpandRowInto(q, alive_);
      materialized_ = true;
      total_alive_ = base_->FullReachWeight(q);
      alive_count_ = base_->reach().ReachableCount(q);
    } else {
      const DynamicBitset::CountAndWeight cw =
          cc.IntersectCountAndWeight(q, alive_, base_->pos_blocked_weights());
      total_alive_ = cw.weight;
      alive_count_ = cw.count;
      cc.IntersectInto(q, alive_);
    }
    if (moves_down) {
      root_ = q;
    }
    return;
  }
  const DynamicBitset& row = base_->reach().ClosureRow(q);
  if (!materialized_) {
    alive_ = row;
    materialized_ = true;
    total_alive_ = base_->FullReachWeight(q);
    alive_count_ = base_->reach().ReachableCount(q);
  } else {
    total_alive_ =
        alive_.MaskedWeightedSum(row, base_->blocked_weights());
    alive_count_ = alive_.IntersectionCount(row);
    alive_.AndWith(row);
  }
  if (moves_down) {
    root_ = q;
  }
}

void SplitWeightIndex::ApplyNo(NodeId q) {
  if (euler_) {
    if (alive_count_ == 0) {
      return;
    }
    const ReachabilityIndex& reach = base_->reach();
    if (reach.Reaches(q, root_)) {
      KillAll();  // q is the root or above it: every candidate is in R(q)
      return;
    }
    const Removed own = removed_.GetOr(q, Removed{});
    if (own.top || !reach.Reaches(root_, q)) {
      return;  // already removed, or disjoint from the candidates
    }
    // Algorithm 4, lines 11–14: T_q's session weight and count leave every
    // node from q's parent up to the root. A removed top met on the way
    // means q was dead all along: the walk stops there, having touched only
    // nodes inside that removed subtree, whose deltas are never read again.
    const Tree& tree = base_->hierarchy().tree();
    const Weight w = base_->FullReachWeight(q) - own.weight;
    const std::uint32_t c =
        static_cast<std::uint32_t>(reach.ReachableCount(q)) - own.count;
    for (NodeId a = tree.Parent(q);; a = tree.Parent(a)) {
      Removed& r = removed_[a];
      if (r.top) {
        return;
      }
      r.weight += w;
      r.count += c;
      if (a == root_) {
        break;
      }
    }
    removed_[q].top = true;
    total_alive_ -= w;
    alive_count_ -= c;
    return;
  }
  if (!materialized_) {
    MaterializeAllAlive();
  }
  if (compressed_) {
    const CompressedClosure& cc = base_->reach().compressed();
    const DynamicBitset::CountAndWeight cw =
        cc.IntersectCountAndWeight(q, alive_, base_->pos_blocked_weights());
    total_alive_ -= cw.weight;
    alive_count_ -= cw.count;
    cc.SubtractFrom(q, alive_);
    return;
  }
  const DynamicBitset& row = base_->reach().ClosureRow(q);
  total_alive_ -= alive_.MaskedWeightedSum(row, base_->blocked_weights());
  alive_count_ -= alive_.IntersectionCount(row);
  alive_.AndNotWith(row);
}

void SplitWeightIndex::ApplyPlanned(NodeId q, bool yes) {
  AIGS_DCHECK(q != root_ && IsAlive(q));
  if (!yes) {
    ApplyNo(q);
  } else if (euler_) {
    const Removed below = removed_.GetOr(q, Removed{});
    total_alive_ = base_->FullReachWeight(q) - below.weight;
    alive_count_ = base_->reach().ReachableCount(q) - below.count;
    root_ = q;
  } else {
    ApplyYes(q);
  }
}

Status SplitWeightIndex::TryApplyObservedReach(NodeId q, bool yes) {
  if (q >= base_->hierarchy().NumNodes()) {
    return Status::OutOfRange("observed question node " + std::to_string(q) +
                              " outside the hierarchy");
  }
  const std::size_t inside = ReachCount(q);
  const std::size_t alive = AliveCount();
  if (yes) {
    if (inside == 0) {
      return Status::InvalidArgument(
          "observed yes for node " + std::to_string(q) +
          " would eliminate every candidate (inconsistent transcript)");
    }
    if (!IsAlive(q)) {
      if (inside == alive) {
        return Status::OK();  // no information; root must not move to q
      }
      return Status::Unimplemented(
          "observed yes for eliminated node " + std::to_string(q) +
          " still splits the candidates — not a same-hierarchy transcript");
    }
    ApplyYes(q);
    return Status::OK();
  }
  if (inside == 0) {
    return Status::OK();  // already known
  }
  if (inside == alive) {
    return Status::InvalidArgument(
        "observed no for node " + std::to_string(q) +
        " would eliminate every candidate (inconsistent transcript)");
  }
  // ApplyNo tolerates an eliminated q (the root never moves on a no), so
  // no aliveness restriction here.
  ApplyNo(q);
  return Status::OK();
}

void SplitWeightIndex::ApplyBatch(std::span<const NodeId> nodes,
                                  const std::vector<bool>& answers) {
  AIGS_CHECK(nodes.size() == answers.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (answers[i]) {
      ApplyYes(nodes[i]);
    } else {
      ApplyNo(nodes[i]);
    }
  }
}

// ---- selection --------------------------------------------------------------

MiddlePoint SplitWeightIndex::FindMiddlePoint() const {
  AIGS_DCHECK(alive_count_ > 1);
  const Weight total = total_alive_;
  MiddlePoint best;

  // Dominance-pruned descent from the root (the rooted generalization of
  // Algorithm 6's BFS). Weights are non-increasing along alive paths
  // (R(child) ∩ C ⊆ R(parent) ∩ C), so below a node with w ≤ total − w every
  // descendant's diff is ≥ the node's own; descending further can only
  // matter when the node ties the best diff seen so far (an equal-weight
  // descendant may have a smaller id). Expanding exactly those nodes visits
  // every global minimizer, making the (diff, id) argmin identical to the
  // naive full scan's.
  DescendFromRoot([&](NodeId v) {
    const Weight w = AliveReachWeight(v);
    // Overflow-safe |2w − total| as |w − (total − w)|; w ≤ total.
    const Weight rest = total - w;
    const Weight diff = w > rest ? w - rest : rest - w;
    if (best.node == kInvalidNode || diff < best.split_diff ||
        (diff == best.split_diff && v < best.node)) {
      best.node = v;
      best.split_diff = diff;
      best.reach_weight = w;
    }
    return w > rest || diff <= best.split_diff;
  });
  AIGS_CHECK(best.node != kInvalidNode);
  return best;
}

MiddlePoint SplitWeightIndex::FindSplittingMiddlePoint() const {
  const Weight total = total_alive_;
  const std::size_t count = alive_count_;
  MiddlePoint best;

  if (euler_) {
    // Pruned/rooted descent (the PR-2 follow-up): instead of the flat scan
    // over every alive candidate, BFS down from the current root. A node
    // covering the whole candidate set (|R(v) ∩ C| = |C|) is a wasted
    // question, but splitting nodes may sit below it, so it always expands;
    // a splitting node expands under the same dominance rule as
    // FindMiddlePoint (w > total − w, or it ties the best diff seen — an
    // equal-weight descendant with a smaller id could win the tie-break).
    // Subtree weights are non-increasing along alive paths, so a pruned
    // splitting node's descendants all carry a strictly worse diff than the
    // current best and can never become the (diff, id) argmin: the result
    // is bit-identical to the flat scan.
    DescendFromRoot([&](NodeId v) {
      if (AliveReachCount(v) == count) {
        return true;  // covering: wasted question, keep descending
      }
      const Weight w = AliveReachWeight(v);
      const Weight rest = total - w;
      const Weight diff = w > rest ? w - rest : rest - w;
      if (best.node == kInvalidNode || diff < best.split_diff ||
          (diff == best.split_diff && v < best.node)) {
        best.node = v;
        best.split_diff = diff;
        best.reach_weight = w;
      }
      return w > rest || diff <= best.split_diff;
    });
    return best;
  }

  const bool closure_fused = materialized_;
  ForEachAlive([&](NodeId v) {
    // The count gates the "splits the set" requirement, the weight feeds
    // the diff. Materialized closure mode fuses both into one word scan
    // (per-chunk over compressed rows); a pristine session checks the
    // (cheap) count first and skips the weight sum for covering nodes.
    Weight w;
    if (closure_fused) {
      const DynamicBitset::CountAndWeight cw =
          compressed_
              ? base_->reach().compressed().IntersectCountAndWeight(
                    v, alive_, base_->pos_blocked_weights())
              : alive_.MaskedCountAndWeightedSum(base_->reach().ClosureRow(v),
                                                base_->blocked_weights());
      if (cw.count == count) {
        return;  // "yes" is certain; the question is wasted
      }
      w = cw.weight;
    } else {
      if (AliveReachCount(v) == count) {
        return;  // "yes" is certain; the question is wasted
      }
      w = AliveReachWeight(v);
    }
    const Weight rest = total - w;
    const Weight diff = w > rest ? w - rest : rest - w;
    if (best.node == kInvalidNode || diff < best.split_diff ||
        (diff == best.split_diff && v < best.node)) {
      best.node = v;
      best.split_diff = diff;
      best.reach_weight = w;
    }
  });
  return best;
}

}  // namespace aigs

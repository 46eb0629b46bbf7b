// SplitWeightIndex — the one incremental selection layer behind every
// greedy policy: GreedyTree (Algorithm 4), GreedyDAG (Algorithm 6), the
// middle-point policies (GreedyNaive, BatchedGreedy, CostSensitiveGreedy)
// and WIGS-DAG.
//
// The naive selection rule recomputes w(R(v) ∩ C) with a fresh forward BFS
// from every alive candidate on every pick: O(n·m) per question. This layer
// makes that quantity incremental AND makes starting a search O(1): an
// immutable SplitWeightBase (built once per policy, shared by every
// session) holds all O(n) precomputation — w(R(v)) for every node — and
// each SplitWeightIndex session is a small overlay whose state is
// proportional to the answers received. No per-session O(n) anything; a
// service front end can open sessions per user request at memory-bandwidth
// cost.
//
// Two modes, chosen by the hierarchy's reachability index:
//
//  * Euler mode (trees): Algorithm 4's removed-subtree overlay. A session
//    is the current root plus one NodeMap of per-node deltas: the weight
//    and count that no-answers removed strictly below the node, and a flag
//    marking the top of each removed subtree. A no-answer on an alive q
//    adds T_q's session weight and count to every node on the path from
//    q's parent up to the root and flags q (Algorithm 4, lines 11–14): one
//    O(depth) walk. A yes-answer moves the root down; the deltas below the
//    new root stay exact, the rest are never read again. For an alive v,
//    w(R(v) ∩ C) is w(R(v)) minus v's delta (one probe), and a child of an
//    alive node is alive unless it is a removed top — the O(1) accessors
//    the descents read (IsAliveChild, AliveChildReachWeight,
//    AliveReachWeight, AliveReachCount).
//    Queries about any other node (dead, above the root, outside it) walk
//    from the node up to the root: O(depth).
//
//  * Closure mode (DAGs): a session starts in a pristine zero-allocation
//    state that answers every query from the base's full reachable-set
//    weights; the first answer materializes the alive bitset (one O(n/64)
//    word-parallel copy), after which w(R(v) ∩ C) is a blocked weighted
//    popcount of closure[v] & alive (util/bitset BlockedWeights kernel) and
//    each answer is one bitset intersection. When the reachability index
//    stores compressed rows, the same overlay runs directly on them: the
//    alive bitset and the blocked weight table live in the compressed
//    closure's DFS-preorder *position* space, and every kernel
//    (fused count+weight, AND, ANDNOT) consumes the interval / chunked
//    encodings without materializing a dense row — cost proportional to the
//    compressed row size instead of n/64. The alive-node accessors are the
//    general queries here.
//
// Selection entry points:
//  * FindMiddlePoint(): minimizes |2·w(R(v) ∩ C) − w(C)| over alive v ≠
//    root with GreedyDAG-style dominance pruning — the descent only expands
//    below v when w(R(v) ∩ C) still exceeds half the alive weight (a better
//    split may exist below) or when v ties the best diff seen (an
//    equal-weight descendant with a smaller id could win the tie-break).
//    That rule provably enumerates every global minimizer, so the result is
//    bit-identical to the naive full scan with its smallest-id tie-break.
//  * FindSplittingMiddlePoint(): the batched variant — additionally
//    requires |R(v) ∩ C| < |C| (a question whose yes-answer is certain is
//    wasted). Euler mode uses a pruned/rooted descent (covering nodes
//    always expand, splitting nodes expand under the FindMiddlePoint
//    dominance rule); closure mode keeps the flat scan with the fused
//    count+weight kernel.
//
// Both use the lexicographic (split_diff, node id) ordering, which matches
// the reference scan's first-wins-in-id-order tie-break exactly; the
// equivalence suite (tests/test_split_weight_index.cc) pins this.
#ifndef AIGS_CORE_SPLIT_WEIGHT_INDEX_H_
#define AIGS_CORE_SPLIT_WEIGHT_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/hierarchy.h"
#include "core/middle_point.h"
#include "util/bitset.h"
#include "util/common.h"
#include "util/epoch_marker.h"
#include "util/node_map.h"
#include "util/status.h"

namespace aigs {

/// Immutable per-(hierarchy, weights) precomputation shared by every search
/// session. Borrows `weights`; both the hierarchy and the weight vector
/// must outlive the base (policies own the vector, the base, and hand
/// sessions out — the snapshot layer pins all three).
class SplitWeightBase {
 public:
  SplitWeightBase(const Hierarchy& hierarchy,
                  const std::vector<Weight>& weights);

  SplitWeightBase(const SplitWeightBase&) = delete;
  SplitWeightBase& operator=(const SplitWeightBase&) = delete;

  const Hierarchy& hierarchy() const { return *hierarchy_; }
  const ReachabilityIndex& reach() const { return *reach_; }
  const std::vector<Weight>& weights() const { return *node_weights_; }
  bool euler_mode() const { return euler_; }
  /// True when closure mode runs on compressed rows (position space).
  bool compressed_mode() const { return compressed_; }
  /// Σ w over all nodes.
  Weight Total() const { return total_; }

  /// w(R(v)) over the full hierarchy (the pristine session's ReachWeight,
  /// and an upper bound on every session's). Either mode.
  Weight FullReachWeight(NodeId v) const { return full_reach_weight_[v]; }

  // ---- closure mode --------------------------------------------------------

  /// Block-sum table over `weights` for the popcount kernels (dense mode).
  const BlockedWeights& blocked_weights() const { return blocked_; }
  /// Block-sum table over the position-permuted weights (compressed mode).
  const BlockedWeights& pos_blocked_weights() const { return pos_blocked_; }

 private:
  const Hierarchy* hierarchy_;
  const ReachabilityIndex* reach_;
  const std::vector<Weight>* node_weights_;
  bool euler_;
  bool compressed_ = false;
  Weight total_ = 0;

  // w(R(v)) for every node (trees: Algorithm 5's subtree weights).
  std::vector<Weight> full_reach_weight_;

  // Dense closure mode: the blocked weight table.
  BlockedWeights blocked_;

  // Compressed closure mode: weights permuted into position space and their
  // block sums (sessions' alive bitsets live in position space too).
  std::vector<Weight> pos_weights_;
  BlockedWeights pos_blocked_;
};

/// One search session's view of (candidate set, split weights): an overlay
/// over a shared SplitWeightBase. Construction is O(1); state grows with
/// the answers applied, never with n (the closure-mode alive bitset
/// materializes lazily on the first answer).
class SplitWeightIndex {
 public:
  /// Starts with every node alive. The base must outlive the index.
  explicit SplitWeightIndex(const SplitWeightBase& base);

  /// Restores the all-alive initial state.
  void Reset();

  /// Copies another index's session state without rebuilding base data —
  /// the batched policy's per-round simulation scratch. Both must share the
  /// same base.
  void ResetFrom(const SplitWeightIndex& other);

  // ---- state queries --------------------------------------------------------

  std::size_t AliveCount() const { return alive_count_; }
  Weight TotalAlive() const { return total_alive_; }
  bool IsAlive(NodeId v) const;
  /// Current search root (moves on ApplyYes; every candidate is reachable
  /// from it through alive nodes, and it is a candidate itself while any
  /// remain).
  NodeId root() const { return root_; }
  /// The identified target; requires AliveCount() == 1.
  NodeId Target() const;

  /// w(R(v) ∩ C) for any node: O(depth) in Euler mode, O(n/64) in closure
  /// mode (O(1) while pristine).
  Weight ReachWeight(NodeId v) const;
  /// |R(v) ∩ C| with the same costs.
  std::size_t ReachCount(NodeId v) const;

  // ---- alive-node accessors (O(1) in Euler mode) ---------------------------

  /// IsAlive(v) for a node with an alive parent: on trees such a node is
  /// alive unless a no-answer removed the subtree it heads.
  bool IsAliveChild(NodeId v) const {
    return euler_ ? !removed_.GetOr(v, Removed{}).top : IsAlive(v);
  }
  /// IsAliveChild(v) and AliveReachWeight(v) in one lookup: the weight of
  /// a node with an alive parent, or nullopt when it is dead.
  std::optional<Weight> AliveChildReachWeight(NodeId v) const {
    if (!euler_) {
      return IsAlive(v) ? std::optional<Weight>(ReachWeight(v)) : std::nullopt;
    }
    const Removed r = removed_.GetOr(v, Removed{});
    if (r.top) {
      return std::nullopt;
    }
    return base_->FullReachWeight(v) - r.weight;
  }
  /// ReachWeight(v) for an alive v.
  Weight AliveReachWeight(NodeId v) const {
    return euler_ ? base_->FullReachWeight(v) -
                        removed_.GetOr(v, Removed{}).weight
                  : ReachWeight(v);
  }
  /// ReachCount(v) for an alive v.
  std::size_t AliveReachCount(NodeId v) const {
    if (!euler_) {
      return ReachCount(v);
    }
    const ReachabilityIndex& reach = base_->reach();
    return reach.EulerEnd(v) - reach.EulerBegin(v) -
           removed_.GetOr(v, Removed{}).count;
  }

  /// Invokes fn(NodeId) for every alive candidate. Euler mode iterates in
  /// Euler order, dense closure mode in node-id order, compressed closure
  /// mode in DFS-preorder position order — callers that care about order
  /// must impose their own tie-breaks. Euler mode runs on planner scratch:
  /// not reentrant.
  template <typename Fn>
  void ForEachAlive(Fn&& fn) const {
    if (euler_) {
      if (alive_count_ == 0) {
        return;
      }
      // T_root's Euler window minus the removed subtrees inside it, skipped
      // as whole windows (a top nested in an earlier one begins before pos).
      const ReachabilityIndex& reach = base_->reach();
      std::uint32_t pos = reach.EulerBegin(root_);
      for (const auto& [begin, end] : SortedRemovedWindows()) {
        for (; pos < begin; ++pos) {
          fn(reach.NodeAtEuler(pos));
        }
        pos = std::max(pos, end);
      }
      for (const std::uint32_t stop = reach.EulerEnd(root_); pos < stop;
           ++pos) {
        fn(reach.NodeAtEuler(pos));
      }
    } else if (!materialized_) {
      const std::size_t n = base_->hierarchy().NumNodes();
      for (std::size_t v = 0; v < n; ++v) {
        fn(static_cast<NodeId>(v));
      }
    } else if (compressed_) {
      const CompressedClosure& cc = base_->reach().compressed();
      alive_.ForEachSetBit(
          [&](std::size_t p) { fn(cc.node_at_pos(p)); });
    } else {
      alive_.ForEachSetBit(
          [&](std::size_t v) { fn(static_cast<NodeId>(v)); });
    }
  }

  // ---- answer application ---------------------------------------------------

  /// Applies reach(q) = yes: candidates ← R(q) ∩ C; root ← q when the
  /// current root reaches q (the root only ever moves down — a batched
  /// round may also answer yes for an ancestor, which adds no information).
  /// `q` may already be dead (batched rounds intersect answers for
  /// questions another answer of the same round eliminated).
  void ApplyYes(NodeId q);

  /// Applies reach(q) = no: candidates ← C \ R(q). Dead `q` allowed.
  void ApplyNo(NodeId q);

  /// Applies the answer to a question the session's planner asked: `q` is
  /// alive and not the root, as every planned reach question is. Euler
  /// mode then skips ApplyYes's aliveness walk, so a yes is O(1).
  void ApplyPlanned(NodeId q, bool yes);

  /// Intersects a whole round of answers (one ApplyYes/ApplyNo per
  /// question).
  void ApplyBatch(std::span<const NodeId> nodes,
                  const std::vector<bool>& answers);

  // ---- selection ------------------------------------------------------------

  /// Breadth-first descent from root() over alive nodes: calls expand(v)
  /// once per alive node discovered (root excluded, in discovery order) and
  /// continues below v only when it returns true. Every alive node is
  /// reachable from root() through alive nodes, so an expand that always
  /// returns true visits the whole candidate set. expand may read the
  /// alive-node accessors for v. Runs on the index's planner scratch (sized
  /// on first use): not reentrant.
  template <typename Expand>
  void DescendFromRoot(Expand&& expand) const {
    const Digraph& g = base_->hierarchy().graph();
    queue_.clear();
    queue_.push_back(root_);
    if (euler_) {
      // A tree node is discovered once, through its only parent.
      for (std::size_t head = 0; head < queue_.size(); ++head) {
        for (const NodeId v : g.Children(queue_[head])) {
          if (IsAliveChild(v) && expand(v)) {
            queue_.push_back(v);
          }
        }
      }
      return;
    }
    if (visited_.size() != g.NumNodes()) {
      visited_.Resize(g.NumNodes());
    }
    visited_.NewEpoch();
    visited_.Visit(root_);
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const NodeId u = queue_[head];
      for (const NodeId v : g.Children(u)) {
        if (visited_.IsVisited(v) || !IsAlive(v)) {
          continue;
        }
        visited_.Visit(v);
        if (expand(v)) {
          queue_.push_back(v);
        }
      }
    }
  }

  /// Middle point over alive candidates excluding root() (Definition 4),
  /// via the dominance-pruned descent. Requires AliveCount() > 1.
  MiddlePoint FindMiddlePoint() const;

  /// Middle point over alive candidates that split the set by count
  /// (|R(v) ∩ C| < |C|); kInvalidNode when none splits. Euler mode runs a
  /// pruned/rooted descent, closure mode a fused-kernel flat scan; both are
  /// bit-identical to a full (diff, id)-argmin scan.
  MiddlePoint FindSplittingMiddlePoint() const;

  const SplitWeightBase& base() const { return *base_; }

  /// Divergence-tolerant fold of an observed reachability answer (a
  /// question possibly planned under another epoch's weights — see
  /// SearchSession::TryApplyObserved) into this index. A reachability
  /// answer is a fact about the hidden target, so it folds into the
  /// candidate set under any weights; this validates first and leaves the
  /// state untouched on failure:
  ///  * InvalidArgument when the answer would eliminate every candidate
  ///    (inconsistent with the transcript so far);
  ///  * Unimplemented for a yes on an already-eliminated q that still
  ///    splits the candidates (never produced by a genuine same-hierarchy
  ///    transcript — the rooted descents cannot survive a dead root; on a
  ///    tree a dead q never splits); a no on an eliminated q folds, since
  ///    the root stays put;
  ///  * otherwise applies, moving the root only downward (ApplyYes rule).
  Status TryApplyObservedReach(NodeId q, bool yes);
  const Hierarchy& hierarchy() const { return base_->hierarchy(); }
  const std::vector<Weight>& weights() const { return base_->weights(); }

 private:
  /// Euler mode: what no-answers removed strictly below one node, and
  /// whether the node itself heads a removed subtree.
  struct Removed {
    Weight weight = 0;
    std::uint32_t count = 0;
    bool top = false;
  };

  // Euler mode: true iff v lies strictly below the root and no removed top
  // sits on the path from v up to the root (O(depth)).
  bool AliveBelowRoot(NodeId v) const;
  // Euler mode: the windows [EulerBegin, EulerEnd) of the removed tops
  // inside T_root, sorted by begin (planner scratch).
  const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
  SortedRemovedWindows() const;
  // Empties the candidate set.
  void KillAll() {
    alive_count_ = 0;
    total_alive_ = 0;
  }
  // Materializes the closure-mode alive bitset from the pristine state.
  void MaterializeAllAlive();

  const SplitWeightBase* base_;
  bool euler_;
  bool compressed_;

  NodeId root_;
  std::size_t alive_count_ = 0;
  Weight total_alive_ = 0;

  // Euler mode: per-node removal deltas (Algorithm 4's overlay).
  NodeMap<Removed> removed_;

  // Closure mode: bit v = node v alive (dense) or bit p = the node at
  // position p alive (compressed). Empty until the first answer (pristine
  // sessions answer from the base).
  bool materialized_ = false;
  DynamicBitset alive_;

  // Planner scratch for DescendFromRoot and the Euler-mode ForEachAlive;
  // sized lazily on first use so session construction stays O(1).
  mutable EpochMarker visited_;
  mutable std::vector<NodeId> queue_;
  mutable std::vector<std::pair<std::uint32_t, std::uint32_t>> windows_;
};

}  // namespace aigs

#endif  // AIGS_CORE_SPLIT_WEIGHT_INDEX_H_

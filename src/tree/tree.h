// Rooted-tree view over a Digraph whose IsTree() holds. Adds parent
// pointers to the Euler-mode ReachabilityIndex, whose preorder (Euler)
// intervals give O(1) subtree membership — the structural substrate of
// GreedyTree and the WIGS tree baseline. The preorder layout is built once,
// by the index; the Tree only reads it.
#ifndef AIGS_TREE_TREE_H_
#define AIGS_TREE_TREE_H_

#include <memory>
#include <span>
#include <vector>

#include "graph/digraph.h"
#include "graph/reachability.h"
#include "util/status.h"

namespace aigs {

/// Immutable rooted-tree index. The underlying graph must outlive the Tree.
class Tree {
 public:
  /// Builds the index together with its own Euler index; fails if `g` is
  /// not a rooted tree.
  static StatusOr<Tree> Build(const Digraph& g);

  /// Views an Euler-mode index, which (with its graph) must outlive the
  /// Tree.
  explicit Tree(const ReachabilityIndex& euler);

  const Digraph& graph() const { return euler_->graph(); }
  std::size_t NumNodes() const { return parent_.size(); }
  NodeId root() const { return graph().root(); }

  /// Parent of v; kInvalidNode for the root.
  NodeId Parent(NodeId v) const { return parent_[v]; }

  /// Children of v in insertion order.
  std::span<const NodeId> Children(NodeId v) const {
    return graph().Children(v);
  }

  /// Edge distance from the root.
  int Depth(NodeId v) const { return graph().Depth(v); }

  /// Number of nodes in the subtree rooted at v (v included).
  std::size_t SubtreeSize(NodeId v) const {
    return euler_->EulerEnd(v) - euler_->EulerBegin(v);
  }

  /// True iff `descendant` lies in the subtree rooted at `ancestor`
  /// (a node is in its own subtree).
  bool InSubtree(NodeId ancestor, NodeId descendant) const {
    const std::uint32_t t = euler_->EulerBegin(descendant);
    return t >= euler_->EulerBegin(ancestor) && t < euler_->EulerEnd(ancestor);
  }

  /// Preorder position of v.
  std::uint32_t PreorderIndex(NodeId v) const {
    return euler_->EulerBegin(v);
  }

  /// Node at preorder position t.
  NodeId NodeAtPreorder(std::uint32_t t) const {
    return euler_->NodeAtEuler(t);
  }

  /// Nodes in preorder (root first); every subtree is a contiguous range.
  const std::vector<NodeId>& Preorder() const { return euler_->EulerOrder(); }

  /// p̃(v) = Σ_{x ∈ T_v} weights[x] for every node v (Algorithm 5
  /// `SetWeightDFS` of the paper), as prefix-sum windows over the preorder.
  std::vector<Weight> SubtreeWeights(const std::vector<Weight>& weights) const {
    return euler_->AllReachableSetWeights(weights);
  }

  /// Lowest common ancestor of u and v: walks u's parent chain up to the
  /// first subtree containing v, O(depth).
  NodeId Lca(NodeId u, NodeId v) const;

 private:
  std::unique_ptr<const ReachabilityIndex> owned_;  // standalone Build only
  const ReachabilityIndex* euler_;
  std::vector<NodeId> parent_;
};

}  // namespace aigs

#endif  // AIGS_TREE_TREE_H_

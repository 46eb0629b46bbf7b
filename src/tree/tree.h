// Rooted-tree view over a Digraph whose IsTree() holds. Adds parent
// pointers, preorder (Euler) intervals for O(1) subtree membership, and
// depth-indexed access — the structural substrate of GreedyTree and the
// WIGS tree baseline.
#ifndef AIGS_TREE_TREE_H_
#define AIGS_TREE_TREE_H_

#include <span>
#include <vector>

#include "graph/digraph.h"
#include "util/status.h"

namespace aigs {

/// Immutable rooted-tree index. The underlying graph must outlive the Tree.
class Tree {
 public:
  /// Builds the index; fails if `g` is not a rooted tree.
  static StatusOr<Tree> Build(const Digraph& g);

  const Digraph& graph() const { return *graph_; }
  std::size_t NumNodes() const { return graph_->NumNodes(); }
  NodeId root() const { return graph_->root(); }

  /// Parent of v; kInvalidNode for the root.
  NodeId Parent(NodeId v) const { return parent_[v]; }

  /// Children of v in insertion order.
  std::span<const NodeId> Children(NodeId v) const {
    return graph_->Children(v);
  }

  /// Edge distance from the root.
  int Depth(NodeId v) const { return graph_->Depth(v); }

  /// Number of nodes in the subtree rooted at v (v included).
  std::size_t SubtreeSize(NodeId v) const {
    return tout_[v] - tin_[v];
  }

  /// True iff `descendant` lies in the subtree rooted at `ancestor`
  /// (a node is in its own subtree).
  bool InSubtree(NodeId ancestor, NodeId descendant) const {
    return tin_[descendant] >= tin_[ancestor] &&
           tin_[descendant] < tout_[ancestor];
  }

  /// Preorder position of v.
  std::uint32_t PreorderIndex(NodeId v) const { return tin_[v]; }

  /// Node at preorder position t.
  NodeId NodeAtPreorder(std::uint32_t t) const { return order_[t]; }

  /// Nodes in preorder (root first); every subtree is a contiguous range.
  const std::vector<NodeId>& Preorder() const { return order_; }

  /// Lowest common ancestor of u and v: walks u's parent chain up to the
  /// first subtree containing v, O(depth).
  NodeId Lca(NodeId u, NodeId v) const;

 private:
  Tree() = default;

  const Digraph* graph_ = nullptr;
  std::vector<NodeId> parent_;
  std::vector<std::uint32_t> tin_;
  std::vector<std::uint32_t> tout_;
  std::vector<NodeId> order_;
};

}  // namespace aigs

#endif  // AIGS_TREE_TREE_H_

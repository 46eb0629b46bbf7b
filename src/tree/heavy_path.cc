#include "tree/heavy_path.h"

namespace aigs {

HeavyPathDecomposition HeavyPathDecomposition::BySize(const Tree& tree) {
  const std::vector<Weight> unit(tree.NumNodes(), 1);
  return Build(tree, tree.SubtreeWeights(unit));
}

HeavyPathDecomposition HeavyPathDecomposition::ByWeight(
    const Tree& tree, const std::vector<Weight>& weights) {
  return Build(tree, tree.SubtreeWeights(weights));
}

HeavyPathDecomposition HeavyPathDecomposition::Build(
    const Tree& tree, const std::vector<Weight>& subtree) {
  const std::size_t n = tree.NumNodes();
  HeavyPathDecomposition d;
  d.heavy_child_.assign(n, kInvalidNode);
  d.head_.assign(n, kInvalidNode);

  for (NodeId v = 0; v < n; ++v) {
    Weight best = 0;
    NodeId heavy = kInvalidNode;
    for (const NodeId c : tree.Children(v)) {
      if (heavy == kInvalidNode || subtree[c] > best) {
        heavy = c;
        best = subtree[c];
      }
    }
    d.heavy_child_[v] = heavy;
  }

  // Heads in preorder: a node starts a new path iff it is the root or a
  // light child of its parent.
  d.num_paths_ = 0;
  for (const NodeId v : tree.Preorder()) {
    const NodeId p = tree.Parent(v);
    if (p == kInvalidNode || d.heavy_child_[p] != v) {
      d.head_[v] = v;
      ++d.num_paths_;
    } else {
      d.head_[v] = d.head_[p];
    }
  }
  return d;
}

std::vector<NodeId> HeavyPathDecomposition::PathFrom(NodeId from) const {
  std::vector<NodeId> path;
  for (NodeId v = from; v != kInvalidNode; v = heavy_child_[v]) {
    path.push_back(v);
  }
  return path;
}

}  // namespace aigs

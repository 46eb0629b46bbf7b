#include "tree/tree.h"

#include <utility>

namespace aigs {

StatusOr<Tree> Tree::Build(const Digraph& g) {
  if (!g.finalized()) {
    return Status::FailedPrecondition("graph not finalized");
  }
  if (!g.IsTree()) {
    return Status::InvalidArgument("graph is not a rooted tree");
  }
  Tree t;
  t.graph_ = &g;
  const std::size_t n = g.NumNodes();
  t.parent_.assign(n, kInvalidNode);
  t.tin_.assign(n, 0);
  t.tout_.assign(n, 0);
  t.order_.reserve(n);

  // Iterative preorder DFS.
  std::uint32_t clock = 0;
  std::vector<std::pair<NodeId, std::size_t>> stack;
  stack.emplace_back(g.root(), 0);
  t.tin_[g.root()] = clock++;
  t.order_.push_back(g.root());
  while (!stack.empty()) {
    auto& [u, next_child] = stack.back();
    const auto children = g.Children(u);
    if (next_child < children.size()) {
      const NodeId c = children[next_child++];
      t.parent_[c] = u;
      t.tin_[c] = clock++;
      t.order_.push_back(c);
      stack.emplace_back(c, 0);
    } else {
      t.tout_[u] = clock;
      stack.pop_back();
    }
  }
  if (t.order_.size() != n) {
    return Status::InvalidArgument("tree is not connected");
  }

  return t;
}

NodeId Tree::Lca(NodeId u, NodeId v) const {
  NodeId x = u;
  while (!InSubtree(x, v)) {
    x = parent_[x];
  }
  return x;
}

}  // namespace aigs

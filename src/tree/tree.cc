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
  auto euler = std::make_unique<const ReachabilityIndex>(g);
  Tree t(*euler);
  t.owned_ = std::move(euler);
  return t;
}

Tree::Tree(const ReachabilityIndex& euler)
    : euler_(&euler), parent_(euler.graph().NumNodes(), kInvalidNode) {
  AIGS_CHECK(euler.euler_mode());
  const Digraph& g = euler.graph();
  for (NodeId v = 0; v < parent_.size(); ++v) {
    if (v != g.root()) {
      parent_[v] = g.Parents(v)[0];
    }
  }
}

NodeId Tree::Lca(NodeId u, NodeId v) const {
  NodeId x = u;
  while (!InSubtree(x, v)) {
    x = parent_[x];
  }
  return x;
}

}  // namespace aigs

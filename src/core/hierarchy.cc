#include "core/hierarchy.h"

#include <utility>

namespace aigs {

StatusOr<Hierarchy> Hierarchy::Build(Digraph g,
                                     ReachabilityOptions reach_options) {
  if (!g.finalized()) {
    AIGS_RETURN_NOT_OK(g.Finalize());
  }
  Hierarchy h;
  h.graph_ = std::make_unique<Digraph>(std::move(g));
  h.reach_ = std::make_unique<ReachabilityIndex>(*h.graph_, reach_options);
  if (h.reach_->euler_mode()) {
    h.tree_ = std::make_unique<Tree>(*h.reach_);
  } else if (h.graph_->IsTree()) {
    // force_closure_on_trees: the tree view keeps its own Euler index.
    AIGS_ASSIGN_OR_RETURN(Tree t, Tree::Build(*h.graph_));
    h.tree_ = std::make_unique<Tree>(std::move(t));
  }
  return h;
}

}  // namespace aigs

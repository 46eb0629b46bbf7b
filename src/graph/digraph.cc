#include "graph/digraph.h"

#include <algorithm>
#include <numeric>

namespace aigs {

NodeId Digraph::AddNode(std::string label) {
  AIGS_CHECK(!finalized_);
  AIGS_CHECK(num_nodes_ < kInvalidNode);
  const auto v = static_cast<NodeId>(num_nodes_++);
  if (!label.empty()) {
    labels_.emplace(v, std::move(label));
  }
  return v;
}

NodeId Digraph::AddNodes(std::size_t count) {
  AIGS_CHECK(!finalized_);
  AIGS_CHECK(count <= kInvalidNode - num_nodes_);
  const auto first = static_cast<NodeId>(num_nodes_);
  num_nodes_ += count;
  return first;
}

void Digraph::SetLabel(NodeId v, std::string label) {
  AIGS_CHECK(!finalized_);
  AIGS_CHECK(v < num_nodes_);
  if (label.empty()) {
    labels_.erase(v);
  } else {
    labels_.insert_or_assign(v, std::move(label));
  }
}

const std::string& Digraph::Label(NodeId v) const {
  AIGS_DCHECK(v < NumNodes());
  static const std::string kUnlabeled;
  const auto it = labels_.find(v);
  return it == labels_.end() ? kUnlabeled : it->second;
}

void Digraph::AddEdge(NodeId parent, NodeId child) {
  AIGS_CHECK(!finalized_);
  AIGS_CHECK(parent < num_nodes_ && child < num_nodes_);
  AIGS_CHECK(parent != child);
  edges_.push_back(Edge{parent, child});
}

void Digraph::BuildCsr() {
  // Counting sort keyed by parent (resp. child), filled back to front so each
  // adjacency list keeps edge insertion order; offsets end up as list starts.
  const auto fill = [this](std::vector<std::size_t>& offsets,
                           std::vector<NodeId>& targets, auto key, auto value) {
    offsets.assign(num_nodes_ + 1, 0);
    for (const Edge& e : edges_) {
      ++offsets[key(e)];
    }
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
    targets.resize(edges_.size());
    for (auto e = edges_.rbegin(); e != edges_.rend(); ++e) {
      targets[--offsets[key(*e)]] = value(*e);
    }
  };
  const auto parent = [](const Edge& e) { return e.parent; };
  const auto child = [](const Edge& e) { return e.child; };
  fill(child_offsets_, children_, parent, child);
  fill(parent_offsets_, parents_, child, parent);
}

Status Digraph::Finalize(bool add_dummy_root) {
  if (finalized_) {
    return Status::FailedPrecondition("graph already finalized");
  }
  if (num_nodes_ == 0) {
    return Status::InvalidArgument("graph has no nodes");
  }
  BuildCsr();

  // One 32-bit word per node, plus room for a dummy root.
  std::vector<NodeId> scratch(num_nodes_ + 1, kInvalidNode);

  // Reject duplicate edges. A duplicate u -> c lists u twice among c's
  // parents, so only nodes with two or more parents are scanned (none in a
  // tree): marking each parent with the last child whose list named it, a
  // repeat is a duplicate, and the smallest (parent, child) pair is kept.
  NodeId dup_parent = kInvalidNode;
  NodeId dup_child = kInvalidNode;
  for (NodeId c = 0; c < num_nodes_; ++c) {
    if (parent_offsets_[c + 1] - parent_offsets_[c] < 2) {
      continue;
    }
    for (std::size_t i = parent_offsets_[c]; i < parent_offsets_[c + 1];
         ++i) {
      const NodeId u = parents_[i];
      if (scratch[u] == c && u < dup_parent) {
        dup_parent = u;
        dup_child = c;
      }
      scratch[u] = c;
    }
  }
  if (dup_parent != kInvalidNode) {
    return Status::InvalidArgument("duplicate edge " +
                                   std::to_string(dup_parent) + " -> " +
                                   std::to_string(dup_child));
  }

  // Kahn's topological sort, using topo_order_ itself as the FIFO queue and
  // the scratch array as remaining in-degrees; the sources seed the queue
  // in id order (the last one seen is the root when it is the only one).
  topo_order_.clear();
  topo_order_.reserve(num_nodes_ + 1);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    scratch[v] =
        static_cast<NodeId>(parent_offsets_[v + 1] - parent_offsets_[v]);
    if (scratch[v] == 0) {
      root_ = v;
      topo_order_.push_back(v);
    }
  }
  const std::size_t num_sources = topo_order_.size();
  if (num_sources == 0) {
    return Status::InvalidArgument("graph has a cycle (no source node)");
  }
  if (num_sources > 1) {
    if (!add_dummy_root) {
      return Status::InvalidArgument("graph has " +
                                     std::to_string(num_sources) +
                                     " roots and add_dummy_root is false");
    }
    // The dummy root becomes the only source, and each former source waits
    // on it alone.
    root_ = static_cast<NodeId>(num_nodes_);
    for (const NodeId v : topo_order_) {
      edges_.push_back(Edge{root_, v});
      scratch[v] = 1;
    }
    AddNode("<root>");
    BuildCsr();
    scratch[root_] = 0;
    topo_order_.assign(1, root_);
  }

  const std::size_t n = num_nodes_;

  // CSR is usable from here on; roll the flag back if cycle detection fails.
  finalized_ = true;

  // A node's longest-path depth is final when it leaves the queue, so the
  // depth array, height and maximum out-degree fill in the same pass.
  depth_.assign(n, 0);
  height_ = 0;
  max_out_degree_ = 0;
  for (std::size_t head = 0; head < topo_order_.size(); ++head) {
    const NodeId u = topo_order_[head];
    const int child_depth = depth_[u] + 1;
    height_ = std::max(height_, depth_[u]);
    max_out_degree_ = std::max(max_out_degree_, OutDegree(u));
    for (const NodeId c : Children(u)) {
      depth_[c] = std::max(depth_[c], child_depth);
      if (--scratch[c] == 0) {
        topo_order_.push_back(c);
      }
    }
  }
  if (topo_order_.size() != n) {
    finalized_ = false;
    return Status::InvalidArgument("graph has a cycle");
  }

  // One source and no cycle leave every other node at least one parent, so
  // exactly n - 1 edges means exactly one parent each.
  is_tree_ = children_.size() == n - 1;
  std::vector<Edge>().swap(edges_);
  return Status::OK();
}

}  // namespace aigs

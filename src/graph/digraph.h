// Directed graph substrate for category hierarchies. A Digraph is built by
// adding nodes and edges, then Finalize()d into an immutable CSR form
// exposing children/parents spans, topological order and root information.
#ifndef AIGS_GRAPH_DIGRAPH_H_
#define AIGS_GRAPH_DIGRAPH_H_

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/common.h"
#include "util/status.h"

namespace aigs {

/// A rooted directed acyclic graph (validated on Finalize). Node ids are
/// dense in [0, NumNodes). Parallel edges and self-loops are rejected.
class Digraph {
 public:
  Digraph() = default;

  // ---- Construction phase -------------------------------------------------

  /// Adds a node with an optional human-readable label; returns its id.
  NodeId AddNode(std::string label = {});

  /// Adds `count` unlabeled nodes; returns the id of the first.
  NodeId AddNodes(std::size_t count);

  /// Replaces the label of an existing node (construction phase only); an
  /// empty label clears it.
  void SetLabel(NodeId v, std::string label);

  /// Adds the directed edge parent -> child. Both ids must exist.
  void AddEdge(NodeId parent, NodeId child);

  /// Reserves room for `count` edges in total before Finalize.
  void ReserveEdges(std::size_t count) { edges_.reserve(count); }

  /// Validates (acyclic, at least one node, no duplicate edges) and freezes
  /// the graph: builds CSR adjacency, then one Kahn pass yields the
  /// topological order, depth array, height, maximum out-degree and tree
  /// test. The edge list is released once the CSR holds it.
  /// If the graph has several source nodes and `add_dummy_root` is true, a
  /// dummy root labeled "<root>" is appended with an edge to every source
  /// (the paper's multi-root convention); otherwise several sources are an
  /// error.
  Status Finalize(bool add_dummy_root = true);

  // ---- Frozen accessors ---------------------------------------------------

  /// True after a successful Finalize().
  bool finalized() const { return finalized_; }

  /// Number of nodes (including any dummy root).
  std::size_t NumNodes() const { return num_nodes_; }

  /// Number of edges (including any dummy-root edges).
  std::size_t NumEdges() const {
    return finalized_ ? children_.size() : edges_.size();
  }

  /// The unique root (in-degree 0) node.
  NodeId root() const {
    AIGS_DCHECK(finalized_);
    return root_;
  }

  /// Children of v in insertion order.
  std::span<const NodeId> Children(NodeId v) const {
    AIGS_DCHECK(finalized_ && v < NumNodes());
    return {children_.data() + child_offsets_[v],
            child_offsets_[v + 1] - child_offsets_[v]};
  }

  /// Parents of v.
  std::span<const NodeId> Parents(NodeId v) const {
    AIGS_DCHECK(finalized_ && v < NumNodes());
    return {parents_.data() + parent_offsets_[v],
            parent_offsets_[v + 1] - parent_offsets_[v]};
  }

  std::size_t OutDegree(NodeId v) const { return Children(v).size(); }
  std::size_t InDegree(NodeId v) const { return Parents(v).size(); }

  /// True iff v has no children.
  bool IsLeaf(NodeId v) const { return OutDegree(v) == 0; }

  /// Label of v; empty when v has none.
  const std::string& Label(NodeId v) const;

  /// Nodes in a topological order (root first).
  const std::vector<NodeId>& TopologicalOrder() const {
    AIGS_DCHECK(finalized_);
    return topo_order_;
  }

  /// Length of the longest edge path from the root to v.
  int Depth(NodeId v) const {
    AIGS_DCHECK(finalized_ && v < NumNodes());
    return depth_[v];
  }

  /// Length of the longest path from the root (the paper's hierarchy
  /// "height" h).
  int Height() const {
    AIGS_DCHECK(finalized_);
    return height_;
  }

  /// Maximum out-degree over all nodes (the paper's d).
  std::size_t MaxOutDegree() const {
    AIGS_DCHECK(finalized_);
    return max_out_degree_;
  }

  /// True iff every non-root node has exactly one parent (rooted tree).
  bool IsTree() const {
    AIGS_DCHECK(finalized_);
    return is_tree_;
  }

 private:
  struct Edge {
    NodeId parent;
    NodeId child;
  };

  /// Builds both CSR adjacencies from edges_ (insertion order kept).
  void BuildCsr();

  bool finalized_ = false;
  std::size_t num_nodes_ = 0;
  // Only labeled nodes are stored: catalog-scale graphs have almost none.
  std::unordered_map<NodeId, std::string> labels_;
  std::vector<Edge> edges_;  // construction phase only

  // CSR adjacency, filled by Finalize().
  std::vector<std::size_t> child_offsets_;
  std::vector<NodeId> children_;
  std::vector<std::size_t> parent_offsets_;
  std::vector<NodeId> parents_;

  NodeId root_ = kInvalidNode;
  std::vector<NodeId> topo_order_;
  std::vector<int> depth_;
  int height_ = 0;
  std::size_t max_out_degree_ = 0;
  bool is_tree_ = false;
};

}  // namespace aigs

#endif  // AIGS_GRAPH_DIGRAPH_H_

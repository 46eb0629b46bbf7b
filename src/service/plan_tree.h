// PlanTree — one policy's question plans at one catalog epoch, kept as the
// decision tree the policy is (Definition 6).
//
// Every registry policy is deterministic given (catalog snapshot, answer
// transcript), so the question a session faces is a function of the answers
// it has given so far. A PlanTree memoizes that function as the tree
// itself: node 0 is the empty transcript, a node holds the question planned
// at its answer prefix, and each answer seen at a node leads to one child
// (yes/no for a reach question, the chosen index for a choice question, the
// answer pattern for a batch). A session carries only its node index, so
// Ask on a planned node is an array read and Answer follows — or, the first
// time that answer is seen, appends — one child. The expected cost of the
// policy is the mean leaf depth of this tree (Definition 7).
//
// Ownership. The CatalogSnapshot owns one tree per prebuilt policy spec,
// beside the policy, and the tree dies with it: a publish starts every
// policy on an empty tree, which the engine's warm walk refills from the
// previous epoch's tree.
//
// Size. Under truthful answers a policy whose every question splits the
// candidates ends in n leaves with at most n − 1 internal nodes: 2n − 1
// nodes for a hierarchy of n nodes. A tree admits kNodesPerTarget · n nodes,
// about twice that, leaving room for questions that do not split and for
// answers no target gives; past the limit Advance refuses and the session
// plans live from there on ("off-tree"). Nodes are never removed.
//
// Concurrency. Nodes live in fixed-size chunks that never move. A node's
// plan tag and its two reach children are atomics, so the hot path — a
// reach or done plan, a yes/no child — takes no lock; writers (a new plan,
// a new child) take the tree's mutex. Choice and batch questions keep their
// node lists and answer branches beside the array, under that mutex.
#ifndef AIGS_SERVICE_PLAN_TREE_H_
#define AIGS_SERVICE_PLAN_TREE_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "core/policy.h"

namespace aigs {

class PlanTree {
 public:
  using NodeIndex = std::uint32_t;
  /// The empty transcript.
  static constexpr NodeIndex kRoot = 0;
  /// "No node": a session past the node limit or after a step the tree
  /// cannot hold (a divergent or observed one) plans live.
  static constexpr NodeIndex kOffTree = std::numeric_limits<NodeIndex>::max();
  /// Node limit per hierarchy node (see the header comment).
  static constexpr std::size_t kNodesPerTarget = 4;

  /// An empty tree (just the root) for a hierarchy of `num_nodes` nodes.
  explicit PlanTree(std::size_t num_nodes);
  ~PlanTree();

  PlanTree(const PlanTree&) = delete;
  PlanTree& operator=(const PlanTree&) = delete;

  /// Copies the question planned at `node` into `*out`; false when no
  /// session has planned there yet.
  bool Lookup(NodeIndex node, Query* out) const;

  /// Records `query` as the question at `node`. The first plan stays: every
  /// planner at one node plans the same question.
  void Plan(NodeIndex node, const Query& query);

  /// The child of the planned `node` along the answer `step` gives to that
  /// node's question, appended when first seen; kOffTree when the node
  /// limit refuses it.
  NodeIndex Advance(NodeIndex node, const TranscriptStep& step);

  /// The node's parent (kOffTree for the root) and children: "no" before
  /// "yes" under a reach plan, in append order under a choice or batch
  /// plan.
  NodeIndex Parent(NodeIndex node) const;
  std::vector<NodeIndex> Children(NodeIndex node) const;

  /// The answered step that leads from Parent(node) to `node`.
  TranscriptStep StepInto(NodeIndex node) const;

  /// Nodes in the tree (the root included).
  std::size_t size() const { return size_.load(std::memory_order_relaxed); }
  std::size_t max_nodes() const { return max_nodes_; }

 private:
  static constexpr unsigned kChunkBits = 10;
  static constexpr NodeIndex kChunkSize = NodeIndex{1} << kChunkBits;
  /// Plan tag of a node no session has planned at; otherwise Kind + 1.
  static constexpr std::uint32_t kUnplanned = 0;

  struct Node {
    std::atomic<std::uint32_t> tag{kUnplanned};
    /// Reach and done plans: the query node. Choice and batch plans: the
    /// index of their entry in wide_.
    std::uint32_t payload = 0;
    /// A reach plan's children, [no, yes].
    std::atomic<NodeIndex> child[2] = {kOffTree, kOffTree};
    NodeIndex parent = kOffTree;
  };
  /// One child of a choice or batch plan, keyed by the answer.
  struct Branch {
    int choice = -1;
    std::vector<bool> batch;
    NodeIndex child = kOffTree;
  };
  struct Wide {
    std::vector<NodeId> nodes;
    std::vector<Branch> branches;
  };

  Node& At(NodeIndex index) const {
    return chunks_[index >> kChunkBits][index & (kChunkSize - 1)];
  }
  /// Appends a child of `parent`; kOffTree at the limit. Caller holds
  /// mutex_.
  NodeIndex AppendLocked(NodeIndex parent);

  const std::size_t max_nodes_;
  std::unique_ptr<std::unique_ptr<Node[]>[]> chunks_;
  std::atomic<std::size_t> size_{0};
  mutable std::mutex mutex_;
  std::vector<Wide> wide_;  // guarded by mutex_
};

}  // namespace aigs

#endif  // AIGS_SERVICE_PLAN_TREE_H_

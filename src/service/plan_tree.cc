#include "service/plan_tree.h"

#include <algorithm>

#include "util/common.h"

namespace aigs {
namespace {

bool IsWide(Query::Kind kind) {
  return kind == Query::Kind::kChoice || kind == Query::Kind::kReachBatch;
}

}  // namespace

PlanTree::PlanTree(std::size_t num_nodes)
    : max_nodes_(std::clamp<std::size_t>(kNodesPerTarget * num_nodes, 1,
                                         kOffTree - 1)),
      chunks_(std::make_unique<std::unique_ptr<Node[]>[]>(
          (max_nodes_ + kChunkSize - 1) / kChunkSize)) {
  // The root exists from the start, so a session's first Ask needs no
  // writer; later chunks are allocated as the tree grows into them.
  chunks_[0] = std::make_unique<Node[]>(kChunkSize);
  size_.store(1, std::memory_order_relaxed);
}

PlanTree::~PlanTree() = default;

bool PlanTree::Lookup(NodeIndex node, Query* out) const {
  const Node& n = At(node);
  const std::uint32_t tag = n.tag.load(std::memory_order_acquire);
  if (tag == kUnplanned) {
    return false;
  }
  out->kind = static_cast<Query::Kind>(tag - 1);
  if (!IsWide(out->kind)) {
    out->node = n.payload;
    out->choices.clear();
    return true;
  }
  out->node = kInvalidNode;
  std::lock_guard<std::mutex> lock(mutex_);
  out->choices = wide_[n.payload].nodes;
  return true;
}

void PlanTree::Plan(NodeIndex node, const Query& query) {
  Node& n = At(node);
  std::lock_guard<std::mutex> lock(mutex_);
  if (n.tag.load(std::memory_order_relaxed) != kUnplanned) {
    return;
  }
  if (IsWide(query.kind)) {
    n.payload = static_cast<std::uint32_t>(wide_.size());
    wide_.push_back(Wide{query.choices, {}});
  } else {
    n.payload = query.node;
  }
  // Publishes the payload to lock-free readers.
  n.tag.store(static_cast<std::uint32_t>(query.kind) + 1,
              std::memory_order_release);
}

PlanTree::NodeIndex PlanTree::AppendLocked(NodeIndex parent) {
  const std::size_t index = size_.load(std::memory_order_relaxed);
  if (index >= max_nodes_) {
    return kOffTree;
  }
  std::unique_ptr<Node[]>& chunk = chunks_[index >> kChunkBits];
  if (chunk == nullptr) {
    chunk = std::make_unique<Node[]>(kChunkSize);
  }
  At(static_cast<NodeIndex>(index)).parent = parent;
  size_.store(index + 1, std::memory_order_relaxed);
  return static_cast<NodeIndex>(index);
}

PlanTree::NodeIndex PlanTree::Advance(NodeIndex node,
                                      const TranscriptStep& step) {
  Node& n = At(node);
  AIGS_DCHECK(n.tag.load(std::memory_order_relaxed) ==
              static_cast<std::uint32_t>(step.kind) + 1);
  if (step.kind == Query::Kind::kReach) {
    std::atomic<NodeIndex>& slot = n.child[step.yes ? 1 : 0];
    const NodeIndex child = slot.load(std::memory_order_acquire);
    if (child != kOffTree) {
      return child;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    NodeIndex created = slot.load(std::memory_order_relaxed);
    if (created == kOffTree) {
      created = AppendLocked(node);
      // Publishes the new node (and its chunk) to lock-free readers.
      slot.store(created, std::memory_order_release);
    }
    return created;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Branch>& branches = wide_[n.payload].branches;
  for (const Branch& branch : branches) {
    if (step.kind == Query::Kind::kChoice ? branch.choice == step.choice
                                          : branch.batch == step.batch_answers) {
      return branch.child;
    }
  }
  const NodeIndex created = AppendLocked(node);
  if (created != kOffTree) {
    branches.push_back(Branch{step.choice, step.batch_answers, created});
  }
  return created;
}

PlanTree::NodeIndex PlanTree::Parent(NodeIndex node) const {
  return At(node).parent;
}

std::vector<PlanTree::NodeIndex> PlanTree::Children(NodeIndex node) const {
  const Node& n = At(node);
  std::vector<NodeIndex> children;
  const std::uint32_t tag = n.tag.load(std::memory_order_acquire);
  if (tag == kUnplanned) {
    return children;
  }
  if (!IsWide(static_cast<Query::Kind>(tag - 1))) {
    for (const std::atomic<NodeIndex>& slot : n.child) {
      const NodeIndex child = slot.load(std::memory_order_acquire);
      if (child != kOffTree) {
        children.push_back(child);
      }
    }
    return children;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Branch& branch : wide_[n.payload].branches) {
    children.push_back(branch.child);
  }
  return children;
}

TranscriptStep PlanTree::StepInto(NodeIndex node) const {
  const NodeIndex parent = At(node).parent;
  AIGS_CHECK(parent != kOffTree);
  Query question;
  AIGS_CHECK(Lookup(parent, &question));
  TranscriptStep step;
  step.kind = question.kind;
  if (question.kind == Query::Kind::kReach) {
    step.nodes = {question.node};
    step.yes = At(parent).child[1].load(std::memory_order_acquire) == node;
    return step;
  }
  step.nodes = std::move(question.choices);
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Branch& branch : wide_[At(parent).payload].branches) {
    if (branch.child == node) {
      step.choice = branch.choice;
      step.batch_answers = branch.batch;
    }
  }
  return step;
}

}  // namespace aigs

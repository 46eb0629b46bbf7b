// Transitive-closure reachability index. Answers reach(u, v) in O(1) and
// computes reachable-set weights for every node — the initialization step of
// GreedyDAG (w̃(v) = w(G_v)) and the ground truth behind the simulated
// oracle.
//
// Storage modes:
//   - Euler intervals for tree hierarchies — O(n) memory.
//   - Compressed closure rows (graph/compressed_closure.h) for every other
//     hierarchy — interval / chunked hybrid rows over a DFS-preorder
//     permutation, built in one serial pass that merges child interval lists
//     where they are short and falls back to one dense scratch row. At the
//     paper's 28k-node ImageNet DAG they take 0.6 MB where dense rows take
//     92 MB, and they are what makes million-node catalogs buildable at
//     all: the dense footprint at 1M nodes is ~125 GB.
//   - Dense bitset closure rows — O(n²/8) memory, built in reverse
//     topological order. Only an explicit Closure::kDense pin builds them;
//     they remain for the bench's dense-vs-compressed comparisons.
#ifndef AIGS_GRAPH_REACHABILITY_H_
#define AIGS_GRAPH_REACHABILITY_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "graph/compressed_closure.h"
#include "graph/digraph.h"
#include "util/bitset.h"
#include "util/common.h"

namespace aigs {

class ThreadPool;

/// Storage selection for ReachabilityIndex.
struct ReachabilityOptions {
  enum class Closure {
    kCompressed,  // compressed rows (the default)
    kDense,       // dense bitset rows, only when pinned explicitly
  };
  /// Storage for non-tree hierarchies (and trees when
  /// `force_closure_on_trees` is set).
  Closure closure = Closure::kCompressed;

  /// Trees normally use Euler intervals regardless of `closure`; setting
  /// this forces the closure machinery on trees too, so closure-path code
  /// can be exercised (and benched) on every hierarchy shape.
  bool force_closure_on_trees = false;

  /// Dense closure build concurrency: 1 = serial (the default: the level
  /// barriers cost more than they save at catalog scale), 0 = hardware
  /// concurrency. Parallel builds levelize rows by dependency depth and
  /// shard each level; the resulting rows are bit-identical to a serial
  /// build. Only the explicitly pinned dense closure reads this: compressed
  /// rows build in one serial pass, and Euler (tree) builds are O(n)
  /// already.
  int build_threads = 1;

  /// Caller-owned pool to shard the dense closure build on (overrides
  /// `build_threads`). Must not be one of the pool's own workers calling
  /// in.
  ThreadPool* build_pool = nullptr;
};

/// O(1) reachability oracle over a finalized Digraph.
class ReachabilityIndex {
 public:
  enum class Storage { kEuler, kDenseClosure, kCompressedClosure };

  /// Builds the index. Uses Euler intervals when `g.IsTree()` (unless
  /// forced off), otherwise the closure rows `options.closure` names. The
  /// graph must outlive the index.
  explicit ReachabilityIndex(const Digraph& g, ReachabilityOptions options = {});

  /// True iff v is reachable from u (u reaches u).
  bool Reaches(NodeId u, NodeId v) const {
    switch (storage_) {
      case Storage::kEuler:
        return tin_[v] >= tin_[u] && tin_[v] < tout_[u];
      case Storage::kDenseClosure:
        return closure_[u].Test(v);
      case Storage::kCompressedClosure:
        return compressed_->Reaches(u, v);
    }
    return false;
  }

  /// |R(u)|: number of nodes reachable from u, u included.
  std::size_t ReachableCount(NodeId u) const {
    switch (storage_) {
      case Storage::kEuler:
        return tout_[u] - tin_[u];
      case Storage::kDenseClosure:
        return reach_count_[u];
      case Storage::kCompressedClosure:
        return compressed_->RowCount(u);
    }
    return 0;
  }

  /// Σ_{x ∈ R(u)} weights[x]. `weights` must have one entry per node.
  /// Exact uint64 arithmetic; callers guarantee no overflow (weights are
  /// bounded by the distribution scale).
  Weight WeightOfReachableSet(NodeId u,
                              const std::vector<Weight>& weights) const;

  /// Computes WeightOfReachableSet for every node in one pass. For trees
  /// this is a subtree-sum DP; for dense DAGs one closure scan; compressed
  /// rows settle against position-space prefix sums (O(1) per interval row
  /// and per run).
  std::vector<Weight> AllReachableSetWeights(
      const std::vector<Weight>& weights) const;

  /// Invokes fn(x) for every x ∈ R(u) (order unspecified).
  template <typename Fn>
  void ForEachReachable(NodeId u, Fn&& fn) const {
    switch (storage_) {
      case Storage::kEuler:
        for (std::uint32_t t = tin_[u]; t < tout_[u]; ++t) {
          fn(euler_to_node_[t]);
        }
        break;
      case Storage::kDenseClosure:
        closure_[u].ForEachSetBit([&fn](std::size_t v) {
          fn(static_cast<NodeId>(v));
        });
        break;
      case Storage::kCompressedClosure:
        compressed_->ForEachPosInRow(u, [this, &fn](std::size_t p) {
          fn(compressed_->node_at_pos(p));
        });
        break;
    }
  }

  /// Which representation the index chose.
  Storage storage() const { return storage_; }

  /// True when the index is in Euler (tree) mode.
  bool euler_mode() const { return storage_ == Storage::kEuler; }

  /// Euler-tour interval of u: R(u) = nodes at Euler positions
  /// [EulerBegin(u), EulerEnd(u)). Euler mode only.
  std::uint32_t EulerBegin(NodeId u) const {
    AIGS_DCHECK(euler_mode());
    return tin_[u];
  }
  std::uint32_t EulerEnd(NodeId u) const {
    AIGS_DCHECK(euler_mode());
    return tout_[u];
  }

  /// Node occupying Euler position t. Euler mode only.
  NodeId NodeAtEuler(std::uint32_t t) const {
    AIGS_DCHECK(euler_mode());
    return euler_to_node_[t];
  }

  /// Nodes in Euler (preorder) order, children in insertion order. Euler
  /// mode only.
  const std::vector<NodeId>& EulerOrder() const {
    AIGS_DCHECK(euler_mode());
    return euler_to_node_;
  }

  /// Closure row of u: bit v set iff u reaches v. Dense closure mode only —
  /// the word-parallel form of R(u) the selection layer intersects with the
  /// alive mask.
  const DynamicBitset& ClosureRow(NodeId u) const {
    AIGS_DCHECK(storage_ == Storage::kDenseClosure);
    return closure_[u];
  }

  /// Compressed rows. Compressed closure mode only.
  const CompressedClosure& compressed() const {
    AIGS_DCHECK(storage_ == Storage::kCompressedClosure);
    return *compressed_;
  }

  /// Bytes held by the reachability structures themselves (excluding the
  /// graph).
  std::size_t MemoryBytes() const;

  /// Dense closure estimate n·⌈n/64⌉·8 for an n-node graph, computed in
  /// 128-bit so million-node inputs cannot overflow the size math.
  static U128 DenseClosureBytes(std::size_t n) {
    return static_cast<U128>(n) * ((n + 63) / 64) * 8;
  }

  const Digraph& graph() const { return *graph_; }

 private:
  void BuildEuler();
  void BuildClosure(const ReachabilityOptions& options);

  const Digraph* graph_;
  Storage storage_;

  // Euler mode: tin/tout intervals and the Euler order — the one preorder
  // layout of a tree hierarchy (Tree views it rather than copying it).
  std::vector<std::uint32_t> tin_;
  std::vector<std::uint32_t> tout_;
  std::vector<NodeId> euler_to_node_;

  // Dense closure mode: one bitset row per node.
  std::vector<DynamicBitset> closure_;

  // Compressed closure mode.
  std::unique_ptr<CompressedClosure> compressed_;

  // |R(u)| for dense storage; Euler intervals and compressed rows carry
  // their own.
  std::vector<std::size_t> reach_count_;
};

}  // namespace aigs

#endif  // AIGS_GRAPH_REACHABILITY_H_

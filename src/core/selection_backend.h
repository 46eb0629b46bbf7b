// Shared backend selector for the middle-point policies (GreedyNaive,
// BatchedGreedy): either the incremental SplitWeightIndex selection layer
// or the original per-candidate BFS rescans kept as a reference oracle.
#ifndef AIGS_CORE_SELECTION_BACKEND_H_
#define AIGS_CORE_SELECTION_BACKEND_H_

namespace aigs {

/// How a middle-point policy evaluates w(R(v) ∩ C) during selection.
enum class SelectionBackend {
  /// Incremental SplitWeightIndex (removed-subtree overlay / closure
  /// popcount).
  kSplitIndex,
  /// Per-candidate BFS rescans (the paper's naive baseline).
  kBfsRescan,
};

}  // namespace aigs

#endif  // AIGS_CORE_SELECTION_BACKEND_H_

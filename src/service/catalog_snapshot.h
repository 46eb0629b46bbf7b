// CatalogSnapshot — the immutable, refcounted unit of catalog state the
// service layer serves searches from.
//
// A snapshot bundles one (hierarchy, distribution[, cost model]) triple with
// the registry-constructed policies named in its config. All O(n)
// precomputation — the hierarchy's ReachabilityIndex, each policy's shared
// base (a SplitWeightBase for every greedy policy) — happens once at
// Build() time, so opening a search session against a snapshot is O(1).
//
// Beside each policy the snapshot owns that policy's PlanTree: the decision
// tree of questions its sessions have planned at this epoch, shared by
// every session on the snapshot and retired with it. The tree is the one
// mutable part of a snapshot and is internally synchronized.
//
// Snapshots are published through Engine epochs: an online-learning weight
// update builds a *new* snapshot and swaps the engine's current pointer;
// live sessions keep their shared_ptr and finish on the epoch they started
// on, so publication never pauses traffic. The hierarchy itself is held by
// shared_ptr and is typically shared across epochs (only the distribution
// changes).
#ifndef AIGS_SERVICE_CATALOG_SNAPSHOT_H_
#define AIGS_SERVICE_CATALOG_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/hierarchy.h"
#include "core/policy.h"
#include "oracle/cost_model.h"
#include "prob/distribution.h"
#include "service/plan_tree.h"
#include "util/status.h"

namespace aigs {

class ThreadPool;

/// Everything needed to build a snapshot. `hierarchy` is required;
/// `cost_model` only when a policy spec needs one (cost_sensitive).
struct CatalogConfig {
  std::shared_ptr<const Hierarchy> hierarchy;
  Distribution distribution;
  std::shared_ptr<const CostModel> cost_model;
  /// PolicyRegistry specs to prebuild ("greedy", "batched:k=4", ...).
  /// Sessions can only be opened on prebuilt specs — per-request policy
  /// construction would reintroduce the O(n) setup the snapshot exists to
  /// amortize.
  std::vector<std::string> policy_specs;
  /// Optional pool to build the per-spec policies on concurrently (each
  /// policy's O(n) base precomputation is independent). Borrowed for the
  /// duration of Build() only; null builds serially. Engine::Publish fills
  /// this with its own session pool when the caller left it null.
  ThreadPool* build_pool = nullptr;
};

/// A prebuilt policy and the plan tree its sessions share.
struct ServedPolicy {
  const Policy* policy = nullptr;
  PlanTree* plans = nullptr;
};

/// Wraps a borrowed hierarchy in a non-owning shared_ptr for CatalogConfig.
/// The referent must outlive every snapshot built from the config.
std::shared_ptr<const Hierarchy> UnownedHierarchy(const Hierarchy& hierarchy);

/// Immutable catalog state at one epoch. Thread-safe by construction: all
/// members are const after Build() except the lazily computed digests,
/// which std::call_once publishes, and the plan trees, which synchronize
/// themselves.
class CatalogSnapshot {
 public:
  /// Constructs every configured policy through the global PolicyRegistry.
  /// Fails on an invalid spec, a distribution/hierarchy size mismatch, or a
  /// cost-aware spec without a cost model.
  static StatusOr<std::shared_ptr<const CatalogSnapshot>> Build(
      CatalogConfig config, std::uint64_t epoch);

  std::uint64_t epoch() const { return epoch_; }
  const Hierarchy& hierarchy() const { return *config_.hierarchy; }
  const Distribution& distribution() const { return config_.distribution; }
  const CostModel* cost_model() const { return config_.cost_model.get(); }

  /// The prebuilt policy for `spec`; NotFound (listing the prebuilt specs)
  /// for anything else.
  StatusOr<const Policy*> PolicyFor(const std::string& spec) const;

  /// PolicyFor plus the spec's plan tree.
  StatusOr<ServedPolicy> Serve(const std::string& spec) const;

  /// Nodes over every plan tree of the snapshot.
  std::size_t plan_tree_nodes() const;

  /// The prebuilt specs, sorted.
  std::vector<std::string> policy_specs() const;

  /// FNV-1a digest of the hierarchy structure and the distribution weights.
  /// Saved sessions bind to this: a transcript only replays exactly against
  /// the catalog it was recorded on (policy determinism, Definition 6).
  /// Computed once, on first use from any thread: only saved, logged and
  /// migrated sessions read it, so Build does not pay for it.
  std::uint64_t fingerprint() const;

  /// Digest of the hierarchy structure alone. Cross-epoch migration checks
  /// this instead of fingerprint(): replay-with-divergence is sound under
  /// changed WEIGHTS (answers are facts about the target), but a changed
  /// node space makes recorded node ids meaningless. Computed on first use.
  std::uint64_t hierarchy_fingerprint() const;

 private:
  CatalogSnapshot() = default;

  CatalogConfig config_;
  std::uint64_t epoch_ = 0;
  mutable std::once_flag fingerprint_once_;
  mutable std::uint64_t fingerprint_ = 0;
  mutable std::once_flag hierarchy_fingerprint_once_;
  mutable std::uint64_t hierarchy_fingerprint_ = 0;
  struct Entry {
    std::unique_ptr<Policy> policy;
    std::unique_ptr<PlanTree> plans;
  };
  std::map<std::string, Entry> policies_;
};

}  // namespace aigs

#endif  // AIGS_SERVICE_CATALOG_SNAPSHOT_H_

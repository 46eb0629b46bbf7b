#include "service/catalog_snapshot.h"

#include <algorithm>
#include <utility>

#include "core/policy_registry.h"
#include "util/thread_pool.h"

namespace aigs {
namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

void FnvMix(std::uint64_t& h, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (value >> (byte * 8)) & 0xFF;
    h *= kFnvPrime;
  }
}

std::uint64_t HierarchyFingerprint(const Hierarchy& hierarchy) {
  std::uint64_t h = kFnvOffset;
  FnvMix(h, hierarchy.NumNodes());
  FnvMix(h, hierarchy.NumEdges());
  FnvMix(h, hierarchy.root());
  for (NodeId u = 0; u < hierarchy.NumNodes(); ++u) {
    for (const NodeId v : hierarchy.graph().Children(u)) {
      FnvMix(h, (static_cast<std::uint64_t>(u) << 32) | v);
    }
  }
  return h;
}

/// Continues the hierarchy digest over the weights — the combined value is
/// byte-for-byte the pre-split fingerprint, so existing saved blobs keep
/// resuming.
std::uint64_t Fingerprint(std::uint64_t hierarchy_digest,
                          const Distribution& dist) {
  std::uint64_t h = hierarchy_digest;
  for (NodeId v = 0; v < dist.size(); ++v) {
    FnvMix(h, dist.WeightOf(v));
  }
  return h;
}

}  // namespace

std::shared_ptr<const Hierarchy> UnownedHierarchy(const Hierarchy& hierarchy) {
  return std::shared_ptr<const Hierarchy>(std::shared_ptr<const Hierarchy>(),
                                          &hierarchy);
}

StatusOr<std::shared_ptr<const CatalogSnapshot>> CatalogSnapshot::Build(
    CatalogConfig config, std::uint64_t epoch) {
  if (config.hierarchy == nullptr) {
    return Status::InvalidArgument("CatalogConfig needs a hierarchy");
  }
  if (config.distribution.size() != config.hierarchy->NumNodes()) {
    return Status::InvalidArgument(
        "distribution size does not match the hierarchy's node count");
  }
  if (config.policy_specs.empty()) {
    return Status::InvalidArgument(
        "CatalogConfig needs at least one policy spec to prebuild");
  }

  auto snapshot = std::shared_ptr<CatalogSnapshot>(new CatalogSnapshot());
  snapshot->config_ = std::move(config);
  snapshot->epoch_ = epoch;

  PolicyContext context;
  context.hierarchy = snapshot->config_.hierarchy.get();
  context.distribution = &snapshot->config_.distribution;
  context.cost_model = snapshot->config_.cost_model.get();

  // Dedup in config order; duplicate specs build once.
  std::vector<const std::string*> unique_specs;
  for (const std::string& spec : snapshot->config_.policy_specs) {
    const bool seen =
        std::any_of(unique_specs.begin(), unique_specs.end(),
                    [&spec](const std::string* s) { return *s == spec; });
    if (!seen) {
      unique_specs.push_back(&spec);
    }
  }

  ThreadPool* pool = snapshot->config_.build_pool;
  snapshot->config_.build_pool = nullptr;  // borrowed for Build() only
  std::vector<StatusOr<std::unique_ptr<Policy>>> built;
  built.reserve(unique_specs.size());
  for (std::size_t i = 0; i < unique_specs.size(); ++i) {
    built.emplace_back(Status::Internal("policy not built"));
  }
  if (pool != nullptr && unique_specs.size() > 1) {
    // Each policy's O(n) base precomputation is independent of the others;
    // one spec per shard. Registry Create is read-only on the registry and
    // on the shared context.
    pool->RunShards(unique_specs.size(), [&](std::size_t i) {
      built[i] = PolicyRegistry::Global().Create(*unique_specs[i], context);
    });
  } else {
    for (std::size_t i = 0; i < unique_specs.size(); ++i) {
      built[i] = PolicyRegistry::Global().Create(*unique_specs[i], context);
    }
  }
  // First failure in config order wins, matching the serial error surface.
  for (std::size_t i = 0; i < unique_specs.size(); ++i) {
    if (!built[i].ok()) {
      return Status(built[i].status().code(), "policy spec '" +
                                                  *unique_specs[i] + "': " +
                                                  built[i].status().message());
    }
  }
  const std::size_t num_nodes = snapshot->config_.hierarchy->NumNodes();
  for (std::size_t i = 0; i < unique_specs.size(); ++i) {
    snapshot->policies_.emplace(
        *unique_specs[i],
        Entry{*std::move(built[i]), std::make_unique<PlanTree>(num_nodes)});
  }
  return std::shared_ptr<const CatalogSnapshot>(std::move(snapshot));
}

std::uint64_t CatalogSnapshot::fingerprint() const {
  std::call_once(fingerprint_once_, [this] {
    fingerprint_ =
        Fingerprint(hierarchy_fingerprint(), config_.distribution);
  });
  return fingerprint_;
}

std::uint64_t CatalogSnapshot::hierarchy_fingerprint() const {
  std::call_once(hierarchy_fingerprint_once_, [this] {
    hierarchy_fingerprint_ = HierarchyFingerprint(*config_.hierarchy);
  });
  return hierarchy_fingerprint_;
}

StatusOr<const Policy*> CatalogSnapshot::PolicyFor(
    const std::string& spec) const {
  AIGS_ASSIGN_OR_RETURN(const ServedPolicy served, Serve(spec));
  return served.policy;
}

StatusOr<ServedPolicy> CatalogSnapshot::Serve(const std::string& spec) const {
  const auto it = policies_.find(spec);
  if (it == policies_.end()) {
    std::string known;
    for (const auto& [name, policy] : policies_) {
      known += known.empty() ? name : ", " + name;
    }
    return Status::NotFound("policy spec '" + spec +
                            "' is not prebuilt in this snapshot (available: " +
                            known + ")");
  }
  return ServedPolicy{it->second.policy.get(), it->second.plans.get()};
}

std::size_t CatalogSnapshot::plan_tree_nodes() const {
  std::size_t nodes = 0;
  for (const auto& [name, entry] : policies_) {
    nodes += entry.plans->size();
  }
  return nodes;
}

std::vector<std::string> CatalogSnapshot::policy_specs() const {
  std::vector<std::string> specs;
  specs.reserve(policies_.size());
  for (const auto& [name, policy] : policies_) {
    specs.push_back(name);
  }
  return specs;
}

}  // namespace aigs

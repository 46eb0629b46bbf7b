#include "data/synthetic_catalog.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>
#include <vector>

namespace aigs {
namespace {

/// Shared skeleton: builds the tree edge list (parent per node) with exact
/// height and exact max out-degree, returning per-node tree depths.
struct TreeSkeleton {
  std::vector<NodeId> parent;  // parent[0] unused (root)
  std::vector<int> depth;
  NodeId hub = kInvalidNode;
};

TreeSkeleton BuildSkeleton(const CatalogParams& params, Rng& rng) {
  const std::size_t n = params.num_nodes;
  const auto height = static_cast<std::size_t>(params.height);
  const std::size_t max_deg = params.max_out_degree;
  AIGS_CHECK(n >= height + max_deg + 2);
  AIGS_CHECK(params.height >= 2);
  AIGS_CHECK(max_deg >= 3);

  TreeSkeleton s;
  s.parent.assign(n, kInvalidNode);
  s.depth.assign(n, 0);
  std::vector<std::size_t> out_degree(n, 0);
  // Preferential-attachment slot list: a node appears once when created and
  // once more per child it has, so P(parent = u) ∝ 1 + children(u).
  std::vector<NodeId> slots;
  slots.reserve(2 * n);

  NodeId next = 0;
  auto add_node = [&](NodeId parent_id) {
    const NodeId v = next++;
    AIGS_CHECK(v < n);
    if (v != 0) {
      s.parent[v] = parent_id;
      s.depth[v] = s.depth[parent_id] + 1;
      ++out_degree[parent_id];
      slots.push_back(parent_id);
    }
    slots.push_back(v);
    return v;
  };

  const NodeId root = add_node(kInvalidNode);
  // Spine pins the height: a chain root -> ... of `height` edges.
  NodeId spine_tail = root;
  for (std::size_t i = 0; i < height; ++i) {
    spine_tail = add_node(spine_tail);
  }
  // Hub pins the maximum out-degree: a depth-1 node with exactly max_deg
  // children (everyone else is capped one below).
  s.hub = add_node(root);
  for (std::size_t i = 0; i < max_deg; ++i) {
    add_node(s.hub);
  }

  // Preferential attachment for the remainder, capped in depth and degree.
  while (next < n) {
    const NodeId parent_id =
        slots[static_cast<std::size_t>(rng.UniformInt(slots.size()))];
    if (s.depth[parent_id] >= params.height) {
      continue;  // would exceed the target height
    }
    const std::size_t cap = parent_id == s.hub ? max_deg : max_deg - 1;
    if (out_degree[parent_id] >= cap) {
      continue;
    }
    add_node(parent_id);
  }
  return s;
}

/// The skeleton's tree edges, with room reserved for `extra_edges` more.
Digraph SkeletonToGraph(const TreeSkeleton& s, std::size_t extra_edges = 0) {
  Digraph g;
  g.AddNodes(s.parent.size());
  g.ReserveEdges(s.parent.size() - 1 + extra_edges);
  for (NodeId v = 1; v < s.parent.size(); ++v) {
    g.AddEdge(s.parent[v], v);
  }
  return g;
}

}  // namespace

CatalogParams AmazonParams() {
  CatalogParams p;
  p.num_nodes = 29'240;
  p.height = 10;
  p.max_out_degree = 225;
  p.extra_parent_frac = 0;
  p.seed = 2022;
  return p;
}

CatalogParams ImageNetParams() {
  CatalogParams p;
  p.num_nodes = 27'714;
  p.height = 13;
  p.max_out_degree = 402;
  p.extra_parent_frac = 0.05;
  p.seed = 2023;
  return p;
}

CatalogParams BigCatalogParams(std::size_t num_nodes) {
  CatalogParams p;
  p.num_nodes = num_nodes;
  p.height = 20;
  p.max_out_degree = 256;
  // Each extra parent makes every ancestor of its endpoint closure-impure
  // (a chunked row instead of a 12-byte interval), so the fraction is kept
  // an order of magnitude below ImageNet's to pin closure density at
  // million-node scale.
  p.extra_parent_frac = 0.005;
  p.seed = 2024;
  return p;
}

Digraph GenerateCatalogTree(const CatalogParams& params) {
  Rng rng(params.seed);
  // The skeleton is freed before Finalize allocates the CSR arrays.
  Digraph g = SkeletonToGraph(BuildSkeleton(params, rng));
  AIGS_CHECK(g.Finalize().ok());
  AIGS_CHECK(g.IsTree());
  AIGS_CHECK(g.NumNodes() == params.num_nodes);
  AIGS_CHECK(g.Height() == params.height);
  AIGS_CHECK(g.MaxOutDegree() == params.max_out_degree);
  return g;
}

Digraph GenerateCatalogDag(const CatalogParams& params) {
  Rng rng(params.seed);
  const TreeSkeleton s = BuildSkeleton(params, rng);
  const std::size_t n = params.num_nodes;
  const auto extra = static_cast<std::size_t>(
      params.extra_parent_frac * static_cast<double>(n));
  Digraph g = SkeletonToGraph(s, extra);

  // Extra parents: edges always point from a strictly shallower tree depth
  // to a deeper one, so every path's tree depth strictly increases — the
  // result is acyclic and the longest path still equals the tree height.
  std::vector<std::size_t> out_degree(n, 0);
  for (NodeId v = 1; v < n; ++v) {
    ++out_degree[s.parent[v]];
  }
  // Extra edges drawn so far; tree edges never need a lookup because
  // `u == s.parent[v]` rejects them before the set is consulted.
  std::unordered_set<std::uint64_t> edges;
  edges.reserve(extra);
  std::size_t added = 0;
  std::size_t attempts = 0;
  while (added < extra && attempts < 50 * extra + 100) {
    ++attempts;
    const NodeId v = static_cast<NodeId>(rng.UniformInt(n));
    if (s.depth[v] < 2) {
      continue;  // keep the root's degree stable
    }
    const NodeId u = static_cast<NodeId>(rng.UniformInt(n));
    if (s.depth[u] >= s.depth[v] || u == s.parent[v]) {
      continue;
    }
    const std::size_t cap =
        u == s.hub ? params.max_out_degree : params.max_out_degree - 1;
    if (out_degree[u] >= cap) {
      continue;
    }
    if (!edges.insert((static_cast<std::uint64_t>(u) << 32) | v).second) {
      continue;
    }
    g.AddEdge(u, v);
    ++out_degree[u];
    ++added;
  }
  AIGS_CHECK(added == extra);

  AIGS_CHECK(g.Finalize().ok());
  AIGS_CHECK(!g.IsTree() || extra == 0);
  AIGS_CHECK(g.NumNodes() == params.num_nodes);
  AIGS_CHECK(g.Height() == params.height);
  AIGS_CHECK(g.MaxOutDegree() == params.max_out_degree);
  return g;
}

Distribution AssignZipfObjectCounts(std::size_t num_nodes,
                                    std::uint64_t total_objects,
                                    double s, std::uint64_t seed) {
  AIGS_CHECK(num_nodes >= 1 && total_objects >= num_nodes);
  Rng rng(seed);
  // Random rank permutation: rank r gets mass r^-s.
  std::vector<NodeId> order(num_nodes);
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);

  std::vector<double> mass(num_nodes);
  double mass_total = 0;
  for (std::size_t r = 0; r < num_nodes; ++r) {
    mass[order[r]] = std::pow(static_cast<double>(r + 1), -s);
    mass_total += mass[order[r]];
  }

  // Largest-remainder scaling to hit total_objects exactly; each node's
  // mass slot is overwritten with its remainder.
  std::vector<Weight> counts(num_nodes);
  std::vector<double>& remainder = mass;
  std::uint64_t assigned = 0;
  for (NodeId v = 0; v < num_nodes; ++v) {
    const double exact =
        mass[v] / mass_total * static_cast<double>(total_objects);
    counts[v] = static_cast<Weight>(exact);
    assigned += counts[v];
    remainder[v] = exact - static_cast<double>(counts[v]);
  }
  AIGS_CHECK(assigned <= total_objects);
  const std::uint64_t leftover = total_objects - assigned;
  AIGS_CHECK(leftover <= num_nodes);
  // The `leftover` largest remainders under a strict total order (remainder
  // descending, id ascending) get one more object each; selecting them needs
  // no full sort. `order` is reused as the candidate list.
  const auto top = order.begin() + static_cast<std::ptrdiff_t>(leftover);
  if (top != order.end()) {
    std::nth_element(order.begin(), top, order.end(),
                     [&remainder](NodeId a, NodeId b) {
                       return remainder[a] != remainder[b]
                                  ? remainder[a] > remainder[b]
                                  : a < b;
                     });
  }
  for (auto it = order.begin(); it != top; ++it) {
    ++counts[*it];
  }

  auto d = Distribution::FromWeights(std::move(counts));
  AIGS_CHECK(d.ok());
  return *std::move(d);
}

}  // namespace aigs

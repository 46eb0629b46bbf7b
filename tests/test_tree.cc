#include "tree/tree.h"

#include <gtest/gtest.h>

#include "core/hierarchy.h"
#include "data/datasets.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace aigs {
namespace {

TEST(Tree, RejectsNonTree) {
  Digraph g;
  g.AddNodes(3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  ASSERT_TRUE(g.Finalize().ok());
  EXPECT_FALSE(Tree::Build(g).ok());
}

TEST(Tree, ParentPointers) {
  Rng rng(1);
  const Digraph g = RandomTree(50, rng);
  auto tree = Tree::Build(g);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->Parent(tree->root()), kInvalidNode);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (const NodeId c : g.Children(u)) {
      EXPECT_EQ(tree->Parent(c), u);
    }
  }
}

TEST(Tree, SubtreeMembershipMatchesParentChains) {
  Rng rng(2);
  const Digraph g = RandomTree(60, rng);
  auto tree = Tree::Build(g);
  ASSERT_TRUE(tree.ok());
  for (NodeId anc = 0; anc < g.NumNodes(); ++anc) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      bool expected = false;
      for (NodeId x = v; x != kInvalidNode; x = tree->Parent(x)) {
        if (x == anc) {
          expected = true;
          break;
        }
      }
      EXPECT_EQ(tree->InSubtree(anc, v), expected) << anc << " " << v;
    }
  }
}

TEST(Tree, SubtreeSizesSumCorrectly) {
  Rng rng(3);
  const Digraph g = RandomTree(80, rng);
  auto tree = Tree::Build(g);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->SubtreeSize(tree->root()), 80u);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    std::size_t expected = 1;
    for (const NodeId c : tree->Children(v)) {
      expected += tree->SubtreeSize(c);
    }
    EXPECT_EQ(tree->SubtreeSize(v), expected);
  }
}

TEST(Tree, PreorderIsSubtreeContiguous) {
  Rng rng(4);
  const Digraph g = RandomTree(40, rng);
  auto tree = Tree::Build(g);
  ASSERT_TRUE(tree.ok());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(tree->NodeAtPreorder(tree->PreorderIndex(v)), v);
  }
}

TEST(Tree, LcaBasics) {
  // Hand-built:      0
  //                 / \.
  //                1   2
  //               / \   \.
  //              3   4   5
  Digraph g;
  g.AddNodes(6);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  g.AddEdge(1, 4);
  g.AddEdge(2, 5);
  ASSERT_TRUE(g.Finalize().ok());
  auto tree = Tree::Build(g);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->Lca(3, 4), 1u);
  EXPECT_EQ(tree->Lca(3, 5), 0u);
  EXPECT_EQ(tree->Lca(1, 3), 1u);
  EXPECT_EQ(tree->Lca(2, 2), 2u);
  EXPECT_EQ(tree->Lca(4, 2), 0u);
}

// Walks u's ancestor chain into a set, then walks v upward.
NodeId BruteLca(const Tree& tree, NodeId u, NodeId v) {
  std::vector<bool> is_ancestor(tree.NumNodes(), false);
  for (NodeId x = u; x != kInvalidNode; x = tree.Parent(x)) {
    is_ancestor[x] = true;
  }
  for (NodeId x = v; x != kInvalidNode; x = tree.Parent(x)) {
    if (is_ancestor[x]) {
      return x;
    }
  }
  return kInvalidNode;
}

TEST(Tree, LcaMatchesBruteForceOnRandomTrees) {
  Rng rng(5);
  const Digraph g = RandomTree(70, rng);
  auto tree = Tree::Build(g);
  ASSERT_TRUE(tree.ok());
  Rng pick(6);
  for (int i = 0; i < 500; ++i) {
    const NodeId u = static_cast<NodeId>(pick.UniformInt(g.NumNodes()));
    const NodeId v = static_cast<NodeId>(pick.UniformInt(g.NumNodes()));
    EXPECT_EQ(tree->Lca(u, v), BruteLca(*tree, u, v)) << u << " " << v;
  }
}

TEST(Tree, LcaMatchesBruteForceOnLongPath) {
  // Deep chain: the parent walk climbs up to ~1,200 levels.
  const Digraph g = PathGraph(1200);
  auto tree = Tree::Build(g);
  ASSERT_TRUE(tree.ok());
  Rng pick(8);
  for (int i = 0; i < 300; ++i) {
    const NodeId u = static_cast<NodeId>(pick.UniformInt(g.NumNodes()));
    const NodeId v = static_cast<NodeId>(pick.UniformInt(g.NumNodes()));
    EXPECT_EQ(tree->Lca(u, v), BruteLca(*tree, u, v)) << u << " " << v;
  }
  EXPECT_EQ(tree->Lca(1199, 0), 0u);
  EXPECT_EQ(tree->Lca(0, 1199), 0u);
  EXPECT_EQ(tree->Lca(1199, 1198), 1198u);
}

TEST(Tree, DeepChainNoStackOverflow) {
  const Digraph g = PathGraph(100000);
  auto tree = Tree::Build(g);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->SubtreeSize(0), 100000u);
  EXPECT_EQ(tree->Depth(99999), 99999);
}

// Reference layout: a recursive-free preorder DFS over the graph's children
// in insertion order, independent of the Euler index.
struct ReferenceLayout {
  std::vector<NodeId> parent;
  std::vector<std::uint32_t> tin;
  std::vector<std::uint32_t> tout;
  std::vector<NodeId> order;
};

ReferenceLayout ReferenceDfs(const Digraph& g) {
  const std::size_t n = g.NumNodes();
  ReferenceLayout ref{std::vector<NodeId>(n, kInvalidNode),
                      std::vector<std::uint32_t>(n, 0),
                      std::vector<std::uint32_t>(n, 0),
                      {}};
  std::vector<std::pair<NodeId, std::size_t>> stack{{g.root(), 0}};
  ref.tin[g.root()] = 0;
  ref.order.push_back(g.root());
  while (!stack.empty()) {
    auto& [u, next] = stack.back();
    const auto children = g.Children(u);
    if (next < children.size()) {
      const NodeId c = children[next++];
      ref.parent[c] = u;
      ref.tin[c] = static_cast<std::uint32_t>(ref.order.size());
      ref.order.push_back(c);
      stack.emplace_back(c, 0);
    } else {
      ref.tout[u] = static_cast<std::uint32_t>(ref.order.size());
      stack.pop_back();
    }
  }
  return ref;
}

void ExpectMatchesReference(const Tree& tree) {
  const ReferenceLayout ref = ReferenceDfs(tree.graph());
  const std::size_t n = tree.NumNodes();
  ASSERT_EQ(ref.order.size(), n);
  EXPECT_EQ(tree.Preorder(), ref.order);
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(tree.Parent(v), ref.parent[v]) << v;
    EXPECT_EQ(tree.PreorderIndex(v), ref.tin[v]) << v;
    EXPECT_EQ(tree.NodeAtPreorder(ref.tin[v]), v) << v;
    EXPECT_EQ(tree.SubtreeSize(v), ref.tout[v] - ref.tin[v]) << v;
  }
  // InSubtree on a sample of pairs (all pairs for small trees).
  const std::size_t step = n <= 200 ? 1 : n / 97;
  for (NodeId a = 0; a < n; a += static_cast<NodeId>(step)) {
    for (NodeId v = 0; v < n; ++v) {
      const bool expected =
          ref.tin[v] >= ref.tin[a] && ref.tin[v] < ref.tout[a];
      ASSERT_EQ(tree.InSubtree(a, v), expected) << a << " " << v;
    }
  }
}

TEST(Tree, HierarchyViewMatchesReferenceDfsOnRandomTrees) {
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
    Rng rng(seed);
    auto h = Hierarchy::Build(RandomTree(150 + 40 * (seed % 4), rng, seed % 3));
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(h->is_tree());
    EXPECT_TRUE(h->reach().euler_mode());
    ExpectMatchesReference(h->tree());
    // The view reads the hierarchy's own index: one preorder array.
    EXPECT_EQ(&h->tree().Preorder(), &h->reach().EulerOrder());
  }
}

TEST(Tree, HierarchyViewMatchesReferenceDfsOnAmazon) {
  const Dataset d = MakeAmazonDataset(0.05);
  ASSERT_TRUE(d.hierarchy.is_tree());
  ExpectMatchesReference(d.hierarchy.tree());
}

TEST(Tree, ForcedClosureTreeKeepsItsOwnEulerIndex) {
  ReachabilityOptions options;
  options.force_closure_on_trees = true;
  for (const auto closure : {ReachabilityOptions::Closure::kCompressed,
                             ReachabilityOptions::Closure::kDense}) {
    options.closure = closure;
    Rng rng(16);
    auto h = Hierarchy::Build(RandomTree(300, rng), options);
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(h->is_tree());
    EXPECT_FALSE(h->reach().euler_mode());
    ExpectMatchesReference(h->tree());
    for (NodeId v = 0; v < h->NumNodes(); ++v) {
      EXPECT_EQ(h->tree().SubtreeSize(v), h->reach().ReachableCount(v));
    }
  }
}

TEST(Tree, StandaloneBuildOutlivesMoves) {
  Rng rng(17);
  const Digraph g = RandomTree(120, rng);
  auto built = Tree::Build(g);
  ASSERT_TRUE(built.ok());
  const Tree moved = *std::move(built);
  ExpectMatchesReference(moved);
}

TEST(SubtreeWeights, MatchesBruteForce) {
  Rng rng(7);
  const Digraph g = RandomTree(60, rng);
  auto tree = Tree::Build(g);
  ASSERT_TRUE(tree.ok());
  std::vector<Weight> weights(g.NumNodes());
  for (auto& w : weights) {
    w = rng.UniformInt(50);
  }
  const auto subtree = tree->SubtreeWeights(weights);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    Weight expected = 0;
    for (NodeId x = 0; x < g.NumNodes(); ++x) {
      if (tree->InSubtree(v, x)) {
        expected += weights[x];
      }
    }
    EXPECT_EQ(subtree[v], expected);
  }
}

TEST(SubtreeWeights, SizesMatchTreeIndex) {
  Rng rng(8);
  const Digraph g = RandomTree(45, rng);
  auto tree = Tree::Build(g);
  ASSERT_TRUE(tree.ok());
  const std::vector<Weight> unit(g.NumNodes(), 1);
  const auto sizes = tree->SubtreeWeights(unit);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(sizes[v], tree->SubtreeSize(v));
  }
}

}  // namespace
}  // namespace aigs

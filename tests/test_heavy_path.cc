#include "tree/heavy_path.h"

#include <gtest/gtest.h>

#include <set>

#include "graph/generators.h"
#include "util/rng.h"

namespace aigs {
namespace {

TEST(HeavyPath, HeavyChildHasMaxSubtreeSize) {
  Rng rng(1);
  const Digraph g = RandomTree(80, rng);
  auto tree = Tree::Build(g);
  ASSERT_TRUE(tree.ok());
  const auto hpd = HeavyPathDecomposition::BySize(*tree);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const NodeId heavy = hpd.HeavyChild(v);
    if (tree->Children(v).empty()) {
      EXPECT_EQ(heavy, kInvalidNode);
      continue;
    }
    ASSERT_NE(heavy, kInvalidNode);
    for (const NodeId c : tree->Children(v)) {
      EXPECT_GE(tree->SubtreeSize(heavy), tree->SubtreeSize(c));
    }
  }
}

TEST(HeavyPath, EveryNodeOnExactlyOnePath) {
  Rng rng(2);
  const Digraph g = RandomTree(100, rng);
  auto tree = Tree::Build(g);
  ASSERT_TRUE(tree.ok());
  const auto hpd = HeavyPathDecomposition::BySize(*tree);
  std::set<NodeId> covered;
  std::size_t paths_walked = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (hpd.Head(v) != v) {
      continue;  // not a path head
    }
    ++paths_walked;
    for (const NodeId x : hpd.PathFrom(v)) {
      EXPECT_TRUE(covered.insert(x).second) << "node on two paths: " << x;
      EXPECT_EQ(hpd.Head(x), v);
    }
  }
  EXPECT_EQ(covered.size(), g.NumNodes());
  EXPECT_EQ(paths_walked, hpd.NumPaths());
}

TEST(HeavyPath, PathFromFollowsHeavyChildren) {
  Rng rng(3);
  const Digraph g = RandomTree(50, rng);
  auto tree = Tree::Build(g);
  ASSERT_TRUE(tree.ok());
  const auto hpd = HeavyPathDecomposition::BySize(*tree);
  const auto path = hpd.PathFrom(tree->root());
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), tree->root());
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_EQ(hpd.HeavyChild(path[i]), path[i + 1]);
  }
  EXPECT_EQ(hpd.HeavyChild(path.back()), kInvalidNode);
}

TEST(HeavyPath, RootToLeafCrossesFewLightEdges) {
  // Theory: any root-to-leaf walk crosses O(log n) light edges.
  Rng rng(4);
  const Digraph g = RandomTree(1 << 10, rng);
  auto tree = Tree::Build(g);
  ASSERT_TRUE(tree.ok());
  const auto hpd = HeavyPathDecomposition::BySize(*tree);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    int light_edges = 0;
    for (NodeId x = v; tree->Parent(x) != kInvalidNode;
         x = tree->Parent(x)) {
      if (hpd.HeavyChild(tree->Parent(x)) != x) {
        ++light_edges;
      }
    }
    EXPECT_LE(light_edges, 10);  // log2(1024)
  }
}

TEST(HeavyPath, WeightedDecompositionUsesWeights) {
  // Root with two children: tiny subtree sizes but huge weight on child 2.
  Digraph g;
  g.AddNodes(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 3);  // child 1 has the bigger subtree by size
  g.AddEdge(0, 2);
  ASSERT_TRUE(g.Finalize().ok());
  auto tree = Tree::Build(g);
  ASSERT_TRUE(tree.ok());

  const auto by_size = HeavyPathDecomposition::BySize(*tree);
  EXPECT_EQ(by_size.HeavyChild(0), 1u);

  const std::vector<Weight> weights{1, 1, 100, 1};
  const auto by_weight = HeavyPathDecomposition::ByWeight(*tree, weights);
  EXPECT_EQ(by_weight.HeavyChild(0), 2u);
}

TEST(HeavyPath, WeightedHeavyChildMaximizesSubtreeWeight) {
  Rng rng(5);
  const Digraph g = RandomTree(60, rng);
  auto tree = Tree::Build(g);
  ASSERT_TRUE(tree.ok());
  std::vector<Weight> weights(g.NumNodes());
  for (auto& w : weights) {
    w = rng.UniformInt(1000);
  }
  const auto hpd = HeavyPathDecomposition::ByWeight(*tree, weights);
  const auto subtree = tree->SubtreeWeights(weights);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const NodeId heavy = hpd.HeavyChild(v);
    for (const NodeId c : tree->Children(v)) {
      ASSERT_NE(heavy, kInvalidNode);
      EXPECT_GE(subtree[heavy], subtree[c]);
    }
  }
}

}  // namespace
}  // namespace aigs

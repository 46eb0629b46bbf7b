#include "graph/digraph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "data/builtin.h"
#include "util/rng.h"

namespace aigs {
namespace {

TEST(Digraph, EmptyGraphRejected) {
  Digraph g;
  EXPECT_FALSE(g.Finalize().ok());
}

TEST(Digraph, SingleNodeIsItsOwnRoot) {
  Digraph g;
  const NodeId v = g.AddNode("only");
  ASSERT_TRUE(g.Finalize().ok());
  EXPECT_EQ(g.root(), v);
  EXPECT_EQ(g.NumNodes(), 1u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_TRUE(g.IsTree());
  EXPECT_TRUE(g.IsLeaf(v));
  EXPECT_EQ(g.Height(), 0);
}

TEST(Digraph, ChildrenPreserveInsertionOrder) {
  Digraph g;
  g.AddNodes(4);
  g.AddEdge(0, 2);
  g.AddEdge(0, 1);
  g.AddEdge(0, 3);
  ASSERT_TRUE(g.Finalize().ok());
  const auto children = g.Children(0);
  ASSERT_EQ(children.size(), 3u);
  EXPECT_EQ(children[0], 2u);
  EXPECT_EQ(children[1], 1u);
  EXPECT_EQ(children[2], 3u);
}

TEST(Digraph, ParentsAreRecorded) {
  Digraph g;
  g.AddNodes(3);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  g.AddEdge(0, 1);
  ASSERT_TRUE(g.Finalize().ok());
  const auto parents = g.Parents(2);
  ASSERT_EQ(parents.size(), 2u);
  EXPECT_EQ(g.InDegree(2), 2u);
  EXPECT_EQ(g.OutDegree(0), 2u);
}

TEST(Digraph, DuplicateEdgeRejected) {
  Digraph g;
  g.AddNodes(2);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  EXPECT_FALSE(g.Finalize().ok());
}

TEST(Digraph, DuplicateEdgeMessageNamesSmallestPair) {
  Digraph g;
  g.AddNodes(6);
  g.AddEdge(2, 5);
  g.AddEdge(2, 5);
  g.AddEdge(1, 4);
  g.AddEdge(1, 3);
  g.AddEdge(1, 4);
  g.AddEdge(1, 3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  const Status st = g.Finalize();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "duplicate edge 1 -> 3");
}

TEST(Digraph, FailedFinalizeLeavesGraphUnmutated) {
  // Two sources (0 and 2) would get a dummy root, but the duplicate edge is
  // rejected first and nothing is appended.
  Digraph g;
  g.AddNodes(4);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  g.AddEdge(0, 1);
  const Status st = g.Finalize(/*add_dummy_root=*/true);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "duplicate edge 0 -> 1");
  EXPECT_FALSE(g.finalized());
  EXPECT_EQ(g.NumNodes(), 4u);
  EXPECT_EQ(g.NumEdges(), 3u);
  // A retry reports the same error on the same graph.
  EXPECT_EQ(g.Finalize().message(), "duplicate edge 0 -> 1");
  EXPECT_EQ(g.NumNodes(), 4u);
}

TEST(Digraph, LabelsAreSparse) {
  Digraph g;
  const NodeId a = g.AddNode("a");
  const NodeId first = g.AddNodes(3);
  const NodeId b = g.AddNode();
  g.SetLabel(first + 1, "middle");
  g.SetLabel(a, "renamed");
  g.SetLabel(b, "b");
  g.SetLabel(b, "");  // clears
  for (NodeId v = first; v < first + 3; ++v) {
    g.AddEdge(a, v);
  }
  g.AddEdge(a, b);
  ASSERT_TRUE(g.Finalize().ok());
  EXPECT_EQ(g.NumNodes(), 5u);
  EXPECT_EQ(g.Label(a), "renamed");
  EXPECT_EQ(g.Label(first), "");
  EXPECT_EQ(g.Label(first + 1), "middle");
  EXPECT_EQ(g.Label(first + 2), "");
  EXPECT_EQ(g.Label(b), "");
}

TEST(Digraph, CycleRejected) {
  Digraph g;
  g.AddNodes(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 1);  // cycle 1 -> 2 -> 3 -> 1
  EXPECT_FALSE(g.Finalize().ok());
}

TEST(Digraph, TwoNodeCycleHasNoSource) {
  Digraph g;
  g.AddNodes(2);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  EXPECT_FALSE(g.Finalize().ok());
}

TEST(Digraph, MultiRootGetsDummyRoot) {
  Digraph g;
  g.AddNodes(3);  // three isolated roots
  ASSERT_TRUE(g.Finalize(/*add_dummy_root=*/true).ok());
  EXPECT_EQ(g.NumNodes(), 4u);
  EXPECT_EQ(g.Label(g.root()), "<root>");
  EXPECT_EQ(g.OutDegree(g.root()), 3u);
  EXPECT_TRUE(g.IsTree());
}

TEST(Digraph, MultiRootRejectedWithoutDummy) {
  Digraph g;
  g.AddNodes(2);
  EXPECT_FALSE(g.Finalize(/*add_dummy_root=*/false).ok());
}

TEST(Digraph, TopologicalOrderRespectsEdges) {
  Digraph g;
  g.AddNodes(6);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  g.AddEdge(2, 5);
  ASSERT_TRUE(g.Finalize().ok());
  const auto& topo = g.TopologicalOrder();
  std::vector<std::size_t> position(g.NumNodes());
  for (std::size_t i = 0; i < topo.size(); ++i) {
    position[topo[i]] = i;
  }
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (const NodeId c : g.Children(u)) {
      EXPECT_LT(position[u], position[c]);
    }
  }
}

TEST(Digraph, DepthIsLongestPath) {
  // Diamond with a shortcut: depth must take the longer route.
  Digraph g;
  g.AddNodes(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);  // shortcut
  g.AddEdge(2, 3);
  ASSERT_TRUE(g.Finalize().ok());
  EXPECT_EQ(g.Depth(0), 0);
  EXPECT_EQ(g.Depth(1), 1);
  EXPECT_EQ(g.Depth(2), 2);
  EXPECT_EQ(g.Depth(3), 3);
  EXPECT_EQ(g.Height(), 3);
}

TEST(Digraph, TreeDetection) {
  Digraph tree;
  tree.AddNodes(3);
  tree.AddEdge(0, 1);
  tree.AddEdge(0, 2);
  ASSERT_TRUE(tree.Finalize().ok());
  EXPECT_TRUE(tree.IsTree());

  Digraph dag;
  dag.AddNodes(3);
  dag.AddEdge(0, 1);
  dag.AddEdge(0, 2);
  dag.AddEdge(1, 2);  // second parent for node 2
  ASSERT_TRUE(dag.Finalize().ok());
  EXPECT_FALSE(dag.IsTree());
}

TEST(Digraph, MaxOutDegree) {
  Digraph g;
  g.AddNodes(5);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  g.AddEdge(3, 4);
  ASSERT_TRUE(g.Finalize().ok());
  EXPECT_EQ(g.MaxOutDegree(), 3u);
}

TEST(Digraph, LabelsViaSetLabel) {
  Digraph g;
  g.AddNodes(2);
  g.SetLabel(1, "leaf");
  g.AddEdge(0, 1);
  ASSERT_TRUE(g.Finalize().ok());
  EXPECT_EQ(g.Label(0), "");
  EXPECT_EQ(g.Label(1), "leaf");
}

TEST(Digraph, VehicleHierarchyStats) {
  const Digraph g = BuildVehicleHierarchy();
  EXPECT_EQ(g.NumNodes(), 7u);
  EXPECT_EQ(g.NumEdges(), 6u);
  EXPECT_TRUE(g.IsTree());
  EXPECT_EQ(g.Height(), 3);
  EXPECT_EQ(g.MaxOutDegree(), 3u);
  EXPECT_EQ(g.Label(g.root()), "Vehicle");
}

TEST(Digraph, DuplicateEdgeReportedBeforeCycle) {
  // 1 -> 2 -> 3 -> 1 is a cycle and 0 -> 1 is added twice: the duplicate
  // scan runs first, so its message wins and the graph stays unfinalized.
  Digraph g;
  g.AddNodes(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 1);
  g.AddEdge(0, 1);
  const Status st = g.Finalize();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "duplicate edge 0 -> 1");
  EXPECT_FALSE(g.finalized());
  EXPECT_EQ(g.NumEdges(), 5u);

  // Without a source node the duplicate is still the reported fault.
  Digraph loop;
  loop.AddNodes(2);
  loop.AddEdge(0, 1);
  loop.AddEdge(1, 0);
  loop.AddEdge(1, 0);
  EXPECT_EQ(loop.Finalize().message(), "duplicate edge 1 -> 0");
}

// Fused Finalize statistics against brute force over the edge list, on
// random DAGs with shuffled ids and edge order (several sources each, so the
// dummy root is exercised too).
TEST(Digraph, FusedFinalizeMatchesBruteForceOnRandomDags) {
  std::size_t non_trees = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const std::size_t n = 20 + rng.UniformInt(60);
    // Rank r lives at node label[r]; edges run from lower to higher rank.
    std::vector<NodeId> label(n);
    for (NodeId r = 0; r < n; ++r) {
      label[r] = r;
    }
    for (std::size_t i = n; i > 1; --i) {
      std::swap(label[i - 1], label[rng.UniformInt(i)]);
    }
    std::vector<std::pair<NodeId, NodeId>> edges;
    const bool tree_like = seed % 3 == 0;
    for (NodeId r = 1; r < n; ++r) {
      if (r % 7 == 0) {
        continue;  // an extra source
      }
      std::vector<NodeId> parents{static_cast<NodeId>(rng.UniformInt(r))};
      if (!tree_like && rng.UniformInt(3) == 0) {
        const auto extra = static_cast<NodeId>(rng.UniformInt(r));
        if (extra != parents[0]) {
          parents.push_back(extra);
        }
      }
      for (const NodeId p : parents) {
        edges.emplace_back(label[p], label[r]);
      }
    }
    for (std::size_t i = edges.size(); i > 1; --i) {
      std::swap(edges[i - 1], edges[rng.UniformInt(i)]);
    }

    Digraph g;
    g.AddNodes(n);
    for (const auto& [u, v] : edges) {
      g.AddEdge(u, v);
    }
    ASSERT_TRUE(g.Finalize().ok()) << seed;

    // Brute force on the same edges plus the dummy root's.
    std::vector<std::size_t> in_degree(n, 0);
    for (const auto& e : edges) {
      ++in_degree[e.second];
    }
    std::size_t total = n;
    const auto sources = static_cast<std::size_t>(
        std::count(in_degree.begin(), in_degree.end(), 0u));
    if (sources > 1) {
      for (NodeId v = 0; v < n; ++v) {
        if (in_degree[v] == 0) {
          edges.emplace_back(static_cast<NodeId>(n), v);
        }
      }
      ++total;
    }
    ASSERT_EQ(g.NumNodes(), total);
    EXPECT_EQ(g.NumEdges(), edges.size());
    std::vector<int> depth(total, 0);
    for (bool changed = true; changed;) {
      changed = false;
      for (const auto& [u, v] : edges) {
        if (depth[v] < depth[u] + 1) {
          depth[v] = depth[u] + 1;
          changed = true;
        }
      }
    }
    std::vector<std::size_t> out(total, 0);
    std::vector<std::size_t> in(total, 0);
    for (const auto& [u, v] : edges) {
      ++out[u];
      ++in[v];
    }
    bool is_tree = true;
    for (NodeId v = 0; v < total; ++v) {
      EXPECT_EQ(g.Depth(v), depth[v]) << seed << " node " << v;
      is_tree = is_tree && (v == g.root() ? in[v] == 0 : in[v] == 1);
    }
    EXPECT_EQ(g.Height(), *std::max_element(depth.begin(), depth.end()));
    EXPECT_EQ(g.MaxOutDegree(), *std::max_element(out.begin(), out.end()));
    EXPECT_EQ(g.IsTree(), is_tree) << seed;
    if (tree_like) {
      EXPECT_TRUE(g.IsTree()) << seed;
    }
    non_trees += g.IsTree() ? 0 : 1;
  }
  EXPECT_GT(non_trees, 0u);
}

// The duplicate scan visits only nodes with two or more parents; the pair
// it reports must still be the smallest (parent, child) duplicate, found by
// brute force over the edge list. Random multigraphs (some with cycles or
// several sources) with 1–4 repeated edges each, added in shuffled order.
TEST(Digraph, DuplicateEdgeMatchesBruteForceOnRandomMultigraphs) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const std::size_t n = 5 + rng.UniformInt(40);
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (NodeId v = 1; v < n; ++v) {
      edges.emplace_back(static_cast<NodeId>(rng.UniformInt(v)), v);
      if (rng.UniformInt(4) == 0) {
        const auto u = static_cast<NodeId>(rng.UniformInt(n));
        if (u != v) {
          edges.emplace_back(u, v);  // a second parent, maybe a back edge
        }
      }
    }
    const std::size_t repeats = 1 + rng.UniformInt(4);
    for (std::size_t i = 0; i < repeats; ++i) {
      edges.push_back(edges[rng.UniformInt(edges.size())]);
    }
    for (std::size_t i = edges.size(); i > 1; --i) {
      std::swap(edges[i - 1], edges[rng.UniformInt(i)]);
    }
    std::vector<std::pair<NodeId, NodeId>> sorted = edges;
    std::sort(sorted.begin(), sorted.end());
    const auto first_repeat =
        std::adjacent_find(sorted.begin(), sorted.end());
    ASSERT_NE(first_repeat, sorted.end());

    Digraph g;
    g.AddNodes(n);
    for (const auto& [u, v] : edges) {
      g.AddEdge(u, v);
    }
    EXPECT_EQ(g.Finalize(/*add_dummy_root=*/seed % 2 == 0).message(),
              "duplicate edge " + std::to_string(first_repeat->first) +
                  " -> " + std::to_string(first_repeat->second))
        << "seed " << seed;
    EXPECT_FALSE(g.finalized());
  }
}

TEST(Digraph, FinalizeTwiceFails) {
  Digraph g;
  g.AddNode();
  ASSERT_TRUE(g.Finalize().ok());
  EXPECT_FALSE(g.Finalize().ok());
}

}  // namespace
}  // namespace aigs

#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include "data/builtin.h"
#include "graph/dot_export.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace aigs {
namespace {

TEST(GraphIo, RoundTripPreservesStructure) {
  Rng rng(1);
  const Digraph original = RandomDag(30, rng, 0.4);
  const std::string text = SerializeHierarchy(original);
  auto parsed = ParseHierarchy(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Digraph& g = *parsed;
  ASSERT_EQ(g.NumNodes(), original.NumNodes());
  ASSERT_EQ(g.NumEdges(), original.NumEdges());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    const auto a = original.Children(u);
    const auto b = g.Children(u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]);
    }
  }
}

TEST(GraphIo, RoundTripPreservesLabels) {
  const Digraph original = BuildVehicleHierarchy();
  auto parsed = ParseHierarchy(SerializeHierarchy(original));
  ASSERT_TRUE(parsed.ok());
  for (NodeId v = 0; v < original.NumNodes(); ++v) {
    EXPECT_EQ(parsed->Label(v), original.Label(v));
  }
}

TEST(GraphIo, RoundTripPreservesSparseLabels) {
  Digraph original;
  original.AddNodes(5);
  original.SetLabel(1, "one");
  original.SetLabel(3, "three");
  original.SetLabel(4, "four");
  original.SetLabel(4, "");  // cleared again
  for (NodeId v = 1; v < 5; ++v) {
    original.AddEdge(0, v);
  }
  ASSERT_TRUE(original.Finalize().ok());
  auto parsed = ParseHierarchy(SerializeHierarchy(original));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->NumNodes(), original.NumNodes());
  for (NodeId v = 0; v < original.NumNodes(); ++v) {
    EXPECT_EQ(parsed->Label(v), original.Label(v)) << v;
  }
  EXPECT_EQ(parsed->Label(3), "three");
  EXPECT_EQ(parsed->Label(4), "");
  EXPECT_EQ(SerializeHierarchy(*parsed), SerializeHierarchy(original));
}

TEST(GraphIo, ParseRejectsMissingHeader) {
  EXPECT_FALSE(ParseHierarchy("e 0 1\n").ok());
}

TEST(GraphIo, ParseRejectsOutOfRangeEdge) {
  EXPECT_FALSE(ParseHierarchy("n 2\ne 0 5\n").ok());
}

TEST(GraphIo, ParseRejectsSelfLoop) {
  EXPECT_FALSE(ParseHierarchy("n 2\ne 1 1\n").ok());
}

TEST(GraphIo, ParseRejectsUnknownDirective) {
  EXPECT_FALSE(ParseHierarchy("n 1\nx nope\n").ok());
}

TEST(GraphIo, ParseRejectsDuplicateHeader) {
  EXPECT_FALSE(ParseHierarchy("n 2\nn 2\ne 0 1\n").ok());
}

TEST(GraphIo, ParseSkipsCommentsAndBlankLines) {
  auto parsed = ParseHierarchy("# hello\n\nn 2\n# mid\ne 0 1\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->NumNodes(), 2u);
}

TEST(GraphIo, ParseAddsDummyRootForForests) {
  auto parsed = ParseHierarchy("n 4\ne 0 1\ne 2 3\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->NumNodes(), 5u);  // dummy root appended
  EXPECT_EQ(parsed->Label(parsed->root()), "<root>");
}

TEST(GraphIo, SaveAndLoadFile) {
  Rng rng(2);
  const Digraph original = RandomTree(15, rng);
  const std::string path = ::testing::TempDir() + "/aigs_hierarchy.txt";
  ASSERT_TRUE(SaveHierarchy(original, path).ok());
  auto loaded = LoadHierarchy(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumNodes(), original.NumNodes());
  EXPECT_EQ(loaded->NumEdges(), original.NumEdges());
}

TEST(GraphIo, LoadMissingFileFails) {
  EXPECT_FALSE(LoadHierarchy("/nonexistent/path/file.txt").ok());
}

TEST(DotExport, ContainsNodesAndEdges) {
  const Digraph g = BuildVehicleHierarchy();
  const std::string dot = ToDot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("Vehicle"), std::string::npos);
  EXPECT_NE(dot.find("Sentra"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(DotExport, AnnotationsAppended) {
  const Digraph g = BuildVehicleHierarchy();
  DotOptions options;
  options.annotate = [](NodeId v) { return "id=" + std::to_string(v); };
  const std::string dot = ToDot(g, options);
  EXPECT_NE(dot.find("id=0"), std::string::npos);
}

TEST(DotExport, EscapesQuotes) {
  Digraph g;
  g.AddNode("with\"quote");
  ASSERT_TRUE(g.Finalize().ok());
  const std::string dot = ToDot(g);
  EXPECT_NE(dot.find("with\\\"quote"), std::string::npos);
}

}  // namespace
}  // namespace aigs

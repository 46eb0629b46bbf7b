#include "data/dataset_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "graph/graph_io.h"
#include "prob/weight_io.h"
#include "tests/test_support.h"

namespace aigs {
namespace {

TEST(WeightIo, RoundTrip) {
  auto d = Distribution::FromWeights({0, 5, 0, 7, 1});
  ASSERT_TRUE(d.ok());
  auto parsed = ParseDistribution(SerializeDistribution(*d));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->weights(), d->weights());
  EXPECT_EQ(parsed->Total(), d->Total());
}

TEST(WeightIo, ZeroWeightNodesOmittedButRestored) {
  auto d = Distribution::FromWeights({0, 0, 3});
  ASSERT_TRUE(d.ok());
  const std::string text = SerializeDistribution(*d);
  // Only one 'c' directive line for the single positive count.
  std::size_t count_lines = 0;
  for (std::size_t pos = 0; pos < text.size(); ++pos) {
    if (text[pos] == 'c' && (pos == 0 || text[pos - 1] == '\n')) {
      ++count_lines;
    }
  }
  EXPECT_EQ(count_lines, 1u);
  auto parsed = ParseDistribution(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->WeightOf(0), 0u);
  EXPECT_EQ(parsed->WeightOf(2), 3u);
}

TEST(WeightIo, ParseErrors) {
  EXPECT_FALSE(ParseDistribution("c 0 5\n").ok());          // missing n
  EXPECT_FALSE(ParseDistribution("n 2\nc 5 1\n").ok());     // id out of range
  EXPECT_FALSE(ParseDistribution("n 2\nx 0 1\n").ok());     // bad directive
  EXPECT_FALSE(ParseDistribution("n 2\n").ok());            // zero total
  EXPECT_FALSE(ParseDistribution("n 2\nn 2\nc 0 1\n").ok());  // dup n
}

TEST(WeightIo, FileRoundTrip) {
  auto d = Distribution::FromWeights({10, 20, 30});
  ASSERT_TRUE(d.ok());
  const std::string path = ::testing::TempDir() + "/aigs_counts.txt";
  ASSERT_TRUE(SaveDistribution(*d, path).ok());
  auto loaded = LoadDistribution(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->weights(), d->weights());
}

TEST(DatasetIo, SaveAndLoadDataset) {
  const Dataset original = MakeAmazonDataset(0.05);
  const std::string prefix = ::testing::TempDir() + "/aigs_dataset";
  ASSERT_TRUE(SaveDatasetFiles(original, prefix).ok());

  auto loaded = LoadDatasetFiles("Amazon-reloaded", prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name, "Amazon-reloaded");
  EXPECT_EQ(loaded->hierarchy.NumNodes(), original.hierarchy.NumNodes());
  EXPECT_EQ(loaded->hierarchy.NumEdges(), original.hierarchy.NumEdges());
  EXPECT_EQ(loaded->hierarchy.Height(), original.hierarchy.Height());
  EXPECT_EQ(loaded->real_distribution.weights(),
            original.real_distribution.weights());
  EXPECT_EQ(loaded->num_objects, original.num_objects);
}

TEST(DatasetIo, LoadRejectsMismatchedSizes) {
  const Dataset dataset = MakeAmazonDataset(0.05);
  const std::string prefix = ::testing::TempDir() + "/aigs_mismatch";
  ASSERT_TRUE(SaveDatasetFiles(dataset, prefix).ok());
  // Overwrite the counts with a wrong-sized file.
  auto small = Distribution::FromWeights({1, 2, 3});
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(SaveDistribution(*small, prefix + ".counts.txt").ok());
  EXPECT_FALSE(LoadDatasetFiles("broken", prefix).ok());
}

TEST(DatasetIo, LoadMissingFilesFails) {
  EXPECT_FALSE(LoadDatasetFiles("none", "/nonexistent/prefix").ok());
}

// With both files bad, the error reported is the hierarchy's; then the
// counts file's; then the size check.
TEST(DatasetIo, LoadKeepsErrorPrecedence) {
  const std::string prefix = ::testing::TempDir() + "/aigs_precedence";
  const std::string hierarchy_path = prefix + ".hierarchy.txt";
  const std::string counts_path = prefix + ".counts.txt";
  const auto write = [](const std::string& path, const std::string& text) {
    std::ofstream(path) << text;
  };
  const auto load_error = [&] {
    auto loaded = LoadDatasetFiles("bad", prefix);
    EXPECT_FALSE(loaded.ok());
    return loaded.status().ToString();
  };

  // Hierarchy file missing, counts unparsable.
  std::remove(hierarchy_path.c_str());
  write(counts_path, "n 3\nc 0 many\n");
  EXPECT_EQ(load_error(), LoadHierarchy(hierarchy_path).status().ToString());
  EXPECT_NE(load_error(), LoadDistribution(counts_path).status().ToString());

  // Hierarchy with a cycle, counts unparsable.
  write(hierarchy_path, "n 3\ne 0 1\ne 1 2\ne 2 1\n");
  ASSERT_FALSE(LoadHierarchy(hierarchy_path).ok());
  EXPECT_EQ(load_error(), LoadHierarchy(hierarchy_path).status().ToString());

  // Hierarchy fine, counts unparsable.
  write(hierarchy_path, "n 3\ne 0 1\ne 0 2\n");
  EXPECT_EQ(load_error(), LoadDistribution(counts_path).status().ToString());

  // Both parse, sizes differ.
  write(counts_path, "n 4\nc 0 1\n");
  EXPECT_NE(load_error().find("count file covers 4 nodes but the hierarchy "
                              "has 3"),
            std::string::npos);

  write(counts_path, "n 3\nc 0 1\nc 2 5\n");
  auto loaded = LoadDatasetFiles("good", prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_objects, 6u);
}

}  // namespace
}  // namespace aigs

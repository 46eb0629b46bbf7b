#include "data/datasets.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <thread>
#include <tuple>
#include <vector>

#include "data/synthetic_catalog.h"
#include "tests/test_support.h"
#include "util/rng.h"

namespace aigs {
namespace {

TEST(SyntheticCatalog, AmazonScaleStatisticsMatchTableII) {
  // Full-scale generation is cheap (tree building only).
  const Digraph g = GenerateCatalogTree(AmazonParams());
  EXPECT_EQ(g.NumNodes(), 29240u);
  EXPECT_EQ(g.Height(), 10);
  EXPECT_EQ(g.MaxOutDegree(), 225u);
  EXPECT_TRUE(g.IsTree());
}

TEST(SyntheticCatalog, ImageNetScaleStatisticsMatchTableII) {
  const Digraph g = GenerateCatalogDag(ImageNetParams());
  EXPECT_EQ(g.NumNodes(), 27714u);
  EXPECT_EQ(g.Height(), 13);
  EXPECT_EQ(g.MaxOutDegree(), 402u);
  EXPECT_FALSE(g.IsTree());
}

TEST(SyntheticCatalog, GenerationIsDeterministic) {
  CatalogParams params;
  params.num_nodes = 2000;
  params.height = 8;
  params.max_out_degree = 40;
  params.seed = 99;
  const Digraph a = GenerateCatalogTree(params);
  const Digraph b = GenerateCatalogTree(params);
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    const auto ca = a.Children(v);
    const auto cb = b.Children(v);
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
      ASSERT_EQ(ca[i], cb[i]);
    }
  }
}

TEST(SyntheticCatalog, DifferentSeedsDiffer) {
  CatalogParams a;
  a.num_nodes = 1500;
  a.height = 7;
  a.max_out_degree = 30;
  a.seed = 1;
  CatalogParams b = a;
  b.seed = 2;
  const Digraph ga = GenerateCatalogTree(a);
  const Digraph gb = GenerateCatalogTree(b);
  bool any_difference = false;
  for (NodeId v = 0; v < ga.NumNodes() && !any_difference; ++v) {
    any_difference = ga.OutDegree(v) != gb.OutDegree(v);
  }
  EXPECT_TRUE(any_difference);
}

TEST(SyntheticCatalog, DagKeepsExactHeightWithExtraEdges) {
  CatalogParams params;
  params.num_nodes = 3000;
  params.height = 9;
  params.max_out_degree = 50;
  params.extra_parent_frac = 0.08;
  params.seed = 5;
  const Digraph g = GenerateCatalogDag(params);
  EXPECT_EQ(g.Height(), 9);
  EXPECT_EQ(g.NumEdges(),
            params.num_nodes - 1 +
                static_cast<std::size_t>(0.08 * 3000));
  EXPECT_FALSE(g.IsTree());
}

TEST(ZipfObjectCounts, TotalIsExact) {
  const Distribution d = AssignZipfObjectCounts(1000, 123456789, 1.0, 42);
  EXPECT_EQ(d.Total(), 123456789u);
  EXPECT_EQ(d.size(), 1000u);
}

TEST(ZipfObjectCounts, HeavilySkewed) {
  const Distribution d = AssignZipfObjectCounts(5000, 10'000'000, 1.0, 7);
  // Top category under Zipf(1) over 5000 ranks holds about 1/H(5000) ≈ 11%
  // of all objects.
  EXPECT_GT(d.MaxWeight(), d.Total() / 20);
  EXPECT_LT(d.EntropyBits(), EqualDistribution(5000).EntropyBits());
}

TEST(ZipfObjectCounts, DeterministicPerSeed) {
  const Distribution a = AssignZipfObjectCounts(500, 99999, 1.0, 3);
  const Distribution b = AssignZipfObjectCounts(500, 99999, 1.0, 3);
  EXPECT_EQ(a.weights(), b.weights());
}

// Reference largest-remainder Zipf assignment with a full sort of all
// remainders (remainder descending, id ascending).
std::vector<Weight> ZipfCountsByFullSort(std::size_t n, std::uint64_t total,
                                         double s, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);
  std::vector<double> mass(n);
  double mass_total = 0;
  for (std::size_t r = 0; r < n; ++r) {
    mass[order[r]] = std::pow(static_cast<double>(r + 1), -s);
    mass_total += mass[order[r]];
  }
  std::vector<Weight> counts(n);
  std::vector<std::pair<double, NodeId>> remainders(n);
  std::uint64_t assigned = 0;
  for (NodeId v = 0; v < n; ++v) {
    const double exact = mass[v] / mass_total * static_cast<double>(total);
    counts[v] = static_cast<Weight>(exact);
    assigned += counts[v];
    remainders[v] = {exact - static_cast<double>(counts[v]), v};
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  for (std::uint64_t i = 0; i < total - assigned; ++i) {
    ++counts[remainders[i].second];
  }
  return counts;
}

TEST(ZipfObjectCounts, MatchesFullSortReference) {
  const std::tuple<std::size_t, std::uint64_t, double, std::uint64_t>
      cases[] = {
          {1000, 123456789, 1.0, 42},
          {5000, 10'000'000, 1.0, 7},
          {29240, 13'886'889, 1.0, 2039},  // Amazon at scale 1.0
          {777, 777, 2.0, 11},             // leftover ~ n
          {300, 1000, 0.5, 5},
          {1000, 12345, 0.0, 3},  // s = 0: every remainder ties
          {1000, 5000, 0.0, 1},   // s = 0, exact quotient: leftover == 0
          {1, 17, 1.0, 9},        // single category: leftover == 0
      };
  for (const auto& [n, total, s, seed] : cases) {
    const Distribution d = AssignZipfObjectCounts(n, total, s, seed);
    EXPECT_EQ(d.weights(), ZipfCountsByFullSort(n, total, s, seed))
        << "n=" << n << " total=" << total << " s=" << s << " seed=" << seed;
    EXPECT_EQ(d.Total(), total);
  }
}

TEST(ZipfObjectCounts, TiedRemaindersGoToSmallestIds) {
  // s = 0 gives every category 12.345 objects: the 345 leftover objects go
  // to ids 0..344 under the id-ascending tie break.
  const Distribution d = AssignZipfObjectCounts(1000, 12345, 0.0, 3);
  for (NodeId v = 0; v < 1000; ++v) {
    EXPECT_EQ(d.WeightOf(v), v < 345 ? 13u : 12u) << v;
  }
}

TEST(Datasets, ScaledDatasetsPreserveShape) {
  const Dataset amazon = MakeAmazonDataset(0.05);
  EXPECT_TRUE(amazon.hierarchy.is_tree());
  EXPECT_EQ(amazon.hierarchy.Height(), 10);
  EXPECT_EQ(amazon.real_distribution.Total(), amazon.num_objects);

  const Dataset imagenet = MakeImageNetDataset(0.05);
  EXPECT_FALSE(imagenet.hierarchy.is_tree());
  EXPECT_EQ(imagenet.hierarchy.Height(), 13);
  EXPECT_EQ(imagenet.real_distribution.Total(), imagenet.num_objects);
}

// FNV-1a over the CSR edge list (children in insertion order), the root
// and the per-category object counts: any change to what the generators
// emit — an edge, its order, a count — changes the digest.
std::uint64_t CatalogDigest(const Dataset& d) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (value >> (8 * byte)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  const Digraph& g = d.hierarchy.graph();
  mix(g.NumNodes());
  mix(g.NumEdges());
  mix(g.root());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (const NodeId c : g.Children(u)) {
      mix((static_cast<std::uint64_t>(u) << 32) | c);
    }
  }
  for (const Weight w : d.real_distribution.weights()) {
    mix(w);
  }
  return h;
}

// Golden digests of the shipped datasets: the catalogs every bench,
// baseline and transcript is pinned to. A generator or graph-construction
// change that alters any edge, edge order or object count fails here.
struct GoldenDataset {
  Dataset (*make)(double, const ReachabilityOptions&);
  double scale;
  std::uint64_t digest;
};
constexpr GoldenDataset kGoldenDatasets[] = {
    {&MakeAmazonDataset, 1.0, 0x0196177E90B32B70ULL},
    {&MakeAmazonDataset, 0.05, 0xAB9A5663B6414A1FULL},
    {&MakeImageNetDataset, 1.0, 0x71FA9860E67C4372ULL},
    {&MakeImageNetDataset, 0.05, 0x8373C771E8F0CA6CULL},
};

void ExpectGoldenDigests() {
  for (const GoldenDataset& golden : kGoldenDatasets) {
    EXPECT_EQ(CatalogDigest(golden.make(golden.scale, {})), golden.digest)
        << "scale " << golden.scale;
  }
}

TEST(Datasets, GoldenDigestsArePinned) { ExpectGoldenDigests(); }

// The object counts are computed beside the hierarchy on a second CPU;
// with one CPU allowed they run inline. Both must give the same catalogs.
TEST(Datasets, GoldenDigestsHoldUnderAOneCpuMask) {
  testing::ScopedOneCpuMask one_cpu;
  if (!one_cpu.pinned()) {
    GTEST_SKIP() << "cannot set a one-CPU affinity mask here";
  }
  ExpectGoldenDigests();
}

TEST(Datasets, GoldenDigestsHoldWhenBuiltConcurrently) {
  constexpr int kThreads = 4;
  std::vector<std::uint64_t> digests(kThreads * std::size(kGoldenDatasets));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&digests, t] {
      // Each thread walks the table from a different start.
      for (std::size_t k = 0; k < std::size(kGoldenDatasets); ++k) {
        const std::size_t d = (k + t) % std::size(kGoldenDatasets);
        const GoldenDataset& golden = kGoldenDatasets[d];
        digests[t * std::size(kGoldenDatasets) + d] =
            CatalogDigest(golden.make(golden.scale, {}));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  constexpr std::size_t kPerThread = std::size(kGoldenDatasets);
  for (std::size_t i = 0; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i], kGoldenDatasets[i % kPerThread].digest)
        << "thread " << i / kPerThread;
  }
}

TEST(Datasets, DescribeMentionsKeyStatistics) {
  const Dataset d = MakeAmazonDataset(0.05);
  const std::string description = DescribeDataset(d);
  EXPECT_NE(description.find("Amazon"), std::string::npos);
  EXPECT_NE(description.find("height=10"), std::string::npos);
  EXPECT_NE(description.find("type=Tree"), std::string::npos);
}

}  // namespace
}  // namespace aigs

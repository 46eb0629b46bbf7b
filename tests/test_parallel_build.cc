// Reachability-index builds must not depend on how they are run. Dense
// closure rows are bit-identical to a serial build for any worker count and
// on a caller-owned pool; the parallel path only engages above a node
// floor, so these tests run at graph sizes straddling it. Compressed
// encodings are pinned byte for byte by golden digests, and build options
// must leave them unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "data/datasets.h"
#include "data/synthetic_catalog.h"
#include "graph/compressed_closure.h"
#include "graph/digraph.h"
#include "graph/generators.h"
#include "graph/reachability.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace aigs {
namespace {

// Above the dense build's parallel floor (2048 nodes).
constexpr std::size_t kDagNodes = 10'000;

// Golden digests of compressed encodings (permutation, row table, chunk refs
// and both payload pools), recorded from the dense-scratch-row encoder that
// preceded the interval-merge build. Any change to the encoded bytes of
// these catalogs fails here. Together they cover every chunk kind, interval
// and chunked rows, and both build paths (asserted below).
TEST(CompressedBuild, GoldenEncodingDigestsArePinned) {
  CompressedClosure::Stats total;
  const auto check = [&total](const CompressedClosure& cc,
                              std::uint64_t digest, const char* name) {
    EXPECT_EQ(cc.EncodingDigest(), digest) << name;
    const CompressedClosure::Stats s = cc.stats();
    total.interval_rows += s.interval_rows;
    total.chunked_rows += s.chunked_rows;
    total.dense_chunks += s.dense_chunks;
    total.delta_chunks += s.delta_chunks;
    total.run_chunks += s.run_chunks;
    total.merged_rows += s.merged_rows;
    total.scratch_rows += s.scratch_rows;
  };
  check(MakeImageNetDataset(1.0).hierarchy.reach().compressed(),
        0x306E6BB6B103E000ULL, "imagenet 1.0");
  check(MakeImageNetDataset(0.05).hierarchy.reach().compressed(),
        0xCE73AC1E1B6A2E8FULL, "imagenet 0.05");
  check(CompressedClosure(GenerateCatalogDag(BigCatalogParams(100'000))),
        0x577A912ED164CEB7ULL, "bigcatalog 100k");
  const struct {
    double frac;
    std::uint64_t digest;
  } random_dags[] = {{0.25, 0x2CAC1B039F8C046BULL},
                     {3.0, 0x3C7AD0776CE1F4C5ULL},
                     {10.0, 0x4DE30ED26E246410ULL}};
  for (const auto& [frac, digest] : random_dags) {
    Rng rng(3101);
    check(CompressedClosure(RandomDag(kDagNodes, rng, frac)), digest,
          "random dag");
  }

  EXPECT_GT(total.interval_rows, 0u);
  EXPECT_GT(total.chunked_rows, 0u);
  EXPECT_GT(total.dense_chunks, 0u);
  EXPECT_GT(total.delta_chunks, 0u);
  EXPECT_GT(total.run_chunks, 0u);
  EXPECT_GT(total.merged_rows, 0u);
  EXPECT_GT(total.scratch_rows, 0u);
}

TEST(ParallelBuild, DenseClosureBitIdenticalAcrossThreadCounts) {
  Rng rng(3104);
  const Digraph dag = RandomDag(4'000, rng, 0.3);

  ReachabilityOptions serial;
  serial.closure = ReachabilityOptions::Closure::kDense;
  serial.build_threads = 1;
  const ReachabilityIndex reference(dag, serial);
  ASSERT_EQ(reference.storage(), ReachabilityIndex::Storage::kDenseClosure);

  for (const int threads : {2, 8}) {
    ReachabilityOptions options;
    options.closure = ReachabilityOptions::Closure::kDense;
    options.build_threads = threads;
    const ReachabilityIndex parallel(dag, options);
    for (NodeId u = 0; u < dag.NumNodes(); ++u) {
      ASSERT_TRUE(reference.ClosureRow(u) == parallel.ClosureRow(u))
          << "threads=" << threads << " row " << u;
      ASSERT_EQ(reference.ReachableCount(u), parallel.ReachableCount(u));
    }
  }
}

TEST(ParallelBuild, DenseClosureOnCallerOwnedPoolAndForcedTree) {
  Rng rng(3105);
  const Digraph tree = RandomTree(4'000, rng);

  ReachabilityOptions serial;
  serial.closure = ReachabilityOptions::Closure::kDense;
  serial.force_closure_on_trees = true;
  serial.build_threads = 1;
  const ReachabilityIndex reference(tree, serial);

  ThreadPool pool(4);
  ReachabilityOptions options;
  options.closure = ReachabilityOptions::Closure::kDense;
  options.force_closure_on_trees = true;
  options.build_pool = &pool;
  const ReachabilityIndex parallel(tree, options);
  for (NodeId u = 0; u < tree.NumNodes(); ++u) {
    ASSERT_TRUE(reference.ClosureRow(u) == parallel.ClosureRow(u));
  }
}

TEST(ParallelBuild, ReachabilityIndexRoutesBuildOptionsToCompressed) {
  Rng rng(3106);
  const Digraph dag = RandomDag(kDagNodes, rng, 0.2);

  ReachabilityOptions serial;
  serial.closure = ReachabilityOptions::Closure::kCompressed;
  serial.build_threads = 1;
  const ReachabilityIndex reference(dag, serial);
  ASSERT_EQ(reference.storage(),
            ReachabilityIndex::Storage::kCompressedClosure);

  ReachabilityOptions options;
  options.closure = ReachabilityOptions::Closure::kCompressed;
  options.build_threads = 8;
  const ReachabilityIndex parallel(dag, options);
  EXPECT_TRUE(reference.compressed().IdenticalEncoding(parallel.compressed()));

  // Spot-check semantics on top of the byte identity.
  Rng probe(3107);
  for (int i = 0; i < 2'000; ++i) {
    const NodeId u = static_cast<NodeId>(probe.UniformInt(dag.NumNodes()));
    const NodeId v = static_cast<NodeId>(probe.UniformInt(dag.NumNodes()));
    ASSERT_EQ(reference.Reaches(u, v), parallel.Reaches(u, v));
  }
}

}  // namespace
}  // namespace aigs

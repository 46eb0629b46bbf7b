// CompressedClosure codec and set-operation tests: per-chunk-kind round
// trips through the dense-row test seam, randomized fuzz against dense
// reference bitsets, and graph-built rows checked against brute-force BFS.
#include "graph/compressed_closure.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.h"
#include "graph/reachability.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace aigs {
namespace {

/// Expands a compressed row back to a dense bitset via ForEachPosInRow.
DynamicBitset Decode(const CompressedClosure& cc, NodeId u) {
  DynamicBitset out(cc.num_nodes());
  std::size_t prev = 0;
  bool first = true;
  cc.ForEachPosInRow(u, [&](std::size_t p) {
    if (!first) {
      EXPECT_GT(p, prev) << "ForEachPosInRow not strictly ascending";
    }
    first = false;
    prev = p;
    out.Set(p);
  });
  return out;
}

void ExpectRowsEqual(const CompressedClosure& cc,
                     const std::vector<DynamicBitset>& rows) {
  const std::size_t n = rows.size();
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(cc.RowCount(u), rows[u].Count()) << "row " << u;
    const DynamicBitset decoded = Decode(cc, u);
    for (std::size_t p = 0; p < n; ++p) {
      ASSERT_EQ(decoded.Test(p), rows[u].Test(p))
          << "row " << u << " pos " << p;
      ASSERT_EQ(cc.TestPos(u, p), rows[u].Test(p))
          << "row " << u << " pos " << p;
    }
  }
}

TEST(CompressedClosureCodec, IntervalRowRoundTrip) {
  const std::size_t n = 10'000;
  std::vector<DynamicBitset> rows;
  // Contiguous ranges of every flavor: empty, single bit, word-aligned,
  // straddling chunk boundaries, and the full universe.
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 0}, {17, 18}, {64, 128}, {4090, 4200}, {0, n}, {8191, 8193}};
  for (const auto& [lo, hi] : ranges) {
    DynamicBitset row(n);
    for (std::size_t p = lo; p < hi; ++p) {
      row.Set(p);
    }
    rows.push_back(std::move(row));
  }
  const CompressedClosure cc(rows);
  ExpectRowsEqual(cc, rows);
  // Every contiguous (and the empty) row must land in the 12-byte interval
  // representation — no chunk payload at all.
  EXPECT_EQ(cc.stats().interval_rows + cc.stats().chunked_rows, rows.size());
  EXPECT_EQ(cc.stats().dense_chunks + cc.stats().delta_chunks +
                cc.stats().run_chunks,
            0u);
}

TEST(CompressedClosureCodec, DeltaChunkRoundTrip) {
  const std::size_t n = 9'000;
  // Sparse scattered bits: the per-chunk cost rule must pick the sorted-u16
  // delta encoding.
  Rng rng(71);
  std::vector<DynamicBitset> rows;
  for (int r = 0; r < 4; ++r) {
    DynamicBitset row(n);
    for (int i = 0; i < 40; ++i) {
      row.Set(rng.UniformInt(n));
    }
    rows.push_back(std::move(row));
  }
  const CompressedClosure cc(rows);
  ExpectRowsEqual(cc, rows);
  EXPECT_GT(cc.stats().delta_chunks, 0u);
  EXPECT_EQ(cc.stats().dense_chunks, 0u);
}

TEST(CompressedClosureCodec, RunChunkRoundTrip) {
  const std::size_t n = 9'000;
  // A few long runs per chunk: run-length (start,len) pairs win the cost
  // rule. Runs deliberately cross word boundaries.
  std::vector<DynamicBitset> rows;
  DynamicBitset row(n);
  const std::pair<std::size_t, std::size_t> run_ranges[] = {
      {10, 700}, {1000, 1900}, {4000, 4090}, {5000, 8999}};
  for (const auto& [lo, hi] : run_ranges) {
    for (std::size_t p = lo; p < hi; ++p) {
      row.Set(p);
    }
  }
  rows.push_back(std::move(row));
  const CompressedClosure cc(rows);
  ExpectRowsEqual(cc, rows);
  EXPECT_GT(cc.stats().run_chunks, 0u);
  EXPECT_EQ(cc.stats().dense_chunks, 0u);
}

TEST(CompressedClosureCodec, DenseChunkRoundTrip) {
  const std::size_t n = 8'192;
  // ~50% random density with no long runs: raw words are the cheapest.
  Rng rng(72);
  std::vector<DynamicBitset> rows;
  DynamicBitset row(n);
  for (std::size_t p = 0; p < n; ++p) {
    if (rng.UniformInt(2) == 0) {
      row.Set(p);
    }
  }
  rows.push_back(std::move(row));
  const CompressedClosure cc(rows);
  ExpectRowsEqual(cc, rows);
  EXPECT_GT(cc.stats().dense_chunks, 0u);
}

TEST(CompressedClosureCodec, FuzzMixedDensityRows) {
  // Randomized rows spanning every density regime, so single rows mix
  // dense, delta, and run chunks; every set operation is cross-checked
  // against the dense reference.
  Rng rng(99);
  for (int round = 0; round < 6; ++round) {
    const std::size_t n = 3'000 + rng.UniformInt(9'000);
    std::vector<DynamicBitset> rows;
    for (int r = 0; r < 8; ++r) {
      DynamicBitset row(n);
      // Scattered singles.
      const std::size_t singles = rng.UniformInt(200);
      for (std::size_t i = 0; i < singles; ++i) {
        row.Set(rng.UniformInt(n));
      }
      // A few runs.
      const std::size_t runs = rng.UniformInt(6);
      for (std::size_t i = 0; i < runs; ++i) {
        const std::size_t lo = rng.UniformInt(n);
        const std::size_t len = 1 + rng.UniformInt(n / 4);
        for (std::size_t p = lo; p < std::min(n, lo + len); ++p) {
          row.Set(p);
        }
      }
      rows.push_back(std::move(row));
    }
    const CompressedClosure cc(rows);
    ExpectRowsEqual(cc, rows);

    // Weights + a random alive mask for the fused kernels.
    std::vector<Weight> weights(n);
    for (std::size_t p = 0; p < n; ++p) {
      weights[p] = 1 + rng.UniformInt(100);
    }
    const BlockedWeights blocked(weights);
    std::vector<Weight> prefix(n + 1, 0);
    for (std::size_t p = 0; p < n; ++p) {
      prefix[p + 1] = prefix[p] + weights[p];
    }
    DynamicBitset alive(n);
    for (std::size_t p = 0; p < n; ++p) {
      if (rng.UniformInt(3) != 0) {
        alive.Set(p);
      }
    }

    for (NodeId u = 0; u < rows.size(); ++u) {
      std::size_t want_count = 0;
      Weight want_weight = 0;
      Weight want_row_weight = 0;
      for (std::size_t p = 0; p < n; ++p) {
        if (rows[u].Test(p)) {
          want_row_weight += weights[p];
          if (alive.Test(p)) {
            ++want_count;
            want_weight += weights[p];
          }
        }
      }
      const auto cw = cc.IntersectCountAndWeight(u, alive, blocked);
      EXPECT_EQ(cw.count, want_count) << "row " << u;
      EXPECT_EQ(cw.weight, want_weight) << "row " << u;
      EXPECT_EQ(cc.IntersectCount(u, alive), want_count) << "row " << u;
      EXPECT_EQ(cc.RowWeightFromPrefix(u, prefix), want_row_weight)
          << "row " << u;

      DynamicBitset kept = alive;
      cc.IntersectInto(u, kept);
      DynamicBitset removed = alive;
      cc.SubtractFrom(u, removed);
      DynamicBitset expanded(n);
      cc.ExpandRowInto(u, expanded);
      for (std::size_t p = 0; p < n; ++p) {
        ASSERT_EQ(kept.Test(p), alive.Test(p) && rows[u].Test(p))
            << "IntersectInto row " << u << " pos " << p;
        ASSERT_EQ(removed.Test(p), alive.Test(p) && !rows[u].Test(p))
            << "SubtractFrom row " << u << " pos " << p;
        ASSERT_EQ(expanded.Test(p), rows[u].Test(p))
            << "ExpandRowInto row " << u << " pos " << p;
      }
    }
  }
}

TEST(CompressedClosureGraph, TreeRowsAreAllIntervals) {
  Rng rng(5);
  const Digraph g = RandomTree(300, rng);
  const CompressedClosure cc(g);
  // A pure tree: every node's reachable set is exactly its DFS subtree,
  // so every row must take the zero-payload interval fast path.
  EXPECT_EQ(cc.stats().interval_rows, g.NumNodes());
  EXPECT_EQ(cc.stats().chunked_rows, 0u);
}

TEST(CompressedClosureGraph, MatchesBruteForceOnDags) {
  Rng rng(6);
  for (int round = 0; round < 4; ++round) {
    const Digraph g = RandomDag(120, rng, 0.2 + 0.2 * round);
    const CompressedClosure cc(g);

    // pos/node_at_pos must be a permutation and inverses of each other.
    std::vector<bool> seen(g.NumNodes(), false);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      const std::size_t p = cc.pos(v);
      ASSERT_LT(p, g.NumNodes());
      ASSERT_FALSE(seen[p]);
      seen[p] = true;
      ASSERT_EQ(cc.node_at_pos(p), v);
    }

    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      const std::vector<NodeId> reachable = CollectReachable(g, u);
      EXPECT_EQ(cc.RowCount(u), reachable.size()) << "round " << round;
      DynamicBitset brute(g.NumNodes());
      for (const NodeId v : reachable) {
        brute.Set(cc.pos(v));
      }
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        ASSERT_EQ(cc.Reaches(u, v), brute.Test(cc.pos(v)))
            << "round " << round << " " << u << " -> " << v;
      }
    }

    // The root reaches every node: its row must re-detect as the full
    // [0, n) interval even though the root is not tree-pure.
    EXPECT_EQ(cc.RowCount(g.root()), g.NumNodes());
    EXPECT_GT(cc.stats().interval_rows, 0u);
  }
}

// Rows spanning several 4096-bit chunks, built on both paths: merged from
// child interval lists where those are short, ORed into the dense scratch
// row where a child has no list or the lists outgrow the row's word span.
TEST(CompressedClosureGraph, BothBuildPathsMatchBruteForce) {
  Rng rng(8);
  const Digraph g = RandomDag(9'000, rng, 3.0);
  const CompressedClosure cc(g);
  ASSERT_GT(cc.stats().merged_rows, 0u);
  ASSERT_GT(cc.stats().scratch_rows, 0u);

  Rng probe(9);
  for (int i = 0; i < 200; ++i) {
    const NodeId u = static_cast<NodeId>(probe.UniformInt(g.NumNodes()));
    const std::vector<NodeId> reachable = CollectReachable(g, u);
    ASSERT_EQ(cc.RowCount(u), reachable.size()) << "row " << u;
    DynamicBitset brute(g.NumNodes());
    for (const NodeId v : reachable) {
      brute.Set(cc.pos(v));
    }
    ASSERT_TRUE(Decode(cc, u) == brute) << "row " << u;
  }
}

TEST(CompressedClosureGraph, MemoryStaysFarBelowDense) {
  Rng rng(7);
  const Digraph g = RandomDag(2'000, rng, 0.05);
  const CompressedClosure cc(g);
  const std::size_t dense_bytes =
      static_cast<std::size_t>(ReachabilityIndex::DenseClosureBytes(
          g.NumNodes()));
  EXPECT_LT(cc.MemoryBytes(), dense_bytes);
  EXPECT_GT(cc.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace aigs

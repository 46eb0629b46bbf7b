// Consistency of the incremental weight indexes (session overlays) against
// from-scratch recomputation — the key engineering invariant behind the
// efficient policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/hierarchy.h"
#include "core/middle_point.h"
#include "core/split_weight_index.h"
#include "graph/generators.h"
#include "tests/test_support.h"
#include "util/rng.h"

namespace aigs {
namespace {

using testing::MustBuild;

std::vector<Weight> RandomWeights(std::size_t n, Rng& rng,
                                  Weight max_value = 1000) {
  std::vector<Weight> w(n);
  for (auto& x : w) {
    x = rng.UniformInt(max_value + 1);
  }
  return w;
}

// ---- Differential: Euler and closure modes agree on trees ----------------

TEST(SessionDifferential, TreeAndDagStatesAgreeOnTrees) {
  // For identical operation sequences on one tree, SplitWeightIndex's Euler
  // mode (the removed-subtree overlay, the tree's default index) and its
  // compressed-closure mode (the DAG layout, forced onto the same tree)
  // must both equal brute-force recomputation over the alive set.
  ReachabilityOptions compressed;
  compressed.closure = ReachabilityOptions::Closure::kCompressed;
  compressed.force_closure_on_trees = true;
  Rng rng(21);
  for (int round = 0; round < 15; ++round) {
    const Digraph g = RandomTree(2 + rng.UniformInt(40), rng);
    const std::size_t n = g.NumNodes();
    const auto weights = RandomWeights(n, rng);
    const Hierarchy euler_h = MustBuild(Digraph(g));
    auto built = Hierarchy::Build(Digraph(g), compressed);
    ASSERT_TRUE(built.ok());
    const Hierarchy& closure_h = *built;
    ASSERT_TRUE(euler_h.reach().euler_mode());
    ASSERT_FALSE(closure_h.reach().euler_mode());
    const SplitWeightBase euler_base(euler_h, weights);
    const SplitWeightBase closure_base(closure_h, weights);
    SplitWeightIndex euler(euler_base);
    SplitWeightIndex closure(closure_base);

    std::set<NodeId> alive;
    for (NodeId v = 0; v < n; ++v) {
      alive.insert(v);
    }
    Rng steps(rng.Next());
    while (alive.size() > 1) {
      // Pick any alive non-root node; both states see the same candidates.
      std::vector<NodeId> options;
      for (const NodeId v : alive) {
        if (v != euler.root()) {
          options.push_back(v);
        }
      }
      const NodeId q = options[static_cast<std::size_t>(
          steps.UniformInt(options.size()))];
      const bool yes = steps.Bernoulli(0.5);
      // q is alive and not the root: the planned-question applier's case.
      for (SplitWeightIndex* index : {&euler, &closure}) {
        index->ApplyPlanned(q, yes);
      }
      for (auto it = alive.begin(); it != alive.end();) {
        it = euler_h.reach().Reaches(q, *it) == yes ? std::next(it)
                                                    : alive.erase(it);
      }
      ASSERT_EQ(euler.root(), closure.root());
      for (const SplitWeightIndex* index : {&euler, &closure}) {
        SCOPED_TRACE(index == &euler ? "euler" : "compressed");
        ASSERT_EQ(index->AliveCount(), alive.size());
        for (const NodeId v : alive) {
          Weight expected_w = 0;
          std::size_t expected_c = 0;
          for (const NodeId x : alive) {
            if (euler_h.reach().Reaches(v, x)) {
              expected_w += weights[x];
              ++expected_c;
            }
          }
          if (v == index->root()) {
            ASSERT_EQ(index->TotalAlive(), expected_w);
          }
          ASSERT_EQ(index->AliveReachWeight(v), expected_w) << "node " << v;
          ASSERT_EQ(index->AliveReachCount(v), expected_c) << "node " << v;
          ASSERT_EQ(index->ReachWeight(v), expected_w) << "node " << v;
          ASSERT_EQ(index->ReachCount(v), expected_c) << "node " << v;
        }
      }
      if (steps.UniformInt(4) == 0) {
        break;  // vary sequence lengths
      }
    }
  }
}

// ---- Naive middle point -------------------------------------------------------

TEST(MiddlePoint, NaiveScanFindsDefinitionalArgmin) {
  Rng rng(7);
  const Hierarchy h = MustBuild(RandomDag(30, rng, 0.4));
  const auto weights = RandomWeights(30, rng, 100);
  CandidateSet candidates(h.graph());
  Weight total = 0;
  for (const Weight w : weights) {
    total += w;
  }
  BfsScratch scratch(h.NumNodes());
  const MiddlePoint mp = FindMiddlePointNaive(h.graph(), candidates, h.root(),
                                              weights, total, scratch);
  ASSERT_NE(mp.node, kInvalidNode);
  // No other non-root candidate does strictly better.
  for (NodeId v = 0; v < h.NumNodes(); ++v) {
    if (v == h.root()) {
      continue;
    }
    const Weight reach = h.reach().WeightOfReachableSet(v, weights);
    const Weight twice = 2 * reach;
    const Weight diff = twice > total ? twice - total : total - twice;
    EXPECT_GE(diff, mp.split_diff);
  }
}

TEST(MiddlePoint, GetReachableSetWeightHonorsCandidates) {
  // Chain 0 -> 1 -> 2; removing node 2 shrinks node 1's reach weight.
  const Hierarchy h = MustBuild(PathGraph(3));
  const std::vector<Weight> weights{1, 2, 4};
  CandidateSet candidates(h.graph());
  BfsScratch scratch(3);
  EXPECT_EQ(
      GetReachableSetWeight(h.graph(), candidates, 1, weights, scratch), 6u);
  candidates.RemoveReachable(2);
  EXPECT_EQ(
      GetReachableSetWeight(h.graph(), candidates, 1, weights, scratch), 2u);
}

}  // namespace
}  // namespace aigs

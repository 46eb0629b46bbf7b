// Exact policy behavior on canonical structures — closed-form costs that
// pin down the algorithms' mechanics (binary search on chains, linear scans
// on stars, dispatch facades).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "baselines/migs.h"
#include "baselines/top_down.h"
#include "baselines/wigs.h"
#include "core/aigs.h"
#include "eval/evaluator.h"
#include "graph/generators.h"
#include "tests/test_support.h"
#include "util/rng.h"

namespace aigs {
namespace {

using testing::MustBuild;
using testing::RunAllTargets;
using testing::WeightedAverage;

TEST(WigsOnChain, BinarySearchCostsExactlyLogN) {
  // A path is a fully ordered set: WIGS's heavy path is the whole chain and
  // every target costs exactly ⌈log2 n⌉ questions.
  for (const std::size_t n : {2u, 4u, 8u, 16u, 32u}) {
    const Hierarchy h = MustBuild(PathGraph(n));
    WigsTreePolicy wigs(h);
    const auto costs = RunAllTargets(wigs, h);
    const auto expected = static_cast<std::uint64_t>(
        std::ceil(std::log2(static_cast<double>(n))));
    for (NodeId t = 0; t < n; ++t) {
      EXPECT_EQ(costs[t], expected) << "n=" << n << " target=" << t;
    }
  }
}

TEST(GreedyOnChain, HalvingMatchesBinarySearchDepth) {
  for (const std::size_t n : {8u, 16u, 64u}) {
    const Hierarchy h = MustBuild(PathGraph(n));
    const Distribution equal = EqualDistribution(n);
    GreedyTreePolicy greedy(h, equal);
    const EvalStats stats = EvaluateExact(greedy, h, equal);
    const auto log_n = std::log2(static_cast<double>(n));
    EXPECT_LE(stats.max_cost, static_cast<std::uint64_t>(
                                  std::ceil(log_n)) +
                                  1);
    EXPECT_GE(stats.expected_cost, log_n - 1);  // entropy lower bound
  }
}

TEST(TopDownOnChain, PaysDepthPlusOne) {
  const std::size_t n = 10;
  const Hierarchy h = MustBuild(PathGraph(n));
  TopDownPolicy top_down(h);
  const auto costs = RunAllTargets(top_down, h);
  for (NodeId t = 0; t < n; ++t) {
    // t yes-answers to walk down, plus one no (absent for the deepest node,
    // which has no children).
    const std::uint64_t expected = t == n - 1 ? t : t + 1;
    EXPECT_EQ(costs[t], expected) << t;
  }
}

TEST(GreedyOnStar, LinearScanIsForcedByStructure) {
  // Root with n-1 unit-weight leaves: every question isolates one leaf, so
  // the k-th-probed leaf costs k questions and the root costs n-1.
  const std::size_t n = 5;
  const Hierarchy h = MustBuild(StarGraph(n));
  const Distribution equal = EqualDistribution(n);
  GreedyNaivePolicy greedy(h, equal);
  const auto costs = RunAllTargets(greedy, h);
  EXPECT_EQ(costs[0], n - 1);  // root: all leaves answered no
  std::vector<std::uint64_t> leaf_costs(costs.begin() + 1, costs.end());
  std::sort(leaf_costs.begin(), leaf_costs.end());
  for (std::size_t k = 0; k < leaf_costs.size(); ++k) {
    EXPECT_EQ(leaf_costs[k], k + 1);
  }
  EXPECT_DOUBLE_EQ(WeightedAverage(costs, equal), 14.0 / 5.0);
}

TEST(GreedyOnStar, SkewProbesPopularLeavesFirst) {
  const Hierarchy h = MustBuild(StarGraph(4));
  const Distribution dist = testing::MustDist({1, 1, 1, 97});
  GreedyNaivePolicy greedy(h, dist);
  const auto costs = RunAllTargets(greedy, h);
  EXPECT_EQ(costs[3], 1u);  // the 97% leaf is probed first
}

TEST(MigsOnStar, BatchesOfFourCoverChildren) {
  const std::size_t n = 10;  // root + 9 leaves
  const Hierarchy h = MustBuild(StarGraph(n));
  MigsPolicy migs(h);  // default: 4 choices per question
  ExactOracle oracle(h.reach(), 0);  // target = root → all "none of these"
  auto session = migs.NewSession();
  const SearchResult r = RunSearch(*session, oracle);
  EXPECT_EQ(r.target, 0u);
  EXPECT_EQ(r.choice_queries, 3u);      // 4 + 4 + 1 choices
  EXPECT_EQ(r.choices_read, 9u);
}

TEST(WigsDagOnDiamonds, HandlesMultiParentCandidates) {
  const Hierarchy h = MustBuild(DiamondChain(5));
  WigsDagPolicy wigs(h);
  const auto costs = RunAllTargets(wigs, h);
  const Distribution equal = EqualDistribution(h.NumNodes());
  // Sanity: far below the TopDown cost on the same structure.
  TopDownPolicy top_down(h);
  const auto td_costs = RunAllTargets(top_down, h);
  EXPECT_LE(WeightedAverage(costs, equal),
            WeightedAverage(td_costs, equal) + 1e-9);
}

TEST(DagObservedFold, NoForEliminatedNodeThatSplitsFolds) {
  // root(0)→a(1), root→b(2), a→c(3), b→c, a→d(4). After yes on a the
  // candidates are {a, c, d}; b is eliminated but R(b) ∩ C = {c}, so an
  // observed no on b is a true fact that still splits the candidates. Both
  // DAG policies fold it to {a, d}: one question (d) remains.
  Digraph g;
  g.AddNodes(5);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  g.AddEdge(1, 4);
  const Hierarchy h = MustBuild(std::move(g));
  ASSERT_FALSE(h.is_tree());
  const Distribution equal = EqualDistribution(h.NumNodes());
  const GreedyDagPolicy greedy(h, equal);
  const WigsDagPolicy wigs(h);
  for (const Policy* policy : {static_cast<const Policy*>(&greedy),
                               static_cast<const Policy*>(&wigs)}) {
    for (const NodeId target : {NodeId{1}, NodeId{4}}) {
      SCOPED_TRACE(policy->name() + " target " + std::to_string(target));
      auto session = policy->NewSession();
      TranscriptStep yes_a;
      yes_a.kind = Query::Kind::kReach;
      yes_a.nodes = {1};
      yes_a.yes = true;
      ASSERT_TRUE(session->TryApplyObserved(yes_a).ok());
      TranscriptStep no_b = yes_a;
      no_b.nodes = {2};
      no_b.yes = false;
      ASSERT_TRUE(session->TryApplyObserved(no_b).ok());
      const Query q = session->Next();
      ASSERT_EQ(q.kind, Query::Kind::kReach);
      ASSERT_EQ(q.node, NodeId{4});
      session->OnReach(4, target == 4);
      const Query done = session->Next();
      ASSERT_EQ(done.kind, Query::Kind::kDone);
      EXPECT_EQ(done.node, target);
    }
  }
}

TEST(Facades, DispatchOnHierarchyKind) {
  Rng rng(1);
  const Hierarchy tree = MustBuild(RandomTree(20, rng));
  const Hierarchy dag = MustBuild(RandomDag(20, rng, 0.5));
  const Distribution equal20 = EqualDistribution(20);
  const Distribution equal_dag = EqualDistribution(dag.NumNodes());

  EXPECT_EQ(MakeGreedyPolicy(tree, equal20)->name(), "GreedyTree");
  EXPECT_EQ(MakeGreedyPolicy(dag, equal_dag)->name(), "GreedyDAG");
  EXPECT_EQ(MakeWigsPolicy(tree)->name(), "WIGS");
  EXPECT_EQ(MakeWigsPolicy(dag)->name(), "WIGS");
}

TEST(Hierarchy, MultiRootInputGetsDummyRoot) {
  Digraph g;
  g.AddNodes(4);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);  // second root at node 2
  auto h = Hierarchy::Build(std::move(g));
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->NumNodes(), 5u);
  EXPECT_EQ(h->graph().Label(h->root()), "<root>");
  // Policies work across the dummy root.
  const Distribution equal = EqualDistribution(5);
  GreedyTreePolicy greedy(*h, equal);
  RunAllTargets(greedy, *h);
}

TEST(Evaluator, CanSkipZeroWeightTargets) {
  const Hierarchy h = MustBuild(PathGraph(15));
  const Distribution point = PointMassDistribution(15, 14);  // deepest leaf
  GreedyTreePolicy greedy(h, point);
  EvalOptions options;
  options.include_zero_weight_targets = false;
  const EvalStats stats = EvaluateExact(greedy, h, point, options);
  EXPECT_EQ(stats.num_searches, 1u);
  // All mass on the deepest leaf: the descent reaches the leaf's parent and
  // Algorithm 4 line 8 breaks the |2p̃−p̃(r)| tie toward the shallower node,
  // so the search asks the parent (yes) and then the leaf (yes).
  EXPECT_DOUBLE_EQ(stats.expected_cost, 2.0);
}

TEST(DeepChain, PoliciesScaleToHeight10k) {
  // Smoke: no recursion, no quadratic blowup on a 10k-deep chain.
  const std::size_t n = 10'000;
  const Hierarchy h = MustBuild(PathGraph(n));
  const Distribution equal = EqualDistribution(n);
  GreedyTreePolicy greedy(h, equal);
  ExactOracle oracle(h.reach(), static_cast<NodeId>(n - 1));
  auto session = greedy.NewSession();
  const SearchResult r = RunSearch(*session, oracle);
  EXPECT_EQ(r.target, n - 1);
  EXPECT_LE(r.reach_queries, 15u);  // ~log2(10000)

  WigsTreePolicy wigs(h);
  auto wigs_session = wigs.NewSession();
  const SearchResult w = RunSearch(*wigs_session, oracle);
  EXPECT_EQ(w.target, n - 1);
  EXPECT_LE(w.reach_queries, 15u);
}

TEST(WideStar, PoliciesHandleFanout5k) {
  const std::size_t n = 5'000;
  const Hierarchy h = MustBuild(StarGraph(n));
  const Distribution equal = EqualDistribution(n);
  // Target in the middle of the fanout; policies must not degrade worse
  // than a linear scan.
  ExactOracle oracle(h.reach(), 2'500);
  GreedyTreePolicy greedy(h, equal);
  auto session = greedy.NewSession();
  const SearchResult r = RunSearch(*session, oracle);
  EXPECT_EQ(r.target, 2'500u);
  EXPECT_LE(r.reach_queries, n);
}

}  // namespace
}  // namespace aigs

// The SplitWeightIndex selection layer: (1) the equivalence suite — the
// incremental backends must ask bit-identical question sequences to the
// naive BFS-rescan references across tree/DAG hierarchies and distribution
// families, which is what keeps Evaluator results bit-identical after the
// rewiring; (2) property tests for the removed-subtree overlay (trees) and
// the alive-bitset state (DAGs) after ApplyYes/ApplyNo/ApplyBatch against
// brute-force recomputation.
#include "core/split_weight_index.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "core/batched_greedy.h"
#include "core/cost_sensitive.h"
#include "core/greedy_naive.h"
#include "core/middle_point.h"
#include "data/builtin.h"
#include "data/synthetic_catalog.h"
#include "graph/candidate_set.h"
#include "graph/generators.h"
#include "oracle/oracle.h"
#include "tests/test_support.h"
#include "util/rng.h"

namespace aigs {
namespace {

using testing::MustBuild;
using testing::MustDist;

std::vector<Weight> RandomWeights(std::size_t n, Rng& rng, Weight max_value,
                                  double zero_frac) {
  std::vector<Weight> w(n);
  bool any = false;
  for (auto& x : w) {
    x = rng.Bernoulli(zero_frac) ? 0 : rng.UniformInt(max_value) + 1;
    any |= x > 0;
  }
  if (!any) {
    w[0] = 1;
  }
  return w;
}

// ---- index state vs brute force -------------------------------------------

// Mirrors an index through random yes/no answers (possibly referencing dead
// nodes, as batched rounds do) and checks every incremental quantity — the
// general queries, the O(1) alive-node accessors, root() and Target() —
// against recomputation over the mirrored alive set.
void CheckStateAgainstBruteForce(const Hierarchy& h,
                                 const std::vector<Weight>& weights,
                                 Rng& steps) {
  const SplitWeightBase base(h, weights);
  SplitWeightIndex index(base);
  std::set<NodeId> alive;
  for (NodeId v = 0; v < h.NumNodes(); ++v) {
    alive.insert(v);
    // Pristine: every session weight is the base's full reach weight.
    const Weight full = h.reach().WeightOfReachableSet(v, weights);
    ASSERT_EQ(base.FullReachWeight(v), full) << "node " << v;
    ASSERT_EQ(index.ReachWeight(v), full) << "node " << v;
    ASSERT_EQ(index.AliveReachWeight(v), full) << "node " << v;
  }
  ASSERT_EQ(base.Total(), base.FullReachWeight(h.root()));
  NodeId root = h.root();
  for (int step = 0; step < 12 && alive.size() > 1; ++step) {
    // Any node may be asked about — including an already-dead one when
    // simulating a batched round's later answers.
    const NodeId q =
        static_cast<NodeId>(steps.UniformInt(h.NumNodes()));
    const bool yes = steps.Bernoulli(0.5);
    if (yes) {
      index.ApplyYes(q);
      if (h.reach().Reaches(root, q)) {
        root = q;  // the root only moves down
      }
      for (auto it = alive.begin(); it != alive.end();) {
        it = h.reach().Reaches(q, *it) ? std::next(it) : alive.erase(it);
      }
    } else {
      index.ApplyNo(q);
      for (auto it = alive.begin(); it != alive.end();) {
        it = h.reach().Reaches(q, *it) ? alive.erase(it) : std::next(it);
      }
    }
    Weight expected_total = 0;
    for (const NodeId x : alive) {
      expected_total += weights[x];
    }
    ASSERT_EQ(index.AliveCount(), alive.size());
    ASSERT_EQ(index.TotalAlive(), expected_total);
    std::size_t enumerated = 0;
    index.ForEachAlive([&](NodeId v) {
      ++enumerated;
      ASSERT_TRUE(alive.count(v) > 0) << "node " << v;
    });
    ASSERT_EQ(enumerated, alive.size());
    for (NodeId v = 0; v < h.NumNodes(); ++v) {
      ASSERT_EQ(index.IsAlive(v), alive.count(v) > 0) << "node " << v;
      Weight expected_w = 0;
      std::size_t expected_c = 0;
      for (const NodeId x : alive) {
        if (h.reach().Reaches(v, x)) {
          expected_w += weights[x];
          ++expected_c;
        }
      }
      ASSERT_EQ(index.ReachWeight(v), expected_w) << "node " << v;
      ASSERT_EQ(index.ReachCount(v), expected_c) << "node " << v;
      if (alive.count(v) > 0) {
        ASSERT_EQ(index.AliveReachWeight(v), expected_w) << "node " << v;
        ASSERT_EQ(index.AliveReachCount(v), expected_c) << "node " << v;
        for (const NodeId c : h.graph().Children(v)) {
          ASSERT_EQ(index.IsAliveChild(c), alive.count(c) > 0)
              << "child " << c << " of " << v;
          const std::optional<Weight> w = index.AliveChildReachWeight(c);
          ASSERT_EQ(w.has_value(), alive.count(c) > 0) << "child " << c;
          if (w) {
            ASSERT_EQ(*w, index.ReachWeight(c)) << "child " << c;
          }
        }
      }
    }
    ASSERT_EQ(index.root(), root);
    if (alive.empty()) {
      break;
    }
    ASSERT_TRUE(alive.count(root) > 0);
    if (alive.size() == 1) {
      ASSERT_EQ(index.Target(), *alive.begin());
    }
  }
}

TEST(SplitWeightIndex, EulerStateMatchesBruteForce) {
  Rng rng(2);
  for (int round = 0; round < 15; ++round) {
    const Hierarchy h = MustBuild(RandomTree(2 + rng.UniformInt(40), rng));
    const auto weights = RandomWeights(h.NumNodes(), rng, 1000, 0.3);
    Rng steps(rng.Next());
    CheckStateAgainstBruteForce(h, weights, steps);
  }
}

TEST(SplitWeightIndex, ClosureStateMatchesBruteForce) {
  Rng rng(3);
  for (int round = 0; round < 15; ++round) {
    const Hierarchy h =
        MustBuild(RandomDag(2 + rng.UniformInt(35), rng, 0.5));
    const auto weights = RandomWeights(h.NumNodes(), rng, 1000, 0.3);
    Rng steps(rng.Next());
    CheckStateAgainstBruteForce(h, weights, steps);
  }
}

TEST(SplitWeightIndex, ApplyBatchIntersectsAllAnswers) {
  Rng rng(4);
  for (int round = 0; round < 15; ++round) {
    const bool dag = rng.Bernoulli(0.5);
    const Hierarchy h = MustBuild(dag ? RandomDag(20, rng, 0.5)
                                      : RandomTree(20, rng));
    const auto weights = RandomWeights(h.NumNodes(), rng, 100, 0.2);
    const SplitWeightBase base(h, weights);
    SplitWeightIndex index(base);
    std::vector<NodeId> nodes;
    std::vector<bool> answers;
    for (int i = 0; i < 4; ++i) {
      nodes.push_back(static_cast<NodeId>(rng.UniformInt(h.NumNodes())));
      answers.push_back(rng.Bernoulli(0.5));
    }
    index.ApplyBatch(nodes, answers);
    std::size_t expected_count = 0;
    Weight expected_total = 0;
    for (NodeId t = 0; t < h.NumNodes(); ++t) {
      bool survives = true;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        survives &= h.reach().Reaches(nodes[i], t) == answers[i];
      }
      ASSERT_EQ(index.IsAlive(t), survives) << "node " << t;
      expected_count += survives ? 1 : 0;
      expected_total += survives ? weights[t] : 0;
    }
    ASSERT_EQ(index.AliveCount(), expected_count);
    ASSERT_EQ(index.TotalAlive(), expected_total);
  }
}

TEST(SplitWeightIndex, ResetFromCopiesSessionState) {
  Rng rng(5);
  const Hierarchy h = MustBuild(RandomTree(30, rng));
  const auto weights = RandomWeights(h.NumNodes(), rng, 100, 0.0);
  const SplitWeightBase base(h, weights);
  SplitWeightIndex a(base);
  SplitWeightIndex b(base);
  a.ApplyNo(static_cast<NodeId>(h.NumNodes() - 1));
  b.ResetFrom(a);
  ASSERT_EQ(b.AliveCount(), a.AliveCount());
  ASSERT_EQ(b.TotalAlive(), a.TotalAlive());
  for (NodeId v = 0; v < h.NumNodes(); ++v) {
    ASSERT_EQ(b.IsAlive(v), a.IsAlive(v));
    ASSERT_EQ(b.ReachWeight(v), a.ReachWeight(v));
  }
  // Mutating the copy must not leak back.
  b.ApplyNo(b.FindSplittingMiddlePoint().node);
  ASSERT_LT(b.AliveCount(), a.AliveCount());
}

TEST(CandidateSet, ResetFromReusesStorage) {
  Rng rng(6);
  const Hierarchy h = MustBuild(RandomDag(25, rng, 0.4));
  CandidateSet a(h.graph());
  a.RemoveReachable(5);
  CandidateSet b(h.graph());
  b.ResetFrom(a);
  ASSERT_EQ(b.alive_count(), a.alive_count());
  for (NodeId v = 0; v < h.NumNodes(); ++v) {
    ASSERT_EQ(b.IsAlive(v), a.IsAlive(v));
  }
}

// ---- middle-point selection vs the naive reference -------------------------

TEST(SplitWeightIndex, FindMiddlePointMatchesNaiveScanMidSearch) {
  // Random partially-consumed search states: the pruned descent must return
  // exactly the naive scan's argmin node (same value, same smallest-id
  // tie-break), including under zero-weight ties.
  Rng rng(7);
  for (int round = 0; round < 40; ++round) {
    const bool dag = rng.Bernoulli(0.5);
    const Hierarchy h = MustBuild(dag ? RandomDag(2 + rng.UniformInt(35),
                                                  rng, 0.5)
                                      : RandomTree(2 + rng.UniformInt(35),
                                                   rng));
    const auto weights = RandomWeights(h.NumNodes(), rng, 20, 0.5);
    const SplitWeightBase base(h, weights);
    SplitWeightIndex index(base);
    CandidateSet mirror(h.graph());
    NodeId root = h.root();
    BfsScratch scratch(h.NumNodes());
    Rng steps(rng.Next());
    while (index.AliveCount() > 1) {
      Weight total = 0;
      mirror.bits().ForEachSetBit(
          [&](std::size_t v) { total += weights[v]; });
      ASSERT_EQ(index.TotalAlive(), total);
      const MiddlePoint naive = FindMiddlePointNaive(
          h.graph(), mirror, root, weights, total, scratch);
      const MiddlePoint fast = index.FindMiddlePoint();
      ASSERT_EQ(fast.node, naive.node);
      ASSERT_EQ(fast.split_diff, naive.split_diff);
      ASSERT_EQ(fast.reach_weight, naive.reach_weight);
      // Advance both states along a random answer.
      const NodeId q = naive.node;
      if (steps.Bernoulli(0.5)) {
        index.ApplyYes(q);
        mirror.RestrictToReachable(q);
        root = q;
      } else {
        index.ApplyNo(q);
        mirror.RemoveReachable(q);
      }
      if (mirror.alive_count() == 0) {
        break;
      }
    }
  }
}

TEST(SplitWeightIndex, FindSplittingMiddlePointMatchesFlatScan) {
  // The Euler-mode pruned/rooted descent (PR-2 follow-up, landed in PR 4)
  // must return exactly the flat scan's (diff, id) argmin over splitting
  // candidates — including on post-yes intersection states reached through
  // whole batched rounds, where a round may answer yes for an ancestor of
  // another yes of the same round.
  const auto flat_reference = [](const SplitWeightIndex& index) {
    const Weight total = index.TotalAlive();
    const std::size_t count = index.AliveCount();
    MiddlePoint best;
    index.ForEachAlive([&](NodeId v) {
      if (index.ReachCount(v) == count) {
        return;
      }
      const Weight w = index.ReachWeight(v);
      const Weight rest = total - w;
      const Weight diff = w > rest ? w - rest : rest - w;
      if (best.node == kInvalidNode || diff < best.split_diff ||
          (diff == best.split_diff && v < best.node)) {
        best.node = v;
        best.split_diff = diff;
        best.reach_weight = w;
      }
    });
    return best;
  };

  Rng rng(29);
  for (int round = 0; round < 60; ++round) {
    const bool dag = rng.Bernoulli(0.3);
    const Hierarchy h = MustBuild(dag ? RandomDag(2 + rng.UniformInt(40),
                                                  rng, 0.4)
                                      : RandomTree(2 + rng.UniformInt(40),
                                                   rng));
    const auto weights = RandomWeights(h.NumNodes(), rng, 20, 0.5);
    const SplitWeightBase base(h, weights);
    const NodeId target =
        static_cast<NodeId>(rng.UniformInt(h.NumNodes()));
    SplitWeightIndex state(base);
    SplitWeightIndex simulated(base);
    int guard = 0;
    while (state.AliveCount() > 1 && ++guard < 300) {
      // One batched round of up to 3 questions, checking the descent
      // against the flat scan at every pick of the round simulation.
      std::vector<NodeId> batch;
      simulated.ResetFrom(state);
      while (batch.size() < 3 && simulated.AliveCount() > 1) {
        const MiddlePoint fast = simulated.FindSplittingMiddlePoint();
        const MiddlePoint reference = flat_reference(simulated);
        ASSERT_EQ(fast.node, reference.node);
        ASSERT_EQ(fast.split_diff, reference.split_diff);
        ASSERT_EQ(fast.reach_weight, reference.reach_weight);
        if (fast.node == kInvalidNode) {
          break;
        }
        batch.push_back(fast.node);
        simulated.ApplyNo(fast.node);
      }
      ASSERT_FALSE(batch.empty());
      std::vector<bool> answers(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        answers[i] = h.reach().Reaches(batch[i], target);
      }
      state.ApplyBatch(batch, answers);
      ASSERT_GT(state.AliveCount(), 0u);
    }
  }
}

// ---- full question-sequence equivalence ------------------------------------

/// Records the full interaction transcript of a session: sequential queries
/// as single-element rounds, batch queries as their node lists.
std::vector<std::vector<NodeId>> RecordTranscript(SearchSession& session,
                                                  Oracle& oracle,
                                                  NodeId expected_target) {
  std::vector<std::vector<NodeId>> rounds;
  for (;;) {
    const Query q = session.Next();
    if (q.kind == Query::Kind::kDone) {
      EXPECT_EQ(q.node, expected_target);
      return rounds;
    }
    if (q.kind == Query::Kind::kReach) {
      rounds.push_back({q.node});
      session.OnReach(q.node, oracle.Reach(q.node));
      continue;
    }
    AIGS_CHECK(q.kind == Query::Kind::kReachBatch);
    rounds.push_back(q.choices);
    std::vector<bool> answers;
    answers.reserve(q.choices.size());
    for (const NodeId v : q.choices) {
      answers.push_back(oracle.Reach(v));
    }
    session.OnReachBatch(q.choices, answers);
  }
}

void ExpectIdenticalTranscripts(const Policy& fast, const Policy& reference,
                                const Hierarchy& h, const char* what) {
  for (NodeId target = 0; target < h.NumNodes(); ++target) {
    ExactOracle oracle(h.reach(), target);
    auto fast_session = fast.NewSession();
    auto ref_session = reference.NewSession();
    const auto fast_rounds = RecordTranscript(*fast_session, oracle, target);
    const auto ref_rounds = RecordTranscript(*ref_session, oracle, target);
    ASSERT_EQ(fast_rounds, ref_rounds)
        << what << ": transcripts diverge for target " << target;
  }
}

struct EquivalenceCase {
  std::string name;
  Hierarchy hierarchy;
  Distribution distribution;
};

std::vector<EquivalenceCase> EquivalenceCases() {
  std::vector<EquivalenceCase> cases;
  Rng rng(2022);

  // Tree and DAG hierarchies × uniform / Zipf / with-zeros distributions.
  for (const bool dag : {false, true}) {
    for (const char* dist_kind : {"uniform", "zipf", "zeros"}) {
      Rng g(rng.Next());
      Hierarchy h = MustBuild(dag ? RandomDag(40, g, 0.4)
                                  : RandomTree(40, g));
      Distribution dist =
          std::string_view(dist_kind) == "uniform"
              ? UniformRandomDistribution(h.NumNodes(), g)
          : std::string_view(dist_kind) == "zipf"
              ? ZipfRandomDistribution(h.NumNodes(), 2.0, g)
              : MustDist(RandomWeights(h.NumNodes(), g, 50, 0.5));
      cases.push_back({std::string(dag ? "dag/" : "tree/") + dist_kind,
                       std::move(h), std::move(dist)});
    }
  }

  // Real data: the paper's vehicle hierarchy with its published counts, and
  // catalog-shaped synthetics with empirical (Zipf object-count) weights.
  cases.push_back({"vehicle/real", MustBuild(BuildVehicleHierarchy()),
                   VehicleDistribution()});
  CatalogParams tree_params;
  tree_params.num_nodes = 220;
  tree_params.height = 7;
  tree_params.max_out_degree = 8;
  tree_params.seed = 11;
  cases.push_back(
      {"catalog_tree/real", MustBuild(GenerateCatalogTree(tree_params)),
       AssignZipfObjectCounts(220, 100'000, 1.0, 12)});
  CatalogParams dag_params = tree_params;
  dag_params.extra_parent_frac = 0.08;
  dag_params.seed = 13;
  Hierarchy catalog_dag = MustBuild(GenerateCatalogDag(dag_params));
  Distribution catalog_dist =
      AssignZipfObjectCounts(catalog_dag.NumNodes(), 100'000, 1.0, 14);
  cases.push_back({"catalog_dag/real", std::move(catalog_dag),
                   std::move(catalog_dist)});
  return cases;
}

TEST(SelectionEquivalence, GreedyNaiveIndexMatchesBfsReference) {
  for (const EquivalenceCase& c : EquivalenceCases()) {
    SCOPED_TRACE(c.name);
    GreedyNaiveOptions bfs;
    bfs.backend = SelectionBackend::kBfsRescan;
    const GreedyNaivePolicy fast(c.hierarchy, c.distribution);
    const GreedyNaivePolicy reference(c.hierarchy, c.distribution, bfs);
    ExpectIdenticalTranscripts(fast, reference, c.hierarchy, c.name.c_str());
  }
}

TEST(SelectionEquivalence, BatchedIndexMatchesBfsReference) {
  for (const EquivalenceCase& c : EquivalenceCases()) {
    SCOPED_TRACE(c.name);
    for (const std::size_t k : {std::size_t{1}, std::size_t{3},
                                std::size_t{8}}) {
      BatchedGreedyOptions fast_options;
      fast_options.questions_per_round = k;
      BatchedGreedyOptions ref_options = fast_options;
      ref_options.backend = SelectionBackend::kBfsRescan;
      const BatchedGreedyPolicy fast(c.hierarchy, c.distribution,
                                     fast_options);
      const BatchedGreedyPolicy reference(c.hierarchy, c.distribution,
                                          ref_options);
      ExpectIdenticalTranscripts(fast, reference, c.hierarchy,
                                 c.name.c_str());
    }
  }
}

TEST(SelectionEquivalence, CostSensitiveMatchesBfsReferenceScan) {
  // The index-backed cost-sensitive session must pick the same argmax of
  // p(G_v∩C)·p(C\G_v)/c(v) as a from-scratch BFS scan in ascending node-id
  // order (first-wins tie-break), step by step.
  Rng rng(8);
  for (const EquivalenceCase& c : EquivalenceCases()) {
    SCOPED_TRACE(c.name);
    const Hierarchy& h = c.hierarchy;
    Rng cost_rng(rng.Next());
    const CostModel costs =
        CostModel::UniformRandom(h.NumNodes(), 1, 9, cost_rng);
    CostSensitiveOptions options;  // rounded weights, Theorem 4's setting
    const CostSensitiveGreedyPolicy policy(h, c.distribution, costs, options);
    const std::vector<Weight> weights =
        RoundWeights(c.distribution, options.rounding);

    for (NodeId target = 0; target < h.NumNodes(); ++target) {
      ExactOracle oracle(h.reach(), target);
      auto session = policy.NewSession();
      CandidateSet mirror(h.graph());
      NodeId root = h.root();
      BfsScratch scratch(h.NumNodes());
      for (;;) {
        const Query q = session->Next();
        if (q.kind == Query::Kind::kDone) {
          ASSERT_EQ(q.node, target);
          break;
        }
        Weight total = 0;
        mirror.bits().ForEachSetBit(
            [&](std::size_t v) { total += weights[v]; });
        NodeId expected = kInvalidNode;
        U128 best_product = 0;
        std::uint32_t best_cost = 1;
        mirror.bits().ForEachSetBit([&](std::size_t raw) {
          const NodeId v = static_cast<NodeId>(raw);
          if (v == root) {
            return;
          }
          Weight inside = 0;
          scratch.ForwardBfs(
              h.graph(), v,
              [&mirror](NodeId x) { return mirror.IsAlive(x); },
              [&](NodeId x) { inside += weights[x]; });
          const U128 product =
              static_cast<U128>(inside) * static_cast<U128>(total - inside);
          const std::uint32_t cost = costs.CostOf(v);
          if (expected == kInvalidNode ||
              product * best_cost > best_product * cost) {
            expected = v;
            best_product = product;
            best_cost = cost;
          }
        });
        ASSERT_EQ(q.node, expected) << "target " << target;
        const bool yes = oracle.Reach(q.node);
        session->OnReach(q.node, yes);
        if (yes) {
          mirror.RestrictToReachable(q.node);
          root = q.node;
        } else {
          mirror.RemoveReachable(q.node);
        }
      }
    }
  }
}

}  // namespace
}  // namespace aigs

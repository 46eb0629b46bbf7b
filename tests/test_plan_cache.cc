// Plan trees: the per-epoch decision trees behind Engine::Ask
// (service/plan_tree.h), one per prebuilt policy spec.
//  (1) differential: every registry policy on Amazon and ImageNet at scale
//      0.05 emits identical transcripts with plan trees on and off — the
//      guarantee that makes the trees a pure throughput knob;
//  (2) the same through every seam a session crosses: Publish mid-session
//      plus Migrate (same and shifted weights), Save/Resume, a crash image
//      taken by the WAL's after_append_hook plus Recover, observed steps,
//      wrong-kind and stale answers, and sessions that hit the node limit;
//  (3) counters reconcile: hits + misses equals the Asks that resolved a
//      new question, through Engine and through AigsServer;
//  (4) eight threads share one tree (run under TSan in CI);
//  (5) PlanTree unit behaviour.
#include "service/plan_tree.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/aigs.h"
#include "data/datasets.h"
#include "eval/runner.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "oracle/oracle.h"
#include "prob/alias_table.h"
#include "service/engine.h"
#include "tests/test_support.h"
#include "util/rng.h"

namespace aigs {
namespace {

using testing::MustBuild;

/// The questions a session was asked, in order, and what it identified.
struct Transcript {
  std::vector<std::pair<Query::Kind, std::vector<NodeId>>> questions;
  NodeId found = kInvalidNode;
  bool operator==(const Transcript& other) const = default;
};

void Record(const Query& q, Transcript* t) {
  t->questions.emplace_back(q.kind, q.kind == Query::Kind::kReach
                                        ? std::vector<NodeId>{q.node}
                                        : q.choices);
}

/// Asks and answers `id` truthfully for `target` until it is done or
/// `max_steps` answers were given; records every question into `t`.
/// Returns false once the session is done.
bool Drive(Engine& engine, SessionId id, const Hierarchy& h, NodeId target,
           Transcript* t, std::size_t max_steps = SIZE_MAX) {
  ExactOracle oracle(h.reach(), target);
  for (std::size_t step = 0; step < max_steps; ++step) {
    const auto q = engine.Ask(id);
    AIGS_CHECK(q.ok());
    if (q->kind == Query::Kind::kDone) {
      t->found = q->node;
      return false;
    }
    Record(*q, t);
    AIGS_CHECK(engine.Answer(id, AnswerFromOracle(*q, oracle)).ok());
  }
  return true;
}

Transcript RunToEnd(Engine& engine, const std::string& spec,
                    const Hierarchy& h, NodeId target) {
  const auto id = engine.Open(spec);
  AIGS_CHECK(id.ok());
  Transcript t;
  Drive(engine, *id, h, target, &t);
  AIGS_CHECK(engine.Close(*id).ok());
  return t;
}

EngineOptions Options(bool trees) {
  EngineOptions options;
  options.plan_cache.enabled = trees;
  // Publishes warm-walk inline and never migrate on their own: the seam
  // tests decide when a session moves.
  options.drain.background = false;
  options.migration.sweep_on_publish = false;
  return options;
}

/// Every registry policy spec the hierarchy supports (mirrors
/// test_service.cc; the scripted policy gets a complete question order).
std::vector<std::string> SpecsFor(const Hierarchy& h) {
  std::string full_order = "scripted:order=";
  for (NodeId v = 0; v < h.NumNodes(); ++v) {
    if (v == h.root()) {
      continue;
    }
    if (full_order.back() != '=') {
      full_order += '+';
    }
    full_order += std::to_string(v);
  }
  std::vector<std::string> specs = {
      "greedy",         "greedy_dag",     "greedy_naive",
      "naive",          "batched:k=3",    "cost_sensitive",
      "migs",           "migs:ordered=true",
      "wigs",           "top_down",       "topdown",
      full_order,
  };
  if (h.is_tree()) {
    specs.push_back("greedy_tree");
    specs.push_back("greedy_tree:scan=heap");
  }
  return specs;
}

/// Policies covering every question kind (reach, batch, choice) and both
/// planner families (candidate state, phase automata).
const std::vector<std::string>& SeamSpecs() {
  static const std::vector<std::string> specs = {"greedy", "batched:k=3",
                                                 "migs", "top_down"};
  return specs;
}

/// The paper's two catalogs at 5% scale.
const std::vector<Dataset>& Catalogs() {
  static const std::vector<Dataset>* catalogs = [] {
    auto* out = new std::vector<Dataset>();
    out->push_back(MakeAmazonDataset(0.05));
    out->push_back(MakeImageNetDataset(0.05));
    return out;
  }();
  return *catalogs;
}

CatalogConfig ConfigFor(const Hierarchy& h, const Distribution& dist,
                        std::vector<std::string> specs) {
  CatalogConfig config;
  config.hierarchy = UnownedHierarchy(h);
  config.distribution = dist;
  Rng rng(7);
  config.cost_model = std::make_shared<const CostModel>(
      CostModel::UniformRandom(h.NumNodes(), 1, 9, rng));
  config.policy_specs = std::move(specs);
  return config;
}

/// Targets drawn from the catalog's own distribution (so sessions share
/// prefixes the way real traffic does) plus the first and last node.
std::vector<NodeId> SampleTargets(const Dataset& d, std::size_t count,
                                  std::uint64_t seed) {
  const AliasTable sampler(d.real_distribution);
  Rng rng(seed);
  std::vector<NodeId> targets = {
      0, static_cast<NodeId>(d.hierarchy.NumNodes() - 1)};
  while (targets.size() < count) {
    targets.push_back(sampler.Sample(rng));
  }
  return targets;
}

// ---- (1) differential: every policy, both catalogs -------------------------

/// Every registry policy on `h`, for each of `targets`, through a trees-on
/// and a trees-off engine.
void ExpectIdenticalTranscripts(const Hierarchy& h, const Distribution& dist,
                                const std::vector<NodeId>& targets) {
  const std::vector<std::string> specs = SpecsFor(h);
  Engine on(Options(true));
  Engine off(Options(false));
  ASSERT_TRUE(on.Publish(ConfigFor(h, dist, specs)).ok());
  ASSERT_TRUE(off.Publish(ConfigFor(h, dist, specs)).ok());
  for (const std::string& spec : specs) {
    SCOPED_TRACE(spec.substr(0, 40));
    for (const NodeId target : targets) {
      const Transcript reference = RunToEnd(off, spec, h, target);
      EXPECT_EQ(reference.found, target);
      // Twice through the tree: the first pass plans, the second only
      // reads.
      EXPECT_EQ(RunToEnd(on, spec, h, target), reference)
          << "target " << target;
      const std::uint64_t misses = on.Stats().plan_cache.misses;
      EXPECT_EQ(RunToEnd(on, spec, h, target), reference)
          << "target " << target;
      EXPECT_EQ(on.Stats().plan_cache.misses, misses);
    }
  }
  const EngineStats stats = on.Stats();
  EXPECT_GT(stats.plan_cache.hits, 0u);
  EXPECT_GT(stats.plan_cache.nodes, specs.size());
  EXPECT_EQ(off.Stats().plan_cache.hits + off.Stats().plan_cache.misses, 0u);
  EXPECT_EQ(off.Stats().plan_cache.nodes, 0u);
}

TEST(PlanTreeDifferential, EveryPolicyOnAmazonAndImageNet) {
  for (const Dataset& d : Catalogs()) {
    SCOPED_TRACE(d.name);
    ExpectIdenticalTranscripts(d.hierarchy, d.real_distribution,
                               SampleTargets(d, 24, 4242));
  }
}

TEST(PlanTreeDifferential, EveryPolicyEveryTargetOnSmallTreeAndDag) {
  Rng rng(4242);
  const Hierarchy tree = MustBuild(RandomTree(48, rng));
  const Hierarchy dag = MustBuild(RandomDag(48, rng, 0.4));
  for (const Hierarchy* h : {&tree, &dag}) {
    std::vector<NodeId> every(h->NumNodes());
    for (NodeId v = 0; v < h->NumNodes(); ++v) {
      every[v] = v;
    }
    ExpectIdenticalTranscripts(
        *h, ZipfRandomDistribution(h->NumNodes(), 2.0, rng), every);
  }
}

// ---- (2) seams ---------------------------------------------------------------

/// One session per (spec, target) on each of a trees-on and a trees-off
/// engine, advanced in lockstep so a seam can be applied to both between
/// steps; `Finish` drives both to the end and checks they agree.
struct Pair {
  Engine on{Options(true)};
  Engine off{Options(false)};

  void Publish(const Hierarchy& h, const Distribution& dist) {
    ASSERT_TRUE(on.Publish(ConfigFor(h, dist, SeamSpecs())).ok());
    ASSERT_TRUE(off.Publish(ConfigFor(h, dist, SeamSpecs())).ok());
  }
};

struct Lane {
  std::string spec;
  NodeId target = kInvalidNode;
  SessionId on_id = 0;
  SessionId off_id = 0;
  Transcript on;
  Transcript off;
};

std::vector<Lane> OpenLanes(Pair& pair, const std::vector<NodeId>& targets) {
  std::vector<Lane> lanes;
  for (const std::string& spec : SeamSpecs()) {
    for (const NodeId target : targets) {
      Lane lane;
      lane.spec = spec;
      lane.target = target;
      lane.on_id = *pair.on.Open(spec);
      lane.off_id = *pair.off.Open(spec);
      lanes.push_back(std::move(lane));
    }
  }
  return lanes;
}

void Step(Pair& pair, std::vector<Lane>& lanes, const Hierarchy& h,
          std::size_t steps) {
  for (Lane& lane : lanes) {
    Drive(pair.on, lane.on_id, h, lane.target, &lane.on, steps);
    Drive(pair.off, lane.off_id, h, lane.target, &lane.off, steps);
  }
}

void Finish(Pair& pair, std::vector<Lane>& lanes, const Hierarchy& h) {
  Step(pair, lanes, h, SIZE_MAX);
  for (const Lane& lane : lanes) {
    SCOPED_TRACE(lane.spec + " target " + std::to_string(lane.target));
    EXPECT_EQ(lane.on, lane.off);
    EXPECT_EQ(lane.on.found, lane.target);
  }
}

TEST(PlanTreeSeams, PublishMidSessionThenMigrate) {
  for (const Dataset& d : Catalogs()) {
    SCOPED_TRACE(d.name);
    const Hierarchy& h = d.hierarchy;
    Pair pair;
    pair.Publish(h, d.real_distribution);
    const std::vector<NodeId> targets = SampleTargets(d, 6, 11);
    // Plan the trees with traffic, so the republish has something to walk.
    for (const std::string& spec : SeamSpecs()) {
      for (const NodeId target : targets) {
        RunToEnd(pair.on, spec, h, target);
      }
    }

    // Same weights: the migrated sessions replay without divergence and
    // land on the new epoch's trees, which the warm walk planned.
    std::vector<Lane> same = OpenLanes(pair, targets);
    Step(pair, same, h, 2);
    pair.Publish(h, d.real_distribution);
    EXPECT_GT(pair.on.Stats().plan_cache.nodes, SeamSpecs().size());
    for (const Lane& lane : same) {
      const auto moved_on = pair.on.Migrate(lane.on_id);
      const auto moved_off = pair.off.Migrate(lane.off_id);
      ASSERT_TRUE(moved_on.ok() && moved_off.ok());
      EXPECT_EQ(moved_on->divergent_steps, 0u);
    }
    Finish(pair, same, h);
    for (const Lane& lane : same) {
      EXPECT_EQ(lane.on, RunToEnd(pair.off, lane.spec, h, lane.target));
    }

    // Shifted weights: migration folds the steps the new planner would not
    // ask as observed ones, which takes those sessions off the tree.
    std::vector<Lane> shifted = OpenLanes(pair, targets);
    Step(pair, shifted, h, 3);
    Rng rng(606);
    pair.Publish(h, ZipfRandomDistribution(h.NumNodes(), 2.0, rng));
    std::size_t divergent = 0;
    for (const Lane& lane : shifted) {
      const auto moved_on = pair.on.Migrate(lane.on_id);
      const auto moved_off = pair.off.Migrate(lane.off_id);
      ASSERT_TRUE(moved_on.ok() && moved_off.ok());
      EXPECT_EQ(moved_on->divergent_steps, moved_off->divergent_steps);
      divergent += moved_on->divergent_steps;
    }
    EXPECT_GT(divergent, 0u) << "the shifted weights should change plans";
    Finish(pair, shifted, h);
  }
}

TEST(PlanTreeSeams, SaveAndResume) {
  const Dataset& d = Catalogs().front();
  const Hierarchy& h = d.hierarchy;
  Pair pair;
  pair.Publish(h, d.real_distribution);
  std::vector<Lane> lanes = OpenLanes(pair, SampleTargets(d, 6, 12));
  Step(pair, lanes, h, 3);
  for (Lane& lane : lanes) {
    const auto on_blob = pair.on.Save(lane.on_id);
    const auto off_blob = pair.off.Save(lane.off_id);
    ASSERT_TRUE(on_blob.ok() && off_blob.ok());
    EXPECT_EQ(*on_blob, *off_blob);
    ASSERT_TRUE(pair.on.Close(lane.on_id).ok());
    ASSERT_TRUE(pair.off.Close(lane.off_id).ok());
    lane.on_id = *pair.on.Resume(*on_blob);
    lane.off_id = *pair.off.Resume(*off_blob);
  }
  Finish(pair, lanes, h);
  for (const Lane& lane : lanes) {
    EXPECT_EQ(lane.on, RunToEnd(pair.off, lane.spec, h, lane.target));
  }
}

/// Self-cleaning scratch directory.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("aigs_plan_tree_" + tag + "_" + std::to_string(::getpid()) +
              "_" + std::to_string(counter.fetch_add(1))))
                .string();
    std::filesystem::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(PlanTreeSeams, CrashImageRecovers) {
  const Dataset& d = Catalogs().back();
  const Hierarchy& h = d.hierarchy;
  const std::vector<NodeId> targets = SampleTargets(d, 4, 13);
  const CatalogConfig config =
      ConfigFor(h, d.real_distribution, SeamSpecs());

  // The crashing engine: every WAL append is fsynced, and the hook copies
  // the durable directory at the 40th append — exactly what a SIGKILL
  // right after that append would leave on disk.
  TempDir live("live");
  TempDir image("image");
  std::atomic<int> appends{0};
  std::vector<std::pair<std::string, NodeId>> lanes;  // by session id - 1
  {
    Engine crashing(Options(true));
    ASSERT_TRUE(crashing.Publish(config).ok());
    DurabilityOptions durability;
    durability.dir = live.path();
    durability.sync = {FsyncPolicy::kAlways, 1};
    durability.checkpoint_every = 0;
    durability.after_append_hook = [&] {
      if (appends.fetch_add(1) + 1 == 40) {
        std::filesystem::copy(live.path(), image.path(),
                              std::filesystem::copy_options::recursive);
      }
    };
    ASSERT_TRUE(crashing.EnableDurability(durability).ok());
    std::vector<SessionId> ids;
    for (const std::string& spec : SeamSpecs()) {
      for (const NodeId target : targets) {
        ids.push_back(*crashing.Open(spec));
        lanes.emplace_back(spec, target);
      }
    }
    for (std::size_t round = 0; round < 4; ++round) {
      for (std::size_t i = 0; i < ids.size(); ++i) {
        Transcript ignored;
        Drive(crashing, ids[i], h, lanes[i].second, &ignored, 1);
      }
    }
    ASSERT_GE(appends.load(), 40);
  }

  // Recover the image into a trees-on and a trees-off engine (each from
  // its own copy: Recover keeps logging into the directory).
  TempDir image_off("image_off");
  std::filesystem::copy(image.path(), image_off.path(),
                        std::filesystem::copy_options::recursive);
  Pair pair;
  ASSERT_TRUE(pair.on.Publish(config).ok());
  ASSERT_TRUE(pair.off.Publish(config).ok());
  DurabilityOptions on_dir;
  on_dir.dir = image.path();
  DurabilityOptions off_dir;
  off_dir.dir = image_off.path();
  const auto on_recovery = pair.on.Recover(on_dir);
  const auto off_recovery = pair.off.Recover(off_dir);
  ASSERT_TRUE(on_recovery.ok() && off_recovery.ok());
  EXPECT_EQ(on_recovery->recovered, lanes.size());
  EXPECT_EQ(on_recovery->recovered, off_recovery->recovered);
  EXPECT_EQ(on_recovery->replay_failures, 0u);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const SessionId id = i + 1;
    SCOPED_TRACE(lanes[i].first + " session " + std::to_string(id));
    const auto saved = pair.on.Save(id);
    ASSERT_TRUE(saved.ok());
    const std::size_t prefix = SessionCodec::Decode(*saved)->steps.size();
    Transcript on, off;
    Drive(pair.on, id, h, lanes[i].second, &on);
    Drive(pair.off, id, h, lanes[i].second, &off);
    EXPECT_EQ(on, off);
    // The recovered session continues the uninterrupted transcript.
    Transcript whole = RunToEnd(pair.off, lanes[i].first, h, lanes[i].second);
    whole.questions.erase(whole.questions.begin(),
                          whole.questions.begin() +
                              static_cast<std::ptrdiff_t>(prefix));
    EXPECT_EQ(on, whole);
  }
}

TEST(PlanTreeSeams, ObservedStepsTakeTheSessionOffTheTree) {
  const Dataset& d = Catalogs().front();
  const Hierarchy& h = d.hierarchy;
  Pair pair;
  pair.Publish(h, d.real_distribution);
  const NodeId target = SampleTargets(d, 3, 14).back();
  RunToEnd(pair.on, "greedy", h, target);  // plan the target's path

  // A saved session with one injected observed step: a true fact about
  // the target that the planner never asks (the root reaches it).
  const SessionId id = *pair.on.Open("greedy");
  Transcript ignored;
  Drive(pair.on, id, h, target, &ignored, 2);
  auto saved = SessionCodec::Decode(*pair.on.Save(id));
  ASSERT_TRUE(saved.ok());
  TranscriptStep observed;
  observed.kind = Query::Kind::kReach;
  observed.nodes = {h.root()};
  observed.yes = true;
  observed.diverged = true;
  saved->steps.push_back(observed);
  const std::string blob = SessionCodec::Encode(*saved);

  const auto on_moved = pair.on.Migrate(blob);
  const auto off_moved = pair.off.Migrate(blob);
  ASSERT_TRUE(on_moved.ok() && off_moved.ok())
      << on_moved.status().ToString();
  const PlanCacheStats before = pair.on.Stats().plan_cache;
  Transcript on, off;
  Drive(pair.on, on_moved->id, h, target, &on);
  Drive(pair.off, off_moved->id, h, target, &off);
  EXPECT_EQ(on, off);
  EXPECT_EQ(on.found, target);
  // Off the tree: every Ask planned live and nothing was added.
  const PlanCacheStats after = pair.on.Stats().plan_cache;
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses - before.misses, on.questions.size() + 1);
  EXPECT_EQ(after.nodes, before.nodes);
}

TEST(PlanTreeSeams, WrongKindAndStaleAnswersLeaveTranscriptsAlone) {
  const Dataset& d = Catalogs().back();
  const Hierarchy& h = d.hierarchy;
  Pair pair;
  pair.Publish(h, d.real_distribution);
  std::vector<Lane> lanes = OpenLanes(pair, SampleTargets(d, 4, 15));
  Step(pair, lanes, h, 1);
  for (Lane& lane : lanes) {
    for (Engine* engine : {&pair.on, &pair.off}) {
      const SessionId id = engine == &pair.on ? lane.on_id : lane.off_id;
      const auto q = engine->Ask(id);
      ASSERT_TRUE(q.ok());
      if (q->kind == Query::Kind::kDone) {
        continue;
      }
      const SessionAnswer wrong = q->kind == Query::Kind::kReach
                                      ? SessionAnswer::Choice(0)
                                      : SessionAnswer::Reach(true);
      EXPECT_EQ(engine->Answer(id, wrong).code(),
                StatusCode::kInvalidArgument);
    }
  }
  // Stale: a migration after the question was shown voids the answer.
  pair.Publish(h, d.real_distribution);
  for (Lane& lane : lanes) {
    ASSERT_TRUE(pair.on.Migrate(lane.on_id).ok());
    ASSERT_TRUE(pair.off.Migrate(lane.off_id).ok());
    const Status stale_on = pair.on.Answer(lane.on_id, SessionAnswer::Reach(true));
    const Status stale_off =
        pair.off.Answer(lane.off_id, SessionAnswer::Reach(true));
    EXPECT_EQ(stale_on.code(), stale_off.code());
  }
  Finish(pair, lanes, h);
  for (const Lane& lane : lanes) {
    EXPECT_EQ(lane.on, RunToEnd(pair.off, lane.spec, h, lane.target));
  }
}

/// Drives `id` with answers drawn from `rng` (not any one target's), until
/// done or a batch round is rejected as inconsistent; records questions.
void DriveRandomly(Engine& engine, SessionId id, Rng& rng, Transcript* t) {
  for (int step = 0; step < 10'000; ++step) {
    const auto q = engine.Ask(id);
    AIGS_CHECK(q.ok());
    if (q->kind == Query::Kind::kDone) {
      t->found = q->node;
      return;
    }
    Record(*q, t);
    AIGS_CHECK(q->kind == Query::Kind::kReach);
    AIGS_CHECK(engine.Answer(id, SessionAnswer::Reach(rng.UniformInt(2) == 1))
                   .ok());
  }
}

TEST(PlanTreeSeams, SessionsPastTheNodeLimitPlanLiveAndExactly) {
  // top_down follows any path of a DAG the answers describe, so random
  // answers build far more than the 2n - 1 nodes of the truthful tree.
  Rng graph_rng(16);
  const Hierarchy dag = MustBuild(RandomDag(48, graph_rng, 0.8));
  CatalogConfig config;
  config.hierarchy = UnownedHierarchy(dag);
  config.distribution = EqualDistribution(dag.NumNodes());
  config.policy_specs = {"top_down"};
  Engine on(Options(true));
  Engine off(Options(false));
  ASSERT_TRUE(on.Publish(config).ok());
  ASSERT_TRUE(off.Publish(config).ok());
  const auto served = on.snapshot()->Serve("top_down");
  ASSERT_TRUE(served.ok());
  const PlanTree* tree = served->plans;
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->max_nodes(), PlanTree::kNodesPerTarget * dag.NumNodes());

  for (int s = 0; s < 1000; ++s) {
    Rng rng_on(1000 + s);
    Rng rng_off(1000 + s);
    const SessionId id_on = *on.Open("top_down");
    const SessionId id_off = *off.Open("top_down");
    Transcript t_on, t_off;
    DriveRandomly(on, id_on, rng_on, &t_on);
    DriveRandomly(off, id_off, rng_off, &t_off);
    ASSERT_EQ(t_on, t_off) << "session " << s;
  }
  const PlanCacheStats stats = on.Stats().plan_cache;
  EXPECT_EQ(stats.nodes, tree->max_nodes());
  EXPECT_GT(stats.evictions, 0u);
  // Truthful sessions still identify their targets on the full tree.
  for (NodeId target = 0; target < dag.NumNodes(); ++target) {
    EXPECT_EQ(RunToEnd(on, "top_down", dag, target),
              RunToEnd(off, "top_down", dag, target));
  }
}

TEST(PlanTreeSeams, PublishGivesTheNewEpochItsOwnTrees) {
  const Dataset& d = Catalogs().front();
  const Hierarchy& h = d.hierarchy;
  Engine engine(Options(true));
  ASSERT_TRUE(engine.Publish(ConfigFor(h, d.real_distribution,
                                       {"greedy"})).ok());
  const std::shared_ptr<const CatalogSnapshot> first = engine.snapshot();
  const NodeId target = static_cast<NodeId>(h.NumNodes() - 1);
  RunToEnd(engine, "greedy", h, target);
  const SessionId live = *engine.Open("greedy");
  Transcript t;
  Drive(engine, live, h, target, &t, 1);

  Rng rng(17);
  ASSERT_TRUE(engine.Publish(ConfigFor(
      h, ZipfRandomDistribution(h.NumNodes(), 2.0, rng), {"greedy"})).ok());
  const PlanTree* old_tree = first->Serve("greedy")->plans;
  const PlanTree* new_tree = engine.snapshot()->Serve("greedy")->plans;
  ASSERT_NE(old_tree, new_tree);
  const std::size_t old_nodes = old_tree->size();
  // The live session stays on its epoch and keeps reading its tree.
  const PlanCacheStats before = engine.Stats().plan_cache;
  Drive(engine, live, h, target, &t);
  EXPECT_EQ(t.found, target);
  EXPECT_EQ(engine.Stats().plan_cache.misses, before.misses);
  EXPECT_EQ(old_tree->size(), old_nodes);
}

// ---- (3) counters reconcile ---------------------------------------------------

TEST(PlanTreeCounters, HitsPlusMissesEqualResolvedAsksThroughEngine) {
  const Dataset& d = Catalogs().back();
  const Hierarchy& h = d.hierarchy;
  Engine engine(Options(true));
  ASSERT_TRUE(engine.Publish(ConfigFor(h, d.real_distribution,
                                       SeamSpecs())).ok());
  std::uint64_t resolved = 0;
  for (const std::string& spec : SeamSpecs()) {
    for (const NodeId target : SampleTargets(d, 8, 18)) {
      ExactOracle oracle(h.reach(), target);
      const SessionId id = *engine.Open(spec);
      for (;;) {
        const auto q = engine.Ask(id);
        ++resolved;
        ASSERT_TRUE(engine.Ask(id).ok());  // a re-read is not counted
        if (q->kind == Query::Kind::kDone) {
          break;
        }
        ASSERT_TRUE(engine.Answer(id, AnswerFromOracle(*q, oracle)).ok());
      }
      ASSERT_TRUE(engine.Close(id).ok());
    }
  }
  const PlanCacheStats stats = engine.Stats().plan_cache;
  EXPECT_EQ(stats.hits + stats.misses, resolved);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(PlanTreeCounters, HitsPlusMissesEqualResolvedAsksThroughAigsServer) {
  const Dataset& d = Catalogs().front();
  const Hierarchy& h = d.hierarchy;
  Engine engine(Options(true));
  ASSERT_TRUE(engine.Publish(ConfigFor(h, d.real_distribution,
                                       SeamSpecs())).ok());
  net::ServerOptions server_options;
  server_options.workers = 2;
  net::AigsServer server(engine, server_options);
  ASSERT_TRUE(server.Start().ok());
  net::AigsClient client;
  ASSERT_TRUE(client.Connect(server.endpoint()).ok());

  std::uint64_t resolved = 0;
  for (const std::string& spec : SeamSpecs()) {
    for (const NodeId target : SampleTargets(d, 6, 19)) {
      ExactOracle oracle(h.reach(), target);
      const auto id = client.Open(spec);
      ASSERT_TRUE(id.ok());
      for (;;) {
        const auto q = client.Ask(*id);
        ASSERT_TRUE(q.ok());
        ++resolved;
        ASSERT_TRUE(client.Ask(*id).ok());
        if (q->kind == Query::Kind::kDone) {
          EXPECT_EQ(q->node, target);
          break;
        }
        ASSERT_TRUE(client.Answer(*id, AnswerFromOracle(*q, oracle)).ok());
      }
      ASSERT_TRUE(client.Close(*id).ok());
    }
  }
  const auto wire = client.Stats();
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(wire->ops.asks, 2 * resolved);
  server.Stop();
  const PlanCacheStats stats = engine.Stats().plan_cache;
  EXPECT_EQ(stats.hits + stats.misses, resolved);
  EXPECT_GT(stats.hits, 0u);
}

// ---- (4) concurrency -----------------------------------------------------------

TEST(PlanTreeConcurrency, EightThreadsShareOneTree) {
  const Dataset& d = Catalogs().back();
  const Hierarchy& h = d.hierarchy;
  Engine engine(Options(true));
  Engine reference(Options(false));
  ASSERT_TRUE(engine.Publish(ConfigFor(h, d.real_distribution,
                                       SeamSpecs())).ok());
  ASSERT_TRUE(reference.Publish(ConfigFor(h, d.real_distribution,
                                          SeamSpecs())).ok());
  const std::vector<NodeId> targets = SampleTargets(d, 16, 20);
  std::vector<Transcript> expected;
  for (const std::string& spec : SeamSpecs()) {
    for (const NodeId target : targets) {
      expected.push_back(RunToEnd(reference, spec, h, target));
    }
  }

  constexpr int kThreads = 8;
  constexpr int kSearchesPerThread = 48;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kSearchesPerThread; ++i) {
        const std::size_t lane = rng.UniformInt(expected.size());
        const std::string& spec = SeamSpecs()[lane / targets.size()];
        const NodeId target = targets[lane % targets.size()];
        if (!(RunToEnd(engine, spec, h, target) == expected[lane])) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  const PlanCacheStats stats = engine.Stats().plan_cache;
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.hits + stats.misses,
            engine.Stats().ops.asks);  // one Ask per resolved question
}

// ---- (5) PlanTree unit behaviour ------------------------------------------------

TranscriptStep ReachStep(NodeId v, bool yes) {
  TranscriptStep step;
  step.kind = Query::Kind::kReach;
  step.nodes = {v};
  step.yes = yes;
  return step;
}

TEST(PlanTreeUnit, ReachPlansAndChildren) {
  PlanTree tree(10);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.max_nodes(), 40u);
  Query q;
  EXPECT_FALSE(tree.Lookup(PlanTree::kRoot, &q));
  tree.Plan(PlanTree::kRoot, Query::ReachQuery(3));
  tree.Plan(PlanTree::kRoot, Query::ReachQuery(4));  // the first plan stays
  ASSERT_TRUE(tree.Lookup(PlanTree::kRoot, &q));
  EXPECT_EQ(q.kind, Query::Kind::kReach);
  EXPECT_EQ(q.node, 3u);

  const PlanTree::NodeIndex yes = tree.Advance(PlanTree::kRoot,
                                               ReachStep(3, true));
  const PlanTree::NodeIndex no = tree.Advance(PlanTree::kRoot,
                                              ReachStep(3, false));
  EXPECT_NE(yes, no);
  EXPECT_EQ(tree.Advance(PlanTree::kRoot, ReachStep(3, true)), yes);
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.Parent(yes), PlanTree::kRoot);
  EXPECT_EQ(tree.Parent(PlanTree::kRoot), PlanTree::kOffTree);
  EXPECT_EQ(tree.Children(PlanTree::kRoot),
            (std::vector<PlanTree::NodeIndex>{no, yes}));
  EXPECT_EQ(tree.StepInto(yes), ReachStep(3, true));
  EXPECT_EQ(tree.StepInto(no), ReachStep(3, false));

  tree.Plan(yes, Query::Done(3));
  ASSERT_TRUE(tree.Lookup(yes, &q));
  EXPECT_EQ(q.kind, Query::Kind::kDone);
  EXPECT_EQ(q.node, 3u);
  EXPECT_TRUE(tree.Children(yes).empty());
}

TEST(PlanTreeUnit, ChoiceAndBatchPlansKeyChildrenByAnswer) {
  PlanTree tree(10);
  tree.Plan(PlanTree::kRoot, Query::ChoiceQuery({4, 5, 6}));
  TranscriptStep pick;
  pick.kind = Query::Kind::kChoice;
  pick.nodes = {4, 5, 6};
  pick.choice = 1;
  TranscriptStep none = pick;
  none.choice = -1;
  const PlanTree::NodeIndex picked = tree.Advance(PlanTree::kRoot, pick);
  const PlanTree::NodeIndex neither = tree.Advance(PlanTree::kRoot, none);
  EXPECT_NE(picked, neither);
  EXPECT_EQ(tree.Advance(PlanTree::kRoot, pick), picked);
  EXPECT_EQ(tree.StepInto(neither), none);

  tree.Plan(picked, Query::ReachBatch({7, 8}));
  Query q;
  ASSERT_TRUE(tree.Lookup(picked, &q));
  EXPECT_EQ(q.kind, Query::Kind::kReachBatch);
  EXPECT_EQ(q.choices, (std::vector<NodeId>{7, 8}));
  TranscriptStep batch;
  batch.kind = Query::Kind::kReachBatch;
  batch.nodes = {7, 8};
  batch.batch_answers = {true, false};
  const PlanTree::NodeIndex child = tree.Advance(picked, batch);
  EXPECT_EQ(tree.StepInto(child), batch);
  batch.batch_answers = {false, false};
  EXPECT_NE(tree.Advance(picked, batch), child);
  EXPECT_EQ(tree.Children(picked).size(), 2u);
}

TEST(PlanTreeUnit, TheNodeLimitRefusesNewChildren) {
  PlanTree tree(1);  // room for 4 nodes
  PlanTree::NodeIndex at = PlanTree::kRoot;
  for (NodeId v = 0; v < 3; ++v) {
    tree.Plan(at, Query::ReachQuery(v));
    at = tree.Advance(at, ReachStep(v, true));
    ASSERT_NE(at, PlanTree::kOffTree);
  }
  tree.Plan(at, Query::ReachQuery(9));
  EXPECT_EQ(tree.Advance(at, ReachStep(9, true)), PlanTree::kOffTree);
  EXPECT_EQ(tree.size(), tree.max_nodes());
  // Known children are still followed at the limit.
  EXPECT_NE(tree.Advance(PlanTree::kRoot, ReachStep(0, true)),
            PlanTree::kOffTree);
}

TEST(PlanTreeUnit, GrowsAcrossChunks) {
  PlanTree tree(2000);
  PlanTree::NodeIndex at = PlanTree::kRoot;
  for (NodeId v = 0; v < 3000; ++v) {
    tree.Plan(at, Query::ReachQuery(v));
    at = tree.Advance(at, ReachStep(v, v % 2 == 0));
    ASSERT_NE(at, PlanTree::kOffTree);
  }
  EXPECT_EQ(tree.size(), 3001u);
  for (PlanTree::NodeIndex node = at; node != PlanTree::kRoot;
       node = tree.Parent(node)) {
    const TranscriptStep step = tree.StepInto(node);
    EXPECT_EQ(step.yes, step.nodes[0] % 2 == 0);
  }
}

}  // namespace
}  // namespace aigs

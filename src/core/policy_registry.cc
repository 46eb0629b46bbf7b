#include "core/policy_registry.h"

#include <utility>

#include "baselines/migs.h"
#include "baselines/top_down.h"
#include "baselines/wigs.h"
#include "core/batched_greedy.h"
#include "core/cost_sensitive.h"
#include "core/greedy.h"
#include "core/greedy_dag.h"
#include "core/greedy_naive.h"
#include "core/greedy_tree.h"
#include "eval/scripted_policy.h"
#include "util/string_util.h"

namespace aigs {

// ---- PolicyOptions ---------------------------------------------------------

StatusOr<PolicyOptions> PolicyOptions::Parse(std::string_view text) {
  PolicyOptions options;
  if (Trim(text).empty()) {
    return options;
  }
  for (const std::string_view item : Split(text, ',')) {
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("policy option '" + std::string(item) +
                                     "' is not key=value");
    }
    const std::string key(Trim(item.substr(0, eq)));
    const std::string value(Trim(item.substr(eq + 1)));
    if (key.empty()) {
      return Status::InvalidArgument("empty policy option key in '" +
                                     std::string(text) + "'");
    }
    if (!options.values_.emplace(key, value).second) {
      return Status::InvalidArgument("duplicate policy option '" + key + "'");
    }
  }
  return options;
}

StatusOr<std::int64_t> PolicyOptions::ConsumeInt(const std::string& key,
                                                 std::int64_t fallback) {
  consumed_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  AIGS_ASSIGN_OR_RETURN(const std::int64_t value, ParseInt64(it->second));
  return value;
}

StatusOr<double> PolicyOptions::ConsumeDouble(const std::string& key,
                                              double fallback) {
  consumed_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  AIGS_ASSIGN_OR_RETURN(const double value, ParseDouble(it->second));
  return value;
}

StatusOr<bool> PolicyOptions::ConsumeBool(const std::string& key,
                                          bool fallback) {
  consumed_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") {
    return true;
  }
  if (v == "false" || v == "0" || v == "no") {
    return false;
  }
  return Status::InvalidArgument("option '" + key +
                                 "' expects a boolean, got '" + v + "'");
}

StatusOr<std::vector<NodeId>> PolicyOptions::ConsumeNodeList(
    const std::string& key) {
  consumed_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return Status::InvalidArgument("required option '" + key + "' is missing");
  }
  std::vector<NodeId> nodes;
  for (const std::string_view part : Split(it->second, '+')) {
    AIGS_ASSIGN_OR_RETURN(const std::uint64_t id, ParseUint64(part));
    if (id >= kInvalidNode) {
      return Status::OutOfRange("node id " + std::string(part) +
                                " out of range in option '" + key + "'");
    }
    nodes.push_back(static_cast<NodeId>(id));
  }
  if (nodes.empty()) {
    return Status::InvalidArgument("option '" + key + "' lists no nodes");
  }
  return nodes;
}

StatusOr<std::string> PolicyOptions::ConsumeString(const std::string& key,
                                                   std::string fallback) {
  consumed_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? std::move(fallback) : it->second;
}

Status PolicyOptions::VerifyAllConsumed() const {
  for (const auto& [key, value] : values_) {
    if (consumed_.find(key) == consumed_.end()) {
      return Status::InvalidArgument("unknown policy option '" + key + "'");
    }
  }
  return Status::OK();
}

// ---- PolicySpec ------------------------------------------------------------

StatusOr<PolicySpec> PolicySpec::Parse(std::string_view spec) {
  PolicySpec parsed;
  const std::string_view trimmed = Trim(spec);
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty policy spec");
  }
  const std::size_t colon = trimmed.find(':');
  parsed.name = std::string(Trim(trimmed.substr(0, colon)));
  if (colon != std::string_view::npos) {
    AIGS_ASSIGN_OR_RETURN(parsed.options,
                          PolicyOptions::Parse(trimmed.substr(colon + 1)));
  }
  return parsed;
}

// ---- Factories for the built-in policies -----------------------------------

namespace {

using FactoryResult = StatusOr<std::unique_ptr<Policy>>;

Status RequireTree(const PolicyContext& context, const char* name) {
  if (!context.hierarchy->is_tree()) {
    return Status::FailedPrecondition(std::string(name) +
                                      " requires a tree hierarchy");
  }
  return Status::OK();
}

FactoryResult MakeGreedyAuto(const PolicyContext& context, PolicyOptions&) {
  return MakeGreedyPolicy(*context.hierarchy, *context.distribution);
}

FactoryResult MakeGreedyTree(const PolicyContext& context,
                             PolicyOptions& options) {
  AIGS_RETURN_NOT_OK(RequireTree(context, "greedy_tree"));
  GreedyTreeOptions tree_options;
  AIGS_ASSIGN_OR_RETURN(tree_options.use_rounded_weights,
                        options.ConsumeBool("rounded", false));
  AIGS_ASSIGN_OR_RETURN(const std::string scan,
                        options.ConsumeString("scan", "linear"));
  if (scan == "heap") {
    tree_options.child_scan = GreedyTreeOptions::ChildScan::kLazyHeap;
  } else if (scan != "linear") {
    return Status::InvalidArgument(
        "greedy_tree scan must be linear|heap, got '" + scan + "'");
  }
  return std::unique_ptr<Policy>(new GreedyTreePolicy(
      *context.hierarchy, *context.distribution, tree_options));
}

FactoryResult MakeGreedyDag(const PolicyContext& context,
                            PolicyOptions& options) {
  GreedyDagOptions dag_options;
  AIGS_ASSIGN_OR_RETURN(dag_options.use_rounded_weights,
                        options.ConsumeBool("rounded", true));
  AIGS_ASSIGN_OR_RETURN(const bool prune, options.ConsumeBool("prune", true));
  dag_options.disable_dominance_pruning = !prune;
  return std::unique_ptr<Policy>(new GreedyDagPolicy(
      *context.hierarchy, *context.distribution, dag_options));
}

StatusOr<SelectionBackend> ConsumeBackend(const PolicyContext& context,
                                          PolicyOptions& options) {
  AIGS_ASSIGN_OR_RETURN(const std::string backend,
                        options.ConsumeString("backend", "index"));
  if (backend == "index") {
    return SelectionBackend::kSplitIndex;
  }
  if (backend == "bfs") {
    return SelectionBackend::kBfsRescan;
  }
  // closure/compressed both run the split-weight index; they additionally
  // pin WHICH closure storage the hierarchy must carry, so a scenario that
  // claims to measure compressed rows fails loudly when the hierarchy was
  // built dense (and vice versa).
  const ReachabilityIndex::Storage storage = context.hierarchy->reach().storage();
  if (backend == "closure") {
    if (storage != ReachabilityIndex::Storage::kDenseClosure) {
      return Status::InvalidArgument(
          "backend=closure requires dense closure rows "
          "(ReachabilityOptions::Closure::kDense), but this hierarchy uses " +
          std::string(storage == ReachabilityIndex::Storage::kEuler
                          ? "Euler intervals (tree)"
                          : "compressed closure rows"));
    }
    return SelectionBackend::kSplitIndex;
  }
  if (backend == "compressed") {
    if (storage != ReachabilityIndex::Storage::kCompressedClosure) {
      return Status::InvalidArgument(
          "backend=compressed requires compressed closure rows (the "
          "default for DAGs), but this hierarchy uses " +
          std::string(storage == ReachabilityIndex::Storage::kEuler
                          ? "Euler intervals (tree)"
                          : "dense closure rows"));
    }
    return SelectionBackend::kSplitIndex;
  }
  return Status::InvalidArgument(
      "backend must be index|bfs|closure|compressed, got '" + backend + "'");
}

FactoryResult MakeGreedyNaive(const PolicyContext& context,
                              PolicyOptions& options) {
  GreedyNaiveOptions naive_options;
  AIGS_ASSIGN_OR_RETURN(naive_options.use_rounded_weights,
                        options.ConsumeBool("rounded", false));
  AIGS_ASSIGN_OR_RETURN(naive_options.backend,
                        ConsumeBackend(context, options));
  return std::unique_ptr<Policy>(new GreedyNaivePolicy(
      *context.hierarchy, *context.distribution, naive_options));
}

FactoryResult MakeBatched(const PolicyContext& context,
                          PolicyOptions& options) {
  AIGS_ASSIGN_OR_RETURN(const std::int64_t k, options.ConsumeInt("k", 4));
  if (k < 1) {
    return Status::InvalidArgument("batched k must be >= 1");
  }
  BatchedGreedyOptions batched_options;
  batched_options.questions_per_round = static_cast<std::size_t>(k);
  AIGS_ASSIGN_OR_RETURN(batched_options.backend,
                        ConsumeBackend(context, options));
  return std::unique_ptr<Policy>(new BatchedGreedyPolicy(
      *context.hierarchy, *context.distribution, batched_options));
}

FactoryResult MakeCostSensitive(const PolicyContext& context,
                                PolicyOptions& options) {
  if (context.cost_model == nullptr) {
    return Status::FailedPrecondition(
        "cost_sensitive requires a cost model in the PolicyContext");
  }
  CostSensitiveOptions cs_options;
  AIGS_ASSIGN_OR_RETURN(cs_options.use_rounded_weights,
                        options.ConsumeBool("rounded", true));
  return std::unique_ptr<Policy>(
      new CostSensitiveGreedyPolicy(*context.hierarchy, *context.distribution,
                                    *context.cost_model, cs_options));
}

FactoryResult MakeMigs(const PolicyContext& context, PolicyOptions& options) {
  MigsOptions migs_options;
  AIGS_ASSIGN_OR_RETURN(const std::int64_t choices,
                        options.ConsumeInt("choices", 4));
  if (choices < 0) {
    return Status::InvalidArgument("migs choices must be >= 0");
  }
  migs_options.max_choices_per_question = static_cast<std::size_t>(choices);
  AIGS_ASSIGN_OR_RETURN(const bool ordered,
                        options.ConsumeBool("ordered", false));
  if (ordered) {
    return std::unique_ptr<Policy>(new MigsPolicy(
        *context.hierarchy, *context.distribution, migs_options));
  }
  return std::unique_ptr<Policy>(
      new MigsPolicy(*context.hierarchy, migs_options));
}

FactoryResult MakeWigs(const PolicyContext& context, PolicyOptions&) {
  return MakeWigsPolicy(*context.hierarchy);
}

FactoryResult MakeTopDown(const PolicyContext& context, PolicyOptions&) {
  return std::unique_ptr<Policy>(new TopDownPolicy(*context.hierarchy));
}

FactoryResult MakeScripted(const PolicyContext& context,
                           PolicyOptions& options) {
  AIGS_ASSIGN_OR_RETURN(std::vector<NodeId> order,
                        options.ConsumeNodeList("order"));
  AIGS_ASSIGN_OR_RETURN(const std::string label,
                        options.ConsumeString("label", "Scripted"));
  for (const NodeId v : order) {
    if (v >= context.hierarchy->NumNodes()) {
      return Status::OutOfRange("scripted order references node " +
                                std::to_string(v) + " outside the hierarchy");
    }
  }
  return std::unique_ptr<Policy>(
      new ScriptedPolicy(*context.hierarchy, std::move(order), label));
}

void RegisterBuiltins(PolicyRegistry& registry) {
  const auto must = [](Status s) { AIGS_CHECK(s.ok()); };
  must(registry.Register("greedy",
                         "GreedyTree on trees, GreedyDAG otherwise "
                         "(paper defaults)",
                         MakeGreedyAuto));
  must(registry.Register("greedy_tree",
                         "Algorithm 4 on trees; options: rounded=bool, "
                         "scan=linear|heap",
                         MakeGreedyTree));
  must(registry.Register("greedy_dag",
                         "Algorithm 6 on DAGs/trees; options: rounded=bool, "
                         "prune=bool",
                         MakeGreedyDag));
  must(registry.Register("greedy_naive",
                         "Algorithm 2 greedy; options: rounded=bool, "
                         "backend=index|bfs|closure|compressed (bfs = "
                         "O(n·m)/question rescans; closure/compressed pin "
                         "the hierarchy's closure storage)",
                         MakeGreedyNaive));
  must(registry.Register("naive", "alias of greedy_naive", MakeGreedyNaive));
  must(registry.Register("batched",
                         "batched greedy (§III-E); options: k=int questions "
                         "per round, backend=index|bfs|closure|compressed",
                         MakeBatched));
  must(registry.Register("cost_sensitive",
                         "CAIGS greedy (Definition 9); needs a cost model; "
                         "options: rounded=bool",
                         MakeCostSensitive));
  must(registry.Register("migs",
                         "multiple-choice baseline; options: choices=int "
                         "(0=all), ordered=bool",
                         MakeMigs));
  must(registry.Register("wigs", "worst-case baseline (Tao et al.)",
                         MakeWigs));
  must(registry.Register("top_down", "naive root-to-leaf baseline",
                         MakeTopDown));
  must(registry.Register("topdown", "alias of top_down", MakeTopDown));
  must(registry.Register("scripted",
                         "fixed question order; options: order=id+id+..., "
                         "label=string",
                         MakeScripted));
}

}  // namespace

// ---- PolicyRegistry --------------------------------------------------------

PolicyRegistry& PolicyRegistry::Global() {
  static PolicyRegistry* registry = [] {
    auto* r = new PolicyRegistry();
    RegisterBuiltins(*r);
    return r;
  }();
  return *registry;
}

Status PolicyRegistry::Register(std::string name, std::string help,
                                Factory factory) {
  AIGS_CHECK(factory != nullptr);
  if (name.empty()) {
    return Status::InvalidArgument("policy name must not be empty");
  }
  const auto [it, inserted] = factories_.emplace(
      std::move(name), std::make_pair(std::move(help), std::move(factory)));
  if (!inserted) {
    return Status::InvalidArgument("policy '" + it->first +
                                   "' is already registered");
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<Policy>> PolicyRegistry::Create(
    std::string_view spec, const PolicyContext& context) const {
  if (context.hierarchy == nullptr || context.distribution == nullptr) {
    return Status::FailedPrecondition(
        "PolicyContext needs a hierarchy and a distribution");
  }
  if (context.distribution->size() != context.hierarchy->NumNodes()) {
    return Status::InvalidArgument(
        "distribution size does not match the hierarchy's node count");
  }
  AIGS_ASSIGN_OR_RETURN(PolicySpec parsed, PolicySpec::Parse(spec));
  const auto it = factories_.find(parsed.name);
  if (it == factories_.end()) {
    std::string known;
    for (const Entry& entry : List()) {
      known += known.empty() ? entry.name : ", " + entry.name;
    }
    return Status::NotFound("unknown policy '" + parsed.name +
                            "' (registered: " + known + ")");
  }
  AIGS_ASSIGN_OR_RETURN(std::unique_ptr<Policy> policy,
                        it->second.second(context, parsed.options));
  AIGS_RETURN_NOT_OK(parsed.options.VerifyAllConsumed());
  return policy;
}

bool PolicyRegistry::Contains(const std::string& name) const {
  return factories_.find(name) != factories_.end();
}

std::vector<PolicyRegistry::Entry> PolicyRegistry::List() const {
  std::vector<Entry> entries;
  entries.reserve(factories_.size());
  for (const auto& [name, value] : factories_) {
    entries.push_back(Entry{name, value.first});
  }
  return entries;
}

}  // namespace aigs

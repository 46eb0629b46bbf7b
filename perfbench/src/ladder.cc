// The traced run. It replays the workload's seeded sessions down a ladder
// of rungs, each timing the public entry points of one src/ module from
// here (nothing inside src/ is instrumented):
//
//   data → graph → kernels → core (SearchSession) → service (Engine)
//   → wal (Engine with durability) → net (codec, HandleRequest, loopback
//   round trip) → the workload's own loop (process counters, spans).
//
// Every rung starts the target stream from the same seed, so all rungs see
// the same transcripts. Each rung gets a fixed share of --seconds.
#include <algorithm>
#include <filesystem>

#include "core/policy_registry.h"
#include "data/synthetic_catalog.h"
#include "net/client.h"
#include "net/wire.h"
#include "runs.h"
#include "util/bitset.h"
#include "util/kernels.h"

namespace perfbench {

using aigs::NodeId;
using aigs::Query;
using aigs::SessionAnswer;
using aigs::Status;

namespace {

double MsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

// Counts ops and wrong targets of the rung loops into the run's outcome.
class Tally {
 public:
  explicit Tally(Outcome& out) : out_(out) {}
  bool Count(const Status& status) {
    ++out_.attempted;
    if (!status.ok()) {
      ++out_.failed;
      if (out_.failed == 1) {
        out_.Fail("op failed: " + status.ToString());
      }
    }
    return status.ok();
  }
  void CheckTarget(NodeId found, NodeId target) {
    if (found != target) {
      out_.Fail("a rung session ended at the wrong target");
    }
  }

 private:
  Outcome& out_;
};

// Per-call latencies of one session-API rung.
struct CallTimes {
  Histogram open_close;
  Histogram ask;
  Histogram answer;
  std::uint64_t sessions = 0;
};

// HandleRequest — the server's request dispatch — behind the session API
// shape the rung loop drives.
class HandleApi {
 public:
  explicit HandleApi(aigs::Engine& engine) : engine_(engine) {}
  aigs::StatusOr<aigs::SessionId> Open(const std::string& policy) {
    aigs::net::WireRequest request;
    request.op = aigs::net::WireOp::kOpen;
    request.text = policy;
    const auto response = aigs::net::HandleRequest(engine_, request);
    if (!response.ok()) {
      return response.ToStatus();
    }
    return response.id;
  }
  aigs::StatusOr<Query> Ask(aigs::SessionId id) {
    const auto response = Call(aigs::net::WireOp::kAsk, id, {});
    if (!response.ok()) {
      return response.ToStatus();
    }
    return response.query;
  }
  Status Answer(aigs::SessionId id, const SessionAnswer& answer) {
    return Call(aigs::net::WireOp::kAnswer, id, answer).ToStatus();
  }
  Status Close(aigs::SessionId id) {
    return Call(aigs::net::WireOp::kClose, id, {}).ToStatus();
  }

 private:
  aigs::net::WireResponse Call(aigs::net::WireOp op, aigs::SessionId id,
                               const SessionAnswer& answer) {
    aigs::net::WireRequest request;
    request.op = op;
    request.id = id;
    request.answer = answer;
    return aigs::net::HandleRequest(engine_, request);
  }
  aigs::Engine& engine_;
};

// Runs sessions through `api` (Engine, HandleApi or AigsClient) until
// `deadline`, at least one, timing each call. The oracle answer is
// computed outside the timers.
template <typename Api>
void TimeSessions(Api& api, const std::string& policy,
                  const aigs::ReachabilityIndex& reach, TargetStream& stream,
                  Clock::time_point deadline, CallTimes& times,
                  Tally& tally) {
  do {
    const NodeId target = stream.Next();
    std::int64_t t0 = NowNs();
    auto opened = api.Open(policy);
    const std::int64_t open_ns = NowNs() - t0;
    if (!tally.Count(opened.status())) {
      return;
    }
    for (;;) {
      t0 = NowNs();
      auto query = api.Ask(*opened);
      times.ask.Record(NowNs() - t0);
      if (!tally.Count(query.status())) {
        return;
      }
      if (query->kind == Query::Kind::kDone) {
        tally.CheckTarget(query->node, target);
        break;
      }
      const SessionAnswer answer =
          SessionAnswer::Reach(reach.Reaches(query->node, target));
      t0 = NowNs();
      const Status answered = api.Answer(*opened, answer);
      times.answer.Record(NowNs() - t0);
      if (!tally.Count(answered)) {
        return;
      }
    }
    t0 = NowNs();
    const Status closed = api.Close(*opened);
    times.open_close.Record(open_ns + NowNs() - t0);
    tally.Count(closed);
    ++times.sessions;
  } while (Clock::now() < deadline);
}

// Drives fresh SearchSessions of `policy` on successive targets until
// `deadline` (at least one session), timing the planner (Next) and the
// applier (OnReach) of every step.
void ReplayDirect(const aigs::Policy& policy,
                  const aigs::ReachabilityIndex& reach, TargetStream stream,
                  Clock::time_point deadline, Histogram& plan,
                  Histogram& apply, Tally& tally) {
  do {
    const NodeId target = stream.Next();
    auto session = policy.NewSession();
    for (;;) {
      std::int64_t t0 = NowNs();
      const Query query = session->Next();
      plan.Record(NowNs() - t0);
      if (query.kind == Query::Kind::kDone) {
        tally.CheckTarget(query.node, target);
        break;
      }
      const bool yes = reach.Reaches(query.node, target);
      t0 = NowNs();
      session->OnReach(query.node, yes);
      apply.Record(NowNs() - t0);
    }
  } while (Clock::now() < deadline);
}

// Share of turn time spent outside the layer calls inside the turn
// (client-side bookkeeping), in percent.
double UnattributedPct(const Tracer& tracer) {
  const auto& spans = tracer.spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0 && span.end_ns > 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  double turn_ns = 0;
  double self_ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (tracer.name(spans[i].name) == "turn" && spans[i].end_ns > 0) {
      const auto d = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      turn_ns += d;
      self_ns += d - static_cast<double>(child_ns[i]);
    }
  }
  return turn_ns > 0 ? 100.0 * self_ns / turn_ns : 0.0;
}

Clock::time_point After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

}  // namespace

Outcome RunLadder(const WorkloadSpec& spec, const RunOptions& options,
                  const CpuPlan& cpus) {
  Outcome out;
  Tally tally(out);
  aigs::Weight kernel_sink = 0;
  const double budget = options.seconds;
  const bool amazon = spec.catalog == Catalog::kAmazon;

  // ---- data: the catalog generators -----------------------------------------
  const aigs::CatalogParams params =
      amazon ? aigs::AmazonParams() : aigs::ImageNetParams();
  std::int64_t t0 = NowNs();
  aigs::Digraph graph = amazon ? aigs::GenerateCatalogTree(params)
                               : aigs::GenerateCatalogDag(params);
  aigs::Distribution distribution = aigs::AssignZipfObjectCounts(
      params.num_nodes,
      amazon ? aigs::kAmazonNumObjects : aigs::kImageNetNumObjects, 1.0,
      params.seed + 17);
  out.Add("data.generate_ms", MsSince(t0), "ms");

  // ---- graph: Hierarchy::Build and its reachability index --------------------
  t0 = NowNs();
  auto built = aigs::Hierarchy::Build(std::move(graph));
  out.Add("graph.build_ms", MsSince(t0), "ms");
  if (!built.ok()) {
    out.Fail(built.status().ToString());
    return out;
  }
  auto hierarchy = std::make_shared<const aigs::Hierarchy>(*std::move(built));
  const aigs::ReachabilityIndex& reach = hierarchy->reach();
  out.Add("graph.index_mb",
          static_cast<double>(reach.MemoryBytes()) / (1 << 20), "MB");
  {
    // The ladder must serve the very catalog the end-to-end run serves.
    std::shared_ptr<const aigs::Hierarchy> reference;
    aigs::Distribution reference_distribution;
    MakeCatalog(spec.catalog, &reference, &reference_distribution);
    if (reference->NumNodes() != hierarchy->NumNodes() ||
        reference->NumEdges() != hierarchy->NumEdges() ||
        reference_distribution.weights() != distribution.weights()) {
      out.Fail("the generated catalog differs from Make*Dataset's");
      return out;
    }
  }

  // ---- kernels: the fused masked count + weighted sum on closure rows --------
  {
    // Trees keep Euler intervals, so their closure rows are built here
    // for this rung only.
    std::unique_ptr<aigs::ReachabilityIndex> dense;
    if (reach.storage() != aigs::ReachabilityIndex::Storage::kDenseClosure) {
      aigs::ReachabilityOptions dense_options;
      dense_options.closure = aigs::ReachabilityOptions::Closure::kDense;
      dense_options.force_closure_on_trees = true;
      dense = std::make_unique<aigs::ReachabilityIndex>(hierarchy->graph(),
                                                         dense_options);
    }
    const aigs::ReachabilityIndex& rows = dense ? *dense : reach;
    const std::size_t n = hierarchy->NumNodes();
    const std::size_t words = n / 64;  // the kernels take full words only
    const aigs::BlockedWeights blocked(distribution.weights());
    aigs::Rng rng(options.seed);
    std::vector<std::uint64_t> alive(words);
    for (std::uint64_t& word : alive) {
      word = rng.Next();  // a half-eliminated candidate set
    }
    std::vector<const std::uint64_t*> sample(256);
    for (const std::uint64_t*& row : sample) {
      row = rows.ClosureRow(static_cast<NodeId>(rng.UniformInt(n)))
                .words()
                .data();
    }
    const aigs::kernels::Ops& active = aigs::kernels::Active();
    const aigs::kernels::Ops& scalar =
        aigs::kernels::OpsFor(aigs::kernels::Mode::kScalar);
    const aigs::Weight* weights = distribution.weights().data();
    const aigs::Weight* block_sums = blocked.block_sums().data();
    for (const std::uint64_t* row : sample) {
      const auto a = active.masked_count_weight(row, alive.data(), words,
                                                weights, block_sums);
      const auto s = scalar.masked_count_weight(row, alive.data(), words,
                                                weights, block_sums);
      if (a.count != s.count || a.weight != s.weight) {
        out.Fail("the active kernel disagrees with the scalar reference");
      }
    }
    cpus.UseClientCpu();
    std::uint64_t calls = 0;
    const auto deadline = After(budget * 0.08);
    t0 = NowNs();
    do {
      for (const std::uint64_t* row : sample) {
        const auto r = active.masked_count_weight(row, alive.data(), words,
                                                  weights, block_sums);
        kernel_sink += r.weight + r.count;
      }
      calls += sample.size();
    } while (Clock::now() < deadline);
    const double ns = static_cast<double>(NowNs() - t0);
    cpus.UseServerCpus();
    out.Add("kernels.masked_count_weight_ns_per_kword",
            ns / (static_cast<double>(calls * words) / 1e3), "ns/kword");
  }

  // ---- core: policy construction and SearchSession plan / apply --------------
  {
    const aigs::PolicyContext context{hierarchy.get(), &distribution,
                                      nullptr};
    std::vector<double> build_ms;
    std::unique_ptr<aigs::Policy> policy;
    for (int i = 0; i < 3; ++i) {
      policy.reset();
      t0 = NowNs();
      auto created = aigs::PolicyRegistry::Global().Create(spec.policy,
                                                           context);
      build_ms.push_back(MsSince(t0));
      if (!created.ok()) {
        out.Fail(created.status().ToString());
        return out;
      }
      policy = *std::move(created);
    }
    std::sort(build_ms.begin(), build_ms.end());
    out.Add("core.policy_build_ms", build_ms[1], "ms");
    Histogram plan;
    Histogram apply;
    cpus.UseClientCpu();
    ReplayDirect(*policy, reach, TargetStream(distribution, options.seed),
                 After(budget * 0.10), plan, apply, tally);
    cpus.UseServerCpus();
    out.Add("core.plan_p50_us", plan.QuantileUs(0.50), "us");
    out.Add("core.plan_p99_us", plan.QuantileUs(0.99), "us");
    out.Add("core.apply_p50_us", apply.QuantileUs(0.50), "us");
    out.Add("core.apply_p99_us", apply.QuantileUs(0.99), "us");

    // Algorithm 2 over the same transcripts. On a DAG its planner is the
    // closure-mode flat scan that bottoms out in util/kernels.
    auto naive = aigs::PolicyRegistry::Global().Create("greedy_naive",
                                                       context);
    if (!naive.ok()) {
      out.Fail(naive.status().ToString());
      return out;
    }
    Histogram naive_plan;
    Histogram naive_apply;
    cpus.UseClientCpu();
    ReplayDirect(**naive, reach, TargetStream(distribution, options.seed),
                 After(budget * 0.04), naive_plan, naive_apply, tally);
    cpus.UseServerCpus();
    out.Add("core.naive_plan_p50_us", naive_plan.QuantileUs(0.50), "us");
  }

  // ---- service: Engine::Publish and the session API with the plan cache -----
  Stack plain{hierarchy, distribution, nullptr, nullptr, nullptr};
  t0 = NowNs();
  if (const Status s = Serve(plain, spec.policy, "", 0); !s.ok()) {
    out.Fail(s.ToString());
    return out;
  }
  out.Add("service.publish_ms", MsSince(t0), "ms");
  {
    const aigs::PlanCacheStats before = plain.engine->Stats().plan_cache;
    CallTimes times;
    TargetStream stream(distribution, options.seed);
    cpus.UseClientCpu();
    TimeSessions(*plain.engine, spec.policy, reach, stream,
                 After(budget * 0.14), times, tally);
    cpus.UseServerCpus();
    const aigs::PlanCacheStats after = plain.engine->Stats().plan_cache;
    const auto hits = static_cast<double>(after.hits - before.hits);
    const auto lookups = hits + static_cast<double>(after.misses -
                                                    before.misses);
    out.Add("service.ask_p50_us", times.ask.QuantileUs(0.50), "us");
    out.Add("service.ask_p99_us", times.ask.QuantileUs(0.99), "us");
    out.Add("service.answer_p50_us", times.answer.QuantileUs(0.50), "us");
    out.Add("service.answer_p99_us", times.answer.QuantileUs(0.99), "us");
    out.Add("service.open_close_us", times.open_close.QuantileUs(0.50), "us");
    out.Add("service.plan_cache_hit_rate", lookups > 0 ? hits / lookups : 0,
            "ratio");
    out.Add("service.plan_cache_evictions",
            static_cast<double>(after.evictions - before.evictions), "count");
  }

  // ---- wal: the same engine API with durability on ---------------------------
  // Auto-checkpoints are off in this rung so one WAL segment holds every
  // record it appends and the per-session counters are exact.
  Stack durable{hierarchy, distribution, nullptr, nullptr, nullptr};
  if (const Status s = Serve(durable, spec.policy, options.workdir + "/tmp",
                             0);
      !s.ok()) {
    out.Fail(s.ToString());
    return out;
  }
  {
    const aigs::DurableStoreStats before = durable.engine->Stats().durability;
    CallTimes times;
    TargetStream stream(distribution, options.seed);
    cpus.UseClientCpu();
    TimeSessions(*durable.engine, spec.policy, reach, stream,
                 After(budget * 0.14), times, tally);
    cpus.UseServerCpus();
    const aigs::DurableStoreStats after = durable.engine->Stats().durability;
    const auto per_session = [&](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(a - b) / static_cast<double>(times.sessions);
    };
    out.Add("wal.answer_p50_us", times.answer.QuantileUs(0.50), "us");
    out.Add("wal.answer_p99_us", times.answer.QuantileUs(0.99), "us");
    out.Add("wal.appends_per_session",
            per_session(after.appends, before.appends), "count");
    out.Add("wal.syncs_per_session",
            per_session(after.wal_syncs, before.wal_syncs), "count");
    out.Add("wal.bytes_per_session",
            per_session(after.wal_bytes, before.wal_bytes), "B");
  }

  // ---- net: codec, request dispatch, and one loopback round trip ------------
  {
    aigs::net::WireRequest request;
    request.op = aigs::net::WireOp::kAnswer;
    request.id = 12345;
    request.answer = SessionAnswer::Reach(true);
    aigs::net::WireResponse response;
    response.op = aigs::net::WireOp::kAsk;
    response.query = Query::ReachQuery(static_cast<NodeId>(
        hierarchy->NumNodes() / 2));
    std::uint64_t pairs = 0;
    bool decoded = true;
    cpus.UseClientCpu();
    const auto deadline = After(budget * 0.03);
    t0 = NowNs();
    do {
      for (int i = 0; i < 64; ++i) {
        std::string_view payload;
        std::size_t consumed = 0;
        const std::string req_frame = aigs::net::EncodeRequest(request);
        aigs::net::ExtractFrame(req_frame, &payload, &consumed, nullptr);
        aigs::net::WireRequest req_back;
        decoded &= aigs::net::DecodeRequestPayload(payload, &req_back).ok();
        const std::string resp_frame = aigs::net::EncodeResponse(response);
        aigs::net::ExtractFrame(resp_frame, &payload, &consumed, nullptr);
        aigs::net::WireResponse resp_back;
        decoded &= aigs::net::DecodeResponsePayload(payload, &resp_back).ok() &&
                   resp_back.query.node == response.query.node;
      }
      pairs += 64;
    } while (Clock::now() < deadline);
    out.Add("net.codec_ns",
            static_cast<double>(NowNs() - t0) / static_cast<double>(pairs),
            "ns");
    if (!decoded) {
      out.Fail("a wire frame did not decode to what was encoded");
    }

    HandleApi handle(*durable.engine);
    CallTimes handled;
    TargetStream stream(distribution, options.seed);
    TimeSessions(handle, spec.policy, reach, stream, After(budget * 0.07),
                 handled, tally);
    Histogram merged = handled.ask;
    merged.Merge(handled.answer);
    out.Add("net.handle_p50_us", merged.QuantileUs(0.50), "us");

    aigs::net::AigsClient client;
    if (const Status s = client.Connect(durable.server->endpoint());
        !s.ok()) {
      cpus.UseServerCpus();
      out.Fail(s.ToString());
      return out;
    }
    CallTimes trips;
    TargetStream rtt_stream(distribution, options.seed);
    TimeSessions(client, spec.policy, reach, rtt_stream, After(budget * 0.10),
                 trips, tally);
    cpus.UseServerCpus();
    Histogram rtt = trips.ask;
    rtt.Merge(trips.answer);
    out.Add("net.rtt_p50_us", rtt.QuantileUs(0.50), "us");
    out.Add("net.rtt_p99_us", rtt.QuantileUs(0.99), "us");
  }
  durable.server.reset();
  durable.engine.reset();
  durable.wal_dir.reset();

  // ---- the workload's own loop: process counters, then spans ----------------
  Stack own{hierarchy, distribution, nullptr, nullptr, nullptr};
  if (const Status s = Serve(own, spec.policy,
                             spec.wire ? options.workdir + "/tmp" : "",
                             aigs::DurabilityOptions{}.checkpoint_every);
      !s.ok()) {
    out.Fail(s.ToString());
    return out;
  }
  auto driver = MakeDriver(spec, own);
  if (!driver.ok()) {
    out.Fail(driver.status().ToString());
    return out;
  }
  LoopStats warm;
  LoopStats plain_loop;
  LoopStats traced_loop;
  Tracer tracer(400'000);
  {
    TargetStream stream(distribution, options.seed);
    cpus.UseClientCpu();
    (*driver)->Run(stream, spec.check_sessions, {}, warm, nullptr, nullptr);
    const ProcSample p0 = ProcSample::Now();
    (*driver)->Run(stream, 0, After(budget * 0.15), plain_loop, nullptr,
                   nullptr);
    const ProcSample p1 = ProcSample::Now();
    (*driver)->Run(stream, 0, After(budget * 0.15), traced_loop, nullptr,
                   &tracer);
    cpus.UseServerCpus();
    const double ksessions = static_cast<double>(plain_loop.sessions) / 1e3;
    out.Add("proc.user_cpu_ms_per_ksession", (p1.user_ms - p0.user_ms) /
                                                 ksessions, "ms");
    out.Add("proc.sys_cpu_ms_per_ksession", (p1.sys_ms - p0.sys_ms) /
                                                ksessions, "ms");
    out.Add("proc.ctx_switches_per_op",
            static_cast<double>(p1.ctx_switches - p0.ctx_switches) /
                static_cast<double>(plain_loop.attempted),
            "count");
  }
  for (const LoopStats* loop : {&warm, &plain_loop, &traced_loop}) {
    out.attempted += loop->attempted;
    out.failed += loop->failed;
    if (loop->wrong_targets > 0) {
      out.Fail("a traced session ended at the wrong target");
    }
  }
  const double untraced_p50 = plain_loop.turn.QuantileUs(0.50);
  const double traced_p50 = traced_loop.turn.QuantileUs(0.50);
  out.Add("trace.overhead_pct", 100.0 * (traced_p50 - untraced_p50) /
                                    untraced_p50, "%");
  out.Add("trace.unattributed_pct", UnattributedPct(tracer), "%");

  const std::string trace_dir = options.workdir + "/traces";
  std::error_code ec;
  std::filesystem::create_directories(trace_dir, ec);
  const std::string trace_path = trace_dir + "/" + spec.name + "-seed" +
                                 std::to_string(options.seed) + ".tsv";
  if (!tracer.WriteTsv(trace_path)) {
    out.Fail("cannot write " + trace_path);
  }
  out.provenance = {
      {"reach_storage", Quote(StorageName(reach))},
      {"nodes", std::to_string(hierarchy->NumNodes())},
      {"turn_p50_us_untraced", Num(untraced_p50)},
      {"turn_p50_us_traced", Num(traced_p50)},
      {"spans", std::to_string(tracer.spans().size())},
      {"span_file", Quote(trace_path)},
      {"kernel_checksum", std::to_string(kernel_sink)},
  };
  return out;
}

}  // namespace perfbench

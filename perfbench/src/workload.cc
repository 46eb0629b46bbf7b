#include "workload.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>

#include "data/datasets.h"
#include "net/client.h"
#include "net/net_util.h"
#include "net/wire.h"
#include "util/thread_pool.h"

namespace perfbench {

using aigs::NodeId;
using aigs::Query;
using aigs::SessionAnswer;
using aigs::Status;

namespace {

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"amazon-tree", Catalog::kAmazon, "greedy", false, 10000, 31},
      {"imagenet-dag", Catalog::kImageNet, "greedy", false, 3000, 15},
      {"amazon-wire-wal", Catalog::kAmazon, "greedy", true, 2000, 31},
  };
  return specs;
}

// Drives sessions by calling the Engine directly on the client thread.
class InProcessDriver : public Driver {
 public:
  InProcessDriver(aigs::Engine& engine, std::string policy,
                  const aigs::ReachabilityIndex& reach)
      : engine_(engine), policy_(std::move(policy)), reach_(reach) {}

  void Run(TargetStream& stream, std::size_t count,
           Clock::time_point deadline, LoopStats& stats,
           std::vector<SessionRecord>* records, Tracer* tracer) override {
    const std::int64_t start = NowNs();
    for (std::size_t done = 0;; ++done) {
      if (count > 0 ? done >= count : Clock::now() >= deadline) {
        break;
      }
      if (tracer != nullptr && tracer->full()) {
        break;
      }
      SessionRecord record;
      record.target = stream.Next();
      RunOne(record, stats, tracer);
      if (records != nullptr) {
        records->push_back(std::move(record));
      }
    }
    stats.seconds += static_cast<double>(NowNs() - start) / 1e9;
  }

 private:
  // Counts one op; false when it failed.
  static bool Count(LoopStats& stats, const Status& status) {
    ++stats.attempted;
    if (!status.ok()) {
      ++stats.failed;
    }
    return status.ok();
  }

  void RunOne(SessionRecord& record, LoopStats& stats, Tracer* tracer) {
    std::uint32_t n_session = 0, n_turn = 0, n_answer = 0, n_ask = 0;
    std::int32_t session_span = -1;
    if (tracer != nullptr) {
      n_session = tracer->Intern("session");
      n_turn = tracer->Intern("turn");
      n_answer = tracer->Intern("engine.answer");
      n_ask = tracer->Intern("engine.ask");
      session_span = tracer->Begin(n_session, -1, ++ordinals_);
    }
    auto opened = engine_.Open(policy_);
    if (!Count(stats, opened.status())) {
      return;
    }
    const aigs::SessionId id = *opened;
    auto query = engine_.Ask(id);
    bool ok = Count(stats, query.status());
    while (ok && query->kind != Query::Kind::kDone) {
      const NodeId q = query->node;
      record.Asked(q);
      const SessionAnswer answer =
          SessionAnswer::Reach(reach_.Reaches(q, record.target));
      Status answered;
      if (tracer == nullptr) {
        const std::int64_t t0 = NowNs();
        answered = engine_.Answer(id, answer);
        query = engine_.Ask(id);
        stats.turn.Record(NowNs() - t0);
      } else {
        const std::int64_t t0 = NowNs();
        const std::int32_t turn =
            tracer->Begin(n_turn, session_span, ordinals_);
        const std::int32_t a = tracer->Begin(n_answer, turn, ordinals_);
        answered = engine_.Answer(id, answer);
        tracer->End(a);
        const std::int32_t k = tracer->Begin(n_ask, turn, ordinals_);
        query = engine_.Ask(id);
        tracer->End(k);
        tracer->End(turn);
        stats.turn.Record(NowNs() - t0);
      }
      ++stats.questions;
      ok = Count(stats, answered) && Count(stats, query.status());
    }
    if (ok) {
      record.found = query->node;
      if (record.found != record.target) {
        ++stats.wrong_targets;
        ++stats.failed;
      }
    }
    Count(stats, engine_.Close(id));
    if (tracer != nullptr) {
      tracer->End(session_span);
    }
    ++stats.sessions;
  }

  aigs::Engine& engine_;
  std::string policy_;
  const aigs::ReachabilityIndex& reach_;
  std::uint64_t ordinals_ = 0;
};

// Drives sessions over aigs-wire/1: one thread multiplexes two nonblocking
// connections, each running its own closed session loop, so both server
// worker loops stay busy.
class WireDriver : public Driver {
 public:
  static constexpr std::size_t kConnections = 2;

  WireDriver(std::string policy, const aigs::ReachabilityIndex& reach)
      : policy_(std::move(policy)), reach_(reach) {}

  ~WireDriver() override {
    for (Conn& conn : conns_) {
      aigs::net::CloseFd(conn.fd);
    }
  }

  Status Connect(const aigs::net::Endpoint& endpoint) {
    conns_.resize(kConnections);
    for (Conn& conn : conns_) {
      AIGS_ASSIGN_OR_RETURN(conn.fd, aigs::net::DialTcp(endpoint, 5000));
      AIGS_RETURN_NOT_OK(aigs::net::SetNonBlocking(conn.fd));
    }
    return Status::OK();
  }

  void Run(TargetStream& stream, std::size_t count,
           Clock::time_point deadline, LoopStats& stats,
           std::vector<SessionRecord>* records, Tracer* tracer) override {
    const std::int64_t start = NowNs();
    tracer_ = tracer;
    if (tracer != nullptr) {
      names_ = {tracer->Intern("session"), tracer->Intern("turn"),
                tracer->Intern("wire.answer"), tracer->Intern("wire.ask")};
    }
    std::size_t started = 0;
    const auto want_more = [&] {
      if (broken_ || (tracer != nullptr && tracer->full())) {
        return false;
      }
      return count > 0 ? started < count : Clock::now() < deadline;
    };
    for (Conn& conn : conns_) {
      if (want_more()) {
        StartSession(conn, stream.Next(), stats);
        ++started;
      }
    }
    std::vector<pollfd> fds;
    char buffer[16384];
    while (!broken_ && Busy() > 0) {
      fds.clear();
      for (const Conn& conn : conns_) {
        fds.push_back({conn.fd, static_cast<short>(conn.busy ? POLLIN : 0),
                       0});
      }
      if (::poll(fds.data(), fds.size(), 1000) < 0 && errno != EINTR) {
        Break(stats);
        break;
      }
      for (std::size_t i = 0; i < conns_.size() && !broken_; ++i) {
        Conn& conn = conns_[i];
        if (!conn.busy || fds[i].revents == 0) {
          continue;
        }
        bool dead = false;
        for (;;) {
          const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
          if (n > 0) {
            conn.in.append(buffer, static_cast<std::size_t>(n));
            continue;
          }
          if (n < 0 && errno == EINTR) {
            continue;
          }
          dead = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
          break;
        }
        std::string_view payload;
        std::size_t consumed = 0;
        const auto framed =
            aigs::net::ExtractFrame(conn.in, &payload, &consumed, nullptr);
        if (framed == aigs::net::FrameStatus::kNeedMore && !dead) {
          continue;
        }
        aigs::net::WireResponse response;
        if (framed != aigs::net::FrameStatus::kFrame ||
            !aigs::net::DecodeResponsePayload(payload, &response).ok()) {
          Break(stats);
          break;
        }
        conn.in.erase(0, consumed);
        if (!OnResponse(conn, response, stats)) {
          continue;  // the session goes on
        }
        if (records != nullptr) {
          records->push_back(std::move(conn.record));
        }
        if (want_more()) {
          StartSession(conn, stream.Next(), stats);
          ++started;
        }
      }
    }
    tracer_ = nullptr;
    stats.seconds += static_cast<double>(NowNs() - start) / 1e9;
  }

 private:
  enum class Phase { kOpen, kFirstAsk, kAnswer, kAsk, kClose };

  struct Conn {
    int fd = -1;
    bool busy = false;  // a request is in flight
    Phase phase = Phase::kOpen;
    aigs::SessionId id = 0;
    std::uint64_t ordinal = 0;
    SessionRecord record;
    std::string in;
    std::int64_t turn_start = 0;
    std::int32_t session_span = -1;
    std::int32_t turn_span = -1;
    std::int32_t call_span = -1;
  };

  struct Names {
    std::uint32_t session = 0, turn = 0, answer = 0, ask = 0;
  };

  std::size_t Busy() const {
    std::size_t busy = 0;
    for (const Conn& conn : conns_) {
      busy += conn.busy ? 1 : 0;
    }
    return busy;
  }

  // A transport or framing failure ends the run; every request in flight
  // counts as a failed op.
  void Break(LoopStats& stats) {
    broken_ = true;
    stats.failed += Busy();
  }

  void Send(Conn& conn, const aigs::net::WireRequest& request,
            LoopStats& stats) {
    ++stats.attempted;
    conn.busy = true;
    if (!aigs::net::SendAll(conn.fd, aigs::net::EncodeRequest(request))
             .ok()) {
      Break(stats);
    }
  }

  std::int32_t Begin(std::uint32_t name, std::int32_t parent,
                     const Conn& conn) {
    return tracer_ == nullptr ? -1
                              : tracer_->Begin(name, parent, conn.ordinal);
  }

  void End(std::int32_t span) {
    if (tracer_ != nullptr) {
      tracer_->End(span);
    }
  }

  void StartSession(Conn& conn, NodeId target, LoopStats& stats) {
    conn.record = SessionRecord{};
    conn.record.target = target;
    conn.phase = Phase::kOpen;
    conn.id = 0;
    conn.ordinal = ++ordinals_;
    conn.session_span = Begin(names_.session, -1, conn);
    aigs::net::WireRequest request;
    request.op = aigs::net::WireOp::kOpen;
    request.text = policy_;
    Send(conn, request, stats);
  }

  // Advances `conn`'s session on one response. True when the session is
  // over (closed, or given up after a failed op).
  bool OnResponse(Conn& conn, const aigs::net::WireResponse& response,
                  LoopStats& stats) {
    conn.busy = false;
    aigs::net::WireRequest next;
    next.id = conn.id;
    if (!response.ok()) {
      ++stats.failed;
      if (conn.phase == Phase::kOpen || conn.phase == Phase::kClose) {
        return FinishSession(conn, stats);
      }
      next.op = aigs::net::WireOp::kClose;
      conn.phase = Phase::kClose;
      Send(conn, next, stats);
      return false;
    }
    switch (conn.phase) {
      case Phase::kOpen:
        conn.id = response.id;
        next.id = conn.id;
        next.op = aigs::net::WireOp::kAsk;
        conn.phase = Phase::kFirstAsk;
        break;
      case Phase::kAnswer:
        End(conn.call_span);
        conn.call_span = Begin(names_.ask, conn.turn_span, conn);
        next.op = aigs::net::WireOp::kAsk;
        conn.phase = Phase::kAsk;
        break;
      case Phase::kFirstAsk:
      case Phase::kAsk: {
        if (conn.phase == Phase::kAsk) {
          End(conn.call_span);
          End(conn.turn_span);
          stats.turn.Record(NowNs() - conn.turn_start);
        }
        const Query& query = response.query;
        if (query.kind == Query::Kind::kDone) {
          conn.record.found = query.node;
          if (query.node != conn.record.target) {
            ++stats.wrong_targets;
            ++stats.failed;
          }
          next.op = aigs::net::WireOp::kClose;
          conn.phase = Phase::kClose;
          break;
        }
        conn.record.Asked(query.node);
        ++stats.questions;
        next.op = aigs::net::WireOp::kAnswer;
        next.answer = SessionAnswer::Reach(
            reach_.Reaches(query.node, conn.record.target));
        conn.phase = Phase::kAnswer;
        conn.turn_start = NowNs();
        conn.turn_span = Begin(names_.turn, conn.session_span, conn);
        conn.call_span = Begin(names_.answer, conn.turn_span, conn);
        break;
      }
      case Phase::kClose:
        return FinishSession(conn, stats);
    }
    Send(conn, next, stats);
    return false;
  }

  bool FinishSession(Conn& conn, LoopStats& stats) {
    End(conn.session_span);
    conn.busy = false;
    ++stats.sessions;
    return true;
  }

  std::string policy_;
  const aigs::ReachabilityIndex& reach_;
  std::vector<Conn> conns_;
  Tracer* tracer_ = nullptr;
  Names names_;
  std::uint64_t ordinals_ = 0;
  bool broken_ = false;
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string out;
  for (const WorkloadSpec& spec : Specs()) {
    out += (out.empty() ? "" : ", ") + spec.name;
  }
  return out;
}

const char* CatalogName(Catalog catalog) {
  return catalog == Catalog::kAmazon ? "amazon" : "imagenet";
}

void MakeCatalog(Catalog catalog, std::shared_ptr<const aigs::Hierarchy>* h,
                 aigs::Distribution* distribution) {
  aigs::Dataset dataset = catalog == Catalog::kAmazon
                              ? aigs::MakeAmazonDataset()
                              : aigs::MakeImageNetDataset();
  *h = std::make_shared<const aigs::Hierarchy>(std::move(dataset.hierarchy));
  *distribution = std::move(dataset.real_distribution);
}

Status Serve(Stack& stack, const std::string& policy,
             const std::string& wal_parent, std::size_t checkpoint_every) {
  stack.engine = std::make_unique<aigs::Engine>();
  aigs::CatalogConfig config;
  config.hierarchy = stack.hierarchy;
  config.distribution = stack.distribution;
  config.policy_specs = {policy};
  AIGS_RETURN_NOT_OK(stack.engine->Publish(std::move(config)).status());
  if (wal_parent.empty()) {
    return Status::OK();
  }
  stack.wal_dir = std::make_unique<TempDir>(wal_parent, "wal-");
  if (!stack.wal_dir->ok()) {
    return Status::IOError("cannot create a WAL directory in " + wal_parent);
  }
  aigs::DurabilityOptions durability;
  durability.dir = stack.wal_dir->path() + "/store";
  durability.checkpoint_every = checkpoint_every;
  AIGS_RETURN_NOT_OK(stack.engine->EnableDurability(std::move(durability)));
  aigs::net::ServerOptions options;
  options.workers = 2;
  stack.server =
      std::make_unique<aigs::net::AigsServer>(*stack.engine, options);
  return stack.server->Start();
}

aigs::StatusOr<std::unique_ptr<Stack>> BuildStack(const WorkloadSpec& spec,
                                                  const std::string& workdir,
                                                  double* seconds) {
  const std::int64_t start = NowNs();
  auto stack = std::make_unique<Stack>();
  MakeCatalog(spec.catalog, &stack->hierarchy, &stack->distribution);
  AIGS_RETURN_NOT_OK(Serve(*stack, spec.policy,
                           spec.wire ? workdir + "/tmp" : std::string(),
                           aigs::DurabilityOptions{}.checkpoint_every));
  aigs::SessionId id = 0;
  if (spec.wire) {
    aigs::net::AigsClient client;
    AIGS_RETURN_NOT_OK(client.Connect(stack->server->endpoint()));
    AIGS_ASSIGN_OR_RETURN(id, client.Open(spec.policy));
    *seconds = static_cast<double>(NowNs() - start) / 1e9;
    AIGS_RETURN_NOT_OK(client.Close(id));
  } else {
    AIGS_ASSIGN_OR_RETURN(id, stack->engine->Open(spec.policy));
    *seconds = static_cast<double>(NowNs() - start) / 1e9;
    AIGS_RETURN_NOT_OK(stack->engine->Close(id));
  }
  return stack;
}

aigs::StatusOr<std::unique_ptr<Driver>> MakeDriver(const WorkloadSpec& spec,
                                                   Stack& stack) {
  if (!spec.wire) {
    return std::unique_ptr<Driver>(std::make_unique<InProcessDriver>(
        *stack.engine, spec.policy, stack.hierarchy->reach()));
  }
  auto driver =
      std::make_unique<WireDriver>(spec.policy, stack.hierarchy->reach());
  AIGS_RETURN_NOT_OK(driver->Connect(stack.server->endpoint()));
  return std::unique_ptr<Driver>(std::move(driver));
}

std::size_t CountReplayMismatches(const aigs::Policy& policy,
                                  const aigs::ReachabilityIndex& reach,
                                  const std::vector<SessionRecord>& records,
                                  std::size_t threads) {
  std::vector<char> mismatch(records.size(), 0);
  aigs::ThreadPool pool(std::max<std::size_t>(threads, 1));
  pool.ParallelFor(records.size(), [&](std::size_t i) {
    const SessionRecord& record = records[i];
    auto session = policy.NewSession();
    SessionRecord replay;
    Query query = session->Next();
    while (query.kind != Query::Kind::kDone) {
      replay.Asked(query.node);
      session->OnReach(query.node, reach.Reaches(query.node, record.target));
      query = session->Next();
    }
    mismatch[i] = replay.questions != record.questions ||
                  replay.digest != record.digest ||
                  query.node != record.target ||
                  record.found != record.target;
  });
  return static_cast<std::size_t>(
      std::count(mismatch.begin(), mismatch.end(), 1));
}

}  // namespace perfbench

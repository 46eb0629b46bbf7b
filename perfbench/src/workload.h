// The benchmark's workloads: how each one builds its serving stack from
// scratch, draws its seeded targets, and drives categorization sessions
// through the public session API (in-process Engine or the aigs-wire/1
// protocol over loopback) in one closed-loop client thread.
#ifndef AIGS_PERFBENCH_WORKLOAD_H_
#define AIGS_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/hierarchy.h"
#include "harness.h"
#include "net/server.h"
#include "prob/alias_table.h"
#include "prob/distribution.h"
#include "service/engine.h"
#include "util/rng.h"

namespace perfbench {

enum class Catalog { kAmazon, kImageNet };

struct WorkloadSpec {
  std::string name;
  Catalog catalog = Catalog::kAmazon;
  /// PolicyRegistry spec every session opens.
  std::string policy;
  /// Serve through an in-process AigsServer with durability on, instead of
  /// calling the Engine directly.
  bool wire = false;
  /// Warm-up sessions run before the timed phase. They are also the check
  /// sample: their transcripts must equal a direct SearchSession replay,
  /// and their question counts give questions_per_session.
  std::size_t check_sessions = 0;
  /// Fresh set-ups per run; setup_s is their median.
  int setup_builds = 0;
};

/// The spec named `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);
std::string WorkloadNames();
const char* CatalogName(Catalog catalog);

/// Seeded stream of targets drawn from the catalog's own object
/// distribution (the paper's average-case setting). Two streams with the
/// same seed yield the same targets.
class TargetStream {
 public:
  TargetStream(const aigs::Distribution& distribution, std::uint64_t seed)
      : alias_(distribution), rng_(seed) {}
  aigs::NodeId Next() { return alias_.Sample(rng_); }

 private:
  aigs::AliasTable alias_;
  aigs::Rng rng_;
};

/// A catalog and the stack that serves it. Member order is teardown
/// order in reverse: the server stops before the engine goes, and the WAL
/// directory is removed last.
struct Stack {
  std::shared_ptr<const aigs::Hierarchy> hierarchy;
  aigs::Distribution distribution;
  std::unique_ptr<TempDir> wal_dir;
  std::unique_ptr<aigs::Engine> engine;
  std::unique_ptr<aigs::net::AigsServer> server;
};

/// Catalog of `catalog` at paper scale (Make*Dataset).
void MakeCatalog(Catalog catalog, std::shared_ptr<const aigs::Hierarchy>* h,
                 aigs::Distribution* distribution);

/// Publishes `policy` on a fresh engine over the stack's catalog. With
/// `wal_parent` non-empty, durability goes on in a fresh directory below
/// it (checkpoint cadence `checkpoint_every`, 0 = manual only) and an
/// AigsServer with two worker loops starts on an ephemeral loopback port.
aigs::Status Serve(Stack& stack, const std::string& policy,
                   const std::string& wal_parent,
                   std::size_t checkpoint_every);

/// Builds the workload's whole stack from nothing and opens (then closes)
/// one session on it. `*seconds` is the time until that Open succeeded.
aigs::StatusOr<std::unique_ptr<Stack>> BuildStack(const WorkloadSpec& spec,
                                                  const std::string& workdir,
                                                  double* seconds);

/// One session's outcome, kept for the check sample. The question
/// sequence is kept as its length and a 64-bit digest, so a record costs a
/// few bytes and the check sample adds nothing that would show in peak RSS.
struct SessionRecord {
  aigs::NodeId target = aigs::kInvalidNode;
  aigs::NodeId found = aigs::kInvalidNode;
  std::uint32_t questions = 0;
  std::uint64_t digest = 0;

  void Asked(aigs::NodeId q) {
    ++questions;
    digest = (digest ^ static_cast<std::uint64_t>(q)) * 0x100000001b3ULL +
             questions;
  }
};

/// What a driving loop saw. Turns are timed from just before an Answer is
/// submitted until the following Ask's reply is in hand; the oracle's
/// answer is computed before the clock starts.
struct LoopStats {
  Histogram turn;
  std::uint64_t sessions = 0;
  std::uint64_t questions = 0;
  std::uint64_t attempted = 0;  ///< session ops sent
  std::uint64_t failed = 0;     ///< non-OK ops plus wrong-target sessions
  std::uint64_t wrong_targets = 0;
  double seconds = 0;
};

/// Closed-loop session driver over one serving stack.
class Driver {
 public:
  virtual ~Driver() = default;
  /// Runs sessions on successive targets of `stream`: exactly `count`
  /// when count > 0, otherwise until `deadline` (sessions in flight then
  /// finish). Appends one record per session when `records` is set and
  /// records spans into `tracer` when it is set (stopping when it fills).
  virtual void Run(TargetStream& stream, std::size_t count,
                   Clock::time_point deadline, LoopStats& stats,
                   std::vector<SessionRecord>* records, Tracer* tracer) = 0;
};

/// Drives the stack the way the workload does: Engine calls in-process,
/// or two nonblocking wire connections multiplexed by one thread.
aigs::StatusOr<std::unique_ptr<Driver>> MakeDriver(const WorkloadSpec& spec,
                                                   Stack& stack);

/// Replays each record's target through a fresh SearchSession of
/// `policy` on `threads` threads and checks the question sequence and the
/// identified target are identical. Returns the number of mismatching
/// sessions.
std::size_t CountReplayMismatches(const aigs::Policy& policy,
                                  const aigs::ReachabilityIndex& reach,
                                  const std::vector<SessionRecord>& records,
                                  std::size_t threads);

}  // namespace perfbench

#endif  // AIGS_PERFBENCH_WORKLOAD_H_

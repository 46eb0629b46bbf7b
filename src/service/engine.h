// Engine — the single public entry point to the interactive-graph-search
// system (the service form of FrameworkIGS, Algorithm 1).
//
// An Engine owns the current CatalogSnapshot (hot-swappable via Publish —
// each publish bumps the epoch) and a SessionManager of ID-addressed
// concurrent sessions. The request loop a front end drives is:
//
//     id     = engine.Open("greedy")          // O(1) on the prebuilt snapshot
//     query  = engine.Ask(id)                 // the pending question
//     status = engine.Answer(id, SessionAnswer::Reach(true))
//     ...repeat until Ask returns kDone...
//     blob   = engine.Save(id)                // suspend across restarts
//     id2    = engine.Resume(blob)            // exact replay-based restore
//
// Epoch lifecycle (PR 5, backgrounded in PR 6). A publish no longer
// strands the old epoch:
//
//  * WARM WALK — before the fresh plan trees serve cold, the outgoing
//    epoch's trees are walked breadth-first against the new snapshot's
//    planners, so the shared shallow prefixes are planned again and the
//    common-prefix Ask path stays a tree read across the swap.
//  * MIGRATE SWEEP — idle sessions still bound to older epochs are
//    migrated onto the new snapshot by divergence-tolerant transcript
//    replay: steps the new planner reproduces replay exactly; steps it
//    would not have asked are folded in through the policies' observed-
//    step appliers (SearchSession::TryApplyObserved) and flagged, bounded
//    by a configurable divergence budget. Sessions that cannot migrate
//    (budget exceeded, client mid-question) stay safely on their old
//    epoch.
//
// By default BOTH run on a background EpochDrainWorker: Publish itself is
// a constant-time pointer swap (O(1) in the session count — the SLO the
// epoch_lifecycle bench guards) and the drain proceeds in bounded batches
// concurrent with live traffic. Sessions touched by a live request are
// skipped and retried next tick; a second Publish mid-drain rolls the
// drain forward to the newest epoch. DrainOptions{background=false}
// restores the PR-5 inline behavior (deterministic single-threaded
// drains for evaluators and tests).
//
// Every operation is thread-safe and returns Status instead of aborting: a
// client that answers the wrong kind of question, an unknown ID, or a
// stale/crafted saved blob gets a typed error, never a process death.
#ifndef AIGS_SERVICE_ENGINE_H_
#define AIGS_SERVICE_ENGINE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/policy.h"
#include "service/catalog_snapshot.h"
#include "service/durable_store.h"
#include "service/plan_tree.h"
#include "service/session_codec.h"
#include "service/session_manager.h"
#include "util/status.h"

namespace aigs {

/// Client answer to a pending Query — the write half of the Ask/Answer
/// protocol. The kind must match the pending question's kind.
struct SessionAnswer {
  Query::Kind kind = Query::Kind::kReach;
  bool yes = false;                 // kReach
  std::vector<bool> batch;          // kReachBatch, aligned with the batch
  int choice = -1;                  // kChoice index, -1 = "none of these"

  static SessionAnswer Reach(bool yes) {
    SessionAnswer a;
    a.kind = Query::Kind::kReach;
    a.yes = yes;
    return a;
  }
  static SessionAnswer Batch(std::vector<bool> answers) {
    SessionAnswer a;
    a.kind = Query::Kind::kReachBatch;
    a.batch = std::move(answers);
    return a;
  }
  static SessionAnswer Choice(int index) {
    SessionAnswer a;
    a.kind = Query::Kind::kChoice;
    a.choice = index;
    return a;
  }
};

/// Plan-tree knob. Every policy is a pure planner, so engines with plan
/// trees on and off emit bit-identical transcripts: the trees are purely a
/// throughput knob.
struct PlanCacheOptions {
  /// Serve Ask from each published policy's PlanTree
  /// (service/plan_tree.h), and walk the previous epoch's trees on
  /// publish.
  bool enabled = true;
};

/// Monotonic plan-tree counters over the engine's lifetime, plus the node
/// count of the current epoch's trees. hits + misses is the number of Asks
/// that resolved a new question (re-reads of a pending question are not
/// counted; an Answer sent without an Ask resolves one too); a miss ran
/// the planner, whether on or off the tree.
struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Tree nodes refused at the node limit (the session planned live from
  /// there on).
  std::uint64_t evictions = 0;
  std::size_t nodes = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Cross-epoch migration knobs.
struct MigrationOptions {
  /// Maximum divergent steps tolerated per migrated transcript — recorded
  /// questions the target epoch's planner would not have asked, folded in
  /// via TryApplyObserved. 0 = exact replays only.
  std::size_t max_divergence = 64;
  /// Run the idle-session migration sweep automatically after every
  /// Publish, so old snapshots drain instead of being pinned forever by
  /// long-lived sessions.
  bool sweep_on_publish = true;
};

/// Background drain pipeline knobs (the publish→warm→sweep pipeline).
struct DrainOptions {
  /// Run the warm walk and the migration sweep on a background worker so
  /// Publish returns after the O(1) snapshot swap. When false both run
  /// inline on the publishing thread (the PR-5 behavior) — deterministic,
  /// single-threaded, and linear in the session count.
  bool background = true;
  /// Sessions migrated (or plan-tree nodes walked) per batch; between
  /// batches the worker checks for shutdown and newer publishes.
  std::size_t batch_size = 256;
  /// Soft cap on continuous batch time per tick; when it elapses the
  /// worker yields before the next batch so a drain never monopolizes its
  /// pool between cancellation points.
  std::uint32_t tick_budget_ms = 5;
  /// Worker threads migrating sessions within one sweep batch.
  std::size_t max_concurrency = 2;
};

/// Where the background drain pipeline currently is.
enum class DrainPhase : std::uint8_t {
  kIdle = 0,      ///< no drain in flight
  kWarming = 1,   ///< walking the old plan trees into the fresh ones
  kSweeping = 2,  ///< migrating idle old-epoch sessions in batches
};

/// Lowercase phase name for logs and the serve REPL.
const char* DrainPhaseName(DrainPhase phase);

/// Point-in-time progress of the background drain pipeline.
struct DrainStats {
  /// True when the engine runs a background drain worker at all.
  bool background = false;
  DrainPhase phase = DrainPhase::kIdle;
  /// Epoch the in-flight (or last) drain targets; 0 before any drain.
  std::uint64_t target_epoch = 0;
  /// Old-epoch sessions the in-flight sweep still has to visit.
  std::size_t sessions_remaining = 0;
  /// Warm-walk progress of the in-flight (or last) drain: nodes in the
  /// previous epoch's plan trees, and those walked onto the new trees.
  std::size_t warm_total = 0;
  std::size_t warm_seeded = 0;
  /// Cumulative counters across all drains.
  std::uint64_t batches = 0;       ///< sweep batches run
  std::size_t last_batch = 0;      ///< sessions visited by the last batch
  std::uint64_t migrated = 0;      ///< sessions migrated by sweeps
  std::uint64_t failed = 0;        ///< sessions whose replay failed
  std::uint64_t skipped_pinned = 0;  ///< mid-question; left on old epoch
  std::uint64_t retried_busy = 0;  ///< lock-busy; retried a later tick
  std::uint64_t expired = 0;       ///< TTL-evicted between capture and visit
  std::uint64_t drains = 0;        ///< drain jobs enqueued
  std::uint64_t completed = 0;     ///< drain jobs fully finished
  std::uint64_t rolled_forward = 0;  ///< jobs superseded by a newer publish
};

struct EngineOptions {
  SessionManagerOptions sessions;
  /// The per-epoch plan trees behind Ask.
  PlanCacheOptions plan_cache;
  MigrationOptions migration;
  DrainOptions drain;
};

/// Outcome of one cross-epoch migration (Engine::Migrate).
struct MigrateResult {
  SessionId id = 0;
  std::uint64_t from_epoch = 0;
  std::uint64_t to_epoch = 0;
  std::size_t steps = 0;
  /// Recorded questions the new epoch's planner would not have asked,
  /// folded in via the observed-step appliers (exact count; the same steps
  /// carry the `d` flag in a subsequent Save).
  std::size_t divergent_steps = 0;
};

/// Outcome of one idle-session migration sweep.
struct MigrateSweepStats {
  std::size_t scanned = 0;
  std::size_t migrated = 0;
  std::size_t already_current = 0;
  /// Sessions skipped because another operation held them or a client owes
  /// an answer to an already-shown question (migrating would change the
  /// question under the client).
  std::size_t skipped_busy = 0;
  std::size_t failed = 0;
  /// Sessions that expired (TTL) between the sweep's capture and its visit
  /// — neither migrated nor failed, just gone (never resurrected).
  std::size_t expired = 0;
  /// Total divergent steps across the migrated sessions' transcripts.
  std::size_t divergent_steps = 0;
};

/// Outcome of one Engine::Recover (also kept in EngineStats as the last
/// recovery summary the serve REPL prints).
struct RecoveryStats {
  /// Sessions the loaded checkpoint held before the WAL tail was applied.
  std::size_t checkpoint_sessions = 0;
  /// Valid WAL tail records applied on top of the checkpoint.
  std::uint64_t wal_records = 0;
  /// Sessions serving again, with their original ids and transcripts.
  std::size_t recovered = 0;
  /// Sessions found durable but idle past the TTL — counted and dropped,
  /// never resurrected (SessionManager::Peek semantics).
  std::size_t expired_dropped = 0;
  /// Sessions whose transcript no longer replays (catalog changed beyond
  /// the migration contract, or a corrupt blob) — dropped, never fatal.
  std::size_t replay_failures = 0;
  /// Recovered sessions that needed divergence-tolerant replay (their
  /// catalog fingerprint no longer matches the current epoch).
  std::size_t divergent_sessions = 0;
  /// WAL segments whose tail was torn by the crash (CRC-discarded).
  std::uint64_t torn_tails = 0;
  std::uint64_t torn_bytes = 0;
  /// CRC-valid records the scan could not use (decode failures, orphaned
  /// steps, index gaps) — dropped individually, never fatal.
  std::uint64_t malformed_records = 0;
  std::uint64_t invalid_checkpoints = 0;
};

/// Per-operation request counters: how much traffic the engine has served,
/// not just how many sessions are live. Every public session operation
/// counts itself exactly once; a non-OK return additionally lands in the
/// rejected-by-status breakdown. The network front end's Stats op and the
/// serve REPL's `stats` command both report these.
struct OpStats {
  std::uint64_t opens = 0;
  std::uint64_t asks = 0;
  std::uint64_t answers = 0;
  std::uint64_t saves = 0;
  std::uint64_t resumes = 0;
  std::uint64_t migrates = 0;
  std::uint64_t closes = 0;
  /// Requests that returned a non-OK Status, total and keyed by StatusCode
  /// (index = static_cast<int>(code); kOk stays zero).
  std::uint64_t rejected = 0;
  std::array<std::uint64_t, 8> rejected_by_code{};

  std::uint64_t total() const {
    return opens + asks + answers + saves + resumes + migrates + closes;
  }
};

/// Point-in-time operational counters (the serve REPL's `stats` command).
struct EngineStats {
  std::uint64_t epoch = 0;
  std::size_t live_sessions = 0;
  /// Live sessions keyed by their current epoch (old epochs drain as their
  /// sessions finish or migrate after a hot swap).
  std::map<std::uint64_t, std::size_t> sessions_by_epoch;
  /// Plan-tree counters (see PlanCacheStats).
  bool plan_cache_enabled = false;
  PlanCacheStats plan_cache;
  /// Per-op request traffic (opens/asks/answers/... + rejected-by-status).
  OpStats ops;
  /// Cumulative migration counters (explicit Migrate + publish sweeps).
  std::uint64_t sessions_migrated = 0;
  std::uint64_t migration_failures = 0;
  /// Background drain pipeline progress (zeros when background is off).
  DrainStats drain;
  /// Durable session store state (durable=false ⇒ the rest is zeros).
  bool durable = false;
  DurableStoreStats durability;
  /// Cumulative recovery counters plus the last Recover's full summary.
  std::uint64_t recovered = 0;
  std::uint64_t expired_dropped = 0;
  bool has_recovery = false;
  RecoveryStats last_recovery;
};

class EpochDrainWorker;

class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  /// Stops the background drain worker (abandoning any in-flight drain —
  /// undrained sessions are simply still on their old epoch) before the
  /// session store and snapshots go away.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ---- snapshot lifecycle ---------------------------------------------------

  /// Builds a snapshot from `config` at the next epoch and makes it
  /// current. The follow-up work — walking the old epoch's plan trees into
  /// the new ones and migrating idle sessions over — runs
  /// on the background drain worker (or inline, per DrainOptions), so the
  /// call itself is O(1) in the session count past the snapshot build.
  /// Existing busy sessions keep the snapshot they are on; traffic never
  /// pauses.
  StatusOr<std::shared_ptr<const CatalogSnapshot>> Publish(
      CatalogConfig config);

  /// Blocks until no drain job is pending or running (immediately when
  /// background draining is off). Tests and benchmarks use this to make
  /// the asynchronous pipeline deterministic; a server never needs it.
  void WaitForDrain();

  /// Progress of the background drain pipeline (all zeros with `background`
  /// false when draining runs inline).
  DrainStats DrainProgress() const;

  /// The current snapshot (null before the first Publish).
  std::shared_ptr<const CatalogSnapshot> snapshot() const;

  /// The current epoch (0 before the first Publish).
  std::uint64_t epoch() const;

  // ---- session operations ---------------------------------------------------

  /// Opens a session for one of the snapshot's prebuilt policy specs.
  /// O(1): the heavy state lives in the snapshot. `proposed_id` = 0 lets
  /// the engine assign the next id; a nonzero value requests that exact id
  /// (FailedPrecondition when already live) — the seam the consistent-hash
  /// ShardRouter uses so a session's id alone determines which backend
  /// owns it.
  StatusOr<SessionId> Open(const std::string& policy_spec,
                           SessionId proposed_id = 0);

  /// The pending question (or kDone carrying the identified target).
  /// Idempotent; refreshes the session's TTL. Reads the question at the
  /// session's node of its policy's plan tree — a known prefix is one array
  /// read, never a planner run — and falls back to the session's pure
  /// planner on a miss (planning the node for every later session at the
  /// same prefix).
  StatusOr<Query> Ask(SessionId id);

  /// Applies an answer to the pending question. InvalidArgument when the
  /// answer kind (or shape) does not match the pending query,
  /// FailedPrecondition when the search already finished or a migration
  /// invalidated the shown question (re-Ask first).
  Status Answer(SessionId id, const SessionAnswer& answer);

  /// Serializes the session as its answer transcript (SessionCodec v2:
  /// catalog + hierarchy fingerprints, per-step divergence flags).
  StatusOr<std::string> Save(SessionId id);

  /// Restores a saved session by exact replay against the *current*
  /// snapshot: requires a matching catalog fingerprint and verifies each
  /// regenerated question equals the recorded one (transcript equality —
  /// guaranteed by policy determinism, Definition 6). Returns the new ID.
  /// For a blob recorded on an older epoch, use Migrate. `proposed_id`
  /// behaves as in Open.
  StatusOr<SessionId> Resume(const std::string& serialized,
                             SessionId proposed_id = 0);

  // ---- cross-epoch migration ------------------------------------------------

  /// Migrates a LIVE session onto the current snapshot in place (same ID):
  /// divergence-tolerant replay of its transcript, bounded by the engine's
  /// divergence budget. Requires the blob's hierarchy to match (weights may
  /// differ — that is the point). On failure the session is untouched on
  /// its old epoch. A client that had been shown a question must re-Ask
  /// (the next Answer without one is rejected).
  StatusOr<MigrateResult> Migrate(SessionId id);

  /// Migrates a SAVED session onto the current snapshot, tolerating a
  /// changed distribution (unlike Resume's exact-fingerprint contract).
  /// The blob must carry the hierarchy fingerprint (SessionCodec v2) and
  /// match the current hierarchy. Returns the new ID plus divergence
  /// counts. `proposed_id` behaves as in Open.
  StatusOr<MigrateResult> Migrate(const std::string& serialized,
                                  SessionId proposed_id = 0);

  /// Migrates every idle old-epoch session onto the current snapshot (the
  /// sweep Publish runs automatically when sweep_on_publish is set).
  /// Sessions that are busy, mid-question, or fail to replay stay on their
  /// old epoch.
  MigrateSweepStats MigrateIdleSessions();

  /// Walks the previous epoch's plan trees into the CURRENT epoch's (the
  /// publish-time warm path, callable on demand — the serve REPL's `warm`
  /// command). Returns the number of old tree nodes walked.
  StatusOr<std::size_t> Warm();

  /// Closes and discards a session.
  Status Close(SessionId id);

  // ---- durability ------------------------------------------------------------

  /// Attaches a durable session store to a FRESH directory and writes an
  /// initial checkpoint of whatever is live. From here every acked
  /// Open/Answer/Close appends a WAL record before it returns (per the
  /// fsync policy's durability promise), and crossing
  /// DurabilityOptions::checkpoint_every triggers a checkpoint off the hot
  /// path. FailedPrecondition when the directory already holds durable
  /// state — that state must be Recover()ed (or deleted), never silently
  /// shadowed. Configure durability before serving traffic; the append
  /// hooks read the store pointer without the snapshot mutex.
  Status EnableDurability(DurabilityOptions options);

  /// Rebuilds sessions from `options.dir` — newest valid checkpoint plus
  /// the WAL tail (torn trailing records are CRC-discarded, never fatal) —
  /// then attaches the store and resumes logging. Every acked session
  /// comes back under its ORIGINAL id with a bit-identical transcript
  /// (exact replay when its catalog fingerprint matches the current
  /// snapshot, divergence-tolerant replay within the migration budget when
  /// only the weights changed). Sessions idle past the session TTL are
  /// counted and dropped. Requires a published snapshot to replay against.
  StatusOr<RecoveryStats> Recover(DurabilityOptions options);

  /// Writes a checkpoint now: rotates the WAL, snapshots every live
  /// session via its Save blob, commits atomically, and truncates the old
  /// log. Safe under concurrent traffic (records landing in the new
  /// segment replay idempotently by step index).
  Status Checkpoint();

  /// Fsyncs the WAL regardless of policy — the graceful-shutdown flush
  /// (serve runs it on SIGTERM). No-op when durability is off.
  Status FlushDurable();

  bool durable() const {
    return durable_.load(std::memory_order_acquire) != nullptr;
  }

  SessionManager& sessions() { return sessions_; }

  /// Operational counters: epoch, session counts (total and per epoch),
  /// plan-tree hits/misses/nodes, migration totals.
  EngineStats Stats() const;

 private:
  /// How ReplayTranscript treats a step the planner does not reproduce.
  enum class ReplayMode {
    kExact,     // any divergence is an error (Resume's contract)
    kTolerant,  // fold divergent steps via TryApplyObserved, up to budget
  };

  /// Index into op_counts_ — one slot per public session operation.
  enum OpKind {
    kOpOpen = 0,
    kOpAsk,
    kOpAnswer,
    kOpSave,
    kOpResume,
    kOpMigrate,
    kOpClose,
    kNumOps,
  };

  /// Counts one request against `op`, plus the rejection breakdown when
  /// `status` is non-OK.
  void CountOp(OpKind op, const Status& status);

  /// Counted-wrapper plumbing: the public methods above tally OpStats and
  /// delegate to these bodies.
  StatusOr<SessionId> OpenImpl(const std::string& policy_spec,
                               SessionId proposed_id);
  StatusOr<Query> AskImpl(SessionId id);
  Status AnswerImpl(SessionId id, const SessionAnswer& answer);
  StatusOr<std::string> SaveImpl(SessionId id);
  StatusOr<SessionId> ResumeImpl(const std::string& serialized,
                                 SessionId proposed_id);
  StatusOr<MigrateResult> MigrateImpl(SessionId id);
  StatusOr<MigrateResult> MigrateBlobImpl(const std::string& serialized,
                                          SessionId proposed_id);
  Status CloseImpl(SessionId id);

  /// Inserts a freshly built session under `proposed_id` (or the next
  /// engine-assigned id when 0). On failure the session is not stored.
  StatusOr<SessionId> InsertSession(std::shared_ptr<ServiceSession> session,
                                    SessionId proposed_id);

  StatusOr<std::shared_ptr<ServiceSession>> FindSession(SessionId id);

  /// Answer's body; the caller holds `session.mutex`. On success the step
  /// is applied, logged (when durable), and acked by the OK return.
  Status AnswerLocked(SessionId id, ServiceSession& session,
                      const SessionAnswer& answer);

  /// Rebuilds one recovered session against the current snapshot: exact
  /// replay on a fingerprint match, divergence-tolerant (Migrate-style)
  /// otherwise.
  StatusOr<std::shared_ptr<ServiceSession>> RecoverSession(
      const SerializedSession& saved, std::size_t* divergent_steps);

  /// Checkpoint body; the caller holds `checkpoint_mutex_`.
  Status CheckpointLocked(DurableStore& store);

  /// Runs a checkpoint when the auto threshold is crossed and no other
  /// checkpoint is in flight. Called off the hot path (no locks held).
  void MaybeAutoCheckpoint();

  /// Builds a fresh ServiceSession on `snap` for `policy_spec`, at the root
  /// of the policy's plan tree (Open, Resume, and Migrate all construct
  /// through here).
  StatusOr<std::shared_ptr<ServiceSession>> BuildSession(
      std::shared_ptr<const CatalogSnapshot> snap,
      const std::string& policy_spec);

  /// The session's pending question: the memoized one if Ask already
  /// resolved it, else the plan at its tree node, else the pure planner
  /// (whose question is then planned at the node for every later session
  /// at the same prefix). Caller holds the session mutex.
  Query ResolvePending(ServiceSession& session);

  /// The child of `node` along `step` in `plans`, counting a refusal at
  /// the node limit; kOffTree when there is no tree or the session is off
  /// it.
  PlanTree::NodeIndex Descend(PlanTree* plans, PlanTree::NodeIndex node,
                              const TranscriptStep& step);

  /// Replays `steps` into the freshly built `session` (search state,
  /// transcript, plan-tree walk and planning). In kTolerant mode
  /// divergent steps are folded via TryApplyObserved and flagged; more
  /// than `max_divergence` of them fails the replay. `session` must be
  /// private to the caller (no lock taken).
  Status ReplayTranscript(ServiceSession& session,
                          std::vector<TranscriptStep> steps, ReplayMode mode,
                          std::size_t max_divergence,
                          std::size_t* divergent_steps);

  /// Decodes, validates, and replays a saved blob for Migrate(serialized).
  StatusOr<std::shared_ptr<ServiceSession>> MigrateDecoded(
      const SerializedSession& saved, std::size_t* divergent_steps);

  /// In-place migration body; the caller holds `session.mutex`.
  StatusOr<MigrateResult> MigrateLocked(SessionId id,
                                        ServiceSession& session);

  /// Walks `from`'s plan trees into `to`'s in one go (the inline warm
  /// path); returns the old nodes walked.
  std::size_t WalkPlanTrees(const CatalogSnapshot& from,
                            const CatalogSnapshot& to);

  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const CatalogSnapshot> snapshot_;
  /// The previous epoch's snapshot, retained as the warm-walk source until
  /// the next publish replaces it.
  std::shared_ptr<const CatalogSnapshot> previous_snapshot_;
  std::uint64_t next_epoch_ = 1;
  EngineOptions options_;
  SessionManager sessions_;

  /// PlanCacheStats counters.
  std::atomic<std::uint64_t> plan_hits_{0};
  std::atomic<std::uint64_t> plan_misses_{0};
  std::atomic<std::uint64_t> plan_refused_{0};

  std::atomic<std::uint64_t> sessions_migrated_{0};
  std::atomic<std::uint64_t> migration_failures_{0};

  /// Per-op traffic counters (OpStats), indexed by OpKind, plus the
  /// rejected-by-StatusCode breakdown.
  std::array<std::atomic<std::uint64_t>, kNumOps> op_counts_{};
  std::array<std::atomic<std::uint64_t>, 8> rejected_by_code_{};

  /// Durable store lifecycle: `durable_owner_` (guarded by
  /// `durable_mutex_`, set once by EnableDurability/Recover) owns the
  /// store; `durable_` mirrors the raw pointer for lock-free reads on the
  /// Answer hot path. `checkpoint_mutex_` serializes checkpoints.
  mutable std::mutex durable_mutex_;
  std::unique_ptr<DurableStore> durable_owner_;
  std::atomic<DurableStore*> durable_{nullptr};
  std::mutex checkpoint_mutex_;
  std::atomic<std::uint64_t> recovered_{0};
  std::atomic<std::uint64_t> expired_dropped_{0};
  bool has_recovery_ = false;          // guarded by durable_mutex_
  RecoveryStats last_recovery_;        // guarded by durable_mutex_

  friend class EpochDrainWorker;
  /// Declared LAST: destroyed first, so the worker's threads stop before
  /// the session store and snapshot state they reference go away. Null
  /// when DrainOptions::background is false.
  std::unique_ptr<EpochDrainWorker> drain_;
};

}  // namespace aigs

#endif  // AIGS_SERVICE_ENGINE_H_

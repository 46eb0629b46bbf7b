// SessionManager — ID-addressed, concurrent, TTL-evicting session store.
//
// The paper's interactive loop asks a human one question at a time; between
// a question and its answer the session must be suspendable and addressable
// by ID. The manager keeps sessions in a lock-sharded hash map: an ID is
// assigned from an atomic counter, its shard is a pure function of the ID,
// and every operation locks exactly one shard mutex — concurrent traffic
// for different sessions contends only 1/num_shards of the time.
//
// Expiry is TTL-based: every successful Find refreshes the session's
// last-touch time; a lookup past the TTL behaves as NotFound (and reaps the
// entry), and EvictExpired() sweeps all shards for bulk cleanup. The clock
// is injectable so eviction is unit-testable without sleeping.
#ifndef AIGS_SERVICE_SESSION_MANAGER_H_
#define AIGS_SERVICE_SESSION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/policy.h"
#include "service/catalog_snapshot.h"
#include "service/plan_tree.h"
#include "service/session_codec.h"
#include "util/status.h"

namespace aigs {

/// Opaque session handle. Never reused within one manager's lifetime.
using SessionId = std::uint64_t;

/// One live interactive search: the snapshot it is bound to (keeping that
/// epoch's policies alive across hot swaps — until Engine::Migrate rebinds
/// it to a newer one), the policy session, and the answer transcript that
/// makes it serializable. `mutex` serializes the engine's per-session
/// operations, including the field swap a migration performs; the manager
/// itself only guards the map.
struct ServiceSession {
  std::shared_ptr<const CatalogSnapshot> snapshot;
  std::string policy_spec;
  const Policy* policy = nullptr;
  /// The policy's plan tree on `snapshot` (null when the engine's plan
  /// trees are off); `snapshot` keeps it alive.
  PlanTree* plans = nullptr;

  /// The bound snapshot's epoch, mirrored atomically so SessionsByEpoch can
  /// aggregate without taking every session mutex while migrations rebind
  /// `snapshot` concurrently.
  std::atomic<std::uint64_t> epoch{0};

  std::mutex mutex;
  std::unique_ptr<SearchSession> search;
  std::vector<TranscriptStep> transcript;
  /// The transcript's node in `plans`; kOffTree once the session left the
  /// tree (node limit, or a step whose question is not the node's).
  PlanTree::NodeIndex plan_node = PlanTree::kOffTree;
  /// The question Ask last resolved (from the cache or the planner), so the
  /// matching Answer validates and applies without a second resolution.
  Query pending;
  bool has_pending = false;
  /// Set when a migration invalidated a question the client had already
  /// been shown: the next Answer is rejected until the client re-Asks (the
  /// new epoch's planner may pose a different question).
  bool reask_after_migration = false;
};

struct SessionManagerOptions {
  /// Lock shards. More shards = less contention, more memory.
  std::size_t num_shards = 16;
  /// Idle time before a session expires; 0 = never.
  std::uint64_t ttl_millis = 30 * 60 * 1000;
  /// Monotonic clock in milliseconds; null = std::chrono::steady_clock.
  /// Inject a fake in tests to exercise eviction deterministically.
  std::function<std::uint64_t()> clock_millis;
};

class SessionManager {
 public:
  explicit SessionManager(SessionManagerOptions options = {});

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Stores a session and returns its new ID.
  SessionId Insert(std::shared_ptr<ServiceSession> session);

  /// Stores a session under a SPECIFIC id — crash recovery restores every
  /// acked session with its original id. FailedPrecondition when the id is
  /// 0 or already live. The id counter is raised past `id`, so recovered
  /// ids are never reissued to new sessions.
  Status InsertWithId(SessionId id, std::shared_ptr<ServiceSession> session);

  /// Raises the next-id counter to at least `next_id` (recovery applies
  /// the persisted watermark even when every recovered session expired).
  void ReserveIds(SessionId next_id);

  /// The id the next Insert would assign (persisted by checkpoints).
  SessionId next_id() const {
    return next_id_.load(std::memory_order_relaxed);
  }

  /// Looks a session up and refreshes its TTL. NotFound for unknown or
  /// expired IDs (expired entries are reaped on the spot).
  StatusOr<std::shared_ptr<ServiceSession>> Find(SessionId id);

  /// Looks a session up WITHOUT refreshing its TTL or reaping it — null for
  /// unknown or expired IDs. The background drain sweep re-checks liveness
  /// through this before migrating a session it captured earlier: a drain
  /// must neither resurrect a TTL-evicted session (a Find would refresh the
  /// touch time) nor count one as migrated.
  std::shared_ptr<ServiceSession> Peek(SessionId id) const;

  /// Removes a session; NotFound if absent.
  Status Erase(SessionId id);

  /// Sweeps every shard, dropping sessions idle past the TTL. Returns the
  /// number evicted.
  std::size_t EvictExpired();

  /// Live session count (racy under concurrent mutation, exact when quiet).
  std::size_t size() const;

  /// Live session counts keyed by each session's current snapshot epoch
  /// (racy under concurrent mutation, exact when quiet). Surfaced through
  /// Engine::Stats and the serve REPL's `stats` command.
  std::map<std::uint64_t, std::size_t> SessionsByEpoch() const;

  /// A point-in-time copy of every live (id, session) pair, without
  /// touching TTLs — the iteration base for Engine's post-publish
  /// migration sweep (which then try-locks each session individually).
  std::vector<std::pair<SessionId, std::shared_ptr<ServiceSession>>>
  SnapshotSessions() const;

  /// SnapshotSessions plus each session's idle time (now - last touch) at
  /// capture. Checkpoints persist idleness this way: the monotonic session
  /// clock does not survive a restart, so the durable store converts idle
  /// time to a wall-clock last-active stamp for the recovery TTL check.
  struct IdleEntry {
    SessionId id = 0;
    std::shared_ptr<ServiceSession> session;
    std::uint64_t idle_millis = 0;
  };
  std::vector<IdleEntry> SnapshotWithIdle() const;

 private:
  struct Entry {
    std::shared_ptr<ServiceSession> session;
    std::uint64_t last_touch_millis = 0;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<SessionId, Entry> sessions;
  };

  std::uint64_t NowMillis() const;
  Shard& ShardFor(SessionId id) {
    return shards_[static_cast<std::size_t>(id) % shards_.size()];
  }
  const Shard& ShardFor(SessionId id) const {
    return shards_[static_cast<std::size_t>(id) % shards_.size()];
  }

  SessionManagerOptions options_;
  std::atomic<SessionId> next_id_{1};
  std::vector<Shard> shards_;
};

}  // namespace aigs

#endif  // AIGS_SERVICE_SESSION_MANAGER_H_

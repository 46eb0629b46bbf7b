// Policy / SearchSession interfaces — the contract between question-asking
// strategies (the paper's "policies") and the harness that relays answers
// from an oracle (FrameworkIGS, Algorithm 1).
//
// A Policy is an immutable strategy bound to a (hierarchy, distribution)
// pair; NewSession() starts one search for one hidden target. Sessions are
// cheap (small overlays over shared base state) so evaluating the expected
// cost over all n possible targets stays fast.
#ifndef AIGS_CORE_POLICY_H_
#define AIGS_CORE_POLICY_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/common.h"
#include "util/status.h"

namespace aigs {

/// What a session wants next.
struct Query {
  enum class Kind {
    kReach,       ///< boolean reachability question on `node`
    kReachBatch,  ///< several reachability questions asked in one round
                  ///< (§III-E batched extension); nodes in `choices`
    kChoice,      ///< multiple-choice question over `choices` (MIGS)
    kDone,        ///< search finished; `node` holds the identified target
  };

  static Query ReachQuery(NodeId node) {
    return Query{Kind::kReach, node, {}};
  }
  static Query ReachBatch(std::vector<NodeId> nodes) {
    return Query{Kind::kReachBatch, kInvalidNode, std::move(nodes)};
  }
  static Query ChoiceQuery(std::vector<NodeId> choices) {
    return Query{Kind::kChoice, kInvalidNode, std::move(choices)};
  }
  static Query Done(NodeId target) {
    return Query{Kind::kDone, target, {}};
  }

  Kind kind = Kind::kDone;
  /// Query node (kReach) or identified target (kDone).
  NodeId node = kInvalidNode;
  /// Presented categories (kChoice) or batched query nodes (kReachBatch).
  std::vector<NodeId> choices;
};

/// One answered question: what was asked and what the oracle said. The unit
/// of session transcripts (SessionCodec), plan-tree edges, and
/// divergence-tolerant replay (TryApplyObserved / Engine::Migrate).
struct TranscriptStep {
  Query::Kind kind = Query::Kind::kReach;
  /// Queried node(s): one entry for kReach, the batch/choice lists
  /// otherwise.
  std::vector<NodeId> nodes;
  bool yes = false;                 // kReach
  std::vector<bool> batch_answers;  // kReachBatch
  int choice = -1;                  // kChoice
  /// Replay bookkeeping, not transcript content: true when this step's
  /// question is NOT what the session's own planner would have asked at
  /// that point (it was recorded on another catalog epoch and folded in by
  /// TryApplyObserved). Such a step takes a session off its plan tree;
  /// SessionCodec preserves the flag so migrated sessions keep their
  /// divergence history.
  bool diverged = false;

  bool operator==(const TranscriptStep& other) const = default;
};

/// One interactive search for one hidden target. Implementations must be
/// deterministic: the same answer sequence always produces the same queries
/// (this is what makes a policy a decision tree, Definition 6).
///
/// The interface is split into a PLANNER and an APPLIER:
///
///  * PlanQuestion() is the pure planner — a const computation of the next
///    question from the candidate state the applied answers left behind.
///    "Pure" is enforced by const: a planner has no hidden mutable inputs.
///    The `mutable` members some planners touch are memoization of state
///    derived purely from the applied answers (BFS scratch, lazy heaps, the
///    phase automata of the baselines) — recomputable at will, never a
///    source of nondeterminism.
///  * ApplyReach / ApplyChoice / ApplyReachBatch fold an answer for a given
///    question into the candidate state. The question need NOT have been
///    planned by this session: a service-layer plan cache can hand the
///    engine a question another session's planner computed at the same
///    transcript, and the applier folds its answer in without ever running
///    the (possibly expensive) planner locally. Determinism guarantees the
///    supplied question equals what PlanQuestion() would have returned.
///
/// Next()/OnReach/OnChoice/OnReachBatch are the memoizing convenience
/// wrappers the in-process harness drives: Next() plans once and returns
/// the same Query until an answer invalidates it.
class SearchSession {
 public:
  virtual ~SearchSession() = default;

  /// Pure planner: the pending question, or Done. Deterministic and
  /// side-effect free (modulo memoized derived state; see above).
  virtual Query PlanQuestion() const = 0;

  /// The pending question, or Done. Plans at most once per answered step.
  Query Next() {
    if (!plan_valid_) {
      planned_ = PlanQuestion();
      plan_valid_ = true;
    }
    return planned_;
  }

  /// Delivers the answer to the kReach question on `q` (the planned
  /// question, whether planned locally or supplied by a plan cache).
  void OnReach(NodeId q, bool yes) {
    ApplyReach(q, yes);
    plan_valid_ = false;
  }

  /// Delivers the answer to the kChoice question: `answer` is an index
  /// into `choices`, or -1 for "none of these".
  void OnChoice(std::span<const NodeId> choices, int answer) {
    ApplyChoice(choices, answer);
    plan_valid_ = false;
  }

  /// Delivers the answers to the kReachBatch question; answers[i]
  /// corresponds to nodes[i].
  void OnReachBatch(std::span<const NodeId> nodes,
                    const std::vector<bool>& answers) {
    ApplyReachBatch(nodes, answers);
    plan_valid_ = false;
  }

  /// Validating variant for untrusted callers (the service boundary): a
  /// batch whose answers are mutually inconsistent (no candidate survives
  /// all of them — possible from a buggy client or a noisy oracle) is
  /// rejected with InvalidArgument and the session state stays untouched,
  /// instead of tripping the fatal consistency checks.
  Status TryOnReachBatch(std::span<const NodeId> nodes,
                         const std::vector<bool>& answers) {
    const Status status = TryApplyReachBatch(nodes, answers);
    if (status.ok()) {
      plan_valid_ = false;
    }
    return status;
  }

  /// Divergence-tolerant applier for cross-epoch migration: folds the
  /// answer of an OBSERVED step — a question recorded under another
  /// epoch's weights that this session's planner would not necessarily ask
  /// at its current state — into the candidate state. Unlike the Apply*
  /// appliers (which rely on determinism to equal the local plan), the
  /// step here may genuinely differ from PlanQuestion().
  ///
  /// The candidate-state policies (the greedy family, batched,
  /// cost-sensitive) fold a divergent answer straight into the candidate
  /// set: a reachability answer is a fact about the hidden target, valid
  /// under any distribution, regardless of which planner asked it. The
  /// phase-automata baselines (top-down, WIGS, MIGS) rewrite the fact into
  /// their automaton state instead — descend/narrow/restart when the
  /// observed answer is representable, silently forget facts that are
  /// consistent but outside what the automaton encodes (the planner may
  /// re-ask them; identification stays exact). Only the scripted test
  /// policy keeps the conservative default: Unimplemented, so migration of
  /// its sessions succeeds solely on the zero-divergence path.
  ///
  /// Returns InvalidArgument when the step is malformed (shape-validated
  /// here, so overrides may assume a well-formed step) or the observed
  /// answer is inconsistent with the candidate state (it would eliminate
  /// every candidate — impossible for a genuine transcript on the same
  /// hierarchy, so this flags a corrupted or cross-hierarchy blob), and
  /// Unimplemented when this policy cannot absorb the step. The state is
  /// untouched on failure.
  Status TryApplyObserved(const TranscriptStep& step);

 protected:
  /// Appliers. Defaults are fatal (policies that never ask that question
  /// kind); TryApplyReachBatch's default forwards to ApplyReachBatch
  /// (policies without content constraints).
  virtual void ApplyReach(NodeId q, bool yes);
  virtual void ApplyChoice(std::span<const NodeId> choices, int answer);
  virtual void ApplyReachBatch(std::span<const NodeId> nodes,
                               const std::vector<bool>& answers);
  virtual Status TryApplyReachBatch(std::span<const NodeId> nodes,
                                    const std::vector<bool>& answers);
  /// Observed-step applier behind TryApplyObserved. Default: Unimplemented
  /// (divergent steps unsupported). Overrides must validate before
  /// mutating — a failed fold leaves the state untouched.
  virtual Status ApplyObservedStep(const TranscriptStep& step);

  /// True when Next() already planned for the current state. Appliers whose
  /// state transition depends on planner-derived structure (the phase
  /// automata) use this to re-derive it only when the question arrived from
  /// a plan cache without a local plan — the common in-process path settles
  /// once, in Next().
  bool plan_settled() const { return plan_valid_; }

 private:
  // The memoized plan. Mutated only by the public wrappers; appliers that
  // need planner-derived state call PlanQuestion() themselves.
  bool plan_valid_ = false;
  Query planned_;
};

/// A search strategy factory. Thread-safe for concurrent NewSession() calls
/// as long as the policy's shared base state is not mutated concurrently.
class Policy {
 public:
  virtual ~Policy() = default;

  /// Human-readable name ("GreedyTree", "TopDown", ...).
  virtual std::string name() const = 0;

  /// Starts a fresh search.
  virtual std::unique_ptr<SearchSession> NewSession() const = 0;
};

}  // namespace aigs

#endif  // AIGS_CORE_POLICY_H_

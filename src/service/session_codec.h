// SessionCodec — serializable session state via the answer transcript.
//
// A policy is a deterministic decision tree (Definition 6): the same answer
// sequence always reproduces the same questions. A session's complete state
// is therefore its compact transcript — one line per answered question —
// plus the identity of the catalog it ran against. Restore replays the
// transcript into a fresh session and verifies, step by step, that the
// regenerated questions equal the recorded ones; any divergence (changed
// weights, changed hierarchy, changed policy code) is detected instead of
// silently producing a corrupted search.
//
// Wire format (line-oriented text, versioned):
//
//   aigs-session/2
//   fingerprint <hex catalog digest>
//   hierarchy <hex hierarchy-only digest>      (v2 only)
//   epoch <n>
//   policy <registry spec>
//   steps <k>
//   reach <node> <y|n> [d]
//   batch <node+node+...> <answer pattern, e.g. ynny> [d]
//   choice <node+node+...> <answer index, -1 = none> [d]
//   end
//
// The trailing "d" marks a divergent step: its question was folded in by
// TryApplyObserved during a cross-epoch migration rather than asked by the
// session's own planner (v2 only). The hierarchy-only digest is what
// Engine::Migrate checks — migration tolerates changed WEIGHTS, never a
// changed node space. Decode still accepts v1 blobs (no hierarchy line, no
// flags); those can only be restored by exact-fingerprint Resume.
#ifndef AIGS_SERVICE_SESSION_CODEC_H_
#define AIGS_SERVICE_SESSION_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/policy.h"
#include "util/status.h"

namespace aigs {

/// Decoded form of a saved session. (TranscriptStep itself lives in
/// core/policy.h — it is also the unit of divergence-tolerant replay.)
struct SerializedSession {
  std::uint64_t fingerprint = 0;
  /// Digest of the hierarchy structure alone (0 for v1 blobs, which
  /// predate it).
  std::uint64_t hierarchy_fingerprint = 0;
  std::uint64_t epoch = 0;
  std::string policy_spec;
  std::vector<TranscriptStep> steps;
};

/// Stateless encoder/decoder for the wire format above.
class SessionCodec {
 public:
  static std::string Encode(const SerializedSession& session);
  /// Rejects malformed input with InvalidArgument; never aborts. Accepts
  /// both aigs-session/1 and aigs-session/2 input.
  static StatusOr<SerializedSession> Decode(const std::string& text);

  /// Appends the compact one-line encoding of `step` (the line Encode
  /// writes, newline-terminated, WITHOUT the divergence flag — divergence
  /// is replay bookkeeping, not transcript content) to `*out`. WAL step
  /// records carry these lines.
  static void AppendStepKey(const TranscriptStep& step, std::string* out);

  /// Parses one step line (the AppendStepKey encoding, with or without the
  /// trailing divergence flag and/or newline) back into a TranscriptStep —
  /// the inverse WAL recovery uses. InvalidArgument on malformed input.
  static StatusOr<TranscriptStep> ParseStepLine(std::string_view line);
};

}  // namespace aigs

#endif  // AIGS_SERVICE_SESSION_CODEC_H_

#include <algorithm>
#include <cmath>

#include "runs.h"

namespace perfbench {

const char* StorageName(const aigs::ReachabilityIndex& reach) {
  switch (reach.storage()) {
    case aigs::ReachabilityIndex::Storage::kEuler:
      return "euler";
    case aigs::ReachabilityIndex::Storage::kDenseClosure:
      return "dense";
    case aigs::ReachabilityIndex::Storage::kCompressedClosure:
      return "compressed";
  }
  return "?";
}

namespace {

// Median of sorted, non-empty `values`.
double Median(const std::vector<double>& values) {
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// The paper's average-case cost Σ_t p(t)·questions(t), estimated from the
// warm-up sessions. Each distinct target counts once, weighted by
// p(t)/π(t), where π(t) = 1 − (1 − p(t))^K is the chance that K draws
// include it (a Hájek estimator): the heavy targets every sample contains
// count with their exact probability instead of their sampled frequency,
// which removes most of the seed-to-seed spread of a plain mean.
double ExpectedQuestions(const std::vector<SessionRecord>& records,
                         const aigs::Distribution& distribution) {
  const auto draws = static_cast<double>(records.size());
  std::vector<bool> seen(distribution.size(), false);
  double weighted = 0;
  double weights = 0;
  for (const SessionRecord& record : records) {
    if (seen[record.target]) {
      continue;
    }
    seen[record.target] = true;
    const double p = distribution.Probability(record.target);
    const double w = p / -std::expm1(draws * std::log1p(-p));
    weighted += w * static_cast<double>(record.questions);
    weights += w;
  }
  return weighted / weights;
}

}  // namespace

Outcome RunEndToEnd(const WorkloadSpec& spec, const RunOptions& options,
                    const CpuPlan& cpus) {
  Outcome out;
  // Set-up: several fresh builds, each timed until its first Open
  // succeeds. The previous stack is torn down before the next build starts,
  // so only one catalog is resident at a time.
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  for (int b = 0; b < spec.setup_builds; ++b) {
    stack.reset();
    double seconds = 0;
    auto built = BuildStack(spec, options.workdir, &seconds);
    if (!built.ok()) {
      out.Fail("set-up failed: " + built.status().ToString());
      return out;
    }
    stack = *std::move(built);
    setups.push_back(seconds);
  }

  auto driver = MakeDriver(spec, *stack);
  if (!driver.ok()) {
    out.Fail("driver failed: " + driver.status().ToString());
    return out;
  }
  TargetStream stream(stack->distribution, options.seed);
  LoopStats check;
  LoopStats timed;
  std::vector<SessionRecord> records;
  records.reserve(spec.check_sessions);
  cpus.UseClientCpu();
  (*driver)->Run(stream, spec.check_sessions, {}, check, &records, nullptr);
  (*driver)->Run(stream, 0,
                 Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(
                                        options.seconds)),
                 timed, nullptr, nullptr);
  cpus.UseServerCpus();

  // Checks: every session found its target, no op failed, and the warm-up
  // sessions' transcripts equal a direct SearchSession replay.
  auto policy = stack->engine->snapshot()->PolicyFor(spec.policy);
  if (!policy.ok()) {
    out.Fail(policy.status().ToString());
    return out;
  }
  const std::size_t mismatches =
      CountReplayMismatches(**policy, stack->hierarchy->reach(), records,
                            static_cast<std::size_t>(cpus.allowed() - 1));
  out.attempted = check.attempted + timed.attempted;
  out.failed = check.failed + timed.failed;
  const std::uint64_t wrong = check.wrong_targets + timed.wrong_targets;
  if (wrong > 0) {
    out.Fail(std::to_string(wrong) + " sessions ended at the wrong target");
  }
  if (out.failed > 0) {
    out.Fail(std::to_string(out.failed) + " of " +
             std::to_string(out.attempted) + " ops failed");
  }
  if (records.size() != spec.check_sessions) {
    out.Fail("only " + std::to_string(records.size()) + " of " +
             std::to_string(spec.check_sessions) +
             " warm-up sessions completed");
  }
  if (mismatches > 0) {
    out.Fail(std::to_string(mismatches) + " of " +
             std::to_string(records.size()) +
             " warm-up sessions differ from the direct replay");
  }
  if (timed.sessions == 0) {
    out.Fail("the timed phase completed no session");
    return out;
  }

  std::sort(setups.begin(), setups.end());
  out.Add("setup_s", Median(setups), "s");
  out.Add("questions_per_session",
          ExpectedQuestions(records, stack->distribution), "count");
  out.Add("op_success_rate",
          static_cast<double>(out.attempted - out.failed) /
              static_cast<double>(out.attempted),
          "ratio");
  out.Add("peak_rss_mb", PeakRssMb(), "MB");

  // Throughput and turn latency over the whole timed phase are reported
  // here, not as metrics: the host's speed drifts by up to ~40% over
  // minutes, more than any bound a metric may have.
  out.provenance = {
      {"reach_storage", Quote(StorageName(stack->hierarchy->reach()))},
      {"nodes", std::to_string(stack->hierarchy->NumNodes())},
      {"policy_name", Quote((*policy)->name())},
      {"setup_builds", std::to_string(setups.size())},
      {"setup_min_s", Num(setups.front())},
      {"setup_max_s", Num(setups.back())},
      {"check_sessions", std::to_string(check.sessions)},
      {"check_mean_questions",
       Num(static_cast<double>(check.questions) /
           static_cast<double>(check.sessions))},
      {"timed_sessions", std::to_string(timed.sessions)},
      {"timed_s", Num(timed.seconds)},
      {"sessions_per_s",
       Num(static_cast<double>(timed.sessions) / timed.seconds)},
      {"turn_samples", std::to_string(timed.turn.count())},
      {"turn_p50_us", Num(timed.turn.QuantileUs(0.50))},
      {"turn_p90_us", Num(timed.turn.QuantileUs(0.90))},
      {"turn_p99_us", Num(timed.turn.QuantileUs(0.99))},
  };
  return out;
}

}  // namespace perfbench

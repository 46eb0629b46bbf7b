// Overlaps one independent piece of work with the caller's own, on a second
// CPU. Catalog set-up uses it to compute a dataset's object counts while the
// hierarchy is generated and indexed; the two share no data and each takes
// about a millisecond.
//
// Where the helper runs is the point. A plain std::thread, or a thread-pool
// worker, handed work by a busy caller is often left on the caller's CPU
// (or not run at all until the caller blocks in join), which makes the
// "overlap" serial plus a hand-off. The helper here is created with an
// affinity mask of the caller's allowed CPUs minus the one the caller is
// on, so it can only run beside it.
#ifndef AIGS_UTIL_RUN_BESIDE_H_
#define AIGS_UTIL_RUN_BESIDE_H_

#include <pthread.h>

#include <functional>
#include <memory>

namespace aigs {

/// Handle to work started by RunBeside. After Join() (or destruction) the
/// work has run exactly once, on the helper thread or on the caller.
class BesideTask {
 public:
  BesideTask(BesideTask&& other) noexcept;
  BesideTask& operator=(BesideTask&&) = delete;
  BesideTask(const BesideTask&) = delete;
  BesideTask& operator=(const BesideTask&) = delete;
  ~BesideTask();

  /// Runs the work inline if the helper has not claimed it yet (the caller
  /// never waits for a helper that has not started), otherwise waits for
  /// the helper to finish it and rethrows what it threw. Later calls do
  /// nothing. Destroying an unjoined task joins it; an exception from the
  /// work then ends the program, as one escaping a std::thread does.
  void Join();

 private:
  struct Work;
  friend BesideTask RunBeside(std::function<void()> fn);

  BesideTask() = default;
  static void* HelperMain(void* arg);

  std::shared_ptr<Work> work_;
  pthread_t thread_{};
  bool has_thread_ = false;
};

/// Starts `fn` on a short-lived helper thread placed on the caller's
/// allowed CPUs other than the one it is running on (Linux affinity
/// calls). `fn` runs inline before RunBeside returns when fewer than two
/// CPUs are allowed or the thread cannot be created. Whatever `fn` writes
/// is visible to the caller after Join(), and an exception it throws
/// reaches the caller from Join() (or from RunBeside, when inline).
BesideTask RunBeside(std::function<void()> fn);

}  // namespace aigs

#endif  // AIGS_UTIL_RUN_BESIDE_H_

#include "util/run_beside.h"

#include <sched.h>

#include <atomic>
#include <exception>
#include <utility>

namespace aigs {

struct BesideTask::Work {
  std::function<void()> fn;
  std::atomic<bool> claimed{false};
  /// What `fn` threw on the helper; Join() rethrows it on the caller.
  std::exception_ptr error;

  /// True for exactly one caller: the side that runs `fn`.
  bool Claim() { return !claimed.exchange(true, std::memory_order_acq_rel); }
};

namespace {

/// The caller's allowed CPUs minus the one it is on; false when fewer than
/// two are allowed, so a helper could only take turns with the caller.
bool HelperCpus(cpu_set_t* cpus) {
  CPU_ZERO(cpus);
  if (sched_getaffinity(0, sizeof(*cpus), cpus) != 0 || CPU_COUNT(cpus) < 2) {
    return false;
  }
  const int here = sched_getcpu();
  if (here >= 0 && here < CPU_SETSIZE) {
    CPU_CLR(here, cpus);
  }
  return true;
}

}  // namespace

void* BesideTask::HelperMain(void* arg) {
  const std::unique_ptr<std::shared_ptr<Work>> owned(
      static_cast<std::shared_ptr<Work>*>(arg));
  Work& work = **owned;
  if (work.Claim()) {
    try {
      work.fn();
    } catch (...) {
      work.error = std::current_exception();
    }
  }
  return nullptr;
}

BesideTask::BesideTask(BesideTask&& other) noexcept
    : work_(std::move(other.work_)),
      thread_(other.thread_),
      has_thread_(std::exchange(other.has_thread_, false)) {}

BesideTask::~BesideTask() { Join(); }

void BesideTask::Join() {
  if (work_ == nullptr) {
    return;
  }
  const std::shared_ptr<Work> work = std::move(work_);
  const bool helper = std::exchange(has_thread_, false);
  if (work->Claim()) {
    if (helper) {
      // The helper will find the work taken and exit without touching
      // anything but `work`, which it co-owns; waiting for it to be
      // scheduled would only add its start-up latency to the caller's.
      pthread_detach(thread_);
    }
    work->fn();
  } else if (helper) {
    pthread_join(thread_, nullptr);
    if (work->error) {
      std::rethrow_exception(work->error);
    }
  }
}

BesideTask RunBeside(std::function<void()> fn) {
  BesideTask task;
  task.work_ = std::make_shared<BesideTask::Work>();
  task.work_->fn = std::move(fn);
  cpu_set_t cpus;
  pthread_attr_t attr;
  if (HelperCpus(&cpus) && pthread_attr_init(&attr) == 0) {
    // Born with the mask, so the helper never starts on the caller's CPU.
    auto* arg = new std::shared_ptr<BesideTask::Work>(task.work_);
    task.has_thread_ =
        pthread_attr_setaffinity_np(&attr, sizeof(cpus), &cpus) == 0 &&
        pthread_create(&task.thread_, &attr, &BesideTask::HelperMain, arg) ==
            0;
    if (!task.has_thread_) {
      delete arg;
    }
    pthread_attr_destroy(&attr);
  }
  if (!task.has_thread_) {
    task.Join();
  }
  return task;
}

}  // namespace aigs

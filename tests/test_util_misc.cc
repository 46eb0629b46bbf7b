#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "tests/test_support.h"
#include "util/ascii_table.h"
#include "util/csv.h"
#include "util/env.h"
#include "util/epoch_marker.h"
#include "util/node_map.h"
#include "util/percentile.h"
#include "util/run_beside.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace aigs {
namespace {

// ---- EpochMarker -----------------------------------------------------------

TEST(EpochMarker, VisitAndReset) {
  EpochMarker m(10);
  EXPECT_FALSE(m.IsVisited(3));
  m.Visit(3);
  EXPECT_TRUE(m.IsVisited(3));
  m.NewEpoch();
  EXPECT_FALSE(m.IsVisited(3));
}

TEST(EpochMarker, VisitOnceReportsFirstVisit) {
  EpochMarker m(4);
  EXPECT_TRUE(m.VisitOnce(1));
  EXPECT_FALSE(m.VisitOnce(1));
  m.NewEpoch();
  EXPECT_TRUE(m.VisitOnce(1));
}

TEST(EpochMarker, ResizeKeepsSemantics) {
  EpochMarker m(2);
  m.Visit(1);
  m.Resize(5);
  EXPECT_TRUE(m.IsVisited(1));
  EXPECT_FALSE(m.IsVisited(4));
}

// ---- NodeMap ---------------------------------------------------------------

TEST(NodeMap, InsertAndLookup) {
  NodeMap<int> m;
  EXPECT_TRUE(m.empty());
  // A never-inserted map has no table yet; lookups and Clear still work.
  EXPECT_EQ(m.GetOr(5, -1), -1);
  EXPECT_FALSE(m.Contains(5));
  m.Clear();
  m[5] = 42;
  EXPECT_EQ(m.GetOr(5, 0), 42);
  EXPECT_EQ(m.GetOr(6, -1), -1);
  EXPECT_TRUE(m.Contains(5));
  EXPECT_FALSE(m.Contains(6));
  EXPECT_EQ(m.size(), 1u);
}

TEST(NodeMap, OperatorBracketDefaultConstructs) {
  NodeMap<int> m;
  EXPECT_EQ(m[9], 0);
  m[9] += 7;
  EXPECT_EQ(m.GetOr(9, 0), 7);
}

TEST(NodeMap, GrowsPastInitialCapacity) {
  NodeMap<std::uint64_t> m;
  for (NodeId k = 0; k < 1000; ++k) {
    m[k] = k * 3;
  }
  EXPECT_EQ(m.size(), 1000u);
  for (NodeId k = 0; k < 1000; ++k) {
    EXPECT_EQ(m.GetOr(k, 0), k * 3u);
  }
}

TEST(NodeMap, ForEachVisitsEveryEntry) {
  NodeMap<int> m;
  m[1] = 10;
  m[2] = 20;
  m[3] = 30;
  int sum = 0;
  m.ForEach([&sum](NodeId, int v) { sum += v; });
  EXPECT_EQ(sum, 60);
}

TEST(NodeMap, ClearKeepsUsable) {
  NodeMap<int> m;
  m[1] = 1;
  m.Clear();
  EXPECT_TRUE(m.empty());
  EXPECT_FALSE(m.Contains(1));
  m[2] = 2;
  EXPECT_EQ(m.GetOr(2, 0), 2);
}

// ---- string_util -----------------------------------------------------------

TEST(StringUtil, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(Trim("  x \t\n"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("no_trim"), "no_trim");
}

TEST(StringUtil, ParseIntegers) {
  EXPECT_EQ(*ParseInt64("-42"), -42);
  EXPECT_EQ(*ParseUint64(" 17 "), 17u);
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseUint64("").ok());
  EXPECT_FALSE(ParseUint64("-1").ok());
}

TEST(StringUtil, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("2.5"), 2.5);
  EXPECT_FALSE(ParseDouble("abc").ok());
}

TEST(StringUtil, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(StringUtil, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(13886889), "13,886,889");
}

// ---- AsciiTable ------------------------------------------------------------

TEST(AsciiTable, RendersAlignedColumns) {
  AsciiTable t({"Dataset", "Cost"});
  t.AddRow({"Amazon", "21.02"});
  t.AddRow({"ImageNet", "22.29"});
  const std::string rendered = t.ToString();
  EXPECT_NE(rendered.find("Dataset  | Cost"), std::string::npos);
  EXPECT_NE(rendered.find("Amazon   | 21.02"), std::string::npos);
  EXPECT_NE(rendered.find("---------+------"), std::string::npos);
}

// ---- CSV -------------------------------------------------------------------

TEST(Csv, RoundTripWithQuoting) {
  CsvWriter w({"name", "value"});
  w.AddRow({"plain", "1"});
  w.AddRow({"with,comma", "2"});
  w.AddRow({"with\"quote", "3"});
  w.AddRow({"with\nnewline", "4"});
  const auto parsed = ParseCsv(w.ToString());
  ASSERT_TRUE(parsed.ok());
  const auto& rows = *parsed;
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"name", "value"}));
  EXPECT_EQ(rows[2][0], "with,comma");
  EXPECT_EQ(rows[3][0], "with\"quote");
  EXPECT_EQ(rows[4][0], "with\nnewline");
}

TEST(Csv, RejectsUnterminatedQuote) {
  EXPECT_FALSE(ParseCsv("\"oops").ok());
}

TEST(Csv, WriteToFileAndBack) {
  CsvWriter w({"a"});
  w.AddRow({"1"});
  const std::string path = ::testing::TempDir() + "/aigs_csv_test.csv";
  ASSERT_TRUE(w.WriteToFile(path).ok());
  std::ifstream file(path);
  std::string content((std::istreambuf_iterator<char>(file)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "a\n1\n");
}

// ---- Env -------------------------------------------------------------------

TEST(Env, IntFallbackAndParse) {
  ::unsetenv("AIGS_TEST_ENV_INT");
  EXPECT_EQ(EnvInt("AIGS_TEST_ENV_INT", 7), 7);
  ::setenv("AIGS_TEST_ENV_INT", "42", 1);
  EXPECT_EQ(EnvInt("AIGS_TEST_ENV_INT", 7), 42);
  ::setenv("AIGS_TEST_ENV_INT", "junk", 1);
  EXPECT_EQ(EnvInt("AIGS_TEST_ENV_INT", 7), 7);
  ::unsetenv("AIGS_TEST_ENV_INT");
}

TEST(Env, BoolParsing) {
  ::setenv("AIGS_TEST_ENV_BOOL", "1", 1);
  EXPECT_TRUE(EnvBool("AIGS_TEST_ENV_BOOL", false));
  ::setenv("AIGS_TEST_ENV_BOOL", "off", 1);
  EXPECT_FALSE(EnvBool("AIGS_TEST_ENV_BOOL", true));
  ::setenv("AIGS_TEST_ENV_BOOL", "maybe", 1);
  EXPECT_TRUE(EnvBool("AIGS_TEST_ENV_BOOL", true));
  ::unsetenv("AIGS_TEST_ENV_BOOL");
}

// ---- ThreadPool ------------------------------------------------------------

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, RunShardsCoversEveryShardOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(17);
  pool.RunShards(hits.size(), [&hits](std::size_t s) {
    hits[s].fetch_add(1);
  });
  for (std::size_t s = 0; s < hits.size(); ++s) {
    EXPECT_EQ(hits[s].load(), 1) << "shard " << s;
  }
}

TEST(ThreadPool, RunShardsConcurrentCallersDoNotEntangle) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::thread other([&pool, &total] {
    pool.RunShards(8, [&total](std::size_t) { total.fetch_add(1); });
  });
  pool.RunShards(8, [&total](std::size_t) { total.fetch_add(1); });
  other.join();
  EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, RunShardsSingleShardRunsInline) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.RunShards(1, [&seen](std::size_t) {
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
  pool.RunShards(0, [](std::size_t) { FAIL() << "no shards to run"; });
}

// ---- NearestRank percentile ------------------------------------------------

TEST(Percentile, NearestRankMatchesDefinition) {
  const std::vector<std::uint64_t> sorted = {10, 20, 30, 40};
  const std::span<const std::uint64_t> s(sorted);
  // rank = clamp(ceil(q * 4), 1, 4), 1-indexed.
  EXPECT_EQ(NearestRankSorted(s, 0.25), 10u);
  EXPECT_EQ(NearestRankSorted(s, 0.50), 20u);
  EXPECT_EQ(NearestRankSorted(s, 0.51), 30u);
  EXPECT_EQ(NearestRankSorted(s, 0.75), 30u);
  EXPECT_EQ(NearestRankSorted(s, 0.99), 40u);
  EXPECT_EQ(NearestRankSorted(s, 1.0), 40u);
  // q so small the rank clamps up to 1.
  EXPECT_EQ(NearestRankSorted(s, 0.0), 10u);
}

TEST(Percentile, SingleSampleAndEmpty) {
  const std::vector<double> one = {3.5};
  EXPECT_EQ(NearestRankSorted(std::span<const double>(one), 0.5), 3.5);
  EXPECT_EQ(NearestRankSorted(std::span<const double>(one), 0.99), 3.5);
  const std::vector<double> none;
  EXPECT_EQ(NearestRankSorted(std::span<const double>(none), 0.5), 0.0);
}

TEST(Percentile, UnsortedOverloadSortsACopy) {
  std::vector<int> samples = {9, 1, 5, 7, 3};
  EXPECT_EQ(NearestRank(samples, 0.5), 5);
  EXPECT_EQ(NearestRank(samples, 1.0), 9);
  // The caller's vector is untouched (passed by value).
  EXPECT_EQ(samples[0], 9);
}

// ---- RunBeside -------------------------------------------------------------

int AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
}

TEST(RunBeside, HelperIsPlacedOffTheCallersCpu) {
  if (AllowedCpus() < 2) {
    GTEST_SKIP() << "needs two allowed CPUs";
  }
  cpu_set_t caller;
  CPU_ZERO(&caller);
  ASSERT_EQ(sched_getaffinity(0, sizeof(caller), &caller), 0);
  std::atomic<bool> started{false};
  int runs = 0;
  std::thread::id ran_on;
  cpu_set_t helper;
  CPU_ZERO(&helper);
  BesideTask task = RunBeside([&] {
    started.store(true);
    ++runs;
    ran_on = std::this_thread::get_id();
    sched_getaffinity(0, sizeof(helper), &helper);
  });
  // Once the helper has claimed the work, Join must wait for it, not rerun.
  while (!started.load()) {
    std::this_thread::yield();
  }
  task.Join();
  EXPECT_EQ(runs, 1);
  EXPECT_NE(ran_on, std::this_thread::get_id());
  // The helper's mask is the caller's minus exactly one CPU.
  EXPECT_EQ(CPU_COUNT(&helper), CPU_COUNT(&caller) - 1);
  cpu_set_t both;
  CPU_AND(&both, &helper, &caller);
  EXPECT_TRUE(CPU_EQUAL(&both, &helper));
}

TEST(RunBeside, RunsExactlyOnceWhicheverSideClaims) {
  // Joining at once mostly finds the work unclaimed (the caller runs it);
  // joining after a short spin mostly finds the helper on it. Either way
  // the work runs once per task.
  std::vector<int> runs(200, 0);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    BesideTask task = RunBeside([&runs, i] { ++runs[i]; });
    if (i % 2 == 1) {
      WallTimer spin;
      while (spin.ElapsedNanos() < 100'000) {
      }
    }
    task.Join();
    ASSERT_EQ(runs[i], 1) << i;
    task.Join();  // a second Join does nothing
    ASSERT_EQ(runs[i], 1) << i;
  }
}

TEST(RunBeside, DestructorJoinsAndMovedFromHandleIsEmpty) {
  std::atomic<int> runs{0};
  {
    BesideTask first = RunBeside([&] { runs.fetch_add(1); });
    BesideTask second = std::move(first);
    first.Join();  // NOLINT(bugprone-use-after-move): empty, does nothing
  }
  EXPECT_EQ(runs.load(), 1);
}

TEST(RunBeside, RunsInlineUnderAOneCpuMask) {
  testing::ScopedOneCpuMask one_cpu;
  if (!one_cpu.pinned()) {
    GTEST_SKIP() << "cannot set a one-CPU affinity mask here";
  }
  int runs = 0;
  std::thread::id ran_on;
  BesideTask task = RunBeside([&] {
    ++runs;
    ran_on = std::this_thread::get_id();
  });
  // Inline means done before RunBeside returns, on the caller's thread.
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  task.Join();
  EXPECT_EQ(runs, 1);
}

TEST(RunBeside, ForwardsInlineExceptionsToTheCaller) {
  testing::ScopedOneCpuMask one_cpu;
  if (!one_cpu.pinned()) {
    GTEST_SKIP() << "cannot set a one-CPU affinity mask here";
  }
  EXPECT_THROW(RunBeside([] { throw std::runtime_error("inline"); }),
               std::runtime_error);
}

TEST(RunBeside, ForwardsHelperExceptionsToTheCaller) {
  if (AllowedCpus() < 2) {
    GTEST_SKIP() << "needs two allowed CPUs for the helper path";
  }
  std::atomic<bool> started{false};
  BesideTask task = RunBeside([&] {
    started.store(true);
    throw std::runtime_error("helper");
  });
  while (!started.load()) {
    std::this_thread::yield();
  }
  EXPECT_THROW(task.Join(), std::runtime_error);
  task.Join();  // the error was handed over once
}

// ---- Timer -----------------------------------------------------------------

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer t;
  const std::int64_t first = t.ElapsedNanos();
  EXPECT_GE(first, 0);
  // Burn a little CPU; elapsed must be monotonic.
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + static_cast<std::uint64_t>(i);
  }
  EXPECT_GE(t.ElapsedNanos(), first);
  EXPECT_GE(t.ElapsedMillis(), 0.0);
  t.Reset();
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
}

}  // namespace
}  // namespace aigs

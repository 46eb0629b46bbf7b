// Measurement plumbing shared by the benchmark's end-to-end and traced
// runs: a nanosecond latency histogram, CPU pinning, process counters, an
// in-memory span recorder, and the JSON result line.
#ifndef AIGS_PERFBENCH_HARNESS_H_
#define AIGS_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Log-linear histogram of nanosecond samples: exact below 256 ns, then
/// 256 sub-buckets per power of two (< 0.4% relative width). Fixed size, so
/// recording millions of turns costs no memory growth that would show in
/// peak RSS.
class Histogram {
 public:
  Histogram();
  void Record(std::int64_t ns);
  std::uint64_t count() const { return count_; }
  /// The q-quantile in nanoseconds, interpolated by rank inside its bucket.
  double QuantileNs(double q) const;
  double QuantileUs(double q) const { return QuantileNs(q) / 1e3; }
  void Merge(const Histogram& other);

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// Splits the CPUs this process may run on into one client CPU and the
/// rest. Threads inherit their creator's mask, so the benchmark calls
/// UseServerCpus() before it creates engines, pools and servers, and
/// UseClientCpu() on the driving thread only while it drives load.
class CpuPlan {
 public:
  CpuPlan();
  int allowed() const { return static_cast<int>(cpus_.size()); }
  void UseServerCpus() const;
  void UseClientCpu() const;
  std::string Describe() const;

 private:
  std::vector<int> cpus_;
  bool pinned_ = false;
};

/// Process-wide resource counters (getrusage) at one instant.
struct ProcSample {
  double user_ms = 0;
  double sys_ms = 0;
  std::uint64_t ctx_switches = 0;
  static ProcSample Now();
};

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// One recorded span: a named interval at a layer boundary, its parent
/// span (index, or -1), and the session it belongs to.
struct Span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;
  std::uint64_t session = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span recorder with a fixed capacity; once full, Begin records
/// nothing and callers stop. Written out once, when the run ends.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity);
  std::uint32_t Intern(const std::string& name);
  /// Opens a span and returns its index (-1 when full).
  std::int32_t Begin(std::uint32_t name, std::int32_t parent,
                     std::uint64_t session);
  void End(std::int32_t index);
  bool full() const { return spans_.size() >= capacity_; }
  const std::vector<Span>& spans() const { return spans_; }
  const std::string& name(std::uint32_t id) const { return names_[id]; }
  /// Writes one tab-separated line per span.
  bool WriteTsv(const std::string& path) const;

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
};

/// Creates a fresh directory `<parent>/<prefix>XXXXXX` and removes it, with
/// everything inside, on destruction.
class TempDir {
 public:
  TempDir(const std::string& parent, const std::string& prefix);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  bool ok() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// One metric of the result line.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Ordered name → metric map (insertion order is print order).
using Metrics = std::vector<std::pair<std::string, Metric>>;

/// Formats a double with enough digits to round-trip.
std::string Num(double value);

/// Quotes a string for JSON.
std::string Quote(const std::string& text);

/// The result line the benchmark ends with.
std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const Metrics& metrics);

/// A JSON object of (name, already-encoded JSON value) fields, in order.
std::string ObjectJson(
    const std::vector<std::pair<std::string, std::string>>& fields);

}  // namespace perfbench

#endif  // AIGS_PERFBENCH_HARNESS_H_

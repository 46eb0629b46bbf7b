#include "harness.h"

#include <sched.h>
#include <stdlib.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace perfbench {
namespace {

constexpr int kSubBits = 8;
constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
constexpr std::size_t kNumBuckets = kSub + (64 - kSubBits) * kSub;

std::size_t BucketOf(std::uint64_t v) {
  if (v < kSub) {
    return static_cast<std::size_t>(v);
  }
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - kSubBits;
  const std::uint64_t sub = (v >> shift) - kSub;
  return static_cast<std::size_t>(kSub + static_cast<std::uint64_t>(shift) *
                                             kSub + sub);
}

// [lower, lower + width) of bucket `b`.
std::pair<double, double> BucketRange(std::size_t b) {
  if (b < kSub) {
    return {static_cast<double>(b), 1.0};
  }
  const std::size_t shift = (b - kSub) / kSub;
  const std::size_t sub = (b - kSub) % kSub;
  const double width = static_cast<double>(std::uint64_t{1} << shift);
  return {static_cast<double>(kSub + sub) * width, width};
}

void SetAffinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

Histogram::Histogram() : buckets_(kNumBuckets, 0) {}

void Histogram::Record(std::int64_t ns) {
  const std::uint64_t v = ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
  ++buckets_[BucketOf(v)];
  ++count_;
}

double Histogram::QuantileNs(double q) const {
  if (count_ == 0) {
    return 0;
  }
  const double rank = q * static_cast<double>(count_ - 1);
  double before = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const double here = static_cast<double>(buckets_[b]);
    if (here == 0) {
      continue;
    }
    if (rank < before + here) {
      const auto [lower, width] = BucketRange(b);
      return lower + (rank - before + 0.5) / here * width;
    }
    before += here;
  }
  return 0;
}

void Histogram::Merge(const Histogram& other) {
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b] += other.buckets_[b];
  }
  count_ += other.count_;
}

CpuPlan::CpuPlan() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus_.push_back(cpu);
      }
    }
  }
  pinned_ = cpus_.size() >= 2;
}

void CpuPlan::UseServerCpus() const {
  if (pinned_) {
    SetAffinity(std::vector<int>(cpus_.begin() + 1, cpus_.end()));
  }
}

void CpuPlan::UseClientCpu() const {
  if (pinned_) {
    SetAffinity({cpus_.front()});
  }
}

std::string CpuPlan::Describe() const {
  if (!pinned_) {
    return "unpinned";
  }
  std::string out = "client=" + std::to_string(cpus_.front()) + " server=";
  for (std::size_t i = 1; i < cpus_.size(); ++i) {
    if (i > 1) {
      out += ',';
    }
    out += std::to_string(cpus_[i]);
  }
  return out;
}

ProcSample ProcSample::Now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return {ms(usage.ru_utime), ms(usage.ru_stime),
          static_cast<std::uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw)};
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
}

std::uint32_t Tracer::Intern(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) {
    return static_cast<std::uint32_t>(it - names_.begin());
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t Tracer::Begin(std::uint32_t name, std::int32_t parent,
                           std::uint64_t session) {
  if (full()) {
    return -1;
  }
  spans_.push_back({name, parent, session, NowNs(), 0});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::End(std::int32_t index) {
  if (index >= 0) {
    spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  }
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  out << "index\tname\tparent\tsession\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << names_[s.name] << '\t' << s.parent << '\t'
        << s.session << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

TempDir::TempDir(const std::string& parent, const std::string& prefix) {
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  std::string pattern = parent + "/" + prefix + "XXXXXX";
  if (mkdtemp(pattern.data()) != nullptr) {
    path_ = pattern;
  }
}

TempDir::~TempDir() {
  if (!path_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
}

std::string Num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string ObjectJson(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out += (i == 0 ? "" : ", ") + Quote(fields[i].first) + ": " +
           fields[i].second;
  }
  return out + "}";
}

std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const Metrics& metrics) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (const auto& [name, metric] : metrics) {
    entries.emplace_back(name, ObjectJson({{"value", Num(metric.value)},
                                           {"unit", Quote(metric.unit)}}));
  }
  return ObjectJson({{"correct", correct ? "true" : "false"},
                     {"attempted", std::to_string(attempted)},
                     {"failed", std::to_string(failed)},
                     {"metrics", ObjectJson(entries)}});
}

}  // namespace perfbench

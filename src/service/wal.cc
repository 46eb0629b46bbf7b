#include "service/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/crc32.h"
#include "util/string_util.h"

namespace aigs {
namespace {

constexpr std::size_t kFrameHeader = 8;  // u32 length + u32 crc

void PutU32(std::uint32_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

std::uint32_t GetU32(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

Status Errno(const std::string& what, const std::string& path) {
  return Status::IOError(what + " '" + path + "': " + std::strerror(errno));
}

/// write(2) until the whole buffer lands (short writes and EINTR retried).
Status WriteFully(int fd, std::string_view data, const std::string& path) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Errno("wal write to", path);
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return Status::OK();
}

}  // namespace

StatusOr<WalSyncOptions> ParseFsyncPolicy(std::string_view text) {
  const std::string_view spec = Trim(text);
  WalSyncOptions sync;
  if (spec == "always") {
    sync.policy = FsyncPolicy::kAlways;
    return sync;
  }
  if (spec == "none") {
    sync.policy = FsyncPolicy::kNone;
    return sync;
  }
  if (spec.starts_with("interval:")) {
    sync.policy = FsyncPolicy::kInterval;
    AIGS_ASSIGN_OR_RETURN(const std::uint64_t n,
                          ParseUint64(spec.substr(9)));
    if (n == 0) {
      return Status::InvalidArgument("fsync interval must be >= 1");
    }
    sync.interval = static_cast<std::size_t>(n);
    return sync;
  }
  return Status::InvalidArgument("unknown fsync policy '" +
                                 std::string(spec) +
                                 "' (always, interval:N, none)");
}

std::string FormatFsyncPolicy(const WalSyncOptions& sync) {
  switch (sync.policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kInterval:
      return "interval:" + std::to_string(sync.interval);
    case FsyncPolicy::kNone:
      return "none";
  }
  return "?";
}

WalWriter::WalWriter(std::string path, int fd, std::uint64_t bytes,
                     WalSyncOptions sync)
    : path_(std::move(path)), sync_(sync), fd_(fd), bytes_(bytes) {}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    // Best-effort flush so a graceful destruction loses nothing even under
    // kInterval/kNone; a crash is the WAL's job, not the destructor's. A
    // writer whose records are all synced (a rotated-out segment, a
    // checkpoint file after its Sync) skips the redundant fsync.
    if (appended_records_ > synced_records_) {
      ::fsync(fd_);
    }
    ::close(fd_);
  }
}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(std::string path,
                                                     WalSyncOptions sync) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Errno("cannot open wal", path);
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const Status status = Errno("cannot stat wal", path);
    ::close(fd);
    return status;
  }
  return std::unique_ptr<WalWriter>(new WalWriter(
      std::move(path), fd, static_cast<std::uint64_t>(st.st_size), sync));
}

Status WalWriter::Append(std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeader + payload.size());
  PutU32(static_cast<std::uint32_t>(payload.size()), &frame);
  PutU32(Crc32(payload), &frame);
  frame += payload;

  std::unique_lock<std::mutex> lock(mu_);
  AIGS_RETURN_NOT_OK(WriteFully(fd_, frame, path_));
  bytes_ += frame.size();
  const std::uint64_t my_seq = ++appended_records_;
  switch (sync_.policy) {
    case FsyncPolicy::kNone:
      return Status::OK();
    case FsyncPolicy::kInterval:
      if (appended_records_ - synced_records_ < sync_.interval) {
        return Status::OK();
      }
      break;
    case FsyncPolicy::kAlways:
      break;
  }
  return SyncLocked(lock, my_seq);
}

Status WalWriter::Sync() {
  std::unique_lock<std::mutex> lock(mu_);
  return SyncLocked(lock, appended_records_);
}

Status WalWriter::SyncLocked(std::unique_lock<std::mutex>& lock,
                             std::uint64_t target) {
  for (;;) {
    if (synced_records_ >= target) {
      return Status::OK();  // another appender's fsync covered our record
    }
    if (!sync_in_flight_) {
      break;
    }
    sync_cv_.wait(lock);
  }
  sync_in_flight_ = true;
  // The fsync covers every record already written; note the watermark
  // before dropping the mutex (appends during the fsync are NOT covered).
  const std::uint64_t covered = appended_records_;
  lock.unlock();
  const int rc = ::fsync(fd_);
  lock.lock();
  sync_in_flight_ = false;
  if (rc == 0 && synced_records_ < covered) {
    synced_records_ = covered;
    ++syncs_;
  }
  sync_cv_.notify_all();
  if (rc != 0) {
    return Errno("wal fsync of", path_);
  }
  return synced_records_ >= target
             ? Status::OK()
             : SyncLocked(lock, target);  // raced an append mid-fsync
}

std::uint64_t WalWriter::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::uint64_t WalWriter::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_records_;
}

std::uint64_t WalWriter::syncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return syncs_;
}

StatusOr<WalScan> ReadWal(const std::string& path) {
  WalScan scan;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (::access(path.c_str(), F_OK) != 0) {
      return scan;  // no file, empty log
    }
    return Status::IOError("cannot read wal '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IOError("cannot read wal '" + path + "'");
  }
  const std::string data = std::move(buffer).str();

  std::size_t pos = 0;
  while (data.size() - pos >= kFrameHeader) {
    const std::size_t length = GetU32(data.data() + pos);
    const std::uint32_t crc = GetU32(data.data() + pos + 4);
    if (length > data.size() - pos - kFrameHeader) {
      break;  // frame runs past EOF: torn final write
    }
    const std::string_view payload(data.data() + pos + kFrameHeader, length);
    if (Crc32(payload) != crc) {
      break;  // bit rot or a torn rewrite; nothing behind it is framed
    }
    scan.records.emplace_back(payload);
    pos += kFrameHeader + length;
  }
  scan.valid_bytes = pos;
  scan.torn_bytes = data.size() - pos;
  return scan;
}

}  // namespace aigs

#include "ipc/port_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

#include "ipc/fd.hpp"
#include "support/fault.hpp"
#include "support/strings.hpp"
#include "support/temp_file.hpp"
#include "support/timing.hpp"

namespace dionea::ipc {

Status PortFile::publish(const PortRecord& record) const {
  // O_RDWR (not O_WRONLY): we pread the current tail byte to self-heal
  // after a writer that crashed mid-append.
  int fd = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return errno_error("open " + path_, errno);
  std::string line = strings::format("%d %d %u %lld\n", record.pid,
                                     record.parent_pid,
                                     static_cast<unsigned>(record.port),
                                     static_cast<long long>(record.seq));

  // Torn-append injection: a previous writer died after writing only a
  // prefix of its record (no trailing newline). The recovery below and
  // the reader's line tolerance must both absorb this.
  if (fault::Decision f = fault::probe("port_file.append");
      f.kind == fault::Kind::kTorn) {
    (void)::write(fd, line.data(), line.size() / 2);
  }

  // If the file does not end in '\n', a writer died mid-record: start
  // on a fresh line so our record is not glued to the torn fragment.
  struct stat st{};
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    char last = '\0';
    if (::pread(fd, &last, 1, st.st_size - 1) == 1 && last != '\n') {
      line.insert(line.begin(), '\n');
    }
  }

  // Single write(2) of the full line: O_APPEND makes it atomic with
  // respect to concurrent publishers. A short count means the record
  // is torn on disk — report it; readers skip the fragment.
  Status status = Status::ok();
  ssize_t n;
  do {
    n = ::write(fd, line.data(), line.size());
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    status = errno_error("append " + path_, errno);
  } else if (n != static_cast<ssize_t>(line.size())) {
    status = Status(ErrorCode::kOsError,
                    "torn append to " + path_ + " (" + std::to_string(n) +
                        " of " + std::to_string(line.size()) + " bytes)");
  }
  ::close(fd);
  return status;
}

namespace {

// Appends every well-formed record in `text` to `out`, one per
// '\n'-separated line. Blank, torn and garbage lines are skipped.
void parse_records(std::string_view text, std::vector<PortRecord>* out) {
  for (const std::string& line : strings::split(text, '\n')) {
    auto fields = strings::split_whitespace(line);
    if (fields.size() != 4) continue;  // blank or torn line
    std::int64_t pid = 0, ppid = 0, port = 0, seq = 0;
    if (!strings::parse_int(fields[0], &pid) ||
        !strings::parse_int(fields[1], &ppid) ||
        !strings::parse_int(fields[2], &port) ||
        !strings::parse_int(fields[3], &seq)) {
      continue;
    }
    if (port <= 0 || port > 65535) continue;
    out->push_back(PortRecord{static_cast<int>(pid), static_cast<int>(ppid),
                              static_cast<std::uint16_t>(port), seq});
  }
}

}  // namespace

Result<std::vector<PortRecord>> PortFile::read_all() const {
  std::vector<PortRecord> out;
  auto contents = read_file(path_);
  if (!contents.is_ok()) {
    if (contents.error().code() == ErrorCode::kNotFound) return out;
    return contents.error();
  }
  parse_records(contents.value(), &out);
  return out;
}

Result<std::vector<PortRecord>> PortFile::tail(std::uint64_t* offset) const {
  std::vector<PortRecord> out;
  Fd fd(::open(path_.c_str(), O_RDONLY | O_CLOEXEC));
  if (!fd.valid()) {
    if (errno != ENOENT) return errno_error("open " + path_, errno);
    *offset = 0;  // a recreated file starts over
    return out;
  }
  struct stat st{};
  if (::fstat(fd.get(), &st) != 0) return errno_error("fstat " + path_, errno);
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (size < *offset) *offset = 0;  // shorter than what we read: recreated
  if (size == *offset) return out;
  std::string chunk(size - *offset, '\0');
  ssize_t n;
  do {
    n = ::pread(fd.get(), chunk.data(), chunk.size(),
                static_cast<off_t>(*offset));
  } while (n < 0 && errno == EINTR);
  if (n < 0) return errno_error("read " + path_, errno);
  chunk.resize(static_cast<size_t>(n));
  // Only whole lines: a line still being written (or torn) stays for a
  // later call, which sees it completed by the next publisher's '\n'.
  size_t end = chunk.rfind('\n');
  if (end == std::string::npos) return out;
  parse_records(std::string_view(chunk).substr(0, end + 1), &out);
  *offset += end + 1;
  return out;
}

Result<PortRecord> PortFile::await_pid(int pid, int timeout_millis) const {
  Stopwatch watch;
  std::uint64_t offset = 0;
  while (true) {
    DIONEA_ASSIGN_OR_RETURN(std::vector<PortRecord> records, tail(&offset));
    // Latest record wins: a pid may republish after a second fork.
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
      if (it->pid == pid) return *it;
    }
    if (watch.elapsed_seconds() * 1000.0 > timeout_millis) {
      return Error(ErrorCode::kTimeout,
                   "no port record for pid " + std::to_string(pid));
    }
    sleep_for_millis(5);
  }
}

Result<std::vector<PortRecord>> PortFile::read_new(size_t already_seen) const {
  DIONEA_ASSIGN_OR_RETURN(std::vector<PortRecord> records, read_all());
  if (records.size() <= already_seen) return std::vector<PortRecord>{};
  return std::vector<PortRecord>(records.begin() + already_seen,
                                 records.end());
}

}  // namespace dionea::ipc

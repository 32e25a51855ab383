// Port-handoff file (§5.3 problem 3).
//
// "Dionea's fork handlers use a temporary file, where the port number
// of the most recently created process is saved." After fork, the
// child's debug server binds a fresh listener and appends a record
// {pid, parent_pid, port, seq} to this file; the client tails the file
// and opens a new session to each previously unseen pid.
//
// The file is append-only with line-oriented records and O_APPEND
// writes (atomic for short writes), so parent and any number of
// children can publish concurrently without a lock shared across the
// fork boundary — exactly the constraint fork handler C operates under.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/result.hpp"

namespace dionea::ipc {

struct PortRecord {
  int pid = 0;
  int parent_pid = 0;
  std::uint16_t port = 0;
  std::int64_t seq = 0;  // publisher-local ordering

  bool operator==(const PortRecord&) const = default;
};

class PortFile {
 public:
  explicit PortFile(std::string path) : path_(std::move(path)) {}

  const std::string& path() const noexcept { return path_; }

  // Append one record: a single O_APPEND write of the full line. There
  // is no fsync: once write(2) returns the record is in the shared page
  // cache, where every reader sees it even if the publisher dies the
  // next instant; only a host crash could lose it, and after one every
  // port in the file is dead anyway. If the file's tail is a torn
  // record (a writer died mid-append), the new record starts on a fresh
  // line so it stays parseable.
  Status publish(const PortRecord& record) const;

  // All records currently in the file, in append order. Torn or
  // garbage lines (a writer mid-write or crashed mid-append) are
  // skipped, not errors.
  Result<std::vector<PortRecord>> read_all() const;

  // Block until a record for `pid` appears or timeout elapses.
  Result<PortRecord> await_pid(int pid, int timeout_millis) const;

  // Records appended after the first `already_seen` ones.
  Result<std::vector<PortRecord>> read_new(size_t already_seen) const;

  // Records in the complete lines between byte `*offset` and the end of
  // the file, read with one pread; `*offset` moves past them. A line
  // with no '\n' yet (mid-write, or torn) stays unread until a later
  // publisher's leading '\n' completes it; it is then skipped as
  // garbage, as read_all skips it. A file shorter than `*offset`, or
  // missing, was recreated: reading starts again at byte 0. Costs only
  // the new bytes, so a client can poll it every millisecond.
  Result<std::vector<PortRecord>> tail(std::uint64_t* offset) const;

 private:
  std::string path_;
};

}  // namespace dionea::ipc

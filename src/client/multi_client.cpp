#include "client/multi_client.hpp"

#include <signal.h>

#include <algorithm>

#include "debugger/protocol.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/timing.hpp"

namespace dionea::client {

namespace proto = dbg::proto;

namespace {
// Between port-file polls: a poll that finds nothing new costs an
// open, fstat and close.
constexpr int kPollSliceMillis = 1;

DebugEvent make_gone_event(int pid, bool clean_exit, int exit_code,
                           int term_signal) {
  DebugEvent event;
  event.kind = clean_exit ? proto::Event::kProcessExited
                          : proto::Event::kProcessCrashed;
  event.name = proto::event_name(event.kind);
  event.payload = proto::make_event(event.kind);
  event.payload.set("pid", pid);
  if (exit_code >= 0) event.payload.set("exit_code", exit_code);
  if (term_signal != 0) event.payload.set("signal", term_signal);
  return event;
}
}  // namespace

Result<int> MultiClient::refresh(int timeout_millis) {
  DIONEA_ASSIGN_OR_RETURN(std::vector<ipc::PortRecord> fresh,
                          port_file_.tail(&tail_offset_));
  for (const ipc::PortRecord& record : fresh) {
    // A newer record for a pid supersedes a pending one (re-bind).
    std::erase_if(pending_, [&](const ipc::PortRecord& old) {
      return old.pid == record.pid;
    });
    pending_.push_back(record);
  }
  int attached = 0;
  std::vector<ipc::PortRecord> retry;
  for (const ipc::PortRecord& record : pending_) {
    if (sessions_.count(record.pid) > 0) {
      // Re-published port (double fork re-binds): replace the session.
      sessions_.erase(record.pid);
    }
    auto session = Session::attach(record.port, timeout_millis);
    if (!session.is_ok()) {
      // Retry on the next refresh while the process lives; drop the
      // record once it has exited.
      DLOG_DEBUG("client") << "could not attach pid " << record.pid << ": "
                           << session.error().to_string();
      if (::kill(record.pid, 0) == 0) retry.push_back(record);
      continue;
    }
    sessions_[record.pid] = std::move(session).value();
    unclaimed_.push_back(record.pid);
    ++attached;
  }
  pending_ = std::move(retry);
  return attached;
}

void MultiClient::claim(int pid) {
  for (auto it = unclaimed_.begin(); it != unclaimed_.end(); ++it) {
    if (*it == pid) {
      unclaimed_.erase(it);
      return;
    }
  }
}

Result<Session*> MultiClient::await_process(int pid, int timeout_millis) {
  Stopwatch watch;
  while (true) {
    DIONEA_RETURN_IF_ERROR(refresh(timeout_millis).status());
    auto it = sessions_.find(pid);
    if (it != sessions_.end()) {
      claim(pid);
      return it->second.get();
    }
    if (watch.elapsed_seconds() * 1000.0 > timeout_millis) {
      return Error(ErrorCode::kTimeout,
                   "no session for pid " + std::to_string(pid));
    }
    sleep_for_millis(kPollSliceMillis);
  }
}

Result<Session*> MultiClient::await_new_process(int timeout_millis) {
  Stopwatch watch;
  while (true) {
    // Hand out processes adopted by earlier refreshes first: one
    // refresh may attach several children at once.
    while (!unclaimed_.empty()) {
      int pid = unclaimed_.front();
      unclaimed_.pop_front();
      auto it = sessions_.find(pid);
      if (it != sessions_.end()) return it->second.get();
    }
    DIONEA_RETURN_IF_ERROR(refresh(timeout_millis).status());
    if (unclaimed_.empty()) {
      if (watch.elapsed_seconds() * 1000.0 > timeout_millis) {
        return Error(ErrorCode::kTimeout, "no new process appeared");
      }
      sleep_for_millis(kPollSliceMillis);
    }
  }
}

Session* MultiClient::session(int pid) {
  auto it = sessions_.find(pid);
  return it == sessions_.end() ? nullptr : it->second.get();
}

std::vector<int> MultiClient::pids() const {
  std::vector<int> out;
  out.reserve(sessions_.size());
  for (const auto& [pid, unused] : sessions_) out.push_back(pid);
  return out;
}

Status MultiClient::activate(int pid, std::int64_t tid) {
  Session* target = session(pid);
  if (target == nullptr) {
    return Status(ErrorCode::kNotFound,
                  "no session for pid " + std::to_string(pid));
  }
  // Validate the thread exists in that process (the §4.2 sequence:
  // clicking thread 2 of process B triggers a call into the server).
  DIONEA_ASSIGN_OR_RETURN(std::vector<RemoteThread> threads,
                          target->threads());
  for (const RemoteThread& t : threads) {
    if (t.tid == tid) {
      active_ = View{pid, tid};
      return Status::ok();
    }
  }
  return Status(ErrorCode::kNotFound,
                "pid " + std::to_string(pid) + " has no thread " +
                    std::to_string(tid));
}

Result<std::string> MultiClient::active_source() {
  if (!active_.valid()) {
    return Error(ErrorCode::kInvalidArgument, "no active view");
  }
  Session* target = session(active_.pid);
  if (target == nullptr) {
    return Error(ErrorCode::kNotFound, "active session is gone");
  }
  DIONEA_ASSIGN_OR_RETURN(std::vector<RemoteFrame> frames,
                          target->frames(active_.tid));
  if (frames.empty()) {
    return Error(ErrorCode::kNotFound, "active thread has no frames");
  }
  return target->source(frames.front().file);
}

Result<std::vector<RemoteFrame>> MultiClient::active_frames() {
  if (!active_.valid()) {
    return Error(ErrorCode::kInvalidArgument, "no active view");
  }
  Session* target = session(active_.pid);
  if (target == nullptr) {
    return Error(ErrorCode::kNotFound, "active session is gone");
  }
  return target->frames(active_.tid);
}

Result<std::vector<std::pair<int, DebugEvent>>> MultiClient::poll_all_events(
    int timeout_millis_per_session) {
  std::vector<std::pair<int, DebugEvent>> out;
  // Out-of-band observations (note_child_exit) go first: they arrived
  // earlier than anything still sitting in a socket buffer.
  while (!pending_events_.empty()) {
    out.push_back(std::move(pending_events_.front()));
    pending_events_.pop_front();
  }
  for (auto& [pid, session] : sessions_) {
    if (reported_dead_.count(pid) > 0) continue;  // already announced
    if (!session->connected()) {
      reported_dead_.insert(pid);
      out.emplace_back(pid, make_gone_event(pid, session->terminated_seen(),
                                            /*exit_code=*/-1,
                                            /*term_signal=*/0));
      continue;
    }
    auto event = session->poll_event(timeout_millis_per_session);
    if (!event.is_ok()) {
      if (event.error().code() == ErrorCode::kClosed) {
        // The transport died under us: surface the loss as a
        // first-class event instead of silently skipping the pid.
        reported_dead_.insert(pid);
        out.emplace_back(pid, make_gone_event(pid, session->terminated_seen(),
                                              /*exit_code=*/-1,
                                              /*term_signal=*/0));
        continue;
      }
      return event.error();
    }
    if (event.value().has_value()) {
      DebugEvent& ev = *event.value();
      if (ev.kind == proto::Event::kProcessCrashed) {
        // The server's last gasp: remember where the corpse is and
        // mark the pid announced, so the transport collapse that
        // follows a crash is not reported a second time.
        std::string path = ev.payload.get_string("report_path");
        if (!path.empty()) crash_reports_[pid] = path;
        reported_dead_.insert(pid);
      }
      out.emplace_back(pid, std::move(ev));
    }
  }
  return out;
}

void MultiClient::note_child_exit(int pid, int exit_code, int term_signal) {
  if (reported_dead_.count(pid) > 0) return;
  reported_dead_.insert(pid);
  pending_events_.emplace_back(
      pid, make_gone_event(pid, /*clean_exit=*/term_signal == 0, exit_code,
                           term_signal));
}

Result<Session*> MultiClient::reconnect(int pid,
                                        const ReconnectPolicy& policy) {
  // Breakpoints belong to the user, not the connection: carry them
  // over from the dead session (if any survives to consult).
  std::vector<BreakpointSpec> carry;
  if (auto it = sessions_.find(pid); it != sessions_.end()) {
    carry = it->second->breakpoints_set();
  }

  Rng rng(policy.seed ^ static_cast<std::uint64_t>(pid));
  double delay = static_cast<double>(policy.initial_delay_millis);
  Error last(ErrorCode::kUnavailable, "no reconnect attempt made");
  for (int attempt = 0; attempt < std::max(1, policy.max_attempts);
       ++attempt) {
    if (attempt > 0) {
      double factor = 1.0 - policy.jitter + 2.0 * policy.jitter *
                                                rng.next_double();
      sleep_for_millis(static_cast<int>(delay * factor));
      delay = std::min(delay * policy.multiplier,
                       static_cast<double>(policy.max_delay_millis));
    }
    // Read the whole port file: the restarted server re-published, and
    // its newest record for this pid is the live one.
    auto records = port_file_.read_all();
    if (!records.is_ok()) {
      last = records.error();
      continue;
    }
    const ipc::PortRecord* newest = nullptr;
    for (const ipc::PortRecord& record : records.value()) {
      if (record.pid == pid) newest = &record;
    }
    if (newest == nullptr) {
      last = Error(ErrorCode::kNotFound,
                   "no port record for pid " + std::to_string(pid));
      continue;
    }
    auto attached = Session::attach(newest->port, /*timeout_millis=*/500);
    if (!attached.is_ok()) {
      last = attached.error();
      continue;
    }
    std::unique_ptr<Session> session = std::move(attached).value();
    for (const BreakpointSpec& bp : carry) {
      // Best effort — the restarted debuggee may not know the file
      // (yet); a failed re-apply must not fail the reconnect.
      auto re_set = session->set_breakpoint(bp.file, bp.line, bp.tid,
                                            bp.ignore);
      if (!re_set.is_ok()) {
        DLOG_DEBUG("client") << "reconnect pid " << pid
                             << ": breakpoint " << bp.file << ":" << bp.line
                             << " not re-applied: "
                             << re_set.error().to_string();
      }
    }
    Session* raw = session.get();
    sessions_[pid] = std::move(session);
    // The re-published record is now adopted; don't let the next
    // refresh() re-attach it and clobber this session. Other pids'
    // unread records stay pending for refresh().
    if (auto unread = port_file_.tail(&tail_offset_); unread.is_ok()) {
      pending_.insert(pending_.end(), unread.value().begin(),
                      unread.value().end());
    }
    std::erase_if(pending_, [pid](const ipc::PortRecord& record) {
      return record.pid == pid;
    });
    reported_dead_.erase(pid);
    crash_reports_.erase(pid);  // the corpse belonged to the predecessor
    return raw;
  }
  return Error(last.code(), "reconnect to pid " + std::to_string(pid) +
                                " failed after " +
                                std::to_string(policy.max_attempts) +
                                " attempts: " + last.message());
}

}  // namespace dionea::client

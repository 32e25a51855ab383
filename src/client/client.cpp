#include "client/client.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <iterator>

#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/timing.hpp"

namespace dionea::client {

namespace proto = dbg::proto;

namespace {

// Between port-file polls: a poll that finds nothing new costs an
// open, fstat and close.
constexpr int kPortFilePollMillis = 1;
// Between hub-sessions polls: each one is an RPC through the hub.
constexpr int kHubPollMillis = 10;

std::string fresh_token() {
  static std::atomic<std::uint64_t> counter{0};
  return "cli-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed) + 1);
}

DebugEvent make_gone_event(int pid, bool clean_exit, int exit_code = -1,
                           int term_signal = 0) {
  DebugEvent event;
  event.kind = clean_exit ? proto::Event::kProcessExited
                          : proto::Event::kProcessCrashed;
  event.name = proto::event_name(event.kind);
  event.payload = proto::make_event(event.kind);
  if (pid != 0) event.payload.set("pid", pid);
  if (exit_code >= 0) event.payload.set("exit_code", exit_code);
  if (term_signal != 0) event.payload.set("signal", term_signal);
  return event;
}

}  // namespace

std::unique_ptr<Client> Client::discover(std::string port_file_path) {
  auto client = std::unique_ptr<Client>(new Client());
  client->port_file_.emplace(std::move(port_file_path));
  return client;
}

Result<std::unique_ptr<Client>> Client::connect(std::uint16_t port,
                                                int timeout_millis) {
  auto client = std::unique_ptr<Client>(new Client());
  DIONEA_RETURN_IF_ERROR(client->handshake(port, timeout_millis));
  return client;
}

Status Client::handshake(std::uint16_t port, int timeout_millis) {
  token_ = fresh_token();
  endpoint_port_ = port;
  DIONEA_ASSIGN_OR_RETURN(std::unique_ptr<Session> link,
                          Session::attach(port, timeout_millis, token_));
  if (!link->supports(proto::kCapHub)) {
    // A plain per-process server (or a pre-1.5 peer): its one session,
    // handle = the debuggee pid.
    unclaimed_.push_back(adopt(std::move(link))->pid());
    return Status::ok();
  }
  mode_ = Mode::kHub;
  link_ = std::move(link);
  DIONEA_RETURN_IF_ERROR(hub_attach_all());
  return hub_refresh(timeout_millis).status();
}

Result<int> Client::refresh(int timeout_millis) {
  if (hub_mode()) return hub_refresh(timeout_millis);
  if (!port_file_) return 0;  // one endpoint, nothing new can appear
  DIONEA_ASSIGN_OR_RETURN(std::vector<ipc::PortRecord> fresh,
                          port_file_->tail(&tail_offset_));
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
    // Re-published port (double fork re-binds): replace the session.
    sessions_.erase(record.pid);
    auto session =
        Session::attach(record.port, timeout_millis, /*client_token=*/"",
                        record.pid);
    if (!session.is_ok()) {
      // Retry on the next refresh while the process lives; drop the
      // record once it has exited.
      DLOG_DEBUG("client") << "could not attach pid " << record.pid << ": "
                           << session.error().to_string();
      if (::kill(record.pid, 0) == 0) retry.push_back(record);
      continue;
    }
    if (session.value()->pid() != record.pid) {
      // The port outlived the record's process and another listener
      // now owns it. Dropping the session releases that server.
      DLOG_DEBUG("client") << "port " << record.port << " of pid "
                           << record.pid << " answers for pid "
                           << session.value()->pid() << "; record dropped";
      continue;
    }
    unclaimed_.push_back(adopt(std::move(session).value())->pid());
    ++attached;
  }
  pending_ = std::move(retry);
  return attached;
}

Result<int> Client::hub_refresh(int) {
  DIONEA_ASSIGN_OR_RETURN(std::vector<proto::HubSessionEntry> entries,
                          hub_sessions());
  int fresh = 0;
  for (proto::HubSessionEntry& entry : entries) {
    auto it = known_.find(entry.session_id);
    bool is_new = it == known_.end();
    known_[entry.session_id] = entry;
    if (is_new && entry.alive && !entry.synthetic) {
      unclaimed_.push_back(entry.session_id);
      ++fresh;
    }
  }
  return fresh;
}

Session* Client::adopt(std::unique_ptr<Session> session) {
  int pid = session->pid();
  // A fresh transport: its predecessor's death and corpse are history.
  reported_dead_.erase(pid);
  crash_reports_.erase(pid);
  Session* raw = session.get();
  sessions_[pid] = std::move(session);
  return raw;
}

std::vector<SessionHandle> Client::sessions() const {
  std::vector<SessionHandle> out;
  if (hub_mode()) {
    for (const auto& [id, entry] : known_) {
      if (entry.alive && !entry.synthetic) out.push_back({id});
    }
  } else {
    for (const auto& [pid, unused] : sessions_) out.push_back({pid});
  }
  return out;
}

size_t Client::session_count() const { return sessions().size(); }

SessionHandle Client::handle_for_pid(int pid) const {
  if (!hub_mode()) {
    return sessions_.count(pid) > 0 ? SessionHandle{pid} : SessionHandle{};
  }
  // Newest matching registration wins: after a double fork the same
  // pid re-registers under a fresh (higher) session id.
  SessionHandle found{};
  for (const auto& [id, entry] : known_) {
    if (entry.pid == pid && entry.alive) found = SessionHandle{id};
  }
  return found;
}

int Client::pid_of(SessionHandle handle) const {
  if (!hub_mode()) return static_cast<int>(handle.id);
  auto it = known_.find(handle.id);
  return it == known_.end() ? 0 : it->second.pid;
}

Result<SessionHandle> Client::attach(int pid, int timeout_millis) {
  Stopwatch watch;
  while (true) {
    DIONEA_RETURN_IF_ERROR(refresh(timeout_millis).status());
    SessionHandle handle = handle_for_pid(pid);
    if (handle.valid()) {
      claim(handle);
      return handle;
    }
    if (fixed() || watch.elapsed_seconds() * 1000.0 > timeout_millis) {
      return Error(fixed() ? ErrorCode::kNotFound : ErrorCode::kTimeout,
                   "no session for pid " + std::to_string(pid));
    }
    sleep_for_millis(hub_mode() ? kHubPollMillis : kPortFilePollMillis);
  }
}

Result<SessionHandle> Client::attach_any(int timeout_millis) {
  auto live = [this](std::int64_t id) {
    if (!hub_mode()) return sessions_.count(static_cast<int>(id)) > 0;
    auto it = known_.find(id);
    return it != known_.end() && it->second.alive;
  };
  Stopwatch watch;
  while (true) {
    // Hand out sessions adopted by earlier refreshes first: one
    // refresh may adopt several children at once.
    while (!unclaimed_.empty()) {
      std::int64_t id = unclaimed_.front();
      unclaimed_.pop_front();
      if (live(id)) return SessionHandle{id};
    }
    DIONEA_RETURN_IF_ERROR(refresh(timeout_millis).status());
    if (unclaimed_.empty()) {
      if (fixed() || watch.elapsed_seconds() * 1000.0 > timeout_millis) {
        return Error(ErrorCode::kTimeout, "no new session appeared");
      }
      sleep_for_millis(hub_mode() ? kHubPollMillis : kPortFilePollMillis);
    }
  }
}

void Client::claim(SessionHandle handle) { std::erase(unclaimed_, handle.id); }

Session* Client::session(SessionHandle handle) {
  if (hub_mode()) {
    if (known_.count(handle.id) == 0) return nullptr;
    link_->set_route(handle.id);
    return link_.get();
  }
  auto it = sessions_.find(static_cast<int>(handle.id));
  return it == sessions_.end() ? nullptr : it->second.get();
}

void Client::drop(SessionHandle handle) {
  sessions_.erase(static_cast<int>(handle.id));
  known_.erase(handle.id);
  reported_dead_.erase(handle.id);
  claim(handle);
  if (active_.session == handle) active_ = View{};
}

Result<Session*> Client::reconnect(SessionHandle handle,
                                   const ReconnectPolicy& policy) {
  // Breakpoints belong to the user, not the connection: carry them
  // over from the dead session (if any survives to consult).
  std::vector<BreakpointSpec> carry;
  if (Session* old = session(handle)) carry = old->breakpoints_set();
  Rng rng(policy.seed ^ static_cast<std::uint64_t>(handle.id));
  double delay = static_cast<double>(policy.initial_delay_millis);
  Error last(ErrorCode::kUnavailable, "no reconnect attempt made");
  for (int attempt = 0; attempt < std::max(1, policy.max_attempts);
       ++attempt) {
    if (attempt > 0) {
      double factor =
          1.0 - policy.jitter + 2.0 * policy.jitter * rng.next_double();
      sleep_for_millis(static_cast<int>(delay * factor));
      delay = std::min(delay * policy.multiplier,
                       static_cast<double>(policy.max_delay_millis));
    }
    auto revived = redial(handle);
    if (!revived.is_ok()) {
      last = revived.error();
      continue;
    }
    if (hub_mode() && known_.count(handle.id) == 0) {
      return Error(ErrorCode::kNotFound,
                   "session " + std::to_string(handle.id) +
                       " no longer known to the hub");
    }
    Session* raw = revived.value();
    for (const BreakpointSpec& bp : carry) {
      // Best effort — the restarted debuggee may not know the file
      // (yet); a failed re-apply must not fail the reconnect.
      auto re_set = raw->set_breakpoint(bp.file, bp.line, bp.tid, bp.ignore);
      if (!re_set.is_ok()) {
        DLOG_DEBUG("client") << "reconnect: breakpoint " << bp.file << ":"
                             << bp.line << " not re-applied: "
                             << re_set.error().to_string();
      }
    }
    return raw;
  }
  return Error(last.code(), "reconnect to session " +
                                std::to_string(handle.id) + " failed after " +
                                std::to_string(policy.max_attempts) +
                                " attempts: " + last.message());
}

Result<Session*> Client::redial(SessionHandle handle) {
  if (hub_mode()) {
    // Same endpoint, same token: the hub's session ids survive untouched.
    DIONEA_ASSIGN_OR_RETURN(link_, Session::attach(endpoint_port_,
                                                   /*timeout_millis=*/500,
                                                   token_));
    if (Status sub = hub_attach_all(); !sub.is_ok()) {
      DLOG_DEBUG("client") << "reconnect: hub re-subscribe failed: "
                           << sub.to_string();
    }
    (void)hub_refresh(500);
    reported_dead_.erase(handle.id);
    link_->set_route(handle.id);
    return link_.get();
  }
  int pid = static_cast<int>(handle.id);
  std::uint16_t port = endpoint_port_;
  if (port_file_) {
    // Read the whole port file: the restarted server re-published, and
    // its newest record for this pid is the live one.
    DIONEA_ASSIGN_OR_RETURN(std::vector<ipc::PortRecord> records,
                            port_file_->read_all());
    port = 0;
    for (const ipc::PortRecord& record : records) {
      if (record.pid == pid) port = record.port;
    }
    if (port == 0) {
      return Error(ErrorCode::kNotFound,
                   "no port record for pid " + std::to_string(pid));
    }
  }
  DIONEA_ASSIGN_OR_RETURN(
      std::unique_ptr<Session> session,
      Session::attach(port, /*timeout_millis=*/500, token_, pid));
  if (session->pid() != pid) {
    return Error(ErrorCode::kNotFound,
                 "port " + std::to_string(port) + " answers for pid " +
                     std::to_string(session->pid()) + ", not " +
                     std::to_string(pid));
  }
  if (port_file_) {
    // The re-published record is now adopted; don't let the next
    // refresh() re-attach it and clobber this session. Other pids'
    // unread records stay pending for refresh().
    if (auto unread = port_file_->tail(&tail_offset_); unread.is_ok()) {
      pending_.insert(pending_.end(), unread.value().begin(),
                      unread.value().end());
    }
    std::erase_if(pending_, [pid](const ipc::PortRecord& record) {
      return record.pid == pid;
    });
  }
  return adopt(std::move(session));
}

void Client::note_child_exit(int pid, int exit_code, int term_signal) {
  if (hub_mode()) return;  // the hub synthesizes these itself
  if (!reported_dead_.insert(pid).second) return;
  pending_events_.push_back(
      {SessionHandle{pid},
       make_gone_event(pid, /*clean_exit=*/term_signal == 0, exit_code,
                       term_signal)});
}

std::string Client::crash_report_path(SessionHandle handle) const {
  auto it = crash_reports_.find(handle.id);
  return it == crash_reports_.end() ? std::string() : it->second;
}

Status Client::activate(SessionHandle handle, std::int64_t tid) {
  Session* target = session(handle);
  if (target == nullptr) {
    return Status(ErrorCode::kNotFound,
                  "no session " + std::to_string(handle.id));
  }
  // Validate the thread exists in that process (the §4.2 sequence:
  // clicking thread 2 of process B triggers a call into the server).
  DIONEA_ASSIGN_OR_RETURN(std::vector<RemoteThread> threads,
                          target->threads());
  for (const RemoteThread& t : threads) {
    if (t.tid == tid) {
      active_ = View{handle, tid};
      return Status::ok();
    }
  }
  return Status(ErrorCode::kNotFound,
                "session " + std::to_string(handle.id) + " has no thread " +
                    std::to_string(tid));
}

Client::View Client::active_view() const { return active_; }

Result<std::string> Client::active_source() {
  DIONEA_ASSIGN_OR_RETURN(std::vector<RemoteFrame> frames, active_frames());
  if (frames.empty()) {
    return Error(ErrorCode::kNotFound, "active thread has no frames");
  }
  return session(active_.session)->source(frames.front().file);
}

Result<std::vector<RemoteFrame>> Client::active_frames() {
  if (!active_.valid()) {
    return Error(ErrorCode::kInvalidArgument, "no active view");
  }
  Session* target = session(active_.session);
  if (target == nullptr) {
    return Error(ErrorCode::kNotFound, "active session is gone");
  }
  return target->frames(active_.tid);
}

Result<std::vector<Client::SessionEvent>> Client::poll_events(
    int timeout_millis) {
  // Out-of-band observations (note_child_exit) go first: they arrived
  // earlier than anything still sitting in a socket buffer.
  std::vector<SessionEvent> out(
      std::make_move_iterator(pending_events_.begin()),
      std::make_move_iterator(pending_events_.end()));
  pending_events_.clear();
  if (hub_mode()) {
    // The one transport is every session's: losing it silences them
    // all at once.
    DIONEA_ASSIGN_OR_RETURN(
        bool alive, drain(*link_, SessionHandle{}, timeout_millis, out));
    if (!alive) {
      for (SessionHandle handle : sessions()) {
        report_gone(handle, link_->terminated_seen(), out);
      }
    }
    return out;
  }
  for (auto& [pid, session] : sessions_) {
    if (reported_dead_.count(pid) > 0) continue;  // already announced
    DIONEA_ASSIGN_OR_RETURN(
        bool alive, drain(*session, SessionHandle{pid}, timeout_millis, out));
    if (!alive) {
      report_gone(SessionHandle{pid}, session->terminated_seen(), out);
    }
  }
  return out;
}

Result<bool> Client::drain(Session& link, SessionHandle owner,
                           int timeout_millis, std::vector<SessionEvent>& out) {
  if (!link.connected()) return false;
  int wait = timeout_millis;
  while (true) {
    auto event = link.poll_event(wait);
    if (!event.is_ok()) {
      if (event.error().code() == ErrorCode::kClosed) return false;
      return event.error();
    }
    if (!event.value().has_value()) return true;
    DebugEvent ev = std::move(*event.value());
    // The hub stamps every routed event with its session id; a direct
    // server's events belong to the session they arrived on.
    SessionHandle handle =
        owner.valid() ? owner
                      : SessionHandle{ev.payload.get_int(proto::kSessionIdKey)};
    if (ev.kind == proto::Event::kProcessCrashed ||
        ev.kind == proto::Event::kProcessExited) {
      // The last gasp: remember where the corpse is and mark the
      // session announced, so the transport collapse that follows is
      // not reported a second time.
      std::string path = ev.payload.get_string("report_path");
      if (!path.empty()) crash_reports_[handle.id] = path;
      reported_dead_.insert(handle.id);
      if (auto it = known_.find(handle.id); it != known_.end()) {
        it->second.alive = false;
      }
    }
    out.push_back({handle, std::move(ev)});
    wait = 0;  // drain whatever else is buffered without blocking again
  }
}

void Client::report_gone(SessionHandle handle, bool clean_exit,
                         std::vector<SessionEvent>& out) {
  if (!reported_dead_.insert(handle.id).second) return;
  out.push_back({handle, make_gone_event(pid_of(handle), clean_exit)});
}

Result<std::vector<proto::HubSessionEntry>> Client::hub_sessions() {
  if (!hub_mode()) {
    return Error(ErrorCode::kUnavailable, "not connected to a hub");
  }
  DIONEA_ASSIGN_OR_RETURN(
      ipc::wire::Value reply,
      link_->request(proto::HubSessionsRequest::kName));
  DIONEA_ASSIGN_OR_RETURN(proto::HubSessionsResponse response,
                          proto::HubSessionsResponse::from_wire(reply));
  return std::move(response.sessions);
}

Status Client::hub_attach_all() {
  if (!hub_mode()) {
    return Status(ErrorCode::kUnavailable, "not connected to a hub");
  }
  proto::HubAttachRequest request;
  request.session_id = 0;  // 0 = everything, present and future
  return link_->request(proto::HubAttachRequest::kName, request.to_wire())
      .status();
}

}  // namespace dionea::client

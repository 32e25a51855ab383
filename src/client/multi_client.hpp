// The multi-process client (Fig. 1): a single client holding one
// session per debuggee process — "1 client : N servers; 1 server : 1
// client" (§4.1) — plus the debug-view multiplexing of §4.2 (exactly
// one active view (process, thread) at a time).
//
// New processes are discovered by tailing the shared port file that
// fork handler C appends to; refresh() adopts any not-yet-attached
// records. This is the client half of §5.3 problem 3.
//
// DEPRECATED (1.5): new code should use client::Client (client.hpp),
// which subsumes this class — Client::discover() wraps a MultiClient
// and adds the handle-addressed surface that also works against a
// debug hub. This class stays as the discovery engine behind Client
// and for code mid-migration (Client::legacy()).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "client/session.hpp"
#include "ipc/port_file.hpp"
#include "support/result.hpp"

namespace dionea::client {

// Capped exponential backoff with jitter for reconnect(): the first
// attempt is immediate; attempt n sleeps
//   delay_n * uniform(1 - jitter, 1 + jitter),
// delay_{n+1} = min(delay_n * multiplier, max_delay_millis).
// `seed` (xor'd with the pid) makes the jitter deterministic in tests.
struct ReconnectPolicy {
  int max_attempts = 8;
  int initial_delay_millis = 20;
  int max_delay_millis = 1000;
  double multiplier = 2.0;
  double jitter = 0.25;
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
};

class MultiClient {
 public:
  explicit MultiClient(std::string port_file_path)
      : port_file_(std::move(port_file_path)) {}

  // Attach sessions for every port record not seen yet. Returns the
  // number of new sessions. A record whose attach fails stays pending
  // and is retried on the next refresh while its process lives; once
  // the process has exited the record is dropped silently (it may
  // outlive its process).
  Result<int> refresh(int timeout_millis);

  // Block until a session to `pid` exists (adopting new port records
  // as they appear) — used right after the debuggee forks.
  Result<Session*> await_process(int pid, int timeout_millis);

  // Block until an unclaimed process is available and return its
  // session. Every session starts "unclaimed" when adopted; it is
  // claimed by await_new_process, await_process, or claim().
  Result<Session*> await_new_process(int timeout_millis);

  // Mark a pid as claimed so await_new_process won't hand it out
  // (e.g. the initial debuggee after the first refresh()).
  void claim(int pid);

  Session* session(int pid);
  std::vector<int> pids() const;
  size_t session_count() const noexcept { return sessions_.size(); }
  void drop(int pid) { sessions_.erase(pid); }

  // Re-attach to `pid` after its session died (debuggee restarted the
  // server, forked over itself, or the transport broke). Tails the
  // port file for the pid's newest record on each attempt, backing off
  // per `policy`. On success the old session is replaced, breakpoints
  // the old session had set are re-applied (server ids change; paused-
  // thread state is NOT recovered — the peer restarted), and the pid
  // is cleared from the dead list so events flow again.
  Result<Session*> reconnect(int pid, const ReconnectPolicy& policy = {});

  // Feed an out-of-band child-exit observation (e.g. from
  // mp::ChildReaper) into the event stream: queues a process-exited /
  // process-crashed event for `pid` and marks it dead. `term_signal`
  // != 0 means the child was killed by that signal (a crash).
  void note_child_exit(int pid, int exit_code, int term_signal);

  // Post-mortem report path for `pid`, learned from the server's
  // last-gasp process-crashed frame (or a fetched postmortem
  // response). Empty when no crash has been seen for that pid.
  std::string crash_report_path(int pid) const {
    auto it = crash_reports_.find(pid);
    return it == crash_reports_.end() ? std::string() : it->second;
  }

  // ---- debug views (§4.2) ----
  struct View {
    int pid = 0;
    std::int64_t tid = 0;
    bool valid() const noexcept { return pid != 0; }
  };
  // Clicking a thread in the GUI: that (process, thread) becomes the
  // active view; the previous one is hidden.
  Status activate(int pid, std::int64_t tid);
  View active_view() const noexcept { return active_; }
  // Source text + current frame stack of the active view — what the
  // GUI's Source code view would render.
  Result<std::string> active_source();
  Result<std::vector<RemoteFrame>> active_frames();

  // Poll every session for one pending event; returns {pid, event}
  // pairs in session order. A session whose transport died yields one
  // synthesized event — process-exited if the debuggee announced a
  // clean `terminated` first, process-crashed otherwise — and is then
  // muted until reconnect() revives it.
  Result<std::vector<std::pair<int, DebugEvent>>> poll_all_events(
      int timeout_millis_per_session);

 private:
  ipc::PortFile port_file_;
  std::uint64_t tail_offset_ = 0;  // port-file bytes already read
  // Records read but not attached yet: the attach failed while the
  // process was still alive, so refresh() tries again.
  std::vector<ipc::PortRecord> pending_;
  std::map<int, std::unique_ptr<Session>> sessions_;
  std::deque<int> unclaimed_;  // adopted but not yet returned by
                               // await_new_process
  // Pids whose death was already reported; their sessions are skipped
  // (not erased — state like breakpoints_set survives for reconnect).
  std::set<int> reported_dead_;
  // pid -> crash-report path from the server's last-gasp frame.
  std::map<int, std::string> crash_reports_;
  // Synthesized events (note_child_exit) waiting for poll_all_events.
  std::deque<std::pair<int, DebugEvent>> pending_events_;
  View active_{};
};

}  // namespace dionea::client
